//! The epoch-versioned binary snapshot format.
//!
//! A snapshot captures one graph version — the flat CSR [`DataGraph`], and
//! optionally its [`PrestigeVector`] and [`InvertedIndex`] — as a single
//! file that loads back **bit-identically**: raw CSR arrays and IEEE-754
//! weight bit patterns are written verbatim and reassembled without
//! re-sorting or recomputation, so a loaded graph answers every query
//! exactly as the one that was written.
//!
//! ## Layout
//!
//! ```text
//! +--------------------------------------------------------------+
//! | header (64 B): magic "BANKSDB0" | version | page_size |      |
//! |                epoch | record_count | reserved | header CRC  |
//! +--------------------------------------------------------------+
//! | record: tag | pad | payload_len | payload CRC | reserved     |
//! |         <pad zero bytes> <payload> <align-to-8 zeros>        |
//! +--------------------------------------------------------------+
//! | ... record_count records ...                                 |
//! +--------------------------------------------------------------+
//! ```
//!
//! Records, in file order: 1 kind names, 2 node metadata, 3 expansion
//! policy, 4 counts, 7 degrees, 5 and 6 the out and in CSR adjacency, then
//! the optional ones — 10 tombstones (only when a node was removed),
//! 8 prestige, 9 inverted index, and 11 **derivation** (only when the
//! writer knows how it derived index and prestige).  Record 3 is a
//! constant 18 bytes: the graph is built one way, the paper's, and a
//! reader refuses any other value as corrupt.  Record 9 likewise opens
//! with a constant 138-byte tokenizer prefix (stop-word removal off,
//! minimum token length 1, a 20-word stop list the tokenizer never
//! applies), and a reader refuses any other prefix as corrupt.  Record 11
//! is 32 bytes on disk: a 24-byte record header and a 2-byte payload
//! padded to 8 — byte 0 names the index (0 label index, 1 external),
//! byte 1 the prestige (0 uniform, 2 pinned; 1 once named indegree
//! prestige and now reads as no derivation).  The serving tier writes it
//! at every checkpoint so that a follower, or a restart with nothing to
//! replay, can serve the persisted index and prestige instead of deriving
//! them again ([`Derivation`]).  Readers skip tags they do not know, so a
//! file with record 11 loads in builds that predate it, and a file
//! without it loads as before.
//!
//! Every record payload is guarded by a CRC-32; the CSR adjacency records
//! additionally start on a `page_size` boundary (the `pad` field), so the
//! bulk node/edge arrays sit page-aligned in the file and can be
//! memory-mapped or sliced zero-copy by readers that want to skip the
//! decode step.
//!
//! Records are independent, so a large snapshot is encoded, checksummed
//! and decoded on up to `available_parallelism()` scoped threads, one
//! record per job; results are assembled, and errors reported, in file
//! order, which makes the bytes and the first error exactly those of a
//! sequential pass.  Snapshots smaller than `PARALLEL_MIN_BYTES` (512 KiB)
//! never leave the calling thread.
//!
//! Snapshots are written atomically: the bytes go to a temporary file in
//! the same directory, are fsynced, and are renamed into place.

use std::path::Path;
use std::sync::{Arc, OnceLock};

use banks_graph::codec::{
    put_f64, put_f64_slice, put_str, put_u16, put_u32, put_u32_slice, put_u64, Cursor,
};
use banks_graph::{
    CsrAdjacency, DataGraph, EdgeKind, KindId, NodeId, NodeMeta, StorageParts, StorageRef,
};
use banks_prestige::PrestigeVector;
use banks_textindex::InvertedIndex;

use crate::crc::crc32;
use crate::error::{PersistError, Result};
use crate::par::{run_ordered, Job, Task};

/// Magic bytes opening every snapshot file (the `DB0` echoes the AFS ubik
/// database format this layout follows).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"BANKSDB0";
/// Highest snapshot format version this build reads and the version it
/// writes.
pub const FORMAT_VERSION: u32 = 1;
/// Alignment of the CSR record payloads within the file.
pub const PAGE_SIZE: u32 = 4096;

const HEADER_LEN: usize = 64;
const RECORD_HEADER_LEN: usize = 24;

const TAG_KINDS: u32 = 1;
const TAG_META: u32 = 2;
const TAG_POLICY: u32 = 3;
const TAG_COUNTS: u32 = 4;
const TAG_CSR_OUT: u32 = 5;
const TAG_CSR_INC: u32 = 6;
const TAG_DEGREES: u32 = 7;
const TAG_PRESTIGE: u32 = 8;
const TAG_INDEX: u32 = 9;
/// Optional record: ids tombstoned by `RemoveNode`, sorted ascending.
/// Written only when non-empty, so pre-removal snapshots are byte-stable
/// and older files (which never contain the tag) keep decoding.
const TAG_TOMBSTONES: u32 = 10;
/// Optional record: how the index and prestige were derived
/// ([`Derivation`]).  Written last, so stripping it (and fixing the
/// header's record count and CRC) gives back the file a writer without it
/// produces.
const TAG_DERIVATION: u32 = 11;

/// How a snapshot's keyword index was derived.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexDerivation {
    /// Built from the node labels alone: a reader may serve it and keep it
    /// current with full label deltas.
    Labels,
    /// Supplied from outside (it may cover text the graph does not hold):
    /// a reader serves it as it is and applies additive deltas only.
    External,
}

/// How a snapshot's prestige vector was derived.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrestigeDerivation {
    /// `1.0` for every node.
    Uniform,
    /// Supplied from outside; only the persisted values say what it is.
    Pinned,
}

/// The optional derivation record (tag 11): how the serving tier derived
/// the index and prestige persisted beside the graph.  Without it a
/// reader can only re-derive them; with it, it can serve them as written.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Derivation {
    /// How the index was derived.
    pub index: IndexDerivation,
    /// How the prestige was derived.
    pub prestige: PrestigeDerivation,
}

impl Derivation {
    fn encode(self) -> Vec<u8> {
        let index = match self.index {
            IndexDerivation::Labels => 0,
            IndexDerivation::External => 1,
        };
        let prestige = match self.prestige {
            PrestigeDerivation::Uniform => 0,
            PrestigeDerivation::Pinned => 2,
        };
        vec![index, prestige]
    }

    /// `None` for a payload this build cannot read (too short, or a mode
    /// byte from a newer writer): the reader then re-derives, as it does
    /// for a file without the record.
    fn decode(payload: &[u8]) -> Option<Derivation> {
        let index = match payload.first()? {
            0 => IndexDerivation::Labels,
            1 => IndexDerivation::External,
            _ => return None,
        };
        let prestige = match payload.get(1)? {
            0 => PrestigeDerivation::Uniform,
            2 => PrestigeDerivation::Pinned,
            _ => return None,
        };
        Some(Derivation { index, prestige })
    }
}

/// Everything a snapshot file holds: the graph (epoch restored) plus the
/// optional derived structures that were persisted alongside it.
#[derive(Clone, Debug)]
pub struct SnapshotContents {
    /// The reloaded graph, carrying the epoch it was written under.
    pub graph: DataGraph,
    /// The persisted prestige vector, if one was written (and kept).
    pub prestige: Option<PrestigeVector>,
    /// The persisted inverted index, if one was written (and kept).
    pub index: Option<InvertedIndex>,
    /// How index and prestige were derived, if the writer said so and this
    /// build can read it.
    pub derivation: Option<Derivation>,
}

/// Which optional parts [`decode_snapshot_with`] builds.  The graph is
/// always built, and every record's CRC is checked either way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Keep {
    /// Build the prestige vector.
    pub prestige: bool,
    /// Build the inverted index.
    pub index: bool,
}

impl Keep {
    /// Build every part the file holds.
    pub const ALL: Keep = Keep {
        prestige: true,
        index: true,
    };
    /// Build the graph only.
    pub const GRAPH: Keep = Keep {
        prestige: false,
        index: false,
    };
}

// ----------------------------------------------------------------- encoding

/// Serializes a snapshot into bytes.  A graph carrying a copy-on-write
/// overlay is compacted first (O(V + E)); the caller's graph is untouched.
pub fn encode_snapshot(
    graph: &DataGraph,
    prestige: Option<&PrestigeVector>,
    index: Option<&InvertedIndex>,
) -> Vec<u8> {
    encode_snapshot_with(graph, prestige, index, None)
}

/// [`encode_snapshot`] plus the optional derivation record, appended after
/// every other record.  With `None` the bytes are exactly
/// [`encode_snapshot`]'s.
pub fn encode_snapshot_with(
    graph: &DataGraph,
    prestige: Option<&PrestigeVector>,
    index: Option<&InvertedIndex>,
    derivation: Option<Derivation>,
) -> Vec<u8> {
    let flat;
    let graph = if graph.has_overlay() {
        flat = graph.compacted();
        &flat
    } else {
        graph
    };
    let parts = graph
        .flat_storage()
        .expect("compacted graph has flat storage");
    let nodes = parts.meta.len();

    // Weights estimate payload bytes; they order the jobs and decide
    // whether threads are worth it.
    let mut jobs: Vec<Job<'_, Encoded>> = Vec::with_capacity(11);
    jobs.push(job(TAG_KINDS, false, 64, move || encode_kinds(parts)));
    jobs.push(job(TAG_META, false, 24 * nodes, move || encode_meta(parts)));
    jobs.push(job(TAG_POLICY, false, 18, encode_policy));
    jobs.push(job(TAG_COUNTS, false, 32, move || encode_counts(parts)));
    jobs.push(job(TAG_DEGREES, false, 8 * nodes, move || {
        encode_degrees(parts)
    }));
    for (tag, csr) in [(TAG_CSR_OUT, parts.out), (TAG_CSR_INC, parts.inc)] {
        let weight = 4 * csr.raw_offsets().len() + 13 * csr.num_edges();
        jobs.push(job(tag, true, weight, move || encode_csr(csr)));
    }
    if !parts.tombstones.is_empty() {
        let tombstones = parts.tombstones;
        jobs.push(job(
            TAG_TOMBSTONES,
            false,
            4 * tombstones.len(),
            move || {
                let mut buf = Vec::new();
                put_u64(&mut buf, tombstones.len() as u64);
                put_u32_slice(&mut buf, tombstones);
                buf
            },
        ));
    }
    if let Some(p) = prestige {
        jobs.push(job(TAG_PRESTIGE, false, 8 * p.len(), move || {
            let mut buf = Vec::with_capacity(8 + 8 * p.len());
            put_u64(&mut buf, p.len() as u64);
            put_f64_slice(&mut buf, p.values());
            buf
        }));
    }
    if let Some(idx) = index {
        jobs.push(job(TAG_INDEX, false, 16 * nodes, move || encode_index(idx)));
    }
    if let Some(derivation) = derivation {
        jobs.push(job(TAG_DERIVATION, false, 2, move || derivation.encode()));
    }
    let records = run_ordered(jobs);

    let mut len = HEADER_LEN;
    for record in &records {
        len += RECORD_HEADER_LEN + record_pad(len, record.page_align);
        len = (len + record.payload.len()).div_ceil(8) * 8;
    }
    let mut out = header_bytes(parts, records.len() as u64);
    out.reserve_exact(len - out.len());
    for record in records {
        append_record(&mut out, &record);
    }
    debug_assert_eq!(out.len(), len);
    out
}

/// One record, encoded: its tag, whether its payload starts on a page,
/// the payload and the payload's CRC.
struct Encoded {
    tag: u32,
    page_align: bool,
    payload: Vec<u8>,
    crc: u32,
}

/// The job that encodes and checksums one record.
fn job<'a>(
    tag: u32,
    page_align: bool,
    weight: usize,
    encode: impl FnOnce() -> Vec<u8> + Send + 'a,
) -> Job<'a, Encoded> {
    let task: Task<'a, Encoded> = Box::new(move || {
        let payload = encode();
        let crc = crc32(&payload);
        Encoded {
            tag,
            page_align,
            payload,
            crc,
        }
    });
    (weight, task)
}

fn encode_kinds(parts: StorageRef<'_>) -> Vec<u8> {
    let mut kinds = Vec::new();
    put_u32(&mut kinds, parts.kinds.len() as u32);
    for k in parts.kinds {
        put_str(&mut kinds, k);
    }
    kinds
}

fn encode_meta(parts: StorageRef<'_>) -> Vec<u8> {
    let mut meta = Vec::new();
    put_u64(&mut meta, parts.meta.len() as u64);
    for m in parts.meta {
        put_u16(&mut meta, m.kind.0);
        put_str(&mut meta, &m.label);
    }
    meta
}

/// Record 3, the expansion policy, in the one form the graph is built:
/// backward edges on (1), weighted by the paper's indegree-log rule
/// (variant 0, parameter 0.0), default forward weight 1.0.
fn encode_policy() -> Vec<u8> {
    let mut policy = vec![1, 0];
    put_f64(&mut policy, 0.0);
    put_f64(&mut policy, 1.0);
    policy
}

fn encode_counts(parts: StorageRef<'_>) -> Vec<u8> {
    let mut counts = Vec::new();
    put_u64(&mut counts, parts.num_original_edges as u64);
    put_u64(&mut counts, parts.num_directed_edges as u64);
    put_u64(&mut counts, parts.meta.len() as u64);
    put_u64(&mut counts, parts.kinds.len() as u64);
    counts
}

fn encode_degrees(parts: StorageRef<'_>) -> Vec<u8> {
    let mut degrees = Vec::with_capacity(8 + 8 * parts.meta.len());
    put_u64(&mut degrees, parts.meta.len() as u64);
    put_u32_slice(&mut degrees, parts.forward_indegree);
    put_u32_slice(&mut degrees, parts.forward_outdegree);
    degrees
}

fn header_bytes(parts: StorageRef<'_>, record_count: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN);
    out.extend_from_slice(SNAPSHOT_MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u32(&mut out, PAGE_SIZE);
    put_u64(&mut out, parts.epoch);
    put_u64(&mut out, record_count);
    out.resize(HEADER_LEN - 4, 0);
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

fn encode_csr(csr: &CsrAdjacency) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + csr.raw_offsets().len() * 4 + csr.num_edges() * 13);
    put_u64(&mut buf, csr.num_nodes() as u64);
    put_u64(&mut buf, csr.num_edges() as u64);
    put_u32_slice(&mut buf, csr.raw_offsets());
    put_u32_slice(&mut buf, csr.raw_targets());
    put_f64_slice(&mut buf, csr.raw_weights());
    buf.extend(csr.raw_kinds().iter().map(|k| k.is_backward() as u8));
    buf
}

/// The stop list record 9's tokenizer prefix names, sorted.  The tokenizer
/// drops no word; the list stays on disk so that the record keeps its
/// bytes.
const INDEX_STOPWORDS: [&str; 20] = [
    "a", "an", "and", "are", "as", "at", "be", "by", "for", "from", "in", "is", "it", "of", "on",
    "or", "that", "the", "to", "with",
];

/// The 138 bytes that open record 9, in the one form the index is built:
/// stop-word removal off (0), minimum token length 1, then the 20 words of
/// [`INDEX_STOPWORDS`].
fn tokenizer_prefix() -> Vec<u8> {
    let mut buf = vec![0];
    put_u32(&mut buf, 1);
    put_u32(&mut buf, INDEX_STOPWORDS.len() as u32);
    for word in INDEX_STOPWORDS {
        put_str(&mut buf, word);
    }
    buf
}

fn encode_index(idx: &InvertedIndex) -> Vec<u8> {
    let mut buf = tokenizer_prefix();

    // Sort terms so identical indexes serialize to identical bytes,
    // regardless of hash-map iteration order.
    let mut terms: Vec<&str> = idx.terms().collect();
    terms.sort_unstable();
    put_u64(&mut buf, terms.len() as u64);
    for term in terms {
        put_str(&mut buf, term);
        let postings = idx.postings(term);
        put_u32(&mut buf, postings.len() as u32);
        for n in postings {
            put_u32(&mut buf, n.0);
        }
    }

    let mut kind_terms: Vec<(&str, &[KindId])> = idx.kind_terms().collect();
    kind_terms.sort_unstable_by_key(|(t, _)| *t);
    put_u32(&mut buf, kind_terms.len() as u32);
    for (term, kinds) in kind_terms {
        put_str(&mut buf, term);
        put_u32(&mut buf, kinds.len() as u32);
        for k in kinds {
            put_u16(&mut buf, k.0);
        }
    }
    buf
}

/// Zero bytes between a record header that starts at `start` and its
/// payload: CSR payloads begin on a page boundary.
fn record_pad(start: usize, page_align: bool) -> usize {
    if page_align {
        let page = PAGE_SIZE as usize;
        (page - (start + RECORD_HEADER_LEN) % page) % page
    } else {
        0
    }
}

fn append_record(out: &mut Vec<u8>, record: &Encoded) {
    debug_assert_eq!(out.len() % 8, 0, "records start 8-aligned");
    let pad = record_pad(out.len(), record.page_align);
    put_u32(out, record.tag);
    put_u32(out, pad as u32);
    put_u64(out, record.payload.len() as u64);
    put_u32(out, record.crc);
    put_u32(out, 0);
    out.resize(out.len() + pad, 0);
    out.extend_from_slice(&record.payload);
    let aligned = out.len().div_ceil(8) * 8;
    out.resize(aligned, 0);
}

/// Writes a snapshot atomically (temp file + fsync + rename) and returns
/// the number of bytes written.
pub fn write_snapshot(
    path: &Path,
    graph: &DataGraph,
    prestige: Option<&PrestigeVector>,
    index: Option<&InvertedIndex>,
) -> Result<u64> {
    write_snapshot_bytes(path, &encode_snapshot(graph, prestige, index))
}

/// Writes already-encoded snapshot bytes atomically (temp file + fsync +
/// rename) and returns their length — how a follower persists the file
/// its leader sent without re-encoding it.
pub fn write_snapshot_bytes(path: &Path, bytes: &[u8]) -> Result<u64> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    let f = std::fs::File::open(&tmp)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        // Persist the rename itself; not all filesystems support opening a
        // directory for sync, so failures here are non-fatal.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(bytes.len() as u64)
}

// ----------------------------------------------------------------- decoding

/// Reads and decodes a snapshot file.
pub fn read_snapshot(path: &Path) -> Result<SnapshotContents> {
    decode_snapshot(&std::fs::read(path)?)
}

/// Decodes snapshot bytes.  Every corruption mode — wrong magic, future
/// format version, bit flips, truncation, inconsistent structure — yields
/// a typed [`PersistError`]; this function never panics on bad input.
pub fn decode_snapshot(bytes: &[u8]) -> Result<SnapshotContents> {
    decode_snapshot_with(bytes, |_| Keep::ALL)
}

/// One record as the header walk found it.
#[derive(Clone, Copy)]
struct RecordRef<'a> {
    tag: u32,
    stored_crc: u32,
    payload: &'a [u8],
}

/// The records' decoded forms, each filled by the job that checksummed
/// its record.  A slot left empty means its record is absent (or, for
/// prestige and index, not kept).
#[derive(Default)]
struct Decoded {
    kinds: OnceLock<Result<Vec<String>>>,
    meta: OnceLock<Result<Vec<NodeMeta>>>,
    policy: OnceLock<Result<()>>,
    counts: OnceLock<Result<[usize; 4]>>,
    degrees: OnceLock<Result<Degrees>>,
    out: OnceLock<Result<CsrAdjacency>>,
    inc: OnceLock<Result<CsrAdjacency>>,
    tombstones: OnceLock<Result<Vec<u32>>>,
    prestige: OnceLock<Result<PrestigeVector>>,
    index: OnceLock<Result<InvertedIndex>>,
}

impl Decoded {
    /// Decodes one record into its slot.  A second record with the same
    /// tag finds the slot taken; the duplicate is reported by the caller.
    fn decode(&self, tag: u32, payload: &[u8], keep: Keep) {
        let _ = match tag {
            TAG_KINDS => self.kinds.set(decode_kinds(payload)).is_ok(),
            TAG_META => self.meta.set(decode_meta(payload)).is_ok(),
            TAG_POLICY => self.policy.set(decode_policy(payload)).is_ok(),
            TAG_COUNTS => self.counts.set(decode_counts(payload)).is_ok(),
            TAG_DEGREES => self.degrees.set(decode_degrees(payload)).is_ok(),
            TAG_CSR_OUT => self.out.set(decode_csr(payload)).is_ok(),
            TAG_CSR_INC => self.inc.set(decode_csr(payload)).is_ok(),
            TAG_TOMBSTONES => self.tombstones.set(decode_tombstones(payload)).is_ok(),
            TAG_PRESTIGE if keep.prestige => self.prestige.set(decode_prestige(payload)).is_ok(),
            TAG_INDEX if keep.index => self.index.set(decode_index(payload)).is_ok(),
            _ => false,
        };
    }
}

/// A required record's decoded form, or the error naming it missing.
fn required<T>(slot: OnceLock<Result<T>>, name: &str) -> Result<T> {
    slot.into_inner().unwrap_or_else(|| {
        Err(PersistError::Corrupt {
            detail: format!("missing required record: {name}"),
        })
    })
}

/// [`decode_snapshot`] that builds only the optional parts `keep` asks
/// for, given the file's derivation record (`None` when absent or
/// unreadable).  Every record's CRC is still checked, and for
/// [`Keep::ALL`] the result — contents or error — is exactly
/// [`decode_snapshot`]'s.
pub fn decode_snapshot_with(
    bytes: &[u8],
    keep: impl FnOnce(Option<Derivation>) -> Keep,
) -> Result<SnapshotContents> {
    let (epoch, record_count) = decode_header(bytes)?;
    let (records, walk_error) = walk_records(bytes, record_count);
    let derivation = records
        .iter()
        .find(|r| r.tag == TAG_DERIVATION && crc32(r.payload) == r.stored_crc)
        .and_then(|r| Derivation::decode(r.payload));
    let keep = keep(derivation);

    // Checksum every record and decode the ones that pass, one job per
    // record; then report the first failure in file order.
    let decoded = Decoded::default();
    let jobs: Vec<Job<'_, u32>> = records
        .iter()
        .map(|&r| {
            let decoded = &decoded;
            let job: Job<'_, u32> = (
                r.payload.len(),
                Box::new(move || {
                    let crc = crc32(r.payload);
                    if crc == r.stored_crc {
                        decoded.decode(r.tag, r.payload, keep);
                    }
                    crc
                }),
            );
            job
        })
        .collect();
    let crcs = run_ordered(jobs);
    for (i, (r, &computed)) in records.iter().zip(&crcs).enumerate() {
        if computed != r.stored_crc {
            return Err(PersistError::ChecksumMismatch {
                region: "snapshot record",
                stored: r.stored_crc,
                computed,
            });
        }
        if records[..i].iter().any(|p| p.tag == r.tag) {
            return Err(PersistError::Corrupt {
                detail: format!("duplicate record tag {}", r.tag),
            });
        }
    }
    if let Some(e) = walk_error {
        return Err(e);
    }

    let kinds = required(decoded.kinds, "kinds")?;
    let kind_count = kinds.len();
    let meta = required(decoded.meta, "meta")?;
    let node_count = meta.len();
    required(decoded.policy, "policy")?;
    let [num_original_edges, num_directed_edges, counted_nodes, counted_kinds] =
        required(decoded.counts, "counts")?;
    if counted_nodes != node_count || counted_kinds != kind_count {
        return Err(PersistError::Corrupt {
            detail: format!(
                "counts record disagrees: {counted_nodes}/{counted_kinds} vs \
                 {node_count} nodes / {kind_count} kinds"
            ),
        });
    }
    let (degree_nodes, forward_indegree, forward_outdegree) = required(decoded.degrees, "degrees")?;
    if degree_nodes != node_count {
        return Err(PersistError::Corrupt {
            detail: format!("degree arrays cover {degree_nodes} nodes, expected {node_count}"),
        });
    }
    let out = required(decoded.out, "out adjacency")?;
    let inc = required(decoded.inc, "in adjacency")?;
    if out.num_edges() != num_directed_edges {
        return Err(PersistError::Corrupt {
            detail: format!(
                "out adjacency stores {} edges, counts record says {num_directed_edges}",
                out.num_edges()
            ),
        });
    }
    // Optional tombstone set (absent in snapshots written before
    // `RemoveNode` existed, and whenever no node was ever removed).
    let tombstones = decoded
        .tombstones
        .into_inner()
        .transpose()?
        .unwrap_or_default();

    let mut graph = DataGraph::from_storage_parts(StorageParts {
        kinds,
        meta,
        out,
        inc,
        forward_indegree,
        forward_outdegree,
        num_original_edges,
        tombstones,
    })?;
    graph.restore_epoch(epoch);

    let prestige = decoded.prestige.into_inner().transpose()?;
    let index = decoded.index.into_inner().transpose()?;
    Ok(SnapshotContents {
        graph,
        prestige,
        index,
        derivation,
    })
}

/// Walks the record headers in file order, stopping at the first one that
/// is cut short; returns the records found and that error, if any.
fn walk_records(bytes: &[u8], record_count: u64) -> (Vec<RecordRef<'_>>, Option<PersistError>) {
    // `decode_header` bounds the count by the file length.
    let mut records = Vec::with_capacity(record_count as usize);
    let mut pos = HEADER_LEN;
    for _ in 0..record_count {
        match record_at(bytes, pos) {
            Ok((record, next)) => {
                records.push(record);
                pos = next;
            }
            Err(e) => return (records, Some(e)),
        }
    }
    (records, None)
}

/// The record whose header starts at `pos`, and where the next one starts.
fn record_at(bytes: &[u8], pos: usize) -> Result<(RecordRef<'_>, usize)> {
    let rest = bytes.get(pos..).ok_or(PersistError::Truncated {
        offset: pos as u64,
        region: "record header",
    })?;
    let mut c = Cursor::new(rest, pos as u64);
    let tag = c.u32("record header")?;
    let pad = c.u32("record header")? as usize;
    let len = c.u64("record header")? as usize;
    let stored_crc = c.u32("record header")?;
    let _reserved = c.u32("record header")?;
    let payload_start = pos + RECORD_HEADER_LEN + pad;
    let payload_end = payload_start.saturating_add(len);
    if payload_end > bytes.len() {
        return Err(PersistError::Truncated {
            offset: pos as u64,
            region: "record payload",
        });
    }
    let record = RecordRef {
        tag,
        stored_crc,
        payload: &bytes[payload_start..payload_end],
    };
    Ok((record, payload_end.div_ceil(8) * 8))
}

/// Validates the fixed header and returns `(epoch, record_count)`.
pub fn decode_header(bytes: &[u8]) -> Result<(u64, u64)> {
    if bytes.len() < HEADER_LEN {
        return Err(PersistError::Truncated {
            offset: 0,
            region: "snapshot header",
        });
    }
    if &bytes[..8] != SNAPSHOT_MAGIC {
        return Err(PersistError::BadMagic {
            found: bytes[..8].to_vec(),
            expected: SNAPSHOT_MAGIC,
        });
    }
    let mut c = Cursor::new(&bytes[8..HEADER_LEN], 8);
    let version = c.u32("header version")?;
    let _page_size = c.u32("header page size")?;
    let epoch = c.u64("header epoch")?;
    let record_count = c.u64("header record count")?;
    c.take(HEADER_LEN - 4 - c.offset() as usize, "header padding")?;
    let stored_crc = c.u32("header crc")?;
    let computed = crc32(&bytes[..HEADER_LEN - 4]);
    if computed != stored_crc {
        return Err(PersistError::ChecksumMismatch {
            region: "snapshot header",
            stored: stored_crc,
            computed,
        });
    }
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    if record_count > (bytes.len() / RECORD_HEADER_LEN) as u64 {
        return Err(PersistError::Corrupt {
            detail: format!("record count {record_count} exceeds file capacity"),
        });
    }
    Ok((epoch, record_count))
}

fn decode_kinds(payload: &[u8]) -> Result<Vec<String>> {
    let mut c = Cursor::new(payload, 0);
    let kind_count = c.u32("kinds")? as usize;
    if kind_count > c.remaining() {
        return Err(PersistError::Corrupt {
            detail: format!("kind count {kind_count} exceeds record size"),
        });
    }
    let mut kinds = Vec::with_capacity(kind_count);
    for _ in 0..kind_count {
        kinds.push(c.string("kind name")?);
    }
    Ok(kinds)
}

fn decode_meta(payload: &[u8]) -> Result<Vec<NodeMeta>> {
    let mut c = Cursor::new(payload, 0);
    let node_count = c.count(3, "node meta")?;
    let mut meta = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        let kind = KindId(c.u16("node kind")?);
        let label = c.string("node label")?;
        meta.push(NodeMeta { kind, label });
    }
    Ok(meta)
}

/// Accepts record 3 only in the form [`encode_policy`] writes: a graph
/// expanded any other way cannot be served as it was written.
fn decode_policy(payload: &[u8]) -> Result<()> {
    if payload == encode_policy() {
        Ok(())
    } else {
        Err(PersistError::Corrupt {
            detail: format!("expansion policy record {payload:02x?} is not the paper's"),
        })
    }
}

/// `[original edges, directed edges, nodes, kinds]`.
fn decode_counts(payload: &[u8]) -> Result<[usize; 4]> {
    let mut c = Cursor::new(payload, 0);
    Ok([
        c.u64("counts")? as usize,
        c.u64("counts")? as usize,
        c.u64("counts")? as usize,
        c.u64("counts")? as usize,
    ])
}

/// `(node count, forward indegrees, forward outdegrees)`.
type Degrees = (usize, Vec<u32>, Vec<u32>);

/// The degrees record; the caller checks its node count against the
/// metadata record.
fn decode_degrees(payload: &[u8]) -> Result<Degrees> {
    let mut c = Cursor::new(payload, 0);
    let degree_nodes = c.count(8, "degrees")?;
    let forward_indegree = c.u32_vec(degree_nodes, "forward indegree")?;
    let forward_outdegree = c.u32_vec(degree_nodes, "forward outdegree")?;
    Ok((degree_nodes, forward_indegree, forward_outdegree))
}

fn decode_tombstones(payload: &[u8]) -> Result<Vec<u32>> {
    let mut c = Cursor::new(payload, 0);
    let n = c.count(4, "tombstones")?;
    Ok(c.u32_vec(n, "tombstone ids")?)
}

fn decode_prestige(payload: &[u8]) -> Result<PrestigeVector> {
    let mut c = Cursor::new(payload, 0);
    let n = c.count(8, "prestige")?;
    let values = c.f64_vec(n, "prestige values")?;
    if values.iter().any(|v| !v.is_finite() || *v < 0.0) {
        return Err(PersistError::Corrupt {
            detail: "prestige values must be finite and non-negative".to_string(),
        });
    }
    Ok(PrestigeVector::from_values(values))
}

fn decode_csr(payload: &[u8]) -> Result<CsrAdjacency> {
    let mut c = Cursor::new(payload, 0);
    let num_nodes = c.u64("csr node count")? as usize;
    let num_edges = c.u64("csr edge count")? as usize;
    let offset_len = num_nodes
        .checked_add(1)
        .ok_or_else(|| PersistError::Corrupt {
            detail: "csr node count overflows".to_string(),
        })?;
    if offset_len
        .checked_mul(4)
        .zip(num_edges.checked_mul(13))
        .is_none_or(|(o, e)| o.saturating_add(e) > c.remaining())
    {
        return Err(PersistError::Corrupt {
            detail: format!("csr arrays for {num_nodes} nodes / {num_edges} edges exceed record"),
        });
    }
    let offsets = c.u32_vec(offset_len, "csr offsets")?;
    let targets = c.u32_vec(num_edges, "csr targets")?;
    let weights = c.f64_vec(num_edges, "csr weights")?;
    let raw_kinds = c.take(num_edges, "csr kinds")?;
    let mut kinds = Vec::with_capacity(num_edges);
    for &k in raw_kinds {
        kinds.push(match k {
            0 => EdgeKind::Forward,
            1 => EdgeKind::Backward,
            other => {
                return Err(PersistError::Corrupt {
                    detail: format!("invalid edge kind byte {other}"),
                });
            }
        });
    }
    Ok(CsrAdjacency::from_raw_parts(
        offsets, targets, weights, kinds,
    )?)
}

/// Decodes the index record.  Each term is read straight into the
/// `Arc<str>` that keys it and each posting list straight into its final
/// `Arc<[NodeId]>`; [`InvertedIndex::from_raw_parts`] copies a list again
/// only if it is not strictly ascending.
fn decode_index(payload: &[u8]) -> Result<InvertedIndex> {
    let mut c = index_body(payload)?;
    let term_count = c.count(5, "index terms")?;
    let mut postings = Vec::with_capacity(term_count);
    for _ in 0..term_count {
        let term: Arc<str> = Arc::from(c.str("index term")?);
        let n = c.u32("posting count")? as usize;
        if n.checked_mul(4).is_none_or(|b| b > c.remaining()) {
            return Err(PersistError::Corrupt {
                detail: format!("posting list of {n} nodes exceeds record"),
            });
        }
        let nodes: Arc<[NodeId]> = c.u32s(n, "postings")?.map(NodeId).collect();
        postings.push((term, nodes));
    }

    let kt_count = c.u32("kind terms")? as usize;
    if kt_count > c.remaining() {
        return Err(PersistError::Corrupt {
            detail: format!("kind-term count {kt_count} exceeds record"),
        });
    }
    let mut kind_terms = Vec::with_capacity(kt_count);
    for _ in 0..kt_count {
        let term = c.string("kind term")?;
        let n = c.u32("kind count")? as usize;
        if n.checked_mul(2).is_none_or(|b| b > c.remaining()) {
            return Err(PersistError::Corrupt {
                detail: format!("kind list of {n} ids exceeds record"),
            });
        }
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            ids.push(KindId(c.u16("kind id")?));
        }
        kind_terms.push((term, ids));
    }

    Ok(InvertedIndex::from_raw_parts(postings, kind_terms))
}

/// A cursor past record 9's tokenizer prefix, or `Corrupt` when the record
/// does not open with [`tokenizer_prefix`].
fn index_body(payload: &[u8]) -> Result<Cursor<'_>> {
    let prefix = tokenizer_prefix();
    match payload.strip_prefix(&prefix[..]) {
        Some(body) => Ok(Cursor::new(body, prefix.len() as u64)),
        None => Err(PersistError::Corrupt {
            detail: "index record does not open with the tokenizer prefix".to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_graph::{GraphBuilder, MutationBatch};
    use banks_textindex::IndexBuilder;

    fn sample_graph() -> DataGraph {
        let mut b = GraphBuilder::new();
        let a1 = b.add_node("author", "David Fernandez");
        let a2 = b.add_node("author", "Maria Sanchez");
        let p1 = b.add_node("paper", "Keyword search on graphs");
        let p2 = b.add_node("paper", "Bidirectional expansion");
        let c1 = b.add_node("conference", "VLDB 2005");
        b.add_edge(p1, a1).unwrap();
        b.add_edge(p1, a2).unwrap();
        b.add_edge(p2, a2).unwrap();
        b.add_edge_weighted(p1, c1, 2.0).unwrap();
        b.add_edge_weighted(p2, c1, 2.0).unwrap();
        b.build_default()
    }

    fn sample_index(g: &DataGraph) -> InvertedIndex {
        let mut ib = IndexBuilder::new();
        for n in g.nodes() {
            ib.add_text(n, g.node_label(n));
        }
        for i in 0..g.num_kinds() {
            let kind = KindId::from_index(i);
            ib.add_relation_name(g.kind_name(kind), kind);
        }
        ib.build()
    }

    fn assert_graphs_bit_identical(a: &DataGraph, b: &DataGraph) {
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_kinds(), b.num_kinds());
        assert_eq!(a.num_original_edges(), b.num_original_edges());
        assert_eq!(a.num_directed_edges(), b.num_directed_edges());
        for u in a.nodes() {
            assert_eq!(a.node_label(u), b.node_label(u));
            assert_eq!(a.node_kind_name(u), b.node_kind_name(u));
            assert_eq!(a.forward_indegree(u), b.forward_indegree(u));
            assert_eq!(a.forward_outdegree(u), b.forward_outdegree(u));
            let ra: Vec<_> = a
                .out_edges(u)
                .map(|e| (e.to.0, e.weight.to_bits(), e.kind))
                .collect();
            let rb: Vec<_> = b
                .out_edges(u)
                .map(|e| (e.to.0, e.weight.to_bits(), e.kind))
                .collect();
            assert_eq!(ra, rb, "out row of {u:?}");
            let ia: Vec<_> = a
                .in_edges(u)
                .map(|e| (e.from.0, e.weight.to_bits(), e.kind))
                .collect();
            let ib: Vec<_> = b
                .in_edges(u)
                .map(|e| (e.from.0, e.weight.to_bits(), e.kind))
                .collect();
            assert_eq!(ia, ib, "in row of {u:?}");
        }
    }

    #[test]
    fn graph_round_trips_bit_identically() {
        let g = sample_graph();
        let decoded = decode_snapshot(&encode_snapshot(&g, None, None)).unwrap();
        assert_graphs_bit_identical(&g, &decoded.graph);
        assert!(decoded.prestige.is_none());
        assert!(decoded.index.is_none());
    }

    #[test]
    fn mutated_graph_is_compacted_and_round_trips() {
        let g = sample_graph();
        let (g2, _) = g.apply_batch(
            &MutationBatch::new()
                .add_node("author", "New Author")
                .add_edge(NodeId(3), NodeId(5))
                .set_label(NodeId(0), "Renamed"),
        );
        assert!(g2.has_overlay());
        let decoded = decode_snapshot(&encode_snapshot(&g2, None, None)).unwrap();
        assert!(!decoded.graph.has_overlay());
        assert_graphs_bit_identical(&g2.compacted(), &decoded.graph);
    }

    #[test]
    fn tombstoned_graph_round_trips_with_the_optional_record() {
        let g = sample_graph();
        let (g2, outcome) = g.apply_batch(&MutationBatch::new().remove_node(NodeId(1)));
        assert!(outcome.results[0].is_ok());
        let bytes = encode_snapshot(&g2, None, None);
        let decoded = decode_snapshot(&bytes).unwrap();
        assert!(decoded.graph.is_tombstoned(NodeId(1)));
        assert_eq!(decoded.graph.tombstoned_nodes(), vec![1]);
        assert_graphs_bit_identical(&g2.compacted(), &decoded.graph);
        // A mutation against the dead id is still rejected after reload.
        let (_, outcome) = decoded
            .graph
            .apply_batch(&MutationBatch::new().set_label(NodeId(1), "x"));
        assert!(outcome.results[0].is_err());

        // A graph with no tombstones must not grow the extra record: the
        // byte stream is unchanged from pre-RemoveNode builds.
        let plain = sample_graph();
        let (before, record_count) = decode_header(&encode_snapshot(&plain, None, None)).unwrap();
        let _ = before;
        assert_eq!(record_count, 7, "no TAG_TOMBSTONES record when empty");
    }

    #[test]
    fn prestige_and_index_round_trip() {
        let g = sample_graph();
        let prestige = PrestigeVector::from_values(vec![0.5, 0.25, 0.125, 0.0625, 0.0625]);
        let index = sample_index(&g);
        let decoded = decode_snapshot(&encode_snapshot(&g, Some(&prestige), Some(&index))).unwrap();
        let dp = decoded.prestige.expect("prestige persisted");
        assert_eq!(dp.values(), prestige.values());
        let di = decoded.index.expect("index persisted");
        assert_eq!(di.num_terms(), index.num_terms());
        for term in index.terms() {
            assert_eq!(di.postings(term), index.postings(term), "term {term}");
        }
        for (term, kinds) in index.kind_terms() {
            assert_eq!(di.kinds_for_term(term), kinds, "kind term {term}");
        }
    }

    /// Record 9 opens with the 138 bytes every index has written: removal
    /// off, minimum length 1, the 20 stop words.  Any other tokenizer
    /// setting is refused, not loaded.
    #[test]
    fn index_record_opens_with_the_one_tokenizer_prefix() {
        let prefix = tokenizer_prefix();
        assert_eq!(prefix.len(), 138);
        assert_eq!(prefix[..13], [0, 1, 0, 0, 0, 20, 0, 0, 0, 1, 0, 0, 0]);
        let payload = encode_index(&sample_index(&sample_graph()));
        assert!(payload.starts_with(&prefix));
        assert!(decode_index(&payload).is_ok());
        for (at, value) in [(0, 1), (1, 2), (5, 19), (13, b'b')] {
            let mut other = payload.clone();
            other[at] = value;
            assert!(
                matches!(decode_index(&other), Err(PersistError::Corrupt { .. })),
                "byte {at} set to {value}"
            );
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let g = sample_graph();
        let index = sample_index(&g);
        let a = encode_snapshot(&g, None, Some(&index));
        let b = encode_snapshot(&g, None, Some(&index));
        assert_eq!(a, b, "same contents, same bytes");
    }

    #[test]
    fn csr_payloads_are_page_aligned() {
        let bytes = encode_snapshot(&sample_graph(), None, None);
        let csr: Vec<usize> = record_table(&bytes)
            .into_iter()
            .filter(|(tag, _, _)| *tag == TAG_CSR_OUT || *tag == TAG_CSR_INC)
            .map(|(_, start, _)| start)
            .collect();
        assert_eq!(csr.len(), 2);
        for start in csr {
            assert_eq!(
                start % PAGE_SIZE as usize,
                0,
                "CSR payload must be page aligned"
            );
        }
    }

    #[test]
    fn epoch_survives_and_advances_the_counter() {
        let g = sample_graph();
        let epoch = g.epoch();
        let decoded = decode_snapshot(&encode_snapshot(&g, None, None)).unwrap();
        assert_eq!(decoded.graph.epoch(), epoch);
        // New graphs constructed afterwards must not collide.
        let fresh = sample_graph();
        assert!(fresh.epoch() > epoch);
    }

    #[test]
    fn bad_magic_is_typed() {
        let g = sample_graph();
        let mut bytes = encode_snapshot(&g, None, None);
        bytes[0] = b'X';
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(PersistError::BadMagic { .. })
        ));
    }

    #[test]
    fn future_format_version_is_typed() {
        let g = sample_graph();
        let mut bytes = encode_snapshot(&g, None, None);
        bytes[8] = 99; // version field
                       // Header CRC must be fixed up so the version check is what fires.
        let crc = crc32(&bytes[..HEADER_LEN - 4]);
        bytes[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(PersistError::UnsupportedVersion { found: 99, .. })
        ));
    }

    #[test]
    fn bit_flips_anywhere_never_panic() {
        let g = sample_graph();
        let prestige = PrestigeVector::uniform_for(&g);
        let index = sample_index(&g);
        let bytes = encode_snapshot(&g, Some(&prestige), Some(&index));
        // Flip one bit in every byte position; decode must return Ok (the
        // flip may cancel out in padding) or a typed error — never panic.
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x40;
            let _ = decode_snapshot(&corrupted);
        }
    }

    #[test]
    fn truncation_anywhere_never_panics() {
        let g = sample_graph();
        let bytes = encode_snapshot(&g, None, None);
        // Cuts inside the final trailing alignment padding (< 8 bytes) may
        // still parse — no payload was lost; any deeper cut must fail.
        for cut in (0..bytes.len()).step_by(7) {
            match decode_snapshot(&bytes[..cut]) {
                Err(_) => {}
                Ok(_) if cut + 8 > bytes.len() => {}
                Ok(_) => panic!(
                    "a {cut}-byte prefix of a {}-byte snapshot parsed",
                    bytes.len()
                ),
            }
        }
    }

    #[test]
    fn write_and_read_file_round_trip() {
        let dir = std::env::temp_dir().join(format!("banks-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.banks");
        let g = sample_graph();
        let written = write_snapshot(&path, &g, None, None).unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());
        let loaded = read_snapshot(&path).unwrap();
        assert_graphs_bit_identical(&g, &loaded.graph);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `(tag, payload start, payload length)` of every record, in file
    /// order.
    fn record_table(bytes: &[u8]) -> Vec<(u32, usize, usize)> {
        let (_, count) = decode_header(bytes).unwrap();
        let mut pos = HEADER_LEN;
        (0..count)
            .map(|_| {
                let (record, next) = record_at(bytes, pos).unwrap();
                let start = record.payload.as_ptr() as usize - bytes.as_ptr() as usize;
                pos = next;
                (record.tag, start, record.payload.len())
            })
            .collect()
    }

    /// Rewrites a record's payload byte and its CRC, so only the meaning
    /// changes.  Only records without a pad (every non-CSR one) qualify:
    /// their header sits right before the payload.
    fn patch_payload(bytes: &mut [u8], tag: u32, offset: usize, value: u8) {
        assert!(
            tag != TAG_CSR_OUT && tag != TAG_CSR_INC,
            "CSR records are padded"
        );
        let (_, start, len) = record_table(bytes)
            .into_iter()
            .find(|(t, _, _)| *t == tag)
            .unwrap();
        bytes[start + offset] = value;
        let crc = crc32(&bytes[start..start + len]);
        let crc_at = start - RECORD_HEADER_LEN + 16;
        bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    }

    const LABELS: Derivation = Derivation {
        index: IndexDerivation::Labels,
        prestige: PrestigeDerivation::Uniform,
    };

    #[test]
    fn the_derivation_record_is_one_trailing_32_byte_record() {
        let g = sample_graph();
        let prestige = PrestigeVector::uniform_for(&g);
        let index = sample_index(&g);
        let plain = encode_snapshot(&g, Some(&prestige), Some(&index));
        assert_eq!(
            encode_snapshot_with(&g, Some(&prestige), Some(&index), None),
            plain
        );
        for derivation in [
            LABELS,
            Derivation {
                index: IndexDerivation::External,
                prestige: PrestigeDerivation::Pinned,
            },
            Derivation {
                index: IndexDerivation::Labels,
                prestige: PrestigeDerivation::Pinned,
            },
        ] {
            let bytes = encode_snapshot_with(&g, Some(&prestige), Some(&index), Some(derivation));
            assert_eq!(bytes.len(), plain.len() + 32);
            assert_eq!(&bytes[HEADER_LEN..plain.len()], &plain[HEADER_LEN..]);
            // Stripping the record and fixing the header gives the file
            // back byte for byte.
            let mut stripped = bytes[..plain.len()].to_vec();
            let (_, count) = decode_header(&bytes).unwrap();
            stripped[24..32].copy_from_slice(&(count - 1).to_le_bytes());
            let crc = crc32(&stripped[..HEADER_LEN - 4]);
            stripped[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
            assert_eq!(stripped, plain);

            let decoded = decode_snapshot(&bytes).unwrap();
            assert_eq!(decoded.derivation, Some(derivation));
            assert!(decoded.prestige.is_some() && decoded.index.is_some());
        }
        assert_eq!(decode_snapshot(&plain).unwrap().derivation, None);
    }

    #[test]
    fn a_hostile_derivation_record_is_an_error_or_no_derivation() {
        let g = sample_graph();
        let prestige = PrestigeVector::uniform_for(&g);
        let index = sample_index(&g);
        let bytes = encode_snapshot_with(&g, Some(&prestige), Some(&index), Some(LABELS));
        let (tag, start, len) = *record_table(&bytes).last().unwrap();
        assert_eq!((tag, len), (TAG_DERIVATION, 2));

        // Cut anywhere inside the record: a typed error.
        for cut in start - RECORD_HEADER_LEN..start + len {
            assert!(matches!(
                decode_snapshot(&bytes[..cut]),
                Err(PersistError::Truncated { .. })
            ));
        }
        // A flipped bit in its payload is a typed error; one in its header
        // is that, or leaves the record unreadable (a tag this build does
        // not know) or unchanged (the reserved word) — never a different
        // derivation.
        for i in start - RECORD_HEADER_LEN..start + len {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x04;
            match decode_snapshot(&flipped) {
                Err(_) => {}
                Ok(decoded) if i < start => {
                    assert!(
                        matches!(decoded.derivation, None | Some(LABELS)),
                        "flip at {i}"
                    )
                }
                Ok(_) => panic!("a flip in the payload at {i} decoded"),
            }
        }
        // A mode byte this build does not know (CRC intact), the retired
        // indegree prestige byte among them: the file loads, without a
        // derivation to go by.
        for (offset, value) in [(0, 7), (1, 7), (1, 1)] {
            let mut unknown = bytes.clone();
            patch_payload(&mut unknown, TAG_DERIVATION, offset, value);
            let decoded = decode_snapshot(&unknown).unwrap();
            assert_eq!(decoded.derivation, None);
            assert!(decoded.index.is_some());
        }
        // The record without the index it describes: loads, no index.
        let without_index = encode_snapshot_with(&g, Some(&prestige), None, Some(LABELS));
        let decoded = decode_snapshot(&without_index).unwrap();
        assert_eq!(decoded.derivation, Some(LABELS));
        assert!(decoded.index.is_none());
    }

    #[test]
    fn keep_builds_only_the_parts_asked_for_but_checks_every_crc() {
        let g = sample_graph();
        let prestige = PrestigeVector::uniform_for(&g);
        let index = sample_index(&g);
        let bytes = encode_snapshot_with(&g, Some(&prestige), Some(&index), Some(LABELS));
        let mut seen = None;
        let decoded = decode_snapshot_with(&bytes, |d| {
            seen = Some(d);
            Keep::GRAPH
        })
        .unwrap();
        assert_eq!(seen, Some(Some(LABELS)));
        assert!(decoded.prestige.is_none() && decoded.index.is_none());
        assert_graphs_bit_identical(&g, &decoded.graph);

        let (_, start, len) = record_table(&bytes)
            .into_iter()
            .find(|(t, _, _)| *t == TAG_INDEX)
            .unwrap();
        let mut corrupt = bytes.clone();
        corrupt[start + len / 2] ^= 0x01;
        assert!(matches!(
            decode_snapshot_with(&corrupt, |_| Keep::GRAPH),
            Err(PersistError::ChecksumMismatch { .. })
        ));
    }

    /// A graph whose snapshot is above the threading threshold.
    fn large_graph() -> DataGraph {
        let mut b = GraphBuilder::new();
        let words = ["graph", "Straße", "keyword", "İstanbul", "search", "数据库"];
        let nodes: Vec<NodeId> = (0..6000)
            .map(|i| {
                b.add_node(
                    ["author", "paper", "writes"][i % 3],
                    format!("{} {} {i}", words[i % 6], words[(i / 6) % 6]),
                )
            })
            .collect();
        for (i, &u) in nodes.iter().enumerate() {
            for step in [1, 7, 31] {
                let v = nodes[(i + step) % nodes.len()];
                b.add_edge_weighted(u, v, 1.0 + (i % 5) as f64).unwrap();
            }
        }
        b.build_default()
    }

    fn sequentially<T>(f: impl FnOnce() -> T) -> T {
        crate::par::FORCE_SEQUENTIAL.with(|force| force.set(true));
        let result = f();
        crate::par::FORCE_SEQUENTIAL.with(|force| force.set(false));
        result
    }

    fn outcome(result: Result<SnapshotContents>) -> std::result::Result<Vec<u8>, String> {
        result
            .map(|c| {
                encode_snapshot_with(
                    &c.graph,
                    c.prestige.as_ref(),
                    c.index.as_ref(),
                    c.derivation,
                )
            })
            .map_err(|e| e.to_string())
    }

    #[test]
    fn threaded_codec_matches_the_sequential_one_byte_for_byte_and_error_for_error() {
        let (g, _) = large_graph().apply_batch(&MutationBatch::new().remove_node(NodeId(5)));
        let prestige = PrestigeVector::uniform_for(&g);
        let index = sample_index(&g);
        let bytes = encode_snapshot_with(&g, Some(&prestige), Some(&index), Some(LABELS));
        assert!(bytes.len() >= crate::par::PARALLEL_MIN_BYTES);
        assert!(crate::par::available_threads() == 1 || bytes.len() > 2 * PAGE_SIZE as usize);
        let sequential =
            sequentially(|| encode_snapshot_with(&g, Some(&prestige), Some(&index), Some(LABELS)));
        assert_eq!(bytes, sequential);
        assert_eq!(outcome(decode_snapshot(&bytes)), Ok(bytes.clone()));

        let mut cases: Vec<Vec<u8>> = Vec::new();
        let table = record_table(&bytes);
        for &(_, start, len) in &table {
            for at in [start - RECORD_HEADER_LEN, start - 8, start, start + len / 2] {
                let mut flipped = bytes.clone();
                flipped[at] ^= 0x10;
                cases.push(flipped);
            }
            cases.push(bytes[..start + len / 3].to_vec());
        }
        // Two records broken at once: the earlier one must be reported.
        let mut twice = bytes.clone();
        twice[table[6].1 + 3] ^= 0x01;
        twice[table[1].1 + 3] ^= 0x01;
        cases.push(twice);
        for case in cases {
            assert_eq!(
                outcome(decode_snapshot(&case)),
                sequentially(|| outcome(decode_snapshot(&case)))
            );
        }
    }

    // ------------------------------------------------- decode_index oracle

    /// What an index holds, normalised for comparison: postings and
    /// relation-name terms.
    type IndexContent = (
        std::collections::BTreeMap<String, Vec<NodeId>>,
        std::collections::BTreeMap<String, Vec<KindId>>,
    );

    fn content(index: &InvertedIndex) -> IndexContent {
        (
            index
                .terms()
                .map(|t| (t.to_string(), index.postings(t).to_vec()))
                .collect(),
            index
                .kind_terms()
                .map(|(t, k)| (t.to_string(), k.to_vec()))
                .collect(),
        )
    }

    /// The decoder this one replaced, kept as the oracle: a `String` per
    /// term, every list read into a `Vec<u32>`, mapped to `Vec<NodeId>`,
    /// then sorted and deduplicated; empty lists dropped and a repeated
    /// term's later list winning, as the old `from_raw_parts` did.  The
    /// tokenizer prefix is checked by the same `index_body`.
    fn oracle_decode_index(payload: &[u8]) -> Result<IndexContent> {
        let mut c = index_body(payload)?;
        let term_count = c.count(5, "index terms")?;
        let mut postings = std::collections::BTreeMap::new();
        for _ in 0..term_count {
            let term = c.string("index term")?;
            let n = c.u32("posting count")? as usize;
            if n.checked_mul(4).is_none_or(|b| b > c.remaining()) {
                return Err(PersistError::Corrupt {
                    detail: format!("posting list of {n} nodes exceeds record"),
                });
            }
            let mut nodes: Vec<NodeId> =
                c.u32_vec(n, "postings")?.into_iter().map(NodeId).collect();
            nodes.sort_unstable();
            nodes.dedup();
            if !nodes.is_empty() {
                postings.insert(term, nodes);
            }
        }
        let kt_count = c.u32("kind terms")? as usize;
        if kt_count > c.remaining() {
            return Err(PersistError::Corrupt {
                detail: format!("kind-term count {kt_count} exceeds record"),
            });
        }
        let mut kind_terms = std::collections::BTreeMap::new();
        for _ in 0..kt_count {
            let term = c.string("kind term")?;
            let n = c.u32("kind count")? as usize;
            if n.checked_mul(2).is_none_or(|b| b > c.remaining()) {
                return Err(PersistError::Corrupt {
                    detail: format!("kind list of {n} ids exceeds record"),
                });
            }
            let mut ids = Vec::with_capacity(n);
            for _ in 0..n {
                ids.push(KindId(c.u16("kind id")?));
            }
            ids.sort_unstable();
            ids.dedup();
            if !ids.is_empty() {
                kind_terms.insert(term, ids);
            }
        }
        Ok((postings, kind_terms))
    }

    /// Deterministic xorshift64*.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, bound: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % bound.max(1)
        }
    }

    /// An index record no real index would write: the tokenizer prefix,
    /// then unsorted, repeated and empty posting lists, repeated and
    /// non-ASCII terms.
    fn random_index_payload(rng: &mut Rng) -> Vec<u8> {
        const WORDS: &[&str] = &[
            "graph",
            "Straße",
            "straße",
            "İstanbul",
            "σοφός",
            "数据库",
            "",
            "a",
            "ǅ",
            "keyword",
        ];
        let word = |rng: &mut Rng| WORDS[rng.below(WORDS.len() as u64) as usize];
        let mut buf = tokenizer_prefix();
        let terms = rng.below(12);
        put_u64(&mut buf, terms);
        for _ in 0..terms {
            put_str(&mut buf, word(rng));
            let n = rng.below(7);
            put_u32(&mut buf, n as u32);
            for _ in 0..n {
                put_u32(&mut buf, rng.below(20) as u32);
            }
        }
        let kinds = rng.below(4);
        put_u32(&mut buf, kinds as u32);
        for _ in 0..kinds {
            put_str(&mut buf, word(rng));
            let n = rng.below(4);
            put_u32(&mut buf, n as u32);
            for _ in 0..n {
                put_u16(&mut buf, rng.below(5) as u16);
            }
        }
        buf
    }

    #[test]
    fn decode_index_matches_the_decoder_it_replaced() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        for case in 0..600 {
            let payload = random_index_payload(&mut rng);
            let mut inputs = vec![payload.clone()];
            // ...and hostile variants: cut short, one bit flipped.
            inputs.push(payload[..rng.below(payload.len() as u64) as usize].to_vec());
            let mut flipped = payload.clone();
            let at = rng.below(payload.len() as u64) as usize;
            flipped[at] ^= 1 << rng.below(8);
            inputs.push(flipped);
            for input in inputs {
                let new = decode_index(&input).map(|index| content(&index));
                let old = oracle_decode_index(&input);
                match (new, old) {
                    (Ok(new), Ok(old)) => assert_eq!(new, old, "case {case}"),
                    (Err(new), Err(old)) => {
                        assert_eq!(new.to_string(), old.to_string(), "case {case}")
                    }
                    (new, old) => panic!("case {case}: {new:?} vs {old:?}"),
                }
            }
        }
    }
}
