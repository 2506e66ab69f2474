//! The mutation write-ahead log.
//!
//! Every accepted [`MutationBatch`] is appended here **before** the
//! in-memory snapshot pointer swings to the new graph version, so a crash
//! at any point leaves the log a superset of the served state.  On boot
//! the WAL suffix newer than the latest snapshot is replayed through
//! `DataGraph::apply_batch`, arriving at exactly the pre-crash graph.
//!
//! ## Layout
//!
//! ```text
//! +------------------------------------------------+
//! | header (16 B): magic "BANKSWAL" | version | CRC |
//! +------------------------------------------------+
//! | record: len | CRC | seq | parent_epoch | epoch |
//! |         <encode_batch payload>                 |
//! +------------------------------------------------+
//! | ... appended until rotation ...                |
//! +------------------------------------------------+
//! ```
//!
//! The record CRC covers everything after the `len`/`CRC` pair — sequence
//! number, epochs and the serialized batch — so a torn or bit-flipped tail
//! is detected and everything before it is still replayable.  Scanning is
//! deliberately lenient: the first bad record ends the scan (it is almost
//! always the torn final write of a crash) and [`WalScan::valid_bytes`]
//! tells the caller where to truncate before appending resumes.
//!
//! A reader of a log that is still growing — the replication stream —
//! keeps a [`WalPosition`] and asks [`Wal::read_since`] for the bytes
//! appended past it; decoding that [`WalChunk`] is the same scan, started
//! at a record boundary instead of at the header, so reading the whole
//! file is the position-zero case and not a second decoder.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use banks_graph::codec::{put_u32, put_u64, Cursor};
use banks_graph::{decode_batch, encode_batch, MutationBatch};

use crate::crc::crc32;
use crate::error::{PersistError, Result};

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"BANKSWAL";
/// WAL format version written and read by this build.
pub const WAL_VERSION: u32 = 1;

const WAL_HEADER_LEN: usize = 16;
const WAL_RECORD_HEADER_LEN: usize = 32;

/// When the operating-system write buffer is flushed to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every appended record — full durability, slowest.
    Always,
    /// `fsync` every `n` records (and on checkpoint/rotation).  A crash can
    /// lose at most the last `n - 1` acknowledged batches.
    EveryN(u32),
    /// Never `fsync` explicitly; rely on the OS flushing on its own
    /// schedule.  Fastest, weakest.
    Never,
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::EveryN(64)
    }
}

/// One logical WAL entry: the batch a service accepted, plus the epochs it
/// moved the graph between.
#[derive(Clone, Debug, PartialEq)]
pub struct WalRecord {
    /// Monotonic sequence number within this WAL file (starts at 1).
    pub seq: u64,
    /// Epoch of the graph version the batch was applied to.
    pub parent_epoch: u64,
    /// Epoch of the graph version the batch produced.
    pub epoch: u64,
    /// The mutation batch itself.
    pub batch: MutationBatch,
}

/// Where a [`WalRecord`] stands against the epoch a reader is at — the one
/// rule recovery replay and a follower's apply both follow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Chain {
    /// The record's epoch is at or behind the reader's: already applied.
    Covered,
    /// The record builds on exactly the reader's epoch: apply it.
    Next,
    /// The record builds on some other epoch: the history has a hole.
    Gap,
}

impl WalRecord {
    /// Classifies this record against a reader at `epoch`.
    pub fn chain(&self, epoch: u64) -> Chain {
        if self.epoch <= epoch {
            Chain::Covered
        } else if self.parent_epoch == epoch {
            Chain::Next
        } else {
            Chain::Gap
        }
    }
}

/// Result of leniently scanning a WAL file.
#[derive(Clone, Debug, Default)]
pub struct WalScan {
    /// Records that passed CRC and decode checks, in file order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (header plus intact records).
    /// Appending must resume here; anything after is a torn tail.
    pub valid_bytes: u64,
    /// Why the scan stopped early, if it did not reach a clean EOF.
    pub anomaly: Option<String>,
}

/// How far a reader has consumed a WAL that may still be growing.
///
/// The default position is "nothing read, not even the header"; a read
/// from there is the full scan.  A truncation ([`Wal::reset`]) starts a new
/// *generation* of the file, which sends a position taken in an older one
/// back to the start — byte offsets do not carry over a truncation, even
/// when the log has since grown past them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalPosition {
    /// Truncations of the file ([`Wal::reset`]) the offsets below postdate.
    generation: u64,
    /// Bytes of the file consumed so far, header included (0: nothing).
    bytes: u64,
    /// Records consumed so far: the next one carries sequence number
    /// `records + 1`.
    records: u64,
}

/// The bytes of a WAL file from a [`WalPosition`] to the end of the file,
/// read but not yet decoded — so the read can happen under a lock and the
/// decoding ([`WalChunk::scan`]) outside it.
#[derive(Debug)]
pub struct WalChunk {
    at: WalPosition,
    bytes: Vec<u8>,
}

impl WalChunk {
    /// Leniently decodes the chunk: every intact record in it, and the
    /// position after the last of them — where the next read resumes, so a
    /// torn tail is read again once the writer has completed it.
    /// [`WalScan::valid_bytes`] is an offset into the file, not the chunk.
    pub fn scan(&self) -> Result<(WalScan, WalPosition)> {
        let scan = scan_from(&self.bytes, self.at.bytes, self.at.records + 1)?;
        let end = WalPosition {
            generation: self.at.generation,
            bytes: scan.valid_bytes,
            records: self.at.records + scan.records.len() as u64,
        };
        Ok((scan, end))
    }
}

/// Reads `path` from `at` to the end of the file.
fn read_chunk(path: &Path, at: WalPosition) -> Result<WalChunk> {
    let mut file = File::open(path)?;
    file.seek(SeekFrom::Start(at.bytes))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    Ok(WalChunk { at, bytes })
}

/// Encodes one WAL record — the `len`/`CRC` framing plus sequence number,
/// epochs and the serialized batch — exactly as [`Wal::append`] writes it
/// to disk.  Public so the replication stream can ship verbatim record
/// bytes to followers, who re-verify the CRC with [`decode_record`].
pub fn encode_record(seq: u64, parent_epoch: u64, epoch: u64, batch: &MutationBatch) -> Vec<u8> {
    let payload = encode_batch(batch);
    let mut body = Vec::with_capacity(24 + payload.len());
    put_u64(&mut body, seq);
    put_u64(&mut body, parent_epoch);
    put_u64(&mut body, epoch);
    body.extend_from_slice(&payload);
    let mut rec = Vec::with_capacity(8 + body.len());
    put_u32(&mut rec, body.len() as u32);
    put_u32(&mut rec, crc32(&body));
    rec.extend_from_slice(&body);
    rec
}

/// Decodes exactly one record produced by [`encode_record`], re-verifying
/// the CRC, and returns it with the number of bytes consumed.  Strict:
/// truncation, checksum mismatches and undecodable batches are typed
/// errors — a replication follower must reject a damaged shipment rather
/// than truncate-and-continue like the local crash-recovery scan does.
pub fn decode_record(bytes: &[u8]) -> Result<(WalRecord, usize)> {
    decode_frame(bytes, 0)
}

/// The one record frame decoder, behind both the strict [`decode_record`]
/// and the lenient scan: the record at the start of `bytes`, whose first
/// byte sits at file offset `offset`, and its length in bytes.
fn decode_frame(bytes: &[u8], offset: u64) -> Result<(WalRecord, usize)> {
    let mut c = Cursor::new(bytes, offset);
    let len = c.u32("wal record framing")? as usize;
    let stored = c.u32("wal record framing")?;
    if len < WAL_RECORD_HEADER_LEN - 8 {
        return Err(PersistError::Corrupt {
            detail: format!("wal record body of {len} bytes is too short"),
        });
    }
    let body_offset = c.offset();
    let body = c.take(len, "wal record body")?;
    let computed = crc32(body);
    if computed != stored {
        return Err(PersistError::ChecksumMismatch {
            region: "wal record",
            stored,
            computed,
        });
    }
    let mut c = Cursor::new(body, body_offset);
    let seq = c.u64("wal seq")?;
    let parent_epoch = c.u64("wal parent epoch")?;
    let epoch = c.u64("wal epoch")?;
    let payload = c.take(c.remaining(), "wal payload")?;
    let batch = decode_batch(payload).map_err(|e| PersistError::Corrupt {
        detail: format!("undecodable batch in wal record {seq}: {e}"),
    })?;
    let record = WalRecord {
        seq,
        parent_epoch,
        epoch,
        batch,
    };
    Ok((record, 8 + len))
}

fn header() -> Vec<u8> {
    let mut h = WAL_MAGIC.to_vec();
    put_u32(&mut h, WAL_VERSION);
    let crc = crc32(&h);
    put_u32(&mut h, crc);
    h
}

/// Leniently scans WAL bytes: returns every intact record and the length
/// of the valid prefix.  A torn or corrupt tail sets [`WalScan::anomaly`]
/// instead of failing — that is the expected post-crash state.
///
/// Only structural header problems (wrong magic, future version, flipped
/// header bits) are hard errors: they mean the file is not a WAL at all.
pub fn scan_bytes(bytes: &[u8]) -> Result<WalScan> {
    scan_from(bytes, 0, 1)
}

/// The one record scanner: `bytes` are the file's contents from byte
/// `offset` — 0, where the header is checked first, or a record boundary —
/// and the first record must carry sequence number `first_seq`.  Offsets in
/// the result and in anomaly messages are file offsets.
fn scan_from(bytes: &[u8], offset: u64, first_seq: u64) -> Result<WalScan> {
    let mut pos = 0;
    if offset == 0 {
        check_header(bytes)?;
        pos = WAL_HEADER_LEN;
    }
    let at = |pos: usize| offset + pos as u64;
    let mut scan = WalScan {
        valid_bytes: at(pos),
        ..WalScan::default()
    };
    while pos < bytes.len() {
        let expected = first_seq + scan.records.len() as u64;
        let anomaly = match decode_frame(&bytes[pos..], at(pos)) {
            Ok((record, _)) if record.seq != expected => {
                format!("sequence gap: found {}, expected {expected}", record.seq)
            }
            Ok((record, len)) => {
                scan.records.push(record);
                pos += len;
                scan.valid_bytes = at(pos);
                continue;
            }
            Err(e) => e.to_string(),
        };
        scan.anomaly = Some(format!("record at byte {}: {anomaly}", at(pos)));
        break;
    }
    Ok(scan)
}

/// Structural header problems: the file is not a WAL this build can read.
fn check_header(bytes: &[u8]) -> Result<()> {
    if bytes.len() < WAL_HEADER_LEN {
        return Err(PersistError::Truncated {
            offset: 0,
            region: "wal header",
        });
    }
    let mut c = Cursor::new(&bytes[..WAL_HEADER_LEN], 0);
    let magic = c.take(WAL_MAGIC.len(), "wal magic")?;
    if magic != WAL_MAGIC {
        return Err(PersistError::BadMagic {
            found: magic.to_vec(),
            expected: WAL_MAGIC,
        });
    }
    let version = c.u32("wal version")?;
    let stored = c.u32("wal header crc")?;
    let computed = crc32(&bytes[..WAL_HEADER_LEN - 4]);
    if stored != computed {
        return Err(PersistError::ChecksumMismatch {
            region: "wal header",
            stored,
            computed,
        });
    }
    if version != WAL_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: WAL_VERSION,
        });
    }
    Ok(())
}

/// Leniently scans a WAL file on disk.  A missing file is an empty scan,
/// not an error — a fresh data directory simply has no WAL yet.
pub fn scan_file(path: &Path) -> Result<WalScan> {
    match read_chunk(path, WalPosition::default()) {
        Ok(chunk) => Ok(chunk.scan()?.0),
        Err(PersistError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
            Ok(WalScan::default())
        }
        Err(e) => Err(e),
    }
}

/// An open, append-only WAL file.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
    fsync: FsyncPolicy,
    /// Records appended since the last fsync (for [`FsyncPolicy::EveryN`]).
    unsynced: u32,
    next_seq: u64,
    records: u64,
    bytes: u64,
    /// Latency distribution of the `sync_data` calls this WAL has issued.
    fsync_hist: banks_obs::Histogram,
    /// Count of `sync_data` calls issued since the WAL was opened.
    syncs: u64,
    /// Duration of the most recent `sync_data`, in microseconds.
    last_sync_us: u64,
    /// Truncations ([`Wal::reset`]) since the WAL was opened: the
    /// generation a [`WalPosition`] must match for its offsets to mean
    /// anything.
    generation: u64,
    /// File reads [`Wal::read_since`] has made (a caught-up reader costs
    /// none).
    reads: u64,
}

impl Wal {
    /// Creates a fresh, empty WAL at `path`, truncating whatever was there.
    pub fn create(path: &Path, fsync: FsyncPolicy) -> Result<Wal> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        file.write_all(&header())?;
        file.sync_all()?;
        let empty = WalScan {
            valid_bytes: WAL_HEADER_LEN as u64,
            ..WalScan::default()
        };
        Ok(Wal::at(path, file, fsync, &empty))
    }

    /// Opens an existing WAL for appending after a recovery scan,
    /// truncating any torn tail past `scan.valid_bytes`.  Creates the file
    /// if it does not exist.
    pub fn open_after_scan(path: &Path, fsync: FsyncPolicy, scan: &WalScan) -> Result<Wal> {
        if scan.valid_bytes == 0 {
            // No file (or nothing valid): start fresh.
            return Wal::create(path, fsync);
        }
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(scan.valid_bytes)?;
        file.sync_all()?;
        // Position at the end of the valid prefix.
        file.seek(SeekFrom::Start(scan.valid_bytes))?;
        Ok(Wal::at(path, file, fsync, scan))
    }

    /// The WAL in `file`, positioned at the end of the records of `scan`.
    fn at(path: &Path, file: File, fsync: FsyncPolicy, scan: &WalScan) -> Wal {
        Wal {
            path: path.to_path_buf(),
            file,
            fsync,
            unsynced: 0,
            next_seq: scan.records.last().map_or(1, |r| r.seq + 1),
            records: scan.records.len() as u64,
            bytes: scan.valid_bytes,
            fsync_hist: banks_obs::Histogram::new(),
            syncs: 0,
            last_sync_us: 0,
            generation: 0,
            reads: 0,
        }
    }

    /// Appends one accepted batch and applies the fsync policy.  Returns
    /// the record's sequence number.  On error the in-memory counters are
    /// untouched; the caller must treat the mutation as not durable.
    pub fn append(&mut self, parent_epoch: u64, epoch: u64, batch: &MutationBatch) -> Result<u64> {
        let seq = self.next_seq;
        let rec = encode_record(seq, parent_epoch, epoch, batch);
        self.file.write_all(&rec)?;
        match self.fsync {
            FsyncPolicy::Always => self.timed_sync_data()?,
            FsyncPolicy::EveryN(n) => {
                self.unsynced += 1;
                if self.unsynced >= n.max(1) {
                    self.timed_sync_data()?;
                    self.unsynced = 0;
                }
            }
            FsyncPolicy::Never => {}
        }
        self.next_seq += 1;
        self.records += 1;
        self.bytes += rec.len() as u64;
        Ok(seq)
    }

    /// Forces any buffered records to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.timed_sync_data()?;
        self.unsynced = 0;
        Ok(())
    }

    /// `sync_data` with its latency recorded into the fsync histogram.
    fn timed_sync_data(&mut self) -> Result<()> {
        let started = std::time::Instant::now();
        self.file.sync_data()?;
        let elapsed = started.elapsed();
        self.fsync_hist.record(elapsed);
        self.syncs += 1;
        self.last_sync_us = elapsed.as_micros().min(u64::MAX as u128) as u64;
        Ok(())
    }

    /// Truncates the log back to an empty header — called after a
    /// checkpoint makes every logged record redundant.  A log that holds
    /// its header and nothing else (no record, and the write position
    /// still right after the header, so no failed append left bytes
    /// behind) is already that: it is left alone, without an fsync.
    pub fn reset(&mut self) -> Result<()> {
        let header_only = WAL_HEADER_LEN as u64;
        if self.records == 0
            && self.bytes == header_only
            && self.file.stream_position()? == header_only
        {
            return Ok(());
        }
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&header())?;
        self.file.sync_all()?;
        self.unsynced = 0;
        self.next_seq = 1;
        self.records = 0;
        self.bytes = WAL_HEADER_LEN as u64;
        self.generation += 1;
        Ok(())
    }

    /// The bytes appended past `position`, undecoded — everything in the
    /// log when the position is the default one or predates a
    /// [`Wal::reset`].  A position at the end of the log is answered from
    /// memory, without opening the file.  Scan the chunk for the records
    /// and the position to pass next time.
    pub fn read_since(&mut self, position: WalPosition) -> Result<WalChunk> {
        let at = if position.generation == self.generation {
            position
        } else {
            WalPosition {
                generation: self.generation,
                ..WalPosition::default()
            }
        };
        if at.bytes == self.bytes {
            return Ok(WalChunk {
                at,
                bytes: Vec::new(),
            });
        }
        self.reads += 1;
        read_chunk(&self.path, at)
    }

    /// Number of file reads [`Wal::read_since`] has made.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of records in the log.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Size of the log in bytes (header included).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Latency summary of every fsync this WAL has issued since it was
    /// opened (the distribution is in-memory only; it restarts empty).
    pub fn fsync_latency(&self) -> banks_obs::LatencySummary {
        self.fsync_hist.summary()
    }

    /// Number of `sync_data` calls issued since the WAL was opened.
    /// Callers attributing fsync cost to an individual append compare this
    /// counter before and after the append.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Duration of the most recent fsync in microseconds (0 before any
    /// fsync has happened).
    pub fn last_sync_micros(&self) -> u64 {
        self.last_sync_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_graph::NodeId;

    fn tmp_dir(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("banks-wal-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_batch(i: u64) -> MutationBatch {
        MutationBatch::new()
            .add_node("author", format!("Author {i}"))
            .add_edge(NodeId(0), NodeId(1))
            .set_weight(NodeId(0), NodeId(1), 1.5 + i as f64)
    }

    #[test]
    fn append_scan_round_trip() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("wal.log");
        let mut wal = Wal::create(&path, FsyncPolicy::Always).unwrap();
        for i in 0..5 {
            let seq = wal.append(100 + i, 101 + i, &sample_batch(i)).unwrap();
            assert_eq!(seq, i + 1);
        }
        assert_eq!(wal.records(), 5);
        let scan = scan_file(&path).unwrap();
        assert!(scan.anomaly.is_none());
        assert_eq!(scan.records.len(), 5);
        assert_eq!(scan.valid_bytes, wal.bytes());
        for (i, rec) in scan.records.iter().enumerate() {
            assert_eq!(rec.seq, i as u64 + 1);
            assert_eq!(rec.parent_epoch, 100 + i as u64);
            assert_eq!(rec.epoch, 101 + i as u64);
            assert_eq!(rec.batch, sample_batch(i as u64));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn record_codec_round_trips_and_rejects_damage() {
        let batch = sample_batch(3);
        let bytes = encode_record(7, 41, 42, &batch);
        let (rec, used) = decode_record(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(rec.seq, 7);
        assert_eq!(rec.parent_epoch, 41);
        assert_eq!(rec.epoch, 42);
        assert_eq!(rec.batch, batch);

        // Any truncation is a typed error — replication shipments must be
        // whole, unlike the lenient local recovery scan.
        for cut in 0..bytes.len() {
            assert!(decode_record(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut flipped = bytes.clone();
        flipped[12] ^= 0x01;
        assert!(matches!(
            decode_record(&flipped),
            Err(PersistError::ChecksumMismatch { .. })
        ));

        // Concatenated records decode one at a time via the consumed count.
        let mut two = bytes.clone();
        two.extend_from_slice(&encode_record(8, 42, 43, &batch));
        let (first, consumed) = decode_record(&two).unwrap();
        assert_eq!(first.seq, 7);
        let (second, rest) = decode_record(&two[consumed..]).unwrap();
        assert_eq!(second.seq, 8);
        assert_eq!(consumed + rest, two.len());
    }

    #[test]
    fn missing_file_scans_empty() {
        let dir = tmp_dir("missing");
        let scan = scan_file(&dir.join("nope.log")).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_tolerated_and_truncated() {
        let dir = tmp_dir("torn");
        let path = dir.join("wal.log");
        let mut wal = Wal::create(&path, FsyncPolicy::Never).unwrap();
        for i in 0..3 {
            wal.append(i, i + 1, &sample_batch(i)).unwrap();
        }
        wal.sync().unwrap();
        let full = wal.bytes();
        drop(wal);
        // Tear the final record: chop 5 bytes off the end.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let scan = scan_file(&path).unwrap();
        assert_eq!(scan.records.len(), 2, "two intact records survive");
        assert!(scan.anomaly.is_some());
        assert!(scan.valid_bytes < full);

        // Re-open truncates the tear and appending resumes at seq 3.
        let mut wal = Wal::open_after_scan(&path, FsyncPolicy::Always, &scan).unwrap();
        assert_eq!(wal.records(), 2);
        let seq = wal.append(10, 11, &sample_batch(9)).unwrap();
        assert_eq!(seq, 3);
        let rescan = scan_file(&path).unwrap();
        assert!(rescan.anomaly.is_none());
        assert_eq!(rescan.records.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_stops_the_scan_at_the_flip() {
        let dir = tmp_dir("flip");
        let path = dir.join("wal.log");
        let mut wal = Wal::create(&path, FsyncPolicy::Always).unwrap();
        let mut first_end = 0;
        for i in 0..3 {
            wal.append(i, i + 1, &sample_batch(i)).unwrap();
            if i == 0 {
                first_end = wal.bytes();
            }
        }
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit inside the second record's payload.
        let target = first_end as usize + WAL_RECORD_HEADER_LEN + 2;
        bytes[target] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let scan = scan_file(&path).unwrap();
        assert_eq!(scan.records.len(), 1, "only the record before the flip");
        let anomaly = scan.anomaly.unwrap();
        assert!(anomaly.contains("checksum mismatch"), "{anomaly}");
        assert!(anomaly.contains(&format!("byte {first_end}")), "{anomaly}");
        assert_eq!(scan.valid_bytes, first_end);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One frame decoder behind both readers: on every truncation and
    /// every single-byte flip of a 3-record log, stepping [`decode_record`]
    /// from record boundary to record boundary fails at exactly the record
    /// where [`scan_bytes`] stops with an anomaly.
    #[test]
    fn strict_and_lenient_reads_stop_at_the_same_record() {
        let mut log = header();
        for i in 0..3 {
            log.extend(encode_record(i + 1, i, i + 1, &sample_batch(i)));
        }
        // (records decoded, whether a record failed)
        let strict = |bytes: &[u8]| {
            let (mut pos, mut records) = (WAL_HEADER_LEN, 0);
            while pos < bytes.len() {
                match decode_record(&bytes[pos..]) {
                    Ok((_, len)) => (pos, records) = (pos + len, records + 1),
                    Err(_) => return (records, true),
                }
            }
            (records, false)
        };
        let agree = |bytes: &[u8], what: String| {
            let scan = scan_bytes(bytes).unwrap();
            let lenient = (scan.records.len(), scan.anomaly.is_some());
            assert_eq!(strict(bytes), lenient, "{what}: {:?}", scan.anomaly);
        };
        for cut in WAL_HEADER_LEN..=log.len() {
            agree(&log[..cut], format!("cut at {cut}"));
        }
        for at in WAL_HEADER_LEN..log.len() {
            for mask in [0x01, 0x80, 0xFF] {
                let mut flipped = log.clone();
                flipped[at] ^= mask;
                agree(&flipped, format!("byte {at} ^ {mask:#04x}"));
            }
        }
    }

    #[test]
    fn bad_magic_and_version_are_hard_errors() {
        let dir = tmp_dir("magic");
        let path = dir.join("wal.log");
        std::fs::write(&path, b"NOTABANKSWALFILE").unwrap();
        assert!(matches!(
            scan_file(&path),
            Err(PersistError::BadMagic { .. })
        ));

        let mut h = header().to_vec();
        h[8] = 9; // future version
        let crc = crc32(&h[..12]);
        h[12..16].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &h).unwrap();
        assert!(matches!(
            scan_file(&path),
            Err(PersistError::UnsupportedVersion { found: 9, .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_empties_the_log() {
        let dir = tmp_dir("reset");
        let path = dir.join("wal.log");
        let mut wal = Wal::create(&path, FsyncPolicy::Always).unwrap();
        wal.append(1, 2, &sample_batch(0)).unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.records(), 0);
        assert_eq!(wal.bytes(), WAL_HEADER_LEN as u64);
        let scan = scan_file(&path).unwrap();
        assert!(scan.records.is_empty());
        assert!(scan.anomaly.is_none());
        // Appending after reset restarts the sequence.
        let seq = wal.append(5, 6, &sample_batch(1)).unwrap();
        assert_eq!(seq, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resetting_an_empty_log_leaves_the_file_alone() {
        let dir = tmp_dir("reset-empty");
        let path = dir.join("wal.log");
        let mut wal = Wal::create(&path, FsyncPolicy::Always).unwrap();
        let written = std::fs::metadata(&path).unwrap().modified().unwrap();
        wal.reset().unwrap();
        wal.reset().unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().modified().unwrap(),
            written,
            "nothing to truncate, nothing written"
        );
        wal.append(1, 2, &sample_batch(0)).unwrap();
        let scan = scan_file(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(scan.anomaly.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Test randomness without a dev-dependency: a 64-bit LCG's high bits.
    fn next(state: &mut u64) -> usize {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*state >> 33) as usize
    }

    fn random_batch(rng: &mut u64) -> MutationBatch {
        (0..next(rng) % 4).fold(sample_batch(next(rng) as u64 % 1000), |batch, i| {
            batch.add_node("paper", "x".repeat(next(rng) % 60) + &i.to_string())
        })
    }

    /// A file that grows in steps respecting no record boundary, read by a
    /// reader that resumes from its position after every step, yields
    /// exactly the records (and the valid prefix) of one scan of the final
    /// file — torn tails along the way, and a torn final tail, included.
    #[test]
    fn suffix_reads_concatenate_to_the_full_scan() {
        let dir = tmp_dir("suffix");
        let path = dir.join("wal.log");
        let growing = dir.join("growing.log");
        for seed in 0..48u64 {
            let mut rng = seed;
            let mut wal = Wal::create(&path, FsyncPolicy::Never).unwrap();
            for i in 0..1 + next(&mut rng) % 12 {
                wal.append(i as u64, i as u64 + 1, &random_batch(&mut rng))
                    .unwrap();
            }
            let mut target = std::fs::read(&path).unwrap();
            target.truncate(target.len() - next(&mut rng) % 20);
            let full = scan_bytes(&target).unwrap();

            let mut position = WalPosition::default();
            let mut records = Vec::new();
            // A file shorter than its header is a hard error by design;
            // growth is observed from the header on.
            let mut len = WAL_HEADER_LEN;
            loop {
                std::fs::write(&growing, &target[..len]).unwrap();
                let (scan, end) = read_chunk(&growing, position).unwrap().scan().unwrap();
                assert_eq!(scan.valid_bytes, end.bytes);
                assert_eq!(
                    scan.anomaly.is_some(),
                    end.bytes < len as u64,
                    "seed {seed}: an anomaly exactly when the read stopped short"
                );
                records.extend(scan.records);
                position = end;
                if len == target.len() {
                    break;
                }
                len = target.len().min(len + 1 + next(&mut rng) % 90);
            }
            assert_eq!(records, full.records, "seed {seed}");
            assert_eq!(position.bytes, full.valid_bytes, "seed {seed}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The live reader: random appends, reads and truncations.  After every
    /// read the records gathered since the reader last started over are
    /// the file's records; a read fetches the bytes past the position and
    /// no others, and touches the file only when there are any.
    #[test]
    fn read_since_follows_appends_and_starts_over_after_a_reset() {
        let dir = tmp_dir("since");
        let path = dir.join("wal.log");
        for seed in 0..24u64 {
            let mut rng = seed ^ 0x9e37_79b9;
            let mut wal = Wal::create(&path, FsyncPolicy::Never).unwrap();
            let mut position = WalPosition::default();
            let mut records = Vec::new();
            let mut epoch = 0;
            let mut dirty = true; // the header itself is unread
            for _ in 0..60 {
                match next(&mut rng) % 8 {
                    0 => {
                        // Resetting a log with no record leaves it as it
                        // is: nothing new to read.
                        dirty |= wal.records() > 0;
                        wal.reset().unwrap();
                    }
                    1..=4 => {
                        wal.append(epoch, epoch + 1, &random_batch(&mut rng))
                            .unwrap();
                        epoch += 1;
                        dirty = true;
                    }
                    _ => {
                        let reads = wal.reads();
                        let chunk = wal.read_since(position).unwrap();
                        assert_eq!(wal.reads() - reads, dirty as u64, "seed {seed}");
                        dirty = false;
                        assert_eq!(chunk.bytes.len() as u64, wal.bytes() - chunk.at.bytes);
                        if chunk.at.bytes == 0 {
                            records.clear();
                        }
                        let (scan, end) = chunk.scan().unwrap();
                        assert!(scan.anomaly.is_none(), "seed {seed}: {:?}", scan.anomaly);
                        records.extend(scan.records);
                        position = end;
                        assert_eq!(records, scan_file(&path).unwrap().records, "seed {seed}");
                        assert_eq!(position.bytes, wal.bytes());
                    }
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_n_policy_batches_syncs() {
        let dir = tmp_dir("everyn");
        let path = dir.join("wal.log");
        let mut wal = Wal::create(&path, FsyncPolicy::EveryN(3)).unwrap();
        for i in 0..7 {
            wal.append(i, i + 1, &sample_batch(i)).unwrap();
        }
        // 7 appends with n=3 leaves one unsynced; sync() clears it.
        assert_eq!(wal.unsynced, 1);
        wal.sync().unwrap();
        assert_eq!(wal.unsynced, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
