//! Durable graph store: snapshot + WAL lifecycle and crash recovery.
//!
//! [`PersistentStore`] owns the current [`DataGraph`] version,
//! appends every accepted batch to the WAL **before** advancing the
//! in-memory state, and periodically [`checkpoint`](PersistentStore::checkpoint)s
//! — writing a fresh snapshot, pruning stale ones and truncating the log.
//!
//! The free functions ([`recover`], [`replay_wal`], [`list_snapshots`])
//! are the building blocks higher layers (the query service) use to run
//! the same protocol around their own richer state.

use std::path::{Path, PathBuf};

use banks_graph::{
    AppliedBatch, BatchOutcome, DataGraph, MutationBatch, MutationLog, DEFAULT_LOG_CAPACITY,
};

use crate::error::{PersistError, Result};
use crate::snapshot::{decode_snapshot_with, write_snapshot, Derivation, Keep, SnapshotContents};
use crate::wal::{scan_file, FsyncPolicy, Wal, WalRecord, WalScan};

/// File name of the write-ahead log inside a data directory.
pub const WAL_FILE: &str = "wal.log";
/// Prefix of snapshot file names (`snapshot-<epoch:020>.banks`).
pub const SNAPSHOT_PREFIX: &str = "snapshot-";
/// Extension of snapshot file names.
pub const SNAPSHOT_EXT: &str = "banks";

/// Tuning knobs for a [`PersistentStore`] (and for the service layer's
/// persistence wiring, which reuses them).
#[derive(Clone, Copy, Debug)]
pub struct PersistOptions {
    /// When WAL appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// Checkpoint automatically once the WAL grows past this many bytes.
    pub rotate_wal_bytes: u64,
    /// How many recent snapshot files to keep (older ones are pruned at
    /// checkpoint).  The minimum of 1 is always enforced.
    pub keep_snapshots: usize,
    /// Capacity of the in-memory [`MutationLog`] ring.
    pub log_capacity: usize,
}

impl Default for PersistOptions {
    fn default() -> Self {
        PersistOptions {
            fsync: FsyncPolicy::default(),
            rotate_wal_bytes: 8 * 1024 * 1024,
            keep_snapshots: 2,
            log_capacity: DEFAULT_LOG_CAPACITY,
        }
    }
}

/// Builds the canonical snapshot file name for an epoch.  Zero-padding to
/// 20 digits makes lexicographic and numeric order coincide.
pub fn snapshot_file_name(epoch: u64) -> String {
    format!("{SNAPSHOT_PREFIX}{epoch:020}.{SNAPSHOT_EXT}")
}

/// Lists snapshot files in `dir`, newest epoch first.  Files that do not
/// match the naming scheme are ignored.
pub fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(found),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix(SNAPSHOT_PREFIX)
            .and_then(|s| s.strip_suffix(&format!(".{SNAPSHOT_EXT}")))
        else {
            continue;
        };
        let Ok(epoch) = stem.parse::<u64>() else {
            continue;
        };
        found.push((epoch, entry.path()));
    }
    found.sort_unstable_by_key(|entry| std::cmp::Reverse(entry.0));
    Ok(found)
}

/// What [`recover`] found in a data directory.
#[derive(Debug)]
pub struct Recovery {
    /// The decoded contents of the newest loadable snapshot (the graph
    /// already carries its persisted epoch).
    pub contents: SnapshotContents,
    /// Epoch of the snapshot that was loaded.
    pub snapshot_epoch: u64,
    /// Path of the snapshot file that was loaded.
    pub snapshot_path: PathBuf,
    /// Newer snapshot files that were skipped because they failed to load.
    pub skipped_snapshots: usize,
    /// The lenient WAL scan; replay its records with [`replay_wal`].
    pub wal: WalScan,
}

/// Scans a data directory after a (possibly unclean) shutdown.
///
/// Returns `Ok(None)` for a directory with no snapshots — a fresh start.
/// Otherwise tries snapshots newest-first, falling back past corrupt ones,
/// and pairs the winner with a lenient WAL scan.  Only if *every* snapshot
/// fails does this return [`PersistError::NoValidSnapshot`].
pub fn recover(dir: &Path) -> Result<Option<Recovery>> {
    recover_with(dir, |_| Keep::ALL)
}

/// [`recover`] that decodes only the optional snapshot parts `keep` asks
/// for, given each candidate file's derivation record — what a caller
/// that may derive those parts anyway uses to avoid building them twice.
pub fn recover_with(
    dir: &Path,
    keep: impl Fn(Option<Derivation>) -> Keep,
) -> Result<Option<Recovery>> {
    let snapshots = list_snapshots(dir)?;
    if snapshots.is_empty() {
        return Ok(None);
    }
    let mut last_error: Option<PersistError> = None;
    for (skipped, (epoch, path)) in snapshots.iter().enumerate() {
        match std::fs::read(path)
            .map_err(PersistError::from)
            .and_then(|bytes| decode_snapshot_with(&bytes, &keep))
        {
            Ok(contents) => {
                let wal = scan_file(&dir.join(WAL_FILE))?;
                return Ok(Some(Recovery {
                    contents,
                    snapshot_epoch: *epoch,
                    snapshot_path: path.clone(),
                    skipped_snapshots: skipped,
                    wal,
                }));
            }
            Err(e) => {
                if last_error.is_none() {
                    last_error = Some(e);
                }
            }
        }
    }
    Err(PersistError::NoValidSnapshot {
        attempts: snapshots.len(),
        last_error: last_error
            .map(|e| e.to_string())
            .unwrap_or_else(|| "unknown".to_string()),
    })
}

/// Replays scanned WAL records on top of a recovered graph, returning the
/// final graph and how many records were applied.
///
/// Records already covered by the snapshot (`epoch <= graph.epoch()`, as
/// left behind by a crash between snapshot write and WAL truncation) are
/// skipped.  Each applied record must chain from the current epoch; a gap
/// means snapshot and WAL disagree and is a typed error, not silent data
/// loss.  Replayed batches re-run through `DataGraph::apply_batch`, whose
/// rejections are deterministic, and the recorded epoch is restored so the
/// recovered graph is indistinguishable from the pre-crash one.
pub fn replay_wal(mut graph: DataGraph, records: &[WalRecord]) -> Result<(DataGraph, usize)> {
    let mut applied = 0;
    for rec in records {
        if rec.epoch <= graph.epoch() {
            continue;
        }
        if rec.parent_epoch != graph.epoch() {
            return Err(PersistError::Corrupt {
                detail: format!(
                    "wal record {} chains from epoch {} but the graph is at epoch {}",
                    rec.seq,
                    rec.parent_epoch,
                    graph.epoch()
                ),
            });
        }
        let (mut next, _outcome) = graph.apply_batch(&rec.batch);
        next.restore_epoch(rec.epoch);
        graph = next;
        applied += 1;
    }
    Ok((graph, applied))
}

/// How a [`PersistentStore`] came to its initial state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BootSource {
    /// No prior state existed; the store started from the caller's graph
    /// and wrote an initial checkpoint.
    Fresh,
    /// A snapshot was loaded and `replayed` WAL records were applied on
    /// top of it.
    Recovered {
        /// WAL records replayed after the snapshot load.
        replayed: usize,
        /// Corrupt newer snapshots that were skipped.
        skipped_snapshots: usize,
        /// Whether the WAL had a torn/corrupt tail that was dropped.
        torn_tail: bool,
    },
}

/// A [`DataGraph`] owner that makes every accepted mutation batch durable.
///
/// The write path is WAL-first: the batch is appended (and fsynced per
/// policy) *before* the in-memory graph pointer advances, so the log is
/// always a superset of the served state and a crash replays forward to
/// exactly the pre-crash graph.
#[derive(Debug)]
pub struct PersistentStore {
    dir: PathBuf,
    options: PersistOptions,
    current: DataGraph,
    log: MutationLog,
    wal: Wal,
    last_checkpoint_epoch: u64,
    checkpoints: u64,
    boot: BootSource,
}

impl PersistentStore {
    /// Opens (or initialises) a durable store in `dir`.
    ///
    /// If the directory holds a usable snapshot, it is loaded and the WAL
    /// suffix replayed — `init` is never called.  Otherwise `init`
    /// provides the starting graph and an initial checkpoint is written
    /// immediately, so the directory is valid from the first moment.
    pub fn open_with(
        dir: &Path,
        options: PersistOptions,
        init: impl FnOnce() -> DataGraph,
    ) -> Result<PersistentStore> {
        std::fs::create_dir_all(dir)?;
        match recover(dir)? {
            Some(recovery) => {
                let torn_tail = recovery.wal.anomaly.is_some();
                let skipped = recovery.skipped_snapshots;
                let (graph, replayed) = replay_wal(recovery.contents.graph, &recovery.wal.records)?;
                let wal = Wal::open_after_scan(&dir.join(WAL_FILE), options.fsync, &recovery.wal)?;
                Ok(PersistentStore {
                    dir: dir.to_path_buf(),
                    current: graph,
                    log: MutationLog::new(options.log_capacity),
                    wal,
                    last_checkpoint_epoch: recovery.snapshot_epoch,
                    checkpoints: 0,
                    boot: BootSource::Recovered {
                        replayed,
                        skipped_snapshots: skipped,
                        torn_tail,
                    },
                    options,
                })
            }
            None => {
                let graph = init();
                let wal = Wal::create(&dir.join(WAL_FILE), options.fsync)?;
                let mut store = PersistentStore {
                    dir: dir.to_path_buf(),
                    current: graph,
                    log: MutationLog::new(options.log_capacity),
                    wal,
                    last_checkpoint_epoch: 0,
                    checkpoints: 0,
                    boot: BootSource::Fresh,
                    options,
                };
                store.checkpoint()?;
                store.checkpoints = 0; // the bootstrap write is not a user checkpoint
                Ok(store)
            }
        }
    }

    /// Opens a durable store with [`PersistOptions::default`].
    pub fn open(dir: &Path, init: impl FnOnce() -> DataGraph) -> Result<PersistentStore> {
        PersistentStore::open_with(dir, PersistOptions::default(), init)
    }

    /// The current graph version.
    pub fn graph(&self) -> &DataGraph {
        &self.current
    }

    /// How the store booted (fresh or recovered).
    pub fn boot_source(&self) -> BootSource {
        self.boot
    }

    /// Applies a mutation batch durably: WAL append first, then the
    /// in-memory swap.  If the append fails the graph does not advance and
    /// the error is returned — the caller's state and the disk state stay
    /// consistent.  Crossing the WAL rotation threshold triggers an
    /// automatic checkpoint.
    pub fn apply(&mut self, batch: &MutationBatch) -> Result<(BatchOutcome, AppliedBatch)> {
        let parent_epoch = self.current.epoch();
        let (next, outcome) = self.current.apply_batch(batch);
        let epoch = next.epoch();
        self.wal.append(parent_epoch, epoch, batch)?;
        let applied = AppliedBatch {
            parent_epoch,
            epoch,
            ops: batch.len(),
            accepted: outcome.accepted(),
            rejected: outcome.rejected(),
        };
        self.log.push(applied.clone());
        self.current = next;
        if self.wal.bytes() >= self.options.rotate_wal_bytes {
            self.checkpoint()?;
        }
        Ok((outcome, applied))
    }

    /// Writes a fresh snapshot of the current graph, truncates the WAL and
    /// prunes snapshots beyond [`PersistOptions::keep_snapshots`].  The
    /// in-memory graph is compacted as a side effect (same epoch, flat
    /// storage).  Returns the checkpointed epoch.
    pub fn checkpoint(&mut self) -> Result<u64> {
        if self.current.has_overlay() {
            self.current = self.current.compacted();
        }
        let epoch = self.current.epoch();
        let path = self.dir.join(snapshot_file_name(epoch));
        write_snapshot(&path, &self.current, None, None)?;
        self.wal.reset()?;
        self.last_checkpoint_epoch = epoch;
        self.checkpoints += 1;
        self.prune_snapshots()?;
        Ok(epoch)
    }

    fn prune_snapshots(&self) -> Result<()> {
        let keep = self.options.keep_snapshots.max(1);
        for (_, path) in list_snapshots(&self.dir)?.into_iter().skip(keep) {
            // Pruning is best-effort; a locked or vanished file must not
            // fail the checkpoint that just succeeded.
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }

    /// Forces buffered WAL records to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.wal.sync()
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The in-memory ring of recently applied batches.
    pub fn log(&self) -> &MutationLog {
        &self.log
    }

    /// Records currently in the WAL (since the last checkpoint).
    pub fn wal_records(&self) -> u64 {
        self.wal.records()
    }

    /// Size of the WAL file in bytes.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.bytes()
    }

    /// Epoch of the most recent checkpoint.
    pub fn last_checkpoint_epoch(&self) -> u64 {
        self.last_checkpoint_epoch
    }

    /// Checkpoints taken since this store was opened (bootstrap excluded).
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// The options this store was opened with.
    pub fn options(&self) -> &PersistOptions {
        &self.options
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_graph::{GraphBuilder, NodeId};

    fn tmp_dir(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("banks-store-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn seed_graph() -> DataGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_node("author", "Ada");
        let p = b.add_node("paper", "Persistent Graphs");
        b.add_edge(p, a).unwrap();
        b.build_default()
    }

    fn rows(g: &DataGraph) -> Vec<Vec<(u32, u64, bool)>> {
        g.nodes()
            .map(|u| {
                g.out_edges(u)
                    .map(|e| (e.to.0, e.weight.to_bits(), e.kind.is_backward()))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn fresh_open_writes_a_bootstrap_snapshot() {
        let dir = tmp_dir("fresh");
        let store = PersistentStore::open(&dir, seed_graph).unwrap();
        assert_eq!(store.boot_source(), BootSource::Fresh);
        assert_eq!(list_snapshots(&dir).unwrap().len(), 1);
        assert_eq!(store.wal_records(), 0);
        assert_eq!(store.last_checkpoint_epoch(), store.graph().epoch());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_without_checkpoint_replays_the_wal() {
        let dir = tmp_dir("replay");
        let (pre_epoch, pre_rows, pre_labels): (u64, _, Vec<String>);
        {
            let mut store = PersistentStore::open(&dir, seed_graph).unwrap();
            for i in 0..4 {
                let batch = MutationBatch::new()
                    .add_node("author", format!("A{i}"))
                    .add_edge(NodeId(1), NodeId(2 + i));
                store.apply(&batch).unwrap();
            }
            store.sync().unwrap();
            pre_epoch = store.graph().epoch();
            pre_rows = rows(store.graph());
            pre_labels = store
                .graph()
                .nodes()
                .map(|n| store.graph().node_label(n).to_string())
                .collect();
            // Simulated crash: drop without checkpoint.
        }
        let store = PersistentStore::open(&dir, || panic!("must recover, not init")).unwrap();
        assert!(matches!(
            store.boot_source(),
            BootSource::Recovered {
                replayed: 4,
                skipped_snapshots: 0,
                torn_tail: false,
            }
        ));
        assert_eq!(store.graph().epoch(), pre_epoch);
        assert_eq!(rows(store.graph()), pre_rows);
        let labels: Vec<String> = store
            .graph()
            .nodes()
            .map(|n| store.graph().node_label(n).to_string())
            .collect();
        assert_eq!(labels, pre_labels);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_truncates_wal_and_prunes() {
        let dir = tmp_dir("ckpt");
        let mut store = PersistentStore::open(&dir, seed_graph).unwrap();
        for i in 0..3 {
            store
                .apply(&MutationBatch::new().add_node("author", format!("B{i}")))
                .unwrap();
            store.checkpoint().unwrap();
        }
        assert_eq!(store.checkpoints(), 3);
        assert_eq!(store.wal_records(), 0);
        // keep_snapshots defaults to 2.
        assert_eq!(list_snapshots(&dir).unwrap().len(), 2);
        assert_eq!(
            list_snapshots(&dir).unwrap()[0].0,
            store.graph().epoch(),
            "newest snapshot is the current epoch"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_rotation_threshold_triggers_checkpoint() {
        let dir = tmp_dir("rotate");
        let options = PersistOptions {
            rotate_wal_bytes: 256,
            ..PersistOptions::default()
        };
        let mut store = PersistentStore::open_with(&dir, options, seed_graph).unwrap();
        let mut rotated = false;
        for i in 0..64 {
            store
                .apply(&MutationBatch::new().add_node("author", format!("Long Author Name {i}")))
                .unwrap();
            if store.checkpoints() > 0 {
                rotated = true;
                break;
            }
        }
        assert!(rotated, "256-byte threshold must rotate within 64 batches");
        assert!(store.wal_bytes() < 256);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_older() {
        let dir = tmp_dir("fallback");
        let mut store = PersistentStore::open(&dir, seed_graph).unwrap();
        store
            .apply(&MutationBatch::new().add_node("author", "Victim"))
            .unwrap();
        store.checkpoint().unwrap();
        let snaps = list_snapshots(&dir).unwrap();
        assert_eq!(snaps.len(), 2);
        let newest = snaps[0].1.clone();
        drop(store);
        // Corrupt the newest snapshot's body.
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();

        let store = PersistentStore::open(&dir, || panic!("must recover")).unwrap();
        match store.boot_source() {
            BootSource::Recovered {
                skipped_snapshots, ..
            } => assert_eq!(skipped_snapshots, 1),
            other => panic!("expected recovery, got {other:?}"),
        }
        // The WAL was truncated at the fallback checkpoint, so the
        // recovered graph is the older checkpoint's state.
        assert_eq!(store.graph().num_nodes(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_snapshots_corrupt_is_a_typed_error() {
        let dir = tmp_dir("allbad");
        let store = PersistentStore::open(&dir, seed_graph).unwrap();
        drop(store);
        for (_, path) in list_snapshots(&dir).unwrap() {
            std::fs::write(&path, b"garbage").unwrap();
        }
        match PersistentStore::open(&dir, seed_graph) {
            Err(PersistError::NoValidSnapshot { attempts, .. }) => assert_eq!(attempts, 1),
            other => panic!("expected NoValidSnapshot, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_recovers_to_none() {
        let dir = tmp_dir("empty");
        assert!(recover(&dir).unwrap().is_none());
        assert!(recover(&dir.join("does-not-exist")).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_rejects_sequence_gaps() {
        let g = seed_graph();
        let (g2, _) = g.apply_batch(&MutationBatch::new().add_node("author", "X"));
        let rec = WalRecord {
            seq: 1,
            parent_epoch: g2.epoch() + 100, // does not chain
            epoch: g2.epoch() + 101,
            batch: MutationBatch::new().add_node("author", "Y"),
        };
        assert!(matches!(
            replay_wal(g, &[rec]),
            Err(PersistError::Corrupt { .. })
        ));
    }
}
