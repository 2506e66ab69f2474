//! Service-side durability plumbing: the WAL + checkpoint lifecycle run
//! around the serving snapshot.
//!
//! Every commit of the epoch pipeline is WAL-first: under its `mutate`
//! lock, an accepted batch is appended (and fsynced per policy) *before*
//! the successor snapshot is swapped in.  Checkpoints — a full snapshot of
//! graph, prestige **and** keyword index plus the record of how the last
//! two were derived, then WAL truncation and stale snapshot pruning —
//! happen on demand ([`crate::Service::checkpoint`]), when a mutation chain
//! triggers compaction, when the WAL crosses 8 MiB (`ROTATE_WAL_BYTES`), and
//! after a wholesale [`crate::Service::swap_graph`] (which bypasses the WAL
//! and therefore must be made durable by a snapshot).  A checkpoint with
//! nothing to add — the newest file on disk is already at the serving
//! epoch and the WAL is empty — writes nothing.

use std::path::{Path, PathBuf};

use banks_obs::{Histogram, LatencySummary};
use banks_persist::{
    list_snapshots, snapshot_file_name, write_snapshot_bytes, PersistError, Wal, WalChunk,
    WalPosition,
};

use crate::snapshot::GraphSnapshot;

/// WAL size at which the next commit checkpoints (and so truncates it).
/// Unit tests lower it so a handful of records cross it.
pub(crate) const ROTATE_WAL_BYTES: u64 = if cfg!(test) { 1024 } else { 8 * 1024 * 1024 };

/// Snapshot files a checkpoint keeps; older ones are pruned.
const KEEP_SNAPSHOTS: usize = 2;

/// Durability state of a service, as reported by
/// [`crate::Service::durability`] and the `/healthz` endpoint.  All-zero
/// numeric fields with `enabled == false` mean persistence is off.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DurabilityStatus {
    /// Whether the service was built with a data directory.
    pub enabled: bool,
    /// Epoch of the most recent on-disk snapshot.
    pub last_checkpoint_epoch: u64,
    /// Mutation batches in the WAL since that snapshot.
    pub wal_records: u64,
    /// Size of the WAL file in bytes.
    pub wal_bytes: u64,
    /// Times a replication stream has read the WAL file since the service
    /// started: one per stream per publish it had to fetch, none while
    /// idle.
    pub wal_reads: u64,
    /// Checkpoints taken since the service started (the boot checkpoint
    /// included).
    pub checkpoints: u64,
    /// WAL records replayed at boot (0 after a clean shutdown).
    pub replayed_records: u64,
    /// The most recent persistence failure, if any (a failed WAL append
    /// rejects the mutation; a failed background checkpoint is recorded
    /// here and retried on the next trigger).
    pub last_error: Option<String>,
    /// Latency distribution of successful checkpoints (snapshot write +
    /// WAL reset + prune) since the service started.
    pub checkpoint_latency: LatencySummary,
    /// Latency distribution of WAL fsyncs since the service started.
    pub wal_fsync: LatencySummary,
}

/// The mutable durability state guarded by the epoch pipeline's
/// `persistence` lock.
pub(crate) struct Persistence {
    dir: PathBuf,
    wal: Wal,
    last_checkpoint_epoch: u64,
    checkpoints: u64,
    replayed_records: u64,
    last_error: Option<String>,
    checkpoint_hist: Histogram,
}

impl Persistence {
    /// Wraps the open WAL of `dir`, whose newest snapshot is at
    /// `last_checkpoint_epoch` (0 when there is none yet) and from which
    /// boot replayed `replayed_records` records.
    pub(crate) fn new(
        dir: &Path,
        wal: Wal,
        last_checkpoint_epoch: u64,
        replayed_records: u64,
    ) -> Self {
        Persistence {
            dir: dir.to_path_buf(),
            wal,
            last_checkpoint_epoch,
            checkpoints: 0,
            replayed_records,
            last_error: None,
            checkpoint_hist: Histogram::new(),
        }
    }

    /// Appends one accepted batch, WAL-first.  A failure here means the
    /// mutation is **not** durable; the caller must not swap the successor
    /// in.  On success, returns the duration in microseconds of the fsync
    /// **this append triggered** (0 when the policy deferred it) — the
    /// mutation trace attributes the fsync to its triggering batch.
    pub(crate) fn append(
        &mut self,
        parent_epoch: u64,
        epoch: u64,
        batch: &banks_graph::MutationBatch,
    ) -> Result<u64, PersistError> {
        let syncs_before = self.wal.syncs();
        match self.wal.append(parent_epoch, epoch, batch) {
            Ok(_) => Ok(if self.wal.syncs() > syncs_before {
                self.wal.last_sync_micros()
            } else {
                0
            }),
            Err(e) => {
                self.last_error = Some(e.to_string());
                Err(e)
            }
        }
    }

    /// Whether the WAL has grown past the rotation threshold.
    pub(crate) fn wants_rotation(&self) -> bool {
        self.wal.bytes() >= ROTATE_WAL_BYTES
    }

    /// The data directory this state persists into.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// The truncation horizon and the WAL bytes appended past `position`
    /// (everything, after a truncation), read together so that neither
    /// can move between the two.
    pub(crate) fn read_wal(
        &mut self,
        position: WalPosition,
    ) -> Result<(u64, WalChunk), PersistError> {
        Ok((self.last_checkpoint_epoch, self.wal.read_since(position)?))
    }

    /// Deletes every on-disk snapshot.  A follower bootstrap invalidates
    /// local history wholesale: epochs adopted from the leader are not
    /// ordered against epochs minted locally before the bootstrap, so
    /// retention-by-newest-epoch must restart from a clean slate before
    /// the bootstrap checkpoint is written.
    fn clear_snapshots(&mut self) {
        if let Ok(snapshots) = list_snapshots(&self.dir) {
            for (_, path) in snapshots {
                let _ = std::fs::remove_file(path);
            }
        }
    }

    /// Whether the newest on-disk snapshot is at `epoch` and the WAL holds
    /// no record since — a checkpoint of `epoch` would rewrite the same
    /// state.  (An unreadable directory counts as not current.)
    pub(crate) fn is_current(&self, epoch: u64) -> bool {
        self.wal.records() == 0
            && list_snapshots(&self.dir)
                .ok()
                .and_then(|snapshots| snapshots.first().map(|(newest, _)| *newest))
                == Some(epoch)
    }

    /// Writes a full snapshot of `snapshot` (graph, prestige, index and
    /// their derivation record), truncates the WAL and prunes snapshots
    /// beyond the retention bound.  Returns the checkpointed epoch, or
    /// `None` — having written nothing — when the state on disk is already
    /// current ([`Persistence::is_current`]), as after a checkpoint with no
    /// write since.
    pub(crate) fn checkpoint(
        &mut self,
        snapshot: &GraphSnapshot,
    ) -> Result<Option<u64>, PersistError> {
        let epoch = snapshot.epoch();
        if self.is_current(epoch) {
            return Ok(None);
        }
        let started = std::time::Instant::now();
        self.write(epoch, &snapshot.encode(), started).map(Some)
    }

    /// Makes a leader's snapshot file, received as `bytes` at `epoch`, the
    /// local bootstrap checkpoint: every local snapshot is deleted (see
    /// [`Persistence::clear_snapshots`]) and the bytes are written as they
    /// came — no re-encode.
    pub(crate) fn install(&mut self, epoch: u64, bytes: &[u8]) -> Result<u64, PersistError> {
        let started = std::time::Instant::now();
        self.clear_snapshots();
        self.write(epoch, bytes, started)
    }

    /// Writes one snapshot file, truncates the WAL, prunes, and books the
    /// checkpoint (or the failure).
    fn write(
        &mut self,
        epoch: u64,
        bytes: &[u8],
        started: std::time::Instant,
    ) -> Result<u64, PersistError> {
        let path = self.dir.join(snapshot_file_name(epoch));
        let result = write_snapshot_bytes(&path, bytes).and_then(|_| self.wal.reset());
        match result {
            Ok(()) => {
                self.checkpoint_hist.record(started.elapsed());
                self.last_checkpoint_epoch = epoch;
                self.checkpoints += 1;
                self.last_error = None;
                if let Ok(snapshots) = list_snapshots(&self.dir) {
                    for (_, stale) in snapshots.into_iter().skip(KEEP_SNAPSHOTS) {
                        // Best-effort: a vanished file must not fail the
                        // checkpoint that just succeeded.
                        let _ = std::fs::remove_file(stale);
                    }
                }
                Ok(epoch)
            }
            Err(e) => {
                self.last_error = Some(e.to_string());
                Err(e)
            }
        }
    }

    /// Current status, for metrics and `/healthz`.
    pub(crate) fn status(&self) -> DurabilityStatus {
        DurabilityStatus {
            enabled: true,
            last_checkpoint_epoch: self.last_checkpoint_epoch,
            wal_records: self.wal.records(),
            wal_bytes: self.wal.bytes(),
            wal_reads: self.wal.reads(),
            checkpoints: self.checkpoints,
            replayed_records: self.replayed_records,
            last_error: self.last_error.clone(),
            checkpoint_latency: self.checkpoint_hist.summary(),
            wal_fsync: self.wal.fsync_latency(),
        }
    }
}
