//! The epoch pipeline: the one owner of "the current graph version and its
//! log".  Every serving version comes into being here, under one `mutate`
//! lock: at boot ([`Epochs::boot`]); by one commit shared by leader writes
//! ([`Service::apply_mutations`]) and follower applies
//! ([`Service::apply_replicated`]) — compact, WAL append, publish, book,
//! checkpoint on compaction or rotation; or by a wholesale swap, a
//! follower's snapshot install or an explicit checkpoint.
//!
//! Because every publish and every checkpoint holds that lock, a
//! checkpoint never truncates a record whose version is not yet served,
//! and no record lands in a WAL whose newest snapshot it does not chain
//! from.  Readers of the durability state (metrics, the replication
//! stream) take only the inner `persistence` lock.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use banks_graph::{BatchOutcome, DataGraph, MutationBatch};
use banks_obs::{EventLevel, EventLog, QueryTrace};
use banks_persist::{
    list_snapshots, recover_with, replay_wal, Chain, FsyncPolicy, PersistError, Recovery, Wal,
    WalPosition, WalRecord, WAL_FILE,
};
use banks_prestige::PrestigeVector;
use banks_textindex::InvertedIndex;

use crate::metrics::Counters;
use crate::persistence::{DurabilityStatus, Persistence};
use crate::replication::{ReplicatedApply, ReplicationApplyError, WalTail};
use crate::service::{unix_ms, Service};
use crate::snapshot::GraphSnapshot;

/// What [`Service::apply_mutations`] did: the epoch transition plus the
/// per-op [`BatchOutcome`].
#[derive(Clone, Debug)]
pub struct MutationReport {
    /// The serving epoch after the call (unchanged when nothing was
    /// accepted).
    pub epoch: u64,
    /// The serving epoch the batch was applied against.
    pub previous_epoch: u64,
    /// Whether a successor snapshot was actually swapped in (false when
    /// every op was rejected, or when the WAL append failed).
    pub swapped: bool,
    /// Per-op accept/reject results and the derived-structure deltas.
    pub outcome: BatchOutcome,
    /// Why the batch could not be made durable, when persistence is
    /// enabled and the WAL append failed.  The batch was **not** applied:
    /// the serving snapshot, the epoch and the disk state are all
    /// unchanged, so the caller can retry safely.
    pub persist_error: Option<String>,
    /// Phase trace of the apply itself — delta build, WAL append (with
    /// the fsync this append triggered, if any), snapshot swap, and the
    /// checkpoint the mutation triggered.  `None` when nothing was
    /// applied.  The same trace is retained in the service's trace ring
    /// under `engine == "mutation"`.
    pub trace: Option<Arc<QueryTrace>>,
}

/// The write side of a service: the lock every new serving version is
/// made under, and the durability state it is made durable in.
pub(crate) struct Epochs {
    /// Held by every writer of the serving version — commits, swaps,
    /// installs — and by checkpoints, so a checkpoint never sees a version
    /// half made.  Never held by queries.
    mutate: Mutex<()>,
    /// WAL + checkpoint bookkeeping; `None` when the service was built
    /// without [`crate::ServiceBuilder::persistence`].  Writers take it
    /// under `mutate`; readers take it alone.
    persistence: Option<Mutex<Persistence>>,
}

/// The published epoch and the span timings of one commit, in µs from the
/// moment its writer started: the end of the delta build, the WAL append
/// with the fsync it triggered (`None` without persistence), the publish,
/// and the checkpoint compaction or rotation triggered.
struct Committed {
    epoch: u64,
    apply_end_us: u64,
    wal: Option<(u64, u64, u64)>,
    swap: (u64, u64),
    checkpoint: Option<(u64, u64)>,
}

impl Epochs {
    /// Boots the first serving version.  Without a data directory it is
    /// the builder's graph with the builder's prestige and index.  With
    /// one, recovery decides: a usable snapshot plus its replayed WAL
    /// suffix supersedes the builder's graph; a fresh directory takes the
    /// builder's graph and writes an initial checkpoint, so the directory
    /// is valid from the first moment.
    pub(crate) fn boot(
        graph: DataGraph,
        prestige: Option<PrestigeVector>,
        index: Option<InvertedIndex>,
        persistence: Option<(PathBuf, FsyncPolicy)>,
        events: &EventLog,
    ) -> Result<(GraphSnapshot, Epochs), PersistError> {
        let (snapshot, persistence) = match persistence {
            None => (GraphSnapshot::from_optional(graph, prestige, index), None),
            Some((dir, fsync)) => {
                std::fs::create_dir_all(&dir)?;
                let wal_path = dir.join(WAL_FILE);
                let adoptable = GraphSnapshot::adoptable(prestige.is_some(), index.is_some());
                match recover_with(&dir, adoptable)? {
                    Some(Recovery {
                        mut contents,
                        snapshot_epoch,
                        wal: scan,
                        ..
                    }) => {
                        let (graph, replayed) = replay_wal(contents.graph, &scan.records)?;
                        contents.graph = graph;
                        let wal = Wal::open_after_scan(&wal_path, fsync, &scan)?;
                        events.emit(
                            EventLevel::Info,
                            "recovery",
                            format!(
                                "recovered snapshot epoch {snapshot_epoch} and replayed \
                                 {replayed} WAL record(s)"
                            ),
                        );
                        let snapshot =
                            GraphSnapshot::recovered(contents, replayed == 0, prestige, index);
                        let persistence =
                            Persistence::new(&dir, wal, snapshot_epoch, replayed as u64);
                        (snapshot, Some(persistence))
                    }
                    None => {
                        let snapshot = GraphSnapshot::from_optional(graph, prestige, index);
                        let wal = Wal::create(&wal_path, fsync)?;
                        let mut persistence = Persistence::new(&dir, wal, 0, 0);
                        persistence.checkpoint(&snapshot)?;
                        (snapshot, Some(persistence))
                    }
                }
            }
        };
        let epochs = Epochs {
            mutate: Mutex::new(()),
            persistence: persistence.map(Mutex::new),
        };
        Ok((snapshot, epochs))
    }

    /// The durability state, locked; `None` without a data directory.
    fn persistence(&self) -> Option<MutexGuard<'_, Persistence>> {
        self.persistence
            .as_ref()
            .map(|p| p.lock().expect("persistence lock"))
    }
}

impl Service {
    /// Atomically replaces the served graph with a new version, deriving
    /// the default prestige vector and label index for it (use
    /// [`Service::swap_snapshot`] to supply precomputed ones).  Returns the
    /// new serving epoch.
    ///
    /// The swap is the whole online-reindexing story:
    ///
    /// * **in-flight queries** — running *or still queued* — finish on the
    ///   snapshot they were admitted under, which stays alive until its
    ///   last query drops it;
    /// * **new admissions** resolve, execute and cache against the new
    ///   version;
    /// * **the result cache** needs no flush: keys carry the epoch, so old
    ///   entries can never serve the new graph.  The superseded epoch's
    ///   entries are evicted eagerly to reclaim capacity.
    ///
    /// Swapping in a clone of the currently-served graph still produces a
    /// distinct epoch (and therefore a cold cache): the contract is
    /// "admissions after the swap run on the swapped-in version", not
    /// "...unless the bytes look the same".
    pub fn swap_graph(&self, graph: DataGraph) -> u64 {
        // Derivations run *before* any lock is taken: queries keep flowing
        // against the old version while prestige and the index for the new
        // one are computed.
        self.swap_snapshot(GraphSnapshot::with_defaults(graph))
    }

    /// [`Service::swap_graph`] with caller-supplied prestige and index (the
    /// online equivalent of [`crate::ServiceBuilder::prestige`] /
    /// [`crate::ServiceBuilder::index`]).  Returns the new serving epoch.
    ///
    /// A wholesale swap bypasses the mutation WAL — there is no batch to
    /// log — so with persistence enabled the swap is made durable by an
    /// immediate checkpoint of the new version, under the same lock as
    /// every commit: a concurrent [`Service::apply_mutations`] lands
    /// wholly before or wholly after the swap, on disk as in memory
    /// (last writer wins).  A checkpoint failure does not undo the swap
    /// (queries are already running on the new graph); it is recorded and
    /// surfaced via [`Service::durability`].
    pub fn swap_snapshot(&self, mut snapshot: GraphSnapshot) -> u64 {
        let admin = self.inner.epochs.mutate.lock().expect("mutate lock");
        // A clone of the serving version, or of one a writer has replaced
        // since it was taken, gets a fresh epoch: serving epochs only grow,
        // and recovery chains the WAL from the newest snapshot's epoch.
        if snapshot.epoch() <= self.epoch() {
            snapshot.bump_epoch();
        }
        let epoch = self.swap_snapshot_inner(&admin, snapshot);
        if let Some(mut persistence) = self.inner.epochs.persistence() {
            let _ = self.checkpoint_locked(&mut persistence, "post-swap");
        }
        epoch
    }

    /// Applies a [`MutationBatch`] to the currently-served snapshot and
    /// swaps the successor in, returning the per-op outcome and the new
    /// serving epoch.
    ///
    /// This is the incremental counterpart of [`Service::swap_graph`],
    /// sharing all of its machinery and guarantees — pinned snapshots,
    /// epoch-keyed caches, eager eviction for private caches — while
    /// building the new version as a **delta** instead of a rebuild:
    ///
    /// * the successor snapshot (graph + index + prestige) is derived
    ///   *outside the serving lock* via [`GraphSnapshot::apply_batch`], so
    ///   queries keep flowing on the old version throughout;
    /// * queued and in-flight queries finish on the snapshot they pinned
    ///   at admission; new admissions see the new epoch;
    /// * the epoch-keyed result cache stays correct for free (a private
    ///   cache additionally evicts the superseded epoch eagerly);
    /// * a batch in which **no** op was accepted swaps nothing — the
    ///   epoch, the cache and the serving snapshot are untouched, and the
    ///   report says so (`swapped == false`).
    ///
    /// Concurrent writers are serialized: each batch builds on the
    /// previous writer's result.  Once more than a quarter of the nodes
    /// carry copy-on-write overlay rows, the successor is compacted back
    /// into flat CSR storage before the swap (same contents, same epoch).
    ///
    /// With persistence enabled ([`crate::ServiceBuilder::persistence`])
    /// the write path is **WAL-first**: the accepted batch is appended to
    /// the log (and fsynced per policy) *before* the successor snapshot
    /// swaps in.  If the append fails, nothing swaps — the report carries
    /// [`MutationReport::persist_error`] and the serving state is
    /// unchanged, so acknowledged mutations are exactly the durable ones.
    /// A swap that triggered compaction, or a WAL past its rotation
    /// threshold, checkpoints immediately afterwards (snapshot + WAL
    /// truncation), off the freshly-swapped snapshot.
    pub fn apply_mutations(&self, batch: &MutationBatch) -> MutationReport {
        let started = Instant::now();
        let admin = self.inner.epochs.mutate.lock().expect("mutate lock");
        let current = self.snapshot();
        let previous_epoch = current.epoch();
        // The expensive part — adjacency row rewrites, index delta,
        // prestige refresh — happens here, with no service lock held but
        // the writers' own.
        let (next, outcome) = current.apply_batch(batch);
        let committed = if outcome.accepted() == 0 {
            Err(None)
        } else {
            self.commit(&admin, started, next, batch, &outcome, "mutation-triggered")
                .map_err(|e| Some(e.to_string()))
        };
        let committed = match committed {
            Ok(committed) => committed,
            Err(persist_error) => {
                Counters::add(
                    &self.inner.counters.mutation_ops_rejected,
                    outcome.rejected() as u64,
                );
                return MutationReport {
                    epoch: previous_epoch,
                    previous_epoch,
                    swapped: false,
                    outcome,
                    persist_error,
                    trace: None,
                };
            }
        };
        let epoch = committed.epoch;
        let (accepted, rejected) = (outcome.accepted(), outcome.rejected());
        self.inner.events.emit(
            EventLevel::Info,
            "mutation-batch",
            format!(
                "epoch {previous_epoch} -> {epoch}: {accepted} op(s) accepted, {rejected} rejected"
            ),
        );

        // The mutation's own phase trace: the checkpoint and WAL fsync it
        // triggered are attributed to it here rather than showing up only
        // as anonymous durability histograms.  Retained in the same trace
        // ring as query traces, under `engine == "mutation"`.
        let total_us = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let mut trace = QueryTrace {
            id: self.inner.next_id.fetch_add(1, Ordering::Relaxed),
            engine: "mutation".to_string(),
            epoch,
            total_us,
            ..QueryTrace::default()
        };
        trace.push_span("apply", 0, committed.apply_end_us);
        if let Some((start, end, fsync_us)) = committed.wal {
            trace.push_span("wal-append", start, end);
            if fsync_us > 0 {
                trace.push_span("wal-fsync", end.saturating_sub(fsync_us), end);
            }
        }
        trace.push_span("swap", committed.swap.0, committed.swap.1);
        if let Some((start, end)) = committed.checkpoint {
            trace.push_span("checkpoint", start, end);
        }
        trace.push_span("finish", 0, total_us);
        trace.push_counter("ops", batch.len() as u64);
        trace.push_counter("accepted", accepted as u64);
        trace.push_counter("rejected", rejected as u64);
        let trace = Arc::new(trace);
        self.inner.traces.push(|_| Arc::clone(&trace));

        MutationReport {
            epoch,
            previous_epoch,
            swapped: true,
            outcome,
            persist_error: None,
            trace: Some(trace),
        }
    }

    /// Applies one leader WAL record on a follower, through the same
    /// commit as [`Service::apply_mutations`]: the record is appended to
    /// the **local** WAL (with the leader's epochs) before the successor
    /// swaps in, so a follower killed mid-stream recovers to a prefix of
    /// the leader's history on restart, and it compacts and checkpoints on
    /// the leader's schedule.
    ///
    /// The record's epochs are authoritative: the successor serves at
    /// exactly `record.epoch`, which is what makes a shared epoch on
    /// leader and follower name the same graph version byte-for-byte.
    ///
    /// Records at or behind the serving epoch are skipped (a resumed
    /// stream replays the tail; the apply is idempotent).  A record whose
    /// `parent_epoch` does not match the serving epoch returns
    /// [`ReplicationApplyError::EpochGap`] — the follower fell behind the
    /// leader's WAL truncation horizon and must re-bootstrap from a
    /// leader snapshot ([`Service::install_replicated_snapshot_bytes`]).
    /// Recovery replay ([`banks_persist::replay_wal`]) follows the same
    /// rule ([`WalRecord::chain`]).
    pub fn apply_replicated(
        &self,
        record: &WalRecord,
    ) -> Result<ReplicatedApply, ReplicationApplyError> {
        let started = Instant::now();
        let admin = self.inner.epochs.mutate.lock().expect("mutate lock");
        let current = self.snapshot();
        let serving_epoch = current.epoch();
        match record.chain(serving_epoch) {
            Chain::Covered => {
                self.note_applied_locked(serving_epoch);
                return Ok(ReplicatedApply {
                    epoch: serving_epoch,
                    applied: false,
                });
            }
            Chain::Gap => {
                return Err(ReplicationApplyError::EpochGap {
                    serving_epoch,
                    parent_epoch: record.parent_epoch,
                    record_epoch: record.epoch,
                })
            }
            Chain::Next => {}
        }
        let (mut next, outcome) = current.apply_batch(&record.batch);
        next.restore_epoch(record.epoch);
        // A failed local append applies nothing, so disk and memory stay
        // consistent and the caller can retry the same record.
        let committed = self
            .commit(
                &admin,
                started,
                next,
                &record.batch,
                &outcome,
                "replication-triggered",
            )
            .map_err(|e| ReplicationApplyError::Persist(e.to_string()))?;
        debug_assert_eq!(committed.epoch, record.epoch, "replicated epoch");
        self.note_applied_locked(committed.epoch);
        Ok(ReplicatedApply {
            epoch: committed.epoch,
            applied: true,
        })
    }

    /// The one commit of a successor built from the serving version:
    /// compact, append to the WAL, publish, book, and checkpoint when
    /// compaction or WAL rotation asks for it.  A failed append publishes
    /// nothing.  A failed checkpoint is recorded (and surfaced via
    /// [`Service::durability`]) but does not fail the commit — its record
    /// is already durable in the WAL.
    fn commit(
        &self,
        admin: &MutexGuard<'_, ()>,
        started: Instant,
        mut next: GraphSnapshot,
        batch: &MutationBatch,
        outcome: &BatchOutcome,
        trigger: &str,
    ) -> Result<Committed, PersistError> {
        let elapsed_us = || started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        // Writers are serialized, so the serving epoch is the parent.
        let parent_epoch = self.epoch();
        let compacted = next.maybe_compact();
        let apply_end_us = elapsed_us();
        let wal = match self.inner.epochs.persistence() {
            Some(mut persistence) => {
                let start = elapsed_us();
                let fsync_us = persistence.append(parent_epoch, next.epoch(), batch)?;
                Some((start, elapsed_us(), fsync_us))
            }
            None => None,
        };
        let swap_start_us = elapsed_us();
        let epoch = self.swap_snapshot_inner(admin, next);
        let swap = (swap_start_us, elapsed_us());
        // Apply latency: lock acquisition through WAL append and publish
        // (the checkpoint below is accounted separately).
        self.inner.mutation_apply_hist.record(started.elapsed());
        let counters = &self.inner.counters;
        Counters::bump(&counters.mutation_batches);
        Counters::add(&counters.mutation_ops_accepted, outcome.accepted() as u64);
        Counters::add(&counters.mutation_ops_rejected, outcome.rejected() as u64);
        let mut checkpoint = None;
        if let Some(mut persistence) = self.inner.epochs.persistence() {
            if compacted || persistence.wants_rotation() {
                let start = elapsed_us();
                let _ = self.checkpoint_locked(&mut persistence, trigger);
                checkpoint = Some((start, elapsed_us()));
            }
        }
        Ok(Committed {
            epoch,
            apply_end_us,
            wal,
            swap,
            checkpoint,
        })
    }

    /// Publishes `snapshot` as the serving version — the only place the
    /// serving `Arc` is replaced, and only under the `mutate` lock.
    fn swap_snapshot_inner(&self, _admin: &MutexGuard<'_, ()>, snapshot: GraphSnapshot) -> u64 {
        let old_epoch;
        let new_epoch;
        {
            let mut serving = self.inner.serving.lock().expect("serving lock");
            old_epoch = serving.epoch();
            new_epoch = snapshot.epoch();
            *serving = Arc::new(snapshot);
            self.inner.publish_generation.fetch_add(1, Ordering::SeqCst);
        }
        self.inner.published.notify_all();
        Counters::bump(&self.inner.counters.swaps);
        self.inner.events.emit(
            EventLevel::Info,
            "swap",
            format!("serving epoch {old_epoch} -> {new_epoch}"),
        );
        self.inner.cache.evict_epoch(old_epoch);
        new_epoch
    }

    /// Forces a checkpoint now: writes a full snapshot of the currently
    /// served version (graph, prestige, keyword index), truncates the WAL
    /// and prunes all but the two newest snapshots.  Returns the
    /// checkpointed epoch, or [`PersistError::Disabled`] when the service
    /// was built without [`crate::ServiceBuilder::persistence`].  When the
    /// newest snapshot on disk is already at the serving epoch and the WAL
    /// is empty, nothing is written (no event, no new file) and that epoch
    /// is returned.
    ///
    /// Serialized with every writer (same `mutate` lock), so the written
    /// snapshot is never mid-mutation.
    pub fn checkpoint(&self) -> Result<u64, PersistError> {
        let _admin = self.inner.epochs.mutate.lock().expect("mutate lock");
        let Some(mut persistence) = self.inner.epochs.persistence() else {
            return Err(PersistError::Disabled);
        };
        self.checkpoint_locked(&mut persistence, "on-demand")
    }

    /// Checkpoints the serving snapshot.  A failure is recorded in the
    /// durability status by [`Persistence::checkpoint`]; a success moved
    /// the WAL truncation horizon, so it is logged and the replication
    /// streams are woken to look at it.
    fn checkpoint_locked(
        &self,
        persistence: &mut Persistence,
        trigger: &str,
    ) -> Result<u64, PersistError> {
        let snapshot = self.snapshot();
        match persistence.checkpoint(&snapshot)? {
            Some(epoch) => {
                self.checkpoint_written(epoch, trigger);
                Ok(epoch)
            }
            // Already on disk: nothing was written, the horizon did not
            // move, so nobody is told.
            None => Ok(snapshot.epoch()),
        }
    }

    /// Logs a written checkpoint and wakes the replication streams to look
    /// at the WAL truncation horizon it moved.
    fn checkpoint_written(&self, epoch: u64, trigger: &str) {
        self.inner.events.emit(
            EventLevel::Info,
            "checkpoint",
            format!("{trigger} checkpoint at epoch {epoch}"),
        );
        self.wake_publish_waiters();
    }

    /// The service's durability state: whether persistence is on, the last
    /// checkpoint epoch, WAL size, and the most recent persistence error
    /// (if any).  All-zero with `enabled == false` when the service was
    /// built without a data directory.
    pub fn durability(&self) -> DurabilityStatus {
        self.inner
            .epochs
            .persistence()
            .map_or_else(DurabilityStatus::default, |p| p.status())
    }

    /// Installs a leader snapshot file wholesale — the follower bootstrap
    /// (and re-bootstrap) path.  The bytes are decoded (every CRC checked)
    /// into the version they persisted: graph, index and prestige, each
    /// under the mode the file's derivation record names, and the default
    /// derivations for what the file cannot vouch for (see
    /// [`GraphSnapshot`]).  The snapshot's epoch is preserved, the same
    /// bytes become the local bootstrap checkpoint (which also truncates
    /// any stale local WAL), and the replication progress advances to the
    /// installed epoch.  Installing the epoch already being served, when
    /// the newest local snapshot is already at it, is a no-op apart from
    /// the progress note.  Returns the installed epoch, or the decode
    /// error (nothing is installed then); a failed local write is recorded
    /// in [`Service::durability`] and does not undo the install.
    pub fn install_replicated_snapshot_bytes(&self, bytes: &[u8]) -> Result<u64, PersistError> {
        let snapshot = GraphSnapshot::decode_persisted(bytes)?;
        let admin = self.inner.epochs.mutate.lock().expect("mutate lock");
        let epoch = snapshot.epoch();
        let swapped = epoch != self.epoch();
        if swapped {
            self.swap_snapshot_inner(&admin, snapshot);
        }
        if let Some(mut persistence) = self.inner.epochs.persistence() {
            // An install that swapped always writes: a file already named
            // for this epoch may be one recovery skipped as damaged.
            // Pre-bootstrap snapshots carry locally-minted epochs that are
            // not ordered against the leader's; newest-epoch retention
            // would keep (or even prefer) them, so the install wipes them
            // before writing the bootstrap checkpoint.
            if (swapped || !persistence.is_current(epoch))
                && persistence.install(epoch, bytes).is_ok()
            {
                self.checkpoint_written(epoch, "bootstrap");
            }
        }
        self.note_applied_locked(epoch);
        Ok(epoch)
    }

    /// Updates follower progress after serving-state advanced to `epoch`.
    fn note_applied_locked(&self, epoch: u64) {
        self.inner
            .replication
            .lock()
            .expect("replication lock")
            .note_applied(epoch, unix_ms());
    }

    /// The leader's WAL past a follower's cursor — what
    /// `GET /replication/stream` ships — read incrementally: `position` is
    /// the caller's place in the WAL file (start from
    /// [`WalPosition::default`]), only the bytes appended past it are read
    /// and decoded, and it is advanced over them; after a checkpoint
    /// truncated the file it starts over by itself.  The `persistence`
    /// lock is held for the file read alone (not at all when nothing was
    /// appended), so the read is consistent with concurrent appends and
    /// the decoding delays no writer.  [`PersistError::Disabled`] when the
    /// service has no data directory; a WAL that does not decode cleanly
    /// up to its end is [`PersistError::Corrupt`], not a shorter answer.
    pub fn replication_records_after(
        &self,
        from_epoch: u64,
        position: &mut WalPosition,
    ) -> Result<WalTail, PersistError> {
        let Some(mut persistence) = self.inner.epochs.persistence() else {
            return Err(PersistError::Disabled);
        };
        let (checkpoint_epoch, chunk) = persistence.read_wal(*position)?;
        drop(persistence);
        let (mut scan, end) = chunk.scan()?;
        if let Some(detail) = scan.anomaly {
            return Err(PersistError::Corrupt { detail });
        }
        *position = end;
        scan.records.retain(|r| r.epoch > from_epoch);
        Ok(WalTail {
            checkpoint_epoch,
            records: scan.records,
        })
    }

    /// Epoch and path of the newest on-disk snapshot — what
    /// `GET /replication/snapshot` streams to a bootstrapping follower.
    /// `Ok(None)` when no snapshot exists yet;
    /// [`PersistError::Disabled`] without persistence.
    pub fn newest_snapshot_file(&self) -> Result<Option<(u64, PathBuf)>, PersistError> {
        let Some(persistence) = self.inner.epochs.persistence() else {
            return Err(PersistError::Disabled);
        };
        Ok(list_snapshots(persistence.dir())?.into_iter().next())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persistence::ROTATE_WAL_BYTES;
    use banks_graph::{GraphBuilder, NodeId};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("banks-epoch-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn graph() -> DataGraph {
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_node("author", format!("Author {i}"));
        }
        b.build_default()
    }

    /// A relabel: it grows the WAL without touching adjacency rows, so
    /// compaction never fires and every checkpoint is a rotation.
    fn relabel(i: usize) -> MutationBatch {
        MutationBatch::new().set_label(NodeId(0), format!("A rather long author name, take {i}"))
    }

    /// Feeds `write` batches until the durable service checkpoints past its
    /// boot checkpoint, and checks it did so because the WAL had grown
    /// near the threshold, which it then sits under.
    fn rotates(service: &Service, mut write: impl FnMut(usize)) {
        let boot = service.durability().checkpoints;
        for i in 0..64 {
            let before = service.durability().wal_bytes;
            write(i);
            let status = service.durability();
            if status.checkpoints > boot {
                assert!(before >= ROTATE_WAL_BYTES / 2, "rotation, not compaction");
                assert!(status.wal_bytes < ROTATE_WAL_BYTES);
                assert_eq!(status.last_checkpoint_epoch, service.epoch());
                return;
            }
        }
        panic!("a {ROTATE_WAL_BYTES}-byte WAL must rotate within 64 records");
    }

    /// A swap whose snapshot was built before another swap landed still
    /// moves the serving epoch forward, so a reboot chains the WAL from
    /// the newest snapshot on disk.
    #[test]
    fn a_stale_swap_gets_a_fresh_epoch_and_recovers() {
        let dir = tmp_dir("stale-swap");
        let boot = || {
            Service::builder(graph())
                .workers(1)
                .persistence(&dir, FsyncPolicy::Always)
                .build()
        };
        let service = boot();
        let stale = GraphSnapshot::with_defaults(service.snapshot().graph().clone());
        let newer = service.swap_graph(service.snapshot().graph().clone());
        assert!(
            service.swap_snapshot(stale) > newer,
            "serving epochs only grow"
        );
        let epoch = service.apply_mutations(&relabel(0)).epoch;
        drop(service);
        assert_eq!(boot().epoch(), epoch);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leader_and_follower_checkpoint_on_wal_rotation() {
        for follower in [false, true] {
            let dir = tmp_dir(if follower {
                "rotate-follower"
            } else {
                "rotate-leader"
            });
            let service = Service::builder(graph())
                .workers(1)
                .persistence(&dir, FsyncPolicy::Never)
                .build();
            rotates(&service, |i| {
                if follower {
                    let parent_epoch = service.epoch();
                    let record = WalRecord {
                        seq: i as u64 + 1,
                        parent_epoch,
                        epoch: parent_epoch + 1,
                        batch: relabel(i),
                    };
                    assert!(service.apply_replicated(&record).unwrap().applied);
                } else {
                    assert!(service.apply_mutations(&relabel(i)).swapped);
                }
            });
            drop(service);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
