//! The layout of a data directory and crash recovery.
//!
//! A data directory holds epoch-named snapshot files and one WAL.  The
//! free functions here ([`list_snapshots`], [`recover`], [`replay_wal`])
//! find the newest loadable snapshot and replay the WAL suffix on top of
//! it; the query service runs the write side of the protocol (WAL-first
//! commit, checkpoint, pruning) around its own richer state.

use std::path::{Path, PathBuf};

use banks_graph::DataGraph;

use crate::error::{PersistError, Result};
use crate::snapshot::{decode_snapshot_with, Derivation, Keep, SnapshotContents};
use crate::wal::{scan_file, Chain, WalRecord, WalScan};

/// File name of the write-ahead log inside a data directory.
pub const WAL_FILE: &str = "wal.log";
/// Prefix of snapshot file names (`snapshot-<epoch:020>.banks`).
pub const SNAPSHOT_PREFIX: &str = "snapshot-";
/// Extension of snapshot file names.
pub const SNAPSHOT_EXT: &str = "banks";

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
/// Records already covered by the snapshot (as left behind by a crash
/// between snapshot write and WAL truncation) are skipped.  Each applied
/// record must chain from the current epoch ([`WalRecord::chain`]); a gap
/// means snapshot and WAL disagree and is a typed error, not silent data
/// loss.  Replayed batches re-run through `DataGraph::apply_batch`, whose
/// rejections are deterministic, and the recorded epoch is restored so the
/// recovered graph is indistinguishable from the pre-crash one.
pub fn replay_wal(mut graph: DataGraph, records: &[WalRecord]) -> Result<(DataGraph, usize)> {
    let mut applied = 0;
    for rec in records {
        match rec.chain(graph.epoch()) {
            Chain::Covered => continue,
            Chain::Gap => {
                return Err(PersistError::Corrupt {
                    detail: format!(
                        "wal record {} chains from epoch {} but the graph is at epoch {}",
                        rec.seq,
                        rec.parent_epoch,
                        graph.epoch()
                    ),
                })
            }
            Chain::Next => {}
        }
        let (mut next, _outcome) = graph.apply_batch(&rec.batch);
        next.restore_epoch(rec.epoch);
        graph = next;
        applied += 1;
    }
    Ok((graph, applied))
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_graph::{GraphBuilder, MutationBatch};

    fn seed_graph() -> DataGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_node("author", "Ada");
        let p = b.add_node("paper", "Persistent Graphs");
        b.add_edge(p, a).unwrap();
        b.build_default()
    }

    #[test]
    fn empty_dir_recovers_to_none() {
        let dir = std::env::temp_dir().join(format!("banks-store-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
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
