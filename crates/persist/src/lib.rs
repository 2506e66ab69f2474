//! # banks-persist
//!
//! Durable persistence for BANKS graphs: epoch-versioned binary
//! **snapshots**, a mutation **write-ahead log**, and the **crash
//! recovery** protocol that stitches them back together.
//!
//! The paper's engines all search one immutable graph version; PR 5 made
//! versions cheap to produce (copy-on-write mutation batches, each minting
//! a fresh epoch).  This crate makes them survive the process:
//!
//! - [`snapshot`] — a checksummed, tagged-record binary format that
//!   serializes the flat CSR arrays **verbatim** (weights as raw IEEE-754
//!   bit patterns, rows in their canonical order), so a loaded graph is
//!   bit-identical to the written one and every engine answers queries
//!   identically.  CSR payloads are page-aligned within the file.  An
//!   optional [`Derivation`] record says how the persisted index and
//!   prestige were derived, so a reader can serve them as written;
//!   [`decode_snapshot_with`] builds only the parts a caller keeps.
//! - [`wal`] — an append-only log of accepted mutation batches, written
//!   *before* the in-memory snapshot pointer swings, with a configurable
//!   [`FsyncPolicy`].  A torn final record (the signature of a crash) is
//!   detected by CRC and dropped, never replayed and never fatal.
//! - [`store`] — the data-directory layout and boot:
//!   [`recover`]/[`recover_with`] load the newest loadable snapshot and
//!   [`replay_wal`] replays the WAL suffix on top of it.  The write side
//!   (WAL-first commit, checkpoint, pruning) is the query service's epoch
//!   pipeline.
//!
//! Everything decodes defensively: corrupt input yields a typed
//! [`PersistError`], never a panic, and recovery falls back past corrupt
//! snapshot files to the newest loadable one.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod crc;
pub mod error;
mod par;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use error::{PersistError, Result};
pub use snapshot::{
    decode_snapshot, decode_snapshot_with, encode_snapshot, encode_snapshot_with, read_snapshot,
    write_snapshot, write_snapshot_bytes, Derivation, IndexDerivation, Keep, PrestigeDerivation,
    SnapshotContents, FORMAT_VERSION, PAGE_SIZE, SNAPSHOT_MAGIC,
};
pub use store::{
    list_snapshots, recover, recover_with, replay_wal, snapshot_file_name, Recovery, SNAPSHOT_EXT,
    SNAPSHOT_PREFIX, WAL_FILE,
};
pub use wal::{
    decode_record, encode_record, scan_bytes, scan_file, Chain, FsyncPolicy, Wal, WalChunk,
    WalPosition, WalRecord, WalScan, WAL_MAGIC, WAL_VERSION,
};
