//! # banks-replica
//!
//! The **follower half** of BANKS leader/follower replication: a client
//! that keeps a local [`banks_service::Service`] converged with a leader
//! process over plain HTTP — `std::net` sockets only, no external HTTP
//! stack, mirroring the hand-rolled server in `banks-server`.
//!
//! ## The protocol (follower's view)
//!
//! 1. **Tail** `GET /replication/stream` on the leader, resuming from the
//!    follower's serving epoch via `Last-Event-ID`.  Each `record` SSE
//!    event carries one leader WAL record — the exact on-disk bytes,
//!    hex-encoded, CRC framing included — which the follower decodes
//!    ([`banks_service::decode_record`]) and applies through
//!    [`banks_service::Service::apply_replicated`]: the same delta-apply
//!    path a leader mutation takes, *WAL-first locally*, so a follower
//!    that is killed mid-stream recovers from its own data directory and
//!    resumes where it stopped.
//! 2. **Bootstrap** when the WAL is not enough: a cursor behind the
//!    leader's truncation horizon gets a terminal `bootstrap` event (and a
//!    mid-stream gap surfaces as
//!    [`banks_service::ReplicationApplyError::EpochGap`]).  The follower
//!    fetches `GET /replication/snapshot` and installs it via
//!    [`banks_service::Service::install_replicated_snapshot_bytes`]: the
//!    file is decoded, every CRC checked, and served as the leader
//!    persisted it — graph, keyword index and prestige under the modes the
//!    file's derivation record names, so a leader with a supplied index or
//!    pinned prestige has a follower that answers like it — and the same
//!    bytes become the follower's bootstrap checkpoint.  A file from a
//!    leader that writes no derivation record is served with the default
//!    index and prestige derived from its graph.  Then the follower
//!    resumes tailing from the installed epoch.
//! 3. **Report lag** from the leader's `head` events
//!    ([`banks_service::Service::note_replication_head`]): `/healthz`,
//!    `/metrics` and the `replication_lag` SLO on the follower all read
//!    from that single clock.  The leader sends one as the stream's first
//!    frame, one before each batch and one a second while idle; a head
//!    *behind* the follower's serving epoch means the follower's state is
//!    not of this leader's line (a fresh replica's locally minted epoch),
//!    and is handled as a gap — so a new follower is re-seeded on
//!    connect.  The leader's stream wakes on each epoch publish and the
//!    follower blocks in its socket read, so nothing between a leader
//!    write and the follower's apply waits on a timer.
//!
//! Because record epochs are leader-assigned and
//! [`Service::apply_replicated`](banks_service::Service::apply_replicated)
//! is idempotent (a record at or behind the serving epoch is skipped),
//! reconnecting and replaying an overlapping window is always safe; the
//! follower reconnects with jittered exponential backoff and re-bootstraps
//! whenever its state cannot be proven to descend from the leader's.
//!
//! ## Example
//!
//! ```no_run
//! use std::sync::Arc;
//!
//! use banks_graph::GraphBuilder;
//! use banks_replica::Follower;
//! use banks_service::{FsyncPolicy, Service};
//!
//! // A placeholder graph: the first bootstrap replaces it wholesale.
//! let mut b = GraphBuilder::new();
//! b.add_node("boot", "empty");
//! let service = Arc::new(
//!     Service::builder(b.build_default())
//!         .workers(2)
//!         .persistence("replica-data", FsyncPolicy::Always)
//!         .build(),
//! );
//! let follower = Follower::start(Arc::clone(&service), "http://127.0.0.1:7878").unwrap();
//! // ... serve reads from `service`; drop `follower` to stop tailing.
//! ```

#![deny(missing_docs)]

mod client;
mod follower;

pub use client::{LeaderUrl, Response};
pub use follower::Follower;
