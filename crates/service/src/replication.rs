//! Replication roles and follower progress tracking.
//!
//! A service is **standalone** until told otherwise.  A server that ships
//! its WAL to read replicas marks itself **leader**; a replica that
//! bootstraps from a leader snapshot and tails the leader's WAL stream
//! marks itself **follower** ([`crate::Service::set_replication_role`]).
//! The follower's apply loop reports its progress here —
//! [`crate::Service::note_replication_head`] each time the leader
//! announces its newest epoch, implicitly on every
//! [`crate::Service::apply_replicated`] — and the resulting
//! [`ReplicationStatus`] is surfaced on [`crate::ServiceMetrics`], the
//! `/healthz` document, and the `replication_lag_ms` time series the
//! `replication_lag` SLO judges.

/// Which role this service plays in a replication pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReplicationRole {
    /// Not replicating (the default).
    #[default]
    Standalone,
    /// Serving its WAL to followers over `GET /replication/stream`.
    Leader,
    /// Tailing a leader's WAL stream; local mutations are rejected.
    Follower,
}

impl ReplicationRole {
    /// The lowercase wire name (`"standalone"` / `"leader"` /
    /// `"follower"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            ReplicationRole::Standalone => "standalone",
            ReplicationRole::Leader => "leader",
            ReplicationRole::Follower => "follower",
        }
    }
}

/// Point-in-time replication progress, as reported by
/// [`crate::Service::replication_status`] and carried on
/// [`crate::ServiceMetrics::replication`].
///
/// On a standalone service (and on a leader, which by definition is never
/// behind itself) every numeric field reads zero except `applied_epoch`,
/// which mirrors the serving epoch once any progress was noted.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReplicationStatus {
    /// This service's role.
    pub role: ReplicationRole,
    /// Newest epoch the leader has announced (head or keepalive events;
    /// 0 until the first announcement).
    pub leader_epoch: u64,
    /// Newest leader epoch this service has applied locally.
    pub applied_epoch: u64,
    /// Records the leader has announced beyond `applied_epoch` — the
    /// apply backlog as of the last head announcement.
    pub lag_records: u64,
    /// How long this service has continuously known about unapplied
    /// leader epochs, in milliseconds (0 when caught up).  This is the
    /// staleness signal the `replication_lag` SLO bounds.
    pub lag_ms: u64,
}

/// The mutable replication bookkeeping guarded by `Inner::replication`.
#[derive(Debug, Default)]
pub(crate) struct ReplicationState {
    role: ReplicationRole,
    leader_epoch: u64,
    applied_epoch: u64,
    lag_records: u64,
    /// Wall-clock ms at which the service first observed the current
    /// stretch of `applied_epoch < leader_epoch`; `None` while caught up.
    behind_since_ms: Option<u64>,
}

impl ReplicationState {
    pub(crate) fn set_role(&mut self, role: ReplicationRole) {
        self.role = role;
    }

    pub(crate) fn role(&self) -> ReplicationRole {
        self.role
    }

    /// Records a leader head announcement at `now_ms`.
    pub(crate) fn note_head(&mut self, leader_epoch: u64, lag_records: u64, now_ms: u64) {
        self.leader_epoch = self.leader_epoch.max(leader_epoch);
        self.lag_records = lag_records;
        self.refresh_behind(now_ms);
    }

    /// Records local apply progress at `now_ms`.
    pub(crate) fn note_applied(&mut self, applied_epoch: u64, now_ms: u64) {
        self.applied_epoch = self.applied_epoch.max(applied_epoch);
        // Applying an epoch proves the leader reached it too.
        self.leader_epoch = self.leader_epoch.max(applied_epoch);
        if self.applied_epoch >= self.leader_epoch {
            self.lag_records = 0;
        } else {
            self.lag_records = self.lag_records.saturating_sub(1);
        }
        self.refresh_behind(now_ms);
    }

    fn refresh_behind(&mut self, now_ms: u64) {
        if self.applied_epoch >= self.leader_epoch {
            self.behind_since_ms = None;
        } else if self.behind_since_ms.is_none() {
            self.behind_since_ms = Some(now_ms);
        }
    }

    /// The status snapshot as of `now_ms`.
    pub(crate) fn status(&self, now_ms: u64) -> ReplicationStatus {
        ReplicationStatus {
            role: self.role,
            leader_epoch: self.leader_epoch,
            applied_epoch: self.applied_epoch,
            lag_records: self.lag_records,
            lag_ms: self
                .behind_since_ms
                .map(|since| now_ms.saturating_sub(since))
                .unwrap_or(0),
        }
    }
}

/// What [`crate::Service::replication_records_after`] read: the leader's
/// truncation horizon and the WAL records past the cursor, as of one
/// moment.
#[derive(Clone, Debug, PartialEq)]
pub struct WalTail {
    /// Epoch of the leader's last checkpoint.  A cursor below it is behind
    /// the WAL truncation horizon — `records` cannot bridge the gap and
    /// the follower must re-bootstrap — so empty `records` alone do not
    /// mean "caught up".
    pub checkpoint_epoch: u64,
    /// Records with an epoch above the cursor that the caller's
    /// [`banks_persist::WalPosition`] had not yet passed, in log order.
    pub records: Vec<banks_persist::WalRecord>,
}

/// Outcome of [`crate::Service::apply_replicated`] when the record was
/// accepted (or was already reflected in the serving graph).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicatedApply {
    /// The serving epoch after the call.
    pub epoch: u64,
    /// Whether the record actually advanced the graph (`false`: its epoch
    /// was at or behind the serving epoch — a resumed stream replaying
    /// records the follower already holds).
    pub applied: bool,
}

/// Why [`crate::Service::apply_replicated`] refused a record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplicationApplyError {
    /// The record's parent epoch does not match the serving epoch: the
    /// stream skipped ahead of this follower (typically because the
    /// leader checkpointed and truncated the WAL past the follower's
    /// position).  The follower must re-bootstrap from a leader snapshot.
    EpochGap {
        /// The follower's serving epoch (the parent it can accept).
        serving_epoch: u64,
        /// The record's parent epoch.
        parent_epoch: u64,
        /// The record's own epoch.
        record_epoch: u64,
    },
    /// The local WAL append failed; the record was not applied, so the
    /// serving graph and the local disk state remain consistent and the
    /// caller can retry the same record.
    Persist(String),
}

impl std::fmt::Display for ReplicationApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicationApplyError::EpochGap {
                serving_epoch,
                parent_epoch,
                record_epoch,
            } => write!(
                f,
                "replication gap: record for epoch {record_epoch} builds on parent \
                 {parent_epoch}, but the serving epoch is {serving_epoch}; re-bootstrap required"
            ),
            ReplicationApplyError::Persist(e) => {
                write!(f, "local WAL append failed: {e}")
            }
        }
    }
}

impl std::error::Error for ReplicationApplyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caught_up_state_reports_zero_lag() {
        let mut state = ReplicationState::default();
        state.set_role(ReplicationRole::Follower);
        state.note_head(5, 0, 1_000);
        state.note_applied(5, 1_100);
        let status = state.status(9_000);
        assert_eq!(status.role, ReplicationRole::Follower);
        assert_eq!(status.leader_epoch, 5);
        assert_eq!(status.applied_epoch, 5);
        assert_eq!(status.lag_records, 0);
        assert_eq!(status.lag_ms, 0);
    }

    #[test]
    fn lag_accrues_from_the_moment_the_gap_was_learned() {
        let mut state = ReplicationState::default();
        state.note_applied(3, 500);
        state.note_head(7, 4, 1_000);
        // a later head announcement does not restart the clock
        state.note_head(8, 5, 2_000);
        let status = state.status(4_500);
        assert_eq!(status.leader_epoch, 8);
        assert_eq!(status.lag_records, 5);
        assert_eq!(status.lag_ms, 3_500);
        // catching up clears both the backlog and the clock
        state.note_applied(8, 5_000);
        let status = state.status(9_999);
        assert_eq!(status.lag_records, 0);
        assert_eq!(status.lag_ms, 0);
    }

    #[test]
    fn applying_an_epoch_implies_the_leader_reached_it() {
        let mut state = ReplicationState::default();
        state.note_applied(12, 100);
        let status = state.status(100);
        assert_eq!(status.leader_epoch, 12);
        assert_eq!(status.applied_epoch, 12);
        assert_eq!(status.lag_ms, 0);
    }

    #[test]
    fn roles_have_stable_wire_names() {
        assert_eq!(ReplicationRole::Standalone.as_str(), "standalone");
        assert_eq!(ReplicationRole::Leader.as_str(), "leader");
        assert_eq!(ReplicationRole::Follower.as_str(), "follower");
        assert_eq!(ReplicationRole::default(), ReplicationRole::Standalone);
    }
}
