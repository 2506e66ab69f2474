//! The follower client: a background thread that keeps a local
//! [`Service`] converged with a leader over the replication stream.

use std::io::BufRead;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use banks_core::json::{self, JsonValue};
use banks_core::sse::{from_hex, SseParser};
use banks_obs::EventLevel;
use banks_service::{decode_record, ReplicationApplyError, ReplicationRole, Service};

use crate::client::{self, LeaderUrl};

/// How long a connect / one-shot GET may take before the attempt counts
/// as failed and backoff kicks in.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
/// Socket read timeout while tailing: the granularity at which the thread
/// notices a stop request or a silently dead peer.  The leader sends a
/// `head` keep-alive about once a second, so several consecutive timeouts
/// mean the connection is gone.
const READ_TIMEOUT: Duration = Duration::from_millis(200);
/// Consecutive read timeouts before the connection is declared dead
/// (READ_TIMEOUT × this ≈ 10 s of silence, ten missed keep-alives).
const DEAD_AFTER_TIMEOUTS: u32 = 50;

/// Why one streaming session ended.
enum TailEnd {
    /// The stop flag flipped: wind down cleanly.
    Stopped,
    /// The leader ordered (or the apply path detected) a gap the WAL
    /// cannot bridge: fetch a snapshot, install it, reconnect.
    Bootstrap,
    /// Connection-level failure: reconnect after backoff, same cursor.
    Disconnected(String),
}

/// Jittered exponential backoff between reconnect attempts, sliced so a
/// stop request interrupts the wait.
struct Backoff {
    next_ms: u64,
}

impl Backoff {
    const BASE_MS: u64 = 100;
    const CAP_MS: u64 = 5_000;

    fn new() -> Self {
        Backoff {
            next_ms: Self::BASE_MS,
        }
    }

    fn reset(&mut self) {
        self.next_ms = Self::BASE_MS;
    }

    fn sleep(&mut self, stop: &AtomicBool) {
        // ±25% jitter off the subsecond clock: cheap decorrelation so a
        // fleet of followers does not reconnect in lockstep after a
        // leader restart.
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64)
            .unwrap_or(0);
        let jitter = (self.next_ms / 4).max(1);
        let wait = self.next_ms - jitter / 2 + nanos % jitter;
        let deadline = std::time::Instant::now() + Duration::from_millis(wait);
        while std::time::Instant::now() < deadline {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        self.next_ms = (self.next_ms * 2).min(Self::CAP_MS);
    }
}

/// A handle to the replication thread.  Dropping it (or calling
/// [`Follower::stop`]) signals the thread and joins it; the service keeps
/// serving whatever state was replicated.
pub struct Follower {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    leader: String,
}

impl Follower {
    /// Marks `service` as a [`ReplicationRole::Follower`] and spawns the
    /// tailing thread against `leader_url` (e.g. `http://10.0.0.1:7878`).
    /// Errors only on an unparseable URL — an unreachable leader is a
    /// runtime condition the thread retries with backoff.
    pub fn start(service: Arc<Service>, leader_url: &str) -> Result<Follower, String> {
        let leader = LeaderUrl::parse(leader_url)?;
        service.set_replication_role(ReplicationRole::Follower);
        let stop = Arc::new(AtomicBool::new(false));
        let display = leader.display();
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("banks-follower".to_string())
                .spawn(move || run(&service, &leader, &stop))
                .map_err(|e| format!("spawn follower thread: {e}"))?
        };
        Ok(Follower {
            stop,
            thread: Some(thread),
            leader: display,
        })
    }

    /// The leader base URL this follower tails (display form).
    pub fn leader(&self) -> &str {
        &self.leader
    }

    /// Stops tailing and joins the thread.  Equivalent to dropping.
    pub fn stop(self) {}
}

impl Drop for Follower {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn run(service: &Arc<Service>, leader: &LeaderUrl, stop: &AtomicBool) {
    let mut backoff = Backoff::new();
    while !stop.load(Ordering::SeqCst) {
        match tail_once(service, leader, stop, &mut backoff) {
            TailEnd::Stopped => return,
            TailEnd::Bootstrap => match bootstrap(service, leader) {
                Ok(epoch) => {
                    service.events().emit(
                        EventLevel::Info,
                        "replication-bootstrap",
                        format!(
                            "installed leader snapshot at epoch {epoch} from {}",
                            leader.display()
                        ),
                    );
                    backoff.reset();
                }
                Err(e) => {
                    service.events().emit(
                        EventLevel::Warn,
                        "replication-error",
                        format!("bootstrap from {} failed: {e}", leader.display()),
                    );
                    backoff.sleep(stop);
                }
            },
            TailEnd::Disconnected(reason) => {
                service.events().emit(
                    EventLevel::Warn,
                    "replication-disconnect",
                    format!("stream from {} ended: {reason}", leader.display()),
                );
                backoff.sleep(stop);
            }
        }
    }
}

/// One streaming session: connect at the current serving epoch, apply
/// whatever arrives, and report why the session ended.
fn tail_once(
    service: &Arc<Service>,
    leader: &LeaderUrl,
    stop: &AtomicBool,
    backoff: &mut Backoff,
) -> TailEnd {
    let cursor = service.epoch();
    let headers = [
        ("Accept", "text/event-stream".to_string()),
        ("Last-Event-ID", cursor.to_string()),
    ];
    let mut reader = match client::open_stream(
        leader,
        "/replication/stream",
        &headers,
        CONNECT_TIMEOUT,
        READ_TIMEOUT,
    ) {
        Ok(reader) => reader,
        Err(e) => return TailEnd::Disconnected(e.to_string()),
    };
    service.events().emit(
        EventLevel::Info,
        "replication-connect",
        format!("tailing {} from epoch {cursor}", leader.display()),
    );

    let mut parser = SseParser::new();
    let mut line = String::new();
    let mut idle_timeouts = 0u32;
    let mut was_behind = false;
    loop {
        if stop.load(Ordering::SeqCst) {
            return TailEnd::Stopped;
        }
        match reader.read_line(&mut line) {
            Ok(0) => return TailEnd::Disconnected("leader closed the stream".to_string()),
            Ok(_) if line.ends_with('\n') => {
                idle_timeouts = 0;
                let event = parser.push_line(&line);
                line.clear();
                let Some(event) = event else { continue };
                match event.name.as_str() {
                    "record" => match apply_record(service, &event.data) {
                        Ok(()) => backoff.reset(),
                        Err(ApplyOutcome::Gap) => return TailEnd::Bootstrap,
                        Err(ApplyOutcome::Fatal(e)) => return TailEnd::Disconnected(e),
                    },
                    "head" => match note_head(service, &event.data, &mut was_behind) {
                        Ok(()) => backoff.reset(),
                        Err(ApplyOutcome::Gap) => return TailEnd::Bootstrap,
                        Err(ApplyOutcome::Fatal(e)) => return TailEnd::Disconnected(e),
                    },
                    "bootstrap" => return TailEnd::Bootstrap,
                    _ => {} // future event types: ignore, stay compatible
                }
            }
            // A read can end mid-line at EOF: the partial tail is noise.
            Ok(_) => return TailEnd::Disconnected("stream truncated mid-line".to_string()),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                idle_timeouts += 1;
                if idle_timeouts >= DEAD_AFTER_TIMEOUTS {
                    return TailEnd::Disconnected(
                        "no traffic or keep-alives from the leader".to_string(),
                    );
                }
            }
            Err(e) => return TailEnd::Disconnected(e.to_string()),
        }
    }
}

/// Why an event could not be applied: a gap (bootstrap) or a terminal
/// session error (disconnect + retry).
enum ApplyOutcome {
    Gap,
    Fatal(String),
}

fn apply_record(service: &Arc<Service>, data: &str) -> Result<(), ApplyOutcome> {
    let value = json::parse(data)
        .map_err(|e| ApplyOutcome::Fatal(format!("unparseable record event: {e}")))?;
    let payload = value
        .get("payload")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ApplyOutcome::Fatal("record event without payload".to_string()))?;
    let bytes = from_hex(payload)
        .map_err(|e| ApplyOutcome::Fatal(format!("record payload is not hex: {e}")))?;
    let (record, _) = decode_record(&bytes)
        .map_err(|e| ApplyOutcome::Fatal(format!("record payload does not decode: {e}")))?;
    match service.apply_replicated(&record) {
        Ok(_) => Ok(()),
        Err(ReplicationApplyError::EpochGap { .. }) => Err(ApplyOutcome::Gap),
        // The record was not applied and local state stayed consistent:
        // retrying the same record after reconnect is safe.
        Err(ReplicationApplyError::Persist(e)) => {
            service.events().emit(
                EventLevel::Error,
                "replication-error",
                format!("local WAL append failed: {e}"),
            );
            Err(ApplyOutcome::Fatal(format!("local persistence error: {e}")))
        }
    }
}

fn note_head(
    service: &Arc<Service>,
    data: &str,
    was_behind: &mut bool,
) -> Result<(), ApplyOutcome> {
    let value = json::parse(data)
        .map_err(|e| ApplyOutcome::Fatal(format!("unparseable head event: {e}")))?;
    let leader_epoch = value
        .get("leader_epoch")
        .and_then(JsonValue::as_usize)
        .ok_or_else(|| ApplyOutcome::Fatal("head event without leader_epoch".to_string()))?
        as u64;
    let pending = value
        .get("pending")
        .and_then(JsonValue::as_usize)
        .unwrap_or(0) as u64;
    // A head behind our serving epoch means our state cannot descend from
    // this leader (e.g. a fresh follower whose locally-minted boot epoch
    // happens to be numerically large): re-seed rather than serve alien
    // data while claiming zero lag.
    if leader_epoch < service.epoch() {
        return Err(ApplyOutcome::Gap);
    }
    service.note_replication_head(leader_epoch, pending);
    let caught_up = pending == 0 && leader_epoch == service.epoch();
    if caught_up && *was_behind {
        service.events().emit(
            EventLevel::Info,
            "replication-catchup",
            format!("caught up with the leader at epoch {leader_epoch}"),
        );
    }
    *was_behind = !caught_up;
    Ok(())
}

/// Fetches and installs the leader's newest snapshot; returns its epoch.
fn bootstrap(service: &Arc<Service>, leader: &LeaderUrl) -> Result<u64, String> {
    let response = client::get(leader, "/replication/snapshot", &[], CONNECT_TIMEOUT)
        .map_err(|e| e.to_string())?;
    if response.status != 200 {
        return Err(format!(
            "leader answered {} ({})",
            response.status,
            String::from_utf8_lossy(&response.body)
        ));
    }
    // Serve the leader's version as it persisted it — index, prestige and
    // how each is kept current — so follower answers are byte-identical to
    // the leader's; the received bytes become the local checkpoint as they
    // are.
    service
        .install_replicated_snapshot_bytes(&response.body)
        .map_err(|e| format!("corrupt snapshot: {e}"))
}
