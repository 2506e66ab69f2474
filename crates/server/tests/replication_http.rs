//! Replication endpoints over real sockets.
//!
//! The wire contract a follower builds on:
//!
//! * `GET /replication/stream` ships every WAL record past the cursor as a
//!   `record` SSE event whose `id:` is the record's epoch and whose
//!   `payload` is the hex of the exact on-disk record bytes (CRC framing
//!   included) — [`banks_service::decode_record`] round-trips them;
//! * `Last-Event-ID` resumes past what was already delivered;
//! * the first frame is a `head`, sent at once, and the stream is woken by
//!   each publish: under concurrent writers and a checkpoint every epoch
//!   past the cursor arrives exactly once, in order, and an idle stream
//!   reads nothing;
//! * a failed WAL read is an `error`-level event before the stream closes,
//!   and `Server::shutdown` closes attached streams instead of waiting for
//!   their peers;
//! * a cursor behind the WAL truncation horizon gets a terminal
//!   `bootstrap` event instead of records;
//! * `GET /replication/snapshot` serves the newest snapshot verbatim with
//!   its epoch in `X-Banks-Snapshot-Epoch`;
//! * a follower-role server 409s `POST /admin/mutate` and points the
//!   `Location` header at the leader;
//! * `POST /admin/slo` replaces or upserts SLO specs at runtime.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use banks_core::sse::{self, SseEvent};
use banks_graph::{DataGraph, GraphBuilder, MutationBatch, NodeId};
use banks_server::json::JsonValue;
use banks_server::Server;
use banks_service::{decode_record, FsyncPolicy, ReplicationRole, Service};

mod common;
use common::{body_of, error_code, get, header_of, post, status_of};

/// writes -> {author, paper}, padded with filler nodes so a couple of
/// small mutation batches stay far below the compaction overlay ratio —
/// the WAL keeps every record and the stream contents are deterministic.
fn padded_graph() -> DataGraph {
    let mut b = GraphBuilder::new();
    let a = b.add_node("author", "Jim Gray");
    let p = b.add_node("paper", "Granularity of locks");
    let w = b.add_node("writes", "w0");
    b.add_edge(w, a).unwrap();
    b.add_edge(w, p).unwrap();
    for i in 0..40 {
        b.add_node("filler", format!("filler {i}"));
    }
    b.build_default()
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "banks-server-repl-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ))
}

/// A raw client on `GET /replication/stream`, handing frames out as they
/// arrive.
struct Tail {
    conn: TcpStream,
    raw: Vec<u8>,
    /// Bytes of `raw` already parsed into frames (0: header not seen yet).
    parsed: usize,
}

impl Tail {
    fn open(addr: std::net::SocketAddr, cursor: Option<u64>) -> Tail {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let resume = cursor.map_or_else(String::new, |id| format!("Last-Event-ID: {id}\r\n"));
        conn.write_all(
            format!("GET /replication/stream HTTP/1.1\r\nHost: t\r\n{resume}\r\n").as_bytes(),
        )
        .expect("send request");
        Tail {
            conn,
            raw: Vec::new(),
            parsed: 0,
        }
    }

    /// The complete frames that arrived since the last call, after at most
    /// one read-timeout of waiting; `None` once the server closed the
    /// stream and everything was handed out.
    fn poll(&mut self) -> Option<Vec<SseEvent>> {
        let mut buf = [0u8; 64 << 10];
        let arrived = self.raw.len();
        let eof = match self.conn.read(&mut buf) {
            Ok(0) => true,
            Ok(n) => {
                self.raw.extend_from_slice(&buf[..n]);
                false
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                false
            }
            Err(e) => panic!("stream read failed: {e}"),
        };
        if self.parsed == 0 {
            if let Some(end) = self.raw.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&self.raw[..end]);
                assert!(head.contains("text/event-stream"), "head: {head}");
                self.parsed = end + 4;
            }
        }
        let mut frames = Vec::new();
        // A frame ends at a blank line; only what just arrived can hold one.
        let from = self.parsed.max(arrived.saturating_sub(1));
        if self.parsed > 0 {
            if let Some(end) = self.raw[from..].windows(2).rposition(|w| w == b"\n\n") {
                let end = from + end + 2;
                let fresh = std::str::from_utf8(&self.raw[self.parsed..end]).expect("utf-8");
                frames = sse::parse(fresh);
                self.parsed = end;
            }
        }
        (!eof || !frames.is_empty()).then_some(frames)
    }

    /// Polls until `done` holds for the frames gathered so far, the server
    /// closes the stream or `deadline` passes.
    fn read_until(
        &mut self,
        deadline: Duration,
        done: impl Fn(&[SseEvent]) -> bool,
    ) -> Vec<SseEvent> {
        let start = Instant::now();
        let mut frames = Vec::new();
        while !done(&frames) && start.elapsed() < deadline {
            match self.poll() {
                Some(fresh) => frames.extend(fresh),
                None => break,
            }
        }
        frames
    }
}

fn is(frame: &SseEvent, name: &str) -> bool {
    frame.name == name
}

fn field(frame: &SseEvent, name: &str) -> u64 {
    // A record's payload comes last and can be large: leave it unparsed.
    let head = match frame.data.split_once(",\"payload\":") {
        Some((head, _)) => format!("{head}}}"),
        None => frame.data.clone(),
    };
    banks_server::json::parse(&head)
        .unwrap()
        .get(name)
        .and_then(JsonValue::as_usize)
        .unwrap_or_else(|| panic!("no {name} in {frame:?}")) as u64
}

/// Opens the replication stream at `cursor` and reads until `want`
/// `record` frames arrived or the deadline passed.
fn read_stream(
    addr: std::net::SocketAddr,
    cursor: Option<u64>,
    want: usize,
    deadline: Duration,
) -> Vec<SseEvent> {
    Tail::open(addr, cursor).read_until(deadline, |frames| {
        frames.iter().filter(|f| is(f, "record")).count() >= want
            || frames.iter().any(|f| is(f, "bootstrap"))
    })
}

fn durable_leader(dir: &std::path::Path, graph: DataGraph, fsync: FsyncPolicy) -> Arc<Service> {
    let service = Arc::new(
        Service::builder(graph)
            .workers(1)
            .persistence(dir, fsync)
            .build(),
    );
    service.checkpoint().unwrap();
    service
}

#[test]
fn stream_ships_wal_records_that_decode_and_resume() {
    let dir = tmp_dir("stream");
    let service = Arc::new(
        Service::builder(padded_graph())
            .workers(1)
            .persistence(&dir, FsyncPolicy::Always)
            .build(),
    );
    service.checkpoint().unwrap();
    let base = service.durability().last_checkpoint_epoch;
    let server = Server::builder(Arc::clone(&service)).spawn().unwrap();
    let addr = server.local_addr();

    let batches = [
        MutationBatch::new().add_node("paper", "Keyword search in databases"),
        MutationBatch::new().set_label(NodeId(1), "Granularity of locks, 2nd ed"),
    ];
    for batch in &batches {
        let report = service.apply_mutations(batch);
        assert!(report.swapped, "mutation must apply: {report:?}");
    }

    let frames = read_stream(addr, Some(base), 2, Duration::from_secs(5));
    let records: Vec<&SseEvent> = frames.iter().filter(|f| is(f, "record")).collect();
    assert_eq!(records.len(), 2, "frames: {frames:?}");

    // Exactly one head frame precedes the batch — it doubles as the
    // stream's opening head — and reports how far behind we are.
    assert!(is(&frames[0], "head"), "frames: {frames:?}");
    assert!(is(&frames[1], "record"), "frames: {frames:?}");
    let head_json = banks_server::json::parse(&frames[0].data).unwrap();
    assert_eq!(
        head_json.get("pending").and_then(JsonValue::as_usize),
        Some(2)
    );
    assert!(head_json.get("leader_epoch").is_some());
    assert!(head_json.get("checkpoint_epoch").is_some());

    // Record payloads are the exact WAL bytes: they decode, their epochs
    // chain from the checkpoint, and the SSE id mirrors the epoch.
    let mut parent = base;
    for frame in &records {
        let data = banks_server::json::parse(&frame.data).unwrap();
        let epoch = data.get("epoch").and_then(JsonValue::as_usize).unwrap() as u64;
        assert_eq!(frame.id, Some(epoch), "id: must carry the record epoch");
        let payload = data.get("payload").and_then(|p| p.as_str()).unwrap();
        let (record, _) = decode_record(&sse::from_hex(payload).unwrap()).expect("payload decodes");
        assert_eq!(record.epoch, epoch);
        assert_eq!(record.parent_epoch, parent);
        parent = epoch;
    }
    assert_eq!(parent, service.epoch());

    // Resuming from the first record's epoch delivers only the second.
    let first_epoch = records[0].id.unwrap();
    let frames = read_stream(addr, Some(first_epoch), 1, Duration::from_secs(5));
    let resumed: Vec<&SseEvent> = frames.iter().filter(|f| is(f, "record")).collect();
    assert_eq!(resumed.len(), 1, "frames: {frames:?}");
    assert_eq!(resumed[0].id, records[1].id);

    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_cursor_behind_the_checkpoint_gets_a_bootstrap_order() {
    let dir = tmp_dir("boot");
    let service = Arc::new(
        Service::builder(padded_graph())
            .workers(1)
            .persistence(&dir, FsyncPolicy::Always)
            .build(),
    );
    service.checkpoint().unwrap();
    let checkpoint = service.durability().last_checkpoint_epoch;
    assert!(checkpoint > 0);
    let server = Server::builder(Arc::clone(&service)).spawn().unwrap();

    // Cursor 0 predates the truncation horizon: the stream's only frame
    // is the bootstrap order, and the connection closes after it.
    let frames = read_stream(
        server.local_addr(),
        None,
        usize::MAX,
        Duration::from_secs(5),
    );
    assert_eq!(frames.len(), 1, "frames: {frames:?}");
    assert_eq!(frames[0].name, "bootstrap");
    let data = banks_server::json::parse(&frames[0].data).unwrap();
    assert_eq!(
        data.get("checkpoint_epoch").and_then(JsonValue::as_usize),
        Some(checkpoint as usize)
    );
    assert!(data.get("leader_epoch").is_some());

    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_caught_up_cursor_gets_a_head_at_once() {
    let dir = tmp_dir("greet");
    let service = durable_leader(&dir, padded_graph(), FsyncPolicy::Always);
    let server = Server::builder(Arc::clone(&service)).spawn().unwrap();

    // Nothing is pending and nothing will be published: the head is the
    // stream's greeting, not the once-a-second idle announcement.  A
    // follower whose epoch is not of this leader's line re-seeds on it.
    let connected = Instant::now();
    let frames = Tail::open(server.local_addr(), Some(service.epoch()))
        .read_until(Duration::from_secs(5), |frames| !frames.is_empty());
    let waited = connected.elapsed();
    assert!(is(&frames[0], "head"), "frames: {frames:?}");
    assert_eq!(field(&frames[0], "leader_epoch"), service.epoch());
    assert_eq!(field(&frames[0], "pending"), 0);
    assert!(
        waited < Duration::from_millis(250),
        "first head after {waited:?}"
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// What a follower tailing from a cursor comes to hold: it applies
/// `record`s, and on a `bootstrap` order re-seeds at the ordered checkpoint
/// and reconnects there.
struct FollowerTail {
    addr: std::net::SocketAddr,
    cursor: u64,
    held: u64,
    /// `(parent_epoch, epoch)` of every record, in arrival order.
    records: Vec<(u64, u64)>,
    /// `(held, checkpoint_epoch)` of every bootstrap order.
    reseeds: Vec<(u64, u64)>,
    tail: Tail,
}

impl FollowerTail {
    fn open(addr: std::net::SocketAddr, cursor: u64) -> FollowerTail {
        FollowerTail {
            addr,
            cursor,
            held: cursor,
            records: Vec::new(),
            reseeds: Vec::new(),
            tail: Tail::open(addr, Some(cursor)),
        }
    }

    /// Applies whatever one poll of the stream brings.
    fn advance(&mut self) {
        for frame in self.tail.poll().expect("only shutdown ends a stream") {
            if is(&frame, "record") {
                let epoch = field(&frame, "epoch");
                assert_eq!(frame.id, Some(epoch));
                self.records.push((field(&frame, "parent_epoch"), epoch));
                self.held = epoch;
            } else if is(&frame, "bootstrap") {
                let checkpoint = field(&frame, "checkpoint_epoch");
                self.reseeds.push((self.held, checkpoint));
                self.held = checkpoint;
                self.tail = Tail::open(self.addr, Some(checkpoint));
                break;
            }
        }
    }

    /// The records chain from the cursor to `leader_epoch` through
    /// `chain`, the leader's own `(parent, epoch)` history: no gap, no
    /// duplicate, and no jump but a bootstrap order to a later checkpoint.
    fn assert_chained(&self, chain: &[(u64, u64)], leader_epoch: u64) {
        let mut held = self.cursor;
        let mut reseeds = self.reseeds.iter();
        for &(parent, epoch) in &self.records {
            if parent != held {
                let &(from, checkpoint) = reseeds.next().expect("a jump needs a bootstrap order");
                assert_eq!(from, held, "ordered to re-seed from an epoch never held");
                assert!(checkpoint > held, "re-seeded backwards");
                held = checkpoint;
            }
            assert_eq!(parent, held, "gap or duplicate at {epoch}");
            assert!(
                chain.contains(&(parent, epoch)),
                "not the leader's: {epoch}"
            );
            held = epoch;
        }
        // An order nothing followed re-seeded at the end of the chain.
        if let Some(&(_, checkpoint)) = reseeds.next() {
            held = checkpoint;
        }
        assert!(reseeds.next().is_none());
        assert_eq!(held, leader_epoch, "stopped short of the leader");
    }
}

/// Two writers race each other — and, once, a checkpoint — under one
/// stream that tails from the start and one that joins half-way.  Whatever
/// the interleaving, a stream delivers the leader's epochs past its cursor
/// exactly once and in order; the only permitted jump is a `bootstrap`
/// order to a checkpoint that overtook it.  The writers go in rounds and a
/// round starts only when both streams hold everything published so far,
/// so every round's last publish is one nobody follows up: slept through
/// (its wake-up lost between the handler's read and its wait — a long
/// moment after a large record), it would never be delivered — the
/// keep-alive timer re-reads nothing.
#[test]
fn every_epoch_arrives_once_and_in_order_under_writers_and_a_checkpoint() {
    use std::sync::mpsc::channel;
    const ROUNDS: usize = 100;
    const PER_ROUND: usize = 2;

    let dir = tmp_dir("order");
    let mut graph = GraphBuilder::new();
    for i in 0..2_000 {
        graph.add_node("filler", format!("filler {i}"));
    }
    let service = durable_leader(&dir, graph.build_default(), FsyncPolicy::Never);
    let server = Server::builder(Arc::clone(&service)).spawn().unwrap();
    let addr = server.local_addr();

    let mut chain: Vec<(u64, u64)> = Vec::new();
    let mut tails = vec![FollowerTail::open(addr, service.epoch())];
    std::thread::scope(|scope| {
        let (done, rounds_done) = channel();
        // A writer applies a round's batches each time it is told to; a
        // failure on either side hangs up the channels instead of the test.
        let writers: Vec<_> = (0..2)
            .map(|writer| {
                let (go, rounds) = channel::<usize>();
                let (service, done) = (&service, done.clone());
                scope.spawn(move || {
                    for round in rounds {
                        for i in 0..PER_ROUND {
                            let label = format!("{writer}/{round}/{i}");
                            let mut batch = MutationBatch::new().add_node("paper", label);
                            // One record a round keeps the handlers busy
                            // encoding while the other writer publishes.
                            if (writer, i) == (0, PER_ROUND - 1) {
                                for node in 0..16 {
                                    batch = batch.set_label(NodeId(node), "x".repeat(2 << 10));
                                }
                            }
                            let report = service.apply_mutations(&batch);
                            assert!(report.swapped, "{report:?}");
                            done.send((report.previous_epoch, report.epoch)).unwrap();
                            if (round, writer, i) == (ROUNDS / 2, 1, 0) {
                                let response = post(addr, "/admin/checkpoint", "");
                                assert_eq!(status_of(&response), 200, "{response}");
                            }
                        }
                    }
                });
                go
            })
            .collect();
        for round in 0..ROUNDS {
            if round == ROUNDS / 2 {
                tails.push(FollowerTail::open(addr, service.epoch()));
            }
            for go in &writers {
                go.send(round).unwrap();
            }
            for _ in 0..2 * PER_ROUND {
                chain.push(rounds_done.recv().expect("a writer failed"));
            }
            let published = service.epoch();
            let waiting = Instant::now();
            for tail in &mut tails {
                while tail.held != published {
                    assert!(
                        waiting.elapsed() < Duration::from_secs(10),
                        "round {round}: epoch {published} published, a stream holds {}",
                        tail.held
                    );
                    tail.advance();
                }
            }
        }
    });
    // Epochs are minted in application order.
    chain.sort_unstable_by_key(|&(_, epoch)| epoch);
    assert_eq!(chain.len(), 2 * ROUNDS * PER_ROUND);
    assert!(chain.windows(2).all(|w| w[0].1 == w[1].0), "writers chain");
    for tail in &tails {
        tail.assert_chained(&chain, service.epoch());
    }

    // Caught up and idle: the keep-alive head still comes, and no stream
    // touches the WAL file for it.
    let reads = service.durability().wal_reads;
    let frames = tails[1].tail.read_until(Duration::from_secs(5), |frames| {
        frames.iter().any(|f| is(f, "head"))
    });
    let head = frames.iter().find(|f| is(f, "head")).expect("idle head");
    assert_eq!(field(head, "pending"), 0);
    assert_eq!(field(head, "leader_epoch"), service.epoch());
    assert_eq!(service.durability().wal_reads, reads);

    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_failed_wal_read_is_an_error_event_before_the_stream_closes() {
    let dir = tmp_dir("broken");
    let service = durable_leader(&dir, padded_graph(), FsyncPolicy::Always);
    let base = service.epoch();
    let server = Server::builder(Arc::clone(&service)).spawn().unwrap();
    let addr = server.local_addr();
    assert!(
        service
            .apply_mutations(&MutationBatch::new().add_node("paper", "unreadable"))
            .swapped
    );
    // The disk lies: the log no longer opens with a WAL header.
    let wal = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes[..8].copy_from_slice(b"NOTAWAL!");
    std::fs::write(&wal, &bytes).unwrap();

    let frames = Tail::open(addr, Some(base)).read_until(Duration::from_secs(5), |_| false);
    assert!(frames.is_empty(), "nothing readable to ship: {frames:?}");

    let page = banks_server::json::parse(body_of(&get(addr, "/debug/events"))).unwrap();
    let Some(JsonValue::Array(events)) = page.get("events") else {
        panic!("no events in {page:?}");
    };
    let text = |e: &JsonValue, k: &str| e.get(k).and_then(|v| v.as_str()).map(str::to_string);
    let error = events
        .iter()
        .find(|e| text(e, "kind").as_deref() == Some("replication-error"))
        .unwrap_or_else(|| panic!("no replication-error among {events:?}"));
    assert_eq!(text(error, "level").as_deref(), Some("error"));
    assert!(
        text(error, "message").unwrap().contains("bad magic"),
        "the event names the PersistError: {error:?}"
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shutdown_closes_an_attached_replication_stream() {
    let dir = tmp_dir("shutdown");
    let service = durable_leader(&dir, padded_graph(), FsyncPolicy::Always);
    let server = Server::builder(Arc::clone(&service)).spawn().unwrap();
    let mut tail = Tail::open(server.local_addr(), Some(service.epoch()));
    let greeting = tail.read_until(Duration::from_secs(5), |frames| !frames.is_empty());
    assert!(is(&greeting[0], "head"), "attached: {greeting:?}");

    // The peer stays; the handler must not wait for it to leave.
    let asked = Instant::now();
    server.shutdown();
    let took = asked.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    let rest = tail.read_until(Duration::from_secs(5), |_| false);
    assert!(tail.poll().is_none(), "the client reads EOF");
    assert!(rest.iter().all(|f| is(f, "head")), "rest: {rest:?}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_endpoint_serves_the_newest_snapshot_verbatim() {
    let dir = tmp_dir("snap");
    let service = Arc::new(
        Service::builder(padded_graph())
            .workers(1)
            .persistence(&dir, FsyncPolicy::Always)
            .build(),
    );
    service.checkpoint().unwrap();
    let epoch = service.durability().last_checkpoint_epoch;
    let server = Server::builder(Arc::clone(&service)).spawn().unwrap();
    let addr = server.local_addr();

    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(b"GET /replication/snapshot HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut response = Vec::new();
    conn.read_to_end(&mut response).unwrap();
    let head_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header split");
    let head = String::from_utf8_lossy(&response[..head_end]).into_owned();
    assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
    assert!(
        head.to_ascii_lowercase()
            .contains("content-type: application/octet-stream"),
        "head: {head}"
    );
    assert_eq!(
        header_of(&head, "X-Banks-Snapshot-Epoch"),
        Some(epoch.to_string()).as_deref()
    );

    // The body is the snapshot file byte for byte.
    let body = &response[head_end + 4..];
    let (snap_epoch, path) = service.newest_snapshot_file().unwrap().expect("snapshot");
    assert_eq!(snap_epoch, epoch);
    assert_eq!(body, std::fs::read(path).unwrap().as_slice());

    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn replication_routes_409_without_persistence() {
    let service = Arc::new(Service::builder(padded_graph()).workers(1).build());
    let server = Server::builder(service).spawn().unwrap();
    let addr = server.local_addr();
    for path in ["/replication/stream", "/replication/snapshot"] {
        let response = get(addr, path);
        assert_eq!(status_of(&response), 409, "{path}: {response}");
        assert_eq!(error_code(&response), "persistence_disabled", "{path}");
    }
    // Wrong methods follow the 405 convention.
    for path in ["/replication/stream", "/replication/snapshot"] {
        let response = post(addr, path, "");
        assert_eq!(status_of(&response), 405, "{path}");
    }
    server.shutdown();
}

#[test]
fn a_follower_rejects_mutations_and_points_at_the_leader() {
    let service = Arc::new(Service::builder(padded_graph()).workers(1).build());
    service.set_replication_role(ReplicationRole::Follower);
    let server = Server::builder(Arc::clone(&service))
        .leader_url("http://leader.example:7878/")
        .spawn()
        .unwrap();
    let addr = server.local_addr();

    let body = r#"{"ops":[{"op":"add_node","kind":"author","label":"nope"}]}"#;
    let response = post(addr, "/admin/mutate", body);
    assert_eq!(status_of(&response), 409, "{response}");
    assert_eq!(error_code(&response), "not_leader");
    assert_eq!(
        header_of(&response, "Location"),
        Some("http://leader.example:7878/admin/mutate")
    );

    // Reads still work: a follower is a serving replica, not a mirror.
    let healthz = get(addr, "/healthz");
    assert_eq!(status_of(&healthz), 200);
    let v = banks_server::json::parse(body_of(&healthz)).unwrap();
    let replication = v.get("replication").expect("replication in healthz");
    assert_eq!(
        replication.get("role").and_then(|r| r.as_str()),
        Some("follower")
    );

    server.shutdown();
}

#[test]
fn admin_slo_replaces_and_upserts_specs_at_runtime() {
    let service = Arc::new(Service::builder(padded_graph()).workers(1).build());
    let baseline = service.slo_specs().len();
    assert!(baseline > 0, "defaults expected");
    let server = Server::builder(Arc::clone(&service)).spawn().unwrap();
    let addr = server.local_addr();

    // A single spec object upserts without disturbing the others.
    let one = r#"{"name":"replication_lag","metric":"replication_lag_ms","threshold":2500.0}"#;
    let response = post(addr, "/admin/slo", one);
    assert_eq!(status_of(&response), 200, "{response}");
    let v = banks_server::json::parse(body_of(&response)).unwrap();
    assert_eq!(
        v.get("upserted").and_then(|u| u.as_str()),
        Some("replication_lag")
    );
    assert_eq!(service.slo_specs().len(), baseline + 1);
    assert!(service
        .slo_specs()
        .iter()
        .any(|s| s.name == "replication_lag" && s.threshold == 2500.0));

    // A {"slos":[...]} body replaces the whole set.
    let replace =
        r#"{"slos":[{"name":"lag_only","metric":"replication_lag_ms","threshold":1000.0}]}"#;
    let response = post(addr, "/admin/slo", replace);
    assert_eq!(status_of(&response), 200, "{response}");
    let v = banks_server::json::parse(body_of(&response)).unwrap();
    assert_eq!(v.get("replaced").and_then(JsonValue::as_usize), Some(1));
    assert_eq!(service.slo_specs().len(), 1);
    assert_eq!(service.slo_specs()[0].name, "lag_only");

    // Malformed specs are rejected without touching the live set.
    let response = post(addr, "/admin/slo", r#"{"name":"broken"}"#);
    assert_eq!(status_of(&response), 400, "{response}");
    assert_eq!(error_code(&response), "invalid_slo_spec");
    assert_eq!(service.slo_specs().len(), 1);

    let response = post(addr, "/admin/slo", "not json");
    assert_eq!(status_of(&response), 400);

    // Wrong method follows the 405 convention.
    let response = get(addr, "/admin/slo");
    assert_eq!(status_of(&response), 405);

    server.shutdown();
}
