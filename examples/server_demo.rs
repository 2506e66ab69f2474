//! HTTP serving demo: the full front-end over a synthetic DBLP corpus.
//!
//! ```text
//! cargo run --release --example server_demo            # workload demo
//! cargo run --release --example server_demo -- --serve 127.0.0.1:7878
//! cargo run --release --example server_demo -- --serve 127.0.0.1:7878 --data-dir ./banks-data
//! cargo run --release --example server_demo -- --serve 127.0.0.1:7879 \
//!     --data-dir ./replica-data --replicate-from http://127.0.0.1:7878
//! ```
//!
//! The default mode boots a [`Server`] on a loopback port, fires a
//! multi-tenant HTTP workload at it (three tenants with different priority
//! classes, plus a scraper that blows through its admission quota), swaps
//! the served graph mid-workload via `POST /admin/swap`, and prints QPS,
//! the cache hit rate, client-observed TTFA percentiles and the per-tenant
//! metrics rows.
//!
//! `--serve [addr]` just serves until killed — the mode CI's smoke step
//! (and any curl exploration) uses.  Adding `--data-dir <dir>` makes the
//! served graph durable: every accepted `POST /admin/mutate` batch is
//! WAL-logged before it is acknowledged, `POST /admin/checkpoint` forces a
//! snapshot, and a restart (even after `kill -9`) recovers the pre-crash
//! graph from the directory instead of regenerating the corpus.
//! `--replicate-from <url>` runs this process as a **read replica** of the
//! leader at `<url>`: it bootstraps from the leader's snapshot, tails the
//! leader's mutation WAL over SSE, serves reads at the replicated epoch,
//! and answers `POST /admin/mutate` with `409` + a `Location` header
//! pointing at the leader.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use banks::prelude::*;

fn dblp_service() -> Service {
    let data = DblpDataset::generate(DblpConfig {
        num_authors: 600,
        num_papers: 1200,
        num_conferences: 8,
        seed: 11,
        ..DblpConfig::default()
    });
    Service::builder(data.dataset.graph().clone())
        .workers(4)
        .queue_capacity(1024)
        .cache_capacity(256)
        .tenant_quota(25.0, 40)
        .index(data.dataset.index().clone())
        .build()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--serve") {
        let addr = args
            .get(2)
            .filter(|a| !a.starts_with("--"))
            .map(String::as_str)
            .unwrap_or("127.0.0.1:7878");
        let data_dir = args
            .iter()
            .position(|a| a == "--data-dir")
            .and_then(|i| args.get(i + 1))
            .cloned();
        let replicate_from = args
            .iter()
            .position(|a| a == "--replicate-from")
            .and_then(|i| args.get(i + 1))
            .cloned();
        serve_forever(addr, data_dir, replicate_from);
        return;
    }
    workload_demo();
}

/// `--serve`: boot and block (CI smoke / manual curl exploration).  With
/// `--data-dir`, the service recovers whatever the directory holds (the
/// generated corpus only seeds an empty directory), uses the default
/// label index so recovery needs nothing beyond the graph, and fsyncs
/// every mutation before acknowledging it.
fn serve_forever(addr: &str, data_dir: Option<String>, leader: Option<String>) {
    let service = match &data_dir {
        Some(dir) => {
            let data = DblpDataset::generate(DblpConfig {
                num_authors: 600,
                num_papers: 1200,
                num_conferences: 8,
                seed: 11,
                ..DblpConfig::default()
            });
            let service = Service::builder(data.dataset.graph().clone())
                .workers(4)
                .queue_capacity(1024)
                .cache_capacity(256)
                .tenant_quota(25.0, 40)
                .persistence(dir, FsyncPolicy::Always)
                .build();
            let durability = service.durability();
            println!(
                "durable mode: data dir {dir}, recovered epoch {}, {} WAL record(s) replayed",
                service.epoch(),
                durability.replayed_records,
            );
            service
        }
        None => dblp_service(),
    };
    let service = Arc::new(service);
    // A follower tails the leader's WAL and refuses writes; a durable
    // standalone process declares itself the leader so replicas (and the
    // metrics role gauge) can identify it.
    let _follower = match &leader {
        Some(url) => {
            let follower = Follower::start(Arc::clone(&service), url)
                .unwrap_or_else(|e| panic!("bad --replicate-from: {e}"));
            println!("replica mode: tailing leader at {}", follower.leader());
            Some(follower)
        }
        None => {
            if data_dir.is_some() {
                service.set_replication_role(ReplicationRole::Leader);
            }
            None
        }
    };
    let mut builder = Server::builder(service);
    if let Some(url) = &leader {
        builder = builder.leader_url(url.clone());
    }
    let server = builder
        .addr(addr)
        .graph_source(|| {
            let data = DblpDataset::generate(DblpConfig {
                num_authors: 600,
                num_papers: 1200,
                num_conferences: 8,
                seed: 11,
                ..DblpConfig::default()
            });
            GraphSnapshot::new(
                data.dataset.graph().clone(),
                PrestigeVector::uniform_for(data.dataset.graph()),
                data.dataset.index().clone(),
            )
        })
        .spawn()
        .expect("bind server");
    println!("serving on http://{}", server.local_addr());
    println!("  curl http://{}/healthz", server.local_addr());
    println!(
        "  curl -N -X POST http://{}/query -d '{{\"q\":\"database query\",\"top_k\":5}}'",
        server.local_addr()
    );
    println!("  curl http://{}/debug/slo", server.local_addr());
    println!(
        "  curl 'http://{}/debug/events?since=0'",
        server.local_addr()
    );
    println!("  curl -N http://{}/debug/events/tail", server.local_addr());
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// One HTTP query round-trip: returns (status, answers seen, client TTFA).
fn http_query(
    addr: SocketAddr,
    body: &str,
    tenant: &str,
    priority: &str,
) -> (u16, usize, Option<Duration>) {
    let started = Instant::now();
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(
        format!(
            "POST /query HTTP/1.1\r\nHost: demo\r\nX-Banks-Tenant: {tenant}\r\n\
             X-Banks-Priority: {priority}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .expect("send request");

    let mut reader = BufReader::new(conn);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let mut answers = 0usize;
    let mut ttfa = None;
    let mut line = String::new();
    while reader.read_line(&mut line).unwrap_or(0) > 0 {
        if line.starts_with("event: answer") {
            ttfa.get_or_insert_with(|| started.elapsed());
            answers += 1;
        }
        line.clear();
    }
    (status, answers, ttfa)
}

fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: demo\r\n\r\n").as_bytes())
        .expect("send");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("read");
    response
}

fn workload_demo() {
    let data = DblpDataset::generate(DblpConfig {
        num_authors: 600,
        num_papers: 1200,
        num_conferences: 8,
        seed: 11,
        ..DblpConfig::default()
    });
    println!(
        "dblp graph: {} nodes, {} directed edges",
        data.dataset.graph().num_nodes(),
        data.dataset.graph().num_directed_edges()
    );

    let service = Arc::new(
        Service::builder(data.dataset.graph().clone())
            .workers(4)
            .queue_capacity(1024)
            .cache_capacity(256)
            .tenant_quota(25.0, 40)
            .index(data.dataset.index().clone())
            .build(),
    );
    let server = Server::builder(Arc::clone(&service))
        .graph_source(move || {
            // "reindex": rebuild the same corpus — fresh epoch, cold cache
            let data = DblpDataset::generate(DblpConfig {
                num_authors: 600,
                num_papers: 1200,
                num_conferences: 8,
                seed: 11,
                ..DblpConfig::default()
            });
            GraphSnapshot::new(
                data.dataset.graph().clone(),
                PrestigeVector::uniform_for(data.dataset.graph()),
                data.dataset.index().clone(),
            )
        })
        .spawn()
        .expect("bind server");
    let addr = server.local_addr();
    println!("serving on http://{addr}\n");

    // Three tenants, three priority classes, mixed keyword skew; every
    // tenant re-asks half its queries so the cache has something to do.
    let mut generator = WorkloadGenerator::new(&data, 42);
    let tenants: Vec<(&str, &str, banks::datagen::OriginBias)> = vec![
        ("ui", "interactive", banks::datagen::OriginBias::Rare),
        ("dashboard", "normal", banks::datagen::OriginBias::Any),
        ("analytics", "batch", banks::datagen::OriginBias::Frequent),
    ];
    let mut threads = Vec::new();
    let started = Instant::now();
    for (tenant, priority, bias) in tenants {
        let cases = generator.generate(&WorkloadConfig {
            num_queries: 16,
            num_keywords: 2,
            answer_size: 5,
            origin_bias: bias,
            compute_ground_truth: false,
            ..WorkloadConfig::default()
        });
        threads.push(std::thread::spawn(move || {
            let mut ttfa = Vec::new();
            let mut served = 0usize;
            let mut answers = 0usize;
            // two waves: the second re-asks half of the first (cache food)
            let repeats: Vec<_> = cases.iter().step_by(2).cloned().collect();
            for case in cases.iter().chain(&repeats) {
                let keywords: Vec<String> = case
                    .keywords
                    .iter()
                    .map(|k| format!("\"{}\"", k.replace(['\\', '"'], "")))
                    .collect();
                let body = format!("{{\"keywords\":[{}],\"top_k\":5}}", keywords.join(","));
                let (status, n, t) = http_query(addr, &body, tenant, priority);
                assert_eq!(status, 200, "tenant {tenant} query failed");
                served += 1;
                answers += n;
                if let Some(t) = t {
                    ttfa.push(t);
                }
            }
            (tenant, served, answers, ttfa)
        }));
    }

    // Mid-workload: swap the served snapshot while the tenants hammer away.
    std::thread::sleep(Duration::from_millis(80));
    let epoch_before = service.epoch();
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(b"POST /admin/swap HTTP/1.1\r\nHost: demo\r\n\r\n")
        .expect("send swap");
    let mut swap_response = String::new();
    conn.read_to_string(&mut swap_response).expect("read swap");
    println!(
        "mid-workload swap: epoch {} -> {} ({})",
        epoch_before,
        service.epoch(),
        swap_response.lines().last().unwrap_or("?")
    );

    // Incremental ingest while the workload runs: POST /admin/mutate lands
    // a fresh author + paper as a delta (no rebuild), the epoch advances,
    // and the new labels are immediately searchable.
    let epoch_before_mutate = service.epoch();
    let base = service.snapshot().graph().num_nodes() as u32;
    let mutate_body = format!(
        "{{\"ops\":[\
         {{\"op\":\"add_node\",\"kind\":\"author\",\"label\":\"Ada Lovelace\"}},\
         {{\"op\":\"add_node\",\"kind\":\"paper\",\"label\":\"Notes on the analytical engine\"}},\
         {{\"op\":\"add_node\",\"kind\":\"writes\",\"label\":\"w-ingest\"}},\
         {{\"op\":\"add_edge\",\"from\":{w},\"to\":{a}}},\
         {{\"op\":\"add_edge\",\"from\":{w},\"to\":{p}}}]}}",
        a = base,
        p = base + 1,
        w = base + 2,
    );
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(
        format!(
            "POST /admin/mutate HTTP/1.1\r\nHost: demo\r\nContent-Length: {}\r\n\r\n{mutate_body}",
            mutate_body.len()
        )
        .as_bytes(),
    )
    .expect("send mutate");
    let mut mutate_response = String::new();
    conn.read_to_string(&mut mutate_response)
        .expect("read mutate");
    assert!(
        mutate_response.contains("\"swapped\":true") && mutate_response.contains("\"accepted\":5"),
        "mutation must apply: {mutate_response}"
    );
    println!(
        "mid-workload mutate: epoch {} -> {} ({})",
        epoch_before_mutate,
        service.epoch(),
        mutate_response.lines().last().unwrap_or("?")
    );
    let (status, answers, _) = http_query(
        addr,
        "{\"q\":\"\\\"analytical engine\\\"\",\"top_k\":3}",
        "ui",
        "interactive",
    );
    assert_eq!(status, 200, "mutated data must be queryable");
    assert!(answers >= 1, "the ingested paper must answer");
    println!("  ingested paper answers queries: {answers} answer(s) streamed");

    // A scraper with no manners: bursts past its 40-token bucket and
    // collects 429s with Retry-After hints.
    let mut scraper_429 = 0usize;
    let mut scraper_ok = 0usize;
    for _ in 0..60 {
        let (status, _, _) =
            http_query(addr, "{\"q\":\"database\",\"top_k\":3}", "scraper", "batch");
        match status {
            200 => scraper_ok += 1,
            429 => scraper_429 += 1,
            other => panic!("unexpected scraper status {other}"),
        }
    }

    let mut all_ttfa = Vec::new();
    let mut total_served = 0usize;
    let mut total_answers = 0usize;
    for thread in threads {
        let (tenant, served, answers, ttfa) = thread.join().expect("tenant thread");
        println!("tenant {tenant:<10} served {served:>3} queries, {answers:>4} answers streamed");
        total_served += served;
        total_answers += answers;
        all_ttfa.extend(ttfa);
    }
    let elapsed = started.elapsed();
    println!("scraper: {scraper_ok} admitted, {scraper_429} rejected with 429 + Retry-After");

    let metrics = service.metrics();
    println!("\nserved {total_served} streamed queries in {elapsed:.2?}");
    println!(
        "  QPS              {:.0}",
        total_served as f64 / elapsed.as_secs_f64()
    );
    println!("  answers          {total_answers}");
    println!(
        "  cache hit rate   {:.1}% ({} of {})",
        100.0 * metrics.cache_hit_rate(),
        metrics.cache_hits,
        metrics.submitted
    );
    println!("  quota rejected   {}", metrics.quota_rejected);
    println!(
        "  swaps            {} (serving epoch {})",
        metrics.swaps, metrics.epoch
    );
    all_ttfa.sort_unstable();
    if !all_ttfa.is_empty() {
        let pct = |p: f64| all_ttfa[((all_ttfa.len() - 1) as f64 * p) as usize];
        println!(
            "  client TTFA      p50 {:?}  p90 {:?}  p99 {:?}",
            pct(0.50),
            pct(0.90),
            pct(0.99)
        );
    }
    println!("\nper-tenant rows (from the service; also at GET /metrics):");
    for row in &metrics.tenants {
        println!(
            "  {:<10} executed {:>3}  quota_rejected {:>3}  mean wait {:?}",
            if row.tenant.is_empty() {
                "<anon>"
            } else {
                &row.tenant
            },
            row.executed,
            row.quota_rejected,
            row.mean_queue_wait
        );
    }

    // the same numbers, over the wire
    let metrics_response = http_get(addr, "/metrics");
    assert!(metrics_response.starts_with("HTTP/1.1 200"));
    server.shutdown();
    println!("\nserver drained and shut down cleanly");
}
