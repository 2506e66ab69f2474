//! Boots the system under test inside this process: corpus → `Service` →
//! `Server` on `127.0.0.1:0`, configured the way `server_demo --serve`
//! configures them (except `workers = nproc` and no tenant quota), plus —
//! for the durable workload — a data directory, the leader role and one
//! in-process follower tailing the leader over loopback.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use banks_datagen::DblpDataset;
use banks_graph::GraphBuilder;
use banks_obs::SloSpec;
use banks_persist::FsyncPolicy;
use banks_replica::Follower;
use banks_server::Server;
use banks_service::{ReplicationRole, Service};

use crate::client::http_get;
use crate::corpus::{self, CorpusSize};

/// Where everything the harness writes goes: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Generator threads, service workers: one per core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A scratch directory under `benchmark/out/tmp/`, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = out_dir().join("tmp").join(format!(
            "{}-{}-{tag}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir under benchmark/out");
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[derive(Clone, Copy, Debug)]
pub struct StackConfig {
    pub size: CorpusSize,
    /// Result-cache entries; 0 turns the cache off.
    pub cache_capacity: usize,
    /// Durable leader (`FsyncPolicy::Always`) plus one follower.
    pub durable: bool,
}

/// The follower half of a durable stack.
pub struct Replica {
    pub service: Arc<Service>,
    /// Held for their `Drop`s; the tailing thread stops before its
    /// directory goes.
    _follower: Follower,
    _dir: TempDir,
    /// `Follower::start` → follower serving the leader's epoch.
    pub bootstrap: Duration,
}

/// A booted system.  Field order is drop order: the server drains before
/// the directories underneath the services are removed.
pub struct Stack {
    pub replica: Option<Replica>,
    pub server: Server,
    pub service: Arc<Service>,
    pub leader_dir: Option<TempDir>,
    pub data: DblpDataset,
    /// Corpus generation through first `GET /healthz` answered (and, when
    /// durable, the follower caught up).
    pub setup: Duration,
}

impl Stack {
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }
}

pub fn durable_service(graph: banks_graph::DataGraph, dir: &Path) -> Service {
    Service::builder(graph)
        .workers(nproc())
        .queue_capacity(1024)
        .persistence(dir, FsyncPolicy::Always)
        .build()
}

pub fn boot(config: StackConfig, seed: u64) -> Result<Stack, String> {
    let started = Instant::now();
    let data = corpus::generate(config.size, seed);
    let graph = data.dataset.graph().clone();
    let mut leader_dir = None;
    let service = if config.durable {
        // As `server_demo --data-dir`: the default label index, so
        // recovery and followers need nothing beyond the graph.
        let dir = TempDir::new("leader");
        let service = durable_service(graph, dir.path());
        service.set_replication_role(ReplicationRole::Leader);
        // A follower bootstraps from the newest snapshot on disk.
        service
            .checkpoint()
            .map_err(|e| format!("boot checkpoint: {e}"))?;
        leader_dir = Some(dir);
        service
    } else {
        Service::builder(graph)
            .workers(nproc())
            .queue_capacity(1024)
            .cache_capacity(config.cache_capacity)
            .slos(SloSpec::defaults())
            .index(data.dataset.index().clone())
            .build()
    };
    let service = Arc::new(service);
    let server = Server::builder(Arc::clone(&service))
        .spawn()
        .map_err(|e| format!("bind server: {e}"))?;

    let replica = if config.durable {
        let dir = TempDir::new("follower");
        // Boots on unrelated data, as a fresh replica does; the first
        // bootstrap replaces it wholesale.
        let mut boot = GraphBuilder::new();
        boot.add_node("boot", "empty replica");
        let replica = Arc::new(durable_service(boot.build_default(), dir.path()));
        let begun = Instant::now();
        let follower = Follower::start(
            Arc::clone(&replica),
            &format!("http://{}", server.local_addr()),
        )?;
        while replica.epoch() != service.epoch() {
            if begun.elapsed() > Duration::from_secs(30) {
                return Err("follower did not catch up within 30 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Some(Replica {
            service: replica,
            _follower: follower,
            _dir: dir,
            bootstrap: begun.elapsed(),
        })
    } else {
        None
    };

    let (status, _, _) = http_get(server.local_addr(), "/healthz", "")?;
    if status != 200 {
        return Err(format!("/healthz answered {status}"));
    }
    Ok(Stack {
        replica,
        server,
        service,
        leader_dir,
        data,
        setup: started.elapsed(),
    })
}
