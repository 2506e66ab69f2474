//! The listener: a pool of handler threads accepting on one socket,
//! graceful shutdown.
//!
//! Each of the [`HANDLER_THREADS`] handlers calls `accept` on the shared
//! listener and serves what it accepted, one connection at a time (parse →
//! dispatch → respond → close).  An SSE query stream occupies its handler
//! for the query's lifetime — the pool size is therefore the bound on
//! concurrent *streams*, while the service's worker pool bounds concurrent
//! *engine work* and its admission queue + quotas bound everything else.
//! While every handler is busy, new connections wait in the kernel accept
//! backlog, and once that is full the OS refuses them: backpressure ends
//! at the TCP layer, with no queue of open descriptors in between.
//!
//! ## Graceful shutdown
//!
//! [`Server::shutdown`] stops accepting, then lets every already-accepted
//! connection finish — in-flight SSE query streams run to their `finished`
//! event rather than being cut mid-answer — then drains the service
//! ([`banks_service::Service::drain`]) so no engine work is abandoned:
//!
//! 1. the shutdown flag flips, and the open-ended streams (replication,
//!    event tail) are woken to see it and close;
//! 2. one loopback connection per handler unblocks its `accept`; a handler
//!    that returns from `accept` and finds the flag set closes what it
//!    accepted unserved and exits — as happens to connections still in
//!    the kernel backlog when the listener closes;
//! 3. the handlers are joined, then `Service::drain` waits out any
//!    remaining queued/executing queries.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use banks_service::{EventLevel, GraphSnapshot, Service};

use crate::routes::{handle_connection, GraphSource, ServerContext};

/// Number of connection-handler threads.  This bounds concurrent HTTP
/// connections, including long-lived SSE streams; connections beyond it
/// wait in the kernel accept backlog.
pub const HANDLER_THREADS: usize = 8;

/// How long a handler backs off after a failed `accept`.  Transient errors
/// (aborted handshakes) must not kill the server, but a persistent one
/// (fd exhaustion) must not spin the handlers at full CPU either.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Configures and spawns a [`Server`].
pub struct ServerBuilder {
    service: Arc<Service>,
    addr: String,
    graph_source: Option<GraphSource>,
    leader_url: Option<String>,
}

impl ServerBuilder {
    /// The address to bind (default `127.0.0.1:0`: loopback, OS-assigned
    /// port — read it back with [`Server::local_addr`]).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Installs the snapshot factory behind `POST /admin/swap` — typically
    /// "re-extract the graph from the system of record and derive prestige
    /// and index".  Without one, a swap reindexes the currently-served
    /// graph (still a fresh epoch, per the swap contract).
    pub fn graph_source(
        mut self,
        source: impl Fn() -> GraphSnapshot + Send + Sync + 'static,
    ) -> Self {
        self.graph_source = Some(Box::new(source));
        self
    }

    /// Declares the leader this process replicates from.  A follower
    /// rejects `POST /admin/mutate` with `409 Conflict`; when the leader's
    /// base URL is known, the response carries a `Location` header pointing
    /// at the leader's mutate endpoint so write traffic can be redirected.
    pub fn leader_url(mut self, url: impl Into<String>) -> Self {
        self.leader_url = Some(url.into());
        self
    }

    /// Binds the listener and spawns the handler threads.
    pub fn spawn(self) -> std::io::Result<Server> {
        let listener = Arc::new(TcpListener::bind(&self.addr)?);
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let context = Arc::new(ServerContext {
            service: Arc::clone(&self.service),
            graph_source: self.graph_source,
            leader_url: self.leader_url,
            shutdown: Arc::clone(&shutdown),
        });
        let handlers = (0..HANDLER_THREADS)
            .map(|i| {
                let listener = Arc::clone(&listener);
                let context = Arc::clone(&context);
                std::thread::Builder::new()
                    .name(format!("banks-http-{i}"))
                    .spawn(move || loop {
                        let accepted = listener.accept();
                        if context.shutdown.load(Ordering::SeqCst) {
                            return;
                        }
                        match accepted {
                            Ok((stream, _)) => handle_connection(&context, stream),
                            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
                        }
                    })
                    .expect("spawn handler thread")
            })
            .collect();

        Ok(Server {
            local_addr,
            service: self.service,
            shutdown,
            handlers,
        })
    }
}

/// The HTTP/SSE front-end: a running listener over an
/// [`Arc<Service>`](banks_service::Service).
///
/// ```
/// use std::io::{Read, Write};
/// use std::sync::Arc;
///
/// use banks_graph::GraphBuilder;
/// use banks_server::Server;
/// use banks_service::Service;
///
/// let mut b = GraphBuilder::new();
/// let author = b.add_node("author", "Jim Gray");
/// let paper = b.add_node("paper", "Granularity of locks");
/// let writes = b.add_node("writes", "w0");
/// b.add_edge(writes, author).unwrap();
/// b.add_edge(writes, paper).unwrap();
///
/// let service = Arc::new(Service::builder(b.build_default()).workers(2).build());
/// let server = Server::builder(Arc::clone(&service)).spawn().unwrap();
///
/// // Any HTTP client works; here, a raw socket.
/// let mut conn = std::net::TcpStream::connect(server.local_addr()).unwrap();
/// conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
/// let mut response = String::new();
/// conn.read_to_string(&mut response).unwrap();
/// assert!(response.starts_with("HTTP/1.1 200 OK"));
/// assert!(response.contains("\"status\":\"ok\""));
///
/// server.shutdown();
/// ```
pub struct Server {
    local_addr: SocketAddr,
    service: Arc<Service>,
    shutdown: Arc<AtomicBool>,
    handlers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts configuring a server over `service`.
    pub fn builder(service: Arc<Service>) -> ServerBuilder {
        ServerBuilder {
            service,
            addr: "127.0.0.1:0".to_string(),
            graph_source: None,
            leader_url: None,
        }
    }

    /// The bound address (useful with the default OS-assigned port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The service this server fronts (shared: submit in-process, read
    /// metrics, swap graphs — the server observes every effect).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Graceful shutdown: stop accepting, finish every accepted connection
    /// (in-flight SSE query streams included; replication streams and event
    /// tails are closed), drain the service.  Equivalent to dropping the
    /// server, but explicit.
    pub fn shutdown(self) {}

    fn begin_shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // The replication streams and event tails would otherwise run for
        // as long as their peers stay: wake them to see the flag.  The
        // generation bump and the event are what a handler that checked
        // the flag just before it was set finds instead of a wait.
        self.service.wake_publish_waiters();
        self.service.events().emit(
            EventLevel::Info,
            "shutdown",
            format!("server on {} shutting down", self.local_addr),
        );
        // Unblock each handler's `accept` so it observes the flag.  The
        // wake-up connections are closed immediately; a handler that
        // accepts one exits without reading it.  A bind to the unspecified
        // address (0.0.0.0 / ::) is not connectable on every platform, so
        // the wake targets loopback on the same port.
        let mut wake_addr = self.local_addr;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr.ip() {
                std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let woke = (0..self.handlers.len())
            .all(|_| TcpStream::connect_timeout(&wake_addr, Duration::from_secs(1)).is_ok());
        if woke {
            for handler in self.handlers.drain(..) {
                let _ = handler.join();
            }
        } else {
            // A handler could not be woken (firewalled loopback, dead
            // listener): joining would hang forever.  Detach the threads —
            // the flag is set, so each exits at its next accept — and
            // still drain the engine work below.
            self.handlers.clear();
        }
        self.service.drain();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.begin_shutdown();
    }
}
