//! The HTTP front end: a fixed worker pool over a [`LiveServer`].
//!
//! # Architecture
//!
//! One acceptor thread blocks on [`TcpListener::accept`] and hands each
//! connection to a bounded pool of worker threads through an `mpsc`
//! channel. A worker owns a connection for its whole keep-alive session
//! (several requests, then close); clients beyond the pool size queue in
//! the kernel accept backlog until a worker frees up, so hundreds of
//! concurrent connections are served by a handful of threads. An idle
//! keep-alive read times out after [`ServeOptions::keep_alive_timeout`] so
//! a silent peer cannot pin a worker.
//!
//! # Shutdown
//!
//! `POST /shutdown` (or [`QServe::shutdown`]) flips an atomic flag and
//! wakes the acceptor with a self-connection; the acceptor drops the
//! channel sender, the workers drain their queue and exit, and
//! [`QServe::join`] reaps every thread. In-flight requests complete.
//!
//! # Replay contract
//!
//! Every response names the snapshot it was computed against, and the
//! server keeps the log of every published snapshot ([`QServe::snapshots`],
//! boot snapshot included). For any query response,
//! re-encoding `snapshot.answer(config, request)` with
//! [`wire::encode_result`] reproduces the
//! response's `"result"` bytes exactly — the soak tests hold the server to
//! this byte-for-byte.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use q_core::{CacheStatus, GraphSnapshot, LiveServer, QError, QueryOutcome};

use crate::http::{read_request, write_response, HttpError, HttpRequest};
use crate::metrics::Metrics;
use crate::wire;
use crate::wire::WireError;

/// How the serving engine was constructed at boot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BootMode {
    /// Built from the dataset: catalog load, graph construction and keyword
    /// indexing all ran at boot.
    #[default]
    Rebuild,
    /// Restored from a persisted snapshot file — none of the build
    /// pipeline ran.
    Snapshot,
}

impl BootMode {
    /// The wire/metrics label value (`"snapshot"` or `"rebuild"`).
    pub fn as_str(self) -> &'static str {
        match self {
            BootMode::Rebuild => "rebuild",
            BootMode::Snapshot => "snapshot",
        }
    }
}

/// How the engine booted and how long it took — reported on `/healthz` and
/// `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BootStats {
    /// Snapshot restore or full rebuild.
    pub mode: BootMode,
    /// Wall time of whichever boot path ran.
    pub wall: Duration,
}

/// Tuning knobs for [`QServe::start`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads handling connections.
    pub threads: usize,
    /// How long a worker waits for the next request on an idle keep-alive
    /// connection before closing it.
    pub keep_alive_timeout: Duration,
    /// How the engine handed to [`QServe::start`] was booted. Defaults to
    /// a zero-duration rebuild for callers that construct the engine
    /// inline (tests, embedded use).
    pub boot: BootStats,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            threads: 8,
            keep_alive_timeout: Duration::from_secs(5),
            boot: BootStats::default(),
        }
    }
}

struct Shared {
    engine: LiveServer,
    metrics: Metrics,
    /// Every snapshot this server ever published, in publish order (boot
    /// snapshot first). Grows by one per ingest/feedback; the replay tests
    /// resolve response-named snapshot ids against this log. Retained
    /// snapshots share the parts a publish left unchanged: each holds its
    /// own search graph, a feedback shares its base's catalog and keyword
    /// index, and an ingest shares every pre-existing relation.
    published: Mutex<Vec<Arc<GraphSnapshot>>>,
    shutdown: AtomicBool,
    keep_alive_timeout: Duration,
}

/// A running HTTP server. Dropping the handle does NOT stop the server;
/// call [`shutdown`](Self::shutdown) (or hit `POST /shutdown`) and then
/// [`join`](Self::join).
pub struct QServe {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl QServe {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving `engine`.
    pub fn start(engine: LiveServer, addr: &str, options: ServeOptions) -> std::io::Result<QServe> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let boot = engine.snapshot();
        let metrics = Metrics::new(boot.id());
        metrics.set_snapshot_accounting(boot.snapshot_bytes());
        metrics.set_boot(options.boot.mode == BootMode::Snapshot, options.boot.wall);
        let shared = Arc::new(Shared {
            metrics,
            published: Mutex::new(vec![boot]),
            engine,
            shutdown: AtomicBool::new(false),
            keep_alive_timeout: options.keep_alive_timeout,
        });

        let (tx, rx): (Sender<TcpStream>, Receiver<TcpStream>) = std::sync::mpsc::channel();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..options.threads.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || loop {
                    // Hold the receiver lock only for the dequeue.
                    let next = rx.lock().expect("worker queue lock poisoned").recv();
                    match next {
                        Ok(stream) => handle_connection(&shared, stream),
                        Err(_) => return, // acceptor dropped the sender: shutdown
                    }
                })
            })
            .collect();

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                // `tx` lives only in this thread: when the loop exits, the
                // sender drops and the workers drain out.
                for stream in listener.incoming() {
                    if shared.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    match stream {
                        Ok(stream) => {
                            if tx.send(stream).is_err() {
                                break;
                            }
                        }
                        Err(_) => continue,
                    }
                }
            })
        };

        Ok(QServe {
            shared,
            addr: local,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (with the real port when `addr` asked for `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serving engine (for tests asserting against the live state).
    pub fn engine(&self) -> &LiveServer {
        &self.shared.engine
    }

    /// The published-snapshot log, boot snapshot first — every snapshot id
    /// a response can legitimately name resolves here.
    pub fn snapshots(&self) -> Vec<Arc<GraphSnapshot>> {
        self.shared
            .published
            .lock()
            .expect("snapshot log lock poisoned")
            .clone()
    }

    /// The serving metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Initiate shutdown: stop accepting, let in-flight requests finish.
    pub fn shutdown(&self) {
        request_shutdown(&self.shared, self.addr);
    }

    /// Block until every thread has exited (call after
    /// [`shutdown`](Self::shutdown), or rely on `POST /shutdown`).
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn request_shutdown(shared: &Shared, addr: SocketAddr) {
    if shared.shutdown.swap(true, Ordering::AcqRel) {
        return; // already shutting down
    }
    // Wake the acceptor out of its blocking accept(); the connection is
    // dropped immediately after the flag check.
    let _ = TcpStream::connect(addr);
}

/// Serve one connection's keep-alive session.
fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    loop {
        let request = match read_request(&mut stream, shared.keep_alive_timeout) {
            Ok(request) => request,
            Err(HttpError::Closed) | Err(HttpError::Io(_)) => return,
            Err(HttpError::Malformed { status, reason }) => {
                shared.metrics.http_requests.fetch_add(1, Ordering::Relaxed);
                shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                let body = WireError {
                    code: "bad_http".into(),
                    message: reason,
                    status,
                }
                .to_json()
                .encode();
                // Framing is unreliable after a parse failure: always close.
                let _ = write_response(
                    &mut stream,
                    status,
                    "application/json",
                    body.as_bytes(),
                    false,
                );
                return;
            }
        };
        shared.metrics.http_requests.fetch_add(1, Ordering::Relaxed);
        let keep_alive = request.keep_alive() && !shared.shutdown.load(Ordering::Acquire);

        let (status, content_type, body) = route(shared, &request);
        if status >= 400 {
            shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
        }
        if write_response(
            &mut stream,
            status,
            content_type,
            body.as_bytes(),
            keep_alive,
        )
        .is_err()
        {
            return;
        }

        // /shutdown responds first, then stops the server.
        if request.method == "POST" && request.path == "/shutdown" && status == 200 {
            request_shutdown(
                shared,
                stream
                    .local_addr()
                    .unwrap_or_else(|_| SocketAddr::from(([127, 0, 0, 1], 0))),
            );
            return;
        }
        if !keep_alive {
            return;
        }
    }
}

/// Dispatch one request. Returns (status, content type, body).
fn route(shared: &Shared, request: &HttpRequest) -> (u16, &'static str, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/query") => json_endpoint(request, |body| {
            let query = wire::decode_query(body)?;
            let outcome = shared
                .engine
                .query(&query)
                .map_err(|e| WireError::from_qerror(&e))?;
            record_query(shared, &outcome);
            Ok(wire::encode_query_response(&outcome))
        }),
        ("POST", "/query/batch") => json_endpoint(request, |body| {
            let queries = wire::decode_batch(body)?;
            let outcomes: Vec<Result<QueryOutcome, QError>> =
                queries.iter().map(|q| shared.engine.query(q)).collect();
            for outcome in outcomes.iter().flatten() {
                record_query(shared, outcome);
            }
            Ok(wire::encode_batch_response(&outcomes))
        }),
        ("POST", "/ingest") => json_endpoint(request, |body| {
            let spec = wire::decode_ingest(body)?;
            let start = Instant::now();
            let report = shared
                .engine
                .ingest_source(&spec)
                .map_err(|e| WireError::from_qerror(&e))?;
            record_publish(shared, &report.snapshot);
            shared.metrics.ingests.fetch_add(1, Ordering::Relaxed);
            shared
                .metrics
                .cache_kept
                .fetch_add(report.cache_kept, Ordering::Relaxed);
            shared
                .metrics
                .cache_dropped
                .fetch_add(report.cache_dropped, Ordering::Relaxed);
            shared
                .metrics
                .cache_parked
                .fetch_add(report.cache_parked, Ordering::Relaxed);
            shared
                .metrics
                .cache_keywords_priced
                .fetch_add(report.keywords_priced, Ordering::Relaxed);
            shared
                .metrics
                .ingest_lag_us
                .store(start.elapsed().as_micros() as u64, Ordering::Relaxed);
            Ok(wire::encode_ingest_response(&report))
        }),
        ("POST", "/feedback") => json_endpoint(request, |body| {
            let feedback = wire::decode_feedback(body)?;
            let report = shared
                .engine
                .feedback(&feedback)
                .map_err(|e| WireError::from_qerror(&e))?;
            record_publish(shared, &report.snapshot);
            shared.metrics.feedbacks.fetch_add(1, Ordering::Relaxed);
            shared
                .metrics
                .cache_kept
                .fetch_add(report.cache_kept, Ordering::Relaxed);
            shared
                .metrics
                .cache_dropped
                .fetch_add(report.cache_dropped, Ordering::Relaxed);
            Ok(wire::encode_feedback_response(&report))
        }),
        ("GET", "/healthz") => (200, "application/json", encode_health(shared)),
        ("GET", "/metrics") => {
            // Persistence runs on its own thread; pull its counters into
            // the scrape (monotone: the lane's counts only grow).
            if let Some(stats) = shared.engine.persist_stats() {
                shared
                    .metrics
                    .snapshot_persist
                    .store(stats.persisted, Ordering::Relaxed);
            }
            // Same for the re-validation lane: its worker settles parked
            // entries on its own thread; the scrape reads its counters
            // (kept/repriced/dropped are monotone, depth is a gauge).
            let lane = shared.engine.revalidation_stats();
            shared
                .metrics
                .revalidation_kept
                .store(lane.kept, Ordering::Relaxed);
            shared
                .metrics
                .revalidation_repriced
                .store(lane.repriced, Ordering::Relaxed);
            shared
                .metrics
                .revalidation_dropped
                .store(lane.dropped, Ordering::Relaxed);
            shared
                .metrics
                .revalidation_depth
                .store(lane.depth, Ordering::Relaxed);
            (200, "text/plain; version=0.0.4", shared.metrics.render())
        }
        ("POST", "/shutdown") => (200, "application/json", encode_health(shared)),
        (
            _,
            "/query" | "/query/batch" | "/ingest" | "/feedback" | "/shutdown" | "/healthz"
            | "/metrics",
        ) => {
            let err = WireError::method_not_allowed(&request.method, &request.path);
            (err.status, "application/json", err.to_json().encode())
        }
        (_, path) => {
            let err = WireError::not_found(path);
            (err.status, "application/json", err.to_json().encode())
        }
    }
}

fn encode_health(shared: &Shared) -> String {
    wire::encode_health(
        shared.engine.snapshot().id(),
        shared.metrics.boot_mode(),
        shared.metrics.boot_ms(),
    )
    .encode()
}

/// Parse-body + handle + encode-error plumbing shared by the POST
/// endpoints.
fn json_endpoint(
    request: &HttpRequest,
    handle: impl FnOnce(&crate::json::Json) -> Result<crate::json::Json, WireError>,
) -> (u16, &'static str, String) {
    let result = wire::parse_body(&request.body).and_then(|body| handle(&body));
    match result {
        Ok(json) => (200, "application/json", json.encode()),
        Err(err) => (err.status, "application/json", err.to_json().encode()),
    }
}

fn record_query(shared: &Shared, outcome: &QueryOutcome) {
    shared.metrics.observe_query(outcome.wall_time);
    let counter = match outcome.cache {
        CacheStatus::Hit => &shared.metrics.cache_hits,
        CacheStatus::Revalidated => &shared.metrics.cache_revalidated,
        CacheStatus::Miss => &shared.metrics.cache_misses,
        CacheStatus::Bypassed | CacheStatus::Refreshed => &shared.metrics.cache_uncached,
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

fn record_publish(shared: &Shared, snapshot: &Arc<GraphSnapshot>) {
    shared
        .published
        .lock()
        .expect("snapshot log lock poisoned")
        .push(Arc::clone(snapshot));
    shared
        .metrics
        .snapshot_id
        .store(snapshot.id(), Ordering::Relaxed);
    shared
        .metrics
        .set_snapshot_accounting(snapshot.snapshot_bytes());
}
