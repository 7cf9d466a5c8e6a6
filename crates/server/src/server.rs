//! The server proper: bounded accept loop → fixed worker pool →
//! admission-gated request handling, with deadline propagation, strict
//! shed accounting, and graceful drain.
//!
//! # Request life cycle and the accounting identity
//!
//! A connection is accepted into a **bounded** pending queue (full queue
//! → an immediate canned 503 at the door, counted separately as
//! `door_bounced` — those connections never carried a readable request).
//! A worker reads one request at a time under the read budget, then
//! routes it. Every *fully read* request lands in **exactly one** of
//! four buckets, bumped together with `received` under one mutex at the
//! moment its fate is decided:
//!
//! ```text
//! accepted + shed_queue_full + shed_deadline + rejected_malformed == received
//! ```
//!
//! The identity holds at **every** [`CprServer::stats`] snapshot, not
//! just at quiescence — there is no window where `received` runs ahead
//! of its buckets, because no code path bumps them separately. Contained
//! panics stay inside `accepted` (the request reached compute; its
//! answer is a 500) and are additionally counted in `contained_panics`.
//!
//! # Shed policy at the front door
//!
//! | situation | answer | bucket |
//! |---|---|---|
//! | pending-connection queue full | canned 503 | `door_bounced` (not a request) |
//! | draining, new predict request | 503 + retry-after | `shed_queue_full` |
//! | admission queue full / evicted | 503 + retry-after | `shed_queue_full` |
//! | admission wait hit queue-timeout | 503 + retry-after | `shed_queue_full` |
//! | deadline expired (wait or compute) | 503 + retry-after | `shed_deadline` |
//! | malformed wire/body/deadline/query | 400/404/405/413/431 | `rejected_malformed` |
//! | served (incl. contained panic → 500) | 200 / 500 | `accepted` |
//!
//! Health, stats, and observability probes (`GET /health`, `/stats`,
//! `/metrics`, `/events?since=<seq>`) are
//! [`Critical`](crate::admission::Priority::Critical): they bypass
//! admission entirely and are answered even when every predict request
//! is being shed — including during drain. `/metrics` renders the
//! shared hub in Prometheus text exposition while holding the counters
//! mutex, so exported `cpr_server_*` totals satisfy the identity in
//! every scrape.
//!
//! # Drain
//!
//! [`CprServer::drain`] stops the accept loop (new connections get the
//! canned drain 503), lets workers finish or deadline-out everything
//! already accepted, joins all threads, and finally — with the fleet
//! quiescent — flushes one last snapshot generation through the attached
//! [`FleetStore`]. Nothing durable is lost: the chaos suite restarts a
//! registry from the drained store and checks bitwise equality.

use crate::admission::{Admission, AdmissionConfig, Admit};
use crate::deadline::{request_deadline, retry_after_ms, RETRY_AFTER_MS_HEADER};
use crate::fault::ServerFaultInjector;
use crate::http::{self, Limits, Method, ReadError, RequestHead, Response};
use cpr_obs::{Counter, EventKind, Gauge, Histogram, MetricsRegistry};
use cpr_registry::{ModelId, ModelRegistry, RegistryError};
use cpr_store::FleetStore;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for one server instance. The defaults are sized for tests
/// and small fleets; production raises the budgets, not the structure.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads. Floored at
    /// `admission.max_concurrent + admission.max_queue + 2` so that
    /// critical probes always find a worker that is not parked in
    /// admission.
    pub workers: usize,
    /// Pending accepted connections; beyond this the door bounces.
    pub conn_backlog: usize,
    /// Admission limits for the predict endpoint.
    pub admission: AdmissionConfig,
    /// Wire hardening caps.
    pub limits: Limits,
    /// Total wall budget to read one request (slow-loris defense).
    pub read_budget: Duration,
    /// Total wall budget to write one response (slow-reader defense).
    pub write_budget: Duration,
    /// Deadline applied when the request carries no deadline header.
    pub default_deadline: Duration,
    /// Keep-alive requests served per connection before forcing close.
    pub max_requests_per_conn: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            conn_backlog: 64,
            admission: AdmissionConfig::default(),
            limits: Limits::default(),
            read_budget: Duration::from_secs(2),
            write_budget: Duration::from_secs(2),
            default_deadline: Duration::from_secs(2),
            max_requests_per_conn: 10_000,
        }
    }
}

/// Which bucket a finished request lands in (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bucket {
    Accepted,
    Malformed,
    ShedQueue,
    ShedDeadline,
}

/// The server's accounting cells. Each field is a handle into the
/// shared observability hub (`cpr_server_*` metrics), so `/metrics`
/// exports the very same cells `/stats` reads — but every bump still
/// happens under the one `Mutex<Counters>`. That mutex is what makes
/// the accounting identity hold at every snapshot *and* every scrape:
/// the `/metrics` handler renders while holding it, so an exported
/// scrape can never catch `received` apart from its buckets.
struct Counters {
    received: Counter,
    accepted: Counter,
    shed_queue_full: Counter,
    shed_deadline: Counter,
    rejected_malformed: Counter,
    contained_panics: Counter,
    door_bounced: Counter,
    read_timeouts: Counter,
    disconnects: Counter,
    in_flight: Gauge,
}

impl Counters {
    fn new(obs: &MetricsRegistry) -> Self {
        Self {
            received: obs.counter("cpr_server_received_total"),
            accepted: obs.counter("cpr_server_accepted_total"),
            shed_queue_full: obs.counter("cpr_server_shed_queue_full_total"),
            shed_deadline: obs.counter("cpr_server_shed_deadline_total"),
            rejected_malformed: obs.counter("cpr_server_rejected_malformed_total"),
            contained_panics: obs.counter("cpr_server_contained_panics_total"),
            door_bounced: obs.counter("cpr_server_door_bounced_total"),
            read_timeouts: obs.counter("cpr_server_read_timeouts_total"),
            disconnects: obs.counter("cpr_server_disconnects_total"),
            in_flight: obs.gauge("cpr_server_in_flight"),
        }
    }
}

/// Per-endpoint whole-request latency histograms (request fully read →
/// response routed), in microseconds.
struct EndpointHists {
    predict: Histogram,
    health: Histogram,
    stats: Histogram,
    metrics: Histogram,
    events: Histogram,
    other: Histogram,
}

impl EndpointHists {
    fn new(obs: &MetricsRegistry) -> Self {
        let h = |ep: &str| obs.histogram(&format!("cpr_server_request_{ep}_us"));
        Self {
            predict: h("predict"),
            health: h("health"),
            stats: h("stats"),
            metrics: h("metrics"),
            events: h("events"),
            other: h("other"),
        }
    }

    /// Map a (query-stripped) path to its endpoint histogram.
    fn pick(&self, path: &str) -> &Histogram {
        match path {
            "/health" => &self.health,
            "/stats" => &self.stats,
            "/metrics" => &self.metrics,
            "/events" => &self.events,
            p if p.starts_with("/predict/") => &self.predict,
            _ => &self.other,
        }
    }
}

/// A consistent snapshot of the server's accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Fully read requests whose fate was decided.
    pub received: u64,
    /// Reached compute (200, or a contained-panic 500).
    pub accepted: u64,
    /// Shed by admission/drain overload (503).
    pub shed_queue_full: u64,
    /// Shed because the deadline expired, waiting or computing (503).
    pub shed_deadline: u64,
    /// Rejected at a trust boundary (4xx).
    pub rejected_malformed: u64,
    /// Panics contained by the handler (subset of `accepted`).
    pub contained_panics: u64,
    /// Connections bounced at the door (never carried a request).
    pub door_bounced: u64,
    /// Connections whose read budget expired mid-request.
    pub read_timeouts: u64,
    /// Connections that vanished mid-request.
    pub disconnects: u64,
    /// Requests read but not yet bucketed (being processed right now).
    pub in_flight: u64,
    /// Requests currently holding an admission slot.
    pub active: usize,
    /// Requests currently waiting in the admission queue.
    pub queued: usize,
    /// Median predict service time, microseconds — read from the
    /// `cpr_server_predict_service_us` histogram (0 until the first
    /// successfully served predict).
    pub p50_service_us: u64,
    /// Whether the server is draining.
    pub draining: bool,
}

impl ServerStats {
    /// The accounting identity pinned by the chaos suite.
    pub fn identity_holds(&self) -> bool {
        self.accepted + self.shed_queue_full + self.shed_deadline + self.rejected_malformed
            == self.received
    }

    /// Render as the `/stats` endpoint's line-oriented body.
    pub fn render(&self) -> String {
        format!(
            "received {}\naccepted {}\nshed_queue_full {}\nshed_deadline {}\n\
             rejected_malformed {}\ncontained_panics {}\ndoor_bounced {}\n\
             read_timeouts {}\ndisconnects {}\nin_flight {}\nactive {}\nqueued {}\n\
             p50_service_us {}\ndraining {}\n",
            self.received,
            self.accepted,
            self.shed_queue_full,
            self.shed_deadline,
            self.rejected_malformed,
            self.contained_panics,
            self.door_bounced,
            self.read_timeouts,
            self.disconnects,
            self.in_flight,
            self.active,
            self.queued,
            self.p50_service_us,
            u8::from(self.draining),
        )
    }
}

/// What [`CprServer::drain`] accomplished.
#[derive(Debug)]
pub struct DrainReport {
    /// Generation of the final fleet snapshot, if a store is attached
    /// and the flush succeeded.
    pub snapshot_generation: Option<u64>,
    /// Why the flush failed, if it did.
    pub snapshot_error: Option<String>,
    /// The server's accounting at the end of drain.
    pub final_stats: ServerStats,
}

struct Shared {
    registry: Arc<ModelRegistry>,
    store: Option<Arc<FleetStore>>,
    cfg: ServerConfig,
    admission: Admission,
    injector: ServerFaultInjector,
    counters: Mutex<Counters>,
    /// Per-endpoint request latency, µs (lock-free; not part of the
    /// counting identity).
    endpoints: EndpointHists,
    /// Predict compute time for successfully served requests, µs. The
    /// p50 of this histogram is the congestion hint behind
    /// `x-cpr-retry-after-ms`.
    service_us: Histogram,
    /// Time a predict request spent parked in admission, µs.
    admission_wait_us: Histogram,
    conns: Mutex<VecDeque<TcpStream>>,
    conn_cv: Condvar,
    draining: AtomicBool,
    shutdown: AtomicBool,
    predict_seq: AtomicU64,
}

impl Shared {
    /// Bucket a finished request. The single place `received` moves.
    fn finish(&self, bucket: Bucket, panicked: bool, service_ms: Option<f64>) {
        let c = self.counters.lock().expect("counters poisoned");
        c.in_flight.add(-1);
        c.received.inc();
        match bucket {
            Bucket::Accepted => c.accepted.inc(),
            Bucket::Malformed => c.rejected_malformed.inc(),
            Bucket::ShedQueue => c.shed_queue_full.inc(),
            Bucket::ShedDeadline => c.shed_deadline.inc(),
        }
        if panicked {
            c.contained_panics.inc();
        }
        if let Some(ms) = service_ms {
            self.service_us.record((ms * 1e3) as u64);
        }
    }

    fn stats(&self) -> ServerStats {
        let c = self.counters.lock().expect("counters poisoned");
        let (active, queued) = self.admission.depth();
        ServerStats {
            received: c.received.get(),
            accepted: c.accepted.get(),
            shed_queue_full: c.shed_queue_full.get(),
            shed_deadline: c.shed_deadline.get(),
            rejected_malformed: c.rejected_malformed.get(),
            contained_panics: c.contained_panics.get(),
            door_bounced: c.door_bounced.get(),
            read_timeouts: c.read_timeouts.get(),
            disconnects: c.disconnects.get(),
            in_flight: c.in_flight.get().max(0) as u64,
            active,
            queued,
            p50_service_us: self.service_us.snapshot().quantile(0.5),
            draining: self.draining.load(Ordering::Acquire),
        }
    }

    fn shed_response(&self, reason: &str) -> Response {
        let (_, queued) = self.admission.depth();
        // The congestion hint: queue depth ahead of a future arrival
        // times the *median* observed service time (was an EWMA; the
        // histogram read is monotone under a fixed latency profile, so
        // deeper queues can only raise the hint).
        let p50_ms = self.service_us.snapshot().quantile(0.5) as f64 / 1e3;
        let ms = retry_after_ms(queued, p50_ms);
        self.registry.obs().events().record(EventKind::Shed, reason);
        Response::new(503, format!("{reason}\n"))
            .with_header("retry-after", ms.div_ceil(1000).max(1))
            .with_header(RETRY_AFTER_MS_HEADER, ms)
    }
}

/// One request's routing outcome: the response plus its accounting.
struct Routed {
    resp: Response,
    bucket: Bucket,
    panicked: bool,
    service_ms: Option<f64>,
    /// Force connection close after this response.
    close: bool,
}

impl Routed {
    fn plain(resp: Response, bucket: Bucket) -> Self {
        Self {
            resp,
            bucket,
            panicked: false,
            service_ms: None,
            close: false,
        }
    }
}

/// Strip the query string off a request path: `/events?since=3` →
/// (`/events`, `Some("since=3")`).
fn split_query(path: &str) -> (&str, Option<&str>) {
    match path.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (path, None),
    }
}

fn route(sh: &Shared, head: &RequestHead, body: Vec<u8>) -> Routed {
    let (path, query) = split_query(&head.path);
    match (&head.method, path) {
        // Critical class: no admission, no faults, served under any load
        // — including full shed and drain.
        (Method::Get, "/health") => {
            let body = if sh.draining.load(Ordering::Acquire) {
                "draining\n"
            } else {
                "ok\n"
            };
            Routed::plain(Response::new(200, body), Bucket::Accepted)
        }
        (Method::Get, "/stats") => {
            Routed::plain(Response::new(200, sh.stats().render()), Bucket::Accepted)
        }
        (Method::Get, "/metrics") => {
            // Scrape-while-locked: holding the counters mutex across the
            // render pins the exported `cpr_server_*` totals to the same
            // consistent cut `/stats` sees, so the accounting identity
            // holds in every scrape, not just at quiescence.
            let _cut = sh.counters.lock().expect("counters poisoned");
            let text = sh.registry.obs().render();
            Routed::plain(Response::new(200, text), Bucket::Accepted)
        }
        (Method::Get, "/events") => events_endpoint(sh, query),
        (Method::Post, path) if path.starts_with("/predict/") => predict(sh, head, path, body),
        (Method::Get | Method::Other(_), path) if path.starts_with("/predict/") => Routed::plain(
            Response::new(405, "predict is POST-only\n"),
            Bucket::Malformed,
        ),
        _ => Routed::plain(Response::new(404, "no such endpoint\n"), Bucket::Malformed),
    }
}

/// `GET /events?since=<seq>` — structured lifecycle events newer than
/// `seq` (default 0 = everything still in the ring), one
/// `<seq> <kind> <detail>` line each. A gap between the `since` you
/// asked for and the first returned seq means the ring lapped you.
fn events_endpoint(sh: &Shared, query: Option<&str>) -> Routed {
    let mut since = 0u64;
    for pair in query.unwrap_or("").split('&').filter(|p| !p.is_empty()) {
        match pair.split_once('=') {
            Some(("since", v)) => match v.parse() {
                Ok(n) => since = n,
                Err(_) => {
                    return Routed::plain(
                        Response::new(400, "bad since value\n"),
                        Bucket::Malformed,
                    )
                }
            },
            _ => {
                return Routed::plain(
                    Response::new(400, "events accepts only since=<seq>\n"),
                    Bucket::Malformed,
                )
            }
        }
    }
    let mut out = String::new();
    for e in sh.registry.obs().events().since(since) {
        out.push_str(&e.render_line());
    }
    Routed::plain(Response::new(200, out), Bucket::Accepted)
}

fn predict(sh: &Shared, head: &RequestHead, path: &str, body: Vec<u8>) -> Routed {
    // Trust boundary first: nothing below runs on unvalidated shape.
    let Some((app, machine, metric)) = http::parse_model_path(path) else {
        return Routed::plain(
            Response::new(404, "predict path is /predict/<app>/<machine>/<metric>\n"),
            Bucket::Malformed,
        );
    };
    let now = Instant::now();
    let Some(deadline) = request_deadline(head, now, sh.cfg.default_deadline) else {
        return Routed::plain(
            Response::new(400, "bad x-cpr-deadline-ms value\n"),
            Bucket::Malformed,
        );
    };
    let queries = match http::parse_query_body(&body) {
        Ok(q) => q,
        Err(reason) => {
            return Routed::plain(Response::new(400, format!("{reason}\n")), Bucket::Malformed)
        }
    };
    if sh.draining.load(Ordering::Acquire) {
        let mut r = Routed::plain(sh.shed_response("draining"), Bucket::ShedQueue);
        r.close = true;
        return r;
    }
    let id = ModelId::new(app, machine, metric);

    // Arrival-ordered index for deterministic fault injection.
    let seq = sh.predict_seq.fetch_add(1, Ordering::SeqCst);
    let wait_deadline = deadline.min(Instant::now() + sh.cfg.admission.queue_timeout);
    let t_wait = Instant::now();
    let admit = sh.admission.admit(wait_deadline);
    sh.admission_wait_us.record_duration(t_wait.elapsed());
    match admit {
        Admit::QueueFull | Admit::DroppedByNewer => {
            Routed::plain(sh.shed_response("admission queue full"), Bucket::ShedQueue)
        }
        Admit::TimedOut => {
            // Which limit fired decides the bucket: the request's own
            // deadline → deadline shed; the queue-wait cap → overload.
            if Instant::now() >= deadline {
                Routed::plain(
                    sh.shed_response("deadline expired in queue"),
                    Bucket::ShedDeadline,
                )
            } else {
                Routed::plain(
                    sh.shed_response("admission wait timed out"),
                    Bucket::ShedQueue,
                )
            }
        }
        Admit::Granted(permit) => {
            let t0 = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                sh.injector.maybe_hold(seq);
                sh.injector.maybe_panic(seq);
                sh.registry.serve_model_deadline(&id, &queries, deadline)
            }));
            drop(permit);
            let service_ms = t0.elapsed().as_secs_f64() * 1e3;
            match result {
                Err(_) => {
                    // Contained panic: the slot is already released (the
                    // permit dropped above, and would have dropped on
                    // unwind regardless); answer 500 and close.
                    let mut r = Routed::plain(
                        Response::new(500, "internal error (contained)\n"),
                        Bucket::Accepted,
                    );
                    r.panicked = true;
                    r.close = true;
                    r
                }
                Ok(Ok(preds)) => {
                    let mut out = String::with_capacity(preds.len() * 24);
                    for y in preds {
                        // f64 Display round-trips bitwise; the body IS
                        // the registry answer.
                        writeln!(out, "{y}").expect("writing to a String cannot fail");
                    }
                    let mut r = Routed::plain(Response::new(200, out), Bucket::Accepted);
                    r.service_ms = Some(service_ms);
                    r
                }
                Ok(Err(RegistryError::DeadlineExceeded)) => Routed::plain(
                    sh.shed_response("deadline expired in compute"),
                    Bucket::ShedDeadline,
                ),
                Ok(Err(RegistryError::UnknownModel(id))) => Routed::plain(
                    Response::new(404, format!("no model for {id}\n")),
                    Bucket::Malformed,
                ),
                Ok(Err(RegistryError::MalformedQuery(m))) => {
                    Routed::plain(Response::new(400, format!("{m}\n")), Bucket::Malformed)
                }
                Ok(Err(other)) => {
                    // Unreachable through this path today; degrade, never die.
                    let mut r =
                        Routed::plain(Response::new(500, format!("{other}\n")), Bucket::Accepted);
                    r.close = true;
                    r
                }
            }
        }
    }
}

fn handle_conn(sh: &Shared, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let mut carry = Vec::new();
    let mut served = 0u32;
    loop {
        match http::read_request(&mut stream, &mut carry, &sh.cfg.limits, sh.cfg.read_budget) {
            Err(ReadError::Eof) => break,
            Err(ReadError::Disconnect) => {
                sh.counters
                    .lock()
                    .expect("counters poisoned")
                    .disconnects
                    .inc();
                break;
            }
            Err(ReadError::Timeout) => {
                sh.counters
                    .lock()
                    .expect("counters poisoned")
                    .read_timeouts
                    .inc();
                let resp = Response::new(408, "request read budget exhausted\n");
                http::write_response(&mut stream, &resp, false, sh.cfg.write_budget);
                break;
            }
            Err(ReadError::Io(_)) => break,
            Err(ReadError::Parse(e)) => {
                // A fully-diagnosed malformed request: counted.
                sh.counters
                    .lock()
                    .expect("counters poisoned")
                    .in_flight
                    .add(1);
                sh.finish(Bucket::Malformed, false, None);
                let resp = Response::new(e.status(), format!("{}\n", e.reason()));
                http::write_response(&mut stream, &resp, false, sh.cfg.write_budget);
                break;
            }
            Ok((head, body)) => {
                served += 1;
                sh.counters
                    .lock()
                    .expect("counters poisoned")
                    .in_flight
                    .add(1);
                let t_req = Instant::now();
                let routed = route(sh, &head, body);
                sh.finish(routed.bucket, routed.panicked, routed.service_ms);
                sh.endpoints
                    .pick(split_query(&head.path).0)
                    .record_duration(t_req.elapsed());
                let keep = head.keep_alive
                    && !routed.close
                    && served < sh.cfg.max_requests_per_conn
                    && !sh.shutdown.load(Ordering::Acquire);
                let ok = http::write_response(&mut stream, &routed.resp, keep, sh.cfg.write_budget);
                if !keep || !ok {
                    break;
                }
            }
        }
    }
}

fn accept_loop(sh: Arc<Shared>, listener: TcpListener) {
    for conn in listener.incoming() {
        if sh.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = conn else { continue };
        if sh.draining.load(Ordering::Acquire) {
            door_bounce(&sh, stream, "draining");
            continue;
        }
        let mut q = sh.conns.lock().expect("conns poisoned");
        if q.len() >= sh.cfg.conn_backlog {
            drop(q);
            door_bounce(&sh, stream, "connection backlog full");
        } else {
            q.push_back(stream);
            sh.conn_cv.notify_one();
        }
    }
}

/// Refuse a connection at the door with a canned 503 — bounded work,
/// never a worker. Counted as `door_bounced`, outside the request
/// identity (no request was read).
fn door_bounce(sh: &Shared, mut stream: TcpStream, reason: &str) {
    sh.counters
        .lock()
        .expect("counters poisoned")
        .door_bounced
        .inc();
    let resp = sh.shed_response(reason);
    let bytes = http::render_response(&resp, false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let _ = stream.write_all(&bytes);
}

fn worker_loop(sh: Arc<Shared>) {
    loop {
        let stream = {
            let mut q = sh.conns.lock().expect("conns poisoned");
            loop {
                if let Some(s) = q.pop_front() {
                    break s;
                }
                if sh.shutdown.load(Ordering::Acquire) {
                    return;
                }
                q = sh.conn_cv.wait(q).expect("conns poisoned");
            }
        };
        handle_conn(&sh, stream);
    }
}

/// A running server. Dropping it without [`CprServer::drain`] shuts it
/// down abruptly (threads joined, no final snapshot).
pub struct CprServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl CprServer {
    /// Bind and start serving `registry` on `addr` (use port 0 for an
    /// ephemeral port; read it back with [`Self::local_addr`]).
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: Arc<ModelRegistry>,
        cfg: ServerConfig,
    ) -> std::io::Result<Self> {
        Self::bind_with_store(addr, registry, None, cfg)
    }

    /// [`Self::bind`] plus a durability store: drain flushes one final
    /// snapshot generation through it.
    pub fn bind_with_store(
        addr: impl ToSocketAddrs,
        registry: Arc<ModelRegistry>,
        store: Option<Arc<FleetStore>>,
        cfg: ServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let workers = cfg
            .workers
            .max(cfg.admission.max_concurrent + cfg.admission.max_queue + 2);
        let admission = Admission::new(cfg.admission);
        // One observability hub for the whole stack: the registry owns
        // it, the pipeline and store already publish into it, and the
        // server's own cells join here. A live server is worth timing.
        let obs = Arc::clone(registry.obs());
        registry.enable_timing();
        if let Some(store) = &store {
            store.attach_obs(Arc::clone(&obs));
        }
        let shared = Arc::new(Shared {
            registry,
            store,
            cfg,
            admission,
            injector: ServerFaultInjector::new(),
            counters: Mutex::new(Counters::new(&obs)),
            endpoints: EndpointHists::new(&obs),
            service_us: obs.histogram("cpr_server_predict_service_us"),
            admission_wait_us: obs.histogram("cpr_server_admission_wait_us"),
            conns: Mutex::new(VecDeque::new()),
            conn_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            predict_seq: AtomicU64::new(0),
        });
        let accept = {
            let sh = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("cpr-accept".into())
                .spawn(move || accept_loop(sh, listener))?
        };
        let workers = (0..workers)
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cpr-worker-{i}"))
                    .spawn(move || worker_loop(sh))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Self {
            shared,
            addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The deterministic fault injector driving the chaos suite.
    pub fn fault_injector(&self) -> ServerFaultInjector {
        self.shared.injector.clone()
    }

    /// A consistent accounting snapshot (the identity holds on every
    /// call — see the module docs).
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// The registry this server fronts.
    pub fn registry(&self) -> Arc<ModelRegistry> {
        Arc::clone(&self.shared.registry)
    }

    fn stop_threads(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.shared.conn_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Graceful drain: stop accepting, finish (or deadline-out)
    /// everything already accepted, release injected holds, join every
    /// thread, then flush a final snapshot generation if a store is
    /// attached.
    pub fn drain(mut self) -> DrainReport {
        self.shared.draining.store(true, Ordering::Release);
        self.shared
            .registry
            .obs()
            .events()
            .record(EventKind::Drain, "server drain");
        // A drain must not wait on armed chaos holds.
        self.shared.injector.release_all();
        self.stop_threads();
        let (mut generation, mut error) = (None, None);
        if let Some(store) = &self.shared.store {
            match self.shared.registry.snapshot_into(store) {
                Ok(g) => generation = Some(g),
                Err(e) => error = Some(e.to_string()),
            }
        }
        DrainReport {
            snapshot_generation: generation,
            snapshot_error: error,
            final_stats: self.shared.stats(),
        }
    }
}

impl Drop for CprServer {
    fn drop(&mut self) {
        if self.accept.is_some() || !self.workers.is_empty() {
            self.shared.draining.store(true, Ordering::Release);
            self.shared.injector.release_all();
            self.stop_threads();
        }
    }
}

// One server shared across client threads and test harnesses.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CprServer>();
    assert_send_sync::<ServerStats>();
};
