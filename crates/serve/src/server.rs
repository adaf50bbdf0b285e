//! The TCP front end: an acceptor thread plus one handler thread per
//! connection, all funnelling `ESTIMATE` work into the shared [`Batcher`].
//!
//! Robustness properties (each covered by an integration test):
//!
//! * every malformed or unanswerable request gets a typed one-line `ERR` —
//!   no panic is reachable from client input;
//! * admission is bounded twice: a connection cap at accept time and the
//!   batcher's queue bound per request, both shedding with `BUSY`;
//! * `shutdown()` drains: in-flight requests finish, queued batches run,
//!   every thread is joined before it returns.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ds_core::lifecycle::{LifecycleManager, LifecyclePhase};
use ds_core::monitor::MonitorRegistry;
use ds_core::sketch::DeepSketch;
use ds_core::snapshot::{decode_hex, decode_snapshot, encode_hex};
use ds_core::store::{AdoptOutcome, SketchStore};
use ds_est::EstimateError;
use ds_obs::{HistogramSnapshot, IdSource, PromText, SloTracker, TraceContext};
use ds_query::canonical::CanonicalQuery;
use ds_query::parser::parse_query;
use ds_query::query::Query;
use ds_storage::catalog::Database;

use crate::batcher::{Batcher, BatcherConfig, Rejection, SharedEstimator, StageStamps};
use crate::breaker::{Admit, BreakerRegistry, CircuitBreaker};
use crate::cache::{EstimateCache, EstimateKey};
use crate::config::{ServeConfig, SloSignal};
use crate::faults::FaultInjector;
use crate::metrics::{Metrics, MetricsSnapshot, RequestTimeline};
use crate::protocol::{
    estimate_error_response, format_response, parse_request, store_error_response, ErrorCode,
    Request, Response, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION, SUPPORTED_FEATURES,
};

/// How often blocked reads wake up to check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Bound on queued shadow-mirror jobs: the hot path never blocks on the
/// lifecycle daemon — when the scorer falls behind, mirrored jobs are
/// dropped and counted instead.
const SHADOW_QUEUE_CAPACITY: usize = 1024;

/// One mirrored request for the lifecycle daemon's shadow scorer: the
/// already-parsed query, the live model's answer, and (for FEEDBACK) the
/// true cardinality that grades both models.
struct ShadowJob {
    sketch: String,
    query: Query,
    live: f64,
    actual: Option<u64>,
    /// Trace of the mirrored request, so shadow-scoring cost shows up in
    /// the same causal tree as the request that caused it.
    trace: Option<TraceContext>,
}

/// One configured SLO with its live burn-rate tracker.
struct SloState {
    tracker: SloTracker,
    signal: SloSignal,
}

/// Lifecycle plumbing shared between the request handlers (harvest and
/// mirror hooks) and the maintain daemon (ticks and shadow scoring).
struct LifecycleShared {
    manager: Arc<LifecycleManager>,
    shadow_tx: SyncSender<ShadowJob>,
    mirrored: AtomicU64,
    shadow_dropped: AtomicU64,
}

struct Shared {
    db: Arc<Database>,
    store: Arc<SketchStore>,
    batcher: Batcher,
    metrics: Arc<Metrics>,
    monitors: Arc<MonitorRegistry>,
    shutting_down: AtomicBool,
    active_connections: AtomicUsize,
    max_connections: usize,
    timeline: bool,
    slow_threshold: Duration,
    templates: TemplateInterner,
    breakers: BreakerRegistry,
    fallback: Option<SharedEstimator>,
    faults: Option<Arc<FaultInjector>>,
    cache: Option<EstimateCache>,
    lifecycle: Option<LifecycleShared>,
    snapshot_dir: Option<PathBuf>,
    /// Fleet replication counters, surfaced under `serve/sync/*` in STATS.
    snapshots_shipped: AtomicU64,
    sync_adopted: AtomicU64,
    sync_stale: AtomicU64,
    sync_rejected: AtomicU64,
    /// Mints this server's span ids for traced (v3) requests.
    ids: IdSource,
    /// Monotonic epoch anchoring SLO window timestamps — no wall clock
    /// on the request path.
    epoch: Instant,
    /// Configured SLOs with their burn-rate trackers (empty = disabled).
    slos: Vec<SloState>,
}

impl Shared {
    /// Milliseconds since the server started — the SLO clock.
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Grades one finished request against every configured SLO.
    /// `latency` is the end-to-end wall time; `errored` marks `ERR`/`BUSY`
    /// responses; `qerror` is present only for graded `FEEDBACK` requests.
    fn record_slos(&self, latency: Option<Duration>, errored: bool, qerror: Option<f64>) {
        if self.slos.is_empty() {
            return;
        }
        let now = self.now_ms();
        for slo in &self.slos {
            match slo.signal {
                SloSignal::LatencyUs(limit) => {
                    if let Some(lat) = latency {
                        slo.tracker.record(now, lat.as_micros() as u64 <= limit);
                    }
                }
                SloSignal::Errors => slo.tracker.record(now, !errored),
                SloSignal::QErrorMax(limit) => {
                    if let Some(q) = qerror {
                        slo.tracker.record(now, q <= limit);
                    }
                }
            }
        }
    }

    /// Names of SLOs currently firing their burn-rate alert.
    fn firing_slos(&self) -> Vec<String> {
        let now = self.now_ms();
        self.slos
            .iter()
            .filter(|s| s.tracker.firing(now))
            .map(|s| s.tracker.spec().name.clone())
            .collect()
    }
}

/// A running sketch server. Dropping it shuts it down.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    lifecycle_daemon: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the acceptor and batch workers, and returns
    /// immediately. Estimates are parsed against `db` and answered by the
    /// sketches in `store` (resolved by name per request, so background
    /// retraining swaps take effect live).
    pub fn start(
        db: Arc<Database>,
        store: Arc<SketchStore>,
        cfg: ServeConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::with_faults(
            BatcherConfig {
                workers: cfg.workers,
                max_batch: cfg.max_batch,
                queue_capacity: cfg.queue_capacity,
                request_timeout: cfg.request_timeout,
            },
            Arc::clone(&metrics),
            cfg.faults.clone(),
        );
        // Lifecycle plumbing is built before `Shared` so the manager can
        // reload persisted harvest sets off the snapshot directory (the
        // warm-restart path) ahead of the first request.
        let mut shadow_rx: Option<Receiver<ShadowJob>> = None;
        let lifecycle = match cfg.lifecycle {
            Some(lc_cfg) => {
                let manager = Arc::new(
                    LifecycleManager::new(lc_cfg)
                        .map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e))?,
                );
                if let Some(dir) = cfg.snapshot_dir.as_deref() {
                    manager.load_harvests(dir);
                }
                let (tx, rx) = std::sync::mpsc::sync_channel(SHADOW_QUEUE_CAPACITY);
                shadow_rx = Some(rx);
                Some(LifecycleShared {
                    manager,
                    shadow_tx: tx,
                    mirrored: AtomicU64::new(0),
                    shadow_dropped: AtomicU64::new(0),
                })
            }
            None => None,
        };
        let shared = Arc::new(Shared {
            db,
            store,
            batcher,
            metrics,
            monitors: Arc::new(MonitorRegistry::new()),
            shutting_down: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
            max_connections: cfg.max_connections.max(1),
            timeline: cfg.timeline,
            slow_threshold: cfg.slow_threshold,
            templates: TemplateInterner::new(),
            breakers: BreakerRegistry::new(cfg.breaker),
            fallback: cfg.fallback,
            faults: cfg.faults,
            cache: (cfg.cache_capacity > 0).then(|| EstimateCache::new(cfg.cache_capacity, 8)),
            lifecycle,
            snapshot_dir: cfg.snapshot_dir,
            snapshots_shipped: AtomicU64::new(0),
            sync_adopted: AtomicU64::new(0),
            sync_stale: AtomicU64::new(0),
            sync_rejected: AtomicU64::new(0),
            ids: IdSource::from_entropy(),
            epoch: Instant::now(),
            slos: cfg
                .slos
                .into_iter()
                .map(|s| SloState {
                    tracker: SloTracker::new(s.spec),
                    signal: s.signal,
                })
                .collect(),
        });
        let lifecycle_daemon = match shadow_rx {
            Some(rx) => {
                let shared = Arc::clone(&shared);
                Some(
                    std::thread::Builder::new()
                        .name("ds-serve-lifecycle".to_string())
                        .spawn(move || run_lifecycle_daemon(&shared, &rx))?,
                )
            }
            None => None,
        };
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let handlers = Arc::clone(&handlers);
            std::thread::Builder::new()
                .name("ds-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared, &handlers))?
        };
        Ok(Self {
            addr,
            shared,
            acceptor: Some(acceptor),
            handlers,
            lifecycle_daemon,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live serving counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// The rolling q-error monitors fed by `FEEDBACK` requests. Hand this
    /// to [`ds_core::advisor::recommend_retraining`] together with the
    /// store to turn drift into retraining recommendations.
    pub fn monitors(&self) -> Arc<MonitorRegistry> {
        Arc::clone(&self.shared.monitors)
    }

    /// The retrain-and-hot-swap lifecycle manager, when the server was
    /// configured with one. Tests and drills use this to arm the poison
    /// hook or to inspect phase and counters without a wire round-trip.
    pub fn lifecycle(&self) -> Option<Arc<LifecycleManager>> {
        self.shared
            .lifecycle
            .as_ref()
            .map(|lc| Arc::clone(&lc.manager))
    }

    /// The per-sketch circuit breaker for `sketch` (created on first use).
    /// Tests and operators read its state/counters; the serving path owns
    /// the transitions.
    pub fn breaker(&self, sketch: &str) -> Arc<crate::breaker::CircuitBreaker> {
        self.shared.breakers.breaker(sketch)
    }

    /// Names of configured SLOs whose multi-window burn-rate alert is
    /// currently firing. Empty when no SLOs are configured or none burn.
    pub fn firing_slos(&self) -> Vec<String> {
        self.shared.firing_slos()
    }

    /// Graceful shutdown: stop accepting, let in-flight requests finish,
    /// drain queued batches, join every thread. Returns the final metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.stop_and_join();
        self.shared.metrics.snapshot()
    }

    fn stop_and_join(&mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking accept() with a wake-up
        // connection; it observes the flag and exits.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        let handlers: Vec<_> = self
            .handlers
            .lock()
            .expect("handler registry")
            .drain(..)
            .collect();
        for h in handlers {
            let _ = h.join();
        }
        // The daemon polls `shutting_down` between queue waits, so it
        // exits within one poll interval (persisting harvests on the way
        // out).
        if let Some(h) = self.lifecycle_daemon.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.stop_and_join();
        }
        // The batcher (owned by `shared`) drains in its own Drop once the
        // last Arc goes away.
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let active = shared.active_connections.load(Ordering::SeqCst);
        if active >= shared.max_connections {
            shared.metrics.record_shed();
            let mut s = stream;
            let line = format_response(&Response::Busy(format!(
                "connection limit {} reached",
                shared.max_connections
            )));
            let _ = writeln!(s, "{line}");
            continue;
        }
        shared.active_connections.fetch_add(1, Ordering::SeqCst);
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("ds-serve-conn".to_string())
            .spawn(move || {
                handle_connection(stream, &conn_shared);
                conn_shared
                    .active_connections
                    .fetch_sub(1, Ordering::SeqCst);
            });
        match spawned {
            Ok(handle) => {
                let mut reg = handlers.lock().expect("handler registry");
                // Reap finished handlers so the registry stays bounded.
                reg.retain(|h| !h.is_finished());
                reg.push(handle);
            }
            Err(_) => {
                shared.active_connections.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    // Short read timeouts let the handler poll the shutdown flag while
    // idle instead of blocking forever on a silent client.
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    // One-line request/response roundtrips die under Nagle + delayed ACK.
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return, // EOF
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(_) => return,
        }
        if line.trim().is_empty() {
            continue;
        }
        // t0 anchors the request timeline: everything from here to the
        // post-flush stamp is attributed to exactly one stage.
        let t0 = Instant::now();
        let (response, quit, pending) = handle_line(&line, shared, t0);
        if writeln!(writer, "{}", format_response(&response)).is_err() || writer.flush().is_err() {
            return;
        }
        if let Some(p) = pending {
            finish_timeline(p, t0, shared);
        }
        if quit {
            return;
        }
    }
}

/// A successful estimate's timeline, waiting for the final write stamp.
struct PendingTimeline {
    sketch: String,
    template: Arc<str>,
    stamps: StageStamps,
    /// Incoming trace context plus this server's own span id, when the
    /// request carried a v3 `trace=` token.
    trace: Option<(TraceContext, u64)>,
}

/// Stitches the stamps into the five contiguous stages, records them, and
/// keeps the request as a `TRACE` exemplar when it crossed the slow
/// threshold — or when it was traced, so a cross-process trace always has
/// its server-side spans available to the aggregator. Only kept exemplars
/// materialize their strings; the common fast-request path records five
/// histogram points and returns.
fn finish_timeline(p: PendingTimeline, t0: Instant, shared: &Shared) {
    let done = Instant::now();
    let us = |d: Duration| d.as_micros() as u64;
    let s = &p.stamps;
    let total = done.saturating_duration_since(t0);
    let parse_us = us(s.enqueued.saturating_duration_since(t0));
    let queue_us = us(s.dequeued.saturating_duration_since(s.enqueued));
    let batch_wait_us = us(s.forward_start.saturating_duration_since(s.dequeued));
    let forward_us = us(s.forward_end.saturating_duration_since(s.forward_start));
    let write_us = us(done.saturating_duration_since(s.forward_end));
    shared
        .metrics
        .record_stages(parse_us, queue_us, batch_wait_us, forward_us, write_us);
    if total >= shared.slow_threshold || p.trace.is_some() {
        let (trace_id, parent_span, span_id) = match p.trace {
            Some((ctx, span)) => (ctx.trace_id, ctx.span_id, span),
            None => (0, 0, 0),
        };
        shared.metrics.slow.push(RequestTimeline {
            sketch: p.sketch,
            template: p.template.as_ref().to_string(),
            total_us: us(total),
            parse_us,
            queue_us,
            batch_wait_us,
            forward_us,
            write_us,
            trace_id,
            span_id,
            parent_span,
            batch_span: s.batch_span,
        });
    }
}

/// Interns template labels: queries with the same template words share
/// one rendered [`CanonicalQuery::template_label`], so the per-request
/// path pays a read-locked map hit instead of re-rendering the label
/// (string sorts and a dozen allocations) on every request. Shared between
/// the server's hot path and the bench harness's instrumentation-cost
/// microbenchmark, so the gated number measures the code the server
/// actually runs.
pub struct TemplateInterner {
    map: RwLock<HashMap<Vec<u32>, Arc<str>>>,
}

impl Default for TemplateInterner {
    fn default() -> Self {
        Self::new()
    }
}

impl TemplateInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self {
            map: RwLock::new(HashMap::new()),
        }
    }

    /// Returns the interned template label of `query`, rendering and
    /// caching it on first sight of the query's template words.
    pub fn get(&self, db: &Database, query: &CanonicalQuery) -> Arc<str> {
        let key = query.template();
        if let Some(t) = self.map.read().expect("template cache poisoned").get(key) {
            return Arc::clone(t);
        }
        let rendered: Arc<str> = query.template_label(db).into();
        let mut map = self.map.write().expect("template cache poisoned");
        // Bounded against unbounded shape churn; real workloads cycle a
        // handful of shapes, so eviction is effectively unreachable.
        if map.len() >= 4096 {
            map.clear();
        }
        Arc::clone(map.entry(key.to_vec()).or_insert(rendered))
    }
}

/// Answers one request line. Total: every path, including malformed input,
/// produces exactly one response.
fn handle_line(
    line: &str,
    shared: &Shared,
    t0: Instant,
) -> (Response, bool, Option<PendingTimeline>) {
    shared.metrics.record_request();
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(resp) => {
            shared.metrics.record_error();
            return (resp, false, None);
        }
    };
    match request {
        Request::Hello { version, .. } => (handle_hello(version, shared), false, None),
        Request::Snapshot { sketch } => (handle_snapshot(&sketch, shared), false, None),
        Request::Sync {
            name,
            generation,
            len,
            hex,
        } => (
            handle_sync(&name, generation, len, &hex, shared),
            false,
            None,
        ),
        Request::Estimate { sketch, sql, trace } => {
            let (resp, pending) = handle_estimate(&sketch, &sql, trace, None, shared, t0);
            (resp, false, pending)
        }
        Request::Feedback {
            sketch,
            actual,
            sql,
            trace,
        } => {
            let (resp, pending) = handle_estimate(&sketch, &sql, trace, Some(actual), shared, t0);
            (resp, false, pending)
        }
        Request::Info { sketch } => match shared.store.get(&sketch) {
            Ok(s) => (Response::Text(s.info().to_string()), false, None),
            Err(e) => {
                shared.metrics.record_error();
                (store_error_response(&e), false, None)
            }
        },
        Request::List => {
            let mut entries: Vec<String> = shared
                .store
                .list()
                .into_iter()
                .map(|(name, status)| format!("{name}={status:?}"))
                .collect();
            entries.sort();
            let payload = if entries.is_empty() {
                "(no sketches)".to_string()
            } else {
                entries.join(" ")
            };
            (Response::Text(payload), false, None)
        }
        Request::Stats => (Response::Text(stats_payload(shared)), false, None),
        Request::Lifecycle { sketch } => (handle_lifecycle(&sketch, shared), false, None),
        Request::Trace => (Response::Text(trace_payload(shared)), false, None),
        Request::Quit => (Response::Bye, true, None),
    }
}

/// Negotiates the protocol version: the spoken version is the minimum of
/// the client's and the server's, provided the client is at least at
/// [`MIN_PROTOCOL_VERSION`]. The response advertises the server's feature
/// flags so the client can discover capabilities (`cache`,
/// `degraded-token`, `fleet`) instead of probing. A client that never
/// sends `HELLO` keeps speaking v1 unchanged.
fn handle_hello(version: u32, shared: &Shared) -> Response {
    if version < MIN_PROTOCOL_VERSION {
        shared.metrics.record_error();
        return error_response(
            ErrorCode::VersionMismatch,
            format!(
                "server speaks {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION}, client sent {version}"
            ),
        );
    }
    let negotiated = version.min(PROTOCOL_VERSION);
    Response::Text(format!(
        "HELLO {negotiated} {}",
        SUPPORTED_FEATURES.join(",")
    ))
}

/// Ships the named sketch as a hex-encoded DSNP blob. The bytes are
/// exactly what [`SketchStore::save_snapshot`] would write to disk —
/// generation-keyed and checksum-trailed — so a replica adopting them gets
/// a bit-identical model.
fn handle_snapshot(sketch: &str, shared: &Shared) -> Response {
    match shared.store.export_snapshot(sketch, Some(&shared.monitors)) {
        Ok((bytes, generation)) => {
            shared.snapshots_shipped.fetch_add(1, Ordering::Relaxed);
            Response::Text(format!(
                "SNAPSHOT {sketch} {generation} {} {}",
                bytes.len(),
                encode_hex(&bytes)
            ))
        }
        Err(e) => {
            shared.metrics.record_error();
            store_error_response(&e)
        }
    }
}

/// Adopts a shipped DSNP blob into this shard's store, newest generation
/// wins. Every corruption path — bad hex, length mismatch, checksum/decode
/// failure, or a header that contradicts the announced name/generation —
/// is rejected with a typed `ERR decode` and the raw bytes are quarantined
/// under `<snapshot_dir>/quarantine/` for post-mortems; a corrupt transfer
/// is never adopted.
fn handle_sync(name: &str, generation: u64, len: u64, hex: &str, shared: &Shared) -> Response {
    let reject = |message: String, bytes: Option<&[u8]>, shared: &Shared| -> Response {
        shared.sync_rejected.fetch_add(1, Ordering::Relaxed);
        shared.metrics.record_error();
        if let Some(bytes) = bytes {
            quarantine_sync(bytes, shared);
        }
        error_response(ErrorCode::Decode, message)
    };
    let bytes = match decode_hex(hex) {
        Some(b) => b,
        None => {
            return reject(
                format!("SYNC {name}: payload is not valid hex"),
                None,
                shared,
            )
        }
    };
    if bytes.len() as u64 != len {
        return reject(
            format!("SYNC {name}: announced {len} bytes, got {}", bytes.len()),
            Some(&bytes),
            shared,
        );
    }
    let snap = match decode_snapshot(&bytes) {
        Ok(s) => s,
        Err(e) => return reject(format!("SYNC {name}: {e}"), Some(&bytes), shared),
    };
    if snap.name != name || snap.generation != generation {
        return reject(
            format!(
                "SYNC {name}@{generation}: blob is {}@{}",
                snap.name, snap.generation
            ),
            Some(&bytes),
            shared,
        );
    }
    match shared.store.adopt_snapshot(snap, Some(&shared.monitors)) {
        Ok(AdoptOutcome::Adopted { generation }) => {
            shared.sync_adopted.fetch_add(1, Ordering::Relaxed);
            Response::Text(format!("SYNC {name} {generation} adopted"))
        }
        Ok(AdoptOutcome::Stale { current, .. }) => {
            shared.sync_stale.fetch_add(1, Ordering::Relaxed);
            Response::Text(format!("SYNC {name} {current} stale"))
        }
        Err(e) => {
            shared.sync_rejected.fetch_add(1, Ordering::Relaxed);
            quarantine_sync(&bytes, shared);
            shared.metrics.record_error();
            store_error_response(&e)
        }
    }
}

/// Preserves a rejected `SYNC` payload under `<snapshot_dir>/quarantine/`
/// (best effort, same policy as [`SketchStore::open_dir`] uses for corrupt
/// files found on disk). No-op when the server runs without a snapshot
/// directory.
fn quarantine_sync(bytes: &[u8], shared: &Shared) {
    let Some(dir) = shared.snapshot_dir.as_ref() else {
        return;
    };
    let seq = shared.sync_rejected.load(Ordering::Relaxed);
    let qdir = dir.join("quarantine");
    if std::fs::create_dir_all(&qdir).is_ok()
        && std::fs::write(qdir.join(format!("sync-reject-{seq}.dsnp")), bytes).is_ok()
    {
        ds_obs::global().count("serve/sync/quarantined", 1);
    }
}

/// Whether a rejection says something about the *sketch's* health (and
/// should trip its circuit breaker / route to the fallback) rather than
/// about the client's query or the server's load. Malformed/out-of-scope
/// queries and load shedding are not the model's fault.
fn health_failure(r: &Rejection) -> bool {
    match r {
        Rejection::Timeout => true,
        Rejection::Estimate(e) => matches!(
            e,
            EstimateError::Decode(_) | EstimateError::Unavailable(_) | EstimateError::Execution(_)
        ),
        Rejection::Busy { .. } | Rejection::ShuttingDown => false,
    }
}

/// A typed `ERR` response.
fn error_response(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error {
        code,
        message: message.into(),
    }
}

/// The wire response for a request the batcher did not answer.
fn rejection_response(r: Rejection) -> Response {
    match r {
        Rejection::Busy { queued } => {
            Response::Busy(format!("admission queue full ({queued} waiting)"))
        }
        Rejection::Timeout => error_response(ErrorCode::Timeout, "request deadline exceeded"),
        Rejection::ShuttingDown => error_response(ErrorCode::Internal, "server shutting down"),
        Rejection::Estimate(e) => estimate_error_response(&e),
    }
}

/// Answers `query` through the configured fallback estimator. `None` when
/// no fallback is configured or it fails too (the caller then surfaces the
/// original error).
fn fallback_value(query: &Query, shared: &Shared) -> Option<f64> {
    shared.fallback.as_ref()?.try_estimate(query).ok()
}

/// One `ESTIMATE` or `FEEDBACK` request as it moves through the pipeline.
struct EstimateRequest<'a> {
    sketch: &'a str,
    sql: &'a str,
    /// The observed true cardinality a `FEEDBACK` grades against.
    feedback: Option<u64>,
    /// When the request line was read.
    t0: Instant,
    /// Incoming trace context plus this server's own span id, when the
    /// request carried a v3 `trace=` token.
    trace: Option<(TraceContext, u64)>,
    /// The context handed downstream (batch, shadow mirror): this server's
    /// span as the parent.
    child: Option<TraceContext>,
}

/// A request that resolved, parsed and passed its circuit breaker.
struct Admitted<'s> {
    breaker: Arc<CircuitBreaker>,
    /// Sketch, generation and canonical query — the cache key, and the one
    /// source of every other identity of the query.
    key: EstimateKey,
    generation: u64,
    /// The interned template label, when the timeline or `FEEDBACK` needs it.
    template: Option<Arc<str>>,
    /// The cache, present only while the breaker is fully closed.
    cache: Option<&'s EstimateCache>,
    /// The training-time q-error baseline, for `FEEDBACK` drift detection.
    baseline: Option<HistogramSnapshot>,
    /// A copy of the query for the shadow scorer, while the sketch is in
    /// the shadow phase.
    mirror: Option<Query>,
}

/// How an `ESTIMATE`/`FEEDBACK` request ended; [`record`] accounts for it.
enum Outcome<'s> {
    /// The sketch answered, from the cache or a fresh batch.
    Answered {
        admitted: Box<Admitted<'s>>,
        value: f64,
        stamps: StageStamps,
        cache_hit: bool,
    },
    /// A `degraded` fallback answer, or an error. The breaker, when
    /// present, belongs to a sketch whose health failure led here.
    Unanswered(Response, Option<Arc<CircuitBreaker>>),
}

/// Estimates `sql` with the named sketch; with `feedback`, additionally
/// grades the estimate against the observed true cardinality. Both paths
/// answer through the same batcher call, so a `FEEDBACK` estimate is
/// bit-identical to the `ESTIMATE` it grades.
///
/// The pipeline runs resolve → parse/canonicalize → admit → answer
/// ([`admit`], [`answer`]) into one [`Outcome`], which [`record`] accounts
/// for in one place.
fn handle_estimate(
    sketch: &str,
    sql: &str,
    trace: Option<TraceContext>,
    feedback: Option<u64>,
    shared: &Shared,
    t0: Instant,
) -> (Response, Option<PendingTimeline>) {
    let _span = ds_obs::global().span("serve/estimate");
    // A traced request gets this server's own span, parented under the
    // caller's; everything downstream carries the child context.
    let trace = trace.map(|ctx| (ctx, shared.ids.next_span()));
    let req = EstimateRequest {
        sketch,
        sql,
        feedback,
        t0,
        trace,
        child: trace.map(|(ctx, span)| ctx.child(span)),
    };
    let outcome = admit(&req, shared);
    record(&req, outcome, shared)
}

/// Resolves the sketch, parses and canonicalizes the query (once per
/// request), and admits it through the sketch's circuit breaker. An open
/// circuit short-circuits straight to the fallback.
fn admit<'s>(req: &EstimateRequest<'_>, shared: &'s Shared) -> Outcome<'s> {
    let (estimator, generation) = match shared.store.get_with_generation(req.sketch) {
        Ok(p) => p,
        Err(e) => return Outcome::Unanswered(store_error_response(&e), None),
    };
    let query = match parse_query(&shared.db, req.sql) {
        Ok(q) => q,
        Err(e) => return Outcome::Unanswered(error_response(ErrorCode::Parse, e.0), None),
    };
    let key = EstimateKey::from_canonical(req.sketch, generation, query.canonical());
    let breaker = shared.breakers.breaker(req.sketch);
    if breaker.admit() == Admit::ShortCircuit {
        let sketch = req.sketch;
        let response = fallback_value(&query, shared).map_or_else(
            || {
                let message = format!("sketch '{sketch}' circuit open; no fallback configured");
                error_response(ErrorCode::NotReady, message)
            },
            Response::Degraded,
        );
        return Outcome::Unanswered(response, None);
    }
    // The cache is consulted only while the breaker is fully closed: an
    // open circuit already short-circuited above, and a half-open probe
    // must exercise the real model to prove recovery — a warm cache must
    // never mask an unhealthy sketch.
    let cache = shared
        .cache
        .as_ref()
        .filter(|_| breaker.state_name() == "closed");
    // Noting the generation eagerly purges entries staled by a swap or
    // remove/re-insert.
    if let Some(c) = cache {
        c.note_generation(req.sketch, generation);
    }
    let admitted = Admitted {
        template: (shared.timeline || req.feedback.is_some())
            .then(|| shared.templates.get(&shared.db, key.canonical())),
        baseline: (req.feedback.is_some() && cache.is_some())
            .then(|| estimator.baseline().cloned())
            .flatten(),
        // Shadow mirroring clones the query only while this sketch is in
        // the shadow phase — one relaxed atomic load otherwise.
        mirror: shared
            .lifecycle
            .as_ref()
            .filter(|lc| lc.manager.shadowing(req.sketch))
            .map(|_| query.clone()),
        breaker,
        key,
        generation,
        cache,
    };
    answer(req, admitted, estimator, query, shared)
}

/// Answers an admitted request: an injected poison fault, else the cache,
/// else the batcher. A health-style failure (decode/execution/unavailable/
/// timeout) trips the breaker and answers through the fallback when one
/// is configured — flagged `degraded` on the wire, never silently.
fn answer<'s>(
    req: &EstimateRequest<'_>,
    admitted: Admitted<'s>,
    estimator: Arc<DeepSketch>,
    query: Query,
    shared: &Shared,
) -> Outcome<'s> {
    let sketch = req.sketch;
    let faults = shared.faults.as_ref();
    // Keep a copy for the fallback only when degradation can happen; the
    // non-degraded hot path stays clone-free.
    let fallback_query = shared.fallback.as_ref().map(|_| query.clone());
    let mut cache_hit = false;
    let result = if faults.is_some_and(|f| f.is_poisoned(sketch)) {
        // Injected fault: the in-memory model is corrupt; fail before the
        // forward pass, exactly where a real poisoned model would.
        Err(Rejection::Estimate(EstimateError::Execution(format!(
            "sketch '{sketch}' model poisoned (fault injection)"
        ))))
    } else if let Some(v) = admitted.cache.and_then(|c| c.get(&admitted.key)) {
        // Warm cache: the memoized answer is bit-identical to what the
        // forward pass produced when it was inserted, so the wire bytes
        // match a cold estimate exactly.
        cache_hit = true;
        let now = Instant::now();
        Ok((
            v,
            StageStamps {
                enqueued: now,
                dequeued: now,
                forward_start: now,
                forward_end: now,
                batch_span: 0,
            },
        ))
    } else {
        // The store generation keys the batch: jobs coalesce only within
        // one model version, so a concurrent retraining swap or
        // remove/re-insert can never mix models inside a batch.
        let generation = admitted.generation;
        match (shared.batcher).estimate_with_trace(generation, estimator, query, req.child) {
            Ok(_) if faults.is_some_and(|f| f.should_flip_decode(sketch)) => {
                Err(Rejection::Estimate(EstimateError::Decode(format!(
                    "sketch '{sketch}' decode flipped (fault injection)"
                ))))
            }
            other => other,
        }
    };
    let rejection = match result {
        Ok((value, stamps)) => {
            return Outcome::Answered {
                admitted: Box::new(admitted),
                value,
                stamps,
                cache_hit,
            }
        }
        Err(r) => r,
    };
    let tripped = health_failure(&rejection).then_some(admitted.breaker);
    let response = (tripped.as_ref().and(fallback_query))
        .and_then(|q| fallback_value(&q, shared))
        .map_or_else(|| rejection_response(rejection), Response::Degraded);
    Outcome::Unanswered(response, tripped)
}

/// Records one finished request in one place — metrics, SLOs, breaker,
/// drift monitor, harvest, drift invalidation, cache insert and shadow
/// mirror — and returns its wire response plus, for answered requests
/// with the timeline on, the timeline still waiting for its write stamp.
fn record(
    req: &EstimateRequest<'_>,
    outcome: Outcome<'_>,
    shared: &Shared,
) -> (Response, Option<PendingTimeline>) {
    let latency = req.t0.elapsed();
    let (admitted, value, stamps, cache_hit) = match outcome {
        Outcome::Answered {
            admitted,
            value,
            stamps,
            cache_hit,
        } => (*admitted, value, stamps, cache_hit),
        Outcome::Unanswered(response, tripped) => {
            if let Some(breaker) = tripped {
                breaker.record_failure();
            }
            match response {
                Response::Degraded(_) => {
                    shared.metrics.record_degraded();
                    ds_obs::global().count("serve/degraded", 1);
                    shared.metrics.record_ok(latency);
                    shared.record_slos(Some(latency), false, None);
                }
                // The batcher already counted its sheds and timeouts.
                Response::Busy(_)
                | Response::Error {
                    code: ErrorCode::Timeout,
                    ..
                } => shared.record_slos(None, true, None),
                _ => {
                    shared.metrics.record_error();
                    shared.record_slos(None, true, None);
                }
            }
            return (response, None);
        }
    };
    admitted.breaker.record_success();
    shared.metrics.record_ok(latency);
    let qerror = req
        .feedback
        .map(|actual| ds_core::metrics::qerror(value, actual.max(1) as f64));
    shared.record_slos(Some(latency), false, qerror);
    let drifted = req
        .feedback
        .is_some_and(|actual| record_feedback(req, &admitted, value, actual, shared));
    if let Some(c) = admitted.cache.filter(|_| !cache_hit && !drifted) {
        c.insert(admitted.key, value);
    }
    // Mirror the request to the shadow scorer *after* answering is
    // decided: the candidate never contributes to the wire response, and a
    // full queue drops the mirror (counted), never the client.
    if let (Some(lc), Some(query)) = (shared.lifecycle.as_ref(), admitted.mirror) {
        let job = ShadowJob {
            sketch: req.sketch.to_string(),
            query,
            live: value,
            actual: req.feedback,
            trace: req.child,
        };
        let counter = match lc.shadow_tx.try_send(job) {
            Ok(()) => &lc.mirrored,
            Err(_) => &lc.shadow_dropped,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
    let pending = shared.timeline.then(|| PendingTimeline {
        sketch: req.sketch.to_string(),
        template: admitted
            .template
            .expect("template interned when timeline on"),
        stamps,
        trace: req.trace,
    });
    (Response::Estimate(value), pending)
}

/// Grades one answered `FEEDBACK`: feeds the drift monitor and the
/// lifecycle harvest, and once the template's rolling q-error has drifted
/// past the training-time baseline, drops the template's cached estimates.
/// Returns whether it dropped them (the answer is then not re-inserted).
fn record_feedback(
    req: &EstimateRequest<'_>,
    admitted: &Admitted<'_>,
    value: f64,
    actual: u64,
    shared: &Shared,
) -> bool {
    let template = admitted.template.as_deref().unwrap_or("");
    let monitor = shared.monitors.monitor(req.sketch);
    monitor.record(template, value, actual as f64);
    // Graded queries feed the lifecycle harvest (and, post-swap, the guard
    // window), deduplicated on the concrete query; the raw SQL rides along
    // so the daemon can re-parse it for incremental retraining.
    if let Some(lc) = shared.lifecycle.as_ref() {
        let key = admitted.key.canonical().concrete_label(template);
        lc.manager
            .observe_feedback(req.sketch, &key, req.sql, value, actual);
    }
    let (Some(cache), Some(base)) = (admitted.cache, admitted.baseline.as_ref()) else {
        return false;
    };
    let stale = monitor
        .template_rolling(template)
        .and_then(|rolling| ds_core::maintain::accuracy_drift(base, &rolling))
        .is_some_and(|d| {
            d.is_stale(
                ds_core::maintain::DEFAULT_DRIFT_RATIO,
                ds_core::maintain::DEFAULT_MIN_SAMPLES,
            )
        });
    if stale {
        cache.invalidate_template(req.sketch, admitted.key.canonical().template());
    }
    stale
}

/// The lifecycle daemon loop: drains mirrored shadow jobs, steps the
/// retrain state machine every `tick_interval`, and persists dirty
/// harvest sets alongside the snapshots. Persists once more on shutdown
/// so a graceful stop never loses harvested queries.
fn run_lifecycle_daemon(shared: &Arc<Shared>, rx: &Receiver<ShadowJob>) {
    let lc = shared
        .lifecycle
        .as_ref()
        .expect("daemon spawned only with lifecycle configured");
    let tick_every = lc.manager.config().tick_interval;
    let mut last_tick = Instant::now();
    while !shared.shutting_down.load(Ordering::SeqCst) {
        match rx.recv_timeout(tick_every.min(POLL_INTERVAL)) {
            Ok(job) => shadow_score(job, shared),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        if last_tick.elapsed() >= tick_every {
            last_tick = Instant::now();
            lc.manager.tick(
                &shared.store,
                &shared.monitors,
                &shared.db,
                shared.snapshot_dir.as_deref(),
            );
            if let Some(dir) = shared.snapshot_dir.as_deref() {
                lc.manager.persist_harvests(dir);
            }
        }
    }
    if let Some(dir) = shared.snapshot_dir.as_deref() {
        lc.manager.persist_harvests(dir);
    }
}

/// Scores one mirrored request on the shadow candidate. The candidate
/// answers through the same batcher as live traffic — bit-exact mirroring
/// — but under its *reserved* generation, so mirrored jobs can never
/// coalesce into a live batch and the candidate never serves a client.
/// Graded mirrors (FEEDBACK) feed the shadow gate; ungraded ones still
/// run to keep mirroring cost honest but record nothing.
fn shadow_score(job: ShadowJob, shared: &Shared) {
    let Some(lc) = shared.lifecycle.as_ref() else {
        return;
    };
    let Some((candidate, shadow_generation)) = lc.manager.shadow_pair(&job.sketch) else {
        return;
    };
    let Ok((candidate_v, _)) =
        shared
            .batcher
            .estimate_with_trace(shadow_generation, candidate, job.query, job.trace)
    else {
        return;
    };
    if let Some(actual) = job.actual {
        let truth = actual.max(1) as f64;
        lc.manager.observe_shadow(
            &job.sketch,
            ds_core::metrics::qerror(job.live, truth),
            ds_core::metrics::qerror(candidate_v, truth),
        );
    }
}

/// `LIFECYCLE <sketch>`: one-line status of the retrain-and-hot-swap
/// state machine. Per-sketch phase and shadow medians come from the
/// manager; the counters are manager-wide so an operator can watch a
/// drill converge over a single connection.
fn handle_lifecycle(sketch: &str, shared: &Shared) -> Response {
    let Some(lc) = shared.lifecycle.as_ref() else {
        return Response::Text(format!("LIFECYCLE {sketch} disabled"));
    };
    let status = lc.manager.status(sketch);
    // A sketch with no lifecycle state yet reads as Idle — but an unknown
    // name should answer like INFO does, with the store error.
    if status.phase == LifecyclePhase::Idle && status.harvested == 0 {
        if let Err(e) = shared.store.get(sketch) {
            return store_error_response(&e);
        }
    }
    let c = lc.manager.counters();
    Response::Text(format!(
        "LIFECYCLE {sketch} phase={} generation={} harvested={} shadow_samples={} \
         shadow_live_p50={:.3} shadow_candidate_p50={:.3} swaps={} rollbacks={} \
         gate_rejects={} retrains={} promotions={}",
        status.phase.as_str(),
        shared.store.generation(sketch).unwrap_or(0),
        status.harvested,
        status.shadow_samples,
        status.shadow_live_p50,
        status.shadow_candidate_p50,
        c.swaps,
        c.rollbacks,
        c.gate_rejects,
        c.retrains_started,
        c.promotions,
    ))
}

/// Renders every counter, gauge, and histogram as Prometheus text
/// exposition. Real newlines cannot cross the one-line wire, so they are
/// escaped as literal `\n`; [`crate::Connection::stats`] reverses this.
fn stats_payload(shared: &Shared) -> String {
    let m = &shared.metrics;
    let mut p = PromText::new();
    p.counter("serve/requests", m.requests.get())
        .counter("serve/ok", m.ok.get())
        .counter("serve/errors", m.errors.get())
        .counter("serve/shed", m.shed.get())
        .counter("serve/timeouts", m.timeouts.get())
        .counter("serve/degraded", m.degraded.get())
        .counter("serve/batches", m.batches.get());
    if let Some(c) = shared.cache.as_ref() {
        p.counter("serve/cache/hits", c.hits())
            .counter("serve/cache/misses", c.misses())
            .counter("serve/cache/evictions", c.evictions())
            .counter("serve/cache/invalidations", c.invalidations())
            .gauge("serve/cache/len", c.len() as f64);
    }
    p.counter(
        "serve/snapshots_shipped",
        shared.snapshots_shipped.load(Ordering::Relaxed),
    )
    .counter(
        "serve/sync/adopted",
        shared.sync_adopted.load(Ordering::Relaxed),
    )
    .counter(
        "serve/sync/stale",
        shared.sync_stale.load(Ordering::Relaxed),
    )
    .counter(
        "serve/sync/rejected",
        shared.sync_rejected.load(Ordering::Relaxed),
    );
    p.counter("serve/expired_jobs", shared.batcher.expired_jobs())
        .gauge("serve/queue_len", shared.batcher.queue_len() as f64)
        .gauge(
            "serve/active_connections",
            shared.active_connections.load(Ordering::SeqCst) as f64,
        )
        .summary("serve/latency_us", &m.latency_us.snapshot())
        .summary("serve/batch_size", &m.batch_size.snapshot())
        // Native histogram exposition beside the summaries: unlike
        // summary quantiles, cumulative buckets merge exactly across
        // shards (the fleet aggregator reconstructs and re-merges them).
        .histogram("serve/latency_us/hist", &m.latency_us.snapshot())
        .histogram("serve/batch_size/hist", &m.batch_size.snapshot())
        .summary("serve/stage/parse_us", &m.stage_parse_us.snapshot())
        .summary("serve/stage/queue_us", &m.stage_queue_us.snapshot())
        .summary(
            "serve/stage/batch_wait_us",
            &m.stage_batch_wait_us.snapshot(),
        )
        .summary("serve/stage/forward_us", &m.stage_forward_us.snapshot())
        .summary("serve/stage/write_us", &m.stage_write_us.snapshot())
        .counter(
            "serve/trace/kept",
            m.slow.pushed().saturating_sub(m.slow.dropped()),
        )
        .counter("serve/trace/dropped", m.slow.dropped());
    for name in shared.breakers.names() {
        let b = shared.breakers.breaker(&name);
        p.counter(&format!("serve/breaker/{name}/opened"), b.opened())
            .counter(
                &format!("serve/breaker/{name}/short_circuits"),
                b.short_circuits(),
            )
            .gauge(
                &format!("serve/breaker/{name}/open"),
                if b.is_open() { 1.0 } else { 0.0 },
            );
    }
    for name in shared.monitors.names() {
        if let Some(mon) = shared.monitors.get(&name) {
            p.summary(&format!("feedback/{name}/qerror_scaled"), &mon.rolling());
        }
    }
    if let Some(lc) = shared.lifecycle.as_ref() {
        let c = lc.manager.counters();
        p.counter("serve/lifecycle/harvested", c.harvested)
            .counter("serve/lifecycle/retrains_started", c.retrains_started)
            .counter("serve/lifecycle/retrains_failed", c.retrains_failed)
            .counter("serve/lifecycle/gate_rejects", c.gate_rejects)
            .counter("serve/lifecycle/swaps", c.swaps)
            .counter("serve/lifecycle/rollbacks", c.rollbacks)
            .counter("serve/lifecycle/promotions", c.promotions)
            .counter(
                "serve/lifecycle/mirrored",
                lc.mirrored.load(Ordering::Relaxed),
            )
            .counter(
                "serve/lifecycle/shadow_dropped",
                lc.shadow_dropped.load(Ordering::Relaxed),
            );
        for status in lc.manager.statuses() {
            let name = &status.sketch;
            let delta = if status.shadow_live_p50 > 0.0 {
                status.shadow_candidate_p50 / status.shadow_live_p50
            } else {
                0.0
            };
            p.gauge(
                &format!("serve/lifecycle/{name}/phase"),
                f64::from(status.phase.code()),
            )
            .gauge(
                &format!("serve/lifecycle/{name}/harvested"),
                status.harvested as f64,
            )
            .gauge(&format!("serve/lifecycle/{name}/shadow_delta"), delta);
        }
    }
    if !shared.slos.is_empty() {
        let now = shared.now_ms();
        for slo in &shared.slos {
            slo.tracker.render(now, &mut p);
        }
    }
    p.tracer(ds_obs::global());
    p.into_string().trim_end().replace('\n', "\\n")
}

/// Renders the slow-request exemplar ring as semicolon-separated records,
/// oldest first.
fn trace_payload(shared: &Shared) -> String {
    let exemplars = shared.metrics.slow.snapshot();
    if exemplars.is_empty() {
        return "(none)".to_string();
    }
    exemplars
        .iter()
        .map(RequestTimeline::to_wire)
        .collect::<Vec<_>>()
        .join(";")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_storage::gen::{imdb_database, ImdbConfig};

    #[test]
    fn interner_shares_one_rendering_per_query_shape() {
        let db = imdb_database(&ImdbConfig::tiny(3));
        let interner = TemplateInterner::new();
        let parse = |sql: &str| parse_query(&db, sql).expect("parse").canonical();
        // Same shape, different literals and clause order → one entry.
        let a = parse(
            "SELECT COUNT(*) FROM title t, movie_keyword mk \
             WHERE mk.movie_id = t.id AND t.production_year > 1995",
        );
        let b = parse(
            "SELECT COUNT(*) FROM movie_keyword mk, title t \
             WHERE t.production_year > 2001 AND mk.movie_id = t.id",
        );
        let ta = interner.get(&db, &a);
        let tb = interner.get(&db, &b);
        assert!(Arc::ptr_eq(&ta, &tb), "same shape must intern to one Arc");
        assert_eq!(ta.as_ref(), a.template_label(&db));
        assert_eq!(ta.as_ref(), b.template_label(&db));

        // A different operator on the same column is a different shape.
        let c = parse(
            "SELECT COUNT(*) FROM title t, movie_keyword mk \
             WHERE mk.movie_id = t.id AND t.production_year < 1995",
        );
        let tc = interner.get(&db, &c);
        assert!(!Arc::ptr_eq(&ta, &tc));
        assert_eq!(tc.as_ref(), c.template_label(&db));
    }
}
