//! The client side of the serving workloads: an optimizer-facing
//! estimator that asks the server over the wire, cache counters read
//! from `STATS`, and the in-process replay of a request through the
//! layer functions the server runs for it.

use std::cell::{Cell, RefCell};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ds_core::featurize::QueryIndexFeatures;
use ds_core::sketch::DeepSketch;
use ds_est::CardinalityEstimator;
use ds_nn::frozen::{FrozenModel, FrozenScratch, IndexSet};
use ds_query::parser::parse_query;
use ds_query::query::Query;
use ds_query::sqlgen::to_sql;
use ds_serve::{
    format_response, parse_request, Batcher, BatcherConfig, Connection, EstimateCache, Metrics,
    Request, Response, ServeConfig, SharedEstimator,
};
use ds_storage::catalog::Database;

use crate::fixture::SKETCH;
use crate::trace::Tracer;

/// Read deadline on benchmark connections: far above any healthy answer
/// (the server's own request deadline is 2 s), so only a wedged server
/// trips it.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

pub fn connect(addr: SocketAddr) -> std::io::Result<Connection> {
    Connection::connect_timeout(addr, CLIENT_TIMEOUT)
}

pub fn estimate_request(sql: String) -> Request {
    Request::Estimate {
        sketch: SKETCH.to_string(),
        sql,
        trace: None,
    }
}

pub fn feedback_request(sql: String, actual: u64) -> Request {
    Request::Feedback {
        sketch: SKETCH.to_string(),
        actual,
        sql,
        trace: None,
    }
}

/// One ESTIMATE the adapter sent, kept for the traced replay.
#[derive(Debug, Clone)]
pub struct WireCall {
    pub sql: String,
    pub response: Response,
    pub sqlgen: (Instant, Instant),
    pub roundtrip: (Instant, Instant),
}

/// A [`CardinalityEstimator`] that renders each sub-plan as SQL and asks
/// the server for it over one connection. Failures (BUSY, ERR, I/O) are
/// counted and answered with 1.0, so the optimizer still finishes and
/// the wrong plan shows up in the plan check.
pub struct WireEstimator<'a> {
    db: &'a Database,
    conn: RefCell<Connection>,
    record: bool,
    calls: RefCell<Vec<WireCall>>,
    sent: Cell<u64>,
    failed: Cell<u64>,
}

impl<'a> WireEstimator<'a> {
    /// `record` keeps every call (SQL, answer, timestamps) for tracing.
    pub fn new(db: &'a Database, conn: Connection, record: bool) -> Self {
        Self {
            db,
            conn: RefCell::new(conn),
            record,
            calls: RefCell::new(Vec::new()),
            sent: Cell::new(0),
            failed: Cell::new(0),
        }
    }

    /// Requests sent so far.
    pub fn sent(&self) -> u64 {
        self.sent.get()
    }

    /// Requests that did not come back as an estimate.
    pub fn failed(&self) -> u64 {
        self.failed.get()
    }

    /// Drains the recorded calls.
    pub fn take_calls(&self) -> Vec<WireCall> {
        std::mem::take(&mut self.calls.borrow_mut())
    }

    /// Sends one more request on the adapter's connection, counting it.
    pub fn roundtrip(&self, req: &Request) -> std::io::Result<Response> {
        self.sent.set(self.sent.get() + 1);
        let r = self.conn.borrow_mut().roundtrip(req, true);
        if !matches!(r, Ok(Response::Estimate(_))) {
            self.failed.set(self.failed.get() + 1);
        }
        r
    }

    pub fn into_connection(self) -> Connection {
        self.conn.into_inner()
    }
}

impl CardinalityEstimator for WireEstimator<'_> {
    fn name(&self) -> &str {
        "wire"
    }

    fn estimate(&self, query: &Query) -> f64 {
        let t0 = Instant::now();
        let sql = to_sql(self.db, query);
        let t1 = Instant::now();
        let req = estimate_request(sql);
        let response = self.roundtrip(&req);
        let t2 = Instant::now();
        let value = match &response {
            Ok(Response::Estimate(v)) => *v,
            _ => 1.0,
        };
        if self.record {
            let Request::Estimate { sql, .. } = req else {
                unreachable!("built as an ESTIMATE above")
            };
            self.calls.borrow_mut().push(WireCall {
                sql,
                response: response.unwrap_or(Response::Bye),
                sqlgen: (t0, t1),
                roundtrip: (t1, t2),
            });
        }
        value
    }
}

/// The server's estimate-cache counters, read from `STATS`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheCounters {
    pub hits: f64,
    pub misses: f64,
    pub invalidations: f64,
    pub batches: f64,
}

impl CacheCounters {
    pub fn delta(&self, before: &Self) -> Self {
        Self {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            invalidations: self.invalidations - before.invalidations,
            batches: self.batches - before.batches,
        }
    }
}

/// Reads the cache counters from the server's `STATS` exposition: one
/// wire line with its newlines escaped as `\\n`, holding `# TYPE`
/// headers and `name value` samples.
pub fn cache_counters(conn: &mut Connection) -> Result<CacheCounters, String> {
    let payload = match conn.roundtrip(&Request::Stats, false) {
        Ok(Response::Text(t)) => t,
        other => return Err(format!("STATS failed: {other:?}")),
    };
    let doc = payload.replace("\\n", "\n");
    let tokens: Vec<&str> = doc.split_whitespace().collect();
    let value = |name: &str| {
        tokens
            .windows(2)
            .find(|w| w[0] == name && w[1].parse::<f64>().is_ok())
            .map(|w| w[1].parse::<f64>().expect("checked by the find"))
            .ok_or_else(|| format!("STATS lacks {name}"))
    };
    Ok(CacheCounters {
        hits: value("ds_serve_cache_hits")?,
        misses: value("ds_serve_cache_misses")?,
        invalidations: value("ds_serve_cache_invalidations")?,
        batches: value("ds_serve_batches")?,
    })
}

/// Forward-pass FLOPs of one query, computed (not measured) from the
/// frozen layer shapes and the query's featurized sets: two per
/// multiply-add. The first layer of each set module gathers only the
/// active feature rows, so it costs `active features × hidden`; bias,
/// ReLU and pooling are left out.
pub fn forward_flops(model: &FrozenModel, feats: &QueryIndexFeatures) -> u64 {
    let [t1, t2, j1, j2, p1, p2, o1, o2] = model.layers();
    let set = |l1: &ds_nn::frozen::FrozenLinear, l2: &ds_nn::frozen::FrozenLinear, s: &IndexSet| {
        s.elems
            .iter()
            .map(|&(start, len)| {
                let active = s.entries[start as usize..(start + len) as usize]
                    .iter()
                    .filter(|&&(_, v)| v != 0.0)
                    .count() as u64;
                2 * active * l1.out_dim() as u64 + 2 * (l2.in_dim() * l2.out_dim()) as u64
            })
            .sum::<u64>()
    };
    set(t1, t2, &feats.tables)
        + set(j1, j2, &feats.joins)
        + set(p1, p2, &feats.preds)
        + 2 * (o1.in_dim() * o1.out_dim() + o2.in_dim() * o2.out_dim()) as u64
}

/// Replays requests through the layer functions the server runs, in
/// pipeline order: protocol parse → SQL parse → cache probe → batcher
/// (→ the batch worker's `try_estimate_batch`) → cache insert → response
/// format. The cache and batcher are the benchmark's own instances, built
/// with the server's default settings and fed the same request stream.
///
/// On a miss the fused single-query path — `estimate_one`, and under it
/// `featurize_indices` and `forward_query` — is replayed too, as a
/// separate root span of the request: with an f32 artifact the batch
/// worker answers through the chunked reference path instead, so the
/// fused path is not part of the round trip.
pub struct Replayer<'a> {
    db: &'a Database,
    sketch: &'a Arc<DeepSketch>,
    shared: SharedEstimator,
    generation: u64,
    cache: &'a EstimateCache,
    batcher: &'a Batcher,
}

/// Per-thread scratch and counters of a [`Replayer`].
#[derive(Default)]
pub struct ReplayState {
    feats: QueryIndexFeatures,
    scratch: FrozenScratch,
    /// Queries that took the model path.
    pub forwarded: u64,
    /// Their summed computed FLOPs.
    pub flops: u64,
    /// Replayed answers that differed from the wire answer.
    pub mismatches: u64,
}

/// The replay's own cache and batcher, with the server's default settings.
pub fn replay_parts() -> (EstimateCache, Batcher) {
    let cfg = ServeConfig::default();
    let cache = EstimateCache::new(cfg.cache_capacity(), 8);
    let batcher = Batcher::new(
        BatcherConfig {
            workers: cfg.workers(),
            max_batch: cfg.max_batch(),
            request_timeout: cfg.request_timeout(),
            ..BatcherConfig::default()
        },
        Arc::new(Metrics::new()),
    );
    (cache, batcher)
}

impl<'a> Replayer<'a> {
    pub fn new(
        db: &'a Database,
        sketch: &'a Arc<DeepSketch>,
        generation: u64,
        cache: &'a EstimateCache,
        batcher: &'a Batcher,
    ) -> Self {
        let shared: SharedEstimator = Arc::clone(sketch) as SharedEstimator;
        Self {
            db,
            sketch,
            shared,
            generation,
            cache,
            batcher,
        }
    }

    /// Replays one answered request line whose wire round trip is span
    /// `roundtrip` of request `req`. Returns whether the replay cache hit.
    pub fn replay(
        &self,
        tr: &mut Tracer,
        st: &mut ReplayState,
        line: &str,
        response: &Response,
        roundtrip: u64,
        req: u64,
    ) -> bool {
        let (parsed, _) = tr.time("serve.protocol", roundtrip, req, || parse_request(line));
        let sql = match parsed {
            Ok(Request::Estimate { sql, .. }) | Ok(Request::Feedback { sql, .. }) => sql,
            _ => {
                st.mismatches += 1;
                return false;
            }
        };
        let (query, _) = tr.time("query.parse", roundtrip, req, || parse_query(self.db, &sql));
        let Ok(query) = query else {
            st.mismatches += 1;
            return false;
        };
        let ((key, cached), _) = tr.time("serve.cache_probe", roundtrip, req, || {
            let k = self.cache.key(SKETCH, self.generation, &query);
            let v = self.cache.get(&k);
            (k, v)
        });
        let value = match cached {
            Some(v) => Some(v),
            None => {
                let batch_id = tr.next_id();
                let t0 = Instant::now();
                let v = self
                    .batcher
                    .estimate_traced_keyed(self.generation, Arc::clone(&self.shared), query.clone())
                    .map(|(v, _)| v)
                    .ok();
                let t1 = Instant::now();
                tr.record_as(batch_id, "serve.batcher", roundtrip, req, t0, t1);
                // The call a batch worker makes for a batch of one.
                tr.time("core.estimate_batch", batch_id, req, || {
                    self.shared.try_estimate_batch(std::slice::from_ref(&query))
                });
                // The fused single-query path, outside the round-trip
                // ledger: a root span of the same request.
                let est_id = tr.next_id();
                let t2 = Instant::now();
                let direct = self.sketch.estimate_one(&query);
                let t3 = Instant::now();
                tr.record_as(est_id, "core.estimate", 0, req, t2, t3);
                if let Some(frozen) = self.sketch.frozen() {
                    tr.time("core.featurize", est_id, req, || {
                        self.sketch.featurizer().featurize_indices(
                            &query,
                            self.sketch.samples(),
                            &mut st.feats,
                        )
                    });
                    tr.time("nn.forward", est_id, req, || {
                        frozen.forward_query(
                            &st.feats.tables,
                            &st.feats.joins,
                            &st.feats.preds,
                            &mut st.scratch,
                        )
                    });
                    st.forwarded += 1;
                    st.flops += forward_flops(frozen, &st.feats);
                }
                if let Some(v) = v {
                    if v.to_bits() != direct.to_bits() {
                        st.mismatches += 1;
                    }
                    tr.time("serve.cache_probe", roundtrip, req, || {
                        self.cache.insert(key, v)
                    });
                }
                v
            }
        };
        let wire = match response {
            Response::Estimate(v) => Some(*v),
            _ => None,
        };
        if value.map(f64::to_bits) != wire.map(f64::to_bits) {
            st.mismatches += 1;
        }
        tr.time("serve.protocol", roundtrip, req, || {
            format_response(response)
        });
        cached.is_some()
    }
}
