//! Request coalescing: concurrent in-flight estimates against the same
//! sketch are gathered into micro-batches and answered through one
//! [`CardinalityEstimator::try_estimate_batch`] call instead of one forward
//! pass per connection.
//!
//! Design:
//!
//! * A bounded admission queue guards the workers. When it is full,
//!   [`Batcher::estimate_with_trace`] fails fast with [`Rejection::Busy`]
//!   — the caller sheds the request with a `BUSY` response instead of
//!   queueing an unbounded backlog.
//! * Worker threads pop the oldest job, then sweep the queue for every
//!   other job aimed at the *same estimator instance* (up to `max_batch`)
//!   and run them as one batch. Under concurrency the batch forms
//!   naturally: while one forward pass runs, new arrivals pile up behind
//!   it.
//! * Each job carries a deadline. Expired jobs are dropped before doing
//!   work (their submitter has already given up); waiting submitters time
//!   out with [`Rejection::Timeout`].
//! * Shutdown is graceful: workers drain the queue, then exit.
//!
//! Coalescing never changes results: estimators guarantee
//! `try_estimate_batch` is bit-identical to looped `try_estimate` calls,
//! and the integration tests assert it end to end.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ds_est::{CardinalityEstimator, EstimateError};
use ds_obs::{IdSource, TraceContext};
use ds_query::query::Query;

use crate::faults::FaultInjector;
use crate::metrics::Metrics;

/// The estimators a batcher serves: any trait object that can cross
/// threads. `Arc<DeepSketch>` coerces directly.
pub type SharedEstimator = Arc<dyn CardinalityEstimator + Send + Sync>;

/// Why a request did not produce an estimate.
#[derive(Debug, Clone, PartialEq)]
pub enum Rejection {
    /// Admission queue full; request shed.
    Busy {
        /// Queue length at rejection time.
        queued: usize,
    },
    /// The request missed its deadline.
    Timeout,
    /// The batcher is shutting down.
    ShuttingDown,
    /// The estimator rejected the query.
    Estimate(EstimateError),
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::Busy { queued } => write!(f, "admission queue full ({queued} waiting)"),
            Rejection::Timeout => write!(f, "request deadline exceeded"),
            Rejection::ShuttingDown => write!(f, "server shutting down"),
            Rejection::Estimate(e) => write!(f, "{e}"),
        }
    }
}

/// Tuning knobs for the coalescer.
#[derive(Debug, Clone)]
pub struct BatcherConfig {
    /// Worker threads executing micro-batches.
    pub workers: usize,
    /// Maximum queries coalesced into one forward pass.
    pub max_batch: usize,
    /// Admission-queue bound; beyond it requests shed with `BUSY`.
    pub queue_capacity: usize,
    /// Per-request deadline (submit → response).
    pub request_timeout: Duration,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_batch: 64,
            queue_capacity: 1024,
            request_timeout: Duration::from_secs(2),
        }
    }
}

/// Monotonic stamps marking where a job's time went, taken at admission
/// and by the batch worker. The server stitches them into the request
/// timeline (parse → queue-wait → batch-wait → forward → write); the
/// stamps are strictly ordered, so consecutive differences are the stage
/// durations and they sum to the span they cover by construction.
#[derive(Debug, Clone, Copy)]
pub struct StageStamps {
    /// When the job entered the admission queue.
    pub enqueued: Instant,
    /// When a worker swept the job out of the queue into a batch.
    pub dequeued: Instant,
    /// When the coalesced forward pass started.
    pub forward_start: Instant,
    /// When the coalesced forward pass finished.
    pub forward_end: Instant,
    /// Span id of the coalesced batch this job rode in — one id shared
    /// by every traced job in the batch, so a fleet aggregator can show
    /// which requests amortized one forward pass. Zero when no job in
    /// the batch was traced.
    pub batch_span: u64,
}

/// One finished job as delivered on the response channel: the estimate
/// (or error) plus its stage stamps.
struct Completed {
    /// The estimator's answer for this job's query.
    result: Result<f64, EstimateError>,
    /// Where the job's time went.
    stamps: StageStamps,
}

struct Job {
    /// Coalescing key. The server passes the sketch's store *generation*
    /// (unique per insert/swap for the store's lifetime), so a background
    /// retraining swap can never mix models inside one batch — even if the
    /// allocator reuses a freed sketch's address for its replacement, the
    /// generations differ. The worker sweep additionally requires
    /// [`Arc::ptr_eq`], so two estimators submitted under one key never
    /// share a forward pass.
    key: u64,
    estimator: SharedEstimator,
    query: Query,
    /// Trace context of the request (v3 peers), if any. Traced jobs make
    /// their batch mint a shared batch span id.
    trace: Option<TraceContext>,
    tx: Sender<Completed>,
    enqueued: Instant,
    deadline: Instant,
}

struct State {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    work_ready: Condvar,
    metrics: Arc<Metrics>,
    cfg: BatcherConfig,
    /// Jobs dropped unanswered because their deadline passed in-queue.
    expired: AtomicU64,
    /// Mints batch span ids for batches containing traced jobs.
    ids: IdSource,
    /// Test-only fault plan; `None` in production, and inert in release
    /// builds even when set (see [`FaultInjector::armed`]).
    faults: Option<Arc<FaultInjector>>,
}

/// The coalescing micro-batch executor. Share via the handle methods; one
/// per server.
pub struct Batcher {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Batcher {
    /// Starts the worker threads.
    pub fn new(cfg: BatcherConfig, metrics: Arc<Metrics>) -> Self {
        Self::with_faults(cfg, metrics, None)
    }

    /// Like [`Batcher::new`], with an optional fault plan whose
    /// forward-delay faults stall coalesced forward passes (degradation
    /// tests only — a configured injector is inert in release builds).
    pub fn with_faults(
        cfg: BatcherConfig,
        metrics: Arc<Metrics>,
        faults: Option<Arc<FaultInjector>>,
    ) -> Self {
        let cfg = BatcherConfig {
            workers: cfg.workers.max(1),
            max_batch: cfg.max_batch.max(1),
            queue_capacity: cfg.queue_capacity.max(1),
            ..cfg
        };
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            metrics,
            cfg,
            expired: AtomicU64::new(0),
            ids: IdSource::from_entropy(),
            faults,
        });
        let workers = (0..inner.cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("ds-serve-batch-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn batch worker")
            })
            .collect();
        Self { inner, workers }
    }

    /// Submits one estimate and waits for it, enforcing the configured
    /// per-request timeout. `key` is the coalescing key (the server passes
    /// the sketch's store generation); `trace` is the request's trace
    /// context, if any. Returns the estimate with the job's stage stamps,
    /// or sheds immediately with [`Rejection::Busy`] when the queue is full.
    pub fn estimate_with_trace(
        &self,
        key: u64,
        estimator: SharedEstimator,
        query: Query,
        trace: Option<TraceContext>,
    ) -> Result<(f64, StageStamps), Rejection> {
        let rx = self.submit(key, estimator, query, trace)?;
        match rx.recv_timeout(self.inner.cfg.request_timeout) {
            Ok(Completed {
                result: Ok(v),
                stamps,
            }) => Ok((v, stamps)),
            Ok(Completed { result: Err(e), .. }) => Err(Rejection::Estimate(e)),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                self.inner.metrics.record_timeout();
                Err(Rejection::Timeout)
            }
        }
    }

    /// [`Batcher::estimate_with_trace`] for an untraced request.
    pub fn estimate_traced_keyed(
        &self,
        key: u64,
        estimator: SharedEstimator,
        query: Query,
    ) -> Result<(f64, StageStamps), Rejection> {
        self.estimate_with_trace(key, estimator, query, None)
    }

    /// Enqueues one estimate without blocking and returns the receiver its
    /// result will arrive on. A batch containing at least one traced job
    /// mints a shared batch span id, returned to every job via
    /// [`StageStamps::batch_span`].
    fn submit(
        &self,
        key: u64,
        estimator: SharedEstimator,
        query: Query,
        trace: Option<TraceContext>,
    ) -> Result<Receiver<Completed>, Rejection> {
        let (tx, rx) = channel();
        let mut st = self.inner.state.lock().expect("batcher lock");
        if st.shutdown {
            return Err(Rejection::ShuttingDown);
        }
        if st.queue.len() >= self.inner.cfg.queue_capacity {
            let queued = st.queue.len();
            drop(st);
            self.inner.metrics.record_shed();
            return Err(Rejection::Busy { queued });
        }
        let enqueued = Instant::now();
        st.queue.push_back(Job {
            key,
            estimator,
            query,
            trace,
            tx,
            enqueued,
            deadline: enqueued + self.inner.cfg.request_timeout,
        });
        drop(st);
        self.inner.work_ready.notify_one();
        Ok(rx)
    }

    /// Current admission-queue length.
    pub fn queue_len(&self) -> usize {
        self.inner.state.lock().expect("batcher lock").queue.len()
    }

    /// Jobs dropped unanswered because their deadline passed in-queue.
    pub fn expired_jobs(&self) -> u64 {
        self.inner.expired.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: stops admission, drains every queued job, then
    /// joins the workers.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    fn begin_shutdown(&self) {
        self.inner.state.lock().expect("batcher lock").shutdown = true;
        self.inner.work_ready.notify_all();
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.begin_shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        // Wait for work; exit only when shut down AND drained.
        let mut batch = {
            let mut st = inner.state.lock().expect("batcher lock");
            loop {
                if !st.queue.is_empty() {
                    break;
                }
                if st.shutdown {
                    return;
                }
                st = inner.work_ready.wait(st).expect("batcher lock");
            }
            let first = st.queue.pop_front().expect("non-empty queue");
            let mut batch = vec![first];
            // Sweep the queue for jobs on the same estimator instance. The
            // key match is the intent ("same model version"); the pointer
            // check is the guarantee — two jobs whose keys collide can
            // never hand different models to one forward pass.
            let mut i = 0;
            while batch.len() < inner.cfg.max_batch && i < st.queue.len() {
                if st.queue[i].key == batch[0].key
                    && Arc::ptr_eq(&st.queue[i].estimator, &batch[0].estimator)
                {
                    batch.push(st.queue.remove(i).expect("index in range"));
                } else {
                    i += 1;
                }
            }
            batch
        };
        // The whole batch leaves the queue at one moment; the per-job
        // queue-wait is measured from each job's own enqueue stamp.
        let dequeued = Instant::now();

        // Skip jobs whose submitter already timed out.
        let before = batch.len();
        batch.retain(|j| j.deadline > dequeued);
        let dropped = (before - batch.len()) as u64;
        if dropped > 0 {
            inner.expired.fetch_add(dropped, Ordering::Relaxed);
        }
        if batch.is_empty() {
            continue;
        }

        // One coalesced forward pass outside the lock.
        let obs = ds_obs::global();
        let span = obs.span("serve/batch");
        let queries: Vec<Query> = batch.iter().map(|j| j.query.clone()).collect();
        // Injected stall (tests only): models a wedged forward pass so
        // deadline handling and breaker trips are exercised on the real
        // worker path.
        if let Some(delay) = inner.faults.as_ref().and_then(|f| f.forward_delay()) {
            std::thread::sleep(delay);
        }
        let forward_start = Instant::now();
        let results = batch[0].estimator.try_estimate_batch(&queries);
        let forward_end = Instant::now();
        drop(span);
        if obs.is_enabled() {
            obs.observe("serve/batch_size", batch.len() as u64);
        }
        inner.metrics.record_batch(batch.len());
        // One batch span links every traced request that shared this
        // forward pass; untraced batches mint nothing.
        let batch_span = if batch.iter().any(|j| j.trace.is_some()) {
            inner.ids.next_span()
        } else {
            0
        };
        for (job, result) in batch.into_iter().zip(results) {
            let stamps = StageStamps {
                enqueued: job.enqueued,
                dequeued,
                forward_start,
                forward_end,
                batch_span,
            };
            // A failed send means the waiter gave up; nothing to do.
            let _ = job.tx.send(Completed { result, stamps });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic stub: returns `base + query.tables.len()` after an
    /// optional artificial delay.
    struct StubEstimator {
        base: f64,
        delay: Duration,
    }

    impl CardinalityEstimator for StubEstimator {
        fn name(&self) -> &str {
            "Stub"
        }

        fn estimate(&self, query: &Query) -> f64 {
            std::thread::sleep(self.delay);
            self.base + query.tables.len() as f64
        }
    }

    fn queries(n: usize) -> Vec<Query> {
        // Queries only need distinguishable table counts for the stub.
        (0..n)
            .map(|i| {
                let mut q = Query::new();
                for t in 0..(i % 3) {
                    q.tables.push(ds_storage::catalog::TableId(t));
                }
                q
            })
            .collect()
    }

    #[test]
    fn coalesced_results_match_direct_estimates() {
        let est: SharedEstimator = Arc::new(StubEstimator {
            base: 10.0,
            delay: Duration::from_millis(1),
        });
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::new(
            BatcherConfig {
                workers: 2,
                max_batch: 8,
                queue_capacity: 256,
                request_timeout: Duration::from_secs(10),
            },
            Arc::clone(&metrics),
        );
        let qs = queries(48);
        std::thread::scope(|s| {
            let handles: Vec<_> = qs
                .iter()
                .map(|q| {
                    let est = Arc::clone(&est);
                    let batcher = &batcher;
                    let q = q.clone();
                    s.spawn(move || {
                        batcher
                            .estimate_traced_keyed(1, est, q)
                            .expect("estimate")
                            .0
                    })
                })
                .collect();
            for (h, q) in handles.into_iter().zip(&qs) {
                assert_eq!(h.join().unwrap(), est.estimate(q));
            }
        });
        batcher.shutdown();
        let snap = metrics.snapshot();
        assert!(snap.batches > 0);
        assert!(snap.batches <= 48, "batches={}", snap.batches);
        // With 48 concurrent 1ms jobs on 2 workers, at least some
        // coalescing must have happened.
        assert!(snap.max_batch > 1, "no coalescing observed");
        assert!(snap.max_batch <= 8, "max_batch cap violated");
    }

    #[test]
    fn full_queue_sheds_with_busy() {
        let est: SharedEstimator = Arc::new(StubEstimator {
            base: 0.0,
            delay: Duration::from_millis(50),
        });
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::new(
            BatcherConfig {
                workers: 1,
                max_batch: 1,
                queue_capacity: 2,
                request_timeout: Duration::from_secs(5),
            },
            Arc::clone(&metrics),
        );
        // One slow job occupies the worker; then fill the queue.
        let mut receivers = vec![batcher
            .submit(1, Arc::clone(&est), Query::new(), None)
            .unwrap()];
        let mut shed = 0;
        for _ in 0..16 {
            match batcher.submit(1, Arc::clone(&est), Query::new(), None) {
                Ok(rx) => receivers.push(rx),
                Err(Rejection::Busy { .. }) => shed += 1,
                Err(other) => panic!("unexpected rejection {other:?}"),
            }
        }
        assert!(shed > 0, "bounded queue never shed");
        assert_eq!(metrics.snapshot().shed, shed);
        // Everything admitted still completes (drain on shutdown).
        batcher.shutdown();
        for rx in receivers {
            assert!(rx.recv().unwrap().result.is_ok());
        }
    }

    #[test]
    fn stage_stamps_are_ordered_and_cover_the_forward_pass() {
        let est: SharedEstimator = Arc::new(StubEstimator {
            base: 1.0,
            delay: Duration::from_millis(10),
        });
        let batcher = Batcher::new(BatcherConfig::default(), Arc::new(Metrics::new()));
        let before = Instant::now();
        let (v, stamps) = batcher
            .estimate_traced_keyed(1, Arc::clone(&est), Query::new())
            .expect("estimate");
        assert_eq!(v, 1.0);
        assert!(stamps.enqueued >= before);
        assert!(stamps.dequeued >= stamps.enqueued);
        assert!(stamps.forward_start >= stamps.dequeued);
        assert!(stamps.forward_end >= stamps.forward_start);
        // The forward stage contains the stub's 10ms sleep.
        assert!(stamps.forward_end - stamps.forward_start >= Duration::from_millis(10));
        batcher.shutdown();
    }

    #[test]
    fn slow_estimator_times_out_without_blocking_forever() {
        let est: SharedEstimator = Arc::new(StubEstimator {
            base: 0.0,
            delay: Duration::from_millis(300),
        });
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::new(
            BatcherConfig {
                workers: 1,
                max_batch: 4,
                queue_capacity: 64,
                request_timeout: Duration::from_millis(30),
            },
            Arc::clone(&metrics),
        );
        let t0 = Instant::now();
        // First request occupies the worker for 300ms; the second cannot
        // start before its 30ms deadline and must time out.
        let _first = batcher
            .submit(1, Arc::clone(&est), Query::new(), None)
            .unwrap();
        let second = batcher
            .estimate_traced_keyed(1, Arc::clone(&est), Query::new())
            .map(|(v, _)| v);
        assert_eq!(second, Err(Rejection::Timeout));
        assert!(
            t0.elapsed() < Duration::from_millis(250),
            "blocked too long"
        );
        assert_eq!(metrics.snapshot().timeouts, 1);
        batcher.shutdown();
        // The expired job was dropped without being computed, or computed
        // before its deadline check — either way nothing hung or panicked.
    }

    #[test]
    fn estimator_errors_propagate_per_job() {
        struct FailingEstimator;
        impl CardinalityEstimator for FailingEstimator {
            fn name(&self) -> &str {
                "Failing"
            }
            fn estimate(&self, _q: &Query) -> f64 {
                1.0
            }
            fn try_estimate(&self, q: &Query) -> Result<f64, EstimateError> {
                if q.tables.is_empty() {
                    Err(EstimateError::Unroutable { tables: vec![] })
                } else {
                    Ok(7.0)
                }
            }
        }
        let est: SharedEstimator = Arc::new(FailingEstimator);
        let batcher = Batcher::new(BatcherConfig::default(), Arc::new(Metrics::new()));
        let mut ok_query = Query::new();
        ok_query.tables.push(ds_storage::catalog::TableId(0));
        assert_eq!(
            batcher
                .estimate_traced_keyed(1, Arc::clone(&est), ok_query)
                .map(|(v, _)| v),
            Ok(7.0)
        );
        assert_eq!(
            batcher
                .estimate_traced_keyed(1, Arc::clone(&est), Query::new())
                .map(|(v, _)| v),
            Err(Rejection::Estimate(EstimateError::Unroutable {
                tables: vec![]
            }))
        );
        batcher.shutdown();
    }

    #[test]
    fn different_estimator_instances_never_share_a_batch() {
        let a: SharedEstimator = Arc::new(StubEstimator {
            base: 100.0,
            delay: Duration::from_millis(5),
        });
        let b: SharedEstimator = Arc::new(StubEstimator {
            base: 200.0,
            delay: Duration::from_millis(5),
        });
        let batcher = Batcher::new(
            BatcherConfig {
                workers: 1,
                max_batch: 64,
                queue_capacity: 256,
                request_timeout: Duration::from_secs(10),
            },
            Arc::new(Metrics::new()),
        );
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..32)
                .map(|i| {
                    let est = if i % 2 == 0 {
                        Arc::clone(&a)
                    } else {
                        Arc::clone(&b)
                    };
                    let expected = if i % 2 == 0 { 100.0 } else { 200.0 };
                    let batcher = &batcher;
                    s.spawn(move || {
                        let (got, _) = batcher
                            .estimate_traced_keyed(i % 2, est, Query::new())
                            .expect("estimate");
                        assert_eq!(got, expected);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        batcher.shutdown();
    }

    #[test]
    fn colliding_keys_never_mix_estimator_instances() {
        // Two distinct estimator instances submitted under the SAME key —
        // the ABA shape a store generation collision would produce. The
        // Arc::ptr_eq sweep guard must keep their batches separate.
        let a: SharedEstimator = Arc::new(StubEstimator {
            base: 100.0,
            delay: Duration::from_millis(5),
        });
        let b: SharedEstimator = Arc::new(StubEstimator {
            base: 200.0,
            delay: Duration::from_millis(5),
        });
        let batcher = Batcher::new(
            BatcherConfig {
                workers: 1,
                max_batch: 64,
                queue_capacity: 256,
                request_timeout: Duration::from_secs(10),
            },
            Arc::new(Metrics::new()),
        );
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..32)
                .map(|i| {
                    let est = if i % 2 == 0 {
                        Arc::clone(&a)
                    } else {
                        Arc::clone(&b)
                    };
                    let expected = if i % 2 == 0 { 100.0 } else { 200.0 };
                    let batcher = &batcher;
                    s.spawn(move || {
                        let rx = batcher.submit(7, est, Query::new(), None).expect("submit");
                        let got = rx.recv().expect("result").result.expect("estimate");
                        assert_eq!(got, expected);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        batcher.shutdown();
    }

    #[test]
    fn forward_delay_fault_stalls_the_batch_worker() {
        let faults = Arc::new(crate::faults::FaultInjector::new(11));
        faults.delay_forwards(Duration::from_millis(40), 1.0);
        let est: SharedEstimator = Arc::new(StubEstimator {
            base: 1.0,
            delay: Duration::ZERO,
        });
        let batcher = Batcher::with_faults(
            BatcherConfig::default(),
            Arc::new(Metrics::new()),
            Some(Arc::clone(&faults)),
        );
        let t0 = Instant::now();
        assert_eq!(
            batcher
                .estimate_traced_keyed(1, Arc::clone(&est), Query::new())
                .map(|(v, _)| v),
            Ok(1.0)
        );
        if crate::faults::FaultInjector::armed() {
            assert!(
                t0.elapsed() >= Duration::from_millis(40),
                "injected stall skipped: {:?}",
                t0.elapsed()
            );
        }
        batcher.shutdown();
    }

    #[test]
    fn traced_batches_mint_one_shared_batch_span() {
        let est: SharedEstimator = Arc::new(StubEstimator {
            base: 1.0,
            delay: Duration::ZERO,
        });
        let batcher = Batcher::new(BatcherConfig::default(), Arc::new(Metrics::new()));
        // Untraced job: no batch span.
        let (_, stamps) = batcher
            .estimate_traced_keyed(1, Arc::clone(&est), Query::new())
            .expect("estimate");
        assert_eq!(stamps.batch_span, 0);
        // Traced job: a nonzero span.
        let ctx = TraceContext {
            trace_id: 7,
            span_id: 9,
        };
        let (_, stamps) = batcher
            .estimate_with_trace(3, Arc::clone(&est), Query::new(), Some(ctx))
            .expect("estimate");
        assert_ne!(stamps.batch_span, 0);
        batcher.shutdown();
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::new(BatcherConfig::default(), metrics);
        batcher.begin_shutdown();
        let est: SharedEstimator = Arc::new(StubEstimator {
            base: 0.0,
            delay: Duration::ZERO,
        });
        assert!(matches!(
            batcher.submit(1, est, Query::new(), None),
            Err(Rejection::ShuttingDown)
        ));
        batcher.shutdown();
    }
}
