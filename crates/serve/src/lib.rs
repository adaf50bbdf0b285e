//! `ds-serve`: a concurrent sketch-serving front end.
//!
//! A multi-threaded TCP server that exposes a [`SketchStore`] over a small
//! line-based text protocol (`ESTIMATE`, `INFO`, `LIST`, `METRICS`,
//! `QUIT`), built on the unified [`CardinalityEstimator`] API:
//!
//! * **Coalescing** — concurrent in-flight estimates against the same
//!   sketch are gathered into micro-batches and answered through one
//!   `estimate_batch` forward pass ([`batcher`]). Results are bit-identical
//!   to per-request `estimate_one` calls.
//! * **Caching** — a bounded, template-keyed estimate cache ([`cache`])
//!   short-circuits repeat healthy `ESTIMATE`s with bit-identical answers;
//!   entries are generation-keyed so sketch swaps invalidate structurally,
//!   and `FEEDBACK`-detected accuracy drift purges the drifting template.
//! * **Robustness** — per-request deadlines, a bounded admission queue
//!   that sheds with `BUSY`, a connection cap, and graceful shutdown that
//!   drains in-flight work ([`server`]).
//! * **Observability** — lock-free counters and log₂ latency/batch-size
//!   histograms, exposed through the `METRICS` command ([`metrics`]);
//!   per-request stage timelines (parse → queue-wait → batch-wait →
//!   forward → write) with slow-request exemplars behind `TRACE`, and a
//!   full Prometheus-style exposition behind `STATS`.
//! * **Model-quality feedback** — the `FEEDBACK` command replays observed
//!   true cardinalities into per-sketch rolling q-error monitors
//!   ([`ds_core::monitor`]); [`Server::monitors`] exposes them so
//!   maintenance can compare against each sketch's training-time baseline
//!   and recommend retraining
//!   ([`ds_core::advisor::recommend_retraining`]).
//! * **Graceful degradation** — per-sketch circuit breakers ([`breaker`])
//!   trip on consecutive health failures and route `ESTIMATE` traffic to a
//!   configured fallback estimator, flagged `degraded` on the wire; a
//!   deterministic fault-injection layer ([`faults`], inert in release
//!   builds) lets the degradation tests drive decode errors, stalled
//!   forward passes, and poisoned models through the real serving path.
//! * **Fleet** — a sharded, replicated tier ([`fleet`]): consistent-hash
//!   placement of sketches across shard servers with R-way replication,
//!   replicas bootstrapped by shipping `DSNP` snapshots over the wire
//!   (`SNAPSHOT`/`SYNC`), gossip-fed routing in [`FleetClient`], and
//!   automatic failover with re-replication when a replica dies. The wire
//!   protocol is versioned (`HELLO`) so old clients keep working.
//! * **Fleet observability** — cross-process trace propagation: a
//!   [`FleetClient`] mints one 128-bit trace per routed request and
//!   attaches it as a v3 `trace=` token; every shard records its spans
//!   into `TRACE` exemplars, and the `ds_fleetmon` aggregator scrapes
//!   all shards, merges their `STATS` expositions exactly (counters sum,
//!   histograms merge bucket-wise), and stitches cross-shard exemplars
//!   into one causal tree per trace. Declarative SLOs
//!   ([`ServeConfigBuilder::slos`]) grade every request and export
//!   multi-window burn rates; a firing burn alert demotes the shard in
//!   gossip-fed routing exactly like a breaker trip.
//! * **Self-maintaining serving** — an optional lifecycle daemon
//!   ([`ds_core::lifecycle`], enabled via
//!   [`ServeConfigBuilder::lifecycle`]) harvests `FEEDBACK`-graded
//!   queries, retrains a candidate off the hot path when drift fires,
//!   shadow-scores it on mirrored `ESTIMATE` traffic, and hot-swaps it
//!   under a fresh store generation — snapshotting first and rolling back
//!   automatically if post-swap accuracy regresses. Status behind the
//!   `LIFECYCLE` verb and `STATS` gauges.
//!
//! ```no_run
//! use std::sync::Arc;
//! use ds_serve::{Connection, ServeConfig, Server};
//!
//! # fn demo(db: Arc<ds_storage::catalog::Database>,
//! #         store: Arc<ds_core::store::SketchStore>) -> std::io::Result<()> {
//! let server = Server::start(db, store, ServeConfig::default())?;
//! let mut conn = Connection::connect(server.local_addr())?;
//! let card = conn.estimate_value("imdb", "SELECT COUNT(*) FROM title")?;
//! println!("estimated cardinality: {card}");
//! conn.quit()?;
//! server.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! [`SketchStore`]: ds_core::store::SketchStore
//! [`CardinalityEstimator`]: ds_est::CardinalityEstimator

#![warn(missing_docs)]

pub mod batcher;
pub mod breaker;
pub mod cache;
pub mod config;
pub mod connection;
pub mod faults;
pub mod fleet;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use batcher::{Batcher, BatcherConfig, Completed, Rejection, SharedEstimator, StageStamps};
pub use breaker::{Admit, BreakerConfig, BreakerRegistry, CircuitBreaker};
pub use cache::{EstimateCache, EstimateKey};
pub use config::{ConfigError, ServeConfig, ServeConfigBuilder, ServeSlo, SloSignal};
pub use connection::{Connection, Handshake, InfoCard, SyncAck};
pub use ds_core::lifecycle::{
    LifecycleConfig, LifecycleCounters, LifecycleManager, LifecyclePhase, LifecycleStatus,
};
pub use faults::FaultInjector;
pub use fleet::{
    Fleet, FleetClient, FleetClientConfig, FleetConfig, FleetTopology, HashRing, ShardHealth,
};
pub use metrics::{LogHistogram, Metrics, MetricsSnapshot, RequestTimeline};
pub use protocol::{
    format_response, parse_request, ErrorCode, Request, Response, PROTOCOL_VERSION,
    SUPPORTED_FEATURES,
};
pub use server::{Server, TemplateInterner};
