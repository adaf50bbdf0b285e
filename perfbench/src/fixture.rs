//! What every workload stands on: the bench IMDb, the sketch definition,
//! the seeded inputs, and the in-process server.
//!
//! The database and the sketch definition are fixed, so every seed runs
//! against the same system; `--seed` only changes the inputs fed to it
//! (the ad-hoc query stream and the order JOB-light queries are asked in).

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use ds_core::builder::{BuildProgress, SketchBuilder};
use ds_core::sketch::DeepSketch;
use ds_core::store::SketchStore;
use ds_est::oracle::TrueCardinalityOracle;
use ds_query::generator::{GeneratorConfig, QueryGenerator};
use ds_query::query::Query;
use ds_query::sqlgen::to_sql;
use ds_query::workloads::imdb_predicate_columns;
use ds_query::workloads::job_light::job_light_workload;
use ds_serve::{EstimateKey, ServeConfig, Server};
use ds_storage::catalog::Database;
use ds_storage::gen::{imdb_database, ImdbConfig};

use crate::host::{nproc, process_cpu_s, steal_jiffies};
use crate::quiet::{net_s, JIFFY_S};

/// Name the sketch is served under.
pub const SKETCH: &str = "imdb";
/// Seed of the bench database.
pub const DB_SEED: u64 = 0xBE7C_2024;
/// Seed of the sketch definition.
pub const SKETCH_SEED: u64 = DB_SEED ^ 2;
/// Training queries in the sketch definition.
pub const TRAINING_QUERIES: usize = 3_000;
/// Training epochs in the sketch definition.
pub const EPOCHS: usize = 10;
/// JOB-light instantiations (literal seeds) per run: 5 × 70 queries.
pub const JOB_LIGHT_SEEDS: u64 = 5;
/// Largest query the generator draws (JOB-light joins up to 5 tables).
pub const MAX_TABLES: usize = 5;
/// Most predicates per generated query.
pub const MAX_PREDICATES: usize = 4;

/// The bench IMDb (~92k rows over 6 tables).
pub fn bench_imdb() -> Database {
    imdb_database(&ImdbConfig {
        movies: 8_000,
        keywords: 4_000,
        companies: 1_500,
        persons: 20_000,
        seed: DB_SEED,
    })
}

/// The sketch definition every workload builds: the demo's "define a
/// sketch" form, labelled and trained with one thread per core. The
/// trained model keeps that thread count for its reference forward pass,
/// which is the path the server's batch worker takes, so the serving
/// workloads measure it as users who build this way get it.
pub fn sketch_builder(db: &Database) -> SketchBuilder<'_> {
    SketchBuilder::new(db, imdb_predicate_columns(db))
        .training_queries(TRAINING_QUERIES)
        .epochs(EPOCHS)
        .sample_size(100)
        .hidden_units(96)
        .batch_size(128)
        .max_tables(MAX_TABLES)
        .max_predicates(MAX_PREDICATES)
        .threads(nproc())
        .seed(SKETCH_SEED)
}

/// Where one build spent its time, from its progress events.
#[derive(Debug, Clone, Copy)]
pub struct BuildTimeline {
    pub start: Instant,
    pub generated: Instant,
    pub labelled: Instant,
    pub trained: Instant,
    pub end: Instant,
    /// Training queries labelled by execution.
    pub labels: usize,
    /// Training rows processed, summed over epochs.
    pub train_rows: f64,
    /// Host steal jiffies and process CPU seconds over the build.
    pub steal_jiffies: u64,
    pub cpu_s: f64,
}

impl BuildTimeline {
    pub fn total_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
    /// Build time net of the steal the host reported meanwhile.
    pub fn net_s(&self) -> f64 {
        net_s(self.total_s(), self.steal_jiffies as f64 * JIFFY_S)
    }
    pub fn sample_generate_s(&self) -> f64 {
        (self.generated - self.start).as_secs_f64()
    }
    pub fn execute_s(&self) -> f64 {
        (self.labelled - self.generated).as_secs_f64()
    }
    pub fn train_s(&self) -> f64 {
        (self.trained - self.labelled).as_secs_f64()
    }
    pub fn freeze_s(&self) -> f64 {
        (self.end - self.trained).as_secs_f64()
    }
}

/// Builds the benchmark sketch, timing each pipeline step between
/// `build_with_progress` events.
pub fn build_sketch(db: &Database) -> Result<(DeepSketch, BuildTimeline), String> {
    let (steal0, cpu0) = (steal_jiffies(), process_cpu_s());
    let start = Instant::now();
    let (mut generated, mut labelled, mut trained) = (start, start, start);
    let (mut labels, mut train_rows) = (0usize, 0.0f64);
    let (sketch, _report) = sketch_builder(db)
        .build_with_progress(&mut |event| {
            let now = Instant::now();
            match event {
                BuildProgress::QueriesGenerated { .. } => generated = now,
                BuildProgress::LabelsExecuted { done, .. } => {
                    labelled = now;
                    labels = done;
                }
                BuildProgress::EpochCompleted { stats, .. } => {
                    trained = now;
                    train_rows += stats.rows_per_sec * stats.duration.as_secs_f64();
                }
            }
        })
        .map_err(|e| format!("sketch build failed: {e}"))?;
    let end = Instant::now();
    Ok((
        sketch,
        BuildTimeline {
            start,
            generated,
            labelled,
            trained,
            end,
            labels,
            train_rows,
            steal_jiffies: steal_jiffies().saturating_sub(steal0),
            cpu_s: process_cpu_s() - cpu0,
        },
    ))
}

/// A splitmix64 step: derives independent stream seeds from the run seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// JOB-light × [`JOB_LIGHT_SEEDS`] literal seeds, in an order drawn from
/// the run seed. The literal seeds are fixed, so q-error figures compare
/// across runs; the run seed decides the order queries are asked in.
pub fn job_light_inputs(db: &Database, seed: u64) -> Vec<Query> {
    let mut queries: Vec<Query> = (0..JOB_LIGHT_SEEDS)
        .flat_map(|k| job_light_workload(db, k))
        .collect();
    shuffle(&mut queries, mix(seed, 2));
    queries
}

/// Fisher–Yates shuffle driven by a splitmix64 stream.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// True cardinalities of `queries`, executed with one thread per core.
pub fn true_counts(db: &Database, queries: &[Query]) -> Result<Vec<u64>, String> {
    TrueCardinalityOracle::new(db)
        .label_batch(queries, nproc())
        .map_err(|e| format!("true-cardinality execution failed: {e}"))
}

/// Ad-hoc inputs: `n` generated queries as SQL, pairwise distinct in the
/// estimate cache's canonical key, so none can hit the cache. Returns the
/// SQL and the nanoseconds spent in `to_sql`.
pub fn adhoc_inputs(db: &Database, seed: u64, n: usize) -> (Vec<String>, u128) {
    let mut cfg = GeneratorConfig::new(imdb_predicate_columns(db), mix(seed, 1));
    cfg.max_tables = MAX_TABLES;
    cfg.max_predicates = MAX_PREDICATES;
    let mut generator = QueryGenerator::new(db, cfg);
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    let mut sqlgen_ns = 0u128;
    while out.len() < n {
        let q = generator.generate();
        if seen.insert(EstimateKey::new(SKETCH, 0, &q)) {
            let t = Instant::now();
            out.push(to_sql(db, &q));
            sqlgen_ns += t.elapsed().as_nanos();
        }
    }
    (out, sqlgen_ns)
}

/// A server running the benchmark sketch, as users start one.
pub struct Serving {
    pub db: Arc<Database>,
    /// The very sketch instance the server answers with.
    pub sketch: Arc<DeepSketch>,
    pub generation: u64,
    pub server: Server,
    pub build: BuildTimeline,
    pub sketch_bytes: Vec<u8>,
}

/// Generates the database, defines and builds the sketch, and starts the
/// server with `ServeConfig::default()`.
pub fn start_serving() -> Result<Serving, String> {
    let db = Arc::new(bench_imdb());
    let (sketch, build) = build_sketch(&db)?;
    let sketch_bytes = sketch.to_bytes();
    let store = Arc::new(SketchStore::new());
    store
        .insert(SKETCH, sketch)
        .map_err(|e| format!("store insert failed: {e}"))?;
    let (sketch, generation) = store
        .get_with_generation(SKETCH)
        .map_err(|e| format!("store lookup failed: {e}"))?;
    let server = Server::start(Arc::clone(&db), Arc::clone(&store), ServeConfig::default())
        .map_err(|e| format!("server start failed: {e}"))?;
    Ok(Serving {
        db,
        sketch,
        generation,
        server,
        build,
        sketch_bytes,
    })
}
