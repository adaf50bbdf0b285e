//! `bench_harness` — the pinned quick-mode benchmark suite behind the CI
//! `bench-smoke` gate.
//!
//! Runs eight stages sized to finish in a couple of minutes on one core:
//!
//! 1. **kernels** — tiled/threaded matmul vs the reference kernel at the
//!    MSCN-critical shapes (same shapes as the full `nn_kernels` bench);
//! 2. **training** — a miniature fig1a build (small synthetic IMDb, 800
//!    queries, 3 epochs) whose validation q-error is fully deterministic;
//! 3. **inference** — the frozen fused featurize-and-forward path vs the
//!    training-shape reference, single uncached estimates;
//! 4. **serving** — a small coalescing-vs-per-request client fleet against
//!    the TCP server, the tracing-enabled overhead measurement, and the
//!    warm-cache speedup of the template-keyed estimate cache;
//! 5. **fleet** — a 4-shard, R=2 replicated fleet behind the routing
//!    client: closed-loop throughput vs a single shard (gated as
//!    *scaling efficiency*, normalized by the cores actually available, so
//!    the gate is meaningful on a 1-core host), plus an open-loop chaos
//!    run that SIGKILLs a replica mid-traffic, restarts it, heals, and
//!    gates on **zero failed-forever requests** and **zero lost sketch
//!    generations**;
//! 6. **lifecycle** — the retrain-and-hot-swap machinery's serving-path
//!    cost: the generation-keyed store swap expressed as a fraction of one
//!    request's CPU budget, and the shadow-mirror work (`shadowing` check,
//!    query clone, job enqueue) microbenchmarked against the same budget —
//!    gated under the issue's 2% serve-throughput allowance;
//! 7. **observability** — the fleet observability plane's serving-path
//!    cost: the v3 trace-propagation work (client root mint + token
//!    format, server parse + span mint + child derivation, exemplar hex
//!    fields) as a fraction of the per-request CPU budget, gated under
//!    2%, and the wall latency of a fleetmon-style sweep that scrapes a
//!    4-shard fleet's `STATS` and merges the expositions (merge
//!    correctness asserted inline);
//! 8. **featurization** — the extended-operator feature path: the extra
//!    per-query cost of the schema-v2 per-predicate sampling-bitmap
//!    features (every predicate — `=`,`<`,`>`,`IN`,`LIKE` — evaluated
//!    against the materialized table samples) over the v1 featurizer on
//!    the same workload, expressed against the stage-4 per-request CPU
//!    budget and gated under 2% via a budget-pinned baseline.
//!
//! The run is written to `target/BENCH_quick.latest.json` and diffed
//! against the committed baseline `BENCH_quick.json`:
//!
//! ```text
//! bench_harness --quick --check                # gate against the baseline
//! bench_harness --quick --update               # refresh the baseline
//! bench_harness --quick --check --threshold 0.35
//! ```
//!
//! `--check` exits nonzero when any portable metric regressed past the
//! threshold (add `--strict` to gate absolute timings too — only sensible
//! when baseline and current ran on the same machine). `--trace` enables
//! the global `ds-obs` tracer and prints the span/counter report to stderr
//! after the run.

use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ds_bench::harness::{compare, BenchReport, Metric};
use ds_bench::loadgen::{run_open_loop, OpenLoopConfig};
use ds_bench::{banner, BENCH_SEED};
use ds_core::builder::SketchBuilder;
use ds_core::store::SketchStore;
use ds_nn::pool::PoolConfig;
use ds_nn::tensor::{reference, Kernel, Tensor};
use ds_obs::{PrettySink, Sink, TraceReport};
use ds_query::parser::parse_query;
use ds_query::workloads::imdb_predicate_columns;
use ds_serve::{
    Connection, FaultInjector, Fleet, FleetClient, FleetConfig, Metrics, RequestTimeline,
    ServeConfig, Server, TemplateInterner,
};
use ds_storage::catalog::Database;
use ds_storage::gen::{imdb_database, ImdbConfig};

const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
const DEFAULT_THRESHOLD: f64 = 0.25;

/// Quick-mode fleet size: small enough to finish in seconds, large enough
/// for coalescing to engage.
const CLIENTS: usize = 16;
const QUERIES_PER_CLIENT: usize = 25;

/// The CPU-budget and instrumented fleets run longer than the speedup
/// fleets so per-run spawn/teardown cost and the /proc CPU-tick
/// granularity amortize away.
const OVERHEAD_QUERIES_PER_CLIENT: usize = 200;

/// Same join-heavy workload shapes as the full `serve_throughput` bench.
const WORKLOAD: &[&str] = &[
    "SELECT COUNT(*) FROM title t, movie_keyword mk \
     WHERE mk.movie_id = t.id AND mk.keyword_id = 11",
    "SELECT COUNT(*) FROM title t, movie_keyword mk \
     WHERE mk.movie_id = t.id AND t.production_year > 1995",
    "SELECT COUNT(*) FROM title t, movie_companies mc \
     WHERE mc.movie_id = t.id AND mc.company_type_id = 1",
    "SELECT COUNT(*) FROM title t, movie_info mi \
     WHERE mi.movie_id = t.id AND mi.info_type_id < 50 AND t.kind_id = 1",
    "SELECT COUNT(*) FROM title t, movie_keyword mk, movie_companies mc \
     WHERE mk.movie_id = t.id AND mc.movie_id = t.id \
     AND t.production_year > 1990",
    "SELECT COUNT(*) FROM title t, cast_info ci, movie_info mi \
     WHERE ci.movie_id = t.id AND mi.movie_id = t.id AND ci.role_id = 2",
];

struct Options {
    check: bool,
    update: bool,
    strict: bool,
    trace: bool,
    threshold: f64,
    baseline: String,
    summary: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_harness [--quick] [--check] [--update] [--strict] [--trace]\n\
         \x20                    [--baseline <path>] [--threshold <frac>] [--summary <path>]\n\
         \n\
         --quick      run the pinned quick suite (default; only suite today)\n\
         --check      diff against the baseline; exit 1 on regression\n\
         --update     overwrite the baseline with this run\n\
         --strict     gate absolute timings too (same-machine diffs only)\n\
         --trace      enable the ds-obs tracer; print span report to stderr\n\
         --baseline   baseline path (default: <repo>/BENCH_quick.json)\n\
         --threshold  tolerated fractional worsening (default: {DEFAULT_THRESHOLD})\n\
         --summary    write a markdown diff table (for $GITHUB_STEP_SUMMARY)"
    );
    std::process::exit(2)
}

fn parse_args() -> Options {
    let mut opts = Options {
        check: false,
        update: false,
        strict: false,
        trace: false,
        threshold: DEFAULT_THRESHOLD,
        baseline: format!("{REPO_ROOT}/BENCH_quick.json"),
        summary: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => {} // the only suite; accepted for CI-visible intent
            "--check" => opts.check = true,
            "--update" => opts.update = true,
            "--strict" => opts.strict = true,
            "--trace" => opts.trace = true,
            "--baseline" => match args.next() {
                Some(p) => opts.baseline = p,
                None => usage(),
            },
            "--threshold" => match args.next().and_then(|t| t.parse::<f64>().ok()) {
                Some(t) if t >= 0.0 => opts.threshold = t,
                _ => usage(),
            },
            "--summary" => match args.next() {
                Some(p) => opts.summary = Some(p),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
    }
    opts
}

/// Compact metric formatting for the markdown table: enough digits to
/// compare, no scientific noise.
fn fmt_value(v: f64) -> String {
    if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 0.001 || v == 0.0 {
        format!("{v:.4}")
    } else {
        format!("{v:.2e}")
    }
}

/// Renders the current-vs-baseline diff as a GitHub-flavored markdown
/// table — the payload CI appends to `$GITHUB_STEP_SUMMARY` so a
/// regression is readable from the run page without downloading
/// artifacts. Written on success AND failure; `regressions` marks the
/// failing rows.
fn summary_markdown(
    baseline: Option<&BenchReport>,
    current: &BenchReport,
    regressions: &[ds_bench::harness::Regression],
    opts: &Options,
) -> String {
    use std::fmt::Write as _;
    let mut md = String::new();
    let _ = writeln!(md, "### bench_harness `{}` suite\n", current.suite);
    let _ = writeln!(
        md,
        "Gate: portable metrics{} within ±{:.0}% of `{}`.\n",
        if opts.strict {
            " and absolute timings (strict)"
        } else {
            ""
        },
        opts.threshold * 100.0,
        opts.baseline,
    );
    let _ = writeln!(md, "| metric | baseline | current | Δ | gated | status |");
    let _ = writeln!(md, "|---|---:|---:|---:|---|---|");
    for m in &current.metrics {
        let base = baseline.and_then(|b| b.get(&m.name));
        let (base_s, delta_s) = match base {
            Some(b) if b.value != 0.0 => {
                let delta = (m.value - b.value) / b.value * 100.0;
                (fmt_value(b.value), format!("{delta:+.1}%"))
            }
            Some(b) => (fmt_value(b.value), "n/a".to_string()),
            None => ("—".to_string(), "new".to_string()),
        };
        let gated = if m.portable {
            "portable"
        } else if opts.strict {
            "strict"
        } else {
            "local"
        };
        let status = if regressions.iter().any(|r| r.name == m.name) {
            "**REGRESSED**"
        } else if base.is_some() {
            "ok"
        } else {
            "—"
        };
        let _ = writeln!(
            md,
            "| `{}` | {} | {} | {} | {} | {} |",
            m.name,
            base_s,
            fmt_value(m.value),
            delta_s,
            gated,
            status,
        );
    }
    if baseline.is_none() {
        let _ = writeln!(md, "\nNo readable baseline at `{}`.", opts.baseline);
    }
    md
}

/// Minimum wall-clock seconds of `iters` runs of `f`. For the ratio-style
/// gates (kernel speedup, coalescing speedup, tracing overhead) the minimum
/// is the noise-robust estimator: both variants of a ratio reach their
/// unperturbed best case, where a median still carries scheduler and
/// frequency-scaling jitter that skews the ratio.
fn min_secs<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Cumulative process CPU seconds (user + system) from `/proc/self/stat`.
/// The traced-overhead gate uses this for the per-request CPU budget —
/// unlike wall clock it does not count the fleet's idle waits.
fn process_cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Field 2 (comm) may contain spaces but is parenthesized; utime and
    // stime are the 12th and 13th fields after the closing paren.
    let rest = stat.rsplit(')').next().expect("stat format");
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().expect("utime").parse().expect("utime");
    let stime: f64 = fields.next().expect("stime").parse().expect("stime");
    (utime + stime) / 100.0
}

fn filled(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut s = seed | 1;
    let data = (0..rows * cols)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// Stage 1: matmul kernels at the MSCN-critical shapes, 25 iterations each
/// (vs 30 in the full bench). The tiled-vs-reference speedup of the two
/// substantial shapes is a dimensionless ratio and gates CI; the head
/// shape's 40µs kernel is too short for a stable ratio, so it (and all
/// absolute medians) only records for same-machine diffs.
fn stage_kernels(report: &mut BenchReport) {
    let shapes = [
        ("input_384x106_x256", 384usize, 106usize, 256usize, true),
        ("hidden_384x256_x256", 384, 256, 256, true),
        ("head_384x256_x1", 384, 256, 1, false),
    ];
    println!(
        "\n[1/8] matmul kernels ({} shapes, 25 iters):",
        shapes.len()
    );
    for (name, m, k, n, gated) in shapes {
        let a = filled(m, k, 0xA0 ^ m as u64);
        let b = filled(k, n, 0xB0 ^ n as u64);
        let t_ref = min_secs(25, || reference::matmul(&a, &b));
        let t_tiled = min_secs(25, || {
            a.matmul_pool(&b, Kernel::Dense, PoolConfig::single())
        });
        assert_eq!(
            reference::matmul(&a, &b).data(),
            a.matmul_pool(&b, Kernel::Dense, PoolConfig::single())
                .data(),
            "kernel paths diverged at {name}"
        );
        let speedup = t_ref / t_tiled;
        println!("  {name:<22} tiled {t_tiled:>10.6}s  speedup {speedup:>5.2}x");
        let speedup_name = format!("kernel/{name}/tiled_speedup");
        report.push(if gated {
            Metric::portable(speedup_name, speedup, true)
        } else {
            Metric::local(speedup_name, speedup, true)
        });
        report.push(Metric::local(
            format!("kernel/{name}/tiled_secs"),
            t_tiled,
            false,
        ));
    }
}

/// Stage 2: a miniature fig1a build. Seeded end to end and bit-identical
/// at any thread count, so the validation q-error is an exact, portable
/// quality gate; wall-clock numbers ride along as local metrics.
fn stage_training(report: &mut BenchReport) -> (Arc<Database>, Arc<SketchStore>) {
    println!("\n[2/8] mini fig1a build (800 queries, 3 epochs):");
    let db = Arc::new(imdb_database(&ImdbConfig {
        movies: 2_000,
        keywords: 1_000,
        companies: 400,
        persons: 5_000,
        seed: BENCH_SEED ^ 21,
    }));
    let (sketch, build) = SketchBuilder::new(&db, imdb_predicate_columns(&db))
        .training_queries(800)
        .epochs(3)
        .sample_size(256)
        .hidden_units(256)
        .max_tables(4)
        .max_predicates(4)
        .seed(BENCH_SEED ^ 22)
        .build_with_report()
        .expect("mini build");
    let val_qerror = build.training.final_val_qerror().expect("validation split");
    let total_secs =
        (build.generation + build.execution + build.featurization + build.training.total_duration)
            .as_secs_f64();
    let rows_per_sec = build
        .training
        .epochs
        .last()
        .map(|e| e.rows_per_sec)
        .unwrap_or(0.0);
    println!(
        "  val mean q-error {val_qerror:>8.3}   total {total_secs:>7.2}s   {rows_per_sec:>8.0} rows/s"
    );
    report.push(Metric::portable(
        "train/final_val_qerror",
        val_qerror,
        false,
    ));
    report.push(Metric::local("train/total_secs", total_secs, false));
    report.push(Metric::local("train/rows_per_sec", rows_per_sec, true));

    let store = Arc::new(SketchStore::new());
    store.insert("imdb", sketch).expect("fresh store");
    (db, store)
}

/// Stage 3: single uncached estimates through the frozen fused
/// featurize-and-forward path vs the training-shape reference forward. The
/// speedup is a dimensionless ratio and gates CI; the absolute per-estimate
/// latency records for same-machine diffs (the issue's sub-10µs target).
/// The fused path must stay bit-identical to the reference — asserted here
/// on the live workload before timing.
fn stage_inference(report: &mut BenchReport, db: &Arc<Database>, store: &Arc<SketchStore>) {
    println!("\n[3/8] frozen inference (fused featurize-and-forward):");
    let frozen = store.get("imdb").expect("sketch");
    assert!(
        frozen.frozen().is_some(),
        "builder finalize must attach the frozen artifact"
    );
    let mut reference = (*frozen).clone();
    reference.clear_frozen();
    let queries: Vec<_> = WORKLOAD
        .iter()
        .map(|sql| parse_query(db, sql).expect("parse workload"))
        .collect();
    for q in &queries {
        assert_eq!(
            frozen.estimate_one(q).to_bits(),
            reference.estimate_one(q).to_bits(),
            "fused path diverged from the reference"
        );
    }
    let t_ref = min_secs(100, || {
        for q in &queries {
            std::hint::black_box(reference.estimate_one(q));
        }
    });
    let t_frozen = min_secs(100, || {
        for q in &queries {
            std::hint::black_box(frozen.estimate_one(q));
        }
    });
    let speedup = t_ref / t_frozen;
    let single_us = t_frozen * 1e6 / queries.len() as f64;
    println!(
        "  reference {:>7.1} µs/est   frozen {single_us:>6.1} µs/est   speedup {speedup:.2}x",
        t_ref * 1e6 / queries.len() as f64
    );
    report.push(Metric::portable("infer/frozen_speedup", speedup, true));
    report.push(Metric::local("infer/single_estimate_us", single_us, false));
}

/// Runs a quick client fleet of `CLIENTS` connections issuing
/// `queries_per_client` estimates each; returns elapsed seconds.
/// `instrumented` turns on the per-request timeline pipeline with a zero
/// slow threshold, so every request pays for six stamps, five
/// stage-histogram records and an exemplar-ring push; the bare fleet turns
/// it off so the pair brackets the full tracing cost.
fn run_fleet(
    db: &Arc<Database>,
    store: &Arc<SketchStore>,
    max_batch: usize,
    queries_per_client: usize,
    instrumented: bool,
    cache_capacity: usize,
) -> f64 {
    let server = Server::start(
        Arc::clone(db),
        Arc::clone(store),
        ServeConfig::builder()
            .workers(1)
            .max_batch(max_batch)
            .queue_capacity(1024)
            .request_timeout(Duration::from_secs(60))
            .max_connections(CLIENTS + 4)
            .timeline(instrumented)
            .slow_threshold(Duration::ZERO)
            .cache_capacity(cache_capacity)
            .build()
            .expect("valid harness config"),
    )
    .expect("bind server");
    let addr = server.local_addr();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                s.spawn(move || {
                    let mut c = Connection::connect(addr).expect("connect");
                    for k in 0..queries_per_client {
                        let sql = WORKLOAD[(i + k) % WORKLOAD.len()];
                        c.estimate_value("imdb", sql).expect("wire estimate");
                    }
                    c.quit().expect("QUIT");
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let snap = server.shutdown();
    assert_eq!(snap.ok, (CLIENTS * queries_per_client) as u64);
    assert_eq!(snap.errors + snap.shed + snap.timeouts, 0);
    elapsed
}

/// Stage 3: coalesced vs per-request serving, plus the tracing overhead:
/// the same coalesced fleet with every observability hook live — request
/// timelines (stage histograms plus an exemplar for *every* request) and
/// the global `ds-obs` tracer — plus the traced-overhead gate.
///
/// The gated overhead is NOT a wall-clock fleet ratio: on a busy shared
/// host, fleet times (wall *and* CPU) fluctuate by ±10% in regimes lasting
/// many seconds, which no interleaving or robust statistic can average
/// away at CI-friendly durations — a 2% budget would gate on noise.
/// Instead the per-request instrumentation work (the exact code the server
/// runs: interned template lookup, six stamps, five histogram records,
/// exemplar materialization + ring push) is microbenchmarked in a tight
/// loop — stable to nanoseconds, like the kernel gates — and expressed as
/// a percentage of the coalesced per-request CPU budget measured from the
/// fleet. The committed baseline pins it at the issue's 2% budget so the
/// default CI threshold fails the gate near ~2.7%. The instrumented fleet
/// still runs end to end (proving the traced path under concurrency) and
/// records its wall clock as a local metric; `serve_throughput` reports
/// the honest end-to-end overhead into `BENCH_serve.json`.
fn stage_serving(report: &mut BenchReport, db: &Arc<Database>, store: &Arc<SketchStore>) -> f64 {
    let total = CLIENTS * QUERIES_PER_CLIENT;
    println!("\n[4/8] serving fleet ({CLIENTS} clients x {QUERIES_PER_CLIENT} queries):");
    // The coalescing and overhead fleets disable the estimate cache: they
    // measure the forward-pass path, and the 6-template workload would
    // otherwise be answered almost entirely from memory.
    let _ = run_fleet(db, store, 1, QUERIES_PER_CLIENT, false, 0); // warm-up
    let per_req_secs = min_secs(3, || run_fleet(db, store, 1, QUERIES_PER_CLIENT, false, 0));
    let coal_secs = min_secs(3, || run_fleet(db, store, 32, QUERIES_PER_CLIENT, false, 0));
    let per_req_rps = total as f64 / per_req_secs;
    let coal_rps = total as f64 / coal_secs;
    let speedup = coal_rps / per_req_rps;
    println!("  per-request {per_req_rps:>7.0} req/s   coalesced {coal_rps:>7.0} req/s   speedup {speedup:.2}x");

    // Warm-cache fleet: same coalesced config with the default cache on.
    // The fleet cycles 6 templates, so after one cold pass every request is
    // a hit — the ratio is the end-to-end value of the estimate cache.
    let warm_secs = min_secs(3, || {
        run_fleet(db, store, 32, QUERIES_PER_CLIENT, false, 4096)
    });
    let warm_rps = total as f64 / warm_secs;
    let cache_speedup = warm_rps / coal_rps;
    println!("  warm-cache  {warm_rps:>7.0} req/s   cache-hit speedup {cache_speedup:.2}x");

    // Per-request CPU budget of the coalesced path, from a longer fleet so
    // the /proc/self/stat tick granularity (~10ms) stays under 1%.
    let cpu0 = process_cpu_secs();
    let _ = run_fleet(db, store, 32, OVERHEAD_QUERIES_PER_CLIENT, false, 0);
    let request_cpu_us = (process_cpu_secs() - cpu0).max(1e-9) * 1e6
        / (CLIENTS * OVERHEAD_QUERIES_PER_CLIENT) as f64;

    // One fully instrumented fleet: timelines + exemplars (zero slow
    // threshold) + tracer. Proves the traced path under concurrency and
    // rides along as a local wall-clock reference.
    let obs = ds_obs::global();
    let was_enabled = obs.is_enabled();
    obs.enable();
    let traced_secs = run_fleet(db, store, 32, OVERHEAD_QUERIES_PER_CLIENT, true, 0);
    if !was_enabled {
        obs.disable();
    }
    let traced_rps = (CLIENTS * OVERHEAD_QUERIES_PER_CLIENT) as f64 / traced_secs;

    let instrumentation_us = time_instrumentation(db);
    let overhead_pct = instrumentation_us / request_cpu_us * 100.0;
    println!(
        "  traced coalesced {traced_rps:>7.0} req/s   instrumentation {:.0} ns/req \
         of {request_cpu_us:.0} µs/req -> overhead {overhead_pct:.2}% (budget < 2%)",
        instrumentation_us * 1e3
    );

    report.push(Metric::portable("serve/coalescing_speedup", speedup, true));
    report.push(Metric::portable(
        "serve/cache_hit_speedup",
        cache_speedup,
        true,
    ));
    report.push(Metric::local("serve/per_request_rps", per_req_rps, true));
    report.push(Metric::local("serve/warm_cache_rps", warm_rps, true));
    report.push(Metric::local("serve/coalesced_rps", coal_rps, true));
    report.push(Metric::local(
        "serve/traced_coalesced_rps",
        traced_rps,
        true,
    ));
    report.push(Metric::local("serve/request_cpu_us", request_cpu_us, false));
    report.push(Metric::portable(
        "serve/traced_overhead_pct",
        overhead_pct,
        false,
    ));
    request_cpu_us
}

/// Times one request's worth of timeline instrumentation — the exact extra
/// work `timeline: true` adds on the server: the interned template lookup
/// (the server canonicalizes every request anyway, so the canonical form
/// is built outside the timed loop), the six `Instant` stamps, the five
/// stage-histogram records, and the worst-case (zero slow threshold)
/// exemplar materialization + ring push. Returns microseconds per request.
fn time_instrumentation(db: &Arc<Database>) -> f64 {
    let interner = TemplateInterner::new();
    let metrics = Metrics::new();
    let queries: Vec<_> = WORKLOAD
        .iter()
        .map(|sql| parse_query(db, sql).expect("parse workload").canonical())
        .collect();
    let iters = 20_000usize;
    let secs = min_secs(5, || {
        for i in 0..iters {
            let q = &queries[i % queries.len()];
            let t0 = Instant::now();
            let template = interner.get(db, q);
            let (enq, deq, fwd_s, fwd_e) = (
                Instant::now(),
                Instant::now(),
                Instant::now(),
                Instant::now(),
            );
            let done = Instant::now();
            let us = |d: Duration| d.as_micros() as u64;
            metrics.record_stages(
                us(enq.duration_since(t0)),
                us(deq.duration_since(enq)),
                us(fwd_s.duration_since(deq)),
                us(fwd_e.duration_since(fwd_s)),
                us(done.duration_since(fwd_e)),
            );
            metrics.slow.push(RequestTimeline {
                sketch: "imdb".to_string(),
                template: template.as_ref().to_string(),
                total_us: us(done.duration_since(t0)),
                parse_us: 0,
                queue_us: 0,
                batch_wait_us: 0,
                forward_us: 0,
                write_us: 0,
                trace_id: 0,
                span_id: 0,
                parent_span: 0,
                batch_span: 0,
            });
        }
    });
    secs * 1e6 / iters as f64
}

/// Quick-mode fleet sizing: 4 shards, 2 copies of each sketch, a small
/// closed-loop client pool, and a short open-loop chaos run.
const FLEET_SHARDS: usize = 4;
const FLEET_REPLICATION: usize = 2;
const FLEET_CLIENTS: usize = 8;
const FLEET_QUERIES_PER_CLIENT: usize = 40;

fn fleet_config(shards: usize, replication: usize) -> FleetConfig {
    FleetConfig {
        shards,
        replication,
        server: ServeConfig::builder()
            .workers(1)
            .max_batch(32)
            .queue_capacity(1024)
            .request_timeout(Duration::from_secs(60))
            .max_connections(64)
            .timeline(false)
            .slow_threshold(Duration::ZERO)
            // Cold path: the fleet comparison measures the model, not the
            // estimate cache.
            .cache_capacity(0)
            .build()
            .expect("valid fleet config"),
        timeout: Duration::from_secs(60),
    }
}

/// Closed-loop fleet run: `FLEET_CLIENTS` threads, each with its own
/// routing [`FleetClient`], hammering the deployed sketch. Returns elapsed
/// seconds.
fn run_fleet_closed_loop(fleet: &Fleet) -> f64 {
    let topology = fleet.topology();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..FLEET_CLIENTS)
            .map(|i| {
                let topology = topology.clone();
                s.spawn(move || {
                    let mut c = FleetClient::new(topology);
                    for k in 0..FLEET_QUERIES_PER_CLIENT {
                        let sql = WORKLOAD[(i + k) % WORKLOAD.len()];
                        let (_, degraded) = c.estimate("imdb", sql).expect("fleet estimate");
                        assert!(!degraded, "healthy fleet must not degrade");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("fleet client thread");
        }
    });
    t0.elapsed().as_secs_f64()
}

/// Stage 5: the sharded fleet. Two measurements:
///
/// * **Scaling efficiency** — closed-loop throughput of the 4-shard fleet
///   vs a single shard, normalized by `min(shards, cores)`. On a machine
///   with ≥4 cores this is the issue's "≥3×" target expressed as a ratio
///   (3×/4 shards = 0.75 efficiency); on this 1-core CI host the shards
///   time-slice one core, so the honest expectation is parity (≈1.0) and
///   the gate catches the fleet layer adding real overhead. The raw rps
///   numbers ride along as local metrics.
/// * **Chaos** — an open-loop Poisson run (coordinated-omission-free
///   latencies measured from scheduled arrival) during which a
///   seeded-drawn replica is killed mid-traffic (its store wiped — a
///   machine loss), restarted, and healed from the surviving copy. Gated:
///   zero requests fail forever and zero sketch generations are lost.
///   The chaos p99 is recorded as a local metric (it includes the outage
///   window by construction).
fn stage_fleet(report: &mut BenchReport, db: &Arc<Database>, store: &Arc<SketchStore>) {
    println!(
        "\n[5/8] sharded fleet ({FLEET_SHARDS} shards, R={FLEET_REPLICATION}, \
         {FLEET_CLIENTS} clients x {FLEET_QUERIES_PER_CLIENT} queries):"
    );
    let sketch = store.get("imdb").expect("stage-2 sketch");

    // Single-shard baseline: the same serving config, the same routing
    // client, one shard — so the ratio isolates sharding itself.
    let mut single = Fleet::start(Arc::clone(db), fleet_config(1, 1)).expect("single-shard fleet");
    single.deploy("imdb", (*sketch).clone()).expect("deploy");
    let _ = run_fleet_closed_loop(&single); // warm-up
    let single_secs = min_secs(3, || run_fleet_closed_loop(&single));
    single.shutdown();

    let mut fleet = Fleet::start(
        Arc::clone(db),
        fleet_config(FLEET_SHARDS, FLEET_REPLICATION),
    )
    .expect("4-shard fleet");
    let replicas = fleet.deploy("imdb", (*sketch).clone()).expect("deploy");
    let _ = run_fleet_closed_loop(&fleet); // warm-up
    let fleet_secs = min_secs(3, || run_fleet_closed_loop(&fleet));

    let total = (FLEET_CLIENTS * FLEET_QUERIES_PER_CLIENT) as f64;
    let single_rps = total / single_secs;
    let fleet_rps = total / fleet_secs;
    let vs_single = fleet_rps / single_rps;
    let slots = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(FLEET_SHARDS);
    let efficiency = vs_single / slots as f64;
    println!(
        "  single-shard {single_rps:>7.0} req/s   {FLEET_SHARDS}-shard {fleet_rps:>7.0} req/s \
         -> {vs_single:.2}x over {slots} usable core(s) = efficiency {efficiency:.2}"
    );

    // Chaos: open-loop traffic while a replica dies and comes back.
    let faults = FaultInjector::new(BENCH_SEED ^ 31);
    faults.schedule_chaos_kill(replicas[faults.draw_shard(replicas.len())]);
    let generation_before = fleet
        .store(replicas[0])
        .generation("imdb")
        .expect("deployed generation");
    let fleet = Mutex::new(fleet);
    let clients: Vec<Mutex<FleetClient>> = {
        let topology = fleet.lock().unwrap().topology();
        (0..6)
            .map(|_| Mutex::new(FleetClient::new(topology.clone())))
            .collect()
    };
    let cfg = OpenLoopConfig {
        target_rps: 300.0,
        total: 600,
        workers: clients.len(),
        seed: BENCH_SEED ^ 32,
        deadline: Duration::from_secs(30),
    };
    let chaos = std::thread::scope(|s| {
        s.spawn(|| {
            // The chaos driver: kill the scheduled victim a fifth of the
            // way in, bring a blank replacement up shortly after, and heal
            // it from the surviving copy — all while the open loop keeps
            // offering load.
            std::thread::sleep(Duration::from_millis(400));
            let victim = faults.next_chaos_kill().expect("scheduled kill");
            fleet.lock().unwrap().kill(victim);
            std::thread::sleep(Duration::from_millis(400));
            let mut fleet = fleet.lock().unwrap();
            fleet.restart(victim).expect("restart victim");
            fleet.heal().expect("heal fleet");
        });
        run_open_loop(&cfg, |i, worker| {
            let sql = WORKLOAD[i % WORKLOAD.len()];
            let mut client = clients[worker].lock().unwrap();
            client.estimate("imdb", sql).map(|_| ())
        })
    });
    let fleet = fleet.into_inner().unwrap();

    // Zero lost generations: every live replica still serves the deployed
    // generation after the kill/restart/heal cycle.
    let lost = replicas
        .iter()
        .filter(|&&shard| {
            !fleet.is_alive(shard)
                || fleet.store(shard).generation("imdb") != Some(generation_before)
        })
        .count();
    let p99_ms = chaos.p99_us as f64 / 1e3;
    println!(
        "  chaos: {} completed / {} failed-forever at {:.0} req/s offered, \
         p99 {p99_ms:.1} ms, lost generations {lost}",
        chaos.completed, chaos.failed_forever, chaos.offered_rps
    );
    // The chaos contract is binary, so it gates harder than a ratio: any
    // permanently failed request or lost generation aborts the suite.
    assert_eq!(
        chaos.failed_forever, 0,
        "chaos run must not fail requests forever"
    );
    assert_eq!(lost, 0, "chaos run must not lose sketch generations");
    fleet.shutdown();

    report.push(Metric::portable(
        "fleet/scaling_efficiency",
        efficiency,
        true,
    ));
    report.push(Metric::portable(
        "fleet/chaos_failed_forever",
        chaos.failed_forever as f64,
        false,
    ));
    report.push(Metric::portable(
        "fleet/chaos_lost_generations",
        lost as f64,
        false,
    ));
    report.push(Metric::local("fleet/rps", fleet_rps, true));
    report.push(Metric::local("fleet/single_node_rps", single_rps, true));
    report.push(Metric::local(
        "fleet/throughput_vs_single_node",
        vs_single,
        true,
    ));
    report.push(Metric::local("fleet/chaos_p99_ms", p99_ms, false));
}

/// Stage 6: the lifecycle machinery's cost on the serving path. Two
/// measurements, both expressed against the coalesced per-request CPU
/// budget from stage 4 so the gated numbers are dimensionless:
///
/// * **Swap latency** — the generation-keyed [`SketchStore::swap`] is an
///   RCU-style pointer publish; no in-flight request ever blocks on it,
///   but it sits on the daemon's promote path and must stay trivially
///   cheap. Timed in a tight loop over a prebuilt candidate `Arc`, gated
///   as a fraction of one request's CPU budget (the absolute µs records
///   for same-machine diffs).
/// * **Shadow-mirror overhead** — the exact per-request work `ESTIMATE`
///   pays while a candidate shadows: the `shadowing` check (lock + phase
///   probe on the armed path), the query clone, and the job enqueue onto
///   the bounded channel a draining thread empties (full queue drops the
///   mirror, exactly like the server). Gated under the issue's 2%
///   serve-throughput budget — and asserted in-stage, so even a
///   baseline-free run fails loudly if mirroring gets expensive.
///
/// Both gated numbers sit at the tens-of-nanoseconds scale and jitter
/// ±2x run to run on a shared host, so (like `serve/traced_overhead_pct`)
/// the committed baselines pin the *budgets* — 2% for the mirror, 1% of a
/// request's CPU for the swap — not a measured value: CI trips only when
/// a change actually approaches the allowance, never on scheduler noise.
fn stage_lifecycle(
    report: &mut BenchReport,
    db: &Arc<Database>,
    store: &Arc<SketchStore>,
    request_cpu_us: f64,
) {
    use ds_core::lifecycle::{LifecycleConfig, LifecycleManager};
    use ds_query::query::Query;

    println!("\n[6/8] lifecycle (hot-swap latency, shadow-mirror overhead):");
    let sketch = store.get("imdb").expect("stage-2 sketch");

    // Swap latency: identical weights keep every later consumer of the
    // store unaffected; only the generation counter moves.
    let candidate = Arc::new((*sketch).clone());
    let swap_iters = 256usize;
    let swap_secs = min_secs(5, || {
        for _ in 0..swap_iters {
            store
                .swap("imdb", Arc::clone(&candidate))
                .expect("bench swap");
        }
    });
    let swap_us = swap_secs * 1e6 / swap_iters as f64;
    let swap_latency = swap_us / request_cpu_us;
    println!(
        "  hot swap {swap_us:>8.3} µs = {:.4}x of one request's {request_cpu_us:.0} µs CPU budget",
        swap_latency
    );

    // Shadow-mirror overhead: arm a real manager into the Shadow phase so
    // `shadowing` takes the expensive path, then run the mirror work the
    // server adds per ESTIMATE while a candidate scores.
    let manager = LifecycleManager::new(LifecycleConfig::default()).expect("lifecycle config");
    manager.install_candidate(store, "imdb", (*sketch).clone());
    assert!(
        manager.shadowing("imdb"),
        "candidate install must arm the shadow phase"
    );
    let queries: Vec<_> = WORKLOAD
        .iter()
        .map(|sql| parse_query(db, sql).expect("parse workload"))
        .collect();
    let (tx, rx) = std::sync::mpsc::sync_channel::<(String, Query, f64, Option<u64>)>(1024);
    let drain = std::thread::spawn(move || {
        let mut drained = 0u64;
        while rx.recv().is_ok() {
            drained += 1;
        }
        drained
    });
    let mirror_iters = 20_000usize;
    let mirror_secs = min_secs(5, || {
        for i in 0..mirror_iters {
            let q = &queries[i % queries.len()];
            if manager.shadowing("imdb") {
                let _ = tx.try_send(("imdb".to_string(), q.clone(), 1234.5, None));
            }
        }
    });
    drop(tx);
    let drained = drain.join().expect("drain thread");
    assert!(drained > 0, "the mirror queue must have seen traffic");
    let mirror_us = mirror_secs * 1e6 / mirror_iters as f64;
    let shadow_overhead_pct = mirror_us / request_cpu_us * 100.0;
    println!(
        "  shadow mirror {:>6.0} ns/req of {request_cpu_us:.0} µs/req \
         -> overhead {shadow_overhead_pct:.3}% (budget < 2%)",
        mirror_us * 1e3
    );
    assert!(
        shadow_overhead_pct < 2.0,
        "shadow mirroring must cost under 2% of serve throughput \
         (measured {shadow_overhead_pct:.3}%)"
    );

    report.push(Metric::portable(
        "lifecycle/swap_latency",
        swap_latency,
        false,
    ));
    report.push(Metric::local("lifecycle/swap_latency_us", swap_us, false));
    report.push(Metric::portable(
        "lifecycle/shadow_overhead_pct",
        shadow_overhead_pct,
        false,
    ));
    report.push(Metric::local(
        "lifecycle/mirror_ns_per_request",
        mirror_us * 1e3,
        false,
    ));
}

/// Stage 7: the fleet observability plane. Two measurements:
///
/// * **Propagation overhead** — the per-request cost of the v3 trace
///   plumbing end to end: the client minting a root context and
///   formatting its `trace=` token, the server parsing the token back,
///   minting its own span, deriving the child context the batcher
///   carries, and the exemplar's four extra hex fields on the `TRACE`
///   wire. Expressed against the stage-4 per-request CPU budget and
///   gated under the issue's 2% allowance via a budget-pinned baseline,
///   exactly like `serve/traced_overhead_pct`.
/// * **Aggregation scrape latency** — wall time of one fleetmon-style
///   sweep over a 4-shard fleet: scrape every shard's `STATS` over
///   pooled connections and merge the expositions. Merge correctness
///   (counters sum across shards) is asserted inline.
fn stage_obs(
    report: &mut BenchReport,
    db: &Arc<Database>,
    store: &Arc<SketchStore>,
    request_cpu_us: f64,
) {
    use ds_obs::{IdSource, TraceContext};

    println!("\n[7/8] observability plane (trace propagation, 4-shard STATS merge):");

    // Propagation: everything the traced path adds per request that the
    // untraced path skips, client and server side together.
    let client_ids = IdSource::from_entropy();
    let server_ids = IdSource::from_entropy();
    let prop_iters = 100_000usize;
    let prop_secs = min_secs(5, || {
        for _ in 0..prop_iters {
            let root = client_ids.mint();
            let token = root.to_token();
            let parsed = TraceContext::parse_token(&token).expect("token round-trip");
            let span = server_ids.next_span();
            let child = parsed.child(span);
            let batch_span = server_ids.next_span();
            // The exemplar's extra wire fields (only traced timelines
            // pay this formatting).
            let wire = format!(
                " trace_id={:032x} span_id={:016x} parent_span={:016x} batch_span={:016x}",
                parsed.trace_id, span, parsed.span_id, batch_span
            );
            std::hint::black_box((child, wire));
        }
    });
    let prop_us = prop_secs * 1e6 / prop_iters as f64;
    let prop_overhead_pct = prop_us / request_cpu_us * 100.0;
    println!(
        "  trace propagation {:>6.0} ns/req of {request_cpu_us:.0} µs/req \
         -> overhead {prop_overhead_pct:.3}% (budget < 2%)",
        prop_us * 1e3
    );
    assert!(
        prop_overhead_pct < 2.0,
        "trace propagation must cost under 2% of serve throughput \
         (measured {prop_overhead_pct:.3}%)"
    );

    // Aggregation: four real servers, a little estimate traffic on each,
    // then a fleetmon sweep (pooled connections, full merge) timed end
    // to end.
    let servers: Vec<Server> = (0..4)
        .map(|_| {
            Server::start(Arc::clone(db), Arc::clone(store), ServeConfig::default())
                .expect("obs-stage server")
        })
        .collect();
    for (i, server) in servers.iter().enumerate() {
        let mut c = Connection::connect(server.local_addr()).expect("obs-stage client");
        for k in 0..8 {
            c.estimate_value("imdb", WORKLOAD[(i + k) % WORKLOAD.len()])
                .expect("obs-stage estimate");
        }
        c.quit().ok();
    }
    let mut conns: Vec<Connection> = servers
        .iter()
        .map(|s| {
            Connection::connect_timeout(s.local_addr(), Duration::from_secs(30))
                .expect("obs-stage scrape connection")
        })
        .collect();
    let scrape = |conns: &mut Vec<Connection>| -> String {
        let families: Vec<Vec<ds_obs::PromFamily>> = conns
            .iter_mut()
            .map(|conn| conn.stats_families().expect("scrape STATS"))
            .collect();
        let refs: Vec<&[ds_obs::PromFamily]> = families.iter().map(Vec::as_slice).collect();
        ds_obs::merge_families(&refs).expect("merge shard expositions")
    };
    let merged = scrape(&mut conns);
    // Correctness before speed: the merged counter equals the per-shard
    // sum (every shard answered the same 8 estimates).
    let ok_of = |doc: &str| {
        ds_obs::parse_families(doc)
            .expect("parse exposition")
            .iter()
            .find(|f| f.name == "ds_serve_ok")
            .and_then(|f| f.scalar())
            .expect("ds_serve_ok sample")
    };
    assert_eq!(
        ok_of(&merged),
        32.0,
        "merged ds_serve_ok must equal the per-shard sum"
    );
    let scrape_secs = min_secs(5, || {
        std::hint::black_box(scrape(&mut conns));
    });
    let scrape_us = scrape_secs * 1e6;
    println!("  4-shard STATS scrape + merge {scrape_us:>8.1} µs/sweep");
    for conn in conns {
        conn.quit().ok();
    }
    for server in servers {
        server.shutdown();
    }

    report.push(Metric::portable(
        "obs/propagation_overhead_pct",
        prop_overhead_pct,
        false,
    ));
    report.push(Metric::local(
        "obs/propagation_ns_per_request",
        prop_us * 1e3,
        false,
    ));
    report.push(Metric::local("obs/agg_scrape_latency_us", scrape_us, false));
}

/// Stage 8: the extended-operator featurization path. The schema-v2
/// featurizer adds per-predicate sampling-bitmap features: every predicate
/// — `=`,`<`,`>`,`IN`-list, `LIKE` pattern — is evaluated row by row
/// against the materialized table sample. That work rides the serving
/// path of every v2 sketch, so its *extra* cost over the v1 featurizer on
/// the identical workload is gated against the stage-4 per-request CPU
/// budget, under the same 2% allowance (and the same budget-pinned
/// baseline discipline) as the tracing and shadow-mirror gates.
fn stage_featurize(report: &mut BenchReport, db: &Arc<Database>, request_cpu_us: f64) {
    use ds_core::featurize::{Featurizer, QueryIndexFeatures};
    use ds_query::{GeneratorConfig, QueryGenerator};
    use ds_storage::sample::sample_all;

    const SAMPLE: usize = 256;
    const PRED_BITMAP_BITS: usize = 64;
    println!(
        "\n[8/8] featurization (v2 per-predicate bitmaps, {SAMPLE}-row samples, \
         {PRED_BITMAP_BITS} bits):"
    );
    let cols = imdb_predicate_columns(db);
    let samples = sample_all(db, SAMPLE, BENCH_SEED ^ 41);
    let v1 = Featurizer::build(db, &cols, SAMPLE);
    let v2 = Featurizer::build(db, &cols, SAMPLE).with_schema_v2(PRED_BITMAP_BITS);
    let mut cfg = GeneratorConfig::new(cols, BENCH_SEED ^ 42).with_extended_ops();
    cfg.max_in_list = 6;
    let queries = QueryGenerator::new(db, cfg).generate_batch(64);

    let mut feats = QueryIndexFeatures::default();
    let mut time_featurizer = |fz: &Featurizer| {
        min_secs(5, || {
            for q in &queries {
                fz.featurize_indices(q, &samples, &mut feats);
            }
        }) * 1e6
            / queries.len() as f64
    };
    let v1_us = time_featurizer(&v1);
    let v2_us = time_featurizer(&v2);
    let extra_us = (v2_us - v1_us).max(0.0);
    let bitmap_overhead_pct = extra_us / request_cpu_us * 100.0;
    println!(
        "  v1 {v1_us:>7.2} µs/query   v2 {v2_us:>7.2} µs/query   extra {:.0} ns/query \
         of {request_cpu_us:.0} µs/req -> overhead {bitmap_overhead_pct:.3}% (budget < 2%)",
        extra_us * 1e3
    );
    assert!(
        bitmap_overhead_pct < 2.0,
        "per-predicate bitmap featurization must cost under 2% of serve \
         throughput (measured {bitmap_overhead_pct:.3}%)"
    );

    report.push(Metric::portable(
        "featurize/bitmap_overhead_pct",
        bitmap_overhead_pct,
        false,
    ));
    report.push(Metric::local("featurize/v1_us_per_query", v1_us, false));
    report.push(Metric::local("featurize/v2_us_per_query", v2_us, false));
}

fn main() -> ExitCode {
    let opts = parse_args();
    banner(
        "QUICK",
        "bench_harness quick suite",
        "pinned kernel/training/serving smoke benchmarks gating CI",
    );
    if opts.trace {
        ds_obs::global().enable();
    }

    let mut current = BenchReport::new("quick");
    stage_kernels(&mut current);
    let (db, store) = stage_training(&mut current);
    stage_inference(&mut current, &db, &store);
    let request_cpu_us = stage_serving(&mut current, &db, &store);
    stage_fleet(&mut current, &db, &store);
    stage_lifecycle(&mut current, &db, &store, request_cpu_us);
    stage_obs(&mut current, &db, &store, request_cpu_us);
    stage_featurize(&mut current, &db, request_cpu_us);

    if opts.trace {
        let obs = ds_obs::global();
        obs.disable();
        let trace = TraceReport::capture(obs);
        if !trace.is_empty() {
            let mut sink = PrettySink::stderr();
            let _ = sink.emit(&trace);
        }
    }

    // Always leave the latest run where CI can pick it up as an artifact.
    let latest_path = format!("{REPO_ROOT}/target/BENCH_quick.latest.json");
    if let Some(dir) = std::path::Path::new(&latest_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&latest_path, current.to_json_string()) {
        eprintln!("error: cannot write {latest_path}: {e}");
        return ExitCode::from(2);
    }
    println!("\nwrote {latest_path}");

    // The summary is written unconditionally — before any gate can fail —
    // so a red bench-smoke run still gets its diff table on the run page.
    let baseline = std::fs::read_to_string(&opts.baseline)
        .ok()
        .and_then(|t| BenchReport::from_json_str(&t).ok());
    let regressions = baseline
        .as_ref()
        .map(|b| compare(b, &current, opts.threshold, opts.strict))
        .unwrap_or_default();
    if let Some(path) = &opts.summary {
        let md = summary_markdown(baseline.as_ref(), &current, &regressions, &opts);
        if let Err(e) = std::fs::write(path, md) {
            eprintln!("error: cannot write summary {path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote summary {path}");
    }

    if opts.update {
        if let Err(e) = std::fs::write(&opts.baseline, current.to_json_string()) {
            eprintln!("error: cannot write baseline {}: {e}", opts.baseline);
            return ExitCode::from(2);
        }
        println!("updated baseline {}", opts.baseline);
        return ExitCode::SUCCESS;
    }

    if opts.check {
        if baseline.is_none() {
            eprintln!("error: cannot read baseline {}", opts.baseline);
            eprintln!("hint: create one with `bench_harness --quick --update`");
            return ExitCode::from(2);
        }
        if regressions.is_empty() {
            println!(
                "check OK: no regression beyond {:.0}% vs {}",
                opts.threshold * 100.0,
                opts.baseline
            );
            return ExitCode::SUCCESS;
        }
        eprintln!(
            "check FAILED: {} metric(s) regressed beyond {:.0}% vs {}:",
            regressions.len(),
            opts.threshold * 100.0,
            opts.baseline
        );
        for r in &regressions {
            eprintln!("  {r}");
        }
        return ExitCode::FAILURE;
    }

    ExitCode::SUCCESS
}
