//! E13 — serving throughput: request coalescing vs per-request dispatch,
//! plus the warm-cache ceiling.
//!
//! The same TCP server, the same 64 concurrent clients, the same
//! JOB-light-style workload — measured twice: once with `max_batch = 1`
//! (every request is its own forward pass) and once with `max_batch = 64`
//! (concurrent requests coalesce into micro-batches answered by one
//! `estimate_batch` pass). The batched compute backbone makes a coalesced
//! pass far cheaper per query than independent passes, so coalescing should
//! deliver ≥3× the end-to-end throughput at this concurrency. The
//! forward-pass scenarios disable the estimate cache so they keep measuring
//! the model path; a third, **open-loop** scenario then turns the default
//! cache back on and pipelines requests without waiting for responses —
//! the per-RTT serialization of the closed-loop fleet would otherwise cap
//! measured throughput far below what the server sustains — to record the
//! warm-cache ceiling (issue target: >100k req/s).
//!
//! A final **honest open-loop** scenario drives the cold path with Poisson
//! arrivals at ~120% of the measured closed-loop capacity and records
//! p50/p95/p99 latency measured from each request's *scheduled arrival*
//! (`ds_bench::loadgen`), so coordinated omission cannot hide queueing
//! under overload the way the closed-loop fleets structurally do.
//!
//! Writes machine-readable results to `BENCH_serve.json` at the repo root.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ds_bench::loadgen::{run_open_loop, OpenLoopConfig};
use ds_bench::{banner, BENCH_SEED};
use ds_core::builder::SketchBuilder;
use ds_core::store::SketchStore;
use ds_query::parser::parse_query;
use ds_query::workloads::imdb_predicate_columns;
use ds_serve::{Connection, MetricsSnapshot, ServeConfig, Server};
use ds_storage::catalog::Database;
use ds_storage::gen::{imdb_database, ImdbConfig};

const CLIENTS: usize = 64;
const QUERIES_PER_CLIENT: usize = 24;

// Join-heavy, JOB-light-shaped queries: multi-table featurization keeps
// the forward pass (the thing coalescing amortizes) the dominant cost.
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

/// Runs the full client fleet against a fresh server with the given batch
/// cap; returns (elapsed, final metrics). `instrumented` turns on the
/// per-request timeline pipeline with a zero slow threshold (six stamps,
/// five stage-histogram records and an exemplar push per request); the
/// bare fleet turns it off so the pair brackets the full tracing cost.
fn run_fleet(
    db: &Arc<Database>,
    store: &Arc<SketchStore>,
    max_batch: usize,
    instrumented: bool,
) -> (Duration, MetricsSnapshot) {
    let server = Server::start(
        Arc::clone(db),
        Arc::clone(store),
        ServeConfig::builder()
            // Single worker: this host has one core, and one worker forms
            // the largest (most amortized) batches.
            .workers(1)
            .max_batch(max_batch)
            .queue_capacity(4096)
            .request_timeout(Duration::from_secs(60))
            .max_connections(CLIENTS + 8)
            .timeline(instrumented)
            .slow_threshold(Duration::ZERO)
            // This fleet measures the forward-pass path; the 6-template
            // workload would otherwise be answered from the cache.
            .cache_capacity(0)
            .build()
            .expect("valid bench config"),
    )
    .expect("bind server");
    let addr = server.local_addr();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                s.spawn(move || {
                    let mut c = Connection::connect(addr).expect("connect");
                    for k in 0..QUERIES_PER_CLIENT {
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
    let elapsed = t0.elapsed();
    let snap = server.shutdown();
    assert_eq!(snap.ok, (CLIENTS * QUERIES_PER_CLIENT) as u64);
    assert_eq!(snap.errors + snap.shed + snap.timeouts, 0);
    (elapsed, snap)
}

/// How many pipelined requests each open-loop client writes before reading
/// any response. Large enough that connection setup and the cold pass
/// amortize away.
const OPEN_LOOP_REQUESTS_PER_CLIENT: usize = 400;

/// The warm-cache, open-loop scenario: the default estimate cache is on,
/// and each client writes its whole request batch before reading a single
/// response, so the measurement is the server's sustainable rate rather
/// than the closed-loop round-trip latency. Returns (elapsed, requests,
/// cache hits).
fn run_warm_cache_open_loop(db: &Arc<Database>, store: &Arc<SketchStore>) -> (Duration, u64, f64) {
    let server = Server::start(
        Arc::clone(db),
        Arc::clone(store),
        ServeConfig::builder()
            .workers(1)
            .max_batch(64)
            .queue_capacity(4096)
            .request_timeout(Duration::from_secs(60))
            .max_connections(CLIENTS + 8)
            .timeline(false)
            .build()
            .expect("valid bench config"),
    )
    .expect("bind server");
    let addr = server.local_addr();
    // Cold pass: populate every template+literal pair once.
    {
        let mut c = Connection::connect(addr).expect("connect");
        for sql in WORKLOAD {
            c.estimate_value("imdb", sql).expect("cold estimate");
        }
        c.quit().expect("QUIT");
    }
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                s.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    let mut writer = BufWriter::new(stream.try_clone().expect("clone stream"));
                    let mut reader = BufReader::new(stream);
                    for k in 0..OPEN_LOOP_REQUESTS_PER_CLIENT {
                        let sql = WORKLOAD[(i + k) % WORKLOAD.len()];
                        writeln!(writer, "ESTIMATE imdb {sql}").expect("write request");
                    }
                    writer.flush().expect("flush pipeline");
                    let mut line = String::new();
                    for k in 0..OPEN_LOOP_REQUESTS_PER_CLIENT {
                        line.clear();
                        reader.read_line(&mut line).expect("read response");
                        assert!(line.starts_with("OK "), "request {k}: {line}");
                    }
                    writeln!(writer, "QUIT").expect("write QUIT");
                    writer.flush().expect("flush QUIT");
                })
            })
            .collect();
        for h in handles {
            h.join().expect("open-loop client");
        }
    });
    let elapsed = t0.elapsed();
    // Read the hit counter before shutdown so the warm claim is auditable.
    let mut c = Connection::connect(addr).expect("connect");
    let hits = c
        .stats()
        .expect("STATS")
        .iter()
        .find(|s| s.name == "ds_serve_cache_hits")
        .map(|s| s.value)
        .expect("cache hit counter");
    c.quit().expect("QUIT");
    let snap = server.shutdown();
    let total = (CLIENTS * OPEN_LOOP_REQUESTS_PER_CLIENT) as u64;
    assert_eq!(snap.errors + snap.shed + snap.timeouts, 0);
    (elapsed, total, hits)
}

fn main() {
    banner(
        "E13",
        "serving throughput (new experiment)",
        "coalescing concurrent requests into micro-batches multiplies \
         end-to-end serving throughput",
    );

    let db = Arc::new(imdb_database(&ImdbConfig {
        movies: 6_000,
        keywords: 2_000,
        companies: 800,
        persons: 10_000,
        seed: BENCH_SEED ^ 13,
    }));
    println!("bench IMDb: {} rows", db.total_rows());

    println!("training the serving sketch …");
    let store = Arc::new(SketchStore::new());
    let sketch = SketchBuilder::new(&db, imdb_predicate_columns(&db))
        .training_queries(2_000)
        .epochs(6)
        .sample_size(256)
        .hidden_units(256)
        .max_tables(4)
        .seed(BENCH_SEED ^ 14)
        .build()
        .expect("serving sketch");
    store.insert("imdb", sketch).expect("fresh store");

    // Correctness gate before timing anything: wire answers must be
    // bit-identical to local estimate_one — with the observability layer
    // off AND on (tracing must never perturb an estimate).
    {
        let s = store.get("imdb").unwrap();
        let server = Server::start(
            Arc::clone(&db),
            Arc::clone(&store),
            ServeConfig::builder()
                // Keep a timeline exemplar for every request so the stage
                // decomposition can be checked below.
                .slow_threshold(Duration::ZERO)
                .build()
                .expect("valid bench config"),
        )
        .expect("bind server");
        let mut c = Connection::connect(server.local_addr()).expect("connect");
        let obs = ds_obs::global();
        for sql in WORKLOAD {
            let local = s.estimate_one(&parse_query(&db, sql).expect("parse"));
            let wire = c.estimate_value("imdb", sql).expect("wire estimate");
            assert_eq!(wire.to_bits(), local.to_bits(), "untraced: {sql}");
            obs.enable();
            let traced = c.estimate_value("imdb", sql).expect("traced wire estimate");
            obs.disable();
            assert_eq!(traced.to_bits(), local.to_bits(), "traced: {sql}");
        }
        // Every request left a timeline exemplar; its five stages must
        // decompose the request wall time (5% tolerance plus a few µs of
        // per-stage integer truncation).
        let traces = c.trace().expect("TRACE");
        assert_eq!(traces.len(), 2 * WORKLOAD.len(), "one exemplar per request");
        for t in &traces {
            let diff = (t.total_us as f64 - t.stage_sum_us() as f64).abs();
            assert!(
                diff <= 0.05 * t.total_us as f64 + 6.0,
                "stage decomposition off: {t:?}"
            );
        }
        println!(
            "correctness gate: wire == local for {} queries (untraced + traced); \
             {} timeline exemplars decompose wall time",
            WORKLOAD.len(),
            traces.len()
        );
        c.quit().expect("QUIT");
        server.shutdown();
    }

    let total = CLIENTS * QUERIES_PER_CLIENT;
    println!("\n[1] per-request dispatch (max_batch = 1), {CLIENTS} clients:");
    // Warm-up run to stabilize allocator/page-cache effects, then measure.
    let _ = run_fleet(&db, &store, 1, false);
    let (per_req_elapsed, per_req) = run_fleet(&db, &store, 1, false);
    let per_req_rps = total as f64 / per_req_elapsed.as_secs_f64();
    println!(
        "  {total} requests in {:.3}s  ->  {per_req_rps:.0} req/s (batches={}, mean {:.2})",
        per_req_elapsed.as_secs_f64(),
        per_req.batches,
        per_req.mean_batch
    );

    println!("\n[2] coalesced dispatch (max_batch = 64), {CLIENTS} clients:");
    let _ = run_fleet(&db, &store, 64, false);
    let (coal_elapsed, coal) = run_fleet(&db, &store, 64, false);
    let coal_rps = total as f64 / coal_elapsed.as_secs_f64();
    println!(
        "  {total} requests in {:.3}s  ->  {coal_rps:.0} req/s (batches={}, mean {:.2}, max {})",
        coal_elapsed.as_secs_f64(),
        coal.batches,
        coal.mean_batch,
        coal.max_batch
    );

    let speedup = coal_rps / per_req_rps;
    println!("\ncoalescing speedup at {CLIENTS} clients: {speedup:.2}x (issue target: >=3x)");
    assert!(
        coal.batches < coal.ok,
        "coalescing never engaged (batches={} ok={})",
        coal.batches,
        coal.ok
    );

    println!(
        "\n[3] warm-cache open loop (cache on, {CLIENTS} clients x \
         {OPEN_LOOP_REQUESTS_PER_CLIENT} pipelined requests):"
    );
    let _ = run_warm_cache_open_loop(&db, &store);
    let (warm_elapsed, warm_total, warm_hits) = run_warm_cache_open_loop(&db, &store);
    let warm_rps = warm_total as f64 / warm_elapsed.as_secs_f64();
    let hit_rate = warm_hits / warm_total as f64;
    println!(
        "  {warm_total} requests in {:.3}s  ->  {warm_rps:.0} req/s \
         (hit rate {:.1}%, issue target: >100k req/s)",
        warm_elapsed.as_secs_f64(),
        hit_rate * 100.0,
    );
    assert!(
        hit_rate > 0.99,
        "open-loop fleet must run warm (hit rate {hit_rate:.3})"
    );

    // --- observability overhead: same coalesced fleet, fully traced ---
    // The traced side pays for everything at once: the global tracer plus
    // per-request timelines with an exemplar kept for every request.
    // Interleave untraced/traced pairs and take per-mode medians so slow
    // drift (thermal, page cache) cancels instead of biasing one side.
    println!("\n[4] observability overhead (max_batch = 64, tracer + timelines on):");
    let obs = ds_obs::global();
    let mut plain_secs = Vec::new();
    let mut traced_secs = Vec::new();
    for pair in 0..6 {
        // Alternate which mode runs first: the second run of a pair is
        // systematically warmer, and a fixed order biases the comparison.
        let trace_first = pair % 2 == 1;
        for step in 0..2 {
            if (step == 0) == trace_first {
                obs.enable();
                traced_secs.push(run_fleet(&db, &store, 64, true).0.as_secs_f64());
                obs.disable();
            } else {
                plain_secs.push(run_fleet(&db, &store, 64, false).0.as_secs_f64());
            }
        }
    }
    plain_secs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    traced_secs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let plain_med = plain_secs[plain_secs.len() / 2];
    let traced_med = traced_secs[traced_secs.len() / 2];
    let overhead_pct = (traced_med - plain_med) / plain_med * 100.0;
    println!(
        "  untraced {plain_med:.3}s vs traced {traced_med:.3}s -> overhead {overhead_pct:+.2}% \
         (issue target: < 2%)"
    );

    // --- honest open-loop tail latency under overload ---
    // Poisson arrivals at ~120% of the measured closed-loop coalesced
    // capacity, cold path (cache off). Latency is measured from each
    // request's scheduled arrival, so time spent queueing behind an
    // overloaded server lands in the percentiles instead of silently
    // thinning the offered load.
    const OPEN_LOOP_WORKERS: usize = 32;
    let target_rps = coal_rps * 1.2;
    let open_total = (target_rps * 3.0) as usize; // ~3s of offered load
    println!(
        "\n[5] honest open loop (Poisson arrivals at {target_rps:.0} req/s, \
         {open_total} requests, cold path):"
    );
    let open = {
        let server = Server::start(
            Arc::clone(&db),
            Arc::clone(&store),
            ServeConfig::builder()
                .workers(1)
                .max_batch(64)
                .queue_capacity(4096)
                .request_timeout(Duration::from_secs(60))
                .max_connections(OPEN_LOOP_WORKERS + 8)
                .timeline(false)
                .cache_capacity(0)
                .build()
                .expect("valid bench config"),
        )
        .expect("bind server");
        let addr = server.local_addr();
        let clients: Vec<Mutex<Connection>> = (0..OPEN_LOOP_WORKERS)
            .map(|_| Mutex::new(Connection::connect(addr).expect("connect")))
            .collect();
        let cfg = OpenLoopConfig {
            target_rps,
            total: open_total,
            workers: OPEN_LOOP_WORKERS,
            seed: BENCH_SEED ^ 15,
            deadline: Duration::from_secs(30),
        };
        let report = run_open_loop(&cfg, |i, worker| {
            let sql = WORKLOAD[i % WORKLOAD.len()];
            clients[worker]
                .lock()
                .expect("client slot")
                .estimate_value("imdb", sql)
                .map(|_| ())
        });
        let snap = server.shutdown();
        assert_eq!(report.failed_forever, 0, "open loop lost requests");
        assert!(snap.ok >= report.completed);
        report
    };
    println!(
        "  offered {:.0} req/s, achieved {:.0} req/s -> p50 {:.2} ms  p95 {:.2} ms  \
         p99 {:.2} ms  max {:.2} ms",
        open.offered_rps,
        open.achieved_rps,
        open.p50_us as f64 / 1e3,
        open.p95_us as f64 / 1e3,
        open.p99_us as f64 / 1e3,
        open.max_us as f64 / 1e3,
    );

    let json = format!(
        "{{\n  \"experiment\": \"serve_throughput\",\n  \"clients\": {CLIENTS},\n  \"queries_per_client\": {QUERIES_PER_CLIENT},\n  \"per_request\": {{\"secs\": {:.4}, \"rps\": {per_req_rps:.1}, \"batches\": {}, \"mean_batch\": {:.3}}},\n  \"coalesced\": {{\"secs\": {:.4}, \"rps\": {coal_rps:.1}, \"batches\": {}, \"mean_batch\": {:.3}, \"max_batch\": {}, \"p99_us\": {}}},\n  \"speedup\": {speedup:.3},\n  \"warm_cache\": {{\"mode\": \"open-loop pipelined\", \"requests\": {warm_total}, \"secs\": {:.4}, \"rps\": {warm_rps:.1}, \"hit_rate\": {hit_rate:.4}}},\n  \"open_loop\": {{\"mode\": \"poisson, latency from scheduled arrival\", \"requests\": {open_total}, \"offered_rps\": {:.1}, \"achieved_rps\": {:.1}, \"failed_forever\": {}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \"max_us\": {}}},\n  \"obs_overhead\": {{\"includes\": \"tracer+timelines+exemplars\", \"untraced_secs\": {plain_med:.4}, \"traced_secs\": {traced_med:.4}, \"overhead_pct\": {overhead_pct:.3}}}\n}}\n",
        per_req_elapsed.as_secs_f64(),
        per_req.batches,
        per_req.mean_batch,
        coal_elapsed.as_secs_f64(),
        coal.batches,
        coal.mean_batch,
        coal.max_batch,
        coal.p99_us,
        warm_elapsed.as_secs_f64(),
        open.offered_rps,
        open.achieved_rps,
        open.failed_forever,
        open.p50_us,
        open.p95_us,
        open.p99_us,
        open.max_us,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, &json).expect("write BENCH_serve.json");
    println!("wrote {path}");
}
