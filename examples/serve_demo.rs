//! The serving front end, end to end: train a sketch, start the TCP
//! server, then hammer it with 64 concurrent clients and verify every
//! answer over the wire is bit-identical to a local `estimate_one` call.
//! Afterwards a single typed client walks the observability surface —
//! `INFO`/`METRICS` as parsed structs, the `STATS` Prometheus exposition,
//! `TRACE` request-stage exemplars — and replays exact cardinalities
//! through `FEEDBACK` into the sketch's rolling q-error monitor.
//!
//! This is the smoke test CI runs for `ds-serve` — it exercises the full
//! stack (accept loop, protocol, coalescing batcher, metrics, timelines,
//! feedback) in a few seconds and fails loudly on any mismatch.
//!
//! Run with: `cargo run --release --example serve_demo`

use std::sync::Arc;
use std::time::{Duration, Instant};

use deep_sketches::prelude::*;
use deep_sketches::serve::Response;

const CLIENTS: usize = 64;

fn main() {
    let db = Arc::new(imdb_database(&ImdbConfig {
        movies: 2_000,
        keywords: 400,
        companies: 150,
        persons: 1_500,
        seed: 23,
    }));
    println!("synthetic IMDb loaded: {} rows", db.total_rows());

    println!("training the sketch …");
    let store = Arc::new(SketchStore::new());
    let sketch = SketchBuilder::new(&db, imdb_predicate_columns(&db))
        .training_queries(1_000)
        .epochs(8)
        .sample_size(64)
        .hidden_units(32)
        .seed(5)
        .build()
        .expect("sketch construction");
    store.insert("imdb", sketch).expect("fresh store");

    let workload: Vec<&str> = vec![
        "SELECT COUNT(*) FROM title",
        "SELECT COUNT(*) FROM title WHERE title.kind_id = 1",
        "SELECT COUNT(*) FROM title WHERE title.production_year > 1990",
        "SELECT COUNT(*) FROM title WHERE title.production_year > 2005",
        "SELECT COUNT(*) FROM title t, movie_keyword mk \
         WHERE mk.movie_id = t.id AND mk.keyword_id = 11",
        "SELECT COUNT(*) FROM title t, movie_keyword mk \
         WHERE mk.movie_id = t.id AND t.production_year > 1995",
    ];
    // Ground truth for the wire check: local, single-query estimates.
    let local: Vec<f64> = {
        let s = store.get("imdb").expect("ready sketch");
        workload
            .iter()
            .map(|sql| s.estimate_one(&parse_query(&db, sql).expect("parse")))
            .collect()
    };

    let server = Server::start(
        Arc::clone(&db),
        Arc::clone(&store),
        ServeConfig::builder()
            .workers(4)
            .request_timeout(Duration::from_secs(30))
            // Keep a timeline exemplar for every request so the TRACE
            // check below always has something to decompose.
            .slow_threshold(Duration::ZERO)
            .build()
            .expect("valid demo config"),
    )
    .expect("bind server");
    let addr = server.local_addr();
    println!("serving on {addr}");

    // One warm-up client exercises the metadata commands through the
    // typed accessors.
    {
        let mut c = Connection::connect(addr).expect("connect");
        if let Response::Text(t) = c.list().expect("LIST") {
            println!("LIST    -> {t}");
        }
        let card = c.info_card("imdb").expect("INFO");
        println!(
            "INFO    -> {}: {} tables, {} joins, {} predicate columns, \
             {} params, {:.2} MiB",
            card.database,
            card.tables,
            card.joins,
            card.predicate_columns,
            card.model_params,
            card.footprint_mib
        );
        assert_eq!(card.database, "imdb");
        c.quit().expect("QUIT");
    }

    println!("running {CLIENTS} concurrent clients …");
    let t0 = Instant::now();
    let mut mismatches = 0usize;
    let mut answered = 0usize;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let workload = &workload;
                let local = &local;
                s.spawn(move || {
                    let mut c = Connection::connect(addr).expect("connect");
                    let mut bad = 0usize;
                    let mut n = 0usize;
                    for k in 0..workload.len() * 2 {
                        let j = (i + k) % workload.len();
                        let got = c
                            .estimate_value("imdb", workload[j])
                            .expect("wire estimate");
                        n += 1;
                        if got.to_bits() != local[j].to_bits() {
                            eprintln!(
                                "MISMATCH client {i} query {j}: wire {got} vs local {}",
                                local[j]
                            );
                            bad += 1;
                        }
                    }
                    c.quit().expect("QUIT");
                    (n, bad)
                })
            })
            .collect();
        for h in handles {
            let (n, bad) = h.join().expect("client thread");
            answered += n;
            mismatches += bad;
        }
    });
    let elapsed = t0.elapsed();

    // Walk the observability surface with one typed client while the
    // server is still up, then replay ground truth through FEEDBACK.
    {
        let mut c = Connection::connect(addr).expect("connect");

        let snap = c.metrics_snapshot().expect("METRICS");
        assert!(
            snap.ok >= answered as u64,
            "snapshot missing fleet requests"
        );

        let stats = c.stats().expect("STATS");
        assert!(
            stats.iter().any(|s| s.name.contains("forward")),
            "STATS exposition lacks the forward-stage summary"
        );
        println!("STATS   -> {} Prometheus samples", stats.len());

        let traces = c.trace().expect("TRACE");
        assert!(!traces.is_empty(), "no timeline exemplars kept");
        let t = &traces[0];
        // The five stages decompose the request wall time (5% tolerance
        // plus a few µs of per-stage integer truncation).
        let diff = (t.total_us as f64 - t.stage_sum_us() as f64).abs();
        assert!(
            diff <= 0.05 * t.total_us as f64 + 6.0,
            "stage decomposition off: {t:?}"
        );
        println!(
            "TRACE   -> {} exemplars; e.g. [{}] {}µs = parse {} + queue {} \
             + batch-wait {} + forward {} + write {}",
            traces.len(),
            t.template,
            t.total_us,
            t.parse_us,
            t.queue_us,
            t.batch_wait_us,
            t.forward_us,
            t.write_us
        );

        // FEEDBACK: replay the exact cardinality for every workload
        // query. The returned estimate must still be bit-identical to
        // the local one (feedback never perturbs the answer), and each
        // observation lands in the sketch's rolling q-error monitor.
        let oracle = TrueCardinalityOracle::new(&db);
        for (j, sql) in workload.iter().enumerate() {
            let actual = oracle
                .cardinality(&parse_query(&db, sql).expect("parse"))
                .expect("exact count");
            let got = c.feedback_value("imdb", actual, sql).expect("FEEDBACK");
            assert_eq!(
                got.to_bits(),
                local[j].to_bits(),
                "feedback perturbed estimate"
            );
        }
        let monitor = server.monitors().get("imdb").expect("feedback monitor");
        assert_eq!(monitor.samples(), workload.len() as u64);
        println!(
            "FEEDBACK-> {} observations, rolling q-error p50 {:.2}",
            monitor.samples(),
            deep_sketches::core::monitor::descale_qerror(monitor.rolling().quantile(0.5))
        );
        c.quit().expect("QUIT");
    }

    let snap = server.shutdown();
    println!("{snap}");
    println!(
        "{answered} estimates in {:.2}s ({:.0} req/s), {} coalesced batches (mean {:.1})",
        elapsed.as_secs_f64(),
        answered as f64 / elapsed.as_secs_f64(),
        snap.batches,
        snap.mean_batch
    );

    assert_eq!(mismatches, 0, "wire answers diverged from estimate_one");
    // The fleet's estimates plus the feedback replays, each answered OK.
    assert_eq!(
        (answered + workload.len()) as u64,
        snap.ok,
        "request accounting diverged"
    );
    assert!(snap.batches < snap.ok, "coalescing never engaged");
    println!("serve_demo OK: all {answered} wire answers bit-identical to estimate_one");
}
