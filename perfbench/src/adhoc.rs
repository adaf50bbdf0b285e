//! `adhoc`: closed-loop ESTIMATEs of freshly generated queries over the
//! wire, one connection per core. No query repeats, so every request
//! misses the estimate cache and takes the model path: SQL parse → cache
//! miss and insert → batcher → the batch worker's model forward.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ds_serve::protocol::format_request;
use ds_serve::Response;

use crate::fixture::{adhoc_inputs, bench_imdb, job_light_inputs, true_counts, Serving};
use crate::host::{nproc, Phase};
use crate::json::Json;
use crate::quiet::{mean_us, net_rate, StealLog, StealSampler, Timed};
use crate::report::{Outcome, RunConfig};
use crate::serving::{
    check_failures, run_clients, serialize_s, set_roundtrip_ledger, setup_serving, verify_answers,
};
use crate::trace::{Span, Tracer};
use crate::wire::{cache_counters, connect, estimate_request, replay_parts, ReplayState, Replayer};

/// Warm-up requests per connection in every set-up.
const WARMUP_PER_CLIENT: usize = 200;
/// Distinct queries generated per measured second: the pool bounds the
/// request rate a run can reach before it runs out of fresh queries. At
/// about 4k requests/s on 2 cores this leaves a 3× margin; a run that
/// exhausts it says so in the record.
const POOL_PER_SECOND: f64 = 13_000.0;

/// What one closed-loop client did.
#[derive(Default)]
struct Client {
    ops: Vec<Timed>,
    answers: Vec<(u32, f64)>,
    sent: u64,
    failed: u64,
    io_error: Option<String>,
    spans: Vec<Span>,
    state: ReplayState,
}

pub fn run(cfg: &RunConfig, out: &mut Outcome) -> Result<(), String> {
    let clients = nproc();
    let mut phases = Vec::new();

    let ph = Phase::begin("inputs");
    let db = bench_imdb();
    let pool_len = WARMUP_PER_CLIENT * clients + (cfg.seconds * POOL_PER_SECOND) as usize;
    let (pool, sqlgen_ns) = adhoc_inputs(&db, cfg.seed, pool_len);
    let eval_queries = job_light_inputs(&db, cfg.seed);
    let truths = true_counts(&db, &eval_queries)?;
    drop(db);
    phases.push(ph.end());
    let (warm, measured) = pool.split_at(WARMUP_PER_CLIENT * clients);

    let ph = Phase::begin("setup");
    let (setup, serving, builds) = setup_serving(out, |s| warm_up(s, warm, clients))?;
    phases.push(ph.end());
    out.set("setup_s", crate::stats::median(&setup).expect("set-up ran"));
    out.set_builds(&builds, &[serialize_s(&serving)]);
    out.set("sketch_bytes", serving.sketch_bytes.len() as f64);
    let eval_estimates: Vec<f64> = eval_queries
        .iter()
        .map(|q| serving.sketch.estimate_one(q))
        .collect();

    let cursor = AtomicUsize::new(0);
    let phase_s = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };

    // Untraced phase: the end-to-end figures.
    let mut stats_conn = connect(serving.server.local_addr()).map_err(|e| e.to_string())?;
    let cache_before = cache_counters(&mut stats_conn)?;
    let before = serving.server.metrics();
    let ph = Phase::begin("measure");
    let (results, steal) = closed_loop(&serving, measured, &cursor, phase_s, clients, None);
    phases.push(ph.end());
    let after = serving.server.metrics();
    let cache = cache_counters(&mut stats_conn)?.delta(&cache_before);
    let sent: u64 = results.iter().map(|c| c.sent).sum();
    let failed: u64 = results.iter().map(|c| c.failed).sum();
    check_failures(out, "measure", failed, &before, &after);
    check_clients(out, &results);
    let ops: Vec<Timed> = results.iter().flat_map(|c| c.ops.iter().copied()).collect();
    out.set("throughput_rps", net_rate(&ops, &steal));
    out.set_timed_latency(&ops, &steal);
    out.set("ok_frac", ops.len() as f64 / sent.max(1) as f64);
    out.set(
        "serve.cache_hit_ratio",
        cache.hits / (cache.hits + cache.misses).max(1.0),
    );
    out.set("serve.cache_invalidations", cache.invalidations);
    out.set("serve.mean_batch", cache.misses / cache.batches.max(1.0));
    out.set("serve.shed", (after.shed - before.shed) as f64);
    out.set("serve.timeouts", (after.timeouts - before.timeouts) as f64);
    let mut answers: Vec<(u32, f64)> = results
        .iter()
        .flat_map(|c| c.answers.iter().copied())
        .collect();
    out.attempted += sent;
    out.failed += failed;
    let untraced_mean = mean_us(&ops);

    // Traced phase: each round trip followed by its in-process replay.
    if cfg.trace {
        let (cache, batcher) = replay_parts();
        let replayer = Replayer::new(
            &serving.db,
            &serving.sketch,
            serving.generation,
            &cache,
            &batcher,
        );
        let before = serving.server.metrics();
        let ph = Phase::begin("measure_traced");
        let (traced, _) = closed_loop(
            &serving,
            measured,
            &cursor,
            phase_s,
            clients,
            Some(&replayer),
        );
        phases.push(ph.end());
        let after = serving.server.metrics();
        let failed: u64 = traced.iter().map(|c| c.failed).sum();
        check_failures(out, "measure_traced", failed, &before, &after);
        check_clients(out, &traced);
        out.attempted += traced.iter().map(|c| c.sent).sum::<u64>();
        out.failed += failed;
        answers.extend(traced.iter().flat_map(|c| c.answers.iter().copied()));
        let traced_ops: Vec<Timed> = traced.iter().flat_map(|c| c.ops.iter().copied()).collect();
        out.set("trace.overhead_us", mean_us(&traced_ops) - untraced_mean);
        let mismatches: u64 = traced.iter().map(|c| c.state.mismatches).sum();
        out.check(mismatches == 0, || {
            format!("{mismatches} replayed answers differ from the wire")
        });
        let forwarded: u64 = traced.iter().map(|c| c.state.forwarded).sum();
        let flops: u64 = traced.iter().map(|c| c.state.flops).sum();
        let spans: Vec<Span> = traced.into_iter().flat_map(|c| c.spans).collect();
        set_roundtrip_ledger(out, &spans, forwarded, flops);
        out.spans.extend(spans);
        batcher.shutdown();
    }
    out.set(
        "query.sqlgen_us",
        sqlgen_ns as f64 / 1000.0 / pool.len() as f64,
    );
    let used = cursor.load(Ordering::Relaxed).min(measured.len());
    let exhausted = used == measured.len();
    if exhausted {
        eprintln!("perfbench: the fresh-query pool ran out; the phase ended early");
    }
    out.detail(
        "pool",
        Json::obj()
            .with("queries", pool.len())
            .with("used", used)
            .with("exhausted", exhausted),
    );

    let qerrors: Vec<f64> = eval_estimates
        .iter()
        .zip(&truths)
        .map(|(&e, &t)| ds_core::metrics::qerror(e, t.max(1) as f64))
        .collect();
    out.set_qerrors(&qerrors);

    // Every wire answer must equal the in-process estimate.
    let ph = Phase::begin("verify");
    let bad = verify_answers(&serving.db, &serving.sketch, measured, &answers, clients);
    phases.push(ph.end());
    out.check(bad == 0, || {
        format!(
            "{bad} of {} wire answers differ from estimate_one",
            answers.len()
        )
    });
    out.detail("verified_answers", answers.len());
    drop(stats_conn);
    serving.server.shutdown();
    out.detail("phases", phases);
    Ok(())
}

fn check_clients(out: &mut Outcome, results: &[Client]) {
    for e in results.iter().filter_map(|c| c.io_error.as_ref()) {
        out.problems.push(format!("client connection failed: {e}"));
    }
}

/// Sends the warm-up queries, one slice per connection.
fn warm_up(s: &Serving, warm: &[String], clients: usize) -> Result<(), String> {
    let per = warm.len().div_ceil(clients);
    let (results, _) = run_clients(clients, |i, barrier| -> Result<(), String> {
        let mut conn = connect(s.server.local_addr()).map_err(|e| e.to_string());
        barrier.wait();
        let conn = conn.as_mut().map_err(|e| e.clone())?;
        for sql in warm.iter().skip(i * per).take(per) {
            match conn.roundtrip(&estimate_request(sql.clone()), true) {
                Ok(Response::Estimate(_)) => {}
                other => return Err(format!("warm-up request failed: {other:?}")),
            }
        }
        Ok(())
    });
    results.into_iter().collect()
}

/// Closed loop: each client takes the next fresh query, sends it and
/// waits for the answer, until `seconds` pass. With a replayer, each
/// round trip is followed by its in-process replay (outside the timing).
fn closed_loop(
    s: &Serving,
    pool: &[String],
    cursor: &AtomicUsize,
    seconds: f64,
    clients: usize,
    replayer: Option<&Replayer<'_>>,
) -> (Vec<Client>, StealLog) {
    let epoch = Instant::now();
    let sampler = StealSampler::start(epoch);
    let (results, _) = run_clients(clients, |lane, barrier| {
        let mut c = Client::default();
        let conn = connect(s.server.local_addr());
        barrier.wait();
        let mut conn = match conn {
            Ok(conn) => conn,
            Err(e) => {
                c.io_error = Some(e.to_string());
                return c;
            }
        };
        let mut tr = Tracer::new(epoch, lane, clients);
        let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
        while Instant::now() < deadline {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(sql) = pool.get(i) else { break };
            let req = estimate_request(sql.clone());
            let t0 = Instant::now();
            let r = conn.roundtrip(&req, true);
            let t1 = Instant::now();
            c.sent += 1;
            let response = match r {
                Ok(resp @ Response::Estimate(v)) => {
                    c.ops.push(Timed::new(epoch, t0, t1));
                    c.answers.push((i as u32, v));
                    resp
                }
                Ok(other) => {
                    c.failed += 1;
                    other
                }
                Err(e) => {
                    c.failed += 1;
                    c.io_error = Some(e.to_string());
                    break;
                }
            };
            if let Some(rp) = replayer {
                let req_id = tr.next_id();
                let rt = tr.record("serve.roundtrip", 0, req_id, t0, t1);
                rp.replay(
                    &mut tr,
                    &mut c.state,
                    &format_request(&req),
                    &response,
                    rt,
                    req_id,
                );
            }
        }
        c.spans = tr.into_spans();
        c
    });
    (results, sampler.stop())
}
