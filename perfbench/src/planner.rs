//! `planner`: closed-loop join-order optimization over the wire. One
//! client ([`CLIENTS`]) plans JOB-light × 5 literal seeds with
//! `Optimizer::optimize`, asking the server for every connected sub-plan,
//! then reports the true count with FEEDBACK. Sub-plans repeat, so after the warm-up round the
//! working set sits in the estimate cache: wire, protocol, cache and the
//! DP do the work and the model is nearly idle.

use std::time::Instant;

use ds_plan::dp::Optimizer;
use ds_query::query::Query;
use ds_query::sqlgen::to_sql;
use ds_serve::Response;

use crate::fixture::{bench_imdb, job_light_inputs, true_counts, Serving};
use crate::host::Phase;
use crate::quiet::{mean_us, net_rate, StealLog, StealSampler, Timed};
use crate::report::{Outcome, RunConfig};
use crate::serving::{
    check_failures, record_plan, references, run_clients, same_plan, serialize_s, set_plan_ledger,
    set_roundtrip_ledger, setup_serving, References,
};
use crate::trace::{ledger, Span, Tracer};
use crate::wire::{
    cache_counters, connect, feedback_request, replay_parts, ReplayState, Replayer, WireEstimator,
};

/// Planning clients. A plan is a chain of short round trips, each a
/// hand-off between the client and its connection thread. With one
/// client per core those threads outnumber the cores, and the plan
/// latency measured the scheduler: on 2 cores the median of each second
/// varied by 7–26% within a run, against 1–6% with one client.
pub const CLIENTS: usize = 1;

/// The planning inputs: queries, their SQL and true counts.
pub struct PlanInputs {
    pub queries: Vec<Query>,
    pub sql: Vec<String>,
    pub truths: Vec<u64>,
}

/// What one planning client did.
#[derive(Default)]
struct Client {
    ops: Vec<Timed>,
    plans: u64,
    sent: u64,
    failed: u64,
    wrong_plans: u64,
    wrong_feedback: u64,
    io_error: Option<String>,
    spans: Vec<Span>,
    state: ReplayState,
}

pub fn run(cfg: &RunConfig, out: &mut Outcome) -> Result<(), String> {
    let clients = CLIENTS;
    let mut phases = Vec::new();

    let ph = Phase::begin("inputs");
    let db = bench_imdb();
    let queries = job_light_inputs(&db, cfg.seed);
    let inputs = PlanInputs {
        sql: queries.iter().map(|q| to_sql(&db, q)).collect(),
        truths: true_counts(&db, &queries)?,
        queries,
    };
    drop(db);
    phases.push(ph.end());

    let ph = Phase::begin("setup");
    let (setup, serving, builds) = setup_serving(out, |s| warm_up(s, &inputs, clients))?;
    phases.push(ph.end());
    out.set("setup_s", crate::stats::median(&setup).expect("set-up ran"));
    out.set_builds(&builds, &[serialize_s(&serving)]);
    out.set("sketch_bytes", serving.sketch_bytes.len() as f64);
    let refs = references(&serving.sketch, &inputs.queries);

    let phase_s = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut stats_conn = connect(serving.server.local_addr()).map_err(|e| e.to_string())?;
    let cache_before = cache_counters(&mut stats_conn)?;
    let before = serving.server.metrics();
    let ph = Phase::begin("measure");
    let (results, steal) = plan_loop(&serving, &inputs, &refs, phase_s, clients, None);
    phases.push(ph.end());
    let after = serving.server.metrics();
    let cache = cache_counters(&mut stats_conn)?.delta(&cache_before);
    let (sent, failed) = tally(out, "measure", &results, &before, &after);
    let ops: Vec<Timed> = results.iter().flat_map(|c| c.ops.iter().copied()).collect();
    // Requests per plan are fixed by the query set, so the request rate
    // is the planning rate scaled by a constant.
    let plans_per_s = net_rate(&ops, &steal);
    out.detail("plans_per_s", plans_per_s);
    out.set(
        "throughput_rps",
        plans_per_s * sent as f64 / ops.len().max(1) as f64,
    );
    out.set_timed_latency(&ops, &steal);
    out.set("ok_frac", (sent - failed) as f64 / sent.max(1) as f64);
    out.set(
        "serve.cache_hit_ratio",
        cache.hits / (cache.hits + cache.misses).max(1.0),
    );
    out.set("serve.cache_invalidations", cache.invalidations);
    out.set("serve.mean_batch", cache.misses / cache.batches.max(1.0));
    out.set("serve.shed", (after.shed - before.shed) as f64);
    out.set("serve.timeouts", (after.timeouts - before.timeouts) as f64);
    let untraced_mean = mean_us(&ops);

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
        let (traced, _) = plan_loop(&serving, &inputs, &refs, phase_s, clients, Some(&replayer));
        phases.push(ph.end());
        let after = serving.server.metrics();
        tally(out, "measure_traced", &traced, &before, &after);
        let traced_ops: Vec<Timed> = traced.iter().flat_map(|c| c.ops.iter().copied()).collect();
        out.set("trace.overhead_us", mean_us(&traced_ops) - untraced_mean);
        let mismatches: u64 = traced.iter().map(|c| c.state.mismatches).sum();
        out.check(mismatches == 0, || {
            format!("{mismatches} replayed answers differ from the wire")
        });
        let forwarded: u64 = traced.iter().map(|c| c.state.forwarded).sum();
        let flops: u64 = traced.iter().map(|c| c.state.flops).sum();
        let plans: u64 = traced.iter().map(|c| c.plans).sum();
        let spans: Vec<Span> = traced.into_iter().flat_map(|c| c.spans).collect();
        set_roundtrip_ledger(out, &spans, forwarded, flops);
        set_plan_ledger(out, &spans, plans as usize);
        let l = ledger(&spans);
        let estimates = l.get("serve.roundtrip").map_or(0, |t| t.count).max(1) as f64;
        out.set(
            "query.sqlgen_us",
            l.get("query.sqlgen").map_or(0.0, |t| t.self_ns) / estimates / 1000.0,
        );
        out.set(
            "serve.feedback_roundtrip_us",
            l.get("serve.feedback_roundtrip")
                .map_or(0.0, |t| t.total_ns)
                / plans.max(1) as f64
                / 1000.0,
        );
        out.spans.extend(spans);
        batcher.shutdown();
    }

    // Quality of the served estimates: the FEEDBACK answers, checked
    // bit-identical to `estimate_one`, against the true counts.
    let qerrors: Vec<f64> = refs
        .estimates
        .iter()
        .zip(&inputs.truths)
        .map(|(&e, &t)| ds_core::metrics::qerror(e, t.max(1) as f64))
        .collect();
    out.set_qerrors(&qerrors);
    drop(stats_conn);
    serving.server.shutdown();
    out.detail("phases", phases);
    Ok(())
}

/// Adds a phase's requests to the outcome and checks its accounting.
fn tally(
    out: &mut Outcome,
    phase: &str,
    results: &[Client],
    before: &ds_serve::MetricsSnapshot,
    after: &ds_serve::MetricsSnapshot,
) -> (u64, u64) {
    let sent: u64 = results.iter().map(|c| c.sent).sum();
    let failed: u64 = results.iter().map(|c| c.failed).sum();
    check_failures(out, phase, failed, before, after);
    for c in results {
        if let Some(e) = &c.io_error {
            out.problems
                .push(format!("{phase}: client connection failed: {e}"));
        }
        out.check(c.wrong_plans == 0, || {
            format!(
                "{phase}: {} wire plans differ from the in-process optimizer",
                c.wrong_plans
            )
        });
        out.check(c.wrong_feedback == 0, || {
            format!(
                "{phase}: {} FEEDBACK answers differ from estimate_one",
                c.wrong_feedback
            )
        });
    }
    out.attempted += sent;
    out.failed += failed;
    (sent, failed)
}

/// The untimed warm-up round: every query planned once, with FEEDBACK,
/// split across the clients, so the estimate cache holds the working set.
fn warm_up(s: &Serving, inputs: &PlanInputs, clients: usize) -> Result<(), String> {
    let per = inputs.queries.len().div_ceil(clients);
    let (results, _) = run_clients(clients, |lane, barrier| -> Result<(), String> {
        let conn = connect(s.server.local_addr());
        barrier.wait();
        let wire = WireEstimator::new(&s.db, conn.map_err(|e| e.to_string())?, false);
        let ks = (lane * per..(lane + 1) * per).take_while(|&k| k < inputs.queries.len());
        for k in ks {
            Optimizer::new(&wire).optimize(&inputs.queries[k]);
            // The reply's correctness is checked in the measured phases.
            let _ = wire.roundtrip(&feedback_request(inputs.sql[k].clone(), inputs.truths[k]));
        }
        match wire.failed() {
            0 => Ok(()),
            n => Err(format!("{n} warm-up requests failed")),
        }
    });
    results.into_iter().collect()
}

/// Closed loop: each client cycles through the queries from its own
/// offset, planning over the wire then sending FEEDBACK; a plan's latency
/// covers both. With a replayer, every ESTIMATE a plan made is replayed
/// in-process after the plan (outside the timing).
fn plan_loop(
    s: &Serving,
    inputs: &PlanInputs,
    refs: &References,
    seconds: f64,
    clients: usize,
    replayer: Option<&Replayer<'_>>,
) -> (Vec<Client>, StealLog) {
    let epoch = Instant::now();
    let n = inputs.queries.len();
    let sampler = StealSampler::start(epoch);
    let (results, _) = run_clients(clients, |lane, barrier| {
        let mut c = Client::default();
        let conn = connect(s.server.local_addr());
        barrier.wait();
        let conn = match conn {
            Ok(conn) => conn,
            Err(e) => {
                c.io_error = Some(e.to_string());
                return c;
            }
        };
        let wire = WireEstimator::new(&s.db, conn, replayer.is_some());
        let mut tr = Tracer::new(epoch, lane, clients);
        let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
        let mut k = lane * n / clients;
        while Instant::now() < deadline {
            let t0 = Instant::now();
            let plan = Optimizer::new(&wire).optimize(&inputs.queries[k]);
            let t1 = Instant::now();
            let fb = wire.roundtrip(&feedback_request(inputs.sql[k].clone(), inputs.truths[k]));
            let t2 = Instant::now();
            c.ops.push(Timed::new(epoch, t0, t2));
            c.plans += 1;
            if !same_plan(&plan, &refs.plans[k]) {
                c.wrong_plans += 1;
            }
            match fb {
                Ok(Response::Estimate(v)) if v.to_bits() == refs.estimates[k].to_bits() => {}
                Ok(_) => c.wrong_feedback += 1,
                Err(e) => {
                    c.io_error = Some(e.to_string());
                    break;
                }
            }
            if let Some(rp) = replayer {
                let req = record_plan(&mut tr, rp, &mut c.state, &wire, t0, t1);
                tr.record("serve.feedback_roundtrip", 0, req, t1, t2);
            }
            k = (k + 1) % n;
        }
        c.sent = wire.sent();
        c.failed = wire.failed();
        c.spans = tr.into_spans();
        c
    });
    (results, sampler.stop())
}
