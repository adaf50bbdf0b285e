//! Pieces shared by the two serving workloads: repeated set-up, the
//! in-process references every wire answer is checked against, one plan
//! over the wire, and the server-side accounting checks.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ds_core::sketch::DeepSketch;
use ds_plan::dp::{OptimizedPlan, Optimizer};
use ds_query::parser::parse_query;
use ds_query::query::Query;
use ds_serve::protocol::format_request;
use ds_serve::MetricsSnapshot;
use ds_storage::catalog::Database;

use crate::catalog::ROUNDTRIP_LEDGER;
use crate::fixture::{start_serving, BuildTimeline, Serving};
use crate::host::steal_jiffies;
use crate::json::Json;
use crate::quiet::{net_s, JIFFY_S};
use crate::report::Outcome;
use crate::trace::{ledger, Span, Tracer};
use crate::wire::{ReplayState, Replayer, WireEstimator};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Starts the server `SETUP_REPS` times (database, sketch, server,
/// warm-up), shutting each one down before the next so peak memory holds
/// one copy. Returns the set-up times net of host steal, the last server,
/// and every build.
/// Builds must be bit-identical: the definition is deterministic.
pub fn setup_serving(
    out: &mut Outcome,
    warm_up: impl Fn(&Serving) -> Result<(), String>,
) -> Result<(Vec<f64>, Serving, Vec<BuildTimeline>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut builds = Vec::with_capacity(SETUP_REPS);
    let mut kept: Option<Serving> = None;
    let mut first_bytes: Option<Vec<u8>> = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = kept.take() {
            prev.server.shutdown();
        }
        let (t0, steal0) = (Instant::now(), steal_jiffies());
        let s = start_serving()?;
        warm_up(&s)?;
        let stolen = steal_jiffies().saturating_sub(steal0) as f64 * JIFFY_S;
        times.push(net_s(t0.elapsed().as_secs_f64(), stolen));
        builds.push(s.build);
        out.check(s.sketch.frozen().is_some(), || {
            "served sketch has no frozen artifact: the reference path is serving".to_string()
        });
        match &first_bytes {
            None => first_bytes = Some(s.sketch_bytes.clone()),
            Some(b) => out.check(*b == s.sketch_bytes, || {
                "two builds of one definition differ".to_string()
            }),
        }
        kept = Some(s);
    }
    let s = kept.expect("SETUP_REPS >= 1");
    Ok((times, s, builds))
}

/// Time to serialize the served sketch and decode it again.
pub fn serialize_s(s: &Serving) -> f64 {
    let t = Instant::now();
    let bytes = s.sketch.to_bytes();
    std::hint::black_box(DeepSketch::from_bytes(&bytes).is_ok());
    t.elapsed().as_secs_f64()
}

/// Plans and final estimates computed in-process on the served sketch.
pub struct References {
    pub plans: Vec<OptimizedPlan>,
    pub estimates: Vec<f64>,
}

pub fn references(sketch: &DeepSketch, queries: &[Query]) -> References {
    let opt = Optimizer::new(sketch);
    References {
        plans: queries.iter().map(|q| opt.optimize(q)).collect(),
        estimates: queries.iter().map(|q| sketch.estimate_one(q)).collect(),
    }
}

/// Whether a wire plan equals the in-process one: same join tree and a
/// bit-identical estimated cost.
pub fn same_plan(a: &OptimizedPlan, b: &OptimizedPlan) -> bool {
    a.plan == b.plan && a.estimated_cost.to_bits() == b.estimated_cost.to_bits()
}

/// Records the calls `wire` made while planning between `t0` and `t1`:
/// one `plan.optimize` span with each SQL render and wire round trip as
/// children, each round trip followed by its in-process replay. Returns
/// the request id.
pub fn record_plan(
    tr: &mut Tracer,
    replayer: &Replayer<'_>,
    state: &mut ReplayState,
    wire: &WireEstimator<'_>,
    t0: Instant,
    t1: Instant,
) -> u64 {
    let req = tr.next_id();
    let opt = tr.next_id();
    tr.record_as(opt, "plan.optimize", 0, req, t0, t1);
    for call in wire.take_calls() {
        tr.record("query.sqlgen", opt, req, call.sqlgen.0, call.sqlgen.1);
        let rt = tr.record(
            "serve.roundtrip",
            opt,
            req,
            call.roundtrip.0,
            call.roundtrip.1,
        );
        let line = format_request(&crate::wire::estimate_request(call.sql));
        replayer.replay(tr, state, &line, &call.response, rt, req);
    }
    req
}

/// Runs `clients` threads that start together; returns their results and
/// the wall time from the common start to the last one finishing.
pub fn run_clients<T: Send>(
    clients: usize,
    body: impl Fn(usize, &Barrier) -> T + Sync,
) -> (Vec<T>, Duration) {
    let barrier = Barrier::new(clients + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let (body, barrier) = (&body, &barrier);
                s.spawn(move || body(i, barrier))
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("benchmark client panicked"))
            .collect();
        (results, start.elapsed())
    })
}

/// Checks that the failures the clients saw are exactly the errors, sheds
/// and timeouts the server counted over the same phase.
pub fn check_failures(
    out: &mut Outcome,
    phase: &str,
    client_failed: u64,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
) {
    let server = (after.errors - before.errors)
        + (after.shed - before.shed)
        + (after.timeouts - before.timeouts);
    out.check(server == client_failed, || {
        format!("{phase}: clients saw {client_failed} failures, server counted {server}")
    });
}

/// Checks every wire answer against `estimate_one` on the served sketch,
/// for the query the server parsed from the same SQL. Splits the work
/// over `threads`. Returns the number of mismatches.
pub fn verify_answers(
    db: &Database,
    sketch: &Arc<DeepSketch>,
    sql: &[String],
    answers: &[(u32, f64)],
    threads: usize,
) -> u64 {
    let chunk = answers.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        answers
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .filter(|&&(i, v)| {
                            parse_query(db, &sql[i as usize])
                                .map(|q| sketch.estimate_one(&q).to_bits() != v.to_bits())
                                .unwrap_or(true)
                        })
                        .count() as u64
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("verifier panicked"))
            .sum()
    })
}

/// Sets the round-trip ledger: mean time per request of every layer's
/// self time, which with the unattributed rest adds up to the mean round
/// trip ([`crate::catalog::ROUNDTRIP_LEDGER`]). The fused-path layers
/// (estimate, featurize, forward) are per request too, beside the ledger,
/// with the forward pass's computed FLOPs and achieved rate.
pub fn set_roundtrip_ledger(out: &mut Outcome, spans: &[Span], forwarded: u64, flops: u64) {
    let l = ledger(spans);
    let requests = l.get("serve.roundtrip").map_or(0, |t| t.count).max(1) as f64;
    let per_request = |name: &str| l.get(name).map_or(0.0, |t| t.self_ns) / requests / 1000.0;
    out.set(
        "serve.roundtrip_us",
        l.get("serve.roundtrip").map_or(0.0, |t| t.total_ns) / requests / 1000.0,
    );
    out.set("serve.unattributed_us", per_request("serve.roundtrip"));
    out.set("serve.protocol_us", per_request("serve.protocol"));
    out.set("query.parse_us", per_request("query.parse"));
    out.set("serve.cache_probe_us", per_request("serve.cache_probe"));
    out.set("serve.batcher_us", per_request("serve.batcher"));
    out.set("core.estimate_batch_us", per_request("core.estimate_batch"));
    out.set("core.estimate_us", per_request("core.estimate"));
    out.set("core.featurize_us", per_request("core.featurize"));
    out.set("nn.forward_us", per_request("nn.forward"));
    let attributed: f64 = ROUNDTRIP_LEDGER
        .iter()
        .map(|m| out.get(m).expect("ledger metric set above"))
        .sum();
    let roundtrip = out.get("serve.roundtrip_us").expect("set above");
    out.check(
        (attributed - roundtrip).abs() <= 1e-6 * roundtrip.max(1.0),
        || format!("ledger sums to {attributed} us against a {roundtrip} us round trip"),
    );
    let forward_ns = l.get("nn.forward").map_or(0.0, |t| t.total_ns);
    out.set("nn.forward_flops", flops as f64 / forwarded.max(1) as f64);
    out.set("nn.forward_gflops", flops as f64 / forward_ns.max(1.0));
    out.detail(
        "ledger",
        Json::obj()
            .with("requests", requests)
            .with("model_path_requests", forwarded)
            .with(
                "flops",
                "computed from layer shapes and set sizes, not measured",
            ),
    );
}

/// Sets the planner's layer metrics from `plan.optimize` spans: the DP's
/// own time per plan and how many estimates a plan asks for.
pub fn set_plan_ledger(out: &mut Outcome, spans: &[Span], plans: usize) {
    let l = ledger(spans);
    let plans = plans.max(1) as f64;
    out.set(
        "plan.dp_self_us",
        l.get("plan.optimize").map_or(0.0, |t| t.self_ns) / plans / 1000.0,
    );
    let estimates = l.get("serve.roundtrip").map_or(0, |t| t.count);
    out.set("plan.estimates_per_plan", estimates as f64 / plans);
}
