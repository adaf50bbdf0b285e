//! `perfbench --workload <adhoc|planner> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a context line, then the result as the last line of standard
//! output: `{"correct", "attempted", "failed", "metrics"}` with every
//! end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). The full record — host fingerprint, host noise per
//! phase, sample counts — goes to `out/` beside this crate, and a traced
//! run also writes its spans there. Exits 1 when a correctness check
//! fails and 2 on bad arguments or a run that could not complete.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use perfbench::host::fingerprint;
use perfbench::json::Json;
use perfbench::report::RunConfig;
use perfbench::trace::write_spans;

const USAGE: &str =
    "usage: perfbench --workload <adhoc|planner> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: impl Iterator<Item = String>) -> Result<RunConfig, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let out = match perfbench::run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} run failed: {e}", cfg.workload);
            return ExitCode::from(2);
        }
    };
    let result = out.result_line(cfg.trace);
    let stem = format!(
        "{}-seed{}-trace{}",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace)
    );
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let record = Json::obj()
        .with("workload", cfg.workload.as_str())
        .with("seed", cfg.seed)
        .with("seconds", cfg.seconds)
        .with("trace", cfg.trace)
        .with("wall_s", started.elapsed().as_secs_f64())
        .with("host", fingerprint())
        .with("not_exercised", out.not_exercised())
        .with("result", result.clone())
        .with("detail", out.detail_json());
    if let Err(e) = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), record.render() + "\n"))
    {
        eprintln!("perfbench: cannot write the result record: {e}");
    }
    if cfg.trace {
        if let Err(e) = write_spans(&dir.join(format!("{stem}-spans.jsonl")), &out.spans) {
            eprintln!("perfbench: cannot write spans: {e}");
        }
    }
    for p in &out.problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    println!(
        "{}",
        Json::obj()
            .with("workload", cfg.workload.as_str())
            .with("seed", cfg.seed)
            .with("host", fingerprint())
            .render()
    );
    println!("{}", result.render());
    if out.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
