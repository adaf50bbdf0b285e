//! End-to-end and per-layer benchmark of the deep-sketches workspace.
//!
//! Two workloads run against the public APIs of `ds-storage`,
//! `ds-query`, `ds-nn`, `ds-core`, `ds-plan` and `ds-serve`, with the
//! server in-process as `Server::start(.., ServeConfig::default())`:
//!
//! * [`adhoc`] — never-repeating ESTIMATEs over the wire (model path);
//! * [`planner`] — an optimizer planning JOB-light over the wire with
//!   FEEDBACK (cache path).
//!
//! Both define and build their sketch in set-up, three times per run.
//!
//! An untraced run prints the end-to-end metrics; a traced run prints the
//! per-layer ledger. See `README.md` beside this crate.

pub mod adhoc;
pub mod catalog;
pub mod fixture;
pub mod host;
pub mod json;
pub mod planner;
pub mod quiet;
pub mod report;
pub mod serving;
pub mod stats;
pub mod trace;
pub mod wire;

use report::{Outcome, RunConfig};

/// Runs one workload. `Err` means the run could not complete at all (no
/// result is printed); correctness failures land in `Outcome::problems`.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    match cfg.workload.as_str() {
        "adhoc" => adhoc::run(cfg, &mut out)?,
        "planner" => planner::run(cfg, &mut out)?,
        other => return Err(format!("unknown workload '{other}'")),
    }
    out.set("peak_rss_mb", host::peak_rss_mb());
    out.check(out.attempted > 0, || {
        "the run attempted nothing".to_string()
    });
    Ok(out)
}
