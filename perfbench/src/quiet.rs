//! Measuring the program rather than the hypervisor.
//!
//! On a shared virtual machine the host steals CPU time from the guest in
//! bursts, and how much changes from minute to minute: across ten
//! back-to-back runs of one closed loop it ranged from 0% to 30% of the
//! phase, and the loop's throughput from 1.5k to 4.5k requests/s. The
//! workloads here advance in lockstep — a request hops between client,
//! connection and batch threads; a two-thread build synchronizes every
//! batch — so a stall on either core stalls the whole program, and the
//! time lost is close to the steal summed over the cores.
//!
//! Every timed operation therefore carries its start and end, and a
//! sampler reads the host's steal counter every [`WINDOW`]:
//!
//! * **rates and durations are net of steal**: wall time minus the steal
//!   the host reported over the same interval. Over ten runs this took
//!   the spread of build times from 0.35–0.48 to 0.03–0.09 of the median,
//!   and that of the ad-hoc throughput from 0.42 to 0.10;
//! * **latency percentiles** are order statistics of the operations that
//!   ran entirely inside windows in which — counting both neighbours —
//!   the host stole nothing, or, when those hold fewer than
//!   [`MIN_QUIET_OPS`] operations, inside the least-stolen windows that
//!   reach that many.
//!
//! The raw figures stay in the result record beside the corrected ones.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::host::steal_jiffies;
use crate::json::Json;

/// Sampling period of the steal counter (the counter itself ticks in
/// 10 ms jiffies).
pub const WINDOW: Duration = Duration::from_millis(50);

/// Operations the latency selection holds at least, when the phase has
/// them: enough for a p99 with ten samples beyond it.
pub const MIN_QUIET_OPS: usize = 1000;

/// Seconds per steal jiffy (`/proc/stat` counts in the fixed 100 Hz user
/// clock).
pub const JIFFY_S: f64 = 0.01;

/// One timed operation, in nanoseconds since the phase epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timed {
    pub start: u64,
    pub end: u64,
}

fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

impl Timed {
    pub fn new(epoch: Instant, start: Instant, end: Instant) -> Self {
        Self {
            start: ns_since(epoch, start),
            end: ns_since(epoch, end),
        }
    }

    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    pub fn us(&self) -> f64 {
        self.ns() as f64 / 1000.0
    }
}

/// Mean duration of `ops` in microseconds; 0 for none.
pub fn mean_us(ops: &[Timed]) -> f64 {
    if ops.is_empty() {
        return 0.0;
    }
    ops.iter().map(Timed::us).sum::<f64>() / ops.len() as f64
}

/// The interval from the first start to the last end of `ops`.
pub fn extent(ops: &[Timed]) -> (u64, u64) {
    ops.iter().fold((u64::MAX, 0), |(lo, hi), op| {
        (lo.min(op.start), hi.max(op.end))
    })
}

/// Reads the host steal counter every [`WINDOW`] on its own thread.
pub struct StealSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<(u64, u64)>>,
}

impl StealSampler {
    pub fn start(epoch: Instant) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mark = || (ns_since(epoch, Instant::now()), steal_jiffies());
            let mut marks = vec![mark()];
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(WINDOW);
                marks.push(mark());
            }
            marks
        });
        Self { stop, handle }
    }

    /// Stops sampling and returns the steal log.
    pub fn stop(self) -> StealLog {
        self.stop.store(true, Ordering::Relaxed);
        let marks = self.handle.join().expect("steal sampler panicked");
        StealLog { marks }
    }
}

/// Host steal counter readings over a phase.
#[derive(Debug, Clone)]
pub struct StealLog {
    /// `(nanoseconds since epoch, cumulative steal jiffies)`, in order.
    pub marks: Vec<(u64, u64)>,
}

/// Windows whose operations the latency percentiles use: merged, sorted
/// time intervals.
#[derive(Debug, Clone)]
pub struct Quiet {
    intervals: Vec<(u64, u64)>,
}

impl StealLog {
    /// Seconds of steal the host reported between `lo` and `hi`, reading
    /// the counter linearly between samples.
    pub fn stolen_s(&self, lo: u64, hi: u64) -> f64 {
        (self.jiffies_at(hi) - self.jiffies_at(lo)).max(0.0) * JIFFY_S
    }

    fn jiffies_at(&self, t: u64) -> f64 {
        let i = self.marks.partition_point(|&(at, _)| at <= t);
        match (i.checked_sub(1).map(|k| self.marks[k]), self.marks.get(i)) {
            (Some((t0, v0)), Some(&(t1, v1))) => {
                let f = (t - t0) as f64 / (t1 - t0).max(1) as f64;
                v0 as f64 + f * v1.saturating_sub(v0) as f64
            }
            (Some((_, v)), None) | (None, Some(&(_, v))) => v as f64,
            (None, None) => 0.0,
        }
    }

    /// Selects the windows inside the span of `ops` in which, counting
    /// both neighbours, the host stole nothing, then — while they hold
    /// fewer than [`MIN_QUIET_OPS`] operations — the least-stolen of the
    /// rest by the same count.
    pub fn quiet(&self, ops: &[Timed]) -> Quiet {
        let (lo, hi) = extent(ops);
        let windows: Vec<(u64, u64, u64)> = self
            .marks
            .windows(2)
            .map(|w| (w[0].0, w[1].0, w[1].1.saturating_sub(w[0].1)))
            .filter(|&(a, b, _)| a >= lo && b <= hi)
            .collect();
        // Operations that start and end inside each window.
        let mut inside = vec![0usize; windows.len()];
        for op in ops {
            let i = windows.partition_point(|&(_, b, _)| b <= op.start);
            if windows
                .get(i)
                .is_some_and(|&(a, b, _)| a <= op.start && op.end < b)
            {
                inside[i] += 1;
            }
        }
        // The counter lags the stall it reports by up to a jiffy, so a
        // window is only as quiet as its neighbourhood.
        let near = |i: usize| -> u64 {
            windows[i.saturating_sub(1)..(i + 2).min(windows.len())]
                .iter()
                .map(|w| w.2)
                .sum()
        };
        let mut order: Vec<usize> = (0..windows.len()).collect();
        order.sort_by_key(|&i| (near(i), i));
        let mut chosen = vec![false; windows.len()];
        let mut held = 0;
        for i in order {
            if near(i) > 0 && held >= MIN_QUIET_OPS {
                break;
            }
            chosen[i] = true;
            held += inside[i];
        }
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        for (&(a, b, _), _) in windows.iter().zip(&chosen).filter(|(_, &c)| c) {
            match intervals.last_mut() {
                Some(last) if last.1 == a => last.1 = b,
                _ => intervals.push((a, b)),
            }
        }
        Quiet { intervals }
    }
}

impl Quiet {
    /// Seconds the selection covers.
    pub fn seconds(&self) -> f64 {
        self.intervals.iter().map(|(a, b)| b - a).sum::<u64>() as f64 / 1e9
    }

    /// Whether an operation ran entirely inside one selected interval.
    pub fn holds(&self, op: &Timed) -> bool {
        let i = self.intervals.partition_point(|&(_, b)| b <= op.start);
        self.intervals
            .get(i)
            .is_some_and(|&(a, b)| a <= op.start && op.end < b)
    }

    /// The operations that ran entirely inside the selection.
    pub fn filter<'a>(&self, ops: &'a [Timed]) -> Vec<&'a Timed> {
        ops.iter().filter(|op| self.holds(op)).collect()
    }
}

/// Seconds from `wall_s` of elapsed time once `stolen_s` is taken out,
/// never below a tenth of the wall time.
pub fn net_s(wall_s: f64, stolen_s: f64) -> f64 {
    (wall_s - stolen_s).max(wall_s / 10.0)
}

/// Operations completed per second of the span of `ops`, net of the
/// steal the host reported over it.
pub fn net_rate(ops: &[Timed], log: &StealLog) -> f64 {
    if ops.is_empty() {
        return 0.0;
    }
    let (lo, hi) = extent(ops);
    let wall = hi.saturating_sub(lo) as f64 / 1e9;
    ops.len() as f64 / net_s(wall, log.stolen_s(lo, hi)).max(1e-9)
}

/// What the correction did over a phase, for the result record.
pub fn describe(ops: &[Timed], log: &StealLog, quiet: &Quiet) -> Json {
    let (lo, hi) = extent(ops);
    let wall = hi.saturating_sub(lo) as f64 / 1e9;
    Json::obj()
        .with("operations", ops.len())
        .with("wall_s", wall)
        .with("stolen_s", log.stolen_s(lo, hi))
        .with("wall_rate", ops.len() as f64 / wall.max(1e-9))
        .with("quiet_s", quiet.seconds())
        .with("quiet_operations", quiet.filter(ops).len())
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u64 = 1_000_000_000;

    /// A log of one-second windows with the given steal jiffies.
    fn log(steals: &[u64]) -> StealLog {
        let mut total = 0;
        let mut marks = vec![(0, 0)];
        for (i, s) in steals.iter().enumerate() {
            total += s;
            marks.push(((i as u64 + 1) * S, total));
        }
        StealLog { marks }
    }

    /// `n` back-to-back operations spread evenly over `[a, b]` seconds;
    /// the last one ends at `b` exactly, so the span covers every window.
    fn ops(a: u64, b: u64, n: u64) -> Vec<Timed> {
        let step = (b - a) * S / n;
        (0..n)
            .map(|i| Timed {
                start: a * S + i * step,
                end: if i + 1 == n {
                    b * S
                } else {
                    a * S + (i + 1) * step - 1
                },
            })
            .collect()
    }

    #[test]
    fn rates_are_net_of_reported_steal() {
        let l = log(&[0, 50, 0, 50]);
        assert_eq!(l.stolen_s(S, 2 * S), 0.5);
        assert_eq!(l.stolen_s(0, S), 0.0);
        // 4 s of wall, 1 s stolen: 300 operations over 3 net seconds.
        let r = net_rate(&ops(0, 4, 300), &l);
        assert_eq!(r, 100.0);
        assert_eq!(net_s(1.0, 5.0), 0.1);
    }

    #[test]
    fn latency_uses_windows_with_quiet_neighbourhoods() {
        let l = log(&[0, 0, 0, 3, 0, 0, 0, 1]);
        let all = ops(0, 8, 8 * MIN_QUIET_OPS as u64);
        let q = l.quiet(&all);
        // Windows 0, 1 and 5 have no steal on either side.
        assert_eq!(q.seconds(), 3.0);
        assert!(q
            .filter(&all)
            .iter()
            .all(|op| [0, 1, 5].contains(&(op.start / S))));
    }

    #[test]
    fn busy_phases_top_up_with_the_least_stolen_windows() {
        let l = log(&[1, 1, 9, 9, 9, 2, 2, 9]);
        // Each window holds MIN_QUIET_OPS / 2 operations. Counting both
        // neighbours, the windows saw 2, 11, 19, 27, 20, 13, 13 and 11
        // jiffies: windows 0 and 1 (the lower index first on a tie) make
        // up the minimum.
        let all = ops(0, 8, 4 * MIN_QUIET_OPS as u64);
        let q = l.quiet(&all);
        assert_eq!(q.seconds(), 2.0);
        assert!(q.holds(&Timed {
            start: 1,
            end: 2 * S - 1
        }));
        assert!(!q.holds(&Timed {
            start: 5 * S + 1,
            end: 6 * S - 1
        }));
    }
}
