//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it, and the
//! request it belongs to. Spans stay in per-thread buffers while the run
//! measures and are written out once it ends.
//!
//! Self time is a span's duration minus the durations of its children.
//! Two kinds of children exist: calls made inside the parent's interval
//! (the wire round trips an optimizer makes while planning), and
//! *replays*: the layer functions a server request ran, called again
//! in-process with that request's inputs right after its round trip.
//! Replays are attributed to the span whose work they reproduce, so a
//! round trip's self time is the part of it no replayed layer explains.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// One recorded span. Times are nanoseconds since the run's trace epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// Causing span, 0 for a root.
    pub parent: u64,
    /// Identifier shared by every span of one request (or plan, or build).
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span buffer. Lanes interleave id ranges so ids stay
/// unique across threads without sharing a counter.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    lanes: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A buffer for thread `lane` of `lanes`, timing against `epoch`.
    pub fn new(epoch: Instant, lane: usize, lanes: usize) -> Self {
        Self {
            epoch,
            next_id: lane as u64 + 1,
            lanes: lanes.max(1) as u64,
            spans: Vec::new(),
        }
    }

    /// A fresh id, for a request or for a span recorded later.
    pub fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += self.lanes;
        id
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span under a pre-allocated id.
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id();
        self.record_as(id, name, parent, request, start, end);
        id
    }

    /// Runs `f` inside a span; returns its result and the span id.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        (r, self.record(name, parent, request, start, end))
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Totals of one span name across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    pub count: u64,
    pub total_ns: f64,
    /// Duration minus children, summed. A replayed layer can take longer
    /// than the span it is attributed to, so this may be negative.
    pub self_ns: f64,
}

/// Per-name totals, with self time computed from the parent links.
pub fn ledger(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.duration_ns();
    }
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        let d = s.duration_ns() as f64;
        t.count += 1;
        t.total_ns += d;
        t.self_ns += d - child_ns.get(&s.id).copied().unwrap_or(0) as f64;
    }
    out
}

/// Writes spans as JSON lines, one span per line, creating parent
/// directories as needed.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let line = Json::obj()
            .with("id", s.id)
            .with("parent", s.parent)
            .with("request", s.request)
            .with("name", s.name)
            .with("start_ns", s.start_ns)
            .with("end_ns", s.end_ns)
            .render();
        writeln!(out, "{line}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_including_replays() {
        let epoch = Instant::now();
        let at = |ns: u64| epoch + Duration::from_nanos(ns);
        let mut t = Tracer::new(epoch, 0, 1);
        let req = t.next_id();
        let rt = t.record("roundtrip", 0, req, at(0), at(100));
        // A replay after the round trip, attributed to it.
        let b = t.record("batcher", rt, req, at(110), at(150));
        t.record("estimate", b, req, at(120), at(145));
        let l = ledger(&t.into_spans());
        assert_eq!(l["roundtrip"].self_ns, 60.0);
        assert_eq!(l["batcher"].self_ns, 15.0);
        assert_eq!(l["estimate"].self_ns, 25.0);
        // Self times telescope back to the root's duration.
        let sum: f64 = l.values().map(|t| t.self_ns).sum();
        assert_eq!(sum, 100.0);
    }
}
