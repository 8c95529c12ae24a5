//! In-memory span recording around calls into each crate.
//!
//! A span has a name, a start, an end, its parent span and the job it
//! belongs to. Spans are kept in memory and written out once the run ends,
//! so recording costs one `Instant::now()` per boundary. A disabled
//! [`Tracer`] records nothing and reads no clock.

use gcl_sim::{LaunchInfo, ReplayKind, TraceEvent, TraceSink};
use gcl_stats::Json;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Boundary name, `<crate>.<call>` (e.g. `sim.launch`).
    pub name: &'static str,
    /// Job the span belongs to.
    pub job: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

/// A span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    t0: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u64,
}

impl Tracer {
    /// A recorder that records (`on`) or does nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            t0: on.then(Instant::now),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.t0.is_some()
    }

    fn ns(&self, at: Instant) -> u64 {
        let t0 = self.t0.expect("clock read only while tracing");
        u64::try_from(at.saturating_duration_since(t0).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open the root span of job `job`; every span until
    /// [`end_job`](Self::end_job) belongs to it.
    pub fn begin_job(&mut self, job: u64) -> SpanId {
        self.job = job;
        self.begin("job")
    }

    /// Close the job span and any span a failed step left open.
    pub fn end_job(&mut self) {
        while !self.open.is_empty() {
            self.end(self.open.last().copied());
        }
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        self.t0?;
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Some(id)
    }

    /// Close `id` (and anything opened inside it that is still open).
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let now = self.ns(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Record an already-finished interval as a child of the innermost open
    /// span (used for launches timed by [`LaunchClock`]).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.on() {
            return;
        }
        let span = Span {
            name,
            job: self.job,
            parent: self.open.last().copied(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration per span name, in seconds.
    pub fn totals(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0.0) += s.secs();
        }
        out
    }

    /// Self time per span name, in seconds: each span's duration minus the
    /// part of it its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.secs();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0.0) += s.secs() - c;
        }
        out
    }

    /// The spans as JSON objects, tagged with the pass they came from.
    pub fn to_json(&self, pass: usize) -> Vec<Json> {
        self.spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("pass", Json::UInt(pass as u64)),
                    ("job", Json::UInt(s.job)),
                    ("name", Json::Str(s.name.to_string())),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                    ),
                    ("start_ns", Json::UInt(s.start_ns)),
                    ("end_ns", Json::UInt(s.end_ns)),
                ])
            })
            .collect()
    }
}

#[derive(Debug, Default)]
struct Launches {
    open: Option<Instant>,
    done: Vec<(Instant, Instant)>,
}

/// A [`TraceSink`] that only timestamps `begin_launch` → `end_launch`, so
/// launches driven from inside `Workload::run` show up as spans. Clones
/// share one record.
#[derive(Debug, Clone, Default)]
pub struct LaunchClock(Arc<Mutex<Launches>>);

impl LaunchClock {
    /// Take the completed launch intervals recorded so far.
    pub fn take(&self) -> Vec<(Instant, Instant)> {
        std::mem::take(&mut self.0.lock().expect("launch clock poisoned").done)
    }
}

impl TraceSink for LaunchClock {
    fn begin_launch(&mut self, _info: &LaunchInfo) {
        self.0.lock().expect("launch clock poisoned").open = Some(Instant::now());
    }

    fn issue(&mut self, _stream: u64, _ev: &TraceEvent, _kind: &ReplayKind) {}

    fn end_launch(&mut self) {
        let end = Instant::now();
        let mut l = self.0.lock().expect("launch clock poisoned");
        if let Some(start) = l.open.take() {
            l.done.push((start, end));
        }
    }

    fn abort_launch(&mut self) {
        self.0.lock().expect("launch clock poisoned").open = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_failed_steps_close() {
        let mut t = Tracer::new(true);
        t.begin_job(7);
        let run = t.begin("workloads.run");
        let a = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.record("sim.launch", a, Instant::now());
        t.end(run);
        t.begin("exec.cache_store"); // left open, as by a failing step
        t.end_job();
        assert!(t
            .spans()
            .iter()
            .all(|s| s.job == 7 && s.end_ns >= s.start_ns));
        let totals = t.totals();
        let selfs = t.self_times();
        assert!(totals["sim.launch"] >= 0.002);
        let run_self = selfs["workloads.run"];
        assert!((run_self - (totals["workloads.run"] - totals["sim.launch"])).abs() < 1e-9);
        let covered: f64 = ["workloads.run", "exec.cache_store"]
            .iter()
            .map(|n| totals[n])
            .sum();
        assert!((selfs["job"] - (totals["job"] - covered)).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin_job(1);
        let s = t.begin("x");
        assert!(s.is_none());
        t.record("y", Instant::now(), Instant::now());
        t.end(s);
        t.end_job();
        assert!(t.spans().is_empty());
    }
}
