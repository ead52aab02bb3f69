//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into the
//! layers' public functions: name, start, end and parent, on one thread.
//! A span's name is `<layer>:<operation>`; a layer's self time is the sum
//! over its spans of duration minus the part covered by child spans.
//!
//! Work that happens millions of times per second (the extractor ingesting
//! one audit event) cannot afford a span each. It is recorded as a
//! *rollup*: the summed duration and count of many short intervals, all
//! children of the enclosing span. Rollups count towards their own layer's
//! self time and are subtracted from the parent's.
//!
//! With tracing off every call is a no-op apart from one branch, so the
//! same workload code serves the untraced and the traced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

#[derive(Debug, Clone)]
struct Rollup {
    name: &'static str,
    parent: Option<usize>,
    total_ns: u64,
    count: u64,
}

/// One thread's spans. Threads record into their own tracer and the
/// workload merges them with [`Tracer::absorb`] at the end.
pub struct Tracer {
    enabled: bool,
    thread: u32,
    origin: Instant,
    spans: Vec<(u32, Span)>,
    rollups: Vec<(u32, Rollup)>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            thread: 0,
            origin,
            spans: Vec::new(),
            rollups: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// An empty tracer for another thread, sharing this one's clock origin.
    pub fn for_thread(&self, thread: u32) -> Tracer {
        Tracer {
            thread,
            ..Tracer::new(self.enabled, self.origin)
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push((
            self.thread,
            Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
            },
        ));
        let id = self.spans.len() - 1;
        self.open.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end_ns = self.ns(Instant::now());
        self.spans[id].1.end_ns = end_ns;
        // Spans close in stack order; anything above `id` was left open
        // by mistake and is closed with it.
        while let Some(top) = self.open.pop() {
            if top == id {
                break;
            }
            self.spans[top].1.end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Records an already-finished interval as a child of the open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
        };
        self.spans.push((self.thread, span));
    }

    /// Records `count` short intervals totalling `total` as one rollup
    /// child of the open span.
    pub fn rollup(&mut self, name: &'static str, total: Duration, count: u64) {
        if !self.enabled || count == 0 {
            return;
        }
        let rollup = Rollup {
            name,
            parent: self.open.last().copied(),
            total_ns: total.as_nanos() as u64,
            count,
        };
        self.rollups.push((self.thread, rollup));
    }

    /// Adds `v` to the counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            *self.counters.entry(name).or_default() += v;
        }
    }

    /// Raises the counter `name` to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            let slot = self.counters.entry(name).or_default();
            *slot = slot.max(v);
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Moves another thread's finished spans and counters into this
    /// tracer.
    pub fn absorb(&mut self, other: Tracer) {
        for (name, v) in other.counters {
            *self.counters.entry(name).or_default() += v;
        }
        let base = self.spans.len();
        let shift = |p: Option<usize>| p.map(|p| p + base);
        for (t, mut s) in other.spans {
            s.parent = shift(s.parent);
            self.spans.push((t, s));
        }
        for (t, mut r) in other.rollups {
            r.parent = shift(r.parent);
            self.rollups.push((t, r));
        }
    }

    /// Self time per layer; the total duration of root spans (the wall
    /// time the trace covers, summed over threads); and the part of it no
    /// child span or rollup covers.
    pub fn self_times(&self) -> (BTreeMap<&'static str, Duration>, Duration, Duration) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for (_, s) in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut layers: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for (_, r) in &self.rollups {
            if let Some(p) = r.parent {
                child_ns[p] += r.total_ns;
            }
            *layers.entry(layer_of(r.name)).or_default() += Duration::from_nanos(r.total_ns);
        }
        let mut roots = Duration::ZERO;
        let mut uncovered = Duration::ZERO;
        for (i, (_, s)) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let own = Duration::from_nanos(dur.saturating_sub(child_ns[i]));
            if s.parent.is_none() {
                roots += Duration::from_nanos(dur);
                uncovered += own;
            }
            *layers.entry(layer_of(s.name)).or_default() += own;
        }
        (layers, roots, uncovered)
    }

    /// Summed duration and count of the spans and rollups called `name`.
    pub fn total(&self, name: &str) -> (Duration, u64) {
        let mut total = Duration::ZERO;
        let mut count = 0;
        for (_, s) in self.spans.iter().filter(|(_, s)| s.name == name) {
            total += Duration::from_nanos(s.end_ns - s.start_ns);
            count += 1;
        }
        for (_, r) in self.rollups.iter().filter(|(_, r)| r.name == name) {
            total += Duration::from_nanos(r.total_ns);
            count += r.count;
        }
        (total, count)
    }

    /// Spans recorded so far plus rollup intervals folded into them: the
    /// number of clock pairs the trace paid for.
    pub fn timed_intervals(&self) -> u64 {
        self.spans.len() as u64 + self.rollups.iter().map(|(_, r)| r.count).sum::<u64>()
    }

    /// The trace as JSON: provenance, spans (with parent indices) and
    /// rollups.
    pub fn to_json(&self, provenance: &str) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"provenance\": {provenance},\n\"spans\": [");
        for (i, (t, s)) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\": {i}, \"thread\": {t}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n],\n\"rollups\": [");
        for (i, (t, r)) in self.rollups.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"thread\": {t}, \"name\": \"{}\", \"total_ns\": {}, \"count\": {}, \"parent\": {parent}}}",
                r.name, r.total_ns, r.count
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// `"sim:run_until"` → `"sim"`.
fn layer_of(name: &str) -> &str {
    name.split(':').next().unwrap_or(name)
}

/// Measures what one span costs to record, so workloads whose untraced
/// twin is not rerun can still state their tracing overhead.
pub fn span_cost() -> Duration {
    const N: u32 = 20_000;
    let mut t = Tracer::new(true, Instant::now());
    let root = t.begin("bench:calibrate");
    let start = Instant::now();
    for _ in 0..N {
        let open = t.begin("bench:probe");
        t.end(open);
    }
    let cost = start.elapsed() / N;
    t.end(root);
    cost
}
