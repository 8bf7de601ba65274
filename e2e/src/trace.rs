//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; tracing inside the program is a later change. The
//! client thread owns the [`Tracer`] (no lock: one closed-loop client is
//! the only writer). Server-side time inside `AppHost::call` is gathered
//! by [`TracedHost`] into per-domain atomics and folded into one
//! `sandbox.host_calls` span per domain per operation — a threshold
//! signature makes ~3 000 host calls, and 3 000 spans per signature would
//! measure the recorder, not the sandbox.

use crate::json::Value;
use distrust_core::abi::AppHost;
use distrust_sandbox::vm::Memory;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one operation share an identifier (0 = set-up).
    pub op_id: u64,
    /// Events folded into this span (host calls, probe repetitions).
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; `None` inside when tracing is off.
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

/// In-memory span recorder; written out when the run ends.
pub struct Tracer {
    enabled: bool,
    /// Shared with every [`TracedHost`]: off, they pass calls straight
    /// through, so one deployment serves the untraced and the traced
    /// block of a traced run.
    hosts_enabled: Arc<AtomicBool>,
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last: the parent of the next `begin`.
    stack: Vec<usize>,
    op_id: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            hosts_enabled: Arc::new(AtomicBool::new(enabled)),
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op_id: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording (and the traced hosts' clocks) on or off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        self.hosts_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans begun from now on belong to operation `op_id`.
    pub fn set_op(&mut self, op_id: u64) {
        self.op_id = op_id;
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op_id: self.op_id,
            count: 1,
        });
        self.stack.push(index);
        SpanId(Some(index))
    }

    /// Ends `id` and, should a caller have skipped an `end`, every span
    /// opened inside it.
    pub fn end(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let now = self.now_ns();
        while let Some(open) = self.stack.pop() {
            self.spans[open].end_ns = now;
            if open == index {
                break;
            }
        }
    }

    /// Records an already-measured interval as a child of the innermost
    /// open span (used for the server-side host-call totals).
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, count: u64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.stack.last().copied(),
            op_id: self.op_id,
            count,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }
}

/// Every span's self time: its duration minus the part of its interval
/// that its direct children cover. Children may overlap one another (five
/// domains computing at once under one fan-out) and may stick out of the
/// parent (a straggler finishing after the quorum was met); overlap is
/// counted once and the overhang not at all.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    // Bucketing children by parent first keeps this near-linear; a trace
    // holds tens of thousands of spans.
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(parent) = s.parent.and_then(|p| spans.get(p).map(|span| (p, span))) {
            let start = s.start_ns.max(parent.1.start_ns);
            let end = s.end_ns.min(parent.1.end_ns);
            if end > start {
                children[parent.0].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, covered)| {
            covered.sort_unstable();
            let mut total = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in covered.iter() {
                let start = start.max(reach);
                if end > start {
                    total += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(total)
        })
        .collect()
}

/// Per span name: how many, total time, total self time (µs).
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let entry = out.entry(s.name).or_insert((0, 0.0, 0.0));
        entry.0 += 1;
        entry.1 += s.duration_ns() as f64 / 1e3;
        entry.2 += self_ns as f64 / 1e3;
    }
    out
}

/// The trace file: every span, plus the per-name summary so the file can
/// be read without a tool.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Value {
    let summary = summarize(spans)
        .into_iter()
        .map(|(name, (count, total_us, self_us))| {
            (
                name.to_string(),
                Value::obj(vec![
                    ("count", Value::Num(count as f64)),
                    ("total_us", Value::Num(total_us)),
                    ("self_us", Value::Num(self_us)),
                ]),
            )
        })
        .collect();
    let spans = spans
        .iter()
        .map(|s| {
            Value::obj(vec![
                ("name", Value::str(s.name)),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("op_id", Value::Num(s.op_id as f64)),
                ("count", Value::Num(s.count as f64)),
            ])
        })
        .collect();
    Value::obj(vec![
        ("workload", Value::str(workload)),
        ("seed", Value::Num(seed as f64)),
        ("self_time_by_name", Value::Obj(summary)),
        ("spans", Value::Arr(spans)),
    ])
}

/// What one domain's [`TracedHost`] has seen since the last drain. All
/// `Relaxed`: each field is a statistic that publishes no other data, and
/// the harness drains between operations of a closed loop.
#[derive(Default)]
pub struct HostCounters {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    /// Start of the first call since the last drain (0 = none yet).
    first_ns: AtomicU64,
    last_ns: AtomicU64,
}

/// A drained [`HostCounters`] reading.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostReading {
    pub calls: u64,
    pub busy_ns: u64,
    pub first_ns: u64,
    pub last_ns: u64,
}

impl HostCounters {
    /// Reads and resets. A domain still computing an abandoned straggler
    /// when the harness drains simply reports the rest next time.
    pub fn drain(&self) -> HostReading {
        HostReading {
            calls: self.calls.swap(0, Ordering::Relaxed),
            busy_ns: self.busy_ns.swap(0, Ordering::Relaxed),
            first_ns: self.first_ns.swap(0, Ordering::Relaxed),
            last_ns: self.last_ns.swap(0, Ordering::Relaxed),
        }
    }
}

/// Counts and times every `AppHost::call` of the host it wraps. Handed to
/// `AppSpec` in place of the real host in the traced run only: two clock
/// reads per host call are the tracing overhead the run reports.
pub struct TracedHost {
    inner: Box<dyn AppHost>,
    counters: Arc<HostCounters>,
    enabled: Arc<AtomicBool>,
    epoch: Instant,
}

impl TracedHost {
    /// Wraps `inner`; shares `tracer`'s clock zero and on/off switch.
    pub fn new(inner: Box<dyn AppHost>, counters: Arc<HostCounters>, tracer: &Tracer) -> Self {
        Self {
            inner,
            counters,
            enabled: tracer.hosts_enabled.clone(),
            epoch: tracer.epoch,
        }
    }
}

impl AppHost for TracedHost {
    fn call(&mut self, name: &str, args: &[u64], memory: &mut Memory) -> Result<Vec<u64>, String> {
        // Relaxed: the flag publishes nothing; a call straddling the
        // switch is counted or not, either is fine.
        if !self.enabled.load(Ordering::Relaxed) {
            return self.inner.call(name, args, memory);
        }
        let start = self.epoch.elapsed().as_nanos() as u64;
        let result = self.inner.call(name, args, memory);
        let end = self.epoch.elapsed().as_nanos() as u64;
        let c = &self.counters;
        c.calls.fetch_add(1, Ordering::Relaxed);
        c.busy_ns.fetch_add(end - start, Ordering::Relaxed);
        // Keep the earliest start; `max(1)` keeps 0 meaning "unset".
        let _ = c
            .first_ns
            .compare_exchange(0, start.max(1), Ordering::Relaxed, Ordering::Relaxed);
        c.last_ns.store(end, Ordering::Relaxed);
        result
    }
}

impl Tracer {
    /// Drains every domain's host counters into one `sandbox.host_calls`
    /// span each, under the innermost open span.
    pub fn record_host_calls(&mut self, counters: &[Arc<HostCounters>]) {
        if !self.enabled {
            return;
        }
        for c in counters {
            let r = c.drain();
            if r.calls > 0 {
                self.record("sandbox.host_calls", r.first_ns, r.last_ns, r.calls);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 1,
            count: 1,
        }
    }

    #[test]
    fn self_time_with_nested_and_overlapping_children() {
        let spans = vec![
            span("op", 0, 100, None),            // 0
            span("fanout", 10, 70, Some(0)),     // 1: child of op
            span("host", 20, 50, Some(1)),       // 2: overlapping siblings
            span("host", 40, 60, Some(1)),       // 3
            span("host", 65, 90, Some(1)),       // 4: sticks out of its parent
            span("verify", 70, 95, Some(0)),     // 5
            span("grandchild", 72, 80, Some(5)), // 6: not a direct child of op
        ];
        let own = self_times_ns(&spans);
        // op: 100 − (fanout 60 + verify 25) = 15; the grandchild is its
        // parent's business.
        assert_eq!(own[0], 15);
        // fanout: 60 − union([20,60] ∪ [65,70]) = 60 − 45 = 15.
        assert_eq!(own[1], 15);
        assert_eq!(own[5], 17);
        assert_eq!(own[6], 8);
        let summary = summarize(&spans);
        assert_eq!(summary["op"], (1, 0.1, 0.015));
        assert_eq!(summary["host"].0, 3);
        assert_eq!(summary["fanout"].2, 0.015);
    }

    #[test]
    fn tracer_nests_and_closes_forgotten_spans() {
        let mut t = Tracer::new(true);
        t.set_op(7);
        let outer = t.begin("outer");
        let _forgotten = t.begin("inner");
        t.record("folded", 1, 2, 3000);
        t.end(outer);
        let after = t.begin("after");
        t.end(after);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(
            s[2].parent,
            Some(1),
            "recorded under the innermost open span"
        );
        assert_eq!(s[2].count, 3000);
        assert_eq!(
            s[3].parent, None,
            "the stack was unwound past the forgotten span"
        );
        assert!(s[1].end_ns >= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(s.iter().take(3).all(|s| s.op_id == 7));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x");
        t.record("y", 0, 1, 1);
        t.end(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn traced_host_counts_and_drains() {
        struct Echo;
        impl AppHost for Echo {
            fn call(&mut self, _: &str, args: &[u64], _: &mut Memory) -> Result<Vec<u64>, String> {
                Ok(args.to_vec())
            }
        }
        let counters = Arc::new(HostCounters::default());
        let mut tracer = Tracer::new(true);
        let mut host = TracedHost::new(Box::new(Echo), counters.clone(), &tracer);
        let mut instance = distrust_sandbox::Instance::new(
            distrust_sandbox::guests::counter_module(1),
            distrust_sandbox::Limits::default(),
        )
        .unwrap();
        for i in 0..5 {
            assert_eq!(host.call("f", &[i], &mut instance.memory).unwrap(), vec![i]);
        }
        let r = counters.drain();
        assert_eq!(r.calls, 5);
        assert!(r.first_ns >= 1 && r.last_ns >= r.first_ns);
        assert_eq!(counters.drain(), HostReading::default());
        // Switched off, the host passes calls through uncounted.
        tracer.set_enabled(false);
        assert_eq!(host.call("f", &[9], &mut instance.memory).unwrap(), vec![9]);
        assert_eq!(counters.drain(), HostReading::default());
    }

    #[test]
    fn trace_file_round_trips() {
        let spans = vec![span("op", 0, 100, None), span("child", 10, 20, Some(0))];
        let doc = to_json("sign_quorum", 42, &spans);
        let parsed = crate::json::parse(&doc.render_pretty()).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(parsed.get("spans").unwrap().as_arr().unwrap().len(), 2);
    }
}
