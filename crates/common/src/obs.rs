//! The observability plane: trace spans, metrics, and the slow-query log.
//!
//! Everything in this module is zero-dependency and process-global, so any
//! crate in the workspace can record into it without plumbing handles:
//!
//! * [`TraceSink`] — a lock-free ring buffer of timed, hierarchical
//!   [`Span`]s. Writers claim a slot with one `fetch_add` and publish the
//!   span through a per-slot seqlock, so recording never blocks and never
//!   allocates. Tracing is off unless the `RAPTOR_TRACE` environment
//!   variable is set (or [`TraceSink::set_enabled`] is called); the
//!   disabled path is a single relaxed atomic load.
//! * [`MetricsRegistry`] — named counters, gauges and fixed-bucket
//!   histograms with a point-in-time [`MetricsSnapshot`] exportable as
//!   JSON or Prometheus text format. Metrics are always on: they are
//!   touched once per query / epoch, never per row.
//! * [`SlowQueryLog`] — a bounded ring of queries whose wall time crossed
//!   `RAPTOR_SLOW_QUERY_MS`, each with the `EXPLAIN ANALYZE` report the
//!   engine attaches.
//!
//! Span parents come from a per-thread stack maintained by [`SpanGuard`],
//! so spans recorded on another thread are roots of their own subtree.
//! Every span marks one logical operation, so span *counts* are
//! deterministic.

use std::cell::{RefCell, UnsafeCell};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

fn clock_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the first observability call in this process.
pub fn now_ns() -> u64 {
    clock_epoch().elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Maximum number of `(key, value)` attributes a span can carry.
pub const SPAN_ATTRS: usize = 4;

/// A short, fixed-capacity span label (truncated at a char boundary).
///
/// Spans are plain-old-data so they can live in the lock-free ring; the
/// label is the only dynamic part and is capped at 23 bytes.
#[derive(Clone, Copy)]
pub struct Label {
    len: u8,
    buf: [u8; 23],
}

impl Label {
    /// The empty label.
    pub const EMPTY: Label = Label { len: 0, buf: [0; 23] };

    /// Builds a label from `s`, truncating at a UTF-8 boundary if needed.
    pub fn new(s: &str) -> Label {
        let mut end = s.len().min(23);
        while end > 0 && !s.is_char_boundary(end) {
            end -= 1;
        }
        let mut buf = [0u8; 23];
        buf[..end].copy_from_slice(&s.as_bytes()[..end]);
        Label { len: end as u8, buf }
    }

    /// The label text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len as usize]).unwrap_or("")
    }
}

impl std::fmt::Debug for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

/// One timed operation: a node in the trace tree.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Parent span id, or 0 for a root span.
    pub parent: u64,
    /// Static span name from the span taxonomy (e.g. `"engine.pattern"`).
    pub name: &'static str,
    /// Short dynamic label (e.g. the pattern's event name).
    pub label: Label,
    /// Start time, nanoseconds since process epoch.
    pub start_ns: u64,
    /// Wall time in nanoseconds.
    pub dur_ns: u64,
    /// Numeric attributes; the first `nattrs` entries are valid.
    pub attrs: [(&'static str, u64); SPAN_ATTRS],
    /// Number of valid attributes.
    pub nattrs: u8,
}

impl Span {
    /// Looks up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<u64> {
        self.attrs[..self.nattrs as usize].iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

const EMPTY_SPAN: Span = Span {
    id: 0,
    parent: 0,
    name: "",
    label: Label::EMPTY,
    start_ns: 0,
    dur_ns: 0,
    attrs: [("", 0); SPAN_ATTRS],
    nattrs: 0,
};

/// Ring capacity in spans (power of two).
const RING_CAP: usize = 1 << 14;

/// One seqlocked ring slot.
///
/// `seq` encodes the slot state: `0` = never written, odd = a writer is
/// mid-copy, `2 * pos + 2` = holds the record claimed at position `pos`.
struct Slot {
    seq: AtomicU64,
    span: UnsafeCell<Span>,
}

// SAFETY: concurrent access to `span` is mediated by the `seq` seqlock —
// readers discard any copy whose surrounding sequence reads disagree, and
// the cell only ever holds plain-old-data.
unsafe impl Sync for Slot {}

/// Lock-free ring buffer of trace [`Span`]s.
pub struct TraceSink {
    enabled: AtomicBool,
    next_id: AtomicU64,
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl TraceSink {
    fn new() -> TraceSink {
        let on = std::env::var_os("RAPTOR_TRACE").is_some_and(|v| v != "0" && !v.is_empty());
        let slots = (0..RING_CAP)
            .map(|_| Slot { seq: AtomicU64::new(0), span: UnsafeCell::new(EMPTY_SPAN) })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        TraceSink {
            enabled: AtomicBool::new(on),
            next_id: AtomicU64::new(1),
            head: AtomicU64::new(0),
            slots,
        }
    }

    /// Whether tracing is currently on. One relaxed load: this is the whole
    /// cost of every span site when tracing is disabled.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns tracing on or off (overrides the `RAPTOR_TRACE` env gate).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Allocates a process-unique span id.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span. Never blocks; overwrites the oldest span
    /// once the ring wraps. No-op while disabled.
    pub fn record(&self, span: Span) {
        if !self.enabled() {
            return;
        }
        let pos = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(pos as usize) & (RING_CAP - 1)];
        // Seqlock write: odd marks the copy in progress, `2 * pos + 2`
        // publishes it as the record for ring position `pos`.
        slot.seq.store(2 * pos + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        // SAFETY: the cell holds POD; a racing reader validates with `seq`
        // and discards torn copies, a racing writer that lapped us will
        // simply publish a newer sequence that invalidates ours.
        unsafe { std::ptr::write_volatile(slot.span.get(), span) };
        slot.seq.store(2 * pos + 2, Ordering::Release);
    }

    /// Total spans recorded since creation (or the last [`clear`]).
    ///
    /// [`clear`]: TraceSink::clear
    pub fn span_count(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Copies out every span still retained in the ring, oldest first.
    pub fn snapshot(&self) -> Vec<Span> {
        let head = self.head.load(Ordering::Acquire);
        let first = head.saturating_sub(RING_CAP as u64);
        let mut out = Vec::with_capacity((head - first) as usize);
        for pos in first..head {
            let slot = &self.slots[(pos as usize) & (RING_CAP - 1)];
            let want = 2 * pos + 2;
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 != want {
                continue; // overwritten or still being written
            }
            // SAFETY: POD copy validated by re-reading the sequence below.
            let span = unsafe { std::ptr::read_volatile(slot.span.get()) };
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) == want {
                out.push(span);
            }
        }
        out
    }

    /// Empties the ring and resets the record counter. Not safe to call
    /// concurrently with writers (intended for tests and harnesses).
    pub fn clear(&self) {
        for slot in self.slots.iter() {
            slot.seq.store(0, Ordering::Release);
        }
        self.head.store(0, Ordering::Release);
    }
}

/// The process-global trace sink.
pub fn trace() -> &'static TraceSink {
    static SINK: OnceLock<TraceSink> = OnceLock::new();
    SINK.get_or_init(TraceSink::new)
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for an in-flight span; records on drop.
///
/// While alive, the span is this thread's current parent: nested guards
/// link to it automatically. Inert (and free) when tracing is off.
pub struct SpanGuard {
    span: Span,
    start: u64,
    active: bool,
}

/// Opens a span against the global sink. The returned guard records the
/// span (with wall time) when dropped.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    let sink = trace();
    if !sink.enabled() {
        return SpanGuard { span: EMPTY_SPAN, start: 0, active: false };
    }
    let id = sink.next_id();
    let parent = SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let start = now_ns();
    SpanGuard {
        span: Span { id, parent, name, start_ns: start, ..EMPTY_SPAN },
        start,
        active: true,
    }
}

impl SpanGuard {
    /// Sets the span's dynamic label (truncated to [`Label`] capacity).
    pub fn label(&mut self, text: &str) {
        if self.active {
            self.span.label = Label::new(text);
        }
    }

    /// Attaches a numeric attribute (silently dropped past [`SPAN_ATTRS`]).
    pub fn attr(&mut self, key: &'static str, value: u64) {
        if self.active && (self.span.nattrs as usize) < SPAN_ATTRS {
            self.span.attrs[self.span.nattrs as usize] = (key, value);
            self.span.nattrs += 1;
        }
    }

    /// This span's id (0 when tracing is off).
    pub fn id(&self) -> u64 {
        if self.active {
            self.span.id
        } else {
            0
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&self.span.id) {
                s.pop();
            }
        });
        self.span.dur_ns = now_ns().saturating_sub(self.start);
        trace().record(self.span);
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Number of histogram buckets (exponential, base 4, plus +Inf overflow).
pub const HIST_BUCKETS: usize = 16;

/// Upper bound (inclusive, in ns) of histogram bucket `i`; the last bucket
/// is the +Inf overflow.
pub fn bucket_bound_ns(i: usize) -> u64 {
    1024u64 << (2 * i as u32)
}

/// A fixed-bucket latency histogram (nanosecond observations, exponential
/// bounds from ~1µs to ~274s, plus overflow).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Hist {
    /// Per-bucket observation counts; `counts[HIST_BUCKETS - 1]` is +Inf.
    pub counts: [u64; HIST_BUCKETS],
    /// Sum of all observations, ns.
    pub sum_ns: u64,
    /// Total observation count.
    pub count: u64,
}

impl Hist {
    fn observe(&mut self, ns: u64) {
        let idx =
            (0..HIST_BUCKETS - 1).find(|&i| ns <= bucket_bound_ns(i)).unwrap_or(HIST_BUCKETS - 1);
        self.counts[idx] += 1;
        self.sum_ns += ns;
        self.count += 1;
    }
}

/// A metric's current value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonically increasing count.
    Counter(u64),
    /// Point-in-time level.
    Gauge(i64),
    /// Latency distribution.
    Histogram(Hist),
}

/// Process-global registry of named metrics.
///
/// Keys are sorted (`BTreeMap`), so snapshots and both export formats are
/// deterministic given deterministic inputs.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, MetricValue>>,
}

impl MetricsRegistry {
    /// Adds `v` to the counter `name` (creating it at zero).
    pub fn counter_add(&self, name: &str, v: u64) {
        let mut m = self.inner.lock().unwrap();
        match m.entry(name.to_string()).or_insert(MetricValue::Counter(0)) {
            MetricValue::Counter(c) => *c += v,
            _ => debug_assert!(false, "metric `{name}` is not a counter"),
        }
    }

    /// Sets the gauge `name` to `v`.
    pub fn gauge_set(&self, name: &str, v: i64) {
        let mut m = self.inner.lock().unwrap();
        *m.entry(name.to_string()).or_insert(MetricValue::Gauge(0)) = MetricValue::Gauge(v);
    }

    /// Records a nanosecond observation into the histogram `name`.
    pub fn observe_ns(&self, name: &str, ns: u64) {
        let mut m = self.inner.lock().unwrap();
        match m.entry(name.to_string()).or_insert(MetricValue::Histogram(Hist::default())) {
            MetricValue::Histogram(h) => h.observe(ns),
            _ => debug_assert!(false, "metric `{name}` is not a histogram"),
        }
    }

    /// Point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = self.inner.lock().unwrap();
        MetricsSnapshot { samples: m.iter().map(|(k, v)| (k.clone(), *v)).collect() }
    }

    /// Drops every metric (intended for tests and harnesses).
    pub fn clear(&self) {
        self.inner.lock().unwrap().clear();
    }
}

/// The process-global metrics registry.
pub fn metrics() -> &'static MetricsRegistry {
    static REG: OnceLock<MetricsRegistry> = OnceLock::new();
    REG.get_or_init(MetricsRegistry::default)
}

/// A point-in-time copy of the registry, name-sorted.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, ascending by name.
    pub samples: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    /// Looks up a sample by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.samples.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// The counter `name`; `0` when nothing has counted under it yet.
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(n)) => *n,
            _ => 0,
        }
    }

    /// Renders the snapshot as a single JSON object (stable key order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"metrics\":{");
        for (i, (name, value)) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":"));
            match value {
                MetricValue::Counter(c) => {
                    out.push_str(&format!("{{\"type\":\"counter\",\"value\":{c}}}"));
                }
                MetricValue::Gauge(g) => {
                    out.push_str(&format!("{{\"type\":\"gauge\",\"value\":{g}}}"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{{\"type\":\"histogram\",\"count\":{},\"sum_ns\":{},\"buckets\":[",
                        h.count, h.sum_ns
                    ));
                    for (b, c) in h.counts.iter().enumerate() {
                        if b > 0 {
                            out.push(',');
                        }
                        if b == HIST_BUCKETS - 1 {
                            out.push_str(&format!("{{\"le\":\"+Inf\",\"count\":{c}}}"));
                        } else {
                            out.push_str(&format!(
                                "{{\"le_ns\":{},\"count\":{c}}}",
                                bucket_bound_ns(b)
                            ));
                        }
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("}}");
        out
    }

    /// Renders the snapshot in Prometheus text exposition format.
    ///
    /// Histograms keep their native nanosecond unit (`le` bounds in ns);
    /// cumulative bucket counts follow the Prometheus histogram contract.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.samples {
            match value {
                MetricValue::Counter(c) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {c}\n"));
                }
                MetricValue::Gauge(g) => {
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {g}\n"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    let mut cum = 0u64;
                    for (b, c) in h.counts.iter().enumerate() {
                        cum += c;
                        if b == HIST_BUCKETS - 1 {
                            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cum}\n"));
                        } else {
                            out.push_str(&format!(
                                "{name}_bucket{{le=\"{}\"}} {cum}\n",
                                bucket_bound_ns(b)
                            ));
                        }
                    }
                    out.push_str(&format!("{name}_sum {}\n{name}_count {}\n", h.sum_ns, h.count));
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Slow-query log
// ---------------------------------------------------------------------------

/// Retained slow-query entries.
const SLOW_LOG_CAP: usize = 64;

/// One slow query: the text, its wall time, and its ANALYZE report.
#[derive(Clone, Debug)]
pub struct SlowQueryEntry {
    /// The query text as submitted.
    pub query: String,
    /// Total wall time, ns.
    pub wall_ns: u64,
    /// The `EXPLAIN ANALYZE` tree captured at completion.
    pub report: String,
}

/// Bounded log of queries slower than the configured threshold.
pub struct SlowQueryLog {
    /// Threshold in ns; `u64::MAX` disables the log.
    threshold_ns: AtomicU64,
    /// Echo offenders to stderr (on when configured via the env var).
    echo: AtomicBool,
    entries: Mutex<VecDeque<SlowQueryEntry>>,
}

impl SlowQueryLog {
    fn new() -> SlowQueryLog {
        Self::configured(std::env::var("RAPTOR_SLOW_QUERY_MS").ok().as_deref())
    }

    /// A log configured by a `RAPTOR_SLOW_QUERY_MS` value (`None`: unset,
    /// and the log is off).
    fn configured(env: Option<&str>) -> SlowQueryLog {
        let ms = env.and_then(|v| v.parse::<u64>().ok());
        SlowQueryLog {
            threshold_ns: AtomicU64::new(ms.map_or(u64::MAX, |m| m.saturating_mul(1_000_000))),
            echo: AtomicBool::new(ms.is_some()),
            entries: Mutex::new(VecDeque::new()),
        }
    }

    /// The active threshold in ns, or `None` when the log is disabled.
    pub fn threshold_ns(&self) -> Option<u64> {
        match self.threshold_ns.load(Ordering::Relaxed) {
            u64::MAX => None,
            ns => Some(ns),
        }
    }

    /// Sets (or clears) the threshold programmatically, in milliseconds.
    /// Programmatic configuration records entries without echoing to
    /// stderr; the `RAPTOR_SLOW_QUERY_MS` env gate echoes.
    pub fn set_threshold_ms(&self, ms: Option<u64>) {
        self.threshold_ns
            .store(ms.map_or(u64::MAX, |m| m.saturating_mul(1_000_000)), Ordering::Relaxed);
        self.echo.store(false, Ordering::Relaxed);
    }

    /// Records an offender (caller has already checked the threshold).
    pub fn record(&self, query: &str, wall_ns: u64, report: &str) {
        if self.echo.load(Ordering::Relaxed) {
            eprintln!("[raptor] slow query ({:.3} ms): {query}\n{report}", wall_ns as f64 / 1e6);
        }
        let mut entries = self.entries.lock().unwrap();
        if entries.len() == SLOW_LOG_CAP {
            entries.pop_front();
        }
        entries.push_back(SlowQueryEntry {
            query: query.to_string(),
            wall_ns,
            report: report.to_string(),
        });
    }

    /// Copies out the retained entries, oldest first.
    pub fn entries(&self) -> Vec<SlowQueryEntry> {
        self.entries.lock().unwrap().iter().cloned().collect()
    }

    /// Drops all retained entries.
    pub fn clear(&self) {
        self.entries.lock().unwrap().clear();
    }
}

/// The process-global slow-query log.
pub fn slow_log() -> &'static SlowQueryLog {
    static LOG: OnceLock<SlowQueryLog> = OnceLock::new();
    LOG.get_or_init(SlowQueryLog::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_truncates_at_char_boundary() {
        let l = Label::new("short");
        assert_eq!(l.as_str(), "short");
        let long = "αβγδεζηθικλμνξοπρστ"; // 2 bytes per char
        let l = Label::new(long);
        assert!(l.as_str().len() <= 23);
        assert!(long.starts_with(l.as_str()));
    }

    #[test]
    fn sink_records_and_snapshots_in_order() {
        let sink = TraceSink::new();
        sink.set_enabled(true);
        for i in 0..10u64 {
            let mut s = EMPTY_SPAN;
            s.id = i + 1;
            s.name = "t";
            sink.record(s);
        }
        let spans = sink.snapshot();
        assert_eq!(spans.len(), 10);
        assert_eq!(spans.iter().map(|s| s.id).collect::<Vec<_>>(), (1..=10).collect::<Vec<_>>());
        assert_eq!(sink.span_count(), 10);
        sink.clear();
        assert_eq!(sink.span_count(), 0);
        assert!(sink.snapshot().is_empty());
    }

    #[test]
    fn sink_wraps_keeping_newest() {
        let sink = TraceSink::new();
        sink.set_enabled(true);
        let total = RING_CAP as u64 + 17;
        for i in 0..total {
            let mut s = EMPTY_SPAN;
            s.id = i + 1;
            sink.record(s);
        }
        let spans = sink.snapshot();
        assert_eq!(spans.len(), RING_CAP);
        assert_eq!(spans.first().unwrap().id, total - RING_CAP as u64 + 1);
        assert_eq!(spans.last().unwrap().id, total);
    }

    #[test]
    fn sink_disabled_records_nothing() {
        let sink = TraceSink::new();
        sink.set_enabled(false);
        sink.record(EMPTY_SPAN);
        assert_eq!(sink.span_count(), 0);
    }

    #[test]
    fn concurrent_writers_never_tear() {
        let sink = std::sync::Arc::new(TraceSink::new());
        sink.set_enabled(true);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let sink = sink.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..5_000u64 {
                    let mut s = EMPTY_SPAN;
                    s.id = t * 5_000 + i + 1;
                    s.start_ns = s.id * 3;
                    s.dur_ns = s.id * 7;
                    sink.record(s);
                }
            }));
        }
        for _ in 0..50 {
            for s in sink.snapshot() {
                // Internal consistency proves no torn reads survive.
                assert_eq!(s.start_ns, s.id * 3);
                assert_eq!(s.dur_ns, s.id * 7);
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sink.span_count(), 20_000);
    }

    #[test]
    fn span_guard_links_parents() {
        trace().set_enabled(true);
        trace().clear();
        let outer_id;
        {
            let mut outer = span("test.outer");
            outer.label("o");
            outer_id = outer.id();
            {
                let mut inner = span("test.inner");
                inner.attr("rows", 42);
            }
        }
        let spans = trace().snapshot();
        trace().set_enabled(false);
        let inner = spans.iter().find(|s| s.name == "test.inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "test.outer").unwrap();
        assert_eq!(inner.parent, outer_id);
        assert_eq!(outer.id, outer_id);
        assert_eq!(inner.attr("rows"), Some(42));
        assert_eq!(outer.label.as_str(), "o");
        // Inner finished first, so it is recorded first.
        assert!(
            spans.iter().position(|s| s.name == "test.inner").unwrap()
                < spans.iter().position(|s| s.name == "test.outer").unwrap()
        );
    }

    #[test]
    fn disabled_span_is_inert() {
        let sink = trace();
        let was = sink.enabled();
        sink.set_enabled(false);
        let before = sink.span_count();
        {
            let mut g = span("test.off");
            g.label("x");
            g.attr("k", 1);
            assert_eq!(g.id(), 0);
        }
        assert_eq!(sink.span_count(), before);
        sink.set_enabled(was);
    }

    #[test]
    fn metrics_registry_roundtrip() {
        let reg = MetricsRegistry::default();
        reg.counter_add("raptor_rows_scanned_total", 5);
        reg.counter_add("raptor_rows_scanned_total", 7);
        reg.gauge_set("raptor_dict_symbols", 31);
        reg.observe_ns("raptor_query_latency_ns", 500); // bucket 0 (<=1024)
        reg.observe_ns("raptor_query_latency_ns", 5_000); // bucket 2 (<=16384)
        let snap = reg.snapshot();
        assert_eq!(snap.get("raptor_rows_scanned_total"), Some(&MetricValue::Counter(12)));
        assert_eq!(snap.get("raptor_dict_symbols"), Some(&MetricValue::Gauge(31)));
        match snap.get("raptor_query_latency_ns") {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.count, 2);
                assert_eq!(h.sum_ns, 5_500);
                assert_eq!(h.counts[0], 1);
                assert_eq!(h.counts[2], 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Names are sorted.
        let names: Vec<_> = snap.samples.iter().map(|(n, _)| n.clone()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn metrics_json_and_prometheus_shapes() {
        let reg = MetricsRegistry::default();
        reg.counter_add("c_total", 3);
        reg.gauge_set("g", -2);
        reg.observe_ns("h_ns", 2048);
        let snap = reg.snapshot();
        let json = snap.to_json();
        assert!(json.starts_with("{\"metrics\":{"));
        assert!(json.contains("\"c_total\":{\"type\":\"counter\",\"value\":3}"));
        assert!(json.contains("\"g\":{\"type\":\"gauge\",\"value\":-2}"));
        assert!(json.contains("\"type\":\"histogram\",\"count\":1,\"sum_ns\":2048"));
        assert!(json.contains("\"le\":\"+Inf\""));
        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE c_total counter\nc_total 3\n"));
        assert!(prom.contains("# TYPE g gauge\ng -2\n"));
        assert!(prom.contains("h_ns_bucket{le=\"4096\"} 1\n"));
        assert!(prom.contains("h_ns_bucket{le=\"+Inf\"} 1\n"));
        assert!(prom.contains("h_ns_sum 2048\nh_ns_count 1\n"));
        // Cumulative buckets: the 1024 bucket saw nothing.
        assert!(prom.contains("h_ns_bucket{le=\"1024\"} 0\n"));
    }

    #[test]
    fn hist_bucket_bounds_are_exponential() {
        assert_eq!(bucket_bound_ns(0), 1_024);
        assert_eq!(bucket_bound_ns(1), 4_096);
        assert_eq!(bucket_bound_ns(14), 1_024 << 28);
    }

    #[test]
    fn slow_log_records_and_caps() {
        // The env gate: unset or unparsable is off, a number echoes.
        for (env, threshold) in [(None, None), (Some("x"), None), (Some("0"), Some(0))] {
            let log = SlowQueryLog::configured(env);
            assert_eq!(log.threshold_ns(), threshold, "{env:?}");
            assert_eq!(log.echo.load(Ordering::Relaxed), threshold.is_some(), "{env:?}");
        }
        let log = SlowQueryLog::configured(None);
        log.set_threshold_ms(Some(2));
        assert_eq!(log.threshold_ns(), Some(2_000_000));
        for i in 0..(SLOW_LOG_CAP + 3) {
            log.record(&format!("q{i}"), 5_000_000, "tree");
        }
        let entries = log.entries();
        assert_eq!(entries.len(), SLOW_LOG_CAP);
        assert_eq!(entries.first().unwrap().query, "q3");
        assert_eq!(entries.last().unwrap().query, format!("q{}", SLOW_LOG_CAP + 2));
        assert_eq!(entries.last().unwrap().report, "tree");
        log.clear();
        assert!(log.entries().is_empty());
        log.set_threshold_ms(None);
        assert_eq!(log.threshold_ns(), None);
    }
}
