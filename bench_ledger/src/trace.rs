//! The benchmark's own spans: recorded around each call into a layer, kept
//! in memory, written at exit as Chrome-trace JSON.
//!
//! One logical thread records (the closed loop's single client; `TimedFs`
//! is called back on that same thread), so one open-span stack gives every
//! span its parent. A disabled tracer records nothing: end-to-end runs
//! measure with it off.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, `u32::MAX` for an op root.
    pub parent: u32,
    /// The op (request) this span belongs to.
    pub op: u32,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<SpanRec>,
    open: Vec<u32>,
    op: u32,
}

/// A cloneable handle on the span store.
#[derive(Clone)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    inner: Arc<Mutex<Inner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tracer(enabled: {})", self.enabled)
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, t0: Instant::now(), inner: Arc::default() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("no recording thread panics while holding the span store")
    }

    /// Runs `f` inside a span named `name`; a child of the innermost open
    /// span, or the root of a new op when none is open.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_timed(name, f).0
    }

    /// [`Tracer::span`] that also hands back the span's duration, measured
    /// whether or not the tracer records.
    pub fn span_timed<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        if !self.enabled {
            let t = Instant::now();
            let r = f();
            return (r, t.elapsed().as_nanos() as u64);
        }
        let id = {
            let mut g = self.lock();
            let parent = g.open.last().copied().unwrap_or(NO_PARENT);
            if parent == NO_PARENT {
                g.op += 1;
            }
            let id = g.spans.len() as u32;
            let op = g.op;
            g.spans.push(SpanRec { name, start_ns: 0, end_ns: 0, parent, op });
            g.open.push(id);
            id
        };
        // Clock reads sit innermost so the span excludes the bookkeeping.
        let start = self.t0.elapsed().as_nanos() as u64;
        let r = f();
        let end = self.t0.elapsed().as_nanos() as u64;
        let mut g = self.lock();
        let s = &mut g.spans[id as usize];
        s.start_ns = start;
        s.end_ns = end;
        let popped = g.open.pop();
        debug_assert_eq!(popped, Some(id));
        (r, end - start)
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.lock().spans.clone()
    }

    /// Writes every span as a Chrome-trace "complete" event.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\": [")?;
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 0, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \"op\": {}}}}}{sep}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                i,
                if s.parent == NO_PARENT { -1 } else { s.parent as i64 },
                s.op
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children may touch or overlap; the covered
/// part is the union, clipped to the parent).
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                kids[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, iv)| {
            iv.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in iv.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// One traced op: its wall and, per span name, the self time and duration
/// its spans of that name add up to.
#[derive(Default)]
pub struct OpSpans {
    /// Root span duration.
    pub wall_ns: u64,
    /// Root span self time: time inside the op no layer span accounts for.
    pub unattributed_ns: u64,
    pub self_ns: BTreeMap<&'static str, u64>,
    pub dur_ns: BTreeMap<&'static str, u64>,
}

/// Groups spans by op, in op order.
pub fn breakdown(spans: &[SpanRec]) -> Vec<OpSpans> {
    let selfs = self_times(spans);
    let mut ops: Vec<OpSpans> = Vec::new();
    // Spans are pushed in start order, so one op's spans are contiguous.
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        if s.parent == NO_PARENT {
            ops.push(OpSpans {
                wall_ns: s.dur_ns(),
                unattributed_ns: self_ns,
                ..Default::default()
            });
        } else if let Some(op) = ops.last_mut() {
            *op.self_ns.entry(s.name).or_default() += self_ns;
            *op.dur_ns.entry(s.name).or_default() += s.dur_ns();
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, parent: u32, op: u32) -> SpanRec {
        SpanRec { name, start_ns: start, end_ns: end, parent, op }
    }

    #[test]
    fn self_time_with_nested_and_adjacent_children() {
        let spans = [
            rec("op", 0, 100, NO_PARENT, 1),
            rec("a", 10, 40, 0, 1),  // adjacent to b
            rec("b", 40, 60, 0, 1),  // holds a nested grandchild
            rec("b1", 45, 55, 2, 1), // nested: covers b only, not op twice
            rec("c", 70, 80, 0, 1),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 10, 10, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            rec("op", 100, 200, NO_PARENT, 1),
            rec("a", 110, 150, 0, 1),
            rec("b", 140, 160, 0, 1), // overlaps a by 10
            rec("c", 190, 250, 0, 1), // overhangs the parent's end
            rec("d", 120, 130, 0, 1), // fully inside a
        ];
        // union inside [100, 200): [110,160) + [190,200) = 60
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn tracer_assigns_parents_and_ops() {
        let t = Tracer::new(true);
        for _ in 0..2 {
            t.span("op", || {
                t.span("x", || t.span("x.inner", || ()));
                t.span("y", || ());
            });
        }
        let spans = t.spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            names,
            vec![
                ("op", NO_PARENT, 1),
                ("x", 0, 1),
                ("x.inner", 1, 1),
                ("y", 0, 1),
                ("op", NO_PARENT, 2),
                ("x", 4, 2),
                ("x.inner", 5, 2),
                ("y", 4, 2),
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let ops = breakdown(&spans);
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[1].wall_ns, spans[4].dur_ns());
        assert_eq!(ops[1].dur_ns["x"], spans[5].dur_ns());
        let attributed: u64 = ops[0].self_ns.values().sum();
        assert_eq!(attributed + ops[0].unattributed_ns, ops[0].wall_ns);
        // Self times of one op add up to its wall exactly.
        let selfs = self_times(&spans);
        assert_eq!(selfs[..4].iter().sum::<u64>(), spans[0].dur_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("op", || 5), 5);
        assert!(t.spans().is_empty());
    }
}
