//! Host-time spans recorded around calls into each layer.
//!
//! A span has a name (the layer it times), a start, an end, the span
//! that caused it, and the id of the job or request it belongs to.
//! Spans stay in memory until the run ends; [`self_times`] then turns
//! them into per-layer self time (duration minus the part of the span
//! its children cover) and [`write_chrome`] writes them out as a
//! Chrome-trace file.
//!
//! A disabled [`Tracer`] records nothing: `begin` returns a dummy handle
//! and `end` is a no-op, so the untraced run executes the same code
//! without the clock reads.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Span ids are unique across every tracer of one process, so spans
/// recorded on pool workers can name a parent recorded elsewhere.
static NEXT_SID: AtomicU64 = AtomicU64::new(1);

/// One recorded span; times are nanoseconds since the tracer epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub sid: u64,
    pub parent: Option<u64>,
    /// The job or request every span of one unit of work shares.
    pub id: u64,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u64,
    spans: Vec<Span>,
    stack: Vec<u64>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, thread: u64) -> Tracer {
        Tracer {
            on,
            epoch,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn disabled() -> Tracer {
        Tracer::new(false, Instant::now(), 0)
    }

    /// A tracer for another thread whose first spans are children of
    /// `parent` (a span id from another tracer sharing `epoch`).
    pub fn with_parent(on: bool, epoch: Instant, thread: u64, parent: Option<u64>) -> Tracer {
        let mut t = Tracer::new(on, epoch, thread);
        t.stack.extend(parent);
        t
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(usize::MAX);
        }
        let sid = NEXT_SID.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            sid,
            parent: self.stack.last().copied(),
            id,
            thread: self.thread,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(sid);
        Open(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::begin`] (innermost first).
    pub fn end(&mut self, open: Open) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let span = &mut self.spans[open.0];
        span.end_ns = end_ns;
        debug_assert_eq!(self.stack.last(), Some(&span.sid), "spans must nest");
        self.stack.pop();
    }

    /// The id of the innermost open span.
    pub fn current(&self) -> Option<u64> {
        self.stack.last().copied()
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, id);
        let out = f();
        self.end(open);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub calls: u64,
    /// Σ span duration.
    pub total_ns: u64,
    /// Σ (duration − time covered by child spans).
    pub self_ns: u64,
}

/// Self time per span name. Children may run on other threads (pool
/// workers), so a parent's covered time is the union of its children's
/// intervals, clipped to the parent.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.sid)
            .map_or(0, |iv| union_len(iv, s.start_ns, s.end_ns));
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(covered);
    }
    out
}

fn union_len(iv: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    iv.sort_unstable();
    let (mut covered, mut cur) = (0u64, lo);
    for &(a, b) in iv.iter() {
        let (a, b) = (a.max(cur), b.min(hi));
        if b > a {
            covered += b - a;
            cur = b;
        }
    }
    covered
}

/// Writes the spans as a Chrome-trace (Perfetto) JSON document.
pub fn write_chrome(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            w,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"sid\":{},\"parent\":{}}}}}{sep}",
            s.name,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.sid,
            s.parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string()),
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, sid: u64, parent: Option<u64>, s: u64, e: u64) -> Span {
        Span {
            name,
            sid,
            parent,
            id: 0,
            thread: 0,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 1, None, 0, 100),
            // Two overlapping children (two workers) and one nested deeper.
            span("a", 2, Some(1), 10, 50),
            span("a", 3, Some(1), 30, 70),
            span("b", 4, Some(2), 20, 30),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"].self_ns, 40);
        assert_eq!(t["a"].self_ns, 30 + 40);
        assert_eq!(t["a"].calls, 2);
        assert_eq!(t["b"].self_ns, 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let o = t.begin("x", 1);
        t.end(o);
        assert!(t.spans().is_empty());
    }
}
