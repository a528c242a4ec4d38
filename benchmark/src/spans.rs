//! The benchmark's own span recorder for the traced run: spans are taken
//! from outside, around the calls into each layer's public functions, kept
//! in memory and written out at exit. The crates themselves carry none.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer and call, e.g. `conn.recv`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one ([`NO_PARENT`] for a root).
    pub parent: u32,
    /// Spans of one top-level transaction share its index.
    pub trace: u32,
}

/// An in-memory span log with a stack of open spans.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    trace: u32,
}

impl Spans {
    /// A recorder with room for `capacity` spans, timing from `epoch`
    /// (shared by the recorders of one run so their clocks agree).
    pub fn new(epoch: Instant, capacity: usize) -> Spans {
        Spans {
            epoch,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            trace: 0,
        }
    }

    /// Spans opened from now on belong to trace `trace`.
    pub fn set_trace(&mut self, trace: u32) {
        self.trace = trace;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its index.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            trace: self.trace,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (and anything left open inside it).
    pub fn close(&mut self, id: u32) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Time `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another recorder's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Spans) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += offset;
            }
            s
        }));
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"trace\":{}}}",
                s.name, s.start_ns, s.end_ns, s.trace
            )?;
        }
        out.flush()
    }
}

/// Per-name totals over a span log.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

/// Self time of the interval `[start, end)`: its length minus the part its
/// children cover. Children may nest, overlap each other (pipelined calls)
/// or stick out of the parent; the union, clipped to the parent, is what
/// is subtracted.
pub fn self_time_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in children.iter() {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end.saturating_sub(start)).saturating_sub(covered)
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns.saturating_sub(s.start_ns);
        t.self_ns += self_time_ns(s.start_ns, s.end_ns, kids);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_with_nested_children() {
        // Parent 0..100 with children 10..30 and 50..90; a grandchild
        // inside the first child is not the parent's business.
        assert_eq!(self_time_ns(0, 100, &mut [(10, 30), (50, 90)]), 40);
        assert_eq!(self_time_ns(10, 30, &mut [(12, 20)]), 12);
        assert_eq!(self_time_ns(0, 100, &mut []), 100);
    }

    #[test]
    fn self_time_with_overlapping_children() {
        // 10..60 and 40..90 cover 10..90 together: 80, not 100.
        assert_eq!(self_time_ns(0, 100, &mut [(40, 90), (10, 60)]), 20);
        // A child contained in another adds nothing.
        assert_eq!(self_time_ns(0, 100, &mut [(10, 90), (20, 30)]), 20);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time_ns(50, 100, &mut [(0, 60), (90, 200)]), 30);
        // Children covering everything leave zero, never underflow.
        assert_eq!(self_time_ns(10, 20, &mut [(0, 15), (12, 40)]), 0);
    }

    #[test]
    fn recorder_links_parents_and_sums_by_name() {
        let mut r = Spans::new(Instant::now(), 16);
        r.set_trace(3);
        let top = r.open("top");
        r.time("conn.send", || ());
        r.time("conn.recv", r_sleep);
        r.close(top);
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert!(spans.iter().all(|s| s.trace == 3));
        let totals = totals_by_name(spans);
        let t = totals["top"];
        let kids = totals["conn.send"].total_ns + totals["conn.recv"].total_ns;
        assert_eq!(t.count, 1);
        assert_eq!(t.self_ns, t.total_ns - kids);
        assert_eq!(totals["conn.recv"].self_ns, totals["conn.recv"].total_ns);
    }

    fn r_sleep() {
        std::thread::sleep(std::time::Duration::from_micros(200));
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let epoch = Instant::now();
        let mut a = Spans::new(epoch, 4);
        let t = a.open("top");
        a.time("x", || ());
        a.close(t);
        let mut b = Spans::new(epoch, 4);
        let t = b.open("top");
        b.time("y", || ());
        b.close(t);
        a.absorb(b);
        assert_eq!(a.spans()[3].name, "y");
        assert_eq!(a.spans()[3].parent, 2);
        assert_eq!(a.spans()[2].parent, NO_PARENT);
    }
}
