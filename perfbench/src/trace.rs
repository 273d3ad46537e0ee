//! Request tracing recorded from the benchmark's side of each layer boundary.
//!
//! A traced run samples whole requests (one in `every`). For a sampled
//! request it records a root span for the request and a child span around
//! each call into a layer's public API. Spans are kept in memory, written
//! out when the run ends, and reduced to per-layer self times: a span's
//! duration minus the part of it that its children cover.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::hist::Histogram;

/// The root span of a request. Its self time is the part of the request no
/// traced layer call explains.
pub const REQUEST: &str = "request";

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// Id of the span that caused this one; 0 for a request's root span.
    pub parent: u64,
    /// The request the span belongs to.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Whether request `req` is among the one in `every` that are sampled. The
/// choice is a hash of the request number, not `req % every`: a modulus
/// would alias with anything the engine does every N transactions (garbage
/// collection runs every 64), and sample only the requests that pay for it.
pub fn sampled(req: u64, every: u64) -> bool {
    if every == 0 {
        return false;
    }
    let mut z = req.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)).is_multiple_of(every)
}

/// A per-thread span recorder. Span ids carry the thread number in their
/// high bits, so recorders never coordinate.
pub struct Tracer {
    origin: Instant,
    every: u64,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for thread `thread` that samples one request in `every`
    /// (`every == 0` samples none). `origin` is the run's shared time zero.
    pub fn new(origin: Instant, thread: u64, every: u64) -> Tracer {
        Tracer {
            origin,
            every,
            next_id: (thread + 1) << 40,
            spans: Vec::new(),
        }
    }

    pub fn set_every(&mut self, every: u64) {
        self.every = every;
        if every > 0 && self.spans.capacity() == 0 {
            self.spans.reserve(1 << 16);
        }
    }

    /// Whether request number `req` is sampled.
    pub fn sampled(&self, req: u64) -> bool {
        sampled(req, self.every)
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Reserves an id for a span that is recorded later, once its end is
    /// known (a request's root span is recorded after its children).
    pub fn open(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    pub fn record(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Records a child span of `parent` from `start_ns` until now.
    pub fn child(&mut self, name: &'static str, parent: u64, req: u64, start_ns: u64) {
        let id = self.open();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            id,
            parent,
            req,
            start_ns,
            end_ns,
        });
    }

    /// Runs `f`, and records it as a child span of `parent` when `on`.
    pub fn call<T>(
        &mut self,
        on: bool,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !on {
            return f();
        }
        let start = self.now();
        let out = f();
        self.child(name, parent, req, start);
        out
    }
}

/// Self time of every span, in nanoseconds, grouped by span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Histogram> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, Histogram> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
        out.entry(s.name).or_default().record(own);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Writes the spans as CSV (`req,id,parent,name,start_ns,end_ns`).
pub fn write_csv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "req,id,parent,name,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            s.req, s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id,
            parent,
            req: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(REQUEST, 1, 0, 0, 100),
            span("a", 2, 1, 10, 40),
            // Overlaps "a" and sticks out past the root: only 40..90 is new.
            span("b", 3, 1, 30, 90),
            span("c", 4, 3, 50, 60),
        ];
        let t = self_times(&spans);
        assert_eq!(t[REQUEST].quantile(0.5).floor(), 20.0);
        assert_eq!(t["a"].quantile(0.5).floor(), 30.0);
        assert_eq!(t["b"].quantile(0.5).floor(), 50.0);
        assert_eq!(t["c"].quantile(0.5).floor(), 10.0);
    }

    #[test]
    fn sampling_and_ids() {
        let mut t = Tracer::new(Instant::now(), 3, 4);
        let hits = (0..64_000).filter(|&r| t.sampled(r)).count();
        assert!(
            (15_000..17_000).contains(&hits),
            "{hits} of 64000 sampled at 1 in 4"
        );
        // No aliasing with a period-64 pattern.
        let aligned = (0..64_000).step_by(64).filter(|&r| t.sampled(r)).count();
        assert!(
            (150..350).contains(&aligned),
            "{aligned} of 1000 aligned requests sampled"
        );
        let a = t.open();
        let b = t.open();
        assert!(b > a && a >> 40 == 4);
        let v = t.call(true, "x", a, 0, || 7);
        assert_eq!(v, 7);
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].parent, a);
        t.set_every(0);
        assert!(!(0..1000).any(|r| t.sampled(r)));
    }
}
