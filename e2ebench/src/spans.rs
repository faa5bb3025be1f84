//! In-memory span recorder for the traced replay.
//!
//! Spans are opened from the benchmark's own code around calls into the
//! program's public functions; nothing inside the crates is instrumented.
//! Every span records its name, start, end and parent. The parent is the
//! innermost span open on the same thread, or — on a fan-out worker — the
//! fan-out span the worker adopted. Spans stay in memory until the run
//! ends and are folded into per-layer totals by [`Tracer::layers`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

#[derive(Debug, Clone)]
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Collects spans and exact work counters from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

/// An open span; closes when dropped.
#[must_use = "a span measures until dropped"]
pub struct Span<'a> {
    tracer: &'a Tracer,
    id: usize,
}

/// Makes a span of another thread the parent of spans opened on this one.
#[must_use = "the adoption lasts until dropped"]
pub struct Adopt(());

/// Inclusive and self time summed over every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Sum of their durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of the parts of their intervals no child span covers.
    pub self_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested under the innermost open (or adopted) span of
    /// this thread.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        let parent = OPEN.with(|o| o.borrow().last().copied());
        let id = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            spans.push(SpanRec {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        OPEN.with(|o| o.borrow_mut().push(id));
        Span { tracer: self, id }
    }

    /// Adds `delta` to an exact work counter.
    pub fn count(&self, name: &'static str, delta: u64) {
        *self
            .counters
            .lock()
            .expect("counter map poisoned")
            .entry(name)
            .or_insert(0) += delta;
    }

    /// The exact work counters recorded so far.
    pub fn counters(&self) -> BTreeMap<&'static str, u64> {
        self.counters.lock().expect("counter map poisoned").clone()
    }

    /// Folds every closed span into per-name totals. Self time subtracts
    /// the union of the children's intervals, so children that overlapped
    /// on fan-out workers are not subtracted twice.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotals> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, kids) in spans.iter().zip(children.iter_mut()) {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let covered = union_len(kids, s.start_ns, s.end_ns);
            let t = out.entry(s.name).or_default();
            t.total_ns += total;
            t.self_ns += total - covered;
        }
        out
    }
}

impl Span<'_> {
    /// Lets fan-out workers nest their spans under this one.
    pub fn id(&self) -> usize {
        self.id
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        OPEN.with(|o| {
            let popped = o.borrow_mut().pop();
            debug_assert_eq!(popped, Some(self.id), "spans closed out of order");
        });
        let end = self.tracer.now_ns();
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans[self.id].end_ns = end;
        }
    }
}

/// Nests the spans this thread opens, until the guard drops, under the
/// span `parent` — usually a fan-out span opened on another thread.
pub fn adopt(parent: usize) -> Adopt {
    OPEN.with(|o| o.borrow_mut().push(parent));
    Adopt(())
}

impl Drop for Adopt {
    fn drop(&mut self) {
        OPEN.with(|o| {
            o.borrow_mut().pop();
        });
    }
}

/// Opens a span when tracing, and does nothing otherwise.
pub fn span<'a>(tracer: Option<&'a Tracer>, name: &'static str) -> Option<Span<'a>> {
    tracer.map(|t| t.span(name))
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut v = vec![(5, 10), (0, 3), (8, 14), (20, 30)];
        assert_eq!(union_len(&mut v, 0, 25), 3 + 9 + 5);
    }

    #[test]
    fn self_time_excludes_children_once() {
        let t = Tracer::default();
        {
            let root = t.span("root");
            let id = root.id();
            // Both children are open when they pass the barrier, so their
            // intervals overlap.
            let both_open = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        let _a = adopt(id);
                        let _c = t.span("child");
                        both_open.wait();
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    });
                }
            });
        }
        let layers = t.layers();
        let root = layers["root"];
        let child = layers["child"];
        assert!(child.total_ns >= 10_000_000, "two children of 5 ms each");
        // The two children overlap, so their union — what the root's self
        // time excludes — is shorter than the sum of their durations.
        let covered = root.total_ns - root.self_ns;
        assert!(covered >= 5_000_000, "covered {covered}");
        assert!(covered < child.total_ns, "covered {covered}");
    }
}
