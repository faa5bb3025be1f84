//! Deterministic hierarchical phase profiler.
//!
//! Call sites open scoped spans (`prof::scope("stage4/grid")`); each span
//! pushes path segments onto a per-thread stack and, on drop, charges its
//! elapsed wall time to the innermost node. Thread-local trees merge into
//! the run's call tree whenever a thread's stack empties or its scope
//! guard drops, so the profile survives scoped worker pools. The merged
//! tree carries, per node:
//!
//! * **calls** — how many spans ended at this node;
//! * **total time** — wall time measured at this node (or the sum of its
//!   children for pure intermediate nodes). A node's total is the larger
//!   of its own measurement and its children's sum, so parallel fan-outs
//!   report aggregate worker time rather than clamping at the fan-out's
//!   wall clock;
//! * **self time** — total minus children, the basis for flamegraphs;
//! * **counter deltas** — work counts ([`count`]) attributed to the
//!   innermost active span (cache hits, NNLS iterations, retries).
//!
//! The determinism contract mirrors the metrics registry: spans and
//! counters record into the profiler of the thread's current
//! [`crate::Scope`], and with no recording scope installed every entry
//! point is a no-op behind one thread-local check. Recording, the tree
//! *structure* — node names, call counts, and counter values — is a pure
//! function of the work performed and therefore bit-identical at any
//! `JUGGLER_THREADS` count, provided fan-out sites carry their scope and
//! phase context to workers with [`fork`]/[`ForkCtx::attach`].
//! Timings are host wall-clock and excluded from [`Profile::structure_digest`],
//! exactly like `MetricClass::Timing` metrics are excluded from default
//! registry snapshots.
//!
//! Exports: a rendered tree report ([`Profile::render_tree`]), collapsed
//! stacks for inferno/speedscope flamegraphs ([`Profile::to_collapsed`],
//! built on the shared [`fold_stacks`] folder that the sim trace exporter
//! reuses), and canonical JSON ([`Profile::to_json`]) that round-trips
//! through [`Profile::from_json_value`] for ledger storage and
//! node-by-node diffing ([`ProfileDiff`]).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::format::{fmt_duration_s, fmt_percent};
use crate::hash::sha256_hex;
use crate::scope::{with_current, Installed, Scope};

// ── thread-local span stack ──────────────────────────────────────────

/// One node of a thread-local (pre-merge) call tree. Children are a flat
/// index list searched linearly — phase fan-out is small by construction
/// (phase names, not per-task identifiers).
struct LocalNode {
    name: String,
    children: Vec<u32>,
    calls: u64,
    leaf_ns: u64,
    counters: Vec<(String, u64)>,
}

/// The calling thread's pre-merge call tree for its current scope; it
/// lives in the thread's scope frame next to the scope itself.
#[derive(Default)]
pub(crate) struct LocalTree {
    nodes: Vec<LocalNode>,
    roots: Vec<u32>,
    stack: Vec<u32>,
}

impl LocalTree {
    /// Index of `name` under `parent` (or among the roots), creating it
    /// on first use.
    fn child_of(&mut self, parent: Option<u32>, name: &str) -> u32 {
        let siblings = match parent {
            Some(p) => &self.nodes[p as usize].children,
            None => &self.roots,
        };
        if let Some(&id) = siblings
            .iter()
            .find(|&&id| self.nodes[id as usize].name == name)
        {
            return id;
        }
        let id = u32::try_from(self.nodes.len()).expect("fewer than 4G profile nodes");
        self.nodes.push(LocalNode {
            name: name.to_owned(),
            children: Vec::new(),
            calls: 0,
            leaf_ns: 0,
            counters: Vec::new(),
        });
        match parent {
            Some(p) => self.nodes[p as usize].children.push(id),
            None => self.roots.push(id),
        }
        id
    }

    /// Pushes each path segment onto the stack, returning how many were
    /// pushed.
    fn enter<'a>(&mut self, segments: impl Iterator<Item = &'a str>) -> u16 {
        let mut pushed = 0u16;
        for seg in segments {
            let parent = self.stack.last().copied();
            let id = self.child_of(parent, seg);
            self.stack.push(id);
            pushed += 1;
        }
        pushed
    }

    /// Pops `pushed` segments, charging the innermost node `elapsed_ns`
    /// and one call. Once the stack empties the tree merges into
    /// `profiler`.
    fn exit(&mut self, pushed: u16, elapsed_ns: u64, profiler: &Profiler) {
        if let Some(&leaf) = self.stack.last() {
            let node = &mut self.nodes[leaf as usize];
            node.calls += 1;
            node.leaf_ns += elapsed_ns;
        }
        for _ in 0..pushed {
            self.stack.pop();
        }
        if self.stack.is_empty() {
            self.flush(profiler);
        }
    }

    /// Merges this tree into `profiler` and clears it.
    pub(crate) fn flush(&mut self, profiler: &Profiler) {
        if let (Some(merged), false) = (&profiler.0, self.roots.is_empty()) {
            let mut merged = merged.lock().expect("profiler lock");
            for &root in &self.roots {
                self.merge_into(&mut merged, root);
            }
        }
        self.roots.clear();
        self.nodes.clear();
    }

    fn merge_into(&self, into: &mut BTreeMap<String, MergedNode>, id: u32) {
        let node = &self.nodes[id as usize];
        let entry = into.entry(node.name.clone()).or_default();
        entry.calls += node.calls;
        entry.leaf_ns += node.leaf_ns;
        for (name, delta) in &node.counters {
            *entry.counters.entry(name.clone()).or_insert(0) += delta;
        }
        // `entry` borrows `into`; recurse through a scratch map swap so the
        // borrow checker sees disjoint trees.
        let mut children = std::mem::take(&mut entry.children);
        for &child in &node.children {
            self.merge_into(&mut children, child);
        }
        into.get_mut(&node.name).expect("just inserted").children = children;
    }
}

// ── the run's profiler ───────────────────────────────────────────────

/// One node of the merged tree. Children are name-keyed, which is what
/// makes merge order (and therefore thread count) invisible in the
/// exported structure.
#[derive(Default)]
struct MergedNode {
    calls: u64,
    leaf_ns: u64,
    counters: BTreeMap<String, u64>,
    children: BTreeMap<String, MergedNode>,
}

/// A run's profiler: a cheap handle (clones share the tree) onto the
/// merged call tree, or a disabled one that records nothing. Each
/// [`Scope`] holds one; [`profiler`] returns the current scope's.
#[derive(Clone, Default)]
pub struct Profiler(Option<Arc<Mutex<BTreeMap<String, MergedNode>>>>);

impl Profiler {
    /// A profiler that records.
    pub(crate) fn recording() -> Self {
        Profiler(Some(Arc::default()))
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Takes the merged profile recorded so far, leaving the profiler
    /// empty. A thread's spans merge when its outermost span closes or
    /// its scope guard drops, so collect after joining workers.
    #[must_use]
    pub fn take_profile(&self) -> Profile {
        let merged = self
            .0
            .as_ref()
            .map(|m| std::mem::take(&mut *m.lock().expect("profiler lock")))
            .unwrap_or_default();
        Profile {
            roots: merged.iter().map(|(n, m)| build_node(n, m)).collect(),
        }
    }
}

fn build_node(name: &str, m: &MergedNode) -> ProfileNode {
    let children: Vec<ProfileNode> = m.children.iter().map(|(n, c)| build_node(n, c)).collect();
    let child_sum: u64 = children.iter().map(|c| c.total_ns).sum();
    let total_ns = m.leaf_ns.max(child_sum);
    ProfileNode {
        name: name.to_owned(),
        calls: m.calls,
        total_ns,
        self_ns: total_ns - child_sum,
        counters: m.counters.clone(),
        children,
    }
}

/// The profiler of the calling thread's current [`Scope`]; disabled when
/// no scope is installed.
#[must_use]
pub fn profiler() -> Profiler {
    with_current(|f| f.scope.profiler().clone())
}

// ── span guards ──────────────────────────────────────────────────────

/// RAII guard for one phase span; created by [`scope`]. Dropping it pops
/// the segments it pushed and charges the elapsed wall time to the
/// innermost one.
#[must_use = "a profiling span measures until dropped"]
pub struct Span {
    pushed: u16,
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        with_current(|f| f.tree.exit(self.pushed, elapsed, f.scope.profiler()));
    }
}

/// Opens a phase span. `path` may carry several `/`-separated segments
/// (`"stage4/grid"`); they nest under whatever span is already active on
/// this thread, so shared code (the simulator, the NNLS solver) shows up
/// under each phase that calls it. No-op unless the current scope's
/// profiler records.
pub fn scope(path: &str) -> Span {
    with_current(|f| {
        if !f.scope.profiler().enabled() {
            return Span {
                pushed: 0,
                start: None,
            };
        }
        let pushed = f.tree.enter(path.split('/').filter(|s| !s.is_empty()));
        Span {
            pushed,
            start: (pushed > 0).then(Instant::now),
        }
    })
}

/// Attributes `delta` units of a named counter (cache hits, solver
/// iterations, retries) to the innermost active span on this thread.
/// Dropped silently when nothing records or no span is open.
pub fn count(name: &str, delta: u64) {
    if delta == 0 {
        return;
    }
    with_current(|f| {
        let t = &mut f.tree;
        let Some(&top) = t.stack.last() else { return };
        let node = &mut t.nodes[top as usize];
        match node.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += delta,
            None => node.counters.push((name.to_owned(), delta)),
        }
    });
}

/// A captured scope and phase context for handing to worker threads.
/// Workers call [`ForkCtx::attach`] so they record into the spawning
/// run's scope, under the phase that spawned them — without this, a
/// stage-4 grid cell on a worker would record nothing (or surface at the
/// tree root on 8 threads but under `stage4` on 1 thread, breaking the
/// structure-determinism contract).
#[derive(Clone)]
pub struct ForkCtx {
    scope: Scope,
    path: Option<Arc<Vec<String>>>,
}

/// Captures the calling thread's current scope and active phase path
/// (cheap `Arc` clones; no path when the profiler is off).
pub fn fork() -> ForkCtx {
    with_current(|f| {
        let t = &f.tree;
        let path = (!t.stack.is_empty()).then(|| {
            Arc::new(
                t.stack
                    .iter()
                    .map(|&id| t.nodes[id as usize].name.clone())
                    .collect(),
            )
        });
        ForkCtx {
            scope: f.scope.clone(),
            path,
        }
    })
}

impl ForkCtx {
    /// Installs the captured scope on the current thread and re-enters
    /// the captured path. The path adds no call counts and no time of
    /// its own — it only provides the ancestry for spans the worker
    /// opens beneath it. Dropping the guard merges the worker's spans
    /// and restores the thread's previous scope.
    pub fn attach(&self) -> Installed {
        let installed = self.scope.install();
        if let Some(path) = &self.path {
            with_current(|f| f.tree.enter(path.iter().map(String::as_str)));
        }
        installed
    }
}

// ── the exported profile ─────────────────────────────────────────────

/// One node of an exported profile: aggregated calls, total/self wall
/// time, counter deltas, and name-sorted children. Its derived JSON form
/// is the canonical one the profile ledger stores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileNode {
    /// Phase name (one path segment).
    pub name: String,
    /// How many spans ended at this node.
    pub calls: u64,
    /// Wall time, ns: the node's own measurement or its children's sum,
    /// whichever is larger (parallel children can exceed the parent's
    /// wall clock).
    pub total_ns: u64,
    /// Total minus children — the flamegraph weight.
    pub self_ns: u64,
    /// Counter deltas attributed to this node, key-sorted.
    pub counters: BTreeMap<String, u64>,
    /// Child phases, name-sorted.
    pub children: Vec<ProfileNode>,
}

/// A merged, export-ready call tree taken from the [`Profiler`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Profile {
    /// Top-level phases, name-sorted.
    pub roots: Vec<ProfileNode>,
}

impl Profile {
    /// True when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Total recorded wall time across all root phases, ns.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.roots.iter().map(|r| r.total_ns).sum()
    }

    /// Renders the aligned self/total tree report. Timing columns are
    /// host wall-clock; the `self%` column is each node's self time as a
    /// share of the whole profile.
    #[must_use]
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>10}  {:>10}  {:>6}  {:>8}  {}\n",
            "total", "self", "self%", "calls", "phase"
        ));
        let grand = self.total_ns();
        for root in &self.roots {
            render_node(root, 0, grand, &mut out);
        }
        out
    }

    /// Renders the structure-only tree: names, call counts, and counter
    /// deltas, no timings. This is the deterministic surface golden
    /// tests pin — byte-identical across hosts and thread counts.
    #[must_use]
    pub fn render_structure(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:>8}  {}\n", "calls", "phase"));
        for root in &self.roots {
            render_structure_node(root, 0, &mut out);
        }
        out
    }

    /// Collapsed-stack export (one `a;b;c weight` line per stack, weights
    /// in self-time nanoseconds) — the format inferno and speedscope
    /// ingest directly. Shares [`fold_stacks`] with the sim trace
    /// exporter.
    #[must_use]
    pub fn to_collapsed(&self) -> String {
        let mut stacks: Vec<(Vec<String>, u64)> = Vec::new();
        let mut frames: Vec<String> = Vec::new();
        for root in &self.roots {
            collect_stacks(root, &mut frames, &mut stacks);
        }
        fold_stacks(stacks)
    }

    /// Canonical JSON [`Value`] (fixed key order, integer times) — what
    /// the profile ledger stores and [`Profile::from_json_value`] reads
    /// back.
    #[must_use]
    pub fn to_json_value(&self) -> Value {
        Value::Object(vec![
            ("version".to_owned(), Value::Int(1)),
            ("roots".to_owned(), self.roots.to_json_value()),
        ])
    }

    /// Canonical compact JSON string of [`Profile::to_json_value`].
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.to_json_value()).expect("profile serializes")
    }

    /// Parses a profile from its canonical JSON form.
    ///
    /// # Errors
    /// Returns a message naming the first malformed field.
    pub fn from_json_value(v: &Value) -> Result<Profile, String> {
        let roots = v.get("roots").ok_or("profile JSON missing `roots`")?;
        Ok(Profile {
            roots: Deserialize::from_json_value(roots).map_err(|e| e.to_string())?,
        })
    }

    /// Parses a profile from a canonical JSON string.
    ///
    /// # Errors
    /// Returns a message for unparseable JSON or a malformed tree.
    pub fn from_json(s: &str) -> Result<Profile, String> {
        let v: Value = serde_json::from_str(s).map_err(|e| e.to_string())?;
        Profile::from_json_value(&v)
    }

    /// SHA-256 over the structure-only canonical form — names, call
    /// counts, and counters, with every timing field excluded. Two runs
    /// of the same work produce the same digest regardless of host speed
    /// or `JUGGLER_THREADS`.
    #[must_use]
    pub fn structure_digest(&self) -> String {
        let mut canon = String::new();
        for root in &self.roots {
            push_structure(root, &mut canon);
        }
        sha256_hex(canon.as_bytes())
    }
}

fn render_node(node: &ProfileNode, depth: usize, grand: u64, out: &mut String) {
    let share = if grand == 0 {
        0.0
    } else {
        node.self_ns as f64 / grand as f64
    };
    let mut label = format!("{}{}", "  ".repeat(depth), node.name);
    if !node.counters.is_empty() {
        let cs: Vec<String> = node
            .counters
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        label.push_str(&format!("  [{}]", cs.join(" ")));
    }
    out.push_str(&format!(
        "{:>10}  {:>10}  {:>6}  {:>8}  {}\n",
        fmt_duration_s(node.total_ns as f64 / 1e9),
        fmt_duration_s(node.self_ns as f64 / 1e9),
        fmt_percent(share),
        node.calls,
        label
    ));
    for child in &node.children {
        render_node(child, depth + 1, grand, out);
    }
}

fn render_structure_node(node: &ProfileNode, depth: usize, out: &mut String) {
    let mut label = format!("{}{}", "  ".repeat(depth), node.name);
    if !node.counters.is_empty() {
        let cs: Vec<String> = node
            .counters
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        label.push_str(&format!("  [{}]", cs.join(" ")));
    }
    out.push_str(&format!("{:>8}  {}\n", node.calls, label));
    for child in &node.children {
        render_structure_node(child, depth + 1, out);
    }
}

fn collect_stacks(node: &ProfileNode, frames: &mut Vec<String>, out: &mut Vec<(Vec<String>, u64)>) {
    frames.push(node.name.clone());
    if node.self_ns > 0 || node.children.is_empty() {
        out.push((frames.clone(), node.self_ns));
    }
    for child in &node.children {
        collect_stacks(child, frames, out);
    }
    frames.pop();
}

fn push_structure(node: &ProfileNode, out: &mut String) {
    out.push_str(&node.name);
    out.push(':');
    out.push_str(&node.calls.to_string());
    for (k, v) in &node.counters {
        out.push(';');
        out.push_str(k);
        out.push('=');
        out.push_str(&v.to_string());
    }
    out.push('(');
    for child in &node.children {
        push_structure(child, out);
    }
    out.push(')');
}

// ── the shared stack folder ──────────────────────────────────────────

/// Folds `(stack frames, weight)` pairs into collapsed-stack text:
/// identical stacks merge (weights summed), lines sort lexicographically,
/// frames join with `;` and the weight follows a space — the input format
/// of `inferno-flamegraph` and speedscope. Both [`Profile::to_collapsed`]
/// and the sim trace exporter route through here so every flamegraph in
/// the workspace is produced by one folder.
#[must_use]
pub fn fold_stacks(stacks: impl IntoIterator<Item = (Vec<String>, u64)>) -> String {
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for (frames, weight) in stacks {
        if frames.is_empty() {
            continue;
        }
        *folded.entry(frames.join(";")).or_insert(0) += weight;
    }
    let mut out = String::new();
    for (stack, weight) in folded {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&weight.to_string());
        out.push('\n');
    }
    out
}

// ── node-by-node diffing ─────────────────────────────────────────────

/// One phase's before/after comparison in a [`ProfileDiff`]. `None`
/// totals mark phases present on only one side.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDelta {
    /// `/`-joined path of the phase.
    pub path: String,
    /// Total time in the baseline profile, ns (`None` when added).
    pub base_total_ns: Option<u64>,
    /// Total time in the new profile, ns (`None` when removed).
    pub new_total_ns: Option<u64>,
    /// Calls in the baseline profile.
    pub base_calls: u64,
    /// Calls in the new profile.
    pub new_calls: u64,
}

impl PhaseDelta {
    /// Signed time change, ns (absent sides count as zero).
    #[must_use]
    pub fn delta_ns(&self) -> i64 {
        self.new_total_ns.unwrap_or(0) as i64 - self.base_total_ns.unwrap_or(0) as i64
    }

    /// Relative time change (`new/base − 1`); `None` without a baseline.
    #[must_use]
    pub fn rel_change(&self) -> Option<f64> {
        match (self.base_total_ns, self.new_total_ns) {
            (Some(b), Some(n)) if b > 0 => Some(n as f64 / b as f64 - 1.0),
            _ => None,
        }
    }

    /// One human-readable line for reports: path, before → after, delta.
    #[must_use]
    pub fn render(&self) -> String {
        let fmt = |ns: Option<u64>| match ns {
            Some(ns) => fmt_duration_s(ns as f64 / 1e9),
            None => "—".to_owned(),
        };
        let delta = self.delta_ns();
        let sign = if delta >= 0 { "+" } else { "-" };
        let mut line = format!(
            "{}: {} -> {} ({sign}{})",
            self.path,
            fmt(self.base_total_ns),
            fmt(self.new_total_ns),
            fmt_duration_s(delta.unsigned_abs() as f64 / 1e9),
        );
        if let Some(rel) = self.rel_change() {
            line.push_str(&format!(
                ", {}{}",
                if rel >= 0.0 { "+" } else { "-" },
                fmt_percent(rel.abs())
            ));
        }
        line
    }
}

/// A node-by-node comparison of two profiles, flattened to `/`-joined
/// phase paths. Backs `juggler profile --diff` and the perf gate's
/// regression attribution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileDiff {
    /// Every phase present in either profile, path-sorted.
    pub phases: Vec<PhaseDelta>,
}

/// `(total_ns, calls)` for one side of a diff, absent if the phase did
/// not appear in that profile.
type SideStats = Option<(u64, u64)>;

impl ProfileDiff {
    /// Compares `base` (earlier) against `new` (later).
    #[must_use]
    pub fn between(base: &Profile, new: &Profile) -> ProfileDiff {
        let mut flat: BTreeMap<String, (SideStats, SideStats)> = BTreeMap::new();
        flatten(&base.roots, &mut Vec::new(), &mut |path, node| {
            flat.entry(path).or_default().0 = Some((node.total_ns, node.calls));
        });
        flatten(&new.roots, &mut Vec::new(), &mut |path, node| {
            flat.entry(path).or_default().1 = Some((node.total_ns, node.calls));
        });
        ProfileDiff {
            phases: flat
                .into_iter()
                .map(|(path, (base, new))| PhaseDelta {
                    path,
                    base_total_ns: base.map(|(t, _)| t),
                    new_total_ns: new.map(|(t, _)| t),
                    base_calls: base.map_or(0, |(_, c)| c),
                    new_calls: new.map_or(0, |(_, c)| c),
                })
                .collect(),
        }
    }

    /// Phases that got slower, largest absolute regression first (ties
    /// break on path, so the ordering is deterministic).
    #[must_use]
    pub fn regressions(&self) -> Vec<&PhaseDelta> {
        let mut out: Vec<&PhaseDelta> = self.phases.iter().filter(|p| p.delta_ns() > 0).collect();
        out.sort_by(|a, b| b.delta_ns().cmp(&a.delta_ns()).then(a.path.cmp(&b.path)));
        out
    }

    /// The `n` largest regressions, rendered one per line — what
    /// `perf-report` prints when a throughput check trips.
    #[must_use]
    pub fn top_regressed(&self, n: usize) -> Vec<String> {
        self.regressions()
            .into_iter()
            .take(n)
            .map(PhaseDelta::render)
            .collect()
    }

    /// Full per-phase report, path-sorted, one line per phase.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for p in &self.phases {
            out.push_str(&p.render());
            out.push('\n');
        }
        out
    }
}

fn flatten(
    nodes: &[ProfileNode],
    path: &mut Vec<String>,
    f: &mut impl FnMut(String, &ProfileNode),
) {
    for node in nodes {
        path.push(node.name.clone());
        f(path.join("/"), node);
        flatten(&node.children, path, f);
        path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` under a fresh profiling scope and returns its profile.
    fn with_profiler(f: impl FnOnce()) -> Profile {
        let run = Scope::profiling();
        {
            let _installed = run.install();
            f();
        }
        run.profiler().take_profile()
    }

    #[test]
    fn nothing_records_without_a_profiling_scope() {
        let spans = || {
            let _s = scope("a/b");
            count("hits", 3);
        };
        spans();
        assert!(!profiler().enabled(), "no scope installed");
        let metrics_only = Scope::metrics();
        {
            let _installed = metrics_only.install();
            spans();
        }
        assert!(metrics_only.profiler().take_profile().is_empty());
    }

    #[test]
    fn nested_scopes_build_a_tree_with_self_time() {
        let p = with_profiler(|| {
            let _outer = scope("train");
            for _ in 0..3 {
                let _inner = scope("fit");
                count("iters", 2);
            }
        });
        assert_eq!(p.roots.len(), 1);
        let train = &p.roots[0];
        assert_eq!(train.name, "train");
        assert_eq!(train.calls, 1);
        assert_eq!(train.children.len(), 1);
        let fit = &train.children[0];
        assert_eq!((fit.name.as_str(), fit.calls), ("fit", 3));
        assert_eq!(fit.counters, BTreeMap::from([("iters".to_owned(), 6)]));
        assert!(train.total_ns >= fit.total_ns);
        assert_eq!(train.self_ns, train.total_ns - fit.total_ns);
    }

    #[test]
    fn multi_segment_paths_create_intermediate_nodes() {
        let p = with_profiler(|| {
            let _s = scope("stage4/grid/fit");
        });
        let s4 = &p.roots[0];
        assert_eq!(s4.name, "stage4");
        assert_eq!(s4.calls, 0, "intermediate segments carry no calls");
        let grid = &s4.children[0];
        let fit = &grid.children[0];
        assert_eq!(fit.calls, 1);
        // Intermediates inherit the leaf's time through the child-sum rule.
        assert_eq!(s4.total_ns, fit.total_ns);
        assert_eq!(s4.self_ns, 0);
    }

    #[test]
    fn forked_workers_nest_under_the_spawning_phase() {
        let p = with_profiler(|| {
            let _outer = scope("stage2");
            let ctx = fork();
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let ctx = ctx.clone();
                    s.spawn(move || {
                        let _a = ctx.attach();
                        let _run = scope("sim");
                        count("tasks", 5);
                    });
                }
            });
        });
        let stage2 = &p.roots[0];
        assert_eq!(stage2.name, "stage2");
        assert_eq!(stage2.calls, 1, "attach adds no calls to the parent");
        let sim = &stage2.children[0];
        assert_eq!((sim.name.as_str(), sim.calls), ("sim", 2));
        assert_eq!(sim.counters, BTreeMap::from([("tasks".to_owned(), 10)]));
    }

    #[test]
    fn structure_digest_ignores_timings() {
        let mk = |ns: u64| Profile {
            roots: vec![ProfileNode {
                name: "a".into(),
                calls: 2,
                total_ns: ns,
                self_ns: ns,
                counters: BTreeMap::from([("c".into(), 7)]),
                children: vec![],
            }],
        };
        assert_eq!(mk(10).structure_digest(), mk(99_999).structure_digest());
        // ...but not calls or counters.
        let mut other = mk(10);
        other.roots[0].calls = 3;
        assert_ne!(mk(10).structure_digest(), other.structure_digest());
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let p = with_profiler(|| {
            let _s = scope("a");
            let _t = scope("b/c");
            count("k", 4);
        });
        let back = Profile::from_json(&p.to_json()).expect("roundtrip");
        assert_eq!(p, back);
    }

    #[test]
    fn collapsed_output_folds_and_sorts() {
        let txt = fold_stacks(vec![
            (vec!["a".into(), "b".into()], 5),
            (vec!["a".into()], 2),
            (vec!["a".into(), "b".into()], 3),
            (vec![], 99),
        ]);
        assert_eq!(txt, "a 2\na;b 8\n");
    }

    #[test]
    fn collapsed_profile_lines_carry_self_weights() {
        let p = Profile {
            roots: vec![ProfileNode {
                name: "root".into(),
                calls: 1,
                total_ns: 10,
                self_ns: 4,
                counters: BTreeMap::new(),
                children: vec![ProfileNode {
                    name: "leaf".into(),
                    calls: 1,
                    total_ns: 6,
                    self_ns: 6,
                    counters: BTreeMap::new(),
                    children: vec![],
                }],
            }],
        };
        assert_eq!(p.to_collapsed(), "root 4\nroot;leaf 6\n");
    }

    #[test]
    fn diff_reports_added_removed_and_regressed_phases() {
        let mk = |total: u64, extra: bool| {
            let mut roots = vec![ProfileNode {
                name: "a".into(),
                calls: 1,
                total_ns: total,
                self_ns: total,
                counters: BTreeMap::new(),
                children: vec![],
            }];
            if extra {
                roots.push(ProfileNode {
                    name: "b".into(),
                    calls: 1,
                    total_ns: 1,
                    self_ns: 1,
                    counters: BTreeMap::new(),
                    children: vec![],
                });
            }
            Profile { roots }
        };
        let diff = ProfileDiff::between(&mk(100, false), &mk(250, true));
        assert_eq!(diff.phases.len(), 2);
        let regressed = diff.regressions();
        assert_eq!(regressed[0].path, "a");
        assert_eq!(regressed[0].delta_ns(), 150);
        assert_eq!(regressed[1].path, "b");
        assert_eq!(regressed[1].base_total_ns, None);
        let top = diff.top_regressed(1);
        assert_eq!(top.len(), 1);
        assert!(top[0].starts_with("a:"), "{top:?}");
        assert!(top[0].contains("+150%"), "{top:?}");
    }

    #[test]
    fn span_opened_before_install_stays_inert() {
        let run = Scope::profiling();
        let early = scope("early");
        let installed = run.install();
        drop(early);
        drop(installed);
        assert!(run.profiler().take_profile().is_empty());
    }

    #[test]
    fn concurrent_scopes_record_disjoint_profiles() {
        let record = |phase: &'static str| {
            move || {
                with_profiler(|| {
                    for _ in 0..200 {
                        let _s = scope(phase);
                        count("n", 1);
                    }
                })
            }
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(record("a"));
            let b = s.spawn(record("b"));
            (a.join().unwrap(), b.join().unwrap())
        });
        for (profile, phase) in [(a, "a"), (b, "b")] {
            assert_eq!(profile.roots.len(), 1, "{phase}: {profile:?}");
            let root = &profile.roots[0];
            assert_eq!((root.name.as_str(), root.calls), (phase, 200));
            assert_eq!(root.counters, BTreeMap::from([("n".to_owned(), 200)]));
        }
    }
}
