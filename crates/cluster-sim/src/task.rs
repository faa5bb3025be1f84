//! Computing one task: the pipeline walk.
//!
//! A task materializes partition `p` of its stage's output dataset by
//! recursively materializing parents *within the stage*:
//!
//! * persisted + resident ⇒ cache read (fast; the 97×-cheaper path of the
//!   paper's Figure 2 discussion);
//! * source ⇒ stable-storage read at disk bandwidth;
//! * wide ⇒ shuffle read (network fetch from every machine + reduce
//!   compute);
//! * narrow ⇒ recurse into parents, then apply the operator's compute cost.
//!
//! After computing a persisted dataset's partition the walker tries to
//! cache it, honouring the `u(X) … p(Y)` partition swap of schedules.
//! Like Spark, the walk does not memoize within a task: a dataset reachable
//! via two in-stage paths is computed twice.
//!
//! Every task of a stage walks the same tree, so `StageWalk` compiles
//! the recursion once per stage into a flat pre-order op list and each
//! task runs that list against the block store (DESIGN.md §13).

use std::collections::HashMap;

use dagflow::{Application, Bytes, ComputeCost, Dataset, DatasetId, OpKind};

use crate::config::{ClusterConfig, SimParams};
use crate::memory::BlockStore;
use crate::report::{PipelineStep, StepKind};

/// Deterministic per-partition size skew: a factor in `[1−s, 1+s]` drawn
/// from a hash of `(dataset, partition)`, so it is stable across runs and
/// cluster configurations. The paper observes partitions up to 2× larger
/// than others (§7.5); `s = 0.33` reproduces that ratio.
#[must_use]
pub fn skew_factor(dataset: DatasetId, partition: u32, skew: f64) -> f64 {
    if skew == 0.0 {
        // 1.0 + 0.0 * (2u − 1) is exactly 1.0 for every finite u, so the
        // fast path is bit-identical to the full computation.
        return 1.0;
    }
    // SplitMix64 over the pair for well-mixed bits.
    let mut z =
        (u64::from(dataset.0) << 32 | u64::from(partition)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let u = z as f64 / u64::MAX as f64; // [0, 1]
    1.0 + skew * (2.0 * u - 1.0)
}

/// Sizing helper: per-partition bytes and records with skew applied.
///
/// The per-dataset average sizes (`bytes / partitions`) are precomputed at
/// construction — they are partition-independent, and the divisions were a
/// measurable slice of the task walk's per-call cost. The skew factor is
/// applied exactly as before (`average * skew_factor`), so results are
/// bit-identical to the on-the-fly computation.
#[derive(Debug, Clone)]
pub struct Sizing {
    /// Skew amplitude `s`.
    pub skew: f64,
    /// `base_bytes[d]` — average partition bytes of dataset `d`.
    base_bytes: Vec<f64>,
    /// `base_records[d]` — average partition records of dataset `d`.
    base_records: Vec<f64>,
}

impl Sizing {
    /// Precomputes per-dataset average partition sizes for an application.
    #[must_use]
    pub fn new(app: &Application, skew: f64) -> Self {
        Sizing {
            skew,
            base_bytes: app
                .datasets()
                .iter()
                .map(Dataset::partition_bytes)
                .collect(),
            base_records: app
                .datasets()
                .iter()
                .map(Dataset::partition_records)
                .collect(),
        }
    }

    /// Bytes of one partition of a dataset.
    #[inline]
    #[must_use]
    pub fn partition_bytes(&self, d: DatasetId, p: u32) -> f64 {
        self.base_bytes[d.index()] * skew_factor(d, p, self.skew)
    }

    /// Records of one partition of a dataset.
    #[inline]
    #[must_use]
    pub fn partition_records(&self, d: DatasetId, p: u32) -> f64 {
        self.base_records[d.index()] * skew_factor(d, p, self.skew)
    }
}

/// Everything a task walk needs to know about its environment.
pub struct TaskEnv<'a> {
    /// The application plan.
    pub app: &'a Application,
    /// Cluster hardware.
    pub cluster: &'a ClusterConfig,
    /// Simulation parameters.
    pub params: &'a SimParams,
    /// Datasets with an active persist directive.
    pub persisted: &'a [bool],
    /// `swap[y] = x` when the schedule says `u(x)` right before `p(y)`.
    pub swap: &'a HashMap<DatasetId, DatasetId>,
    /// Sizing (skew) helper.
    pub sizing: &'a Sizing,
    /// Whether to record pipeline steps.
    pub trace: bool,
}

/// Outcome of walking one task's pipeline.
#[derive(Debug, Default)]
pub struct TaskWalk {
    /// Total compute duration (seconds, before noise and spill penalty).
    pub duration: f64,
    /// Steps with offsets relative to task start (absolute times are filled
    /// in by the executor).
    pub steps: Vec<PipelineStep>,
}

impl TaskWalk {
    fn push_step(
        &mut self,
        trace: bool,
        dataset: DatasetId,
        kind: StepKind,
        dur: f64,
        out_bytes: f64,
    ) {
        let start = self.duration;
        self.duration += dur;
        if trace {
            self.steps.push(PipelineStep {
                dataset,
                kind,
                start,
                finish: self.duration,
                out_bytes: out_bytes.max(0.0) as Bytes,
            });
        }
    }
}

/// Partition-independent terms of one shuffle-write step, precomputed once
/// per stage instead of once per task. Every field holds exactly the value
/// the per-task computation produced (same expressions, same inputs), so
/// task durations are bit-identical; only the per-task divisions go away.
#[derive(Debug, Clone, Copy)]
struct ConsumerCost {
    /// Bytes this map task writes (`shuffled bytes / map tasks`).
    written: f64,
    /// Seconds spent writing (`written / disk_bandwidth`).
    write_s: f64,
    /// For combining wide transformations: records per map task and the
    /// consumer's compute cost (the map-side combine scan). `None` when
    /// the shuffle does not combine map-side.
    combine: Option<(f64, ComputeCost)>,
}

impl ConsumerCost {
    /// Precomputes the shuffle-write terms for one `(producing stage
    /// output, consuming wide)` pair.
    fn build(env: &TaskEnv<'_>, output: DatasetId, wide: DatasetId) -> Self {
        let w = env.app.dataset(wide);
        let map_tasks = f64::from(env.app.dataset(output).partitions.max(1));
        let written = shuffled_bytes(env.app, wide) / map_tasks;
        let combine = wide_combines(w.op).then(|| (w.records as f64 / map_tasks, w.compute));
        ConsumerCost {
            written,
            write_s: written / env.cluster.spec.disk_bandwidth,
            combine,
        }
    }
}

/// One op of a compiled [`StageWalk`]. A dataset node of the task's
/// recursion becomes `[Probe] children… Exit`: the probe only when the
/// dataset is persisted, the children only for narrow datasets.
#[derive(Debug, Clone, Copy)]
enum WalkOp {
    /// Pre-order visit of a persisted dataset: one `store.read`. On a hit
    /// the cache read is recorded and the walk continues at op `skip`,
    /// just past this node's `Exit`; on a miss it falls through into the
    /// subtree that recomputes the partition.
    Probe { d: DatasetId, skip: u32 },
    /// Post-order visit: records the step that produced `d` and, when `d`
    /// is persisted, caches the partition (`try_insert` + `apply_swap`).
    /// Shuffle writes are trailing exits with `d` the consuming wide.
    Exit {
        d: DatasetId,
        kind: StepKind,
        persisted: bool,
    },
}

/// Duration and size of one op for one partition.
#[derive(Debug, Clone, Copy)]
struct OpCost {
    /// Step seconds; for a probe, the local cache-read seconds.
    dur: f64,
    /// Probe only: the remote (network) cache-read seconds.
    remote: f64,
    /// Partition bytes (for a shuffle write, the bytes written).
    bytes: f64,
}

/// The task walk of one stage, compiled once and run once per task
/// attempt.
///
/// Costs are exact per partition: at zero skew every partition of every
/// dataset has the same size, so one fill at compile time serves every
/// task; otherwise each op's cost is computed when the walk reaches it,
/// from the same expressions. Block-store calls happen in the recursion's
/// order (probes pre-order, inserts post-order) and durations are summed
/// step by step in that order, so runs are bit-identical to the plain
/// recursion (this module's test oracle). Held in executor scratch so the
/// buffers survive across stages.
#[derive(Debug)]
pub(crate) struct StageWalk {
    ops: Vec<WalkOp>,
    /// `costs[i]` — cost of `ops[i]`, filled only when `uniform`.
    costs: Vec<OpCost>,
    /// Shuffle-write terms of the trailing `ShuffleWrite` exits, in order.
    writes: Vec<ConsumerCost>,
    /// The stage output the tasks materialize.
    output: DatasetId,
    /// Number of `Exit` ops: an upper bound on a task's recorded steps.
    exits: usize,
    /// Zero skew: every partition costs the same, `costs` is filled.
    uniform: bool,
}

impl Default for StageWalk {
    fn default() -> Self {
        StageWalk {
            ops: Vec::new(),
            costs: Vec::new(),
            writes: Vec::new(),
            output: DatasetId(0),
            exits: 0,
            uniform: false,
        }
    }
}

impl StageWalk {
    /// Compiles the walk that materializes `output`, followed by one
    /// `ShuffleWrite` step per wide dataset in `shuffle_consumers` (the
    /// current job's wides that read this stage's output). Reuses the
    /// buffers of the previous compile.
    pub(crate) fn compile(
        &mut self,
        env: &TaskEnv<'_>,
        output: DatasetId,
        shuffle_consumers: &[DatasetId],
    ) {
        self.ops.clear();
        self.costs.clear();
        self.writes.clear();
        self.output = output;
        self.exits = 0;
        self.emit(env, output);
        for &w in shuffle_consumers {
            self.writes.push(ConsumerCost::build(env, output, w));
            self.ops.push(WalkOp::Exit {
                d: w,
                kind: StepKind::ShuffleWrite,
                persisted: false,
            });
        }
        self.exits += shuffle_consumers.len();
        // `skew_factor` is exactly 1.0 for every partition at zero skew,
        // so partition 0's costs are every partition's.
        self.uniform = env.sizing.skew == 0.0;
        if self.uniform {
            for i in 0..self.ops.len() {
                let c = self.op_cost(env, i, 0);
                self.costs.push(c);
            }
        }
    }

    /// Appends the ops of dataset `d`'s node (see [`WalkOp`]).
    fn emit(&mut self, env: &TaskEnv<'_>, d: DatasetId) {
        let persisted = env.persisted[d.index()];
        let probe = self.ops.len();
        if persisted {
            self.ops.push(WalkOp::Probe { d, skip: 0 });
        }
        let ds = env.app.dataset(d);
        let kind = match ds.op {
            OpKind::Source(_) => StepKind::SourceRead,
            OpKind::Wide(_) => StepKind::ShuffleRead,
            OpKind::Narrow(_) => {
                for &par in &ds.parents {
                    self.emit(env, par);
                }
                StepKind::Compute
            }
        };
        self.ops.push(WalkOp::Exit { d, kind, persisted });
        self.exits += 1;
        if persisted {
            let skip = u32::try_from(self.ops.len()).expect("walk fits u32 op indices");
            self.ops[probe] = WalkOp::Probe { d, skip };
        }
    }

    /// Cost of op `i` for partition `p`, by the expressions of the
    /// recursive walk.
    fn op_cost(&self, env: &TaskEnv<'_>, i: usize, p: u32) -> OpCost {
        let spec = &env.cluster.spec;
        let (d, kind) = match self.ops[i] {
            WalkOp::Probe { d, .. } => {
                let bytes = env.sizing.partition_bytes(d, p);
                return OpCost {
                    dur: bytes / spec.cache_read_bandwidth,
                    remote: bytes / spec.network_bandwidth,
                    bytes,
                };
            }
            WalkOp::Exit { d, kind, .. } => (d, kind),
        };
        if kind == StepKind::ShuffleWrite {
            // The shuffle writes are the trailing ops, in `writes` order.
            let c = &self.writes[i + self.writes.len() - self.ops.len()];
            // Map-side combine work (the scan producing partial
            // aggregates) is part of the Shuffle Write half of a combining
            // wide transformation.
            let combine = match c.combine {
                Some((records, compute)) => {
                    let input = env.sizing.partition_bytes(self.output, p);
                    compute.task_seconds(records, input) / spec.cpu_speed
                }
                None => 0.0,
            };
            return OpCost {
                dur: combine + c.write_s,
                remote: 0.0,
                bytes: c.written,
            };
        }
        let bytes = env.sizing.partition_bytes(d, p);
        let dur = match kind {
            StepKind::SourceRead => bytes / spec.disk_bandwidth,
            StepKind::ShuffleRead => shuffle_read_seconds(env, d, p),
            StepKind::Compute => {
                let ds = env.app.dataset(d);
                let mut input_bytes = 0.0;
                for &par in &ds.parents {
                    input_bytes += env.sizing.partition_bytes(par, p);
                }
                let records = env.sizing.partition_records(d, p);
                ds.compute.task_seconds(records, input_bytes) / spec.cpu_speed
            }
            StepKind::CacheRead | StepKind::ShuffleWrite => unreachable!("not a node exit"),
        };
        OpCost {
            dur,
            remote: 0.0,
            bytes,
        }
    }

    #[inline]
    fn cost(&self, env: &TaskEnv<'_>, i: usize, p: u32) -> OpCost {
        if self.uniform {
            self.costs[i]
        } else {
            self.op_cost(env, i, p)
        }
    }

    /// Walks partition `p` on `machine`, mutating the block store (cache
    /// hits, inserts, swaps). `env` must be the environment the walk was
    /// compiled under.
    pub(crate) fn run(
        &self,
        env: &TaskEnv<'_>,
        store: &mut BlockStore,
        machine: usize,
        p: u32,
    ) -> TaskWalk {
        let mut walk = TaskWalk {
            duration: 0.0,
            steps: Vec::with_capacity(if env.trace { self.exits } else { 0 }),
        };
        let mut i = 0;
        while let Some(&op) = self.ops.get(i) {
            match op {
                WalkOp::Probe { d, skip } => {
                    // One fused lookup: counts the hit/miss and returns the
                    // holder. A miss falls through to recompute.
                    if let Some(holder) = store.read(d, p) {
                        // Local read from storage memory, or a remote fetch
                        // if locality scheduling could not place us on the
                        // holder.
                        let c = self.cost(env, i, p);
                        let dur = if holder == machine { c.dur } else { c.remote };
                        walk.push_step(env.trace, d, StepKind::CacheRead, dur, c.bytes);
                        i = skip as usize;
                        continue;
                    }
                }
                WalkOp::Exit { d, kind, persisted } => {
                    let c = self.cost(env, i, p);
                    walk.push_step(env.trace, d, kind, c.dur, c.bytes);
                    if persisted && store.try_insert(machine, d, p, c.bytes.max(1.0) as Bytes) {
                        apply_swap(env, store, d, p);
                    }
                }
            }
            i += 1;
        }
        walk
    }
}

/// Total bytes crossing the network for a wide dataset's shuffle: combining
/// shuffles move only partial aggregates (≈ the output size per map task);
/// non-combining shuffles move the full parent data.
fn shuffled_bytes(app: &Application, wide: DatasetId) -> f64 {
    let w = app.dataset(wide);
    if wide_combines(w.op) {
        // One partial aggregate per map task.
        let map_tasks: u32 = w
            .parents
            .iter()
            .map(|&p| app.dataset(p).partitions)
            .max()
            .unwrap_or(1);
        w.bytes as f64 * f64::from(map_tasks.max(1)) / f64::from(w.partitions.max(1))
    } else {
        w.parents.iter().map(|&p| app.dataset(p).bytes as f64).sum()
    }
}

fn wide_combines(op: OpKind) -> bool {
    matches!(op, OpKind::Wide(k) if k.combines_map_side())
}

/// Reduce-side cost of materializing one partition of a wide dataset:
/// network fetch of this reducer's share plus merge/compute work.
fn shuffle_read_seconds(env: &TaskEnv<'_>, wide: DatasetId, p: u32) -> f64 {
    let spec = &env.cluster.spec;
    let w = env.app.dataset(wide);
    let fetched = shuffled_bytes(env.app, wide) / f64::from(w.partitions.max(1));
    let fetch = fetched / spec.network_bandwidth
        + f64::from(env.cluster.machines) * env.params.shuffle_connection_s;
    let compute = if wide_combines(w.op) {
        // The scan work was charged map-side; merging partials is cheap.
        (w.compute.fixed_s + w.compute.per_input_byte_s * fetched) / spec.cpu_speed
    } else {
        let records = env.sizing.partition_records(wide, p);
        w.compute.task_seconds(records, fetched) / spec.cpu_speed
    };
    fetch + compute
}

/// Applies the `u(X) … p(Y)` partition-by-partition swap: as Y's blocks
/// materialize, X's are dropped so the pair never occupies more than
/// `max(|X|, |Y|)` plus one partition.
fn apply_swap(env: &TaskEnv<'_>, store: &mut BlockStore, y: DatasetId, p: u32) {
    let Some(&x) = env.swap.get(&y) else { return };
    let py = env.app.dataset(y).partitions;
    let px = env.app.dataset(x).partitions;
    let y_resident = store.resident_count(y);
    // Keep at most this many X blocks while Y is y_resident/py done.
    let keep = ((f64::from(px) * (1.0 - f64::from(y_resident) / f64::from(py.max(1))))
        .ceil()
        .max(0.0)) as u32;
    // Prefer dropping the co-indexed partition, then sweep others.
    if store.resident_count(x) > keep && p < px {
        store.drop_partition(x, p);
    }
    let mut q = 0;
    while store.resident_count(x) > keep && q < px {
        store.drop_partition(x, q);
        q += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagflow::{AppBuilder, ComputeCost, NarrowKind, SourceFormat, WideKind};

    use crate::config::MachineSpec;
    use crate::memory::BlockLayout;
    use crate::report::PipelineStep;

    fn store_for(app: &Application, cluster: &ClusterConfig) -> BlockStore {
        BlockStore::new(cluster, std::sync::Arc::new(BlockLayout::from_app(app)))
    }

    fn env_fixture() -> (Application, ClusterConfig, SimParams) {
        let mut b = AppBuilder::new("taskfix");
        let src = b.source("in", SourceFormat::DistributedFs, 8_000, 800_000_000, 8);
        let parsed = b.narrow(
            "parsed",
            NarrowKind::Map,
            &[src],
            8_000,
            640_000_000,
            ComputeCost::new(0.05, 1e-5, 2e-9),
        );
        let agg = b.wide_with_partitions(
            "agg",
            WideKind::TreeAggregate,
            &[parsed],
            8,
            1024,
            1,
            ComputeCost::new(0.02, 0.0, 1e-9),
        );
        b.job("collect", agg);
        let app = b.build().unwrap();
        let cluster = ClusterConfig::new(2, MachineSpec::paper_example());
        let params = SimParams::default();
        (app, cluster, params)
    }

    use dagflow::Application;

    fn make_env<'a>(
        app: &'a Application,
        cluster: &'a ClusterConfig,
        params: &'a SimParams,
        persisted: &'a [bool],
        swap: &'a HashMap<DatasetId, DatasetId>,
        sizing: &'a Sizing,
    ) -> TaskEnv<'a> {
        TaskEnv {
            app,
            cluster,
            params,
            persisted,
            swap,
            sizing,
            trace: true,
        }
    }

    /// Compiles the stage walk for `output` and runs it for one task.
    fn walk(
        env: &TaskEnv<'_>,
        store: &mut BlockStore,
        machine: usize,
        output: DatasetId,
        p: u32,
        shuffle_consumers: &[DatasetId],
    ) -> TaskWalk {
        let mut w = StageWalk::default();
        w.compile(env, output, shuffle_consumers);
        w.run(env, store, machine, p)
    }

    /// The oracle: the recursive walk [`StageWalk`] was compiled from,
    /// kept verbatim. Walks partition `p` of `output` on `machine`,
    /// mutating the block store, then appends one `ShuffleWrite` step per
    /// consumer.
    fn walk_task(
        env: &TaskEnv<'_>,
        store: &mut BlockStore,
        machine: usize,
        output: DatasetId,
        p: u32,
        shuffle_consumers: &[DatasetId],
    ) -> TaskWalk {
        let mut walk = TaskWalk::default();
        materialize(env, store, machine, output, p, &mut walk);
        for &wide in shuffle_consumers {
            let c = ConsumerCost::build(env, output, wide);
            // Map-side combine work (the scan producing partial aggregates) is
            // part of the Shuffle Write half of a combining wide transformation.
            let combine = match c.combine {
                Some((records, compute)) => {
                    let input = env.sizing.partition_bytes(output, p);
                    compute.task_seconds(records, input) / env.cluster.spec.cpu_speed
                }
                None => 0.0,
            };
            let dur = combine + c.write_s;
            walk.push_step(env.trace, wide, StepKind::ShuffleWrite, dur, c.written);
        }
        walk
    }

    /// Oracle: recursively makes partition `p` of `d` available inside the
    /// task.
    fn materialize(
        env: &TaskEnv<'_>,
        store: &mut BlockStore,
        machine: usize,
        d: DatasetId,
        p: u32,
        walk: &mut TaskWalk,
    ) {
        let spec = &env.cluster.spec;
        let bytes = env.sizing.partition_bytes(d, p);
        let is_persisted = env.persisted[d.index()];

        if is_persisted {
            // One fused lookup: counts the hit/miss and returns the holder.
            if let Some(holder) = store.read(d, p) {
                // Local read from storage memory, or a remote fetch if locality
                // scheduling could not place us on the holder.
                let bw = if holder == machine {
                    spec.cache_read_bandwidth
                } else {
                    spec.network_bandwidth
                };
                walk.push_step(env.trace, d, StepKind::CacheRead, bytes / bw, bytes);
                return;
            }
            // Persisted but not resident: the miss is recorded; recompute below.
        }

        let ds = env.app.dataset(d);
        match ds.op {
            OpKind::Source(_) => {
                walk.push_step(
                    env.trace,
                    d,
                    StepKind::SourceRead,
                    bytes / spec.disk_bandwidth,
                    bytes,
                );
            }
            OpKind::Wide(_) => {
                let dur = shuffle_read_seconds(env, d, p);
                walk.push_step(env.trace, d, StepKind::ShuffleRead, dur, bytes);
            }
            OpKind::Narrow(_) => {
                let mut input_bytes = 0.0;
                for &par in &ds.parents {
                    input_bytes += env.sizing.partition_bytes(par, p);
                    materialize(env, store, machine, par, p, walk);
                }
                let records = env.sizing.partition_records(d, p);
                let compute = ds.compute.task_seconds(records, input_bytes) / spec.cpu_speed;
                walk.push_step(env.trace, d, StepKind::Compute, compute, bytes);
            }
        }

        if is_persisted && store.try_insert(machine, d, p, bytes.max(1.0) as Bytes) {
            apply_swap(env, store, d, p);
        }
    }

    #[test]
    fn skew_factor_is_deterministic_and_bounded() {
        let d = DatasetId(5);
        let a = skew_factor(d, 3, 0.33);
        let b = skew_factor(d, 3, 0.33);
        assert_eq!(a, b);
        for p in 0..1000 {
            let f = skew_factor(d, p, 0.33);
            assert!((0.67..=1.33).contains(&f), "{f}");
        }
        // Mean close to 1 so totals are preserved.
        let mean: f64 = (0..10_000).map(|p| skew_factor(d, p, 0.33)).sum::<f64>() / 10_000.0;
        assert!((mean - 1.0).abs() < 0.01, "{mean}");
    }

    #[test]
    fn source_then_narrow_pipeline_costs_add_up() {
        let (app, cluster, params) = env_fixture();
        let persisted = vec![false; app.dataset_count()];
        let swap = HashMap::new();
        let sizing = Sizing::new(&app, 0.0);
        let env = make_env(&app, &cluster, &params, &persisted, &swap, &sizing);
        let mut store = store_for(&app, &cluster);
        let walk = walk(&env, &mut store, 0, DatasetId(1), 0, &[DatasetId(2)]);
        // Steps: SourceRead(in), Compute(parsed), ShuffleWrite(agg).
        assert_eq!(walk.steps.len(), 3);
        assert_eq!(walk.steps[0].kind, StepKind::SourceRead);
        assert_eq!(walk.steps[1].kind, StepKind::Compute);
        assert_eq!(walk.steps[2].kind, StepKind::ShuffleWrite);
        assert_eq!(walk.steps[2].dataset, DatasetId(2));
        // Durations: 100 MB read at 80 MB/s, parse compute, then the
        // combining shuffle write: map-side combine over the 80 MB parsed
        // partition plus a tiny partial-aggregate write (8 × 1024 B total
        // over 8 map tasks).
        let read = 100_000_000.0 / 80.0e6;
        let compute = 0.05 + 1e-5 * 1000.0 + 2e-9 * 100_000_000.0;
        let combine = 0.02 + 1e-9 * 80_000_000.0; // agg cost over parsed partition
        let write = 1024.0 / 80.0e6;
        assert!(
            (walk.duration - (read + compute + combine + write)).abs() < 1e-9,
            "duration {}",
            walk.duration
        );
        // Steps are contiguous.
        assert_eq!(walk.steps[0].start, 0.0);
        for w in walk.steps.windows(2) {
            assert!((w[0].finish - w[1].start).abs() < 1e-12);
        }
    }

    #[test]
    fn persisted_dataset_gets_cached_then_read() {
        let (app, cluster, params) = env_fixture();
        let mut persisted = vec![false; app.dataset_count()];
        persisted[1] = true; // persist "parsed"
        let swap = HashMap::new();
        let sizing = Sizing::new(&app, 0.0);
        let env = make_env(&app, &cluster, &params, &persisted, &swap, &sizing);
        let mut store = store_for(&app, &cluster);
        let first = walk(&env, &mut store, 0, DatasetId(1), 0, &[]);
        assert_eq!(store.resident_count(DatasetId(1)), 1);
        let second = walk(&env, &mut store, 0, DatasetId(1), 0, &[]);
        assert_eq!(second.steps.len(), 1);
        assert_eq!(second.steps[0].kind, StepKind::CacheRead);
        assert!(
            second.duration < first.duration / 10.0,
            "cache read {} vs recompute {}",
            second.duration,
            first.duration
        );
        let stats = store.dataset_stats(DatasetId(1)).unwrap();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1, "the first walk missed before computing");
    }

    #[test]
    fn remote_cache_read_is_slower_than_local() {
        let (app, cluster, params) = env_fixture();
        let mut persisted = vec![false; app.dataset_count()];
        persisted[1] = true;
        let swap = HashMap::new();
        let sizing = Sizing::new(&app, 0.0);
        let env = make_env(&app, &cluster, &params, &persisted, &swap, &sizing);
        let mut store = store_for(&app, &cluster);
        walk(&env, &mut store, 0, DatasetId(1), 0, &[]);
        let local = walk(&env, &mut store, 0, DatasetId(1), 0, &[]);
        let remote = walk(&env, &mut store, 1, DatasetId(1), 0, &[]);
        assert!(remote.duration > local.duration * 2.0);
    }

    #[test]
    fn wide_dataset_costs_shuffle_read() {
        let (app, cluster, params) = env_fixture();
        let persisted = vec![false; app.dataset_count()];
        let swap = HashMap::new();
        let sizing = Sizing::new(&app, 0.0);
        let env = make_env(&app, &cluster, &params, &persisted, &swap, &sizing);
        let mut store = store_for(&app, &cluster);
        let walk = walk(&env, &mut store, 0, DatasetId(2), 0, &[]);
        assert_eq!(walk.steps.len(), 1);
        assert_eq!(walk.steps[0].kind, StepKind::ShuffleRead);
        // treeAggregate combines map-side: the reducer fetches 8 partial
        // aggregates of 1024 B and merges them.
        let fetched = 1024.0 * 8.0;
        let fetch = fetched / 125.0e6 + 2.0 * params.shuffle_connection_s;
        let merge = 0.02 + 1e-9 * fetched;
        assert!(
            (walk.duration - (fetch + merge)).abs() < 1e-9,
            "duration {}",
            walk.duration
        );
    }

    #[test]
    fn swap_drops_old_blocks_as_new_ones_arrive() {
        let mut b = AppBuilder::new("swapfix");
        let src = b.source("in", SourceFormat::DistributedFs, 100, 1_000_000, 4);
        let x = b.narrow(
            "x",
            NarrowKind::Map,
            &[src],
            100,
            1_000_000,
            ComputeCost::FREE,
        );
        let y = b.narrow(
            "y",
            NarrowKind::Map,
            &[x],
            100,
            1_000_000,
            ComputeCost::FREE,
        );
        b.job("count", y);
        let app = b.build().unwrap();
        let cluster = ClusterConfig::new(1, MachineSpec::paper_example());
        let params = SimParams::default();
        let mut persisted = vec![false; app.dataset_count()];
        persisted[x.index()] = true;
        persisted[y.index()] = true;
        let mut swap = HashMap::new();
        swap.insert(y, x);
        let sizing = Sizing::new(&app, 0.0);
        let env = make_env(&app, &cluster, &params, &persisted, &swap, &sizing);
        let mut store = store_for(&app, &cluster);
        // Materialize and cache all of X first.
        for p in 0..4 {
            walk(&env, &mut store, 0, x, p, &[]);
        }
        assert_eq!(store.resident_count(x), 4);
        // Now compute Y partition by partition: X shrinks in lock-step.
        for p in 0..4 {
            walk(&env, &mut store, 0, y, p, &[]);
            let expect_x = 4 - (p + 1);
            assert!(
                store.resident_count(x) <= expect_x + 1,
                "after {} Y blocks, X has {}",
                p + 1,
                store.resident_count(x)
            );
        }
        assert_eq!(store.resident_count(y), 4);
        assert_eq!(store.resident_count(x), 0, "fully swapped out");
        let sx = store.dataset_stats(x).unwrap();
        assert_eq!(sx.evictions, 0, "swap is unpersist, not eviction");
        assert_eq!(sx.unpersisted, 4);
    }

    #[test]
    fn untraced_walk_collects_no_steps() {
        let (app, cluster, params) = env_fixture();
        let persisted = vec![false; app.dataset_count()];
        let swap = HashMap::new();
        let sizing = Sizing::new(&app, 0.0);
        let mut env = make_env(&app, &cluster, &params, &persisted, &swap, &sizing);
        env.trace = false;
        let mut store = store_for(&app, &cluster);
        let walk = walk(&env, &mut store, 0, DatasetId(1), 0, &[]);
        assert!(walk.steps.is_empty());
        assert!(walk.duration > 0.0);
    }

    /// A `Zip` of two branches over one ancestor: the walk does not
    /// memoize, so the ancestor is visited twice. Unpersisted, it is read
    /// from the source twice; persisted, the first visit caches it and the
    /// second reads that block.
    #[test]
    fn diamond_ancestor_is_computed_twice_unless_cached() {
        let mut b = AppBuilder::new("diamond");
        let src = b.source("in", SourceFormat::DistributedFs, 100, 4_000_000, 4);
        let a = b.narrow(
            "a",
            NarrowKind::Map,
            &[src],
            100,
            4_000_000,
            ComputeCost::FREE,
        );
        let l = b.narrow(
            "l",
            NarrowKind::Map,
            &[a],
            100,
            4_000_000,
            ComputeCost::FREE,
        );
        let r = b.narrow(
            "r",
            NarrowKind::Filter,
            &[a],
            100,
            4_000_000,
            ComputeCost::FREE,
        );
        let z = b.narrow(
            "z",
            NarrowKind::Zip,
            &[l, r],
            100,
            4_000_000,
            ComputeCost::FREE,
        );
        b.job("count", z);
        let app = b.build().unwrap();
        let cluster = ClusterConfig::new(1, MachineSpec::paper_example());
        let params = SimParams::default();
        let swap = HashMap::new();
        let kinds = |w: &TaskWalk| {
            w.steps
                .iter()
                .map(|s| (s.dataset, s.kind))
                .collect::<Vec<_>>()
        };

        let persisted = vec![false; app.dataset_count()];
        let sizing = Sizing::new(&app, 0.0);
        let env = make_env(&app, &cluster, &params, &persisted, &swap, &sizing);
        let mut store = store_for(&app, &cluster);
        let w = walk(&env, &mut store, 0, z, 0, &[]);
        use StepKind::{CacheRead, Compute, SourceRead};
        assert_eq!(
            kinds(&w),
            [
                (src, SourceRead),
                (a, Compute),
                (l, Compute),
                (src, SourceRead),
                (a, Compute),
                (r, Compute),
                (z, Compute)
            ]
        );

        let mut persisted = vec![false; app.dataset_count()];
        persisted[a.index()] = true;
        let sizing = Sizing::new(&app, 0.0);
        let env = make_env(&app, &cluster, &params, &persisted, &swap, &sizing);
        let mut store = store_for(&app, &cluster);
        let w = walk(&env, &mut store, 0, z, 0, &[]);
        assert_eq!(
            kinds(&w),
            [
                (src, SourceRead),
                (a, Compute),
                (l, Compute),
                (a, CacheRead),
                (r, Compute),
                (z, Compute)
            ]
        );
        let stats = store.dataset_stats(a).unwrap();
        assert_eq!((stats.misses, stats.hits), (1, 1));
    }

    /// SplitMix64: the differential test draws its stage shapes from one
    /// seed.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn coin(&mut self) -> bool {
            self.next() & 1 == 1
        }
    }

    /// A random stage: one or two sources and maybe a shuffled dataset as
    /// leaves, then narrow maps and two-parent zips/unions over any
    /// earlier dataset (so branches share ancestors), ending in the stage
    /// output; plus up to two wides reading the output. Returns the app,
    /// the output and the consuming wides.
    fn random_stage(rng: &mut Mix) -> (Application, DatasetId, Vec<DatasetId>) {
        let parts = 1 + rng.below(5) as u32;
        let mb = |rng: &mut Mix| (1 + rng.below(30)) * 1_000_000 * u64::from(parts);
        let cost = |rng: &mut Mix| {
            ComputeCost::new(
                rng.below(50) as f64 * 1e-3,
                rng.below(10) as f64 * 1e-6,
                rng.below(10) as f64 * 1e-9,
            )
        };
        let mut b = AppBuilder::new("walkprop");
        let mut pool = Vec::new();
        for i in 0..1 + rng.below(2) {
            let bytes = mb(rng);
            pool.push(b.source(
                format!("in{i}"),
                SourceFormat::DistributedFs,
                1_000,
                bytes,
                parts,
            ));
        }
        if rng.coin() {
            let kind = if rng.coin() {
                WideKind::ReduceByKey
            } else {
                WideKind::GroupByKey
            };
            let (bytes, c) = (mb(rng), cost(rng));
            pool.push(b.wide("shuffled", kind, &[pool[0]], 1_000, bytes, c));
        }
        for i in 0..2 + rng.below(7) {
            let x = pool[rng.below(pool.len() as u64) as usize];
            let (bytes, c) = (mb(rng), cost(rng));
            let records = 100 + rng.below(10_000);
            let d = if rng.below(3) == 0 {
                let y = pool[rng.below(pool.len() as u64) as usize];
                let kind = if rng.coin() {
                    NarrowKind::Zip
                } else {
                    NarrowKind::Union
                };
                b.narrow(format!("n{i}"), kind, &[x, y], records, bytes, c)
            } else {
                // Chain off the newest dataset more often than not, so
                // stages are deep as well as wide.
                let x = if rng.coin() { *pool.last().unwrap() } else { x };
                b.narrow(format!("n{i}"), NarrowKind::Map, &[x], records, bytes, c)
            };
            pool.push(d);
        }
        let output = *pool.last().unwrap();
        let mut consumers = Vec::new();
        for i in 0..rng.below(3) {
            let kind = if rng.coin() {
                WideKind::ReduceByKey
            } else {
                WideKind::GroupByKey
            };
            let reducers = 1 + rng.below(6) as u32;
            let c = cost(rng);
            consumers.push(b.wide_with_partitions(
                format!("w{i}"),
                kind,
                &[output],
                500,
                50_000_000,
                reducers,
                c,
            ));
        }
        b.job("collect", consumers.last().copied().unwrap_or(output));
        (b.build().unwrap(), output, consumers)
    }

    fn step_bits(steps: &[PipelineStep]) -> Vec<(DatasetId, StepKind, u64, u64, Bytes)> {
        steps
            .iter()
            .map(|s| {
                (
                    s.dataset,
                    s.kind,
                    s.start.to_bits(),
                    s.finish.to_bits(),
                    s.out_bytes,
                )
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// The compiled walk, compiled once and run task after task,
        /// leaves the same durations (to the bit), steps, cache statistics
        /// and residency as the recursive oracle, over random stages with
        /// diamonds, random persisted sets over a pre-warmed store, swaps,
        /// skew, tight memory and 1–4 machines.
        #[test]
        fn stage_walk_matches_the_recursive_oracle(
            seed in proptest::prelude::any::<u64>(),
            machines in 1u32..5,
            skewed in proptest::prelude::any::<bool>(),
            tight in proptest::prelude::any::<bool>(),
            traced in proptest::prelude::any::<bool>(),
            policy in 0usize..4,
        ) {
            let mut rng = Mix(seed);
            let (app, output, consumers) = random_stage(&mut rng);
            let n = app.dataset_count();
            let persisted: Vec<bool> = (0..n).map(|_| rng.coin()).collect();
            let cached: Vec<DatasetId> =
                (0..n as u32).map(DatasetId).filter(|d| persisted[d.index()]).collect();
            // `u(x) p(y)` pairs between persisted datasets.
            let mut swap = HashMap::new();
            if cached.len() >= 2 {
                for _ in 0..rng.below(3) {
                    let y = cached[rng.below(cached.len() as u64) as usize];
                    let x = cached[rng.below(cached.len() as u64) as usize];
                    if x != y {
                        swap.insert(y, x);
                    }
                }
            }
            let spec = if tight {
                // M = 60 MB per machine: inserts evict.
                MachineSpec { ram_bytes: 400_000_000, ..MachineSpec::paper_example() }
            } else {
                MachineSpec::paper_example()
            };
            let cluster = ClusterConfig::new(machines, spec);
            let params = SimParams::default();
            let env = TaskEnv {
                app: &app,
                cluster: &cluster,
                params: &params,
                persisted: &persisted,
                swap: &swap,
                sizing: &Sizing::new(&app, if skewed { 0.2 } else { 0.0 }),
                trace: traced,
            };
            let policy = crate::eviction::EvictionPolicyKind::all()[policy];
            let layout = std::sync::Arc::new(BlockLayout::from_app(&app));
            let mut oracle = BlockStore::with_policy(&cluster, layout.clone(), policy);
            let mut store = BlockStore::with_policy(&cluster, layout, policy);
            // Pre-warm both stores alike: local and remote holders.
            for &d in &cached {
                for p in 0..app.dataset(d).partitions {
                    if rng.coin() {
                        let m = rng.below(u64::from(machines)) as usize;
                        let bytes = env.sizing.partition_bytes(d, p).max(1.0) as Bytes;
                        oracle.try_insert(m, d, p, bytes);
                        store.try_insert(m, d, p, bytes);
                    }
                }
            }
            let mut compiled = StageWalk::default();
            compiled.compile(&env, output, &consumers);
            let parts = app.dataset(output).partitions;
            for task in 0..3 * parts {
                let p = rng.below(u64::from(parts)) as u32;
                let m = rng.below(u64::from(machines)) as usize;
                let want = walk_task(&env, &mut oracle, m, output, p, &consumers);
                let got = compiled.run(&env, &mut store, m, p);
                proptest::prop_assert_eq!(
                    got.duration.to_bits(),
                    want.duration.to_bits(),
                    "task {} (p {}, machine {}): {} vs {}",
                    task, p, m, got.duration, want.duration
                );
                proptest::prop_assert_eq!(step_bits(&got.steps), step_bits(&want.steps), "task {}", task);
                for d in (0..n as u32).map(DatasetId) {
                    proptest::prop_assert_eq!(store.dataset_stats(d), oracle.dataset_stats(d), "{:?}", d);
                    for q in 0..app.dataset(d).partitions {
                        proptest::prop_assert_eq!(store.residency(d, q), oracle.residency(d, q));
                    }
                }
            }
        }
    }
}
