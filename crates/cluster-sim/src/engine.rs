//! The run engine: sequential jobs, stage pruning against the cache,
//! schedule enforcement, driver overheads, and report assembly.
//!
//! This is the reproduction's stand-in for both vanilla Spark (run with the
//! application's default schedule) and the paper's *Juggler engine* — "a
//! modified version of Spark that overwrites the developer-cached datasets
//! with the recommended schedule by injecting cache/unpersist instructions
//! into the DAG" (§5.3) — run with any other schedule.

use std::collections::HashMap;
use std::sync::Arc;

use dagflow::{Application, DagError, DatasetId, JobId, Schedule, ScheduleOp, StagePlan};

use crate::config::{ClusterConfig, SimParams};
use crate::eviction::DatasetHints;
use crate::executor::{run_stage, ExecutorState};
use crate::fault::{ChaosState, FaultSummary};
use crate::memory::{BlockLayout, BlockStore};
use crate::report::{CacheStats, RunReport, StageTiming};
use crate::rng::TaskNoise;
use crate::task::{Sizing, TaskEnv};
use crate::trace::{TraceConfig, TraceCounters, TraceRecorder};

/// Per-run options.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Collect per-task pipeline traces (needed by the `instrument` crate;
    /// costs memory proportional to total tasks).
    pub collect_traces: bool,
    /// Per-partition size skew amplitude (0 = perfectly even partitions).
    pub partition_skew: f64,
    /// Structured trace recording (spans + counters into a ring buffer,
    /// exported via [`crate::trace::RunTrace`]). Disabled by default; when
    /// disabled every recording call is a no-op.
    pub trace: TraceConfig,
}

/// Cumulative run-wide counters for a trace snapshot: cache behaviour
/// summed over every dataset, plus executor-level spill/locality tallies.
/// Sums are order-independent, so snapshots are deterministic regardless
/// of `HashMap` iteration order.
/// Feeds one finished run's counters into the metrics registry of the
/// current `obs::Scope`. A single branch when none records (the default).
pub(crate) fn record_run_metrics(
    counters: &TraceCounters,
    total_tasks: u64,
    faults: &FaultSummary,
) {
    let reg = obs::registry();
    if !reg.enabled() {
        return;
    }
    reg.counter("sim_runs_total", "simulated runs completed")
        .inc();
    reg.counter("sim_tasks_total", "tasks executed across all runs")
        .add(total_tasks);
    reg.counter(
        "sim_cache_hits_total",
        "cache reads that found the block resident",
    )
    .add(counters.cache_hits);
    reg.counter(
        "sim_cache_misses_total",
        "cache reads that missed, forcing recomputation",
    )
    .add(counters.cache_misses);
    reg.counter(
        "sim_evictions_total",
        "blocks evicted under memory pressure",
    )
    .add(counters.evictions);
    reg.counter(
        "sim_insert_failures_total",
        "cache inserts rejected for lack of memory",
    )
    .add(counters.insert_failures);
    reg.counter("sim_unpersisted_total", "blocks dropped by unpersist/swap")
        .add(counters.unpersisted);
    reg.counter(
        "sim_spills_total",
        "tasks that could not claim execution memory and spilled",
    )
    .add(counters.spills);
    reg.counter(
        "sim_locality_fallbacks_total",
        "tasks that gave up on their cache-local machine and ran elsewhere",
    )
    .add(counters.locality_fallbacks);
    // Chaos counters register only when non-zero: fault-free runs leave
    // the registry (and every golden pinned on it) exactly as before.
    for (value, name, help) in [
        (
            faults.failed_attempts,
            "sim_task_failures_total",
            "task attempts that failed from injected transient failures",
        ),
        (
            faults.retried_attempts,
            "sim_task_retries_total",
            "failed task attempts that were retried",
        ),
        (
            faults.exhausted_tasks,
            "sim_retry_exhausted_total",
            "tasks whose retry budget was exhausted",
        ),
        (
            faults.slowed_tasks,
            "sim_slowed_tasks_total",
            "task attempts slowed by a slow-node window",
        ),
        (
            faults.speculative_launched,
            "sim_speculative_tasks_total",
            "speculative task copies launched",
        ),
        (
            faults.speculative_wins,
            "sim_speculative_wins_total",
            "speculative copies that beat the original attempt",
        ),
        (
            faults.blacklist.len() as u64,
            "sim_blacklisted_machines_total",
            "machines blacklisted after repeated task failures",
        ),
        (
            faults.fired_count() as u64,
            "sim_faults_fired_total",
            "planned fault events that took effect",
        ),
        (
            faults.unfired_count() as u64,
            "sim_faults_unfired_total",
            "planned fault events that did not fire",
        ),
    ] {
        if value > 0 {
            reg.counter(name, help).add(value);
        }
    }
}

pub(crate) fn gather_counters(
    store: &BlockStore,
    state: &ExecutorState,
    chaos: &ChaosState,
) -> TraceCounters {
    let (task_retries, speculative_tasks, blacklisted_machines) = chaos.counter_snapshot();
    let mut c = TraceCounters {
        spills: state.spilled_tasks,
        locality_fallbacks: state.locality_fallbacks,
        task_retries,
        speculative_tasks,
        blacklisted_machines,
        ..TraceCounters::default()
    };
    for (_, s) in store.touched_stats() {
        c.cache_hits += s.hits;
        c.cache_misses += s.misses;
        c.evictions += s.evictions;
        c.insert_failures += s.insert_failures;
        c.unpersisted += s.unpersisted;
    }
    c
}

/// Everything about an application a run needs but no run mutates: the
/// dataset→jobs use lists, the per-job stage plans, the static
/// shuffle-consumer table, and the dense block layout. Built once per
/// application (inside [`Engine::new`]) and shared across engines — the
/// training pipeline hands one `Arc<EnginePrep>` to every grid point via
/// [`Engine::with_prep`], so a thousand-cell simulation matrix plans each
/// job exactly once instead of once per cell per job.
#[derive(Debug)]
pub struct EnginePrep {
    /// `job_uses[d]` — jobs whose DAG contains dataset `d`, for the
    /// DAG-aware eviction policies' hints.
    pub(crate) job_uses: Vec<Vec<usize>>,
    /// One stage plan per job, in job order.
    pub(crate) plans: Vec<StagePlan>,
    /// `consumers[ji][sp]` — for stage position `sp` of job `ji`, the
    /// statically possible shuffle consumers as `(consumer_stage_index,
    /// wide_dataset)` pairs, in the order the per-stage scan used to
    /// produce them. Runs filter by their `needed` set at job time.
    pub(crate) consumers: Vec<Vec<Vec<(u32, DatasetId)>>>,
    /// Dense `(dataset, partition)` interning for the block store.
    layout: Arc<BlockLayout>,
    /// Pool of per-run scratch (block store + executor state), returned at
    /// run end and reset on reuse so repeated runs — grid cells in the
    /// training fan-out above all — skip the per-run allocations. Shared
    /// across the engines of a fan-out via the prep `Arc`; popped scratch
    /// is fully reset, so pool order cannot influence results.
    scratch: std::sync::Mutex<Vec<RunScratch>>,
}

/// Reusable per-run mutable state, pooled on [`EnginePrep`].
struct RunScratch {
    store: BlockStore,
    state: ExecutorState,
}

impl std::fmt::Debug for RunScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunScratch").finish_non_exhaustive()
    }
}

impl EnginePrep {
    /// Precomputes the schedule-independent run state of an application.
    #[must_use]
    pub fn new(app: &Application) -> Self {
        let job_uses = job_uses(app);
        let plans: Vec<StagePlan> = (0..app.jobs().len())
            .map(|ji| StagePlan::build(app, JobId(ji as u32)))
            .collect();
        let consumers = plans
            .iter()
            .map(|plan| {
                plan.stages
                    .iter()
                    .map(|stage| {
                        plan.stages
                            .iter()
                            .flat_map(|s| {
                                s.shuffle_reads(app).map(move |w| (s.id.index() as u32, w))
                            })
                            .filter(|&(_, w)| app.dataset(w).parents.contains(&stage.output))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        EnginePrep {
            job_uses,
            plans,
            consumers,
            layout: Arc::new(BlockLayout::from_app(app)),
            scratch: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// The dense block layout of the application.
    #[must_use]
    pub fn layout(&self) -> &Arc<BlockLayout> {
        &self.layout
    }

    /// The precomputed stage plans, one per job.
    #[must_use]
    pub fn plans(&self) -> &[StagePlan] {
        &self.plans
    }
}

/// `uses[d]` — the jobs whose DAG contains dataset `d` (the ancestor
/// closure of the job's target, target included), ascending. One stamped
/// walk per job visits each member once, so the cost is the summed job
/// sizes rather than datasets × jobs.
fn job_uses(app: &Application) -> Vec<Vec<usize>> {
    let mut uses = vec![Vec::new(); app.dataset_count()];
    // `stamp[d] == ji + 1` once job `ji`'s walk has visited `d`.
    let mut stamp = vec![0usize; app.dataset_count()];
    let mut stack = Vec::new();
    for (ji, job) in app.jobs().iter().enumerate() {
        stack.push(job.target);
        while let Some(d) = stack.pop() {
            if stamp[d.index()] == ji + 1 {
                continue;
            }
            stamp[d.index()] = ji + 1;
            uses[d.index()].push(ji);
            stack.extend_from_slice(&app.dataset(d).parents);
        }
    }
    uses
}

/// The DAG-aware eviction hints of a dataset at the start of job `ji`:
/// how many of its (ascending) job uses remain, and how many jobs away the
/// next one is (`u32::MAX` when none).
pub(crate) fn job_hints(uses: &[usize], ji: usize) -> DatasetHints {
    let k = uses.partition_point(|&u| u < ji);
    DatasetHints {
        remaining_refs: (uses.len() - k) as u64,
        next_use_distance: uses.get(k).map_or(u32::MAX, |&u| (u - ji) as u32),
    }
}

/// The simulation engine. Construct once per (application, cluster,
/// parameters) and call [`Engine::run`] per schedule.
#[derive(Debug)]
pub struct Engine<'a> {
    app: &'a Application,
    cluster: ClusterConfig,
    params: SimParams,
    /// Schedule-independent precomputation, shareable across engines over
    /// the same application (grid points differ only in cluster/params).
    prep: Arc<EnginePrep>,
}

impl<'a> Engine<'a> {
    /// Creates an engine, precomputing the application's [`EnginePrep`].
    #[must_use]
    pub fn new(app: &'a Application, cluster: ClusterConfig, params: SimParams) -> Self {
        Engine::with_prep(app, cluster, params, Arc::new(EnginePrep::new(app)))
    }

    /// Creates an engine over an already-built [`EnginePrep`] (which must
    /// come from the same application). This is the fan-out constructor:
    /// per-grid-point engines share the prep instead of re-deriving it.
    #[must_use]
    pub fn with_prep(
        app: &'a Application,
        cluster: ClusterConfig,
        params: SimParams,
        prep: Arc<EnginePrep>,
    ) -> Self {
        debug_assert_eq!(
            prep.layout.dataset_count(),
            app.dataset_count(),
            "prep built from a different application"
        );
        Engine {
            app,
            cluster,
            params,
            prep,
        }
    }

    /// The application this engine runs.
    #[must_use]
    pub fn app(&self) -> &'a Application {
        self.app
    }

    /// The shared schedule-independent precomputation.
    #[must_use]
    pub fn prep(&self) -> &Arc<EnginePrep> {
        &self.prep
    }

    /// Runs the application under `schedule`, overriding whatever the
    /// developers cached (pass [`Application::default_schedule`] to
    /// reproduce the baseline behaviour).
    ///
    /// The schedule is deep-cloned once into the report; callers that
    /// already hold an [`Arc<Schedule>`] should prefer [`Engine::run_shared`],
    /// which only bumps the reference count.
    pub fn run(&self, schedule: &Schedule, options: RunOptions) -> Result<RunReport, DagError> {
        self.run_inner(schedule, None, options)
    }

    /// Like [`Engine::run`] but for a shared schedule: the report's
    /// `schedule` field is a clone of the `Arc`, not of the `Schedule`.
    pub fn run_shared(
        &self,
        schedule: &Arc<Schedule>,
        options: RunOptions,
    ) -> Result<RunReport, DagError> {
        self.run_inner(schedule, Some(schedule), options)
    }

    fn run_inner(
        &self,
        schedule: &Schedule,
        shared: Option<&Arc<Schedule>>,
        options: RunOptions,
    ) -> Result<RunReport, DagError> {
        self.app.check_schedule(schedule)?;
        // Phase profiling: one `sim` span per run, with coarse sub-phases
        // (fault boundary, stage execution). Deliberately not per-task —
        // the per-run granularity keeps armed-idle overhead inside the
        // profiler's <5% budget even on thousand-cell training grids.
        let _prof = obs::prof::scope("sim");
        let machines = self.cluster.machines.max(1);

        // Unpack the schedule: active persist set plus u(X)-before-p(Y)
        // swap pairs.
        let mut persisted = vec![false; self.app.dataset_count()];
        let mut swap: HashMap<DatasetId, DatasetId> = HashMap::new();
        let mut pending_unpersist: Option<DatasetId> = None;
        for op in schedule.ops() {
            match *op {
                ScheduleOp::Persist(d) => {
                    persisted[d.index()] = true;
                    if let Some(x) = pending_unpersist.take() {
                        swap.insert(d, x);
                    }
                }
                ScheduleOp::Unpersist(d) => pending_unpersist = Some(d),
            }
        }

        // Per-run mutable state comes from the prep's scratch pool when a
        // previous run returned one (reset to pristine before use), so
        // repeated runs — above all the training fan-out's grid cells —
        // skip the block-store and executor allocations entirely.
        let mut noise = TaskNoise::new(self.params.seed, self.params.noise);
        // Absolute cluster-dynamics jitter: drawn once per run (container
        // provisioning, JVM warm-up), dominating short sample runs.
        let startup_jitter = noise.uniform() * self.params.cluster_jitter_s;
        let pooled = self
            .prep
            .scratch
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop();
        let (mut store, mut state) = match pooled {
            Some(RunScratch {
                mut store,
                mut state,
            }) => {
                store.reset_for(&self.cluster, self.params.eviction_policy);
                state.reset(machines, self.cluster.spec.cores, noise);
                (store, state)
            }
            None => (
                BlockStore::with_policy(
                    &self.cluster,
                    Arc::clone(&self.prep.layout),
                    self.params.eviction_policy,
                ),
                ExecutorState::new(machines, self.cluster.spec.cores, noise),
            ),
        };
        // Per-dataset job-use lists for the DAG-aware eviction policies'
        // hints (only persisted datasets can ever be victims); the lists
        // themselves are precomputed in `EnginePrep`.
        let job_uses: Vec<(DatasetId, &[usize])> = (0..self.app.dataset_count() as u32)
            .map(DatasetId)
            .filter(|d| persisted[d.index()])
            .map(|d| (d, self.prep.job_uses[d.index()].as_slice()))
            .collect();
        let env = TaskEnv {
            app: self.app,
            cluster: &self.cluster,
            params: &self.params,
            persisted: &persisted,
            swap: &swap,
            sizing: Sizing::new(self.app, options.partition_skew),
            trace: options.collect_traces,
        };

        let mut now = self.params.app_startup_s + startup_jitter;
        let mut job_times = Vec::with_capacity(self.app.jobs().len());
        let mut per_job_cache = Vec::with_capacity(self.app.jobs().len());
        let mut stage_times = Vec::new();
        let mut traces = Vec::new();
        let mut recorder = TraceRecorder::new(options.trace);

        let mut chaos = ChaosState::new(&self.params.faults, self.params.retry, machines as usize);
        // Scratch buffers reused across jobs/stages.
        let mut before: Vec<(u64, u64)> = Vec::with_capacity(job_uses.len());
        let mut consumers: Vec<DatasetId> = Vec::new();
        let mut needed: Vec<bool> = Vec::new();
        let mut stage_stack: Vec<usize> = Vec::new();
        for ji in 0..self.app.jobs().len() {
            let job = JobId(ji as u32);
            let job_start = now;
            // Boundary fault events (executor loss, memory pressure) due
            // at this job start take effect now; events scheduled after
            // the last boundary are reported as "not fired" in the
            // summary instead of being silently dropped.
            {
                let _prof = obs::prof::scope("faults");
                chaos.fire_due(now, &mut store, &mut state);
            }
            // Refresh DAG-aware eviction hints: remaining references and
            // next-use distance from this job onward. Every persisted
            // dataset (the only possible victims) gets rewritten each job,
            // so stale hints cannot leak across jobs.
            for &(d, uses) in &job_uses {
                store.set_hint(d, job_hints(uses, ji));
            }
            // Per-job hit/miss snapshot of the persisted datasets, aligned
            // with `job_uses` (untouched datasets read as zero, matching
            // the old map's `unwrap_or((0, 0))`).
            before.clear();
            before.extend(job_uses.iter().map(|&(d, _)| {
                store
                    .dataset_stats(d)
                    .map_or((0, 0), |s| (s.hits, s.misses))
            }));

            let plan = &self.prep.plans[ji];
            needed_stages(
                self.app,
                plan,
                &persisted,
                &store,
                &mut needed,
                &mut stage_stack,
            );
            for (sp, stage) in plan.stages.iter().enumerate() {
                if !needed[stage.id.index()] {
                    continue;
                }
                // Wide datasets of needed downstream stages that read this
                // stage's output: the static table filtered by this run's
                // `needed` set, in the order the per-stage scan produced.
                consumers.clear();
                consumers.extend(
                    self.prep.consumers[ji][sp]
                        .iter()
                        .filter(|&&(cs, _)| needed[cs as usize])
                        .map(|&(_, w)| w),
                );
                let stage_start = now;
                let stage_prof = obs::prof::scope("stages");
                now = run_stage(
                    &env,
                    &mut store,
                    &mut state,
                    &mut chaos,
                    job,
                    stage,
                    &consumers,
                    now,
                    &mut traces,
                    &mut recorder,
                );
                drop(stage_prof);
                stage_times.push(StageTiming {
                    job,
                    stage: stage.id,
                    start: stage_start,
                    finish: now,
                    tasks: stage.num_tasks,
                });
                if recorder.enabled() {
                    recorder.stage_span(job.0, stage.id.0, stage_start, now, stage.num_tasks);
                    recorder.counter_snapshot(now, gather_counters(&store, &state, &chaos));
                }
            }
            // Serial driver work: job bookkeeping plus per-machine
            // coordination (the area-B term), with a small absolute wobble
            // from cluster dynamics.
            now += self.params.driver_per_job_s
                + self.params.driver_per_machine_s * f64::from(machines)
                + state.noise.uniform() * self.params.cluster_jitter_s * 0.02;
            job_times.push(now - job_start);
            recorder.job_span(job.0, job_start, now);

            // Per-job deltas over the persisted datasets that have stats,
            // in dataset-id order (the old map iteration was unordered;
            // consumers look entries up by id, never by position).
            let deltas: Vec<(DatasetId, u64, u64)> = job_uses
                .iter()
                .zip(&before)
                .filter_map(|(&(d, _), &(h0, m0))| {
                    store
                        .dataset_stats(d)
                        .map(|s| (d, s.hits - h0, s.misses - m0))
                })
                .collect();
            per_job_cache.push(deltas);
        }

        let final_counters = gather_counters(&store, &state, &chaos);
        // Per-run counter deltas attributed to the `sim` node — applied
        // once per run from the aggregate snapshot (never per task), and
        // zero-gated so fault-free profiles show only the counters that
        // actually moved. Every value is seed-deterministic, so profile
        // structure digests stay thread-count-invariant.
        for (value, name) in [
            (final_counters.cache_hits, "cache_hits"),
            (final_counters.cache_misses, "cache_misses"),
            (final_counters.evictions, "evictions"),
            (final_counters.spills, "spills"),
            (final_counters.task_retries, "retries"),
            (final_counters.speculative_tasks, "speculative"),
        ] {
            if value > 0 {
                obs::prof::count(name, value);
            }
        }
        let faults = chaos.finish(now);
        record_run_metrics(&final_counters, state.total_tasks, &faults);
        let trace = recorder.finish(final_counters);
        let cache = CacheStats {
            peak_storage_bytes: store.peak_storage(),
            peak_exec_bytes: store.peak_exec(),
            per_dataset: store.take_stats(),
        };
        let (spilled_tasks, total_tasks, task_attempts) =
            (state.spilled_tasks, state.total_tasks, state.task_attempts);
        // Return the run's mutable state to the pool (bounded so a pile of
        // one-shot engines cannot hoard memory).
        {
            let mut pool = self
                .prep
                .scratch
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if pool.len() < 32 {
                pool.push(RunScratch { store, state });
            }
        }
        Ok(RunReport {
            app: self.app.name().to_owned(),
            schedule: shared.map_or_else(|| Arc::new(schedule.clone()), Arc::clone),
            machines,
            total_time_s: now,
            job_times_s: job_times,
            cache,
            per_job_cache,
            stage_times,
            traces,
            trace,
            spilled_tasks,
            total_tasks,
            task_attempts,
            faults,
            contention: crate::report::ContentionSummary::default(),
        })
    }
}

/// Determines which stages of a job must actually run, given current cache
/// residency: the result stage always runs; a map stage is skipped when
/// every wide dataset consuming it is fully resident (Spark would read the
/// cached blocks and skip the parent stages entirely).
pub(crate) fn needed_stages(
    app: &Application,
    plan: &StagePlan,
    persisted: &[bool],
    store: &BlockStore,
    needed: &mut Vec<bool>,
    stack: &mut Vec<usize>,
) {
    needed.clear();
    needed.resize(plan.stages.len(), false);
    // Walk top-down from the result stage.
    stack.clear();
    stack.push(plan.stages.len() - 1);
    while let Some(si) = stack.pop() {
        if needed[si] {
            continue;
        }
        needed[si] = true;
        let stage = &plan.stages[si];
        for wide in stage.shuffle_reads(app) {
            let fully_resident = persisted[wide.index()]
                && store.resident_count(wide) == app.dataset(wide).partitions;
            if fully_resident {
                continue;
            }
            // Parent stages producing this wide dataset's inputs must run.
            for &parent_ds in &app.dataset(wide).parents {
                if let Some(ps) = plan.stages.iter().position(|s| s.output == parent_ds) {
                    stack.push(ps);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagflow::{AppBuilder, ComputeCost, NarrowKind, SourceFormat, WideKind};

    use crate::config::{MachineSpec, NoiseParams};

    /// A small iterative app: input → parsed (cacheable) → k gradient jobs.
    fn iterative_app(iterations: usize) -> Application {
        let mut b = AppBuilder::new("iter");
        let src = b.source("in", SourceFormat::DistributedFs, 8_000, 1_120_000_000, 8);
        let parsed = b.narrow(
            "parsed",
            NarrowKind::Map,
            &[src],
            8_000,
            800_000_000,
            ComputeCost::new(0.05, 1e-5, 4e-9),
        );
        for i in 0..iterations {
            let g = b.wide_with_partitions(
                format!("grad[{i}]"),
                WideKind::TreeAggregate,
                &[parsed],
                8,
                1024,
                1,
                ComputeCost::new(0.01, 0.0, 1e-9),
            );
            b.job("aggregate", g);
        }
        b.build().unwrap()
    }

    fn quiet_params() -> SimParams {
        SimParams {
            noise: NoiseParams::NONE,
            cluster_jitter_s: 0.0,
            seed: 1,
            ..SimParams::default()
        }
    }

    #[test]
    fn caching_speeds_up_iterative_runs() {
        let app = iterative_app(10);
        let cluster = ClusterConfig::new(2, MachineSpec::paper_example());
        let engine = Engine::new(&app, cluster, quiet_params());
        let cold = engine
            .run(&Schedule::empty(), RunOptions::default())
            .unwrap();
        let hot = engine
            .run(
                &Schedule::persist_all([DatasetId(1)]),
                RunOptions::default(),
            )
            .unwrap();
        assert!(
            hot.total_time_s < cold.total_time_s * 0.6,
            "cached {} vs uncached {}",
            hot.total_time_s,
            cold.total_time_s
        );
        // Cache stats: 8 partitions resident, later jobs all hits.
        let stats = hot.cache.per_dataset.get(&DatasetId(1)).unwrap();
        assert_eq!(stats.resident_partitions, 8);
        assert!(stats.hits > 0);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn job_times_sum_to_total() {
        let app = iterative_app(5);
        let cluster = ClusterConfig::new(2, MachineSpec::paper_example());
        let engine = Engine::new(&app, cluster, quiet_params());
        let r = engine
            .run(&Schedule::empty(), RunOptions::default())
            .unwrap();
        let sum: f64 = r.job_times_s.iter().sum();
        assert!((r.total_time_s - (sum + quiet_params().app_startup_s)).abs() < 1e-9);
        assert_eq!(r.job_times_s.len(), 5);
    }

    #[test]
    fn runs_are_deterministic() {
        let app = iterative_app(4);
        let cluster = ClusterConfig::new(3, MachineSpec::paper_example());
        let params = SimParams {
            seed: 99,
            ..SimParams::default()
        };
        let engine = Engine::new(&app, cluster, params);
        let s = Schedule::persist_all([DatasetId(1)]);
        let a = engine.run(&s, RunOptions::default()).unwrap();
        let b = engine.run(&s, RunOptions::default()).unwrap();
        assert_eq!(a.total_time_s, b.total_time_s);
        assert_eq!(a.job_times_s, b.job_times_s);
    }

    #[test]
    fn memory_limited_cluster_evicts_and_recomputes() {
        // Dataset (800 MB) exceeds one tiny machine's cache: partial
        // residency, recomputation misses every iteration — area A.
        let app = iterative_app(6);
        let spec = MachineSpec {
            ram_bytes: 1_000_000_000, // M = 420 MB, holds 4/8 blocks
            ..MachineSpec::paper_example()
        };
        let cluster = ClusterConfig::new(1, spec);
        let params = SimParams {
            exec_mem_per_task_factor: 0.0,
            noise: NoiseParams::NONE,
            ..SimParams::default()
        };
        let engine = Engine::new(&app, cluster, params.clone());
        let r = engine
            .run(
                &Schedule::persist_all([DatasetId(1)]),
                RunOptions::default(),
            )
            .unwrap();
        let stats = r.cache.per_dataset.get(&DatasetId(1)).unwrap();
        assert_eq!(stats.resident_partitions, 4, "capacity/size fraction stays");
        assert!(stats.insert_failures > 0);
        assert_eq!(stats.evictions, 0, "no self-eviction thrash");
        // Per-job cache deltas show steady-state misses in later jobs.
        let last = r.per_job_cache.last().unwrap();
        let (_, hits, misses) = last.iter().find(|(d, _, _)| *d == DatasetId(1)).unwrap();
        assert_eq!(*hits, 4);
        assert_eq!(*misses, 4);
        // More machines: everything fits, misses vanish after job 1.
        let big = Engine::new(&app, ClusterConfig::new(2, spec), params);
        let r2 = big
            .run(
                &Schedule::persist_all([DatasetId(1)]),
                RunOptions::default(),
            )
            .unwrap();
        let last2 = r2.per_job_cache.last().unwrap();
        let (_, hits2, misses2) = last2.iter().find(|(d, _, _)| *d == DatasetId(1)).unwrap();
        assert_eq!(*hits2, 8);
        assert_eq!(*misses2, 0);
        assert!(r2.total_time_s < r.total_time_s);
    }

    #[test]
    fn traces_only_when_requested() {
        let app = iterative_app(2);
        let cluster = ClusterConfig::new(1, MachineSpec::paper_example());
        let engine = Engine::new(&app, cluster, quiet_params());
        let quiet = engine
            .run(&Schedule::empty(), RunOptions::default())
            .unwrap();
        assert!(quiet.traces.is_empty());
        let traced = engine
            .run(
                &Schedule::empty(),
                RunOptions {
                    collect_traces: true,
                    ..RunOptions::default()
                },
            )
            .unwrap();
        assert_eq!(traced.traces.len() as u64, traced.total_tasks);
    }

    #[test]
    fn structured_trace_records_spans_and_counters() {
        let app = iterative_app(3);
        let cluster = ClusterConfig::new(2, MachineSpec::paper_example());
        let engine = Engine::new(&app, cluster, quiet_params());
        // Disabled by default: no trace, no allocation.
        let plain = engine
            .run(&Schedule::empty(), RunOptions::default())
            .unwrap();
        assert!(plain.trace.is_none());

        let opts = RunOptions {
            trace: crate::trace::TraceConfig::enabled(),
            ..RunOptions::default()
        };
        let traced = engine
            .run(&Schedule::persist_all([DatasetId(1)]), opts)
            .unwrap();
        let trace = traced.trace.as_ref().expect("trace present");
        let (jobs, stages, waves, tasks, snaps) = trace.event_counts();
        assert_eq!(jobs, traced.job_times_s.len());
        assert_eq!(stages, traced.stage_times.len());
        assert_eq!(tasks as u64, traced.total_tasks);
        assert!(waves >= stages, "≥1 wave per stage");
        // One counter snapshot per stage.
        assert_eq!(snaps, traced.stage_times.len());
        // Final counters match the report's aggregate cache stats.
        let hits: u64 = traced.cache.per_dataset.values().map(|s| s.hits).sum();
        assert_eq!(trace.counters.cache_hits, hits);
        assert_eq!(trace.counters.spills, traced.spilled_tasks);
        assert_eq!(trace.task_durations.count, traced.total_tasks);
        assert_eq!(trace.dropped_events, 0);
        // Identical runs produce identical traces (seeded determinism).
        let again = engine
            .run(&Schedule::persist_all([DatasetId(1)]), opts)
            .unwrap();
        assert_eq!(traced.trace, again.trace);
    }

    #[test]
    fn stage_times_tile_the_run() {
        let app = iterative_app(4);
        let cluster = ClusterConfig::new(2, MachineSpec::paper_example());
        let engine = Engine::new(&app, cluster, quiet_params());
        let r = engine
            .run(&Schedule::empty(), RunOptions::default())
            .unwrap();
        assert!(!r.stage_times.is_empty());
        let startup = quiet_params().app_startup_s;
        for st in &r.stage_times {
            assert!(st.start >= startup - 1e-9);
            assert!(st.finish <= r.total_time_s + 1e-9);
            assert!(st.duration() >= 0.0);
            assert!(st.tasks >= 1);
        }
        // Stages are reported in execution order.
        for w in r.stage_times.windows(2) {
            assert!(w[1].start >= w[0].start - 1e-9);
        }
        // Per job, stage durations fit inside the job time.
        for ji in 0..r.job_times_s.len() {
            let stage_total: f64 = r
                .stage_times
                .iter()
                .filter(|st| st.job.index() == ji)
                .map(StageTiming::duration)
                .sum();
            assert!(
                stage_total <= r.job_times_s[ji] + 1e-9,
                "job {ji}: stages {stage_total} vs job {}",
                r.job_times_s[ji]
            );
        }
    }

    #[test]
    fn cached_runs_skip_stages_in_stage_times() {
        let app = iterative_app(5);
        let cluster = ClusterConfig::new(2, MachineSpec::paper_example());
        let engine = Engine::new(&app, cluster, quiet_params());
        let cold = engine
            .run(&Schedule::empty(), RunOptions::default())
            .unwrap();
        let hot = engine
            .run(
                &Schedule::persist_all([DatasetId(1)]),
                RunOptions::default(),
            )
            .unwrap();
        // Same stage count here (caching shortens tasks, not stages), but
        // the cached map stages are far quicker after job 0.
        assert_eq!(cold.stage_times.len(), hot.stage_times.len());
        let last_cold = cold.stage_times.last().unwrap();
        let last_hot = hot.stage_times.last().unwrap();
        assert!(last_hot.finish < last_cold.finish);
    }

    #[test]
    fn rejects_foreign_schedule() {
        let app = iterative_app(1);
        let cluster = ClusterConfig::new(1, MachineSpec::paper_example());
        let engine = Engine::new(&app, cluster, quiet_params());
        let bad = Schedule::persist_all([DatasetId(999)]);
        assert!(engine.run(&bad, RunOptions::default()).is_err());
    }

    #[test]
    fn unpersist_swap_bounds_peak_storage() {
        // x (400 MB) → y (400 MB); schedule p(x) p(y) vs p(x) u(x) p(y).
        let mut b = AppBuilder::new("swap");
        let src = b.source("in", SourceFormat::DistributedFs, 100, 400_000_000, 4);
        let x = b.narrow(
            "x",
            NarrowKind::Map,
            &[src],
            100,
            400_000_000,
            ComputeCost::new(0.01, 0.0, 1e-9),
        );
        let y = b.narrow(
            "y",
            NarrowKind::Map,
            &[x],
            100,
            400_000_000,
            ComputeCost::new(0.01, 0.0, 1e-9),
        );
        // Two jobs over x (so caching x pays), then jobs over y only.
        let vx = b.narrow("vx", NarrowKind::Map, &[x], 1, 8, ComputeCost::FREE);
        b.job("count", vx);
        let vx2 = b.narrow("vx2", NarrowKind::Map, &[x], 1, 8, ComputeCost::FREE);
        b.job("count", vx2);
        for i in 0..3 {
            let v = b.narrow(
                format!("vy{i}"),
                NarrowKind::Map,
                &[y],
                1,
                8,
                ComputeCost::FREE,
            );
            b.job("count", v);
        }
        let app = b.build().unwrap();
        let cluster = ClusterConfig::new(1, MachineSpec::paper_example());
        let engine = Engine::new(&app, cluster, quiet_params());

        let both = Schedule::from_ops(vec![ScheduleOp::Persist(x), ScheduleOp::Persist(y)]);
        let swap = Schedule::from_ops(vec![
            ScheduleOp::Persist(x),
            ScheduleOp::Unpersist(x),
            ScheduleOp::Persist(y),
        ]);
        let r_both = engine.run(&both, RunOptions::default()).unwrap();
        let r_swap = engine.run(&swap, RunOptions::default()).unwrap();
        assert!(r_both.cache.peak_storage_bytes >= 790_000_000);
        assert!(
            r_swap.cache.peak_storage_bytes < 550_000_000,
            "swap peak {} should be ~max(|x|,|y|) + one block",
            r_swap.cache.peak_storage_bytes
        );
        // After the run, x is gone, y resident.
        assert_eq!(
            r_swap
                .cache
                .per_dataset
                .get(&x)
                .unwrap()
                .resident_partitions,
            0
        );
        assert_eq!(
            r_swap
                .cache
                .per_dataset
                .get(&y)
                .unwrap()
                .resident_partitions,
            4
        );
    }

    #[test]
    fn fully_cached_wide_dataset_skips_map_stages() {
        // input → parsed → wideagg (cached); iterative jobs over a narrow
        // child of wideagg. Once wideagg is resident, the expensive map
        // stage must be skipped.
        let mut b = AppBuilder::new("skip");
        let src = b.source("in", SourceFormat::DistributedFs, 8_000, 1_120_000_000, 8);
        let parsed = b.narrow(
            "parsed",
            NarrowKind::Map,
            &[src],
            8_000,
            800_000_000,
            ComputeCost::new(0.05, 1e-5, 4e-9),
        );
        let agg = b.wide(
            "agg",
            WideKind::ReduceByKey,
            &[parsed],
            4_000,
            200_000_000,
            ComputeCost::new(0.01, 0.0, 1e-9),
        );
        for i in 0..4 {
            let v = b.narrow(
                format!("v{i}"),
                NarrowKind::Map,
                &[agg],
                1,
                8,
                ComputeCost::FREE,
            );
            b.job("count", v);
        }
        let app = b.build().unwrap();
        let cluster = ClusterConfig::new(2, MachineSpec::paper_example());
        let engine = Engine::new(&app, cluster, quiet_params());
        let cold = engine
            .run(&Schedule::empty(), RunOptions::default())
            .unwrap();
        let hot = engine
            .run(&Schedule::persist_all([agg]), RunOptions::default())
            .unwrap();
        let startup = quiet_params().app_startup_s;
        assert!(
            hot.total_time_s - startup < (cold.total_time_s - startup) * 0.5,
            "hot {} vs cold {}",
            hot.total_time_s,
            cold.total_time_s
        );
        // Task counts: cold runs map+reduce stages each job; hot runs the
        // map stage only in job 0.
        assert!(hot.total_tasks < cold.total_tasks);
    }

    /// Shared ancestors and a diamond, a dataset in no job, two jobs with
    /// one target, and a job whose target is a source.
    fn job_use_fixture() -> Application {
        let mut b = AppBuilder::new("uses");
        let src = b.source("in", SourceFormat::DistributedFs, 100, 1_000_000, 4);
        let side = b.source("side", SourceFormat::DistributedFs, 100, 1_000_000, 4);
        let a = b.narrow(
            "a",
            NarrowKind::Map,
            &[src],
            100,
            1_000_000,
            ComputeCost::FREE,
        );
        let left = b.narrow(
            "l",
            NarrowKind::Map,
            &[a],
            100,
            1_000_000,
            ComputeCost::FREE,
        );
        let right = b.narrow(
            "r",
            NarrowKind::Filter,
            &[a],
            100,
            1_000_000,
            ComputeCost::FREE,
        );
        let zip = b.narrow(
            "zip",
            NarrowKind::Zip,
            &[left, right],
            100,
            1_000_000,
            ComputeCost::FREE,
        );
        b.narrow(
            "orphan",
            NarrowKind::Map,
            &[src],
            100,
            1_000_000,
            ComputeCost::FREE,
        );
        let agg = b.wide(
            "agg",
            WideKind::ReduceByKey,
            &[zip, side],
            10,
            10_000,
            ComputeCost::FREE,
        );
        b.job("left", left);
        b.job("zip", zip);
        b.job("zip again", zip);
        b.job("side", side);
        b.job("agg", agg);
        b.build().unwrap()
    }

    #[test]
    fn job_uses_match_the_lineage_membership() {
        for app in [job_use_fixture(), iterative_app(4)] {
            let la = dagflow::LineageAnalysis::new(&app);
            let want: Vec<Vec<usize>> = (0..app.dataset_count() as u32)
                .map(|d| {
                    (0..app.jobs().len())
                        .filter(|&j| la.in_job(DatasetId(d), JobId(j as u32)))
                        .collect()
                })
                .collect();
            assert_eq!(job_uses(&app), want, "{}", app.name());
        }
        // Spot checks on the fixture: the orphan is in no job, the shared
        // ancestor in every job but the source-target one.
        let uses = job_uses(&job_use_fixture());
        assert_eq!(uses[6], Vec::<usize>::new(), "orphan");
        assert_eq!(uses[2], vec![0, 1, 2, 4], "shared ancestor `a`");
        assert_eq!(uses[1], vec![3, 4], "source target `side`");
    }

    #[test]
    fn job_hints_match_the_linear_scans() {
        for uses in [vec![], vec![0], vec![2], vec![0, 1, 2, 4], vec![1, 3, 7]] {
            for ji in 0..9 {
                let remaining = uses.iter().filter(|&&u| u >= ji).count() as u64;
                let next = uses
                    .iter()
                    .find(|&&u| u >= ji)
                    .map_or(u32::MAX, |&u| (u - ji) as u32);
                let h = job_hints(&uses, ji);
                assert_eq!(
                    (h.remaining_refs, h.next_use_distance),
                    (remaining, next),
                    "uses {uses:?} at job {ji}"
                );
            }
        }
    }
}
