//! Multi-tenant concurrent simulation: N applications share one cluster
//! under FAIR-style slot sharing and a unified cache pool.
//!
//! The paper's engine assumes each application owns the cluster; Yang et
//! al. (intermediate-data caching for parallel frameworks) show that
//! co-running jobs contending for unified memory change which datasets
//! are worth caching. This module models exactly that regime while
//! changing *nothing* about the single-app hot path:
//!
//! - **FAIR slot sharing.** Each tenant runs its jobs against a private
//!   [`ExecutorState`] whose core grid is resized at job boundaries to
//!   `max(1, ⌊cores × w_t / Σ w⌋)` over the tenants present (arrived,
//!   unfinished, weight > 0). The per-task execution-memory grant divides
//!   by the share, so a squeezed tenant runs fewer, hungrier tasks — the
//!   FAIR scheduler's "fewer slots" expressed through the existing
//!   [`crate::executor::run_stage`] math, untouched.
//! - **Shared cache pool.** One [`BlockStore`] spans every tenant's
//!   datasets via a concatenated [`crate::memory::BlockLayout`]; tenant-
//!   local dataset ids are shifted into the combined space inside the
//!   store, so engine and task code run unmodified. One tenant's inserts
//!   evict another's LRU blocks, and the store attributes each
//!   cross-tenant eviction to both sides.
//! - **Interleaving.** Tenants advance job-at-a-time in global-clock
//!   order (min cursor, ties to the lower index) — strictly sequential,
//!   so every result is bit-identical across `JUGGLER_THREADS` settings.
//!   All *reported* times stay on each tenant's own clock (seconds since
//!   its arrival), which keeps a lone active tenant byte-identical to a
//!   plain [`Engine::run`] of the same configuration.
//!
//! Per-tenant fault plans ([`crate::fault::FaultPlan`] in each tenant's
//! [`SimParams`]) fire on the tenant's own timeline, so every tenancy
//! scenario composes with chaos coverage for free.

use std::collections::HashMap;
use std::sync::Arc;

use dagflow::{Application, DagError, DatasetId, JobId, Schedule, ScheduleOp};

use crate::config::{ClusterConfig, SimParams};
use crate::engine::{job_hints, needed_stages, record_run_metrics, RunOptions};
use crate::engine::{Engine, EnginePrep};
use crate::executor::{run_stage, ExecutorState};
use crate::fault::ChaosState;
use crate::memory::{BlockLayout, BlockStore};
use crate::report::{CacheStats, ContentionSummary, RunReport, StageTiming};
use crate::rng::TaskNoise;
use crate::task::{Sizing, TaskEnv};
use crate::trace::{TraceCounters, TraceRecorder};

/// One application in a [`TenantSet`]: what to run, when it arrives, and
/// its FAIR scheduling weight.
#[derive(Debug, Clone)]
pub struct Tenant<'a> {
    /// The tenant's application.
    pub app: &'a Application,
    /// Persistence schedule the engine enforces for this tenant.
    pub schedule: Arc<Schedule>,
    /// Simulation parameters (seed, noise, faults, …) of this tenant's
    /// run. The shared pool's eviction policy comes from tenant 0.
    pub params: SimParams,
    /// Seconds after cluster start this tenant arrives. Reported times
    /// stay on the tenant's own clock; the offset orders tenants on the
    /// global clock.
    pub arrival_offset_s: f64,
    /// FAIR scheduling weight. A weight `≤ 0` marks the tenant
    /// *inactive*: admitted to the set but scheduled no slots — it runs
    /// nothing and must be invisible in the other tenants' results.
    pub weight: f64,
}

impl<'a> Tenant<'a> {
    /// A weight-1, offset-0 tenant — the common case.
    #[must_use]
    pub fn new(app: &'a Application, schedule: Arc<Schedule>, params: SimParams) -> Self {
        Tenant {
            app,
            schedule,
            params,
            arrival_offset_s: 0.0,
            weight: 1.0,
        }
    }

    fn active(&self) -> bool {
        self.weight > 0.0
    }
}

/// A set of applications sharing one cluster.
#[derive(Debug, Clone)]
pub struct TenantSet<'a> {
    /// The shared cluster every tenant runs on.
    pub cluster: ClusterConfig,
    /// The tenants, in admission order (index = tenant id).
    pub tenants: Vec<Tenant<'a>>,
}

/// Result of a [`TenantSet::run`]: one [`RunReport`] per tenant (same
/// order as the set) plus the global makespan.
#[derive(Debug, Clone)]
pub struct TenancyReport {
    /// Per-tenant reports. Times inside each report are seconds since
    /// that tenant's arrival; inactive tenants get an empty placeholder.
    pub reports: Vec<RunReport>,
    /// Global wall clock when the last tenant finished: the maximum of
    /// `arrival_offset_s + total_time_s` over active tenants.
    pub makespan_s: f64,
}

impl TenancyReport {
    /// Every cross-tenant eviction suffered by someone was inflicted by
    /// someone else: `Σ suffered == Σ inflicted`. A violation means the
    /// store's attribution lost an event.
    #[must_use]
    pub fn cross_evictions_balance(&self) -> bool {
        let suffered: u64 = self
            .reports
            .iter()
            .map(|r| r.contention.cross_evictions_suffered)
            .sum();
        let inflicted: u64 = self
            .reports
            .iter()
            .map(|r| r.contention.cross_evictions_inflicted)
            .sum();
        suffered == inflicted
    }
}

/// Per-tenant mutable run state, mirroring what [`Engine::run`] keeps on
/// its stack for a single application.
struct TenantRun {
    prep: Arc<EnginePrep>,
    persisted: Vec<bool>,
    swap: HashMap<DatasetId, DatasetId>,
    /// Persisted datasets and their job-use lists, for the eviction
    /// hints (local ids; the store shifts them).
    uses: Vec<(DatasetId, Vec<usize>)>,
    sizing: Sizing,
    state: ExecutorState,
    chaos: ChaosState,
    /// Tenant-local clock: seconds since this tenant's arrival.
    now: f64,
    next_job: usize,
    cur_cores: u32,
    job_times: Vec<f64>,
    per_job_cache: Vec<Vec<(DatasetId, u64, u64)>>,
    stage_times: Vec<StageTiming>,
    traces: Vec<crate::report::TaskTrace>,
    recorder: TraceRecorder,
    report: Option<RunReport>,
}

impl<'a> TenantSet<'a> {
    /// Runs every tenant to completion on the shared cluster.
    ///
    /// A single-*active*-tenant set delegates to the plain [`Engine`] —
    /// it *is* the single-app path (a lone weightless tenant instead
    /// yields its placeholder). Larger sets run the interleaved scheduler;
    /// when only one tenant is active (the rest weight `≤ 0`), the
    /// active tenant's report — including its digest — is byte-identical
    /// to the plain engine's.
    ///
    /// # Errors
    /// Fails when the set is empty or any tenant's schedule references
    /// datasets outside its application.
    pub fn run(&self, options: RunOptions) -> Result<TenancyReport, DagError> {
        let Some(first) = self.tenants.first() else {
            return Err(DagError::NoJobs);
        };
        for t in &self.tenants {
            t.app.check_schedule(&t.schedule)?;
        }
        if self.tenants.len() == 1 && first.active() {
            let engine = Engine::new(first.app, self.cluster, first.params.clone());
            let report = engine.run_shared(&first.schedule, options)?;
            let makespan_s = first.arrival_offset_s + report.total_time_s;
            return Ok(TenancyReport {
                reports: vec![report],
                makespan_s,
            });
        }
        self.run_interleaved(options)
    }

    fn run_interleaved(&self, options: RunOptions) -> Result<TenancyReport, DagError> {
        let _prof = obs::prof::scope("sim");
        let n = self.tenants.len();
        let machines = self.cluster.machines.max(1);
        let full_cores = self.cluster.spec.cores;

        // Concatenated block layout: tenant t owns global dataset ids
        // `base[t]..base[t + 1]`. The pool's eviction policy is tenant
        // 0's — one shared store has one policy.
        let mut parts: Vec<u32> = Vec::new();
        let mut base: Vec<u32> = Vec::with_capacity(n + 1);
        base.push(0);
        for t in &self.tenants {
            parts.extend(t.app.datasets().iter().map(|d| d.partitions));
            base.push(base.last().unwrap() + t.app.dataset_count() as u32);
        }
        let layout = Arc::new(BlockLayout::from_partitions(parts));
        let mut store = BlockStore::with_policy(
            &self.cluster,
            layout,
            self.tenants[0].params.eviction_policy,
        );
        store.enable_tenancy(base);

        let mut runs: Vec<TenantRun> = Vec::with_capacity(n);
        for t in &self.tenants {
            let mut persisted = vec![false; t.app.dataset_count()];
            let mut swap: HashMap<DatasetId, DatasetId> = HashMap::new();
            let mut pending_unpersist: Option<DatasetId> = None;
            for op in t.schedule.ops() {
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
            let prep = Arc::new(EnginePrep::new(t.app));
            let uses: Vec<(DatasetId, Vec<usize>)> = (0..t.app.dataset_count() as u32)
                .map(DatasetId)
                .filter(|d| persisted[d.index()])
                .map(|d| (d, prep.job_uses[d.index()].clone()))
                .collect();
            let mut noise = TaskNoise::new(t.params.seed, t.params.noise);
            let startup_jitter = noise.uniform() * t.params.cluster_jitter_s;
            let state = ExecutorState::new(machines, full_cores, noise);
            let chaos = ChaosState::new(&t.params.faults, t.params.retry, machines as usize);
            runs.push(TenantRun {
                prep,
                persisted,
                swap,
                uses,
                sizing: Sizing::new(t.app, options.partition_skew),
                state,
                chaos,
                now: t.params.app_startup_s + startup_jitter,
                next_job: 0,
                cur_cores: full_cores,
                job_times: Vec::with_capacity(t.app.jobs().len()),
                per_job_cache: Vec::with_capacity(t.app.jobs().len()),
                stage_times: Vec::new(),
                traces: Vec::new(),
                recorder: TraceRecorder::new(options.trace),
                report: None,
            });
        }

        let active = |t: &Tenant<'a>| t.active();
        let active_count = self.tenants.iter().filter(|t| active(t)).count();
        // Inactive tenants finish immediately with a placeholder report.
        for (ti, t) in self.tenants.iter().enumerate() {
            if !active(t) {
                runs[ti].report = Some(placeholder_report(t, ti, n, machines));
            }
        }

        // Scratch shared across tenants (the loop is strictly serial).
        let mut before: Vec<(u64, u64)> = Vec::new();
        let mut consumers: Vec<DatasetId> = Vec::new();
        let mut needed: Vec<bool> = Vec::new();
        let mut stage_stack: Vec<usize> = Vec::new();
        let mut makespan_s: f64 = 0.0;

        loop {
            // Next tenant on the global clock: unfinished, active, min
            // `arrival + local now`; ties go to the lower index.
            let mut chosen: Option<(usize, f64)> = None;
            for (ti, t) in self.tenants.iter().enumerate() {
                if runs[ti].report.is_some() || !active(t) {
                    continue;
                }
                let cursor = t.arrival_offset_s + runs[ti].now;
                if chosen.is_none_or(|(_, c)| cursor < c) {
                    chosen = Some((ti, cursor));
                }
            }
            let Some((ti, global_now)) = chosen else {
                break;
            };
            let tenant = &self.tenants[ti];

            // FAIR share at this instant: tenants that have arrived by
            // the chosen cursor, are active, and are unfinished.
            let present: f64 = self
                .tenants
                .iter()
                .enumerate()
                .filter(|&(i, t)| {
                    active(t) && runs[i].report.is_none() && t.arrival_offset_s <= global_now
                })
                .map(|(_, t)| t.weight)
                .sum();
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let share = ((f64::from(full_cores) * tenant.weight / present).floor() as u32).max(1);
            let tr = &mut runs[ti];
            if share != tr.cur_cores {
                tr.state.resize_cores(machines, share);
                tr.cur_cores = share;
            }
            let tcluster = ClusterConfig::new(
                machines,
                crate::config::MachineSpec {
                    cores: share,
                    ..self.cluster.spec
                },
            );

            store.set_active_tenant(ti);
            store.set_sim_now(global_now);

            // ---- One job, mirroring `Engine::run` body exactly. ----
            let ji = tr.next_job;
            let job = JobId(ji as u32);
            let job_start = tr.now;
            {
                let _prof = obs::prof::scope("faults");
                tr.chaos.fire_due(tr.now, &mut store, &mut tr.state);
            }
            for (d, uses) in &tr.uses {
                store.set_hint(*d, job_hints(uses, ji));
            }
            before.clear();
            before.extend(tr.uses.iter().map(|(d, _)| {
                store
                    .dataset_stats(*d)
                    .map_or((0, 0), |s| (s.hits, s.misses))
            }));

            let prep = Arc::clone(&tr.prep);
            let plan = &prep.plans[ji];
            needed_stages(
                tenant.app,
                plan,
                &tr.persisted,
                &store,
                &mut needed,
                &mut stage_stack,
            );
            let env = TaskEnv {
                app: tenant.app,
                cluster: &tcluster,
                params: &tenant.params,
                persisted: &tr.persisted,
                swap: &tr.swap,
                sizing: tr.sizing.clone(),
                trace: options.collect_traces,
            };
            for (sp, stage) in plan.stages.iter().enumerate() {
                if !needed[stage.id.index()] {
                    continue;
                }
                consumers.clear();
                consumers.extend(
                    prep.consumers[ji][sp]
                        .iter()
                        .filter(|&&(cs, _)| needed[cs as usize])
                        .map(|&(_, w)| w),
                );
                let stage_start = tr.now;
                store.set_sim_now(tenant.arrival_offset_s + stage_start);
                let stage_prof = obs::prof::scope("stages");
                tr.now = run_stage(
                    &env,
                    &mut store,
                    &mut tr.state,
                    &mut tr.chaos,
                    job,
                    stage,
                    &consumers,
                    tr.now,
                    &mut tr.traces,
                    &mut tr.recorder,
                );
                drop(stage_prof);
                tr.stage_times.push(StageTiming {
                    job,
                    stage: stage.id,
                    start: stage_start,
                    finish: tr.now,
                    tasks: stage.num_tasks,
                });
                if tr.recorder.enabled() {
                    tr.recorder
                        .stage_span(job.0, stage.id.0, stage_start, tr.now, stage.num_tasks);
                    tr.recorder.counter_snapshot(
                        tr.now,
                        tenant_counters(&store, ti, &tr.state, &tr.chaos),
                    );
                }
            }
            tr.now += tenant.params.driver_per_job_s
                + tenant.params.driver_per_machine_s * f64::from(machines)
                + tr.state.noise.uniform() * tenant.params.cluster_jitter_s * 0.02;
            tr.job_times.push(tr.now - job_start);
            tr.recorder.job_span(job.0, job_start, tr.now);
            let deltas: Vec<(DatasetId, u64, u64)> = tr
                .uses
                .iter()
                .zip(&before)
                .filter_map(|((d, _), &(h0, m0))| {
                    store
                        .dataset_stats(*d)
                        .map(|s| (*d, s.hits - h0, s.misses - m0))
                })
                .collect();
            tr.per_job_cache.push(deltas);
            tr.next_job += 1;

            // ---- Tenant finished: finalize its report *now*, so later
            // tenants' activity cannot leak into its statistics. ----
            if tr.next_job == tenant.app.jobs().len() {
                store.set_sim_now(tenant.arrival_offset_s + tr.now);
                let report = finalize_tenant(tenant, ti, active_count, machines, tr, &store);
                makespan_s = makespan_s.max(tenant.arrival_offset_s + report.total_time_s);
                runs[ti].report = Some(report);
                // The tenant's executors exit with it: its cached blocks
                // leave the shared pool. A drop, not an eviction — the
                // report snapshot above already captured its statistics,
                // and departed tenants can no longer *suffer* evictions,
                // which keeps `Σ suffered == Σ inflicted` exact.
                for d in 0..tenant.app.dataset_count() as u32 {
                    store.drop_dataset(DatasetId(d));
                }
            }
        }

        record_tenancy_metrics(&runs);
        Ok(TenancyReport {
            reports: runs
                .into_iter()
                .map(|r| r.report.expect("all ran"))
                .collect(),
            makespan_s,
        })
    }
}

/// Assembles a finished tenant's [`RunReport`] from the shared store and
/// the tenant's private state — the tail of [`Engine::run`], with
/// per-tenant statistics cloned out of the pool instead of drained.
fn finalize_tenant(
    tenant: &Tenant<'_>,
    ti: usize,
    active_count: usize,
    machines: u32,
    tr: &mut TenantRun,
    store: &BlockStore,
) -> RunReport {
    let final_counters = tenant_counters(store, ti, &tr.state, &tr.chaos);
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
    let machines_usize = machines as usize;
    let chaos = std::mem::replace(
        &mut tr.chaos,
        ChaosState::new(
            &crate::fault::FaultPlan::default(),
            tenant.params.retry,
            machines_usize,
        ),
    );
    let faults = chaos.finish(tr.now);
    record_run_metrics(&final_counters, tr.state.total_tasks, &faults);
    let recorder = std::mem::replace(
        &mut tr.recorder,
        TraceRecorder::new(crate::trace::TraceConfig::default()),
    );
    let trace = recorder.finish(final_counters);
    let per_dataset = store.tenant_stats(ti);
    let cache = CacheStats {
        peak_storage_bytes: store.peak_storage(),
        peak_exec_bytes: store.peak_exec(),
        per_dataset,
    };
    // A lone active tenant saw no contention-capable co-tenant: its
    // summary stays quiet, so its digest matches the plain engine's.
    let contention = if active_count >= 2 {
        let (suffered, inflicted, half_life) = store.tenant_contention(ti);
        ContentionSummary {
            tenant: ti as u32,
            tenants: active_count as u32,
            weight: tenant.weight,
            arrival_offset_s: tenant.arrival_offset_s,
            slot_wait_s: tr.state.slot_wait_s,
            cross_evictions_suffered: suffered,
            cross_evictions_inflicted: inflicted,
            residency_half_life_s: half_life,
        }
    } else {
        ContentionSummary::default()
    };
    RunReport {
        app: tenant.app.name().to_owned(),
        schedule: Arc::clone(&tenant.schedule),
        machines,
        total_time_s: tr.now,
        job_times_s: std::mem::take(&mut tr.job_times),
        cache,
        per_job_cache: std::mem::take(&mut tr.per_job_cache),
        stage_times: std::mem::take(&mut tr.stage_times),
        traces: std::mem::take(&mut tr.traces),
        trace,
        spilled_tasks: tr.state.spilled_tasks,
        total_tasks: tr.state.total_tasks,
        task_attempts: tr.state.task_attempts,
        faults,
        contention,
    }
}

/// Run-wide counters scoped to one tenant's datasets — the per-tenant
/// analogue of the engine's `gather_counters`, which sums the whole
/// (here: shared) store.
fn tenant_counters(
    store: &BlockStore,
    tenant: usize,
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
    for s in store.tenant_stats(tenant).values() {
        c.cache_hits += s.hits;
        c.cache_misses += s.misses;
        c.evictions += s.evictions;
        c.insert_failures += s.insert_failures;
        c.unpersisted += s.unpersisted;
    }
    c
}

/// The empty report of an inactive (weight `≤ 0`) tenant: admitted,
/// scheduled nothing, ran nothing. Its contention summary self-describes
/// the admission (index, set size, zero weight) without ever touching
/// the pool.
fn placeholder_report(tenant: &Tenant<'_>, ti: usize, tenants: usize, machines: u32) -> RunReport {
    RunReport {
        app: tenant.app.name().to_owned(),
        schedule: Arc::clone(&tenant.schedule),
        machines,
        total_time_s: 0.0,
        job_times_s: Vec::new(),
        cache: CacheStats::default(),
        per_job_cache: Vec::new(),
        stage_times: Vec::new(),
        traces: Vec::new(),
        trace: None,
        spilled_tasks: 0,
        total_tasks: 0,
        task_attempts: 0,
        faults: crate::fault::FaultSummary::default(),
        contention: ContentionSummary {
            tenant: ti as u32,
            tenants: tenants as u32,
            weight: 0.0,
            arrival_offset_s: tenant.arrival_offset_s,
            ..ContentionSummary::default()
        },
    }
}

/// Zero-gated tenancy counters for the current `obs::Scope`'s registry.
fn record_tenancy_metrics(runs: &[TenantRun]) {
    let reg = obs::registry();
    if !reg.enabled() {
        return;
    }
    reg.counter(
        "sim_tenancy_runs_total",
        "multi-tenant simulations completed",
    )
    .inc();
    let cross: u64 = runs
        .iter()
        .filter_map(|r| r.report.as_ref())
        .map(|r| r.contention.cross_evictions_inflicted)
        .sum();
    if cross > 0 {
        reg.counter(
            "sim_cross_tenant_evictions_total",
            "cached blocks evicted by another tenant's memory pressure",
        )
        .add(cross);
    }
    let waits: f64 = runs
        .iter()
        .filter_map(|r| r.report.as_ref())
        .map(|r| r.contention.slot_wait_s)
        .sum();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let wait_ms = (waits * 1e3) as u64;
    if wait_ms > 0 {
        reg.counter(
            "sim_slot_wait_ms_total",
            "milliseconds task attempts queued for FAIR slots",
        )
        .add(wait_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagflow::{AppBuilder, ComputeCost, NarrowKind, SourceFormat, WideKind};

    use crate::config::{MachineSpec, NoiseParams};

    /// Iterative app (input → cached parse → k aggregate jobs), the same
    /// shape the engine's own tests use.
    fn iterative_app(name: &str, iterations: usize) -> Application {
        let mut b = AppBuilder::new(name);
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

    fn quiet_params(seed: u64) -> SimParams {
        SimParams {
            noise: NoiseParams::NONE,
            cluster_jitter_s: 0.0,
            seed,
            ..SimParams::default()
        }
    }

    fn persist_parsed() -> Arc<Schedule> {
        Arc::new(Schedule::persist_all([DatasetId(1)]))
    }

    #[test]
    fn single_tenant_set_is_the_plain_engine() {
        let app = iterative_app("solo", 5);
        let cluster = ClusterConfig::new(2, MachineSpec::paper_example());
        let engine = Engine::new(&app, cluster, quiet_params(7));
        let plain = engine
            .run_shared(&persist_parsed(), RunOptions::default())
            .unwrap();
        let set = TenantSet {
            cluster,
            tenants: vec![Tenant::new(&app, persist_parsed(), quiet_params(7))],
        };
        let tr = set.run(RunOptions::default()).unwrap();
        assert_eq!(tr.reports.len(), 1);
        assert_eq!(tr.reports[0].digest(), plain.digest());
        assert_eq!(tr.reports[0], plain);
        assert!((tr.makespan_s - plain.total_time_s).abs() < 1e-12);
    }

    #[test]
    fn inactive_second_tenant_is_invisible() {
        let app_a = iterative_app("a", 6);
        let app_b = iterative_app("b", 3);
        let cluster = ClusterConfig::new(2, MachineSpec::paper_example());
        let engine = Engine::new(&app_a, cluster, quiet_params(11));
        let plain = engine
            .run_shared(&persist_parsed(), RunOptions::default())
            .unwrap();
        let set = TenantSet {
            cluster,
            tenants: vec![
                Tenant::new(&app_a, persist_parsed(), quiet_params(11)),
                Tenant {
                    weight: 0.0,
                    ..Tenant::new(&app_b, persist_parsed(), quiet_params(12))
                },
            ],
        };
        let tr = set.run(RunOptions::default()).unwrap();
        // The real interleaved runner (not the fast path) must reproduce
        // the plain engine byte-for-byte for the lone active tenant.
        assert_eq!(tr.reports[0].digest(), plain.digest());
        assert_eq!(tr.reports[0].total_time_s, plain.total_time_s);
        assert_eq!(tr.reports[0].cache, plain.cache);
        // The inactive tenant ran nothing and self-describes.
        assert_eq!(tr.reports[1].total_tasks, 0);
        assert_eq!(tr.reports[1].contention.weight, 0.0);
        assert_eq!(tr.reports[1].contention.tenant, 1);
    }

    #[test]
    fn two_active_tenants_terminate_and_account() {
        let app_a = iterative_app("a", 5);
        let app_b = iterative_app("b", 4);
        let cluster = ClusterConfig::new(2, MachineSpec::paper_example());
        let set = TenantSet {
            cluster,
            tenants: vec![
                Tenant::new(&app_a, persist_parsed(), quiet_params(21)),
                Tenant {
                    arrival_offset_s: 3.0,
                    weight: 2.0,
                    ..Tenant::new(&app_b, persist_parsed(), quiet_params(22))
                },
            ],
        };
        let tr = set.run(RunOptions::default()).unwrap();
        assert!(tr.cross_evictions_balance());
        for (ti, r) in tr.reports.iter().enumerate() {
            assert_eq!(r.job_times_s.len(), [5, 4][ti]);
            assert!(r.total_time_s > 0.0);
            assert_eq!(r.task_attempts, r.total_tasks, "fault-free");
            assert_eq!(r.contention.tenant, ti as u32);
            assert_eq!(r.contention.tenants, 2);
            assert!(!r.contention.is_quiet(), "multi-tenant runs are marked");
        }
        assert!(tr.makespan_s >= tr.reports[0].total_time_s);
        assert!(tr.makespan_s >= 3.0 + tr.reports[1].total_time_s);
        // Determinism: the same set reruns to identical digests.
        let again = set.run(RunOptions::default()).unwrap();
        for (a, b) in tr.reports.iter().zip(&again.reports) {
            assert_eq!(a.digest(), b.digest());
        }
    }

    #[test]
    fn memory_pressure_produces_cross_evictions() {
        // One tiny machine: the two tenants' cached datasets cannot both
        // fit, so the later arrival evicts the earlier one's blocks.
        let app_a = iterative_app("a", 6);
        let app_b = iterative_app("b", 6);
        let spec = MachineSpec {
            ram_bytes: 1_600_000_000,
            ..MachineSpec::paper_example()
        };
        let cluster = ClusterConfig::new(1, spec);
        let set = TenantSet {
            cluster,
            tenants: vec![
                Tenant::new(&app_a, persist_parsed(), quiet_params(31)),
                Tenant {
                    arrival_offset_s: 7.0,
                    ..Tenant::new(&app_b, persist_parsed(), quiet_params(32))
                },
            ],
        };
        let tr = set.run(RunOptions::default()).unwrap();
        assert!(tr.cross_evictions_balance());
        // The late arrival's inserts must push out the incumbent's blocks,
        // which by then have been resident for a while.
        let incumbent = &tr.reports[0].contention;
        assert!(
            incumbent.cross_evictions_suffered > 0,
            "pool must cross-evict"
        );
        assert!(incumbent.residency_half_life_s > 0.0);
    }

    #[test]
    fn empty_set_is_rejected() {
        let set = TenantSet {
            cluster: ClusterConfig::new(1, MachineSpec::paper_example()),
            tenants: vec![],
        };
        assert!(set.run(RunOptions::default()).is_err());
    }
}
