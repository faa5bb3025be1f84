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
//!   [`crate::executor::ExecutorState`] whose core grid is resized at job boundaries to
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
//! - **One job step.** Each tenant is a `crate::engine::AppRun`, the
//!   per-application run state [`Engine::run`] itself drives; a tenant's
//!   job is that same step, run against the shared store on the tenant's
//!   FAIR-narrowed cluster. This module adds only what tenancy needs: the
//!   concatenated layout, the choice of the next tenant, the slot share,
//!   the contention summary, placeholders for weightless tenants, and
//!   dropping a departed tenant's blocks.
//!
//! Per-tenant fault plans ([`crate::fault::FaultPlan`] in each tenant's
//! [`SimParams`]) fire on the tenant's own timeline, so every tenancy
//! scenario composes with chaos coverage for free.

use std::sync::Arc;

use dagflow::{Application, DagError, DatasetId, Schedule};

use crate::config::{ClusterConfig, SimParams};
use crate::engine::{AppRun, Engine, EnginePrep, JobScratch, RunOptions};
use crate::memory::{BlockLayout, BlockStore};
use crate::report::{CacheStats, ContentionSummary, RunReport};

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

        // `runs[t]` is `Some` while tenant t is active and unfinished;
        // inactive tenants run nothing (no prep is built for them) and
        // finish immediately with a placeholder report.
        let preps: Vec<Option<EnginePrep>> = self
            .tenants
            .iter()
            .map(|t| t.active().then(|| EnginePrep::new(t.app)))
            .collect();
        let mut runs: Vec<Option<AppRun<'_>>> = self
            .tenants
            .iter()
            .zip(&preps)
            .map(|(t, prep)| {
                let prep = prep.as_ref()?;
                let schedule = Arc::clone(&t.schedule);
                Some(AppRun::new(
                    t.app,
                    prep,
                    &t.params,
                    schedule,
                    &self.cluster,
                    options,
                    None,
                ))
            })
            .collect();
        let mut reports: Vec<Option<RunReport>> = self
            .tenants
            .iter()
            .enumerate()
            .map(|(ti, t)| (!t.active()).then(|| placeholder_report(t, ti, n, machines)))
            .collect();
        let active_count = runs.iter().filter(|r| r.is_some()).count();
        let mut cur_cores = vec![full_cores; n];
        let mut scratch = JobScratch::default();
        let mut makespan_s: f64 = 0.0;

        loop {
            // Next tenant on the global clock: running, min
            // `arrival + local now`; ties go to the lower index.
            let mut chosen: Option<(usize, f64)> = None;
            for (ti, (t, run)) in self.tenants.iter().zip(&runs).enumerate() {
                let Some(run) = run else { continue };
                let cursor = t.arrival_offset_s + run.now;
                if chosen.is_none_or(|(_, c)| cursor < c) {
                    chosen = Some((ti, cursor));
                }
            }
            let Some((ti, global_now)) = chosen else {
                break;
            };
            let tenant = &self.tenants[ti];

            // FAIR share at this instant: running tenants that have
            // arrived by the chosen cursor.
            let present: f64 = self
                .tenants
                .iter()
                .zip(&runs)
                .filter(|(t, run)| run.is_some() && t.arrival_offset_s <= global_now)
                .map(|(t, _)| t.weight)
                .sum();
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let share = ((f64::from(full_cores) * tenant.weight / present).floor() as u32).max(1);
            let run = runs[ti].as_mut().expect("the chosen tenant is running");
            if share != cur_cores[ti] {
                run.state.resize_cores(machines, share);
                cur_cores[ti] = share;
            }
            let tcluster = ClusterConfig::new(
                machines,
                crate::config::MachineSpec {
                    cores: share,
                    ..self.cluster.spec
                },
            );
            store.set_active_tenant(ti);
            run.step_job(&mut store, &tcluster, tenant.arrival_offset_s, &mut scratch);
            if !run.done() {
                continue;
            }

            // Tenant finished: finalize its report *now*, so later
            // tenants' activity cannot leak into its statistics.
            let run = runs[ti].take().expect("the chosen tenant is running");
            let (mut report, state) = run.finish(&mut store);
            // A lone active tenant saw no contention-capable co-tenant:
            // its summary stays quiet, so its digest matches the plain
            // engine's.
            if active_count >= 2 {
                let (suffered, inflicted, half_life) = store.tenant_contention(ti);
                report.contention = ContentionSummary {
                    tenant: ti as u32,
                    tenants: active_count as u32,
                    weight: tenant.weight,
                    arrival_offset_s: tenant.arrival_offset_s,
                    slot_wait_s: state.slot_wait_s,
                    cross_evictions_suffered: suffered,
                    cross_evictions_inflicted: inflicted,
                    residency_half_life_s: half_life,
                };
            }
            makespan_s = makespan_s.max(tenant.arrival_offset_s + report.total_time_s);
            reports[ti] = Some(report);
            // The tenant's executors exit with it: its cached blocks
            // leave the shared pool. A drop, not an eviction — the
            // report snapshot above already captured its statistics,
            // and departed tenants can no longer *suffer* evictions,
            // which keeps `Σ suffered == Σ inflicted` exact.
            for d in 0..tenant.app.dataset_count() as u32 {
                store.drop_dataset(DatasetId(d));
            }
        }

        let reports: Vec<RunReport> = reports
            .into_iter()
            .map(|r| r.expect("every tenant finished"))
            .collect();
        record_tenancy_metrics(&reports);
        Ok(TenancyReport {
            reports,
            makespan_s,
        })
    }
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
fn record_tenancy_metrics(reports: &[RunReport]) {
    let reg = obs::registry();
    if !reg.enabled() {
        return;
    }
    reg.counter(
        "sim_tenancy_runs_total",
        "multi-tenant simulations completed",
    )
    .inc();
    let cross: u64 = reports
        .iter()
        .map(|r| r.contention.cross_evictions_inflicted)
        .sum();
    if cross > 0 {
        reg.counter(
            "sim_cross_tenant_evictions_total",
            "cached blocks evicted by another tenant's memory pressure",
        )
        .add(cross);
    }
    let waits: f64 = reports.iter().map(|r| r.contention.slot_wait_s).sum();
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
