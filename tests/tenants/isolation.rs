//! Isolation guarantees: the tenancy machinery must be invisible
//! whenever contention is impossible — a single-tenant set is the plain
//! engine byte-for-byte, a weight-0 co-tenant changes nothing in any
//! family, run case or fault plan, and with
//! ample memory each tenant's cache behaviour is exactly its solo run's.

use std::sync::Arc;

use juggler_suite::cluster_sim::{
    ClusterConfig, Engine, EvictionPolicyKind, FaultKind, FaultPlan, MachineSpec, RetryPolicy,
    RunOptions, Tenant, TenantSet, TraceConfig,
};
use juggler_suite::dagflow::{LineageAnalysis, Schedule};
use juggler_suite::juggler::tenants::workload_by_name;
use juggler_suite::workloads::{LogisticRegression, SqlStarJoin};

use crate::support;

#[test]
fn single_tenant_set_is_byte_identical_to_the_engine() {
    let w = LogisticRegression;
    let app = support::drill_app(&w);
    let schedule = Arc::new(app.default_schedule().clone());
    let cluster = support::cluster(support::AMPLE_RAM);
    let plain = Engine::new(&app, cluster, support::quiet_sim(&w, 0x150))
        .run_shared(&schedule, RunOptions::default())
        .expect("plain run succeeds");
    let set = TenantSet {
        cluster,
        tenants: vec![Tenant::new(&app, schedule, support::quiet_sim(&w, 0x150))],
    };
    let tr = set.run(RunOptions::default()).expect("tenant run succeeds");
    assert_eq!(tr.reports.len(), 1);
    assert_eq!(tr.reports[0].digest(), plain.digest());
    assert_eq!(
        tr.reports[0], plain,
        "single-tenant set must be the single-app path"
    );
    assert!((tr.makespan_s - plain.total_time_s).abs() < 1e-12);
}

/// Every workload family at paper scale, in the run cases
/// `engine_digests.rs` pins (`mrd` on the default schedule is left out:
/// it picks the same victims as `lrc` there).
const WORKLOADS: [&str; 8] = [
    "LIR", "LOR", "PCA", "RFC", "SVM", "KMEANS", "SQLJOIN", "STREAM",
];

/// The three fault plans every case runs under: none, one executor
/// loss, and transient task failures plus a slow node under the
/// speculative retry policy.
fn fault_plans() -> [(&'static str, FaultPlan, RetryPolicy); 3] {
    [
        ("no faults", FaultPlan::none(), RetryPolicy::default()),
        (
            "executor loss",
            FaultPlan::executor_loss(1, 20.0),
            RetryPolicy::default(),
        ),
        (
            "failures + slow node",
            FaultPlan::none()
                .event(15.0, FaultKind::TaskFailures { count: 6 })
                .event(
                    25.0,
                    FaultKind::SlowNode {
                        machine: 0,
                        factor: 3.0,
                        duration_s: 30.0,
                    },
                ),
            RetryPolicy::speculative(),
        ),
    ]
}

#[test]
fn weight_zero_co_tenant_is_invisible() {
    // Unlike the len-1 fast path above, this exercises the real
    // interleaved scheduler with a lone *active* tenant: the admitted
    // but weightless LOR ghost must leave no trace in the active
    // tenant's report. Differential over all 8 families × 6 run cases ×
    // 3 fault plans: the whole `RunReport` must equal the plain
    // engine's, traces, fault summary and structured trace included.
    let ghost_w = LogisticRegression;
    let ghost_app = support::drill_app(&ghost_w);
    let ghost_schedule = Arc::new(ghost_app.default_schedule().clone());
    let mut cases = 0;
    // `fired[plan][event]`: whether the event fired in any case. A slow
    // node only fires where a task starts on it inside its window, which
    // the long-task families never do.
    let mut fired: Vec<Vec<bool>> = fault_plans()
        .iter()
        .map(|(_, plan, _)| vec![false; plan.events.len()])
        .collect();
    for name in WORKLOADS {
        let w = workload_by_name(name).expect("known workload");
        let app = w.build(&w.paper_params());
        let default = Arc::new(app.default_schedule().clone());
        let all = Arc::new(Schedule::persist_all(
            LineageAnalysis::new(&app).intermediates(),
        ));
        let skewed = RunOptions {
            collect_traces: true,
            partition_skew: 0.15,
            ..RunOptions::default()
        };
        let traced = RunOptions {
            trace: TraceConfig::enabled(),
            ..RunOptions::default()
        };
        let plain_run = RunOptions::default();
        let run_cases = [
            ("lru", &default, 3, EvictionPolicyKind::Lru, plain_run),
            ("skew", &default, 3, EvictionPolicyKind::Lru, skewed),
            ("trace", &default, 3, EvictionPolicyKind::Lru, traced),
            ("lrc", &default, 3, EvictionPolicyKind::Lrc, plain_run),
            ("all-lrc", &all, 4, EvictionPolicyKind::Lrc, plain_run),
            ("all-mrd", &all, 4, EvictionPolicyKind::Mrd, plain_run),
        ];
        for (label, schedule, machines, policy, options) in run_cases {
            for (pi, (plan, faults, retry)) in fault_plans().into_iter().enumerate() {
                let mut params = w.sim_params();
                params.eviction_policy = policy;
                params.retry = retry;
                params.faults = faults;
                let cluster = ClusterConfig::new(machines, MachineSpec::private_cluster());
                let plain = Engine::new(&app, cluster, params.clone())
                    .run_shared(schedule, options)
                    .expect("plain run succeeds");
                for (seen, outcome) in fired[pi].iter_mut().zip(&plain.faults.outcomes) {
                    *seen |= outcome.fired;
                }
                let set = TenantSet {
                    cluster,
                    tenants: vec![
                        Tenant::new(&app, Arc::clone(schedule), params),
                        Tenant {
                            weight: 0.0,
                            ..Tenant::new(
                                &ghost_app,
                                Arc::clone(&ghost_schedule),
                                support::quiet_sim(&ghost_w, 0x152),
                            )
                        },
                    ],
                };
                let tr = set.run(options).expect("tenant run succeeds");
                assert!(
                    tr.reports[0] == plain,
                    "{name} {label} {plan}: the lone active tenant must be the plain engine"
                );
                // The placeholder ran nothing and self-describes its
                // admission.
                let ghost = &tr.reports[1];
                assert_eq!(ghost.total_tasks, 0);
                assert_eq!(ghost.job_times_s.len(), 0);
                assert_eq!(ghost.contention.weight, 0.0);
                assert_eq!(ghost.contention.tenant, 1);
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 144);
    assert!(
        fired.iter().flatten().all(|&f| f),
        "every planned fault fires somewhere in the sweep: {fired:?}"
    );
}

#[test]
fn ample_memory_preserves_solo_cache_behaviour() {
    // With a pool that holds both tenants' cached datasets, slot sharing
    // stretches *time* but must not change *cache behaviour*: dataset by
    // dataset, each tenant's hits, misses and residency are exactly what
    // its solo run produced, and nobody cross-evicts anybody.
    let (a, b) = (LogisticRegression, SqlStarJoin);
    let app_a = support::drill_app(&a);
    let app_b = support::drill_app(&b);
    let schedule_a = Arc::new(app_a.default_schedule().clone());
    let schedule_b = Arc::new(app_b.default_schedule().clone());
    let cluster = support::cluster(support::AMPLE_RAM);
    let solo_a = Engine::new(&app_a, cluster, support::quiet_sim(&a, 0x153))
        .run_shared(&schedule_a, RunOptions::default())
        .expect("solo LOR succeeds");
    let solo_b = Engine::new(&app_b, cluster, support::quiet_sim(&b, 0x154))
        .run_shared(&schedule_b, RunOptions::default())
        .expect("solo SQLJOIN succeeds");

    let set = TenantSet {
        cluster,
        tenants: vec![
            Tenant::new(&app_a, schedule_a, support::quiet_sim(&a, 0x153)),
            Tenant {
                arrival_offset_s: support::LATE_ARRIVAL_S,
                weight: 2.0,
                ..Tenant::new(&app_b, schedule_b, support::quiet_sim(&b, 0x154))
            },
        ],
    };
    let tr = set.run(RunOptions::default()).expect("tenant run succeeds");

    for (ti, (shared, solo)) in tr.reports.iter().zip([&solo_a, &solo_b]).enumerate() {
        assert_eq!(
            shared.cache.per_dataset, solo.cache.per_dataset,
            "tenant {ti}: ample memory must preserve solo per-dataset cache stats"
        );
        assert_eq!(shared.contention.cross_evictions_suffered, 0, "tenant {ti}");
        assert_eq!(
            shared.contention.cross_evictions_inflicted, 0,
            "tenant {ti}"
        );
        // Sharing can only slow a tenant down, never speed it up.
        assert!(
            shared.total_time_s + 1e-9 >= solo.total_time_s,
            "tenant {ti} beat its solo run under sharing"
        );
    }
}
