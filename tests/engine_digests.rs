//! Golden digests of the simulator's output: every workload family at
//! paper scale, run with its default schedule on a three-machine private
//! cluster (tight enough that caching meets memory pressure), under four
//! cases that between them reach every engine path a run can take:
//!
//! * `lru` — LRU eviction, even partitions;
//! * `skew` — partition skew 0.15 with per-task traces collected; the
//!   line also carries a SHA-256 of the serialized traces, which
//!   [`RunReport::digest`] deliberately leaves out;
//! * `lrc` / `mrd` — the DAG-aware eviction policies, the only readers of
//!   the per-dataset job-use lists.
//!
//! The default schedules cache at most two datasets, so under them the
//! DAG-aware policies pick the same victims as LRU. Two more lines per
//! workload (`all-lrc`, `all-mrd`) persist every intermediate dataset on
//! four machines, where eviction hints decide victims across datasets and
//! the job-use lists shape the digests.
//!
//! Any change to a duration, counter or trace bit shows up here. The file
//! is regenerated only for an intended behaviour change:
//! `UPDATE_GOLDEN=1 cargo test --test engine_digests`, then review the
//! diff.

use juggler_suite::cluster_sim::{
    ClusterConfig, Engine, EvictionPolicyKind, MachineSpec, RunOptions, RunReport,
};
use juggler_suite::dagflow::{LineageAnalysis, Schedule};
use juggler_suite::juggler::tenants::workload_by_name;

const WORKLOADS: [&str; 8] = [
    "LIR", "LOR", "PCA", "RFC", "SVM", "KMEANS", "SQLJOIN", "STREAM",
];

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/engine_digests.txt")
}

/// Which schedule a case runs, and on how many machines.
#[derive(Clone, Copy)]
enum Plan {
    /// The application's default schedule on three machines.
    Default,
    /// Every intermediate dataset persisted, on four machines.
    AllIntermediates,
}

fn run(name: &str, plan: Plan, policy: EvictionPolicyKind, options: RunOptions) -> RunReport {
    let w = workload_by_name(name).expect("known workload");
    let app = w.build(&w.paper_params());
    let mut params = w.sim_params();
    params.eviction_policy = policy;
    let (schedule, machines) = match plan {
        Plan::Default => (app.default_schedule().clone(), 3),
        Plan::AllIntermediates => (
            Schedule::persist_all(LineageAnalysis::new(&app).intermediates()),
            4,
        ),
    };
    Engine::new(
        &app,
        ClusterConfig::new(machines, MachineSpec::private_cluster()),
        params,
    )
    .run(&schedule, options)
    .expect("schedule runs")
}

fn render() -> String {
    let mut out = String::new();
    for name in WORKLOADS {
        let lru = run(
            name,
            Plan::Default,
            EvictionPolicyKind::Lru,
            RunOptions::default(),
        );
        out.push_str(&format!("{name} lru {}\n", lru.digest()));
        let skew = run(
            name,
            Plan::Default,
            EvictionPolicyKind::Lru,
            RunOptions {
                collect_traces: true,
                partition_skew: 0.15,
                ..RunOptions::default()
            },
        );
        let traces = serde_json::to_string(&skew.traces).expect("traces serialize");
        out.push_str(&format!(
            "{name} skew {} traces {}\n",
            skew.digest(),
            juggler_suite::obs::sha256_hex(traces.as_bytes())
        ));
        for (label, plan, policy) in [
            ("lrc", Plan::Default, EvictionPolicyKind::Lrc),
            ("mrd", Plan::Default, EvictionPolicyKind::Mrd),
            ("all-lrc", Plan::AllIntermediates, EvictionPolicyKind::Lrc),
            ("all-mrd", Plan::AllIntermediates, EvictionPolicyKind::Mrd),
        ] {
            let r = run(name, plan, policy, RunOptions::default());
            out.push_str(&format!("{name} {label} {}\n", r.digest()));
        }
    }
    out
}

#[test]
fn engine_digests_match_golden_file() {
    let got = render();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        eprintln!("updated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test --test engine_digests",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "engine output drifted from the golden digests; if intentional, \
         regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
}
