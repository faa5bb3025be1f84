//! Run-scoped telemetry: a `doctor` run's counter snapshot and manifest
//! id depend only on (workload, config). Two doctor runs on separate
//! threads, next to a thread running simulations outside any scope,
//! must each report exactly what one serial run reports.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use common::TinyScoring;
use juggler_suite::cluster_sim::{ClusterConfig, Engine, MachineSpec, RunOptions};
use juggler_suite::juggler::pipeline::TrainingConfig;
use juggler_suite::juggler::provenance::RunManifest;
use juggler_suite::workloads::Workload;

fn config() -> TrainingConfig {
    TrainingConfig {
        threads: 2,
        ..TrainingConfig::default()
    }
}

/// One doctor run's manifest id and deterministic snapshot JSON.
fn doctor_run() -> (String, String) {
    let config = config();
    let report = juggler_suite::juggler::doctor(&TinyScoring, &config).expect("doctor succeeds");
    let manifest = RunManifest::from_doctor(&report, &config, &TinyScoring.paper_params());
    (manifest.id(), report.snapshot.to_json())
}

/// Simulates batches of the tiny workload with no scope installed until
/// `stop` is set; returns how many runs it made.
fn unscoped_simulations(stop: &AtomicBool) -> u64 {
    let app = TinyScoring.build(&TinyScoring.paper_params());
    let schedule = Arc::new(app.default_schedule().clone());
    let mut runs = 0;
    while runs == 0 || !stop.load(Ordering::Relaxed) {
        for _ in 0..4 {
            let mut sim = TinyScoring.sim_params();
            sim.seed = runs;
            Engine::new(
                &app,
                ClusterConfig::new(3, MachineSpec::private_cluster()),
                sim,
            )
            .run_shared(&schedule, RunOptions::default())
            .expect("run succeeds");
            runs += 1;
        }
    }
    runs
}

#[test]
fn concurrent_doctor_runs_match_the_serial_run() {
    let serial = doctor_run();
    let stop = AtomicBool::new(false);
    let (a, b, sims) = std::thread::scope(|s| {
        let sims = s.spawn(|| unscoped_simulations(&stop));
        let a = s.spawn(doctor_run);
        let b = s.spawn(doctor_run);
        let (a, b) = (a.join().unwrap(), b.join().unwrap());
        stop.store(true, Ordering::Relaxed);
        (a, b, sims.join().unwrap())
    });
    assert!(sims > 0);
    assert_eq!(
        a, serial,
        "first concurrent doctor drifted from the serial run"
    );
    assert_eq!(
        b, serial,
        "second concurrent doctor drifted from the serial run"
    );
}
