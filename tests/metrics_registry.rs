//! Metrics-registry integration tests: concurrent recording must be
//! exact, and the deterministic export must be byte-stable no matter how
//! many worker threads the training pipeline used.

mod common;

use common::TinyScoring;
use juggler_suite::juggler::pipeline::TrainingConfig;
use juggler_suite::obs::Registry;

#[test]
fn concurrent_increments_are_exact() {
    let reg = Registry::new(true);
    let counter = reg.counter("t_total", "test counter");
    let hist = reg.histogram("t_hist", "test histogram");
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let counter = counter.clone();
            let hist = hist.clone();
            s.spawn(move || {
                for i in 0..10_000 {
                    counter.inc();
                    hist.record(t * 10_000 + i);
                }
            });
        }
    });
    assert_eq!(counter.get(), 80_000);
    assert_eq!(hist.count(), 80_000);
    let snap = reg.snapshot(false);
    assert_eq!(snap.counter("t_total"), Some(80_000));
}

#[test]
fn gauge_last_write_wins_under_contention() {
    let reg = Registry::new(true);
    let gauge = reg.gauge(
        "t_gauge",
        "test gauge",
        juggler_suite::obs::MetricClass::Deterministic,
    );
    std::thread::scope(|s| {
        for t in 0..4 {
            let gauge = gauge.clone();
            s.spawn(move || {
                for i in 0..1_000 {
                    gauge.set(f64::from(t * 1_000 + i));
                }
            });
        }
    });
    // Whatever thread wrote last, the value is one of the written ones.
    let v = gauge.get();
    assert!((0.0..4_000.0).contains(&v), "{v}");
}

/// Trains the tiny workload at 1, 2, and 8 worker threads; the
/// deterministic exports must be identical bytes each time.
#[test]
fn exports_are_byte_stable_across_thread_counts() {
    let w = TinyScoring;
    let mut baseline: Option<(String, String)> = None;
    for threads in [1usize, 2, 8] {
        let config = TrainingConfig {
            threads,
            ..TrainingConfig::default()
        };
        let report = juggler_suite::juggler::doctor(&w, &config).expect("doctor succeeds");
        let prom = report.snapshot.to_prometheus();
        let json = report.snapshot.to_json();
        assert!(
            prom.contains("sim_runs_total"),
            "export should contain simulator counters:\n{prom}"
        );
        assert!(prom.contains("hotspot_detections_total 1"));
        match &baseline {
            None => baseline = Some((prom, json)),
            Some((p0, j0)) => {
                assert_eq!(&prom, p0, "Prometheus export drifted at {threads} threads");
                assert_eq!(&json, j0, "JSON export drifted at {threads} threads");
            }
        }
    }
}
