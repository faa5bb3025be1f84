//! `derive_metrics` is a pure function of the profiling database: repeated
//! calls agree bit for bit, and the result equals a plain ordered-map
//! reconstruction of the §3.3 model that sums per-stage ENTs in
//! `(job, stage)` order.

use std::collections::BTreeMap;

use cluster_sim::{ClusterConfig, Engine, MachineSpec, RunOptions, SimParams};
use dagflow::{Application, DatasetId, JobId, StageId};
use instrument::{derive_metrics, inject, DatasetMetrics, ProfilingDatabase, ProfilingOverhead};
use workloads::{
    KMeans, LinearRegression, LogisticRegression, MicroBatchStream, Pca, RandomForest, SqlStarJoin,
    SupportVectorMachine, Workload, WorkloadParams,
};

fn families() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(LinearRegression),
        Box::new(LogisticRegression),
        Box::new(Pca),
        Box::new(RandomForest),
        Box::new(SupportVectorMachine),
        Box::new(KMeans::default()),
        Box::new(SqlStarJoin),
        Box::new(MicroBatchStream),
    ]
}

/// One instrumented run of `app` on the calibration node, ingested.
fn profiled(app: &Application, params: SimParams) -> (ProfilingDatabase, u32) {
    let instrumented = inject(app, ProfilingOverhead::default());
    let cluster = ClusterConfig::new(1, MachineSpec::calibration_node());
    let report = Engine::new(&instrumented.app, cluster, params)
        .run(
            &instrumented.map_schedule(app.default_schedule()),
            RunOptions {
                collect_traces: true,
                ..RunOptions::default()
            },
        )
        .expect("instrumented run succeeds");
    let db = ProfilingDatabase::new();
    db.ingest(&instrumented, &report);
    (db, cluster.total_cores())
}

/// The §3.3 reconstruction over ordered maps, from the database's public
/// copies. Iterating `groups` in key order visits each (dataset, half)'s
/// stages in `(job, stage)` order.
fn reference(db: &ProfilingDatabase, app: &Application, total_cores: u32) -> Vec<DatasetMetrics> {
    let stage_tasks: BTreeMap<(JobId, StageId), u32> = db
        .stages()
        .into_iter()
        .map(|s| ((s.job, s.stage), s.n_tasks))
        .collect();
    let mut groups: BTreeMap<(DatasetId, bool, JobId, StageId), (f64, u32)> = BTreeMap::new();
    let mut sizes: BTreeMap<DatasetId, BTreeMap<u32, u64>> = BTreeMap::new();
    for obs in db.observations() {
        if !obs.is_shuffle_write {
            sizes
                .entry(obs.dataset)
                .or_default()
                .insert(obs.task, obs.partition_bytes);
        }
        if obs.is_cache_read {
            continue;
        }
        let acc = groups
            .entry((obs.dataset, obs.is_shuffle_write, obs.job, obs.stage))
            .or_default();
        acc.0 += (obs.finish - obs.start).max(0.0);
        acc.1 += 1;
    }
    let mut half_et: BTreeMap<(DatasetId, bool), (f64, u32)> = BTreeMap::new();
    for (&(dataset, is_write, job, stage), &(total, count)) in &groups {
        let n = stage_tasks[&(job, stage)].max(1);
        let waves = f64::from(n.div_ceil(total_cores.max(1)));
        let slot = half_et.entry((dataset, is_write)).or_default();
        slot.0 += total / f64::from(count) * waves;
        slot.1 += 1;
    }
    let mut out = Vec::new();
    for d in app.datasets() {
        let halves = [half_et.get(&(d.id, false)), half_et.get(&(d.id, true))];
        if halves.iter().all(Option::is_none) && !sizes.contains_key(&d.id) {
            continue;
        }
        let mut et = 0.0;
        let mut observations = 0;
        for &(total, n) in halves.into_iter().flatten() {
            et += total / f64::from(n);
            observations += n;
        }
        out.push(DatasetMetrics {
            dataset: d.id,
            size_bytes: sizes.get(&d.id).map_or(0, |p| p.values().sum()),
            et_seconds: et,
            observations,
        });
    }
    out
}

fn assert_bit_identical(got: &[DatasetMetrics], want: &[DatasetMetrics], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: dataset count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.dataset, w.dataset, "{what}");
        assert_eq!(g.size_bytes, w.size_bytes, "{what}: {:?} size", g.dataset);
        assert_eq!(
            g.observations, w.observations,
            "{what}: {:?} count",
            g.dataset
        );
        assert_eq!(
            g.et_seconds.to_bits(),
            w.et_seconds.to_bits(),
            "{what}: {:?} ET {} vs {}",
            g.dataset,
            g.et_seconds,
            w.et_seconds
        );
    }
}

/// SVM at a stage-2 grid point runs many jobs, so most datasets are
/// observed in many stages and the summation order of their per-stage
/// ENTs decides the low bits of `et_seconds`.
#[test]
fn repeated_derivation_is_bit_identical_on_a_many_job_run() {
    let svm = SupportVectorMachine;
    let app = svm.build(&grid_point(&svm));
    let mut sim = svm.sim_params();
    sim.seed = 0x5EED;
    let (db, cores) = profiled(&app, sim);
    assert!(db.stages().len() > 10, "a many-stage sample run");
    let first = derive_metrics(&db, &app, cores);
    assert!(
        first.iter().any(|m| m.observations > 2),
        "some dataset spans several stages"
    );
    for round in 0..20 {
        let again = derive_metrics(&db, &app, cores);
        assert_bit_identical(&again, &first, &format!("call {round}"));
    }
}

/// The stage-2 grid point in the middle of a family's training axes.
fn grid_point(w: &dyn Workload) -> WorkloadParams {
    let (e_axis, f_axis) = w.training_axes();
    WorkloadParams::auto(
        e_axis[1] as u64,
        f_axis[1] as u64,
        w.sample_params().iterations,
    )
}

/// Every family's stage-1 sample run and a stage-2 grid-point run.
#[test]
fn derivation_matches_the_ordered_map_reference_on_every_family() {
    for w in families() {
        for (run, params) in [
            ("sample", w.sample_params()),
            ("grid", grid_point(w.as_ref())),
        ] {
            let app = w.build(&params);
            let mut sim = w.sim_params();
            sim.seed = 7;
            let (db, cores) = profiled(&app, sim);
            let got = derive_metrics(&db, &app, cores);
            let what = format!("{} {run} run", w.name());
            assert!(!got.is_empty(), "{what}: datasets observed");
            assert_bit_identical(&got, &reference(&db, &app, cores), &what);
        }
    }
}

#[test]
fn stage_records_are_sorted_by_job_then_stage() {
    let w = RandomForest;
    let app = w.build(&w.sample_params());
    let (db, _) = profiled(&app, w.sim_params());
    let keys: Vec<(JobId, StageId)> = db.stages().iter().map(|s| (s.job, s.stage)).collect();
    assert!(keys.len() > 1);
    assert!(keys.windows(2).all(|p| p[0] < p[1]), "{keys:?}");
}
