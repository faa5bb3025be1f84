//! Traced replay of the offline-training pipeline.
//!
//! [`train_traced`] performs the four stages of `OfflineTraining::run_full`
//! (crates/core/src/pipeline.rs) from public functions only, in pipeline
//! order, with a span around each call into a layer. It must produce a
//! [`TrainedJuggler`] whose serialized bytes equal the pipeline's; the
//! benchmark checks that on every family at two seeds and fails loudly
//! otherwise, which also catches this file drifting from the pipeline.

use std::cell::Cell;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use cluster_sim::{ClusterConfig, Engine, EnginePrep, RunOptions, RunReport, SimParams};
use dagflow::{Application, DatasetId, Schedule};
use instrument::{derive_metrics, inject, ProfileRunOutput, ProfilingDatabase, ProfilingOverhead};
use juggler::pipeline::{StageCost, TrainingCosts, TRAINING_RETRIES};
use juggler::{
    detect_hotspots_audited, run_indexed, with_retry, DatasetMetricsView, MemoryCalibration,
    MemoryFactor, ParamCalibration, TimeModel, TrainedJuggler, TrainingConfig,
};
use workloads::{Workload, WorkloadParams};

use crate::spans::{adopt, Tracer};

/// Seed salt per retry attempt; the pipeline's private `RETRY_SEED_SALT`.
const RETRY_SEED_SALT: u64 = 1 << 32;

/// `(hits, misses, evictions)` summed over every dataset of a run.
pub fn cache_counts(report: &RunReport) -> (u64, u64, u64) {
    report.cache.per_dataset.values().fold((0, 0, 0), |acc, d| {
        (acc.0 + d.hits, acc.1 + d.misses, acc.2 + d.evictions)
    })
}

/// Tasks a run executed, counted from its per-stage timings.
pub fn run_tasks(report: &RunReport) -> u64 {
    report.stage_times.iter().map(|s| u64::from(s.tasks)).sum()
}

/// Counts one plain (non-instrumented) engine run.
pub fn count_plain_run(t: &Tracer, report: &RunReport) {
    let (hits, misses, evictions) = cache_counts(report);
    t.count("cluster_sim.runs", 1);
    t.count("cluster_sim.tasks", run_tasks(report));
    t.count("cluster_sim.cache_hits", hits);
    t.count("cluster_sim.cache_misses", misses);
    t.count("cluster_sim.evictions", evictions);
}

fn build(t: &Tracer, workload: &dyn Workload, params: &WorkloadParams) -> Application {
    let app = {
        let _s = t.span("dagflow.build");
        workload.build(params)
    };
    t.count("dagflow.builds", 1);
    t.count("dagflow.datasets", app.dataset_count() as u64);
    app
}

fn prep(t: &Tracer, app: &Application) -> Arc<EnginePrep> {
    let _s = t.span("cluster_sim.prep");
    t.count("cluster_sim.preps", 1);
    Arc::new(EnginePrep::new(app))
}

fn plain_run(
    t: &Tracer,
    engine: &Engine<'_>,
    schedule: &Arc<Schedule>,
    options: RunOptions,
) -> Result<RunReport, dagflow::DagError> {
    let report = {
        let _s = t.span("cluster_sim.run");
        engine.run_shared(schedule, options)?
    };
    count_plain_run(t, &report);
    Ok(report)
}

/// `instrument::profile_run`, called as its four public pieces.
fn profile_traced(
    t: &Tracer,
    app: &Application,
    schedule: &Schedule,
    cluster: ClusterConfig,
    params: SimParams,
) -> Result<ProfileRunOutput, dagflow::DagError> {
    let (instrumented, mapped) = {
        let _s = t.span("instrument.inject");
        let instrumented = inject(app, ProfilingOverhead::default());
        let mapped = instrumented.map_schedule(schedule);
        (instrumented, mapped)
    };
    let report = {
        let _s = t.span("instrument.sim");
        Engine::new(&instrumented.app, cluster, params).run(
            &mapped,
            RunOptions {
                collect_traces: true,
                ..RunOptions::default()
            },
        )?
    };
    t.count("instrument.traced_tasks", run_tasks(&report));
    let db = ProfilingDatabase::new();
    {
        let _s = t.span("instrument.ingest");
        db.ingest(&instrumented, &report);
    }
    let metrics = {
        let _s = t.span("instrument.derive");
        derive_metrics(&db, app, cluster.total_cores())
    };
    Ok(ProfileRunOutput {
        instrumented,
        report,
        metrics,
    })
}

/// `juggler::run_indexed` inside a `parallel.fanout` span; each item runs
/// in a `parallel.item` span adopted by the fan-out, on whichever worker
/// takes it.
fn fanout<T: Send>(
    t: &Tracer,
    len: usize,
    threads: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let fan = t.span("parallel.fanout");
    let id = fan.id();
    run_indexed(len, threads, |i| {
        let _a = adopt(id);
        let _item = t.span("parallel.item");
        f(i)
    })
}

fn count_fit(t: &Tracer, report: &modeling::FitReport, samples: usize) {
    t.count("modeling.fits", 1);
    t.count("modeling.candidates", report.candidates.len() as u64);
    t.count("modeling.samples", samples as u64);
}

/// Trains `workload` the way `OfflineTraining::run` does, with spans.
/// The configuration's thread count must be explicit (non-zero).
pub fn train_traced(
    workload: &dyn Workload,
    config: &TrainingConfig,
    t: &Tracer,
) -> Result<TrainedJuggler, String> {
    let name = workload.name();
    let fail = |stage: &str, e: &dyn std::fmt::Display| format!("{name}: {stage}: {e}");
    let threads = config.threads;
    assert!(threads > 0, "the replay needs an explicit thread count");
    let mut costs = TrainingCosts::default();
    let sim = |seed_off: u64| {
        let mut p = workload.sim_params();
        p.seed = config.seed.wrapping_add(seed_off);
        p
    };
    let add = |cost: &mut StageCost, machine_minutes: f64| {
        cost.runs += 1;
        cost.machine_minutes += machine_minutes;
    };

    // Stage 1: hotspot detection.
    let sample = workload.sample_params();
    let sample_app = build(t, workload, &sample);
    let calib_cluster = ClusterConfig::new(1, config.calibration_spec);
    let (out, _) = with_retry(TRAINING_RETRIES, |attempt| {
        profile_traced(
            t,
            &sample_app,
            sample_app.default_schedule(),
            calib_cluster,
            sim(1 + u64::from(attempt) * RETRY_SEED_SALT),
        )
    })
    .map_err(|e| fail("stage 1", &e))?;
    add(&mut costs.hotspot, out.report.cost_machine_minutes());
    let (schedules, audit) = {
        let _s = t.span("hotspot.detect");
        let metrics = DatasetMetricsView::from_metrics(&out.metrics, sample_app.dataset_count());
        detect_hotspots_audited(&sample_app, &metrics, &config.hotspot)
    };
    t.count("hotspot.bcr_evaluations", audit.bcr_evaluations);
    t.count("hotspot.schedules", schedules.len() as u64);

    // Stage 2: parameter calibration on the 3×3 grid.
    let (e_axis, f_axis) = workload.training_axes();
    let grid = ParamCalibration::training_grid(&e_axis, &f_axis);
    let wanted: BTreeSet<DatasetId> =
        ParamCalibration::datasets_of(schedules.iter().map(|s| s.schedule.as_ref()));
    let grid_apps: Vec<Arc<Application>> = grid
        .iter()
        .map(|&(e, f)| {
            let params = WorkloadParams::auto(e as u64, f as u64, sample.iterations);
            Arc::new(build(t, workload, &params))
        })
        .collect();
    let grid_runs = fanout(t, grid.len(), threads, |gi| {
        let app = &grid_apps[gi];
        with_retry(TRAINING_RETRIES, |attempt| {
            profile_traced(
                t,
                app.as_ref(),
                app.default_schedule(),
                calib_cluster,
                sim(2 + gi as u64 + u64::from(attempt) * RETRY_SEED_SALT),
            )
        })
        .map(|(run, _)| {
            let sizes: Vec<(DatasetId, u64)> = run
                .metrics
                .iter()
                .filter(|m| wanted.contains(&m.dataset))
                .map(|m| (m.dataset, m.size_bytes))
                .collect();
            (run.report.cost_machine_minutes(), sizes)
        })
    });
    let mut observations: HashMap<DatasetId, Vec<(f64, f64, u64)>> = HashMap::new();
    for (outcome, &(e, f)) in grid_runs.iter().zip(&grid) {
        // A grid point that failed every attempt is skipped, as in the
        // pipeline.
        if let Ok((machine_minutes, sizes)) = outcome {
            add(&mut costs.param_calibration, *machine_minutes);
            for &(dataset, size_bytes) in sizes {
                observations
                    .entry(dataset)
                    .or_default()
                    .push((e, f, size_bytes));
            }
        }
    }
    let (sizes, size_fits) = {
        let _s = t.span("modeling.fit");
        match ParamCalibration::fit_with_reports(&observations) {
            Ok(pair) => pair,
            Err(_) if observations.is_empty() => (ParamCalibration::default(), Vec::new()),
            Err(e) => return Err(fail("stage 2 fit", &e)),
        }
    };
    for (dataset, report) in &size_fits {
        count_fit(t, report, observations[dataset].len());
    }

    // Stage 3: memory calibration.
    let memory_factor = if let Some(first) = schedules.first() {
        let m_bytes = config.calibration_spec.unified_memory() as f64;
        let (e0, f0) = (
            *e_axis.last().expect("axes non-empty"),
            *f_axis.last().expect("axes non-empty"),
        );
        let evals = Cell::new(0u64);
        let scaled = {
            let _s = t.span("memory_calibration.scale");
            MemoryCalibration::scale_params_to_target(e0, f0, m_bytes, |e, f| {
                evals.set(evals.get() + 1);
                sizes.predict_schedule_size(&first.schedule, e, f) as f64
            })
        };
        t.count("memory_calibration.scale_evals", evals.get());
        let params = WorkloadParams::auto(scaled.e as u64, scaled.f as u64, sample.iterations);
        let app = build(t, workload, &params);
        let prep = prep(t, &app);
        let (report, _) = with_retry(TRAINING_RETRIES, |attempt| {
            let engine = Engine::with_prep(
                &app,
                calib_cluster,
                sim(20 + u64::from(attempt) * RETRY_SEED_SALT),
                Arc::clone(&prep),
            );
            plain_run(
                t,
                &engine,
                &first.schedule,
                RunOptions {
                    trace: config.trace,
                    ..RunOptions::default()
                },
            )
        })
        .map_err(|e| fail("stage 3", &e))?;
        add(&mut costs.memory_calibration, report.cost_machine_minutes());
        MemoryFactor::from_run(&app, &first.schedule, &report)
    } else {
        MemoryFactor { factor: 1.0 }
    };

    // Stage 4: execution-time models, one grid row per schedule.
    let paper = workload.paper_params();
    let cells = schedules.len() * grid.len();
    let cell_shared: Vec<(Arc<Application>, Arc<EnginePrep>)> = grid
        .iter()
        .map(|&(e, f)| {
            let params = WorkloadParams::auto(e as u64, f as u64, paper.iterations);
            let app = Arc::new(build(t, workload, &params));
            let prep = prep(t, &app);
            (app, prep)
        })
        .collect();
    let matrix = fanout(t, cells, threads, |k| {
        let (si, gi) = (k / grid.len(), k % grid.len());
        let rs = &schedules[si];
        let (e, f) = grid[gi];
        let size = sizes.predict_schedule_size(&rs.schedule, e, f);
        let machines = memory_factor
            .recommend_machines(size, &config.target_spec)
            .min(config.max_machines);
        let cluster = ClusterConfig::new(machines, config.target_spec);
        let (app, prep) = &cell_shared[gi];
        with_retry(TRAINING_RETRIES, |attempt| {
            let engine = Engine::with_prep(
                app.as_ref(),
                cluster,
                sim(40 + k as u64 + u64::from(attempt) * RETRY_SEED_SALT),
                Arc::clone(prep),
            );
            plain_run(t, &engine, &rs.schedule, RunOptions::default())
        })
        .map(|(report, _)| (report.cost_machine_minutes(), (e, f, report.total_time_s)))
    });
    let mut time_models = Vec::with_capacity(schedules.len());
    for si in 0..schedules.len() {
        let row = &matrix[si * grid.len()..(si + 1) * grid.len()];
        let mut points = Vec::with_capacity(grid.len());
        for (machine_minutes, point) in row.iter().flatten() {
            add(&mut costs.time_models, *machine_minutes);
            points.push(*point);
        }
        let (model, report) = {
            let _s = t.span("modeling.fit");
            TimeModel::fit_with_report(si, &points).map_err(|e| fail("stage 4 fit", &e))?
        };
        count_fit(t, &report, points.len());
        time_models.push(model);
    }

    Ok(TrainedJuggler {
        workload: name.to_owned(),
        schedules,
        sizes,
        memory_factor,
        time_models,
        target_spec: config.target_spec,
        max_machines: config.max_machines,
        costs,
    })
}
