//! Graceful degradation of offline training: when a training run dies on
//! every retry, the pipeline skips the grid point with an explanatory
//! note instead of aborting — the models fit on the surviving points and
//! the recommendation menu stays Pareto-consistent.
//!
//! The poisoned fixture fails deterministically: at exactly one stage-4
//! grid point it builds a degenerate application that lacks the dataset
//! the hotspot schedules persist, so `run_shared` rejects the schedule
//! on all [`TRAINING_RETRIES`] attempts.

use crate::common::TinyScoring;
use juggler_suite::cluster_sim::SimParams;
use juggler_suite::dagflow::{
    AppBuilder, Application, ComputeCost, NarrowKind, Schedule, SourceFormat,
};
use juggler_suite::juggler::pipeline::{OfflineTraining, TrainingConfig, TRAINING_RETRIES};
use juggler_suite::workloads::{Workload, WorkloadParams};

/// [`TinyScoring`], except that the stage-4 cell at (e=2000, f=400) —
/// recognisable by its full iteration count — builds an application with
/// no shuffle stage, so the hotspot schedules' persisted dataset does not
/// exist and the cell's runs fail on every attempt.
struct PoisonedScoring;

impl PoisonedScoring {
    fn is_poison(&self, p: &WorkloadParams) -> bool {
        p.iterations == self.paper_params().iterations && p.examples == 2_000 && p.features == 400
    }
}

impl Workload for PoisonedScoring {
    fn name(&self) -> &'static str {
        "TINY-POISON"
    }

    fn paper_params(&self) -> WorkloadParams {
        TinyScoring.paper_params()
    }

    fn sim_params(&self) -> SimParams {
        TinyScoring.sim_params()
    }

    fn build(&self, p: &WorkloadParams) -> Application {
        if self.is_poison(p) {
            let mut b = AppBuilder::new("tiny-poison");
            let logs = b.source(
                "events",
                SourceFormat::DistributedFs,
                p.examples,
                p.input_bytes(),
                p.partitions,
            );
            let parsed = b.narrow(
                "parsed",
                NarrowKind::Map,
                &[logs],
                p.examples,
                1024,
                ComputeCost::new(0.001, 0.0, 1e-9),
            );
            b.job("scan", parsed);
            b.default_schedule(Schedule::empty());
            return b.build().expect("valid poison plan");
        }
        TinyScoring.build(p)
    }
}

#[test]
fn training_skips_dead_grid_points_with_a_note() {
    let config = TrainingConfig::default();
    let (trained, diagnostics) =
        OfflineTraining::run_full(&PoisonedScoring, &config).expect("training survives the poison");

    let skips: Vec<&String> = diagnostics
        .notes
        .iter()
        .filter(|n| n.contains("point skipped"))
        .collect();
    assert!(
        !skips.is_empty(),
        "the poisoned cell must be skipped with a note, got notes: {:#?}",
        diagnostics.notes
    );
    for note in &skips {
        assert!(
            note.contains("stage-4 run") && note.contains(&format!("{TRAINING_RETRIES} attempts")),
            "skip notes must name the stage and the exhausted retry budget: {note}"
        );
        assert!(
            note.contains("e=2000") && note.contains("f=400"),
            "skip notes must name the grid point: {note}"
        );
    }
    // At most one cell per schedule died — the rest of the grid survived
    // and the time models fitted on the surviving points.
    assert!(skips.len() <= trained.schedules.len());
    assert_eq!(trained.time_models.len(), trained.schedules.len());

    // Degraded training still yields a Pareto-consistent menu.
    let paper = PoisonedScoring.paper_params();
    let menu = trained.recommend(paper.e(), paper.f());
    assert!(!menu.options.is_empty(), "degraded menu must not be empty");
    for a in &menu.options {
        assert!(a.predicted_time_s.is_finite() && a.predicted_time_s > 0.0);
        for b in &menu.options {
            assert!(
                !(a.predicted_time_s < b.predicted_time_s
                    && a.predicted_cost_machine_min < b.predicted_cost_machine_min
                    && a.schedule_index != b.schedule_index),
                "degraded menu kept a dominated option"
            );
        }
    }

    // Degradation is deterministic: the same poison yields the same notes.
    let (_, again) =
        OfflineTraining::run_full(&PoisonedScoring, &config).expect("training survives again");
    assert_eq!(diagnostics.notes, again.notes);
}

#[test]
fn healthy_training_reports_no_skipped_points() {
    let (_, diagnostics) = OfflineTraining::run_full(&TinyScoring, &TrainingConfig::default())
        .expect("healthy training succeeds");
    assert!(
        diagnostics.notes.iter().all(|n| !n.contains("skipped")),
        "healthy runs must not report skipped points: {:#?}",
        diagnostics.notes
    );
}
