//! The phase profiler's determinism contract: the *structure* of the
//! merged call tree — phase names, nesting, call counts, and counter
//! deltas — is a pure function of the work performed, so it must be
//! bit-identical no matter how many worker threads executed the
//! pipeline. Timings are host wall-clock and are deliberately excluded
//! from the structure digest.

use juggler_suite::juggler::pipeline::{OfflineTraining, TrainingConfig};
use juggler_suite::obs::prof::Profile;
use juggler_suite::obs::Scope;
use juggler_suite::workloads::{LogisticRegression, Workload};

/// Trains LOR end to end (stages 1-4 plus the stage-5 menu) with the
/// profiler recording, and returns the merged profile.
fn profiled_training(threads: usize) -> Profile {
    let w = LogisticRegression;
    let config = TrainingConfig {
        threads,
        ..TrainingConfig::default()
    };
    let scope = Scope::profiling();
    let installed = scope.install();
    let trained = OfflineTraining::run(&w, &config).expect("training succeeds");
    let paper = w.paper_params();
    let menu = trained.recommend(paper.e(), paper.f());
    drop(installed);
    let profile = scope.profiler().take_profile();
    assert!(!menu.options.is_empty(), "menu must not be empty");
    profile
}

#[test]
fn structure_digest_is_identical_across_thread_counts() {
    let sequential = profiled_training(1);
    let base_digest = sequential.structure_digest();
    let base_structure = sequential.render_structure();
    assert!(!sequential.is_empty(), "profiled training records phases");
    for threads in [2, 8] {
        let parallel = profiled_training(threads);
        assert_eq!(
            base_digest,
            parallel.structure_digest(),
            "structure digest differs between threads=1 and threads={threads}"
        );
        assert_eq!(
            base_structure,
            parallel.render_structure(),
            "structure render differs between threads=1 and threads={threads}"
        );
    }
}

#[test]
fn repeated_runs_reproduce_digest_and_counters() {
    let first = profiled_training(2);
    let second = profiled_training(2);
    // The digest covers counter *values* too (cache hits, NNLS
    // iterations, ...): they are seed-deterministic, so two identical
    // runs must agree exactly.
    assert_eq!(first.structure_digest(), second.structure_digest());
    assert_eq!(first.render_structure(), second.render_structure());
}
