//! Golden test for the phase profiler's structure-only tree: a full LOR
//! training (stages 1-4 plus the stage-5 menu) must render byte-for-byte
//! the committed golden file. Timings never appear in this surface, so
//! the golden is stable across hosts and `JUGGLER_THREADS`.
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --test profile_golden`
//! after an intentional pipeline or instrumentation change, and review
//! the diff: a new phase, a changed call count, or a drifted counter is
//! a behavior change, not noise.

use juggler_suite::juggler::pipeline::{OfflineTraining, TrainingConfig};
use juggler_suite::obs::prof::profiler;
use juggler_suite::workloads::{LogisticRegression, Workload};

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/profile_small.txt")
}

/// The run that produced the golden: LOR trained sequentially with the
/// profiler recording, rendered structure-only (names, call counts,
/// counter deltas — no timings).
fn render_structure() -> String {
    let w = LogisticRegression;
    let config = TrainingConfig {
        threads: 1,
        ..TrainingConfig::default()
    };
    let prof = profiler();
    prof.set_enabled(false);
    prof.reset();
    prof.enable();
    let trained = OfflineTraining::run(&w, &config).expect("training succeeds");
    let paper = w.paper_params();
    let menu = trained.recommend(paper.e(), paper.f());
    let profile = prof.take_profile();
    prof.set_enabled(false);
    assert!(!menu.options.is_empty(), "menu must not be empty");
    profile.render_structure()
}

#[test]
fn structure_tree_matches_golden_file() {
    let got = render_structure();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        eprintln!("updated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {} ({e}); regenerate with \
             UPDATE_GOLDEN=1 cargo test --test profile_golden",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "profile structure drifted from {}; if intentional, regenerate \
         with UPDATE_GOLDEN=1 cargo test --test profile_golden and review",
        golden_path().display()
    );
}

/// The stored profiles under `results/` (a bench record and its baseline)
/// decode and re-encode to exactly the bytes they were written as — the
/// derived `ProfileNode` codec is the canonical form, so ledger ids of
/// stored profiles never move.
#[test]
fn stored_profiles_reencode_byte_for_byte() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    for (file, pointer) in [
        ("BENCH_sim_throughput.json", &["profile"][..]),
        (
            "baselines/BENCH_sim_throughput.json",
            &["baseline", "profile"][..],
        ),
    ] {
        let raw = std::fs::read_to_string(root.join(file)).expect("stored bench record");
        let doc: serde_json::Value = serde_json::from_str(&raw).expect("valid JSON");
        let stored = pointer.iter().fold(&doc, |v, key| &v[*key]);
        let profile = juggler_suite::obs::prof::Profile::from_json_value(stored)
            .unwrap_or_else(|e| panic!("{file}: {e}"));
        assert!(!profile.is_empty(), "{file}: empty profile");
        assert_eq!(
            profile.to_json(),
            serde_json::to_string(stored).unwrap(),
            "{file}: profile JSON drifted"
        );
    }
}
