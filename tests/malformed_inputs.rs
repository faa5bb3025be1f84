//! Malformed input must end in an error message and exit code 1, never a
//! panic. Release builds use `panic = "abort"`, so a panic (or a stack
//! overflow) kills the process with a signal instead; run this file with
//! `cargo test --release --test malformed_inputs` to exercise exactly what
//! users run.
//!
//! Each case writes one fixture file and runs the `juggler` binary on it.
//! Unknown command-line flags are errors too, not silently ignored.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("juggler-malformed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn fixture(name: &str, body: &str) -> PathBuf {
    let path = scratch().join(name);
    std::fs::write(&path, body).expect("write fixture");
    path
}

/// Runs `juggler <args>` and asserts a clean failure: exit code 1 and an
/// `error:` line mentioning `expect`.
fn errors(args: &[&str], expect: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_juggler"))
        .args(args)
        .output()
        .expect("juggler runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(
        stderr.contains("error:") && stderr.contains(expect),
        "{args:?}: want `error: ...{expect}...`, got:\n{stderr}"
    );
}

/// [`errors`] for `juggler <args> <path>`.
fn fails_cleanly(args: &[&str], path: &Path, expect: &str) {
    let path = path.to_str().expect("utf-8 temp path");
    errors(&[args, &[path]].concat(), expect);
}

fn tenants(name: &str, body: &str, expect: &str) {
    fails_cleanly(&["tenants"], &fixture(name, body), expect);
}

#[test]
fn deeply_nested_spec_is_an_error_not_a_stack_overflow() {
    tenants(
        "deep.json",
        &"[".repeat(200_000),
        "recursion limit exceeded",
    );
}

#[test]
fn surrogate_escapes_decode_or_fail_cleanly() {
    // A valid pair decodes to one character (then names no workload).
    tenants(
        "pair.json",
        r#"{"tenants": [{"workload": "\ud83d\ude00"}]}"#,
        "unknown workload `\u{1F600}`",
    );
    tenants(
        "lone.json",
        r#"{"tenants": [{"workload": "\ud83d"}]}"#,
        "lone surrogate",
    );
}

#[test]
fn overflowing_number_is_out_of_range() {
    tenants(
        "inf.json",
        r#"{"pressure": 1e999, "tenants": [{"workload": "LOR"}]}"#,
        "number out of range",
    );
}

#[test]
fn hostile_machine_counts_are_rejected() {
    for (name, machines, expect) in [
        ("zero.json", "0", "`machines` must be in 1..="),
        ("negative.json", "-3", "out of range for u32"),
        ("float.json", "1e12", "expected integer"),
        ("huge.json", "4294967295", "`machines` must be in 1..="),
    ] {
        let body = format!(r#"{{"machines": {machines}, "tenants": [{{"workload": "LOR"}}]}}"#);
        tenants(name, &body, expect);
    }
}

#[test]
fn unknown_slo_key_is_rejected() {
    let slo = fixture("slo.json", r#"{"max_mean_time_err": 0.05}"#);
    let store = scratch().join("empty-store");
    let store = store.to_str().expect("utf-8 temp path");
    fails_cleanly(
        &["health", "LOR", "--store", store, "--slo"],
        &slo,
        "unknown key `max_mean_time_err`",
    );
    fails_cleanly(
        &["watch", "--store", store, "--slo"],
        &slo,
        "unknown key `max_mean_time_err`",
    );
}

#[test]
fn dangling_value_flags_are_errors() {
    for (args, flag) in [
        (&["train", "LOR", "--out"][..], "--out"),
        (&["train", "LOR", "--threads"], "--threads"),
        (&["profile", "KMEANS", "--store"], "--store"),
        (&["doctor", "LOR", "--format"], "--format"),
        (&["runs", "list", "--limit"], "--limit"),
        (&["perf-report", "--results"], "--results"),
    ] {
        errors(args, &format!("{flag} requires a value"));
    }
}

#[test]
fn unknown_flags_are_errors() {
    for (args, want) in [
        (
            &["train", "SVM", "--bogus", "3"][..],
            "unknown flag --bogus for train",
        ),
        // `--seed` belongs to `chaos`; `train` must not train the default
        // seed as if it had been honoured.
        (
            &["train", "LOR", "--seed", "416"],
            "unknown flag --seed for train",
        ),
        (
            &["runs", "list", "--nope"],
            "unknown flag --nope for runs list",
        ),
        // Host stage timings live in `juggler profile`; the old timing
        // switches are gone, not silently ignored.
        (
            &["trace", "KMEANS", "--no-pipeline"],
            "unknown flag --no-pipeline for trace",
        ),
        (
            &["trace", "KMEANS", "--threads", "1"],
            "unknown flag --threads for trace",
        ),
        (
            &["doctor", "KMEANS", "--timings"],
            "unknown flag --timings for doctor",
        ),
        (
            &["metrics", "KMEANS", "--timings"],
            "unknown flag --timings for metrics",
        ),
    ] {
        errors(args, want);
    }
}

/// Runs `juggler <args>` and asserts it neither aborts nor fails
/// silently: exit 0, or exit 1 with an `error:` line.
fn exits_cleanly(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_juggler"))
        .args(args)
        .output()
        .expect("juggler runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    match out.status.code() {
        Some(0) => {}
        Some(1) => assert!(
            stderr.contains("error:"),
            "{args:?}: exit 1 without error:\n{stderr}"
        ),
        code => panic!("{args:?}: exit {code:?} (an abort?)\n{stderr}"),
    }
}

#[test]
fn corrupt_stored_manifests_never_abort() {
    // Each fixture stands in for a recorded manifest in its own store.
    // `runs list` (and the ledger summary behind it) skips unreadable
    // documents on purpose; `runs show`/`runs diff` parse the file, by id
    // and by path, and `health` folds the store.
    const ID: &str = "0123456789abcdef";
    let deep = "[".repeat(100_000);
    for (name, body) in [
        ("garbage", "\u{0}not a manifest\u{7f}"),
        ("empty", ""),
        (
            "truncated",
            r#"{"envelope": {"schema_version": 1, "kind": "run"}, "content": {"workload": "LOR", "par"#,
        ),
        ("deep", deep.as_str()),
        ("wrong-type", r#"{"workload":5}"#),
    ] {
        let store = scratch().join(format!("store-{name}"));
        std::fs::create_dir_all(&store).expect("store dir");
        let manifest = store.join(format!("{ID}.json"));
        std::fs::write(&manifest, body).expect("write fixture");
        let reports = scratch().join(format!("reports-{name}"));
        let (store, manifest, reports) = (
            store.to_str().expect("utf-8 temp path"),
            manifest.to_str().expect("utf-8 temp path"),
            reports.to_str().expect("utf-8 temp path"),
        );
        for args in [
            &["runs", "show", ID, "--store", store][..],
            &["runs", "show", manifest, "--store", store],
            &["runs", "diff", ID, manifest, "--store", store],
            &["runs", "list", "--store", store],
            &["health", "LOR", "--store", store, "--report-store", reports],
        ] {
            exits_cleanly(args);
        }
    }
}

/// Runs `juggler <args>`, asserts exit 0, and returns its stdout.
fn stdout_of(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_juggler"))
        .args(args)
        .output()
        .expect("juggler runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn non_utf8_store_file_is_skipped_by_health_and_watch() {
    // One real manifest, then a file that is not UTF-8 at all: `health`
    // and `watch` skip it like an unparseable manifest (and like `runs
    // list` does), printing exactly what they print without it.
    let root = scratch().join("store-non-utf8");
    let _ = std::fs::remove_dir_all(&root);
    let store = root.join("runs");
    let (store_s, clean_reports, dirty_reports) = (
        store.to_str().expect("utf-8 temp path"),
        root.join("reports-clean"),
        root.join("reports-dirty"),
    );
    stdout_of(&[
        "runs",
        "record",
        "KMEANS",
        "--threads",
        "1",
        "--store",
        store_s,
    ]);
    let health = |reports: &Path| {
        let reports = reports.to_str().expect("utf-8 temp path");
        stdout_of(&[
            "health",
            "KMEANS",
            "--store",
            store_s,
            "--report-store",
            reports,
        ])
    };
    let clean = (
        health(&clean_reports),
        stdout_of(&["watch", "--store", store_s]),
    );
    std::fs::write(store.join("ffffffffffffffff.json"), b"\xff\xfe").expect("write bad file");
    // A fresh report store, so the fold parses every file instead of
    // reading the sample cache the first fold left behind.
    let dirty = (
        health(&dirty_reports),
        stdout_of(&["watch", "--store", store_s]),
    );
    assert_eq!(clean, dirty);
    let _ = std::fs::remove_dir_all(&root);
}
