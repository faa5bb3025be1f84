//! Malformed input must end in an error message and exit code 1, never a
//! panic. Release builds use `panic = "abort"`, so a panic (or a stack
//! overflow) kills the process with a signal instead; run this file with
//! `cargo test --release --test malformed_inputs` to exercise exactly what
//! users run.
//!
//! Each case writes one fixture file and runs the `juggler` binary on it.

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

/// Runs `juggler <args> <path>` and asserts a clean failure: exit code 1
/// and an `error:` line mentioning `expect`.
fn fails_cleanly(args: &[&str], path: &Path, expect: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_juggler"))
        .args(args)
        .arg(path)
        .output()
        .expect("juggler runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{}: {stderr}", path.display());
    assert!(
        stderr.contains("error:") && stderr.contains(expect),
        "{}: want `error: ...{expect}...`, got:\n{stderr}",
        path.display()
    );
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
