//! The `juggler` binary's outputs: where it files documents and what
//! `metrics` exports.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh, empty working directory for one test.
fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("juggler-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("workdir");
    dir
}

fn juggler(dir: &PathBuf, args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_juggler"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("juggler runs");
    assert!(
        out.status.success(),
        "juggler {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn profile_is_filed_under_the_working_directory() {
    let dir = workdir("profile");
    juggler(&dir, &["profile", "KMEANS", "--threads", "1"]);
    let filed: Vec<_> = std::fs::read_dir(dir.join("results").join("profiles"))
        .expect("profile ledger created in the working directory")
        .collect();
    assert_eq!(filed.len(), 1, "{filed:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_json_export_is_byte_identical_across_runs() {
    let dir = workdir("metrics");
    let export = || {
        let args = ["metrics", "KMEANS", "--threads", "1", "--format", "json"];
        String::from_utf8(juggler(&dir, &args).stdout).expect("utf-8 export")
    };
    let (first, second) = (export(), export());
    assert!(first.contains("sim_runs_total"), "{first}");
    assert_eq!(first, second, "every registry metric is deterministic");
    std::fs::remove_dir_all(&dir).ok();
}
