//! Usage errors of the `experiments` binary exit 2 and name the flag,
//! before any experiment runs: an unknown flag, `--out-dir` without a
//! value, and an `--out-dir` that cannot be created.

use std::process::Command;

fn usage_error(args: &[&str], flag: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .env_remove("RLB_JOBS")
        .output()
        .expect("run experiments binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} must not run experiments");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    usage_error(&["--bogus", "e2", "--quick"], "--bogus");
}

#[test]
fn out_dir_without_a_value_is_a_usage_error() {
    usage_error(&["e2", "--quick", "--out-dir"], "--out-dir");
}

#[test]
fn uncreatable_out_dir_is_a_usage_error() {
    // A directory cannot be created below a regular file.
    let file = std::env::temp_dir().join(format!("rlb_experiments_out_dir_{}", std::process::id()));
    std::fs::write(&file, b"").expect("create the blocking file");
    let dir = file.join("results");
    usage_error(
        &[
            "e2",
            "--quick",
            "--out-dir",
            dir.to_str().expect("utf-8 path"),
        ],
        "--out-dir",
    );
    let _ = std::fs::remove_file(&file);
}
