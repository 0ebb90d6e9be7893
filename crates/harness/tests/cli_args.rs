//! A bad command line is a usage error: the `experiments` and `trace`
//! binaries print a message and exit 2, as every subcommand does,
//! instead of panicking with a backtrace.

use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_experiments");
const TRACE: &str = env!("CARGO_BIN_EXE_trace");

/// Runs `exe` with `args` and asserts a clean usage error.
fn assert_usage_error(exe: &str, args: &[&str]) {
    let out = Command::new(exe)
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("spawn binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
}

#[test]
fn bad_sweep_arguments_exit_2_without_panicking() {
    let cases: [&[&str]; 7] = [
        &["fig5", "--jobs", "x"],
        &["fig5", "--jobs"],
        &["fig5", "--out"],
        &["fig5", "--checkpoint-dir"],
        &["fig5", "--no-cache", "--resume"],
        &["no_such_experiment", "--no-cache"],
        &["--smoke", "-j", "-3"],
    ];
    for args in cases {
        assert_usage_error(EXE, args);
    }
}

#[test]
fn bad_trace_arguments_exit_2_without_panicking() {
    let cases: [&[&str]; 7] = [
        &["mix_int", "--cycles", "x"],
        &["mix_int", "--skip"],
        &["mix_int", "--config"],
        &["mix_int", "--every", "0"],
        &["mix_int", "--every", "-1"],
        &["mix_int", "--config", "NoSuchConfig_4"],
        &["no_such_benchmark"],
    ];
    for args in cases {
        assert_usage_error(TRACE, args);
    }
}
