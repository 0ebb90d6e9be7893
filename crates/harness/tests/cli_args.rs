//! A bad command line is a usage error: the `experiments` binary prints
//! a message and exits 2, as every subcommand does, instead of
//! panicking with a backtrace.

use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_experiments");

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
    let cases: [&[&str]; 9] = [
        &["--config", "SpecSched_4", "--window", "x"],
        &["--config", "SpecSched_4", "--window"],
        &["--config"],
        &[
            "--config",
            "SpecSched_4",
            "--format",
            "occupancy",
            "--every",
            "0",
        ],
        &[
            "--config",
            "SpecSched_4",
            "--format",
            "occupancy",
            "--every",
            "-1",
        ],
        &["--config", "NoSuchConfig_4"],
        &["--bench", "no_such_benchmark", "--config", "SpecSched_4"],
        &[
            "--format",
            "occupancy",
            "--config",
            "SpecSched_4",
            "--config",
            "SpecSched_4_Crit",
        ],
        &[
            "--config",
            "SpecSched_4",
            "--format",
            "perfetto",
            "--every",
            "2",
        ],
    ];
    for case in cases {
        let mut args = vec!["trace", "--bench", "mix_int"];
        args.extend_from_slice(case);
        assert_usage_error(EXE, &args);
    }
}
