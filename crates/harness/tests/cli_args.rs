//! A bad command line is a usage error: the `experiments` binary prints
//! `error: … (see --help)` and exits 2, as every subcommand does,
//! instead of panicking with a backtrace. `--help` exits 0. A bad
//! `--jobs` is rejected by the parser, before any worker starts.

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
    assert!(
        stderr.trim_end().ends_with("(see --help)"),
        "{args:?}: {stderr}"
    );
}

/// The usage errors of one subcommand, each case appended to `cmd`.
fn assert_usage_errors(cmd: &[&str], cases: &[&[&str]]) {
    for case in cases {
        let mut args = cmd.to_vec();
        args.extend_from_slice(case);
        assert_usage_error(EXE, &args);
    }
}

#[test]
fn every_subcommand_answers_help_with_exit_0() {
    for cmd in [
        "", "fuzz", "trace", "snapfuzz", "serve", "client", "run", "chaos", "rvrun",
    ] {
        for help in ["--help", "-h"] {
            let args: Vec<&str> = [cmd, help].into_iter().filter(|a| !a.is_empty()).collect();
            let out = Command::new(EXE)
                .args(&args)
                .current_dir(std::env::temp_dir())
                .output()
                .expect("spawn binary");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
            assert!(
                stderr.starts_with("usage: experiments"),
                "{args:?}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        }
    }
}

#[test]
fn bad_sweep_arguments_exit_2_without_panicking() {
    let cases: [&[&str]; 10] = [
        &["fig5", "--jobs", "x"],
        &["fig5", "--jobs"],
        &["fig5", "--jobs", "0"],
        &["fig5", "--jobs", "1025"],
        &["fig5", "--out"],
        &["fig5", "--checkpoint-dir"],
        &["fig5", "--no-cache", "--resume"],
        &["fig5", "--no-cache", "--checkpoint-dir", "ckpt"],
        &["no_such_experiment", "--no-cache"],
        &["--smoke", "-j", "-3"],
    ];
    for args in cases {
        assert_usage_error(EXE, args);
    }
}

#[test]
fn bad_fuzz_arguments_exit_2_without_panicking() {
    assert_usage_errors(
        &["fuzz"],
        &[
            &["--seeds", "x"],
            &["--seeds"],
            &["--jobs", "0"],
            &["--jobs", "1025"],
            &["--jobs", "x"],
            &["--out"],
            &["--campaign-seed", "zz"],
            &["--repro"],
            &["--no-such-flag"],
        ],
    );
}

#[test]
fn bad_rvrun_arguments_exit_2_without_panicking() {
    assert_usage_errors(
        &["rvrun"],
        &[
            &["--jobs", "0"],
            &["--jobs", "1025"],
            &["--jobs", "x"],
            &["--prog", "sort@1"],
            &["--len", "bogus"],
            &["--delay", "x"],
            &["--config", "NoSuchConfig_4"],
            &["--all", "--config", "Baseline_4"],
            &["--no-such-flag"],
        ],
    );
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

#[test]
fn bad_serve_arguments_exit_2_without_panicking() {
    let cases: [&[&str]; 8] = [
        &["--jobs", "x"],
        &["--jobs"],
        &["--jobs", "0"],
        &["--jobs", "1025"],
        &["--queue-depth", "-1"],
        &["--socket"],
        &["--drain-grace-ms", "soon"],
        &["--no-such-flag"],
    ];
    for case in cases {
        let mut args = vec!["serve"];
        args.extend_from_slice(case);
        assert_usage_error(EXE, &args);
    }
}

#[test]
fn bad_client_arguments_exit_2_without_panicking() {
    let cases: [&[&str]; 9] = [
        &["--cancel-after", "x", "--metrics"],
        &["--cancel-after"],
        &["--socket"],
        &["--prio"],
        &["--stats"],
        &["--health"],
        &["--req"],
        &["--id"],
        &["--id", "r1"],
    ];
    for case in cases {
        let mut args = vec!["client", "--socket", "/nonexistent/ss.sock"];
        args.extend_from_slice(case);
        assert_usage_error(EXE, &args);
    }
}

#[test]
fn bad_run_arguments_exit_2_without_panicking() {
    let cases: [&[&str]; 4] = [
        &["--req"],
        &[],
        &[
            "--req",
            "src=bench:mix_int@0x1 cfg=NoSuchConfig_4 len=w0m10",
        ],
        &["--no-such-flag"],
    ];
    for case in cases {
        let mut args = vec!["run"];
        args.extend_from_slice(case);
        assert_usage_error(EXE, &args);
    }
}

#[test]
fn bad_chaos_arguments_exit_2_without_panicking() {
    let cases: [&[&str]; 5] = [
        &["--seed", "zz"],
        &["--seed"],
        &["--events", "x"],
        &["--dir"],
        &["--no-such-flag"],
    ];
    for case in cases {
        let mut args = vec!["chaos"];
        args.extend_from_slice(case);
        assert_usage_error(EXE, &args);
    }
}

#[test]
fn bad_snapfuzz_arguments_exit_2_without_panicking() {
    let cases: [&[&str]; 5] = [
        &["--seed", "zz"],
        &["--seed"],
        &["--seeds", "x"],
        &["--seeds"],
        &["--no-such-flag"],
    ];
    for case in cases {
        let mut args = vec!["snapfuzz"];
        args.extend_from_slice(case);
        assert_usage_error(EXE, &args);
    }
}

#[test]
fn snapfuzz_reads_a_seed_without_a_prefix_as_decimal() {
    let out = Command::new(EXE)
        .args(["snapfuzz", "--seeds", "1", "--seed", "10"])
        .current_dir(std::env::temp_dir())
        .output()
        .expect("spawn binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.starts_with("snapfuzz seed 0xa: "), "{stdout}");
}
