//! A bad sweep command line is a usage error: the `experiments` binary
//! prints a message and exits 2, as every subcommand does, instead of
//! panicking with a backtrace.

use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_experiments");

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
        let out = Command::new(EXE)
            .args(args)
            .current_dir(std::env::temp_dir())
            .output()
            .expect("spawn experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    }
}
