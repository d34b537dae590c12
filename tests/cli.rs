//! End-to-end checks of the `gpu-denovo` binary's argument handling:
//! every subcommand rejects what it does not understand with exit
//! status 1 and a message naming the offending argument, instead of
//! silently running something else or panicking.

use std::process::{Command, Output};

fn gpu_denovo(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gpu-denovo"))
        .args(args)
        // Keep test runs out of the shared result cache.
        .env(
            "GSIM_CACHE_DIR",
            std::env::temp_dir().join("gsim-cli-test-cache"),
        )
        .output()
        .expect("spawn gpu-denovo")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn a_misspelled_flag_fails_and_names_the_flag() {
    let out = gpu_denovo(&["run", "SPM_G", "--confg", "GD"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("--confg"), "names the bad flag: {err}");
    assert!(err.contains("--config"), "lists the valid flags: {err}");
    assert!(out.stdout.is_empty(), "nothing ran");
}

#[test]
fn shards_is_not_a_flag() {
    for args in [
        &["run", "SPM_G", "--shards", "2"][..],
        &["sweep", "--group", "nosync", "--shards", "2", "--no-cache"][..],
    ] {
        let out = gpu_denovo(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("--shards"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn too_many_devices_fail_cleanly() {
    for args in [
        &["run", "SPM_G", "--devices", "16"][..],
        &[
            "sweep",
            "--group",
            "fabric",
            "--devices",
            "16",
            "--no-cache",
        ][..],
    ] {
        let out = gpu_denovo(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(
            err.contains("\"16\"") && err.contains("1..=15"),
            "{args:?}: {err}"
        );
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn stray_positional_arguments_are_rejected() {
    let out = gpu_denovo(&["run", "SPM_G", "DD"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("\"DD\""), "{}", stderr(&out));
}

#[test]
fn a_valid_run_still_succeeds() {
    let out = gpu_denovo(&["run", "SPM_G", "--config", "GD"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.lines().any(|l| l.starts_with("GD ")), "{stdout}");
    assert!(stdout.contains("run verified functionally."), "{stdout}");
}

/// `check --bench` with a bad value fails before the litmus battery
/// runs: exit 1, an error naming `--bench`, and no battery on stdout.
fn assert_check_fails_before_the_battery(args: &[&str]) {
    let out = gpu_denovo(args);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("--bench"), "{args:?}: {err}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("conformance battery"),
        "{args:?}: the battery ran first: {stdout}"
    );
}

#[test]
fn check_bench_without_a_value_fails_before_the_battery() {
    assert_check_fails_before_the_battery(&["check", "--bench"]);
}

#[test]
fn check_with_an_unknown_bench_fails_before_the_battery() {
    assert_check_fails_before_the_battery(&["check", "--bench", "NOPE"]);
}
