//! The `swrender` binary's argument handling, checked by spawning it: bad
//! arguments exit 2 with a message naming what was wrong, before any volume
//! is generated.

use std::process::Command;

/// Runs `swrender` with `args` and expects exit code 2; returns its stderr.
fn rejected(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_swrender"))
        .args(args)
        .output()
        .expect("spawn swrender");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    stderr
}

#[test]
fn unknown_algorithm_and_platform_are_rejected_before_any_work() {
    // A base this large takes seconds to generate; the typo must not pay it.
    let stderr = rejected(&["--base", "512", "--algorithm", "nwe"]);
    assert!(stderr.contains("unknown algorithm nwe"), "{stderr}");
    assert!(!stderr.contains("generating"), "{stderr}");
    let stderr = rejected(&["--base", "512", "--simulate", "dahs"]);
    assert!(stderr.contains("unknown platform dahs"), "{stderr}");
    assert!(!stderr.contains("generating"), "{stderr}");
}

#[test]
fn non_numeric_values_name_the_flag_and_the_value() {
    for flag in ["--threads", "--base", "--seed"] {
        let stderr = rejected(&[flag, "abc"]);
        let want = format!("{flag} expects a number, got \"abc\"");
        assert!(stderr.contains(&want), "{stderr}");
    }
}

#[test]
fn the_removed_benchmark_flags_are_unknown() {
    let stderr = rejected(&["--bench"]);
    assert!(stderr.contains("unknown flag --bench"), "{stderr}");
    let stderr = rejected(&["--record-trace", "x"]);
    assert!(stderr.contains("unknown flag --record-trace"), "{stderr}");
    let help = rejected(&["--help"]);
    for gone in ["swr-bench", "--bench", "--record-trace"] {
        assert!(!help.contains(gone), "--help still mentions {gone}");
    }
}
