//! The `bpc` binary at its command line: bad input is a message and a
//! non-zero exit, never a panic; the flags of the retired modes are gone;
//! and an error is reported once, under its own category.

use std::process::{Command, Output};

fn bpc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bpc"))
        .args(args)
        .output()
        .expect("bpc runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A rate the event schedule cannot be built from (period 1/0, NaN, or
/// negative) is refused by graph validation; left to the simulator, an
/// infinite period aborts inside the event queue and the other two run to
/// a verdict against "required 0.0 Hz".
#[test]
fn bad_rates_are_compile_errors_not_panics() {
    for rate in ["0", "nan", "-5"] {
        let out = bpc(&["--app", "fig1b", "--rate", rate, "--frames", "1", "--quiet"]);
        let err = stderr(&out);
        assert!(!out.status.success(), "--rate {rate} exited 0");
        assert!(err.contains("compile error"), "--rate {rate}: {err}");
        assert!(!err.contains("panicked at"), "--rate {rate}: {err}");
    }
}

#[test]
fn retired_mode_flags_are_unknown() {
    for flags in [
        &["--sync", "optimistic"][..],
        &["--pin-workers"],
        &["--batch", "16"],
        &["--threads", "2"],
    ] {
        let mut args = vec!["--app", "fig1b"];
        args.extend_from_slice(flags);
        let out = bpc(&args);
        assert_eq!(out.status.code(), Some(2), "{flags:?}");
        let want = format!("unknown flag '{}'", flags[0]);
        assert!(stderr(&out).contains(&want), "{flags:?}: {}", stderr(&out));
    }
}

/// A fleet needs a worker and a positive round budget; zero is a usage
/// error naming the flag, not an assertion failure inside the host.
#[test]
fn zero_workers_or_budget_are_usage_errors() {
    for flags in [
        &["serve", "--workers", "0"][..],
        &["serve", "--budget", "0", "--tenants", "2"],
    ] {
        let out = bpc(flags);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {err}");
        assert!(
            err.contains(flags[1]),
            "{flags:?} does not name the flag: {err}"
        );
        assert!(!err.contains("panicked at"), "{flags:?}: {err}");
    }
}

/// A capacity deadlock reaches the user as one `simulation error:` line:
/// the prefix is the error's own, not repeated by `bpc`.
#[test]
fn simulation_errors_carry_one_prefix() {
    let out = bpc(&[
        "--app",
        "fig1b",
        "--capacity",
        "0",
        "--frames",
        "1",
        "--quiet",
    ]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("capacity deadlock"), "{err}");
    assert_eq!(err.matches("simulation error").count(), 1, "{err}");
}
