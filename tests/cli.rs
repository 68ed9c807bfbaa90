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
        &["--backend", "interpreted"],
    ] {
        let mut args = vec!["--app", "fig1b"];
        args.extend_from_slice(flags);
        let out = bpc(&args);
        assert_eq!(out.status.code(), Some(2), "{flags:?}");
        let want = format!("unknown flag '{}'", flags[0]);
        assert!(stderr(&out).contains(&want), "{flags:?}: {}", stderr(&out));
    }
}

/// A fleet needs a worker, a positive round budget and an admission
/// slot; zero is a usage error naming the flag, not an assertion failure
/// inside the host.
#[test]
fn zero_workers_or_budget_are_usage_errors() {
    for flags in [
        &["serve", "--workers", "0"][..],
        &["serve", "--budget", "0", "--tenants", "2"],
        &["serve", "--max-active", "0", "--tenants", "2"],
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

/// A run of no frames verifies nothing: `--frames 0` is a usage error
/// naming the flag, for an application and for a fleet, not a run that
/// reports the real-time constraint met at 0 Hz.
#[test]
fn zero_frames_is_a_usage_error() {
    for flags in [
        &["--app", "fig1b", "--frames", "0"][..],
        &["serve", "--tenants", "2", "--frames", "0"],
    ] {
        let out = bpc(flags);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {err}");
        assert!(err.starts_with("--frames must be"), "{flags:?}: {err}");
        assert!(out.stdout.is_empty(), "{flags:?} ran first: {err}");
    }
}

/// A channel must hold at least one item: `--capacity 0` is a usage error
/// naming the flag, like `--workers 0`, not a "capacity deadlock" into
/// queues that hold nothing.
#[test]
fn zero_capacity_is_a_usage_error() {
    let out = bpc(&["--app", "fig1b", "--frames", "1", "--capacity", "0"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    let first = err.lines().next().unwrap_or_default();
    assert!(
        first.contains("--capacity"),
        "does not name the flag: {err}"
    );
    assert!(!err.contains("items queued"), "{err}");
    assert!(!err.contains("panicked at"), "{err}");
}

/// A firing needs 2 free items on each output, so a 1-item channel can
/// never carry a kernel's output: `--capacity 1` is refused before the run
/// with a simulation error naming a channel, not run into a "capacity
/// deadlock" whose dump lists no node.
#[test]
fn capacity_one_is_refused_before_the_run() {
    let out = bpc(&["--app", "fig1b", "--frames", "1", "--capacity", "1"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.starts_with("simulation error: channel "),
        "does not name a channel: {err}"
    );
    assert!(err.contains("has capacity 1;"), "{err}");
    assert!(err.contains("at least 2 items"), "{err}");
    assert!(!err.contains("deadlock"), "{err}");
    assert!(!err.contains("panicked at"), "{err}");
    // Two items run to a verdict (a missed one: the queues are too short
    // for the rate).
    let out = bpc(&["--app", "fig1b", "--frames", "1", "--capacity", "2"]);
    let verdict = String::from_utf8_lossy(&out.stdout);
    assert!(verdict.contains("real-time MISSED"), "{}", stderr(&out));
    assert!(
        !stderr(&out).contains("simulation error"),
        "{}",
        stderr(&out)
    );
}

/// A communication delay must be a finite number of cycles: `inf` or `nan`
/// is a usage error naming the flag, not a run whose simulated time is
/// +inf and whose verdict reads "achieved 0.0 Hz".
#[test]
fn non_finite_comm_model_is_a_usage_error() {
    for spec in ["uniform:inf", "uniform:0:inf", "grid:1:nan", "grid:-1:2"] {
        let out = bpc(&["--app", "fig1b", "--frames", "1", "--comm-model", spec]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{spec}: {err}");
        assert!(err.contains("--comm-model"), "{spec}: {err}");
        assert!(!err.contains("panicked at"), "{spec}: {err}");
        assert!(out.stdout.is_empty(), "{spec} ran before refusing the flag");
    }
}

/// A capacity deadlock reaches the user as one `simulation error:` line:
/// the prefix is the error's own, not repeated by `bpc`. (The feedback
/// loop of `iir` wedges when every channel is pinned to 64 items.)
#[test]
fn simulation_errors_carry_one_prefix() {
    let out = bpc(&["--app", "iir", "--capacity", "64", "--quiet"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("capacity deadlock"), "{err}");
    assert_eq!(err.matches("simulation error").count(), 1, "{err}");
}
