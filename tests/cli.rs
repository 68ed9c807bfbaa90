//! The `bpc` binary at its command line: bad input is a message and a
//! non-zero exit, never a panic; the flags of the retired modes are gone;
//! and the parallel engine prints the sequential engine's verdict.

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
    ] {
        let mut args = vec!["--app", "fig1b"];
        args.extend_from_slice(flags);
        let out = bpc(&args);
        assert_eq!(out.status.code(), Some(2), "{flags:?}");
        let want = format!("unknown flag '{}'", flags[0]);
        assert!(stderr(&out).contains(&want), "{flags:?}: {}", stderr(&out));
    }
}

#[test]
fn two_threads_print_the_sequential_verdict() {
    let verdict = |threads: &str| {
        let out = bpc(&[
            "--app",
            "fig1b",
            "--frames",
            "1",
            "--threads",
            threads,
            "--comm-model",
            "uniform:64",
        ]);
        assert!(
            out.status.success(),
            "{threads} thread(s): {}",
            stderr(&out)
        );
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find(|l| l.starts_with("real-time "))
            .expect("a verdict line")
            .to_string()
    };
    assert_eq!(verdict("2"), verdict("1"));
}
