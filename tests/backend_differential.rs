//! Fingerprint-differential suite pinning the default planner choice
//! (`Backend::Auto`: readiness masks wherever a kernel fits them) to the
//! scan everywhere (`Backend::Interpreted`, the oracle; DESIGN.md §13).
//!
//! For every example application × comm model, the scan is the reference;
//! `Auto` must reproduce its `SimReport::fingerprint()` and sink item
//! streams bit for bit. Traces and structured
//! `Deadlocked(DeadlockReport)` outcomes are held to the same standard:
//! the planner may change *how fast* the simulator runs, never what it
//! computes, when, or how it diagnoses a wedge.

use bp_apps::{apps, App, SLOW, SMALL};
use bp_compiler::{compile, CompileOptions};
use bp_core::{CommModel, Dim2, Item};
use bp_sim::{Backend, SimConfig, SimOutcome, SimReport, TimedSimulator, TraceOptions};

const FRAMES: u32 = 2;

/// Every example application, by name (kept in sync with
/// `tests/determinism.rs` and `tests/comm_delay.rs`).
const EXAMPLE_APPS: &[&str] = &[
    "fig1b",
    "bayer",
    "histogram",
    "parallel_buffer",
    "multi_conv",
    "temporal_iir",
    "fir_radio",
    "edge_detect",
    "analytics",
    "stereo_diff",
    "camera_bank",
];

fn build_example(name: &str) -> App {
    match name {
        "fig1b" => apps::fig1b(SMALL, SLOW),
        "bayer" => apps::bayer(SMALL, SLOW),
        "histogram" => apps::histogram_app(SMALL, SLOW, 32),
        "parallel_buffer" => apps::parallel_buffer_test(Dim2::new(64, 12), 10.0),
        "multi_conv" => apps::multi_conv(SMALL, SLOW, 3),
        "temporal_iir" => apps::temporal_iir(SMALL, SLOW),
        "fir_radio" => apps::fir_radio(72, 100.0),
        "edge_detect" => apps::edge_detect(SMALL, SLOW, 0.5),
        "analytics" => apps::analytics(SMALL, SLOW),
        "stereo_diff" => apps::stereo_diff(SMALL, SLOW),
        "camera_bank" => apps::camera_bank(3, SMALL, SLOW),
        _ => unreachable!("unknown app {name}"),
    }
}

/// The three model shapes of `tests/comm_delay.rs`: direct delivery, a
/// uniform 64-cycle latency, and a distance-dependent grid.
fn models() -> Vec<(&'static str, CommModel)> {
    vec![
        ("zero", CommModel::zero()),
        ("uniform", CommModel::uniform(64e-9, 1e-9)),
        ("grid", CommModel::grid(32e-9, 8e-9, 1e-9)),
    ]
}

fn config_with(comm: &CommModel, backend: Backend) -> SimConfig {
    SimConfig::new(FRAMES)
        .with_comm(comm.clone())
        .with_backend(backend)
}

/// Run `name` under `comm` on the given backend, returning the report
/// result plus the sink item streams.
fn run(
    name: &str,
    comm: &CommModel,
    backend: Backend,
) -> (bp_core::Result<SimReport>, Vec<Vec<Item>>) {
    let app = build_example(name);
    let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
    let config = config_with(comm, backend);
    let out = TimedSimulator::new(&compiled.graph, &compiled.mapping, config)
        .expect("instantiate")
        .run();
    let items = app.sinks.iter().map(|(_, h)| h.items()).collect();
    (out, items)
}

/// For every app × comm model, the masked planner's report fingerprint
/// and sink items equal the scan's.
#[test]
fn compiled_matches_interpreted_everywhere() {
    for &name in EXAMPLE_APPS {
        for (mname, comm) in models() {
            let (oracle, oracle_items) = run(name, &comm, Backend::Interpreted);
            let (got, got_items) = run(name, &comm, Backend::Auto);
            match (&oracle, &got) {
                (Ok(o), Ok(c)) => assert_eq!(
                    o.fingerprint(),
                    c.fingerprint(),
                    "{name} under {mname}: masked fingerprint diverged"
                ),
                (Err(oe), Err(ce)) => assert_eq!(
                    oe.to_string(),
                    ce.to_string(),
                    "{name} under {mname}: error diverged"
                ),
                _ => panic!(
                    "{name} under {mname}: outcomes diverged: oracle={oracle:?} masked={got:?}"
                ),
            }
            assert_eq!(
                oracle_items, got_items,
                "{name} under {mname}: sink items diverged"
            );
        }
    }
}

/// Trace equality: the masked planner records the identical event
/// stream — firings, queue depths, tokens, comm events, and stall
/// attributions — not just the same aggregate report.
#[test]
fn compiled_traces_are_bitwise_identical() {
    for &name in ["fig1b", "temporal_iir", "camera_bank"].iter() {
        for (mname, comm) in models() {
            let trace_of = |backend: Backend| {
                let app = build_example(name);
                let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
                let config = config_with(&comm, backend).with_trace(TraceOptions::default());
                let (report, trace, _) =
                    TimedSimulator::new(&compiled.graph, &compiled.mapping, config)
                        .expect("instantiate")
                        .run_with_artifacts()
                        .expect("runs");
                (report.fingerprint(), trace.expect("trace recorded"))
            };
            let (ofp, otrace) = trace_of(Backend::Interpreted);
            let (cfp, ctrace) = trace_of(Backend::Auto);
            assert_eq!(ofp, cfp, "{name} under {mname}: fingerprint diverged");
            assert_eq!(
                otrace.dropped, ctrace.dropped,
                "{name} under {mname}: trace drop counts diverged"
            );
            assert_eq!(
                otrace.events, ctrace.events,
                "{name} under {mname}: trace event streams diverged"
            );
        }
    }
}

/// Structured deadlock outcomes survive the backend switch: pinning
/// `temporal_iir`'s capacities to a uniform 64 (disabling the
/// feedback-aware back-edge sizing) wedges the loop, and the masked
/// planner must assemble the identical `DeadlockReport` — wait-for cycle,
/// occupancies, and capacity-bump suggestion included.
#[test]
fn compiled_deadlock_reports_are_identical() {
    let comm = CommModel::uniform(64e-9, 1e-9);
    let outcome_of = |backend: Backend| -> SimOutcome {
        let app = build_example("temporal_iir");
        let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
        let config = config_with(&comm, backend).with_channel_capacity(64);
        TimedSimulator::new(&compiled.graph, &compiled.mapping, config)
            .expect("instantiate")
            .run_outcome()
    };
    let SimOutcome::Deadlocked(oracle) = outcome_of(Backend::Interpreted) else {
        panic!("temporal_iir must capacity-deadlock when pinned to 64");
    };
    let SimOutcome::Deadlocked(got) = outcome_of(Backend::Auto) else {
        panic!("the masked planner did not deadlock");
    };
    assert_eq!(oracle, got, "DeadlockReport diverged on the masked planner");
}

/// Feedback capacities: with the derived (feedback-aware) plan,
/// `temporal_iir` completes identically on both planners — the primed
/// loop population, credit flow, and startup const firings all plan
/// identically.
#[test]
fn compiled_feedback_capacities_complete_identically() {
    for (mname, comm) in models() {
        let (oracle, oracle_items) = run("temporal_iir", &comm, Backend::Interpreted);
        let (got, got_items) = run("temporal_iir", &comm, Backend::Auto);
        let o = oracle.expect("temporal_iir completes under derived capacities");
        let c = got.expect("masked temporal_iir completes");
        assert_eq!(
            o.fingerprint(),
            c.fingerprint(),
            "temporal_iir under {mname}: fingerprint diverged"
        );
        assert_eq!(oracle_items, got_items, "temporal_iir under {mname}: items");
    }
}
