//! Planner differential for the structured deadlock outcome (DESIGN.md
//! §13).
//!
//! Fingerprints, tapes and sink items of both planners on every example
//! application are `backend_golden`'s record, and their traces are
//! `trace_determinism`'s. What remains here is the wedge: the mask planner
//! (`Backend::Auto`) must diagnose a capacity deadlock exactly as the scan
//! (`Backend::Interpreted`, the oracle) does.

use bp_apps::{apps, SLOW, SMALL};
use bp_compiler::{compile, CompileOptions};
use bp_core::CommModel;
use bp_sim::{Backend, SimConfig, SimOutcome, TimedSimulator};

const FRAMES: u32 = 2;

/// Structured deadlock outcomes survive the planner switch: pinning
/// `temporal_iir`'s capacities to a uniform 64 (disabling the
/// feedback-aware back-edge sizing) wedges the loop, and the masked
/// planner must assemble the identical `DeadlockReport` — wait-for cycle,
/// occupancies, and capacity-bump suggestion included — under direct
/// delivery and under a uniform delay.
#[test]
fn compiled_deadlock_reports_are_identical() {
    let app = apps::temporal_iir(SMALL, SLOW);
    let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
    for comm in [CommModel::zero(), CommModel::uniform(64e-9, 1e-9)] {
        let outcome_of = |backend: Backend| -> SimOutcome {
            let config = SimConfig::new(FRAMES)
                .with_comm(comm.clone())
                .with_backend(backend)
                .with_channel_capacity(64);
            TimedSimulator::new(&compiled.graph, &compiled.mapping, config)
                .expect("instantiate")
                .run_outcome()
        };
        let SimOutcome::Deadlocked(oracle) = outcome_of(Backend::Interpreted) else {
            panic!("temporal_iir must capacity-deadlock when pinned to 64 under {comm:?}");
        };
        let SimOutcome::Deadlocked(got) = outcome_of(Backend::Auto) else {
            panic!("the masked planner did not deadlock under {comm:?}");
        };
        assert_eq!(
            oracle, got,
            "DeadlockReport diverged on the masked planner under {comm:?}"
        );
    }
}
