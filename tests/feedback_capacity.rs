//! Feedback-aware channel capacity derivation (DESIGN.md §12).
//!
//! Three guarantees are pinned here:
//!
//! 1. **The temporal_iir deadlock is fixed**: under the derived capacity
//!    plan (no explicit capacity configuration at all), `temporal_iir`
//!    completes at every preset point under all three comm-model shapes.
//! 2. **The old deadlock is still reproducible, and structured**: pinning
//!    a uniform 64-item capacity (which disables the derivation)
//!    reproduces the classic wait-for cycle, now surfaced as a
//!    `DeadlockReport` naming the loop channels, with and without
//!    communication delay.
//! 3. **Acyclic apps are untouched**: the derived plan for every acyclic
//!    example application has zero overrides and the historical
//!    widest-row default, so the golden digests in `tests/determinism.rs`
//!    cannot have moved.

use bp_apps::{apps, examples, BIG, FAST, SLOW, SMALL};
use bp_compiler::{compile, CompileOptions};
use bp_core::{CommModel, Dim2};
use bp_sim::{SimConfig, SimOutcome, TimedSimulator};

const FRAMES: u32 = 2;

fn models() -> Vec<(&'static str, CommModel)> {
    vec![
        ("zero", CommModel::zero()),
        ("uniform", CommModel::uniform(64e-9, 1e-9)),
        ("grid", CommModel::grid(32e-9, 8e-9, 1e-9)),
    ]
}

fn run_iir(dim: Dim2, rate: f64, comm: &CommModel) -> SimOutcome {
    let app = apps::temporal_iir(dim, rate);
    let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
    let config = SimConfig::new(FRAMES).with_comm(comm.clone());
    TimedSimulator::new(&compiled.graph, &compiled.mapping, config)
        .expect("instantiate")
        .run_outcome()
}

/// Guarantee 1: the derived plan keeps `temporal_iir` live everywhere the
/// paper's preset grid samples it.
#[test]
fn temporal_iir_completes_at_every_preset_point() {
    // BIG/FAST is excluded: at that load the parallelizer wants to split
    // the loop's merge node, which data-flow analysis rejects — a
    // pre-existing compiler limitation (loop parallelization), not a
    // capacity question.
    for (dim, rate) in [(SMALL, SLOW), (SMALL, FAST), (BIG, SLOW)] {
        for (mname, comm) in models() {
            if let SimOutcome::Deadlocked(d) = run_iir(dim, rate, &comm) {
                panic!(
                    "temporal_iir {}x{} @ {rate} Hz under {mname} deadlocked \
                     despite derived capacities:\n{}",
                    dim.w,
                    dim.h,
                    d.render()
                );
            }
        }
    }
}

/// Guarantee 2: the historical deadlock still exists behind the explicit
/// uniform pin, as a structured report — wait-for cycle naming all three
/// loop channels, full occupancies, and the minimal capacity bump — under
/// direct delivery and under a uniform delay (where sender-side credit
/// accounting replaces direct queue inspection). That both planners
/// assemble the identical report is `backend_differential`'s test; the
/// rendered error is `trace_determinism`'s and `comm_delay`'s.
#[test]
fn pinned_capacity_reproduces_the_classic_deadlock_identically() {
    let app = apps::temporal_iir(SMALL, SLOW);
    let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
    for comm in [CommModel::zero(), CommModel::uniform(64e-9, 1e-9)] {
        let config = SimConfig::new(FRAMES)
            .with_comm(comm.clone())
            .with_channel_capacity(64);
        let outcome = TimedSimulator::new(&compiled.graph, &compiled.mapping, config)
            .expect("instantiate")
            .run_outcome();
        let SimOutcome::Deadlocked(seq) = outcome else {
            panic!("expected a capacity deadlock under the 64-item pin and {comm:?}");
        };
        assert!(
            seq.blocked_cycle,
            "the 64-item pin must produce a wait-for cycle, got: {}",
            seq.render()
        );
        let names: Vec<String> = seq
            .cycle
            .iter()
            .map(|h| format!("{}.{} -> {}.{}", h.src, h.src_port, h.dst, h.dst_port))
            .collect();
        for channel in [
            "Mix.out -> Half.in",
            "Half.out -> FrameDelay.in",
            "FrameDelay.out -> Mix.in1",
        ] {
            assert!(
                names.iter().any(|n| n == channel),
                "wait-for cycle missing channel '{channel}': {names:?}"
            );
        }
        assert!(
            seq.cycle.iter().all(|h| h.is_full()),
            "every wait-for-cycle hop must block its producer: {}",
            seq.render()
        );
        let bump = seq
            .min_capacity_bump
            .as_ref()
            .expect("a full cycle admits a minimal capacity bump");
        assert!(bump.required > bump.current, "nonsensical bump: {bump:?}");
    }
}

/// Guarantee 3: the derivation is invisible to acyclic graphs. Every
/// acyclic example app's derived plan is exactly the historical flat rule
/// — the widest-row default with zero overrides — so the capacity a
/// simulation resolves is unchanged from the pre-derivation seed.
#[test]
fn acyclic_apps_keep_the_widest_row_plan() {
    for (name, build) in examples().into_iter().filter(|&(n, _)| n != "temporal_iir") {
        let app = build();
        let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
        let report = &compiled.report.capacities;
        assert!(
            report.loops.is_empty(),
            "{name}: unexpectedly reported a feedback loop"
        );
        assert!(
            report.plan.overrides().is_empty(),
            "{name}: acyclic app gained capacity overrides {:?}",
            report.plan.overrides()
        );
        assert_eq!(
            report.plan.default,
            bp_core::capacity::derive_default_capacity(&compiled.graph),
            "{name}: plan default moved off the widest-row rule"
        );
    }
}

/// The derivation itself, as the compiler reports it: `temporal_iir` at
/// SMALL primes 20·12 + 12 + 1 = 253 items, so its single back edge is
/// sized to 254 (the whole circulating population parks there whenever
/// external input pauses, plus one item of headroom for the engine's
/// `len <= cap - 2` firing rule) while every other channel keeps the
/// 64-item default.
#[test]
fn temporal_iir_derives_exactly_one_back_edge_override() {
    let app = apps::temporal_iir(SMALL, SLOW);
    let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
    let report = &compiled.report.capacities;
    assert_eq!(report.plan.default, 64);
    assert_eq!(report.loops.len(), 1);
    let lp = &report.loops[0];
    assert_eq!(lp.nodes, ["Mix", "Half", "FrameDelay"]);
    assert_eq!(lp.back_edges, ["FrameDelay.out -> Mix.in1"]);
    assert_eq!(lp.initial_tokens, 253);
    assert_eq!(lp.capacity, 254);
    assert_eq!(report.plan.overrides().len(), 1);
    assert_eq!(report.plan.overrides()[0].1, 254);
}
