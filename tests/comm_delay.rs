//! End-to-end regression tests for the inter-PE communication delay model
//! (DESIGN.md §11).
//!
//! **Delay is real**: a nonzero model shifts the schedule, and a grid
//! model's distance term matters, without changing what is computed.
//! That every model reproduces bit for bit on every example app, and that
//! the zero model reproduces the pre-model goldens, is `backend_golden`'s
//! record. **The deadlock diagnostic survives delay**: the rendered
//! wait-for cycle still names the feedback channels.

use bp_apps::{apps, SLOW, SMALL};
use bp_compiler::{compile, CompileOptions};
use bp_core::{CommModel, Item};
use bp_sim::{SimConfig, SimReport, TimedSimulator};

const FRAMES: u32 = 2;

fn config_with(comm: &CommModel) -> SimConfig {
    SimConfig::new(FRAMES).with_comm(comm.clone())
}

fn run_fig1b(comm: &CommModel) -> (bp_core::Result<SimReport>, Vec<Vec<Item>>) {
    let app = apps::fig1b(SMALL, SLOW);
    let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
    let out = TimedSimulator::new(&compiled.graph, &compiled.mapping, config_with(comm))
        .expect("instantiate")
        .run();
    let items = app.sinks.iter().map(|(_, h)| h.items()).collect();
    (out, items)
}

/// A nonzero model genuinely changes the schedule (it is not silently
/// ignored): fig1b's report fingerprint differs between the zero and
/// uniform models, while its sink output — the functional result — stays
/// identical.
#[test]
fn nonzero_model_shifts_the_schedule_but_not_the_output() {
    let (zero, zero_items) = run_fig1b(&CommModel::zero());
    let (delayed, delayed_items) = run_fig1b(&CommModel::uniform(64e-9, 1e-9));
    let zero = zero.expect("runs");
    let delayed = delayed.expect("runs");
    assert_ne!(
        zero.fingerprint(),
        delayed.fingerprint(),
        "a 64-cycle uniform delay left the timed report untouched — \
         the comm model is being ignored"
    );
    assert!(
        delayed.sim_time > zero.sim_time,
        "delay did not extend simulated time ({} vs {})",
        delayed.sim_time,
        zero.sim_time
    );
    assert_eq!(
        zero_items, delayed_items,
        "comm delay changed *what* was computed, not just when"
    );
}

/// Grid distance matters: under a pure per-hop model, fig1b's one-to-one
/// mapping (more PEs, longer routes) yields a different schedule than the
/// same model with uniform latency of equal base. Checks the hop term is
/// wired through `channel_latency_s`.
#[test]
fn grid_model_distance_term_is_honored() {
    let app = apps::fig1b(SMALL, SLOW);
    let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
    // per-hop only: distance-1 neighbors pay 8 ns, distant pairs pay more.
    let grid = CommModel::grid(0.0, 8e-9, 0.0);
    let flat = CommModel::uniform(8e-9, 0.0);
    let run = |comm: &CommModel| {
        TimedSimulator::new(&compiled.graph, &compiled.mapping, config_with(comm))
            .expect("instantiate")
            .run()
            .expect("runs")
            .fingerprint()
    };
    // The mapped graph must contain at least one channel whose PEs sit
    // more than one hop apart, otherwise the two models coincide.
    let n = compiled.mapping.num_pes;
    let far = compiled.graph.channels().any(|(_, c)| {
        let a = compiled.mapping.pe_of_node[c.src.node.0];
        let b = compiled.mapping.pe_of_node[c.dst.node.0];
        a != b && grid.hops(a, b, n) > 1
    });
    assert!(far, "test premise: need a multi-hop channel in fig1b");
    assert_ne!(
        run(&grid),
        run(&flat),
        "per-hop latencies collapsed to uniform — grid distance ignored"
    );
}

/// With feedback-aware capacity derivation, `temporal_iir` only
/// deadlocks when an explicit uniform capacity pin disables the loop
/// sizing. Under that pin and a nonzero model, the wait-for-cycle
/// diagnostic must still name the feedback channels (sender-side credit
/// accounting replaces direct queue inspection for delayed channels).
#[test]
fn deadlock_diagnostic_is_stable_under_delay() {
    let comm = CommModel::uniform(64e-9, 1e-9);
    let app = apps::temporal_iir(SMALL, SLOW);
    let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
    let config = config_with(&comm).with_channel_capacity(64);
    let err = TimedSimulator::new(&compiled.graph, &compiled.mapping, config)
        .expect("instantiate")
        .run()
        .expect_err("temporal_iir deadlocks at SMALL/SLOW when pinned to 64")
        .to_string();
    assert!(
        err.contains("wait-for cycle:"),
        "deadlock error lost the cycle diagnostic under delay: {err}"
    );
    for channel in [
        "Mix.out -> Half.in",
        "Half.out -> FrameDelay.in",
        "FrameDelay.out -> Mix.in1",
    ] {
        assert!(
            err.contains(channel),
            "cycle diagnostic missing channel '{channel}': {err}"
        );
    }
}
