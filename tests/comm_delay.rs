//! End-to-end regression tests for the inter-PE communication delay model
//! (DESIGN.md §11).
//!
//! Three guarantees are pinned here, across every example application:
//!
//! 1. **The zero model is a no-op**: `CommModel::zero()` (the default)
//!    reproduces the pre-model golden sink digests and report
//!    fingerprints bit for bit.
//! 2. **Delay is deterministic**: with *any* comm model, a second run
//!    reproduces the first's `SimReport` fingerprint and sink item streams
//!    bit for bit.
//! 3. **Delay is real**: a nonzero model shifts the schedule (and a grid
//!    model's distance term matters) without changing what is computed,
//!    and the deadlock diagnostic still names the feedback cycle.

use bp_apps::{apps, App, SLOW, SMALL};
use bp_compiler::{compile, CompileOptions};
use bp_core::{CommModel, Dim2, Item};
use bp_sim::{SimConfig, SimReport, TimedSimulator};

const FRAMES: u32 = 2;

/// Every example application, by name (kept in sync with
/// `tests/determinism.rs`).
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

/// The three model shapes exercised everywhere below. Latencies are a few
/// PE cycles at the default 10^9 Hz clock — small enough to keep windows
/// plentiful, large enough that schedules genuinely shift.
fn models() -> Vec<(&'static str, CommModel)> {
    vec![
        ("zero", CommModel::zero()),
        ("uniform", CommModel::uniform(64e-9, 1e-9)),
        ("grid", CommModel::grid(32e-9, 8e-9, 1e-9)),
    ]
}

fn config_with(comm: &CommModel) -> SimConfig {
    SimConfig::new(FRAMES).with_comm(comm.clone())
}

fn run_seq(name: &str, comm: &CommModel) -> (bp_core::Result<SimReport>, Vec<Vec<Item>>) {
    let app = build_example(name);
    let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
    let out = TimedSimulator::new(&compiled.graph, &compiled.mapping, config_with(comm))
        .expect("instantiate")
        .run();
    let items = app.sinks.iter().map(|(_, h)| h.items()).collect();
    (out, items)
}

/// FNV-1a over the raw bit patterns of the samples (same digest as
/// `tests/determinism.rs`).
fn digest(samples: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for s in samples {
        for b in s.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// With the default zero model, sink output and report fingerprints
/// reproduce the goldens recorded before the comm-model subsystem
/// existed: the model's plumbing must be invisible when every latency is
/// zero.
#[test]
fn zero_model_reproduces_pinned_goldens() {
    const SINK_GOLDEN: &[(&str, u64, usize)] = &[
        ("fig1b", 0x4c09dd9a8495acaa, 64),
        ("edge_detect", 0x5a178332b5193325, 256),
    ];
    const REPORT_GOLDEN: &[(&str, u64)] = &[
        ("fig1b", 0x3fd7b8fa22f4f7fe),
        ("edge_detect", 0x5d384e84264b7f0a),
    ];
    for &(name, want_digest, want_count) in SINK_GOLDEN {
        let (out, items) = run_seq(name, &CommModel::zero());
        out.expect("runs");
        let samples: Vec<f64> = items[0]
            .iter()
            .filter_map(|i| i.window().map(|w| w.samples().to_vec()))
            .flatten()
            .collect();
        assert_eq!(samples.len(), want_count, "{name}: sample count");
        assert_eq!(
            digest(&samples),
            want_digest,
            "{name}: zero comm model changed the sink output"
        );
    }
    for &(name, want) in REPORT_GOLDEN {
        let (out, _) = run_seq(name, &CommModel::zero());
        let report = out.expect("runs");
        assert_eq!(
            report.fingerprint(),
            want,
            "{name}: zero comm model changed the report fingerprint"
        );
    }
}

/// For every app × model, a second run is bitwise identical to the first:
/// same fingerprint and same sink items on success, or the identical error
/// string where an app deadlocks (none do by default now that feedback
/// loops size their own back-edge capacities — the Err arm is kept for
/// symmetry).
#[test]
fn every_model_reproduces_bitwise_on_every_app() {
    for &name in EXAMPLE_APPS {
        for (mname, comm) in models() {
            let (first, first_items) = run_seq(name, &comm);
            let (second, second_items) = run_seq(name, &comm);
            match (&first, &second) {
                (Ok(a), Ok(b)) => assert_eq!(
                    a.fingerprint(),
                    b.fingerprint(),
                    "{name} under {mname}: SimReport diverged"
                ),
                (Err(ae), Err(be)) => assert_eq!(
                    ae.to_string(),
                    be.to_string(),
                    "{name} under {mname}: error diverged"
                ),
                _ => panic!(
                    "{name} under {mname}: outcomes diverged: first={first:?} second={second:?}"
                ),
            }
            assert_eq!(
                first_items, second_items,
                "{name} under {mname}: sink items diverged"
            );
        }
    }
}

/// A nonzero model genuinely changes the schedule (it is not silently
/// ignored): fig1b's report fingerprint differs between the zero and
/// uniform models, while its sink output — the functional result — stays
/// identical.
#[test]
fn nonzero_model_shifts_the_schedule_but_not_the_output() {
    let (zero, zero_items) = run_seq("fig1b", &CommModel::zero());
    let (delayed, delayed_items) = run_seq("fig1b", &CommModel::uniform(64e-9, 1e-9));
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
    let app = build_example("fig1b");
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
    let app = build_example("temporal_iir");
    let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
    let config = config_with(&comm).with_channel_capacity(64);
    let seq_err = TimedSimulator::new(&compiled.graph, &compiled.mapping, config)
        .expect("instantiate")
        .run()
        .expect_err("temporal_iir deadlocks at SMALL/SLOW when pinned to 64")
        .to_string();
    assert!(
        seq_err.contains("wait-for cycle:"),
        "deadlock error lost the cycle diagnostic under delay: {seq_err}"
    );
    for channel in [
        "Mix.out -> Half.in",
        "Half.out -> FrameDelay.in",
        "FrameDelay.out -> Mix.in1",
    ] {
        assert!(
            seq_err.contains(channel),
            "cycle diagnostic missing channel '{channel}': {seq_err}"
        );
    }
}
