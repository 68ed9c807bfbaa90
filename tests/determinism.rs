//! Determinism regression tests for the simulator hot path.
//!
//! The zero-copy optimizations (shared window payloads, interned method
//! tables, ready-set scheduling) must not change observable behavior by a
//! single bit. These tests pin the functional output of reference
//! pipelines to golden digests, check that repeated runs and the timed
//! simulator reproduce the exact same item stream (windows *and* control
//! tokens), and that the timed schedule itself is stable.

use bp_apps::{apps, App, SLOW, SMALL};
use bp_compiler::{compile, CompileOptions};
use bp_core::{Dim2, Item, MachineSpec};
use bp_sim::{FunctionalExecutor, SimConfig, TimedSimulator};

const FRAMES: u32 = 2;

/// FNV-1a over the raw bit patterns of the samples: any single-bit change
/// anywhere in the output stream changes the digest.
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

/// Compile and run `app` functionally; return the first sink's item stream.
fn run_functional(app: &App) -> Vec<Item> {
    let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
    let mut ex = FunctionalExecutor::new(&compiled.graph).expect("instantiate");
    ex.run_frames(FRAMES).expect("run");
    assert_eq!(ex.residual_items(), 0);
    app.sinks[0].1.items()
}

/// Compile and run `app` on the timed simulator; return the first sink's
/// item stream.
fn run_timed(app: &App) -> Vec<Item> {
    let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
    let config = SimConfig::new(FRAMES);
    TimedSimulator::new(&compiled.graph, &compiled.mapping, config)
        .expect("instantiate")
        .run()
        .expect("run");
    app.sinks[0].1.items()
}

fn samples_of(items: &[Item]) -> Vec<f64> {
    items
        .iter()
        .filter_map(|i| i.window().map(|w| w.samples().to_vec()))
        .flatten()
        .collect()
}

/// Golden digests of functional output at 20x12 @ 50 Hz for two frames.
/// Recorded before the zero-copy rework; any future change to window
/// storage, scheduling, or routing must reproduce them exactly.
/// fig1b ends in a 32-bin histogram (counts); edge_detect emits a dense
/// thresholded image, exercising multi-sample window payloads.
const GOLDEN: &[(&str, u64, usize, usize)] = &[
    // (app, sample digest, sample count, control-token count)
    ("fig1b", 0x4c09dd9a8495acaa, 64, 2),
    ("edge_detect", 0x5a178332b5193325, 256, 18),
];

fn build(name: &str) -> App {
    match name {
        "fig1b" => apps::fig1b(SMALL, SLOW),
        "edge_detect" => apps::edge_detect(SMALL, SLOW, 0.5),
        _ => unreachable!(),
    }
}

#[test]
fn functional_output_matches_golden_digest() {
    for &(name, want_digest, want_count, want_tokens) in GOLDEN {
        let items = run_functional(&build(name));
        let samples = samples_of(&items);
        let tokens = items.iter().filter(|i| !i.is_window()).count();
        assert_eq!(samples.len(), want_count, "{name}: sample count");
        assert_eq!(tokens, want_tokens, "{name}: token count");
        assert_eq!(
            digest(&samples),
            want_digest,
            "{name}: output digest changed — functional behavior is no longer bit-identical"
        );
    }
}

/// Two functional runs of the same app produce identical item streams,
/// tokens included.
#[test]
fn repeated_functional_runs_are_bit_identical() {
    for &(name, ..) in GOLDEN {
        let a = run_functional(&build(name));
        let b = run_functional(&build(name));
        assert_eq!(a, b, "{name}: functional run not reproducible");
    }
}

/// The timed simulator delivers the exact same items to the sink as the
/// untimed functional executor: timing annotations reorder *when* kernels
/// fire, never *what* they compute.
#[test]
fn timed_matches_functional_bitwise() {
    for &(name, ..) in GOLDEN {
        let f = run_functional(&build(name));
        let t = run_timed(&build(name));
        assert_eq!(f, t, "{name}: timed and functional outputs diverge");
    }
}

/// Every example application, by name; each build yields fresh sink handles.
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

/// A second instantiation of the same compiled app reproduces the first
/// timed run bit for bit — every report field (times, rates, latencies,
/// firing counts, queue depths) and every sink item — for every example
/// app, on more than one machine spec.
#[test]
fn timed_runs_reproduce_bitwise_on_every_app() {
    let machines = [
        ("default_eval", MachineSpec::default_eval()),
        ("tight_memory", MachineSpec::tight_memory()),
    ];
    for &name in EXAMPLE_APPS {
        for (mname, machine) in machines {
            let opts = CompileOptions {
                machine,
                ..Default::default()
            };
            let config = SimConfig::new(FRAMES).with_machine(machine);
            let run = || {
                let app = build_example(name);
                let compiled = compile(&app.graph, &opts).expect("compile");
                let report =
                    TimedSimulator::new(&compiled.graph, &compiled.mapping, config.clone())
                        .expect("instantiate")
                        .run()
                        .expect("run");
                let items: Vec<Vec<Item>> = app.sinks.iter().map(|(_, h)| h.items()).collect();
                (report, items)
            };
            let (a, a_items) = run();
            let (b, b_items) = run();
            assert_eq!(
                a.fingerprint(),
                b.fingerprint(),
                "{name} on {mname}: SimReport diverged"
            );
            assert_eq!(a_items, b_items, "{name} on {mname}: sink items diverged");
        }
    }
}

/// The timed schedule itself is stable: firing counts, simulated time, and
/// frame latencies reproduce bit-for-bit across runs.
#[test]
fn timed_schedule_is_stable() {
    let run = || {
        let app = apps::fig1b(SMALL, SLOW);
        let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
        TimedSimulator::new(&compiled.graph, &compiled.mapping, SimConfig::new(FRAMES))
            .expect("instantiate")
            .run()
            .expect("run")
    };
    let a = run();
    let b = run();
    assert_eq!(a.node_firings, b.node_firings);
    assert_eq!(a.sim_time.to_bits(), b.sim_time.to_bits());
    let la: Vec<u64> = a.frame_latencies.iter().map(|x| x.to_bits()).collect();
    let lb: Vec<u64> = b.frame_latencies.iter().map(|x| x.to_bits()).collect();
    assert_eq!(la, lb);
}
