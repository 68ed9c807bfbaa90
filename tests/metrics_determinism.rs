//! Determinism regression tests for the always-on metrics layer.
//!
//! The metrics tape is a first-class deterministic artifact: for a given
//! app and communication model, its digest must be identical across the
//! scan (`Backend::Interpreted`) and the default masked planning
//! (`Backend::Auto`) and from run to run. And collection
//! must be *inert*: a
//! metrics-on run's [`bp_sim::SimReport`] fingerprint equals the
//! metrics-off run's, so the golden digests pinned by `determinism.rs`
//! keep holding with the observer attached.

use bp_apps::{apps, App, SLOW, SMALL};
use bp_compiler::{compile, CompileOptions};
use bp_core::{CommModel, Dim2, MachineSpec, MetricsPolicy};
use bp_sim::{Backend, SimConfig, TimedSimulator};

const FRAMES: u32 = 2;

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

/// The three communication models the suite sweeps (latencies in PE
/// cycles at the evaluation machine's clock, like `bpc --comm-model`).
fn comm_models(machine: &MachineSpec) -> Vec<(&'static str, CommModel)> {
    let cyc = |c: f64| c / machine.pe_clock_hz;
    vec![
        ("zero", CommModel::zero()),
        ("uniform", CommModel::uniform(cyc(64.0), cyc(1.0))),
        ("grid", CommModel::grid(cyc(32.0), cyc(16.0), cyc(1.0))),
    ]
}

/// One metrics-on run; returns the tape digest and its JSONL rendering.
fn run_tape(name: &str, comm: &CommModel, backend: Backend) -> (u64, String) {
    let machine = MachineSpec::default_eval();
    let opts = CompileOptions {
        machine,
        ..Default::default()
    };
    let app = build_example(name);
    let compiled = compile(&app.graph, &opts).expect("compile");
    let config = SimConfig::new(FRAMES)
        .with_machine(machine)
        .with_comm(comm.clone())
        .with_backend(backend)
        .with_metrics(MetricsPolicy::new());
    let (_, tape) = TimedSimulator::new(&compiled.graph, &compiled.mapping, config)
        .expect("instantiate")
        .run_with_metrics()
        .expect("run");
    let tape = tape.expect("metrics policy set but no tape");
    (tape.digest(), tape.to_jsonl())
}

/// Tape digests — and the rendered JSONL tapes themselves — are bitwise
/// identical across a second interpreted run and an `Auto` run, for every
/// example app under all three communication models.
#[test]
fn tape_is_identical_across_backends() {
    let machine = MachineSpec::default_eval();
    for &name in EXAMPLE_APPS {
        for (cname, comm) in comm_models(&machine) {
            let (want_digest, want_jsonl) = run_tape(name, &comm, Backend::Interpreted);
            for (bname, backend) in [
                ("interpreted", Backend::Interpreted),
                ("auto", Backend::Auto),
            ] {
                let (digest, jsonl) = run_tape(name, &comm, backend);
                assert_eq!(
                    digest, want_digest,
                    "{name} under {cname}: tape digest diverged on {bname}"
                );
                assert_eq!(
                    jsonl, want_jsonl,
                    "{name} under {cname}: tape JSONL diverged on {bname}"
                );
            }
        }
    }
}

/// Metrics collection is inert: attaching the recorder changes no report
/// bit on either backend. Together with `determinism.rs`'s goldens this
/// pins metrics-off behavior to the seed.
#[test]
fn metrics_are_inert_on_both_backends() {
    let machine = MachineSpec::default_eval();
    let opts = CompileOptions {
        machine,
        ..Default::default()
    };
    for &name in EXAMPLE_APPS {
        for backend in [Backend::Interpreted, Backend::Auto] {
            let base = SimConfig::new(FRAMES)
                .with_machine(machine)
                .with_backend(backend);
            let run = |config: SimConfig| {
                let app = build_example(name);
                let compiled = compile(&app.graph, &opts).expect("compile");
                TimedSimulator::new(&compiled.graph, &compiled.mapping, config)
                    .expect("instantiate")
                    .run()
                    .expect("run")
                    .fingerprint()
            };
            let off = run(base.clone());
            let on = run(base.clone().with_metrics(MetricsPolicy::new()));
            assert_eq!(
                off, on,
                "{name} on {backend:?}: metrics changed the SimReport fingerprint"
            );
        }
    }
}
