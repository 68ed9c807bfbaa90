//! The interpreted engine's results, frozen as data.
//!
//! `backend_differential` and `metrics_determinism` compare backends *with
//! each other*; the values below were recorded once, from
//! `Backend::Interpreted`, at the commit before the interpreter's
//! hand-written scheduler was merged into the table-driven one (DESIGN.md
//! §13). Both planner choices must keep reproducing them — run in one call, and
//! stepped a few events at a time as the fleet host runs it — so the
//! merged scheduler is held to what the separate one computed rather than
//! to itself. The grid-model column was recorded the same way, from the
//! binary-heap event queue, at the commit before communication events
//! moved to the queue's sorted lane (DESIGN.md §9), so the lane's tail
//! insertion and its fallback to the heap are held to the heap's order
//! rather than to themselves. A change to simulation semantics,
//! to `SimReport::fingerprint` or to `MetricsTape::digest` must update
//! the tables deliberately.

use bp_apps::{apps, App, SLOW, SMALL};
use bp_compiler::{compile, CompileOptions};
use bp_core::{AppGraph, CommModel, Dim2, GraphBuilder, Mapping, MetricsPolicy};
use bp_sim::{Backend, SimConfig, SimReport, TimedSimulator};

const FRAMES: u32 = 2;
/// Events per step of the stepped runs: small and prime, so step
/// boundaries land everywhere in the schedule.
const STEP: usize = 97;

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

/// `CommModel::zero()` and `uniform:64` (64 PE cycles, no per-word term —
/// what `bpc --comm-model uniform:64` builds), the two models of
/// `trace_determinism`'s Chrome-export goldens, and `comm_delay`'s grid
/// model. Under the first two, channel arrivals and credit returns are
/// created almost in key order; under the grid their times depend on hops
/// and message size, so they are created out of order and the event queue
/// must sort them itself.
fn models() -> [CommModel; 3] {
    let clock = CompileOptions::default().machine.pe_clock_hz;
    [
        CommModel::zero(),
        CommModel::uniform(64.0 / clock, 0.0),
        CommModel::grid(32e-9, 8e-9, 1e-9),
    ]
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// `(report fingerprint, metrics tape digest)` of one configuration, from
/// a metrics-off and a metrics-on run that must agree on the report, each
/// run in one call or (`stepped`) [`STEP`] events at a time. A run that
/// ends in an error reads `(FNV-1a of the message, 0)`.
fn observe(
    graph: &AppGraph,
    mapping: &Mapping,
    comm: &CommModel,
    backend: Backend,
    stepped: bool,
) -> (u64, u64) {
    let run = |metrics: bool| -> bp_core::Result<(SimReport, Option<bp_sim::MetricsTape>)> {
        let mut config = SimConfig::new(FRAMES)
            .with_comm(comm.clone())
            .with_backend(backend);
        if metrics {
            config = config.with_metrics(MetricsPolicy::new());
        }
        let mut sim = TimedSimulator::new(graph, mapping, config)?;
        if !stepped {
            let (report, _, tape) = sim.run_with_artifacts()?;
            return Ok((report, tape));
        }
        while !sim.is_done() {
            sim.step(STEP);
        }
        sim.finish_report()
    };
    match (run(false), run(true)) {
        (Ok((plain, None)), Ok((metered, Some(tape)))) => {
            assert_eq!(plain.fingerprint(), metered.fingerprint());
            (plain.fingerprint(), tape.digest())
        }
        (Err(plain), Err(metered)) => {
            assert_eq!(plain.to_string(), metered.to_string());
            (fnv1a(plain.to_string().as_bytes()), 0)
        }
        (plain, metered) => panic!("metrics changed the outcome: {plain:?} vs {metered:?}"),
    }
}

/// Per app, `(fingerprint, tape digest)` under [`models`]`()[0]`, `[1]` and `[2]`
/// at the reference configuration (SMALL/SLOW, 2 frames, default machine
/// and compile options).
const GOLDEN: &[(&str, [(u64, u64); 3])] = &[
    (
        "fig1b",
        [
            (0x3fd7b8fa22f4f7fe, 0x663b5532dceb7c8b),
            (0x5fa58bddb10ac478, 0xe42935e8a956f584),
            (0x2fed8b29e574e67b, 0xc443c5d45585a06d),
        ],
    ),
    (
        "bayer",
        [
            (0xf47942be663aff6f, 0x2d75fd30608ade28),
            (0xc24c0933b61b7787, 0xbd4c7d8dd085f92a),
            (0xebf04173c1ddf09a, 0x700630a7067a29f5),
        ],
    ),
    (
        "histogram",
        [
            (0x6de4b18d4a6c824c, 0x73ce5b3cfe63390c),
            (0x8d0bb5bec193b7eb, 0x00ad9c32b6729d84),
            (0x49823915e016b2da, 0x8a9021569ee09ae2),
        ],
    ),
    (
        "parallel_buffer",
        [
            (0x7f5498ce4ad6047a, 0x4cdfb2e0e02d756f),
            (0x95e7c9c856b582af, 0x0c8564e009a3c6e6),
            (0xbd70d233e14400ed, 0x757df97818570abd),
        ],
    ),
    (
        "multi_conv",
        [
            (0x38e227c6d8ac07d7, 0x773a7e4247944f24),
            (0x54c469ebf2c81355, 0x777d43bf8fa4abba),
            (0x1688f25e2ffda3fc, 0x46f9f2457d4ca57b),
        ],
    ),
    (
        "temporal_iir",
        [
            (0x7b866d603065851d, 0x776cc324acbf6a45),
            (0xcf5627e5adb883bd, 0x1900c2a973325775),
            (0x7eb264bf7f736708, 0xfb641b1655072ca1),
        ],
    ),
    (
        "fir_radio",
        [
            (0x909bd8088ab023ee, 0x6085ce4b30ccdc0c),
            (0x8f9db31949dd4e00, 0x22ec73a596dea03e),
            (0x5f36083bf0ac9af2, 0x9ea53d9d3487464e),
        ],
    ),
    (
        "edge_detect",
        [
            (0x5d384e84264b7f0a, 0x8945a1a77cd1b1f2),
            (0xa1c0baab9d82250d, 0x182b6496e363c573),
            (0xc4ceeb3ff9d2f64c, 0xb2a8dfd8a9802199),
        ],
    ),
    (
        "analytics",
        [
            (0x4b67e197bf53050a, 0xd0b6a478ccd69ea9),
            (0x48f51e92e185925e, 0xae8aa400db7ab17a),
            (0xda92dba00e06ad4f, 0x323866786f67b0e9),
        ],
    ),
    (
        "stereo_diff",
        [
            (0x877614c8d5407a5d, 0x3eb9ebd08150c43b),
            (0x3a6d482d73dd353c, 0xddfdd972c2ba2cb0),
            (0x443c9cf019422182, 0x2784cb52f0c10605),
        ],
    ),
    (
        "camera_bank",
        [
            (0xc1ebec8b2e8339a4, 0xa0ff6eb926bec4b1),
            (0xd33d32acd79509fa, 0xc0ea0cc1af17c106),
            (0x6f92277b74fef283, 0xb98d8b40be73711d),
        ],
    ),
];

#[test]
fn every_backend_and_engine_reproduces_the_interpreters_record() {
    assert_eq!(GOLDEN.len(), 11, "one row per example app");
    for &(name, want) in GOLDEN {
        let app = build_example(name);
        let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
        for (comm, want) in models().iter().zip(want) {
            for backend in [Backend::Interpreted, Backend::Auto] {
                for stepped in [false, true] {
                    let got = observe(&compiled.graph, &compiled.mapping, comm, backend, stepped);
                    assert_eq!(
                        got, want,
                        "{name} under {comm:?} on {backend:?}, stepped {stepped}: drifted from \
                         the record (got ({:#018x}, {:#018x}))",
                        got.0, got.1
                    );
                }
            }
        }
    }
}

/// `In → split_rr(65) → 65 × scale → join_rr(65) → Out`, one kernel per
/// PE: the join has one input port more than the mask planner's 64.
fn wide_join_graph() -> AppGraph {
    const K: usize = 65;
    let (dim, grain) = (Dim2::new(13, 10), Dim2::new(1, 1));
    let mut b = GraphBuilder::new();
    let src = b.add_source("In", bp_kernels::pattern_source(dim), dim, 50.0);
    let split = b.add("Split", bp_kernels::split_rr(K, grain));
    let join = b.add("Join", bp_kernels::join_rr(K, grain));
    let (sdef, _) = bp_kernels::sink();
    let snk = b.add("Out", sdef);
    b.connect(src, "out", split, "in");
    for i in 0..K {
        let s = b.add(format!("S{i}"), bp_kernels::scale(2.0, 1.0));
        b.connect(split, &format!("out{i}"), s, "in");
        b.connect(s, "out", join, &format!("in{i}"));
    }
    b.connect(join, "out", snk, "in");
    b.build().expect("wide-join graph validates")
}

/// A kernel with more than 64 inputs does not fit the masks: under `Auto`
/// the join alone plans by the scan while its 65 producers and the split
/// plan by masks, and the run reproduces the interpreter's recorded
/// fingerprints — also under a delayed model, where every arrival at the
/// join's 65th port passes through the channel-arrival handler (a
/// head-mask shift by 64 there would panic under debug assertions).
#[test]
fn wide_join_scans_only_the_wide_kernel() {
    const WIDE_GOLDEN: [(u64, u64); 3] = [
        (0xded1750c004f1973, 0xb6a3a187d6824248),
        (0x1a96a15be93e4c0c, 0x0471ea5aa78a0df7),
        (0x544b1c48669d0664, 0x63949d1c002e04fa),
    ];
    let g = wide_join_graph();
    let mapping = Mapping::one_to_one(g.node_count());
    for (comm, want) in models().iter().zip(WIDE_GOLDEN) {
        for backend in [Backend::Interpreted, Backend::Auto] {
            for stepped in [false, true] {
                let got = observe(&g, &mapping, comm, backend, stepped);
                assert_eq!(
                    got, want,
                    "wide join under {comm:?} on {backend:?}, stepped {stepped}: drifted \
                     from the record (got ({:#018x}, {:#018x}))",
                    got.0, got.1
                );
            }
        }
    }
}
