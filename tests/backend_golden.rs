//! The interpreted engine's results, frozen as data: the one sweep over
//! the eleven example applications ([`examples`]).
//!
//! Every run is observed as a triple — report fingerprint, metrics tape
//! digest, digest of every sink's items — from a metrics-off and a
//! metrics-on run that must agree, so equal triples mean equal reports,
//! equal tapes (hence equal JSONL) and equal outputs. The values below were
//! recorded once, from `Backend::Interpreted` run in one call, at the
//! commit before the interpreter's hand-written scheduler was merged into
//! the table-driven one (DESIGN.md §13); the sink digests were recorded the
//! same way later, from the same engine. Both planner choices must keep
//! reproducing them — run in one call, and stepped a few events at a time
//! as the fleet host runs it — so the merged scheduler is held to what the
//! separate one computed rather than to itself. The grid-model column was
//! recorded the same way, from the binary-heap event queue, at the commit
//! before communication events moved to the queue's sorted lane (DESIGN.md
//! §9), so the lane's tail insertion and its fallback to the heap are held
//! to the heap's order rather than to themselves. Comm models off the
//! record are held to agreement between the four runs. A change to
//! simulation semantics, to `SimReport::fingerprint` or to
//! `MetricsTape::digest` must update the tables deliberately.

use bp_apps::{examples, App};
use bp_compiler::{compile, CompileOptions};
use bp_core::{AppGraph, CommModel, Dim2, Fnv, GraphBuilder, Item, Mapping, MetricsPolicy};
use bp_kernels::SinkHandle;
use bp_sim::{Backend, SimConfig, TimedSimulator};

const FRAMES: u32 = 2;
/// Events per step of the stepped runs: small and prime, so step
/// boundaries land everywhere in the schedule.
const STEP: usize = 97;

/// The four runs of one configuration: both planners, in one call and
/// stepped.
const RUNS: [(Backend, bool); 4] = [
    (Backend::Interpreted, false),
    (Backend::Interpreted, true),
    (Backend::Auto, false),
    (Backend::Auto, true),
];

/// `CommModel::zero()` and `uniform:64` (64 PE cycles, no per-word term —
/// what `bpc --comm-model uniform:64` builds), the two models of
/// `trace_determinism`'s Chrome-export goldens, and a grid model. Under the
/// first two, channel arrivals and credit returns are created almost in
/// key order; under the grid their times depend on hops and message size,
/// so they are created out of order and the event queue must sort them
/// itself.
fn models() -> [CommModel; 3] {
    let clock = CompileOptions::default().machine.pe_clock_hz;
    [
        CommModel::zero(),
        CommModel::uniform(64.0 / clock, 0.0),
        CommModel::grid(32e-9, 8e-9, 1e-9),
    ]
}

/// FNV-1a over every sink's item stream, each sink length-first: windows
/// by the bits of their samples, tokens by kind.
fn sink_digest(sinks: &[(String, SinkHandle)]) -> u64 {
    let mut h = Fnv::new();
    for (_, sink) in sinks {
        let items = sink.items();
        h.u64(items.len() as u64);
        for item in &items {
            match item {
                Item::Window(w) => w.samples().iter().for_each(|&s| h.f64(s)),
                Item::Control(token) => h.str(&token.to_string()),
            }
        }
    }
    h.finish()
}

/// `(report fingerprint, metrics tape digest, sink digest)` of one
/// configuration, from a metrics-off and a metrics-on run that must agree
/// on the report and the sinks, each run in one call or (`stepped`)
/// [`STEP`] events at a time. A run that ends in an error reads
/// `(FNV-1a of the message, 0, sink digest)`.
fn observe(
    graph: &AppGraph,
    mapping: &Mapping,
    sinks: &[(String, SinkHandle)],
    comm: &CommModel,
    (backend, stepped): (Backend, bool),
) -> (u64, u64, u64) {
    let run = |metrics: bool| {
        let mut config = SimConfig::new(FRAMES)
            .with_comm(comm.clone())
            .with_backend(backend);
        if metrics {
            config = config.with_metrics(MetricsPolicy::new());
        }
        sinks.iter().for_each(|(_, sink)| sink.clear());
        let outcome = TimedSimulator::new(graph, mapping, config).and_then(|mut sim| {
            if !stepped {
                return sim
                    .run_with_artifacts()
                    .map(|(report, _, tape)| (report, tape));
            }
            while !sim.is_done() {
                sim.step(STEP);
            }
            sim.finish_report()
        });
        (outcome, sink_digest(sinks))
    };
    let ((plain, items), (metered, metered_items)) = (run(false), run(true));
    assert_eq!(items, metered_items, "metrics changed the sinks' items");
    match (plain, metered) {
        (Ok((plain, None)), Ok((metered, Some(tape)))) => {
            assert_eq!(plain.fingerprint(), metered.fingerprint());
            (plain.fingerprint(), tape.digest(), items)
        }
        (Err(plain), Err(metered)) => {
            assert_eq!(plain.to_string(), metered.to_string());
            let mut h = Fnv::new();
            plain.to_string().bytes().for_each(|b| h.byte(b));
            (h.finish(), 0, items)
        }
        (plain, metered) => panic!("metrics changed the outcome: {plain:?} vs {metered:?}"),
    }
}

/// `(report fingerprint, metrics tape digest)` of one app under one model.
type Cell = (u64, u64);

/// Per app of [`examples`], its sink digest and its `(fingerprint, tape
/// digest)` under [`models`]`()[0]`, `[1]` and `[2]`, at the reference
/// configuration (2 frames, default machine and compile options). The sink
/// digest is one per app: a comm model moves *when* items arrive, never
/// which.
const GOLDEN: &[(&str, u64, [Cell; 3])] = &[
    (
        "fig1b",
        0xc0008003f6a738c4,
        [
            (0x3fd7b8fa22f4f7fe, 0x663b5532dceb7c8b),
            (0x5fa58bddb10ac478, 0xe42935e8a956f584),
            (0x2fed8b29e574e67b, 0xc443c5d45585a06d),
        ],
    ),
    (
        "bayer",
        0xef497e6db5f6b9c0,
        [
            (0xf47942be663aff6f, 0x2d75fd30608ade28),
            (0xc24c0933b61b7787, 0xbd4c7d8dd085f92a),
            (0xebf04173c1ddf09a, 0x700630a7067a29f5),
        ],
    ),
    (
        "histogram",
        0xdb276ef728e4445b,
        [
            (0x6de4b18d4a6c824c, 0x73ce5b3cfe63390c),
            (0x8d0bb5bec193b7eb, 0x00ad9c32b6729d84),
            (0x49823915e016b2da, 0x8a9021569ee09ae2),
        ],
    ),
    (
        "parallel_buffer",
        0xac3a637596e3443c,
        [
            (0x7f5498ce4ad6047a, 0x4cdfb2e0e02d756f),
            (0x95e7c9c856b582af, 0x0c8564e009a3c6e6),
            (0xbd70d233e14400ed, 0x757df97818570abd),
        ],
    ),
    (
        "multi_conv",
        0xbcb6c8cda3ac69e8,
        [
            (0x38e227c6d8ac07d7, 0x773a7e4247944f24),
            (0x54c469ebf2c81355, 0x777d43bf8fa4abba),
            (0x1688f25e2ffda3fc, 0x46f9f2457d4ca57b),
        ],
    ),
    (
        "temporal_iir",
        0x9bb8073e1a4e93f0,
        [
            (0x7b866d603065851d, 0x776cc324acbf6a45),
            (0xcf5627e5adb883bd, 0x1900c2a973325775),
            (0x7eb264bf7f736708, 0xfb641b1655072ca1),
        ],
    ),
    (
        "fir_radio",
        0x0b99831ad0115ffd,
        [
            (0x909bd8088ab023ee, 0x6085ce4b30ccdc0c),
            (0x8f9db31949dd4e00, 0x22ec73a596dea03e),
            (0x5f36083bf0ac9af2, 0x9ea53d9d3487464e),
        ],
    ),
    (
        "edge_detect",
        0x7f6c5a3ea9eac25e,
        [
            (0x5d384e84264b7f0a, 0x8945a1a77cd1b1f2),
            (0xa1c0baab9d82250d, 0x182b6496e363c573),
            (0xc4ceeb3ff9d2f64c, 0xb2a8dfd8a9802199),
        ],
    ),
    (
        "analytics",
        0x3d466ecb11849800,
        [
            (0x4b67e197bf53050a, 0xd0b6a478ccd69ea9),
            (0x48f51e92e185925e, 0xae8aa400db7ab17a),
            (0xda92dba00e06ad4f, 0x323866786f67b0e9),
        ],
    ),
    (
        "stereo_diff",
        0xda42fc0522d1868f,
        [
            (0x877614c8d5407a5d, 0x3eb9ebd08150c43b),
            (0x3a6d482d73dd353c, 0xddfdd972c2ba2cb0),
            (0x443c9cf019422182, 0x2784cb52f0c10605),
        ],
    ),
    (
        "camera_bank",
        0xcd7717374a4da880,
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
    for ((name, build), &(row, sinks, cells)) in examples().into_iter().zip(GOLDEN) {
        assert_eq!(name, row, "the record follows examples()' order");
        let app = build();
        let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
        for (comm, (fingerprint, tape)) in models().iter().zip(cells) {
            for run in RUNS {
                let got = observe(&compiled.graph, &compiled.mapping, &app.sinks, comm, run);
                assert_eq!(
                    got,
                    (fingerprint, tape, sinks),
                    "{name} under {comm:?}, {run:?} (planner, stepped): drifted from the \
                     record (got ({:#018x}, {:#018x}, {:#018x}))",
                    got.0,
                    got.1,
                    got.2
                );
            }
        }
    }
}

/// Comm models off the record — a 64 ns + 1 ns/word uniform latency, and
/// uniform and grid latencies in PE cycles at the default 1 MHz clock,
/// long enough to stretch every schedule: for each app, the four [`RUNS`]
/// give the same triple, and the sinks' items are the record's.
#[test]
fn the_four_runs_agree_under_models_off_the_record() {
    let cycle = 1.0 / CompileOptions::default().machine.pe_clock_hz;
    let models = [
        CommModel::uniform(64e-9, 1e-9),
        CommModel::uniform(64.0 * cycle, cycle),
        CommModel::grid(32.0 * cycle, 16.0 * cycle, cycle),
    ];
    for ((name, build), &(_, sinks, _)) in examples().into_iter().zip(GOLDEN) {
        let app = build();
        let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
        for comm in &models {
            let observe = |run| observe(&compiled.graph, &compiled.mapping, &app.sinks, comm, run);
            let want = observe(RUNS[0]);
            assert_eq!(want.2, sinks, "{name} under {comm:?}: sink items drifted");
            for run in &RUNS[1..] {
                assert_eq!(observe(*run), want, "{name} under {comm:?}, {run:?}");
            }
        }
    }
}

/// `In → split_rr(65) → 65 × scale → join_rr(65) → Out`, one kernel per
/// PE: the join has one input port more than the mask planner's 64.
fn wide_join_app() -> App {
    const K: usize = 65;
    let (dim, grain) = (Dim2::new(13, 10), Dim2::new(1, 1));
    let mut b = GraphBuilder::new();
    let src = b.add_source("In", bp_kernels::pattern_source(dim), dim, 50.0);
    let split = b.add("Split", bp_kernels::split_rr(K, grain));
    let join = b.add("Join", bp_kernels::join_rr(K, grain));
    let (sdef, handle) = bp_kernels::sink();
    let snk = b.add("Out", sdef);
    b.connect(src, "out", split, "in");
    for i in 0..K {
        let s = b.add(format!("S{i}"), bp_kernels::scale(2.0, 1.0));
        b.connect(split, &format!("out{i}"), s, "in");
        b.connect(s, "out", join, &format!("in{i}"));
    }
    b.connect(join, "out", snk, "in");
    App {
        graph: b.build().expect("wide-join graph validates"),
        sinks: vec![("Out".into(), handle)],
        input: src,
    }
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
    const WIDE_SINKS: u64 = 0xa6e307a3318f6e09;
    let app = wide_join_app();
    let mapping = Mapping::one_to_one(app.graph.node_count());
    for (comm, (fingerprint, tape)) in models().iter().zip(WIDE_GOLDEN) {
        for run in RUNS {
            let got = observe(&app.graph, &mapping, &app.sinks, comm, run);
            assert_eq!(
                got,
                (fingerprint, tape, WIDE_SINKS),
                "wide join under {comm:?}, {run:?} (planner, stepped): drifted from the \
                 record (got ({:#018x}, {:#018x}, {:#018x}))",
                got.0,
                got.1,
                got.2
            );
        }
    }
}
