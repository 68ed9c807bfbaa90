//! Determinism and inertness tests for the tracing subsystem.
//!
//! Three guarantees are pinned here, across the example applications:
//!
//! 1. **Tracing is inert**: enabling it changes nothing about the
//!    simulation — the `SimReport` fingerprint with tracing on equals the
//!    fingerprint with tracing off (and a deadlocking app produces the
//!    identical error either way), with no ring drops at the default
//!    capacity.
//! 2. **The trace is pinned**: the Chrome export of every app's trace
//!    reproduces recorded byte digests under two comm models, and its
//!    complete events expand back into the `B`/`E` pairs they replaced.
//! 3. **The planner is invisible in the trace**: the mask planner
//!    (`Backend::Auto`) records the scan's (`Backend::Interpreted`) event
//!    stream exactly.

use bp_apps::{examples, App};
use bp_compiler::{compile, CompileOptions};
use bp_core::{CommModel, ControlToken, Fnv};
use bp_sim::{
    chrome_trace_json, validate_json, Backend, SimConfig, SimReport, StallCause, TimedSimulator,
    Trace, TraceChannel, TraceEvent, TraceMeta, TraceOptions,
};

const FRAMES: u32 = 2;

/// The example app `name` at its reference configuration.
fn build(name: &str) -> App {
    let (_, build) = examples()
        .into_iter()
        .find(|&(n, _)| n == name)
        .expect("an example app");
    build()
}

fn run_config(name: &str, config: SimConfig) -> bp_core::Result<(SimReport, Option<Trace>)> {
    let app = build(name);
    let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
    TimedSimulator::new(&compiled.graph, &compiled.mapping, config)
        .expect("instantiate")
        .run_with_artifacts()
        .map(|(report, trace, _)| (report, trace))
}

fn run_sequential(name: &str, trace: bool) -> bp_core::Result<(SimReport, Option<Trace>)> {
    let mut config = SimConfig::new(FRAMES);
    if trace {
        config = config.with_trace(TraceOptions::default());
    }
    run_config(name, config)
}

/// Tracing must not perturb the simulation: for every app, the report
/// fingerprint with tracing enabled equals the report fingerprint with
/// tracing disabled (and errors, if any, are identical).
#[test]
fn tracing_is_inert_on_every_app() {
    for (name, _) in examples() {
        let plain = run_sequential(name, false);
        let traced = run_sequential(name, true);
        match (&plain, &traced) {
            (Ok((p, p_trace)), Ok((t, t_trace))) => {
                assert!(p_trace.is_none(), "{name}: trace returned while disabled");
                let trace = t_trace.as_ref().expect("trace returned while enabled");
                assert_eq!(
                    p.fingerprint(),
                    t.fingerprint(),
                    "{name}: enabling tracing changed the SimReport"
                );
                assert_eq!(trace.dropped, 0, "{name}: default ring wrapped");
                assert!(!trace.events.is_empty(), "{name}: empty trace");
            }
            (Err(pe), Err(te)) => assert_eq!(
                pe.to_string(),
                te.to_string(),
                "{name}: enabling tracing changed the error"
            ),
            _ => panic!("{name}: tracing changed the outcome: {plain:?} vs {traced:?}"),
        }
    }
}

/// The capacity-deadlock error names the feedback channel cycle that
/// filled, and tracing does not change it. The deadlock is only reachable
/// by pinning every channel to the historical uniform 64 (the default
/// feedback-aware derivation sizes the back edge so the loop drains).
#[test]
fn deadlock_error_names_the_feedback_cycle() {
    let error_of = |trace: bool| {
        let mut config = SimConfig::new(FRAMES).with_channel_capacity(64);
        if trace {
            config = config.with_trace(TraceOptions::default());
        }
        run_config("temporal_iir", config)
            .expect_err("temporal_iir capacity-deadlocks at SMALL/SLOW when pinned to 64")
            .to_string()
    };
    let err = error_of(false);
    assert_eq!(err, error_of(true), "tracing changed the deadlock error");
    assert!(
        err.contains("wait-for cycle:"),
        "deadlock error lost the cycle diagnostic: {err}"
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

/// The Chrome exporter produces well-formed JSON (checked by the in-tree
/// validator) with one complete event per traced firing: on a whole log
/// no firing is left as a `B`/`E` pair.
#[test]
fn chrome_export_is_wellformed_json() {
    let (_, trace) = run_sequential("fig1b", true).expect("fig1b runs");
    let trace = trace.expect("tracing enabled");
    let json = chrome_trace_json(&trace);
    validate_json(&json).expect("exported trace must be well-formed JSON");
    let firings = trace
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::FiringBegin { .. }))
        .count();
    assert!(firings > 0, "no firings traced");
    assert_eq!(json.matches("\"ph\":\"X\"").count(), firings);
    assert_eq!(json.matches("\"ph\":\"B\"").count(), 0);
    assert_eq!(json.matches("\"ph\":\"E\"").count(), 0);
    assert!(json.contains("\"ph\":\"C\""), "no counter tracks exported");
}

/// A ring that drops a send but keeps its arrival starts that channel at
/// its deficit: the truncated log's network counters are the last lines
/// of the whole log's, none negative, and its in-flight peaks stay within
/// the whole log's.
#[test]
fn truncated_logs_count_in_flight_from_the_deficit() {
    let clock = CompileOptions::default().machine.pe_clock_hz;
    let run = |trace| {
        let config = SimConfig::new(FRAMES)
            .with_comm(CommModel::uniform(640.0 / clock, 0.0))
            .with_trace(trace);
        run_config("fig1b", config)
            .expect("run")
            .1
            .expect("tracing enabled")
    };
    let (whole, cut) = (
        run(TraceOptions::default()),
        run(TraceOptions::with_capacity(3000)),
    );
    assert_eq!((whole.dropped, cut.events.len()), (0, 3000));
    let network = |trace: &Trace| -> Vec<String> {
        chrome_trace_json(trace)
            .lines()
            .filter(|l| l.contains(r#""cat":"network""#))
            .map(|l| l.trim_end_matches(',').to_string())
            .collect()
    };
    let (whole_net, cut_net) = (network(&whole), network(&cut));
    assert!(!cut_net.is_empty(), "the ring kept no network events");
    assert_eq!(cut_net[..], whole_net[whole_net.len() - cut_net.len()..]);
    for (cut, whole) in cut
        .comm_in_flight_peak()
        .iter()
        .zip(whole.comm_in_flight_peak())
    {
        assert!(*cut <= whole, "a truncated log peaked at {cut} > {whole}");
    }
}

const RAW: &str = "\"\\\n\u{1}é✓";

/// A trace whose every name holds [`RAW`]: one event of each kind, on two
/// PEs joined by a delayed channel.
fn hostile_trace() -> Trace {
    let name = |tag: &str| format!("{tag}{RAW}");
    Trace {
        meta: TraceMeta {
            node_names: vec![name("N0"), name("N1")],
            input_ports: vec![vec![], vec![name("P")]],
            methods: vec![vec![name("M")], vec![]],
            pe_of_node: vec![0, 1],
            num_pes: 2,
            pe_clock_hz: 1e9,
            channels: vec![TraceChannel {
                src_node: 0,
                src_port: 0,
                dst_node: 1,
                dst_port: 0,
                latency_s: 1e-6,
            }],
        },
        events: [
            TraceEvent::FiringBegin {
                t: 1e-6,
                node: 0,
                method: 0,
                pe: 0,
                cycles: 1000,
            },
            TraceEvent::CommSend {
                t: 2e-6,
                chan: 0,
                words: 4,
                arrival: 3e-6,
            },
            TraceEvent::FiringEnd {
                t: 2e-6,
                node: 0,
                pe: 0,
            },
            TraceEvent::Stall {
                t: 2e-6,
                pe: 0,
                cause: StallCause::Idle,
            },
            TraceEvent::CommArrival { t: 3e-6, chan: 0 },
            TraceEvent::QueueDepth {
                t: 3e-6,
                node: 1,
                port: 0,
                depth: 1,
            },
            TraceEvent::Token {
                t: 3e-6,
                node: 1,
                port: 0,
                token: ControlToken::Custom(7),
            },
        ]
        .into_iter()
        .collect(),
        dropped: 0,
    }
}

/// Names the exporter must escape — a quote, a backslash, a newline, a
/// control byte, non-ASCII text — come out as valid JSON, escaped once
/// wherever the exporter's name tables put them, for every event kind.
#[test]
fn hostile_names_export_as_valid_json() {
    const ESCAPED: &str = r#"\"\\\n\u0001é✓"#;
    let trace = hostile_trace();
    let json = chrome_trace_json(&trace);
    validate_json(&json).expect("hostile names must still export as well-formed JSON");

    let count = |needle: String| json.matches(&needle).count();
    let (n0, n1) = (format!("N0{ESCAPED}"), format!("N1{ESCAPED}"));
    let channel = format!("{n1}.P{ESCAPED}");
    // The firing's one complete event is named for the node; the method
    // is an arg.
    assert_eq!(
        count(format!(r#"{{"name":"{n0}","cat":"firing","ph":"X""#)),
        1
    );
    assert_eq!(count(format!(r#""method":"M{ESCAPED}""#)), 1);
    // The queue counter and the token's channel arg are `node.port`.
    assert_eq!(count(format!(r#"{{"name":"{channel}","cat":"queue""#)), 1);
    assert_eq!(count(format!(r#""args":{{"channel":"{channel}"}}"#)), 1);
    // Send and arrival share the wire's `src -> dst.port` counter.
    assert_eq!(
        count(format!(r#"{{"name":"{n0} -> {channel}","cat":"network""#)),
        2
    );
    // Each PE's lane lists its resident.
    assert_eq!(count(format!(r#""args":{{"name":"PE 0 [{n0}]"}}"#)), 1);
    assert_eq!(count(format!(r#""args":{{"name":"PE 1 [{n1}]"}}"#)), 1);
    assert_eq!(count(r#"{"name":"CTL(7)","cat":"token""#.into()), 1);
    assert_eq!(count(r#"{"name":"stall:idle","cat":"stall""#.into()), 1);
    // Those are all fourteen places a name lands: none was escaped twice
    // (which would no longer match) or left raw (which would not validate).
    assert_eq!(count(ESCAPED.into()), 14);
}

/// Derived metrics are self-consistent: every traced event is attributed,
/// utilization stays within [0, 1], and high-water marks agree with the
/// report's per-node queue maxima.
#[test]
fn derived_metrics_are_consistent() {
    let (report, trace) = run_sequential("fig1b", true).expect("fig1b runs");
    let trace = trace.expect("tracing enabled");
    let counts = trace.node_event_counts();
    assert_eq!(counts.len(), trace.meta.node_names.len());
    assert!(counts.iter().sum::<u64>() > 0);
    for row in trace.pe_utilization(0.005) {
        for u in row {
            assert!((0.0..=1.0 + 1e-9).contains(&u), "utilization out of range");
        }
    }
    for hw in trace.channel_high_water() {
        assert!(
            (hw.depth as usize) <= report.node_max_queue[hw.node],
            "trace high-water exceeds the report's max queue depth"
        );
    }
}

/// A tiny ring still yields a valid (truncated) trace: drops are counted
/// and the report is untouched.
#[test]
fn bounded_ring_truncates_without_perturbing_results() {
    let config = SimConfig::new(FRAMES).with_trace(TraceOptions::with_capacity(64));
    let (report, trace) = run_config("fig1b", config).expect("run");
    let trace = trace.expect("tracing enabled");
    assert_eq!(trace.events.len(), 64, "ring should be at capacity");
    assert!(
        trace.dropped > 0,
        "a 64-event ring must have dropped events"
    );
    let (baseline, _) = run_sequential("fig1b", false).expect("fig1b runs");
    assert_eq!(
        baseline.fingerprint(),
        report.fingerprint(),
        "ring truncation perturbed the simulation"
    );
}

/// `(length, FNV-1a)` of `chrome_trace_json` for every example app at the
/// reference configuration under `CommModel::zero()` and `uniform:64`
/// (64 PE cycles, no per-word term — what `bpc --comm-model uniform:64`
/// builds). Recorded when firings became one complete event each, with
/// unindented entries; [`complete_events_expand_to_the_duration_pairs`]
/// holds those documents to the `B`/`E` pairs written before. The
/// exported document is a file format other tools load, so any change to
/// a byte of it must update these deliberately.
const CHROME_GOLDEN: &[(&str, [(usize, u64); 2])] = &[
    (
        "fig1b",
        [(1175151, 0x7017cb288e0dc86d), (1695894, 0xbfcb59b0a38a7906)],
    ),
    (
        "bayer",
        [(433924, 0x7ad227b82b62d169), (593705, 0xc898caf2e2375d81)],
    ),
    (
        "histogram",
        [(281625, 0xa196499bc006c7c0), (404938, 0x1c83cb0807d341e9)],
    ),
    (
        "parallel_buffer",
        [(2921330, 0xa285729198243dfe), (4226784, 0x1c11b55a30934b29)],
    ),
    (
        "multi_conv",
        [(918461, 0xbd226cd098481e46), (1205374, 0xc198003a635ec73e)],
    ),
    (
        "temporal_iir",
        [(900994, 0xc36db57e5dc3aac4), (1018210, 0x69b23a227c497786)],
    ),
    (
        "fir_radio",
        [(210403, 0x5a2e171a16fa5c27), (280177, 0x973da548c6edad49)],
    ),
    (
        "edge_detect",
        [(840837, 0x57e0eca7a90f9cf2), (1070388, 0x31082a472ef5f988)],
    ),
    (
        "analytics",
        [(1401728, 0x7fc36048af2a88f1), (1822915, 0xd7f6659014e3de14)],
    ),
    (
        "stereo_diff",
        [(654913, 0x5fbb00b7ec0dbdda), (890583, 0x147d07bd28b70f51)],
    ),
    (
        "camera_bank",
        [(3557678, 0x62c9d102fc0c3b46), (5130973, 0x3bc6239b8c7b514f)],
    ),
];

#[test]
fn chrome_export_matches_golden_bytes() {
    let clock = CompileOptions::default().machine.pe_clock_hz;
    let models = [CommModel::zero(), CommModel::uniform(64.0 / clock, 0.0)];
    assert_eq!(CHROME_GOLDEN.len(), examples().len());
    for &(name, want) in CHROME_GOLDEN {
        for (comm, want) in models.iter().zip(want) {
            let config = SimConfig::new(FRAMES)
                .with_comm(comm.clone())
                .with_trace(TraceOptions::default());
            let (_, trace) = run_config(name, config).expect("run");
            let json = chrome_trace_json(&trace.expect("tracing enabled"));
            let mut hash = Fnv::new();
            json.bytes().for_each(|b| hash.byte(b));
            let (len, hash) = (json.len(), hash.finish());
            assert_eq!(
                (len, hash),
                want,
                "{name} under {comm:?}: exported bytes drifted (got ({len}, {hash:#018x}))"
            );
        }
    }
}

/// The export's lines without indentation or separators, each complete
/// event expanded into the `B` and `E` pair it stands for (the `E` at
/// `ts + dur`, added in integer picoseconds), sorted.
fn duration_pair_lines(json: &str) -> Vec<String> {
    let mut lines = Vec::new();
    for line in json.lines() {
        let line = line.trim_start().trim_end_matches(',');
        let Some((head, rest)) = line.split_once(r#","ph":"X","ts":"#) else {
            lines.push(line.to_string());
            continue;
        };
        let (ts, rest) = rest.split_once(r#","dur":"#).expect("an X has a dur");
        let (dur, rest) = rest
            .split_once(r#","pid":0,"tid":"#)
            .expect("an X is on a PE lane");
        let (tid, args) = rest.split_once(',').expect("an X has args");
        let ps = |us: &str| us.replace('.', "").parse::<u64>().expect("six decimals");
        let end = ps(ts) + ps(dur);
        lines.push(format!(
            r#"{head},"ph":"B","ts":{ts},"pid":0,"tid":{tid},{args}"#
        ));
        lines.push(format!(
            r#"{head},"ph":"E","ts":{}.{:06},"pid":0,"tid":{tid}}}"#,
            end / 1_000_000,
            end % 1_000_000
        ));
    }
    lines.sort_unstable();
    lines
}

/// `(lines, FNV-1a)` of [`duration_pair_lines`] for every example app at
/// the reference configuration under `CommModel::zero()`, `uniform:64`
/// and `grid:32:8:1`, then for fig1b traced into a 3 000-event ring
/// (zero model), then for [`hostile_trace`]. Recorded from the exporter
/// that wrote every firing as a `B`/`E` pair.
const DURATION_PAIR_GOLDEN: &[(usize, u64)] = &[
    // fig1b: zero, uniform:64, grid:32:8:1
    (13461, 0x714e000fd3d93af8),
    (17356, 0x4fe37e1dfd3bb6a6),
    (17356, 0x29e4674fe9d38649),
    // bayer: zero, uniform:64, grid:32:8:1
    (5272, 0x51f195b7231c2600),
    (6489, 0xb748cdcf396db52f),
    (6489, 0x6dcd388f20d4e1c2),
    // histogram: zero, uniform:64, grid:32:8:1
    (3544, 0x562c7925506e54c9),
    (4566, 0x112d1e145879d23e),
    (4566, 0xdd3701368c17ea4c),
    // parallel_buffer: zero, uniform:64, grid:32:8:1
    (32858, 0x7922d8693a0eb98b),
    (41629, 0xcd40718fb40e5ad1),
    (41613, 0xa970858a67041482),
    // multi_conv: zero, uniform:64, grid:32:8:1
    (10626, 0x69f0e68a891f30e8),
    (12769, 0x2245b97f6de38a9a),
    (12769, 0xd55dece63192e438),
    // temporal_iir: zero, uniform:64, grid:32:8:1
    (10958, 0xa05d357cc7a5a8ba),
    (11971, 0x7e280429794ab41e),
    (11971, 0x49c0c22e5f40f3ff),
    // fir_radio: zero, uniform:64, grid:32:8:1
    (2536, 0x9b6593230bdaf5df),
    (3096, 0xe086b9589007a72b),
    (3096, 0xb307b700442880bc),
    // edge_detect: zero, uniform:64, grid:32:8:1
    (10064, 0x84d6527b7f39196b),
    (11841, 0xd9770afaa49e8a20),
    (11841, 0x64fbd7467a78c093),
    // analytics: zero, uniform:64, grid:32:8:1
    (16375, 0xf273938c6e9805e6),
    (19650, 0x94fbcb15e0b043ce),
    (19650, 0xe9184315940b44de),
    // stereo_diff: zero, uniform:64, grid:32:8:1
    (8072, 0x625250fc27805790),
    (10100, 0xfeeffae346648ea9),
    (10101, 0xae1c6afd65386a8d),
    // camera_bank: zero, uniform:64, grid:32:8:1
    (40367, 0xda2e8496c07bc12a),
    (52050, 0xdab5d5afad6e3e4e),
    (52050, 0x5143dcbcfd08d420),
    // fig1b in a 3 000-event ring, then the hostile names
    (3015, 0x557c41dde0683f95),
    (18, 0xbd005d69a371fae5),
];

/// Complete events lose nothing: expanded back into `B`/`E` pairs, every
/// export holds exactly the lines of the pair-per-firing exporter, on
/// whole logs, a truncated one and hostile names.
#[test]
fn complete_events_expand_to_the_duration_pairs() {
    let clock = CompileOptions::default().machine.pe_clock_hz;
    let models = [
        CommModel::zero(),
        CommModel::uniform(64.0 / clock, 0.0),
        CommModel::grid(32.0 / clock, 8.0 / clock, 1.0 / clock),
    ];
    let mut traces = Vec::new();
    for (name, _) in examples() {
        for comm in &models {
            let config = SimConfig::new(FRAMES)
                .with_comm(comm.clone())
                .with_trace(TraceOptions::default());
            traces.push(run_config(name, config).expect("run").1);
        }
    }
    let ring = SimConfig::new(FRAMES).with_trace(TraceOptions::with_capacity(3000));
    traces.push(run_config("fig1b", ring).expect("run").1);
    traces.push(Some(hostile_trace()));
    let mut got = Vec::new();
    for trace in traces {
        let lines = duration_pair_lines(&chrome_trace_json(&trace.expect("tracing enabled")));
        let mut hash = Fnv::new();
        lines.iter().for_each(|l| hash.str(l));
        got.push((lines.len(), hash.finish()));
    }
    assert_eq!(got, DURATION_PAIR_GOLDEN);
}

/// Trace equality: the mask planner records the identical event stream —
/// firings, queue depths, tokens, comm events, and stall attributions —
/// not just the same aggregate report, under direct delivery, a uniform
/// delay and a grid.
#[test]
fn compiled_traces_are_bitwise_identical() {
    let models = [
        CommModel::zero(),
        CommModel::uniform(64e-9, 1e-9),
        CommModel::grid(32e-9, 8e-9, 1e-9),
    ];
    for name in ["fig1b", "temporal_iir", "camera_bank"] {
        for comm in &models {
            let trace_of = |backend: Backend| {
                let config = SimConfig::new(FRAMES)
                    .with_comm(comm.clone())
                    .with_backend(backend)
                    .with_trace(TraceOptions::default());
                let (report, trace) = run_config(name, config).expect("runs");
                (report.fingerprint(), trace.expect("trace recorded"))
            };
            let (ofp, otrace) = trace_of(Backend::Interpreted);
            let (cfp, ctrace) = trace_of(Backend::Auto);
            assert_eq!(ofp, cfp, "{name} under {comm:?}: fingerprint diverged");
            assert_eq!(
                otrace.dropped, ctrace.dropped,
                "{name} under {comm:?}: trace drop counts diverged"
            );
            assert_eq!(
                otrace.events, ctrace.events,
                "{name} under {comm:?}: trace event streams diverged"
            );
        }
    }
}
