//! Determinism and inertness tests for the tracing subsystem.
//!
//! Two guarantees are pinned here, across every example application:
//!
//! 1. **Tracing is inert**: enabling it changes nothing about the
//!    simulation — the `SimReport` fingerprint with tracing on equals the
//!    fingerprint with tracing off (and a deadlocking app produces the
//!    identical error either way), with no ring drops at the default
//!    capacity.
//! 2. **The trace is pinned**: the Chrome export of every app's trace
//!    reproduces recorded byte digests under two comm models.

use bp_apps::{apps, App, SLOW, SMALL};
use bp_compiler::{compile, CompileOptions};
use bp_core::{CommModel, ControlToken, Dim2};
use bp_sim::{
    chrome_trace_json, validate_json, SimConfig, SimReport, StallCause, TimedSimulator, Trace,
    TraceChannel, TraceEvent, TraceMeta, TraceOptions,
};

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

fn run_config(name: &str, config: SimConfig) -> bp_core::Result<(SimReport, Option<Trace>)> {
    let app = build_example(name);
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
    for &name in EXAMPLE_APPS {
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

/// The upgraded capacity-deadlock diagnostic names the feedback channel
/// cycle that filled. The deadlock is now only reachable by pinning every
/// channel to the historical uniform 64 (the default feedback-aware
/// derivation sizes the back edge so the loop drains).
#[test]
fn deadlock_error_names_the_feedback_cycle() {
    let app = build_example("temporal_iir");
    let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
    let config = SimConfig::new(FRAMES).with_channel_capacity(64);
    let seq_err = TimedSimulator::new(&compiled.graph, &compiled.mapping, config)
        .expect("instantiate")
        .run()
        .expect_err("temporal_iir capacity-deadlocks at SMALL/SLOW when pinned to 64")
        .to_string();
    assert!(
        seq_err.contains("wait-for cycle:"),
        "deadlock error lost the cycle diagnostic: {seq_err}"
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

/// The Chrome exporter produces well-formed JSON (checked by the in-tree
/// validator) with one duration pair per traced firing.
#[test]
fn chrome_export_is_wellformed_json() {
    let (_, trace) = run_sequential("fig1b", true).expect("fig1b runs");
    let trace = trace.expect("tracing enabled");
    let json = chrome_trace_json(&trace);
    validate_json(&json).expect("exported trace must be well-formed JSON");
    let begins = json.matches("\"ph\":\"B\"").count();
    let ends = json.matches("\"ph\":\"E\"").count();
    assert_eq!(begins, ends, "unbalanced duration events");
    assert!(begins > 0, "no firing slices exported");
    assert!(json.contains("\"ph\":\"C\""), "no counter tracks exported");
}

/// Names the exporter must escape — a quote, a backslash, a newline, a
/// control byte, non-ASCII text — come out as valid JSON, escaped once
/// wherever the exporter's name tables put them, for every event kind.
#[test]
fn hostile_names_export_as_valid_json() {
    const RAW: &str = "\"\\\n\u{1}é✓";
    const ESCAPED: &str = r#"\"\\\n\u0001é✓"#;
    let name = |tag: &str| format!("{tag}{RAW}");
    let trace = Trace {
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
    };
    let json = chrome_trace_json(&trace);
    validate_json(&json).expect("hostile names must still export as well-formed JSON");

    let count = |needle: String| json.matches(&needle).count();
    let (n0, n1) = (format!("N0{ESCAPED}"), format!("N1{ESCAPED}"));
    let channel = format!("{n1}.P{ESCAPED}");
    // Firing begin and end are named for the node; the method is an arg.
    assert_eq!(count(format!(r#"{{"name":"{n0}","cat":"firing""#)), 2);
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
    // Those are all fifteen places a name lands: none was escaped twice
    // (which would no longer match) or left raw (which would not validate).
    assert_eq!(count(ESCAPED.into()), 15);
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
    let app = build_example("fig1b");
    let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
    let config = SimConfig::new(FRAMES).with_trace(TraceOptions::with_capacity(64));
    let (report, trace, _) = TimedSimulator::new(&compiled.graph, &compiled.mapping, config)
        .expect("instantiate")
        .run_with_artifacts()
        .expect("run");
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

/// Golden report fingerprints at the reference test configuration
/// (SMALL/SLOW, 2 frames, default machine). Recorded after the
/// length-separated fingerprint fix; any change to simulation semantics
/// or to the fingerprint encoding must update these deliberately.
#[test]
fn report_fingerprints_match_golden() {
    const GOLDEN: &[(&str, u64)] = &[
        ("fig1b", 0x3fd7b8fa22f4f7fe),
        ("edge_detect", 0x5d384e84264b7f0a),
    ];
    for &(name, want) in GOLDEN {
        let (report, _) = run_sequential(name, false).expect("runs");
        assert_eq!(
            report.fingerprint(),
            want,
            "{name}: report fingerprint drifted (got {:#018x})",
            report.fingerprint()
        );
    }
}

/// FNV-1a over a document's bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// `(length, FNV-1a)` of `chrome_trace_json` for every example app at the
/// reference configuration under `CommModel::zero()` and `uniform:64`
/// (64 PE cycles, no per-word term — what `bpc --comm-model uniform:64`
/// builds). Recorded from the per-event-`String` exporter this one
/// replaced; the exported document is a file format other tools load, so
/// any change to a byte of it must update these deliberately.
const CHROME_GOLDEN: &[(&str, [(usize, u64); 2])] = &[
    (
        "fig1b",
        [(1441113, 0x4773b24b7be6ce5c), (1977449, 0x3445b1fa31f82f5e)],
    ),
    (
        "bayer",
        [(545660, 0x8490cd2058ec2825), (710315, 0x745ccbe83bdae099)],
    ),
    (
        "histogram",
        [(357799, 0x422be9316c85147f), (485203, 0xf79da2bafdb09f54)],
    ),
    (
        "parallel_buffer",
        [(3618833, 0x37f3219be921879f), (4959395, 0x5d3a14a6afeb0df7)],
    ),
    (
        "multi_conv",
        [(1143371, 0x616e9d65d1162d70), (1438864, 0x4116c2c86fc7f587)],
    ),
    (
        "temporal_iir",
        [(1098429, 0xef6f6252e3cd345a), (1219703, 0xd4a021fff3845110)],
    ),
    (
        "fir_radio",
        [(261540, 0xb320de5b7c4771a4), (333568, 0x3ee8bfc1b58b7cf6)],
    ),
    (
        "edge_detect",
        [(1048848, 0x02c8723b2a158856), (1285517, 0xc8481846b359c1c0)],
    ),
    (
        "analytics",
        [(1727421, 0x7b6740977a7dc02a), (2161721, 0x58d35168668ae94a)],
    ),
    (
        "stereo_diff",
        [(808081, 0x4c6329df9eb82d84), (1051868, 0xc364edbf5556db48)],
    ),
    (
        "camera_bank",
        [(4367016, 0x0bab371b80d8d1c9), (5987082, 0x672796f9c667673b)],
    ),
];

#[test]
fn chrome_export_matches_golden_bytes() {
    let clock = CompileOptions::default().machine.pe_clock_hz;
    let models = [CommModel::zero(), CommModel::uniform(64.0 / clock, 0.0)];
    assert_eq!(CHROME_GOLDEN.len(), EXAMPLE_APPS.len());
    for &(name, want) in CHROME_GOLDEN {
        for (comm, want) in models.iter().zip(want) {
            let config = SimConfig::new(FRAMES)
                .with_comm(comm.clone())
                .with_trace(TraceOptions::default());
            let (_, trace) = run_config(name, config).expect("run");
            let json = chrome_trace_json(&trace.expect("tracing enabled"));
            let (len, hash) = (json.len(), fnv1a(json.as_bytes()));
            assert_eq!(
                (len, hash),
                want,
                "{name} under {comm:?}: exported bytes drifted (got ({len}, {hash:#018x}))"
            );
        }
    }
}
