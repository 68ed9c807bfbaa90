//! Property tests for the inter-PE communication delay model, seeded with
//! the in-tree `bp_core::Rng64` (no external property-testing crate).
//!
//! Each case builds a random layered DAG of unary/binary arithmetic
//! kernels, draws a random delay model, runs the timed engine with
//! tracing, and checks invariants that must hold for *every* graph and
//! *every* model:
//!
//! - **FIFO per channel**: arrival times on each delayed channel are
//!   non-decreasing in send order (the wire never reorders), and the
//!   delivered arrivals replay in the same order.
//! - **Conservation**: every send is eventually delivered — at a clean
//!   end of simulation, per-channel sends == arrivals and nothing is
//!   left in flight.
//! - **Causality**: no message arrives before it was sent, and never
//!   sooner than the model's per-channel minimum latency.
//! - **Engine equivalence**: the engine stepped a few events at a time
//!   (`TimedSimulator::step`, what the fleet host runs) reproduces the one-shot
//!   run's fingerprint (or the identical error) for the same graph and
//!   model.

use bp_compiler::{compile, CompileOptions, MappingKind};
use bp_core::{CommModel, Dim2, GraphBuilder, NodeId, Rng64};
use bp_kernels as k;
use bp_sim::{SimConfig, SimReport, TimedSimulator, Trace, TraceEvent, TraceOptions};

const FRAMES: u32 = 2;
const CASES: u64 = 12;

/// A random layered DAG: one source, `layers` rows of 1–3 arithmetic
/// nodes each drawing inputs from random earlier rows, and a sink on
/// every leaf. All kernels preserve the logical frame size, so any wiring
/// is well-formed.
fn random_graph(rng: &mut Rng64) -> bp_core::graph::AppGraph {
    let dim = Dim2::new(8, 4);
    let mut b = GraphBuilder::new();
    let src = b.add_source("Input", k::pattern_source(dim), dim, 25.0);
    let mut pool: Vec<NodeId> = vec![src];
    let mut consumed: Vec<bool> = vec![true]; // the source always has takers
    let layers = 2 + rng.gen_index(3); // 2..=4
    let mut id = 0usize;
    for _ in 0..layers {
        let width = 1 + rng.gen_index(3); // 1..=3 nodes per layer
        let mut row = Vec::new();
        for _ in 0..width {
            id += 1;
            let node = if rng.gen_bool() {
                let n = b.add(
                    format!("U{id}"),
                    k::scale(rng.gen_range_f64(0.5, 2.0), rng.gen_range_f64(-1.0, 1.0)),
                );
                let from = rng.gen_index(pool.len());
                b.connect(pool[from], "out", n, "in");
                consumed[from] = true;
                n
            } else {
                let n = b.add(format!("B{id}"), k::add());
                let (a0, a1) = (rng.gen_index(pool.len()), rng.gen_index(pool.len()));
                b.connect(pool[a0], "out", n, "in0");
                b.connect(pool[a1], "out", n, "in1");
                consumed[a0] = true;
                consumed[a1] = true;
                n
            };
            row.push(node);
        }
        for n in row {
            pool.push(n);
            consumed.push(false);
        }
    }
    // Every unconsumed output feeds a sink, so no item is routed nowhere.
    for (i, node) in pool.iter().enumerate() {
        if !consumed[i] {
            let (sdef, _h) = k::sink();
            let s = b.add(format!("Out{i}"), sdef);
            b.connect(*node, "out", s, "in");
        }
    }
    b.build().expect("random layered DAG is always valid")
}

/// A random delay model: zero / uniform / grid with latencies between a
/// few and a few hundred nanoseconds (1–300 PE cycles at the default
/// clock), occasionally with a bandwidth term.
fn random_model(rng: &mut Rng64) -> CommModel {
    let ns = |rng: &mut Rng64, lo: f64, hi: f64| rng.gen_range_f64(lo, hi) * 1e-9;
    match rng.gen_index(3) {
        0 => CommModel::zero(),
        1 => {
            let per_word = if rng.gen_bool() {
                ns(rng, 0.5, 4.0)
            } else {
                0.0
            };
            CommModel::uniform(ns(rng, 1.0, 300.0), per_word)
        }
        _ => {
            let per_word = if rng.gen_bool() {
                ns(rng, 0.5, 4.0)
            } else {
                0.0
            };
            CommModel::grid(ns(rng, 1.0, 100.0), ns(rng, 1.0, 50.0), per_word)
        }
    }
}

struct TraceView {
    /// (send t, arrival t) per CommSend, in trace order, keyed by channel.
    sends: Vec<Vec<(f64, f64)>>,
    /// Arrival-event times in trace order, keyed by channel.
    arrivals: Vec<Vec<f64>>,
}

fn view(trace: &Trace) -> TraceView {
    let chans = trace.meta.channels.len();
    let mut v = TraceView {
        sends: vec![Vec::new(); chans],
        arrivals: vec![Vec::new(); chans],
    };
    for ev in &trace.events {
        match ev {
            TraceEvent::CommSend {
                t, chan, arrival, ..
            } => {
                v.sends[chan as usize].push((t, arrival));
            }
            TraceEvent::CommArrival { t, chan } => v.arrivals[chan as usize].push(t),
            _ => {}
        }
    }
    v
}

fn check_invariants(case: u64, trace: &Trace, model: &CommModel, ok: bool) {
    let v = view(trace);
    for (chan, meta) in trace.meta.channels.iter().enumerate() {
        let sends = &v.sends[chan];
        let arrivals = &v.arrivals[chan];

        // Causality: arrival >= send + the model's floor for this link.
        for &(t, arr) in sends {
            assert!(
                arr >= t,
                "case {case} chan {chan}: message arrives at {arr} before send at {t}"
            );
            assert!(
                arr - t >= meta.latency_s - 1e-15,
                "case {case} chan {chan}: dwell {} under channel latency {}",
                arr - t,
                meta.latency_s
            );
        }
        // FIFO: scheduled arrivals are non-decreasing in send order, and
        // delivered arrivals are non-decreasing in delivery order.
        for w in sends.windows(2) {
            assert!(
                w[1].1 >= w[0].1,
                "case {case} chan {chan}: wire reordered ({} before {})",
                w[1].1,
                w[0].1
            );
        }
        for w in arrivals.windows(2) {
            assert!(
                w[1] >= w[0],
                "case {case} chan {chan}: deliveries reordered"
            );
        }
        // Conservation at a clean EOF: everything sent was delivered.
        if ok {
            assert_eq!(
                sends.len(),
                arrivals.len(),
                "case {case} chan {chan}: {} sent but {} delivered (model {model:?})",
                sends.len(),
                arrivals.len()
            );
        } else {
            assert!(
                arrivals.len() <= sends.len(),
                "case {case} chan {chan}: more deliveries than sends"
            );
        }
    }
    // Nothing left in flight after a clean run, on any channel.
    if ok {
        let peaks = trace.comm_in_flight_peak();
        let total_sends: usize = v.sends.iter().map(Vec::len).sum();
        if total_sends > 0 {
            assert!(
                peaks.iter().any(|&p| p > 0),
                "case {case}: sends happened but in-flight never rose"
            );
        }
    }
}

#[test]
fn random_dags_preserve_fifo_conservation_and_engine_equivalence() {
    let mut any_delayed_runs = 0u32;
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0xc0de_0000 + case);
        let graph = random_graph(&mut rng);
        let model = random_model(&mut rng);
        let opts = CompileOptions {
            mapping: MappingKind::OneToOne,
            ..Default::default()
        };
        let compiled = compile(&graph, &opts).expect("compile random DAG");
        let config = SimConfig::new(FRAMES)
            .with_machine(opts.machine)
            .with_comm(model.clone())
            .with_trace(TraceOptions::default());

        let seq: bp_core::Result<(SimReport, Option<Trace>)> =
            TimedSimulator::new(&compiled.graph, &compiled.mapping, config.clone())
                .expect("instantiate")
                .run_with_artifacts()
                .map(|(report, trace, _)| (report, trace));

        match &seq {
            Ok((_, trace)) => {
                let trace = trace.as_ref().expect("tracing enabled");
                assert_eq!(trace.dropped, 0, "case {case}: ring wrapped");
                check_invariants(case, trace, &model, true);
                if trace
                    .events
                    .iter()
                    .any(|e| matches!(e, TraceEvent::CommSend { .. }))
                {
                    any_delayed_runs += 1;
                }
            }
            Err(_) => {
                // A random graph may legitimately capacity-deadlock; the
                // equivalence check below still applies.
            }
        }

        for budget in [1usize, 7] {
            let mut sim = TimedSimulator::new(&compiled.graph, &compiled.mapping, config.clone())
                .expect("instantiate");
            while !sim.is_done() {
                sim.step(budget);
            }
            match (&seq, sim.finish_report()) {
                (Ok((s, _)), Ok((p, _))) => assert_eq!(
                    s.fingerprint(),
                    p.fingerprint(),
                    "case {case} stepped by {budget}: fingerprint diverged (model {model:?})"
                ),
                (Err(se), Err(pe)) => assert_eq!(
                    se.to_string(),
                    pe.to_string(),
                    "case {case} stepped by {budget}: errors diverged"
                ),
                _ => panic!("case {case} stepped by {budget}: outcomes diverged"),
            }
        }
    }
    assert!(
        any_delayed_runs >= 3,
        "only {any_delayed_runs} random cases exercised a delayed channel — \
         widen the model distribution"
    );
}

/// Dwell statistics fold back into a calibrated model: for any traced run
/// with delayed traffic, `CommModel::from_profile` yields a base latency
/// no larger than any observed dwell (never faster than measured) and the
/// profile's mean lies between its min and the max dwell.
#[test]
fn profiled_model_is_conservative_for_random_dags() {
    let mut checked = 0u32;
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0xfeed_0000 + case);
        let graph = random_graph(&mut rng);
        // Always delayed here: profiling a zero model is vacuous.
        let model = CommModel::uniform(rng.gen_range_f64(10.0, 200.0) * 1e-9, 0.0);
        let opts = CompileOptions {
            mapping: MappingKind::OneToOne,
            ..Default::default()
        };
        let compiled = compile(&graph, &opts).expect("compile");
        let config = SimConfig::new(FRAMES)
            .with_machine(opts.machine)
            .with_comm(model.clone())
            .with_trace(TraceOptions::default());
        let Ok((_, trace, _)) = TimedSimulator::new(&compiled.graph, &compiled.mapping, config)
            .expect("instantiate")
            .run_with_artifacts()
        else {
            continue; // deadlocked case: covered by the equivalence test
        };
        let trace = trace.expect("tracing enabled");
        let profile = trace.comm_profile();
        if profile.samples == 0 {
            continue;
        }
        let calibrated = CommModel::from_profile(&profile);
        assert!(
            calibrated.base_latency_s >= model.base_latency_s - 1e-15,
            "case {case}: calibrated base {} under true latency {}",
            calibrated.base_latency_s,
            model.base_latency_s
        );
        assert!(
            profile.mean_dwell_s() >= profile.min_dwell_s - 1e-15,
            "case {case}: profile mean under its min"
        );
        checked += 1;
    }
    assert!(checked >= 3, "only {checked} cases produced dwell samples");
}
