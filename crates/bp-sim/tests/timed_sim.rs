//! Integration tests for the timing-accurate simulator: equivalence with
//! the functional executor, overload detection, utilization accounting, and
//! multiplexed scheduling.

use bp_core::kernel::{Emitter, FireData, KernelBehavior, KernelDef, KernelSpec, NodeRole};
use bp_core::method::{MethodCost, MethodSpec};
use bp_core::port::{InputSpec, OutputSpec};
use bp_core::{Dim2, GraphBuilder, MachineSpec, Mapping};
use bp_kernels as k;
use bp_sim::{FunctionalExecutor, SimConfig, TimedSimulator};

/// A pass-through kernel with a configurable cycle cost.
fn costly_passthrough(cycles: u64) -> KernelDef {
    struct Pass;
    impl KernelBehavior for Pass {
        fn fire(&mut self, _m: usize, d: &FireData<'_>, out: &mut Emitter<'_>) {
            out.window("out", bp_core::Window::scalar(d.window("in").as_scalar()));
        }
    }
    KernelDef::new(
        KernelSpec::new("pass")
            .input(InputSpec::stream("in"))
            .output(OutputSpec::stream("out"))
            .method(MethodSpec::on_data(
                "run",
                "in",
                vec!["out".into()],
                MethodCost::new(cycles, 1),
            )),
        || Pass,
    )
}

fn pipeline(cycles: u64, dim: Dim2, rate: f64) -> (bp_core::AppGraph, k::SinkHandle) {
    let mut b = GraphBuilder::new();
    let src = b.add_source("Input", k::pattern_source(dim), dim, rate);
    let p = b.add("Pass", costly_passthrough(cycles));
    let (sdef, h) = k::sink();
    let snk = b.add("Out", sdef);
    b.connect(src, "out", p, "in");
    b.connect(p, "out", snk, "in");
    (b.build().unwrap(), h)
}

#[test]
fn timed_and_functional_agree_on_data() {
    let dim = Dim2::new(8, 6);
    let (g1, h1) = pipeline(10, dim, 20.0);
    let (g2, h2) = pipeline(10, dim, 20.0);

    let mut ex = FunctionalExecutor::new(&g1).unwrap();
    ex.run_frames(3).unwrap();

    let mapping = Mapping::one_to_one(g2.node_count());
    TimedSimulator::new(&g2, &mapping, SimConfig::new(3))
        .unwrap()
        .run()
        .unwrap();

    assert_eq!(h1.frames(), h2.frames());
    assert_eq!(h1.frame_count(), 3);
}

#[test]
fn sustained_overload_misses_the_deadline() {
    // 8x6 @ 100 Hz = 4800 samples/s; at 1000 cycles each the kernel needs
    // 4.8 PEs worth of cycles: the source inevitably finds queues full.
    let dim = Dim2::new(8, 6);
    let (g, _h) = pipeline(1000, dim, 100.0);
    let mapping = Mapping::one_to_one(g.node_count());
    let report = TimedSimulator::new(&g, &mapping, SimConfig::new(3))
        .unwrap()
        .run()
        .unwrap();
    assert!(!report.verdict.met);
    assert!(report.verdict.violations > 0);
    assert!(report.verdict.achieved_rate_hz < 100.0 * 0.9);
}

#[test]
fn feasible_load_meets_the_deadline_exactly() {
    let dim = Dim2::new(8, 6);
    let (g, _h) = pipeline(50, dim, 100.0);
    let mapping = Mapping::one_to_one(g.node_count());
    let report = TimedSimulator::new(&g, &mapping, SimConfig::new(4))
        .unwrap()
        .run()
        .unwrap();
    assert!(report.verdict.met, "{:?}", report.verdict);
    assert!((report.verdict.achieved_rate_hz - 100.0).abs() < 5.0);
    assert_eq!(report.frames_completed, 4);
    assert_eq!(report.residual_items, 0);
}

#[test]
fn utilization_accounting_matches_hand_calculation() {
    // One frame of 8x6 = 48 samples at 10 Hz; the pass kernel costs
    // 100 cycles run + (1 read + 1 write) * cost words per firing.
    let dim = Dim2::new(8, 6);
    let (g, _h) = pipeline(100, dim, 10.0);
    let mapping = Mapping::one_to_one(g.node_count());
    let machine = MachineSpec::default_eval();
    let report = TimedSimulator::new(&g, &mapping, SimConfig::new(1).with_machine(machine))
        .unwrap()
        .run()
        .unwrap();
    let pass = g.find_node("Pass").unwrap();
    let pe = mapping.pe_of_node[pass.0];
    let stats = report.pe_stats[pe];
    // 48 data firings at 100 cycles, plus 7 token forwards (6 EOL + 1 EOF)
    // at 1 cycle each, all charged to run time.
    let expected_run = (48.0 * 100.0 + 7.0) / machine.pe_clock_hz;
    assert!(
        (stats.run - expected_run).abs() < 1e-9,
        "run {} vs {}",
        stats.run,
        expected_run
    );
    // Tokens carry zero words, so reads are exactly one word per sample.
    let expected_read = 48.0 * machine.read_cost_per_word / machine.pe_clock_hz;
    assert!((stats.read - expected_read).abs() < 1e-9);
}

#[test]
fn multiplexed_mapping_matches_one_to_one_results() {
    let dim = Dim2::new(8, 6);
    let (g1, h1) = pipeline(30, dim, 10.0);
    let (g2, h2) = pipeline(30, dim, 10.0);
    let m1 = Mapping::one_to_one(g1.node_count());
    // Everything on a single PE.
    let m2 = Mapping::from_assignment(vec![0; g2.node_count()]);
    let r1 = TimedSimulator::new(&g1, &m1, SimConfig::new(2))
        .unwrap()
        .run()
        .unwrap();
    let r2 = TimedSimulator::new(&g2, &m2, SimConfig::new(2))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(h1.frames(), h2.frames());
    assert!(r1.verdict.met && r2.verdict.met);
    // The single shared PE is busier than the average 1:1 PE.
    assert!(r2.avg_utilization() > r1.avg_utilization());
}

#[test]
fn source_pacing_is_exact() {
    // 2x2 @ 10 Hz over 2 frames: the last sample is injected at
    // (8 - 1) * (1 / (10*4)) = 0.175 s; total sim time is at least that.
    let dim = Dim2::new(2, 2);
    let (g, _h) = pipeline(1, dim, 10.0);
    let mapping = Mapping::one_to_one(g.node_count());
    let report = TimedSimulator::new(&g, &mapping, SimConfig::new(2))
        .unwrap()
        .run()
        .unwrap();
    assert!(report.sim_time >= 0.175);
    assert!(report.sim_time < 0.2);
}

#[test]
fn mapping_size_mismatch_is_rejected() {
    let dim = Dim2::new(2, 2);
    let (g, _h) = pipeline(1, dim, 10.0);
    let bad = Mapping::one_to_one(g.node_count() + 1);
    let err = TimedSimulator::new(&g, &bad, SimConfig::new(1))
        .err()
        .unwrap();
    assert!(err.to_string().contains("mapping"));
}

#[test]
fn sink_roles_collect_frame_completions() {
    let dim = Dim2::new(4, 4);
    let (g, h) = pipeline(5, dim, 25.0);
    // Confirm role bookkeeping: one source, one sink.
    let census = g.role_census();
    assert_eq!(census[&NodeRole::Source], 1);
    assert_eq!(census[&NodeRole::Sink], 1);
    let mapping = Mapping::one_to_one(g.node_count());
    let report = TimedSimulator::new(&g, &mapping, SimConfig::new(5))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(report.frames_completed, 5);
    assert_eq!(h.frame_count(), 5);
}
