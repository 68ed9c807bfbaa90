//! Tests for the latency metric and the §II-C custom-token rate-bound
//! verification added to the timed simulator.

use bp_core::kernel::{Emitter, FireData, KernelBehavior, KernelDef, KernelSpec, NodeRole};
use bp_core::method::{MethodCost, MethodSpec};
use bp_core::port::OutputSpec;
use bp_core::token::{ControlToken, CustomTokenDecl};
use bp_core::{Dim2, GraphBuilder, Mapping, Window};
use bp_sim::{SimConfig, TimedSimulator};

#[test]
fn latency_is_positive_and_bounded_by_frame_period() {
    let dim = Dim2::new(8, 6);
    let mut b = GraphBuilder::new();
    let src = b.add_source("Input", bp_kernels::pattern_source(dim), dim, 20.0);
    let sc = b.add("Scale", bp_kernels::scale(1.0, 0.0));
    let (sdef, _h) = bp_kernels::sink();
    let snk = b.add("Out", sdef);
    b.connect(src, "out", sc, "in");
    b.connect(sc, "out", snk, "in");
    let g = b.build().unwrap();
    let m = Mapping::one_to_one(g.node_count());
    let report = TimedSimulator::new(&g, &m, SimConfig::new(3))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(report.frame_latencies.len(), 3);
    let period = 1.0 / 20.0;
    for &l in &report.frame_latencies {
        // A frame can only complete after its last sample arrives, so the
        // latency is at least almost a full frame period; the light
        // pipeline adds little on top.
        assert!(l > 0.9 * period, "latency {l}");
        assert!(l < 1.5 * period, "latency {l}");
    }
    assert!(report.avg_latency() > 0.0);
}

#[test]
fn deeper_pipelines_add_latency_but_not_throughput() {
    let build = |stages: usize| {
        let dim = Dim2::new(8, 6);
        let mut b = GraphBuilder::new();
        let src = b.add_source("Input", bp_kernels::pattern_source(dim), dim, 20.0);
        let mut prev = src;
        for i in 0..stages {
            let s = b.add(format!("S{i}"), bp_kernels::scale(1.0, 0.0));
            b.connect(prev, "out", s, "in");
            prev = s;
        }
        let (sdef, _h) = bp_kernels::sink();
        let snk = b.add("Out", sdef);
        b.connect(prev, "out", snk, "in");
        b.build().unwrap()
    };
    let run = |stages: usize| {
        let g = build(stages);
        let m = Mapping::one_to_one(g.node_count());
        TimedSimulator::new(&g, &m, SimConfig::new(3))
            .unwrap()
            .run()
            .unwrap()
    };
    let shallow = run(1);
    let deep = run(8);
    assert!(deep.avg_latency() > shallow.avg_latency());
    assert!(shallow.verdict.met && deep.verdict.met);
    // Throughput unaffected, as §IV-D argues for added (communication) delay.
    assert!((deep.verdict.achieved_rate_hz - shallow.verdict.achieved_rate_hz).abs() < 1.0);
}

/// A source that emits one custom token per *pixel* while declaring a
/// once-per-frame bound — a §II-C contract violation.
fn lying_source(dim: Dim2, declared_rate: f64) -> KernelDef {
    struct S {
        dim: Dim2,
        x: u32,
        y: u32,
    }
    impl KernelBehavior for S {
        fn fire(&mut self, _m: usize, _d: &FireData<'_>, out: &mut Emitter<'_>) {
            out.window("out", Window::scalar(1.0));
            out.token("out", ControlToken::Custom(3));
            self.x += 1;
            if self.x == self.dim.w {
                self.x = 0;
                out.token("out", ControlToken::EndOfLine);
                self.y += 1;
                if self.y == self.dim.h {
                    self.y = 0;
                    out.token("out", ControlToken::EndOfFrame);
                }
            }
        }
    }
    KernelDef::new(
        KernelSpec::new("lying_source")
            .with_role(NodeRole::Source)
            .output(OutputSpec::stream("out"))
            .method(MethodSpec::source(
                "generate",
                vec!["out".into()],
                MethodCost::new(0, 0),
            ))
            .custom_token(CustomTokenDecl {
                id: 3,
                name: "BURST".into(),
                max_rate_hz: declared_rate,
            }),
        move || S { dim, x: 0, y: 0 },
    )
}

#[test]
fn token_rate_bound_violations_are_reported() {
    let dim = Dim2::new(6, 4);
    let rate = 10.0;
    let mut b = GraphBuilder::new();
    // Declares 10 tokens/s (once per frame) but emits one per pixel (240/s).
    let src = b.add_source("Input", lying_source(dim, rate), dim, rate);
    let (sdef, _h) = bp_kernels::sink();
    let snk = b.add("Out", sdef);
    b.connect(src, "out", snk, "in");
    let g = b.build().unwrap();
    let m = Mapping::one_to_one(g.node_count());
    let report = TimedSimulator::new(&g, &m, SimConfig::new(2))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(report.token_rate_violations.len(), 1);
    let (name, observed, declared) = &report.token_rate_violations[0];
    assert_eq!(name, "Input");
    assert!(
        *observed > *declared * 10.0,
        "observed {observed} declared {declared}"
    );
}

#[test]
fn honest_token_rates_pass_the_check() {
    // Declares a generous bound and emits once per frame: no violation.
    let dim = Dim2::new(6, 4);
    let mut b = GraphBuilder::new();
    let src = b.add_source("Input", lying_source(dim, 500.0), dim, 10.0);
    let (sdef, _h) = bp_kernels::sink();
    let snk = b.add("Out", sdef);
    b.connect(src, "out", snk, "in");
    let g = b.build().unwrap();
    let m = Mapping::one_to_one(g.node_count());
    let report = TimedSimulator::new(&g, &m, SimConfig::new(2))
        .unwrap()
        .run()
        .unwrap();
    assert!(report.token_rate_violations.is_empty());
}
