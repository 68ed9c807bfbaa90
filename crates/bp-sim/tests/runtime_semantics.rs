//! Tests for the firing semantics of §II-C: custom control tokens, the
//! ready-gate, token-forwarding suppression, and diagnostics.

use bp_core::kernel::{Emitter, FireData, KernelBehavior, KernelDef, KernelSpec, NodeRole};
use bp_core::method::{MethodCost, MethodSpec};
use bp_core::port::{InputSpec, OutputSpec};
use bp_core::token::{ControlToken, CustomTokenDecl, TokenKind};
use bp_core::{Dim2, GraphBuilder, Window};
use bp_sim::{FunctionalExecutor, Program, SimConfig, TimedSimulator};
use std::sync::{Arc, Mutex};

/// Source emitting pixels 0..n-1 with a custom token after every third
/// pixel, then EOL/EOF.
fn flagging_source(dim: Dim2) -> KernelDef {
    struct S {
        dim: Dim2,
        x: u32,
        y: u32,
        v: f64,
    }
    impl KernelBehavior for S {
        fn fire(&mut self, _m: usize, _d: &FireData<'_>, out: &mut Emitter<'_>) {
            out.window("out", Window::scalar(self.v));
            self.v += 1.0;
            if (self.v as u64).is_multiple_of(3) {
                out.token("out", ControlToken::Custom(7));
            }
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
        KernelSpec::new("flagging_source")
            .with_role(NodeRole::Source)
            .output(OutputSpec::stream("out"))
            .method(MethodSpec::source(
                "generate",
                vec!["out".into()],
                MethodCost::new(0, 0),
            ))
            .custom_token(CustomTokenDecl {
                id: 7,
                name: "FLAG".into(),
                max_rate_hz: 1000.0,
            }),
        move || S {
            dim,
            x: 0,
            y: 0,
            v: 0.0,
        },
    )
}

/// Counts custom tokens it handles; passes data through.
fn counting_kernel(counter: Arc<Mutex<u32>>) -> KernelDef {
    struct C {
        counter: Arc<Mutex<u32>>,
    }
    // Spec order: 0 = pass, 1 = onFlag.
    impl KernelBehavior for C {
        fn fire(&mut self, method: usize, d: &FireData<'_>, out: &mut Emitter<'_>) {
            match method {
                0 => out.window("out", Window::scalar(d.window("in").as_scalar())),
                _ => *self.counter.lock().unwrap() += 1,
            }
        }
    }
    KernelDef::new(
        KernelSpec::new("counting")
            .input(InputSpec::stream("in"))
            .output(OutputSpec::stream("out"))
            .method(MethodSpec::on_data(
                "pass",
                "in",
                vec!["out".into()],
                MethodCost::new(1, 0),
            ))
            .method(
                MethodSpec::on_token(
                    "onFlag",
                    "in",
                    TokenKind::Custom(7),
                    vec![],
                    MethodCost::new(1, 0),
                )
                .with_max_rate(1000.0),
            ),
        move || C {
            counter: Arc::clone(&counter),
        },
    )
}

#[test]
fn custom_tokens_are_handled_where_registered_and_forwarded_elsewhere() {
    let dim = Dim2::new(3, 2);
    let counter = Arc::new(Mutex::new(0u32));
    let mut b = GraphBuilder::new();
    let src = b.add_source("Input", flagging_source(dim), dim, 10.0);
    // The doubler has no Custom handler: tokens pass through automatically.
    let dbl = b.add("Scale", bp_kernels::scale(2.0, 0.0));
    let cnt = b.add("Counter", counting_kernel(Arc::clone(&counter)));
    let (sdef, handle) = bp_kernels::sink();
    let snk = b.add("Out", sdef);
    b.connect(src, "out", dbl, "in");
    b.connect(dbl, "out", cnt, "in");
    b.connect(cnt, "out", snk, "in");
    let g = b.build().unwrap();

    let mut ex = FunctionalExecutor::new(&g).unwrap();
    ex.run_frames(1).unwrap();
    // 6 pixels, flags after values 3 and 6 (v counts 1-based internally):
    // v=3 and v=6 -> 2 custom tokens, all forwarded through Scale,
    // consumed by Counter.
    assert_eq!(*counter.lock().unwrap(), 2);
    // The counter did not forward them to the sink (it handled them).
    let customs = handle
        .items()
        .iter()
        .filter(|i| matches!(i, bp_core::Item::Control(ControlToken::Custom(_))))
        .count();
    assert_eq!(customs, 0);
    // Data itself is intact and doubled.
    assert_eq!(handle.samples(), vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0]);
}

#[test]
fn unhandled_custom_tokens_reach_the_sink() {
    let dim = Dim2::new(3, 1);
    let mut b = GraphBuilder::new();
    let src = b.add_source("Input", flagging_source(dim), dim, 10.0);
    let (sdef, handle) = bp_kernels::sink();
    let snk = b.add("Out", sdef);
    b.connect(src, "out", snk, "in");
    let g = b.build().unwrap();
    // The sink has no Custom handler and its data method's trigger group is
    // just "in": the token forwards to the sink's (absent) outputs — i.e.
    // it is consumed and dropped. Add a custom handler? No: verify the
    // executor doesn't wedge on it.
    let mut ex = FunctionalExecutor::new(&g).unwrap();
    ex.run_frames(1).unwrap();
    assert_eq!(ex.residual_items(), 0);
    assert_eq!(handle.samples(), vec![0.0, 1.0, 2.0]);
}

#[test]
fn ready_gate_defers_until_state_is_loaded() {
    // A conv fed data before coefficients: plan() must not fire
    // runConvolve until loadCoeff has run.
    let dim = Dim2::new(6, 6);
    let mut b = GraphBuilder::new();
    let src = b.add_source("Input", bp_kernels::pattern_source(dim), dim, 10.0);
    let buf = b.add(
        "Buf",
        bp_kernels::buffer(Dim2::ONE, Dim2::new(5, 5), bp_core::Step2::ONE, dim),
    );
    let conv = b.add("Conv", bp_kernels::conv2d(5, 5));
    let coeff = b.add(
        "Coeff",
        bp_kernels::const_source("coeff", bp_kernels::identity_coefficients(5, 5)),
    );
    let (sdef, handle) = bp_kernels::sink();
    let snk = b.add("Out", sdef);
    b.connect(src, "out", buf, "in");
    b.connect(buf, "out", conv, "in");
    b.connect(coeff, "out", conv, "coeff");
    b.connect(conv, "out", snk, "in");
    let g = b.build().unwrap();

    // Manually instantiate and push data BEFORE firing the const.
    let mut prog = Program::instantiate(&g).unwrap();
    let conv_idx = prog.find("Conv").unwrap();
    prog.nodes[conv_idx].queues[0]
        .push_back(bp_core::Item::Window(Window::filled(Dim2::new(5, 5), 1.0)));
    assert!(
        prog.nodes[conv_idx].plan().is_none(),
        "conv must not fire without coefficients"
    );
    // Fire the coefficient provider; now the conv can fire.
    let consts = prog.tables.consts.clone();
    for (node, method) in consts {
        prog.fire_source_method(node, method);
    }
    assert!(prog.step_node(conv_idx), "loadCoeff fires first");
    assert!(prog.step_node(conv_idx), "then runConvolve");
    drop(prog);

    // And the full executor path works end to end.
    let mut ex = FunctionalExecutor::new(&g).unwrap();
    ex.run_frames(1).unwrap();
    assert_eq!(handle.frames().len(), 1);
}

#[test]
fn stuck_report_names_blocked_nodes() {
    // Subtract with deliberately misaligned inputs deadlocks; the report
    // should name it and show queue heads.
    let dim = Dim2::new(8, 8);
    let mut b = GraphBuilder::new();
    let src = b.add_source("Input", bp_kernels::pattern_source(dim), dim, 10.0);
    let buf = b.add(
        "Buf",
        bp_kernels::buffer(Dim2::ONE, Dim2::new(3, 3), bp_core::Step2::ONE, dim),
    );
    let med = b.add("Med", bp_kernels::median(3, 3));
    let sub = b.add("Sub", bp_kernels::subtract());
    let (sdef, _h) = bp_kernels::sink();
    let snk = b.add("Out", sdef);
    b.connect(src, "out", buf, "in");
    b.connect(buf, "out", med, "in");
    b.connect(med, "out", sub, "in0");
    b.connect(src, "out", sub, "in1"); // misaligned: 6x6 vs 8x8
    b.connect(sub, "out", snk, "in");
    let g = b.build().unwrap();

    let mut ex = FunctionalExecutor::new(&g).unwrap();
    ex.run_frames(1).unwrap();
    // The subtract consumed pairs until the median path ran dry; the
    // remaining in1 samples are stranded.
    assert!(ex.residual_items() > 0);
    let report = ex.program().stuck_report();
    assert!(report.contains("Sub"), "{report}");
}

#[test]
fn program_firing_counts_are_tracked() {
    let dim = Dim2::new(4, 2);
    let mut b = GraphBuilder::new();
    let src = b.add_source("Input", bp_kernels::pattern_source(dim), dim, 10.0);
    let sc = b.add("Scale", bp_kernels::scale(1.0, 0.0));
    let (sdef, _h) = bp_kernels::sink();
    let snk = b.add("Out", sdef);
    b.connect(src, "out", sc, "in");
    b.connect(sc, "out", snk, "in");
    let g = b.build().unwrap();
    let mut ex = FunctionalExecutor::new(&g).unwrap();
    ex.run_frames(2).unwrap();
    let prog = ex.program();
    let sc_idx = prog.find("Scale").unwrap();
    // 16 data + 4 EOL + 2 EOF forwards.
    assert_eq!(prog.nodes[sc_idx].firings, 22);
    assert!(prog.find("nonexistent").is_none());
}

/// A kernel emitting on output 1 of a one-output spec is stopped at the
/// emission, naming kernel and port — in release builds too, where the
/// item would otherwise be routed along the next node's route row.
#[test]
#[should_panic(expected = "kernel misrouting has no output 1")]
fn emitting_on_a_missing_output_panics_naming_kernel_and_port() {
    struct Misroute;
    impl KernelBehavior for Misroute {
        fn fire(&mut self, _m: usize, d: &FireData<'_>, out: &mut Emitter<'_>) {
            out.window_at(1, d.window_at(0).clone());
        }
    }
    let spec = KernelSpec::new("misrouting")
        .input(InputSpec::stream("in"))
        .output(OutputSpec::stream("out"))
        .method(MethodSpec::on_data(
            "run",
            "in",
            vec!["out".into()],
            MethodCost::new(1, 0),
        ));
    let dim = Dim2::new(2, 1);
    let mut b = GraphBuilder::new();
    let src = b.add_source("Input", bp_kernels::pattern_source(dim), dim, 10.0);
    let bad = b.add("Bad", KernelDef::new(spec, || Misroute));
    let pass = b.add("Pass", bp_kernels::scale(1.0, 0.0));
    let (sdef, _h) = bp_kernels::sink();
    let snk = b.add("Out", sdef);
    b.connect(src, "out", bad, "in");
    b.connect(bad, "out", pass, "in");
    b.connect(pass, "out", snk, "in");
    let g = b.build().unwrap();
    let mapping = bp_core::Mapping::one_to_one(g.node_count());
    let _ = TimedSimulator::new(&g, &mapping, SimConfig::new(1))
        .unwrap()
        .run();
}
