//! Integration tests for compiler-level behaviours that span passes:
//! pipeline dependency edges, policy effects, diagnostics on misaligned
//! graphs, and dot/report output.

use bp_apps::{apps, presets};
use bp_compiler::{compile, to_dot, AlignPolicy, CompileOptions, MappingKind};
use bp_core::kernel::{Emitter, FireData, KernelBehavior, KernelDef, KernelSpec};
use bp_core::method::{MethodCost, MethodSpec};
use bp_core::port::{InputSpec, OutputSpec};
use bp_core::{Dim2, GraphBuilder, Window};
use bp_kernels as k;

/// An expensive per-pixel kernel, to force replication.
fn heavy(cycles: u64) -> KernelDef {
    struct H;
    impl KernelBehavior for H {
        fn fire(&mut self, _m: usize, d: &FireData<'_>, out: &mut Emitter<'_>) {
            out.window("out", Window::scalar(d.window("in").as_scalar() + 1.0));
        }
    }
    KernelDef::new(
        KernelSpec::new("heavy")
            .input(InputSpec::stream("in"))
            .output(OutputSpec::stream("out"))
            .method(MethodSpec::on_data(
                "run",
                "in",
                vec!["out".into()],
                MethodCost::new(cycles, 1),
            )),
        || H,
    )
}

#[test]
fn pipeline_dep_edges_cap_downstream_stages() {
    // A -> B pipeline where both would want many replicas; a dependency
    // edge from A to B caps B at A's replica count (§IV-B's pipeline
    // construction).
    let dim = Dim2::new(16, 8);
    let mut b = GraphBuilder::new();
    let src = b.add_source("Input", k::pattern_source(dim), dim, 100.0);
    let a = b.add("A", heavy(200)); // util ≈ 12800*200/950k ≈ 2.7 -> x3
    let bb = b.add("B", heavy(500)); // would want x7 alone
    let (sdef, h) = k::sink();
    let snk = b.add("Out", sdef);
    b.connect(src, "out", a, "in");
    b.connect(a, "out", bb, "in");
    b.connect(bb, "out", snk, "in");
    b.dep_edge(a, bb);
    let g = b.build().unwrap();

    let c = compile(&g, &CompileOptions::default()).unwrap();
    let pa = c.report.parallelize.plan_for("A").unwrap();
    let pb = c.report.parallelize.plan_for("B").unwrap();
    assert!(pa.granted >= 2);
    assert!(
        pb.desired >= pa.granted,
        "B wanted at least as many: {pb:?}"
    );
    assert_eq!(
        pb.granted, pa.granted,
        "dep edge must cap B to A's replica count"
    );
    assert_eq!(
        pb.reason,
        bp_compiler::ReplicaReason::DepEdgeCapped,
        "{pb:?}"
    );

    // And the capped pipeline still computes the right thing.
    let mut ex = bp_sim::FunctionalExecutor::new(&c.graph).unwrap();
    ex.run_frames(1).unwrap();
    let got = &h.frames()[0];
    for (i, v) in got.iter().enumerate() {
        let x = i as u32 % 16;
        let y = i as u32 / 16;
        assert_eq!(*v, bp_apps::reference::pattern_pixel(0, x, y) + 2.0);
    }
}

#[test]
fn trim_and_pad_policies_change_output_size() {
    let app_t = apps::fig1b(presets::SMALL, presets::SLOW);
    let c_t = compile(
        &app_t.graph,
        &CompileOptions {
            align: AlignPolicy::Trim,
            ..Default::default()
        },
    )
    .unwrap();
    let app_p = apps::fig1b(presets::SMALL, presets::SLOW);
    let c_p = compile(
        &app_p.graph,
        &CompileOptions {
            align: AlignPolicy::PadZero,
            ..Default::default()
        },
    )
    .unwrap();
    let mut ex = bp_sim::FunctionalExecutor::new(&c_t.graph).unwrap();
    ex.run_frames(1).unwrap();
    let mut ex = bp_sim::FunctionalExecutor::new(&c_p.graph).unwrap();
    ex.run_frames(1).unwrap();
    // Trim: 16x8 = 128 samples counted; PadZero: 18x10 = 180.
    let total_t: f64 = app_t.sinks[0].1.frames()[0].iter().sum();
    let total_p: f64 = app_p.sinks[0].1.frames()[0].iter().sum();
    assert_eq!(total_t, 128.0);
    assert_eq!(total_p, 180.0);
}

#[test]
fn mirror_pad_policy_compiles_and_runs() {
    let app = apps::fig1b(presets::SMALL, presets::SLOW);
    let c = compile(
        &app.graph,
        &CompileOptions {
            align: AlignPolicy::PadMirror,
            ..Default::default()
        },
    )
    .unwrap();
    let mut ex = bp_sim::FunctionalExecutor::new(&c.graph).unwrap();
    ex.run_frames(2).unwrap();
    assert_eq!(ex.residual_items(), 0);
    for counts in app.sinks[0].1.frames() {
        let total: f64 = counts.iter().sum();
        assert_eq!(total, 180.0); // padded to 18x10 like PadZero
    }
}

#[test]
fn misaligned_graph_fails_strict_analysis_with_diagnostics() {
    let app = apps::fig1b(presets::SMALL, presets::SLOW);
    let err = bp_compiler::analyze(&app.graph).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("Subtract"), "{msg}");
    assert!(msg.contains("alignment pass"), "{msg}");
}

#[test]
fn dot_export_reflects_roles_and_replicated_edges() {
    let app = apps::fig1b(presets::SMALL, presets::FAST);
    let c = compile(&app.graph, &CompileOptions::default()).unwrap();
    let dot = to_dot(&c.graph);
    assert!(
        dot.contains("parallelogram"),
        "buffers drawn as parallelograms"
    );
    assert!(dot.contains("diamond"), "split/join drawn as diamonds");
    assert!(dot.contains("invhouse"), "inset drawn as inverted house");
    assert!(dot.contains("style=dashed"), "replicated inputs dashed");
    assert!(dot.contains("style=dotted"), "dependency edges dotted");
}

#[test]
fn one_to_one_uses_one_pe_per_node() {
    let app = apps::fig1b(presets::SMALL, presets::SLOW);
    let c = compile(
        &app.graph,
        &CompileOptions {
            mapping: MappingKind::OneToOne,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(c.mapping.num_pes, c.report.census.nodes);
}

#[test]
fn infeasible_serial_kernel_is_reported() {
    // A serial kernel that cannot keep up is flagged, not silently built.
    let dim = Dim2::new(16, 8);
    let mut b = GraphBuilder::new();
    let src = b.add_source("Input", k::pattern_source(dim), dim, 400.0);
    let hv = heavy(500).map_spec(|s| s.parallelism = bp_core::Parallelism::Serial);
    let hn = b.add("SerialHeavy", hv);
    let (sdef, _h) = k::sink();
    let snk = b.add("Out", sdef);
    b.connect(src, "out", hn, "in");
    b.connect(hn, "out", snk, "in");
    let g = b.build().unwrap();
    let c = compile(&g, &CompileOptions::default()).unwrap();
    assert!(c
        .report
        .parallelize
        .infeasible_serial
        .contains(&"SerialHeavy".to_string()));
}
