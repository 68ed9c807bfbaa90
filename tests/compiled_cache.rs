//! Shape-key suite: same-shape tenants share one key and run identically;
//! a re-tune is a new shape and never perturbs other tenants (DESIGN.md
//! §16).

use bp_apps::apps;
use bp_codegen::shape_key;
use bp_compiler::{compile, CompileOptions};
use bp_core::Dim2;
use bp_serve::{CacheStats, FleetConfig, FleetHost, TenantSpec};
use bp_sim::{Backend, SimConfig, TimedSimulator};

fn fig1b_spec(name: &str, dim: Dim2, rate: f64) -> TenantSpec {
    let app = apps::fig1b(dim, rate);
    let c = compile(&app.graph, &CompileOptions::default()).expect("compile");
    TenantSpec::new(name, c.graph, c.mapping, SimConfig::new(2))
}

/// Two same-shape tenants under different names share one shape key; the
/// report counts the first as a first sight and the twin as a repeat.
#[test]
fn same_shape_tenants_share_one_lowered_graph() {
    let (a, b) = (
        fig1b_spec("a", Dim2::new(24, 12), 30.0),
        fig1b_spec("b", Dim2::new(24, 12), 30.0),
    );
    let key = shape_key(&a.graph);
    let mut host = FleetHost::new(FleetConfig::new());
    host.enqueue(a);
    host.enqueue(b);
    let report = host.run().expect("fleet run");
    let counts = CacheStats { hits: 1, misses: 1 };
    assert_eq!(report.cache, counts, "one shape, seen twice");
    assert_eq!(
        report.tenants[0].shape_key, report.tenants[1].shape_key,
        "identical shapes must share a key"
    );
    assert_eq!(report.tenants[0].shape_key, key);
    // The twins compute identical reports.
    assert_eq!(
        report.tenants[0].report.fingerprint(),
        report.tenants[1].report.fingerprint()
    );
}

/// Re-tuning one tenant's window geometry (or rate) yields a distinct
/// shape key — a second first sight — while the untouched tenant's
/// fingerprint is bit-identical to the pre-retune fleet.
#[test]
fn window_retune_gets_a_new_key_without_perturbing_the_other_tenant() {
    let baseline = {
        let mut host = FleetHost::new(FleetConfig::new());
        host.enqueue(fig1b_spec("stable", Dim2::new(24, 12), 30.0));
        host.enqueue(fig1b_spec("tuned", Dim2::new(24, 12), 30.0));
        host.run().expect("fleet run")
    };

    let mut host = FleetHost::new(FleetConfig::new());
    host.enqueue(fig1b_spec("stable", Dim2::new(24, 12), 30.0));
    host.enqueue(fig1b_spec("tuned", Dim2::new(32, 16), 30.0)); // re-tuned geometry
    let retuned = host.run().expect("fleet run");

    let counts = CacheStats { hits: 0, misses: 2 };
    assert_eq!(retuned.cache, counts, "the re-tune is a new shape");
    assert_ne!(
        retuned.tenants[0].shape_key, retuned.tenants[1].shape_key,
        "geometry re-tune must produce a distinct shape key"
    );
    assert_eq!(
        baseline.tenants[0].report.fingerprint(),
        retuned.tenants[0].report.fingerprint(),
        "the untouched tenant must be unaffected by its neighbor's re-tune"
    );
    assert_ne!(
        baseline.tenants[1].report.fingerprint(),
        retuned.tenants[1].report.fingerprint(),
        "the re-tuned tenant is a genuinely different simulation"
    );

    // A rate re-tune (same geometry) also splits the key.
    let a = fig1b_spec("r30", Dim2::new(24, 12), 30.0);
    let b = fig1b_spec("r50", Dim2::new(24, 12), 50.0);
    assert_ne!(shape_key(&a.graph), shape_key(&b.graph));
}

/// Nothing is handed to the engine any more: the mask planner plans
/// from the method table every node holds, so `SimConfig::with_lowered` —
/// kept for the frozen benchmark package — ignores its program, even one
/// lowered from a different graph with the same node count.
#[test]
fn with_lowered_of_a_foreign_program_changes_nothing() {
    use bp_core::{GraphBuilder, Mapping};
    let dim = Dim2::new(8, 4);
    let chain = {
        let mut b = GraphBuilder::new();
        let src = b.add_source("In", bp_kernels::pattern_source(dim), dim, 20.0);
        let s1 = b.add("S1", bp_kernels::scale(2.0, 0.0));
        let s2 = b.add("S2", bp_kernels::scale(0.5, 1.0));
        let out = b.add("Out", bp_kernels::sink().0);
        b.connect(src, "out", s1, "in");
        b.connect(s1, "out", s2, "in");
        b.connect(s2, "out", out, "in");
        b.build().expect("chain validates")
    };
    let fork = {
        let mut b = GraphBuilder::new();
        let src = b.add_source("In", bp_kernels::pattern_source(dim), dim, 20.0);
        let rep = b.add("Rep", bp_kernels::replicate(2, Dim2::new(1, 1)));
        let o1 = b.add("O1", bp_kernels::sink().0);
        let o2 = b.add("O2", bp_kernels::sink().0);
        b.connect(src, "out", rep, "in");
        b.connect(rep, "out0", o1, "in");
        b.connect(rep, "out1", o2, "in");
        b.build().expect("fork validates")
    };
    assert_eq!(chain.node_count(), fork.node_count());
    let mapping = Mapping::one_to_one(chain.node_count());
    let run = |config: SimConfig| {
        let sim = TimedSimulator::new(&chain, &mapping, config).expect("instantiate");
        sim.run().expect("run").fingerprint()
    };
    let config = SimConfig::new(1).with_backend(Backend::Auto);
    let foreign = std::sync::Arc::new(bp_codegen::lower_graph(&fork).expect("lower"));
    assert_eq!(run(config.clone().with_lowered(foreign)), run(config));
}

/// `lower_graph` is public and takes any graph, validated or not: a method
/// that names a port its kernel does not have is a typed validation error
/// naming node, method and port — for an unknown trigger input (which used
/// to panic on `expect("validated trigger input")`) and for an unknown
/// output (which used to be dropped silently) — and everything that
/// instantiates a graph reports the same thing.
#[test]
fn lowering_an_unvalidated_graph_is_a_typed_error_not_a_panic() {
    use bp_core::{BpError, GraphBuilder, Mapping, MethodCost, MethodSpec};
    let dim = Dim2::new(8, 4);
    let unvalidated = |method: MethodSpec| {
        // `scale` (input `in`, output `out`) with its one method replaced.
        let bad = bp_kernels::scale(1.0, 0.0).map_spec(|s| s.methods[0] = method);
        let mut b = GraphBuilder::new();
        let src = b.add_source("In", bp_kernels::pattern_source(dim), dim, 20.0);
        let k = b.add("Bad", bad);
        let out = b.add("Out", bp_kernels::sink().0);
        b.connect(src, "out", k, "in");
        b.connect(k, "out", out, "in");
        b.build_unchecked()
    };
    let cost = MethodCost::new(1, 0);
    let cases = [
        (
            MethodSpec::on_data("run", "nope", vec!["out".into()], cost),
            "method 'run' of node 'Bad' triggers on unknown input 'nope'",
            "method 'run' of kernel 'scale' triggers on unknown input 'nope'",
        ),
        (
            MethodSpec::on_data("run", "in", vec!["gone".into()], cost),
            "method 'run' of node 'Bad' writes unknown output 'gone'",
            "method 'run' of kernel 'scale' writes unknown output 'gone'",
        ),
    ];
    for (method, of_node, of_kernel) in cases {
        let graph = unvalidated(method);
        let of_node = BpError::Validation(of_node.into());
        assert_eq!(graph.validate().unwrap_err(), of_node);
        assert_eq!(bp_codegen::lower_graph(&graph).unwrap_err(), of_node);
        let bad = &graph.node(graph.find_node("Bad").unwrap()).def.spec;
        let of_kernel = BpError::Validation(of_kernel.into());
        assert_eq!(bad.method_table().err(), Some(of_kernel));
        assert_eq!(
            bp_sim::Program::instantiate(&graph).err(),
            Some(of_node.clone())
        );
        let mapping = Mapping::one_to_one(graph.node_count());
        for backend in [Backend::Interpreted, Backend::Auto] {
            let config = SimConfig::new(1).with_backend(backend);
            let built = TimedSimulator::new(&graph, &mapping, config);
            assert_eq!(built.err(), Some(of_node.clone()), "{backend:?}");
        }
    }
}
