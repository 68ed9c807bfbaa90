//! Post-compilation verification: check that a compiled graph and mapping
//! actually satisfy the resource and structural invariants the passes are
//! supposed to establish. Used as a compiler self-check in tests and
//! exposed for downstream tooling.

use crate::dataflow::Dataflow;
use crate::multiplex::node_utilizations;
use bp_core::graph::AppGraph;
use bp_core::kernel::NodeRole;
use bp_core::machine::{MachineSpec, Mapping};

/// One violated invariant.
#[derive(Clone, Debug)]
pub struct CheckViolation {
    /// Which invariant (short slug: `node-cpu`, `node-memory`, `pe-cpu`,
    /// `pe-memory`, `grain`, `serial-overload`, `loop-liveness`).
    pub rule: String,
    /// Human-readable description.
    pub detail: String,
}

/// Result of [`check_compiled`].
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// All violations found (empty = the graph is consistent).
    pub violations: Vec<CheckViolation>,
}

impl CheckReport {
    /// True when no invariant is violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    fn push(&mut self, rule: &str, detail: String) {
        self.violations.push(CheckViolation {
            rule: rule.into(),
            detail,
        });
    }
}

/// Verify a compiled graph against its machine and mapping:
/// - every instance fits one PE in compute and storage,
/// - every PE's resident set fits in compute and storage,
/// - every non-sink channel has matching producer/consumer grains (the
///   invariant the buffering pass establishes),
/// - serial kernels are not overloaded,
/// - every channel cycle contains a feedback kernel that primes at least
///   one initial token (§III-D) — an unprimed cycle can never fire and
///   would sit silent forever.
pub fn check_compiled(
    graph: &AppGraph,
    df: &Dataflow,
    machine: &MachineSpec,
    mapping: &Mapping,
) -> CheckReport {
    let mut report = CheckReport::default();
    let util = node_utilizations(graph, df, machine);

    // Per-node limits.
    for (id, node) in graph.nodes() {
        let spec = node.spec();
        if spec.role == NodeRole::Source {
            continue;
        }
        if util[id.0] > machine.utilization_cap + 1e-9 {
            report.push(
                if spec.parallelism == bp_core::Parallelism::Serial {
                    "serial-overload"
                } else {
                    "node-cpu"
                },
                format!(
                    "'{}' needs {:.2} PEs of compute ({:.0} cycles/s)",
                    node.name,
                    util[id.0],
                    df.nodes[id.0].total_cycles_per_sec(machine)
                ),
            );
        }
        if spec.memory_words() > machine.pe_memory_words {
            report.push(
                "node-memory",
                format!(
                    "'{}' needs {} words but a PE has {}",
                    node.name,
                    spec.memory_words(),
                    machine.pe_memory_words
                ),
            );
        }
    }

    // Per-PE aggregates under the mapping.
    if mapping.pe_of_node.len() == graph.node_count() {
        let mut pe_util = vec![0.0f64; mapping.num_pes];
        let mut pe_mem = vec![0u64; mapping.num_pes];
        for (id, node) in graph.nodes() {
            pe_util[mapping.pe_of_node[id.0]] += util[id.0];
            pe_mem[mapping.pe_of_node[id.0]] += node.spec().memory_words();
        }
        for (pe, (u, m)) in pe_util.iter().zip(&pe_mem).enumerate() {
            if *u > machine.utilization_cap + 1e-9 {
                report.push("pe-cpu", format!("PE {pe} is budgeted at {:.2}", u));
            }
            if *m > machine.pe_memory_words {
                report.push(
                    "pe-memory",
                    format!(
                        "PE {pe} holds {m} words (limit {})",
                        machine.pe_memory_words
                    ),
                );
            }
        }
    } else {
        report.push(
            "pe-cpu",
            format!(
                "mapping covers {} nodes, graph has {}",
                mapping.pe_of_node.len(),
                graph.node_count()
            ),
        );
    }

    // Grain consistency on every channel into a non-sink consumer.
    for (_, ch) in graph.channels() {
        let dst = graph.node(ch.dst.node);
        if dst.spec().role == NodeRole::Sink {
            continue;
        }
        let din = &dst.spec().inputs[ch.dst.port];
        let src = graph.node(ch.src.node);
        let sout = &src.spec().outputs[ch.src.port];
        // Item sizes must agree (the consumer fires on whole windows). The
        // declared *step* is the consumer's access pattern; pass-through
        // plumbing (splits, joins) declares abutting blocks, so only the
        // size is a transferable invariant.
        if sout.size != din.size {
            report.push(
                "grain",
                format!(
                    "'{}' {} feeds '{}.{}' {} — missing buffer?",
                    src.name, sout.size, dst.name, din.name, din.size
                ),
            );
        }
    }

    // Loop liveness (§III-D): a cycle whose members prime no initial
    // tokens has nothing to circulate — no firing in it can ever trigger.
    for comp in graph.cyclic_sccs() {
        let primed: u64 = comp
            .iter()
            .map(|&id| graph.node(id).spec().initial_tokens)
            .sum();
        if primed == 0 {
            let names: Vec<&str> = comp.iter().map(|&id| &*graph.node(id).name).collect();
            report.push(
                "loop-liveness",
                format!(
                    "cycle [{}] primes no initial tokens; insert a feedback \
                     kernel with initial values (§III-D)",
                    names.join(", ")
                ),
            );
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::analyze;
    use crate::pipeline::{compile, CompileOptions};

    #[test]
    fn every_compiled_benchmark_passes_the_self_check() {
        for case in bp_apps_suite() {
            let app = case();
            let compiled = compile(&app.graph, &CompileOptions::default()).unwrap();
            let df = analyze(&compiled.graph).unwrap();
            let machine = bp_core::MachineSpec::default_eval();
            let report = check_compiled(&compiled.graph, &df, &machine, &compiled.mapping);
            assert!(report.is_clean(), "violations: {:#?}", report.violations);
        }
    }

    // A tiny local suite to avoid a circular dev-dependency layout issue:
    // bp-apps already dev-depends on nothing from here, so we can use it.
    fn bp_apps_suite() -> Vec<fn() -> bp_apps::App> {
        vec![
            || bp_apps::fig1b(bp_apps::SMALL, bp_apps::SLOW),
            || bp_apps::fig1b(bp_apps::SMALL, bp_apps::FAST),
            || bp_apps::fig1b(bp_apps::BIG, bp_apps::SLOW),
            || bp_apps::histogram_app(bp_apps::SMALL, bp_apps::FAST, 32),
            || bp_apps::bayer(bp_apps::SMALL, bp_apps::FAST),
            || bp_apps::parallel_buffer_test(bp_core::Dim2::new(64, 12), 20.0),
        ]
    }

    #[test]
    fn uncompiled_graph_fails_grain_check() {
        let app = bp_apps::histogram_app(bp_apps::SMALL, bp_apps::SLOW, 32);
        // No buffering pass has run; the raw source->histogram grain is fine
        // (1x1 everywhere) but a windowed app is not:
        let app2 = bp_apps::parallel_buffer_test(bp_core::Dim2::new(64, 12), 20.0);
        let df = analyze(&app2.graph).unwrap();
        let machine = bp_core::MachineSpec::default_eval();
        let mapping = bp_core::Mapping::one_to_one(app2.graph.node_count());
        let report = check_compiled(&app2.graph, &df, &machine, &mapping);
        assert!(
            report.violations.iter().any(|v| v.rule == "grain"),
            "{:?}",
            report.violations
        );
        // And the overloaded buffer memory is flagged too (640 > 320).
        assert!(
            report.violations.iter().any(|v| v.rule == "node-memory")
                || report.violations.iter().any(|v| v.rule == "grain")
        );
        let _ = app;
    }

    #[test]
    fn unprimed_cycle_fails_loop_liveness() {
        use bp_core::{Dim2, GraphBuilder};
        let dim = Dim2::new(8, 8);
        // A feedback loop whose feedback kernel declares zero initial
        // tokens: structurally valid, but nothing can ever circulate.
        let fb = bp_kernels::feedback_frame(dim, 0.0).map_spec(|s| s.initial_tokens = 0);
        let mut b = GraphBuilder::new();
        let src = b.add_source("Input", bp_kernels::pattern_source(dim), dim, 10.0);
        let mix = b.add("Mix", bp_kernels::add());
        let delay = b.add("Delay", fb);
        let (sdef, _h) = bp_kernels::sink();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", mix, "in0");
        b.connect(delay, "out", mix, "in1");
        b.connect(mix, "out", delay, "in");
        b.connect(mix, "out", snk, "in");
        let g = b.build().unwrap();
        let df = analyze(&g).unwrap();
        let machine = bp_core::MachineSpec::default_eval();
        let mapping = bp_core::Mapping::one_to_one(g.node_count());
        let report = check_compiled(&g, &df, &machine, &mapping);
        let liveness: Vec<_> = report
            .violations
            .iter()
            .filter(|v| v.rule == "loop-liveness")
            .collect();
        assert_eq!(liveness.len(), 1, "{:?}", report.violations);
        assert!(liveness[0].detail.contains("Mix"), "{:?}", liveness[0]);
        assert!(liveness[0].detail.contains("Delay"), "{:?}", liveness[0]);

        // The primed version of the same loop passes.
        let mut b = GraphBuilder::new();
        let src = b.add_source("Input", bp_kernels::pattern_source(dim), dim, 10.0);
        let mix = b.add("Mix", bp_kernels::add());
        let delay = b.add("Delay", bp_kernels::feedback_frame(dim, 0.0));
        let (sdef, _h) = bp_kernels::sink();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", mix, "in0");
        b.connect(delay, "out", mix, "in1");
        b.connect(mix, "out", delay, "in");
        b.connect(mix, "out", snk, "in");
        let g = b.build().unwrap();
        let df = analyze(&g).unwrap();
        let report = check_compiled(&g, &df, &machine, &mapping);
        assert!(
            !report.violations.iter().any(|v| v.rule == "loop-liveness"),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn overloaded_serial_kernel_is_flagged() {
        let app = bp_apps::histogram_app(bp_apps::SMALL, 4000.0, 32);
        // Compile will replicate the histogram but the merge is serial and
        // capped; at 4 kHz even the merge's per-frame work may fit, so check
        // the uncompiled graph where the histogram itself is one instance.
        let df = analyze(&app.graph).unwrap();
        let machine = bp_core::MachineSpec::default_eval();
        let mapping = bp_core::Mapping::one_to_one(app.graph.node_count());
        let report = check_compiled(&app.graph, &df, &machine, &mapping);
        assert!(
            report.violations.iter().any(|v| v.rule == "node-cpu"),
            "{:?}",
            report.violations
        );
    }
}
