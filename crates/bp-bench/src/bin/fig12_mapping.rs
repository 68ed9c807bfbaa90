//! E8 — Figure 12: kernel-to-processor mappings.
//!
//! Compares the naive 1:1 mapping with the greedy multiplexing pass on the
//! parallelized running example: PEs used, measured utilization, and the
//! per-PE resident sets. The paper reports utilization rising from 20% to
//! 37% on this example.

use bp_bench::{breakdown_row, compile_and_simulate, Table};
use bp_compiler::{CompileOptions, MappingKind};

fn main() {
    println!("== Figure 12: 1:1 vs greedy kernel-to-processor mapping ==\n");
    let mut results = Vec::new();
    for (label, kind) in [("1:1", MappingKind::OneToOne), ("GM", MappingKind::Greedy)] {
        let app = bp_apps::fig1b(bp_apps::SMALL, bp_apps::FAST);
        let opts = CompileOptions {
            mapping: kind,
            ..Default::default()
        };
        let (compiled, sim) = compile_and_simulate(&app, &opts, 4).expect(label);
        println!("{}", breakdown_row(label, &sim));
        results.push((label, compiled, sim));
    }
    let u11 = results[0].2.avg_utilization();
    let ugm = results[1].2.avg_utilization();
    println!(
        "\nmeasured: {:.0}% -> {:.0}% utilization, {} -> {} PEs ({:.2}x improvement)",
        100.0 * u11,
        100.0 * ugm,
        results[0].2.num_pes(),
        results[1].2.num_pes(),
        ugm / u11
    );
    println!("paper: 20% -> 37% on its example (1.85x).\n");

    // Resident sets under the greedy mapping.
    let (_, compiled, _) = &results[1];
    println!("greedy PE residency:");
    let mut t = Table::new(&["PE", "resident kernels"]);
    let mut residents: Vec<Vec<String>> = vec![Vec::new(); compiled.mapping.num_pes];
    for (id, node) in compiled.graph.nodes() {
        residents[compiled.mapping.pe_of_node[id.0]].push(node.name.to_string());
    }
    for (pe, names) in residents.iter().enumerate() {
        t.row(&[format!("{pe}"), names.join(", ")]);
    }
    println!("{}", t.render());
    println!(
        "note: the application input and the initial input buffers are pinned to\n\
         their own PEs (they may block the input if not serviced in time, §V)."
    );
}
