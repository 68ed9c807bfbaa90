//! E2 — Figure 4: the running example automatically parallelized for its
//! input size and rate.
//!
//! Prints the replica counts per kernel, the inserted split/join/replicate
//! plumbing, the final role census, and the real-time verdict from the
//! timed simulation — the paper's Fig. 4 shows conv x3 and median x2 with
//! the histogram merge held serial by its data-dependency edge.

use bp_bench::{compile_and_simulate, Table};
use bp_compiler::{to_dot, CompileOptions};

fn main() {
    let app = bp_apps::fig1b(bp_apps::SMALL, bp_apps::FAST);
    let (compiled, sim) =
        compile_and_simulate(&app, &CompileOptions::default(), 4).expect("compile+simulate");

    println!("== Figure 4: automatic parallelization (small frame, fast rate) ==\n");
    let mut t = Table::new(&["kernel", "utilization", "replicas", "reason"]);
    for p in &compiled.report.parallelize.plans {
        if p.utilization == 0.0 && p.granted == 1 {
            continue;
        }
        t.row(&[
            p.name.to_string(),
            format!("{:.2}", p.utilization),
            format!("x{}", p.granted),
            format!("{:?}", p.reason),
        ]);
    }
    println!("{}", t.render());

    let census = &compiled.report.census;
    println!(
        "inserted plumbing: {} splits, {} joins, {} replicates",
        compiled.report.parallelize.splits_inserted,
        compiled.report.parallelize.joins_inserted,
        compiled.report.parallelize.replicates_inserted,
    );
    println!(
        "final graph: {} nodes / {} channels (buffers {}, splits {}, joins {})",
        census.nodes,
        census.channels,
        census.role("Buffer"),
        census.role("Split"),
        census.role("Join"),
    );
    println!(
        "\npaper (Fig. 4): 5x5 Conv x3, 3x3 Median x2, serial Merge (dep edge), \
         coefficient inputs replicated.\nmeasured: conv x{}, median x{}, merge x{}.",
        compiled
            .report
            .parallelize
            .plan_for("5x5 Conv")
            .map(|p| p.granted)
            .unwrap_or(0),
        compiled
            .report
            .parallelize
            .plan_for("3x3 Median")
            .map(|p| p.granted)
            .unwrap_or(0),
        compiled
            .report
            .parallelize
            .plan_for("Merge")
            .map(|p| p.granted)
            .unwrap_or(0),
    );
    println!(
        "\nreal-time verdict: met={} violations={} required={:.0}Hz achieved={:.1}Hz on {} PEs",
        sim.verdict.met,
        sim.verdict.violations,
        sim.verdict.required_rate_hz,
        sim.verdict.achieved_rate_hz,
        sim.num_pes()
    );
    println!(
        "\n== parallelized graph (Graphviz) ==\n{}",
        to_dot(&compiled.graph)
    );
}
