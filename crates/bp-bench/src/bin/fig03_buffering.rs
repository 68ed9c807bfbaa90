//! E1 — Figure 3: automatic buffer and inset insertion on the running
//! image-processing example.
//!
//! Prints the adjustment kernels the compiler added (buffers with their
//! `[WxH]` storage annotations, the inset kernel with its margins), the
//! resulting graph census, and the Graphviz rendering of the transformed
//! graph.

use bp_bench::Table;
use bp_compiler::{align, insert_buffers, to_dot, AlignPolicy};

fn main() {
    let app = bp_apps::fig1b(bp_apps::SMALL, bp_apps::SLOW);
    let mut g = app.graph.clone();

    let align_report = align(&mut g, AlignPolicy::Trim).expect("alignment");
    let buffer_report = insert_buffers(&mut g).expect("buffering");

    println!("== Figure 3: automatically inserted buffers and inset kernels ==\n");
    let mut t = Table::new(&["kernel", "kind", "conversion", "storage", "for input"]);
    for b in &buffer_report.inserted {
        t.row(&[
            b.name.to_string(),
            "buffer".into(),
            format!(
                "({}x{})[1,1] -> ({}x{})[{},{}] {}",
                b.producer.w,
                b.producer.h,
                b.window.w,
                b.window.h,
                b.step.x,
                b.step.y,
                b.annotation()
            ),
            format!("{} words", b.storage_words),
            b.name.to_string(),
        ]);
    }
    for a in &align_report.inserted {
        t.row(&[
            a.name.to_string(),
            a.kind.to_string(),
            format!(
                "margins l{} r{} t{} b{}",
                a.margins.0, a.margins.1, a.margins.2, a.margins.3
            ),
            "-".into(),
            format!("{}.{}", a.for_input.0, a.for_input.1),
        ]);
    }
    println!("{}", t.render());

    println!(
        "paper (Fig. 3): two buffers (1x1)[1,1]->(3x3)[1,1] and (1x1)[1,1]->(5x5)[1,1]\n\
         plus one inset kernel (0,0)[1,1,1,1] on the median path.\n\
         measured: {} buffers, {} adjustment kernel(s) with margins {:?}.\n",
        buffer_report.inserted.len(),
        align_report.inserted.len(),
        align_report
            .inserted
            .first()
            .map(|a| a.margins)
            .unwrap_or((0, 0, 0, 0))
    );

    println!("== transformed graph (Graphviz) ==\n{}", to_dot(&g));
}
