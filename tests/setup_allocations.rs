//! A gate on the set-up path that does not depend on this host's clock:
//! heap allocations made by build → compile → check → instantiate,
//! counted by this binary's own global allocator on the measuring thread.
//!
//! Three graphs: the paper's running example where it replicates
//! (`fig1b` 40×24 at 200 Hz, greedy mapping), two cameras one kernel per PE
//! (`camera_bank(2)`, same frame and rate, one-to-one), and a hand-built
//! 64-way `split_rr` → 64 × `scale` → `join_rr(64)` chain — the widest join
//! the mask planner plans, where per-node name resolution was cubic in the
//! width.
//!
//! Recorded on the parent commit (aa33000, before specs were shared and
//! resolved once, before the graph kept an adjacency index), by this file's
//! `set_up` on that tree, allocations (output nodes):
//!
//! | graph          | allocations | output nodes | per node |
//! |----------------|-------------|--------------|----------|
//! | fig1b          | 7 055       | 48           | 147      |
//! | camera_bank(2) | 13 650      | 96           | 142      |
//! | wide chain     | 12 580      | 68           | 185      |
//!
//! (the same in debug and release builds). The path must stay at or below
//! half of each and at or below 70 per output node, and the count must
//! repeat exactly.
//!
//! A second gate holds the traced event loop to a fixed number of extra
//! allocations, whatever the run length: `fig1b` 40×24 at 200 Hz, run for
//! 2 and for 4 frames, plain and traced. When the traced loop collected
//! each firing's queue depths into a `Vec`, tracing cost 28 590 extra
//! allocations at 2 frames and 56 794 at 4 — one per firing; with the
//! depths written straight into the ring it is the recorder's fixed set-up
//! (366) at both.

use bp_apps::apps;
use bp_compiler::{check_compiled, compile, CompileOptions, Compiled, MappingKind};
use bp_core::{AppGraph, Dim2, GraphBuilder};
use bp_sim::{SimConfig, TimedSimulator, TraceOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (`const`-initialised and without a
    /// destructor, so touching it from inside the allocator allocates
    /// nothing itself).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method hands its arguments to `System` unchanged, so the
// caller's `GlobalAlloc` obligations are exactly `System`'s; the only
// addition is a thread-local counter increment, which neither allocates nor
// unwinds. (This is the one place the repository's tests need `unsafe`: a
// counting allocator cannot be written without implementing the trait.)
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn wide_chain() -> AppGraph {
    const K: usize = 64;
    let dim = Dim2::new(K as u32, 4);
    let mut b = GraphBuilder::new();
    let src = b.add_source("In", bp_kernels::pattern_source(dim), dim, 10.0);
    let split = b.add("Split", bp_kernels::split_rr(K, Dim2::ONE));
    let join = b.add("Join", bp_kernels::join_rr(K, Dim2::ONE));
    let snk = b.add("Out", bp_kernels::sink().0);
    b.connect(src, "out", split, "in");
    for i in 0..K {
        let lane = b.add(format!("Lane{i}"), bp_kernels::scale(2.0, 0.0));
        b.connect(split, &format!("out{i}"), lane, "in");
        b.connect(lane, "out", join, &format!("in{i}"));
    }
    b.connect(join, "out", snk, "in");
    b.build().expect("the wide chain validates")
}

/// One design point, graph to instantiated simulator — the calls the
/// repo benchmark's `explore_static` makes (its remaining `lower_graph`
/// call only reads the tables instantiation resolves anyway). Returns
/// `(allocations, output nodes)`.
fn set_up(build: impl Fn() -> AppGraph, mapping: MappingKind) -> (u64, usize) {
    let opts = CompileOptions {
        mapping,
        ..CompileOptions::default()
    };
    let before = ALLOCATIONS.with(Cell::get);
    let graph = build();
    let compiled = compile(&graph, &opts).expect("compile");
    let check = check_compiled(
        &compiled.graph,
        &compiled.dataflow,
        &opts.machine,
        &compiled.mapping,
    );
    let config = SimConfig::new(1).with_machine(opts.machine);
    let sim = TimedSimulator::new(&compiled.graph, &compiled.mapping, config).expect("instantiate");
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    drop((sim, check));
    (allocations, compiled.graph.node_count())
}

#[test]
fn the_set_up_path_allocates_at_most_half_of_what_it_did() {
    type Build = fn() -> AppGraph;
    let cases: [(&str, Build, MappingKind, u64); 3] = [
        (
            "fig1b",
            || apps::fig1b(Dim2::new(40, 24), 200.0).graph,
            MappingKind::Greedy,
            7_055,
        ),
        (
            "camera_bank(2)",
            || apps::camera_bank(2, Dim2::new(40, 24), 200.0).graph,
            MappingKind::OneToOne,
            13_650,
        ),
        ("wide chain", wide_chain, MappingKind::Greedy, 12_580),
    ];
    for (name, build, mapping, parent) in cases {
        let (allocations, nodes) = set_up(build, mapping);
        let (again, _) = set_up(build, mapping);
        println!("{name}: {allocations} allocations, {nodes} output nodes (parent {parent})");
        assert_eq!(allocations, again, "{name}: the count must repeat exactly");
        assert!(
            2 * allocations <= parent,
            "{name}: {allocations} allocations, more than half of the parent's {parent}"
        );
        assert!(
            allocations <= 70 * nodes as u64,
            "{name}: {allocations} allocations for {nodes} output nodes (more than 70 each)"
        );
    }
}

/// Allocations made by instantiating `compiled` and running it for
/// `frames` frames, traced or not.
fn run_allocations(compiled: &Compiled, frames: u32, traced: bool) -> u64 {
    let mut config = SimConfig::new(frames);
    if traced {
        config = config.with_trace(TraceOptions::default());
    }
    let before = ALLOCATIONS.with(Cell::get);
    let sim = TimedSimulator::new(&compiled.graph, &compiled.mapping, config).expect("instantiate");
    let outcome = sim.run_with_trace().expect("run");
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    drop(outcome);
    allocations
}

#[test]
fn tracing_allocates_nothing_per_firing() {
    let app = apps::fig1b(Dim2::new(40, 24), 200.0);
    let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
    let extra = |frames| {
        run_allocations(&compiled, frames, true) - run_allocations(&compiled, frames, false)
    };
    let (two, four) = (extra(2), extra(4));
    println!("tracing's extra allocations: {two} at 2 frames, {four} at 4");
    assert_eq!(two, four, "tracing allocates per firing or per event");
}
