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
//! Recorded on the parent commit (0bfcc31, before allocation moved from
//! per node and per method to per design point), by this file's `set_up`
//! on that tree, allocations (output nodes):
//!
//! | graph          | allocations | output nodes | per node | `TimedSimulator::new` |
//! |----------------|-------------|--------------|----------|-----------------------|
//! | fig1b          | 1 369       | 48           | 28.5     | 238                   |
//! | camera_bank(2) | 2 250       | 96           | 23.4     | 411                   |
//! | wide chain     | 2 371       | 68           | 34.9     | 289                   |
//!
//! (the same in debug and release builds; earlier trees made 2 100 / 3 713
//! / 3 588 at cebb16c, when every spec name was an owned `String`, and
//! 7 055 / 13 650 / 12 580 at aa33000, before specs were shared and
//! resolved once and before the graph kept an adjacency index). The path
//! must stay at or below 0.6× of each and at or below 21 per output node;
//! `TimedSimulator::new` alone, which resolves tables and instantiates no
//! node, at or below 2 per output node; and every count must repeat
//! exactly.
//!
//! The plumbing the compiler inserts is held on its own: a 64-wide
//! `join_rr`, `split_rr` and `replicate`, definition plus resolved method
//! table, made 144 / 17 / 11 allocations on 0bfcc31 — the join two per
//! `take{i}` method, for its trigger and output lists. The join must stay
//! at or below 0.25× of that. The split and the replicate are held to
//! 0.45× and 0.65×: what is left of them is the definition's own floor —
//! the shared spec, the behavior factory, the spec's input, output and
//! method lists, the table and its 64-entry output array — and every count
//! must repeat exactly.
//!
//! A second gate holds the traced event loop to a fixed number of extra
//! allocations, whatever the run length: `fig1b` 40×24 at 200 Hz, run for
//! 2 and for 4 frames, plain and traced. When the traced loop collected
//! each firing's queue depths into a `Vec`, tracing cost 28 590 extra
//! allocations at 2 frames and 56 794 at 4 — one per firing; with the
//! depths written straight into the ring it is the recorder's fixed set-up
//! (366) at both.
//!
//! Beside it, a gate on what the trace holds, in bytes rather than
//! allocations: `fig1b` 40×24 at 200 Hz, greedy, 4 frames, traced — the
//! benchmark's `stream_observed` run, 283 235 events. Held as
//! `TraceEvent`s (99bd3e0) they took 32 bytes each, 9 063 520 in all; the
//! encoded log takes 1 484 990, 5.24 bytes per event. It must stay at or
//! below 8 per event, and the event count must repeat exactly.
//!
//! A third gate holds what metrics cost in peak live heap (bytes this
//! thread allocated and has not freed, at their highest), instantiate
//! through run: `camera_bank(8)` 40×24 at 200 Hz, one-to-one (384 nodes),
//! 2 frames, with `MetricsPolicy::new()` and without. It must stay at or
//! below 256 KiB:
//!
//! | tree                                         | metered   | unmetered | metrics   |
//! |----------------------------------------------|-----------|-----------|-----------|
//! | ccb29d6, a dense 496-cell histogram per node | 2 367 KiB | 842 KiB   | 1 524 KiB |
//! | histograms holding only their bucket window  | 992 KiB   | 842 KiB   | 150 KiB   |
//!
//! (the same in debug and release builds).

use bp_apps::apps;
use bp_compiler::{check_compiled, compile, CompileOptions, Compiled, MappingKind};
use bp_core::{AppGraph, Dim2, GraphBuilder, KernelDef, MetricsPolicy};
use bp_sim::{SimConfig, TimedSimulator, TraceOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (`const`-initialised and without a
    /// destructor, so touching it from inside the allocator allocates
    /// nothing itself).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not yet freed (signed: a block
    /// freed here may have been allocated on another thread).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` reached since it was last reset.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Move this thread's live byte count by `delta`, raising the peak.
fn track(delta: i64) {
    let live = LIVE.with(|l| {
        l.set(l.get() + delta);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

struct Counting;

// SAFETY: every method hands its arguments to `System` unchanged, so the
// caller's `GlobalAlloc` obligations are exactly `System`'s; the only
// additions are thread-local counter updates, which neither allocate nor
// unwind. (This is the one place the repository's tests need `unsafe`: a
// counting allocator cannot be written without implementing the trait.)
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        track(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        track(new_size as i64 - layout.size() as i64);
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

type Build = fn() -> AppGraph;

/// The three graphs, each with its mapping and the parent's count of
/// the whole path.
const GRAPHS: [(&str, Build, MappingKind, u64); 3] = [
    (
        "fig1b",
        || apps::fig1b(Dim2::new(40, 24), 200.0).graph,
        MappingKind::Greedy,
        1_369,
    ),
    (
        "camera_bank(2)",
        || apps::camera_bank(2, Dim2::new(40, 24), 200.0).graph,
        MappingKind::OneToOne,
        2_250,
    ),
    ("wide chain", wide_chain, MappingKind::Greedy, 2_371),
];

#[test]
fn the_set_up_path_allocates_at_most_six_tenths_of_what_it_did() {
    for (name, build, mapping, parent) in GRAPHS {
        let (allocations, nodes) = set_up(build, mapping);
        let (again, _) = set_up(build, mapping);
        println!("{name}: {allocations} allocations, {nodes} output nodes (parent {parent})");
        assert_eq!(allocations, again, "{name}: the count must repeat exactly");
        assert!(
            5 * allocations <= 3 * parent,
            "{name}: {allocations} allocations, more than 0.6x the parent's {parent}"
        );
        assert!(
            allocations <= 21 * nodes as u64,
            "{name}: {allocations} allocations for {nodes} output nodes (more than 21 each)"
        );
    }
}

/// Allocations made by `TimedSimulator::new` alone on the compiled graph.
fn instantiate(compiled: &Compiled, machine: bp_core::MachineSpec) -> u64 {
    let config = SimConfig::new(1).with_machine(machine);
    let before = ALLOCATIONS.with(Cell::get);
    let sim = TimedSimulator::new(&compiled.graph, &compiled.mapping, config).expect("instantiate");
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    drop(sim);
    allocations
}

/// A simulator that is built and never run holds tables, not nodes: no
/// behavior, no queue, no per-node list.
#[test]
fn an_unrun_simulator_allocates_at_most_two_per_node() {
    for (name, build, mapping, _) in GRAPHS {
        let opts = CompileOptions {
            mapping,
            ..CompileOptions::default()
        };
        let compiled = compile(&build(), &opts).expect("compile");
        let nodes = compiled.graph.node_count() as u64;
        let allocations = instantiate(&compiled, opts.machine);
        println!("{name}: TimedSimulator::new made {allocations} allocations for {nodes} nodes");
        assert_eq!(
            allocations,
            instantiate(&compiled, opts.machine),
            "{name}: the count must repeat exactly"
        );
        assert!(
            allocations <= 2 * nodes,
            "{name}: TimedSimulator::new made {allocations} allocations for {nodes} nodes \
             (more than 2 each)"
        );
    }
}

/// Allocations made by defining one kernel and resolving its method table.
fn define(def: fn() -> KernelDef) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let def = def();
    def.spec.method_table().expect("resolves");
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    drop(def);
    allocations
}

#[test]
fn wide_plumbing_allocates_a_fraction_of_what_it_did() {
    type Define = fn() -> KernelDef;
    // (name, definition, parent count, bound in hundredths of it)
    let cases: [(&str, Define, u64, u64); 3] = [
        (
            "join_rr(64)",
            || bp_kernels::join_rr(64, Dim2::ONE),
            144,
            25,
        ),
        (
            "split_rr(64)",
            || bp_kernels::split_rr(64, Dim2::ONE),
            17,
            45,
        ),
        (
            "replicate(64)",
            || bp_kernels::replicate(64, Dim2::ONE),
            11,
            65,
        ),
    ];
    for (name, def, parent, hundredths) in cases {
        let allocations = define(def);
        println!("{name}: {allocations} allocations (parent {parent})");
        assert_eq!(
            allocations,
            define(def),
            "{name}: the count must repeat exactly"
        );
        assert!(
            100 * allocations <= hundredths * parent,
            "{name}: {allocations} allocations, more than 0.{hundredths}x the parent's {parent}"
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
    let outcome = sim.run_with_artifacts().expect("run");
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

#[test]
fn the_trace_log_holds_at_most_8_bytes_per_event() {
    let app = apps::fig1b(Dim2::new(40, 24), 200.0);
    let compiled = compile(&app.graph, &CompileOptions::default()).expect("compile");
    let config = SimConfig::new(4).with_trace(TraceOptions::default());
    let sim = TimedSimulator::new(&compiled.graph, &compiled.mapping, config).expect("instantiate");
    let (_, trace, _) = sim.run_with_artifacts().expect("run");
    let trace = trace.expect("tracing was on");
    let (events, bytes) = (trace.events.len(), trace.events.byte_len());
    println!(
        "fig1b, 4 frames: {events} events in {bytes} bytes, {:.2} bytes per event",
        bytes as f64 / events as f64
    );
    assert_eq!((events, trace.dropped), (283_235, 0));
    assert!(
        bytes <= 8 * events,
        "the trace log takes {bytes} bytes for {events} events, more than 8 per event"
    );
}

/// Peak live heap, in bytes above what was live before, of instantiating
/// `compiled` and running it for `frames` frames, metered or not.
fn run_peak_heap(compiled: &Compiled, frames: u32, metered: bool) -> i64 {
    let mut config = SimConfig::new(frames);
    if metered {
        config = config.with_metrics(MetricsPolicy::new());
    }
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let sim = TimedSimulator::new(&compiled.graph, &compiled.mapping, config).expect("instantiate");
    let outcome = sim.run_with_artifacts().expect("run");
    let peak = PEAK.with(Cell::get) - base;
    drop(outcome);
    peak
}

#[test]
fn metrics_add_at_most_256_kib_of_peak_heap() {
    let app = apps::camera_bank(8, Dim2::new(40, 24), 200.0);
    let opts = CompileOptions {
        mapping: MappingKind::OneToOne,
        ..CompileOptions::default()
    };
    let compiled = compile(&app.graph, &opts).expect("compile");
    let metered = run_peak_heap(&compiled, 2, true);
    let plain = run_peak_heap(&compiled, 2, false);
    let extra = metered - plain;
    println!(
        "camera_bank(8): peak heap {} KiB metered, {} KiB unmetered, metrics {} KiB \
         for {} nodes",
        metered / 1024,
        plain / 1024,
        extra / 1024,
        compiled.graph.node_count()
    );
    assert!(
        extra <= 256 * 1024,
        "metrics add {} KiB of peak heap on camera_bank(8), more than 256 KiB",
        extra / 1024
    );
}
