//! Dispatch-overhead microbenchmark: the per-firing `plan()` +
//! `execute_with_cost()` cost of the interpreted runtime against the
//! direct-threaded path (mask-test plan + specialized `FireFn`), isolated
//! from the event queue, routing, and time accounting (DESIGN.md §13).
//!
//! Three shapes per backend:
//! - `fire-1`: a unary scalar kernel firing once per iteration (arity-1
//!   pop loop, behavior call, one emission);
//! - `fire-2`: a binary scalar kernel (arity-2, the join shape);
//! - `miss`: a planning *failure* on a half-filled binary kernel — the
//!   engine's most frequent planning outcome, where the compiled backend's
//!   readiness mask test replaces the interpreter's trigger scan.

use bp_bench::criterion_group;
use bp_bench::microbench::{black_box, Criterion, Throughput};
use bp_codegen::{lower_graph, FireArgs, PlannedAction, ThreadedProgram};
use bp_core::{Dim2, GraphBuilder, Item, Window};
use bp_kernels as k;
use bp_sim::{Action, Program};

/// Firings (or plan misses) timed per sample.
const FIRINGS: u64 = 50_000;

/// A minimal graph holding the benchmarked kernels: a unary `scale` and a
/// binary `add` over 1x1 scalar windows (kernel work is a few flops, so
/// dispatch overhead dominates the measurement by construction).
fn build() -> (Program, ThreadedProgram, usize, usize) {
    let dim = Dim2::new(1, 1);
    let mut b = GraphBuilder::new();
    let src = b.add_source("Input", k::pattern_source(dim), dim, 50.0);
    let sc = b.add("Scale", k::scale(2.0, 1.0));
    let ad = b.add("Add", k::add());
    let (sdef, _handle) = k::sink();
    let snk = b.add("Out", sdef);
    b.connect(src, "out", sc, "in");
    b.connect(sc, "out", ad, "in0");
    b.connect(sc, "out", ad, "in1");
    b.connect(ad, "out", snk, "in");
    let graph = b.build().expect("dispatch bench graph is well-formed");
    let program = Program::instantiate(&graph).expect("instantiate");
    let threaded = lower_graph(&graph).expect("lower");
    let scale_idx = program
        .nodes
        .iter()
        .position(|n| &*n.name == "Scale")
        .expect("scale node");
    let add_idx = program
        .nodes
        .iter()
        .position(|n| &*n.name == "Add")
        .expect("add node");
    (program, threaded, scale_idx, add_idx)
}

fn scalar_item() -> Item {
    Item::Window(Window::scalar(4.0))
}

/// One interpreted firing: fill the trigger queues, `plan()`, execute, and
/// recycle the emit buffer exactly as the timed engine does.
fn interpreted_fire(program: &mut Program, node: usize, item: &Item, arity: usize) {
    let n = &mut program.nodes[node];
    for p in 0..arity {
        n.queues[p].push_back(item.clone());
    }
    let action = n.plan().expect("fireable");
    let (mut emitted, actual) = n.execute_with_cost(action);
    black_box(actual);
    emitted.clear();
    n.recycle_out_buf(emitted);
}

/// One compiled firing: mask-test plan plus the specialized routine,
/// driven with the engine's incrementally known head state (every queue
/// just became nonempty with a window, so `head_data` is the arity mask).
fn compiled_fire(
    program: &mut Program,
    threaded: &ThreadedProgram,
    node: usize,
    item: &Item,
    arity: usize,
    consumed: &mut Vec<(usize, Item)>,
    emitted: &mut Vec<(usize, Item)>,
) {
    let n = &mut program.nodes[node];
    for p in 0..arity {
        n.queues[p].push_back(item.clone());
    }
    let tn = &threaded.nodes[node];
    let head_data = (1u64 << arity) - 1;
    let action = tn
        .plan(head_data, 0, &n.queues, n.behavior.as_ref())
        .expect("fireable");
    let PlannedAction::Fire { method } = action else {
        panic!("expected fire");
    };
    let res = (tn.methods[method].fire)(&mut FireArgs {
        spec: &n.spec,
        queues: &mut n.queues,
        behavior: n.behavior.as_mut(),
        consumed,
        emitted,
    });
    black_box(res.actual_cycles);
    emitted.clear();
}

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch");
    group
        .sample_size(20)
        .throughput(Throughput::Elements(FIRINGS));

    let item = scalar_item();
    for (label, arity) in [("fire-1", 1usize), ("fire-2", 2usize)] {
        let (mut program, _, scale_idx, add_idx) = build();
        let node = if arity == 1 { scale_idx } else { add_idx };
        group.bench_function(format!("interpreted-{label}"), |b| {
            b.iter(|| {
                for _ in 0..FIRINGS {
                    interpreted_fire(&mut program, node, &item, arity);
                }
            });
        });
        let (mut program, threaded, scale_idx, add_idx) = build();
        let node = if arity == 1 { scale_idx } else { add_idx };
        let (mut consumed, mut emitted) = (Vec::new(), Vec::new());
        group.bench_function(format!("compiled-{label}"), |b| {
            b.iter(|| {
                for _ in 0..FIRINGS {
                    compiled_fire(
                        &mut program,
                        &threaded,
                        node,
                        &item,
                        arity,
                        &mut consumed,
                        &mut emitted,
                    );
                }
            });
        });
    }

    // Planning miss: `in0` holds a window, `in1` is empty, so the binary
    // method cannot fire and forwarding finds nothing — the plan returns
    // `None` every time.
    let (mut program, threaded, _, add_idx) = build();
    program.nodes[add_idx].queues[0].push_back(item.clone());
    group.bench_function("interpreted-miss", |b| {
        b.iter(|| {
            for _ in 0..FIRINGS {
                black_box(program.nodes[add_idx].plan().is_none());
            }
        });
    });
    group.bench_function("compiled-miss", |b| {
        b.iter(|| {
            let n = &program.nodes[add_idx];
            let tn = &threaded.nodes[add_idx];
            for _ in 0..FIRINGS {
                black_box(tn.plan(0b01, 0, &n.queues, n.behavior.as_ref()).is_none());
            }
        });
    });
    group.finish();
}

fn assert_backends_agree() {
    let (mut program, threaded, scale_idx, _) = build();
    let item = scalar_item();
    let n = &mut program.nodes[scale_idx];
    n.queues[0].push_back(item.clone());
    let interp = n.plan();
    let masked = threaded.nodes[scale_idx].plan(0b1, 0, &n.queues, n.behavior.as_ref());
    match (interp, masked) {
        (Some(Action::Fire { method: a }), Some(PlannedAction::Fire { method: b })) => {
            assert_eq!(a, b, "planners disagree on the fired method");
        }
        other => panic!("planners disagree: {other:?}"),
    }
}

criterion_group!(benches, bench_dispatch);

fn main() {
    assert_backends_agree();
    let mut c = Criterion::default();
    benches(&mut c);
}
