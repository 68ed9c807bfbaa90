//! Dispatch-overhead microbenchmark: the per-firing cost of planning and
//! firing a kernel, isolated from the event queue, routing, and time
//! accounting (DESIGN.md §13).
//!
//! The engine plans a kernel one of two ways, so each is timed — the
//! trigger scan (`RtNode::plan`, for kernels too wide for the masks)
//! against the readiness mask test (`RtNode::plan_masked`, every other
//! kernel), both over the spec's one method table:
//! - `plan-hit-1` / `plan-hit-2`: a unary scalar kernel and a binary one
//!   (the join shape) whose trigger queues hold a window, so the plan
//!   succeeds;
//! - `plan-miss`: a half-filled binary kernel, so the plan fails — the
//!   engine's most frequent planning outcome.
//!
//! Firing is one routine for both (`RtNode::fire`), timed once per arity:
//! `fire-1` / `fire-2` pop the trigger inputs, call the behavior and
//! recycle the emit buffer exactly as the timed engine does.

use bp_bench::criterion_group;
use bp_bench::microbench::{black_box, Criterion, Throughput};
use bp_core::{Dim2, GraphBuilder, Item, Window};
use bp_kernels as k;
use bp_sim::runtime::head_masks;
use bp_sim::{Action, Program};

/// Firings (or plans) timed per sample.
const FIRINGS: u64 = 50_000;

/// A minimal graph holding the benchmarked kernels: a unary `scale` and a
/// binary `add` over 1x1 scalar windows (kernel work is a few flops, so
/// dispatch overhead dominates the measurement by construction).
fn build() -> (Program, usize, usize) {
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
    let node = |name: &str| {
        let found = program.nodes.iter().position(|n| &*n.name == name);
        found.expect("benchmarked node")
    };
    let (scale_idx, add_idx) = (node("Scale"), node("Add"));
    (program, scale_idx, add_idx)
}

fn scalar_item() -> Item {
    Item::Window(Window::scalar(4.0))
}

/// One firing: fill the trigger queues, fire the planned method, and
/// recycle the emit buffer exactly as the timed engine does.
fn fire(program: &mut Program, node: usize, item: &Item, arity: usize) {
    let n = &mut program.nodes[node];
    for p in 0..arity {
        n.queues[p].push_back(item.clone());
    }
    let (mut emitted, read_words, actual) = n.fire(Action::Fire { method: 0 });
    black_box((read_words, actual));
    emitted.clear();
    n.recycle_out_buf(emitted);
}

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch");
    group
        .sample_size(20)
        .throughput(Throughput::Elements(FIRINGS));

    let item = scalar_item();
    for arity in [1usize, 2] {
        let (mut program, scale_idx, add_idx) = build();
        let node = if arity == 1 { scale_idx } else { add_idx };
        for p in 0..arity {
            program.nodes[node].queues[p].push_back(item.clone());
        }
        let n = &program.nodes[node];
        group.bench_function(format!("interpreted-plan-hit-{arity}"), |b| {
            b.iter(|| {
                for _ in 0..FIRINGS {
                    black_box(n.plan().is_some());
                }
            });
        });
        // Every trigger queue just became nonempty with a window, so the
        // engine's incrementally known `head_data` is the arity mask.
        let head_data = (1u64 << arity) - 1;
        group.bench_function(format!("compiled-plan-hit-{arity}"), |b| {
            b.iter(|| {
                for _ in 0..FIRINGS {
                    black_box(n.plan_masked(head_data, 0).is_some());
                }
            });
        });
        let (mut program, _, _) = build();
        group.bench_function(format!("fire-{arity}"), |b| {
            b.iter(|| {
                for _ in 0..FIRINGS {
                    fire(&mut program, node, &item, arity);
                }
            });
        });
    }

    // Planning miss: `in0` holds a window, `in1` is empty, so the binary
    // method cannot fire and forwarding finds nothing — the plan returns
    // `None` every time.
    let (mut program, _, add_idx) = build();
    program.nodes[add_idx].queues[0].push_back(item.clone());
    let n = &program.nodes[add_idx];
    group.bench_function("interpreted-plan-miss", |b| {
        b.iter(|| {
            for _ in 0..FIRINGS {
                black_box(n.plan().is_none());
            }
        });
    });
    group.bench_function("compiled-plan-miss", |b| {
        b.iter(|| {
            for _ in 0..FIRINGS {
                black_box(n.plan_masked(0b01, 0).is_none());
            }
        });
    });
    group.finish();
}

/// The two planners must agree on every shape timed above before either
/// is timed.
fn assert_planners_agree() {
    let (mut program, scale_idx, add_idx) = build();
    let item = scalar_item();
    for (node, queued) in [(scale_idx, 1usize), (add_idx, 2), (add_idx, 1)] {
        let n = &mut program.nodes[node];
        n.queues.iter_mut().for_each(|q| q.clear());
        for p in 0..queued {
            n.queues[p].push_back(item.clone());
        }
        let (data, ctrl) = head_masks(&n.queues);
        assert_eq!(
            n.plan(),
            n.plan_masked(data, ctrl),
            "planners disagree on node {node}"
        );
    }
}

criterion_group!(benches, bench_dispatch);

fn main() {
    assert_planners_agree();
    let mut c = Criterion::default();
    benches(&mut c);
}
