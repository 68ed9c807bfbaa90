//! Criterion benchmarks for individual kernel behaviors: buffer push
//! throughput, convolution/median firings, histogram counting, and the
//! split/join FSMs.

use bp_bench::microbench::{Criterion, Throughput};
use bp_bench::{criterion_group, criterion_main};
use bp_core::kernel::{Emitter, FireData, KernelBehavior, KernelDef};
use bp_core::{ControlToken, Dim2, Item, Step2, Window};

/// `def`'s method called `name`, as the index its behavior dispatches on.
fn method(def: &KernelDef, name: &str) -> usize {
    def.spec.method_index(name).expect("known method")
}

/// Fire `method` once on `consumed`, returning what it emitted.
fn fire(
    def: &KernelDef,
    beh: &mut dyn KernelBehavior,
    method: usize,
    consumed: &[(usize, Item)],
) -> Vec<(usize, Item)> {
    let data = FireData::new(&def.spec, consumed);
    let mut out = Emitter::new(&def.spec);
    beh.fire(method, &data, &mut out);
    out.into_items()
}

/// Drive a single-input kernel behavior over a frame's pixel stream.
fn drive_frame(def: &KernelDef, w: u32, h: u32) -> usize {
    let (push, eol) = (method(def, "push"), method(def, "eol"));
    let b = &mut *(def.factory)();
    let mut emitted = 0;
    for y in 0..h {
        for x in 0..w {
            let pixel = Item::Window(Window::scalar((y * w + x) as f64));
            emitted += fire(def, b, push, &[(0, pixel)]).len();
        }
        let token = Item::Control(ControlToken::EndOfLine);
        emitted += fire(def, b, eol, &[(0, token)]).len();
    }
    emitted
}

fn bench_buffer(c: &mut Criterion) {
    let mut group = c.benchmark_group("buffer");
    let dims = Dim2::new(64, 48);
    group.throughput(Throughput::Elements(dims.area()));
    group.bench_function("push-5x5-64x48", |b| {
        let def = bp_kernels::buffer(Dim2::ONE, Dim2::new(5, 5), Step2::ONE, dims);
        b.iter(|| drive_frame(&def, dims.w, dims.h));
    });
    group.bench_function("push-3x3-64x48", |b| {
        let def = bp_kernels::buffer(Dim2::ONE, Dim2::new(3, 3), Step2::ONE, dims);
        b.iter(|| drive_frame(&def, dims.w, dims.h));
    });
    group.finish();
}

fn bench_compute_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("compute");
    let window5 = Window::from_fn(Dim2::new(5, 5), |x, y| (y * 5 + x) as f64);
    let conv = bp_kernels::conv2d(5, 5);
    group.bench_function("conv5x5-fire", |b| {
        let beh = &mut *(conv.factory)();
        // Load coefficients once.
        let coeff = Item::Window(bp_kernels::box_coefficients(5, 5));
        fire(&conv, beh, method(&conv, "loadCoeff"), &[(1, coeff)]);
        let run = method(&conv, "runConvolve");
        b.iter(|| fire(&conv, beh, run, &[(0, Item::Window(window5.clone()))]));
    });

    let median = bp_kernels::median(3, 3);
    let window3 = Window::from_fn(Dim2::new(3, 3), |x, y| ((y * 3 + x) * 7 % 11) as f64);
    group.bench_function("median3x3-fire", |b| {
        let beh = &mut *(median.factory)();
        let run = method(&median, "runMedian");
        b.iter(|| fire(&median, beh, run, &[(0, Item::Window(window3.clone()))]));
    });

    let hist = bp_kernels::histogram(32);
    group.bench_function("histogram-count", |b| {
        let beh = &mut *(hist.factory)();
        let bins = Item::Window(bp_kernels::uniform_bins(32, 0.0, 256.0));
        fire(&hist, beh, method(&hist, "configureBins"), &[(1, bins)]);
        let count = method(&hist, "count");
        let mut v = 0.0;
        b.iter(|| {
            v = (v + 37.0) % 256.0;
            fire(&hist, beh, count, &[(0, Item::Window(Window::scalar(v)))])
        });
    });
    group.finish();
}

fn bench_split_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("splitjoin");
    let split = bp_kernels::split_rr(4, Dim2::ONE);
    group.bench_function("split_rr-dispatch", |b| {
        let beh = &mut *(split.factory)();
        let dispatch = method(&split, "dispatch");
        let pixel = Item::Window(Window::scalar(1.0));
        b.iter(|| fire(&split, beh, dispatch, &[(0, pixel.clone())]));
    });
    let ranges = bp_kernels::plan_column_ranges(64, 5, 1, 4);
    let split_cols = bp_kernels::split_columns(ranges);
    group.bench_function("split_cols-line", |b| {
        let beh = &mut *(split_cols.factory)();
        let (dispatch, eol) = (method(&split_cols, "dispatch"), method(&split_cols, "eol"));
        b.iter(|| {
            let mut n = 0;
            for _x in 0..64 {
                let pixel = Item::Window(Window::scalar(1.0));
                n += fire(&split_cols, beh, dispatch, &[(0, pixel)]).len();
            }
            let token = Item::Control(ControlToken::EndOfLine);
            fire(&split_cols, beh, eol, &[(0, token)]);
            n
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_buffer,
    bench_compute_kernels,
    bench_split_join
);
criterion_main!(benches);
