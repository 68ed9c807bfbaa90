//! Criterion benchmarks for individual kernel behaviors: buffer push
//! throughput, convolution/median firings, histogram counting, and the
//! split/join FSMs.

use bp_bench::microbench::{Criterion, Throughput};
use bp_bench::{criterion_group, criterion_main};
use bp_core::kernel::{Emitter, FireData, KernelDef};
use bp_core::{Dim2, Item, Step2, Window};

/// Drive a single-input kernel behavior over a frame's pixel stream.
fn drive_frame(def: &KernelDef, w: u32, h: u32) -> usize {
    let mut b = (def.factory)();
    let mut emitted = 0;
    for y in 0..h {
        for x in 0..w {
            let consumed = vec![(0usize, Item::Window(Window::scalar((y * w + x) as f64)))];
            let data = FireData::new(&def.spec, &consumed);
            let mut out = Emitter::new(&def.spec);
            b.fire("push", &data, &mut out);
            emitted += out.into_items().len();
        }
        let consumed = vec![(0usize, Item::Control(bp_core::ControlToken::EndOfLine))];
        let data = FireData::new(&def.spec, &consumed);
        let mut out = Emitter::new(&def.spec);
        b.fire("eol", &data, &mut out);
        emitted += out.into_items().len();
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
        let mut beh = (conv.factory)();
        // Load coefficients once.
        let consumed = vec![(1usize, Item::Window(bp_kernels::box_coefficients(5, 5)))];
        let data = FireData::new(&conv.spec, &consumed);
        let mut out = Emitter::new(&conv.spec);
        beh.fire("loadCoeff", &data, &mut out);
        b.iter(|| {
            let consumed = vec![(0usize, Item::Window(window5.clone()))];
            let data = FireData::new(&conv.spec, &consumed);
            let mut out = Emitter::new(&conv.spec);
            beh.fire("runConvolve", &data, &mut out);
            out.into_items()
        });
    });

    let median = bp_kernels::median(3, 3);
    let window3 = Window::from_fn(Dim2::new(3, 3), |x, y| ((y * 3 + x) * 7 % 11) as f64);
    group.bench_function("median3x3-fire", |b| {
        let mut beh = (median.factory)();
        b.iter(|| {
            let consumed = vec![(0usize, Item::Window(window3.clone()))];
            let data = FireData::new(&median.spec, &consumed);
            let mut out = Emitter::new(&median.spec);
            beh.fire("runMedian", &data, &mut out);
            out.into_items()
        });
    });

    let hist = bp_kernels::histogram(32);
    group.bench_function("histogram-count", |b| {
        let mut beh = (hist.factory)();
        let consumed = vec![(
            1usize,
            Item::Window(bp_kernels::uniform_bins(32, 0.0, 256.0)),
        )];
        let data = FireData::new(&hist.spec, &consumed);
        let mut out = Emitter::new(&hist.spec);
        beh.fire("configureBins", &data, &mut out);
        let mut v = 0.0;
        b.iter(|| {
            v = (v + 37.0) % 256.0;
            let consumed = vec![(0usize, Item::Window(Window::scalar(v)))];
            let data = FireData::new(&hist.spec, &consumed);
            let mut out = Emitter::new(&hist.spec);
            beh.fire("count", &data, &mut out);
        });
    });
    group.finish();
}

fn bench_split_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("splitjoin");
    let split = bp_kernels::split_rr(4, Dim2::ONE);
    group.bench_function("split_rr-dispatch", |b| {
        let mut beh = (split.factory)();
        b.iter(|| {
            let consumed = vec![(0usize, Item::Window(Window::scalar(1.0)))];
            let data = FireData::new(&split.spec, &consumed);
            let mut out = Emitter::new(&split.spec);
            beh.fire("dispatch", &data, &mut out);
            out.into_items()
        });
    });
    let ranges = bp_kernels::plan_column_ranges(64, 5, 1, 4);
    let split_cols = bp_kernels::split_columns(ranges);
    group.bench_function("split_cols-line", |b| {
        let mut beh = (split_cols.factory)();
        b.iter(|| {
            let mut n = 0;
            for _x in 0..64 {
                let consumed = vec![(0usize, Item::Window(Window::scalar(1.0)))];
                let data = FireData::new(&split_cols.spec, &consumed);
                let mut out = Emitter::new(&split_cols.spec);
                beh.fire("dispatch", &data, &mut out);
                n += out.into_items().len();
            }
            let consumed = vec![(0usize, Item::Control(bp_core::ControlToken::EndOfLine))];
            let data = FireData::new(&split_cols.spec, &consumed);
            let mut out = Emitter::new(&split_cols.spec);
            beh.fire("eol", &data, &mut out);
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
