//! # bp-kernels — the standard kernel library
//!
//! Behavioral implementations of the kernels used throughout the paper:
//! user-facing computation kernels (convolution, median, histogram,
//! point-wise arithmetic, Bayer demosaic, Sobel, downsampling), application
//! endpoints (frame sources, constant providers, sinks), and the
//! compiler-inserted plumbing (buffers, split/join FSMs, replicate,
//! inset/pad, feedback).
//!
//! Every kernel is a [`bp_core::KernelDef`]: a static spec (ports, methods,
//! costs, parallelization class) plus a behavior factory, so the compiler
//! can replicate instances with independent private state. Behaviors match
//! on method indices in spec-registration order and address ports by index
//! (`window_at`, `token_at`), so a firing resolves no name.

#![warn(missing_docs)]

/// Single-node drivers for the kernels' unit tests.
#[cfg(test)]
pub(crate) mod testing {
    use bp_core::kernel::{Emitter, FireData, KernelBehavior, KernelDef};
    use bp_core::{Item, TriggerOn};

    /// The spec index of `def`'s method called `name`.
    pub fn method(def: &KernelDef, name: &str) -> usize {
        def.spec
            .method_index(name)
            .unwrap_or_else(|| panic!("kernel {} has no method {name}", def.spec.kind))
    }

    /// Fire `def`'s method called `name` once on `consumed`: what it
    /// emitted and the cycles it reported.
    pub fn fire_parts(
        def: &KernelDef,
        b: &mut dyn KernelBehavior,
        name: &str,
        consumed: Vec<(usize, Item)>,
    ) -> (Vec<(usize, Item)>, Option<u64>) {
        let data = FireData::new(&def.spec, &consumed);
        let mut out = Emitter::new(&def.spec);
        b.fire(method(def, name), &data, &mut out);
        out.into_parts()
    }

    /// [`fire_parts`]'s emissions alone.
    pub fn fire(
        def: &KernelDef,
        b: &mut dyn KernelBehavior,
        name: &str,
        consumed: Vec<(usize, Item)>,
    ) -> Vec<(usize, Item)> {
        fire_parts(def, b, name, consumed).0
    }

    /// Drive a single-input kernel with an item stream: each item fires
    /// the method triggered by it on input 0 (data, or that token kind);
    /// an item no method takes is skipped, as the executor would forward
    /// it. Returns everything emitted, in order.
    pub fn drive(def: &KernelDef, items: Vec<Item>) -> Vec<(usize, Item)> {
        let table = def.spec.method_table().expect("kernel spec resolves");
        let mut b = (def.factory)();
        let mut got = Vec::new();
        for item in items {
            let on = match &item {
                Item::Window(_) => TriggerOn::Data,
                Item::Control(t) => TriggerOn::Token(t.kind()),
            };
            let Some(mi) = table.iter().position(|m| m.triggers == [(0, on)]) else {
                continue;
            };
            let consumed = [(0usize, item)];
            let data = FireData::new(&def.spec, &consumed);
            let mut out = Emitter::new(&def.spec);
            b.fire(mi, &data, &mut out);
            got.extend(out.into_items());
        }
        got
    }

    /// [`drive`]'s emissions without their output ports.
    pub fn drive_items(def: &KernelDef, items: Vec<Item>) -> Vec<Item> {
        drive(def, items).into_iter().map(|(_, i)| i).collect()
    }
}

pub mod arith;
pub mod bayer;
pub mod buffer;
pub mod conv;
pub mod feedback;
pub mod filters;
pub mod fir;
pub mod histogram;
pub mod inset;
pub mod join;
pub mod median;
pub mod morphology;
mod numbered;
pub mod pad;
pub mod replicate;
pub mod sink;
pub mod source;
pub mod split;
pub mod upsample;
pub mod variable;

pub use arith::{absdiff, add, scale, subtract, threshold};
pub use bayer::bayer_demosaic;
pub use buffer::{buffer, buffer_storage_words};
pub use conv::{binomial_coefficients, box_coefficients, conv2d, identity_coefficients};
pub use feedback::feedback_frame;
pub use filters::{downsample, sobel};
pub use fir::{boxcar_taps, decimate, fir, lowpass_taps};
pub use histogram::{histogram, histogram_merge, uniform_bins};
pub use inset::{inset, Margins};
pub use join::{join_columns, join_rr};
pub use median::median;
pub use morphology::{dilate, erode};
pub use pad::{pad, PadMode};
pub use replicate::replicate;
pub use sink::{sink, SinkHandle};
pub use source::{const_source, frame_source, pattern_source, PixelGen};
pub use split::{plan_column_ranges, split_columns, split_rr, ColumnRange};
pub use upsample::{upsample, UpsampleMode};
pub use variable::{motion_search, SEARCH_BASE_CYCLES, SEARCH_POSITION_CYCLES};

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::{Dim2, KernelDef, Step2};

    /// Every kernel of the library, the plumbing at widths on both sides
    /// of the name table, resolves: no repeated name, no unknown port.
    #[test]
    fn every_library_kernel_resolves() {
        let d = Dim2::new(8, 4);
        let mut defs: Vec<KernelDef> = vec![
            subtract(),
            add(),
            absdiff(),
            scale(2.0, 1.0),
            threshold(0.5),
            bayer_demosaic(),
            buffer(Dim2::ONE, Dim2::new(3, 3), Step2::ONE, d),
            conv2d(5, 5),
            feedback_frame(d, 0.0),
            sobel(),
            downsample(2, 2),
            fir(9),
            decimate(2),
            histogram(16),
            histogram_merge(16),
            inset(Margins::uniform(1), d),
            median(3, 3),
            erode(3, 3),
            dilate(3, 3),
            pad(Margins::uniform(1), PadMode::Mirror, d),
            sink().0,
            pattern_source(d),
            const_source("coeff", box_coefficients(3, 3)),
            split_columns(plan_column_ranges(8, 3, 1, 2)),
            join_columns(vec![3, 3], Dim2::ONE, Dim2::new(6, 4)),
            upsample(2, 2, UpsampleMode::ZeroStuff),
            motion_search(1.0, 9),
        ];
        for k in [1, 2, 64, 65] {
            let g = Dim2::ONE;
            defs.extend([split_rr(k, g), join_rr(k, g), replicate(k, g)]);
        }
        for def in defs {
            if let Err(e) = def.spec.method_table() {
                panic!("{}: {e}", def.spec.kind);
            }
        }
    }
}
