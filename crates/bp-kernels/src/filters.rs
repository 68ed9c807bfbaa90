//! Additional windowed kernels: Sobel edge magnitude and block-average
//! downsampling (which exercises strided access and fractional offsets).

use bp_core::kernel::{Emitter, FireData, KernelBehavior, KernelDef, KernelSpec};
use bp_core::method::{MethodCost, MethodSpec};
use bp_core::port::{InputSpec, OutputSpec};
use bp_core::{Dim2, Offset2, Step2, Window};

struct SobelBehavior;

/// Sobel response over a flat row-major 3×3 slice: index `y*3 + x` is
/// `get(x, y)`, with the exact operand order of the scalar body.
#[inline]
fn sobel_mag(s: &[f64]) -> f64 {
    let gx = (s[2] + 2.0 * s[5] + s[8]) - (s[0] + 2.0 * s[3] + s[6]);
    let gy = (s[6] + 2.0 * s[7] + s[8]) - (s[0] + 2.0 * s[1] + s[2]);
    gx.abs() + gy.abs()
}

impl KernelBehavior for SobelBehavior {
    fn fire(&mut self, _m: &str, d: &FireData<'_>, out: &mut Emitter<'_>) {
        let w = d.window("in");
        let gx = (w.get(2, 0) + 2.0 * w.get(2, 1) + w.get(2, 2))
            - (w.get(0, 0) + 2.0 * w.get(0, 1) + w.get(0, 2));
        let gy = (w.get(0, 2) + 2.0 * w.get(1, 2) + w.get(2, 2))
            - (w.get(0, 0) + 2.0 * w.get(1, 0) + w.get(2, 0));
        out.window("out", Window::scalar(gx.abs() + gy.abs()));
    }

    fn fire_fast(&mut self, method: usize, d: &FireData<'_>, out: &mut Emitter<'_>) -> bool {
        if method != 0 {
            return false;
        }
        out.window_at(0, Window::scalar(sobel_mag(d.window_at(0).samples())));
        true
    }

    fn ready_fast(&self, _method: usize) -> Option<bool> {
        Some(true)
    }
}

/// 3×3 Sobel gradient magnitude (L1 norm of the two directional responses).
pub fn sobel() -> KernelDef {
    let spec = KernelSpec::new("sobel")
        .input(InputSpec::windowed("in", Dim2::new(3, 3), Step2::ONE))
        .output(OutputSpec::stream("out"))
        .method(MethodSpec::on_data(
            "runSobel",
            "in",
            vec!["out".into()],
            MethodCost::new(10 + 3 * 9, 9),
        ));
    KernelDef::new(spec, || SobelBehavior)
}

struct DownsampleBehavior;

impl KernelBehavior for DownsampleBehavior {
    fn fire(&mut self, _m: &str, d: &FireData<'_>, out: &mut Emitter<'_>) {
        let w = d.window("in");
        let sum: f64 = w.samples().iter().sum();
        out.window("out", Window::scalar(sum / w.samples().len() as f64));
    }

    fn fire_fast(&mut self, method: usize, d: &FireData<'_>, out: &mut Emitter<'_>) -> bool {
        if method != 0 {
            return false;
        }
        let s = d.window_at(0).samples();
        let sum: f64 = s.iter().sum();
        out.window_at(0, Window::scalar(sum / s.len() as f64));
        true
    }

    fn ready_fast(&self, _method: usize) -> Option<bool> {
        Some(true)
    }
}

/// Block-average downsampling by `fx`×`fy`: consumes non-overlapping
/// `fx`×`fy` blocks (step == size, so no data reuse) and emits their mean.
/// The input offset is fractional — `((fx-1)/2, (fy-1)/2)` — as §II-A notes
/// downsampling kernels may require.
pub fn downsample(fx: u32, fy: u32) -> KernelDef {
    assert!(fx >= 1 && fy >= 1);
    let size = Dim2::new(fx, fy);
    let spec = KernelSpec::new("downsample")
        .input(InputSpec::block("in", size).with_offset(Offset2::new(
            (fx as f64 - 1.0) / 2.0,
            (fy as f64 - 1.0) / 2.0,
        )))
        .output(OutputSpec::stream("out"))
        .method(MethodSpec::on_data(
            "runAvg",
            "in",
            vec!["out".into()],
            MethodCost::new(5 + (fx * fy) as u64, (fx * fy) as u64),
        ));
    KernelDef::new(spec, || DownsampleBehavior)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::Item;

    fn run(def: &KernelDef, method: &str, input: Window) -> f64 {
        let mut b = (def.factory)();
        let consumed = vec![(0usize, Item::Window(input))];
        let data = FireData::new(&def.spec, &consumed);
        let mut out = Emitter::new(&def.spec);
        b.fire(method, &data, &mut out);
        out.into_items()[0].1.window().unwrap().as_scalar()
    }

    #[test]
    fn sobel_detects_vertical_edge() {
        // Left column 0, right column 10: strong horizontal gradient.
        let input = Window::from_fn(Dim2::new(3, 3), |x, _| if x == 2 { 10.0 } else { 0.0 });
        let got = run(&sobel(), "runSobel", input);
        assert_eq!(got, 40.0); // gx = 4*10, gy = 0
    }

    #[test]
    fn sobel_flat_region_is_zero() {
        let got = run(&sobel(), "runSobel", Window::filled(Dim2::new(3, 3), 5.0));
        assert_eq!(got, 0.0);
    }

    #[test]
    fn downsample_averages_block() {
        let input = Window::from_vec(Dim2::new(2, 2), vec![1.0, 2.0, 3.0, 4.0]);
        let got = run(&downsample(2, 2), "runAvg", input);
        assert_eq!(got, 2.5);
    }

    #[test]
    fn downsample_offset_is_fractional() {
        let def = downsample(2, 2);
        assert_eq!(def.spec.inputs[0].offset, Offset2::new(0.5, 0.5));
        assert_eq!(def.spec.inputs[0].step, Step2::new(2, 2));
    }
}
