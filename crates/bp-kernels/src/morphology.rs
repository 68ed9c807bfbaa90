//! Morphological kernels: erosion and dilation over rectangular structuring
//! elements — common non-linear neighbors of the median filter in embedded
//! vision pipelines.

use bp_core::kernel::{Emitter, FireData, KernelBehavior, KernelDef, KernelSpec};
use bp_core::method::{MethodCost, MethodSpec};
use bp_core::port::{InputSpec, OutputSpec};
use bp_core::{Dim2, Step2, Window};

#[derive(Clone, Copy)]
enum Op {
    Erode,
    Dilate,
}

struct MorphBehavior {
    op: Op,
}

impl KernelBehavior for MorphBehavior {
    fn fire(&mut self, _m: usize, d: &FireData<'_>, out: &mut Emitter<'_>) {
        let samples = d.window_at(0).samples().iter().copied();
        let v = match self.op {
            Op::Erode => samples.fold(f64::INFINITY, f64::min),
            Op::Dilate => samples.fold(f64::NEG_INFINITY, f64::max),
        };
        out.window_at(0, Window::scalar(v));
    }
}

fn morph_spec(kind: &'static str, w: u32, h: u32) -> KernelSpec {
    let size = Dim2::new(w, h);
    let wh = (w * h) as u64;
    KernelSpec::new(kind)
        .input(InputSpec::windowed("in", size, Step2::ONE))
        .output(OutputSpec::stream("out"))
        .method(MethodSpec::on_data(
            "run",
            "in",
            vec!["out".into()],
            MethodCost::new(8 + 2 * wh, wh),
        ))
}

/// Grayscale erosion: minimum over a `w`×`h` window.
pub fn erode(w: u32, h: u32) -> KernelDef {
    KernelDef::new(morph_spec("erode", w, h), || MorphBehavior {
        op: Op::Erode,
    })
}

/// Grayscale dilation: maximum over a `w`×`h` window.
pub fn dilate(w: u32, h: u32) -> KernelDef {
    KernelDef::new(morph_spec("dilate", w, h), || MorphBehavior {
        op: Op::Dilate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::Item;

    fn run(def: &KernelDef, input: Window) -> f64 {
        let consumed = vec![(0usize, Item::Window(input))];
        let out = crate::testing::fire(def, &mut *(def.factory)(), "run", consumed);
        out[0].1.window().unwrap().as_scalar()
    }

    #[test]
    fn erode_takes_minimum() {
        let w = Window::from_vec(Dim2::new(3, 3), vec![5., 2., 7., 9., 3., 1., 4., 8., 6.]);
        assert_eq!(run(&erode(3, 3), w), 1.0);
    }

    #[test]
    fn dilate_takes_maximum() {
        let w = Window::from_vec(Dim2::new(3, 3), vec![5., 2., 7., 9., 3., 1., 4., 8., 6.]);
        assert_eq!(run(&dilate(3, 3), w), 9.0);
    }

    #[test]
    fn erode_dilate_bracket_the_center() {
        let w = Window::from_fn(Dim2::new(3, 3), |x, y| (y * 3 + x) as f64);
        let lo = run(&erode(3, 3), w.clone());
        let hi = run(&dilate(3, 3), w.clone());
        let center = w.get(1, 1);
        assert!(lo <= center && center <= hi);
    }

    #[test]
    fn asymmetric_windows_supported() {
        let w = Window::from_vec(Dim2::new(3, 1), vec![4.0, -1.0, 2.0]);
        assert_eq!(run(&erode(3, 1), w.clone()), -1.0);
        assert_eq!(run(&dilate(3, 1), w), 4.0);
    }
}
