//! Windowed 2-D convolution — the paper's flagship example kernel (Fig. 6).
//!
//! Two methods share private state: `runConvolve` executes when a data
//! window arrives on `in`, `loadCoeff` when a coefficient block arrives on
//! the *replicated* input `coeff`. Reloading the coefficients at run time
//! switches the filter without recompiling — exactly the use case the paper
//! highlights for multiple methods per kernel.

use bp_core::kernel::{Emitter, FireData, KernelBehavior, KernelDef, KernelSpec};
use bp_core::method::{MethodCost, MethodSpec};
use bp_core::port::{InputSpec, OutputSpec};
use bp_core::{Dim2, Step2, Window};

struct ConvBehavior {
    w: u32,
    h: u32,
    coeff: Option<Window>,
}

// Spec order: 0 = runConvolve, 1 = loadCoeff.
impl KernelBehavior for ConvBehavior {
    fn fire(&mut self, method: usize, d: &FireData<'_>, out: &mut Emitter<'_>) {
        if method == 1 {
            self.coeff = Some(d.window_at(1).clone());
            return;
        }
        let input = d.window_at(0);
        let coeff = self
            .coeff
            .as_ref()
            .expect("runConvolve fired before coefficients were loaded");
        let mut acc = 0.0;
        // True convolution: the kernel is flipped in both axes, matching
        // the paper's Fig. 6 inner loop.
        for y in 0..self.h {
            for x in 0..self.w {
                acc += input.get(x, y) * coeff.get(self.w - 1 - x, self.h - 1 - y);
            }
        }
        out.window_at(0, Window::scalar(acc));
    }

    fn ready(&self, method: usize) -> bool {
        // Don't consume data windows until coefficients are present; the
        // compiler schedules the constant provider at startup so this only
        // delays the first firings.
        method != 0 || self.coeff.is_some()
    }
}

/// A `w`×`h` convolution kernel. Costs follow the paper's Fig. 6:
/// `runConvolve` takes `10 + 3wh` cycles, `loadCoeff` takes `10 + 2wh`.
pub fn conv2d(w: u32, h: u32) -> KernelDef {
    let size = Dim2::new(w, h);
    let wh = (w * h) as u64;
    let spec = KernelSpec::new("conv2d")
        .input(InputSpec::windowed("in", size, Step2::ONE))
        .input(InputSpec::block("coeff", size).replicated())
        .output(OutputSpec::stream("out"))
        .method(MethodSpec::on_data(
            "runConvolve",
            "in",
            vec!["out".into()],
            MethodCost::new(10 + 3 * wh, wh),
        ))
        .method(MethodSpec::on_data(
            "loadCoeff",
            "coeff",
            vec![],
            MethodCost::new(10 + 2 * wh, wh),
        ))
        .with_state_words(wh);
    KernelDef::new(spec, move || ConvBehavior { w, h, coeff: None })
}

/// A normalized box (mean) coefficient window for a `w`×`h` convolution.
pub fn box_coefficients(w: u32, h: u32) -> Window {
    Window::filled(Dim2::new(w, h), 1.0 / (w as f64 * h as f64))
}

/// An identity coefficient window: 1.0 at the center, 0 elsewhere. The
/// convolution then reproduces the (flipped-center) input sample.
pub fn identity_coefficients(w: u32, h: u32) -> Window {
    let mut win = Window::zeros(Dim2::new(w, h));
    win.set(w / 2, h / 2, 1.0);
    win
}

/// Gaussian-ish separable weights for smoothing tests (binomial rows).
pub fn binomial_coefficients(n: u32) -> Window {
    let mut row = vec![1.0f64];
    for _ in 1..n {
        let mut next = vec![1.0];
        for i in 1..row.len() {
            next.push(row[i - 1] + row[i]);
        }
        next.push(1.0);
        row = next;
    }
    let sum: f64 = row.iter().sum();
    let norm: Vec<f64> = row.iter().map(|v| v / sum).collect();
    Window::from_fn(Dim2::new(n, n), |x, y| norm[x as usize] * norm[y as usize])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{fire, method};
    use bp_core::Item;

    fn load_and_run(def: &KernelDef, coeff: Window, input: Window) -> f64 {
        let mut b = (def.factory)();
        let run = method(def, "runConvolve");
        assert!(!b.ready(run), "must wait for coefficients");
        let loaded = fire(def, &mut *b, "loadCoeff", vec![(1, Item::Window(coeff))]);
        assert!(loaded.is_empty());
        assert!(b.ready(run));
        let out = fire(def, &mut *b, "runConvolve", vec![(0, Item::Window(input))]);
        out[0].1.window().unwrap().as_scalar()
    }

    #[test]
    fn box_filter_averages() {
        let def = conv2d(3, 3);
        let input = Window::from_fn(Dim2::new(3, 3), |x, y| (y * 3 + x) as f64);
        let got = load_and_run(&def, box_coefficients(3, 3), input);
        assert!((got - 4.0).abs() < 1e-12); // mean of 0..=8
    }

    #[test]
    fn identity_picks_center_flipped() {
        let def = conv2d(3, 3);
        let input = Window::from_fn(Dim2::new(3, 3), |x, y| (y * 3 + x) as f64);
        // identity coeff has 1.0 at (1,1); flipped it still indexes the
        // center input sample, which is 4.
        let got = load_and_run(&def, identity_coefficients(3, 3), input);
        assert!((got - 4.0).abs() < 1e-12);
    }

    #[test]
    fn convolution_flips_kernel() {
        let def = conv2d(3, 3);
        let mut coeff = Window::zeros(Dim2::new(3, 3));
        coeff.set(0, 0, 1.0); // top-left coefficient...
        let input = Window::from_fn(Dim2::new(3, 3), |x, y| (y * 3 + x) as f64);
        // ...multiplies the bottom-right input sample after flipping.
        let got = load_and_run(&def, coeff, input);
        assert!((got - 8.0).abs() < 1e-12);
    }

    #[test]
    fn costs_follow_paper_formula() {
        let def = conv2d(5, 5);
        let run = &def.spec.methods[def.spec.method_index("runConvolve").unwrap()];
        assert_eq!(run.cost.cycles, 10 + 3 * 25);
        let load = &def.spec.methods[def.spec.method_index("loadCoeff").unwrap()];
        assert_eq!(load.cost.cycles, 10 + 2 * 25);
        assert!(def.spec.inputs[1].replicated);
        assert_eq!(def.spec.inputs[0].offset, bp_core::Offset2::new(2.0, 2.0));
    }

    #[test]
    fn binomial_coefficients_sum_to_one() {
        let w = binomial_coefficients(5);
        let sum: f64 = w.samples().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // symmetric
        assert!((w.get(0, 0) - w.get(4, 4)).abs() < 1e-12);
    }
}
