//! One-dimensional signal kernels: FIR filtering and decimation over
//! `N`×1 windows. The block-parallel parameterization handles 1-D streams
//! as height-1 images, "without inhibiting one-dimensional signal handling"
//! (§II-A) — these kernels exercise that path for radio-style pipelines.

use bp_core::kernel::{Emitter, FireData, KernelBehavior, KernelDef, KernelSpec};
use bp_core::method::{MethodCost, MethodSpec};
use bp_core::port::{InputSpec, OutputSpec};
use bp_core::{Dim2, Step2, Window};

struct FirBehavior {
    taps: Option<Vec<f64>>,
}

// Spec order: 0 = runFir, 1 = loadTaps.
impl KernelBehavior for FirBehavior {
    fn fire(&mut self, method: usize, d: &FireData<'_>, out: &mut Emitter<'_>) {
        if method == 1 {
            self.taps = Some(d.window_at(1).samples().to_vec());
            return;
        }
        let taps = self.taps.as_ref().expect("taps loaded before data");
        let samples = d.window_at(0).samples();
        let acc: f64 = samples
            .iter()
            .zip(taps.iter().rev())
            .map(|(x, t)| x * t)
            .sum();
        out.window_at(0, Window::scalar(acc));
    }

    fn ready(&self, method: usize) -> bool {
        method != 0 || self.taps.is_some()
    }
}

/// An `n`-tap FIR filter over a 1-D stream (window `n`×1, unit step). Taps
/// arrive on a replicated `taps` input, reloadable at run time like the
/// convolution's coefficients.
pub fn fir(n: u32) -> KernelDef {
    assert!(n >= 1);
    let spec = KernelSpec::new("fir")
        .input(InputSpec::windowed("in", Dim2::new(n, 1), Step2::ONE))
        .input(InputSpec::block("taps", Dim2::new(n, 1)).replicated())
        .output(OutputSpec::stream("out"))
        .method(MethodSpec::on_data(
            "runFir",
            "in",
            vec!["out".into()],
            MethodCost::new(6 + 2 * n as u64, n as u64),
        ))
        .method(MethodSpec::on_data(
            "loadTaps",
            "taps",
            vec![],
            MethodCost::new(4 + n as u64, n as u64),
        ))
        .with_state_words(n as u64);
    KernelDef::new(spec, || FirBehavior { taps: None })
}

/// Normalized moving-average taps for an `n`-tap FIR.
pub fn boxcar_taps(n: u32) -> Window {
    Window::filled(Dim2::new(n, 1), 1.0 / n as f64)
}

/// Simple half-band-ish low-pass taps (binomial weights) for an `n`-tap FIR.
pub fn lowpass_taps(n: u32) -> Window {
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
    Window::from_vec(Dim2::new(n, 1), row.into_iter().map(|v| v / sum).collect())
}

struct DecimateBehavior;

impl KernelBehavior for DecimateBehavior {
    fn fire(&mut self, _m: usize, d: &FireData<'_>, out: &mut Emitter<'_>) {
        // Keep the first sample of each block.
        out.window_at(0, Window::scalar(d.window_at(0).samples()[0]));
    }
}

/// Decimation by `m`: consumes `m`×1 blocks (step == size) and keeps the
/// first sample of each.
pub fn decimate(m: u32) -> KernelDef {
    assert!(m >= 1);
    let spec = KernelSpec::new("decimate")
        .input(InputSpec::block("in", Dim2::new(m, 1)))
        .output(OutputSpec::stream("out"))
        .method(MethodSpec::on_data(
            "run",
            "in",
            vec!["out".into()],
            MethodCost::new(3, 1),
        ));
    KernelDef::new(spec, || DecimateBehavior)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{fire, method};
    use bp_core::Item;

    fn row(v: Vec<f64>) -> Item {
        Item::Window(Window::from_vec(Dim2::new(v.len() as u32, 1), v))
    }

    #[test]
    fn fir_computes_dot_product_with_reversed_taps() {
        let def = fir(3);
        let mut b = (def.factory)();
        let run = method(&def, "runFir");
        assert!(!b.ready(run));
        fire(
            &def,
            &mut *b,
            "loadTaps",
            vec![(1, row(vec![1.0, 2.0, 3.0]))],
        );
        assert!(b.ready(run));
        let out = fire(
            &def,
            &mut *b,
            "runFir",
            vec![(0, row(vec![10.0, 20.0, 30.0]))],
        );
        // Convolution form: newest sample (30) multiplies tap[0] = 1.
        let got = out[0].1.window().unwrap().as_scalar();
        assert_eq!(got, 10.0 * 3.0 + 20.0 * 2.0 + 30.0 * 1.0);
    }

    #[test]
    fn boxcar_averages() {
        let def = fir(4);
        let mut b = (def.factory)();
        fire(
            &def,
            &mut *b,
            "loadTaps",
            vec![(1, Item::Window(boxcar_taps(4)))],
        );
        let out = fire(
            &def,
            &mut *b,
            "runFir",
            vec![(0, row(vec![1.0, 2.0, 3.0, 4.0]))],
        );
        assert_eq!(out[0].1.window().unwrap().as_scalar(), 2.5);
    }

    #[test]
    fn lowpass_taps_normalize() {
        let t = lowpass_taps(5);
        let sum: f64 = t.samples().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(t.samples().len(), 5);
        // Symmetric binomial shape.
        assert_eq!(t.get(0, 0), t.get(4, 0));
        assert!(t.get(2, 0) > t.get(0, 0));
    }

    #[test]
    fn decimate_keeps_block_heads() {
        let def = decimate(3);
        let out = fire(
            &def,
            &mut *(def.factory)(),
            "run",
            vec![(0, row(vec![7.0, 8.0, 9.0]))],
        );
        assert_eq!(out[0].1.window().unwrap().as_scalar(), 7.0);
    }
}
