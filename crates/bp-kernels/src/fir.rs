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

impl FirBehavior {
    fn dot(taps: &[f64], samples: &[f64]) -> f64 {
        samples
            .iter()
            .zip(taps.iter().rev())
            .map(|(x, t)| x * t)
            .sum()
    }
}

impl KernelBehavior for FirBehavior {
    fn fire(&mut self, method: &str, d: &FireData<'_>, out: &mut Emitter<'_>) {
        match method {
            "runFir" => {
                let w = d.window("in");
                let taps = self.taps.as_ref().expect("taps loaded before data");
                let acc = Self::dot(taps, w.samples());
                out.window("out", Window::scalar(acc));
            }
            "loadTaps" => {
                self.taps = Some(d.window("taps").samples().to_vec());
            }
            other => panic!("fir has no method '{other}'"),
        }
    }

    // Spec order: 0 = runFir, 1 = loadTaps.
    fn fire_fast(&mut self, method: usize, d: &FireData<'_>, out: &mut Emitter<'_>) -> bool {
        match method {
            0 => {
                let taps = self.taps.as_ref().expect("taps loaded before data");
                let acc = Self::dot(taps, d.window_at(0).samples());
                out.window_at(0, Window::scalar(acc));
            }
            1 => self.taps = Some(d.window_at(1).samples().to_vec()),
            _ => return false,
        }
        true
    }

    fn ready(&self, method: &str) -> bool {
        method != "runFir" || self.taps.is_some()
    }

    fn ready_fast(&self, method: usize) -> Option<bool> {
        Some(method != 0 || self.taps.is_some())
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
    fn fire(&mut self, _m: &str, d: &FireData<'_>, out: &mut Emitter<'_>) {
        // Keep the first sample of each block.
        out.window("out", Window::scalar(d.window("in").get(0, 0)));
    }

    fn fire_fast(&mut self, method: usize, d: &FireData<'_>, out: &mut Emitter<'_>) -> bool {
        if method != 0 {
            return false;
        }
        out.window_at(0, Window::scalar(d.window_at(0).samples()[0]));
        true
    }

    fn ready_fast(&self, _method: usize) -> Option<bool> {
        Some(true)
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
    use bp_core::Item;

    #[test]
    fn fir_computes_dot_product_with_reversed_taps() {
        let def = fir(3);
        let mut b = (def.factory)();
        assert!(!b.ready("runFir"));
        let consumed = vec![(
            1usize,
            Item::Window(Window::from_vec(Dim2::new(3, 1), vec![1.0, 2.0, 3.0])),
        )];
        let data = FireData::new(&def.spec, &consumed);
        let mut out = Emitter::new(&def.spec);
        b.fire("loadTaps", &data, &mut out);
        assert!(b.ready("runFir"));

        let consumed = vec![(
            0usize,
            Item::Window(Window::from_vec(Dim2::new(3, 1), vec![10.0, 20.0, 30.0])),
        )];
        let data = FireData::new(&def.spec, &consumed);
        let mut out = Emitter::new(&def.spec);
        b.fire("runFir", &data, &mut out);
        // Convolution form: newest sample (30) multiplies tap[0] = 1.
        let got = out.into_items()[0].1.window().unwrap().as_scalar();
        assert_eq!(got, 10.0 * 3.0 + 20.0 * 2.0 + 30.0 * 1.0);
    }

    #[test]
    fn boxcar_averages() {
        let def = fir(4);
        let mut b = (def.factory)();
        let consumed = vec![(1usize, Item::Window(boxcar_taps(4)))];
        let data = FireData::new(&def.spec, &consumed);
        let mut out = Emitter::new(&def.spec);
        b.fire("loadTaps", &data, &mut out);
        let consumed = vec![(
            0usize,
            Item::Window(Window::from_vec(Dim2::new(4, 1), vec![1.0, 2.0, 3.0, 4.0])),
        )];
        let data = FireData::new(&def.spec, &consumed);
        let mut out = Emitter::new(&def.spec);
        b.fire("runFir", &data, &mut out);
        assert_eq!(out.into_items()[0].1.window().unwrap().as_scalar(), 2.5);
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
        let mut b = (def.factory)();
        let consumed = vec![(
            0usize,
            Item::Window(Window::from_vec(Dim2::new(3, 1), vec![7.0, 8.0, 9.0])),
        )];
        let data = FireData::new(&def.spec, &consumed);
        let mut out = Emitter::new(&def.spec);
        b.fire("run", &data, &mut out);
        assert_eq!(out.into_items()[0].1.window().unwrap().as_scalar(), 7.0);
    }
}
