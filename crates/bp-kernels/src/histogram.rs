//! Histogram kernels (Fig. 7): per-pixel counting with an end-of-frame
//! control-token handler that flushes the bins, plus the serial merge
//! kernel used to combine partial histograms after parallelization.

use bp_core::kernel::{Emitter, FireData, KernelBehavior, KernelDef, KernelSpec, Parallelism};
use bp_core::method::{MethodCost, MethodSpec};
use bp_core::port::{InputSpec, OutputSpec};
use bp_core::token::{ControlToken, TokenKind};
use bp_core::{Dim2, Window};

struct HistogramBehavior {
    bin_uppers: Vec<f64>,
    counts: Vec<u64>,
}

impl HistogramBehavior {
    fn find_bin(&self, v: f64) -> usize {
        // Linear scan, as in the paper's code ("on average we search half
        // way, so the run time is ~bins/2"). The last bin is open-ended.
        for (i, upper) in self.bin_uppers.iter().enumerate() {
            if v < *upper {
                return i;
            }
        }
        self.bin_uppers.len() - 1
    }
}

// Spec order: 0 = count, 1 = finishCount, 2 = ignoreEol, 3 = configureBins.
impl KernelBehavior for HistogramBehavior {
    fn fire(&mut self, method: usize, d: &FireData<'_>, out: &mut Emitter<'_>) {
        match method {
            0 => {
                let bin = self.find_bin(d.window_at(0).as_scalar());
                self.counts[bin] += 1;
            }
            1 => {
                // Flush the frame's counts and reset; emit the counts block
                // followed by an explicit end-of-frame so downstream
                // per-frame kernels (the merge) stay frame-aligned however
                // many parallel instances exist.
                let n = self.counts.len() as u32;
                let w = Window::from_fn(Dim2::new(n, 1), |x, _| self.counts[x as usize] as f64);
                self.counts.fill(0);
                out.window_at(0, w);
                out.token_at(0, ControlToken::EndOfFrame);
            }
            2 => {}
            _ => {
                self.bin_uppers = d.window_at(1).samples().to_vec();
                self.counts.fill(0);
            }
        }
    }

    fn ready(&self, method: usize) -> bool {
        // Counting requires configured bin bounds.
        method > 1 || !self.bin_uppers.is_empty()
    }
}

/// A `bins`-bin histogram kernel (Fig. 7 of the paper):
/// - `count` fires per data sample on `in` (`bins/2 + 5` cycles),
/// - `finishCount` fires on the `EndOfFrame` token (`3·bins + 3` cycles),
///   emitting the counts block and resetting,
/// - `configureBins` fires when bin upper bounds arrive on the replicated
///   `bins` input,
/// - end-of-line tokens are explicitly ignored.
pub fn histogram(bins: u32) -> KernelDef {
    let b = bins as u64;
    let spec = KernelSpec::new("histogram")
        .input(InputSpec::stream("in"))
        .input(InputSpec::block("bins", Dim2::new(bins, 1)).replicated())
        .output(OutputSpec::block("out", Dim2::new(bins, 1)))
        .method(MethodSpec::on_data(
            "count",
            "in",
            vec![],
            MethodCost::new(b / 2 + 5, 4),
        ))
        .method(MethodSpec::on_token(
            "finishCount",
            "in",
            TokenKind::EndOfFrame,
            vec!["out".into()],
            MethodCost::new(3 * b + 3, b),
        ))
        .method(MethodSpec::on_token(
            "ignoreEol",
            "in",
            TokenKind::EndOfLine,
            vec![],
            MethodCost::new(1, 0),
        ))
        .method(MethodSpec::on_data(
            "configureBins",
            "bins",
            vec![],
            MethodCost::new(2 * b + 3, b),
        ))
        .with_state_words(2 * b);
    KernelDef::new(spec, move || HistogramBehavior {
        bin_uppers: Vec::new(),
        counts: vec![0; bins as usize],
    })
}

/// Evenly spaced bin upper bounds over `[lo, hi)` for a `bins`-bin
/// histogram, as a coefficient window for the `bins` input.
pub fn uniform_bins(bins: u32, lo: f64, hi: f64) -> Window {
    let step = (hi - lo) / bins as f64;
    Window::from_fn(Dim2::new(bins, 1), |x, _| lo + step * (x + 1) as f64)
}

struct MergeBehavior {
    acc: Vec<f64>,
}

// Spec order: 0 = accumulate, 1 = emit.
impl KernelBehavior for MergeBehavior {
    fn fire(&mut self, method: usize, d: &FireData<'_>, out: &mut Emitter<'_>) {
        if method == 0 {
            let w = d.window_at(0);
            if self.acc.len() != w.samples().len() {
                self.acc = vec![0.0; w.samples().len()];
            }
            for (a, s) in self.acc.iter_mut().zip(w.samples()) {
                *a += *s;
            }
        } else {
            let n = self.acc.len() as u32;
            let w = Window::from_fn(Dim2::new(n.max(1), 1), |x, _| {
                self.acc.get(x as usize).copied().unwrap_or(0.0)
            });
            self.acc.fill(0.0);
            out.window_at(0, w);
            out.token_at(0, ControlToken::EndOfFrame);
        }
    }
}

/// The serial histogram merge (Fig. 1(b)): accumulates partial-count blocks
/// and emits the combined histogram once per frame, on the end-of-frame
/// token. Marked [`Parallelism::Serial`]; the application additionally adds
/// a data-dependency edge from the input so the compiler never replicates
/// it (§IV-B).
pub fn histogram_merge(bins: u32) -> KernelDef {
    let b = bins as u64;
    let size = Dim2::new(bins, 1);
    let spec = KernelSpec::new("merge")
        .with_parallelism(Parallelism::Serial)
        .input(InputSpec::block("in", size))
        .output(OutputSpec::block("out", size))
        .method(MethodSpec::on_data(
            "accumulate",
            "in",
            vec![],
            MethodCost::new(b + 3, b),
        ))
        .method(MethodSpec::on_token(
            "emit",
            "in",
            TokenKind::EndOfFrame,
            vec!["out".into()],
            MethodCost::new(b + 3, b),
        ))
        .with_state_words(b);
    KernelDef::new(spec, move || MergeBehavior {
        acc: vec![0.0; bins as usize],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::method;
    use bp_core::Item;

    fn fire(
        def: &KernelDef,
        b: &mut Box<dyn KernelBehavior>,
        name: &str,
        port: usize,
        item: Item,
    ) -> Vec<(usize, Item)> {
        crate::testing::fire(def, &mut **b, name, vec![(port, item)])
    }

    #[test]
    fn counts_then_flushes_on_eof() {
        let def = histogram(4);
        let mut b = (def.factory)();
        assert!(
            !b.ready(method(&def, "count")),
            "bins must be configured first"
        );
        fire(
            &def,
            &mut b,
            "configureBins",
            1,
            Item::Window(uniform_bins(4, 0.0, 4.0)),
        );
        assert!(b.ready(method(&def, "count")));
        for v in [0.5, 1.5, 1.7, 3.2, 9.9] {
            fire(&def, &mut b, "count", 0, Item::Window(Window::scalar(v)));
        }
        let out = fire(
            &def,
            &mut b,
            "finishCount",
            0,
            Item::Control(ControlToken::EndOfFrame),
        );
        assert_eq!(out.len(), 2);
        let counts = out[0].1.window().unwrap();
        assert_eq!(counts.samples(), &[1.0, 2.0, 0.0, 2.0]); // 9.9 lands in last bin
        assert!(matches!(out[1].1, Item::Control(ControlToken::EndOfFrame)));

        // Counts reset for the next frame.
        let out2 = fire(
            &def,
            &mut b,
            "finishCount",
            0,
            Item::Control(ControlToken::EndOfFrame),
        );
        assert_eq!(out2[0].1.window().unwrap().samples(), &[0.0; 4]);
    }

    #[test]
    fn merge_sums_partials_per_frame() {
        let def = histogram_merge(3);
        let mut b = (def.factory)();
        let p1 = Window::from_vec(Dim2::new(3, 1), vec![1.0, 0.0, 2.0]);
        let p2 = Window::from_vec(Dim2::new(3, 1), vec![0.0, 5.0, 1.0]);
        fire(&def, &mut b, "accumulate", 0, Item::Window(p1));
        fire(&def, &mut b, "accumulate", 0, Item::Window(p2));
        let out = fire(
            &def,
            &mut b,
            "emit",
            0,
            Item::Control(ControlToken::EndOfFrame),
        );
        assert_eq!(out[0].1.window().unwrap().samples(), &[1.0, 5.0, 3.0]);
        // and resets
        let out2 = fire(
            &def,
            &mut b,
            "emit",
            0,
            Item::Control(ControlToken::EndOfFrame),
        );
        assert_eq!(out2[0].1.window().unwrap().samples(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn uniform_bins_are_monotonic() {
        let w = uniform_bins(8, 0.0, 256.0);
        let s = w.samples();
        for i in 1..s.len() {
            assert!(s[i] > s[i - 1]);
        }
        assert_eq!(s[7], 256.0);
    }

    #[test]
    fn merge_is_serial() {
        assert_eq!(histogram_merge(4).spec.parallelism, Parallelism::Serial);
    }
}
