//! Windowed median filter — the non-linear half of the paper's running
//! example (the "3x3 Median" kernel).

use bp_core::kernel::{Emitter, FireData, KernelBehavior, KernelDef, KernelSpec};
use bp_core::method::{MethodCost, MethodSpec};
use bp_core::port::{InputSpec, OutputSpec};
use bp_core::{Dim2, Step2, Window};

struct MedianBehavior {
    scratch: Vec<f64>,
}

impl MedianBehavior {
    fn median_of(&mut self, input: &Window) -> f64 {
        self.scratch.clear();
        self.scratch.extend_from_slice(input.samples());
        self.scratch
            .sort_by(|a, b| a.partial_cmp(b).expect("median input must not be NaN"));
        let mid = self.scratch.len() / 2;
        if self.scratch.len() % 2 == 1 {
            self.scratch[mid]
        } else {
            0.5 * (self.scratch[mid - 1] + self.scratch[mid])
        }
    }
}

impl KernelBehavior for MedianBehavior {
    fn fire(&mut self, _m: &str, d: &FireData<'_>, out: &mut Emitter<'_>) {
        let v = self.median_of(d.window("in"));
        out.window("out", Window::scalar(v));
    }

    fn fire_fast(&mut self, _m: usize, d: &FireData<'_>, out: &mut Emitter<'_>) -> bool {
        let v = self.median_of(d.window_at(0));
        out.window_at(0, Window::scalar(v));
        true
    }

    fn ready_fast(&self, _method: usize) -> Option<bool> {
        Some(true)
    }
}

/// A `w`×`h` median filter producing one sample per iteration. Cost model:
/// `10 + 3wh` cycles per invocation (partial selection over the window) and `wh`
/// words of working memory.
pub fn median(w: u32, h: u32) -> KernelDef {
    let size = Dim2::new(w, h);
    let wh = (w * h) as u64;
    let spec = KernelSpec::new("median")
        .input(InputSpec::windowed("in", size, Step2::ONE))
        .output(OutputSpec::stream("out"))
        .method(MethodSpec::on_data(
            "runMedian",
            "in",
            vec!["out".into()],
            MethodCost::new(10 + 3 * wh, wh),
        ));
    KernelDef::new(spec, move || MedianBehavior {
        scratch: Vec::with_capacity(wh as usize),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::Item;

    fn run(def: &KernelDef, input: Window) -> f64 {
        let mut b = (def.factory)();
        let consumed = vec![(0usize, Item::Window(input))];
        let data = FireData::new(&def.spec, &consumed);
        let mut out = Emitter::new(&def.spec);
        b.fire("runMedian", &data, &mut out);
        out.into_items()[0].1.window().unwrap().as_scalar()
    }

    #[test]
    fn median_of_odd_window() {
        let def = median(3, 3);
        let input = Window::from_vec(
            Dim2::new(3, 3),
            vec![9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0],
        );
        assert_eq!(run(&def, input), 5.0);
    }

    #[test]
    fn median_rejects_outliers() {
        let def = median(3, 3);
        let mut samples = vec![10.0; 9];
        samples[4] = 1000.0; // impulse noise at the center
        let input = Window::from_vec(Dim2::new(3, 3), samples);
        assert_eq!(run(&def, input), 10.0);
    }

    #[test]
    fn median_of_even_window_averages() {
        let def = median(2, 2);
        let input = Window::from_vec(Dim2::new(2, 2), vec![1.0, 2.0, 3.0, 10.0]);
        assert_eq!(run(&def, input), 2.5);
    }

    #[test]
    fn spec_has_centered_offset_and_halo() {
        let def = median(3, 3);
        let i = &def.spec.inputs[0];
        assert_eq!(i.offset, bp_core::Offset2::new(1.0, 1.0));
        assert_eq!(i.halo(), Dim2::new(2, 2));
    }
}
