//! Upsampling kernel: each input sample expands to a `fx`×`fy` output block
//! — the one kernel in the library whose output grain is *larger* than its
//! input, exercising the model's support for expanding parameterizations.

use bp_core::kernel::{Emitter, FireData, KernelBehavior, KernelDef, KernelSpec};
use bp_core::method::{MethodCost, MethodSpec};
use bp_core::port::{InputSpec, OutputSpec};
use bp_core::{Dim2, Window};

/// Fill policy for the expanded block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpsampleMode {
    /// Repeat the sample across the whole block (nearest-neighbor).
    Replicate,
    /// Put the sample in the top-left corner and zero-stuff the rest
    /// (for subsequent interpolation filtering).
    ZeroStuff,
}

struct UpsampleBehavior {
    fx: u32,
    fy: u32,
    mode: UpsampleMode,
}

impl KernelBehavior for UpsampleBehavior {
    fn fire(&mut self, _m: usize, d: &FireData<'_>, out: &mut Emitter<'_>) {
        let v = d.window_at(0).as_scalar();
        let dim = Dim2::new(self.fx, self.fy);
        let block = match self.mode {
            UpsampleMode::Replicate => Window::filled(dim, v),
            UpsampleMode::ZeroStuff => {
                let mut w = Window::zeros(dim);
                w.set(0, 0, v);
                w
            }
        };
        out.window_at(0, block);
    }
}

/// Upsample by `fx`×`fy` with the given fill policy.
pub fn upsample(fx: u32, fy: u32, mode: UpsampleMode) -> KernelDef {
    assert!(fx >= 1 && fy >= 1);
    let spec = KernelSpec::new("upsample")
        .input(InputSpec::stream("in"))
        .output(OutputSpec::block("out", Dim2::new(fx, fy)))
        .method(MethodSpec::on_data(
            "run",
            "in",
            vec!["out".into()],
            MethodCost::new(3 + (fx * fy) as u64, (fx * fy) as u64),
        ));
    KernelDef::new(spec, move || UpsampleBehavior { fx, fy, mode })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::Item;

    fn run(def: &KernelDef, v: f64) -> Window {
        let consumed = vec![(0usize, Item::Window(Window::scalar(v)))];
        let out = crate::testing::fire(def, &mut *(def.factory)(), "run", consumed);
        out[0].1.window().unwrap().clone()
    }

    #[test]
    fn replicate_fills_block() {
        let w = run(&upsample(2, 3, UpsampleMode::Replicate), 4.5);
        assert_eq!(w.dim(), Dim2::new(2, 3));
        assert!(w.samples().iter().all(|&s| s == 4.5));
    }

    #[test]
    fn zero_stuff_places_corner() {
        let w = run(&upsample(2, 2, UpsampleMode::ZeroStuff), 7.0);
        assert_eq!(w.samples(), &[7.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn output_grain_is_expanded() {
        let def = upsample(3, 2, UpsampleMode::Replicate);
        assert_eq!(def.spec.outputs[0].size, Dim2::new(3, 2));
        assert_eq!(def.spec.inputs[0].size, Dim2::ONE);
    }
}
