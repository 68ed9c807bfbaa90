//! Point-wise arithmetic kernels: subtract, add, absolute difference,
//! scale, and threshold. All are fully data parallel with 1×1 streams.

use bp_core::kernel::{Emitter, FireData, KernelBehavior, KernelDef, KernelSpec};
use bp_core::method::{MethodCost, MethodSpec};
use bp_core::port::{InputSpec, OutputSpec};
use bp_core::Window;

fn binary_spec(kind: &'static str, cycles: u64) -> KernelSpec {
    KernelSpec::new(kind)
        .input(InputSpec::stream("in0"))
        .input(InputSpec::stream("in1"))
        .output(OutputSpec::stream("out"))
        .method(MethodSpec::on_all_data(
            "run",
            &["in0", "in1"],
            vec!["out".into()],
            MethodCost::new(cycles, 2),
        ))
}

struct Binary {
    f: fn(f64, f64) -> f64,
}

impl KernelBehavior for Binary {
    fn fire(&mut self, _m: usize, d: &FireData<'_>, out: &mut Emitter<'_>) {
        let a = d.window_at(0).as_scalar();
        let b = d.window_at(1).as_scalar();
        out.window_at(0, Window::scalar((self.f)(a, b)));
    }
}

/// Per-pixel difference `in0 - in1` — the "Subtract" kernel of the paper's
/// running example. Requires both inputs to have the same logical size; the
/// compiler's alignment pass (§III-C) guarantees this.
pub fn subtract() -> KernelDef {
    KernelDef::new(binary_spec("subtract", 5), || Binary { f: |a, b| a - b })
}

/// Per-pixel sum `in0 + in1`.
pub fn add() -> KernelDef {
    KernelDef::new(binary_spec("add", 5), || Binary { f: |a, b| a + b })
}

/// Per-pixel absolute difference `|in0 - in1|`.
pub fn absdiff() -> KernelDef {
    KernelDef::new(binary_spec("absdiff", 6), || Binary {
        f: |a, b| (a - b).abs(),
    })
}

fn unary_spec(kind: &'static str, cycles: u64) -> KernelSpec {
    KernelSpec::new(kind)
        .input(InputSpec::stream("in"))
        .output(OutputSpec::stream("out"))
        .method(MethodSpec::on_data(
            "run",
            "in",
            vec!["out".into()],
            MethodCost::new(cycles, 1),
        ))
}

struct Unary {
    f: Box<dyn Fn(f64) -> f64 + Send>,
}

impl KernelBehavior for Unary {
    fn fire(&mut self, _m: usize, d: &FireData<'_>, out: &mut Emitter<'_>) {
        let a = d.window_at(0).as_scalar();
        out.window_at(0, Window::scalar((self.f)(a)));
    }
}

/// Per-pixel affine transform `gain * x + offset` (sensor gain/offset
/// correction).
pub fn scale(gain: f64, offset: f64) -> KernelDef {
    KernelDef::new(unary_spec("scale", 4), move || Unary {
        f: Box::new(move |x| gain * x + offset),
    })
}

/// Per-pixel binarization: 1.0 where `x >= level`, else 0.0.
pub fn threshold(level: f64) -> KernelDef {
    KernelDef::new(unary_spec("threshold", 3), move || Unary {
        f: Box::new(move |x| if x >= level { 1.0 } else { 0.0 }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::Item;

    fn run(def: &KernelDef, consumed: Vec<(usize, Item)>) -> f64 {
        let out = crate::testing::fire(def, &mut *(def.factory)(), "run", consumed);
        out[0].1.window().unwrap().as_scalar()
    }

    fn run_binary(def: &KernelDef, a: f64, b: f64) -> f64 {
        let w = |v| Item::Window(Window::scalar(v));
        run(def, vec![(0, w(a)), (1, w(b))])
    }

    fn run_unary(def: &KernelDef, a: f64) -> f64 {
        run(def, vec![(0, Item::Window(Window::scalar(a)))])
    }

    #[test]
    fn binary_ops() {
        assert_eq!(run_binary(&subtract(), 5.0, 3.0), 2.0);
        assert_eq!(run_binary(&add(), 5.0, 3.0), 8.0);
        assert_eq!(run_binary(&absdiff(), 3.0, 5.0), 2.0);
    }

    #[test]
    fn unary_ops() {
        assert_eq!(run_unary(&scale(2.0, 1.0), 3.0), 7.0);
        assert_eq!(run_unary(&threshold(4.0), 3.9), 0.0);
        assert_eq!(run_unary(&threshold(4.0), 4.0), 1.0);
    }

    #[test]
    fn binary_kernels_trigger_on_both_inputs() {
        let def = subtract();
        let m = &def.spec.methods[0];
        assert_eq!(m.triggers.len(), 2);
        assert!(m.is_data_method());
    }
}
