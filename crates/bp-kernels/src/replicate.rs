//! Replicate kernel (§IV-A): fan-out copy inserted for *replicated* inputs
//! (dashed edges) — coefficient-style data that every parallel replica must
//! receive in full rather than a round-robin share.

use bp_core::kernel::{
    Emitter, FireData, KernelBehavior, KernelDef, KernelSpec, NodeRole, Parallelism, ShapeTransform,
};
use bp_core::method::{MethodCost, MethodSpec};
use bp_core::port::{InputSpec, OutputSpec};
use bp_core::Dim2;

struct ReplicateBehavior {
    k: usize,
}

// Single method `copy`; output `out{i}` is output index `i`.
impl KernelBehavior for ReplicateBehavior {
    fn fire(&mut self, _m: usize, d: &FireData<'_>, out: &mut Emitter<'_>) {
        let w = d.window_at(0);
        for i in 0..self.k {
            out.window_at(i, w.clone());
        }
    }
}

/// Copy each incoming block (of the given grain) to all `k` outputs.
/// Unhandled control tokens are automatically forwarded to every output by
/// the runtime's pass-through rule, so token streams replicate too.
pub fn replicate(k: usize, grain: Dim2) -> KernelDef {
    assert!(k >= 1);
    let outs: Vec<String> = (0..k).map(|i| format!("out{i}")).collect();
    let mut spec = KernelSpec::new("replicate")
        .with_role(NodeRole::Replicate)
        .with_parallelism(Parallelism::Serial)
        .with_shape(ShapeTransform::Transparent)
        .input(InputSpec::block("in", grain));
    for o in &outs {
        spec = spec.output(OutputSpec::block(o.clone(), grain));
    }
    let spec = spec.method(MethodSpec::on_data(
        "copy",
        "in",
        outs,
        MethodCost::new(1, 0),
    ));
    KernelDef::new(spec, move || ReplicateBehavior { k })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::{Item, Window};

    #[test]
    fn copies_to_every_output() {
        let def = replicate(3, Dim2::new(2, 1));
        let w = Window::from_vec(Dim2::new(2, 1), vec![4.0, 5.0]);
        let consumed = vec![(0usize, Item::Window(w.clone()))];
        let items = crate::testing::fire(&def, &mut *(def.factory)(), "copy", consumed);
        assert_eq!(items.len(), 3);
        for (i, (port, item)) in items.iter().enumerate() {
            assert_eq!(*port, i);
            assert_eq!(item.window().unwrap(), &w);
        }
    }

    #[test]
    fn spec_shape_is_transparent() {
        let def = replicate(2, Dim2::ONE);
        assert_eq!(def.spec.shape, ShapeTransform::Transparent);
        assert_eq!(def.spec.role, NodeRole::Replicate);
    }
}
