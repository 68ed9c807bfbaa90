//! Canonical app-shape hashing.
//!
//! Two graphs with the same [`shape_key`] are the same application under
//! different instance labels: the key hashes only structural facts
//! (kernel specs, port geometry, method triggers and costs, channel
//! topology, source pacing), never node *names* or behavior state. The
//! fleet host groups tenants by it — tenant tapes carry it, the fleet
//! digest hashes it, and the host counts repeated shapes.
//!
//! The key deliberately covers everything that changes the *simulation*:
//! a per-tenant window-size or rate re-tune — the Parameterized Dataflow
//! contract — produces a distinct key, so two tenants sharing a key run
//! identical schedules given identical mapping and config. Hash collisions
//! across genuinely different shapes are the usual 64-bit-FNV caveat.

use bp_core::{AppGraph, Fnv, ShapeTransform, TokenKind, TriggerOn};

fn hash_token_kind(h: &mut Fnv, k: TokenKind) {
    match k {
        TokenKind::EndOfLine => h.u64(1),
        TokenKind::EndOfFrame => h.u64(2),
        TokenKind::Custom(id) => {
            h.u64(3);
            h.u64(id as u64);
        }
    }
}

fn hash_shape_transform(h: &mut Fnv, s: &ShapeTransform) {
    match s {
        ShapeTransform::Windowed => h.u64(1),
        ShapeTransform::Transparent => h.u64(2),
        ShapeTransform::Fixed { data } => {
            h.u64(3);
            h.u64(data.w as u64);
            h.u64(data.h as u64);
        }
        ShapeTransform::Crop {
            left,
            right,
            top,
            bottom,
        } => {
            h.u64(4);
            for &v in [left, right, top, bottom].iter() {
                h.u64(*v as u64);
            }
        }
        ShapeTransform::Pad {
            left,
            right,
            top,
            bottom,
        } => {
            h.u64(5);
            for &v in [left, right, top, bottom].iter() {
                h.u64(*v as u64);
            }
        }
    }
}

/// The canonical shape key of an application graph: a 64-bit FNV-1a hash
/// over every structural fact the timed schedule depends on, *excluding* node instance names (two tenants running the same
/// pipeline under different labels share a key) and behavior state.
///
/// Covered, in fixed order: per node — kernel kind, role, parallelism,
/// input specs (name, window size/step/offset, replication), output specs
/// (name, size, step), methods (name, triggers with port name and
/// data/token discriminant, outputs, cycle/memory cost, rate bound),
/// state words, custom-token declarations, shape transform, initial
/// tokens; every channel endpoint pair (node id + port index); every dep
/// edge; every source's frame dimensions and rate bits.
pub fn shape_key(graph: &AppGraph) -> u64 {
    let mut h = Fnv::new();
    h.u64(graph.node_count() as u64);
    for (_, node) in graph.nodes() {
        let spec = node.spec();
        h.str(&spec.kind);
        h.u64(spec.role as u64);
        h.u64(spec.parallelism as u64);
        h.u64(spec.inputs.len() as u64);
        for i in &spec.inputs {
            h.str(&i.name);
            h.u64(i.size.w as u64);
            h.u64(i.size.h as u64);
            h.u64(i.step.x as u64);
            h.u64(i.step.y as u64);
            h.f64(i.offset.x);
            h.f64(i.offset.y);
            h.u64(i.replicated as u64);
        }
        h.u64(spec.outputs.len() as u64);
        for o in &spec.outputs {
            h.str(&o.name);
            h.u64(o.size.w as u64);
            h.u64(o.size.h as u64);
            h.u64(o.step.x as u64);
            h.u64(o.step.y as u64);
        }
        h.u64(spec.methods.len() as u64);
        for m in &spec.methods {
            h.str(&m.name);
            h.u64(m.triggers.len() as u64);
            for t in &m.triggers {
                h.str(&t.input);
                match t.on {
                    TriggerOn::Data => h.u64(1),
                    TriggerOn::Token(k) => {
                        h.u64(2);
                        hash_token_kind(&mut h, k);
                    }
                }
            }
            h.u64(m.outputs.len() as u64);
            for o in &m.outputs {
                h.str(o);
            }
            h.u64(m.cost.cycles);
            h.u64(m.cost.memory_words);
            match m.max_rate_hz {
                None => h.u64(0),
                Some(r) => {
                    h.u64(1);
                    h.f64(r);
                }
            }
        }
        h.u64(spec.state_words);
        h.u64(spec.custom_tokens.len() as u64);
        for t in &spec.custom_tokens {
            h.u64(t.id as u64);
            h.str(&t.name);
            h.f64(t.max_rate_hz);
        }
        hash_shape_transform(&mut h, &spec.shape);
        h.u64(spec.initial_tokens);
    }
    let chans: Vec<_> = graph.channels().collect();
    h.u64(chans.len() as u64);
    for (_, c) in chans {
        h.u64(c.src.node.0 as u64);
        h.u64(c.src.port as u64);
        h.u64(c.dst.node.0 as u64);
        h.u64(c.dst.port as u64);
    }
    h.u64(graph.dep_edges().len() as u64);
    for e in graph.dep_edges() {
        h.u64(e.src.0 as u64);
        h.u64(e.dst.0 as u64);
    }
    h.u64(graph.sources().len() as u64);
    for s in graph.sources() {
        h.u64(s.node.0 as u64);
        h.u64(s.frame.w as u64);
        h.u64(s.frame.h as u64);
        h.f64(s.rate_hz);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::{Dim2, GraphBuilder};

    fn pipeline(name_suffix: &str, dim: Dim2, rate: f64) -> AppGraph {
        let mut b = GraphBuilder::new();
        let src = b.add_source(
            format!("In{name_suffix}"),
            bp_kernels::pattern_source(dim),
            dim,
            rate,
        );
        let k = b.add(format!("K{name_suffix}"), bp_kernels::scale(2.0, 0.0));
        let (sdef, _) = bp_kernels::sink();
        let snk = b.add(format!("Out{name_suffix}"), sdef);
        b.connect(src, "out", k, "in");
        b.connect(k, "out", snk, "in");
        b.build().unwrap()
    }

    #[test]
    fn names_do_not_affect_the_key() {
        let dim = Dim2::new(32, 8);
        let a = pipeline("_a", dim, 50.0);
        let b = pipeline("_b", dim, 50.0);
        assert_eq!(shape_key(&a), shape_key(&b));
    }

    #[test]
    fn geometry_and_rate_retunes_change_the_key() {
        let a = pipeline("", Dim2::new(32, 8), 50.0);
        let wider = pipeline("", Dim2::new(64, 8), 50.0);
        let faster = pipeline("", Dim2::new(32, 8), 60.0);
        assert_ne!(shape_key(&a), shape_key(&wider));
        assert_ne!(shape_key(&a), shape_key(&faster));
        assert_ne!(shape_key(&wider), shape_key(&faster));
    }

    #[test]
    fn key_is_stable_across_clones() {
        let a = pipeline("", Dim2::new(32, 8), 50.0);
        assert_eq!(shape_key(&a), shape_key(&a.clone()));
    }
}
