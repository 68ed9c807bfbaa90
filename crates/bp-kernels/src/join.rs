//! Join kernels (§IV): in-order collectors matching the split kernels.
//!
//! A join's data methods are gated by an internal FSM (via
//! [`KernelBehavior::ready`]) so items are consumed from its inputs in
//! exactly the order the matching split distributed them. Control tokens
//! are synchronized: the join consumes one token from *every* input and
//! re-emits it once.

use bp_core::kernel::{
    Emitter, FireData, KernelBehavior, KernelDef, KernelSpec, NodeRole, Parallelism, ShapeTransform,
};
use bp_core::method::{MethodCost, MethodSpec, Trigger, TriggerOn};
use bp_core::port::{InputSpec, OutputSpec};
use bp_core::token::{ControlToken, TokenKind};
use bp_core::Dim2;

fn in_names(k: usize) -> Vec<String> {
    (0..k).map(|i| format!("in{i}")).collect()
}

fn join_spec(kind: &str, k: usize, grain: Dim2) -> KernelSpec {
    let ins = in_names(k);
    let mut spec = KernelSpec::new(kind)
        .with_role(NodeRole::Join)
        .with_parallelism(Parallelism::Serial)
        .with_shape(ShapeTransform::Transparent)
        .output(OutputSpec::block("out", grain));
    for i in &ins {
        spec = spec.input(InputSpec::block(i.clone(), grain));
    }
    for (idx, i) in ins.iter().enumerate() {
        spec = spec.method(MethodSpec::on_data(
            format!("take{idx}"),
            i.clone(),
            vec!["out".into()],
            MethodCost::new(2, 0),
        ));
    }
    // Token synchronizers: fire when the token heads every input.
    let all = |on: TriggerOn| -> Vec<Trigger> {
        ins.iter()
            .map(|i| Trigger {
                input: i.clone(),
                on,
            })
            .collect()
    };
    spec.method(MethodSpec {
        name: "syncEol".into(),
        triggers: all(TriggerOn::Token(TokenKind::EndOfLine)),
        outputs: vec!["out".into()],
        cost: MethodCost::new(1, 0),
        max_rate_hz: None,
    })
    .method(MethodSpec {
        name: "syncEof".into(),
        triggers: all(TriggerOn::Token(TokenKind::EndOfFrame)),
        outputs: vec!["out".into()],
        cost: MethodCost::new(1, 0),
        max_rate_hz: None,
    })
}

struct JoinRrBehavior {
    k: usize,
    state: usize,
}

// Spec order: 0..k-1 = take{i} (input `in{i}` is input index `i`),
// k = syncEol, k+1 = syncEof.
impl KernelBehavior for JoinRrBehavior {
    fn fire(&mut self, method: usize, d: &FireData<'_>, out: &mut Emitter<'_>) {
        if method < self.k {
            debug_assert_eq!(method, self.state);
            out.window_at(0, d.window_at(method).clone());
            self.state = (self.state + 1) % self.k;
        } else if method == self.k {
            out.token_at(0, ControlToken::EndOfLine);
        } else {
            out.token_at(0, ControlToken::EndOfFrame);
            self.state = 0;
        }
    }

    fn ready(&self, method: usize) -> bool {
        method >= self.k || method == self.state
    }
}

/// Round-robin join collecting from `k` replicas in distribution order;
/// the pointer resets at each end-of-frame, mirroring
/// [`split_rr`](crate::split::split_rr).
pub fn join_rr(k: usize, grain: Dim2) -> KernelDef {
    assert!(k >= 1);
    KernelDef::new(join_spec("join_rr", k, grain), move || JoinRrBehavior {
        k,
        state: 0,
    })
}

struct JoinColumnsBehavior {
    counts: Vec<u32>,
    input: usize,
    taken: u32,
}

impl JoinColumnsBehavior {
    fn advance(&mut self) {
        self.taken += 1;
        if self.taken == self.counts[self.input] {
            self.taken = 0;
            self.input = (self.input + 1) % self.counts.len();
        }
    }
}

// Spec order as for the round-robin join.
impl KernelBehavior for JoinColumnsBehavior {
    fn fire(&mut self, method: usize, d: &FireData<'_>, out: &mut Emitter<'_>) {
        let k = self.counts.len();
        if method < k {
            debug_assert_eq!(method, self.input);
            out.window_at(0, d.window_at(method).clone());
            self.advance();
        } else {
            let token = if method == k {
                ControlToken::EndOfLine
            } else {
                ControlToken::EndOfFrame
            };
            out.token_at(0, token);
            self.input = 0;
            self.taken = 0;
        }
    }

    fn ready(&self, method: usize) -> bool {
        method >= self.counts.len() || method == self.input
    }
}

/// Column-group join for parallelized buffers: per window row, takes
/// `counts[0]` windows from `in0`, then `counts[1]` from `in1`, and so on,
/// restoring global scan-line order. End-of-line tokens (one per window
/// row, synchronized across sub-buffers) reset the pattern. `data` is the
/// full logical extent the join reassembles, recorded for the data-flow
/// analysis.
pub fn join_columns(counts: Vec<u32>, grain: Dim2, data: Dim2) -> KernelDef {
    assert!(!counts.is_empty());
    assert!(
        counts.iter().all(|c| *c > 0),
        "every column group must contribute windows"
    );
    let mut spec = join_spec("join_cols", counts.len(), grain);
    spec.shape = ShapeTransform::Fixed { data };
    KernelDef::new(spec, move || JoinColumnsBehavior {
        counts: counts.clone(),
        input: 0,
        taken: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::{Item, Window};
    use std::collections::VecDeque;

    /// Minimal multi-input executor for a single join node.
    fn drive(def: &KernelDef, feeds: Vec<Vec<Item>>) -> Vec<Item> {
        let table = def.spec.method_table().unwrap();
        let mut b = (def.factory)();
        let mut queues: Vec<VecDeque<Item>> = feeds.into_iter().map(VecDeque::from).collect();
        let mut got = Vec::new();
        loop {
            let heads_match = |mi: usize| {
                let triggers = table.method(mi).triggers;
                !triggers.is_empty()
                    && triggers.iter().all(|&(p, on)| match queues[p].front() {
                        Some(Item::Window(_)) => on == TriggerOn::Data,
                        Some(Item::Control(tok)) => on == TriggerOn::Token(tok.kind()),
                        None => false,
                    })
            };
            let Some(mi) = (0..table.len()).find(|&mi| heads_match(mi) && b.ready(mi)) else {
                return got;
            };
            let triggers = table.method(mi).triggers;
            let consumed: Vec<(usize, Item)> = triggers
                .iter()
                .map(|&(p, _)| (p, queues[p].pop_front().unwrap()))
                .collect();
            let data = FireData::new(&def.spec, &consumed);
            let mut out = Emitter::new(&def.spec);
            b.fire(mi, &data, &mut out);
            got.extend(out.into_items().into_iter().map(|(_, i)| i));
        }
    }

    fn w(v: f64) -> Item {
        Item::Window(Window::scalar(v))
    }

    #[test]
    fn round_robin_join_restores_order() {
        let def = join_rr(2, Dim2::ONE);
        let got = drive(
            &def,
            vec![
                vec![w(0.0), w(2.0), Item::Control(ControlToken::EndOfFrame)],
                vec![w(1.0), Item::Control(ControlToken::EndOfFrame)],
            ],
        );
        let vals: Vec<f64> = got
            .iter()
            .filter_map(|i| i.window().map(|x| x.as_scalar()))
            .collect();
        assert_eq!(vals, vec![0.0, 1.0, 2.0]);
        // Exactly one EOF re-emitted.
        let eofs = got
            .iter()
            .filter(|i| matches!(i, Item::Control(ControlToken::EndOfFrame)))
            .count();
        assert_eq!(eofs, 1);
    }

    #[test]
    fn join_waits_for_round_robin_order() {
        let def = join_rr(2, Dim2::ONE);
        // in1 has data but in0 does not: nothing can fire.
        let got = drive(&def, vec![vec![], vec![w(9.0)]]);
        assert!(got.is_empty());
    }

    #[test]
    fn column_join_interleaves_groups_per_row() {
        // Two sub-buffers contributing 2 and 3 windows per row.
        let def = join_columns(vec![2, 3], Dim2::ONE, Dim2::new(5, 2));
        let row = |base: f64, n: usize, eol: bool| -> Vec<Item> {
            let mut v: Vec<Item> = (0..n).map(|i| w(base + i as f64)).collect();
            if eol {
                v.push(Item::Control(ControlToken::EndOfLine));
            }
            v
        };
        let mut f0 = row(0.0, 2, true);
        f0.extend(row(10.0, 2, true));
        f0.push(Item::Control(ControlToken::EndOfFrame));
        let mut f1 = row(2.0, 3, true);
        f1.extend(row(12.0, 3, true));
        f1.push(Item::Control(ControlToken::EndOfFrame));
        let got = drive(&def, vec![f0, f1]);
        let vals: Vec<f64> = got
            .iter()
            .filter_map(|i| i.window().map(|x| x.as_scalar()))
            .collect();
        assert_eq!(
            vals,
            vec![0.0, 1.0, 2.0, 3.0, 4.0, 10.0, 11.0, 12.0, 13.0, 14.0]
        );
        let eols = got
            .iter()
            .filter(|i| matches!(i, Item::Control(ControlToken::EndOfLine)))
            .count();
        assert_eq!(eols, 2);
    }

    #[test]
    fn specs_are_serial_plumbing() {
        let j = join_rr(3, Dim2::ONE);
        assert_eq!(j.spec.role, NodeRole::Join);
        assert_eq!(j.spec.parallelism, Parallelism::Serial);
        assert_eq!(j.spec.inputs.len(), 3);
        assert_eq!(j.spec.methods.len(), 3 + 2);
    }
}
