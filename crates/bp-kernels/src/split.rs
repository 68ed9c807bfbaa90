//! Split kernels (§IV): finite-state-machine distributors inserted by the
//! compiler in front of parallelized kernels.
//!
//! - [`split_rr`]: round-robin distribution of iterations to data-parallel
//!   replicas. Control tokens are broadcast to every replica so each keeps
//!   its frame alignment.
//! - [`split_columns`]: the specialized buffer-splitting FSM of Fig. 10 —
//!   pixels are routed by column range, and the columns shared between
//!   adjacent sub-buffers (the consumer window's halo) are sent to *both*.

use bp_core::kernel::{
    Emitter, FireData, KernelBehavior, KernelDef, KernelSpec, NodeRole, Parallelism, ShapeTransform,
};
use bp_core::method::{MethodCost, MethodSpec};
use bp_core::port::{InputSpec, OutputSpec};
use bp_core::token::{ControlToken, TokenKind};
use bp_core::Dim2;

fn out_names(k: usize) -> Vec<String> {
    (0..k).map(|i| format!("out{i}")).collect()
}

fn split_spec(kind: &str, k: usize, grain: Dim2) -> KernelSpec {
    let outs = out_names(k);
    let mut spec = KernelSpec::new(kind)
        .with_role(NodeRole::Split)
        .with_parallelism(Parallelism::Serial)
        .with_shape(ShapeTransform::Transparent)
        .input(InputSpec::block("in", grain));
    for o in &outs {
        spec = spec.output(OutputSpec::block(o.clone(), grain));
    }
    spec.method(MethodSpec::on_data(
        "dispatch",
        "in",
        outs.clone(),
        MethodCost::new(2, 0),
    ))
    .method(MethodSpec::on_token(
        "eol",
        "in",
        TokenKind::EndOfLine,
        outs.clone(),
        MethodCost::new(1, 0),
    ))
    .method(MethodSpec::on_token(
        "eof",
        "in",
        TokenKind::EndOfFrame,
        outs,
        MethodCost::new(1, 0),
    ))
}

struct SplitRrBehavior {
    k: usize,
    state: usize,
}

/// The token broadcast by a split's method `method` (1 = eol, 2 = eof).
fn split_token(method: usize) -> ControlToken {
    if method == 1 {
        ControlToken::EndOfLine
    } else {
        ControlToken::EndOfFrame
    }
}

// Spec order: 0 = dispatch, 1 = eol, 2 = eof; output `out{i}` is output
// index `i`.
impl KernelBehavior for SplitRrBehavior {
    fn fire(&mut self, method: usize, d: &FireData<'_>, out: &mut Emitter<'_>) {
        if method == 0 {
            out.window_at(self.state, d.window_at(0).clone());
            self.state = (self.state + 1) % self.k;
            return;
        }
        for i in 0..self.k {
            out.token_at(i, split_token(method));
        }
        if method == 2 {
            self.state = 0;
        }
    }
}

/// Round-robin split across `k` replicas for items of the given grain.
/// End-of-line/frame tokens are broadcast; the round-robin pointer resets at
/// each frame so the matching [`join_rr`](crate::join::join_rr) stays in
/// lockstep.
pub fn split_rr(k: usize, grain: Dim2) -> KernelDef {
    assert!(k >= 1);
    KernelDef::new(split_spec("split_rr", k, grain), move || SplitRrBehavior {
        k,
        state: 0,
    })
}

/// One sub-buffer's column range, inclusive, possibly overlapping its
/// neighbours by the consumer window halo (Fig. 10).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColumnRange {
    /// First data column routed to this output.
    pub start: u32,
    /// Last data column routed to this output (inclusive).
    pub end: u32,
}

impl ColumnRange {
    /// Width of the range in columns.
    pub fn width(&self) -> u32 {
        self.end - self.start + 1
    }

    /// True when `x` belongs to this range.
    pub fn contains(&self, x: u32) -> bool {
        x >= self.start && x <= self.end
    }
}

struct SplitColumnsBehavior {
    ranges: Vec<ColumnRange>,
    x: u32,
}

// Spec order as for the round-robin split.
impl KernelBehavior for SplitColumnsBehavior {
    fn fire(&mut self, method: usize, d: &FireData<'_>, out: &mut Emitter<'_>) {
        if method == 0 {
            let w = d.window_at(0);
            for (i, r) in self.ranges.iter().enumerate() {
                if r.contains(self.x) {
                    out.window_at(i, w.clone());
                }
            }
            self.x += 1;
            return;
        }
        for i in 0..self.ranges.len() {
            out.token_at(i, split_token(method));
        }
        self.x = 0;
    }
}

/// Column-range split for parallelized buffers (Fig. 10): each incoming
/// pixel is sent to every sub-buffer whose (overlapping) column range
/// contains it, so shared halo columns are replicated.
pub fn split_columns(ranges: Vec<ColumnRange>) -> KernelDef {
    assert!(!ranges.is_empty());
    KernelDef::new(
        split_spec("split_cols", ranges.len(), Dim2::ONE),
        move || SplitColumnsBehavior {
            ranges: ranges.clone(),
            x: 0,
        },
    )
}

/// Compute overlapping column ranges that split a `data_width`-column
/// buffer into `k` parts for a consumer window of width `win_w` advancing
/// by `step_x` (§IV-C). Adjacent parts share `win_w - step_x` halo columns,
/// and every part covers a whole number of window iterations.
pub fn plan_column_ranges(data_width: u32, win_w: u32, step_x: u32, k: usize) -> Vec<ColumnRange> {
    assert!(k >= 1);
    let iters = if data_width < win_w {
        1
    } else {
        (data_width - win_w) / step_x + 1
    };
    let k = (k as u32).min(iters).max(1);
    let base = iters / k;
    let extra = iters % k;
    let mut ranges = Vec::with_capacity(k as usize);
    let mut first_iter = 0u32;
    for i in 0..k {
        let n = base + if i < extra { 1 } else { 0 };
        let last_iter = first_iter + n - 1;
        ranges.push(ColumnRange {
            start: first_iter * step_x,
            end: last_iter * step_x + win_w - 1,
        });
        first_iter += n;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::drive;
    use bp_core::{Item, Window};

    #[test]
    fn round_robin_distributes_and_broadcasts_tokens() {
        let def = split_rr(2, Dim2::ONE);
        let items = vec![
            Item::Window(Window::scalar(0.0)),
            Item::Window(Window::scalar(1.0)),
            Item::Window(Window::scalar(2.0)),
            Item::Control(ControlToken::EndOfFrame),
        ];
        let got = drive(&def, items);
        let to0: Vec<f64> = got
            .iter()
            .filter(|(p, i)| *p == 0 && i.is_window())
            .map(|(_, i)| i.window().unwrap().as_scalar())
            .collect();
        let to1: Vec<f64> = got
            .iter()
            .filter(|(p, i)| *p == 1 && i.is_window())
            .map(|(_, i)| i.window().unwrap().as_scalar())
            .collect();
        assert_eq!(to0, vec![0.0, 2.0]);
        assert_eq!(to1, vec![1.0]);
        // EOF broadcast to both.
        let eofs = got
            .iter()
            .filter(|(_, i)| matches!(i, Item::Control(ControlToken::EndOfFrame)))
            .count();
        assert_eq!(eofs, 2);
    }

    #[test]
    fn round_robin_resets_on_eof() {
        let def = split_rr(3, Dim2::ONE);
        let mut items = vec![
            Item::Window(Window::scalar(0.0)),
            Item::Control(ControlToken::EndOfFrame),
            Item::Window(Window::scalar(1.0)),
        ];
        items.push(Item::Control(ControlToken::EndOfFrame));
        let got = drive(&def, items);
        // Both windows go to out0 because the pointer reset at EOF.
        let to0 = got.iter().filter(|(p, i)| *p == 0 && i.is_window()).count();
        assert_eq!(to0, 2);
    }

    #[test]
    fn column_split_replicates_shared_halo() {
        // Fig. 10: width 12, 3-wide window step 1, split in two.
        let ranges = plan_column_ranges(12, 3, 1, 2);
        assert_eq!(
            ranges,
            vec![
                ColumnRange { start: 0, end: 6 },
                ColumnRange { start: 5, end: 11 }
            ]
        );
        // Columns 5 and 6 (the 2-column halo) go to both buffers.
        let def = split_columns(ranges);
        let mut items: Vec<Item> = (0..12)
            .map(|x| Item::Window(Window::scalar(x as f64)))
            .collect();
        items.push(Item::Control(ControlToken::EndOfLine));
        let got = drive(&def, items);
        let to0: Vec<f64> = got
            .iter()
            .filter(|(p, i)| *p == 0 && i.is_window())
            .map(|(_, i)| i.window().unwrap().as_scalar())
            .collect();
        let to1: Vec<f64> = got
            .iter()
            .filter(|(p, i)| *p == 1 && i.is_window())
            .map(|(_, i)| i.window().unwrap().as_scalar())
            .collect();
        assert_eq!(to0, (0..=6).map(|x| x as f64).collect::<Vec<_>>());
        assert_eq!(to1, (5..=11).map(|x| x as f64).collect::<Vec<_>>());
    }

    #[test]
    fn plan_ranges_cover_all_iterations() {
        for k in 1..=4usize {
            let ranges = plan_column_ranges(20, 5, 1, k);
            assert_eq!(ranges.len(), k.min(16));
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, 19);
            // Iteration counts sum to the unsplit count.
            let total: u32 = ranges.iter().map(|r| r.width() - 5 + 1).sum();
            assert_eq!(total, 16);
        }
    }

    #[test]
    fn plan_ranges_clamps_k_to_iterations() {
        let ranges = plan_column_ranges(4, 3, 1, 8);
        // Only 2 iterations exist; k clamps to 2.
        assert_eq!(ranges.len(), 2);
    }
}
