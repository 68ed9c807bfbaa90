//! Padding kernel (§III-C): enlarges a stream by zero or mirrored margins —
//! the alternative to trimming when aligning differently-haloed inputs. The
//! choice between padding and trimming is the programmer's (it changes the
//! result); the mechanics are the compiler's.

use crate::inset::Margins;
use crate::numbered;
use bp_core::kernel::{
    Emitter, FireData, KernelBehavior, KernelDef, KernelSpec, NodeRole, ShapeTransform,
};
use bp_core::port::{InputSpec, OutputSpec};
use bp_core::token::ControlToken;
use bp_core::{Dim2, Window};
use std::collections::VecDeque;

/// Padding fill policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PadMode {
    /// Fill margins with zeros.
    Zero,
    /// Mirror samples about the data edge (symmetric reflection).
    Mirror,
}

struct PadBehavior {
    m: Margins,
    mode: PadMode,
    data: Dim2,
    /// Current row being assembled (mirror mode) or current x (zero mode).
    cur: Vec<f64>,
    x: u32,
    y: u32,
    /// Mirror mode: rows held back until the top margin can be emitted.
    held: Vec<Vec<f64>>,
    /// Mirror mode: rolling window of the last `bottom` rows.
    tail: VecDeque<Vec<f64>>,
}

impl PadBehavior {
    fn out_width(&self) -> u32 {
        self.data.w + self.m.left + self.m.right
    }

    fn emit_zero_row(&self, out: &mut Emitter<'_>) {
        for _ in 0..self.out_width() {
            out.window_at(0, Window::scalar(0.0));
        }
        out.token_at(0, ControlToken::EndOfLine);
    }

    /// Mirror-pad one full data row and emit it with an EOL.
    fn emit_padded_row(&self, row: &[f64], out: &mut Emitter<'_>) {
        let w = self.data.w as usize;
        for j in 0..self.m.left as usize {
            // Position -(left - j) reflects to row[left - 1 - j].
            out.window_at(0, Window::scalar(row[self.m.left as usize - 1 - j]));
        }
        for &v in row {
            out.window_at(0, Window::scalar(v));
        }
        for j in 0..self.m.right as usize {
            out.window_at(0, Window::scalar(row[w - 1 - j]));
        }
        out.token_at(0, ControlToken::EndOfLine);
    }

    fn remember_tail(&mut self, row: Vec<f64>) {
        if self.m.bottom == 0 {
            return;
        }
        self.tail.push_back(row);
        while self.tail.len() > self.m.bottom as usize {
            self.tail.pop_front();
        }
    }

    fn reset(&mut self) {
        self.cur.clear();
        self.x = 0;
        self.y = 0;
        self.held.clear();
        self.tail.clear();
    }
}

// Spec order: 0 = push, 1 = eol, 2 = eof.
impl KernelBehavior for PadBehavior {
    fn fire(&mut self, method: usize, d: &FireData<'_>, out: &mut Emitter<'_>) {
        match (method, self.mode) {
            (0, PadMode::Zero) => {
                if self.x == 0 && self.y == 0 {
                    for _ in 0..self.m.top {
                        self.emit_zero_row(out);
                    }
                }
                if self.x == 0 {
                    for _ in 0..self.m.left {
                        out.window_at(0, Window::scalar(0.0));
                    }
                }
                out.window_at(0, Window::scalar(d.window_at(0).as_scalar()));
                self.x += 1;
            }
            (1, PadMode::Zero) => {
                for _ in 0..self.m.right {
                    out.window_at(0, Window::scalar(0.0));
                }
                out.token_at(0, ControlToken::EndOfLine);
                self.x = 0;
                self.y += 1;
            }
            (_, PadMode::Zero) => {
                for _ in 0..self.m.bottom {
                    self.emit_zero_row(out);
                }
                out.token_at(0, ControlToken::EndOfFrame);
                self.reset();
            }
            (0, PadMode::Mirror) => {
                self.cur.push(d.window_at(0).as_scalar());
            }
            (1, PadMode::Mirror) => {
                let row = std::mem::take(&mut self.cur);
                let t = self.m.top as usize;
                if (self.y as usize) < t {
                    self.held.push(row);
                    if self.held.len() == t {
                        // Top margin: reflection of rows t-1 .. 0, then the
                        // held rows in order.
                        for i in (0..t).rev() {
                            self.emit_padded_row(&self.held[i].clone(), out);
                        }
                        let held = std::mem::take(&mut self.held);
                        for row in held {
                            self.emit_padded_row(&row, out);
                            self.remember_tail(row);
                        }
                    }
                } else {
                    self.emit_padded_row(&row, out);
                    self.remember_tail(row);
                }
                self.y += 1;
            }
            (_, PadMode::Mirror) => {
                // Degenerate frames shorter than the top margin flush as-is.
                if !self.held.is_empty() {
                    let held = std::mem::take(&mut self.held);
                    for row in held {
                        self.emit_padded_row(&row, out);
                        self.remember_tail(row);
                    }
                }
                let tail: Vec<Vec<f64>> = self.tail.iter().cloned().collect();
                for i in 0..self.m.bottom as usize {
                    // Position H+i reflects to row[H-1-i] = tail from the end.
                    if let Some(row) = tail.len().checked_sub(1 + i).and_then(|j| tail.get(j)) {
                        self.emit_padded_row(row, out);
                    }
                }
                out.token_at(0, ControlToken::EndOfFrame);
                self.reset();
            }
        }
    }
}

/// A padding kernel adding `margins` around a logical `data`-sized stream
/// with the given fill policy.
pub fn pad(margins: Margins, mode: PadMode, data: Dim2) -> KernelDef {
    if mode == PadMode::Mirror {
        assert!(
            margins.left <= data.w
                && margins.right <= data.w
                && margins.top <= data.h
                && margins.bottom <= data.h,
            "mirror padding cannot exceed the data size"
        );
    }
    let kind = match mode {
        PadMode::Zero => "pad_zero",
        PadMode::Mirror => "pad_mirror",
    };
    let mut spec = KernelSpec::new(kind)
        .with_role(NodeRole::Pad)
        .with_shape(ShapeTransform::Pad {
            left: margins.left,
            right: margins.right,
            top: margins.top,
            bottom: margins.bottom,
        })
        .with_state_words(match mode {
            PadMode::Zero => 4,
            PadMode::Mirror => (margins.top.max(margins.bottom).max(1) as u64 + 1) * data.w as u64,
        });
    // Each list is built at its final length, in one allocation.
    spec.inputs = vec![InputSpec::stream("in")];
    spec.outputs = vec![OutputSpec::stream("out")];
    spec.methods = numbered::stream_methods(("push", 2), 2, numbered::out());
    KernelDef::new(spec, move || PadBehavior {
        m: margins,
        mode,
        data,
        cur: Vec::new(),
        x: 0,
        y: 0,
        held: Vec::new(),
        tail: VecDeque::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::drive_items as drive;
    use bp_core::Item;

    fn stream(w: u32, h: u32) -> Vec<Item> {
        let mut v = Vec::new();
        for y in 0..h {
            for x in 0..w {
                v.push(Item::Window(Window::scalar((y * w + x + 1) as f64)));
            }
            v.push(Item::Control(ControlToken::EndOfLine));
        }
        v.push(Item::Control(ControlToken::EndOfFrame));
        v
    }

    fn rows(items: &[Item]) -> Vec<Vec<f64>> {
        let mut rows = Vec::new();
        let mut cur = Vec::new();
        for i in items {
            match i {
                Item::Window(w) => cur.push(w.as_scalar()),
                Item::Control(ControlToken::EndOfLine) => rows.push(std::mem::take(&mut cur)),
                _ => {}
            }
        }
        rows
    }

    #[test]
    fn zero_pad_surrounds_with_zeros() {
        let def = pad(Margins::uniform(1), PadMode::Zero, Dim2::new(2, 2));
        let got = drive(&def, stream(2, 2));
        let r = rows(&got);
        assert_eq!(
            r,
            vec![
                vec![0.0, 0.0, 0.0, 0.0],
                vec![0.0, 1.0, 2.0, 0.0],
                vec![0.0, 3.0, 4.0, 0.0],
                vec![0.0, 0.0, 0.0, 0.0],
            ]
        );
    }

    #[test]
    fn mirror_pad_reflects_edges() {
        let def = pad(Margins::uniform(1), PadMode::Mirror, Dim2::new(2, 2));
        let got = drive(&def, stream(2, 2));
        let r = rows(&got);
        // Data:   1 2      Mirrored:  1 1 2 2
        //         3 4                 1 1 2 2
        //                             3 3 4 4
        //                             3 3 4 4
        assert_eq!(
            r,
            vec![
                vec![1.0, 1.0, 2.0, 2.0],
                vec![1.0, 1.0, 2.0, 2.0],
                vec![3.0, 3.0, 4.0, 4.0],
                vec![3.0, 3.0, 4.0, 4.0],
            ]
        );
    }

    #[test]
    fn zero_pad_multiframe_resets() {
        let def = pad(
            Margins {
                left: 0,
                right: 1,
                top: 1,
                bottom: 0,
            },
            PadMode::Zero,
            Dim2::new(2, 1),
        );
        let mut items = stream(2, 1);
        items.extend(stream(2, 1));
        let got = drive(&def, items);
        let r = rows(&got);
        assert_eq!(r.len(), 4);
        assert_eq!(r[0], vec![0.0, 0.0, 0.0]);
        assert_eq!(r[1], vec![1.0, 2.0, 0.0]);
        assert_eq!(r[2], vec![0.0, 0.0, 0.0]);
        assert_eq!(r[3], vec![1.0, 2.0, 0.0]);
    }

    #[test]
    fn shape_transform_records_margins() {
        let def = pad(Margins::uniform(2), PadMode::Zero, Dim2::new(8, 8));
        assert_eq!(
            def.spec.shape,
            ShapeTransform::Pad {
                left: 2,
                right: 2,
                top: 2,
                bottom: 2
            }
        );
    }
}
