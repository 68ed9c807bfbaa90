//! The parameterized buffer kernel (§III-B): a two-dimensional circular
//! line buffer that converts a channel's grain from the producer's block
//! size to the consumer's window size and step.
//!
//! A buffer retains only the rows still needed by outstanding windows
//! (`consumer height` rows in the steady state) and is *sized* — for memory
//! accounting and the parallelization pass — as a double buffer of the
//! larger of its input and output grains across the full data width, as the
//! paper prescribes.

use crate::numbered;
use bp_core::kernel::{
    Emitter, FireData, KernelBehavior, KernelDef, KernelSpec, NodeRole, Parallelism, ShapeTransform,
};
use bp_core::port::{InputSpec, OutputSpec};
use bp_core::token::ControlToken;
use bp_core::{Dim2, Step2, Window};
use std::collections::VecDeque;

/// Words of storage the paper's sizing rule assigns to a buffer: double
/// buffering of the larger grain across the data width.
pub fn buffer_storage_words(producer: Dim2, window: Dim2, data_width: u32) -> u64 {
    2 * data_width as u64 * window.h.max(producer.h) as u64
}

struct BufferBehavior {
    data_w: u32,
    pw: u32,
    ph: u32,
    cw: u32,
    ch: u32,
    sx: u32,
    sy: u32,
    /// Completed data rows retained for outstanding windows.
    rows: VecDeque<Vec<f64>>,
    /// Global row index of `rows[0]`.
    base_y: u32,
    /// Rows currently being assembled (ph of them in block mode, 1 in
    /// streaming mode).
    partial: Vec<Vec<f64>>,
    /// Global row index of `partial[0]`.
    part_y: u32,
    /// Window rows fully emitted so far this frame.
    next_iy: u32,
    emitted_since_eol: bool,
}

impl BufferBehavior {
    fn new(data_w: u32, producer: Dim2, window: Dim2, step: Step2) -> Self {
        Self {
            data_w,
            pw: producer.w,
            ph: producer.h,
            cw: window.w,
            ch: window.h,
            sx: step.x,
            sy: step.y,
            rows: VecDeque::new(),
            base_y: 0,
            partial: vec![Vec::new(); producer.h as usize],
            part_y: 0,
            next_iy: 0,
            emitted_since_eol: false,
        }
    }

    fn reset(&mut self) {
        self.rows.clear();
        self.base_y = 0;
        for p in self.partial.iter_mut() {
            p.clear();
        }
        self.part_y = 0;
        self.next_iy = 0;
        self.emitted_since_eol = false;
    }

    fn iters_x(&self) -> u32 {
        if self.data_w < self.cw {
            0
        } else {
            (self.data_w - self.cw) / self.sx + 1
        }
    }

    fn row(&self, global_y: u32) -> &[f64] {
        if global_y >= self.part_y {
            &self.partial[(global_y - self.part_y) as usize]
        } else {
            &self.rows[(global_y - self.base_y) as usize]
        }
    }

    fn build_window(&self, ix: u32, iy: u32) -> Window {
        let x0 = (ix * self.sx) as usize;
        let y0 = iy * self.sy;
        Window::from_fn(Dim2::new(self.cw, self.ch), |x, y| {
            self.row(y0 + y)[x0 + x as usize]
        })
    }

    /// Drop rows no longer needed by any future window.
    fn retire_rows(&mut self) {
        let needed_from = self.next_iy * self.sy;
        while self.base_y < needed_from && !self.rows.is_empty() {
            self.rows.pop_front();
            self.base_y += 1;
        }
    }

    /// Streaming (1×1 producer) path: emit the window whose bottom-right
    /// sample just arrived, if any.
    fn push_pixel(&mut self, v: f64, out: &mut Emitter<'_>) {
        let y = self.part_y;
        self.partial[0].push(v);
        let x = self.partial[0].len() as u32 - 1;
        if y + 1 >= self.ch && (y + 1 - self.ch).is_multiple_of(self.sy) {
            let iy = (y + 1 - self.ch) / self.sy;
            if x + 1 >= self.cw && (x + 1 - self.cw).is_multiple_of(self.sx) {
                let ix = (x + 1 - self.cw) / self.sx;
                if ix < self.iters_x() {
                    out.window_at(0, self.build_window(ix, iy));
                    self.emitted_since_eol = true;
                    if ix + 1 == self.iters_x() {
                        self.next_iy = iy + 1;
                    }
                }
            }
        }
        if x + 1 == self.data_w {
            let full = std::mem::take(&mut self.partial[0]);
            self.rows.push_back(full);
            self.part_y += 1;
            self.retire_rows();
        }
    }

    /// Block path: integrate a producer block; emit every window completed
    /// by it once its ph rows fill the data width.
    fn push_block(&mut self, w: &Window, out: &mut Emitter<'_>) {
        for r in 0..self.ph {
            let row = &mut self.partial[r as usize];
            for c in 0..self.pw {
                row.push(w.get(c, r));
            }
        }
        if self.partial[0].len() as u32 == self.data_w {
            for r in 0..self.ph as usize {
                let full = std::mem::take(&mut self.partial[r]);
                self.rows.push_back(full);
            }
            self.part_y += self.ph;
            // Emit all window rows now complete.
            while self.next_iy * self.sy + self.ch <= self.part_y {
                let iy = self.next_iy;
                for ix in 0..self.iters_x() {
                    out.window_at(0, self.build_window(ix, iy));
                }
                self.emitted_since_eol = true;
                self.next_iy += 1;
            }
            self.retire_rows();
        }
    }
}

// Spec order: 0 = push, 1 = eol, 2 = eof.
impl KernelBehavior for BufferBehavior {
    fn fire(&mut self, method: usize, d: &FireData<'_>, out: &mut Emitter<'_>) {
        match method {
            0 => {
                let w = d.window_at(0);
                if self.pw == 1 && self.ph == 1 {
                    self.push_pixel(w.as_scalar(), out);
                } else {
                    self.push_block(w, out);
                }
            }
            1 => {
                if self.emitted_since_eol {
                    out.token_at(0, ControlToken::EndOfLine);
                    self.emitted_since_eol = false;
                }
            }
            _ => {
                out.token_at(0, ControlToken::EndOfFrame);
                self.reset();
            }
        }
    }
}

/// A buffer kernel converting `producer`-sized blocks into `window` windows
/// advancing by `step`, over logical data `data` (width × height). Inserted
/// automatically by the compiler wherever grains mismatch (§III-B); its
/// storage is sized as a double buffer of the larger grain.
pub fn buffer(producer: Dim2, window: Dim2, step: Step2, data: Dim2) -> KernelDef {
    let storage = buffer_storage_words(producer, window, data.w);
    let mut spec = KernelSpec::new("buffer")
        .with_role(NodeRole::Buffer)
        .with_parallelism(Parallelism::ColumnSplit)
        .with_shape(ShapeTransform::Fixed { data })
        .with_state_words(storage);
    // Each list is built at its final length, in one allocation.
    spec.inputs = vec![InputSpec::block("in", producer)];
    spec.outputs = vec![OutputSpec {
        name: "out".into(),
        size: window,
        step,
    }];
    spec.methods = numbered::stream_methods(("push", 5), 1, numbered::out());
    KernelDef::new(spec, move || {
        BufferBehavior::new(data.w, producer, window, step)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::drive_items as drive;
    use bp_core::Item;

    /// Scan-line pixel stream for a WxH frame valued `y*W + x`.
    fn pixel_stream(w: u32, h: u32) -> Vec<Item> {
        let mut v = Vec::new();
        for y in 0..h {
            for x in 0..w {
                v.push(Item::Window(Window::scalar((y * w + x) as f64)));
            }
            v.push(Item::Control(ControlToken::EndOfLine));
        }
        v.push(Item::Control(ControlToken::EndOfFrame));
        v
    }

    #[test]
    fn emits_sliding_windows_in_scan_order() {
        let def = buffer(Dim2::ONE, Dim2::new(3, 3), Step2::ONE, Dim2::new(4, 4));
        let got = drive(&def, pixel_stream(4, 4));
        let windows: Vec<&Window> = got.iter().filter_map(|i| i.window()).collect();
        // (4-3+1)^2 = 4 windows.
        assert_eq!(windows.len(), 4);
        // First window = rows 0..3, cols 0..3.
        assert_eq!(windows[0].get(0, 0), 0.0);
        assert_eq!(windows[0].get(2, 2), 10.0);
        // Second window shifted right by one.
        assert_eq!(windows[1].get(0, 0), 1.0);
        // Third window = next window row (shifted down by one).
        assert_eq!(windows[2].get(0, 0), 4.0);
        assert_eq!(windows[3].get(2, 2), 15.0);
    }

    #[test]
    fn tokens_follow_window_rows() {
        let def = buffer(Dim2::ONE, Dim2::new(3, 3), Step2::ONE, Dim2::new(4, 4));
        let got = drive(&def, pixel_stream(4, 4));
        // Expected: 2 windows, EOL, 2 windows, EOL, EOF.
        let kinds: Vec<String> = got
            .iter()
            .map(|i| match i {
                Item::Window(_) => "W".to_string(),
                Item::Control(t) => t.to_string(),
            })
            .collect();
        assert_eq!(kinds, vec!["W", "W", "EOL", "W", "W", "EOL", "EOF"]);
    }

    #[test]
    fn strided_windows_skip_rows_and_cols() {
        // 2x2 windows, step 2 over 4x4: exactly 4 non-overlapping windows.
        let def = buffer(
            Dim2::ONE,
            Dim2::new(2, 2),
            Step2::new(2, 2),
            Dim2::new(4, 4),
        );
        let got = drive(&def, pixel_stream(4, 4));
        let windows: Vec<&Window> = got.iter().filter_map(|i| i.window()).collect();
        assert_eq!(windows.len(), 4);
        assert_eq!(windows[0].samples(), &[0.0, 1.0, 4.0, 5.0]);
        assert_eq!(windows[1].samples(), &[2.0, 3.0, 6.0, 7.0]);
        assert_eq!(windows[2].samples(), &[8.0, 9.0, 12.0, 13.0]);
        assert_eq!(windows[3].samples(), &[10.0, 11.0, 14.0, 15.0]);
    }

    #[test]
    fn resets_between_frames() {
        let def = buffer(Dim2::ONE, Dim2::new(3, 3), Step2::ONE, Dim2::new(4, 4));
        let mut items = pixel_stream(4, 4);
        items.extend(pixel_stream(4, 4));
        let got = drive(&def, items);
        let windows = got.iter().filter(|i| i.is_window()).count();
        let eofs = got
            .iter()
            .filter(|i| matches!(i, Item::Control(ControlToken::EndOfFrame)))
            .count();
        assert_eq!(windows, 8);
        assert_eq!(eofs, 2);
    }

    #[test]
    fn block_producer_reassembles_rows() {
        // Producer delivers 2x1 blocks; consumer wants 3x3 windows over 4x4.
        let def = buffer(
            Dim2::new(2, 1),
            Dim2::new(3, 3),
            Step2::ONE,
            Dim2::new(4, 4),
        );
        let mut items = Vec::new();
        for y in 0..4u32 {
            for bx in 0..2u32 {
                let w = Window::from_fn(Dim2::new(2, 1), |x, _| (y * 4 + bx * 2 + x) as f64);
                items.push(Item::Window(w));
            }
            items.push(Item::Control(ControlToken::EndOfLine));
        }
        items.push(Item::Control(ControlToken::EndOfFrame));
        let got = drive(&def, items);
        let windows: Vec<&Window> = got.iter().filter_map(|i| i.window()).collect();
        assert_eq!(windows.len(), 4);
        assert_eq!(windows[0].get(0, 0), 0.0);
        assert_eq!(windows[3].get(2, 2), 15.0);
    }

    #[test]
    fn storage_matches_paper_sizing() {
        // The paper's [20x10] buffer: width-20 data into a 5x5 window.
        assert_eq!(buffer_storage_words(Dim2::ONE, Dim2::new(5, 5), 20), 200);
        let def = buffer(Dim2::ONE, Dim2::new(5, 5), Step2::ONE, Dim2::new(20, 12));
        assert_eq!(def.spec.state_words, 200);
        assert_eq!(def.spec.role, NodeRole::Buffer);
        assert_eq!(def.spec.parallelism, Parallelism::ColumnSplit);
    }

    #[test]
    fn histogram_row_windows() {
        // 4x1 windows with step (4,1): one window per data row.
        let def = buffer(
            Dim2::ONE,
            Dim2::new(4, 1),
            Step2::new(4, 1),
            Dim2::new(4, 3),
        );
        let got = drive(&def, pixel_stream(4, 3));
        let windows: Vec<&Window> = got.iter().filter_map(|i| i.window()).collect();
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[1].samples(), &[4.0, 5.0, 6.0, 7.0]);
    }
}
