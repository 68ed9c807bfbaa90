//! Inset (trim) kernel (§III-C, the "inverted house" in the paper's
//! figures): discards margin rows/columns so that differently-haloed
//! results align before a multi-input kernel.

use bp_core::kernel::{
    Emitter, FireData, KernelBehavior, KernelDef, KernelSpec, NodeRole, ShapeTransform,
};
use bp_core::method::{MethodCost, MethodSpec};
use bp_core::port::{InputSpec, OutputSpec};
use bp_core::token::{ControlToken, TokenKind};
use bp_core::{Dim2, Window};

/// Margins removed by an inset kernel, in samples per edge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Margins {
    /// Columns removed on the left.
    pub left: u32,
    /// Columns removed on the right.
    pub right: u32,
    /// Rows removed at the top.
    pub top: u32,
    /// Rows removed at the bottom.
    pub bottom: u32,
}

impl Margins {
    /// Uniform margins on all four edges.
    pub fn uniform(m: u32) -> Self {
        Self {
            left: m,
            right: m,
            top: m,
            bottom: m,
        }
    }

    /// True when nothing is trimmed.
    pub fn is_zero(&self) -> bool {
        *self == Self::default()
    }
}

struct InsetBehavior {
    m: Margins,
    data: Dim2,
    x: u32,
    y: u32,
}

impl InsetBehavior {
    fn row_kept(&self) -> bool {
        self.y >= self.m.top && self.y < self.data.h - self.m.bottom
    }
}

// Spec order: 0 = filter, 1 = eol, 2 = eof.
impl KernelBehavior for InsetBehavior {
    fn fire(&mut self, method: usize, d: &FireData<'_>, out: &mut Emitter<'_>) {
        match method {
            0 => {
                let keep_col = self.x >= self.m.left && self.x < self.data.w - self.m.right;
                if self.row_kept() && keep_col {
                    out.window_at(0, Window::scalar(d.window_at(0).as_scalar()));
                }
                self.x += 1;
            }
            1 => {
                if self.row_kept() {
                    out.token_at(0, ControlToken::EndOfLine);
                }
                self.x = 0;
                self.y += 1;
            }
            _ => {
                out.token_at(0, ControlToken::EndOfFrame);
                self.x = 0;
                self.y = 0;
            }
        }
    }
}

/// An inset kernel trimming `margins` off a logical `data`-sized stream.
/// The compiler inserts these automatically when the programmer selects the
/// trim alignment policy (§III-C).
pub fn inset(margins: Margins, data: Dim2) -> KernelDef {
    assert!(
        margins.left + margins.right < data.w && margins.top + margins.bottom < data.h,
        "inset margins must leave a non-empty interior"
    );
    let spec = KernelSpec::new("inset")
        .with_role(NodeRole::Inset)
        .with_shape(ShapeTransform::Crop {
            left: margins.left,
            right: margins.right,
            top: margins.top,
            bottom: margins.bottom,
        })
        .input(InputSpec::stream("in"))
        .output(OutputSpec::stream("out"))
        .method(MethodSpec::on_data(
            "filter",
            "in",
            vec!["out".into()],
            MethodCost::new(2, 0),
        ))
        .method(MethodSpec::on_token(
            "eol",
            "in",
            TokenKind::EndOfLine,
            vec!["out".into()],
            MethodCost::new(1, 0),
        ))
        .method(MethodSpec::on_token(
            "eof",
            "in",
            TokenKind::EndOfFrame,
            vec!["out".into()],
            MethodCost::new(1, 0),
        ));
    KernelDef::new(spec, move || InsetBehavior {
        m: margins,
        data,
        x: 0,
        y: 0,
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
                v.push(Item::Window(Window::scalar((y * w + x) as f64)));
            }
            v.push(Item::Control(ControlToken::EndOfLine));
        }
        v.push(Item::Control(ControlToken::EndOfFrame));
        v
    }

    #[test]
    fn trims_one_pixel_border() {
        let def = inset(Margins::uniform(1), Dim2::new(4, 4));
        let got = drive(&def, stream(4, 4));
        let vals: Vec<f64> = got
            .iter()
            .filter_map(|i| i.window().map(|w| w.as_scalar()))
            .collect();
        assert_eq!(vals, vec![5.0, 6.0, 9.0, 10.0]);
        let eols = got
            .iter()
            .filter(|i| matches!(i, Item::Control(ControlToken::EndOfLine)))
            .count();
        assert_eq!(eols, 2); // only kept rows carry EOL
    }

    #[test]
    fn asymmetric_margins() {
        let def = inset(
            Margins {
                left: 1,
                right: 0,
                top: 0,
                bottom: 1,
            },
            Dim2::new(3, 2),
        );
        let got = drive(&def, stream(3, 2));
        let vals: Vec<f64> = got
            .iter()
            .filter_map(|i| i.window().map(|w| w.as_scalar()))
            .collect();
        assert_eq!(vals, vec![1.0, 2.0]);
    }

    #[test]
    fn resets_at_frame_boundary() {
        let def = inset(Margins::uniform(1), Dim2::new(3, 3));
        let mut items = stream(3, 3);
        items.extend(stream(3, 3));
        let got = drive(&def, items);
        let vals: Vec<f64> = got
            .iter()
            .filter_map(|i| i.window().map(|w| w.as_scalar()))
            .collect();
        assert_eq!(vals, vec![4.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "non-empty interior")]
    fn rejects_degenerate_margins() {
        let _ = inset(Margins::uniform(2), Dim2::new(4, 4));
    }
}
