//! Application inputs: frame sources and constant providers.

use bp_core::kernel::{Emitter, FireData, KernelBehavior, KernelDef, KernelSpec, NodeRole};
use bp_core::method::{MethodCost, MethodSpec};
use bp_core::port::OutputSpec;
use bp_core::token::ControlToken;
#[cfg(test)]
use bp_core::Item;
use bp_core::{Dim2, Window};
use std::sync::Arc;

/// Pixel generator: `(frame index, x, y) -> sample`.
pub type PixelGen = Arc<dyn Fn(u32, u32, u32) -> f64 + Send + Sync>;

struct FrameSourceBehavior {
    frame: Dim2,
    gen: PixelGen,
    f: u32,
    x: u32,
    y: u32,
}

impl KernelBehavior for FrameSourceBehavior {
    fn fire(&mut self, _m: usize, _d: &FireData<'_>, out: &mut Emitter<'_>) {
        out.window_at(0, Window::scalar((self.gen)(self.f, self.x, self.y)));
        self.x += 1;
        if self.x == self.frame.w {
            self.x = 0;
            out.token_at(0, ControlToken::EndOfLine);
            self.y += 1;
            if self.y == self.frame.h {
                self.y = 0;
                self.f += 1;
                out.token_at(0, ControlToken::EndOfFrame);
            }
        }
    }
}

/// An application input emitting `frame`-sized images pixel by pixel in
/// scan-line order, with automatic `EndOfLine`/`EndOfFrame` tokens (§II-C).
/// The scheduler paces firings according to the rate registered with
/// [`GraphBuilder::add_source`](bp_core::GraphBuilder::add_source).
pub fn frame_source(frame: Dim2, gen: PixelGen) -> KernelDef {
    let spec = KernelSpec::new("source")
        .with_role(NodeRole::Source)
        .output(OutputSpec::stream("out"))
        .method(MethodSpec::source(
            "generate",
            vec!["out".into()],
            MethodCost::new(0, 0),
        ));
    KernelDef::new(spec, move || FrameSourceBehavior {
        frame,
        gen: Arc::clone(&gen),
        f: 0,
        x: 0,
        y: 0,
    })
}

/// Convenience: a frame source producing a deterministic synthetic pattern
/// (distinct per frame, pixel, and position) — useful for tests and
/// benchmarks in place of camera data.
pub fn pattern_source(frame: Dim2) -> KernelDef {
    frame_source(
        frame,
        Arc::new(|f, x, y| ((f as f64) * 1000.0 + (y as f64) * 10.0 + x as f64) % 256.0),
    )
}

struct ConstSourceBehavior {
    window: Window,
}

impl KernelBehavior for ConstSourceBehavior {
    fn fire(&mut self, _m: usize, _d: &FireData<'_>, out: &mut Emitter<'_>) {
        out.window_at(0, self.window.clone());
    }
}

/// A constant provider (role [`NodeRole::Const`]) emitting `window` once at
/// startup — used for convolution coefficients and histogram bin bounds.
/// The paper draws these as separate kernels ("5x5 Coeff", "Hist Bins")
/// whose outputs are replicated, not split, under parallelization.
pub fn const_source(kind: &'static str, window: Window) -> KernelDef {
    let dim = window.dim();
    let spec = KernelSpec::new(kind)
        .with_role(NodeRole::Const)
        .output(OutputSpec::block("out", dim))
        .method(MethodSpec::source(
            "provide",
            vec!["out".into()],
            MethodCost::new(0, 0),
        ));
    KernelDef::new(spec, move || ConstSourceBehavior {
        window: window.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::fire;

    fn fire_once(def: &KernelDef, n: usize) -> Vec<Vec<(usize, Item)>> {
        let mut b = (def.factory)();
        (0..n)
            .map(|_| fire(def, &mut *b, "generate", vec![]))
            .collect()
    }

    #[test]
    fn source_emits_tokens_at_line_and_frame_ends() {
        let def = pattern_source(Dim2::new(2, 2));
        let fires = fire_once(&def, 4);
        assert_eq!(fires[0].len(), 1); // pixel only
        assert_eq!(fires[1].len(), 2); // pixel + EOL
        assert_eq!(fires[3].len(), 3); // pixel + EOL + EOF
        assert!(matches!(
            fires[3][2].1,
            Item::Control(ControlToken::EndOfFrame)
        ));
    }

    #[test]
    fn source_pattern_varies_per_frame() {
        let def = pattern_source(Dim2::new(1, 1));
        let mut b = (def.factory)();
        let mut vals = Vec::new();
        for _ in 0..3 {
            let items = fire(&def, &mut *b, "generate", vec![]);
            vals.push(items[0].1.window().unwrap().as_scalar());
        }
        assert_eq!(vals.len(), 3);
        assert_ne!(vals[0], vals[1]);
        assert_ne!(vals[1], vals[2]);
    }

    #[test]
    fn const_source_provides_its_window() {
        let w = Window::from_fn(Dim2::new(2, 2), |x, y| (x + y) as f64);
        let def = const_source("coeff", w.clone());
        let items = fire(&def, &mut *(def.factory)(), "provide", vec![]);
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].1.window().unwrap(), &w);
        assert_eq!(def.spec.role, NodeRole::Const);
    }
}
