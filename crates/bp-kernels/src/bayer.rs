//! Bayer demosaicing kernel — benchmark 1 of the paper's evaluation
//! (Fig. 13). Bilinear interpolation over an RGGB color filter array,
//! producing three outputs (R, G, B planes) from one input — a natural use
//! of the model's multiple outputs per kernel.
//!
//! The kernel processes a 2×2 CFA *quad* per iteration using a 4×4 window
//! advancing by (2,2). Because the step matches the CFA period, every
//! iteration sees the same phase pattern, making the kernel stateless and
//! therefore safely data-parallel under round-robin replication — a
//! position-*tracking* formulation (3×3 window, unit step) would carry
//! order-dependent state and would have to be declared serial.

use bp_core::kernel::{Emitter, FireData, KernelBehavior, KernelDef, KernelSpec};
use bp_core::method::{MethodCost, MethodSpec};
use bp_core::port::{InputSpec, OutputSpec};
use bp_core::{Dim2, Offset2, Step2, Window};

#[derive(Default)]
struct BayerBehavior;

/// `site` over the flat row-major 4×4 slice (index `wy*4 + wx`), with the
/// exact operand order of the window-accessor version so both paths produce
/// bit-identical interpolants.
#[inline]
fn site_flat(s: &[f64], wx: usize, wy: usize) -> (f64, f64, f64) {
    let i = wy * 4 + wx;
    let c = s[i];
    let edges = (s[i - 1] + s[i + 1] + s[i - 4] + s[i + 4]) / 4.0;
    let corners = (s[i - 5] + s[i - 3] + s[i + 3] + s[i + 5]) / 4.0;
    let horiz = (s[i - 1] + s[i + 1]) / 2.0;
    let vert = (s[i - 4] + s[i + 4]) / 2.0;
    match (wx % 2, wy % 2) {
        (0, 0) => (c, edges, corners), // red site (RGGB)
        (1, 0) => (horiz, c, vert),    // green on red row
        (0, 1) => (vert, c, horiz),    // green on blue row
        _ => (corners, edges, c),      // blue site
    }
}

/// One demosaic firing over a flat 4×4 slice: the three 2×2 quads in
/// row-major order, exactly as the scalar body's `set(qx, qy, ..)` loop
/// lays them out.
#[inline]
fn demosaic_quads(s: &[f64]) -> ([f64; 4], [f64; 4], [f64; 4]) {
    let mut r = [0.0; 4];
    let mut g = [0.0; 4];
    let mut b = [0.0; 4];
    for qy in 0..2 {
        for qx in 0..2 {
            let (rv, gv, bv) = site_flat(s, qx + 1, qy + 1);
            r[qy * 2 + qx] = rv;
            g[qy * 2 + qx] = gv;
            b[qy * 2 + qx] = bv;
        }
    }
    (r, g, b)
}

/// Interpolate one site. `wx, wy` are the sample's coordinates inside the
/// 4×4 window (1 or 2); global parity equals window parity because the
/// window origin is always even.
fn site(w: &Window, wx: u32, wy: u32) -> (f64, f64, f64) {
    let c = w.get(wx, wy);
    let edges =
        (w.get(wx - 1, wy) + w.get(wx + 1, wy) + w.get(wx, wy - 1) + w.get(wx, wy + 1)) / 4.0;
    let corners = (w.get(wx - 1, wy - 1)
        + w.get(wx + 1, wy - 1)
        + w.get(wx - 1, wy + 1)
        + w.get(wx + 1, wy + 1))
        / 4.0;
    let horiz = (w.get(wx - 1, wy) + w.get(wx + 1, wy)) / 2.0;
    let vert = (w.get(wx, wy - 1) + w.get(wx, wy + 1)) / 2.0;
    match (wx % 2, wy % 2) {
        (0, 0) => (c, edges, corners), // red site (RGGB)
        (1, 0) => (horiz, c, vert),    // green on red row
        (0, 1) => (vert, c, horiz),    // green on blue row
        _ => (corners, edges, c),      // blue site
    }
}

impl KernelBehavior for BayerBehavior {
    fn fire(&mut self, _m: &str, d: &FireData<'_>, out: &mut Emitter<'_>) {
        let w = d.window("in");
        let dim = Dim2::new(2, 2);
        let mut r = Window::zeros(dim);
        let mut g = Window::zeros(dim);
        let mut b = Window::zeros(dim);
        for qy in 0..2 {
            for qx in 0..2 {
                let (rv, gv, bv) = site(w, qx + 1, qy + 1);
                r.set(qx, qy, rv);
                g.set(qx, qy, gv);
                b.set(qx, qy, bv);
            }
        }
        out.window("r", r);
        out.window("g", g);
        out.window("b", b);
    }

    fn fire_fast(&mut self, method: usize, d: &FireData<'_>, out: &mut Emitter<'_>) -> bool {
        if method != 0 {
            return false;
        }
        let (r, g, b) = demosaic_quads(d.window_at(0).samples());
        let dim = Dim2::new(2, 2);
        out.window_at(0, Window::from_slice(dim, &r));
        out.window_at(1, Window::from_slice(dim, &g));
        out.window_at(2, Window::from_slice(dim, &b));
        true
    }

    fn ready_fast(&self, _method: usize) -> Option<bool> {
        Some(true)
    }
}

/// Bilinear RGGB demosaic: 4×4 window, step (2,2), producing 2×2 blocks on
/// each of the `r`, `g`, `b` outputs. Control tokens pass through
/// automatically.
pub fn bayer_demosaic() -> KernelDef {
    let spec = KernelSpec::new("bayer")
        .input(
            InputSpec::windowed("in", Dim2::new(4, 4), Step2::new(2, 2))
                .with_offset(Offset2::new(1.0, 1.0)),
        )
        .output(OutputSpec::block("r", Dim2::new(2, 2)))
        .output(OutputSpec::block("g", Dim2::new(2, 2)))
        .output(OutputSpec::block("b", Dim2::new(2, 2)))
        .method(MethodSpec::on_data(
            "demosaic",
            "in",
            vec!["r".into(), "g".into(), "b".into()],
            MethodCost::new(120, 16),
        ));
    KernelDef::new(spec, BayerBehavior::default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::Item;

    fn fire_window(def: &KernelDef, w: Window) -> Vec<(usize, Item)> {
        let mut b = (def.factory)();
        let consumed = vec![(0usize, Item::Window(w))];
        let data = FireData::new(&def.spec, &consumed);
        let mut out = Emitter::new(&def.spec);
        b.fire("demosaic", &data, &mut out);
        out.into_items()
    }

    #[test]
    fn emits_one_quad_per_plane() {
        let def = bayer_demosaic();
        let items = fire_window(&def, Window::filled(Dim2::new(4, 4), 3.0));
        assert_eq!(items.len(), 3);
        for (_, item) in &items {
            let w = item.window().unwrap();
            assert_eq!(w.dim(), Dim2::new(2, 2));
        }
    }

    #[test]
    fn gray_world_stays_gray() {
        // On a constant CFA, every site reproduces the constant in all
        // three channels.
        let def = bayer_demosaic();
        let items = fire_window(&def, Window::filled(Dim2::new(4, 4), 7.5));
        for (_, item) in items {
            for &v in item.window().unwrap().samples() {
                assert_eq!(v, 7.5);
            }
        }
    }

    #[test]
    fn quad_sites_follow_rggb() {
        // Window valued y*10 + x (linear): bilinear interpolation of a
        // linear image reproduces the center value at every site.
        let def = bayer_demosaic();
        let w = Window::from_fn(Dim2::new(4, 4), |x, y| (y * 10 + x) as f64);
        let items = fire_window(&def, w);
        for (_, item) in items {
            let q = item.window().unwrap();
            assert_eq!(q.get(0, 0), 11.0);
            assert_eq!(q.get(1, 0), 12.0);
            assert_eq!(q.get(0, 1), 21.0);
            assert_eq!(q.get(1, 1), 22.0);
        }
    }

    #[test]
    fn spec_is_quad_parameterized() {
        let def = bayer_demosaic();
        let i = &def.spec.inputs[0];
        assert_eq!(i.size, Dim2::new(4, 4));
        assert_eq!(i.step, Step2::new(2, 2));
        assert_eq!(i.offset, Offset2::new(1.0, 1.0));
        assert_eq!(def.spec.outputs.len(), 3);
    }
}
