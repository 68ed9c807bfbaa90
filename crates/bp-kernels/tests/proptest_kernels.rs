//! Property-based tests for the kernel library: buffers against a direct
//! sliding-window reference, split/join round trips, pad/inset inverses,
//! and windowed kernels against array math.
//!
//! Seeded randomized sweeps (hermetic replacement for the original
//! `proptest` strategies; same parameter ranges, fixed seeds).

use bp_core::kernel::{Emitter, FireData, KernelBehavior, KernelDef};
use bp_core::{ControlToken, Dim2, Item, Rng64, Step2, TriggerOn, Window};
use bp_kernels as k;
use std::collections::VecDeque;

/// Fire `def`'s method called `name` once on `consumed`, returning what it
/// emitted.
fn fire(
    def: &KernelDef,
    b: &mut dyn KernelBehavior,
    name: &str,
    consumed: Vec<(usize, Item)>,
) -> Vec<(usize, Item)> {
    let method = def.spec.method_index(name).expect("known method");
    let data = FireData::new(&def.spec, &consumed);
    let mut out = Emitter::new(&def.spec);
    b.fire(method, &data, &mut out);
    out.into_items()
}

/// Drive a single-input kernel over an item stream, dispatching each item
/// to the method its kind triggers on input 0 (mirrors the executor for
/// one node; an item no method takes would be auto-forwarded).
fn drive(def: &KernelDef, items: Vec<Item>) -> Vec<(usize, Item)> {
    let table = def.spec.method_table().expect("kernel spec resolves");
    let mut b = (def.factory)();
    let mut got = Vec::new();
    for item in items {
        let on = match &item {
            Item::Window(_) => TriggerOn::Data,
            Item::Control(t) => TriggerOn::Token(t.kind()),
        };
        let Some(method) = table.iter().position(|m| m.triggers == [(0, on)]) else {
            continue;
        };
        let consumed = [(0usize, item)];
        let data = FireData::new(&def.spec, &consumed);
        let mut out = Emitter::new(&def.spec);
        b.fire(method, &data, &mut out);
        got.extend(out.into_items());
    }
    got
}

/// Scan-line pixel stream for one frame of the given values.
fn pixel_stream(img: &[Vec<f64>]) -> Vec<Item> {
    let mut v = Vec::new();
    for row in img {
        for &p in row {
            v.push(Item::Window(Window::scalar(p)));
        }
        v.push(Item::Control(ControlToken::EndOfLine));
    }
    v.push(Item::Control(ControlToken::EndOfFrame));
    v
}

/// Random image with dimensions in [1, max_w] x [1, max_h], values in
/// [-100, 100).
fn random_image(rng: &mut Rng64, max_w: u32, max_h: u32) -> Vec<Vec<f64>> {
    let w = rng.gen_range_u32(1, max_w + 1) as usize;
    let h = rng.gen_range_u32(1, max_h + 1) as usize;
    (0..h)
        .map(|_| (0..w).map(|_| rng.gen_range_f64(-100.0, 100.0)).collect())
        .collect()
}

/// The buffer kernel produces exactly the sliding windows a direct
/// implementation computes, in scan order.
#[test]
fn buffer_matches_direct_sliding_windows() {
    let mut rng = Rng64::seed_from_u64(0xb001);
    let mut checked = 0;
    while checked < 64 {
        let img = random_image(&mut rng, 12, 10);
        let h = img.len() as u32;
        let w = img[0].len() as u32;
        let (cw, ch) = (rng.gen_range_u32(1, 5), rng.gen_range_u32(1, 5));
        let (sx, sy) = (rng.gen_range_u32(1, 3), rng.gen_range_u32(1, 3));
        if cw > w || ch > h || !(w - cw).is_multiple_of(sx) || !(h - ch).is_multiple_of(sy) {
            continue;
        }
        checked += 1;
        let def = k::buffer(
            Dim2::ONE,
            Dim2::new(cw, ch),
            Step2::new(sx, sy),
            Dim2::new(w, h),
        );
        let got = drive(&def, pixel_stream(&img));
        let windows: Vec<&Window> = got.iter().filter_map(|(_, i)| i.window()).collect();
        let iters_x = (w - cw) / sx + 1;
        let iters_y = (h - ch) / sy + 1;
        assert_eq!(windows.len() as u32, iters_x * iters_y);
        let mut idx = 0;
        for iy in 0..iters_y {
            for ix in 0..iters_x {
                let win = windows[idx];
                idx += 1;
                for y in 0..ch {
                    for x in 0..cw {
                        let gx = (ix * sx + x) as usize;
                        let gy = (iy * sy + y) as usize;
                        assert_eq!(win.get(x, y), img[gy][gx]);
                    }
                }
            }
        }
    }
}

/// split_rr then join_rr is the identity on any window stream with
/// frame boundaries.
#[test]
fn split_join_roundtrip_is_identity() {
    let mut rng = Rng64::seed_from_u64(0xb002);
    for _ in 0..64 {
        let n = rng.gen_index(59) + 1;
        let vals: Vec<f64> = (0..n).map(|_| rng.gen_range_f64(-50.0, 50.0)).collect();
        let kk = rng.gen_index(5) + 1;
        let split = k::split_rr(kk, Dim2::ONE);
        let join = k::join_rr(kk, Dim2::ONE);
        let mut items: Vec<Item> = vals
            .iter()
            .map(|v| Item::Window(Window::scalar(*v)))
            .collect();
        items.push(Item::Control(ControlToken::EndOfFrame));

        // Run the split.
        let mut branch: Vec<VecDeque<Item>> = vec![VecDeque::new(); kk];
        for (port, it) in drive(&split, items) {
            branch[port].push_back(it);
        }

        // Run the join with trigger matching and the FSM gate.
        let table = join.spec.method_table().unwrap();
        let mut jb = (join.factory)();
        let mut collected = Vec::new();
        loop {
            let heads_match = |mi: usize| {
                let triggers = table.method(mi).triggers;
                triggers.iter().all(|&(p, on)| match branch[p].front() {
                    Some(Item::Window(_)) => on == TriggerOn::Data,
                    Some(Item::Control(tok)) => on == TriggerOn::Token(tok.kind()),
                    None => false,
                })
            };
            let Some(mi) = (0..table.len()).find(|&mi| heads_match(mi) && jb.ready(mi)) else {
                break;
            };
            let consumed: Vec<(usize, Item)> = table
                .method(mi)
                .triggers
                .iter()
                .map(|&(p, _)| (p, branch[p].pop_front().unwrap()))
                .collect();
            let data = FireData::new(&join.spec, &consumed);
            let mut out = Emitter::new(&join.spec);
            jb.fire(mi, &data, &mut out);
            collected.extend(out.into_items().into_iter().map(|(_, i)| i));
        }
        let got: Vec<f64> = collected
            .iter()
            .filter_map(|i| i.window().map(|w| w.as_scalar()))
            .collect();
        assert_eq!(got, vals);
        // Everything consumed and exactly one EOF re-emitted.
        assert!(branch.iter().all(|q| q.is_empty()));
        let eofs = collected
            .iter()
            .filter(|i| matches!(i, Item::Control(ControlToken::EndOfFrame)))
            .count();
        assert_eq!(eofs, 1);
    }
}

/// Zero-padding then trimming by the same margins is the identity.
#[test]
fn pad_then_inset_is_identity() {
    let mut rng = Rng64::seed_from_u64(0xb003);
    for _ in 0..64 {
        let img = random_image(&mut rng, 8, 6);
        let m = rng.gen_range_u32(1, 3);
        let h = img.len() as u32;
        let w = img[0].len() as u32;
        let pad = k::pad(k::Margins::uniform(m), k::PadMode::Zero, Dim2::new(w, h));
        let padded = drive(&pad, pixel_stream(&img));
        let padded_items: Vec<Item> = padded.into_iter().map(|(_, i)| i).collect();
        let inset = k::inset(k::Margins::uniform(m), Dim2::new(w + 2 * m, h + 2 * m));
        let restored = drive(&inset, padded_items);
        let got: Vec<f64> = restored
            .iter()
            .filter_map(|(_, i)| i.window().map(|w| w.as_scalar()))
            .collect();
        let expect: Vec<f64> = img.iter().flatten().copied().collect();
        assert_eq!(got, expect);
    }
}

/// Mirror padding preserves every interior sample and mirrors edges.
#[test]
fn mirror_pad_interior_is_untouched() {
    let mut rng = Rng64::seed_from_u64(0xb004);
    let mut checked = 0;
    while checked < 64 {
        let img = random_image(&mut rng, 6, 5);
        let m = rng.gen_range_u32(1, 3);
        let h = img.len() as u32;
        let w = img[0].len() as u32;
        if m > w || m > h {
            continue;
        }
        checked += 1;
        let pad = k::pad(k::Margins::uniform(m), k::PadMode::Mirror, Dim2::new(w, h));
        let out = drive(&pad, pixel_stream(&img));
        // Reassemble rows.
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut cur = Vec::new();
        for (_, i) in &out {
            match i {
                Item::Window(win) => cur.push(win.as_scalar()),
                Item::Control(ControlToken::EndOfLine) => rows.push(std::mem::take(&mut cur)),
                _ => {}
            }
        }
        assert_eq!(rows.len() as u32, h + 2 * m);
        for y in 0..h as usize {
            for x in 0..w as usize {
                assert_eq!(rows[y + m as usize][x + m as usize], img[y][x]);
            }
        }
        // Left edge mirrors column 0.
        for y in 0..h as usize {
            assert_eq!(rows[y + m as usize][m as usize - 1], img[y][0]);
        }
    }
}

/// The median never exceeds the window extrema (and equals the direct
/// selection).
#[test]
fn median_is_order_statistic() {
    let mut rng = Rng64::seed_from_u64(0xb005);
    for _ in 0..64 {
        let vals: Vec<f64> = (0..9).map(|_| rng.gen_range_f64(-1000.0, 1000.0)).collect();
        let def = k::median(3, 3);
        let input = Item::Window(Window::from_vec(Dim2::new(3, 3), vals.clone()));
        let out = fire(&def, &mut *(def.factory)(), "runMedian", vec![(0, input)]);
        let got = out[0].1.window().unwrap().as_scalar();
        let mut sorted = vals.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(got, sorted[4]);
    }
}

/// Convolution is linear: conv(a*x) == a*conv(x).
#[test]
fn convolution_is_linear() {
    let mut rng = Rng64::seed_from_u64(0xb006);
    for _ in 0..64 {
        let vals: Vec<f64> = (0..25).map(|_| rng.gen_range_f64(-10.0, 10.0)).collect();
        let scale = rng.gen_range_f64(-4.0, 4.0);
        let def = k::conv2d(5, 5);
        let fire_with = |input: Vec<f64>| -> f64 {
            let b = &mut *(def.factory)();
            let coeff = Item::Window(k::box_coefficients(5, 5));
            fire(&def, b, "loadCoeff", vec![(1, coeff)]);
            let input = Item::Window(Window::from_vec(Dim2::new(5, 5), input));
            let out = fire(&def, b, "runConvolve", vec![(0, input)]);
            out[0].1.window().unwrap().as_scalar()
        };
        let base = fire_with(vals.clone());
        let scaled = fire_with(vals.iter().map(|v| v * scale).collect());
        assert!((scaled - base * scale).abs() < 1e-9 * (1.0 + base.abs()));
    }
}
