//! The benchmark applications of the paper's evaluation (Fig. 13), written
//! exactly as a programmer would: no buffers, no splits — the compiler
//! inserts all plumbing.
//!
//! The builders hand back their graph unvalidated: the structure is fixed
//! here (`all_apps_validate` holds it), and what the caller chooses — frame
//! size and rate — is checked where every graph is, by `compile` and by each
//! simulator on entry, so a bad `--rate` is a typed error, not a panic.

use bp_core::graph::{AppGraph, NodeId};
use bp_core::{Dim2, GraphBuilder};
use bp_kernels as k;
use std::sync::Arc;

/// A built application plus its observable outputs.
pub struct App {
    /// The source graph (uncompiled).
    pub graph: AppGraph,
    /// Output handles, one per sink, labeled.
    pub sinks: Vec<(String, k::SinkHandle)>,
    /// The application input node.
    pub input: NodeId,
}

fn pattern_gen() -> k::PixelGen {
    Arc::new(crate::reference::pattern_pixel)
}

/// The paper's running example (Fig. 1(b)): median and convolution paths
/// into a per-pixel subtract, then a histogram with a serial merge limited
/// by a data-dependency edge from the input.
pub fn fig1b(dim: Dim2, rate_hz: f64) -> App {
    let mut b = GraphBuilder::new();
    let src = b.add_source("Input", k::frame_source(dim, pattern_gen()), dim, rate_hz);
    let med = b.add("3x3 Median", k::median(3, 3));
    let conv = b.add("5x5 Conv", k::conv2d(5, 5));
    let coeff = b.add(
        "5x5 Coeff",
        k::const_source("coeff", k::box_coefficients(5, 5)),
    );
    let sub = b.add("Subtract", k::subtract());
    let hist = b.add("Histogram", k::histogram(32));
    let bins = b.add(
        "Hist Bins",
        k::const_source("bins", k::uniform_bins(32, -128.0, 128.0)),
    );
    let merge = b.add("Merge", k::histogram_merge(32));
    let (sdef, handle) = k::sink();
    let snk = b.add("result", sdef);
    b.connect(src, "out", med, "in");
    b.connect(src, "out", conv, "in");
    b.connect(coeff, "out", conv, "coeff");
    b.connect(med, "out", sub, "in0");
    b.connect(conv, "out", sub, "in1");
    b.connect(sub, "out", hist, "in");
    b.connect(bins, "out", hist, "bins");
    b.connect(hist, "out", merge, "in");
    b.connect(merge, "out", snk, "in");
    b.dep_edge(src, merge);
    App {
        graph: b.build_unchecked(),
        sinks: vec![("result".into(), handle)],
        input: src,
    }
}

/// Benchmark 1: Bayer demosaicing — one CFA input, three color-plane
/// outputs (uses the model's multiple outputs per kernel).
pub fn bayer(dim: Dim2, rate_hz: f64) -> App {
    let mut b = GraphBuilder::new();
    let src = b.add_source("Input", k::frame_source(dim, pattern_gen()), dim, rate_hz);
    let dem = b.add("Demosaic", k::bayer_demosaic());
    let (rs, rh) = k::sink();
    let (gs, gh) = k::sink();
    let (bs, bh) = k::sink();
    let ro = b.add("R", rs);
    let go = b.add("G", gs);
    let bo = b.add("B", bs);
    b.connect(src, "out", dem, "in");
    b.connect(dem, "r", ro, "in");
    b.connect(dem, "g", go, "in");
    b.connect(dem, "b", bo, "in");
    App {
        graph: b.build_unchecked(),
        sinks: vec![("r".into(), rh), ("g".into(), gh), ("b".into(), bh)],
        input: src,
    }
}

/// Benchmark 2: image histogram with serial merge.
pub fn histogram_app(dim: Dim2, rate_hz: f64, bins: u32) -> App {
    let mut b = GraphBuilder::new();
    let src = b.add_source("Input", k::frame_source(dim, pattern_gen()), dim, rate_hz);
    let hist = b.add("Histogram", k::histogram(bins));
    let bn = b.add(
        "Hist Bins",
        k::const_source("bins", k::uniform_bins(bins, 0.0, 256.0)),
    );
    let merge = b.add("Merge", k::histogram_merge(bins));
    let (sdef, handle) = k::sink();
    let snk = b.add("result", sdef);
    b.connect(src, "out", hist, "in");
    b.connect(bn, "out", hist, "bins");
    b.connect(hist, "out", merge, "in");
    b.connect(merge, "out", snk, "in");
    b.dep_edge(src, merge);
    App {
        graph: b.build_unchecked(),
        sinks: vec![("result".into(), handle)],
        input: src,
    }
}

/// Benchmark 3: parallel buffer test — a wide frame through a single 5×5
/// convolution, so the line buffer exceeds one PE's storage and must be
/// split column-wise (Fig. 10).
pub fn parallel_buffer_test(dim: Dim2, rate_hz: f64) -> App {
    let mut b = GraphBuilder::new();
    let src = b.add_source("Input", k::frame_source(dim, pattern_gen()), dim, rate_hz);
    let conv = b.add("5x5 Conv", k::conv2d(5, 5));
    let coeff = b.add(
        "5x5 Coeff",
        k::const_source("coeff", k::box_coefficients(5, 5)),
    );
    let (sdef, handle) = k::sink();
    let snk = b.add("result", sdef);
    b.connect(src, "out", conv, "in");
    b.connect(coeff, "out", conv, "coeff");
    b.connect(conv, "out", snk, "in");
    App {
        graph: b.build_unchecked(),
        sinks: vec![("result".into(), handle)],
        input: src,
    }
}

/// Benchmark 4: multiple convolutions — a pipeline of 3×3 convolutions
/// (each with its own coefficients), exercising pipeline parallelism and
/// repeated re-buffering between stages.
pub fn multi_conv(dim: Dim2, rate_hz: f64, stages: usize) -> App {
    assert!(stages >= 1);
    let mut b = GraphBuilder::new();
    let src = b.add_source("Input", k::frame_source(dim, pattern_gen()), dim, rate_hz);
    let mut prev = src;
    let mut prev_port = "out".to_string();
    for s in 0..stages {
        let conv = b.add(format!("3x3 Conv{s}"), k::conv2d(3, 3));
        let coeff = b.add(
            format!("Coeff{s}"),
            k::const_source("coeff", k::binomial_coefficients(3)),
        );
        b.connect(prev, &prev_port, conv, "in");
        b.connect(coeff, "out", conv, "coeff");
        prev = conv;
        prev_port = "out".into();
    }
    let (sdef, handle) = k::sink();
    let snk = b.add("result", sdef);
    b.connect(prev, "out", snk, "in");
    App {
        graph: b.build_unchecked(),
        sinks: vec![("result".into(), handle)],
        input: src,
    }
}

/// A temporal feedback application (§III-D): each output frame is the
/// average of the input frame and the previous output frame
/// (`out = 0.5·in + 0.5·prev`), with the loop primed to zero.
pub fn temporal_iir(dim: Dim2, rate_hz: f64) -> App {
    let mut b = GraphBuilder::new();
    let src = b.add_source("Input", k::frame_source(dim, pattern_gen()), dim, rate_hz);
    let mix = b.add("Mix", k::add());
    let half = b.add("Half", k::scale(0.5, 0.0));
    let fb = b.add("FrameDelay", k::feedback_frame(dim, 0.0));
    let (sdef, handle) = k::sink();
    let snk = b.add("result", sdef);
    b.connect(src, "out", mix, "in0");
    b.connect(fb, "out", mix, "in1");
    b.connect(mix, "out", half, "in");
    b.connect(half, "out", fb, "in");
    b.connect(half, "out", snk, "in");
    App {
        graph: b.build_unchecked(),
        sinks: vec![("result".into(), handle)],
        input: src,
    }
}

/// A one-dimensional radio-style chain (§II-A's "without inhibiting
/// one-dimensional signal handling"): `samples`×1 frames through a 9-tap
/// low-pass FIR and a decimate-by-4 stage.
pub fn fir_radio(samples: u32, rate_hz: f64) -> App {
    assert!(
        samples > 8 && (samples - 8).is_multiple_of(4),
        "FIR output must tile the decimator"
    );
    let dim = Dim2::new(samples, 1);
    let mut b = GraphBuilder::new();
    let src = b.add_source("Input", k::frame_source(dim, pattern_gen()), dim, rate_hz);
    let f = b.add("FIR", k::fir(9));
    let taps = b.add("Taps", k::const_source("taps", k::lowpass_taps(9)));
    let dec = b.add("Decimate", k::decimate(4));
    let (sdef, handle) = k::sink();
    let snk = b.add("result", sdef);
    b.connect(src, "out", f, "in");
    b.connect(taps, "out", f, "taps");
    b.connect(f, "out", dec, "in");
    b.connect(dec, "out", snk, "in");
    App {
        graph: b.build_unchecked(),
        sinks: vec![("result".into(), handle)],
        input: src,
    }
}

/// A binary edge-detection pipeline: median denoise, Sobel gradient
/// magnitude, then thresholding.
pub fn edge_detect(dim: Dim2, rate_hz: f64, level: f64) -> App {
    let mut b = GraphBuilder::new();
    let src = b.add_source("Input", k::frame_source(dim, pattern_gen()), dim, rate_hz);
    let med = b.add("Median", k::median(3, 3));
    let sob = b.add("Sobel", k::sobel());
    let thr = b.add("Threshold", k::threshold(level));
    let (sdef, handle) = k::sink();
    let snk = b.add("result", sdef);
    b.connect(src, "out", med, "in");
    b.connect(med, "out", sob, "in");
    b.connect(sob, "out", thr, "in");
    b.connect(thr, "out", snk, "in");
    App {
        graph: b.build_unchecked(),
        sinks: vec![("result".into(), handle)],
        input: src,
    }
}

/// A two-input application: per-pixel absolute difference of two
/// independent camera-style sources at the same rate, histogrammed per
/// frame — exercising multiple application inputs (the model allows any
/// number, each with its own rate constraint).
pub fn stereo_diff(dim: Dim2, rate_hz: f64) -> App {
    let mut b = GraphBuilder::new();
    let left = b.add_source("Left", k::frame_source(dim, pattern_gen()), dim, rate_hz);
    let right = b.add_source(
        "Right",
        k::frame_source(
            dim,
            Arc::new(|f, x, y| crate::reference::pattern_pixel(f, x, y) * 0.5 + 7.0),
        ),
        dim,
        rate_hz,
    );
    let diff = b.add("Diff", k::absdiff());
    let hist = b.add("Histogram", k::histogram(16));
    let bins = b.add(
        "Bins",
        k::const_source("bins", k::uniform_bins(16, 0.0, 160.0)),
    );
    let merge = b.add("Merge", k::histogram_merge(16));
    let (sdef, handle) = k::sink();
    let snk = b.add("result", sdef);
    b.connect(left, "out", diff, "in0");
    b.connect(right, "out", diff, "in1");
    b.connect(diff, "out", hist, "in");
    b.connect(bins, "out", hist, "bins");
    b.connect(hist, "out", merge, "in");
    b.connect(merge, "out", snk, "in");
    b.dep_edge(left, merge);
    App {
        graph: b.build_unchecked(),
        sinks: vec![("result".into(), handle)],
        input: left,
    }
}

/// A composite video-analytics pipeline exercising the model at the scale
/// the paper quotes ("more than 50 kernels" after compilation): a denoise
/// stage fans out into an edge-detection branch (Sobel + threshold +
/// histogram) and a smoothing branch (5×5 conv), whose per-pixel difference
/// feeds a second histogram; both histograms merge serially per frame.
pub fn analytics(dim: Dim2, rate_hz: f64) -> App {
    let mut b = GraphBuilder::new();
    let src = b.add_source("Input", k::frame_source(dim, pattern_gen()), dim, rate_hz);
    let den = b.add("Denoise", k::median(3, 3));

    // Edge branch.
    let sob = b.add("Sobel", k::sobel());
    let thr = b.add("Threshold", k::threshold(20.0));
    let ehist = b.add("EdgeHist", k::histogram(16));
    let ebins = b.add(
        "EdgeBins",
        k::const_source("bins", k::uniform_bins(16, 0.0, 2.0)),
    );
    let emerge = b.add("EdgeMerge", k::histogram_merge(16));

    // Texture branch: smoothed vs denoised difference.
    let conv = b.add("Smooth", k::conv2d(5, 5));
    let coeff = b.add(
        "SmoothCoeff",
        k::const_source("coeff", k::box_coefficients(5, 5)),
    );
    let diff = b.add("Detail", k::absdiff());
    let thist = b.add("DetailHist", k::histogram(16));
    let tbins = b.add(
        "DetailBins",
        k::const_source("bins", k::uniform_bins(16, 0.0, 64.0)),
    );
    let tmerge = b.add("DetailMerge", k::histogram_merge(16));

    let (es, eh) = k::sink();
    let (ts, th) = k::sink();
    let eout = b.add("edges", es);
    let tout = b.add("detail", ts);

    b.connect(src, "out", den, "in");
    b.connect(den, "out", sob, "in");
    b.connect(sob, "out", thr, "in");
    b.connect(thr, "out", ehist, "in");
    b.connect(ebins, "out", ehist, "bins");
    b.connect(ehist, "out", emerge, "in");
    b.connect(emerge, "out", eout, "in");

    b.connect(den, "out", conv, "in");
    b.connect(coeff, "out", conv, "coeff");
    b.connect(den, "out", diff, "in0");
    b.connect(conv, "out", diff, "in1");
    b.connect(diff, "out", thist, "in");
    b.connect(tbins, "out", thist, "bins");
    b.connect(thist, "out", tmerge, "in");
    b.connect(tmerge, "out", tout, "in");

    b.dep_edge(src, emerge);
    b.dep_edge(src, tmerge);
    App {
        graph: b.build_unchecked(),
        sinks: vec![("edges".into(), eh), ("detail".into(), th)],
        input: src,
    }
}

/// A bank of `cameras` independent Fig. 1(b) pipelines, one per input
/// camera: no channel or dependency edge crosses between pipelines. This is
/// the many-camera surveillance shape the paper's scaling argument targets,
/// and the working-set stress workload for the timed engine (one PE per
/// kernel gives it eight times fig1b's event population).
pub fn camera_bank(cameras: usize, dim: Dim2, rate_hz: f64) -> App {
    assert!(cameras >= 1);
    let mut b = GraphBuilder::new();
    let mut sinks = Vec::with_capacity(cameras);
    let mut first_input = None;
    for cam in 0..cameras {
        let src = b.add_source(
            format!("Cam{cam}"),
            k::frame_source(dim, pattern_gen()),
            dim,
            rate_hz,
        );
        first_input.get_or_insert(src);
        let med = b.add(format!("3x3 Median{cam}"), k::median(3, 3));
        let conv = b.add(format!("5x5 Conv{cam}"), k::conv2d(5, 5));
        let coeff = b.add(
            format!("5x5 Coeff{cam}"),
            k::const_source("coeff", k::box_coefficients(5, 5)),
        );
        let sub = b.add(format!("Subtract{cam}"), k::subtract());
        let hist = b.add(format!("Histogram{cam}"), k::histogram(32));
        let bins = b.add(
            format!("Hist Bins{cam}"),
            k::const_source("bins", k::uniform_bins(32, -128.0, 128.0)),
        );
        let merge = b.add(format!("Merge{cam}"), k::histogram_merge(32));
        let (sdef, handle) = k::sink();
        let snk = b.add(format!("cam{cam}"), sdef);
        b.connect(src, "out", med, "in");
        b.connect(src, "out", conv, "in");
        b.connect(coeff, "out", conv, "coeff");
        b.connect(med, "out", sub, "in0");
        b.connect(conv, "out", sub, "in1");
        b.connect(sub, "out", hist, "in");
        b.connect(bins, "out", hist, "bins");
        b.connect(hist, "out", merge, "in");
        b.connect(merge, "out", snk, "in");
        b.dep_edge(src, merge);
        sinks.push((format!("cam{cam}"), handle));
    }
    App {
        graph: b.build_unchecked(),
        sinks,
        input: first_input.expect("at least one camera"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_apps_validate() {
        let dim = Dim2::new(20, 12);
        for app in [
            fig1b(dim, 50.0),
            bayer(dim, 50.0),
            histogram_app(dim, 50.0, 32),
            parallel_buffer_test(Dim2::new(64, 12), 10.0),
            multi_conv(dim, 50.0, 3),
            temporal_iir(dim, 50.0),
            fir_radio(72, 100.0),
            edge_detect(dim, 50.0, 20.0),
            analytics(dim, 50.0),
            stereo_diff(dim, 50.0),
            camera_bank(3, dim, 50.0),
        ] {
            app.graph.validate().unwrap();
            assert!(!app.sinks.is_empty());
        }
    }

    #[test]
    fn fig1b_has_dep_edge() {
        let app = fig1b(Dim2::new(20, 12), 50.0);
        assert_eq!(app.graph.dep_edges().len(), 1);
    }
}
