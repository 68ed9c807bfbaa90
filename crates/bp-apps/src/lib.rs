//! # bp-apps — the paper's benchmark applications and golden references
//!
//! The evaluation workloads of the paper (Fig. 13): Bayer demosaicing,
//! image histogram, the parallel-buffer and multiple-convolution tests, and
//! the Fig. 1(b) image-processing example at the Small/Big × Slow/Fast
//! scaling points of Fig. 11 — plus direct array-math reference models used
//! to verify that compiled graphs are bit-identical to the specification.

#![warn(missing_docs)]

pub mod apps;
pub mod noise;
pub mod presets;
pub mod reference;

pub use apps::{
    analytics, bayer, camera_bank, edge_detect, fig1b, fir_radio, histogram_app, multi_conv,
    parallel_buffer_test, stereo_diff, temporal_iir, App,
};
pub use noise::NoisePlan;
pub use presets::{
    examples, fig11_points, fig13_suite, BenchmarkCase, ScalePoint, BIG, FAST, SLOW, SMALL,
};
