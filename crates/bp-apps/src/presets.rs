//! Evaluation configurations: the Small/Big × Slow/Fast scaling points of
//! Fig. 11 and the eleven-benchmark suite of Fig. 13.
//!
//! Sizes and rates are ours (the paper does not publish them); they are
//! tuned so the running example reproduces the paper's replica counts —
//! see DESIGN.md §6. All rates are hard real-time constraints.

use crate::apps::{self, App};
use bp_core::Dim2;

/// The "Small" frame: 20×12 pixels.
pub const SMALL: Dim2 = Dim2::new(20, 12);
/// The "Big" frame: 40×24 pixels (forces buffer splitting at 320-word PEs).
pub const BIG: Dim2 = Dim2::new(40, 24);
/// The "Slow" rate: 50 frames per second.
pub const SLOW: f64 = 50.0;
/// The "Fast" rate: 200 frames per second.
pub const FAST: f64 = 200.0;

/// One scaling point for the Fig. 11 experiment.
#[derive(Clone, Copy, Debug)]
pub struct ScalePoint {
    /// Paper label ("Small/Slow" …).
    pub label: &'static str,
    /// Frame size.
    pub dim: Dim2,
    /// Frame rate.
    pub rate_hz: f64,
}

/// The four scaling points of Fig. 11 (a–d).
pub fn fig11_points() -> [ScalePoint; 4] {
    [
        ScalePoint {
            label: "Small/Slow",
            dim: SMALL,
            rate_hz: SLOW,
        },
        ScalePoint {
            label: "Big/Slow",
            dim: BIG,
            rate_hz: SLOW,
        },
        ScalePoint {
            label: "Small/Fast",
            dim: SMALL,
            rate_hz: FAST,
        },
        ScalePoint {
            label: "Big/Fast",
            dim: BIG,
            rate_hz: FAST,
        },
    ]
}

/// One benchmark of the Fig. 13 utilization experiment.
pub struct BenchmarkCase {
    /// Paper label ("1", "1F", …, "SS", …, "5").
    pub label: &'static str,
    /// What it is.
    pub description: &'static str,
    /// Build the source application.
    pub build: fn() -> App,
}

/// An example application's name and its builder.
pub type Example = (&'static str, fn() -> App);

/// The eleven example applications, by name, at the reference
/// configuration the golden suites pin: SMALL/SLOW, except where an app
/// needs a shape of its own.
pub fn examples() -> [Example; 11] {
    [
        ("fig1b", || apps::fig1b(SMALL, SLOW)),
        ("bayer", || apps::bayer(SMALL, SLOW)),
        ("histogram", || apps::histogram_app(SMALL, SLOW, 32)),
        ("parallel_buffer", || {
            apps::parallel_buffer_test(Dim2::new(64, 12), 10.0)
        }),
        ("multi_conv", || apps::multi_conv(SMALL, SLOW, 3)),
        ("temporal_iir", || apps::temporal_iir(SMALL, SLOW)),
        ("fir_radio", || apps::fir_radio(72, 100.0)),
        ("edge_detect", || apps::edge_detect(SMALL, SLOW, 0.5)),
        ("analytics", || apps::analytics(SMALL, SLOW)),
        ("stereo_diff", || apps::stereo_diff(SMALL, SLOW)),
        ("camera_bank", || apps::camera_bank(3, SMALL, SLOW)),
    ]
}

/// The eleven benchmarks of Fig. 13, in the paper's order:
/// 1 & 1F: Bayer demosaicing at baseline and faster input rates;
/// 2 & 2F: image histogram at baseline and faster rates;
/// 3: parallel buffer test; 4: multiple convolutions test;
/// SS/SF/BS/BF: the image-processing example at the four scaling points;
/// 5: the application from Fig. 1(b) at its reference configuration.
pub fn fig13_suite() -> Vec<BenchmarkCase> {
    vec![
        BenchmarkCase {
            label: "1",
            description: "Bayer demosaicing, baseline rate",
            build: || apps::bayer(SMALL, SLOW),
        },
        BenchmarkCase {
            label: "1F",
            description: "Bayer demosaicing, faster rate",
            build: || apps::bayer(SMALL, FAST),
        },
        BenchmarkCase {
            label: "2",
            description: "Image histogram, baseline rate",
            build: || apps::histogram_app(SMALL, SLOW, 32),
        },
        BenchmarkCase {
            label: "2F",
            description: "Image histogram, faster rate",
            build: || apps::histogram_app(SMALL, FAST, 32),
        },
        BenchmarkCase {
            label: "3",
            description: "Parallel buffer test",
            build: || apps::parallel_buffer_test(Dim2::new(64, 12), 20.0),
        },
        BenchmarkCase {
            label: "4",
            description: "Multiple convolutions test",
            build: || apps::multi_conv(SMALL, SLOW, 3),
        },
        BenchmarkCase {
            label: "SS",
            description: "Image processing example, small/slow",
            build: || apps::fig1b(SMALL, SLOW),
        },
        BenchmarkCase {
            label: "SF",
            description: "Image processing example, small/fast",
            build: || apps::fig1b(SMALL, FAST),
        },
        BenchmarkCase {
            label: "BS",
            description: "Image processing example, big/slow",
            build: || apps::fig1b(BIG, SLOW),
        },
        BenchmarkCase {
            label: "BF",
            description: "Image processing example, big/fast",
            build: || apps::fig1b(BIG, FAST),
        },
        BenchmarkCase {
            label: "5",
            description: "Application from Fig. 1(b), reference configuration",
            build: || apps::fig1b(SMALL, 100.0),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_eleven_benchmarks() {
        let suite = fig13_suite();
        assert_eq!(suite.len(), 11);
        let labels: Vec<&str> = suite.iter().map(|b| b.label).collect();
        assert_eq!(
            labels,
            vec!["1", "1F", "2", "2F", "3", "4", "SS", "SF", "BS", "BF", "5"]
        );
    }

    #[test]
    fn every_benchmark_builds_and_validates() {
        for case in fig13_suite() {
            let app = (case.build)();
            app.graph.validate().unwrap();
        }
    }

    #[test]
    fn fig11_points_cover_the_grid() {
        let pts = fig11_points();
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0].dim, SMALL);
        assert_eq!(pts[3].dim, BIG);
        assert_eq!(pts[3].rate_hz, FAST);
    }
}
