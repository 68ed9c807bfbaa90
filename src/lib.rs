//! # block-parallel
//!
//! A Rust implementation of **block-parallel programming for real-time
//! embedded applications** (Black-Schaffer & Dally, ICPP 2010): a stream
//! programming model with two-dimensional windowed data, control tokens,
//! and explicit real-time rates; a compiler that automatically buffers,
//! aligns, parallelizes and maps applications to a many-core target; and a
//! timing-accurate simulator that verifies the real-time constraints.
//!
//! ```
//! use block_parallel::prelude::*;
//!
//! // Describe the application: a 3x3 median over a 20x12 input at 50 Hz.
//! let dim = Dim2::new(20, 12);
//! let mut b = GraphBuilder::new();
//! let src = b.add_source("Input", pattern_source(dim), dim, 50.0);
//! let med = b.add("Median", median(3, 3));
//! let (out_def, result) = sink();
//! let out = b.add("Out", out_def);
//! b.connect(src, "out", med, "in");
//! b.connect(med, "out", out, "in");
//! let app = b.build().unwrap();
//!
//! // Compile: buffering, alignment, parallelization, PE mapping.
//! let compiled = compile(&app, &CompileOptions::default()).unwrap();
//!
//! // Simulate with timing and verify the real-time constraint.
//! let report = TimedSimulator::new(&compiled.graph, &compiled.mapping, SimConfig::new(2))
//!     .unwrap()
//!     .run()
//!     .unwrap();
//! assert!(report.verdict.met);
//! assert_eq!(result.frame_count(), 2);
//! ```

pub use bp_apps as apps;
pub use bp_compiler as compiler;
pub use bp_core as core;
pub use bp_kernels as kernels;
pub use bp_serve as serve;
pub use bp_sim as sim;

/// Convenient single-import surface for applications.
pub mod prelude {
    pub use bp_compiler::{
        analyze, compile, summarize, to_dot, AlignPolicy, CompileOptions, MappingKind,
    };
    pub use bp_core::{
        AppGraph, CommModel, CommProfile, ControlToken, Dim2, GraphBuilder, Item, KernelBehavior,
        KernelDef, KernelSpec, MachineSpec, Mapping, NodeRole, Offset2, Parallelism, Step2,
        TokenKind, Window,
    };
    pub use bp_kernels::{
        absdiff, add, bayer_demosaic, box_coefficients, buffer, const_source, conv2d, downsample,
        feedback_frame, frame_source, histogram, histogram_merge, inset, median, pad,
        pattern_source, replicate, scale, sink, sobel, split_rr, subtract, threshold, uniform_bins,
        Margins, PadMode, SinkHandle,
    };
    pub use bp_sim::{
        chrome_trace_json, validate_json, Backend, CapacityBump, DeadlockHop, DeadlockReport,
        FunctionalExecutor, MetricsPolicy, MetricsTape, QosSpec, SimConfig, SimOutcome, SimReport,
        StallCause, TimedSimulator, Trace, TraceOptions,
    };
}
