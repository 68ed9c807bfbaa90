//! Writing your own kernels: a two-kernel auto-exposure chain showing the
//! programmer-facing API — multiple methods sharing private state, handlers
//! for the automatic end-of-frame token, and a *user-defined* control token
//! with a declared maximum rate (§II-C).
//!
//! `MeanDetector` passes pixels through while accumulating a per-frame
//! mean; when the mean exceeds a threshold it emits an `OVEREXPOSED`
//! control token (in order with the data). `AdaptiveGain` scales pixels and
//! halves its gain whenever that token arrives — control and data
//! processing stay separate methods but communicate through kernel state.
//!
//! Methods are declared by name in the spec and dispatched by *index*: a
//! behavior's `fire` (and `ready`, when overridden) receives the method's
//! position in registration order, which each kernel below names with
//! `const`s beside its spec. Ports may still be addressed by name
//! (`d.window("in")`, `out.window("out", …)`).
//!
//! Port, method and kind names are `bp_core::Name`s (`Cow<'static, str>`):
//! the string literals below are borrowed, not copied; a `String` built at
//! run time (`format!("in{i}")`) is moved in; and a borrowed `&str` that is
//! not `'static` needs `.to_owned()`. A method's output (and trigger) list
//! is a `Cow` too: `vec![…]` converts into it, and a `'static` slice such
//! as `OUT` below is borrowed instead of allocated per method.
//!
//! Run with: `cargo run --example custom_kernel`

use block_parallel::prelude::*;
use bp_core::method::{MethodCost, MethodSpec};
use bp_core::port::{InputSpec, OutputSpec};
use bp_core::token::CustomTokenDecl;
use bp_core::{Emitter, FireData, Name};

/// Token id for the over-exposure flag.
const OVEREXPOSED: u16 = 1;

// `mean_detector`'s methods, in registration order.
const PASS: usize = 0;
const END_FRAME: usize = 1;

struct MeanDetector {
    threshold: f64,
    sum: f64,
    count: u64,
}

impl KernelBehavior for MeanDetector {
    fn fire(&mut self, method: usize, d: &FireData<'_>, out: &mut Emitter<'_>) {
        match method {
            PASS => {
                let v = d.window("in").as_scalar();
                self.sum += v;
                self.count += 1;
                out.window("out", Window::scalar(v));
            }
            END_FRAME => {
                let mean = if self.count > 0 {
                    self.sum / self.count as f64
                } else {
                    0.0
                };
                if mean > self.threshold {
                    // Emitted in order, before the end-of-frame.
                    out.token("out", ControlToken::Custom(OVEREXPOSED));
                }
                out.token("out", ControlToken::EndOfFrame);
                self.sum = 0.0;
                self.count = 0;
            }
            other => unreachable!("mean detector has no method {other}"),
        }
    }
}

/// The one output both of the detector's methods write, borrowed by each.
static OUT: [Name; 1] = [Name::Borrowed("out")];

fn mean_detector(threshold: f64, frame_rate_hz: f64) -> KernelDef {
    let spec = KernelSpec::new("mean_detector")
        .with_parallelism(Parallelism::Serial) // cross-frame accumulator
        .input(InputSpec::stream("in"))
        .output(OutputSpec::stream("out"))
        .method(MethodSpec::on_data(
            "pass",
            "in",
            &OUT[..],
            MethodCost::new(3, 2),
        ))
        .method(MethodSpec::on_token(
            "endFrame",
            "in",
            TokenKind::EndOfFrame,
            &OUT[..],
            MethodCost::new(8, 2),
        ))
        // Declare the custom token and its statically bounded rate so the
        // compiler can budget cycles for downstream handlers.
        .custom_token(CustomTokenDecl {
            id: OVEREXPOSED,
            name: "OVEREXPOSED".into(),
            max_rate_hz: frame_rate_hz,
        })
        .with_state_words(2);
    KernelDef::new(spec, move || MeanDetector {
        threshold,
        sum: 0.0,
        count: 0,
    })
}

// `adaptive_gain`'s methods, in registration order.
const APPLY: usize = 0;
const ON_OVEREXPOSED: usize = 1;

struct AdaptiveGain {
    gain: f64,
    adjustments: u32,
}

impl KernelBehavior for AdaptiveGain {
    fn fire(&mut self, method: usize, d: &FireData<'_>, out: &mut Emitter<'_>) {
        match method {
            APPLY => {
                let v = d.window("in").as_scalar();
                out.window("out", Window::scalar(v * self.gain));
            }
            ON_OVEREXPOSED => {
                self.gain *= 0.5;
                self.adjustments += 1;
            }
            other => unreachable!("adaptive gain has no method {other}"),
        }
    }
}

fn adaptive_gain(frame_rate_hz: f64) -> KernelDef {
    let spec = KernelSpec::new("adaptive_gain")
        .with_parallelism(Parallelism::Serial) // gain persists across frames
        .input(InputSpec::stream("in"))
        .output(OutputSpec::stream("out"))
        .method(MethodSpec::on_data(
            "apply",
            "in",
            vec!["out".into()],
            MethodCost::new(4, 1),
        ))
        .method(
            MethodSpec::on_token(
                "onOverexposed",
                "in",
                TokenKind::Custom(OVEREXPOSED),
                vec![],
                MethodCost::new(2, 1),
            )
            .with_max_rate(frame_rate_hz),
        )
        .with_state_words(2);
    KernelDef::new(spec, move || AdaptiveGain {
        gain: 1.0,
        adjustments: 0,
    })
}

fn main() {
    let dim = Dim2::new(8, 6);
    let rate = 30.0;
    let mut b = GraphBuilder::new();
    // Frames get brighter over time, so later frames trip the detector.
    let src = b.add_source(
        "Input",
        frame_source(
            dim,
            std::sync::Arc::new(|f, x, y| (f * 40) as f64 + (y * 8 + x) as f64 * 0.25),
        ),
        dim,
        rate,
    );
    let det = b.add("Detector", mean_detector(100.0, rate));
    let agc = b.add("AGC", adaptive_gain(rate));
    let (sdef, result) = sink();
    let out = b.add("Out", sdef);
    b.connect(src, "out", det, "in");
    b.connect(det, "out", agc, "in");
    b.connect(agc, "out", out, "in");
    let app = b.build().expect("valid graph");

    let compiled = compile(&app, &CompileOptions::default()).expect("compiles");
    println!("{}", summarize(&compiled));

    let report = TimedSimulator::new(&compiled.graph, &compiled.mapping, SimConfig::new(6))
        .expect("instantiate")
        .run()
        .expect("simulate");
    assert!(report.verdict.met);

    // Frames 0..2 have mean < 100 (gain 1.0); from frame 3 on the detector
    // fires each frame and the gain halves: 0.5, 0.25, 0.125.
    println!("per-frame first sample (gain visible in the scaling):");
    for (f, frame) in result.frames().iter().enumerate() {
        println!(
            "  frame {f}: first={:>8.3} mean={:>8.3}",
            frame[0],
            frame.iter().sum::<f64>() / frame.len() as f64
        );
    }
    let frames = result.frames();
    assert_eq!(frames[0][0], 0.0);
    // Frame 3 was emitted with gain still 1.0? No: the token precedes the
    // next frame's data, so frame 4 is the first scaled one. Verify the
    // last frame is scaled down by at least 4x relative to unscaled input.
    let unscaled_first = (5u32 * 40) as f64;
    assert!(frames[5][0] < unscaled_first / 2.0);
    println!("\nadaptive gain reacted to the OVEREXPOSED control token as expected.");
}
