//! Untimed functional execution — the golden semantics.
//!
//! Fires sources one pixel at a time and drains the graph to quiescence in a
//! canonical (topological) node order, so results are deterministic. The
//! timing-accurate simulator reuses the same firing machinery, making the
//! two observationally equivalent on data.

use crate::runtime::Program;
use bp_core::graph::AppGraph;
use bp_core::{BpError, Result};

/// Safety cap on firings per drain to turn kernel bugs (e.g. a kernel that
/// re-emits its input forever) into errors instead of hangs.
const MAX_STEPS_PER_DRAIN: u64 = 200_000_000;

/// Deterministic untimed executor.
pub struct FunctionalExecutor {
    program: Program,
    order: Vec<usize>,
}

impl FunctionalExecutor {
    /// Instantiate the graph for functional execution.
    pub fn new(graph: &AppGraph) -> Result<Self> {
        let order = graph.topo_order()?.iter().map(|n| n.0).collect();
        let program = Program::instantiate(graph)?;
        Ok(Self { program, order })
    }

    /// Access the underlying program (e.g. for firing counts).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Run `frames` frames through every application input and drain to
    /// quiescence. Constants fire once before the first frame.
    pub fn run_frames(&mut self, frames: u32) -> Result<()> {
        let consts = self.program.tables.consts.clone();
        for (node, method) in consts {
            self.program.fire_source_method(node, method);
        }
        self.drain()?;
        let sources = self.program.tables.sources.clone();
        for _ in 0..frames {
            for s in &sources {
                let pixels = s.frame.area();
                for _ in 0..pixels {
                    self.program.fire_source_method(s.node, s.method);
                }
            }
            self.drain()?;
        }
        Ok(())
    }

    /// Items still queued after execution (0 for a fully-consumed run).
    pub fn residual_items(&self) -> usize {
        self.program.queued_items()
    }

    fn drain(&mut self) -> Result<()> {
        let mut steps: u64 = 0;
        loop {
            let mut progressed = false;
            for i in 0..self.order.len() {
                let node = self.order[i];
                while self.program.step_node(node) {
                    progressed = true;
                    steps += 1;
                    if steps > MAX_STEPS_PER_DRAIN {
                        return Err(BpError::Simulation(format!(
                            "functional drain exceeded {MAX_STEPS_PER_DRAIN} steps; \
                             a kernel is likely emitting unboundedly"
                        )));
                    }
                }
            }
            if !progressed {
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::item::{Item, Window};
    use bp_core::kernel::{Emitter, FireData, KernelBehavior, KernelDef, KernelSpec, NodeRole};
    use bp_core::method::{MethodCost, MethodSpec};
    use bp_core::port::{InputSpec, OutputSpec};
    use bp_core::token::{ControlToken, TokenKind};
    use bp_core::{Dim2, GraphBuilder};
    use std::sync::{Arc, Mutex};

    /// Minimal frame source: emits pixel values 0,1,2,... with EOL/EOF.
    struct TestSource {
        w: u32,
        h: u32,
        x: u32,
        y: u32,
        v: f64,
    }
    impl KernelBehavior for TestSource {
        fn fire(&mut self, _m: usize, _d: &FireData<'_>, out: &mut Emitter<'_>) {
            out.window("out", Window::scalar(self.v));
            self.v += 1.0;
            self.x += 1;
            if self.x == self.w {
                self.x = 0;
                out.token("out", ControlToken::EndOfLine);
                self.y += 1;
                if self.y == self.h {
                    self.y = 0;
                    out.token("out", ControlToken::EndOfFrame);
                }
            }
        }
    }

    fn test_source_def(w: u32, h: u32) -> KernelDef {
        KernelDef::new(
            KernelSpec::new("source")
                .with_role(NodeRole::Source)
                .output(OutputSpec::stream("out"))
                .method(MethodSpec::source(
                    "gen",
                    vec!["out".into()],
                    MethodCost::new(0, 0),
                )),
            move || TestSource {
                w,
                h,
                x: 0,
                y: 0,
                v: 0.0,
            },
        )
    }

    /// Doubles each sample; passes tokens through automatically.
    struct Doubler;
    impl KernelBehavior for Doubler {
        fn fire(&mut self, _m: usize, d: &FireData<'_>, out: &mut Emitter<'_>) {
            out.window("out", Window::scalar(d.window("in").as_scalar() * 2.0));
        }
    }

    fn doubler_def() -> KernelDef {
        KernelDef::new(
            KernelSpec::new("doubler")
                .input(InputSpec::stream("in"))
                .output(OutputSpec::stream("out"))
                .method(MethodSpec::on_data(
                    "run",
                    "in",
                    vec!["out".into()],
                    MethodCost::new(1, 0),
                )),
            || Doubler,
        )
    }

    /// Collects all received items into a shared store.
    struct Collector(Arc<Mutex<Vec<Item>>>);
    impl KernelBehavior for Collector {
        fn fire(&mut self, _m: usize, d: &FireData<'_>, _o: &mut Emitter<'_>) {
            self.0.lock().unwrap().push(d.item("in").clone());
        }
    }

    fn collector_def() -> (KernelDef, Arc<Mutex<Vec<Item>>>) {
        let store = Arc::new(Mutex::new(Vec::new()));
        let s2 = Arc::clone(&store);
        let def = KernelDef::new(
            KernelSpec::new("sink")
                .with_role(NodeRole::Sink)
                .input(InputSpec::stream("in"))
                .method(MethodSpec::on_data(
                    "take",
                    "in",
                    vec![],
                    MethodCost::new(0, 0),
                ))
                .method(MethodSpec::on_token(
                    "eol",
                    "in",
                    TokenKind::EndOfLine,
                    vec![],
                    MethodCost::new(0, 0),
                ))
                .method(MethodSpec::on_token(
                    "eof",
                    "in",
                    TokenKind::EndOfFrame,
                    vec![],
                    MethodCost::new(0, 0),
                )),
            move || Collector(Arc::clone(&s2)),
        );
        (def, store)
    }

    #[test]
    fn pipeline_doubles_and_orders_tokens() {
        let mut b = GraphBuilder::new();
        let src = b.add_source("Input", test_source_def(3, 2), Dim2::new(3, 2), 10.0);
        let k = b.add("Double", doubler_def());
        let (sdef, store) = collector_def();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", k, "in");
        b.connect(k, "out", snk, "in");
        let g = b.build().unwrap();

        let mut ex = FunctionalExecutor::new(&g).unwrap();
        ex.run_frames(1).unwrap();
        assert_eq!(ex.residual_items(), 0);

        let got = store.lock().unwrap();
        // 3 pixels, EOL, 3 pixels, EOL, EOF — doubled values.
        let datums: Vec<f64> = got
            .iter()
            .filter_map(|i| i.window().map(|w| w.as_scalar()))
            .collect();
        assert_eq!(datums, vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0]);
        // token positions: after pixel 3 and 6
        assert!(matches!(got[3], Item::Control(ControlToken::EndOfLine)));
        assert!(matches!(got[7], Item::Control(ControlToken::EndOfLine)));
        assert!(matches!(got[8], Item::Control(ControlToken::EndOfFrame)));
    }

    /// Subtract-style kernel consuming two inputs; tokens must synchronize.
    struct Sub;
    impl KernelBehavior for Sub {
        fn fire(&mut self, _m: usize, d: &FireData<'_>, out: &mut Emitter<'_>) {
            let a = d.window("in0").as_scalar();
            let b = d.window("in1").as_scalar();
            out.window("out", Window::scalar(a - b));
        }
    }

    #[test]
    fn two_input_kernel_forwards_tokens_once() {
        let sub_def = KernelDef::new(
            KernelSpec::new("sub")
                .input(InputSpec::stream("in0"))
                .input(InputSpec::stream("in1"))
                .output(OutputSpec::stream("out"))
                .method(MethodSpec::on_all_data(
                    "sub",
                    &["in0", "in1"],
                    vec!["out".into()],
                    MethodCost::new(2, 0),
                )),
            || Sub,
        );
        let mut b = GraphBuilder::new();
        let src = b.add_source("Input", test_source_def(2, 2), Dim2::new(2, 2), 10.0);
        let d1 = b.add("D1", doubler_def());
        let sub = b.add("Sub", sub_def);
        let (sdef, store) = collector_def();
        let snk = b.add("Out", sdef);
        // in0 = 2x, in1 = x  => out = x
        b.connect(src, "out", d1, "in");
        b.connect(d1, "out", sub, "in0");
        b.connect(src, "out", sub, "in1");
        b.connect(sub, "out", snk, "in");
        let g = b.build().unwrap();

        let mut ex = FunctionalExecutor::new(&g).unwrap();
        ex.run_frames(1).unwrap();
        let got = store.lock().unwrap();
        let datums: Vec<f64> = got
            .iter()
            .filter_map(|i| i.window().map(|w| w.as_scalar()))
            .collect();
        assert_eq!(datums, vec![0.0, 1.0, 2.0, 3.0]);
        // Exactly 2 EOLs and 1 EOF forwarded (not duplicated per input).
        let eols = got
            .iter()
            .filter(|i| matches!(i, Item::Control(ControlToken::EndOfLine)))
            .count();
        let eofs = got
            .iter()
            .filter(|i| matches!(i, Item::Control(ControlToken::EndOfFrame)))
            .count();
        assert_eq!(eols, 2);
        assert_eq!(eofs, 1);
        assert_eq!(ex.residual_items(), 0);
    }

    #[test]
    fn multi_frame_run_counts_firings() {
        let mut b = GraphBuilder::new();
        let src = b.add_source("Input", test_source_def(3, 2), Dim2::new(3, 2), 10.0);
        let k = b.add("Double", doubler_def());
        let (sdef, _store) = collector_def();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", k, "in");
        b.connect(k, "out", snk, "in");
        let g = b.build().unwrap();
        let mut ex = FunctionalExecutor::new(&g).unwrap();
        ex.run_frames(3).unwrap();
        let prog = ex.program();
        let k = prog.find("Double").unwrap();
        // 18 data firings + 6 EOL forwards + 3 EOF forwards
        assert_eq!(prog.nodes[k].firings, 18 + 9);
    }
}
