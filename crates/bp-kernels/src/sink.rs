//! Application outputs: sinks collecting the result stream for inspection.

use bp_core::kernel::{Emitter, FireData, KernelBehavior, KernelDef, KernelSpec, NodeRole};
use bp_core::method::{MethodCost, MethodSpec};
use bp_core::port::InputSpec;
use bp_core::token::{ControlToken, TokenKind};
use bp_core::Item;
use bp_core::Window;
use std::sync::{Arc, Mutex};

/// Shared handle to everything a sink received, in arrival order.
#[derive(Clone, Default)]
pub struct SinkHandle {
    items: Arc<Mutex<Vec<Item>>>,
}

impl SinkHandle {
    /// All received items (windows and tokens), in order.
    pub fn items(&self) -> Vec<Item> {
        self.items.lock().unwrap().clone()
    }

    /// All received data samples flattened, in order.
    pub fn samples(&self) -> Vec<f64> {
        self.items
            .lock()
            .unwrap()
            .iter()
            .filter_map(|i| i.window().map(|w| w.samples().to_vec()))
            .flatten()
            .collect()
    }

    /// Received samples grouped per frame (split at `EndOfFrame`).
    pub fn frames(&self) -> Vec<Vec<f64>> {
        let mut frames = Vec::new();
        let mut cur = Vec::new();
        for item in self.items.lock().unwrap().iter() {
            match item {
                Item::Window(w) => cur.extend_from_slice(w.samples()),
                Item::Control(ControlToken::EndOfFrame) => {
                    frames.push(std::mem::take(&mut cur));
                }
                Item::Control(_) => {}
            }
        }
        frames
    }

    /// Received samples grouped per frame and per row (split at `EndOfLine`
    /// within frames). Useful for reassembling images.
    pub fn frame_rows(&self) -> Vec<Vec<Vec<f64>>> {
        let mut frames = Vec::new();
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut cur: Vec<f64> = Vec::new();
        for item in self.items.lock().unwrap().iter() {
            match item {
                Item::Window(w) => cur.extend_from_slice(w.samples()),
                Item::Control(ControlToken::EndOfLine) => {
                    rows.push(std::mem::take(&mut cur));
                }
                Item::Control(ControlToken::EndOfFrame) => {
                    if !cur.is_empty() {
                        rows.push(std::mem::take(&mut cur));
                    }
                    frames.push(std::mem::take(&mut rows));
                }
                Item::Control(ControlToken::Custom(_)) => {}
            }
        }
        frames
    }

    /// Received data windows grouped per frame and per window row (split at
    /// `EndOfLine` within frames) — for reassembling images from kernels
    /// that emit multi-row blocks.
    pub fn frame_window_rows(&self) -> Vec<Vec<Vec<Window>>> {
        let mut frames = Vec::new();
        let mut rows: Vec<Vec<Window>> = Vec::new();
        let mut cur: Vec<Window> = Vec::new();
        for item in self.items.lock().unwrap().iter() {
            match item {
                Item::Window(w) => cur.push(w.clone()),
                Item::Control(ControlToken::EndOfLine) => {
                    rows.push(std::mem::take(&mut cur));
                }
                Item::Control(ControlToken::EndOfFrame) => {
                    if !cur.is_empty() {
                        rows.push(std::mem::take(&mut cur));
                    }
                    frames.push(std::mem::take(&mut rows));
                }
                Item::Control(ControlToken::Custom(_)) => {}
            }
        }
        frames
    }

    /// Number of complete frames received.
    pub fn frame_count(&self) -> usize {
        self.items
            .lock()
            .unwrap()
            .iter()
            .filter(|i| matches!(i, Item::Control(ControlToken::EndOfFrame)))
            .count()
    }

    /// Discard everything collected so far.
    pub fn clear(&self) {
        self.items.lock().unwrap().clear();
    }
}

struct SinkBehavior {
    handle: SinkHandle,
}

impl KernelBehavior for SinkBehavior {
    fn fire(&mut self, _m: usize, d: &FireData<'_>, _out: &mut Emitter<'_>) {
        self.handle.items.lock().unwrap().push(d.item_at(0).clone());
    }
}

/// An application output: collects every arriving item (data and tokens)
/// into the returned [`SinkHandle`]. Sinks accept any grain and are never
/// parallelized or buffered by the compiler.
pub fn sink() -> (KernelDef, SinkHandle) {
    let handle = SinkHandle::default();
    let h2 = handle.clone();
    let spec = KernelSpec::new("sink")
        .with_role(NodeRole::Sink)
        .with_parallelism(bp_core::Parallelism::Serial)
        .input(InputSpec::stream("in"))
        .method(MethodSpec::on_data(
            "take",
            "in",
            vec![],
            MethodCost::new(0, 0),
        ))
        .method(MethodSpec::on_token(
            "takeEol",
            "in",
            TokenKind::EndOfLine,
            vec![],
            MethodCost::new(0, 0),
        ))
        .method(MethodSpec::on_token(
            "takeEof",
            "in",
            TokenKind::EndOfFrame,
            vec![],
            MethodCost::new(0, 0),
        ));
    let def = KernelDef::new(spec, move || SinkBehavior { handle: h2.clone() });
    (def, handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::{Dim2, Window};

    fn feed(def: &KernelDef, items: Vec<Item>) {
        crate::testing::drive(def, items);
    }

    #[test]
    fn handle_groups_frames_and_rows() {
        let (def, handle) = sink();
        feed(
            &def,
            vec![
                Item::Window(Window::scalar(1.0)),
                Item::Window(Window::scalar(2.0)),
                Item::Control(ControlToken::EndOfLine),
                Item::Window(Window::scalar(3.0)),
                Item::Window(Window::scalar(4.0)),
                Item::Control(ControlToken::EndOfLine),
                Item::Control(ControlToken::EndOfFrame),
                Item::Window(Window::scalar(9.0)),
                Item::Control(ControlToken::EndOfFrame),
            ],
        );
        assert_eq!(handle.samples(), vec![1.0, 2.0, 3.0, 4.0, 9.0]);
        assert_eq!(handle.frames(), vec![vec![1.0, 2.0, 3.0, 4.0], vec![9.0]]);
        let rows = handle.frame_rows();
        assert_eq!(rows[0], vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(rows[1], vec![vec![9.0]]);
        assert_eq!(handle.frame_count(), 2);
        handle.clear();
        assert!(handle.items().is_empty());
    }

    #[test]
    fn multi_sample_windows_flatten_in_order() {
        let (def, handle) = sink();
        let w = Window::from_fn(Dim2::new(2, 1), |x, _| x as f64 + 10.0);
        feed(
            &def,
            vec![Item::Window(w), Item::Control(ControlToken::EndOfFrame)],
        );
        assert_eq!(handle.frames(), vec![vec![10.0, 11.0]]);
    }
}
