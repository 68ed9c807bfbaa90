//! Kernel definitions: static specification plus executable behavior.
//!
//! A kernel is described by a [`KernelSpec`] — its parameterized inputs and
//! outputs, registered methods, resource costs, and parallelization class —
//! and brought to life by a [`KernelBehavior`], the method bodies. Behaviors
//! are produced by a factory so that the compiler can replicate a kernel and
//! every replica gets fresh private state.

use crate::error::{BpError, Result};
use crate::geometry::Dim2;
use crate::item::{Item, Window};
use crate::method::{BadName, MethodSpec, MethodTable, NameList};
use crate::port::{InputSpec, Name, OutputSpec};
use crate::token::{ControlToken, CustomTokenDecl};
use std::sync::{Arc, OnceLock};

/// The structural role a node plays in the application graph. User kernels
/// are written by the programmer; the remaining roles are inserted by the
/// compiler's transformation passes and treated specially by later passes
/// (e.g. buffers parallelize by column splitting, sources are never
/// multiplexed with other kernels).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeRole {
    /// A programmer-written computation kernel.
    User,
    /// An application input (frame source).
    Source,
    /// An application output collector.
    Sink,
    /// A constant/coefficient provider.
    Const,
    /// A compiler-inserted 2-D circular buffer (§III-B).
    Buffer,
    /// A round-robin or column-wise data distributor (§IV).
    Split,
    /// The matching in-order collector (§IV).
    Join,
    /// Fan-out copy for replicated inputs (§IV-A).
    Replicate,
    /// Trim kernel discarding halo rows/columns (§III-C).
    Inset,
    /// Padding kernel enlarging data with zeros or mirrored samples (§III-C).
    Pad,
    /// Feedback-loop breaker providing initial values (§III-D).
    Feedback,
}

impl NodeRole {
    /// Every role, in declaration order (`role as usize` indexes it).
    pub const ALL: [NodeRole; 11] = [
        NodeRole::User,
        NodeRole::Source,
        NodeRole::Sink,
        NodeRole::Const,
        NodeRole::Buffer,
        NodeRole::Split,
        NodeRole::Join,
        NodeRole::Replicate,
        NodeRole::Inset,
        NodeRole::Pad,
        NodeRole::Feedback,
    ];

    /// True for compiler-inserted plumbing (everything except user kernels,
    /// sources, sinks and constants).
    pub fn is_plumbing(&self) -> bool {
        matches!(
            self,
            NodeRole::Buffer
                | NodeRole::Split
                | NodeRole::Join
                | NodeRole::Replicate
                | NodeRole::Inset
                | NodeRole::Pad
        )
    }
}

/// How a node transforms the *logical* data shape flowing through it, used
/// by the data-flow analysis (§III-A).
///
/// Most kernels are [`Windowed`](ShapeTransform::Windowed): their iteration
/// grid follows from their input parameterization and the output shape is
/// `iterations × output size`. Compiler-inserted plumbing (buffers,
/// split/join, replicate) re-grains or re-routes the stream without changing
/// the logical image, and trim/pad kernels change the shape by explicit
/// margins.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ShapeTransform {
    /// Output shape = iteration grid × output size (the default).
    Windowed,
    /// Logical shape passes through unchanged (split/join, replicate).
    Transparent,
    /// Logical output shape is a construction-time constant — used by
    /// buffers (which know the data extent they were sized for) and by
    /// column-group joins (which reassemble the full extent from narrowed
    /// branches).
    Fixed {
        /// The constant logical extent.
        data: Dim2,
    },
    /// Trim margins off the logical shape (inset kernels, §III-C).
    Crop {
        /// Columns removed at the left edge.
        left: u32,
        /// Columns removed at the right edge.
        right: u32,
        /// Rows removed at the top edge.
        top: u32,
        /// Rows removed at the bottom edge.
        bottom: u32,
    },
    /// Add margins to the logical shape (pad kernels, §III-C).
    Pad {
        /// Columns added at the left edge.
        left: u32,
        /// Columns added at the right edge.
        right: u32,
        /// Rows added at the top edge.
        top: u32,
        /// Rows added at the bottom edge.
        bottom: u32,
    },
}

/// How a kernel may be parallelized (§IV).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Parallelism {
    /// Fully data parallel: replicate behind round-robin split/join.
    DataParallel,
    /// Serial: never replicated (state carries across iterations in an
    /// order-dependent way), e.g. the histogram merge.
    Serial,
    /// Storage-bound buffer: parallelized by column-wise splitting with halo
    /// replication (§IV-C, Fig. 10) rather than by round-robin.
    ColumnSplit,
}

/// Static description of a kernel.
#[derive(Clone, Debug)]
pub struct KernelSpec {
    /// Kernel type name (e.g. `"conv2d"`), for reports and diagnostics.
    pub kind: Name,
    /// Structural role of the node.
    pub role: NodeRole,
    /// Parameterized inputs.
    pub inputs: Vec<InputSpec>,
    /// Parameterized outputs.
    pub outputs: Vec<OutputSpec>,
    /// Registered methods.
    pub methods: Vec<MethodSpec>,
    /// Parallelization class.
    pub parallelism: Parallelism,
    /// Persistent private state in words (in addition to per-method working
    /// memory), e.g. the coefficient array or histogram bins.
    pub state_words: u64,
    /// User-defined control tokens this kernel may emit (§II-C).
    pub custom_tokens: Vec<CustomTokenDecl>,
    /// How the node transforms the logical data shape (§III-A).
    pub shape: ShapeTransform,
    /// Items this kernel's initialization primes into its output channels
    /// before any input arrives (§III-D feedback kernels emit one frame of
    /// initial values). This is the loop population the capacity derivation
    /// (`bp_core::capacity`) must make room for; 0 for ordinary kernels.
    pub initial_tokens: u64,
    /// [`method_table`](Self::method_table)'s result, kept with the spec.
    resolved: ResolvedCache,
}

/// The spec's resolve-once slot. A *clone* of a spec starts unresolved:
/// cloning is how a shared spec gets edited (see [`KernelDef::map_spec`]),
/// and the edit must not inherit a table resolved from the old fields.
#[derive(Default)]
struct ResolvedCache(OnceLock<std::result::Result<Arc<MethodTable>, BadName>>);

impl Clone for ResolvedCache {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl std::fmt::Debug for ResolvedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.get().is_some() {
            "resolved"
        } else {
            "unresolved"
        })
    }
}

impl KernelSpec {
    /// A new user kernel spec with the given type name.
    pub fn new(kind: impl Into<Name>) -> Self {
        Self {
            kind: kind.into(),
            role: NodeRole::User,
            inputs: Vec::new(),
            outputs: Vec::new(),
            methods: Vec::new(),
            parallelism: Parallelism::DataParallel,
            state_words: 0,
            custom_tokens: Vec::new(),
            shape: ShapeTransform::Windowed,
            initial_tokens: 0,
            resolved: ResolvedCache::default(),
        }
    }

    /// Set the node role.
    pub fn with_role(mut self, role: NodeRole) -> Self {
        self.role = role;
        self
    }

    /// Add an input.
    pub fn input(mut self, i: InputSpec) -> Self {
        push_exact(&mut self.inputs, i);
        self
    }

    /// Add an output.
    pub fn output(mut self, o: OutputSpec) -> Self {
        push_exact(&mut self.outputs, o);
        self
    }

    /// Register a method.
    pub fn method(mut self, m: MethodSpec) -> Self {
        push_exact(&mut self.methods, m);
        self
    }

    /// Set the parallelization class.
    pub fn with_parallelism(mut self, p: Parallelism) -> Self {
        self.parallelism = p;
        self
    }

    /// Set the persistent state footprint.
    pub fn with_state_words(mut self, words: u64) -> Self {
        self.state_words = words;
        self
    }

    /// Declare a custom control token.
    pub fn custom_token(mut self, decl: CustomTokenDecl) -> Self {
        self.custom_tokens.push(decl);
        self
    }

    /// Set the logical shape transform.
    pub fn with_shape(mut self, shape: ShapeTransform) -> Self {
        self.shape = shape;
        self
    }

    /// Declare how many items this kernel's initialization primes into its
    /// outputs before any input arrives (the feedback-loop population).
    pub fn with_initial_tokens(mut self, items: u64) -> Self {
        self.initial_tokens = items;
        self
    }

    /// The spec with the growth slack of its port and method lists given
    /// back: what a definition keeps, since a shared spec never grows again
    /// and outlives the builder that pushed it together.
    fn trimmed(mut self) -> Self {
        self.inputs.shrink_to_fit();
        self.outputs.shrink_to_fit();
        self.methods.shrink_to_fit();
        self
    }

    /// Index of the input port with the given name.
    pub fn input_index(&self, name: &str) -> Option<usize> {
        self.inputs.iter().position(|i| i.name == name)
    }

    /// Index of the output port with the given name.
    pub fn output_index(&self, name: &str) -> Option<usize> {
        self.outputs.iter().position(|o| o.name == name)
    }

    /// Index of the method with the given name.
    pub fn method_index(&self, name: &str) -> Option<usize> {
        self.methods.iter().position(|m| m.name == name)
    }

    /// The methods with every port name resolved to an index: the one place
    /// names become indices for execution and analysis. Resolved in a single
    /// pass on first use and kept with the spec, so every node, replica and
    /// simulator sharing this spec shares one table. Two inputs, two
    /// outputs or two methods of one name are a [`BpError::Validation`]
    /// naming kernel, list and name; a method that triggers on an unknown
    /// input or writes an unknown output is one naming kernel, method and
    /// port.
    ///
    /// A spec is immutable once shared (it lives behind the `Arc` of a
    /// [`KernelDef`]); to change one, edit a clone — which starts
    /// unresolved — as [`KernelDef::map_spec`] does.
    pub fn method_table(&self) -> Result<&Arc<MethodTable>> {
        self.method_table_of(format_args!("kernel '{}'", self.kind))
    }

    /// [`method_table`](Self::method_table), naming `owner` (a node, where
    /// the caller has one) in the error.
    pub(crate) fn method_table_of(
        &self,
        owner: std::fmt::Arguments<'_>,
    ) -> Result<&Arc<MethodTable>> {
        let resolved = self.resolved.0.get_or_init(|| {
            MethodTable::resolve(&self.methods, &self.inputs, &self.outputs).map(Arc::new)
        });
        resolved.as_ref().map_err(|e| {
            BpError::Validation(match *e {
                BadName::Repeated { list, index } => {
                    let (list, name) = match list {
                        NameList::Input => ("inputs", &self.inputs[index as usize].name),
                        NameList::Output => ("outputs", &self.outputs[index as usize].name),
                        NameList::Method => ("methods", &self.methods[index as usize].name),
                    };
                    format!("{owner} has two {list} named '{name}'")
                }
                BadName::Unknown {
                    method,
                    index,
                    output,
                } => {
                    let m = &self.methods[method as usize];
                    if output {
                        let port = &m.outputs[index as usize];
                        format!(
                            "method '{}' of {owner} writes unknown output '{port}'",
                            m.name
                        )
                    } else {
                        let port = &m.triggers[index as usize].input;
                        format!(
                            "method '{}' of {owner} triggers on unknown input '{port}'",
                            m.name
                        )
                    }
                }
            })
        })
    }

    /// Total memory footprint of one instance: persistent state plus the
    /// maximum working memory over all methods, plus the implicit one-
    /// iteration I/O buffers on every port (§II-A).
    pub fn memory_words(&self) -> u64 {
        let working = self
            .methods
            .iter()
            .map(|m| m.cost.memory_words)
            .max()
            .unwrap_or(0);
        let io: u64 = self
            .inputs
            .iter()
            .map(|i| i.size.area())
            .chain(self.outputs.iter().map(|o| o.size.area()))
            .sum();
        self.state_words + working + io
    }

    /// The worst-case cycles of any single method, used for coarse estimates.
    pub fn max_method_cycles(&self) -> u64 {
        self.methods
            .iter()
            .map(|m| m.cost.cycles)
            .max()
            .unwrap_or(0)
    }
}

/// Push onto one of a spec's lists, growing it by exactly one entry. A
/// builder adds a handful of ports and methods and a definition keeps the
/// list for good, so amortized growth would only leave slack for
/// [`KernelDef::new`] to give back in a second allocation; grown exactly,
/// a list of one — most of them — is one allocation and has none.
fn push_exact<T>(list: &mut Vec<T>, item: T) {
    list.reserve_exact(1);
    list.push(item);
}

/// Items consumed by one method firing, keyed by input port index.
pub struct FireData<'a> {
    items: &'a [(usize, Item)],
    spec: &'a KernelSpec,
}

impl<'a> FireData<'a> {
    /// Build from consumed `(input index, item)` pairs.
    pub fn new(spec: &'a KernelSpec, items: &'a [(usize, Item)]) -> Self {
        Self { items, spec }
    }

    /// The consumed item on the named input: [`item_at`](Self::item_at)
    /// after resolving the port name, for kernels written against names.
    /// Panics if the kernel has no such input or the input was not part of
    /// this firing's trigger set — that is an executor bug.
    pub fn item(&self, input: &str) -> &Item {
        let idx = self
            .spec
            .input_index(input)
            .unwrap_or_else(|| panic!("kernel {} has no input {input}", self.spec.kind));
        self.item_at(idx)
    }

    /// The consumed data window on the named input. Panics if the firing
    /// consumed a control token there.
    pub fn window(&self, input: &str) -> &Window {
        self.item(input)
            .window()
            .unwrap_or_else(|| panic!("input {input} received a control token, not data"))
    }

    /// The consumed control token on the named input.
    pub fn token(&self, input: &str) -> ControlToken {
        self.item(input)
            .control()
            .unwrap_or_else(|| panic!("input {input} received data, not a control token"))
    }

    /// Raw consumed `(input index, item)` pairs.
    pub fn raw(&self) -> &[(usize, Item)] {
        self.items
    }

    /// The consumed item on the input with the given index (its position
    /// in [`KernelSpec::inputs`]). Panics if the input was not part of this
    /// firing's trigger set.
    #[inline]
    pub fn item_at(&self, input_idx: usize) -> &Item {
        self.items
            .iter()
            .find(|(i, _)| *i == input_idx)
            .map(|(_, it)| it)
            .unwrap_or_else(|| panic!("input index {input_idx} was not consumed by this firing"))
    }

    /// The consumed data window on the input with the given index.
    #[inline]
    pub fn window_at(&self, input_idx: usize) -> &Window {
        self.item_at(input_idx)
            .window()
            .unwrap_or_else(|| panic!("input index {input_idx} received a control token, not data"))
    }

    /// The consumed control token on the input with the given index.
    #[inline]
    pub fn token_at(&self, input_idx: usize) -> ControlToken {
        self.item_at(input_idx)
            .control()
            .unwrap_or_else(|| panic!("input index {input_idx} received data, not a control token"))
    }
}

/// Collects items emitted by one method firing, keyed by output port index
/// (its position in [`KernelSpec::outputs`]). Every emission is checked
/// against the kernel's output count: an out-of-range index panics naming
/// the kernel and the port instead of reaching another node's route.
pub struct Emitter<'a> {
    spec: &'a KernelSpec,
    emitted: Vec<(usize, Item)>,
    actual_cycles: Option<u64>,
}

impl<'a> Emitter<'a> {
    /// New empty emitter for a kernel.
    pub fn new(spec: &'a KernelSpec) -> Self {
        Self::with_buffer(spec, Vec::new())
    }

    /// New emitter backed by a recycled buffer, so steady-state firing
    /// reuses one allocation per node instead of allocating per firing.
    /// The buffer is cleared; [`into_parts`](Self::into_parts) returns it.
    pub fn with_buffer(spec: &'a KernelSpec, mut buf: Vec<(usize, Item)>) -> Self {
        buf.clear();
        Self {
            spec,
            emitted: buf,
            actual_cycles: None,
        }
    }

    /// Report this firing's *actual* data-dependent cycle count, overriding
    /// the method's declared cost in the timed simulator. The declared cost
    /// remains the compile-time budget; a firing that reports more than its
    /// budget raises a runtime resource exception in the simulation report
    /// (§VII's motion-vector-search scenario: per-iteration work that
    /// varies with the data).
    pub fn report_cycles(&mut self, cycles: u64) {
        self.actual_cycles = Some(cycles);
    }

    /// Emit a data window on the named output: [`window_at`](Self::window_at)
    /// after resolving the port name, for kernels written against names.
    pub fn window(&mut self, output: &str, w: Window) {
        let idx = self.output_named(output);
        self.emitted.push((idx, Item::Window(w)));
    }

    /// Emit a control token on the named output.
    pub fn token(&mut self, output: &str, t: ControlToken) {
        let idx = self.output_named(output);
        self.emitted.push((idx, Item::Control(t)));
    }

    fn output_named(&self, output: &str) -> usize {
        self.spec
            .output_index(output)
            .unwrap_or_else(|| panic!("kernel {} has no output {output}", self.spec.kind))
    }

    /// Emit an item on the output with the given index.
    #[inline]
    pub fn item_at(&mut self, output_idx: usize, item: Item) {
        assert!(
            output_idx < self.spec.outputs.len(),
            "kernel {} has no output {output_idx}",
            self.spec.kind
        );
        self.emitted.push((output_idx, item));
    }

    /// Emit a data window on the output with the given index.
    #[inline]
    pub fn window_at(&mut self, output_idx: usize, w: Window) {
        self.item_at(output_idx, Item::Window(w));
    }

    /// Emit a control token on the output with the given index.
    #[inline]
    pub fn token_at(&mut self, output_idx: usize, t: ControlToken) {
        self.item_at(output_idx, Item::Control(t));
    }

    /// The emitted `(output index, item)` pairs, in emission order.
    pub fn into_items(self) -> Vec<(usize, Item)> {
        self.emitted
    }

    /// The emitted items plus the reported actual cycle count, if any.
    pub fn into_parts(self) -> (Vec<(usize, Item)>, Option<u64>) {
        (self.emitted, self.actual_cycles)
    }
}

/// Executable kernel state: the method bodies.
///
/// Methods are named in the spec and addressed here by *index*: `method`
/// is the method's position in [`KernelSpec::methods`] (registration
/// order, [`KernelSpec::method_index`] maps a name to it), and ports are
/// addressed the same way through [`FireData::item_at`] /
/// [`Emitter::window_at`] and their siblings. The executor calls
/// [`fire`](Self::fire) when a method's trigger set is satisfied *and*
/// [`ready`](Self::ready) returns true; the consumed items arrive in
/// `data`, and outputs are written through `out`. Methods of the same
/// kernel share `self` — the paper's "methods share data private to the
/// kernel".
pub trait KernelBehavior: Send {
    /// Execute the method with the given spec index.
    fn fire(&mut self, method: usize, data: &FireData<'_>, out: &mut Emitter<'_>);

    /// Additional firing gate beyond trigger satisfaction for the method
    /// with the given spec index. Used by FSM kernels (round-robin joins
    /// take inputs in order) and by kernels with initialization ordering
    /// (a convolution is not ready until its coefficients are loaded).
    /// Defaults to always ready.
    fn ready(&self, _method: usize) -> bool {
        true
    }
}

/// Factory producing fresh behavior instances, so replication yields
/// independent private state.
pub type BehaviorFactory = Arc<dyn Fn() -> Box<dyn KernelBehavior> + Send + Sync>;

/// A complete kernel definition: spec plus behavior factory. This is what
/// kernel libraries hand to [`GraphBuilder::add`](crate::graph::GraphBuilder).
#[derive(Clone)]
pub struct KernelDef {
    /// Static description, shared: cloning a definition — for a replica, a
    /// graph copy, a simulator instance — bumps a reference count, and
    /// everything resolved from the spec is resolved once for all holders.
    pub spec: Arc<KernelSpec>,
    /// Behavior factory.
    pub factory: BehaviorFactory,
}

impl KernelDef {
    /// Bundle a spec with a behavior constructor.
    pub fn new<B, F>(spec: KernelSpec, make: F) -> Self
    where
        B: KernelBehavior + 'static,
        F: Fn() -> B + Send + Sync + 'static,
    {
        Self {
            spec: Arc::new(spec.trimmed()),
            factory: Arc::new(move || Box::new(make())),
        }
    }

    /// The same behavior over an edited copy of the spec: `edit` runs on a
    /// fresh, unresolved clone, which becomes the new definition's own
    /// spec. Other holders of the original are unaffected.
    pub fn map_spec(&self, edit: impl FnOnce(&mut KernelSpec)) -> Self {
        let mut spec = KernelSpec::clone(&self.spec);
        edit(&mut spec);
        Self {
            spec: Arc::new(spec.trimmed()),
            factory: Arc::clone(&self.factory),
        }
    }
}

impl std::fmt::Debug for KernelDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelDef")
            .field("spec", &self.spec)
            .finish_non_exhaustive()
    }
}

/// Convenience helper: sum of data words read by one firing of `method`
/// given the kernel spec (tokens are free). Used for I/O time accounting.
pub fn method_read_words(spec: &KernelSpec, method: &MethodSpec) -> u64 {
    method
        .trigger_inputs()
        .filter_map(|n| spec.input_index(n))
        .map(|i| spec.inputs[i].size.area())
        .sum()
}

/// Upper bound on data words written by one firing of `method`.
pub fn method_write_words(spec: &KernelSpec, method: &MethodSpec) -> u64 {
    method
        .outputs
        .iter()
        .filter_map(|n| spec.output_index(n))
        .map(|o| spec.outputs[o].size.area())
        .sum()
}

/// Data dimensions helper re-export for kernel implementors.
pub fn dim(w: u32, h: u32) -> Dim2 {
    Dim2::new(w, h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::MethodCost;
    use crate::port::{InputSpec, OutputSpec};

    fn conv_like_spec() -> KernelSpec {
        KernelSpec::new("conv2d")
            .input(InputSpec::windowed(
                "in",
                Dim2::new(5, 5),
                crate::geometry::Step2::ONE,
            ))
            .input(InputSpec::block("coeff", Dim2::new(5, 5)).replicated())
            .output(OutputSpec::stream("out"))
            .method(MethodSpec::on_data(
                "runConvolve",
                "in",
                vec!["out".into()],
                MethodCost::new(85, 25),
            ))
            .method(MethodSpec::on_data(
                "loadCoeff",
                "coeff",
                vec![],
                MethodCost::new(60, 25),
            ))
            .with_state_words(25)
    }

    #[test]
    fn index_lookups() {
        let s = conv_like_spec();
        assert_eq!(s.input_index("in"), Some(0));
        assert_eq!(s.input_index("coeff"), Some(1));
        assert_eq!(s.input_index("nope"), None);
        assert_eq!(s.output_index("out"), Some(0));
        assert_eq!(s.method_index("loadCoeff"), Some(1));
    }

    struct Nop;
    impl KernelBehavior for Nop {
        fn fire(&mut self, _m: usize, _d: &FireData<'_>, _o: &mut Emitter<'_>) {}
    }

    #[test]
    fn method_table_resolves_names_to_indices_in_spec_order() {
        use crate::method::TriggerOn;
        use crate::token::TokenKind;
        // `finish` handles end-of-frame on `in`, so the data method on
        // `in` must not forward that token; `loadCoeff` sits on `coeff`,
        // where nothing handles tokens.
        let spec = conv_like_spec().method(MethodSpec::on_token(
            "finish",
            "in",
            TokenKind::EndOfFrame,
            vec!["out".into()],
            MethodCost::new(7, 0),
        ));
        let table = spec.method_table().expect("every name resolves");
        assert_eq!(table.len(), 3);
        let run = table.method(0);
        assert_eq!(run.triggers, [(0, TriggerOn::Data)]);
        assert_eq!(run.outputs, [0]);
        assert_eq!(run.handled_tokens, [TokenKind::EndOfFrame]);
        assert_eq!((run.cost_cycles, run.is_data), (85, true));
        let load = table.method(1);
        assert_eq!(load.triggers, [(1, TriggerOn::Data)]);
        assert!(load.outputs.is_empty() && load.handled_tokens.is_empty());
        let finish = table.method(2);
        assert_eq!(
            finish.triggers,
            [(0, TriggerOn::Token(TokenKind::EndOfFrame))]
        );
        assert_eq!((finish.cost_cycles, finish.is_data), (7, false));
        assert_eq!(table.cost_cycles(2), 7);
        assert_eq!(table.iter().count(), 3);
        assert_eq!(table.trigger_conflict(), None);
        // Resolved once: a second call hands out the same table.
        assert!(Arc::ptr_eq(table, spec.method_table().unwrap()));
    }

    #[test]
    fn unknown_ports_are_validation_errors_naming_kernel_method_and_port() {
        let bad_input = KernelSpec::new("pass")
            .input(InputSpec::stream("in"))
            .output(OutputSpec::stream("out"))
            .method(MethodSpec::on_data(
                "run",
                "nope",
                vec!["out".into()],
                MethodCost::default(),
            ));
        let err = bad_input.method_table().unwrap_err();
        assert_eq!(
            err,
            BpError::Validation(
                "method 'run' of kernel 'pass' triggers on unknown input 'nope'".into()
            )
        );
        // The failure is kept with the spec like a table would be.
        assert_eq!(bad_input.method_table().unwrap_err(), err);
        let bad_output = KernelSpec::new("pass")
            .input(InputSpec::stream("in"))
            .method(MethodSpec::on_data(
                "run",
                "in",
                vec!["gone".into()],
                MethodCost::default(),
            ));
        assert_eq!(
            bad_output.method_table().unwrap_err(),
            BpError::Validation(
                "method 'run' of kernel 'pass' writes unknown output 'gone'".into()
            )
        );
    }

    #[test]
    fn repeated_names_are_validation_errors_naming_kernel_list_and_name() {
        let run = |name: &'static str, input: &'static str| {
            MethodSpec::on_data(name, input, vec!["out".into()], MethodCost::default())
        };
        let inputs = KernelSpec::new("pair")
            .input(InputSpec::stream("in"))
            .input(InputSpec::stream("in"))
            .output(OutputSpec::stream("out"))
            .method(run("run", "in"));
        let outputs = KernelSpec::new("pair")
            .input(InputSpec::stream("in"))
            .output(OutputSpec::stream("out"))
            .output(OutputSpec::stream("out"))
            .method(run("run", "in"));
        let methods = KernelSpec::new("pair")
            .input(InputSpec::stream("a"))
            .input(InputSpec::stream("b"))
            .output(OutputSpec::stream("out"))
            .method(run("run", "a"))
            .method(run("run", "b"));
        for (spec, list, name) in [
            (inputs, "inputs", "in"),
            (outputs, "outputs", "out"),
            (methods, "methods", "run"),
        ] {
            assert_eq!(
                spec.method_table().unwrap_err(),
                BpError::Validation(format!("kernel 'pair' has two {list} named '{name}'"))
            );
        }
    }

    #[test]
    fn editing_a_shared_spec_goes_through_a_fresh_unresolved_copy() {
        let def = KernelDef::new(conv_like_spec(), || Nop);
        let table = Arc::clone(def.spec.method_table().unwrap());
        assert_eq!(table.cost_cycles(0), 85);
        let replica = def.clone();
        assert!(
            Arc::ptr_eq(&replica.spec, &def.spec),
            "a clone shares the spec"
        );
        let edited = def.map_spec(|s| s.methods[0].cost.cycles = 99);
        assert!(!Arc::ptr_eq(&edited.spec, &def.spec));
        assert_eq!(edited.spec.method_table().unwrap().cost_cycles(0), 99);
        // The original, and everyone sharing it, is untouched.
        assert_eq!(def.spec.methods[0].cost.cycles, 85);
        assert!(Arc::ptr_eq(def.spec.method_table().unwrap(), &table));
        // What a definition keeps carries no builder slack.
        assert_eq!(def.spec.methods.capacity(), def.spec.methods.len());
        assert_eq!(def.spec.inputs.capacity(), def.spec.inputs.len());
    }

    #[test]
    fn memory_accounting_includes_state_working_and_io() {
        let s = conv_like_spec();
        // state 25 + working max(25,25) + io (25 + 25 + 1)
        assert_eq!(s.memory_words(), 25 + 25 + 51);
        assert_eq!(s.max_method_cycles(), 85);
    }

    #[test]
    fn io_word_counts() {
        let s = conv_like_spec();
        let run = &s.methods[0];
        assert_eq!(method_read_words(&s, run), 25);
        assert_eq!(method_write_words(&s, run), 1);
        let load = &s.methods[1];
        assert_eq!(method_read_words(&s, load), 25);
        assert_eq!(method_write_words(&s, load), 0);
    }

    #[test]
    fn emitter_records_in_order() {
        let s = conv_like_spec();
        let mut e = Emitter::new(&s);
        e.window("out", Window::scalar(1.0));
        e.token("out", ControlToken::EndOfFrame);
        let items = e.into_items();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].0, 0);
        assert!(items[0].1.is_window());
        assert!(!items[1].1.is_window());
    }

    #[test]
    fn fire_data_lookup() {
        let s = conv_like_spec();
        let items = vec![(0usize, Item::Window(Window::filled(Dim2::new(5, 5), 2.0)))];
        let d = FireData::new(&s, &items);
        assert_eq!(d.window("in").get(0, 0), 2.0);
        assert_eq!(d.raw().len(), 1);
    }

    #[test]
    #[should_panic(expected = "was not consumed")]
    fn fire_data_missing_input_panics() {
        let s = conv_like_spec();
        let items: Vec<(usize, Item)> = vec![];
        let d = FireData::new(&s, &items);
        let _ = d.window("in");
    }

    #[test]
    fn all_roles_are_listed_in_discriminant_order() {
        for (i, role) in NodeRole::ALL.into_iter().enumerate() {
            assert_eq!(role as usize, i);
        }
    }

    #[test]
    fn plumbing_roles() {
        assert!(NodeRole::Buffer.is_plumbing());
        assert!(NodeRole::Split.is_plumbing());
        assert!(!NodeRole::User.is_plumbing());
        assert!(!NodeRole::Source.is_plumbing());
    }
}
