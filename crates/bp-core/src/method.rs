//! Kernel methods and their trigger mappings (§II-B).
//!
//! A kernel may register several *methods*, each triggered by a disjoint set
//! of inputs receiving either data or a specific control token. Methods share
//! the kernel's private state (e.g. `loadCoeff` writes the coefficient array
//! that `runConvolve` reads). Each method declares the cycles and memory it
//! consumes per invocation so the compiler can size the parallelization.

use crate::port::{InputSpec, Name, OutputSpec};
use crate::token::TokenKind;
use std::borrow::Cow;

/// What arrival on an input fires a trigger: a data window or a specific
/// control token.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TriggerOn {
    /// Fires on a data window.
    Data,
    /// Fires on a control token of the given kind.
    Token(TokenKind),
}

/// One input participating in a method's trigger set.
#[derive(Clone, Debug, PartialEq)]
pub struct Trigger {
    /// Input port name.
    pub input: Name,
    /// What must arrive on that input.
    pub on: TriggerOn,
}

/// Resource cost of one invocation of a method.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MethodCost {
    /// Computation cycles consumed per invocation (excluding I/O, which the
    /// simulator charges separately per word moved).
    pub cycles: u64,
    /// Working memory in words required while the method runs.
    pub memory_words: u64,
}

impl MethodCost {
    /// Construct a cost.
    pub const fn new(cycles: u64, memory_words: u64) -> Self {
        Self {
            cycles,
            memory_words,
        }
    }
}

/// A registered kernel method: its trigger set, the outputs it may write,
/// and its per-invocation cost.
///
/// The two lists are `Cow`s, like the names in them: a `Vec` (`vec![…]`
/// converts through `Into`) or a `'static` slice, which is how the
/// compiler's plumbing kernels declare their one-entry lists without
/// allocating them per method.
#[derive(Clone, Debug, PartialEq)]
pub struct MethodSpec {
    /// Method name, unique within the kernel (resolving the method table
    /// checks it).
    pub name: Name,
    /// Inputs that must *all* have the required arrival at their queue head
    /// for the method to fire. Empty for source methods, which are fired by
    /// the scheduler according to the application input rate.
    pub triggers: Cow<'static, [Trigger]>,
    /// Output ports this method may write.
    pub outputs: Cow<'static, [Name]>,
    /// Per-invocation resource cost.
    pub cost: MethodCost,
    /// For control-token handlers: the statically bounded maximum invocation
    /// rate, used by the compiler to budget cycles (§II-C). `None` means the
    /// rate follows from the data-flow analysis.
    pub max_rate_hz: Option<f64>,
}

impl MethodSpec {
    /// A method with the given trigger set and outputs: what the other
    /// constructors build, for lists that are already at hand (a `'static`
    /// table, or a `Vec`).
    pub fn new(
        name: impl Into<Name>,
        triggers: impl Into<Cow<'static, [Trigger]>>,
        outputs: impl Into<Cow<'static, [Name]>>,
        cost: MethodCost,
    ) -> Self {
        Self {
            name: name.into(),
            triggers: triggers.into(),
            outputs: outputs.into(),
            cost,
            max_rate_hz: None,
        }
    }

    /// A method triggered by data on a single input.
    pub fn on_data(
        name: impl Into<Name>,
        input: impl Into<Name>,
        outputs: impl Into<Cow<'static, [Name]>>,
        cost: MethodCost,
    ) -> Self {
        let trigger = Trigger {
            input: input.into(),
            on: TriggerOn::Data,
        };
        Self::new(name, vec![trigger], outputs, cost)
    }

    /// A method triggered by a control token on a single input.
    pub fn on_token(
        name: impl Into<Name>,
        input: impl Into<Name>,
        token: TokenKind,
        outputs: impl Into<Cow<'static, [Name]>>,
        cost: MethodCost,
    ) -> Self {
        let trigger = Trigger {
            input: input.into(),
            on: TriggerOn::Token(token),
        };
        Self::new(name, vec![trigger], outputs, cost)
    }

    /// A method triggered by data arriving on *all* of the given inputs
    /// (e.g. the subtract kernel's two operands).
    pub fn on_all_data(
        name: impl Into<Name>,
        inputs: &[&'static str],
        outputs: impl Into<Cow<'static, [Name]>>,
        cost: MethodCost,
    ) -> Self {
        let triggers = inputs.iter().map(|i| Trigger {
            input: Name::Borrowed(i),
            on: TriggerOn::Data,
        });
        Self::new(name, triggers.collect::<Vec<_>>(), outputs, cost)
    }

    /// A source method with no triggers, fired by the scheduler.
    pub fn source(
        name: impl Into<Name>,
        outputs: impl Into<Cow<'static, [Name]>>,
        cost: MethodCost,
    ) -> Self {
        Self::new(name, &[][..], outputs, cost)
    }

    /// Set the declared maximum invocation rate.
    pub fn with_max_rate(mut self, hz: f64) -> Self {
        self.max_rate_hz = Some(hz);
        self
    }

    /// True when this is a source method (no triggers).
    pub fn is_source(&self) -> bool {
        self.triggers.is_empty()
    }

    /// The input names participating in this method's trigger set.
    pub fn trigger_inputs(&self) -> impl Iterator<Item = &str> {
        self.triggers.iter().map(|t| &*t.input)
    }

    /// True when the method fires on data (not tokens) for every trigger.
    pub fn is_data_method(&self) -> bool {
        !self.triggers.is_empty() && self.triggers.iter().all(|t| t.on == TriggerOn::Data)
    }
}

/// One method of a [`MethodTable`]: its firing plan with every port name
/// resolved to an index. A view into the table's arrays, so it is `Copy`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResolvedMethod<'a> {
    /// `(input port index, trigger condition)` per trigger, in declaration
    /// order (duplicates preserved — a firing pops in exactly this order).
    pub triggers: &'a [(usize, TriggerOn)],
    /// Output port indices, in declaration order.
    pub outputs: &'a [usize],
    /// Token kinds some method of the kernel handles on one of this
    /// method's trigger inputs — these suppress automatic forwarding.
    pub handled_tokens: &'a [TokenKind],
    /// Declared cycle cost.
    pub cost_cycles: u64,
    /// True for data methods (every trigger fires on data).
    pub is_data: bool,
}

/// The first name of a spec that does not resolve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BadName {
    /// A method names a port its kernel does not have.
    Unknown {
        /// Index of the method.
        method: u32,
        /// Position among the method's triggers, or among its outputs.
        index: u32,
        /// Whether it is an output the method writes (else a trigger input).
        output: bool,
    },
    /// An entry of one of the spec's lists has the name of an earlier one.
    Repeated {
        /// The list.
        list: NameList,
        /// Position of the later entry.
        index: u32,
    },
}

/// One of a spec's named lists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum NameList {
    /// [`KernelSpec::inputs`](crate::kernel::KernelSpec::inputs).
    Input,
    /// [`KernelSpec::outputs`](crate::kernel::KernelSpec::outputs).
    Output,
    /// [`KernelSpec::methods`](crate::kernel::KernelSpec::methods).
    Method,
}

/// Position of the first entry of `list` whose name an earlier one has.
/// Quadratic in the length, but in string compares of short names, once
/// per spec and allocation-free.
fn first_repeat<T>(list: &[T], name: impl Fn(&T) -> &str) -> Option<usize> {
    (1..list.len()).find(|&i| list[..i].iter().any(|e| name(e) == name(&list[i])))
}

/// One method of a [`MethodTable`] as the mask planner reads it: its
/// trigger conditions folded into bitmasks over the input ports, beside
/// the offsets that locate its slices in the table's arrays.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MethodRow {
    /// End offsets into the table's `triggers` / `outputs` / `handled`
    /// arrays; a row starts where the previous one ends.
    triggers_end: u32,
    outputs_end: u32,
    handled_end: u32,
    /// Bit `p` set when port `p` is one of the method's trigger inputs
    /// (ports below 64 only; see [`MethodTable::fits_masks`]). Zero for a
    /// source method.
    pub trigger_mask: u64,
    /// Bit `p` set when port `p` has a [`TriggerOn::Data`] trigger.
    pub data_mask: u64,
    /// True for data methods (every trigger fires on data); a triggered
    /// method that is not one has at least one token trigger.
    pub is_data: bool,
    cost_cycles: u64,
}

/// One of a [`MethodTable`]'s arrays: held inline up to `N` entries, so the
/// table of an ordinary kernel lives in the one allocation of the `Arc`
/// that shares it, and on the heap past that (a wide split, join or
/// replicate). Filled by [`push`](Self::push), never shrunk.
#[derive(Clone, Debug)]
enum Slots<T: Copy, const N: usize> {
    Inline { len: u8, items: [T; N] },
    Heap(Vec<T>),
}

impl<T: Copy, const N: usize> Slots<T, N> {
    /// Empty, with room for `capacity` entries (`fill` pads the inline
    /// array and is never read).
    fn new(capacity: usize, fill: T) -> Self {
        if capacity <= N {
            Slots::Inline {
                len: 0,
                items: [fill; N],
            }
        } else {
            Slots::Heap(Vec::with_capacity(capacity))
        }
    }

    fn push(&mut self, item: T) {
        match self {
            Slots::Inline { len, items } if (*len as usize) < N => {
                items[*len as usize] = item;
                *len += 1;
            }
            Slots::Inline { items, .. } => {
                let mut spilled = Vec::with_capacity(2 * N);
                spilled.extend_from_slice(items);
                spilled.push(item);
                *self = Slots::Heap(spilled);
            }
            Slots::Heap(items) => items.push(item),
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }

    #[inline]
    fn as_slice(&self) -> &[T] {
        match self {
            Slots::Inline { len, items } => &items[..*len as usize],
            Slots::Heap(items) => items,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        match self {
            Slots::Inline { len, items } => &mut items[..*len as usize],
            Slots::Heap(items) => items,
        }
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq for Slots<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// The index-resolved methods of one kernel spec, in registration order:
/// what the executors plan and fire from, and what the analyses read
/// instead of looking port names up again. Built once per spec by
/// [`KernelSpec::method_table`](crate::kernel::KernelSpec::method_table) and
/// shared by every node, replica and simulator instance holding that spec.
/// Stored as one row per method over three flat arrays; a kernel of up to
/// four methods, four trigger and four output entries and eight handled
/// tokens holds all four arrays inline, so resolving its table allocates
/// once, for the `Arc`.
#[derive(Clone, Debug, PartialEq)]
pub struct MethodTable {
    rows: Slots<MethodRow, 4>,
    triggers: Slots<(usize, TriggerOn), 4>,
    outputs: Slots<usize, 4>,
    handled: Slots<TokenKind, 8>,
    /// See [`trigger_conflict`](Self::trigger_conflict).
    conflict: Option<(u32, u32, u32)>,
    /// See [`fits_masks`](Self::fits_masks).
    fits_masks: bool,
}

impl MethodTable {
    /// Number of methods.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True for a kernel without methods.
    pub fn is_empty(&self) -> bool {
        self.rows.len() == 0
    }

    /// The method with spec index `mi`. Panics when out of range.
    #[inline]
    pub fn method(&self, mi: usize) -> ResolvedMethod<'_> {
        let rows = self.rows.as_slice();
        let row = rows[mi];
        let (t0, o0, h0) = match mi.checked_sub(1) {
            Some(prev) => {
                let p = rows[prev];
                (p.triggers_end, p.outputs_end, p.handled_end)
            }
            None => (0, 0, 0),
        };
        ResolvedMethod {
            triggers: &self.triggers.as_slice()[t0 as usize..row.triggers_end as usize],
            outputs: &self.outputs.as_slice()[o0 as usize..row.outputs_end as usize],
            handled_tokens: &self.handled.as_slice()[h0 as usize..row.handled_end as usize],
            cost_cycles: row.cost_cycles,
            is_data: row.is_data,
        }
    }

    /// The trigger ports of the method with spec index `mi` —
    /// [`method`](Self::method)`(mi).triggers` without the other slices,
    /// for the per-firing pop loop.
    #[inline]
    pub fn triggers(&self, mi: usize) -> &[(usize, TriggerOn)] {
        let rows = self.rows.as_slice();
        let t0 = match mi.checked_sub(1) {
            Some(prev) => rows[prev].triggers_end,
            None => 0,
        };
        &self.triggers.as_slice()[t0 as usize..rows[mi].triggers_end as usize]
    }

    /// Declared cycle cost of the method with spec index `mi`.
    #[inline]
    pub fn cost_cycles(&self, mi: usize) -> u64 {
        self.rows.as_slice()[mi].cost_cycles
    }

    /// Every method's row — trigger masks and data flag — in registration
    /// order: what the mask planner walks.
    #[inline]
    pub fn rows(&self) -> &[MethodRow] {
        self.rows.as_slice()
    }

    /// True when the kernel has at most 64 input ports, so every trigger
    /// port has a bit in the rows' masks and the mask planner can plan it.
    pub fn fits_masks(&self) -> bool {
        self.fits_masks
    }

    /// The first two methods that trigger on the same arrival at the same
    /// input, which §II-B forbids, as `(earlier method, later method, input
    /// port)` — `None` for a well-formed kernel.
    pub fn trigger_conflict(&self) -> Option<(usize, usize, usize)> {
        self.conflict
            .map(|(a, b, port)| (a as usize, b as usize, port as usize))
    }

    /// All methods, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = ResolvedMethod<'_>> {
        (0..self.rows.len()).map(|mi| self.method(mi))
    }

    /// Resolve `methods` against the kernel's ports in a single pass;
    /// `Err` is the first repeated name in `inputs`, `outputs` or
    /// `methods`, else the first port name a method uses that the kernel
    /// does not have.
    pub(crate) fn resolve(
        methods: &[MethodSpec],
        inputs: &[InputSpec],
        outputs: &[OutputSpec],
    ) -> std::result::Result<Self, BadName> {
        let unique = |list: NameList, index: Option<usize>| match index {
            Some(index) => Err(BadName::Repeated {
                list,
                index: index as u32,
            }),
            None => Ok(()),
        };
        unique(NameList::Input, first_repeat(inputs, |i| &i.name))?;
        unique(NameList::Output, first_repeat(outputs, |o| &o.name))?;
        unique(NameList::Method, first_repeat(methods, |m| &m.name))?;
        let unknown = |method: usize, index: usize, output: bool| BadName::Unknown {
            method: method as u32,
            index: index as u32,
            output,
        };
        let num_inputs = inputs.len();
        let mut rows = Slots::new(methods.len(), MethodRow::default());
        let num_triggers = methods.iter().map(|m| m.triggers.len()).sum();
        let mut triggers = Slots::new(num_triggers, (0, TriggerOn::Data));
        let num_outputs = methods.iter().map(|m| m.outputs.len()).sum();
        let mut output_ports = Slots::new(num_outputs, 0);
        // Ports past the mask width get no bit, and `fits_masks` says so.
        let bit = |port: usize| 1u64.checked_shl(port as u32).unwrap_or(0);
        for (mi, m) in methods.iter().enumerate() {
            let (mut trigger_mask, mut data_mask) = (0, 0);
            for (ti, t) in m.triggers.iter().enumerate() {
                let port = inputs
                    .iter()
                    .position(|i| i.name == t.input)
                    .ok_or(unknown(mi, ti, false))?;
                trigger_mask |= bit(port);
                if t.on == TriggerOn::Data {
                    data_mask |= bit(port);
                }
                triggers.push((port, t.on));
            }
            for (oi, name) in m.outputs.iter().enumerate() {
                let port = outputs.iter().position(|o| o.name == *name);
                output_ports.push(port.ok_or(unknown(mi, oi, true))?);
            }
            rows.push(MethodRow {
                triggers_end: triggers.len() as u32,
                outputs_end: output_ports.len() as u32,
                handled_end: 0,
                trigger_mask,
                data_mask,
                is_data: m.is_data_method(),
                cost_cycles: m.cost.cycles,
            });
        }
        let triggers_all = triggers.as_slice();
        // Handled tokens: for each method, the kinds of the kernel's token
        // triggers that sit on one of its trigger inputs, in spec order —
        // a mask test per token trigger (a scan of the method's triggers
        // for a port past the mask width).
        let token_triggers = || {
            triggers_all.iter().filter_map(|&(port, on)| match on {
                TriggerOn::Token(kind) => Some((port, kind)),
                TriggerOn::Data => None,
            })
        };
        // Sized for the two automatic tokens on every method: exact for
        // the buffers, splits, joins, insets and pads the compiler
        // inserts.
        let any_tokens = token_triggers().next().is_some();
        let capacity = if any_tokens { 2 * rows.len() } else { 0 };
        let mut handled = Slots::new(capacity, TokenKind::EndOfLine);
        if any_tokens {
            let mut start = 0;
            for row in rows.as_mut_slice() {
                let ports = &triggers_all[start..row.triggers_end as usize];
                start = row.triggers_end as usize;
                let in_group = |p: usize| match bit(p) {
                    0 => ports.iter().any(|&(q, _)| q == p),
                    b => row.trigger_mask & b != 0,
                };
                let first = handled.len();
                for (p, kind) in token_triggers() {
                    if in_group(p) && !handled.as_slice()[first..].contains(&kind) {
                        handled.push(kind);
                    }
                }
                row.handled_end = handled.len() as u32;
            }
        }
        // Trigger disjointness: the first trigger equal to an earlier one.
        // Quadratic in the trigger count, but in integer compares, once
        // per spec, and allocation-free.
        let rows_all = rows.as_slice();
        let method_of = |ti: usize| rows_all.iter().position(|r| ti < r.triggers_end as usize);
        let repeated = (1..triggers_all.len()).find_map(|later| {
            let earlier = triggers_all[..later]
                .iter()
                .position(|t| *t == triggers_all[later])?;
            Some((
                method_of(earlier)?,
                method_of(later)?,
                triggers_all[later].0,
            ))
        });
        let conflict = repeated.map(|(a, b, port)| (a as u32, b as u32, port as u32));
        Ok(MethodTable {
            conflict,
            fits_masks: num_inputs <= u64::BITS as usize,
            rows,
            triggers,
            outputs: output_ports,
            handled,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_build_expected_triggers() {
        let m = MethodSpec::on_data("run", "in", vec!["out".into()], MethodCost::new(85, 25));
        assert_eq!(m.triggers.len(), 1);
        assert!(m.is_data_method());
        assert!(!m.is_source());

        let t = MethodSpec::on_token(
            "finish",
            "in",
            TokenKind::EndOfFrame,
            vec!["out".into()],
            MethodCost::new(99, 32),
        );
        assert!(!t.is_data_method());
        assert_eq!(t.triggers[0].on, TriggerOn::Token(TokenKind::EndOfFrame));

        let s = MethodSpec::source("gen", vec!["out".into()], MethodCost::default());
        assert!(s.is_source());

        let a = MethodSpec::on_all_data(
            "sub",
            &["in0", "in1"],
            vec!["out".into()],
            MethodCost::default(),
        );
        assert_eq!(a.trigger_inputs().collect::<Vec<_>>(), vec!["in0", "in1"]);
        assert!(a.is_data_method());
    }

    #[test]
    fn max_rate_is_recorded() {
        let m = MethodSpec::on_token(
            "ctl",
            "in",
            TokenKind::Custom(1),
            vec![],
            MethodCost::new(10, 0),
        )
        .with_max_rate(50.0);
        assert_eq!(m.max_rate_hz, Some(50.0));
    }
}
