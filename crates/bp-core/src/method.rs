//! Kernel methods and their trigger mappings (§II-B).
//!
//! A kernel may register several *methods*, each triggered by a disjoint set
//! of inputs receiving either data or a specific control token. Methods share
//! the kernel's private state (e.g. `loadCoeff` writes the coefficient array
//! that `runConvolve` reads). Each method declares the cycles and memory it
//! consumes per invocation so the compiler can size the parallelization.

use crate::token::TokenKind;

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
    pub input: String,
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
#[derive(Clone, Debug, PartialEq)]
pub struct MethodSpec {
    /// Method name, unique within the kernel.
    pub name: String,
    /// Inputs that must *all* have the required arrival at their queue head
    /// for the method to fire. Empty for source methods, which are fired by
    /// the scheduler according to the application input rate.
    pub triggers: Vec<Trigger>,
    /// Output ports this method may write.
    pub outputs: Vec<String>,
    /// Per-invocation resource cost.
    pub cost: MethodCost,
    /// For control-token handlers: the statically bounded maximum invocation
    /// rate, used by the compiler to budget cycles (§II-C). `None` means the
    /// rate follows from the data-flow analysis.
    pub max_rate_hz: Option<f64>,
}

impl MethodSpec {
    /// A method triggered by data on a single input.
    pub fn on_data(
        name: impl Into<String>,
        input: impl Into<String>,
        outputs: Vec<String>,
        cost: MethodCost,
    ) -> Self {
        Self {
            name: name.into(),
            triggers: vec![Trigger {
                input: input.into(),
                on: TriggerOn::Data,
            }],
            outputs,
            cost,
            max_rate_hz: None,
        }
    }

    /// A method triggered by a control token on a single input.
    pub fn on_token(
        name: impl Into<String>,
        input: impl Into<String>,
        token: TokenKind,
        outputs: Vec<String>,
        cost: MethodCost,
    ) -> Self {
        Self {
            name: name.into(),
            triggers: vec![Trigger {
                input: input.into(),
                on: TriggerOn::Token(token),
            }],
            outputs,
            cost,
            max_rate_hz: None,
        }
    }

    /// A method triggered by data arriving on *all* of the given inputs
    /// (e.g. the subtract kernel's two operands).
    pub fn on_all_data(
        name: impl Into<String>,
        inputs: &[&str],
        outputs: Vec<String>,
        cost: MethodCost,
    ) -> Self {
        Self {
            name: name.into(),
            triggers: inputs
                .iter()
                .map(|i| Trigger {
                    input: (*i).to_string(),
                    on: TriggerOn::Data,
                })
                .collect(),
            outputs,
            cost,
            max_rate_hz: None,
        }
    }

    /// A source method with no triggers, fired by the scheduler.
    pub fn source(name: impl Into<String>, outputs: Vec<String>, cost: MethodCost) -> Self {
        Self {
            name: name.into(),
            triggers: Vec::new(),
            outputs,
            cost,
            max_rate_hz: None,
        }
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
        self.triggers.iter().map(|t| t.input.as_str())
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

/// Where a method names a port its kernel does not have.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct UnknownPort {
    /// Index of the method.
    pub(crate) method: u32,
    /// Position among the method's triggers, or among its outputs.
    pub(crate) index: u32,
    /// Whether it is an output the method writes (else a trigger input).
    pub(crate) output: bool,
}

/// One method of a [`MethodTable`] as the mask planner reads it: its
/// trigger conditions folded into bitmasks over the input ports, beside
/// the offsets that locate its slices in the table's arrays.
#[derive(Clone, Copy, Debug, PartialEq)]
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

/// The index-resolved methods of one kernel spec, in registration order:
/// what the executors plan and fire from, and what the analyses read
/// instead of looking port names up again. Built once per spec by
/// [`KernelSpec::method_table`](crate::kernel::KernelSpec::method_table) and
/// shared by every node, replica and simulator instance holding that spec.
/// Stored as one row per method over three flat arrays.
#[derive(Clone, Debug, PartialEq)]
pub struct MethodTable {
    rows: Box<[MethodRow]>,
    triggers: Box<[(usize, TriggerOn)]>,
    outputs: Box<[usize]>,
    handled: Box<[TokenKind]>,
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
        self.rows.is_empty()
    }

    /// The method with spec index `mi`. Panics when out of range.
    #[inline]
    pub fn method(&self, mi: usize) -> ResolvedMethod<'_> {
        let row = self.rows[mi];
        let (t0, o0, h0) = match mi.checked_sub(1) {
            Some(prev) => {
                let p = self.rows[prev];
                (p.triggers_end, p.outputs_end, p.handled_end)
            }
            None => (0, 0, 0),
        };
        ResolvedMethod {
            triggers: &self.triggers[t0 as usize..row.triggers_end as usize],
            outputs: &self.outputs[o0 as usize..row.outputs_end as usize],
            handled_tokens: &self.handled[h0 as usize..row.handled_end as usize],
            cost_cycles: row.cost_cycles,
            is_data: row.is_data,
        }
    }

    /// The trigger ports of the method with spec index `mi` —
    /// [`method`](Self::method)`(mi).triggers` without the other slices,
    /// for the per-firing pop loop.
    #[inline]
    pub fn triggers(&self, mi: usize) -> &[(usize, TriggerOn)] {
        let t0 = match mi.checked_sub(1) {
            Some(prev) => self.rows[prev].triggers_end,
            None => 0,
        };
        &self.triggers[t0 as usize..self.rows[mi].triggers_end as usize]
    }

    /// Declared cycle cost of the method with spec index `mi`.
    #[inline]
    pub fn cost_cycles(&self, mi: usize) -> u64 {
        self.rows[mi].cost_cycles
    }

    /// Every method's row — trigger masks and data flag — in registration
    /// order: what the mask planner walks.
    #[inline]
    pub fn rows(&self) -> &[MethodRow] {
        &self.rows
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

    /// Resolve `methods` against port-name lookups in a single pass; `Err`
    /// is the first name a lookup does not know.
    pub(crate) fn resolve(
        methods: &[MethodSpec],
        num_inputs: usize,
        input_index: impl Fn(&str) -> Option<usize>,
        output_index: impl Fn(&str) -> Option<usize>,
    ) -> std::result::Result<Self, UnknownPort> {
        let unknown = |method: usize, index: usize, output: bool| UnknownPort {
            method: method as u32,
            index: index as u32,
            output,
        };
        let mut rows = Vec::with_capacity(methods.len());
        let mut triggers = Vec::with_capacity(methods.iter().map(|m| m.triggers.len()).sum());
        let mut outputs = Vec::with_capacity(methods.iter().map(|m| m.outputs.len()).sum());
        // Ports past the mask width get no bit; `fits_masks` says so.
        let bit = |port: usize| 1u64.checked_shl(port as u32).unwrap_or(0);
        for (mi, m) in methods.iter().enumerate() {
            let (mut trigger_mask, mut data_mask) = (0, 0);
            for (ti, t) in m.triggers.iter().enumerate() {
                let port = input_index(&t.input).ok_or(unknown(mi, ti, false))?;
                trigger_mask |= bit(port);
                if t.on == TriggerOn::Data {
                    data_mask |= bit(port);
                }
                triggers.push((port, t.on));
            }
            for (oi, o) in m.outputs.iter().enumerate() {
                outputs.push(output_index(o).ok_or(unknown(mi, oi, true))?);
            }
            rows.push(MethodRow {
                triggers_end: triggers.len() as u32,
                outputs_end: outputs.len() as u32,
                handled_end: 0,
                trigger_mask,
                data_mask,
                is_data: m.is_data_method(),
                cost_cycles: m.cost.cycles,
            });
        }
        // Handled tokens: for each method, the kinds of the kernel's token
        // triggers that sit on one of its trigger inputs, in spec order —
        // integer compares against a per-port membership flag.
        let token_trigger = |&(port, on): &(usize, TriggerOn)| match on {
            TriggerOn::Token(kind) => Some((port, kind)),
            TriggerOn::Data => None,
        };
        let token_triggers: Vec<(usize, TokenKind)> =
            triggers.iter().filter_map(token_trigger).collect();
        let mut handled = Vec::new();
        if !token_triggers.is_empty() {
            let mut in_group = vec![false; num_inputs];
            let mut start = 0;
            for row in &mut rows {
                let ports = &triggers[start..row.triggers_end as usize];
                start = row.triggers_end as usize;
                for &(p, _) in ports {
                    in_group[p] = true;
                }
                let first = handled.len();
                for &(p, kind) in &token_triggers {
                    if in_group[p] && !handled[first..].contains(&kind) {
                        handled.push(kind);
                    }
                }
                for &(p, _) in ports {
                    in_group[p] = false;
                }
                row.handled_end = handled.len() as u32;
            }
        }
        // Trigger disjointness: the first trigger equal to an earlier one.
        // Quadratic in the trigger count, but in integer compares, once
        // per spec, and allocation-free.
        let method_of = |ti: usize| rows.iter().position(|r| ti < r.triggers_end as usize);
        let repeated = (1..triggers.len()).find_map(|later| {
            let earlier = triggers[..later]
                .iter()
                .position(|t| *t == triggers[later])?;
            Some((method_of(earlier)?, method_of(later)?, triggers[later].0))
        });
        let conflict = repeated.map(|(a, b, port)| (a as u32, b as u32, port as u32));
        Ok(MethodTable {
            conflict,
            fits_masks: num_inputs <= u64::BITS as usize,
            rows: rows.into(),
            triggers: triggers.into(),
            outputs: outputs.into(),
            handled: handled.into(),
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
