//! Target machine description and kernel-to-processor mappings.
//!
//! The paper's analyses consume a small set of per-processing-element
//! scalars: compute capacity (cycles/second), local storage, and per-word
//! data access cost. The compiler sizes parallelism against these and the
//! timing-accurate simulator charges them per firing.

/// Description of one target many-core machine's processing elements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineSpec {
    /// Compute capacity per PE in cycles per second.
    pub pe_clock_hz: f64,
    /// Local storage per PE in words.
    pub pe_memory_words: u64,
    /// Cycles charged per word read from a kernel input. Fractional values
    /// model PEs that move several words per cycle from local storage.
    pub read_cost_per_word: f64,
    /// Cycles charged per word written to a kernel output.
    pub write_cost_per_word: f64,
    /// Fraction of a PE's cycles the compiler may budget (headroom guard
    /// against scheduling jitter); 1.0 = budget the full PE.
    pub utilization_cap: f64,
}

impl MachineSpec {
    /// The default evaluation machine used throughout the reproduction:
    /// 1 MHz PEs with 320 words of local storage, moving a 16-word line per
    /// cycle to/from local storage (0.0625 cycles per word). These constants are
    /// tuned (see DESIGN.md §6) so the running example reproduces the
    /// paper's Fig. 4 replica counts and so split/join FSMs — which copy
    /// whole windows — stay below one PE at the evaluated rates.
    pub fn default_eval() -> Self {
        Self {
            pe_clock_hz: 1_000_000.0,
            pe_memory_words: 320,
            read_cost_per_word: 0.0625,
            write_cost_per_word: 0.0625,
            utilization_cap: 0.95,
        }
    }

    /// Usable cycles per second after the utilization cap.
    pub fn usable_cycles_per_sec(&self) -> f64 {
        self.pe_clock_hz * self.utilization_cap
    }

    /// A machine with `factor`× the default PE clock (sensitivity sweeps).
    pub fn scaled_clock(factor: f64) -> Self {
        Self {
            pe_clock_hz: 1_000_000.0 * factor,
            ..Self::default_eval()
        }
    }

    /// A storage-starved machine: 60% of the default local memory — still
    /// enough for every kernel instance, but line buffers split earlier.
    pub fn tight_memory() -> Self {
        Self {
            pe_memory_words: 192,
            ..Self::default_eval()
        }
    }

    /// A machine with a narrow (1 word/cycle) local-store port, making data
    /// movement as expensive as the paper's FSM kernels can tolerate.
    pub fn narrow_port() -> Self {
        Self {
            read_cost_per_word: 1.0,
            write_cost_per_word: 1.0,
            ..Self::default_eval()
        }
    }
}

impl Default for MachineSpec {
    fn default() -> Self {
        Self::default_eval()
    }
}

/// Configurable inter-PE communication delay model.
///
/// The paper's timed simulator assumes a zero-delay network (§IV-D); this
/// model adds the three terms a mesh-style many-core actually charges:
///
/// * a **base latency** per message between distinct PEs,
/// * a **per-hop** term scaled by the Manhattan distance between the PEs'
///   grid coordinates (placement-aware when [`coords`](Self::coords) is
///   set, otherwise a row-major square mesh is derived from the PE count),
/// * a **per-word serialization** cost: each item occupies its link for
///   `words * per_word_s`, delaying both its own arrival and the next
///   item's departure (store-and-forward).
///
/// Two nodes mapped to the *same* PE exchange data through local memory,
/// which the per-firing word costs already charge, so their channel
/// latency is zero. [`CommModel::zero`] (the `Default`) disables the model
/// entirely and reproduces the paper's original semantics bit for bit.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct CommModel {
    /// Seconds of latency charged to every inter-PE message.
    pub base_latency_s: f64,
    /// Seconds of link occupancy per word of payload (bandwidth term).
    pub per_word_s: f64,
    /// Additional seconds per grid hop between the two PEs.
    pub per_hop_s: f64,
    /// Optional per-PE grid coordinates (from a placement); when absent,
    /// hop counts come from a derived row-major square mesh.
    pub coords: Option<Vec<(u32, u32)>>,
}

impl CommModel {
    /// The zero-delay network of the paper: all latencies are 0 and both
    /// timed engines behave exactly as they did without a model.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Distance-independent model: every inter-PE message takes
    /// `base_latency_s` plus its serialization time.
    pub fn uniform(base_latency_s: f64, per_word_s: f64) -> Self {
        Self {
            base_latency_s,
            per_word_s,
            ..Self::default()
        }
    }

    /// Grid model: `base_latency_s + per_hop_s * hops` per message, with
    /// hops the Manhattan distance on the PE grid.
    pub fn grid(base_latency_s: f64, per_hop_s: f64, per_word_s: f64) -> Self {
        Self {
            base_latency_s,
            per_word_s,
            per_hop_s,
            ..Self::default()
        }
    }

    /// Attach explicit PE grid coordinates (e.g. from an annealed
    /// placement) for the per-hop term.
    pub fn with_coords(mut self, coords: Vec<(u32, u32)>) -> Self {
        self.coords = Some(coords);
        self
    }

    /// True when the model can never delay anything (every latency is 0).
    pub fn is_zero(&self) -> bool {
        self.base_latency_s <= 0.0 && self.per_word_s <= 0.0 && self.per_hop_s <= 0.0
    }

    /// Manhattan hop count between two PEs: explicit coordinates when
    /// provided, else positions in a derived row-major square mesh of
    /// `ceil(sqrt(num_pes))` columns.
    pub fn hops(&self, src_pe: usize, dst_pe: usize, num_pes: usize) -> u32 {
        let at = |pe: usize| -> (u32, u32) {
            if let Some(coords) = &self.coords {
                if let Some(&c) = coords.get(pe) {
                    return c;
                }
            }
            let w = (num_pes.max(1) as f64).sqrt().ceil() as usize;
            ((pe % w) as u32, (pe / w) as u32)
        };
        let (sx, sy) = at(src_pe);
        let (dx, dy) = at(dst_pe);
        sx.abs_diff(dx) + sy.abs_diff(dy)
    }

    /// Latency in seconds for one message from `src_pe` to `dst_pe`
    /// (excluding serialization): 0 on the same PE, otherwise
    /// `base + per_hop * hops`.
    pub fn channel_latency_s(&self, src_pe: usize, dst_pe: usize, num_pes: usize) -> f64 {
        if src_pe == dst_pe {
            return 0.0;
        }
        let lat = self.base_latency_s + self.per_hop_s * self.hops(src_pe, dst_pe, num_pes) as f64;
        lat.max(0.0)
    }
}

/// Assignment of graph nodes to processing elements.
///
/// Produced by the multiplexing pass (§V): either the naive 1:1 mapping or
/// the greedy merged mapping. PE indices are dense in `0..num_pes`.
#[derive(Clone, Debug, PartialEq)]
pub struct Mapping {
    /// `pe_of_node[node_id] = pe index`.
    pub pe_of_node: Vec<usize>,
    /// Number of PEs used.
    pub num_pes: usize,
}

impl Mapping {
    /// The 1:1 mapping for a graph with `n` nodes.
    pub fn one_to_one(n: usize) -> Self {
        Self {
            pe_of_node: (0..n).collect(),
            num_pes: n,
        }
    }

    /// Build from an explicit assignment, renumbering PEs densely.
    pub fn from_assignment(assign: Vec<usize>) -> Self {
        let mut remap: Vec<Option<usize>> = vec![None; assign.iter().max().map_or(0, |m| m + 1)];
        let mut next = 0usize;
        let mut pe_of_node = Vec::with_capacity(assign.len());
        for a in assign {
            let pe = *remap[a].get_or_insert_with(|| {
                let v = next;
                next += 1;
                v
            });
            pe_of_node.push(pe);
        }
        Self {
            pe_of_node,
            num_pes: next,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_to_one_is_identity() {
        let m = Mapping::one_to_one(4);
        assert_eq!(m.num_pes, 4);
        assert_eq!(m.pe_of_node, vec![0, 1, 2, 3]);
    }

    #[test]
    fn from_assignment_renumbers_densely() {
        let m = Mapping::from_assignment(vec![5, 5, 9, 2]);
        assert_eq!(m.num_pes, 3);
        assert_eq!(m.pe_of_node, vec![0, 0, 1, 2]);
    }

    #[test]
    fn zero_model_is_zero_everywhere() {
        let m = CommModel::zero();
        assert!(m.is_zero());
        assert_eq!(m.channel_latency_s(0, 5, 9), 0.0);
        assert_eq!(m, CommModel::default());
    }

    #[test]
    fn uniform_model_charges_base_between_distinct_pes_only() {
        let m = CommModel::uniform(2e-6, 1e-7);
        assert!(!m.is_zero());
        assert_eq!(
            m.channel_latency_s(3, 3, 16),
            0.0,
            "same PE is local memory"
        );
        assert_eq!(m.channel_latency_s(0, 15, 16), 2e-6);
        assert_eq!(m.channel_latency_s(15, 0, 16), 2e-6);
    }

    #[test]
    fn grid_model_uses_derived_mesh_and_explicit_coords() {
        let m = CommModel::grid(1e-6, 5e-7, 0.0);
        // 9 PEs -> 3x3 row-major mesh; PE 0 = (0,0), PE 8 = (2,2).
        assert_eq!(m.hops(0, 8, 9), 4);
        assert_eq!(m.channel_latency_s(0, 8, 9), 1e-6 + 4.0 * 5e-7);
        assert_eq!(m.channel_latency_s(0, 1, 9), 1e-6 + 5e-7);
        // Explicit coordinates override the derived mesh.
        let m = m.with_coords(vec![(0, 0), (7, 0)]);
        assert_eq!(m.hops(0, 1, 2), 7);
    }

    #[test]
    fn usable_cycles_respects_cap() {
        let m = MachineSpec::default_eval();
        assert!(m.usable_cycles_per_sec() < m.pe_clock_hz);
        assert!((m.usable_cycles_per_sec() - 950_000.0).abs() < 1e-6);
    }
}
