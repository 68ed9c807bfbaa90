//! Tenant specifications and per-tenant runtime state.

use bp_core::machine::Mapping;
use bp_core::QosSpec;
use bp_metrics::MetricsTape;
use bp_sim::{SimConfig, SimReport, TimedSimulator};

/// Everything needed to instantiate one tenant: a *compiled* application
/// graph (the output of `bp_compiler::compile`), its PE mapping, and the
/// simulation configuration. The spec is the unit of admission; the host
/// clones nothing from it after instantiation, so a solo reference run
/// built from the same spec is the serving differential's oracle.
#[derive(Clone)]
pub struct TenantSpec {
    /// Display name, unique per fleet run.
    pub name: String,
    /// Compiled application graph.
    pub graph: bp_core::graph::AppGraph,
    /// Kernel-to-PE mapping for the graph.
    pub mapping: Mapping,
    /// Simulation configuration (frames, backend, comm model, metrics
    /// policy).
    pub config: SimConfig,
    /// Declared per-tenant real-time contracts. When the spec carries a
    /// metrics policy the host folds these into it so the tenant's tape
    /// reports a QoS verdict.
    pub qos: QosSpec,
    /// Fleet round at which the tenant arrives (0 = before the first
    /// round). Offers are processed at round boundaries in arrival order.
    pub arrival_round: u64,
}

impl TenantSpec {
    /// A spec with default QoS (none) and immediate arrival.
    pub fn new(
        name: impl Into<String>,
        graph: bp_core::graph::AppGraph,
        mapping: Mapping,
        config: SimConfig,
    ) -> Self {
        Self {
            name: name.into(),
            graph,
            mapping,
            config,
            qos: QosSpec::none(),
            arrival_round: 0,
        }
    }

    /// Attach QoS contracts.
    pub fn with_qos(mut self, qos: QosSpec) -> Self {
        self.qos = qos;
        self
    }

    /// Arrive at the given fleet round.
    pub fn with_arrival_round(mut self, round: u64) -> Self {
        self.arrival_round = round;
        self
    }
}

/// An admitted tenant's live state inside the host.
pub(crate) struct Tenant {
    /// Stable fleet id (admission order).
    pub(crate) id: u32,
    pub(crate) name: String,
    pub(crate) shape_key: u64,
    pub(crate) sim: TimedSimulator,
    pub(crate) admitted_round: u64,
    pub(crate) rounds_stepped: u64,
}

/// One finished tenant's results: the full solo-equivalent [`SimReport`]
/// (fingerprint included), the metrics tape when the spec asked for one,
/// and the host-side accounting.
#[derive(Clone, Debug)]
pub struct TenantReport {
    /// Stable fleet id (admission order).
    pub tenant: u32,
    /// Tenant display name.
    pub name: String,
    /// Canonical shape key of the tenant's graph.
    pub shape_key: u64,
    /// The simulation report, bitwise identical to a solo run of the spec.
    pub report: SimReport,
    /// The metrics tape, when a [`bp_core::MetricsPolicy`] was attached.
    pub tape: Option<MetricsTape>,
    /// Round at which the tenant was admitted (instantiated).
    pub admitted_round: u64,
    /// Round after which the tenant settled.
    pub finished_round: u64,
    /// Rounds in which the tenant was stepped.
    pub rounds_stepped: u64,
    /// Total events the tenant processed.
    pub events: u64,
}
