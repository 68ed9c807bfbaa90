//! Always-on runtime metrics for the block-parallel simulator.
//!
//! This crate is the *collection and reporting* half of the metrics
//! layer (the declaration half — [`bp_core::MetricsPolicy`] and
//! [`bp_core::QosSpec`] — lives in `bp-core` so graph code can declare
//! contracts without pulling in the machinery):
//!
//! - [`LogHistogram`]: log-bucketed (HDR-style), mergeable latency
//!   histograms over integer nanoseconds that hold only the window of
//!   buckets they have recorded into;
//! - [`MetricsRecorder`]: the streaming recorder the engine drives from
//!   its event loop — per-PE busy intervals, per-node
//!   firing latency, per-channel high-water marks and stall counters,
//!   event-queue depth, violation first-occurrence timestamps;
//! - [`MetricsTape`]: the deterministic snapshot tape assembled after
//!   the run (periodic snapshots + final summary + [`QosReport`]), with
//!   JSONL export, a human summary table, and an FNV digest pinned by
//!   the determinism suite;
//! - [`FleetTape`]/[`TenantTape`]: per-tenant tape namespacing and
//!   fleet-level aggregation for the multi-tenant serving host — tenant
//!   tapes stay unmerged (the serving contract keeps each bitwise equal
//!   to its solo run) and the fleet layer adds scoped digests, a
//!   deterministic aggregate, and tenant-scoped JSONL export.
//!
//! Determinism is the design constraint throughout: every recorded
//! quantity is attributed to simulated time by a pure function of the
//! schedule — so tapes are bitwise identical across backends, and a
//! stepped or co-scheduled run's tape equals its solo run's.

#![warn(missing_docs)]

mod fleet;
mod histogram;
mod recorder;
mod tape;

pub use fleet::{FleetAggregate, FleetTape, TenantTape};
pub use histogram::{LogHistogram, NUM_BUCKETS};
pub use recorder::{IntervalAcc, MetricsRecorder};
pub use tape::{
    ChannelMetrics, MetricsFinal, MetricsSnapshot, MetricsTape, NodeMetrics, QosReport,
};
