//! # bp-sim — functional and timing-accurate simulators
//!
//! Executable semantics for block-parallel application graphs.
//!
//! - [`runtime`]: shared firing machinery — method trigger matching and
//!   automatic control-token forwarding (§II-C).
//! - [`functional`]: deterministic untimed execution (the golden semantics
//!   used for correctness testing).
//! - [`timed`]: the timing-accurate functional simulator of §IV-D, modeling
//!   kernel execution cycles, per-word input read / output write time,
//!   channel capacity, per-PE time multiplexing and scheduling, plus a
//!   configurable inter-PE communication delay model
//!   ([`bp_core::CommModel`]; the zero default matches the paper's
//!   no-delay simplification bit for bit).
//! - [`step`]: the same engine advanced a bounded number of events per
//!   call, bitwise identical to a one-shot run — what the fleet host
//!   co-schedules tenants on.
//! - [`deadlock`]: structured capacity-deadlock diagnostics — the
//!   [`DeadlockReport`] the timed engine assembles when a simulation
//!   wedges, and the [`SimOutcome`] returned by its `run_outcome` entry
//!   points.
//! - [`events`]: the pending-event queue the timed engine schedules on, a
//!   binary heap keyed on `(time bits, ordinal)`.
//! - [`stats`]: per-PE utilization (run/read/write breakdown), throughput
//!   measurement, and real-time verdicts.
//! - [`parallel`]: a host-side batch runner for simulation sweeps (each
//!   simulation stays deterministic and single-threaded; only the batch is
//!   threaded).
//! - [`trace`]: deterministic event tracing — firings, queue depths, token
//!   arrivals, and stall attribution — inert with respect to simulation
//!   results.
//! - [`chrome`]: Chrome trace-event JSON export (Perfetto-loadable) and a
//!   dependency-free JSON well-formedness checker.

#![warn(missing_docs)]

pub mod chrome;
pub mod deadlock;
pub mod events;
pub mod functional;
pub mod parallel;
pub mod runtime;
pub mod stats;
pub mod step;
pub mod timed;
mod timed_parallel;
pub mod trace;

pub use bp_core::{CommModel, CommProfile, MetricsPolicy, QosSpec};
pub use bp_metrics::{MetricsFinal, MetricsSnapshot, MetricsTape, QosReport};
pub use chrome::{chrome_trace_json, validate_json};
pub use deadlock::{CapacityBump, DeadlockHop, DeadlockReport, SimOutcome};
pub use events::{BucketQueue, Event, EventQueue};
pub use functional::FunctionalExecutor;
pub use parallel::{run_batch, run_batch_with_workers};
pub use runtime::{Action, Program, RtNode, SourceRt};
pub use stats::{PeStats, RealTimeVerdict, SimReport};
pub use step::SteppableSim;
pub use timed::{derive_channel_capacity, Backend, SimConfig, TimedSimulator};
pub use timed_parallel::{ParallelRunStats, ParallelTimedSimulator};
pub use trace::{
    ChannelHighWater, StallCause, Trace, TraceChannel, TraceEvent, TraceMeta, TraceOptions,
};
