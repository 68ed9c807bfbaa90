//! Multi-tenant fleet serving for block-parallel applications.
//!
//! One host process co-schedules many independent application instances
//! ("tenants") behind an admission layer, with per-tenant QoS contracts
//! and always-on metrics (DESIGN.md §16). The crate's load-bearing
//! guarantee is **simulation preservation**: every tenant's
//! [`bp_sim::SimReport`] fingerprint and metrics-tape digest under
//! co-scheduling is bitwise identical to an uninterrupted solo run of
//! the same spec, whatever the round budgets, worker-thread count, or
//! co-resident tenant mix. The differential suite
//! (`tests/serve_differential.rs`) pins this contract.
//!
//! Structure:
//!
//! - [`tenant`]: tenant specs (graph + mapping + config + QoS + rate
//!   limit) and per-tenant reports;
//! - [`admission`]: slot limits, shed/defer backpressure, and the
//!   digest-carrying admission log;
//! - [`host`]: the round-based co-scheduler itself, plus the
//!   [`solo`] oracle runner;
//! - [`loadgen`]: seeded deterministic workload generation (tenant
//!   mixes, arrival processes).

#![warn(missing_docs)]

pub mod admission;
pub mod host;
pub mod loadgen;
pub mod tenant;

pub use admission::{
    AdmissionConfig, AdmissionEvent, AdmissionPolicy, AdmissionReport, AdmissionVerdict,
};
pub use host::{solo, CacheStats, FleetConfig, FleetHost, FleetReport};
pub use loadgen::{generate, Arrival, LoadPlan, TenantMix};
pub use tenant::{TenantReport, TenantSpec};
