//! # bp-core — the block-parallel program representation
//!
//! Core IR for the block-parallel programming model of Black-Schaffer &
//! Dally (ICPP 2010): applications are graphs of *kernels* connected by FIFO
//! channels carrying two-dimensional data in fixed scan-line order, extended
//! with control tokens, multiple methods per kernel, data-dependency edges,
//! and explicit real-time input rates.
//!
//! The crate provides:
//! - [`geometry`]: window/step/offset arithmetic (halos, iteration counts,
//!   steady-state reuse);
//! - [`item`]: the stream data model ([`Window`]s of `f64` samples and
//!   [`ControlToken`]s);
//! - [`port`] and [`method`]: the input/output and method parameterization;
//! - [`kernel`]: [`KernelSpec`] + [`KernelBehavior`] (executable method
//!   bodies) bundled as [`KernelDef`];
//! - [`graph`]: the [`AppGraph`] with channels, dependency edges, and
//!   real-time source specifications, plus a [`GraphBuilder`].
//!
//! Compiler analyses live in `bp-compiler`, executable semantics in
//! `bp-sim`, and a standard kernel library in `bp-kernels`.

#![warn(missing_docs)]

pub mod capacity;
pub mod error;
pub mod fnv;
pub mod geometry;
pub mod graph;
pub mod item;
pub mod kernel;
pub mod machine;
pub mod method;
pub mod port;
pub mod qos;
pub mod rng;
pub mod token;

pub use capacity::{
    derive_channel_capacities, derive_default_capacity, feedback_loops, ChannelCapacities, LoopInfo,
};
pub use error::{BpError, Result};
pub use fnv::Fnv;
pub use geometry::{Dim2, Offset2, Step2};
pub use graph::{
    AppGraph, Channel, ChannelId, ChannelMap, DepEdge, GraphBuilder, Node, NodeId, PortRef,
    SourceInfo,
};
pub use item::{Item, Window};
pub use kernel::{
    BehaviorFactory, Emitter, FireData, KernelBehavior, KernelDef, KernelSpec, NodeRole,
    Parallelism, ShapeTransform,
};
pub use machine::{CommModel, MachineSpec, Mapping};
pub use method::{
    MethodCost, MethodRow, MethodSpec, MethodTable, ResolvedMethod, Trigger, TriggerOn,
};
pub use port::{InputSpec, Name, OutputSpec};
pub use qos::{MetricsPolicy, QosSpec};
pub use rng::Rng64;
pub use token::{ControlToken, CustomTokenDecl, TokenKind};
