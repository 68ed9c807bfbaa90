//! The six workloads: what one op does, what it is checked against, and the
//! extra measurements (probes) a traced pass takes for the layer ledger.
//!
//! Every op is the whole path from `bp_apps` graph construction to a report,
//! through public entry points in their default modes only. Checks run on
//! what the op returns, after its timer has stopped.
//!
//! This file holds what the workloads share; `stream.rs`, `explore.rs` and
//! `fleet.rs` hold the workloads.

use crate::layers::Ledger;
use crate::spans::{SpanId, Tracer};
use crate::stats;
use bp_compiler::{CompileOptions, Compiled};
use bp_core::graph::AppGraph;
use bp_core::Rng64;
use std::hint::black_box;

pub use crate::explore::Explore;
pub use crate::fleet::Fleet;
pub use crate::stream::Stream;

pub const NAMES: [&str; 6] = [
    "stream_seq",
    "stream_observed",
    "explore_static",
    "bank_seq",
    "coupled_seq",
    "fleet_mixed",
];

/// What a workload is told about the run.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Orders `explore_static`'s configurations and `fleet_mixed`'s offers.
    /// The populations themselves are fixed, so `pes_used` and every
    /// simulated statistic repeat exactly across seeds.
    pub seed: u64,
    /// Worker threads of the traced pass's parallel probes. Timed ops run on
    /// one thread.
    pub threads: usize,
    /// Small sizes, for `--smoke` and the unit tests.
    pub smoke: bool,
}

pub type Counts = Vec<(&'static str, f64)>;

/// What every op returns, whatever the workload.
pub struct Out<X> {
    /// Σ `mapping.num_pes` over the op's compiled graphs.
    pub pes_used: u64,
    /// Digest of everything that must repeat bit for bit across ops.
    pub repeat: u64,
    /// Counts read from the public reports at the layer boundaries.
    pub counts: Counts,
    pub x: X,
}

pub trait Workload: Sized {
    type X;
    /// Input generation, reference outputs and the baselines `check` needs.
    fn setup(name: &str, p: &Params) -> Result<Self, String>;
    fn op(&self, t: &mut Tracer) -> Result<Out<Self::X>, String>;
    fn check(&self, out: &Out<Self::X>) -> Result<(), String>;
    /// Measurements outside any op that the layer ledger needs.
    fn probes(&self, t: &mut Tracer, ledger: &mut Ledger) -> Result<(), String>;
    /// Lines for `--verbose`.
    fn verbose(&self) -> Vec<String> {
        Vec::new()
    }
}

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One FNV-1a step over a whole word: how the digests below are folded.
pub fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100000001b3)
}

/// Run `f` `reps` times as spans named `name`; the median of its wall times.
pub fn probe<T>(
    t: &mut Tracer,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<f64, String> {
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (out, s) = t.span_timed(name, |_| f());
        black_box(out?);
        secs.push(s);
    }
    Ok(stats::median(&secs))
}

/// Re-run `compile()`'s public passes, in its order, on a clone of `graph`,
/// as child spans of the `compile()` span `parent`. Returns false, and
/// records nothing, when the replay does not reproduce `compile()`'s census:
/// then `compile()` no longer is this sequence, and its whole time stays
/// unattributed rather than being guessed at.
pub fn replay_compile(
    t: &mut Tracer,
    parent: Option<SpanId>,
    graph: &AppGraph,
    opts: &CompileOptions,
    want: (usize, usize, usize),
) -> bool {
    use bp_compiler::{
        align, analyze, derive_capacities, fuse_pipelines, insert_buffers, map, parallelize,
    };
    let mark = t.spans.len();
    let mut replay = || -> Result<(usize, usize, usize), String> {
        let mut g = t
            .replay("compiler.validate_s", parent, || {
                let g = graph.clone();
                g.validate().map(|()| g)
            })
            .map_err(err)?;
        t.replay("compiler.align_s", parent, || align(&mut g, opts.align))
            .map_err(err)?;
        t.replay("compiler.buffering_s", parent, || insert_buffers(&mut g))
            .map_err(err)?;
        t.replay("compiler.parallelize_s", parent, || {
            parallelize(&mut g, &opts.machine)
        })
        .map_err(err)?;
        if opts.fuse {
            t.replay("compiler.fuse_s", parent, || fuse_pipelines(&mut g))
                .map_err(err)?;
        }
        let df = t
            .replay("compiler.dataflow_s", parent, || analyze(&g))
            .map_err(err)?;
        let mapping = t.replay("compiler.multiplex_s", parent, || {
            map(&g, &df, &opts.machine, opts.mapping)
        });
        t.replay("compiler.capacities_s", parent, || {
            black_box(derive_capacities(&g))
        });
        // What compile() does last: estimated utilization and the census.
        t.replay("compiler.report_s", parent, || {
            let demand: f64 = df
                .nodes
                .iter()
                .map(|n| n.total_cycles_per_sec(&opts.machine))
                .sum();
            black_box((demand, bp_compiler::pipeline::GraphCensus::of(&g)));
        });
        Ok((g.node_count(), g.channel_count(), mapping.num_pes))
    };
    let same = replay() == Ok(want);
    if !same {
        t.spans.truncate(mark);
    }
    same
}

pub fn census(c: &Compiled) -> (usize, usize, usize) {
    (
        c.report.census.nodes,
        c.report.census.channels,
        c.report.pes_used,
    )
}

/// Sums of the compile reports an op saw, for the `compiler.*` counts.
#[derive(Default)]
pub struct CompileTally {
    graphs: f64,
    nodes: f64,
    channels: f64,
    buffers: f64,
    aligns: f64,
    replicas: f64,
    fused: f64,
    utilization: f64,
    violations: f64,
    pub pes: u64,
}

impl CompileTally {
    pub fn add(&mut self, c: &Compiled, violations: usize) {
        self.graphs += 1.0;
        self.violations += violations as f64;
        self.nodes += c.report.census.nodes as f64;
        self.channels += c.report.census.channels as f64;
        self.buffers += c.report.buffering.inserted.len() as f64;
        self.aligns += c.report.align.inserted.len() as f64;
        self.replicas += c.report.parallelize.total_replicas() as f64;
        self.fused += c.report.fuse.fused.len() as f64;
        self.utilization += c.report.estimated_utilization;
        self.pes += c.report.pes_used as u64;
    }

    pub fn counts(&self) -> Counts {
        vec![
            ("compiler.nodes_out", self.nodes),
            ("compiler.channels_out", self.channels),
            ("compiler.buffers_inserted", self.buffers),
            ("compiler.align_inserted", self.aligns),
            ("compiler.replicas_granted", self.replicas),
            ("compiler.fused_pairs", self.fused),
            (
                "compiler.est_utilization",
                self.utilization / self.graphs.max(1.0),
            ),
            ("compiler.check_violations", self.violations),
            ("compiler.pes_used", self.pes as f64),
        ]
    }
}

/// A visiting order for `n` configurations: a seeded shuffle.
pub fn visiting_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = Rng64::seed_from_u64(seed);
    for i in (1..n).rev() {
        order.swap(i, rng.gen_index(i + 1));
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_order_and_another_seed_another() {
        assert_eq!(visiting_order(64, 3), visiting_order(64, 3));
        assert_ne!(visiting_order(64, 3), visiting_order(64, 4));
        let mut sorted = visiting_order(64, 3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
    }
}
