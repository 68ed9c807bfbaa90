//! The retired sharded simulator's name, kept only for the `benchmark/`
//! package's `parallel.*` probes and removed with them. It runs
//! [`TimedSimulator`], ignores the thread count and reports one shard.

use crate::stats::SimReport;
use crate::timed::{SimConfig, TimedSimulator};
use crate::trace::Trace;
use bp_core::{AppGraph, Mapping, Result};

/// The schedule a probe reads: always one shard and no windows.
pub struct ParallelRunStats {
    /// Always 1.
    pub shards: usize,
    /// Always 0.
    pub windows: u64,
    /// Always empty.
    pub shard_events: Vec<u64>,
}

/// [`TimedSimulator`] under the retired engine's name.
pub struct ParallelTimedSimulator(TimedSimulator);

impl ParallelTimedSimulator {
    /// [`TimedSimulator::new`]; the thread count is ignored.
    pub fn new(graph: &AppGraph, mapping: &Mapping, config: SimConfig, _: usize) -> Result<Self> {
        TimedSimulator::new(graph, mapping, config).map(Self)
    }

    /// [`TimedSimulator::run_with_artifacts`] without the tape, plus
    /// one-shard stats.
    pub fn run_with_stats(self) -> Result<(SimReport, Option<Trace>, ParallelRunStats)> {
        let (report, trace, _) = self.0.run_with_artifacts()?;
        let stats = ParallelRunStats {
            shards: 1,
            windows: 0,
            shard_events: Vec::new(),
        };
        Ok((report, trace, stats))
    }
}
