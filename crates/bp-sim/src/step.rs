//! Resumable, event-budgeted simulation stepping.
//!
//! [`SteppableSim`] is the sequential timed engine behind an incremental
//! entry point: instead of draining the event queue in one call, the owner
//! advances the simulation a bounded number of events at a time and may
//! interleave many independent simulations in one thread (or partition
//! them across threads). This is the engine entry point the fleet host
//! (`bp-serve`) co-schedules tenants on.
//!
//! ## Simulation preservation
//!
//! Stepping is *chunk-invariant by construction*: every [`step`] call pops
//! and handles exactly the events a full [`crate::TimedSimulator::run`]
//! would have handled next, in the same `(t, ord)` order, with the same
//! per-event code (`Engine::run` is the one event loop, here bounded by a
//! smaller event budget). The simulation owns its
//! entire state — event queue, virtual clock, node state, recorders — so
//! interleaving *other* simulations between two `step` calls cannot
//! perturb it. Consequently the final [`SimReport`] fingerprint and
//! [`MetricsTape`] digest are bitwise identical to a solo uninterrupted
//! run, whatever the step sizes; the serving differential suite pins this
//! contract (DESIGN.md §16).
//!
//! [`step`]: SteppableSim::step

use crate::deadlock::SimOutcome;
use crate::stats::SimReport;
use crate::timed::{build_shared, Engine, SimConfig};
use bp_core::graph::AppGraph;
use bp_core::machine::Mapping;
use bp_core::Result;
use bp_metrics::MetricsTape;

/// A sequential timed simulation that advances a bounded number of events
/// per call. See the module docs for the chunk-invariance contract. It
/// owns everything it runs over, so a fleet host may move it across worker
/// threads between rounds.
pub struct SteppableSim {
    sim: Engine,
    initialized: bool,
    processed: u64,
}

impl SteppableSim {
    /// Instantiate the graph under the given mapping, exactly as
    /// [`crate::TimedSimulator::new`] would. No event is processed until
    /// the first [`step`](Self::step).
    pub fn new(graph: &AppGraph, mapping: &Mapping, config: SimConfig) -> Result<Self> {
        let (nodes, shared) = build_shared(graph, mapping, config)?;
        Ok(Self {
            sim: Engine::new(nodes, shared),
            initialized: false,
            processed: 0,
        })
    }

    /// Advance the simulation by at most `max_events` events and return
    /// how many were processed. The first call additionally fires the
    /// startup constants and seeds the sources (outside the budget, as in
    /// a full run they precede the first pop). A short count means the
    /// simulation settled: the queue drained before the budget did.
    pub fn step(&mut self, max_events: usize) -> usize {
        if !self.initialized {
            self.initialized = true;
            self.sim.init();
        }
        let done = self.sim.run(max_events);
        self.processed += done as u64;
        done
    }

    /// True when the simulation has settled: it was started and no pending
    /// event remains. Further [`step`](Self::step) calls process nothing.
    pub fn is_done(&self) -> bool {
        self.initialized && self.sim.is_idle()
    }

    /// Current virtual time (timestamp of the last processed event).
    pub fn now(&self) -> f64 {
        self.sim.now()
    }

    /// Timestamp of the earliest pending event (`+inf` when none).
    pub fn next_event_time(&self) -> f64 {
        self.sim.next_pending()
    }

    /// Total events processed across all [`step`](Self::step) calls.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Settle the run into its outcome and metrics tape. Call after
    /// [`is_done`](Self::is_done); finishing early simply reports the
    /// simulation as it stands (typically a capacity-deadlock diagnosis or
    /// an incomplete frame count).
    pub fn finish(self) -> (SimOutcome, Option<MetricsTape>) {
        let (outcome, _, tape) = self.sim.finish();
        (outcome, tape)
    }

    /// [`finish`](Self::finish), unwrapped to a completed [`SimReport`]
    /// (a capacity deadlock becomes a simulation error carrying the
    /// rendered diagnosis).
    pub fn finish_report(self) -> Result<(SimReport, Option<MetricsTape>)> {
        let (outcome, tape) = self.finish();
        Ok((outcome.into_report()?, tape))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timed::TimedSimulator;
    use bp_core::{Dim2, GraphBuilder};

    fn small_graph() -> AppGraph {
        let dim = Dim2::new(20, 12);
        let mut b = GraphBuilder::new();
        let src = b.add_source("In", bp_kernels::pattern_source(dim), dim, 50.0);
        let k = b.add("K", bp_kernels::scale(2.0, 0.0));
        let (sdef, _) = bp_kernels::sink();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", k, "in");
        b.connect(k, "out", snk, "in");
        b.build().unwrap()
    }

    /// Stepping in any chunk size reproduces the one-shot run bit for bit.
    #[test]
    fn stepped_run_matches_one_shot() {
        let g = small_graph();
        let mapping = Mapping::one_to_one(g.node_count());
        let config = SimConfig::new(2);
        let want = TimedSimulator::new(&g, &mapping, config.clone())
            .unwrap()
            .run()
            .unwrap()
            .fingerprint();
        for budget in [1usize, 3, 7, 1024] {
            let mut sim = SteppableSim::new(&g, &mapping, config.clone()).unwrap();
            while !sim.is_done() {
                sim.step(budget);
            }
            let (report, _) = sim.finish_report().unwrap();
            assert_eq!(report.fingerprint(), want, "budget {budget} diverged");
        }
    }

    /// A tenant stepped on one thread, moved, and finished on another —
    /// what the fleet host does between rounds. `Send` is derived from the
    /// fields, not asserted by hand.
    #[test]
    fn stepping_survives_a_thread_hop() {
        fn assert_send<T: Send>() {}
        assert_send::<SteppableSim>();
        let g = small_graph();
        let mapping = Mapping::one_to_one(g.node_count());
        let want = TimedSimulator::new(&g, &mapping, SimConfig::new(2))
            .unwrap()
            .run()
            .unwrap()
            .fingerprint();
        let mut sim = SteppableSim::new(&g, &mapping, SimConfig::new(2)).unwrap();
        sim.step(9);
        let report = std::thread::spawn(move || {
            while !sim.is_done() {
                sim.step(13);
            }
            sim.finish_report().unwrap().0
        })
        .join()
        .expect("stepping thread panicked");
        assert_eq!(report.fingerprint(), want);
    }

    /// The wrapper stays valid when moved between steps.
    #[test]
    fn stepping_survives_moves() {
        let g = small_graph();
        let mapping = Mapping::one_to_one(g.node_count());
        let want = TimedSimulator::new(&g, &mapping, SimConfig::new(1))
            .unwrap()
            .run()
            .unwrap()
            .fingerprint();
        let mut sim = SteppableSim::new(&g, &mapping, SimConfig::new(1)).unwrap();
        sim.step(5);
        let mut moved = Box::new(sim);
        moved.step(5);
        let mut back = *moved;
        while !back.is_done() {
            back.step(11);
        }
        let (report, _) = back.finish_report().unwrap();
        assert_eq!(report.fingerprint(), want);
    }
}
