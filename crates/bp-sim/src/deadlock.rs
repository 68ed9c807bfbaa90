//! Structured capacity-deadlock diagnostics.
//!
//! When a timed simulation settles with a node still holding a fireable
//! plan, the only thing that can have stopped it is downstream capacity —
//! a genuine capacity deadlock. The engine assembles a [`DeadlockReport`]
//! from the settled program state: the wait-for cycle of filled channels
//! with per-channel occupancy, the minimal single-channel capacity bump
//! that would unblock a producer, and the classic stuck-node dump. The
//! report is `PartialEq` and fingerprintable, so cross-planner bitwise
//! identity is assertable exactly like [`SimReport`] equality on
//! successful runs.

use crate::stats::SimReport;
use bp_core::{BpError, Fnv, Result};
use std::fmt::Write as _;

/// One hop of the wait-for cycle: a blocked producer's first full output
/// channel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeadlockHop {
    /// Producing node's instance name.
    pub src: String,
    /// Producing output port name.
    pub src_port: String,
    /// Consuming node's instance name.
    pub dst: String,
    /// Consuming input port name.
    pub dst_port: String,
    /// Items currently held by the channel (queued plus, for a delayed
    /// channel, in flight).
    pub occupancy: usize,
    /// The channel's resolved capacity.
    pub capacity: usize,
}

impl DeadlockHop {
    /// True when the hop channel blocks its producer (`occupancy + 2 >
    /// capacity`, the engine's space rule). Always true for wait-for-cycle
    /// hops; a starved-loop cycle also lists the hops that still have room.
    pub fn is_full(&self) -> bool {
        self.occupancy + 2 > self.capacity
    }

    /// `"Src.out -> Dst.in (occ/cap full)"`, the wait-for-cycle hop format
    /// (the ` full` marker only appears on hops that block their producer).
    pub fn render(&self) -> String {
        format!(
            "{}.{} -> {}.{} ({}/{}{})",
            self.src,
            self.src_port,
            self.dst,
            self.dst_port,
            self.occupancy,
            self.capacity,
            if self.is_full() { " full" } else { "" }
        )
    }
}

/// The smallest single-channel capacity increase that would let one blocked
/// producer on the cycle fire again.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CapacityBump {
    /// The channel to grow, as `"Src.out -> Dst.in"`.
    pub channel: String,
    /// Its current capacity.
    pub current: usize,
    /// The capacity that would unblock its producer (occupancy plus the
    /// engine's 2-item emission slack).
    pub required: usize,
}

/// A structured capacity-deadlock diagnosis, produced identically by both
/// backends of the timed engine.
#[derive(Clone, Debug, PartialEq)]
pub struct DeadlockReport {
    /// Total items queued across every node at settlement.
    pub queued_items: usize,
    /// The cycle of channels implicated in the deadlock, in walk order;
    /// empty when no cycle could be identified (a blocked chain
    /// dead-ending outside any loop).
    pub cycle: Vec<DeadlockHop>,
    /// True when `cycle` is a *wait-for* cycle: every hop's producer is
    /// blocked on the (full) hop channel. False when the blocked producers
    /// form a chain instead and `cycle` is the feedback loop the chain's
    /// head starves on — the loop's circulating population no longer fits
    /// its channel capacities, so only some hops are full.
    pub blocked_cycle: bool,
    /// The minimal single-channel capacity bump that would unblock a
    /// producer on the cycle (`None` when no cycle was found).
    pub min_capacity_bump: Option<CapacityBump>,
    /// The stuck-node dump (per-node queue occupancy), rendered by
    /// [`crate::runtime::stuck_report`].
    pub stuck: String,
}

impl DeadlockReport {
    /// Render the diagnostic message — the exact string
    /// `TimedSimulator::run` returns as its simulation error. The
    /// wait-for-cycle form is byte-identical to the legacy diagnostic.
    pub fn render(&self) -> String {
        if self.cycle.is_empty() {
            return format!(
                "capacity deadlock with {} items queued:\n{}",
                self.queued_items, self.stuck
            );
        }
        let mut s = format!(
            "capacity deadlock with {} items queued; {}: ",
            self.queued_items,
            if self.blocked_cycle {
                "wait-for cycle"
            } else {
                "starved feedback loop"
            }
        );
        for (k, hop) in self.cycle.iter().enumerate() {
            if k > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{}", hop.render());
        }
        s.push('\n');
        s.push_str(&self.stuck);
        s
    }

    /// FNV-1a hash over every field; two reports fingerprint equal iff they
    /// are bitwise identical (every variable-length field folds its length
    /// in first).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.queued_items as u64);
        h.u64(self.blocked_cycle as u64);
        h.u64(self.cycle.len() as u64);
        for hop in &self.cycle {
            h.str(&hop.src);
            h.str(&hop.src_port);
            h.str(&hop.dst);
            h.str(&hop.dst_port);
            h.u64(hop.occupancy as u64);
            h.u64(hop.capacity as u64);
        }
        match &self.min_capacity_bump {
            None => h.u64(0),
            Some(b) => {
                h.u64(1);
                h.str(&b.channel);
                h.u64(b.current as u64);
                h.u64(b.required as u64);
            }
        }
        h.str(&self.stuck);
        h.finish()
    }
}

/// How a timed simulation settled: a completed [`SimReport`], or a capacity
/// deadlock with its structured diagnosis. Returned by
/// `TimedSimulator::run_outcome` and `TimedSimulator::finish`; the plain
/// `run` APIs convert a deadlock into a simulation error carrying
/// [`DeadlockReport::render`].
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum SimOutcome {
    /// The simulation drained cleanly.
    Completed(SimReport),
    /// The simulation settled with blocked producers.
    Deadlocked(DeadlockReport),
}

impl SimOutcome {
    /// The completed report, or the deadlock rendered as a simulation error
    /// (the legacy `run()` contract).
    pub fn into_report(self) -> Result<SimReport> {
        match self {
            SimOutcome::Completed(report) => Ok(report),
            SimOutcome::Deadlocked(d) => Err(BpError::Simulation(d.render())),
        }
    }

    /// The deadlock diagnosis, if the run deadlocked.
    pub fn deadlock(&self) -> Option<&DeadlockReport> {
        match self {
            SimOutcome::Completed(_) => None,
            SimOutcome::Deadlocked(d) => Some(d),
        }
    }

    /// True when the run drained cleanly.
    pub fn is_completed(&self) -> bool {
        matches!(self, SimOutcome::Completed(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(occ: usize) -> DeadlockHop {
        DeadlockHop {
            src: "A".into(),
            src_port: "out".into(),
            dst: "B".into(),
            dst_port: "in".into(),
            occupancy: occ,
            capacity: 64,
        }
    }

    #[test]
    fn render_matches_legacy_shape() {
        let r = DeadlockReport {
            queued_items: 189,
            cycle: vec![hop(63), hop(127)],
            blocked_cycle: true,
            min_capacity_bump: None,
            stuck: "stuck".into(),
        };
        assert_eq!(
            r.render(),
            "capacity deadlock with 189 items queued; wait-for cycle: \
             A.out -> B.in (63/64 full), A.out -> B.in (127/64 full)\nstuck"
        );
        // A starved loop also lists hops with room; those drop the marker.
        let starved = DeadlockReport {
            blocked_cycle: false,
            cycle: vec![hop(63), hop(1)],
            ..r.clone()
        };
        assert_eq!(
            starved.render(),
            "capacity deadlock with 189 items queued; starved feedback loop: \
             A.out -> B.in (63/64 full), A.out -> B.in (1/64)\nstuck"
        );
        let no_cycle = DeadlockReport {
            queued_items: 5,
            cycle: vec![],
            blocked_cycle: false,
            min_capacity_bump: None,
            stuck: "stuck".into(),
        };
        assert_eq!(
            no_cycle.render(),
            "capacity deadlock with 5 items queued:\nstuck"
        );
    }

    #[test]
    fn fingerprint_separates_fields() {
        let a = DeadlockReport {
            queued_items: 1,
            cycle: vec![hop(63)],
            blocked_cycle: true,
            min_capacity_bump: None,
            stuck: String::new(),
        };
        let mut b = a.clone();
        b.cycle[0].occupancy = 62;
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        let mut c = a.clone();
        c.blocked_cycle = false;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}
