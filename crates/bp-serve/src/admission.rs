//! Admission control: slot limits, shed/defer backpressure, and the
//! deterministic admission log.
//!
//! The host holds at most `max_active` live tenants. An offer that finds
//! a free slot is **admitted** (instantiated immediately). When slots
//! are full the configured [`AdmissionPolicy`] decides: `Shed` rejects
//! the offer outright; `Defer` parks it in a bounded FIFO queue and
//! **promotes** it when a slot frees at a later round boundary — an
//! offer that finds the queue full is shed even under `Defer`.
//!
//! Every offer receives exactly one terminal verdict at offer time —
//! admitted, deferred, or shed — so the conservation invariant
//! `admitted + deferred + shed == offered` holds by construction (a
//! later promotion is a separate log event, not a new verdict). The log
//! is a pure function of the offer sequence and the round at which each
//! slot frees, so its FNV digest is a replay fingerprint: same specs,
//! same seed, same digest.

use bp_core::Fnv;

/// Backpressure policy when every active slot is taken.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Reject the offer.
    Shed,
    /// Queue the offer (FIFO) and admit it when a slot frees; shed only
    /// when the queue itself is full.
    #[default]
    Defer,
}

/// Admission-layer configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum co-resident (admitted, unfinished) tenants.
    pub max_active: usize,
    /// Capacity of the defer queue (ignored under [`AdmissionPolicy::Shed`]).
    pub queue_capacity: usize,
    /// Policy when active slots are exhausted.
    pub policy: AdmissionPolicy,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            max_active: usize::MAX,
            queue_capacity: usize::MAX,
            policy: AdmissionPolicy::Defer,
        }
    }
}

impl AdmissionConfig {
    /// Unbounded admission (every offer admitted immediately).
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// At most `max_active` co-resident tenants. Zero slots would admit
    /// nothing: [`crate::FleetHost::run`] refuses them.
    pub fn with_max_active(mut self, max_active: usize) -> Self {
        self.max_active = max_active;
        self
    }

    /// Bound the defer queue.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Set the backpressure policy.
    pub fn with_policy(mut self, policy: AdmissionPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// Terminal verdict of one offer, or a later queue promotion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// Instantiated into a free slot at offer time.
    Admitted,
    /// Parked in the defer queue.
    Deferred,
    /// Rejected (slots full and policy is `Shed`, or defer queue full).
    Shed,
    /// A previously deferred offer took a freed slot.
    Promoted,
}

impl AdmissionVerdict {
    fn code(self) -> u64 {
        match self {
            AdmissionVerdict::Admitted => 1,
            AdmissionVerdict::Deferred => 2,
            AdmissionVerdict::Shed => 3,
            AdmissionVerdict::Promoted => 4,
        }
    }
}

/// One admission-log entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdmissionEvent {
    /// Fleet round at which the event occurred.
    pub round: u64,
    /// Offer ordinal (position in the offer sequence, starting at 0).
    pub offer: u32,
    /// Tenant display name.
    pub name: String,
    /// What happened.
    pub verdict: AdmissionVerdict,
}

/// The admission layer's deterministic outcome: conservation counters
/// plus the full event log.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AdmissionReport {
    /// Offers presented to the host.
    pub offered: u64,
    /// Offers admitted at offer time.
    pub admitted: u64,
    /// Offers parked in the defer queue at offer time.
    pub deferred: u64,
    /// Offers rejected.
    pub shed: u64,
    /// Deferred offers later promoted into a freed slot.
    pub promoted: u64,
    /// Every admission event in order.
    pub log: Vec<AdmissionEvent>,
}

impl AdmissionReport {
    pub(crate) fn record(&mut self, round: u64, offer: u32, name: &str, verdict: AdmissionVerdict) {
        match verdict {
            AdmissionVerdict::Admitted => self.admitted += 1,
            AdmissionVerdict::Deferred => self.deferred += 1,
            AdmissionVerdict::Shed => self.shed += 1,
            AdmissionVerdict::Promoted => self.promoted += 1,
        }
        self.log.push(AdmissionEvent {
            round,
            offer,
            name: name.to_string(),
            verdict,
        });
    }

    /// The conservation invariant: every offer got exactly one terminal
    /// verdict.
    pub fn conserves(&self) -> bool {
        self.admitted + self.deferred + self.shed == self.offered
    }

    /// FNV-1a digest of the full log (rounds, offer ordinals, names,
    /// verdicts) — the replay fingerprint for the admission layer.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.log.len() as u64);
        for e in &self.log {
            h.u64(e.round);
            h.u64(e.offer as u64);
            h.str(&e.name);
            h.u64(e.verdict.code());
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counters_follow_verdicts_and_conserve() {
        let mut r = AdmissionReport {
            offered: 3,
            ..Default::default()
        };
        r.record(0, 0, "a", AdmissionVerdict::Admitted);
        r.record(0, 1, "b", AdmissionVerdict::Deferred);
        r.record(0, 2, "c", AdmissionVerdict::Shed);
        r.record(4, 1, "b", AdmissionVerdict::Promoted);
        assert!(r.conserves());
        assert_eq!((r.admitted, r.deferred, r.shed, r.promoted), (1, 1, 1, 1));
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let mut a = AdmissionReport::default();
        a.record(0, 0, "a", AdmissionVerdict::Admitted);
        a.record(1, 1, "b", AdmissionVerdict::Shed);
        let mut b = AdmissionReport::default();
        b.record(1, 1, "b", AdmissionVerdict::Shed);
        b.record(0, 0, "a", AdmissionVerdict::Admitted);
        assert_ne!(a.digest(), b.digest());
        let mut c = a.clone();
        assert_eq!(a.digest(), c.digest());
        c.log[1].verdict = AdmissionVerdict::Deferred;
        assert_ne!(a.digest(), c.digest());
    }
}
