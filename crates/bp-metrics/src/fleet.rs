//! Per-tenant tape namespacing and fleet-level aggregation.
//!
//! A fleet host ([`bp-serve`]) runs many independent simulations in one
//! process, each producing its own [`MetricsTape`]. This module keeps the
//! per-tenant tapes *first-class and unmerged* — the serving contract is
//! that every tenant's tape is bitwise identical to its solo run, so the
//! tapes must never be blended — and layers two things on top:
//!
//! - [`TenantTape`]: a tape namespaced by tenant identity (stable fleet
//!   id, display name, app shape key), with a tenant-scoped digest that
//!   commits to both the identity and the tape bits;
//! - [`FleetTape`]: the ordered collection of tenant tapes with a
//!   fleet-level digest, a deterministic aggregate summary
//!   ([`FleetAggregate`]) over QoS verdicts / firing totals / worst-case
//!   latency quantiles, and a JSONL export whose lines are scoped by
//!   tenant header records.
//!
//! [`bp-serve`]: https://docs.rs/bp-serve

use crate::tape::MetricsTape;
use bp_core::Fnv;

/// One tenant's metrics tape, namespaced by its fleet identity.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantTape {
    /// Stable tenant id (admission order in the fleet host).
    pub tenant: u32,
    /// Display name, unique per fleet run.
    pub name: String,
    /// Canonical app-shape key (`bp_codegen::shape_key`) the tenant's
    /// instance was built from — ties the tape to the shared lowering.
    pub shape_key: u64,
    /// The tenant's own tape, exactly as its solo run would produce it.
    pub tape: MetricsTape,
}

impl TenantTape {
    /// Tenant-scoped digest: commits to the identity fields *and* the
    /// tape's own digest, so two tenants with identical tapes still have
    /// distinct digests and any tape bit-flip changes the value.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.tenant as u64);
        h.str(&self.name);
        h.u64(self.shape_key);
        h.u64(self.tape.digest());
        h.finish()
    }
}

/// Fleet-level aggregate over the per-tenant final summaries. Every field
/// is a pure fold over tenant tapes in tenant order, so the aggregate is
/// deterministic whenever the tapes are.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FleetAggregate {
    /// Tenants contributing to the aggregate.
    pub tenants: u32,
    /// Tenants whose QoS contracts all held.
    pub qos_met: u32,
    /// Total completed firings across the fleet.
    pub total_firings: u64,
    /// Total completed frames across the fleet.
    pub total_frames: u64,
    /// Worst per-tenant p99 firing latency in nanoseconds.
    pub worst_firing_p99_ns: u64,
    /// Worst per-tenant p99 end-to-end frame latency in nanoseconds.
    pub worst_frame_latency_p99_ns: u64,
    /// Total source input overruns across the fleet.
    pub total_input_overruns: u64,
    /// Total per-node budget overruns across the fleet.
    pub total_budget_overruns: u64,
}

/// The ordered per-tenant tapes of one fleet run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FleetTape {
    /// Tenant tapes in tenant-id order.
    pub tenants: Vec<TenantTape>,
}

impl FleetTape {
    /// Empty fleet tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one tenant's tape.
    pub fn push(&mut self, tenant: TenantTape) {
        self.tenants.push(tenant);
    }

    /// Fleet digest: length-separated fold of every tenant-scoped digest
    /// in order. Changes when any tenant's identity or tape changes, when
    /// tenants reorder, and when one is added or dropped.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.tenants.len() as u64);
        for t in &self.tenants {
            h.u64(t.digest());
        }
        h.finish()
    }

    /// Fold the per-tenant final summaries into the fleet aggregate.
    pub fn aggregate(&self) -> FleetAggregate {
        let mut agg = FleetAggregate {
            tenants: self.tenants.len() as u32,
            ..Default::default()
        };
        for t in &self.tenants {
            let f = &t.tape.fin;
            if f.qos.met {
                agg.qos_met += 1;
            }
            agg.total_firings += f.total_firings;
            agg.total_frames += f.frames_completed as u64;
            agg.worst_firing_p99_ns = agg.worst_firing_p99_ns.max(f.firing_p99_ns);
            agg.worst_frame_latency_p99_ns =
                agg.worst_frame_latency_p99_ns.max(f.frame_latency_p99_ns);
            agg.total_input_overruns += f.qos.input_overruns;
            agg.total_budget_overruns += f.qos.budget_overruns;
        }
        agg
    }

    /// JSONL export: per tenant, one `"tenant"` header record (identity +
    /// tenant-scoped digest) followed by the tenant's own tape lines
    /// verbatim — consumers scope tape lines to the most recent header —
    /// and one final `"fleet"` aggregate record.
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for t in &self.tenants {
            let _ = writeln!(
                out,
                "{{\"record\":\"tenant\",\"tenant\":{},\"name\":{:?},\"shape_key\":\"{:016x}\",\"digest\":\"{:016x}\"}}",
                t.tenant,
                t.name,
                t.shape_key,
                t.digest()
            );
            out.push_str(&t.tape.to_jsonl());
        }
        let a = self.aggregate();
        let _ = writeln!(
            out,
            "{{\"record\":\"fleet\",\"tenants\":{},\"qos_met\":{},\"total_firings\":{},\"total_frames\":{},\"worst_firing_p99_ns\":{},\"worst_frame_latency_p99_ns\":{},\"total_input_overruns\":{},\"total_budget_overruns\":{},\"digest\":\"{:016x}\"}}",
            a.tenants,
            a.qos_met,
            a.total_firings,
            a.total_frames,
            a.worst_firing_p99_ns,
            a.worst_frame_latency_p99_ns,
            a.total_input_overruns,
            a.total_budget_overruns,
            self.digest()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::MetricsRecorder;
    use bp_core::QosSpec;

    fn sample_tape(busy: f64) -> MetricsTape {
        let mut rec = MetricsRecorder::new(1e-3, 1, 1, 0);
        rec.firing_complete(busy, 0, 0, busy);
        MetricsTape::assemble(&mut rec, &QosSpec::none(), &[busy], &[busy / 2.0], busy)
    }

    fn tenant(id: u32, name: &str, busy: f64) -> TenantTape {
        TenantTape {
            tenant: id,
            name: name.to_string(),
            shape_key: 0xfeed ^ id as u64,
            tape: sample_tape(busy),
        }
    }

    #[test]
    fn tenant_digest_commits_to_identity_and_tape() {
        let a = tenant(0, "cam-0", 1e-3);
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest());
        b.name = "cam-1".to_string();
        assert_ne!(a.digest(), b.digest());
        let c = tenant(1, "cam-0", 1e-3);
        assert_ne!(a.digest(), c.digest());
        let d = tenant(0, "cam-0", 2e-3);
        assert_ne!(a.digest(), d.digest());
    }

    #[test]
    fn fleet_digest_is_order_and_membership_sensitive() {
        let (a, b) = (tenant(0, "a", 1e-3), tenant(1, "b", 2e-3));
        let mut fwd = FleetTape::new();
        fwd.push(a.clone());
        fwd.push(b.clone());
        let mut rev = FleetTape::new();
        rev.push(b);
        rev.push(a);
        assert_ne!(fwd.digest(), rev.digest());
        let mut short = FleetTape::new();
        short.push(tenant(0, "a", 1e-3));
        assert_ne!(fwd.digest(), short.digest());
    }

    #[test]
    fn aggregate_folds_and_jsonl_scopes_by_tenant() {
        let mut fleet = FleetTape::new();
        fleet.push(tenant(0, "a", 1e-3));
        fleet.push(tenant(1, "b", 2e-3));
        let agg = fleet.aggregate();
        assert_eq!(agg.tenants, 2);
        assert_eq!(agg.total_firings, 2);
        assert_eq!(agg.total_frames, 2);
        let jsonl = fleet.to_jsonl();
        assert_eq!(
            jsonl
                .lines()
                .filter(|l| l.starts_with("{\"record\":\"tenant\""))
                .count(),
            2
        );
        assert!(jsonl.ends_with('\n'));
        assert!(jsonl
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"record\":\"fleet\""));
    }
}
