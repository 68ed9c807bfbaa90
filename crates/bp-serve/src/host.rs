//! The fleet host: round-based co-scheduling of admitted tenants.
//!
//! ## Scheduling model
//!
//! Time is divided into **rounds**. At each round boundary the host, on
//! one thread and in deterministic order, (1) processes offers whose
//! arrival round is due, (2) promotes deferred offers into freed slots,
//! and (3) retires tenants that settled last round. It then steps every
//! active tenant by its per-round event budget — in tenant-id order on
//! one worker, or partitioned into contiguous tenant ranges across
//! worker threads. Because every tenant is a fully self-contained
//! simulation (a stepped [`bp_sim::TimedSimulator`]) and budgets are
//! fixed at the boundary, the worker count cannot affect any tenant's
//! event sequence: per-tenant results are bitwise identical across
//! worker counts *and* identical to a solo run of the same spec (the
//! serving contract; see DESIGN.md §16).
//!
//! ## Shapes
//!
//! Every tenant instantiates from its own graph: the engine plans from the
//! method table each spec already holds, so there is no per-shape program
//! to share. The host computes each tenant's
//! [`bp_codegen::shape_key`] once, at admission; the tenant's tape and
//! the fleet digest carry it.

use crate::admission::{AdmissionPolicy, AdmissionReport, AdmissionVerdict};
use crate::tenant::{Tenant, TenantReport, TenantSpec};
use bp_core::{BpError, Result};
use bp_metrics::{FleetAggregate, FleetTape, MetricsTape, TenantTape};
use bp_sim::{SimReport, TimedSimulator};
use std::collections::{HashSet, VecDeque};

pub use crate::admission::AdmissionConfig;

/// Fleet-host configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FleetConfig {
    /// Default per-tenant event budget per round (tenants may lower it
    /// via [`TenantSpec::with_events_per_round`]).
    pub round_budget: usize,
    /// Worker threads stepping tenants each round (1 = sequential).
    pub workers: usize,
    /// Admission layer configuration.
    pub admission: AdmissionConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            round_budget: 256,
            workers: 1,
            admission: AdmissionConfig::default(),
        }
    }
}

impl FleetConfig {
    /// Defaults: 256-event rounds, one worker, unbounded admission.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the default per-round event budget. A budget of 0 would never
    /// settle a tenant: [`FleetHost::run`] refuses it.
    pub fn with_round_budget(mut self, events: usize) -> Self {
        self.round_budget = events;
        self
    }

    /// Set the worker-thread count. With no worker nothing steps a
    /// tenant: [`FleetHost::run`] refuses 0.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Set the admission configuration.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = admission;
        self
    }
}

/// How many admitted tenants repeated a shape key the host had already
/// admitted (`hits`) and how many were its first sight (`misses`). Kept only
/// because the frozen benchmark package reads these two counts; nothing
/// is cached any more.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Tenants whose shape key an earlier tenant had.
    pub hits: u64,
    /// Tenants that were the first of their shape key.
    pub misses: u64,
}

/// The finished fleet run: per-tenant reports in tenant-id order plus
/// the admission outcome and host accounting.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Finished tenants, in tenant-id (admission) order.
    pub tenants: Vec<TenantReport>,
    /// Admission counters and log.
    pub admission: AdmissionReport,
    /// Rounds the host ran (including idle rounds waiting for arrivals).
    pub rounds: u64,
    /// Worker threads used.
    pub workers: usize,
    /// Shape-key repeats and first sights over the host's admitted
    /// tenants, at the end of the run.
    pub cache: CacheStats,
}

impl FleetReport {
    /// Total events processed across all tenants.
    pub fn total_events(&self) -> u64 {
        self.tenants.iter().map(|t| t.events).sum()
    }

    /// Assemble the per-tenant metrics tapes (tenants that ran with a
    /// metrics policy) into a [`FleetTape`].
    pub fn fleet_tape(&self) -> FleetTape {
        let mut fleet = FleetTape::new();
        for t in &self.tenants {
            if let Some(tape) = &t.tape {
                fleet.push(TenantTape {
                    tenant: t.tenant,
                    name: t.name.clone(),
                    shape_key: t.shape_key,
                    tape: tape.clone(),
                });
            }
        }
        fleet
    }

    /// Fleet-level aggregate over the tenant tapes.
    pub fn aggregate(&self) -> FleetAggregate {
        self.fleet_tape().aggregate()
    }

    /// Fleet digest over the tenant tapes.
    pub fn fleet_digest(&self) -> u64 {
        self.fleet_tape().digest()
    }
}

/// The multi-tenant serving host. Enqueue specs, then [`run`](Self::run).
pub struct FleetHost {
    config: FleetConfig,
    /// Every shape key admitted so far, and how often one repeated.
    shapes: HashSet<u64>,
    shape_counts: CacheStats,
    pending: Vec<TenantSpec>,
}

impl FleetHost {
    /// A host with no tenants enqueued.
    pub fn new(config: FleetConfig) -> Self {
        Self {
            config,
            shapes: HashSet::new(),
            shape_counts: CacheStats::default(),
            pending: Vec::new(),
        }
    }

    /// Enqueue a tenant offer. Offers are presented at their
    /// `arrival_round` in enqueue order (a stable sort by round).
    pub fn enqueue(&mut self, spec: TenantSpec) {
        self.pending.push(spec);
    }

    /// Run every enqueued offer through admission and co-scheduling to
    /// completion. A round budget, worker count, tenant budget or slot
    /// count of 0, under which the host could never finish, is refused
    /// before round 0.
    /// Other errors propagate from tenant instantiation (e.g. zero frames)
    /// and from settling (a capacity deadlock diagnosis).
    pub fn run(&mut self) -> Result<FleetReport> {
        self.check()?;
        let mut offers = std::mem::take(&mut self.pending);
        offers.sort_by_key(|s| s.arrival_round); // stable: enqueue order within a round
        let mut offers = offers.into_iter().peekable();

        let mut admission = AdmissionReport::default();
        let mut active: Vec<Tenant> = Vec::new();
        let mut deferred: VecDeque<(u32, TenantSpec)> = VecDeque::new();
        let mut finished: Vec<TenantReport> = Vec::new();
        let mut round: u64 = 0;
        let mut offer_ord: u32 = 0;
        let mut next_id: u32 = 0;

        loop {
            // 1. Offers due this round, in arrival order.
            while offers.peek().is_some_and(|s| s.arrival_round <= round) {
                let spec = offers.next().expect("peeked");
                let ord = offer_ord;
                offer_ord += 1;
                admission.offered += 1;
                if active.len() < self.config.admission.max_active {
                    admission.record(round, ord, &spec.name, AdmissionVerdict::Admitted);
                    active.push(self.instantiate(spec, round, &mut next_id)?);
                } else {
                    match self.config.admission.policy {
                        AdmissionPolicy::Shed => {
                            admission.record(round, ord, &spec.name, AdmissionVerdict::Shed);
                        }
                        AdmissionPolicy::Defer => {
                            if deferred.len() < self.config.admission.queue_capacity {
                                admission.record(
                                    round,
                                    ord,
                                    &spec.name,
                                    AdmissionVerdict::Deferred,
                                );
                                deferred.push_back((ord, spec));
                            } else {
                                admission.record(round, ord, &spec.name, AdmissionVerdict::Shed);
                            }
                        }
                    }
                }
            }

            // 2. Promote deferred offers into freed slots, FIFO.
            while active.len() < self.config.admission.max_active {
                let Some((ord, spec)) = deferred.pop_front() else {
                    break;
                };
                admission.record(round, ord, &spec.name, AdmissionVerdict::Promoted);
                active.push(self.instantiate(spec, round, &mut next_id)?);
            }

            if active.is_empty() {
                if offers.peek().is_none() && deferred.is_empty() {
                    break;
                }
                round += 1; // idle round: waiting for a future arrival
                continue;
            }

            // 3. Step every active tenant by its round budget.
            step_round(&mut active, self.config.round_budget, self.config.workers);
            round += 1;

            // 4. Retire settled tenants (frees slots for the next round).
            let mut i = 0;
            while i < active.len() {
                if active[i].sim.is_done() {
                    let t = active.remove(i);
                    finished.push(retire(t, round)?);
                } else {
                    i += 1;
                }
            }
        }

        finished.sort_by_key(|t| t.tenant);
        Ok(FleetReport {
            tenants: finished,
            admission,
            rounds: round,
            workers: self.config.workers,
            cache: self.shape_counts,
        })
    }

    /// The values the round loop needs nonzero to make progress: a step
    /// of 0 events never settles a tenant, no worker steps one, and with
    /// no slot a deferred offer never finds one.
    fn check(&self) -> Result<()> {
        let zero_budget = self.pending.iter().find(|s| s.events_per_round == Some(0));
        let what = if self.config.round_budget == 0 {
            "fleet round_budget".to_string()
        } else if self.config.workers == 0 {
            "fleet workers".to_string()
        } else if self.config.admission.max_active == 0 {
            "fleet admission max_active".to_string()
        } else if let Some(spec) = zero_budget {
            format!("tenant '{}' events_per_round", spec.name)
        } else {
            return Ok(());
        };
        let msg = format!("{what} is 0; it must be at least 1");
        Err(BpError::Simulation(msg))
    }

    fn instantiate(&mut self, spec: TenantSpec, round: u64, next_id: &mut u32) -> Result<Tenant> {
        let sim = TimedSimulator::new(&spec.graph, &spec.mapping, effective_config(&spec))?;
        let shape_key = bp_codegen::shape_key(&spec.graph);
        if self.shapes.insert(shape_key) {
            self.shape_counts.misses += 1;
        } else {
            self.shape_counts.hits += 1;
        }
        let id = *next_id;
        *next_id += 1;
        Ok(Tenant {
            id,
            name: spec.name,
            shape_key,
            sim,
            events_per_round: spec.events_per_round,
            admitted_round: round,
            rounds_stepped: 0,
        })
    }
}

/// The effective per-tenant simulation config: the spec's config with
/// the spec's QoS contracts folded into the metrics policy (attaching QoS
/// enables metrics, since verdicts ride the tape).
fn effective_config(spec: &TenantSpec) -> bp_sim::SimConfig {
    let mut config = spec.config.clone();
    if !spec.qos.is_empty() {
        let policy = config.metrics.take().unwrap_or_default();
        config.metrics = Some(policy.with_contracts(spec.qos.clone()));
    }
    config
}

/// Run one spec solo — uninterrupted, on its own `TimedSimulator`, with
/// the identical effective config the host would use. This
/// is the oracle side of the serving differential: co-scheduling must
/// reproduce this report fingerprint and tape digest bit for bit.
pub fn solo(spec: &TenantSpec) -> Result<(SimReport, Option<MetricsTape>)> {
    let config = effective_config(spec);
    let (report, _, tape) =
        TimedSimulator::new(&spec.graph, &spec.mapping, config)?.run_with_artifacts()?;
    Ok((report, tape))
}

fn step_round(active: &mut [Tenant], default_budget: usize, workers: usize) {
    fn step_one(t: &mut Tenant, default_budget: usize) {
        let budget = t.events_per_round.unwrap_or(default_budget);
        t.sim.step(budget);
        t.rounds_stepped += 1;
    }
    if workers <= 1 || active.len() <= 1 {
        for t in active.iter_mut() {
            step_one(t, default_budget);
        }
    } else {
        // Contiguous tenant ranges, one per worker. Tenants own all of
        // their state, so the partition (and the thread count) cannot
        // affect any tenant's event sequence.
        let chunk = active.len().div_ceil(workers);
        std::thread::scope(|s| {
            for part in active.chunks_mut(chunk) {
                s.spawn(move || {
                    for t in part {
                        step_one(t, default_budget);
                    }
                });
            }
        });
    }
}

fn retire(t: Tenant, finished_round: u64) -> Result<TenantReport> {
    let events = t.sim.events_processed();
    let (report, tape) = t.sim.finish_report()?;
    Ok(TenantReport {
        tenant: t.id,
        name: t.name,
        shape_key: t.shape_key,
        report,
        tape,
        admitted_round: t.admitted_round,
        finished_round,
        rounds_stepped: t.rounds_stepped,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::machine::Mapping;
    use bp_core::{Dim2, GraphBuilder};
    use bp_sim::SimConfig;

    fn spec(name: &str, w: u32, frames: u32) -> TenantSpec {
        let dim = Dim2::new(w, 8);
        let mut b = GraphBuilder::new();
        let src = b.add_source("In", bp_kernels::pattern_source(dim), dim, 50.0);
        let k = b.add("K", bp_kernels::scale(2.0, 0.0));
        let (sdef, _) = bp_kernels::sink();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", k, "in");
        b.connect(k, "out", snk, "in");
        let graph = b.build().unwrap();
        let mapping = Mapping::one_to_one(graph.node_count());
        TenantSpec::new(name, graph, mapping, SimConfig::new(frames))
    }

    #[test]
    fn coscheduled_tenants_match_their_solo_runs() {
        let specs = [spec("a", 16, 2), spec("b", 24, 3), spec("c", 16, 1)];
        let mut host = FleetHost::new(FleetConfig::new().with_round_budget(7));
        for s in &specs {
            host.enqueue(s.clone());
        }
        let report = host.run().unwrap();
        assert_eq!(report.tenants.len(), 3);
        assert!(report.admission.conserves());
        for (s, t) in specs.iter().zip(&report.tenants) {
            let (solo_report, _) = solo(s).unwrap();
            assert_eq!(
                t.report.fingerprint(),
                solo_report.fingerprint(),
                "tenant {} diverged from its solo run",
                t.name
            );
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let specs = [
            spec("a", 16, 2),
            spec("b", 24, 2),
            spec("c", 32, 2),
            spec("d", 16, 3),
        ];
        let mut digests = Vec::new();
        for workers in [1usize, 2, 4] {
            let mut host = FleetHost::new(
                FleetConfig::new()
                    .with_round_budget(5)
                    .with_workers(workers),
            );
            for s in &specs {
                host.enqueue(s.clone());
            }
            let report = host.run().unwrap();
            digests.push((
                report.admission.digest(),
                report
                    .tenants
                    .iter()
                    .map(|t| t.report.fingerprint())
                    .collect::<Vec<_>>(),
            ));
        }
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[0], digests[2]);
    }

    #[test]
    fn shed_and_defer_respect_slot_limits() {
        // Two slots, shed policy: third concurrent offer is dropped.
        let mut host = FleetHost::new(
            FleetConfig::new().with_admission(
                AdmissionConfig::unbounded()
                    .with_max_active(2)
                    .with_policy(AdmissionPolicy::Shed),
            ),
        );
        for (i, name) in ["a", "b", "c"].iter().enumerate() {
            host.enqueue(spec(name, 16, 2 + i as u32));
        }
        let report = host.run().unwrap();
        assert!(report.admission.conserves());
        assert_eq!(report.admission.shed, 1);
        assert_eq!(report.tenants.len(), 2);

        // Defer policy: the third offer waits for a slot and still runs.
        let mut host = FleetHost::new(
            FleetConfig::new()
                .with_round_budget(8)
                .with_admission(AdmissionConfig::unbounded().with_max_active(2)),
        );
        for (i, name) in ["a", "b", "c"].iter().enumerate() {
            host.enqueue(spec(name, 16, 2 + i as u32));
        }
        let report = host.run().unwrap();
        assert!(report.admission.conserves());
        assert_eq!(report.admission.deferred, 1);
        assert_eq!(report.admission.promoted, 1);
        assert_eq!(report.tenants.len(), 3);
        let deferred_spec = spec("c", 16, 4);
        let (solo_report, _) = solo(&deferred_spec).unwrap();
        assert_eq!(
            report.tenants[2].report.fingerprint(),
            solo_report.fingerprint(),
            "promotion must not perturb the tenant's simulation"
        );
    }

    /// Each value the round loop needs nonzero to finish is refused before
    /// round 0 with a typed error naming it (and the tenant, for a
    /// tenant's own budget).
    #[test]
    fn zero_budgets_and_slots_are_typed_errors() {
        let ok = FleetConfig::new();
        let mut defer = ok;
        defer.admission.max_active = 0;
        let mut shed = defer;
        shed.admission.policy = AdmissionPolicy::Shed;
        let no_workers = FleetConfig { workers: 0, ..ok };
        let cases = [
            (ok.with_round_budget(0), 1, "fleet round_budget"),
            (ok.with_workers(0), 1, "fleet workers"),
            (no_workers, 1, "fleet workers"),
            (ok, 0, "tenant 'b' events_per_round"),
            (defer, 1, "fleet admission max_active"),
            (shed, 1, "fleet admission max_active"),
        ];
        for (config, events, want) in cases {
            let mut host = FleetHost::new(config);
            host.enqueue(spec("a", 16, 1));
            host.enqueue(spec("b", 16, 1).with_events_per_round(events));
            let err = host.run().err().map(|e| e.to_string());
            let want = format!("simulation error: {want} is 0; it must be at least 1");
            assert_eq!(err, Some(want));
        }
    }

    #[test]
    fn same_shape_tenants_share_one_lowering() {
        let specs = [spec("a", 16, 1), spec("b", 16, 1), spec("c", 32, 1)];
        let mut host = FleetHost::new(FleetConfig::new());
        for s in &specs {
            host.enqueue(s.clone());
        }
        let report = host.run().unwrap();
        let keys: Vec<u64> = report.tenants.iter().map(|t| t.shape_key).collect();
        assert_eq!(keys[0], keys[1], "names do not split a shape");
        assert_ne!(keys[0], keys[2], "a wider frame is a different shape");
        assert_eq!(keys[0], bp_codegen::shape_key(&specs[0].graph));
        let counts = CacheStats { hits: 1, misses: 2 };
        assert_eq!(report.cache, counts, "one repeat, two first sights");
        // Same shape, same frames: the two tenants run identically.
        let fingerprint = |i: usize| report.tenants[i].report.fingerprint();
        assert_eq!(fingerprint(0), fingerprint(1));
    }
}
