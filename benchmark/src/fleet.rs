//! `fleet_mixed`: 64 tenants offered in bursts to one `FleetHost` and
//! co-scheduled to completion, each checked against its solo run.
//!
//! The timed op steps its tenants on one worker, for the reason `stream.rs`
//! gives; the traced pass runs the same fleet on `host.threads` workers too.

use crate::layers::{Ledger, VERDICT};
use crate::spans::Tracer;
use crate::workloads::{err, mix, probe, visiting_order, Out, Params, Workload};
use bp_core::QosSpec;
use bp_serve::{AdmissionConfig, Arrival, FleetConfig, FleetHost, LoadPlan, TenantMix, TenantSpec};
use bp_sim::{MetricsTape, SimReport, SteppableSim};
use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::Arc;

const FLEET_TENANTS: usize = 64;
/// The tenant population is this fixed plan; `--seed` orders the offers.
const FLEET_PLAN_SEED: u64 = 0x5e12_e5e1;
const FLEET_FRAMES: u32 = 8;
const FLEET_ROUND_BUDGET: usize = 256;
const FLEET_MAX_ACTIVE: usize = 16;
const FLEET_BURST: Arrival = Arrival::Bursty {
    period: 2,
    burst: 4,
};

/// `(fingerprint, tape digest)` of a tenant.
type TenantMark = (u64, Option<u64>);

pub struct Fleet {
    frames: u32,
    /// Workers of the traced pass's multi-worker probe.
    threads: usize,
    order: Vec<usize>,
    /// Each tenant's uninterrupted solo run, by tenant name.
    solo: BTreeMap<String, TenantMark>,
}

pub struct FleetOut {
    tenants: Vec<(String, TenantMark)>,
    offered: u64,
    conserves: bool,
}

impl Fleet {
    /// The plan's tenants in this run's offer order, arriving in bursts.
    fn specs(&self) -> Result<Vec<TenantSpec>, String> {
        let plan = LoadPlan::new(FLEET_TENANTS, TenantMix::Mixed, FLEET_PLAN_SEED)
            .with_frames(self.frames)
            .with_metrics()
            .with_qos()
            .with_arrival(FLEET_BURST);
        let mut drawn: Vec<Option<TenantSpec>> = bp_serve::generate(&plan)
            .map_err(err)?
            .into_iter()
            .map(Some)
            .collect();
        // The generator set arrival rounds by position; keep them with the
        // position, so every order offers four tenants every second round.
        let rounds: Vec<u64> = drawn.iter().flatten().map(|s| s.arrival_round).collect();
        Ok(self
            .order
            .iter()
            .zip(rounds)
            .filter_map(|(&i, round)| drawn[i].take().map(|s| s.with_arrival_round(round)))
            .collect())
    }

    /// A host with `workers` workers, every tenant of the plan enqueued.
    fn host(&self, workers: usize, specs: Vec<TenantSpec>) -> FleetHost {
        let mut host = FleetHost::new(
            FleetConfig::new()
                .with_round_budget(FLEET_ROUND_BUDGET)
                .with_workers(workers)
                .with_admission(AdmissionConfig::unbounded().with_max_active(FLEET_MAX_ACTIVE)),
        );
        for spec in specs {
            host.enqueue(spec);
        }
        host
    }

    fn identical_to_solo(&self, tenants: &[(String, TenantMark)]) -> usize {
        tenants
            .iter()
            .filter(|(name, mark)| self.solo.get(name) == Some(mark))
            .count()
    }
}

/// Run `f` as a span named `name` and add its seconds to `sums[name]`.
fn timed<T>(
    t: &mut Tracer,
    sums: &mut BTreeMap<&'static str, f64>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let (out, seconds) = t.span_timed(name, |_| f());
    *sums.entry(name).or_default() += seconds;
    out
}

fn mark_of(report: &SimReport, tape: Option<&MetricsTape>) -> TenantMark {
    (report.fingerprint(), tape.map(MetricsTape::digest))
}

fn solo_mark(spec: &TenantSpec) -> Result<TenantMark, String> {
    let (report, tape) = bp_serve::solo(spec).map_err(err)?;
    Ok(mark_of(&report, tape.as_ref()))
}

impl Workload for Fleet {
    type X = FleetOut;

    fn setup(_name: &str, p: &Params) -> Result<Self, String> {
        let mut this = Self {
            frames: if p.smoke { 2 } else { FLEET_FRAMES },
            threads: p.threads,
            order: visiting_order(FLEET_TENANTS, p.seed),
            solo: BTreeMap::new(),
        };
        for spec in this.specs()? {
            let mark = solo_mark(&spec)?;
            this.solo.insert(spec.name, mark);
        }
        Ok(this)
    }

    fn op(&self, t: &mut Tracer) -> Result<Out<FleetOut>, String> {
        let (pes_used, report) = t.span(VERDICT, |t| -> Result<_, String> {
            let specs = t.span("serve.generate_s", |_| self.specs())?;
            let pes_used: u64 = specs.iter().map(|s| s.mapping.num_pes as u64).sum();
            let mut host = self.host(1, specs);
            let report = t.span("serve.run_s", |_| host.run()).map_err(err)?;
            Ok((pes_used, report))
        })?;
        let tenants: Vec<(String, TenantMark)> = report
            .tenants
            .iter()
            .map(|t| (t.name.clone(), mark_of(&t.report, t.tape.as_ref())))
            .collect();
        // Tenant ids follow admission order, which follows the seed; the
        // digest that must repeat is taken in name order.
        let mut by_name = tenants.clone();
        by_name.sort();
        let repeat = by_name
            .iter()
            .fold(0xcbf29ce484222325, |h, (_, (fp, digest))| {
                mix(mix(h, *fp), digest.unwrap_or(0))
            });
        let admission = &report.admission;
        let counts = vec![
            ("compiler.pes_used", pes_used as f64),
            ("serve.rounds", report.rounds as f64),
            ("serve.events", report.total_events() as f64),
            ("serve.cache_hits", report.cache.hits as f64),
            ("serve.cache_misses", report.cache.misses as f64),
            ("serve.deferred", admission.deferred as f64),
            ("serve.promoted", admission.promoted as f64),
            ("serve.shed", admission.shed as f64),
            (
                "serve.identical_to_solo",
                self.identical_to_solo(&tenants) as f64,
            ),
            ("serve.qos_met", f64::from(report.aggregate().qos_met)),
        ];
        Ok(Out {
            pes_used,
            repeat,
            counts,
            x: FleetOut {
                tenants,
                offered: admission.offered,
                conserves: admission.conserves(),
            },
        })
    }

    fn check(&self, out: &Out<FleetOut>) -> Result<(), String> {
        let x = &out.x;
        if !x.conserves || x.offered != FLEET_TENANTS as u64 {
            return Err(format!(
                "admission log: {} offered, conserves={}",
                x.offered, x.conserves
            ));
        }
        let identical = self.identical_to_solo(&x.tenants);
        if x.tenants.len() != FLEET_TENANTS || identical != FLEET_TENANTS {
            return Err(format!(
                "{} of {FLEET_TENANTS} tenants finished, {identical} identical to their solo run",
                x.tenants.len()
            ));
        }
        Ok(())
    }

    fn probes(&self, t: &mut Tracer, ledger: &mut Ledger) -> Result<(), String> {
        const REPS: usize = 3;
        let specs = self.specs()?;

        // Every tenant solo, uninterrupted: the base of the overhead ratio.
        let solo_on = probe(t, "probe.solo", REPS, || {
            specs.iter().try_for_each(|s| solo_mark(s).map(drop))
        })?;
        ledger.set("serve.solo_s", solo_on);
        if let Some(ratio) = ledger.get("serve.run_s").map(|run| run / solo_on) {
            ledger.set("serve.overhead_ratio", ratio);
        }
        // The same with metrics and QoS stripped: what the recorders cost.
        let bare: Vec<TenantSpec> = specs
            .iter()
            .cloned()
            .map(|mut s| {
                s.config.metrics = None;
                s.with_qos(QosSpec::none())
            })
            .collect();
        let solo_off = probe(t, "probe.solo_bare", REPS, || {
            bare.iter().try_for_each(|s| solo_mark(s).map(drop))
        })?;
        ledger.set("metrics.recorder_s", solo_on - solo_off);

        // The same fleet stepped by `host.threads` workers: what partitioning
        // the active tenants over threads buys, and that it changes nothing.
        let workers_run = probe(t, "probe.fleet_workers", REPS, || {
            let report = self.host(self.threads, specs.clone()).run().map_err(err)?;
            let marks: Vec<(String, TenantMark)> = report
                .tenants
                .iter()
                .map(|t| (t.name.clone(), mark_of(&t.report, t.tape.as_ref())))
                .collect();
            match self.identical_to_solo(&marks) {
                FLEET_TENANTS => Ok(()),
                n => Err(format!(
                    "{n} of {FLEET_TENANTS} tenants identical to solo on {} workers",
                    self.threads
                )),
            }
        })?;
        if let Some(run) = ledger.get("serve.run_s") {
            ledger.set("serve.workers_speedup", run / workers_run);
        }

        let shape_key = probe(t, "probe.shape_key", REPS, || {
            Ok(specs
                .iter()
                .fold(0, |h, s| h ^ bp_codegen::shape_key(&s.graph)))
        })?;
        ledger.set("codegen.shape_key_s", shape_key);

        // The tenants stepped solo at the fleet's budget, each shape lowered
        // once: what stepping costs without rounds, admission or neighbours.
        // These spans are the metrics they are named after, summed over tenants.
        let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut programs = BTreeMap::new();
        for spec in &specs {
            let key = bp_codegen::shape_key(&spec.graph);
            if let Entry::Vacant(slot) = programs.entry(key) {
                let program = timed(t, &mut sums, "codegen.lower_s", || {
                    bp_codegen::lower_graph(&spec.graph)
                });
                slot.insert(Arc::new(program.map_err(err)?));
            }
            // The host folds the tenant's QoS contracts into its metrics
            // policy; do the same, so the stepped run carries the same tape.
            let mut config = spec.config.clone().with_lowered(programs[&key].clone());
            let policy = config.metrics.take().unwrap_or_default();
            config.metrics = Some(policy.with_contracts(spec.qos.clone()));
            let mut sim = timed(t, &mut sums, "step.instantiate_s", || {
                SteppableSim::new(&spec.graph, &spec.mapping, config)
            })
            .map_err(err)?;
            let calls = timed(t, &mut sums, "step.step_s", || {
                let mut calls = 0.0;
                while !sim.is_done() {
                    sim.step(FLEET_ROUND_BUDGET);
                    calls += 1.0;
                }
                calls
            });
            let (_, tape) =
                timed(t, &mut sums, "step.finish_s", || sim.finish_report()).map_err(err)?;
            let tape = tape.ok_or("a fleet tenant carries a metrics tape")?;
            let jsonl = timed(t, &mut sums, "metrics.tape_jsonl_s", || tape.to_jsonl());
            *sums.entry("step.calls").or_default() += calls;
            *sums.entry("metrics.tape_bytes").or_default() += jsonl.len() as f64;
            *sums.entry("metrics.snapshots").or_default() += tape.snapshots.len() as f64;
        }
        for (name, value) in sums {
            ledger.set(name, value);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: Params = Params {
        seed: 7,
        threads: 2,
        smoke: true,
    };

    #[test]
    fn the_seed_orders_the_offers_and_nothing_else() {
        let offers = |seed| -> Vec<String> {
            let fleet = Fleet {
                frames: 2,
                threads: 1,
                order: visiting_order(FLEET_TENANTS, seed),
                solo: BTreeMap::new(),
            };
            let specs = fleet.specs().unwrap();
            specs
                .iter()
                .map(|s| format!("{}@{}", s.name, s.arrival_round))
                .collect()
        };
        assert_eq!(offers(5), offers(5));
        assert_ne!(offers(5), offers(6));
        let sorted = |seed| {
            let mut names: Vec<String> = offers(seed)
                .iter()
                .map(|o| o.split('@').next().unwrap().to_string())
                .collect();
            names.sort();
            names
        };
        assert_eq!(sorted(5), sorted(6), "the same tenants in another order");
    }

    #[test]
    fn a_corrupted_solo_digest_fails_the_fleet_op() {
        let mut w = Fleet::setup("fleet_mixed", &SMOKE).unwrap();
        let out = w.op(&mut Tracer::new(false)).unwrap();
        w.check(&out).unwrap();
        let mark = w.solo.values_mut().next().unwrap();
        mark.1 = mark.1.map(|d| d ^ 1);
        let e = w.check(&out).unwrap_err();
        assert!(e.contains("63 identical"), "{e}");
    }
}
