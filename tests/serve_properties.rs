//! Seeded property suite for the fleet host's admission and scheduling
//! layers (DESIGN.md §16).
//!
//! Three properties over randomized workloads ([`bp_core::Rng64`]-seeded
//! load plans with random arrival processes and admission configs):
//!
//! - **No starvation** under the defer policy: every offer that is not
//!   shed eventually runs to completion — a deferred tenant cannot wait
//!   forever behind a finite fleet.
//! - **Conservation**: every offer receives exactly one terminal
//!   verdict, so `admitted + deferred + shed == offered` in all
//!   configurations, shed and promoted offers included.
//! - **Deterministic replay**: the entire run is a pure function of the
//!   plan — same seed ⇒ same admission-log digest and same fleet digest.

use bp_core::Rng64;
use bp_serve::{
    generate, AdmissionConfig, AdmissionPolicy, Arrival, FleetConfig, FleetHost, FleetReport,
    LoadPlan, TenantMix,
};

/// Build a randomized plan + fleet config from one seed and run it.
fn run_seeded(seed: u64) -> (FleetReport, usize) {
    let mut rng = Rng64::seed_from_u64(seed);
    let tenants = 4 + rng.gen_index(8); // 4..=11
    let arrival = match rng.gen_index(3) {
        0 => Arrival::Upfront,
        1 => Arrival::Uniform {
            last_round: 1 + rng.next_u64() % 6,
        },
        _ => Arrival::Bursty {
            period: 1 + rng.next_u64() % 4,
            burst: 1 + rng.gen_index(3),
        },
    };
    let mut plan = LoadPlan::new(tenants, TenantMix::Mixed, seed ^ 0x9e37_79b9)
        .with_frames(1 + rng.gen_index(2) as u32)
        .with_arrival(arrival);
    if rng.gen_bool() {
        plan = plan.with_metrics();
    }
    let specs = generate(&plan).expect("load generation");

    let policy = if rng.gen_bool() {
        AdmissionPolicy::Defer
    } else {
        AdmissionPolicy::Shed
    };
    let admission = AdmissionConfig::unbounded()
        .with_max_active(1 + rng.gen_index(tenants))
        .with_policy(policy);
    let mut host = FleetHost::new(
        FleetConfig::new()
            .with_round_budget(16 + rng.gen_index(512))
            .with_workers(1 + rng.gen_index(4))
            .with_admission(admission),
    );
    for s in specs {
        host.enqueue(s);
    }
    (host.run().expect("fleet run"), tenants)
}

/// Conservation: in every randomized configuration each offer gets
/// exactly one terminal verdict, and exactly the non-shed offers finish.
/// The sweep must shed (only `AdmissionPolicy::Shed` does) and promote
/// somewhere, so conservation is shown across both.
#[test]
fn admission_conserves_offers_under_random_configs() {
    let (mut shed, mut promoted) = (0u64, 0u64);
    for seed in 0..24u64 {
        let (report, tenants) = run_seeded(seed);
        let adm = &report.admission;
        shed += adm.shed;
        promoted += adm.promoted;
        assert_eq!(adm.offered as usize, tenants, "seed {seed}");
        assert!(
            adm.conserves(),
            "seed {seed}: admitted {} + deferred {} + shed {} != offered {}",
            adm.admitted,
            adm.deferred,
            adm.shed,
            adm.offered
        );
        assert_eq!(
            report.tenants.len() as u64,
            adm.offered - adm.shed,
            "seed {seed}: every non-shed offer must finish"
        );
    }
    assert!(shed > 0, "no seed shed an offer");
    assert!(promoted > 0, "no seed promoted a deferred offer");
}

/// No starvation: under the defer policy with an unbounded queue, every
/// offer is eventually admitted (or promoted) and runs to completion,
/// however small the slot count and however late the arrivals.
#[test]
fn defer_policy_never_starves_a_tenant() {
    for seed in 0..12u64 {
        let mut rng = Rng64::seed_from_u64(seed.wrapping_mul(0x5851_f42d_4c95_7f2d));
        let tenants = 5 + rng.gen_index(6);
        let plan = LoadPlan::new(tenants, TenantMix::Mixed, seed)
            .with_frames(1)
            .with_arrival(Arrival::Bursty {
                period: 2,
                burst: 2,
            });
        let specs = generate(&plan).expect("load generation");
        let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
        let mut host = FleetHost::new(
            FleetConfig::new()
                .with_round_budget(32)
                .with_admission(AdmissionConfig::unbounded().with_max_active(1)),
        );
        for s in specs {
            host.enqueue(s);
        }
        let report = host.run().expect("fleet run");
        assert_eq!(report.admission.shed, 0, "seed {seed}");
        let mut finished: Vec<&str> = report.tenants.iter().map(|t| t.name.as_str()).collect();
        finished.sort_unstable();
        let mut offered: Vec<&str> = names.iter().map(|n| n.as_str()).collect();
        offered.sort_unstable();
        assert_eq!(finished, offered, "seed {seed}: a tenant starved");
        // Single slot: tenants must have run one at a time, in admission
        // order, so finish rounds are strictly increasing by tenant id.
        let rounds: Vec<u64> = report.tenants.iter().map(|t| t.finished_round).collect();
        assert!(
            rounds.windows(2).all(|w| w[0] < w[1]),
            "seed {seed}: single-slot finishes must be ordered, got {rounds:?}"
        );
    }
}

/// Deterministic replay: the same seed reproduces the admission-log
/// digest, the fleet digest, and every per-tenant fingerprint exactly.
#[test]
fn same_seed_replays_the_same_run() {
    for seed in [0u64, 3, 7, 0xdead_beef] {
        let (a, _) = run_seeded(seed);
        let (b, _) = run_seeded(seed);
        assert_eq!(
            a.admission.digest(),
            b.admission.digest(),
            "seed {seed}: admission log must replay"
        );
        assert_eq!(
            a.fleet_digest(),
            b.fleet_digest(),
            "seed {seed}: fleet digest must replay"
        );
        assert_eq!(a.rounds, b.rounds, "seed {seed}");
        let fps = |r: &FleetReport| {
            r.tenants
                .iter()
                .map(|t| (t.tenant, t.report.fingerprint()))
                .collect::<Vec<_>>()
        };
        assert_eq!(fps(&a), fps(&b), "seed {seed}: tenant reports must replay");
    }
}
