//! Serving differential suite: co-scheduling is simulation-preserving
//! (DESIGN.md §16).
//!
//! The fleet host's contract is that hosting changes *when* a tenant's
//! events are processed in wall-clock terms, never *what* the tenant
//! computes: every tenant's `SimReport::fingerprint()` and metrics-tape
//! digest under co-scheduling must be bitwise identical to an
//! uninterrupted solo run of the same spec — across worker-thread
//! counts, round budgets, admission orders, comm models, and backends.
//! This suite pins that contract, including the acceptance-scale case
//! (64 co-scheduled tenants).

use bp_apps::apps;
use bp_compiler::{compile, CompileOptions};
use bp_core::{CommModel, Dim2, MetricsPolicy, QosSpec};
use bp_serve::{generate, solo, FleetConfig, FleetHost, LoadPlan, TenantMix, TenantSpec};
use bp_sim::{Backend, SimConfig};

const FRAMES: u32 = 2;

/// The three comm-model shapes of `tests/comm_delay.rs`.
fn models() -> Vec<(&'static str, CommModel)> {
    vec![
        ("zero", CommModel::zero()),
        ("uniform", CommModel::uniform(64e-9, 1e-9)),
        ("grid", CommModel::grid(32e-9, 8e-9, 1e-9)),
    ]
}

/// A deliberately heterogeneous tenant set: mixed app shapes and explicit
/// backends on both sides of the oracle divide, all under the same comm
/// model.
fn mixed_specs(comm: &CommModel) -> Vec<TenantSpec> {
    let build =
        |app: &bp_apps::App| compile(&app.graph, &CompileOptions::default()).expect("compile");
    let cfg = |backend: Backend| {
        SimConfig::new(FRAMES)
            .with_comm(comm.clone())
            .with_backend(backend)
            .with_metrics(MetricsPolicy::new())
    };
    let dim = Dim2::new(24, 12);
    let mut specs = Vec::new();
    let c = build(&apps::fig1b(dim, 30.0));
    specs.push(TenantSpec::new(
        "fig1b-interp",
        c.graph,
        c.mapping,
        cfg(Backend::Interpreted),
    ));
    let c = build(&apps::fig1b(dim, 30.0));
    specs.push(
        TenantSpec::new("fig1b-compiled", c.graph, c.mapping, cfg(Backend::Compiled))
            .with_qos(QosSpec::for_frame_rate(30.0)),
    );
    let c = build(&apps::camera_bank(2, dim, 25.0));
    specs.push(TenantSpec::new(
        "camera-auto",
        c.graph,
        c.mapping,
        cfg(Backend::Auto),
    ));
    let c = build(&apps::temporal_iir(dim, 50.0));
    specs.push(TenantSpec::new(
        "iir-compiled",
        c.graph,
        c.mapping,
        cfg(Backend::Compiled),
    ));
    let c = build(&apps::multi_conv(dim, 25.0, 3));
    specs.push(
        TenantSpec::new(
            "conv-interp-limited",
            c.graph,
            c.mapping,
            cfg(Backend::Interpreted),
        )
        .with_events_per_round(17), // a tighter rate limit than the fleet default
    );
    specs
}

/// Fingerprint and tape digest of every spec, run solo (the oracle).
fn solo_outcomes(specs: &[TenantSpec]) -> Vec<(u64, Option<u64>)> {
    specs
        .iter()
        .map(|s| {
            let (report, tape) = solo(s).expect("solo run");
            (report.fingerprint(), tape.map(|t| t.digest()))
        })
        .collect()
}

/// The tentpole guarantee: for every comm model, a heterogeneous fleet
/// at 1, 2, 4, and 8 worker threads (and two different round budgets)
/// reproduces each tenant's solo fingerprint and tape digest bit for
/// bit, and the admission log digest is worker-invariant.
#[test]
fn coscheduling_preserves_every_tenant_across_workers_and_models() {
    for (mname, comm) in models() {
        let specs = mixed_specs(&comm);
        let want = solo_outcomes(&specs);
        let mut admission_digests = Vec::new();
        for workers in [1usize, 2, 4, 8] {
            for budget in [64usize, 257] {
                let mut host = FleetHost::new(
                    FleetConfig::new()
                        .with_round_budget(budget)
                        .with_workers(workers),
                );
                for s in &specs {
                    host.enqueue(s.clone());
                }
                let report = host.run().expect("fleet run");
                assert_eq!(report.tenants.len(), specs.len());
                assert!(report.admission.conserves());
                for (t, (want_fp, want_digest)) in report.tenants.iter().zip(&want) {
                    assert_eq!(
                        t.report.fingerprint(),
                        *want_fp,
                        "{mname}/{workers}w/b{budget}: tenant {} fingerprint \
                         diverged from solo",
                        t.name
                    );
                    assert_eq!(
                        t.tape.as_ref().map(|tape| tape.digest()),
                        *want_digest,
                        "{mname}/{workers}w/b{budget}: tenant {} tape digest \
                         diverged from solo",
                        t.name
                    );
                }
                admission_digests.push(report.admission.digest());
            }
        }
        assert!(
            admission_digests.windows(2).all(|w| w[0] == w[1]),
            "{mname}: admission log must not depend on workers or budget"
        );
    }
}

/// Admission pressure (small slot count, deferred promotion) must not
/// perturb any tenant's simulation either: tenants admitted late still
/// match their solo runs exactly.
#[test]
fn deferred_admission_preserves_tenants() {
    let comm = CommModel::uniform(64e-9, 1e-9);
    let specs = mixed_specs(&comm);
    let want = solo_outcomes(&specs);
    let mut host = FleetHost::new(
        FleetConfig::new()
            .with_round_budget(41)
            .with_admission(bp_serve::AdmissionConfig::unbounded().with_max_active(2)),
    );
    for s in &specs {
        host.enqueue(s.clone());
    }
    let report = host.run().expect("fleet run");
    assert_eq!(report.tenants.len(), specs.len());
    assert_eq!(report.admission.deferred as usize, specs.len() - 2);
    assert_eq!(report.admission.promoted as usize, specs.len() - 2);
    for (t, (want_fp, want_digest)) in report.tenants.iter().zip(&want) {
        assert_eq!(t.report.fingerprint(), *want_fp, "tenant {}", t.name);
        assert_eq!(
            t.tape.as_ref().map(|tape| tape.digest()),
            *want_digest,
            "tenant {}",
            t.name
        );
    }
}

/// The acceptance-scale case: 64 generated tenants (mixed apps, metrics
/// and QoS contracts attached) co-scheduled on multiple workers — every
/// fingerprint and tape digest identical to solo, and the run replays
/// exactly from its seed.
#[test]
fn sixty_four_tenants_match_solo_bit_for_bit() {
    let plan = LoadPlan::new(64, TenantMix::Mixed, 0x00ac_ce97)
        .with_frames(2)
        .with_metrics()
        .with_qos();
    let specs = generate(&plan).expect("load generation");
    let want = solo_outcomes(&specs);

    let run = || {
        let mut host = FleetHost::new(FleetConfig::new().with_workers(4));
        for s in &specs {
            host.enqueue(s.clone());
        }
        host.run().expect("fleet run")
    };
    let report = run();
    assert_eq!(report.tenants.len(), 64);
    for (t, (want_fp, want_digest)) in report.tenants.iter().zip(&want) {
        assert_eq!(
            t.report.fingerprint(),
            *want_fp,
            "tenant {} fingerprint diverged from solo at fleet scale",
            t.name
        );
        assert_eq!(
            t.tape.as_ref().map(|tape| tape.digest()),
            *want_digest,
            "tenant {} tape digest diverged from solo at fleet scale",
            t.name
        );
    }
    let again = run();
    assert_eq!(report.fleet_digest(), again.fleet_digest());
    assert_eq!(report.admission.digest(), again.admission.digest());
}
