//! E-perf — machine-readable performance trajectory: writes `BENCH_sim.json`
//! with (a) the Fig. 13 utilization suite and (b) wall-clock throughput of
//! the timed and functional simulators on the Fig. 4 / Fig. 1(b) pipeline
//! at the reference configuration (40x24 @ 200 Hz).
//!
//! The first run records its numbers as the committed `"baseline"` object;
//! later runs keep that object verbatim, refresh `"current"`, and report
//! the speedup over baseline, so the performance history is visible
//! in-tree. Schema documented in EXPERIMENTS.md.

use bp_bench::{compile_and_simulate, extract_number, extract_object};
use bp_compiler::{compile, CompileOptions, MappingKind};
use bp_sim::{
    run_batch, Backend, CommModel, FunctionalExecutor, MetricsPolicy, ParallelTimedSimulator,
    SimConfig, SimReport, TimedSimulator, TraceOptions,
};
use std::fmt::Write as _;
use std::time::Instant;

/// Timed samples per throughput measurement (median reported).
const SAMPLES: usize = 15;
/// Frames simulated per sample at the reference configuration.
const FRAMES: u32 = 4;

/// One simulator throughput measurement.
struct Throughput {
    wall_ms_median: f64,
    firings: u64,
    windows_per_sec: f64,
}

fn backend_name(b: Backend) -> &'static str {
    match b {
        Backend::Auto => "auto",
        Backend::Interpreted => "interpreted",
        Backend::Compiled => "compiled",
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// Cumulative on-CPU time of the calling thread in nanoseconds, from
/// `/proc/thread-self/schedstat` (first field, `sum_exec_runtime`).
/// `None` on platforms without it — callers fall back to wall time.
/// Unlike wall time, this does not advance while the thread is
/// preempted, so ratios of CPU time survive noisy-neighbor load.
fn thread_cpu_ns() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    s.split_whitespace().next()?.parse().ok()
}

/// Wall-clock throughput of the timed simulator at the reference config.
/// "Windows per second" counts kernel firings (each consumes/produces one
/// window or token set) per wall-clock second of simulation. With
/// `threads > 1` the sharded parallel engine runs instead (bitwise-identical
/// report; the fig1b pipeline is one connected component, so this mainly
/// measures the parallel path's overhead). With `trace` set, event tracing
/// records into a default-capacity ring during the measurement.
fn bench_timed(threads: usize, trace: bool, backend: Backend) -> Throughput {
    let app = bp_apps::fig1b(bp_apps::BIG, bp_apps::FAST);
    let opts = CompileOptions::default();
    let compiled = compile(&app.graph, &opts).expect("compile fig1b BIG/FAST");
    let mut config = SimConfig::new(FRAMES)
        .with_machine(opts.machine)
        .with_backend(backend);
    if trace {
        config = config.with_trace(TraceOptions::default());
    }
    let mut walls = Vec::with_capacity(SAMPLES);
    let mut firings = 0u64;
    let mut fingerprint = 0u64;
    for s in 0..SAMPLES + 2 {
        let t0 = Instant::now();
        let report = if threads > 1 {
            ParallelTimedSimulator::new(&compiled.graph, &compiled.mapping, config.clone(), threads)
                .expect("instantiate")
                .run()
                .expect("run")
        } else {
            TimedSimulator::new(&compiled.graph, &compiled.mapping, config.clone())
                .expect("instantiate")
                .run()
                .expect("run")
        };
        let wall = t0.elapsed().as_secs_f64();
        let total: u64 = report.node_firings.iter().sum();
        if firings == 0 {
            firings = total;
            fingerprint = report.fingerprint();
        }
        assert_eq!(total, firings, "timed simulation must be deterministic");
        assert_eq!(
            report.fingerprint(),
            fingerprint,
            "timed simulation must be deterministic"
        );
        if s >= 2 {
            walls.push(wall); // first two samples are warm-up
        }
    }
    let wall = median(walls);
    Throughput {
        wall_ms_median: wall * 1e3,
        firings,
        windows_per_sec: firings as f64 / wall,
    }
}

/// Interpreted-vs-compiled comparison on one workload: medians for both
/// backends, with the fingerprints asserted identical (the compiled
/// backend's defining invariant, DESIGN.md §13).
struct BackendCompare {
    label: &'static str,
    detail: String,
    frames: u32,
    samples: usize,
    interpreted_ms: f64,
    compiled_ms: f64,
    fingerprint: u64,
}

impl BackendCompare {
    fn speedup(&self) -> f64 {
        self.interpreted_ms / self.compiled_ms.max(1e-9)
    }
}

/// Measure one compiled graph under both backends on the sequential timed
/// engine, asserting report fingerprints match bit for bit.
fn compare_backends(
    label: &'static str,
    detail: String,
    compiled: &bp_compiler::Compiled,
    machine: bp_core::MachineSpec,
    frames: u32,
    samples: usize,
) -> BackendCompare {
    let mut medians = [0.0f64; 2];
    let mut fingerprints = [0u64; 2];
    for (i, backend) in [Backend::Interpreted, Backend::Compiled]
        .into_iter()
        .enumerate()
    {
        let config = SimConfig::new(frames)
            .with_machine(machine)
            .with_backend(backend);
        let mut walls = Vec::with_capacity(samples);
        for s in 0..samples + 2 {
            // Instantiate outside the timed region: setup cost (graph
            // instantiation, and for the compiled backend the lowering
            // pass) is a one-time cost per simulation, not part of the
            // per-event execution rate the comparison measures.
            let sim = TimedSimulator::new(&compiled.graph, &compiled.mapping, config.clone())
                .expect("instantiate");
            let t0 = Instant::now();
            let report = sim.run().expect("run");
            let wall = t0.elapsed().as_secs_f64();
            fingerprints[i] = report.fingerprint();
            if s >= 2 {
                walls.push(wall * 1e3);
            }
        }
        medians[i] = median(walls);
    }
    assert_eq!(
        fingerprints[0], fingerprints[1],
        "{label}: compiled-backend fingerprint diverged from interpreted"
    );
    BackendCompare {
        label,
        detail,
        frames,
        samples,
        interpreted_ms: medians[0],
        compiled_ms: medians[1],
        fingerprint: fingerprints[0],
    }
}

/// The backend comparison suite: the reference fig1b configuration plus the
/// 384-PE camera bank (8 disjoint pipelines, mapped one-to-one).
fn bench_backends() -> Vec<BackendCompare> {
    let mut out = Vec::new();
    let app = bp_apps::fig1b(bp_apps::BIG, bp_apps::FAST);
    let opts = CompileOptions::default();
    let compiled = compile(&app.graph, &opts).expect("compile fig1b BIG/FAST");
    out.push(compare_backends(
        "fig1b",
        "40x24 @ 200 Hz".to_string(),
        &compiled,
        opts.machine,
        FRAMES,
        SAMPLES,
    ));
    let app = bp_apps::camera_bank(8, bp_apps::BIG, bp_apps::FAST);
    let opts = CompileOptions {
        mapping: MappingKind::OneToOne,
        ..Default::default()
    };
    let compiled = compile(&app.graph, &opts).expect("compile camera_bank");
    out.push(compare_backends(
        "camera_bank",
        format!("x8 40x24 @ 200 Hz, {} PEs", compiled.mapping.num_pes),
        &compiled,
        opts.machine,
        2,
        5,
    ));
    out
}

/// Metrics-collection overhead on one workload: wall-clock medians with the
/// metrics recorder off and on, reports asserted fingerprint-identical
/// (collection is inert) and the tape digest asserted stable across
/// samples (collection is deterministic). The overhead ratio is
/// `min(on costs) / min(off costs)` where a sample's cost is the
/// calling thread's on-CPU nanoseconds when the platform exposes them
/// (Linux `/proc/thread-self/schedstat`) and wall time otherwise:
/// thread CPU time is immune to preemption by noisy neighbors, and
/// taking each side's minimum discards the samples that still got
/// slowed indirectly (cache/bandwidth pollution). A real recording
/// regression is still caught because it inflates every on-sample,
/// including the minimum. Wall medians are reported alongside for
/// context but are too easily skewed on a busy host to gate on.
struct MetricsBench {
    label: &'static str,
    detail: String,
    frames: u32,
    samples: usize,
    off_ms: f64,
    on_ms: f64,
    ratio_min: f64,
    tape_digest: u64,
}

impl MetricsBench {
    fn ratio(&self) -> f64 {
        self.ratio_min
    }
}

/// Measure one compiled graph with metrics off and on (default backend).
fn bench_metrics_one(
    label: &'static str,
    detail: String,
    compiled: &bp_compiler::Compiled,
    machine: bp_core::MachineSpec,
    frames: u32,
    samples: usize,
) -> MetricsBench {
    // A sample's gating cost: thread CPU ms when the platform reports
    // them, wall ms otherwise (see the `MetricsBench` doc).
    let cost = |cpu0: Option<u64>, cpu1: Option<u64>, wall_s: f64| {
        cpu1.zip(cpu0)
            .map(|(a, b)| (a - b) as f64 * 1e-6)
            .unwrap_or(wall_s * 1e3)
    };
    let base = SimConfig::new(frames).with_machine(machine);
    let mut off_walls = Vec::with_capacity(samples);
    let mut on_walls = Vec::with_capacity(samples);
    let mut off_costs = Vec::with_capacity(samples);
    let mut on_costs = Vec::with_capacity(samples);
    let mut digest = 0u64;
    for s in 0..samples + 2 {
        let sim = TimedSimulator::new(&compiled.graph, &compiled.mapping, base.clone())
            .expect("instantiate");
        let c0 = thread_cpu_ns();
        let t0 = Instant::now();
        let report = sim.run().expect("run");
        let off_wall = t0.elapsed().as_secs_f64();
        let off_cost = cost(c0, thread_cpu_ns(), off_wall);
        let off_fp = report.fingerprint();

        let config = base.clone().with_metrics(MetricsPolicy::new());
        let sim =
            TimedSimulator::new(&compiled.graph, &compiled.mapping, config).expect("instantiate");
        let c0 = thread_cpu_ns();
        let t0 = Instant::now();
        let (report, tape) = sim.run_with_metrics().expect("run");
        let on_wall = t0.elapsed().as_secs_f64();
        let on_cost = cost(c0, thread_cpu_ns(), on_wall);
        let on_fp = report.fingerprint();
        let tape = tape.expect("metrics policy set but no tape");
        if digest == 0 {
            digest = tape.digest();
        }
        assert_eq!(
            tape.digest(),
            digest,
            "{label}: metrics tape must be deterministic across runs"
        );
        assert_eq!(
            off_fp, on_fp,
            "{label}: metrics collection changed the report fingerprint"
        );
        if s >= 2 {
            off_walls.push(off_wall * 1e3);
            on_walls.push(on_wall * 1e3);
            off_costs.push(off_cost);
            on_costs.push(on_cost);
        }
    }
    let min_of = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let ratio_min = min_of(&on_costs) / min_of(&off_costs).max(1e-12);
    MetricsBench {
        label,
        detail,
        frames,
        samples,
        off_ms: median(off_walls),
        on_ms: median(on_walls),
        ratio_min,
        tape_digest: digest,
    }
}

/// The metrics-overhead suite: the same two workloads as `bench_backends`,
/// so the metrics-off numbers are directly comparable to that block.
fn bench_metrics_overhead() -> Vec<MetricsBench> {
    let mut out = Vec::new();
    let app = bp_apps::fig1b(bp_apps::BIG, bp_apps::FAST);
    let opts = CompileOptions::default();
    let compiled = compile(&app.graph, &opts).expect("compile fig1b BIG/FAST");
    out.push(bench_metrics_one(
        "fig1b",
        "40x24 @ 200 Hz".to_string(),
        &compiled,
        opts.machine,
        FRAMES,
        SAMPLES,
    ));
    let app = bp_apps::camera_bank(8, bp_apps::BIG, bp_apps::FAST);
    let opts = CompileOptions {
        mapping: MappingKind::OneToOne,
        ..Default::default()
    };
    let compiled = compile(&app.graph, &opts).expect("compile camera_bank");
    // Full SAMPLES here, not a reduced count: the min-of-samples overhead
    // estimator needs enough draws on BOTH sides for each minimum to hit an
    // interference-free run — with few samples, one lucky off-side draw
    // reads as phantom overhead.
    out.push(bench_metrics_one(
        "camera_bank",
        format!("x8 40x24 @ 200 Hz, {} PEs", compiled.mapping.num_pes),
        &compiled,
        opts.machine,
        2,
        SAMPLES,
    ));
    out
}

/// Comm-model measurement: fig1b (one connected component) under a uniform
/// nonzero inter-PE latency, sequential vs lookahead-parallel.
struct CommBench {
    latency_cycles: f64,
    seq_wall_ms: f64,
    par_wall_ms: f64,
    threads: usize,
    shards: usize,
    windows: u64,
    lookahead_s: f64,
}

/// Measure the delay-model engines on fig1b with a uniform per-hop latency.
/// fig1b is a single connected component, so under the zero model the
/// parallel engine degrades to sequential; the positive latency is exactly
/// what lets it shard — `shards > 1` here is the lookahead working. Panics
/// if the parallel fingerprint diverges from the sequential one.
fn bench_comm(threads: usize) -> CommBench {
    let app = bp_apps::fig1b(bp_apps::BIG, bp_apps::FAST);
    let opts = CompileOptions::default();
    let compiled = compile(&app.graph, &opts).expect("compile fig1b BIG/FAST");
    let latency_cycles = 64.0;
    let comm = CommModel::uniform(latency_cycles / opts.machine.pe_clock_hz, 0.0);
    let config = SimConfig::new(FRAMES)
        .with_machine(opts.machine)
        .with_comm(comm);
    let threads = threads.max(2);
    let mut seq_walls = Vec::with_capacity(SAMPLES);
    let mut par_walls = Vec::with_capacity(SAMPLES);
    let (mut shards, mut windows, mut lookahead_s) = (0usize, 0u64, 0.0f64);
    for s in 0..SAMPLES + 2 {
        let t0 = Instant::now();
        let report = TimedSimulator::new(&compiled.graph, &compiled.mapping, config.clone())
            .expect("instantiate")
            .run()
            .expect("run");
        let wall = t0.elapsed().as_secs_f64();
        let seq_fp = report.fingerprint();
        if s >= 2 {
            seq_walls.push(wall * 1e3);
        }
        let t0 = Instant::now();
        let (report, _, stats) = ParallelTimedSimulator::new(
            &compiled.graph,
            &compiled.mapping,
            config.clone(),
            threads,
        )
        .expect("instantiate")
        .run_with_stats()
        .expect("run");
        let wall = t0.elapsed().as_secs_f64();
        assert_eq!(
            report.fingerprint(),
            seq_fp,
            "comm-model parallel fingerprint diverged from sequential"
        );
        shards = stats.shards;
        windows = stats.windows;
        lookahead_s = stats.lookahead_s;
        if s >= 2 {
            par_walls.push(wall * 1e3);
        }
    }
    CommBench {
        latency_cycles,
        seq_wall_ms: median(seq_walls),
        par_wall_ms: median(par_walls),
        threads,
        shards,
        windows,
        lookahead_s,
    }
}

/// Wall-clock throughput of the functional executor at the reference config.
fn bench_functional() -> Throughput {
    let app = bp_apps::fig1b(bp_apps::BIG, bp_apps::FAST);
    let opts = CompileOptions::default();
    let compiled = compile(&app.graph, &opts).expect("compile fig1b BIG/FAST");
    let mut walls = Vec::with_capacity(SAMPLES);
    let mut firings = 0u64;
    for s in 0..SAMPLES + 2 {
        let t0 = Instant::now();
        let mut ex = FunctionalExecutor::new(&compiled.graph).expect("instantiate");
        ex.run_frames(FRAMES).expect("run");
        let wall = t0.elapsed().as_secs_f64();
        let total: u64 = ex.program().nodes.iter().map(|n| n.firings).sum();
        if firings == 0 {
            firings = total;
        }
        assert_eq!(total, firings, "functional execution must be deterministic");
        if s >= 2 {
            walls.push(wall);
        }
    }
    let wall = median(walls);
    Throughput {
        wall_ms_median: wall * 1e3,
        firings,
        windows_per_sec: firings as f64 / wall,
    }
}

/// Fleet-serving measurement: N co-scheduled tenants, with every
/// tenant's report fingerprint and tape digest asserted bitwise
/// identical to its solo run (the serving contract, DESIGN.md §16).
struct ServeBench {
    tenants: usize,
    workers: usize,
    wall_ms: f64,
    events: u64,
    events_per_sec: f64,
    worst_firing_p99_ns: u64,
    worst_frame_latency_p99_ns: u64,
    qos_met: u32,
    shed_rate: f64,
    /// Tenants whose fingerprint AND tape digest matched solo (must be
    /// all of them; the measurement panics otherwise).
    identical: usize,
    fleet_digest: u64,
}

/// Tenants co-scheduled in the serving measurement.
const SERVE_TENANTS: usize = 64;

fn bench_serve() -> ServeBench {
    use bp_serve::{generate, FleetConfig, FleetHost, LoadPlan, TenantMix};

    let plan = LoadPlan::new(SERVE_TENANTS, TenantMix::Mixed, 0x5e12_e5e1)
        .with_frames(2)
        .with_metrics()
        .with_qos();
    let specs = generate(&plan).expect("load generation");

    // Oracle side: every spec solo, uninterrupted.
    let solo: Vec<(u64, Option<u64>)> = specs
        .iter()
        .map(|s| {
            let (report, tape) = bp_serve::solo(s).expect("solo run");
            (report.fingerprint(), tape.map(|t| t.digest()))
        })
        .collect();

    let workers = std::thread::available_parallelism()
        .map(|n| n.get().min(4))
        .unwrap_or(1);
    let mut host = FleetHost::new(
        FleetConfig::new()
            .with_round_budget(256)
            .with_workers(workers),
    );
    for s in &specs {
        host.enqueue(s.clone());
    }
    let start = Instant::now();
    let report = host.run().expect("fleet run");
    let wall = start.elapsed().as_secs_f64();

    assert_eq!(
        report.tenants.len(),
        SERVE_TENANTS,
        "every offer must finish"
    );
    let mut identical = 0usize;
    for (t, (want_fp, want_digest)) in report.tenants.iter().zip(&solo) {
        assert_eq!(
            t.report.fingerprint(),
            *want_fp,
            "tenant {} fingerprint diverged from solo under co-scheduling",
            t.name
        );
        assert_eq!(
            t.tape.as_ref().map(|t| t.digest()),
            *want_digest,
            "tenant {} tape digest diverged from solo under co-scheduling",
            t.name
        );
        identical += 1;
    }

    let agg = report.aggregate();
    let events = report.total_events();
    ServeBench {
        tenants: SERVE_TENANTS,
        workers,
        wall_ms: wall * 1e3,
        events,
        events_per_sec: events as f64 / wall.max(1e-9),
        worst_firing_p99_ns: agg.worst_firing_p99_ns,
        worst_frame_latency_p99_ns: agg.worst_frame_latency_p99_ns,
        qos_met: agg.qos_met,
        shed_rate: report.admission.shed as f64 / (report.admission.offered as f64).max(1.0),
        identical,
        fleet_digest: report.fleet_digest(),
    }
}

/// One Fig. 13 row: utilization under both mappings.
struct SuiteRow {
    label: &'static str,
    util_one_to_one: f64,
    util_greedy: f64,
}

/// Run the full Fig. 13 suite (11 benchmarks x 2 mappings) in parallel.
fn bench_fig13() -> (Vec<SuiteRow>, f64) {
    let suite = bp_apps::fig13_suite();
    let jobs: Vec<Box<dyn FnOnce() -> SimReport + Send>> = suite
        .iter()
        .flat_map(|case| {
            [MappingKind::OneToOne, MappingKind::Greedy]
                .into_iter()
                .map(|kind| {
                    let build = case.build;
                    let label = case.label;
                    let f: Box<dyn FnOnce() -> SimReport + Send> = Box::new(move || {
                        let app = build();
                        let opts = CompileOptions {
                            mapping: kind,
                            ..Default::default()
                        };
                        compile_and_simulate(&app, &opts, 3)
                            .unwrap_or_else(|e| panic!("{label} ({kind:?}): {e}"))
                            .1
                    });
                    f
                })
        })
        .collect();
    let results = run_batch(jobs);
    let rows: Vec<SuiteRow> = suite
        .iter()
        .enumerate()
        .map(|(i, case)| SuiteRow {
            label: case.label,
            util_one_to_one: results[2 * i].avg_utilization(),
            util_greedy: results[2 * i + 1].avg_utilization(),
        })
        .collect();
    let avg = rows
        .iter()
        .map(|r| r.util_greedy / r.util_one_to_one.max(1e-9))
        .sum::<f64>()
        / rows.len() as f64;
    (rows, avg)
}

/// Render one snapshot (baseline or current) as a JSON object.
#[allow(clippy::too_many_arguments)]
fn snapshot_json(
    timed: &Throughput,
    traced: Option<&Throughput>,
    func: &Throughput,
    comm: &CommBench,
    rows: &[SuiteRow],
    avg_imp: f64,
    threads: usize,
    backend: Backend,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(
        s,
        "    \"timed_primary\": {{ \"app\": \"fig1b\", \"dim\": \"40x24\", \"rate_hz\": 200.0, \
         \"frames\": {FRAMES}, \"samples\": {SAMPLES}, \"threads\": {threads}, \
         \"backend\": \"{}\", \"wall_ms_median\": {:.3}, \
         \"firings\": {}, \"windows_per_sec\": {:.1} }},",
        backend_name(backend),
        timed.wall_ms_median,
        timed.firings,
        timed.windows_per_sec
    );
    if let Some(tr) = traced {
        let overhead = 100.0 * (tr.wall_ms_median / timed.wall_ms_median.max(1e-9) - 1.0);
        let _ = writeln!(
            s,
            "    \"timed_traced\": {{ \"app\": \"fig1b\", \"wall_ms_median\": {:.3}, \
             \"windows_per_sec\": {:.1}, \"trace_overhead_pct\": {overhead:.2} }},",
            tr.wall_ms_median, tr.windows_per_sec
        );
    }
    let _ = writeln!(
        s,
        "    \"functional_primary\": {{ \"app\": \"fig1b\", \"dim\": \"40x24\", \"rate_hz\": 200.0, \
         \"frames\": {FRAMES}, \"samples\": {SAMPLES}, \"wall_ms_median\": {:.3}, \
         \"firings\": {}, \"windows_per_sec\": {:.1} }},",
        func.wall_ms_median, func.firings, func.windows_per_sec
    );
    let _ = writeln!(
        s,
        "    \"comm_model\": {{ \"app\": \"fig1b\", \"model\": \"uniform\", \
         \"latency_cycles\": {:.1}, \"seq_wall_ms_median\": {:.3}, \
         \"par_wall_ms_median\": {:.3}, \"threads\": {}, \"shards\": {}, \
         \"windows\": {}, \"lookahead_s\": {:.6e} }},",
        comm.latency_cycles,
        comm.seq_wall_ms,
        comm.par_wall_ms,
        comm.threads,
        comm.shards,
        comm.windows,
        comm.lookahead_s
    );
    s.push_str("    \"fig13\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            s,
            "      {{ \"bench\": \"{}\", \"util_one_to_one\": {:.4}, \"util_greedy\": {:.4} }}{}",
            r.label,
            r.util_one_to_one,
            r.util_greedy,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    s.push_str("    ],\n");
    let _ = writeln!(s, "    \"fig13_avg_improvement\": {avg_imp:.3}");
    s.push_str("  }");
    s
}

fn main() {
    let mut out_path = "BENCH_sim.json".to_string();
    let mut threads = 1usize;
    let mut trace = false;
    let mut assert_overhead: Option<f64> = None;
    let mut assert_backend_speedup: Option<f64> = None;
    let mut assert_metrics_overhead: Option<f64> = None;
    let mut assert_serve_tenants: Option<usize> = None;
    let mut backend = Backend::Auto;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads needs a positive integer");
            }
            "--trace" => trace = true,
            "--backend" => {
                backend = match args.next().as_deref() {
                    Some("auto") => Backend::Auto,
                    Some("interpreted") => Backend::Interpreted,
                    Some("compiled") => Backend::Compiled,
                    other => panic!("--backend needs auto|interpreted|compiled, got {other:?}"),
                };
            }
            "--assert-overhead" => {
                assert_overhead = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--assert-overhead needs a percentage"),
                );
            }
            "--assert-backend-speedup" => {
                assert_backend_speedup = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--assert-backend-speedup needs a ratio"),
                );
            }
            "--assert-metrics-overhead" => {
                assert_metrics_overhead = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--assert-metrics-overhead needs a ratio"),
                );
            }
            "--assert-serve-tenants" => {
                assert_serve_tenants = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--assert-serve-tenants needs a tenant count"),
                );
            }
            other => out_path = other.to_string(),
        }
    }

    println!(
        "measuring timed-simulator throughput \
         (fig1b 40x24 @ 200 Hz, {FRAMES} frames, {threads} thread(s), {} backend)...",
        backend_name(backend)
    );
    let timed = bench_timed(threads, false, backend);
    println!(
        "  timed: median {:.3} ms, {} firings, {:.0} windows/s",
        timed.wall_ms_median, timed.firings, timed.windows_per_sec
    );
    let traced = trace.then(|| {
        println!("measuring timed-simulator throughput with event tracing enabled...");
        let tr = bench_timed(threads, true, backend);
        println!(
            "  traced: median {:.3} ms ({:+.2}% vs untraced)",
            tr.wall_ms_median,
            100.0 * (tr.wall_ms_median / timed.wall_ms_median.max(1e-9) - 1.0)
        );
        tr
    });
    println!("measuring functional-executor throughput...");
    let func = bench_functional();
    println!(
        "  functional: median {:.3} ms, {} firings, {:.0} windows/s",
        func.wall_ms_median, func.firings, func.windows_per_sec
    );
    println!("measuring comm-model engines (fig1b, uniform latency, seq vs par)...");
    let comm = bench_comm(threads);
    println!(
        "  comm: seq {:.3} ms, par {:.3} ms on {} shard(s), {} window(s)",
        comm.seq_wall_ms, comm.par_wall_ms, comm.shards, comm.windows
    );
    println!("measuring interpreted vs compiled backends (fingerprint-asserted)...");
    let backends = bench_backends();
    for c in &backends {
        println!(
            "  {} ({}): interpreted {:.3} ms, compiled {:.3} ms ({:.2}x), \
             fingerprint {:#018x}",
            c.label,
            c.detail,
            c.interpreted_ms,
            c.compiled_ms,
            c.speedup(),
            c.fingerprint
        );
    }
    println!("measuring metrics-collection overhead (fingerprint- and digest-asserted)...");
    let metrics = bench_metrics_overhead();
    for m in &metrics {
        println!(
            "  {} ({}): off {:.3} ms, on {:.3} ms ({:.3}x), tape digest {:#018x}",
            m.label,
            m.detail,
            m.off_ms,
            m.on_ms,
            m.ratio(),
            m.tape_digest
        );
    }
    println!(
        "measuring fleet serving ({SERVE_TENANTS} co-scheduled tenants, \
         solo-differential asserted)..."
    );
    let serve = bench_serve();
    println!(
        "  serve: {} tenants on {} worker(s), {:.3} ms wall, {:.0} events/s, \
         p99 firing {} ns, shed rate {:.3}, {}/{} identical to solo",
        serve.tenants,
        serve.workers,
        serve.wall_ms,
        serve.events_per_sec,
        serve.worst_firing_p99_ns,
        serve.shed_rate,
        serve.identical,
        serve.tenants
    );
    println!("running Fig. 13 suite (22 parallel simulations)...");
    let (rows, avg_imp) = bench_fig13();
    println!("  fig13 average GM/1:1 utilization improvement: {avg_imp:.2}x");

    let current = snapshot_json(
        &timed,
        traced.as_ref(),
        &func,
        &comm,
        &rows,
        avg_imp,
        threads,
        backend,
    );

    // Keep an existing committed baseline verbatim; otherwise this run is it.
    let previous = std::fs::read_to_string(&out_path).ok();
    let baseline = previous
        .as_deref()
        .and_then(|p| extract_object(p, "baseline"))
        .unwrap_or_else(|| current.clone());

    let base_wps = extract_number(&baseline, "windows_per_sec").unwrap_or(timed.windows_per_sec);
    let speedup = timed.windows_per_sec / base_wps.max(1e-9);

    // A `sim_scaling` block written by the `sim_scaling` binary is carried
    // over verbatim; rerun that binary to refresh it.
    let scaling = previous
        .as_deref()
        .and_then(|p| extract_object(p, "sim_scaling"));

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"bench_sim/v8\",\n");
    let _ = writeln!(out, "  \"baseline\": {baseline},");
    let _ = writeln!(out, "  \"current\": {current},");
    out.push_str("  \"backend_compare\": [\n");
    for (i, c) in backends.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"app\": \"{}\", \"config\": \"{}\", \"frames\": {}, \"samples\": {}, \
             \"interpreted_wall_ms_median\": {:.3}, \"compiled_wall_ms_median\": {:.3}, \
             \"compiled_speedup\": {:.3}, \"fingerprint\": \"{:#018x}\" }}{}",
            c.label,
            c.detail,
            c.frames,
            c.samples,
            c.interpreted_ms,
            c.compiled_ms,
            c.speedup(),
            c.fingerprint,
            if i + 1 < backends.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"metrics_overhead\": [\n");
    for (i, m) in metrics.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"app\": \"{}\", \"config\": \"{}\", \"frames\": {}, \"samples\": {}, \
             \"off_wall_ms_median\": {:.3}, \"on_wall_ms_median\": {:.3}, \
             \"overhead_ratio\": {:.3}, \"tape_digest\": \"{:#018x}\" }}{}",
            m.label,
            m.detail,
            m.frames,
            m.samples,
            m.off_ms,
            m.on_ms,
            m.ratio(),
            m.tape_digest,
            if i + 1 < metrics.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"serve\": {{ \"tenants\": {}, \"workers\": {}, \"wall_ms\": {:.3}, \
         \"events\": {}, \"events_per_sec\": {:.1}, \"worst_firing_p99_ns\": {}, \
         \"worst_frame_latency_p99_ns\": {}, \"qos_met\": {}, \"shed_rate\": {:.4}, \
         \"identical_to_solo\": {}, \"fleet_digest\": \"{:#018x}\" }},",
        serve.tenants,
        serve.workers,
        serve.wall_ms,
        serve.events,
        serve.events_per_sec,
        serve.worst_firing_p99_ns,
        serve.worst_frame_latency_p99_ns,
        serve.qos_met,
        serve.shed_rate,
        serve.identical,
        serve.fleet_digest
    );
    if let Some(scaling) = scaling {
        let _ = writeln!(out, "  \"sim_scaling\": {scaling},");
    }
    let _ = writeln!(out, "  \"timed_speedup_vs_baseline\": {speedup:.3}");
    out.push_str("}\n");
    std::fs::write(&out_path, &out).expect("write BENCH_sim.json");
    println!("wrote {out_path} (timed speedup vs baseline: {speedup:.2}x)");

    // CI guard: with tracing compiled in (but disabled for the primary
    // measurement), throughput must stay within PCT percent of the
    // committed baseline.
    if let Some(pct) = assert_overhead {
        let floor = 1.0 - pct / 100.0;
        if speedup < floor {
            eprintln!(
                "FAIL: timed speedup vs baseline {speedup:.3} is below the \
                 {floor:.3} floor (--assert-overhead {pct})"
            );
            std::process::exit(1);
        }
        println!("overhead check passed: speedup {speedup:.3} >= {floor:.3}");
    }

    // CI guard: the compiled backend must beat the interpreter by at least
    // the given ratio on the reference workload (fingerprints already
    // asserted identical above).
    if let Some(floor) = assert_backend_speedup {
        let got = backends[0].speedup();
        if got < floor {
            eprintln!(
                "FAIL: compiled-backend speedup {got:.3} on {} is below the \
                 {floor:.3} floor (--assert-backend-speedup)",
                backends[0].label
            );
            std::process::exit(1);
        }
        println!("backend speedup check passed: {got:.3} >= {floor:.3}");
    }

    // CI guard: the serving measurement must have co-scheduled at least
    // the given tenant count with every per-tenant fingerprint and tape
    // digest bitwise identical to solo (the identity itself was asserted
    // during the measurement — a divergence panics there), and the host
    // must have sustained real throughput under a sane worst-case p99.
    if let Some(floor) = assert_serve_tenants {
        if serve.tenants < floor || serve.identical < floor {
            eprintln!(
                "FAIL: serve co-scheduled {} tenant(s) ({} identical to solo), \
                 below the {floor} floor (--assert-serve-tenants)",
                serve.tenants, serve.identical
            );
            std::process::exit(1);
        }
        if serve.events_per_sec <= 0.0 || serve.worst_firing_p99_ns == 0 {
            eprintln!(
                "FAIL: serve sanity: {:.1} events/s, p99 firing {} ns \
                 (--assert-serve-tenants)",
                serve.events_per_sec, serve.worst_firing_p99_ns
            );
            std::process::exit(1);
        }
        if serve.shed_rate > 0.0 {
            eprintln!(
                "FAIL: serve shed rate {:.4} under unbounded admission \
                 (--assert-serve-tenants)",
                serve.shed_rate
            );
            std::process::exit(1);
        }
        println!(
            "serve check passed: {} tenant(s) >= {floor}, all identical to solo, \
             {:.0} events/s, shed rate 0",
            serve.tenants, serve.events_per_sec
        );
    }

    // CI guard: metrics-on wall time must stay within the given ratio of
    // metrics-off on every workload (inertness and tape determinism were
    // already asserted during the measurement).
    if let Some(ceiling) = assert_metrics_overhead {
        for m in &metrics {
            let got = m.ratio();
            if got > ceiling {
                eprintln!(
                    "FAIL: metrics-on/metrics-off wall ratio {got:.3} on {} is above \
                     the {ceiling:.3} ceiling (--assert-metrics-overhead)",
                    m.label
                );
                std::process::exit(1);
            }
            println!(
                "metrics overhead check passed on {}: {got:.3} <= {ceiling:.3}",
                m.label
            );
        }
    }
}
