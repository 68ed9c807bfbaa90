//! `bpc` — the block-parallel compiler driver.
//!
//! Compile a bundled application for a machine description, print the
//! compiler report, optionally dump Graphviz, and verify the real-time
//! constraint on the timing-accurate simulator.
//!
//! ```text
//! bpc --app fig1b --width 20 --height 12 --rate 200 --policy trim \
//!     --mapping greedy --frames 3 [--dot out.dot] [--quiet]
//! ```
//!
//! The `serve` subcommand hosts a co-scheduled tenant fleet instead of a
//! single application:
//!
//! ```text
//! bpc serve --tenants 64 --mix mixed --seed 7 --workers 4 [--metrics=FILE]
//! ```

use block_parallel::apps;
use block_parallel::prelude::*;
use std::process::ExitCode;

struct Args {
    app: String,
    width: u32,
    height: u32,
    rate: f64,
    policy: AlignPolicy,
    mapping: MappingKind,
    frames: u32,
    dot: Option<String>,
    trace: Option<String>,
    /// `None` = metrics off; `Some(None)` = print the summary table;
    /// `Some(Some(path))` = also write the JSONL metrics tape to `path`.
    metrics: Option<Option<String>>,
    snapshot_every: Option<u32>,
    comm: String,
    capacity: Option<usize>,
    explain_deadlock: bool,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: bpc --app <fig1b|bayer|histogram|buffer-test|multi-conv|edge|fir|iir|analytics|stereo|camera-bank>\n\
         \x20          [--width N] [--height N] [--rate HZ] [--frames N]\n\
         \x20          [--policy trim|pad-zero|pad-mirror] [--mapping greedy|packed|one-to-one]\n\
         \x20          [--dot FILE] [--trace FILE] [--comm-model SPEC]\n\
         \x20          [--metrics[=FILE]] [--snapshot-every N]\n\
         \x20          [--capacity N] [--explain-deadlock] [--quiet]\n\
         \x20  --trace FILE  record a deterministic event trace and write it as\n\
         \x20                Chrome trace-event JSON (open in https://ui.perfetto.dev)\n\
         \x20  --metrics     collect always-on runtime metrics and print the\n\
         \x20                summary table; --metrics=FILE additionally writes\n\
         \x20                the deterministic JSONL metrics tape to FILE\n\
         \x20  --snapshot-every N  one metrics snapshot interval per N frame\n\
         \x20                periods at the required rate (default 1)\n\
         \x20  --comm-model  inter-PE communication delay (latencies in PE cycles):\n\
         \x20                zero (default) | uniform:LAT[:PER_WORD]\n\
         \x20                | grid:BASE:PER_HOP[:PER_WORD]\n\
         \x20  --capacity N  pin every channel to N items (N >= 1), disabling\n\
         \x20                the feedback-aware capacity derivation\n\
         \x20  --explain-deadlock  on a capacity deadlock, print the structured\n\
         \x20                diagnosis (wait-for cycle, occupancies, minimal\n\
         \x20                capacity bump) and exit 0; exit 1 if no deadlock"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        app: String::new(),
        width: 20,
        height: 12,
        rate: 50.0,
        policy: AlignPolicy::Trim,
        mapping: MappingKind::Greedy,
        frames: 3,
        dot: None,
        trace: None,
        metrics: None,
        snapshot_every: None,
        comm: "zero".to_string(),
        capacity: None,
        explain_deadlock: false,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--app" => args.app = value("--app"),
            "--width" => args.width = value("--width").parse().unwrap_or_else(|_| usage()),
            "--height" => args.height = value("--height").parse().unwrap_or_else(|_| usage()),
            "--rate" => args.rate = value("--rate").parse().unwrap_or_else(|_| usage()),
            "--frames" => args.frames = at_least_one(&flag, value(&flag), usage),
            "--policy" => {
                args.policy = match value("--policy").as_str() {
                    "trim" => AlignPolicy::Trim,
                    "pad-zero" => AlignPolicy::PadZero,
                    "pad-mirror" => AlignPolicy::PadMirror,
                    other => {
                        eprintln!("unknown policy '{other}'");
                        usage()
                    }
                }
            }
            "--mapping" => {
                args.mapping = match value("--mapping").as_str() {
                    "greedy" => MappingKind::Greedy,
                    "packed" => MappingKind::Packed,
                    "one-to-one" | "1:1" => MappingKind::OneToOne,
                    other => {
                        eprintln!("unknown mapping '{other}'");
                        usage()
                    }
                }
            }
            "--dot" => args.dot = Some(value("--dot")),
            "--trace" => args.trace = Some(value("--trace")),
            "--metrics" => args.metrics = Some(None),
            "--snapshot-every" => {
                args.snapshot_every = Some(at_least_one(&flag, value(&flag), usage))
            }
            "--comm-model" => args.comm = value("--comm-model"),
            "--capacity" => args.capacity = Some(at_least_one(&flag, value(&flag), usage)),
            "--explain-deadlock" => args.explain_deadlock = true,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => usage(),
            other => {
                if let Some(path) = other.strip_prefix("--metrics=") {
                    args.metrics = Some(Some(path.to_string()));
                    continue;
                }
                eprintln!("unknown flag '{other}'");
                usage()
            }
        }
    }
    if args.app.is_empty() {
        usage();
    }
    args
}

/// Parse the value `v` of count flag `flag`, which must be at least 1:
/// anything else is a usage error (`usage` prints its text and exits 2).
fn at_least_one<T: std::str::FromStr + PartialEq + From<u8>>(
    flag: &str,
    v: String,
    usage: fn() -> !,
) -> T {
    let n = v.parse().unwrap_or_else(|_| usage());
    if n == T::from(0) {
        eprintln!("{flag} must be at least 1");
        usage()
    }
    n
}

/// Parse a `--comm-model` spec into a [`CommModel`]. Latencies are given
/// in PE cycles (the natural unit next to kernel cycle budgets) and
/// converted to seconds at the machine's PE clock; each must come out
/// finite and non-negative.
fn parse_comm_model(spec: &str, pe_clock_hz: f64) -> Option<CommModel> {
    let cyc = |s: &str| -> Option<f64> {
        let secs = s.parse::<f64>().ok()? / pe_clock_hz;
        (secs.is_finite() && secs >= 0.0).then_some(secs)
    };
    let mut parts = spec.split(':');
    let kind = parts.next()?;
    let rest: Vec<&str> = parts.collect();
    match (kind, rest.as_slice()) {
        ("zero", []) => Some(CommModel::zero()),
        ("uniform", [lat]) => Some(CommModel::uniform(cyc(lat)?, 0.0)),
        ("uniform", [lat, per_word]) => Some(CommModel::uniform(cyc(lat)?, cyc(per_word)?)),
        ("grid", [base, per_hop]) => Some(CommModel::grid(cyc(base)?, cyc(per_hop)?, 0.0)),
        ("grid", [base, per_hop, per_word]) => {
            Some(CommModel::grid(cyc(base)?, cyc(per_hop)?, cyc(per_word)?))
        }
        _ => None,
    }
}

fn build_app(args: &Args) -> Option<apps::App> {
    let dim = Dim2::new(args.width, args.height);
    Some(match args.app.as_str() {
        "fig1b" => apps::fig1b(dim, args.rate),
        "bayer" => apps::bayer(dim, args.rate),
        "histogram" => apps::histogram_app(dim, args.rate, 32),
        "buffer-test" => apps::parallel_buffer_test(dim, args.rate),
        "multi-conv" => apps::multi_conv(dim, args.rate, 3),
        "edge" => apps::edge_detect(dim, args.rate, 20.0),
        "fir" => apps::fir_radio(args.width, args.rate),
        "iir" => apps::temporal_iir(dim, args.rate),
        "analytics" => apps::analytics(dim, args.rate),
        "stereo" => apps::stereo_diff(dim, args.rate),
        "camera-bank" => apps::camera_bank(4, dim, args.rate),
        _ => return None,
    })
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("serve") {
        return serve_main();
    }
    let args = parse_args();
    let Some(app) = build_app(&args) else {
        eprintln!("unknown app '{}'", args.app);
        return ExitCode::from(2);
    };

    let opts = CompileOptions {
        machine: MachineSpec::default_eval(),
        align: args.policy,
        mapping: args.mapping,
        ..Default::default()
    };
    let Some(comm) = parse_comm_model(&args.comm, opts.machine.pe_clock_hz) else {
        eprintln!("bad --comm-model '{}'", args.comm);
        return ExitCode::from(2);
    };
    let compiled = match compile(&app.graph, &opts) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("compile error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !args.quiet {
        println!("{}", summarize(&compiled));
    }
    if let Some(path) = &args.dot {
        if let Err(e) = std::fs::write(path, to_dot(&compiled.graph)) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        if !args.quiet {
            println!("wrote {path}");
        }
    }

    if !args.quiet && !comm.is_zero() {
        println!(
            "comm model: {} (base {:.0} cycles, per-hop {:.0}, per-word {:.0})",
            args.comm,
            comm.base_latency_s * opts.machine.pe_clock_hz,
            comm.per_hop_s * opts.machine.pe_clock_hz,
            comm.per_word_s * opts.machine.pe_clock_hz,
        );
    }
    let mut config = SimConfig::new(args.frames)
        .with_machine(opts.machine)
        .with_comm(comm);
    if let Some(cap) = args.capacity {
        config = config.with_channel_capacity(cap);
    }
    if args.trace.is_some() {
        config = config.with_trace(TraceOptions::default());
    }
    if args.metrics.is_some() {
        let mut policy = MetricsPolicy::new();
        if let Some(n) = args.snapshot_every {
            // One snapshot interval per N frame periods at the required
            // rate (finite and positive, or `compile` refused the graph).
            policy = policy.with_interval_s(n as f64 / args.rate);
        }
        config = config.with_metrics(policy);
    }
    let explain = |outcome: SimOutcome| -> ExitCode {
        match outcome {
            SimOutcome::Deadlocked(d) => {
                print_deadlock(&d);
                ExitCode::SUCCESS
            }
            SimOutcome::Completed(report) => {
                println!(
                    "no capacity deadlock: {} frame(s) completed in {:.6}s",
                    report.frames_completed, report.sim_time
                );
                ExitCode::FAILURE
            }
        }
    };
    // A `BpError` names its own category ("simulation error: …").
    let sim = match TimedSimulator::new(&compiled.graph, &compiled.mapping, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if args.explain_deadlock {
        return explain(sim.run_outcome());
    }
    let (report, trace, tape) = match sim.run_with_artifacts() {
        Ok(artifacts) => artifacts,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let (run, read, write) = report.utilization_breakdown();
    println!(
        "real-time {}: required {:.1} Hz, achieved {:.1} Hz, {} violations, \
         {} budget overruns",
        if report.verdict.met { "MET" } else { "MISSED" },
        report.verdict.required_rate_hz,
        report.verdict.achieved_rate_hz,
        report.verdict.violations,
        report.total_budget_overruns(),
    );
    println!(
        "utilization {:.1}% (run {:.1}% / read {:.1}% / write {:.1}% / idle {:.1}%) \
         on {} PEs",
        100.0 * (run + read + write),
        100.0 * run,
        100.0 * read,
        100.0 * write,
        100.0 * (1.0 - run - read - write),
        report.num_pes()
    );
    for (name, observed, declared) in &report.token_rate_violations {
        println!(
            "token-rate violation: {name} emitted {observed:.1} Hz \
             against a declared {declared:.1} Hz"
        );
    }
    if let Some(tape) = &tape {
        let node_names: Vec<String> = compiled
            .graph
            .nodes()
            .map(|(_, n)| n.name.to_string())
            .collect();
        print!("{}", tape.summary(&node_names));
        if let Some(Some(path)) = &args.metrics {
            if let Err(e) = std::fs::write(path, tape.to_jsonl()) {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
            if !args.quiet {
                println!(
                    "wrote {path}: {} snapshot(s), digest {:016x}",
                    tape.snapshots.len(),
                    tape.digest()
                );
            }
        }
    }
    if let (Some(path), Some(trace)) = (&args.trace, trace) {
        if let Err(code) = write_trace(path, &trace, args.quiet) {
            return code;
        }
    }
    if report.verdict.met {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn serve_usage() -> ! {
    eprintln!(
        "usage: bpc serve [--tenants N] [--mix camera|fig1b|feedback|mixed]\n\
         \x20               [--seed S] [--frames N] [--workers N] [--budget EVENTS]\n\
         \x20               [--max-active N] [--policy shed|defer]\n\
         \x20               [--arrival upfront|uniform:LAST|bursty:PERIOD:BURST]\n\
         \x20               [--qos] [--metrics[=FILE]] [--quiet]\n\
         \x20  --tenants N    tenants to generate and offer (default 8)\n\
         \x20  --mix          application mix preset (default mixed)\n\
         \x20  --seed S       load-generator seed; the whole run is a pure\n\
         \x20                 function of it (default 0)\n\
         \x20  --frames N     frames per tenant (default 2)\n\
         \x20  --workers N    worker threads stepping tenants each round;\n\
         \x20                 per-tenant results are identical at any count\n\
         \x20  --budget E     per-tenant event budget per round (default 256)\n\
         \x20  --max-active N admission slot limit, at least 1 (default unbounded)\n\
         \x20  --policy       backpressure when slots are full: defer (queue,\n\
         \x20                 default) or shed (reject)\n\
         \x20  --arrival      offer arrival process (default upfront)\n\
         \x20  --qos          attach a frame-rate-derived QoS contract to\n\
         \x20                 every tenant (implies per-tenant metrics tapes)\n\
         \x20  --metrics      per-tenant metrics tapes and the fleet summary;\n\
         \x20                 --metrics=FILE writes the fleet JSONL to FILE"
    );
    std::process::exit(2);
}

/// `bpc serve`: generate a seeded tenant fleet, co-schedule it, and print
/// the admission/QoS summary.
fn serve_main() -> ExitCode {
    use block_parallel::serve::{
        generate, AdmissionConfig, AdmissionPolicy, Arrival, FleetConfig, FleetHost, LoadPlan,
        TenantMix,
    };

    let mut tenants = 8usize;
    let mut mix = TenantMix::Mixed;
    let mut seed = 0u64;
    let mut frames = 2u32;
    let mut workers = 1usize;
    let mut budget = 256usize;
    let mut max_active: Option<usize> = None;
    let mut policy = AdmissionPolicy::Defer;
    let mut arrival = Arrival::Upfront;
    let mut qos = false;
    let mut metrics: Option<Option<String>> = None;
    let mut quiet = false;

    let mut it = std::env::args().skip(2);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                serve_usage()
            })
        };
        match flag.as_str() {
            "--tenants" => tenants = value("--tenants").parse().unwrap_or_else(|_| serve_usage()),
            "--mix" => {
                mix = TenantMix::parse(&value("--mix")).unwrap_or_else(|| {
                    eprintln!("unknown mix");
                    serve_usage()
                })
            }
            "--seed" => seed = value("--seed").parse().unwrap_or_else(|_| serve_usage()),
            "--frames" => frames = at_least_one(&flag, value(&flag), serve_usage),
            "--workers" => workers = at_least_one(&flag, value(&flag), serve_usage),
            "--budget" => budget = at_least_one(&flag, value(&flag), serve_usage),
            "--max-active" => max_active = Some(at_least_one(&flag, value(&flag), serve_usage)),
            "--policy" => {
                policy = match value("--policy").as_str() {
                    "shed" => AdmissionPolicy::Shed,
                    "defer" => AdmissionPolicy::Defer,
                    other => {
                        eprintln!("unknown policy '{other}'");
                        serve_usage()
                    }
                }
            }
            "--arrival" => {
                let spec = value("--arrival");
                let parts: Vec<&str> = spec.split(':').collect();
                arrival = match parts.as_slice() {
                    ["upfront"] => Arrival::Upfront,
                    ["uniform", last] => Arrival::Uniform {
                        last_round: last.parse().unwrap_or_else(|_| serve_usage()),
                    },
                    ["bursty", period, burst] => Arrival::Bursty {
                        period: period.parse().unwrap_or_else(|_| serve_usage()),
                        burst: burst.parse().unwrap_or_else(|_| serve_usage()),
                    },
                    _ => {
                        eprintln!("bad --arrival '{spec}'");
                        serve_usage()
                    }
                };
            }
            "--qos" => qos = true,
            "--metrics" => metrics = Some(None),
            "--quiet" => quiet = true,
            "--help" | "-h" => serve_usage(),
            other => {
                if let Some(path) = other.strip_prefix("--metrics=") {
                    metrics = Some(Some(path.to_string()));
                    continue;
                }
                eprintln!("unknown flag '{other}'");
                serve_usage()
            }
        }
    }

    let mut plan = LoadPlan::new(tenants, mix, seed)
        .with_frames(frames)
        .with_arrival(arrival);
    if metrics.is_some() {
        plan = plan.with_metrics();
    }
    if qos {
        plan = plan.with_qos();
    }
    let specs = match generate(&plan) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("load generation failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut admission = AdmissionConfig::unbounded().with_policy(policy);
    if let Some(n) = max_active {
        admission = admission.with_max_active(n);
    }
    let mut host = FleetHost::new(
        FleetConfig::new()
            .with_round_budget(budget)
            .with_workers(workers)
            .with_admission(admission),
    );
    for spec in specs {
        host.enqueue(spec);
    }
    let start = std::time::Instant::now();
    let report = match host.run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wall = start.elapsed().as_secs_f64();

    let adm = &report.admission;
    println!(
        "fleet: {} tenant(s) finished over {} round(s) on {} worker(s) in {:.3}s",
        report.tenants.len(),
        report.rounds,
        report.workers,
        wall
    );
    println!(
        "admission: offered {}, admitted {}, deferred {}, shed {}, promoted {} \
         (conserved: {}), log digest {:016x}",
        adm.offered,
        adm.admitted,
        adm.deferred,
        adm.shed,
        adm.promoted,
        adm.conserves(),
        adm.digest()
    );
    println!(
        "shapes: {} repeat(s), {} distinct",
        report.cache.hits, report.cache.misses
    );
    let events = report.total_events();
    println!(
        "throughput: {events} events, {:.0} events/s wall",
        events as f64 / wall.max(1e-9)
    );
    if metrics.is_some() || qos {
        let agg = report.aggregate();
        println!(
            "qos: {}/{} tenant(s) met contracts; worst firing p99 {} ns, \
             worst frame-latency p99 {} ns; fleet digest {:016x}",
            agg.qos_met,
            agg.tenants,
            agg.worst_firing_p99_ns,
            agg.worst_frame_latency_p99_ns,
            report.fleet_digest()
        );
        if let Some(Some(path)) = &metrics {
            let fleet = report.fleet_tape();
            if let Err(e) = std::fs::write(path, fleet.to_jsonl()) {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
            if !quiet {
                println!("wrote {path}: {} tenant tape(s)", fleet.tenants.len());
            }
        }
    }
    if !quiet {
        for t in report.tenants.iter().take(8) {
            println!(
                "  tenant {:>3} {:<12} shape {:016x} fingerprint {:016x} \
                 ({} events, rounds {}..{})",
                t.tenant,
                t.name,
                t.shape_key,
                t.report.fingerprint(),
                t.events,
                t.admitted_round,
                t.finished_round
            );
        }
        if report.tenants.len() > 8 {
            println!("  ... {} more", report.tenants.len() - 8);
        }
    }
    if adm.conserves() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Print the structured capacity-deadlock diagnosis: the wait-for cycle
/// with per-channel occupancy, and the minimal single-channel capacity
/// bump that would unblock a producer.
fn print_deadlock(d: &DeadlockReport) {
    println!("capacity deadlock: {} items queued", d.queued_items);
    if d.cycle.is_empty() {
        println!("no channel cycle found (a blocked chain dead-ends outside any loop)");
    } else {
        println!(
            "{}:",
            if d.blocked_cycle {
                "wait-for cycle"
            } else {
                "starved feedback loop"
            }
        );
        for hop in &d.cycle {
            println!("  {}", hop.render());
        }
    }
    if let Some(b) = &d.min_capacity_bump {
        println!(
            "minimal fix: grow '{}' from {} to {} items",
            b.channel, b.current, b.required
        );
    }
    print!("{}", d.stuck);
}

/// Export `trace` as Chrome trace-event JSON at `path`, validating the
/// document before writing and printing a stall/occupancy summary.
fn write_trace(path: &str, trace: &Trace, quiet: bool) -> Result<(), ExitCode> {
    let json = chrome_trace_json(trace);
    if let Err(e) = validate_json(&json) {
        eprintln!("internal error: exported trace is not well-formed JSON: {e}");
        return Err(ExitCode::FAILURE);
    }
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("failed to write {path}: {e}");
        return Err(ExitCode::FAILURE);
    }
    if !quiet {
        let stalls = trace.stall_counts();
        let stall_txt: Vec<String> = stalls
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(c, n)| format!("{} x{}", c.name(), n))
            .collect();
        println!(
            "wrote {path}: {} events ({} dropped), stall transitions: {}",
            trace.events.len(),
            trace.dropped,
            if stall_txt.is_empty() {
                "none".to_string()
            } else {
                stall_txt.join(", ")
            }
        );
        let mut hw = trace.channel_high_water();
        hw.sort_by(|a, b| b.depth.cmp(&a.depth).then(a.node.cmp(&b.node)));
        for c in hw.iter().take(3) {
            println!(
                "  high-water: {}.{} reached {} items at t={:.6}s",
                trace.meta.node_names[c.node], trace.meta.input_ports[c.node][c.port], c.depth, c.t
            );
        }
    }
    Ok(())
}
