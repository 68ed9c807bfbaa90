//! The repo benchmark: six workloads from graph to verdict, five end-to-end
//! metrics, and a per-layer ledger taken from the outside in. README.md beside
//! this package's manifest says why each workload and metric is here.
//!
//! Nothing is measured in the process the user starts. An end-to-end run of a
//! workload is spread over several fresh child processes (re-executions of
//! this binary with `--sample`), because a process's memory layout alone moves
//! the event loop's speed by ±10 % and only other processes sample other
//! layouts; the parent pools what they report. The traced pass of a workload
//! is one process. Without `--workload`, every workload is run in turn.

mod explore;
mod fleet;
mod host;
mod json;
mod layers;
mod spans;
mod stats;
mod stream;
mod workloads;

use host::HostInfo;
use layers::{Ledger, MetricDef, BOUNDS, END_TO_END, PER_LAYER};
use spans::Tracer;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Explore, Fleet, Out, Params, Stream, Workload, NAMES};

const USAGE: &str = "\
usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                 [--spans FILE] [--calibrate N] [--smoke] [--verbose]

  --workload NAME  run one workload and print its result line last; without
                   it, run every workload in turn and print a summary
  --seed N         orders explore_static's configurations and fleet_mixed's
                   offers (default 0); populations and geometry are fixed
  --seconds S      timed ops per run, summed over its processes (default 15,
                   the run_seconds of BENCHMARK.json); never fewer than 21 ops
  --trace 1        with --workload: the traced pass, per-layer metrics
                   instead of end-to-end ones; without: both passes of each
  --spans FILE     write the traced pass's spans as JSON; without --workload
                   the files are FILE.<workload>.json
  --calibrate N    run everything N times; print each run's medians and the
                   largest relative gap between runs
  --smoke          2 ops per workload at small sizes; every check still runs
  --verbose        list explore_static's infeasible and failing configurations
  --sample         (internal) be one process of an end-to-end run
workloads: stream_seq stream_observed explore_static bank_seq coupled_seq fleet_mixed";

/// Fresh processes per end-to-end run. Each sets up once, so `setup_s` and
/// `peak_rss_mb` are medians of this many samples.
const PROCESSES: usize = 7;
/// No process ends its timed phase before this many ops, however slow the
/// host, so no run reports a median over fewer than 21.
const MIN_OPS_PER_PROCESS: usize = 3;
/// Share of `--seconds` the traced pass spends on ops; probes follow.
const TRACED_OPS_SHARE: f64 = 0.4;
/// `run_seconds` in `BENCHMARK.json`; a unit test holds the two together.
const DEFAULT_SECONDS: u32 = 15;

#[derive(Clone, Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sample: bool,
    smoke: bool,
    calibrate: Option<usize>,
    spans: Option<String>,
    verbose: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seconds: DEFAULT_SECONDS.into(),
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("{flag}: '{v}' is not a valid number"))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = num(flag, value()?)?,
            "--seconds" => args.seconds = num(flag, value()?)?,
            "--trace" => args.trace = num::<u8>(flag, value()?)? != 0,
            "--calibrate" => args.calibrate = Some(num(flag, value()?)?),
            "--spans" => args.spans = Some(value()?.clone()),
            "--sample" => args.sample = true,
            "--smoke" => args.smoke = true,
            "--verbose" => args.verbose = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    match &args.workload {
        Some(w) if !NAMES.contains(&w.as_str()) => Err(format!("unknown workload '{w}'")),
        None if args.sample => Err("--sample needs --workload".into()),
        _ => Ok(args),
    }
}

/// One run's result: what the last line of `--workload`'s output says.
struct RunResult {
    attempted: usize,
    failed: usize,
    /// `(name, value, unit)`.
    metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    fn line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::string(name),
                    json::number(*value),
                    json::string(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn print_metric(def: &MetricDef, detail: &str) {
    println!("  {:<32} {:<6} {:<7} {detail}", def.0, def.1, def.2);
}

/// Op `i`'s verdict: its own checks, then agreement with the warm-up op on
/// everything that must repeat.
fn judge<W: Workload>(
    w: &W,
    warm: &Out<W::X>,
    out: &Result<Out<W::X>, String>,
) -> Result<(), String> {
    let out = out.as_ref().map_err(Clone::clone)?;
    w.check(out)?;
    if out.repeat != warm.repeat {
        return Err(format!(
            "digest {:#018x} differs from the warm-up op's {:#018x}",
            out.repeat, warm.repeat
        ));
    }
    if out.pes_used != warm.pes_used {
        return Err(format!(
            "pes_used {} differs from the warm-up op's {}",
            out.pes_used, warm.pes_used
        ));
    }
    Ok(())
}

fn count_failures(failures: &[String]) -> usize {
    for f in failures.iter().take(5) {
        println!("  FAILED {f}");
    }
    if failures.len() > 5 {
        println!("  ... and {} more", failures.len() - 5);
    }
    failures.len()
}

/// Set up and run one checked warm-up op: everything before the first timed op.
fn set_up<W: Workload>(name: &str, p: &Params) -> Result<(W, Out<W::X>), String> {
    let w = W::setup(name, p)?;
    let warm = w.op(&mut Tracer::new(false))?;
    w.check(&warm).map_err(|e| format!("warm-up op: {e}"))?;
    Ok((w, warm))
}

/// What one process of an end-to-end run measured: the last line it prints,
/// which the parent reads back.
#[derive(Clone, Debug, PartialEq)]
struct Sample {
    setup_s: f64,
    /// Process CPU time over the timed phase.
    cpu_s: f64,
    peak_rss_mb: f64,
    pes_used: u64,
    /// The warm-up op's digest; every op of the process equalled it or failed.
    digest: u64,
    failed: usize,
    /// Wall time of each timed op.
    op_s: Vec<f64>,
}

impl Sample {
    const TAG: &'static str = "sample";

    fn line(&self) -> String {
        let ops: Vec<String> = self.op_s.iter().map(f64::to_string).collect();
        format!(
            "{} {} {} {} {} {} {} {}",
            Self::TAG,
            self.setup_s,
            self.cpu_s,
            self.peak_rss_mb,
            self.pes_used,
            self.digest,
            self.failed,
            ops.join(" ")
        )
    }

    fn parse(line: &str) -> Option<Self> {
        let mut fields = line.split_whitespace();
        if fields.next()? != Self::TAG {
            return None;
        }
        Some(Self {
            setup_s: fields.next()?.parse().ok()?,
            cpu_s: fields.next()?.parse().ok()?,
            peak_rss_mb: fields.next()?.parse().ok()?,
            pes_used: fields.next()?.parse().ok()?,
            digest: fields.next()?.parse().ok()?,
            failed: fields.next()?.parse().ok()?,
            op_s: fields.map(str::parse).collect::<Result<_, _>>().ok()?,
        })
    }
}

/// Be one process of an end-to-end run: set up once, then ops back to back
/// for `--seconds`, tracing off; check them; print the sample.
fn sample<W: Workload>(name: &str, args: &Args, p: &Params) -> Result<Sample, String> {
    let start = Instant::now();
    let (w, warm) = set_up::<W>(name, p)?;
    let setup_s = start.elapsed().as_secs_f64();

    let mut off = Tracer::new(false);
    let mut op_s = Vec::new();
    let mut outs = Vec::new();
    let cpu_before = host::process_cpu_seconds()?;
    let phase = Instant::now();
    loop {
        let start = Instant::now();
        let out = w.op(&mut off);
        op_s.push(start.elapsed().as_secs_f64());
        outs.push(out);
        let enough = if args.smoke { 1 } else { MIN_OPS_PER_PROCESS };
        if outs.len() >= enough && (args.smoke || phase.elapsed().as_secs_f64() >= args.seconds) {
            break;
        }
    }
    let cpu_s = host::process_cpu_seconds()? - cpu_before;
    // Read before anything that only reports, such as --verbose's sweep.
    let peak_rss_mb = host::peak_rss_mb()?;

    let failures: Vec<String> = outs
        .iter()
        .enumerate()
        .filter_map(|(i, out)| judge(&w, &warm, out).err().map(|e| format!("op {i}: {e}")))
        .collect();
    if args.verbose {
        w.verbose().iter().for_each(|l| println!("{l}"));
    }
    Ok(Sample {
        setup_s,
        cpu_s,
        peak_rss_mb,
        pes_used: warm.pes_used,
        digest: warm.repeat,
        failed: count_failures(&failures),
        op_s,
    })
}

/// The end-to-end values of one run, in `END_TO_END`'s order, from its
/// processes' samples, and what the processes disagree on.
fn pool(samples: &[Sample]) -> ([f64; 5], stats::Summary, Vec<String>) {
    let column = |f: fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let op_s: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.op_s.iter().copied())
        .collect();
    let verdict = stats::summarize(&op_s);
    let first = &samples[0];
    let failures = samples
        .iter()
        .enumerate()
        .filter(|(_, s)| (s.digest, s.pes_used) != (first.digest, first.pes_used))
        .map(|(i, s)| {
            format!(
                "process {i}: digest {:#018x}, pes_used {} differ from process 0's {:#018x}, {}",
                s.digest, s.pes_used, first.digest, first.pes_used
            )
        })
        .collect();
    let values = [
        stats::median(&column(|s| s.setup_s)),
        verdict.median,
        column(|s| s.cpu_s).iter().sum::<f64>() / op_s.len() as f64,
        stats::median(&column(|s| s.peak_rss_mb)),
        first.pes_used as f64,
    ];
    (values, verdict, failures)
}

/// Run this binary again with `extra` arguments and the run's own; its
/// standard output, if it exited 0. The child's standard error is inherited.
fn run_child(name: &str, args: &Args, extra: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(extra);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a child process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if output.status.success() {
        Ok(stdout)
    } else {
        print!("{stdout}");
        Err(format!("child process: {}", output.status))
    }
}

/// The end-to-end run of one workload: `PROCESSES` fresh processes one after
/// another, each with an equal share of `--seconds`, pooled.
fn measure(name: &str, args: &Args) -> Result<RunResult, String> {
    let processes = if args.smoke { 2 } else { PROCESSES };
    let seconds = (args.seconds / processes as f64).to_string();
    let mut samples = Vec::new();
    for i in 0..processes {
        let mut extra = vec!["--sample", "--seconds", &seconds];
        if args.verbose && i == 0 {
            extra.push("--verbose");
        }
        let stdout = run_child(name, args, &extra)?;
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        // What a process says besides its sample: failed ops, --verbose.
        lines.iter().for_each(|l| println!("{l}"));
        samples.push(Sample::parse(last).ok_or(format!("process {i}: no sample in '{last}'"))?);
    }

    let (values, verdict, failures) = pool(&samples);
    let failed = samples.iter().map(|s| s.failed).sum::<usize>() + failures.len();
    println!(
        "workload {name}  seed {}  processes {processes}  ops_attempted {}  ops_failed {failed}",
        args.seed, verdict.n
    );
    println!("  digest {:#018x} (printed, not pinned)", samples[0].digest);
    count_failures(&failures);
    for (def, value) in END_TO_END.iter().zip(values) {
        let detail = match def.0 {
            "verdict_s" => verdict.render(),
            "setup_s" | "peak_rss_mb" => format!("{value:.6} (median of {processes} processes)"),
            "pes_used" => format!("{value} (exact)"),
            _ => format!("{value:.6}"),
        };
        print_metric(def, &detail);
    }
    Ok(RunResult {
        attempted: verdict.n,
        failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(def, v)| (def.0.to_string(), v, def.1.to_string()))
            .collect(),
    })
}

/// The traced pass: a few ops with spans on, alternating with untraced ones
/// for the overhead ratio, then the workload's probes, then the ledger.
fn measure_traced<W: Workload>(name: &str, args: &Args, p: &Params) -> Result<RunResult, String> {
    let (w, warm) = set_up::<W>(name, p)?;
    let mut off = Tracer::new(false);
    let mut on = Tracer::new(true);
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut outs = Vec::new();
    let mut ledger = Ledger::default();
    let phase = Instant::now();
    loop {
        let start = Instant::now();
        outs.push(w.op(&mut off));
        plain_s.push(start.elapsed().as_secs_f64());

        on.begin_op(traced_s.len() as u32);
        let start = Instant::now();
        let out = w.op(&mut on);
        traced_s.push(start.elapsed().as_secs_f64());
        for (count, value) in out.iter().flat_map(|o| &o.counts) {
            ledger.add(count, *value);
        }
        outs.push(out);
        let enough = if args.smoke { 1 } else { 2 };
        let budget = args.seconds * TRACED_OPS_SHARE;
        if traced_s.len() >= enough && (args.smoke || phase.elapsed().as_secs_f64() >= budget) {
            break;
        }
    }
    ledger.add_spans(&on.spans);
    on.begin_op(traced_s.len() as u32);
    w.probes(&mut on, &mut ledger)?;
    ledger.set(
        "driver.trace_overhead_ratio",
        stats::median(&traced_s) / stats::median(&plain_s),
    );

    let mut failures: Vec<String> = outs
        .iter()
        .enumerate()
        .filter_map(|(i, out)| judge(&w, &warm, out).err().map(|e| format!("op {i}: {e}")))
        .collect();
    if let Some(share) = ledger.closure_failure() {
        failures.push(format!(
            "ledger: {:.1} % of the op is outside every layer span, above the {:.0} % limit",
            share * 100.0,
            layers::CLOSURE_LIMIT * 100.0
        ));
    }

    println!(
        "workload {name}  seed {}  traced pass  ops_attempted {}  ops_failed {}  traced ops {}",
        p.seed,
        outs.len(),
        failures.len(),
        traced_s.len()
    );
    let metrics: Vec<(String, f64, String)> = PER_LAYER
        .iter()
        .map(|def| {
            let value = ledger.get(def.0);
            if let Some(v) = value {
                print_metric(def, &format!("{v:.9}"));
            }
            // The result line carries every per-layer metric; a layer that
            // is not on this workload's path reads 0.
            (def.0.to_string(), value.unwrap_or(0.0), def.1.to_string())
        })
        .collect();
    if let Some(path) = &args.spans {
        let doc = spans::to_json(name, &on.spans, &metrics);
        std::fs::write(path, doc).map_err(|e| format!("writing {path}: {e}"))?;
        println!("  {} spans written to {path}", on.spans.len());
    }
    Ok(RunResult {
        attempted: outs.len(),
        failed: count_failures(&failures),
        metrics,
    })
}

/// What this process measures itself: one sample of an end-to-end run, or a
/// traced pass. The line to print last, and whether every check passed (a
/// sample's failed ops are counted by the parent that pools it).
fn in_process<W: Workload>(name: &str, args: &Args) -> Result<(String, bool), String> {
    let p = Params {
        seed: args.seed,
        threads: host::threads(),
        smoke: args.smoke,
    };
    if args.sample {
        Ok((sample::<W>(name, args, &p)?.line(), true))
    } else {
        let result = measure_traced::<W>(name, args, &p)?;
        Ok((result.line(), result.failed == 0))
    }
}

/// `--workload NAME`: a sample, the traced pass, or the end-to-end run.
fn run_workload(name: &str, args: &Args) -> ExitCode {
    if !args.sample {
        println!("{}", HostInfo::detect().render());
    }
    let run = match name {
        _ if !args.sample && !args.trace => measure(name, args).map(|r| (r.line(), r.failed == 0)),
        "explore_static" => in_process::<Explore>(name, args),
        "fleet_mixed" => in_process::<Fleet>(name, args),
        _ => in_process::<Stream>(name, args),
    };
    match run {
        Ok((line, ok)) => {
            println!("{line}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark: {name}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Every workload in turn; `--calibrate` repeats the lot.
fn run_all(args: &Args) -> ExitCode {
    println!("{}", HostInfo::detect().render());
    let runs = args.calibrate.unwrap_or(1).max(1);
    let mut ok = true;
    // values[workload][run], in END_TO_END's order.
    let mut values: Vec<Vec<Vec<f64>>> = vec![Vec::new(); NAMES.len()];
    for run in 0..runs {
        if runs > 1 {
            println!("calibration run {} of {runs}", run + 1);
        }
        for (w, name) in NAMES.iter().enumerate() {
            match measure(name, args) {
                Ok(result) => {
                    ok &= result.failed == 0;
                    values[w].push(result.metrics.iter().map(|m| m.1).collect());
                }
                Err(e) => {
                    println!("  FAILED {name}: {e}");
                    ok = false;
                }
            }
            if args.trace {
                let seconds = args.seconds.to_string();
                let spans = args
                    .spans
                    .as_ref()
                    .map(|prefix| format!("{prefix}.{name}.json"));
                let mut extra = vec!["--trace", "1", "--seconds", &seconds];
                if let Some(file) = &spans {
                    extra.extend(["--spans", file]);
                }
                match run_child(name, args, &extra) {
                    // This process printed the host line once; skip the child's.
                    Ok(stdout) => stdout
                        .lines()
                        .filter(|l| !l.starts_with("host."))
                        .for_each(|l| println!("{l}")),
                    Err(e) => {
                        println!("  FAILED {name}, traced pass: {e}");
                        ok = false;
                    }
                }
            }
        }
    }

    println!(
        "\nsummary: end-to-end medians per workload{}",
        if runs > 1 { " and run" } else { "" }
    );
    for (m, (def, bound)) in END_TO_END.iter().zip(BOUNDS).enumerate() {
        println!("{} [{}, {} is better, bound {bound}]", def.0, def.1, def.2);
        for (name, per_run) in NAMES.iter().zip(&values) {
            let cells: Vec<String> = per_run.iter().map(|v| format!("{:.6}", v[m])).collect();
            let (lo, hi) = per_run.iter().fold((f64::MAX, f64::MIN), |(lo, hi), v| {
                (lo.min(v[m]), hi.max(v[m]))
            });
            // Runs further apart than the bound cannot show a regression of
            // the bound's size: say so, do not call the metric unchanged.
            let gap = match (hi - lo) / lo {
                _ if per_run.len() < 2 || lo <= 0.0 => String::new(),
                gap if gap > bound => format!("  gap {:.1} %  unresolved", gap * 100.0),
                gap => format!("  gap {:.1} %", gap * 100.0),
            };
            println!("  {name:<16} {}{gap}", cells.join("  "));
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        println!("FAILED: at least one workload failed a check or did not finish");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match parse_args(&argv) {
        Ok(args) => match &args.workload {
            Some(name) => run_workload(name, &args),
            None => run_all(&args),
        },
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_arguments_parse_and_bad_ones_are_refused() {
        let a = parse_args(&argv(
            "--workload bank_seq --seed 17 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("bank_seq"), 17, 10.0, true)
        );
        let a = parse_args(&argv("--workload bank_seq --sample")).unwrap();
        assert!(a.sample && !a.trace);
        let a = parse_args(&argv("--calibrate 3 --trace 1 --smoke")).unwrap();
        assert_eq!(
            (a.calibrate, a.trace, a.smoke, a.seconds),
            (Some(3), true, true, f64::from(DEFAULT_SECONDS))
        );
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds",
            "--sample",
            "--frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn the_result_line_is_json_with_exactly_the_contract_keys() {
        let result = RunResult {
            attempted: 41,
            failed: 0,
            metrics: vec![
                ("verdict_s".into(), 0.15625, "s".into()),
                ("pes_used".into(), 44.0, "count".into()),
            ],
        };
        let line = result.line();
        bp_sim::validate_json(&line).expect("well-formed");
        let keys: Vec<usize> = ["{\"correct\": true", "\"attempted\": 41", "\"failed\": 0"]
            .iter()
            .chain(&["\"metrics\": {\"verdict_s\": {", "\"pes_used\": {"])
            .map(|k| line.find(k).unwrap_or_else(|| panic!("{k} not in {line}")))
            .collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "key order: {line}");
        assert_eq!(line.matches("\": ").count(), 4 + 2 * 3, "no other key");
        assert!(line.contains("\"verdict_s\": {\"value\": 0.15625, \"unit\": \"s\"}"));
        let failed = RunResult {
            failed: 1,
            ..result
        };
        assert!(failed
            .line()
            .starts_with("{\"correct\": false, \"attempted\": 41, \"failed\": 1"));
    }

    fn a_sample(setup_s: f64, peak_rss_mb: f64, op_s: &[f64]) -> Sample {
        Sample {
            setup_s,
            cpu_s: op_s.iter().sum(),
            peak_rss_mb,
            pes_used: 44,
            digest: 0xfeed_0000_0000_0001,
            failed: 0,
            op_s: op_s.to_vec(),
        }
    }

    #[test]
    fn a_sample_reads_back_from_its_line() {
        let s = a_sample(0.3471, 5.8125, &[0.1612345678, 0.17, 1e-3]);
        assert_eq!(Sample::parse(&s.line()), Some(s.clone()));
        assert_eq!(Sample::parse("  FAILED op 3: digest differs"), None);
        assert_eq!(Sample::parse("sample 0.3 0.2 5.8 44"), None);
        assert_eq!(Sample::parse(&s.line().replace("0.17", "fast")), None);
    }

    #[test]
    fn a_run_pools_ops_and_takes_medians_over_its_processes() {
        let samples = [
            a_sample(0.30, 9.0, &[0.10, 0.12]),
            a_sample(0.50, 5.0, &[0.30, 0.20, 0.40]),
            a_sample(0.40, 6.0, &[0.11]),
        ];
        let (values, verdict, failures) = pool(&samples);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(verdict.n, 6);
        let want = [0.40, 0.16, 1.23 / 6.0, 6.0, 44.0];
        for ((got, want), def) in values.iter().zip(want).zip(END_TO_END) {
            assert!((got - want).abs() < 1e-12, "{}: {got} vs {want}", def.0);
        }
        // A process whose outputs differ from the others' fails the run.
        let mut odd = samples.to_vec();
        odd[2].digest ^= 1;
        assert_eq!(pool(&odd).2.len(), 1);
        odd[1].pes_used = 45;
        assert_eq!(pool(&odd).2.len(), 2);
    }

    /// Cargo takes profiles from the workspace root, which for this package
    /// is its own manifest: its release profile must stay the root's.
    #[test]
    fn release_profile_is_the_root_manifests() {
        fn profile(manifest: &str) -> Vec<&str> {
            manifest
                .lines()
                .skip_while(|l| *l != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.trim().is_empty())
                .collect()
        }
        let own = profile(include_str!("../Cargo.toml"));
        assert!(!own.is_empty());
        assert_eq!(own, profile(include_str!("../../Cargo.toml")));
    }
}
