//! `stream_seq`, `stream_observed`, `bank_seq` and `coupled_seq`: one graph at
//! the paper's geometry, simulated to a verdict on the sequential engine.
//!
//! Every timed op runs on one thread. The parallel engine needs two workers
//! and a coordinator to run at all, and on a shared two-core host the same
//! code then reads 25-40 % slower for minutes at a time (one thread: 10-15 %),
//! which no bound can hold. It is measured by the traced pass, as probes on
//! `host.threads` workers next to the sequential run they are compared with.

use crate::host;
use crate::layers::{Ledger, COMPILE, VERDICT};
use crate::spans::{SpanId, Tracer};
use crate::stats;
use crate::workloads::{
    census, err, mix, probe, replay_compile, CompileTally, Counts, Out, Params, Workload,
};
use bp_apps::App;
use bp_compiler::{check_compiled, compile, CompileOptions, Compiled, MappingKind};
use bp_core::{Dim2, Rng64};
use bp_sim::{
    Backend, BucketQueue, CommModel, EventQueue, FunctionalExecutor, MetricsPolicy,
    ParallelTimedSimulator, SimConfig, SimReport, SteppableSim, TimedSimulator, TraceOptions,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StreamKind {
    /// fig1b on the sequential engine, unobserved.
    Seq,
    /// fig1b on the sequential engine with trace and metrics on, exported.
    Observed,
    /// Eight independent fig1b pipelines, one PE per kernel, metrics on.
    Bank,
    /// fig1b under a 64-cycle uniform comm model.
    Coupled,
}

/// Paper geometry: Fig. 1(b) at 40×24, 200 Hz ("Big/Fast" of Fig. 11).
const DIM: (u32, u32) = (40, 24);
const RATE_HZ: f64 = 200.0;
const BANK_CAMERAS: usize = 8;
const COMM_CYCLES: f64 = 64.0;
/// fig1b's histogram: bins and range, as `bp_apps::fig1b` fixes them.
const HIST: (usize, f64, f64) = (32, -128.0, 128.0);
/// Frames of the interpreter cross-check.
const ORACLE_FRAMES: u32 = 2;

pub struct Stream {
    kind: StreamKind,
    frames: u32,
    /// Workers of the parallel engine in the traced pass's probes.
    threads: usize,
    opts: CompileOptions,
    /// `reference::fig1b_expected` per frame: what every sink must hold.
    expected: Vec<Vec<f64>>,
    /// Fingerprint of a plain run of the same graph and comm model: nothing
    /// lowered beforehand, nothing observed.
    seq_fingerprint: u64,
}

pub struct StreamOut {
    fingerprint: u64,
    frames_completed: u32,
    met: bool,
    /// Completed frames per sink.
    sinks: Vec<Vec<Vec<f64>>>,
}

fn model_counts(r: &SimReport) -> Counts {
    vec![
        ("sim.firings", r.node_firings.iter().sum::<u64>() as f64),
        ("sim.model_sim_time_s", r.sim_time),
        ("sim.model_utilization", r.avg_utilization()),
        (
            "sim.model_frame_latency_max_s",
            r.frame_latencies.iter().copied().fold(0.0, f64::max),
        ),
        ("sim.model_violations", r.verdict.violations as f64),
    ]
}

fn parallel_counts(s: &bp_sim::ParallelRunStats) -> Counts {
    let max = s.shard_events.iter().copied().max().unwrap_or(0) as f64;
    let mean = s.shard_events.iter().sum::<u64>() as f64 / s.shard_events.len().max(1) as f64;
    vec![
        ("parallel.shards", s.shards as f64),
        ("parallel.windows", s.windows as f64),
        (
            "parallel.shard_imbalance",
            if mean > 0.0 { max / mean } else { 0.0 },
        ),
    ]
}

impl Stream {
    fn build(&self) -> App {
        let dim = Dim2::new(DIM.0, DIM.1);
        match self.kind {
            StreamKind::Bank => bp_apps::camera_bank(BANK_CAMERAS, dim, RATE_HZ),
            _ => bp_apps::fig1b(dim, RATE_HZ),
        }
    }

    /// The unobserved configuration: machine, and the comm model if any.
    fn config(&self, frames: u32) -> SimConfig {
        let config = SimConfig::new(frames).with_machine(self.opts.machine);
        match self.kind {
            StreamKind::Coupled => config.with_comm(self.comm()),
            _ => config,
        }
    }

    fn comm(&self) -> CommModel {
        CommModel::uniform(COMM_CYCLES / self.opts.machine.pe_clock_hz, 0.0)
    }

    fn compile(&self) -> Result<Compiled, String> {
        compile(&self.build().graph, &self.opts).map_err(err)
    }

    fn sequential(&self, c: &Compiled, config: SimConfig) -> Result<SimReport, String> {
        TimedSimulator::new(&c.graph, &c.mapping, config)
            .and_then(TimedSimulator::run)
            .map_err(err)
    }

    /// Everything inside the verdict span. Returns what the replay needs too.
    fn verdict(
        &self,
        t: &mut Tracer,
    ) -> Result<(Out<StreamOut>, App, Compiled, Option<SpanId>), String> {
        let app = t.span("apps.build_s", |_| self.build());
        let (compiled, compile_span) = t.span_id(COMPILE, |_| compile(&app.graph, &self.opts));
        let compiled = compiled.map_err(err)?;
        let check = t.span("compiler.check_s", |_| {
            check_compiled(
                &compiled.graph,
                &compiled.dataflow,
                &self.opts.machine,
                &compiled.mapping,
            )
        });
        let program = t
            .span("codegen.lower_s", |_| {
                bp_codegen::lower_graph(&compiled.graph)
            })
            .map_err(err)?;
        let config = self.config(self.frames).with_lowered(Arc::new(program));
        let (graph, mapping) = (&compiled.graph, &compiled.mapping);

        let mut repeat = 0;
        let mut counts = Counts::new();
        let config = match self.kind {
            StreamKind::Observed => config
                .with_trace(TraceOptions::default())
                .with_metrics(MetricsPolicy::new()),
            StreamKind::Bank => config.with_metrics(MetricsPolicy::new()),
            StreamKind::Seq | StreamKind::Coupled => config,
        };
        let sim = t
            .span("sim.instantiate_s", |_| {
                TimedSimulator::new(graph, mapping, config)
            })
            .map_err(err)?;
        let (report, trace, tape) = t
            .span("sim.run_s", |_| sim.run_with_artifacts())
            .map_err(err)?;
        if self.kind == StreamKind::Observed {
            // What `bpc --trace FILE --metrics=FILE` does with them.
            let trace = trace.ok_or("tracing was on but no trace came back")?;
            let tape = tape
                .as_ref()
                .ok_or("metrics were on but no tape came back")?;
            let chrome = t.span("trace.chrome_export_s", |_| {
                bp_sim::chrome_trace_json(&trace)
            });
            t.span("trace.validate_s", |_| bp_sim::validate_json(&chrome))
                .map_err(|e| format!("chrome trace is not well-formed JSON: {e}"))?;
            let jsonl = t.span("metrics.tape_jsonl_s", |_| tape.to_jsonl());
            if trace.dropped > 0 {
                return Err(format!("trace ring dropped {} events", trace.dropped));
            }
            repeat = mix(mix(tape.digest(), chrome.len() as u64), jsonl.len() as u64);
            counts.extend([
                ("trace.events", trace.events.len() as f64),
                ("trace.chrome_bytes", chrome.len() as f64),
                ("metrics.tape_bytes", jsonl.len() as f64),
                ("metrics.snapshots", tape.snapshots.len() as f64),
            ]);
        }
        if self.kind == StreamKind::Bank {
            let tape = tape.ok_or("metrics were on but no tape came back")?;
            repeat = tape.digest();
            counts.push(("metrics.snapshots", tape.snapshots.len() as f64));
        }

        let mut tally = CompileTally::default();
        tally.add(&compiled, check.violations.len());
        counts.extend(tally.counts());
        counts.extend(model_counts(&report));
        let fingerprint = report.fingerprint();
        let out = Out {
            pes_used: tally.pes,
            repeat: mix(repeat, fingerprint),
            counts,
            x: StreamOut {
                fingerprint,
                frames_completed: report.frames_completed,
                met: report.verdict.met,
                sinks: app.sinks.iter().map(|(_, h)| h.frames()).collect(),
            },
        };
        Ok((out, app, compiled, compile_span))
    }
}

impl Workload for Stream {
    type X = StreamOut;

    fn setup(name: &str, p: &Params) -> Result<Self, String> {
        let (kind, frames, smoke_frames, mapping) = match name {
            "stream_seq" => (StreamKind::Seq, 48, 4, MappingKind::Greedy),
            "stream_observed" => (StreamKind::Observed, 4, 2, MappingKind::Greedy),
            "bank_seq" => (StreamKind::Bank, 6, 2, MappingKind::OneToOne),
            "coupled_seq" => (StreamKind::Coupled, 32, 2, MappingKind::Greedy),
            _ => return Err(format!("{name} is not a stream workload")),
        };
        let frames = if p.smoke { smoke_frames } else { frames };
        let mut this = Self {
            kind,
            frames,
            threads: p.threads,
            opts: CompileOptions {
                mapping,
                ..CompileOptions::default()
            },
            expected: (0..frames)
                .map(|f| {
                    bp_apps::reference::fig1b_expected(DIM.0, DIM.1, f, HIST.0, HIST.1, HIST.2)
                })
                .collect(),
            seq_fingerprint: 0,
        };
        let compiled = this.compile()?;
        this.seq_fingerprint = this
            .sequential(&compiled, this.config(frames))?
            .fingerprint();

        // The interpreter is the engine's oracle: the default backend must
        // reproduce it bit for bit.
        let oracle = |backend| {
            this.sequential(&compiled, this.config(ORACLE_FRAMES).with_backend(backend))
                .map(|r| r.fingerprint())
        };
        let (interpreted, auto) = (oracle(Backend::Interpreted)?, oracle(Backend::Auto)?);
        if interpreted != auto {
            return Err(format!(
                "Backend::Auto fingerprint {auto:#018x} differs from the interpreter's {interpreted:#018x}"
            ));
        }
        Ok(this)
    }

    fn op(&self, t: &mut Tracer) -> Result<Out<StreamOut>, String> {
        let (mut out, app, compiled, compile_span) = t.span(VERDICT, |t| self.verdict(t))?;
        if t.is_on() {
            let same = replay_compile(t, compile_span, &app.graph, &self.opts, census(&compiled));
            out.counts
                .push(("driver.replay_mismatches", if same { 0.0 } else { 1.0 }));
        }
        Ok(out)
    }

    fn check(&self, out: &Out<StreamOut>) -> Result<(), String> {
        let x = &out.x;
        if x.frames_completed != self.frames || !x.met {
            return Err(format!(
                "completed {} of {} frames, real-time met={}",
                x.frames_completed, self.frames, x.met
            ));
        }
        if x.fingerprint != self.seq_fingerprint {
            return Err(format!(
                "fingerprint {:#018x} differs from the plain run's {:#018x}",
                x.fingerprint, self.seq_fingerprint
            ));
        }
        for (sink, frames) in x.sinks.iter().enumerate() {
            if frames.len() != self.expected.len() {
                return Err(format!("sink {sink} holds {} frames", frames.len()));
            }
            if let Some(f) = (0..frames.len()).find(|&f| frames[f] != self.expected[f]) {
                return Err(format!(
                    "sink {sink} frame {f} differs from reference::fig1b_expected"
                ));
            }
        }
        Ok(())
    }

    fn probes(&self, t: &mut Tracer, ledger: &mut Ledger) -> Result<(), String> {
        const REPS: usize = 3;
        let c = self.compile()?;
        let plain = SimConfig::new(self.frames).with_machine(self.opts.machine);

        // Sequential runs of the same graph under five configurations, and
        // the parallel engine, interleaved so the host's drift hits them alike.
        const PLAIN: &str = "probe.seq_plain";
        const METERED: &str = "probe.seq_metrics";
        const TRACED: &str = "probe.seq_traced";
        const DELAYED: &str = "probe.seq_comm";
        const INTERPRETED: &str = "probe.seq_interpreted";
        let variants = [
            (PLAIN, plain.clone()),
            (METERED, plain.clone().with_metrics(MetricsPolicy::new())),
            (TRACED, plain.clone().with_trace(TraceOptions::default())),
            (DELAYED, plain.clone().with_comm(self.comm())),
            (
                INTERPRETED,
                plain.clone().with_backend(Backend::Interpreted),
            ),
        ];
        // The parallel engine is compared with the sequential one on the
        // workload's own configuration: metrics on for the bank, comm otherwise.
        let (base, base_config) = match self.kind {
            StreamKind::Bank => &variants[1],
            _ => &variants[3],
        };
        let parallel = matches!(self.kind, StreamKind::Bank | StreamKind::Coupled);
        const P_NEW: &str = "parallel.instantiate_s";
        const P_RUN: &str = "parallel.run_s";
        let mut wall: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let (mut cpu_base, mut cpu_parallel) = (0.0, 0.0);
        for _ in 0..REPS {
            for (name, config) in &variants {
                if *name == TRACED && self.kind != StreamKind::Observed {
                    continue;
                }
                let cpu_before = host::process_cpu_seconds()?;
                let s = probe(t, name, 1, || self.sequential(&c, config.clone()))?;
                wall.entry(name).or_default().push(s);
                if name == base {
                    cpu_base += host::process_cpu_seconds()? - cpu_before;
                }
            }
            if parallel {
                // The parallel engine on the base's configuration, in the
                // round of the run it is compared with. Its report must be
                // the sequential one bit for bit.
                let config = base_config.clone();
                let cpu_before = host::process_cpu_seconds()?;
                let (sim, s) = t.span_timed(P_NEW, |_| {
                    ParallelTimedSimulator::new(&c.graph, &c.mapping, config, self.threads)
                });
                wall.entry(P_NEW).or_default().push(s);
                let (run, s) = t.span_timed(P_RUN, |_| {
                    sim.and_then(ParallelTimedSimulator::run_with_stats)
                });
                wall.entry(P_RUN).or_default().push(s);
                cpu_parallel += host::process_cpu_seconds()? - cpu_before;
                let (report, _, schedule) = run.map_err(err)?;
                if report.fingerprint() != self.seq_fingerprint {
                    return Err(format!(
                        "parallel fingerprint {:#018x} differs from the sequential engine's {:#018x}",
                        report.fingerprint(),
                        self.seq_fingerprint
                    ));
                }
                for (name, v) in parallel_counts(&schedule) {
                    ledger.set(name, v);
                }
            }
        }
        let med = |name: &str| stats::median(&wall[name]);
        ledger.set("sim.comm_run_s", med(DELAYED));
        ledger.set("sim.interp_run_s", med(INTERPRETED));
        if matches!(self.kind, StreamKind::Observed | StreamKind::Bank) {
            ledger.set("metrics.recorder_s", med(METERED) - med(PLAIN));
        }
        if self.kind == StreamKind::Observed {
            ledger.set("trace.record_s", med(TRACED) - med(PLAIN));
        }
        if parallel {
            ledger.set(P_NEW, med(P_NEW));
            ledger.set(P_RUN, med(P_RUN));
            ledger.set("parallel.speedup", med(base) / (med(P_NEW) + med(P_RUN)));
            if cpu_base > 0.0 {
                ledger.set("parallel.cpu_ratio", cpu_parallel / cpu_base);
            }
        }

        // Event count, from a stepped pass that pops the identical sequence.
        let mut stepped =
            SteppableSim::new(&c.graph, &c.mapping, self.config(self.frames)).map_err(err)?;
        while !stepped.is_done() {
            stepped.step(usize::MAX);
        }
        let events = stepped.events_processed() as f64;
        ledger.set("sim.events", events);

        // How much of the event loop is kernel bodies and trigger matching:
        // the untimed executor fires the same kernels in dependency order.
        let functional = probe(t, "probe.functional", REPS, || {
            let mut ex = FunctionalExecutor::new(&c.graph).map_err(err)?;
            ex.run_frames(self.frames).map_err(err)
        })?;
        ledger.set("sim.functional_s", functional);

        // Estimates: the queue's hold cost at a steady 256 pending events,
        // times the events popped, as a share of the run.
        let hold_ns = queue_hold_ns(1.0 / self.opts.machine.pe_clock_hz);
        ledger.set("sim.queue_hold_ns", hold_ns);

        let run_s = ledger.get("sim.run_s").unwrap_or(0.0);
        if run_s > 0.0 {
            ledger.set("sim.fire_share", functional / run_s);
            ledger.set("sim.queue_est_share", events * hold_ns * 1e-9 / run_s);
            if let Some(firings) = ledger.get("sim.firings").filter(|f| *f > 0.0) {
                ledger.set("sim.ns_per_firing", run_s * 1e9 / firings);
            }
        }

        // Annealed placement sits on no verdict path yet; this is its base.
        // At the bank's 384 PEs one run takes seconds, so it runs once.
        let reps = if self.kind == StreamKind::Bank {
            1
        } else {
            REPS
        };
        let place = probe(t, "probe.place_annealed", reps, || {
            let config = bp_compiler::AnnealConfig::default();
            Ok(bp_compiler::place_annealed(
                &c.graph,
                &c.dataflow,
                &c.mapping,
                &config,
            ))
        })?;
        ledger.set("compiler.place_s", place);
        Ok(())
    }

    fn verbose(&self) -> Vec<String> {
        let Ok(c) = self.compile() else {
            return vec!["the graph no longer compiles".into()];
        };
        let report = check_compiled(&c.graph, &c.dataflow, &self.opts.machine, &c.mapping);
        let mut lines = vec![format!(
            "check_compiled reports {} violation(s) on the compiled graph (counted, not failed):",
            report.violations.len()
        )];
        lines.extend(
            report
                .violations
                .iter()
                .map(|v| format!("  {}: {}", v.rule, v.detail)),
        );
        lines
    }
}

/// Nanoseconds per push+pop on the engine's calendar queue while it holds
/// 256 pending events, with deltas shaped like the simulator's: a few kernel
/// completion times and one frame period, in PE cycles.
fn queue_hold_ns(cycle_s: f64) -> f64 {
    const PENDING: u32 = 256;
    const OPS: u32 = 200_000;
    const DELTA_CYCLES: [f64; 5] = [1.0, 6.0, 16.0, 81.0, 5000.0];
    let mut rng = Rng64::seed_from_u64(u64::from(PENDING));
    let mut delta = || DELTA_CYCLES[rng.gen_index(DELTA_CYCLES.len())] * cycle_s;
    let mut queue: BucketQueue<u32> = BucketQueue::new(cycle_s);
    let mut now = 0.0;
    for i in 0..PENDING {
        queue.push(now + delta(), i);
    }
    let start = std::time::Instant::now();
    for i in 0..OPS {
        queue.push(now + delta(), PENDING + i);
        let event = queue
            .pop()
            .expect("the queue never drains below its hold level");
        now = event.t;
        black_box(event.payload);
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(OPS)
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
    fn every_stream_workload_passes_its_checks_at_smoke_size() {
        for name in ["stream_seq", "stream_observed", "bank_seq", "coupled_seq"] {
            let w = Stream::setup(name, &SMOKE).unwrap();
            let out = w.op(&mut Tracer::new(false)).unwrap();
            w.check(&out).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(out.pes_used > 0);
        }
    }

    #[test]
    fn a_corrupted_reference_frame_fails_the_op() {
        let mut w = Stream::setup("stream_seq", &SMOKE).unwrap();
        let out = w.op(&mut Tracer::new(false)).unwrap();
        w.check(&out).unwrap();
        w.expected[1][3] += 1.0;
        let e = w.check(&out).unwrap_err();
        assert!(e.contains("frame 1"), "{e}");
        w.expected[1][3] -= 1.0;
        w.seq_fingerprint ^= 1;
        assert!(w.check(&out).unwrap_err().contains("fingerprint"));
    }
}
