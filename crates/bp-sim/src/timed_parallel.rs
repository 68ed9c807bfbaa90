//! Multi-threaded timed simulation with bitwise-identical results
//! (DESIGN.md §9 and §11).
//!
//! Under the zero communication model a conservative parallel
//! discrete-event simulator has zero lookahead across any channel: two PEs
//! connected (even transitively) by channels can interact at the very
//! timestamp being processed. What runs freely in parallel then are the
//! weakly connected components of the *direct* (zero-latency) channel
//! graph — no item routing, no dispatch wave, and no back-pressure ever
//! crosses between them. [`bp_core::ShardPlan`] groups those components
//! into per-worker shards; each worker runs the ordinary event loop
//! ([`crate::timed::ShardSim`]) over its own PEs.
//!
//! A nonzero [`bp_core::CommModel`] is what buys lookahead *within* a
//! component: a delayed channel's effects (arrivals, credit returns) land
//! at least its latency after the event that caused them, so the minimum
//! latency `L` over cross-shard channels bounds how far one shard can run
//! ahead of the others without missing an incoming event — classic
//! conservative (null-message-free, barrier-windowed) PDES. A coordinator
//! repeatedly gathers every shard's earliest pending/in-flight timestamp
//! `m` and releases the workers to process events with `t < m + L`;
//! cross-shard events ride per-shard mutex inboxes and are drained at the
//! next window boundary, which they cannot precede. With positive `L` even
//! a single connected component (e.g. `fig1b`) executes on multiple
//! workers; the zero model degenerates to one infinite window per
//! component, i.e. exactly the pre-model behavior.
//!
//! Within one shard, event times and handler effects are independent of
//! the other shards during a window (disjoint node state; remote effects
//! arrive only beyond the window edge), and the pop order of the shard's
//! events equals the sequential simulator's pop order restricted to that
//! shard: band-0 events (emissions, completions) are keyed by the local
//! insertion counter, which filters the global insertion order, and band-1
//! communication events carry creation-time `(stream, seq)` ordinals that
//! are identical in both engines. Per-shard artifacts — PE stats, node
//! firings, queue depths — are therefore already bitwise equal to the
//! sequential run's, and are merged by taking each entry from its owning
//! shard.
//!
//! Globally *ordered* artifacts (the interleaving of sink end-of-frame
//! arrivals across shards, which feeds frame accounting) additionally need
//! the sequential pop order across shards. Each worker journals, per
//! processed event, the pushes it performed — time, band ordinal, and
//! *target shard* (the destination for cross-shard communication) — and
//! how many EOFs/frame-starts it recorded ([`crate::timed::ShardLog`]).
//! The merge then *replays* the global heap symbolically: it seeds the
//! startup pushes in program order, pops by `(time, band ordinal)`, and
//! consumes the popped event's target-shard journal in order,
//! reconstructing the exact global event order — and thus the exact
//! `SimReport` — without touching any kernel state.

use crate::deadlock::SimOutcome;
use crate::events::{EventQueue, HeapQueue};
use crate::parallel::DisjointSlots;
use crate::runtime::RtNode;
use crate::stats::{PeStats, SimReport};
use crate::timed::{
    build_shared, settle, LogEntry, OutMsg, ShardLog, ShardOutcome, ShardSim, Shared, SimConfig,
    TimedSimulator,
};
use crate::trace::{Trace, TraceEvent, TraceMeta, TraceRecorder};
use bp_core::graph::AppGraph;
use bp_core::machine::{Mapping, ShardPlan};
use bp_core::Result;
use bp_metrics::{MetricsRecorder, MetricsTape};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// Counters describing how a parallel run was scheduled, for scaling
/// analysis and tests (e.g. asserting that a single-component app really
/// executed on several workers once the comm model gave it lookahead).
#[derive(Clone, Debug)]
pub struct ParallelRunStats {
    /// Worker threads the run used (1 = sequential fallback).
    pub shards: usize,
    /// Conservative lookahead: the minimum latency over cross-shard
    /// channels (`+inf` when shards are fully independent — then a single
    /// unbounded window runs each shard to completion).
    pub lookahead_s: f64,
    /// Synchronization windows the coordinator released.
    pub windows: u64,
    /// Events processed by each shard's event loop (empty in the
    /// sequential fallback).
    pub shard_events: Vec<u64>,
}

/// Timed simulator that executes independent PE interaction regions on
/// worker threads. Produces bitwise-identical [`SimReport`]s to
/// [`TimedSimulator`] for every graph, mapping, and thread count.
pub struct ParallelTimedSimulator {
    nodes: Vec<RtNode>,
    shared: Shared,
    plan: ShardPlan,
}

impl ParallelTimedSimulator {
    /// Instantiate the graph under the given mapping, targeting up to
    /// `threads` worker threads. The usable parallelism is capped by the
    /// number of independent PE regions ([`ShardPlan::num_components`]);
    /// with one region (or `threads <= 1`) the run degrades to the
    /// sequential engine.
    pub fn new(
        graph: &AppGraph,
        mapping: &Mapping,
        config: SimConfig,
        threads: usize,
    ) -> Result<Self> {
        let (nodes, shared) = build_shared(graph, mapping, config)?;
        // Shards must not be split across *direct* (zero-latency) channels
        // — those deliver synchronously. Delayed channels are exactly the
        // safe cut points: their latency is the lookahead. Dependency
        // edges carry no runtime traffic, but fold them in anyway:
        // sharding is correctness-critical, and the cost of a merged
        // component is only lost parallelism.
        let mut edges: Vec<(usize, usize)> = shared
            .channels
            .iter()
            .filter(|c| c.latency_s <= 0.0)
            .map(|c| (c.src, c.dst))
            .collect();
        edges.extend(graph.dep_edges().iter().map(|d| (d.src.0, d.dst.0)));
        let plan = ShardPlan::build(mapping, &edges, threads.max(1));
        Ok(Self {
            nodes,
            shared,
            plan,
        })
    }

    /// Worker threads the run will actually use.
    pub fn num_shards(&self) -> usize {
        self.plan.num_shards
    }

    /// Run the simulation to completion and report. A capacity deadlock
    /// becomes a simulation error carrying the rendered
    /// [`DeadlockReport`](crate::deadlock::DeadlockReport); use
    /// [`run_outcome`](Self::run_outcome) for the structured diagnosis.
    pub fn run(self) -> Result<SimReport> {
        self.run_with_stats().map(|(report, _, _)| report)
    }

    /// Run the simulation and report how it settled: completed, or
    /// capacity-deadlocked with a structured
    /// [`DeadlockReport`](crate::deadlock::DeadlockReport). The outcome —
    /// deadlock diagnosis included — is assembled from the merged shard
    /// state and is bitwise identical to the sequential engine's at any
    /// thread count.
    pub fn run_outcome(self) -> SimOutcome {
        self.run_outcome_with_stats().0
    }

    /// Run the simulation and also return the merged [`Trace`] when
    /// [`SimConfig::trace`] was set (`None` otherwise). The per-shard
    /// streams are interleaved by the journal replay into the global
    /// `(t, ord)` pop order, so — as long as no ring dropped events — the
    /// merged trace is bitwise identical to the sequential engine's at any
    /// thread count.
    pub fn run_with_trace(self) -> Result<(SimReport, Option<Trace>)> {
        self.run_with_stats()
            .map(|(report, trace, _)| (report, trace))
    }

    /// Run and additionally return [`ParallelRunStats`] describing the
    /// parallel schedule (shards, lookahead, windows, per-shard events).
    pub fn run_with_stats(self) -> Result<(SimReport, Option<Trace>, ParallelRunStats)> {
        let (outcome, trace, _, stats) = self.run_outcome_with_artifacts();
        Ok((outcome.into_report()?, trace, stats))
    }

    /// Run the simulation and also return the merged [`MetricsTape`] when
    /// [`SimConfig::with_metrics`] was set (`None` otherwise). Per-shard
    /// recorders are merged into exactly the recorder a sequential run
    /// produces, so the tape is bitwise identical at any thread count,
    /// and the report is bit-identical to [`run`](Self::run)'s.
    pub fn run_with_metrics(self) -> Result<(SimReport, Option<MetricsTape>)> {
        let (outcome, _, tape, _) = self.run_outcome_with_artifacts();
        Ok((outcome.into_report()?, tape))
    }

    /// [`run_outcome`](Self::run_outcome), plus the merged trace (when
    /// tracing was enabled) and the [`ParallelRunStats`].
    pub fn run_outcome_with_stats(self) -> (SimOutcome, Option<Trace>, ParallelRunStats) {
        let (outcome, trace, _, stats) = self.run_outcome_with_artifacts();
        (outcome, trace, stats)
    }

    /// Every artifact from one run: the outcome, the merged trace (when
    /// tracing was enabled), the merged metrics tape (when a metrics
    /// policy was set), and the schedule stats. One call, one simulation —
    /// the differential suites use this to compare every deterministic
    /// surface of a single run against the sequential oracle's.
    pub fn run_with_artifacts(
        self,
    ) -> (
        SimOutcome,
        Option<Trace>,
        Option<MetricsTape>,
        ParallelRunStats,
    ) {
        self.run_outcome_with_artifacts()
    }

    /// The full artifact set from one parallel run: outcome, merged
    /// trace, merged metrics tape, and schedule stats.
    fn run_outcome_with_artifacts(
        self,
    ) -> (
        SimOutcome,
        Option<Trace>,
        Option<MetricsTape>,
        ParallelRunStats,
    ) {
        let Self {
            nodes,
            shared,
            plan,
        } = self;
        if plan.num_shards <= 1 {
            let (outcome, trace, tape) =
                TimedSimulator { nodes, shared }.run_outcome_with_artifacts();
            let stats = ParallelRunStats {
                shards: 1,
                lookahead_s: f64::INFINITY,
                windows: 0,
                shard_events: Vec::new(),
            };
            return (outcome, trace, tape, stats);
        }
        let n = nodes.len();
        let num_pes = shared.residents.len();
        // Conservative lookahead: no cross-shard channel can deliver an
        // effect sooner than this after its cause. Cross-shard channels are
        // delayed by construction (direct edges are never cut), so with any
        // of them present this is positive; with none it is +inf and each
        // shard runs to completion in one window.
        let lookahead_s = shared
            .channels
            .iter()
            .filter(|c| {
                plan.shard_of_pe[shared.pe_of_node[c.src]]
                    != plan.shard_of_pe[shared.pe_of_node[c.dst]]
            })
            .map(|c| c.latency_s)
            .fold(f64::INFINITY, f64::min);
        // Every shard engine shares (by `Arc`) the tables, the node slots
        // it owns a disjoint part of, the PE partition and the inboxes.
        let shared = Arc::new(shared);
        let slots = Arc::new(DisjointSlots::new(nodes));
        let shard_of_pe: Arc<[usize]> = plan.shard_of_pe.as_slice().into();
        // Cross-shard communication inboxes, one per destination shard.
        let inboxes: Arc<[Mutex<Vec<OutMsg>>]> = (0..plan.num_shards)
            .map(|_| Mutex::new(Vec::new()))
            .collect();
        // Per-shard published timestamps (f64 bits): the earliest pending
        // local event and the earliest message sent to another shard since
        // the last publication. All simulation times are non-negative, so
        // the bit patterns order like the floats.
        let next_t: Vec<AtomicU64> = (0..plan.num_shards)
            .map(|_| AtomicU64::new(f64::INFINITY.to_bits()))
            .collect();
        let min_out: Vec<AtomicU64> = (0..plan.num_shards)
            .map(|_| AtomicU64::new(f64::INFINITY.to_bits()))
            .collect();
        let window = AtomicU64::new(f64::INFINITY.to_bits());
        let stop = AtomicBool::new(false);
        // Workers + coordinator rendezvous twice per round: once so every
        // worker has published its timestamps, once so the coordinator has
        // set the window (or the stop flag).
        let barrier = Barrier::new(plan.num_shards + 1);
        let mut windows = 0u64;
        let mut outcomes: Vec<ShardOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..plan.num_shards)
                .map(|shard| {
                    let mut sim = ShardSim::new(
                        Arc::clone(&shared),
                        Arc::clone(&slots),
                        shard,
                        Arc::clone(&shard_of_pe),
                        true,
                        Some(Arc::clone(&inboxes)),
                    );
                    let barrier = &barrier;
                    let (next_t, min_out) = (&next_t[..], &min_out[..]);
                    let (window, stop) = (&window, &stop);
                    scope.spawn(move || {
                        sim.init();
                        next_t[shard].store(sim.next_pending().to_bits(), Ordering::SeqCst);
                        min_out[shard].store(sim.take_min_out().to_bits(), Ordering::SeqCst);
                        loop {
                            barrier.wait();
                            barrier.wait();
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                            let end = f64::from_bits(window.load(Ordering::SeqCst));
                            sim.drain_inbox();
                            sim.run(end, usize::MAX);
                            next_t[shard].store(sim.next_pending().to_bits(), Ordering::SeqCst);
                            min_out[shard].store(sim.take_min_out().to_bits(), Ordering::SeqCst);
                        }
                        sim.into_outcome()
                    })
                })
                .collect();
            // Coordinator: release windows until every shard is idle with
            // nothing in flight. Any message a worker sent this round is
            // visible in its `min_out` publication, so "all +inf" is a
            // sound global-quiescence test.
            loop {
                barrier.wait();
                let horizon = (0..plan.num_shards)
                    .map(|s| {
                        f64::from_bits(next_t[s].load(Ordering::SeqCst))
                            .min(f64::from_bits(min_out[s].load(Ordering::SeqCst)))
                    })
                    .fold(f64::INFINITY, f64::min);
                if horizon.is_infinite() {
                    stop.store(true, Ordering::SeqCst);
                } else {
                    window.store((horizon + lookahead_s).to_bits(), Ordering::SeqCst);
                    windows += 1;
                }
                barrier.wait();
                if stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });
        let nodes = Arc::into_inner(slots)
            .expect("every shard engine was consumed into its outcome")
            .into_inner();

        // Disjoint merge: every PE (and node) is written by exactly one
        // shard; take its entries from the owner.
        let mut stats = vec![PeStats::default(); num_pes];
        for (pe, slot) in stats.iter_mut().enumerate() {
            *slot = outcomes[plan.shard_of_pe[pe]].stats[pe];
        }
        let owner = |i: usize| &outcomes[plan.shard_of_pe[shared.pe_of_node[i]]];
        let node_busy: Vec<f64> = (0..n).map(|i| owner(i).node_busy[i]).collect();
        let custom_token_emissions: Vec<u64> =
            (0..n).map(|i| owner(i).custom_token_emissions[i]).collect();
        let budget_overruns: Vec<u64> = (0..n).map(|i| owner(i).budget_overruns[i]).collect();
        let node_max_queue: Vec<usize> = (0..n).map(|i| owner(i).node_max_queue[i]).collect();
        // A channel's credits live with its *source* shard (the spender).
        let credits: Vec<i64> = shared
            .channels
            .iter()
            .enumerate()
            .map(|(ci, c)| outcomes[plan.shard_of_pe[shared.pe_of_node[c.src]]].credits[ci])
            .collect();
        let violations: u64 = outcomes.iter().map(|o| o.violations).sum();
        // The sequential loop leaves `now` at the time of the last popped
        // event; events pop in ascending time, so that is the maximum event
        // time over all shards (pure selection, no arithmetic).
        let now = outcomes.iter().map(|o| o.now).fold(0.0f64, f64::max);

        // Per-shard metrics accumulators merge commutatively (interval
        // counters sum, high-water marks max, first-violation times min,
        // per-PE busy cells are disjoint), so a shard-order fold yields
        // exactly the sequential run's recorder.
        let merged_metrics: Option<MetricsRecorder> = {
            let mut recs = outcomes.iter_mut().map(|o| o.metrics.take());
            recs.next().flatten().map(|mut first| {
                for mut rec in recs.flatten() {
                    rec.seal();
                    first.merge_from(&rec);
                }
                first
            })
        };

        // Pull the recorders out so the journals (still inside `outcomes`)
        // and the recorders can be walked together during the replay.
        let mut recorders: Vec<Option<TraceRecorder>> =
            outcomes.iter_mut().map(|o| o.trace.take()).collect();
        let tracing = recorders.iter().any(Option::is_some);
        let mut merged_events: Vec<TraceEvent> = Vec::new();
        let (sink_eof_times, frame_start_times) = replay_merge(
            &shared,
            &plan,
            &outcomes,
            &mut recorders,
            &mut merged_events,
        );
        let trace = tracing.then(|| Trace {
            meta: TraceMeta::from_parts(
                &nodes,
                &shared.pe_of_node,
                num_pes,
                shared.machine.pe_clock_hz,
                &shared.channels,
            ),
            events: merged_events,
            dropped: recorders.iter().flatten().map(|r| r.dropped).sum(),
        });

        let run_stats = ParallelRunStats {
            shards: plan.num_shards,
            lookahead_s,
            windows,
            shard_events: outcomes
                .iter()
                .map(|o| o.log.as_ref().map_or(0, |l| l.main.len() as u64))
                .collect(),
        };
        let merged = ShardOutcome {
            stats,
            node_busy,
            violations,
            sink_eof_times,
            frame_start_times,
            custom_token_emissions,
            budget_overruns,
            node_max_queue,
            credits,
            now,
            log: None,
            trace: None,
            metrics: merged_metrics,
        };
        let (outcome, tape) = settle(&shared, &nodes, merged);
        (outcome, trace, tape, run_stats)
    }
}

/// Reconstruct the global event pop order from the per-shard journals and
/// emit the globally-ordered artifacts: sink EOF times, frame start times,
/// and (when tracing) the merged trace-event stream, exactly as the
/// sequential simulator would have recorded them. Each journal entry
/// carries its shard's trace-event count for that entry, so consuming an
/// entry also moves that many events from the shard's recorder into
/// `merged` — interleaving the shard streams in global pop order.
fn replay_merge(
    shared: &Shared,
    plan: &ShardPlan,
    outcomes: &[ShardOutcome],
    recorders: &mut [Option<TraceRecorder>],
    merged: &mut Vec<TraceEvent>,
) -> (Vec<f64>, Vec<f64>) {
    let logs: Vec<&ShardLog> = outcomes
        .iter()
        .map(|o| o.log.as_ref().expect("parallel shards record journals"))
        .collect();
    // The replay heap mirrors the sequential engine's: push order assigns
    // the global sequence numbers, pops come back in `(t, seq)` order.
    let mut heap: HeapQueue<usize> = HeapQueue::new();
    let mut push_idx = vec![0usize; logs.len()];
    let mut eofs: Vec<f64> = Vec::new();
    let mut starts: Vec<f64> = Vec::new();

    fn consume(
        sh: usize,
        entry: LogEntry,
        log: &ShardLog,
        push_idx: &mut [usize],
        heap: &mut HeapQueue<usize>,
        eofs: &mut Vec<f64>,
        starts: &mut Vec<f64>,
    ) {
        for _ in 0..entry.pushes {
            let rec = log.pushes[push_idx[sh]];
            push_idx[sh] += 1;
            // Band-0 pushes take the replay heap's insertion counter —
            // reproducing the sequential engine's counter stream, because
            // the replay performs the pushes in the sequential order.
            // Band-1 pushes carry their creation-time ordinal. The payload
            // is the shard whose journal the event consumes when popped:
            // the *destination* shard for cross-shard communication.
            if rec.ord == 0 {
                heap.push(rec.t, rec.target as usize);
            } else {
                heap.push_ord(rec.t, rec.ord, rec.target as usize);
            }
        }
        for _ in 0..entry.eofs {
            eofs.push(entry.t);
        }
        for _ in 0..entry.starts {
            starts.push(entry.t);
        }
    }

    // Startup: the sequential engine fires every const in program order
    // (each may schedule events), then seeds one SourceEmit per source in
    // program order. Each shard performed the same steps filtered to its
    // nodes, so its journal entries are consumed as the global order visits
    // its nodes.
    let mut init_idx = vec![0usize; logs.len()];
    for &(node, _) in &shared.tables.consts {
        let sh = plan.shard_of_pe[shared.pe_of_node[node]];
        let entry = logs[sh].init[init_idx[sh]];
        if let Some(rec) = recorders[sh].as_mut() {
            let count = rec.init_counts[init_idx[sh]];
            rec.take(count, merged);
        }
        init_idx[sh] += 1;
        consume(
            sh,
            entry,
            logs[sh],
            &mut push_idx,
            &mut heap,
            &mut eofs,
            &mut starts,
        );
    }
    for s in &shared.tables.sources {
        heap.push(0.0, plan.shard_of_pe[shared.pe_of_node[s.node]]);
    }

    let mut main_idx = vec![0usize; logs.len()];
    while let Some(ev) = heap.pop() {
        let sh = ev.payload;
        let entry = logs[sh].main[main_idx[sh]];
        if let Some(rec) = recorders[sh].as_mut() {
            let count = rec.main_counts[main_idx[sh]];
            rec.take(count, merged);
        }
        main_idx[sh] += 1;
        debug_assert_eq!(
            entry.t.to_bits(),
            ev.t.to_bits(),
            "replay desync on shard {sh}: journal has t={}, heap popped t={} — \
             shards were not independent",
            entry.t,
            ev.t
        );
        consume(
            sh,
            entry,
            logs[sh],
            &mut push_idx,
            &mut heap,
            &mut eofs,
            &mut starts,
        );
    }
    for (sh, log) in logs.iter().enumerate() {
        debug_assert_eq!(
            main_idx[sh],
            log.main.len(),
            "shard {sh} journal not fully replayed"
        );
        debug_assert_eq!(push_idx[sh], log.pushes.len());
        debug_assert_eq!(
            recorders[sh].as_ref().map_or(0, |r| r.remaining()),
            0,
            "shard {sh} trace not fully merged"
        );
    }
    (eofs, starts)
}
