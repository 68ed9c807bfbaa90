//! `explore_static`: a design-space sweep that builds, compiles, checks,
//! lowers and instantiates a fixed population of configurations and never
//! runs an event loop.

use crate::layers::{Ledger, COMPILE, VERDICT};
use crate::spans::{SpanId, Tracer};
use crate::stats;
use crate::workloads::{
    census, mix, replay_compile, visiting_order, CompileTally, Out, Params, Workload,
};
use bp_apps::App;
use bp_compiler::{check_compiled, compile, CompileOptions, MappingKind};
use bp_core::{Dim2, Rng64};
use bp_sim::{SimConfig, TimedSimulator};
use std::sync::Arc;

const APPS: [&str; 11] = [
    "fig1b",
    "bayer",
    "histogram",
    "parallel_buffer",
    "multi_conv",
    "temporal_iir",
    "fir_radio",
    "edge_detect",
    "analytics",
    "stereo_diff",
    "camera_bank",
];
const RATES_HZ: [f64; 4] = [25.0, 50.0, 100.0, 200.0];
const MAPPINGS: [MappingKind; 3] = [
    MappingKind::Greedy,
    MappingKind::Packed,
    MappingKind::OneToOne,
];
/// Frame sizes are drawn on a 4-pixel lattice: width 16..=80, height 12..=48.
const WIDTH_STEPS: u32 = 17;
const HEIGHT_STEPS: u32 = 10;
/// Sizes drawn per (app, rate, mapping) cell: 132 cells × 6 = 792.
const SIZES_PER_CELL: usize = 6;
/// The population is a fixed draw; `--seed` only orders it.
const POPULATION_SEED: u64 = 0xb10c_9a7a;
/// Past the lattice, at 200 Hz, replication exceeds what `bp-codegen` can
/// lower (a `join_rr` with more than 64 inputs). The traced pass and
/// `--verbose` sweep this corner and count what fails; no timed op visits it.
const EDGE_WIDTHS: [u32; 3] = [84, 88, 92];
const EDGE_HEIGHTS: [u32; 3] = [40, 44, 48];

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExploreConfig {
    app: usize,
    w: u32,
    h: u32,
    rate_hz: f64,
    mapping: MappingKind,
}

impl ExploreConfig {
    fn build(&self) -> App {
        let dim = Dim2::new(self.w, self.h);
        match APPS[self.app] {
            "fig1b" => bp_apps::fig1b(dim, self.rate_hz),
            "bayer" => bp_apps::bayer(dim, self.rate_hz),
            "histogram" => bp_apps::histogram_app(dim, self.rate_hz, 32),
            "parallel_buffer" => bp_apps::parallel_buffer_test(dim, self.rate_hz),
            "multi_conv" => bp_apps::multi_conv(dim, self.rate_hz, 3),
            "temporal_iir" => bp_apps::temporal_iir(dim, self.rate_hz),
            // One-dimensional: as many samples as a sixteenth of the frame,
            // in the 8 + 4k form the decimator needs.
            "fir_radio" => bp_apps::fir_radio(8 + 4 * (self.w * self.h / 16), self.rate_hz),
            "edge_detect" => bp_apps::edge_detect(dim, self.rate_hz, 0.5),
            "analytics" => bp_apps::analytics(dim, self.rate_hz),
            "stereo_diff" => bp_apps::stereo_diff(dim, self.rate_hz),
            _ => bp_apps::camera_bank(2, dim, self.rate_hz),
        }
    }

    fn opts(&self) -> CompileOptions {
        CompileOptions {
            mapping: self.mapping,
            ..CompileOptions::default()
        }
    }

    fn render(&self) -> String {
        format!(
            "{} {}x{} @{} Hz {:?}",
            APPS[self.app], self.w, self.h, self.rate_hz, self.mapping
        )
    }
}

fn cells() -> impl Iterator<Item = (usize, f64, MappingKind)> {
    (0..APPS.len()).flat_map(|app| {
        RATES_HZ
            .iter()
            .flat_map(move |&rate| MAPPINGS.iter().map(move |&mapping| (app, rate, mapping)))
    })
}

/// The fixed population, in population order.
fn population(sizes_per_cell: usize) -> Vec<ExploreConfig> {
    let mut rng = Rng64::seed_from_u64(POPULATION_SEED);
    let mut configs = Vec::new();
    for (app, rate_hz, mapping) in cells() {
        for _ in 0..sizes_per_cell {
            configs.push(ExploreConfig {
                app,
                w: 16 + 4 * rng.gen_range_u32(0, WIDTH_STEPS),
                h: 12 + 4 * rng.gen_range_u32(0, HEIGHT_STEPS),
                rate_hz,
                mapping,
            });
        }
    }
    configs
}

/// The corner no timed op visits: every app and mapping at 200 Hz.
fn edge_population() -> Vec<ExploreConfig> {
    let mut configs = Vec::new();
    for (app, rate_hz, mapping) in cells().filter(|c| c.1 == 200.0) {
        for w in EDGE_WIDTHS {
            for h in EDGE_HEIGHTS {
                configs.push(ExploreConfig {
                    app,
                    w,
                    h,
                    rate_hz,
                    mapping,
                });
            }
        }
    }
    configs
}

/// What the sweep found for one configuration.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// Compiled, lowered and instantiated. `violations` counts what
    /// `check_compiled` found: the design point does not fit the machine.
    Built {
        nodes: usize,
        channels: usize,
        pes: usize,
        violations: usize,
    },
    /// A step returned an error.
    Failed { step: &'static str, error: String },
}

pub struct Explore {
    configs: Vec<ExploreConfig>,
    order: Vec<usize>,
    /// Outcomes of the setup sweep, in population order.
    reference: Vec<Outcome>,
}

pub struct ExploreOut {
    /// In population order, whatever order the sweep visited them in.
    outcomes: Vec<Outcome>,
}

/// One configuration, graph to instantiated simulator.
fn explore_one(
    t: &mut Tracer,
    config: &ExploreConfig,
    tally: &mut CompileTally,
) -> (Outcome, Option<SpanId>) {
    let opts = config.opts();
    let failed = |step: &'static str, e: bp_core::BpError| Outcome::Failed {
        step,
        error: e.to_string(),
    };
    let app = t.span("apps.build_s", |_| config.build());
    let (compiled, compile_span) = t.span_id(COMPILE, |_| compile(&app.graph, &opts));
    let compiled = match compiled {
        Ok(c) => c,
        Err(e) => return (failed("compile", e), compile_span),
    };
    let check = t.span("compiler.check_s", |_| {
        check_compiled(
            &compiled.graph,
            &compiled.dataflow,
            &opts.machine,
            &compiled.mapping,
        )
    });
    tally.add(&compiled, check.violations.len());
    let program = match t.span("codegen.lower_s", |_| {
        bp_codegen::lower_graph(&compiled.graph)
    }) {
        Ok(p) => p,
        Err(e) => return (failed("lower", e), compile_span),
    };
    let built = t.span("sim.instantiate_s", |_| {
        let config = SimConfig::new(1)
            .with_machine(opts.machine)
            .with_lowered(Arc::new(program));
        TimedSimulator::new(&compiled.graph, &compiled.mapping, config).map(drop)
    });
    if let Err(e) = built {
        return (failed("instantiate", e), compile_span);
    }
    let (nodes, channels, pes) = census(&compiled);
    let outcome = Outcome::Built {
        nodes,
        channels,
        pes,
        violations: check.violations.len(),
    };
    (outcome, compile_span)
}

fn outcome_digest(outcomes: &[Outcome]) -> u64 {
    outcomes.iter().fold(0xcbf29ce484222325, |h, o| match o {
        Outcome::Built {
            nodes,
            channels,
            pes,
            violations,
        } => [nodes, channels, pes, violations]
            .iter()
            .fold(mix(h, 1), |h, v| mix(h, **v as u64)),
        Outcome::Failed { step, .. } => mix(mix(h, 2), step.len() as u64),
    })
}

/// Sweep the edge corner; `(configuration, step, error)` per failure.
fn edge_failures() -> Vec<(ExploreConfig, &'static str, String)> {
    let mut off = Tracer::new(false);
    let mut tally = CompileTally::default();
    edge_population()
        .into_iter()
        .filter_map(
            |config| match explore_one(&mut off, &config, &mut tally).0 {
                Outcome::Failed { step, error } => Some((config, step, error)),
                Outcome::Built { .. } => None,
            },
        )
        .collect()
}

impl Workload for Explore {
    type X = ExploreOut;

    fn setup(_name: &str, p: &Params) -> Result<Self, String> {
        let configs = population(if p.smoke { 1 } else { SIZES_PER_CELL });
        let mut this = Self {
            order: visiting_order(configs.len(), p.seed),
            configs,
            reference: Vec::new(),
        };
        this.reference = this.op(&mut Tracer::new(false))?.x.outcomes;
        Ok(this)
    }

    fn op(&self, t: &mut Tracer) -> Result<Out<ExploreOut>, String> {
        let mut tally = CompileTally::default();
        let mut outcomes: Vec<Option<(Outcome, Option<SpanId>)>> = vec![None; self.configs.len()];
        let mut config_s = Vec::with_capacity(self.configs.len());
        t.span(VERDICT, |t| {
            for &i in &self.order {
                let start = std::time::Instant::now();
                outcomes[i] = Some(explore_one(t, &self.configs[i], &mut tally));
                config_s.push(start.elapsed().as_secs_f64());
            }
        });
        let outcomes: Vec<(Outcome, Option<SpanId>)> = outcomes.into_iter().flatten().collect();

        let mut counts = tally.counts();
        if t.is_on() {
            let mut mismatches = 0.0;
            for (config, (outcome, compile_span)) in self.configs.iter().zip(&outcomes) {
                if let Outcome::Built {
                    nodes,
                    channels,
                    pes,
                    ..
                } = *outcome
                {
                    let graph = config.build().graph;
                    let want = (nodes, channels, pes);
                    if !replay_compile(t, *compile_span, &graph, &config.opts(), want) {
                        mismatches += 1.0;
                    }
                }
            }
            counts.push(("driver.replay_mismatches", mismatches));
        }
        let outcomes: Vec<Outcome> = outcomes.into_iter().map(|(o, _)| o).collect();
        let infeasible = outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Built { violations, .. } if *violations > 0))
            .count();
        config_s.sort_by(f64::total_cmp);
        counts.extend([
            ("explore.infeasible", infeasible as f64),
            ("explore.config_p50_s", stats::quantile(&config_s, 0.5)),
            ("explore.config_p99_s", stats::quantile(&config_s, 0.99)),
        ]);
        Ok(Out {
            pes_used: tally.pes,
            repeat: outcome_digest(&outcomes),
            counts,
            x: ExploreOut { outcomes },
        })
    }

    fn check(&self, out: &Out<ExploreOut>) -> Result<(), String> {
        let outcomes = &out.x.outcomes;
        if outcomes.len() != self.configs.len() {
            return Err(format!(
                "swept {} of {} configurations",
                outcomes.len(),
                self.configs.len()
            ));
        }
        for (config, outcome) in self.configs.iter().zip(outcomes) {
            if let Outcome::Failed { step, error } = outcome {
                return Err(format!("{}: {step} failed: {error}", config.render()));
            }
        }
        // The setup sweep itself is checked before there is a reference.
        let changed = self
            .reference
            .iter()
            .zip(outcomes)
            .position(|(then, now)| then != now);
        match changed {
            Some(i) => Err(format!(
                "{}: {:?} now, {:?} at setup",
                self.configs[i].render(),
                outcomes[i],
                self.reference[i]
            )),
            None => Ok(()),
        }
    }

    fn probes(&self, _t: &mut Tracer, ledger: &mut Ledger) -> Result<(), String> {
        ledger.set("codegen.lower_failed", edge_failures().len() as f64);
        Ok(())
    }

    fn verbose(&self) -> Vec<String> {
        let infeasible: Vec<String> = self
            .configs
            .iter()
            .zip(&self.reference)
            .filter_map(|(c, o)| match o {
                Outcome::Built { violations, .. } if *violations > 0 => Some(format!(
                    "  infeasible ({violations} violation(s)): {}",
                    c.render()
                )),
                _ => None,
            })
            .collect();
        let edge = edge_population().len();
        let failures = edge_failures();
        let mut lines = vec![format!(
            "explore_static: {} of {} configurations do not fit the machine (check_compiled)",
            infeasible.len(),
            self.configs.len()
        )];
        lines.extend(infeasible);
        lines.push(format!(
            "explore_static edge corner (widths {EDGE_WIDTHS:?} x heights {EDGE_HEIGHTS:?} at 200 Hz, \
             outside every timed op): {} of {edge} configurations fail",
            failures.len()
        ));
        lines.extend(
            failures
                .iter()
                .map(|(c, step, error)| format!("  failed at {step}: {}: {error}", c.render())),
        );
        lines
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
    fn the_population_is_a_fixed_draw_on_the_lattice() {
        assert_eq!(population(2), population(2));
        assert_eq!(population(SIZES_PER_CELL).len(), 792);
        assert!(population(1)
            .iter()
            .all(|c| (16..=80).contains(&c.w) && (12..=48).contains(&c.h)));
    }

    #[test]
    fn the_sweep_repeats_in_any_order_and_the_replay_matches_compile() {
        let w = Explore::setup("explore_static", &SMOKE).unwrap();
        let other = Explore::setup("explore_static", &Params { seed: 8, ..SMOKE }).unwrap();
        assert_ne!(w.order, other.order);
        let mut t = Tracer::new(true);
        let out = other.op(&mut t).unwrap();
        w.check(&out).unwrap();
        assert_eq!(out.repeat, outcome_digest(&w.reference));
        assert!(out.counts.contains(&("driver.replay_mismatches", 0.0)));
        assert!(t.spans.iter().any(|s| s.name == "compiler.multiplex_s"));

        let mut broken = out;
        broken.x.outcomes[0] = Outcome::Failed {
            step: "lower",
            error: "x".into(),
        };
        assert!(w.check(&broken).unwrap_err().contains("lower failed"));
    }

    #[test]
    fn the_edge_corner_fails_only_at_lowering() {
        let failures = edge_failures();
        assert!(
            failures.iter().all(|(_, step, _)| *step == "lower"),
            "{failures:?}"
        );
    }
}
