//! E-perf — thread-scaling study of the sharded parallel timed simulator
//! (DESIGN.md §9) on a machine with many independent PE regions.
//!
//! The workload is `camera_bank(8, ...)`: eight disjoint camera pipelines
//! mapped one-to-one, giving a 384-PE machine (96 in `--smoke`) whose
//! mapped channel graph has eight weakly connected components — the shape
//! the sharded engine parallelizes. For each worker count in {1, 2, 4, 8}
//! the study records median wall time and asserts the `SimReport`
//! fingerprint is identical across *all* counts (the engine's core
//! guarantee), then splices a `"sim_scaling"` object into `BENCH_sim.json`
//! (schema `bench_sim/v8`, see EXPERIMENTS.md).
//!
//! Flags: `--threads N` caps the sweep at N workers; `--smoke` runs a
//! fast configuration and skips the JSON splice (used by CI to exercise
//! the parallel engine end to end).

use bp_bench::{extract_number, extract_object};
use bp_compiler::{compile, CompileOptions, MappingKind};
use bp_sim::{ParallelTimedSimulator, SimConfig};
use std::fmt::Write as _;
use std::time::Instant;

/// Camera pipelines in the bank; one weakly connected component each.
const CAMERAS: usize = 8;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

struct SweepPoint {
    threads: usize,
    shards: usize,
    wall_ms_median: f64,
}

fn main() {
    let mut out_path = "BENCH_sim.json".to_string();
    let mut max_threads = 8usize;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threads" => {
                max_threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads needs a positive integer");
            }
            "--smoke" => smoke = true,
            other => out_path = other.to_string(),
        }
    }
    let (frames, samples, dim, rate) = if smoke {
        (2u32, 3usize, bp_apps::SMALL, bp_apps::SLOW)
    } else {
        (4u32, 9usize, bp_apps::BIG, bp_apps::FAST)
    };

    let app = bp_apps::camera_bank(CAMERAS, dim, rate);
    let opts = CompileOptions {
        mapping: MappingKind::OneToOne,
        ..Default::default()
    };
    let compiled = compile(&app.graph, &opts).expect("compile camera_bank");
    assert!(
        compiled.mapping.num_pes >= 64,
        "scaling study needs a >=64-PE machine, got {}",
        compiled.mapping.num_pes
    );
    let config = SimConfig::new(frames).with_machine(opts.machine);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "camera_bank x{CAMERAS} {}x{} @ {rate} Hz: {} PEs, {} frames, \
         {samples} samples/point, {cores} core(s) available",
        dim.w, dim.h, compiled.mapping.num_pes, frames
    );

    let mut fingerprint: Option<u64> = None;
    let mut points: Vec<SweepPoint> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        if threads > max_threads {
            break;
        }
        let mut walls = Vec::with_capacity(samples);
        let mut shards = 0usize;
        for s in 0..samples + 2 {
            let sim = ParallelTimedSimulator::new(
                &compiled.graph,
                &compiled.mapping,
                config.clone(),
                threads,
            )
            .expect("instantiate");
            shards = sim.num_shards();
            let t0 = Instant::now();
            let report = sim.run().expect("run");
            let wall = t0.elapsed().as_secs_f64();
            let fp = report.fingerprint();
            match fingerprint {
                None => fingerprint = Some(fp),
                Some(want) => assert_eq!(
                    fp, want,
                    "SimReport diverged at {threads} threads — parallel engine \
                     is not bitwise deterministic"
                ),
            }
            if s >= 2 {
                walls.push(wall * 1e3); // first two samples are warm-up
            }
        }
        let wall_ms_median = median(walls);
        let speedup = points
            .first()
            .map(|p| p.wall_ms_median / wall_ms_median)
            .unwrap_or(1.0);
        println!(
            "  {threads} thread(s): {shards} shard(s), median {wall_ms_median:.3} ms \
             ({speedup:.2}x vs 1 thread)"
        );
        points.push(SweepPoint {
            threads,
            shards,
            wall_ms_median,
        });
    }
    let fingerprint = fingerprint.expect("at least one sweep point");
    println!("report fingerprint identical across all thread counts: {fingerprint:#018x}");

    if smoke {
        println!("smoke mode: skipping {out_path} update");
        return;
    }

    let base = points[0].wall_ms_median;
    let mut block = String::new();
    block.push_str("{\n");
    let _ = writeln!(
        block,
        "    \"app\": \"camera_bank\", \"cameras\": {CAMERAS}, \"dim\": \"{}x{}\", \
         \"rate_hz\": {rate:.1}, \"frames\": {frames}, \"samples\": {samples}, \
         \"num_pes\": {}, \"cores_available\": {cores},",
        dim.w, dim.h, compiled.mapping.num_pes
    );
    let _ = writeln!(block, "    \"fingerprint\": \"{fingerprint:#018x}\",");
    block.push_str("    \"threads\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(
            block,
            "      {{ \"threads\": {}, \"shards\": {}, \"wall_ms_median\": {:.3}, \
             \"speedup_vs_1_thread\": {:.3} }}{}",
            p.threads,
            p.shards,
            p.wall_ms_median,
            base / p.wall_ms_median,
            if i + 1 < points.len() { "," } else { "" }
        );
    }
    block.push_str("    ]\n  }");

    // Splice the block into BENCH_sim.json, replacing any previous one.
    let src = std::fs::read_to_string(&out_path)
        .unwrap_or_else(|e| panic!("{out_path}: {e} — run bench_json first"));
    let out = match extract_object(&src, "sim_scaling") {
        Some(old) => src.replacen(&old, &block, 1),
        None => {
            let anchor = "  \"timed_speedup_vs_baseline\"";
            let at = src.find(anchor).expect("bench_sim schema anchor");
            format!("{}  \"sim_scaling\": {block},\n{}", &src[..at], &src[at..])
        }
    };
    // Sanity: the spliced file still parses for the keys we care about.
    assert!(extract_number(&out, "cores_available").is_some());
    std::fs::write(&out_path, &out).expect("write BENCH_sim.json");
    println!("wrote sim_scaling block into {out_path}");
}
