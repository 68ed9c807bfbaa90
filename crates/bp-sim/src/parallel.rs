//! Host-side parallelism for simulation sweeps: run many independent
//! simulations (parameter sweeps, benchmark suites, mapping comparisons)
//! across OS threads. Each simulation itself stays deterministic and
//! single-threaded; only the batch is parallel, so results are identical to
//! a sequential run.
//!
//! Workers pull `(index, job)` pairs from one shared iterator behind a
//! mutex — held only for the pull, never while a job runs — and hand back
//! `(index, result)` pairs, which the caller places in job order. Jobs are
//! whole simulations, so one lock per job costs nothing measurable.

use std::sync::Mutex;

/// Run every job, using up to `std::thread::available_parallelism` worker
/// threads, and return the results in job order.
pub fn run_batch<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4);
    run_batch_with_workers(jobs, workers)
}

/// [`run_batch`] with an explicit worker count, for callers that want to
/// oversubscribe (I/O-bound jobs) or pin concurrency in tests.
pub fn run_batch_with_workers<T, F>(jobs: Vec<F>, workers: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    if n <= 1 || workers <= 1 {
        return jobs.into_iter().map(|j| j()).collect();
    }
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // The guard is dropped at the end of this statement,
                        // so the job runs unlocked.
                        let next = queue.lock().expect("job queue poisoned").next();
                        let Some((i, job)) = next else { break };
                        done.push((i, job()));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("batch worker panicked") {
                results[i] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_job_order() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..32)
            .map(|i| {
                let f: Box<dyn FnOnce() -> usize + Send> = Box::new(move || i * i);
                f
            })
            .collect();
        let got = run_batch(jobs);
        assert_eq!(got, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    /// Job order must hold even when 8 OS threads drain the queue and
    /// earlier jobs outlive later ones. The barrier in the first 8 jobs
    /// forces all 8 workers to run concurrently (a smaller pool would
    /// deadlock); the sleep skew makes later jobs finish first.
    #[test]
    fn job_order_holds_under_eight_threads() {
        use std::sync::Barrier;
        use std::time::Duration;

        let barrier = Barrier::new(8);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send + '_>> = (0..24)
            .map(|i| {
                let b = &barrier;
                let f: Box<dyn FnOnce() -> usize + Send + '_> = Box::new(move || {
                    if i < 8 {
                        b.wait();
                    }
                    std::thread::sleep(Duration::from_millis((24 - i) as u64 % 5));
                    i * 3 + 1
                });
                f
            })
            .collect();
        let got = run_batch_with_workers(jobs, 8);
        assert_eq!(got, (0..24).map(|i| i * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn single_job_runs_inline() {
        let got = run_batch(vec![|| 42]);
        assert_eq!(got, vec![42]);
    }

    #[test]
    fn empty_batch_is_empty() {
        let got: Vec<i32> = run_batch(Vec::<fn() -> i32>::new());
        assert!(got.is_empty());
    }

    type SimJob = Box<dyn FnOnce() -> (f64, Vec<f64>) + Send>;

    #[test]
    fn parallel_simulations_match_sequential() {
        use crate::{SimConfig, TimedSimulator};
        use bp_core::Mapping;

        let build = || {
            let dim = bp_core::Dim2::new(8, 6);
            let mut b = bp_core::GraphBuilder::new();
            let src = b.add_source("Input", bp_kernels::pattern_source(dim), dim, 20.0);
            let sc = b.add("S", bp_kernels::scale(2.0, 0.0));
            let (sdef, h) = bp_kernels::sink();
            let snk = b.add("Out", sdef);
            b.connect(src, "out", sc, "in");
            b.connect(sc, "out", snk, "in");
            (b.build().unwrap(), h)
        };

        let jobs: Vec<SimJob> = (0..8)
            .map(|_| {
                let f: SimJob = Box::new(move || {
                    let (g, h) = build();
                    let m = Mapping::one_to_one(g.node_count());
                    let r = TimedSimulator::new(&g, &m, SimConfig::new(1))
                        .unwrap()
                        .run()
                        .unwrap();
                    (r.sim_time, h.samples())
                });
                f
            })
            .collect();
        let results = run_batch(jobs);
        for (t, samples) in &results {
            assert_eq!(*t, results[0].0, "deterministic sim time");
            assert_eq!(samples, &results[0].1, "deterministic data");
        }
    }
}
