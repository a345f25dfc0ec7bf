//! The ordered worker pool: one scoped, dynamically balanced pool whose
//! results always come back in job order.
//!
//! It lives in the lowest crate so every layer shares it: the k-means
//! trainer and the VQRF classification pass ([`crate::kmeans`],
//! [`crate::vqrf`]) submit contiguous row jobs, and `spnerf-render`
//! re-exports it for its still-frame tiles and temporal warp re-march.
//!
//! # Determinism guarantee
//!
//! Workers pull jobs from an atomic counter, so which worker runs which
//! job depends on timing, but [`run_ordered`] hands the results back **in
//! job index order** on the calling thread. A caller whose jobs are pure
//! and who merges their results in that order gets bitwise-identical
//! output at every worker count, including one (the jobs then run inline).
//!
//! What the calling thread allocates does not depend on timing either.
//! Each result goes into its own slot, allocated before the workers start.
//! Per-worker result lists would be sized by the job split, so the caller's
//! heap layout would change from run to run, and with it how much memory
//! the process hands back to the OS.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a parallelism setting to a concrete worker count: `0` maps to
/// the host's available parallelism (at least 1), any other value is taken
/// as-is.
///
/// The host figure is [`std::thread::available_parallelism`], which on
/// Linux honours the process's CPU affinity mask and cgroup quota, so a
/// build pinned with `taskset -c 0` resolves `0` to one worker.
pub fn resolve_parallelism(parallelism: usize) -> usize {
    if parallelism == 0 {
        std::thread::available_parallelism().map(usize::from).unwrap_or(1)
    } else {
        parallelism
    }
}

/// Runs `job(0) .. job(jobs - 1)` on up to
/// [`resolve_parallelism`]`(parallelism)` scoped threads and returns the
/// results in job-index order.
///
/// Workers take jobs from an atomic cursor (dynamic load balancing, so a
/// slow job never stalls the rest) and put each result in that job's slot,
/// so the output never depends on which worker ran which job. With one
/// worker (or at most one job) the jobs run inline on the calling thread
/// and no thread is spawned.
///
/// # Examples
///
/// ```
/// use spnerf_voxel::pool::run_ordered;
///
/// let squares = run_ordered(4, 10, |i| i * i);
/// assert_eq!(squares, (0..10).map(|i| i * i).collect::<Vec<_>>());
/// ```
///
/// # Panics
///
/// Panics if a job panics.
pub fn run_ordered<T: Send>(
    parallelism: usize,
    jobs: usize,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let workers = resolve_parallelism(parallelism).min(jobs);
    if workers <= 1 {
        return (0..jobs).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs {
                        break;
                    }
                    let out = job(i);
                    *slots[i].lock().expect("a slot is only locked to store") = Some(out);
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("pool worker panicked");
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            let out = slot.into_inner().expect("a slot is only locked to store");
            out.expect("every job ran exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_returns_results_in_job_order() {
        let square = |i: usize| i * i;
        // More jobs than workers, more workers than jobs, all cores, one
        // worker (inline), and zero jobs (an empty re-march list).
        for (parallelism, jobs) in [(3usize, 17usize), (8, 3), (0, 23), (1, 9), (4, 0), (0, 0)] {
            let expected: Vec<usize> = (0..jobs).map(square).collect();
            assert_eq!(
                run_ordered(parallelism, jobs, square),
                expected,
                "parallelism={parallelism} jobs={jobs}"
            );
        }
        // Force out-of-order completion: job 0 holds its worker until the
        // other worker has finished every other job, so job 0 completes
        // last. The results must still come back in job order.
        let jobs = 37;
        let finished = AtomicUsize::new(0);
        let out = run_ordered(2, jobs, |i| {
            if i == 0 {
                while finished.load(Ordering::SeqCst) < jobs - 1 {
                    std::thread::yield_now();
                }
            }
            finished.fetch_add(1, Ordering::SeqCst);
            square(i)
        });
        assert_eq!(out, (0..jobs).map(square).collect::<Vec<_>>());
    }

    #[test]
    fn a_job_panic_reaches_the_caller() {
        let result = std::panic::catch_unwind(|| {
            run_ordered(2, 16, |i| {
                assert_ne!(i, 5, "job 5 fails");
                i
            })
        });
        assert!(result.is_err());
    }
}
