//! Scoped-thread parallel runner (in-tree `crossbeam` + `parking_lot`
//! stand-in).
//!
//! [`map_parallel`] fans a job list out over a worker pool built on
//! `std::thread::scope`. Workers claim the next unclaimed job index from
//! one shared counter, so a slow (mix, scheme) point never holds up the
//! jobs behind it; campaigns run at most a few hundred jobs of 0.1 s or
//! more each, so one `fetch_add` per job is all the scheduling they need.
//! Each worker hands back its `(index, result)` pairs when it is joined,
//! the caller puts them in input order, and a panicking job's payload is
//! resumed in the caller.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of workers to use by default: `IVL_WORKERS` when set, else one
/// per available core.
pub fn available_workers() -> usize {
    if let Ok(v) = std::env::var("IVL_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Applies `f` to every job on up to `workers` scoped threads and returns
/// the results **in input order**.
///
/// Jobs are claimed in input order, so with `workers = 1` they also run in
/// input order.
pub fn map_parallel<I, T, F>(jobs: &[I], workers: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    if jobs.is_empty() {
        return Vec::new();
    }
    let workers = workers.clamp(1, jobs.len());
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            // Joining the worker orders its results before the caller
            // reads them, so the claim itself needs no ordering.
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(job) = jobs.get(i) else { break };
            done.push((i, f(job)));
        }
        done
    };

    let mut slots: Vec<Option<T>> = jobs.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => {
                    for (i, out) in done {
                        slots[i] = Some(out);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every job completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_input_order() {
        let jobs: Vec<u64> = (0..257).collect();
        let out = map_parallel(&jobs, 8, |&j| {
            // Stagger completion so late jobs often finish before early
            // ones; ordering must still hold.
            std::thread::sleep(std::time::Duration::from_micros((257 - j) % 7 * 50));
            j * 3
        });
        assert_eq!(out, jobs.iter().map(|j| j * 3).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single_job_lists() {
        let none: Vec<u32> = Vec::new();
        assert!(map_parallel(&none, 4, |&j| j).is_empty());
        assert_eq!(map_parallel(&[41u32], 16, |&j| j + 1), vec![42]);
    }

    #[test]
    fn worker_count_larger_than_jobs_is_fine() {
        let out = map_parallel(&[1u32, 2, 3], 64, |&j| j);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn panicking_job_propagates() {
        let caught = std::panic::catch_unwind(|| {
            map_parallel(&[0u32, 1], 2, |&j| {
                assert!(j != 1, "boom");
                j
            })
        });
        // The job's own payload reaches the caller, not a generic
        // "a scoped thread panicked".
        let payload = caught.expect_err("the job's panic must reach the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        assert_eq!(msg, Some("boom"));
    }

    #[test]
    fn every_job_runs_exactly_once_behind_a_slow_job() {
        // One pathologically slow job claimed first: the other workers must
        // claim everything behind it, and nothing may run twice.
        let jobs: Vec<usize> = (0..64).collect();
        let runs: Vec<AtomicUsize> = (0..jobs.len()).map(|_| AtomicUsize::new(0)).collect();
        let out = map_parallel(&jobs, 4, |&j| {
            runs[j].fetch_add(1, Ordering::Relaxed);
            if j == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            j
        });
        assert_eq!(out, jobs);
        for (j, r) in runs.iter().enumerate() {
            assert_eq!(
                r.load(Ordering::Relaxed),
                1,
                "job {j} ran a wrong number of times"
            );
        }
    }

    #[test]
    fn single_worker_runs_jobs_in_input_order() {
        let jobs: Vec<usize> = (0..33).collect();
        let order = std::sync::Mutex::new(Vec::new());
        let out = map_parallel(&jobs, 1, |&j| {
            order.lock().unwrap().push(j);
            j
        });
        assert_eq!(out, jobs);
        assert_eq!(order.into_inner().unwrap(), jobs);
    }

    #[test]
    fn results_identical_across_worker_counts() {
        let jobs: Vec<u64> = (0..41).collect();
        let serial = map_parallel(&jobs, 1, |&j| j * j + 1);
        for workers in [2, 3, 8] {
            assert_eq!(serial, map_parallel(&jobs, workers, |&j| j * j + 1));
        }
    }
}
