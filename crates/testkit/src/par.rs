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
//! resumed in the caller. A panicking job also stops the campaign: no
//! worker claims another job once one has unwound.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

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
/// input order. If a job panics, the workers finish the jobs they are
/// running, claim no more, and the first panicking job's payload is
/// resumed in the caller.
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
    let stop = AtomicBool::new(false);
    let worker = || {
        let _stop_on_panic = StopOnPanic(&stop);
        let mut done = Vec::new();
        while !stop.load(Ordering::Relaxed) {
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

/// Raises the campaign's stop flag when dropped by a worker that is
/// unwinding out of a job. The flag publishes no data (results reach the
/// caller through `join`), so its accesses need no ordering.
struct StopOnPanic<'a>(&'a AtomicBool);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
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
    fn panicking_job_stops_the_campaign() {
        // Set when the thread that ran job 0 exits, which is after its
        // worker has unwound out of `map_parallel`'s claim loop.
        static JOB0_THREAD_EXITED: AtomicBool = AtomicBool::new(false);
        struct SetOnThreadExit;
        impl Drop for SetOnThreadExit {
            fn drop(&mut self) {
                JOB0_THREAD_EXITED.store(true, Ordering::SeqCst);
            }
        }
        thread_local! {
            static ON_EXIT: std::cell::Cell<Option<SetOnThreadExit>> =
                const { std::cell::Cell::new(None) };
        }
        // Job 0 panics. Every other job waits until job 0's thread has
        // exited, so the other worker is inside at most one job when the
        // panic happens and claims nothing after that job. Counting job
        // starts after job 0's own start bounds what ran after the panic.
        let workers = 2;
        let jobs: Vec<usize> = (0..40).collect();
        let started = AtomicUsize::new(0);
        let job0_start = AtomicUsize::new(usize::MAX);
        let caught = std::panic::catch_unwind(|| {
            map_parallel(&jobs, workers, |&j| {
                let seq = started.fetch_add(1, Ordering::SeqCst);
                if j == 0 {
                    job0_start.store(seq, Ordering::SeqCst);
                    ON_EXIT.set(Some(SetOnThreadExit));
                    panic!("first point failed");
                }
                while !JOB0_THREAD_EXITED.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            })
        });
        assert!(caught.is_err(), "the job's panic must reach the caller");
        let after = started.load(Ordering::SeqCst) - job0_start.load(Ordering::SeqCst) - 1;
        assert!(
            after < workers,
            "{after} jobs started after the panicking job (at most {} allowed)",
            workers - 1
        );
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
