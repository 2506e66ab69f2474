//! Order-preserving fan-out of independent snapshot-codec jobs onto scoped
//! threads.
//!
//! The snapshot's records are encoded, checksummed and decoded
//! independently, so a large snapshot spreads them over every core.  The
//! caller always gets its results back in job order, which is what keeps
//! the output bytes — and the first error a decode reports — exactly those
//! of a sequential pass.

#[cfg(test)]
use std::cell::Cell;
use std::cmp::Reverse;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Snapshots whose records weigh less than this many bytes in total are
/// encoded and decoded on the calling thread: below it, spawning a thread
/// costs more than the work it takes over (the crossover is measured in
/// `docs/PERF.md`).
pub(crate) const PARALLEL_MIN_BYTES: usize = 512 * 1024;

#[cfg(test)]
thread_local! {
    /// Set by tests that compare the threaded path with the sequential
    /// one on the same input.
    pub(crate) static FORCE_SEQUENTIAL: Cell<bool> = const { Cell::new(false) };
}

/// One unit of codec work.
pub(crate) type Task<'a, R> = Box<dyn FnOnce() -> R + Send + 'a>;

/// A task and its weight (payload bytes, exact or estimated): heavier
/// jobs are started first.
pub(crate) type Job<'a, R> = (usize, Task<'a, R>);

/// `available_parallelism()`, asked once per process (on Linux it reads
/// cgroup files).
pub(crate) fn available_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs every job and returns the results in job order.  With at least
/// [`PARALLEL_MIN_BYTES`] of total weight and more than one core, the jobs
/// run heaviest first on up to [`available_threads`] threads, the calling
/// thread included; otherwise they run in order on the calling thread.
pub(crate) fn run_ordered<'a, R: Send>(jobs: Vec<Job<'a, R>>) -> Vec<R> {
    let total: usize = jobs.iter().map(|(weight, _)| weight).sum();
    let threads = available_threads().min(jobs.len());
    #[cfg(test)]
    let threads = if FORCE_SEQUENTIAL.with(Cell::get) {
        1
    } else {
        threads
    };
    if threads <= 1 || total < PARALLEL_MIN_BYTES {
        return jobs.into_iter().map(|(_, job)| job()).collect();
    }
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| Reverse(jobs[i].0));
    let pending: Vec<Mutex<Option<Task<'a, R>>>> = jobs
        .into_iter()
        .map(|(_, job)| Mutex::new(Some(job)))
        .collect();
    let results: Vec<Mutex<Option<R>>> = pending.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let work = || {
        while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            // Each index is handed out once, so the slot is still full.
            let job = pending[i]
                .lock()
                .expect("job slot")
                .take()
                .expect("job runs once");
            let result = job();
            *results[i].lock().expect("result slot") = Some(result);
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(work);
        }
        work();
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot")
                .expect("every job ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order_on_either_path() {
        for weight in [1, PARALLEL_MIN_BYTES] {
            let jobs: Vec<Job<'_, usize>> = (0..9)
                .map(|i| (weight * (i % 4), Box::new(move || i * i) as Box<_>))
                .collect();
            let squares: Vec<usize> = (0..9).map(|i| i * i).collect();
            assert_eq!(run_ordered(jobs), squares);
        }
        assert!(run_ordered::<()>(Vec::new()).is_empty());
    }
}
