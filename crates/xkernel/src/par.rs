//! Deterministic fan-out over a bounded OS-thread pool.
//!
//! Scenario runs, table rows, and throughput sweeps are independent
//! [`crate::sim::Sim`] instances: each owns its hosts, its PRNG, and its
//! event queue, so nothing couples one run to another except the order the
//! results are reported in. [`run_indexed`] exploits that: it executes a
//! batch of jobs across at most `threads` worker threads and returns the
//! results **in input order**, so the output of a parallel batch is
//! bit-identical to running the jobs sequentially — wall-clock drops, the
//! virtual-time numbers and report ordering do not move.
//!
//! Scheduling is a shared atomic cursor (work stealing by index), which
//! keeps the pool busy even when job durations vary by an order of
//! magnitude, as chaos profiles do.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Honest physical core count. `available_parallelism` respects cgroup CPU
/// quotas and affinity masks, which container CI frequently pins to 1 even
/// on large hosts — so cross-check it against `/proc/cpuinfo` and take the
/// larger answer, so a "parallel" fan-out on a multi-core box is never
/// silently run at `threads = 1`.
pub fn detect_cores() -> usize {
    let avail = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    avail.max(cpuinfo).max(1)
}

/// Default worker-thread bound: the machine's detected core count,
/// overridable with the `XK_THREADS` environment variable (useful for
/// pinning CI or measuring scaling curves).
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("XK_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    detect_cores()
}

/// Runs `f` over every item of `items` on at most `threads` OS threads and
/// returns the results in input order. `threads == 1` (or a single item)
/// degenerates to a plain sequential loop on the calling thread — the
/// sequential baseline and the parallel run share this exact code path.
///
/// # Panics
///
/// Propagates the first worker panic after the batch drains (the scoped
/// join surfaces it), so a failing job is never silently dropped.
pub fn run_indexed<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Send + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let items_ref = &items;
    let f_ref = &f;
    let cursor_ref = &cursor;
    let slots_ref = &slots;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(move || loop {
                let i = cursor_ref.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let r = f_ref(&items_ref[i]);
                *slots_ref[i].lock().expect("result slot lock") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot lock")
                .expect("every index was processed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let seq = run_indexed(items.clone(), 1, |x| x * x);
        for threads in [2, 3, 8] {
            let par = run_indexed(items.clone(), threads, |x| x * x);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn handles_empty_and_singleton_batches() {
        let empty: Vec<u32> = Vec::new();
        assert!(run_indexed(empty, 4, |x| *x).is_empty());
        assert_eq!(run_indexed(vec![7u32], 4, |x| x + 1), vec![8]);
    }

    #[test]
    fn uneven_job_durations_still_order_correctly() {
        // Later items finish first; ordering must come from the index, not
        // completion time.
        let items: Vec<u64> = (0..32).collect();
        let out = run_indexed(items, 4, |x| {
            std::thread::sleep(std::time::Duration::from_micros(500 - x * 15));
            *x
        });
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn two_threads_run_two_jobs_at_once() {
        // Each job waits, for a bounded time, until both jobs have started.
        // Both can see that only if their runs overlap; a pool that ran the
        // jobs one after the other would time the first one out.
        use std::time::{Duration, Instant};
        let started = AtomicUsize::new(0);
        let saw_both = run_indexed(vec![0u8, 1], 2, |_| {
            started.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(5);
            while started.load(Ordering::SeqCst) < 2 {
                if Instant::now() >= deadline {
                    return false;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            true
        });
        assert_eq!(saw_both, [true, true], "jobs never ran concurrently");
    }

    #[test]
    fn worker_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            run_indexed(vec![0u32, 1, 2, 3], 2, |x| {
                if *x == 2 {
                    panic!("job failed");
                }
                *x
            })
        });
        assert!(r.is_err(), "a panicking job must fail the batch");
    }
}
