//! Ordered parallel map for figure sweeps.
//!
//! Every sweep point is an independent, deterministic run: it builds its
//! own world and seeds its own RNGs. Running the points on scoped OS
//! threads and collecting the results in declared order therefore gives
//! output byte-identical to the sequential loop, whatever order the points
//! happen to execute in.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads the host can usefully run, i.e.
/// `std::thread::available_parallelism()` with a fallback of 1. The CLI
/// uses this for `--jobs auto`.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Apply `f` to every item of `items` on up to `jobs` OS threads and
/// return the results in item order.
///
/// * Each item is processed exactly once: workers claim the next index
///   from one shared counter, so a slow point never holds up the rest.
/// * `out[i] == f(&items[i])` whichever worker ran it, so for a pure `f`
///   the output equals `items.iter().map(f).collect()`.
/// * `jobs <= 1` (or a single item) is that plain sequential map, on the
///   calling thread.
/// * A panic inside `f` reaches the caller, with its payload, once the
///   other workers have finished.
pub fn map_ordered<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = jobs.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    // `Relaxed` suffices: the counter publishes no data, it only hands out
    // distinct indices. Results reach this thread through `join`.
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(worker)).collect();
        for h in handles {
            match h.join() {
                Ok(done) => done.into_iter().for_each(|(i, r)| out[i] = Some(r)),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("every item ran once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map() {
        let items: Vec<u64> = (0..100).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let par = map_ordered(jobs, &items, |x| x * x);
            assert_eq!(par, seq, "jobs={jobs}");
        }
    }

    #[test]
    fn preserves_order_under_skewed_durations() {
        // Early items sleep longest so late items finish first; results
        // must still come back in declared order.
        let items: Vec<u64> = (0..16).collect();
        let out = map_ordered(4, &items, |&x| {
            std::thread::sleep(std::time::Duration::from_millis(16 - x));
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..97).collect();
        map_ordered(8, &items, |&i| counts[i].fetch_add(1, Ordering::SeqCst));
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "item {i}");
        }
    }

    #[test]
    fn workers_share_the_items() {
        // Twelve 10 ms items on 4 workers: the pool must beat the 120 ms
        // sequential sum, with slack for scheduling on a busy host.
        let items: Vec<u64> = (0..12).collect();
        let t0 = std::time::Instant::now();
        let out = map_ordered(4, &items, |&x| {
            std::thread::sleep(std::time::Duration::from_millis(10));
            x
        });
        let elapsed = t0.elapsed();
        assert_eq!(out, items);
        assert!(elapsed.as_millis() < 400, "took {elapsed:?}");
    }

    #[test]
    fn handles_degenerate_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(map_ordered(4, &empty, |x| *x).is_empty());
        assert_eq!(map_ordered(0, &[7], |x| *x), vec![7]);
        assert_eq!(map_ordered(16, &[1, 2], |x| x + 1), vec![2, 3]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..8).collect();
        map_ordered(4, &items, |&x| {
            if x == 5 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn available_jobs_is_positive() {
        assert!(available_jobs() >= 1);
    }
}
