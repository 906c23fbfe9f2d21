//! Shared scoped thread-pool: the one parallelism idiom for every bench
//! harness.
//!
//! Round-robin work assignment over `std::thread::scope` with results
//! merged in index order. The chaos seed sweep and the per-figure cell
//! parallelism (`SIM_THREADS`) share this one implementation: work item
//! `i` runs on thread `i mod threads`, and results come back in index
//! order, so output (tables, CSVs, fingerprints) never depends on the
//! thread count. Each cell is an independent serial simulation; nothing
//! parallelizes inside one (DESIGN.md §11).

/// Run `f(i)` for every `i in 0..n` across up to `threads` scoped OS
/// threads and return the results in index order. Each worker owns its
/// indices exclusively (`i mod threads`), so `f` needs no locking for
/// per-item state; panics in `f` propagate to the caller.
///
/// `threads <= 1` (or `n <= 1`) degrades to a plain serial loop on the
/// calling thread — the zero-risk default.
pub fn scoped_map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let f = &f;
    let mut indexed: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    (t..n)
                        .step_by(threads)
                        .map(|i| (i, f(i)))
                        .collect::<Vec<(usize, T)>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(v) => v,
                Err(p) => std::panic::resume_unwind(p),
            })
            .collect()
    });
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, v)| v).collect()
}

/// Threads for simulation-cell parallelism: the `SIM_THREADS` env
/// variable, default **1** (serial). Every figure harness routes its
/// independent simulation cells through [`scoped_map`] with this count;
/// results are deterministic at any value, so raising it only trades
/// memory for wall time.
pub fn sim_threads() -> usize {
    std::env::var("SIM_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Threads for the chaos seed sweep: `CHAOS_THREADS` env override, else
/// the machine's available parallelism (the sweep's historical default —
/// it is gated end-to-end on per-seed fingerprints, so it defaults wide).
pub fn chaos_threads() -> usize {
    std::env::var("CHAOS_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_index_order_at_any_thread_count() {
        let serial = scoped_map(17, 1, |i| i * i);
        for threads in [2, 3, 8, 32] {
            assert_eq!(scoped_map(17, threads, |i| i * i), serial);
        }
        assert_eq!(scoped_map(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn worker_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            scoped_map(4, 2, |i| {
                if i == 3 {
                    panic!("boom {i}");
                }
                i
            })
        });
        assert!(r.is_err());
    }
}
