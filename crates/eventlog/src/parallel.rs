//! The workspace's one parallel seam: an opt-in, order-preserving fan-out.
//!
//! Built with the `rayon` cargo feature, the per-chunk stages of the XES
//! and CSV importers (trace-chunk parsing, CSV row sniffing) and the
//! per-candidate stages of `gecco-core` (constraint checks, distance
//! scoring, DFG boundary sets, selection components, `run_fanout`'s
//! branches) fan out over the worker threads. Without the feature every function here
//! degenerates to its serial form and [`set_parallel`] is a no-op, so
//! callers never need `cfg` guards. Every fan-out asks one question,
//! [`worker_count`]` > 1`, so at one thread no caller does parallel-shaped
//! work (chunking, per-worker state) that only costs time.
//!
//! Parallel runs are **bit-identical** to serial runs: work is split into
//! ordered chunks and reassembled in input order. Ingestion merges chunk
//! fragments in document order, so symbol and class-id assignment never
//! depends on the worker count (`tests/ingest_equivalence.rs`); the
//! candidate stages replay their bookkeeping serially against
//! pre-evaluated results (`gecco-core`'s `tests/parallel_equivalence.rs`).
//!
//! Parallelism defaults to **on** when the feature is compiled in; flip it
//! at runtime with [`set_parallel`] (process-wide, e.g. for A/B
//! benchmarking). The worker count follows the `RAYON_NUM_THREADS`
//! environment variable, falling back to the number of available cores.

// gecco-lint: allow-file(unordered-par) — this module IS the order-preserving seam: work is
// split into ordered chunks and reassembled in input order, proven bit-identical to serial
// execution by the ingestion and candidate equivalence suites
#[cfg(feature = "rayon")]
use std::sync::atomic::{AtomicBool, Ordering};

#[cfg(feature = "rayon")]
static PARALLEL: AtomicBool = AtomicBool::new(true);

/// Enables or disables parallel execution process-wide.
///
/// Without the `rayon` feature this is a no-op and execution is always
/// serial. Results are identical either way; only wall-clock time changes.
pub fn set_parallel(enabled: bool) {
    #[cfg(feature = "rayon")]
    PARALLEL.store(enabled, Ordering::Relaxed);
    #[cfg(not(feature = "rayon"))]
    let _ = enabled;
}

/// Whether parallel execution is compiled in *and* currently enabled.
pub fn parallel_enabled() -> bool {
    #[cfg(feature = "rayon")]
    {
        PARALLEL.load(Ordering::Relaxed)
    }
    #[cfg(not(feature = "rayon"))]
    {
        false
    }
}

/// Number of workers a parallel fan-out would use right now (1 when
/// parallelism is compiled out, disabled, or the machine has one core).
pub fn worker_count() -> usize {
    #[cfg(feature = "rayon")]
    {
        if parallel_enabled() {
            rayon::current_num_threads()
        } else {
            1
        }
    }
    #[cfg(not(feature = "rayon"))]
    {
        1
    }
}

/// Maps `f` over `items`, in parallel when more than one worker is
/// available and there are at least `min_items` of them; output order
/// always matches input order.
pub fn par_map<T, R, F>(items: &[T], min_items: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    #[cfg(feature = "rayon")]
    {
        use rayon::prelude::*;
        if items.len() >= min_items && worker_count() > 1 {
            return items.par_iter().map(f).collect();
        }
    }
    let _ = min_items;
    items.iter().map(f).collect()
}

/// Maps `f` over `items` with per-worker state: every worker (one
/// contiguous chunk of the input) builds its own `S` via `init` and threads
/// it through its chunk. Output order always matches input order.
///
/// This is how the chunk workers get a private
/// [`EvalContext`](crate::EvalContext) — the context's scratch buffers are
/// not `Sync`, so each worker rebuilds one from the shared
/// [`ContextParts`](crate::ContextParts) and reuses it across its whole
/// chunk.
pub fn par_map_scoped<T, R, S, I, F>(items: &[T], min_items: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    #[cfg(feature = "rayon")]
    {
        use rayon::prelude::*;
        let workers = worker_count();
        if items.len() >= min_items && workers > 1 {
            let chunk_size = items.len().div_ceil(workers);
            let per_chunk: Vec<Vec<R>> = items
                .par_chunks(chunk_size)
                .map(|chunk| {
                    let mut state = init();
                    chunk.iter().map(|item| f(&mut state, item)).collect()
                })
                .collect();
            return per_chunk.into_iter().flatten().collect();
        }
    }
    let _ = min_items;
    let mut state = init();
    items.iter().map(|item| f(&mut state, item)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_serial_map() {
        let items: Vec<u32> = (0..100).collect();
        let out = par_map(&items, 1, |&x| x * 3);
        assert_eq!(out, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_scoped_matches_serial_map() {
        let items: Vec<u32> = (0..200).collect();
        let out = par_map_scoped(&items, 1, Vec::<u32>::new, |scratch, &x| {
            scratch.push(x); // reused within a worker's chunk
            x * 2
        });
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn toggle_round_trips() {
        let initial = parallel_enabled();
        set_parallel(false);
        assert!(!parallel_enabled());
        assert_eq!(worker_count(), 1);
        set_parallel(true);
        assert_eq!(parallel_enabled(), cfg!(feature = "rayon"));
        set_parallel(initial);
    }
}
