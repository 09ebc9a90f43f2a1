//! Parallel Monte-Carlo driver.
//!
//! Runs a per-die closure across a pool of scoped `std::thread` workers with
//! *deterministic* per-die seeding: die `i` always sees the same RNG stream
//! regardless of thread count or scheduling, so experiment results are
//! reproducible and bisectable. Zero external dependencies — work
//! distribution is a lock-free atomic cursor and result collection a
//! `std::sync::Mutex`.

use ptsim_rng::{Pcg64, SplitMix64};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Recovers the guarded data from a possibly-poisoned mutex.
///
/// The per-die closures run *outside* every lock, and the merge-side
/// critical sections only move already-computed data, so a poisoned lock
/// carries no torn state — recovering it reports the panic that poisoned it
/// through the panicking worker itself (via [`std::thread::scope`]) instead
/// of cascading a second panic into every surviving worker, which is how
/// one bad die used to take the whole campaign down.
fn recover<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Configuration for a Monte-Carlo run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McConfig {
    /// Number of dies to simulate.
    pub n_dies: usize,
    /// Base seed; die `i` derives its stream from `(base_seed, i)`.
    pub base_seed: u64,
    /// Worker threads (`0` = one per available CPU).
    pub threads: usize,
}

impl McConfig {
    /// `n_dies` dies with a fixed seed and automatic thread count.
    #[must_use]
    pub fn new(n_dies: usize, base_seed: u64) -> Self {
        McConfig {
            n_dies,
            base_seed,
            threads: 0,
        }
    }

    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig::new(1000, 0x5eed_cafe)
    }
}

/// SplitMix64 finalizer — decorrelates per-die seeds derived from
/// `(base_seed, index)`.
fn mix_seed(base: u64, index: u64) -> u64 {
    SplitMix64::finalize(base ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Deterministic RNG for die `index` of a run seeded with `base`.
#[must_use]
pub fn die_rng(base: u64, index: u64) -> Pcg64 {
    Pcg64::seed_from_u64(mix_seed(base, index))
}

/// Deterministic root seed of die `index`'s counter-based within-die field
/// draws (the sparse batch-sampling discipline; see
/// `ptsim_mc::model::DieSampler::sample_die_sparse`). Salted so it is
/// decorrelated from the same die's [`die_rng`] stream.
#[must_use]
pub fn die_field_seed(base: u64, index: u64) -> u64 {
    mix_seed(base ^ 0xa02f_7c57_115e_6f1d, index)
}

/// Runs `f(die_index, rng)` for every die, in parallel, and returns results
/// in die order.
///
/// The closure must be `Sync` because it is shared across workers; results
/// must be `Send`. Each invocation receives a deterministic, independent RNG,
/// so the output is bit-identical for any `threads` setting (see
/// `tests/determinism.rs` at the workspace root).
///
/// ```
/// use ptsim_mc::driver::{run_parallel, McConfig};
/// use ptsim_rng::Rng;
///
/// let out = run_parallel(&McConfig::new(8, 42), |i, rng| {
///     (i, rng.gen::<u32>())
/// });
/// assert_eq!(out.len(), 8);
/// assert!(out.iter().enumerate().all(|(i, (j, _))| i as u64 == *j));
/// ```
pub fn run_parallel<T, F>(cfg: &McConfig, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64, &mut Pcg64) -> T + Sync,
{
    run_parallel_with(cfg, || (), |(), i, rng| f(i, rng))
}

/// [`run_parallel`] with a per-worker context: `init()` runs once on each
/// worker thread and its result is threaded through every die that worker
/// processes.
///
/// This is how per-run setup (a cloned sensor prototype with its design
/// bands and characterized model already built, scratch buffers, …) is
/// amortized across dies without requiring the context to be `Send`:
/// the context never crosses a thread boundary. Determinism is unchanged —
/// die `i` still sees exactly `die_rng(base_seed, i)` and the context must
/// not leak state between dies in any result-visible way.
pub fn run_parallel_with<C, T, FI, F>(cfg: &McConfig, init: FI, f: F) -> Vec<T>
where
    T: Send,
    FI: Fn() -> C + Sync,
    F: Fn(&mut C, u64, &mut Pcg64) -> T + Sync,
{
    drive(cfg, 1, init, per_die(cfg, f), |_, _, _| {})
}

/// [`run_parallel_with`] over fixed-size *chunks* of consecutive dies, plus
/// per-worker execution reports (see [`run_parallel_metered`]; `dies`
/// counts dies, not chunks). The closure receives
/// `(ctx, start_die, len, out)` and must push exactly `len` results for
/// dies `start_die .. start_die + len`, in die order, deriving each die's
/// stream itself via [`die_rng`]`(cfg.base_seed, i)`.
///
/// Work is distributed by *chunk index*, so the partition of dies into
/// chunks — and therefore anything chunk-shaped the closure computes, like
/// a lane-parallel solve across the chunk — is **identical for every
/// `threads` setting**: determinism holds chunk-wise, not just die-wise.
/// The final chunk is short when `n_dies` is not a multiple of `chunk`.
///
/// # Panics
///
/// Panics if `chunk` is zero or the closure pushes a wrong result count.
pub fn run_parallel_chunked_metered<C, T, FI, F>(
    cfg: &McConfig,
    chunk: usize,
    init: FI,
    f: F,
) -> (Vec<T>, Vec<WorkerReport<C>>)
where
    C: Send,
    T: Send,
    FI: Fn() -> C + Sync,
    F: Fn(&mut C, u64, usize, &mut Vec<T>) + Sync,
{
    let reports = Mutex::new(Vec::new());
    let out = drive(cfg, chunk, init, f, |ctx, dies, busy| {
        recover(reports.lock()).push(WorkerReport { ctx, dies, busy });
    });
    (out, recover(reports.into_inner()))
}

/// Per-worker execution report returned by [`run_parallel_metered`]: the
/// worker's context handed back after the run (e.g. a scratch workspace
/// carrying a metrics registry), how many dies it processed, and the
/// wall-clock time it spent in its processing loop.
///
/// Die results are deterministic; the *partition* of dies across workers and
/// the `busy` durations are scheduling-dependent, so reports are diagnostic
/// data — fold anything you aggregate from them with order-insensitive
/// operations (integer sums, maxima).
#[derive(Debug)]
pub struct WorkerReport<C> {
    /// The worker's context, returned after its last die.
    pub ctx: C,
    /// Number of dies this worker processed.
    pub dies: u64,
    /// Wall-clock time the worker spent in its processing loop.
    pub busy: Duration,
}

/// [`run_parallel_with`] plus per-worker execution reports, for observability.
///
/// Die results are **bit-identical** to [`run_parallel_with`] — the same
/// cursor-based work distribution and the same `die_rng(base_seed, i)`
/// per-die streams; the metering only reads a monotonic clock around each
/// worker's loop. Unlike [`run_parallel_with`], the context must be `Send`
/// so it can be handed back to the caller after the run. Reports come back
/// in no particular order, one per worker that ran (at most `threads`).
pub fn run_parallel_metered<C, T, FI, F>(
    cfg: &McConfig,
    init: FI,
    f: F,
) -> (Vec<T>, Vec<WorkerReport<C>>)
where
    C: Send,
    T: Send,
    FI: Fn() -> C + Sync,
    F: Fn(&mut C, u64, &mut Pcg64) -> T + Sync,
{
    run_parallel_chunked_metered(cfg, 1, init, per_die(cfg, f))
}

/// Adapts a per-die closure to the chunk body of [`drive`] at a chunk of
/// one die, handing it the die's deterministic stream.
fn per_die<C, T>(
    cfg: &McConfig,
    f: impl Fn(&mut C, u64, &mut Pcg64) -> T + Sync,
) -> impl Fn(&mut C, u64, usize, &mut Vec<T>) + Sync {
    let base = cfg.base_seed;
    move |ctx, i, _, out| {
        let mut rng = die_rng(base, i);
        out.push(f(ctx, i, &mut rng));
    }
}

/// The one worker loop behind every public driver.
///
/// Workers pull chunk indices from a shared atomic cursor, so fast workers
/// naturally steal load from slow ones, and run `body(ctx, start, len,
/// out)` on their own context. Each worker buffers its results locally
/// (tagged with their die index) and merges them under the mutex once, at
/// exit; then `on_exit(ctx, dies, busy)` receives its context, the dies it
/// processed and the wall-clock time of its loop. One worker runs inline
/// on the calling thread. Results come back in die order.
fn drive<C, T, FI, F, E>(cfg: &McConfig, chunk: usize, init: FI, body: F, on_exit: E) -> Vec<T>
where
    T: Send,
    FI: Fn() -> C + Sync,
    F: Fn(&mut C, u64, usize, &mut Vec<T>) + Sync,
    E: Fn(C, u64, Duration) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    if cfg.n_dies == 0 {
        return Vec::new();
    }
    let n = cfg.n_dies as u64;
    let n_chunks = cfg.n_dies.div_ceil(chunk) as u64;
    let threads = cfg.effective_threads().max(1).min(n_chunks as usize);
    let next = AtomicU64::new(0);
    let results: Mutex<Vec<(u64, T)>> = Mutex::new(Vec::with_capacity(cfg.n_dies));
    let worker = || {
        let start_t = Instant::now();
        let mut ctx = init();
        // Pre-sized for an even share; stealing beyond it grows the buffer,
        // never the critical section.
        let mut local: Vec<(u64, T)> = Vec::with_capacity(cfg.n_dies / threads + 1);
        let mut buf: Vec<T> = Vec::with_capacity(chunk);
        loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= n_chunks {
                break;
            }
            let start = c * chunk as u64;
            let len = (chunk as u64).min(n - start) as usize;
            body(&mut ctx, start, len, &mut buf);
            assert_eq!(buf.len(), len, "chunk closure must push one result per die");
            local.extend((start..).zip(buf.drain(..)));
        }
        let dies = local.len() as u64;
        let busy = start_t.elapsed();
        recover(results.lock()).extend(local);
        on_exit(ctx, dies, busy);
    };
    if threads == 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(worker);
            }
        });
    }
    let mut out = recover(results.into_inner());
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsim_rng::Rng;

    #[test]
    fn results_in_die_order() {
        let out = run_parallel(&McConfig::new(100, 7), |i, _| i * 2);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 2);
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let mut one = McConfig::new(64, 99);
        one.threads = 1;
        let mut four = McConfig::new(64, 99);
        four.threads = 4;
        let f = |_i: u64, rng: &mut Pcg64| rng.gen::<u64>();
        assert_eq!(run_parallel(&one, f), run_parallel(&four, f));
    }

    #[test]
    fn different_dies_get_different_streams() {
        let out = run_parallel(&McConfig::new(32, 5), |_, rng| rng.gen::<u64>());
        let unique: std::collections::HashSet<_> = out.iter().collect();
        assert_eq!(unique.len(), out.len());
    }

    #[test]
    fn different_base_seeds_differ() {
        let a = run_parallel(&McConfig::new(8, 1), |_, rng| rng.gen::<u64>());
        let b = run_parallel(&McConfig::new(8, 2), |_, rng| rng.gen::<u64>());
        assert_ne!(a, b);
    }

    #[test]
    fn zero_dies_is_empty() {
        let out = run_parallel(&McConfig::new(0, 1), |i, _| i);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_dies_is_fine() {
        let mut cfg = McConfig::new(3, 11);
        cfg.threads = 16;
        let out = run_parallel(&cfg, |i, _| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn per_worker_context_matches_plain_run() {
        // A context that is genuinely reused across dies must not perturb
        // results or ordering.
        let mut one = McConfig::new(40, 3);
        one.threads = 1;
        let mut four = McConfig::new(40, 3);
        four.threads = 4;
        let plain = run_parallel(&four, |i, rng| (i, rng.gen::<u64>()));
        let with_ctx = run_parallel_with(
            &one,
            || 0u64,
            |calls, i, rng| {
                *calls += 1;
                (i, rng.gen::<u64>())
            },
        );
        assert_eq!(plain, with_ctx);
    }

    #[test]
    fn metered_results_match_unmetered_bit_for_bit() {
        let mut cfg = McConfig::new(48, 21);
        cfg.threads = 4;
        let plain = run_parallel_with(&cfg, || 0u64, |_, i, rng| (i, rng.gen::<u64>()));
        let (metered, reports) =
            run_parallel_metered(&cfg, || 0u64, |_, i, rng| (i, rng.gen::<u64>()));
        assert_eq!(plain, metered);
        assert!(!reports.is_empty() && reports.len() <= 4);
        assert_eq!(reports.iter().map(|r| r.dies).sum::<u64>(), 48);
    }

    #[test]
    fn metered_single_thread_returns_one_report_with_context() {
        let mut cfg = McConfig::new(5, 9);
        cfg.threads = 1;
        let (out, reports) = run_parallel_metered(
            &cfg,
            || 0u64,
            |calls, i, _| {
                *calls += 1;
                i
            },
        );
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].dies, 5);
        assert_eq!(reports[0].ctx, 5);
    }

    #[test]
    fn metered_zero_dies_is_empty() {
        let (out, reports) = run_parallel_metered(&McConfig::new(0, 1), || (), |(), i, _| i);
        assert!(out.is_empty());
        assert!(reports.is_empty());
    }

    #[test]
    fn mix_seed_spreads_consecutive_indices() {
        let a = mix_seed(0, 0);
        let b = mix_seed(0, 1);
        assert_ne!(a, b);
        // Hamming distance should be substantial for an avalanche mixer.
        assert!((a ^ b).count_ones() > 10);
    }
}
