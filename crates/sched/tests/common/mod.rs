//! What the pool's test binaries share.

use std::sync::atomic::{AtomicU64, Ordering};

use sched::{run, PoolStats, Termination, Word, WorkerCtx};

/// `sched::run` for a test that knows how many tasks it makes: the one
/// whose return brings the count of executed tasks to `expected` calls
/// `finish`. Each caller asserts that count afterwards; a test's own
/// bookkeeping, not a way for a run to end.
pub fn run_counted<T, F>(n: usize, roots: Vec<T>, expected: u64, f: F) -> PoolStats
where
    T: Word,
    F: Fn(&WorkerCtx<'_, T>, T) + Sync,
{
    let left = &AtomicU64::new(expected);
    run(n, roots, Termination::DoneFlag, move |ctx, task| {
        f(ctx, task);
        if left.fetch_sub(1, Ordering::AcqRel) == 1 {
            ctx.finish();
        }
    })
}
