//! The one execution substrate behind every parallel phase: a worker
//! policy and three scoped-thread helpers.
//!
//! * [`workers`] — how many workers a phase gets: the machine's
//!   parallelism ([`cores`]: read once; 1 when unknown), capped at
//!   [`MAX_WORKERS`] and at the phase's item count, and 1 below the
//!   caller's size gate (small inputs — the LOCAL deciders' many view
//!   graphs — never pay a thread spawn).
//! * [`map_chunks`] — contiguous-chunk map: `f(state, i, &mut out[i])`
//!   updates every slot in place, the slots split into one contiguous
//!   chunk per worker.
//! * [`drain`] — atomic-index drain: workers claim items off a shared
//!   counter and fold them into per-worker state (for items of uneven
//!   cost, such as exact residual solves).
//! * [`or_masks`] — OR-merge: each worker marks bits into a private
//!   mask over its contiguous chunk of the index space, and the masks
//!   are merged word-wise.
//!
//! Every helper runs the first worker on the calling thread and spawns
//! one scoped thread per further worker; with one worker nothing is
//! spawned at all. A worker's panic resumes on the caller with its
//! original payload. Workers that need buffers get their own state: the
//! caller's `local` state serves the first worker, so a pooled engine is
//! reused on the inline path, and every spawned worker starts from
//! `S::default()`. Results never depend on the worker count — chunks
//! are disjoint, merges are commutative, and the drain's callers
//! restore index order — which the forced-worker tests of every caller
//! pin down.

use crate::bitset::FixedBitSet;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The most workers any phase gets: phases are short, and more threads
/// than this only thrash.
pub const MAX_WORKERS: usize = 8;

/// The machine's available parallelism, read once (1 when unknown).
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |c| c.get()))
}

/// The worker count for a phase over `items` independent items on an
/// input of `size`: 1 below the caller's `gate`, otherwise the
/// machine's parallelism capped at [`MAX_WORKERS`] and at `items`
/// (never below 1).
pub fn workers(size: usize, gate: usize, items: usize) -> usize {
    if size < gate {
        1
    } else {
        cores().min(MAX_WORKERS).min(items).max(1)
    }
}

/// Runs `f(state, part)` for every part, in parallel: the first part on
/// the calling thread with `local`, each further part on its own scoped
/// thread with a fresh `S::default()`. Results come back in part order.
fn run<P, S, T>(parts: Vec<P>, local: &mut S, f: impl Fn(&mut S, P) -> T + Sync) -> Vec<T>
where
    P: Send,
    S: Default + Send,
    T: Send,
{
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else { return Vec::new() };
    if parts.as_slice().is_empty() {
        return vec![f(local, first)];
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = parts.map(|p| scope.spawn(move || f(&mut S::default(), p))).collect();
        let mut out = vec![f(local, first)];
        for h in handles {
            out.push(h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
        }
        out
    })
}

/// The contiguous chunk length that splits `len` items `workers` ways.
fn chunk_len(len: usize, workers: usize) -> usize {
    len.div_ceil(workers.max(1)).max(1)
}

/// Contiguous-chunk map: calls `f(state, i, &mut out[i])` for every
/// index, with `out` split into `workers` contiguous chunks (the last
/// may be shorter). `f` may overwrite its slot or update it in place,
/// keeping the slot's buffers. The calling thread takes the first chunk
/// with `local`.
pub fn map_chunks<S, T>(
    workers: usize,
    out: &mut [T],
    local: &mut S,
    f: impl Fn(&mut S, usize, &mut T) + Sync,
) where
    S: Default + Send,
    T: Send,
{
    let size = chunk_len(out.len(), workers);
    let parts: Vec<(usize, &mut [T])> =
        out.chunks_mut(size).enumerate().map(|(k, chunk)| (k * size, chunk)).collect();
    run(parts, local, |state, (lo, chunk)| {
        for (j, slot) in chunk.iter_mut().enumerate() {
            f(state, lo + j, slot);
        }
    });
}

/// Atomic-index drain: `workers` workers claim the items `0..items` off
/// a shared counter, each folding its claims (in increasing index
/// order) into its own state. Returns the per-worker states; which
/// worker claimed which item depends on scheduling, so callers merge
/// them order-independently (sort, or scatter by index).
pub fn drain<S>(workers: usize, items: usize, step: impl Fn(&mut S, usize) + Sync) -> Vec<S>
where
    S: Default + Send,
{
    // The counter only hands out indices; results travel back through
    // the joins, so relaxed ordering suffices.
    let next = AtomicUsize::new(0);
    let parts: Vec<()> = vec![(); workers.max(1)];
    run(parts, &mut (), |_, ()| {
        let mut state = S::default();
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= items {
                break;
            }
            step(&mut state, k);
        }
        state
    })
}

/// OR-merge of per-worker masks: `0..n` is split into `workers`
/// contiguous ranges, each worker marks bits into a private all-zero
/// mask of length `n` via `f(state, range, mask)`, and the masks are
/// merged by word-wise OR. The calling thread takes the first range
/// with `local`.
pub fn or_masks<S>(
    workers: usize,
    n: usize,
    local: &mut S,
    f: impl Fn(&mut S, Range<usize>, &mut FixedBitSet) + Sync,
) -> FixedBitSet
where
    S: Default + Send,
{
    let size = chunk_len(n, workers);
    let ranges: Vec<Range<usize>> = (0..n).step_by(size).map(|lo| lo..(lo + size).min(n)).collect();
    let masks = run(ranges, local, |state, range| {
        let mut mask = FixedBitSet::zeros(n);
        f(state, range, &mut mask);
        mask
    });
    let mut masks = masks.into_iter();
    let mut acc = masks.next().unwrap_or_else(|| FixedBitSet::zeros(n));
    for mask in masks {
        acc.union_with(&mask);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;

    const WORKERS: [usize; 4] = [1, 2, 4, 7];

    #[test]
    fn policy_gates_caps_and_never_returns_zero() {
        assert_eq!(workers(10, 640, 10), 1, "below the gate");
        assert_eq!(workers(1 << 20, 0, 0), 1, "no items still means one worker");
        assert_eq!(workers(1 << 20, 0, 1), 1, "capped at the item count");
        let w = workers(1 << 20, 640, 1 << 20);
        assert!((1..=MAX_WORKERS).contains(&w), "{w}");
        assert_eq!(w, cores().min(MAX_WORKERS));
    }

    #[test]
    fn map_chunks_returns_results_in_index_order() {
        for workers in WORKERS {
            let mut out = vec![0usize; 101];
            map_chunks(workers, &mut out, &mut (), |_, i, slot| *slot = i * i);
            assert_eq!(out, (0..101).map(|i| i * i).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn map_chunks_updates_slots_in_place() {
        for workers in WORKERS {
            let mut slots: Vec<Vec<usize>> = (0..9).map(|i| Vec::with_capacity(16 + i)).collect();
            let caps: Vec<usize> = slots.iter().map(Vec::capacity).collect();
            for round in 0..2 {
                map_chunks(workers, &mut slots, &mut (), |_, i, slot| {
                    slot.clear();
                    slot.extend(0..i + round);
                });
            }
            for (i, slot) in slots.iter().enumerate() {
                assert_eq!(*slot, (0..i + 1).collect::<Vec<_>>(), "workers={workers}");
            }
            let kept: Vec<usize> = slots.iter().map(Vec::capacity).collect();
            assert_eq!(kept, caps, "slots keep their buffers (workers={workers})");
        }
    }

    #[test]
    fn drain_visits_every_item_exactly_once() {
        for workers in WORKERS {
            let states: Vec<Vec<usize>> = drain(workers, 57, |mine: &mut Vec<usize>, k| {
                mine.push(k);
            });
            assert_eq!(states.len(), workers);
            for mine in &states {
                assert!(mine.windows(2).all(|w| w[0] < w[1]), "claims are increasing");
            }
            let mut all: Vec<usize> = states.concat();
            all.sort_unstable();
            assert_eq!(all, (0..57).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn or_masks_merges_every_worker() {
        for workers in WORKERS {
            let merged = or_masks(workers, 90, &mut (), |_, range, mask| {
                for i in range.filter(|i| i % 3 == 0) {
                    mask.set(i);
                    mask.set(89 - i);
                }
            });
            for i in 0..90 {
                assert_eq!(merged.contains(i), i % 3 == 0 || (89 - i) % 3 == 0, "bit {i}");
            }
        }
    }

    #[test]
    fn empty_input_runs_nothing() {
        for workers in WORKERS {
            let mut out: Vec<u8> = Vec::new();
            map_chunks(workers, &mut out, &mut (), |_, _, _| unreachable!("no items"));
            let states: Vec<Vec<usize>> = drain(workers, 0, |_, _| unreachable!("no items"));
            assert!(states.iter().all(Vec::is_empty));
            let mask = or_masks(workers, 0, &mut (), |_, _, _| unreachable!("no range"));
            assert!(mask.is_empty());
        }
    }

    #[test]
    fn more_workers_than_items() {
        let mut out = vec![0u32; 3];
        map_chunks(7, &mut out, &mut (), |_, i, slot| *slot = i as u32 + 1);
        assert_eq!(out, [1, 2, 3]);
        let states: Vec<Vec<usize>> = drain(7, 2, |mine: &mut Vec<usize>, k| mine.push(k));
        assert_eq!(states.concat().len(), 2);
        let mask = or_masks(7, 3, &mut (), |_, range, mask| range.for_each(|i| mask.set(i)));
        assert_eq!(mask.count_ones(), 3);
    }

    #[test]
    fn one_worker_spawns_nothing() {
        let me = std::thread::current().id();
        let here = |_: &mut (), _: usize, slot: &mut ThreadId| *slot = std::thread::current().id();
        let mut out: Vec<ThreadId> = vec![me; 50];
        map_chunks(1, &mut out, &mut (), here);
        assert!(out.iter().all(|&t| t == me));
        let states: Vec<Vec<ThreadId>> =
            drain(1, 50, |mine: &mut Vec<ThreadId>, _| mine.push(std::thread::current().id()));
        assert!(states.concat().iter().all(|&t| t == me));
        or_masks(1, 50, &mut (), |_, _, _| assert_eq!(std::thread::current().id(), me));
    }

    #[test]
    fn local_state_serves_the_calling_thread() {
        // The first chunk runs inline on the caller's state; spawned
        // workers start from `Default`.
        let mut local = vec![0usize];
        let mut out = vec![0usize; 8];
        map_chunks(2, &mut out, &mut local, |seen: &mut Vec<usize>, i, slot| {
            seen.push(i);
            *slot = seen.len();
        });
        assert_eq!(local, [0, 0, 1, 2, 3]);
        assert_eq!(out, [2, 3, 4, 5, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "worker 3 failed")]
    fn a_worker_panic_reaches_the_caller() {
        let mut out = vec![0usize; 8];
        map_chunks(4, &mut out, &mut (), |_, i, slot| {
            if i == 7 {
                panic!("worker {} failed", i / 2);
            }
            *slot = i;
        });
    }
}
