//! The interval timestamped stack (**TSI**) — Dodds, Haas, Kirsch,
//! POPL '15 ("A scalable, correct time-stamped stack"), interval
//! variant (the best-performing one, used by the SEC paper).
//!
//! Each thread owns a *single-producer pool* (a LIFO linked list).
//! `push` inserts into the caller's own pool **without any shared-top
//! synchronization** and then stamps the element with a time *interval*
//! `[start, end]` (two clock reads separated by a tunable delay —
//! `RDTSCP` in the original; see `sec_sync::TscClock` for our source).
//! `pop` scans all pools for the youngest untaken element, picks a
//! maximal one under the interval order (`a > b  iff  a.start > b.end`),
//! and claims it with a CAS on its `taken` flag. An element whose
//! interval begins after the pop started is concurrent with the pop and
//! may be taken immediately — the timestamp analogue of elimination.
//! Among several such candidates every pop and peek picks the same
//! one, the largest `(start, pool index)`: that is always maximal, and
//! a choice that depended on the caller's pool would let two peeks see
//! different tops with nothing removed between them.
//!
//! The asymmetry the SEC paper probes in Figure 3 is structural:
//! `push` is O(1) and synchronization-free, while `pop`/`peek` pay an
//! O(#threads) scan — which is why TSI wins push-only workloads by a
//! wide margin and loses pop-only and read-heavy ones.
//!
//! Emptiness is linearized with a double-collect: a pop that finds no
//! candidate re-reads every pool's version counter (bumped by each
//! push) and reports EMPTY only if nothing changed.

use core::fmt;
use core::mem::ManuallyDrop;
use core::ptr;
use core::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use sec_core::{ConcurrentStack, StackHandle};
use sec_reclaim::{Collector, Guard, Handle as ReclaimHandle};
use sec_sync::{Backoff, CachePadded, TscClock};

/// Timestamp used before an element's interval is stamped: newer than
/// everything, so concurrent pops may take the element immediately.
const TS_TOP: u64 = u64::MAX;

struct TsNode<T> {
    value: ManuallyDrop<T>,
    start: AtomicU64,
    taken: AtomicBool,
    next: AtomicPtr<TsNode<T>>,
}

/// One thread's single-producer pool.
struct Pool<T> {
    /// Newest element first. Written only by the owning thread; read by
    /// every popping thread.
    head: AtomicPtr<TsNode<T>>,
    /// Bumped (after the head store) on every push; the pops'
    /// double-collect emptiness check watches it.
    version: AtomicU64,
    claimed: AtomicBool,
}

/// The interval timestamped stack.
///
/// # Examples
///
/// ```
/// use sec_baselines::TsiStack;
/// use sec_core::{ConcurrentStack, StackHandle};
///
/// let s: TsiStack<u32> = TsiStack::new(2);
/// let mut h = s.register();
/// h.push(11);
/// assert_eq!(h.pop(), Some(11));
/// assert_eq!(h.pop(), None);
/// ```
pub struct TsiStack<T: Send + 'static> {
    pools: Box<[CachePadded<Pool<T>>]>,
    clock: TscClock,
    /// Interval-widening delay in pause iterations (the TSI benchmark's
    /// `delay` parameter; the SEC paper uses the benchmark default).
    delay: u32,
    collector: Collector,
}

unsafe impl<T: Send> Send for TsiStack<T> {}
unsafe impl<T: Send> Sync for TsiStack<T> {}

impl<T: Send + 'static> TsiStack<T> {
    /// Default interval delay (pause iterations between the two clock
    /// reads of a push's interval).
    pub const DEFAULT_DELAY: u32 = 32;

    /// Creates a stack for up to `max_threads` threads with the default
    /// interval delay.
    pub fn new(max_threads: usize) -> Self {
        Self::with_delay(max_threads, Self::DEFAULT_DELAY)
    }

    /// Creates a stack with an explicit interval delay.
    pub fn with_delay(max_threads: usize, delay: u32) -> Self {
        let n = max_threads.max(1);
        Self {
            pools: (0..n)
                .map(|_| {
                    CachePadded::new(Pool {
                        head: AtomicPtr::new(ptr::null_mut()),
                        version: AtomicU64::new(0),
                        claimed: AtomicBool::new(false),
                    })
                })
                .collect(),
            clock: TscClock::new(),
            delay,
            collector: Collector::new(n),
        }
    }

    /// Registers the calling thread, assigning it a pool.
    pub fn register(&self) -> TsiHandle<'_, T> {
        let reclaim = self
            .collector
            .register()
            .expect("TsiStack: more threads than max_threads");
        for (i, p) in self.pools.iter().enumerate() {
            if !p.claimed.load(Ordering::Relaxed)
                && p.claimed
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                return TsiHandle {
                    stack: self,
                    pool_idx: i,
                    reclaim,
                };
            }
        }
        unreachable!("collector capacity == pool count");
    }

    /// Youngest untaken element of pool `idx`, and its start;
    /// `stamped` skips an element whose push has not stamped it yet.
    fn first_untaken(&self, idx: usize, stamped: bool) -> Option<(*mut TsNode<T>, u64)> {
        let mut cur = self.pools[idx].head.load(Ordering::Acquire);
        while !cur.is_null() {
            // Safety: scanners are pinned, and only the owner unlinks.
            let node = unsafe { &*cur };
            if !node.taken.load(Ordering::Acquire) {
                let start = node.start.load(Ordering::Acquire);
                if !stamped || start != TS_TOP {
                    return Some((cur, start));
                }
            }
            cur = node.next.load(Ordering::Acquire);
        }
        None
    }

    /// The pools' youngest untaken candidate with the largest `(start,
    /// pool index)`. The largest start is always valid: if any
    /// candidate began after the pop, so did it (take it now), and
    /// otherwise it is maximal under the interval order.
    ///
    /// A peek passes `stamped`: it claims nothing, so a ⊤-stamped
    /// element it returned would stay "newer than everything", and a
    /// later pop could take it from under pushes that completed after
    /// the peek. A push still stamping is concurrent with the peek,
    /// which can order itself first.
    fn scan(&self, stamped: bool) -> Option<*mut TsNode<T>> {
        let mut best: Option<(*mut TsNode<T>, u64)> = None;
        for idx in 0..self.pools.len() {
            let Some((cand, s)) = self.first_untaken(idx, stamped) else {
                continue;
            };
            // Ascending pool order: `>=` lets the larger index win a tie.
            if best.is_none_or(|(_, bs)| s >= bs) {
                best = Some((cand, s));
            }
        }
        best.map(|(p, _)| p)
    }

    /// Claims `node`; on success moves its value out. The node stays in
    /// its pool (marked taken) until the pool owner prunes it.
    fn try_take(&self, node: *mut TsNode<T>) -> Option<T> {
        let won = unsafe {
            (*node)
                .taken
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        };
        if won {
            // Safety: the CAS made us the unique consumer; the node
            // remains allocated (pool-linked + epoch protection).
            Some(ManuallyDrop::into_inner(unsafe {
                ptr::read(&(*node).value)
            }))
        } else {
            None
        }
    }

    /// Snapshot of all pool versions (for the emptiness double-collect).
    fn versions(&self, buf: &mut Vec<u64>) {
        buf.clear();
        buf.extend(self.pools.iter().map(|p| p.version.load(Ordering::Acquire)));
    }
}

impl<T: Send + 'static> Drop for TsiStack<T> {
    fn drop(&mut self) {
        for pool in self.pools.iter() {
            let mut cur = pool.head.load(Ordering::Relaxed);
            while !cur.is_null() {
                let mut boxed = unsafe { Box::from_raw(cur) };
                cur = boxed.next.load(Ordering::Relaxed);
                if !boxed.taken.load(Ordering::Relaxed) {
                    // Value never consumed: drop it with the node.
                    unsafe { ManuallyDrop::drop(&mut boxed.value) };
                }
            }
        }
    }
}

impl<T: Send + 'static> fmt::Debug for TsiStack<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TsiStack")
            .field("pools", &self.pools.len())
            .field("delay", &self.delay)
            .finish()
    }
}

impl<T: Send + 'static> ConcurrentStack<T> for TsiStack<T> {
    type Handle<'a>
        = TsiHandle<'a, T>
    where
        Self: 'a;

    fn register(&self) -> TsiHandle<'_, T> {
        TsiStack::register(self)
    }

    fn name(&self) -> &'static str {
        "TSI"
    }
}

/// Per-thread handle to a [`TsiStack`]; owns one pool.
pub struct TsiHandle<'a, T: Send + 'static> {
    stack: &'a TsiStack<T>,
    pool_idx: usize,
    reclaim: ReclaimHandle<'a>,
}

impl<T: Send + 'static> TsiHandle<'_, T> {
    /// Unlinks the taken prefix of our own pool (single-producer
    /// maintenance, run on each push as in the original's `insert`).
    fn prune(&self, guard: &Guard<'_, '_>) {
        let pool = &self.stack.pools[self.pool_idx];
        let mut head = pool.head.load(Ordering::Acquire);
        let mut changed = false;
        while !head.is_null() && unsafe { (*head).taken.load(Ordering::Acquire) } {
            let next = unsafe { (*head).next.load(Ordering::Acquire) };
            // Safety: only the owner unlinks, so each node is retired
            // exactly once; concurrent scanners are pinned.
            unsafe { guard.retire(head) };
            head = next;
            changed = true;
        }
        if changed {
            pool.head.store(head, Ordering::Release);
        }
    }
}

impl<T: Send + 'static> StackHandle<T> for TsiHandle<'_, T> {
    fn push(&mut self, value: T) {
        let guard = self.reclaim.pin();
        self.prune(&guard);

        let pool = &self.stack.pools[self.pool_idx];
        let node = Box::into_raw(Box::new(TsNode {
            value: ManuallyDrop::new(value),
            start: AtomicU64::new(TS_TOP),
            taken: AtomicBool::new(false),
            next: AtomicPtr::new(pool.head.load(Ordering::Relaxed)),
        }));
        // Publish first (with the ⊤ timestamp), then stamp: concurrent
        // pops may already take the ⊤-stamped element (it is trivially
        // "after" their start).
        pool.head.store(node, Ordering::Release);
        pool.version.fetch_add(1, Ordering::AcqRel);

        // Pops order by `start` alone, so the end is not stored; the
        // delay before it stays the configured TSI's push cost.
        let (s, _) = self.stack.clock.interval(self.stack.delay);
        // Safety: only this pool's owner unlinks `node`, and we hold a pin.
        unsafe { (*node).start.store(s, Ordering::Release) };
    }

    fn pop(&mut self) -> Option<T> {
        let guard = self.reclaim.pin();
        let mut versions = Vec::with_capacity(self.stack.pools.len());
        let mut backoff = Backoff::new();
        loop {
            self.stack.versions(&mut versions);
            match self.stack.scan(false) {
                Some(node) => {
                    if let Some(v) = self.stack.try_take(node) {
                        drop(guard);
                        return Some(v);
                    }
                    // Lost the race for this candidate: rescan.
                    backoff.spin();
                }
                None => {
                    // Double-collect: EMPTY only if no push intervened.
                    let stable = self
                        .stack
                        .pools
                        .iter()
                        .zip(versions.iter())
                        .all(|(p, &v)| p.version.load(Ordering::Acquire) == v);
                    if stable {
                        return None;
                    }
                    backoff.spin();
                }
            }
        }
    }

    fn peek(&mut self) -> Option<T>
    where
        T: Clone,
    {
        let _guard = self.reclaim.pin();
        let mut versions = Vec::with_capacity(self.stack.pools.len());
        loop {
            self.stack.versions(&mut versions);
            match self.stack.scan(true) {
                Some(node) => {
                    // Clone without claiming. The value bytes stay valid
                    // while we are pinned even if a pop claims it now.
                    return Some(ManuallyDrop::into_inner(unsafe { (*node).value.clone() }));
                }
                None => {
                    let stable = self
                        .stack
                        .pools
                        .iter()
                        .zip(versions.iter())
                        .all(|(p, &v)| p.version.load(Ordering::Acquire) == v);
                    if stable {
                        return None;
                    }
                }
            }
        }
    }
}

impl<T: Send + 'static> Drop for TsiHandle<'_, T> {
    fn drop(&mut self) {
        self.stack.pools[self.pool_idx]
            .claimed
            .store(false, Ordering::Release);
    }
}

impl<T: Send + 'static> fmt::Debug for TsiHandle<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TsiHandle")
            .field("pool", &self.pool_idx)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread;

    #[test]
    fn sequential_lifo() {
        let s: TsiStack<u32> = TsiStack::new(1);
        let mut h = s.register();
        for i in 0..50 {
            h.push(i);
        }
        for i in (0..50).rev() {
            assert_eq!(h.pop(), Some(i), "at {i}");
        }
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn empty_pop_and_peek() {
        let s: TsiStack<u8> = TsiStack::new(2);
        let mut h = s.register();
        assert_eq!(h.pop(), None);
        assert_eq!(h.peek(), None);
        h.push(1);
        assert_eq!(h.peek(), Some(1));
        assert_eq!(h.pop(), Some(1));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn cross_thread_visibility() {
        // One thread pushes; the other must be able to pop all values.
        let s: TsiStack<u32> = TsiStack::new(2);
        thread::scope(|scope| {
            let s1 = &s;
            let producer = scope.spawn(move || {
                let mut h = s1.register();
                for i in 0..100 {
                    h.push(i);
                }
            });
            producer.join().unwrap();
            let s2 = &s;
            scope.spawn(move || {
                let mut h = s2.register();
                let mut got = HashSet::new();
                for _ in 0..100 {
                    let v = h.pop().expect("value must be visible");
                    assert!(got.insert(v));
                }
                assert_eq!(h.pop(), None);
            });
        });
    }

    #[test]
    fn concurrent_conservation() {
        const THREADS: usize = 8;
        const PER: usize = 1_000;
        let s: TsiStack<usize> = TsiStack::new(THREADS);
        let got: Vec<Vec<usize>> = thread::scope(|scope| {
            (0..THREADS)
                .map(|t| {
                    let s = &s;
                    scope.spawn(move || {
                        let mut h = s.register();
                        let mut got = Vec::new();
                        for i in 0..PER {
                            h.push(t * PER + i);
                            if i % 2 == 1 {
                                if let Some(v) = h.pop() {
                                    got.push(v);
                                }
                            }
                        }
                        got
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|j| j.join().unwrap())
                .collect()
        });
        let mut seen = HashSet::new();
        for v in got.into_iter().flatten() {
            assert!(seen.insert(v), "duplicate {v}");
        }
        let mut h = s.register();
        while let Some(v) = h.pop() {
            assert!(seen.insert(v), "duplicate {v} in drain");
        }
        assert_eq!(seen.len(), THREADS * PER, "lost values");
    }

    #[test]
    fn values_dropped_exactly_once_including_taken_unpruned() {
        use std::sync::atomic::{AtomicUsize, Ordering as AOrd};
        use std::sync::Arc;
        struct P(Arc<AtomicUsize>);
        impl Drop for P {
            fn drop(&mut self) {
                self.0.fetch_add(1, AOrd::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let s: TsiStack<P> = TsiStack::new(2);
            let mut h = s.register();
            for _ in 0..10 {
                h.push(P(Arc::clone(&drops)));
            }
            // Pop 5: these nodes stay in the pool marked taken (we never
            // push again, so no pruning happens) — teardown must not
            // double-drop them.
            for _ in 0..5 {
                drop(h.pop());
            }
            drop(h);
        }
        assert_eq!(drops.load(AOrd::Relaxed), 10);
    }

    #[test]
    fn interval_order_is_respected_for_sequential_pushes() {
        // Pushes separated in time have disjoint intervals, so pops
        // must return them in strict LIFO order even from two pools.
        let s: TsiStack<u32> = TsiStack::new(2);
        thread::scope(|scope| {
            let s1 = &s;
            scope
                .spawn(move || {
                    let mut h = s1.register();
                    h.push(1);
                })
                .join()
                .unwrap();
            let s2 = &s;
            scope
                .spawn(move || {
                    let mut h = s2.register();
                    h.push(2);
                    assert_eq!(h.pop(), Some(2), "2 was pushed strictly after 1");
                    assert_eq!(h.pop(), Some(1));
                })
                .join()
                .unwrap();
        });
    }

    #[test]
    fn pruning_reclaims_taken_nodes() {
        let s: TsiStack<u32> = TsiStack::new(1);
        let mut h = s.register();
        for i in 0..100 {
            h.push(i);
            assert_eq!(h.pop(), Some(i));
        }
        // Each push prunes the previous taken node; the collector must
        // have seen retirements.
        assert!(s.collector.stats().retired > 0);
    }
}
