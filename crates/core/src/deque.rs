//! A concurrent deque with SEC-style elimination and combining front
//! ends — the transfer the paper's conclusion claims: "the novel
//! sharded elimination and efficient combining are of independent
//! interest and can be applied to other concurrent data structures,
//! such as deques".
//!
//! Construction: a sequential `VecDeque` behind a combiner lock, plus
//! one SEC batch layer *per end* — two fixed aggregators of the
//! combining engine (`crate::combine`, DESIGN.md §12), addressed by
//! end rather than by thread id:
//!
//! * the first announcement freezes the batch (after the aggregation
//!   backoff) and installs a fresh one — the engine's freezer election;
//! * a `push_front` and a `pop_front` with the same sequence number
//!   **eliminate** through the batch's slot array (adjacent
//!   `push_front`/`pop_front` pairs cancel on a deque just as
//!   `push`/`pop` pairs cancel on a stack — and symmetrically at the
//!   back);
//! * the surviving operations (all of one type) are applied under the
//!   lock by the batch's **combiner** in sequence-number order; waiting
//!   pops receive their results through a linked result chain, the
//!   deque analogue of `PopFromStack`'s substack.
//!
//! Compared to the stack, the shared structure is lock-based rather
//! than CAS-based — the point here is the *mechanism transfer*
//! (announcement counters, freezing, slot elimination, combining), not
//! a new lock-free deque. Everything protocol-shaped lives in the
//! engine; this file is the apply logic: push/pop under the lock and
//! the result chain.

use crate::combine::{wait_ptr, AggLayout, CombineBatch, CombineEngine, CombineOp, Lane, Role};
use crate::config::{RecyclePolicy, SecConfig, WaitPolicy};
use crate::sec::node::Node;
use crate::sec::stats::SecStats;
use core::fmt;
use core::ptr;
use core::sync::atomic::Ordering;
use sec_reclaim::{Guard, Handle as ReclaimHandle};
use sec_sync::TtasLock;
use std::collections::VecDeque;

/// Which end an operation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// The front of the deque.
    Front,
    /// The back of the deque.
    Back,
}

impl End {
    /// The engine aggregator this end announces to (0 = front,
    /// 1 = back — the order of the engine's fixed layout below).
    fn agg_idx(self) -> usize {
        match self {
            End::Front => 0,
            End::Back => 1,
        }
    }

    fn from_agg_idx(agg_idx: usize) -> Self {
        match agg_idx {
            0 => End::Front,
            _ => End::Back,
        }
    }
}

/// The deque's apply logic: a locked `VecDeque`, applied per end in
/// sequence-number order. The aggregator index tells the combiner
/// which end's batch it is applying.
struct DequeOp<T: Send + 'static> {
    inner: TtasLock<VecDeque<T>>,
}

impl<T: Send + 'static> CombineOp for DequeOp<T> {
    type Node = Node<T>;
    type Value = T;

    /// Combiner for a push-majority batch: apply the surviving pushes
    /// to the locked deque in sequence order.
    fn combine_add(
        &self,
        eng: &CombineEngine<Self>,
        batch: &CombineBatch<Node<T>>,
        my_seq: usize,
        agg_idx: usize,
        guard: &Guard<'_, '_>,
    ) {
        let end = End::from_agg_idx(agg_idx);
        let add_at_freeze = batch.frozen_cut(Role::Add);
        let mut deque = self.inner.lock();
        for i in my_seq..add_at_freeze {
            // Waiting for a slot mirrors PushToStack line 38.
            let node = wait_ptr(&batch.slots[i], eng.config().wait);
            // Safety: slots with i ≥ popCountAtFreeze have no
            // eliminating partner; the combiner is their unique
            // consumer. Payload out, husk recycles.
            let value = unsafe { Node::take_value(node) };
            unsafe { guard.retire_recycle(node) };
            match end {
                End::Front => deque.push_front(value),
                End::Back => deque.push_back(value),
            }
        }
    }

    /// Combiner for a pop-majority batch: remove one element per
    /// surviving pop and publish them as a result chain (the deque
    /// analogue of the substack from `PopFromStack`).
    fn combine_remove(
        &self,
        _eng: &CombineEngine<Self>,
        batch: &CombineBatch<Node<T>>,
        my_seq: usize,
        agg_idx: usize,
        guard: &Guard<'_, '_>,
    ) {
        let end = End::from_agg_idx(agg_idx);
        let remove_at_freeze = batch.frozen_cut(Role::Remove);
        let wanted = remove_at_freeze - my_seq;
        let mut results: Vec<*mut Node<T>> = Vec::with_capacity(wanted);
        {
            let mut deque = self.inner.lock();
            for _ in 0..wanted {
                match match end {
                    End::Front => deque.pop_front(),
                    End::Back => deque.pop_back(),
                } {
                    // Result carriers come off the combiner's recycle
                    // cache — the very husks earlier batches retired.
                    Some(v) => results.push(Node::alloc_with(guard.handle(), v)),
                    None => break, // deque exhausted: the rest get EMPTY
                }
            }
        }
        // Link results in pop order (offset i = i-th removed element).
        let mut head = ptr::null_mut();
        for &node in results.iter().rev() {
            unsafe { (*node).next.store(head, Ordering::Relaxed) };
            head = node;
        }
        batch.result_head.store(head, Ordering::Release);
    }

    /// Eliminate with the same-end push of equal sequence number.
    fn eliminate(
        &self,
        eng: &CombineEngine<Self>,
        batch: &CombineBatch<Node<T>>,
        my_seq: usize,
        guard: &Guard<'_, '_>,
    ) -> T {
        let n = wait_ptr(&batch.slots[my_seq], eng.config().wait);
        // Payload out, husk recycles (as in the stack's elimination
        // path).
        let value = unsafe { Node::take_value(n) };
        unsafe { guard.retire_recycle(n) };
        value
    }

    /// `GetValue` over the (null-terminated) result chain.
    fn take_result(
        &self,
        _eng: &CombineEngine<Self>,
        batch: &CombineBatch<Node<T>>,
        offset: usize,
        _agg_idx: usize,
        guard: &Guard<'_, '_>,
    ) -> Option<T> {
        let mut cur = batch.result_head.load(Ordering::Acquire);
        for _ in 0..offset {
            if cur.is_null() {
                return None;
            }
            cur = unsafe { (*cur).next.load(Ordering::Acquire) };
        }
        if cur.is_null() {
            return None;
        }
        let value = unsafe { Node::take_value(cur) };
        unsafe { guard.retire_recycle(cur) };
        Some(value)
    }
}

/// A blocking linearizable deque with per-end sharded elimination and
/// combining.
///
/// # Examples
///
/// ```
/// use sec_core::deque::SecDeque;
///
/// let d: SecDeque<u32> = SecDeque::new(2);
/// let mut h = d.register();
/// h.push_front(1);
/// h.push_back(2);
/// assert_eq!(h.pop_front(), Some(1));
/// assert_eq!(h.pop_back(), Some(2));
/// assert_eq!(h.pop_front(), None);
/// ```
pub struct SecDeque<T: Send + 'static> {
    engine: CombineEngine<DequeOp<T>>,
}

impl<T: Send + 'static> SecDeque<T> {
    /// Creates a deque for up to `max_threads` threads.
    pub fn new(max_threads: usize) -> Self {
        // One engine aggregator per end; batch capacity must admit
        // every thread (any thread may operate on either end), which
        // the k = 1 configuration guarantees.
        Self {
            engine: CombineEngine::new(
                "SecDeque",
                DequeOp {
                    inner: TtasLock::new(VecDeque::new()),
                },
                SecConfig::new(1, max_threads),
                AggLayout::Fixed {
                    ends: &[true, true],
                    bulk: 0,
                },
                None,
            ),
        }
    }

    /// Sets the node-recycling policy (builder style; the default is
    /// [`RecyclePolicy::per_thread`]). Must be applied before any
    /// thread registers, which the consuming receiver guarantees.
    pub fn recycle_policy(mut self, recycle: RecyclePolicy) -> Self {
        self.engine.set_recycle_policy(recycle);
        self
    }

    /// Sets the blocking-wait policy (builder style; the default is
    /// [`WaitPolicy::spin_then_park`] — DESIGN.md §11).
    pub fn wait_policy(mut self, wait: WaitPolicy) -> Self {
        self.engine.config_mut().wait = wait;
        self
    }

    /// Batching and park/wake instrumentation (both ends combined).
    pub fn stats(&self) -> &SecStats {
        self.engine.stats()
    }

    /// Reclamation statistics (diagnostic). The recycle hit/miss/
    /// overflow counters are exact once every handle has dropped.
    pub fn reclaim_stats(&self) -> sec_reclaim::CollectorStats {
        self.engine.reclaim_stats()
    }

    /// Drives reclamation to completion (up to `rounds` epoch
    /// advances); see [`SecStack::quiesce_reclamation`].
    ///
    /// [`SecStack::quiesce_reclamation`]: crate::SecStack::quiesce_reclamation
    pub fn quiesce_reclamation(&self, rounds: usize) -> sec_reclaim::CollectorStats {
        self.engine.quiesce_reclamation(rounds)
    }

    /// A point-in-time poll of the deque's protocol counters (see
    /// [`SecStack::trace_snapshot`](crate::SecStack::trace_snapshot)).
    pub fn trace_snapshot(&self) -> crate::TraceSnapshot {
        self.engine.trace_snapshot()
    }

    /// The sec-trace recorder, when configured under the `trace` cargo
    /// feature (see [`SecStack::tracer`](crate::SecStack::tracer)).
    pub fn tracer(&self) -> Option<&crate::TraceRecorder> {
        self.engine.tracer()
    }

    /// Registers the calling thread.
    ///
    /// # Panics
    ///
    /// If more threads register than the deque was constructed for.
    pub fn register(&self) -> DequeHandle<'_, T> {
        let (reclaim, _state) = self.engine.register();
        DequeHandle {
            deque: self,
            reclaim,
        }
    }
}

impl<T: Send + 'static> fmt::Debug for SecDeque<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SecDeque")
            .field("max_threads", &self.engine.config().max_threads)
            .finish()
    }
}

/// Per-thread handle to a [`SecDeque`].
pub struct DequeHandle<'a, T: Send + 'static> {
    deque: &'a SecDeque<T>,
    reclaim: ReclaimHandle<'a>,
}

impl<T: Send + 'static> DequeHandle<'_, T> {
    /// A point-in-time poll of the deque's protocol counters (see
    /// [`SecDeque::trace_snapshot`]).
    pub fn trace_snapshot(&self) -> crate::TraceSnapshot {
        self.deque.trace_snapshot()
    }

    /// Pushes at the front.
    pub fn push_front(&mut self, value: T) {
        self.push(End::Front, value);
    }

    /// Pushes at the back.
    pub fn push_back(&mut self, value: T) {
        self.push(End::Back, value);
    }

    /// Pops from the front (`None` = empty).
    pub fn pop_front(&mut self) -> Option<T> {
        self.pop(End::Front)
    }

    /// Pops from the back (`None` = empty).
    pub fn pop_back(&mut self) -> Option<T> {
        self.pop(End::Back)
    }

    /// SEC push, retargeted at one deque end.
    fn push(&mut self, end: End, value: T) {
        let node = Node::alloc_with(&self.reclaim, value);
        self.deque
            .engine
            .run(Lane::At(end.agg_idx()), Role::Add, node, &self.reclaim);
    }

    /// SEC pop, retargeted at one deque end.
    fn pop(&mut self, end: End) -> Option<T> {
        self.deque.engine.run(
            Lane::At(end.agg_idx()),
            Role::Remove,
            ptr::null_mut(),
            &self.reclaim,
        )
    }
}

impl<T: Send + 'static> fmt::Debug for DequeHandle<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DequeHandle").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread;

    #[test]
    fn sequential_deque_semantics() {
        let d: SecDeque<u32> = SecDeque::new(1);
        let mut h = d.register();
        h.push_front(2);
        h.push_front(1); // [1, 2]
        h.push_back(3); // [1, 2, 3]
        assert_eq!(h.pop_front(), Some(1));
        assert_eq!(h.pop_back(), Some(3));
        assert_eq!(h.pop_back(), Some(2));
        assert_eq!(h.pop_back(), None);
        assert_eq!(h.pop_front(), None);
    }

    #[test]
    fn front_is_a_stack_back_is_a_queue_tail() {
        let d: SecDeque<u32> = SecDeque::new(1);
        let mut h = d.register();
        for i in 0..10 {
            h.push_back(i);
        }
        for i in 0..10 {
            assert_eq!(h.pop_front(), Some(i), "FIFO via opposite ends");
        }
        for i in 0..10 {
            h.push_front(i);
        }
        for i in (0..10).rev() {
            assert_eq!(h.pop_front(), Some(i), "LIFO via the same end");
        }
    }

    #[test]
    fn vecdeque_model_equivalence_single_thread() {
        let d: SecDeque<u64> = SecDeque::new(1);
        let mut h = d.register();
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut x = 0x1234_5678_u64 | 1;
        for i in 0..2_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match x % 4 {
                0 => {
                    h.push_front(i);
                    model.push_front(i);
                }
                1 => {
                    h.push_back(i);
                    model.push_back(i);
                }
                2 => assert_eq!(h.pop_front(), model.pop_front(), "op {i}"),
                _ => assert_eq!(h.pop_back(), model.pop_back(), "op {i}"),
            }
        }
        while let Some(expect) = model.pop_front() {
            assert_eq!(h.pop_front(), Some(expect));
        }
        assert_eq!(h.pop_front(), None);
    }

    #[test]
    fn concurrent_conservation_both_ends() {
        const THREADS: usize = 8;
        const PER: usize = 800;
        let d: SecDeque<u64> = SecDeque::new(THREADS + 1);
        let got: Vec<Vec<u64>> = thread::scope(|scope| {
            (0..THREADS)
                .map(|t| {
                    let d = &d;
                    scope.spawn(move || {
                        let mut h = d.register();
                        let mut got = Vec::new();
                        for i in 0..PER {
                            let v = (t * PER + i) as u64;
                            match (t + i) % 4 {
                                0 => h.push_front(v),
                                1 => h.push_back(v),
                                2 => {
                                    if let Some(x) = h.pop_front() {
                                        got.push(x);
                                    }
                                }
                                _ => {
                                    if let Some(x) = h.pop_back() {
                                        got.push(x);
                                    }
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
        let mut seen: HashSet<u64> = HashSet::new();
        let mut popped = 0usize;
        for v in got.into_iter().flatten() {
            assert!(seen.insert(v), "duplicate {v}");
            popped += 1;
        }
        let mut h = d.register();
        let mut remaining = 0usize;
        while let Some(v) = h.pop_front() {
            assert!(seen.insert(v), "duplicate {v} in drain");
            remaining += 1;
        }
        // Pushes: pattern slots 0 and 1 of every window of 4.
        let pushed: usize = (0..THREADS)
            .map(|t| (0..PER).filter(|i| (t + i) % 4 < 2).count())
            .sum();
        assert_eq!(popped + remaining, pushed, "values conserved");
    }

    #[test]
    fn values_drop_exactly_once() {
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
            let d: SecDeque<P> = SecDeque::new(4);
            thread::scope(|scope| {
                for t in 0..4usize {
                    let d = &d;
                    let drops = &drops;
                    scope.spawn(move || {
                        let mut h = d.register();
                        for i in 0..400usize {
                            match (t + i) % 3 {
                                0 => h.push_front(P(Arc::clone(drops))),
                                1 => h.push_back(P(Arc::clone(drops))),
                                _ => drop(h.pop_back()),
                            }
                        }
                    });
                }
            });
        }
        let pushed: usize = (0..4)
            .map(|t| (0..400).filter(|i| (t + i) % 3 < 2).count())
            .sum();
        assert_eq!(drops.load(AOrd::Relaxed), pushed);
    }

    #[test]
    fn oversubscribed_mixed_ends() {
        const THREADS: usize = 12;
        let d: SecDeque<u64> = SecDeque::new(THREADS);
        thread::scope(|scope| {
            for t in 0..THREADS {
                let d = &d;
                scope.spawn(move || {
                    let mut h = d.register();
                    let mut x = (t as u64) | 1;
                    for i in 0..300u64 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        match x % 4 {
                            0 => h.push_front(i),
                            1 => h.push_back(i),
                            2 => {
                                h.pop_front();
                            }
                            _ => {
                                h.pop_back();
                            }
                        }
                    }
                });
            }
        });
    }
}
