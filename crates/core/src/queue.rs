//! A concurrent FIFO queue built from the paper's three mechanisms —
//! announcement batching, batch freezing, and single-CAS combining —
//! retargeted from a stack's one contended end to a queue's two.
//!
//! The paper's introduction grounds itself in the FIFO-queue literature
//! (LCRQ, aggregating funnels); this module closes the loop by building
//! the queue those mechanisms imply. Construction: a Michael–Scott-style
//! linked list with a dummy node, plus one SEC batch layer *per end* —
//! two fixed aggregators of the combining engine (`crate::combine`,
//! DESIGN.md §12):
//!
//! * **enqueuers** announce into the tail aggregator's current batch
//!   with one fetch&increment and publish their node in the batch's
//!   slot array; the batch's combiner pre-links all announced nodes in
//!   sequence order and splices the whole chain with a **single CAS on
//!   `tail`** (then writes the old tail's `next` link, the standard
//!   swing-then-link discipline);
//! * **dequeuers** announce into the head aggregator's current batch;
//!   the combiner walks `popCount` nodes from `head` in one traversal
//!   and unlinks them all with a **single CAS on `head`**, publishing
//!   the taken chain (and its length) for the batch's waiters;
//! * **elimination** between enqueues and dequeues is permitted *only
//!   when the combiner observes the queue empty* — any other pairing
//!   would hand a dequeuer a value newer than the queue's front and
//!   break FIFO. When the dequeue combiner validates emptiness
//!   (MS-style: `head == tail` and `head.next == null`), it holds a
//!   bounded rendezvous window open on `head.next`; an enqueue batch
//!   that splices into the empty queue during the window is consumed
//!   directly, combiner-to-combiner, before its values ever age in the
//!   list. The (empty) head link is the elimination slot — routing the
//!   hand-off through it is what keeps emptiness and transfer atomic
//!   (DESIGN.md §9 discusses why a detached slot array cannot).
//!
//! An op that finds nobody announced in its end's batch skips the
//! batch and makes one attempt at its combiner's CAS itself: a splice
//! of its own chain, or one walk + `head` CAS. It announces only when
//! that CAS loses, so batches form where ops collide (DESIGN.md §12
//! "Lone operations").
//!
//! Batches are homogeneous per end: each end uses one lane of the
//! engine's `CombineBatch` while the other lane's counter stays
//! pinned at zero, which makes the engine's combiner election pick
//! exactly the sequence-0 announcer and its cross-lane elimination
//! test vacuous (see `crate::combine`'s module docs). Memory is
//! reclaimed through the same `sec-reclaim` epochs as the stack: the
//! freezer retires its frozen batch, the dequeue combiner retires the
//! outgoing dummy, and each waiter retires the node it consumed
//! (except the chain's last, which becomes the new dummy and is
//! retired by a later combiner).

mod op;

use crate::combine::durable::{self, opcode};
use crate::combine::{FamilyHandle, Lane, Role, Sec};
use crate::traits::{ConcurrentQueue, QueueHandle};
use core::ptr;
use core::sync::atomic::Ordering;
use op::{DequeueManyReq, QNode, QueueOp, HEAD, HEAD_BULK, TAIL};

/// The SEC-derived FIFO queue (blocking, linearizable).
///
/// Construct with [`new`](Sec::new) or [`with_config`](Sec::with_config)
/// — durable queues of `u64` with [`durable`](Sec::durable) — and have
/// each thread [`register`](Sec::register) a [`SecQueueHandle`] to
/// `enqueue`/`dequeue` through. The structure's shared surface is
/// [`Sec`]'s. In its [`stats`](Sec::stats) tail batches record as
/// pushes and head batches as pops, so `batching_degree` reports the
/// combined splice/unlink amortization; the stack's elimination share
/// is structurally zero — see [`SecQueue::rendezvous_hits`] for the
/// queue's own pairing counter.
///
/// # Examples
///
/// ```
/// use sec_core::queue::SecQueue;
///
/// let q: SecQueue<u32> = SecQueue::new(2);
/// let mut h = q.register();
/// h.enqueue(1);
/// h.enqueue(2);
/// assert_eq!(h.dequeue(), Some(1));
/// assert_eq!(h.dequeue(), Some(2));
/// assert_eq!(h.dequeue(), None);
/// ```
pub type SecQueue<T> = Sec<QueueOp<T>>;

/// A thread's handle to a [`SecQueue`].
pub type SecQueueHandle<'a, T> = FamilyHandle<'a, QueueOp<T>>;

impl<T: Send + 'static> SecQueue<T> {
    /// Sets the empty-queue rendezvous window in spin iterations
    /// (builder style). `0` disables empty-only elimination entirely:
    /// a dequeue batch that validates emptiness reports EMPTY at once.
    pub fn rendezvous_spins(mut self, spins: u32) -> Self {
        self.op_mut().rendezvous_spins = spins;
        self
    }

    /// Number of dequeue batches and lone dequeues that validated the
    /// queue empty and then consumed a splice through the rendezvous
    /// window — the queue's "empty-only elimination" events.
    pub fn rendezvous_hits(&self) -> u64 {
        self.op().rendezvous_hits.load(Ordering::Relaxed)
    }
}

impl<T: Send + 'static> ConcurrentQueue<T> for SecQueue<T> {
    type Handle<'a>
        = SecQueueHandle<'a, T>
    where
        Self: 'a;

    fn register(&self) -> SecQueueHandle<'_, T> {
        Sec::register(self)
    }

    fn name(&self) -> &'static str {
        "SEC-Q"
    }
}

impl<T: Send + 'static> SecQueueHandle<'_, T> {
    /// Appends `value` at the tail. Returns when the enqueue is
    /// linearized (its batch's splice CAS has landed).
    pub fn enqueue(&mut self, value: T) {
        let eng = self.sec;
        if eng.durable_core().is_some() {
            eng.run_durable(&self.reclaim, opcode::ENQUEUE, durable::to_word(value), 0);
            return;
        }
        // One node per enqueue, reused across batch retries — popped
        // off this thread's recycle cache before touching the heap.
        let node = QNode::alloc_with(&self.reclaim, value);
        eng.run(Lane::At(TAIL), Role::Add, node, &self.reclaim);
    }

    /// Removes the queue's oldest value, or `None` when the queue is
    /// (linearizably) empty. A dequeue's offset within its batch's
    /// taken chain is its sequence number: the batch's dequeues drain
    /// in announcement order, which is what makes the block FIFO.
    pub fn dequeue(&mut self) -> Option<T> {
        let eng = self.sec;
        if eng.durable_core().is_some() {
            return eng
                .run_durable(&self.reclaim, opcode::DEQUEUE, 0, 0)
                .value();
        }
        eng.run(Lane::At(HEAD), Role::Remove, ptr::null_mut(), &self.reclaim)
    }

    /// Bulk enqueue: appends every value of `values`, in slice order,
    /// as one announcement (per `MAX_BULK_OPS`-sized chunk) on the
    /// tail aggregator — the chain is pre-linked by the caller, so the
    /// whole slice costs one slot of the batch and one share of the
    /// splice CAS. The enqueues linearize consecutively at the splice:
    /// afterwards the values sit in the queue back-to-back, in slice
    /// order, with no foreign value interleaved.
    ///
    pub fn enqueue_many(&mut self, values: &[T])
    where
        T: Clone,
    {
        if self.sec.durable_core().is_some() {
            // Durable queues make every enqueue an individually
            // detectable logged op.
            for v in values {
                self.enqueue(v.clone());
            }
            return;
        }
        for chunk in values.chunks(crate::combine::MAX_BULK_OPS) {
            // Build the forward chain the tail combiner expects: the
            // announced node is the chunk's *first* value (FIFO), the
            // last value's node keeps its null `next`.
            let mut head: *mut QNode<T> = ptr::null_mut();
            let mut tail: *mut QNode<T> = ptr::null_mut();
            for v in chunk {
                let n = QNode::alloc_with(&self.reclaim, v.clone());
                if head.is_null() {
                    head = n;
                } else {
                    // Relaxed: published wholesale by the announce
                    // (slot Release store) and again by the splice.
                    unsafe { (*tail).next.store(n, Ordering::Relaxed) };
                }
                tail = n;
            }
            self.sec.run_weighted(
                Lane::At(TAIL),
                Role::Add,
                head,
                chunk.len() as u32,
                &self.reclaim,
            );
        }
    }

    /// Bulk dequeue: removes up to `max` values into `out` (appended
    /// in queue order — oldest first), returning how many were taken.
    /// One announcement per `MAX_BULK_OPS`-sized chunk covers the
    /// whole request; the dequeues linearize consecutively at the bulk
    /// combiner's unlink CAS, so a `dequeue_many(n)` receives `n`
    /// consecutive queue fronts. Returns short (possibly 0) when the
    /// queue runs dry.
    ///
    pub fn dequeue_many(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        if self.sec.durable_core().is_some() {
            // Durable queues make every dequeue an individually
            // detectable logged op.
            let mut total = 0usize;
            while total < max {
                match self.dequeue() {
                    Some(v) => {
                        out.push(v);
                        total += 1;
                    }
                    None => break,
                }
            }
            return total;
        }
        let mut total = 0usize;
        while total < max {
            let want = (max - total).min(crate::combine::MAX_BULK_OPS);
            out.reserve(want);
            let mut req = DequeueManyReq {
                want,
                // Safety: `reserve` guaranteed `want` spare slots past
                // the initialized prefix.
                out: unsafe { out.as_mut_ptr().add(out.len()) },
                taken: 0,
            };
            // Type erasure as in the stack's bulk pop: the engine
            // treats announcement pointers as opaque, and the bulk
            // aggregator's combiner knows its slots hold requests.
            let node = (&mut req as *mut DequeueManyReq<T>).cast::<QNode<T>>();
            self.sec.run_weighted(
                Lane::At(HEAD_BULK),
                Role::Remove,
                node,
                want as u32,
                &self.reclaim,
            );
            // Safety: the combiner initialized exactly `taken` values
            // at the spare-capacity cursor before `applied` was
            // published.
            unsafe { out.set_len(out.len() + req.taken) };
            total += req.taken;
            if req.taken < want {
                break; // drained
            }
        }
        total
    }
}

impl<T: Send + 'static> QueueHandle<T> for SecQueueHandle<'_, T> {
    fn enqueue(&mut self, value: T) {
        SecQueueHandle::enqueue(self, value);
    }

    fn dequeue(&mut self) -> Option<T> {
        SecQueueHandle::dequeue(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::tests::{assert_spins_per_batch, spin_only, GATE_OPS};
    use std::collections::{HashSet, VecDeque};
    use std::thread;

    /// Enqueues `value` through the batch path, whatever the lone rule
    /// would say.
    fn batched_enqueue(h: &mut SecQueueHandle<'_, u64>, value: u64) {
        let node = QNode::alloc_with(&h.reclaim, value);
        let tid = h.reclaim.slot();
        h.sec
            .run_batch(Lane::At(TAIL), Role::Add, node, 1, &h.reclaim, tid, None);
    }

    /// Runs one op through the lone route whatever the rule would say
    /// (retrying a lost CAS there instead of announcing), or through
    /// the batch path.
    fn forced(
        h: &mut SecQueueHandle<'_, u64>,
        lone: bool,
        agg: usize,
        role: Role,
        node: *mut QNode<u64>,
        ops: usize,
    ) -> Option<u64> {
        let ops = ops as u32;
        if !lone {
            let tid = h.reclaim.slot();
            return h
                .sec
                .run_batch(Lane::At(agg), role, node, ops, &h.reclaim, tid, None);
        }
        loop {
            let lane = &mut Lane::At(agg);
            if let Ok(out) = h.sec.run_alone(lane, role, node, ops, &h.reclaim, None) {
                return out;
            }
        }
    }

    /// Enqueues `values` as one pre-linked chain: a single `enqueue`
    /// for one value, an `enqueue_many` block for more.
    fn forced_enqueue(h: &mut SecQueueHandle<'_, u64>, lone: bool, values: &[u64]) {
        let nodes: Vec<_> = values
            .iter()
            .map(|&v| QNode::alloc_with(&h.reclaim, v))
            .collect();
        for pair in nodes.windows(2) {
            unsafe { (*pair[0]).next.store(pair[1], Ordering::Relaxed) };
        }
        forced(h, lone, TAIL, Role::Add, nodes[0], values.len());
    }

    /// Dequeues up to `want` values: a single `dequeue` for one, a
    /// `dequeue_many` request for more.
    fn forced_dequeue(h: &mut SecQueueHandle<'_, u64>, lone: bool, want: usize) -> Vec<u64> {
        if want == 1 {
            return forced(h, lone, HEAD, Role::Remove, ptr::null_mut(), 1)
                .into_iter()
                .collect();
        }
        let mut out = Vec::with_capacity(want);
        let mut req = DequeueManyReq {
            want,
            out: out.as_mut_ptr(),
            taken: 0,
        };
        let node = (&mut req as *mut DequeueManyReq<u64>).cast();
        forced(h, lone, HEAD_BULK, Role::Remove, node, want);
        // Safety: the applier initialized exactly `taken` values.
        unsafe { out.set_len(req.taken) };
        out
    }

    /// A producer's `i`-th value at position `k` of its block.
    fn tagged(t: usize, i: usize, k: usize) -> u64 {
        ((t as u64) << 40) | ((i as u64) << 8) | k as u64
    }

    /// Consecutive queue fronts (one `dequeue_many`, or a drain) keep
    /// every `enqueue_many` block contiguous and in order: a value with
    /// a successor in its block is followed by that successor.
    fn assert_blocks_contiguous(fronts: &[u64]) {
        for pair in fronts.windows(2) {
            let (x, y) = (pair[0], pair[1]);
            if x & 0xFF < 2 && (x >> 8) & 1 == 1 {
                assert_eq!(y, x + 1, "a block was split: {fronts:x?}");
            }
            if y & 0xFF > 0 {
                assert_eq!(x, y - 1, "a block was split: {fronts:x?}");
            }
        }
    }

    #[test]
    fn forced_lone_queue_ops_overlap_batched_ops_and_keep_fifo() {
        // Threads 0 and 1 call the lone route directly for every op,
        // whatever the lanes say, while the other two run every op
        // through the batch path: lone splices race each other and the
        // tail combiner's, lone takes race each other and both head
        // combiners. The six-op cycle mixes single and bulk calls at
        // both ends (odd `i` enqueues a block of three).
        use std::sync::Barrier;
        const THREADS: usize = 4;
        const PER: usize = 3_000;
        let q: SecQueue<u64> = SecQueue::new(THREADS + 1);
        let registered = Barrier::new(THREADS);
        let (enqueued, takes): (Vec<u64>, Vec<Vec<Vec<u64>>>) = thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (q, registered) = (&q, &registered);
                    s.spawn(move || {
                        let mut h = q.register();
                        registered.wait();
                        let lone = t < 2;
                        let (mut enqueued, mut takes) = (Vec::new(), Vec::new());
                        for i in 0..PER {
                            match i % 6 {
                                0 | 1 | 4 => {
                                    let len = if i % 2 == 1 { 3 } else { 1 };
                                    let block: Vec<_> = (0..len).map(|k| tagged(t, i, k)).collect();
                                    forced_enqueue(&mut h, lone, &block);
                                    enqueued.extend(block);
                                }
                                2 | 5 => takes.push(forced_dequeue(&mut h, lone, 1)),
                                _ => takes.push(forced_dequeue(&mut h, lone, 2)),
                            }
                        }
                        (enqueued, takes)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).fold(
                (Vec::new(), Vec::new()),
                |(mut e, mut d), (we, wd)| {
                    e.extend(we);
                    d.push(wd);
                    (e, d)
                },
            )
        });

        let r = q.stats().report();
        let issued = (THREADS * PER / 6) as u64 * (1 + 3 + 1 + 1 + 2 + 1);
        assert_eq!(r.ops, issued, "{r:?}");
        assert_eq!(r.alone, 2 * PER as u64, "threads 0 and 1 ran alone: {r:?}");
        assert_eq!(r.eliminated + r.combined, r.ops, "{r:?}");
        assert_eq!(q.stats().degree_histogram().count(), r.batches);
        assert!(r.batches > r.alone, "the batch path ran too: {r:?}");

        let mut h = q.register();
        let mut left = Vec::new();
        while let Some(v) = h.dequeue() {
            left.push(v);
        }
        assert_blocks_contiguous(&left);
        for consumer in &takes {
            // Per-producer FIFO: each consumer sees every producer's
            // values in enqueue order.
            let mut last = [None::<u64>; THREADS];
            for v in consumer.iter().flatten() {
                let p = (v >> 40) as usize;
                assert!(
                    last[p] < Some(*v),
                    "producer {p}: {v:x} after {:x?}",
                    last[p]
                );
                last[p] = Some(*v);
            }
            for take in consumer {
                assert_blocks_contiguous(take);
            }
        }
        // Conservation: everything enqueued came out exactly once.
        let mut out: Vec<u64> = takes.into_iter().flatten().flatten().chain(left).collect();
        let mut enqueued = enqueued;
        out.sort_unstable();
        enqueued.sort_unstable();
        assert_eq!(out, enqueued);
    }

    #[test]
    fn a_lone_dequeue_waits_out_an_in_flight_splice() {
        // An enqueue has swung `tail` to its node `a` but not yet linked
        // it behind the dummy (the swing-then-link gap), and a second
        // enqueue of `b` has completed behind it. A dequeue that starts
        // now must not report EMPTY — `b`'s enqueue returned before it
        // began — so it waits for the link and takes `a`.
        let q: SecQueue<u64> = SecQueue::new(2);
        let (mut h, mut other) = (q.register(), q.register());
        let op = q.op();
        let dummy = op.head.load(Ordering::Acquire);
        let a = QNode::alloc_with(&h.reclaim, 1);
        assert!(op
            .tail
            .compare_exchange(dummy, a, Ordering::AcqRel, Ordering::Acquire)
            .is_ok());
        h.enqueue(2);
        let before = q.stats().report().alone;
        thread::scope(|s| {
            let taker = s.spawn(move || other.dequeue());
            // Every interleaving must give `Some(1)`; the pause makes
            // the one that matters, the dequeuer reaching the gap
            // before the link, the one that runs.
            thread::sleep(std::time::Duration::from_millis(20));
            // Safety: `a` is live and unlinked; only the swinger links
            // it, and that is this test.
            unsafe { (*dummy).next.store(a, Ordering::Release) };
            assert_eq!(taker.join().unwrap(), Some(1));
        });
        assert_eq!(
            q.stats().report().alone,
            before + 1,
            "the dequeue ran alone"
        );
        assert_eq!(h.dequeue(), Some(2));
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn a_queue_freezes_without_spinning_at_either_end() {
        let queue: SecQueue<u64> = SecQueue::with_config(spin_only());
        let (_idle, mut h) = (queue.register(), queue.register());
        for i in 0..GATE_OPS {
            batched_enqueue(&mut h, i);
        }
        assert_spins_per_batch("queue enqueue", queue.stats(), 0);
        queue.stats().reset();
        for i in 0..GATE_OPS {
            assert_eq!(forced_dequeue(&mut h, false, 1), [i]);
        }
        assert_spins_per_batch("queue dequeue", queue.stats(), 0);
    }

    #[test]
    fn sequential_fifo() {
        let q: SecQueue<u32> = SecQueue::new(1);
        let mut h = q.register();
        for i in 0..50 {
            h.enqueue(i);
        }
        for i in 0..50 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn empty_queue_dequeues_none() {
        let q: SecQueue<u32> = SecQueue::new(2);
        let mut h = q.register();
        for _ in 0..100 {
            assert_eq!(h.dequeue(), None);
        }
        h.enqueue(1);
        assert_eq!(h.dequeue(), Some(1));
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn interleaved_matches_vecdeque_model() {
        let q: SecQueue<u64> = SecQueue::new(1);
        let mut h = q.register();
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut x = 0x9E37_79B9_u64 | 1;
        for i in 0..3_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x % 3 < 2 {
                h.enqueue(i);
                model.push_back(i);
            } else {
                assert_eq!(h.dequeue(), model.pop_front(), "op {i}");
            }
        }
        while let Some(expect) = model.pop_front() {
            assert_eq!(h.dequeue(), Some(expect));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn per_producer_order_is_preserved() {
        // FIFO implies each producer's values are dequeued in its own
        // enqueue order, regardless of interleaving.
        const PRODUCERS: usize = 4;
        const PER: u64 = 2_000;
        let q: SecQueue<u64> = SecQueue::new(PRODUCERS + 1);
        let got: Vec<u64> = thread::scope(|scope| {
            for p in 0..PRODUCERS {
                let q = &q;
                scope.spawn(move || {
                    let mut h = q.register();
                    for i in 0..PER {
                        h.enqueue(((p as u64) << 32) | i);
                    }
                });
            }
            let q = &q;
            scope
                .spawn(move || {
                    let mut h = q.register();
                    let mut got = Vec::new();
                    while got.len() < (PRODUCERS as u64 * PER) as usize {
                        if let Some(v) = h.dequeue() {
                            got.push(v);
                        }
                    }
                    got
                })
                .join()
                .unwrap()
        });
        let mut last = [None::<u64>; PRODUCERS];
        for v in got {
            let p = (v >> 32) as usize;
            let i = v & 0xFFFF_FFFF;
            if let Some(prev) = last[p] {
                assert!(i > prev, "producer {p}: {i} after {prev}");
            }
            last[p] = Some(i);
        }
        for (p, l) in last.iter().enumerate() {
            assert_eq!(*l, Some(PER - 1), "producer {p} fully consumed");
        }
    }

    #[test]
    fn concurrent_conservation_mixed() {
        const THREADS: usize = 8;
        const PER: usize = 1_500;
        let q: SecQueue<u64> = SecQueue::new(THREADS + 1);
        let got: Vec<Vec<u64>> = thread::scope(|scope| {
            (0..THREADS)
                .map(|t| {
                    let q = &q;
                    scope.spawn(move || {
                        let mut h = q.register();
                        let mut got = Vec::new();
                        for i in 0..PER {
                            h.enqueue((t * PER + i) as u64);
                            if i % 3 != 0 {
                                if let Some(v) = h.dequeue() {
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
        let mut seen: HashSet<u64> = HashSet::new();
        for v in got.into_iter().flatten() {
            assert!(seen.insert(v), "duplicate {v}");
        }
        let mut h = q.register();
        while let Some(v) = h.dequeue() {
            assert!(seen.insert(v), "duplicate {v} in drain");
        }
        assert_eq!(seen.len(), THREADS * PER, "values lost");
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
            let q: SecQueue<P> = SecQueue::new(4);
            thread::scope(|scope| {
                for t in 0..4usize {
                    let q = &q;
                    let drops = &drops;
                    scope.spawn(move || {
                        let mut h = q.register();
                        for i in 0..500usize {
                            if (t + i) % 3 < 2 {
                                h.enqueue(P(Arc::clone(drops)));
                            } else {
                                drop(h.dequeue());
                            }
                        }
                    });
                }
            });
        }
        let enqueued: usize = (0..4)
            .map(|t| (0..500).filter(|i| (t + i) % 3 < 2).count())
            .sum();
        assert_eq!(drops.load(AOrd::Relaxed), enqueued);
    }

    #[test]
    fn oversubscribed_progress() {
        const THREADS: usize = 12;
        let q: SecQueue<u64> = SecQueue::new(THREADS);
        thread::scope(|scope| {
            for t in 0..THREADS {
                let q = &q;
                scope.spawn(move || {
                    let mut h = q.register();
                    let mut x = (t as u64) | 1;
                    for i in 0..400u64 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        if x.is_multiple_of(2) {
                            h.enqueue(i);
                        } else {
                            let _ = h.dequeue();
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn stats_record_both_ends() {
        let q: SecQueue<u64> = SecQueue::new(2);
        let mut h = q.register();
        for i in 0..100 {
            h.enqueue(i);
        }
        for _ in 0..100 {
            let _ = h.dequeue();
        }
        let r = q.stats().report();
        assert!(r.batches >= 2, "both ends froze batches: {r:?}");
        assert_eq!(r.ops, 200);
        assert_eq!(r.eliminated, 0, "queue batches are homogeneous");
        assert_eq!(r.combined, r.ops);
    }

    #[test]
    fn rendezvous_window_can_be_disabled() {
        let q: SecQueue<u64> = SecQueue::new(1).rendezvous_spins(0);
        let mut h = q.register();
        assert_eq!(h.dequeue(), None);
        h.enqueue(9);
        assert_eq!(h.dequeue(), Some(9));
        assert_eq!(q.rendezvous_hits(), 0);
    }

    #[test]
    fn empty_rendezvous_pairs_concurrent_batches() {
        // Producer/consumer ping-pong on an empty queue: consumers that
        // validate emptiness while a producer splices should sometimes
        // pick the batch up inside the window. The hit counter is
        // best-effort (scheduling-dependent), so only the mechanics —
        // conservation and termination — are asserted; the counter just
        // has to stay coherent.
        const ROUNDS: usize = 2_000;
        let q: SecQueue<u64> = SecQueue::new(3);
        let consumed: u64 = thread::scope(|scope| {
            let q1 = &q;
            scope.spawn(move || {
                let mut h = q1.register();
                for i in 0..ROUNDS as u64 {
                    h.enqueue(i);
                }
            });
            let q2 = &q;
            scope
                .spawn(move || {
                    let mut h = q2.register();
                    let mut n = 0u64;
                    while n < ROUNDS as u64 {
                        if h.dequeue().is_some() {
                            n += 1;
                        }
                    }
                    n
                })
                .join()
                .unwrap()
        });
        assert_eq!(consumed, ROUNDS as u64);
        assert!(q.rendezvous_hits() <= q.stats().report().batches);
    }

    #[test]
    fn enqueue_many_dequeue_many_sequential_fifo() {
        let q: SecQueue<u64> = SecQueue::new(1);
        let mut h = q.register();
        h.enqueue_many(&[1, 2, 3, 4, 5]);
        let mut out = Vec::new();
        assert_eq!(h.dequeue_many(&mut out, 3), 3);
        assert_eq!(out, vec![1, 2, 3]);
        // Short return on a drained queue.
        assert_eq!(h.dequeue_many(&mut out, 10), 2);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
        assert_eq!(h.dequeue_many(&mut out, 4), 0);
        assert_eq!(h.dequeue(), None);
        // Bulk and single operations interleave on the same list.
        h.enqueue_many(&[6, 7]);
        h.enqueue(8);
        assert_eq!(h.dequeue(), Some(6));
        let mut rest = Vec::new();
        assert_eq!(h.dequeue_many(&mut rest, 8), 2);
        assert_eq!(rest, vec![7, 8]);
        h.enqueue_many(&[]);
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn bulk_ops_are_counted_in_ops_not_announcements() {
        const CALLS: u64 = 50;
        const LEN: usize = 8;
        let q: SecQueue<u64> = SecQueue::new(1);
        let mut h = q.register();
        let mut out = Vec::new();
        for _ in 0..CALLS {
            h.enqueue_many(&[7; LEN]);
            assert_eq!(h.dequeue_many(&mut out, LEN), LEN);
            out.clear();
        }
        let r = q.stats().report();
        assert_eq!(r.ops, 2 * CALLS * LEN as u64, "the freezer counts ops");
        assert_eq!(r.batches, 2 * CALLS, "one announcement (batch) per call");
    }

    #[test]
    fn bulk_blocks_stay_contiguous_under_concurrency() {
        // Each enqueue_many linearizes as one splice, so a producer's
        // block sits in the queue back-to-back: the consumer must see
        // each block's values consecutively, with no foreign value in
        // between.
        const PRODUCERS: usize = 3;
        const BLOCKS: usize = 80;
        const LEN: usize = 7;
        let q: SecQueue<u64> = SecQueue::new(PRODUCERS + 1);
        let got: Vec<u64> = thread::scope(|scope| {
            for p in 0..PRODUCERS as u64 {
                let q = &q;
                scope.spawn(move || {
                    let mut h = q.register();
                    for b in 0..BLOCKS as u64 {
                        let base = (p << 32) | (b * LEN as u64);
                        let vals: Vec<u64> = (0..LEN as u64).map(|i| base + i).collect();
                        h.enqueue_many(&vals);
                    }
                });
            }
            let q = &q;
            scope
                .spawn(move || {
                    let mut h = q.register();
                    let mut got = Vec::new();
                    let total = PRODUCERS * BLOCKS * LEN;
                    while got.len() < total {
                        h.dequeue_many(&mut got, 16);
                    }
                    got
                })
                .join()
                .unwrap()
        });
        assert_eq!(got.len(), PRODUCERS * BLOCKS * LEN);
        // Walk the consumed sequence block by block: every run of LEN
        // values starting at a block base must be that block, intact.
        let mut i = 0;
        while i < got.len() {
            let base = got[i];
            // The low half is the in-producer index; block starts are
            // multiples of LEN.
            assert_eq!(
                (base & 0xFFFF_FFFF) % LEN as u64,
                0,
                "block-aligned at {i}: {base}"
            );
            for j in 0..LEN as u64 {
                assert_eq!(got[i + j as usize], base + j, "block torn at {i}");
            }
            i += LEN;
        }
    }

    #[test]
    fn durable_queue_recovery_preserves_fifo_sequence() {
        use crate::DurablePolicy;
        let q = SecQueue::<u64>::durable(1, DurablePolicy::volatile()).unwrap();
        {
            let mut h = q.register();
            for v in [10u64, 20, 30, 40] {
                h.enqueue(v);
            }
            assert_eq!(h.dequeue(), Some(10));
        }
        let heap = q.durable_heap().unwrap();
        drop(q);
        let (r, report) = SecQueue::<u64>::recover(DurablePolicy::heap(heap)).unwrap();
        assert_eq!(report.replayed_ops(), 5);
        let mut h = r.register();
        assert_eq!(h.dequeue(), Some(20));
        assert_eq!(h.dequeue(), Some(30));
        assert_eq!(h.dequeue(), Some(40));
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn durable_queue_recovers_contents_under_contention() {
        use crate::{DurablePolicy, PendingOutcome};
        const THREADS: usize = 4;
        const PER: usize = 120;
        let q = SecQueue::<u64>::durable(THREADS, DurablePolicy::volatile().shards(2)).unwrap();
        thread::scope(|scope| {
            for t in 0..THREADS {
                let q = &q;
                scope.spawn(move || {
                    let mut h = q.register();
                    for i in 0..PER {
                        let v = (t * PER + i) as u64;
                        if i % 3 == 2 {
                            h.dequeue();
                        } else {
                            h.enqueue(v);
                        }
                    }
                });
            }
        });
        // Drain the live structure into a sorted multiset, then put
        // the values back (the drain itself was logged).
        let mut live: Vec<u64> = Vec::new();
        {
            let mut h = q.register();
            while let Some(v) = h.dequeue() {
                live.push(v);
            }
            for &v in &live {
                h.enqueue(v);
            }
        }
        live.sort_unstable();
        let heap = q.durable_heap().unwrap();
        drop(q);
        let (r, report) = SecQueue::<u64>::recover(DurablePolicy::heap(heap)).unwrap();
        for h in &report.handles[..THREADS] {
            assert!(matches!(
                h.pending,
                PendingOutcome::Executed { .. } | PendingOutcome::None
            ));
        }
        let mut rec: Vec<u64> = Vec::new();
        let mut h = r.register();
        while let Some(v) = h.dequeue() {
            rec.push(v);
        }
        rec.sort_unstable();
        assert_eq!(rec, live);
    }

    #[test]
    fn durable_queue_replay_refuses_a_diverged_or_foreign_log() {
        use crate::combine::durable::testing::{assert_corrupt, recover_forged, Entry};
        use crate::combine::durable::{Family, OpResult::*};
        let recover =
            |ops: &[Entry]| recover_forged(Family::Queue, 0, ops, SecQueue::<u64>::recover);
        // Control: a faithful log replays.
        let q = recover(&[(opcode::ENQUEUE, 7, 0, Unit), (opcode::ENQUEUE, 8, 0, Unit)]).unwrap();
        assert_eq!(q.register().dequeue(), Some(7));
        // A dequeue logged as returning 7 from an empty queue.
        assert_corrupt(
            recover(&[(opcode::DEQUEUE, 0, 0, Value(7))]),
            "replay diverged",
        );
        // A dequeue logged with the wrong end's value.
        assert_corrupt(
            recover(&[
                (opcode::ENQUEUE, 7, 0, Unit),
                (opcode::ENQUEUE, 8, 0, Unit),
                (opcode::DEQUEUE, 0, 0, Value(8)),
            ]),
            "replay diverged",
        );
        // A stack op in a queue log.
        assert_corrupt(recover(&[(opcode::PUSH, 7, 0, Unit)]), "foreign opcode");
    }

    #[test]
    fn durable_queue_bulk_ops_route_through_the_log() {
        use crate::DurablePolicy;
        let q = SecQueue::<u64>::durable(2, DurablePolicy::volatile()).unwrap();
        {
            let mut h = q.register();
            h.enqueue_many(&[1, 2, 3, 4, 5]);
            let mut out = Vec::new();
            assert_eq!(h.dequeue_many(&mut out, 2), 2);
            assert_eq!(out, vec![1, 2]);
        }
        assert_eq!(q.durable_stats().unwrap().entries, 7);
        let heap = q.durable_heap().unwrap();
        drop(q);
        let (r, _) = SecQueue::<u64>::recover(DurablePolicy::heap(heap)).unwrap();
        let mut h = r.register();
        assert_eq!(h.dequeue(), Some(3));
    }
}
