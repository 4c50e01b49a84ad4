//! The SEC stack: Algorithms 1 and 2 of the paper, instantiated from
//! the generic combining engine.
//!
//! Module layout:
//!
//! * `node` — shared-stack nodes (paper Figure 1, `Node`),
//! * [`elastic`] — the contention monitor behind
//!   [`AggregatorPolicy::Adaptive`](crate::AggregatorPolicy::Adaptive)
//!   (DESIGN.md §8),
//! * [`stats`] — the Table 1–3 instrumentation,
//! * [`model`] — the closed-form binomial prediction of the
//!   elimination/combining degrees the instrumentation measures,
//! * `op` — the stack's `CombineOp` instantiation: the single-CAS
//!   substack splice (push combining), the single-CAS chain unlink
//!   (pop combining) and elimination through the slot array,
//! * this file — [`SecStack`], [`SecHandle`] and the stack's
//!   operations.
//!
//! The protocol itself — announcement, freezing, freezer election,
//! elimination pairing, combiner election, waiter parking, elastic
//! re-mapping — lives in `crate::combine` (DESIGN.md §12), and so does
//! the surface every family shares (constructors, accessors, the
//! durable constructors); this module contains only what is specific
//! to a *stack*. Comments reference the paper's pseudocode line
//! numbers (Algorithm 1 = push, lines 1–51; Algorithm 2 = pop, lines
//! 52–103). Two pseudocode errata are
//! corrected here, both documented in DESIGN.md §2: the push
//! combiner's substack chain starts at its own node (`top = bot`, not
//! `⊥`), and the pop combiner advances its cursor once per
//! non-eliminated pop (the paper's loop advances one time too few,
//! which would pop `k−1` nodes for `k` pops while handing out `k`
//! values).

pub mod elastic;
pub mod model;
pub(crate) mod node;
mod op;
pub mod stats;

use crate::combine::durable::{self, opcode};
use crate::combine::{FamilyHandle, Lane, Role, Sec};
use crate::traits::{ConcurrentStack, StackHandle};
use core::ptr;
use core::sync::atomic::Ordering;
use node::Node;
use op::{PopManyReq, StackOp};

/// The Sharded Elimination and Combining stack (blocking, linearizable).
///
/// Construct with [`new`](Sec::new) (paper defaults: two aggregators)
/// or [`with_config`](Sec::with_config) — durable stacks of `u64` with
/// [`durable`](Sec::durable) — and have each thread
/// [`register`](Sec::register) a [`SecHandle`] to operate through.
/// The structure's shared surface is [`Sec`]'s.
///
/// # Examples
///
/// ```
/// use sec_core::{SecStack, ConcurrentStack, StackHandle};
///
/// let stack: SecStack<i32> = SecStack::new(4); // up to 4 threads
/// let mut h = stack.register();
/// h.push(1);
/// h.push(2);
/// assert_eq!(h.peek(), Some(2));
/// assert_eq!(h.pop(), Some(2));
/// assert_eq!(h.pop(), Some(1));
/// assert_eq!(h.pop(), None);
/// ```
pub type SecStack<T> = Sec<StackOp<T>>;

/// A thread's handle to a [`SecStack`].
pub type SecHandle<'a, T> = FamilyHandle<'a, StackOp<T>>;

impl<T: Send + 'static> ConcurrentStack<T> for SecStack<T> {
    type Handle<'a>
        = SecHandle<'a, T>
    where
        Self: 'a;

    fn register(&self) -> SecHandle<'_, T> {
        Sec::register(self)
    }

    fn name(&self) -> &'static str {
        "SEC"
    }
}

impl<T: Send + 'static> SecHandle<'_, T> {
    /// The aggregator this thread last announced to (under an adaptive
    /// policy the assignment moves with the active count).
    pub fn aggregator(&self) -> usize {
        self.state.aggregator()
    }

    /// Algorithm 1. Returns when the push is linearized.
    pub fn push(&mut self, value: T) {
        let eng = self.sec;
        if eng.durable_core().is_some() {
            eng.run_durable(&self.reclaim, opcode::PUSH, durable::to_word(value), 0);
            return;
        }
        // Line 3: one node per push, reused across batch retries —
        // popped off this thread's recycle cache before touching the
        // heap (DESIGN.md §10). Lines 4–26 are the engine's driver.
        let node = Node::alloc_with(&self.reclaim, value);
        eng.run(
            Lane::Mapped(&mut self.state),
            Role::Add,
            node,
            &self.reclaim,
        );
    }

    /// Algorithm 2. Returns the popped value, or `None` for EMPTY.
    pub fn pop(&mut self) -> Option<T> {
        let eng = self.sec;
        if eng.durable_core().is_some() {
            return eng.run_durable(&self.reclaim, opcode::POP, 0, 0).value();
        }
        // Lines 54–78 are the engine's driver; elimination, the
        // combiner's unlink and `GetValue` come back through the
        // stack's `CombineOp` hooks.
        eng.run(
            Lane::Mapped(&mut self.state),
            Role::Remove,
            ptr::null_mut(),
            &self.reclaim,
        )
    }

    /// Bulk push: pushes every value of `values`, in slice order, as
    /// one announcement (per `MAX_BULK_OPS`-sized chunk) on the
    /// stack's dedicated bulk aggregator — the protocol cost
    /// (announce, freeze, combiner election, one splice CAS share)
    /// amortizes over the whole slice. The pushes linearize
    /// consecutively at the combiner's splice, so afterwards the last
    /// element of `values` is nearest the top, exactly as if pushed
    /// one at a time with no interleaving.
    ///
    pub fn push_many(&mut self, values: &[T])
    where
        T: Clone,
    {
        if self.sec.durable_core().is_some() {
            // Durable stacks make every push an individually
            // detectable logged op.
            for v in values {
                self.push(v.clone());
            }
            return;
        }
        for chunk in values.chunks(crate::combine::MAX_BULK_OPS) {
            // Build the downward chain the combiner expects: the
            // announced node is the chain's top (the chunk's *last*
            // value — LIFO), the first value's node its null-next
            // bottom.
            let mut top = ptr::null_mut();
            for v in chunk {
                let n = Node::alloc_with(&self.reclaim, v.clone());
                unsafe { (*n).next.store(top, Ordering::Relaxed) };
                top = n;
            }
            self.sec.run_weighted(
                Lane::At(self.sec.bulk_agg(0)),
                Role::Add,
                top,
                chunk.len() as u32,
                &self.reclaim,
            );
        }
    }

    /// Bulk pop: pops up to `max` values into `out` (appended in pop
    /// order — shallowest first), returning how many were taken. One
    /// announcement per `MAX_BULK_OPS`-sized chunk covers the whole
    /// request; the pops linearize consecutively at the combiner's
    /// unlink CAS, so a `pop_many(n)` observes `n` consecutive stack
    /// tops. Returns short (possibly 0) when the stack runs dry —
    /// EMPTY for the remainder, exactly like sequential pops.
    ///
    pub fn pop_many(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        if self.sec.durable_core().is_some() {
            let mut taken = 0usize;
            while taken < max {
                match self.pop() {
                    Some(v) => {
                        out.push(v);
                        taken += 1;
                    }
                    None => break,
                }
            }
            return taken;
        }
        let mut total = 0usize;
        while total < max {
            let want = (max - total).min(crate::combine::MAX_BULK_OPS);
            out.reserve(want);
            let mut req = PopManyReq {
                want,
                // Safety: `reserve` guaranteed `want` spare slots past
                // the initialized prefix.
                out: unsafe { out.as_mut_ptr().add(out.len()) },
                taken: 0,
            };
            // The cast is the type-erasure trick the counter's bulk
            // path uses: the engine treats announcement pointers as
            // opaque; only `combine_pop_many` looks inside, and it
            // knows the bulk aggregator's slots hold requests.
            let node = (&mut req as *mut PopManyReq<T>).cast::<Node<T>>();
            self.sec.run_weighted(
                Lane::At(self.sec.bulk_agg(1)),
                Role::Remove,
                node,
                want as u32,
                &self.reclaim,
            );
            // Safety: the combiner initialized exactly `taken` values
            // at the spare-capacity cursor before `applied` was
            // published (Acquire-paired in `wait_applied`).
            unsafe { out.set_len(out.len() + req.taken) };
            total += req.taken;
            if req.taken < want {
                break; // drained
            }
        }
        total
    }

    /// Peek (§3.2: "simply a read of stackTop, similar to the Treiber
    /// stack").
    pub fn peek(&mut self) -> Option<T>
    where
        T: Clone,
    {
        let _guard = self.reclaim.pin();
        let top = self.sec.op().top.load(Ordering::Acquire);
        if top.is_null() {
            None
        } else {
            // Safety: pinned, so the node cannot be freed; its value
            // bytes stay intact even if a concurrent pop consumes it
            // (consumption is a non-destructive read; see node.rs).
            Some(core::mem::ManuallyDrop::into_inner(unsafe {
                (*top).value.clone()
            }))
        }
    }
}

impl<T: Send + 'static> StackHandle<T> for SecHandle<'_, T> {
    fn push(&mut self, value: T) {
        SecHandle::push(self, value);
    }

    fn pop(&mut self) -> Option<T> {
        SecHandle::pop(self)
    }

    fn peek(&mut self) -> Option<T>
    where
        T: Clone,
    {
        SecHandle::peek(self)
    }
}

#[cfg(test)]
mod tests;
