//! The leak-floor Treiber stack (**TRB-LEAK**): the Treiber CAS loop
//! with no reclamation while it runs, the cost floor of `sweep
//! recl_ablation`. A popped node is never freed or reused, so a pop
//! needs no epoch pin or hazard pointer, and no address comes back to
//! cause ABA. Each handle chains the nodes it allocates through a link
//! in the node itself and hands the chain to the stack when it drops,
//! and the stack frees every chain when it drops: a bench run returns
//! its memory, a long-lived stack grows without bound.

use core::mem::ManuallyDrop;
use core::ptr;
use core::sync::atomic::{AtomicPtr, Ordering};
use sec_core::{ConcurrentStack, StackHandle};
use sec_sync::{Backoff, CachePadded};
use std::sync::Mutex;

/// A Treiber node plus the link of its handle's allocation chain.
struct Node<T> {
    value: ManuallyDrop<T>,
    next: *mut Node<T>,
    /// The node its handle allocated before this one.
    older: *mut Node<T>,
}

/// The Treiber stack without reclamation; `default()` builds an empty
/// one, for any number of threads.
pub struct LeakTreiberStack<T: Send + 'static> {
    top: CachePadded<AtomicPtr<Node<T>>>,
    /// The newest node of each dropped handle's allocation chain.
    chains: Mutex<Vec<*mut Node<T>>>,
}

// Safety: the nodes are `T`s plus links the stack manages; the chain
// list is only touched under its mutex.
unsafe impl<T: Send> Send for LeakTreiberStack<T> {}
unsafe impl<T: Send> Sync for LeakTreiberStack<T> {}

impl<T: Send + 'static> Default for LeakTreiberStack<T> {
    fn default() -> Self {
        Self {
            top: CachePadded::new(AtomicPtr::new(ptr::null_mut())),
            chains: Mutex::new(Vec::new()),
        }
    }
}

impl<T: Send + 'static> LeakTreiberStack<T> {
    /// Registers the calling thread.
    pub fn register(&self) -> LeakTreiberHandle<'_, T> {
        LeakTreiberHandle {
            stack: self,
            newest: ptr::null_mut(),
        }
    }
}

impl<T: Send + 'static> Drop for LeakTreiberStack<T> {
    fn drop(&mut self) {
        // The values still linked from `top` were never popped.
        let mut cur = *self.top.get_mut();
        while !cur.is_null() {
            // Safety: every handle has dropped (they borrow the stack);
            // popped values were moved out and are unlinked.
            unsafe {
                ManuallyDrop::drop(&mut (*cur).value);
                cur = (*cur).next;
            }
        }
        let chains = self.chains.get_mut().unwrap_or_else(|e| e.into_inner());
        for &newest in chains.iter() {
            let mut cur = newest;
            while !cur.is_null() {
                // Safety: each node is on exactly one chain, boxed by
                // `push`, and its value is gone.
                let node = unsafe { Box::from_raw(cur) };
                cur = node.older;
            }
        }
    }
}

impl<T: Send + 'static> ConcurrentStack<T> for LeakTreiberStack<T> {
    type Handle<'a>
        = LeakTreiberHandle<'a, T>
    where
        Self: 'a;

    fn register(&self) -> LeakTreiberHandle<'_, T> {
        LeakTreiberStack::register(self)
    }

    fn name(&self) -> &'static str {
        "TRB-LEAK"
    }
}

/// Per-thread handle to a [`LeakTreiberStack`].
pub struct LeakTreiberHandle<'a, T: Send + 'static> {
    stack: &'a LeakTreiberStack<T>,
    /// The newest node this handle allocated, null before its first.
    newest: *mut Node<T>,
}

impl<T: Send + 'static> StackHandle<T> for LeakTreiberHandle<'_, T> {
    fn push(&mut self, value: T) {
        let node = Box::into_raw(Box::new(Node {
            value: ManuallyDrop::new(value),
            next: ptr::null_mut(),
            older: self.newest,
        }));
        self.newest = node;
        let mut backoff = Backoff::new();
        loop {
            let cur = self.stack.top.load(Ordering::Acquire);
            // Safety: `node` is ours until the CAS publishes it.
            unsafe { (*node).next = cur };
            if self
                .stack
                .top
                .compare_exchange(cur, node, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
            backoff.spin();
        }
    }

    fn pop(&mut self) -> Option<T> {
        let mut backoff = Backoff::new();
        loop {
            let cur = self.stack.top.load(Ordering::Acquire);
            if cur.is_null() {
                return None;
            }
            // Safety: nodes are not freed while the stack lives.
            let next = unsafe { (*cur).next };
            if self
                .stack
                .top
                .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // Safety: the CAS unlinked `cur`, so this pop is its
                // value's only reader.
                return Some(ManuallyDrop::into_inner(unsafe {
                    ptr::read(&(*cur).value)
                }));
            }
            backoff.spin();
        }
    }

    fn peek(&mut self) -> Option<T>
    where
        T: Clone,
    {
        let cur = self.stack.top.load(Ordering::Acquire);
        // Safety: nodes are not freed while the stack lives.
        (!cur.is_null()).then(|| ManuallyDrop::into_inner(unsafe { (*cur).value.clone() }))
    }
}

impl<T: Send + 'static> Drop for LeakTreiberHandle<'_, T> {
    fn drop(&mut self) {
        if !self.newest.is_null() {
            let mut chains = self.stack.chains.lock().unwrap_or_else(|e| e.into_inner());
            chains.push(self.newest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn sequential_lifo() {
        let s: LeakTreiberStack<u32> = LeakTreiberStack::default();
        let mut h = s.register();
        for i in 0..50 {
            h.push(i);
        }
        for i in (0..50).rev() {
            assert_eq!(h.pop(), Some(i));
        }
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn peek_matches_top() {
        let s: LeakTreiberStack<u32> = LeakTreiberStack::default();
        let mut h = s.register();
        assert_eq!(h.peek(), None);
        h.push(3);
        assert_eq!(h.peek(), Some(3));
        h.push(4);
        assert_eq!(h.peek(), Some(4));
        assert_eq!(h.pop(), Some(4));
        assert_eq!(h.peek(), Some(3));
    }

    #[test]
    fn concurrent_conservation() {
        const THREADS: usize = 8;
        const PER: usize = 2_000;
        let s: LeakTreiberStack<usize> = LeakTreiberStack::default();
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
            assert!(seen.insert(v));
        }
        let mut h = s.register();
        while let Some(v) = h.pop() {
            assert!(seen.insert(v));
        }
        assert_eq!(seen.len(), THREADS * PER);
    }

    /// Counts its drops.
    struct P(Arc<AtomicUsize>);
    impl Drop for P {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn drops_remaining_values_on_teardown() {
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let s: LeakTreiberStack<P> = LeakTreiberStack::default();
            let mut h = s.register();
            for _ in 0..10 {
                h.push(P(Arc::clone(&drops)));
            }
            drop(h.pop());
            drop(h.pop());
            assert_eq!(drops.load(Ordering::Relaxed), 2);
        }
        // Two popped, eight still linked: each dropped exactly once.
        assert_eq!(drops.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn drops_each_value_once_when_handles_pop_each_others_nodes() {
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let s: LeakTreiberStack<P> = LeakTreiberStack::default();
            let mut a = s.register();
            let mut b = s.register();
            for _ in 0..5 {
                a.push(P(Arc::clone(&drops)));
                b.push(P(Arc::clone(&drops)));
            }
            // `b` pops nodes of both chains, `a` drops while the stack
            // still links some of its nodes, and a handle that never
            // pushed hands over no chain.
            for _ in 0..6 {
                drop(b.pop());
            }
            drop(a);
            drop(s.register());
            assert_eq!(drops.load(Ordering::Relaxed), 6);
        }
        assert_eq!(drops.load(Ordering::Relaxed), 10);
    }
}
