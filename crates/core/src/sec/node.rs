//! Stack nodes (Figure 1 of the paper, `struct Node`).

use core::mem::ManuallyDrop;
use core::ptr;
use core::sync::atomic::AtomicPtr;

/// A node of the shared stack / a value in flight through elimination.
///
/// `value` is `ManuallyDrop` because ownership of the payload leaves the
/// node *before* the node's memory is reclaimed: exactly one pop reads
/// the value out (by `ptr::read`) and then retires the node; freeing the
/// node must not drop the payload a second time. Nodes that still own
/// their payload when the stack is torn down are handled by
/// [`Node::drop_in_place_with_value`].
pub struct Node<T> {
    pub(crate) value: ManuallyDrop<T>,
    pub(crate) next: AtomicPtr<Node<T>>,
}

impl<T> Node<T> {
    /// Heap-allocates a detached node carrying `value` (unit-test
    /// path; the data structures allocate through [`Node::alloc_with`]
    /// so recycled blocks are reused).
    #[cfg(test)]
    pub(crate) fn alloc(value: T) -> *mut Node<T> {
        Box::into_raw(Box::new(Node {
            value: ManuallyDrop::new(value),
            next: AtomicPtr::new(ptr::null_mut()),
        }))
    }

    /// Allocates a detached node carrying `value`, reusing a recycled
    /// node block from `reclaim`'s free lists when one is available
    /// (DESIGN.md §10) — the hot-path replacement for [`Node::alloc`].
    pub(crate) fn alloc_with(reclaim: &sec_reclaim::Handle<'_>, value: T) -> *mut Node<T>
    where
        T: Send,
    {
        reclaim.alloc_boxed(Node {
            value: ManuallyDrop::new(value),
            next: AtomicPtr::new(ptr::null_mut()),
        })
    }

    /// Moves the payload out of `node` without freeing the node.
    ///
    /// # Safety
    ///
    /// The caller must be the unique consumer of this node's value (the
    /// algorithm guarantees exactly one pop reads each node), and the
    /// node must stay allocated for the duration of the call (readers
    /// are pinned).
    pub(crate) unsafe fn take_value(node: *mut Node<T>) -> T {
        // Safety: unique consumption per the caller contract; the node
        // memory itself is untouched (freed later via retire).
        ManuallyDrop::into_inner(unsafe { ptr::read(&(*node).value) })
    }

    /// Frees a node that still owns its payload (teardown path only).
    ///
    /// # Safety
    ///
    /// `node` must be a unique, live `Box`-allocated node whose value
    /// has *not* been taken, with no concurrent accessors.
    pub(crate) unsafe fn drop_in_place_with_value(node: *mut Node<T>) {
        // Safety: per contract, we own the node and its payload.
        let mut boxed = unsafe { Box::from_raw(node) };
        unsafe { ManuallyDrop::drop(&mut boxed.value) };
        // `boxed` drops here, freeing the allocation; the ManuallyDrop
        // field does nothing further.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    struct DropCounter(Arc<AtomicUsize>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn take_value_moves_payload_once() {
        let drops = Arc::new(AtomicUsize::new(0));
        let n = Node::alloc(DropCounter(Arc::clone(&drops)));
        let v = unsafe { Node::take_value(n) };
        drop(v);
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        // Free the node husk: must not drop the payload again.
        drop(unsafe { Box::from_raw(n) });
        assert_eq!(drops.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn drop_in_place_with_value_drops_payload() {
        let drops = Arc::new(AtomicUsize::new(0));
        let n = Node::alloc(DropCounter(Arc::clone(&drops)));
        unsafe { Node::drop_in_place_with_value(n) };
        assert_eq!(drops.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn fresh_node_has_null_next() {
        let n = Node::alloc(5u8);
        assert!(unsafe { (*n).next.load(Ordering::Relaxed) }.is_null());
        unsafe { Node::drop_in_place_with_value(n) };
    }
}
