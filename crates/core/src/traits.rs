//! The stack, queue and map interfaces shared by SEC and every
//! baseline.
//!
//! All implementations in this repository (SEC, Treiber, EB, FC,
//! CC-Synch, TSI, the MS queue, the locked map) need per-thread state —
//! a reclamation handle at minimum, and for FC/CC/TSI also a
//! publication record / combining node / local pool. Each interface
//! therefore splits into an object ([`ConcurrentStack`] /
//! [`ConcurrentQueue`] / [`ConcurrentMap`], `Sync`, shared by
//! reference) and a per-thread handle ([`StackHandle`] /
//! [`QueueHandle`] / [`MapHandle`], `!Sync`, obtained via the object's
//! `register`). The benchmark harness and the test suite are generic
//! over these traits. [`SecReadout`] is what SEC structures report on
//! top.

/// A concurrent stack object shared among threads.
///
/// Implementations are constructed for a fixed maximum number of
/// threads; [`register`](Self::register) panics when exceeded (the
/// harness sizes stacks to its thread count, so this is a programming
/// error, not a runtime condition).
pub trait ConcurrentStack<T: Send + 'static>: Send + Sync {
    /// The per-thread access handle.
    type Handle<'a>: StackHandle<T>
    where
        Self: 'a;

    /// Registers the calling thread and returns its handle.
    ///
    /// # Panics
    ///
    /// If more threads register than the stack was constructed for.
    fn register(&self) -> Self::Handle<'_>;

    /// Short algorithm name as used in the paper's figures
    /// (`"SEC"`, `"TRB"`, `"EB"`, `"FC"`, `"CC"`, `"TSI"`).
    fn name(&self) -> &'static str;
}

/// Per-thread view of a [`ConcurrentStack`].
///
/// Handles are `!Sync` by convention (they own thread-private state) and
/// methods take `&mut self`; move a handle to another thread rather than
/// sharing it.
pub trait StackHandle<T> {
    /// Pushes `value` onto the stack.
    fn push(&mut self, value: T);

    /// Pops the most recently pushed element, or `None` when the stack
    /// is (linearizably) empty.
    fn pop(&mut self) -> Option<T>;

    /// Reads the top element without removing it, or `None` when empty.
    fn peek(&mut self) -> Option<T>
    where
        T: Clone;
}

/// A concurrent FIFO queue object shared among threads.
///
/// The queue-family counterpart of [`ConcurrentStack`]: implementations
/// are constructed for a fixed maximum number of threads;
/// [`register`](Self::register) panics when exceeded (the harness sizes
/// queues to its thread count, so that is a programming error, not a
/// runtime condition).
pub trait ConcurrentQueue<T: Send + 'static>: Send + Sync {
    /// The per-thread access handle.
    type Handle<'a>: QueueHandle<T>
    where
        Self: 'a;

    /// Registers the calling thread and returns its handle.
    ///
    /// # Panics
    ///
    /// If more threads register than the queue was constructed for.
    fn register(&self) -> Self::Handle<'_>;

    /// Short algorithm name as used in the figures
    /// (`"SEC-Q"`, `"MS"`, `"LCK-Q"`).
    fn name(&self) -> &'static str;
}

/// Per-thread view of a [`ConcurrentQueue`].
///
/// Handles are `!Sync` by convention (they own thread-private state) and
/// methods take `&mut self`; move a handle to another thread rather than
/// sharing it.
pub trait QueueHandle<T> {
    /// Appends `value` at the queue's tail.
    fn enqueue(&mut self, value: T);

    /// Removes and returns the queue's oldest value, or `None` when the
    /// queue is (linearizably) empty.
    fn dequeue(&mut self) -> Option<T>;
}

/// A concurrent keyed map object shared among threads.
///
/// The map-family counterpart of [`ConcurrentStack`]: implementations
/// are constructed for a fixed maximum number of threads;
/// [`register`](Self::register) panics when exceeded (the harness sizes
/// maps to its thread count, so that is a programming error, not a
/// runtime condition).
///
/// `get` returns a *clone* of the mapped value (the snapshot at the
/// operation's linearization point), so `V: Clone` is a trait-level
/// bound: a batched map hands results back through announcement slots
/// and cannot lend references into the shared structure.
pub trait ConcurrentMap<K: Send + 'static, V: Clone + Send + 'static>: Send + Sync {
    /// The per-thread access handle.
    type Handle<'a>: MapHandle<K, V>
    where
        Self: 'a;

    /// Registers the calling thread and returns its handle.
    ///
    /// # Panics
    ///
    /// If more threads register than the map was constructed for.
    fn register(&self) -> Self::Handle<'_>;

    /// Short algorithm name as used in the figures
    /// (`"SEC-M"`, `"LCK-M"`).
    fn name(&self) -> &'static str;
}

/// Per-thread view of a [`ConcurrentMap`].
///
/// Handles are `!Sync` by convention (they own thread-private state) and
/// methods take `&mut self`; move a handle to another thread rather than
/// sharing it.
pub trait MapHandle<K, V: Clone> {
    /// Returns the value mapped to `key` at the linearization point, or
    /// `None` when the key is absent.
    fn get(&mut self, key: &K) -> Option<V>;

    /// Maps `key` to `value`, returning the previously mapped value (or
    /// `None` when the key was absent).
    fn insert(&mut self, key: K, value: V) -> Option<V>;

    /// Removes `key`'s mapping, returning the removed value (or `None`
    /// when the key was absent).
    fn remove(&mut self, key: &K) -> Option<V>;
}

/// What a SEC structure reports beyond its structure interface: the
/// type-erased readout a harness holds next to the stack, queue,
/// counter or map it measures. Every [`Sec`](crate::Sec) implements it.
pub trait SecReadout {
    /// The batching/elimination/combining report.
    fn report(&self) -> crate::BatchReport;
    /// Reclamation and recycling counters.
    fn reclaim(&self) -> crate::CollectorStats;
    /// The active aggregator count (`None` for the queue, whose
    /// aggregators are its fixed ends).
    fn active(&self) -> Option<usize>;
}
