//! A mutex-protected sequential stack (**LCK**): the sanity floor.
//!
//! Every concurrent-stack paper's implicit zeroth baseline is "just put
//! a lock around `Vec::push`/`Vec::pop`". The SEC paper does not plot
//! it (its curves would sit below CC/FC, which *are* smarter global
//! locks), but having it in the extended lineup lets the test suite and
//! the harness anchor two claims from the paper's narrative:
//!
//! * combining (FC/CC) beats a plain lock because the combiner executes
//!   many operations per lock handoff instead of one, and
//! * even the best single-lock discipline flattens out, which is the
//!   bottleneck SEC's sharding removes.
//!
//! Uses `std::sync::Mutex` (the obvious thing a downstream user would
//! write).

use core::fmt;
use sec_core::{ConcurrentStack, StackHandle};
use std::sync::Mutex;

/// A `Mutex<Vec<T>>` stack.
///
/// # Examples
///
/// ```
/// use sec_baselines::LockedStack;
/// use sec_core::{ConcurrentStack, StackHandle};
///
/// let s: LockedStack<u32> = LockedStack::new(2);
/// let mut h = s.register();
/// h.push(7);
/// assert_eq!(h.peek(), Some(7));
/// assert_eq!(h.pop(), Some(7));
/// ```
pub struct LockedStack<T> {
    items: Mutex<Vec<T>>,
}

impl<T> LockedStack<T> {
    /// Creates a stack. `max_threads` is accepted for interface symmetry
    /// with the other stacks; a lock needs no per-thread state.
    pub fn new(max_threads: usize) -> Self {
        let _ = max_threads;
        Self {
            items: Mutex::new(Vec::new()),
        }
    }

    /// Registers the calling thread.
    pub fn register(&self) -> LockedHandle<'_, T> {
        LockedHandle { stack: self }
    }

    /// Current number of elements (takes the lock).
    pub fn len(&self) -> usize {
        self.items.lock().unwrap().len()
    }

    /// `true` when the stack holds no elements (takes the lock).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> fmt::Debug for LockedStack<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockedStack")
            .field("len", &self.len())
            .finish()
    }
}

impl<T> Default for LockedStack<T> {
    fn default() -> Self {
        Self::new(0)
    }
}

impl<T: Send + 'static> ConcurrentStack<T> for LockedStack<T> {
    type Handle<'a>
        = LockedHandle<'a, T>
    where
        Self: 'a;

    fn register(&self) -> LockedHandle<'_, T> {
        LockedStack::register(self)
    }

    fn name(&self) -> &'static str {
        "LCK"
    }
}

/// Per-thread handle to a [`LockedStack`] (stateless; exists to satisfy
/// the shared interface).
pub struct LockedHandle<'a, T> {
    stack: &'a LockedStack<T>,
}

impl<T> StackHandle<T> for LockedHandle<'_, T> {
    fn push(&mut self, value: T) {
        self.stack.items.lock().unwrap().push(value);
    }

    fn pop(&mut self) -> Option<T> {
        self.stack.items.lock().unwrap().pop()
    }

    fn peek(&mut self) -> Option<T>
    where
        T: Clone,
    {
        self.stack.items.lock().unwrap().last().cloned()
    }
}

/// A `Mutex<VecDeque<T>>` FIFO queue (**LCK-Q**): the queue family's
/// sanity floor, playing the role [`LockedStack`] plays for the stacks
/// — the obvious thing a downstream user would write, against which
/// both MS's lock-freedom and SEC-Q's batching must justify themselves.
///
/// # Examples
///
/// ```
/// use sec_baselines::LockedQueue;
/// use sec_core::{ConcurrentQueue, QueueHandle};
///
/// let q: LockedQueue<u32> = LockedQueue::new(2);
/// let mut h = q.register();
/// h.enqueue(7);
/// assert_eq!(h.dequeue(), Some(7));
/// ```
pub struct LockedQueue<T> {
    items: Mutex<std::collections::VecDeque<T>>,
}

impl<T> LockedQueue<T> {
    /// Creates a queue. `max_threads` is accepted for interface symmetry
    /// with the other queues; a lock needs no per-thread state.
    pub fn new(max_threads: usize) -> Self {
        let _ = max_threads;
        Self {
            items: Mutex::new(std::collections::VecDeque::new()),
        }
    }

    /// Registers the calling thread.
    pub fn register(&self) -> LockedQueueHandle<'_, T> {
        LockedQueueHandle { queue: self }
    }

    /// Current number of elements (takes the lock).
    pub fn len(&self) -> usize {
        self.items.lock().unwrap().len()
    }

    /// `true` when the queue holds no elements (takes the lock).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> fmt::Debug for LockedQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockedQueue")
            .field("len", &self.len())
            .finish()
    }
}

impl<T> Default for LockedQueue<T> {
    fn default() -> Self {
        Self::new(0)
    }
}

impl<T: Send + 'static> sec_core::ConcurrentQueue<T> for LockedQueue<T> {
    type Handle<'a>
        = LockedQueueHandle<'a, T>
    where
        Self: 'a;

    fn register(&self) -> LockedQueueHandle<'_, T> {
        LockedQueue::register(self)
    }

    fn name(&self) -> &'static str {
        "LCK-Q"
    }
}

/// Per-thread handle to a [`LockedQueue`] (stateless; exists to satisfy
/// the shared interface).
pub struct LockedQueueHandle<'a, T> {
    queue: &'a LockedQueue<T>,
}

impl<T> sec_core::QueueHandle<T> for LockedQueueHandle<'_, T> {
    fn enqueue(&mut self, value: T) {
        self.queue.items.lock().unwrap().push_back(value);
    }

    fn dequeue(&mut self) -> Option<T> {
        self.queue.items.lock().unwrap().pop_front()
    }
}

/// A `Mutex<HashMap<K, V>>` keyed map (**LCK-M**): the map family's
/// sanity floor — the obvious thing a downstream user would write,
/// against which SecMap's per-shard batching must justify itself. One
/// global lock means every operation serializes, whatever the key
/// distribution; SecMap's claim is precisely that hot-key traffic
/// batches instead.
///
/// # Examples
///
/// ```
/// use sec_baselines::LockedHashMap;
/// use sec_core::{ConcurrentMap, MapHandle};
///
/// let m: LockedHashMap<u32, u32> = LockedHashMap::new(2);
/// let mut h = m.register();
/// assert_eq!(h.insert(1, 10), None);
/// assert_eq!(h.get(&1), Some(10));
/// assert_eq!(h.remove(&1), Some(10));
/// ```
pub struct LockedHashMap<K, V> {
    items: Mutex<std::collections::HashMap<K, V>>,
}

impl<K: std::hash::Hash + Eq, V> LockedHashMap<K, V> {
    /// Creates a map. `max_threads` is accepted for interface symmetry
    /// with [`SecMap`](sec_core::SecMap); a lock needs no per-thread
    /// state.
    pub fn new(max_threads: usize) -> Self {
        let _ = max_threads;
        Self {
            items: Mutex::new(std::collections::HashMap::new()),
        }
    }

    /// Registers the calling thread.
    pub fn register(&self) -> LockedHashMapHandle<'_, K, V> {
        LockedHashMapHandle { map: self }
    }

    /// Current number of key-value pairs (takes the lock).
    pub fn len(&self) -> usize {
        self.items.lock().unwrap().len()
    }

    /// `true` when the map holds no pairs (takes the lock).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: std::hash::Hash + Eq, V> fmt::Debug for LockedHashMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockedHashMap")
            .field("len", &self.len())
            .finish()
    }
}

impl<K: std::hash::Hash + Eq, V> Default for LockedHashMap<K, V> {
    fn default() -> Self {
        Self::new(0)
    }
}

impl<K, V> sec_core::ConcurrentMap<K, V> for LockedHashMap<K, V>
where
    K: std::hash::Hash + Eq + Send + 'static,
    V: Clone + Send + 'static,
{
    type Handle<'a>
        = LockedHashMapHandle<'a, K, V>
    where
        Self: 'a;

    fn register(&self) -> LockedHashMapHandle<'_, K, V> {
        LockedHashMap::register(self)
    }

    fn name(&self) -> &'static str {
        "LCK-M"
    }
}

/// Per-thread handle to a [`LockedHashMap`] (stateless; exists to
/// satisfy the shared interface).
pub struct LockedHashMapHandle<'a, K, V> {
    map: &'a LockedHashMap<K, V>,
}

impl<K, V> sec_core::MapHandle<K, V> for LockedHashMapHandle<'_, K, V>
where
    K: std::hash::Hash + Eq,
    V: Clone,
{
    fn get(&mut self, key: &K) -> Option<V> {
        self.map.items.lock().unwrap().get(key).cloned()
    }

    fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.map.items.lock().unwrap().insert(key, value)
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        self.map.items.lock().unwrap().remove(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sec_core::{ConcurrentMap as _, ConcurrentQueue as _, MapHandle as _, QueueHandle as _};
    use std::collections::HashSet;
    use std::thread;

    #[test]
    fn locked_queue_is_fifo() {
        let q: LockedQueue<u32> = LockedQueue::new(1);
        let mut h = q.register();
        for i in 0..50 {
            h.enqueue(i);
        }
        assert_eq!(q.len(), 50);
        for i in 0..50 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
        assert!(q.is_empty());
        assert_eq!(q.name(), "LCK-Q");
    }

    #[test]
    fn locked_queue_concurrent_conservation() {
        const THREADS: usize = 4;
        const PER: usize = 2_000;
        let q: LockedQueue<usize> = LockedQueue::new(THREADS);
        let got: Vec<Vec<usize>> = thread::scope(|scope| {
            (0..THREADS)
                .map(|t| {
                    let q = &q;
                    scope.spawn(move || {
                        let mut h = q.register();
                        let mut got = Vec::new();
                        for i in 0..PER {
                            h.enqueue(t * PER + i);
                            if i % 2 == 1 {
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
        let mut seen = HashSet::new();
        for v in got.into_iter().flatten() {
            assert!(seen.insert(v));
        }
        let mut h = q.register();
        while let Some(v) = h.dequeue() {
            assert!(seen.insert(v));
        }
        assert_eq!(seen.len(), THREADS * PER);
    }

    #[test]
    fn locked_map_sequential_contract() {
        let m: LockedHashMap<u32, String> = LockedHashMap::new(1);
        let mut h = m.register();
        assert_eq!(h.get(&1), None);
        assert_eq!(h.insert(1, "a".into()), None);
        assert_eq!(h.insert(1, "b".into()), Some("a".into()));
        assert_eq!(h.get(&1), Some("b".into()));
        assert_eq!(h.remove(&1), Some("b".into()));
        assert_eq!(h.remove(&1), None);
        assert!(m.is_empty());
        assert_eq!(m.name(), "LCK-M");
    }

    #[test]
    fn locked_map_concurrent_accounting() {
        const THREADS: usize = 4;
        const PER: usize = 1_000;
        let m: LockedHashMap<usize, usize> = LockedHashMap::new(THREADS);
        thread::scope(|scope| {
            for t in 0..THREADS {
                let m = &m;
                scope.spawn(move || {
                    let mut h = m.register();
                    for i in 0..PER {
                        let k = t * PER + i;
                        assert_eq!(h.insert(k, k + 1), None);
                    }
                    for i in 0..PER {
                        let k = t * PER + i;
                        assert_eq!(h.remove(&k), Some(k + 1));
                    }
                });
            }
        });
        assert!(m.is_empty());
    }

    #[test]
    fn sequential_lifo() {
        let s: LockedStack<u32> = LockedStack::new(1);
        let mut h = s.register();
        for i in 0..50 {
            h.push(i);
        }
        assert_eq!(s.len(), 50);
        for i in (0..50).rev() {
            assert_eq!(h.pop(), Some(i));
        }
        assert_eq!(h.pop(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn peek_is_non_destructive() {
        let s: LockedStack<u32> = LockedStack::new(1);
        let mut h = s.register();
        assert_eq!(h.peek(), None);
        h.push(9);
        assert_eq!(h.peek(), Some(9));
        assert_eq!(h.peek(), Some(9));
        assert_eq!(h.pop(), Some(9));
    }

    #[test]
    fn concurrent_conservation() {
        const THREADS: usize = 8;
        const PER: usize = 2_000;
        let s: LockedStack<usize> = LockedStack::new(THREADS);
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
}
