//! Generic linearizability checking against arbitrary sequential
//! specifications.
//!
//! [`check_history`](crate::check_history) is specialized (and
//! undo-optimized) for the stack spec; this module provides the same
//! Wing–Gong search for *any* sequential object — used by the test
//! suite to check the queue, counter and map families, and available
//! for further data structures built on the paper's mechanisms.

use crate::checker::Violation;
use core::hash::Hash;
use std::collections::HashSet;

/// A sequential specification: a deterministic state machine whose
/// transitions may refuse an operation (when the operation's *observed
/// result* is impossible in the current state).
pub trait SeqSpec {
    /// A complete operation, including its observed result.
    type Op;
    /// Sequential object state.
    type State: Clone + Eq + Hash + Default;

    /// Applies `op` to a copy of `state`; `None` when the observed
    /// result is inconsistent with `state`.
    fn apply(state: &Self::State, op: &Self::Op) -> Option<Self::State>;
}

/// A timed operation for the generic checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedOp<O> {
    /// The operation with its observed result.
    pub op: O,
    /// Logical invocation time (see [`Recorder`](crate::Recorder)).
    pub invoke: u64,
    /// Logical response time.
    pub response: u64,
}

/// Checks that the timed operations have a valid linearization against
/// `S`, starting from `S::State::default()`. Returns a witness order.
///
/// Exponential worst case; keep histories small (≤ 128 operations).
///
/// # Examples
///
/// ```
/// use sec_linearize::spec::{check_generic, SeqSpec, TimedOp};
///
/// /// A register holding the last written value.
/// struct RegSpec;
/// #[derive(Debug, Clone, PartialEq, Eq)]
/// enum RegOp { Write(u32), Read(Option<u32>) }
/// impl SeqSpec for RegSpec {
///     type Op = RegOp;
///     type State = Option<u32>;
///     fn apply(state: &Self::State, op: &Self::Op) -> Option<Self::State> {
///         match op {
///             RegOp::Write(v) => Some(Some(*v)),
///             RegOp::Read(observed) => (observed == state).then(|| state.clone()),
///         }
///     }
/// }
///
/// let h = vec![
///     TimedOp { op: RegOp::Write(3), invoke: 0, response: 1 },
///     TimedOp { op: RegOp::Read(Some(3)), invoke: 2, response: 3 },
/// ];
/// assert!(check_generic::<RegSpec>(&h).is_ok());
/// ```
pub fn check_generic<S: SeqSpec>(events: &[TimedOp<S::Op>]) -> Result<Vec<usize>, Violation> {
    let n = events.len();
    if n > 128 {
        return Err(Violation::TooLarge(n));
    }
    if n == 0 {
        return Ok(Vec::new());
    }
    let all_mask: u128 = if n == 128 {
        u128::MAX
    } else {
        (1u128 << n) - 1
    };
    let mut order = Vec::new();
    let mut visited: HashSet<(u128, S::State)> = HashSet::new();

    fn dfs<S: SeqSpec>(
        events: &[TimedOp<S::Op>],
        done: u128,
        all_mask: u128,
        state: &S::State,
        order: &mut Vec<usize>,
        visited: &mut HashSet<(u128, S::State)>,
    ) -> bool {
        if done == all_mask {
            return true;
        }
        if !visited.insert((done, state.clone())) {
            return false;
        }
        let min_response = events
            .iter()
            .enumerate()
            .filter(|(i, _)| done & (1 << i) == 0)
            .map(|(_, e)| e.response)
            .min()
            .expect("remaining events exist");
        for (i, e) in events.iter().enumerate() {
            if done & (1 << i) != 0 || e.invoke > min_response {
                continue;
            }
            if let Some(next) = S::apply(state, &e.op) {
                order.push(i);
                if dfs::<S>(events, done | (1 << i), all_mask, &next, order, visited) {
                    return true;
                }
                order.pop();
            }
        }
        false
    }

    if dfs::<S>(
        events,
        0,
        all_mask,
        &S::State::default(),
        &mut order,
        &mut visited,
    ) {
        Ok(order)
    } else {
        Err(Violation::NotLinearizable)
    }
}

/// The FIFO queue sequential specification.
///
/// Not used by a data structure in this repository directly, but the
/// paper's introduction builds on the queue literature (LCRQ,
/// aggregating funnels), and having the spec lets downstream users of
/// the generic checker verify queue adaptations of the SEC mechanisms.
pub mod queue {
    use super::SeqSpec;
    use std::collections::VecDeque;

    /// A queue operation with its observed result.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    pub enum QueueOp<T> {
        /// `enqueue(value)`.
        Enqueue(T),
        /// `dequeue()` and its result.
        Dequeue(Option<T>),
    }

    /// Marker type implementing [`SeqSpec`] for FIFO queues over `T`.
    pub struct QueueSpec<T>(core::marker::PhantomData<T>);

    impl<T: Clone + Eq + core::hash::Hash> SeqSpec for QueueSpec<T> {
        type Op = QueueOp<T>;
        type State = VecDeque<T>;

        fn apply(state: &Self::State, op: &Self::Op) -> Option<Self::State> {
            let mut next = state.clone();
            match op {
                QueueOp::Enqueue(v) => {
                    next.push_back(v.clone());
                    Some(next)
                }
                QueueOp::Dequeue(expect) => {
                    let got = next.pop_front();
                    (&got == expect).then_some(next)
                }
            }
        }
    }
}

/// The fetch-and-add counter sequential specification (for
/// `SecCounter`-style tests): `fetch_add(n)` must observe exactly the
/// sum of the operands linearized before it.
pub mod counter {
    use super::SeqSpec;

    /// A counter operation with its observed result.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    pub enum CounterOp {
        /// `fetch_add(operand)` and the pre-add value it observed.
        FetchAdd {
            /// The amount added.
            operand: u64,
            /// The counter value returned (value *before* the add).
            observed: u64,
        },
        /// `load()` and its result.
        Load(u64),
    }

    /// Marker type implementing [`SeqSpec`] for a `u64` counter.
    pub struct CounterSpec;

    impl SeqSpec for CounterSpec {
        type Op = CounterOp;
        type State = u64;

        fn apply(state: &Self::State, op: &Self::Op) -> Option<Self::State> {
            match op {
                CounterOp::FetchAdd { operand, observed } => {
                    (observed == state).then(|| state.wrapping_add(*operand))
                }
                CounterOp::Load(observed) => (observed == state).then_some(*state),
            }
        }
    }
}

/// The keyed map sequential specification (for `SecMap`-style tests):
/// `get` must observe exactly the mapping produced by the
/// inserts/removes linearized before it, and `insert`/`remove` must
/// observe the displaced/removed value the same way.
pub mod map {
    use super::SeqSpec;
    use std::collections::BTreeMap;

    /// A map operation with its observed result.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    pub enum MapOp<K, V> {
        /// `get(key)` and the value it observed (`None` = absent).
        Get {
            /// The key looked up.
            key: K,
            /// The value snapshot at the linearization point.
            observed: Option<V>,
        },
        /// `insert(key, value)` and the previous mapping it displaced.
        Insert {
            /// The key written.
            key: K,
            /// The value written.
            value: V,
            /// The previous mapping (`None` = key was absent).
            prev: Option<V>,
        },
        /// `remove(key)` and the mapping it removed.
        Remove {
            /// The key removed.
            key: K,
            /// The removed value (`None` = key was absent).
            removed: Option<V>,
        },
    }

    /// Marker type implementing [`SeqSpec`] for maps from `K` to `V`.
    ///
    /// State is the key-value association; `BTreeMap` rather than
    /// `HashMap` because the checker hashes states.
    pub struct MapSpec<K, V>(core::marker::PhantomData<(K, V)>);

    impl<K, V> SeqSpec for MapSpec<K, V>
    where
        K: Clone + Ord + core::hash::Hash,
        V: Clone + Eq + core::hash::Hash,
    {
        type Op = MapOp<K, V>;
        type State = BTreeMap<K, V>;

        fn apply(state: &Self::State, op: &Self::Op) -> Option<Self::State> {
            let mut next = state.clone();
            match op {
                MapOp::Get { key, observed } => {
                    (next.get(key) == observed.as_ref()).then_some(next)
                }
                MapOp::Insert { key, value, prev } => {
                    let got = next.insert(key.clone(), value.clone());
                    (&got == prev).then_some(next)
                }
                MapOp::Remove { key, removed } => {
                    let got = next.remove(key);
                    (&got == removed).then_some(next)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::counter::{CounterOp, CounterSpec};
    use super::map::{MapOp, MapSpec};
    use super::queue::{QueueOp, QueueSpec};
    use super::*;

    fn t<O>(op: O, invoke: u64, response: u64) -> TimedOp<O> {
        TimedOp {
            op,
            invoke,
            response,
        }
    }

    #[test]
    fn empty_history_checks() {
        let h: Vec<TimedOp<QueueOp<u32>>> = vec![];
        assert_eq!(check_generic::<QueueSpec<u32>>(&h), Ok(vec![]));
    }

    #[test]
    fn real_time_order_is_enforced() {
        let h = vec![
            t(QueueOp::Dequeue(Some(5)), 0, 1),
            t(QueueOp::Enqueue(5), 2, 3),
        ];
        assert_eq!(
            check_generic::<QueueSpec<u32>>(&h),
            Err(Violation::NotLinearizable)
        );
    }

    #[test]
    fn elimination_style_front_pair_checks() {
        // Overlapping enqueue / dequeue exchanging a value while the
        // queue is empty — the queue's empty-only rendezvous.
        let h = vec![
            t(QueueOp::Enqueue(42), 2, 10),
            t(QueueOp::Dequeue(Some(42)), 3, 9),
            t(QueueOp::Dequeue(None), 11, 12),
        ];
        assert!(check_generic::<QueueSpec<u32>>(&h).is_ok());
    }

    #[test]
    fn queue_fifo_order_is_enforced() {
        let ok = vec![
            t(QueueOp::Enqueue(1), 0, 1),
            t(QueueOp::Enqueue(2), 2, 3),
            t(QueueOp::Dequeue(Some(1)), 4, 5),
            t(QueueOp::Dequeue(Some(2)), 6, 7),
            t(QueueOp::Dequeue(None), 8, 9),
        ];
        assert!(check_generic::<QueueSpec<u32>>(&ok).is_ok());

        let lifo = vec![
            t(QueueOp::Enqueue(1), 0, 1),
            t(QueueOp::Enqueue(2), 2, 3),
            t(QueueOp::Dequeue(Some(2)), 4, 5),
        ];
        assert_eq!(
            check_generic::<QueueSpec<u32>>(&lifo),
            Err(Violation::NotLinearizable)
        );
    }

    #[test]
    fn concurrent_enqueues_may_order_either_way() {
        let h = vec![
            t(QueueOp::Enqueue(1), 0, 10),
            t(QueueOp::Enqueue(2), 0, 10),
            t(QueueOp::Dequeue(Some(2)), 11, 12),
            t(QueueOp::Dequeue(Some(1)), 13, 14),
        ];
        assert!(check_generic::<QueueSpec<u32>>(&h).is_ok());
    }

    #[test]
    fn counter_observes_prefix_sums() {
        let fa = |operand, observed, i, r| t(CounterOp::FetchAdd { operand, observed }, i, r);
        let ok = vec![
            fa(3, 0, 0, 1),
            fa(5, 3, 2, 3),
            t(CounterOp::Load(8), 4, 5),
            fa(1, 8, 6, 7),
        ];
        assert!(check_generic::<CounterSpec>(&ok).is_ok());

        // A completed fetch_add must be visible to a later one.
        let stale = vec![fa(3, 0, 0, 1), fa(5, 0, 2, 3)];
        assert_eq!(
            check_generic::<CounterSpec>(&stale),
            Err(Violation::NotLinearizable)
        );
    }

    #[test]
    fn concurrent_fetch_adds_may_order_either_way() {
        let fa = |operand, observed, i, r| t(CounterOp::FetchAdd { operand, observed }, i, r);
        // Overlapping adds: either could have gone first, but their
        // observed values must form a chain.
        let h = vec![
            fa(2, 5, 0, 10),
            fa(5, 0, 0, 10),
            t(CounterOp::Load(7), 11, 12),
        ];
        assert!(check_generic::<CounterSpec>(&h).is_ok());

        // Both observing 0 is impossible.
        let clash = vec![fa(2, 0, 0, 10), fa(5, 0, 0, 10)];
        assert_eq!(
            check_generic::<CounterSpec>(&clash),
            Err(Violation::NotLinearizable)
        );
    }

    #[test]
    fn map_observes_the_association() {
        let h = vec![
            t(
                MapOp::Insert {
                    key: 1u32,
                    value: 10u32,
                    prev: None,
                },
                0,
                1,
            ),
            t(
                MapOp::Get {
                    key: 1,
                    observed: Some(10),
                },
                2,
                3,
            ),
            t(
                MapOp::Insert {
                    key: 1,
                    value: 11,
                    prev: Some(10),
                },
                4,
                5,
            ),
            t(
                MapOp::Remove {
                    key: 1,
                    removed: Some(11),
                },
                6,
                7,
            ),
            t(
                MapOp::Get {
                    key: 1,
                    observed: None,
                },
                8,
                9,
            ),
            t(
                MapOp::Remove {
                    key: 1,
                    removed: None,
                },
                10,
                11,
            ),
        ];
        assert!(check_generic::<MapSpec<u32, u32>>(&h).is_ok());
    }

    #[test]
    fn map_rejects_stale_get() {
        // A get completed strictly after a completed insert must see it.
        let h = vec![
            t(
                MapOp::Insert {
                    key: 1u32,
                    value: 10u32,
                    prev: None,
                },
                0,
                1,
            ),
            t(
                MapOp::Get {
                    key: 1,
                    observed: None,
                },
                2,
                3,
            ),
        ];
        assert_eq!(
            check_generic::<MapSpec<u32, u32>>(&h),
            Err(Violation::NotLinearizable)
        );
    }

    #[test]
    fn map_rejects_double_displacement() {
        // Two overlapping first-inserts cannot both observe an absent
        // key: whichever linearizes second displaces the first.
        let clash = vec![
            t(
                MapOp::Insert {
                    key: 1u32,
                    value: 10u32,
                    prev: None,
                },
                0,
                10,
            ),
            t(
                MapOp::Insert {
                    key: 1,
                    value: 20,
                    prev: None,
                },
                0,
                10,
            ),
        ];
        assert_eq!(
            check_generic::<MapSpec<u32, u32>>(&clash),
            Err(Violation::NotLinearizable)
        );

        // …but observing each other's value in either order is fine.
        let chain = vec![
            t(
                MapOp::Insert {
                    key: 1u32,
                    value: 10u32,
                    prev: None,
                },
                0,
                10,
            ),
            t(
                MapOp::Insert {
                    key: 1,
                    value: 20,
                    prev: Some(10),
                },
                0,
                10,
            ),
        ];
        assert!(check_generic::<MapSpec<u32, u32>>(&chain).is_ok());
    }

    #[test]
    fn concurrent_map_gets_may_order_around_an_insert() {
        let h = vec![
            t(
                MapOp::Insert {
                    key: 7u32,
                    value: 70u32,
                    prev: None,
                },
                0,
                10,
            ),
            t(
                MapOp::Get {
                    key: 7,
                    observed: None,
                },
                0,
                10,
            ),
            t(
                MapOp::Get {
                    key: 7,
                    observed: Some(70),
                },
                0,
                10,
            ),
        ];
        assert!(check_generic::<MapSpec<u32, u32>>(&h).is_ok());
    }

    #[test]
    fn too_large_history_is_refused() {
        let h: Vec<TimedOp<QueueOp<u32>>> = (0..129)
            .map(|i| t(QueueOp::Enqueue(i), (2 * i) as u64, (2 * i + 1) as u64))
            .collect();
        assert!(matches!(
            check_generic::<QueueSpec<u32>>(&h),
            Err(Violation::TooLarge(129))
        ));
    }
}
