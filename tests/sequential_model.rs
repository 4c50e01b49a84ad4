//! Property-based tests: on a single thread, every implementation must
//! behave exactly like `Vec<T>` for arbitrary operation sequences.

mod common;

use proptest::prelude::*;
use sec_repro::{ConcurrentStack, StackHandle};

/// An abstract operation drawn by proptest.
#[derive(Debug, Clone)]
enum AbstractOp {
    Push(u64),
    Pop,
    Peek,
}

fn op_strategy() -> impl Strategy<Value = AbstractOp> {
    prop_oneof![
        (0u64..1000).prop_map(AbstractOp::Push),
        Just(AbstractOp::Pop),
        Just(AbstractOp::Peek),
    ]
}

/// Replays `ops` against the implementation and a Vec model, asserting
/// identical observable behaviour at every step.
fn matches_model<S: ConcurrentStack<u64>>(stack: &S, name: &str, ops: &[AbstractOp]) {
    let mut h = stack.register();
    let mut model: Vec<u64> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            AbstractOp::Push(v) => {
                h.push(*v);
                model.push(*v);
            }
            AbstractOp::Pop => {
                assert_eq!(h.pop(), model.pop(), "[{name}] op {i}: pop diverged");
            }
            AbstractOp::Peek => {
                assert_eq!(
                    h.peek(),
                    model.last().copied(),
                    "[{name}] op {i}: peek diverged"
                );
            }
        }
    }
    // Final drain must agree too.
    while let Some(expect) = model.pop() {
        assert_eq!(h.pop(), Some(expect), "[{name}] drain diverged");
    }
    assert_eq!(h.pop(), None, "[{name}] must be empty after drain");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn sec_matches_vec_model(ops in prop::collection::vec(op_strategy(), 0..200)) {
        let stack: sec_repro::SecStack<u64> =
            sec_repro::SecStack::with_config(sec_repro::SecConfig::new(2, 1));
        matches_model(&stack, "SEC", &ops);
    }

    #[test]
    fn sec_agg5_matches_vec_model(ops in prop::collection::vec(op_strategy(), 0..200)) {
        let stack: sec_repro::SecStack<u64> =
            sec_repro::SecStack::with_config(sec_repro::SecConfig::new(5, 1));
        matches_model(&stack, "SEC_Agg5", &ops);
    }

    #[test]
    fn treiber_matches_vec_model(ops in prop::collection::vec(op_strategy(), 0..200)) {
        matches_model(&sec_repro::baselines::TreiberStack::new(1), "TRB", &ops);
    }

    #[test]
    fn eb_matches_vec_model(ops in prop::collection::vec(op_strategy(), 0..200)) {
        matches_model(&sec_repro::baselines::EbStack::new(1), "EB", &ops);
    }

    #[test]
    fn fc_matches_vec_model(ops in prop::collection::vec(op_strategy(), 0..200)) {
        matches_model(&sec_repro::baselines::FcStack::new(1), "FC", &ops);
    }

    #[test]
    fn cc_matches_vec_model(ops in prop::collection::vec(op_strategy(), 0..200)) {
        matches_model(&sec_repro::baselines::CcStack::new(1), "CC", &ops);
    }

    #[test]
    fn tsi_matches_vec_model(ops in prop::collection::vec(op_strategy(), 0..200)) {
        matches_model(&sec_repro::baselines::TsiStack::new(1), "TSI", &ops);
    }

    #[test]
    fn treiber_hp_matches_vec_model(ops in prop::collection::vec(op_strategy(), 0..200)) {
        matches_model(&sec_repro::baselines::TreiberHpStack::new(1), "TRB-HP", &ops);
    }

    #[test]
    fn treiber_leak_matches_vec_model(ops in prop::collection::vec(op_strategy(), 0..200)) {
        matches_model(&sec_baselines::LeakTreiberStack::default(), "TRB-LEAK", &ops);
    }

    #[test]
    fn locked_matches_vec_model(ops in prop::collection::vec(op_strategy(), 0..200)) {
        matches_model(&sec_repro::baselines::LockedStack::new(1), "LCK", &ops);
    }

    /// SEC batch accounting invariants under arbitrary single-threaded
    /// sequences: eliminated + combined == ops, and single-threaded
    /// execution cannot eliminate anything (each batch holds one op).
    #[test]
    fn sec_accounting_invariants(ops in prop::collection::vec(op_strategy(), 1..100)) {
        let stack: sec_repro::SecStack<u64> =
            sec_repro::SecStack::with_config(sec_repro::SecConfig::new(2, 1));
        {
            let mut h = stack.register();
            for op in &ops {
                match op {
                    AbstractOp::Push(v) => h.push(*v),
                    AbstractOp::Pop => { h.pop(); }
                    AbstractOp::Peek => { h.peek(); }
                }
            }
        }
        let r = stack.stats().report();
        prop_assert_eq!(r.eliminated + r.combined, r.ops);
        prop_assert_eq!(r.eliminated, 0, "one thread ⇒ one op per batch ⇒ no pairs");
        // Every push/pop announced exactly once (peeks don't batch).
        let updates = ops.iter().filter(|o| !matches!(o, AbstractOp::Peek)).count() as u64;
        prop_assert_eq!(r.ops, updates);
        prop_assert_eq!(r.batches, updates);
    }
}
