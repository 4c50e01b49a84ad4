//! The kill-9 fault-injection harness (ISSUE: crash-durable SEC).
//!
//! For every durable family (stack, queue, counter, map) and every
//! seeded protocol crash point, this test forks the `crash_child`
//! helper bin against a file-backed persistent heap, SIGKILLs it at
//! the armed point (`SEC_CRASH_POINT` × `SEC_CRASH_AFTER`, see the
//! `fault` module), recovers in this process, and checks:
//!
//! * **conservation** — folding the recovered redo log through a
//!   sequential model reproduces exactly the recovered structure's
//!   contents (and every logged result matches the model's);
//! * **detectability** — every handle's in-flight op is classified
//!   `Executed` (with its result), `NeverExecuted`, `TornIntent` or
//!   `None`, and the classification is consistent with the log;
//! * **zero double-applies** — each handle's logged op sequence is a
//!   gap-free 1..=n prefix;
//! * **idempotence** — recovering twice yields the same report, and a
//!   recovery that is itself SIGKILLed mid-scan leaves the heap
//!   recoverable with the same outcome.
//!
//! Sweep size: `CRASH_SEEDS=N` (default 1) multiplies the workload
//! seeds; every seed covers crash points 1..=5 × triggers 1..=13 per
//! family — 65 seeded crash points per family at the default, which is
//! what the acceptance bar counts. A failing case panics with the
//! exact `CRASH_*` replay tuple.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::process::Command;

use sec_repro::durable::{
    opcode, DurablePolicy, LoggedOp, OpResult, PendingOutcome, RecoveryReport,
};
use sec_repro::ext::{SecCounter, SecMap, SecQueue};
use sec_repro::SecStack;

const FAMILIES: &[&str] = &["stack", "queue", "counter", "map"];
const THREADS: usize = 3;
const OPS: usize = 400;

/// Crash points the run-mode sweep arms (see `FaultPoint`): 1 =
/// mid-combine, 2 = post-log/pre-commit, 3 = post-commit, 4 =
/// mid-publish, 5 = mid-intent-write. Point 6 (recover-scan) is
/// exercised separately by `kill_9_during_recovery_is_harmless`.
const POINTS: &[u8] = &[1, 2, 3, 4, 5];
const TRIGGERS: std::ops::RangeInclusive<u64> = 1..=13;

fn seeds() -> Vec<u64> {
    let n: u64 = std::env::var("CRASH_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    (0..n.max(1)).map(|i| 0x5EC0 + i * 7919).collect()
}

fn heap_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "sec_crash_{}_{}.heap",
        std::process::id(),
        tag.replace('/', "_")
    ))
}

/// Spawns the child and returns true when it was SIGKILLed (the armed
/// point fired), false when it ran to completion.
fn spawn_child(args: &[&str], point: Option<(u8, u64)>) -> bool {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_crash_child"));
    cmd.args(args);
    if let Some((p, after)) = point {
        cmd.env("SEC_CRASH_POINT", p.to_string());
        cmd.env("SEC_CRASH_AFTER", after.to_string());
    } else {
        cmd.env_remove("SEC_CRASH_POINT");
        cmd.env_remove("SEC_CRASH_AFTER");
    }
    let status = cmd.status().expect("spawn crash_child");
    if status.success() {
        return false;
    }
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        assert_eq!(
            status.signal(),
            Some(9),
            "child died abnormally but not by SIGKILL: {status:?}"
        );
    }
    true
}

/// Detectability + zero-double-apply checks shared by every family.
fn check_report(report: &RecoveryReport, ctx: &str) {
    // Per-handle gap-free prefix: op_seqs 1..=n, each exactly once.
    let mut seqs: HashMap<u32, Vec<u64>> = HashMap::new();
    for op in &report.ops {
        seqs.entry(op.handle).or_default().push(op.op_seq);
    }
    for (h, s) in &mut seqs {
        s.sort_unstable();
        for (i, seq) in s.iter().enumerate() {
            assert_eq!(
                *seq,
                i as u64 + 1,
                "{ctx}: handle {h} log is not a gap-free prefix (double-apply or hole)"
            );
        }
    }
    for (h, rec) in report.handles.iter().enumerate() {
        let logged = seqs.get(&(h as u32)).map_or(0, |s| s.len() as u64);
        assert_eq!(
            rec.executed, logged,
            "{ctx}: handle {h} executed-count disagrees with the log"
        );
        match rec.pending {
            PendingOutcome::None | PendingOutcome::TornIntent => {}
            PendingOutcome::Executed { op_seq, result } => {
                let op = report
                    .ops
                    .iter()
                    .find(|o| o.handle == h as u32 && o.op_seq == op_seq)
                    .unwrap_or_else(|| {
                        panic!("{ctx}: handle {h} Executed({op_seq}) not in the log")
                    });
                assert_eq!(
                    op.result, result,
                    "{ctx}: handle {h} Executed result diverges from the log"
                );
            }
            PendingOutcome::NeverExecuted { op_seq } => {
                assert!(
                    !report
                        .ops
                        .iter()
                        .any(|o| o.handle == h as u32 && o.op_seq == op_seq),
                    "{ctx}: handle {h} NeverExecuted({op_seq}) IS in the log"
                );
            }
        }
    }
}

/// Folds the log through the family's sequential model, verifying each
/// logged result, then checks the recovered structure drains to the
/// model's exact final state. Consumes the recovered structure.
fn check_conservation(family: &str, path: &PathBuf, report: &RecoveryReport, ctx: &str) {
    match family {
        "stack" => {
            let mut model: Vec<u64> = Vec::new();
            for op in &report.ops {
                model_stack(&mut model, op, ctx);
            }
            let (s, _) = SecStack::<u64>::recover(DurablePolicy::file(path))
                .unwrap_or_else(|e| panic!("{ctx}: re-recover failed: {e}"));
            let mut h = s.register();
            let mut drained = Vec::new();
            while let Some(v) = h.pop() {
                drained.push(v);
            }
            model.reverse();
            assert_eq!(drained, model, "{ctx}: stack contents diverge from model");
        }
        "queue" => {
            let mut model: VecDeque<u64> = VecDeque::new();
            for op in &report.ops {
                model_queue(&mut model, op, ctx);
            }
            let (q, _) = SecQueue::<u64>::recover(DurablePolicy::file(path))
                .unwrap_or_else(|e| panic!("{ctx}: re-recover failed: {e}"));
            let mut h = q.register();
            let mut drained = Vec::new();
            while let Some(v) = h.dequeue() {
                drained.push(v);
            }
            let model: Vec<u64> = model.into_iter().collect();
            assert_eq!(drained, model, "{ctx}: queue contents diverge from model");
        }
        "counter" => {
            let mut total: u64 = 0;
            for op in &report.ops {
                assert_eq!(
                    op.opcode,
                    opcode::ADD,
                    "{ctx}: foreign opcode in counter log"
                );
                assert_eq!(
                    op.result,
                    OpResult::Value(total),
                    "{ctx}: logged fetch_add result diverges from model"
                );
                total = total.wrapping_add(op.operand);
            }
            let (c, _) = SecCounter::recover(DurablePolicy::file(path))
                .unwrap_or_else(|e| panic!("{ctx}: re-recover failed: {e}"));
            assert_eq!(c.load(), total, "{ctx}: counter total diverges from model");
        }
        "map" => {
            let mut model: HashMap<u64, u64> = HashMap::new();
            for op in &report.ops {
                model_map(&mut model, op, ctx);
            }
            let (m, _) = SecMap::<u64, u64>::recover(DurablePolicy::file(path))
                .unwrap_or_else(|e| panic!("{ctx}: re-recover failed: {e}"));
            assert_eq!(m.len(), model.len(), "{ctx}: map size diverges from model");
            let mut h = m.register();
            for (k, v) in &model {
                assert_eq!(h.get(k), Some(*v), "{ctx}: map key {k} diverges from model");
            }
        }
        other => panic!("unknown family {other}"),
    }
}

fn model_stack(model: &mut Vec<u64>, op: &LoggedOp, ctx: &str) {
    match op.opcode {
        opcode::PUSH => {
            assert_eq!(op.result, OpResult::Unit, "{ctx}: push result");
            model.push(op.operand);
        }
        opcode::POP => {
            let expect = match model.pop() {
                Some(v) => OpResult::Value(v),
                None => OpResult::Empty,
            };
            assert_eq!(op.result, expect, "{ctx}: logged pop diverges from model");
        }
        other => panic!("{ctx}: foreign opcode {other} in stack log"),
    }
}

fn model_queue(model: &mut VecDeque<u64>, op: &LoggedOp, ctx: &str) {
    match op.opcode {
        opcode::ENQUEUE => {
            assert_eq!(op.result, OpResult::Unit, "{ctx}: enqueue result");
            model.push_back(op.operand);
        }
        opcode::DEQUEUE => {
            let expect = match model.pop_front() {
                Some(v) => OpResult::Value(v),
                None => OpResult::Empty,
            };
            assert_eq!(
                op.result, expect,
                "{ctx}: logged dequeue diverges from model"
            );
        }
        other => panic!("{ctx}: foreign opcode {other} in queue log"),
    }
}

fn model_map(model: &mut HashMap<u64, u64>, op: &LoggedOp, ctx: &str) {
    let expect = |prev: Option<u64>| match prev {
        Some(v) => OpResult::Value(v),
        None => OpResult::Empty,
    };
    match op.opcode {
        opcode::MAP_GET => {
            assert_eq!(
                op.result,
                expect(model.get(&op.operand).copied()),
                "{ctx}: logged get diverges from model"
            );
        }
        opcode::MAP_INSERT => {
            let prev = model.insert(op.operand, op.operand2);
            assert_eq!(
                op.result,
                expect(prev),
                "{ctx}: logged insert diverges from model"
            );
        }
        opcode::MAP_REMOVE => {
            let prev = model.remove(&op.operand);
            assert_eq!(
                op.result,
                expect(prev),
                "{ctx}: logged remove diverges from model"
            );
        }
        other => panic!("{ctx}: foreign opcode {other} in map log"),
    }
}

fn recover_report(family: &str, path: &PathBuf, ctx: &str) -> RecoveryReport {
    match family {
        "stack" => {
            SecStack::<u64>::recover(DurablePolicy::file(path))
                .unwrap_or_else(|e| panic!("{ctx}: recover failed: {e}"))
                .1
        }
        "queue" => {
            SecQueue::<u64>::recover(DurablePolicy::file(path))
                .unwrap_or_else(|e| panic!("{ctx}: recover failed: {e}"))
                .1
        }
        "counter" => {
            SecCounter::recover(DurablePolicy::file(path))
                .unwrap_or_else(|e| panic!("{ctx}: recover failed: {e}"))
                .1
        }
        "map" => {
            SecMap::<u64, u64>::recover(DurablePolicy::file(path))
                .unwrap_or_else(|e| panic!("{ctx}: recover failed: {e}"))
                .1
        }
        other => panic!("unknown family {other}"),
    }
}

/// One family's full sweep: every crash point × trigger count × seed.
fn sweep(family: &str) {
    let mut crashed = 0usize;
    let mut cases = 0usize;
    for seed in seeds() {
        for &point in POINTS {
            for after in TRIGGERS {
                cases += 1;
                // The replay tuple: re-run one case by pasting this
                // into the environment of `cargo test crash_`.
                let ctx = format!(
                    "CRASH_FAMILY={family} SEC_CRASH_POINT={point} SEC_CRASH_AFTER={after} CRASH_SEED={seed}"
                );
                let path = heap_path(&format!("{family}_{point}_{after}_{seed}"));
                let _ = std::fs::remove_file(&path);
                let killed = spawn_child(
                    &[
                        "run",
                        family,
                        path.to_str().unwrap(),
                        &THREADS.to_string(),
                        &OPS.to_string(),
                        &seed.to_string(),
                    ],
                    Some((point, after)),
                );
                if killed {
                    crashed += 1;
                }
                // Recover twice: reports must agree (idempotence), and
                // the heap must classify + conserve either way.
                let r1 = recover_report(family, &path, &ctx);
                let r2 = recover_report(family, &path, &ctx);
                assert_eq!(r1.ops, r2.ops, "{ctx}: recovery is not idempotent");
                assert_eq!(
                    r1.handles, r2.handles,
                    "{ctx}: recovery verdicts are not idempotent"
                );
                check_report(&r1, &ctx);
                check_conservation(family, &path, &r1, &ctx);
                let _ = std::fs::remove_file(&path);
            }
        }
    }
    // The sweep is only meaningful if the faults actually fire: every
    // armed point triggers well within the child's workload.
    assert!(
        crashed >= cases * 9 / 10,
        "{family}: only {crashed}/{cases} cases actually crashed — fault arming is broken"
    );
}

#[test]
fn kill_9_sweep_stack() {
    sweep("stack");
}

#[test]
fn kill_9_sweep_queue() {
    sweep("queue");
}

#[test]
fn kill_9_sweep_counter() {
    sweep("counter");
}

#[test]
fn kill_9_sweep_map() {
    sweep("map");
}

/// Satellite 3, second half: SIGKILL *during recovery* (the
/// recover-scan fault point) must leave the heap exactly as
/// recoverable — recovery mutates nothing but idempotent
/// normalizations.
#[test]
fn kill_9_during_recovery_is_harmless() {
    for family in FAMILIES {
        let ctx = format!("CRASH_FAMILY={family} SEC_CRASH_POINT=6");
        let path = heap_path(&format!("recscan_{family}"));
        let _ = std::fs::remove_file(&path);
        // A clean, completed workload (no fault armed in the writer).
        let killed = spawn_child(
            &[
                "run",
                family,
                path.to_str().unwrap(),
                &THREADS.to_string(),
                "120",
                "7",
            ],
            None,
        );
        assert!(!killed, "{ctx}: unarmed child must run to completion");
        let clean = recover_report(family, &path, &ctx);
        assert!(
            clean.replayed_ops() > 0,
            "{ctx}: empty log after a full run"
        );
        // Kill recovery mid-scan at several depths, re-recovering in
        // the parent after each kill.
        for after in [1u64, 5, 20] {
            let killed = spawn_child(
                &["recover", family, path.to_str().unwrap()],
                Some((6, after)),
            );
            assert!(
                killed,
                "{ctx} SEC_CRASH_AFTER={after}: recovery did not reach scan point"
            );
            let again = recover_report(family, &path, &ctx);
            assert_eq!(
                clean.ops, again.ops,
                "{ctx} SEC_CRASH_AFTER={after}: killed recovery changed the log"
            );
            assert_eq!(
                clean.handles, again.handles,
                "{ctx} SEC_CRASH_AFTER={after}: killed recovery changed the verdicts"
            );
        }
        check_report(&clean, &ctx);
        check_conservation(family, &path, &clean, &ctx);
        let _ = std::fs::remove_file(&path);
    }
}

/// The log is not circular: a run that outgrows `record_capacity`
/// must stop with the log-full panic, not wrap or drop records. The
/// harness sizes its heaps to its own op budget, so this pins the
/// bound with a capacity small enough to overrun on purpose.
#[test]
#[should_panic(expected = "durable log full")]
fn durable_log_overrun_panics_instead_of_wrapping() {
    let policy = DurablePolicy::volatile().shards(1).record_capacity(4);
    let s = SecStack::<u64>::durable(1, policy).expect("create durable stack");
    let mut h = s.register();
    for i in 0..64 {
        h.push(i);
    }
}
