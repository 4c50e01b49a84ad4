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
//!   gap-free run continuing the op_seq the newest checkpoint recorded
//!   for it (1..=n without one);
//! * **idempotence** — recovering twice yields the same report, and a
//!   recovery that is itself SIGKILLed mid-scan leaves the heap
//!   recoverable with the same outcome.
//!
//! The child's log is small (64 records a shard), so every run crosses
//! many checkpoints and every case recovers from one.
//!
//! Sweep size: `CRASH_SEEDS=N` (default 1) multiplies the workload
//! seeds; every seed covers crash points 1..=5, 7 and 8 × triggers
//! 1..=13 per family — 91 seeded crash points per family at the
//! default. A failing case panics with the exact `CRASH_*` replay
//! tuple.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::process::Command;

use sec_repro::durable::{
    opcode, DurableError, DurablePolicy, LoggedOp, OpResult, PendingOutcome, RecoveryReport,
};
use sec_repro::ext::{SecCounter, SecMap, SecQueue};
use sec_repro::{SecHandle, SecStack};

const FAMILIES: &[&str] = &["stack", "queue", "counter", "map"];
const THREADS: usize = 3;
const OPS: usize = 400;

/// Crash points the run-mode sweep arms (see `FaultPoint`): 1 =
/// mid-combine, 2 = post-log/pre-commit, 3 = post-commit, 4 =
/// mid-publish, 5 = mid-intent-write, 7 = inside a checkpoint (records
/// written, commit word not), 8 = after a checkpoint's commit, before
/// the tails rewind. Point 6 (recover-scan) is exercised separately by
/// `kill_9_during_recovery_is_harmless`.
const POINTS: &[u8] = &[1, 2, 3, 4, 5, 7, 8];
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
    // The checkpoint's op list comes first, then the log.
    let listed = report.ops.iter().take_while(|o| o.is_checkpoint()).count();
    assert!(
        report.ops[listed..].iter().all(|o| !o.is_checkpoint()),
        "{ctx}: a checkpoint op follows a logged op"
    );
    // Per-handle gap-free run: op_seqs continue the checkpoint's entry
    // for the handle (0 without one), each exactly once.
    let base = |h: u32| {
        report
            .checkpointed
            .iter()
            .find(|o| o.handle == h)
            .map_or(0, |o| o.op_seq)
    };
    let mut seqs: HashMap<u32, Vec<u64>> = HashMap::new();
    for op in &report.ops[listed..] {
        seqs.entry(op.handle).or_default().push(op.op_seq);
    }
    for (h, s) in &mut seqs {
        s.sort_unstable();
        let from = base(*h);
        for (i, seq) in s.iter().enumerate() {
            assert_eq!(
                *seq,
                from + i as u64 + 1,
                "{ctx}: handle {h} log is not a gap-free run after the checkpoint's \
                 op_seq {from} (double-apply or hole)"
            );
        }
    }
    for (h, rec) in report.handles.iter().enumerate() {
        let logged = seqs.get(&(h as u32)).map_or(0, |s| s.len() as u64);
        assert_eq!(
            rec.executed,
            base(h as u32) + logged,
            "{ctx}: handle {h} executed-count disagrees with the checkpoint and the log"
        );
        match rec.pending {
            PendingOutcome::None | PendingOutcome::TornIntent => {}
            PendingOutcome::Executed { op_seq, result } => {
                let op = report
                    .ops
                    .iter()
                    .chain(&report.checkpointed)
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
                    op_seq > rec.executed,
                    "{ctx}: handle {h} NeverExecuted({op_seq}) is within its executed ops"
                );
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
        // Kill recovery mid-scan at its first, middle and last record
        // (the checkpoint's records count: the child's small log has
        // checkpointed), re-recovering in the parent after each kill.
        assert!(
            clean.checkpoint_records > 0,
            "{ctx}: the run left no checkpoint"
        );
        let scanned = (clean.checkpoint_records + clean.committed_records) as u64;
        for after in [1, scanned.div_ceil(2), scanned] {
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

/// Recovers `family` from `path` and runs `ops` more single-threaded
/// ops on it, returning how many checkpoints they wrote.
fn resume(family: &str, path: &PathBuf, ops: u64, ctx: &str) -> u64 {
    fn or_fail<T>(r: Result<T, DurableError>, ctx: &str) -> T {
        r.unwrap_or_else(|e| panic!("{ctx}: resume's recover failed: {e}"))
    }
    let policy = DurablePolicy::file(path);
    let stats = match family {
        "stack" => {
            let (s, _) = or_fail(SecStack::<u64>::recover(policy), ctx);
            let mut h = s.register();
            for i in 0..ops {
                if i % 3 == 2 {
                    h.pop();
                } else {
                    h.push(i);
                }
            }
            drop(h);
            s.durable_stats()
        }
        "queue" => {
            let (q, _) = or_fail(SecQueue::<u64>::recover(policy), ctx);
            let mut h = q.register();
            for i in 0..ops {
                if i % 3 == 2 {
                    h.dequeue();
                } else {
                    h.enqueue(i);
                }
            }
            drop(h);
            q.durable_stats()
        }
        "counter" => {
            let (c, _) = or_fail(SecCounter::recover(policy), ctx);
            let mut h = c.register();
            for i in 0..ops {
                h.fetch_add(i);
            }
            drop(h);
            c.durable_stats()
        }
        "map" => {
            let (m, _) = or_fail(SecMap::<u64, u64>::recover(policy), ctx);
            let mut h = m.register();
            for i in 0..ops {
                if i % 3 == 2 {
                    h.remove(&(i % 64));
                } else {
                    h.insert(i % 64, i);
                }
            }
            drop(h);
            m.durable_stats()
        }
        other => panic!("unknown family {other}"),
    };
    stats.expect("a recovered structure is durable").checkpoints
}

/// A kill just after a checkpoint's commit, before the tails rewind:
/// recovery starts from the new checkpoint, twice over with the same
/// outcome, and the recovered structure keeps logging — through more
/// checkpoints — into a heap that recovers once more to the model.
#[test]
fn kill_9_after_a_checkpoint_recovers_twice_and_resumes() {
    for family in FAMILIES {
        let ctx = format!("CRASH_FAMILY={family} SEC_CRASH_POINT=8 SEC_CRASH_AFTER=3");
        let path = heap_path(&format!("postckpt_{family}"));
        let _ = std::fs::remove_file(&path);
        let args = [
            "run",
            family,
            path.to_str().unwrap(),
            &THREADS.to_string(),
            &OPS.to_string(),
            "11",
        ];
        assert!(
            spawn_child(&args, Some((8, 3))),
            "{ctx}: the child never committed a third checkpoint"
        );
        let r1 = recover_report(family, &path, &ctx);
        let r2 = recover_report(family, &path, &ctx);
        assert_eq!(r1.ops, r2.ops, "{ctx}: recovery is not idempotent");
        assert_eq!(r1.handles, r2.handles, "{ctx}: verdicts are not idempotent");
        assert_eq!(r1.checkpointed, r2.checkpointed, "{ctx}");
        assert!(
            !r1.checkpointed.is_empty(),
            "{ctx}: recovery did not start from a checkpoint"
        );
        check_report(&r1, &ctx);
        let checkpoints = resume(family, &path, 200, &ctx);
        assert!(
            checkpoints > 0,
            "{ctx}: the resumed run wrote no checkpoint"
        );
        let r3 = recover_report(family, &path, &ctx);
        check_report(&r3, &ctx);
        check_conservation(family, &path, &r3, &ctx);
        let _ = std::fs::remove_file(&path);
    }
}

/// A four-record log (two halves of two records) rewinds at a
/// checkpoint every record or two, so a bounded structure runs any
/// number of ops on it: 10k push/pop ops of a stack held under 16
/// values, then recovery — the last checkpoint and the records after
/// it — rebuilds the model's stack.
#[test]
fn durable_four_record_log_rewinds_through_10k_ops() {
    let policy = DurablePolicy::volatile().shards(1).record_capacity(4);
    let s = SecStack::<u64>::durable(1, policy).expect("create durable stack");
    let mut model = Vec::new();
    let mut h = s.register();
    let mut rng = 0x5EC0u64;
    for i in 0..10_000 {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if model.len() < 16 && (rng >> 33).is_multiple_of(2) {
            h.push(i);
            model.push(i);
        } else {
            assert_eq!(h.pop(), model.pop(), "op {i}");
        }
    }
    drop(h);
    let stats = s.durable_stats().expect("a durable stack logs");
    assert_eq!(stats.entries, 10_000, "{stats:?}");
    assert!(stats.checkpoints > 1_000, "{stats:?}");
    let heap = s.durable_heap().expect("a durable stack has a heap");
    drop(s);
    let (r, report) = SecStack::<u64>::recover(DurablePolicy::heap(heap)).expect("recover");
    check_report(&report, "four-record log");
    assert_eq!(report.handles[0].executed, 10_000);
    let mut h = r.register();
    let drained: Vec<u64> = std::iter::from_fn(|| h.pop()).collect();
    model.reverse();
    assert_eq!(drained, model, "recovered stack diverges from the model");
}

/// A checkpoint that does not fit commits nothing, so the next one
/// must still read shard 0's live log from the end of the committed
/// checkpoint. Two shards with halves of 20000 one-entry records:
/// shard 1 reaches the 16384-record trigger while the stack holds more
/// than 20000 values, so that checkpoint does not fit and the log
/// appends on; pops then shrink the stack, so the retry at the full
/// half fits. It must carry each handle's newest op_seq, or recovery
/// finds a gap after the checkpoint's entry for the handle on shard 0.
#[test]
fn durable_checkpoint_after_one_that_did_not_fit_recovers_to_the_model() {
    let policy = DurablePolicy::volatile()
        .shards(2)
        .record_capacity(40_000)
        .batch_entries(1);
    let s = SecStack::<u64>::durable(2, policy).expect("create durable stack");
    let mut model = Vec::new();
    let (mut h0, mut h1) = (s.register(), s.register());
    let mut next = 0u64;
    let mut push = |h: &mut SecHandle<'_, u64>, model: &mut Vec<u64>, n: usize| {
        for _ in 0..n {
            h.push(next);
            model.push(next);
            next += 1;
        }
    };
    let pop = |h: &mut SecHandle<'_, u64>, model: &mut Vec<u64>, n: usize| {
        for _ in 0..n {
            assert_eq!(h.pop(), model.pop());
        }
    };
    push(&mut h0, &mut model, 4_000);
    push(&mut h1, &mut model, 16_384);
    // Opens shard 1's record 16384: a checkpoint of 20386 entries.
    pop(&mut h1, &mut model, 1);
    let stats = s.durable_stats().expect("a durable stack logs");
    assert_eq!(
        stats.checkpoints, 0,
        "the first checkpoint must not fit: {stats:?}"
    );
    pop(&mut h0, &mut model, 12_000);
    // Shard 1 reaches its full half of 20000; the op after retries.
    pop(&mut h1, &mut model, 20_000 - 16_385);
    pop(&mut h1, &mut model, 1);
    let stats = s.durable_stats().expect("a durable stack logs");
    assert_eq!(stats.checkpoints, 1, "the retry must fit: {stats:?}");
    push(&mut h0, &mut model, 10);
    push(&mut h1, &mut model, 10);
    drop((h0, h1));
    let heap = s.durable_heap().expect("a durable stack has a heap");
    drop(s);
    let (r, report) = SecStack::<u64>::recover(DurablePolicy::heap(heap)).expect("recover");
    check_report(&report, "checkpoint after one that did not fit");
    let executed: Vec<u64> = report.handles.iter().map(|h| h.executed).collect();
    assert_eq!(executed, [16_010, 20_011]);
    let mut h = r.register();
    let drained: Vec<u64> = std::iter::from_fn(|| h.pop()).collect();
    model.reverse();
    assert_eq!(drained, model, "recovered stack diverges from the model");
}

/// A checkpoint must fit in one half of the log less the record it
/// leaves free. A structure that outgrows that keeps appending until
/// its half is full, then panics naming the checkpoint's size: here
/// one handle's entry and two pushes against a half of two records of
/// two entries.
#[test]
#[should_panic(expected = "checkpoint of 3 entries does not fit")]
fn durable_checkpoint_that_cannot_fit_panics_naming_its_size() {
    let policy = DurablePolicy::volatile()
        .shards(1)
        .record_capacity(4)
        .batch_entries(2);
    let s = SecStack::<u64>::durable(1, policy).expect("create durable stack");
    let mut h = s.register();
    for i in 0..64 {
        h.push(i);
    }
}
