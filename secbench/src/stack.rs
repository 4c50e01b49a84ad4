//! The stack workloads: `stack-solo`, `stack-pair` and `durable-stack`.

use crate::inputs::StackOp;
use crate::metrics::{push_calls, push_engine, ratio, EngineSnap, Round};
use crate::phase::{self, since};
use crate::stats::Latency;
use sec_core::{DurablePolicy, LogGranularity, SecHandle, SecStack, SyncMode};
use std::time::Instant;

/// One op in this many is timed for the end-to-end latency — by op
/// index, so every commit samples the same ops.
const LAT_EVERY: usize = 8;
/// Epoch advances `quiesce_reclamation` may take after a phase.
const QUIESCE_ROUNDS: usize = 8;

pub struct StackPlan {
    threads: usize,
    durable: bool,
    prefill: Vec<u64>,
    /// One pre-drawn op stream per worker thread.
    streams: Vec<Vec<StackOp>>,
    /// Redo-log records a durable round may need.
    log_records: usize,
    /// Per-worker state, reused round after round.
    workers: Vec<Worker>,
    merged: Vec<u64>,
}

impl StackPlan {
    pub fn new(durable: bool, prefill: Vec<u64>, streams: Vec<Vec<StackOp>>) -> Self {
        // The log is not circular: size it for one record per op (no
        // batch holds more than one op per thread), over the prefill,
        // the timed phase, and the pops that drain the recovered copy —
        // at most one per value ever pushed, plus the final empty one.
        let ops: usize = streams.iter().map(Vec::len).sum();
        let pushes = streams
            .iter()
            .flatten()
            .filter(|op| matches!(op, StackOp::Push(_)))
            .count();
        StackPlan {
            threads: streams.len(),
            durable,
            log_records: 2 * prefill.len() + ops + pushes + 1,
            prefill,
            workers: streams.iter().map(|_| Worker::default()).collect(),
            streams,
            merged: Vec::new(),
        }
    }
}

#[derive(Default)]
struct Worker {
    pushed: u64,
    push_sum: u64,
    popped: u64,
    pop_sum: u64,
    empty: u64,
    register_ns: u64,
    lat: Vec<u64>,
    push_ns: Vec<u64>,
    pop_ns: Vec<u64>,
}

impl Worker {
    /// Zeroes the counters and empties the sample buffers, keeping
    /// their capacity.
    fn reset(&mut self) {
        *self = Worker {
            lat: std::mem::take(&mut self.lat),
            push_ns: std::mem::take(&mut self.push_ns),
            pop_ns: std::mem::take(&mut self.pop_ns),
            ..Worker::default()
        };
        self.lat.clear();
        self.push_ns.clear();
        self.pop_ns.clear();
    }
}

/// Count and wrapping sum of a multiset of values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Tally {
    count: u64,
    sum: u64,
}

fn drain(stack: &SecStack<u64>) -> Tally {
    let mut h = stack.register();
    let mut t = Tally::default();
    while let Some(v) = h.pop() {
        t.count += 1;
        t.sum = t.sum.wrapping_add(v);
    }
    t
}

fn build(plan: &StackPlan) -> SecStack<u64> {
    // One registration slot per worker plus one for set-up and checks,
    // as sec-workload's runners size it: with the paper's default two
    // aggregators and block sharding, two workers then share aggregator
    // 0, so their ops can eliminate.
    let max_threads = plan.threads + 1;
    if !plan.durable {
        return SecStack::new(max_threads);
    }
    let policy = DurablePolicy::volatile()
        .sync(SyncMode::None)
        .granularity(LogGranularity::PerBatch)
        .batch_entries(plan.threads)
        .record_capacity(plan.log_records);
    SecStack::durable(max_threads, policy).expect("create a volatile durable stack")
}

fn drive<const TRACED: bool>(
    h: &mut SecHandle<'_, u64>,
    ops: &[StackOp],
    gate: &phase::Gate,
    w: &mut Worker,
) {
    for (i, &op) in ops.iter().enumerate() {
        let sampled = !TRACED && i % LAT_EVERY == 0;
        let t0 = if TRACED || sampled { gate.now() } else { 0 };
        match op {
            StackOp::Push(v) => {
                h.push(v);
                w.pushed += 1;
                w.push_sum = w.push_sum.wrapping_add(v);
                if TRACED {
                    w.push_ns.push(gate.now() - t0);
                }
            }
            StackOp::Pop => {
                match h.pop() {
                    Some(v) => {
                        w.popped += 1;
                        w.pop_sum = w.pop_sum.wrapping_add(v);
                    }
                    None => w.empty += 1,
                }
                if TRACED {
                    w.pop_ns.push(gate.now() - t0);
                }
            }
        }
        if sampled {
            w.lat.push(gate.now() - t0);
        }
    }
}

pub fn round<const TRACED: bool>(plan: &mut StackPlan) -> Round {
    let t = Instant::now();
    let stack = build(plan);
    let construct_ns = since(t);
    let t = Instant::now();
    stack.register().push_many(&plan.prefill);
    let prefill_ns = since(t);

    let snap = |s: &SecStack<u64>| EngineSnap {
        report: s.stats().report(),
        reclaim: s.reclaim_stats(),
    };
    let before = snap(&stack);
    let durable_before = stack.durable_stats().unwrap_or_default();
    let streams = &plan.streams;
    let phase = phase::run(std::mem::take(&mut plan.workers), |tid, w, gate| {
        let ops = &streams[tid];
        w.reset();
        if TRACED {
            w.push_ns.reserve(ops.len());
            w.pop_ns.reserve(ops.len());
        } else {
            w.lat.reserve(ops.len() / LAT_EVERY + 1);
        }
        let t = Instant::now();
        let mut h = stack.register();
        w.register_ns = since(t);
        gate.start();
        drive::<TRACED>(&mut h, ops, gate, w);
        gate.finish();
    });
    let after = snap(&stack);
    let active_end = stack.active_aggregators();
    let durable_after = stack.durable_stats().unwrap_or_default();
    let t = Instant::now();
    stack.quiesce_reclamation(QUIESCE_ROUNDS);
    let quiesce_ns = since(t);

    let ws = phase.states;
    let attempted: u64 = plan.streams.iter().map(|s| s.len() as u64).sum();
    let sum = |f: fn(&Worker) -> u64| ws.iter().map(f).fold(0u64, u64::wrapping_add);
    let (pushed, popped, empty) = (sum(|w| w.pushed), sum(|w| w.popped), sum(|w| w.empty));
    let prefill_sum = plan.prefill.iter().fold(0u64, |a, &v| a.wrapping_add(v));
    // What must remain: everything pushed (prefill included) minus
    // everything popped, by count and by sum.
    let expected = Tally {
        count: plan.prefill.len() as u64 + pushed - popped,
        sum: prefill_sum
            .wrapping_add(sum(|w| w.push_sum))
            .wrapping_sub(sum(|w| w.pop_sum)),
    };
    let mut r = Round {
        ops: pushed + popped + empty,
        wall_ns: phase.wall_ns,
        cpu_ns: phase.cpu_ns,
        latency: Latency::of(phase::merged(&mut plan.merged, &ws, |w| &w.lat)),
        construct_ns,
        prefill_ns,
        register_ns: sum(|w| w.register_ns) / plan.threads as u64,
        drop_ns: 0,
        attempted,
        failed: 0,
        failures: Vec::new(),
        layers: Vec::new(),
    };
    let mut recover_ns = 0;
    let remainder = if plan.durable {
        let logged = durable_after.entries;
        let issued = plan.prefill.len() as u64 + attempted;
        r.fail(
            logged.abs_diff(issued),
            format!("durable log holds {logged} entries for {issued} ops issued"),
        );
        let heap = stack.durable_heap().expect("a durable stack has a heap");
        let t = Instant::now();
        drop(stack);
        r.drop_ns = since(t);
        let t = Instant::now();
        let (recovered, _) =
            SecStack::recover(DurablePolicy::heap(heap)).expect("recover the durable stack");
        recover_ns = since(t);
        let remainder = drain(&recovered);
        drop(recovered);
        remainder
    } else {
        let remainder = drain(&stack);
        let t = Instant::now();
        drop(stack);
        r.drop_ns = since(t);
        remainder
    };
    if remainder != expected {
        r.fail(
            remainder.count.abs_diff(expected.count).max(1),
            format!("stack drained to {remainder:?}, expected {expected:?}"),
        );
    }

    if TRACED {
        let l = &mut r.layers;
        push_calls(
            l,
            "sec.push_ns",
            phase::merged(&mut plan.merged, &ws, |w| &w.push_ns),
        );
        push_calls(
            l,
            "sec.pop_ns",
            phase::merged(&mut plan.merged, &ws, |w| &w.pop_ns),
        );
        l.push(("sec.pop_empty_frac".into(), ratio(empty, popped + empty)));
        l.push(("sec.pops".into(), (popped + empty) as f64));
        push_engine(l, "", &before, &after, Some(active_end), quiesce_ns);
        if plan.durable {
            let records = durable_after.records - durable_before.records;
            let entries = durable_after.entries - durable_before.entries;
            let ops = after.report.ops - before.report.ops;
            l.push(("durable.entries_per_record".into(), ratio(entries, records)));
            l.push(("durable.records_per_kop".into(), 1e3 * ratio(records, ops)));
            let msyncs = durable_after.msyncs - durable_before.msyncs;
            l.push(("durable.msyncs_per_kop".into(), 1e3 * ratio(msyncs, ops)));
            l.push(("durable.recover_ms".into(), recover_ns as f64 / 1e6));
            l.push(("durable.records".into(), records as f64));
        }
    }
    plan.workers = ws;
    r
}
