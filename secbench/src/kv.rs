//! The `kv-pipeline` workload: counter → queue → map, per request.

use crate::inputs::{kv_value, kv_value_key, KvRequest};
use crate::metrics::{push_calls, push_engine, ratio, EngineSnap, Round};
use crate::phase::{self, since};
use crate::stats::Latency;
use sec_core::{SecConfig, SecCounter, SecMap, SecQueue};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::Instant;

/// Requests per counter grab, per `enqueue_many` and per `dequeue_many`.
pub const BLOCK: usize = 32;
/// One request in this many is timed for the end-to-end latency — by
/// request id, so every commit samples the same requests.
const LAT_EVERY: u64 = 8;
const QUIESCE_ROUNDS: usize = 8;

pub struct KvPlan {
    threads: usize,
    /// Counter grabs per worker per round.
    iters: usize,
    keys: u64,
    /// `table[id]` is request `id`; its length is every id one round
    /// issues.
    table: Vec<KvRequest>,
    /// Whether key `k` ends the round mapped: the even keys are
    /// prefilled, and the table inserts some more.
    mapped: Vec<bool>,
    ledger: Ledger,
    /// Per-worker state, reused round after round.
    workers: Vec<Worker>,
    merged: Vec<u64>,
}

impl KvPlan {
    pub fn new(threads: usize, iters: usize, keys: u64, table: Vec<KvRequest>) -> Self {
        let mut mapped: Vec<bool> = (0..keys).map(|k| k % 2 == 0).collect();
        for q in table.iter().filter(|q| q.insert) {
            mapped[q.key as usize] = true;
        }
        KvPlan {
            threads,
            iters,
            keys,
            mapped,
            ledger: Ledger {
                enqueued_at: (0..table.len() / BLOCK)
                    .map(|_| AtomicU64::new(0))
                    .collect(),
                applied: (0..table.len()).map(|_| AtomicU8::new(0)).collect(),
            },
            table,
            workers: (0..threads).map(|_| Worker::default()).collect(),
            merged: Vec::new(),
        }
    }
}

#[derive(Default)]
struct Worker {
    applied: u64,
    gets: u64,
    hits: u64,
    requested: u64,
    returned: u64,
    failed: u64,
    register_ns: u64,
    lat: Vec<u64>,
    fetch_add_ns: Vec<u64>,
    enqueue_ns: Vec<u64>,
    dequeue_ns: Vec<u64>,
    get_ns: Vec<u64>,
    insert_ns: Vec<u64>,
}

impl Worker {
    /// Zeroes the counters and empties the sample buffers, keeping
    /// their capacity.
    fn reset(&mut self) {
        *self = Worker {
            lat: std::mem::take(&mut self.lat),
            fetch_add_ns: std::mem::take(&mut self.fetch_add_ns),
            enqueue_ns: std::mem::take(&mut self.enqueue_ns),
            dequeue_ns: std::mem::take(&mut self.dequeue_ns),
            get_ns: std::mem::take(&mut self.get_ns),
            insert_ns: std::mem::take(&mut self.insert_ns),
            ..Worker::default()
        };
        for v in [
            &mut self.lat,
            &mut self.fetch_add_ns,
            &mut self.enqueue_ns,
            &mut self.dequeue_ns,
            &mut self.get_ns,
            &mut self.insert_ns,
        ] {
            v.clear();
        }
    }
}

/// Per-round bookkeeping the workers share, indexed by request id.
struct Ledger {
    /// When the `enqueue_many` carrying block `id / BLOCK` started (ns
    /// since the phase's shared epoch).
    enqueued_at: Vec<AtomicU64>,
    /// How many times request `id` was applied; exactly once is correct.
    applied: Vec<AtomicU8>,
}

impl Ledger {
    /// Counts request `id` as applied; false if it is no request of
    /// this round or was applied before.
    fn apply(&self, id: u64) -> bool {
        self.applied
            .get(id as usize)
            .is_some_and(|a| a.fetch_add(1, Ordering::Relaxed) == 0)
    }
}

/// A map value is correct when it was written for the key it is
/// found under.
fn value_ok(key: u64, v: Option<u64>) -> bool {
    v.is_none_or(|v| kv_value_key(v) == key)
}

pub fn round<const TRACED: bool>(plan: &mut KvPlan) -> Round {
    let ids = plan.table.len() as u64;
    let ledger = &plan.ledger;
    for a in &ledger.applied {
        a.store(0, Ordering::Relaxed);
    }
    let max_threads = plan.threads + 1;

    let t = Instant::now();
    let counter = SecCounter::new(max_threads);
    let queue: SecQueue<u64> = SecQueue::new(max_threads);
    // The map is elastic, so zipfian hot keys can drive shard resizes.
    let map: SecMap<u64, u64> = SecMap::with_config(SecConfig::adaptive(1, 4, max_threads));
    let construct_ns = since(t);
    let t = Instant::now();
    {
        // Every even key starts mapped, so gets both hit and miss.
        let mut entries: Vec<(u64, u64)> = (0..plan.keys)
            .step_by(2)
            .map(|k| (k, kv_value(k, 0)))
            .collect();
        let mut prevs = vec![None; entries.len()];
        map.register().insert_many(&mut entries, &mut prevs);
    }
    let prefill_ns = since(t);

    let snaps = || {
        [
            EngineSnap {
                report: counter.stats().report(),
                reclaim: counter.reclaim_stats(),
            },
            EngineSnap {
                report: queue.stats().report(),
                reclaim: queue.reclaim_stats(),
            },
            EngineSnap {
                report: map.stats().report(),
                reclaim: map.reclaim_stats(),
            },
        ]
    };
    let before = snaps();
    let (table, calls) = (&plan.table, plan.iters);
    let phase = phase::run(std::mem::take(&mut plan.workers), |_, w, gate| {
        w.reset();
        if TRACED {
            for v in [&mut w.fetch_add_ns, &mut w.enqueue_ns, &mut w.dequeue_ns] {
                v.reserve(calls);
            }
            w.get_ns.reserve(calls * BLOCK);
            w.insert_ns.reserve(calls * BLOCK);
        } else {
            w.lat.reserve(calls * BLOCK / LAT_EVERY as usize + 1);
        }
        let t = Instant::now();
        let mut ch = counter.register();
        let mut qh = queue.register();
        let mut mh = map.register();
        w.register_ns = since(t) / 3;
        let mut block = [0u64; BLOCK];
        let mut out: Vec<u64> = Vec::with_capacity(BLOCK);
        gate.start();
        for _ in 0..calls {
            let t0 = if TRACED { gate.now() } else { 0 };
            let base = ch.fetch_add(BLOCK as u64);
            let t1 = gate.now();
            if TRACED {
                w.fetch_add_ns.push(t1 - t0);
            }
            for (i, id) in block.iter_mut().enumerate() {
                *id = base + i as u64;
            }
            // Relaxed: the queue's own publication orders this store
            // before any dequeuer's load of it.
            if let Some(at) = ledger.enqueued_at.get((base / BLOCK as u64) as usize) {
                at.store(t1, Ordering::Relaxed);
            }
            qh.enqueue_many(&block);
            if TRACED {
                w.enqueue_ns.push(gate.now() - t1);
            }
            out.clear();
            let t2 = if TRACED { gate.now() } else { 0 };
            let n = qh.dequeue_many(&mut out, BLOCK);
            if TRACED {
                w.dequeue_ns.push(gate.now() - t2);
            }
            w.requested += BLOCK as u64;
            w.returned += n as u64;
            for &id in &out {
                if !ledger.apply(id) {
                    w.failed += 1;
                    continue;
                }
                let req = table[id as usize];
                let t3 = if TRACED { gate.now() } else { 0 };
                let ok = if req.insert {
                    let prev = mh.insert(req.key, req.value);
                    if TRACED {
                        w.insert_ns.push(gate.now() - t3);
                    }
                    value_ok(req.key, prev)
                } else {
                    let got = mh.get(&req.key);
                    if TRACED {
                        w.get_ns.push(gate.now() - t3);
                    }
                    w.gets += 1;
                    w.hits += got.is_some() as u64;
                    value_ok(req.key, got)
                };
                w.failed += !ok as u64;
                w.applied += 1;
                if !TRACED && id % LAT_EVERY == 0 {
                    let at = ledger.enqueued_at[id as usize / BLOCK].load(Ordering::Relaxed);
                    w.lat.push(gate.now() - at);
                }
            }
        }
        gate.finish();
    });
    let after = snaps();
    let actives = [
        Some(counter.active_aggregators()),
        None,
        Some(map.active_aggregators()),
    ];
    let mut quiesce_ns = [0; 3];
    let t = Instant::now();
    counter.quiesce_reclamation(QUIESCE_ROUNDS);
    quiesce_ns[0] = since(t);
    let t = Instant::now();
    queue.quiesce_reclamation(QUIESCE_ROUNDS);
    quiesce_ns[1] = since(t);
    let t = Instant::now();
    map.quiesce_reclamation(QUIESCE_ROUNDS);
    quiesce_ns[2] = since(t);

    let ws = phase.states;
    let sum = |f: fn(&Worker) -> u64| ws.iter().map(f).sum::<u64>();
    let (requested, returned) = (sum(|w| w.requested), sum(|w| w.returned));
    let (gets, hits) = (sum(|w| w.gets), sum(|w| w.hits));
    let mut r = Round {
        ops: sum(|w| w.applied),
        wall_ns: phase.wall_ns,
        cpu_ns: phase.cpu_ns,
        latency: Latency::of(phase::merged(&mut plan.merged, &ws, |w| &w.lat)),
        construct_ns,
        prefill_ns,
        register_ns: sum(|w| w.register_ns) / plan.threads as u64,
        drop_ns: 0,
        attempted: ids,
        failed: 0,
        failures: Vec::new(),
        layers: Vec::new(),
    };
    r.fail(
        sum(|w| w.failed),
        "map values or request ids wrong during the phase".into(),
    );

    // The final drain: whatever the workers left queued is applied now,
    // after which every issued id must have been applied exactly once.
    let issued = counter.load();
    r.fail(
        issued.abs_diff(ids),
        format!("counter issued {issued} ids, expected {ids}"),
    );
    let (mut qh, mut mh) = (queue.register(), map.register());
    let mut stray = 0;
    while let Some(id) = qh.dequeue() {
        if !ledger.apply(id) {
            stray += 1;
            continue;
        }
        let req = plan.table[id as usize];
        let v = if req.insert {
            mh.insert(req.key, req.value)
        } else {
            mh.get(&req.key)
        };
        stray += !value_ok(req.key, v) as u64;
    }
    r.fail(stray, "the final drain found wrong ids or values".into());
    let unapplied = ledger
        .applied
        .iter()
        .filter(|a| a.load(Ordering::Relaxed) != 1)
        .count() as u64;
    r.fail(
        unapplied,
        format!("{unapplied} request ids not applied exactly once"),
    );
    let wrong_keys = (0..plan.keys)
        .filter(|&k| {
            let v = mh.get(&k);
            !value_ok(k, v) || v.is_some() != plan.mapped[k as usize]
        })
        .count() as u64;
    r.fail(
        wrong_keys,
        format!("{wrong_keys} keys hold a wrong mapping after the run"),
    );
    drop((qh, mh));

    let t = Instant::now();
    drop(map);
    drop(queue);
    drop(counter);
    r.drop_ns = since(t);

    if TRACED {
        let l = &mut r.layers;
        let m = &mut plan.merged;
        push_calls(
            l,
            "counter.fetch_add_ns",
            phase::merged(m, &ws, |w| &w.fetch_add_ns),
        );
        push_calls(
            l,
            "queue.enqueue_many_ns",
            phase::merged(m, &ws, |w| &w.enqueue_ns),
        );
        push_calls(
            l,
            "queue.dequeue_many_ns",
            phase::merged(m, &ws, |w| &w.dequeue_ns),
        );
        push_calls(l, "map.get_ns", phase::merged(m, &ws, |w| &w.get_ns));
        push_calls(l, "map.insert_ns", phase::merged(m, &ws, |w| &w.insert_ns));
        l.push(("queue.dequeue_fill_frac".into(), ratio(returned, requested)));
        l.push(("queue.items_requested".into(), requested as f64));
        l.push(("map.get_hit_frac".into(), ratio(hits, gets)));
        l.push(("map.gets".into(), gets as f64));
        for (i, name) in ["counter", "queue", "map"].into_iter().enumerate() {
            push_engine(l, name, &before[i], &after[i], actives[i], quiesce_ns[i]);
        }
    }
    plan.workers = ws;
    r
}
