//! Fixed-capacity lock-free event rings.
//!
//! One ring per registered thread (plus one control ring for events
//! with no owning thread, e.g. a manual aggregator resize). Recording
//! claims a slot with a relaxed `fetch_add` on a monotonically growing
//! head and writes the event as four relaxed atomic words — no locks,
//! no allocation, and at capacity the ring silently overwrites its
//! oldest entries, so a long run keeps the most recent window.
//!
//! `drain` is a reporting-path operation: it snapshots the last ≤
//! capacity events in claim order. Concurrent recording during a drain
//! cannot corrupt memory (every word is atomic) but can tear an
//! in-flight event across old/new words; drain at quiescence when
//! exactness matters (the dump paths do).

use core::sync::atomic::{AtomicU64, Ordering};

/// Which side of a batch an operation announced on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceLane {
    /// The insert lane (push / enqueue / add / insert).
    Add,
    /// The remove lane (pop / dequeue / read / remove).
    Remove,
}

impl TraceLane {
    fn code(self) -> u64 {
        match self {
            TraceLane::Add => 0,
            TraceLane::Remove => 1,
        }
    }

    fn from_code(c: u64) -> Self {
        if c == 0 {
            TraceLane::Add
        } else {
            TraceLane::Remove
        }
    }

    /// Short human label (`add` / `rem`).
    pub fn label(self) -> &'static str {
        match self {
            TraceLane::Add => "add",
            TraceLane::Remove => "rem",
        }
    }
}

/// One protocol-lifecycle event (DESIGN.md §14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// An operation joined a batch: `fetch_add` on the lane counter
    /// returned `seq`.
    Announce {
        /// The lane announced on.
        lane: TraceLane,
        /// The sequence number the announce drew.
        seq: u32,
    },
    /// This thread won the freezer election (drew sequence 0 and the
    /// `freezer_decided` test-and-set).
    FreezerElected,
    /// The freezer snapshotted the lane cuts and swapped in a fresh
    /// batch; `adds + removes` is the batch degree.
    BatchFrozen {
        /// Add-lane announcements at the freeze cut.
        adds: u32,
        /// Remove-lane announcements at the freeze cut.
        removes: u32,
    },
    /// The surviving combiner began applying the batch.
    CombineStart {
        /// The combiner's own lane.
        lane: TraceLane,
    },
    /// The combiner finished applying the batch.
    CombineEnd {
        /// Combine duration in nanoseconds.
        dur_ns: u64,
    },
    /// The batch result was published (`mark_applied`); waiters are
    /// released.
    Publish {
        /// Freeze→publish batch residency in nanoseconds.
        residency_ns: u64,
    },
    /// The operation entered its blocking wait (spin budget exhausted
    /// or first park, per the wait policy).
    Park,
    /// The operation came back from its blocking wait.
    Unpark,
    /// The aggregator layer grew to `k` active aggregators.
    Grow {
        /// Active-aggregator count after the step.
        k: u32,
    },
    /// The aggregator layer shrank to `k` active aggregators.
    Shrink {
        /// Active-aggregator count after the step.
        k: u32,
    },
    /// A lone operation skipped the batch and applied itself straight
    /// to the shared structure (DESIGN.md §12 "Lone operations").
    Alone {
        /// The operation's lane.
        lane: TraceLane,
    },
    /// The thread's recycle cache overflowed `count` more blocks into
    /// the global pool since its last recorded overflow event.
    RecycleOverflow {
        /// Newly overflowed block count.
        count: u64,
    },
}

impl TraceEventKind {
    /// Short stable name (the Chrome-trace event name).
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::Announce { .. } => "announce",
            TraceEventKind::FreezerElected => "freezer_elected",
            TraceEventKind::BatchFrozen { .. } => "batch_frozen",
            TraceEventKind::CombineStart { .. } => "combine_start",
            TraceEventKind::CombineEnd { .. } => "combine",
            TraceEventKind::Publish { .. } => "batch",
            TraceEventKind::Park => "park",
            TraceEventKind::Unpark => "unpark",
            TraceEventKind::Grow { .. } => "grow",
            TraceEventKind::Shrink { .. } => "shrink",
            TraceEventKind::RecycleOverflow { .. } => "recycle_overflow",
            TraceEventKind::Alone { .. } => "alone",
        }
    }

    /// Packs the kind into `(code, a, b)`; code 0 marks an unwritten
    /// slot, so kinds start at 1.
    fn encode(self) -> (u64, u64, u64) {
        match self {
            TraceEventKind::Announce { lane, seq } => (1, lane.code(), seq as u64),
            TraceEventKind::FreezerElected => (2, 0, 0),
            TraceEventKind::BatchFrozen { adds, removes } => (3, adds as u64, removes as u64),
            TraceEventKind::CombineStart { lane } => (4, lane.code(), 0),
            TraceEventKind::CombineEnd { dur_ns } => (5, dur_ns, 0),
            TraceEventKind::Publish { residency_ns } => (6, residency_ns, 0),
            TraceEventKind::Park => (7, 0, 0),
            TraceEventKind::Unpark => (8, 0, 0),
            TraceEventKind::Grow { k } => (9, k as u64, 0),
            TraceEventKind::Shrink { k } => (10, k as u64, 0),
            TraceEventKind::RecycleOverflow { count } => (11, count, 0),
            TraceEventKind::Alone { lane } => (12, lane.code(), 0),
        }
    }

    fn decode(code: u64, a: u64, b: u64) -> Option<Self> {
        Some(match code {
            1 => TraceEventKind::Announce {
                lane: TraceLane::from_code(a),
                seq: b as u32,
            },
            2 => TraceEventKind::FreezerElected,
            3 => TraceEventKind::BatchFrozen {
                adds: a as u32,
                removes: b as u32,
            },
            4 => TraceEventKind::CombineStart {
                lane: TraceLane::from_code(a),
            },
            5 => TraceEventKind::CombineEnd { dur_ns: a },
            6 => TraceEventKind::Publish { residency_ns: a },
            7 => TraceEventKind::Park,
            8 => TraceEventKind::Unpark,
            9 => TraceEventKind::Grow { k: a as u32 },
            10 => TraceEventKind::Shrink { k: a as u32 },
            11 => TraceEventKind::RecycleOverflow { count: a },
            12 => TraceEventKind::Alone {
                lane: TraceLane::from_code(a),
            },
            _ => return None,
        })
    }
}

/// One timestamped, thread- and aggregator-attributed event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the recorder was created.
    pub ts_ns: u64,
    /// Dense thread id of the recording thread (`u32::MAX` for
    /// control-plane events with no owning registered thread).
    pub tid: u32,
    /// Aggregator index the event concerns (0 when not applicable).
    pub agg: u32,
    /// What happened.
    pub kind: TraceEventKind,
}

/// Event storage: four atomic words per slot.
struct Slot {
    words: [AtomicU64; 4],
}

/// A fixed-capacity overwrite-oldest event ring.
///
/// Single-writer by convention (each registered thread records only
/// into its own ring); the head claim is atomic, so the occasional
/// multi-writer use (the control ring) stays memory-safe.
pub struct EventRing {
    /// Total events ever claimed (monotonic; `head % capacity` is the
    /// next write position).
    head: AtomicU64,
    /// Per-thread operation counter driving the sampling decision.
    ops: AtomicU64,
    /// Watermark of the thread's recycle-overflow counter, for
    /// emitting deltas as events.
    overflows_seen: AtomicU64,
    slots: Box<[Slot]>,
}

impl EventRing {
    /// Creates a ring holding the most recent `capacity` events
    /// (rounded up to a power of two, minimum 8).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        Self {
            head: AtomicU64::new(0),
            ops: AtomicU64::new(0),
            overflows_seen: AtomicU64::new(0),
            slots: (0..cap)
                .map(|_| Slot {
                    words: [
                        AtomicU64::new(0),
                        AtomicU64::new(0),
                        AtomicU64::new(0),
                        AtomicU64::new(0),
                    ],
                })
                .collect(),
        }
    }

    /// Ring capacity (a power of two).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Advances the owning thread's op counter and reports whether this
    /// operation is sampled (`true` once per `mask + 1` ops).
    #[inline]
    pub(crate) fn tick(&self, mask: u64) -> bool {
        let n = self.ops.fetch_add(1, Ordering::Relaxed);
        n & mask == 0
    }

    /// Updates the recycle-overflow watermark to `current` and returns
    /// the positive delta, if any.
    pub(crate) fn overflow_delta(&self, current: u64) -> Option<u64> {
        let seen = self.overflows_seen.swap(current, Ordering::Relaxed);
        (current > seen).then(|| current - seen)
    }

    /// Appends `ev`, overwriting the oldest event when full. Wait-free
    /// and allocation-free.
    #[inline]
    pub fn record(&self, ev: TraceEvent) {
        let idx = self.head.fetch_add(1, Ordering::Relaxed) as usize & (self.slots.len() - 1);
        let (code, a, b) = ev.kind.encode();
        let meta = ((ev.tid as u64) << 32) | ((ev.agg as u64 & 0xFF_FFFF) << 8) | code;
        let w = &self.slots[idx].words;
        w[0].store(ev.ts_ns, Ordering::Relaxed);
        w[2].store(a, Ordering::Relaxed);
        w[3].store(b, Ordering::Relaxed);
        // The meta word carries the kind code; writing it last (with
        // release ordering) keeps a racing drain from decoding a slot
        // whose payload words are still the previous event's.
        w[1].store(meta, Ordering::Release);
    }

    /// Snapshots the surviving events, oldest first (the last
    /// ≤ `capacity` recorded). Allocation happens here, off the hot
    /// path; see the module docs for the concurrency caveat.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let n = head.min(cap);
        let mut out = Vec::with_capacity(n as usize);
        for i in head - n..head {
            let w = &self.slots[(i % cap) as usize].words;
            let meta = w[1].load(Ordering::Acquire);
            let (code, a, b) = (
                meta & 0xFF,
                w[2].load(Ordering::Relaxed),
                w[3].load(Ordering::Relaxed),
            );
            if let Some(kind) = TraceEventKind::decode(code, a, b) {
                out.push(TraceEvent {
                    ts_ns: w[0].load(Ordering::Relaxed),
                    tid: (meta >> 32) as u32,
                    agg: ((meta >> 8) & 0xFF_FFFF) as u32,
                    kind,
                });
            }
        }
        out
    }
}

impl core::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EventRing")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: i,
            tid: 1,
            agg: (i % 3) as u32,
            kind: TraceEventKind::Announce {
                lane: if i.is_multiple_of(2) {
                    TraceLane::Add
                } else {
                    TraceLane::Remove
                },
                seq: i as u32,
            },
        }
    }

    #[test]
    fn drain_of_partial_ring_preserves_order() {
        let r = EventRing::new(16);
        for i in 0..5 {
            r.record(ev(i));
        }
        let got = r.drain();
        assert_eq!(got.len(), 5);
        for (i, e) in got.iter().enumerate() {
            assert_eq!(*e, ev(i as u64));
        }
    }

    #[test]
    fn overwrite_at_capacity_keeps_the_newest_window() {
        let r = EventRing::new(8);
        assert_eq!(r.capacity(), 8);
        // Write 2× capacity; the drain must return exactly the last 8,
        // oldest first.
        for i in 0..16 {
            r.record(ev(i));
        }
        assert_eq!(r.recorded(), 16);
        let got = r.drain();
        assert_eq!(got.len(), 8);
        for (j, e) in got.iter().enumerate() {
            assert_eq!(*e, ev(8 + j as u64), "slot {j}");
        }
    }

    #[test]
    fn every_kind_round_trips() {
        let kinds = [
            TraceEventKind::Announce {
                lane: TraceLane::Remove,
                seq: 17,
            },
            TraceEventKind::FreezerElected,
            TraceEventKind::BatchFrozen {
                adds: 5,
                removes: 9,
            },
            TraceEventKind::CombineStart {
                lane: TraceLane::Add,
            },
            TraceEventKind::CombineEnd { dur_ns: 12_345 },
            TraceEventKind::Publish { residency_ns: 999 },
            TraceEventKind::Park,
            TraceEventKind::Unpark,
            TraceEventKind::Grow { k: 4 },
            TraceEventKind::Shrink { k: 3 },
            TraceEventKind::RecycleOverflow { count: 2 },
            TraceEventKind::Alone {
                lane: TraceLane::Remove,
            },
        ];
        let r = EventRing::new(kinds.len());
        for (i, &kind) in kinds.iter().enumerate() {
            r.record(TraceEvent {
                ts_ns: i as u64,
                tid: 7,
                agg: 2,
                kind,
            });
        }
        let got = r.drain();
        assert_eq!(got.len(), kinds.len());
        for (i, e) in got.iter().enumerate() {
            assert_eq!(e.kind, kinds[i]);
            assert_eq!(e.tid, 7);
            assert_eq!(e.agg, 2);
        }
    }

    #[test]
    fn sampling_tick_fires_once_per_period() {
        let r = EventRing::new(8);
        let mask = (1u64 << 3) - 1; // every 8th op
        let fired = (0..64).filter(|_| r.tick(mask)).count();
        assert_eq!(fired, 8);
        // mask 0 samples everything
        let r2 = EventRing::new(8);
        assert!((0..10).all(|_| r2.tick(0)));
    }

    #[test]
    fn overflow_delta_reports_increments_once() {
        let r = EventRing::new(8);
        assert_eq!(r.overflow_delta(0), None);
        assert_eq!(r.overflow_delta(3), Some(3));
        assert_eq!(r.overflow_delta(3), None);
        assert_eq!(r.overflow_delta(10), Some(7));
    }
}
