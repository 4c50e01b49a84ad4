//! Integration: sec-trace event semantics (DESIGN.md §14).
//!
//! Only meaningful when the engine's hooks are compiled in, so the
//! whole binary is gated on the `trace` feature:
//!
//! ```text
//! cargo test --features trace --test trace_events
//! ```
//!
//! A single-threaded run is a seeded schedule: every op announces with
//! sequence 0, elects itself freezer, freezes a degree-1 batch,
//! combines it and publishes — so the event stream's *order* is fully
//! determined and can be asserted exactly, not just statistically.
//! Those runs hold a second, idle handle: a lone handle skips the batch
//! altogether (DESIGN.md §12 "Lone operations"), which
//! `a_lone_handle_records_alone_events_and_no_batch_lifecycle` checks.

#![cfg(feature = "trace")]

use sec_repro::trace::{chrome_trace_json, TraceEvent, TraceEventKind, TraceLane};
use sec_repro::{SecConfig, SecStack, TraceConfig};

/// The traced stack configuration: every op sampled, rings large
/// enough to keep a whole run.
fn traced_stack(max_threads: usize) -> SecStack<u64> {
    SecStack::with_config(
        SecConfig::new(2, max_threads)
            .freezer_yields(0)
            .trace(TraceConfig::on().sample_shift(0).ring_capacity(8192)),
    )
}

/// A traced single-threaded stack run: `ops` push/pop pairs, sampling
/// every op, then the drained (timestamp-sorted) event stream. A
/// second handle stays registered but idle, so every op runs the batch
/// protocol instead of the lone path.
fn traced_run(ops: u64) -> (SecStack<u64>, Vec<TraceEvent>) {
    let stack = traced_stack(2);
    {
        let _idle = stack.register();
        let mut h = stack.register();
        for i in 0..ops {
            h.push(i);
            assert_eq!(h.pop(), Some(i));
        }
    }
    let events = stack.tracer().expect("feature builds a recorder").events();
    (stack, events)
}

#[test]
fn single_threaded_ops_emit_the_protocol_lifecycle_in_order() {
    let (_stack, events) = traced_run(16);
    assert!(!events.is_empty(), "sampled run must record events");

    // Single-threaded, the per-op lifecycle is exact: announce (seq 0),
    // self-election, degree-1 freeze, combine bracket, publish. The
    // ring holds far more than 16 ops' worth, so nothing was dropped
    // and the *first* op's prefix must open the stream.
    let kinds: Vec<&TraceEventKind> = events.iter().map(|e| &e.kind).collect();
    assert!(
        matches!(kinds[0], TraceEventKind::Announce { seq: 0, .. }),
        "stream must open with the first op's announce, got {:?}",
        kinds[0]
    );
    assert!(
        matches!(kinds[1], TraceEventKind::FreezerElected),
        "seq 0 must elect itself freezer, got {:?}",
        kinds[1]
    );
    assert!(
        matches!(kinds[2], TraceEventKind::BatchFrozen { adds, removes } if adds + removes == 1),
        "single-threaded batches have degree 1, got {:?}",
        kinds[2]
    );

    // Combine brackets pair up and never nest (one combiner at a time
    // per aggregator; single-threaded, globally).
    let mut open = 0i64;
    let mut publishes = 0u64;
    for k in &kinds {
        match k {
            TraceEventKind::CombineStart { .. } => {
                open += 1;
                assert_eq!(open, 1, "combine brackets must not nest");
            }
            TraceEventKind::CombineEnd { .. } => {
                open -= 1;
                assert_eq!(open, 0, "combine end without start");
            }
            TraceEventKind::Publish { .. } => publishes += 1,
            _ => {}
        }
    }
    assert_eq!(open, 0, "every combine bracket must close");
    assert_eq!(publishes, 32, "every op (16 pairs) publishes its batch");

    // events() returns timestamp order.
    for w in events.windows(2) {
        assert!(w[0].ts_ns <= w[1].ts_ns, "events must be time-sorted");
    }
    // No parks in a single-threaded run: nobody to wait for.
    assert!(
        !kinds
            .iter()
            .any(|k| matches!(k, TraceEventKind::Park | TraceEventKind::Unpark)),
        "single-threaded runs never block"
    );
}

#[test]
fn phase_histograms_cover_every_sampled_op() {
    let (stack, _events) = traced_run(64);
    let t = stack.tracer().unwrap();
    // 128 ops, all sampled: each waits announce→freeze (a degree-1
    // wait, but still timed), combines, and completes.
    assert_eq!(t.op_latency().count(), 128);
    assert_eq!(t.announce_to_freeze().count(), 128);
    assert_eq!(t.combine_duration().count(), 128);
    assert_eq!(t.batch_residency().count(), 128);
    // Residency (freeze→publish) is contained in op latency.
    assert!(t.batch_residency().max() <= t.op_latency().max());
}

#[test]
fn a_lone_handle_records_alone_events_and_no_batch_lifecycle() {
    let stack = traced_stack(1);
    {
        let mut h = stack.register();
        for i in 0..16u64 {
            h.push(i);
            assert_eq!(h.pop(), Some(i));
        }
    }
    let t = stack.tracer().expect("feature builds a recorder");
    let events = t.events();
    let lanes: Vec<TraceLane> = events
        .iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::Alone { lane } => Some(lane),
            _ => None,
        })
        .collect();
    assert_eq!(
        lanes.len(),
        32,
        "one alone event per sampled op: {events:?}"
    );
    assert!(lanes
        .chunks(2)
        .all(|p| p == [TraceLane::Add, TraceLane::Remove]));
    assert!(
        !events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::FreezerElected)),
        "a lone op elects no freezer"
    );
    assert_eq!(
        events.len(),
        32,
        "nothing of the batch protocol: {events:?}"
    );
    assert_eq!(t.op_latency().count(), 32);
    assert!(t.announce_to_freeze().is_empty());
    let r = stack.stats().report();
    assert_eq!((r.alone, r.batches, r.ops), (32, 32, 32));
    assert!(chrome_trace_json(&events).contains("\"alone\""));
}

#[test]
fn resize_steps_land_on_the_control_ring() {
    // Adaptive [1, 4], starting at 4: a fixed policy would clamp every
    // explicit resize back to its K and record nothing.
    let stack: SecStack<u64> =
        SecStack::with_config(SecConfig::adaptive(1, 4, 1).trace(TraceConfig::on()));
    // Adaptive structures start at the known-good K = 2; step down
    // then up so both directions record.
    stack.set_active_aggregators(1);
    stack.set_active_aggregators(3);
    let events = stack.tracer().unwrap().events();
    let steps: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                TraceEventKind::Grow { .. } | TraceEventKind::Shrink { .. }
            )
        })
        .collect();
    assert_eq!(steps.len(), 2, "one event per resize step: {events:?}");
    assert!(matches!(steps[0].kind, TraceEventKind::Shrink { k: 1 }));
    assert!(matches!(steps[1].kind, TraceEventKind::Grow { k: 3 }));
    for s in steps {
        assert_eq!(s.tid, u32::MAX, "control-plane events carry no tid");
    }
}

#[test]
fn chrome_dump_is_structurally_valid_json() {
    let (_stack, events) = traced_run(8);
    let json = chrome_trace_json(&events);
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.trim_end().ends_with('}'));
    // Balanced braces/brackets outside strings — the structural check
    // the nightly smoke does with a real JSON parser.
    let (mut depth, mut in_str, mut esc) = (0i64, false, false);
    for c in json.chars() {
        if esc {
            esc = false;
            continue;
        }
        match c {
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '{' | '[' if !in_str => depth += 1,
            '}' | ']' if !in_str => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0, "unbalanced close");
    }
    assert_eq!(depth, 0, "unbalanced JSON nesting");
    assert!(!in_str, "unterminated string");
    // Spans for the batch lifecycle made it in.
    assert!(json.contains("\"combine\""));
    assert!(json.contains("\"batch\""));
}
