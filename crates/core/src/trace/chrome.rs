//! Chrome-trace (Perfetto-loadable) JSON export.
//!
//! The [trace event format] is the lowest-common-denominator timeline
//! format: a JSON object with a `traceEvents` array whose entries carry
//! a name, a phase (`"X"` complete-span / `"i"` instant / `"M"`
//! metadata), microsecond timestamps, and pid/tid lanes. Both
//! `chrome://tracing` and [ui.perfetto.dev] open it directly.
//!
//! Span reconstruction: the recorder stores `combine` and `batch`
//! (freeze→publish residency) events with their *duration* as the
//! payload at the moment they end, so the dumper can emit proper `"X"`
//! spans (`ts = end - dur`) without pairing separate begin/end events
//! across rings.
//!
//! The JSON is hand-rolled — event names are static ASCII and every
//! argument is numeric, so no escaping machinery is needed (and the
//! repo deliberately carries no serde dependency).
//!
//! [trace event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//! [ui.perfetto.dev]: https://ui.perfetto.dev

use super::ring::{TraceEvent, TraceEventKind};
use std::collections::BTreeSet;
use std::fmt::Write;

/// Lane shown for control-plane events (`u32::MAX` is unfriendly to
/// trace viewers' lane sorting). Lane 0 so it sorts first, with every
/// real tid shifted up by one — an earlier version mapped the control
/// ring to lane 999 999, which silently merged a genuine thread with
/// tid 999 999 into the control lane. The shift is total (real tids
/// are `< u32::MAX` by the recorder's contract), so no real tid can
/// collide with any other lane.
const CONTROL_LANE: u32 = 0;

fn lane_tid(tid: u32) -> u32 {
    if tid == u32::MAX {
        CONTROL_LANE
    } else {
        tid + 1
    }
}

/// Label of a lane: `control` for the control plane, otherwise the
/// *raw* recorder tid (undoing the +1 lane shift) so labels match what
/// the rest of the tooling prints.
fn lane_label(lane: u32) -> String {
    if lane == CONTROL_LANE {
        "control".to_string()
    } else {
        format!("thread {}", lane - 1)
    }
}

fn push_instant(out: &mut String, name: &str, ts_ns: u64, tid: u32, args: &[(&str, u64)]) {
    let _ = write!(
        out,
        r#"{{"name":"{name}","ph":"i","s":"t","ts":{:.3},"pid":1,"tid":{}"#,
        ts_ns as f64 / 1_000.0,
        lane_tid(tid),
    );
    push_args(out, args);
    out.push_str("},\n");
}

fn push_span(
    out: &mut String,
    name: &str,
    end_ns: u64,
    dur_ns: u64,
    tid: u32,
    args: &[(&str, u64)],
) {
    let _ = write!(
        out,
        r#"{{"name":"{name}","ph":"X","ts":{:.3},"dur":{:.3},"pid":1,"tid":{}"#,
        end_ns.saturating_sub(dur_ns) as f64 / 1_000.0,
        dur_ns as f64 / 1_000.0,
        lane_tid(tid),
    );
    push_args(out, args);
    out.push_str("},\n");
}

fn push_args(out: &mut String, args: &[(&str, u64)]) {
    if args.is_empty() {
        return;
    }
    out.push_str(r#","args":{"#);
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, r#""{k}":{v}"#);
    }
    out.push('}');
}

/// Renders a merged event stream (from
/// [`TraceRecorder::events`](super::TraceRecorder::events)) as a
/// Chrome-trace JSON document.
///
/// Instant events keep their kind name; `combine` and `batch`
/// (freeze→publish) become duration spans on the recording thread's
/// lane. Control-plane events land on a dedicated `control` lane.
///
/// # Examples
///
/// ```
/// use sec_core::trace::{chrome_trace_json, TraceEvent, TraceEventKind, TraceLane};
/// let events = [TraceEvent {
///     ts_ns: 1_500,
///     tid: 0,
///     agg: 0,
///     kind: TraceEventKind::Announce { lane: TraceLane::Add, seq: 3 },
/// }];
/// let json = chrome_trace_json(&events);
/// assert!(json.contains("\"traceEvents\""));
/// assert!(json.contains("\"announce\""));
/// ```
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 1024);
    out.push_str("{\"traceEvents\":[\n");
    out.push_str(
        r#"{"name":"process_name","ph":"M","pid":1,"args":{"name":"sec combining engine"}}"#,
    );
    out.push_str(",\n");
    // Name the lanes that appear, once each, in ascending lane order
    // (control first, then threads by tid — deterministic regardless
    // of event interleaving). The set also replaces the previous
    // per-event `Vec::contains` scan, which was O(events × lanes).
    let lanes: BTreeSet<u32> = events.iter().map(|e| lane_tid(e.tid)).collect();
    for lane in lanes {
        let _ = writeln!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\"args\":{{\"name\":\"{}\"}}}},",
            lane_label(lane),
        );
    }
    for e in events {
        let agg = e.agg as u64;
        match e.kind {
            TraceEventKind::Announce { lane, seq } => push_instant(
                &mut out,
                e.kind.name(),
                e.ts_ns,
                e.tid,
                &[("agg", agg), ("lane", lane as u64), ("seq", seq as u64)],
            ),
            TraceEventKind::FreezerElected => {
                push_instant(&mut out, e.kind.name(), e.ts_ns, e.tid, &[("agg", agg)])
            }
            TraceEventKind::BatchFrozen { adds, removes } => push_instant(
                &mut out,
                e.kind.name(),
                e.ts_ns,
                e.tid,
                &[
                    ("agg", agg),
                    ("adds", adds as u64),
                    ("removes", removes as u64),
                    ("degree", adds as u64 + removes as u64),
                ],
            ),
            TraceEventKind::CombineStart { lane } | TraceEventKind::Alone { lane } => push_instant(
                &mut out,
                e.kind.name(),
                e.ts_ns,
                e.tid,
                &[("agg", agg), ("lane", lane as u64)],
            ),
            TraceEventKind::CombineEnd { dur_ns } => push_span(
                &mut out,
                e.kind.name(),
                e.ts_ns,
                dur_ns,
                e.tid,
                &[("agg", agg)],
            ),
            TraceEventKind::Publish { residency_ns } => push_span(
                &mut out,
                e.kind.name(),
                e.ts_ns,
                residency_ns,
                e.tid,
                &[("agg", agg)],
            ),
            TraceEventKind::Park | TraceEventKind::Unpark => {
                push_instant(&mut out, e.kind.name(), e.ts_ns, e.tid, &[("agg", agg)])
            }
            TraceEventKind::Grow { k } | TraceEventKind::Shrink { k } => {
                push_instant(&mut out, e.kind.name(), e.ts_ns, e.tid, &[("k", k as u64)])
            }
            TraceEventKind::RecycleOverflow { count } => push_instant(
                &mut out,
                e.kind.name(),
                e.ts_ns,
                e.tid,
                &[("agg", agg), ("count", count)],
            ),
        }
    }
    // Strip the trailing ",\n" left by the last event (there is always
    // at least the process_name metadata entry).
    if out.ends_with(",\n") {
        out.truncate(out.len() - 2);
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::super::ring::TraceLane;
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                ts_ns: 1_000,
                tid: 0,
                agg: 0,
                kind: TraceEventKind::Announce {
                    lane: TraceLane::Add,
                    seq: 0,
                },
            },
            TraceEvent {
                ts_ns: 2_000,
                tid: 0,
                agg: 0,
                kind: TraceEventKind::BatchFrozen {
                    adds: 3,
                    removes: 2,
                },
            },
            TraceEvent {
                ts_ns: 9_000,
                tid: 1,
                agg: 0,
                kind: TraceEventKind::Publish {
                    residency_ns: 7_000,
                },
            },
            TraceEvent {
                ts_ns: 9_500,
                tid: u32::MAX,
                agg: 0,
                kind: TraceEventKind::Grow { k: 3 },
            },
        ]
    }

    #[test]
    fn output_shape_is_chrome_trace() {
        let json = chrome_trace_json(&sample_events());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        // Residency span: starts at (9000-7000)/1000 µs with dur 7 µs.
        assert!(json.contains(r#""name":"batch","ph":"X","ts":2.000,"dur":7.000"#));
        assert!(json.contains(r#""degree":5"#));
        assert!(json.contains(r#""name":"control"#));
        // No dangling comma before the array close.
        assert!(!json.contains(",\n]"));
    }

    #[test]
    fn lone_ops_export_as_instants_with_their_lane() {
        let json = chrome_trace_json(&[TraceEvent {
            ts_ns: 3_000,
            tid: 2,
            agg: 1,
            kind: TraceEventKind::Alone {
                lane: TraceLane::Remove,
            },
        }]);
        assert!(json.contains(r#""name":"alone","ph":"i","s":"t","ts":3.000,"pid":1,"tid":3"#));
        assert!(json.contains(r#""agg":1,"lane":1"#));
    }

    /// Regression: the control lane used to be a fixed tid 999 999,
    /// which silently merged a genuine thread with that tid into the
    /// control lane. The +1 lane shift keeps them apart.
    #[test]
    fn tid_999999_does_not_collide_with_control() {
        let events = [
            TraceEvent {
                ts_ns: 1_000,
                tid: 999_999,
                agg: 0,
                kind: TraceEventKind::Announce {
                    lane: TraceLane::Add,
                    seq: 0,
                },
            },
            TraceEvent {
                ts_ns: 2_000,
                tid: u32::MAX,
                agg: 0,
                kind: TraceEventKind::Grow { k: 2 },
            },
        ];
        let json = chrome_trace_json(&events);
        // Two distinct lanes, each with its own metadata entry.
        assert!(json.contains(r#""tid":1000000,"args":{"name":"thread 999999"}"#));
        assert!(json.contains(&format!(
            r#""tid":{CONTROL_LANE},"args":{{"name":"control"}}"#
        )));
        // The thread's event is on its own lane, not the control lane.
        assert!(
            json.contains(r#""name":"announce","ph":"i","s":"t","ts":1.000,"pid":1,"tid":1000000"#)
        );
        assert!(json.contains(&format!(
            r#""name":"grow","ph":"i","s":"t","ts":2.000,"pid":1,"tid":{CONTROL_LANE}"#
        )));
    }

    /// Lane metadata comes out in ascending lane order (control first,
    /// then threads by tid) no matter how the events interleave.
    #[test]
    fn lane_metadata_is_sorted_and_unique() {
        let mut events = sample_events();
        events.reverse(); // control event first, threads out of order
        let json = chrome_trace_json(&events);
        let tids: Vec<&str> = json
            .lines()
            .filter(|l| l.contains("thread_name"))
            .map(|l| {
                let start = l.find("\"tid\":").unwrap() + 6;
                let end = l[start..].find(',').unwrap() + start;
                &l[start..end]
            })
            .collect();
        assert_eq!(
            tids,
            ["0", "1", "2"],
            "control lane 0, then tids 0,1 shifted"
        );
        let labels: Vec<bool> = json
            .lines()
            .filter(|l| l.contains("thread_name"))
            .map(|l| l.contains("control"))
            .collect();
        assert_eq!(labels, [true, false, false]);
    }

    #[test]
    fn empty_stream_is_still_valid() {
        let json = chrome_trace_json(&[]);
        assert!(json.contains("traceEvents"));
        assert!(!json.contains(",\n]"));
    }

    /// A no-dependency structural check: balanced braces/brackets and
    /// quotes outside of any string context — catches the classes of
    /// hand-rolled-JSON bugs (dangling commas aside, asserted above).
    #[test]
    fn braces_and_quotes_balance() {
        let json = chrome_trace_json(&sample_events());
        let mut depth = 0i64;
        let mut in_str = false;
        for c in json.chars() {
            match c {
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }
}
