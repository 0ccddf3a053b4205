//! Chrome-trace-event export (Perfetto-loadable) and schema validation.
//!
//! The recorder's spans nest *lexically* (call nesting), but in virtual
//! time they may overlap arbitrarily: the pipelined data path issues
//! per-benefactor chunk chains whose completion times interleave, and async
//! write-backs outlive the request that triggered them. Chrome's duration
//! events (`ph: "B"/"E"`) require properly nested, time-ordered pairs per
//! `tid`, so the exporter greedily splits each lane into as many sub-tracks
//! as the overlap needs — every track holds a properly nested set of
//! intervals, so balanced B/E emission is guaranteed by construction.

use crate::json::{self, escape_into, Value};
use crate::sampler::GaugeSeries;
use crate::trace::{SpanRecord, TraceRecorder};
use simcore::VTime;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

const PID: u32 = 1;

/// Microsecond timestamp with exact nanosecond fraction (deterministic:
/// integer math only, no float formatting).
fn ts_us(t: VTime) -> String {
    let ns = t.as_nanos();
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn push_event_prefix(out: &mut String, name: &str, cat: &str, ph: char, t: VTime, tid: u32) {
    out.push_str("{\"name\":\"");
    escape_into(out, name);
    let _ = write!(
        out,
        "\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":{}",
        cat,
        ph,
        ts_us(t),
        PID,
        tid
    );
}

fn push_span_begin(out: &mut String, s: &SpanRecord, tid: u32) {
    push_event_prefix(out, s.name, s.layer.as_str(), 'B', s.start, tid);
    out.push_str(",\"args\":{");
    for (i, (k, v)) in s.args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":{v}");
    }
    out.push_str("}}");
}

fn push_span_end(out: &mut String, s: &SpanRecord, tid: u32) {
    push_event_prefix(out, s.name, s.layer.as_str(), 'E', s.end, tid);
    out.push('}');
}

/// One half of a causal flow arrow. `ph:"s"` goes inside the *source*
/// slice, `ph:"f"` with `bp:"e"` inside the destination slice; the shared
/// `id` is the destination span's id (unique: a span has at most one
/// incoming link). Both halves reuse their slice's begin timestamp, so
/// per-track ts monotonicity is preserved by construction.
fn push_flow(out: &mut String, ph: char, t: VTime, tid: u32, id: u32) {
    push_event_prefix(out, "causal", "flow", ph, t, tid);
    let _ = write!(out, ",\"id\":{id}");
    if ph == 'f' {
        out.push_str(",\"bp\":\"e\"");
    }
    out.push('}');
}

fn push_meta(out: &mut String, what: &str, tid: u32, name: &str) {
    let _ = write!(
        out,
        "{{\"name\":\"{what}\",\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\"ts\":0,\"args\":{{\"name\":\""
    );
    escape_into(out, name);
    out.push_str("\"}}");
}

/// Split one lane's spans (sorted by `(start, id)`) into sub-tracks whose
/// intervals are properly nested.
fn assign_tracks(spans: &[SpanRecord], ids: &[u32]) -> Vec<Vec<u32>> {
    // Per track: the ids placed on it, plus a stack of still-open end times
    // mirroring what B/E emission will see.
    let mut placed: Vec<Vec<u32>> = Vec::new();
    let mut stacks: Vec<Vec<VTime>> = Vec::new();
    for &sid in ids {
        let s = &spans[sid as usize];
        let mut done = false;
        for (track, stack) in stacks.iter_mut().enumerate() {
            while stack.last().is_some_and(|&end| end <= s.start) {
                stack.pop();
            }
            let fits = stack.last().is_none_or(|&end| end >= s.end);
            if fits {
                stack.push(s.end);
                placed[track].push(sid);
                done = true;
                break;
            }
        }
        if !done {
            stacks.push(vec![s.end]);
            placed.push(vec![sid]);
        }
    }
    placed
}

impl TraceRecorder {
    /// Render the whole trace as a Chrome trace-event JSON document.
    /// Deterministic: identical recorded spans produce identical bytes.
    pub fn chrome_trace(&self) -> String {
        self.chrome_trace_with_series(&[])
    }

    /// Like [`TraceRecorder::chrome_trace`], additionally rendering each
    /// gauge series as a Chrome counter track (`ph:"C"`, one `value` arg
    /// per sample) on a dedicated "metrics" thread. Causal links are
    /// rendered as flow-event pairs so Perfetto draws the cross-lane
    /// arrows.
    pub fn chrome_trace_with_series(&self, series: &[GaugeSeries]) -> String {
        let spans = self.spans();
        let instants = self.instants();
        let labels = self.lane_labels();

        // Causal links, indexed from the *source* side: flow-start events
        // must be emitted inside the source slice, which is usually on a
        // different lane from the linked span that stores the edge.
        let mut flow_dests: HashMap<u32, Vec<u32>> = HashMap::new();
        for s in &spans {
            if let Some(src) = s.link {
                flow_dests.entry(src).or_default().push(s.id);
            }
        }
        for dests in flow_dests.values_mut() {
            dests.sort_unstable();
        }

        let mut by_lane: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for s in &spans {
            by_lane.entry(s.lane).or_default().push(s.id);
        }
        for ids in by_lane.values_mut() {
            ids.sort_by_key(|&id| (spans[id as usize].start, id));
        }

        let mut out = String::with_capacity(256 + 160 * (spans.len() * 2 + instants.len()));
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        let mut first = true;
        let mut emit = |out: &mut String, piece: &mut dyn FnMut(&mut String)| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            piece(out);
        };

        emit(&mut out, &mut |o| {
            push_meta(o, "process_name", 0, "nvmalloc-sim")
        });

        let mut next_tid = 1u32;
        for (&lane, ids) in &by_lane {
            let tracks = assign_tracks(&spans, ids);
            let label = labels
                .get(&lane)
                .cloned()
                .unwrap_or_else(|| format!("lane {lane}"));
            for (ti, track) in tracks.iter().enumerate() {
                let tid = next_tid;
                next_tid += 1;
                let tname = if ti == 0 {
                    label.clone()
                } else {
                    format!("{label} (async {ti})")
                };
                emit(&mut out, &mut |o| push_meta(o, "thread_name", tid, &tname));
                // Balanced B/E emission: stack mirrors assign_tracks.
                let mut open: Vec<u32> = Vec::new();
                for &sid in track {
                    let s = &spans[sid as usize];
                    while open
                        .last()
                        .is_some_and(|&t| spans[t as usize].end <= s.start)
                    {
                        let top = &spans[*open.last().unwrap() as usize];
                        emit(&mut out, &mut |o| push_span_end(o, top, tid));
                        open.pop();
                    }
                    emit(&mut out, &mut |o| push_span_begin(o, s, tid));
                    // Flow halves ride directly behind the B they belong
                    // to, at the same ts (monotonicity-safe).
                    if s.link.is_some() {
                        emit(&mut out, &mut |o| push_flow(o, 'f', s.start, tid, s.id));
                    }
                    if let Some(dests) = flow_dests.get(&sid) {
                        for &d in dests {
                            emit(&mut out, &mut |o| push_flow(o, 's', s.start, tid, d));
                        }
                    }
                    open.push(sid);
                }
                while let Some(sid) = open.pop() {
                    let s = &spans[sid as usize];
                    emit(&mut out, &mut |o| push_span_end(o, s, tid));
                }
            }
        }

        if !instants.is_empty() {
            let tid = next_tid;
            next_tid += 1;
            emit(&mut out, &mut |o| {
                push_meta(o, "thread_name", tid, "events")
            });
            let mut sorted: Vec<_> = instants.iter().collect();
            sorted.sort_by_key(|i| i.t);
            for i in sorted {
                emit(&mut out, &mut |o| {
                    push_event_prefix(o, &i.name, i.layer.as_str(), 'i', i.t, tid);
                    o.push_str(",\"s\":\"g\"}");
                });
            }
        }

        if series.iter().any(|s| !s.points.is_empty()) {
            let tid = next_tid;
            emit(&mut out, &mut |o| {
                push_meta(o, "thread_name", tid, "metrics")
            });
            // All series share one tid, so samples must interleave in
            // time order; ties break by registration order.
            let mut pts: Vec<(u64, usize, u64)> = series
                .iter()
                .enumerate()
                .flat_map(|(i, s)| s.points.iter().map(move |&(t, v)| (t, i, v)))
                .collect();
            pts.sort_unstable();
            for (t, i, v) in pts {
                emit(&mut out, &mut |o| {
                    push_event_prefix(o, &series[i].name, "metric", 'C', VTime::from_nanos(t), tid);
                    let _ = write!(o, ",\"args\":{{\"value\":{v}}}");
                    o.push('}');
                });
            }
        }

        out.push_str("\n]}\n");
        out
    }
}

/// Why a trace document failed validation.
#[derive(Clone, Debug)]
pub struct ValidationError {
    pub msg: String,
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid Chrome trace: {}", self.msg)
    }
}

impl std::error::Error for ValidationError {}

fn fail(msg: impl Into<String>) -> ValidationError {
    ValidationError { msg: msg.into() }
}

/// Counts reported by a successful validation.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceSummary {
    pub events: usize,
    pub spans: usize,
    pub instants: usize,
    pub tracks: usize,
    /// Complete causal flow arrows (one `s` + one `f` half each).
    pub flows: usize,
    /// Counter-track samples (`ph:"C"` events).
    pub counter_samples: usize,
}

/// Validate `text` against the Chrome trace-event schema subset this repo
/// emits: required `name`/`ph`/`pid`/`tid` fields, numeric non-decreasing
/// `ts` per `(pid, tid)`, balanced and name-matched `B`/`E` pairs per
/// track, scoped (`s`) instants, paired flow halves (each flow id has
/// exactly one start and one enclosing-slice finish, start not after
/// finish), and counter events carrying a numeric `args.value`.
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, ValidationError> {
    let doc = json::parse(text).map_err(|e| fail(e.to_string()))?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or_else(|| fail("top level must be an object with a traceEvents array"))?;

    let mut summary = TraceSummary {
        events: events.len(),
        ..TraceSummary::default()
    };
    // (pid, tid) -> (last ts, stack of open B names)
    let mut tracks: BTreeMap<(u64, u64), (f64, Vec<String>)> = BTreeMap::new();
    // flow id -> (start halves, finish halves, start ts, finish ts)
    let mut flows: BTreeMap<String, (usize, usize, f64, f64)> = BTreeMap::new();

    for (idx, ev) in events.iter().enumerate() {
        let ctx = |msg: &str| fail(format!("event {idx}: {msg}"));
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| ctx("missing ph"))?;
        let pid = ev
            .get("pid")
            .and_then(Value::as_num)
            .ok_or_else(|| ctx("missing numeric pid"))?;
        let tid = ev
            .get("tid")
            .and_then(Value::as_num)
            .ok_or_else(|| ctx("missing numeric tid"))?;
        let name = ev
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| ctx("missing name"))?;
        if ph == "M" {
            continue; // metadata: no timing rules
        }
        let ts = ev
            .get("ts")
            .and_then(Value::as_num)
            .ok_or_else(|| ctx("missing numeric ts"))?;
        let key = (pid as u64, tid as u64);
        let (last_ts, stack) = tracks.entry(key).or_insert((f64::NEG_INFINITY, Vec::new()));
        if ts < *last_ts {
            return Err(ctx(&format!(
                "ts went backwards on tid {}: {ts} < {last_ts}",
                key.1
            )));
        }
        *last_ts = ts;
        match ph {
            "B" => {
                summary.spans += 1;
                stack.push(name.to_string());
            }
            "E" => {
                let open = stack
                    .pop()
                    .ok_or_else(|| ctx(&format!("E \"{name}\" with no open B on tid {}", key.1)))?;
                if open != name {
                    return Err(ctx(&format!(
                        "E \"{name}\" does not match open B \"{open}\""
                    )));
                }
            }
            "i" => {
                summary.instants += 1;
                ev.get("s")
                    .and_then(Value::as_str)
                    .ok_or_else(|| ctx("instant missing scope field s"))?;
            }
            "s" | "t" | "f" => {
                let id = ev.get("id").ok_or_else(|| ctx("flow event missing id"))?;
                let id = if let Some(n) = id.as_num() {
                    format!("{n}")
                } else if let Some(s) = id.as_str() {
                    s.to_string()
                } else {
                    return Err(ctx("flow id must be a number or string"));
                };
                let entry = flows.entry(id).or_insert((0, 0, 0.0, 0.0));
                match ph {
                    "s" => {
                        entry.0 += 1;
                        entry.2 = ts;
                    }
                    "f" => {
                        if ev.get("bp").and_then(Value::as_str) != Some("e") {
                            return Err(ctx(
                                "flow finish must bind to the enclosing slice (bp:\"e\")",
                            ));
                        }
                        entry.1 += 1;
                        entry.3 = ts;
                    }
                    _ => {} // step events carry no pairing obligations
                }
            }
            "C" => {
                summary.counter_samples += 1;
                ev.get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Value::as_num)
                    .ok_or_else(|| ctx("counter event missing numeric args.value"))?;
            }
            other => return Err(ctx(&format!("unsupported phase \"{other}\""))),
        }
    }

    for ((pid, tid), (_, stack)) in &tracks {
        if !stack.is_empty() {
            return Err(fail(format!(
                "unbalanced trace: {} B event(s) never closed on pid {pid} tid {tid} (first: \"{}\")",
                stack.len(),
                stack[0]
            )));
        }
    }
    for (id, (s, f, s_ts, f_ts)) in &flows {
        if *s != 1 || *f != 1 {
            return Err(fail(format!(
                "flow id {id} must have exactly one start and one finish (got {s} start(s), {f} finish(es))"
            )));
        }
        if s_ts > f_ts {
            return Err(fail(format!(
                "flow id {id} goes backwards in time: start ts {s_ts} > finish ts {f_ts}"
            )));
        }
    }
    summary.flows = flows.len();
    summary.tracks = tracks.len();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Layer;
    use simcore::StatsRegistry;

    fn nanos(n: u64) -> VTime {
        VTime::from_nanos(n)
    }

    #[test]
    fn nested_spans_export_balanced() {
        let stats = StatsRegistry::new();
        let rec = TraceRecorder::enabled(&stats);
        let a = rec.span(Layer::Fuse, "fuse.read", nanos(100));
        let b = rec.span(Layer::Store, "store.chunk_fetch", nanos(110));
        b.arg("chunk", 7).arg("benefactor", 3);
        b.finish(nanos(300));
        a.finish(nanos(350));
        rec.instant(Layer::Fault, "benefactor_crash node=3", nanos(200));
        let text = rec.chrome_trace();
        let summary = validate_chrome_trace(&text).expect("trace must validate");
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.instants, 1);
        assert!(text.contains("\"ts\":0.100"));
        assert!(text.contains("\"chunk\":7"));
    }

    #[test]
    fn overlapping_spans_split_onto_subtracks() {
        // Two same-lane chains that overlap in virtual time (the pipelined
        // fetch shape) plus an async span outliving its parent.
        let stats = StatsRegistry::new();
        let rec = TraceRecorder::enabled(&stats);
        let parent = rec.span(Layer::Fuse, "fuse.read", nanos(0));
        let c1 = rec.span(Layer::Store, "store.chunk_fetch", nanos(10));
        c1.finish(nanos(100));
        let c2 = rec.span(Layer::Store, "store.chunk_fetch", nanos(20));
        c2.finish(nanos(90)); // overlaps c1: needs its own sub-track
        let wb = rec.span(Layer::Fuse, "fuse.async_writeback", nanos(50));
        wb.finish(nanos(500)); // outlives the parent
        parent.finish(nanos(120));
        let text = rec.chrome_trace();
        let summary = validate_chrome_trace(&text).expect("trace must validate");
        assert_eq!(summary.spans, 4);
        assert!(text.contains("(async 1)"), "expected a sub-track: {text}");
    }

    #[test]
    fn validator_rejects_unbalanced_and_unordered() {
        let unbalanced = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":1,"pid":1,"tid":1}
        ]}"#;
        assert!(validate_chrome_trace(unbalanced).is_err());
        let mismatched = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":1,"pid":1,"tid":1},
            {"name":"b","ph":"E","ts":2,"pid":1,"tid":1}
        ]}"#;
        assert!(validate_chrome_trace(mismatched).is_err());
        let backwards = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":5,"pid":1,"tid":1},
            {"name":"a","ph":"E","ts":4,"pid":1,"tid":1}
        ]}"#;
        assert!(validate_chrome_trace(backwards).is_err());
        let missing_field = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":1,"tid":1}
        ]}"#;
        assert!(validate_chrome_trace(missing_field).is_err());
    }

    #[test]
    fn export_is_deterministic() {
        let mk = || {
            let stats = StatsRegistry::new();
            let rec = TraceRecorder::enabled(&stats);
            for i in 0..50u64 {
                let sp = rec.span(Layer::Store, "store.chunk_fetch", nanos(i * 10));
                sp.arg("chunk", i);
                sp.finish(nanos(i * 10 + 25));
            }
            rec.chrome_trace()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn empty_trace_is_valid() {
        let stats = StatsRegistry::new();
        let rec = TraceRecorder::enabled(&stats);
        let text = rec.chrome_trace();
        let summary = validate_chrome_trace(&text).unwrap();
        assert_eq!(summary.spans, 0);
    }

    #[test]
    fn causal_links_export_paired_flow_events() {
        let stats = StatsRegistry::new();
        let rec = TraceRecorder::enabled(&stats);
        rec.label_lane(crate::causal::SHARD_LANE_BASE, "shardmgr/0");
        let client = rec.span(Layer::Store, "store.mgr_rpc", nanos(100));
        let remote = rec.causal_span(
            Layer::Store,
            "shardmgr.cpu",
            nanos(150),
            crate::causal::SHARD_LANE_BASE,
            rec.ctx(),
        );
        remote.finish(nanos(250));
        client.finish(nanos(300));
        let text = rec.chrome_trace();
        let summary = validate_chrome_trace(&text).expect("trace must validate");
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.flows, 1);
        assert!(text.contains("\"ph\":\"s\""), "missing flow start: {text}");
        assert!(
            text.contains("\"ph\":\"f\",\"ts\":0.150") && text.contains("\"bp\":\"e\""),
            "missing enclosing flow finish: {text}"
        );
        assert!(text.contains("shardmgr/0"), "causal lane label missing");
    }

    #[test]
    fn gauge_series_export_counter_track() {
        let stats = StatsRegistry::new();
        let rec = TraceRecorder::enabled(&stats);
        rec.span(Layer::Fuse, "fuse.read", nanos(10))
            .finish(nanos(20));
        let series = vec![
            GaugeSeries {
                name: "fuse.dirty_permille".into(),
                points: vec![(1000, 120), (2000, 480)],
            },
            GaugeSeries {
                name: "store.free_slots".into(),
                points: vec![(1000, 64)],
            },
        ];
        let text = rec.chrome_trace_with_series(&series);
        let summary = validate_chrome_trace(&text).expect("trace must validate");
        assert_eq!(summary.counter_samples, 3);
        assert!(
            text.contains("\"name\":\"metrics\""),
            "metrics thread: {text}"
        );
        assert!(text.contains("\"ph\":\"C\"") && text.contains("{\"value\":480}"));
    }

    #[test]
    fn validator_rejects_malformed_flows_and_counters() {
        let dangling = r#"{"traceEvents":[
            {"name":"causal","cat":"flow","ph":"s","ts":1,"pid":1,"tid":1,"id":7}
        ]}"#;
        assert!(validate_chrome_trace(dangling).is_err());
        let unbound = r#"{"traceEvents":[
            {"name":"causal","cat":"flow","ph":"s","ts":1,"pid":1,"tid":1,"id":7},
            {"name":"causal","cat":"flow","ph":"f","ts":2,"pid":1,"tid":2,"id":7}
        ]}"#;
        assert!(validate_chrome_trace(unbound).is_err(), "f without bp:e");
        let backwards = r#"{"traceEvents":[
            {"name":"causal","cat":"flow","ph":"s","ts":5,"pid":1,"tid":1,"id":7},
            {"name":"causal","cat":"flow","ph":"f","bp":"e","ts":2,"pid":1,"tid":2,"id":7}
        ]}"#;
        assert!(validate_chrome_trace(backwards).is_err());
        let no_value = r#"{"traceEvents":[
            {"name":"g","cat":"metric","ph":"C","ts":1,"pid":1,"tid":1,"args":{}}
        ]}"#;
        assert!(validate_chrome_trace(no_value).is_err());
        let ok = r#"{"traceEvents":[
            {"name":"causal","cat":"flow","ph":"s","ts":1,"pid":1,"tid":1,"id":7},
            {"name":"causal","cat":"flow","ph":"f","bp":"e","ts":2,"pid":1,"tid":2,"id":7},
            {"name":"g","cat":"metric","ph":"C","ts":1,"pid":1,"tid":3,"args":{"value":9}}
        ]}"#;
        let summary = validate_chrome_trace(ok).unwrap();
        assert_eq!(summary.flows, 1);
        assert_eq!(summary.counter_samples, 1);
    }
}
