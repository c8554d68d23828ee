//! Structural validator for Chrome trace-event JSON emitted by
//! [`stapl_rts::RunTrace::to_chrome_json`] (and merged multi-run files
//! from `experiments --trace`).
//!
//! The checks mirror what `chrome://tracing` / Perfetto actually require
//! to render a timeline instead of an empty page:
//!
//! * the document is a JSON **array** of event objects;
//! * every event has a string `"name"`, a `"ph"` drawn from the phases we
//!   emit (`B`/`E`/`i`/`M`/`X`), and numeric `"ts"`, `"pid"`, `"tid"`
//!   (metadata `M` events are exempt from `ts`);
//! * within each `(pid, tid)` lane, `B`/`E` duration events pair up like
//!   brackets — every `E` closes the innermost open `B` **of the same
//!   name**, and no lane ends with an unclosed span;
//! * timestamps within a lane are monotonically non-decreasing (the rts
//!   serializer sorts before emitting; a violation means a merge bug);
//! * the trace names nothing the runtime does not: an instant is named
//!   after a traced [`Counter`] and a `B`/`E` pair after a [`SpanKind`].
//!
//! Used by the `--validate-trace` subcommand of `experiments` and the
//! `trace-smoke` CI step, so a schema regression fails the build rather
//! than a later by-hand Perfetto load.

use stapl_rts::{Counter, SpanKind};

use crate::json::Json;

/// Aggregate facts about a validated trace, for smoke-test assertions.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total events, including metadata.
    pub events: usize,
    /// Matched `B`/`E` span pairs.
    pub spans: usize,
    /// Instant (`i`) events.
    pub instants: usize,
    /// Distinct `(pid, tid)` lanes carrying non-metadata events.
    pub lanes: usize,
}

/// Validates `text` as Chrome trace-event JSON; returns counts on success
/// and the first structural violation (with event index) on failure.
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = doc.as_arr().ok_or("top level is not a JSON array")?;
    let mut check = TraceCheck { events: events.len(), ..TraceCheck::default() };
    // Per-(pid, tid) lane state: open-span name stack + last timestamp.
    let mut lanes: std::collections::BTreeMap<(u64, u64), (Vec<String>, f64)> =
        std::collections::BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let obj = ev.as_obj().ok_or_else(|| format!("event {i}: not an object"))?;
        let name = obj
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing string \"name\""))?;
        let ph = obj
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} ({name}): missing string \"ph\""))?;
        let pid = obj
            .get("pid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i} ({name}): missing numeric \"pid\""))?;
        let tid = obj
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i} ({name}): missing numeric \"tid\""))?;
        if ph == "M" {
            continue; // metadata: no ts, never enters a lane
        }
        let ts = obj
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i} ({name}): missing numeric \"ts\""))?;
        let lane = lanes.entry((pid, tid)).or_insert_with(|| (Vec::new(), f64::NEG_INFINITY));
        if ts < lane.1 {
            return Err(format!(
                "event {i} ({name}): ts {ts} decreases within lane pid={pid} tid={tid}"
            ));
        }
        lane.1 = ts;
        match ph {
            "B" if !SpanKind::ALL.iter().any(|k| k.name() == name) => {
                return Err(format!("event {i}: B \"{name}\" is no span kind"));
            }
            "i" if !Counter::from_name(name).is_some_and(Counter::traced) => {
                return Err(format!("event {i}: instant \"{name}\" is no traced counter"));
            }
            "B" => lane.0.push(name.to_string()),
            "E" => {
                let open = lane.0.pop().ok_or_else(|| {
                    format!("event {i} ({name}): E with no open B in lane pid={pid} tid={tid}")
                })?;
                if open != name {
                    return Err(format!(
                        "event {i}: E \"{name}\" closes B \"{open}\" in lane pid={pid} tid={tid}"
                    ));
                }
                check.spans += 1;
            }
            "i" => check.instants += 1,
            "X" => {} // complete events carry their own dur; nothing to pair
            other => {
                return Err(format!("event {i} ({name}): unsupported phase \"{other}\""));
            }
        }
    }
    for ((pid, tid), (stack, _)) in &lanes {
        if let Some(open) = stack.last() {
            return Err(format!("unclosed span \"{open}\" in lane pid={pid} tid={tid}"));
        }
    }
    check.lanes = lanes.len();
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_trace() {
        let text = r#"[
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "location 0"}},
            {"name": "fence", "ph": "B", "ts": 1.0, "pid": 1, "tid": 0},
            {"name": "sync_rmi", "ph": "B", "ts": 2.0, "pid": 1, "tid": 0},
            {"name": "remote_requests", "ph": "i", "ts": 2.5, "pid": 1, "tid": 0, "s": "t"},
            {"name": "sync_rmi", "ph": "E", "ts": 3.0, "pid": 1, "tid": 0},
            {"name": "fence", "ph": "E", "ts": 4.0, "pid": 1, "tid": 0}
        ]"#;
        let check = validate_chrome_trace(text).unwrap();
        assert_eq!(check, TraceCheck { events: 6, spans: 2, instants: 1, lanes: 1 });
    }

    #[test]
    fn rejects_mismatched_and_unclosed_spans() {
        let crossed = r#"[
            {"name": "fence", "ph": "B", "ts": 1.0, "pid": 1, "tid": 0},
            {"name": "barrier", "ph": "E", "ts": 2.0, "pid": 1, "tid": 0}
        ]"#;
        assert!(validate_chrome_trace(crossed).unwrap_err().contains("closes B"));
        let unclosed = r#"[{"name": "fence", "ph": "B", "ts": 1.0, "pid": 1, "tid": 0}]"#;
        assert!(validate_chrome_trace(unclosed).unwrap_err().contains("unclosed"));
        let stray = r#"[{"name": "fence", "ph": "E", "ts": 1.0, "pid": 1, "tid": 0}]"#;
        assert!(validate_chrome_trace(stray).unwrap_err().contains("no open B"));
    }

    #[test]
    fn rejects_structural_breakage() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace(r#"[{"ph": "i"}]"#).unwrap_err().contains("name"));
        assert!(validate_chrome_trace(r#"[{"name": "x", "ph": "i", "pid": 1, "tid": 0}]"#)
            .unwrap_err()
            .contains("ts"));
        assert!(validate_chrome_trace(
            r#"[{"name": "x", "ph": "Q", "ts": 1.0, "pid": 1, "tid": 0}]"#
        )
        .unwrap_err()
        .contains("phase"));
    }

    #[test]
    fn rejects_time_travel_within_a_lane() {
        let text = r#"[
            {"name": "remote_requests", "ph": "i", "ts": 5.0, "pid": 1, "tid": 0},
            {"name": "batches_sent", "ph": "i", "ts": 4.0, "pid": 1, "tid": 0}
        ]"#;
        assert!(validate_chrome_trace(text).unwrap_err().contains("decreases"));
        // Different lanes are independent timelines: no ordering constraint.
        let cross = r#"[
            {"name": "remote_requests", "ph": "i", "ts": 5.0, "pid": 1, "tid": 0},
            {"name": "batches_sent", "ph": "i", "ts": 4.0, "pid": 2, "tid": 0}
        ]"#;
        assert_eq!(validate_chrome_trace(cross).unwrap().lanes, 2);
    }

    #[test]
    fn rejects_names_the_runtime_does_not_record() {
        let event = |name: &str, ph: &str| {
            format!(r#"[{{"name": "{name}", "ph": "{ph}", "ts": 1.0, "pid": 1, "tid": 0}}]"#)
        };
        // An instant is a traced counter's move: not an old event name,
        // not an untraced row.
        for name in ["rmi_send", "bytes_sent"] {
            let why = validate_chrome_trace(&event(name, "i")).unwrap_err();
            assert!(why.contains("no traced counter"), "{name}: {why}");
        }
        // A span is named after its kind, as its histogram is.
        let why = validate_chrome_trace(&event("barrier_wait", "B")).unwrap_err();
        assert!(why.contains("no span kind"), "{why}");
        assert_eq!(validate_chrome_trace(&event("migrations", "i")).unwrap().instants, 1);
    }
}
