//! Per-location event tracing and latency histograms.
//!
//! The stats counters ([`crate::StatsSnapshot`]) answer *how much*
//! communication happened, aggregated over the whole execution. This module
//! answers *where and when*: every location owns a fixed-capacity ring
//! buffer of monotonically timestamped [`TraceEvent`]s plus one HDR-style
//! power-of-two [`LatencyHistogram`] per span kind, recorded with **no
//! allocation on the hot path** and a single cheap branch when tracing is
//! off (the `RtsConfig::trace` knob, default off).
//!
//! The trace names nothing twice. Its events are of two shapes:
//!
//! * instants — a traced counter row moving ([`crate::Location::count`]):
//!   the instant is named after the row and carries the increment;
//! * spans (enter–exit with duration) — the six [`SpanKind`]s: barrier
//!   waits, fences, collectives, sync-RMI round trips, split-RMI future
//!   waits, executor task bodies. Each span's duration is one sample of
//!   its kind's histogram, which reports any quantile (p50 and p99 by
//!   name) and the exact max.
//!
//! [`RunTrace`] exports the timeline as Chrome trace-event JSON (one pid
//! per location; loadable in Perfetto or `chrome://tracing`).
//!
//! The trace keeps time, not counts: how many requests, replies, bulk
//! transfers or tasks a run made is what the counters say, and each
//! [`LocationTrace`] carries its location's counter snapshot. Timestamps
//! and durations are always advisory.

use std::collections::VecDeque;

use crate::location::LocId;
use crate::stats::{Counter, StatsSnapshot};

/// Capacity of each location's trace event ring, in events. When full,
/// the oldest events are evicted (with an exact drop counter); the
/// histograms are exact regardless.
pub(crate) const TRACE_CAPACITY: usize = 1 << 16;

/// Declares every span kind once: `/// doc`, then `Kind => "name",`.
macro_rules! spans {
    ($($(#[$doc:meta])* $kind:ident => $name:literal,)*) => {
        /// What a span measures; each kind has its own latency histogram.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum SpanKind {
            $($(#[$doc])* $kind,)*
        }

        impl SpanKind {
            /// Every kind, in declaration order.
            pub const ALL: &[SpanKind] = &[$(SpanKind::$kind),*];

            /// Stable snake-case name: the Chrome event's and the
            /// histogram's.
            pub fn name(self) -> &'static str {
                match self {
                    $(SpanKind::$kind => $name,)*
                }
            }
        }
    };
}

spans! {
    /// A [`crate::Location::barrier`] enter–exit.
    Barrier => "barrier",
    /// A [`crate::Location::rmi_fence`] enter–exit (`arg` = rounds).
    Fence => "fence",
    /// A collective operation (allreduce and friends).
    Collective => "collective",
    /// A sync-RMI round trip (issue to value arrival).
    SyncRmi => "sync_rmi",
    /// A split-RMI / reply-slot future wait inside `get()`.
    FutureWait => "future_wait",
    /// One executor task body (`arg` = task id).
    Task => "task_run",
}

/// One recorded event, stamped in monotonic nanoseconds since the
/// execution epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// Traced counter `counter` moved by `n` at `t_ns`.
    Count { t_ns: u64, counter: Counter, n: u64 },
    /// A span of `kind` from `t_ns`, lasting `dur_ns`, with the
    /// kind-specific `arg` its [`SpanKind`] doc names (else `0`).
    Span { t_ns: u64, dur_ns: u64, kind: SpanKind, arg: u64 },
}

// ---------------------------------------------------------------------
// Latency histograms
// ---------------------------------------------------------------------

/// An HDR-style log-bucketed latency histogram: bucket `0` holds exact
/// zeros, bucket `i` holds durations in `[2^(i-1), 2^i)` nanoseconds
/// (clamped at the top). Recording is O(1) with no allocation; the p50 and
/// p99 report the bucket's upper bound, except in the topmost occupied
/// bucket, where the exact maximum is known.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 64],
    count: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: [0; 64], count: 0, max_ns: 0 }
    }
}

impl LatencyHistogram {
    fn bucket_of(ns: u64) -> usize {
        ((64 - ns.leading_zeros()) as usize).min(63)
    }

    /// The exclusive upper bound of bucket `i` (inclusive `u64::MAX` at the
    /// top).
    fn bucket_bound(i: usize) -> u64 {
        if i >= 63 {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    /// Records one duration sample.
    fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket_of(ns)] += 1;
        self.count += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in nanoseconds: the upper bound of
    /// the bucket containing the target rank, or the exact maximum when the
    /// rank falls in the topmost occupied bucket. `0` when empty.
    fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let top = self
            .buckets
            .iter()
            .rposition(|&b| b != 0)
            .expect("count > 0 implies an occupied bucket");
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target {
                return if i == top { self.max_ns } else { Self::bucket_bound(i) };
            }
        }
        self.max_ns
    }

    /// Median (rounded up to its bucket's bound, as the type's docs say).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

// ---------------------------------------------------------------------
// The per-location ring buffer
// ---------------------------------------------------------------------

/// Per-location trace state: a bounded event ring (oldest events drop
/// first, with an exact drop counter) and a latency histogram per span
/// kind. Lives behind a `RefCell` in the location's thread-local state; no
/// atomics anywhere on this path.
pub(crate) struct TraceBuf {
    cap: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
    hists: [LatencyHistogram; SpanKind::ALL.len()],
}

impl TraceBuf {
    pub(crate) fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        TraceBuf {
            cap,
            events: VecDeque::with_capacity(cap),
            dropped: 0,
            hists: Default::default(),
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    pub(crate) fn instant(&mut self, counter: Counter, now_ns: u64, n: u64) {
        self.push(TraceEvent::Count { t_ns: now_ns, counter, n });
    }

    pub(crate) fn span(&mut self, kind: SpanKind, start_ns: u64, end_ns: u64, arg: u64) {
        let dur_ns = end_ns.saturating_sub(start_ns);
        self.hists[kind as usize].record(dur_ns);
        self.push(TraceEvent::Span { t_ns: start_ns, dur_ns, kind, arg });
    }

    /// Drains this buffer into an exportable [`LocationTrace`].
    pub(crate) fn take_data(&mut self, loc: LocId, stats: StatsSnapshot) -> LocationTrace {
        LocationTrace {
            loc,
            events: std::mem::take(&mut self.events).into(),
            dropped: self.dropped,
            stats,
            hists: self.hists.clone(),
        }
    }
}

// ---------------------------------------------------------------------
// Exported per-location / per-run data
// ---------------------------------------------------------------------

/// Everything one location recorded: the surviving events, how many were
/// evicted from the ring, the histograms (exact regardless of eviction),
/// and that location's counter snapshot ([`crate::Location::local_stats`]).
#[derive(Clone)]
pub struct LocationTrace {
    pub loc: LocId,
    pub events: Vec<TraceEvent>,
    pub dropped: u64,
    pub stats: StatsSnapshot,
    hists: [LatencyHistogram; SpanKind::ALL.len()],
}

impl LocationTrace {
    /// The durations of this location's spans of `kind`.
    pub fn histogram(&self, kind: SpanKind) -> &LatencyHistogram {
        &self.hists[kind as usize]
    }

    /// Appends this location's Chrome trace events (a metadata
    /// `process_name`, `B`/`E` span pairs, `i` instants) as one JSON object
    /// string each. Span pairs are emitted in nesting order per pid so
    /// strict importers match them with a stack.
    fn chrome_events(&self, pid: u64, label: &str, out: &mut Vec<String>) {
        let pname = if label.is_empty() {
            format!("location {}", self.loc)
        } else {
            format!("{label} \u{00b7} location {}", self.loc)
        };
        out.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{pname}\"}}}}"
        ));
        fn ts_us(ns: u64) -> String {
            format!("{:.3}", ns as f64 / 1000.0)
        }
        // A span as (start, duration, name, arg).
        type Span = (u64, u64, &'static str, u64);
        fn end_event(&(t_ns, dur_ns, name, _): &Span, pid: u64) -> (u64, String) {
            let end = t_ns + dur_ns;
            let json = format!(
                "{{\"name\":\"{name}\",\"cat\":\"rts\",\"ph\":\"E\",\"ts\":{},\"pid\":{pid},\
                 \"tid\":0}}",
                ts_us(end)
            );
            (end, json)
        }
        // Spans recorded at completion are re-serialized as B/E pairs via
        // an interval stack: sorted by (start, longest-first), a span is
        // closed as soon as the next one starts at or after its end. The
        // single-threaded stack discipline of the recorder guarantees the
        // intervals are properly nested or disjoint.
        let mut spans: Vec<Span> = Vec::new();
        let mut instants: Vec<(u64, String)> = Vec::new();
        for e in &self.events {
            match *e {
                TraceEvent::Span { t_ns, dur_ns, kind, arg } => spans.push((t_ns, dur_ns, kind.name(), arg)),
                TraceEvent::Count { t_ns, counter, n } => instants.push((
                    t_ns,
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"rts\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
                         \"pid\":{pid},\"tid\":0,\"args\":{{\"v\":{n}}}}}",
                        counter.name(),
                        ts_us(t_ns),
                    ),
                )),
            }
        }
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut be: Vec<(u64, String)> = Vec::with_capacity(spans.len() * 2);
        let mut stack: Vec<&Span> = Vec::new();
        for s in &spans {
            while let Some(top) = stack.last() {
                if top.0 + top.1 <= s.0 {
                    let top = stack.pop().expect("non-empty stack");
                    be.push(end_event(top, pid));
                } else {
                    break;
                }
            }
            let &(t_ns, _, name, arg) = s;
            be.push((
                t_ns,
                format!(
                    "{{\"name\":\"{name}\",\"cat\":\"rts\",\"ph\":\"B\",\"ts\":{},\"pid\":{pid},\
                     \"tid\":0,\"args\":{{\"v\":{arg}}}}}",
                    ts_us(t_ns),
                ),
            ));
            stack.push(s);
        }
        while let Some(top) = stack.pop() {
            be.push(end_event(top, pid));
        }
        // Merge the two (already chronologically sorted) streams, keeping
        // B/E relative order intact on timestamp ties.
        let (mut i, mut j) = (0, 0);
        while i < be.len() || j < instants.len() {
            let take_be = match (be.get(i), instants.get(j)) {
                (Some(a), Some(b)) => a.0 <= b.0,
                (Some(_), None) => true,
                _ => false,
            };
            if take_be {
                out.push(std::mem::take(&mut be[i].1));
                i += 1;
            } else {
                out.push(std::mem::take(&mut instants[j].1));
                j += 1;
            }
        }
    }
}

/// The trace of one whole SPMD execution (one [`LocationTrace`] per
/// location), returned by [`crate::execute_collect_traced`].
#[derive(Clone)]
pub struct RunTrace {
    pub nlocs: usize,
    pub locs: Vec<LocationTrace>,
}

impl RunTrace {
    /// Total surviving events across all locations.
    pub fn total_events(&self) -> usize {
        self.locs.iter().map(|l| l.events.len()).sum()
    }

    /// Appends Chrome trace events for every location, with pids offset by
    /// `pid_base` and process names prefixed by `label` — so several runs
    /// can share one trace file without pid collisions.
    pub fn push_chrome_events(&self, pid_base: u64, label: &str, out: &mut Vec<String>) {
        for l in &self.locs {
            l.chrome_events(pid_base + l.loc as u64, label, out);
        }
    }

    /// Serializes the whole run as a Chrome trace-event JSON array (one pid
    /// per location), loadable in Perfetto / `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = Vec::new();
        self.push_chrome_events(0, "", &mut out);
        chrome_json(&out)
    }
}

/// Assembles Chrome trace-event lines ([`RunTrace::push_chrome_events`],
/// of one run or several) into the JSON array file Perfetto and
/// `chrome://tracing` load.
pub fn chrome_json(events: &[String]) -> String {
    format!("[\n{}\n]\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_table_is_consistent() {
        for (i, k) in SpanKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i, "{:?} out of declaration order", k);
        }
        let mut names: Vec<&str> = SpanKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SpanKind::ALL.len(), "duplicate span names");
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.5), 0);
        for ns in [0u64, 1, 2, 3, 900, 1000, 1100, 1_000_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.max_ns, 1_000_000);
        // p50 falls in the 2-3ns bucket → upper bound 4.
        assert_eq!(h.quantile(0.5), 4);
        // The top occupied bucket reports the exact max, not a power of 2.
        assert_eq!(h.quantile(1.0), 1_000_000);
        assert!(h.p99() >= h.quantile(0.9) && h.quantile(0.9) >= h.p50());
    }

    #[test]
    fn histogram_zero_and_huge_samples() {
        let mut h = LatencyHistogram::default();
        h.record(0);
        assert_eq!(h.p50(), 0);
        h.record(u64::MAX);
        assert_eq!(h.max_ns, u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn ring_drops_oldest_but_counts_stay_exact() {
        let mut buf = TraceBuf::new(4);
        for i in 0..10u64 {
            buf.span(SpanKind::SyncRmi, i, i + 1, i);
        }
        let data = buf.take_data(0, StatsSnapshot::default());
        assert_eq!(data.events.len(), 4);
        assert_eq!(data.dropped, 6);
        assert_eq!(data.histogram(SpanKind::SyncRmi).count(), 10, "histograms ignore eviction");
        // The survivors are the most recent events.
        let starts: Vec<u64> = data.events.iter().map(|e| match *e {
            TraceEvent::Span { t_ns, .. } | TraceEvent::Count { t_ns, .. } => t_ns,
        }).collect();
        assert_eq!(starts, [6, 7, 8, 9]);
    }

    #[test]
    fn spans_feed_histograms() {
        let mut buf = TraceBuf::new(16);
        buf.span(SpanKind::SyncRmi, 100, 1100, 0);
        buf.span(SpanKind::Barrier, 0, 50, 0);
        buf.instant(Counter::remote_requests, 60, 1);
        let data = buf.take_data(2, StatsSnapshot::default());
        assert_eq!(data.histogram(SpanKind::SyncRmi).count(), 1);
        assert_eq!(data.histogram(SpanKind::SyncRmi).max_ns, 1000);
        assert_eq!(data.histogram(SpanKind::Barrier).count(), 1);
        assert_eq!(data.histogram(SpanKind::Task).count(), 0);
    }

    #[test]
    fn chrome_export_emits_nested_be_pairs() {
        let mut buf = TraceBuf::new(64);
        // Inner span completes (and is recorded) before the outer one — the
        // exporter must still emit outer-B, inner-B, inner-E, outer-E.
        buf.span(SpanKind::Barrier, 200, 300, 0);
        buf.span(SpanKind::Fence, 100, 500, 0);
        buf.instant(Counter::remote_requests, 150, 1);
        let run = RunTrace { nlocs: 1, locs: vec![buf.take_data(0, StatsSnapshot::default())] };
        let json = run.to_chrome_json();
        let fence_b = json.find("\"name\":\"fence\",\"cat\":\"rts\",\"ph\":\"B\"").unwrap();
        let barrier_b = json.find("\"name\":\"barrier\",\"cat\":\"rts\",\"ph\":\"B\"").unwrap();
        let barrier_e = json.find("\"name\":\"barrier\",\"cat\":\"rts\",\"ph\":\"E\"").unwrap();
        let fence_e = json.find("\"name\":\"fence\",\"cat\":\"rts\",\"ph\":\"E\"").unwrap();
        assert!(fence_b < barrier_b && barrier_b < barrier_e && barrier_e < fence_e);
        assert!(json.contains("\"name\":\"remote_requests\",\"cat\":\"rts\",\"ph\":\"i\""), "instants present");
        assert!(json.contains("\"name\":\"process_name\""), "pid metadata present");
    }
}
