//! Per-location event tracing and latency histograms.
//!
//! The stats counters ([`crate::StatsSnapshot`]) answer *how much*
//! communication happened, aggregated over the whole execution. This module
//! answers *where and when*: every location owns a fixed-capacity ring
//! buffer of typed, monotonically timestamped [`TraceEvent`]s plus a small
//! set of HDR-style power-of-two [`LatencyHistogram`]s, recorded with **no
//! allocation on the hot path** and a single cheap branch when tracing is
//! off (the `RtsConfig::trace` knob, default off).
//!
//! Recorded events:
//!
//! * instants — RMI send / execute / reply, aggregation-buffer flushes,
//!   steal probes and successes, bulk-range and segment transfers with item
//!   counts, directory-cache hit / miss / stale-heal, migrations, and the
//!   reliable layer's drops, retransmits, checksum failures and acks;
//! * spans (enter–exit with duration) — barrier waits, fences, collectives,
//!   sync-RMI round trips, split-RMI future waits, executor task bodies.
//!
//! Span durations also feed the latency histograms, which report any
//! quantile (p50 and p99 by name) and the exact max for sync-RMI round
//! trips, split-RMI future waits, task bodies, and barrier waits.
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
use crate::stats::StatsSnapshot;

/// Capacity of each location's trace event ring, in events. When full,
/// the oldest events are evicted (with an exact drop counter); the
/// histograms are exact regardless.
pub(crate) const TRACE_CAPACITY: usize = 1 << 16;

/// Number of latency histograms kept per location; see
/// [`TraceEventKind::histogram_index`] and [`HISTOGRAM_NAMES`].
pub const HISTOGRAM_COUNT: usize = 4;

/// Histogram names, indexed by [`TraceEventKind::histogram_index`]:
/// sync-RMI round trips, split-RMI future waits, executor task bodies, and
/// barrier waits.
pub const HISTOGRAM_NAMES: [&str; HISTOGRAM_COUNT] =
    ["sync_rmi", "future_wait", "task_body", "barrier_wait"];

/// Declares every event kind once: `/// doc`, then `Kind => "name",`.
macro_rules! kinds {
    ($($(#[$doc:meta])* $kind:ident => $name:literal,)*) => {
        /// The typed event vocabulary of the trace layer.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum TraceEventKind {
            $($(#[$doc])* $kind,)*
        }

        impl TraceEventKind {
            /// Every kind, in declaration order.
            pub const ALL: &[TraceEventKind] = &[$(TraceEventKind::$kind),*];

            /// Stable snake-case name, used as the Chrome trace event name.
            pub fn name(self) -> &'static str {
                match self {
                    $(TraceEventKind::$kind => $name,)*
                }
            }
        }
    };
}

kinds! {
    /// A request enqueued toward a remote location (`arg` = destination).
    RmiSend => "rmi_send",
    /// A delivered request about to execute here (`arg` = source).
    RmiExecute => "rmi_execute",
    /// A sync / split-phase response shipped back (`arg` = destination).
    RmiReply => "rmi_reply",
    /// An aggregation buffer pushed into a channel (`arg` = batch size).
    Flush => "flush",
    /// A steal probe issued by an idle executor.
    StealProbe => "steal_probe",
    /// A steal probe that came back with work (`arg` = tasks taken).
    StealSuccess => "steal_success",
    /// One bulk-range RMI (`arg` = elements in the run).
    BulkTransfer => "bulk_transfer",
    /// One segment RMI of the dynamic-container transport (`arg` = items).
    SegmentTransfer => "segment_transfer",
    /// Items shipped by a data-collecting gather/broadcast (`arg` = items).
    GatherItems => "gather_items",
    /// Directory-routed request served by a cached owner.
    DirCacheHit => "dir_cache_hit",
    /// Directory-routed request that paid the home-location hop.
    DirCacheMiss => "dir_cache_miss",
    /// A stale cached-owner guess that re-forwarded through home.
    DirCacheStale => "dir_cache_stale",
    /// An element / base-container migration (`arg` = moved key or count).
    Migration => "migration",
    /// Span: a [`crate::Location::barrier`] enter–exit.
    BarrierSpan => "barrier",
    /// Span: a [`crate::Location::rmi_fence`] enter–exit.
    FenceSpan => "fence",
    /// Span: a collective operation (allreduce and friends).
    CollectiveSpan => "collective",
    /// Span: a sync-RMI round trip (issue to value arrival).
    SyncRmiSpan => "sync_rmi",
    /// Span: a split-RMI / reply-slot future wait inside `get()`.
    FutureWaitSpan => "future_wait",
    /// Span: one executor task body (`arg` = task id).
    TaskSpan => "task_run",
    /// Requests lost to injected drops or corrupt rejections (`arg` =
    /// requests dropped since the last reap).
    FaultDrop => "fault_drop",
    /// Batches re-sent by the retransmit timer (`arg` = count since the
    /// last reap).
    Retransmit => "retransmit",
    /// Inbound batches rejected by their checksum (`arg` = count since
    /// the last reap).
    ChecksumFail => "checksum_fail",
    /// Standalone ack batches sent (`arg` = count since the last reap).
    AckSent => "ack_sent",
    /// A sync / split-phase handler panic caught and sent back as a
    /// poisoned response (`arg` = the issuing location).
    PoisonedResponse => "poisoned_response",
}

impl TraceEventKind {
    /// True for enter–exit span kinds (exported as Chrome `B`/`E` pairs);
    /// false for instants (`i`).
    pub fn is_span(self) -> bool {
        matches!(
            self,
            TraceEventKind::BarrierSpan
                | TraceEventKind::FenceSpan
                | TraceEventKind::CollectiveSpan
                | TraceEventKind::SyncRmiSpan
                | TraceEventKind::FutureWaitSpan
                | TraceEventKind::TaskSpan
        )
    }

    /// Index into the per-location histogram array for span kinds whose
    /// duration is sampled; `None` for everything else.
    pub fn histogram_index(self) -> Option<usize> {
        match self {
            TraceEventKind::SyncRmiSpan => Some(0),
            TraceEventKind::FutureWaitSpan => Some(1),
            TraceEventKind::TaskSpan => Some(2),
            TraceEventKind::BarrierSpan => Some(3),
            _ => None,
        }
    }
}

/// One recorded event: monotonic nanoseconds since the execution epoch,
/// a duration (`0` for instants), the kind, and one kind-specific argument
/// (peer id, item count, task id — see the [`TraceEventKind`] docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub t_ns: u64,
    pub dur_ns: u64,
    pub kind: TraceEventKind,
    pub arg: u64,
}

// ---------------------------------------------------------------------
// Latency histograms
// ---------------------------------------------------------------------

/// An HDR-style log-bucketed latency histogram: bucket `0` holds exact
/// zeros, bucket `i` holds durations in `[2^(i-1), 2^i)` nanoseconds
/// (clamped at the top). Recording is O(1) with no allocation; quantiles
/// report the bucket's upper bound, except the topmost occupied bucket
/// where the exact maximum is known.
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
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket_of(ns)] += 1;
        self.count += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The exact maximum recorded duration (`0` when empty).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in nanoseconds: the upper bound of
    /// the bucket containing the target rank, or the exact maximum when the
    /// rank falls in the topmost occupied bucket. `0` when empty.
    pub fn quantile(&self, q: f64) -> u64 {
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

    /// Median (see [`LatencyHistogram::quantile`] for bucket rounding).
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
/// first, with an exact drop counter) and the latency histograms. Lives
/// behind a `RefCell` in the location's thread-local state; no atomics
/// anywhere on this path.
pub(crate) struct TraceBuf {
    cap: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
    hists: [LatencyHistogram; HISTOGRAM_COUNT],
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

    pub(crate) fn instant(&mut self, kind: TraceEventKind, now_ns: u64, arg: u64) {
        debug_assert!(!kind.is_span());
        self.push(TraceEvent { t_ns: now_ns, dur_ns: 0, kind, arg });
    }

    pub(crate) fn span(&mut self, kind: TraceEventKind, start_ns: u64, end_ns: u64, arg: u64) {
        debug_assert!(kind.is_span());
        let dur_ns = end_ns.saturating_sub(start_ns);
        if let Some(h) = kind.histogram_index() {
            self.hists[h].record(dur_ns);
        }
        self.push(TraceEvent { t_ns: start_ns, dur_ns, kind, arg });
    }

    /// Drains this buffer into an exportable [`LocationTrace`].
    pub(crate) fn take_data(
        &mut self,
        loc: LocId,
        stats: StatsSnapshot,
        handled: u64,
    ) -> LocationTrace {
        LocationTrace {
            loc,
            events: std::mem::take(&mut self.events).into(),
            dropped: self.dropped,
            stats,
            handled,
            hists: self.hists.clone(),
        }
    }
}

// ---------------------------------------------------------------------
// Exported per-location / per-run data
// ---------------------------------------------------------------------

/// Everything one location recorded: the surviving events, how many were
/// evicted from the ring, the histograms (exact regardless of eviction),
/// and that location's counter snapshot ([`crate::Location::local_stats`])
/// and count of requests it ran.
#[derive(Clone)]
pub struct LocationTrace {
    pub loc: LocId,
    pub events: Vec<TraceEvent>,
    pub dropped: u64,
    pub stats: StatsSnapshot,
    /// Requests delivered to and run on this location.
    pub handled: u64,
    hists: [LatencyHistogram; HISTOGRAM_COUNT],
}

impl LocationTrace {
    /// The histogram named `name` (see [`HISTOGRAM_NAMES`]).
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        HISTOGRAM_NAMES.iter().position(|n| *n == name).map(|i| &self.hists[i])
    }

    /// `(name, histogram)` pairs in [`HISTOGRAM_NAMES`] order.
    pub fn histograms(&self) -> Vec<(&'static str, &LatencyHistogram)> {
        HISTOGRAM_NAMES.iter().copied().zip(self.hists.iter()).collect()
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
        fn end_event(e: &TraceEvent, pid: u64) -> (u64, String) {
            let end = e.t_ns + e.dur_ns;
            let json = format!(
                "{{\"name\":\"{}\",\"cat\":\"rts\",\"ph\":\"E\",\"ts\":{},\"pid\":{pid},\
                 \"tid\":0}}",
                e.kind.name(),
                ts_us(end)
            );
            (end, json)
        }
        // Spans recorded at completion are re-serialized as B/E pairs via
        // an interval stack: sorted by (start, longest-first), a span is
        // closed as soon as the next one starts at or after its end. The
        // single-threaded stack discipline of the recorder guarantees the
        // intervals are properly nested or disjoint.
        let mut spans: Vec<&TraceEvent> = self.events.iter().filter(|e| e.kind.is_span()).collect();
        spans.sort_by(|a, b| a.t_ns.cmp(&b.t_ns).then(b.dur_ns.cmp(&a.dur_ns)));
        let mut be: Vec<(u64, String)> = Vec::with_capacity(spans.len() * 2);
        let mut stack: Vec<&TraceEvent> = Vec::new();
        for s in spans {
            while let Some(top) = stack.last() {
                if top.t_ns + top.dur_ns <= s.t_ns {
                    let top = stack.pop().expect("non-empty stack");
                    be.push(end_event(top, pid));
                } else {
                    break;
                }
            }
            be.push((
                s.t_ns,
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"rts\",\"ph\":\"B\",\"ts\":{},\"pid\":{pid},\
                     \"tid\":0,\"args\":{{\"v\":{}}}}}",
                    s.kind.name(),
                    ts_us(s.t_ns),
                    s.arg
                ),
            ));
            stack.push(s);
        }
        while let Some(top) = stack.pop() {
            be.push(end_event(top, pid));
        }
        let instants: Vec<(u64, String)> = self
            .events
            .iter()
            .filter(|e| !e.kind.is_span())
            .map(|e| {
                (
                    e.t_ns,
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"rts\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
                         \"pid\":{pid},\"tid\":0,\"args\":{{\"v\":{}}}}}",
                        e.kind.name(),
                        ts_us(e.t_ns),
                        e.arg
                    ),
                )
            })
            .collect();
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
                out.push(instants[j].1.clone());
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
        let mut s = String::from("[\n");
        s.push_str(&out.join(",\n"));
        s.push_str("\n]\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_table_is_consistent() {
        for (i, k) in TraceEventKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i, "{:?} out of declaration order", k);
        }
        // Names are unique except the deliberate span/histogram aliases.
        let mut names: Vec<&str> = TraceEventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TraceEventKind::ALL.len(), "duplicate event-kind names");
        for &k in TraceEventKind::ALL {
            if k.histogram_index().is_some() {
                assert!(k.is_span(), "{:?}: only spans feed histograms", k);
            }
        }
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.5), 0);
        for ns in [0u64, 1, 2, 3, 900, 1000, 1100, 1_000_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.max_ns(), 1_000_000);
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
        assert_eq!(h.max_ns(), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn ring_drops_oldest_but_counts_stay_exact() {
        let mut buf = TraceBuf::new(4);
        for i in 0..10u64 {
            buf.span(TraceEventKind::SyncRmiSpan, i, i + 1, i);
        }
        let data = buf.take_data(0, StatsSnapshot::default(), 0);
        assert_eq!(data.events.len(), 4);
        assert_eq!(data.dropped, 6);
        assert_eq!(data.histogram("sync_rmi").unwrap().count(), 10, "histograms ignore eviction");
        // The survivors are the most recent events.
        assert_eq!(data.events[0].t_ns, 6);
        assert_eq!(data.events[3].t_ns, 9);
    }

    #[test]
    fn spans_feed_histograms() {
        let mut buf = TraceBuf::new(16);
        buf.span(TraceEventKind::SyncRmiSpan, 100, 1100, 0);
        buf.span(TraceEventKind::BarrierSpan, 0, 50, 0);
        let data = buf.take_data(2, StatsSnapshot::default(), 0);
        assert_eq!(data.histogram("sync_rmi").unwrap().count(), 1);
        assert_eq!(data.histogram("sync_rmi").unwrap().max_ns(), 1000);
        assert_eq!(data.histogram("barrier_wait").unwrap().count(), 1);
        assert_eq!(data.histogram("task_body").unwrap().count(), 0);
        assert!(data.histogram("no_such").is_none());
    }

    #[test]
    fn chrome_export_emits_nested_be_pairs() {
        let mut buf = TraceBuf::new(64);
        // Inner span completes (and is recorded) before the outer one — the
        // exporter must still emit outer-B, inner-B, inner-E, outer-E.
        buf.span(TraceEventKind::BarrierSpan, 200, 300, 0);
        buf.span(TraceEventKind::FenceSpan, 100, 500, 0);
        buf.instant(TraceEventKind::RmiSend, 150, 1);
        let run =
            RunTrace { nlocs: 1, locs: vec![buf.take_data(0, StatsSnapshot::default(), 0)] };
        let json = run.to_chrome_json();
        let fence_b = json.find("\"name\":\"fence\",\"cat\":\"rts\",\"ph\":\"B\"").unwrap();
        let barrier_b = json.find("\"name\":\"barrier\",\"cat\":\"rts\",\"ph\":\"B\"").unwrap();
        let barrier_e = json.find("\"name\":\"barrier\",\"cat\":\"rts\",\"ph\":\"E\"").unwrap();
        let fence_e = json.find("\"name\":\"fence\",\"cat\":\"rts\",\"ph\":\"E\"").unwrap();
        assert!(fence_b < barrier_b && barrier_b < barrier_e && barrier_e < fence_e);
        assert!(json.contains("\"ph\":\"i\""), "instants present");
        assert!(json.contains("\"name\":\"process_name\""), "pid metadata present");
    }
}
