//! Runtime configuration: aggregation, directory caching, adaptive
//! flushing, the reliable layer and its fault schedule, and the simulated
//! machine model.

use crate::fault::FaultSchedule;

/// Configuration for one SPMD execution.
///
/// The defaults model a single shared-memory node with moderate request
/// aggregation, matching the paper's default ARMI settings.
///
/// ## Environment overrides
///
/// [`RtsConfig::default`] starts from [`RtsConfig::base`] and then applies
/// environment overrides, so a whole test run can be swept without touching
/// code (the CI test matrix drives these):
///
/// | variable                    | field                |
/// |-----------------------------|----------------------|
/// | `STAPL_AGGREGATION`         | `aggregation`        |
/// | `STAPL_DIR_CACHE`           | `dir_cache` (0/1)    |
/// | `STAPL_DIR_CACHE_CAPACITY`  | `dir_cache_capacity` |
/// | `STAPL_FLUSH_AGE_US`        | `flush_age_us`       |
/// | `STAPL_BULK_THRESHOLD`      | `bulk_threshold`     |
/// | `STAPL_TRACE`               | `trace` (0/1)        |
/// | `STAPL_TRACE_CAPACITY`      | `trace_capacity`     |
/// | `STAPL_FAULTS`              | `faults` (schedule grammar, see `rts::fault`; active ⇒ reliable layer on) |
/// | `STAPL_FAULT_SEED`          | `fault_seed`         |
/// | `STAPL_RMI_TIMEOUT_US`      | `rmi_timeout_us`     |
/// | `STAPL_RETRANSMIT_RTO_US`   | `retransmit_rto_us`  |
///
/// Explicit constructors ([`RtsConfig::unbuffered`],
/// [`RtsConfig::with_aggregation`]) still win over the environment for the
/// field they set.
#[derive(Clone, Debug)]
pub struct RtsConfig {
    /// Maximum number of RMI requests buffered per destination before the
    /// buffer is flushed as a single message. `1` disables aggregation.
    ///
    /// The paper's ARMI aggregates requests "to use bandwidth and reduce
    /// overhead"; this knob is swept in the aggregation ablation bench.
    pub aggregation: usize,
    /// Number of locations per simulated node. `0` means all locations live
    /// on one node (no inter-node traffic). With `node_size = 4`, locations
    /// 0..4 share a node, 4..8 the next, and so on — the placement study of
    /// Fig. 41 compares `node_size = nlocs` against `node_size = 1`.
    pub node_size: usize,
    /// Busy-wait injected at delivery for every *message batch* that
    /// crosses a node boundary, in nanoseconds (models network latency).
    pub internode_batch_delay_ns: u64,
    /// Additional busy-wait per *request* inside a cross-node batch, in
    /// nanoseconds (models serialization / bandwidth cost).
    pub internode_per_msg_delay_ns: u64,
    /// Enables the per-location directory owner caches consulted by
    /// `dir_route`/`dir_route_ret` before falling back to home-forwarding
    /// (the BCL-style locality optimization for dynamic containers).
    pub dir_cache: bool,
    /// Maximum number of cached `gid → (bcid, owner)` entries per location
    /// *per container*. When full, an arbitrary entry is evicted.
    pub dir_cache_capacity: usize,
    /// Adaptive flush age in microseconds. `0` (the default) flushes every
    /// aggregation buffer as soon as a location goes idle — maximum
    /// responsiveness, minimum batching. A non-zero age lets buffers for
    /// cold destinations keep filling across brief waits: an idle location
    /// only force-flushes buffers whose *oldest* request has waited longer
    /// than this, so batching survives the frequent micro-waits of
    /// synchronous methods while staleness stays bounded.
    pub flush_age_us: u64,
    /// Crossover for the bulk-range transport: a remote contiguous run of
    /// at least this many elements ships as **one** bulk RMI
    /// (`get_range`/`set_range`/`apply_range`); shorter runs fall back to
    /// element-wise RMIs, which the aggregation layer already batches
    /// well. `1` makes every remote run bulk; a huge value disables bulk
    /// transport entirely (the element-wise ablation baseline).
    pub bulk_threshold: usize,
    /// Enables the per-location trace layer (`rts::trace`): typed events
    /// with monotonic timestamps plus latency histograms, collected by
    /// [`crate::execute_collect_traced`]. Off by default; when off the hot
    /// paths pay a single branch and record nothing.
    pub trace: bool,
    /// Capacity of each location's trace event ring buffer. When full, the
    /// oldest events are evicted (with an exact drop counter); per-kind
    /// counts and histograms are exact regardless. Clamped to at least 1.
    pub trace_capacity: usize,
    /// Asks for the reliable layer (see `rts::transport`) with nothing
    /// injected: every batch travels sealed — sequence number, cumulative
    /// ack, one checksum — is retained until acked, and the fence waits for
    /// the acks. Off by default: the in-process fabric cannot lose data.
    /// An active [`RtsConfig::faults`] schedule switches the layer on
    /// whatever this says; read [`RtsConfig::reliable_layer`].
    pub reliable: bool,
    /// Seeded fabric-fault schedule (see `rts::fault`). Inactive by
    /// default; when active every flushed batch may be dropped, duplicated,
    /// reordered, corrupted, or delayed, and the reliable layer — on
    /// whenever the schedule is — must mask it.
    pub faults: FaultSchedule,
    /// Seed for the fault schedule's deterministic decisions: a fixed
    /// seed faults exactly the same batches on every run of a
    /// deterministic workload.
    pub fault_seed: u64,
    /// Sync-RMI / future wait timeout in microseconds. `0` (the default)
    /// waits forever, as before. Non-zero makes `RmiFuture::try_get`
    /// return [`crate::RmiError::Timeout`] (and `get` panic with the same
    /// diagnostic: peer, handler type name, elapsed, retransmit count)
    /// instead of spinning forever on a dead peer.
    pub rmi_timeout_us: u64,
    /// Base retransmission timeout of the reliable layer, in microseconds: an unacked batch is re-sent after this
    /// long, then with exponential backoff plus deterministic jitter.
    /// Clamped to at least 1.
    pub retransmit_rto_us: u64,
}

impl Default for RtsConfig {
    fn default() -> Self {
        Self::base().with_env_overrides()
    }
}

impl RtsConfig {
    /// The built-in defaults, with *no* environment overrides applied.
    pub fn base() -> Self {
        RtsConfig {
            aggregation: 16,
            node_size: 0,
            internode_batch_delay_ns: 0,
            internode_per_msg_delay_ns: 0,
            dir_cache: true,
            dir_cache_capacity: 4096,
            flush_age_us: 0,
            bulk_threshold: 2,
            trace: false,
            trace_capacity: 1 << 16,
            reliable: false,
            faults: FaultSchedule::default(),
            fault_seed: 0x5EED_FA17,
            rmi_timeout_us: 0,
            retransmit_rto_us: 5_000,
        }
    }

    /// Applies the `STAPL_*` environment overrides documented on
    /// [`RtsConfig`] to this config.
    pub fn with_env_overrides(self) -> Self {
        self.with_overrides(|var| std::env::var(var).ok())
    }

    fn with_overrides(mut self, get: impl Fn(&str) -> Option<String>) -> Self {
        // `field <- VARIABLE: type, adjusted by`; an unparsable value is
        // ignored.
        macro_rules! overrides {
            ($($field:ident <- $var:literal: $ty:ty, $adjust:expr;)*) => {$(
                if let Some(v) = get($var).and_then(|v| v.parse::<$ty>().ok()) {
                    self.$field = $adjust(v);
                }
            )*};
        }
        overrides! {
            aggregation <- "STAPL_AGGREGATION": usize, |a: usize| a.max(1);
            dir_cache <- "STAPL_DIR_CACHE": u8, |c| c != 0;
            dir_cache_capacity <- "STAPL_DIR_CACHE_CAPACITY": usize, |c| c;
            flush_age_us <- "STAPL_FLUSH_AGE_US": u64, |a| a;
            bulk_threshold <- "STAPL_BULK_THRESHOLD": usize, |t: usize| t.max(1);
            trace <- "STAPL_TRACE": u8, |t| t != 0;
            trace_capacity <- "STAPL_TRACE_CAPACITY": usize, |c: usize| c.max(1);
            fault_seed <- "STAPL_FAULT_SEED": u64, |s| s;
            rmi_timeout_us <- "STAPL_RMI_TIMEOUT_US": u64, |t| t;
            retransmit_rto_us <- "STAPL_RETRANSMIT_RTO_US": u64, |t: u64| t.max(1);
        }
        // A malformed schedule is ignored like any other unparsable
        // override (the empty string parses to "no faults").
        if let Some(Ok(sched)) = get("STAPL_FAULTS").map(|f| FaultSchedule::parse(&f)) {
            self.faults = sched;
        }
        self
    }

    /// A config with no aggregation and no node model; useful in tests that
    /// reason about exact message counts.
    pub fn unbuffered() -> Self {
        RtsConfig { aggregation: 1, ..Self::default() }
    }

    /// A config with the given aggregation factor.
    pub fn with_aggregation(aggregation: usize) -> Self {
        RtsConfig { aggregation: aggregation.max(1), ..Self::default() }
    }

    /// A config with the directory owner caches switched off (every dynamic
    /// access resolves through the home location, as in the plain paper
    /// protocol).
    pub fn without_dir_cache() -> Self {
        RtsConfig { dir_cache: false, ..Self::default() }
    }

    /// A cluster-like config: nodes of `node_size` locations and the given
    /// per-batch inter-node latency in nanoseconds.
    pub fn clustered(node_size: usize, batch_delay_ns: u64, per_msg_delay_ns: u64) -> Self {
        RtsConfig {
            node_size,
            internode_batch_delay_ns: batch_delay_ns,
            internode_per_msg_delay_ns: per_msg_delay_ns,
            ..Self::default()
        }
    }

    /// A config with tracing enabled (see [`RtsConfig::trace`] and
    /// [`crate::execute_collect_traced`]).
    pub fn traced() -> Self {
        RtsConfig { trace: true, ..Self::default() }
    }

    /// A config with the reliable layer on and nothing injected (see
    /// [`RtsConfig::reliable`]): what the layer costs on a clean fabric.
    pub fn serialized() -> Self {
        RtsConfig { reliable: true, ..Self::default() }
    }

    /// A config with the given fault schedule and seed (see
    /// [`RtsConfig::faults`] and `rts::fault`), hence the reliable layer.
    pub fn with_faults(faults: FaultSchedule, fault_seed: u64) -> Self {
        RtsConfig { reliable: true, faults, fault_seed, ..Self::default() }
    }

    /// Whether batches travel under the reliable layer: asked for, or
    /// needed because a fault schedule is active.
    pub fn reliable_layer(&self) -> bool {
        self.reliable || self.faults.active()
    }

    /// The adaptive flush age as a [`std::time::Duration`] — the typed
    /// counterpart of the raw [`RtsConfig::flush_age_us`] field, and the
    /// accessor `Location::flush_idle` routes through. Zero means "flush
    /// immediately when idle".
    pub fn flush_age(&self) -> std::time::Duration {
        std::time::Duration::from_micros(self.flush_age_us)
    }

    /// Returns true when `a` and `b` are placed on different simulated nodes.
    pub fn cross_node(&self, a: usize, b: usize) -> bool {
        if self.node_size == 0 {
            return false;
        }
        a / self.node_size != b / self.node_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_is_single_node() {
        let c = RtsConfig::base();
        assert!(!c.cross_node(0, 7));
        assert!(c.aggregation > 1);
        assert!(c.dir_cache);
        assert!(c.dir_cache_capacity > 0);
        assert_eq!(c.flush_age_us, 0);
        assert!(c.bulk_threshold >= 1);
        assert!(!c.trace, "tracing must be off by default");
        assert!(c.trace_capacity >= 1);
        assert!(!c.faults.active(), "fault injection must be off by default");
        assert!(!c.reliable_layer(), "a clean in-process fabric needs no reliable layer");
        assert_eq!(c.rmi_timeout_us, 0, "RMI waits must not time out by default");
        assert!(c.retransmit_rto_us >= 1);
    }

    #[test]
    fn serialized_switches_transport() {
        let c = RtsConfig::base().with_overrides(|_| None);
        assert!(!c.reliable_layer());
        assert!(RtsConfig { reliable: true, ..c }.reliable_layer());
        // `serialized()` starts from the environment, which can only add a
        // fault schedule: the layer is on either way.
        assert!(RtsConfig::serialized().reliable_layer());
    }

    #[test]
    fn traced_turns_tracing_on() {
        assert!(RtsConfig::traced().trace);
    }

    #[test]
    fn flush_age_accessor_matches_raw_field() {
        let mut c = RtsConfig::base();
        assert!(c.flush_age().is_zero());
        c.flush_age_us = 2500;
        assert_eq!(c.flush_age(), std::time::Duration::from_micros(2500));
    }

    #[test]
    fn cross_node_grouping() {
        let c = RtsConfig::clustered(4, 100, 10);
        assert!(!c.cross_node(0, 3));
        assert!(c.cross_node(3, 4));
        assert!(c.cross_node(0, 15));
        assert!(!c.cross_node(5, 6));
    }

    #[test]
    fn unbuffered_has_no_aggregation() {
        assert_eq!(RtsConfig::unbuffered().aggregation, 1);
    }

    #[test]
    fn aggregation_clamped_to_one() {
        assert_eq!(RtsConfig::with_aggregation(0).aggregation, 1);
    }

    #[test]
    fn without_dir_cache_turns_caching_off() {
        assert!(!RtsConfig::without_dir_cache().dir_cache);
    }

    #[test]
    fn overrides_apply_and_clamp() {
        // Exercised through the injection point rather than the process
        // env: tests run concurrently and env mutation would race.
        let fake = |var: &str| match var {
            "STAPL_AGGREGATION" => Some("0".to_string()), // clamped to 1
            "STAPL_DIR_CACHE" => Some("0".to_string()),
            "STAPL_FLUSH_AGE_US" => Some("250".to_string()),
            "STAPL_DIR_CACHE_CAPACITY" => Some("not a number".to_string()),
            "STAPL_BULK_THRESHOLD" => Some("0".to_string()), // clamped to 1
            "STAPL_TRACE" => Some("1".to_string()),
            "STAPL_TRACE_CAPACITY" => Some("0".to_string()), // clamped to 1
            "STAPL_FAULTS" => Some("drop:0.25,delay_us:10".to_string()),
            "STAPL_FAULT_SEED" => Some("12345".to_string()),
            "STAPL_RMI_TIMEOUT_US" => Some("500000".to_string()),
            "STAPL_RETRANSMIT_RTO_US" => Some("0".to_string()), // clamped to 1
            _ => None,
        };
        let c = RtsConfig::base().with_overrides(fake);
        assert_eq!(c.aggregation, 1);
        assert!(!c.dir_cache);
        assert_eq!(c.flush_age_us, 250);
        assert_eq!(c.dir_cache_capacity, RtsConfig::base().dir_cache_capacity);
        assert_eq!(c.bulk_threshold, 1);
        assert!(c.trace);
        assert_eq!(c.trace_capacity, 1);
        assert_eq!(c.faults, FaultSchedule { drop: 0.25, delay_us: 10, ..Default::default() });
        assert!(!c.reliable && c.reliable_layer(), "a fault schedule alone turns the layer on");
        assert_eq!(c.fault_seed, 12345);
        assert_eq!(c.rmi_timeout_us, 500_000);
        assert_eq!(c.retransmit_rto_us, 1);
    }

    #[test]
    fn malformed_fault_schedule_is_ignored() {
        let c = RtsConfig::base()
            .with_overrides(|v| (v == "STAPL_FAULTS").then(|| "drop:2.0".to_string()));
        assert!(!c.faults.active());
    }

    #[test]
    fn unknown_transport_override_is_ignored() {
        // Every variable asked for is one of the table above; the transport
        // selector is not among them (there is one transport).
        let asked = std::cell::RefCell::new(Vec::new());
        RtsConfig::base().with_overrides(|v| {
            asked.borrow_mut().push(v.to_string());
            None
        });
        let asked = asked.into_inner();
        assert_eq!(asked.len(), 11, "{asked:?}");
        assert!(!asked.iter().any(|v| v.ends_with("_TRANSPORT")), "{asked:?}");
    }

    #[test]
    fn no_overrides_is_identity() {
        let c = RtsConfig::base().with_overrides(|_| None);
        assert_eq!(c.aggregation, RtsConfig::base().aggregation);
        assert_eq!(c.dir_cache, RtsConfig::base().dir_cache);
        assert_eq!(c.trace, RtsConfig::base().trace);
        assert_eq!(c.trace_capacity, RtsConfig::base().trace_capacity);
        assert_eq!(c.reliable, RtsConfig::base().reliable);
        assert_eq!(c.faults, RtsConfig::base().faults);
        assert_eq!(c.rmi_timeout_us, RtsConfig::base().rmi_timeout_us);
        assert_eq!(c.retransmit_rto_us, RtsConfig::base().retransmit_rto_us);
    }

    #[test]
    fn with_faults_activates_the_serialized_backend() {
        let sched = FaultSchedule { drop: 0.5, ..Default::default() };
        let c = RtsConfig::with_faults(sched, 7);
        assert!(c.reliable_layer());
        assert!(c.faults.active());
        assert_eq!(c.fault_seed, 7);
    }
}
