//! Runtime configuration: aggregation, directory caching, tracing, and the
//! reliable layer and its fault schedule.
//!
//! A knob is declared **once**, as a row of the `knobs!` table below: doc,
//! `field: Type = default`, and optionally `"STAPL_VAR" => parse`. The
//! table generates [`RtsConfig`]'s fields, [`RtsConfig::base`], the
//! environment parser behind [`RtsConfig::default`], the list of accepted
//! variables, and the table in `RtsConfig`'s rustdoc.

use crate::fault::FaultSchedule;

/// The env-override cell of a row in the generated table.
macro_rules! knob_var {
    () => {
        "—"
    };
    ($var:literal) => {
        concat!("`", $var, "`")
    };
}

/// Declares every knob: `/// doc`, then `field: Type = default`, then
/// optionally `, "STAPL_VAR" => parse` with `parse: fn(&str) ->
/// Option<Type>` (any clamp lives there); `;` ends the row.
macro_rules! knobs {
    ($(
        $(#[$doc:meta])*
        $field:ident: $ty:ty = $default:expr $(, $var:literal => $parse:expr)?;
    )*) => {
        macro_rules! knob_table {
            () => {
                concat!(
                    "| field | default | env override |\n|---|---|---|\n",
                    $("| [`", stringify!($field), "`](RtsConfig::", stringify!($field), ") | `",
                      stringify!($default), "` | ", knob_var!($($var)?), " |\n",)*
                )
            };
        }

        /// Configuration for one SPMD execution.
        ///
        /// The defaults model a single shared-memory node with moderate
        /// request aggregation.
        ///
        /// ## Environment overrides
        ///
        /// [`RtsConfig::default`] starts from [`RtsConfig::base`] and then
        /// applies the `STAPL_*` environment overrides of the table below, so
        /// a whole test run can be swept without touching code (the CI test
        /// matrix drives these). An empty value means unset; any other
        /// `STAPL_*` variable, or a value its row cannot parse, panics with
        /// the variables accepted. Explicit constructors
        /// ([`RtsConfig::unbuffered`], [`RtsConfig::with_aggregation`]) still
        /// win over the environment for the field they set.
        ///
        #[doc = knob_table!()]
        #[derive(Clone, Debug)]
        pub struct RtsConfig {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl RtsConfig {
            /// Every `STAPL_*` variable [`RtsConfig::default`] reads, in
            /// table order.
            const ENV_VARS: &'static [&'static str] = &[$($($var,)?)*];

            /// The built-in defaults, with *no* environment overrides applied.
            pub fn base() -> Self {
                RtsConfig { $($field: $default,)* }
            }

            /// Applies the `STAPL_*` overrides among `env`'s `(name, value)`
            /// pairs; names without the prefix and empty values are skipped.
            fn with_env<K: AsRef<str>, V: AsRef<str>>(
                mut self,
                env: impl IntoIterator<Item = (K, V)>,
            ) -> Result<Self, String> {
                for (name, value) in env {
                    let (name, value) = (name.as_ref(), value.as_ref());
                    if !name.starts_with("STAPL_") || value.is_empty() {
                        continue;
                    }
                    match name {
                        $($($var => {
                            let parse: fn(&str) -> Option<$ty> = $parse;
                            self.$field = parse(value).ok_or_else(|| {
                                env_error(name, value, concat!("is not a valid `", stringify!($field), "`"))
                            })?;
                        })?)*
                        _ => return Err(env_error(name, value, "is not a runtime knob")),
                    }
                }
                Ok(self)
            }
        }
    };
}

knobs! {
    /// Maximum number of RMI requests buffered per destination before the
    /// buffer is flushed as a single message. `1` disables aggregation.
    ///
    /// The paper's ARMI aggregates requests "to use bandwidth and reduce
    /// overhead"; this knob is swept in the aggregation ablation bench.
    ///
    /// The default is measured: a P=2 sweep of the time benchmark under the
    /// flush rules of DESIGN.md "The message buffer", on a 2-core x86-64
    /// host, ten seeds per width (median \[quartiles\]):
    ///
    /// | width | `rmi-writes` `solve_s`, ms | its `peak_rss_mb` | `rmi-reads` `solve_s`, ms | its `sync_op_p50_us` |
    /// |---|---|---|---|---|
    /// | 16 | 14.7 \[14.1–16.1\] | 28.06 | 45.6 \[44.9–48.9\] | 2.04 \[1.99–2.15\] |
    /// | 32 | 14.2 \[13.5–15.0\] | 27.08 | 47.3 \[46.2–48.8\] | 2.19 \[2.15–2.28\] |
    /// | 64 | 13.8 \[11.5–14.8\] | 26.77 | 47.5 \[46.9–47.9\] | 2.21 \[2.16–2.24\] |
    /// | **128** | 12.1 \[9.7–13.8\] | 26.66 | 44.1 \[42.8–46.5\] | 2.02 \[1.96–2.10\] |
    /// | 256 | 12.7 \[10.8–13.4\] | 26.60 | 45.7 \[43.8–47.3\] | 2.14 \[2.03–2.22\] |
    ///
    /// 128 has the best `rmi-writes` median. 16 and 32 lose to it in 10 and
    /// 9 of 10 seeds by more than their quartile spread; 64 does not, but
    /// reads slower than 128 on `rmi-reads` in 9 of 10 seeds (both
    /// columns), and 256 reads slower than 128 there in 8 and 9.
    aggregation: usize = 128, "STAPL_AGGREGATION" => |s| s.parse().ok().map(|a: usize| a.max(1));
    /// Maximum number of cached `gid → owner` entries per location *per
    /// container* in the directory owner caches consulted by
    /// `dir_route`/`dir_route_ret` before falling back to home-forwarding
    /// (the BCL-style locality optimization for dynamic containers). When
    /// full, an arbitrary entry is evicted; `0` switches the caches off.
    dir_cache_capacity: usize = 4096, "STAPL_DIR_CACHE_CAPACITY" => |s| s.parse().ok();
    /// Enables the per-location trace layer (`rts::trace`): with
    /// monotonic timestamps, an instant per move of a traced counter row
    /// (named after the row, carrying the increment) and the six span
    /// kinds, each with its latency histogram; collected by
    /// [`crate::execute_collect_traced`]. Off by default; when off the hot
    /// paths pay a single branch and record nothing. Environment: `0`/`1`.
    trace: bool = false, "STAPL_TRACE" => |s| s.parse().ok().map(|t: u8| t != 0);
    /// Asks for the reliable layer (see `rts::transport`) with nothing
    /// injected: every batch travels sealed — sequence number, cumulative
    /// ack, one checksum — is retained until acked, and the fence waits for
    /// the acks. Off by default: the in-process fabric cannot lose data.
    /// An active [`RtsConfig::faults`] schedule switches the layer on
    /// whatever this says; read [`RtsConfig::reliable_layer`].
    reliable: bool = false;
    /// Seeded fabric-fault schedule (grammar in `rts::fault`). Inactive by
    /// default; when active every flushed batch may be dropped, duplicated,
    /// reordered, corrupted, or delayed, and the reliable layer — on
    /// whenever the schedule is — must mask it.
    faults: FaultSchedule = FaultSchedule::default(), "STAPL_FAULTS" => |s| FaultSchedule::parse(s).ok();
    /// Seed for the fault schedule's deterministic decisions: a fixed
    /// seed faults exactly the same batches on every run of a
    /// deterministic workload.
    fault_seed: u64 = 0x5EED_FA17, "STAPL_FAULT_SEED" => |s| s.parse().ok();
    /// Sync-RMI / future wait timeout in microseconds. `0` (the default)
    /// waits forever. Non-zero makes `RmiFuture::try_get` return
    /// [`crate::RmiError::Timeout`] (and `get` panic with the same
    /// diagnostic: peer, handler type name, elapsed, retransmit count)
    /// instead of spinning forever on a dead peer. Only tests set it: it is
    /// error handling, turning a hang into a diagnosable failure.
    rmi_timeout_us: u64 = 0, "STAPL_RMI_TIMEOUT_US" => |s| s.parse().ok();
    /// Base retransmission timeout of the reliable layer, in microseconds:
    /// an unacked batch is re-sent after this long, then with exponential
    /// backoff plus deterministic jitter. Clamped to at least 1.
    retransmit_rto_us: u64 = 5_000, "STAPL_RETRANSMIT_RTO_US" => |s| s.parse().ok().map(|t: u64| t.max(1));
}

/// Why an environment override was refused, naming what the table accepts.
fn env_error(name: &str, value: &str, why: &str) -> String {
    format!(
        "stapl-rts: {name}={value:?} {why}; the STAPL_* variables are {} (an empty value means unset)",
        RtsConfig::ENV_VARS.join(", ")
    )
}

impl Default for RtsConfig {
    /// [`RtsConfig::base`] with the process's `STAPL_*` overrides applied.
    ///
    /// # Panics
    ///
    /// On a `STAPL_*` variable the table does not know, or a non-empty value
    /// its row cannot parse.
    fn default() -> Self {
        let env = std::env::vars_os()
            .map(|(k, v)| (k.to_string_lossy().into_owned(), v.to_string_lossy().into_owned()));
        Self::base().with_env(env).unwrap_or_else(|e| panic!("{e}"))
    }
}

impl RtsConfig {
    /// A config with no aggregation; useful in tests that reason about
    /// exact message counts.
    pub fn unbuffered() -> Self {
        RtsConfig { aggregation: 1, ..Self::default() }
    }

    /// A config with the given aggregation factor.
    pub fn with_aggregation(aggregation: usize) -> Self {
        RtsConfig { aggregation: aggregation.max(1), ..Self::default() }
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table as rendered into `RtsConfig`'s rustdoc.
    const DOC_TABLE: &str = knob_table!();

    fn env(pairs: &[(&str, &str)]) -> Result<RtsConfig, String> {
        RtsConfig::base().with_env(pairs.iter().copied())
    }

    fn debug(c: &RtsConfig) -> String {
        format!("{c:?}")
    }

    #[test]
    fn base_is_single_node() {
        let c = RtsConfig::base();
        assert!(c.aggregation > 1);
        assert!(c.dir_cache_capacity > 0);
        assert!(!c.trace, "tracing must be off by default");
        assert!(!c.faults.active(), "fault injection must be off by default");
        assert!(!c.reliable_layer(), "a clean in-process fabric needs no reliable layer");
        assert_eq!(c.rmi_timeout_us, 0, "RMI waits must not time out by default");
        assert!(c.retransmit_rto_us >= 1);
    }

    #[test]
    fn serialized_switches_transport() {
        let c = RtsConfig::base();
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
    fn unbuffered_has_no_aggregation() {
        assert_eq!(RtsConfig::unbuffered().aggregation, 1);
    }

    #[test]
    fn aggregation_clamped_to_one() {
        assert_eq!(RtsConfig::with_aggregation(0).aggregation, 1);
    }

    #[test]
    fn overrides_apply_and_clamp() {
        // Fed as pairs rather than through the process env: tests run
        // concurrently and env mutation would race.
        let c = env(&[
            ("STAPL_AGGREGATION", "0"),
            ("STAPL_DIR_CACHE_CAPACITY", "0"),
            ("STAPL_TRACE", "1"),
            ("STAPL_FAULTS", "drop:0.25,delay_us:10"),
            ("STAPL_FAULT_SEED", "12345"),
            ("STAPL_RMI_TIMEOUT_US", "500000"),
            ("STAPL_RETRANSMIT_RTO_US", "0"),
            ("PATH", "/bin"),
        ])
        .unwrap();
        assert_eq!(c.aggregation, 1, "clamped");
        assert_eq!(c.dir_cache_capacity, 0);
        assert!(c.trace);
        assert_eq!(c.faults, FaultSchedule { drop: 0.25, delay_us: 10, ..Default::default() });
        assert!(!c.reliable && c.reliable_layer(), "a fault schedule alone turns the layer on");
        assert_eq!(c.fault_seed, 12345);
        assert_eq!(c.rmi_timeout_us, 500_000);
        assert_eq!(c.retransmit_rto_us, 1, "clamped");
    }

    #[test]
    fn each_row_sets_its_own_field_and_no_other() {
        let base = RtsConfig::base();
        let rows = [
            ("STAPL_AGGREGATION", "16", RtsConfig { aggregation: 16, ..RtsConfig::base() }),
            ("STAPL_DIR_CACHE_CAPACITY", "8", RtsConfig { dir_cache_capacity: 8, ..RtsConfig::base() }),
            ("STAPL_TRACE", "1", RtsConfig { trace: true, ..RtsConfig::base() }),
            (
                "STAPL_FAULTS",
                "corrupt:0.5",
                RtsConfig { faults: FaultSchedule { corrupt: 0.5, ..Default::default() }, ..RtsConfig::base() },
            ),
            ("STAPL_FAULT_SEED", "9", RtsConfig { fault_seed: 9, ..RtsConfig::base() }),
            ("STAPL_RMI_TIMEOUT_US", "3", RtsConfig { rmi_timeout_us: 3, ..RtsConfig::base() }),
            ("STAPL_RETRANSMIT_RTO_US", "500", RtsConfig { retransmit_rto_us: 500, ..RtsConfig::base() }),
        ];
        assert_eq!(rows.iter().map(|r| r.0).collect::<Vec<_>>(), RtsConfig::ENV_VARS, "a row per variable");
        for (var, value, want) in &rows {
            let got = env(&[(var, value)]).unwrap();
            assert_eq!(debug(&got), debug(want), "{var}={value} set the wrong field");
            assert_ne!(debug(&got), debug(&base), "{var}={value} is the default");
        }
    }

    #[test]
    fn doc_table_lists_each_variable_once() {
        for var in RtsConfig::ENV_VARS {
            assert_eq!(DOC_TABLE.matches(&format!("`{var}`")).count(), 1, "{var}\n{DOC_TABLE}");
        }
        // One row per field: 8 fields, 7 of them with a variable.
        assert_eq!(RtsConfig::ENV_VARS.len(), 7);
        assert_eq!(DOC_TABLE.lines().count(), 2 + 8);
        assert_eq!(DOC_TABLE.matches("| — |").count(), 8 - RtsConfig::ENV_VARS.len());
    }

    #[test]
    fn unknown_or_unparsable_overrides_are_reported() {
        for (var, value) in [
            ("STAPL_FLUSH_AGE_US", "250"),
            ("STAPL_TRACE_CAPACITY", "1024"),
            ("STAPL_AGREGATION", "64"),
            ("STAPL_AGGREGATION", "sixteen"),
            ("STAPL_DIR_CACHE_CAPACITY", "-1"),
        ] {
            let err = env(&[(var, value)]).unwrap_err();
            assert!(err.contains(&format!("{var}=\"{value}\"")), "{err}");
            assert!(RtsConfig::ENV_VARS.iter().all(|v| err.contains(v)), "{err}");
        }
        let err = env(&[("STAPL_AGGREGATION", "sixteen")]).unwrap_err();
        assert!(err.contains("`aggregation`"), "{err}");
    }

    #[test]
    fn malformed_fault_schedule_is_reported() {
        let err = env(&[("STAPL_FAULTS", "drop:2.0")]).unwrap_err();
        assert!(err.contains("STAPL_FAULTS=\"drop:2.0\"") && err.contains("`faults`"), "{err}");
    }

    #[test]
    fn empty_values_mean_unset() {
        // What the CI matrix exports for the knobs a leg does not set.
        let unset: Vec<(&str, &str)> = RtsConfig::ENV_VARS.iter().map(|v| (*v, "")).collect();
        assert_eq!(debug(&env(&unset).unwrap()), debug(&RtsConfig::base()));
        assert_eq!(debug(&env(&[("STAPL_NO_SUCH_KNOB", "")]).unwrap()), debug(&RtsConfig::base()));
    }

    #[test]
    fn unknown_transport_override_is_ignored() {
        // There is one transport: no variable of the table selects one.
        assert!(!RtsConfig::ENV_VARS.iter().any(|v| v.ends_with("_TRANSPORT")), "{:?}", RtsConfig::ENV_VARS);
        assert!(RtsConfig::ENV_VARS.iter().all(|v| v.starts_with("STAPL_")));
    }

    #[test]
    fn no_overrides_is_identity() {
        assert_eq!(debug(&env(&[]).unwrap()), debug(&RtsConfig::base()));
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
