//! Simulation parameters — Table 2 of the paper, plus derived quantities,
//! the fault-injection knobs, and the typed [`ConfigError`] validation.

use outerspace_json::{impl_to_json, Json, ToJson};

/// Which machine model the simulator instantiates (see `crate::model`).
///
/// The configuration struct is shared: Table-2 fields parameterize both
/// designs (clock, HBM, caches), while the `sparch_*`/`merge_tree_*` fields
/// only matter under [`MachineKind::SpArch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MachineKind {
    /// The OuterSPACE pipeline: format conversion, tiled outer-product
    /// multiply into a chunked intermediate, streaming multi-way merge.
    #[default]
    OuterSpace,
    /// The SpArch analog: condensed-A streamed multiply feeding a pipelined
    /// comparator-array merge tree with a Huffman merge scheduler.
    SpArch,
}

impl MachineKind {
    /// Stable identifier used in JSON artifacts and memo-cache keys.
    pub fn as_str(self) -> &'static str {
        match self {
            MachineKind::OuterSpace => "outerspace",
            MachineKind::SpArch => "sparch",
        }
    }

    /// Inverse of [`MachineKind::as_str`].
    pub fn parse(s: &str) -> Option<MachineKind> {
        match s {
            "outerspace" => Some(MachineKind::OuterSpace),
            "sparch" => Some(MachineKind::SpArch),
            _ => None,
        }
    }
}

impl std::fmt::Display for MachineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl ToJson for MachineKind {
    fn to_json(&self) -> Json {
        Json::Str(self.as_str().to_string())
    }
}

/// A violated configuration invariant, returned by
/// [`OuterSpaceConfig::validate`] and [`crate::Simulator::new`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `n_tiles` or `pes_per_tile` is zero.
    NoProcessingElements,
    /// Cache block size is zero or not a power of two.
    BadBlockSize {
        /// The offending value.
        got: u32,
    },
    /// L0 or L1 associativity is not a power of two (set indexing assumes
    /// power-of-two ways; a DSE sweep must skip such points, not panic).
    BadAssociativity {
        /// The offending value.
        got: u32,
    },
    /// HBM channel count is zero or not a power of two.
    BadChannelCount {
        /// The offending value.
        got: u32,
    },
    /// L0 or L1 associativity is zero.
    ZeroAssociativity,
    /// The multiply-phase L0 cannot hold even one set.
    CacheTooSmall {
        /// Configured L0 size in bytes.
        l0_bytes: u32,
        /// Minimum size implied by `block_bytes * l0_ways` (computed in u64
        /// so extreme sweep points report the true requirement).
        required: u64,
    },
    /// The PE clock is zero, negative, or non-finite.
    NonPositiveClock {
        /// The offending value in GHz.
        got: f64,
    },
    /// More merge-phase PEs activated than exist in a tile.
    TooManyMergePes {
        /// Requested active merge PEs per tile.
        active: u32,
        /// PEs physically present per tile.
        per_tile: u32,
    },
    /// The per-PE outstanding-request queue has no entries.
    ZeroQueueCapacity,
    /// A fault-model probability knob is outside `[0, 1]` or non-finite.
    BadFaultProbability {
        /// Which knob (`"hbm_ber"`, `"drop_rate"`, or `"ber_silent"`).
        knob: &'static str,
        /// The offending value.
        got: f64,
    },
    /// Response drops are enabled but the retry budget or timeout is zero,
    /// so a dropped response could never be recovered.
    BadRetryPolicy,
    /// SpArch machine parameters out of range: the merge tree needs at
    /// least two ways and at least one multiplier PE.
    BadSparchShape {
        /// Configured merge-tree arity.
        merge_tree_ways: u32,
        /// Configured multiplier PE count.
        sparch_mul_pes: u32,
    },
    /// More PEs killed than exist in the system.
    TooManyKilledPes {
        /// Requested kill count.
        kills: u32,
        /// Total PEs in the system.
        total: u64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ConfigError::NoProcessingElements => {
                write!(f, "need at least one tile and one PE per tile")
            }
            ConfigError::BadBlockSize { got } => {
                write!(f, "block size must be a non-zero power of two, got {got}")
            }
            ConfigError::BadChannelCount { got } => {
                write!(f, "channel count must be a non-zero power of two, got {got}")
            }
            ConfigError::ZeroAssociativity => write!(f, "associativity must be non-zero"),
            ConfigError::BadAssociativity { got } => {
                write!(f, "associativity must be a power of two, got {got}")
            }
            ConfigError::CacheTooSmall { l0_bytes, required } => {
                write!(f, "L0 must hold at least one set: {l0_bytes} B < {required} B")
            }
            ConfigError::NonPositiveClock { got } => {
                write!(f, "clock must be positive, got {got} GHz")
            }
            ConfigError::TooManyMergePes { active, per_tile } => {
                write!(f, "cannot activate {active} merge PEs in a {per_tile}-PE tile")
            }
            ConfigError::ZeroQueueCapacity => {
                write!(f, "outstanding-request queue needs at least one entry")
            }
            ConfigError::BadFaultProbability { knob, got } => {
                write!(f, "fault probability {knob} must be in [0, 1], got {got}")
            }
            ConfigError::BadRetryPolicy => {
                write!(f, "response drops enabled but max_retries or timeout_cycles is zero")
            }
            ConfigError::BadSparchShape { merge_tree_ways, sparch_mul_pes } => {
                write!(
                    f,
                    "sparch needs >= 2 merge-tree ways and >= 1 multiplier PE, \
                     got {merge_tree_ways} ways / {sparch_mul_pes} PEs"
                )
            }
            ConfigError::TooManyKilledPes { kills, total } => {
                write!(f, "cannot kill {kills} of {total} PEs")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Fault-injection knobs. The default model is **inert**: every probability
/// and kill count is zero, and a zero-fault run is cycle-identical to a
/// simulator without the fault layer compiled in (asserted in
/// `tests/fault_injection.rs`).
///
/// All injection is a deterministic function of `seed` and the position of
/// the access in the run, never of host entropy, so degradation curves are
/// reproducible artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultModel {
    /// Seed for the injector's counter-based generator.
    pub seed: u64,
    /// HBM bit-error rate: probability that any given *bit* of a block read
    /// from HBM arrives flipped. ECC detects the error; the access is
    /// retried ([`FaultModel::ecc_retry_cycles`] plus a re-transfer).
    pub hbm_ber: f64,
    /// Probability that one attempt of an HBM read response is dropped in
    /// the network and must be recovered by timeout + retry.
    pub drop_rate: f64,
    /// Silent bit-error rate: probability that a bit of an HBM block flips
    /// *and escapes ECC*. No error is raised, no latency is charged — the
    /// delivered value is simply wrong. This is the SDC knob the serve
    /// layer's verification tier exists to catch; the event count surfaces
    /// as `silent_corruptions` in [`crate::stats::PhaseStats`].
    pub ber_silent: f64,
    /// Number of PEs that fail hard during the run (0 = none).
    pub pe_kill_count: u32,
    /// Cycle at which the killed PEs die.
    pub pe_kill_cycle: u64,
    /// Bounded retry budget for dropped responses; exceeding it aborts the
    /// phase with [`crate::SimError::MemoryFailure`].
    pub max_retries: u32,
    /// Latency penalty per ECC detect-and-retry event, in PE cycles
    /// (default ≈ one extra mean-latency HBM round trip).
    pub ecc_retry_cycles: u64,
    /// Base timeout before a dropped response is re-requested; retry `k`
    /// waits `timeout_cycles << k` (exponential backoff).
    pub timeout_cycles: u64,
    /// Per-phase watchdog: abort with [`crate::SimError::WatchdogTimeout`]
    /// if a phase's makespan exceeds this many cycles. 0 disables it.
    pub watchdog_cycles: u64,
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel {
            seed: 0,
            hbm_ber: 0.0,
            drop_rate: 0.0,
            ber_silent: 0.0,
            pe_kill_count: 0,
            pe_kill_cycle: 0,
            max_retries: 4,
            // ~ mean HBM latency (172.5 cycles at Table 2 defaults): an ECC
            // retry costs about one extra round trip.
            ecc_retry_cycles: 173,
            timeout_cycles: 512,
            watchdog_cycles: 0,
        }
    }
}

impl FaultModel {
    /// True when any injection mechanism can fire.
    pub fn is_active(&self) -> bool {
        self.hbm_ber > 0.0 || self.drop_rate > 0.0 || self.ber_silent > 0.0 || self.pe_kill_count > 0
    }
}

impl_to_json!(FaultModel {
    seed,
    hbm_ber,
    drop_rate,
    ber_silent,
    pe_kill_count,
    pe_kill_cycle,
    max_retries,
    ecc_retry_cycles,
    timeout_cycles,
    watchdog_cycles,
});

/// Full configuration of the simulated OuterSPACE system.
///
/// [`OuterSpaceConfig::default`] reproduces Table 2 exactly: 16 tiles of 16
/// PEs at 1.5 GHz, 16 kB shared L0 caches per tile (multiply phase), 2 kB
/// private cache + 2 kB scratchpad per active PE-pair (merge phase), four
/// 4 kB L1 victim caches, and HBM 2.0 with 16 pseudo-channels of 8000 MB/s.
///
/// # Example
///
/// ```
/// use outerspace_sim::OuterSpaceConfig;
///
/// let cfg = OuterSpaceConfig::default();
/// assert_eq!(cfg.total_pes(), 256);
/// assert_eq!(cfg.hbm_total_bandwidth_bytes_per_sec(), 128_000_000_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OuterSpaceConfig {
    /// PE clock in GHz (Table 2: 1.5 GHz).
    pub clock_ghz: f64,
    /// Number of processing tiles (16).
    pub n_tiles: u32,
    /// PEs per tile (16).
    pub pes_per_tile: u32,
    /// Outstanding-request queue entries per PE (64).
    pub outstanding_requests: u32,
    /// Private PE scratchpad in bytes (1 kB).
    pub pe_scratchpad_bytes: u32,

    /// Multiply-phase L0: shared per-tile cache size in bytes (16 kB).
    pub l0_multiply_bytes: u32,
    /// L0 associativity (4).
    pub l0_ways: u32,
    /// L0 MSHRs in multiply mode (32).
    pub l0_mshrs_multiply: u32,

    /// Merge-phase private cache per active PE-pair in bytes (2 kB).
    pub l0_merge_bytes: u32,
    /// Merge-phase scratchpad per active PE-pair in bytes (2 kB).
    pub merge_scratchpad_bytes: u32,
    /// L0 MSHRs in merge mode (8).
    pub l0_mshrs_merge: u32,
    /// Active PEs per tile during the merge phase (8; the rest are
    /// power-gated, §6). They operate as loader/sorter pairs.
    pub merge_active_pes_per_tile: u32,

    /// L1 victim cache size in bytes (4 kB each).
    pub l1_bytes: u32,
    /// L1 associativity (2).
    pub l1_ways: u32,
    /// Number of L1 caches (4).
    pub n_l1: u32,
    /// L1 MSHRs (32).
    pub l1_mshrs: u32,

    /// Cache block size in bytes (64).
    pub block_bytes: u32,

    /// HBM pseudo-channels (16).
    pub hbm_channels: u32,
    /// Per-channel bandwidth in MB/s (8000).
    pub hbm_channel_mb_per_sec: u32,
    /// Minimum HBM access latency in nanoseconds (80).
    pub hbm_latency_min_ns: f64,
    /// Maximum HBM access latency in nanoseconds (150).
    pub hbm_latency_max_ns: f64,

    /// L0 hit latency in PE cycles.
    pub l0_hit_cycles: u64,
    /// Additional L1 hit latency in PE cycles (includes the 16×16 crossbar
    /// traversal).
    pub l1_hit_cycles: u64,
    /// Crossbar traversal cycles charged on the L1→HBM path (4×4 swizzle
    /// switch).
    pub xbar_cycles: u64,

    /// Which machine model to simulate (OuterSPACE by default).
    pub machine: MachineKind,
    /// SpArch only: comparator-array merge-tree arity (64-way in the
    /// paper). Ignored under [`MachineKind::OuterSpace`].
    pub merge_tree_ways: u32,
    /// SpArch only: multiplier-array PE count streaming condensed outer
    /// products (16 in the paper's multiplier array). Ignored under
    /// [`MachineKind::OuterSpace`].
    pub sparch_mul_pes: u32,

    /// Fault-injection knobs (inert by default).
    pub faults: FaultModel,
}

impl Default for OuterSpaceConfig {
    fn default() -> Self {
        OuterSpaceConfig {
            clock_ghz: 1.5,
            n_tiles: 16,
            pes_per_tile: 16,
            outstanding_requests: 64,
            pe_scratchpad_bytes: 1024,
            l0_multiply_bytes: 16 * 1024,
            l0_ways: 4,
            l0_mshrs_multiply: 32,
            l0_merge_bytes: 2 * 1024,
            merge_scratchpad_bytes: 2 * 1024,
            l0_mshrs_merge: 8,
            merge_active_pes_per_tile: 8,
            l1_bytes: 4 * 1024,
            l1_ways: 2,
            n_l1: 4,
            l1_mshrs: 32,
            block_bytes: 64,
            hbm_channels: 16,
            hbm_channel_mb_per_sec: 8000,
            hbm_latency_min_ns: 80.0,
            hbm_latency_max_ns: 150.0,
            l0_hit_cycles: 2,
            l1_hit_cycles: 10,
            xbar_cycles: 3,
            machine: MachineKind::OuterSpace,
            merge_tree_ways: 64,
            sparch_mul_pes: 16,
            faults: FaultModel::default(),
        }
    }
}

impl_to_json!(OuterSpaceConfig {
    clock_ghz,
    n_tiles,
    pes_per_tile,
    outstanding_requests,
    pe_scratchpad_bytes,
    l0_multiply_bytes,
    l0_ways,
    l0_mshrs_multiply,
    l0_merge_bytes,
    merge_scratchpad_bytes,
    l0_mshrs_merge,
    merge_active_pes_per_tile,
    l1_bytes,
    l1_ways,
    n_l1,
    l1_mshrs,
    block_bytes,
    hbm_channels,
    hbm_channel_mb_per_sec,
    hbm_latency_min_ns,
    hbm_latency_max_ns,
    l0_hit_cycles,
    l1_hit_cycles,
    xbar_cycles,
    machine,
    merge_tree_ways,
    sparch_mul_pes,
    faults,
});

impl OuterSpaceConfig {
    /// Total PEs in the system (`n_tiles × pes_per_tile`; 256 by default).
    ///
    /// Computed in u64: a design-space sweep may legitimately probe corner
    /// points (e.g. `u32::MAX` tiles) whose product overflows u32, and the
    /// derived quantities must stay exact there so `validate()` can reject
    /// the point instead of the math silently wrapping.
    pub fn total_pes(&self) -> u64 {
        self.n_tiles as u64 * self.pes_per_tile as u64
    }

    /// Merge-phase worker pairs per tile (half the active PEs: one loader +
    /// one sorter per pair, §5.4.2).
    pub fn merge_pairs_per_tile(&self) -> u32 {
        (self.merge_active_pes_per_tile / 2).max(1)
    }

    /// Aggregate HBM bandwidth in bytes/second (128 GB/s by default).
    ///
    /// Saturating: at extreme sweep bounds (u32::MAX channels of u32::MAX
    /// MB/s) the true product exceeds u64, and a saturated ceiling is the
    /// honest answer for a bandwidth bound — never a wrapped small number.
    pub fn hbm_total_bandwidth_bytes_per_sec(&self) -> u64 {
        (self.hbm_channels as u64)
            .saturating_mul(self.hbm_channel_mb_per_sec as u64)
            .saturating_mul(1_000_000)
    }

    /// PE cycles needed to transfer one cache block on one HBM channel.
    pub fn hbm_cycles_per_block(&self) -> f64 {
        let ns_per_block =
            self.block_bytes as f64 / (self.hbm_channel_mb_per_sec as f64 * 1e6) * 1e9;
        ns_per_block * self.clock_ghz
    }

    /// Mean HBM access latency in PE cycles.
    pub fn hbm_latency_cycles(&self) -> f64 {
        0.5 * (self.hbm_latency_min_ns + self.hbm_latency_max_ns) * self.clock_ghz
    }

    /// Seconds represented by `cycles` PE cycles.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1e9)
    }

    /// SpArch merge-tree steady-state throughput in elements per PE cycle.
    ///
    /// A `w`-way comparator array retires one merged element per comparator
    /// column per cycle once the pipeline fills; scaled against the paper's
    /// 16-way baseline column so the default 64-way tree retires 4
    /// elements/cycle.
    pub fn merge_tree_throughput(&self) -> u64 {
        (self.merge_tree_ways as u64 / 16).max(1)
    }

    /// Capacity of a merge scratchpad in 12 B elements — the bound on how
    /// many chunk heads a PE-pair can keep resident, which triggers the
    /// recursive sub-merge of §5.4.2 when exceeded.
    pub fn merge_head_capacity(&self) -> usize {
        (self.merge_scratchpad_bytes as usize) / 12
    }

    /// The §8 scale-up configuration: "a silicon-interposed system with 4
    /// HBMs and 4× the PEs on-chip could be realized" — 64 tiles, 64 HBM
    /// pseudo-channels, proportionally more L1 slices.
    pub fn interposed_4x(&self) -> Self {
        let mut cfg = self.clone();
        // Saturating: scaling an already-extreme sweep point must not wrap
        // (debug) or alias a small machine (release); a saturated value is
        // caught by validate() (u32::MAX is not a power of two).
        cfg.n_tiles = cfg.n_tiles.saturating_mul(4);
        cfg.hbm_channels = cfg.hbm_channels.saturating_mul(4);
        cfg.n_l1 = cfg.n_l1.saturating_mul(4);
        cfg
    }

    /// A multi-node system of `nodes` [`OuterSpaceConfig::interposed_4x`]
    /// chips in a torus (§8), approximated for throughput studies as a
    /// proportional widening with an inter-node latency penalty folded into
    /// the crossbar hop count. Node counts must be powers of two.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or not a power of two.
    pub fn torus(&self, nodes: u32) -> Self {
        assert!(nodes > 0 && nodes.is_power_of_two(), "node count must be a power of two");
        let mut cfg = self.interposed_4x();
        cfg.n_tiles = cfg.n_tiles.saturating_mul(nodes);
        cfg.hbm_channels = cfg.hbm_channels.saturating_mul(nodes);
        cfg.n_l1 = cfg.n_l1.saturating_mul(nodes);
        // Each torus hop adds SerDes latency; mean hop count grows with the
        // ring dimension.
        cfg.xbar_cycles = cfg.xbar_cycles.saturating_add(8 * (nodes as f64).sqrt().round() as u64);
        cfg
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_tiles == 0 || self.pes_per_tile == 0 {
            return Err(ConfigError::NoProcessingElements);
        }
        if self.block_bytes == 0 || !self.block_bytes.is_power_of_two() {
            return Err(ConfigError::BadBlockSize { got: self.block_bytes });
        }
        if self.hbm_channels == 0 || !self.hbm_channels.is_power_of_two() {
            return Err(ConfigError::BadChannelCount { got: self.hbm_channels });
        }
        if self.l0_ways == 0 || self.l1_ways == 0 {
            return Err(ConfigError::ZeroAssociativity);
        }
        for ways in [self.l0_ways, self.l1_ways] {
            if !ways.is_power_of_two() {
                return Err(ConfigError::BadAssociativity { got: ways });
            }
        }
        // u64: `block_bytes * l0_ways` can exceed u32 at sweep extremes and
        // a wrapped product would wave an undersized cache through.
        let required = self.block_bytes as u64 * self.l0_ways as u64;
        if (self.l0_multiply_bytes as u64) < required {
            return Err(ConfigError::CacheTooSmall {
                l0_bytes: self.l0_multiply_bytes,
                required,
            });
        }
        if self.clock_ghz <= 0.0 || self.clock_ghz.is_nan() || !self.clock_ghz.is_finite() {
            return Err(ConfigError::NonPositiveClock { got: self.clock_ghz });
        }
        if self.merge_active_pes_per_tile > self.pes_per_tile {
            return Err(ConfigError::TooManyMergePes {
                active: self.merge_active_pes_per_tile,
                per_tile: self.pes_per_tile,
            });
        }
        if self.outstanding_requests == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if self.machine == MachineKind::SpArch
            && (self.merge_tree_ways < 2 || self.sparch_mul_pes == 0)
        {
            return Err(ConfigError::BadSparchShape {
                merge_tree_ways: self.merge_tree_ways,
                sparch_mul_pes: self.sparch_mul_pes,
            });
        }
        for (knob, p) in [
            ("hbm_ber", self.faults.hbm_ber),
            ("drop_rate", self.faults.drop_rate),
            ("ber_silent", self.faults.ber_silent),
        ] {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(ConfigError::BadFaultProbability { knob, got: p });
            }
        }
        if self.faults.drop_rate > 0.0
            && (self.faults.max_retries == 0 || self.faults.timeout_cycles == 0)
        {
            return Err(ConfigError::BadRetryPolicy);
        }
        if self.faults.pe_kill_count as u64 > self.total_pes() {
            return Err(ConfigError::TooManyKilledPes {
                kills: self.faults.pe_kill_count,
                total: self.total_pes(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use outerspace_json::ToJson;

    #[test]
    fn default_matches_table2() {
        let c = OuterSpaceConfig::default();
        assert_eq!(c.total_pes(), 256);
        assert_eq!(c.l0_multiply_bytes, 16384);
        assert_eq!(c.l0_merge_bytes, 2048);
        assert_eq!(c.hbm_channels, 16);
        assert_eq!(c.hbm_total_bandwidth_bytes_per_sec(), 128_000_000_000);
        assert!(c.validate().is_ok());
        assert!(!c.faults.is_active());
    }

    #[test]
    fn bandwidth_math() {
        let c = OuterSpaceConfig::default();
        // 64 B at 8000 MB/s = 8 ns = 12 cycles at 1.5 GHz.
        assert!((c.hbm_cycles_per_block() - 12.0).abs() < 1e-9);
        // Mean latency (80+150)/2 = 115 ns = 172.5 cycles.
        assert!((c.hbm_latency_cycles() - 172.5).abs() < 1e-9);
    }

    #[test]
    fn merge_head_capacity_matches_scratchpad() {
        let c = OuterSpaceConfig::default();
        assert_eq!(c.merge_head_capacity(), 170);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let c = OuterSpaceConfig { block_bytes: 48, ..Default::default() };
        assert_eq!(c.validate(), Err(ConfigError::BadBlockSize { got: 48 }));
        let c = OuterSpaceConfig { n_tiles: 0, ..Default::default() };
        assert_eq!(c.validate(), Err(ConfigError::NoProcessingElements));
        let c = OuterSpaceConfig { merge_active_pes_per_tile: 99, ..Default::default() };
        assert_eq!(
            c.validate(),
            Err(ConfigError::TooManyMergePes { active: 99, per_tile: 16 })
        );
    }

    #[test]
    fn validation_catches_degenerate_memory_system() {
        let c = OuterSpaceConfig { hbm_channels: 12, ..Default::default() };
        assert_eq!(c.validate(), Err(ConfigError::BadChannelCount { got: 12 }));
        let c = OuterSpaceConfig { l0_ways: 0, ..Default::default() };
        assert_eq!(c.validate(), Err(ConfigError::ZeroAssociativity));
        let c = OuterSpaceConfig { l0_ways: 3, ..Default::default() };
        assert_eq!(c.validate(), Err(ConfigError::BadAssociativity { got: 3 }));
        let c = OuterSpaceConfig { l1_ways: 6, ..Default::default() };
        assert_eq!(c.validate(), Err(ConfigError::BadAssociativity { got: 6 }));
        let c = OuterSpaceConfig { l0_multiply_bytes: 128, ..Default::default() };
        assert_eq!(
            c.validate(),
            Err(ConfigError::CacheTooSmall { l0_bytes: 128, required: 256 })
        );
        let c = OuterSpaceConfig { clock_ghz: 0.0, ..Default::default() };
        assert!(matches!(c.validate(), Err(ConfigError::NonPositiveClock { .. })));
        let c = OuterSpaceConfig { clock_ghz: f64::NAN, ..Default::default() };
        assert!(matches!(c.validate(), Err(ConfigError::NonPositiveClock { .. })));
        let c = OuterSpaceConfig { outstanding_requests: 0, ..Default::default() };
        assert_eq!(c.validate(), Err(ConfigError::ZeroQueueCapacity));
    }

    #[test]
    fn validation_catches_bad_fault_models() {
        let mut c = OuterSpaceConfig::default();
        c.faults.hbm_ber = 1.5;
        assert_eq!(
            c.validate(),
            Err(ConfigError::BadFaultProbability { knob: "hbm_ber", got: 1.5 })
        );
        let mut c = OuterSpaceConfig::default();
        c.faults.drop_rate = -0.1;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::BadFaultProbability { knob: "drop_rate", .. })
        ));
        let mut c = OuterSpaceConfig::default();
        c.faults.ber_silent = f64::NAN;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::BadFaultProbability { knob: "ber_silent", .. })
        ));
        let mut c = OuterSpaceConfig::default();
        c.faults.drop_rate = 0.01;
        c.faults.max_retries = 0;
        assert_eq!(c.validate(), Err(ConfigError::BadRetryPolicy));
        let mut c = OuterSpaceConfig::default();
        c.faults.pe_kill_count = 10_000;
        assert_eq!(
            c.validate(),
            Err(ConfigError::TooManyKilledPes { kills: 10_000, total: 256 })
        );
        let mut c = OuterSpaceConfig::default();
        c.faults.hbm_ber = 1e-6;
        c.faults.pe_kill_count = 3;
        assert!(c.validate().is_ok());
        assert!(c.faults.is_active());
    }

    #[test]
    fn config_errors_render_messages() {
        let e = ConfigError::CacheTooSmall { l0_bytes: 128, required: 256 };
        assert!(e.to_string().contains("128"));
        let e = ConfigError::BadFaultProbability { knob: "hbm_ber", got: 2.0 };
        assert!(e.to_string().contains("hbm_ber"));
    }

    #[test]
    fn cycles_to_seconds() {
        let c = OuterSpaceConfig::default();
        assert!((c.cycles_to_seconds(1_500_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn interposed_4x_scales_resources() {
        let base = OuterSpaceConfig::default();
        let big = base.interposed_4x();
        assert_eq!(big.total_pes(), 1024);
        assert_eq!(big.hbm_channels, 64);
        assert_eq!(big.hbm_total_bandwidth_bytes_per_sec(), 512_000_000_000);
        assert!(big.validate().is_ok());
    }

    #[test]
    fn torus_adds_hop_latency() {
        let base = OuterSpaceConfig::default();
        let t4 = base.torus(4);
        assert_eq!(t4.total_pes(), 4096);
        assert!(t4.xbar_cycles > base.xbar_cycles);
        assert!(t4.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn torus_rejects_non_power_of_two() {
        let _ = OuterSpaceConfig::default().torus(3);
    }

    #[test]
    fn derived_math_survives_extreme_sweep_bounds() {
        // A DSE sweep may probe the very corner of the knob space; none of
        // the derived quantities may overflow/panic there, and validate()
        // must reject gracefully rather than let wrapped math pass.
        let c = OuterSpaceConfig {
            n_tiles: u32::MAX,
            pes_per_tile: u32::MAX,
            hbm_channels: 1 << 31,
            hbm_channel_mb_per_sec: u32::MAX,
            block_bytes: 1 << 31,
            l0_ways: 1 << 31,
            ..Default::default()
        };
        assert_eq!(c.total_pes(), u32::MAX as u64 * u32::MAX as u64);
        // Channels × MB/s × 1e6 exceeds u64: saturate, never wrap.
        assert_eq!(c.hbm_total_bandwidth_bytes_per_sec(), u64::MAX);
        // block_bytes * l0_ways = 2^62 in u64; the 16 kB L0 is too small.
        assert_eq!(
            c.validate(),
            Err(ConfigError::CacheTooSmall { l0_bytes: 16 * 1024, required: 1u64 << 62 })
        );
        // Scaling constructors saturate instead of wrapping (u32::MAX tiles
        // stays u32::MAX), and the saturated point fails validation.
        let scaled = c.torus(65_536);
        assert_eq!(scaled.n_tiles, u32::MAX);
        assert!(scaled.validate().is_err());
        // Kill-count check happens in u64 space: a kill count that exceeds
        // u32-wrapped total_pes but not the true total is accepted.
        let mut big = OuterSpaceConfig {
            n_tiles: 1 << 16,
            pes_per_tile: 1 << 16,
            ..Default::default()
        };
        big.faults.pe_kill_count = u32::MAX; // < 2^32 = total_pes, wraps to 0 in u32
        assert!(big.validate().is_ok());
    }

    #[test]
    fn config_serializes() {
        let c = OuterSpaceConfig::default();
        let json = c.to_json().to_string_compact();
        assert!(json.contains("\"n_tiles\":16"));
        assert!(json.contains("\"faults\""));
    }

    #[test]
    fn config_round_trips_through_json() {
        // A silent-only model counts as active (the injector must be built).
        let mut s = OuterSpaceConfig::default();
        s.faults.ber_silent = 1e-8;
        assert!(s.faults.is_active());
        assert!(s.validate().is_ok());
    }

    #[test]
    fn machine_kind_round_trips_and_gates_validation() {
        assert_eq!(MachineKind::parse("outerspace"), Some(MachineKind::OuterSpace));
        assert_eq!(MachineKind::parse("sparch"), Some(MachineKind::SpArch));
        assert_eq!(MachineKind::parse("tpu"), None);
        let c = OuterSpaceConfig::default();
        assert_eq!(c.machine, MachineKind::OuterSpace);
        assert_eq!(c.merge_tree_throughput(), 4);
        // The sparch shape constraint only bites under the SpArch machine.
        let lax = OuterSpaceConfig { merge_tree_ways: 1, ..Default::default() };
        assert!(lax.validate().is_ok());
        let strict = OuterSpaceConfig {
            machine: MachineKind::SpArch,
            merge_tree_ways: 1,
            ..Default::default()
        };
        assert_eq!(
            strict.validate(),
            Err(ConfigError::BadSparchShape { merge_tree_ways: 1, sparch_mul_pes: 16 })
        );
        let sparch = OuterSpaceConfig { machine: MachineKind::SpArch, ..Default::default() };
        assert!(sparch.validate().is_ok());
    }
}
