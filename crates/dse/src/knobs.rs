//! The knob registry: every `OuterSpaceConfig` field a space spec may sweep,
//! addressed by its JSON field name plus the `system_scale` pseudo-knob for
//! the §8 interposer/torus scaling study.
//!
//! Knob values travel as `f64` (one numeric axis type covers integer sizes,
//! latencies, and the clock); [`apply`] converts and range-checks per knob.
//! Integer knobs round to the nearest integer and reject negatives or values
//! beyond `u32`, so a malformed spec fails loudly at expansion time instead
//! of wrapping inside the simulator.
//!
//! [`UNREAD`] records, per machine, the fields that machine never reads;
//! [`read_canonical`] turns it into the config half of the memo-cache key.

use outerspace_json::{Json, ToJson};
use outerspace_sim::{MachineKind, OuterSpaceConfig};

/// Every sweepable knob name, in the order reports list them.
pub const KNOBS: &[&str] = &[
    "clock_ghz",
    "n_tiles",
    "pes_per_tile",
    "outstanding_requests",
    "pe_scratchpad_bytes",
    "l0_multiply_bytes",
    "l0_ways",
    "l0_mshrs_multiply",
    "l0_merge_bytes",
    "merge_scratchpad_bytes",
    "l0_mshrs_merge",
    "merge_active_pes_per_tile",
    "l1_bytes",
    "l1_ways",
    "n_l1",
    "l1_mshrs",
    "block_bytes",
    "hbm_channels",
    "hbm_channel_mb_per_sec",
    "hbm_latency_min_ns",
    "hbm_latency_max_ns",
    "l0_hit_cycles",
    "l1_hit_cycles",
    "xbar_cycles",
    "machine_model",
    "merge_tree_ways",
    "sparch_mul_pes",
    "system_scale",
];

/// True when `knob` names a sweepable parameter.
pub fn is_knob(knob: &str) -> bool {
    KNOBS.contains(&knob)
}

/// Config fields each machine never reads, neither in timing (the phase
/// engines, the interval estimator, the abort bounds) nor in pricing (the
/// Table 6 area/power model). OuterSPACE has no merge tree and no
/// multiplier array; the SpArch analog runs no OuterSPACE merge, so its
/// scratchpad and worker-pair count go unused; and neither machine models
/// the PE scratchpad or MSHR counts (the outstanding-request queues bound
/// memory-level parallelism instead). A model change that starts reading
/// one of these fields must drop it from this table and bump
/// [`CODE_VERSION`](crate::cache::CODE_VERSION).
pub const UNREAD: &[(MachineKind, &[&str])] = &[
    (
        MachineKind::OuterSpace,
        &[
            "pe_scratchpad_bytes",
            "l0_mshrs_multiply",
            "l0_mshrs_merge",
            "l1_mshrs",
            "merge_tree_ways",
            "sparch_mul_pes",
        ],
    ),
    (
        MachineKind::SpArch,
        &[
            "pe_scratchpad_bytes",
            "l0_mshrs_multiply",
            "merge_scratchpad_bytes",
            "l0_mshrs_merge",
            "merge_active_pes_per_tile",
            "l1_mshrs",
        ],
    ),
];

/// The fields `machine` never reads ([`UNREAD`]).
pub fn unread_by(machine: MachineKind) -> &'static [&'static str] {
    UNREAD.iter().find(|(m, _)| *m == machine).map_or(&[], |(_, fields)| fields)
}

/// The config half of a point's memo-cache key: the canonical compact JSON
/// of `cfg` with every field its machine never reads ([`UNREAD`]) reset to
/// the default's value. Two configs that differ only in such fields give
/// the same metrics, so they share one key.
pub fn read_canonical(cfg: &OuterSpaceConfig) -> String {
    let unread = unread_by(cfg.machine);
    let (Json::Obj(mut fields), Json::Obj(defaults)) =
        (cfg.to_json(), OuterSpaceConfig::default().to_json())
    else {
        unreachable!("a config serializes as an object");
    };
    for ((name, value), (_, default)) in fields.iter_mut().zip(defaults) {
        if unread.contains(&name.as_str()) {
            *value = default;
        }
    }
    Json::Obj(fields).to_string_compact()
}

fn as_u32(knob: &str, v: f64) -> Result<u32, String> {
    let r = v.round();
    if !v.is_finite() || r < 0.0 || r > u32::MAX as f64 {
        return Err(format!("knob '{knob}': {v} is outside the u32 range"));
    }
    Ok(r as u32)
}

fn as_u64(knob: &str, v: f64) -> Result<u64, String> {
    let r = v.round();
    if !v.is_finite() || r < 0.0 || r >= u64::MAX as f64 {
        return Err(format!("knob '{knob}': {v} is outside the u64 range"));
    }
    Ok(r as u64)
}

/// Applies one knob value to `cfg`.
///
/// `system_scale` is special-cased: `1` keeps the single-chip baseline, `4`
/// builds the §8 silicon-interposed chip, and `4 × nodes` (a power of two)
/// builds an interposed chip torus — matching the §8 scaling-study lineup.
/// It must be applied after the plain field knobs so the scaling multiplies
/// the swept (not default) resource counts; [`crate::spec`] guarantees that
/// ordering.
///
/// # Errors
///
/// Unknown knob name, non-finite/out-of-range value, or a `system_scale`
/// that is not 1, 4, or 4 × a power of two.
pub fn apply(cfg: &mut OuterSpaceConfig, knob: &str, v: f64) -> Result<(), String> {
    match knob {
        "clock_ghz" => cfg.clock_ghz = v,
        "n_tiles" => cfg.n_tiles = as_u32(knob, v)?,
        "pes_per_tile" => cfg.pes_per_tile = as_u32(knob, v)?,
        "outstanding_requests" => cfg.outstanding_requests = as_u32(knob, v)?,
        "pe_scratchpad_bytes" => cfg.pe_scratchpad_bytes = as_u32(knob, v)?,
        "l0_multiply_bytes" => cfg.l0_multiply_bytes = as_u32(knob, v)?,
        "l0_ways" => cfg.l0_ways = as_u32(knob, v)?,
        "l0_mshrs_multiply" => cfg.l0_mshrs_multiply = as_u32(knob, v)?,
        "l0_merge_bytes" => cfg.l0_merge_bytes = as_u32(knob, v)?,
        "merge_scratchpad_bytes" => cfg.merge_scratchpad_bytes = as_u32(knob, v)?,
        "l0_mshrs_merge" => cfg.l0_mshrs_merge = as_u32(knob, v)?,
        "merge_active_pes_per_tile" => cfg.merge_active_pes_per_tile = as_u32(knob, v)?,
        "l1_bytes" => cfg.l1_bytes = as_u32(knob, v)?,
        "l1_ways" => cfg.l1_ways = as_u32(knob, v)?,
        "n_l1" => cfg.n_l1 = as_u32(knob, v)?,
        "l1_mshrs" => cfg.l1_mshrs = as_u32(knob, v)?,
        "block_bytes" => cfg.block_bytes = as_u32(knob, v)?,
        "hbm_channels" => cfg.hbm_channels = as_u32(knob, v)?,
        "hbm_channel_mb_per_sec" => cfg.hbm_channel_mb_per_sec = as_u32(knob, v)?,
        "hbm_latency_min_ns" => cfg.hbm_latency_min_ns = v,
        "hbm_latency_max_ns" => cfg.hbm_latency_max_ns = v,
        "l0_hit_cycles" => cfg.l0_hit_cycles = as_u64(knob, v)?,
        "l1_hit_cycles" => cfg.l1_hit_cycles = as_u64(knob, v)?,
        "xbar_cycles" => cfg.xbar_cycles = as_u64(knob, v)?,
        "machine_model" => {
            if !v.is_finite() {
                return Err(format!("knob 'machine_model': {v} is not finite"));
            }
            // A numeric axis like every other knob: < 0.5 selects the
            // OuterSPACE baseline, anything else the SpArch analog.
            cfg.machine =
                if v < 0.5 { MachineKind::OuterSpace } else { MachineKind::SpArch };
        }
        "merge_tree_ways" => cfg.merge_tree_ways = as_u32(knob, v)?,
        "sparch_mul_pes" => cfg.sparch_mul_pes = as_u32(knob, v)?,
        "system_scale" => {
            let s = as_u32(knob, v)?;
            match s {
                1 => {}
                4 => *cfg = cfg.interposed_4x(),
                n if n >= 8 && n % 4 == 0 && (n / 4).is_power_of_two() => {
                    *cfg = cfg.torus(n / 4);
                }
                other => {
                    return Err(format!(
                        "knob 'system_scale': {other} is not 1, 4, or 4 x a power of two"
                    ))
                }
            }
        }
        other => return Err(format!("unknown knob '{other}'")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_knob_applies() {
        for &k in KNOBS {
            let mut cfg = OuterSpaceConfig::default();
            // 4.0 is in-range for every knob, including system_scale.
            apply(&mut cfg, k, 4.0).unwrap_or_else(|e| panic!("knob {k}: {e}"));
        }
    }

    #[test]
    fn plain_field_knob_lands_in_config() {
        let mut cfg = OuterSpaceConfig::default();
        apply(&mut cfg, "n_tiles", 32.0).unwrap();
        apply(&mut cfg, "clock_ghz", 2.0).unwrap();
        assert_eq!(cfg.n_tiles, 32);
        assert_eq!(cfg.clock_ghz, 2.0);
    }

    #[test]
    fn system_scale_matches_sec8_lineup() {
        let base = OuterSpaceConfig::default();
        let mut c4 = base.clone();
        apply(&mut c4, "system_scale", 4.0).unwrap();
        assert_eq!(c4, base.interposed_4x());
        let mut c16 = base.clone();
        apply(&mut c16, "system_scale", 16.0).unwrap();
        assert_eq!(c16, base.torus(4));
        let mut c64 = base.clone();
        apply(&mut c64, "system_scale", 64.0).unwrap();
        assert_eq!(c64, base.torus(16));
    }

    #[test]
    fn machine_model_knob_switches_machines() {
        let mut cfg = OuterSpaceConfig::default();
        apply(&mut cfg, "machine_model", 1.0).unwrap();
        assert_eq!(cfg.machine, MachineKind::SpArch);
        apply(&mut cfg, "machine_model", 0.0).unwrap();
        assert_eq!(cfg.machine, MachineKind::OuterSpace);
        apply(&mut cfg, "merge_tree_ways", 16.0).unwrap();
        apply(&mut cfg, "sparch_mul_pes", 32.0).unwrap();
        assert_eq!(cfg.merge_tree_ways, 16);
        assert_eq!(cfg.sparch_mul_pes, 32);
        assert!(apply(&mut cfg, "machine_model", f64::NAN).is_err());
    }

    #[test]
    fn unread_fields_are_knobs_and_config_fields() {
        let Json::Obj(fields) = OuterSpaceConfig::default().to_json() else { unreachable!() };
        for (machine, names) in UNREAD {
            for name in *names {
                assert!(is_knob(name), "{machine}: '{name}' is not a knob");
                assert!(fields.iter().any(|(k, _)| k == name), "{machine}: '{name}' not in config");
            }
        }
    }

    #[test]
    fn read_canonical_resets_only_the_unread_fields() {
        for machine in [MachineKind::OuterSpace, MachineKind::SpArch] {
            let base = OuterSpaceConfig { machine, ..OuterSpaceConfig::default() };
            for &knob in KNOBS.iter().filter(|&&k| k != "machine_model" && k != "system_scale") {
                let mut cfg = base.clone();
                apply(&mut cfg, knob, 2.0).unwrap();
                if cfg == base {
                    apply(&mut cfg, knob, 3.0).unwrap();
                }
                let same = read_canonical(&cfg) == read_canonical(&base);
                assert_eq!(same, unread_by(machine).contains(&knob), "{machine}: {knob}");
            }
        }
        // The default config keys as its own canonical JSON.
        let d = OuterSpaceConfig::default();
        assert_eq!(read_canonical(&d), d.to_json().to_string_compact());
    }

    #[test]
    fn rejects_bad_values_and_unknown_knobs() {
        let mut cfg = OuterSpaceConfig::default();
        assert!(apply(&mut cfg, "n_tiles", -1.0).is_err());
        assert!(apply(&mut cfg, "n_tiles", f64::NAN).is_err());
        assert!(apply(&mut cfg, "n_tiles", 2.0 * u32::MAX as f64).is_err());
        assert!(apply(&mut cfg, "system_scale", 6.0).is_err());
        assert!(apply(&mut cfg, "warp_core_temperature", 1.0).is_err());
        assert!(!is_knob("warp_core_temperature"));
        assert!(is_knob("hbm_channels"));
    }
}
