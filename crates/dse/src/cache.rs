//! Content-addressed memoization of simulated design points.
//!
//! A point's identity is the hash of everything that determines its metrics:
//! a code-version salt (bumped whenever the timing/energy models change
//! semantically), the canonical compact JSON of the fully-applied
//! [`OuterSpaceConfig`](outerspace_sim::OuterSpaceConfig), the workload
//! manifest (generator kind, shape, and seed), and the allocation-α, if any.
//! Re-running a sweep therefore only simulates points whose inputs actually
//! changed; everything else is served from disk.
//!
//! Storage is one append-only JSON-lines file (`sim_cache.jsonl`) written
//! through [`outerspace_json::dump::append_jsonl`] — each completed point
//! appends one line, so a crash mid-sweep loses at most the line being
//! written, and [`read_jsonl`](outerspace_json::dump::read_jsonl)'s
//! torn-tail tolerance recovers the rest on the next run. Every line stores
//! its full key *material* next to the content address; a line whose
//! address does not hash its material is skipped on load. In memory the
//! entries are keyed by the material itself, so a lookup is an exact match.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

use outerspace_json::dump::{append_jsonl, read_jsonl};
use outerspace_json::Json;

/// Cache-key salt covering the simulator's semantics. Bump on any change to
/// the timing, energy, or area models that alters metrics for an unchanged
/// config + workload, or stale cached metrics will be served as fresh.
/// (v7: evaluation-tier tag joined the key material — full-fidelity results
/// and fast-path estimates can never alias.)
pub const CODE_VERSION: &str = "outerspace-sim-v7";

/// 128-bit content hash as 32 hex digits: two independent FNV-1a-64 streams
/// over the same bytes, decorrelated by distinct offset bases (the second is
/// additionally perturbed per byte so the streams do not merely differ by a
/// constant).
fn fnv128_hex(bytes: &[u8]) -> String {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut a: u64 = 0xcbf2_9ce4_8422_2325; // standard FNV-1a offset basis
    let mut b: u64 = 0x6c62_272e_07bb_0142; // low word of the FNV-1a-128 basis
    for (i, &byte) in bytes.iter().enumerate() {
        a = (a ^ byte as u64).wrapping_mul(PRIME);
        b = (b ^ byte as u64 ^ (i as u64).rotate_left(17)).wrapping_mul(PRIME);
    }
    format!("{a:016x}{b:016x}")
}

/// Builds the canonical key material for one design point.
///
/// `config_canonical` is the compact JSON of the fully-applied config,
/// `workload_manifest` the compact JSON of
/// [`WorkloadSpec::manifest`](crate::spec::WorkloadSpec::manifest),
/// `alpha` the allocation-α swept alongside (if any), and `tier` the
/// evaluation tier's tag ([`EvalTier::tag`](crate::tiers::EvalTier::tag)) —
/// part of the key so a fast-path *estimate* can never be served where a
/// full-fidelity result was asked for, or vice versa.
pub fn key_material(
    config_canonical: &str,
    workload_manifest: &str,
    alpha: Option<f64>,
    tier: &str,
) -> String {
    let alpha_tag = match alpha {
        Some(a) => format!("{a}"),
        None => "none".to_string(),
    };
    format!(
        "{CODE_VERSION}\u{1f}tier={tier}\u{1f}{config_canonical}\u{1f}{workload_manifest}\u{1f}{alpha_tag}"
    )
}

/// Hashes key material into the content address.
pub fn key_of(material: &str) -> String {
    fnv128_hex(material.as_bytes())
}

/// Content address of an arbitrary byte string — the same 128-bit FNV
/// construction [`key_of`] uses, exposed so other content-addressed stores
/// (e.g. the serving layer's result cache hashing matrix operands) share one
/// hash family.
pub fn content_hash(bytes: &[u8]) -> String {
    fnv128_hex(bytes)
}

/// The on-disk memo cache for simulated points.
#[derive(Debug)]
pub struct SimCache {
    path: PathBuf,
    /// Metrics by key material.
    entries: HashMap<String, Json>,
    /// Lines present on disk that failed to decode (diagnostics only).
    pub skipped_lines: usize,
}

impl SimCache {
    /// File name of the cache inside its directory.
    pub const FILE: &'static str = "sim_cache.jsonl";

    /// Opens (or initializes) the cache under `dir`. A missing file is an
    /// empty cache; a torn final line is dropped; well-formed lines that are
    /// not cache entries are counted in `skipped_lines` and ignored.
    ///
    /// # Errors
    ///
    /// I/O failure or interior (non-tail) corruption of the cache file.
    pub fn open(dir: &Path) -> io::Result<SimCache> {
        let path = dir.join(Self::FILE);
        let mut entries = HashMap::new();
        let mut skipped = 0usize;
        match read_jsonl(&path) {
            Ok(lines) => {
                for line in lines {
                    let key = line.get("key").and_then(Json::as_str);
                    let material = line.get("material").and_then(Json::as_str);
                    let metrics = line.get("metrics");
                    match (key, material, metrics) {
                        (Some(k), Some(m), Some(v)) if key_of(m) == k => {
                            entries.insert(m.to_string(), v.clone());
                        }
                        _ => skipped += 1,
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(SimCache { path, entries, skipped_lines: skipped })
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the metrics recorded for exactly `material`.
    pub fn lookup(&self, material: &str) -> Option<&Json> {
        self.entries.get(material)
    }

    /// Records `metrics` for `material`: one appended line plus the in-memory
    /// index. Overwrites an earlier entry for the same material (last write
    /// wins, which `open` reproduces by insertion order).
    ///
    /// # Errors
    ///
    /// I/O failure appending to the cache file.
    pub fn insert(&mut self, material: &str, metrics: Json) -> io::Result<()> {
        let key = key_of(material);
        append_jsonl(
            &self.path,
            &Json::Obj(vec![
                ("key".into(), Json::Str(key)),
                ("material".into(), Json::Str(material.to_string())),
                ("metrics".into(), metrics.clone()),
            ]),
        )?;
        self.entries.insert(material.to_string(), metrics);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("outerspace-dse-cache-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trips_through_disk() {
        let dir = scratch("rt");
        let mat = key_material("{\"n_tiles\":16}", "{\"kind\":\"uniform\"}", Some(2.0), "full");
        {
            let mut c = SimCache::open(&dir).unwrap();
            assert!(c.is_empty());
            assert!(c.lookup(&mat).is_none());
            c.insert(&mat, Json::Obj(vec![("cycles".into(), Json::UInt(123))]))
                .unwrap();
            assert_eq!(
                c.lookup(&mat).and_then(|m| m.get("cycles")).and_then(Json::as_u64),
                Some(123)
            );
        }
        let c = SimCache::open(&dir).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(
            c.lookup(&mat).and_then(|m| m.get("cycles")).and_then(Json::as_u64),
            Some(123)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_material_gets_distinct_keys() {
        let a = key_material("{\"n_tiles\":16}", "{\"seed\":1}", None, "full");
        let b = key_material("{\"n_tiles\":16}", "{\"seed\":2}", None, "full");
        let c = key_material("{\"n_tiles\":32}", "{\"seed\":1}", None, "full");
        let d = key_material("{\"n_tiles\":16}", "{\"seed\":1}", Some(1.0), "full");
        let keys = [key_of(&a), key_of(&b), key_of(&c), key_of(&d)];
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i], keys[j]);
            }
        }
        assert_eq!(key_of(&a), key_of(&a));
        assert_eq!(keys[0].len(), 32);
    }

    #[test]
    fn machine_model_is_keyed_by_config_not_by_the_salt() {
        use outerspace_json::ToJson;
        use outerspace_sim::{MachineKind, OuterSpaceConfig};
        let ospace = OuterSpaceConfig::default();
        let sparch =
            OuterSpaceConfig { machine: MachineKind::SpArch, ..OuterSpaceConfig::default() };
        let m_o = key_material(&ospace.to_json().to_string_compact(), "{}", None, "full");
        let m_s = key_material(&sparch.to_json().to_string_compact(), "{}", None, "full");
        assert_ne!(key_of(&m_o), key_of(&m_s));
        // The distinction must come from the config serialization itself,
        // not from the CODE_VERSION salt: strip the salt and the material
        // still differs, so a future salt bump cannot alias the machines.
        let tail = |m: &str| m.split_once('\u{1f}').unwrap().1.to_string();
        assert_ne!(tail(&m_o), tail(&m_s));
    }

    #[test]
    fn tiers_are_keyed_alongside_the_config() {
        use outerspace_json::ToJson;
        use outerspace_sim::OuterSpaceConfig;
        // Same config + workload + alpha under different evaluation tiers
        // must produce different content addresses: an interval-tier
        // *estimate* can never answer a full-fidelity lookup.
        let cfg = OuterSpaceConfig::default().to_json().to_string_compact();
        let wl = "{\"kind\":\"rmat\",\"n\":1024}";
        let tiers = ["full", "interval"];
        let keys: Vec<String> =
            tiers.iter().map(|t| key_of(&key_material(&cfg, wl, Some(2.0), t))).collect();
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i], keys[j], "{} vs {}", tiers[i], tiers[j]);
            }
        }
        // And within one tier the config still distinguishes, so the tier
        // tag narrows the key rather than replacing it.
        let other = "{\"n_tiles\":4}";
        assert_ne!(
            key_of(&key_material(&cfg, wl, Some(2.0), "interval")),
            key_of(&key_material(other, wl, Some(2.0), "interval")),
        );
    }

    #[test]
    fn collision_guard_refuses_mismatched_material() {
        let dir = scratch("guard");
        let mat = key_material("{}", "{}", None, "full");
        let mut c = SimCache::open(&dir).unwrap();
        c.insert(&mat, Json::UInt(1)).unwrap();
        // Forge an entry on disk whose key does not hash its material: it
        // must be skipped on load, not served.
        append_jsonl(
            &dir.join(SimCache::FILE),
            &Json::Obj(vec![
                ("key".into(), Json::Str(key_of(&mat))),
                ("material".into(), Json::Str("something else".into())),
                ("metrics".into(), Json::UInt(999)),
            ]),
        )
        .unwrap();
        let c2 = SimCache::open(&dir).unwrap();
        assert_eq!(c2.skipped_lines, 1);
        assert_eq!(c2.lookup(&mat), Some(&Json::UInt(1)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_recovers_earlier_entries() {
        let dir = scratch("torn");
        let mat_a = key_material("{\"a\":1}", "{}", None, "full");
        let mat_b = key_material("{\"b\":2}", "{}", None, "full");
        {
            let mut c = SimCache::open(&dir).unwrap();
            c.insert(&mat_a, Json::UInt(1)).unwrap();
            c.insert(&mat_b, Json::UInt(2)).unwrap();
        }
        // Simulate a crash mid-append: chop the final line short.
        let path = dir.join(SimCache::FILE);
        let text = fs::read_to_string(&path).unwrap();
        let keep = text.len() - 10;
        fs::write(&path, &text[..keep]).unwrap();
        let c = SimCache::open(&dir).unwrap();
        assert_eq!(c.len(), 1, "only the torn entry should be lost");
        assert_eq!(c.lookup(&mat_a), Some(&Json::UInt(1)));
        assert!(c.lookup(&mat_b).is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
