//! Declarative parameter-space specs: which knobs to sweep, over which
//! values, against which workloads — plus expansion into concrete
//! [`DsePoint`]s by full cross-product or seeded random sampling.
//!
//! A spec is plain JSON:
//!
//! ```json
//! {
//!   "name": "smoke",
//!   "axes": [
//!     {"knob": "n_tiles", "values": [8, 16]},
//!     {"knob": "l0_multiply_bytes", "log2": {"from": 13, "to": 14}},
//!     {"knob": "hbm_channel_mb_per_sec", "range": {"min": 2000, "max": 16000}}
//!   ],
//!   "workloads": [{"kind": "uniform", "n": 96, "nnz": 700}],
//!   "alphas": [1.0, 2.0],
//!   "samples": 0
//! }
//! ```
//!
//! * `values` — an explicit grid;
//! * `log2` — the powers of two `2^from ..= 2^to` (a log-grid);
//! * `range` — a continuous interval, sampled only in random mode;
//! * `samples = 0` — full cross-product of all grid axes × workloads ×
//!   alphas (`range` axes are rejected: their cross-product is not finite);
//! * `samples = N` — N points drawn by seeded uniform sampling over every
//!   axis (grid axes draw one of their values, `range` axes a uniform
//!   point), deterministic in the sweep seed.
//!
//! Four specs ship with the crate (`SpaceSpec::bundled`): `smoke` (the CI
//! determinism gate), `sec73_alpha` (the §7.3 allocation-α sweep),
//! `sec8_scaling` (the §8 interposer/torus scaling study), and
//! `sparch_vs_ospace` (the OuterSPACE-vs-SpArch machine-model frontier).

use outerspace_gen::{powerlaw, rmat, suite, uniform, Rng, SmallRng};
use outerspace_json::{Json, ToJson};
use outerspace_sim::OuterSpaceConfig;
use outerspace_sparse::Csr;

use crate::knobs;

/// How one axis produces values.
#[derive(Debug, Clone, PartialEq)]
pub enum AxisKind {
    /// Explicit grid of values.
    Values(Vec<f64>),
    /// Log-grid: the powers of two `2^from ..= 2^to`.
    Log2 {
        /// Smallest exponent.
        from: u32,
        /// Largest exponent (inclusive).
        to: u32,
    },
    /// Continuous interval, usable only with random sampling.
    Range {
        /// Lower bound (inclusive).
        min: f64,
        /// Upper bound (inclusive).
        max: f64,
    },
}

/// One swept knob.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// Field of [`OuterSpaceConfig`] (or the `system_scale` pseudo-knob).
    pub knob: String,
    /// The values it takes.
    pub kind: AxisKind,
}

impl Axis {
    /// The finite grid of this axis, or `None` for a continuous range.
    pub fn grid(&self) -> Option<Vec<f64>> {
        match &self.kind {
            AxisKind::Values(v) => Some(v.clone()),
            AxisKind::Log2 { from, to } => {
                Some((*from..=*to).map(|e| (1u64 << e.min(63)) as f64).collect())
            }
            AxisKind::Range { .. } => None,
        }
    }

    fn sample(&self, rng: &mut SmallRng) -> f64 {
        match &self.kind {
            AxisKind::Range { min, max } => min + (max - min) * rng.gen::<f64>(),
            _ => {
                let grid = self.grid().expect("grid axes have grids");
                grid[rng.gen_range(0usize..grid.len())]
            }
        }
    }

    fn to_json(&self) -> Json {
        let kind = match &self.kind {
            AxisKind::Values(v) => ("values".to_string(), v.to_json()),
            AxisKind::Log2 { from, to } => (
                "log2".to_string(),
                Json::Obj(vec![
                    ("from".into(), Json::UInt(*from as u64)),
                    ("to".into(), Json::UInt(*to as u64)),
                ]),
            ),
            AxisKind::Range { min, max } => (
                "range".to_string(),
                Json::Obj(vec![
                    ("min".into(), Json::Float(*min)),
                    ("max".into(), Json::Float(*max)),
                ]),
            ),
        };
        Json::Obj(vec![("knob".into(), Json::Str(self.knob.clone())), kind])
    }

    fn from_json(j: &Json) -> Result<Axis, String> {
        let knob = j
            .get("knob")
            .and_then(Json::as_str)
            .ok_or("axis needs a 'knob' string")?
            .to_string();
        if !knobs::is_knob(&knob) {
            return Err(format!("axis sweeps unknown knob '{knob}'"));
        }
        let kind = if let Some(vals) = j.get("values").and_then(Json::as_array) {
            let vs: Option<Vec<f64>> = vals.iter().map(Json::as_f64).collect();
            let vs = vs.ok_or_else(|| format!("axis '{knob}': non-numeric grid value"))?;
            if vs.is_empty() {
                return Err(format!("axis '{knob}': empty grid"));
            }
            AxisKind::Values(vs)
        } else if let Some(l) = j.get("log2") {
            let from = l.get("from").and_then(Json::as_u64);
            let to = l.get("to").and_then(Json::as_u64);
            match (from, to) {
                (Some(f), Some(t)) if f <= t && t < 64 => {
                    AxisKind::Log2 { from: f as u32, to: t as u32 }
                }
                _ => return Err(format!("axis '{knob}': log2 needs from <= to < 64")),
            }
        } else if let Some(r) = j.get("range") {
            let min = r.get("min").and_then(Json::as_f64);
            let max = r.get("max").and_then(Json::as_f64);
            match (min, max) {
                (Some(min), Some(max)) if min.is_finite() && max.is_finite() && min <= max => {
                    AxisKind::Range { min, max }
                }
                _ => return Err(format!("axis '{knob}': range needs finite min <= max")),
            }
        } else {
            return Err(format!("axis '{knob}': needs 'values', 'log2', or 'range'"));
        };
        Ok(Axis { knob, kind })
    }
}

/// A workload axis: what matrix each point multiplies (`C = A × A`).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Generator family: `uniform`, `rmat`, `powerlaw`, `suite`, or `mtx`
    /// (a bundled Matrix Market fixture — a real parsed matrix, not a
    /// synthetic generator).
    pub kind: String,
    /// Table 4 matrix name (suite kind) or bundled fixture name (mtx kind);
    /// empty otherwise.
    pub name: String,
    /// Square dimension (synthetic kinds).
    pub n: u32,
    /// Non-zero target (synthetic kinds).
    pub nnz: usize,
    /// Suite workload divisor (suite kind; `generate_scaled` semantics).
    pub scale: u32,
}

impl WorkloadSpec {
    /// Stable human label used in reports and the per-workload ranking.
    pub fn label(&self) -> String {
        if self.kind == "suite" {
            format!("suite:{}/{}", self.name, self.scale)
        } else if self.kind == "mtx" {
            format!("mtx:{}", self.name)
        } else {
            format!("{}:{}x{}", self.kind, self.n, self.nnz)
        }
    }

    /// Shrinks the workload by `divisor` (for `--scale` / smoke runs):
    /// synthetic kinds divide dimension and nnz, suite kinds multiply the
    /// suite divisor. Deterministic and reflected in [`WorkloadSpec::label`],
    /// so scaled and unscaled sweeps never share cache entries.
    pub fn scaled(&self, divisor: u32) -> WorkloadSpec {
        let mut w = self.clone();
        // A fixture is a fixed real matrix (already small): scaling is a
        // no-op rather than a corruption of its manifest.
        if divisor <= 1 || w.kind == "mtx" {
            return w;
        }
        if w.kind == "suite" {
            w.scale = w.scale.saturating_mul(divisor);
        } else {
            w.n = (w.n / divisor).max(32);
            w.nnz = (w.nnz / divisor as usize).max(w.n as usize);
        }
        w
    }

    /// Synthesizes the matrix. Deterministic in `seed`.
    ///
    /// # Errors
    ///
    /// Unknown generator kind or a suite name missing from Table 4.
    pub fn generate(&self, seed: u64) -> Result<Csr, String> {
        match self.kind.as_str() {
            "uniform" => Ok(uniform::matrix(self.n, self.n, self.nnz, seed)),
            "rmat" => Ok(rmat::graph500(self.n, self.nnz, seed)),
            "powerlaw" => Ok(powerlaw::graph(self.n, self.nnz, seed)),
            "suite" => {
                let e = suite::by_name(&self.name)
                    .ok_or_else(|| format!("suite matrix '{}' not in Table 4", self.name))?;
                if self.scale == 0 || e.dim / self.scale == 0 {
                    return Err(format!("scale {} collapses {}", self.scale, self.name));
                }
                Ok(e.generate_scaled(self.scale, seed))
            }
            "mtx" => {
                let f = suite::fixture_by_name(&self.name)
                    .ok_or_else(|| format!("fixture '{}' not in the bundled corpus", self.name))?;
                Ok(f.load())
            }
            other => Err(format!("unknown workload kind '{other}'")),
        }
    }

    /// Canonical manifest (part of every cache key): the full generator
    /// identity plus the seed actually used.
    pub fn manifest(&self, seed: u64) -> Json {
        Json::Obj(vec![
            ("kind".into(), Json::Str(self.kind.clone())),
            ("name".into(), Json::Str(self.name.clone())),
            ("n".into(), Json::UInt(self.n as u64)),
            ("nnz".into(), Json::UInt(self.nnz as u64)),
            ("scale".into(), Json::UInt(self.scale as u64)),
            ("seed".into(), Json::UInt(seed)),
        ])
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("kind".into(), Json::Str(self.kind.clone())),
            ("name".into(), Json::Str(self.name.clone())),
            ("n".into(), Json::UInt(self.n as u64)),
            ("nnz".into(), Json::UInt(self.nnz as u64)),
            ("scale".into(), Json::UInt(self.scale as u64)),
        ])
    }

    fn from_json(j: &Json) -> Result<WorkloadSpec, String> {
        let kind = j
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("workload needs a 'kind' string")?
            .to_string();
        let u32_field = |field: &str, default: u32| match j.get(field).and_then(Json::as_u64) {
            None => Ok(default),
            Some(v) => u32::try_from(v)
                .map_err(|_| format!("workload '{field}' {v} exceeds {}", u32::MAX)),
        };
        let w = WorkloadSpec {
            kind,
            name: j.get("name").and_then(Json::as_str).unwrap_or("").to_string(),
            n: u32_field("n", 0)?,
            nnz: j.get("nnz").and_then(Json::as_u64).unwrap_or(0) as usize,
            scale: u32_field("scale", 1)?,
        };
        match w.kind.as_str() {
            "suite" if w.name.is_empty() => Err("suite workload needs a 'name'".into()),
            "mtx" if w.name.is_empty() => Err("mtx workload needs a 'name'".into()),
            "uniform" | "rmat" | "powerlaw" if w.n == 0 || w.nnz == 0 => {
                Err(format!("{} workload needs n > 0 and nnz > 0", w.kind))
            }
            "suite" | "uniform" | "rmat" | "powerlaw" | "mtx" => Ok(w),
            other => Err(format!("unknown workload kind '{other}'")),
        }
    }
}

/// A full parameter-space specification.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceSpec {
    /// Spec name (artifact basenames derive from it).
    pub name: String,
    /// Swept config knobs.
    pub axes: Vec<Axis>,
    /// Workload axis (at least one).
    pub workloads: Vec<WorkloadSpec>,
    /// Allocation-α axis (§5.5/§7.3); empty = skip allocation analysis.
    pub alphas: Vec<f64>,
    /// Default sample count; 0 = full grid cross-product.
    pub samples: usize,
}

impl SpaceSpec {
    /// Serializes the spec (the inverse of [`SpaceSpec::from_json`]).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("axes".into(), Json::Arr(self.axes.iter().map(Axis::to_json).collect())),
            (
                "workloads".into(),
                Json::Arr(self.workloads.iter().map(WorkloadSpec::to_json).collect()),
            ),
            ("alphas".into(), self.alphas.to_json()),
            ("samples".into(), Json::UInt(self.samples as u64)),
        ])
    }

    /// Decodes a spec document.
    ///
    /// # Errors
    ///
    /// Human-readable description of the first malformed field.
    pub fn from_json(j: &Json) -> Result<SpaceSpec, String> {
        let name = j
            .get("name")
            .and_then(Json::as_str)
            .ok_or("spec needs a 'name' string")?
            .to_string();
        let axes = j
            .get("axes")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .map(Axis::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let workloads = j
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or("spec needs a 'workloads' array")?
            .iter()
            .map(WorkloadSpec::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        if workloads.is_empty() {
            return Err("spec needs at least one workload".into());
        }
        let alphas = j
            .get("alphas")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|v| v.as_f64().ok_or("non-numeric alpha"))
            .collect::<Result<Vec<_>, _>>()?;
        if alphas.iter().any(|&a| !a.is_finite() || a <= 0.0) {
            return Err("alphas must be positive and finite".into());
        }
        let samples = j.get("samples").and_then(Json::as_u64).unwrap_or(0) as usize;
        Ok(SpaceSpec { name, axes, workloads, alphas, samples })
    }

    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// Parse errors or malformed fields, as [`SpaceSpec::from_json`].
    pub fn parse_str(text: &str) -> Result<SpaceSpec, String> {
        let j = outerspace_json::parse(text).map_err(|e| format!("spec is not JSON: {e}"))?;
        SpaceSpec::from_json(&j)
    }

    /// The specs bundled with the crate: `smoke`, `sec73_alpha`,
    /// `sec8_scaling`, `sparch_vs_ospace`, `fixtures`.
    pub fn bundled(name: &str) -> Option<SpaceSpec> {
        let text = match name {
            "smoke" => include_str!("../specs/smoke.json"),
            "sec73_alpha" => include_str!("../specs/sec73_alpha.json"),
            "sec8_scaling" => include_str!("../specs/sec8_scaling.json"),
            "sparch_vs_ospace" => include_str!("../specs/sparch_vs_ospace.json"),
            "fixtures" => include_str!("../specs/fixtures.json"),
            _ => return None,
        };
        Some(SpaceSpec::parse_str(text).expect("bundled specs are valid"))
    }

    /// Names of the bundled specs.
    pub const BUNDLED: &'static [&'static str] =
        &["smoke", "sec73_alpha", "sec8_scaling", "sparch_vs_ospace", "fixtures"];

    /// Expands the spec into concrete points.
    ///
    /// `samples` overrides the spec's own `samples` field when `Some`; the
    /// effective value selects grid (0) or random (N) mode. `seed` drives
    /// both the sampler and, ultimately, workload synthesis. Knob axes are
    /// applied in spec order with `system_scale` forced last, so scaling
    /// multiplies the swept resource counts.
    ///
    /// # Errors
    ///
    /// A `range` axis in grid mode, a knob value out of range, or an empty
    /// expansion.
    pub fn expand(&self, samples: Option<usize>, seed: u64) -> Result<Vec<DsePoint>, String> {
        let n_samples = samples.unwrap_or(self.samples);
        let assignments: Vec<Vec<(String, f64)>> = if n_samples == 0 {
            let mut grids = Vec::with_capacity(self.axes.len());
            for ax in &self.axes {
                let g = ax.grid().ok_or_else(|| {
                    format!(
                        "axis '{}' is a continuous range: grid expansion needs --samples",
                        ax.knob
                    )
                })?;
                grids.push((ax.knob.clone(), g));
            }
            let mut combos: Vec<Vec<(String, f64)>> = vec![Vec::new()];
            for (knob, grid) in &grids {
                let mut next = Vec::with_capacity(combos.len() * grid.len());
                for combo in &combos {
                    for &v in grid {
                        let mut c = combo.clone();
                        c.push((knob.clone(), v));
                        next.push(c);
                    }
                }
                combos = next;
            }
            combos
        } else {
            // Decorrelate the sampler stream from workload-synthesis streams
            // that also derive from the sweep seed.
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xd5e5_eed0_5a3c_e001);
            (0..n_samples)
                .map(|_| {
                    self.axes
                        .iter()
                        .map(|ax| (ax.knob.clone(), ax.sample(&mut rng)))
                        .collect()
                })
                .collect()
        };

        let alphas: Vec<Option<f64>> = if self.alphas.is_empty() {
            vec![None]
        } else {
            self.alphas.iter().copied().map(Some).collect()
        };

        let mut points = Vec::new();
        for assignment in &assignments {
            for w in &self.workloads {
                for &alpha in &alphas {
                    let mut cfg = OuterSpaceConfig::default();
                    // Plain knobs first, system_scale last (see above).
                    for (k, v) in assignment.iter().filter(|(k, _)| k != "system_scale") {
                        knobs::apply(&mut cfg, k, *v)?;
                    }
                    for (k, v) in assignment.iter().filter(|(k, _)| k == "system_scale") {
                        knobs::apply(&mut cfg, k, *v)?;
                    }
                    points.push(DsePoint {
                        index: points.len(),
                        config: cfg,
                        knobs: assignment.clone(),
                        workload: w.clone(),
                        alpha,
                    });
                }
            }
        }
        if points.is_empty() {
            return Err("spec expands to zero points".into());
        }
        Ok(points)
    }

    /// Returns a copy with every workload shrunk by `divisor`
    /// (see [`WorkloadSpec::scaled`]).
    pub fn scaled(&self, divisor: u32) -> SpaceSpec {
        let mut s = self.clone();
        s.workloads = s.workloads.iter().map(|w| w.scaled(divisor)).collect();
        s
    }
}

/// One concrete point of an expanded space.
#[derive(Debug, Clone, PartialEq)]
pub struct DsePoint {
    /// Position in expansion order (stable across runs with the same seed).
    pub index: usize,
    /// The fully-applied configuration.
    pub config: OuterSpaceConfig,
    /// The knob assignment that produced it (for sensitivity analysis).
    pub knobs: Vec<(String, f64)>,
    /// The workload this point simulates.
    pub workload: WorkloadSpec,
    /// Allocation-α analyzed alongside the run, when the spec sweeps it.
    pub alpha: Option<f64>,
}

impl DsePoint {
    /// Canonical compact JSON of the configuration — one half of the cache
    /// key, and the config identity used for per-config aggregation.
    pub fn config_canonical(&self) -> String {
        self.config.to_json().to_string_compact()
    }

    /// The knob assignment as a JSON object (reports).
    pub fn knobs_json(&self) -> Json {
        Json::Obj(
            self.knobs
                .iter()
                .map(|(k, v)| (k.clone(), Json::Float(*v)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(text: &str) -> SpaceSpec {
        SpaceSpec::parse_str(text).unwrap()
    }

    #[test]
    fn grid_expansion_is_a_cross_product() {
        let s = spec(
            r#"{"name":"t","axes":[
                {"knob":"n_tiles","values":[8,16]},
                {"knob":"l0_multiply_bytes","log2":{"from":13,"to":14}}],
              "workloads":[{"kind":"uniform","n":64,"nnz":300}]}"#,
        );
        let pts = s.expand(None, 1).unwrap();
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0].index, 0);
        let tiles: Vec<u32> = pts.iter().map(|p| p.config.n_tiles).collect();
        assert_eq!(tiles, vec![8, 8, 16, 16]);
        assert!(pts.iter().any(|p| p.config.l0_multiply_bytes == 8192));
    }

    #[test]
    fn random_sampling_is_deterministic_in_seed() {
        let s = spec(
            r#"{"name":"t","axes":[
                {"knob":"n_tiles","values":[4,8,16,32]},
                {"knob":"hbm_channel_mb_per_sec","range":{"min":2000,"max":16000}}],
              "workloads":[{"kind":"uniform","n":64,"nnz":300}]}"#,
        );
        let a = s.expand(Some(20), 7).unwrap();
        let b = s.expand(Some(20), 7).unwrap();
        let c = s.expand(Some(20), 8).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 20);
        // Range axis produced in-bounds values.
        assert!(a
            .iter()
            .all(|p| (2000..=16000).contains(&p.config.hbm_channel_mb_per_sec)));
    }

    #[test]
    fn range_axis_requires_samples_in_grid_mode() {
        let s = spec(
            r#"{"name":"t","axes":[{"knob":"clock_ghz","range":{"min":1.0,"max":2.0}}],
              "workloads":[{"kind":"uniform","n":64,"nnz":300}]}"#,
        );
        assert!(s.expand(None, 1).unwrap_err().contains("--samples"));
        assert_eq!(s.expand(Some(5), 1).unwrap().len(), 5);
    }

    #[test]
    fn alpha_axis_multiplies_points() {
        let s = spec(
            r#"{"name":"t","axes":[],"alphas":[1.0,2.0,4.0],
              "workloads":[{"kind":"uniform","n":64,"nnz":300}]}"#,
        );
        let pts = s.expand(None, 1).unwrap();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[2].alpha, Some(4.0));
    }

    #[test]
    fn spec_round_trips_through_json() {
        let s = spec(
            r#"{"name":"rt","axes":[
                {"knob":"n_tiles","values":[8,16]},
                {"knob":"l1_bytes","log2":{"from":12,"to":13}},
                {"knob":"clock_ghz","range":{"min":1.0,"max":2.0}}],
              "workloads":[{"kind":"suite","name":"wiki-Vote","scale":4}],
              "alphas":[2.0],"samples":10}"#,
        );
        let back = SpaceSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn bad_specs_are_rejected_with_reasons() {
        for (text, needle) in [
            (r#"{"axes":[],"workloads":[]}"#, "name"),
            (r#"{"name":"x","workloads":[]}"#, "at least one workload"),
            (
                r#"{"name":"x","axes":[{"knob":"bogus","values":[1]}],
                   "workloads":[{"kind":"uniform","n":8,"nnz":8}]}"#,
                "unknown knob",
            ),
            (
                r#"{"name":"x","axes":[{"knob":"n_tiles","values":[]}],
                   "workloads":[{"kind":"uniform","n":8,"nnz":8}]}"#,
                "empty grid",
            ),
            (
                r#"{"name":"x","axes":[],"workloads":[{"kind":"martian","n":8,"nnz":8}]}"#,
                "unknown workload kind",
            ),
            (
                r#"{"name":"x","axes":[],"alphas":[-1.0],
                   "workloads":[{"kind":"uniform","n":8,"nnz":8}]}"#,
                "positive",
            ),
            // 2^32 + 100 rows must not wrap to a 100-row matrix.
            (
                r#"{"name":"x","axes":[],
                   "workloads":[{"kind":"uniform","n":4294967396,"nnz":8}]}"#,
                "workload 'n' 4294967396",
            ),
            (
                r#"{"name":"x","axes":[],
                   "workloads":[{"kind":"suite","name":"wiki-Vote","scale":4294967300}]}"#,
                "workload 'scale'",
            ),
        ] {
            let err = SpaceSpec::parse_str(text).unwrap_err();
            assert!(err.contains(needle), "{text} -> {err}");
        }
    }

    #[test]
    fn bundled_specs_parse_and_expand() {
        for &name in SpaceSpec::BUNDLED {
            let s = SpaceSpec::bundled(name).unwrap_or_else(|| panic!("missing {name}"));
            let pts = s.expand(None, 42).unwrap();
            assert!(!pts.is_empty(), "{name} expands to zero points");
        }
        assert!(SpaceSpec::bundled("nope").is_none());
        // The CI gate needs >= 64 points and the paper-default config.
        let smoke = SpaceSpec::bundled("smoke").unwrap();
        let pts = smoke.expand(None, 42).unwrap();
        assert!(pts.len() >= 64, "smoke has {} points", pts.len());
        let default_json = OuterSpaceConfig::default().to_json().to_string_compact();
        assert!(
            pts.iter().any(|p| p.config_canonical() == default_json),
            "smoke must include the Table 2 default design point"
        );
    }

    #[test]
    fn workload_scaling_changes_label_and_shrinks() {
        let w = WorkloadSpec {
            kind: "uniform".into(),
            name: String::new(),
            n: 1024,
            nnz: 8192,
            scale: 1,
        };
        let s = w.scaled(4);
        assert_eq!(s.n, 256);
        assert_ne!(w.label(), s.label());
        let suite = WorkloadSpec {
            kind: "suite".into(),
            name: "wiki-Vote".into(),
            n: 0,
            nnz: 0,
            scale: 4,
        };
        assert_eq!(suite.scaled(4).scale, 16);
        assert!(suite.generate(1).is_ok());
    }
}
