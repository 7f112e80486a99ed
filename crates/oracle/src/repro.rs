//! Replayable repro artifacts for oracle failures.
//!
//! A failing (already shrunk) case is persisted as a directory under
//! `oracle_repros/`:
//!
//! ```text
//! oracle_repros/<family>__<impl>__seed<seed>/
//!   a.mtx           left operand (Matrix Market, round-trip formatting)
//!   b.mtx           right operand (for SpMV: the vector as an n × 1 matrix)
//!   manifest.json   kind, implementation, seed/scale provenance, the
//!                   observed mismatch, and shrink statistics
//! ```
//!
//! `oracle --replay <dir>` reloads the pair and re-runs *only* the recorded
//! implementation against the reference: exit 0 when the results now agree
//! (bug fixed), exit 1 with the diff when the mismatch still reproduces.
//! Values are written with `{:e}` formatting, which round-trips `f64`
//! exactly, so a replay is bit-identical to the failing run.

use std::path::{Path, PathBuf};

use outerspace_json::{dump, Json};
use outerspace_sparse::{io, Csr, SparseVector};

use crate::canon::CanonMatrix;
use crate::compare::{compare, Tolerance};
use crate::impls::{self, spgemm_reference, spmv_reference};
use crate::shrink::ShrinkStats;

/// Which operation a repro captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReproKind {
    /// `C = A × B`.
    Spgemm,
    /// `y = A × x` (`b.mtx` stores `x` as an `n × 1` matrix).
    Spmv,
}

impl ReproKind {
    fn as_str(self) -> &'static str {
        match self {
            ReproKind::Spgemm => "spgemm",
            ReproKind::Spmv => "spmv",
        }
    }

    fn from_str(s: &str) -> Option<ReproKind> {
        match s {
            "spgemm" => Some(ReproKind::Spgemm),
            "spmv" => Some(ReproKind::Spmv),
            _ => None,
        }
    }
}

/// A minimal failing input plus the provenance needed to replay it.
#[derive(Debug, Clone)]
pub struct Repro {
    /// Operation kind.
    pub kind: ReproKind,
    /// Registry name of the disagreeing implementation.
    pub impl_name: String,
    /// Oracle case name (`family@seed`) the failure came from.
    pub case: String,
    /// Base RNG seed of the originating run.
    pub seed: u64,
    /// `--scale` of the originating run.
    pub scale: u32,
    /// The mismatch as observed on the *shrunk* input.
    pub error: String,
    /// Shrink statistics (evaluations / adopted steps).
    pub shrink: ShrinkStats,
    /// Left operand.
    pub a: Csr,
    /// Right operand (SpMV: the vector as one column).
    pub b: Csr,
}

/// Extracts an SpMV vector from its one-column matrix encoding.
pub fn vector_from_column(b: &Csr) -> Result<SparseVector, String> {
    if b.ncols() != 1 {
        return Err(format!("spmv repro expects a 1-column b.mtx, got {} columns", b.ncols()));
    }
    let mut indices = Vec::with_capacity(b.nnz());
    let mut values = Vec::with_capacity(b.nnz());
    for (r, _, v) in b.iter() {
        indices.push(r);
        values.push(v);
    }
    Ok(SparseVector { len: b.nrows(), indices, values })
}

impl Repro {
    /// Directory name: stable, filesystem-safe, unique per
    /// `(case, implementation)`.
    pub fn dir_name(&self) -> String {
        let safe: String = self
            .case
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == '-' { c } else { '_' })
            .collect();
        format!("{safe}__{}", self.impl_name)
    }

    /// Writes `a.mtx`, `b.mtx` and `manifest.json` under
    /// `<root>/<dir_name>/`, returning the repro directory.
    ///
    /// # Errors
    ///
    /// Returns a description of the first I/O failure.
    pub fn write(&self, root: &Path) -> Result<PathBuf, String> {
        let dir = root.join(self.dir_name());
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let write_mtx = |name: &str, m: &Csr| -> Result<(), String> {
            let path = dir.join(name);
            let file = std::fs::File::create(&path)
                .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
            io::write_csr(std::io::BufWriter::new(file), m)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))
        };
        write_mtx("a.mtx", &self.a)?;
        write_mtx("b.mtx", &self.b)?;
        let manifest = Json::Obj(vec![
            ("kind".into(), Json::Str(self.kind.as_str().into())),
            ("impl".into(), Json::Str(self.impl_name.clone())),
            ("case".into(), Json::Str(self.case.clone())),
            ("seed".into(), Json::UInt(self.seed)),
            ("scale".into(), Json::UInt(self.scale as u64)),
            ("error".into(), Json::Str(self.error.clone())),
            ("shrink_evals".into(), Json::UInt(self.shrink.evals as u64)),
            ("shrink_steps".into(), Json::UInt(self.shrink.steps as u64)),
            ("a".into(), Json::Str("a.mtx".into())),
            ("b".into(), Json::Str("b.mtx".into())),
            (
                "replay".into(),
                Json::Str(format!("oracle --replay {}", dir.display())),
            ),
        ]);
        let mpath = dir.join("manifest.json");
        dump::write_json_atomic(&mpath, &manifest)
            .map_err(|e| format!("cannot write {}: {e}", mpath.display()))?;
        Ok(dir)
    }

    /// Loads a repro from its directory (or a direct `manifest.json` path).
    ///
    /// # Errors
    ///
    /// Returns a description of the missing/malformed piece.
    pub fn load(path: &Path) -> Result<Repro, String> {
        let dir = if path.is_dir() {
            path.to_path_buf()
        } else {
            path.parent().map(Path::to_path_buf).unwrap_or_default()
        };
        let mpath = dir.join("manifest.json");
        let text = std::fs::read_to_string(&mpath)
            .map_err(|e| format!("cannot read {}: {e}", mpath.display()))?;
        let j = outerspace_json::parse(&text)
            .map_err(|e| format!("{}: {e}", mpath.display()))?;
        let field = |k: &str| -> Result<String, String> {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{}: missing string field '{k}'", mpath.display()))
        };
        let kind = field("kind")?;
        let kind = ReproKind::from_str(&kind)
            .ok_or_else(|| format!("{}: unknown kind '{kind}'", mpath.display()))?;
        let read_mtx = |k: &str| -> Result<Csr, String> {
            let p = dir.join(field(k)?);
            io::read_csr(&p).map_err(|e| format!("cannot read {}: {e}", p.display()))
        };
        Ok(Repro {
            kind,
            impl_name: field("impl")?,
            case: field("case")?,
            seed: j.get("seed").and_then(Json::as_u64).unwrap_or(0),
            scale: match j.get("scale").and_then(Json::as_u64) {
                None => 1,
                Some(v) => u32::try_from(v).map_err(|_| {
                    format!("{}: 'scale' {v} exceeds {}", mpath.display(), u32::MAX)
                })?,
            },
            error: field("error").unwrap_or_default(),
            shrink: ShrinkStats {
                evals: j.get("shrink_evals").and_then(Json::as_u64).unwrap_or(0) as usize,
                steps: j.get("shrink_steps").and_then(Json::as_u64).unwrap_or(0) as usize,
            },
            a: read_mtx("a")?,
            b: read_mtx("b")?,
        })
    }

    /// Re-runs the recorded implementation against the reference on the
    /// stored operands.
    ///
    /// # Errors
    ///
    /// `Err(description)` when the mismatch still reproduces (or the
    /// implementation name is unknown); `Ok(())` when reference and
    /// implementation now agree.
    pub fn replay(&self, tol: &Tolerance) -> Result<(), String> {
        match self.kind {
            ReproKind::Spgemm => {
                // The injected-fault shim is always resolvable on replay so
                // its CI repro reproduces without extra flags.
                let registry: Vec<_> = impls::spgemm_impls()
                    .into_iter()
                    .chain(std::iter::once(impls::injected_fault_impl()))
                    .collect();
                let imp = registry
                    .iter()
                    .find(|i| i.name == self.impl_name)
                    .ok_or_else(|| format!("unknown spgemm impl '{}'", self.impl_name))?;
                diff_results(
                    &self.impl_name,
                    spgemm_reference(&self.a, &self.b).map(|c| CanonMatrix::from_csr(&c)),
                    (imp.run)(&self.a, &self.b).map(|c| CanonMatrix::from_csr(&c)),
                    tol,
                )
            }
            ReproKind::Spmv => {
                let x = vector_from_column(&self.b)?;
                let registry = impls::spmv_impls();
                let imp = registry
                    .iter()
                    .find(|i| i.name == self.impl_name)
                    .ok_or_else(|| format!("unknown spmv impl '{}'", self.impl_name))?;
                diff_results(
                    &self.impl_name,
                    spmv_reference(&self.a, &x).map(|y| CanonMatrix::from_sparse_vector(&y)),
                    (imp.run)(&self.a, &x).map(|y| CanonMatrix::from_sparse_vector(&y)),
                    tol,
                )
            }
        }
    }
}

/// Differences a canonicalized implementation result against the reference,
/// treating rejection agreement as success and rejection *disagreement* as a
/// mismatch. Shared by the replay path and the oracle driver.
pub fn diff_results(
    impl_name: &str,
    reference: Result<CanonMatrix, String>,
    candidate: Result<CanonMatrix, String>,
    tol: &Tolerance,
) -> Result<(), String> {
    match (reference, candidate) {
        (Ok(r), Ok(c)) => compare(&r, &c, tol)
            .map_err(|e| format!("{impl_name} disagrees with reference: {e}")),
        (Err(_), Err(_)) => Ok(()), // both reject: agreement
        (Err(re), Ok(_)) => Err(format!(
            "{impl_name} accepted operands the reference rejects ({re})"
        )),
        (Ok(_), Err(ce)) => Err(format!(
            "{impl_name} rejected operands the reference accepts ({ce})"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use outerspace_gen::uniform;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("oracle_repro_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_load_round_trip_preserves_operands_exactly() {
        let root = temp_root("roundtrip");
        let repro = Repro {
            kind: ReproKind::Spgemm,
            impl_name: "injected_fault".into(),
            case: "uniform_square@7".into(),
            seed: 7,
            scale: 48,
            error: "1 disagreeing entry".into(),
            shrink: ShrinkStats { evals: 12, steps: 3 },
            a: uniform::matrix(5, 4, 9, 1),
            b: uniform::matrix(4, 6, 9, 2),
        };
        let dir = repro.write(&root).unwrap();
        let back = Repro::load(&dir).unwrap();
        assert_eq!(back.kind, ReproKind::Spgemm);
        assert_eq!(back.impl_name, "injected_fault");
        assert_eq!((back.seed, back.scale), (7, 48));
        assert_eq!(back.shrink, repro.shrink);
        // `{:e}` formatting round-trips f64 exactly — operands identical.
        assert_eq!(back.a, repro.a);
        assert_eq!(back.b, repro.b);
        // A scale of 2^32 + 48 is malformed, not a scale-48 repro.
        let mpath = dir.join("manifest.json");
        let text = std::fs::read_to_string(&mpath).unwrap();
        assert!(text.contains("\"scale\": 48"), "{text}");
        std::fs::write(&mpath, text.replace("\"scale\": 48", "\"scale\": 4294967344")).unwrap();
        let err = Repro::load(&dir).unwrap_err();
        assert!(err.contains("'scale' 4294967344"), "{err}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn replay_reproduces_injected_fault_and_passes_for_real_impls() {
        let a = uniform::matrix(6, 6, 12, 3);
        let base = Repro {
            kind: ReproKind::Spgemm,
            impl_name: "injected_fault".into(),
            case: "t@3".into(),
            seed: 3,
            scale: 48,
            error: String::new(),
            shrink: ShrinkStats { evals: 0, steps: 0 },
            a: a.clone(),
            b: a.clone(),
        };
        let tol = Tolerance::default();
        assert!(base.replay(&tol).is_err(), "fault shim must still mismatch");
        let fixed = Repro { impl_name: "outer_streaming".into(), ..base };
        assert!(fixed.replay(&tol).is_ok(), "real impl agrees with reference");
    }

    #[test]
    fn spmv_vector_encoding_round_trips() {
        let x = SparseVector { len: 7, indices: vec![1, 4], values: vec![2.0, -3.5] };
        let mut coo = outerspace_sparse::Coo::new(7, 1);
        for (&i, &v) in x.indices.iter().zip(&x.values) {
            coo.push(i, 0, v);
        }
        let back = vector_from_column(&coo.to_csr()).unwrap();
        assert_eq!(back.len, 7);
        assert_eq!(back.indices, x.indices);
        assert_eq!(back.values, x.values);
    }

    #[test]
    fn load_rejects_missing_manifest() {
        assert!(Repro::load(Path::new("/nonexistent/repro")).is_err());
    }
}
