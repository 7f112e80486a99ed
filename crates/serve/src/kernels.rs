//! The kernel table the router chooses from, with a transient/permanent
//! error split for the retry machinery.
//!
//! Every name here matches the differential-testing oracle's registry
//! (`crates/oracle`), so each choice the classifier can make is continuously
//! cross-checked against the reference kernels — the "known-good" in
//! "cheapest known-good implementation". (`crates/oracle` has a test pinning
//! this name correspondence.)
//!
//! Faults only reach the `sim`/`sim_spmv` entries: the accelerator model is
//! the path with an injected [`FaultModel`], so a transiently failing
//! simulation ([`SimError::MemoryFailure`], [`SimError::WatchdogTimeout`])
//! is retryable with a fresh per-attempt fault seed, while a dead array
//! ([`SimError::AllPesFailed`]) is permanent and triggers the software
//! fallback rung of the degradation ladder.

use std::sync::atomic::{AtomicU64, Ordering};

use outerspace_baselines as baselines;
use outerspace_outer as outer;
use outerspace_sim::{faults, OuterSpaceConfig, SimError, Simulator};
use outerspace_sparse::{Csr, SparseVector};

use crate::request::{Op, OpOutput};

/// Every SpGEMM kernel the router may choose, cheapest-first within tiers.
pub const SPGEMM_KERNELS: &[&str] = &[
    "mkl_gustavson",
    "mkl_gustavson_par",
    "outer_streaming",
    "outer_blocked",
    "outer_ws_par",
    "cusparse_hash",
    "sim",
];

/// Every SpMV kernel the router may choose.
pub const SPMV_KERNELS: &[&str] = &["outer_spmv", "mkl_spmv_densified", "sim_spmv"];

/// The cheapest known-good rung of the degradation ladder: serial Gustavson,
/// bounded memory, no worker threads, no simulated hardware to fault.
pub const CHEAPEST_SPGEMM: &str = "mkl_gustavson";
/// SpMV counterpart of [`CHEAPEST_SPGEMM`].
pub const CHEAPEST_SPMV: &str = "mkl_spmv_densified";

/// How a kernel failed, from the retry machinery's point of view.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelError {
    /// Worth retrying with a fresh fault seed (transient injected fault).
    Transient(String),
    /// Retrying cannot help: malformed operands, dead hardware model, or a
    /// caught kernel panic.
    Permanent(String),
}

impl KernelError {
    /// The failure message regardless of class.
    pub fn message(&self) -> &str {
        match self {
            KernelError::Transient(m) | KernelError::Permanent(m) => m,
        }
    }
}

fn classify_sim_error(e: SimError) -> KernelError {
    match e {
        // An exhausted HBM retry budget or a fired phase watchdog is a
        // transient episode: a re-run draws a fresh fault stream.
        SimError::MemoryFailure { .. } | SimError::WatchdogTimeout { .. } => {
            KernelError::Transient(e.to_string())
        }
        // Dead PEs stay dead, and config/shape rejections are deterministic.
        _ => KernelError::Permanent(e.to_string()),
    }
}

fn perm<E: std::fmt::Display>(e: E) -> KernelError {
    KernelError::Permanent(e.to_string())
}

/// Worker threads handed to the `*_par` kernels.
pub const PAR_THREADS: usize = 3;

/// Runs SpGEMM kernel `name`. `sim_config` only matters for `"sim"` (it
/// carries the per-request fault seed).
pub fn run_spgemm(
    name: &str,
    a: &Csr,
    b: &Csr,
    sim_config: &OuterSpaceConfig,
) -> Result<Csr, KernelError> {
    match name {
        "mkl_gustavson" => baselines::gustavson::spgemm(a, b).map(|(c, _)| c).map_err(perm),
        "mkl_gustavson_par" => baselines::gustavson::spgemm_parallel(a, b, PAR_THREADS)
            .map(|(c, _)| c)
            .map_err(perm),
        "outer_streaming" => outer::spgemm_with_stats(a, b, outer::MergeKind::Streaming)
            .map(|(c, _)| c)
            .map_err(perm),
        "outer_blocked" => outer::spgemm(a, b).map_err(perm),
        "outer_ws_par" => {
            outer::spgemm_parallel(a, b, PAR_THREADS).map(|(c, _)| c).map_err(perm)
        }
        "cusparse_hash" => baselines::hash::spgemm(a, b).map(|(c, _)| c).map_err(perm),
        "sim" => {
            let sim = Simulator::new(sim_config.clone()).map_err(perm)?;
            sim.spgemm(a, b).map(|(c, _)| c).map_err(classify_sim_error)
        }
        other => Err(KernelError::Permanent(format!("unknown spgemm kernel '{other}'"))),
    }
}

/// Runs SpMV kernel `name`; see [`run_spgemm`] for the `sim_config` rule.
pub fn run_spmv(
    name: &str,
    a: &Csr,
    x: &SparseVector,
    sim_config: &OuterSpaceConfig,
) -> Result<SparseVector, KernelError> {
    match name {
        "outer_spmv" => outer::spmv(&a.to_csc(), x).map(|(y, _)| y).map_err(perm),
        "mkl_spmv_densified" => baselines::spmv::spmv_dense_vector(a, x)
            .map(|(y, _)| SparseVector::from_dense(&y))
            .map_err(perm),
        "sim_spmv" => {
            let sim = Simulator::new(sim_config.clone()).map_err(perm)?;
            sim.spmv(&a.to_csc(), x).map(|(y, _)| y).map_err(classify_sim_error)
        }
        other => Err(KernelError::Permanent(format!("unknown spmv kernel '{other}'"))),
    }
}

/// Process-global execution counter for the `chaos_sdc*` hooks: the
/// `chaos_sdc_burst:<n>` variant corrupts only its first `n` executions, so
/// a drill can trip a breaker and then let the canary probes observe a
/// healthy kernel again.
static CHAOS_SDC_EXECUTIONS: AtomicU64 = AtomicU64::new(0);

/// Rewinds the [`chaos_sdc_burst`](run_op) execution counter so a fresh
/// drill gets a fresh corruption budget.
pub fn reset_chaos_sdc_counter() {
    CHAOS_SDC_EXECUTIONS.store(0, Ordering::SeqCst);
}

/// Flips one mantissa bit of the first value of non-negligible magnitude —
/// the exact corruption shape `FaultModel::ber_silent` produces, but
/// deterministic and guaranteed, so the verification tier's detection rate
/// can be asserted instead of sampled.
fn corrupt_one_value(values: &mut [f64], salt: u64) {
    match values.iter().position(|v| v.abs() >= 1e-3) {
        Some(i) => values[i] = faults::corrupt_value(values[i], salt),
        // All-tiny results: an additive hit keeps the corruption visible
        // above any magnitude-scaled tolerance.
        None => {
            if let Some(v) = values.first_mut() {
                *v += 1.0;
            }
        }
    }
}

/// Runs `op` through kernel `name`, normalizing the output.
///
/// Chaos hooks ride alongside the real kernels (reachable only by forcing
/// the kernel name — the classifier never routes to them): `"chaos_panic"`
/// panics unconditionally, exercising worker panic isolation;
/// `"chaos_sleep:<ms>"` stalls before delegating to the cheapest kernel,
/// exercising mid-compute deadline expiry; `"chaos_sdc"` computes the
/// correct product and then silently corrupts one value — the accelerator's
/// `ber_silent` failure mode made deterministic — exercising the
/// verification tier; `"chaos_sdc_burst:<n>"` does the same for its first
/// `n` executions process-wide and then runs clean, exercising breaker
/// recovery through half-open canary probes.
pub fn run_op(name: &str, op: &Op, sim_config: &OuterSpaceConfig) -> Result<OpOutput, KernelError> {
    if name == "chaos_panic" {
        panic!("chaos_panic kernel fired");
    }
    if let Some(ms) = name.strip_prefix("chaos_sleep:") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| KernelError::Permanent(format!("bad chaos_sleep kernel '{name}'")))?;
        std::thread::sleep(std::time::Duration::from_millis(ms));
        let cheapest = match op {
            Op::Spgemm { .. } => CHEAPEST_SPGEMM,
            Op::Spmv { .. } => CHEAPEST_SPMV,
        };
        return run_op(cheapest, op, sim_config);
    }
    if let Some(rest) = name.strip_prefix("chaos_sdc") {
        let burst: Option<u64> = match rest.strip_prefix("_burst:") {
            Some(n) => Some(n.parse().map_err(|_| {
                KernelError::Permanent(format!("bad chaos_sdc_burst kernel '{name}'"))
            })?),
            None if rest.is_empty() => None,
            None => return Err(KernelError::Permanent(format!("unknown kernel '{name}'"))),
        };
        let cheapest = match op {
            Op::Spgemm { .. } => CHEAPEST_SPGEMM,
            Op::Spmv { .. } => CHEAPEST_SPMV,
        };
        let mut out = run_op(cheapest, op, sim_config)?;
        // Only the burst variant consumes the process-global counter: the
        // plain hook corrupts unconditionally, so it must not race a
        // concurrent breaker drill's corruption budget.
        let (corrupt, salt) = match burst {
            None => (true, 0),
            Some(n) => {
                let k = CHAOS_SDC_EXECUTIONS.fetch_add(1, Ordering::SeqCst);
                (k < n, k)
            }
        };
        if corrupt {
            match &mut out {
                OpOutput::Matrix(c) => corrupt_one_value(c.values_mut(), salt),
                OpOutput::Vector(y) => corrupt_one_value(&mut y.values, salt),
            }
        }
        return Ok(out);
    }
    match op {
        Op::Spgemm { a, b } => run_spgemm(name, a, b, sim_config).map(OpOutput::Matrix),
        Op::Spmv { a, x } => run_spmv(name, a, x, sim_config).map(OpOutput::Vector),
    }
}

/// True when `name` models the accelerator (the only tier faults reach, and
/// the only tier with a software fallback rung below it).
pub fn is_sim_kernel(name: &str) -> bool {
    name == "sim" || name == "sim_spmv"
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn every_registered_kernel_computes_the_same_product() {
        let a = Arc::new(outerspace_gen::uniform::matrix(48, 48, 300, 7));
        let cfg = OuterSpaceConfig::default();
        let golden = run_spgemm(CHEAPEST_SPGEMM, &a, &a, &cfg).unwrap();
        for name in SPGEMM_KERNELS {
            let c = run_spgemm(name, &a, &a, &cfg)
                .unwrap_or_else(|e| panic!("{name}: {}", e.message()));
            assert!(c.approx_eq(&golden, 1e-9), "{name} diverged");
        }
        let x = Arc::new(outerspace_gen::vector::sparse(48, 0.3, 9));
        let golden_y = run_spmv(CHEAPEST_SPMV, &a, &x, &cfg).unwrap().to_dense();
        for name in SPMV_KERNELS {
            let y = run_spmv(name, &a, &x, &cfg)
                .unwrap_or_else(|e| panic!("{name}: {}", e.message()))
                .to_dense();
            assert_eq!(y.len(), golden_y.len(), "{name} length diverged");
            for (got, want) in y.iter().zip(&golden_y) {
                assert!((got - want).abs() < 1e-9, "{name} diverged");
            }
        }
    }

    #[test]
    fn dimension_mismatch_is_permanent() {
        let a = outerspace_gen::uniform::matrix(8, 8, 16, 1);
        let b = outerspace_gen::uniform::matrix(9, 9, 16, 1);
        let cfg = OuterSpaceConfig::default();
        for name in SPGEMM_KERNELS {
            match run_spgemm(name, &a, &b, &cfg) {
                Err(KernelError::Permanent(_)) => {}
                other => panic!("{name}: expected permanent rejection, got {other:?}"),
            }
        }
    }

    #[test]
    fn chaos_sdc_corrupts_and_burst_runs_dry() {
        let a = Arc::new(outerspace_gen::uniform::matrix(48, 48, 300, 5));
        let op = Op::Spgemm { a: a.clone(), b: a.clone() };
        let cfg = OuterSpaceConfig::default();
        let golden = run_op(CHEAPEST_SPGEMM, &op, &cfg).unwrap();
        reset_chaos_sdc_counter();
        // The plain hook corrupts every execution.
        for _ in 0..3 {
            let out = run_op("chaos_sdc", &op, &cfg).unwrap();
            assert_ne!(out, golden, "chaos_sdc must corrupt the result");
        }
        // The burst hook corrupts exactly its first n executions.
        reset_chaos_sdc_counter();
        for k in 0..5 {
            let out = run_op("chaos_sdc_burst:2", &op, &cfg).unwrap();
            if k < 2 {
                assert_ne!(out, golden, "execution {k} should be corrupted");
            } else {
                assert_eq!(out, golden, "execution {k} should be clean");
            }
        }
        reset_chaos_sdc_counter();
        assert!(matches!(
            run_op("chaos_sdc_burst:x", &op, &cfg),
            Err(KernelError::Permanent(_))
        ));
        // SpMV outputs are corrupted too.
        let x = Arc::new(outerspace_gen::vector::sparse(48, 0.3, 9));
        let mv = Op::Spmv { a, x };
        let clean = run_op(CHEAPEST_SPMV, &mv, &cfg).unwrap();
        assert_ne!(run_op("chaos_sdc", &mv, &cfg).unwrap(), clean);
        reset_chaos_sdc_counter();
    }

    #[test]
    fn unknown_kernel_is_permanent() {
        let a = Csr::identity(4);
        assert!(matches!(
            run_spgemm("nope", &a, &a, &OuterSpaceConfig::default()),
            Err(KernelError::Permanent(_))
        ));
    }
}
