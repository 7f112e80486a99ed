//! Result verification tier: Freivalds probes for SpGEMM, residual
//! recomputation for SpMV, and the [`Attested`] token that makes
//! verify-before-insert a type-level property of the result cache.
//!
//! Policy ([`VerifyPolicy`]): results produced by accelerator-class kernels
//! (the `sim`/`sim_spmv` hardware models plus the `chaos_sdc*` drill hooks —
//! the only tiers the [`FaultModel`](outerspace_sim::FaultModel)'s silent
//! ECC-escape knob can corrupt) are **always** verified before delivery;
//! software kernels are scrubbed on a sampling schedule (`scrub_every`).
//! A result that fails verification is quarantined by the server: never
//! delivered, never cached, re-executed on the software fallback.
//!
//! The check itself lives in `crates/verify`; this module binds it to the
//! service vocabulary ([`Op`]/[`OpOutput`]) and to per-request probe seeds,
//! so replaying a request replays its exact probe vectors.

use outerspace_sim::faults::split_seed;
use outerspace_verify::{freivalds_spgemm, spmv_residual, VerifyConfig, VerifyError, DEFAULT_ROUNDS};

use crate::kernels;
use crate::request::{Op, OpOutput};

/// When and how hard the service verifies results.
#[derive(Debug, Clone)]
pub struct VerifyPolicy {
    /// Master switch. Off = the pre-verification service (no probes, every
    /// delivery counts as unverified).
    pub enabled: bool,
    /// Freivalds rounds per SpGEMM check (worst-case false-negative `2⁻ʳ`).
    pub rounds: u32,
    /// Base probe seed; each request derives `split_seed(seed, request_id)`.
    pub seed: u64,
    /// Scrub sampling for software-kernel results: verify when
    /// `request_id % scrub_every == 0` (0 disables sampling entirely;
    /// accelerator-class results are always verified regardless).
    pub scrub_every: u64,
}

impl Default for VerifyPolicy {
    fn default() -> VerifyPolicy {
        VerifyPolicy {
            enabled: true,
            rounds: DEFAULT_ROUNDS,
            seed: 0xa77e_57ed,
            scrub_every: 1,
        }
    }
}

/// Proof that an [`OpOutput`] passed verification against its operands.
///
/// The only constructor is [`check`]; [`crate::rcache::ResultCache::insert`]
/// demands one, so an unverified result cannot be cached — cache poisoning
/// by a silently corrupted kernel is ruled out at the type level.
#[derive(Debug)]
pub struct Attested(());

/// True for kernels whose results silent hardware faults can reach: the
/// accelerator models (the tier the [`outerspace_sim::FaultModel`] injects
/// into) and the `chaos_sdc*` corruption drills.
pub fn is_accelerator_class(kernel: &str) -> bool {
    kernels::is_sim_kernel(kernel) || kernel.starts_with("chaos_sdc")
}

/// Does `policy` require verifying this request's result?
pub fn must_verify(policy: &VerifyPolicy, kernel: &str, request_id: u64) -> bool {
    policy.enabled
        && (is_accelerator_class(kernel)
            || (policy.scrub_every > 0 && request_id % policy.scrub_every == 0))
}

/// The per-request probe configuration: deterministic in `(policy, id)`.
pub fn config_for(policy: &VerifyPolicy, request_id: u64) -> VerifyConfig {
    VerifyConfig {
        rounds: policy.rounds,
        seed: split_seed(policy.seed, request_id),
        ..VerifyConfig::default()
    }
}

/// Verifies `out` as the product of `op`'s operands. `Ok` returns the
/// [`Attested`] token that unlocks cache insertion.
///
/// # Errors
///
/// The [`VerifyError`] describing the first failed probe (or shape
/// violation) when the result is not the claimed product.
pub fn check(op: &Op, out: &OpOutput, cfg: &VerifyConfig) -> Result<Attested, VerifyError> {
    match (op, out) {
        (Op::Spgemm { a, b }, OpOutput::Matrix(c)) => freivalds_spgemm(a, b, c, cfg)?,
        (Op::Spmv { a, x }, OpOutput::Vector(y)) => spmv_residual(a, x, y, cfg)?,
        // A kind mismatch can only come from a server bug; surface it as the
        // strongest shape violation rather than panicking in a worker.
        (Op::Spgemm { a, b }, OpOutput::Vector(y)) => {
            return Err(VerifyError::Shape {
                expected: (a.nrows(), b.ncols()),
                got: (y.len, 1),
            })
        }
        (Op::Spmv { a, .. }, OpOutput::Matrix(c)) => {
            return Err(VerifyError::Shape {
                expected: (a.nrows(), 1),
                got: (c.nrows(), c.ncols()),
            })
        }
    }
    Ok(Attested(()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use outerspace_gen::{uniform, vector};
    use outerspace_sparse::ops;
    use std::sync::Arc;

    fn spgemm_case(seed: u64) -> (Op, OpOutput) {
        let a = Arc::new(uniform::matrix(48, 48, 300, seed));
        let b = Arc::new(uniform::matrix(48, 48, 300, seed ^ 0x9e37));
        let c = ops::spgemm_reference(&a, &b).unwrap();
        (Op::Spgemm { a, b }, OpOutput::Matrix(c))
    }

    #[test]
    fn clean_results_attest_and_corrupted_ones_do_not() {
        let cfg = config_for(&VerifyPolicy::default(), 3);
        let (op, out) = spgemm_case(1);
        assert!(check(&op, &out, &cfg).is_ok());
        let OpOutput::Matrix(mut c) = out else { unreachable!() };
        c.values_mut()[0] += 1.0;
        assert!(check(&op, &OpOutput::Matrix(c), &cfg).is_err());
    }

    #[test]
    fn spmv_results_are_checked_by_residual() {
        let a = Arc::new(uniform::matrix(32, 32, 160, 5));
        let x = Arc::new(vector::sparse(32, 0.4, 6));
        let yd = ops::spmv_reference(&a, &x.to_dense()).unwrap();
        let y = outerspace_sparse::SparseVector::from_dense(&yd);
        let op = Op::Spmv { a, x };
        let cfg = config_for(&VerifyPolicy::default(), 9);
        assert!(check(&op, &OpOutput::Vector(y.clone()), &cfg).is_ok());
        let mut bad = y;
        let last = bad.values.len() - 1;
        bad.values[last] *= -2.0;
        assert!(check(&op, &OpOutput::Vector(bad), &cfg).is_err());
    }

    #[test]
    fn kind_mismatch_is_a_shape_error_not_a_panic() {
        let (op, _) = spgemm_case(2);
        let y = outerspace_sparse::SparseVector::from_dense(&[1.0; 48]);
        let cfg = config_for(&VerifyPolicy::default(), 1);
        assert!(matches!(
            check(&op, &OpOutput::Vector(y), &cfg),
            Err(VerifyError::Shape { .. })
        ));
    }

    #[test]
    fn policy_always_verifies_accelerator_class_and_samples_the_rest() {
        let p = VerifyPolicy { scrub_every: 4, ..VerifyPolicy::default() };
        for id in 0..16 {
            assert!(must_verify(&p, "sim", id));
            assert!(must_verify(&p, "sim_spmv", id));
            assert!(must_verify(&p, "chaos_sdc", id));
            assert!(must_verify(&p, "chaos_sdc_burst:3", id));
            assert_eq!(must_verify(&p, "mkl_gustavson", id), id % 4 == 0);
        }
        let off = VerifyPolicy { enabled: false, ..VerifyPolicy::default() };
        assert!(!must_verify(&off, "sim", 0));
        let no_scrub = VerifyPolicy { scrub_every: 0, ..VerifyPolicy::default() };
        assert!(!must_verify(&no_scrub, "outer_ws_par", 0));
        assert!(must_verify(&no_scrub, "sim", 1));
    }

    #[test]
    fn probe_seeds_are_deterministic_per_request() {
        let p = VerifyPolicy::default();
        assert_eq!(config_for(&p, 7), config_for(&p, 7));
        assert_ne!(config_for(&p, 7).seed, config_for(&p, 8).seed);
    }
}
