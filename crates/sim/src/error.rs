//! The simulator's typed error, covering configuration, functional, and
//! injected-fault failure modes.

use outerspace_sparse::SparseError;

use crate::config::ConfigError;

/// Everything that can abort a simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The configuration violated a hardware invariant.
    Config(ConfigError),
    /// The functional kernel rejected the operands (shape mismatch, …).
    Sparse(SparseError),
    /// Fault injection killed every PE: no survivor can absorb the
    /// requeued work, so the phase cannot complete.
    AllPesFailed {
        /// Phase that ran out of processing elements.
        phase: &'static str,
    },
    /// An HBM access exhausted its retry budget (every delivery attempt of
    /// a read response was dropped).
    MemoryFailure {
        /// Phase in which the access failed.
        phase: &'static str,
        /// Byte address of the failed read.
        addr: u64,
        /// Delivery attempts made before giving up.
        attempts: u32,
    },
    /// A phase's dispatch frontier passed the configured watchdog limit
    /// without completing (runaway degradation guard).
    WatchdogTimeout {
        /// Phase the watchdog aborted.
        phase: &'static str,
        /// Earliest live-PE time when the watchdog fired.
        frontier: u64,
        /// The configured `watchdog_cycles` limit.
        limit: u64,
    },
    /// A merge row resolves more index collisions than the merge model's
    /// `u32` per-row counter holds.
    MergeCountOverflow {
        /// Result row whose count overflowed.
        row: u32,
        /// The collision count that did not fit.
        collisions: u64,
    },
    /// An observer's [`poll_abort`](crate::engine::KernelObserver::poll_abort)
    /// hook asked the engine to stop — the DSE dominance early-abort path:
    /// the run's partial lower bound is already Pareto-dominated, so
    /// finishing it cannot change the frontier.
    Aborted {
        /// Phase that was cut short.
        phase: &'static str,
        /// Earliest live-PE time when the abort fired (a lower bound on the
        /// makespan the full run would have had).
        frontier: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "invalid configuration: {e}"),
            SimError::Sparse(e) => write!(f, "functional kernel failed: {e}"),
            SimError::AllPesFailed { phase } => {
                write!(f, "{phase} phase: every PE has failed; no survivor to requeue onto")
            }
            SimError::MemoryFailure { phase, addr, attempts } => write!(
                f,
                "{phase} phase: HBM read of {addr:#x} failed after {attempts} delivery attempts"
            ),
            SimError::WatchdogTimeout { phase, frontier, limit } => write!(
                f,
                "{phase} phase: watchdog fired at cycle {frontier} (limit {limit})"
            ),
            SimError::MergeCountOverflow { row, collisions } => write!(
                f,
                "merge phase: row {row} resolves {collisions} collisions, more than a u32 holds"
            ),
            SimError::Aborted { phase, frontier } => write!(
                f,
                "{phase} phase: aborted by observer at cycle {frontier} (dominance early-abort)"
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            SimError::Sparse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<SparseError> for SimError {
    fn from(e: SparseError) -> Self {
        SimError::Sparse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_and_convert() {
        let e: SimError = ConfigError::NoProcessingElements.into();
        assert!(e.to_string().contains("invalid configuration"));
        let e: SimError =
            SparseError::ShapeMismatch { op: "spgemm", left: (2, 3), right: (4, 5) }.into();
        assert!(e.to_string().contains("functional kernel"));
        let e = SimError::MemoryFailure { phase: "multiply", addr: 0x40, attempts: 5 };
        assert!(e.to_string().contains("0x40"), "{e}");
        let e = SimError::WatchdogTimeout { phase: "merge", frontier: 10, limit: 5 };
        assert!(e.to_string().contains("watchdog"));
        let e = SimError::MergeCountOverflow { row: 3, collisions: 1 << 33 };
        assert!(e.to_string().contains("row 3"), "{e}");
        let e = SimError::Aborted { phase: "multiply", frontier: 42 };
        assert!(e.to_string().contains("early-abort"), "{e}");
        assert!(SimError::AllPesFailed { phase: "multiply" }.to_string().contains("every PE"));
    }
}
