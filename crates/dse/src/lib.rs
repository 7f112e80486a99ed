//! Design-space exploration (DSE) for the OuterSPACE simulator.
//!
//! The paper reports one design point — Table 2's 16×16-PE, 16-channel HBM
//! chip — but nearly every argument in it (the reconfigurable cache, the
//! α-allocation policy, the §8 scaling projections) is really a claim about
//! the *neighbourhood* of that point. This crate makes the neighbourhood
//! first-class:
//!
//! * [`spec`] — declarative parameter spaces: grid, log-grid, and seeded
//!   random sampling over [`OuterSpaceConfig`](outerspace_sim::OuterSpaceConfig)
//!   knobs ([`knobs`]), crossed with workload axes from `outerspace-gen`
//!   and an optional allocation-α axis. Three spaces ship built in: the CI
//!   `smoke` grid, the §7.3 `sec73_alpha` sweep, and the §8 `sec8_scaling`
//!   study.
//! * [`executor`] — a work-stealing parallel sweep over the expanded
//!   points; each point runs through the sweep's evaluation tier and is
//!   priced by the Table 6 area/power model.
//! * [`tiers`] — tiered fast-path evaluation: full-fidelity simulation and
//!   sampled-window interval estimation with validated error bars, plus the
//!   dominance early-abort that kills Pareto-dominated points mid-flight
//!   (explicitly counted, never silent).
//! * [`cache`] — content-addressed memoization keyed on (code-version salt,
//!   evaluation tier, canonical config, workload manifest, α): re-runs only
//!   simulate points whose inputs changed, a crash mid-sweep costs at most
//!   one point, and a fast-path estimate can never alias a full result.
//! * [`pareto`] — the Pareto frontier over {cycles, power, area}, per-knob
//!   ln–ln sensitivity slopes, and the best config per workload.
//!
//! Everything downstream of the RNG seed is deterministic, and reports are
//! emitted in fixed field order — two runs of the same spec and seed produce
//! byte-identical Pareto files, which CI asserts. The `dse` binary in
//! `outerspace-bench` drives this crate from the command line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod executor;
pub mod knobs;
pub mod pareto;
pub mod spec;
pub mod tiers;

pub use cache::SimCache;
pub use executor::{run_sweep, run_sweep_opts, PointOutcome, SweepResult};
pub use pareto::{analyze, DefaultStatus, ParetoReport};
pub use spec::{Axis, AxisKind, DsePoint, SpaceSpec, WorkloadSpec};
pub use tiers::{
    validate_interval, EvalTier, FrontierTracker, SweepOptions, TierValidation,
    ValidationSample,
};
