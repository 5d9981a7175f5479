//! # ce-pareto
//!
//! The Pareto-boundary profiler of §III-B3.
//!
//! The allocation space `Θ = N × M × S` is large (the paper quotes up to
//! 10 240 memory sizes × 3000 concurrency × hundreds of storage builds);
//! searching it during planning is what makes naive schedulers take
//! minutes. CE-scaling evaluates the analytical models over the whole
//! grid **once**, keeps only the allocations on the Pareto boundary of the
//! (epoch time, epoch cost) plane, and lets every later optimization —
//! the greedy tuning planner and the adaptive training scheduler — search
//! only that boundary. Fig. 21 measures the resulting overhead reduction
//! (−69 % for tuning, −64 % for training).
//!
//! The sweep is one sequential pass over the grid.
//!
//! ```
//! use ce_models::{Environment, Workload};
//! use ce_pareto::ParetoProfiler;
//!
//! let env = Environment::aws_default();
//! let profile = ParetoProfiler::new(&env).profile_workload(&Workload::lr_higgs());
//! // The boundary is a small subset of the grid...
//! assert!(profile.boundary().len() * 5 < profile.points().len());
//! // ...sorted fastest-first, cost strictly decreasing along it.
//! let boundary = profile.boundary();
//! assert!(boundary.windows(2).all(|w| w[0].time_s() < w[1].time_s()
//!     && w[0].cost_usd() > w[1].cost_usd()));
//! ```

pub mod profile;
pub mod profiler;

pub use profile::{AllocPoint, Profile};
pub use profiler::ParetoProfiler;

/// Strict Pareto dominance in (time, cost): `a` dominates `b` when `a` is
/// no worse in both dimensions and strictly better in at least one.
pub fn dominates(a_time: f64, a_cost: f64, b_time: f64, b_cost: f64) -> bool {
    (a_time <= b_time && a_cost <= b_cost) && (a_time < b_time || a_cost < b_cost)
}

#[cfg(test)]
mod tests {
    use super::dominates;

    #[test]
    fn strict_dominance() {
        assert!(dominates(1.0, 1.0, 2.0, 2.0));
        assert!(dominates(1.0, 2.0, 2.0, 2.0));
        assert!(dominates(2.0, 1.0, 2.0, 2.0));
    }

    #[test]
    fn equal_points_do_not_dominate() {
        assert!(!dominates(1.0, 1.0, 1.0, 1.0));
    }

    #[test]
    fn trade_offs_do_not_dominate() {
        assert!(!dominates(1.0, 3.0, 2.0, 2.0));
        assert!(!dominates(3.0, 1.0, 2.0, 2.0));
    }
}
