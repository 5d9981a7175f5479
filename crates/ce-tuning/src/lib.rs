//! # ce-tuning
//!
//! Hyperparameter tuning: the Successive Halving (SHA) engine of §II-A
//! and CE-scaling's smart resource partitioning (§III-C, Algorithm 1).
//!
//! * [`sha`] — SHA bracket arithmetic: stages, trial counts, survivor
//!   selection with a reduction factor.
//! * [`plan`] — [`plan::PartitionPlan`]: one allocation per stage, with
//!   the Eq. 7/11 objective values `T^h(a)` (stage-sequential JCT,
//!   including concurrency-limited trial waves) and `C^h(a)` (total cost
//!   over all trials).
//! * [`planner`] — [`planner::GreedyPlanner`], the iterative greedy
//!   heuristic of Algorithm 1: warm-start from the optimal *static*
//!   allocation, recycle resources from early stages (most of whose
//!   trials SHA will terminate), reallocate them to later stages, and
//!   stop when the marginal JCT benefit drops below `δ` or the constraint
//!   binds. Both objectives are supported: minimize JCT under a budget
//!   (Eq. 7–9) and minimize cost under a QoS constraint (Eq. 11–12).
//!
//! The planner searches only the Pareto boundary `P` from `ce-pareto`;
//! the `CandidateSet::FullSpace` ablation (Fig. 21a's WO-pa) searches the
//! raw grid instead.
//!
//! ```
//! use ce_models::{Environment, Workload};
//! use ce_pareto::ParetoProfiler;
//! use ce_tuning::{GreedyPlanner, Objective, PartitionPlan, ShaSpec};
//!
//! let env = Environment::aws_default();
//! let profile = ParetoProfiler::new(&env).profile_workload(&Workload::lr_higgs());
//! let sha = ShaSpec::new(64, 2, 2);
//! let budget = PartitionPlan::uniform(*profile.cheapest().unwrap(), sha).cost() * 2.0;
//! let planner = GreedyPlanner::new(&profile, sha, env.max_concurrency);
//! let (plan, static_plan, _) = planner
//!     .plan(Objective::MinJctGivenBudget { budget, qos_s: None })
//!     .unwrap();
//! // Never worse than the optimal static plan, never over budget.
//! assert!(plan.jct(env.max_concurrency) <= static_plan.jct(env.max_concurrency));
//! assert!(plan.cost() <= budget);
//! ```

pub mod plan;
pub mod planner;
pub mod sha;

pub use plan::PartitionPlan;
pub use planner::{CandidateSet, GreedyPlanner, Objective, PlannerConfig, PlannerStats};
pub use sha::ShaSpec;
