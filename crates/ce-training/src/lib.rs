//! # ce-training
//!
//! Adaptive resource allocation for model training (§III-D):
//!
//! * [`fitter`] — [`fitter::LossCurveFitter`], the online loss-curve
//!   fitter: least-squares fit of the inverse-power family
//!   `σ(e) = c + (σ₀ − c)/(1 + b·e)` to the observed loss history, the
//!   same family Optimus-style online predictors use.
//! * [`predict`] — the two epoch predictors of Fig. 4: the
//!   *offline* sampling-based predictor (LambdaML-style pre-training on a
//!   sample, ~40 % error) and the *online* predictor (fit the actual run,
//!   error falling to ~5 % as epochs accumulate).
//! * [`scheduler`] — [`scheduler::AdaptiveScheduler`], Algorithm 2: start
//!   from the offline estimate, refit after every epoch, and when the
//!   predicted remaining-epoch count drifts by more than `δ` re-select
//!   the best allocation from the Pareto boundary under the remaining
//!   budget (or QoS slack), hiding the switch with the delayed restart of
//!   Fig. 8.

//! ```
//! use ce_training::{FittedCurve, LossCurveFitter};
//!
//! // Fit a noiseless inverse-power history and invert it.
//! let history: Vec<f64> = (1..=20)
//!     .map(|e| 0.2 + (2.3 - 0.2) / (1.0 + 0.8 * e as f64))
//!     .collect();
//! let fit: FittedCurve = LossCurveFitter::new(2.3).fit(&history).unwrap();
//! let epochs = fit.epochs_to(0.4).unwrap();
//! assert!((fit.loss_at(epochs) - 0.4).abs() < 1e-2);
//! ```

pub mod fitter;
pub mod predict;
pub mod scheduler;

pub use fitter::{FittedCurve, LossCurveFitter};
pub use predict::{OfflinePredictor, OnlinePredictor};
pub use scheduler::{AdaptiveScheduler, Decision, SchedulerConfig, TrainingObjective};
