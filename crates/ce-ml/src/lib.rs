//! # ce-ml
//!
//! The machine-learning substrate of the CE-scaling reproduction:
//!
//! * [`model`] — the paper's five-model zoo (§IV-A): Logistic Regression,
//!   SVM, MobileNet, ResNet50, BERT-base, each with parameter size and
//!   compute intensity.
//! * [`dataset`] — the four evaluation datasets: Higgs, YFCC100M, Cifar10,
//!   IMDb.
//! * [`hyperparam`] — hyperparameter configurations (learning rate,
//!   momentum, batch size) and the quality surface SHA tuning searches.
//! * [`curve`] — the stochastic loss-convergence process
//!   `σ(e) = c + (σ₀ − c) / (1 + b·e)^p` with seeded multiplicative noise,
//!   which is what the paper's online/offline predictors consume.
//! * [`sgd`] — a *real* mini-batch SGD kernel (logistic regression and
//!   hinge-loss SVM) over synthetic datasets, used to validate that the
//!   curve family matches actual SGD behaviour.
//! * [`synth`] — synthetic dataset generation for the SGD kernel.
//! * [`distributed`] — BSP SGD across `n` workers that really exchange
//!   gradient bytes through a [`ce_storage::SimStore`], validating the
//!   Eq. 3 transfer patterns operation-by-operation.
//!
//! The paper's scheduling algorithms never inspect gradients — they consume
//! the per-epoch loss sequence and the epoch time/cost. The loss-curve
//! process therefore exercises the identical code path as real training,
//! while the SGD kernel keeps the substrate honest (its loss trajectories
//! are fit by the same curve family; see `sgd::tests`).

pub mod curve;
pub mod dataset;
pub mod distributed;
pub mod hyperparam;
pub mod model;
pub mod sgd;
pub mod synth;

pub use curve::{CurveParams, LossCurve};
pub use dataset::DatasetSpec;
pub use hyperparam::{HyperConfig, HyperSpace};
pub use model::{ModelFamily, ModelSpec};
