//! # ce-sim-core
//!
//! Deterministic discrete-event simulation primitives shared by every crate
//! in the CE-scaling reproduction:
//!
//! * [`time`] — simulated wall-clock time ([`time::SimTime`]) measured in
//!   seconds, with exact ordering semantics.
//! * [`rng`] — a seedable, splittable PRNG ([`rng::SimRng`]) so that every
//!   experiment is reproducible from a single `u64` seed, plus the normal /
//!   lognormal samplers used to model runtime jitter.
//! * [`event`] — a time-ordered event queue ([`event::EventQueue`]) with
//!   FIFO tie-breaking, the core of the platform simulator.
//! * [`qlearn`] — reusable tabular Q-learning ([`qlearn::QLearner`]) with a
//!   strict draw-order contract, shared by the Siren baseline and the
//!   ce-serve learned autoscaler.
//!
//! The engine is intentionally free of `std::time` and OS randomness: given
//! the same seed the entire workspace produces bit-identical results, which
//! the integration tests assert.
//!
//! ```
//! use ce_sim_core::{EventQueue, SimRng, SimTime};
//!
//! // Deterministic, label-split randomness.
//! let mut compute = SimRng::new(42).derive("compute");
//! let jitter = compute.lognormal_jitter(0.05);
//! assert!(jitter > 0.5 && jitter < 2.0);
//!
//! // Time-ordered event delivery with FIFO ties.
//! let mut queue = EventQueue::new();
//! queue.schedule_at(SimTime::from_secs(2.0), "barrier");
//! queue.schedule_at(SimTime::from_secs(1.0), "gradient");
//! let (at, event) = queue.pop().unwrap();
//! assert_eq!((at.as_secs(), event), (1.0, "gradient"));
//! ```

pub mod event;
pub mod names;
pub mod qlearn;
pub mod rng;
pub mod time;

pub use event::EventQueue;
pub use names::{unknown_name_msg, SpecError};
pub use qlearn::{EpsilonSchedule, QEnv, QLearner, QStep, QTable};
pub use rng::SimRng;
pub use time::SimTime;
