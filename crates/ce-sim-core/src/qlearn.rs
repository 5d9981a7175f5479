//! Reusable tabular Q-learning.
//!
//! Extracted from `ce-baselines::siren` so that learned policies can be
//! trained anywhere in the workspace (the Siren allocation baseline, the
//! ce-serve `QLearningAutoscaler`) from one audited update rule. The
//! contract is strict determinism: `train` consumes randomness only from
//! the caller-forked [`SimRng`] stream, in a fixed draw order —
//!
//! 1. one call to [`QEnv::reset`] per episode (episode-level draws, e.g.
//!    a stochastic episode length),
//! 2. per step, one `uniform()` for the explore/exploit coin, then
//!    (only when exploring) one `gen_index` for the random action, then
//!    whatever [`QEnv::step`] draws for its own transition noise.
//!
//! The Siren scheduler reproduces its pre-refactor policies bit-for-bit
//! through this loop; `ce-baselines` keeps a verbatim copy of the old
//! inline loop as a differential oracle.

use crate::rng::SimRng;

/// One environment transition, as returned by [`QEnv::step`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QStep {
    /// Reward for the `(state, action)` the learner just took.
    pub reward: f64,
    /// The state the environment moved to. Ignored for bootstrapping
    /// when `done` is set (terminal value is zero by definition).
    pub next_state: usize,
    /// True when this transition ends the episode.
    pub done: bool,
}

/// A finite tabular MDP the learner can practice against.
///
/// States and actions are dense `usize` indices; the environment owns
/// all transition/reward stochasticity and must draw it exclusively
/// from the `rng` argument so that training stays replayable.
pub trait QEnv {
    /// Number of states (rows of the Q-table).
    fn n_states(&self) -> usize;
    /// Number of actions (columns of the Q-table).
    fn n_actions(&self) -> usize;
    /// Starts a fresh episode and returns the initial state. Any
    /// episode-level randomness (length, initial load, ...) must be
    /// drawn here, before the first step's explore coin.
    fn reset(&mut self, rng: &mut SimRng) -> usize;
    /// Takes `action` from `state` and returns the transition.
    fn step(&mut self, state: usize, action: usize, rng: &mut SimRng) -> QStep;
}

/// Exploration-rate schedule for epsilon-greedy action selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EpsilonSchedule {
    /// A constant exploration rate.
    Fixed(f64),
    /// `1 / (1 + episode / decay)` — starts at 1.0 and decays
    /// harmonically; `decay = 40.0` is Siren's schedule.
    Harmonic {
        /// Episodes until the rate halves.
        decay: f64,
    },
}

impl EpsilonSchedule {
    /// The exploration rate for a (zero-based) episode index.
    #[must_use]
    pub fn at(&self, episode: u32) -> f64 {
        match self {
            EpsilonSchedule::Fixed(eps) => *eps,
            EpsilonSchedule::Harmonic { decay } => 1.0 / (1.0 + f64::from(episode) / decay),
        }
    }
}

/// A trained Q-table, serializable so learned policies can be frozen
/// to JSON and replayed byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct QTable {
    /// `q[state][action]` values.
    pub q: Vec<Vec<f64>>,
}

impl QTable {
    /// The greedy action per state (first index wins ties, matching
    /// the in-training bootstrap).
    #[must_use]
    pub fn greedy(&self) -> Vec<usize> {
        self.q.iter().map(|row| argmax(row)).collect()
    }

    /// Number of states.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.q.len()
    }

    /// Number of actions.
    #[must_use]
    pub fn n_actions(&self) -> usize {
        self.q.first().map_or(0, Vec::len)
    }
}

/// Tabular epsilon-greedy Q-learning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QLearner {
    /// Learning rate.
    pub alpha: f64,
    /// Discount factor.
    pub gamma: f64,
    /// Training episodes.
    pub episodes: u32,
    /// Exploration schedule.
    pub epsilon: EpsilonSchedule,
}

impl QLearner {
    /// Trains a Q-table against `env`, drawing all randomness from
    /// `rng` in the documented order. Same env + same rng stream ⇒
    /// bit-identical table.
    pub fn train<E: QEnv>(&self, env: &mut E, rng: &mut SimRng) -> QTable {
        let n_actions = env.n_actions();
        let mut q = vec![vec![0.0f64; n_actions]; env.n_states()];
        for episode in 0..self.episodes {
            let eps = self.epsilon.at(episode);
            let mut state = env.reset(rng);
            loop {
                let action = if rng.uniform() < eps {
                    rng.gen_index(n_actions)
                } else {
                    argmax(&q[state])
                };
                let step = env.step(state, action, rng);
                let future = if step.done {
                    0.0
                } else {
                    q[step.next_state][argmax(&q[step.next_state])]
                };
                q[state][action] +=
                    self.alpha * (step.reward + self.gamma * future - q[state][action]);
                if step.done {
                    break;
                }
                state = step.next_state;
            }
        }
        QTable { q }
    }
}

/// Index of the row maximum; the first index wins ties (strict `>`),
/// which keeps greedy extraction stable across refactors.
#[must_use]
pub fn argmax(row: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny deterministic chain MDP: 3 states, 2 actions; action 1
    /// pays +1 and advances, action 0 pays -1 and advances.
    struct Chain {
        state: usize,
    }

    impl QEnv for Chain {
        fn n_states(&self) -> usize {
            3
        }
        fn n_actions(&self) -> usize {
            2
        }
        fn reset(&mut self, _rng: &mut SimRng) -> usize {
            self.state = 0;
            0
        }
        fn step(&mut self, _state: usize, action: usize, _rng: &mut SimRng) -> QStep {
            self.state += 1;
            QStep {
                reward: if action == 1 { 1.0 } else { -1.0 },
                next_state: self.state.min(2),
                done: self.state >= 3,
            }
        }
    }

    #[test]
    fn learns_the_rewarding_action_on_a_chain() {
        let learner = QLearner {
            alpha: 0.5,
            gamma: 0.9,
            episodes: 200,
            epsilon: EpsilonSchedule::Harmonic { decay: 40.0 },
        };
        let mut env = Chain { state: 0 };
        let mut rng = SimRng::new(7).derive("qlearn-test");
        let table = learner.train(&mut env, &mut rng);
        assert_eq!(table.greedy(), vec![1, 1, 1]);
    }

    #[test]
    fn training_is_deterministic_per_stream() {
        let learner = QLearner {
            alpha: 0.1,
            gamma: 0.95,
            episodes: 100,
            epsilon: EpsilonSchedule::Fixed(0.2),
        };
        let run = || {
            let mut env = Chain { state: 0 };
            let mut rng = SimRng::new(42).derive("qlearn-test");
            learner.train(&mut env, &mut rng)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn greedy_prefers_the_first_action_on_ties() {
        let table = QTable {
            q: vec![vec![0.5, -1.25], vec![2.0, 2.0]],
        };
        // Tie in row 1: first index wins.
        assert_eq!(table.greedy(), vec![0, 0]);
    }

    #[test]
    fn harmonic_schedule_matches_sirens_expression() {
        let sched = EpsilonSchedule::Harmonic { decay: 40.0 };
        for episode in [0_u32, 1, 40, 399] {
            assert_eq!(sched.at(episode), 1.0 / (1.0 + f64::from(episode) / 40.0));
        }
        assert_eq!(EpsilonSchedule::Fixed(0.3).at(123), 0.3);
    }

    #[test]
    fn argmax_prefers_the_first_index_on_ties() {
        assert_eq!(argmax(&[1.0, 1.0, 1.0]), 0);
        assert_eq!(argmax(&[0.0, 3.0, 3.0]), 1);
        assert_eq!(argmax(&[-2.0]), 0);
    }
}
