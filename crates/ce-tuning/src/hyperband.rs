//! Hyperband bracket generation.
//!
//! Hyperband hedges SHA's fixed trade-off between the number of trials
//! and the epochs each gets by running several SHA brackets in sequence:
//! bracket `s = s_max … 0` starts `n_s = ⌈(s_max+1)/(s+1)⌉ · η^s` trials
//! with `r_s = R / η^s` epochs per stage. Every bracket is an ordinary
//! [`ShaSpec`], so CE-scaling's greedy planner partitions each bracket's
//! resources unchanged — which is exactly the paper's "can be applied to
//! them" claim for SHA-family tuners.

use crate::sha::ShaSpec;

/// A Hyperband configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HyperbandSpec {
    /// Maximum epochs a single trial may receive across a bracket (`R`).
    pub max_epochs_per_trial: u32,
    /// Reduction factor `η` (usually 3 for Hyperband, 2 here to match
    /// the paper's SHA setting).
    pub eta: u32,
}

impl HyperbandSpec {
    /// Creates a spec.
    ///
    /// # Panics
    /// Panics if `eta < 2` or `max_epochs_per_trial < eta`.
    pub fn new(max_epochs_per_trial: u32, eta: u32) -> Self {
        assert!(eta >= 2);
        assert!(max_epochs_per_trial >= eta);
        HyperbandSpec {
            max_epochs_per_trial,
            eta,
        }
    }

    /// `s_max = ⌊log_η R⌋`: the most aggressive bracket index.
    pub fn s_max(&self) -> u32 {
        let mut s = 0;
        let mut v = self.max_epochs_per_trial;
        while v >= self.eta {
            v /= self.eta;
            s += 1;
        }
        s
    }

    /// Generates the bracket ladder, most exploratory first. Each
    /// bracket is an [`ShaSpec`] whose initial trial count is the
    /// largest power of `η` not exceeding Hyperband's `n_s` (our
    /// [`ShaSpec`] requires power-of-η trial counts) and whose
    /// epochs-per-stage is `max(1, R / η^s)`.
    pub fn brackets(&self) -> Vec<ShaSpec> {
        let s_max = self.s_max();
        let mut out = Vec::with_capacity(s_max as usize + 1);
        for s in (0..=s_max).rev() {
            let n_s = ((s_max + 1) as f64 / (s + 1) as f64).ceil() as u32 * self.eta.pow(s);
            let trials = largest_power_at_most(self.eta, n_s).max(self.eta);
            let epochs = (self.max_epochs_per_trial / self.eta.pow(s)).max(1);
            out.push(ShaSpec::new(trials, self.eta, epochs));
        }
        out
    }

    /// Total trial-epochs across all brackets (the work a scheduler must
    /// budget for).
    pub fn total_trial_epochs(&self) -> u64 {
        self.brackets().iter().map(|b| b.total_trial_epochs()).sum()
    }
}

fn largest_power_at_most(base: u32, x: u32) -> u32 {
    let mut p = 1u32;
    while p.saturating_mul(base) <= x {
        p *= base;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s_max_is_floor_log() {
        assert_eq!(HyperbandSpec::new(16, 2).s_max(), 4);
        assert_eq!(HyperbandSpec::new(27, 3).s_max(), 3);
        assert_eq!(HyperbandSpec::new(17, 2).s_max(), 4);
    }

    #[test]
    fn bracket_ladder_shape() {
        let hb = HyperbandSpec::new(16, 2);
        let brackets = hb.brackets();
        assert_eq!(brackets.len(), 5);
        // Most exploratory bracket first: many trials, few epochs/stage.
        assert!(brackets[0].initial_trials > brackets.last().unwrap().initial_trials);
        assert!(brackets[0].epochs_per_stage <= brackets.last().unwrap().epochs_per_stage);
        // Every bracket is a valid power-of-η SHA spec (ShaSpec::new
        // would have panicked otherwise).
        for b in &brackets {
            assert!(b.initial_trials >= 2);
            assert!(b.epochs_per_stage >= 1);
        }
    }

    #[test]
    fn trial_counts_are_powers_of_eta() {
        for eta in [2u32, 3] {
            let hb = HyperbandSpec::new(eta.pow(3), eta);
            for b in hb.brackets() {
                let mut q = b.initial_trials;
                while q > 1 {
                    assert_eq!(q % eta, 0, "{q} not a power of {eta}");
                    q /= eta;
                }
            }
        }
    }

    #[test]
    fn exploratory_bracket_dominates_work() {
        let hb = HyperbandSpec::new(16, 2);
        let brackets = hb.brackets();
        let works: Vec<u64> = brackets.iter().map(|b| b.total_trial_epochs()).collect();
        // Work per bracket is roughly balanced (that is Hyperband's
        // design); no bracket does more than half the total.
        let total: u64 = works.iter().sum();
        assert_eq!(total, hb.total_trial_epochs());
        for w in works {
            assert!(w * 2 <= total + w, "bracket work {w} of {total}");
        }
    }

    #[test]
    #[should_panic]
    fn eta_one_rejected() {
        HyperbandSpec::new(8, 1);
    }
}
