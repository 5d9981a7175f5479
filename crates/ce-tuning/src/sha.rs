//! Successive Halving (SHA) bracket arithmetic.
//!
//! A bracket starts with `initial_trials` hyperparameter configurations.
//! Every stage trains each surviving trial for `epochs_per_stage` epochs,
//! evaluates, and keeps the best `1/reduction_factor` fraction. The
//! bracket ends when one winner remains after the final stage of
//! `reduction_factor` trials (Fig. 2 shows 32 → 16 → 8 → 4 → 2 over five
//! stages with factor 2; the evaluation uses 16 384 trials over 14
//! stages).

/// An SHA bracket specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShaSpec {
    /// Trials in the first stage (`q_1`); must be a power of the
    /// reduction factor.
    pub initial_trials: u32,
    /// Survivor fraction denominator between stages (usually 2).
    pub reduction_factor: u32,
    /// Epochs each surviving trial trains per stage (`r_i`, constant).
    pub epochs_per_stage: u32,
}

impl ShaSpec {
    /// The evaluation's bracket: 16 384 trials, factor 2, 2 epochs/stage,
    /// 14 stages (§IV-B).
    pub fn paper_default() -> Self {
        ShaSpec::new(16_384, 2, 2)
    }

    /// The motivation example's bracket (Fig. 2/3): 32 trials, factor 2.
    pub fn motivation_example() -> Self {
        ShaSpec::new(32, 2, 2)
    }

    /// Creates a bracket.
    ///
    /// # Panics
    /// Panics where [`ShaSpec::try_new`] returns an error.
    pub fn new(initial_trials: u32, reduction_factor: u32, epochs_per_stage: u32) -> Self {
        Self::try_new(initial_trials, reduction_factor, epochs_per_stage)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a bracket, or says why the sizes do not form one.
    ///
    /// # Errors
    /// Unless `initial_trials` is a power of `reduction_factor` (≥ the
    /// factor itself), the factor is ≥ 2 and `epochs_per_stage` ≥ 1.
    pub fn try_new(
        initial_trials: u32,
        reduction_factor: u32,
        epochs_per_stage: u32,
    ) -> Result<Self, String> {
        if reduction_factor < 2 {
            return Err(format!(
                "reduction factor must be ≥ 2, got {reduction_factor}"
            ));
        }
        if epochs_per_stage == 0 {
            return Err("epochs per stage must be ≥ 1, got 0".into());
        }
        let mut q = initial_trials;
        while q > 1 && q.is_multiple_of(reduction_factor) {
            q /= reduction_factor;
        }
        if initial_trials < reduction_factor || q != 1 {
            return Err(format!(
                "initial trials must be a power of the reduction factor {reduction_factor} \
                 (at least {reduction_factor}), got {initial_trials}"
            ));
        }
        Ok(ShaSpec {
            initial_trials,
            reduction_factor,
            epochs_per_stage,
        })
    }

    /// Number of stages `d` (the bracket stops after evaluating the stage
    /// with `reduction_factor` trials).
    pub fn num_stages(&self) -> usize {
        let mut stages = 0;
        let mut q = self.initial_trials;
        while q >= self.reduction_factor {
            stages += 1;
            q /= self.reduction_factor;
        }
        stages
    }

    /// Trials alive in stage `i` (0-based): `q_{i+1} = q_1 / rf^i`.
    pub fn trials_in_stage(&self, stage: usize) -> u32 {
        assert!(stage < self.num_stages(), "stage {stage} out of range");
        self.initial_trials / self.reduction_factor.pow(stage as u32)
    }

    /// All per-stage trial counts `q_1 .. q_d`.
    pub fn stage_trials(&self) -> Vec<u32> {
        (0..self.num_stages())
            .map(|i| self.trials_in_stage(i))
            .collect()
    }

    /// Survivors after stage `i`: `q_i / rf` (1 after the last stage).
    pub fn survivors_of_stage(&self, stage: usize) -> u32 {
        (self.trials_in_stage(stage) / self.reduction_factor).max(1)
    }

    /// Total trial-epochs across the bracket, `Σ q_i · r_i` — the work a
    /// *static* allocation spreads uniformly.
    pub fn total_trial_epochs(&self) -> u64 {
        self.stage_trials()
            .iter()
            .map(|&q| u64::from(q) * u64::from(self.epochs_per_stage))
            .sum()
    }

    /// Selects the survivor indices after a stage: the `survivors` trials
    /// with the *lowest* observed loss, in stable order.
    pub fn select_survivors(losses: &[f64], survivors: usize) -> Vec<usize> {
        assert!(survivors <= losses.len());
        let mut idx: Vec<usize> = (0..losses.len()).collect();
        idx.sort_by(|&a, &b| losses[a].total_cmp(&losses[b]).then(a.cmp(&b)));
        let mut keep = idx[..survivors].to_vec();
        keep.sort_unstable();
        keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_bracket_has_14_stages() {
        let s = ShaSpec::paper_default();
        assert_eq!(s.num_stages(), 14);
        assert_eq!(s.trials_in_stage(0), 16_384);
        assert_eq!(s.trials_in_stage(13), 2);
    }

    #[test]
    fn motivation_bracket_matches_fig2() {
        let s = ShaSpec::motivation_example();
        assert_eq!(s.num_stages(), 5);
        assert_eq!(s.stage_trials(), vec![32, 16, 8, 4, 2]);
    }

    #[test]
    fn survivors_halve() {
        let s = ShaSpec::motivation_example();
        assert_eq!(s.survivors_of_stage(0), 16);
        assert_eq!(s.survivors_of_stage(4), 1);
    }

    #[test]
    fn total_trial_epochs_sums_stages() {
        let s = ShaSpec::motivation_example();
        // (32+16+8+4+2) × 2 epochs = 124.
        assert_eq!(s.total_trial_epochs(), 124);
    }

    #[test]
    #[should_panic(expected = "power of the reduction factor")]
    fn non_power_rejected() {
        ShaSpec::new(48, 2, 2);
    }

    #[test]
    fn bad_sizes_are_errors() {
        for (q, rf, epochs) in [
            (0, 2, 2),
            (1, 2, 2),
            (3, 2, 2),
            (100, 2, 2),
            (4_000_000_000, 2, 2),
            (4, 1, 2),
            (32, 2, 0),
        ] {
            assert!(
                ShaSpec::try_new(q, rf, epochs).is_err(),
                "{q}/{rf}/{epochs}"
            );
        }
        assert_eq!(
            ShaSpec::try_new(32, 2, 2),
            Ok(ShaSpec::motivation_example())
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn stage_bounds_checked() {
        ShaSpec::motivation_example().trials_in_stage(5);
    }

    #[test]
    fn factor_three_brackets() {
        let s = ShaSpec::new(81, 3, 1);
        assert_eq!(s.num_stages(), 4);
        assert_eq!(s.stage_trials(), vec![81, 27, 9, 3]);
        assert_eq!(s.survivors_of_stage(3), 1);
    }

    #[test]
    fn select_survivors_keeps_lowest_losses() {
        let losses = [0.9, 0.1, 0.5, 0.2, 0.7];
        let keep = ShaSpec::select_survivors(&losses, 2);
        assert_eq!(keep, vec![1, 3]);
    }

    #[test]
    fn select_survivors_ties_are_stable() {
        let losses = [0.5, 0.5, 0.5];
        let keep = ShaSpec::select_survivors(&losses, 2);
        assert_eq!(keep, vec![0, 1]);
    }

    #[test]
    fn select_all_survivors_is_identity() {
        let losses = [0.3, 0.1, 0.2];
        assert_eq!(ShaSpec::select_survivors(&losses, 3), vec![0, 1, 2]);
    }
}
