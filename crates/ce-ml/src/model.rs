//! The model zoo of §IV-A.
//!
//! Each [`ModelSpec`] carries what the analytical models need: the model
//! (parameter blob) size `M` exchanged at every synchronization, and the
//! compute intensity `u` — seconds to process 1 MB of training data on one
//! full vCPU (1769 MB of Lambda memory) — plus an Amdahl parallel fraction
//! describing how well gradient computation uses memory beyond one vCPU.

use std::fmt;

/// The five model families evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelFamily {
    /// Linear classifier; parameter count equals the input feature count.
    LogisticRegression,
    /// Linear SVM with hinge loss; model size "several KB".
    Svm,
    /// MobileNet: lightweight CNN, 12 MB of parameters.
    MobileNet,
    /// ResNet50: 89 MB of parameters.
    ResNet50,
    /// BERT-base: 340 MB of parameters.
    BertBase,
}

impl fmt::Display for ModelFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ModelFamily::LogisticRegression => "LR",
            ModelFamily::Svm => "SVM",
            ModelFamily::MobileNet => "MobileNet",
            ModelFamily::ResNet50 => "ResNet50",
            ModelFamily::BertBase => "BERT-base",
        };
        f.write_str(s)
    }
}

/// A concrete model to train.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Which family this model belongs to.
    pub family: ModelFamily,
    /// Size `M` of the parameter blob exchanged at synchronization, in MB.
    pub model_mb: f64,
    /// Seconds to process 1 MB of training data on exactly one vCPU
    /// (`u(m)` of Eq. 2 evaluated at m = 1769 MB).
    pub compute_s_per_mb: f64,
    /// Amdahl parallel fraction of gradient computation: how much of the
    /// work can use vCPUs beyond the first when memory exceeds 1769 MB.
    pub parallel_fraction: f64,
}

impl ModelSpec {
    /// Logistic regression sized for the Higgs dataset (28 features;
    /// parameter count equals feature count, so the blob is tiny).
    pub fn logistic_regression() -> Self {
        ModelSpec {
            family: ModelFamily::LogisticRegression,
            model_mb: 28.0 * 4.0 / (1024.0 * 1024.0),
            compute_s_per_mb: 0.5,
            parallel_fraction: 0.70,
        }
    }

    /// Logistic regression sized for YFCC100M's 4096-dimension features.
    pub fn logistic_regression_yfcc() -> Self {
        ModelSpec {
            model_mb: 4096.0 * 4.0 / (1024.0 * 1024.0),
            ..ModelSpec::logistic_regression()
        }
    }

    /// Linear SVM ("several KB" of parameters — we use 4 KB).
    pub fn svm() -> Self {
        ModelSpec {
            family: ModelFamily::Svm,
            model_mb: 4.0 / 1024.0,
            compute_s_per_mb: 0.45,
            parallel_fraction: 0.70,
        }
    }

    /// Linear SVM sized for YFCC100M features.
    pub fn svm_yfcc() -> Self {
        ModelSpec {
            model_mb: 4096.0 * 4.0 / (1024.0 * 1024.0),
            ..ModelSpec::svm()
        }
    }

    /// MobileNet: 12 MB of parameters (paper §IV-A).
    pub fn mobilenet() -> Self {
        ModelSpec {
            family: ModelFamily::MobileNet,
            model_mb: 12.0,
            compute_s_per_mb: 60.0,
            parallel_fraction: 0.93,
        }
    }

    /// ResNet50: 89 MB of parameters.
    pub fn resnet50() -> Self {
        ModelSpec {
            family: ModelFamily::ResNet50,
            model_mb: 89.0,
            compute_s_per_mb: 400.0,
            parallel_fraction: 0.95,
        }
    }

    /// BERT-base: 340 MB of parameters.
    pub fn bert_base() -> Self {
        ModelSpec {
            family: ModelFamily::BertBase,
            model_mb: 340.0,
            compute_s_per_mb: 12_000.0,
            parallel_fraction: 0.96,
        }
    }

    /// All five paper models (with LR/SVM in their Higgs sizing).
    pub fn paper_zoo() -> Vec<ModelSpec> {
        vec![
            ModelSpec::logistic_regression(),
            ModelSpec::svm(),
            ModelSpec::mobilenet(),
            ModelSpec::resnet50(),
            ModelSpec::bert_base(),
        ]
    }

    /// Short display name (matches the paper's figure labels).
    pub fn name(&self) -> String {
        self.family.to_string()
    }

    /// Minimum Lambda memory (MB) a worker needs: space for the runtime,
    /// the model (held twice during aggregation), and a working set.
    pub fn min_memory_mb(&self) -> u32 {
        let need = 192.0 + 2.5 * self.model_mb;
        // Round up to the next 64 MB step (Lambda allocates in 1 MB steps,
        // but we keep the search space coarse).
        ((need / 64.0).ceil() * 64.0) as u32
    }

    /// Effective vCPU share at `memory_mb` of Lambda memory.
    ///
    /// Lambda grants CPU linearly with memory: 1 vCPU at 1769 MB, up to 6
    /// vCPUs at 10240 MB (§III-B3 quotes these limits).
    pub fn vcpu_share(memory_mb: u32) -> f64 {
        (f64::from(memory_mb) / 1769.0).min(6.0)
    }

    /// Seconds to process 1 MB of training data at `memory_mb` of memory —
    /// the `u(m)` term of Eq. 2.
    ///
    /// Below one vCPU the speed scales linearly with the share; above one
    /// vCPU, Amdahl's law with this model's parallel fraction governs the
    /// gain from additional cores.
    pub fn compute_time_per_mb(&self, memory_mb: u32) -> f64 {
        let share = Self::vcpu_share(memory_mb);
        let speedup = if share <= 1.0 {
            share
        } else {
            let f = self.parallel_fraction;
            1.0 / ((1.0 - f) + f / share)
        };
        self.compute_s_per_mb / speedup
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_sizes() {
        assert!((ModelSpec::mobilenet().model_mb - 12.0).abs() < 1e-9);
        assert!((ModelSpec::resnet50().model_mb - 89.0).abs() < 1e-9);
        assert!((ModelSpec::bert_base().model_mb - 340.0).abs() < 1e-9);
        // LR-Higgs parameters: 28 features -> ~112 bytes.
        assert!(ModelSpec::logistic_regression().model_mb < 0.001);
        // SVM: several KB.
        assert!(ModelSpec::svm().model_mb < 0.01);
    }

    #[test]
    fn lr_higgs_fits_dynamodb_but_mobilenet_does_not() {
        // Table II: DynamoDB works for LR (model < 400 KB), N/A for
        // MobileNet.
        assert!(ModelSpec::logistic_regression().model_mb < 0.4);
        assert!(ModelSpec::logistic_regression_yfcc().model_mb < 0.4);
        assert!(ModelSpec::mobilenet().model_mb > 0.4);
    }

    #[test]
    fn vcpu_share_matches_lambda() {
        assert!((ModelSpec::vcpu_share(1769) - 1.0).abs() < 1e-12);
        assert!((ModelSpec::vcpu_share(3538) - 2.0).abs() < 1e-12);
        // Capped at 6 vCPUs.
        assert!((ModelSpec::vcpu_share(20000) - 6.0).abs() < 1e-12);
        assert!(ModelSpec::vcpu_share(884) < 0.51);
    }

    #[test]
    fn compute_time_decreases_with_memory() {
        let m = ModelSpec::mobilenet();
        let t_512 = m.compute_time_per_mb(512);
        let t_1769 = m.compute_time_per_mb(1769);
        let t_3538 = m.compute_time_per_mb(3538);
        let t_10240 = m.compute_time_per_mb(10240);
        assert!(t_512 > t_1769);
        assert!(t_1769 > t_3538);
        assert!(t_3538 > t_10240);
    }

    #[test]
    fn compute_time_at_one_vcpu_is_base() {
        let m = ModelSpec::resnet50();
        assert!((m.compute_time_per_mb(1769) - m.compute_s_per_mb).abs() < 1e-9);
    }

    #[test]
    fn amdahl_limits_multicore_gain() {
        // Beyond one vCPU the gain must be sub-linear.
        let m = ModelSpec::logistic_regression(); // parallel fraction 0.7
        let t1 = m.compute_time_per_mb(1769);
        let t2 = m.compute_time_per_mb(3538);
        let speedup = t1 / t2;
        assert!(speedup > 1.0 && speedup < 2.0, "speedup {speedup}");
        // With f = 0.7, 2 cores give 1/(0.3 + 0.35) ≈ 1.54.
        assert!((speedup - 1.538).abs() < 0.01);
    }

    #[test]
    fn min_memory_scales_with_model() {
        let lr = ModelSpec::logistic_regression().min_memory_mb();
        let bert = ModelSpec::bert_base().min_memory_mb();
        assert!(lr <= 256);
        assert!(bert >= 1024, "BERT needs room for its 340 MB blob");
        assert!(bert > lr);
        // Multiples of 64.
        assert_eq!(lr % 64, 0);
        assert_eq!(bert % 64, 0);
    }

    #[test]
    fn zoo_contains_all_families() {
        let zoo = ModelSpec::paper_zoo();
        assert_eq!(zoo.len(), 5);
        let names: Vec<String> = zoo.iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec!["LR", "SVM", "MobileNet", "ResNet50", "BERT-base"]
        );
    }

    #[test]
    fn compute_intensity_ordering() {
        // Heavier models cost more per MB of data.
        let zoo = ModelSpec::paper_zoo();
        let lr = &zoo[0];
        let bert = &zoo[4];
        assert!(bert.compute_s_per_mb > 100.0 * lr.compute_s_per_mb);
    }
}
