//! A workload: the (model, dataset, batch size) triple every per-epoch
//! estimate is computed for.

use ce_ml::{DatasetSpec, ModelSpec};

/// One training workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// The model to train.
    pub model: ModelSpec,
    /// The dataset to train on.
    pub dataset: DatasetSpec,
    /// Mini-batch size `b_z` (instances).
    pub batch: u32,
}

impl Workload {
    /// Builds a workload using the dataset's Table IV default batch size.
    pub fn new(model: ModelSpec, dataset: DatasetSpec) -> Self {
        let batch = dataset.default_batch;
        Workload {
            model,
            dataset,
            batch,
        }
    }

    /// Overrides the batch size.
    pub fn with_batch(mut self, batch: u32) -> Self {
        assert!(batch > 0);
        self.batch = batch;
        self
    }

    /// The Table IV workload matrix used across the evaluation figures.
    pub fn paper_matrix() -> Vec<Workload> {
        vec![
            Workload::lr_higgs(),
            Workload::svm_higgs(),
            Workload::mobilenet_cifar10(),
            Workload::resnet50_cifar10(),
            Workload::bert_imdb(),
        ]
    }

    /// The workload a model name and optional dataset name spell
    /// (`lr`, `svm`, `mobilenet`, `resnet50`, `bert`; `higgs`, `yfcc`,
    /// `cifar10`, `imdb`). A missing dataset is the model's paper
    /// pairing.
    ///
    /// # Errors
    /// Names the pair when no workload matches.
    pub fn by_name(model: &str, dataset: Option<&str>) -> Result<Workload, String> {
        Ok(match (model, dataset) {
            ("lr", None | Some("higgs")) => Workload::lr_higgs(),
            ("lr", Some("yfcc")) => Workload::lr_yfcc(),
            ("svm", None | Some("higgs")) => Workload::svm_higgs(),
            ("svm", Some("yfcc")) => Workload::svm_yfcc(),
            ("mobilenet", None | Some("cifar10")) => Workload::mobilenet_cifar10(),
            ("resnet50", None | Some("cifar10")) => Workload::resnet50_cifar10(),
            ("bert", None | Some("imdb")) => Workload::bert_imdb(),
            (m, d) => return Err(format!("unsupported model/dataset combination: {m}/{d:?}")),
        })
    }

    /// LR over Higgs (batch 10 k).
    pub fn lr_higgs() -> Self {
        Workload::new(ModelSpec::logistic_regression(), DatasetSpec::higgs())
    }

    /// SVM over Higgs (batch 10 k).
    pub fn svm_higgs() -> Self {
        Workload::new(ModelSpec::svm(), DatasetSpec::higgs())
    }

    /// LR over the YFCC subset (batch 800).
    pub fn lr_yfcc() -> Self {
        Workload::new(ModelSpec::logistic_regression_yfcc(), DatasetSpec::yfcc())
    }

    /// SVM over the YFCC subset (batch 800).
    pub fn svm_yfcc() -> Self {
        Workload::new(ModelSpec::svm_yfcc(), DatasetSpec::yfcc())
    }

    /// MobileNet over Cifar10 (batch 128).
    pub fn mobilenet_cifar10() -> Self {
        Workload::new(ModelSpec::mobilenet(), DatasetSpec::cifar10())
    }

    /// ResNet50 over Cifar10 (batch 32).
    pub fn resnet50_cifar10() -> Self {
        Workload::new(ModelSpec::resnet50(), DatasetSpec::cifar10()).with_batch(32)
    }

    /// BERT-base over IMDb (batch 32).
    pub fn bert_imdb() -> Self {
        Workload::new(ModelSpec::bert_base(), DatasetSpec::imdb())
    }

    /// Display label like "LR-Higgs" used in the paper's figures.
    pub fn label(&self) -> String {
        format!("{}-{}", self.model.name(), self.dataset.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_matrix_matches_table4() {
        let m = Workload::paper_matrix();
        assert_eq!(m.len(), 5);
        let labels: Vec<String> = m.iter().map(|w| w.label()).collect();
        assert_eq!(
            labels,
            vec![
                "LR-Higgs",
                "SVM-Higgs",
                "MobileNet-Cifar10",
                "ResNet50-Cifar10",
                "BERT-base-IMDb"
            ]
        );
        assert_eq!(m[0].batch, 10_000);
        assert_eq!(m[2].batch, 128);
        assert_eq!(m[3].batch, 32); // ResNet50 overrides Cifar10's default
        assert_eq!(m[4].batch, 32);
    }

    #[test]
    fn names_spell_the_paper_pairings() {
        assert_eq!(Workload::by_name("lr", None), Ok(Workload::lr_higgs()));
        assert_eq!(
            Workload::by_name("svm", Some("yfcc")),
            Ok(Workload::svm_yfcc())
        );
        let err = Workload::by_name("lr", Some("mnist")).unwrap_err();
        assert!(err.contains("unsupported model/dataset"), "{err}");
    }

    #[test]
    fn with_batch_overrides() {
        let w = Workload::lr_higgs().with_batch(500);
        assert_eq!(w.batch, 500);
    }

    #[test]
    #[should_panic]
    fn zero_batch_rejected() {
        Workload::lr_higgs().with_batch(0);
    }
}
