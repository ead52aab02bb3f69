//! The end-to-end anomaly detector: ensemble + compiled engine +
//! threshold.

use crate::model::{CrossFeatureModel, ScoreMethod};
use crate::parallel::{map_chunks, Parallelism};
use crate::threshold::select_threshold;
use cfa_ml::compiled::CompiledEnsemble;
use cfa_ml::{AnyModel, Learner, NominalTable};

/// Classification outcome for one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The event's score reached the threshold.
    Normal,
    /// The event's score fell below the threshold.
    Anomaly,
}

/// A trained cross-feature anomaly detector.
///
/// Combines a [`CrossFeatureModel`] with its [`CompiledEnsemble`] and a
/// decision threshold chosen from the training scores at a target
/// false-alarm rate (the paper's "confidence level" is one minus that
/// rate). The engine is lowered once, when the detector is built, and
/// every score comes from it. The interpreted ensemble
/// ([`AnomalyDetector::model`]) is the training output, what persistence
/// writes, and the oracle the equivalence tests hold the engine to.
#[derive(Debug, Clone)]
pub struct AnomalyDetector<M = AnyModel> {
    model: CrossFeatureModel<M>,
    engine: CompiledEnsemble,
    method: ScoreMethod,
    threshold: f64,
}

impl AnomalyDetector<AnyModel> {
    /// Trains the ensemble on `normal` (Algorithm 1) and fixes the
    /// threshold so that at most `false_alarm_rate` of the normal training
    /// events would be flagged.
    ///
    /// # Panics
    ///
    /// Panics on an empty table, fewer than two feature columns, or a
    /// false-alarm rate outside `[0, 1)`.
    pub fn fit<L>(
        learner: &L,
        normal: &NominalTable,
        method: ScoreMethod,
        false_alarm_rate: f64,
    ) -> AnomalyDetector<AnyModel>
    where
        L: Learner<Model = AnyModel> + Sync,
    {
        Self::fit_with(
            learner,
            normal,
            method,
            false_alarm_rate,
            Parallelism::default(),
        )
    }

    /// [`AnomalyDetector::fit`] with an explicit thread budget for both
    /// sub-model training and the normal-score pass that fixes the
    /// threshold. The fitted detector is identical for every thread count.
    ///
    /// # Panics
    ///
    /// Panics on an empty table, fewer than two feature columns, or a
    /// false-alarm rate outside `[0, 1)`.
    pub fn fit_with<L>(
        learner: &L,
        normal: &NominalTable,
        method: ScoreMethod,
        false_alarm_rate: f64,
        par: Parallelism,
    ) -> AnomalyDetector<AnyModel>
    where
        L: Learner<Model = AnyModel> + Sync,
    {
        let model = CrossFeatureModel::train_with(learner, normal, par);
        Self::calibrate(model, method, normal, par, |scores| {
            select_threshold(scores, false_alarm_rate)
        })
    }

    /// Compiles `model` and sets the threshold to `pick` of its scores
    /// for every row of `normal`, in row order — how a caller that
    /// post-processes the training scores (the pipeline smooths them)
    /// fixes θ on the engine it will score with. Rows are scored in
    /// contiguous chunks across `par` threads; the scores are identical
    /// for every thread count.
    ///
    /// # Panics
    ///
    /// Panics if the sub-models disagree on the ensemble width or
    /// `normal` has a different width.
    pub fn calibrate(
        model: CrossFeatureModel<AnyModel>,
        method: ScoreMethod,
        normal: &NominalTable,
        par: Parallelism,
        pick: impl FnOnce(&[f64]) -> f64,
    ) -> AnomalyDetector<AnyModel> {
        let mut detector = Self::with_threshold(model, method, f64::NAN);
        detector.threshold = pick(&detector.score_table(normal, par));
        detector
    }

    /// Builds a detector from an existing ensemble and explicit threshold
    /// (used when sweeping thresholds for recall–precision curves).
    ///
    /// # Panics
    ///
    /// Panics if the sub-models disagree on the ensemble width.
    pub fn with_threshold(
        model: CrossFeatureModel<AnyModel>,
        method: ScoreMethod,
        threshold: f64,
    ) -> AnomalyDetector<AnyModel> {
        match Self::try_with_threshold(model, method, threshold) {
            Ok(detector) => detector,
            Err(why) => panic!("{why}"),
        }
    }

    /// [`AnomalyDetector::with_threshold`] for a decoded artifact, whose
    /// sub-models may disagree on the ensemble width.
    pub(crate) fn try_with_threshold(
        model: CrossFeatureModel<AnyModel>,
        method: ScoreMethod,
        threshold: f64,
    ) -> Result<AnomalyDetector<AnyModel>, &'static str> {
        let engine = CompiledEnsemble::compile(model.sub_models())?;
        Ok(AnomalyDetector {
            model,
            engine,
            method,
            threshold,
        })
    }

    /// The decision threshold in use.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The scoring method in use.
    pub fn method(&self) -> ScoreMethod {
        self.method
    }

    /// The underlying interpreted ensemble.
    pub fn model(&self) -> &CrossFeatureModel<AnyModel> {
        &self.model
    }

    /// Scores a full-width event vector (higher = more normal), reusing
    /// `scratch` so repeated scoring allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong width.
    pub fn score_with(&self, row: &[u8], scratch: &mut Vec<f64>) -> f64 {
        self.engine.score_row(row, self.method.into(), scratch)
    }

    /// Scores a packed row-major batch (`rows.len()` must be a multiple
    /// of the ensemble width) into `out`, one score per row, in
    /// structure-of-arrays order: all rows through sub-model *i*, then
    /// *i+1*. Each score has the bits [`AnomalyDetector::score_with`]
    /// gives its row.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of the ensemble width.
    pub fn score_rows_with(&self, rows: &[u8], out: &mut Vec<f64>, scratch: &mut Vec<f64>) {
        self.engine
            .score_batch(rows, self.method.into(), out, scratch);
    }

    /// The decision for a score: [`Verdict::Normal`] iff it reaches the
    /// threshold. Every caller that turns a score into an alarm asks
    /// here.
    pub fn verdict(&self, score: f64) -> Verdict {
        if score >= self.threshold {
            Verdict::Normal
        } else {
            Verdict::Anomaly
        }
    }

    /// Scores every row of `table`, fanning contiguous row chunks out
    /// across `par` threads as packed batches, in row order.
    fn score_table(&self, table: &NominalTable, par: Parallelism) -> Vec<f64> {
        let width = self.model.n_features();
        assert_eq!(table.n_cols(), width, "event width mismatch");
        let packed = table.to_rows().concat();
        map_chunks(par, table.n_rows(), |range| {
            let (mut scores, mut scratch) = (Vec::new(), Vec::new());
            // audit: allow(D006, reason = "map_chunks hands out ranges within 0..n_rows, and packed holds n_rows * width bytes")
            let rows = &packed[range.start * width..range.end * width];
            self.score_rows_with(rows, &mut scores, &mut scratch);
            scores
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfa_ml::c45::C45;
    use cfa_ml::{AnyLearner, NaiveBayes};

    fn correlated_normal() -> NominalTable {
        // f1 == f0, f2 == f0 XOR occasional noise-free copy; all mutually
        // predictable.
        let rows: Vec<Vec<u8>> = (0..120)
            .map(|i| {
                let a = (i % 2) as u8;
                vec![a, a, a]
            })
            .collect();
        NominalTable::new(
            vec!["a".into(), "b".into(), "c".into()],
            vec![2, 2, 2],
            rows,
        )
        .unwrap()
    }

    fn c45() -> AnyLearner {
        AnyLearner::C45(C45::default())
    }

    fn classify(det: &AnomalyDetector, row: &[u8]) -> Verdict {
        det.verdict(det.score_with(row, &mut Vec::new()))
    }

    #[test]
    fn detects_correlation_violations() {
        let det = AnomalyDetector::fit(
            &c45(),
            &correlated_normal(),
            ScoreMethod::AvgProbability,
            0.01,
        );
        assert_eq!(classify(&det, &[0, 0, 0]), Verdict::Normal);
        assert_eq!(classify(&det, &[1, 1, 1]), Verdict::Normal);
        assert_eq!(classify(&det, &[0, 1, 0]), Verdict::Anomaly);
        assert_eq!(classify(&det, &[1, 0, 0]), Verdict::Anomaly);
    }

    #[test]
    fn training_false_alarm_rate_is_bounded() {
        let normal = correlated_normal();
        for fa in [0.0, 0.05, 0.2] {
            let det = AnomalyDetector::fit(&c45(), &normal, ScoreMethod::MatchCount, fa);
            let alarms = normal
                .to_rows()
                .iter()
                .filter(|r| classify(&det, r) == Verdict::Anomaly)
                .count();
            let rate = alarms as f64 / normal.n_rows() as f64;
            assert!(
                rate <= fa + 1e-9,
                "training false-alarm rate {rate} exceeds requested {fa}"
            );
        }
    }

    #[test]
    fn compiled_routing_is_bit_identical() {
        // Every score the detector gives — row at a time, batched, and the
        // training scores θ was picked from — has the bits of the
        // interpreted ensemble's walk, for both scoring methods and at
        // any thread count.
        let normal = correlated_normal();
        let rows = normal.to_rows();
        let packed: Vec<u8> = rows.iter().flatten().copied().collect();
        let learners = [c45(), AnyLearner::Bayes(NaiveBayes::default())];
        for (learner, method) in learners
            .iter()
            .zip([ScoreMethod::AvgProbability, ScoreMethod::MatchCount])
        {
            for par in [Parallelism::serial(), Parallelism::threads(3)] {
                let det = AnomalyDetector::fit_with(learner, &normal, method, 0.05, par);
                let oracle = det
                    .model()
                    .scores_with(&normal, method, Parallelism::serial());
                let oracle_bits: Vec<u64> = oracle.iter().map(|s| s.to_bits()).collect();
                assert_eq!(
                    det.threshold().to_bits(),
                    select_threshold(&oracle, 0.05).to_bits(),
                    "{method:?}: θ must come from the oracle's scores"
                );

                let mut scratch = Vec::new();
                let single: Vec<u64> = rows
                    .iter()
                    .map(|r| det.score_with(r, &mut scratch).to_bits())
                    .collect();
                assert_eq!(oracle_bits, single, "{method:?}: score_with");
                let mut out = Vec::new();
                det.score_rows_with(&packed, &mut out, &mut scratch);
                let batched: Vec<u64> = out.iter().map(|s| s.to_bits()).collect();
                assert_eq!(oracle_bits, batched, "{method:?}: score_rows_with");
                let cloned = det.clone();
                assert_eq!(
                    det.score_with(&rows[0], &mut scratch).to_bits(),
                    cloned.score_with(&rows[0], &mut scratch).to_bits()
                );
            }
        }
    }

    #[test]
    fn verdict_is_normal_iff_the_score_reaches_the_threshold() {
        let model = CrossFeatureModel::train(&c45(), &correlated_normal());
        let det = AnomalyDetector::with_threshold(model, ScoreMethod::MatchCount, 0.5);
        assert_eq!(det.verdict(0.5), Verdict::Normal);
        assert_eq!(det.verdict(0.75), Verdict::Normal);
        assert_eq!(det.verdict(0.4999), Verdict::Anomaly);
        assert_eq!(det.verdict(f64::NAN), Verdict::Anomaly);
    }

    #[test]
    fn explicit_threshold_overrides() {
        let model = CrossFeatureModel::train(&c45(), &correlated_normal());
        let det = AnomalyDetector::with_threshold(model, ScoreMethod::MatchCount, 2.0);
        // Threshold above the score range: everything is anomalous.
        assert_eq!(classify(&det, &[0, 0, 0]), Verdict::Anomaly);
        assert_eq!(det.threshold(), 2.0);
    }

    #[test]
    #[should_panic(expected = "sub-model row width mismatch")]
    fn sub_models_of_different_widths_do_not_build_a_detector() {
        let narrow = correlated_normal();
        let wide = NominalTable::new(
            (0..4).map(|i| format!("f{i}")).collect(),
            vec![2; 4],
            (0..40).map(|i| vec![(i % 2) as u8; 4]).collect(),
        )
        .unwrap();
        let learner = AnyLearner::Bayes(NaiveBayes::default());
        let model = CrossFeatureModel::from_sub_models(vec![
            learner.fit(&narrow, 0),
            learner.fit(&narrow, 1),
            learner.fit(&wide, 2),
        ]);
        let _ = AnomalyDetector::with_threshold(model, ScoreMethod::MatchCount, 0.5);
    }
}
