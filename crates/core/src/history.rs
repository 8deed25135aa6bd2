//! Trial records and search histories.

use crate::error::FailureKind;
use crate::order::nan_smallest;
use autofp_codec::{Dec, DecodeError, Enc};
use autofp_preprocess::artifact::{dec_pipeline_spec, enc_pipeline_spec};
use autofp_preprocess::Pipeline;
use std::time::Duration;

/// One evaluated pipeline (one iteration of Algorithm 1's Step 4).
///
/// `PartialEq` compares floats by value (the wire layer's round-trip
/// tests rely on field-for-field equality; all recorded floats are
/// finite in practice).
#[derive(Debug, Clone, PartialEq)]
pub struct Trial {
    /// The evaluated pipeline.
    pub pipeline: Pipeline,
    /// Validation accuracy of the downstream model.
    pub accuracy: f64,
    /// Pipeline error = 1 - accuracy (Eq. 2).
    pub error: f64,
    /// Time spent preprocessing train+valid features ("Prep").
    pub prep_time: Duration,
    /// Time spent training and scoring the downstream model ("Train").
    pub train_time: Duration,
    /// Fraction of the trainer's iteration budget spent (1.0 = full).
    pub train_fraction: f64,
    /// `Some(kind)` when the evaluation failed and this trial records
    /// the worst-error placeholder (accuracy 0, error 1) instead of a
    /// real measurement; `None` for a successful evaluation.
    pub failure: Option<FailureKind>,
}

impl Trial {
    /// The worst-error placeholder for a failed evaluation: accuracy
    /// 0.0 and error 1.0 (Eq. 2's maximum), zero timings, tagged with
    /// the failure kind. Mirrors scikit-learn's `error_score=0`
    /// convention so searchers keep running and steer away.
    pub fn failed(pipeline: Pipeline, kind: FailureKind, train_fraction: f64) -> Trial {
        Trial {
            pipeline,
            accuracy: 0.0,
            error: 1.0,
            prep_time: Duration::ZERO,
            train_time: Duration::ZERO,
            train_fraction,
            failure: Some(kind),
        }
    }

    /// True when this trial records a failed evaluation.
    pub fn is_failed(&self) -> bool {
        self.failure.is_some()
    }
}

/// Encode a trial: its pipeline spec, accuracy and error, Prep and
/// Train nanoseconds, budget fraction, and failure kind as an optional
/// [`FailureKind::index`] byte. The evald `Trial` response and the
/// trial store's records both carry trials in this form.
pub fn enc_trial(e: &mut Enc, t: &Trial) {
    enc_pipeline_spec(e, &t.pipeline);
    e.f64(t.accuracy);
    e.f64(t.error);
    e.u64(duration_nanos(t.prep_time));
    e.u64(duration_nanos(t.train_time));
    e.f64(t.train_fraction);
    match t.failure {
        Some(kind) => {
            e.u8(1);
            e.u8(kind.index() as u8);
        }
        None => e.u8(0),
    }
}

/// Decode a trial written by [`enc_trial`].
pub fn dec_trial(d: &mut Dec<'_>) -> Result<Trial, DecodeError> {
    let pipeline = dec_pipeline_spec(d)?;
    let accuracy = d.f64()?;
    let error = d.f64()?;
    let prep_time = Duration::from_nanos(d.u64()?);
    let train_time = Duration::from_nanos(d.u64()?);
    let train_fraction = d.f64()?;
    let failure = match d.u8()? {
        0 => None,
        1 => Some(FailureKind::from_code(d.u8()?)?),
        v => return Err(DecodeError::new(format!("bad failure flag {v}"))),
    };
    Ok(Trial { pipeline, accuracy, error, prep_time, train_time, train_fraction, failure })
}

fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The evaluated-pipeline history of one search run.
#[derive(Debug, Clone, Default)]
pub struct TrialHistory {
    trials: Vec<Trial>,
}

impl TrialHistory {
    /// An empty history.
    pub fn new() -> TrialHistory {
        TrialHistory::default()
    }

    /// Append a trial.
    pub fn push(&mut self, t: Trial) {
        self.trials.push(t);
    }

    /// Number of trials recorded.
    pub fn len(&self) -> usize {
        self.trials.len()
    }

    /// True when no trial has run.
    pub fn is_empty(&self) -> bool {
        self.trials.is_empty()
    }

    /// All trials, in evaluation order.
    pub fn trials(&self) -> &[Trial] {
        &self.trials
    }

    /// Best *fully trained* trial by accuracy (partial Hyperband rungs are
    /// not comparable and are excluded unless nothing else exists).
    /// NaN accuracies rank below every real score, so a corrupted
    /// trial can never be selected as best (and never panics here).
    pub fn best(&self) -> Option<&Trial> {
        let full = self
            .trials
            .iter()
            .filter(|t| t.train_fraction >= 1.0 - 1e-9)
            .max_by(|a, b| nan_smallest(&a.accuracy, &b.accuracy));
        full.or_else(|| {
            self.trials
                .iter()
                .max_by(|a, b| nan_smallest(&a.accuracy, &b.accuracy))
        })
    }

    /// Best accuracy seen (0.0 when empty).
    pub fn best_accuracy(&self) -> f64 {
        self.best().map_or(0.0, |t| t.accuracy)
    }

    /// Total Prep and Train time across all trials.
    pub fn totals(&self) -> (Duration, Duration) {
        let prep = self.trials.iter().map(|t| t.prep_time).sum();
        let train = self.trials.iter().map(|t| t.train_time).sum();
        (prep, train)
    }
}

/// The paper's Figure 7 three-way overhead breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseBreakdown {
    /// Time the algorithm spent choosing pipelines (Steps 2-3).
    pub pick: Duration,
    /// Time spent preprocessing features (Step 4, transform).
    pub prep: Duration,
    /// Time spent training/scoring the downstream model (Step 4).
    pub train: Duration,
}

impl PhaseBreakdown {
    /// Percentages `(pick, prep, train)` summing to ~100.
    pub fn percentages(&self) -> (f64, f64, f64) {
        let total = (self.pick + self.prep + self.train).as_secs_f64();
        if total <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            100.0 * self.pick.as_secs_f64() / total,
            100.0 * self.prep.as_secs_f64() / total,
            100.0 * self.train.as_secs_f64() / total,
        )
    }

    /// The dominant phase: `"Pick"`, `"Prep"` or `"Train"`.
    pub fn bottleneck(&self) -> &'static str {
        if self.train >= self.prep && self.train >= self.pick {
            "Train"
        } else if self.prep >= self.pick {
            "Prep"
        } else {
            "Pick"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofp_preprocess::{Pipeline, PreprocKind};

    fn trial(acc: f64, frac: f64) -> Trial {
        Trial {
            pipeline: Pipeline::from_kinds(&[PreprocKind::Binarizer]),
            accuracy: acc,
            error: 1.0 - acc,
            prep_time: Duration::from_millis(1),
            train_time: Duration::from_millis(2),
            train_fraction: frac,
            failure: None,
        }
    }

    #[test]
    fn best_prefers_fully_trained() {
        let mut h = TrialHistory::new();
        h.push(trial(0.9, 0.1)); // partial rung, high score
        h.push(trial(0.7, 1.0));
        assert_eq!(h.best().unwrap().accuracy, 0.7);
        assert_eq!(h.best_accuracy(), 0.7);
    }

    #[test]
    fn best_falls_back_to_partial() {
        let mut h = TrialHistory::new();
        h.push(trial(0.6, 0.5));
        assert_eq!(h.best().unwrap().accuracy, 0.6);
    }

    #[test]
    fn best_ranks_nan_last_without_panicking() {
        // Regression: `best()` used to panic on NaN accuracy via
        // `partial_cmp().expect`. NaN must lose to any real score.
        let mut h = TrialHistory::new();
        h.push(trial(f64::NAN, 1.0));
        h.push(trial(0.4, 1.0));
        h.push(trial(f64::NAN, 1.0));
        assert_eq!(h.best().unwrap().accuracy, 0.4);
        // All-NaN history still returns *something* rather than panic.
        let mut all_nan = TrialHistory::new();
        all_nan.push(trial(f64::NAN, 1.0));
        assert!(all_nan.best().unwrap().accuracy.is_nan());
    }

    #[test]
    fn failed_trial_is_worst_error() {
        let t = Trial::failed(
            Pipeline::from_kinds(&[PreprocKind::Binarizer]),
            FailureKind::Panic,
            1.0,
        );
        assert!(t.is_failed());
        assert_eq!(t.accuracy, 0.0);
        assert_eq!(t.error, 1.0);
        assert_eq!(t.prep_time, Duration::ZERO);
        assert_eq!(t.failure, Some(FailureKind::Panic));
    }

    #[test]
    fn empty_history() {
        let h = TrialHistory::new();
        assert!(h.best().is_none());
        assert_eq!(h.best_accuracy(), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn totals_sum_durations() {
        let mut h = TrialHistory::new();
        h.push(trial(0.5, 1.0));
        h.push(trial(0.6, 1.0));
        let (prep, train) = h.totals();
        assert_eq!(prep, Duration::from_millis(2));
        assert_eq!(train, Duration::from_millis(4));
    }

    #[test]
    fn breakdown_percentages_and_bottleneck() {
        let b = PhaseBreakdown {
            pick: Duration::from_millis(10),
            prep: Duration::from_millis(30),
            train: Duration::from_millis(60),
        };
        let (pick, prep, train) = b.percentages();
        assert!((pick - 10.0).abs() < 1e-9);
        assert!((prep - 30.0).abs() < 1e-9);
        assert!((train - 60.0).abs() < 1e-9);
        assert_eq!(b.bottleneck(), "Train");
        let b2 = PhaseBreakdown { pick: Duration::ZERO, prep: Duration::from_millis(2), train: Duration::from_millis(1) };
        assert_eq!(b2.bottleneck(), "Prep");
    }

    #[test]
    fn zero_breakdown_is_safe() {
        let b = PhaseBreakdown { pick: Duration::ZERO, prep: Duration::ZERO, train: Duration::ZERO };
        assert_eq!(b.percentages(), (0.0, 0.0, 0.0));
    }
}
