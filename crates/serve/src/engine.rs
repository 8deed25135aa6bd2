//! The batched prediction engine with a malformed-row quarantine path.
//!
//! Every row of a batch is validated before it touches the fitted
//! pipeline: a row whose arity disagrees with the artifact is rejected
//! as [`FailureKind::Degenerate`] (the shape failure of the `EvalError`
//! taxonomy), and a row containing NaN/±inf is rejected as
//! [`FailureKind::NonFinite`]. Rejected rows land in the outcome
//! stream as [`RowOutcome::Rejected`] with per-reason counters —
//! they never poison the clean rows around them, which are transformed
//! and predicted exactly as the in-search evaluator would: one packed
//! transform and one batched `predict` call per chunk.
//!
//! Because every fitted transform is row-independent (column transforms
//! use only frozen fit statistics; the normalizer uses only the row
//! itself), per-row transformation is bit-identical to whole-matrix
//! transformation, and the chunked [`pool_map`] parallel path is
//! bit-identical to the sequential one at any thread count.

use crate::artifact::ServeArtifact;
use autofp_core::{pool_map, FailureKind};
use autofp_linalg::Matrix;
use autofp_models::Classifier;
use std::sync::atomic::{AtomicU64, Ordering};

/// Rows per parallel work unit. Fixed (not derived from the thread
/// count) so the chunking — and therefore every per-row float op —
/// is identical at any parallelism.
const CHUNK_ROWS: usize = 256;

/// What the engine did with one input row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOutcome {
    /// The row was clean; the predicted class index.
    Predicted(usize),
    /// The row was quarantined, with the taxonomy reason.
    Rejected(FailureKind),
}

/// Per-batch outcome: one entry per input row, in input order, plus
/// the quarantine tallies for this batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReport {
    /// Outcome per row, in input order.
    pub outcomes: Vec<RowOutcome>,
    /// Clean rows predicted.
    pub predicted: u64,
    /// Rows rejected for NaN/±inf values.
    pub rejected_non_finite: u64,
    /// Rows rejected for arity mismatch.
    pub rejected_arity: u64,
}

/// Cumulative serving counters (process lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Total rows received.
    pub rows: u64,
    /// Rows predicted.
    pub predicted: u64,
    /// Rows quarantined as non-finite.
    pub rejected_non_finite: u64,
    /// Rows quarantined for arity mismatch.
    pub rejected_arity: u64,
}

/// A loaded artifact plus lifetime counters: the serving hot path.
pub struct ServeEngine {
    artifact: ServeArtifact,
    rows: AtomicU64,
    predicted: AtomicU64,
    rejected_non_finite: AtomicU64,
    rejected_arity: AtomicU64,
}

impl ServeEngine {
    /// Wrap a loaded artifact.
    pub fn new(artifact: ServeArtifact) -> ServeEngine {
        ServeEngine {
            artifact,
            rows: AtomicU64::new(0),
            predicted: AtomicU64::new(0),
            rejected_non_finite: AtomicU64::new(0),
            rejected_arity: AtomicU64::new(0),
        }
    }

    /// The artifact being served.
    pub fn artifact(&self) -> &ServeArtifact {
        &self.artifact
    }

    /// Validate + transform + predict one chunk of rows.
    ///
    /// Clean rows are packed into a single matrix, transformed together
    /// and predicted with one batched `predict` call: every fitted
    /// transform and every model is row-independent, so the packed
    /// matrix is bit-identical to handling each row alone (or the whole
    /// validation matrix at once, which is what the train/serve skew
    /// test pins), while the transform and the model reuse their
    /// buffers across the chunk instead of allocating per row.
    /// Quarantined rows are excluded from the matrix for the same
    /// reason — their absence cannot change a clean row's floats.
    fn predict_chunk(&self, rows: &[Vec<f64>]) -> Vec<RowOutcome> {
        let d = self.artifact.n_features();
        let mut outcomes = Vec::with_capacity(rows.len());
        let mut clean = Vec::with_capacity(rows.len());
        let mut data = Vec::with_capacity(rows.len() * d);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != d {
                outcomes.push(RowOutcome::Rejected(FailureKind::Degenerate));
            } else if !row.iter().all(|v| v.is_finite()) {
                outcomes.push(RowOutcome::Rejected(FailureKind::NonFinite));
            } else {
                clean.push(i);
                data.extend_from_slice(row);
                outcomes.push(RowOutcome::Predicted(0)); // overwritten below
            }
        }
        if !clean.is_empty() {
            let mut m = Matrix::from_vec(clean.len(), d, data);
            self.artifact.pipeline.transform(&mut m);
            let classes = self.artifact.model.predict(&m);
            for (&i, class) in clean.iter().zip(classes) {
                outcomes[i] = RowOutcome::Predicted(class);
            }
        }
        outcomes
    }

    /// Predict a batch. Outcomes are in input order and bit-identical
    /// at any `threads` value; the lifetime counters absorb the batch.
    pub fn predict_batch(&self, rows: &[Vec<f64>], threads: usize) -> BatchReport {
        let n_chunks = rows.len().div_ceil(CHUNK_ROWS);
        let chunked: Vec<Vec<RowOutcome>> = pool_map(threads.max(1), n_chunks, |c| {
            let lo = c * CHUNK_ROWS;
            let hi = (lo + CHUNK_ROWS).min(rows.len());
            self.predict_chunk(&rows[lo..hi])
        });
        let outcomes: Vec<RowOutcome> = chunked.into_iter().flatten().collect();
        let mut report = BatchReport {
            outcomes,
            predicted: 0,
            rejected_non_finite: 0,
            rejected_arity: 0,
        };
        for o in &report.outcomes {
            match o {
                RowOutcome::Predicted(_) => report.predicted += 1,
                RowOutcome::Rejected(FailureKind::NonFinite) => report.rejected_non_finite += 1,
                RowOutcome::Rejected(_) => report.rejected_arity += 1,
            }
        }
        self.rows.fetch_add(report.outcomes.len() as u64, Ordering::Relaxed);
        self.predicted.fetch_add(report.predicted, Ordering::Relaxed);
        self.rejected_non_finite.fetch_add(report.rejected_non_finite, Ordering::Relaxed);
        self.rejected_arity.fetch_add(report.rejected_arity, Ordering::Relaxed);
        report
    }

    /// Snapshot the lifetime counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            rows: self.rows.load(Ordering::Relaxed),
            predicted: self.predicted.load(Ordering::Relaxed),
            rejected_non_finite: self.rejected_non_finite.load(Ordering::Relaxed),
            rejected_arity: self.rejected_arity.load(Ordering::Relaxed),
        }
    }
}

/// Parse feature rows from CSV text for the predict path.
///
/// Deliberately forgiving where the training-data parser is strict:
/// an unparsable cell becomes NaN and a short/long row is kept as-is,
/// so malformed input flows into the engine's quarantine path (with
/// its taxonomy reason) instead of aborting the whole file.
pub fn parse_feature_rows(text: &str, has_header: bool) -> Vec<Vec<f64>> {
    text.lines()
        .skip(usize::from(has_header))
        .filter(|line| !line.trim().is_empty())
        .map(|line| {
            line.split(',')
                .map(|cell| cell.trim().parse::<f64>().unwrap_or(f64::NAN))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_rows_parse_forgivingly() {
        let rows = parse_feature_rows("a,b\n1,2\n3,oops\n\n4,5,6\n", true);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], vec![1.0, 2.0]);
        assert!(rows[1][1].is_nan());
        assert_eq!(rows[2], vec![4.0, 5.0, 6.0]);
        let with_header = parse_feature_rows("7,8\n", false);
        assert_eq!(with_header, vec![vec![7.0, 8.0]]);
    }
}
