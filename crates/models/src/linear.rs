//! Multinomial logistic regression trained with full-batch Adam.
//!
//! Stands in for scikit-learn's `LogisticRegression` (the paper's most
//! popular downstream model). Like the lbfgs-based original, it is a
//! convex-optimizer-on-softmax-loss — and, crucially for this study, it
//! is *scale sensitive*: with a fixed iteration budget, badly scaled
//! features slow convergence and cost accuracy, which is precisely the
//! effect feature preprocessing repairs.
//!
//! **Kernel invariant.** The per-element float operations and their order
//! are a contract, pinned by `tests/kernels.rs` and every golden and
//! bit-identity suite: an optimization may drop work whose result is
//! provably unchanged, or lay data out so independent operations run side
//! by side, but never reorder a reduction. A change that does needs a
//! recorded accuracy diff over a stored trial matrix (the store diff)
//! first. The layout:
//!
//! - the training matrix is sanitized once, before the epoch loop, and
//!   kept twice: column-major for the logits and row-major with a bias
//!   input of `1.0` for the gradient (`delta * 1.0 == delta` exactly);
//! - an epoch computes all logits (`classes × rows`) in 8-row register
//!   blocks, each starting at its bias and adding the inputs in order,
//!   then the gradient in 8-input blocks, each cell adding the rows in
//!   order and skipping zero deltas;
//! - each logit's `exp` serves both the loss and the softmax.

use crate::cancel::CancelToken;
use crate::classifier::{Classifier, Trainer};
use autofp_linalg::dist::{softmax_inplace, softmax_logsumexp_inplace};
use autofp_linalg::Matrix;

/// Hyperparameters for [`LogisticRegression`] training.
#[derive(Debug, Clone)]
pub struct LogisticParams {
    /// Full-budget number of Adam epochs (sklearn `max_iter` analogue).
    pub max_epochs: usize,
    /// Adam step size.
    pub learning_rate: f64,
    /// L2 regularization strength (sklearn `1/C` analogue).
    pub l2: f64,
    /// Relative loss-improvement tolerance for early stopping.
    pub tol: f64,
    /// Seed (unused by the deterministic full-batch optimizer, kept for
    /// interface uniformity).
    pub seed: u64,
}

impl Default for LogisticParams {
    fn default() -> Self {
        LogisticParams { max_epochs: 80, learning_rate: 0.1, l2: 1e-4, tol: 1e-5, seed: 0 }
    }
}

impl LogisticParams {
    /// Set the seed (builder style; kept for interface uniformity).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A trained multinomial logistic regression model.
pub struct LogisticRegression {
    /// Weights, `n_classes x (n_features + 1)`; last column is the bias.
    pub(crate) weights: Matrix,
    pub(crate) n_classes: usize,
}

impl LogisticRegression {
    /// Raw class scores (logits) for a feature row.
    fn logits(&self, row: &[f64]) -> Vec<f64> {
        let d = self.weights.ncols() - 1;
        (0..self.n_classes)
            .map(|c| {
                let w = self.weights.row(c);
                let mut z = w[d]; // bias
                for (j, &v) in row.iter().enumerate().take(d) {
                    z += w[j] * sanitize(v);
                }
                z
            })
            .collect()
    }
}

impl Classifier for LogisticRegression {
    fn predict_row(&self, row: &[f64]) -> usize {
        let z = self.logits(row);
        argmax(&z)
    }

    fn predict_proba_row(&self, row: &[f64], n_classes: usize) -> Vec<f64> {
        let mut z = self.logits(row);
        softmax_inplace(&mut z);
        z.resize(n_classes, 0.0);
        z
    }
}

impl LogisticParams {
    /// Train, returning the concrete model type (the [`Trainer`] impl
    /// boxes this; the artifact exporter serializes its weights).
    pub fn train_cancellable(
        &self,
        x: &Matrix,
        y: &[usize],
        n_classes: usize,
        budget: f64,
        cancel: &CancelToken,
    ) -> LogisticRegression {
        let (n, d) = x.shape();
        assert_eq!(n, y.len());
        let epochs = ((self.max_epochs as f64 * budget.clamp(0.0, 1.0)).round() as usize).max(1);
        let k = n_classes;
        let mut w = Matrix::zeros(k, d + 1);
        let mut m = Matrix::zeros(k, d + 1);
        let mut v = Matrix::zeros(k, d + 1);
        let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        let nf = n.max(1) as f64;
        let mut prev_loss = f64::INFINITY;

        // The sanitized rows twice: column-major for the logits, and
        // row-major with the bias input `1.0` appended for the gradient.
        // Both are padded with zeros to whole blocks.
        let n_pad = n.div_ceil(BLOCK) * BLOCK;
        let d_pad = (d + 1).div_ceil(BLOCK) * BLOCK;
        let mut xt = Matrix::zeros(d, n_pad);
        let mut xb = Matrix::zeros(n, d_pad);
        for i in 0..n {
            for (j, &v) in x.row(i).iter().enumerate() {
                xt.set(j, i, sanitize(v));
                xb.set(i, j, sanitize(v));
            }
            xb.set(i, d, 1.0);
        }
        // Logits, then softmax deltas, `k x n_pad`.
        let mut delta = Matrix::zeros(k, n_pad);
        let mut probs = vec![0.0; k];
        let mut grad = Matrix::zeros(k, d + 1);
        for epoch in 1..=epochs {
            // Cooperative cancellation: always finish at least one epoch
            // so the returned model carries a real gradient step.
            if epoch > 1 && cancel.is_cancelled() {
                break;
            }
            logits(&w, &xt, &mut delta);
            let mut loss = 0.0;
            for (i, &yi) in y.iter().enumerate() {
                for (c, p) in probs.iter_mut().enumerate() {
                    *p = delta.get(c, i);
                }
                let target_logit = probs[yi];
                loss += softmax_logsumexp_inplace(&mut probs) - target_logit;
                for (c, &p) in probs.iter().enumerate() {
                    delta.set(c, i, p - if c == yi { 1.0 } else { 0.0 });
                }
            }
            gradient(&delta, &xb, n, &mut grad);
            loss /= nf;
            // L2 on non-bias weights + Adam update.
            let t = epoch as f64;
            let bc1 = 1.0 - b1.powf(t);
            let bc2 = 1.0 - b2.powf(t);
            for c in 0..k {
                for j in 0..=d {
                    let mut g = grad.get(c, j) / nf;
                    if j < d {
                        g += self.l2 * w.get(c, j);
                    }
                    let mm = b1 * m.get(c, j) + (1.0 - b1) * g;
                    let vv = b2 * v.get(c, j) + (1.0 - b2) * g * g;
                    m.set(c, j, mm);
                    v.set(c, j, vv);
                    let step = self.learning_rate * (mm / bc1) / ((vv / bc2).sqrt() + eps);
                    w.set(c, j, w.get(c, j) - step);
                }
            }
            if (prev_loss - loss).abs() < self.tol * prev_loss.abs().max(1.0) {
                break;
            }
            prev_loss = loss;
        }
        LogisticRegression { weights: w, n_classes: k }
    }
}

impl Trainer for LogisticParams {
    fn fit_budgeted(
        &self,
        x: &Matrix,
        y: &[usize],
        n_classes: usize,
        budget: f64,
    ) -> Box<dyn Classifier> {
        self.fit_cancellable(x, y, n_classes, budget, &CancelToken::new())
    }

    fn fit_cancellable(
        &self,
        x: &Matrix,
        y: &[usize],
        n_classes: usize,
        budget: f64,
        cancel: &CancelToken,
    ) -> Box<dyn Classifier> {
        Box::new(self.train_cancellable(x, y, n_classes, budget, cancel))
    }

    fn name(&self) -> &'static str {
        "LR"
    }
}

/// Rows per block of the logits, and inputs per block of the gradient.
const BLOCK: usize = 8;

/// `out[c][i]` = class `c`'s logit of row `i`: the bias, then `w * x`
/// added over the inputs in order, for a block of rows side by side.
fn logits(w: &Matrix, xt: &Matrix, out: &mut Matrix) {
    let d = xt.nrows();
    for c in 0..w.nrows() {
        let wr = w.row(c);
        for (rb, z) in out.row_mut(c).chunks_exact_mut(BLOCK).enumerate() {
            let rows = rb * BLOCK..(rb + 1) * BLOCK;
            let mut acc = [wr[d]; BLOCK];
            for (j, &wv) in wr[..d].iter().enumerate() {
                let xv = &xt.row(j)[rows.clone()];
                for u in 0..BLOCK {
                    acc[u] += wv * xv[u];
                }
            }
            z.copy_from_slice(&acc);
        }
    }
}

/// `grad[c][j]` = the sum over the first `n` rows, in order, of
/// `delta[c][i] * x[i][j]`, skipping zero deltas (the bias input is
/// `1.0`), for a block of inputs side by side.
fn gradient(delta: &Matrix, xb: &Matrix, n: usize, grad: &mut Matrix) {
    let d = grad.ncols() - 1;
    for c in 0..grad.nrows() {
        let dr = &delta.row(c)[..n];
        let gr = grad.row_mut(c);
        for jb in 0..xb.ncols() / BLOCK {
            let inputs = jb * BLOCK..(jb + 1) * BLOCK;
            let mut acc = [0.0; BLOCK];
            for (i, &dl) in dr.iter().enumerate() {
                if dl == 0.0 {
                    continue;
                }
                let xv = &xb.row(i)[inputs.clone()];
                for u in 0..BLOCK {
                    acc[u] += dl * xv[u];
                }
            }
            let end = inputs.end.min(d + 1);
            gr[inputs.start..end].copy_from_slice(&acc[..end - inputs.start]);
        }
    }
}

/// Map a feature cell into the range the trainers accept: non-finite
/// cells become 0 and finite ones are clamped to ±1e12.
#[inline]
pub(crate) fn sanitize(v: f64) -> f64 {
    if v.is_finite() {
        v.clamp(-1e12, 1e12)
    } else {
        0.0
    }
}

/// `x` with every cell passed through [`sanitize`]. The training loops
/// read this copy, so no cell is sanitized again per epoch.
pub(crate) fn sanitized(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    out.map_inplace(sanitize);
    out
}

#[inline]
pub(crate) fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    let mut best_v = f64::NEG_INFINITY;
    for (i, &v) in xs.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofp_data::SynthConfig;
    use crate::metrics::accuracy;

    #[test]
    fn learns_linearly_separable_binary() {
        // y = 1 iff x0 + x1 > 0.
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                let a = (i % 20) as f64 / 10.0 - 1.0;
                let b = (i % 13) as f64 / 6.0 - 1.0;
                vec![a, b]
            })
            .collect();
        let y: Vec<usize> = rows.iter().map(|r| (r[0] + r[1] > 0.0) as usize).collect();
        let x = Matrix::from_rows(&rows);
        let model = LogisticParams::default().fit(&x, &y, 2);
        let acc = accuracy(&y, &model.predict(&x));
        assert!(acc > 0.95, "train acc {acc}");
    }

    #[test]
    fn learns_multiclass_synthetic() {
        let d = SynthConfig::new("lr-mc", 600, 8, 4, 5)
            .with_personality(autofp_data::Personality {
                scale_spread: 0.0,
                skew: 0.0,
                heavy_tail: 0.0,
                sparsity: 0.0,
                class_sep: 3.0,
                label_noise: 0.0,
                informative_frac: 1.0,
                imbalance: 0.0,
            })
            .generate();
        let model = LogisticParams::default().fit(&d.x, &d.y, d.n_classes);
        let acc = accuracy(&d.y, &model.predict(&d.x));
        assert!(acc > 0.9, "acc {acc}");
    }

    #[test]
    fn scale_sensitivity_under_fixed_budget() {
        // The study's premise: unscaled features hurt LR under a fixed
        // iteration budget; standardizing recovers accuracy.
        let mut p = autofp_data::Personality::default();
        p.scale_spread = 6.0;
        p.skew = 0.0;
        p.class_sep = 2.0;
        p.label_noise = 0.0;
        let d = SynthConfig::new("lr-scale", 500, 10, 2, 7).with_personality(p).generate();
        let split = d.stratified_split(0.8, 1);
        let trainer = LogisticParams { max_epochs: 40, ..Default::default() };
        let raw = trainer.fit(&split.train.x, &split.train.y, 2);
        let acc_raw = accuracy(&split.valid.y, &raw.predict(&split.valid.x));

        let scaler = autofp_preprocess::Preproc::StandardScaler { with_mean: true };
        let mut xtr = split.train.x.clone();
        let fitted = scaler.fit_transform(&mut xtr);
        let mut xva = split.valid.x.clone();
        fitted.transform(&mut xva);
        let scaled = trainer.fit(&xtr, &split.train.y, 2);
        let acc_scaled = accuracy(&split.valid.y, &scaled.predict(&xva));
        assert!(
            acc_scaled > acc_raw + 0.03,
            "scaled {acc_scaled} should beat raw {acc_raw}"
        );
    }

    #[test]
    fn budget_scales_epochs_and_zero_budget_is_safe() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let y = vec![0, 0, 1, 1];
        let model = LogisticParams::default().fit_budgeted(&x, &y, 2, 0.0);
        // One epoch only: predictions exist and are valid classes.
        for p in model.predict(&x) {
            assert!(p < 2);
        }
    }

    #[test]
    fn cancelled_fit_stops_after_one_epoch() {
        let d = SynthConfig::new("lr-cancel", 200, 6, 2, 3).generate();
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let params = LogisticParams::default();
        // A cancelled token still completes exactly one epoch, which is
        // bit-identical to a one-epoch (zero-budget) fit.
        let a = params.fit_cancellable(&d.x, &d.y, 2, 1.0, &cancelled).predict(&d.x);
        let b = params.fit_budgeted(&d.x, &d.y, 2, 0.0).predict(&d.x);
        assert_eq!(a, b);
        // An unfired token changes nothing.
        let c = params.fit_cancellable(&d.x, &d.y, 2, 1.0, &CancelToken::new()).predict(&d.x);
        let full = params.fit(&d.x, &d.y, 2).predict(&d.x);
        assert_eq!(c, full);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let x = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let y = vec![0, 1];
        let model = LogisticParams::default().fit(&x, &y, 2);
        let p = model.predict_proba_row(&[0.5, 0.5], 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tolerates_nan_and_inf_features() {
        let x = Matrix::from_rows(&[vec![f64::NAN, 1.0], vec![f64::INFINITY, -1.0]]);
        let y = vec![0, 1];
        let model = LogisticParams::default().fit(&x, &y, 2);
        let pred = model.predict(&x);
        assert!(pred.iter().all(|&p| p < 2));
    }
}
