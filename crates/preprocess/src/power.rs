//! `PowerTransformer`: the Yeo-Johnson transformation (Eq. 1 of the paper).
//!
//! For each column independently, the optimal exponent λ is found by
//! maximizing the Yeo-Johnson profile log-likelihood (the same objective
//! scikit-learn optimizes with Brent's method; we use golden-section
//! search on λ ∈ [-5, 5], which is robust because the profile likelihood
//! is unimodal in practice). With `standardize = true` (the sklearn
//! default) the transformed column is then scaled to zero mean and unit
//! variance.
//!
//! **Kernel invariant.** The λ-independent `ln(1 + |x|)` and Jacobian
//! terms are computed once per column, outside the golden-section loop.
//! The per-element float operations and their order are a contract,
//! pinned by `tests/kernels.rs` and every golden and bit-identity suite:
//! an optimization may drop redundant work but never reorder a reduction.
//! A change that does needs a recorded accuracy diff over a stored trial
//! matrix (the store diff) first.

use autofp_linalg::stats;
use autofp_linalg::Matrix;

const LAMBDA_LO: f64 = -5.0;
const LAMBDA_HI: f64 = 5.0;
/// Golden-section iterations; 48 brackets λ to ~1e-9 which is far below
/// any effect on downstream models.
const GOLDEN_ITERS: usize = 48;
/// Guard for exp overflow when computing `(1+x)^λ` in log space.
const MAX_EXPONENT: f64 = 350.0;

/// Yeo-Johnson transform of a single value (Eq. 1).
pub fn yeo_johnson(x: f64, lambda: f64) -> f64 {
    yeo_johnson_log(x, log1p_abs(x), lambda)
}

/// `ln(1 + |x|)`, the λ-independent factor of [`yeo_johnson`]. For
/// `x < 0`, `1 - x` and `|x| + 1` are the same float, so one value
/// serves both branches and the Jacobian term.
#[inline]
fn log1p_abs(x: f64) -> f64 {
    (x.abs() + 1.0).ln()
}

/// [`yeo_johnson`] given `lg = log1p_abs(x)`.
#[inline]
fn yeo_johnson_log(x: f64, lg: f64, lambda: f64) -> f64 {
    if x >= 0.0 {
        if lambda.abs() < 1e-12 {
            lg
        } else {
            let e = lambda * lg;
            if e > MAX_EXPONENT {
                f64::INFINITY
            } else {
                (e.exp() - 1.0) / lambda
            }
        }
    } else if (lambda - 2.0).abs() < 1e-12 {
        -lg
    } else {
        let e = (2.0 - lambda) * lg;
        if e > MAX_EXPONENT {
            f64::NEG_INFINITY
        } else {
            -(e.exp() - 1.0) / (2.0 - lambda)
        }
    }
}

/// One column's λ-independent terms, computed once per fit and reused
/// by every likelihood evaluation of the λ search.
struct LogColumn<'a> {
    col: &'a [f64],
    /// `log1p_abs` of each value.
    logs: Vec<f64>,
    /// `Σ sign(x) ln(1 + |x|)`, the Jacobian before its `(λ - 1)` factor.
    jacobian: f64,
    /// Transform buffer, overwritten by each evaluation.
    buf: Vec<f64>,
}

impl<'a> LogColumn<'a> {
    fn new(col: &'a [f64]) -> LogColumn<'a> {
        let logs: Vec<f64> = col.iter().map(|&x| log1p_abs(x)).collect();
        let jacobian = col.iter().zip(&logs).map(|(&x, &lg)| x.signum() * lg).sum::<f64>();
        LogColumn { col, logs, jacobian, buf: Vec::with_capacity(col.len()) }
    }

    /// Fill the buffer with the column transformed at `lambda`.
    fn transform(&mut self, lambda: f64) {
        self.buf.clear();
        let values = self.col.iter().zip(&self.logs);
        self.buf.extend(values.map(|(&x, &lg)| yeo_johnson_log(x, lg, lambda)));
    }

    /// Yeo-Johnson profile log-likelihood at `lambda` (the scipy
    /// `yeojohnson_llf` objective).
    fn log_likelihood(&mut self, lambda: f64) -> f64 {
        let n = self.col.len() as f64;
        if n < 2.0 {
            return 0.0;
        }
        self.transform(lambda);
        if self.buf.iter().any(|v| !v.is_finite()) {
            return f64::NEG_INFINITY;
        }
        let var = stats::variance(&self.buf);
        if var <= 1e-300 {
            return f64::NEG_INFINITY;
        }
        -n / 2.0 * var.ln() + self.jacobian * (lambda - 1.0)
    }

    /// Maximum-likelihood λ via golden-section search.
    fn optimal_lambda(&mut self) -> f64 {
        // Constant columns: λ is irrelevant; use identity (λ = 1).
        if stats::variance(self.col) <= 1e-300 {
            return 1.0;
        }
        let phi = (5f64.sqrt() - 1.0) / 2.0;
        let (mut a, mut b) = (LAMBDA_LO, LAMBDA_HI);
        let mut c = b - phi * (b - a);
        let mut d = a + phi * (b - a);
        let mut fc = self.log_likelihood(c);
        let mut fd = self.log_likelihood(d);
        for _ in 0..GOLDEN_ITERS {
            if fc > fd {
                b = d;
                d = c;
                fd = fc;
                c = b - phi * (b - a);
                fc = self.log_likelihood(c);
            } else {
                a = c;
                c = d;
                fc = fd;
                d = a + phi * (b - a);
                fd = self.log_likelihood(d);
            }
        }
        (a + b) / 2.0
    }
}

/// Maximum-likelihood λ for one column via golden-section search.
pub fn optimal_lambda(col: &[f64]) -> f64 {
    LogColumn::new(col).optimal_lambda()
}

/// Fitted Yeo-Johnson power transform: per-column λ and (optionally)
/// post-transform standardization statistics.
#[derive(Debug, Clone)]
pub struct FittedPower {
    pub(crate) lambdas: Vec<f64>,
    pub(crate) means: Vec<f64>,
    pub(crate) stds: Vec<f64>,
    pub(crate) standardize: bool,
}

impl FittedPower {
    /// Fit λ per column on the training matrix.
    pub fn fit(x: &Matrix, standardize: bool) -> FittedPower {
        let d = x.ncols();
        let mut lambdas = Vec::with_capacity(d);
        let mut means = vec![0.0; d];
        let mut stds = vec![1.0; d];
        for j in 0..d {
            let col: Vec<f64> = x.col(j).into_iter().filter(|v| v.is_finite()).collect();
            let mut lc = LogColumn::new(&col);
            let lambda = lc.optimal_lambda();
            if standardize {
                lc.transform(lambda);
                let transformed = &mut lc.buf;
                transformed.iter_mut().for_each(|v| *v = clamp_finite(*v));
                means[j] = stats::mean(transformed);
                let s = stats::std_dev(transformed);
                stds[j] = if s > 0.0 { s } else { 1.0 };
            }
            lambdas.push(lambda);
        }
        FittedPower { lambdas, means, stds, standardize }
    }

    /// Per-column fitted exponents.
    pub fn lambdas(&self) -> &[f64] {
        &self.lambdas
    }

    /// Transform a matrix in place.
    pub fn transform(&self, x: &mut Matrix) {
        let cols = x.ncols();
        assert_eq!(cols, self.lambdas.len(), "column count mismatch");
        if cols == 0 {
            return;
        }
        let params = self.lambdas.iter().zip(self.means.iter().zip(&self.stds));
        for row in x.as_mut_slice().chunks_exact_mut(cols) {
            for (v, (&lambda, (&mean, &std))) in row.iter_mut().zip(params.clone()) {
                let mut t = clamp_finite(yeo_johnson(*v, lambda));
                if self.standardize {
                    t = (t - mean) / std;
                }
                *v = t;
            }
        }
    }
}

/// Replace non-finite transform outputs by a large finite sentinel so
/// downstream models never see inf/NaN (can occur when validation data
/// lies far outside the fitted range).
#[inline]
fn clamp_finite(v: f64) -> f64 {
    if v.is_nan() {
        0.0
    } else {
        v.clamp(-1e12, 1e12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofp_linalg::rng::{rng_from_seed, standard_normal};

    #[test]
    fn identity_when_lambda_one() {
        for &x in &[-3.0, -0.5, 0.0, 0.5, 3.0] {
            assert!((yeo_johnson(x, 1.0) - x).abs() < 1e-12);
        }
    }

    #[test]
    fn log_branch_at_lambda_zero() {
        assert!((yeo_johnson(3.0, 0.0) - (4.0_f64).ln()).abs() < 1e-12);
        assert!((yeo_johnson(-3.0, 2.0) + (4.0_f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn continuity_across_lambda_branches() {
        // λ → 0 for x ≥ 0 and λ → 2 for x < 0 must match the log branches.
        assert!((yeo_johnson(2.0, 1e-9) - yeo_johnson(2.0, 0.0)).abs() < 1e-6);
        assert!((yeo_johnson(-2.0, 2.0 - 1e-9) - yeo_johnson(-2.0, 2.0)).abs() < 1e-6);
    }

    #[test]
    fn monotone_in_x() {
        for &lambda in &[-2.0, 0.0, 0.5, 1.0, 2.0, 3.0] {
            let mut prev = f64::NEG_INFINITY;
            for i in -20..=20 {
                let v = yeo_johnson(i as f64 / 4.0, lambda);
                assert!(v >= prev, "not monotone at lambda {lambda}");
                prev = v;
            }
        }
    }

    #[test]
    fn paper_figure1_lambda_and_values() {
        // The paper reports λ ≈ 1.22 for the Figure 1 column and
        // PowerTransformer output (standardized) of -1.72 for x = -1.5.
        let x = Matrix::column_vector(&[-1.5, 1.0, 1.5, 2.5, 3.0, 4.0, 5.0]);
        let fitted = FittedPower::fit(&x, true);
        let lambda = fitted.lambdas()[0];
        assert!((lambda - 1.22).abs() < 0.15, "lambda {lambda}");
        let mut m = x.clone();
        fitted.transform(&mut m);
        let out = m.col(0);
        assert!((out[0] + 1.72).abs() < 0.1, "out {out:?}");
        assert!((out[6] - 1.53).abs() < 0.1, "out {out:?}");
        // Standardized output: zero mean, unit variance.
        assert!(stats::mean(&out).abs() < 1e-9);
        assert!((stats::std_dev(&out) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lognormal_becomes_more_normal() {
        let mut rng = rng_from_seed(3);
        let col: Vec<f64> = (0..2000).map(|_| standard_normal(&mut rng).exp()).collect();
        let before = stats::skewness(&col).abs();
        let x = Matrix::column_vector(&col);
        let fitted = FittedPower::fit(&x, false);
        let mut m = x.clone();
        fitted.transform(&mut m);
        let after = stats::skewness(&m.col(0)).abs();
        assert!(after < before / 3.0, "skew before {before}, after {after}");
        // Right-skewed data must pick a strongly concave transform
        // (λ well below 1; the exact optimum for exp(Z) under the
        // Yeo-Johnson x+1 shift is around -0.85, not 0).
        assert!(fitted.lambdas()[0] < 0.2, "lambda {:?}", fitted.lambdas());
    }

    #[test]
    fn constant_column_passthrough() {
        let x = Matrix::column_vector(&[4.0; 5]);
        let fitted = FittedPower::fit(&x, true);
        let mut m = x.clone();
        fitted.transform(&mut m);
        assert!(m.is_finite());
    }

    #[test]
    fn extreme_values_stay_finite() {
        let x = Matrix::column_vector(&[0.0, 1.0, 1e9, -1e9]);
        let fitted = FittedPower::fit(&x, true);
        let mut m = Matrix::column_vector(&[1e15, -1e15, 5.0, 0.0]);
        fitted.transform(&mut m);
        assert!(m.is_finite());
    }
}
