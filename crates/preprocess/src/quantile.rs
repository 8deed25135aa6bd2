//! `QuantileTransformer`: map each column onto its empirical quantiles.
//!
//! Fit stores `n_quantiles` reference values per column (the empirical
//! quantiles at evenly spaced probabilities, scikit-learn's scheme, with
//! `n_quantiles` capped at the number of training rows). Transform maps a
//! value to its interpolated quantile position in `[0, 1]`; with
//! `output = Normal` the position is pushed through the inverse normal
//! CDF. Values outside the fitted range clip to the boundaries, exactly
//! as scikit-learn clips.
//!
//! **Kernel invariant.** A transformed cell is a function of its own value
//! and its column's reference table only, computed by one fixed sequence
//! of float operations: the NaN rule, then the two clips, then the
//! interpolation `((idx - 1) + frac) / (q - 1)` with
//! `idx = refs.partition_point(|&r| r < v)`. The per-element float
//! operations and their order are a contract, pinned by `tests/kernels.rs`
//! and every golden and bit-identity suite. The layout:
//!
//! - the transform walks one column at a time, so that column's
//!   references stay in L1;
//! - it searches blocks of 8 rows side by side with a lockstep lower
//!   bound, whose per-step selects compile to conditional moves and which
//!   returns exactly what `partition_point` returns, unsorted tables
//!   included (it takes the same probe sequence);
//! - the leftover rows of a column go through the scalar path, and both
//!   paths finish a cell through the same `position` helper.

use crate::preproc::OutputDist;
use autofp_linalg::dist::norm_ppf;
use autofp_linalg::stats::quantile_sorted;
use autofp_linalg::Matrix;
use std::hint::select_unpredictable;

/// Rows whose lookups run side by side.
const LANES: usize = 8;

/// Fitted quantile transform (per-column reference quantiles).
#[derive(Debug, Clone)]
pub struct FittedQuantile {
    /// `references[j]` holds the sorted quantile values of column `j`.
    pub(crate) references: Vec<Vec<f64>>,
    pub(crate) output: OutputDist,
}

impl FittedQuantile {
    /// Fit on training features.
    pub fn fit(x: &Matrix, n_quantiles: usize, output: OutputDist) -> FittedQuantile {
        let n = x.nrows();
        let q = n_quantiles.clamp(2, n.max(2));
        let mut references = Vec::with_capacity(x.ncols());
        for j in 0..x.ncols() {
            let mut col: Vec<f64> = x.col(j).into_iter().filter(|v| v.is_finite()).collect();
            col.sort_by(f64::total_cmp);
            let refs: Vec<f64> = if col.is_empty() {
                vec![0.0, 0.0]
            } else {
                (0..q).map(|i| quantile_sorted(&col, i as f64 / (q - 1) as f64)).collect()
            };
            references.push(refs);
        }
        FittedQuantile { references, output }
    }

    /// Number of stored quantiles per column.
    pub fn n_quantiles(&self) -> usize {
        self.references.first().map_or(0, Vec::len)
    }

    /// Transform a matrix in place.
    pub fn transform(&self, x: &mut Matrix) {
        let cols = x.ncols();
        assert_eq!(cols, self.references.len(), "column count mismatch");
        if cols == 0 {
            return;
        }
        let rows = x.nrows();
        let blocked = rows - rows % LANES;
        let data = x.as_mut_slice();
        let out = |pos: f64| match self.output {
            OutputDist::Uniform => pos,
            OutputDist::Normal => norm_ppf(pos),
        };
        for (j, refs) in self.references.iter().enumerate() {
            for start in (0..blocked).step_by(LANES) {
                let cell = |u: usize| (start + u) * cols + j;
                let vals: [f64; LANES] = std::array::from_fn(|u| data[cell(u)]);
                let idx = lower_bound_lanes(refs, &vals);
                for u in 0..LANES {
                    data[cell(u)] = out(position(refs, vals[u], idx[u]));
                }
            }
            for i in blocked..rows {
                let v = &mut data[i * cols + j];
                *v = out(position(refs, *v, refs.partition_point(|&r| r < *v)));
            }
        }
    }
}

/// `refs.partition_point(|&r| r < v)` for every lane of `vals`, in
/// lockstep: the probe sequence of the standard library's binary search
/// (halve the window, keep `mid` when `refs[mid] < v`, then step past a
/// final `refs[base] < v`), with the selects written so they cannot
/// become branches.
#[inline]
fn lower_bound_lanes(refs: &[f64], vals: &[f64; LANES]) -> [usize; LANES] {
    let mut base = [0usize; LANES];
    let mut size = refs.len();
    while size > 1 {
        let half = size / 2;
        for (b, &v) in base.iter_mut().zip(vals) {
            let mid = *b + half;
            *b = select_unpredictable(refs[mid] < v, mid, *b);
        }
        size -= half;
    }
    for (b, &v) in base.iter_mut().zip(vals) {
        *b += usize::from(refs[*b] < v);
    }
    base
}

/// Interpolated quantile position of `v` within sorted `refs`, in `[0, 1]`,
/// given `idx = refs.partition_point(|&r| r < v)`.
#[inline]
fn position(refs: &[f64], v: f64, idx: usize) -> f64 {
    let q = refs.len();
    debug_assert!(q >= 2);
    if v.is_nan() {
        // NaN carries no rank information; map to the median position
        // (downstream models additionally sanitize their inputs).
        return 0.5;
    }
    let lo = refs[0];
    let hi = refs[q - 1];
    if v <= lo {
        return 0.0;
    }
    if v >= hi {
        return 1.0;
    }
    // refs[idx-1] < v <= refs[idx]
    let (a, b) = (refs[idx - 1], refs[idx]);
    let frac = if b > a { (v - a) / (b - a) } else { 0.0 };
    ((idx - 1) as f64 + frac) / (q - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_figure1_uniform() {
        // Column [-1.5, 1, 1.5, 2.5, 3, 4, 5] -> [0, 1/6, ..., 1].
        let x = Matrix::column_vector(&[-1.5, 1.0, 1.5, 2.5, 3.0, 4.0, 5.0]);
        let fitted = FittedQuantile::fit(&x, 1000, OutputDist::Uniform);
        let mut m = x.clone();
        fitted.transform(&mut m);
        for (i, v) in m.col(0).iter().enumerate() {
            assert!((v - i as f64 / 6.0).abs() < 1e-9, "{:?}", m.col(0));
        }
    }

    #[test]
    fn lockstep_lower_bound_is_partition_point() {
        // Sorted, tied and unsorted tables of every length up to 40, and
        // probes at, between and beyond their values.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 9) as f64 - 4.0
        };
        for len in 1..=40 {
            let unsorted: Vec<f64> = (0..len).map(|_| next()).collect();
            let mut sorted = unsorted.clone();
            sorted.sort_by(f64::total_cmp);
            for refs in [&sorted, &unsorted] {
                for step in [0.0, 0.5, -0.0, f64::NAN, 9.0] {
                    let vals: [f64; LANES] = std::array::from_fn(|u| next() + step * u as f64);
                    let want: Vec<usize> =
                        vals.iter().map(|&v| refs.partition_point(|&r| r < v)).collect();
                    assert_eq!(lower_bound_lanes(refs, &vals).to_vec(), want, "{refs:?} {vals:?}");
                }
            }
        }
    }

    #[test]
    fn n_quantiles_capped_at_rows() {
        let x = Matrix::column_vector(&[1.0, 2.0, 3.0]);
        let fitted = FittedQuantile::fit(&x, 1000, OutputDist::Uniform);
        assert_eq!(fitted.n_quantiles(), 3);
    }

    #[test]
    fn out_of_range_clips() {
        let x = Matrix::column_vector(&[0.0, 1.0, 2.0]);
        let fitted = FittedQuantile::fit(&x, 10, OutputDist::Uniform);
        let mut m = Matrix::column_vector(&[-100.0, 100.0, 1.0]);
        fitted.transform(&mut m);
        let out = m.col(0);
        assert_eq!(out[0], 0.0);
        assert_eq!(out[1], 1.0);
        assert!((out[2] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn normal_output_is_probit_of_uniform() {
        let x = Matrix::column_vector(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let fu = FittedQuantile::fit(&x, 5, OutputDist::Uniform);
        let fnorm = FittedQuantile::fit(&x, 5, OutputDist::Normal);
        let mut mu = x.clone();
        let mut mn = x.clone();
        fu.transform(&mut mu);
        fnorm.transform(&mut mn);
        for (u, n) in mu.col(0).iter().zip(mn.col(0)) {
            assert!((norm_ppf(*u) - n).abs() < 1e-9);
            assert!(n.is_finite());
        }
    }

    #[test]
    fn constant_column_maps_to_boundary() {
        let x = Matrix::column_vector(&[7.0; 4]);
        let fitted = FittedQuantile::fit(&x, 10, OutputDist::Uniform);
        let mut m = x.clone();
        fitted.transform(&mut m);
        assert!(m.is_finite());
    }

    #[test]
    fn coarse_quantiles_still_monotone() {
        let x = Matrix::column_vector(&(0..100).map(|i| (i * i) as f64).collect::<Vec<_>>());
        let fitted = FittedQuantile::fit(&x, 10, OutputDist::Uniform);
        let mut m = x.clone();
        fitted.transform(&mut m);
        let out = m.col(0);
        for w in out.windows(2) {
            assert!(w[1] >= w[0], "not monotone");
        }
        assert_eq!(fitted.n_quantiles(), 10);
    }

    #[test]
    fn uniformizes_skewed_data() {
        // Severely skewed input becomes near-uniform: mean ~0.5, low skew.
        let col: Vec<f64> = (1..=1000).map(|i| (i as f64).powi(4)).collect();
        let x = Matrix::column_vector(&col);
        let fitted = FittedQuantile::fit(&x, 1000, OutputDist::Uniform);
        let mut m = x.clone();
        fitted.transform(&mut m);
        let out = m.col(0);
        let mean = autofp_linalg::stats::mean(&out);
        let skew = autofp_linalg::stats::skewness(&out);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        assert!(skew.abs() < 0.05, "skew {skew}");
    }
}
