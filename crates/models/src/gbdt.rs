//! Histogram-based gradient-boosted decision trees (the XGBoost stand-in).
//!
//! Implements the parts of XGBoost that matter for this study: softmax
//! multiclass objective with first/second-order gradients, quantile-sketch
//! feature binning, histogram split finding with the XGBoost gain formula
//! (`0.5 * [G_L²/(H_L+λ) + G_R²/(H_R+λ) - G²/(H+λ)] - γ`), Newton leaf
//! weights, shrinkage, and optional row subsampling. Because binned splits
//! are invariant to monotone per-column transforms, this learner is far
//! less sensitive to feature preprocessing than LR/MLP — reproducing the
//! paper's observation that FP improves XGB in many fewer scenarios.
//!
//! **Kernel invariant.** The per-element float operations and their order
//! are a contract, pinned by `tests/kernels.rs` and every golden and
//! bit-identity suite: an optimization may drop work whose result is
//! provably unchanged, or lay data out so independent operations run side
//! by side, but never reorder a reduction. A change that does needs a
//! recorded accuracy diff over a stored trial matrix (the store diff)
//! first. The layout:
//!
//! - bin codes are column-major, each row's softmax is computed once per
//!   round, and one histogram buffer, filled for all features in one pass
//!   over a node's rows, serves every node of a training run;
//! - a tree's rows live in one index buffer, and each node's range is
//!   partitioned in place, stably, into its children's ranges;
//! - the split scan visits only bin 0 and the occupied bins of each
//!   feature (a bitmap of `cell_h != 0.0`; hessians are floored at
//!   1e-6), scores them in a pass of their own, then takes the first
//!   strict maximum. This is exact: an empty cell adds `(+0.0, +0.0)` to
//!   running sums that start at `+0.0` and so are never `-0.0`, hence a
//!   skipped bin repeats the previous candidate's sums and gain, and the
//!   strict `>` can never choose it;
//! - each sampled row's leaf weight is recorded when its leaf is created,
//!   and the row's score takes it without walking the tree. This is exact
//!   when the edges are sorted, so `code <= bin` ⇔ `v <= edges[bin]` for
//!   finite `v`, and a non-finite `v` goes right both ways. That is
//!   checked once per fit (quantile interpolation could in principle
//!   round an edge out of order; then every row walks the tree). Rows
//!   left out by `subsample < 1` still walk the tree.

use crate::cancel::CancelToken;
use crate::classifier::{Classifier, Trainer};
use autofp_linalg::dist::softmax_inplace;
use autofp_linalg::rng::{derive_seed, rng_from_seed, sample_indices};
use autofp_linalg::Matrix;

/// Hyperparameters for [`Gbdt`].
#[derive(Debug, Clone)]
pub struct GbdtParams {
    /// Boosting rounds at full budget (`n_estimators`).
    pub n_rounds: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Shrinkage (`eta`).
    pub learning_rate: f64,
    /// L2 regularization on leaf weights (`lambda`).
    pub reg_lambda: f64,
    /// Minimum gain to accept a split (`gamma`).
    pub min_split_gain: f64,
    /// Minimum hessian sum per child (`min_child_weight`).
    pub min_child_weight: f64,
    /// Row subsampling fraction per round.
    pub subsample: f64,
    /// Number of histogram bins per feature.
    pub n_bins: usize,
    /// Seed for subsampling.
    pub seed: u64,
}

impl Default for GbdtParams {
    fn default() -> Self {
        GbdtParams {
            n_rounds: 30,
            max_depth: 4,
            learning_rate: 0.3,
            reg_lambda: 1.0,
            min_split_gain: 0.0,
            // XGBoost defaults to 1.0, but with softmax hessians of at
            // most 0.25 per row that forbids any split on nodes under ~4
            // rows; the benchmark runs on scaled-down datasets, so the
            // default here is proportionally lower.
            min_child_weight: 1e-3,
            subsample: 1.0,
            n_bins: 48,
            seed: 0,
        }
    }
}

impl GbdtParams {
    /// Set the subsampling seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[derive(Debug, Clone)]
pub(crate) enum TreeNode {
    Leaf { weight: f64 },
    Split { feature: usize, threshold: f64, left: usize, right: usize },
}

/// One regression tree of the ensemble.
#[derive(Debug, Clone)]
pub(crate) struct RegTree {
    pub(crate) nodes: Vec<TreeNode>,
}

impl RegTree {
    fn predict_row(&self, row: &[f64]) -> f64 {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                TreeNode::Leaf { weight } => return *weight,
                TreeNode::Split { feature, threshold, left, right } => {
                    let v = row.get(*feature).copied().unwrap_or(0.0);
                    i = if v.is_finite() && v <= *threshold { *left } else { *right };
                }
            }
        }
    }
}

/// A trained gradient-boosted tree ensemble.
pub struct Gbdt {
    /// `trees[round][class]`.
    pub(crate) trees: Vec<Vec<RegTree>>,
    pub(crate) n_classes: usize,
    pub(crate) learning_rate: f64,
}

impl Gbdt {
    /// Number of completed boosting rounds.
    pub fn n_rounds(&self) -> usize {
        self.trees.len()
    }

    fn scores(&self, row: &[f64]) -> Vec<f64> {
        let mut f = vec![0.0; self.n_classes];
        for round in &self.trees {
            for (k, tree) in round.iter().enumerate() {
                f[k] += self.learning_rate * tree.predict_row(row);
            }
        }
        f
    }
}

impl Classifier for Gbdt {
    fn predict_row(&self, row: &[f64]) -> usize {
        crate::linear::argmax(&self.scores(row))
    }

    /// Tree by tree over all rows: each row's score for class `k` adds
    /// the trees in the same round order as `Gbdt::scores`.
    fn predict(&self, x: &Matrix) -> Vec<usize> {
        let k = self.n_classes;
        if k == 0 {
            return vec![0; x.nrows()];
        }
        let mut f = vec![0.0; x.nrows() * k];
        for round in &self.trees {
            for (c, tree) in round.iter().enumerate() {
                for (fr, row) in f.chunks_exact_mut(k).zip(x.rows_iter()) {
                    fr[c] += self.learning_rate * tree.predict_row(row);
                }
            }
        }
        f.chunks_exact(k).map(crate::linear::argmax).collect()
    }

    fn predict_proba_row(&self, row: &[f64], n_classes: usize) -> Vec<f64> {
        let mut f = self.scores(row);
        softmax_inplace(&mut f);
        f.resize(n_classes, 0.0);
        f
    }
}

impl GbdtParams {
    /// Train, returning the concrete model type (the [`Trainer`] impl
    /// boxes this; the artifact exporter serializes the ensemble).
    pub fn train_cancellable(
        &self,
        x: &Matrix,
        y: &[usize],
        n_classes: usize,
        budget: f64,
        cancel: &CancelToken,
    ) -> Gbdt {
        let rounds = ((self.n_rounds as f64 * budget.clamp(0.0, 1.0)).round() as usize).max(1);
        let (n, _d) = x.shape();
        assert_eq!(n, y.len());
        let k = n_classes;

        let bins = Bins::fit(x, self.n_bins);
        let binned = bins.apply(x);
        let layout = HistFeature::layout(&binned, &bins);
        let leaves_exact = bins.sorted();
        let mut bufs = GrowBufs::new(n, &layout);

        let mut f = Matrix::zeros(n, k); // raw scores
        let mut probs = Matrix::zeros(n, k); // softmax of `f`, per round
        let mut trees: Vec<Vec<RegTree>> = Vec::with_capacity(rounds);
        let mut grad = vec![0.0; n];
        let mut hess = vec![0.0; n];
        // Rows of this round's sample; the others walk each new tree.
        let mut in_sample = vec![true; n];

        for round in 0..rounds {
            // Cooperative cancellation between boosting rounds; a partial
            // ensemble (at least one round) is a valid model.
            if round > 0 && cancel.is_cancelled() {
                break;
            }
            // Row subsample for this round.
            let rows: Vec<usize> = if self.subsample < 1.0 {
                let m = ((n as f64 * self.subsample).round() as usize).max(1);
                let mut rng = rng_from_seed(derive_seed(self.seed, round as u64));
                let mut idx = sample_indices(&mut rng, n, m);
                idx.sort_unstable();
                in_sample.fill(false);
                for &i in &idx {
                    in_sample[i] = true;
                }
                idx
            } else {
                (0..n).collect()
            };

            // Scores only change once all of a round's class trees are
            // built, so each row's softmax is computed once per round.
            for &i in &rows {
                let p = probs.row_mut(i);
                p.copy_from_slice(f.row(i));
                softmax_inplace(p);
            }
            let mut round_trees = Vec::with_capacity(k);
            for class in 0..k {
                // Softmax gradients for this class.
                for &i in &rows {
                    let p = probs.get(i, class);
                    let target = (y[i] == class) as u8 as f64;
                    grad[i] = p - target;
                    hess[i] = (p * (1.0 - p)).max(1e-6);
                }
                let inputs = TreeInputs {
                    binned: &binned,
                    bins: &bins,
                    layout: &layout,
                    grad: &grad,
                    hess: &hess,
                    params: self,
                };
                let tree = inputs.build(&rows, &mut bufs);
                // This round's gradients are already fixed by `probs`, so
                // the class's scores can take its tree right away: sampled
                // rows add the weight of the leaf they were grown into,
                // the rest walk the tree.
                for (i, (&sampled, &leaf)) in in_sample.iter().zip(&bufs.leaf).enumerate() {
                    let w = if sampled && leaves_exact { leaf } else { tree.predict_row(x.row(i)) };
                    let v = f.get(i, class) + self.learning_rate * w;
                    f.set(i, class, v);
                }
                round_trees.push(tree);
            }
            trees.push(round_trees);
        }
        Gbdt { trees, n_classes: k, learning_rate: self.learning_rate }
    }
}

impl Trainer for GbdtParams {
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
        "XGB"
    }
}

/// Quantile-sketch bin edges per feature.
struct Bins {
    /// `edges[j]` sorted; bin of `v` = count of edges `< v`.
    edges: Vec<Vec<f64>>,
}

impl Bins {
    fn fit(x: &Matrix, n_bins: usize) -> Bins {
        let d = x.ncols();
        let max_edges = n_bins.max(2) - 1;
        let mut edges = Vec::with_capacity(d);
        for j in 0..d {
            let mut col: Vec<f64> = x.col(j).into_iter().filter(|v| v.is_finite()).collect();
            col.sort_by(f64::total_cmp);
            col.dedup();
            let e: Vec<f64> = if col.len() <= max_edges {
                // Midpoints between consecutive distinct values.
                col.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect()
            } else {
                let mut e: Vec<f64> = (1..=max_edges)
                    .map(|i| {
                        let q = i as f64 / (max_edges + 1) as f64;
                        autofp_linalg::stats::quantile_sorted(&col, q)
                    })
                    .collect();
                e.dedup();
                e
            };
            edges.push(e);
        }
        Bins { edges }
    }

    fn bin_of(&self, j: usize, v: f64) -> usize {
        if !v.is_finite() {
            return self.edges[j].len();
        }
        self.edges[j].partition_point(|&e| e < v)
    }

    /// Whether every feature's edges are in order, so that for finite
    /// `v`, `bin_of(j, v) <= b` exactly when `v <= edges[j][b]`.
    fn sorted(&self) -> bool {
        self.edges.iter().all(|e| e.windows(2).all(|w| w[0] <= w[1]))
    }

    /// Number of bins for feature `j`.
    fn n_bins(&self, j: usize) -> usize {
        self.edges[j].len() + 1
    }

    /// Bin codes, column-major: `out[j][i]` is the bin of `x[i][j]`.
    fn apply(&self, x: &Matrix) -> Vec<Vec<u16>> {
        let n = x.nrows();
        let mut out: Vec<Vec<u16>> = self.edges.iter().map(|_| Vec::with_capacity(n)).collect();
        for row in x.rows_iter() {
            for (j, (col, &v)) in out.iter_mut().zip(row).enumerate() {
                col.push(self.bin_of(j, v) as u16);
            }
        }
        out
    }
}

/// What one tree is grown from: column-major bin codes, the bin edges,
/// the splittable features' histogram layout, per-row gradients and
/// hessians, and the hyperparameters.
struct TreeInputs<'a> {
    binned: &'a [Vec<u16>],
    bins: &'a Bins,
    layout: &'a [HistFeature<'a>],
    grad: &'a [f64],
    hess: &'a [f64],
    params: &'a GbdtParams,
}

impl TreeInputs<'_> {
    /// Grow one tree over the (ascending) `rows`, recording each row's
    /// leaf weight in `bufs.leaf`.
    fn build(&self, rows: &[usize], bufs: &mut GrowBufs) -> RegTree {
        // One index buffer per tree: each node owns a contiguous range of
        // it, partitioned in place (stably) into its children's ranges.
        let mut order = rows.to_vec();
        let mut nodes = Vec::new();
        grow(self, &mut order, 0, bufs, &mut nodes);
        RegTree { nodes }
    }
}

/// A splittable feature's bin codes and its slice of the shared (G, H)
/// histogram buffer.
struct HistFeature<'a> {
    j: usize,
    codes: &'a [u16],
    offset: usize,
    nb: usize,
}

impl<'a> HistFeature<'a> {
    /// Every feature with more than one bin, packed back to back.
    fn layout(binned: &'a [Vec<u16>], bins: &Bins) -> Vec<HistFeature<'a>> {
        let mut layout = Vec::new();
        let mut len = 0;
        for (j, codes) in binned.iter().enumerate() {
            let nb = bins.n_bins(j);
            if nb > 1 {
                layout.push(HistFeature { j, codes, offset: len, nb });
                len += nb;
            }
        }
        layout
    }
}

/// Buffers one training run reuses for every tree and node.
struct GrowBufs {
    /// Right-child rows while a node's range is partitioned.
    spill: Vec<usize>,
    /// Leaf weight of each sampled row in the tree grown last.
    leaf: Vec<f64>,
    /// (G, H) per (feature, bin) of the node being split.
    hist: Vec<(f64, f64)>,
    /// Split candidates of that node, compacted over all features: the
    /// histogram index, the running left (G, H), and the gain.
    cand_bin: Vec<usize>,
    cand_sum: Vec<(f64, f64)>,
    cand_gain: Vec<f64>,
    /// End of each layout feature's candidates.
    feature_end: Vec<usize>,
}

impl GrowBufs {
    fn new(n: usize, layout: &[HistFeature]) -> GrowBufs {
        let hist_len = layout.last().map_or(0, |f| f.offset + f.nb);
        GrowBufs {
            spill: vec![0; n],
            leaf: vec![0.0; n],
            hist: vec![(0.0, 0.0); hist_len],
            cand_bin: vec![0; hist_len],
            cand_sum: vec![(0.0, 0.0); hist_len],
            cand_gain: vec![0.0; hist_len],
            feature_end: Vec::with_capacity(layout.len()),
        }
    }
}

fn grow(
    t: &TreeInputs,
    rows: &mut [usize],
    depth: usize,
    bufs: &mut GrowBufs,
    nodes: &mut Vec<TreeNode>,
) -> usize {
    let params = t.params;
    let g: f64 = rows.iter().map(|&i| t.grad[i]).sum();
    let h: f64 = rows.iter().map(|&i| t.hess[i]).sum();
    let leaf_weight = -g / (h + params.reg_lambda);
    let split = if depth >= params.max_depth || rows.len() < 2 {
        None
    } else {
        best_split(t, rows, g, h, bufs)
    };
    let Some((feature, bin)) = split else {
        return leaf(rows, leaf_weight, &mut bufs.leaf, nodes);
    };
    let n_left = partition(rows, &mut bufs.spill, &t.binned[feature], bin);
    if n_left == 0 || n_left == rows.len() {
        return leaf(rows, leaf_weight, &mut bufs.leaf, nodes);
    }
    let threshold = t.bins.edges[feature][bin];
    let id = nodes.len();
    nodes.push(TreeNode::Leaf { weight: 0.0 });
    let (left_rows, right_rows) = rows.split_at_mut(n_left);
    let left = grow(t, left_rows, depth + 1, bufs, nodes);
    let right = grow(t, right_rows, depth + 1, bufs, nodes);
    nodes[id] = TreeNode::Split { feature, threshold, left, right };
    id
}

/// Push a leaf and record its weight for each of its rows.
fn leaf(rows: &[usize], weight: f64, leaf_w: &mut [f64], nodes: &mut Vec<TreeNode>) -> usize {
    for &i in rows {
        leaf_w[i] = weight;
    }
    nodes.push(TreeNode::Leaf { weight });
    nodes.len() - 1
}

/// Stable in-place partition of `rows` into those with `codes[i] <= bin`
/// followed by the rest; returns the number of the former.
fn partition(rows: &mut [usize], spill: &mut [usize], codes: &[u16], bin: usize) -> usize {
    let (mut n_left, mut n_right) = (0, 0);
    for r in 0..rows.len() {
        let i = rows[r];
        let goes_left = (codes[i] as usize <= bin) as usize;
        rows[n_left] = i;
        spill[n_right] = i;
        n_left += goes_left;
        n_right += 1 - goes_left;
    }
    rows[n_left..].copy_from_slice(&spill[..n_right]);
    n_left
}

/// The node's best `(feature, bin)` split, if any gains more than 1e-12:
/// the first strict maximum over features in layout order, bins ascending.
fn best_split(
    t: &TreeInputs,
    rows: &[usize],
    g: f64,
    h: f64,
    bufs: &mut GrowBufs,
) -> Option<(usize, usize)> {
    let params = t.params;
    let GrowBufs { hist, cand_bin, cand_sum, cand_gain, feature_end, .. } = bufs;
    let (hist, cand_bin, cand_sum) = (&mut hist[..], &mut cand_bin[..], &mut cand_sum[..]);
    // Histograms of (G, H) per (feature, bin), all features in one pass
    // over the rows: each cell still sums its rows in row order.
    hist.fill((0.0, 0.0));
    for &i in rows {
        let (gi, hi) = (t.grad[i], t.hess[i]);
        for f in t.layout {
            let cell = &mut hist[f.offset + f.codes[i] as usize];
            cell.0 += gi;
            cell.1 += hi;
        }
    }
    // Candidates: bin 0 of each feature and every later bin holding rows
    // (hessians are floored at 1e-6, so that is `cell_h != 0.0`). An
    // empty cell adds exactly (+0.0, +0.0) to the running sums, which
    // start at +0.0 and so are never -0.0: a skipped bin would repeat the
    // previous candidate's sums and gain, and the strict `>` below could
    // never choose it.
    let mut m = 0;
    feature_end.clear();
    for f in t.layout {
        let (mut gl, mut hl) = (0.0, 0.0);
        for (w, cells) in hist[f.offset..f.offset + f.nb - 1].chunks(64).enumerate() {
            // Occupancy of 64 bins as bits, built without branches; bin 0
            // is always a candidate.
            let mut bits = (w == 0) as u64;
            for (b, &(_, cell_h)) in cells.iter().enumerate() {
                bits |= ((cell_h != 0.0) as u64) << b;
            }
            while bits != 0 {
                let bin = f.offset + w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (cell_g, cell_h) = hist[bin];
                gl += cell_g;
                hl += cell_h;
                cand_bin[m] = bin;
                cand_sum[m] = (gl, hl);
                m += 1;
            }
        }
        feature_end.push(m);
    }
    let (lambda, min_child, min_gain) =
        (params.reg_lambda, params.min_child_weight, params.min_split_gain);
    let parent_score = g * g / (h + lambda);
    let gains = &mut cand_gain[..m];
    for (out, &(gl, hl)) in gains.iter_mut().zip(&cand_sum[..m]) {
        let gr = g - gl;
        let hr = h - hl;
        let gain = 0.5 * (gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - parent_score)
            - min_gain;
        *out = gain_or_neg_inf(gain, !(hl < min_child || hr < min_child));
    }
    // The first strict maximum above 1e-12: the first candidate whose gain
    // equals the largest one. The maximum of non-NaN values is exact in
    // any order, so four running maxima serve; a NaN gain never wins.
    let mut lanes = [1e-12; 4];
    let mut quads = gains.chunks_exact(4);
    for quad in &mut quads {
        for (lane, &gain) in lanes.iter_mut().zip(quad) {
            *lane = if gain > *lane { gain } else { *lane };
        }
    }
    let top = lanes.iter().chain(quads.remainder()).fold(1e-12, |a, &b| if b > a { b } else { a });
    let best = if top > 1e-12 { gains.iter().position(|&gain| gain == top) } else { None };
    best.map(|c| {
        let f = &t.layout[feature_end.partition_point(|&end| end <= c)];
        (f.j, cand_bin[c] - f.offset)
    })
}

/// `gain` if `keep`, else `-inf`; a bit mask rather than a branch, so
/// the gain loop runs straight through.
#[inline]
fn gain_or_neg_inf(gain: f64, keep: bool) -> f64 {
    let mask = 0u64.wrapping_sub(keep as u64);
    f64::from_bits((gain.to_bits() & mask) | (f64::NEG_INFINITY.to_bits() & !mask))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use autofp_data::{Personality, SynthConfig};

    fn clean_personality() -> Personality {
        Personality {
            scale_spread: 0.0,
            skew: 0.0,
            heavy_tail: 0.0,
            sparsity: 0.0,
            class_sep: 2.5,
            label_noise: 0.0,
            informative_frac: 1.0,
            imbalance: 0.0,
        }
    }

    #[test]
    fn learns_nonlinear_xor() {
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![((i * 7) % 20) as f64 / 10.0 - 1.0, ((i * 13) % 20) as f64 / 10.0 - 1.0])
            .collect();
        let y: Vec<usize> = rows.iter().map(|r| ((r[0] > 0.0) ^ (r[1] > 0.0)) as usize).collect();
        let x = Matrix::from_rows(&rows);
        let model = GbdtParams::default().fit(&x, &y, 2);
        let acc = accuracy(&y, &model.predict(&x));
        assert!(acc > 0.95, "acc {acc}");
    }

    #[test]
    fn learns_multiclass() {
        let d = SynthConfig::new("gbdt-mc", 500, 6, 3, 11)
            .with_personality(clean_personality())
            .generate();
        let split = d.stratified_split(0.8, 0);
        let model = GbdtParams::default().fit(&split.train.x, &split.train.y, 3);
        let acc = accuracy(&split.valid.y, &model.predict(&split.valid.x));
        assert!(acc > 0.85, "acc {acc}");
    }

    #[test]
    fn scale_invariance_to_monotone_column_transforms() {
        // Binned splits are invariant to monotone transforms: accuracy on
        // exp-scaled features should match the raw features closely.
        let d = SynthConfig::new("gbdt-scale", 400, 5, 2, 13)
            .with_personality(clean_personality())
            .generate();
        let split = d.stratified_split(0.8, 0);
        let model_raw = GbdtParams::default().fit(&split.train.x, &split.train.y, 2);
        let acc_raw = accuracy(&split.valid.y, &model_raw.predict(&split.valid.x));

        let mono = |m: &Matrix| {
            let mut out = m.clone();
            out.map_inplace(|v| (v.clamp(-20.0, 20.0)).exp() * 1e4);
            out
        };
        let model_t = GbdtParams::default().fit(&mono(&split.train.x), &split.train.y, 2);
        let acc_t = accuracy(&split.valid.y, &model_t.predict(&mono(&split.valid.x)));
        assert!((acc_raw - acc_t).abs() < 0.06, "raw {acc_raw} vs transformed {acc_t}");
    }

    #[test]
    fn budget_controls_rounds() {
        let d = SynthConfig::new("gbdt-b", 200, 4, 2, 17)
            .with_personality(clean_personality())
            .generate();
        let params = GbdtParams { n_rounds: 20, ..Default::default() };
        let cancel = CancelToken::new();
        for (budget, rounds) in [(1.0, 20), (0.1, 2), (0.05, 1)] {
            let model = params.train_cancellable(&d.x, &d.y, 2, budget, &cancel);
            assert_eq!(model.n_rounds(), rounds, "budget {budget}");
            assert!(model.predict(&d.x).iter().all(|&p| p < 2));
        }
    }

    #[test]
    fn constant_features_fall_back_to_prior() {
        let x = Matrix::filled(10, 3, 1.0);
        let y = vec![0, 0, 0, 0, 0, 0, 0, 1, 1, 1];
        let model = GbdtParams::default().fit(&x, &y, 2);
        assert_eq!(model.predict_row(&[1.0, 1.0, 1.0]), 0);
    }

    #[test]
    fn probabilities_are_calibratedish() {
        let x = Matrix::from_rows(&[vec![0.0], vec![0.0], vec![1.0], vec![1.0]]);
        let y = vec![0, 0, 1, 1];
        let model = GbdtParams::default().fit(&x, &y, 2);
        let p0 = model.predict_proba_row(&[0.0], 2);
        let p1 = model.predict_proba_row(&[1.0], 2);
        assert!(p0[0] > 0.7, "{p0:?}");
        assert!(p1[1] > 0.7, "{p1:?}");
        assert!((p0.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn binning_handles_few_distinct_values() {
        let x = Matrix::column_vector(&[0.0, 0.0, 1.0, 1.0, 2.0, 2.0]);
        let bins = Bins::fit(&x, 48);
        assert_eq!(bins.n_bins(0), 3);
        assert_eq!(bins.bin_of(0, 0.0), 0);
        assert_eq!(bins.bin_of(0, 1.0), 1);
        assert_eq!(bins.bin_of(0, 2.0), 2);
        assert_eq!(bins.bin_of(0, -5.0), 0);
        assert_eq!(bins.bin_of(0, 5.0), 2);
    }

    #[test]
    fn partition_is_stable_and_in_place() {
        let codes: Vec<u16> = vec![3, 0, 2, 1, 3, 0, 1, 2];
        let mut rows: Vec<usize> = vec![0, 2, 3, 5, 6, 7];
        let mut spill = vec![0; rows.len()];
        let n_left = partition(&mut rows, &mut spill, &codes, 1);
        assert_eq!(n_left, 3);
        assert_eq!(rows, [3, 5, 6, 0, 2, 7]);
    }

    #[test]
    fn bins_report_edge_order() {
        let x = Matrix::column_vector(&[0.0, 1.0, 2.0, 3.0]);
        let mut bins = Bins::fit(&x, 48);
        assert!(bins.sorted());
        bins.edges[0].swap(0, 1);
        assert!(!bins.sorted());
    }

    #[test]
    fn subsample_training_is_deterministic() {
        let d = SynthConfig::new("gbdt-ss", 300, 5, 2, 23)
            .with_personality(clean_personality())
            .generate();
        let params = GbdtParams { subsample: 0.5, seed: 4, n_rounds: 5, ..Default::default() };
        let a = params.fit(&d.x, &d.y, 2).predict(&d.x);
        let b = params.fit(&d.x, &d.y, 2).predict(&d.x);
        assert_eq!(a, b);
    }
}
