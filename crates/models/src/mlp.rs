//! One-hidden-layer multilayer perceptron (scikit-learn `MLPClassifier`
//! analogue): ReLU hidden layer, softmax output, minibatch Adam.
//!
//! Like the LR stand-in, the MLP is deliberately trained under a fixed
//! epoch budget with unit-scale He initialization — so unscaled or
//! heavily skewed inputs genuinely hurt it, reproducing the paper's
//! largest FP gains (e.g. +36% on EEG, +69% on Pd with MLP).
//!
//! **Kernel invariant.** The per-element float operations and their order
//! are a contract, pinned by `tests/kernels.rs` and every golden and
//! bit-identity suite: an optimization may drop work whose result is
//! provably unchanged, or lay data out so independent operations run side
//! by side, but never reorder a reduction. A change that does needs a
//! recorded accuracy diff over a stored trial matrix (the store diff)
//! first. The layout:
//!
//! - the training matrix is sanitized once, before the epoch loop;
//! - the hidden weights (and their gradient and Adam state) are
//!   input-major inside training, padded with zero units to whole blocks
//!   of 8, and transposed back at the end, so the artifact layout is
//!   unchanged;
//! - a minibatch runs layer by layer: the hidden layer for the whole
//!   batch in 8-unit register blocks, each unit starting at its bias and
//!   adding the inputs in order; the output logits in 8-row blocks; the
//!   gradients with each cell adding the batch rows in order.
//!
//! The hidden gradient no longer skips inactive units or zero deltas: it
//! adds `0.0 * x = ±0.0` for them (`x` is sanitized, so finite). That is a
//! no-op, because a gradient cell starts at `+0.0` and a sum is `-0.0`
//! only if both terms are, so the cell is never `-0.0`.

use crate::cancel::CancelToken;
use crate::classifier::{Classifier, Trainer};
use crate::linear::{sanitize, sanitized};
use autofp_linalg::dist::softmax_inplace;
use autofp_linalg::rng::{derive_seed, rng_from_seed, standard_normal};
use autofp_linalg::Matrix;
use rand::seq::SliceRandom;

/// Hyperparameters for [`MlpClassifier`] training.
#[derive(Debug, Clone)]
pub struct MlpParams {
    /// Hidden layer width.
    pub hidden: usize,
    /// Full-budget training epochs.
    pub max_epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam step size.
    pub learning_rate: f64,
    /// L2 weight decay.
    pub l2: f64,
    /// Seed for initialization and batch shuffling.
    pub seed: u64,
}

impl Default for MlpParams {
    fn default() -> Self {
        MlpParams {
            hidden: 32,
            max_epochs: 30,
            batch_size: 32,
            learning_rate: 0.01,
            l2: 1e-5,
            seed: 0,
        }
    }
}

impl MlpParams {
    /// Set the initialization/shuffling seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A trained MLP.
pub struct MlpClassifier {
    /// Hidden weights, `hidden x (d + 1)` (last column bias).
    pub(crate) w1: Matrix,
    /// Output weights, `k x (hidden + 1)` (last column bias).
    pub(crate) w2: Matrix,
    pub(crate) n_classes: usize,
}

impl MlpClassifier {
    fn forward(&self, row: &[f64]) -> Vec<f64> {
        let mut hidden = vec![0.0; self.w1.nrows()];
        let mut out = vec![0.0; self.n_classes];
        self.forward_into(row, &mut hidden, &mut out);
        out
    }

    /// [`MlpClassifier::forward`] with caller-owned buffers: `hidden`
    /// (`w1.nrows()` long) takes the hidden activations and `out`
    /// (`n_classes` long) the logits.
    fn forward_into(&self, row: &[f64], hidden: &mut [f64], out: &mut [f64]) {
        let d = self.w1.ncols() - 1;
        let h = self.w1.nrows();
        for (a, wr) in hidden.iter_mut().zip(self.w1.rows_iter()) {
            let mut z = wr[d];
            for (j, &v) in row.iter().enumerate().take(d) {
                z += wr[j] * sanitize(v);
            }
            *a = z.max(0.0); // ReLU
        }
        for (c, zc) in out.iter_mut().enumerate() {
            let wr = self.w2.row(c);
            let mut z = wr[h];
            for (j, &a) in hidden.iter().enumerate() {
                z += wr[j] * a;
            }
            *zc = z;
        }
    }
}

impl Classifier for MlpClassifier {
    fn predict_row(&self, row: &[f64]) -> usize {
        crate::linear::argmax(&self.forward(row))
    }

    fn predict(&self, x: &Matrix) -> Vec<usize> {
        let mut hidden = vec![0.0; self.w1.nrows()];
        let mut out = vec![0.0; self.n_classes];
        x.rows_iter()
            .map(|row| {
                self.forward_into(row, &mut hidden, &mut out);
                crate::linear::argmax(&out)
            })
            .collect()
    }

    fn predict_proba_row(&self, row: &[f64], n_classes: usize) -> Vec<f64> {
        let mut z = self.forward(row);
        softmax_inplace(&mut z);
        z.resize(n_classes, 0.0);
        z
    }
}

/// Adam state for one weight matrix.
struct Adam {
    m: Matrix,
    v: Matrix,
    t: f64,
}

impl Adam {
    fn new(rows: usize, cols: usize) -> Adam {
        Adam { m: Matrix::zeros(rows, cols), v: Matrix::zeros(rows, cols), t: 0.0 }
    }

    fn step(&mut self, w: &mut Matrix, grad: &Matrix, lr: f64) {
        self.t += 1.0;
        let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        let bc1 = 1.0 - b1.powf(self.t);
        let bc2 = 1.0 - b2.powf(self.t);
        let ws = w.as_mut_slice();
        let gs = grad.as_slice();
        let ms = self.m.as_mut_slice();
        let vs = self.v.as_mut_slice();
        for i in 0..ws.len() {
            let g = if gs[i].is_finite() { gs[i] } else { 0.0 };
            ms[i] = b1 * ms[i] + (1.0 - b1) * g;
            vs[i] = b2 * vs[i] + (1.0 - b2) * g * g;
            ws[i] -= lr * (ms[i] / bc1) / ((vs[i] / bc2).sqrt() + eps);
        }
    }
}

/// Hidden units per register block: the forward pass and the hidden
/// gradient work on this many units side by side.
const UNIT_BLOCK: usize = 8;
/// Batch rows per register block of the output layer.
const ROW_BLOCK: usize = 8;

impl MlpParams {
    /// Train, returning the concrete model type (the [`Trainer`] impl
    /// boxes this; the artifact exporter serializes its weights).
    pub fn train_cancellable(
        &self,
        x: &Matrix,
        y: &[usize],
        n_classes: usize,
        budget: f64,
        cancel: &CancelToken,
    ) -> MlpClassifier {
        let (n, d) = x.shape();
        assert_eq!(n, y.len());
        let k = n_classes;
        let h = self.hidden;
        let epochs = ((self.max_epochs as f64 * budget.clamp(0.0, 1.0)).round() as usize).max(1);

        let mut rng = rng_from_seed(derive_seed(self.seed, 0x317));
        // He initialization for the ReLU layer, Xavier-ish for the output.
        let mut w1 = Matrix::zeros(h, d + 1);
        for v in w1.as_mut_slice() {
            *v = standard_normal(&mut rng) * (2.0 / (d.max(1) as f64)).sqrt();
        }
        let mut w2 = Matrix::zeros(k, h + 1);
        for v in w2.as_mut_slice() {
            *v = standard_normal(&mut rng) * (1.0 / (h as f64)).sqrt();
        }

        // Inside training the hidden weights are input-major, `(d + 1) x
        // hp` with the bias last, and padded with zero units to whole
        // blocks. A padded unit's pre-activation is 0, so it is inactive,
        // its gradient is 0 and Adam leaves its weights at 0.
        let hp = h.div_ceil(UNIT_BLOCK) * UNIT_BLOCK;
        let mut w1t = Matrix::zeros(d + 1, hp);
        for (u, wr) in w1.rows_iter().enumerate() {
            for (j, &w) in wr.iter().enumerate() {
                w1t.set(j, u, w);
            }
        }
        let mut adam1 = Adam::new(d + 1, hp);
        let mut adam2 = Adam::new(k, h + 1);
        let mut g1t = Matrix::zeros(d + 1, hp);
        let mut g2 = Matrix::zeros(k, h + 1);
        let xs = sanitized(x);
        let mut order: Vec<usize> = (0..n).collect();
        let batch_size = self.batch_size.max(1);
        // Per batch: the rows, their hidden activations (rows padded to
        // whole row blocks), their output deltas and hidden deltas.
        let mut xb = Matrix::zeros(batch_size, d);
        let mut act = Matrix::zeros(batch_size.div_ceil(ROW_BLOCK) * ROW_BLOCK, hp);
        let mut delta = Matrix::zeros(batch_size, k);
        let mut dhid = Matrix::zeros(batch_size, hp);

        for epoch in 0..epochs {
            // Cooperative cancellation between epochs (first epoch always
            // runs so the weights have seen the data at least once).
            if epoch > 0 && cancel.is_cancelled() {
                break;
            }
            order.shuffle(&mut rng);
            for batch in order.chunks(batch_size) {
                let b = batch.len();
                for (r, &i) in batch.iter().enumerate() {
                    xb.row_mut(r).copy_from_slice(xs.row(i));
                }
                hidden_forward(&xb, b, &w1t, &mut act);
                output_forward(&act, b, h, &w2, &mut delta);
                for (r, &i) in batch.iter().enumerate() {
                    let dr = delta.row_mut(r);
                    softmax_inplace(dr);
                    for (c, v) in dr.iter_mut().enumerate() {
                        *v -= (y[i] == c) as u8 as f64;
                    }
                }
                output_backward(&act, &delta, b, h, &w2, &mut g2, &mut dhid);
                hidden_grad(&xb, &dhid, b, &mut g1t);
                let scale = 1.0 / b as f64;
                for (g, w) in [(&mut g1t, &w1t), (&mut g2, &w2)] {
                    let gs = g.as_mut_slice();
                    let ws = w.as_slice();
                    for (gv, wv) in gs.iter_mut().zip(ws) {
                        *gv = *gv * scale + self.l2 * wv;
                    }
                }
                adam1.step(&mut w1t, &g1t, self.learning_rate);
                adam2.step(&mut w2, &g2, self.learning_rate);
            }
        }
        for u in 0..h {
            for (j, w) in w1.row_mut(u).iter_mut().enumerate() {
                *w = w1t.get(j, u);
            }
        }
        MlpClassifier { w1, w2, n_classes: k }
    }
}

/// Hidden activations of the first `b` rows of `xb`: each unit starts at
/// its bias and adds `w * x` over the inputs in order, then ReLU.
fn hidden_forward(xb: &Matrix, b: usize, w1t: &Matrix, act: &mut Matrix) {
    let d = xb.ncols();
    let bias = w1t.row(d);
    for r in 0..b {
        let row = xb.row(r);
        let out = act.row_mut(r);
        for (ub, out) in out.chunks_exact_mut(UNIT_BLOCK).enumerate() {
            let units = ub * UNIT_BLOCK..(ub + 1) * UNIT_BLOCK;
            let mut z = [0.0; UNIT_BLOCK];
            z.copy_from_slice(&bias[units.clone()]);
            for (j, &v) in row.iter().enumerate() {
                let w = &w1t.row(j)[units.clone()];
                for u in 0..UNIT_BLOCK {
                    z[u] += w[u] * v;
                }
            }
            for (a, z) in out.iter_mut().zip(z) {
                *a = z.max(0.0); // ReLU
            }
        }
    }
}

/// Output logits of the first `b` batch rows into `logits` (`b x k`):
/// each starts at its class bias and adds `w * a` over the `h` units in
/// order, for a block of rows side by side.
fn output_forward(act: &Matrix, b: usize, h: usize, w2: &Matrix, logits: &mut Matrix) {
    for (c, wr) in w2.rows_iter().enumerate() {
        for r0 in (0..b).step_by(ROW_BLOCK) {
            let mut z = [wr[h]; ROW_BLOCK];
            for (jh, &w) in wr[..h].iter().enumerate() {
                for (rr, z) in z.iter_mut().enumerate() {
                    *z += w * act.get(r0 + rr, jh);
                }
            }
            for (rr, &z) in z.iter().enumerate().take(b - r0) {
                logits.set(r0 + rr, c, z);
            }
        }
    }
}

/// Output-layer gradient into `g2` (each cell adds the batch rows in
/// order, skipping zero deltas) and the hidden deltas into `dhid`, zeroed
/// for inactive units.
fn output_backward(
    act: &Matrix,
    delta: &Matrix,
    b: usize,
    h: usize,
    w2: &Matrix,
    g2: &mut Matrix,
    dhid: &mut Matrix,
) {
    for c in 0..g2.nrows() {
        let gr = g2.row_mut(c);
        for ub in 0..act.ncols() / UNIT_BLOCK {
            let units = ub * UNIT_BLOCK..(ub + 1) * UNIT_BLOCK;
            let mut acc = [0.0; UNIT_BLOCK];
            for r in 0..b {
                let dl = delta.get(r, c);
                if dl == 0.0 {
                    continue;
                }
                let a = &act.row(r)[units.clone()];
                for u in 0..UNIT_BLOCK {
                    acc[u] += dl * a[u];
                }
            }
            let end = units.end.min(h);
            gr[units.start..end].copy_from_slice(&acc[..end - units.start]);
        }
        let mut bias = 0.0;
        for r in 0..b {
            let dl = delta.get(r, c);
            if dl != 0.0 {
                bias += dl;
            }
        }
        gr[h] = bias;
    }
    for r in 0..b {
        let dr = dhid.row_mut(r);
        dr.fill(0.0);
        for (c, wr) in w2.rows_iter().enumerate() {
            let dl = delta.get(r, c);
            if dl == 0.0 {
                continue;
            }
            for (dh, &w) in dr.iter_mut().zip(&wr[..h]) {
                *dh += dl * w;
            }
        }
        for (dh, &a) in dr.iter_mut().zip(act.row(r)) {
            *dh = if a > 0.0 { *dh } else { 0.0 };
        }
    }
}

/// Hidden-layer gradient into `g1t` (input-major, bias row last): each
/// cell adds `dh * x` over the batch rows in order, for a block of units
/// side by side.
fn hidden_grad(xb: &Matrix, dhid: &Matrix, b: usize, g1t: &mut Matrix) {
    let d = xb.ncols();
    for j in 0..g1t.nrows() {
        for (ub, out) in g1t.row_mut(j).chunks_exact_mut(UNIT_BLOCK).enumerate() {
            let units = ub * UNIT_BLOCK..(ub + 1) * UNIT_BLOCK;
            let mut acc = [0.0; UNIT_BLOCK];
            for r in 0..b {
                let dh = &dhid.row(r)[units.clone()];
                if j < d {
                    let v = xb.get(r, j);
                    for u in 0..UNIT_BLOCK {
                        acc[u] += dh[u] * v;
                    }
                } else {
                    for u in 0..UNIT_BLOCK {
                        acc[u] += dh[u];
                    }
                }
            }
            out.copy_from_slice(&acc);
        }
    }
}

impl Trainer for MlpParams {
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
        "MLP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use autofp_data::{Personality, SynthConfig};

    #[test]
    fn learns_xor() {
        let rows: Vec<Vec<f64>> = (0..240)
            .map(|i| {
                vec![((i * 7) % 24) as f64 / 12.0 - 1.0, ((i * 11) % 24) as f64 / 12.0 - 1.0]
            })
            .collect();
        let y: Vec<usize> = rows.iter().map(|r| ((r[0] > 0.0) ^ (r[1] > 0.0)) as usize).collect();
        let x = Matrix::from_rows(&rows);
        let params = MlpParams { max_epochs: 120, ..Default::default() };
        let model = params.fit(&x, &y, 2);
        let acc = accuracy(&y, &model.predict(&x));
        assert!(acc > 0.9, "acc {acc}");
    }

    #[test]
    fn deterministic_given_seed() {
        let d = SynthConfig::new("mlp-det", 150, 5, 2, 3).generate();
        let params = MlpParams { max_epochs: 5, seed: 7, ..Default::default() };
        let a = params.fit(&d.x, &d.y, 2).predict(&d.x);
        let b = params.fit(&d.x, &d.y, 2).predict(&d.x);
        assert_eq!(a, b);
    }

    #[test]
    fn scale_sensitivity() {
        let mut p = Personality::default();
        p.scale_spread = 6.0;
        p.skew = 0.5;
        p.class_sep = 2.0;
        p.label_noise = 0.0;
        let d = SynthConfig::new("mlp-scale", 500, 8, 2, 13).with_personality(p).generate();
        let split = d.stratified_split(0.8, 1);
        let params = MlpParams { max_epochs: 15, ..Default::default() };
        let raw = params.fit(&split.train.x, &split.train.y, 2);
        let acc_raw = accuracy(&split.valid.y, &raw.predict(&split.valid.x));

        let scaler = autofp_preprocess::Preproc::StandardScaler { with_mean: true };
        let mut xtr = split.train.x.clone();
        let fitted = scaler.fit_transform(&mut xtr);
        let mut xva = split.valid.x.clone();
        fitted.transform(&mut xva);
        let scaled = params.fit(&xtr, &split.train.y, 2);
        let acc_scaled = accuracy(&split.valid.y, &scaled.predict(&xva));
        assert!(
            acc_scaled > acc_raw + 0.02,
            "scaled {acc_scaled} should beat raw {acc_raw}"
        );
    }

    #[test]
    fn multiclass_probabilities_normalize() {
        let d = SynthConfig::new("mlp-mc", 200, 4, 3, 5).generate();
        let model = MlpParams { max_epochs: 5, ..Default::default() }.fit(&d.x, &d.y, 3);
        let p = model.predict_proba_row(d.x.row(0), 3);
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn survives_pathological_inputs() {
        let x = Matrix::from_rows(&[
            vec![f64::NAN, 1e300],
            vec![f64::NEG_INFINITY, -1e300],
            vec![0.0, 0.0],
            vec![1.0, 1.0],
        ]);
        let y = vec![0, 1, 0, 1];
        let model = MlpParams { max_epochs: 3, ..Default::default() }.fit(&x, &y, 2);
        let preds = model.predict(&x);
        assert!(preds.iter().all(|&p| p < 2));
    }

    #[test]
    fn cancelled_fit_matches_single_epoch() {
        let d = SynthConfig::new("mlp-cancel", 120, 4, 2, 5).generate();
        let params = MlpParams { seed: 3, ..Default::default() };
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let a = params.fit_cancellable(&d.x, &d.y, 2, 1.0, &cancelled).predict(&d.x);
        let b = params.fit_budgeted(&d.x, &d.y, 2, 0.0).predict(&d.x);
        assert_eq!(a, b);
    }

    #[test]
    fn budget_zero_trains_one_epoch() {
        let d = SynthConfig::new("mlp-b", 64, 3, 2, 1).generate();
        let model = MlpParams::default().fit_budgeted(&d.x, &d.y, 2, 0.0);
        assert!(model.predict(&d.x).iter().all(|&p| p < 2));
    }
}
