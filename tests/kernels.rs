//! Bit-identity goldens for the Train and Prep kernels.
//!
//! Every fingerprint below is the FNV-1a hash of canonical bytes: the
//! encoded weights of a trained model (plus its predicted probabilities),
//! or the encoded parameters of a fitted pipeline plus the exact bits of
//! the matrices it produces. The kernels in `crates/models` and
//! `crates/preprocess` promise that an optimization never changes a
//! single per-element float operation or its order; these values are the
//! contract. A change that moves one of them changes results and needs a
//! recorded accuracy diff, not a new golden.
//!
//! The values depend on the platform's `exp`/`ln`/`powf`, and are pinned
//! for Linux (glibc libm), which is what CI runs.

use autofp::core::fnv1a;
use autofp::data::{Dataset, Personality, SynthConfig};
use autofp::linalg::rng::{rng_from_seed, standard_normal};
use autofp::linalg::Matrix;
use autofp::models::artifact::TrainedModel;
use autofp::models::classifier::ModelKind;
use autofp::models::{CancelToken, Classifier, GbdtParams, LogisticParams, MlpParams};
use autofp::preprocess::artifact::encode_pipeline;
use autofp::preprocess::{Norm, OutputDist, Pipeline, Preproc};

/// Little-endian IEEE-754 bytes of every cell, row-major.
fn matrix_bytes(m: &Matrix) -> Vec<u8> {
    m.as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes()).collect()
}

fn wine_like() -> Dataset {
    // The registry's `wine` personality: 11 columns, 7 imbalanced classes.
    let p = Personality {
        scale_spread: 3.0,
        skew: 0.55,
        heavy_tail: 0.3,
        sparsity: 0.0,
        class_sep: 0.7,
        label_noise: 0.12,
        informative_frac: 0.8,
        imbalance: 0.5,
    };
    SynthConfig::new("kernels-wine", 280, 11, 7, 41).with_personality(p).generate()
}

/// A 4-class dataset with NaN, ±inf and 1e300 cells sprinkled in.
fn dirty() -> Dataset {
    let mut d = SynthConfig::new("kernels-dirty", 180, 6, 4, 29).generate();
    let (n, cols) = d.x.shape();
    for i in 0..n {
        let j = (i * 5 + 1) % cols;
        match i % 9 {
            0 => d.x.set(i, j, f64::NAN),
            3 => d.x.set(i, j, f64::INFINITY),
            5 => d.x.set(i, j, f64::NEG_INFINITY),
            7 => d.x.set(i, j, if i % 2 == 0 { 1e300 } else { -1e300 }),
            _ => {}
        }
    }
    d
}

fn datasets() -> Vec<(&'static str, Dataset)> {
    vec![
        ("binary", SynthConfig::new("kernels-bin", 160, 6, 2, 17).generate()),
        ("4class", SynthConfig::new("kernels-4c", 220, 8, 4, 23).generate()),
        ("7class", wine_like()),
        ("dirty", dirty()),
    ]
}

/// Fingerprint of a trained model: its canonical encoding followed by
/// its predicted probabilities on the training rows.
fn model_fp(model: &TrainedModel, d: &Dataset) -> u64 {
    let mut bytes = model.encode();
    let classifier: &dyn Classifier = match model {
        TrainedModel::Lr(m) => m,
        TrainedModel::Xgb(m) => m,
        TrainedModel::Mlp(m) => m,
    };
    for row in d.x.rows_iter() {
        for p in classifier.predict_proba_row(row, d.n_classes) {
            bytes.extend_from_slice(&p.to_bits().to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

fn model_fingerprints() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let cancel = CancelToken::new();
    for (name, d) in datasets() {
        for kind in [ModelKind::Lr, ModelKind::Mlp, ModelKind::Xgb] {
            for budget in [1.0, 0.3] {
                let m = TrainedModel::train(kind, 5, &d.x, &d.y, d.n_classes, budget, &cancel);
                out.push((format!("{kind:?}/{name}/b{budget}"), model_fp(&m, &d)));
            }
        }
        let params = GbdtParams { subsample: 0.6, seed: 9, ..Default::default() };
        let m = TrainedModel::Xgb(params.train_cancellable(&d.x, &d.y, d.n_classes, 1.0, &cancel));
        out.push((format!("Xgb-subsample/{name}"), model_fp(&m, &d)));
    }
    out
}

/// Hyperparameters the kernels branch on and the defaults never reach:
/// more than 64 bins per feature, an empty bin 0 that is still scored
/// (`min_child_weight: 0`), walked and leaf-tracked rows mixed in one
/// round (`subsample < 1`, deeper trees), a hidden width that is not a
/// multiple of the MLP's unit block with a ragged last minibatch, and LR
/// on the 7-class and dirty data with its own step size and L2.
fn edge_model_fingerprints() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let cancel = CancelToken::new();
    for (name, d) in datasets() {
        let (x, y, k) = (&d.x, &d.y, d.n_classes);
        let many_bins = GbdtParams { n_bins: 100, seed: 3, ..Default::default() };
        let m = TrainedModel::Xgb(many_bins.train_cancellable(x, y, k, 1.0, &cancel));
        out.push((format!("Xgb-bins100/{name}"), model_fp(&m, &d)));
        let no_floor = GbdtParams { min_child_weight: 0.0, seed: 3, ..Default::default() };
        let m = TrainedModel::Xgb(no_floor.train_cancellable(x, y, k, 1.0, &cancel));
        out.push((format!("Xgb-mcw0/{name}"), model_fp(&m, &d)));
        for budget in [1.0, 0.3] {
            let mlp = MlpParams { hidden: 13, batch_size: 7, seed: 3, ..Default::default() };
            let m = TrainedModel::Mlp(mlp.train_cancellable(x, y, k, budget, &cancel));
            out.push((format!("Mlp-h13-b7/{name}/b{budget}"), model_fp(&m, &d)));
        }
    }
    let d = wine_like();
    let deep = GbdtParams { subsample: 0.6, max_depth: 6, seed: 11, ..Default::default() };
    let m = TrainedModel::Xgb(deep.train_cancellable(&d.x, &d.y, d.n_classes, 1.0, &cancel));
    out.push(("Xgb-subsample-deep/7class".to_string(), model_fp(&m, &d)));
    for (name, d) in [("7class", wine_like()), ("dirty", dirty())] {
        let lr = LogisticParams { learning_rate: 0.05, l2: 1e-2, ..Default::default() };
        let m = TrainedModel::Lr(lr.train_cancellable(&d.x, &d.y, d.n_classes, 0.3, &cancel));
        out.push((format!("Lr-l2/{name}/b0.3"), model_fp(&m, &d)));
    }
    out
}

/// Columns: mixed-sign, constant, heavy-tailed, non-finite cells,
/// all-negative, mostly-zero, and all non-finite.
fn prep_matrix(rows: usize, seed: u64) -> Matrix {
    let mut rng = rng_from_seed(seed);
    let mut data = Vec::with_capacity(rows * 7);
    for i in 0..rows {
        let z = standard_normal(&mut rng);
        let heavy = standard_normal(&mut rng) / (standard_normal(&mut rng).abs() + 0.05);
        let dirty = match i % 13 {
            0 => f64::NAN,
            4 => f64::INFINITY,
            8 => f64::NEG_INFINITY,
            11 => 1e300,
            _ => standard_normal(&mut rng) * 40.0 + 7.0,
        };
        let negative = -(standard_normal(&mut rng) * 1.5).exp();
        let sparse = if i % 10 < 7 { 0.0 } else { standard_normal(&mut rng) * 1e4 };
        let void = if i % 2 == 0 { f64::NAN } else { f64::NEG_INFINITY };
        data.extend_from_slice(&[z * 2.5 + 0.3, 4.0, heavy, dirty, negative, sparse, void]);
    }
    Matrix::from_vec(rows, 7, data)
}

/// Validation rows: fresh draws plus cells far outside the fitted range.
fn prep_valid() -> Matrix {
    let mut m = prep_matrix(60, 77);
    for i in 0..m.nrows() {
        let j = i % 7;
        match i % 5 {
            0 => m.set(i, j, 1e15),
            2 => m.set(i, j, -1e15),
            4 => m.set(i, j, f64::NAN),
            _ => {}
        }
    }
    m
}

fn pipelines() -> Vec<(&'static str, Pipeline)> {
    let one = |p: Preproc| Pipeline::new(vec![p]);
    vec![
        ("power", one(Preproc::PowerTransformer { standardize: true })),
        ("power-raw", one(Preproc::PowerTransformer { standardize: false })),
        (
            "quantile",
            one(Preproc::QuantileTransformer { n_quantiles: 1000, output: OutputDist::Uniform }),
        ),
        (
            "quantile-normal",
            one(Preproc::QuantileTransformer { n_quantiles: 10, output: OutputDist::Normal }),
        ),
        ("maxabs", one(Preproc::MaxAbsScaler)),
        ("minmax", one(Preproc::MinMaxScaler)),
        ("standard", one(Preproc::StandardScaler { with_mean: true })),
        ("standard-nomean", one(Preproc::StandardScaler { with_mean: false })),
        ("binarizer", one(Preproc::Binarizer { threshold: 0.0 })),
        ("normalizer", one(Preproc::Normalizer { norm: Norm::L2 })),
        (
            "chain",
            Pipeline::new(vec![
                Preproc::StandardScaler { with_mean: true },
                Preproc::PowerTransformer { standardize: true },
                Preproc::QuantileTransformer { n_quantiles: 1000, output: OutputDist::Uniform },
                Preproc::MinMaxScaler,
            ]),
        ),
        (
            "chain-rev",
            Pipeline::new(vec![
                Preproc::MaxAbsScaler,
                Preproc::PowerTransformer { standardize: false },
                Preproc::StandardScaler { with_mean: false },
            ]),
        ),
    ]
}

/// Per pipeline: encoded fitted parameters, fitted training output, and
/// the transform of unseen rows.
fn prep_fingerprints() -> Vec<(String, u64)> {
    let train = prep_matrix(150, 3);
    let valid = prep_valid();
    let mut out = Vec::new();
    for (name, p) in pipelines() {
        let (fitted, xt) = p.fit_transform(&train);
        out.push((format!("{name}/params"), fnv1a(&encode_pipeline(&fitted))));
        out.push((format!("{name}/train"), fnv1a(&matrix_bytes(&xt))));
        out.push((format!("{name}/valid"), fnv1a(&matrix_bytes(&fitted.transform_new(&valid)))));
    }
    out
}

fn check(actual: Vec<(String, u64)>, golden: &[(&str, u64)]) {
    let table: String =
        actual.iter().map(|(k, v)| format!("    (\"{k}\", 0x{v:016x}),\n")).collect();
    let got: Vec<(&str, u64)> = actual.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    assert!(got == golden, "kernel fingerprints moved; actual table:\n{table}");
}

#[test]
fn model_kernels_are_bit_identical() {
    check(model_fingerprints(), MODEL_GOLDEN);
}

#[test]
fn model_kernel_edge_cases_are_bit_identical() {
    check(edge_model_fingerprints(), EDGE_MODEL_GOLDEN);
}

#[test]
fn prep_kernels_are_bit_identical() {
    check(prep_fingerprints(), PREP_GOLDEN);
}

/// A batched `predict` equals `predict_row` over the rows, for every model
/// family on every dataset and budget, both on the concrete model and
/// through the `TrainedModel` dispatch the serve engine calls. The
/// goldens above read probabilities row by row, so this pins the batched
/// path to them.
#[test]
fn batched_predict_equals_row_by_row() {
    let cancel = CancelToken::new();
    for (name, d) in datasets() {
        let empty = Matrix::zeros(0, d.x.ncols());
        for kind in [ModelKind::Lr, ModelKind::Mlp, ModelKind::Xgb] {
            for budget in [1.0, 0.3] {
                let model = TrainedModel::train(kind, 5, &d.x, &d.y, d.n_classes, budget, &cancel);
                let concrete: &dyn Classifier = match &model {
                    TrainedModel::Lr(m) => m,
                    TrainedModel::Xgb(m) => m,
                    TrainedModel::Mlp(m) => m,
                };
                let via_enum: &dyn Classifier = &model;
                for (path, m) in [("concrete", concrete), ("TrainedModel", via_enum)] {
                    let rows: Vec<usize> = d.x.rows_iter().map(|r| m.predict_row(r)).collect();
                    let tag = format!("{kind:?}/{name}/b{budget}/{path}");
                    assert_eq!(m.predict(&d.x), rows, "{tag}");
                    assert_eq!(m.predict(&empty), Vec::<usize>::new(), "{tag}/0 rows");
                }
            }
        }
    }
}

const MODEL_GOLDEN: &[(&str, u64)] = &[
    ("Lr/binary/b1", 0xbd6b2774e95a3c8e),
    ("Lr/binary/b0.3", 0x78f068686cc12448),
    ("Mlp/binary/b1", 0x235d30c7fe3d89c9),
    ("Mlp/binary/b0.3", 0xc08c69bcdbe216ed),
    ("Xgb/binary/b1", 0x9a9d8216df18405a),
    ("Xgb/binary/b0.3", 0xdc2b7fb6d4531f77),
    ("Xgb-subsample/binary", 0x95a94b7b6826143c),
    ("Lr/4class/b1", 0xa89cf6f430ddbda2),
    ("Lr/4class/b0.3", 0x144bdc2284996520),
    ("Mlp/4class/b1", 0x795e9dcde1fb70be),
    ("Mlp/4class/b0.3", 0x7180b8ed4bb1588b),
    ("Xgb/4class/b1", 0x0768c0c52fcad27a),
    ("Xgb/4class/b0.3", 0xbf70aec4a47aa07f),
    ("Xgb-subsample/4class", 0xa3749f3f7aa82348),
    ("Lr/7class/b1", 0xfdc41f9bf07157c6),
    ("Lr/7class/b0.3", 0xc2832ad45c818248),
    ("Mlp/7class/b1", 0xffe73de77452f646),
    ("Mlp/7class/b0.3", 0x6b46fc289278fb07),
    ("Xgb/7class/b1", 0x7747b0ee62124b0d),
    ("Xgb/7class/b0.3", 0x41a9a663492d1ec2),
    ("Xgb-subsample/7class", 0xccf8ad1b1a8b52e0),
    ("Lr/dirty/b1", 0x0ed161b7f54dfba7),
    ("Lr/dirty/b0.3", 0xab679f305527b3e6),
    ("Mlp/dirty/b1", 0xb56872b75dd56043),
    ("Mlp/dirty/b0.3", 0x026c0afeecc8ee63),
    ("Xgb/dirty/b1", 0x0bb93050a3ddb399),
    ("Xgb/dirty/b0.3", 0xdecb286659865829),
    ("Xgb-subsample/dirty", 0x1f9e9cf57b2a4802),
];

const EDGE_MODEL_GOLDEN: &[(&str, u64)] = &[
    ("Xgb-bins100/binary", 0x0e0b8a893fd4bf41),
    ("Xgb-mcw0/binary", 0x9a9d8216df18405a),
    ("Mlp-h13-b7/binary/b1", 0x8c74503c0d1e9628),
    ("Mlp-h13-b7/binary/b0.3", 0x32c7baae07437612),
    ("Xgb-bins100/4class", 0xec67f3611b44e22c),
    ("Xgb-mcw0/4class", 0x0dff819624790151),
    ("Mlp-h13-b7/4class/b1", 0x4678a55edbc398a2),
    ("Mlp-h13-b7/4class/b0.3", 0x497d39addde3e6fc),
    ("Xgb-bins100/7class", 0xdb4c2299a8a59be6),
    ("Xgb-mcw0/7class", 0x07b6267a240ec01a),
    ("Mlp-h13-b7/7class/b1", 0xd3fa291ddaa3d89a),
    ("Mlp-h13-b7/7class/b0.3", 0xec94534093389278),
    ("Xgb-bins100/dirty", 0x23c928f694e6236d),
    ("Xgb-mcw0/dirty", 0x400569380c4a9240),
    ("Mlp-h13-b7/dirty/b1", 0x7dc6fe9d56cd6221),
    ("Mlp-h13-b7/dirty/b0.3", 0xbd1f92e1431f7b42),
    ("Xgb-subsample-deep/7class", 0x20f65a34f391c6d5),
    ("Lr-l2/7class/b0.3", 0xb31af5837b221342),
    ("Lr-l2/dirty/b0.3", 0x3e4fc87adf409a02),
];

const PREP_GOLDEN: &[(&str, u64)] = &[
    ("power/params", 0x46f44e240f974304),
    ("power/train", 0x3357af96139bec24),
    ("power/valid", 0x2ac963869665495a),
    ("power-raw/params", 0x7ac4adb6269ce560),
    ("power-raw/train", 0x8af5c80d5612be50),
    ("power-raw/valid", 0xbd1c2e93b3a1537f),
    ("quantile/params", 0xdfc955b46dab25a4),
    ("quantile/train", 0xa2eeee54858554b6),
    ("quantile/valid", 0xb845b973a438a6c5),
    ("quantile-normal/params", 0x81137b611887a957),
    ("quantile-normal/train", 0x3ad787f6d570b71d),
    ("quantile-normal/valid", 0xcbc3b2a632279544),
    ("maxabs/params", 0x3ad450f3bf9da035),
    ("maxabs/train", 0xb464a45c65f5b07e),
    ("maxabs/valid", 0x399988c9c209780c),
    ("minmax/params", 0x3bdd19ffbc62b298),
    ("minmax/train", 0x1aad92ffdf4b27da),
    ("minmax/valid", 0x8257b20d212055a9),
    ("standard/params", 0x317610ec70380df8),
    ("standard/train", 0xbb1e09ed4666457c),
    ("standard/valid", 0xf298f6fb991bc1fe),
    ("standard-nomean/params", 0xb008ca4d69d6359d),
    ("standard-nomean/train", 0xcd67d6ded577eb43),
    ("standard-nomean/valid", 0x602ddb2125039319),
    ("binarizer/params", 0xeca4bd251670946c),
    ("binarizer/train", 0xb54bf0dad3316f58),
    ("binarizer/valid", 0x2ef3aa48e0b79525),
    ("normalizer/params", 0xfb58c9c73bb452cc),
    ("normalizer/train", 0x390f7b725b0955ad),
    ("normalizer/valid", 0x57eca5f59aeee2cf),
    ("chain/params", 0x8cacb49ca348b8b7),
    ("chain/train", 0x3fe915c7dbc8a200),
    ("chain/valid", 0xd748bd89e519df20),
    ("chain-rev/params", 0xf706e4f7b985cea3),
    ("chain-rev/train", 0x02906d6251ca8d48),
    ("chain-rev/valid", 0x3104d9ae5660774b),
];
