//! Randomized property tests on the core invariants: preprocessor
//! output ranges, pipeline totality, mutation bounds, metric ranges,
//! rank consistency, and the byte codecs' canonical round trips and
//! totality — over seeded random data.
//!
//! The original suite used `proptest`; the offline build environment
//! cannot fetch it, so each property is exercised over a fixed number of
//! deterministically seeded random cases instead. Shrinking is lost,
//! but every case is reproducible from its printed seed.

use autofp::core::{FailureKind, Trial};
use autofp::linalg::rng::rng_from_seed;
use autofp::linalg::stats::average_ranks;
use autofp::linalg::Matrix;
use autofp::models::classifier::ModelKind;
use autofp::models::metrics::{accuracy, auc_binary};
use autofp::preprocess::{Norm, OutputDist, ParamSpace, Pipeline, Preproc, PreprocKind};
use rand::rngs::StdRng;
use rand::Rng;
use std::time::Duration;

const CASES: u64 = 64;

/// A small matrix of finite floats in a bounded range.
fn small_matrix(rng: &mut StdRng) -> Matrix {
    let rows = rng.gen_range(2..12usize);
    let cols = rng.gen_range(1..6usize);
    let data: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(-1e6..1e6)).collect();
    Matrix::from_vec(rows, cols, data)
}

/// A pipeline of up to 4 default-parameter steps.
fn small_pipeline(rng: &mut StdRng) -> Pipeline {
    let len = rng.gen_range(1..5usize);
    let kinds: Vec<PreprocKind> =
        (0..len).map(|_| PreprocKind::from_index(rng.gen_range(0..7usize))).collect();
    Pipeline::from_kinds(&kinds)
}

/// Run `body` over `CASES` deterministically seeded cases.
fn for_cases(test_seed: u64, mut body: impl FnMut(&mut StdRng)) {
    for case in 0..CASES {
        let seed = autofp::linalg::rng::derive_seed(test_seed, case);
        let mut rng = rng_from_seed(seed);
        body(&mut rng);
    }
}

#[test]
fn any_pipeline_on_any_data_stays_finite() {
    for_cases(0xA1, |rng| {
        let x = small_matrix(rng);
        let p = small_pipeline(rng);
        let (fitted, train_out) = p.fit_transform(&x);
        assert!(train_out.is_finite(), "train output not finite for {p}");
        assert_eq!(train_out.shape(), x.shape());
        // Transforming fresh data through the fitted chain also stays finite.
        let mut other = x.clone();
        other.map_inplace(|v| v * 0.5 + 1.0);
        fitted.transform(&mut other);
        assert!(other.is_finite(), "valid output not finite for {p}");
    });
}

#[test]
fn minmax_maps_training_data_into_unit_interval() {
    for_cases(0xA2, |rng| {
        let x = small_matrix(rng);
        let mut m = x.clone();
        Preproc::MinMaxScaler.fit(&x).transform(&mut m);
        for &v in m.as_slice() {
            assert!((-1e-9..=1.0 + 1e-9).contains(&v), "minmax value {v}");
        }
    });
}

#[test]
fn maxabs_maps_training_data_into_unit_ball() {
    for_cases(0xA3, |rng| {
        let x = small_matrix(rng);
        let mut m = x.clone();
        Preproc::MaxAbsScaler.fit(&x).transform(&mut m);
        for &v in m.as_slice() {
            assert!(v.abs() <= 1.0 + 1e-9, "maxabs value {v}");
        }
    });
}

#[test]
fn binarizer_outputs_zero_or_one() {
    for_cases(0xA4, |rng| {
        let x = small_matrix(rng);
        let threshold = rng.gen_range(-10.0..10.0);
        let mut m = x.clone();
        Preproc::Binarizer { threshold }.fit(&x).transform(&mut m);
        for &v in m.as_slice() {
            assert!(v == 0.0 || v == 1.0);
        }
    });
}

#[test]
fn normalizer_rows_have_unit_norm_or_zero() {
    for_cases(0xA5, |rng| {
        let x = small_matrix(rng);
        let mut m = x.clone();
        Preproc::default_for(PreprocKind::Normalizer).fit(&x).transform(&mut m);
        for row in m.rows_iter() {
            let n = autofp::linalg::matrix::norm_l2(row);
            assert!(n < 1e-9 || (n - 1.0).abs() < 1e-9, "row norm {n}");
        }
    });
}

#[test]
fn quantile_uniform_output_in_unit_interval() {
    for_cases(0xA6, |rng| {
        let x = small_matrix(rng);
        let mut m = x.clone();
        Preproc::default_for(PreprocKind::QuantileTransformer).fit(&x).transform(&mut m);
        for &v in m.as_slice() {
            assert!((0.0..=1.0).contains(&v), "quantile value {v}");
        }
    });
}

#[test]
fn standard_scaler_train_columns_are_standardized() {
    for_cases(0xA7, |rng| {
        let x = small_matrix(rng);
        let mut m = x.clone();
        Preproc::StandardScaler { with_mean: true }.fit(&x).transform(&mut m);
        for j in 0..m.ncols() {
            let col = m.col(j);
            let mean = autofp::linalg::stats::mean(&col);
            let std = autofp::linalg::stats::std_dev(&col);
            assert!(mean.abs() < 1e-6, "col mean {mean}");
            // Constant columns keep std 0; others become ~1.
            assert!(std < 1e-9 || (std - 1.0).abs() < 1e-6, "col std {std}");
        }
    });
}

#[test]
fn power_transform_is_monotone_per_column() {
    for_cases(0xA8, |rng| {
        let x = small_matrix(rng);
        let fitted = Preproc::PowerTransformer { standardize: false }.fit(&x);
        let mut m = x.clone();
        fitted.transform(&mut m);
        for j in 0..x.ncols() {
            let orig = x.col(j);
            let out = m.col(j);
            let mut pairs: Vec<(f64, f64)> = orig.into_iter().zip(out).collect();
            pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in pairs.windows(2) {
                assert!(w[1].1 >= w[0].1 - 1e-9, "non-monotone in column {j}");
            }
        }
    });
}

/// Every parameterization the transforms branch on, with quantile tables
/// of 2 references, of fewer than the training rows, and capped at them.
fn every_preproc() -> Vec<Preproc> {
    let mut all = vec![
        Preproc::Binarizer { threshold: 0.0 },
        Preproc::MaxAbsScaler,
        Preproc::MinMaxScaler,
        Preproc::PowerTransformer { standardize: true },
        Preproc::PowerTransformer { standardize: false },
        Preproc::StandardScaler { with_mean: true },
        Preproc::StandardScaler { with_mean: false },
    ];
    all.extend([Norm::L1, Norm::L2, Norm::Max].map(|norm| Preproc::Normalizer { norm }));
    for output in [OutputDist::Uniform, OutputDist::Normal] {
        for n_quantiles in [2, 5, 1000] {
            all.push(Preproc::QuantileTransformer { n_quantiles, output });
        }
    }
    all
}

/// Training columns: ties, continuous, all non-finite (quantile refs
/// `[0, 0]`), and constant.
fn tied_training_matrix(rng: &mut StdRng) -> Matrix {
    let rows = rng.gen_range(2..30usize);
    let ties = [-1.0, 0.0, 0.0, 2.0, 2.0, 2.0, 5.0];
    let non_finite = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let mut data = Vec::with_capacity(rows * 4);
    for _ in 0..rows {
        data.push(ties[rng.gen_range(0..ties.len())]);
        data.push(rng.gen_range(-50.0..50.0));
        data.push(non_finite[rng.gen_range(0..non_finite.len())]);
        data.push(3.0);
    }
    Matrix::from_vec(rows, 4, data)
}

/// A cell to transform: a training value (so equal to a reference), a
/// midpoint between two of them, a value outside the fitted range, or
/// one of NaN, ±0.0, ±inf and ±1e300.
fn probe_value(rng: &mut StdRng, train: &Matrix) -> f64 {
    let cells = train.as_slice();
    let pick = |rng: &mut StdRng| cells[rng.gen_range(0..cells.len())];
    let special = [
        f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e300,
        -1e300,
    ];
    match rng.gen_range(0..5u32) {
        0 => pick(rng),
        1 => (pick(rng) + pick(rng)) / 2.0,
        2 => pick(rng) * 100.0 + if rng.gen_range(0..2u32) == 0 { 60.0 } else { -60.0 },
        3 => special[rng.gen_range(0..special.len())],
        _ => rng.gen_range(-60.0..60.0),
    }
}

/// Transforming `n` rows together equals transforming each row alone,
/// bit for bit, for every fitted preprocessor and every `n` in `0..=25`
/// (every tail length of a blocked kernel; a single row takes the
/// scalar path).
#[test]
fn every_transform_is_row_independent() {
    for_cases(0xAF, |rng| {
        let train = tied_training_matrix(rng);
        let cols = train.ncols();
        for p in every_preproc() {
            let fitted = p.fit(&train);
            for n in 0..=25usize {
                let data: Vec<f64> = (0..n * cols).map(|_| probe_value(rng, &train)).collect();
                let x = Matrix::from_vec(n, cols, data);
                let mut whole = x.clone();
                fitted.transform(&mut whole);
                for (i, row) in x.rows_iter().enumerate() {
                    let mut alone = Matrix::from_vec(1, cols, row.to_vec());
                    fitted.transform(&mut alone);
                    let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(whole.row(i)),
                        bits(alone.row(0)),
                        "{p:?}, row {i} of {n}: input {row:?}"
                    );
                }
            }
        }
    });
}

#[test]
fn mutation_preserves_length_bounds() {
    for_cases(0xA9, |rng| {
        let len = rng.gen_range(1..7usize);
        let kinds: Vec<PreprocKind> =
            (0..len).map(|_| PreprocKind::from_index(rng.gen_range(0..7usize))).collect();
        let p = Pipeline::from_kinds(&kinds);
        let space = ParamSpace::default_space();
        let seed = rng.gen_range(0..1000u64);
        let mut mrng = rng_from_seed(seed);
        let m = autofp::search::mutation::mutate(&p, &space, 7, &mut mrng);
        assert!(!m.is_empty() && m.len() <= 7);
    });
}

#[test]
fn accuracy_is_bounded_and_complements_error() {
    for_cases(0xAA, |rng| {
        let n = rng.gen_range(1..40usize);
        let labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0..3usize)).collect();
        let preds: Vec<usize> = (0..n).map(|_| rng.gen_range(0..3usize)).collect();
        let acc = accuracy(&labels, &preds);
        assert!((0.0..=1.0).contains(&acc));
        let err = autofp::models::metrics::error_rate(&labels, &preds);
        assert!((acc + err - 1.0).abs() < 1e-12);
    });
}

#[test]
fn auc_is_invariant_to_monotone_score_transforms() {
    for_cases(0xAB, |rng| {
        let n = rng.gen_range(4..30usize);
        let labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0..2usize)).collect();
        let scores: Vec<f64> = (0..n).map(|_| rng.gen_range(-100.0..100.0)).collect();
        let a1 = auc_binary(&labels, &scores);
        let transformed: Vec<f64> = scores.iter().map(|s| s.exp().min(1e300)).collect();
        let a2 = auc_binary(&labels, &transformed);
        assert!((a1 - a2).abs() < 1e-9, "{a1} vs {a2}");
    });
}

#[test]
fn ranks_sum_is_invariant() {
    for_cases(0xAC, |rng| {
        let n = rng.gen_range(1..20usize);
        let values: Vec<f64> = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let ranks = average_ranks(&values);
        let n = values.len() as f64;
        let expected = n * (n + 1.0) / 2.0;
        assert!((ranks.iter().sum::<f64>() - expected).abs() < 1e-9);
    });
}

#[test]
fn pipeline_encoding_width_is_stable() {
    for_cases(0xAD, |rng| {
        let p = small_pipeline(rng);
        let max_len = rng.gen_range(4..9usize);
        let e = autofp::preprocess::encoding::encode_pipeline(&p, max_len);
        assert_eq!(e.len(), autofp::preprocess::encoding::encoding_width(max_len));
        assert!(e.iter().all(|v| v.is_finite()));
    });
}

/// Any bit pattern, NaNs and infinities included: the codecs carry
/// floats as raw bits, so every pattern must round-trip.
fn any_f64(rng: &mut StdRng) -> f64 {
    f64::from_bits(rng.gen::<u64>())
}

/// A pipeline of up to 7 steps drawing every `Preproc` variant with
/// random parameters.
fn random_pipeline(rng: &mut StdRng) -> Pipeline {
    let norms = [Norm::L1, Norm::L2, Norm::Max];
    let steps = (0..rng.gen_range(0..8usize))
        .map(|_| match rng.gen_range(0..7usize) {
            0 => Preproc::Binarizer { threshold: any_f64(rng) },
            1 => Preproc::MaxAbsScaler,
            2 => Preproc::MinMaxScaler,
            3 => Preproc::Normalizer { norm: norms[rng.gen_range(0..3usize)] },
            4 => Preproc::PowerTransformer { standardize: rng.gen() },
            5 => Preproc::QuantileTransformer {
                n_quantiles: rng.gen::<u32>() as usize,
                output: if rng.gen() { OutputDist::Uniform } else { OutputDist::Normal },
            },
            _ => Preproc::StandardScaler { with_mean: rng.gen() },
        })
        .collect();
    Pipeline::new(steps)
}

/// A trial over a random pipeline, failed with any `FailureKind` or
/// successful.
fn random_trial(rng: &mut StdRng) -> Trial {
    let failure = match rng.gen_range(0..=FailureKind::ALL.len()) {
        i if i < FailureKind::ALL.len() => Some(FailureKind::ALL[i]),
        _ => None,
    };
    Trial {
        pipeline: random_pipeline(rng),
        accuracy: any_f64(rng),
        error: any_f64(rng),
        prep_time: Duration::from_nanos(rng.gen()),
        train_time: Duration::from_nanos(rng.gen()),
        train_fraction: any_f64(rng),
        failure,
    }
}

#[test]
fn evald_messages_round_trip_random_pipelines_and_trials_bit_exactly() {
    use autofp::evald::wire::{decode_request, decode_response, encode_request, encode_response};
    use autofp::evald::{EvalContext, Request, Response, WorkerStats};
    let mut failures_seen = [false; 7];
    for_cases(0xAE, |rng| {
        let ctx = EvalContext {
            dataset: format!("ds-{}", rng.gen::<u32>()),
            scale: any_f64(rng),
            model: ModelKind::ALL[rng.gen_range(0..3usize)],
            train_fraction: any_f64(rng),
            seed: rng.gen(),
            train_subsample: if rng.gen() { Some(rng.gen()) } else { None },
        };
        let req = Request::Eval { ctx, pipeline: random_pipeline(rng), fraction: any_f64(rng) };
        let bytes = encode_request(&req);
        let back = decode_request(&bytes).expect("an encoded request decodes");
        assert_eq!(encode_request(&back), bytes, "{req:?}");

        let trial = random_trial(rng);
        failures_seen[trial.failure.map_or(6, FailureKind::index)] = true;
        let stats = WorkerStats { served: rng.gen(), ..WorkerStats::default() };
        let resp = Response::Trial { trial, stats };
        let bytes = encode_response(&resp);
        let back = decode_response(&bytes).expect("an encoded response decodes");
        assert_eq!(encode_response(&back), bytes, "{resp:?}");
    });
    assert!(failures_seen.iter().all(|&s| s), "every kind and None drawn: {failures_seen:?}");
}

#[test]
fn random_bytes_never_panic_any_decoder() {
    use autofp::core::{fnv1a, TrialStore};
    use autofp::models::TrainedModel;
    use autofp::preprocess::artifact::{decode_pipeline, decode_step};
    use autofp::serve::ServeArtifact;
    // Checksum-valid framing around random payloads, so the record
    // decoders behind the store and artifact checksums see them too.
    fn framed(magic: &[u8], payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut out = magic.to_vec();
        for p in payloads {
            out.extend_from_slice(&(p.len() as u32).to_le_bytes());
            out.extend_from_slice(p);
            out.extend_from_slice(&fnv1a(p).to_le_bytes());
        }
        out
    }
    let dir = std::env::temp_dir().join(format!("autofp-props-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let segment = dir.join("seg.log");
    for_cases(0xAF, |rng| {
        let len = rng.gen_range(0..96usize);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
        // A leading valid tag makes the deeper branches reachable.
        let mut tagged = bytes.clone();
        tagged.insert(0, rng.gen_range(0..8u8));
        for b in [&bytes, &tagged] {
            let _ = autofp::evald::wire::decode_request(b);
            let _ = autofp::evald::wire::decode_response(b);
            let _ = autofp::serve::wire::decode_request(b);
            let _ = autofp::serve::wire::decode_response(b);
            let _ = decode_pipeline(b);
            let _ = decode_step(b);
            let _ = TrainedModel::decode(b);
            let _ = ServeArtifact::decode(b);
        }
        let records = [tagged.clone(), bytes.clone(), tagged.clone()];
        let _ = ServeArtifact::decode(&framed(b"AFPSERV1", &records));
        std::fs::write(&segment, framed(b"AFPREPO1", &[tagged.clone()])).expect("write segment");
        let _ = TrialStore::open(&segment, "ctx-props");
    });
    std::fs::remove_dir_all(&dir).ok();
}
