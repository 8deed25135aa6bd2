//! Byte codecs for preprocessing pipelines: fitted state and specs.
//!
//! Serializes a [`FittedPipeline`] — every learned parameter of every
//! step (scaler mins/ranges/means/stds, quantile reference tables,
//! Yeo-Johnson λs) — into a compact, canonical byte payload so a
//! pipeline fitted once during search can be exported and served
//! without refitting (and therefore without training-serving skew).
//! The pipeline *spec* codec ([`enc_pipeline_spec`] /
//! [`dec_pipeline_spec`]: kinds and parameters, nothing fitted) lives
//! here too; the evald wire protocol and the trial store both carry
//! pipelines in that form.
//!
//! Both build on the `autofp-codec` primitives: one leading tag byte
//! per step (the [`PreprocKind::index`] code), and the one
//! [`Norm`]/[`OutputDist`] code table below. Encoding is canonical —
//! re-encoding a decoded value reproduces the input bytes exactly —
//! and decoding is **total**: arbitrary bytes produce `Ok` or
//! [`DecodeError`], never a panic, unbounded allocation, or an
//! out-of-bounds index in later `transform` calls (structural
//! invariants such as paired vector lengths are enforced here).

use crate::kinds::PreprocKind;
use crate::pipeline::{FittedPipeline, Pipeline};
use crate::power::FittedPower;
use crate::preproc::{FittedPreproc, Norm, OutputDist, Preproc};
use crate::quantile::FittedQuantile;
use autofp_codec::{Dec, DecodeError, Enc};

/// Upper bound on pipeline length accepted by the decoders (the search
/// space never exceeds 7).
pub const MAX_STEPS: usize = 64;

// ---------------------------------------------------------------------------
// Code tables
// ---------------------------------------------------------------------------

fn norm_code(n: Norm) -> u8 {
    match n {
        Norm::L1 => 0,
        Norm::L2 => 1,
        Norm::Max => 2,
    }
}

fn dec_norm(d: &mut Dec<'_>) -> Result<Norm, DecodeError> {
    match d.u8()? {
        0 => Ok(Norm::L1),
        1 => Ok(Norm::L2),
        2 => Ok(Norm::Max),
        c => Err(DecodeError::new(format!("invalid norm code {c}"))),
    }
}

fn dist_code(d: OutputDist) -> u8 {
    match d {
        OutputDist::Uniform => 0,
        OutputDist::Normal => 1,
    }
}

fn dec_dist(d: &mut Dec<'_>) -> Result<OutputDist, DecodeError> {
    match d.u8()? {
        0 => Ok(OutputDist::Uniform),
        1 => Ok(OutputDist::Normal),
        c => Err(DecodeError::new(format!("invalid output-dist code {c}"))),
    }
}

fn dec_kind(d: &mut Dec<'_>) -> Result<PreprocKind, DecodeError> {
    let code = d.u8()? as usize;
    if code >= PreprocKind::ALL.len() {
        return Err(DecodeError::new(format!("unknown preprocessor code {code}")));
    }
    Ok(PreprocKind::from_index(code))
}

// ---------------------------------------------------------------------------
// Spec codec
// ---------------------------------------------------------------------------

/// Encode a pipeline spec: `u32` step count, then per step its kind
/// code and parameters.
pub fn enc_pipeline_spec(e: &mut Enc, pipeline: &Pipeline) {
    e.u32(pipeline.len() as u32);
    for step in pipeline.steps() {
        e.u8(step.kind().index() as u8);
        match step {
            Preproc::Binarizer { threshold } => e.f64(*threshold),
            Preproc::MaxAbsScaler | Preproc::MinMaxScaler => {}
            Preproc::Normalizer { norm } => e.u8(norm_code(*norm)),
            Preproc::PowerTransformer { standardize } => e.bool(*standardize),
            Preproc::QuantileTransformer { n_quantiles, output } => {
                e.u64(*n_quantiles as u64);
                e.u8(dist_code(*output));
            }
            Preproc::StandardScaler { with_mean } => e.bool(*with_mean),
        }
    }
}

/// Decode a pipeline spec written by [`enc_pipeline_spec`].
pub fn dec_pipeline_spec(d: &mut Dec<'_>) -> Result<Pipeline, DecodeError> {
    // Every step is at least its kind byte.
    let n = d.capped_seq_len(MAX_STEPS, "MAX_STEPS", 1)?;
    let mut steps = Vec::with_capacity(n);
    for _ in 0..n {
        steps.push(match dec_kind(d)? {
            PreprocKind::Binarizer => Preproc::Binarizer { threshold: d.f64()? },
            PreprocKind::MaxAbsScaler => Preproc::MaxAbsScaler,
            PreprocKind::MinMaxScaler => Preproc::MinMaxScaler,
            PreprocKind::Normalizer => Preproc::Normalizer { norm: dec_norm(d)? },
            PreprocKind::PowerTransformer => Preproc::PowerTransformer { standardize: d.bool()? },
            PreprocKind::QuantileTransformer => Preproc::QuantileTransformer {
                n_quantiles: d.u64()? as usize,
                output: dec_dist(d)?,
            },
            PreprocKind::StandardScaler => Preproc::StandardScaler { with_mean: d.bool()? },
        });
    }
    Ok(Pipeline::new(steps))
}

// ---------------------------------------------------------------------------
// Fitted-step codec
// ---------------------------------------------------------------------------

fn enc_step(e: &mut Enc, step: &FittedPreproc) {
    e.u8(step_kind(step).index() as u8);
    match step {
        FittedPreproc::Binarizer { threshold } => e.f64(*threshold),
        FittedPreproc::MaxAbs { scale } => e.vec_f64(scale),
        FittedPreproc::MinMax { mins, ranges } => {
            e.vec_f64(mins);
            e.vec_f64(ranges);
        }
        FittedPreproc::Normalizer { norm } => e.u8(norm_code(*norm)),
        FittedPreproc::Power(p) => {
            e.bool(p.standardize);
            e.vec_f64(&p.lambdas);
            e.vec_f64(&p.means);
            e.vec_f64(&p.stds);
        }
        FittedPreproc::Quantile(q) => {
            e.u8(dist_code(q.output));
            e.u32(q.references.len() as u32);
            for refs in &q.references {
                e.vec_f64(refs);
            }
        }
        FittedPreproc::Standard { means, stds } => {
            e.vec_f64(means);
            e.vec_f64(stds);
        }
    }
}

/// The search-alphabet kind a fitted step was produced by.
pub fn step_kind(step: &FittedPreproc) -> PreprocKind {
    match step {
        FittedPreproc::Binarizer { .. } => PreprocKind::Binarizer,
        FittedPreproc::MaxAbs { .. } => PreprocKind::MaxAbsScaler,
        FittedPreproc::MinMax { .. } => PreprocKind::MinMaxScaler,
        FittedPreproc::Normalizer { .. } => PreprocKind::Normalizer,
        FittedPreproc::Power(_) => PreprocKind::PowerTransformer,
        FittedPreproc::Quantile(_) => PreprocKind::QuantileTransformer,
        FittedPreproc::Standard { .. } => PreprocKind::StandardScaler,
    }
}

fn dec_step(d: &mut Dec<'_>) -> Result<FittedPreproc, DecodeError> {
    match dec_kind(d)? {
        PreprocKind::Binarizer => Ok(FittedPreproc::Binarizer { threshold: d.f64()? }),
        PreprocKind::MaxAbsScaler => Ok(FittedPreproc::MaxAbs { scale: d.vec_f64()? }),
        PreprocKind::MinMaxScaler => {
            let mins = d.vec_f64()?;
            let ranges = d.vec_f64()?;
            if mins.len() != ranges.len() {
                return Err(DecodeError::new("minmax mins/ranges length mismatch"));
            }
            Ok(FittedPreproc::MinMax { mins, ranges })
        }
        PreprocKind::Normalizer => Ok(FittedPreproc::Normalizer { norm: dec_norm(d)? }),
        PreprocKind::PowerTransformer => {
            let standardize = d.bool()?;
            let lambdas = d.vec_f64()?;
            let means = d.vec_f64()?;
            let stds = d.vec_f64()?;
            if means.len() != lambdas.len() || stds.len() != lambdas.len() {
                return Err(DecodeError::new("power lambda/mean/std length mismatch"));
            }
            Ok(FittedPreproc::Power(FittedPower { lambdas, means, stds, standardize }))
        }
        PreprocKind::QuantileTransformer => {
            let output = dec_dist(d)?;
            // Each column is at least its 4-byte length prefix.
            let cols = d.seq_len(4)?;
            let mut references = Vec::with_capacity(cols);
            for _ in 0..cols {
                let refs = d.vec_f64()?;
                if refs.len() < 2 {
                    return Err(DecodeError::new("quantile reference table shorter than 2"));
                }
                references.push(refs);
            }
            Ok(FittedPreproc::Quantile(FittedQuantile { references, output }))
        }
        PreprocKind::StandardScaler => {
            let means = d.vec_f64()?;
            let stds = d.vec_f64()?;
            if means.len() != stds.len() {
                return Err(DecodeError::new("standard means/stds length mismatch"));
            }
            Ok(FittedPreproc::Standard { means, stds })
        }
    }
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// Encode one fitted step (tag byte + parameters).
pub fn encode_step(step: &FittedPreproc) -> Vec<u8> {
    let mut e = Enc::new();
    enc_step(&mut e, step);
    e.into_bytes()
}

/// Decode one fitted step; rejects trailing bytes.
pub fn decode_step(bytes: &[u8]) -> Result<FittedPreproc, DecodeError> {
    let mut d = Dec::new(bytes);
    let step = dec_step(&mut d)?;
    d.end()?;
    Ok(step)
}

/// Encode a fitted pipeline: `u32` step count followed by each step.
pub fn encode_pipeline(p: &FittedPipeline) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(p.steps().len() as u32);
    for step in p.steps() {
        enc_step(&mut e, step);
    }
    e.into_bytes()
}

/// Decode a fitted pipeline; total, canonical, rejects trailing bytes.
pub fn decode_pipeline(bytes: &[u8]) -> Result<FittedPipeline, DecodeError> {
    let mut d = Dec::new(bytes);
    // Every fitted step is at least its tag plus one parameter byte.
    let n = d.capped_seq_len(MAX_STEPS, "MAX_STEPS", 2)?;
    let mut steps = Vec::with_capacity(n);
    for _ in 0..n {
        steps.push(dec_step(&mut d)?);
    }
    d.end()?;
    Ok(FittedPipeline::from_steps(steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use autofp_linalg::Matrix;

    fn train_matrix() -> Matrix {
        Matrix::from_rows(&[
            vec![-1.5, 10.0],
            vec![1.0, 100.0],
            vec![2.5, 1000.0],
            vec![4.0, 10000.0],
        ])
    }

    fn fit_all_kinds() -> FittedPipeline {
        let p = Pipeline::from_kinds(&PreprocKind::ALL);
        p.fit_transform(&train_matrix()).0
    }

    #[test]
    fn pipeline_round_trip_is_canonical_and_preserves_transform() {
        let fitted = fit_all_kinds();
        let bytes = encode_pipeline(&fitted);
        let back = decode_pipeline(&bytes).expect("round trip");
        // Canonical: re-encoding reproduces the exact bytes.
        assert_eq!(encode_pipeline(&back), bytes);
        // And the decoded pipeline transforms bit-identically.
        let probe = Matrix::from_rows(&[vec![0.3, 55.5], vec![-2.0, 1e6]]);
        let a = fitted.transform_new(&probe);
        let b = back.transform_new(&probe);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn every_step_shape_round_trips() {
        for kind in PreprocKind::ALL {
            let p = Pipeline::from_kinds(&[kind]);
            let fitted = p.fit_transform(&train_matrix()).0;
            let step = &fitted.steps()[0];
            let bytes = encode_step(step);
            let back = decode_step(&bytes).expect("step round trip");
            assert_eq!(encode_step(&back), bytes, "{kind}");
        }
    }

    #[test]
    fn empty_pipeline_round_trips() {
        let fitted = Pipeline::empty().fit_transform(&train_matrix()).0;
        let bytes = encode_pipeline(&fitted);
        assert_eq!(bytes, vec![0, 0, 0, 0]);
        let back = decode_pipeline(&bytes).expect("empty");
        assert!(back.steps().is_empty());
    }

    #[test]
    fn golden_bytes_are_locked() {
        // Binarizer(0.5) -> Normalizer(L2): the byte layout is part of
        // the artifact contract; changing it requires a format bump.
        let fitted = FittedPipeline::from_steps(vec![
            FittedPreproc::Binarizer { threshold: 0.5 },
            FittedPreproc::Normalizer { norm: Norm::L2 },
        ]);
        let mut expected = vec![2, 0, 0, 0]; // two steps
        expected.push(0); // Binarizer tag
        expected.extend_from_slice(&0.5f64.to_bits().to_le_bytes());
        expected.push(3); // Normalizer tag
        expected.push(1); // L2 code
        assert_eq!(encode_pipeline(&fitted), expected);

        // MinMax with explicit parameters.
        let mm = FittedPreproc::MinMax { mins: vec![1.0], ranges: vec![2.0] };
        let mut want = vec![2]; // MinMaxScaler tag
        want.extend_from_slice(&1u32.to_le_bytes());
        want.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        want.extend_from_slice(&1u32.to_le_bytes());
        want.extend_from_slice(&2.0f64.to_bits().to_le_bytes());
        assert_eq!(encode_step(&mm), want);
    }

    #[test]
    fn every_truncation_errors() {
        let bytes = encode_pipeline(&fit_all_kinds());
        for len in 0..bytes.len() {
            assert!(
                decode_pipeline(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_pipeline(&fit_all_kinds());
        bytes.push(0);
        assert!(decode_pipeline(&bytes).is_err());
    }

    #[test]
    fn byte_flips_never_panic_and_stay_structurally_valid() {
        let bytes = encode_pipeline(&fit_all_kinds());
        for i in 0..bytes.len() {
            for v in [0u8, 1, 2, 127, 255] {
                let mut m = bytes.clone();
                if m[i] == v {
                    continue;
                }
                m[i] = v;
                // Total decode: Ok or Err, never a panic. When it does
                // decode, the structural invariants must hold so that a
                // later transform cannot index out of bounds.
                if let Ok(p) = decode_pipeline(&m) {
                    assert!(p.steps().len() <= MAX_STEPS);
                }
            }
        }
    }

    #[test]
    fn structural_violations_rejected() {
        // MinMax with mismatched mins/ranges lengths.
        let mut e = vec![2u8];
        e.extend_from_slice(&1u32.to_le_bytes());
        e.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        e.extend_from_slice(&0u32.to_le_bytes());
        assert!(decode_step(&e).is_err());
        // Quantile column with a single reference value.
        let mut q = vec![5u8, 0];
        q.extend_from_slice(&1u32.to_le_bytes());
        q.extend_from_slice(&1u32.to_le_bytes());
        q.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        assert!(decode_step(&q).is_err());
        // Oversized step count.
        let mut p = Vec::new();
        p.extend_from_slice(&(MAX_STEPS as u32 + 1).to_le_bytes());
        assert!(decode_pipeline(&p).is_err());
    }
}
