#![warn(missing_docs)]
//! `autofp-codec` — the one byte codec every Auto-FP format shares.
//!
//! The evald and serve wire protocols, the `AFPREPO1` trial store, the
//! `AFPSERV1` serve artifact, and the fitted-state and trained-model
//! payloads all follow one idiom: little-endian integers, `f64` as its
//! IEEE-754 bit pattern, strings and vectors as a `u32` count followed
//! by their elements, `bool` and `Option` as a flag byte. [`Enc`]
//! writes that idiom and [`Dec`] reads it back. Encoding is a pure
//! function of the value, so a decoded value re-encodes to the same
//! bytes; each format's golden-bytes tests pin its layout.
//!
//! Decoding is total: every read is bounds-checked, every element
//! count is checked against its cap and against the bytes left
//! *before* anything is allocated, and a failure is a [`DecodeError`],
//! never a panic.
//!
//! The crate has no dependencies and sits lowest in the workspace, so
//! it knows no Auto-FP type: each type-aware codec lives with its type
//! and builds on these primitives. Two format decisions that are not
//! type-aware live here too: [`fnv1a`], the one stable hash behind
//! cache fingerprints, segment names and record checksums, and the
//! checksummed record framing `[u32 LE len][payload][u64 LE fnv1a]`
//! ([`frame_record`], [`next_record`]) that the trial store and the
//! serve artifact share.

use std::fmt;

/// Hard cap on one framed record's payload (16 MiB): a corrupt length
/// prefix must not pass for a record.
pub const MAX_RECORD: u32 = 16 * 1024 * 1024;

/// Bytes were not a valid encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What failed to validate, with the byte offset where known.
    pub detail: String,
}

impl DecodeError {
    /// An error carrying `detail`.
    pub fn new(detail: impl Into<String>) -> DecodeError {
        DecodeError { detail: detail.into() }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {}", self.detail)
    }
}

impl std::error::Error for DecodeError {}

/// FNV-1a, 64-bit: tiny, dependency-free, and stable across platforms
/// and compiler versions (unlike `DefaultHasher`, whose algorithm is
/// unspecified).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// Canonical encoder: appends primitives to a byte buffer.
#[derive(Debug, Clone, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// An encoder whose first byte is a message or record `tag`.
    pub fn tagged(tag: u8) -> Enc {
        Enc { buf: vec![tag] }
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// An `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A `bool` as one byte, `0` or `1`.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// A string: `u32` byte length, then UTF-8.
    pub fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// An optional `u64`: flag byte `0`, or flag byte `1` then the value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.u8(1);
                self.u64(v);
            }
            None => self.u8(0),
        }
    }

    /// Each value's bit pattern, with no length prefix.
    pub fn f64s(&mut self, v: &[f64]) {
        for &x in v {
            self.f64(x);
        }
    }

    /// An `f64` vector: `u32` length, then each value's bit pattern.
    pub fn vec_f64(&mut self, v: &[f64]) {
        self.u32(v.len() as u32);
        self.f64s(v);
    }
}

/// Total decoder over a byte slice: every read either returns a value
/// or a [`DecodeError`] naming the offset it failed at.
#[derive(Debug, Clone)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Byte offset of the next read.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).filter(|&end| end <= self.buf.len()).ok_or_else(|| {
            DecodeError::new(format!(
                "truncated: {n} bytes wanted at offset {}, {} left",
                self.pos,
                self.remaining()
            ))
        })?;
        // lint:allow(panic-reach): checked_add + `end <= buf.len()` above make the range provably in bounds
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// An `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `bool`; any byte but `0` or `1` is an error.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        let at = self.pos;
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(DecodeError::new(format!("bad bool byte {v} at offset {at}"))),
        }
    }

    /// A `u32`-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, DecodeError> {
        let at = self.pos;
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| DecodeError::new(format!("invalid UTF-8 in the string at offset {at}")))
    }

    /// An optional `u64` (see [`Enc::opt_u64`]).
    pub fn opt_u64(&mut self) -> Result<Option<u64>, DecodeError> {
        let at = self.pos;
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            v => Err(DecodeError::new(format!("bad Option flag {v} at offset {at}"))),
        }
    }

    /// Exactly `n` `f64`s (see [`Enc::f64s`]); the byte span is
    /// bounds-checked before anything is allocated.
    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>, DecodeError> {
        let bytes = n
            .checked_mul(8)
            .ok_or_else(|| DecodeError::new(format!("{n} f64 values overflow the address space")))?;
        let raw = self.take(bytes)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| {
                let mut a = [0u8; 8];
                a.copy_from_slice(c);
                f64::from_bits(u64::from_le_bytes(a))
            })
            .collect())
    }

    /// An `f64` vector (see [`Enc::vec_f64`]).
    pub fn vec_f64(&mut self) -> Result<Vec<f64>, DecodeError> {
        let n = self.seq_len(8)?;
        self.f64s(n)
    }

    /// A `u32` element count whose elements take at least
    /// `min_item_bytes` each: a count the remaining bytes cannot hold
    /// is rejected before the caller allocates for it.
    pub fn seq_len(&mut self, min_item_bytes: usize) -> Result<usize, DecodeError> {
        self.capped_seq_len(usize::MAX, "usize::MAX", min_item_bytes)
    }

    /// [`Dec::seq_len`] that also rejects a count above `max`; the error
    /// quotes `max_name`, the cap's constant.
    pub fn capped_seq_len(
        &mut self,
        max: usize,
        max_name: &str,
        min_item_bytes: usize,
    ) -> Result<usize, DecodeError> {
        let at = self.pos;
        let n = self.u32()? as usize;
        if n > max {
            return Err(DecodeError::new(format!(
                "count {n} at offset {at} exceeds {max_name} ({max})"
            )));
        }
        let left = self.remaining();
        if n.checked_mul(min_item_bytes).is_none_or(|need| need > left) {
            return Err(DecodeError::new(format!(
                "count {n} at offset {at} exceeds the payload: {left} bytes left, \
                 {min_item_bytes} needed per item"
            )));
        }
        Ok(n)
    }

    /// Succeeds only if every byte was read.
    pub fn end(self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(DecodeError::new(format!("{n} trailing bytes at offset {}", self.pos))),
        }
    }
}

/// Append one checksummed record to `out`:
/// `[u32 LE payload len][payload][u64 LE fnv1a(payload)]`.
pub fn frame_record(out: &mut Vec<u8>, payload: &[u8]) {
    out.reserve(4 + payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
}

/// Read the next record framed by [`frame_record`]. `Ok(None)` when no
/// bytes are left (a clean end); `Err` when the record is torn: short,
/// longer than [`MAX_RECORD`] or than the bytes left, or failing its
/// checksum. After an `Err` the decoder's position is unspecified;
/// whether a torn record is truncated or refused is the caller's call.
pub fn next_record<'a>(d: &mut Dec<'a>) -> Result<Option<&'a [u8]>, DecodeError> {
    if d.remaining() == 0 {
        return Ok(None);
    }
    let at = d.offset();
    let len = d.u32()?;
    if len > MAX_RECORD {
        return Err(DecodeError::new(format!(
            "record length {len} at offset {at} exceeds MAX_RECORD"
        )));
    }
    let payload = d.take(len as usize)?;
    if d.u64()? != fnv1a(payload) {
        return Err(DecodeError::new(format!("checksum mismatch in the record at offset {at}")));
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_canonically() {
        let mut e = Enc::tagged(7);
        e.u8(200);
        e.u32(0xdead_beef);
        e.u64(u64::MAX - 1);
        e.f64(-0.0);
        e.f64(f64::NAN);
        e.bool(true);
        e.string("ctx-é");
        e.opt_u64(None);
        e.opt_u64(Some(42));
        e.vec_f64(&[1.5, f64::INFINITY]);
        let bytes = e.into_bytes();

        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8(), Ok(7));
        assert_eq!(d.u8(), Ok(200));
        assert_eq!(d.u32(), Ok(0xdead_beef));
        assert_eq!(d.u64(), Ok(u64::MAX - 1));
        assert_eq!(d.f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(d.f64().map(f64::to_bits), Ok(f64::NAN.to_bits()));
        assert_eq!(d.bool(), Ok(true));
        assert_eq!(d.string().as_deref(), Ok("ctx-é"));
        assert_eq!(d.opt_u64(), Ok(None));
        assert_eq!(d.opt_u64(), Ok(Some(42)));
        assert_eq!(d.vec_f64(), Ok(vec![1.5, f64::INFINITY]));
        assert_eq!(d.remaining(), 0);
        assert!(d.end().is_ok());
    }

    #[test]
    fn golden_layout_is_little_endian_and_length_prefixed() {
        let mut e = Enc::new();
        e.u32(1);
        e.string("ab");
        e.opt_u64(Some(3));
        e.vec_f64(&[2.0]);
        let mut want = vec![1, 0, 0, 0, 2, 0, 0, 0, b'a', b'b', 1];
        want.extend_from_slice(&3u64.to_le_bytes());
        want.extend_from_slice(&1u32.to_le_bytes());
        want.extend_from_slice(&2.0f64.to_bits().to_le_bytes());
        assert_eq!(e.into_bytes(), want);
    }

    #[test]
    fn reads_past_the_end_and_bad_flags_are_errors() {
        assert!(Dec::new(&[1, 2, 3]).u32().is_err());
        assert!(Dec::new(&[2]).bool().is_err());
        assert!(Dec::new(&[2]).opt_u64().is_err());
        assert!(Dec::new(&[1, 0, 0, 0, 0xff]).string().is_err());
        assert!(Dec::new(&[9, 0, 0, 0, 1]).string().is_err());
        assert!(Dec::new(&[0]).end().is_err());
        let mut d = Dec::new(&[0; 4]);
        assert!(d.take(usize::MAX).is_err());
        assert_eq!(d.offset(), 0, "a failed read consumes nothing");
    }

    #[test]
    fn counts_are_checked_against_cap_then_payload() {
        // Over the cap: the error names the cap's constant.
        let err = Dec::new(&5u32.to_le_bytes()).capped_seq_len(4, "MAX_THINGS", 0).unwrap_err();
        assert!(err.detail.contains("MAX_THINGS"), "{err}");
        // Under the cap, but the 4 bytes left hold only one 4-byte item.
        let mut bytes = 2u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 4]);
        let err = Dec::new(&bytes).capped_seq_len(4, "MAX_THINGS", 4).unwrap_err();
        assert!(err.detail.contains("exceeds the payload"), "{err}");
        assert_eq!(Dec::new(&bytes).capped_seq_len(4, "MAX_THINGS", 2), Ok(2));
        // A huge vector length is refused before any allocation.
        assert!(Dec::new(&u32::MAX.to_le_bytes()).vec_f64().is_err());
        assert_eq!(Dec::new(&7u32.to_le_bytes()).seq_len(0), Ok(7));
    }

    #[test]
    fn records_frame_and_unframe() {
        let mut bytes = Vec::new();
        frame_record(&mut bytes, b"one");
        frame_record(&mut bytes, b"");
        let mut want = 3u32.to_le_bytes().to_vec();
        want.extend_from_slice(b"one");
        want.extend_from_slice(&fnv1a(b"one").to_le_bytes());
        assert_eq!(&bytes[..want.len()], &want[..]);

        let mut d = Dec::new(&bytes);
        assert_eq!(next_record(&mut d), Ok(Some(&b"one"[..])));
        assert_eq!(next_record(&mut d), Ok(Some(&b""[..])));
        assert_eq!(next_record(&mut d), Ok(None));

        // Every proper prefix ends in a clean end or a torn record.
        for cut in 1..bytes.len() {
            let mut d = Dec::new(&bytes[..cut]);
            let torn = std::iter::from_fn(|| match next_record(&mut d) {
                Ok(Some(_)) => Some(false),
                Ok(None) => None,
                Err(_) => Some(true),
            })
            .any(|t| t);
            assert_eq!(torn, cut != 15, "cut {cut}");
        }
        // A flipped payload byte fails the checksum.
        let mut flipped = bytes.clone();
        flipped[5] ^= 1;
        assert!(next_record(&mut Dec::new(&flipped)).is_err());
        // An oversized length is torn, not an allocation.
        let huge = (MAX_RECORD + 1).to_le_bytes();
        assert!(next_record(&mut Dec::new(&huge)).is_err());
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
