//! Section diffs between state snapshots, and the one fold that pins
//! checkpoint bytes.
//!
//! The checkpoint formats built on [`crate::codec`] serialize each shard's
//! full `TrackerState` at every boundary, but the paper's protocols
//! guarantee most of that state is *quiet* between boundaries: counters
//! drift inside their bands and only threshold crossings mutate
//! coordinator-visible state. A [`StateDelta`] captures exactly the bytes
//! that moved: the new snapshot is cut into fixed
//! [`DELTA_SECTION`]-byte sections, each section either references the
//! base snapshot unchanged (`Same`) or carries its XOR against the
//! base, zero-run-length encoded (`Diff`). A quiet shard whose snapshot
//! bytes did not move encodes to one tag byte per section.
//!
//! Deltas chain: `base → d₁ → d₂ → …`, each delta diffed against the
//! *previous* snapshot. **A delta pins only its result**: it records the
//! result's byte length and [`fingerprint`], nothing about its base.
//! Every result byte is the base byte at the same offset, copied or
//! XORed, so a wrong base (a broken or reordered chain link) rebuilds
//! wrong bytes, and [`apply`](StateDelta::apply) refuses them with one
//! check after the rebuild: a typed [`CodecError::Mismatch`], never
//! silent corruption. A verified apply is **bit-identical** by
//! construction: it rebuilds the exact new snapshot bytes, or fails.
//!
//! The encoding is bare — no magic, no version. A delta only ever
//! travels nested in a format that owns both (`DSVS` store links,
//! `DSVF` changed slots), through [`StateDelta::encode`] /
//! [`StateDelta::decode`] and the same [`Enc`]/[`Dec`] discipline as
//! every format in this crate: truncation, corruption and inconsistent
//! shapes all decode to typed [`CodecError`]s; nothing panics, and a
//! corrupted length cannot demand more than [`DELTA_SECTION`]× the
//! payload's own size in allocation.

use crate::codec::{CodecError, Dec, Enc};

/// Section width of the diff, in bytes. Snapshot payloads are compared
/// in fixed windows this wide; a window with any changed byte ships its
/// XOR, an untouched window ships one tag byte.
pub const DELTA_SECTION: usize = 64;

/// The multiplier of [`Fingerprint`]'s word step (odd, so the step is a
/// bijection of the running value), and the value it starts from.
const FOLD_K: u64 = 0x9E37_79B9_7F4A_7C15;
const FOLD_SEED: u64 = 0x243F_6A88_85A3_08D3;

/// The [`Fingerprint`] of `bytes`: the pin a [`StateDelta`] records for
/// its result and a `FleetDelta` for its parent's wire form.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut fold = Fingerprint::new();
    fold.update(bytes);
    fold.finish()
}

/// A 64-bit fold over a byte stream, eight bytes per multiply. Fed
/// piece by piece in order, it equals the fold of the whole image (a
/// partial word carries across pieces), so a large wire form is pinned
/// without being built. Each step is a bijection of the running value,
/// so two images of one length that differ in a single word always fold
/// apart; the total length is folded in at the end, and a final mix
/// spreads every bit over the result.
///
/// Its methods are `#[inline]`: the fleet codec feeds it per slot, in
/// pieces of known size, from another crate.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint {
    h: u64,
    /// The first `fill` bytes of an unfinished word, little-endian, the
    /// bits above them zero: what the next piece completes.
    carry: u64,
    fill: usize,
    len: u64,
}

impl Fingerprint {
    /// The fold over no bytes yet.
    #[inline]
    pub fn new() -> Self {
        Fingerprint {
            h: FOLD_SEED,
            carry: 0,
            fill: 0,
            len: 0,
        }
    }

    #[inline]
    fn step(h: u64, word: u64) -> u64 {
        (h.rotate_left(23) ^ word).wrapping_mul(FOLD_K)
    }

    /// Fold the next `bytes` of the stream in. A piece that starts
    /// mid-word is read word by word all the same, each word shifted
    /// into place behind the carried bytes.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        self.len += bytes.len() as u64;
        let shift = 8 * self.fill as u32;
        let mut words = bytes.chunks_exact(8);
        let mut h = self.h;
        if shift == 0 {
            for word in &mut words {
                h = Self::step(h, u64::from_le_bytes(word.try_into().expect("8 bytes")));
            }
        } else {
            for word in &mut words {
                let word = u64::from_le_bytes(word.try_into().expect("8 bytes"));
                h = Self::step(h, self.carry | word << shift);
                self.carry = word >> (64 - shift);
            }
        }
        let rest = words.remainder();
        let mut last = [0; 8];
        last[..rest.len()].copy_from_slice(rest);
        let last = u64::from_le_bytes(last);
        self.fill += rest.len();
        if self.fill >= 8 {
            h = Self::step(h, self.carry | last << shift);
            self.carry = last >> (64 - shift);
            self.fill -= 8;
        } else {
            self.carry |= last << shift;
        }
        self.h = h;
    }

    /// The fingerprint of everything fed so far.
    #[inline]
    pub fn finish(self) -> u64 {
        let mut h = self.h;
        if self.fill > 0 {
            h = Self::step(h, self.carry);
        }
        h = Self::step(h, self.len);
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^ (h >> 31)
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

/// One section's fate in a delta.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SectionOp {
    /// The section's bytes equal the base's bytes at the same offset
    /// (base shorter than the section ⇒ compared as zero-extended).
    Same,
    /// The section changed: its XOR against the (zero-extended) base,
    /// zero-run-length encoded.
    Diff(Vec<u8>),
}

/// A section-aware binary delta from one snapshot to the next.
///
/// Produced by [`diff`](StateDelta::diff), applied by
/// [`apply`](StateDelta::apply) (which verifies the result against the
/// recorded length and fingerprint), written and read nested in a
/// container format by [`encode`](StateDelta::encode) /
/// [`decode`](StateDelta::decode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateDelta {
    new_len: u64,
    new_hash: u64,
    /// One op per section of the result: `new_len.div_ceil(DELTA_SECTION)`.
    ops: Vec<SectionOp>,
}

/// Zero-run-length encode `xor` (at most [`DELTA_SECTION`] bytes): a
/// sequence of `(zero_run, literal_len, literal bytes…)` groups covering
/// the input exactly. Both counts fit a `u8` because sections are short.
fn rle_encode(xor: &[u8], out: &mut Vec<u8>) {
    debug_assert!(xor.len() <= DELTA_SECTION);
    let mut i = 0;
    while i < xor.len() {
        let zero_start = i;
        while i < xor.len() && xor[i] == 0 {
            i += 1;
        }
        let lit_start = i;
        while i < xor.len() && xor[i] != 0 {
            i += 1;
        }
        out.push((lit_start - zero_start) as u8);
        out.push((i - lit_start) as u8);
        out.extend_from_slice(&xor[lit_start..i]);
    }
}

/// Decode a zero-run-length group sequence into exactly `len` XOR bytes.
fn rle_decode(rle: &[u8], len: usize, out: &mut Vec<u8>) -> Result<(), CodecError> {
    let start = out.len();
    let mut i = 0;
    while i < rle.len() {
        if rle.len() - i < 2 {
            return Err(CodecError::BadValue {
                what: "delta section run group",
            });
        }
        let zeros = rle[i] as usize;
        let lits = rle[i + 1] as usize;
        i += 2;
        if rle.len() - i < lits {
            return Err(CodecError::BadLength {
                what: "delta section literal run",
            });
        }
        out.resize(out.len() + zeros, 0);
        out.extend_from_slice(&rle[i..i + lits]);
        i += lits;
        if out.len() - start > len {
            return Err(CodecError::Mismatch {
                what: "delta section length",
                expected: len as u64,
                found: (out.len() - start) as u64,
            });
        }
    }
    if out.len() - start != len {
        return Err(CodecError::Mismatch {
            what: "delta section length",
            expected: len as u64,
            found: (out.len() - start) as u64,
        });
    }
    Ok(())
}

/// Sections needed to cover `len` bytes.
fn section_count(len: u64) -> u64 {
    len.div_ceil(DELTA_SECTION as u64)
}

impl StateDelta {
    /// Diff `new` against `base`: one pass over `new` in
    /// [`DELTA_SECTION`]-byte windows, comparing each against the base's
    /// bytes at the same offsets (zero-extended where the base is
    /// shorter). Identical inputs yield a delta of `Same` sections only.
    pub fn diff(base: &[u8], new: &[u8]) -> Self {
        let mut ops = Vec::with_capacity(section_count(new.len() as u64) as usize);
        let mut xor = [0; DELTA_SECTION];
        let mut rle = Vec::with_capacity(2 * DELTA_SECTION);
        for (s, section) in new.chunks(DELTA_SECTION).enumerate() {
            let lo = s * DELTA_SECTION;
            let base_part = &base[lo.min(base.len())..(lo + section.len()).min(base.len())];
            // Past the base's end, the base reads as zeros.
            let (head, tail) = section.split_at(base_part.len());
            if head == base_part && tail.iter().all(|&b| b == 0) {
                ops.push(SectionOp::Same);
                continue;
            }
            let xor = &mut xor[..section.len()];
            for ((x, &n), &b) in xor.iter_mut().zip(head).zip(base_part) {
                *x = n ^ b;
            }
            xor[head.len()..].copy_from_slice(tail);
            // Encode into one scratch buffer; the op keeps an exact copy.
            rle.clear();
            rle_encode(xor, &mut rle);
            ops.push(SectionOp::Diff(rle.clone()));
        }
        StateDelta {
            new_len: new.len() as u64,
            new_hash: fingerprint(new),
            ops,
        }
    }

    /// Apply this delta to `base`, reconstructing the exact new snapshot
    /// bytes. The rebuilt bytes are checked against the recorded
    /// fingerprint: a wrong or out-of-order base, or a tampered delta,
    /// is a typed [`CodecError::Mismatch`], never silently wrong bytes.
    pub fn apply(&self, base: &[u8]) -> Result<Vec<u8>, CodecError> {
        let new_len = self.new_len as usize;
        let mut out = Vec::with_capacity(new_len);
        let mut xor = Vec::with_capacity(DELTA_SECTION);
        for (s, op) in self.ops.iter().enumerate() {
            let lo = s * DELTA_SECTION;
            let hi = (lo + DELTA_SECTION).min(new_len);
            let base_part = &base[lo.min(base.len())..hi.min(base.len())];
            match op {
                SectionOp::Same => {
                    out.extend_from_slice(base_part);
                    out.resize(hi, 0);
                }
                SectionOp::Diff(rle) => {
                    xor.clear();
                    rle_decode(rle, hi - lo, &mut xor)?;
                    for (i, x) in xor.iter().enumerate() {
                        out.push(x ^ base_part.get(i).copied().unwrap_or(0));
                    }
                }
            }
        }
        let found = fingerprint(&out);
        if found != self.new_hash {
            return Err(CodecError::Mismatch {
                what: "delta result fingerprint",
                expected: self.new_hash,
                found,
            });
        }
        Ok(out)
    }

    /// Byte length of the snapshot this delta reconstructs.
    pub fn new_len(&self) -> u64 {
        self.new_len
    }

    /// Fingerprint of the snapshot this delta reconstructs.
    pub fn new_hash(&self) -> u64 {
        self.new_hash
    }

    /// Exact number of bytes [`encode`](Self::encode) appends, without
    /// encoding — the bench's bytes-per-boundary accounting.
    pub fn encoded_len(&self) -> usize {
        let mut n = 8 + 8; // result length + result fingerprint
        for op in &self.ops {
            n += match op {
                SectionOp::Same => 1,
                SectionOp::Diff(rle) => 1 + 1 + rle.len(),
            };
        }
        n
    }

    /// Append the bare encoding: the result's length and fingerprint,
    /// then one op per section (their count follows from the length).
    pub fn encode(&self, enc: &mut Enc) {
        enc.u64(self.new_len);
        enc.u64(self.new_hash);
        for op in &self.ops {
            match op {
                SectionOp::Same => enc.u8(0),
                SectionOp::Diff(rle) => {
                    enc.u8(1);
                    enc.u8(rle.len() as u8);
                    for &b in rle {
                        enc.u8(b);
                    }
                }
            }
        }
    }

    /// Decode one delta from a decoder positioned at its encoding,
    /// validating every run group against its section, so a decoded
    /// delta can only fail [`apply`](Self::apply) on its result, never
    /// on its own shape. Pair with [`Dec::finish`] when the delta is the
    /// whole payload.
    pub fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        let new_len = dec.u64()?;
        let new_hash = dec.u64()?;
        // Every section costs at least its tag byte, so a length the rest
        // of the payload cannot carry is corruption — refused before it
        // sizes any allocation.
        let n_ops = section_count(new_len);
        if n_ops > dec.remaining() as u64 {
            return Err(CodecError::BadLength {
                what: "delta result length",
            });
        }
        let mut ops = Vec::with_capacity(n_ops as usize);
        for s in 0..n_ops as usize {
            match dec.u8()? {
                0 => ops.push(SectionOp::Same),
                1 => {
                    let rle_len = dec.u8()? as usize;
                    let mut rle = Vec::with_capacity(rle_len);
                    for _ in 0..rle_len {
                        rle.push(dec.u8()?);
                    }
                    let lo = s * DELTA_SECTION;
                    let hi = ((s + 1) * DELTA_SECTION).min(new_len as usize);
                    let mut scratch = Vec::with_capacity(hi - lo);
                    rle_decode(&rle, hi - lo, &mut scratch)?;
                    ops.push(SectionOp::Diff(rle));
                }
                tag => {
                    return Err(CodecError::BadTag {
                        what: "delta section op",
                        tag: tag as u64,
                    })
                }
            }
        }
        Ok(StateDelta {
            new_len,
            new_hash,
            ops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(delta: &StateDelta) -> Vec<u8> {
        let mut enc = Enc::new();
        delta.encode(&mut enc);
        enc.into_bytes()
    }

    /// Decode a whole payload as one delta, requiring exact consumption.
    fn unwire(bytes: &[u8]) -> Result<StateDelta, CodecError> {
        let mut dec = Dec::new(bytes);
        let delta = StateDelta::decode(&mut dec)?;
        dec.finish()?;
        Ok(delta)
    }

    fn all_same(delta: &StateDelta) -> bool {
        delta.ops.iter().all(|op| *op == SectionOp::Same)
    }

    /// `len` bytes of an arbitrary image.
    fn image(len: usize) -> Vec<u8> {
        let mut state = 0x5EED_u64;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect()
    }

    fn apply_round_trip(base: &[u8], new: &[u8]) {
        let delta = StateDelta::diff(base, new);
        assert_eq!(delta.apply(base).unwrap(), new, "apply rebuilds new");
        let rebuilt = unwire(&wire(&delta)).unwrap();
        assert_eq!(rebuilt, delta, "wire round trip");
        assert_eq!(rebuilt.apply(base).unwrap(), new, "decoded apply");
        assert_eq!(wire(&delta).len(), delta.encoded_len());
    }

    #[test]
    fn diff_apply_round_trips_across_shapes() {
        let base: Vec<u8> = (0..300u32).map(|i| (i * 7) as u8).collect();
        let mut one_byte = base.clone();
        one_byte[150] ^= 0xFF;
        let mut tail = base.clone();
        tail.extend_from_slice(&[1, 2, 3, 4, 5]);
        let shrunk = base[..100].to_vec();
        let mut sparse = base.clone();
        sparse[0] = 0xAA;
        sparse[299] = 0xBB;
        for new in [
            base.clone(),
            one_byte,
            tail,
            shrunk,
            sparse,
            Vec::new(),
            vec![9u8; 64],
            vec![9u8; 65],
        ] {
            apply_round_trip(&base, &new);
        }
        apply_round_trip(&[], &base);
        apply_round_trip(&[], &[]);
    }

    #[test]
    fn identity_deltas_are_tiny_and_flagged() {
        let base: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let delta = StateDelta::diff(&base, &base);
        assert!(all_same(&delta));
        // One byte per untouched 64-byte section plus the result pin.
        assert_eq!(
            delta.encoded_len(),
            16 + base.len().div_ceil(DELTA_SECTION),
            "identity delta for a {}-byte state",
            base.len()
        );
        assert_eq!(delta.apply(&base).unwrap(), base);
        // A shorter result of the same bytes is all `Same` too: the pin,
        // not the sections, says which state it is.
        let shorter = StateDelta::diff(&base, &base[..99_999]);
        assert!(all_same(&shorter));
        assert_ne!(shorter, delta, "length change is not identity");
    }

    #[test]
    fn localized_change_costs_a_section_not_the_state() {
        let base = vec![3u8; 64 * 1024];
        let mut new = base.clone();
        new[1000] = 42;
        let delta = StateDelta::diff(&base, &new);
        assert!(!all_same(&delta));
        assert!(
            delta.encoded_len() < base.len() / DELTA_SECTION + 128,
            "one flipped byte must not re-ship the state ({} bytes)",
            delta.encoded_len()
        );
        assert_eq!(delta.apply(&base).unwrap(), new);
    }

    #[test]
    fn wrong_base_is_a_typed_mismatch() {
        let base = vec![1u8; 200];
        let new = vec![2u8; 200];
        let delta = StateDelta::diff(&base, &new);
        // Wrong length, then right length with wrong bytes: either way
        // the rebuilt bytes miss the result's pin.
        for wrong in [&base[..199], &[7u8; 200][..]] {
            assert!(matches!(
                delta.apply(wrong).unwrap_err(),
                CodecError::Mismatch {
                    what: "delta result fingerprint",
                    ..
                }
            ));
        }
        // The right base applies.
        assert_eq!(delta.apply(&base).unwrap(), new);
    }

    #[test]
    fn chains_compose_and_reordered_links_fail() {
        let v1: Vec<u8> = (0..500u32).map(|i| i as u8).collect();
        let mut v2 = v1.clone();
        v2[100] = 0xEE;
        let mut v3 = v2.clone();
        v3.truncate(400);
        v3[7] = 0x33;
        let d12 = StateDelta::diff(&v1, &v2);
        let d23 = StateDelta::diff(&v2, &v3);
        let r2 = d12.apply(&v1).unwrap();
        let r3 = d23.apply(&r2).unwrap();
        assert_eq!(r3, v3, "chain replay is bit-identical");
        // Applying the links out of order is typed, not silent.
        assert!(matches!(
            d23.apply(&v1).unwrap_err(),
            CodecError::Mismatch { .. }
        ));
    }

    #[test]
    fn tampered_delta_cannot_produce_wrong_bytes_silently() {
        let base = vec![0u8; 128];
        let mut new = base.clone();
        new[0] = 1;
        let mut delta = StateDelta::diff(&base, &new);
        // Corrupt the recorded result hash: apply must notice.
        delta.new_hash ^= 1;
        assert!(matches!(
            delta.apply(&base).unwrap_err(),
            CodecError::Mismatch {
                what: "delta result fingerprint",
                ..
            }
        ));
    }

    #[test]
    fn every_truncation_and_corruption_is_typed() {
        let base: Vec<u8> = (0..200u32).map(|i| (i * 3) as u8).collect();
        let mut new = base.clone();
        new[5] = 0xFF;
        new.push(77);
        let bytes = wire(&StateDelta::diff(&base, &new));
        for cut in 0..bytes.len() {
            assert!(unwire(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        for i in 0..bytes.len() {
            let mut dirty = bytes.clone();
            dirty[i] ^= 0xA5;
            // Must never panic; decoding may succeed, in which case apply
            // still cannot silently fabricate state.
            if let Ok(delta) = unwire(&dirty) {
                if let Ok(out) = delta.apply(&base) {
                    assert_eq!(out, new, "byte {i}");
                }
            }
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            unwire(&trailing).unwrap_err(),
            CodecError::Trailing { left: 1 }
        );
        // A result length the payload cannot carry sizes nothing.
        let mut huge = bytes;
        huge[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            unwire(&huge).unwrap_err(),
            CodecError::BadLength {
                what: "delta result length"
            }
        );
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        // The empty image's pin is fixed, so the fold cannot drift.
        assert_eq!(fingerprint(b""), 0x3463_0F3F_F819_1DA6);
        assert_eq!(Fingerprint::default().finish(), fingerprint(b""));
        assert_ne!(fingerprint(b"a"), fingerprint(b"b"));
        assert_ne!(fingerprint(b"ab"), fingerprint(b"ba"));
    }

    #[test]
    fn fingerprint_fold_is_cut_invariant() {
        let img = image(1029);
        let whole = fingerprint(&img);
        for cut in 0..=img.len() {
            let mut fold = Fingerprint::new();
            fold.update(&img[..cut]);
            fold.update(&[]);
            fold.update(&img[cut..]);
            assert_eq!(fold.finish(), whole, "split at {cut}");
        }
        // Many short pieces, each leaving a partial word to the next.
        for width in [1, 3, 7, 9, 48] {
            let mut fold = Fingerprint::new();
            for piece in img.chunks(width) {
                fold.update(piece);
            }
            assert_eq!(fold.finish(), whole, "pieces of {width}");
        }
    }

    #[test]
    fn appending_a_zero_byte_changes_the_pin() {
        for len in [0, 1, 7, 8, 9, 1024] {
            let img = image(len);
            let mut longer = img.clone();
            longer.push(0);
            assert_ne!(fingerprint(&img), fingerprint(&longer), "{len} bytes");
        }
    }

    #[test]
    fn every_flipped_byte_changes_the_pin() {
        let img = image(1029);
        let whole = fingerprint(&img);
        for i in 0..img.len() {
            let mut flipped = img.clone();
            flipped[i] ^= 0xA5;
            assert_ne!(fingerprint(&flipped), whole, "byte {i}");
        }
    }
}
