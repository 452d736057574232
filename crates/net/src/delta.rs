//! `DSVD` — section-aware binary deltas between state snapshots.
//!
//! The checkpoint formats built on [`crate::codec`] serialize each shard's
//! full `TrackerState` at every boundary, but the paper's protocols
//! guarantee most of that state is *quiet* between boundaries: counters
//! drift inside their bands and only threshold crossings mutate
//! coordinator-visible state. A [`StateDelta`] captures exactly the bytes
//! that moved: the new snapshot is cut into fixed
//! [`DELTA_SECTION`]-byte sections, each section either references the
//! base snapshot unchanged (`Same`) or carries its XOR against the
//! base, zero-run-length encoded (`Diff`). A
//! quiet shard whose snapshot bytes did not move at all encodes to an
//! [identity](StateDelta::is_identity) delta a few bytes long.
//!
//! Deltas chain: `base → d₁ → d₂ → …`, each delta diffed against the
//! *previous* snapshot. Every delta records the byte length and FNV-1a
//! fingerprint of both its base and its result, so applying a delta to
//! the wrong base (a broken or reordered chain link) is a typed
//! [`CodecError::Mismatch`], never silent corruption — and a verified
//! [`apply`](StateDelta::apply) is **bit-identical** by construction: it
//! rebuilds the exact new snapshot bytes, or fails.
//!
//! The wire form is a versioned envelope (`b"DSVD"`, [`DELTA_VERSION`])
//! through the same [`Enc`]/[`Dec`] discipline as every other format in
//! this crate: truncation, corruption, version skew, and inconsistent
//! shapes all decode to typed [`CodecError`]s; nothing panics, and a
//! corrupted length cannot demand more than [`DELTA_SECTION`]× the
//! payload's own size in allocation.

use crate::codec::{CodecError, Dec, Enc};

/// Magic bytes opening a serialized [`StateDelta`].
pub const DELTA_MAGIC: [u8; 4] = *b"DSVD";

/// Current delta format version. Bump on **any** layout change (and see
/// `MIGRATION.md`).
pub const DELTA_VERSION: u16 = 1;

/// Section width of the diff, in bytes. Snapshot payloads are compared
/// in fixed windows this wide; a window with any changed byte ships its
/// XOR, an untouched window ships one tag byte.
pub const DELTA_SECTION: usize = 64;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The 64-bit FNV-1a fingerprint of `bytes` — the chain-integrity hash
/// [`StateDelta`] records for its base and its result.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut fold = Fingerprint::new();
    fold.update(bytes);
    fold.finish()
}

/// [`fingerprint`] as an incremental fold: feeding an image piece by
/// piece, in order, yields the fingerprint of the whole — so a large
/// wire form can be pinned without being materialized.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// The fold over no bytes yet.
    pub fn new() -> Self {
        Fingerprint(FNV_OFFSET)
    }

    /// Fold the next `bytes` of the image in.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// The fingerprint of everything fed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

/// [`fingerprint`] of `a` and of `b` at once: the two FNV-1a chains
/// step in one loop, so each one's multiply latency hides the other's.
fn fingerprint_pair(a: &[u8], b: &[u8]) -> (u64, u64) {
    let n = a.len().min(b.len());
    let (mut ha, mut hb) = (FNV_OFFSET, FNV_OFFSET);
    for (&x, &y) in a[..n].iter().zip(&b[..n]) {
        ha = (ha ^ x as u64).wrapping_mul(FNV_PRIME);
        hb = (hb ^ y as u64).wrapping_mul(FNV_PRIME);
    }
    let (mut fa, mut fb) = (Fingerprint(ha), Fingerprint(hb));
    fa.update(&a[n..]);
    fb.update(&b[n..]);
    (fa.finish(), fb.finish())
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
/// [`apply`](StateDelta::apply) (which verifies the base *and* the
/// result against recorded lengths and fingerprints), serialized by
/// [`to_bytes`](StateDelta::to_bytes) / [`from_bytes`](StateDelta::from_bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateDelta {
    base_len: u64,
    base_hash: u64,
    new_len: u64,
    new_hash: u64,
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
    /// shorter). Identical inputs yield an [identity](Self::is_identity)
    /// delta.
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
        let (base_hash, new_hash) = fingerprint_pair(base, new);
        StateDelta {
            base_len: base.len() as u64,
            base_hash,
            new_len: new.len() as u64,
            new_hash,
            ops,
        }
    }

    /// Apply this delta to `base`, reconstructing the exact new snapshot
    /// bytes. The base is verified against the recorded length and
    /// fingerprint **before** any work (a wrong or out-of-order base is a
    /// typed [`CodecError::Mismatch`]), and the result is verified after
    /// (a chain whose links were tampered with cannot produce silently
    /// wrong bytes).
    pub fn apply(&self, base: &[u8]) -> Result<Vec<u8>, CodecError> {
        if base.len() as u64 != self.base_len {
            return Err(CodecError::Mismatch {
                what: "delta base length",
                expected: self.base_len,
                found: base.len() as u64,
            });
        }
        let found = fingerprint(base);
        if found != self.base_hash {
            return Err(CodecError::Mismatch {
                what: "delta base fingerprint",
                expected: self.base_hash,
                found,
            });
        }
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

    /// Byte length of the base this delta applies to.
    pub fn base_len(&self) -> u64 {
        self.base_len
    }

    /// Fingerprint of the base this delta applies to.
    pub fn base_hash(&self) -> u64 {
        self.base_hash
    }

    /// True when the delta carries no change at all: the new snapshot is
    /// byte-identical to the base (every section `Same`,
    /// same length, same fingerprint) — the quiet-shard chain link.
    pub fn is_identity(&self) -> bool {
        self.base_len == self.new_len
            && self.base_hash == self.new_hash
            && self.ops.iter().all(|op| matches!(op, SectionOp::Same))
    }

    /// Exact length of [`to_bytes`](Self::to_bytes)' output, without
    /// encoding — the bench's bytes-per-boundary accounting.
    pub fn encoded_len(&self) -> usize {
        let mut n = 4 + 2 + 4 * 8 + 8; // envelope + header + section count
        for op in &self.ops {
            n += match op {
                SectionOp::Same => 1,
                SectionOp::Diff(rle) => 1 + 1 + rle.len(),
            };
        }
        n
    }

    /// Append the versioned wire form to an encoder (for embedding in a
    /// larger payload; see [`to_bytes`](Self::to_bytes) for standalone use).
    pub fn encode(&self, enc: &mut Enc) {
        enc.magic(DELTA_MAGIC, DELTA_VERSION);
        enc.u64(self.base_len);
        enc.u64(self.base_hash);
        enc.u64(self.new_len);
        enc.u64(self.new_hash);
        enc.seq_len(self.ops.len());
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

    /// Decode one delta from a decoder positioned at its envelope,
    /// validating the section count against the recorded new length and
    /// every run group against its section. Pair with [`Dec::finish`]
    /// when the delta is the whole payload ([`from_bytes`](Self::from_bytes)
    /// does both).
    pub fn decode(dec: &mut Dec<'_>) -> Result<Self, CodecError> {
        dec.magic(DELTA_MAGIC, DELTA_VERSION)?;
        let base_len = dec.u64()?;
        let base_hash = dec.u64()?;
        let new_len = dec.u64()?;
        let new_hash = dec.u64()?;
        let n_ops = dec.seq_len("delta sections", 1)?;
        if n_ops as u64 != section_count(new_len) {
            return Err(CodecError::Mismatch {
                what: "delta section count vs new length",
                expected: section_count(new_len),
                found: n_ops as u64,
            });
        }
        let mut ops = Vec::with_capacity(n_ops);
        for s in 0..n_ops {
            match dec.u8()? {
                0 => ops.push(SectionOp::Same),
                1 => {
                    let rle_len = dec.u8()? as usize;
                    let mut rle = Vec::with_capacity(rle_len);
                    for _ in 0..rle_len {
                        rle.push(dec.u8()?);
                    }
                    // Validate the run groups now, so a decoded delta can
                    // only fail `apply` on a wrong base, never on its own
                    // shape.
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
            base_len,
            base_hash,
            new_len,
            new_hash,
            ops,
        })
    }

    /// Serialize to the versioned standalone wire form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        self.encode(&mut enc);
        enc.into_bytes()
    }

    /// Decode the standalone wire form, requiring exact consumption.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut dec = Dec::new(bytes);
        let delta = Self::decode(&mut dec)?;
        dec.finish()?;
        Ok(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply_round_trip(base: &[u8], new: &[u8]) {
        let delta = StateDelta::diff(base, new);
        assert_eq!(delta.apply(base).unwrap(), new, "apply rebuilds new");
        let rebuilt = StateDelta::from_bytes(&delta.to_bytes()).unwrap();
        assert_eq!(rebuilt, delta, "wire round trip");
        assert_eq!(rebuilt.apply(base).unwrap(), new, "decoded apply");
        assert_eq!(delta.to_bytes().len(), delta.encoded_len());
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
        assert!(delta.is_identity());
        // One byte per untouched 64-byte section plus a fixed header.
        assert!(
            delta.encoded_len() < base.len() / DELTA_SECTION + 64,
            "identity delta of {} bytes for a {}-byte state",
            delta.encoded_len(),
            base.len()
        );
        let changed = StateDelta::diff(&base, &base[..99_999]);
        assert!(!changed.is_identity(), "length change is not identity");
    }

    #[test]
    fn localized_change_costs_a_section_not_the_state() {
        let base = vec![3u8; 64 * 1024];
        let mut new = base.clone();
        new[1000] = 42;
        let delta = StateDelta::diff(&base, &new);
        assert!(!delta.is_identity());
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
        // Wrong length.
        assert!(matches!(
            delta.apply(&base[..199]).unwrap_err(),
            CodecError::Mismatch {
                what: "delta base length",
                ..
            }
        ));
        // Right length, wrong bytes.
        assert!(matches!(
            delta.apply(&[7u8; 200]).unwrap_err(),
            CodecError::Mismatch {
                what: "delta base fingerprint",
                ..
            }
        ));
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
        let bytes = StateDelta::diff(&base, &new).to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                StateDelta::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        for i in 0..bytes.len() {
            let mut dirty = bytes.clone();
            dirty[i] ^= 0xA5;
            // Must never panic; decoding may succeed, in which case apply
            // still cannot silently fabricate state.
            if let Ok(delta) = StateDelta::from_bytes(&dirty) {
                if let Ok(out) = delta.apply(&base) {
                    assert_eq!(out, new, "byte {i}");
                }
            }
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            StateDelta::from_bytes(&trailing).unwrap_err(),
            CodecError::Trailing { left: 1 }
        );
        let mut skew = bytes;
        skew[4] = (DELTA_VERSION + 1) as u8;
        assert_eq!(
            StateDelta::from_bytes(&skew).unwrap_err(),
            CodecError::UnsupportedVersion {
                found: DELTA_VERSION + 1,
                supported: DELTA_VERSION
            }
        );
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        assert_eq!(fingerprint(b""), FNV_OFFSET);
        assert_ne!(fingerprint(b"a"), fingerprint(b"b"));
        assert_ne!(fingerprint(b"ab"), fingerprint(b"ba"));
        // The published FNV-1a test vector, so the fold cannot drift.
        assert_eq!(fingerprint(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fingerprint_fold_is_cut_invariant() {
        let image: Vec<u8> = (0..1000u32).map(|i| (i * 31 + 7) as u8).collect();
        let whole = fingerprint(&image);
        for cut in [0, 1, 7, 500, 999, 1000] {
            let mut fold = Fingerprint::new();
            fold.update(&image[..cut]);
            fold.update(&[]);
            fold.update(&image[cut..]);
            assert_eq!(fold.finish(), whole, "cut at {cut}");
        }
        assert_eq!(Fingerprint::default().finish(), fingerprint(b""));
    }
}
