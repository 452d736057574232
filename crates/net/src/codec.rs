//! Hand-rolled length-prefixed binary codec for protocol state.
//!
//! The snapshot/restore seam externalizes running tracker state — per-site
//! protocol scalars, coordinator vectors, RNG streams, the [`crate::CommStats`]
//! ledger — so long-lived monitors can be checkpointed, migrated, and
//! resumed without replaying the stream. This workspace builds hermetically
//! with no registry access, so there is no serde; the format here is the
//! whole wire contract:
//!
//! * fixed-width little-endian integers (`u8`/`u16`/`u32`/`u64`/`i64`);
//! * `f64` as IEEE-754 bit patterns (`to_bits`/`from_bits` — exact, so
//!   restored probabilities and HYZ estimates are bit-identical);
//! * sequences as a `u64` length prefix followed by the elements;
//! * nested node payloads as length-prefixed blobs ([`Enc::blob`], or
//!   [`Enc::nested`] to write one in place / [`Dec::blob`]), each of
//!   which must be consumed exactly ([`Dec::finish`]).
//!
//! Decoding never panics: truncated, corrupted, or wrong-version payloads
//! surface as typed [`CodecError`]s, and sequence lengths are validated
//! against the remaining input before any allocation, so a corrupted
//! length prefix cannot trigger an out-of-memory abort.
//!
//! Versioned envelopes (magic + `u16` version) are written by the layers
//! that own a format — `dsv-core::codec` for single-tracker snapshots,
//! `dsv-engine` for whole-engine checkpoints — through
//! [`Enc::magic`] / [`Dec::magic`].

/// A state payload that cannot be decoded (or produced), as a typed error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the expected field.
    Eof,
    /// The payload does not start with the expected magic bytes.
    BadMagic {
        /// The magic the decoder expected.
        expected: [u8; 4],
        /// The bytes found instead.
        found: [u8; 4],
    },
    /// The payload was written by an unsupported format version.
    UnsupportedVersion {
        /// The version found in the payload.
        found: u16,
        /// The newest version this build understands.
        supported: u16,
    },
    /// Bytes remained after the payload was fully decoded.
    Trailing {
        /// Number of unread bytes.
        left: usize,
    },
    /// A tag byte does not name a known variant.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u64,
    },
    /// A decoded quantity disagrees with the state being restored into
    /// (wrong site count, wrong counter-vector shape, wrong kind, ...).
    Mismatch {
        /// What disagreed.
        what: &'static str,
        /// The value the restoring state requires.
        expected: u64,
        /// The value found in the payload.
        found: u64,
    },
    /// A sequence length prefix exceeds the remaining payload.
    BadLength {
        /// What was being decoded.
        what: &'static str,
    },
    /// A field holds a value outside its domain (e.g. a bool byte that is
    /// neither 0 nor 1).
    BadValue {
        /// What was being decoded.
        what: &'static str,
    },
    /// The node does not implement the state seam (custom protocols that
    /// keep the default [`crate::SiteNode::save_state`]).
    UnsupportedNode,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Eof => write!(fm, "state payload truncated"),
            CodecError::BadMagic { expected, found } => write!(
                fm,
                "bad magic: expected {expected:?}, found {found:?} — not a state payload"
            ),
            CodecError::UnsupportedVersion { found, supported } => write!(
                fm,
                "state version {found} not supported (this build reads up to {supported})"
            ),
            CodecError::Trailing { left } => {
                write!(fm, "{left} trailing bytes after a complete state payload")
            }
            CodecError::BadTag { what, tag } => write!(fm, "unknown {what} tag {tag}"),
            CodecError::Mismatch {
                what,
                expected,
                found,
            } => write!(
                fm,
                "state mismatch: {what} is {found} in the payload but {expected} in the target"
            ),
            CodecError::BadLength { what } => {
                write!(fm, "{what} length prefix exceeds the payload")
            }
            CodecError::BadValue { what } => write!(fm, "invalid {what} value"),
            CodecError::UnsupportedNode => {
                write!(fm, "this protocol does not implement the state seam")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Binary state encoder: an append-only byte buffer with typed writers.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh, empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `write` on an encoder that appends to `out` — the caller's
    /// buffer is the encoder's for the duration, so nothing is copied and
    /// what `out` already holds is kept. If `write` fails, `out` is
    /// truncated back to its entry length.
    pub fn append_to(
        out: &mut Vec<u8>,
        write: impl FnOnce(&mut Enc) -> Result<(), CodecError>,
    ) -> Result<(), CodecError> {
        let entry = out.len();
        let mut enc = Enc {
            buf: std::mem::take(out),
        };
        let result = write(&mut enc);
        *out = enc.buf;
        if result.is_err() {
            out.truncate(entry);
        }
        result
    }

    /// Forget everything written so far, keeping the allocation (for a
    /// caller that encodes piece by piece through one buffer).
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// The encoded bytes so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the encoder, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write a 4-byte magic plus a `u16` format version.
    pub fn magic(&mut self, magic: [u8; 4], version: u16) {
        self.buf.extend_from_slice(&magic);
        self.u16(version);
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f64` as its exact IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Write a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Write a sequence length prefix (pair with per-element writers).
    pub fn seq_len(&mut self, n: usize) {
        self.u64(n as u64);
    }

    /// Write a length-prefixed sequence of 8-byte words as one slab: the
    /// buffer grows once and each word is stored into its slot — the
    /// bytes of a `seq_len` followed by one scalar write per element.
    fn seq_words<T: Copy>(&mut self, vs: &[T], le_bytes: impl Fn(T) -> [u8; 8]) {
        self.seq_len(vs.len());
        let body = self.buf.len();
        self.buf.resize(body + vs.len() * 8, 0);
        for (slot, &v) in self.buf[body..].chunks_exact_mut(8).zip(vs) {
            slot.copy_from_slice(&le_bytes(v));
        }
    }

    /// Write a `u64` slice as a length-prefixed sequence.
    pub fn seq_u64(&mut self, vs: &[u64]) {
        self.seq_words(vs, u64::to_le_bytes);
    }

    /// Write an `i64` slice as a length-prefixed sequence.
    pub fn seq_i64(&mut self, vs: &[i64]) {
        self.seq_words(vs, i64::to_le_bytes);
    }

    /// Write an `f64` slice as a length-prefixed sequence of bit patterns.
    pub fn seq_f64(&mut self, vs: &[f64]) {
        self.seq_words(vs, |v| v.to_bits().to_le_bytes());
    }

    /// Write a bool slice as a length-prefixed sequence of bytes.
    pub fn seq_bool(&mut self, vs: &[bool]) {
        self.seq_len(vs.len());
        for &v in vs {
            self.bool(v);
        }
    }

    /// Write a length-prefixed blob (a nested payload).
    pub fn blob(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Write a nested payload in place: reserve the length prefix, let
    /// `write` append the payload to this encoder, then back-patch the
    /// prefix. The bytes are exactly those of [`blob`](Self::blob) over a
    /// side encoder `write` had filled, without the side encoder. Nests.
    /// If `write` fails the encoder is truncated back to where the blob
    /// began.
    pub fn nested(
        &mut self,
        write: impl FnOnce(&mut Enc) -> Result<(), CodecError>,
    ) -> Result<(), CodecError> {
        let prefix = self.buf.len();
        self.u64(0);
        let body = self.buf.len();
        if let Err(e) = write(self) {
            self.buf.truncate(prefix);
            return Err(e);
        }
        let len = (self.buf.len() - body) as u64;
        self.buf[prefix..body].copy_from_slice(&len.to_le_bytes());
        Ok(())
    }
}

/// Binary state decoder over a byte slice. Every reader returns a typed
/// [`CodecError`] on truncation or malformed input; nothing panics.
#[derive(Debug)]
pub struct Dec<'a> {
    bytes: &'a [u8],
}

impl<'a> Dec<'a> {
    /// Decode from `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes }
    }

    /// Number of unread bytes.
    pub fn remaining(&self) -> usize {
        self.bytes.len()
    }

    /// Succeed only if the payload was consumed exactly.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Trailing {
                left: self.bytes.len(),
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.bytes.len() < n {
            return Err(CodecError::Eof);
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    /// Read and check a 4-byte magic plus a `u16` version; the version must
    /// be exactly `supported`: every format reads one generation.
    pub fn magic(&mut self, expected: [u8; 4], supported: u16) -> Result<(), CodecError> {
        let found: [u8; 4] = self.take(4)?.try_into().expect("took 4 bytes");
        if found != expected {
            return Err(CodecError::BadMagic { expected, found });
        }
        let version = self.u16()?;
        if version != supported {
            return Err(CodecError::UnsupportedVersion {
                found: version,
                supported,
            });
        }
        Ok(())
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a bool byte (must be 0 or 1).
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::BadValue { what: "bool" }),
        }
    }

    /// Read a `usize` stored as a `u64`.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CodecError::BadValue { what: "usize" })
    }

    /// Read a sequence length prefix, validating that `len * elem_bytes`
    /// elements can still fit in the remaining payload (so corrupted
    /// prefixes cannot trigger huge allocations).
    pub fn seq_len(&mut self, what: &'static str, elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u64()?;
        let need = (n as u128) * (elem_bytes.max(1) as u128);
        if need > self.bytes.len() as u128 {
            return Err(CodecError::BadLength { what });
        }
        Ok(n as usize)
    }

    /// Read a length-prefixed sequence of 8-byte words: the prefix is
    /// validated against the remaining payload before the exactly-sized
    /// `Vec` is allocated, and the body is taken as one slice.
    fn seq_words<T>(
        &mut self,
        what: &'static str,
        from_le: impl Fn([u8; 8]) -> T,
    ) -> Result<Vec<T>, CodecError> {
        let n = self.seq_len(what, 8)?;
        Ok(words(self.take(n * 8)?, from_le).collect())
    }

    /// Read a length-prefixed `u64` sequence.
    pub fn seq_u64(&mut self, what: &'static str) -> Result<Vec<u64>, CodecError> {
        self.seq_words(what, u64::from_le_bytes)
    }

    /// Read a length-prefixed `i64` sequence.
    pub fn seq_i64(&mut self, what: &'static str) -> Result<Vec<i64>, CodecError> {
        self.seq_words(what, i64::from_le_bytes)
    }

    /// Read a length-prefixed `f64` sequence.
    pub fn seq_f64(&mut self, what: &'static str) -> Result<Vec<f64>, CodecError> {
        self.seq_words(what, f64_from_le)
    }

    /// Read a length-prefixed bool sequence.
    pub fn seq_bool(&mut self, what: &'static str) -> Result<Vec<bool>, CodecError> {
        let n = self.seq_len(what, 1)?;
        (0..n).map(|_| self.bool()).collect()
    }

    /// Read a length-prefixed sequence of 8-byte words into `target`,
    /// whose length the sequence must have: the prefix is checked against
    /// the remaining payload ([`CodecError::BadLength`]) and then against
    /// the target ([`CodecError::Mismatch`]) before a word is read.
    fn fill<T>(
        &mut self,
        what: &'static str,
        target: &mut [T],
        from_le: impl Fn([u8; 8]) -> T,
    ) -> Result<(), CodecError> {
        let n = self.seq_len(what, 8)?;
        if n != target.len() {
            return Err(CodecError::Mismatch {
                what,
                expected: target.len() as u64,
                found: n as u64,
            });
        }
        for (slot, word) in target.iter_mut().zip(words(self.take(n * 8)?, from_le)) {
            *slot = word;
        }
        Ok(())
    }

    /// Read a length-prefixed `u64` sequence into a slice of exactly that
    /// length — [`seq_u64`](Self::seq_u64) without the intermediate `Vec`,
    /// for state whose shape the restoring node fixes; a sequence of
    /// another length is [`CodecError::Mismatch`].
    pub fn fill_u64(&mut self, what: &'static str, target: &mut [u64]) -> Result<(), CodecError> {
        self.fill(what, target, u64::from_le_bytes)
    }

    /// Read a length-prefixed `i64` sequence into a slice of exactly that
    /// length; see [`fill_u64`](Self::fill_u64).
    pub fn fill_i64(&mut self, what: &'static str, target: &mut [i64]) -> Result<(), CodecError> {
        self.fill(what, target, i64::from_le_bytes)
    }

    /// Read a length-prefixed `f64` sequence into a slice of exactly that
    /// length; see [`fill_u64`](Self::fill_u64).
    pub fn fill_f64(&mut self, what: &'static str, target: &mut [f64]) -> Result<(), CodecError> {
        self.fill(what, target, f64_from_le)
    }

    /// Read a length-prefixed blob (a nested payload). Decode it with a
    /// fresh [`Dec`] and close with [`Dec::finish`].
    pub fn blob(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.seq_len("blob", 1)?;
        self.take(n)
    }
}

/// The 8-byte little-endian words of a sequence body (whose length the
/// caller has validated as a whole number of them), converted in order.
/// The conversion is `impl Fn`, not a `fn` pointer, so it is inlined into
/// the loop: through a pointer it was an indirect call per word and the
/// bulk decode ran no faster than the element-wise one.
fn words<'a, T>(
    body: &'a [u8],
    from_le: impl Fn([u8; 8]) -> T + 'a,
) -> impl ExactSizeIterator<Item = T> + 'a {
    body.chunks_exact(8)
        .map(move |word| from_le(word.try_into().expect("chunks of exactly 8 bytes")))
}

fn f64_from_le(word: [u8; 8]) -> f64 {
    f64::from_bits(u64::from_le_bytes(word))
}

/// The domain check that ties a decoded value to what the restored
/// protocol can run from: `Ok` if `ok`, else [`CodecError::BadValue`]
/// naming `what`.
pub fn restore_check(ok: bool, what: &'static str) -> Result<(), CodecError> {
    if ok {
        Ok(())
    } else {
        Err(CodecError::BadValue { what })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut enc = Enc::new();
        enc.magic(*b"TEST", 3);
        enc.u8(7);
        enc.u16(300);
        enc.u32(70_000);
        enc.u64(u64::MAX);
        enc.i64(-42);
        enc.f64(0.1);
        enc.bool(true);
        enc.usize(99);
        let bytes = enc.into_bytes();

        let mut dec = Dec::new(&bytes);
        dec.magic(*b"TEST", 3).unwrap();
        assert_eq!(dec.u8().unwrap(), 7);
        assert_eq!(dec.u16().unwrap(), 300);
        assert_eq!(dec.u32().unwrap(), 70_000);
        assert_eq!(dec.u64().unwrap(), u64::MAX);
        assert_eq!(dec.i64().unwrap(), -42);
        assert_eq!(dec.f64().unwrap().to_bits(), (0.1f64).to_bits());
        assert!(dec.bool().unwrap());
        assert_eq!(dec.usize().unwrap(), 99);
        dec.finish().unwrap();
    }

    #[test]
    fn sequences_and_blobs_round_trip() {
        let mut enc = Enc::new();
        enc.seq_u64(&[1, 2, 3]);
        enc.seq_i64(&[-1, 0, 1]);
        enc.seq_f64(&[0.5, -2.25]);
        enc.seq_bool(&[true, false]);
        enc.blob(b"nested");
        let bytes = enc.into_bytes();

        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.seq_u64("a").unwrap(), vec![1, 2, 3]);
        assert_eq!(dec.seq_i64("b").unwrap(), vec![-1, 0, 1]);
        assert_eq!(dec.seq_f64("c").unwrap(), vec![0.5, -2.25]);
        assert_eq!(dec.seq_bool("d").unwrap(), vec![true, false]);
        assert_eq!(dec.blob().unwrap(), b"nested");
        dec.finish().unwrap();
    }

    #[test]
    fn truncation_at_every_length_is_a_typed_error() {
        let mut enc = Enc::new();
        enc.magic(*b"TEST", 1);
        enc.seq_u64(&[5, 6]);
        enc.blob(b"xyz");
        let bytes = enc.into_bytes();
        for cut in 0..bytes.len() {
            let mut dec = Dec::new(&bytes[..cut]);
            let r = (|| -> Result<(), CodecError> {
                dec.magic(*b"TEST", 1)?;
                dec.seq_u64("s")?;
                dec.blob()?;
                dec.finish()
            })();
            assert!(r.is_err(), "cut at {cut} must fail");
        }
        // The full payload decodes.
        let mut dec = Dec::new(&bytes);
        dec.magic(*b"TEST", 1).unwrap();
        dec.seq_u64("s").unwrap();
        dec.blob().unwrap();
        dec.finish().unwrap();
    }

    #[test]
    fn corrupted_envelopes_are_typed_errors() {
        let mut enc = Enc::new();
        enc.magic(*b"TEST", 1);
        let mut bytes = enc.into_bytes();

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            Dec::new(&wrong_magic).magic(*b"TEST", 1),
            Err(CodecError::BadMagic { .. })
        ));

        bytes[4] = 9; // version 9 in a build that supports 1
        assert!(matches!(
            Dec::new(&bytes).magic(*b"TEST", 1),
            Err(CodecError::UnsupportedVersion {
                found: 9,
                supported: 1
            })
        ));
    }

    #[test]
    fn magic_reads_exactly_one_generation() {
        for (written, found) in [(2u16, 2u16), (0, 0), (4, 4)] {
            let mut enc = Enc::new();
            enc.magic(*b"TEST", written);
            assert_eq!(
                Dec::new(&enc.into_bytes()).magic(*b"TEST", 3),
                Err(CodecError::UnsupportedVersion {
                    found,
                    supported: 3
                })
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut enc = Enc::new();
        enc.u64(u64::MAX); // claims ~2^64 elements
        let bytes = enc.into_bytes();
        assert_eq!(
            Dec::new(&bytes).seq_u64("huge"),
            Err(CodecError::BadLength { what: "huge" })
        );
        assert_eq!(
            Dec::new(&bytes).blob().unwrap_err(),
            CodecError::BadLength { what: "blob" }
        );
    }

    #[test]
    fn trailing_bytes_are_reported() {
        let mut enc = Enc::new();
        enc.u64(1);
        enc.u8(0xFF);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        dec.u64().unwrap();
        assert_eq!(dec.finish(), Err(CodecError::Trailing { left: 1 }));
    }

    #[test]
    fn nested_writer_equals_blob_of_a_side_encoder() {
        // Empty, one-level, and nested-in-nested payloads, each after a
        // prefix the back-patch must not disturb.
        let inner = |enc: &mut Enc| {
            enc.i64(-7);
            enc.seq_f64(&[0.25, 8.0]);
        };
        let mut side_inner = Enc::new();
        inner(&mut side_inner);
        let mut side_outer = Enc::new();
        side_outer.u32(9);
        side_outer.blob(side_inner.as_bytes());
        side_outer.blob(&[]);
        side_outer.bool(true);
        let mut want = Enc::new();
        want.u16(0xBEEF);
        want.blob(&[]);
        want.blob(side_inner.as_bytes());
        want.blob(side_outer.as_bytes());

        let mut got = Enc::new();
        got.u16(0xBEEF);
        got.nested(|_| Ok(())).unwrap();
        got.nested(|enc| {
            inner(enc);
            Ok(())
        })
        .unwrap();
        got.nested(|enc| {
            enc.u32(9);
            enc.nested(|enc| {
                inner(enc);
                Ok(())
            })?;
            enc.nested(|_| Ok(()))?;
            enc.bool(true);
            Ok(())
        })
        .unwrap();
        assert_eq!(got.as_bytes(), want.as_bytes());

        // A failing writer takes its partial blob with it, at any depth.
        let before = got.len();
        let err = got.nested(|enc| {
            enc.u64(1);
            enc.nested(|enc| {
                enc.u8(2);
                Err(CodecError::UnsupportedNode)
            })
        });
        assert_eq!(err, Err(CodecError::UnsupportedNode));
        assert_eq!(got.len(), before);
        assert_eq!(got.as_bytes(), want.as_bytes());
    }

    #[test]
    fn append_to_keeps_the_prefix_and_truncates_on_error() {
        let mut out = vec![0xAA, 0xBB];
        Enc::append_to(&mut out, |enc| {
            enc.u16(0x0102);
            Ok(())
        })
        .unwrap();
        assert_eq!(out, [0xAA, 0xBB, 0x02, 0x01]);
        let err = Enc::append_to(&mut out, |enc| {
            enc.u64(u64::MAX);
            Err(CodecError::UnsupportedNode)
        });
        assert_eq!(err, Err(CodecError::UnsupportedNode));
        assert_eq!(out, [0xAA, 0xBB, 0x02, 0x01]);

        let mut enc = Enc::new();
        enc.u64(5);
        enc.clear();
        assert!(enc.is_empty());
    }

    #[test]
    fn fill_reads_in_place_and_checks_length_then_shape() {
        let mut enc = Enc::new();
        enc.seq_u64(&[1, 2, 3]);
        enc.seq_i64(&[-1, 0, 1]);
        enc.seq_f64(&[0.5, -2.25]);
        let bytes = enc.into_bytes();
        let (mut a, mut b, mut c) = ([0u64; 3], [0i64; 3], [0f64; 2]);
        let mut dec = Dec::new(&bytes);
        dec.fill_u64("a", &mut a).unwrap();
        dec.fill_i64("b", &mut b).unwrap();
        dec.fill_f64("c", &mut c).unwrap();
        dec.finish().unwrap();
        assert_eq!((a, b, c), ([1, 2, 3], [-1, 0, 1], [0.5, -2.25]));

        // Wrong target shape: a Mismatch naming both lengths.
        assert_eq!(
            Dec::new(&bytes).fill_u64("a", &mut [0u64; 2]),
            Err(CodecError::Mismatch {
                what: "a",
                expected: 2,
                found: 3
            })
        );
        // A prefix the payload cannot hold is BadLength first, even when
        // it happens to equal the target's length.
        let mut enc = Enc::new();
        enc.u64(4);
        enc.u64(0);
        assert_eq!(
            Dec::new(enc.as_bytes()).fill_i64("short", &mut [0i64; 4]),
            Err(CodecError::BadLength { what: "short" })
        );
    }

    /// What `write` encodes behind a marker byte: a slab must land after
    /// what the buffer already holds.
    fn after_marker(write: impl FnOnce(&mut Enc)) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.u8(0xEE);
        write(&mut enc);
        enc.into_bytes()
    }

    /// The element-wise codec the bulk `seq_*` paths replaced, kept here
    /// as their oracle: a length prefix, then one scalar at a time.
    fn seq_by_element<T: Copy>(vs: &[T], write: fn(&mut Enc, T)) -> Vec<u8> {
        after_marker(|enc| {
            enc.seq_len(vs.len());
            for &v in vs {
                write(enc, v);
            }
        })
    }

    /// Skip the marker, run `read`, and require the payload consumed.
    fn read_after_marker<T>(
        bytes: &[u8],
        read: impl FnOnce(&mut Dec<'_>) -> Result<T, CodecError>,
    ) -> Result<T, CodecError> {
        let mut dec = Dec::new(bytes);
        dec.u8()?;
        let got = read(&mut dec)?;
        dec.finish()?;
        Ok(got)
    }

    fn unseq_by_element(bytes: &[u8]) -> Result<Vec<i64>, CodecError> {
        read_after_marker(bytes, |dec| {
            let n = dec.seq_len("seq", 8)?;
            (0..n).map(|_| dec.i64()).collect()
        })
    }

    #[test]
    fn bulk_sequences_are_the_element_wise_bytes_both_ways() {
        // Empty, one, and 8k words walking the i64 edges and, read as
        // f64 bits, quiet/signalling NaNs, +inf and -0.0.
        let edges = [
            i64::MIN,
            i64::MAX,
            -1,
            0,
            0x7FF8_0000_0000_0001,
            0x7FF0_0000_0000_0001,
            0x7FF0_0000_0000_0000,
            i64::MIN + 1,
        ];
        let big: Vec<i64> = (0..8192i64)
            .map(|i| edges[i as usize % edges.len()].wrapping_add(i / 8))
            .collect();
        for vs in [&big[..0], &big[..1], &big[..]] {
            let us: Vec<u64> = vs.iter().map(|&v| v as u64).collect();
            let fs: Vec<f64> = us.iter().map(|&u| f64::from_bits(u)).collect();
            let bytes = seq_by_element(vs, Enc::i64);
            assert_eq!(after_marker(|enc| enc.seq_i64(vs)), bytes);
            assert_eq!(after_marker(|enc| enc.seq_u64(&us)), bytes);
            assert_eq!(after_marker(|enc| enc.seq_f64(&fs)), bytes);
            assert_eq!(seq_by_element(&us, Enc::u64), bytes);
            assert_eq!(seq_by_element(&fs, Enc::f64), bytes);

            let bits = |fs: &[f64]| fs.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(read_after_marker(&bytes, |d| d.seq_i64("seq")).unwrap(), vs);
            assert_eq!(read_after_marker(&bytes, |d| d.seq_u64("seq")).unwrap(), us);
            let got = read_after_marker(&bytes, |d| d.seq_f64("seq")).unwrap();
            assert_eq!(bits(&got), us, "NaN payloads survive bit for bit");
            let mut filled = vec![0f64; vs.len()];
            read_after_marker(&bytes, |d| d.fill_f64("seq", &mut filled)).unwrap();
            assert_eq!(bits(&filled), us);
        }
    }

    #[test]
    fn bulk_decode_fails_where_the_element_wise_decode_fails() {
        let vs = [i64::MIN, -1, i64::MAX];
        let bytes = seq_by_element(&vs, Enc::i64);
        for cut in 0..=bytes.len() {
            let cut_bytes = &bytes[..cut];
            let want = unseq_by_element(cut_bytes);
            let unit = want.clone().map(|_| ());
            assert_eq!(read_after_marker(cut_bytes, |d| d.seq_i64("seq")), want);
            assert_eq!(
                read_after_marker(cut_bytes, |d| d.seq_u64("seq").map(|_| ())),
                unit
            );
            assert_eq!(
                read_after_marker(cut_bytes, |d| d.seq_f64("seq").map(|_| ())),
                unit
            );
            assert_eq!(
                read_after_marker(cut_bytes, |d| d.fill_i64("seq", &mut [0; 3])),
                unit
            );
            // Inside the prefix is Eof; inside the body the prefix
            // promises more than is left, before anything is allocated.
            match cut {
                0..=8 => assert_eq!(want, Err(CodecError::Eof), "cut {cut}"),
                9..=32 => assert_eq!(want, Err(CodecError::BadLength { what: "seq" })),
                _ => assert_eq!(want.as_deref(), Ok(&vs[..])),
            }
        }
    }

    #[test]
    fn errors_display() {
        for e in [
            CodecError::Eof,
            CodecError::Trailing { left: 3 },
            CodecError::BadTag {
                what: "kind",
                tag: 99,
            },
            CodecError::BadValue { what: "bool" },
            CodecError::UnsupportedNode,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
