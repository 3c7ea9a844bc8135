//! Checkpoint wire-format primitives: a little-endian byte codec, CRC-32,
//! and the versioned, checksummed section container used by `feves-ckpt`
//! files.
//!
//! The format is a custom binary layout rather than JSON because checkpoint
//! payloads carry `f64::NAN` sentinels (uncharacterized [`PerfChar`] slots)
//! and megabytes of reconstructed plane data — both hostile to a text
//! codec. Layout, all little-endian:
//!
//! ```text
//! magic    [u8; 8]   "FEVESCKP"
//! version  u32       CKPT_VERSION
//! fprint   u64       job fingerprint (same encode ⇒ same fingerprint)
//! nsect    u32       section count
//! hcrc     u32       CRC-32 of the 24 header bytes above
//! section* {
//!   tag    [u8; 4]   ASCII section name, e.g. "PERF"
//!   len    u64       payload length in bytes
//!   body   [u8; len]
//!   crc    u32       CRC-32 of tag ‖ len ‖ body
//! }
//! ```
//!
//! Every failure mode a torn or bit-rotted file can exhibit — short read,
//! bad magic, unknown version, header/section CRC mismatch, truncated
//! section — maps to a typed [`FevesError`] checkpoint variant so callers
//! can fall back to the previous generation instead of crashing.
//!
//! [`PerfChar`]: ../../feves_sched/perfchar/struct.PerfChar.html

use crate::error::FevesError;

/// File magic for FEVES checkpoints.
pub const CKPT_MAGIC: [u8; 8] = *b"FEVESCKP";

/// Current checkpoint format version. Bump on any wire-format change.
/// v2: META gained the trailing `pipeline` flag.
/// v3: META gained the trailing `out_crc` artifact-prefix checksum.
pub const CKPT_VERSION: u32 = 3;

/// Initial state for the incremental CRC-32 ([`crc32_update`]).
pub const CRC32_INIT: u32 = 0xFFFF_FFFF;

/// The reflected IEEE polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// One step of the CRC-32 register: fold the low byte of `crc` bit by bit.
const fn crc32_fold_byte(mut crc: u32) -> u32 {
    let mut bit = 0;
    while bit < 8 {
        let mask = (crc & 1).wrapping_neg();
        crc = (crc >> 1) ^ (CRC32_POLY & mask);
        bit += 1;
    }
    crc
}

/// Slicing-by-8 tables: `CRC32_TABLES[k][b]` is the register after byte `b`
/// followed by `k` zero bytes, so eight input bytes fold with eight lookups.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        t[0][b] = crc32_fold_byte(b as u32);
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// Fold `bytes` into a running CRC-32 state. Start from [`CRC32_INIT`],
/// finish by complementing (`!state`) — [`crc32`] does both in one shot;
/// streaming writers (`ft::io::CrcFile`) keep the raw state across chunks.
/// The state after a buffer is the same however the buffer is chunked.
pub fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF`) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(CRC32_INIT, bytes)
}

/// 64-bit FNV-1a hash, used for job fingerprints (not integrity — that is
/// CRC-32's job).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_update(FNV1A64_INIT, bytes)
}

/// Initial state for [`fnv1a64_update`].
pub const FNV1A64_INIT: u64 = 0xCBF2_9CE4_8422_2325;

/// Fold more bytes into a running [`fnv1a64`]: hashing a stream chunk by
/// chunk from [`FNV1A64_INIT`] gives the hash of the whole.
pub fn fnv1a64_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Append-only little-endian encoder for checkpoint payloads.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Consume the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append an `f64` by bit pattern (NaN-preserving).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append raw bytes with a length prefix.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Append a length-prefixed vector of `f64`.
    pub fn put_f64_slice(&mut self, xs: &[f64]) {
        self.put_u64(xs.len() as u64);
        for &x in xs {
            self.put_f64(x);
        }
    }

    /// Append a length-prefixed vector of `usize`.
    pub fn put_usize_slice(&mut self, xs: &[usize]) {
        self.put_u64(xs.len() as u64);
        for &x in xs {
            self.put_usize(x);
        }
    }
}

/// Bounds-checked little-endian decoder; every `take_*` fails with a typed
/// [`FevesError::CheckpointCorrupt`] instead of panicking on short input.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn corrupt(what: &str) -> FevesError {
    FevesError::CheckpointCorrupt(format!("truncated payload while reading {what}"))
}

impl<'a> ByteReader<'a> {
    /// Reader over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], FevesError> {
        if self.remaining() < n {
            return Err(corrupt(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn take_u8(&mut self) -> Result<u8, FevesError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, FevesError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, FevesError> {
        let b = self.take(8, "u64")?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Read a `u64` and narrow it to `usize`.
    pub fn take_usize(&mut self) -> Result<usize, FevesError> {
        let v = self.take_u64()?;
        usize::try_from(v)
            .map_err(|_| FevesError::CheckpointCorrupt(format!("usize out of range: {v}")))
    }

    /// Read an `f64` from its bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, FevesError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Read a bool byte (strictly 0 or 1).
    pub fn take_bool(&mut self) -> Result<bool, FevesError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(FevesError::CheckpointCorrupt(format!(
                "invalid bool byte {b:#x}"
            ))),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String, FevesError> {
        let n = self.take_usize()?;
        let b = self.take(n, "string body")?;
        String::from_utf8(b.to_vec())
            .map_err(|_| FevesError::CheckpointCorrupt("non-UTF-8 string".into()))
    }

    /// Read length-prefixed raw bytes.
    pub fn take_bytes(&mut self) -> Result<Vec<u8>, FevesError> {
        let n = self.take_usize()?;
        Ok(self.take(n, "byte buffer")?.to_vec())
    }

    /// Read a length-prefixed vector of `f64`.
    pub fn take_f64_vec(&mut self) -> Result<Vec<f64>, FevesError> {
        let n = self.take_usize()?;
        if self.remaining() < n.saturating_mul(8) {
            return Err(corrupt("f64 vector"));
        }
        (0..n).map(|_| self.take_f64()).collect()
    }

    /// Read a length-prefixed vector of `usize`.
    pub fn take_usize_vec(&mut self) -> Result<Vec<usize>, FevesError> {
        let n = self.take_usize()?;
        if self.remaining() < n.saturating_mul(8) {
            return Err(corrupt("usize vector"));
        }
        (0..n).map(|_| self.take_usize()).collect()
    }

    /// Require the reader to be fully consumed (catches trailing garbage
    /// from a mis-framed section).
    pub fn expect_end(&self, what: &str) -> Result<(), FevesError> {
        if self.remaining() != 0 {
            return Err(FevesError::CheckpointCorrupt(format!(
                "{} bytes of trailing garbage after {what}",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// In-memory checkpoint: version + job fingerprint + named CRC-protected
/// sections. [`to_bytes`] / [`from_bytes`] implement the file layout in the
/// module docs; durability (temp file + fsync + rename) is the caller's job.
///
/// [`to_bytes`]: CheckpointBlob::to_bytes
/// [`from_bytes`]: CheckpointBlob::from_bytes
#[derive(Clone, Debug)]
pub struct CheckpointBlob {
    /// Format version the blob was decoded from (or will encode as).
    pub version: u32,
    /// Job fingerprint: same input/config ⇒ same fingerprint across
    /// generations.
    pub fingerprint: u64,
    sections: Vec<([u8; 4], Vec<u8>)>,
}

impl CheckpointBlob {
    /// Fresh blob at [`CKPT_VERSION`] with the given job fingerprint.
    pub fn new(fingerprint: u64) -> Self {
        CheckpointBlob {
            version: CKPT_VERSION,
            fingerprint,
            sections: Vec::new(),
        }
    }

    /// Append a section. Tags should be unique; lookups return the first
    /// match.
    pub fn push_section(&mut self, tag: [u8; 4], payload: Vec<u8>) {
        self.sections.push((tag, payload));
    }

    /// Payload of the first section with `tag`, if present.
    pub fn section(&self, tag: [u8; 4]) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, p)| p.as_slice())
    }

    /// Payload of section `tag`, or a typed corrupt error naming it.
    pub fn require_section(&self, tag: [u8; 4]) -> Result<&[u8], FevesError> {
        self.section(tag).ok_or_else(|| {
            FevesError::CheckpointCorrupt(format!(
                "missing section {:?}",
                String::from_utf8_lossy(&tag)
            ))
        })
    }

    /// Serialize to the on-disk layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&CKPT_MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        let hcrc = crc32(&out);
        out.extend_from_slice(&hcrc.to_le_bytes());
        for (tag, payload) in &self.sections {
            let start = out.len();
            out.extend_from_slice(tag);
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(payload);
            let scrc = crc32(&out[start..]);
            out.extend_from_slice(&scrc.to_le_bytes());
        }
        out
    }

    /// Parse and fully validate an on-disk checkpoint image. Returns typed
    /// errors for every torn/corrupt/mismatched failure mode; a successful
    /// return means every section passed its CRC.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FevesError> {
        if bytes.len() < 28 {
            return Err(FevesError::CheckpointCorrupt(format!(
                "file too short for header: {} bytes",
                bytes.len()
            )));
        }
        if bytes[..8] != CKPT_MAGIC {
            return Err(FevesError::CheckpointCorrupt(
                "bad magic (not a FEVES checkpoint)".into(),
            ));
        }
        let stored_hcrc = u32::from_le_bytes(bytes[24..28].try_into().unwrap());
        if crc32(&bytes[..24]) != stored_hcrc {
            return Err(FevesError::CheckpointCorrupt("header CRC mismatch".into()));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != CKPT_VERSION {
            return Err(FevesError::CheckpointVersion {
                found: version,
                expected: CKPT_VERSION,
            });
        }
        let fingerprint = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
        let nsect = u32::from_le_bytes(bytes[20..24].try_into().unwrap()) as usize;

        let mut r = ByteReader::new(&bytes[28..]);
        // The header CRC is over bytes anyone can write, so it proves nothing
        // about `nsect`: capacity is bounded by the bytes left, at 16 (an
        // empty section's frame) per section.
        let mut sections = Vec::with_capacity(nsect.min(r.remaining() / 16));
        for i in 0..nsect {
            let frame_start = bytes.len() - r.remaining();
            let tag_bytes = r.take(4, "section tag")?;
            let tag: [u8; 4] = tag_bytes.try_into().unwrap();
            let name = String::from_utf8_lossy(&tag).into_owned();
            let len = r.take_usize()?;
            if len.checked_add(4).is_none_or(|need| r.remaining() < need) {
                return Err(FevesError::CheckpointCorrupt(format!(
                    "section {name} ({i}) truncated: need {len} + 4 bytes, have {}",
                    r.remaining()
                )));
            }
            let payload = r.take(len, "section payload")?.to_vec();
            let frame_end = bytes.len() - r.remaining();
            let stored = r.take_u32()?;
            // The CRC covers the whole frame (tag ‖ len ‖ body) so flips in
            // the framing itself are also caught.
            if crc32(&bytes[frame_start..frame_end]) != stored {
                return Err(FevesError::CheckpointCorrupt(format!(
                    "section {name} CRC mismatch"
                )));
            }
            sections.push((tag, payload));
        }
        r.expect_end("last section")?;
        Ok(CheckpointBlob {
            version,
            fingerprint,
            sections,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The CRC's bit-at-a-time definition: the reference the table fold
    /// must reproduce.
    fn crc32_update_bitwise(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        crc
    }

    proptest::proptest! {
        #[test]
        fn crc32_table_fold_equals_bitwise_for_any_chunking(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300),
            init in proptest::prelude::any::<u32>(),
            cuts in proptest::collection::vec(0usize..300, 0..4),
        ) {
            let want = crc32_update_bitwise(init, &bytes);
            proptest::prop_assert_eq!(crc32_update(init, &bytes), want);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let (mut state, mut at) = (init, 0);
            for cut in cuts {
                state = crc32_update(state, &bytes[at..cut]);
                at = cut;
            }
            proptest::prop_assert_eq!(crc32_update(state, &bytes[at..]), want);
        }
    }

    #[test]
    fn byte_codec_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_usize(12345);
        w.put_f64(f64::NAN);
        w.put_f64(-0.25);
        w.put_bool(true);
        w.put_str("hello δ");
        w.put_bytes(&[1, 2, 3]);
        w.put_f64_slice(&[1.0, f64::INFINITY, f64::NAN]);
        w.put_usize_slice(&[9, 8, 7]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX);
        assert_eq!(r.take_usize().unwrap(), 12345);
        assert!(r.take_f64().unwrap().is_nan(), "NaN must survive");
        assert_eq!(r.take_f64().unwrap(), -0.25);
        assert!(r.take_bool().unwrap());
        assert_eq!(r.take_str().unwrap(), "hello δ");
        assert_eq!(r.take_bytes().unwrap(), vec![1, 2, 3]);
        let fs = r.take_f64_vec().unwrap();
        assert_eq!(fs[0], 1.0);
        assert!(fs[1].is_infinite() && fs[2].is_nan());
        assert_eq!(r.take_usize_vec().unwrap(), vec![9, 8, 7]);
        r.expect_end("test payload").unwrap();
    }

    #[test]
    fn reader_errors_are_typed_not_panics() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(matches!(
            r.take_u64(),
            Err(FevesError::CheckpointCorrupt(_))
        ));
        // A declared length far beyond the buffer must not allocate or panic.
        let mut huge = ByteWriter::new();
        huge.put_u64(u64::MAX - 3);
        let bytes = huge.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.take_f64_vec().is_err());
        let mut r = ByteReader::new(&bytes);
        assert!(r.take_bytes().is_err());
    }

    fn sample_blob() -> CheckpointBlob {
        let mut b = CheckpointBlob::new(0x1234_5678_9ABC_DEF0);
        b.push_section(*b"PERF", vec![1, 2, 3, 4, 5]);
        b.push_section(*b"CURS", vec![]);
        b.push_section(*b"REFS", vec![0xAB; 1000]);
        b
    }

    #[test]
    fn blob_round_trip() {
        let b = sample_blob();
        let bytes = b.to_bytes();
        let back = CheckpointBlob::from_bytes(&bytes).unwrap();
        assert_eq!(back.version, CKPT_VERSION);
        assert_eq!(back.fingerprint, b.fingerprint);
        assert_eq!(back.section(*b"PERF").unwrap(), &[1, 2, 3, 4, 5]);
        assert_eq!(back.section(*b"CURS").unwrap(), &[] as &[u8]);
        assert_eq!(back.section(*b"REFS").unwrap().len(), 1000);
        assert!(back.section(*b"NOPE").is_none());
        assert!(back.require_section(*b"NOPE").is_err());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample_blob().to_bytes();
        // Flipping any byte anywhere must fail validation: header flips hit
        // magic/header-CRC, payload flips hit a section CRC, length-field
        // flips hit framing checks.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                CheckpointBlob::from_bytes(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_at_any_point_is_detected() {
        let bytes = sample_blob().to_bytes();
        for n in 0..bytes.len() {
            assert!(
                CheckpointBlob::from_bytes(&bytes[..n]).is_err(),
                "truncation to {n} bytes went undetected"
            );
        }
    }

    #[test]
    fn version_mismatch_is_its_own_error() {
        let mut b = sample_blob();
        b.version = CKPT_VERSION + 1;
        let err = CheckpointBlob::from_bytes(&b.to_bytes()).unwrap_err();
        assert_eq!(
            err,
            FevesError::CheckpointVersion {
                found: CKPT_VERSION + 1,
                expected: CKPT_VERSION
            }
        );
    }
}
