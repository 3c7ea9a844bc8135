//! Entropy coding: Exp-Golomb bit codes and CAVLC-style run/level coding of
//! quantized coefficients, producing the output bitstream of the encoder.
//!
//! The paper's framework treats entropy coding as outside the measured
//! inter-loop (it is pipelined on the CPU after TQ), but a real encoder
//! needs a bitstream: this module provides a compact, self-consistent one —
//! zigzag-scanned (run, level) pairs with Exp-Golomb codes — together with a
//! decoder used by the round-trip tests to prove the stream is lossless
//! w.r.t. the quantized data.
//!
//! The order of a frame's symbols is not decided here: `crate::syntax`
//! walks the frame, and this module is the symbol coder it walks with.

use crate::chroma::{ChromaField, MbChromaCoeffs};
use crate::mc::ModeField;
use crate::recon::{CoeffField, MbCoeffs};
use crate::syntax::{self, read_frame, write_frame, FrameHeader, SymbolReader, SymbolWriter};

/// Zigzag scan order of a 4×4 block (H.264 Table 8-13, frame scan).
pub const ZIGZAG_4X4: [usize; 16] = [0, 1, 4, 8, 5, 2, 3, 6, 9, 12, 13, 10, 7, 11, 14, 15];

/// MSB-first bit writer.
pub struct BitWriter {
    buf: Vec<u8>,
    cur: u64,
    nbits: u32,
}

impl Default for BitWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl BitWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        BitWriter {
            buf: Vec::new(),
            cur: 0,
            nbits: 0,
        }
    }

    /// Append the `n` low bits of `v`, MSB first (`n <= 32`).
    pub fn put_bits(&mut self, v: u32, n: u32) {
        debug_assert!(n <= 32);
        debug_assert!(n == 32 || v < (1u32 << n));
        self.cur = (self.cur << n) | v as u64;
        self.nbits += n;
        while self.nbits >= 8 {
            self.nbits -= 8;
            self.buf.push(((self.cur >> self.nbits) & 0xFF) as u8);
        }
    }

    /// Unsigned Exp-Golomb.
    pub fn ue(&mut self, v: u32) {
        let code = v as u64 + 1;
        let len = 64 - code.leading_zeros(); // bits in code
        self.put_bits(0, len - 1);
        // Write `code` in `len` bits (may exceed 32 for huge v; split).
        if len > 32 {
            self.put_bits((code >> 32) as u32, len - 32);
            self.put_bits((code & 0xFFFF_FFFF) as u32, 32);
        } else {
            self.put_bits(code as u32, len);
        }
    }

    /// Signed Exp-Golomb (`0, 1, -1, 2, -2, …`).
    pub fn se(&mut self, v: i32) {
        let mapped = if v > 0 {
            (v as u32) * 2 - 1
        } else {
            (-(v as i64) as u32) * 2
        };
        self.ue(mapped);
    }

    /// Total bits written so far (incl. pending).
    pub fn bit_len(&self) -> u64 {
        self.buf.len() as u64 * 8 + self.nbits as u64
    }

    /// Byte-align with zero bits and return the stream.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            let pad = 8 - self.nbits;
            self.put_bits(0, pad);
        }
        self.buf
    }
}

/// MSB-first bit reader over a byte slice.
pub struct BitReader<'a> {
    data: &'a [u8],
    byte_pos: usize,
    bit_pos: u32,
}

/// Error type for bitstream decoding.
#[derive(Debug, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

impl<'a> BitReader<'a> {
    /// Wrap a byte slice.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            byte_pos: 0,
            bit_pos: 0,
        }
    }

    /// Read one bit.
    pub fn bit(&mut self) -> Result<bool, DecodeError> {
        if self.byte_pos >= self.data.len() {
            return Err(DecodeError("past end of stream".into()));
        }
        let b = (self.data[self.byte_pos] >> (7 - self.bit_pos)) & 1;
        self.bit_pos += 1;
        if self.bit_pos == 8 {
            self.bit_pos = 0;
            self.byte_pos += 1;
        }
        Ok(b != 0)
    }

    /// Read `n` bits MSB-first (`n <= 32`).
    pub fn bits(&mut self, n: u32) -> Result<u32, DecodeError> {
        let mut v = 0u32;
        for _ in 0..n {
            v = (v << 1) | self.bit()? as u32;
        }
        Ok(v)
    }

    /// Unsigned Exp-Golomb.
    pub fn ue(&mut self) -> Result<u32, DecodeError> {
        let mut zeros = 0u32;
        while !self.bit()? {
            zeros += 1;
            if zeros > 32 {
                return Err(DecodeError("ue prefix too long".into()));
            }
        }
        let tail = self.bits(zeros)?;
        Ok(((1u64 << zeros) - 1 + tail as u64) as u32)
    }

    /// Signed Exp-Golomb.
    pub fn se(&mut self) -> Result<i32, DecodeError> {
        let m = self.ue()? as i64;
        Ok(if m % 2 == 1 { (m + 1) / 2 } else { -(m / 2) } as i32)
    }
}

/// Encode one 4×4 block of quantized levels as zigzag (run, level) pairs.
pub fn encode_block(w: &mut BitWriter, levels: &[i16; 16]) {
    let total = levels.iter().filter(|&&v| v != 0).count() as u32;
    w.ue(total);
    let mut run = 0u32;
    for v in ZIGZAG_4X4.map(|i| levels[i]) {
        if v == 0 {
            run += 1;
        } else {
            w.ue(run);
            w.se(v as i32);
            run = 0;
        }
    }
}

/// Decode one 4×4 block written by [`encode_block`].
pub fn decode_block(r: &mut BitReader<'_>) -> Result<[i16; 16], DecodeError> {
    let total = r.ue()?;
    if total > 16 {
        return Err(DecodeError(format!("block claims {total} coefficients")));
    }
    let mut out = [0i16; 16];
    let mut pos = 0usize;
    for _ in 0..total {
        let run = r.ue()? as usize;
        let level = r.se()?;
        pos = pos.saturating_add(run);
        if pos >= 16 {
            return Err(DecodeError("run past block end".into()));
        }
        out[ZIGZAG_4X4[pos]] = syntax::level(level.into())?;
        pos += 1;
    }
    Ok(out)
}

/// The Exp-Golomb binarisation of the frame syntax: `ue` header fields, mode
/// index and reference index, `se` vector differences, and per macroblock a
/// plain coded-block mask (16 bits luma, 8 bits chroma) followed by the
/// [`encode_block`] of each coded block.
impl SymbolWriter for BitWriter {
    fn header(&mut self, h: &FrameHeader) {
        self.ue(h.mb_cols);
        self.ue(h.mb_rows);
        self.ue(h.qp);
    }

    fn mode(&mut self, index: u32) {
        self.ue(index);
    }

    fn motion(&mut self, rf: u8, dx: i32, dy: i32) {
        self.ue(rf as u32);
        self.se(dx);
        self.se(dy);
    }

    fn luma(&mut self, c: &MbCoeffs) {
        self.put_bits(c.coded_mask as u32, 16);
        for (b, blk) in c.blocks.iter().enumerate() {
            if c.coded_mask & (1 << b) != 0 {
                encode_block(self, blk);
            }
        }
    }

    fn chroma(&mut self, c: &MbChromaCoeffs) {
        self.put_bits(c.coded_mask as u32, 8);
        for (b, blk) in c.cb.iter().chain(&c.cr).enumerate() {
            if c.coded_mask & (1 << b) != 0 {
                encode_block(self, blk);
            }
        }
    }

    fn finish(self) -> (Vec<u8>, u64) {
        let bits = self.bit_len();
        (BitWriter::finish(self), bits)
    }
}

/// Reads what the [`SymbolWriter`] of [`BitWriter`] wrote.
impl SymbolReader for BitReader<'_> {
    fn header(&mut self) -> Result<FrameHeader, DecodeError> {
        Ok(FrameHeader {
            mb_cols: self.ue()?,
            mb_rows: self.ue()?,
            qp: self.ue()?,
        })
    }

    fn mode(&mut self) -> Result<u32, DecodeError> {
        self.ue()
    }

    fn motion(&mut self) -> Result<(u32, i32, i32), DecodeError> {
        Ok((self.ue()?, self.se()?, self.se()?))
    }

    fn luma(&mut self) -> Result<MbCoeffs, DecodeError> {
        let mut c = MbCoeffs {
            coded_mask: self.bits(16)? as u16,
            ..Default::default()
        };
        for (b, blk) in c.blocks.iter_mut().enumerate() {
            if c.coded_mask & (1 << b) != 0 {
                *blk = decode_block(self)?;
            }
        }
        Ok(c)
    }

    fn chroma(&mut self) -> Result<MbChromaCoeffs, DecodeError> {
        let mut c = MbChromaCoeffs {
            coded_mask: self.bits(8)? as u8,
            ..Default::default()
        };
        for (b, blk) in c.cb.iter_mut().chain(&mut c.cr).enumerate() {
            if c.coded_mask & (1 << b) != 0 {
                *blk = decode_block(self)?;
            }
        }
        Ok(c)
    }
}

/// Encode a whole YUV inter frame (dimension header + raster MBs, each
/// with its luma then its chroma coefficients); returns the bitstream and
/// its exact bit length.
pub fn encode_frame_yuv(
    modes: &ModeField,
    coeffs: &CoeffField,
    chroma: &ChromaField,
    qp: u8,
) -> (Vec<u8>, u64) {
    write_frame(BitWriter::new(), modes, coeffs, chroma, qp)
}

/// Decode a frame written by [`encode_frame_yuv`].
pub fn decode_frame_yuv(
    data: &[u8],
) -> Result<(ModeField, CoeffField, ChromaField, u8), DecodeError> {
    read_frame(BitReader::new(data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc::MbMode;
    use crate::sme::SmeBlockMv;
    use crate::types::{QpelMv, ALL_PARTITION_MODES};

    #[test]
    fn ue_se_roundtrip() {
        let mut w = BitWriter::new();
        let values = [0u32, 1, 2, 3, 7, 8, 255, 256, 65535, 1_000_000];
        for &v in &values {
            w.ue(v);
        }
        let signed = [0i32, 1, -1, 2, -2, 17, -300, 40_000, -40_000];
        for &v in &signed {
            w.se(v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.ue().unwrap(), v);
        }
        for &v in &signed {
            assert_eq!(r.se().unwrap(), v);
        }
    }

    #[test]
    fn ue_known_codewords() {
        // ue(0) = "1", ue(1) = "010", ue(2) = "011".
        let mut w = BitWriter::new();
        w.ue(0);
        w.ue(1);
        w.ue(2);
        // 1 010 011 + one pad bit = 1010_0110.
        assert_eq!(w.bit_len(), 7);
        let b = w.finish();
        assert_eq!(&b[..], &[0b1010_0110]);
    }

    #[test]
    fn block_roundtrip_sparse_and_dense() {
        let sparse: [i16; 16] = {
            let mut b = [0i16; 16];
            b[0] = 12;
            b[5] = -3;
            b[15] = 1;
            b
        };
        let dense: [i16; 16] = core::array::from_fn(|i| (i as i16 % 5) - 2);
        for blk in [sparse, dense, [0i16; 16]] {
            let mut w = BitWriter::new();
            encode_block(&mut w, &blk);
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            assert_eq!(decode_block(&mut r).unwrap(), blk);
        }
    }

    #[test]
    fn zigzag_is_a_permutation() {
        let mut seen = [false; 16];
        for &z in &ZIGZAG_4X4 {
            assert!(!seen[z]);
            seen[z] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn frame_roundtrip() {
        let (mb_cols, mb_rows) = (3, 2);
        let mut modes = ModeField::new(mb_cols, mb_rows);
        let mut coeffs = CoeffField::new(mb_cols, mb_rows);
        for mby in 0..mb_rows {
            for mbx in 0..mb_cols {
                let mode = ALL_PARTITION_MODES[(mbx + mby) % 7];
                let mut mvs = [SmeBlockMv::default(); 16];
                for (i, mv) in mvs.iter_mut().enumerate().take(mode.count()) {
                    *mv = SmeBlockMv {
                        rf: ((mbx + i) % 3) as u8,
                        mv: QpelMv::new((mbx as i16) * 5 - 7, (mby as i16) * 3 - 2 + i as i16),
                        cost: 0,
                    };
                }
                *modes.mb_mut(mbx, mby) = MbMode { mode, mvs, cost: 0 };
                let mb = coeffs.mb_mut(mbx, mby);
                if (mbx + mby) % 2 == 0 {
                    mb.blocks[3][0] = 9;
                    mb.blocks[3][7] = -2;
                    mb.coded_mask = 1 << 3;
                }
            }
        }
        let chroma = ChromaField::new(mb_cols, mb_rows);
        let (bytes, bits) = encode_frame_yuv(&modes, &coeffs, &chroma, 28);
        assert!(bits > 0 && bits <= bytes.len() as u64 * 8);
        let (dm, dc, _, qp) = decode_frame_yuv(&bytes).unwrap();
        assert_eq!(qp, 28);
        for mby in 0..mb_rows {
            for mbx in 0..mb_cols {
                let a = modes.mb(mbx, mby);
                let b = dm.mb(mbx, mby);
                assert_eq!(a.mode, b.mode);
                for i in 0..a.mode.count() {
                    assert_eq!(a.mvs[i].rf, b.mvs[i].rf);
                    assert_eq!(a.mvs[i].mv, b.mvs[i].mv);
                }
                assert_eq!(coeffs.mb(mbx, mby), dc.mb(mbx, mby));
            }
        }
    }

    #[test]
    fn bit_len_counts_exactly() {
        let mut w = BitWriter::new();
        w.put_bits(0b101, 3);
        assert_eq!(w.bit_len(), 3);
        w.put_bits(0xFF, 8);
        assert_eq!(w.bit_len(), 11);
        let b = w.finish();
        assert_eq!(b.len(), 2);
    }
}

#[cfg(test)]
mod mvpred_tests {
    use super::*;
    use crate::sme::SmeBlockMv;
    use crate::types::QpelMv;

    fn field_with_mv(
        mb_cols: usize,
        mb_rows: usize,
        f: impl Fn(usize, usize) -> QpelMv,
    ) -> (ModeField, CoeffField) {
        let mut modes = ModeField::new(mb_cols, mb_rows);
        let coeffs = CoeffField::new(mb_cols, mb_rows);
        for mby in 0..mb_rows {
            for mbx in 0..mb_cols {
                modes.mb_mut(mbx, mby).mvs = [SmeBlockMv {
                    rf: 0,
                    mv: f(mbx, mby),
                    cost: 0,
                }; 16];
                modes.mb_mut(mbx, mby).cost = 0;
            }
        }
        (modes, coeffs)
    }

    #[test]
    fn predictive_frame_roundtrips() {
        let (modes, coeffs) = field_with_mv(4, 3, |x, y| {
            QpelMv::new((x as i16) * 5 - 7, (y as i16) * 3 - 2)
        });
        let (bytes, _) = encode_frame_yuv(&modes, &coeffs, &ChromaField::new(4, 3), 28);
        let (dm, _, _, qp) = decode_frame_yuv(&bytes).unwrap();
        assert_eq!(qp, 28);
        for mby in 0..3 {
            for mbx in 0..4 {
                assert_eq!(
                    dm.mb(mbx, mby).mvs[0].mv,
                    modes.mb(mbx, mby).mvs[0].mv,
                    "mb {mbx},{mby}"
                );
            }
        }
    }

    #[test]
    fn coherent_motion_codes_small() {
        // A uniform motion field must cost far fewer MV bits than an
        // incoherent one — the point of median prediction.
        let (uniform, c1) = field_with_mv(8, 6, |_, _| QpelMv::new(40, -24));
        let (random, c2) = field_with_mv(8, 6, |x, y| {
            QpelMv::new(
                (((x * 37 + y * 91) % 100) as i16) - 50,
                (((x * 53 + y * 17) % 100) as i16) - 50,
            )
        });
        // The luma bits: an uncoded macroblock's chroma is its 8-bit mask.
        let chroma = ChromaField::new(8, 6);
        let bits = |m, c| encode_frame_yuv(m, c, &chroma, 28).1 - 8 * 8 * 6;
        let uniform_bits = bits(&uniform, &c1);
        let random_bits = bits(&random, &c2);
        assert!(
            (uniform_bits as f64) < 0.5 * random_bits as f64,
            "uniform {uniform_bits} vs random {random_bits}"
        );
    }
}
