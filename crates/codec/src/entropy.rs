//! Entropy coding: Exp-Golomb bit codes and CAVLC-style run/level coding of
//! quantized coefficients, producing the output bitstream of the encoder.
//!
//! The paper's framework treats entropy coding as outside the measured
//! inter-loop (it is pipelined on the CPU after TQ), but a real encoder
//! needs a bitstream: this module provides a compact, self-consistent one —
//! zigzag-scanned (run, level) pairs with Exp-Golomb codes — together with a
//! decoder used by the round-trip tests to prove the stream is lossless
//! w.r.t. the quantized data.

use crate::mc::{MbMode, ModeField};
use crate::recon::{CoeffField, MbCoeffs};
use crate::sme::SmeBlockMv;
use crate::types::{PartitionMode, QpelMv, ALL_PARTITION_MODES};

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

    /// Append one bit.
    pub fn put_bit(&mut self, b: bool) {
        self.put_bits(b as u32, 1);
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
    let scanned: Vec<i16> = ZIGZAG_4X4.iter().map(|&i| levels[i]).collect();
    let total = scanned.iter().filter(|&&v| v != 0).count() as u32;
    w.ue(total);
    let mut run = 0u32;
    for &v in &scanned {
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
    let mut scanned = [0i16; 16];
    let mut pos = 0usize;
    for _ in 0..total {
        let run = r.ue()? as usize;
        let level = r.se()?;
        pos += run;
        if pos >= 16 {
            return Err(DecodeError("run past block end".into()));
        }
        scanned[pos] = level as i16;
        pos += 1;
    }
    let mut out = [0i16; 16];
    for (s, &z) in ZIGZAG_4X4.iter().enumerate() {
        out[z] = scanned[s];
    }
    Ok(out)
}

/// Median motion-vector predictor over the 4×4 grid (H.264 §8.4.1.3
/// style): each partition's MV is predicted from the component-wise median
/// of its left (A), above (B) and above-right (C) neighbours' MVs, with
/// standard availability fallbacks. Both encoder and decoder advance an
/// identical [`MvPredictor`], so only the (usually tiny) differences are
/// Exp-Golomb coded.
pub struct MvPredictor {
    grid: Vec<Option<QpelMv>>,
    cols4: usize,
    rows4: usize,
}

impl MvPredictor {
    /// Fresh predictor for an `mb_cols × mb_rows` frame.
    pub fn new(mb_cols: usize, mb_rows: usize) -> Self {
        let cols4 = mb_cols * 4;
        let rows4 = mb_rows * 4;
        MvPredictor {
            grid: vec![None; cols4 * rows4],
            cols4,
            rows4,
        }
    }

    fn at(&self, x4: isize, y4: isize) -> Option<QpelMv> {
        if x4 < 0 || y4 < 0 || x4 >= self.cols4 as isize || y4 >= self.rows4 as isize {
            return None;
        }
        self.grid[y4 as usize * self.cols4 + x4 as usize]
    }

    /// Predict the MV of a block whose top-left 4×4 cell is `(x4, y4)` and
    /// which spans `w4` cells horizontally.
    pub fn predict(&self, x4: usize, y4: usize, w4: usize) -> QpelMv {
        let a = self.at(x4 as isize - 1, y4 as isize);
        let b = self.at(x4 as isize, y4 as isize - 1);
        let c = self
            .at(x4 as isize + w4 as isize, y4 as isize - 1)
            .or_else(|| self.at(x4 as isize - 1, y4 as isize - 1));
        match (a, b, c) {
            // Only the left neighbour exists (first row): use it directly.
            (Some(a), None, None) => a,
            (None, None, None) => QpelMv::ZERO,
            _ => {
                let a = a.unwrap_or(QpelMv::ZERO);
                let b = b.unwrap_or(QpelMv::ZERO);
                let c = c.unwrap_or(QpelMv::ZERO);
                QpelMv::new(median3(a.x, b.x, c.x), median3(a.y, b.y, c.y))
            }
        }
    }

    /// Record a coded block's MV over its `w4 × h4` cell footprint.
    pub fn record(&mut self, x4: usize, y4: usize, w4: usize, h4: usize, mv: QpelMv) {
        for dy in 0..h4 {
            for dx in 0..w4 {
                let idx = (y4 + dy) * self.cols4 + (x4 + dx);
                self.grid[idx] = Some(mv);
            }
        }
    }
}

fn median3(a: i16, b: i16, c: i16) -> i16 {
    a.max(b.min(c)).min(b.max(c))
}

fn mode_from_index(idx: usize) -> Result<PartitionMode, DecodeError> {
    ALL_PARTITION_MODES
        .get(idx)
        .copied()
        .ok_or_else(|| DecodeError(format!("bad mode index {idx}")))
}

/// Encode one inter macroblock: mode, per-partition (rf, mvd), coded mask
/// and coefficient blocks. Motion vectors are differentially coded against
/// the previous partition of the same MB (first partition against zero).
pub fn encode_mb(w: &mut BitWriter, mode: &MbMode, coeffs: &MbCoeffs) {
    w.ue(mode.mode.index() as u32);
    let mut pred = QpelMv::ZERO;
    for i in 0..mode.mode.count() {
        let blk = &mode.mvs[i];
        w.ue(blk.rf as u32);
        w.se((blk.mv.x - pred.x) as i32);
        w.se((blk.mv.y - pred.y) as i32);
        pred = blk.mv;
    }
    w.put_bits(coeffs.coded_mask as u32, 16);
    for b in 0..16 {
        if coeffs.coded_mask & (1 << b) != 0 {
            encode_block(w, &coeffs.blocks[b]);
        }
    }
}

/// Decode one macroblock written by [`encode_mb`].
pub fn decode_mb(r: &mut BitReader<'_>) -> Result<(MbMode, MbCoeffs), DecodeError> {
    let mode = mode_from_index(r.ue()? as usize)?;
    let mut mvs = [SmeBlockMv::default(); 16];
    let mut pred = QpelMv::ZERO;
    for mv_slot in mvs.iter_mut().take(mode.count()) {
        let rf = r.ue()? as u8;
        let dx = r.se()? as i16;
        let dy = r.se()? as i16;
        let mv = QpelMv::new(pred.x + dx, pred.y + dy);
        *mv_slot = SmeBlockMv { rf, mv, cost: 0 };
        pred = mv;
    }
    let coded_mask = r.bits(16)? as u16;
    let mut coeffs = MbCoeffs {
        blocks: [[0i16; 16]; 16],
        coded_mask,
    };
    for b in 0..16 {
        if coded_mask & (1 << b) != 0 {
            coeffs.blocks[b] = decode_block(r)?;
        }
    }
    Ok((MbMode { mode, mvs, cost: 0 }, coeffs))
}

/// Encode one inter macroblock with median MV prediction (see
/// [`MvPredictor`]); `(mbx, mby)` locate the MB for the prediction grid.
pub fn encode_mb_pred(
    w: &mut BitWriter,
    mode: &MbMode,
    coeffs: &MbCoeffs,
    mbx: usize,
    mby: usize,
    pred: &mut MvPredictor,
) {
    w.ue(mode.mode.index() as u32);
    let (pw, ph) = mode.mode.dims();
    let (w4, h4) = (pw / 4, ph / 4);
    for i in 0..mode.mode.count() {
        let blk = &mode.mvs[i];
        let (ox, oy) = mode.mode.offset(i);
        let (x4, y4) = (mbx * 4 + ox / 4, mby * 4 + oy / 4);
        let p = pred.predict(x4, y4, w4);
        w.ue(blk.rf as u32);
        w.se((blk.mv.x - p.x) as i32);
        w.se((blk.mv.y - p.y) as i32);
        pred.record(x4, y4, w4, h4, blk.mv);
    }
    w.put_bits(coeffs.coded_mask as u32, 16);
    for b in 0..16 {
        if coeffs.coded_mask & (1 << b) != 0 {
            encode_block(w, &coeffs.blocks[b]);
        }
    }
}

/// Decode one macroblock written by [`encode_mb_pred`].
pub fn decode_mb_pred(
    r: &mut BitReader<'_>,
    mbx: usize,
    mby: usize,
    pred: &mut MvPredictor,
) -> Result<(MbMode, MbCoeffs), DecodeError> {
    let mode = mode_from_index(r.ue()? as usize)?;
    let (pw, ph) = mode.dims();
    let (w4, h4) = (pw / 4, ph / 4);
    let mut mvs = [SmeBlockMv::default(); 16];
    for (i, mv_slot) in mvs.iter_mut().enumerate().take(mode.count()) {
        let (ox, oy) = mode.offset(i);
        let (x4, y4) = (mbx * 4 + ox / 4, mby * 4 + oy / 4);
        let p = pred.predict(x4, y4, w4);
        let rf = r.ue()? as u8;
        let dx = r.se()? as i16;
        let dy = r.se()? as i16;
        let mv = QpelMv::new(p.x + dx, p.y + dy);
        *mv_slot = SmeBlockMv { rf, mv, cost: 0 };
        pred.record(x4, y4, w4, h4, mv);
    }
    let coded_mask = r.bits(16)? as u16;
    let mut coeffs = MbCoeffs {
        blocks: [[0i16; 16]; 16],
        coded_mask,
    };
    for b in 0..16 {
        if coded_mask & (1 << b) != 0 {
            coeffs.blocks[b] = decode_block(r)?;
        }
    }
    Ok((MbMode { mode, mvs, cost: 0 }, coeffs))
}

/// Encode one macroblock's chroma coefficients (mask + coded blocks).
pub fn encode_mb_chroma(w: &mut BitWriter, c: &crate::chroma::MbChromaCoeffs) {
    w.put_bits(c.coded_mask as u32, 8);
    for (i, blk) in c.cb.iter().enumerate() {
        if c.coded_mask & (1 << i) != 0 {
            encode_block(w, blk);
        }
    }
    for (i, blk) in c.cr.iter().enumerate() {
        if c.coded_mask & (1 << (i + 4)) != 0 {
            encode_block(w, blk);
        }
    }
}

/// Decode chroma coefficients written by [`encode_mb_chroma`].
pub fn decode_mb_chroma(
    r: &mut BitReader<'_>,
) -> Result<crate::chroma::MbChromaCoeffs, DecodeError> {
    let coded_mask = r.bits(8)? as u8;
    let mut c = crate::chroma::MbChromaCoeffs {
        coded_mask,
        ..Default::default()
    };
    for i in 0..4 {
        if coded_mask & (1 << i) != 0 {
            c.cb[i] = decode_block(r)?;
        }
    }
    for i in 0..4 {
        if coded_mask & (1 << (i + 4)) != 0 {
            c.cr[i] = decode_block(r)?;
        }
    }
    Ok(c)
}

/// Encode a whole YUV inter frame: the luma syntax of [`encode_frame`]
/// followed, per macroblock, by its chroma coefficients.
pub fn encode_frame_yuv(
    modes: &ModeField,
    coeffs: &CoeffField,
    chroma: &crate::chroma::ChromaField,
    qp: u8,
) -> (Vec<u8>, u64) {
    let mut w = BitWriter::new();
    w.ue(modes.mb_cols() as u32);
    w.ue(modes.mb_rows() as u32);
    w.ue(qp as u32);
    let mut pred = MvPredictor::new(modes.mb_cols(), modes.mb_rows());
    for mby in 0..modes.mb_rows() {
        for mbx in 0..modes.mb_cols() {
            encode_mb_pred(
                &mut w,
                modes.mb(mbx, mby),
                coeffs.mb(mbx, mby),
                mbx,
                mby,
                &mut pred,
            );
            encode_mb_chroma(&mut w, chroma.mb(mbx, mby));
        }
    }
    let bits = w.bit_len();
    (w.finish(), bits)
}

/// Decode a frame written by [`encode_frame_yuv`].
#[allow(clippy::type_complexity)]
pub fn decode_frame_yuv(
    data: &[u8],
) -> Result<(ModeField, CoeffField, crate::chroma::ChromaField, u8), DecodeError> {
    let mut r = BitReader::new(data);
    let mb_cols = r.ue()? as usize;
    let mb_rows = r.ue()? as usize;
    if mb_cols == 0 || mb_rows == 0 || mb_cols > 1024 || mb_rows > 1024 {
        return Err(DecodeError(format!("bad dimensions {mb_cols}x{mb_rows}")));
    }
    let qp = r.ue()? as u8;
    let mut modes = ModeField::new(mb_cols, mb_rows);
    let mut coeffs = CoeffField::new(mb_cols, mb_rows);
    let mut chroma = crate::chroma::ChromaField::new(mb_cols, mb_rows);
    let mut pred = MvPredictor::new(mb_cols, mb_rows);
    for mby in 0..mb_rows {
        for mbx in 0..mb_cols {
            let (m, c) = decode_mb_pred(&mut r, mbx, mby, &mut pred)?;
            *modes.mb_mut(mbx, mby) = m;
            *coeffs.mb_mut(mbx, mby) = c;
            *chroma.mb_mut(mbx, mby) = decode_mb_chroma(&mut r)?;
        }
    }
    Ok((modes, coeffs, chroma, qp))
}

/// Encode a whole inter frame (dimension header + raster MBs); returns the
/// bitstream and its exact bit length.
pub fn encode_frame(modes: &ModeField, coeffs: &CoeffField, qp: u8) -> (Vec<u8>, u64) {
    let mut w = BitWriter::new();
    w.ue(modes.mb_cols() as u32);
    w.ue(modes.mb_rows() as u32);
    w.ue(qp as u32);
    let mut pred = MvPredictor::new(modes.mb_cols(), modes.mb_rows());
    for mby in 0..modes.mb_rows() {
        for mbx in 0..modes.mb_cols() {
            encode_mb_pred(
                &mut w,
                modes.mb(mbx, mby),
                coeffs.mb(mbx, mby),
                mbx,
                mby,
                &mut pred,
            );
        }
    }
    let bits = w.bit_len();
    (w.finish(), bits)
}

/// Decode a frame written by [`encode_frame`].
pub fn decode_frame(data: &[u8]) -> Result<(ModeField, CoeffField, u8), DecodeError> {
    let mut r = BitReader::new(data);
    let mb_cols = r.ue()? as usize;
    let mb_rows = r.ue()? as usize;
    if mb_cols == 0 || mb_rows == 0 || mb_cols > 1024 || mb_rows > 1024 {
        return Err(DecodeError(format!("bad dimensions {mb_cols}x{mb_rows}")));
    }
    let qp = r.ue()? as u8;
    let mut modes = ModeField::new(mb_cols, mb_rows);
    let mut coeffs = CoeffField::new(mb_cols, mb_rows);
    let mut pred = MvPredictor::new(mb_cols, mb_rows);
    for mby in 0..mb_rows {
        for mbx in 0..mb_cols {
            let (m, c) = decode_mb_pred(&mut r, mbx, mby, &mut pred)?;
            *modes.mb_mut(mbx, mby) = m;
            *coeffs.mb_mut(mbx, mby) = c;
        }
    }
    Ok((modes, coeffs, qp))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let (bytes, bits) = encode_frame(&modes, &coeffs, 28);
        assert!(bits > 0 && bits <= bytes.len() as u64 * 8);
        let (dm, dc, qp) = decode_frame(&bytes).unwrap();
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
    fn truncated_stream_is_error_not_panic() {
        let mut modes = ModeField::new(2, 2);
        let coeffs = CoeffField::new(2, 2);
        for mby in 0..2 {
            for mbx in 0..2 {
                modes.mb_mut(mbx, mby).mvs = [SmeBlockMv::default(); 16];
            }
        }
        let (bytes, _) = encode_frame(&modes, &coeffs, 30);
        for cut in [1usize, 2, bytes.len() / 2] {
            let res = decode_frame(&bytes[..cut.min(bytes.len() - 1)]);
            // Either a clean error or (for generous cuts) success — never a
            // panic. Most cuts must error.
            let _ = res;
        }
        assert!(decode_frame(&bytes[..1]).is_err());
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

    #[test]
    fn median_predictor_fallback_rules() {
        let mut p = MvPredictor::new(2, 2);
        // Nothing coded yet: zero.
        assert_eq!(p.predict(0, 0, 4), QpelMv::ZERO);
        // Only a left neighbour: use it directly.
        p.record(0, 0, 4, 4, QpelMv::new(12, -4));
        assert_eq!(p.predict(4, 0, 4), QpelMv::new(12, -4));
        // With above + above-right, the median rule kicks in.
        let mut p = MvPredictor::new(3, 2);
        p.record(0, 0, 4, 4, QpelMv::new(0, 0)); // above-left
        p.record(4, 0, 4, 4, QpelMv::new(8, 8)); // above
        p.record(8, 0, 4, 4, QpelMv::new(16, 0)); // above-right
        p.record(0, 4, 4, 4, QpelMv::new(4, 4)); // left
                                                 // A=(4,4) B=(8,8) C=(16,0) → median = (8, 4).
        assert_eq!(p.predict(4, 4, 4), QpelMv::new(8, 4));
    }

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
        let (bytes, _) = encode_frame(&modes, &coeffs, 28);
        let (dm, _, qp) = decode_frame(&bytes).unwrap();
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
        let (_, uniform_bits) = encode_frame(&uniform, &c1, 28);
        let (_, random_bits) = encode_frame(&random, &c2, 28);
        assert!(
            (uniform_bits as f64) < 0.5 * random_bits as f64,
            "uniform {uniform_bits} vs random {random_bits}"
        );
    }
}
