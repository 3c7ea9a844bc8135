//! The inter-frame **syntax**, written once per direction.
//!
//! [`write_frame`] and [`read_frame`] are the only code that knows the order
//! of a coded frame — header, macroblocks in raster order, per macroblock
//! the partition mode, one `(rf, mvd)` per partition in partition order with
//! the vector coded against its median prediction, the luma coefficients,
//! then the chroma coefficients — and the only code that
//! advances an [`MvPredictor`]. MV prediction is normative: a writer and a
//! reader that drift apart corrupt every vector after the first difference,
//! silently, so neither walk exists a second time.
//!
//! An entropy backend is a pair of symbol coders, [`SymbolWriter`] and
//! [`SymbolReader`], that binarise one symbol class at a time
//! ([`crate::entropy`]: Exp-Golomb codes, [`crate::cabac`]: adaptive
//! arithmetic coding). The walks are generic over them — static dispatch,
//! no allocation per symbol or block.
//!
//! [`read_frame`] is also where a stream's range checks live: whatever it
//! returns has dimensions within bounds, `qp ≤ 51`, every `rf` below
//! the codec's reference bound and every vector inside `i16`.
//! What only the reference store can decide (geometry, `rf` against the
//! references actually held) is checked by [`crate::decoder`].

use crate::chroma::{ChromaField, MbChromaCoeffs};
use crate::entropy::DecodeError;
use crate::mc::{MbMode, ModeField};
use crate::recon::{CoeffField, MbCoeffs};
use crate::sme::SmeBlockMv;
use crate::types::{PartitionMode, QpelMv, ALL_PARTITION_MODES, MAX_QP, MAX_REFS};

/// Largest frame side, in macroblocks, a stream may declare (16 384 pixels):
/// the reader allocates its fields from the header before reading further.
const MAX_MB_SIDE: u32 = 1024;

/// The frame header as a backend carries it, before any range check.
pub(crate) struct FrameHeader {
    pub mb_cols: u32,
    pub mb_rows: u32,
    pub qp: u32,
}

/// Binarises the symbols of a frame, in the order [`write_frame`] emits them.
pub(crate) trait SymbolWriter {
    fn header(&mut self, h: &FrameHeader);
    /// Index of the macroblock's partition mode in [`ALL_PARTITION_MODES`].
    fn mode(&mut self, index: u32);
    /// One partition's reference index and vector difference to its
    /// prediction, in quarter-pels.
    fn motion(&mut self, rf: u8, dx: i32, dy: i32);
    fn luma(&mut self, c: &MbCoeffs);
    fn chroma(&mut self, c: &MbChromaCoeffs);
    /// The byte stream and its exact bit count.
    fn finish(self) -> (Vec<u8>, u64);
}

/// Parses the symbols [`SymbolWriter`] wrote. Values come back as coded:
/// [`read_frame`] range-checks them.
pub(crate) trait SymbolReader {
    fn header(&mut self) -> Result<FrameHeader, DecodeError>;
    fn mode(&mut self) -> Result<u32, DecodeError>;
    fn motion(&mut self) -> Result<(u32, i32, i32), DecodeError>;
    fn luma(&mut self) -> Result<MbCoeffs, DecodeError>;
    fn chroma(&mut self) -> Result<MbChromaCoeffs, DecodeError>;
}

/// A decoded frame's syntax elements: modes and vectors, luma levels,
/// chroma levels and the QP.
pub(crate) type FrameSyntax = (ModeField, CoeffField, ChromaField, u8);

/// Write one inter frame.
pub(crate) fn write_frame<W: SymbolWriter>(
    mut w: W,
    modes: &ModeField,
    coeffs: &CoeffField,
    chroma: &ChromaField,
    qp: u8,
) -> (Vec<u8>, u64) {
    let (mb_cols, mb_rows) = (modes.mb_cols(), modes.mb_rows());
    w.header(&FrameHeader {
        mb_cols: mb_cols as u32,
        mb_rows: mb_rows as u32,
        qp: qp as u32,
    });
    let mut pred = MvPredictor::new(mb_cols, mb_rows);
    for mby in 0..mb_rows {
        for mbx in 0..mb_cols {
            let mb = modes.mb(mbx, mby);
            w.mode(mb.mode.index() as u32);
            for (i, blk) in mb.mvs.iter().enumerate().take(mb.mode.count()) {
                let cells = cells(mb.mode, i, mbx, mby);
                let p = pred.predict(cells);
                w.motion(
                    blk.rf,
                    i32::from(blk.mv.x) - i32::from(p.x),
                    i32::from(blk.mv.y) - i32::from(p.y),
                );
                pred.record(cells, blk.mv);
            }
            w.luma(coeffs.mb(mbx, mby));
            w.chroma(chroma.mb(mbx, mby));
        }
    }
    w.finish()
}

/// Read one frame written by [`write_frame`] through the matching backend.
pub(crate) fn read_frame<R: SymbolReader>(mut r: R) -> Result<FrameSyntax, DecodeError> {
    let h = r.header()?;
    let side = 1..=MAX_MB_SIDE;
    if !side.contains(&h.mb_cols) || !side.contains(&h.mb_rows) {
        let (c, r) = (h.mb_cols, h.mb_rows);
        return Err(DecodeError(format!("bad dimensions {c}x{r}")));
    }
    if h.qp > u32::from(MAX_QP) {
        return Err(DecodeError(format!("qp {} above {MAX_QP}", h.qp)));
    }
    let (mb_cols, mb_rows, qp) = (h.mb_cols as usize, h.mb_rows as usize, h.qp as u8);
    let mut modes = ModeField::new(mb_cols, mb_rows);
    let mut coeffs = CoeffField::new(mb_cols, mb_rows);
    let mut chroma = ChromaField::new(mb_cols, mb_rows);
    let mut pred = MvPredictor::new(mb_cols, mb_rows);
    for mby in 0..mb_rows {
        for mbx in 0..mb_cols {
            let index = r.mode()?;
            let mode = *ALL_PARTITION_MODES
                .get(index as usize)
                .ok_or_else(|| DecodeError(format!("bad mode index {index}")))?;
            let mut mvs = [SmeBlockMv::default(); 16];
            for (i, slot) in mvs.iter_mut().enumerate().take(mode.count()) {
                let cells = cells(mode, i, mbx, mby);
                let p = pred.predict(cells);
                let (rf, dx, dy) = r.motion()?;
                if rf as usize >= MAX_REFS {
                    return Err(DecodeError(format!(
                        "reference index {rf} above {MAX_REFS}"
                    )));
                }
                let mv = QpelMv::new(displace(p.x, dx)?, displace(p.y, dy)?);
                *slot = SmeBlockMv {
                    rf: rf as u8,
                    mv,
                    cost: 0,
                };
                pred.record(cells, mv);
            }
            *modes.mb_mut(mbx, mby) = MbMode { mode, mvs, cost: 0 };
            *coeffs.mb_mut(mbx, mby) = r.luma()?;
            *chroma.mb_mut(mbx, mby) = r.chroma()?;
        }
    }
    Ok((modes, coeffs, chroma, qp))
}

/// A decoded coefficient level, which the fields hold as `i16` (the one
/// range check both symbol readers put their levels through).
pub(crate) fn level(v: i64) -> Result<i16, DecodeError> {
    i16::try_from(v).map_err(|_| DecodeError(format!("level {v} leaves i16")))
}

/// A predicted vector component plus its coded difference.
fn displace(pred: i16, diff: i32) -> Result<i16, DecodeError> {
    i16::try_from(i64::from(pred) + i64::from(diff))
        .map_err(|_| DecodeError(format!("motion vector {pred}{diff:+} leaves i16")))
}

/// Which entropy backend a stream uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntropyBackend {
    /// Static Exp-Golomb / run-level (Baseline-profile class).
    ExpGolomb,
    /// Adaptive binary arithmetic coding (Main-profile class).
    Cabac,
}

impl EntropyBackend {
    /// Entropy-code one YUV inter frame with this backend; returns the
    /// stream and its exact bit count.
    pub fn encode_frame_yuv(
        self,
        modes: &ModeField,
        coeffs: &CoeffField,
        chroma: &ChromaField,
        qp: u8,
    ) -> (Vec<u8>, u64) {
        match self {
            EntropyBackend::ExpGolomb => {
                crate::entropy::encode_frame_yuv(modes, coeffs, chroma, qp)
            }
            EntropyBackend::Cabac => crate::cabac::encode_frame_cabac(modes, coeffs, chroma, qp),
        }
    }

    /// Read the syntax of a frame [`Self::encode_frame_yuv`] wrote.
    pub fn decode_frame_yuv(
        self,
        data: &[u8],
    ) -> Result<(ModeField, CoeffField, ChromaField, u8), DecodeError> {
        match self {
            EntropyBackend::ExpGolomb => crate::entropy::decode_frame_yuv(data),
            EntropyBackend::Cabac => crate::cabac::decode_frame_cabac(data),
        }
    }
}

/// A partition's footprint `(x4, y4, w4, h4)` on the frame's grid of 4×4 cells.
type Cells = (usize, usize, usize, usize);

/// The footprint of partition `i` of `mode` in macroblock `(mbx, mby)`.
fn cells(mode: PartitionMode, i: usize, mbx: usize, mby: usize) -> Cells {
    let (w, h) = mode.dims();
    let (ox, oy) = mode.offset(i);
    (mbx * 4 + ox / 4, mby * 4 + oy / 4, w / 4, h / 4)
}

/// Median motion-vector predictor over the 4×4 grid (H.264 §8.4.1.3
/// style): each partition's MV is predicted from the component-wise median
/// of its left (A), above (B) and above-right (C) neighbours' MVs, with
/// standard availability fallbacks. Writer and reader advance an identical
/// predictor, so only the (usually tiny) differences are coded.
struct MvPredictor {
    grid: Vec<Option<QpelMv>>,
    cols4: usize,
    rows4: usize,
}

impl MvPredictor {
    /// Fresh predictor for an `mb_cols × mb_rows` frame.
    fn new(mb_cols: usize, mb_rows: usize) -> Self {
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

    /// Predict the MV of the block covering `cells`.
    fn predict(&self, (x4, y4, w4, _): Cells) -> QpelMv {
        let (x4, y4) = (x4 as isize, y4 as isize);
        let a = self.at(x4 - 1, y4);
        let b = self.at(x4, y4 - 1);
        let c = self
            .at(x4 + w4 as isize, y4 - 1)
            .or_else(|| self.at(x4 - 1, y4 - 1));
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

    /// Record a coded block's MV over its footprint.
    fn record(&mut self, (x4, y4, w4, h4): Cells, mv: QpelMv) {
        for y in y4..y4 + h4 {
            let row = y * self.cols4 + x4;
            self.grid[row..row + w4].fill(Some(mv));
        }
    }
}

fn median3(a: i16, b: i16, c: i16) -> i16 {
    a.max(b.min(c)).min(b.max(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A whole macroblock's footprint at cell `(x4, y4)`.
    fn mb(x4: usize, y4: usize) -> Cells {
        (x4, y4, 4, 4)
    }

    #[test]
    fn median_predictor_fallback_rules() {
        let mut p = MvPredictor::new(2, 2);
        // Nothing coded yet: zero.
        assert_eq!(p.predict(mb(0, 0)), QpelMv::ZERO);
        // Only a left neighbour: use it directly.
        p.record(mb(0, 0), QpelMv::new(12, -4));
        assert_eq!(p.predict(mb(4, 0)), QpelMv::new(12, -4));
        // With above + above-right, the median rule kicks in.
        let mut p = MvPredictor::new(3, 2);
        p.record(mb(0, 0), QpelMv::new(0, 0)); // above-left
        p.record(mb(4, 0), QpelMv::new(8, 8)); // above
        p.record(mb(8, 0), QpelMv::new(16, 0)); // above-right
        p.record(mb(0, 4), QpelMv::new(4, 4)); // left
                                               // A=(4,4) B=(8,8) C=(16,0) → median = (8, 4).
        assert_eq!(p.predict(mb(4, 4)), QpelMv::new(8, 4));
    }
}
