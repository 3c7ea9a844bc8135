//! Frame-level TQ / TQ⁻¹ and reconstruction (R\* group).
//!
//! Applies the 4×4 transform + quantization of [`crate::quant`] to the
//! prediction residual macroblock by macroblock, then dequantizes, inverse
//! transforms and adds back the prediction to produce the reconstructed
//! reference frame the next inter-frame will search. Both directions run
//! the batch kernels [`kernels::tq_blocks`] and [`kernels::itq_blocks`];
//! [`code_region`] chains them after the residual for one region, the
//! coder chroma and intra share.
//! [`code_inter_row`], the encoder's R\* row pass, runs MC, TQ and TQ⁻¹ of
//! one MB row back to back through sixteen lines of its own thread; the
//! `*_rows` forms run the same row kernels over the rows of frame planes.

use crate::interp::SubpelFrame;
use crate::kernels;
use crate::mc::{self, MbMode};
use crate::quant::{has_coefficients, tq_block};
use crate::sme::MbSubMotion;
use crate::types::MbField;
use feves_video::geometry::{RowRange, MB_SIZE};
use feves_video::plane::{Plane, PlaneBandMut};
use std::cell::RefCell;

/// Quantized levels of one macroblock: sixteen 4×4 luma blocks in raster
/// order, plus a bitmask of blocks containing non-zero coefficients.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct MbCoeffs {
    /// Levels per 4×4 block (raster order inside the MB).
    pub blocks: [[i16; 16]; 16],
    /// Bit `i` set ⇔ `blocks[i]` has a non-zero level.
    pub coded_mask: u16,
}

/// Quantized coefficients of a frame.
pub type CoeffField = MbField<MbCoeffs>;

impl MbField<MbCoeffs> {
    /// Total number of non-zero levels (rate proxy / diagnostics).
    pub fn nonzero_levels(&self) -> usize {
        self.rows(RowRange::new(0, self.mb_rows()))
            .iter()
            .flat_map(|mb| mb.blocks.iter())
            .flat_map(|b| b.iter())
            .filter(|&&v| v != 0)
            .count()
    }
}

/// Forward TQ of one MB row into `coeffs`, that row's slice of the
/// coefficient field — its only output, so rows can run concurrently
/// ([`crate::par`]). `residual` is the row's sixteen lines, indexed
/// row-locally (each `residual.len() / 16` long); each macroblock is one
/// [`kernels::tq_blocks`] batch over them.
pub fn tq_row(residual: &[i16], qp: u8, intra: bool, coeffs: &mut [MbCoeffs]) {
    let stride = residual.len() / MB_SIZE;
    for (mbx, mb) in coeffs.iter_mut().enumerate() {
        let src = &residual[mbx * MB_SIZE..];
        mb.coded_mask = kernels::tq_blocks(src, stride, 4, qp, intra, &mut mb.blocks);
    }
}

/// [`tq_rows`] one [`tq_block`] per 4×4 block: the reference the batch is
/// held to by name.
pub fn tq_rows_reference(
    residual: &Plane<i16>,
    qp: u8,
    intra: bool,
    rows: RowRange,
    coeffs: &mut CoeffField,
) {
    let mb_cols = residual.width() / MB_SIZE;
    for (mby, row) in rows.iter().zip(coeffs.rows_mut(rows).chunks_mut(mb_cols)) {
        for (mbx, mb) in row.iter_mut().enumerate() {
            let mut mask = 0u16;
            for (blk, levels) in mb.blocks.iter_mut().enumerate() {
                let bx = mbx * MB_SIZE + (blk % 4) * 4;
                let by = mby * MB_SIZE + (blk / 4) * 4;
                let rbuf = core::array::from_fn(|i| residual.get(bx + i % 4, by + i / 4));
                *levels = tq_block(&rbuf, qp, intra);
                if has_coefficients(levels) {
                    mask |= 1 << blk;
                }
            }
            mb.coded_mask = mask;
        }
    }
}

/// Forward TQ over the MB rows of `rows`: quantize the residual into
/// `coeffs`.
pub fn tq_rows(
    residual: &Plane<i16>,
    qp: u8,
    intra: bool,
    rows: RowRange,
    coeffs: &mut CoeffField,
) {
    let mb_cols = residual.width() / MB_SIZE;
    let items = coeffs.rows_mut(rows).chunks_mut(mb_cols);
    for (lines, row) in residual.mb_row_lines(rows).zip(items) {
        tq_row(lines, qp, intra, row);
    }
}

/// Inverse TQ + reconstruction of MB row `mby` into `recon`, that row's
/// band of the reconstructed plane: `recon = clip(pred + TQ⁻¹(coeffs))`,
/// one [`kernels::itq_blocks`] per macroblock. `pred` is the row's sixteen
/// lines, indexed row-locally (each `pred.len() / 16` long).
pub fn itq_recon_row(
    coeffs: &[MbCoeffs],
    pred: &[u8],
    qp: u8,
    mby: usize,
    recon: &mut PlaneBandMut<'_, u8>,
) {
    let stride = pred.len() / MB_SIZE;
    for (mbx, mb) in coeffs.iter().enumerate() {
        let x = mbx * MB_SIZE;
        let out = recon.at_mut(x, mby * MB_SIZE);
        kernels::itq_blocks(&mb.blocks, 4, mb.coded_mask, qp, (&pred[x..], stride), out);
    }
}

/// Inverse TQ + reconstruction over the MB rows of `rows`:
/// `recon = clip(pred + TQ⁻¹(coeffs))`.
pub fn itq_recon_rows(
    coeffs: &CoeffField,
    pred: &Plane<u8>,
    qp: u8,
    rows: RowRange,
    recon: &mut Plane<u8>,
) {
    let mb_cols = pred.width() / MB_SIZE;
    let items = (coeffs.rows(rows).chunks(mb_cols))
        .zip(pred.mb_row_lines(rows))
        .zip(recon.split_mb_rows_mut(rows));
    for (mby, ((row, pred), mut band)) in rows.iter().zip(items) {
        itq_recon_row(row, pred, qp, mby, &mut band);
    }
}

/// The one region coder: the residual of `src` against `pred` over a
/// region of 4×4 blocks `4 · cols` samples wide, its TQ into `blocks`
/// ([`kernels::tq_blocks`]), then TQ⁻¹ and reconstruction into `out`
/// ([`kernels::itq_blocks`]); returns the coded mask. Each slice is the
/// region's rows with its own stride. Chroma codes 8×8 regions through it,
/// I16 a macroblock and I4 one block, which rides in the left half of a TQ
/// pair beside a zero block.
///
/// # Panics
/// When `cols` is odd and `blocks` more than one block, or as
/// [`kernels::itq_blocks`] does.
#[inline]
pub fn code_region(
    (src, src_stride): (&[u8], usize),
    (pred, pred_stride): (&[u8], usize),
    cols: usize,
    qp: u8,
    intra: bool,
    blocks: &mut [[i16; 16]],
    out: (&mut [u8], usize),
) -> u16 {
    let (width, stride) = (4 * cols, 4 * cols.next_multiple_of(2));
    let (rows, mut residual) = (4 * blocks.len() / cols, [0i16; 256]);
    for (row, r) in residual.chunks_exact_mut(stride).take(rows).enumerate() {
        let s = &src[row * src_stride..][..width];
        let p = &pred[row * pred_stride..][..width];
        for ((r, &s), &p) in r.iter_mut().zip(s).zip(p) {
            *r = i16::from(s) - i16::from(p);
        }
    }
    let mask = match blocks {
        [block] => {
            let mut pair = [[0; 16]; 2];
            let mask = kernels::tq_blocks(&residual, stride, 2, qp, intra, &mut pair) & 1;
            *block = pair[0];
            mask
        }
        _ => kernels::tq_blocks(&residual, stride, cols, qp, intra, blocks),
    };
    kernels::itq_blocks(blocks, cols, mask, qp, (pred, pred_stride), out);
    mask
}

thread_local! {
    /// The prediction and residual lines of [`code_inter_row`]: one pair
    /// per thread, reused by every row the thread codes.
    static ROW_LINES: RefCell<(Vec<u8>, Vec<i16>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// The R\* row pass of an inter frame: mode decision + MC
/// ([`mc::mc_row`]), TQ ([`tq_row`]) and TQ⁻¹ ([`itq_recon_row`]) of MB row
/// `mby`, back to back on the calling thread. The row's prediction and
/// residual live in sixteen lines of this thread's own buffers; its modes,
/// coefficients and reconstruction band are its only outputs, so rows can
/// run concurrently ([`crate::par`]) and equal [`mc::mc_rows`] →
/// [`tq_rows`] → [`itq_recon_rows`] field for field.
#[allow(clippy::too_many_arguments)] // MC's inputs plus the three outputs
pub fn code_inter_row(
    cf: &Plane<u8>,
    sfs: &[&SubpelFrame],
    sme_row: &[MbSubMotion],
    qp: u8,
    mby: usize,
    modes: &mut [MbMode],
    coeffs: &mut [MbCoeffs],
    recon: &mut PlaneBandMut<'_, u8>,
) {
    ROW_LINES.with_borrow_mut(|(pred, residual)| {
        // Every sample is written before it is read: no zeroing per row.
        let len = MB_SIZE * cf.width();
        pred.resize(len, 0);
        residual.resize(len, 0);
        mc::mc_row(cf, sfs, sme_row, qp, mby, modes, pred, residual);
        tq_row(residual, qp, false, coeffs);
        itq_recon_row(coeffs, pred, qp, mby, recon);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::qstep;

    fn residual_from_fn(w: usize, h: usize, f: impl Fn(usize, usize) -> i16) -> Plane<i16> {
        let mut p = Plane::new(w, h);
        for y in 0..h {
            for x in 0..w {
                p.set(x, y, f(x, y));
            }
        }
        p
    }

    #[test]
    fn zero_residual_reconstructs_prediction() {
        let residual: Plane<i16> = Plane::new(32, 32);
        let mut pred: Plane<u8> = Plane::new(32, 32);
        for y in 0..32 {
            for x in 0..32 {
                pred.set(x, y, ((x * 7 + y) % 256) as u8);
            }
        }
        let mut coeffs = CoeffField::new(2, 2);
        tq_rows(&residual, 28, false, RowRange::new(0, 2), &mut coeffs);
        assert_eq!(coeffs.nonzero_levels(), 0);
        let mut recon: Plane<u8> = Plane::new(32, 32);
        itq_recon_rows(&coeffs, &pred, 28, RowRange::new(0, 2), &mut recon);
        assert_eq!(recon, pred);
    }

    #[test]
    fn reconstruction_error_bounded() {
        let residual = residual_from_fn(32, 32, |x, y| ((x * 13 + y * 7) % 120) as i16 - 60);
        let pred: Plane<u8> = {
            let mut p = Plane::new(32, 32);
            p.fill(128);
            p
        };
        for qp in [16u8, 28, 40] {
            let mut coeffs = CoeffField::new(2, 2);
            tq_rows(&residual, qp, false, RowRange::new(0, 2), &mut coeffs);
            let mut recon: Plane<u8> = Plane::new(32, 32);
            itq_recon_rows(&coeffs, &pred, qp, RowRange::new(0, 2), &mut recon);
            let bound = qstep(qp) * 2.0 + 2.0;
            for y in 0..32 {
                for x in 0..32 {
                    let want = (128 + residual.get(x, y)).clamp(0, 255);
                    let got = recon.get(x, y) as i16;
                    assert!(
                        ((want - got).abs() as f64) <= bound,
                        "qp {qp} at {x},{y}: want {want} got {got} bound {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn lower_qp_gives_more_coefficients() {
        let residual = residual_from_fn(32, 32, |x, y| (((x * 31) ^ (y * 17)) % 60) as i16 - 30);
        let count = |qp: u8| {
            let mut coeffs = CoeffField::new(2, 2);
            tq_rows(&residual, qp, false, RowRange::new(0, 2), &mut coeffs);
            coeffs.nonzero_levels()
        };
        assert!(count(10) >= count(30));
        assert!(count(30) >= count(48));
    }

    #[test]
    fn row_partitioned_tq_matches_whole() {
        let residual = residual_from_fn(32, 48, |x, y| ((x * 3 + y * 11) % 90) as i16 - 45);
        let mut whole = CoeffField::new(2, 3);
        tq_rows(&residual, 28, false, RowRange::new(0, 3), &mut whole);
        let mut split = CoeffField::new(2, 3);
        tq_rows(&residual, 28, false, RowRange::new(0, 1), &mut split);
        tq_rows(&residual, 28, false, RowRange::new(1, 3), &mut split);
        assert_eq!(whole, split);
    }

    #[test]
    fn coded_mask_matches_levels() {
        let residual = residual_from_fn(16, 16, |x, y| if x < 4 && y < 4 { 80 } else { 0 });
        let mut coeffs = CoeffField::new(1, 1);
        tq_rows(&residual, 28, false, RowRange::new(0, 1), &mut coeffs);
        let mb = coeffs.mb(0, 0);
        assert!(mb.coded_mask & 1 != 0, "block 0 must be coded");
        for blk in 1..16 {
            assert_eq!(mb.coded_mask & (1 << blk), 0, "block {blk} must be empty");
        }
    }
}
