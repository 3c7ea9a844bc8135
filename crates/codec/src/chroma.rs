//! Chroma (4:2:0) coding.
//!
//! H.264/AVC derives chroma prediction from the luma decision: the chroma
//! motion vector is the luma quarter-pel vector reinterpreted in chroma
//! eighth-pel units (chroma planes are half resolution), sampled with
//! bilinear weights; the chroma QP is a table-mapped companion of the luma
//! QP. Each macroblock covers an 8×8 region per chroma component, coded as
//! four 4×4 transform blocks with the shared TQ/TQ⁻¹ path, from a `u8`
//! prediction.
//!
//! Chroma is part of the `R*` work (it rides with MC/TQ/recon on the single
//! selected device) and runs on one thread after DBL: 10 % of a replayed
//! CIF frame and 6 % of a 720p one (0.46 and 4.17 ms) when every predicted
//! sample cost four clamped fetches and every block a TQ⁻¹, 7 % and 4 %
//! (0.29 and 2.36 ms; EXPERIMENTS.md "Serial tail") since. Three things
//! hold by construction and are pinned by proptests against the texts they
//! replaced (`tests::reference`):
//!
//! * a block whose `(w + 1) × (h + 1)` footprint lies in the reference is
//!   predicted from two row slices per output row; any other block takes
//!   the clamped per-sample fetch — the same samples, since inside the
//!   plane clamping is the identity;
//! * a 4×4 block with no coefficients reconstructs as its prediction
//!   (TQ⁻¹ of zero levels is a zero residual) — and still writes all
//!   sixteen samples: each component is one [`crate::recon::code_region`],
//!   the region coder intra shares, whose TQ⁻¹ is
//!   [`crate::kernels::itq_blocks`], luma's and the decoder's too;
//! * `encode_chroma_inter_into` overwrites every level, mask and sample of
//!   its outputs, whatever they held.
//!
//! The in-loop deblocking of chroma is omitted (a documented
//! simplification; chroma blocking at the paper's QP 27/28 is visually
//! negligible and DBL is time-modelled as a whole).

use crate::kernels::itq_blocks;
use crate::mc::ModeField;
use crate::recon::code_region;
use crate::types::{MbField, QpelMv};
use feves_video::geometry::RowRange;
use feves_video::plane::Plane;

/// Chroma QP as a function of luma QP (H.264 Table 8-15).
pub fn chroma_qp(luma_qp: u8) -> u8 {
    const MAP: [u8; 22] = [
        29, 30, 31, 32, 32, 33, 34, 34, 35, 35, 36, 36, 37, 37, 37, 38, 38, 38, 39, 39, 39, 39,
    ];
    if luma_qp < 30 {
        luma_qp
    } else {
        MAP[(luma_qp - 30) as usize]
    }
}

/// Predict a `w × h` chroma block anchored at chroma position `(bx, by)`
/// displaced by the *luma* quarter-pel vector `mv` (which is exactly the
/// chroma eighth-pel vector) into rows `dst_stride` apart: sample `(col,
/// row)` of the block is the bilinear eighth-pel sample (H.264 §8.4.2.2.2)
/// at chroma-plane position `(8·(bx + col) + mv.x, 8·(by + row) + mv.y)`,
/// coordinates outside the plane clamped to its border.
#[allow(clippy::too_many_arguments)] // a block's reference, anchor, vector, size and destination
fn predict_into(
    reference: &Plane<u8>,
    bx: usize,
    by: usize,
    mv: QpelMv,
    w: usize,
    h: usize,
    dst: &mut [u8],
    dst_stride: usize,
) {
    assert!(
        h == 0 || dst.len() >= (h - 1) * dst_stride + w,
        "a {w}x{h} block (stride {dst_stride}) does not fit {} samples",
        dst.len()
    );
    let fx = (mv.x as i32).rem_euclid(8);
    let fy = (mv.y as i32).rem_euclid(8);
    let x0 = bx as isize + (mv.x as isize).div_euclid(8);
    let y0 = by as isize + (mv.y as isize).div_euclid(8);
    // The weights of the four samples around the position.
    let (wa, wb) = ((8 - fx) * (8 - fy), fx * (8 - fy));
    let (wc, wd) = ((8 - fx) * fy, fx * fy);
    let blend = |a: u8, b: u8, c: u8, d: u8| {
        ((wa * a as i32 + wb * b as i32 + wc * c as i32 + wd * d as i32 + 32) >> 6) as u8
    };

    let inside = x0 >= 0
        && y0 >= 0
        && x0 as usize + w < reference.width()
        && y0 as usize + h < reference.height();
    if inside {
        // The `(w + 1) × (h + 1)` footprint is in the plane: no sample is
        // clamped, so each output row reads two row slices.
        let (x0, y0) = (x0 as usize, y0 as usize);
        for (row, out) in dst.chunks_mut(dst_stride).take(h).enumerate() {
            let upper = &reference.row(y0 + row)[x0..=x0 + w];
            let lower = &reference.row(y0 + row + 1)[x0..=x0 + w];
            for (col, out) in out[..w].iter_mut().enumerate() {
                *out = blend(upper[col], upper[col + 1], lower[col], lower[col + 1]);
            }
        }
    } else {
        for (row, out) in dst.chunks_mut(dst_stride).take(h).enumerate() {
            let y = y0 + row as isize;
            for (col, out) in out[..w].iter_mut().enumerate() {
                let x = x0 + col as isize;
                let at = |dx, dy| reference.get_clamped(x + dx, y + dy);
                *out = blend(at(0, 0), at(1, 0), at(0, 1), at(1, 1));
            }
        }
    }
}

/// Quantized chroma coefficients of one macroblock: four 4×4 blocks per
/// component covering its 8×8 chroma footprint.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct MbChromaCoeffs {
    /// Cb blocks (raster order within the 8×8 region).
    pub cb: [[i16; 16]; 4],
    /// Cr blocks.
    pub cr: [[i16; 16]; 4],
    /// Bits 0–3: coded Cb blocks; bits 4–7: coded Cr blocks.
    pub coded_mask: u8,
}

/// Chroma coefficients for a frame.
pub type ChromaField = MbField<MbChromaCoeffs>;

impl MbField<MbChromaCoeffs> {
    /// Total non-zero chroma levels.
    pub fn nonzero_levels(&self) -> usize {
        self.rows(RowRange::new(0, self.mb_rows()))
            .iter()
            .flat_map(|m| m.cb.iter().chain(m.cr.iter()))
            .flat_map(|b| b.iter())
            .filter(|&&v| v != 0)
            .count()
    }
}

/// Output of chroma encoding for one frame.
#[derive(Clone, Debug)]
pub struct ChromaOutput {
    /// Quantized coefficients.
    pub coeffs: ChromaField,
    /// Reconstructed Cb plane.
    pub recon_u: Plane<u8>,
    /// Reconstructed Cr plane.
    pub recon_v: Plane<u8>,
    /// An I-frame's estimated bits ([`encode_chroma_intra`]); 0 for an
    /// inter frame, whose bits the entropy coder counts.
    pub bits: u64,
}

/// Visit the macroblocks of `modes` in raster order with each one's
/// position, chroma anchor and 8×8 Cb and Cr predictions, built from its
/// winning partitions (each luma partition maps to a half-size chroma
/// block) over the references `rf` indexes.
fn for_each_prediction(
    modes: &ModeField,
    refs_u: &[&Plane<u8>],
    refs_v: &[&Plane<u8>],
    mut visit: impl FnMut((usize, usize), (usize, usize), &[u8; 64], &[u8; 64]),
) {
    assert_eq!(refs_u.len(), refs_v.len());
    let mut pred_u = [0u8; 64];
    let mut pred_v = [0u8; 64];
    for mby in 0..modes.mb_rows() {
        for mbx in 0..modes.mb_cols() {
            let m = modes.mb(mbx, mby);
            let (cx, cy) = (mbx * 8, mby * 8); // chroma MB anchor
            let (lw, lh) = m.mode.dims();
            let (w, h) = (lw / 2, lh / 2);
            for (i, blk) in m.mvs.iter().enumerate().take(m.mode.count()) {
                let (ox, oy) = m.mode.offset(i);
                let (ox, oy) = (ox / 2, oy / 2);
                for (pred, refs) in [(&mut pred_u, refs_u), (&mut pred_v, refs_v)] {
                    let reference = refs[blk.rf as usize];
                    let dst = &mut pred[oy * 8 + ox..];
                    predict_into(reference, cx + ox, cy + oy, blk.mv, w, h, dst, 8);
                }
            }
            visit((mbx, mby), (cx, cy), &pred_u, &pred_v);
        }
    }
}

/// Inter-code the chroma planes of a frame using the luma mode decisions.
///
/// `refs_u`/`refs_v` are the reconstructed chroma references, most recent
/// first, matching the luma reference list the modes index into.
pub fn encode_chroma_inter(
    cf_u: &Plane<u8>,
    cf_v: &Plane<u8>,
    refs_u: &[&Plane<u8>],
    refs_v: &[&Plane<u8>],
    modes: &ModeField,
    luma_qp: u8,
) -> ChromaOutput {
    let mut coeffs = ChromaField::new(modes.mb_cols(), modes.mb_rows());
    let mut recon_u = Plane::new(cf_u.width(), cf_u.height());
    let mut recon_v = Plane::new(cf_v.width(), cf_v.height());
    encode_chroma_inter_into(
        cf_u,
        cf_v,
        refs_u,
        refs_v,
        modes,
        luma_qp,
        &mut coeffs,
        &mut recon_u,
        &mut recon_v,
    );
    ChromaOutput {
        coeffs,
        recon_u,
        recon_v,
        bits: 0,
    }
}

/// [`encode_chroma_inter`] into a coefficient field and reconstruction
/// planes of the frame's dimensions that already exist: every coefficient
/// and every sample is overwritten, whatever they held.
#[allow(clippy::too_many_arguments)] // `encode_chroma_inter`'s inputs and its three outputs
pub fn encode_chroma_inter_into(
    cf_u: &Plane<u8>,
    cf_v: &Plane<u8>,
    refs_u: &[&Plane<u8>],
    refs_v: &[&Plane<u8>],
    modes: &ModeField,
    luma_qp: u8,
    coeffs: &mut ChromaField,
    recon_u: &mut Plane<u8>,
    recon_v: &mut Plane<u8>,
) {
    let qp_c = chroma_qp(luma_qp);
    let (mb_cols, mb_rows) = (modes.mb_cols(), modes.mb_rows());
    assert_eq!((coeffs.mb_cols(), coeffs.mb_rows()), (mb_cols, mb_rows));
    let same_size =
        |a: &Plane<u8>, b: &Plane<u8>| (a.width(), a.height()) == (b.width(), b.height());
    assert!(same_size(recon_u, cf_u) && same_size(recon_v, cf_v));
    for_each_prediction(modes, refs_u, refs_v, |(mbx, mby), at, pred_u, pred_v| {
        let mb = coeffs.mb_mut(mbx, mby);
        let (cx, cy) = at;
        let (u, v) = (recon_u.at_mut(cx, cy), recon_v.at_mut(cx, cy));
        let cb = code_region(cf_u.at(cx, cy), (pred_u, 8), 2, qp_c, false, &mut mb.cb, u);
        let cr = code_region(cf_v.at(cx, cy), (pred_v, 8), 2, qp_c, false, &mut mb.cr, v);
        mb.coded_mask = (cb | (cr << 4)) as u8;
    });
}

/// The decoder's chroma: [`encode_chroma_inter_into`]'s prediction and
/// reconstruction from decoded modes and levels, without the TQ. `refs_u`/
/// `refs_v` must hold every reference the modes name; every sample of
/// `recon_u`/`recon_v` is written.
pub fn reconstruct_inter_into(
    refs_u: &[&Plane<u8>],
    refs_v: &[&Plane<u8>],
    modes: &ModeField,
    coeffs: &ChromaField,
    luma_qp: u8,
    recon_u: &mut Plane<u8>,
    recon_v: &mut Plane<u8>,
) {
    let qp_c = chroma_qp(luma_qp);
    for_each_prediction(modes, refs_u, refs_v, |(mbx, mby), at, pred_u, pred_v| {
        let mb = coeffs.mb(mbx, mby);
        let (mask, (cx, cy)) = (u16::from(mb.coded_mask), at);
        let (u, v) = (recon_u.at_mut(cx, cy), recon_v.at_mut(cx, cy));
        itq_blocks(&mb.cb, 2, mask, qp_c, (pred_u, 8), u);
        itq_blocks(&mb.cr, 2, mask >> 4, qp_c, (pred_v, 8), v);
    });
}

/// Intra-code the chroma planes (8×8 DC prediction per component, the
/// H.264 chroma-DC mode).
pub fn encode_chroma_intra(
    cf_u: &Plane<u8>,
    cf_v: &Plane<u8>,
    mb_cols: usize,
    mb_rows: usize,
    luma_qp: u8,
) -> ChromaOutput {
    let qp_c = chroma_qp(luma_qp);
    let mut coeffs = ChromaField::new(mb_cols, mb_rows);
    let mut recon_u: Plane<u8> = Plane::new(cf_u.width(), cf_u.height());
    let mut recon_v: Plane<u8> = Plane::new(cf_v.width(), cf_v.height());
    let mut bits = 0u64;

    for mby in 0..mb_rows {
        for mbx in 0..mb_cols {
            let (cx, cy) = (mbx * 8, mby * 8);
            let mb = coeffs.mb_mut(mbx, mby);
            mb.coded_mask = 0;
            let planes = [
                (cf_u, &mut recon_u, &mut mb.cb),
                (cf_v, &mut recon_v, &mut mb.cr),
            ];
            for (ci, (cf, recon, blocks)) in planes.into_iter().enumerate() {
                let dc = crate::intra::dc(recon, (cx, cy), 8);
                let (src, out) = (cf.at(cx, cy), recon.at_mut(cx, cy));
                let mask = code_region(src, (&[dc; 64], 8), 2, qp_c, true, blocks, out);
                mb.coded_mask |= (mask as u8) << (4 * ci);
                // 6 per non-zero level, + the mode bit.
                let levels = blocks.iter().flatten().filter(|&&v| v != 0).count() as u64;
                bits += 6 * levels + 1;
            }
        }
    }
    ChromaOutput {
        coeffs,
        recon_u,
        recon_v,
        bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc::MbMode;
    use crate::sme::SmeBlockMv;
    use crate::types::PartitionMode;
    use crate::types::ALL_PARTITION_MODES;
    use feves_video::metrics::psnr;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The per-sample texts this module held until the row-slice rewrite,
    /// kept verbatim as the oracles: four `get_clamped` per predicted
    /// sample, a `Vec` per partition copied into the 8×8 prediction,
    /// `get`/`set` around TQ, and TQ⁻¹ on every block.
    mod reference {
        use super::super::{chroma_qp, ChromaField};
        use crate::mc::ModeField;
        use crate::quant::{has_coefficients, itq_block, tq_block};
        use crate::types::QpelMv;
        use feves_video::plane::Plane;

        /// Bilinear eighth-pel chroma sample at chroma-plane position
        /// `(8·x + fx, 8·y + fy)` (H.264 §8.4.2.2.2 chroma interpolation).
        #[inline]
        fn sample_eighth_pel(p: &Plane<u8>, x: isize, y: isize, fx: i32, fy: i32) -> u8 {
            debug_assert!((0..8).contains(&fx) && (0..8).contains(&fy));
            let a = p.get_clamped(x, y) as i32;
            let b = p.get_clamped(x + 1, y) as i32;
            let c = p.get_clamped(x, y + 1) as i32;
            let d = p.get_clamped(x + 1, y + 1) as i32;
            let v = (8 - fx) * (8 - fy) * a + fx * (8 - fy) * b + (8 - fx) * fy * c + fx * fy * d;
            ((v + 32) >> 6) as u8
        }

        /// Predict a `w × h` chroma block anchored at chroma position `(bx, by)`
        /// displaced by the *luma* quarter-pel vector `mv` (which is exactly the
        /// chroma eighth-pel vector).
        pub fn predict_chroma_block(
            reference: &Plane<u8>,
            bx: usize,
            by: usize,
            mv: QpelMv,
            w: usize,
            h: usize,
            dst: &mut [i16],
        ) {
            debug_assert_eq!(dst.len(), w * h);
            let fx = (mv.x as i32).rem_euclid(8);
            let fy = (mv.y as i32).rem_euclid(8);
            let x0 = bx as isize + (mv.x as isize).div_euclid(8);
            let y0 = by as isize + (mv.y as isize).div_euclid(8);
            for row in 0..h {
                for col in 0..w {
                    dst[row * w + col] =
                        sample_eighth_pel(reference, x0 + col as isize, y0 + row as isize, fx, fy)
                            as i16;
                }
            }
        }

        /// Code one 8×8 chroma region: predict → TQ → TQ⁻¹ → reconstruct.
        /// Returns the four quantized blocks and updates `recon`.
        pub fn code_region(
            cf: &Plane<u8>,
            pred8: &[i16; 64],
            cx: usize,
            cy: usize,
            qp_c: u8,
            intra: bool,
            recon: &mut Plane<u8>,
        ) -> ([[i16; 16]; 4], u8, u64) {
            let mut blocks = [[0i16; 16]; 4];
            let mut mask = 0u8;
            let mut bits = 0u64;
            #[allow(clippy::needless_range_loop)] // blk indexes geometry AND blocks
            for blk in 0..4 {
                let bx = (blk % 2) * 4;
                let by = (blk / 2) * 4;
                let mut rbuf = [0i16; 16];
                for row in 0..4 {
                    for col in 0..4 {
                        let p = pred8[(by + row) * 8 + bx + col];
                        rbuf[row * 4 + col] = cf.get(cx + bx + col, cy + by + row) as i16 - p;
                    }
                }
                let levels = tq_block(&rbuf, qp_c, intra);
                if has_coefficients(&levels) {
                    mask |= 1 << blk;
                    bits += 6 * levels.iter().filter(|&&v| v != 0).count() as u64;
                }
                let r = itq_block(&levels, qp_c);
                for row in 0..4 {
                    for col in 0..4 {
                        let p = pred8[(by + row) * 8 + bx + col];
                        let v = (p + r[row * 4 + col]).clamp(0, 255) as u8;
                        recon.set(cx + bx + col, cy + by + row, v);
                    }
                }
                blocks[blk] = levels;
            }
            (blocks, mask, bits)
        }

        /// `encode_chroma_inter` into a coefficient field and reconstruction
        /// planes of the frame's dimensions that already exist: every coefficient
        /// and every sample is overwritten, whatever they held. Returns the bits.
        #[allow(clippy::too_many_arguments)] // `encode_chroma_inter`'s inputs and its three outputs
        pub fn encode_chroma_inter_into(
            cf_u: &Plane<u8>,
            cf_v: &Plane<u8>,
            refs_u: &[&Plane<u8>],
            refs_v: &[&Plane<u8>],
            modes: &ModeField,
            luma_qp: u8,
            coeffs: &mut ChromaField,
            recon_u: &mut Plane<u8>,
            recon_v: &mut Plane<u8>,
        ) -> u64 {
            assert_eq!(refs_u.len(), refs_v.len());
            let qp_c = chroma_qp(luma_qp);
            let mb_cols = modes.mb_cols();
            let mb_rows = modes.mb_rows();
            assert_eq!((coeffs.mb_cols(), coeffs.mb_rows()), (mb_cols, mb_rows));
            let same_size =
                |a: &Plane<u8>, b: &Plane<u8>| (a.width(), a.height()) == (b.width(), b.height());
            assert!(same_size(recon_u, cf_u) && same_size(recon_v, cf_v));
            let mut bits = 0u64;

            let mut pred_u = [0i16; 64];
            let mut pred_v = [0i16; 64];
            let mut block = vec![0i16; 64];
            for mby in 0..mb_rows {
                for mbx in 0..mb_cols {
                    let m = modes.mb(mbx, mby);
                    let (cx, cy) = (mbx * 8, mby * 8); // chroma MB anchor
                    let mode = m.mode;
                    let (lw, lh) = mode.dims();
                    let (w, h) = (lw / 2, lh / 2);
                    for i in 0..mode.count() {
                        let (ox, oy) = mode.offset(i);
                        let (ox, oy) = (ox / 2, oy / 2);
                        let blk = &m.mvs[i];
                        for (pred, refs) in [(&mut pred_u, refs_u), (&mut pred_v, refs_v)] {
                            block.truncate(0);
                            block.resize(w * h, 0);
                            predict_chroma_block(
                                refs[blk.rf as usize],
                                cx + ox,
                                cy + oy,
                                blk.mv,
                                w,
                                h,
                                &mut block,
                            );
                            for row in 0..h {
                                for col in 0..w {
                                    pred[(oy + row) * 8 + ox + col] = block[row * w + col];
                                }
                            }
                        }
                    }
                    let (cb, cb_mask, b1) =
                        code_region(cf_u, &pred_u, cx, cy, qp_c, false, recon_u);
                    let (cr, cr_mask, b2) =
                        code_region(cf_v, &pred_v, cx, cy, qp_c, false, recon_v);
                    let mb = coeffs.mb_mut(mbx, mby);
                    mb.cb = cb;
                    mb.cr = cr;
                    mb.coded_mask = cb_mask | (cr_mask << 4);
                    bits += b1 + b2;
                }
            }
            bits
        }
    }

    fn random_plane(rng: &mut StdRng, w: usize, h: usize) -> Plane<u8> {
        Plane::from_fn(w, h, |_, _| rng.gen())
    }

    /// Every eighth-pel phase × every chroma block size × anchors whose
    /// `(w + 1) × (h + 1)` footprint is inside the plane, touches each
    /// border from inside, and leaves it by 1 and by a whole block — the
    /// four corners included: the two-row-slice path and the clamped one
    /// are the same samples.
    #[test]
    fn prediction_equals_the_per_sample_text_it_replaced() {
        let (pw, ph) = (24usize, 20usize);
        let rf = random_plane(&mut StdRng::seed_from_u64(7), pw, ph);
        // First footprint sample along an axis of `len` for a block of `n`.
        let starts = |n: isize, len: isize| [-n, -1, 0, len / 2 - n, len - 1 - n, len - n, len - 1];
        for (w, h) in [(8, 8), (8, 4), (4, 8), (4, 4), (4, 2), (2, 4), (2, 2)] {
            for x0 in starts(w as isize, pw as isize) {
                for y0 in starts(h as isize, ph as isize) {
                    // Any in-plane anchor; the vector carries the rest.
                    let bx = x0.clamp(0, (pw - w) as isize);
                    let by = y0.clamp(0, (ph - h) as isize);
                    for phase in 0..64 {
                        let mv = QpelMv::new(
                            ((x0 - bx) * 8 + phase % 8) as i16,
                            ((y0 - by) * 8 + phase / 8) as i16,
                        );
                        let (mut got, mut want) = (vec![0xAAu8; w * h], vec![-2i16; w * h]);
                        let (bx, by) = (bx as usize, by as usize);
                        predict_into(&rf, bx, by, mv, w, h, &mut got, w);
                        reference::predict_chroma_block(&rf, bx, by, mv, w, h, &mut want);
                        let got: Vec<i16> = got.into_iter().map(i16::from).collect();
                        assert_eq!(got, want, "{w}x{h} at ({x0}, {y0}) phase {phase}");
                    }
                }
            }
        }
    }

    /// Modes of any partition shape whose vectors reach up to two blocks
    /// past every border, over two references.
    fn random_modes(rng: &mut StdRng, mb_cols: usize, mb_rows: usize) -> ModeField {
        let mut modes = ModeField::new(mb_cols, mb_rows);
        for mby in 0..mb_rows {
            for mbx in 0..mb_cols {
                let m = modes.mb_mut(mbx, mby);
                m.mode = ALL_PARTITION_MODES[rng.gen_range(0..7usize)];
                for blk in &mut m.mvs {
                    blk.rf = rng.gen_range(0..2);
                    blk.mv = QpelMv::new(rng.gen_range(-130..=130), rng.gen_range(-130..=130));
                }
            }
        }
        modes
    }

    fn poisoned_outputs(mb_cols: usize, mb_rows: usize) -> (ChromaField, Plane<u8>, Plane<u8>) {
        let mut coeffs = ChromaField::new(mb_cols, mb_rows);
        for mb in coeffs.rows_mut(RowRange::new(0, mb_rows)) {
            (mb.cb, mb.cr, mb.coded_mask) = ([[-0x5556; 16]; 4], [[-0x5556; 16]; 4], 0xAA);
        }
        let mut plane = Plane::new(mb_cols * 8, mb_rows * 8);
        plane.fill(0xAA);
        (coeffs, plane.clone(), plane)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Coefficients, masks and both reconstructions of a frame, over
        /// outputs that held poison: the no-coefficient shortcut still
        /// writes every sample.
        #[test]
        fn inter_coding_equals_the_text_it_replaced(
            seed in any::<u64>(),
            (mb_cols, mb_rows) in prop_oneof![Just((1usize, 1usize)), Just((3, 2)), Just((2, 4))],
            qp in prop_oneof![Just(4u8), Just(22), Just(28), Just(40), Just(51)],
            // How far the current planes are from the first reference:
            // 0 codes nothing where the vector is zero, 255 codes all.
            spread in prop_oneof![Just(0u8), Just(3), Just(24), Just(255)],
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (w, h) = (mb_cols * 8, mb_rows * 8);
            let refs_u = [random_plane(&mut rng, w, h), random_plane(&mut rng, w, h)];
            let refs_v = [random_plane(&mut rng, w, h), random_plane(&mut rng, w, h)];
            let mut near = |rf: &Plane<u8>| {
                Plane::from_fn(w, h, |x, y| rf.get(x, y).wrapping_add(rng.gen_range(0..=spread)))
            };
            let (cf_u, cf_v) = (near(&refs_u[0]), near(&refs_v[0]));
            let mut modes = random_modes(&mut rng, mb_cols, mb_rows);
            if spread < 255 {
                // A still macroblock, so that some block has no residual.
                *modes.mb_mut(0, 0) = zero_mode_field(1, 1).mb(0, 0).clone();
            }
            let refs_u: Vec<&Plane<u8>> = refs_u.iter().collect();
            let refs_v: Vec<&Plane<u8>> = refs_v.iter().collect();

            let (mut want, mut want_u, mut want_v) = poisoned_outputs(mb_cols, mb_rows);
            reference::encode_chroma_inter_into(
                &cf_u, &cf_v, &refs_u, &refs_v, &modes, qp, &mut want, &mut want_u, &mut want_v,
            );
            let (mut got, mut got_u, mut got_v) = poisoned_outputs(mb_cols, mb_rows);
            encode_chroma_inter_into(
                &cf_u, &cf_v, &refs_u, &refs_v, &modes, qp, &mut got, &mut got_u, &mut got_v,
            );
            prop_assert!(got == want, "coefficients or masks differ");
            prop_assert!(got_u == want_u && got_v == want_v, "reconstructions differ");
            if spread == 0 {
                prop_assert_eq!(got.mb(0, 0).coded_mask, 0, "a still block codes nothing");
            }
        }

        /// One region, inter and intra dead zones: levels, mask and
        /// reconstruction over poisoned outputs.
        #[test]
        fn region_coding_equals_the_text_it_replaced(
            seed in any::<u64>(),
            qp_c in 0u8..=39,
            intra in proptest::bool::ANY,
            spread in prop_oneof![Just(0i16), Just(2), Just(20), Just(255)],
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let cf = random_plane(&mut rng, 24, 16);
            let (cx, cy) = (8 * rng.gen_range(0..3usize), 8 * rng.gen_range(0..2usize));
            let pred8: [i16; 64] = core::array::from_fn(|i| {
                let s = cf.get(cx + i % 8, cy + i / 8) as i16;
                (s + rng.gen_range(-spread..=spread)).clamp(0, 255)
            });
            let mut want_recon = Plane::new(24, 16);
            want_recon.fill(0xAA);
            let mut got_recon = want_recon.clone();
            let (want, want_mask, want_bits) =
                reference::code_region(&cf, &pred8, cx, cy, qp_c, intra, &mut want_recon);
            let mut got = [[-0x5556i16; 16]; 4];
            let pred = pred8.map(|p| p as u8);
            let (src, out) = (cf.at(cx, cy), got_recon.at_mut(cx, cy));
            let got_mask = code_region(src, (&pred, 8), 2, qp_c, intra, &mut got, out);
            prop_assert_eq!((got, got_mask), (want, u16::from(want_mask)));
            prop_assert!(got_recon == want_recon);
            if intra {
                // `encode_chroma_intra`'s estimate, less its mode bit.
                let levels = got.iter().flatten().filter(|&&v| v != 0).count() as u64;
                prop_assert_eq!(6 * levels, want_bits);
            }
        }
    }

    #[test]
    fn chroma_qp_mapping_matches_standard() {
        assert_eq!(chroma_qp(0), 0);
        assert_eq!(chroma_qp(29), 29);
        assert_eq!(chroma_qp(30), 29);
        assert_eq!(chroma_qp(39), 35);
        assert_eq!(chroma_qp(51), 39);
        // Monotone non-decreasing.
        for qp in 0..51u8 {
            assert!(chroma_qp(qp + 1) >= chroma_qp(qp));
        }
    }

    #[test]
    fn integer_mv_prediction_copies_reference() {
        let rf = Plane::from_fn(32, 32, |x, y| ((x * 7) ^ (y * 3)) as u8);
        let mut dst = [0u8; 16];
        // mv = (16, -8) eighth-pels = (2, -1) full chroma pels.
        predict_into(&rf, 8, 8, QpelMv::new(16, -8), 4, 4, &mut dst, 4);
        for row in 0..4 {
            for col in 0..4 {
                assert_eq!(dst[row * 4 + col], rf.get(10 + col, 7 + row));
            }
        }
    }

    #[test]
    fn half_pel_chroma_is_average_on_ramp() {
        let rf = Plane::from_fn(32, 8, |x, _| (x * 8) as u8);
        let mut dst = [0u8; 4];
        // fx = 4/8: halfway between columns.
        predict_into(&rf, 4, 2, QpelMv::new(4, 0), 2, 2, &mut dst, 2);
        assert_eq!(
            dst[0],
            ((rf.get(4, 2) as i32 + rf.get(5, 2) as i32 + 1) / 2) as u8
        );
    }

    fn zero_mode_field(mb_cols: usize, mb_rows: usize) -> ModeField {
        let mut modes = ModeField::new(mb_cols, mb_rows);
        for mby in 0..mb_rows {
            for mbx in 0..mb_cols {
                *modes.mb_mut(mbx, mby) = MbMode {
                    mode: PartitionMode::P16x16,
                    mvs: [SmeBlockMv {
                        rf: 0,
                        mv: QpelMv::ZERO,
                        cost: 0,
                    }; 16],
                    cost: 0,
                };
            }
        }
        modes
    }

    #[test]
    fn identical_chroma_codes_to_zero() {
        let u = Plane::from_fn(32, 32, |x, y| ((x * 5 + y) % 256) as u8);
        let v = Plane::from_fn(32, 32, |x, y| ((x + y * 3) % 256) as u8);
        let modes = zero_mode_field(4, 4);
        let out = encode_chroma_inter(&u, &v, &[&u], &[&v], &modes, 28);
        assert_eq!(out.coeffs.nonzero_levels(), 0);
        assert_eq!(out.recon_u, u);
        assert_eq!(out.recon_v, v);
    }

    #[test]
    fn inter_chroma_quality_reasonable() {
        let ref_u = Plane::from_fn(32, 32, |x, y| (((x * 13) ^ (y * 7)) % 200 + 20) as u8);
        let ref_v = Plane::from_fn(32, 32, |x, y| ((x * 3 + y * 9) % 220 + 10) as u8);
        // Current = reference + small change.
        let cf_u = Plane::from_fn(32, 32, |x, y| ref_u.get(x, y).saturating_add(6));
        let cf_v = Plane::from_fn(32, 32, |x, y| ref_v.get(x, y).saturating_sub(4));
        let modes = zero_mode_field(4, 4);
        let out = encode_chroma_inter(&cf_u, &cf_v, &[&ref_u], &[&ref_v], &modes, 28);
        assert!(psnr(&out.recon_u, &cf_u) > 34.0);
        assert!(psnr(&out.recon_v, &cf_v) > 34.0);
        assert!(out.coeffs.nonzero_levels() > 0);
    }

    /// The I-frame estimate is the reference regions' bits plus a mode bit
    /// per component, with recon and levels equal along the way.
    #[test]
    fn intra_bits_equal_the_reference_regions() {
        let mut rng = StdRng::seed_from_u64(38);
        let (mb_cols, mb_rows) = (3, 2);
        let cf_u = random_plane(&mut rng, mb_cols * 8, mb_rows * 8);
        let cf_v = random_plane(&mut rng, mb_cols * 8, mb_rows * 8);
        for qp in [0u8, 22, 28, 51] {
            let out = encode_chroma_intra(&cf_u, &cf_v, mb_cols, mb_rows, qp);
            let mut bits = 0;
            let mut recon = [
                Plane::new(cf_u.width(), cf_u.height()),
                Plane::new(cf_u.width(), cf_u.height()),
            ];
            for mby in 0..mb_rows {
                for mbx in 0..mb_cols {
                    let (cx, cy) = (mbx * 8, mby * 8);
                    let mb = out.coeffs.mb(mbx, mby);
                    for (ci, (cf, want)) in
                        [(&cf_u, &mb.cb), (&cf_v, &mb.cr)].into_iter().enumerate()
                    {
                        let r = &mut recon[ci];
                        let top = (mby > 0).then(|| {
                            (0..8)
                                .map(|x| u32::from(r.get(cx + x, cy - 1)))
                                .sum::<u32>()
                        });
                        let left = (mbx > 0).then(|| {
                            (0..8)
                                .map(|y| u32::from(r.get(cx - 1, cy + y)))
                                .sum::<u32>()
                        });
                        let n = 8 * (u32::from(top.is_some()) + u32::from(left.is_some()));
                        let sum = top.unwrap_or(0) + left.unwrap_or(0);
                        let dc = (sum + n / 2).checked_div(n).map_or(128, |v| v as i16);
                        let (levels, _, region_bits) =
                            reference::code_region(cf, &[dc; 64], cx, cy, chroma_qp(qp), true, r);
                        assert_eq!(&levels, want, "qp {qp} mb {mbx},{mby} component {ci}");
                        bits += region_bits + 1;
                    }
                }
            }
            assert!(
                recon[0] == out.recon_u && recon[1] == out.recon_v,
                "qp {qp}"
            );
            assert_eq!(out.bits, bits, "qp {qp}");
        }
    }

    #[test]
    fn intra_chroma_flat_reconstructs_flat() {
        // The first MB predicts DC=128 and its residual quantizes with a
        // small error; every later MB predicts exactly from the (flat)
        // reconstruction. So the output must be uniform and within one
        // quantization step of the source.
        let mut u = Plane::new(32, 32);
        u.fill(90);
        let mut v = Plane::new(32, 32);
        v.fill(160);
        let out = encode_chroma_intra(&u, &v, 4, 4, 28);
        for (recon, src) in [(&out.recon_u, 90i16), (&out.recon_v, 160i16)] {
            let first = recon.get(0, 0);
            for y in 0..32 {
                for x in 0..32 {
                    assert_eq!(recon.get(x, y), first, "must stay flat");
                }
            }
            let err = (first as i16 - src).abs() as f64;
            assert!(
                err <= crate::quant::qstep(chroma_qp(28)),
                "flat error {err} exceeds the quantization step"
            );
        }
    }

    #[test]
    fn subdivided_modes_predict_per_partition() {
        // 8x8 partitions with different MVs per quadrant must produce a
        // stitched prediction, not a single-vector one.
        let rf_u = Plane::from_fn(64, 64, |x, y| ((x * 11) ^ (y * 5)) as u8);
        let rf_v = Plane::from_fn(64, 64, |x, y| ((x * 2 + y * 7) % 256) as u8);
        let mut modes = ModeField::new(2, 2);
        for mby in 0..2 {
            for mbx in 0..2 {
                let mut mvs = [SmeBlockMv {
                    rf: 0,
                    mv: QpelMv::ZERO,
                    cost: 0,
                }; 16];
                for (i, mv) in mvs.iter_mut().enumerate().take(4) {
                    mv.mv = QpelMv::new((i as i16) * 8, 8 - (i as i16) * 8);
                }
                *modes.mb_mut(mbx, mby) = MbMode {
                    mode: PartitionMode::P8x8,
                    mvs,
                    cost: 0,
                };
            }
        }
        // Build the current frame so each quadrant matches its displaced
        // reference — the encoder must then code (nearly) zero residual.
        let make_cf = |rf: &Plane<u8>| {
            Plane::from_fn(32, 32, |x, y| {
                let (mbx, mby) = (x / 8, y / 8);
                let (sx, sy) = (x % 8, y % 8);
                let quad = (sy / 4) * 2 + sx / 4;
                let m = QpelMv::new((quad as i16) * 8, 8 - (quad as i16) * 8);
                let _ = (mbx, mby);
                rf.get_clamped(
                    x as isize + (m.x / 8) as isize,
                    y as isize + (m.y / 8) as isize,
                )
            })
        };
        let cf_u = make_cf(&rf_u);
        let cf_v = make_cf(&rf_v);
        let out = encode_chroma_inter(&cf_u, &cf_v, &[&rf_u], &[&rf_v], &modes, 28);
        assert_eq!(
            out.coeffs.nonzero_levels(),
            0,
            "per-partition MVs must match"
        );
    }
}
