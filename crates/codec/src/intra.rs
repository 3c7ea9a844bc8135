//! Intra-frame coding: 16×16 luma intra prediction (DC / Vertical /
//! Horizontal / Plane) with the shared TQ/TQ⁻¹ reconstruction path.
//!
//! The predictors write `u8` samples. The mode search only chooses: the
//! winner is coded by [`crate::recon::code_region`] — one region of
//! sixteen blocks for I16, one block at a time for I4, whose next block
//! predicts from this one's reconstruction — so the TQ⁻¹ is
//! [`crate::kernels::itq_blocks`], the one chroma, luma and the decoder run.
//!
//! The paper evaluates IPPP sequences: the first frame is intra-coded, every
//! subsequent frame runs the inter-loop. Intra coding here is sequential per
//! macroblock (prediction uses already-reconstructed neighbours), which is
//! fine — it happens once per sequence and is not part of the balanced load.

use crate::recon::{code_region, CoeffField, MbCoeffs};
use feves_video::geometry::MB_SIZE;
use feves_video::plane::Plane;

/// The four H.264 16×16 luma intra prediction modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntraMode {
    /// Mean of available neighbours (fallback 128).
    Dc,
    /// Copy the row above downward.
    Vertical,
    /// Copy the left column rightward.
    Horizontal,
    /// First-order plane fit from the top and left borders.
    Plane,
}

/// The nine-ish 4×4 luma intra prediction modes (the directional subset
/// implemented here; the codec is self-consistent, so the exact mode set
/// only affects compression, not correctness).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Intra4Mode {
    /// Copy the row above.
    Vertical,
    /// Copy the left column.
    Horizontal,
    /// Mean of available neighbours.
    Dc,
    /// 45° down-left diagonal from the above/above-right samples.
    DiagDownLeft,
    /// 45° down-right diagonal from above/left/corner samples.
    DiagDownRight,
}

/// All implemented 4×4 modes in coding order.
pub const ALL_INTRA4_MODES: [Intra4Mode; 5] = [
    Intra4Mode::Vertical,
    Intra4Mode::Horizontal,
    Intra4Mode::Dc,
    Intra4Mode::DiagDownLeft,
    Intra4Mode::DiagDownRight,
];

/// Macroblock-level intra choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MbIntraChoice {
    /// One whole-MB 16×16 prediction.
    I16(IntraMode),
    /// Sixteen independent 4×4 predictions (modes not retained per block).
    I4,
}

/// Result of intra-encoding a frame.
#[derive(Clone, Debug)]
pub struct IntraFrameResult {
    /// Reconstructed frame (becomes the first reference frame).
    pub recon: Plane<u8>,
    /// Winning prediction choice per macroblock (raster order).
    pub modes: Vec<MbIntraChoice>,
    /// Quantized coefficients (for entropy coding / diagnostics).
    pub coeffs: CoeffField,
    /// Approximate coded bits (mode symbols + coefficient bits).
    pub bits: u64,
}

/// DC prediction of the `n × n` block at `(x, y)`: the rounded mean of the
/// reconstructed row above it and column left of it, those that exist, or
/// 128 when neither does. I16, I4 and chroma intra all predict DC by it.
pub(crate) fn dc(recon: &Plane<u8>, (x, y): (usize, usize), n: usize) -> u8 {
    let above = (0..n).filter(|_| y > 0).map(|i| recon.get(x + i, y - 1));
    let left = (0..n).filter(|_| x > 0).map(|i| recon.get(x - 1, y + i));
    let (sum, count) = (above.chain(left)).fold((0, 0), |(s, c), v| (s + u32::from(v), c + 1));
    let mean = (sum + count / 2).checked_div(count);
    mean.map_or(128, |v| v as u8)
}

fn predict_vertical(recon: &Plane<u8>, cx: usize, cy: usize, pred: &mut [u8; 256]) {
    for x in 0..MB_SIZE {
        let v = recon.get(cx + x, cy - 1);
        for y in 0..MB_SIZE {
            pred[y * MB_SIZE + x] = v;
        }
    }
}

fn predict_horizontal(recon: &Plane<u8>, cx: usize, cy: usize, pred: &mut [u8; 256]) {
    for y in 0..MB_SIZE {
        let v = recon.get(cx - 1, cy + y);
        pred[y * MB_SIZE..(y + 1) * MB_SIZE].fill(v);
    }
}

fn predict_plane(recon: &Plane<u8>, cx: usize, cy: usize, pred: &mut [u8; 256]) {
    let top = |x: isize| recon.get_clamped(cx as isize + x, cy as isize - 1) as i32;
    let left = |y: isize| recon.get_clamped(cx as isize - 1, cy as isize + y) as i32;
    let mut hgrad = 0i32;
    let mut vgrad = 0i32;
    for i in 1..=8i32 {
        hgrad += i * (top((7 + i) as isize) - top((7 - i) as isize));
        vgrad += i * (left((7 + i) as isize) - left((7 - i) as isize));
    }
    let a = 16 * (left(15) + top(15));
    let b = (5 * hgrad + 32) >> 6;
    let c = (5 * vgrad + 32) >> 6;
    for y in 0..MB_SIZE as i32 {
        for x in 0..MB_SIZE as i32 {
            let v = (a + b * (x - 7) + c * (y - 7) + 16) >> 5;
            pred[(y as usize) * MB_SIZE + x as usize] = v.clamp(0, 255) as u8;
        }
    }
}

/// SAD of the prediction `pred`, rows `w` samples wide, against `cf` at
/// `(x, y)`.
fn sad(cf: &Plane<u8>, (x, y): (usize, usize), pred: &[u8], w: usize) -> u32 {
    let mut acc = 0;
    for (r, p) in pred.chunks_exact(w).enumerate() {
        for (&c, &p) in cf.row(y + r)[x..x + w].iter().zip(p) {
            acc += u32::from(c.abs_diff(p));
        }
    }
    acc
}

/// Predict one 4×4 block from reconstructed neighbours; `mode` must be
/// one [`modes4_for`] allows at `(bx, by)`. The above-right samples fall
/// back to replicating the last above sample when `avail_above_right` is
/// false (the H.264 rule).
fn predict4(
    recon: &Plane<u8>,
    (bx, by): (usize, usize),
    mode: Intra4Mode,
    avail_above_right: bool,
    pred: &mut [u8; 16],
) {
    let above = |i: usize| -> i16 {
        if i < 4 {
            recon.get(bx + i, by - 1) as i16
        } else if avail_above_right {
            recon.get((bx + i).min(recon.width() - 1), by - 1) as i16
        } else {
            recon.get(bx + 3, by - 1) as i16
        }
    };
    let left = |i: usize| recon.get(bx - 1, by + i) as i16;
    let corner = || recon.get(bx - 1, by - 1) as i16;
    match mode {
        Intra4Mode::Vertical => {
            for y in 0..4 {
                for x in 0..4 {
                    pred[y * 4 + x] = above(x) as u8;
                }
            }
        }
        Intra4Mode::Horizontal => {
            for y in 0..4 {
                let v = left(y) as u8;
                pred[y * 4..y * 4 + 4].fill(v);
            }
        }
        Intra4Mode::Dc => pred.fill(dc(recon, (bx, by), 4)),
        Intra4Mode::DiagDownLeft => {
            // p[x,y] = (a(x+y) + 2·a(x+y+1) + a(x+y+2) + 2) >> 2.
            for y in 0..4 {
                for x in 0..4 {
                    let i = x + y;
                    let v = (above(i) + 2 * above(i + 1) + above((i + 2).min(7)) + 2) >> 2;
                    pred[y * 4 + x] = v as u8;
                }
            }
        }
        Intra4Mode::DiagDownRight => {
            // Diagonal from corner: p[x,y] depends on x-y.
            for y in 0..4i32 {
                for x in 0..4i32 {
                    let d = x - y;
                    let v = match d.cmp(&0) {
                        std::cmp::Ordering::Greater => {
                            let i = (d - 1) as usize;
                            let a0 = if i == 0 { corner() } else { above(i - 1) };
                            (a0 + 2 * above(i) + above(i + 1) + 2) >> 2
                        }
                        std::cmp::Ordering::Equal => (above(0) + 2 * corner() + left(0) + 2) >> 2,
                        std::cmp::Ordering::Less => {
                            let i = (-d - 1) as usize;
                            let l0 = if i == 0 { corner() } else { left(i - 1) };
                            (l0 + 2 * left(i) + left((i + 1).min(3)) + 2) >> 2
                        }
                    };
                    pred[(y * 4 + x) as usize] = v as u8;
                }
            }
        }
    }
}

/// Modes usable for a 4×4 block given neighbour availability.
fn modes4_for(avail_left: bool, avail_above: bool) -> &'static [Intra4Mode] {
    match (avail_left, avail_above) {
        (true, true) => &ALL_INTRA4_MODES,
        (false, true) => &[
            Intra4Mode::Dc,
            Intra4Mode::Vertical,
            Intra4Mode::DiagDownLeft,
        ],
        (true, false) => &[Intra4Mode::Dc, Intra4Mode::Horizontal],
        (false, false) => &[Intra4Mode::Dc],
    }
}

/// Code one macroblock in I4×4: per 4×4 block choose the best mode, code
/// the residual, reconstruct in place (blocks within the MB predict from
/// each other's fresh reconstructions, as the standard requires).
/// Returns (coefficients, SAD-cost, bits).
fn code_mb_i4(
    cf: &Plane<u8>,
    recon: &mut Plane<u8>,
    cx: usize,
    cy: usize,
    qp: u8,
) -> (MbCoeffs, u32, u64) {
    let mut mb = MbCoeffs::default();
    let mut total_cost = 0u32;
    let mut bits = 0u64;
    let mut pred = [0u8; 16];
    let mut best_pred = [0u8; 16];
    for blk in 0..16usize {
        let bx = cx + (blk % 4) * 4;
        let by = cy + (blk / 4) * 4;
        let avail_left = bx > 0;
        let avail_above = by > 0;
        // Above-right is reconstructed only if it lies in a previous MB row
        // or an earlier block of this MB (conservative: same-MB rule).
        let avail_ar =
            avail_above && (bx + 4) < recon.width() && (blk % 4 != 3 || !by.is_multiple_of(16));
        let mut best_cost = u32::MAX;
        for &mode in modes4_for(avail_left, avail_above) {
            predict4(recon, (bx, by), mode, avail_ar, &mut pred);
            let cost = sad(cf, (bx, by), &pred, 4);
            if cost < best_cost {
                best_cost = cost;
                best_pred.copy_from_slice(&pred);
            }
        }
        total_cost += best_cost;
        bits += 3; // 4x4 mode symbol

        // One block per region: the next block predicts from this one's
        // reconstruction.
        let (src, out) = (cf.at(bx, by), recon.at_mut(bx, by));
        let levels = &mut mb.blocks[blk..=blk];
        if code_region(src, (&best_pred, 4), 1, qp, true, levels, out) != 0 {
            mb.coded_mask |= 1 << blk;
            bits += 6 * levels[0].iter().filter(|&&v| v != 0).count() as u64;
        }
    }
    (mb, total_cost, bits)
}

/// Encode one frame in intra mode; returns reconstruction, modes and bits.
pub fn encode_intra_frame(cf: &Plane<u8>, qp: u8) -> IntraFrameResult {
    let mb_cols = cf.width() / MB_SIZE;
    let mb_rows = cf.height() / MB_SIZE;
    let mut recon: Plane<u8> = Plane::new(cf.width(), cf.height());
    let mut coeffs = CoeffField::new(mb_cols, mb_rows);
    let mut modes = Vec::with_capacity(mb_cols * mb_rows);
    let mut bits = 0u64;
    let mut pred = [0u8; 256];
    let mut best_pred = [0u8; 256];

    for mby in 0..mb_rows {
        for mbx in 0..mb_cols {
            let (cx, cy) = (mbx * MB_SIZE, mby * MB_SIZE);
            // Candidate modes limited by neighbour availability.
            let mut best_mode = IntraMode::Dc;
            let mut best_cost = u32::MAX;
            let candidates: &[IntraMode] = match (mbx > 0, mby > 0) {
                (true, true) => &[
                    IntraMode::Dc,
                    IntraMode::Vertical,
                    IntraMode::Horizontal,
                    IntraMode::Plane,
                ],
                (false, true) => &[IntraMode::Dc, IntraMode::Vertical],
                (true, false) => &[IntraMode::Dc, IntraMode::Horizontal],
                (false, false) => &[IntraMode::Dc],
            };
            for &mode in candidates {
                match mode {
                    IntraMode::Dc => pred.fill(dc(&recon, (cx, cy), MB_SIZE)),
                    IntraMode::Vertical => predict_vertical(&recon, cx, cy, &mut pred),
                    IntraMode::Horizontal => predict_horizontal(&recon, cx, cy, &mut pred),
                    IntraMode::Plane => predict_plane(&recon, cx, cy, &mut pred),
                }
                let cost = sad(cf, (cx, cy), &pred, MB_SIZE);
                if cost < best_cost {
                    best_cost = cost;
                    best_mode = mode;
                    best_pred.copy_from_slice(&pred);
                }
            }

            // Trial-code the macroblock in I4×4 (mutates recon); if the
            // 16×16 mode wins the Lagrangian comparison (its header is ~45
            // bits lighter), code I16 instead, which overwrites every
            // sample I4 wrote.
            let (mb4, cost4, bits4) = code_mb_i4(cf, &mut recon, cx, cy, qp);
            let header_penalty = (crate::mc::lambda_mode(qp) * 45.0).round() as u32;
            if cost4.saturating_add(header_penalty) < best_cost {
                modes.push(MbIntraChoice::I4);
                bits += bits4 + 1;
                *coeffs.mb_mut(mbx, mby) = mb4;
                continue;
            }
            modes.push(MbIntraChoice::I16(best_mode));
            bits += 3; // mode symbol

            // The macroblock is one region of sixteen blocks. ~6 bits per
            // non-zero level is a serviceable estimate; exact numbers come
            // from the entropy coder.
            let mut mb = MbCoeffs::default();
            let (src, out) = (cf.at(cx, cy), recon.at_mut(cx, cy));
            let (pred, blocks) = ((&best_pred[..], MB_SIZE), &mut mb.blocks);
            mb.coded_mask = code_region(src, pred, 4, qp, true, blocks, out);
            bits += 6 * mb.blocks.iter().flatten().filter(|&&v| v != 0).count() as u64;
            *coeffs.mb_mut(mbx, mby) = mb;
        }
    }
    IntraFrameResult {
        recon,
        modes,
        coeffs,
        bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feves_video::metrics::psnr;

    #[test]
    fn flat_frame_reconstructs_exactly() {
        let mut cf = Plane::new(48, 48);
        cf.fill(200);
        let r = encode_intra_frame(&cf, 28);
        assert_eq!(r.recon, cf, "flat content must be coded losslessly");
        // Only MB (0,0) lacks neighbours (DC falls back to 128 → a real
        // residual); every other MB predicts exactly from reconstructed
        // neighbours and needs no coefficients.
        assert!(
            r.coeffs.nonzero_levels() <= 16,
            "only the first MB may carry levels, got {}",
            r.coeffs.nonzero_levels()
        );
    }

    #[test]
    fn reconstruction_quality_tracks_qp() {
        let cf = Plane::from_fn(64, 64, |x, y| (((x * 13) ^ (y * 29)) % 256) as u8);
        let lo = encode_intra_frame(&cf, 12);
        let hi = encode_intra_frame(&cf, 44);
        let psnr_lo = psnr(&lo.recon, &cf);
        let psnr_hi = psnr(&hi.recon, &cf);
        assert!(
            psnr_lo > psnr_hi + 3.0,
            "QP 12 ({psnr_lo:.1} dB) must beat QP 44 ({psnr_hi:.1} dB)"
        );
        assert!(
            psnr_lo > 35.0,
            "QP 12 must be near-transparent, got {psnr_lo:.1}"
        );
    }

    #[test]
    fn vertical_content_picks_vertical_mode() {
        // Columns of constant value: after the first MB row, vertical
        // prediction is exact.
        let cf = Plane::from_fn(64, 64, |x, _| ((x * 9) % 256) as u8);
        let r = encode_intra_frame(&cf, 20);
        let mb_cols = 4;
        let mut vertical_wins = 0;
        for mby in 1..4 {
            for mbx in 0..4 {
                if r.modes[mby * mb_cols + mbx] == MbIntraChoice::I16(IntraMode::Vertical) {
                    vertical_wins += 1;
                }
            }
        }
        assert!(
            vertical_wins >= 10,
            "vertical mode must dominate columns, got {vertical_wins}/12"
        );
    }

    #[test]
    fn horizontal_content_picks_horizontal_mode() {
        let cf = Plane::from_fn(64, 64, |_, y| ((y * 9) % 256) as u8);
        let r = encode_intra_frame(&cf, 20);
        let mut wins = 0;
        for mby in 0..4 {
            for mbx in 1..4 {
                if r.modes[mby * 4 + mbx] == MbIntraChoice::I16(IntraMode::Horizontal) {
                    wins += 1;
                }
            }
        }
        assert!(
            wins >= 10,
            "horizontal mode must dominate rows, got {wins}/12"
        );
    }

    #[test]
    fn bits_increase_with_detail() {
        let flat = {
            let mut p = Plane::new(64, 64);
            p.fill(90);
            p
        };
        let busy = Plane::from_fn(64, 64, |x, y| (((x * 37) ^ (y * 53)) % 256) as u8);
        let bf = encode_intra_frame(&flat, 28).bits;
        let bb = encode_intra_frame(&busy, 28).bits;
        assert!(bb > bf * 2, "busy {bb} vs flat {bf}");
    }
}

#[cfg(test)]
mod i4_tests {
    use super::*;
    use feves_video::metrics::psnr;

    #[test]
    fn fine_detail_selects_i4_macroblocks() {
        // 4-pixel-period vertical stripes alternating per 4x4 block row:
        // no 16x16 mode fits, but 4x4 V/H modes predict well.
        let cf = Plane::from_fn(64, 64, |x, y| {
            if (y / 4) % 2 == 0 {
                if x % 4 < 2 {
                    40
                } else {
                    200
                }
            } else if y % 4 < 2 {
                40
            } else {
                200
            }
        });
        let r = encode_intra_frame(&cf, 24);
        let i4_count = r
            .modes
            .iter()
            .filter(|m| matches!(m, MbIntraChoice::I4))
            .count();
        assert!(
            i4_count >= 4,
            "fine detail should drive MBs to I4, got {i4_count}/16"
        );
        assert!(psnr(&r.recon, &cf) > 28.0);
    }

    #[test]
    fn i4_improves_quality_on_structured_content() {
        // Diagonal edges: I4's directional modes track them better than any
        // whole-MB predictor; quality should be solid at moderate QP.
        let cf = Plane::from_fn(64, 64, |x, y| if (x + y) % 11 < 5 { 60 } else { 190 });
        let r = encode_intra_frame(&cf, 28);
        let q = psnr(&r.recon, &cf);
        assert!(q > 30.0, "structured content PSNR too low: {q:.1}");
    }

    #[test]
    fn predict4_modes_are_exact_on_their_patterns() {
        // Vertical stripes → V mode residual 0 away from the first row.
        let cf = Plane::from_fn(16, 16, |x, _| (x * 16) as u8);
        let mut pred = [0u8; 16];
        predict4(&cf, (4, 4), Intra4Mode::Vertical, true, &mut pred);
        for y in 0..4 {
            for x in 0..4 {
                assert_eq!(pred[y * 4 + x], cf.get(4 + x, 3));
            }
        }
        // Horizontal bands → H mode copies the left column.
        let cfh = Plane::from_fn(16, 16, |_, y| (y * 16) as u8);
        predict4(&cfh, (4, 4), Intra4Mode::Horizontal, true, &mut pred);
        for y in 0..4 {
            for x in 0..4 {
                assert_eq!(pred[y * 4 + x], cfh.get(3, 4 + y));
            }
        }
    }

    #[test]
    fn flat_content_still_codes_flat() {
        // The first MB's DC-128 residual quantizes with a small error; the
        // rest of the frame then predicts that flat value exactly, so the
        // reconstruction is uniform and within one quantization step.
        let mut cf = Plane::new(48, 48);
        cf.fill(133);
        let r = encode_intra_frame(&cf, 28);
        let first = r.recon.get(0, 0);
        for y in 0..48 {
            for x in 0..48 {
                assert_eq!(r.recon.get(x, y), first, "must stay flat");
            }
        }
        assert!(
            ((first as i16 - 133i16).abs() as f64) <= crate::quant::qstep(28),
            "flat offset too large: {first}"
        );
    }
}
