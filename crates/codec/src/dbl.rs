//! In-loop deblocking filter (the paper's DBL module, last of R\*).
//!
//! Structurally follows H.264/AVC §8.7: per macroblock, the four vertical
//! 4-pixel edges are filtered left→right, then the four horizontal edges
//! top→bottom; boundary strength is derived from coded coefficients and
//! motion-vector/reference differences; sample filtering uses the standard
//! α/β activity thresholds and the clipped Δ update. The `tc0` clipping
//! table is replaced by a documented monotone approximation (`β·bS/4`) —
//! the filter's behaviour (strength monotone in QP and bS, edge-activity
//! gating) is preserved, which is what the encoding-time model and the
//! framework depend on; DBL is <3 % of inter-loop time.
//!
//! Neighbouring macroblocks must already be filtered when a macroblock is
//! processed (raster order), which is exactly why the paper assigns DBL to a
//! single device instead of distributing it.

use crate::mc::ModeField;
use crate::recon::CoeffField;
use crate::types::QpelMv;
use feves_video::geometry::MB_SIZE;
use feves_video::plane::Plane;

/// α activity threshold, indexed by QP (H.264 Table 8-16).
const ALPHA: [u8; 52] = [
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 17, 20,
    22, 25, 28, 32, 36, 40, 45, 50, 56, 63, 71, 80, 90, 101, 113, 127, 144, 162, 182, 203, 226,
    255, 255,
];

/// β activity threshold, indexed by QP (H.264 Table 8-16).
const BETA: [u8; 52] = [
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 6, 6, 7, 7, 8, 8,
    9, 9, 10, 10, 11, 11, 12, 12, 13, 13, 14, 14, 15, 15, 16, 16, 17, 17, 18, 18,
];

/// Boundary strength of an edge between two 4×4 blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct BoundaryStrength(pub u8);

/// Motion summary of one 4×4 block used for bS derivation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct BlockInfo {
    coded: bool,
    rf: u8,
    mv: QpelMv,
}

fn block_info(modes: &ModeField, coeffs: &CoeffField, bx4: usize, by4: usize) -> BlockInfo {
    let (mbx, mby) = (bx4 / 4, by4 / 4);
    let (sx, sy) = (bx4 % 4, by4 % 4);
    let mb_mode = modes.mb(mbx, mby);
    let coded = coeffs.mb(mbx, mby).coded_mask & (1 << (sy * 4 + sx)) != 0;
    // Find the partition of the winning mode containing sub-block (sx, sy).
    let mode = mb_mode.mode;
    let (w, h) = mode.dims();
    let per_row = MB_SIZE / w;
    let idx = (sy * 4 / h) * per_row + (sx * 4 / w);
    let blk = &mb_mode.mvs[idx];
    BlockInfo {
        coded,
        rf: blk.rf,
        mv: blk.mv,
    }
}

/// Derive the boundary strength between blocks `p` and `q` (inter slices:
/// 2 if either is coded, 1 on reference/motion discontinuity, else 0).
fn boundary_strength(p: BlockInfo, q: BlockInfo) -> BoundaryStrength {
    if p.coded || q.coded {
        BoundaryStrength(2)
    } else if p.rf != q.rf || (p.mv.x - q.mv.x).abs() >= 4 || (p.mv.y - q.mv.y).abs() >= 4 {
        BoundaryStrength(1)
    } else {
        BoundaryStrength(0)
    }
}

/// Monotone stand-in for the spec's `tc0` table (see module docs).
#[inline]
fn tc0(qp: u8, bs: BoundaryStrength) -> i16 {
    ((BETA[qp as usize] as i16) * bs.0 as i16) >> 2
}

/// Filter one line of samples across an edge. `p2..q2` are the six samples
/// straddling the edge (p-side then q-side); returns the filtered
/// `(p1, p0, q0, q1)`.
#[allow(clippy::too_many_arguments)]
fn filter_line(
    p2: u8,
    p1: u8,
    p0: u8,
    q0: u8,
    q1: u8,
    q2: u8,
    qp: u8,
    bs: BoundaryStrength,
) -> (u8, u8, u8, u8) {
    let alpha = ALPHA[qp as usize] as i16;
    let beta = BETA[qp as usize] as i16;
    let (p2, p1i, p0i, q0i, q1i, q2) = (
        p2 as i16, p1 as i16, p0 as i16, q0 as i16, q1 as i16, q2 as i16,
    );
    // Activity gating: only real blocking artifacts are smoothed; genuine
    // image edges (large |p0-q0|) pass through.
    if (p0i - q0i).abs() >= alpha || (p1i - p0i).abs() >= beta || (q1i - q0i).abs() >= beta {
        return (p1, p0, q0, q1);
    }
    let ap = (p2 - p0i).abs() < beta;
    let aq = (q2 - q0i).abs() < beta;
    let tc = tc0(qp, bs) + i16::from(ap) + i16::from(aq);
    let delta = (((q0i - p0i) * 4 + (p1i - q1i) + 4) >> 3).clamp(-tc, tc);
    let new_p0 = (p0i + delta).clamp(0, 255) as u8;
    let new_q0 = (q0i - delta).clamp(0, 255) as u8;
    let t0 = tc0(qp, bs);
    let new_p1 = if ap {
        let dp = ((p2 + ((p0i + q0i + 1) >> 1) - 2 * p1i) >> 1).clamp(-t0, t0);
        (p1i + dp).clamp(0, 255) as u8
    } else {
        p1
    };
    let new_q1 = if aq {
        let dq = ((q2 + ((p0i + q0i + 1) >> 1) - 2 * q1i) >> 1).clamp(-t0, t0);
        (q1i + dq).clamp(0, 255) as u8
    } else {
        q1
    };
    (new_p1, new_p0, new_q0, new_q1)
}

/// Deblock a reconstructed luma plane in place.
///
/// Macroblocks are visited in raster order; within each MB, vertical edges
/// are filtered before horizontal ones (H.264 edge order).
pub fn deblock_frame(recon: &mut Plane<u8>, modes: &ModeField, coeffs: &CoeffField, qp: u8) {
    let mb_cols = modes.mb_cols();
    let mb_rows = modes.mb_rows();
    for mby in 0..mb_rows {
        for mbx in 0..mb_cols {
            // Vertical edges at x = mbx*16 + {0, 4, 8, 12}; the x=0 edge only
            // exists when there is a left neighbour.
            for e in 0..4usize {
                if e == 0 && mbx == 0 {
                    continue;
                }
                let xe = mbx * MB_SIZE + e * 4;
                for y in mby * MB_SIZE..(mby + 1) * MB_SIZE {
                    let by4 = y / 4;
                    let q = block_info(modes, coeffs, xe / 4, by4);
                    let p = block_info(modes, coeffs, xe / 4 - 1, by4);
                    let bs = boundary_strength(p, q);
                    if bs.0 == 0 {
                        continue;
                    }
                    let row = recon.row_mut(y);
                    let (np1, np0, nq0, nq1) = filter_line(
                        row[xe - 3],
                        row[xe - 2],
                        row[xe - 1],
                        row[xe],
                        row[xe + 1],
                        row[xe + 2],
                        qp,
                        bs,
                    );
                    row[xe - 2] = np1;
                    row[xe - 1] = np0;
                    row[xe] = nq0;
                    row[xe + 1] = nq1;
                }
            }
            // Horizontal edges at y = mby*16 + {0, 4, 8, 12}.
            for e in 0..4usize {
                if e == 0 && mby == 0 {
                    continue;
                }
                let ye = mby * MB_SIZE + e * 4;
                for x in mbx * MB_SIZE..(mbx + 1) * MB_SIZE {
                    let bx4 = x / 4;
                    let q = block_info(modes, coeffs, bx4, ye / 4);
                    let p = block_info(modes, coeffs, bx4, ye / 4 - 1);
                    let bs = boundary_strength(p, q);
                    if bs.0 == 0 {
                        continue;
                    }
                    let (np1, np0, nq0, nq1) = filter_line(
                        recon.get(x, ye - 3),
                        recon.get(x, ye - 2),
                        recon.get(x, ye - 1),
                        recon.get(x, ye),
                        recon.get(x, ye + 1),
                        recon.get(x, ye + 2),
                        qp,
                        bs,
                    );
                    recon.set(x, ye - 2, np1);
                    recon.set(x, ye - 1, np0);
                    recon.set(x, ye, nq0);
                    recon.set(x, ye + 1, nq1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sme::SmeBlockMv;

    fn setup(mb_cols: usize, mb_rows: usize) -> (ModeField, CoeffField) {
        (
            ModeField::new(mb_cols, mb_rows),
            CoeffField::new(mb_cols, mb_rows),
        )
    }

    #[test]
    fn flat_frame_unchanged() {
        let (mut modes, coeffs) = setup(2, 2);
        // Give MBs identical motion so bS = 0 everywhere.
        for mby in 0..2 {
            for mbx in 0..2 {
                let m = modes.mb_mut(mbx, mby);
                m.cost = 0;
                m.mvs = [SmeBlockMv {
                    rf: 0,
                    mv: QpelMv::ZERO,
                    cost: 0,
                }; 16];
            }
        }
        let mut plane: Plane<u8> = Plane::new(32, 32);
        plane.fill(100);
        let before = plane.clone();
        deblock_frame(&mut plane, &modes, &coeffs, 30);
        assert_eq!(plane, before, "bS=0 everywhere → no filtering");
    }

    #[test]
    fn coded_blocks_get_smoothed() {
        let (mut modes, mut coeffs) = setup(2, 1);
        for mbx in 0..2 {
            let m = modes.mb_mut(mbx, 0);
            m.mvs = [SmeBlockMv {
                rf: 0,
                mv: QpelMv::ZERO,
                cost: 0,
            }; 16];
            coeffs.mb_mut(mbx, 0).coded_mask = 0xFFFF; // all blocks coded
        }
        // Step edge exactly at the MB boundary (x = 16), small enough to be
        // a blocking artifact at QP 36 (alpha = 50).
        let mut plane: Plane<u8> = Plane::new(32, 16);
        for y in 0..16 {
            for x in 0..32 {
                plane.set(x, y, if x < 16 { 100 } else { 120 });
            }
        }
        let before = plane.clone();
        deblock_frame(&mut plane, &modes, &coeffs, 36);
        // Samples adjacent to the edge must have moved toward each other.
        for y in 0..16 {
            assert!(
                plane.get(15, y) > before.get(15, y),
                "p0 at y={y} must increase"
            );
            assert!(
                plane.get(16, y) < before.get(16, y),
                "q0 at y={y} must decrease"
            );
        }
    }

    #[test]
    fn genuine_edges_preserved() {
        // A step larger than alpha must NOT be filtered.
        let (mut modes, mut coeffs) = setup(2, 1);
        for mbx in 0..2 {
            modes.mb_mut(mbx, 0).mvs = [SmeBlockMv {
                rf: 0,
                mv: QpelMv::ZERO,
                cost: 0,
            }; 16];
            coeffs.mb_mut(mbx, 0).coded_mask = 0xFFFF;
        }
        let mut plane: Plane<u8> = Plane::new(32, 16);
        for y in 0..16 {
            for x in 0..32 {
                plane.set(x, y, if x < 16 { 30 } else { 220 });
            }
        }
        let before = plane.clone();
        deblock_frame(&mut plane, &modes, &coeffs, 30);
        assert_eq!(plane, before, "real edges must survive deblocking");
    }

    #[test]
    fn motion_discontinuity_triggers_bs1() {
        let p = BlockInfo {
            coded: false,
            rf: 0,
            mv: QpelMv::new(0, 0),
        };
        let q_same = BlockInfo {
            coded: false,
            rf: 0,
            mv: QpelMv::new(3, 0), // < 1 full pel difference
        };
        let q_far = BlockInfo {
            coded: false,
            rf: 0,
            mv: QpelMv::new(4, 0), // exactly 1 full pel
        };
        let q_rf = BlockInfo {
            coded: false,
            rf: 1,
            mv: QpelMv::new(0, 0),
        };
        assert_eq!(boundary_strength(p, q_same).0, 0);
        assert_eq!(boundary_strength(p, q_far).0, 1);
        assert_eq!(boundary_strength(p, q_rf).0, 1);
        let coded = BlockInfo { coded: true, ..p };
        assert_eq!(boundary_strength(coded, q_same).0, 2);
    }

    #[test]
    fn deblocking_is_deterministic() {
        let (mut modes, mut coeffs) = setup(3, 3);
        for mby in 0..3 {
            for mbx in 0..3 {
                modes.mb_mut(mbx, mby).mvs = [SmeBlockMv {
                    rf: 0,
                    mv: QpelMv::new((mbx * 4) as i16, 0),
                    cost: 0,
                }; 16];
                coeffs.mb_mut(mbx, mby).coded_mask = if (mbx + mby) % 2 == 0 { 0xFFFF } else { 0 };
            }
        }
        let mut a: Plane<u8> = Plane::new(48, 48);
        for y in 0..48 {
            for x in 0..48 {
                a.set(x, y, ((x * 5 + y * 3) % 256) as u8);
            }
        }
        let mut b = a.clone();
        deblock_frame(&mut a, &modes, &coeffs, 32);
        deblock_frame(&mut b, &modes, &coeffs, 32);
        assert_eq!(a, b);
    }
}
