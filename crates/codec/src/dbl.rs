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
//! framework depend on.
//!
//! Neighbouring macroblocks must already be filtered when a macroblock is
//! processed (raster order), which is exactly why the paper assigns DBL to a
//! single device instead of distributing it — and why its cost is paid on
//! one thread. With ME and SME on SAD instructions that cost stopped being
//! negligible on this host: 13 % of a replayed CIF frame and 7 % of a 720p
//! one (0.60 and 4.67 ms), most of it the block lookups behind bS, redone
//! for both sides of every sample line. It is 2.3 % and 1.4 % (0.10 and
//! 0.77 ms; EXPERIMENTS.md "Serial tail") by doing each thing once:
//!
//! * the sixteen [`BlockInfo`]s of a macroblock are derived once, its
//!   neighbours' border blocks carried over from when they were visited;
//! * bS is taken once per 4-sample edge segment (32 per macroblock), and an
//!   edge whose four segments are all bS = 0 touches no pixel;
//! * both edge directions address the plane's storage through its stride,
//!   sixteen lines per call, on [`DeblockIsa`]: all sixteen in SSE2 lanes
//!   (the product) or one line at a time ([`deblock_frame_reference`], the
//!   definition).
//!
//! What the restructuring must not and does not change, pinned by the
//! proptests against the text it replaced (`tests::reference`): raster
//! macroblock order; within a macroblock every vertical edge before any
//! horizontal one, each direction in increasing position (a sample within
//! three of two edges is filtered by both, in that order); the line
//! filter's arithmetic, clip for clip; and nothing below QP 16, where α = 0
//! admits no line.

#[cfg(not(target_arch = "x86_64"))]
use crate::kernels::fast::Portable as FastIsa;
#[cfg(target_arch = "x86_64")]
use crate::kernels::fast::Sse2 as FastIsa;
use crate::kernels::fast::{DeblockIsa, EdgeFilter, Portable};
use crate::mc::{MbMode, ModeField};
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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct BlockInfo {
    coded: bool,
    rf: u8,
    mv: QpelMv,
}

/// The sixteen [`BlockInfo`]s of one macroblock in raster order: each 4×4
/// block takes the vector of the partition of the winning mode it lies in.
fn mb_block_infos(mb_mode: &MbMode, coded_mask: u16) -> [BlockInfo; 16] {
    let (w, h) = mb_mode.mode.dims();
    let per_row = MB_SIZE / w;
    core::array::from_fn(|b| {
        let (sx, sy) = (b % 4, b / 4);
        let blk = &mb_mode.mvs[(sy * 4 / h) * per_row + sx * 4 / w];
        BlockInfo {
            coded: coded_mask & (1 << b) != 0,
            rf: blk.rf,
            mv: blk.mv,
        }
    })
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

/// The boundary strengths of one macroblock's thirty-two 4-sample edge
/// segments: `[e][s]` is segment `s` (top→bottom on a vertical edge,
/// left→right on a horizontal one) of edge `e`. Edge 0 is the macroblock's
/// own border; its p-side blocks are the neighbour's (`left`: its right
/// column, `above`: its bottom row), and without a neighbour it has no
/// strength.
struct EdgeStrengths {
    vertical: [[u8; 4]; 4],
    horizontal: [[u8; 4]; 4],
}

impl EdgeStrengths {
    fn of(
        info: &[BlockInfo; 16],
        left: Option<&[BlockInfo; 4]>,
        above: Option<&[BlockInfo; 4]>,
    ) -> Self {
        EdgeStrengths {
            vertical: Self::one_direction(info, left, |e, s| s * 4 + e),
            horizontal: Self::one_direction(info, above, |e, s| e * 4 + s),
        }
    }

    /// `at(e, s)` is the block on the q side of segment `s` of edge `e`;
    /// its p side is the same segment of edge `e − 1`, or of `border`.
    #[inline(always)]
    fn one_direction(
        info: &[BlockInfo; 16],
        border: Option<&[BlockInfo; 4]>,
        at: impl Fn(usize, usize) -> usize,
    ) -> [[u8; 4]; 4] {
        core::array::from_fn(|e| {
            core::array::from_fn(|s| {
                let p = match e {
                    0 => border.map(|b| b[s]),
                    _ => Some(info[at(e - 1, s)]),
                };
                p.map_or(0, |p| boundary_strength(p, info[at(e, s)]).0)
            })
        })
    }
}

/// What the line filter reads of the frame's QP: the two activity
/// thresholds and, per boundary strength, the monotone stand-in for the
/// spec's `tc0` table (see module docs).
#[derive(Clone, Copy)]
struct Thresholds {
    alpha: i16,
    beta: i16,
    tc0: [i16; 3],
}

impl Thresholds {
    fn at(qp: u8) -> Self {
        let beta = BETA[qp as usize] as i16;
        Thresholds {
            alpha: ALPHA[qp as usize] as i16,
            beta,
            tc0: [0, beta >> 2, (beta * 2) >> 2],
        }
    }

    /// The filter of an edge whose four segments have strengths `bs`.
    fn edge(&self, bs: [u8; 4]) -> EdgeFilter {
        EdgeFilter {
            alpha: self.alpha,
            beta: self.beta,
            tc0: bs.map(|bs| (bs != 0).then_some(self.tc0[bs as usize])),
        }
    }
}

/// [`deblock_frame`] on the line filter of `isa`.
fn deblock_with<I: DeblockIsa>(
    isa: I,
    recon: &mut Plane<u8>,
    modes: &ModeField,
    coeffs: &CoeffField,
    qp: u8,
) {
    let th = Thresholds::at(qp);
    if th.alpha == 0 {
        // Below QP 16 no line passes `|p0 − q0| < α`.
        return;
    }
    let stride = recon.stride();
    let data = recon.as_mut_slice();
    // The p-side blocks of every edge 0: the bottom row of each MB of the
    // row above, and the right column of the MB to the left.
    let mut above = vec![[BlockInfo::default(); 4]; modes.mb_cols()];
    for mby in 0..modes.mb_rows() {
        let mut left = [BlockInfo::default(); 4];
        for (mbx, above) in above.iter_mut().enumerate() {
            let info = mb_block_infos(modes.mb(mbx, mby), coeffs.mb(mbx, mby).coded_mask);
            let strengths = EdgeStrengths::of(
                &info,
                (mbx > 0).then_some(&left),
                (mby > 0).then_some(above),
            );
            left = core::array::from_fn(|s| info[s * 4 + 3]);
            *above = core::array::from_fn(|s| info[12 + s]);

            let (x0, y0) = (mbx * MB_SIZE, mby * MB_SIZE);
            // Vertical edges left→right: sixteen rows of the eight samples
            // around x = x0 + 4e.
            for (e, bs) in strengths.vertical.into_iter().enumerate() {
                if bs != [0; 4] {
                    let first = y0 * stride + x0 + e * 4 - 4;
                    let samples = &mut data[first..first + 15 * stride + 8];
                    isa.filter_columns(samples, stride, &th.edge(bs));
                }
            }
            // Horizontal edges top→bottom: the six rows around
            // y = y0 + 4e, sixteen samples of each.
            for (e, bs) in strengths.horizontal.into_iter().enumerate() {
                if bs != [0; 4] {
                    let first = (y0 + e * 4 - 3) * stride + x0;
                    let mut rows = data[first..first + 5 * stride + MB_SIZE]
                        .chunks_mut(stride)
                        .map(|row| <&mut [u8; MB_SIZE]>::try_from(&mut row[..MB_SIZE]).unwrap());
                    isa.filter_rows(core::array::from_fn(|_| rows.next().unwrap()), &th.edge(bs));
                }
            }
        }
    }
}

/// Deblock a reconstructed luma plane in place.
///
/// Macroblocks are visited in raster order; within each MB, vertical edges
/// are filtered before horizontal ones (H.264 edge order).
pub fn deblock_frame(recon: &mut Plane<u8>, modes: &ModeField, coeffs: &CoeffField, qp: u8) {
    deblock_with(FastIsa, recon, modes, coeffs, qp)
}

/// [`deblock_frame`] one sample line at a time ([`Portable`]): the
/// definition the product filter is tested against; the encoder never runs
/// it.
pub fn deblock_frame_reference(
    recon: &mut Plane<u8>,
    modes: &ModeField,
    coeffs: &CoeffField,
    qp: u8,
) {
    deblock_with(Portable, recon, modes, coeffs, qp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sme::SmeBlockMv;
    use crate::types::ALL_PARTITION_MODES;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The per-sample-line filter this module held until the edge-segment
    /// rewrite, kept verbatim as the oracle: `block_info` looked up for
    /// both sides of every sample line, horizontal edges through
    /// `get`/`set`, α/β/`tc0` read inside the line filter.
    mod reference {
        use super::super::{boundary_strength, BlockInfo, BoundaryStrength, ALPHA, BETA};
        use crate::mc::ModeField;
        use crate::recon::CoeffField;
        use feves_video::geometry::MB_SIZE;
        use feves_video::plane::Plane;

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
            if (p0i - q0i).abs() >= alpha || (p1i - p0i).abs() >= beta || (q1i - q0i).abs() >= beta
            {
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
        pub fn deblock_frame(
            recon: &mut Plane<u8>,
            modes: &ModeField,
            coeffs: &CoeffField,
            qp: u8,
        ) {
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
    }

    /// A frame of `cols × rows` macroblocks drawn from `rng`: any of the
    /// seven modes, vectors within ±5 quarter samples (neighbours do and do
    /// not differ by 4), two reference indices, and coded masks that are
    /// random, all clear (`masks == 1`) or all set (`masks == 2`).
    fn random_frame(
        rng: &mut StdRng,
        cols: usize,
        rows: usize,
        masks: u8,
    ) -> (Plane<u8>, ModeField, CoeffField) {
        let (mut modes, mut coeffs) = setup(cols, rows);
        // With `masks == 1` and one vector per frame every bS is 0.
        let still = masks == 1 && rng.gen_bool(0.5);
        for mby in 0..rows {
            for mbx in 0..cols {
                let m = modes.mb_mut(mbx, mby);
                m.mode = ALL_PARTITION_MODES[rng.gen_range(0..7usize)];
                for blk in &mut m.mvs {
                    if !still {
                        blk.rf = rng.gen_range(0..2);
                        blk.mv = QpelMv::new(rng.gen_range(-5..=5), rng.gen_range(-5..=5));
                    }
                }
                coeffs.mb_mut(mbx, mby).coded_mask = match masks {
                    1 => 0,
                    2 => 0xFFFF,
                    _ => rng.gen::<u16>() & rng.gen::<u16>(),
                };
            }
        }
        // Neighbouring samples a few levels apart, so lines fall on both
        // sides of every threshold at every QP.
        let spread: i32 = rng.gen_range(2..=40);
        let base = rng.gen_range(0..=255 - 40);
        let plane = Plane::from_fn(cols * 16, rows * 16, |_, _| {
            (base + rng.gen_range(0..=spread)) as u8
        });
        (plane, modes, coeffs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// The edge-segment filter writes what the per-sample-line text it
        /// replaced wrote, sample for sample.
        #[test]
        fn deblock_frame_equals_the_text_it_replaced(
            seed in any::<u64>(),
            (cols, rows) in prop_oneof![Just((1usize, 1usize)), Just((1, 5)), Just((5, 1)), Just((4, 7))],
            qp in 12u8..=51,
            masks in 0u8..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (plane, modes, coeffs) = random_frame(&mut rng, cols, rows, masks);
            let mut want = plane.clone();
            reference::deblock_frame(&mut want, &modes, &coeffs, qp);
            let mut got = plane.clone();
            deblock_frame(&mut got, &modes, &coeffs, qp);
            prop_assert_eq!(&got, &want, "{}x{} MBs, QP {}, masks {}", cols, rows, qp, masks);
            let mut portable = plane.clone();
            deblock_frame_reference(&mut portable, &modes, &coeffs, qp);
            prop_assert_eq!(&portable, &want, "portable");
            if masks == 2 && qp >= 30 {
                prop_assert_ne!(&got, &plane, "all-coded frames are filtered");
            }
        }
    }

    /// A plane whose stride is wider than its rows filters like a packed
    /// one: both edge directions address storage through the stride.
    #[test]
    fn stride_padding_is_skipped() {
        let mut rng = StdRng::seed_from_u64(24);
        let (plane, modes, coeffs) = random_frame(&mut rng, 3, 2, 0);
        let mut want = plane.clone();
        reference::deblock_frame(&mut want, &modes, &coeffs, 34);
        let mut padded = Plane::with_stride(48, 32, 61);
        padded.fill(0xAA);
        padded.copy_from(&plane);
        deblock_frame(&mut padded, &modes, &coeffs, 34);
        for y in 0..32 {
            assert_eq!(padded.row(y), want.row(y), "row {y}");
            let pad = &padded.as_slice()[y * 61 + 48..(y + 1) * 61];
            assert!(pad.iter().all(|&v| v == 0xAA), "padding of row {y}");
        }
    }

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
