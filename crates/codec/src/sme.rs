//! Sub-pixel motion estimation (the paper's SME module).
//!
//! Refines the full-pel motion vectors produced by ME on the sub-pixel
//! interpolated frame (SF): a half-pel refinement step (±½ around the ME
//! vector) followed by a quarter-pel step (±¼ around the half-pel winner) —
//! the standard two-stage refinement of the JM encoder. Like ME, the result
//! for a macroblock depends only on the CF, the SFs and that macroblock's ME
//! output, so row-wise distribution across devices is result-invariant.
//! Block SADs go through [`crate::kernels`], so `FEVES_KERNELS` selects the
//! scalar or `psadbw` implementation here too.

use crate::interp::SubpelFrame;
use crate::me::{mode_base, MbMotion};
use crate::par;
use crate::types::{PartitionMode, QpelMv, ALL_PARTITION_MODES, TOTAL_PARTITION_BLOCKS};
use feves_video::geometry::{RowRange, MB_SIZE};
use feves_video::plane::Plane;

/// Refined match for one partition block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SmeBlockMv {
    /// Reference-frame index (inherited from ME).
    pub rf: u8,
    /// Quarter-pel motion vector.
    pub mv: QpelMv,
    /// SAD at the refined position.
    pub cost: u32,
}

impl Default for SmeBlockMv {
    fn default() -> Self {
        SmeBlockMv {
            rf: 0,
            mv: QpelMv::ZERO,
            cost: u32::MAX,
        }
    }
}

/// Refined motion data of one macroblock (41 blocks, mode-major — same
/// layout as [`MbMotion`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MbSubMotion {
    blocks: [SmeBlockMv; TOTAL_PARTITION_BLOCKS],
}

impl Default for MbSubMotion {
    fn default() -> Self {
        MbSubMotion {
            blocks: [SmeBlockMv::default(); TOTAL_PARTITION_BLOCKS],
        }
    }
}

impl MbSubMotion {
    /// Refined match for block `idx` of `mode`.
    #[inline]
    pub fn block(&self, mode: PartitionMode, idx: usize) -> &SmeBlockMv {
        &self.blocks[mode_base(mode) + idx]
    }

    /// Mutable access.
    #[inline]
    pub fn block_mut(&mut self, mode: PartitionMode, idx: usize) -> &mut SmeBlockMv {
        &mut self.blocks[mode_base(mode) + idx]
    }

    /// Total refined SAD of a partition mode.
    pub fn mode_cost(&self, mode: PartitionMode) -> u64 {
        (0..mode.count())
            .map(|i| self.block(mode, i).cost as u64)
            .sum()
    }
}

/// The refined motion field of a frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SmeField {
    mbs: Vec<MbSubMotion>,
    mb_cols: usize,
    mb_rows: usize,
}

impl SmeField {
    /// Create an empty field.
    pub fn new(mb_cols: usize, mb_rows: usize) -> Self {
        SmeField {
            mbs: vec![MbSubMotion::default(); mb_cols * mb_rows],
            mb_cols,
            mb_rows,
        }
    }

    /// Macroblocks per row.
    pub fn mb_cols(&self) -> usize {
        self.mb_cols
    }

    /// Macroblock rows.
    pub fn mb_rows(&self) -> usize {
        self.mb_rows
    }

    /// Refined motion of macroblock `(mbx, mby)`.
    #[inline]
    pub fn mb(&self, mbx: usize, mby: usize) -> &MbSubMotion {
        &self.mbs[mby * self.mb_cols + mbx]
    }

    /// Mutable refined motion of macroblock `(mbx, mby)`.
    #[inline]
    pub fn mb_mut(&mut self, mbx: usize, mby: usize) -> &mut MbSubMotion {
        &mut self.mbs[mby * self.mb_cols + mbx]
    }

    /// Mutable slice covering `range` MB rows.
    pub fn rows_mut(&mut self, range: RowRange) -> &mut [MbSubMotion] {
        &mut self.mbs[range.start * self.mb_cols..range.end * self.mb_cols]
    }

    /// Borrow the rows of `range`.
    pub fn rows(&self, range: RowRange) -> &[MbSubMotion] {
        &self.mbs[range.start * self.mb_cols..range.end * self.mb_cols]
    }
}

/// SAD between the `w × h` current block at `(bx, by)` and the SF sampled at
/// quarter-pel displacement `qmv`.
pub fn sad_qpel(
    cf: &Plane<u8>,
    bx: usize,
    by: usize,
    w: usize,
    h: usize,
    sf: &SubpelFrame,
    qmv: QpelMv,
) -> u32 {
    let qx0 = bx as isize * 4 + qmv.x as isize;
    let qy0 = by as isize * 4 + qmv.y as isize;
    let fx = qx0.rem_euclid(4) as u8;
    let fy = qy0.rem_euclid(4) as u8;
    let x0 = qx0.div_euclid(4);
    let y0 = qy0.div_euclid(4);
    let plane = sf.phase(fx, fy);
    let mut acc = 0u32;
    let inside = x0 >= 0
        && y0 >= 0
        && (x0 as usize) + w <= plane.width()
        && (y0 as usize) + h <= plane.height();
    if inside {
        // Dispatch once per block (not per row) through the kernel layer so
        // the fast path sees the whole strided block.
        let (px, py) = (x0 as usize, y0 as usize);
        acc = crate::kernels::sad_block(
            &cf.as_slice()[by * cf.stride() + bx..],
            cf.stride(),
            &plane.as_slice()[py * plane.stride() + px..],
            plane.stride(),
            w,
            h,
        );
    } else {
        for row in 0..h {
            for col in 0..w {
                let c = cf.get(bx + col, by + row);
                let p = plane.get_clamped(x0 + col as isize, y0 + row as isize);
                acc += (c as i16 - p as i16).unsigned_abs() as u32;
            }
        }
    }
    acc
}

/// Two-stage (half- then quarter-pel) refinement of one block.
fn refine_block(
    cf: &Plane<u8>,
    sf: &SubpelFrame,
    bx: usize,
    by: usize,
    w: usize,
    h: usize,
    start: QpelMv,
) -> (QpelMv, u32) {
    let mut best_mv = start;
    let mut best_cost = sad_qpel(cf, bx, by, w, h, sf, start);
    for step in [2i16, 1] {
        let center = best_mv;
        for dy in [-step, 0, step] {
            for dx in [-step, 0, step] {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let cand = QpelMv::new(center.x + dx, center.y + dy);
                let cost = sad_qpel(cf, bx, by, w, h, sf, cand);
                if cost < best_cost {
                    best_cost = cost;
                    best_mv = cand;
                }
            }
        }
    }
    (best_mv, best_cost)
}

/// Refine all 41 partition blocks of one macroblock.
pub fn sme_mb(
    cf: &Plane<u8>,
    sfs: &[&SubpelFrame],
    me_mb: &MbMotion,
    mbx: usize,
    mby: usize,
) -> MbSubMotion {
    let mut out = MbSubMotion::default();
    let cx = mbx * MB_SIZE;
    let cy = mby * MB_SIZE;
    for mode in ALL_PARTITION_MODES {
        let (w, h) = mode.dims();
        for i in 0..mode.count() {
            let (ox, oy) = mode.offset(i);
            let me_blk = me_mb.block(mode, i);
            let sf = sfs[me_blk.rf as usize];
            let (mv, cost) = refine_block(cf, sf, cx + ox, cy + oy, w, h, me_blk.mv.to_qpel());
            *out.block_mut(mode, i) = SmeBlockMv {
                rf: me_blk.rf,
                mv,
                cost,
            };
        }
    }
    out
}

/// Refine the MB rows of `rows`; `me_rows` holds the ME output for exactly
/// those rows and `out` receives one entry per MB.
pub fn sme_rows(
    cf: &Plane<u8>,
    sfs: &[&SubpelFrame],
    me_rows: &[MbMotion],
    rows: RowRange,
    out: &mut [MbSubMotion],
) {
    let mb_cols = cf.width() / MB_SIZE;
    assert_eq!(
        out.len(),
        rows.len() * mb_cols,
        "output slice size mismatch"
    );
    assert_eq!(me_rows.len(), out.len(), "ME input size mismatch");
    for (i, mby) in rows.iter().enumerate() {
        for mbx in 0..mb_cols {
            out[i * mb_cols + mbx] = sme_mb(cf, sfs, &me_rows[i * mb_cols + mbx], mbx, mby);
        }
    }
}

/// [`sme_rows`] with the MB rows spread over the host's cores
/// ([`crate::par`]).
pub fn sme_rows_parallel(
    cf: &Plane<u8>,
    sfs: &[&SubpelFrame],
    me_rows: &[MbMotion],
    rows: RowRange,
    out: &mut [MbSubMotion],
) {
    let mb_cols = cf.width() / MB_SIZE;
    assert_eq!(
        out.len(),
        rows.len() * mb_cols,
        "output slice size mismatch"
    );
    assert_eq!(me_rows.len(), out.len(), "ME input size mismatch");
    let items = out.chunks_mut(mb_cols).zip(me_rows.chunks(mb_cols));
    par::for_each_row(items, |i, (row_out, row_me)| {
        let mby = rows.start + i;
        sme_rows(cf, sfs, row_me, RowRange::new(mby, mby + 1), row_out);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::interpolate;
    use crate::me::motion_estimate_mb;
    use crate::types::{EncodeParams, SearchArea};

    fn plane_from_fn(w: usize, h: usize, f: impl Fn(usize, usize) -> u8) -> Plane<u8> {
        let mut p = Plane::new(w, h);
        for y in 0..h {
            for x in 0..w {
                p.set(x, y, f(x, y));
            }
        }
        p
    }

    #[test]
    fn refinement_never_worsens_cost() {
        let rf = plane_from_fn(64, 64, |x, y| ((x * 37) ^ (y * 11)) as u8);
        let cf = plane_from_fn(64, 64, |x, y| {
            rf.get_clamped(x as isize + 1, y as isize).wrapping_add(3)
        });
        let params = EncodeParams {
            search_area: SearchArea(16),
            n_ref: 1,
            ..Default::default()
        };
        let sf = interpolate(&rf);
        let me = motion_estimate_mb(&cf, &[&rf], &params, 1, 1);
        let sme = sme_mb(&cf, &[&sf], &me, 1, 1);
        for mode in ALL_PARTITION_MODES {
            for i in 0..mode.count() {
                assert!(
                    sme.block(mode, i).cost <= me.block(mode, i).cost,
                    "{mode:?}/{i}: SME cost {} > ME cost {}",
                    sme.block(mode, i).cost,
                    me.block(mode, i).cost
                );
            }
        }
    }

    #[test]
    fn finds_half_pel_shift() {
        // Current frame = reference shifted by exactly half a pixel
        // horizontally: on a linear ramp the 6-tap half-pel is the exact
        // midpoint, and ME deterministically anchors at the left integer
        // (scan order breaks the 0-vs-+1 tie toward 0), so the refinement
        // can reach the exact (½, 0) phase.
        let rf = plane_from_fn(96, 48, |x, _| (x * 2) as u8);
        let sf = interpolate(&rf);
        // Build CF from the SF's own half-pel phase so an exact match exists.
        let cf = plane_from_fn(96, 48, |x, y| sf.phase(2, 0).get(x, y));
        let params = EncodeParams {
            search_area: SearchArea(16),
            n_ref: 1,
            ..Default::default()
        };
        let me = motion_estimate_mb(&cf, &[&rf], &params, 2, 1);
        let sme = sme_mb(&cf, &[&sf], &me, 2, 1);
        let blk = sme.block(PartitionMode::P16x16, 0);
        assert_eq!(blk.cost, 0, "exact half-pel match must be found");
        // Content is vertically flat, so every vertical phase of the found
        // column is an equally exact match; the horizontal phase must be ½.
        assert_eq!(blk.mv.phase().0, 2);
    }

    #[test]
    fn sad_qpel_integer_positions_match_plain_sad() {
        let rf = plane_from_fn(64, 64, |x, y| ((x * 3) ^ (y * 7)) as u8);
        let cf = plane_from_fn(64, 64, |x, y| ((x * 5) ^ (y * 2)) as u8);
        let sf = interpolate(&rf);
        let direct: u32 = (0..16)
            .map(|row| crate::sad::row_sad(&cf.row(16 + row)[16..32], &rf.row(18 + row)[20..36]))
            .sum();
        let via_sf = sad_qpel(&cf, 16, 16, 16, 16, &sf, QpelMv::new(16, 8));
        assert_eq!(direct, via_sf);
    }

    #[test]
    fn row_sliced_equals_whole() {
        let rf = plane_from_fn(64, 80, |x, y| ((x * 31 + y * 17) % 253) as u8);
        let cf = plane_from_fn(64, 80, |x, y| {
            rf.get_clamped(x as isize - 2, y as isize + 1)
        });
        let params = EncodeParams {
            search_area: SearchArea(16),
            n_ref: 1,
            ..Default::default()
        };
        let sf = interpolate(&rf);
        let mb_cols = 4;
        let mut me_all = vec![crate::me::MbMotion::default(); mb_cols * 5];
        crate::me::motion_estimate_rows(&cf, &[&rf], &params, RowRange::new(0, 5), &mut me_all);

        let mut whole = vec![MbSubMotion::default(); mb_cols * 5];
        sme_rows(&cf, &[&sf], &me_all, RowRange::new(0, 5), &mut whole);

        let mut a = vec![MbSubMotion::default(); mb_cols * 2];
        let mut b = vec![MbSubMotion::default(); mb_cols * 3];
        sme_rows(
            &cf,
            &[&sf],
            &me_all[..mb_cols * 2],
            RowRange::new(0, 2),
            &mut a,
        );
        sme_rows(
            &cf,
            &[&sf],
            &me_all[mb_cols * 2..],
            RowRange::new(2, 5),
            &mut b,
        );
        let stitched: Vec<MbSubMotion> = a.into_iter().chain(b).collect();
        assert_eq!(whole, stitched);
    }

    #[test]
    fn parallel_equals_sequential() {
        let rf = plane_from_fn(64, 64, |x, y| ((x * 9) ^ (y * 4)) as u8);
        let cf = plane_from_fn(64, 64, |x, y| {
            rf.get_clamped(x as isize + 1, y as isize - 1)
        });
        let params = EncodeParams {
            search_area: SearchArea(16),
            n_ref: 1,
            ..Default::default()
        };
        let sf = interpolate(&rf);
        let mut me_all = vec![crate::me::MbMotion::default(); 16];
        crate::me::motion_estimate_rows(&cf, &[&rf], &params, RowRange::new(0, 4), &mut me_all);
        let mut seq = vec![MbSubMotion::default(); 16];
        let mut par = vec![MbSubMotion::default(); 16];
        sme_rows(&cf, &[&sf], &me_all, RowRange::new(0, 4), &mut seq);
        sme_rows_parallel(&cf, &[&sf], &me_all, RowRange::new(0, 4), &mut par);
        assert_eq!(seq, par);
    }
}
