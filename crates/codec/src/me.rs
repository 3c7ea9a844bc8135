//! Motion estimation: Full-Search Block-Matching (FSBM) over multiple
//! reference frames with all seven H.264/AVC partition modes.
//!
//! For every candidate displacement the sixteen 4×4 SADs of the macroblock
//! are computed once ([`crate::sad::SadGrid`]) and hierarchically aggregated
//! into the 41 partition blocks — the "fast full search" scheme used by the
//! JM reference software, which is also how the paper's CPU/GPU kernels are
//! structured. Results are *independent per macroblock*, which is what makes
//! the paper's row-wise cross-device distribution possible: any split of MB
//! rows over devices yields bit-identical motion fields.
//!
//! The search is exhaustive and content-independent (the basis for the
//! paper's observation that encoding time does not vary with content), and
//! the per-block winner is the minimum-SAD candidate with a deterministic
//! tie-break (first in `rf`-then-raster scan order).
//!
//! The SAD grid evaluation dispatches through [`crate::kernels`]
//! (`FEVES_KERNELS=scalar|fast`); both implementations are bit-exact, so the
//! selected kernel affects throughput only, never the motion field.

use crate::par;
use crate::sad::{sad_grid_16x16, SadGrid};
use crate::types::{EncodeParams, Mv, PartitionMode, TOTAL_PARTITION_BLOCKS};
use feves_video::geometry::{RowRange, MB_SIZE};
use feves_video::plane::Plane;

/// Best match for one partition block: reference index, motion vector, SAD.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockMv {
    /// Reference-frame index (0 = most recent).
    pub rf: u8,
    /// Full-pel motion vector.
    pub mv: Mv,
    /// SAD of the winning candidate.
    pub cost: u32,
}

impl Default for BlockMv {
    fn default() -> Self {
        BlockMv {
            rf: 0,
            mv: Mv::ZERO,
            cost: u32::MAX,
        }
    }
}

/// Motion data of one macroblock: best [`BlockMv`] for each of the 41
/// partition blocks across the 7 modes, stored mode-major.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MbMotion {
    blocks: [BlockMv; TOTAL_PARTITION_BLOCKS],
}

impl Default for MbMotion {
    fn default() -> Self {
        MbMotion {
            blocks: [BlockMv::default(); TOTAL_PARTITION_BLOCKS],
        }
    }
}

/// Offset of a partition mode's first block in the mode-major layout.
pub const fn mode_base(mode: PartitionMode) -> usize {
    match mode {
        PartitionMode::P16x16 => 0,
        PartitionMode::P16x8 => 1,
        PartitionMode::P8x16 => 3,
        PartitionMode::P8x8 => 5,
        PartitionMode::P8x4 => 9,
        PartitionMode::P4x8 => 17,
        PartitionMode::P4x4 => 25,
    }
}

impl MbMotion {
    /// Best match for block `idx` of `mode`.
    #[inline]
    pub fn block(&self, mode: PartitionMode, idx: usize) -> &BlockMv {
        debug_assert!(idx < mode.count());
        &self.blocks[mode_base(mode) + idx]
    }

    /// Mutable access to block `idx` of `mode`.
    #[inline]
    pub fn block_mut(&mut self, mode: PartitionMode, idx: usize) -> &mut BlockMv {
        debug_assert!(idx < mode.count());
        &mut self.blocks[mode_base(mode) + idx]
    }

    /// All 41 blocks, mode-major.
    pub fn all_blocks(&self) -> &[BlockMv; TOTAL_PARTITION_BLOCKS] {
        &self.blocks
    }

    /// Total SAD of a partition mode (sum over its blocks).
    pub fn mode_cost(&self, mode: PartitionMode) -> u64 {
        (0..mode.count())
            .map(|i| self.block(mode, i).cost as u64)
            .sum()
    }
}

/// The motion field of a frame: one [`MbMotion`] per macroblock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MeField {
    mbs: Vec<MbMotion>,
    mb_cols: usize,
    mb_rows: usize,
}

impl MeField {
    /// Create an empty (all-default) motion field.
    pub fn new(mb_cols: usize, mb_rows: usize) -> Self {
        MeField {
            mbs: vec![MbMotion::default(); mb_cols * mb_rows],
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

    /// Motion data of macroblock `(mbx, mby)`.
    #[inline]
    pub fn mb(&self, mbx: usize, mby: usize) -> &MbMotion {
        &self.mbs[mby * self.mb_cols + mbx]
    }

    /// Mutable motion data of macroblock `(mbx, mby)`.
    #[inline]
    pub fn mb_mut(&mut self, mbx: usize, mby: usize) -> &mut MbMotion {
        &mut self.mbs[mby * self.mb_cols + mbx]
    }

    /// Mutable slice covering the MB rows of `range` (for row-partitioned
    /// fills by different devices).
    pub fn rows_mut(&mut self, range: RowRange) -> &mut [MbMotion] {
        &mut self.mbs[range.start * self.mb_cols..range.end * self.mb_cols]
    }

    /// Borrow the rows of `range`.
    pub fn rows(&self, range: RowRange) -> &[MbMotion] {
        &self.mbs[range.start * self.mb_cols..range.end * self.mb_cols]
    }
}

/// Hierarchically aggregate a 4×4 [`SadGrid`] into the 41 partition SADs
/// (mode-major layout matching [`mode_base`]).
#[inline]
pub fn aggregate_partitions(grid: &SadGrid) -> [u32; TOTAL_PARTITION_BLOCKS] {
    let mut out = [0u32; TOTAL_PARTITION_BLOCKS];
    // 4x4: direct copy.
    out[25..41].copy_from_slice(&grid[..]);
    // 8x4 (two horizontal 4x4s), raster of 2 cols x 4 rows.
    let mut p8x4 = [0u32; 8];
    for (j, v) in p8x4.iter_mut().enumerate() {
        let gx = (j % 2) * 2;
        let gy = j / 2;
        *v = grid[gy * 4 + gx] + grid[gy * 4 + gx + 1];
    }
    out[9..17].copy_from_slice(&p8x4);
    // 4x8 (two vertical 4x4s), raster of 4 cols x 2 rows.
    let mut p4x8 = [0u32; 8];
    for (j, v) in p4x8.iter_mut().enumerate() {
        let gx = j % 4;
        let gy = (j / 4) * 2;
        *v = grid[gy * 4 + gx] + grid[(gy + 1) * 4 + gx];
    }
    out[17..25].copy_from_slice(&p4x8);
    // 8x8 from two stacked 8x4s.
    let mut p8x8 = [0u32; 4];
    for (k, v) in p8x8.iter_mut().enumerate() {
        let col = k % 2;
        let row = (k / 2) * 2;
        *v = p8x4[row * 2 + col] + p8x4[(row + 1) * 2 + col];
    }
    out[5..9].copy_from_slice(&p8x8);
    // 16x8 / 8x16 / 16x16 from 8x8 quadrants.
    out[1] = p8x8[0] + p8x8[1];
    out[2] = p8x8[2] + p8x8[3];
    out[3] = p8x8[0] + p8x8[2];
    out[4] = p8x8[1] + p8x8[3];
    out[0] = out[1] + out[2];
    out
}

/// Run FSBM for one macroblock against all reference frames, returning the
/// per-partition best matches.
pub fn motion_estimate_mb(
    cf: &Plane<u8>,
    rfs: &[&Plane<u8>],
    params: &EncodeParams,
    mbx: usize,
    mby: usize,
) -> MbMotion {
    let mut best = MbMotion::default();
    let range = params.search_area.range();
    let cx = mbx * MB_SIZE;
    let cy = mby * MB_SIZE;
    for (rf_idx, rf) in rfs.iter().enumerate().take(params.n_ref) {
        for dy in -range..range {
            let ry = cy as isize + dy as isize;
            for dx in -range..range {
                let rx = cx as isize + dx as isize;
                let grid = sad_grid_16x16(cf, cx, cy, rf, rx, ry);
                let parts = aggregate_partitions(&grid);
                let mv = Mv::new(dx, dy);
                for (b, &cost) in best.blocks.iter_mut().zip(parts.iter()) {
                    // Strict `<` keeps the first candidate in scan order on
                    // ties → deterministic regardless of parallel split.
                    if cost < b.cost {
                        *b = BlockMv {
                            rf: rf_idx as u8,
                            mv,
                            cost,
                        };
                    }
                }
            }
        }
    }
    best
}

/// Run FSBM over the MB rows of `rows`, writing into `out` (one entry per MB
/// of the range, raster order). This is the row-sliced entry point the
/// framework assigns to each device.
pub fn motion_estimate_rows(
    cf: &Plane<u8>,
    rfs: &[&Plane<u8>],
    params: &EncodeParams,
    rows: RowRange,
    out: &mut [MbMotion],
) {
    let mb_cols = cf.width() / MB_SIZE;
    assert_eq!(
        out.len(),
        rows.len() * mb_cols,
        "output slice size mismatch"
    );
    for (i, mby) in rows.iter().enumerate() {
        for mbx in 0..mb_cols {
            out[i * mb_cols + mbx] = motion_estimate_mb(cf, rfs, params, mbx, mby);
        }
    }
}

/// [`motion_estimate_rows`] with the MB rows spread over the host's cores
/// ([`crate::par`]) — the "OpenMP across cores" axis of the paper's CPU
/// kernels.
pub fn motion_estimate_rows_parallel(
    cf: &Plane<u8>,
    rfs: &[&Plane<u8>],
    params: &EncodeParams,
    rows: RowRange,
    out: &mut [MbMotion],
) {
    let mb_cols = cf.width() / MB_SIZE;
    assert_eq!(
        out.len(),
        rows.len() * mb_cols,
        "output slice size mismatch"
    );
    par::for_each_row(out.chunks_mut(mb_cols), |i, row_out| {
        let mby = rows.start + i;
        motion_estimate_rows(cf, rfs, params, RowRange::new(mby, mby + 1), row_out);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{SearchArea, ALL_PARTITION_MODES};

    fn plane_from_fn(w: usize, h: usize, f: impl Fn(usize, usize) -> u8) -> Plane<u8> {
        let mut p = Plane::new(w, h);
        for y in 0..h {
            for x in 0..w {
                p.set(x, y, f(x, y));
            }
        }
        p
    }

    fn small_params() -> EncodeParams {
        EncodeParams {
            search_area: SearchArea(16),
            n_ref: 1,
            ..Default::default()
        }
    }

    #[test]
    fn aggregate_matches_naive_sums() {
        let grid: SadGrid = core::array::from_fn(|i| (i as u32 + 1) * 3);
        let parts = aggregate_partitions(&grid);
        for mode in ALL_PARTITION_MODES {
            for i in 0..mode.count() {
                let (ox, oy) = mode.offset(i);
                let (w, h) = mode.dims();
                let naive = crate::sad::grid_partition_sad(&grid, ox, oy, w, h);
                assert_eq!(
                    parts[mode_base(mode) + i],
                    naive,
                    "{mode:?} block {i} mismatch"
                );
            }
        }
    }

    #[test]
    fn finds_exact_translation() {
        // Reference = textured plane; current = reference shifted by (3, -2).
        let rf = plane_from_fn(64, 64, |x, y| ((x * 37) ^ (y * 11)) as u8);
        let cf = plane_from_fn(64, 64, |x, y| {
            rf.get_clamped(x as isize + 3, y as isize - 2)
        });
        let m = motion_estimate_mb(&cf, &[&rf], &small_params(), 1, 1);
        let b = m.block(PartitionMode::P16x16, 0);
        assert_eq!(b.mv, Mv::new(3, -2));
        assert_eq!(b.cost, 0);
        // Every partition of every mode must also find the same shift.
        for mode in ALL_PARTITION_MODES {
            for i in 0..mode.count() {
                assert_eq!(m.block(mode, i).mv, Mv::new(3, -2), "{mode:?}/{i}");
                assert_eq!(m.block(mode, i).cost, 0);
            }
        }
    }

    #[test]
    fn zero_motion_on_identical_frames_with_tiebreak() {
        let rf = plane_from_fn(48, 48, |x, y| ((x + 2 * y) % 256) as u8);
        let m = motion_estimate_mb(&rf, &[&rf], &small_params(), 1, 1);
        // Identical frames: zero-cost match exists at (0,0); scan order must
        // pick the *first* zero-cost candidate deterministically. A diagonal
        // gradient is also zero-cost along an anti-diagonal, so the winner is
        // the first in scan order — assert cost 0 and determinism.
        let again = motion_estimate_mb(&rf, &[&rf], &small_params(), 1, 1);
        assert_eq!(m, again);
        assert_eq!(m.block(PartitionMode::P16x16, 0).cost, 0);
    }

    #[test]
    fn second_reference_wins_when_better() {
        let rf_far = plane_from_fn(64, 64, |x, y| ((x * 37) ^ (y * 11)) as u8);
        let rf_near = plane_from_fn(64, 64, |_, _| 0); // useless reference
        let cf = rf_far.clone();
        let params = EncodeParams {
            search_area: SearchArea(16),
            n_ref: 2,
            ..Default::default()
        };
        // rfs[0] is useless, rfs[1] is a perfect match.
        let m = motion_estimate_mb(&cf, &[&rf_near, &rf_far], &params, 1, 1);
        let b = m.block(PartitionMode::P16x16, 0);
        assert_eq!(b.rf, 1);
        assert_eq!(b.cost, 0);
    }

    #[test]
    fn n_ref_limits_search() {
        let rf0 = plane_from_fn(64, 64, |_, _| 0);
        let rf1 = plane_from_fn(64, 64, |x, y| ((x * 37) ^ (y * 11)) as u8);
        let cf = rf1.clone();
        let params = EncodeParams {
            search_area: SearchArea(16),
            n_ref: 1, // only rfs[0] may be searched
            ..Default::default()
        };
        let m = motion_estimate_mb(&cf, &[&rf0, &rf1], &params, 1, 1);
        assert_eq!(m.block(PartitionMode::P16x16, 0).rf, 0);
        assert!(m.block(PartitionMode::P16x16, 0).cost > 0);
    }

    #[test]
    fn row_sliced_equals_whole_frame() {
        let rf = plane_from_fn(64, 80, |x, y| ((x * 3 + y * 7) % 251) as u8);
        let cf = plane_from_fn(64, 80, |x, y| {
            rf.get_clamped(x as isize - 1, y as isize + 1)
                .wrapping_add(1)
        });
        let params = small_params();
        let mb_cols = 4;
        let mb_rows = 5;

        let mut whole = vec![MbMotion::default(); mb_cols * mb_rows];
        motion_estimate_rows(&cf, &[&rf], &params, RowRange::new(0, 5), &mut whole);

        // Split 2 + 3 rows as two "devices" would.
        let mut top = vec![MbMotion::default(); mb_cols * 2];
        let mut bottom = vec![MbMotion::default(); mb_cols * 3];
        motion_estimate_rows(&cf, &[&rf], &params, RowRange::new(0, 2), &mut top);
        motion_estimate_rows(&cf, &[&rf], &params, RowRange::new(2, 5), &mut bottom);

        let stitched: Vec<MbMotion> = top.into_iter().chain(bottom).collect();
        assert_eq!(whole, stitched, "row partitioning must not change results");
    }

    #[test]
    fn parallel_equals_sequential() {
        let rf = plane_from_fn(64, 64, |x, y| ((x * 5) ^ (y * 3)) as u8);
        let cf = plane_from_fn(64, 64, |x, y| rf.get_clamped(x as isize + 2, y as isize));
        let params = small_params();
        let mut seq = vec![MbMotion::default(); 16];
        let mut par = vec![MbMotion::default(); 16];
        motion_estimate_rows(&cf, &[&rf], &params, RowRange::new(0, 4), &mut seq);
        motion_estimate_rows_parallel(&cf, &[&rf], &params, RowRange::new(0, 4), &mut par);
        assert_eq!(seq, par);
    }

    #[test]
    fn me_field_row_views() {
        let mut f = MeField::new(4, 6);
        f.mb_mut(2, 3).block_mut(PartitionMode::P16x16, 0).cost = 7;
        let rows = f.rows(RowRange::new(3, 4));
        assert_eq!(rows[2].block(PartitionMode::P16x16, 0).cost, 7);
        assert_eq!(f.rows_mut(RowRange::new(0, 6)).len(), 24);
    }
}
