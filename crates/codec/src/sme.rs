//! Sub-pixel motion estimation (the paper's SME module).
//!
//! Refines the full-pel motion vectors produced by ME on the sub-pixel
//! interpolated frame (SF): a half-pel refinement step (±½ around the ME
//! vector) followed by a quarter-pel step (±¼ around the half-pel winner) —
//! the standard two-stage refinement of the JM encoder. Like ME, the result
//! for a macroblock depends only on the CF, the SFs and that macroblock's ME
//! output, so row-wise distribution across devices is result-invariant.
//!
//! There is one refinement body, monomorphised over the seven partition
//! shapes and over the two primitives of [`RefineIsa`]: the current block
//! is packed into 16-byte rows once, each of the 17 candidates is fetched
//! by [`SubpelFrame::block`] — a view into its phase plane, or a clamped
//! copy when it leaves the frame — packed the same way and compared.
//! The product runs it on `psadbw`; [`sme_rows_reference`] runs it on
//! [`Portable`], the definition the product is tested against.

use crate::interp::{SubpelFrame, Tile};
#[cfg(not(target_arch = "x86_64"))]
use crate::kernels::fast::Portable as FastIsa;
#[cfg(target_arch = "x86_64")]
use crate::kernels::fast::Sse2 as FastIsa;
use crate::kernels::fast::{Portable, RefineIsa};
use crate::me::{mode_base, BlockMv, MbMotion};
use crate::par;
use crate::types::{MbField, PartitionMode, QpelMv, TOTAL_PARTITION_BLOCKS};
use feves_video::geometry::{RowRange, MB_SIZE};
use feves_video::plane::Plane;
use std::ops::Range;

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
pub type SmeField = MbField<MbSubMotion>;

/// What one rows call refines with and against: the primitives, the
/// current frame and the references' SFs.
struct Refiner<'a, I> {
    isa: I,
    cf: &'a Plane<u8>,
    sfs: &'a [&'a SubpelFrame],
}

impl<I: RefineIsa> Refiner<'_, I> {
    /// SAD between the packed current block `cur` and the `W × H` block of
    /// `sf` at quarter-pel position `(qx, qy)`.
    #[inline(always)]
    fn cost<const W: usize, const H: usize, const N: usize>(
        &self,
        cur: &[I::Row; N],
        sf: &SubpelFrame,
        (qx, qy): (i32, i32),
        tile: &mut Tile,
    ) -> u32 {
        let cand = sf.block(qx, qy, W, H, tile);
        let cand = self
            .isa
            .load::<W, H, N>(cand.data, cand.offset, cand.stride);
        self.isa.sad(cur, &cand)
    }

    /// Two-stage (half- then quarter-pel) refinement of the `W × H` block
    /// at `(bx, by)` around its ME match: the start position, then the
    /// eight neighbours at ±½ of it, then the eight at ±¼ of the half-pel
    /// winner, each ring in `dy → dx` order; strict `<` keeps the earliest
    /// of equal costs.
    fn refine<const W: usize, const H: usize, const N: usize>(
        &self,
        (bx, by): (usize, usize),
        me: &BlockMv,
        tile: &mut Tile,
    ) -> SmeBlockMv {
        let cf = self.cf;
        let cur = self
            .isa
            .load::<W, H, N>(cf.as_slice(), by * cf.stride() + bx, cf.stride());
        let sf = self.sfs[me.rf as usize];
        let anchor = (bx as i32 * 4, by as i32 * 4);
        let start = me.mv.to_qpel();
        let mut best = (anchor.0 + start.x as i32, anchor.1 + start.y as i32);
        let mut best_cost = self.cost::<W, H, N>(&cur, sf, best, tile);
        for step in [2, 1] {
            let center = best;
            for dy in [-step, 0, step] {
                for dx in [-step, 0, step] {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    let cand = (center.0 + dx, center.1 + dy);
                    let cost = self.cost::<W, H, N>(&cur, sf, cand, tile);
                    if cost < best_cost {
                        best_cost = cost;
                        best = cand;
                    }
                }
            }
        }
        SmeBlockMv {
            rf: me.rf,
            mv: QpelMv::new((best.0 - anchor.0) as i16, (best.1 - anchor.1) as i16),
            cost: best_cost,
        }
    }

    /// Refine the blocks of `mode`, whose shape is `W × H`.
    #[inline(always)]
    fn refine_mode<const W: usize, const H: usize, const N: usize>(
        &self,
        mode: PartitionMode,
        (cx, cy): (usize, usize),
        me_mb: &MbMotion,
        tile: &mut Tile,
        out: &mut MbSubMotion,
    ) {
        debug_assert_eq!(mode.dims(), (W, H));
        for i in 0..mode.count() {
            let (ox, oy) = mode.offset(i);
            *out.block_mut(mode, i) =
                self.refine::<W, H, N>((cx + ox, cy + oy), me_mb.block(mode, i), tile);
        }
    }

    /// Refine all 41 partition blocks of macroblock `(mbx, mby)`.
    fn refine_mb(&self, me_mb: &MbMotion, mbx: usize, mby: usize, tile: &mut Tile) -> MbSubMotion {
        use PartitionMode::*;
        let mut out = MbSubMotion::default();
        let at = (mbx * MB_SIZE, mby * MB_SIZE);
        self.refine_mode::<16, 16, 16>(P16x16, at, me_mb, tile, &mut out);
        self.refine_mode::<16, 8, 8>(P16x8, at, me_mb, tile, &mut out);
        self.refine_mode::<8, 16, 8>(P8x16, at, me_mb, tile, &mut out);
        self.refine_mode::<8, 8, 4>(P8x8, at, me_mb, tile, &mut out);
        self.refine_mode::<8, 4, 2>(P8x4, at, me_mb, tile, &mut out);
        self.refine_mode::<4, 8, 2>(P4x8, at, me_mb, tile, &mut out);
        self.refine_mode::<4, 4, 1>(P4x4, at, me_mb, tile, &mut out);
        out
    }

    /// Refine the macroblocks `rows × cols`; `me` and `out` hold one entry
    /// per macroblock, in raster order.
    fn run(&self, me: &[MbMotion], rows: RowRange, cols: Range<usize>, out: &mut [MbSubMotion]) {
        let mut tile: Tile = [0; 256];
        let cells = rows
            .iter()
            .flat_map(|mby| cols.clone().map(move |mbx| (mbx, mby)));
        for ((me_mb, out), (mbx, mby)) in me.iter().zip(out).zip(cells) {
            *out = self.refine_mb(me_mb, mbx, mby, &mut tile);
        }
    }
}

/// Name of the primitive set the refinement runs on this host (`"sse2"` or
/// `"portable"`), for logs.
pub fn refine_isa_name() -> &'static str {
    if cfg!(target_arch = "x86_64") {
        "sse2"
    } else {
        "portable"
    }
}

/// SME over the macroblocks `rows × cols` on the primitives of `isa`.
fn refine_cells<I: RefineIsa>(
    isa: I,
    cf: &Plane<u8>,
    sfs: &[&SubpelFrame],
    me: &[MbMotion],
    rows: RowRange,
    cols: Range<usize>,
    out: &mut [MbSubMotion],
) {
    assert_eq!(
        out.len(),
        rows.len() * cols.len(),
        "output slice size mismatch"
    );
    assert_eq!(me.len(), out.len(), "ME input size mismatch");
    Refiner { isa, cf, sfs }.run(me, rows, cols, out)
}

/// Refine all 41 partition blocks of one macroblock.
pub fn sme_mb(
    cf: &Plane<u8>,
    sfs: &[&SubpelFrame],
    me_mb: &MbMotion,
    mbx: usize,
    mby: usize,
) -> MbSubMotion {
    let mut out = [MbSubMotion::default()];
    let rows = RowRange::new(mby, mby + 1);
    refine_cells(
        FastIsa,
        cf,
        sfs,
        std::slice::from_ref(me_mb),
        rows,
        mbx..mbx + 1,
        &mut out,
    );
    let [mb] = out;
    mb
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
    let cols = 0..cf.width() / MB_SIZE;
    refine_cells(FastIsa, cf, sfs, me_rows, rows, cols, out);
}

/// [`sme_rows`] on the [`Portable`] primitives: the definition the product
/// refinement is tested against; the encoder never runs it.
pub fn sme_rows_reference(
    cf: &Plane<u8>,
    sfs: &[&SubpelFrame],
    me_rows: &[MbMotion],
    rows: RowRange,
    out: &mut [MbSubMotion],
) {
    let cols = 0..cf.width() / MB_SIZE;
    refine_cells(Portable, cf, sfs, me_rows, rows, cols, out);
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
    use crate::types::{EncodeParams, SearchArea, ALL_PARTITION_MODES};

    #[test]
    fn refinement_never_worsens_cost() {
        let rf = Plane::from_fn(64, 64, |x, y| ((x * 37) ^ (y * 11)) as u8);
        let cf = Plane::from_fn(64, 64, |x, y| {
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
        let rf = Plane::from_fn(96, 48, |x, _| (x * 2) as u8);
        let sf = interpolate(&rf);
        // Build CF from the SF's own half-pel phase so an exact match exists.
        let cf = Plane::from_fn(96, 48, |x, y| sf.phase(2, 0).get(x, y));
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

    /// One macroblock refined on the reference's primitives and on the
    /// product's.
    fn both_families(
        cf: &Plane<u8>,
        sfs: &[&SubpelFrame],
        me: &MbMotion,
        mbx: usize,
        mby: usize,
    ) -> (MbSubMotion, MbSubMotion) {
        let tile = &mut [0; 256];
        let scalar = Refiner {
            isa: Portable,
            cf,
            sfs,
        };
        let fast = Refiner {
            isa: FastIsa,
            cf,
            sfs,
        };
        (
            scalar.refine_mb(me, mbx, mby, tile),
            fast.refine_mb(me, mbx, mby, tile),
        )
    }

    #[test]
    fn cost_at_integer_positions_matches_plain_sad() {
        let rf = Plane::from_fn(64, 64, |x, y| ((x * 3) ^ (y * 7)) as u8);
        let cf = Plane::from_fn(64, 64, |x, y| ((x * 5) ^ (y * 2)) as u8);
        let sf = interpolate(&rf);
        let direct: u32 = (0..16)
            .map(|row| crate::sad::row_sad(&cf.row(16 + row)[16..32], &rf.row(18 + row)[20..36]))
            .sum();
        let refiner = Refiner {
            isa: Portable,
            cf: &cf,
            sfs: &[&sf],
        };
        let cur = Portable.load::<16, 16, 16>(cf.as_slice(), 16 * cf.stride() + 16, cf.stride());
        let at = (16 * 4 + 16, 16 * 4 + 8);
        let via_sf = refiner.cost::<16, 16, 16>(&cur, &sf, at, &mut [0; 256]);
        assert_eq!(direct, via_sf);
    }

    #[test]
    fn flat_plane_keeps_every_block_at_its_me_vector() {
        // All 17 candidates of every block cost 0, edge-straddling ones
        // included (a one-MB-row frame): strict `<` in scan order must
        // leave each block where ME put it, on both primitive sets.
        let rf = Plane::from_fn(48, 16, |_, _| 90);
        let sf = interpolate(&rf);
        let mut me = MbMotion::default();
        for (i, mode) in ALL_PARTITION_MODES.into_iter().enumerate() {
            for b in 0..mode.count() {
                *me.block_mut(mode, b) = BlockMv {
                    rf: 0,
                    mv: crate::types::Mv::new(i as i16 - 3, b as i16 - 4),
                    cost: 0,
                };
            }
        }
        for mbx in 0..3 {
            let (scalar, fast) = both_families(&rf, &[&sf], &me, mbx, 0);
            assert_eq!(scalar, fast);
            for mode in ALL_PARTITION_MODES {
                for b in 0..mode.count() {
                    let want = SmeBlockMv {
                        rf: 0,
                        mv: me.block(mode, b).mv.to_qpel(),
                        cost: 0,
                    };
                    assert_eq!(*fast.block(mode, b), want, "mb {mbx} {mode:?}/{b}");
                }
            }
        }
    }

    #[test]
    fn families_agree_where_every_candidate_straddles_an_edge() {
        // One macroblock is the whole frame, ME vectors reach 8 outside.
        let rf = Plane::from_fn(16, 16, |x, y| ((x * 37) ^ (y * 11)) as u8);
        let cf = Plane::from_fn(16, 16, |x, y| ((x * 29 + 5) ^ (y * 13)) as u8);
        let params = EncodeParams {
            search_area: SearchArea(16),
            n_ref: 1,
            ..Default::default()
        };
        let sf = interpolate(&rf);
        let me = motion_estimate_mb(&cf, &[&rf], &params, 0, 0);
        let (scalar, fast) = both_families(&cf, &[&sf], &me, 0, 0);
        assert_eq!(scalar, fast);
        // And both equal the definition: per-sample SADs of the winner.
        for mode in ALL_PARTITION_MODES {
            let (w, h) = mode.dims();
            for b in 0..mode.count() {
                let (ox, oy) = mode.offset(b);
                let blk = fast.block(mode, b);
                let mut sad = 0;
                for (y, x) in (0..h).flat_map(|y| (0..w).map(move |x| (y, x))) {
                    let qx = (ox + x) as isize * 4 + blk.mv.x as isize;
                    let qy = (oy + y) as isize * 4 + blk.mv.y as isize;
                    sad += cf.get(ox + x, oy + y).abs_diff(sf.sample(qx, qy)) as u32;
                }
                assert_eq!(blk.cost, sad, "{mode:?}/{b}");
            }
        }
    }

    #[test]
    fn row_sliced_equals_whole() {
        let rf = Plane::from_fn(64, 80, |x, y| ((x * 31 + y * 17) % 253) as u8);
        let cf = Plane::from_fn(64, 80, |x, y| {
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
        let rf = Plane::from_fn(64, 64, |x, y| ((x * 9) ^ (y * 4)) as u8);
        let cf = Plane::from_fn(64, 64, |x, y| {
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
