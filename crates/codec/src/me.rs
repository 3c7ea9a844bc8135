//! Motion estimation: Full-Search Block-Matching (FSBM) over multiple
//! reference frames with all seven H.264/AVC partition modes.
//!
//! For every candidate displacement the sixteen 4×4 SADs of the macroblock
//! are computed once ([`SadGrid`]) and hierarchically aggregated
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
//! Two loops compute that same field. The reference,
//! [`motion_estimate_rows_reference`], is the definition: one candidate at
//! a time, grid → 41 sums → 41 compares. The product search, which every
//! other entry point runs, is **candidate-major**:
//! sixteen candidates — two half-batches of eight horizontally adjacent
//! ones — share every load, the grid cells and partition sums are
//! sixteen-lane vectors (one lane per candidate, one `vmpsadbw` per cell
//! row on AVX2), and each partition keeps a running minimum per lane that
//! is reduced once per macroblock and reference — see DESIGN §5n for why
//! the lanes cannot overflow and why the tie-break is unchanged.

use crate::kernels;
use crate::kernels::fast::{Portable, SearchIsa};
use crate::kernels::scalar::SadGrid;
use crate::par::Crew;
use crate::types::{EncodeParams, MbField, Mv, PartitionMode, TOTAL_PARTITION_BLOCKS};
use feves_video::geometry::{RowRange, MB_SIZE};
use feves_video::plane::Plane;
use std::ops::Range;

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
pub type MeField = MbField<MbMotion>;

/// Hierarchically aggregate a 4×4 [`SadGrid`] into the 41 partition SADs
/// (mode-major layout matching [`mode_base`]).
#[inline]
pub fn aggregate_partitions(grid: &SadGrid) -> [u32; TOTAL_PARTITION_BLOCKS] {
    let mut sums = Sums([0; TOTAL_PARTITION_BLOCKS]);
    aggregate(grid, &mut sums);
    sums.0
}

/// How [`aggregate`] adds two cells and where each block's SAD goes. A
/// trait rather than closures: its `#[inline(always)]` methods always
/// inline, where a closure left out of line would be compiled without the
/// search's `target_feature` and turn every intrinsic in it into a call.
trait Blocks<T> {
    fn add(&self, a: T, b: T) -> T;
    /// The SAD of block `k` (mode-major).
    fn emit(&mut self, k: usize, sad: T);
}

/// The 41 sums of one candidate.
struct Sums([u32; TOTAL_PARTITION_BLOCKS]);

impl Blocks<u32> for Sums {
    #[inline(always)]
    fn add(&self, a: u32, b: u32) -> u32 {
        a + b
    }

    #[inline(always)]
    fn emit(&mut self, k: usize, sad: u32) {
        self.0[k] = sad;
    }
}

/// The 25 additions behind [`aggregate_partitions`], over any cell type —
/// `u32` for one candidate, [`SearchIsa::Lanes`] for sixteen at once —
/// handing each block's SAD to `out` as it is formed.
#[inline(always)]
fn aggregate<T: Copy>(grid: &[T; 16], out: &mut impl Blocks<T>) {
    // 4x4: the cells themselves.
    for (k, &cell) in grid.iter().enumerate() {
        out.emit(25 + k, cell);
    }
    // 8x4 (two horizontal 4x4s), raster of 2 cols x 4 rows.
    let mut p8x4 = [grid[0]; 8];
    for (j, v) in p8x4.iter_mut().enumerate() {
        let gx = (j % 2) * 2;
        let gy = j / 2;
        *v = out.add(grid[gy * 4 + gx], grid[gy * 4 + gx + 1]);
        out.emit(9 + j, *v);
    }
    // 4x8 (two vertical 4x4s), raster of 4 cols x 2 rows.
    for j in 0..8 {
        let gx = j % 4;
        let gy = (j / 4) * 2;
        let sad = out.add(grid[gy * 4 + gx], grid[(gy + 1) * 4 + gx]);
        out.emit(17 + j, sad);
    }
    // 8x8 from two stacked 8x4s.
    let mut p8x8 = [grid[0]; 4];
    for (k, v) in p8x8.iter_mut().enumerate() {
        let col = k % 2;
        let row = (k / 2) * 2;
        *v = out.add(p8x4[row * 2 + col], p8x4[(row + 1) * 2 + col]);
        out.emit(5 + k, *v);
    }
    // 16x8 / 8x16 / 16x16 from 8x8 quadrants.
    let top = out.add(p8x8[0], p8x8[1]);
    let bottom = out.add(p8x8[2], p8x8[3]);
    out.emit(1, top);
    out.emit(2, bottom);
    let (left, right) = (out.add(p8x8[0], p8x8[2]), out.add(p8x8[1], p8x8[3]));
    out.emit(3, left);
    out.emit(4, right);
    let whole = out.add(top, bottom);
    out.emit(0, whole);
}

/// Append `n` samples of `src` starting at column `x0` to `buf`; columns
/// left or right of the row replicate its first or last sample.
fn push_clamped(buf: &mut Vec<u8>, src: &[u8], x0: isize, n: usize) {
    let w = src.len() as isize;
    let left = (-x0).clamp(0, n as isize) as usize;
    let right = (x0 + n as isize - w).clamp(0, n as isize) as usize;
    let mid = (x0 + left as isize).clamp(0, w) as usize;
    buf.extend(std::iter::repeat_n(src[0], left));
    buf.extend_from_slice(&src[mid..mid + n - left - right]);
    buf.extend(std::iter::repeat_n(src[src.len() - 1], right));
}

/// Running minima of the 41 blocks: per lane, the least cost seen and the
/// position of the half-batch that first reached it.
type Minima<L> = [(L, L); TOTAL_PARTITION_BLOCKS];

/// Sixteen candidates' block SADs into the running minima, each lane at its
/// half-batch's position in `pos`. With `valid` set, the lanes from
/// `valid[h]` on in half `h` lie past the search area.
struct Keep<'a, I: SearchIsa> {
    isa: I,
    minima: &'a mut Minima<I::Lanes>,
    pos: I::Lanes,
    valid: Option<[usize; 2]>,
}

impl<I: SearchIsa> Blocks<I::Lanes> for Keep<'_, I> {
    #[inline(always)]
    fn add(&self, a: I::Lanes, b: I::Lanes) -> I::Lanes {
        self.isa.add(a, b)
    }

    #[inline(always)]
    fn emit(&mut self, k: usize, sad: I::Lanes) {
        let sad = match self.valid {
            Some(valid) => past_the_area(self.isa, sad, valid),
            None => sad,
        };
        let (best, at) = &mut self.minima[k];
        self.isa.keep(best, at, sad, self.pos);
    }
}

/// Fold sixteen candidates into `minima`: lanes 0..8 are the half-batch
/// whose first candidate's block starts at `win[at[0]]`, at position
/// `pos[0]`, lanes 8..16 the one at `win[at[1]]`, `pos[1]`. Each block's
/// SAD goes straight from its sum into its minimum.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn keep_vector<I: SearchIsa>(
    isa: I,
    minima: &mut Minima<I::Lanes>,
    cur: &[[u8; 16]; 16],
    win: &[u8],
    stride: usize,
    at: [usize; 2],
    pos: [u16; 2],
    valid: [usize; 2],
) {
    let mut cells = [isa.lanes([0; 16]); 16];
    for (gy, rows) in cur.as_chunks::<4>().0.iter().enumerate() {
        let o = gy * 4 * stride;
        let row = isa.cell_row(win, [at[0] + o, at[1] + o], stride, rows);
        cells[gy * 4..gy * 4 + 4].copy_from_slice(&row);
    }
    let mut v = [pos[0]; 16];
    v[8..].fill(pos[1]);
    let pos = isa.lanes(v);
    let valid = (valid != [8, 8]).then_some(valid);
    aggregate(
        &cells,
        &mut Keep {
            isa,
            minima,
            pos,
            valid,
        },
    );
}

/// `cost` with the lanes past the search area at `u16::MAX`, where they
/// lose to every real SAD: a row's last half-batch when 2·range is not a
/// multiple of 8 (`validate` admits only powers of two from 8).
#[cold]
#[inline(never)]
fn past_the_area<I: SearchIsa>(isa: I, cost: I::Lanes, valid: [usize; 2]) -> I::Lanes {
    let mut v = isa.array(cost);
    v[..8][valid[0]..].fill(u16::MAX);
    v[8..][valid[1]..].fill(u16::MAX);
    isa.lanes(v)
}

/// The candidate-major loop for one macroblock against one reference.
///
/// `win` is the border-extended reference window from this macroblock's
/// first candidate `(−range, −range)` on. Candidates are visited `dy`-major
/// in *half-batches* of eight adjacent `dx`, two half-batches per vector of
/// sixteen lanes: side by side on one row when `16 | 2·range`, else each
/// with the next in scan order (at SA 8, two rows). Each of the 41 blocks
/// keeps, per lane, its least cost and the position of the half-batch that
/// first reached it ([`SearchIsa::keep`]: no branch, no horizontal
/// minimum); one [`SearchIsa::reduce`] per block then takes the least
/// cost, the earliest position, the lowest column — the reference loop's
/// first-wins order — and the strict `<` against `best` carries that across
/// references.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn search_mb_batched<I: SearchIsa>(
    isa: I,
    cur: &[[u8; 16]; 16],
    win: &[u8],
    stride: usize,
    range: i16,
    rf: u8,
    minima: &mut Minima<I::Lanes>,
    best: &mut MbMotion,
) {
    let n = 2 * range as usize;
    let halves = n.div_ceil(8);
    // A position is `row << shift | half`, rows counted from the first of
    // a pass; `pass` rows keep it below 2¹³, as `reduce` needs (one pass up
    // to SA 256, four at SA 512). `n` and `pass` are even, so every pass
    // has an even number of half-batches and the pairing below never runs
    // out.
    let shift = halves.next_power_of_two().trailing_zeros();
    let pass = (1usize << 13) >> shift;
    for y0 in (0..n).step_by(pass) {
        let y1 = n.min(y0 + pass);
        let pos = |(y, half): (usize, usize)| ((y - y0) << shift | half) as u16;
        minima.fill((isa.lanes([u16::MAX; 16]), isa.lanes([0; 16])));
        let off = |(y, half): (usize, usize)| y * stride + half * 8;
        if n.is_multiple_of(16) {
            for y in y0..y1 {
                for half in (0..halves).step_by(2) {
                    let a = off((y, half));
                    let at = [pos((y, half)), pos((y, half + 1))];
                    keep_vector(isa, minima, cur, win, stride, [a, a + 8], at, [8, 8]);
                }
            }
        } else {
            let next = |(y, half)| {
                if half + 1 < halves {
                    (y, half + 1)
                } else {
                    (y + 1, 0)
                }
            };
            let mut a = (y0, 0);
            while a.0 < y1 {
                let b = next(a);
                let valid = [a, b].map(|(_, half)| (n - half * 8).min(8));
                let (at, ps) = ([off(a), off(b)], [pos(a), pos(b)]);
                keep_vector(isa, minima, cur, win, stride, at, ps, valid);
                a = next(b);
            }
        }
        for (b, &(cost, at)) in best.blocks.iter_mut().zip(minima.iter()) {
            let (cost, at, column) = isa.reduce(cost, at);
            if u32::from(cost) < b.cost {
                let (y, half) = (
                    y0 + (at >> shift) as usize,
                    at as usize & ((1 << shift) - 1),
                );
                *b = BlockMv {
                    rf,
                    mv: Mv::new(
                        ((half * 8 + column) as i32 - range as i32) as i16,
                        (y as i32 - range as i32) as i16,
                    ),
                    cost: u32::from(cost),
                };
            }
        }
    }
}

/// Candidate-major FSBM over the macroblocks `rows × cols`.
///
/// Per reference, the part of the plane the call can reach is copied once
/// into a scratch window extended by `range` replicated columns and rows on
/// every side, so no candidate of the hot loop is "outside". The window
/// and the running minima live for this call only; the minima sit on the
/// heap so the compiler keeps them as 82 vectors of memory rather than
/// splitting them into values it then spills and copies every vector.
#[inline(always)]
fn search_batched<I: SearchIsa>(
    isa: I,
    cf: &Plane<u8>,
    rfs: &[&Plane<u8>],
    params: &EncodeParams,
    rows: RowRange,
    cols: Range<usize>,
    out: &mut [MbMotion],
) {
    let range = params.search_area.range();
    let n = 2 * range as usize;
    if n == 0 || out.is_empty() {
        return;
    }
    // Batches are 8 wide and each reads 24 bytes from its first candidate:
    // the widest read ends at (cols − 1)·16 + (⌈n/8⌉·8 − 8) + 24.
    let stride = cols.len() * MB_SIZE + n.next_multiple_of(8);
    let height = rows.len() * MB_SIZE + n - 1;
    let (x0, y0) = (
        (cols.start * MB_SIZE) as isize - range as isize,
        (rows.start * MB_SIZE) as isize - range as isize,
    );
    let mut win = Vec::with_capacity(stride * height);
    // Reset by every pass of `search_mb_batched`.
    let zero = isa.lanes([0; 16]);
    let mut minima = Box::new([(zero, zero); TOTAL_PARTITION_BLOCKS]);
    for (rf_idx, rf) in rfs.iter().enumerate().take(params.n_ref) {
        win.clear();
        for wy in 0..height as isize {
            let y = (y0 + wy).clamp(0, rf.height() as isize - 1) as usize;
            push_clamped(&mut win, rf.row(y), x0, stride);
        }
        // Last macroblock, last candidate row, last block row, last
        // half-batch.
        debug_assert!(
            (height - 1) * stride + (cols.len() - 1) * MB_SIZE + (n - 1) / 8 * 8 + 24 <= win.len()
        );
        for (i, mby) in rows.iter().enumerate() {
            for (j, mbx) in cols.clone().enumerate() {
                let cur: [[u8; 16]; 16] = core::array::from_fn(|r| {
                    cf.row(mby * MB_SIZE + r)[mbx * MB_SIZE..][..MB_SIZE]
                        .try_into()
                        .expect("16 samples")
                });
                let first = &win[i * MB_SIZE * stride + j * MB_SIZE..];
                let best = &mut out[i * cols.len() + j];
                let rf = rf_idx as u8;
                search_mb_batched(isa, &cur, first, stride, range, rf, &mut minima, best);
            }
        }
    }
}

/// [`search_batched`] compiled with AVX2 enabled, so the [`Avx2`]
/// primitives inline down to `vmpsadbw` and the running-minimum vectors.
///
/// [`Avx2`]: crate::kernels::fast::Avx2
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn search_avx2(
    isa: kernels::fast::Avx2,
    cf: &Plane<u8>,
    rfs: &[&Plane<u8>],
    params: &EncodeParams,
    rows: RowRange,
    cols: Range<usize>,
    out: &mut [MbMotion],
) {
    search_batched(isa, cf, rfs, params, rows, cols, out)
}

/// Name of the primitive set the search runs on this host (`"avx2"` or
/// `"portable"`), for logs.
pub fn search_isa_name() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if kernels::fast::Avx2::detect().is_some() {
        return "avx2";
    }
    "portable"
}

/// FSBM over the macroblocks `rows × cols`: [`search_batched`] on the best
/// primitive set this CPU has — detected here, once per call; there is no
/// switch for it.
fn search(
    cf: &Plane<u8>,
    rfs: &[&Plane<u8>],
    params: &EncodeParams,
    rows: RowRange,
    cols: Range<usize>,
    out: &mut [MbMotion],
) {
    debug_assert_eq!(out.len(), rows.len() * cols.len());
    out.fill(MbMotion::default());
    #[cfg(target_arch = "x86_64")]
    if let Some(isa) = kernels::fast::Avx2::detect() {
        // SAFETY: `isa` exists, so this CPU has the AVX2 the callee is
        // compiled for.
        return unsafe { search_avx2(isa, cf, rfs, params, rows, cols, out) };
    }
    search_batched(Portable, cf, rfs, params, rows, cols, out)
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
    let mut out = [MbMotion::default()];
    let rows = RowRange::new(mby, mby + 1);
    search(cf, rfs, params, rows, mbx..mbx + 1, &mut out);
    let [mb] = out;
    mb
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
    search(cf, rfs, params, rows, 0..mb_cols, out);
}

/// [`motion_estimate_rows`] by the reference loop: every candidate in `rf`
/// → `dy` → `dx` order, one [`SadGrid`] each. The definition the product
/// search is tested against; the encoder never runs it.
pub fn motion_estimate_rows_reference(
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
    let range = params.search_area.range();
    for (i, slot) in out.iter_mut().enumerate() {
        let mut best = MbMotion::default();
        let (cx, cy) = (i % mb_cols * MB_SIZE, (rows.start + i / mb_cols) * MB_SIZE);
        for (rf_idx, rf) in rfs.iter().enumerate().take(params.n_ref) {
            for dy in -range..range {
                let ry = cy as isize + dy as isize;
                for dx in -range..range {
                    let rx = cx as isize + dx as isize;
                    let grid = kernels::scalar::sad_grid_16x16(cf, cx, cy, rf, rx, ry);
                    let parts = aggregate_partitions(&grid);
                    let mv = Mv::new(dx, dy);
                    for (b, &cost) in best.blocks.iter_mut().zip(parts.iter()) {
                        // Strict `<` keeps the first candidate in scan order
                        // on ties → deterministic regardless of parallel
                        // split.
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
        *slot = best;
    }
}

/// [`motion_estimate_rows`] with the MB rows spread over the host's cores
/// ([`crate::par`]) — the "OpenMP across cores" axis of the paper's CPU
/// kernels — on a crew that lives for the one call.
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
    Crew::host().for_each_row(out.chunks_mut(mb_cols), |i, row_out| {
        let mby = rows.start + i;
        motion_estimate_rows(cf, rfs, params, RowRange::new(mby, mby + 1), row_out);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{SearchArea, ALL_PARTITION_MODES};

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
                let naive = crate::kernels::scalar::tests::grid_partition_sad(&grid, ox, oy, w, h);
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
        let rf = Plane::from_fn(64, 64, |x, y| ((x * 37) ^ (y * 11)) as u8);
        let cf = Plane::from_fn(64, 64, |x, y| {
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
        let rf = Plane::from_fn(48, 48, |x, y| ((x + 2 * y) % 256) as u8);
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
        let rf_far = Plane::from_fn(64, 64, |x, y| ((x * 37) ^ (y * 11)) as u8);
        let rf_near = Plane::from_fn(64, 64, |_, _| 0); // useless reference
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
        let rf0 = Plane::from_fn(64, 64, |_, _| 0);
        let rf1 = Plane::from_fn(64, 64, |x, y| ((x * 37) ^ (y * 11)) as u8);
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
        let rf = Plane::from_fn(64, 80, |x, y| ((x * 3 + y * 7) % 251) as u8);
        let cf = Plane::from_fn(64, 80, |x, y| {
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
        let rf = Plane::from_fn(64, 64, |x, y| ((x * 5) ^ (y * 3)) as u8);
        let cf = Plane::from_fn(64, 64, |x, y| rf.get_clamped(x as isize + 2, y as isize));
        let params = small_params();
        let mut seq = vec![MbMotion::default(); 16];
        let mut par = vec![MbMotion::default(); 16];
        motion_estimate_rows(&cf, &[&rf], &params, RowRange::new(0, 4), &mut seq);
        motion_estimate_rows_parallel(&cf, &[&rf], &params, RowRange::new(0, 4), &mut par);
        assert_eq!(seq, par);
    }

    // ---- the three search loops against each other (direct calls) ----

    /// Whole-frame motion field from the per-candidate loop.
    fn scalar_field(cf: &Plane<u8>, rfs: &[&Plane<u8>], params: &EncodeParams) -> Vec<MbMotion> {
        let (mb_cols, mb_rows) = (cf.width() / MB_SIZE, cf.height() / MB_SIZE);
        let mut field = vec![MbMotion::default(); mb_cols * mb_rows];
        motion_estimate_rows_reference(cf, rfs, params, RowRange::new(0, mb_rows), &mut field);
        field
    }

    /// Assert that the portable batches and this host's product search both
    /// reproduce the per-candidate loop; returns the field.
    fn assert_loops_agree(
        cf: &Plane<u8>,
        rfs: &[&Plane<u8>],
        params: &EncodeParams,
        what: &str,
    ) -> Vec<MbMotion> {
        let (mb_cols, mb_rows) = (cf.width() / MB_SIZE, cf.height() / MB_SIZE);
        let rows = RowRange::new(0, mb_rows);
        let want = scalar_field(cf, rfs, params);
        let mut portable = vec![MbMotion::default(); want.len()];
        search_batched(Portable, cf, rfs, params, rows, 0..mb_cols, &mut portable);
        assert!(want == portable, "{what}: portable batches differ");
        let mut host = vec![MbMotion::default(); want.len()];
        search(cf, rfs, params, rows, 0..mb_cols, &mut host);
        assert!(want == host, "{what}: {} batches differ", search_isa_name());
        want
    }

    fn noise_plane(w: usize, h: usize, seed: u64) -> Plane<u8> {
        let mut s = seed | 1;
        Plane::from_fn(w, h, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 56) as u8
        })
    }

    fn sa_params(sa: u16, n_ref: usize) -> EncodeParams {
        EncodeParams {
            search_area: SearchArea(sa),
            n_ref,
            ..Default::default()
        }
    }

    #[test]
    fn batched_equals_scalar_on_every_edge_and_corner() {
        // 16×16: every candidate but (0, 0) is clamped. The others put a
        // macroblock on each edge, each corner and (48×48) the interior.
        // SA 8 pairs two candidate rows per vector, 16 fills one row and 32
        // and 64 several; SA 64 reaches past the far side of every plane.
        for (w, h) in [(16, 16), (32, 16), (16, 48), (48, 48), (64, 32)] {
            let cf = noise_plane(w, h, 7);
            let rf = noise_plane(w, h, 1234);
            for sa in [8, 16, 32, 64] {
                assert_loops_agree(&cf, &[&rf], &sa_params(sa, 1), &format!("{w}x{h} SA {sa}"));
            }
        }
    }

    #[test]
    fn batched_equals_scalar_when_the_window_is_not_a_multiple_of_eight() {
        let cf = noise_plane(48, 32, 3);
        let rf = noise_plane(48, 32, 99);
        // SA 12: a half-batch of 8 then one of 4 valid lanes. SA 2 and 6:
        // one partial half-batch per row, two rows per vector.
        // SA 1: no candidate at all, every block stays at its default.
        for sa in [12, 6, 2, 1] {
            assert_loops_agree(&cf, &[&rf], &sa_params(sa, 1), &format!("SA {sa}"));
        }
        // The tail must be searched, not dropped: plant the only exact
        // match in the last column of the SA 12 window, dx = +5.
        let cf = Plane::from_fn(48, 32, |x, y| rf.get_clamped(x as isize + 5, y as isize));
        let field = assert_loops_agree(&cf, &[&rf], &sa_params(12, 1), "planted dx = 5");
        let b = field[1].block(PartitionMode::P16x16, 0);
        assert_eq!((b.mv, b.cost), (Mv::new(5, 0), 0));
    }

    #[test]
    fn all_candidates_tie_on_a_flat_plane() {
        // 1 024 candidates × 2 references all cost 0: first in scan order
        // wins, for every one of the 41 blocks.
        let flat = Plane::from_fn(48, 48, |_, _| 90);
        let field = assert_loops_agree(&flat, &[&flat, &flat], &sa_params(32, 2), "flat");
        for mb in &field {
            for b in mb.all_blocks() {
                assert_eq!((b.rf, b.mv, b.cost), (0, Mv::new(-16, -16), 0));
            }
        }
    }

    #[test]
    fn identical_references_tie_toward_the_first() {
        let rf = noise_plane(48, 48, 5);
        let cf = noise_plane(48, 48, 6);
        let field = assert_loops_agree(&cf, &[&rf, &rf], &sa_params(16, 2), "twin refs");
        assert!(field
            .iter()
            .flat_map(|mb| mb.all_blocks())
            .all(|b| b.rf == 0));
    }

    #[test]
    fn saturated_lanes_do_not_overflow() {
        // Black against white: every candidate of every batch is 65 280 for
        // the 16×16 block and 4 080 per 4×4 cell — the largest a lane holds.
        let black = Plane::from_fn(32, 32, |_, _| 0);
        let white = Plane::from_fn(32, 32, |_, _| 255);
        let field = assert_loops_agree(&black, &[&white], &sa_params(16, 1), "0 vs 255");
        for mb in &field {
            let b = mb.block(PartitionMode::P16x16, 0);
            assert_eq!((b.mv, b.cost), (Mv::new(-8, -8), 255 * 256));
            assert_eq!(mb.block(PartitionMode::P4x4, 15).cost, 255 * 16);
        }
        // Checkerboards alternate 0 and 65 280 from one lane to the next.
        let a = Plane::from_fn(32, 32, |x, y| if (x + y) % 2 == 0 { 0 } else { 255 });
        let b = Plane::from_fn(32, 32, |x, y| if (x + y) % 2 == 0 { 255 } else { 0 });
        assert_loops_agree(&a, &[&b], &sa_params(16, 1), "checkerboards");
    }

    #[test]
    fn a_winner_past_scan_position_65_535_is_found() {
        // SA 512 — the largest `validate` admits — from the top macroblock
        // of a 16 × 320 plane: 262 144 candidates, and the only exact match,
        // dy = +150, is number (150 + 256) · 512 + 256 = 208 128 in scan
        // order, past what a `u16` scan index holds. Checked directly (the
        // per-candidate loop would take a debug build minutes).
        let rf = noise_plane(16, 320, 77);
        let cf = Plane::from_fn(16, 320, |x, y| rf.get_clamped(x as isize, y as isize + 150));
        let params = sa_params(512, 1);
        let rows = RowRange::new(0, 1);
        let mut portable = [MbMotion::default()];
        search_batched(Portable, &cf, &[&rf], &params, rows, 0..1, &mut portable);
        let mut host = [MbMotion::default()];
        search(&cf, &[&rf], &params, rows, 0..1, &mut host);
        for (field, isa) in [(&portable, "portable"), (&host, search_isa_name())] {
            for b in field[0].all_blocks() {
                assert_eq!((b.rf, b.mv, b.cost), (0, Mv::new(0, 150), 0), "{isa}");
            }
        }
    }

    #[test]
    fn single_mb_entry_equals_its_cell_of_the_frame() {
        let cf = noise_plane(64, 48, 11);
        let rf = noise_plane(64, 48, 12);
        let params = sa_params(16, 1);
        let mut whole = vec![MbMotion::default(); 12];
        motion_estimate_rows(&cf, &[&rf], &params, RowRange::new(0, 3), &mut whole);
        for (i, want) in whole.iter().enumerate() {
            let got = motion_estimate_mb(&cf, &[&rf], &params, i % 4, i / 4);
            assert!(*want == got, "mb {i}");
        }
    }

    #[test]
    fn push_clamped_replicates_the_border() {
        let src: Vec<u8> = (10..20).collect();
        let p = Plane::from_vec(src.clone(), 10, 1);
        for x0 in -25..25isize {
            for n in 0..30usize {
                let mut got = vec![0xEE];
                push_clamped(&mut got, &src, x0, n);
                let want: Vec<u8> = (0..n as isize).map(|j| p.get_clamped(x0 + j, 0)).collect();
                assert_eq!(got[1..], want[..], "x0 {x0} n {n}");
            }
        }
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
