//! Sub-pixel motion estimation (the paper's SME module).
//!
//! Refines the full-pel motion vectors produced by ME on the sub-pixel
//! interpolated frame (SF): a half-pel refinement step (±½ around the ME
//! vector) followed by a quarter-pel step (±¼ around the half-pel winner) —
//! the standard two-stage refinement of the JM encoder. Like ME, the result
//! for a macroblock depends only on the CF, the SFs and that macroblock's ME
//! output, so row-wise distribution across devices is result-invariant.
//!
//! There is one refinement walk, monomorphised over the seven partition
//! shapes and over the primitives of [`RefineIsa`]: the current block is
//! packed into 16-byte rows once, each candidate is packed the same way
//! and compared. Every candidate of a partition whose full-pel start is
//! `(X, Y)` reads the four stored phases (G, b, h, j) at full-pel columns
//! `X − 1 ..= X + W` and rows `Y − 1 ..= Y + H`: the start and its
//! half-pel ring are stored phases, and each quarter-pel candidate is the
//! `avg` of two of them. The product checks that window once, as a view
//! into the planes or — across the right or bottom edge — a copy that
//! repeats the edge (`SubpelFrame::window`), and streams it: one pass
//! over the packed rows with nine running SADs for the half-pel ring, one
//! with eight for the quarter-pel ring around its winner. No candidate
//! block is held whole. A start in the frame's first column or row is the
//! exception: a candidate left of or above the frame clamps before it
//! averages, so there every candidate goes through [`SubpelFrame::block`]
//! instead. The product runs on `psadbw` / `pavgb`;
//! [`sme_rows_reference`] fetches every candidate through `block` on
//! [`Portable`]: the definition the product is tested against.

use crate::interp::{SubpelFrame, Tile, WindowTile, WINDOW};
#[cfg(not(target_arch = "x86_64"))]
use crate::kernels::fast::Portable as FastIsa;
#[cfg(target_arch = "x86_64")]
use crate::kernels::fast::Sse2 as FastIsa;
use crate::kernels::fast::{Portable, RefineIsa};
use crate::me::{mode_base, BlockMv, MbMotion};
use crate::par::Crew;
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
    /// Fetch every candidate through [`SubpelFrame::block`] (the
    /// definition) rather than streaming them from a window.
    per_candidate: bool,
}

/// What a rows call fetches into: a candidate block across an edge
/// ([`Refiner::walk_each`]) and a window across the right or bottom edge
/// ([`Refiner::walk_streamed`]).
struct Tiles {
    tile: Tile,
    window: WindowTile,
}

/// The eight neighbours of a refinement ring, in `dy → dx` order, one
/// step apart.
const RING: [(i32, i32); 8] = [
    (-1, -1),
    (0, -1),
    (1, -1),
    (-1, 0),
    (1, 0),
    (-1, 1),
    (0, 1),
    (1, 1),
];

/// The start and its half-pel ring in walk order, in half-pel steps.
const HALF_STEPS: [(i32, i32); 9] = {
    let mut steps = [(0, 0); 9];
    let mut k = 0;
    while k < 8 {
        steps[k + 1] = RING[k];
        k += 1;
    }
    steps
};

/// Where a stored sample the walk reads sits in a partition's [`Window`]:
/// its plane (G, b, h, j) and its full-pel column and row there, each
/// `0..=2`. The position `s` half-pel steps from the full-pel start,
/// `s ∈ [−2, 2]²`, is the full-pel sample `(s + 2) >> 1` of phase
/// `2·(s & 1)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Source {
    plane: usize,
    at: (usize, usize),
}

impl Source {
    const fn new((sx, sy): (i32, i32)) -> Self {
        Source {
            plane: (((sy & 1) << 1) | (sx & 1)) as usize,
            at: (((sx + 2) >> 1) as usize, ((sy + 2) >> 1) as usize),
        }
    }
}

/// The stored block of each half-pel candidate, in walk order.
const HALF_RING: [Source; 9] = {
    let mut ring = [Source::new((0, 0)); 9];
    let mut k = 0;
    while k < 9 {
        ring[k] = Source::new(HALF_STEPS[k]);
        k += 1;
    }
    ring
};

/// For each half-pel winner (walk order), the two stored blocks each
/// quarter-pel candidate around it averages, in [`RING`] order — derived
/// from [`SubpelFrame`]'s source table at compile time. The start is
/// full-pel, so the phases are the offsets' own, and every source is
/// within two half-pel steps of it.
const QUARTER_RING: [[[Source; 2]; 8]; 9] = {
    let mut rings = [[[Source::new((0, 0)); 2]; 8]; 9];
    let mut k = 0;
    while k < 9 {
        let (wx, wy) = HALF_STEPS[k];
        let mut c = 0;
        while c < 8 {
            let (dx, dy) = RING[c];
            let pair = SubpelFrame::sources(2 * wx + dx, 2 * wy + dy);
            // Every source is stored, so its position is even.
            rings[k][c] = [
                Source::new((pair[0].0 / 2, pair[0].1 / 2)),
                Source::new((pair[1].0 / 2, pair[1].1 / 2)),
            ];
            c += 1;
        }
        k += 1;
    }
    rings
};

/// The stored samples one partition's walk reads: the full-pel columns
/// `X − 1 ..= X + W` and rows `Y − 1 ..= Y + H` of G, b, h and j around
/// its full-pel start `(X, Y)`, each plane's slice starting at
/// `(X − 1, Y − 1)`. [`Self::new`] checks once that the slices hold them
/// all; every candidate row is then read without a further check.
struct Window<'a, const W: usize, const H: usize> {
    planes: [&'a [u8]; 4],
    stride: usize,
}

impl<'a, const W: usize, const H: usize> Window<'a, W, H> {
    /// # Panics
    /// When a slice is shorter than `(H + 1)·stride + W + 2`, in every
    /// build profile — the check the unchecked row reads rest on.
    #[inline(always)]
    fn new((planes, stride): ([&'a [u8]; 4], usize)) -> Self {
        let end = (H + 1).saturating_mul(stride).saturating_add(W + 2);
        for plane in planes {
            assert!(
                end <= plane.len(),
                "{W}x{H} window (stride {stride}) leaves a slice of {}",
                plane.len()
            );
        }
        Window { planes, stride }
    }

    /// Packed row `i` of the `W × H` block whose first sample is `s`.
    #[inline(always)]
    fn row<I: RefineIsa>(&self, isa: I, s: Source, i: usize) -> I::Row {
        assert!(i < W * H / 16 && s.at.0 <= 2 && s.at.1 <= 2);
        let off = s.at.1 * self.stride + s.at.0;
        // SAFETY: packed row `i < W·H/16` ends at block row `r <= H − 1`,
        // so its last sample is at `off + r·stride + W − 1 <= (H + 1)·stride
        // + W + 1`, inside the slice by `Self::new`'s check.
        unsafe { isa.row::<W>(self.planes[s.plane], off, self.stride, i) }
    }
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
        let blk = sf.block(qx, qy, W, H, tile);
        let cand = self.isa.load::<W, H, N>(blk.data, blk.offset, blk.stride);
        self.isa.sad(cur, &cand)
    }

    /// The two-stage walk (see [`Self::refine`]) with every candidate
    /// fetched whole by [`SubpelFrame::block`]: the definition.
    #[inline(always)]
    fn walk_each<const W: usize, const H: usize, const N: usize>(
        &self,
        cur: &[I::Row; N],
        sf: &SubpelFrame,
        start: (i32, i32),
        tile: &mut Tile,
    ) -> ((i32, i32), u32) {
        let mut best = start;
        let mut best_cost = self.cost::<W, H, N>(cur, sf, best, tile);
        for step in [2, 1] {
            let center = best;
            for (dx, dy) in RING {
                let cand = (center.0 + dx * step, center.1 + dy * step);
                let cost = self.cost::<W, H, N>(cur, sf, cand, tile);
                if cost < best_cost {
                    best_cost = cost;
                    best = cand;
                }
            }
        }
        (best, best_cost)
    }

    /// The SADs of `M` candidates against `cur`, streamed: packed row `i`
    /// of candidate `k` is `cand(k, i)`, and each candidate keeps a running
    /// sum, so no candidate block is ever held whole.
    #[inline(always)]
    fn sads<const N: usize, const M: usize>(
        &self,
        cur: &[I::Row; N],
        cand: impl Fn(usize, usize) -> I::Row,
    ) -> [u32; M] {
        let isa = self.isa;
        let mut sums = [isa.zero(); M];
        for (i, &row) in cur.iter().enumerate() {
            for (k, sum) in sums.iter_mut().enumerate() {
                *sum = isa.sad_row(*sum, row, cand(k, i));
            }
        }
        let mut costs = [0; M];
        for (cost, sum) in costs.iter_mut().zip(sums) {
            *cost = isa.total(sum);
        }
        costs
    }

    /// The quarter-pel ring around half-pel winner `K` (walk order): each
    /// candidate the `avg` of its two [`QUARTER_RING`] sources.
    #[inline(always)]
    fn quarter<const W: usize, const H: usize, const N: usize, const K: usize>(
        &self,
        cur: &[I::Row; N],
        win: &Window<'_, W, H>,
    ) -> [u32; 8] {
        let ring = const { QUARTER_RING[K] };
        let isa = self.isa;
        self.sads(cur, |c, i| {
            let [a, b] = ring[c];
            isa.avg(win.row(isa, a, i), win.row(isa, b, i))
        })
    }

    /// The same walk from one [`Window`] around the full-pel start: the
    /// start and its half-pel ring are stored phases (G, b, h, j), so their
    /// nine SADs are one pass over the window's rows; each quarter-pel
    /// candidate is the `avg` of two stored blocks within two half-pel
    /// steps of the start ([`QUARTER_RING`]), so their eight SADs are a
    /// second pass. Exact only when the full-pel start `(X, Y)` has
    /// `X ≥ 1` and `Y ≥ 1`: then no candidate's full-pel position is left
    /// of or above the frame, where a quarter-pel sample clamps before it
    /// averages.
    #[inline(always)]
    fn walk_streamed<const W: usize, const H: usize, const N: usize>(
        &self,
        cur: &[I::Row; N],
        win: &Window<'_, W, H>,
        start: (i32, i32),
    ) -> ((i32, i32), u32) {
        debug_assert!(
            start.0 & 3 == 0 && start.1 & 3 == 0,
            "ME starts are full-pel"
        );
        let isa = self.isa;
        let half: [u32; 9] = self.sads(cur, |k, i| win.row(isa, HALF_RING[k], i));
        let mut best = 0;
        for (k, &cost) in half.iter().enumerate().skip(1) {
            if cost < half[best] {
                best = k;
            }
        }
        let quarter = match best {
            0 => self.quarter::<W, H, N, 0>(cur, win),
            1 => self.quarter::<W, H, N, 1>(cur, win),
            2 => self.quarter::<W, H, N, 2>(cur, win),
            3 => self.quarter::<W, H, N, 3>(cur, win),
            4 => self.quarter::<W, H, N, 4>(cur, win),
            5 => self.quarter::<W, H, N, 5>(cur, win),
            6 => self.quarter::<W, H, N, 6>(cur, win),
            7 => self.quarter::<W, H, N, 7>(cur, win),
            _ => self.quarter::<W, H, N, 8>(cur, win),
        };
        let (wx, wy) = HALF_STEPS[best];
        let center = (start.0 + 2 * wx, start.1 + 2 * wy);
        let (mut winner, mut best_cost) = (center, half[best]);
        for ((dx, dy), cost) in RING.into_iter().zip(quarter) {
            if cost < best_cost {
                best_cost = cost;
                winner = (center.0 + dx, center.1 + dy);
            }
        }
        (winner, best_cost)
    }

    /// Two-stage (half- then quarter-pel) refinement of the `W × H` block
    /// at `(bx, by)` around its ME match: the start position, then the
    /// eight neighbours at ±½ of it, then the eight at ±¼ of the half-pel
    /// winner, each ring in `dy → dx` order; strict `<` keeps the earliest
    /// of equal costs. The product streams the candidates from one window
    /// ([`Self::walk_streamed`]) wherever that is exact.
    fn refine<const W: usize, const H: usize, const N: usize>(
        &self,
        (bx, by): (usize, usize),
        me: &BlockMv,
        tiles: &mut Tiles,
    ) -> SmeBlockMv {
        let cf = self.cf;
        let cur = self
            .isa
            .load::<W, H, N>(cf.as_slice(), by * cf.stride() + bx, cf.stride());
        let sf = self.sfs[me.rf as usize];
        let anchor = (bx as i32 * 4, by as i32 * 4);
        let mv = me.mv.to_qpel();
        let start = (anchor.0 + mv.x as i32, anchor.1 + mv.y as i32);
        let (best, cost) = if self.per_candidate || start.0 < 4 || start.1 < 4 {
            self.walk_each::<W, H, N>(&cur, sf, start, &mut tiles.tile)
        } else {
            // The window's first sample is `(X − 1, Y − 1)`, both ≥ 0.
            let first = ((start.0 >> 2) as usize - 1, (start.1 >> 2) as usize - 1);
            let win = Window::new(sf.window(first, W + 2, H + 2, &mut tiles.window));
            self.walk_streamed::<W, H, N>(&cur, &win, start)
        };
        SmeBlockMv {
            rf: me.rf,
            mv: QpelMv::new((best.0 - anchor.0) as i16, (best.1 - anchor.1) as i16),
            cost,
        }
    }

    /// Refine the blocks of `mode`, whose shape is `W × H`.
    #[inline(always)]
    fn refine_mode<const W: usize, const H: usize, const N: usize>(
        &self,
        mode: PartitionMode,
        (cx, cy): (usize, usize),
        me_mb: &MbMotion,
        tiles: &mut Tiles,
        out: &mut MbSubMotion,
    ) {
        debug_assert_eq!(mode.dims(), (W, H));
        for i in 0..mode.count() {
            let (ox, oy) = mode.offset(i);
            *out.block_mut(mode, i) =
                self.refine::<W, H, N>((cx + ox, cy + oy), me_mb.block(mode, i), tiles);
        }
    }

    /// Refine all 41 partition blocks of macroblock `(mbx, mby)`.
    fn refine_mb(
        &self,
        me_mb: &MbMotion,
        mbx: usize,
        mby: usize,
        tiles: &mut Tiles,
    ) -> MbSubMotion {
        use PartitionMode::*;
        let mut out = MbSubMotion::default();
        let at = (mbx * MB_SIZE, mby * MB_SIZE);
        self.refine_mode::<16, 16, 16>(P16x16, at, me_mb, tiles, &mut out);
        self.refine_mode::<16, 8, 8>(P16x8, at, me_mb, tiles, &mut out);
        self.refine_mode::<8, 16, 8>(P8x16, at, me_mb, tiles, &mut out);
        self.refine_mode::<8, 8, 4>(P8x8, at, me_mb, tiles, &mut out);
        self.refine_mode::<8, 4, 2>(P8x4, at, me_mb, tiles, &mut out);
        self.refine_mode::<4, 8, 2>(P4x8, at, me_mb, tiles, &mut out);
        self.refine_mode::<4, 4, 1>(P4x4, at, me_mb, tiles, &mut out);
        out
    }

    /// Refine the macroblocks `rows × cols`; `me` and `out` hold one entry
    /// per macroblock, in raster order.
    fn run(&self, me: &[MbMotion], rows: RowRange, cols: Range<usize>, out: &mut [MbSubMotion]) {
        assert_eq!(
            out.len(),
            rows.len() * cols.len(),
            "output slice size mismatch"
        );
        assert_eq!(me.len(), out.len(), "ME input size mismatch");
        let mut tiles = Tiles {
            tile: [0; 256],
            window: [[0; WINDOW * WINDOW]; 4],
        };
        let cells = rows
            .iter()
            .flat_map(|mby| cols.clone().map(move |mbx| (mbx, mby)));
        for ((me_mb, out), (mbx, mby)) in me.iter().zip(out).zip(cells) {
            *out = self.refine_mb(me_mb, mbx, mby, &mut tiles);
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
    let refiner = Refiner {
        isa: FastIsa,
        cf,
        sfs,
        per_candidate: false,
    };
    refiner.run(std::slice::from_ref(me_mb), rows, mbx..mbx + 1, &mut out);
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
    let refiner = Refiner {
        isa: FastIsa,
        cf,
        sfs,
        per_candidate: false,
    };
    refiner.run(me_rows, rows, cols, out);
}

/// [`sme_rows`] with every candidate fetched through
/// [`SubpelFrame::block`], on the [`Portable`] primitives: the definition
/// the product refinement is tested against; the encoder never runs it.
pub fn sme_rows_reference(
    cf: &Plane<u8>,
    sfs: &[&SubpelFrame],
    me_rows: &[MbMotion],
    rows: RowRange,
    out: &mut [MbSubMotion],
) {
    let cols = 0..cf.width() / MB_SIZE;
    let refiner = Refiner {
        isa: Portable,
        cf,
        sfs,
        per_candidate: true,
    };
    refiner.run(me_rows, rows, cols, out);
}

/// [`sme_rows`] with the MB rows spread over the host's cores
/// ([`crate::par`]), on a crew that lives for the one call.
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
    Crew::host().for_each_row(items, |i, (row_out, row_me)| {
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

    /// One macroblock refined by the reference (every candidate through
    /// `block`, on `Portable`) and by the product; the product's streamed
    /// form on `Portable` must agree too.
    fn both_families(
        cf: &Plane<u8>,
        sfs: &[&SubpelFrame],
        me: &MbMotion,
        mbx: usize,
        mby: usize,
    ) -> (MbSubMotion, MbSubMotion) {
        let tiles = &mut Tiles {
            tile: [0; 256],
            window: [[0; WINDOW * WINDOW]; 4],
        };
        let refiner = |per_candidate| Refiner {
            isa: Portable,
            cf,
            sfs,
            per_candidate,
        };
        let fast = Refiner {
            isa: FastIsa,
            cf,
            sfs,
            per_candidate: false,
        };
        let reference = refiner(true).refine_mb(me, mbx, mby, tiles);
        let streamed = refiner(false).refine_mb(me, mbx, mby, tiles);
        assert_eq!(reference, streamed, "streamed on Portable");
        (reference, fast.refine_mb(me, mbx, mby, tiles))
    }

    #[test]
    fn a_quarter_ring_reads_at_most_three_blocks_beyond_the_half_pel_ring() {
        let beyond = |k: usize| {
            let mut seen: Vec<Source> = Vec::new();
            for s in QUARTER_RING[k].as_flattened() {
                if !HALF_RING.contains(s) && !seen.contains(s) {
                    seen.push(*s);
                }
            }
            seen.len()
        };
        // Walk order: the full-pel start, then the ring; `b` / `h` winners
        // are its edges, `j` winners its corners.
        assert_eq!(beyond(0), 0);
        assert_eq!([2, 4, 5, 7].map(beyond), [3; 4]);
        assert_eq!([1, 3, 6, 8].map(beyond), [2; 4]);
    }

    #[test]
    fn every_source_is_the_stored_sample_at_its_window_position() {
        // A source names plane `2·(sy & 1) + (sx & 1)` at full-pel
        // `(s + 2) >> 1` from the window's corner: the stored phase
        // `(2·(sx & 1), 2·(sy & 1))` of `(X − 1, Y − 1) + at`, which is
        // quarter-pel `4X + 2·sx` (the same for y).
        for sy in -2..=2 {
            for sx in -2..=2 {
                let s = Source::new((sx, sy));
                let (qx, qy) = (4 * (s.at.0 as i32 - 1), 4 * (s.at.1 as i32 - 1));
                let phase = (2 * (s.plane as i32 & 1), s.plane as i32 & 2);
                assert_eq!((qx + phase.0, qy + phase.1), (2 * sx, 2 * sy), "{s:?}");
            }
        }
    }

    #[test]
    fn cost_at_integer_positions_matches_plain_sad() {
        let rf = Plane::from_fn(64, 64, |x, y| ((x * 3) ^ (y * 7)) as u8);
        let cf = Plane::from_fn(64, 64, |x, y| ((x * 5) ^ (y * 2)) as u8);
        let sf = interpolate(&rf);
        let direct: u32 = (0..16)
            .map(|row| {
                crate::kernels::scalar::row_sad(
                    &cf.row(16 + row)[16..32],
                    &rf.row(18 + row)[20..36],
                )
            })
            .sum();
        let refiner = Refiner {
            isa: Portable,
            cf: &cf,
            sfs: &[&sf],
            per_candidate: true,
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
