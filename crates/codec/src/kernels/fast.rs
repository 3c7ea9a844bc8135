//! Fast kernels.
//!
//! Every function here is bit-exact against its [`super::scalar`] twin —
//! proven by the differential tests — the only difference is throughput.
//! Three techniques, chosen per kernel by what measured fastest:
//!
//! * The SME refinement and ME search primitives: `std::arch` intrinsics
//!   on x86-64 — packed-block `psadbw` and `pavgb` ([`Sse2`], the
//!   baseline, so nothing is detected) and sixteen-lane `vmpsadbw` with
//!   running per-lane minima ([`Avx2`], detected at run time) — with a
//!   portable definition of each beside it ([`Portable`]) for every other
//!   host, which is also what the reference `sme::sme_rows_reference` runs.
//! * The deblocking line filter: the sixteen sample lines that cross one
//!   macroblock edge at once in SSE2 `i16` lanes ([`Sse2`]), against one
//!   line at a time ([`Portable`], the definition and
//!   `dbl::deblock_frame_reference`).
//! * Interpolation: the border-clamped source reads are hoisted into padded
//!   rows once per band (the scalar path calls `get_clamped` per pixel),
//!   the 6-tap filters run over contiguous slices the compiler's
//!   auto-vectorizer lowers to packed SIMD, and only the four stored phases
//!   are written.

use super::{avg, clip8, tap6};
use feves_video::plane::{Plane, PlaneBandMut};

// ---------------------------------------------------------------------------
// Refinement primitives (SME)
// ---------------------------------------------------------------------------

/// What the sub-pel refinement ([`crate::sme`]) is built from, over
/// **packed** rows: a `W × H` partition is `N = W·H / 16` rows of sixteen
/// bytes — one block row per packed row at width 16, two at width 8, four
/// at width 4 — so every byte of every `psadbw` is a sample and a 4×4 SAD
/// is one instruction.
///
/// The primitives work one packed row at a time, so a caller can stream a
/// block's rows through registers and keep one running SAD per candidate
/// ([`Self::row`], [`Self::sad_row`], [`Self::avg`]); [`Self::load`] and
/// [`Self::sad`] are their whole-block forms.
///
/// [`Portable`] is the definition (and what `sme::sme_rows_reference` runs);
/// [`Sse2`] is the same on `movd`/`movq`/`movdqu`, `psadbw` and `pavgb`.
/// The refinement body is written once against this trait.
pub trait RefineIsa: Copy {
    /// Sixteen packed samples.
    type Row: Copy;

    /// A running SAD.
    type Sum: Copy;

    /// Packed row `i` of the `W`-wide block whose first sample is
    /// `src[off]` and whose rows are `stride` apart: its block rows
    /// `i·16/W ..= (i + 1)·16/W − 1`.
    ///
    /// # Safety
    /// The last of those block rows must be inside `src`:
    /// `off + ((i + 1)·16/W − 1)·stride + W <= src.len()`. [`Self::load`]
    /// checks that once per block, the SME walk once per partition
    /// window; [`Sse2`] reads without a further check.
    unsafe fn row<const W: usize>(
        self,
        src: &[u8],
        off: usize,
        stride: usize,
        i: usize,
    ) -> Self::Row;

    /// The SAD of nothing.
    fn zero(self) -> Self::Sum;

    /// `sum` plus the SAD of two packed rows.
    fn sad_row(self, sum: Self::Sum, a: Self::Row, b: Self::Row) -> Self::Sum;

    /// The SAD `sum` holds.
    fn total(self, sum: Self::Sum) -> u32;

    /// The rounded average `(a + b + 1) >> 1` of two packed rows, sample
    /// by sample: the H.264 quarter-pel combiner.
    fn avg(self, a: Self::Row, b: Self::Row) -> Self::Row;

    /// Pack the `W × H` block whose first sample is `src[off]` and whose
    /// rows are `stride` apart: [`Self::row`] for every packed row.
    ///
    /// # Panics
    /// When the block's span `off + (H − 1)·stride + W` leaves `src`, in
    /// every build profile — the check the raw loads of [`Sse2`] rest on.
    #[inline(always)]
    fn load<const W: usize, const H: usize, const N: usize>(
        self,
        src: &[u8],
        off: usize,
        stride: usize,
    ) -> [Self::Row; N] {
        check_span::<W, H, N>(src.len(), off, stride);
        // SAFETY: `check_span` just proved `off + (H − 1)·stride + W <=
        // src.len()`, and packed row `i < N` ends at block row
        // `(i + 1)·16/W − 1 <= H − 1`.
        core::array::from_fn(|i| unsafe { self.row::<W>(src, off, stride, i) })
    }

    /// SAD of two packed blocks.
    #[inline(always)]
    fn sad<const N: usize>(self, a: &[Self::Row; N], b: &[Self::Row; N]) -> u32 {
        let sum = (a.iter().zip(b)).fold(self.zero(), |sum, (&x, &y)| self.sad_row(sum, x, y));
        self.total(sum)
    }
}

/// The span check of [`RefineIsa::load`]: `N` packs exactly `W × H`, and
/// the block's last sample is inside a slice of `len` samples. Saturating,
/// so no `off` / `stride` can wrap its way past the comparison (a slice is
/// never longer than `isize::MAX`).
#[inline(always)]
fn check_span<const W: usize, const H: usize, const N: usize>(
    len: usize,
    off: usize,
    stride: usize,
) {
    const {
        assert!(W == 4 || W == 8 || W == 16, "partition widths only");
        assert!(H >= 16 / W && W * H == 16 * N, "N packs exactly W × H");
    }
    let end = (H - 1)
        .saturating_mul(stride)
        .saturating_add(off)
        .saturating_add(W);
    assert!(
        end <= len,
        "{W}x{H} block at {off} (stride {stride}) leaves a slice of {len}"
    );
}

impl RefineIsa for Portable {
    type Row = [u8; 16];
    type Sum = u32;

    #[inline(always)]
    unsafe fn row<const W: usize>(
        self,
        src: &[u8],
        off: usize,
        stride: usize,
        i: usize,
    ) -> [u8; 16] {
        const { assert!(W == 4 || W == 8 || W == 16, "partition widths only") };
        let mut row = [0u8; 16];
        for (r, dst) in row.chunks_exact_mut(W).enumerate() {
            dst.copy_from_slice(&src[off + (i * 16 / W + r) * stride..][..W]);
        }
        row
    }

    #[inline(always)]
    fn zero(self) -> u32 {
        0
    }

    #[inline(always)]
    fn sad_row(self, sum: u32, a: [u8; 16], b: [u8; 16]) -> u32 {
        sum + a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| x.abs_diff(y) as u32)
            .sum::<u32>()
    }

    #[inline(always)]
    fn total(self, sum: u32) -> u32 {
        sum
    }

    #[inline(always)]
    fn avg(self, a: [u8; 16], b: [u8; 16]) -> [u8; 16] {
        core::array::from_fn(|j| avg(a[j], b[j]))
    }
}

// ---------------------------------------------------------------------------
// Search primitives (ME)
// ---------------------------------------------------------------------------

/// What the candidate-major full search ([`crate::me`]) is built from:
/// vectors of sixteen `u16` lanes, one per candidate. Lanes 0..8 are the
/// eight horizontally adjacent candidates of one *half-batch*, lanes 8..16
/// those of another, and each lane keeps a running minimum.
///
/// [`Portable`] is the definition; [`Avx2`] is the same set on `vmpsadbw`,
/// `vpminuw`, `vpcmpeqw`, `vpblendvb` and, once per block, `vpminud`. The
/// search body is written once against this trait.
pub trait SearchIsa: Copy {
    /// Sixteen `u16` lanes.
    type Lanes: Copy;

    /// The lanes holding `v`.
    fn lanes(self, v: [u16; 16]) -> Self::Lanes;

    /// The values `v` holds.
    fn array(self, v: Self::Lanes) -> [u16; 16];

    /// Per-lane `a + b`. Callers keep every sum below 2¹⁶.
    fn add(self, a: Self::Lanes, b: Self::Lanes) -> Self::Lanes;

    /// One row of four 4×4 cells for sixteen candidates: `cur` is the
    /// row's four pixel rows, and cell `gx`, lane `8h + i` is
    /// `Σ |win[at[h] + y·stride + i + x] − cur[y][x]|` over `y < 4`,
    /// `4gx ≤ x < 4gx + 4` — half-batch `h`'s first candidate has its
    /// top-left sample at `win[at[h]]`, and candidate `i` of it is `i`
    /// samples to the right.
    ///
    /// # Panics
    /// When either half-batch's rows, `at[h] + 3·stride + 24` bytes (eight
    /// candidates × sixteen columns touch 23; the loads span 24), leave
    /// `win`, in every build profile — the check the raw loads of [`Avx2`]
    /// rest on.
    fn cell_row(
        self,
        win: &[u8],
        at: [usize; 2],
        stride: usize,
        cur: &[[u8; 16]; 4],
    ) -> [Self::Lanes; 4];

    /// Fold one vector of costs into a running minimum: every lane where
    /// `cost < best` takes `cost` and the position `at`; an equal cost keeps
    /// the earlier position.
    fn keep(
        self,
        best: &mut Self::Lanes,
        pos: &mut Self::Lanes,
        cost: Self::Lanes,
        at: Self::Lanes,
    );

    /// Where a running minimum ends: the least `(best, pos, lane % 8)` over
    /// the sixteen lanes — cost, then position, then the candidate's column
    /// in its half-batch. Every `pos` lane must be below 2¹³.
    fn reduce(self, best: Self::Lanes, pos: Self::Lanes) -> (u16, u16, usize);
}

/// The span check of [`SearchIsa::cell_row`]: both half-batches' four
/// rows of 24 bytes lie inside a slice of `len`. Saturating, so no offset
/// or stride can wrap its way past the comparison.
#[inline(always)]
fn check_cell_row_span(len: usize, at: [usize; 2], stride: usize) {
    let rows = 3usize.saturating_mul(stride).saturating_add(24);
    assert!(
        at[0].saturating_add(rows) <= len && at[1].saturating_add(rows) <= len,
        "cell row at {at:?} (stride {stride}) leaves a window of {len}"
    );
}

/// The primitives as plain loops: what runs on non-x86 hosts (and, for the
/// search, on x86 without AVX2), and the reference [`Sse2`] and [`Avx2`]
/// are tested against.
#[derive(Clone, Copy, Debug)]
pub struct Portable;

impl SearchIsa for Portable {
    type Lanes = [u16; 16];

    #[inline(always)]
    fn lanes(self, v: [u16; 16]) -> [u16; 16] {
        v
    }

    #[inline(always)]
    fn array(self, v: [u16; 16]) -> [u16; 16] {
        v
    }

    #[inline(always)]
    fn add(self, a: [u16; 16], b: [u16; 16]) -> [u16; 16] {
        // Plain `+`: a debug build panics where a sum would wrap.
        core::array::from_fn(|l| a[l] + b[l])
    }

    #[inline(always)]
    fn cell_row(
        self,
        win: &[u8],
        at: [usize; 2],
        stride: usize,
        cur: &[[u8; 16]; 4],
    ) -> [[u16; 16]; 4] {
        check_cell_row_span(win.len(), at, stride);
        let mut cells = [[0u16; 16]; 4];
        for (y, row) in cur.iter().enumerate() {
            for (h, &start) in at.iter().enumerate() {
                let span: &[u8; 24] = win[start + y * stride..][..24]
                    .try_into()
                    .expect("24 bytes");
                for (gx, cell) in cells.iter_mut().enumerate() {
                    for (i, lane) in cell[8 * h..8 * h + 8].iter_mut().enumerate() {
                        for x in 4 * gx..4 * gx + 4 {
                            *lane += span[i + x].abs_diff(row[x]) as u16;
                        }
                    }
                }
            }
        }
        cells
    }

    #[inline(always)]
    fn keep(self, best: &mut [u16; 16], pos: &mut [u16; 16], cost: [u16; 16], at: [u16; 16]) {
        for l in 0..16 {
            if cost[l] < best[l] {
                best[l] = cost[l];
                pos[l] = at[l];
            }
        }
    }

    #[inline(always)]
    fn reduce(self, best: [u16; 16], pos: [u16; 16]) -> (u16, u16, usize) {
        (0..16)
            .map(|l| (best[l], pos[l], l % 8))
            .min()
            .expect("sixteen lanes")
    }
}

// ---------------------------------------------------------------------------
// Deblocking primitives (DBL)
// ---------------------------------------------------------------------------

/// How the sixteen sample lines that cross one macroblock edge are
/// filtered: the frame QP's activity thresholds and, for each of the edge's
/// four 4-line segments, its `tc0` — `None` where bS = 0 and the segment
/// is left alone.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EdgeFilter {
    pub alpha: i16,
    pub beta: i16,
    pub tc0: [Option<i16>; 4],
}

/// The deblocking line filter ([`crate::dbl`]) over one macroblock edge at
/// a time, in the two directions an edge runs.
///
/// [`Portable`] is the definition, one [`filter_line`] per sample line (and
/// what `dbl::deblock_frame_reference` runs); [`Sse2`] filters the sixteen lines at
/// once in `i16` lanes, the segments' `tc0` and bS ≠ 0 as lane vectors, and
/// transposes around the filter where the lines are rows. The frame walk is
/// written once against this trait.
pub(crate) trait DeblockIsa: Copy {
    /// Filter the sixteen columns that cross a horizontal edge: `rows` are
    /// the six sample rows p2, p1, p0 | q0, q1, q2 around it.
    fn filter_rows(self, rows: [&mut [u8; 16]; 6], edge: &EdgeFilter);

    /// Filter the sixteen rows that cross a vertical edge: row `r` is the
    /// eight samples `samples[r · stride ..][..8]`, p3 … p0 | q0 … q3.
    ///
    /// # Panics
    /// When `samples` is shorter than `15 · stride + 8`, in every build
    /// profile — the check the raw loads and stores of [`Sse2`] rest on.
    fn filter_columns(self, samples: &mut [u8], stride: usize, edge: &EdgeFilter);
}

/// Filter one line of samples across an edge: `l` is p2, p1, p0 | q0, q1,
/// q2 and `t0` the segment's `tc0`; returns the filtered p1, p0, q0, q1.
#[inline(always)]
fn filter_line(l: [u8; 6], edge: &EdgeFilter, t0: i16) -> [u8; 4] {
    let (alpha, beta) = (edge.alpha, edge.beta);
    let [p2, p1, p0, q0, q1, q2] = l.map(i16::from);
    // Activity gating: only real blocking artifacts are smoothed; genuine
    // image edges (large |p0-q0|) pass through.
    if (p0 - q0).abs() >= alpha || (p1 - p0).abs() >= beta || (q1 - q0).abs() >= beta {
        return [l[1], l[2], l[3], l[4]];
    }
    let ap = (p2 - p0).abs() < beta;
    let aq = (q2 - q0).abs() < beta;
    let tc = t0 + i16::from(ap) + i16::from(aq);
    let delta = (((q0 - p0) * 4 + (p1 - q1) + 4) >> 3).clamp(-tc, tc);
    let side = |x2: i16, x1: i16, active: bool| {
        if active {
            x1 + ((x2 + ((p0 + q0 + 1) >> 1) - 2 * x1) >> 1).clamp(-t0, t0)
        } else {
            x1
        }
    };
    [side(p2, p1, ap), p0 + delta, q0 - delta, side(q2, q1, aq)].map(|v| v.clamp(0, 255) as u8)
}

impl DeblockIsa for Portable {
    #[inline(always)]
    fn filter_rows(self, rows: [&mut [u8; 16]; 6], edge: &EdgeFilter) {
        let [p2, p1, p0, q0, q1, q2] = rows;
        for (s, t0) in edge.tc0.into_iter().enumerate() {
            let Some(t0) = t0 else { continue };
            for x in s * 4..s * 4 + 4 {
                [p1[x], p0[x], q0[x], q1[x]] =
                    filter_line([p2[x], p1[x], p0[x], q0[x], q1[x], q2[x]], edge, t0);
            }
        }
    }

    #[inline(always)]
    fn filter_columns(self, samples: &mut [u8], stride: usize, edge: &EdgeFilter) {
        assert!(samples.len() >= 15 * stride + 8, "sixteen rows of eight");
        for (s, t0) in edge.tc0.into_iter().enumerate() {
            let Some(t0) = t0 else { continue };
            for r in s * 4..s * 4 + 4 {
                let l: &mut [u8; 6] = (&mut samples[r * stride + 1..][..6]).try_into().unwrap();
                [l[1], l[2], l[3], l[4]] = filter_line(*l, edge, t0);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Forward transform + quantisation (TQ)
// ---------------------------------------------------------------------------

/// The quantiser of one QP and mode, laid out for a row of two blocks:
/// [`super::scalar::quantize_4x4`]'s MF per lane, its dead-zone offset
/// `f` and its shift `qbits`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Quantizer {
    /// MF of the eight lanes of a block row pair: `[0]` for rows 0 and 2,
    /// `[1]` for rows 1 and 3 (lanes 0..4 and 4..8 are the same columns).
    mf: [[i16; 8]; 2],
    /// `2^qbits / 3` (intra) or `/ 6` (inter).
    f: i32,
    qbits: i32,
}

impl Quantizer {
    pub(crate) fn new(qp: u8, intra: bool) -> Self {
        let qbits = 15 + i32::from(qp / 6);
        let f = (1 << qbits) / if intra { 3 } else { 6 };
        let mf = &super::MF[usize::from(qp % 6)];
        let row = |i: usize| core::array::from_fn(|l| mf[super::freq_class(i, l % 4)] as i16);
        Quantizer {
            mf: [row(0), row(1)],
            f,
            qbits,
        }
    }

    /// One lane: `w` quantised with multiplier `mf`, the scalar rule for
    /// every `i16` — `|w|` is exact as a `u16`, and no level exceeds
    /// 13 107, so the SSE2 lanes' `packssdw` never saturates either.
    #[inline(always)]
    fn lane(&self, w: i16, mf: i16) -> i16 {
        let product = i32::from(w.unsigned_abs()) * i32::from(mf);
        let q = ((product + self.f) >> self.qbits) as i16;
        if w < 0 {
            -q
        } else {
            q
        }
    }
}

/// The forward TQ ([`crate::quant::tq_block`]'s transform and
/// quantisation) of two side-by-side 4 × 4 blocks at a time: what luma
/// ([`crate::recon::tq_row`]), chroma and intra code their residual with.
///
/// [`Portable`] is the definition, as lane loops; [`Sse2`] holds the pair
/// in four `i16` vectors — the column pass across them, `punpck` 4 × 4
/// transposes of both blocks at once, the row pass, the `|w|·MF` product
/// in `i32` lanes from `pmullw` / `pmulhuw`, and `pcmpeqw` + `pmovmskb`
/// for the non-zero bits. The butterflies run in `i16`: for residuals in
/// ±255 no coefficient exceeds 9 180, and both equal
/// [`crate::quant::tq_block`] per block there.
pub(crate) trait TqIsa: Copy {
    /// Forward TQ of the two blocks in `rows`: block 0 is lanes 0..4 of
    /// the four rows, block 1 lanes 4..8. Returns both blocks' levels in
    /// raster order and their non-zero bits (bit `b` set ⇔ block `b` has
    /// a non-zero level).
    fn tq_pair(self, rows: [&[i16; 8]; 4], q: &Quantizer) -> ([[i16; 16]; 2], u8);
}

/// One pass of the core transform over four values (`Cf · x`), wrapping
/// as `i16` lanes do.
#[inline(always)]
fn butterfly([x0, x1, x2, x3]: [i16; 4]) -> [i16; 4] {
    let (s0, s1) = (x0.wrapping_add(x3), x1.wrapping_add(x2));
    let (d0, d1) = (x0.wrapping_sub(x3), x1.wrapping_sub(x2));
    [
        s0.wrapping_add(s1),
        d0.wrapping_add(d0).wrapping_add(d1),
        s0.wrapping_sub(s1),
        d0.wrapping_sub(d1).wrapping_sub(d1),
    ]
}

impl TqIsa for Portable {
    #[inline(always)]
    fn tq_pair(self, rows: [&[i16; 8]; 4], q: &Quantizer) -> ([[i16; 16]; 2], u8) {
        // Column pass: each lane is one column of one block.
        let mut t = [[0i16; 8]; 4];
        for l in 0..8 {
            let column = butterfly(rows.map(|r| r[l]));
            for (t, c) in t.iter_mut().zip(column) {
                t[l] = c;
            }
        }
        // Row pass, then the quantiser, block by block.
        let mut levels = [[0i16; 16]; 2];
        let mut nonzero = 0u8;
        for (b, out) in levels.iter_mut().enumerate() {
            for (i, t) in t.iter().enumerate() {
                let w = butterfly(t.as_chunks().0[b]);
                for (j, w) in w.into_iter().enumerate() {
                    out[4 * i + j] = q.lane(w, q.mf[i % 2][j]);
                }
            }
            nonzero |= u8::from(out.iter().any(|&z| z != 0)) << b;
        }
        (levels, nonzero)
    }
}

#[cfg(target_arch = "x86_64")]
pub use x86::{Avx2, Sse2};

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{
        check_cell_row_span, DeblockIsa, EdgeFilter, Quantizer, RefineIsa, SearchIsa, TqIsa,
    };
    use core::arch::x86_64::*;

    /// The packed-block primitives on SSE2, which every x86-64 CPU has.
    #[derive(Clone, Copy, Debug)]
    pub struct Sse2;

    impl RefineIsa for Sse2 {
        type Row = __m128i;
        type Sum = __m128i;

        #[inline(always)]
        unsafe fn row<const W: usize>(
            self,
            src: &[u8],
            off: usize,
            stride: usize,
            i: usize,
        ) -> __m128i {
            const { assert!(W == 4 || W == 8 || W == 16, "partition widths only") };
            // SAFETY: the caller guarantees that block rows `i·16/W ..=
            // (i + 1)·16/W − 1` end inside `src`; each load below reads
            // `W` bytes at the start of one of them. None has an alignment
            // requirement, and SSE2 is part of the x86-64 baseline.
            unsafe {
                let first = src.as_ptr().add(off + i * (16 / W) * stride);
                let row = |r: usize| first.add(r * stride);
                match W {
                    16 => _mm_loadu_si128(row(0).cast()),
                    8 => _mm_unpacklo_epi64(
                        _mm_loadl_epi64(row(0).cast()),
                        _mm_loadl_epi64(row(1).cast()),
                    ),
                    _ => {
                        let quad =
                            |r: usize| _mm_cvtsi32_si128(row(r).cast::<i32>().read_unaligned());
                        _mm_unpacklo_epi64(
                            _mm_unpacklo_epi32(quad(0), quad(1)),
                            _mm_unpacklo_epi32(quad(2), quad(3)),
                        )
                    }
                }
            }
        }

        #[inline(always)]
        fn zero(self) -> __m128i {
            // SAFETY: SSE2 is part of the x86-64 baseline.
            unsafe { _mm_setzero_si128() }
        }

        #[inline(always)]
        fn sad_row(self, sum: __m128i, a: __m128i, b: __m128i) -> __m128i {
            // SAFETY: register-only SSE2 arithmetic, and SSE2 is part of
            // the x86-64 baseline. `psadbw` sums each 8-byte half into its
            // own 64-bit lane; a whole macroblock stays under 2^16.
            unsafe { _mm_add_epi64(sum, _mm_sad_epu8(a, b)) }
        }

        #[inline(always)]
        fn total(self, sum: __m128i) -> u32 {
            // SAFETY: as `sad_row`.
            unsafe { _mm_cvtsi128_si32(_mm_add_epi64(sum, _mm_unpackhi_epi64(sum, sum))) as u32 }
        }

        #[inline(always)]
        fn avg(self, a: __m128i, b: __m128i) -> __m128i {
            // SAFETY: register-only SSE2 arithmetic, and SSE2 is part of
            // the x86-64 baseline. `pavgb` is `(a + b + 1) >> 1` per byte.
            unsafe { _mm_avg_epu8(a, b) }
        }
    }

    /// Sixteen lines across an edge, eight at a time: `px` is p2, p1, p0,
    /// q0, q1, q2 widened to `i16` lanes, `t0` each line's `tc0` and `on`
    /// all-ones in the lines of a bS ≠ 0 segment. Returns p1, p0, q0, q1
    /// unclipped ([`filter_line`]'s last step is the caller's `packus`).
    ///
    /// # Safety
    /// Register-only SSE2 arithmetic; SSE2 is part of the x86-64 baseline.
    #[inline(always)]
    unsafe fn filter_lanes(
        px: [__m128i; 6],
        alpha: __m128i,
        beta: __m128i,
        t0: __m128i,
        on: __m128i,
    ) -> [__m128i; 4] {
        let [p2, p1, p0, q0, q1, q2] = px;
        let neg = |a| _mm_sub_epi16(_mm_setzero_si128(), a);
        let abs_diff = |a, b| {
            let d = _mm_sub_epi16(a, b);
            _mm_max_epi16(d, neg(d))
        };
        let below = |a, b, limit| _mm_cmplt_epi16(abs_diff(a, b), limit);
        let clamp = |v, t| _mm_min_epi16(_mm_max_epi16(v, neg(t)), t);
        let filtered = _mm_and_si128(
            _mm_and_si128(below(p0, q0, alpha), below(p1, p0, beta)),
            _mm_and_si128(below(q1, q0, beta), on),
        );
        // All-ones is −1: subtracting the masks adds the two flags.
        let ap = below(p2, p0, beta);
        let aq = below(q2, q0, beta);
        let tc = _mm_sub_epi16(_mm_sub_epi16(t0, ap), aq);
        let delta = _mm_add_epi16(
            _mm_add_epi16(
                _mm_slli_epi16::<2>(_mm_sub_epi16(q0, p0)),
                _mm_sub_epi16(p1, q1),
            ),
            _mm_set1_epi16(4),
        );
        let delta = _mm_and_si128(clamp(_mm_srai_epi16::<3>(delta), tc), filtered);
        let mid = _mm_srli_epi16::<1>(_mm_add_epi16(_mm_add_epi16(p0, q0), _mm_set1_epi16(1)));
        let side = |x2, x1, active| {
            let d = _mm_sub_epi16(_mm_add_epi16(x2, mid), _mm_slli_epi16::<1>(x1));
            let d = clamp(_mm_srai_epi16::<1>(d), t0);
            _mm_add_epi16(x1, _mm_and_si128(d, _mm_and_si128(active, filtered)))
        };
        [
            side(p2, p1, ap),
            _mm_add_epi16(p0, delta),
            _mm_sub_epi16(q0, delta),
            side(q2, q1, aq),
        ]
    }

    /// [`filter_lanes`] over sixteen lines held as six vectors of sixteen
    /// samples; returns the filtered p1, p0, q0, q1 vectors.
    ///
    /// # Safety
    /// As [`filter_lanes`].
    #[inline(always)]
    unsafe fn filter_sixteen(px: [__m128i; 6], edge: &EdgeFilter) -> [__m128i; 4] {
        let zero = _mm_setzero_si128();
        let (alpha, beta) = (_mm_set1_epi16(edge.alpha), _mm_set1_epi16(edge.beta));
        // One segment is four lanes: two segments per half.
        let t0 = edge.tc0.map(|t| t.unwrap_or(0));
        let on = edge.tc0.map(|t| -i16::from(t.is_some()));
        let lanes = |v: [i16; 4], s: usize| {
            _mm_setr_epi16(
                v[s],
                v[s],
                v[s],
                v[s],
                v[s + 1],
                v[s + 1],
                v[s + 1],
                v[s + 1],
            )
        };
        let lo = filter_lanes(
            px.map(|v| _mm_unpacklo_epi8(v, zero)),
            alpha,
            beta,
            lanes(t0, 0),
            lanes(on, 0),
        );
        let hi = filter_lanes(
            px.map(|v| _mm_unpackhi_epi8(v, zero)),
            alpha,
            beta,
            lanes(t0, 2),
            lanes(on, 2),
        );
        core::array::from_fn(|i| _mm_packus_epi16(lo[i], hi[i]))
    }

    impl DeblockIsa for Sse2 {
        #[inline(always)]
        fn filter_rows(self, rows: [&mut [u8; 16]; 6], edge: &EdgeFilter) {
            // SAFETY: every load and store is of the sixteen bytes one of
            // `rows` borrows, none has an alignment requirement, and SSE2
            // is part of the x86-64 baseline.
            unsafe {
                let px = core::array::from_fn(|i| _mm_loadu_si128(rows[i].as_ptr().cast()));
                let out = filter_sixteen(px, edge);
                for (row, v) in rows.into_iter().skip(1).zip(out) {
                    _mm_storeu_si128(row.as_mut_ptr().cast(), v);
                }
            }
        }

        #[inline(always)]
        fn filter_columns(self, samples: &mut [u8], stride: usize, edge: &EdgeFilter) {
            let end = 15usize.saturating_mul(stride).saturating_add(8);
            assert!(samples.len() >= end, "sixteen rows of eight");
            let first = samples.as_mut_ptr();
            // SAFETY: the assert just proved `15·stride + 8 <= samples.len()`.
            // Row `r < 16` is loaded as the eight bytes at `first + r·stride`
            // and its middle four are stored back at `+ 2`, all before that
            // bound; nothing has an alignment requirement, and SSE2 is part
            // of the x86-64 baseline.
            unsafe {
                // 16 rows × 8 columns → 8 columns × 16 rows, by interleaving
                // bytes, words, doublewords and quadwords in turn.
                let rows: [__m128i; 16] =
                    core::array::from_fn(|r| _mm_loadl_epi64(first.add(r * stride).cast()));
                let b: [__m128i; 8] =
                    core::array::from_fn(|i| _mm_unpacklo_epi8(rows[2 * i], rows[2 * i + 1]));
                // w[k]: columns 0..4 and 4..8 of rows 4k..4k + 4.
                let w: [[__m128i; 2]; 4] = core::array::from_fn(|k| {
                    let (x, y) = (b[2 * k], b[2 * k + 1]);
                    [_mm_unpacklo_epi16(x, y), _mm_unpackhi_epi16(x, y)]
                });
                // d[h][j]: columns 2j and 2j + 1 of rows 8h..8h + 8.
                let d: [[__m128i; 4]; 2] = core::array::from_fn(|h| {
                    let ([x0, x1], [y0, y1]) = (w[2 * h], w[2 * h + 1]);
                    [
                        _mm_unpacklo_epi32(x0, y0),
                        _mm_unpackhi_epi32(x0, y0),
                        _mm_unpacklo_epi32(x1, y1),
                        _mm_unpackhi_epi32(x1, y1),
                    ]
                });
                let even = |j: usize| _mm_unpacklo_epi64(d[0][j], d[1][j]);
                let odd = |j: usize| _mm_unpackhi_epi64(d[0][j], d[1][j]);
                // Columns 1..7 are p2 … q2; p3 and q3 came along for the load.
                let px = [odd(0), even(1), odd(1), even(2), odd(2), even(3)];
                let [p1, p0, q0, q1] = filter_sixteen(px, edge);
                // And back: (p1 p0) and (q0 q1) byte pairs, then the four
                // samples of each row as one doubleword.
                let (pl, ph) = (_mm_unpacklo_epi8(p1, p0), _mm_unpackhi_epi8(p1, p0));
                let (ql, qh) = (_mm_unpacklo_epi8(q0, q1), _mm_unpackhi_epi8(q0, q1));
                let quads = [
                    _mm_unpacklo_epi16(pl, ql),
                    _mm_unpackhi_epi16(pl, ql),
                    _mm_unpacklo_epi16(ph, qh),
                    _mm_unpackhi_epi16(ph, qh),
                ];
                for (j, v) in quads.into_iter().enumerate() {
                    let v = core::mem::transmute::<__m128i, [i32; 4]>(v);
                    for (k, quad) in v.into_iter().enumerate() {
                        let at = first.add((4 * j + k) * stride + 2);
                        at.cast::<i32>().write_unaligned(quad);
                    }
                }
            }
        }
    }

    /// [`super::butterfly`] across four vectors: lane by lane, one pass of
    /// the core transform.
    ///
    /// # Safety
    /// Register-only SSE2 arithmetic; SSE2 is part of the x86-64 baseline.
    #[inline(always)]
    unsafe fn butterfly([x0, x1, x2, x3]: [__m128i; 4]) -> [__m128i; 4] {
        let (s0, s1) = (_mm_add_epi16(x0, x3), _mm_add_epi16(x1, x2));
        let (d0, d1) = (_mm_sub_epi16(x0, x3), _mm_sub_epi16(x1, x2));
        [
            _mm_add_epi16(s0, s1),
            _mm_add_epi16(_mm_add_epi16(d0, d0), d1),
            _mm_sub_epi16(s0, s1),
            _mm_sub_epi16(_mm_sub_epi16(d0, d1), d1),
        ]
    }

    /// Interleave four vectors that hold line `i` of two 4 × 4 blocks in
    /// lanes 0..4 and 4..8: returns block 0's lines as columns in two
    /// vectors (columns 0–1, then 2–3), then block 1's. Of a pair of
    /// coefficient columns that is each block's raster order.
    ///
    /// # Safety
    /// As [`butterfly`].
    #[inline(always)]
    unsafe fn interleave([x0, x1, x2, x3]: [__m128i; 4]) -> [__m128i; 4] {
        let (a01, b01) = (_mm_unpacklo_epi16(x0, x1), _mm_unpackhi_epi16(x0, x1));
        let (a23, b23) = (_mm_unpacklo_epi16(x2, x3), _mm_unpackhi_epi16(x2, x3));
        [
            _mm_unpacklo_epi32(a01, a23),
            _mm_unpackhi_epi32(a01, a23),
            _mm_unpacklo_epi32(b01, b23),
            _mm_unpackhi_epi32(b01, b23),
        ]
    }

    /// Quantise eight coefficients with their lanes' MF: [`Quantizer`]'s
    /// lane rule — `|w|·MF` as an `i32` from its low (`pmullw`) and high
    /// (`pmulhuw`) halves, `+ f`, `>> qbits`, `packssdw`, the sign put
    /// back.
    ///
    /// # Safety
    /// As [`butterfly`].
    #[inline(always)]
    pub(super) unsafe fn quantize(w: __m128i, mf: __m128i, f: __m128i, qbits: __m128i) -> __m128i {
        let sign = _mm_srai_epi16::<15>(w);
        let abs = _mm_sub_epi16(_mm_xor_si128(w, sign), sign);
        let (lo, hi) = (_mm_mullo_epi16(abs, mf), _mm_mulhi_epu16(abs, mf));
        let scaled = |p| _mm_sra_epi32(_mm_add_epi32(p, f), qbits);
        let q = _mm_packs_epi32(
            scaled(_mm_unpacklo_epi16(lo, hi)),
            scaled(_mm_unpackhi_epi16(lo, hi)),
        );
        _mm_sub_epi16(_mm_xor_si128(q, sign), sign)
    }

    impl TqIsa for Sse2 {
        #[inline(always)]
        fn tq_pair(self, rows: [&[i16; 8]; 4], q: &Quantizer) -> ([[i16; 16]; 2], u8) {
            // SAFETY: every load is of the eight `i16` one of `rows`
            // borrows and every store of eight of the returned arrays, none
            // has an alignment requirement, and SSE2 is part of the x86-64
            // baseline.
            unsafe {
                let x = rows.map(|r| _mm_loadu_si128(r.as_ptr().cast()));
                // Column pass, then both blocks transposed: `c[j]` is
                // column j of each.
                let [a01, a23, b01, b23] = interleave(butterfly(x));
                let c = [
                    _mm_unpacklo_epi64(a01, b01),
                    _mm_unpackhi_epi64(a01, b01),
                    _mm_unpacklo_epi64(a23, b23),
                    _mm_unpackhi_epi64(a23, b23),
                ];
                // Row pass: `w[j]` is coefficient column j of each block,
                // whose lanes take row j's MF (the frequency classes are
                // symmetric).
                let w = butterfly(c);
                let mf = q.mf.map(|m| _mm_loadu_si128(m.as_ptr().cast()));
                let (f, qbits) = (_mm_set1_epi32(q.f), _mm_cvtsi32_si128(q.qbits));
                let z: [__m128i; 4] = core::array::from_fn(|j| quantize(w[j], mf[j % 2], f, qbits));
                // Two mask bits per lane: block 0's are the low byte.
                let any = _mm_or_si128(_mm_or_si128(z[0], z[1]), _mm_or_si128(z[2], z[3]));
                let zero = _mm_movemask_epi8(_mm_cmpeq_epi16(any, _mm_setzero_si128()));
                let nonzero = u8::from(zero & 0xFF != 0xFF) | u8::from(zero >> 8 != 0xFF) << 1;
                let mut levels = [[0i16; 16]; 2];
                for (i, v) in interleave(z).into_iter().enumerate() {
                    _mm_storeu_si128(levels[i / 2][i % 2 * 8..].as_mut_ptr().cast(), v);
                }
                (levels, nonzero)
            }
        }
    }

    /// Proof that this CPU has AVX2 (and so SSE4.1): the only constructor
    /// is [`Avx2::detect`], so holding one makes the intrinsics below sound.
    #[derive(Clone, Copy, Debug)]
    pub struct Avx2(());

    impl Avx2 {
        /// `Some` when the running CPU reports AVX2.
        pub fn detect() -> Option<Self> {
            is_x86_feature_detected!("avx2").then_some(Avx2(()))
        }
    }

    impl SearchIsa for Avx2 {
        type Lanes = __m256i;

        #[inline(always)]
        fn lanes(self, v: [u16; 16]) -> __m256i {
            // SAFETY: both are 32 plain bytes.
            unsafe { core::mem::transmute::<[u16; 16], __m256i>(v) }
        }

        #[inline(always)]
        fn array(self, v: __m256i) -> [u16; 16] {
            // SAFETY: both are 32 plain bytes.
            unsafe { core::mem::transmute::<__m256i, [u16; 16]>(v) }
        }

        #[inline(always)]
        fn add(self, a: __m256i, b: __m256i) -> __m256i {
            // SAFETY: `self` proves AVX2 was detected; register-only.
            unsafe { _mm256_add_epi16(a, b) }
        }

        #[inline(always)]
        fn cell_row(
            self,
            win: &[u8],
            at: [usize; 2],
            stride: usize,
            cur: &[[u8; 16]; 4],
        ) -> [__m256i; 4] {
            check_cell_row_span(win.len(), at, stride);
            let (lo, hi) = (
                win.as_ptr().wrapping_add(at[0]),
                win.as_ptr().wrapping_add(at[1]),
            );
            // SAFETY: `self` proves AVX2 was detected. `check_cell_row_span`
            // just proved `at[h] + 3·stride + 24 <= win.len()`; every window
            // load below reads 16 bytes at `at[h] + y·stride + 8·s` for a
            // row `y < 4` and `s < 2`, so it ends at or before that bound.
            // `cur[y]` is the 16 bytes read from it. No load has an
            // alignment requirement.
            unsafe {
                let load = |p: *const u8| _mm_loadu_si128(p.cast());
                let mut cells = [_mm256_setzero_si256(); 4];
                for (y, cur_row) in cur.iter().enumerate() {
                    let (a, b) = (lo.add(y * stride), hi.add(y * stride));
                    // `vmpsadbw` is two `mpsadbw`s, one per 128-bit half,
                    // each with its own three immediate bits: a half holds
                    // one half-batch. Cells 0 and 1 read each span's first
                    // sixteen bytes at offsets 0 and 4, cells 2 and 3 its
                    // last sixteen.
                    let first =
                        _mm256_inserti128_si256::<1>(_mm256_castsi128_si256(load(a)), load(b));
                    let last = _mm256_inserti128_si256::<1>(
                        _mm256_castsi128_si256(load(a.add(8))),
                        load(b.add(8)),
                    );
                    let c = _mm256_broadcastsi128_si256(load(cur_row.as_ptr()));
                    let sads = [
                        _mm256_mpsadbw_epu8::<0b000_000>(first, c),
                        _mm256_mpsadbw_epu8::<0b101_101>(first, c),
                        _mm256_mpsadbw_epu8::<0b010_010>(last, c),
                        _mm256_mpsadbw_epu8::<0b111_111>(last, c),
                    ];
                    for (cell, sad) in cells.iter_mut().zip(sads) {
                        *cell = _mm256_add_epi16(*cell, sad);
                    }
                }
                cells
            }
        }

        #[inline(always)]
        fn keep(self, best: &mut __m256i, pos: &mut __m256i, cost: __m256i, at: __m256i) {
            // SAFETY: `self` proves AVX2 was detected; register-only.
            // Unsigned `cost < best` is `min(best, cost) != best`.
            unsafe {
                let min = _mm256_min_epu16(*best, cost);
                let kept = _mm256_cmpeq_epi16(min, *best);
                *pos = _mm256_blendv_epi8(at, *pos, kept);
                *best = min;
            }
        }

        #[inline(always)]
        fn reduce(self, best: __m256i, pos: __m256i) -> (u16, u16, usize) {
            // SAFETY: `self` proves AVX2, and with it the SSE4.1 of
            // `pminud`, was detected; register-only.
            unsafe {
                // One `u32` key per lane, `best << 16 | pos << 3 | column`
                // (`pos < 2¹³`), so the least key is the least triple.
                let columns = _mm256_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7);
                let low = _mm256_or_si256(_mm256_slli_epi16::<3>(pos), columns);
                let keys = _mm256_min_epu32(
                    _mm256_unpacklo_epi16(low, best),
                    _mm256_unpackhi_epi16(low, best),
                );
                let k = _mm_min_epu32(
                    _mm256_castsi256_si128(keys),
                    _mm256_extracti128_si256::<1>(keys),
                );
                let k = _mm_min_epu32(k, _mm_shuffle_epi32::<0b01_00_11_10>(k));
                let k = _mm_min_epu32(k, _mm_shuffle_epi32::<0b10_11_00_01>(k));
                let key = _mm_cvtsi128_si32(k) as u32;
                ((key >> 16) as u16, (key as u16) >> 3, (key & 7) as usize)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sub-pixel interpolation
// ---------------------------------------------------------------------------

/// Fast [`super::interp_band`]: the scalar band's filter maths on the four
/// stored phases, restructured around contiguous rows.
///
/// * Source rows are copied once into a `width + 5` padded buffer whose 2
///   left / 3 right columns replicate the border, so every later 6-tap is a
///   branch-free sliding window (the scalar path re-clamps per sample).
/// * The half-pel `b`/`h`/`j` rows are slice loops over those buffers,
///   written straight into their bands; the twelve quarter-pel phases are
///   not stored (`SubpelFrame::block` averages them on demand).
pub fn interp_band(
    rf: &Plane<u8>,
    width: usize,
    y0: usize,
    y1: usize,
    bands: &mut [PlaneBandMut<'_, u8>],
) {
    let [g_band, b_band, h_band, j_band] = bands else {
        panic!("the product stores four phases, not {}", bands.len());
    };
    let h = y1 - y0;
    let height = rf.height();
    let pw = width + 5; // 2 left + 3 right replicated border columns
    let ext_rows = h + 5; // source rows y0-2 .. y1+2 inclusive

    // Padded clamped source rows.
    let mut g = vec![0u8; ext_rows * pw];
    for ri in 0..ext_rows {
        let sy = (y0 as isize + ri as isize - 2).clamp(0, height as isize - 1) as usize;
        let src = rf.row(sy);
        let dst = &mut g[ri * pw..(ri + 1) * pw];
        dst[0] = src[0];
        dst[1] = src[0];
        dst[2..2 + width].copy_from_slice(src);
        let last = src[width - 1];
        dst[2 + width] = last;
        dst[3 + width] = last;
        dst[4 + width] = last;
    }

    // Horizontal 6-tap intermediates B1 for every extended row.
    let mut b1 = vec![0i32; ext_rows * width];
    for ri in 0..ext_rows {
        let gp = &g[ri * pw..(ri + 1) * pw];
        let br = &mut b1[ri * width..(ri + 1) * width];
        for (x, o) in br.iter_mut().enumerate() {
            *o = tap6(
                gp[x] as i32,
                gp[x + 1] as i32,
                gp[x + 2] as i32,
                gp[x + 3] as i32,
                gp[x + 4] as i32,
                gp[x + 5] as i32,
            );
        }
    }

    for ly in 0..h {
        let y = y0 + ly;
        let ri = ly + 2; // extended-row index of local row ly
                         // G (0,0): a straight copy.
        g_band
            .row_mut(y)
            .copy_from_slice(&g[ri * pw + 2..ri * pw + 2 + width]);
        // b (2,0): the horizontal intermediates, normalised.
        let b1c = &b1[ri * width..(ri + 1) * width];
        for (o, &v) in b_band.row_mut(y).iter_mut().zip(b1c) {
            *o = clip8((v + 16) >> 5);
        }
        {
            // h (0,2): vertical 6-tap over source rows (the unpadded columns).
            let gr = |r: usize| &g[r * pw + 2..r * pw + 2 + width];
            let (r0, r1, r2, r3, r4, r5) = (
                gr(ri - 2),
                gr(ri - 1),
                gr(ri),
                gr(ri + 1),
                gr(ri + 2),
                gr(ri + 3),
            );
            let dst = h_band.row_mut(y);
            for x in 0..width {
                let h1 = tap6(
                    r0[x] as i32,
                    r1[x] as i32,
                    r2[x] as i32,
                    r3[x] as i32,
                    r4[x] as i32,
                    r5[x] as i32,
                );
                dst[x] = clip8((h1 + 16) >> 5);
            }
        }
        {
            // j (2,2): vertical 6-tap over the horizontal intermediates
            // (20-bit path).
            let br = |r: usize| &b1[r * width..(r + 1) * width];
            let (r0, r1, r2, r3, r4, r5) = (
                br(ri - 2),
                br(ri - 1),
                br(ri),
                br(ri + 1),
                br(ri + 2),
                br(ri + 3),
            );
            let dst = j_band.row_mut(y);
            for x in 0..width {
                let j1 = tap6(r0[x], r1[x], r2[x], r3[x], r4[x], r5[x]);
                dst[x] = clip8((j1 + 512) >> 10);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `avg` on `isa` against the scalar combiner, every (a, b) byte pair
    /// in every byte position of a packed row.
    fn check_avg<I: RefineIsa>(isa: I) {
        for a in 0..=255u8 {
            let row_a: [u8; 16] = core::array::from_fn(|i| a.wrapping_add(i as u8));
            let [pa] = isa.load::<16, 1, 1>(&row_a, 0, 16);
            for b in 0..=255u8 {
                let [pb] = isa.load::<16, 1, 1>(&[b; 16], 0, 16);
                let mean = isa.avg(pa, pb);
                // SAD against the expected row is zero only if every byte matches.
                let want: [u8; 16] = core::array::from_fn(|i| avg(row_a[i], b));
                let [want] = isa.load::<16, 1, 1>(&want, 0, 16);
                assert_eq!(
                    isa.total(isa.sad_row(isa.zero(), mean, want)),
                    0,
                    "a={a} b={b}"
                );
            }
        }
    }

    #[test]
    fn portable_packed_avg_is_the_rounded_average() {
        check_avg(Portable);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_packed_avg_is_the_rounded_average() {
        check_avg(Sse2);
    }

    // ---- portable vs std::arch refinement primitives (direct calls) ----

    /// `load` + `sad` of one `W × H` shape on `isa`: against the plain
    /// definition, with every (a, b) byte pair in the block's last column
    /// on a textured background — each `psadbw` byte position is a column
    /// of some shape, and the background catches a dropped or
    /// double-counted row.
    fn check_shape<I: RefineIsa, const W: usize, const H: usize, const N: usize>(isa: I) {
        for (sa, sb) in [(W, W), (16, 24), (37, 19)] {
            // Offsets that end the block on the slice's last byte.
            let (oa, ob) = (5, 11);
            let mut a: Vec<u8> = (0..oa + sa * (H - 1) + W)
                .map(|i| (i * 29 + 3) as u8)
                .collect();
            let mut b: Vec<u8> = (0..ob + sb * (H - 1) + W)
                .map(|i| (i * 53 + 101) as u8)
                .collect();
            for va in 0..=255u8 {
                for vb in 0..=255u8 {
                    for y in 0..H {
                        a[oa + y * sa + W - 1] = va;
                        b[ob + y * sb + W - 1] = vb.wrapping_add(y as u8);
                    }
                    let want: u32 = (0..H)
                        .flat_map(|y| (0..W).map(move |x| (x, y)))
                        .map(|(x, y)| a[oa + y * sa + x].abs_diff(b[ob + y * sb + x]) as u32)
                        .sum();
                    let pa = isa.load::<W, H, N>(&a, oa, sa);
                    let pb = isa.load::<W, H, N>(&b, ob, sb);
                    assert_eq!(
                        isa.sad(&pa, &pb),
                        want,
                        "{W}x{H} strides {sa}/{sb} a={va} b={vb}"
                    );
                }
            }
        }
    }

    fn check_every_shape<I: RefineIsa>(isa: I) {
        check_shape::<I, 16, 16, 16>(isa);
        check_shape::<I, 16, 8, 8>(isa);
        check_shape::<I, 8, 16, 8>(isa);
        check_shape::<I, 8, 8, 4>(isa);
        check_shape::<I, 8, 4, 2>(isa);
        check_shape::<I, 4, 8, 2>(isa);
        check_shape::<I, 4, 4, 1>(isa);
    }

    #[test]
    fn portable_packed_sad_is_the_plain_sad() {
        check_every_shape(Portable);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_packed_sad_is_the_plain_sad() {
        check_every_shape(Sse2);
    }

    #[test]
    fn packed_sad_of_extreme_blocks_does_not_wrap() {
        let (a, b) = ([0u8; 256], [255u8; 256]);
        let want = 255 * 256;
        let p = Portable;
        assert_eq!(
            p.sad(
                &p.load::<16, 16, 16>(&a, 0, 16),
                &p.load::<16, 16, 16>(&b, 0, 16)
            ),
            want
        );
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            Sse2.sad(
                &Sse2.load::<16, 16, 16>(&a, 0, 16),
                &Sse2.load::<16, 16, 16>(&b, 0, 16)
            ),
            want
        );
    }

    // A 4×4 in the last rows and columns of a plane ends on the slice's
    // last byte and loads; one sample further and the span check fires
    // before any raw load (nothing here can watch the loads themselves).

    #[test]
    fn a_block_ending_on_the_last_byte_loads() {
        fn last_block<I: RefineIsa>(isa: I) -> u32 {
            let plane: Vec<u8> = (0..8 * 8).collect();
            let zero = isa.load::<4, 4, 1>(&[0; 16], 0, 4);
            isa.sad(&isa.load::<4, 4, 1>(&plane, 4 * 8 + 4, 8), &zero)
        }
        let want = [36..40, 44..48, 52..56, 60..64u32]
            .into_iter()
            .flatten()
            .sum();
        assert_eq!(last_block(Portable), want);
        #[cfg(target_arch = "x86_64")]
        assert_eq!(last_block(Sse2), want);
    }

    #[test]
    #[should_panic(expected = "leaves a slice of 63")]
    fn portable_load_past_the_slice_panics() {
        let plane = [0u8; 63];
        let _ = Portable.load::<4, 4, 1>(&plane, 4 * 8 + 4, 8);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    #[should_panic(expected = "leaves a slice of 63")]
    fn sse2_load_past_the_slice_panics() {
        let plane = [0u8; 63];
        let _ = Sse2.load::<4, 4, 1>(&plane, 4 * 8 + 4, 8);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    #[should_panic(expected = "leaves a slice of 64")]
    fn sse2_load_with_a_wrapping_span_panics() {
        let plane = [0u8; 64];
        let _ = Sse2.load::<16, 16, 16>(&plane, 0, usize::MAX / 8);
    }

    // ---- portable vs std::arch deblocking line filter (direct calls) ----

    /// Sixteen lines whose samples sit on and around every threshold of
    /// `edge`: p0 anywhere (both clipping ends included), the other five a
    /// threshold-sized step from the sample they are compared with.
    fn lines_around(edge: &EdgeFilter, rng: &mut StdRng) -> [[u8; 6]; 16] {
        let (a, b) = (edge.alpha as i32, edge.beta as i32);
        let mut step = |t: i32| {
            let d = [0, 1, t - 1, t, t + 1, 2 * t][rng.gen_range(0..6usize)];
            if rng.gen() {
                d
            } else {
                -d
            }
        };
        core::array::from_fn(|_| {
            let p0 = [0, 2, 128, 253, 255][step(3).unsigned_abs() as usize % 5] + step(2);
            let q0 = p0 + step(a);
            let (p1, q1) = (p0 + step(b), q0 + step(b));
            let (p2, q2) = (p0 + step(b), q0 + step(b));
            [p2, p1, p0, q0, q1, q2].map(|v| v.clamp(0, 255) as u8)
        })
    }

    /// Both directions of `isa` against one [`filter_line`] per line, over
    /// every (α, β) a QP can select, segments that are off, `tc0 = 0` and
    /// larger, and lines in every regime of the filter — with the samples
    /// around the sixteen-by-six untouched.
    fn check_deblock<I: DeblockIsa>(isa: I) {
        let mut rng = StdRng::seed_from_u64(0xDB1);
        // unfiltered; filtered with (ap, aq) = (0,0), (1,0), (0,1), (1,1).
        let mut regimes = [0usize; 5];
        for (alpha, beta) in [(4, 2), (9, 3), (20, 7), (50, 11), (127, 15), (255, 18)] {
            for round in 0..400 {
                let tc0 = core::array::from_fn(|_| {
                    [None, Some(0), Some(1), Some(beta / 4), Some(beta / 2)]
                        [rng.gen_range(0..5usize)]
                });
                let edge = EdgeFilter { alpha, beta, tc0 };
                let lines = lines_around(&edge, &mut rng);
                let want: [[u8; 6]; 16] = core::array::from_fn(|i| {
                    let l = lines[i];
                    let Some(t0) = tc0[i / 4] else { return l };
                    let [p1, p0, q0, q1] = filter_line(l, &edge, t0);
                    let near = |x: u8, y: u8| (x as i16 - y as i16).abs() < beta;
                    let gated = l[2].abs_diff(l[3]) as i16 >= alpha
                        || !near(l[1], l[2])
                        || !near(l[4], l[3]);
                    let regime =
                        1 + usize::from(near(l[0], l[2])) + 2 * usize::from(near(l[5], l[3]));
                    regimes[if gated { 0 } else { regime }] += 1;
                    [l[0], p1, p0, q0, q1, l[5]]
                });

                // Lines as columns: six rows of sixteen.
                let mut rows: [[u8; 16]; 6] = core::array::from_fn(|i| lines.map(|l| l[i]));
                isa.filter_rows(rows.each_mut(), &edge);
                let got: [[u8; 6]; 16] = core::array::from_fn(|x| rows.map(|r| r[x]));
                assert_eq!(got, want, "rows, α {alpha} β {beta} {tc0:?} round {round}");

                // Lines as rows, in a buffer that ends with the last one.
                let stride = 8 + round % 13;
                let mut samples: Vec<u8> = (0..15 * stride + 8).map(|_| rng.gen()).collect();
                let before = samples.clone();
                for (r, l) in lines.iter().enumerate() {
                    samples[r * stride + 1..][..6].copy_from_slice(l);
                }
                isa.filter_columns(&mut samples, stride, &edge);
                for (i, (&got, &was)) in samples.iter().zip(&before).enumerate() {
                    let (r, c) = (i / stride, i % stride);
                    let want = if (1..7).contains(&c) {
                        want[r][c - 1]
                    } else {
                        was
                    };
                    assert_eq!(
                        got, want,
                        "columns, row {r} byte {c}, α {alpha} β {beta} {tc0:?}"
                    );
                }
            }
        }
        assert!(
            regimes.iter().all(|&n| n > 100),
            "regimes seen: {regimes:?}"
        );
    }

    #[test]
    fn portable_edge_filter_is_the_line_filter() {
        check_deblock(Portable);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_edge_filter_is_the_line_filter() {
        check_deblock(Sse2);
    }

    #[test]
    #[should_panic(expected = "sixteen rows of eight")]
    fn portable_filter_columns_past_the_slice_panics() {
        let edge = EdgeFilter {
            alpha: 20,
            beta: 7,
            tc0: [Some(1); 4],
        };
        Portable.filter_columns(&mut [0u8; 15 * 9 + 7], 9, &edge);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    #[should_panic(expected = "sixteen rows of eight")]
    fn sse2_filter_columns_past_the_slice_panics() {
        let edge = EdgeFilter {
            alpha: 20,
            beta: 7,
            tc0: [Some(1); 4],
        };
        Sse2.filter_columns(&mut [0u8; 15 * 9 + 7], 9, &edge);
    }

    // ---- the forward TQ primitive ----

    /// `lanes` (one row of two blocks quantised with row `parity`'s MF)
    /// against `scalar::quantize_4x4` for every coefficient a ±255 residual
    /// can reach, both signs, in every column of both row parities — so at
    /// every frequency class — at every QP, intra and inter.
    fn check_quantizer(lanes: impl Fn([i16; 8], usize, &Quantizer) -> [i16; 8]) {
        const MAX: i32 = 9180;
        for qp in 0..=51u8 {
            for intra in [false, true] {
                let q = Quantizer::new(qp, intra);
                // want[w + MAX][p]: the rule for `w` at block position `p`.
                let want: Vec<[i32; 16]> = (-MAX..=MAX)
                    .map(|w| {
                        let mut block = [w; 16];
                        super::super::scalar::quantize_4x4(&mut block, qp, intra);
                        block
                    })
                    .collect();
                for start in (-MAX..=MAX).step_by(8) {
                    for shift in 0..4 {
                        let w: [i32; 8] =
                            core::array::from_fn(|l| (start + ((l + shift) % 8) as i32).min(MAX));
                        for parity in 0..2 {
                            let got = lanes(w.map(|w| w as i16), parity, &q);
                            for l in 0..8 {
                                assert_eq!(
                                    i32::from(got[l]),
                                    want[(w[l] + MAX) as usize][4 * parity + l % 4],
                                    "w {} at ({parity}, {}), QP {qp}, intra {intra}",
                                    w[l],
                                    l % 4
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn portable_quantizer_lanes_are_the_scalar_rule() {
        check_quantizer(|w, parity, q| core::array::from_fn(|l| q.lane(w[l], q.mf[parity][l])));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_quantizer_lanes_are_the_scalar_rule() {
        use core::arch::x86_64::*;
        check_quantizer(|w, parity, q| {
            // SAFETY: loads of two eight-`i16` arrays, register-only SSE2
            // arithmetic, and SSE2 is part of the x86-64 baseline.
            unsafe {
                let z = x86::quantize(
                    _mm_loadu_si128(w.as_ptr().cast()),
                    _mm_loadu_si128(q.mf[parity].as_ptr().cast()),
                    _mm_set1_epi32(q.f),
                    _mm_cvtsi32_si128(q.qbits),
                );
                core::mem::transmute::<__m128i, [i16; 8]>(z)
            }
        });
    }

    /// Residual rows of two blocks in one of the regimes a TQ meets:
    /// anywhere in ±255, ±255 only, near zero (most levels quantise to
    /// 0), or ±255 signed as one basis function of the transform, which
    /// drives that coefficient to its bound of 9 180.
    fn residual_pair(rng: &mut StdRng, regime: usize) -> [[i16; 8]; 4] {
        const CF: [[i16; 4]; 4] = [[1, 1, 1, 1], [2, 1, -1, -2], [1, -1, -1, 1], [1, -2, 2, -1]];
        let (a, b): (usize, usize) = (rng.gen_range(0..4), rng.gen_range(0..4));
        let sign = if rng.gen() { 255 } else { -255 };
        core::array::from_fn(|i| {
            core::array::from_fn(|l| match regime {
                0 => rng.gen_range(-255..=255),
                1 => [-255, 255][rng.gen_range(0..2usize)],
                2 => rng.gen_range(-3..=3),
                _ => sign * (CF[a][i] * CF[b][l % 4]).signum(),
            })
        })
    }

    /// `isa`'s pair against one `quant::tq_block` per block, levels and
    /// non-zero bits, in every regime of [`residual_pair`] at every QP,
    /// intra and inter.
    fn check_tq_pair<I: TqIsa>(isa: I) {
        let mut rng = StdRng::seed_from_u64(0x7E0);
        for round in 0..40_000usize {
            let (qp, intra) = ((round / 2 % 52) as u8, round % 2 == 1);
            let rows = residual_pair(&mut rng, round / 104 % 4);
            let want: [[i16; 16]; 2] = core::array::from_fn(|b| {
                let block = core::array::from_fn(|i| rows[i / 4][4 * b + i % 4]);
                crate::quant::tq_block(&block, qp, intra)
            });
            let nonzero = (0..2).map(|b| u8::from(want[b] != [0; 16]) << b).sum();
            let got = isa.tq_pair(rows.each_ref(), &Quantizer::new(qp, intra));
            assert_eq!(got, (want, nonzero), "{rows:?} QP {qp} intra {intra}");
        }
    }

    #[test]
    fn portable_tq_pair_is_tq_block() {
        check_tq_pair(Portable);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_tq_pair_is_tq_block() {
        check_tq_pair(Sse2);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_tq_pair_is_portable_for_any_i16() {
        // Outside ±255 the `i16` butterflies wrap; both wrap alike.
        let mut rng = StdRng::seed_from_u64(0x7E1);
        for round in 0..40_000usize {
            let q = Quantizer::new((round % 52) as u8, round % 3 == 0);
            let rows: [[i16; 8]; 4] = core::array::from_fn(|_| core::array::from_fn(|_| rng.gen()));
            let rows = rows.each_ref();
            assert_eq!(
                Sse2.tq_pair(rows, &q),
                Portable.tq_pair(rows, &q),
                "{rows:?}"
            );
        }
    }

    // ---- portable vs std::arch search primitives (direct calls) ----
    // The portable pair needs no switch to be exercised: these run it on
    // every host, against the instructions where the host has them.

    #[test]
    fn portable_cell_row_is_the_scalar_grid() {
        // Every cell of every lane is the matching cell of the per-candidate
        // `SadGrid`, with the window being the reference plane itself.
        let rf = Plane::from_fn(48, 24, |x, y| ((x * 37) ^ (y * 91) ^ 5) as u8);
        let cf = Plane::from_fn(16, 16, |x, y| ((x * 11 + y * 200) % 253) as u8);
        let cur: [[u8; 16]; 16] = core::array::from_fn(|y| cf.row(y).try_into().unwrap());
        let (rows, _) = cur.as_chunks::<4>();
        for (gy, rows) in rows.iter().enumerate().take(2) {
            for at in [[0, 8], [3, 17], [24, 1]] {
                let off = gy * 4 * 48;
                let got = Portable.cell_row(rf.as_slice(), at.map(|a| a + off), 48, rows);
                for l in 0..16 {
                    let x = (at[l / 8] + l % 8) as isize;
                    let grid = super::super::scalar::sad_grid_16x16(&cf, 0, 0, &rf, x, 0);
                    for (gx, cell) in got.iter().enumerate() {
                        assert_eq!(
                            cell[l] as u32,
                            grid[gy * 4 + gx],
                            "at {at:?} row {gy} lane {l}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn portable_reduce_breaks_ties_in_scan_order() {
        let r = |best: [u16; 16], pos: [u16; 16]| Portable.reduce(best, pos);
        assert_eq!(r([7; 16], [3; 16]), (7, 3, 0));
        // Least cost, then least position, then lowest column.
        let mut best = [9u16; 16];
        let mut pos = [5u16; 16];
        best[3] = 2;
        best[6] = 2;
        best[12] = 2;
        pos[3] = 4;
        pos[6] = 1;
        pos[12] = 1;
        assert_eq!(r(best, pos), (2, 1, 4), "column 4, from the high half");
        pos[12] = 2;
        assert_eq!(r(best, pos), (2, 1, 6));
        // Both halves at one position and column: one answer either way.
        best[14] = 2;
        pos[14] = 1;
        assert_eq!(r(best, pos), (2, 1, 6));
        // A lane never folded into (`u16::MAX`) loses to the largest SAD.
        let mut unset = [u16::MAX; 16];
        unset[9] = 255 * 256;
        assert_eq!(r(unset, [0; 16]), (255 * 256, 0, 1));
    }

    // The `std::arch` primitives need no switch to be exercised: these run
    // them against the portable definitions wherever the host has AVX2.

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn cell_row_avx2_matches_portable_for_every_byte_pair() {
        let Some(avx) = Avx2::detect() else { return };
        const STRIDE: usize = 40;
        let mut win: Vec<u8> = (0..3 * STRIDE + 24 + 13)
            .map(|i| (i * 37 + 5) as u8)
            .collect();
        let mut cur: [[u8; 16]; 4] =
            core::array::from_fn(|y| core::array::from_fn(|x| (200 - x * 11 - y * 3) as u8));
        // Row 2 of each half-batch: bytes 3, 11 and 19 of the low span and
        // 7 and 15 of the high one each land in some lane of every cell, at
        // a different column; the current row is swept with them. The high
        // half starts 8 on (one candidate row) and 13 on (two rows), and
        // the last cell row ends on the window's last byte.
        for at in [[0, 8], [0, 13]] {
            for a in 0..=255u8 {
                for b in 0..=255u8 {
                    for j in [3, 11, 19] {
                        win[at[0] + 2 * STRIDE + j] = a;
                    }
                    for j in [7, 15] {
                        win[at[1] + 2 * STRIDE + j] = a.wrapping_add(b);
                    }
                    cur[2].fill(b);
                    let got = avx.cell_row(&win, at, STRIDE, &cur).map(|v| avx.array(v));
                    let want = Portable.cell_row(&win, at, STRIDE, &cur);
                    assert_eq!(got, want, "at {at:?} a {a} b {b}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "leaves a window of 143")]
    fn portable_cell_row_past_the_window_panics() {
        let _ = Portable.cell_row(&[0; 143], [0, 0], 40, &[[0; 16]; 4]);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    #[should_panic(expected = "leaves a window of 144")]
    fn avx2_cell_row_past_the_window_panics() {
        let Some(avx) = Avx2::detect() else {
            panic!("no AVX2: leaves a window of 144")
        };
        // The low half fits exactly; the high one is a byte too far.
        let _ = avx.cell_row(&[0; 144], [0, 1], 40, &[[0; 16]; 4]);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    #[should_panic(expected = "leaves a window of 144")]
    fn avx2_cell_row_with_a_wrapping_span_panics() {
        let Some(avx) = Avx2::detect() else {
            panic!("no AVX2: leaves a window of 144")
        };
        let _ = avx.cell_row(&[0; 144], [0, 0], usize::MAX / 2, &[[0; 16]; 4]);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn keep_and_reduce_avx2_match_portable_for_every_lane_value() {
        let Some(avx) = Avx2::detect() else { return };
        for lane in [0, 5, 8, 15] {
            // Neighbours at 40 000 on both sides of the swept lane: below
            // it the lane takes the new position, at it keeps the old one,
            // above it the neighbours' positions stand.
            let best = [40_000u16; 16];
            let pos: [u16; 16] = core::array::from_fn(|l| (l as u16 % 8) * 3);
            let at = [100u16; 16];
            for x in 0..=u16::MAX {
                let mut cost = [50_000u16; 16];
                cost[lane] = x;
                let (mut b, mut p) = (avx.lanes(best), avx.lanes(pos));
                avx.keep(&mut b, &mut p, avx.lanes(cost), avx.lanes(at));
                let (mut want_b, mut want_p) = (best, pos);
                Portable.keep(&mut want_b, &mut want_p, cost, at);
                assert_eq!((avx.array(b), avx.array(p)), (want_b, want_p), "x {x}");
                // The reduce of the result: the swept lane's position and
                // column compete with the lanes still at 40 000.
                assert_eq!(avx.reduce(b, p), Portable.reduce(want_b, want_p), "x {x}");
            }
        }
    }
}
