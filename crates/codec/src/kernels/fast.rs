//! Fast kernels.
//!
//! Every function here is bit-exact against its [`super::scalar`] twin —
//! proven by the differential tests — the only difference is throughput.
//! Four techniques, chosen per kernel by what measured fastest:
//!
//! * The SME refinement and ME search primitives: `std::arch` intrinsics
//!   on x86-64 — packed-block `psadbw` ([`Sse2`], the baseline, so nothing
//!   is detected) and sixteen-lane `vmpsadbw` with running per-lane minima
//!   ([`Avx2`], detected at run time) — with a portable definition of each
//!   beside it ([`Portable`]) for every other host, which is also what the
//!   reference `sme::sme_rows_reference` runs.
//! * The deblocking line filter: the sixteen sample lines that cross one
//!   macroblock edge at once in SSE2 `i16` lanes ([`Sse2`]), against one
//!   line at a time ([`Portable`], the definition and
//!   `dbl::deblock_frame_reference`).
//! * Interpolation, structure: the border-clamped source reads are hoisted
//!   into padded rows once per band (the scalar path calls `get_clamped` per
//!   pixel) and the 6-tap filters run over contiguous slices the compiler's
//!   auto-vectorizer lowers to packed SIMD.
//! * Interpolation, **SWAR** (SIMD-within-a-register): the twelve
//!   quarter-pel bilinear averages use the packed ceil-average identity
//!   `avg(a,b) = (a|b) - (((a^b)>>1) & 0x7f..7f)` — eight pixels per step.

use super::{avg, clip8, tap6};
use feves_video::plane::{Plane, PlaneBandMut};

// ---------------------------------------------------------------------------
// Packed building blocks
// ---------------------------------------------------------------------------

const LO7: u64 = 0x7F7F_7F7F_7F7F_7F7F; // low 7 bits of each byte

#[inline]
fn load8(s: &[u8]) -> u64 {
    u64::from_le_bytes(s[..8].try_into().unwrap())
}

/// Packed rounding-up byte average: `(a + b + 1) >> 1` per byte, via
/// `(a | b) - (((a ^ b) >> 1) & 0x7f..7f)` (never borrows across bytes
/// because `a | b >= (a ^ b) >> 1` holds per byte).
#[inline]
fn avg8(a: u64, b: u64) -> u64 {
    (a | b) - (((a ^ b) >> 1) & LO7)
}

// ---------------------------------------------------------------------------
// Refinement primitives (SME)
// ---------------------------------------------------------------------------

/// The two operations the sub-pel refinement ([`crate::sme`]) is built
/// from, over **packed** blocks: a `W × H` partition is `N = W·H / 16` rows
/// of sixteen bytes — one block row per packed row at width 16, two at
/// width 8, four at width 4 — so every byte of every `psadbw` is a sample
/// and a 4×4 SAD is one instruction.
///
/// [`Portable`] is the definition (and what `sme::sme_rows_reference` runs);
/// [`Sse2`] is the same pair on `movd`/`movq`/`movdqu` + `psadbw`. The
/// refinement body is written once against this trait.
pub trait RefineIsa: Copy {
    /// Sixteen packed samples.
    type Row: Copy;

    /// Pack the `W × H` block whose first sample is `src[off]` and whose
    /// rows are `stride` apart.
    ///
    /// # Panics
    /// When the block's span `off + (H − 1)·stride + W` leaves `src`, in
    /// every build profile — the check the raw loads of [`Sse2`] rest on.
    fn load<const W: usize, const H: usize, const N: usize>(
        self,
        src: &[u8],
        off: usize,
        stride: usize,
    ) -> [Self::Row; N];

    /// SAD of two packed blocks.
    fn sad<const N: usize>(self, a: &[Self::Row; N], b: &[Self::Row; N]) -> u32;
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

    #[inline(always)]
    fn load<const W: usize, const H: usize, const N: usize>(
        self,
        src: &[u8],
        off: usize,
        stride: usize,
    ) -> [[u8; 16]; N] {
        check_span::<W, H, N>(src.len(), off, stride);
        let mut rows = [[0u8; 16]; N];
        for r in 0..H {
            rows[r * W / 16][r * W % 16..][..W].copy_from_slice(&src[off + r * stride..][..W]);
        }
        rows
    }

    #[inline(always)]
    fn sad<const N: usize>(self, a: &[[u8; 16]; N], b: &[[u8; 16]; N]) -> u32 {
        a.as_flattened()
            .iter()
            .zip(b.as_flattened())
            .map(|(&x, &y)| x.abs_diff(y) as u32)
            .sum()
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

#[cfg(target_arch = "x86_64")]
pub use x86::{Avx2, Sse2};

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{check_cell_row_span, check_span, DeblockIsa, EdgeFilter, RefineIsa, SearchIsa};
    use core::arch::x86_64::*;

    /// The packed-block primitives on SSE2, which every x86-64 CPU has.
    #[derive(Clone, Copy, Debug)]
    pub struct Sse2;

    impl RefineIsa for Sse2 {
        type Row = __m128i;

        #[inline(always)]
        fn load<const W: usize, const H: usize, const N: usize>(
            self,
            src: &[u8],
            off: usize,
            stride: usize,
        ) -> [__m128i; N] {
            check_span::<W, H, N>(src.len(), off, stride);
            let first = src[off..].as_ptr();
            // SAFETY: `check_span` just proved `off + (H − 1)·stride + W <=
            // src.len()`. Every load below reads `W` bytes at `first +
            // r·stride` for a block row `r < H` (packed row `i < N` holds
            // block rows `i·16/W ..`), so it ends at or before that bound;
            // none has an alignment requirement, and SSE2 is part of the
            // x86-64 baseline.
            unsafe {
                let row = |r: usize| first.add(r * stride);
                core::array::from_fn(|i| match W {
                    16 => _mm_loadu_si128(row(i).cast()),
                    8 => _mm_unpacklo_epi64(
                        _mm_loadl_epi64(row(2 * i).cast()),
                        _mm_loadl_epi64(row(2 * i + 1).cast()),
                    ),
                    _ => {
                        let quad =
                            |r: usize| _mm_cvtsi32_si128(row(r).cast::<i32>().read_unaligned());
                        _mm_unpacklo_epi64(
                            _mm_unpacklo_epi32(quad(4 * i), quad(4 * i + 1)),
                            _mm_unpacklo_epi32(quad(4 * i + 2), quad(4 * i + 3)),
                        )
                    }
                })
            }
        }

        #[inline(always)]
        fn sad<const N: usize>(self, a: &[__m128i; N], b: &[__m128i; N]) -> u32 {
            // SAFETY: register-only SSE2 arithmetic, and SSE2 is part of
            // the x86-64 baseline. `psadbw` sums each 8-byte half into its
            // own 64-bit lane; a whole macroblock stays under 2^16.
            unsafe {
                let mut acc = _mm_setzero_si128();
                for (&x, &y) in a.iter().zip(b) {
                    acc = _mm_add_epi64(acc, _mm_sad_epu8(x, y));
                }
                _mm_cvtsi128_si32(_mm_add_epi64(acc, _mm_unpackhi_epi64(acc, acc))) as u32
            }
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

/// `dst[x] = avg(a[x], b[x])`, eight pixels per step.
fn avg_rows(dst: &mut [u8], a: &[u8], b: &[u8]) {
    let n = dst.len();
    debug_assert!(a.len() >= n && b.len() >= n);
    let mut x = 0;
    while x + 8 <= n {
        let v = avg8(load8(&a[x..]), load8(&b[x..]));
        dst[x..x + 8].copy_from_slice(&v.to_le_bytes());
        x += 8;
    }
    while x < n {
        dst[x] = avg(a[x], b[x]);
        x += 1;
    }
}

/// `dst[x] = avg(a[x], b[min(x+1, n-1)])` — the "right neighbour" quarter-pel
/// combine with border clamp on the shifted operand.
fn avg_rows_shift(dst: &mut [u8], a: &[u8], b: &[u8]) {
    let n = dst.len();
    debug_assert!(a.len() >= n && b.len() >= n);
    let mut x = 0;
    // The packed loop reads b[x+1 .. x+9]; stop while that stays in bounds.
    while x + 9 <= n {
        let v = avg8(load8(&a[x..]), load8(&b[x + 1..]));
        dst[x..x + 8].copy_from_slice(&v.to_le_bytes());
        x += 8;
    }
    while x < n {
        dst[x] = avg(a[x], b[(x + 1).min(n - 1)]);
        x += 1;
    }
}

/// Fast [`super::interp_band`]: identical filter maths to the scalar band,
/// restructured around contiguous rows.
///
/// * Source rows are copied once into a `width + 5` padded buffer whose 2
///   left / 3 right columns replicate the border, so every later 6-tap is a
///   branch-free sliding window (the scalar path re-clamps per sample).
/// * Half-pel `b`/`h`/`j` rows are produced by slice loops over those
///   buffers.
/// * The twelve quarter-pel phases are packed byte averages of whole rows
///   ([`avg_rows`] / [`avg_rows_shift`]); averaging is commutative, so the
///   three phases that combine with a right-shifted operand
///   (`c = avg(b, g→)`, `k = avg(j, h→)`, `g = avg(b, h→)`, `r = avg(h→,
///   b↓)`) all route the shifted row through the second argument.
pub fn interp_band(
    rf: &Plane<u8>,
    width: usize,
    y0: usize,
    y1: usize,
    bands: &mut [PlaneBandMut<'_, u8>],
) {
    debug_assert_eq!(bands.len(), 16);
    let h = y1 - y0;
    let height = rf.height();
    let pw = width + 5; // 2 left + 3 right replicated border columns
    let ext_rows = h + 6; // source rows y0-2 .. y1+3 inclusive

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

    // Half-pel rows 0..h+1 (local coordinates; +1 because quarter-pel rows
    // average the next row down).
    let mut bp = vec![0u8; (h + 1) * width];
    let mut hp = vec![0u8; (h + 1) * width];
    let mut jp = vec![0u8; (h + 1) * width];
    for ly in 0..h + 1 {
        let ri = ly + 2; // extended-row index of local row ly
        {
            let b1c = &b1[ri * width..(ri + 1) * width];
            let dst = &mut bp[ly * width..(ly + 1) * width];
            for (o, &v) in dst.iter_mut().zip(b1c.iter()) {
                *o = clip8((v + 16) >> 5);
            }
        }
        {
            // Vertical 6-tap over source rows (use the unpadded columns).
            let gr = |r: usize| &g[r * pw + 2..r * pw + 2 + width];
            let (r0, r1, r2, r3, r4, r5) = (
                gr(ri - 2),
                gr(ri - 1),
                gr(ri),
                gr(ri + 1),
                gr(ri + 2),
                gr(ri + 3),
            );
            let dst = &mut hp[ly * width..(ly + 1) * width];
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
            // Vertical 6-tap over the horizontal intermediates (20-bit path).
            let br = |r: usize| &b1[r * width..(r + 1) * width];
            let (r0, r1, r2, r3, r4, r5) = (
                br(ri - 2),
                br(ri - 1),
                br(ri),
                br(ri + 1),
                br(ri + 2),
                br(ri + 3),
            );
            let dst = &mut jp[ly * width..(ly + 1) * width];
            for x in 0..width {
                let j1 = tap6(r0[x], r1[x], r2[x], r3[x], r4[x], r5[x]);
                dst[x] = clip8((j1 + 512) >> 10);
            }
        }
    }

    // Assemble all 16 phase rows from whole-row copies and packed averages.
    for ly in 0..h {
        let y = y0 + ly;
        let g0 = &g[(ly + 2) * pw + 2..(ly + 2) * pw + 2 + width];
        let g1 = &g[(ly + 3) * pw + 2..(ly + 3) * pw + 2 + width];
        let b0 = &bp[ly * width..(ly + 1) * width];
        let bd = &bp[(ly + 1) * width..(ly + 2) * width];
        let h0 = &hp[ly * width..(ly + 1) * width];
        let j0 = &jp[ly * width..(ly + 1) * width];

        // Integer and half-pel phases: straight copies.
        bands[0].row_mut(y).copy_from_slice(g0); // G (0,0)
        bands[2].row_mut(y).copy_from_slice(b0); // b (2,0)
        bands[8].row_mut(y).copy_from_slice(h0); // h (0,2)
        bands[10].row_mut(y).copy_from_slice(j0); // j (2,2)

        // Quarter-pel phases (H.264 §8.4.2.2.2 averaging pattern).
        avg_rows(bands[1].row_mut(y), g0, b0); // a (1,0) = avg(G, b)
        avg_rows_shift(bands[3].row_mut(y), b0, g0); // c (3,0) = avg(b, G→)
        avg_rows(bands[4].row_mut(y), g0, h0); // d (0,1) = avg(G, h)
        avg_rows(bands[12].row_mut(y), h0, g1); // n (0,3) = avg(h, G↓)
        avg_rows(bands[6].row_mut(y), b0, j0); // f (2,1) = avg(b, j)
        avg_rows(bands[14].row_mut(y), j0, bd); // q (2,3) = avg(j, b↓)
        avg_rows(bands[9].row_mut(y), h0, j0); // i (1,2) = avg(h, j)
        avg_rows_shift(bands[11].row_mut(y), j0, h0); // k (3,2) = avg(j, h→)
        avg_rows(bands[5].row_mut(y), b0, h0); // e (1,1) = avg(b, h)
        avg_rows_shift(bands[7].row_mut(y), b0, h0); // g (3,1) = avg(b, h→)
        avg_rows(bands[13].row_mut(y), h0, bd); // p (1,3) = avg(h, b↓)
        avg_rows_shift(bands[15].row_mut(y), bd, h0); // r (3,3) = avg(h→, b↓)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn avg8_matches_scalar_avg_exhaustively() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                let packed = avg8(
                    u64::from_le_bytes([a; 8]),
                    u64::from_le_bytes([b, a, b, a, b, a, b, a]),
                );
                let bytes = packed.to_le_bytes();
                assert_eq!(bytes[0], avg(a, b), "a={a} b={b}");
                assert_eq!(bytes[1], avg(a, a));
            }
        }
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
