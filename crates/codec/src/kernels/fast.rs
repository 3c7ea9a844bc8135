//! Fast kernels.
//!
//! Every function here is bit-exact against its [`super::scalar`] twin —
//! proven by the differential tests — the only difference is throughput.
//! Four techniques, chosen per kernel by what measured fastest:
//!
//! * The SME refinement and ME search primitives: `std::arch` intrinsics
//!   on x86-64 — packed-block `psadbw` ([`Sse2`], the baseline, so nothing
//!   is detected) and `mpsadbw` / `phminposuw` ([`Sse41`], detected at run
//!   time) — with a portable definition of each beside it ([`Portable`])
//!   for every other host, which is also what the `scalar` family's SME
//!   runs.
//! * The deblocking line filter: the sixteen sample lines that cross one
//!   macroblock edge at once in SSE2 `i16` lanes ([`Sse2`]), against one
//!   line at a time ([`Portable`], the definition and the `scalar` family).
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
/// [`Portable`] is the definition (and what the `scalar` family runs);
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

/// The two operations the candidate-major full search ([`crate::me`]) is
/// built from, over eight `u16` lanes — one lane per candidate of a batch.
///
/// [`Portable`] is the definition; [`Sse41`] is the same pair as one
/// instruction each. The search body is written once against this trait.
pub trait SearchIsa: Copy {
    /// SADs of one 4-byte group of `cur` against eight consecutive
    /// 4-byte windows of `refs`:
    /// `out[i] = Σ_{j<4} |refs[o + i + j] − cur[4g + j]|` for `i < 8`, with
    /// `g = IMM & 3` and `o = IMM & 4` — the immediate of `mpsadbw`.
    fn sad4x8<const IMM: i32>(self, refs: &[u8; 16], cur: &[u8; 16]) -> [u16; 8];

    /// Minimum of the eight lanes and the lowest index that holds it.
    fn min_pos(self, v: [u16; 8]) -> (u16, usize);
}

/// The primitives as plain loops: what runs on non-x86 hosts (and, for the
/// search, on x86 before SSE4.1), and the reference [`Sse2`] and [`Sse41`]
/// are tested against.
#[derive(Clone, Copy, Debug)]
pub struct Portable;

impl SearchIsa for Portable {
    #[inline(always)]
    fn sad4x8<const IMM: i32>(self, refs: &[u8; 16], cur: &[u8; 16]) -> [u16; 8] {
        let (g, o) = ((IMM & 3) as usize * 4, (IMM & 4) as usize);
        core::array::from_fn(|i| {
            (0..4)
                .map(|j| refs[o + i + j].abs_diff(cur[g + j]) as u16)
                .sum()
        })
    }

    #[inline(always)]
    fn min_pos(self, v: [u16; 8]) -> (u16, usize) {
        // Strict `<` keeps the first of equal minima, as `phminposuw` does.
        let mut best = 0;
        for i in 1..8 {
            if v[i] < v[best] {
                best = i;
            }
        }
        (v[best], best)
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
/// what the `scalar` family runs); [`Sse2`] filters the sixteen lines at
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
pub use x86::{Sse2, Sse41};

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{check_span, DeblockIsa, EdgeFilter, RefineIsa, SearchIsa};
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

    /// Proof that this CPU has SSE4.1: the only constructor is
    /// [`Sse41::detect`], so holding one makes the intrinsics below sound.
    #[derive(Clone, Copy, Debug)]
    pub struct Sse41(());

    impl Sse41 {
        /// `Some` when the running CPU reports SSE4.1.
        pub fn detect() -> Option<Self> {
            is_x86_feature_detected!("sse4.1").then_some(Sse41(()))
        }
    }

    #[inline(always)]
    fn load16(s: &[u8; 16]) -> __m128i {
        // SAFETY: `s` borrows exactly the 16 bytes read, `loadu` has no
        // alignment requirement, and SSE2 is part of the x86-64 baseline.
        unsafe { _mm_loadu_si128(s.as_ptr().cast()) }
    }

    impl SearchIsa for Sse41 {
        #[inline(always)]
        fn sad4x8<const IMM: i32>(self, refs: &[u8; 16], cur: &[u8; 16]) -> [u16; 8] {
            // SAFETY: `self` proves SSE4.1 was detected; `__m128i` and
            // `[u16; 8]` are both 16 plain bytes.
            unsafe {
                let sads = _mm_mpsadbw_epu8::<IMM>(load16(refs), load16(cur));
                core::mem::transmute::<__m128i, [u16; 8]>(sads)
            }
        }

        #[inline(always)]
        fn min_pos(self, v: [u16; 8]) -> (u16, usize) {
            // SAFETY: as above. `phminposuw` puts the minimum in bits 0..16,
            // its lowest index in bits 16..19, and zeroes the rest.
            let r = unsafe {
                let v = core::mem::transmute::<[u16; 8], __m128i>(v);
                _mm_cvtsi128_si32(_mm_minpos_epu16(v))
            };
            (r as u16, (r >> 16) as usize)
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

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sad4x8_sse41_matches_portable_for_every_byte_pair() {
        let Some(sse) = Sse41::detect() else { return };
        fn check<const IMM: i32>(sse: Sse41, refs: &[u8; 16], cur: &[u8; 16]) {
            assert_eq!(
                sse.sad4x8::<IMM>(refs, cur),
                Portable.sad4x8::<IMM>(refs, cur),
                "imm {IMM} refs {refs:?} cur {cur:?}"
            );
        }
        let mut refs: [u8; 16] = core::array::from_fn(|i| (i * 37 + 5) as u8);
        let mut cur: [u8; 16] = core::array::from_fn(|i| (200 - i * 11) as u8);
        // Byte 7 of `refs` is read by every immediate used (offsets 0 and
        // 4 each cover 11 bytes) and lands in a different lane for each;
        // the current-group byte moves with the group.
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                refs[7] = a;
                cur.fill(b);
                check::<0b000>(sse, &refs, &cur);
                check::<0b101>(sse, &refs, &cur);
                check::<0b010>(sse, &refs, &cur);
                check::<0b111>(sse, &refs, &cur);
            }
        }
        // The other four immediates, so the decoding of IMM is pinned too.
        check::<0b001>(sse, &refs, &cur);
        check::<0b011>(sse, &refs, &cur);
        check::<0b100>(sse, &refs, &cur);
        check::<0b110>(sse, &refs, &cur);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn min_pos_sse41_matches_portable_for_every_lane_value() {
        let Some(sse) = Sse41::detect() else { return };
        for lane in 0..8 {
            // Neighbours at 40 000 on both sides of the swept lane: below
            // it the lane wins, at it the tie goes to the lowest index,
            // above it the lowest neighbour wins.
            let mut v = [40_000u16; 8];
            for x in 0..=u16::MAX {
                v[lane] = x;
                assert_eq!(sse.min_pos(v), Portable.min_pos(v), "{v:?}");
            }
        }
        assert_eq!(Portable.min_pos([7; 8]), (7, 0));
        assert_eq!(Portable.min_pos([9, 8, 3, 3, 8, 3, 9, 9]), (3, 2));
        assert_eq!(Portable.min_pos([u16::MAX; 8]), (u16::MAX, 0));
    }
}
