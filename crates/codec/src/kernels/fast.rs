//! Fast kernels.
//!
//! Every function here is bit-exact against its [`super::scalar`] twin —
//! proven by the differential tests — the only difference is throughput.
//! Three techniques, chosen per kernel by what measured fastest:
//!
//! * Block SAD and the ME search primitives: `std::arch` intrinsics on
//!   x86-64 — `psadbw` ([`sad_block`], SSE2, the baseline) and
//!   `mpsadbw` / `phminposuw` ([`Sse41`], detected at run time) — with a
//!   portable definition of each beside it ([`Portable`], the scalar
//!   `sad_block`) for every other host.
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
// Block SAD (SME)
// ---------------------------------------------------------------------------

/// SAD between two `w × h` blocks given as (slice, stride) raster views.
///
/// Partitions are 4, 8 or 16 samples wide, and on x86-64 each of those is
/// `psadbw` work: one per row at 16 and 8, one per row *pair* at 4. SSE2 is
/// part of the x86-64 baseline, so nothing is detected. Every other shape
/// (and every shape on another architecture) is the scalar loop.
#[inline]
pub fn sad_block(a: &[u8], a_stride: usize, b: &[u8], b_stride: usize, w: usize, h: usize) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        if let Some(sad) = unsafe { x86::sad_block(a, a_stride, b, b_stride, w, h) } {
            return sad;
        }
    }
    super::scalar::sad_block(a, a_stride, b, b_stride, w, h)
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

/// The primitives as plain loops: what runs on non-x86 hosts and on x86
/// before SSE4.1, and the reference [`Sse41`] is tested against.
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

#[cfg(target_arch = "x86_64")]
pub use x86::Sse41;

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::SearchIsa;
    use core::arch::x86_64::*;

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

    /// The `N` bytes one load reads of the block row `s` starts at, stepping
    /// `s` one stride on. Panics, like the scalar loop's slice index, when
    /// the row leaves the slice; the step past the last row may.
    #[inline(always)]
    fn next_row<'a, const N: usize>(s: &mut &'a [u8], stride: usize) -> &'a [u8; N] {
        let row = s.first_chunk().expect("block row inside the slice");
        *s = s.get(stride..).unwrap_or_default();
        row
    }

    /// [`super::sad_block`] for the partition widths; `None` for any other
    /// shape. `psadbw` sums each 8-byte half into its own 64-bit lane.
    #[target_feature(enable = "sse2")]
    #[inline]
    pub fn sad_block(
        mut a: &[u8],
        a_stride: usize,
        mut b: &[u8],
        b_stride: usize,
        w: usize,
        h: usize,
    ) -> Option<u32> {
        let mut acc = _mm_setzero_si128();
        match w {
            16 => {
                for _ in 0..h {
                    let ra = load16(next_row(&mut a, a_stride));
                    let rb = load16(next_row(&mut b, b_stride));
                    acc = _mm_add_epi32(acc, _mm_sad_epu8(ra, rb));
                }
                acc = _mm_add_epi32(acc, _mm_unpackhi_epi64(acc, acc));
            }
            8 => {
                for _ in 0..h {
                    let ra = i64::from_le_bytes(*next_row(&mut a, a_stride));
                    let rb = i64::from_le_bytes(*next_row(&mut b, b_stride));
                    acc = _mm_add_epi32(
                        acc,
                        _mm_sad_epu8(_mm_cvtsi64_si128(ra), _mm_cvtsi64_si128(rb)),
                    );
                }
            }
            4 if h.is_multiple_of(2) => {
                // Two rows side by side in the low eight bytes.
                let pair = |s: &mut &[u8], stride: usize| {
                    let lo = i32::from_le_bytes(*next_row(s, stride));
                    let hi = i32::from_le_bytes(*next_row(s, stride));
                    _mm_set_epi32(0, 0, hi, lo)
                };
                for _ in 0..h / 2 {
                    let (ra, rb) = (pair(&mut a, a_stride), pair(&mut b, b_stride));
                    acc = _mm_add_epi32(acc, _mm_sad_epu8(ra, rb));
                }
            }
            _ => return None,
        }
        Some(_mm_cvtsi128_si32(acc) as u32)
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
