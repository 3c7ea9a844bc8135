//! Differential tests: the product's hot kernels against their references.
//!
//! The product runs one kernel family: `feves_codec::kernels::fast` and the
//! candidate-major ME search and SME refinement built on it. Each must be a
//! **bit-exact** replacement for its reference, which this suite calls by
//! name — `me::motion_estimate_rows_reference`,
//! `sme::sme_rows_reference`, `dbl::deblock_frame_reference`,
//! `quant::tq_block` (and `recon::tq_rows_reference`, one `tq_block` per
//! block) and `kernels::scalar::interp_band`. It checks that at three
//! levels:
//!
//! 1. property-based differentials over random planes/blocks, each
//!    reference against the product entry point on the same inputs —
//!    including the portable and `std::arch` forms of the ME search and
//!    SME refinement primitives, so the path a host without AVX2 (or a
//!    non-x86 one) takes is exercised on every run (DBL's two line filters
//!    and TQ's two pair primitives, crate-private, are compared lane by
//!    lane in `kernels::fast`'s own tests — there also every coefficient
//!    a ±255 residual reaches goes through the quantizer lanes at every QP);
//! 2. a real QCIF encode: on every frame each reference, run on the inputs
//!    the encoder used, writes what the product wrote, and the decoder
//!    reproduces the encoder's reconstruction;
//! 3. the compressed streams themselves: length, bit count and CRC-32 of
//!    each stream kind are pinned, and every truncated or bit-flipped
//!    stream of each kind decodes or surfaces `DecodeError`, never panics.
//!
//! Also holds the release-mode regression test for the `row_sad` length
//! contract (CI runs this file under `--release` where `debug_assert!`
//! alone would be compiled out).

mod common;

use common::qcif_frames;
use feves::codec::cabac::EntropyBackend;
use feves::codec::cabac::{decode_frame_cabac, encode_frame_cabac};
use feves::codec::decoder::{decode_inter_frame_yuv, decode_yuv};
use feves::codec::entropy::{decode_frame_yuv, encode_frame_yuv};
use feves::codec::inter_loop::{
    encode_inter_frame_yuv, InterFrameOutput, InterFrameOutputYuv, ReferenceStore,
};
use feves::codec::interp::SubpelFrame;
use feves::codec::kernels;
#[cfg(target_arch = "x86_64")]
use feves::codec::kernels::fast::{Avx2, Sse2};
use feves::codec::kernels::fast::{Portable, RefineIsa, SearchIsa};
use feves::codec::me::{motion_estimate_rows, motion_estimate_rows_reference, MeField};
use feves::codec::sme::{sme_rows, sme_rows_reference, SmeField};
use feves::codec::types::{EncodeParams, SearchArea};
use feves::video::geometry::RowRange;
use feves::video::plane::{Plane, PlaneBandMut};
use feves::video::Frame;
use proptest::prelude::*;

/// A row kernel of the interpolation: `kernels::fast::interp_band` (four stored
/// phases) or its reference `kernels::scalar::interp_band` (all sixteen).
type BandKernel = fn(&Plane<u8>, usize, usize, usize, &mut [PlaneBandMut<'_, u8>]);

/// The `n` phase planes `kernel` writes for `rf` in one band.
fn phases_by(rf: &Plane<u8>, kernel: BandKernel, n: usize) -> Vec<Plane<u8>> {
    let (w, h) = (rf.width(), rf.height());
    let mut phases = vec![Plane::new(w, h); n];
    let mut bands: Vec<_> = phases
        .iter_mut()
        .map(|p| p.split_rows_mut(&[h]).remove(0))
        .collect();
    kernel(rf, w, 0, h, &mut bands);
    drop(bands);
    phases
}

/// The sixteen quarter-pel phase planes of `rf` (index `fy * 4 + fx`) as
/// the reference writes them.
fn reference_phases(rf: &Plane<u8>) -> Vec<Plane<u8>> {
    phases_by(rf, kernels::scalar::interp_band, 16)
}

/// The first `(phase, x, y)` at which `sf` reads differently from the
/// sixteen reference planes `want`: every phase through
/// `SubpelFrame::sample`, over the frame and two samples beyond each edge,
/// where the reference is read clamped.
fn first_mismatch(sf: &SubpelFrame, want: &[Plane<u8>]) -> Option<(usize, isize, isize)> {
    let (w, h) = (sf.width() as isize, sf.height() as isize);
    let at = |x: isize, y: isize| (0..16).map(move |k| (k, x, y));
    (-2..h + 2)
        .flat_map(|y| (-2..w + 2).flat_map(move |x| at(x, y)))
        .find(|&(k, x, y)| {
            let (qx, qy) = (x * 4 + k as isize % 4, y * 4 + k as isize / 4);
            sf.sample(qx, qy) != want[k].get_clamped(x, y)
        })
}

fn plane_from_bytes(w: usize, h: usize, bytes: &[u8]) -> Plane<u8> {
    Plane::from_fn(w, h, |x, y| bytes[y * w + x])
}

proptest! {
    /// The reference `row_sad` is the plain definition, and a row's whole
    /// 16-sample chunks are `16 × 1` blocks on which the packed SAD of
    /// either refinement primitive set agrees with it.
    #[test]
    fn prop_row_sad_matches(a in proptest::collection::vec(any::<u8>(), 0..128)) {
        fn packed<I: RefineIsa>(isa: I, a: &[u8], b: &[u8]) -> u32 {
            (0..a.len() / 16)
                .map(|i| isa.sad(&isa.load::<16, 1, 1>(a, i * 16, 16), &isa.load::<16, 1, 1>(b, i * 16, 16)))
                .sum()
        }
        let b: Vec<u8> = a.iter().rev().map(|v| v.wrapping_mul(31)).collect();
        let plain: u32 = a.iter().zip(&b).map(|(&x, &y)| x.abs_diff(y) as u32).sum();
        prop_assert_eq!(plain, kernels::scalar::row_sad(&a, &b));
        let whole = a.len() / 16 * 16;
        let want = kernels::scalar::row_sad(&a[..whole], &b[..whole]);
        prop_assert_eq!(want, packed(Portable, &a, &b));
        #[cfg(target_arch = "x86_64")]
        prop_assert_eq!(want, packed(Sse2, &a, &b));
    }

    /// Whole refined fields, reference vs product, on planes so small that
    /// the candidates straddle an edge (on a one-macroblock frame every
    /// non-zero one does), from ME vectors that point up to 8 samples
    /// outside, with the second reference the better match so ME picks it.
    #[test]
    fn prop_sme_refine_matches(
        bytes in proptest::collection::vec(any::<u8>(), 48 * 48),
        mb_cols in 1usize..=3, mb_rows in 1usize..=3,
        sa in prop_oneof![Just(8u16), Just(12), Just(16)],
        n_ref in 1usize..=2,
        (dx, dy) in (-3isize..=3, -3isize..=3),
    ) {
        let (w, h) = (mb_cols * 16, mb_rows * 16);
        let cur = plane_from_bytes(w, h, &bytes);
        let far: Vec<u8> = bytes.iter().map(|v| v.wrapping_add(77)).collect();
        let rf0 = plane_from_bytes(w, h, &far);
        // The current frame displaced, ±1 of noise on top.
        let mut rf1 = Plane::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let v = cur.get_clamped(x as isize + dx, y as isize + dy);
                rf1.set(x, y, v.saturating_add(bytes[y * w + x] & 1));
            }
        }
        let params = EncodeParams { search_area: SearchArea(sa), n_ref, ..Default::default() };
        let rows = RowRange::new(0, mb_rows);
        let mut me = MeField::new(mb_cols, mb_rows);
        motion_estimate_rows(&cur, &[&rf0, &rf1], &params, rows, me.rows_mut(rows));
        if n_ref == 2 {
            prop_assert!(me.rows(rows).iter().any(|mb| mb.all_blocks().iter().any(|b| b.rf == 1)));
        }
        let sf0 = feves::codec::interp::interpolate(&rf0);
        let sf1 = feves::codec::interp::interpolate(&rf1);
        let sfs = [&sf0, &sf1];
        let (mut want, mut got) = (SmeField::new(mb_cols, mb_rows), SmeField::new(mb_cols, mb_rows));
        sme_rows_reference(&cur, &sfs[..n_ref], me.rows(rows), rows, want.rows_mut(rows));
        sme_rows(&cur, &sfs[..n_ref], me.rows(rows), rows, got.rows_mut(rows));
        prop_assert!(want == got);
    }

    /// Refined fields, reference vs product, from ME starts whose full-pel
    /// x or y is 0 or 1 on a plane one macroblock wide: the product keeps
    /// and averages half-pel blocks from `(1, 1)` on and fetches each
    /// candidate through `block` left of or above that, so both of its
    /// fetch forms and the switch between them run, against the left and
    /// top edges and (one macroblock wide) the right one.
    #[test]
    fn prop_sme_refine_matches_from_starts_at_the_first_column_and_row(
        bytes in proptest::collection::vec(any::<u8>(), 16 * 48),
        starts in proptest::collection::vec((0i16..2, -3i16..=20, any::<bool>(), 0u8..2), 41 * 3),
        mb_rows in 1usize..=3,
    ) {
        use feves::codec::me::BlockMv;
        use feves::codec::types::{Mv, ALL_PARTITION_MODES};
        let (w, h) = (16, 16 * mb_rows);
        let cur = plane_from_bytes(w, h, &bytes[..w * h]);
        let rfs: Vec<Plane<u8>> = [3u8, 151]
            .map(|k| Plane::from_fn(w, h, |x, y| bytes[y * w + x].wrapping_mul(k).wrapping_add(y as u8)))
            .into();
        let rows = RowRange::new(0, mb_rows);
        let mut me = MeField::new(1, mb_rows);
        let mut starts = starts.iter().cycle();
        for (mby, mb) in me.rows_mut(rows).iter_mut().enumerate() {
            for mode in ALL_PARTITION_MODES {
                for i in 0..mode.count() {
                    let (ox, oy) = mode.offset(i);
                    let (bx, by) = (ox as i16, (mby * 16 + oy) as i16);
                    // One coordinate at 0 or 1, the other anywhere from
                    // three samples left of (above) the frame to past it.
                    let &(edge, other, x_at_edge, rf) = starts.next().unwrap();
                    let (x, y) = if x_at_edge { (edge, other) } else { (other, edge) };
                    *mb.block_mut(mode, i) = BlockMv { rf, mv: Mv::new(x - bx, y - by), cost: 0 };
                }
            }
        }
        let sfs: Vec<_> = rfs.iter().map(feves::codec::interp::interpolate).collect();
        let sfs: Vec<&SubpelFrame> = sfs.iter().collect();
        let (mut want, mut got) = (SmeField::new(1, mb_rows), SmeField::new(1, mb_rows));
        sme_rows_reference(&cur, &sfs, me.rows(rows), rows, want.rows_mut(rows));
        sme_rows(&cur, &sfs, me.rows(rows), rows, got.rows_mut(rows));
        prop_assert!(want == got);
    }

    /// Refined fields, reference vs product, on planes 4–6 macroblocks wide
    /// with one or two references, from ME starts in the interior and
    /// within two samples of the right and bottom edges. The product
    /// streams every candidate of such a start from one window — a view of
    /// the stored planes inside the frame, a copy that repeats the edge
    /// past it — so both window forms run, under every half-pel winner.
    #[test]
    fn prop_sme_refine_matches_streamed_from_interior_and_right_and_bottom_starts(
        bytes in proptest::collection::vec(any::<u8>(), 96 * 64),
        mb_cols in 4usize..=6, mb_rows in 2usize..=4,
        n_ref in 1usize..=2,
        starts in proptest::collection::vec(
            ((any::<bool>(), any::<u16>(), -2i16..=2), (any::<bool>(), any::<u16>(), -2i16..=2), 0u8..2),
            41 * 6,
        ),
    ) {
        use feves::codec::me::BlockMv;
        use feves::codec::types::{Mv, ALL_PARTITION_MODES};
        let (w, h) = (16 * mb_cols, 16 * mb_rows);
        let cur = plane_from_bytes(w, h, &bytes[..w * h]);
        let rfs: Vec<Plane<u8>> = [5u8, 77]
            .map(|k| Plane::from_fn(w, h, |x, y| bytes[(y * w + x + 13) % bytes.len()].wrapping_add(k)))
            .into();
        // A full-pel start whose window `X − 1 ..= X + len` is inside the
        // frame, or whose block ends within two samples of the far edge.
        let start = |(at_edge, r, d): (bool, u16, i16), len: usize, frame: usize| {
            if at_edge {
                (frame - len) as i16 + d
            } else {
                1 + (r as usize % (frame - len - 1)) as i16
            }
        };
        let rows = RowRange::new(0, mb_rows);
        let mut me = MeField::new(mb_cols, mb_rows);
        let mut starts = starts.iter().cycle();
        for (k, mb) in me.rows_mut(rows).iter_mut().enumerate() {
            let (mbx, mby) = (k % mb_cols, k / mb_cols);
            for mode in ALL_PARTITION_MODES {
                let (bw, bh) = mode.dims();
                for i in 0..mode.count() {
                    let (ox, oy) = mode.offset(i);
                    let (bx, by) = ((mbx * 16 + ox) as i16, (mby * 16 + oy) as i16);
                    let &(sx, sy, rf) = starts.next().unwrap();
                    let (x, y) = (start(sx, bw, w), start(sy, bh, h));
                    let rf = rf % n_ref as u8;
                    *mb.block_mut(mode, i) = BlockMv { rf, mv: Mv::new(x - bx, y - by), cost: 0 };
                }
            }
        }
        let sfs: Vec<_> = rfs[..n_ref].iter().map(feves::codec::interp::interpolate).collect();
        let sfs: Vec<&SubpelFrame> = sfs.iter().collect();
        let (mut want, mut got) = (SmeField::new(mb_cols, mb_rows), SmeField::new(mb_cols, mb_rows));
        sme_rows_reference(&cur, &sfs, me.rows(rows), rows, want.rows_mut(rows));
        sme_rows(&cur, &sfs, me.rows(rows), rows, got.rows_mut(rows));
        prop_assert!(want == got);
    }

    /// Whole motion fields, batched search vs per-candidate loop, on planes
    /// small enough that most candidates are border-clamped, at every shape
    /// the sixteen lanes take: SA 8 pairs two candidate rows, 12 and 24
    /// leave a row's last half-batch partly outside the search area (24 also
    /// pairs across rows), 16 is one vector per row and 32 two.
    #[test]
    fn prop_me_search_matches(
        bytes in proptest::collection::vec(any::<u8>(), 48 * 48),
        mb_cols in 1usize..=3, mb_rows in 1usize..=3,
        sa in prop_oneof![Just(8u16), Just(12), Just(16), Just(24), Just(32)],
        n_ref in 1usize..=2,
    ) {
        let (w, h) = (mb_cols * 16, mb_rows * 16);
        let cur = plane_from_bytes(w, h, &bytes);
        let shifted: Vec<u8> = bytes.iter().map(|v| v.wrapping_add(77)).collect();
        let rf0 = plane_from_bytes(w, h, &shifted);
        let reversed: Vec<u8> = bytes.iter().rev().copied().collect();
        let rf1 = plane_from_bytes(w, h, &reversed);
        let params = EncodeParams { search_area: SearchArea(sa), n_ref, ..Default::default() };
        let rows = RowRange::new(0, mb_rows);
        let (mut want, mut got) = (MeField::new(mb_cols, mb_rows), MeField::new(mb_cols, mb_rows));
        motion_estimate_rows_reference(&cur, &[&rf0, &rf1], &params, rows, want.rows_mut(rows));
        motion_estimate_rows(&cur, &[&rf0, &rf1], &params, rows, got.rows_mut(rows));
        prop_assert!(want == got);
    }

    /// The ME search primitives, portable vs `std::arch`, every lane random
    /// (the unit tests sweep one lane exhaustively): a row of cells over a
    /// random window, stride and pair of half-batch starts, and a run of
    /// `keep`s then the `reduce` over random lanes and over lanes of three
    /// values, where most draws tie — within a half and, at one position
    /// for both halves, between them.
    #[test]
    fn prop_search_primitives_match(
        win in proptest::collection::vec(any::<u8>(), 200),
        stride in 24usize..=40,
        starts in (0usize..=40, 0usize..=40),
        cur in proptest::collection::vec(any::<u8>(), 64),
        words in proptest::collection::vec(any::<u16>(), 4 * 16),
    ) {
        let starts = [starts.0, starts.1];
        let cur: [[u8; 16]; 4] = core::array::from_fn(|y| cur[y * 16..][..16].try_into().unwrap());
        let cells = Portable.cell_row(&win, starts, stride, &cur);
        // Every lane a plain SAD of its candidate's cell.
        for (gx, cell) in cells.iter().enumerate() {
            for (l, &v) in cell.iter().enumerate() {
                let o = starts[l / 8] + l % 8 + 4 * gx;
                let sad: u32 = (0..4)
                    .flat_map(|y| (0..4).map(move |x| (y, x)))
                    .map(|(y, x)| win[o + y * stride + x].abs_diff(cur[y][4 * gx + x]) as u32)
                    .sum();
                prop_assert_eq!(u32::from(v), sad);
            }
        }
        let vectors: Vec<[u16; 16]> = words.chunks_exact(16).map(|c| c.try_into().unwrap()).collect();
        // Positions below 2¹³, as `reduce` requires; the tied variant gives
        // both halves one position per fold.
        let at = |i: usize, tied: bool| -> [u16; 16] {
            core::array::from_fn(|l| if tied { i as u16 } else { vectors[i][l] % (1 << 13) })
        };
        for tied in [false, true] {
            let cost = |i: usize| -> [u16; 16] {
                core::array::from_fn(|l| if tied { vectors[i][l] % 3 } else { vectors[i][l] })
            };
            let (mut best, mut pos) = ([u16::MAX; 16], [0u16; 16]);
            for i in 0..vectors.len() {
                Portable.keep(&mut best, &mut pos, cost(i), at(i, tied));
            }
            let (c, p, column) = Portable.reduce(best, pos);
            prop_assert!((0..16).any(|l| (best[l], pos[l], l % 8) == (c, p, column)));
            prop_assert_eq!(Some(c), best.iter().copied().min());
            #[cfg(target_arch = "x86_64")]
            if let Some(avx) = Avx2::detect() {
                let (mut b, mut q) = (avx.lanes([u16::MAX; 16]), avx.lanes([0; 16]));
                for i in 0..vectors.len() {
                    avx.keep(&mut b, &mut q, avx.lanes(cost(i)), avx.lanes(at(i, tied)));
                }
                prop_assert_eq!((avx.array(b), avx.array(q)), (best, pos));
                prop_assert_eq!(avx.reduce(b, q), (c, p, column));
            }
        }
        #[cfg(target_arch = "x86_64")]
        if let Some(avx) = Avx2::detect() {
            let got = avx.cell_row(&win, starts, stride, &cur);
            prop_assert_eq!(got.map(|v| avx.array(v)), cells);
        }
    }

    /// The interpolation row kernel, reference vs product (the product's
    /// four bands are the reference's stored phases), and all sixteen
    /// phases of the product SF built through `interpolate`'s
    /// macroblock-row bands.
    #[test]
    fn prop_interpolate_matches(seed in any::<u64>(), w in 1usize..40, h in 1usize..40) {
        let mut p = Plane::new(w, h);
        let mut s = seed | 1;
        for y in 0..h {
            for x in 0..w {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                p.set(x, y, (s >> 56) as u8);
            }
        }
        let want = reference_phases(&p);
        let stored = [0, 2, 8, 10].map(|k| want[k].clone());
        prop_assert!(stored[..] == phases_by(&p, kernels::fast::interp_band, 4)[..]);
        let sf = feves::codec::interp::interpolate(&p);
        prop_assert_eq!(first_mismatch(&sf, &want), None);
    }

    /// DBL: the reference's line-at-a-time filter is the definition and the
    /// product's sixteen-lane form must write the same plane — over
    /// every QP that filters, edges of every strength (coded blocks, a
    /// vector step of exactly one sample, a reference change, none) and
    /// sample steps on both sides of α and β.
    #[test]
    fn prop_deblock_matches(seed in any::<u64>(), qp in 16u8..=51, mb_cols in 1usize..4, mb_rows in 1usize..4) {
        use feves::codec::mc::ModeField;
        use feves::codec::recon::CoeffField;
        use feves::codec::types::{QpelMv, ALL_PARTITION_MODES};
        let mut s = seed | 1;
        let mut draw = |n: u64| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) % n
        };
        let mut modes = ModeField::new(mb_cols, mb_rows);
        let mut coeffs = CoeffField::new(mb_cols, mb_rows);
        for mby in 0..mb_rows {
            for mbx in 0..mb_cols {
                let m = modes.mb_mut(mbx, mby);
                m.mode = ALL_PARTITION_MODES[draw(7) as usize];
                for blk in &mut m.mvs {
                    blk.rf = (draw(4) == 0) as u8;
                    blk.mv = QpelMv::new(draw(3) as i16 * 4, draw(2) as i16 * 4);
                }
                coeffs.mb_mut(mbx, mby).coded_mask = (draw(1 << 16) & draw(1 << 16)) as u16;
            }
        }
        // A staircase of small steps: neighbours 0 … `spread` apart.
        let spread = 2 + draw(40);
        let base = draw(200);
        let mut p = Plane::new(mb_cols * 16, mb_rows * 16);
        for y in 0..mb_rows * 16 {
            for x in 0..mb_cols * 16 {
                p.set(x, y, (base + draw(spread)) as u8);
            }
        }
        let (mut want, mut got) = (p.clone(), p);
        feves::codec::dbl::deblock_frame_reference(&mut want, &modes, &coeffs, qp);
        feves::codec::dbl::deblock_frame(&mut got, &modes, &coeffs, qp);
        prop_assert_eq!(want, got);
    }
}

/// A residual sample in `regime`: anywhere in ±255, ±255 only, or near
/// zero, where most levels quantize to 0 — or, at `(x, y)`, 255 signed as
/// the basis function `(a, b)` of the 4×4 transform, which drives that
/// coefficient of every block to the butterflies' bound of 9 180.
fn residual_sample(
    regime: u64,
    draw: &mut impl FnMut(u64) -> u64,
    (x, y): (usize, usize),
    (a, b): (usize, usize),
) -> i16 {
    const CF: [[i16; 4]; 4] = [[1, 1, 1, 1], [2, 1, -1, -2], [1, -1, -1, 1], [1, -2, 2, -1]];
    match regime {
        0 => draw(511) as i16 - 255,
        1 => [-255, 255][draw(2) as usize],
        2 => draw(7) as i16 - 3,
        _ => 255 * (CF[a][y % 4] * CF[b][x % 4]).signum(),
    }
}

/// One `tq_block` per block of a region `cols` blocks wide: the levels and
/// the non-zero bits the batches must return.
fn tq_by_block(
    src: &[i16],
    stride: usize,
    cols: usize,
    n: usize,
    qp: u8,
    intra: bool,
) -> (Vec<[i16; 16]>, u16) {
    let levels: Vec<[i16; 16]> = (0..n)
        .map(|k| {
            let (bx, by) = (k % cols * 4, k / cols * 4);
            let block = core::array::from_fn(|i| src[(by + i / 4) * stride + bx + i % 4]);
            feves::codec::quant::tq_block(&block, qp, intra)
        })
        .collect();
    let mask = (levels.iter().enumerate())
        .map(|(k, l)| u16::from(feves::codec::quant::has_coefficients(l)) << k)
        .sum();
    (levels, mask)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The forward TQ batches the encoder runs — luma's per macroblock
    /// (`recon::tq_row` over the residual plane), chroma's per 8×8
    /// component and I16's per 16×16 macroblock (`kernels::tq_blocks` on
    /// the buffers those callers fill) — against one `quant::tq_block` per
    /// block, levels and coded masks, at every QP, intra and inter, over
    /// random residuals and the saturating ±255 patterns.
    #[test]
    fn prop_tq_batches_match_tq_block(seed in any::<u64>(), qp in 0u8..=51, intra in any::<bool>(), mb_cols in 1usize..4) {
        use feves::codec::recon::{tq_row, MbCoeffs};
        let mut s = seed | 1;
        let mut draw = |n: u64| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) % n
        };
        let regime = draw(4);
        let basis = (draw(4) as usize, draw(4) as usize);
        let (w, h) = (mb_cols * 16, 32);
        let residual = Plane::from_fn(w, h, |x, y| residual_sample(regime, &mut draw, (x, y), basis));
        for mby in 0..2 {
            let mut row = vec![MbCoeffs::default(); mb_cols];
            tq_row(&residual, qp, intra, mby, &mut row);
            for (mbx, mb) in row.iter().enumerate() {
                let src = &residual.as_slice()[mby * 16 * w + mbx * 16..];
                let (levels, mask) = tq_by_block(src, w, 4, 16, qp, intra);
                prop_assert_eq!(&mb.blocks[..], &levels[..]);
                prop_assert_eq!(mb.coded_mask, mask);
            }
        }

        let chroma: [i16; 64] = core::array::from_fn(|i| residual_sample(regime, &mut draw, (i % 8, i / 8), basis));
        let mut blocks = [[0i16; 16]; 4];
        let mask = feves::codec::kernels::tq_blocks(&chroma, 8, 2, qp, intra, &mut blocks);
        let (levels, want) = tq_by_block(&chroma, 8, 2, 4, qp, intra);
        prop_assert_eq!(&blocks[..], &levels[..]);
        prop_assert_eq!(mask, want);

        let mb: [i16; 256] = core::array::from_fn(|i| residual_sample(regime, &mut draw, (i % 16, i / 16), basis));
        let mut blocks = [[0i16; 16]; 16];
        let mask = feves::codec::kernels::tq_blocks(&mb, 16, 4, qp, intra, &mut blocks);
        let (levels, want) = tq_by_block(&mb, 16, 4, 16, qp, intra);
        prop_assert_eq!(&blocks[..], &levels[..]);
        prop_assert_eq!(mask, want);
    }
}

fn params_sa(sa: u16) -> EncodeParams {
    EncodeParams {
        search_area: SearchArea(sa),
        n_ref: 2,
        ..Default::default()
    }
}

fn params() -> EncodeParams {
    params_sa(16)
}

/// Each reference, run on the inputs `encode_inter_frame_yuv` used for `out`,
/// writes what the product wrote: ME, INT (the store's SFs), SME, TQ and
/// DBL. DBL's input, the reconstruction before the filter, is rebuilt from
/// the encoder's own fields by MC and TQ⁻¹.
fn references_agree(
    cf: &Plane<u8>,
    store: &ReferenceStore,
    params: &EncodeParams,
    out: &InterFrameOutput,
    what: &str,
) {
    use feves::codec::dbl::{deblock_frame, deblock_frame_reference};
    use feves::codec::mc::{mc_rows, ModeField};
    use feves::codec::recon::{itq_recon_rows, tq_rows_reference, CoeffField};
    let (w, h) = (cf.width(), cf.height());
    let (mb_cols, mb_rows) = (w / 16, h / 16);
    let rows = RowRange::new(0, mb_rows);
    let params = EncodeParams {
        n_ref: out.refs_used,
        ..*params
    };
    let (rfs, sfs) = (store.rf_planes(), store.sfs());

    let mut me = MeField::new(mb_cols, mb_rows);
    motion_estimate_rows_reference(cf, &rfs, &params, rows, me.rows_mut(rows));
    assert!(me == out.me, "{what}: ME");
    for (r, (rf, sf)) in rfs.iter().zip(&sfs).enumerate() {
        let bad = first_mismatch(sf, &reference_phases(rf));
        assert!(bad.is_none(), "{what}: INT of reference {r}: {bad:?}");
    }
    let mut sme = SmeField::new(mb_cols, mb_rows);
    sme_rows_reference(cf, &sfs, out.me.rows(rows), rows, sme.rows_mut(rows));
    assert!(sme == out.sme, "{what}: SME");

    let mut modes = ModeField::new(mb_cols, mb_rows);
    let (mut pred, mut residual) = (Plane::new(w, h), Plane::new(w, h));
    let sme_rows = out.sme.rows(rows);
    mc_rows(
        cf,
        &sfs,
        sme_rows,
        params.qp,
        rows,
        &mut modes,
        &mut pred,
        &mut residual,
    );
    assert!(modes == out.modes, "{what}: MC");
    let mut coeffs = CoeffField::new(mb_cols, mb_rows);
    tq_rows_reference(&residual, params.qp, false, rows, &mut coeffs);
    assert!(coeffs == out.coeffs, "{what}: TQ");
    let mut unfiltered = Plane::new(w, h);
    itq_recon_rows(&out.coeffs, &pred, params.qp, rows, &mut unfiltered);
    let mut product = unfiltered.clone();
    deblock_frame(&mut product, &out.modes, &out.coeffs, params.qp);
    assert!(product == out.recon, "{what}: DBL's input is the encoder's");
    deblock_frame_reference(&mut unfiltered, &out.modes, &out.coeffs, params.qp);
    assert!(unfiltered == out.recon, "{what}: DBL");
}

/// A real clip through the product encoder, with two references, at two
/// candidate rows per ME vector (SA 8), one vector per row (SA 16) and two
/// (SA 32): on every frame each reference kernel agrees with the product
/// on the encoder's own inputs, and decoding the stream reproduces the
/// encoder's reconstruction bit-exactly.
#[test]
fn encode_decode_roundtrip_is_kernel_invariant() {
    let frames = qcif_frames(5);
    for sa in [8, 16, 32] {
        let params = params_sa(sa);
        for (i, (out, store)) in coded_yuv_frames(&frames, &params).iter().enumerate() {
            let what = format!("SA {sa} frame {}", i + 1);
            references_agree(frames[i + 1].y(), store, &params, &out.luma, &what);
            let dec = decode_inter_frame_yuv(&out.bitstream, store)
                .unwrap_or_else(|e| panic!("{what} must decode: {e}"));
            assert_eq!(dec.y, out.luma.recon, "{what}: decoder/encoder luma");
            let uv = Some((out.chroma.recon_u.clone(), out.chroma.recon_v.clone()));
            assert!(dec.chroma == uv, "{what}: decoder/encoder chroma");
        }
    }
}

/// P-frames `1..frames.len()` through the reference YUV loop: each frame's coded fields and the store it was
/// coded against — which is what decoding its stream needs.
fn coded_yuv_frames(
    frames: &[Frame],
    params: &EncodeParams,
) -> Vec<(InterFrameOutputYuv, ReferenceStore)> {
    let f0 = &frames[0];
    let intra = feves::codec::intra::encode_intra_frame(f0.y(), params.qp_intra);
    let c0 = feves::codec::chroma::encode_chroma_intra(
        f0.u(),
        f0.v(),
        f0.mb_cols(),
        f0.mb_rows(),
        params.qp_intra,
    );
    let mut store = ReferenceStore::new(params.n_ref);
    let sf = feves::codec::interp::interpolate(&intra.recon);
    store.push_yuv(intra.recon, sf, c0.recon_u, c0.recon_v);
    let mut coded = Vec::new();
    for f in &frames[1..] {
        let out = encode_inter_frame_yuv(f, &store, params);
        coded.push((out.clone(), store.clone()));
        let sf = feves::codec::interp::interpolate(&out.luma.recon);
        store.push_yuv(out.luma.recon, sf, out.chroma.recon_u, out.chroma.recon_v);
    }
    coded
}

/// The two stream kinds of one coded frame, in [`STREAM_KINDS`] order.
fn streams_of(out: &InterFrameOutputYuv, qp: u8) -> [(Vec<u8>, u64); 2] {
    let (modes, coeffs, chroma) = (&out.luma.modes, &out.luma.coeffs, &out.chroma.coeffs);
    STREAM_KINDS.map(|(_, backend)| backend.encode_frame_yuv(modes, coeffs, chroma, qp))
}

const STREAM_KINDS: [(&str, EntropyBackend); 2] = [
    ("Exp-Golomb YUV", EntropyBackend::ExpGolomb),
    ("CABAC YUV", EntropyBackend::Cabac),
];

/// (byte length, bit count, CRC-32) of each stream kind for P-frames 1 and 2
/// of the QCIF clip at SA 16, `n_ref` 2, QP 28 — recorded on the commit
/// before the frame walk was written once (`codec::syntax`). Round trips are
/// self-consistent, so only a pin like this notices a changed format.
const STREAM_PINS: [[(usize, u64, u32); 2]; 2] = [
    [(816, 6525, 186089260), (886, 7082, 4075364050)],
    [(495, 3960, 3327176647), (572, 4576, 3294640068)],
];

#[test]
fn stream_bytes_are_pinned() {
    let frames = qcif_frames(3);
    let params = params();
    for (i, (out, _)) in coded_yuv_frames(&frames, &params).iter().enumerate() {
        for (k, (bytes, bits)) in streams_of(out, params.qp).iter().enumerate() {
            assert_eq!(
                (bytes.len(), *bits, feves::ft::ckpt::crc32(bytes)),
                STREAM_PINS[k][i],
                "{} stream of P-frame {}",
                STREAM_KINDS[k].0,
                i + 1
            );
        }
    }
}

/// The YUV stream is one owned `Vec<u8>` from `BitWriter` to the decoder:
/// the syntax must decode to the fields it was written from, and
/// re-encoding those fields must give the stream back byte for byte (which
/// is how the modes and vectors are compared: the syntax does not carry
/// their costs) — through either entropy backend, and the pixel decoder
/// rebuilds the encoder's Y, Cb and Cr from either stream.
#[test]
fn yuv_stream_roundtrip_is_kernel_invariant() {
    let frames = qcif_frames(3);
    let params = params();
    for (i, (out, store)) in coded_yuv_frames(&frames, &params).iter().enumerate() {
        let fields = (&out.luma.coeffs, &out.chroma.coeffs, params.qp);
        let uv = Some((out.chroma.recon_u.clone(), out.chroma.recon_v.clone()));
        let [(stream, bits), (cabac, _)] = streams_of(out, params.qp);
        assert_eq!(stream.len() as u64, bits.div_ceil(8), "frame {i}");
        let (modes, coeffs, chroma, qp) =
            decode_frame_yuv(&stream).unwrap_or_else(|e| panic!("frame {i}: {e}"));
        assert_eq!((&coeffs, &chroma, qp), fields, "frame {i}: levels");
        let (again, _) = encode_frame_yuv(&modes, &coeffs, &chroma, qp);
        assert_eq!(again, stream, "frame {i}: re-encoded stream");
        let dec =
            decode_inter_frame_yuv(&stream, store).unwrap_or_else(|e| panic!("frame {i}: {e}"));
        assert_eq!(dec.y, out.luma.recon, "frame {i}: decoder luma");
        assert!(dec.chroma == uv, "frame {i}: decoder chroma");

        let (modes, coeffs, chroma, qp) =
            decode_frame_cabac(&cabac).unwrap_or_else(|e| panic!("frame {i}: CABAC: {e}"));
        assert_eq!((&coeffs, &chroma, qp), fields, "frame {i}: CABAC levels");
        let (again, _) = encode_frame_cabac(&modes, &coeffs, &chroma, qp);
        assert_eq!(again, cabac, "frame {i}: re-encoded CABAC stream");
        let dec = decode_yuv(EntropyBackend::Cabac, &cabac, store)
            .unwrap_or_else(|e| panic!("frame {i}: CABAC: {e}"));
        assert_eq!(dec.y, out.luma.recon, "frame {i}: CABAC decoder luma");
        assert!(dec.chroma == uv, "frame {i}: CABAC decoder chroma");
    }
}

/// The stream-fuzz table: every truncation and single-bit flip (every bit of
/// the first 64 bytes, one bit of every third byte beyond) and two dense
/// manglings of a real QCIF P-frame stream, for each stream kind, through
/// the one syntax reader and on through reconstruction. The outcome is
/// `Ok` (in-bounds garbage) or a
/// `DecodeError`, never a panic, in debug and (CI's release run of this
/// file) with overflow checks off.
#[test]
fn mangled_streams_decode_or_err_never_panic() {
    let params = params();
    let (out, store) = &coded_yuv_frames(&qcif_frames(2), &params)[0];
    for ((kind, backend), (stream, _)) in STREAM_KINDS.into_iter().zip(streams_of(out, params.qp)) {
        let decode = |s: &[u8]| decode_yuv(backend, s, store).map(drop);
        decode(&stream).unwrap_or_else(|e| panic!("{kind}: pristine stream: {e}"));

        // Beyond byte 64: bit `g % 8` of the first byte of each 3-byte group `g`.
        let flips = (0..stream.len() * 8).filter(|bit| bit / 8 < 64 || bit % 24 == bit / 24 % 8);
        let dense = [7, 1].map(|step| {
            let mut bad = stream.clone();
            bad.iter_mut().step_by(step).for_each(|b| *b ^= 0xA5);
            (format!("every byte in {step} ^ 0xA5"), bad)
        });
        let cases = (0..stream.len())
            .map(|len| (format!("cut to {len} bytes"), stream[..len].to_vec()))
            .chain(flips.map(|bit| {
                let mut bad = stream.clone();
                bad[bit / 8] ^= 0x80 >> (bit % 8);
                (format!("bit {bit} flipped"), bad)
            }))
            .chain(dense);

        let mut errs = 0usize;
        for (what, bad) in cases {
            let outcome = std::panic::catch_unwind(|| decode(&bad));
            match outcome {
                Ok(res) => {
                    assert!(
                        res.is_err() || !bad.is_empty(),
                        "{kind}: an empty stream decoded"
                    );
                    errs += usize::from(res.is_err());
                }
                Err(_) => panic!("{kind}: {what}: the decoder panicked"),
            }
        }
        assert!(errs > 0, "{kind}: no mangled stream surfaced a DecodeError");
    }
}

/// A clip of `mb_cols × mb_rows` macroblocks of random content: frame 1 is
/// frame 0 moved by (3, 2) pixels and frame 2 by (−3, −2), so the vectors
/// of border macroblocks point past every edge, and frame 3 is fresh noise.
fn edge_clip(seed: u64, mb_cols: usize, mb_rows: usize) -> Vec<Frame> {
    use rand::{RngCore, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let resolution = feves::Resolution::new(mb_cols * 16, mb_rows * 16);
    let mut noise = || {
        let mut f = Frame::new(resolution).expect("whole macroblocks");
        rng.fill_bytes(f.y_mut().as_mut_slice());
        rng.fill_bytes(f.u_mut().as_mut_slice());
        rng.fill_bytes(f.v_mut().as_mut_slice());
        f
    };
    let (f0, f3) = (noise(), noise());
    let moved = |dx: isize, dy: isize| {
        let shift = |p: &Plane<u8>, dx, dy| {
            Plane::from_fn(p.width(), p.height(), |x, y| {
                p.get_clamped(x as isize + dx, y as isize + dy)
            })
        };
        let mut f = f0.clone();
        f.y_mut().copy_from(&shift(f0.y(), dx, dy));
        f.u_mut().copy_from(&shift(f0.u(), dx / 2, dy / 2));
        f.v_mut().copy_from(&shift(f0.v(), dx / 2, dy / 2));
        f
    };
    let (f1, f2) = (moved(3, 2), moved(-3, -2));
    vec![f0, f1, f2, f3]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The pixel decoder rebuilds what the reference YUV loop reconstructed
    /// — Y, Cb and Cr — from each P-frame's Exp-Golomb stream and the store
    /// it was coded against, over any geometry up to 5 × 5 macroblocks,
    /// QP, reference count and both small search areas.
    #[test]
    fn prop_decoder_matches_the_reference_loop(
        seed in any::<u64>(),
        mb_cols in 1usize..=5,
        mb_rows in 1usize..=5,
        qp in 0u8..=51,
        n_ref in 1usize..=3,
        sa in prop_oneof![Just(8u16), Just(16)],
    ) {
        let params = EncodeParams {
            search_area: SearchArea(sa),
            n_ref,
            qp,
            qp_intra: qp,
        };
        let clip = edge_clip(seed, mb_cols, mb_rows);
        for (i, (out, store)) in coded_yuv_frames(&clip, &params).iter().enumerate() {
            let (modes, coeffs, chroma) = (&out.luma.modes, &out.luma.coeffs, &out.chroma.coeffs);
            let (stream, _) = encode_frame_yuv(modes, coeffs, chroma, qp);
            let dec = feves::codec::decoder::decode_inter_frame_yuv(&stream, store)
                .unwrap_or_else(|e| panic!("P-frame {}: {e}", i + 1));
            prop_assert!(dec.y == out.luma.recon, "P-frame {}: Y", i + 1);
            let uv = Some((out.chroma.recon_u.clone(), out.chroma.recon_v.clone()));
            prop_assert!(dec.chroma == uv, "P-frame {}: Cb or Cr", i + 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `prop_decoder_matches_the_reference_loop` through the arithmetic
    /// coder: each P-frame's CABAC stream decodes, through the same
    /// kernels, to the reference loop's Y, Cb and Cr.
    #[test]
    fn prop_cabac_decoder_matches_the_reference_loop(
        seed in any::<u64>(),
        mb_cols in 1usize..=5,
        mb_rows in 1usize..=5,
        qp in 0u8..=51,
        n_ref in 1usize..=3,
        sa in prop_oneof![Just(8u16), Just(16)],
    ) {
        let params = EncodeParams {
            search_area: SearchArea(sa),
            n_ref,
            qp,
            qp_intra: qp,
        };
        let clip = edge_clip(seed, mb_cols, mb_rows);
        let cabac = EntropyBackend::Cabac;
        for (i, (out, store)) in coded_yuv_frames(&clip, &params).iter().enumerate() {
            let (modes, coeffs, chroma) = (&out.luma.modes, &out.luma.coeffs, &out.chroma.coeffs);
            let (stream, _) = cabac.encode_frame_yuv(modes, coeffs, chroma, qp);
            let dec = decode_yuv(cabac, &stream, store)
                .unwrap_or_else(|e| panic!("P-frame {}: {e}", i + 1));
            prop_assert!(dec.y == out.luma.recon, "P-frame {}: Y", i + 1);
            let uv = Some((out.chroma.recon_u.clone(), out.chroma.recon_v.clone()));
            prop_assert!(dec.chroma == uv, "P-frame {}: Cb or Cr", i + 1);
        }
    }
}

/// Mismatched `row_sad` slice lengths are a hard error in
/// *release* builds too (`kernels::scalar::row_sad` carries a real
/// `assert!`, not just a `debug_assert!`). CI runs this test with
/// `--release`.
#[test]
#[should_panic(expected = "row_sad length mismatch")]
fn row_sad_length_mismatch_panics_in_release() {
    let a = [1u8; 16];
    let b = [2u8; 15];
    kernels::scalar::row_sad(&a, &b);
}
