//! Differential tests: the product's hot kernels against their references.
//!
//! The product runs one kernel family: `feves_codec::kernels::fast` and the
//! candidate-major ME search and SME refinement built on it. Each must be a
//! **bit-exact** replacement for its reference, which this suite calls by
//! name — `me::motion_estimate_rows_reference`,
//! `sme::sme_rows_reference`, `dbl::deblock_frame_reference` and
//! `kernels::scalar::interp_band`. It checks that at three levels:
//!
//! 1. property-based differentials over random planes/blocks, each
//!    reference against the product entry point on the same inputs —
//!    including the portable and `std::arch` forms of the ME search and
//!    SME refinement primitives, so the path a host without AVX2 (or a
//!    non-x86 one) takes is exercised on every run (DBL's two line filters
//!    are compared lane by lane in `kernels::fast`'s own tests);
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
use feves::codec::cabac::{decode_frame_cabac, encode_frame_cabac};
use feves::codec::entropy::{decode_frame_yuv, encode_frame, encode_frame_yuv};
use feves::codec::inter_loop::{
    encode_inter_frame, encode_inter_frame_yuv, InterFrameOutput, InterFrameOutputYuv,
    ReferenceStore,
};
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

/// A row kernel of the interpolation: `kernels::interp_band` or its
/// reference `kernels::scalar::interp_band`.
type BandKernel = fn(&Plane<u8>, usize, usize, usize, &mut [PlaneBandMut<'_, u8>]);

/// The sixteen quarter-pel phase planes of `rf` (index `fy * 4 + fx`), as
/// `kernel` writes them in one band.
fn phases_by(rf: &Plane<u8>, kernel: BandKernel) -> Vec<Plane<u8>> {
    let (w, h) = (rf.width(), rf.height());
    let mut phases = vec![Plane::new(w, h); 16];
    let mut bands: Vec<_> = phases
        .iter_mut()
        .map(|p| p.split_rows_mut(&[h]).remove(0))
        .collect();
    kernel(rf, w, 0, h, &mut bands);
    drop(bands);
    phases
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

    /// The interpolation row kernel, reference vs product, and the product
    /// SF built through `interpolate`'s macroblock-row bands.
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
        let want = phases_by(&p, kernels::scalar::interp_band);
        prop_assert!(want == phases_by(&p, kernels::interp_band));
        let sf = feves::codec::interp::interpolate(&p);
        for (k, phase) in want.iter().enumerate() {
            prop_assert!(phase == sf.phase(k as u8 % 4, k as u8 / 4), "phase {}", k);
        }
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

/// Each reference, run on the inputs `encode_inter_frame` used for `out`,
/// writes what the product wrote: ME, INT (the store's SFs), SME and DBL.
/// DBL's input, the reconstruction before the filter, is rebuilt from the
/// encoder's own fields by MC and TQ⁻¹.
fn references_agree(
    cf: &Plane<u8>,
    store: &ReferenceStore,
    params: &EncodeParams,
    out: &InterFrameOutput,
    what: &str,
) {
    use feves::codec::dbl::{deblock_frame, deblock_frame_reference};
    use feves::codec::mc::{mc_rows, ModeField};
    use feves::codec::recon::itq_recon_rows;
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
        let want = phases_by(rf, kernels::scalar::interp_band);
        for (k, phase) in want.iter().enumerate() {
            let got = sf.phase(k as u8 % 4, k as u8 / 4);
            assert!(phase == got, "{what}: INT of reference {r}, phase {k}");
        }
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
        let intra = feves::codec::intra::encode_intra_frame(frames[0].y(), params.qp_intra);
        let mut store = ReferenceStore::new(params.n_ref);
        store.push(intra.recon);
        for (i, f) in frames.iter().enumerate().skip(1) {
            let what = format!("SA {sa} frame {i}");
            let out = encode_inter_frame(f.y(), &store, &params);
            references_agree(f.y(), &store, &params, &out, &what);
            let dec = feves::codec::decoder::decode_inter_frame(&out.bitstream, &store)
                .unwrap_or_else(|e| panic!("{what} must decode: {e}"));
            assert_eq!(dec.y, out.recon, "{what}: decoder/encoder mismatch");
            store.push(out.recon);
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

/// The three stream kinds of one coded frame, in [`STREAM_KINDS`] order.
fn streams_of(out: &InterFrameOutputYuv, qp: u8) -> [(Vec<u8>, u64); 3] {
    let (modes, coeffs, chroma) = (&out.luma.modes, &out.luma.coeffs, &out.chroma.coeffs);
    [
        encode_frame_yuv(modes, coeffs, chroma, qp),
        encode_frame(modes, coeffs, qp),
        encode_frame_cabac(modes, coeffs, Some(chroma), qp),
    ]
}

const STREAM_KINDS: [&str; 3] = ["Exp-Golomb YUV", "Exp-Golomb luma", "CABAC YUV"];

/// (byte length, bit count, CRC-32) of each stream kind for P-frames 1 and 2
/// of the QCIF clip at SA 16, `n_ref` 2, QP 28 — recorded on the commit
/// before the frame walk was written once (`codec::syntax`). Round trips are
/// self-consistent, so only a pin like this notices a changed format.
const STREAM_PINS: [[(usize, u64, u32); 2]; 3] = [
    [(816, 6525, 186089260), (886, 7082, 4075364050)],
    [(610, 4876, 618521966), (640, 5115, 1302591258)],
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
                STREAM_KINDS[k],
                i + 1
            );
        }
    }
}

/// The YUV stream is one owned `Vec<u8>` from `BitWriter` to the decoder:
/// the syntax must decode to the fields it was written from, and
/// re-encoding those fields must give the stream back byte for byte (which
/// is how the modes and vectors are compared: the syntax does not carry
/// their costs) — through either entropy backend.
#[test]
fn yuv_stream_roundtrip_is_kernel_invariant() {
    let frames = qcif_frames(3);
    let params = params();
    for (i, (out, store)) in coded_yuv_frames(&frames, &params).iter().enumerate() {
        let fields = (&out.luma.coeffs, &out.chroma.coeffs, params.qp);
        let [(stream, bits), _, (cabac, _)] = streams_of(out, params.qp);
        assert_eq!(stream.len() as u64, bits.div_ceil(8), "frame {i}");
        let (modes, coeffs, chroma, qp) =
            decode_frame_yuv(&stream).unwrap_or_else(|e| panic!("frame {i}: {e}"));
        assert_eq!((&coeffs, &chroma, qp), fields, "frame {i}: levels");
        let (again, _) = encode_frame_yuv(&modes, &coeffs, &chroma, qp);
        assert_eq!(again, stream, "frame {i}: re-encoded stream");
        let dec = feves::codec::decoder::decode_inter_frame_yuv(&stream, store)
            .unwrap_or_else(|e| panic!("frame {i}: {e}"));
        assert_eq!(dec.y, out.luma.recon, "frame {i}: decoder luma");

        let (modes, coeffs, chroma, qp) =
            decode_frame_cabac(&cabac).unwrap_or_else(|e| panic!("frame {i}: CABAC: {e}"));
        let chroma = chroma.expect("the header says chroma follows");
        assert_eq!((&coeffs, &chroma, qp), fields, "frame {i}: CABAC levels");
        let (again, _) = encode_frame_cabac(&modes, &coeffs, Some(&chroma), qp);
        assert_eq!(again, cabac, "frame {i}: re-encoded CABAC stream");
    }
}

/// The stream-fuzz table: every truncation and single-bit flip (every bit of
/// the first 64 bytes, one bit of every third byte beyond) and two dense
/// manglings of a real QCIF P-frame stream, for each stream kind, through
/// the one syntax reader and — where a pixel decoder exists — on through
/// reconstruction. The outcome is `Ok` (in-bounds garbage) or a
/// `DecodeError`, never a panic, in debug and (CI's release run of this
/// file) with overflow checks off.
#[test]
fn mangled_streams_decode_or_err_never_panic() {
    use feves::codec::decoder::{decode_inter_frame, decode_inter_frame_yuv};
    type Decode = fn(&[u8], &ReferenceStore) -> Result<(), feves::codec::entropy::DecodeError>;
    const DECODERS: [Decode; 3] = [
        |s, store| decode_inter_frame_yuv(s, store).map(drop),
        |s, store| decode_inter_frame(s, store).map(drop),
        |s, _| decode_frame_cabac(s).map(drop),
    ];

    let params = params();
    let (out, store) = &coded_yuv_frames(&qcif_frames(2), &params)[0];
    for ((kind, decode), (stream, _)) in STREAM_KINDS
        .iter()
        .zip(DECODERS)
        .zip(streams_of(out, params.qp))
    {
        decode(&stream, store).unwrap_or_else(|e| panic!("{kind}: pristine stream: {e}"));

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
            let outcome = std::panic::catch_unwind(|| decode(&bad, store));
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

/// Mismatched `row_sad` slice lengths are a hard error in
/// *release* builds too (the entry point carries a real `assert!`,
/// not just a `debug_assert!`). CI runs this test with `--release`.
#[test]
#[should_panic(expected = "row_sad length mismatch")]
fn row_sad_length_mismatch_panics_in_release() {
    let a = [1u8; 16];
    let b = [2u8; 15];
    feves::codec::sad::row_sad(&a, &b);
}
