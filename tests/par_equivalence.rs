//! The host's width must not reach the output: every row-parallel module
//! (INT, ME, SME, MC, TQ, TQ⁻¹) run on a `codec::par::Crew` of forced width
//! 1, 2, 3 and 8 — fewer threads than rows, more threads than rows, and a
//! row count none of them divides — must equal the serial `*_rows` output
//! field for field, and so must the INT, ME and SME `*_rows_parallel`
//! entry points at whatever width this host has, the encoder's R\* row
//! pass (`recon::code_inter_row`, MC → TQ → TQ⁻¹ of one row) and its tail's
//! two lanes (`recon::code_tail`: chroma → entropy beside DBL → PSNR) at
//! the forced widths. Nor may what the output buffers held before: the
//! encoder reuses them frame after frame, so every module must overwrite
//! all of its output — shown by running them over buffers filled with
//! `0xAA`.

use feves::codec::cabac::EntropyBackend;
use feves::codec::chroma::{self, ChromaField};
use feves::codec::dbl;
use feves::codec::interp::SubpelFrame;
use feves::codec::mc::{self, ModeField};
use feves::codec::me::{self, MeField};
use feves::codec::par::Crew;
use feves::codec::recon::{self, CoeffField};
use feves::codec::sme::{self, SmeField};
use feves::codec::types::{EncodeParams, Mv, PartitionMode, QpelMv, SearchArea};
use feves::video::frame::Frame;
use feves::video::geometry::{Resolution, RowRange};
use feves::video::metrics::psnr;
use feves::video::plane::Plane;

/// 4 × 7 macroblocks.
const W: usize = 64;
const H: usize = 112;
const MB_COLS: usize = W / 16;
const ROWS: RowRange = RowRange { start: 0, end: 7 };
const QP: u8 = 28;

fn params() -> EncodeParams {
    EncodeParams {
        search_area: SearchArea(8),
        n_ref: 1,
        ..Default::default()
    }
}

/// Every intermediate field of one inter frame.
#[derive(Debug, PartialEq)]
struct Fields {
    sf: SubpelFrame,
    me: MeField,
    sme: SmeField,
    modes: ModeField,
    pred: Plane<u8>,
    residual: Plane<i16>,
    coeffs: CoeffField,
    recon: Plane<u8>,
}

impl Fields {
    fn empty() -> Self {
        Fields {
            sf: SubpelFrame::new(W, H),
            me: MeField::new(MB_COLS, ROWS.len()),
            sme: SmeField::new(MB_COLS, ROWS.len()),
            modes: ModeField::new(MB_COLS, ROWS.len()),
            pred: Plane::new(W, H),
            residual: Plane::new(W, H),
            coeffs: CoeffField::new(MB_COLS, ROWS.len()),
            recon: Plane::new(W, H),
        }
    }
}

/// A plane of the frame's size with `0xAA` in every byte.
fn poison<T: Copy + Default>(v: T) -> Plane<T> {
    let mut p = Plane::new(W, H);
    p.fill(v);
    p
}

impl Fields {
    /// Buffers a previous frame left behind, at their worst: no element
    /// holds a value this frame's modules would put there.
    fn poisoned() -> Self {
        let mut f = Fields::empty();
        // A constant plane interpolates to itself in all 16 phases, as the
        // reference writes them.
        let flat = poison(0xAA);
        f.sf.interpolate_rows(&flat, ROWS);
        let mut phases = vec![Plane::new(W, H); 16];
        let mut bands: Vec<_> = (phases.iter_mut())
            .map(|p| p.split_rows_mut(&[H]).remove(0))
            .collect();
        feves::codec::kernels::scalar::interp_band(&flat, W, 0, H, &mut bands);
        drop(bands);
        let (x, y) = (W as isize - 1, H as isize - 1);
        for (k, phase) in phases.iter().enumerate() {
            let (qx, qy) = (x * 4 + k as isize % 4, y * 4 + k as isize / 4);
            assert_eq!(f.sf.sample(qx, qy), phase.get(W - 1, H - 1), "phase {k}");
            assert_eq!(phase.get(W - 1, H - 1), 0xAA, "phase {k}");
        }
        for mb in f.me.rows_mut(ROWS) {
            for mode in feves::codec::types::ALL_PARTITION_MODES {
                for i in 0..mode.count() {
                    let b = mb.block_mut(mode, i);
                    (b.rf, b.mv, b.cost) = (0xAA, Mv::new(-0x5556, -0x5556), 0xAAAA_AAAA);
                }
            }
        }
        for mb in f.sme.rows_mut(ROWS) {
            for mode in feves::codec::types::ALL_PARTITION_MODES {
                for i in 0..mode.count() {
                    let b = mb.block_mut(mode, i);
                    (b.rf, b.mv, b.cost) = (0xAA, QpelMv::new(-0x5556, -0x5556), 0xAAAA_AAAA);
                }
            }
        }
        for mb in f.modes.rows_mut(ROWS) {
            mb.mode = PartitionMode::P4x4;
            mb.cost = 0xAAAA_AAAA_AAAA_AAAA;
            for b in &mut mb.mvs {
                (b.rf, b.mv, b.cost) = (0xAA, QpelMv::new(-0x5556, -0x5556), 0xAAAA_AAAA);
            }
        }
        for mb in f.coeffs.rows_mut(ROWS) {
            mb.blocks = [[-0x5556; 16]; 16];
            mb.coded_mask = 0xAAAA;
        }
        f.pred = poison(0xAA);
        f.residual = poison(-0x5556);
        f.recon = poison(0xAA);
        f
    }
}

fn inputs() -> (Plane<u8>, Plane<u8>) {
    let rf = Plane::from_fn(W, H, |x, y| ((x * 37) ^ (y * 11)).wrapping_mul(7) as u8);
    let cf = Plane::from_fn(W, H, |x, y| {
        rf.get_clamped(x as isize + 2, y as isize - 1)
            .wrapping_add((x * y % 5) as u8)
    });
    (cf, rf)
}

fn serial(cf: &Plane<u8>, rf: &Plane<u8>) -> Fields {
    let mut f = Fields::empty();
    let p = params();
    f.sf.interpolate_rows(rf, ROWS);
    me::motion_estimate_rows(cf, &[rf], &p, ROWS, f.me.rows_mut(ROWS));
    sme::sme_rows(cf, &[&f.sf], f.me.rows(ROWS), ROWS, f.sme.rows_mut(ROWS));
    mc::mc_rows(
        cf,
        &[&f.sf],
        f.sme.rows(ROWS),
        QP,
        ROWS,
        &mut f.modes,
        &mut f.pred,
        &mut f.residual,
    );
    recon::tq_rows(&f.residual, QP, false, ROWS, &mut f.coeffs);
    recon::itq_recon_rows(&f.coeffs, &f.pred, QP, ROWS, &mut f.recon);
    f
}

fn one(row: usize) -> RowRange {
    RowRange::new(row, row + 1)
}

/// The same frame with every module's rows claimed by the threads of
/// `crew`, writing over whatever `f` holds.
fn on_crew(mut f: Fields, crew: &mut Crew, cf: &Plane<u8>, rf: &Plane<u8>) -> Fields {
    let p = params();
    crew.for_each_row(f.sf.mb_rows_mut(ROWS), |_, row| row.interpolate(rf));
    let sfs = [&f.sf];
    crew.for_each_row(f.me.rows_mut(ROWS).chunks_mut(MB_COLS), |r, out| {
        me::motion_estimate_rows(cf, &[rf], &p, one(r), out)
    });
    crew.for_each_row(f.sme.rows_mut(ROWS).chunks_mut(MB_COLS), |r, out| {
        sme::sme_rows(cf, &sfs, f.me.rows(one(r)), one(r), out)
    });
    let mc_items = (f.modes.rows_mut(ROWS).chunks_mut(MB_COLS))
        .zip(f.pred.mb_row_lines_mut(ROWS))
        .zip(f.residual.mb_row_lines_mut(ROWS));
    crew.for_each_row(mc_items, |r, ((modes, pred), residual)| {
        let sme = f.sme.rows(one(r));
        mc::mc_row(cf, &sfs, sme, QP, r, modes, pred, residual);
    });
    let tq_items = (f.coeffs.rows_mut(ROWS).chunks_mut(MB_COLS)).zip(f.residual.mb_row_lines(ROWS));
    crew.for_each_row(tq_items, |_, (out, lines)| {
        recon::tq_row(lines, QP, false, out)
    });
    let itq_items = (f.recon.split_mb_rows_mut(ROWS).into_iter()).zip(f.pred.mb_row_lines(ROWS));
    crew.for_each_row(itq_items, |r, (mut band, pred)| {
        recon::itq_recon_row(f.coeffs.rows(one(r)), pred, QP, r, &mut band)
    });
    f
}

#[test]
fn every_module_is_width_independent() {
    let (cf, rf) = inputs();
    let want = serial(&cf, &rf);
    assert!(
        want.coeffs.nonzero_levels() > 0,
        "the scene must exercise TQ"
    );
    for width in [1, 2, 3, 8] {
        let got = on_crew(Fields::empty(), &mut Crew::new(width), &cf, &rf);
        assert_eq!(got, want, "width {width}");
    }
}

#[test]
fn every_module_overwrites_all_of_a_reused_buffer() {
    let (cf, rf) = inputs();
    let want = serial(&cf, &rf);
    assert_ne!(Fields::poisoned(), Fields::empty());
    for width in [1, 2, 3, 8] {
        // One crew for both frames, as the encoder keeps one.
        let mut crew = Crew::new(width);
        for frame in 0..2 {
            let got = on_crew(Fields::poisoned(), &mut crew, &cf, &rf);
            assert_eq!(got, want, "width {width}, frame {frame}");
        }
    }

    // The tail's two lanes over a poisoned chroma field and poisoned
    // chroma planes, against chroma's allocating form, entropy, DBL and
    // PSNR run one after another.
    // Textured below a flat top third (whatever the vectors, predicted
    // exactly: blocks with no coefficients), or one value throughout.
    let chroma_plane = |seed: usize, fill: Option<u8>| {
        let mut p = Plane::new(W / 2, H / 2);
        for y in 0..H / 2 {
            for x in 0..W / 2 {
                let textured = if y < H / 6 {
                    77
                } else {
                    ((x * seed) ^ (y * 3)) as u8
                };
                p.set(x, y, fill.unwrap_or(textured));
            }
        }
        p
    };
    let (cf_u, cf_v) = (chroma_plane(5, None), chroma_plane(9, None));
    let (rf_u, rf_v) = (chroma_plane(7, None), chroma_plane(11, None));
    let fresh = chroma::encode_chroma_inter(&cf_u, &cf_v, &[&rf_u], &[&rf_v], &want.modes, QP);
    assert!(
        fresh.coeffs.nonzero_levels() > 0,
        "the scene must code chroma"
    );
    // … and must leave blocks uncoded: those take the `recon = pred`
    // shortcut, which has to write its sixteen samples all the same.
    let masks = fresh.coeffs.rows(ROWS).iter().map(|mb| mb.coded_mask);
    let uncoded: u32 = masks.map(|m| m.count_zeros()).sum();
    assert!(uncoded > 0, "the scene must leave chroma blocks uncoded");
    let mut coeffs = ChromaField::new(MB_COLS, ROWS.len());
    for mby in 0..ROWS.len() {
        for mbx in 0..MB_COLS {
            let mb = coeffs.mb_mut(mbx, mby);
            (mb.cb, mb.cr, mb.coded_mask) = ([[-0x5556; 16]; 4], [[-0x5556; 16]; 4], 0xAA);
        }
    }
    let entropy = EntropyBackend::Cabac;
    let (stream, bits) = entropy.encode_frame_yuv(&want.modes, &want.coeffs, &fresh.coeffs, QP);
    let mut deblocked = want.recon.clone();
    dbl::deblock_frame(&mut deblocked, &want.modes, &want.coeffs, QP);
    assert_ne!(deblocked, want.recon, "the scene must exercise DBL");
    let mut source = Frame::new(Resolution::new(W, H)).expect("a legal size");
    (*source.y_mut(), *source.u_mut(), *source.v_mut()) = (cf.clone(), cf_u.clone(), cf_v.clone());
    for width in [1, 2, 3, 8] {
        let mut crew = Crew::new(width);
        for frame in 0..2 {
            let mut chroma = coeffs.clone();
            let mut recon_y = want.recon.clone();
            let (mut recon_u, mut recon_v) =
                (chroma_plane(0, Some(0xAA)), chroma_plane(0, Some(0xAA)));
            let got = recon::code_tail(
                &mut crew,
                entropy,
                &source,
                (&[&rf_u], &[&rf_v]),
                &want.modes,
                &want.coeffs,
                QP,
                &mut chroma,
                [&mut recon_y, &mut recon_u, &mut recon_v],
            );
            let at = format!("width {width}, frame {frame}");
            assert!(chroma == fresh.coeffs, "{at}");
            assert!(recon_u == fresh.recon_u && recon_v == fresh.recon_v, "{at}");
            assert!(recon_y == deblocked, "{at}");
            assert_eq!(got, (stream.clone(), bits, psnr(&deblocked, &cf)), "{at}");
        }
    }
}

#[test]
fn parallel_entry_points_equal_serial() {
    let (cf, rf) = inputs();
    let want = serial(&cf, &rf);
    let mut f = Fields::empty();
    let p = params();
    // Two calls over a split range: the entry points take any row range.
    let mut crew = Crew::host();
    for rows in [RowRange::new(0, 3), RowRange::new(3, 7)] {
        f.sf.interpolate_rows_parallel(&mut crew, &rf, rows);
        me::motion_estimate_rows_parallel(&cf, &[&rf], &p, rows, f.me.rows_mut(rows));
    }
    for rows in [RowRange::new(0, 3), RowRange::new(3, 7)] {
        let me_rows = f.me.rows(rows);
        sme::sme_rows_parallel(&cf, &[&f.sf], me_rows, rows, f.sme.rows_mut(rows));
    }
    assert!(f.sf == want.sf && f.me == want.me && f.sme == want.sme);
}

/// The R\* row pass (`recon::code_inter_row`: MC, TQ and TQ⁻¹ of a row
/// back to back, through its own thread's prediction and residual lines)
/// at forced widths, over poisoned modes, coefficients and reconstruction,
/// equals serial `mc_rows` → `tq_rows` → `itq_recon_rows` field for field:
/// in one region over all rows, and in two over a split.
#[test]
fn r_star_row_pass_equals_serial() {
    let (cf, rf) = inputs();
    let want = serial(&cf, &rf);
    let sfs = [&want.sf];
    let splits: [&[RowRange]; 2] = [&[ROWS], &[RowRange::new(0, 3), RowRange::new(3, 7)]];
    for width in [1, 2, 3, 8] {
        let mut crew = Crew::new(width);
        for split in splits {
            let mut got = Fields::poisoned();
            for &rows in split {
                let items = (got.modes.rows_mut(rows).chunks_mut(MB_COLS))
                    .zip(got.coeffs.rows_mut(rows).chunks_mut(MB_COLS))
                    .zip(got.recon.split_mb_rows_mut(rows));
                crew.for_each_row(items, |i, ((modes, coeffs), mut band)| {
                    let r = rows.start + i;
                    let sme = want.sme.rows(one(r));
                    recon::code_inter_row(&cf, &sfs, sme, QP, r, modes, coeffs, &mut band);
                });
            }
            assert_eq!(
                (&got.modes, &got.coeffs, &got.recon),
                (&want.modes, &want.coeffs, &want.recon),
                "width {width}, split {split:?}"
            );
        }
    }
}

/// ME's `fast` search copies a border-extended reference window per call,
/// sized by the call's row range: one whole-frame window, one window per
/// row on 1/2/3 threads, and an uneven two-call split must give one field —
/// here with a range (16) that reaches past the neighbouring rows and two
/// references, which the whole-pipeline cases above (SA 8, one reference)
/// do not.
#[test]
fn me_window_per_call_is_split_independent() {
    let (cf, rf) = inputs();
    let rf2 = Plane::from_fn(W, H, |x, y| ((x * 13) ^ (y * 29)) as u8);
    let rfs = [&rf, &rf2];
    let p = EncodeParams {
        search_area: SearchArea(32),
        n_ref: 2,
        ..Default::default()
    };
    let mut want = MeField::new(MB_COLS, ROWS.len());
    me::motion_estimate_rows(&cf, &rfs, &p, ROWS, want.rows_mut(ROWS));

    for width in [1, 2, 3] {
        let mut got = MeField::new(MB_COLS, ROWS.len());
        Crew::new(width).for_each_row(got.rows_mut(ROWS).chunks_mut(MB_COLS), |r, out| {
            me::motion_estimate_rows(&cf, &rfs, &p, one(r), out)
        });
        assert!(got == want, "width {width}");
    }
    let mut got = MeField::new(MB_COLS, ROWS.len());
    for rows in [RowRange::new(0, 5), RowRange::new(5, 7)] {
        me::motion_estimate_rows_parallel(&cf, &rfs, &p, rows, got.rows_mut(rows));
    }
    assert!(got == want, "two-call split");
}
