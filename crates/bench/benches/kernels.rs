//! Criterion benches of the encoding-library kernels (the real compute the
//! functional mode runs): full-search ME, sub-pixel interpolation, SME
//! refinement, transform/quantization and deblocking.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use feves_codec::interp::{interpolate, SubpelFrame};
use feves_codec::me::{motion_estimate_mb, motion_estimate_rows, MbMotion};
use feves_codec::quant::{itq_block, tq_block};
use feves_codec::sme::{sme_mb, sme_rows, MbSubMotion};
use feves_codec::types::{EncodeParams, SearchArea};
use feves_video::geometry::RowRange;
use feves_video::plane::Plane;

fn textured_plane(w: usize, h: usize, seed: u8) -> Plane<u8> {
    let mut p = Plane::new(w, h);
    for y in 0..h {
        for x in 0..w {
            p.set(x, y, ((x * 31) ^ (y * 17) ^ seed as usize) as u8);
        }
    }
    p
}

fn bench_me(c: &mut Criterion) {
    let mut group = c.benchmark_group("me_fsbm_per_mb");
    let cf = textured_plane(128, 128, 1);
    let rf = textured_plane(128, 128, 2);
    for sa in [16u16, 32, 64] {
        let params = EncodeParams {
            search_area: SearchArea(sa),
            n_ref: 1,
            ..Default::default()
        };
        group.throughput(Throughput::Elements(sa as u64 * sa as u64));
        group.bench_with_input(BenchmarkId::from_parameter(sa), &params, |b, p| {
            b.iter(|| std::hint::black_box(motion_estimate_mb(&cf, &[&rf], p, 2, 2)));
        });
    }
    group.finish();
}

fn bench_interp(c: &mut Criterion) {
    let rf = textured_plane(352, 288, 3);
    c.bench_function("interp_cif_frame", |b| {
        b.iter(|| std::hint::black_box(interpolate(&rf)));
    });
    let mut sf = SubpelFrame::new(352, 288);
    c.bench_function("interp_cif_mb_row", |b| {
        b.iter(|| {
            sf.interpolate_rows(&rf, RowRange::new(4, 5));
            std::hint::black_box(&sf);
        });
    });
}

fn bench_sme(c: &mut Criterion) {
    let cf = textured_plane(128, 128, 1);
    let rf = textured_plane(128, 128, 2);
    let sf = interpolate(&rf);
    let params = EncodeParams {
        search_area: SearchArea(16),
        n_ref: 1,
        ..Default::default()
    };
    let me: MbMotion = motion_estimate_mb(&cf, &[&rf], &params, 2, 2);
    c.bench_function("sme_refine_per_mb", |b| {
        b.iter(|| std::hint::black_box(sme_mb(&cf, &[&sf], &me, 2, 2)));
    });
}

fn bench_tq(c: &mut Criterion) {
    let residual: [i16; 16] = core::array::from_fn(|i| (i as i16 * 13 - 90) % 120);
    c.bench_function("tq_block_4x4", |b| {
        b.iter(|| std::hint::black_box(tq_block(&residual, 28, false)));
    });
    let levels = tq_block(&residual, 28, false);
    c.bench_function("itq_block_4x4", |b| {
        b.iter(|| std::hint::black_box(itq_block(&levels, 28)));
    });
}

fn bench_dbl(c: &mut Criterion) {
    use feves_codec::dbl::deblock_frame;
    use feves_codec::mc::ModeField;
    use feves_codec::recon::CoeffField;
    use feves_codec::sme::SmeBlockMv;
    use feves_codec::types::QpelMv;
    let (mb_cols, mb_rows) = (22, 18); // CIF
    let mut modes = ModeField::new(mb_cols, mb_rows);
    let mut coeffs = CoeffField::new(mb_cols, mb_rows);
    for mby in 0..mb_rows {
        for mbx in 0..mb_cols {
            modes.mb_mut(mbx, mby).mvs = [SmeBlockMv {
                rf: 0,
                mv: QpelMv::new((mbx as i16 * 7) % 30 - 15, (mby as i16 * 5) % 20 - 10),
                cost: 0,
            }; 16];
            coeffs.mb_mut(mbx, mby).coded_mask = ((mbx * 31 + mby * 17) % 65536) as u16;
        }
    }
    let base = textured_plane(mb_cols * 16, mb_rows * 16, 9);
    c.bench_function("deblock_cif_frame", |b| {
        b.iter(|| {
            let mut p = base.clone();
            deblock_frame(&mut p, &modes, &coeffs, 32);
            std::hint::black_box(p)
        });
    });
}

/// References vs product kernels head-to-head, each called by name: one
/// MB row's SA 32 full search (per-candidate loop vs candidate-major
/// batches), SME's refinement of one CIF MB row, and the sub-pixel
/// interpolation frame pass.
fn bench_kernel_dispatch(c: &mut Criterion) {
    use feves_codec::kernels::{fast, scalar};
    use feves_codec::me::motion_estimate_rows_reference;
    use feves_codec::sme::sme_rows_reference;
    use feves_video::plane::PlaneBandMut;
    use std::hint::black_box as bb;
    type Search = fn(&Plane<u8>, &[&Plane<u8>], &EncodeParams, RowRange, &mut [MbMotion]);
    type Refine = fn(&Plane<u8>, &[&SubpelFrame], &[MbMotion], RowRange, &mut [MbSubMotion]);
    type BandKernel = fn(&Plane<u8>, usize, usize, usize, &mut [PlaneBandMut<'_, u8>]);

    let cur = textured_plane(128, 128, 1);
    let rf = textured_plane(128, 128, 2);
    let params = EncodeParams::default();
    let row = RowRange::new(3, 4);
    let mut me_out = vec![MbMotion::default(); 8];
    let mut group = c.benchmark_group("me_search");
    group.throughput(Throughput::Elements(8 * 32 * 32));
    for (name, search) in [
        ("scalar", motion_estimate_rows_reference as Search),
        ("fast", motion_estimate_rows),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                search(&cur, &[&rf], &params, row, &mut me_out);
                bb(&me_out);
            });
        });
    }
    group.finish();

    // SME as the encoder runs it: one interior CIF MB row (41 blocks × 17
    // candidates per macroblock).
    let (sme_cf, sme_rf) = (textured_plane(352, 288, 3), textured_plane(352, 288, 4));
    let sme_sf = interpolate(&sme_rf);
    let sme_params = EncodeParams {
        search_area: SearchArea(8),
        n_ref: 1,
        ..Default::default()
    };
    let row = RowRange::new(9, 10);
    let mut me_row = vec![MbMotion::default(); 22];
    motion_estimate_rows(&sme_cf, &[&sme_rf], &sme_params, row, &mut me_row);
    let mut sme_out = vec![MbSubMotion::default(); 22];
    let mut group = c.benchmark_group("sme_refine_cif_row");
    group.throughput(Throughput::Elements(22 * 41 * 17));
    for (name, refine) in [("scalar", sme_rows_reference as Refine), ("fast", sme_rows)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                refine(&sme_cf, &[&sme_sf], &me_row, row, &mut sme_out);
                bb(&sme_out);
            });
        });
    }
    group.finish();

    // The reference writes all sixteen phase planes, the product the four
    // it stores.
    let src = textured_plane(352, 288, 5);
    let mut group = c.benchmark_group("interp_cif_dispatch");
    for (name, kernel, n) in [
        ("scalar", scalar::interp_band as BandKernel, 16),
        ("fast", fast::interp_band, 4),
    ] {
        let mut phases = vec![Plane::new(352, 288); n];
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut bands: Vec<_> = phases
                    .iter_mut()
                    .map(|p| p.split_rows_mut(&[288]).remove(0))
                    .collect();
                kernel(&src, 352, 0, 288, &mut bands);
                bb(&bands);
            });
        });
    }
    group.finish();
}

fn bench_entropy(c: &mut Criterion) {
    use feves_codec::entropy::{encode_block, BitWriter};
    let residual: [i16; 16] = core::array::from_fn(|i| (i as i16 * 13 - 90) % 120);
    let levels = tq_block(&residual, 28, false);
    c.bench_function("entropy_block_4x4", |b| {
        b.iter(|| {
            let mut w = BitWriter::new();
            encode_block(&mut w, &levels);
            std::hint::black_box(w.finish())
        });
    });
}

criterion_group!(
    benches,
    bench_me,
    bench_interp,
    bench_sme,
    bench_tq,
    bench_kernel_dispatch,
    bench_dbl,
    bench_entropy
);
criterion_main!(benches);
