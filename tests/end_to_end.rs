//! Cross-crate integration: synthetic video → collaborative functional
//! encoding → entropy bitstream → decode → reconstruction checks, driving
//! every workspace crate through the umbrella `feves` API.

mod common;

use common::{qcif_config, qcif_frames};
use feves::codec::entropy::decode_frame_yuv;
use feves::core::prelude::*;
use feves::video::metrics::psnr;
use feves::video::y4m::{Y4mHeader, Y4mReader, Y4mWriter};
use std::io::Cursor;

#[test]
fn synth_to_bitstream_to_decode() {
    let frames = qcif_frames(4);
    let mut enc = FevesEncoder::new(Platform::sys_nff(), qcif_config()).unwrap();
    let report = enc.encode_sequence(&frames);

    // Every inter frame carried bits and decodable structures were produced
    // (the framework's bitstream is validated in-crate; here we re-encode a
    // frame manually through the codec path to prove the full public API
    // composes).
    assert_eq!(report.frames.len(), 4);
    assert!(report.total_bits() > 0);
    assert!(report.mean_psnr().unwrap() > 30.0);

    // Re-run the codec manually and decode its stream, to syntax and on
    // to pixels.
    let f0 = &frames[0];
    let intra = feves::codec::intra::encode_intra_frame(f0.y(), 27);
    let (cols, rows) = (f0.mb_cols(), f0.mb_rows());
    let c0 = feves::codec::chroma::encode_chroma_intra(f0.u(), f0.v(), cols, rows, 27);
    let mut store = feves::codec::ReferenceStore::new(2);
    let sf = feves::codec::interp::interpolate(&intra.recon);
    store.push_yuv(intra.recon, sf, c0.recon_u, c0.recon_v);
    let params = EncodeParams {
        search_area: SearchArea(16),
        n_ref: 2,
        ..Default::default()
    };
    let out = feves::codec::encode_inter_frame_yuv(&frames[1], &store, &params);
    let (modes, coeffs, _, qp) = decode_frame_yuv(&out.bitstream).expect("stream must decode");
    assert_eq!(qp, params.qp);
    assert_eq!(modes.mb_cols(), frames[0].y().width() / 16);
    assert_eq!(coeffs.mb(0, 0), out.luma.coeffs.mb(0, 0));
    let decoded = feves::codec::decoder::decode_inter_frame_yuv(&out.bitstream, &store)
        .expect("stream must decode to pixels");
    assert_eq!(decoded.y, out.luma.recon);
    assert_eq!(
        decoded.chroma,
        Some((out.chroma.recon_u, out.chroma.recon_v))
    );
}

#[test]
fn y4m_in_encode_y4m_out() {
    // Write synthetic frames to Y4M, read them back, encode, write the
    // reconstruction, read it again — the full I/O + codec round trip.
    let src = qcif_frames(3);
    let header = Y4mHeader {
        resolution: Resolution::QCIF,
        fps: (25, 1),
    };
    let mut w = Y4mWriter::new(Vec::new(), header);
    for f in &src {
        w.write_frame(f).unwrap();
    }
    let bytes = w.finish().unwrap();

    let mut r = Y4mReader::new(Cursor::new(bytes)).unwrap();
    let loaded = r.read_all().unwrap();
    assert_eq!(loaded, src);

    let mut enc = FevesEncoder::new(Platform::sys_hk(), qcif_config()).unwrap();
    let mut out = Y4mWriter::new(Vec::new(), header);
    for f in &loaded {
        let _ = enc.encode_frame(f);
        let (y, u, v) = enc.last_reconstruction_yuv().unwrap();
        let mut rf = f.clone();
        rf.y_mut().copy_from(y);
        rf.u_mut().copy_from(u);
        rf.v_mut().copy_from(v);
        out.write_frame(&rf).unwrap();
    }
    let recon_bytes = out.finish().unwrap();
    let mut rr = Y4mReader::new(Cursor::new(recon_bytes)).unwrap();
    let recon = rr.read_all().unwrap();
    assert_eq!(recon.len(), 3);
    // Reconstructions resemble their sources, in every plane.
    for (a, b) in recon.iter().zip(&loaded) {
        assert!(psnr(a.y(), b.y()) > 30.0);
        assert!(psnr(a.u(), b.u()) > 30.0 && psnr(a.v(), b.v()) > 30.0);
    }
}

#[test]
fn timing_and_functional_share_schedule_shape() {
    // The same seed must produce the same simulated schedule whether or not
    // the kernels actually run.
    let frames = qcif_frames(4);
    let mut timing_cfg = qcif_config();
    timing_cfg.mode = ExecutionMode::TimingOnly;
    let mut enc_t = FevesEncoder::new(Platform::sys_hk(), timing_cfg).unwrap();
    let mut enc_f = FevesEncoder::new(Platform::sys_hk(), qcif_config()).unwrap();
    let rep_f = enc_f.encode_sequence(&frames);
    // Drive the timing encoder with the same frames for identical ramps.
    let rep_t = enc_t.encode_sequence(&frames);
    for (a, b) in rep_t.inter_frames().zip(rep_f.inter_frames()) {
        assert_eq!(
            a.tau_tot, b.tau_tot,
            "virtual time must not depend on pixels"
        );
        assert!(b.bits.is_some() && a.bits.is_none());
    }
}

#[test]
fn umbrella_reexports_compose() {
    // Spot-check that the facade exposes all the layers.
    let _plane: feves::video::Plane<u8> = feves::video::Plane::new(16, 16);
    let _mv = feves::codec::Mv::new(1, -1);
    let mut lp = feves::lp::Problem::new(feves::lp::Sense::Minimize);
    let x = lp.add_var(1.0);
    lp.add_constraint(&[(x, 1.0)], feves::lp::Relation::Ge, 3.0);
    assert!((lp.solve().unwrap().value(x) - 3.0).abs() < 1e-9);
    let p = feves::hetsim::Platform::sys_hk();
    assert_eq!(p.len(), 5);
    let d = feves::sched::Distribution::equidistant(68, 5, 0);
    d.validate(68).unwrap();
}
