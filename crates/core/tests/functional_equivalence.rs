//! Functional-mode correctness: the framework's distributed execution must
//! produce bit-identical output to the single-device golden encoder, for
//! any load-balancing policy — the partition-invariance guarantee the whole
//! FEVES design rests on.

use feves_codec::inter_loop::{encode_inter_frame_yuv, ReferenceStore};
use feves_core::prelude::*;
use feves_video::frame::Frame;
use feves_video::plane::Plane;

fn test_frames(n: usize) -> Vec<Frame> {
    let mut cfg = SynthConfig::tiny_test();
    cfg.resolution = Resolution::QCIF;
    SynthSequence::new(cfg).take_frames(n)
}

fn functional_config(balancer: BalancerKind) -> EncoderConfig {
    let mut cfg = EncoderConfig::full_hd(EncodeParams {
        search_area: SearchArea(16),
        n_ref: 2,
        ..Default::default()
    });
    cfg.resolution = Resolution::QCIF;
    cfg.mode = ExecutionMode::Functional;
    cfg.balancer = balancer;
    cfg
}

/// One frame's outcome: P-frame bits (`None` for the I-frame) and the
/// reconstructed Y, Cb and Cr samples.
type Coded = (Option<u64>, [Vec<u8>; 3]);

fn samples(y: &Plane<u8>, u: &Plane<u8>, v: &Plane<u8>) -> [Vec<u8>; 3] {
    [y, u, v].map(|p| p.as_slice().to_vec())
}

/// Golden reference: intra + single-device YUV inter loop.
fn golden(frames: &[Frame]) -> Vec<Coded> {
    let params = EncodeParams {
        search_area: SearchArea(16),
        n_ref: 2,
        ..Default::default()
    };
    let intra = feves_codec::intra::encode_intra_frame(frames[0].y(), params.qp_intra);
    let chroma0 = feves_codec::chroma::encode_chroma_intra(
        frames[0].u(),
        frames[0].v(),
        frames[0].mb_cols(),
        frames[0].mb_rows(),
        params.qp_intra,
    );
    let mut out = vec![(
        None,
        samples(&intra.recon, &chroma0.recon_u, &chroma0.recon_v),
    )];
    let mut store = ReferenceStore::new(params.n_ref);
    let sf = feves_codec::interp::interpolate(&intra.recon);
    store.push_yuv(intra.recon, sf, chroma0.recon_u, chroma0.recon_v);
    for f in &frames[1..] {
        let r = encode_inter_frame_yuv(f, &store, &params);
        let (_stream, bits) = feves_codec::entropy::encode_frame_yuv(
            &r.luma.modes,
            &r.luma.coeffs,
            &r.chroma.coeffs,
            params.qp,
        );
        out.push((
            Some(bits),
            samples(&r.luma.recon, &r.chroma.recon_u, &r.chroma.recon_v),
        ));
        let sf = feves_codec::interp::interpolate(&r.luma.recon);
        store.push_yuv(r.luma.recon, sf, r.chroma.recon_u, r.chroma.recon_v);
    }
    out
}

/// The framework's outcome, frame by frame.
fn framework(frames: &[Frame], balancer: BalancerKind) -> Vec<Coded> {
    let mut enc = FevesEncoder::new(Platform::sys_hk(), functional_config(balancer)).unwrap();
    let coded = frames.iter().map(|f| {
        let rep = enc.encode_frame(f);
        let (y, u, v) = enc.last_reconstruction_yuv().unwrap();
        (rep.bits.filter(|_| !rep.is_intra), samples(y, u, v))
    });
    coded.collect()
}

fn assert_same(got: &[Coded], expected: &[Coded], who: &str) {
    assert_eq!(got.len(), expected.len());
    for (i, (g, e)) in got.iter().zip(expected).enumerate() {
        assert_eq!(g.0, e.0, "{who}: frame {i} bits differ");
        for (plane, name) in ["Y", "Cb", "Cr"].iter().enumerate() {
            assert!(
                g.1[plane] == e.1[plane],
                "{who}: frame {i} {name} reconstruction differs"
            );
        }
    }
}

#[test]
fn framework_matches_golden_encoder() {
    let frames = test_frames(4);
    let got = framework(&frames, BalancerKind::Feves);
    assert_same(&got, &golden(&frames), "framework vs golden");
}

#[test]
fn all_balancers_produce_identical_output() {
    let frames = test_frames(3);
    let reference = framework(&frames, BalancerKind::Feves);
    for balancer in [
        BalancerKind::Equidistant,
        BalancerKind::Proportional,
        BalancerKind::SingleAccelerator(0),
        BalancerKind::CpuOnly,
    ] {
        let got = framework(&frames, balancer);
        assert_same(&got, &reference, &format!("{balancer:?} vs Feves"));
    }
}

#[test]
fn quality_is_reasonable_and_reported() {
    let frames = test_frames(4);
    let mut enc =
        FevesEncoder::new(Platform::sys_hk(), functional_config(BalancerKind::Feves)).unwrap();
    let rep = enc.encode_sequence(&frames);
    let psnr = rep.mean_psnr().expect("functional mode must report PSNR");
    assert!(
        psnr > 30.0,
        "QP 27/28 should land above 30 dB, got {psnr:.1}"
    );
    assert!(rep.total_bits() > 0);
    // Timing is still produced alongside the functional path.
    for f in rep.inter_frames() {
        assert!(f.tau_tot > 0.0);
    }
}

#[test]
fn refs_ramp_matches_store_growth() {
    let frames = test_frames(5);
    let mut enc =
        FevesEncoder::new(Platform::sys_hk(), functional_config(BalancerKind::Feves)).unwrap();
    let rep = enc.encode_sequence(&frames);
    let refs: Vec<usize> = rep.inter_frames().map(|f| f.refs_used).collect();
    assert_eq!(refs, vec![1, 2, 2, 2], "n_ref=2 window must ramp 1,2,2,…");
}

#[test]
fn gop_inserts_periodic_intra_frames() {
    let frames = test_frames(7);
    let mut cfg = functional_config(BalancerKind::Feves);
    cfg.gop = Some(3);
    let mut enc = FevesEncoder::new(Platform::sys_hk(), cfg).unwrap();
    let rep = enc.encode_sequence(&frames);
    let types: Vec<bool> = rep.frames.iter().map(|f| f.is_intra).collect();
    assert_eq!(
        types,
        vec![true, false, false, true, false, false, true],
        "GOP=3 must produce I P P I P P I"
    );
    // Reference windows reset at each I-frame: the first P after an I uses 1.
    let refs: Vec<usize> = rep.inter_frames().map(|f| f.refs_used).collect();
    assert_eq!(refs, vec![1, 2, 1, 2]);
    // A closed GOP owes nothing to the one before it — not even through
    // the reference buffers it takes over at the refresh.
    let alone = FevesEncoder::new(Platform::sys_hk(), functional_config(BalancerKind::Feves))
        .unwrap()
        .encode_sequence(&frames[3..6]);
    for (a, b) in alone.frames.iter().zip(&rep.frames[3..6]) {
        assert_eq!((a.bits, a.psnr_y), (b.bits, b.psnr_y));
    }
}

#[test]
fn cabac_backend_saves_bits() {
    let frames = test_frames(4);
    let mut eg_cfg = functional_config(BalancerKind::Feves);
    eg_cfg.entropy = feves_codec::cabac::EntropyBackend::ExpGolomb;
    let mut cb_cfg = functional_config(BalancerKind::Feves);
    cb_cfg.entropy = feves_codec::cabac::EntropyBackend::Cabac;
    let eg = FevesEncoder::new(Platform::sys_hk(), eg_cfg)
        .unwrap()
        .encode_sequence(&frames);
    let cb = FevesEncoder::new(Platform::sys_hk(), cb_cfg)
        .unwrap()
        .encode_sequence(&frames);
    // Same quantized data (identical kernels), different entropy backend:
    // reconstructions identical, rate lower with the arithmetic coder.
    let eg_psnr: Vec<String> = eg
        .frames
        .iter()
        .map(|f| format!("{:?}", f.psnr_y))
        .collect();
    let cb_psnr: Vec<String> = cb
        .frames
        .iter()
        .map(|f| format!("{:?}", f.psnr_y))
        .collect();
    assert_eq!(eg_psnr, cb_psnr, "entropy backend must not change pixels");
    let eg_p: u64 = eg.inter_frames().filter_map(|f| f.bits).sum();
    let cb_p: u64 = cb.inter_frames().filter_map(|f| f.bits).sum();
    assert!(
        (cb_p as f64) < eg_p as f64 * 0.95,
        "CABAC P-frames {cb_p} should undercut Exp-Golomb {eg_p} by >5%"
    );
}

#[test]
fn rate_control_steers_bits_toward_target() {
    // A generous target first (QP should drift down → more bits), then a
    // tight one (QP up → fewer bits).
    let mut synth = SynthConfig::tiny_test();
    synth.resolution = Resolution::QCIF;
    let frames = SynthSequence::new(synth).take_frames(12);

    let run = |kbps: f64| {
        let mut cfg = functional_config(BalancerKind::Feves);
        cfg.rate_control = Some(RateControlConfig {
            target_kbps: kbps,
            fps: 25.0,
        });
        let mut enc = FevesEncoder::new(Platform::sys_hk(), cfg).unwrap();
        let rep = enc.encode_sequence(&frames);
        let p_bits: Vec<u64> = rep.inter_frames().filter_map(|f| f.bits).collect();
        // Mean of the last few P-frames (after the controller settles).
        let tail = &p_bits[p_bits.len() - 4..];
        tail.iter().sum::<u64>() as f64 / tail.len() as f64
    };
    let loose = run(2000.0); // 80 kbit/frame at QCIF: plenty
    let tight = run(100.0); // 4 kbit/frame: must squeeze
    assert!(
        loose > tight * 2.0,
        "rate control must separate the operating points: loose {loose:.0} vs tight {tight:.0}"
    );
    // The tight run must approach its per-frame budget within a factor ~3.
    let budget = 100.0 * 1000.0 / 25.0;
    assert!(
        tight < budget * 3.0,
        "tight run {tight:.0} bits/frame vs budget {budget:.0}"
    );
}
