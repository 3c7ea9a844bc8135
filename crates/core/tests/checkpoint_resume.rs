//! Resume bit-exactness at the library level: an encoder restored from a
//! mid-sequence [`FrameworkState`] must produce exactly the frames an
//! uninterrupted encoder would have produced — same bits, same
//! reconstructions, same schedule decisions — for every snapshot point.
//!
//! This is the invariant the whole crash-safety design leans on: if
//! snapshot/restore is bit-exact here, `feves resume`'s output equals the
//! uninterrupted run by construction (the CLI just replays the same calls).

use feves_core::prelude::*;
use feves_ft::{ByteReader, ByteWriter, CheckpointBlob};
use feves_video::synth::{SynthConfig, SynthSequence};

fn make_frames(n: usize) -> Vec<feves_video::frame::Frame> {
    let mut synth = SynthSequence::new(SynthConfig {
        resolution: Resolution::QCIF,
        seed: 0x5EED,
        objects: 4,
        pan: (1.0, 0.5),
        noise: 2,
    });
    (0..n).map(|_| synth.next_frame()).collect()
}

fn functional_config() -> EncoderConfig {
    let mut cfg = EncoderConfig::full_hd(EncodeParams {
        search_area: SearchArea(16),
        n_ref: 2,
        ..Default::default()
    });
    cfg.resolution = Resolution::QCIF;
    cfg.mode = ExecutionMode::Functional;
    cfg
}

/// The comparable footprint of one encoded frame: coded bits, PSNR bit
/// pattern, and the reconstruction planes.
fn footprint(
    enc: &FevesEncoder,
    rep: &feves_core::FrameReport,
) -> (Option<u64>, Option<u64>, Vec<u8>) {
    let (y, u, v) = enc.last_reconstruction_yuv().expect("functional mode");
    let mut pixels = Vec::new();
    for p in [y, u, v] {
        for row in 0..p.height() {
            pixels.extend_from_slice(p.row(row));
        }
    }
    (rep.bits, rep.psnr_y.map(f64::to_bits), pixels)
}

#[test]
fn restore_at_any_frame_is_bit_identical() {
    let n = 8;
    let frames = make_frames(n);
    // Uninterrupted baseline, capturing every frame's footprint and the
    // snapshot after every frame.
    let mut baseline = FevesEncoder::new(Platform::sys_hk(), functional_config()).unwrap();
    let mut base_prints = Vec::new();
    let mut snapshots = Vec::new();
    for f in &frames {
        let rep = baseline.encode_frame(f);
        base_prints.push(footprint(&baseline, &rep));
        snapshots.push(baseline.snapshot());
    }
    // Resume from every snapshot point and re-encode the tail.
    for (k, snap) in snapshots.into_iter().enumerate().take(n - 1) {
        let mut resumed =
            FevesEncoder::restore(Platform::sys_hk(), functional_config(), snap).unwrap();
        for (j, f) in frames.iter().enumerate().skip(k + 1) {
            let rep = resumed.encode_frame(f);
            let print = footprint(&resumed, &rep);
            assert_eq!(
                print.0, base_prints[j].0,
                "bits diverged at frame {j} after resume from frame {k}"
            );
            assert_eq!(
                print.1, base_prints[j].1,
                "PSNR diverged at frame {j} after resume from frame {k}"
            );
            assert_eq!(
                print.2, base_prints[j].2,
                "reconstruction diverged at frame {j} after resume from frame {k}"
            );
        }
    }
}

#[test]
fn serialized_checkpoint_restores_bit_identically_too() {
    // Same invariant, but through the full binary serialization: snapshot →
    // encode_checkpoint → to_bytes → from_bytes → decode → restore.
    let n = 6;
    let k = 3;
    let frames = make_frames(n);
    let mut baseline = FevesEncoder::new(Platform::sys_hk(), functional_config()).unwrap();
    let mut tail_prints = Vec::new();
    let mut snap = None;
    for (j, f) in frames.iter().enumerate() {
        let rep = baseline.encode_frame(f);
        if j == k {
            snap = Some(baseline.snapshot());
        }
        if j > k {
            tail_prints.push((j, footprint(&baseline, &rep)));
        }
    }
    let ctx = ResumeContext {
        input: "synthetic".into(),
        output: "out.y4m".into(),
        platform: "sys-hk".into(),
        platform_json: None,
        sa: 16,
        refs: 2,
        qp: 26,
        balancer: "feves".into(),
        kernels: None,
        faults: Vec::new(),
        deadline_factor: None,
        flight_out: None,
        metrics_out: None,
        every: 2,
        keep: 2,
        frames_done: k + 1,
        n_frames: n,
        out_bytes: 0,
        input_fingerprint: 7,
        pipeline: false,
        out_crc: 0,
    };
    let bytes = feves_core::encode_checkpoint(&ctx, &snap.unwrap()).to_bytes();
    let blob = feves_ft::CheckpointBlob::from_bytes(&bytes).unwrap();
    let (ctx2, state) = feves_core::decode_checkpoint(&blob).unwrap();
    assert_eq!(ctx2.frames_done, k + 1);
    let mut resumed =
        FevesEncoder::restore(Platform::sys_hk(), functional_config(), state).unwrap();
    for (j, expected) in &tail_prints {
        let rep = resumed.encode_frame(&frames[*j]);
        let print = footprint(&resumed, &rep);
        assert_eq!(&print, expected, "frame {j} diverged through serialization");
    }
}

#[test]
fn restore_rejects_wrong_platform() {
    let frames = make_frames(3);
    let mut enc = FevesEncoder::new(Platform::sys_hk(), functional_config()).unwrap();
    for f in &frames {
        enc.encode_frame(f);
    }
    let snap = enc.snapshot();
    // SysNFF has a different device count → stale, not a crash.
    match FevesEncoder::restore(Platform::sys_nff(), functional_config(), snap) {
        Err(e) => assert!(matches!(e, FevesError::CheckpointStale(_)), "{e}"),
        Ok(_) => panic!("restore onto a different platform must fail"),
    }
}

/// The synthetic QCIF job's resume context, `frames_done` of `n` frames in.
fn job_ctx(frames_done: usize, n_frames: usize) -> ResumeContext {
    ResumeContext {
        input: "synthetic".into(),
        output: "out.y4m".into(),
        platform: "sys-hk".into(),
        platform_json: None,
        sa: 16,
        refs: 2,
        qp: 26,
        balancer: "feves".into(),
        kernels: None,
        faults: Vec::new(),
        deadline_factor: None,
        flight_out: None,
        metrics_out: None,
        every: 1,
        keep: 3,
        frames_done,
        n_frames,
        out_bytes: 0,
        input_fingerprint: 7,
        pipeline: false,
        out_crc: 0,
    }
}

/// Section tags of a v3 checkpoint, in file order.
const TAGS: [&[u8; 4]; 11] = [
    b"META", b"PERF", b"HLTH", b"DRFT", b"NOIS", b"DAMS", b"CURS", b"RATE", b"DIST", b"REFS",
    b"PEND",
];

/// `blob` with the newest entry of its REFS section cut to luma only: the
/// presence byte that follows its Y plane set to 0 and its Cb and Cr planes
/// dropped. Every other byte is kept; the CRCs are recomputed on write.
fn newest_reference_without_chroma(blob: &CheckpointBlob) -> CheckpointBlob {
    let refs = blob.require_section(*b"REFS").unwrap();
    let mut r = ByteReader::new(refs);
    let n = r.take_usize().unwrap();
    assert!(n >= 1, "the window holds a reference");
    let (w, h) = (r.take_usize().unwrap(), r.take_usize().unwrap());
    let y = r.take_bytes().unwrap();
    assert_eq!(r.take_u8().unwrap(), 1, "written with Cb and Cr");
    for _ in 0..2 {
        r.take_usize().unwrap();
        r.take_usize().unwrap();
        r.take_bytes().unwrap();
    }
    let mut head = ByteWriter::new();
    head.put_usize(n);
    head.put_usize(w);
    head.put_usize(h);
    head.put_bytes(&y);
    head.put_u8(0);
    let mut payload = head.into_bytes();
    payload.extend_from_slice(&refs[refs.len() - r.remaining()..]);
    let mut out = CheckpointBlob::new(blob.fingerprint);
    for tag in TAGS {
        if let Some(p) = blob.section(*tag) {
            let p = if tag == b"REFS" { &payload[..] } else { p };
            out.push_section(*tag, p.to_vec());
        }
    }
    out
}

/// A checkpoint whose newest reference has no chroma cannot be resumed
/// from: the next P-frame predicts Cb and Cr from every reference. It is
/// rejected as corrupt when it is decoded, so `load_latest` skips it and
/// resumes from the generation before, bit-exactly.
#[test]
fn a_reference_without_chroma_is_corrupt_and_the_previous_generation_resumes() {
    let n = 6;
    let frames = make_frames(n);
    let dir = std::env::temp_dir().join(format!("feves-luma-only-ref-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mgr = CheckpointManager::new(&dir, 3);
    let mut baseline = FevesEncoder::new(Platform::sys_hk(), functional_config()).unwrap();
    let mut prints = Vec::new();
    for (j, f) in frames.iter().enumerate() {
        let rep = baseline.encode_frame(f);
        prints.push(footprint(&baseline, &rep));
        if j == 2 || j == 3 {
            let snap = baseline.snapshot();
            assert_eq!(snap.refs.len(), 2, "a full window at frame {j}");
            mgr.write(&job_ctx(j + 1, n), &snap, &feves_obs::NoopRecorder)
                .unwrap();
        }
    }
    let newest = dir.join("ckpt-000004.ckpt");
    let blob = CheckpointBlob::from_bytes(&std::fs::read(&newest).unwrap()).unwrap();
    let mangled = newest_reference_without_chroma(&blob);
    match feves_core::decode_checkpoint(&mangled) {
        Err(FevesError::CheckpointCorrupt(_)) => {}
        Err(e) => panic!("a luma-only reference must be corrupt, got {e}"),
        Ok(_) => panic!("a luma-only reference decoded"),
    }
    std::fs::write(&newest, mangled.to_bytes()).unwrap();

    let (path, ctx, state, warnings) = load_latest(&dir).unwrap();
    assert!(path.ends_with("ckpt-000003.ckpt"), "{}", path.display());
    assert_eq!(warnings.len(), 1, "{warnings:?}");
    assert!(warnings[0].contains("ckpt-000004"), "{}", warnings[0]);
    let mut resumed =
        FevesEncoder::restore(Platform::sys_hk(), functional_config(), state).unwrap();
    for (j, f) in frames.iter().enumerate().skip(ctx.frames_done) {
        let rep = resumed.encode_frame(f);
        assert_eq!(
            footprint(&resumed, &rep),
            prints[j],
            "frame {j} diverged after the fallback"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Algorithm 2 warm-starts from the previous frame's distribution, one
/// entry per device: one taken on another platform is as stale as a
/// characterization for another device count.
#[test]
fn a_warm_start_for_another_device_count_is_stale() {
    let mut enc = FevesEncoder::new(Platform::sys_hk(), functional_config()).unwrap();
    for f in &make_frames(3) {
        enc.encode_frame(f);
    }
    let mut snap = enc.snapshot();
    let devices = Platform::sys_hk().len();
    assert_eq!(snap.prev_dist.as_ref().map(|d| d.me.len()), Some(devices));
    // The QCIF frame's nine MB rows over two devices.
    let rows = || vec![5, 4];
    snap.prev_dist = Some(feves_sched::Distribution::from_rows(
        rows(),
        rows(),
        rows(),
        0,
        &[usize::MAX; 2],
        None,
    ));
    match FevesEncoder::restore(Platform::sys_hk(), functional_config(), snap) {
        Err(FevesError::CheckpointStale(why)) => {
            assert!(why.contains("distribution"), "{why}")
        }
        Err(e) => panic!("a {devices}-device platform with a 2-device warm start: {e}"),
        Ok(_) => panic!("a {devices}-device platform restored a 2-device warm start"),
    }
}

/// [`functional_config`] with closed-loop rate control, or without.
fn rate_config(rate: bool) -> EncoderConfig {
    let mut cfg = functional_config();
    cfg.rate_control = rate.then_some(RateControlConfig {
        target_kbps: 400.0,
        fps: 25.0,
    });
    cfg
}

/// Restore `state` under `cfg` and encode three frames, catching a panic:
/// `Ok(Err(_))` is a refused restore, `Err(_)` a panic on the way.
fn restore_and_encode(
    cfg: EncoderConfig,
    state: FrameworkState,
) -> std::thread::Result<Result<(), FevesError>> {
    std::panic::catch_unwind(move || {
        let mut enc = FevesEncoder::restore(Platform::sys_hk(), cfg, state)?;
        for f in &make_frames(3) {
            enc.encode_frame(f);
        }
        Ok(())
    })
}

/// The state of a rate-controlled (`rate`) encoder three frames in.
fn rate_state(rate: bool) -> FrameworkState {
    let mut enc = FevesEncoder::new(Platform::sys_hk(), rate_config(rate)).unwrap();
    for f in &make_frames(3) {
        enc.encode_frame(f);
    }
    enc.snapshot()
}

/// A RATE section no controller can run — a QP floor above the ceiling or
/// past 51, a QP past 51 or outside its rails, no bit budget — is corrupt,
/// not a panic in the first P-frame's QP step.
#[test]
fn rate_rails_no_controller_can_run_are_corrupt() {
    type Mutation = fn(&mut feves_codec::rate::RateSnapshot);
    let mutations: [(&str, Mutation); 6] = [
        ("min above max", |r| (r.min_qp, r.max_qp) = (40, 30)),
        ("min 60", |r| r.min_qp = 60),
        ("max 60", |r| r.max_qp = 60),
        ("qp 52", |r| r.qp = 52),
        ("qp below min", |r| r.qp = r.min_qp - 1),
        ("no budget", |r| r.target_bits_per_frame = 0.0),
    ];
    for (what, mutate) in mutations {
        let mut state = rate_state(true);
        mutate(state.rate.as_mut().expect("a rate-controlled state"));
        match restore_and_encode(rate_config(true), state) {
            Ok(Err(FevesError::CheckpointCorrupt(why))) => {
                assert!(why.contains("rate"), "{what}: {why}")
            }
            Ok(Err(e)) => panic!("{what}: restore refused with {e}, not as corrupt"),
            Ok(Ok(())) => panic!("{what}: restored and encoded"),
            Err(_) => panic!("{what}: restored, then panicked"),
        }
    }
}

/// Whether rate control runs is the configuration's to say: a RATE section
/// for a configuration without rate control, or none for one with it, is
/// stale.
#[test]
fn rate_state_for_the_other_configuration_is_stale() {
    for (state_rate, config_rate) in [(true, false), (false, true)] {
        let state = rate_state(state_rate);
        assert_eq!(state.rate.is_some(), state_rate);
        match restore_and_encode(rate_config(config_rate), state) {
            Ok(Err(FevesError::CheckpointStale(why))) => assert!(why.contains("rate"), "{why}"),
            Ok(Err(e)) => panic!("state rate {state_rate}, config rate {config_rate}: {e}"),
            Ok(Ok(())) => panic!("state rate {state_rate}, config rate {config_rate}: restored"),
            Err(_) => panic!("state rate {state_rate}, config rate {config_rate}: panicked"),
        }
    }
}

/// The deadline baseline is compared against every frame's measured sync
/// points: a NaN there makes every comparison false, so fault detection
/// would be silently off, and a negative or infinite one no run can hold.
/// Any such component is corrupt.
#[test]
fn a_deadline_baseline_no_run_can_hold_is_corrupt() {
    let mut enc = FevesEncoder::new(Platform::sys_hk(), functional_config()).unwrap();
    for f in &make_frames(3) {
        enc.encode_frame(f);
    }
    let base = enc.snapshot().expected_tau.unwrap_or((10.5, 14.5, 21.5));
    for bad in [f64::NAN, f64::INFINITY, -1.0] {
        for component in 0..3 {
            let mut tau = [base.0, base.1, base.2];
            tau[component] = bad;
            let mut state = enc.snapshot();
            state.expected_tau = Some((tau[0], tau[1], tau[2]));
            match FevesEncoder::restore(Platform::sys_hk(), functional_config(), state) {
                Err(FevesError::CheckpointCorrupt(why)) => {
                    assert!(why.contains("deadline"), "{bad} at {component}: {why}")
                }
                Err(e) => panic!("{bad} at {component}: refused with {e}, not as corrupt"),
                Ok(_) => panic!("{bad} at {component}: restored"),
            }
        }
    }
}
