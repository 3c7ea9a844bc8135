//! Property tests of the inter-frame overlap under randomized device speeds,
//! quiesce points and fault schedules: recovered stall time is bounded by
//! both the carried stall and the frame's phase-1 work, a frame with no
//! carry saves nothing and is submitted alone, and a quiesce always returns
//! the encoder to a frame boundary a checkpoint can snapshot.

use feves::core::pipeline::overlap;
use feves::core::prelude::*;
use feves::ft::{FaultKind, FaultSpec};
use feves::sched::CompletionTracker;
use proptest::prelude::*;

/// Build a tracker from per-device (phase1_finish, total_finish) pairs.
fn tracker_of(times: &[(f64, f64)]) -> CompletionTracker {
    let mut t = CompletionTracker::new(times.len());
    for (d, &(p1, fin)) in times.iter().enumerate() {
        t.record(d, p1, true);
        t.record(d, p1.max(fin), false);
    }
    let barrier = times.iter().map(|&(p1, f)| p1.max(f)).fold(0.0, f64::max);
    t.set_barrier(barrier);
    t
}

fn arb_frame_times(devices: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec((1e-3f64..50.0, 1e-3f64..100.0), devices..=devices)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Streaming with random boundaries: for any random per-frame device
    /// times, each frame's overlap against the carry it was handed obeys
    /// its bounds, and a frame handed no carry saves nothing.
    #[test]
    fn overlap_is_bounded_by_carry_and_phase1(
        frames in proptest::collection::vec(
            (arb_frame_times(3), 0u8..5), 2..12),
    ) {
        let mut carry: Option<Vec<f64>> = None;
        for (times, boundary) in &frames {
            if *boundary == 0 {
                carry = None;
            }
            let tracker = tracker_of(times);
            let tau1 = (0..3).map(|d| tracker.phase1_of(d)).fold(0.0, f64::max);
            let o = overlap(carry.as_deref(), &tracker);
            prop_assert_eq!(o.depth_at_submit, 1 + usize::from(carry.is_some()));
            // recovered_d <= carried stall_d and <= this frame's phase-1_d.
            for (d, &r) in o.recovered_s.iter().enumerate() {
                let carried = carry.as_ref().map_or(0.0, |s| s[d]);
                prop_assert!(r <= carried + 1e-12, "device {d}: recovered {r} > carried {carried}");
                prop_assert!(r <= times[d].0 + 1e-12, "device {d}: recovered {r} > phase1 {}", times[d].0);
                prop_assert!(r >= 0.0);
            }
            // The frame can never get faster than removing all of phase 1.
            prop_assert!(o.saved_s >= 0.0);
            prop_assert!(o.saved_s <= tau1 + 1e-12, "saved {} > tau1 {tau1}", o.saved_s);
            if carry.is_none() {
                prop_assert_eq!(o.saved_s, 0.0, "a cold frame must save nothing");
                prop_assert_eq!(o.total_recovered_s(), 0.0);
            }
            carry = Some(tracker.stalls());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Quiesce always reaches a frame boundary: the snapshot a checkpoint
    /// takes succeeds, and the next frame is submitted alone, carries no
    /// stall and reports exactly the lockstep time.
    #[test]
    fn quiesce_always_reaches_a_frame_boundary(
        quiesce_after in proptest::collection::vec(proptest::bool::ANY, 8..=8),
    ) {
        fn cfg(pipeline: bool) -> EncoderConfig {
            let mut cfg = EncoderConfig::full_hd(EncodeParams::default());
            cfg.noise_amp = 0.0;
            cfg.pipeline = pipeline;
            cfg
        }
        let mut on = FevesEncoder::new(Platform::sys_hk(), cfg(true)).unwrap();
        let mut off = FevesEncoder::new(Platform::sys_hk(), cfg(false)).unwrap();
        on.enable_flight(16);
        let mut cold = true;
        for frame in 1..=8 {
            let (a, b) = (on.encode_inter_timing(), off.encode_inter_timing());
            let r = on.flight().unwrap().to_vec().pop().unwrap();
            prop_assert_eq!(r.inflight_depth, if cold { 1 } else { 2 }, "frame {}", frame);
            if cold {
                prop_assert!(r.devices.iter().all(|d| d.overlap_carried_ms == 0.0));
                prop_assert_eq!(a.tau_tot, b.tau_tot, "frame {}", frame);
            }
            cold = quiesce_after[frame - 1];
            if cold {
                on.quiesce_pipeline();
                prop_assert_eq!(on.snapshot().inter_count, frame);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// End-to-end under random fault schedules: the framework must leave
    /// the pipeline quiesce-able at any frame boundary and keep the
    /// flight-recorded depth at one or two frames in flight.
    #[test]
    fn framework_under_random_faults_keeps_pipeline_invariants(
        fault_frame in 1usize..6,
        fault_device in 0usize..3,
        kind in prop_oneof![
            Just(FaultKind::Death),
            Just(FaultKind::Stall { frames: 2 }),
            Just(FaultKind::TransferError),
        ],
    ) {
        let mut cfg = EncoderConfig::full_hd(EncodeParams::default());
        cfg.noise_amp = 0.0;
        cfg.pipeline = true;
        cfg.faults = vec![FaultSpec {
            device: fault_device,
            frame: fault_frame,
            kind,
        }];
        let mut enc = FevesEncoder::new(Platform::sys_nff(), cfg).unwrap();
        enc.enable_flight(16);
        enc.run_timing(8);
        let records = enc.flight().unwrap().to_vec();
        for r in &records {
            prop_assert!((1..=2).contains(&r.inflight_depth),
                "frame {}: depth {} outside 1..=2", r.frame, r.inflight_depth);
            for d in &r.devices {
                prop_assert!(d.overlap_carried_ms >= 0.0);
            }
        }
        // A checkpoint can be taken at this boundary.
        enc.quiesce_pipeline();
        let _ = enc.snapshot();
    }
}
