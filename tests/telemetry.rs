//! Integration tests of the live telemetry pipeline: bounded-bus drop
//! policy (flood proptest), session isolation under concurrency, and the
//! live snapshot's golden key-path schema.
//!
//! The schema golden lives at `tests/golden/live_snapshot.schema` — one
//! key path per line (arrays generalized to `[]`), sorted. Regenerate after
//! an intentional format change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test telemetry
//! ```
//!
//! CI points `FEVES_LIVE_SNAPSHOT` at a snapshot produced by a real
//! `feves simulate --live-out` run; the schema test then validates that
//! file against the same golden instead of a synthetic snapshot.

use feves::obs::{
    build_snapshot, hub, BusController, LiveSnapshot, Metric, TelemetryBus, TelemetryEvent,
};
use proptest::prelude::*;
use serde::Value;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

// ---- Drop policy ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flooding a bounded bus with no consumer: every publish returns
    /// immediately (accepted or not), rejected events are counted, and the
    /// events that do survive come back out in publish order — the
    /// "dropped-and-counted, never blocked, never reordered within a
    /// session" contract.
    #[test]
    fn flooding_the_bus_drops_and_counts(
        cap in 1usize..256,
        total in 1u64..2048,
    ) {
        let bus = TelemetryBus::new(cap);
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        for i in 0..total {
            // The payload carries the publish sequence, so ordering is
            // checkable on the consumer side.
            let ok = bus.publish(TelemetryEvent::Add {
                session: 424_242,
                metric: Metric::FramesEncoded,
                delta: i,
            });
            if ok { accepted += 1 } else { rejected += 1 };
        }
        prop_assert_eq!(accepted + rejected, total);
        prop_assert!(bus.depth() <= cap, "depth {} over capacity {cap}", bus.depth());
        let stats = bus.stats();
        // Bus-level drops also include rejected self-metering events, so
        // they can only exceed the session-visible count.
        prop_assert!(stats.dropped >= rejected);
        // Drain it all: session events must be exactly the accepted ones,
        // in strictly increasing publish order.
        let mut seen = 0u64;
        let mut last: Option<u64> = None;
        while let Some(ev) = bus.pop() {
            match ev {
                TelemetryEvent::Add { session, delta, .. } => {
                    prop_assert_eq!(session, 424_242);
                    if let Some(prev) = last {
                        prop_assert!(delta > prev, "reordered: {delta} after {prev}");
                    }
                    last = Some(delta);
                    seen += 1;
                }
                // Sampled self-metering observations ride the same queue.
                TelemetryEvent::Observe { metric, .. } => {
                    prop_assert_eq!(metric, Metric::ObsBusEnqueueNs);
                }
                other => prop_assert!(false, "unexpected event {other:?}"),
            }
        }
        prop_assert_eq!(seen, accepted);
    }

    /// The same contract through a recording scope: a session publishing
    /// into a full bus loses events but never blocks, and `sync_dropped`
    /// folds the exact loss into `obs.dropped_events`.
    #[test]
    fn scope_floods_are_counted_per_session(extra in 1u64..512) {
        let cap = 16usize;
        let scope = hub().session("flood");
        let bus = Arc::new(TelemetryBus::new(cap));
        assert!(scope.attach_bus(bus.clone()));
        let rec = scope.recorder();
        let total = cap as u64 + extra;
        for _ in 0..total {
            rec.add(Metric::FramesEncoded, 1);
        }
        // At most `cap` slots exist and nothing drains: everything else
        // must be in the per-session drop counter.
        let dropped = scope.dropped_events();
        prop_assert!(dropped >= extra.saturating_sub(1), "dropped {dropped}, extra {extra}");
        prop_assert!(dropped < total);
        scope.sync_dropped();
        prop_assert_eq!(scope.metrics().counter(Metric::ObsDroppedEvents), dropped);
        // The registry saw nothing — no drain thread ran.
        prop_assert_eq!(scope.metrics().counter(Metric::FramesEncoded), 0);
    }
}

// ---- Session isolation (acceptance criterion) ----

/// Two sessions recording concurrently through one shared bus must land
/// every event in their own registry — no cross-contamination of counters,
/// histograms, device rows, or frame counts.
#[test]
fn concurrent_sessions_do_not_cross_contaminate() {
    let a = hub().session("iso-a");
    let b = hub().session("iso-b");
    let mut ctl = BusController::start(1 << 16, None);
    assert!(a.attach_bus(ctl.bus()));
    assert!(b.attach_bus(ctl.bus()));
    a.set_device_labels(&["A-GPU"]);
    b.set_device_labels(&["B-CPU"]);
    const N: u64 = 10_000;
    std::thread::scope(|s| {
        let a = a.clone();
        s.spawn(move || {
            let rec = a.recorder();
            for i in 0..N {
                rec.add(Metric::FramesEncoded, 1);
                rec.observe(Metric::FrameTau1Ms, 11.0);
                if i % 100 == 0 {
                    a.device_sample(0, 80.0, Some(1.0), false);
                    a.frame_done();
                }
            }
        });
        let b = b.clone();
        s.spawn(move || {
            let rec = b.recorder();
            for i in 0..N {
                rec.add(Metric::DamBytesTransferred, 3);
                rec.observe(Metric::FrameTau2Ms, 22.0);
                if i % 100 == 0 {
                    b.device_sample(0, 20.0, None, true);
                    b.frame_done();
                }
            }
        });
    });
    ctl.stop();
    // Capacity (65536) exceeds the total event volume, so nothing may drop
    // and the counts must be exact.
    assert_eq!(a.dropped_events(), 0);
    assert_eq!(b.dropped_events(), 0);
    let (ma, mb) = (a.metrics(), b.metrics());
    assert_eq!(ma.counter(Metric::FramesEncoded), N);
    assert_eq!(ma.counter(Metric::DamBytesTransferred), 0);
    assert_eq!(mb.counter(Metric::DamBytesTransferred), 3 * N);
    assert_eq!(mb.counter(Metric::FramesEncoded), 0);
    assert_eq!(ma.histogram(Metric::FrameTau1Ms).count(), N);
    assert_eq!(ma.histogram(Metric::FrameTau2Ms).count(), 0);
    assert_eq!(mb.histogram(Metric::FrameTau2Ms).count(), N);
    assert_eq!(mb.histogram(Metric::FrameTau1Ms).count(), 0);
    assert_eq!(a.frames(), N / 100);
    assert_eq!(b.frames(), N / 100);
    let (da, db) = (a.devices(), b.devices());
    assert_eq!(da[0].name, "A-GPU");
    assert!(!da[0].blacklisted);
    assert_eq!(da[0].residual_pct, Some(1.0));
    assert_eq!(db[0].name, "B-CPU");
    assert!(db[0].blacklisted);
    assert_eq!(db[0].residual_pct, None);
}

/// Eight producer threads against the one drain thread, through a bus small
/// enough to overflow: every attempt is either dropped-and-counted on its
/// own session or applied to its own session's registry — none lost, none
/// applied twice, none in a neighbour's registry.
#[test]
fn eight_producers_one_drain_account_for_every_event() {
    const PRODUCERS: u64 = 8;
    const N: u64 = 20_000;
    let scopes: Vec<_> = (0..PRODUCERS)
        .map(|i| hub().session(&format!("mp-{i}")))
        .collect();
    let mut ctl = BusController::start(64, None);
    for s in &scopes {
        assert!(s.attach_bus(ctl.bus()));
    }
    let start = std::sync::Barrier::new(PRODUCERS as usize);
    std::thread::scope(|t| {
        for (i, s) in scopes.iter().enumerate() {
            let start = &start;
            t.spawn(move || {
                let rec = s.recorder();
                start.wait();
                for _ in 0..N {
                    // The delta names the producer, so an event applied to
                    // the wrong registry breaks that registry's sum.
                    rec.add(Metric::FramesEncoded, i as u64 + 1);
                }
            });
        }
    });
    let bus = ctl.bus();
    ctl.stop();
    let stats = bus.stats();
    assert_eq!(stats.depth, 0);
    assert_eq!(stats.drained, stats.published);
    let (mut applied, mut dropped, mut self_metered, mut bus_events) = (0, 0, 0, 0);
    for (i, s) in scopes.iter().enumerate() {
        let m = s.metrics();
        let sum = m.counter(Metric::FramesEncoded);
        assert_eq!(
            sum % (i as u64 + 1),
            0,
            "session {i} holds a neighbour's event"
        );
        let landed = sum / (i as u64 + 1);
        assert_eq!(landed + s.dropped_events(), N, "session {i}");
        applied += landed;
        dropped += s.dropped_events();
        self_metered += m.histogram(Metric::ObsBusEnqueueNs).count();
        bus_events += m.counter(Metric::ObsBusEvents);
    }
    assert_eq!(applied + dropped, PRODUCERS * N);
    // The bus's own books agree: what it accepted is what the sessions
    // received (their events plus the sampled self-metering ones), and it
    // rejected at least what the sessions were told.
    assert_eq!(stats.published, applied + self_metered);
    assert_eq!(stats.published, bus_events);
    assert!(stats.dropped >= dropped);
}

// ---- Golden snapshot schema ----

/// Collect every leaf key path of `v`, arrays generalized to `[]`.
fn key_paths(v: &Value, prefix: &str, out: &mut BTreeSet<String>) {
    match v {
        Value::Object(fields) => {
            for (k, child) in fields.iter() {
                key_paths(child, &format!("{prefix}/{k}"), out);
            }
        }
        Value::Array(items) => {
            for child in items.iter() {
                key_paths(child, &format!("{prefix}[]"), out);
            }
        }
        _ => {
            out.insert(prefix.to_string());
        }
    }
}

fn schema_of(v: &Value) -> String {
    let mut paths = BTreeSet::new();
    key_paths(v, "", &mut paths);
    let mut out: String = paths.into_iter().collect::<Vec<_>>().join("\n");
    out.push('\n');
    out
}

/// A synthetic snapshot with every structural feature present: bus stats,
/// one session with devices (one residual set, one cleared+blacklisted).
fn synthetic_snapshot() -> Value {
    let scope = hub().session("schema");
    scope.set_device_labels(&["GPU0", "CPU0"]);
    scope.device_sample(0, 87.0, Some(1.5), false);
    scope.device_sample(1, 40.0, None, true);
    let rec = scope.recorder();
    rec.add(Metric::FramesEncoded, 3);
    rec.observe(Metric::FrameTauTotMs, 33.0);
    scope.frame_done();
    let bus = TelemetryBus::new(64);
    bus.publish(TelemetryEvent::FrameDone {
        session: scope.id(),
    });
    build_snapshot(
        1,
        Duration::from_millis(100),
        Some(&bus.stats()),
        &[scope],
        &[],
    )
}

#[test]
fn live_snapshot_matches_golden_schema() {
    let value = match std::env::var_os("FEVES_LIVE_SNAPSHOT") {
        // CI mode: validate a real snapshot file produced by
        // `feves simulate --live-out` against the same golden.
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.to_string_lossy()));
            LiveSnapshot::parse(&text)
                .expect("snapshot parses")
                .value()
                .clone()
        }
        None => synthetic_snapshot(),
    };
    let actual = schema_of(&value);
    let golden_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/live_snapshot.schema");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", golden_path.display()));
    assert_eq!(
        actual, expected,
        "live snapshot schema drifted; run UPDATE_GOLDEN=1 cargo test --test telemetry \
         if the change is intentional"
    );
}

#[test]
fn snapshot_roundtrip_preserves_session_values() {
    let scope = hub().session("roundtrip");
    let rec = scope.recorder();
    rec.add(Metric::VcmTasksScheduled, 77);
    // An untouched gauge serializes as null, not as a fake zero.
    let early = build_snapshot(
        8,
        Duration::from_secs(1),
        None,
        std::slice::from_ref(&scope),
        &[],
    );
    let early_gauges = early
        .get("sessions")
        .and_then(Value::as_array)
        .and_then(|s| {
            s.iter()
                .find(|s| s.get("id").and_then(Value::as_u64) == Some(scope.id()))
        })
        .and_then(|s| s.get("gauges"))
        .cloned()
        .expect("session gauges present");
    assert_eq!(early_gauges.get("kernel.dispatch"), Some(&Value::Null));
    rec.gauge(Metric::KernelDispatch, 1.0);
    let value = build_snapshot(
        9,
        Duration::from_secs(2),
        None,
        std::slice::from_ref(&scope),
        &[],
    );
    let text = serde_json::to_string(&value).expect("non-finite floats are nulled");
    let snap = LiveSnapshot::parse(&text).expect("parses");
    assert_eq!(snap.seq(), 9);
    let sessions = snap
        .value()
        .get("sessions")
        .and_then(Value::as_array)
        .unwrap();
    let ours = sessions
        .iter()
        .find(|s| s.get("id").and_then(Value::as_u64) == Some(scope.id()))
        .expect("our session is present");
    let counters = ours.get("counters").unwrap();
    assert_eq!(
        counters.get("vcm.tasks_scheduled").and_then(Value::as_u64),
        Some(77)
    );
    let gauges = ours.get("gauges").unwrap();
    assert_eq!(
        gauges.get("kernel.dispatch").and_then(Value::as_f64),
        Some(1.0)
    );
}
