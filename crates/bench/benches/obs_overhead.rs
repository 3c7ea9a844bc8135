//! Observability overhead bench: recording metrics and spans must not eat
//! into the paper's < 2 ms scheduling-overhead budget.
//!
//! Two measurements:
//!
//! 1. A criterion group timing the recorder hot path (counter + histogram +
//!    span) against the `NoopRecorder` baseline — the per-event cost —
//!    bare and through a session scope's recorder.
//! 2. An end-to-end acceptance check: a full SysHK timing run with a
//!    `MemoryRecorder` attached still reports per-frame scheduling overhead
//!    below 2 ms (both the wall-clock report and the recorded
//!    `sched.overhead_us` histogram). The bench exits non-zero on failure.
//! 3. The same acceptance run with the full live path enabled — session
//!    scope and the snapshot writer's periodic writes — to prove live
//!    monitoring stays inside the same budget.
//! 4. The same run again with a causal-trace sink attached, so the span
//!    emission in the per-frame hot loop is held to the identical budget.

use criterion::{criterion_group, BenchmarkId, Criterion};
use feves_bench::hd_config;
use feves_core::prelude::*;
use feves_obs::{
    hub, LiveConfig, LiveSnapshot, LiveWriter, MemoryRecorder, Metric, NoopRecorder, Recorder,
};
use std::sync::Arc;
use std::time::Duration;

fn bench_recorder_hot_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_event");
    let scope = hub().session("bench-event");
    let recorders: [(&str, Arc<dyn Recorder>); 3] = [
        ("noop", Arc::new(NoopRecorder)),
        ("memory", Arc::new(MemoryRecorder::new())),
        ("scope", scope.recorder()),
    ];
    for (name, rec) in recorders {
        group.bench_with_input(BenchmarkId::from_parameter(name), &rec, |b, r| {
            b.iter(|| {
                let _span = feves_obs::span!(r.clone(), "bench.span");
                r.add(Metric::FramesEncoded, 1);
                r.observe(Metric::FrameTau1Ms, 12.5);
                std::hint::black_box(r.enabled())
            });
        });
    }
    group.finish();
}

/// Budget from §IV of the paper: scheduling must stay under 2 ms per
/// inter-frame, recording enabled.
const BUDGET_US: f64 = 2_000.0;

fn acceptance_check() {
    let rec = Arc::new(MemoryRecorder::new());
    let mut enc = FevesEncoder::new(Platform::sys_hk(), hd_config(32, 2, BalancerKind::Feves))
        .expect("valid bench config");
    enc.set_recorder(rec.clone());
    let report = enc.run_timing(16);

    let wall_max_us = report.max_sched_overhead() * 1e6;
    let hist = rec.histogram(Metric::SchedOverheadUs);
    let hist_max_us = hist.max();
    println!(
        "acceptance: sched overhead with recording enabled — wall max {:.1} us, \
         recorded max {:.1} us over {} frames (budget {} us)",
        wall_max_us,
        hist_max_us,
        hist.count(),
        BUDGET_US
    );
    assert!(
        hist.count() > 0,
        "recorder saw no sched.overhead_us samples"
    );
    let pass = wall_max_us < BUDGET_US && hist_max_us < BUDGET_US;
    println!("acceptance: {}", if pass { "PASS" } else { "FAIL" });
    assert!(
        pass,
        "scheduling overhead exceeded the 2 ms budget with recording enabled"
    );
}

/// The live gate: the *live* path — session scope and periodic atomic
/// snapshot writes — must keep per-frame scheduling overhead inside the
/// same 2 ms budget as plain recording.
fn live_acceptance_check() {
    let dir = std::env::temp_dir().join(format!("feves-obs-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let live_path = dir.join("live.json");

    let scope = hub().session("bench-live");
    let mut writer = LiveWriter::start(LiveConfig {
        path: live_path.clone(),
        period: Duration::from_millis(25),
    });

    let mut enc = FevesEncoder::new(Platform::sys_hk(), hd_config(32, 2, BalancerKind::Feves))
        .expect("valid bench config");
    enc.set_scope(scope.clone());
    let report = enc.run_timing(16);
    // Read before any flush: records land in the registry as they are made.
    let metrics = scope.metrics();
    let encoded = metrics.counter(Metric::FramesEncoded);
    writer.stop();

    let wall_max_us = report.max_sched_overhead() * 1e6;
    let hist = metrics.histogram(Metric::SchedOverheadUs);
    println!(
        "live acceptance: sched overhead with live snapshots — wall max {:.1} us, \
         recorded max {:.1} us over {} frames (budget {} us)",
        wall_max_us,
        hist.max(),
        hist.count(),
        BUDGET_US
    );
    assert!(
        hist.count() > 0,
        "live path saw no sched.overhead_us samples"
    );
    assert_eq!(
        encoded, 16,
        "every frame is in the registry right after the run"
    );
    // The final snapshot the writer wrote at stop must parse.
    let text = std::fs::read_to_string(&live_path).expect("final live snapshot exists");
    let snap = LiveSnapshot::parse(&text).expect("final live snapshot parses");
    assert!(snap.seq() > 0);
    std::fs::remove_dir_all(&dir).ok();

    let pass = wall_max_us < BUDGET_US && hist.max() < BUDGET_US;
    println!("live acceptance: {}", if pass { "PASS" } else { "FAIL" });
    assert!(
        pass,
        "scheduling overhead exceeded the 2 ms budget with live snapshots enabled"
    );
}

/// Causal tracing rides the same budget: a timing run with a `TraceSink`
/// attached must keep per-frame scheduling overhead under the same 2 ms,
/// and the sink must actually have collected the per-frame span tree.
fn trace_acceptance_check() {
    use feves_obs::{TraceCollector, TraceCtx, TraceSink};
    let collector = Arc::new(TraceCollector::new());
    let ctx = TraceCtx::for_job("bench-trace");
    let root_sink = TraceSink::new(
        collector.clone(),
        TraceCtx {
            trace_id: ctx.trace_id,
            parent_span: 0,
        },
        std::time::Instant::now(),
    );
    let root = root_sink.record("job:bench-trace", "job", 0.0, 0.0);

    let rec = Arc::new(MemoryRecorder::new());
    let mut enc = FevesEncoder::new(Platform::sys_hk(), hd_config(32, 2, BalancerKind::Feves))
        .expect("valid bench config");
    enc.set_recorder(rec.clone());
    enc.set_trace(root_sink.under(root));
    let report = enc.run_timing(16);

    let wall_max_us = report.max_sched_overhead() * 1e6;
    let hist = rec.histogram(Metric::SchedOverheadUs);
    let spans = collector.snapshot().spans.len();
    println!(
        "trace acceptance: sched overhead with tracing enabled — wall max {:.1} us, \
         recorded max {:.1} us, {} span(s) collected (budget {} us)",
        wall_max_us,
        hist.max(),
        spans,
        BUDGET_US
    );
    assert!(spans > 0, "tracing run collected no spans");
    let pass = wall_max_us < BUDGET_US && hist.max() < BUDGET_US;
    println!("trace acceptance: {}", if pass { "PASS" } else { "FAIL" });
    assert!(
        pass,
        "scheduling overhead exceeded the 2 ms budget with tracing enabled"
    );
}

criterion_group!(benches, bench_recorder_hot_path);

fn main() {
    // `cargo test` runs harness-less bench binaries with `--test`; the
    // acceptance run alone would add seconds to the suite.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    benches();
    acceptance_check();
    live_acceptance_check();
    trace_acceptance_check();
}
