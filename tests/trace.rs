//! Causal-trace acceptance: drive the real `feves` binary through a traced
//! farm run and prove the observability contract end to end — the merged
//! trace parses into a valid span DAG, per-job critical-path buckets tile
//! each job's wall time, a chaos-killed job routes its retry through
//! checkpoint→resume edges, tracing never changes output bytes, and the
//! what-if projector predicts a genuinely perturbed re-run. A proptest
//! fuzzes the DAG invariants and a golden pins the trace line schema.
//! One real run — faults, drift, overlap, a lease swap — has its flight,
//! metrics and trace exports pinned byte for byte, and is repeated with
//! and without observers to show they never feed back.
//!
//! The schema golden lives at `tests/golden/trace.schema` — one key path
//! per line (arrays generalized to `[]`), sorted; the real run's are
//! `tests/golden/run.{flight,metrics,trace}.jsonl`. Regenerate after an
//! intentional format change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test trace
//! ```

mod common;

use common::{perfetto_events, qcif_config, qcif_frames, run, scratch, write_input};
use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use feves::core::prelude::*;
use feves::core::Perturbation;
use feves::ft::ckpt::fnv1a64;
use feves::obs::critical::{busiest_device, frame_samples_from_flight, what_if_device};
use feves::obs::{
    hub, validate_dag, CriticalReport, EdgeKind, LiveConfig, LiveWriter, MemoryRecorder, Metric,
    TraceCollector, TraceCtx, TraceLog, TraceSink,
};
use proptest::prelude::*;
use serde::Value;

const COMMON: &[&str] = &["--platform", "syshk", "--sa", "16", "--refs", "2"];

fn submit(spool: &str, input: &str, output: &str, id: &str, extra: &[&str]) {
    let mut args = vec!["submit", spool, input, output, "--id", id];
    args.extend_from_slice(COMMON);
    args.extend_from_slice(extra);
    let (ok, stdout, stderr) = run(&args);
    assert!(ok, "submit {id} failed:\n{stdout}\n{stderr}");
}

fn serve(spool: &str, extra: &[&str]) -> String {
    let mut args = vec![
        "serve",
        spool,
        "--exit-when-idle",
        "--poll-ms",
        "10",
        "--checkpoint-every",
        "2",
    ];
    args.extend_from_slice(COMMON);
    args.extend_from_slice(extra);
    let (ok, stdout, stderr) = run(&args);
    assert!(ok, "serve failed:\n{stdout}\n{stderr}");
    stdout
}

// ---- Farm acceptance ----

/// Three jobs through one traced daemon, one chaos-killed mid-encode and
/// retried: the merged trace is a valid DAG, each job's critical-path
/// buckets tile its wall time within 1%, and the retried job's trace
/// routes through a checkpoint→resume edge.
#[test]
fn traced_farm_run_yields_valid_critical_path_attribution() {
    let dir = scratch("farm");
    let spool = dir.join("spool");
    fs::create_dir_all(&spool).unwrap();
    let spool_s = spool.to_str().unwrap().to_string();
    let input = dir.join("in.y4m");
    write_input(&input, 0x7A3C, 6);
    let input = input.to_str().unwrap().to_string();

    for (id, extra) in [
        ("t0", &[][..]),
        ("t1", &["--chaos-kill-at", "3", "--chaos-device", "0"][..]),
        ("t2", &[][..]),
    ] {
        let out = dir.join(format!("{id}.y4m"));
        submit(&spool_s, &input, out.to_str().unwrap(), id, extra);
    }
    let trace_path = dir.join("trace.jsonl");
    let stdout = serve(&spool_s, &["--trace-out", trace_path.to_str().unwrap()]);
    assert!(stdout.contains("3 completed"), "farm summary:\n{stdout}");

    let text = fs::read_to_string(&trace_path).expect("trace log written");
    assert!(
        TraceLog::sniff(&text),
        "trace log carries the schema header"
    );
    let log = TraceLog::parse_jsonl(&text).expect("trace log parses");
    validate_dag(&log).expect("span DAG validates");
    assert_eq!(log.trace_ids().len(), 3, "one trace per job");

    let crit = CriticalReport::from_log(&log).expect("critical-path analysis");
    assert_eq!(crit.jobs.len(), 3);
    for j in &crit.jobs {
        assert!(j.wall_us > 0.0, "{}: wall time recorded", j.name);
        let sum = j.bucket_sum_us();
        assert!(
            (sum - j.wall_us).abs() <= j.wall_us * 0.01 + 1.0,
            "{}: bucket sum {sum} µs vs wall {} µs drifts over 1%",
            j.name,
            j.wall_us
        );
    }

    // The chaos-killed job resumed from its durable checkpoint: its trace
    // must say so causally, not just statistically.
    let killed = fnv1a64(b"t1");
    assert!(
        log.edges
            .iter()
            .any(|e| e.trace_id == killed && e.kind == EdgeKind::CheckpointResume),
        "retried job carries a checkpoint→resume edge"
    );
    let jt1 = crit
        .jobs
        .iter()
        .find(|j| j.trace_id == killed)
        .expect("killed job analyzed");
    assert!(jt1.resume_edges > 0, "report counts the resume");
    // Clean jobs took the queue→admit path only.
    assert!(log
        .edges
        .iter()
        .any(|e| e.trace_id == fnv1a64(b"t0") && e.kind == EdgeKind::QueueAdmit));
    // Per-frame spans from inside the sessions made it into the farm log.
    assert!(log.spans.iter().any(|s| s.cat == "frame"));
    assert!(log.spans.iter().any(|s| s.cat == "checkpoint"));

    // `feves trace <log>` renders the same analysis; `--perfetto` converts.
    let (ok, stdout, _) = run(&["trace", trace_path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("critical path · 3 job(s)"), "{stdout}");
    assert!(stdout.contains("job:t1"), "{stdout}");
    let perfetto = dir.join("perfetto.json");
    let (ok, _, stderr) = run(&[
        "trace",
        trace_path.to_str().unwrap(),
        "--perfetto",
        perfetto.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let events = perfetto_events(&fs::read_to_string(&perfetto).unwrap());
    assert!(!events.is_empty());
}

/// Tracing is observability, not a different execution: the same job
/// served with and without `--trace-out` produces byte-identical output.
#[test]
fn tracing_does_not_change_output_bytes() {
    let dir = scratch("bytes");
    let input = dir.join("in.y4m");
    write_input(&input, 0xBEEF, 5);
    let input = input.to_str().unwrap().to_string();

    let mut outs = Vec::new();
    for (tag, traced) in [("plain", false), ("traced", true)] {
        let spool = dir.join(format!("spool-{tag}"));
        fs::create_dir_all(&spool).unwrap();
        let spool_s = spool.to_str().unwrap().to_string();
        let out = dir.join(format!("{tag}.y4m"));
        submit(
            &spool_s,
            &input,
            out.to_str().unwrap(),
            "same-job",
            &["--chaos-kill-at", "3", "--chaos-device", "0"],
        );
        let trace_path = dir.join(format!("{tag}.trace.jsonl"));
        let extra: Vec<&str> = if traced {
            vec!["--trace-out", trace_path.to_str().unwrap()]
        } else {
            vec![]
        };
        let stdout = serve(&spool_s, &extra);
        assert!(stdout.contains("1 completed"), "{stdout}");
        outs.push(fs::read(&out).unwrap());
    }
    assert_eq!(outs[0], outs[1], "tracing changed the bitstream");
}

// ---- What-if projection ----

/// The analyzer's waterfill projection is grounded against reality: speed
/// one device up by an actual perturbed re-run and the projection from the
/// *baseline* samples must land within 5% of the measured result.
#[test]
fn what_if_projection_matches_perturbed_rerun() {
    let frames = 16;
    let params = EncodeParams {
        search_area: SearchArea(32),
        n_ref: 2,
        qp: 28,
        qp_intra: 27,
    };
    let mut cfg = EncoderConfig::full_hd(params);
    cfg.noise_amp = 0.0; // deterministic device timings
    let speedup = 1.3;

    let mut base = FevesEncoder::new(Platform::sys_hk(), cfg.clone()).unwrap();
    base.enable_flight(frames);
    base.run_timing(frames);
    let records: Vec<_> = base.flight().unwrap().records().cloned().collect();
    // Skip the characterization warmup: the LP is still converging there.
    let skip = records.len() - 8;
    let samples = frame_samples_from_flight(&records[skip..]);
    let device = busiest_device(&samples).expect("a busiest device exists");
    let projected = what_if_device(&samples, device, speedup).expect("projection");

    let mut fast = FevesEncoder::new(Platform::sys_hk(), cfg).unwrap();
    fast.add_perturbation(Perturbation {
        device,
        frames: 1..frames + 1,
        factor: speedup,
    });
    fast.enable_flight(frames);
    fast.run_timing(frames);
    let fast_records: Vec<_> = fast.flight().unwrap().records().cloned().collect();
    let measured_us: f64 = fast_records[skip..]
        .iter()
        .map(|r| r.measured_tau.tau_tot_ms * 1e3)
        .sum();

    assert!(projected.projected_us < projected.baseline_us);
    let err = (projected.projected_us - measured_us).abs() / measured_us;
    assert!(
        err <= 0.05,
        "what-if projected {:.1} µs, perturbed re-run measured {measured_us:.1} µs \
         ({:.1}% off, device {device} ×{speedup})",
        projected.projected_us,
        err * 100.0
    );
}

// ---- DAG invariants ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random span trees recorded through the real `TraceSink` API always
    /// validate (single root, all spans reachable, acyclic with causal
    /// edges) and survive a JSONL round trip intact.
    #[test]
    fn random_span_trees_validate_and_roundtrip(
        parents in proptest::collection::vec(0usize..64, 1..48),
        edge_stride in 2usize..6,
    ) {
        let collector = Arc::new(TraceCollector::new());
        let ctx = TraceCtx::for_job("fuzz");
        let root_sink = TraceSink::new(
            collector.clone(),
            TraceCtx { trace_id: ctx.trace_id, parent_span: 0 },
            Instant::now(),
        );
        let root = root_sink.record("job:fuzz", "job", 0.0, 1000.0);
        let mut ids = vec![root];
        for (i, p) in parents.iter().enumerate() {
            let parent = ids[p % ids.len()];
            let sink = root_sink.under(parent);
            ids.push(sink.record(&format!("s{i}"), "phase", i as f64, 1.0));
        }
        // Causal edges along insertion order mirror real emission (cause
        // recorded before effect), so the graph must stay acyclic.
        for w in ids.windows(2).step_by(edge_stride) {
            root_sink.link(w[0], w[1], EdgeKind::PipelineOverlap);
        }
        let log = collector.snapshot();
        prop_assert!(validate_dag(&log).is_ok());
        let back = TraceLog::parse_jsonl(&collector.to_jsonl()).expect("round trip");
        prop_assert_eq!(&back.spans, &log.spans);
        prop_assert_eq!(&back.edges, &log.edges);
    }
}

/// The validator rejects the corruptions the analyzer cannot survive:
/// orphaned parents and causal cycles.
#[test]
fn validator_rejects_orphans_and_cycles() {
    let collector = Arc::new(TraceCollector::new());
    let ctx = TraceCtx::for_job("bad");
    let root_sink = TraceSink::new(
        collector.clone(),
        TraceCtx {
            trace_id: ctx.trace_id,
            parent_span: 0,
        },
        Instant::now(),
    );
    let root = root_sink.record("job:bad", "job", 0.0, 100.0);
    let sink = root_sink.under(root);
    let a = sink.record("attempt0", "attempt", 0.0, 50.0);
    let mut log = collector.snapshot();
    validate_dag(&log).expect("well-formed log validates");

    // A causal edge back up the tree closes a cycle.
    let mut cyclic = log.clone();
    cyclic.edges.push(feves::obs::TraceEdge {
        trace_id: ctx.trace_id,
        from_span: a,
        to_span: root,
        kind: EdgeKind::QueueAdmit,
    });
    assert!(validate_dag(&cyclic).is_err(), "cycle must be rejected");

    // A span pointing at a parent that was never recorded is an orphan.
    log.spans[1].parent = Some(0xDEAD_BEEF);
    assert!(validate_dag(&log).is_err(), "orphan must be rejected");
}

// ---- Golden line schema ----

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

/// A synthetic trace exercising every line shape: the header, a full
/// lifecycle span set, a frame span with device slices and args, and one
/// edge of each kind.
fn synthetic_trace_jsonl() -> String {
    use feves::obs::trace::{DeviceSlice, TraceArg};
    let collector = Arc::new(TraceCollector::new());
    let ctx = TraceCtx::for_job("schema");
    let root_sink = TraceSink::new(
        collector.clone(),
        TraceCtx {
            trace_id: ctx.trace_id,
            parent_span: 0,
        },
        Instant::now(),
    );
    let root = root_sink.record("job:schema", "job", 0.0, 1000.0);
    let sink = root_sink.under(root);
    sink.record("admission", "admission", 0.0, 0.0);
    let q = sink.record("queue", "queue", 0.0, 10.0);
    let a0 = sink.record("attempt0", "attempt", 10.0, 400.0);
    sink.link(q, a0, EdgeKind::QueueAdmit);
    let at = sink.under(a0);
    let ck = at.record("ckpt2", "checkpoint", 300.0, 20.0);
    let f0 = at.record_full(
        "frame1",
        "frame",
        10.0,
        100.0,
        vec![DeviceSlice {
            device: 0,
            rows: 68,
            busy_ms: 0.08,
        }],
        vec![TraceArg {
            k: "tau_tot_ms".into(),
            v: 0.1,
        }],
    );
    let fs0 = at.under(f0);
    fs0.record("phase1", "phase", 10.0, 40.0);
    fs0.record("kernels:fast", "kernel", 10.0, 80.0);
    let f1 = at.record("frame2", "frame", 110.0, 100.0);
    at.link(f0, f1, EdgeKind::PipelineOverlap);
    let r1 = sink.record("retry1", "retry", 410.0, 50.0);
    let a1 = sink.record("attempt1", "attempt", 460.0, 400.0);
    sink.link(ck, a1, EdgeKind::CheckpointResume);
    let _ = r1;
    sink.record("drain", "drain", 860.0, 140.0);
    collector.to_jsonl()
}

#[test]
fn trace_jsonl_matches_golden_schema() {
    let text = synthetic_trace_jsonl();
    let mut paths = BTreeSet::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = serde_json::value_from_str(line).expect("trace line parses");
        key_paths(&v, "", &mut paths);
    }
    let mut actual: String = paths.into_iter().collect::<Vec<_>>().join("\n");
    actual.push('\n');
    check_golden("trace.schema", &actual);
}

/// The merged Perfetto view of a farm-shaped log: metadata, complete
/// events and both ends of every causal flow.
#[test]
fn perfetto_view_has_tracks_and_flows() {
    let log = TraceLog::parse_jsonl(&synthetic_trace_jsonl()).unwrap();
    let events = perfetto_events(&log.to_perfetto());
    let phases: BTreeSet<&str> = (events.iter())
        .filter_map(|e| e.get("ph").and_then(Value::as_str))
        .collect();
    assert_eq!(phases, BTreeSet::from(["M", "X", "f", "s"]));
}

fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden; run UPDATE_GOLDEN=1 cargo test --test trace \
         if the change is intentional"
    );
}

// ---- Real-run goldens and the single emission point ----

const RUN_FRAMES: usize = 16;

/// The scenario behind `tests/golden/run.{flight,metrics,trace}.jsonl`: a
/// pipelined SysNFF timing run that walks the frame loop's recovery
/// (transfer fault; deadline miss → blacklist → re-solve → re-admission),
/// drift re-characterization, overlap and lease arms. `attach` hooks the
/// observers up before the first frame.
fn golden_run(attach: impl FnOnce(&mut FevesEncoder)) -> (FevesEncoder, Vec<FrameReport>) {
    let mut cfg = EncoderConfig::full_hd(EncodeParams {
        search_area: SearchArea(32),
        n_ref: 2,
        ..Default::default()
    });
    cfg.pipeline = true;
    // A sluggish EWMA cannot absorb the perturbation below frame to frame,
    // so the residuals stay out of band long enough for drift to fire.
    cfg.ewma = feves::sched::Ewma(0.1);
    cfg.faults = ["0:xfer@4", "1:slow@7+3x8"]
        .iter()
        .map(|s| s.parse().expect("fault spec"))
        .collect();
    let mut enc = FevesEncoder::new(Platform::sys_nff(), cfg).unwrap();
    enc.add_perturbation(Perturbation {
        device: 3,
        frames: 9..RUN_FRAMES + 1,
        factor: 0.4,
    });
    let ctl = Arc::new(SessionCtl::new());
    enc.set_ctl(ctl.clone());
    attach(&mut enc);
    let mut reports = Vec::new();
    for frame in 1..=RUN_FRAMES {
        // The supervisor swaps the lease at frame boundaries: core 5 is
        // taken away for two frames, then handed back.
        match frame {
            13 => ctl.set_lease(Some(vec![true, true, true, true, true, false])),
            15 => ctl.set_lease(None),
            _ => {}
        }
        reports.push(enc.encode_inter_timing());
    }
    enc.quiesce_pipeline();
    (enc, reports)
}

/// A sink parented under a fresh job root span, as the farm hands one to
/// each session attempt.
fn attempt_sink(collector: &Arc<TraceCollector>, job: &str) -> TraceSink {
    let ctx = TraceCtx::for_job(job);
    let root_sink = TraceSink::new(
        collector.clone(),
        TraceCtx {
            trace_id: ctx.trace_id,
            parent_span: 0,
        },
        Instant::now(),
    );
    let root = root_sink.record(&format!("job:{job}"), "job", 0.0, 0.0);
    root_sink.under(root)
}

/// The three exports of one real run, pinned byte for byte. The goldens
/// were written by the frame loop as it stood before it was split into
/// phases; they walk the arms no fault-free lockstep golden reaches.
#[test]
fn real_run_matches_goldens() {
    let rec = Arc::new(MemoryRecorder::new());
    let collector = Arc::new(TraceCollector::new());
    let (enc, _) = golden_run(|enc| {
        enc.set_recorder(rec.clone());
        enc.enable_flight(RUN_FRAMES);
        enc.set_trace(attempt_sink(&collector, "golden-run"));
    });
    let flight = enc.flight().expect("flight enabled");
    check_golden("run.flight.jsonl", &flight.to_jsonl());
    check_golden("run.metrics.jsonl", &rec.to_jsonl(true));
    check_golden("run.trace.jsonl", &collector.to_jsonl());

    // The scenario reached the arms it exists for.
    let records = flight.to_vec();
    let ft = enc.ft_stats();
    assert_eq!(
        (ft.detected, ft.recovered, ft.resolves),
        (2, 2, 2),
        "{ft:?}"
    );
    assert!(records.iter().any(|r| r.recharacterized), "drift fired");
    assert!(records.iter().any(|r| r.inflight_depth == 2), "overlap ran");
    let retried: Vec<usize> = records
        .iter()
        .filter(|r| r.recovery_ms > 0.0)
        .map(|r| r.frame)
        .collect();
    assert_eq!(retried, [3, 6], "the xfer and the slow frame were retried");

    // However often a frame was retried, it is emitted exactly once: one
    // flight record, one `frame{n}` span with four children, one tick of
    // `frames.encoded`.
    assert_eq!(
        records.iter().map(|r| r.frame).collect::<Vec<_>>(),
        (0..RUN_FRAMES).collect::<Vec<_>>()
    );
    assert_eq!(rec.counter(Metric::FramesEncoded), RUN_FRAMES as u64);
    let log = collector.snapshot();
    validate_dag(&log).expect("span DAG validates");
    for n in 0..RUN_FRAMES {
        let name = format!("frame{n}");
        let spans: Vec<_> = log.spans.iter().filter(|s| s.name == name).collect();
        assert_eq!(spans.len(), 1, "{name} spans");
        let children = log.children_of(spans[0].trace_id, spans[0].span_id);
        assert_eq!(children.len(), 4, "{name} children");
    }
}

/// Observers never feed back: the golden scenario with every observer on
/// the emission point attached (session scope under a live snapshot
/// writer, flight ring, trace sink) and with none reports the same frames
/// and leaves the same encoder state.
#[test]
fn observers_do_not_change_reports_or_state() {
    let collector = Arc::new(TraceCollector::new());
    let scope = hub().session("observed-run");
    let dir = std::env::temp_dir().join(format!("feves-observed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut writer = LiveWriter::start(LiveConfig {
        path: dir.join("live.json"),
        period: std::time::Duration::from_millis(1),
    });
    let (observed, observed_reports) = golden_run(|enc| {
        enc.set_scope(scope.clone());
        enc.enable_flight(RUN_FRAMES);
        enc.set_trace(attempt_sink(&collector, "observed-run"));
    });
    writer.stop();
    std::fs::remove_dir_all(&dir).ok();
    let (bare, bare_reports) = golden_run(|_| {});
    assert_eq!(observed.flight().expect("flight enabled").len(), RUN_FRAMES);
    assert_eq!(
        scope.metrics().counter(Metric::FramesEncoded),
        RUN_FRAMES as u64
    );
    assert_eq!(collector.span_count(), 1 + 5 * RUN_FRAMES);
    // The scheduling spans reach the session's registry:
    // one per frame, and one more per fault-recovery re-solve.
    let attempts = RUN_FRAMES as u64 + observed.ft_stats().resolves;
    for name in ["balance", "dam.plan", "vcm.build"] {
        let span = scope.metrics().spans().into_iter().find(|s| s.name == name);
        assert_eq!(span.map(|s| s.count), Some(attempts), "{name}");
    }

    // Everything in a report but the wall-clock scheduling overhead.
    let strip = |reports: Vec<FrameReport>| -> Vec<String> {
        reports
            .into_iter()
            .map(|mut r| {
                r.sched_overhead = 0.0;
                format!("{r:?}")
            })
            .collect()
    };
    assert_eq!(strip(observed_reports), strip(bare_reports));
    // FrameworkState holds NaN sentinels, so compare its Debug rendering:
    // perf, health, drift, ft_stats, prev_dist, the DAM carry, the noise
    // position and the deadline baseline are all in it.
    assert_eq!(
        format!("{:?}", observed.snapshot()),
        format!("{:?}", bare.snapshot())
    );

    // And the pixels: a functional QCIF encode codes the same bits and
    // reconstructs the same planes, frame by frame, watched or not.
    let functional = |watched: bool| {
        let mut enc = FevesEncoder::new(Platform::sys_hk(), qcif_config()).unwrap();
        if watched {
            enc.set_scope(hub().session("observed-encode"));
            enc.enable_flight(RUN_FRAMES);
            enc.set_trace(attempt_sink(&collector, "observed-encode"));
        }
        let mut coded = Vec::new();
        for frame in qcif_frames(4) {
            let bits = enc.encode_frame(&frame).bits;
            let (y, u, v) = enc.last_reconstruction_yuv().expect("functional run");
            let planes = [y, u, v].map(|p| p.as_slice().to_vec());
            coded.push((bits, planes));
        }
        coded
    };
    assert!(
        functional(true) == functional(false),
        "observers moved pixels"
    );
}
