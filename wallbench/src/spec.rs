//! The benchmark's fixed tables: workloads and metrics. `BENCHMARK.json`
//! repeats the names, units, directions and bounds; a unit test holds the
//! two together.

use feves::video::geometry::Resolution;

/// Flags every measured command shares.
pub const PLATFORM: &str = "syshk";
pub const KERNELS: &str = "fast";
pub const REFS: &str = "1";

/// What the farm daemon runs with.
pub const FARM_MAX_INFLIGHT: &str = "2";
pub const FARM_POLL_MS: &str = "50";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop, one client: `feves encode` runs back to back.
    Encode,
    /// `feves serve` over a spool: a closed batch, then open-loop arrivals.
    Farm,
}

/// One workload. The sizes were chosen on a 2-core box so that the warm-up
/// and at least one repetition fit the contract's run length.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub res: Resolution,
    /// Frames per input clip.
    pub frames: usize,
    pub sa: u16,
    pub qp: u8,
    /// `--checkpoint-every` of the encode (0 = off).
    pub checkpoint_every: usize,
    /// `--live-out --live-every 50 --flight-out --metrics-out`.
    pub telemetry: bool,
    /// Farm only: distinct inputs, jobs per closed batch.
    pub inputs: usize,
    pub batch_jobs: usize,
    /// Open-loop arrival rate (jobs/s): a third to a half of what the farm
    /// drains at this commit, so that a slow spell of the host does not tip
    /// the queue over. For the encode workloads it paces the traced run's
    /// serve probe, whose jobs are the probe clip.
    pub paced_rate: f64,
    /// Latency limit of a paced job, ms; a failed or refused job misses it.
    pub slo_ms: f64,
    /// Frames of the clip the traced run replays layer by layer.
    pub probe_frames: usize,
    /// Jobs of the traced run's paced serve probe.
    pub probe_jobs: usize,
}

const HD720_ME: Workload = Workload {
    name: "hd720_me",
    why: "1280x720 SA 32: ME is ~2/3 of the frame and the 14.7 MB sub-pel frame spills the caches; exercises ME and threading work",
    kind: Kind::Encode,
    res: Resolution::HD720,
    frames: 41,
    sa: 32,
    qp: 28,
    checkpoint_every: 0,
    telemetry: false,
    inputs: 1,
    batch_jobs: 0,
    paced_rate: 0.6,
    slo_ms: 6000.0,
    probe_frames: 4,
    probe_jobs: 4,
};

const CIF_SME: Workload = Workload {
    name: "cif_sme",
    why: "352x288 SA 8, the smallest legal search: SME ~2/3, ME ~1/6, serial R*/chroma/entropy ~1/5, cache-resident; bypasses ME work",
    kind: Kind::Encode,
    res: Resolution::CIF,
    frames: 320,
    sa: 8,
    qp: 22,
    checkpoint_every: 0,
    telemetry: false,
    inputs: 1,
    batch_jobs: 0,
    paced_rate: 1.0,
    slo_ms: 4000.0,
    probe_frames: 48,
    probe_jobs: 6,
};

const QCIF_LONG_CKPT: Workload = Workload {
    name: "qcif_long_ckpt",
    why: "176x144 x 1024 frames, checkpoint every 4, all telemetry on: cheap frames, so ingest, fsync'd commits, telemetry and O(sequence) memory show",
    kind: Kind::Encode,
    res: Resolution::QCIF,
    frames: 1024,
    sa: 8,
    qp: 28,
    checkpoint_every: 4,
    telemetry: true,
    inputs: 1,
    batch_jobs: 0,
    paced_rate: 1.0,
    slo_ms: 4000.0,
    probe_frames: 192,
    probe_jobs: 6,
};

const FARM_QCIF: Workload = Workload {
    name: "farm_qcif",
    why: "feves serve, 2 sessions in flight over 8 distinct 176x144x32 inputs: pre-spooled batches for capacity, then Poisson arrivals at 2 jobs/s for latency",
    kind: Kind::Farm,
    res: Resolution::QCIF,
    frames: 32,
    sa: 16,
    qp: 28,
    checkpoint_every: 0,
    telemetry: false,
    inputs: 8,
    batch_jobs: 8,
    paced_rate: 2.0,
    slo_ms: 1500.0,
    probe_frames: 32,
    probe_jobs: 12,
};

/// The four workloads; `quick` shrinks every input to QCIF/CIF scale (same
/// code paths and metric names, numbers not comparable with a full run).
pub fn workloads(quick: bool) -> Vec<Workload> {
    let full = [HD720_ME, CIF_SME, QCIF_LONG_CKPT, FARM_QCIF];
    if !quick {
        return full.to_vec();
    }
    full.iter()
        .map(|w| match w.name {
            "hd720_me" => Workload {
                res: Resolution::CIF,
                frames: 9,
                probe_frames: 3,
                probe_jobs: 2,
                paced_rate: 4.0,
                ..*w
            },
            "cif_sme" => Workload {
                frames: 24,
                probe_frames: 6,
                probe_jobs: 2,
                paced_rate: 4.0,
                ..*w
            },
            "qcif_long_ckpt" => Workload {
                frames: 96,
                probe_frames: 24,
                probe_jobs: 2,
                paced_rate: 4.0,
                ..*w
            },
            _ => Workload {
                frames: 8,
                inputs: 4,
                batch_jobs: 8,
                paced_rate: 6.0,
                probe_frames: 8,
                probe_jobs: 4,
                ..*w
            },
        })
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: its name and unit, which way is better, and for an
/// end-to-end metric the share of the parent's median by which it may
/// worsen before a change is a regression. `note` says where it is measured
/// (end to end) or which end-to-end metric it should move (per layer).
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        note,
    }
}

use Better::{Higher, Lower};

/// Measured with tracing off, from outside the child process. A *job* is one
/// `feves encode` run, or one farm job on `farm_qcif`. Times are reported at
/// a nominal host's pace (see `calib`).
pub const END_TO_END: &[Metric] = &[
    e2e(
        "setup_s",
        "s",
        Lower,
        0.25,
        "input generation + one warm-up encode, median of 5 to 15 set-ups",
    ),
    e2e(
        "encode_fps",
        "frames/s",
        Higher,
        0.25,
        "frames / child wall, median over reps; farm: both sessions together, jobs_per_s x frames",
    ),
    e2e(
        "cpu_ms_per_frame",
        "ms",
        Lower,
        0.25,
        "child user+sys from wait4 / frames; farm: the batch daemons', median over batches",
    ),
    e2e(
        "peak_rss_mb",
        "MB",
        Lower,
        0.25,
        "child ru_maxrss; farm: median over the batch daemons",
    ),
    e2e(
        "kbits_per_frame",
        "kbit",
        Lower,
        0.01,
        "bits the CLI reports / frames; repeats bit for bit at one seed",
    ),
    e2e(
        "psnr_y_db",
        "dB",
        Higher,
        0.002,
        "mean PSNR-Y the CLI reports; repeats exactly at one seed",
    ),
    e2e(
        "jobs_per_s",
        "jobs/s",
        Higher,
        0.25,
        "1 / median encode wall; farm: completions/s over windows of half a closed batch",
    ),
    e2e(
        "job_latency_ms_p50",
        "ms",
        Lower,
        0.25,
        "encode spawn to exit; farm: paced job's due time to its done record",
    ),
];

/// Measured in the traced run: in-process replays of the probe clip with a
/// span around every call into a layer, plus CLI probes. Times are medians
/// over P-frames unless the unit says otherwise.
pub const PER_LAYER: &[Metric] = &[
    layer("video.y4m_read_ms_per_frame", "ms", Lower, "encode_fps, peak_rss_mb on qcif_long_ckpt"),
    layer("video.y4m_write_ms_per_frame", "ms", Lower, "encode_fps on qcif_long_ckpt"),
    layer("video.psnr_ms_per_frame", "ms", Lower, "encode_fps on cif_sme (small)"),
    layer("video.input_mb", "MB", Lower, "peak_rss_mb while the CLI reads the whole input"),
    layer("codec.intra_ms", "ms", Lower, "first frame only"),
    layer("codec.int_ms_per_frame", "ms", Lower, "encode_fps on cif_sme"),
    layer("codec.me_ms_per_frame", "ms", Lower, "encode_fps on hd720_me; ~none on cif_sme"),
    layer("codec.sme_ms_per_frame", "ms", Lower, "encode_fps on cif_sme first"),
    layer("codec.mc_ms_per_frame", "ms", Lower, "encode_fps on cif_sme (serial R*)"),
    layer("codec.tq_ms_per_frame", "ms", Lower, "encode_fps on cif_sme (serial R*)"),
    layer("codec.itq_ms_per_frame", "ms", Lower, "encode_fps on cif_sme (serial R*)"),
    layer("codec.dbl_ms_per_frame", "ms", Lower, "encode_fps on cif_sme (serial R*)"),
    layer("codec.chroma_ms_per_frame", "ms", Lower, "encode_fps on cif_sme (serial)"),
    layer("codec.entropy_ms_per_frame", "ms", Lower, "encode_fps on cif_sme (serial)"),
    layer("codec.alloc_ms_per_frame", "ms", Lower, "encode_fps, peak_rss_mb: the per-frame Plane/Field/SubpelFrame::new calls"),
    layer("codec.serial_ms_per_frame", "ms", Lower, "sum of the codec spans of one frame on one thread"),
    layer("codec.sad_evals_per_frame", "count", Lower, "computed: MBs x SA^2 x refs"),
    layer("codec.me_ns_per_sad_eval", "ns", Lower, "codec.me_ms_per_frame per 16x16 SAD position"),
    layer("codec.sf_mb_per_ref", "MB", Lower, "computed: 16 sub-pel phases x frame; working set of SME"),
    layer("codec.bits_per_frame", "bit", Lower, "kbits_per_frame (exact)"),
    layer("codec.nonzero_levels_per_frame", "count", Lower, "entropy work; exact"),
    layer("codec.decode_mismatch", "count", Lower, "frames whose bitstream does not decode to the encoder's reconstruction; must be 0"),
    layer("sched.distribute_us", "us", Lower, "nothing wall-visible; the paper's 2 ms scheduling budget"),
    layer("core.timing_frame_us", "us", Lower, "balance + DAM + VCM + simulate of one frame; small share of a frame on qcif_long_ckpt"),
    layer("core.virtual_fps_1080p", "frames/s", Higher, "the paper's result: SysHK, SA 32, 1 RF on the simulated clock; exact"),
    layer("core.virtual_fps", "frames/s", Higher, "P-frames / sum of the CLI's `sim` ms on this workload's probe clip; exact"),
    layer("core.encode_frame_ms_p50", "ms", Lower, "frame_ms_p50, encode_fps"),
    layer("core.encode_frame_ms_p90", "ms", Lower, "frame_ms_p90"),
    layer("core.parallel_gain", "ratio", Higher, "encode_fps on hd720_me and cif_sme with cpu_ms_per_frame flat; job_latency_ms_p50 on farm_qcif must not rise"),
    layer("core.ckpt_commit_ms", "ms", Lower, "encode_fps on qcif_long_ckpt; job_latency_ms_p50 on farm_qcif"),
    layer("core.ckpt_kb", "kB", Lower, "core.ckpt_commit_ms"),
    layer("core.ckpt_commits", "count", Lower, "commits of the CLI probe run"),
    layer("obs.overhead_ms_per_frame", "ms", Lower, "encode_fps on qcif_long_ckpt only"),
    layer("obs.overhead_pct", "%", Lower, "the same, as a share of the frame"),
    layer("obs.dropped_events", "count", Lower, "telemetry lost under load"),
    layer("ft.verify_mb_per_s", "MB/s", Higher, "job_latency_ms_p50 on farm_qcif (verify before completed)"),
    layer("ft.resume_to_first_frame_ms", "ms", Lower, "farm retry cost: re-read input, re-hash the output prefix, restore"),
    layer("serve.submit_ms", "ms", Lower, "generator lateness only"),
    layer("serve.job_overhead_ms", "ms", Lower, "job_latency_ms_p50: idle-farm job latency minus a standalone encode of the same clip"),
    layer("serve.job_latency_ms_p90", "ms", Lower, "tail of the paced probe"),
    layer("serve.slo_miss_ratio", "ratio", Lower, "paced jobs over the workload's latency limit"),
    layer("serve.batch_cpu_util", "ratio", Higher, "jobs_per_s: daemon (user+sys) / wall / 2 cores over a closed batch"),
    layer("serve.completed", "count", Higher, "done records of the probe farm"),
    layer("serve.failed", "count", Lower, "must be 0"),
    layer("serve.rejected", "count", Lower, "must be 0"),
    layer("serve.retried", "count", Lower, "must be 0"),
    layer("serve.gen_late_ms_max", "ms", Lower, "how late the open-loop generator ran; large values void the latencies"),
    layer("frame_ms_p50", "ms", Lower, "encode_fps: median gap between the CLI's `frame` lines on the probe clip, P-frames"),
    layer("frame_ms_p90", "ms", Lower, "tail of the CLI's P-frame gaps on the probe clip; too noisy on a shared host to carry a bound"),
    layer("cli.startup_ms", "ms", Lower, "peak_rss_mb and encode_fps on qcif_long_ckpt: whole-input read + fingerprint + parse"),
    layer("cli.first_frame_ms", "ms", Lower, "spawn to the first `frame` line"),
    layer("cli.teardown_ms", "ms", Lower, "last `frame` line to exit: flush, fsync, telemetry files"),
    layer("cli.shell_ms_per_frame", "ms", Lower, "child wall minus in-process read + encode_frame + write"),
    layer("cli.cpu_util", "ratio", Higher, "(user+sys) / wall of the CLI probe; 1 = one core busy"),
    layer("trace_overhead_pct", "%", Lower, "traced vs untraced codec replay"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let v = serde_json::value_from_str(&text).unwrap();
        let listed = v.get("workloads").and_then(|a| a.as_array()).unwrap();
        let full = workloads(false);
        assert_eq!(listed.len(), full.len());
        for (j, w) in listed.iter().zip(&full) {
            assert_eq!(j.get("name").and_then(|x| x.as_str()), Some(w.name));
            assert_eq!(j.get("why").and_then(|x| x.as_str()), Some(w.why));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = v.get(key).and_then(|a| a.as_array()).unwrap();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (j, m) in listed.iter().zip(table) {
                let s = |k: &str| j.get(k).and_then(|x| x.as_str()).unwrap().to_string();
                assert_eq!(s("name"), m.name);
                assert_eq!(s("unit"), m.unit, "{}", m.name);
                assert_eq!(s("better"), m.better.name(), "{}", m.name);
                assert_eq!(
                    j.get("bound").and_then(|b| b.as_f64()),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn names_are_unique_and_quick_keeps_them() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
        let full: Vec<&str> = workloads(false).iter().map(|w| w.name).collect();
        let quick: Vec<&str> = workloads(true).iter().map(|w| w.name).collect();
        assert_eq!(full, quick);
    }
}
