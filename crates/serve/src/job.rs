//! Job specs and done-file records for the spool protocol.
//!
//! A job is one JSON file in the spool directory, written atomically by
//! `feves submit` (temp + rename, so the daemon can never read a torn
//! spec). The daemon reports every accepted or rejected job's terminal
//! state as `<spool>/done/<id>.json`. Spool files for jobs that have not
//! reached a *successful* terminal state survive a drain, which is what
//! makes the zero-lost-jobs guarantee checkable from the outside: after
//! `feves drain`, every submitted job is either in `done/` as `completed`
//! or still sitting in the spool (queued, or `checkpointed` mid-encode)
//! for the next daemon to pick up.

//! Every control file (spool spec, done record) carries a trailing
//! `#crc32=XXXXXXXX` integrity line over the JSON body. Readers verify it
//! with [`unframe_control`] and surface a typed [`ServeError::Corrupt`] on
//! mismatch — a bit-rotted or torn control file is rejected (and
//! quarantined by the daemon), never crashed on. Files without the trailer
//! (pre-framing daemons) are accepted as-is.

use crate::ServeError;
use feves_ft::ckpt::{crc32, fnv1a64};
use feves_ft::io::backend_for;
use feves_obs::{write_atomic, write_atomic_recorded, Recorder};
use serde::Value;
use std::path::{Path, PathBuf};

/// Prefix of the integrity trailer line on framed control files.
const CRC_TRAILER: &str = "#crc32=";

/// Frame a control-file body with its integrity trailer: the body
/// (newline-terminated) followed by one `#crc32=XXXXXXXX` line covering
/// every byte before it.
pub fn frame_control(text: &str) -> String {
    let body = if text.ends_with('\n') {
        text.to_string()
    } else {
        format!("{text}\n")
    };
    let crc = crc32(body.as_bytes());
    format!("{body}{CRC_TRAILER}{crc:08x}\n")
}

/// Verify and strip a control file's integrity trailer, returning the
/// body. Files without a trailer are legacy-accepted verbatim; a present
/// but wrong trailer is a typed [`ServeError::Corrupt`].
pub fn unframe_control(text: &str) -> Result<&str, ServeError> {
    let trimmed = text.trim_end_matches('\n');
    let (body_end, last) = match trimmed.rfind('\n') {
        Some(pos) => (pos + 1, &trimmed[pos + 1..]),
        None => (0, trimmed),
    };
    if !last.starts_with(CRC_TRAILER) {
        return Ok(text);
    }
    let want = u32::from_str_radix(&last[CRC_TRAILER.len()..], 16)
        .map_err(|_| ServeError::Corrupt(format!("unparseable integrity trailer '{last}'")))?;
    let body = &text[..body_end];
    let got = crc32(body.as_bytes());
    if got != want {
        return Err(ServeError::Corrupt(format!(
            "control-file checksum mismatch: trailer {want:08x}, content {got:08x}"
        )));
    }
    Ok(body)
}

/// One encode job, as carried by a spool file.
///
/// The fields mirror the `feves encode` flag set so a farm job and a
/// single-session CLI encode of the same input are the *same* job — the
/// chaos suite compares their outputs byte for byte. There is one kernel
/// family, so there is no kernel choice to carry.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Unique job id; names the spool file and the done record.
    pub id: String,
    /// Input `.y4m` path.
    pub input: String,
    /// Output (reconstruction) path.
    pub output: String,
    /// Named platform (`syshk`, `sysnf`, …) — see `feves platforms`.
    pub platform: String,
    /// Motion-estimation search area.
    pub sa: u16,
    /// Reference frames.
    pub refs: usize,
    /// Inter QP (intra is derived as `qp - 1`, as everywhere else).
    pub qp: u8,
    /// Balancer name (`feves`, `proportional`, `equidistant`).
    pub balancer: String,
    /// Injected device-fault specs (`0:death@5`, …).
    pub faults: Vec<String>,
    /// Durable checkpoint cadence in frames (0 = the farm default).
    pub checkpoint_every: usize,
    /// Chaos hook: panic the session right before this frame index, on
    /// attempt 0 only — proves fault isolation + checkpointed retry.
    pub chaos_kill_at: Option<usize>,
    /// Chaos hook: the device a chaos kill is attributed to, so the
    /// supervisor's fleet health machine has a culprit to blacklist.
    pub chaos_device: Option<usize>,
    /// Run the session with inter-frame pipelining (`--pipeline on`).
    /// Scheduling-only: the output bytes are identical either way.
    pub pipeline: bool,
    /// Record this job into the farm's causal-trace log (when the daemon
    /// runs with `--trace-out`). Defaults on — tracing is observational
    /// only; `feves submit --no-trace` opts a job out.
    pub trace: bool,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            id: String::new(),
            input: String::new(),
            output: String::new(),
            platform: "syshk".into(),
            sa: 32,
            refs: 1,
            qp: 28,
            balancer: "feves".into(),
            faults: Vec::new(),
            checkpoint_every: 0,
            chaos_kill_at: None,
            chaos_device: None,
            pipeline: false,
            trace: true,
        }
    }
}

impl JobSpec {
    /// Deterministic per-job seed (health-backoff jitter decorrelation).
    pub fn seed(&self) -> u64 {
        fnv1a64(self.id.as_bytes())
    }

    /// The job's checkpoint directory — same default as `feves encode`.
    pub fn ckpt_dir(&self) -> PathBuf {
        PathBuf::from(format!("{}.ckpt", self.output))
    }

    /// Render as the spool-file JSON document.
    pub fn to_value(&self) -> Value {
        let s = |v: &str| Value::Str(v.to_string());
        let n = |v: u64| Value::UInt(v);
        let opt = |v: Option<usize>| match v {
            Some(x) => Value::UInt(x as u64),
            None => Value::Null,
        };
        Value::Object(vec![
            ("id".into(), s(&self.id)),
            ("input".into(), s(&self.input)),
            ("output".into(), s(&self.output)),
            ("platform".into(), s(&self.platform)),
            ("sa".into(), n(self.sa as u64)),
            ("refs".into(), n(self.refs as u64)),
            ("qp".into(), n(self.qp as u64)),
            ("balancer".into(), s(&self.balancer)),
            (
                "faults".into(),
                Value::Array(self.faults.iter().map(|f| s(f)).collect()),
            ),
            ("checkpoint_every".into(), n(self.checkpoint_every as u64)),
            ("chaos_kill_at".into(), opt(self.chaos_kill_at)),
            ("chaos_device".into(), opt(self.chaos_device)),
            ("pipeline".into(), Value::Bool(self.pipeline)),
            ("trace".into(), Value::Bool(self.trace)),
        ])
    }

    /// Parse a spool-file document. `id`, `input` and `output` are
    /// required; everything else falls back to the encode defaults.
    pub fn from_value(v: &Value) -> Result<JobSpec, ServeError> {
        let bad = |m: &str| ServeError::BadJob(m.to_string());
        let obj = v
            .as_object()
            .ok_or_else(|| bad("job spec must be a JSON object"))?;
        let _ = obj;
        let req = |key: &str| -> Result<String, ServeError> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .filter(|s| !s.is_empty())
                .ok_or_else(|| bad(&format!("job spec needs a non-empty '{key}'")))
        };
        let num = |key: &str, default: u64| -> Result<u64, ServeError> {
            match v.get(key) {
                None | Some(Value::Null) => Ok(default),
                Some(x) => x
                    .as_u64()
                    .ok_or_else(|| bad(&format!("'{key}' must be a non-negative integer"))),
            }
        };
        let opt_num = |key: &str| -> Result<Option<usize>, ServeError> {
            match v.get(key) {
                None | Some(Value::Null) => Ok(None),
                Some(x) => x
                    .as_u64()
                    .map(|u| Some(u as usize))
                    .ok_or_else(|| bad(&format!("'{key}' must be a non-negative integer"))),
            }
        };
        let str_or = |key: &str, default: &str| -> String {
            v.get(key)
                .and_then(Value::as_str)
                .filter(|s| !s.is_empty())
                .unwrap_or(default)
                .to_string()
        };
        let pipeline = match v.get("pipeline") {
            None | Some(Value::Null) => false,
            Some(Value::Bool(b)) => *b,
            Some(_) => return Err(bad("'pipeline' must be a boolean")),
        };
        // Absent in pre-trace spool files: those jobs default to traced.
        let trace = match v.get("trace") {
            None | Some(Value::Null) => true,
            Some(Value::Bool(b)) => *b,
            Some(_) => return Err(bad("'trace' must be a boolean")),
        };
        let defaults = JobSpec::default();
        let qp = num("qp", defaults.qp as u64)?;
        if qp > 51 {
            return Err(bad("'qp' must be <= 51"));
        }
        let sa = num("sa", defaults.sa as u64)?;
        if sa > u16::MAX as u64 {
            return Err(bad("'sa' out of range"));
        }
        let faults = match v.get("faults") {
            None | Some(Value::Null) => Vec::new(),
            Some(x) => x
                .as_array()
                .ok_or_else(|| bad("'faults' must be an array of strings"))?
                .iter()
                .map(|f| {
                    f.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| bad("'faults' must be an array of strings"))
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        Ok(JobSpec {
            id: req("id")?,
            input: req("input")?,
            output: req("output")?,
            platform: str_or("platform", &defaults.platform),
            sa: sa as u16,
            refs: num("refs", defaults.refs as u64)? as usize,
            qp: qp as u8,
            balancer: str_or("balancer", &defaults.balancer),
            faults,
            checkpoint_every: num("checkpoint_every", 0)? as usize,
            chaos_kill_at: opt_num("chaos_kill_at")?,
            chaos_device: opt_num("chaos_device")?,
            pipeline,
            trace,
        })
    }

    /// Parse from JSON text.
    pub fn from_json(text: &str) -> Result<JobSpec, ServeError> {
        let v = serde_json::value_from_str(text)
            .map_err(|e| ServeError::BadJob(format!("malformed job spec: {e}")))?;
        JobSpec::from_value(&v)
    }

    /// Render as JSON text.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).unwrap_or_default()
    }
}

/// Terminal state of a job, as recorded in `done/<id>.json`.
#[derive(Clone, Debug, PartialEq)]
pub enum JobStatus {
    /// Output written, fsynced and verified; `bytes` is the final output
    /// size and `crc32` the checksum streamed on the write path (what
    /// `feves verify` checks the artifact against).
    Completed {
        /// Frames encoded.
        frames: usize,
        /// Final output size in bytes.
        bytes: u64,
        /// CRC-32 of the artifact, streamed as it was written.
        crc32: u32,
    },
    /// Drained mid-encode with a durable checkpoint committed; the spool
    /// file is left in place so the next daemon resumes it.
    Checkpointed {
        /// Frames committed by the last checkpoint.
        frames_done: usize,
    },
    /// Retry budget exhausted (or the spec was malformed).
    Failed {
        /// Human-readable cause.
        error: String,
        /// Attributed device index, when the fault had one.
        culprit: Option<usize>,
    },
    /// Refused at admission (the queue at its bound).
    Rejected {
        /// The typed admission error, rendered.
        reason: String,
    },
}

impl JobStatus {
    /// The wire name of this status.
    pub fn name(&self) -> &'static str {
        match self {
            JobStatus::Completed { .. } => "completed",
            JobStatus::Checkpointed { .. } => "checkpointed",
            JobStatus::Failed { .. } => "failed",
            JobStatus::Rejected { .. } => "rejected",
        }
    }
}

/// Build the done-file document for a job outcome.
pub fn done_record(id: &str, status: &JobStatus, attempts: u32) -> Value {
    let mut fields = vec![
        ("id".to_string(), Value::Str(id.to_string())),
        ("status".to_string(), Value::Str(status.name().to_string())),
        ("attempts".to_string(), Value::UInt(attempts as u64)),
    ];
    match status {
        JobStatus::Completed {
            frames,
            bytes,
            crc32,
        } => {
            fields.push(("frames".into(), Value::UInt(*frames as u64)));
            fields.push(("bytes".into(), Value::UInt(*bytes)));
            fields.push(("crc32".into(), Value::Str(format!("{crc32:08x}"))));
        }
        JobStatus::Checkpointed { frames_done } => {
            fields.push(("frames_done".into(), Value::UInt(*frames_done as u64)));
        }
        JobStatus::Failed { error, culprit } => {
            fields.push(("error".into(), Value::Str(error.clone())));
            let c = match culprit {
                Some(d) => Value::UInt(*d as u64),
                None => Value::Null,
            };
            fields.push(("culprit".into(), c));
        }
        JobStatus::Rejected { reason } => {
            fields.push(("reason".into(), Value::Str(reason.clone())));
        }
    }
    Value::Object(fields)
}

/// The done directory of a spool.
pub fn done_dir(spool: &Path) -> PathBuf {
    spool.join("done")
}

/// The control directory of a spool (drain marker lives here).
pub fn ctl_dir(spool: &Path) -> PathBuf {
    spool.join("ctl")
}

/// The drain-marker path: its existence asks the daemon to drain.
pub fn drain_marker(spool: &Path) -> PathBuf {
    ctl_dir(spool).join("drain")
}

/// Quarantine directory for corrupt control files — kept for inspection,
/// never deleted by the daemon.
pub fn quarantine_dir(spool: &Path) -> PathBuf {
    spool.join("quarantine")
}

/// Move a corrupt control file into the quarantine directory.
pub fn quarantine(spool: &Path, path: &Path) -> Result<PathBuf, ServeError> {
    let dir = quarantine_dir(spool);
    std::fs::create_dir_all(&dir)?;
    let name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "corrupt".into());
    let dest = dir.join(name);
    backend_for(path).rename(path, &dest)?;
    Ok(dest)
}

/// Atomically write a job's terminal state to `done/<id>.json`, booking
/// retried transient faults and disk-full events on `rec` (the farm's
/// registry).
pub fn write_done(
    spool: &Path,
    id: &str,
    status: &JobStatus,
    attempts: u32,
    rec: &dyn Recorder,
) -> Result<PathBuf, ServeError> {
    let dir = done_dir(spool);
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{id}.json"));
    let text = serde_json::to_string_pretty(&done_record(id, status, attempts))
        .map_err(|e| ServeError::Io(e.to_string()))?;
    write_atomic_recorded(&path, frame_control(&text), rec)?;
    Ok(path)
}

/// Verify a control file's text end to end — integrity trailer, JSON
/// shape, schema — and say what it is (`feves verify`'s control-file
/// path). Done records are recognized by their `status` field; anything
/// else must parse as a spool spec.
pub fn verify_control(text: &str) -> Result<&'static str, ServeError> {
    let body = unframe_control(text)?;
    let v = serde_json::value_from_str(body)
        .map_err(|e| ServeError::Corrupt(format!("unparseable control JSON: {e}")))?;
    if v.get("status").and_then(Value::as_str).is_some() {
        return Ok("done record");
    }
    JobSpec::from_value(&v)?;
    Ok("spool spec")
}

/// Read and verify a spool spec: integrity trailer first, then the JSON
/// schema. A checksum mismatch is [`ServeError::Corrupt`], distinct from
/// the [`ServeError::BadJob`] a well-formed-but-invalid spec earns.
pub fn read_spec(path: &Path) -> Result<JobSpec, ServeError> {
    let bytes = backend_for(path)
        .read(path)
        .map_err(|e| ServeError::Io(format!("{}: {e}", path.display())))?;
    let text = String::from_utf8(bytes)
        .map_err(|_| ServeError::Corrupt(format!("{}: spec is not UTF-8", path.display())))?;
    JobSpec::from_json(unframe_control(&text)?)
}

/// Atomically write a job spec into the spool (the `feves submit` path).
/// Temp + rename means the daemon's scanner only ever sees complete specs.
pub fn write_job(spool: &Path, job: &JobSpec) -> Result<PathBuf, ServeError> {
    if job.id.is_empty() || job.id.contains(['/', '\\']) {
        return Err(ServeError::BadJob(format!(
            "job id '{}' must be a non-empty file-name-safe string",
            job.id
        )));
    }
    std::fs::create_dir_all(spool)?;
    let path = spool.join(format!("{}.json", job.id));
    write_atomic(&path, frame_control(&job.to_json()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use feves_ft::io::{inject, FaultCounts, FaultPlan, FaultyIo};
    use feves_obs::{MemoryRecorder, Metric};

    #[test]
    fn spec_round_trips_through_json() {
        let job = JobSpec {
            id: "j1".into(),
            input: "in.y4m".into(),
            output: "out.y4m".into(),
            sa: 16,
            refs: 2,
            faults: vec!["0:death@3".into()],
            checkpoint_every: 2,
            chaos_kill_at: Some(5),
            chaos_device: Some(0),
            pipeline: true,
            trace: false,
            ..JobSpec::default()
        };
        let back = JobSpec::from_json(&job.to_json()).unwrap();
        assert_eq!(back, job);
    }

    #[test]
    fn defaults_fill_missing_fields() {
        let j = JobSpec::from_json(r#"{"id":"a","input":"i.y4m","output":"o.y4m"}"#).unwrap();
        assert_eq!(j.sa, 32);
        assert_eq!(j.refs, 1);
        assert_eq!(j.qp, 28);
        assert_eq!(j.balancer, "feves");
        assert_eq!(j.chaos_kill_at, None);
        assert_eq!(j.checkpoint_every, 0);
        assert!(!j.pipeline);
        assert!(j.trace, "pre-trace spool files default to traced");
    }

    #[test]
    fn rejects_missing_and_malformed_fields() {
        assert!(JobSpec::from_json("not json").is_err());
        assert!(JobSpec::from_json(r#"{"input":"i","output":"o"}"#).is_err());
        assert!(JobSpec::from_json(r#"{"id":"a","input":"i","output":"o","qp":99}"#).is_err());
        assert!(JobSpec::from_json(r#"{"id":"a","input":"i","output":"o","faults":"x"}"#).is_err());
    }

    #[test]
    fn seed_is_deterministic_per_id() {
        let a = JobSpec {
            id: "a".into(),
            ..JobSpec::default()
        };
        let b = JobSpec {
            id: "b".into(),
            ..JobSpec::default()
        };
        assert_eq!(a.seed(), a.clone().seed());
        assert_ne!(a.seed(), b.seed());
    }

    #[test]
    fn done_record_carries_typed_outcome() {
        let v = done_record(
            "j",
            &JobStatus::Failed {
                error: "boom".into(),
                culprit: Some(1),
            },
            3,
        );
        assert_eq!(v.get("status").and_then(Value::as_str), Some("failed"));
        assert_eq!(v.get("attempts").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("culprit").and_then(Value::as_u64), Some(1));
        let r = done_record(
            "j",
            &JobStatus::Rejected {
                reason: "full".into(),
            },
            0,
        );
        assert_eq!(r.get("status").and_then(Value::as_str), Some("rejected"));
    }

    #[test]
    fn framed_control_round_trips_and_rejects_corruption() {
        let text = "{\n  \"id\": \"j\"\n}";
        let framed = frame_control(text);
        assert!(framed.lines().last().unwrap().starts_with("#crc32="));
        assert_eq!(unframe_control(&framed).unwrap(), format!("{text}\n"));
        // Legacy unframed text passes through untouched.
        assert_eq!(unframe_control(text).unwrap(), text);
        // Any body flip under an intact trailer is a typed Corrupt.
        let rotted = framed.replacen("id", "iD", 1);
        match unframe_control(&rotted) {
            Err(ServeError::Corrupt(m)) => assert!(m.contains("checksum mismatch"), "{m}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // A garbled trailer is Corrupt too, not a panic.
        assert!(matches!(
            unframe_control("{}\n#crc32=zzzz\n"),
            Err(ServeError::Corrupt(_))
        ));
    }

    #[test]
    fn read_spec_verifies_spool_files_end_to_end() {
        let dir = std::env::temp_dir().join(format!("feves-readspec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let job = JobSpec {
            id: "rs".into(),
            input: "i.y4m".into(),
            output: "o.y4m".into(),
            ..JobSpec::default()
        };
        let path = write_job(&dir, &job).unwrap();
        assert_eq!(read_spec(&path).unwrap(), job);
        // Flip one byte of the body: the reader must reject, typed.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_spec(&path), Err(ServeError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `write_done` under a [`FaultyIo`] over a fresh spool: the outcome,
    /// the registry it was told to book on, the injector, the done dir.
    fn write_done_under(
        tag: &str,
        plan: FaultPlan,
    ) -> (
        Result<PathBuf, ServeError>,
        MemoryRecorder,
        FaultCounts,
        PathBuf,
    ) {
        let spool = std::env::temp_dir().join(format!(
            "feves-done-{tag}-{}-{}",
            plan.seed,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&spool);
        let faulty = std::sync::Arc::new(FaultyIo::new(plan));
        let _scope = inject(&spool, faulty.clone());
        let farm = MemoryRecorder::new();
        let status = JobStatus::Completed {
            frames: 4,
            bytes: 152_064,
            crc32: 0xfeed_f00d,
        };
        let result = write_done(&spool, "j", &status, 1, &farm);
        (result, farm, faulty.counts(), done_dir(&spool))
    }

    fn temp_droppings(dir: &Path) -> Vec<PathBuf> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "tmp"))
            .collect()
    }

    #[test]
    fn a_retried_done_record_is_committed_and_booked_on_the_farm_registry() {
        let mut retried_and_committed = 0;
        for seed in 1..=12 {
            let plan = FaultPlan {
                seed,
                transient_eio_per_mille: 250,
                ..Default::default()
            };
            let (result, farm, injected, done) = write_done_under("eio", plan);
            // An exhausted retry budget is a typed error, not this test's
            // subject; a commit must have booked every fault it rode out.
            if let Ok(path) = result {
                assert_eq!(
                    verify_control(&std::fs::read_to_string(&path).unwrap()).unwrap(),
                    "done record"
                );
                // One retry per fault drawn — bar the directory fsync after
                // the rename, whose failure is ignored, not retried.
                let retries = farm.counter(Metric::IoRetries);
                let ignored = injected.transient_eio - retries;
                assert!(ignored <= 1, "seed {seed}: {retries} of {injected:?}");
                assert_eq!(temp_droppings(&done), Vec::<PathBuf>::new(), "seed {seed}");
                retried_and_committed += u32::from(retries >= 1);
            }
            let _ = std::fs::remove_dir_all(done.parent().unwrap());
        }
        assert!(
            retried_and_committed >= 1,
            "no seed injected a fault that a retry rode out"
        );
    }

    #[test]
    fn a_full_disk_under_a_done_record_is_booked_once_and_leaves_no_temp() {
        let plan = FaultPlan {
            seed: 3,
            enospc_per_mille: 1000,
            ..Default::default()
        };
        let (result, farm, injected, done) = write_done_under("enospc", plan);
        assert!(matches!(result, Err(ServeError::Io(_))), "{result:?}");
        assert_eq!(injected.enospc, 1, "ENOSPC is not retried");
        assert_eq!(farm.counter(Metric::IoEnospcEvents), 1);
        assert_eq!(farm.counter(Metric::IoRetries), 0);
        assert!(!done.join("j.json").exists());
        assert_eq!(temp_droppings(&done), Vec::<PathBuf>::new());
        let _ = std::fs::remove_dir_all(done.parent().unwrap());
    }

    #[test]
    fn write_job_refuses_path_traversal_ids() {
        let job = JobSpec {
            id: "../evil".into(),
            input: "i".into(),
            output: "o".into(),
            ..JobSpec::default()
        };
        assert!(write_job(Path::new("/tmp"), &job).is_err());
    }
}
