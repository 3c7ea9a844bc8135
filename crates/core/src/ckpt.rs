//! Crash-safe encode sessions: checkpoint serialization, durable writes,
//! and generation management.
//!
//! A checkpoint captures everything the iterative phase has learned —
//! on-line performance characterization, health/drift state machines, the
//! rate controller, the reference window, the measurement-noise RNG
//! position, the DAM deferred-SF remainders — plus a [`ResumeContext`]
//! describing the CLI job (input, output, flags, progress). Together they
//! let `feves resume` re-enter the encode at the last committed frame and
//! produce a bitstream **bit-identical** to an uninterrupted run, without
//! re-probing the platform.
//!
//! The file layout (magic, version, fingerprint, CRC-protected sections) is
//! `feves_ft::ckpt`; this module owns the section *contents* and the
//! durability protocol:
//!
//! 1. serialize the whole checkpoint in memory;
//! 2. write it to `.ckpt-NNNNNN.tmp` in the checkpoint directory;
//! 3. `fsync` the temp file;
//! 4. `rename` to `ckpt-NNNNNN.ckpt` (atomic on POSIX);
//! 5. `fsync` the directory;
//! 6. prune generations beyond the retention bound.
//!
//! A crash at any instant therefore leaves either (a) no new file, (b) a
//! `.tmp` that resume ignores, or (c) a complete new generation. Torn and
//! bit-rotted files fail the section CRCs and are rejected with
//! [`FevesError::CheckpointCorrupt`]; [`CheckpointManager::load_latest`]
//! then falls back to the previous generation.

use crate::framework::{FrameworkState, FtStats};
use feves_codec::rate::RateSnapshot;
use feves_ft::ckpt::fnv1a64;
use feves_ft::crash::crash_point;
use feves_ft::io::{backend_for, classify, retry_io, IoErrorClass};
use feves_ft::{
    ByteReader, ByteWriter, CheckpointBlob, DeviceHealth, DriftSnapshot, FevesError,
    HealthSnapshot, RetryPolicy,
};
use feves_hetsim::noise::NoiseState;
use feves_obs::{Metric, Recorder};
use feves_sched::{DevicePrediction, Distribution, PerfChar, PredictedTimes};
use feves_video::plane::Plane;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Section tags. Order in the file is fixed but readers look up by tag.
const TAG_META: [u8; 4] = *b"META";
const TAG_PERF: [u8; 4] = *b"PERF";
const TAG_HLTH: [u8; 4] = *b"HLTH";
const TAG_DRFT: [u8; 4] = *b"DRFT";
const TAG_NOIS: [u8; 4] = *b"NOIS";
const TAG_DAMS: [u8; 4] = *b"DAMS";
const TAG_CURS: [u8; 4] = *b"CURS";
const TAG_RATE: [u8; 4] = *b"RATE";
const TAG_DIST: [u8; 4] = *b"DIST";
const TAG_REFS: [u8; 4] = *b"REFS";
const TAG_PEND: [u8; 4] = *b"PEND";

/// Largest plane edge a checkpoint may declare (16-bit dimensions — DCI 8K
/// is 8192 wide). Caps allocation before trusting a corrupted length field.
const MAX_PLANE_DIM: usize = 1 << 16;

/// The description of one encode job, and what a checkpoint serialises of
/// it: the flags that define the job (so [`crate::session::build_config`]
/// reconstructs the same platform and configuration on every attempt), the
/// input identity, and the progress watermark. The CLI builds one from its
/// options and the farm from a job spec; `feves resume` reads it back.
#[derive(Clone, Debug, PartialEq)]
pub struct ResumeContext {
    /// Input sequence path (y4m).
    pub input: String,
    /// Output bitstream path (y4m reconstruction).
    pub output: String,
    /// Platform profile name (`--platform`).
    pub platform: String,
    /// Full JSON text of `--platform-file`, when one was given. The
    /// *content* is stored (not the path) so resume cannot silently pick up
    /// an edited file.
    pub platform_json: Option<String>,
    /// `--sa` search area.
    pub sa: u16,
    /// `--refs` reference frames.
    pub refs: usize,
    /// `--qp`.
    pub qp: u8,
    /// `--balancer` name.
    pub balancer: String,
    /// `--kernels` override, verbatim.
    pub kernels: Option<String>,
    /// `--fault` specs, verbatim.
    pub faults: Vec<String>,
    /// `--deadline-factor`.
    pub deadline_factor: Option<f64>,
    /// `--flight-out` path, carried so the resumed session keeps exporting.
    pub flight_out: Option<String>,
    /// `--metrics-out` path, carried like `flight_out`.
    pub metrics_out: Option<String>,
    /// Checkpoint cadence in frames (`--checkpoint-every`).
    pub every: usize,
    /// Retention bound (`--checkpoint-keep`).
    pub keep: usize,
    /// Frames fully committed to the output (encode cursor).
    pub frames_done: usize,
    /// Total frames this job will encode.
    pub n_frames: usize,
    /// Output file length in bytes after frame `frames_done` was flushed —
    /// resume truncates the bitstream here.
    pub out_bytes: u64,
    /// FNV-1a 64 of the input file's bytes, guarding against the input
    /// changing between crash and resume.
    pub input_fingerprint: u64,
    /// `--pipeline` mode. Excluded from [`Self::fingerprint`]: the pipeline
    /// never changes the bitstream bytes, so a job checkpointed lockstep may
    /// legitimately resume pipelined (and vice versa).
    pub pipeline: bool,
    /// CRC-32 of the first `out_bytes` of the output artifact at commit
    /// time. Resume re-hashes the truncated prefix and rejects the
    /// checkpoint when it differs — post-crash bit-rot on the artifact must
    /// not be silently extended into a "complete" bitstream. Excluded from
    /// [`Self::fingerprint`] (it is progress, not job identity).
    pub out_crc: u32,
}

impl ResumeContext {
    /// The paths and flags that define which job this is, in the order both
    /// [`Self::fingerprint`] and the serialized form lead with. (The other
    /// two identity fields, `n_frames` and `input_fingerprint`, sit among
    /// the progress fields of the v3 layout, so each caller writes them.)
    fn put_identity(&self, w: &mut ByteWriter) {
        w.put_str(&self.input);
        w.put_str(&self.output);
        w.put_str(&self.platform);
        put_opt_str(w, &self.platform_json);
        w.put_u32(self.sa as u32);
        w.put_usize(self.refs);
        w.put_u8(self.qp);
        w.put_str(&self.balancer);
        put_opt_str(w, &self.kernels);
        w.put_usize(self.faults.len());
        for f in &self.faults {
            w.put_str(f);
        }
        w.put_bool(self.deadline_factor.is_some());
        w.put_f64(self.deadline_factor.unwrap_or(0.0));
    }

    /// Job fingerprint: hash of everything that defines *which encode this
    /// is* — input identity, output path, platform, codec flags. Progress
    /// fields (`frames_done`, `out_bytes`) and artifact/cadence knobs are
    /// excluded so every generation of one job carries the same
    /// fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut w = ByteWriter::new();
        self.put_identity(&mut w);
        w.put_usize(self.n_frames);
        w.put_u64(self.input_fingerprint);
        fnv1a64(&w.into_bytes())
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.put_identity(&mut w);
        put_opt_str(&mut w, &self.flight_out);
        put_opt_str(&mut w, &self.metrics_out);
        w.put_usize(self.every);
        w.put_usize(self.keep);
        w.put_usize(self.frames_done);
        w.put_usize(self.n_frames);
        w.put_u64(self.out_bytes);
        w.put_u64(self.input_fingerprint);
        w.put_bool(self.pipeline);
        w.put_u32(self.out_crc);
        w.into_bytes()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, FevesError> {
        let mut r = ByteReader::new(bytes);
        let input = r.take_str()?;
        let output = r.take_str()?;
        let platform = r.take_str()?;
        let platform_json = take_opt_str(&mut r)?;
        let sa_raw = r.take_u32()?;
        let sa = u16::try_from(sa_raw).map_err(|_| {
            FevesError::CheckpointCorrupt(format!("search area {sa_raw} out of range"))
        })?;
        let refs = r.take_usize()?;
        let qp = r.take_u8()?;
        let balancer = r.take_str()?;
        let kernels = take_opt_str(&mut r)?;
        let n_faults = r.take_usize()?;
        if n_faults > 4096 {
            return Err(FevesError::CheckpointCorrupt(format!(
                "implausible fault-spec count {n_faults}"
            )));
        }
        let faults = (0..n_faults)
            .map(|_| r.take_str())
            .collect::<Result<Vec<_>, _>>()?;
        let has_df = r.take_bool()?;
        let df = r.take_f64()?;
        let ctx = ResumeContext {
            input,
            output,
            platform,
            platform_json,
            sa,
            refs,
            qp,
            balancer,
            kernels,
            faults,
            deadline_factor: has_df.then_some(df),
            flight_out: take_opt_str(&mut r)?,
            metrics_out: take_opt_str(&mut r)?,
            every: r.take_usize()?,
            keep: r.take_usize()?,
            frames_done: r.take_usize()?,
            n_frames: r.take_usize()?,
            out_bytes: r.take_u64()?,
            input_fingerprint: r.take_u64()?,
            pipeline: r.take_bool()?,
            out_crc: r.take_u32()?,
        };
        r.expect_end("META section")?;
        Ok(ctx)
    }
}

fn put_opt_str(w: &mut ByteWriter, s: &Option<String>) {
    w.put_bool(s.is_some());
    w.put_str(s.as_deref().unwrap_or(""));
}

fn take_opt_str(r: &mut ByteReader) -> Result<Option<String>, FevesError> {
    let present = r.take_bool()?;
    let s = r.take_str()?;
    Ok(present.then_some(s))
}

fn put_plane(w: &mut ByteWriter, p: &Plane<u8>) {
    w.put_u64(p.width() as u64);
    w.put_u64(p.height() as u64);
    // Row-by-row drops any stride padding: the payload is exactly w×h.
    let mut data = Vec::with_capacity(p.width() * p.height());
    for y in 0..p.height() {
        data.extend_from_slice(p.row(y));
    }
    w.put_bytes(&data);
}

fn take_plane(r: &mut ByteReader) -> Result<Plane<u8>, FevesError> {
    let w = r.take_usize()?;
    let h = r.take_usize()?;
    if w == 0 || h == 0 || w > MAX_PLANE_DIM || h > MAX_PLANE_DIM {
        return Err(FevesError::CheckpointCorrupt(format!(
            "implausible plane dimensions {w}x{h}"
        )));
    }
    let expect = w
        .checked_mul(h)
        .ok_or_else(|| FevesError::CheckpointCorrupt("plane size overflow".into()))?;
    let data = r.take_bytes()?;
    if data.len() != expect {
        return Err(FevesError::CheckpointCorrupt(format!(
            "plane payload {} bytes, dimensions say {expect}",
            data.len()
        )));
    }
    Ok(Plane::from_vec(data, w, h))
}

fn put_u64_vec(w: &mut ByteWriter, xs: &[u64]) {
    w.put_usize(xs.len());
    for &x in xs {
        w.put_u64(x);
    }
}

fn take_u64_vec(r: &mut ByteReader) -> Result<Vec<u64>, FevesError> {
    let n = r.take_usize()?;
    if r.remaining() < n.saturating_mul(8) {
        return Err(FevesError::CheckpointCorrupt(
            "truncated payload while reading u64 vector".into(),
        ));
    }
    (0..n).map(|_| r.take_u64()).collect()
}

fn health_to_bytes(h: &HealthSnapshot) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_usize(h.state.len());
    for s in &h.state {
        w.put_u8(match s {
            DeviceHealth::Healthy => 0,
            DeviceHealth::Probation => 1,
            DeviceHealth::Blacklisted => 2,
        });
    }
    w.put_usize_slice(&h.readmit_at);
    w.put_usize_slice(&h.backoff);
    w.put_usize_slice(&h.probation_left);
    put_u64_vec(&mut w, &h.faults);
    w.put_usize(h.base_backoff);
    w.put_usize(h.probation_frames);
    w.into_bytes()
}

fn health_from_bytes(bytes: &[u8]) -> Result<HealthSnapshot, FevesError> {
    let mut r = ByteReader::new(bytes);
    let n = r.take_usize()?;
    if r.remaining() < n {
        return Err(FevesError::CheckpointCorrupt(
            "truncated health state vector".into(),
        ));
    }
    let state = (0..n)
        .map(|_| match r.take_u8()? {
            0 => Ok(DeviceHealth::Healthy),
            1 => Ok(DeviceHealth::Probation),
            2 => Ok(DeviceHealth::Blacklisted),
            b => Err(FevesError::CheckpointCorrupt(format!(
                "invalid device-health byte {b:#x}"
            ))),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let snap = HealthSnapshot {
        state,
        readmit_at: r.take_usize_vec()?,
        backoff: r.take_usize_vec()?,
        probation_left: r.take_usize_vec()?,
        faults: take_u64_vec(&mut r)?,
        base_backoff: r.take_usize()?,
        probation_frames: r.take_usize()?,
    };
    r.expect_end("HLTH section")?;
    Ok(snap)
}

fn dist_to_bytes(d: &Distribution) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_usize_slice(&d.me);
    w.put_usize_slice(&d.interp);
    w.put_usize_slice(&d.sme);
    w.put_usize_slice(&d.delta_m);
    w.put_usize_slice(&d.delta_l);
    w.put_usize_slice(&d.sigma);
    w.put_usize_slice(&d.sigma_rem);
    w.put_usize(d.rstar_device);
    w.put_bool(d.predicted.is_some());
    if let Some(p) = &d.predicted {
        w.put_f64(p.tau1);
        w.put_f64(p.tau2);
        w.put_f64(p.tau_tot);
    }
    w.put_bool(d.predicted_device.is_some());
    if let Some(pd) = &d.predicted_device {
        w.put_usize(pd.len());
        for p in pd {
            w.put_f64(p.phase1);
            w.put_f64(p.phase2);
            w.put_f64(p.rstar);
        }
    }
    w.put_bool(d.lp_iterations.is_some());
    w.put_usize(d.lp_iterations.unwrap_or(0));
    w.into_bytes()
}

fn dist_from_bytes(bytes: &[u8]) -> Result<Distribution, FevesError> {
    let mut r = ByteReader::new(bytes);
    let me = r.take_usize_vec()?;
    let interp = r.take_usize_vec()?;
    let sme = r.take_usize_vec()?;
    let delta_m = r.take_usize_vec()?;
    let delta_l = r.take_usize_vec()?;
    let sigma = r.take_usize_vec()?;
    let sigma_rem = r.take_usize_vec()?;
    let n = me.len();
    for (name, v) in [
        ("interp", interp.len()),
        ("sme", sme.len()),
        ("delta_m", delta_m.len()),
        ("delta_l", delta_l.len()),
        ("sigma", sigma.len()),
        ("sigma_rem", sigma_rem.len()),
    ] {
        if v != n {
            return Err(FevesError::CheckpointCorrupt(format!(
                "distribution vector `{name}` has {v} devices, `me` has {n}"
            )));
        }
    }
    let rstar_device = r.take_usize()?;
    if rstar_device >= n.max(1) {
        return Err(FevesError::CheckpointCorrupt(format!(
            "R* device {rstar_device} out of range for {n} devices"
        )));
    }
    let predicted = if r.take_bool()? {
        Some(PredictedTimes {
            tau1: r.take_f64()?,
            tau2: r.take_f64()?,
            tau_tot: r.take_f64()?,
        })
    } else {
        None
    };
    let predicted_device = if r.take_bool()? {
        let k = r.take_usize()?;
        if k != n {
            return Err(FevesError::CheckpointCorrupt(format!(
                "per-device predictions for {k} devices, distribution has {n}"
            )));
        }
        Some(
            (0..k)
                .map(|_| {
                    Ok(DevicePrediction {
                        phase1: r.take_f64()?,
                        phase2: r.take_f64()?,
                        rstar: r.take_f64()?,
                    })
                })
                .collect::<Result<Vec<_>, FevesError>>()?,
        )
    } else {
        None
    };
    let has_lp = r.take_bool()?;
    let lp = r.take_usize()?;
    r.expect_end("DIST section")?;
    Ok(Distribution {
        me,
        interp,
        sme,
        delta_m,
        delta_l,
        sigma,
        sigma_rem,
        rstar_device,
        predicted,
        predicted_device,
        lp_iterations: has_lp.then_some(lp),
    })
}

/// Serialize `ctx` + `state` into a [`CheckpointBlob`] ready for
/// [`CheckpointBlob::to_bytes`].
pub fn encode_checkpoint(ctx: &ResumeContext, state: &FrameworkState) -> CheckpointBlob {
    let mut blob = CheckpointBlob::new(ctx.fingerprint());
    blob.push_section(TAG_META, ctx.to_bytes());
    blob.push_section(TAG_PERF, state.perf.to_ckpt_bytes());
    blob.push_section(TAG_HLTH, health_to_bytes(&state.health));
    {
        let mut w = ByteWriter::new();
        w.put_usize_slice(&state.drift.streak);
        w.put_usize(state.drift.flagged.len());
        for &f in &state.drift.flagged {
            w.put_bool(f);
        }
        blob.push_section(TAG_DRFT, w.into_bytes());
    }
    {
        let mut w = ByteWriter::new();
        w.put_f64(state.noise.amp);
        for k in state.noise.key {
            w.put_u32(k);
        }
        w.put_u64(state.noise.counter);
        w.put_u64(state.noise.idx);
        blob.push_section(TAG_NOIS, w.into_bytes());
    }
    {
        let mut w = ByteWriter::new();
        w.put_usize_slice(&state.dam_sigma_rem);
        w.put_usize(state.dam_frames_committed);
        blob.push_section(TAG_DAMS, w.into_bytes());
    }
    {
        let mut w = ByteWriter::new();
        w.put_usize(state.inter_count);
        w.put_usize(state.frames_encoded);
        w.put_usize(state.refs_available);
        w.put_bool(state.expected_tau.is_some());
        let (t1, t2, tt) = state.expected_tau.unwrap_or((0.0, 0.0, 0.0));
        w.put_f64(t1);
        w.put_f64(t2);
        w.put_f64(tt);
        w.put_u64(state.ft_stats.injected);
        w.put_u64(state.ft_stats.detected);
        w.put_u64(state.ft_stats.recovered);
        w.put_u64(state.ft_stats.resolves);
        w.put_u64(state.ft_stats.redispatched_rows);
        w.put_u64(state.ft_stats.drift_vs_fault);
        blob.push_section(TAG_CURS, w.into_bytes());
    }
    if let Some(rate) = &state.rate {
        let mut w = ByteWriter::new();
        w.put_f64(rate.target_bits_per_frame);
        w.put_f64(rate.buffer);
        w.put_u8(rate.qp);
        w.put_u8(rate.min_qp);
        w.put_u8(rate.max_qp);
        blob.push_section(TAG_RATE, w.into_bytes());
    }
    if let Some(dist) = &state.prev_dist {
        blob.push_section(TAG_DIST, dist_to_bytes(dist));
    }
    {
        let mut w = ByteWriter::new();
        w.put_usize(state.refs.len());
        for (luma, chroma) in &state.refs {
            put_plane(&mut w, luma);
            w.put_bool(chroma.is_some());
            if let Some((cb, cr)) = chroma {
                put_plane(&mut w, cb);
                put_plane(&mut w, cr);
            }
        }
        blob.push_section(TAG_REFS, w.into_bytes());
    }
    if let Some((y, u, v)) = &state.recon_pending {
        let mut w = ByteWriter::new();
        put_plane(&mut w, y);
        put_plane(&mut w, u);
        put_plane(&mut w, v);
        blob.push_section(TAG_PEND, w.into_bytes());
    }
    blob
}

/// Decode a [`CheckpointBlob`] back into the resume context and framework
/// state. Structural problems are [`FevesError::CheckpointCorrupt`]; the
/// caller still has to cross-check the blob against the live world
/// (fingerprint, input bytes, output length) before trusting it.
pub fn decode_checkpoint(
    blob: &CheckpointBlob,
) -> Result<(ResumeContext, FrameworkState), FevesError> {
    let ctx = ResumeContext::from_bytes(blob.require_section(TAG_META)?)?;
    if blob.fingerprint != ctx.fingerprint() {
        return Err(FevesError::CheckpointStale(format!(
            "header fingerprint {:#018x} does not match the job described in META ({:#018x})",
            blob.fingerprint,
            ctx.fingerprint()
        )));
    }
    let perf = PerfChar::from_ckpt_bytes(blob.require_section(TAG_PERF)?)?;
    let health = health_from_bytes(blob.require_section(TAG_HLTH)?)?;
    let drift = {
        let mut r = ByteReader::new(blob.require_section(TAG_DRFT)?);
        let streak = r.take_usize_vec()?;
        let n = r.take_usize()?;
        if r.remaining() < n {
            return Err(FevesError::CheckpointCorrupt(
                "truncated drift flag vector".into(),
            ));
        }
        let flagged = (0..n)
            .map(|_| r.take_bool())
            .collect::<Result<Vec<_>, _>>()?;
        r.expect_end("DRFT section")?;
        DriftSnapshot { streak, flagged }
    };
    let noise = {
        let mut r = ByteReader::new(blob.require_section(TAG_NOIS)?);
        let amp = r.take_f64()?;
        let mut key = [0u32; 8];
        for k in &mut key {
            *k = r.take_u32()?;
        }
        let counter = r.take_u64()?;
        let idx = r.take_u64()?;
        r.expect_end("NOIS section")?;
        if !(0.0..1.0).contains(&amp) {
            return Err(FevesError::CheckpointCorrupt(format!(
                "noise amplitude {amp} outside [0,1)"
            )));
        }
        NoiseState {
            amp,
            key,
            counter,
            idx,
        }
    };
    let (dam_sigma_rem, dam_frames_committed) = {
        let mut r = ByteReader::new(blob.require_section(TAG_DAMS)?);
        let sr = r.take_usize_vec()?;
        let fc = r.take_usize()?;
        r.expect_end("DAMS section")?;
        (sr, fc)
    };
    let (inter_count, frames_encoded, refs_available, expected_tau, ft_stats) = {
        let mut r = ByteReader::new(blob.require_section(TAG_CURS)?);
        let ic = r.take_usize()?;
        let fe = r.take_usize()?;
        let ra = r.take_usize()?;
        let has_tau = r.take_bool()?;
        let tau = (r.take_f64()?, r.take_f64()?, r.take_f64()?);
        let stats = FtStats {
            injected: r.take_u64()?,
            detected: r.take_u64()?,
            recovered: r.take_u64()?,
            resolves: r.take_u64()?,
            redispatched_rows: r.take_u64()?,
            drift_vs_fault: r.take_u64()?,
        };
        r.expect_end("CURS section")?;
        (ic, fe, ra, has_tau.then_some(tau), stats)
    };
    let rate = match blob.section(TAG_RATE) {
        Some(bytes) => {
            let mut r = ByteReader::new(bytes);
            let snap = RateSnapshot {
                target_bits_per_frame: r.take_f64()?,
                buffer: r.take_f64()?,
                qp: r.take_u8()?,
                min_qp: r.take_u8()?,
                max_qp: r.take_u8()?,
            };
            r.expect_end("RATE section")?;
            Some(snap)
        }
        None => None,
    };
    let prev_dist = match blob.section(TAG_DIST) {
        Some(bytes) => Some(dist_from_bytes(bytes)?),
        None => None,
    };
    let refs = {
        let mut r = ByteReader::new(blob.require_section(TAG_REFS)?);
        let n = r.take_usize()?;
        if n > 64 {
            return Err(FevesError::CheckpointCorrupt(format!(
                "implausible reference count {n}"
            )));
        }
        let mut refs = Vec::with_capacity(n);
        for _ in 0..n {
            let luma = take_plane(&mut r)?;
            let chroma = if r.take_bool()? {
                Some((take_plane(&mut r)?, take_plane(&mut r)?))
            } else {
                None
            };
            refs.push((luma, chroma));
        }
        r.expect_end("REFS section")?;
        refs
    };
    let recon_pending = match blob.section(TAG_PEND) {
        Some(bytes) => {
            let mut r = ByteReader::new(bytes);
            let p = (
                take_plane(&mut r)?,
                take_plane(&mut r)?,
                take_plane(&mut r)?,
            );
            r.expect_end("PEND section")?;
            Some(p)
        }
        None => None,
    };
    Ok((
        ctx,
        FrameworkState {
            perf,
            dam_sigma_rem,
            dam_frames_committed,
            noise,
            prev_dist,
            inter_count,
            frames_encoded,
            refs_available,
            rate,
            refs,
            recon_pending,
            health,
            expected_tau,
            ft_stats,
            drift,
        },
    ))
}

/// File name of generation `frames_done` (zero-padded so lexicographic
/// order is generation order).
fn generation_name(frames_done: usize) -> String {
    format!("ckpt-{frames_done:06}.ckpt")
}

/// Writes checkpoint generations into a directory with the
/// temp+fsync+rename protocol and bounded retention.
#[derive(Clone, Debug)]
pub struct CheckpointManager {
    dir: PathBuf,
    keep: usize,
}

impl CheckpointManager {
    /// Manager writing into `dir`, retaining the newest `keep` generations
    /// (min 1).
    pub fn new(dir: impl Into<PathBuf>, keep: usize) -> Self {
        CheckpointManager {
            dir: dir.into(),
            keep: keep.max(1),
        }
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Durably commit one generation: serialize, write `.tmp`, fsync,
    /// rename to `ckpt-NNNNNN.ckpt`, fsync the directory, prune old
    /// generations. Returns the committed path.
    ///
    /// Metrics go to `rec` (not the global registry) so checkpointing never
    /// perturbs an encode session's golden metric set unless the caller
    /// opts in.
    pub fn write(
        &self,
        ctx: &ResumeContext,
        state: &FrameworkState,
        rec: &dyn Recorder,
    ) -> std::io::Result<PathBuf> {
        let started = Instant::now();
        fs::create_dir_all(&self.dir)?;
        let bytes = encode_checkpoint(ctx, state).to_bytes();
        let tmp = self.dir.join(format!(".ckpt-{:06}.tmp", ctx.frames_done));
        let dest = self.dir.join(generation_name(ctx.frames_done));
        let backend = backend_for(&self.dir);
        let policy = RetryPolicy::new(
            std::time::Duration::from_millis(2),
            3,
            ctx.fingerprint() ^ ctx.frames_done as u64,
        );
        // The whole temp-write-then-rename sequence re-runs on a transient
        // fault: a torn temp or torn rename destination from the failed
        // attempt is simply overwritten by the next one.
        let (result, retries) = retry_io(&policy, || {
            {
                let mut f = backend.create(&tmp)?;
                // Two writes with a crash hook between them so the chaos
                // harness can produce a genuinely torn temp file.
                let half = bytes.len() / 2;
                f.write_all(&bytes[..half])?;
                crash_point("ckpt-mid-write");
                f.write_all(&bytes[half..])?;
                f.sync()?;
            }
            crash_point("ckpt-temp");
            backend.rename(&tmp, &dest)?;
            crash_point("ckpt-rename");
            Ok(())
        });
        if retries > 0 && rec.enabled() {
            rec.add(Metric::IoRetries, u64::from(retries));
        }
        if let Err(e) = result {
            if rec.enabled() && classify(&e) == IoErrorClass::Enospc {
                rec.add(Metric::IoEnospcEvents, 1);
            }
            let _ = backend.remove_file(&tmp);
            return Err(e);
        }
        let _ = backend.sync_dir(&self.dir);
        self.prune();
        if rec.enabled() {
            rec.add(Metric::CkptWrites, 1);
            rec.add(Metric::CkptBytes, bytes.len() as u64);
            rec.observe(Metric::CkptWriteMs, started.elapsed().as_secs_f64() * 1e3);
        }
        Ok(dest)
    }

    /// Delete generations beyond the retention bound (oldest first) and any
    /// abandoned `.tmp` files from crashed writes. Best-effort: pruning
    /// failures never fail the checkpoint that was just committed.
    fn prune(&self) {
        let mut generations = list_generations(&self.dir);
        // Newest `keep` survive; `list_generations` sorts ascending.
        while generations.len() > self.keep {
            let (_, path) = generations.remove(0);
            let _ = fs::remove_file(path);
        }
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for e in entries.flatten() {
                let name = e.file_name().to_string_lossy().into_owned();
                if name.starts_with(".ckpt-") && name.ends_with(".tmp") {
                    let _ = fs::remove_file(e.path());
                }
            }
        }
    }
}

/// `(frames_done, path)` for every committed generation in `dir`,
/// ascending by generation.
fn list_generations(dir: &Path) -> Vec<(usize, PathBuf)> {
    let mut out = Vec::new();
    if let Ok(entries) = fs::read_dir(dir) {
        for e in entries.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            if let Some(num) = name
                .strip_prefix("ckpt-")
                .and_then(|s| s.strip_suffix(".ckpt"))
            {
                if let Ok(n) = num.parse::<usize>() {
                    out.push((n, e.path()));
                }
            }
        }
    }
    out.sort();
    out
}

/// Load and validate one checkpoint file: read, CRC/version/structure
/// checks, decode. Read failures count as corrupt (the caller falls back).
pub fn load_checkpoint_file(path: &Path) -> Result<(ResumeContext, FrameworkState), FevesError> {
    let bytes = backend_for(path)
        .read(path)
        .map_err(|e| FevesError::CheckpointCorrupt(format!("read {}: {e}", path.display())))?;
    let blob = CheckpointBlob::from_bytes(&bytes)?;
    decode_checkpoint(&blob)
}

/// Load the newest usable generation from `dir`. Generations that fail
/// validation are skipped newest-first, each contributing a warning line;
/// the error case is "no usable checkpoint at all" (carrying every
/// generation's rejection reason).
pub fn load_latest(
    dir: &Path,
) -> Result<(PathBuf, ResumeContext, FrameworkState, Vec<String>), FevesError> {
    let generations = list_generations(dir);
    if generations.is_empty() {
        return Err(FevesError::CheckpointCorrupt(format!(
            "no checkpoint generations in {}",
            dir.display()
        )));
    }
    let mut warnings = Vec::new();
    for (_, path) in generations.iter().rev() {
        match load_checkpoint_file(path) {
            Ok((ctx, state)) => return Ok((path.clone(), ctx, state, warnings)),
            Err(e) => warnings.push(format!("skipping {}: {e}", path.display())),
        }
    }
    Err(FevesError::CheckpointCorrupt(format!(
        "no usable checkpoint in {}: {}",
        dir.display(),
        warnings.join("; ")
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use feves_obs::NoopRecorder;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("feves-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_ctx() -> ResumeContext {
        ResumeContext {
            input: "in.y4m".into(),
            output: "out.y4m".into(),
            platform: "sys-hk".into(),
            platform_json: None,
            sa: 32,
            refs: 2,
            qp: 28,
            balancer: "lp".into(),
            kernels: Some("swar".into()),
            faults: vec!["gpu0@3:transfer".into()],
            deadline_factor: Some(3.0),
            flight_out: None,
            metrics_out: Some("metrics.json".into()),
            every: 4,
            keep: 2,
            frames_done: 12,
            n_frames: 50,
            out_bytes: 123_456,
            input_fingerprint: 0xDEAD_BEEF_F00D_CAFE,
            pipeline: true,
            out_crc: 0x1234_5678,
        }
    }

    fn sample_state(n: usize) -> FrameworkState {
        let mut perf = PerfChar::new(n, feves_sched::Ewma(0.5));
        // Leave device rates partially characterized: NaN sentinels must
        // survive the round trip.
        perf.record_compute(0, feves_codec::types::Module::Me, 10, 0.5);
        let luma = Plane::from_vec(vec![7u8; 64 * 32], 64, 32);
        let cb = Plane::from_vec(vec![3u8; 32 * 16], 32, 16);
        let cr = Plane::from_vec(vec![4u8; 32 * 16], 32, 16);
        FrameworkState {
            perf,
            dam_sigma_rem: vec![0; n],
            dam_frames_committed: 12,
            noise: NoiseState {
                amp: 0.02,
                key: [1, 2, 3, 4, 5, 6, 7, 8],
                counter: 9,
                idx: 5,
            },
            prev_dist: Some(Distribution {
                me: vec![40, 28],
                interp: vec![38, 30],
                sme: vec![41, 27],
                delta_m: vec![1, 1],
                delta_l: vec![0, 2],
                sigma: vec![10, 10],
                sigma_rem: vec![0, 3],
                rstar_device: 0,
                predicted: Some(PredictedTimes {
                    tau1: 10.0,
                    tau2: 14.0,
                    tau_tot: 21.0,
                }),
                predicted_device: Some(vec![
                    DevicePrediction {
                        phase1: 8.0,
                        phase2: 4.0,
                        rstar: 5.0,
                    },
                    DevicePrediction {
                        phase1: 7.0,
                        phase2: 3.0,
                        rstar: 0.0,
                    },
                ]),
                lp_iterations: Some(17),
            }),
            inter_count: 11,
            frames_encoded: 12,
            refs_available: 2,
            rate: Some(RateSnapshot {
                target_bits_per_frame: 120_000.0,
                buffer: -4_000.0,
                qp: 29,
                min_qp: 10,
                max_qp: 48,
            }),
            refs: vec![(luma.clone(), Some((cb, cr))), (luma, None)],
            recon_pending: Some((
                Plane::from_vec(vec![1u8; 64 * 32], 64, 32),
                Plane::from_vec(vec![2u8; 32 * 16], 32, 16),
                Plane::from_vec(vec![3u8; 32 * 16], 32, 16),
            )),
            health: HealthSnapshot {
                state: vec![DeviceHealth::Healthy, DeviceHealth::Blacklisted],
                readmit_at: vec![0, 20],
                backoff: vec![2, 8],
                probation_left: vec![0, 0],
                faults: vec![0, 3],
                base_backoff: 2,
                probation_frames: 3,
            },
            expected_tau: Some((10.5, 14.5, 21.5)),
            ft_stats: FtStats {
                injected: 3,
                detected: 3,
                recovered: 2,
                resolves: 2,
                redispatched_rows: 40,
                drift_vs_fault: 1,
            },
            drift: DriftSnapshot {
                streak: vec![0, 2],
                flagged: vec![false, true],
            },
        }
    }

    fn states_equal(a: &FrameworkState, b: &FrameworkState) {
        assert_eq!(a.dam_sigma_rem, b.dam_sigma_rem);
        assert_eq!(a.dam_frames_committed, b.dam_frames_committed);
        assert_eq!(a.inter_count, b.inter_count);
        assert_eq!(a.frames_encoded, b.frames_encoded);
        assert_eq!(a.refs_available, b.refs_available);
        assert_eq!(a.rate, b.rate);
        assert_eq!(a.expected_tau, b.expected_tau);
        assert_eq!(a.health.state, b.health.state);
        assert_eq!(a.health.readmit_at, b.health.readmit_at);
        assert_eq!(a.health.backoff, b.health.backoff);
        assert_eq!(a.health.faults, b.health.faults);
        assert_eq!(a.drift.streak, b.drift.streak);
        assert_eq!(a.drift.flagged, b.drift.flagged);
        assert_eq!(a.ft_stats.injected, b.ft_stats.injected);
        assert_eq!(a.ft_stats.redispatched_rows, b.ft_stats.redispatched_rows);
        assert_eq!(a.noise.key, b.noise.key);
        assert_eq!(a.noise.counter, b.noise.counter);
        assert_eq!(a.noise.idx, b.noise.idx);
        assert_eq!(a.refs.len(), b.refs.len());
        for ((la, ca), (lb, cb)) in a.refs.iter().zip(&b.refs) {
            assert_eq!(la.as_slice(), lb.as_slice());
            assert_eq!(ca.is_some(), cb.is_some());
        }
        assert_eq!(a.recon_pending.is_some(), b.recon_pending.is_some());
        assert_eq!(a.prev_dist, b.prev_dist);
        // PerfChar: compare via checkpoint bytes (NaN-safe equality).
        assert_eq!(a.perf.to_ckpt_bytes(), b.perf.to_ckpt_bytes());
    }

    #[test]
    fn encode_decode_round_trips_everything() {
        let ctx = sample_ctx();
        let state = sample_state(2);
        let blob = encode_checkpoint(&ctx, &state);
        let bytes = blob.to_bytes();
        let back = CheckpointBlob::from_bytes(&bytes).unwrap();
        let (ctx2, state2) = decode_checkpoint(&back).unwrap();
        assert_eq!(ctx, ctx2);
        states_equal(&state, &state2);
    }

    #[test]
    fn optional_sections_really_are_optional() {
        let ctx = sample_ctx();
        let mut state = sample_state(2);
        state.rate = None;
        state.prev_dist = None;
        state.recon_pending = None;
        state.expected_tau = None;
        let bytes = encode_checkpoint(&ctx, &state).to_bytes();
        let (_, state2) = decode_checkpoint(&CheckpointBlob::from_bytes(&bytes).unwrap()).unwrap();
        assert!(state2.rate.is_none());
        assert!(state2.prev_dist.is_none());
        assert!(state2.recon_pending.is_none());
        assert!(state2.expected_tau.is_none());
    }

    #[test]
    fn fingerprint_ignores_progress_but_not_job_identity() {
        let a = sample_ctx();
        let mut b = a.clone();
        b.frames_done = 40;
        b.out_bytes = 999;
        b.every = 8;
        assert_eq!(a.fingerprint(), b.fingerprint(), "progress must not matter");
        let mut c = a.clone();
        c.qp = 30;
        assert_ne!(a.fingerprint(), c.fingerprint(), "QP is job identity");
        let mut d = a.clone();
        d.input_fingerprint ^= 1;
        assert_ne!(a.fingerprint(), d.fingerprint(), "input bytes are identity");
    }

    #[test]
    fn manager_writes_prunes_and_loads_latest() {
        let dir = scratch_dir("mgr");
        let mgr = CheckpointManager::new(&dir, 2);
        let state = sample_state(2);
        for frames in [4usize, 8, 12] {
            let mut ctx = sample_ctx();
            ctx.frames_done = frames;
            mgr.write(&ctx, &state, &NoopRecorder).unwrap();
        }
        let gens = list_generations(&dir);
        assert_eq!(
            gens.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            vec![8, 12],
            "retention must keep the newest 2"
        );
        let (path, ctx, _, warnings) = load_latest(&dir).unwrap();
        assert!(path.ends_with("ckpt-000012.ckpt"), "{}", path.display());
        assert_eq!(ctx.frames_done, 12);
        assert!(warnings.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_newest_falls_back_to_previous_generation() {
        let dir = scratch_dir("fallback");
        let mgr = CheckpointManager::new(&dir, 3);
        let state = sample_state(2);
        for frames in [4usize, 8] {
            let mut ctx = sample_ctx();
            ctx.frames_done = frames;
            mgr.write(&ctx, &state, &NoopRecorder).unwrap();
        }
        // Flip one byte in the middle of the newest generation.
        let newest = dir.join(generation_name(8));
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&newest, &bytes).unwrap();
        let (path, ctx, _, warnings) = load_latest(&dir).unwrap();
        assert!(path.ends_with("ckpt-000004.ckpt"), "{}", path.display());
        assert_eq!(ctx.frames_done, 4);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("ckpt-000008"), "{}", warnings[0]);
        // All generations corrupted → typed failure listing each reason.
        let oldest = dir.join(generation_name(4));
        fs::write(&oldest, b"FEVESCKPgarbage").unwrap();
        let err = load_latest(&dir).unwrap_err();
        assert!(matches!(err, FevesError::CheckpointCorrupt(_)), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_file_is_rejected_as_torn() {
        let dir = scratch_dir("torn");
        let mgr = CheckpointManager::new(&dir, 2);
        let ctx = sample_ctx();
        let path = mgr.write(&ctx, &sample_state(2), &NoopRecorder).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        let err = load_checkpoint_file(&path).unwrap_err();
        assert!(matches!(err, FevesError::CheckpointCorrupt(_)), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn abandoned_tmp_files_are_ignored_and_pruned() {
        let dir = scratch_dir("tmp");
        let mgr = CheckpointManager::new(&dir, 2);
        // Simulate a crash mid-write: a torn .tmp from a dead process.
        fs::write(dir.join(".ckpt-000099.tmp"), b"torn").unwrap();
        let ctx = sample_ctx();
        mgr.write(&ctx, &sample_state(2), &NoopRecorder).unwrap();
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            !names.iter().any(|n| n.ends_with(".tmp")),
            "tmp not pruned: {names:?}"
        );
        let (_, ctx2, _, _) = load_latest(&dir).unwrap();
        assert_eq!(ctx2.frames_done, ctx.frames_done);
        let _ = fs::remove_dir_all(&dir);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// Bit-flips anywhere in a full checkpoint image decode to a typed
        /// error (container CRC layer), and truncations likewise — decoding
        /// adversarial images never panics or silently succeeds.
        #[test]
        fn mutated_checkpoint_images_fail_typed(
            flip_sel in proptest::any::<u64>(),
            bit in 0u8..8,
            cut_sel in proptest::any::<u64>(),
        ) {
            let bytes = encode_checkpoint(&sample_ctx(), &sample_state(2)).to_bytes();
            let mut flipped = bytes.clone();
            let idx = (flip_sel % flipped.len() as u64) as usize;
            flipped[idx] ^= 1 << bit;
            let res = CheckpointBlob::from_bytes(&flipped).and_then(|b| decode_checkpoint(&b));
            proptest::prop_assert!(res.is_err(), "flip at byte {} decoded silently", idx);

            let cut = (cut_sel % bytes.len() as u64) as usize;
            let res = CheckpointBlob::from_bytes(&bytes[..cut]).and_then(|b| decode_checkpoint(&b));
            proptest::prop_assert!(res.is_err(), "truncation to {} decoded silently", cut);
        }
    }

    #[test]
    fn header_meta_fingerprint_mismatch_is_stale() {
        let ctx = sample_ctx();
        let state = sample_state(2);
        let mut blob = encode_checkpoint(&ctx, &state);
        blob.fingerprint ^= 1;
        // Re-frame with the altered fingerprint (to_bytes recomputes CRCs).
        let back = CheckpointBlob::from_bytes(&blob.to_bytes()).unwrap();
        let err = decode_checkpoint(&back).unwrap_err();
        assert!(matches!(err, FevesError::CheckpointStale(_)), "{err}");
    }
}
