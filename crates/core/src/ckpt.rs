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

/// Largest plane edge a checkpoint may declare (16-bit dimensions — DCI 8K
/// is 8192 wide).
const MAX_PLANE_DIM: usize = 1 << 16;
/// Most `--fault` specs a job may carry.
const MAX_FAULT_SPECS: usize = 4096;
/// Most reference frames a checkpoint may hold.
const MAX_REFS: usize = 64;

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
    /// The kernel family a checkpoint recorded, written back verbatim. Read
    /// and ignored: one family runs, and the platform does not depend on it.
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
    /// Job fingerprint: hash of everything that defines *which encode this
    /// is* — the fields the `wire!` table marks `id`: input identity, output
    /// path, platform, codec flags. Progress fields (`frames_done`,
    /// `out_bytes`) and artifact/cadence knobs are excluded so every
    /// generation of one job carries the same fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut w = ByteWriter::new();
        self.put_id(&mut w);
        fnv1a64(&w.into_bytes())
    }
}

/// A value with one v3 wire layout. Both directions are stated side by
/// side, or generated together by `wire!`, so they cannot drift apart.
trait Wire: Sized {
    fn put(&self, w: &mut ByteWriter);
    fn take(r: &mut ByteReader) -> Result<Self, FevesError>;
    /// The fields a `wire!` table marks `id`; only [`ResumeContext`] has any.
    fn put_id(&self, _w: &mut ByteWriter) {}
}

/// Fail with [`FevesError::CheckpointCorrupt`] unless `$ok` holds.
macro_rules! ensure {
    ($ok:expr, $($why:tt)+) => {
        if !$ok {
            return Err(FevesError::CheckpointCorrupt(format!($($why)+)));
        }
    };
}

macro_rules! wire_scalars {
    ($($t:ty: $put:ident $take:ident),*) => {$(
        impl Wire for $t {
            fn put(&self, w: &mut ByteWriter) {
                w.$put(*self)
            }
            fn take(r: &mut ByteReader) -> Result<Self, FevesError> {
                r.$take()
            }
        }
    )*};
}

wire_scalars!(u8: put_u8 take_u8, u32: put_u32 take_u32, u64: put_u64 take_u64,
    usize: put_usize take_usize, f64: put_f64 take_f64, bool: put_bool take_bool);

impl Wire for String {
    fn put(&self, w: &mut ByteWriter) {
        w.put_str(self)
    }
    fn take(r: &mut ByteReader) -> Result<Self, FevesError> {
        r.take_str()
    }
}

/// v3 quirk: the one `u16` (`sa`) is stored as a `u32`.
impl Wire for u16 {
    fn put(&self, w: &mut ByteWriter) {
        w.put_u32(u32::from(*self))
    }
    fn take(r: &mut ByteReader) -> Result<Self, FevesError> {
        let v = r.take_u32()?;
        u16::try_from(v)
            .map_err(|_| FevesError::CheckpointCorrupt(format!("search area {v} out of range")))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut ByteWriter) {
        self.len().put(w);
        self.iter().for_each(|x| x.put(w));
    }
    fn take(r: &mut ByteReader) -> Result<Self, FevesError> {
        let n = usize::take(r)?;
        // Every value is at least one byte, so a count above the bytes left
        // is corrupt — and is caught before anything is allocated.
        let left = r.remaining();
        ensure!(n <= left, "{n} elements declared, {left} bytes left");
        (0..n).map(|_| T::take(r)).collect()
    }
}

impl<T: Wire + Default + Copy, const N: usize> Wire for [T; N] {
    fn put(&self, w: &mut ByteWriter) {
        self.iter().for_each(|x| x.put(w));
    }
    fn take(r: &mut ByteReader) -> Result<Self, FevesError> {
        let mut a = [T::default(); N];
        for x in &mut a {
            *x = T::take(r)?;
        }
        Ok(a)
    }
}

macro_rules! wire_tuples {
    ($(($($T:ident $i:tt),+))*) => {$(
        impl<$($T: Wire),+> Wire for ($($T,)+) {
            fn put(&self, w: &mut ByteWriter) {
                $(self.$i.put(w);)+
            }
            fn take(r: &mut ByteReader) -> Result<Self, FevesError> {
                Ok(($($T::take(r)?,)+))
            }
        }
    )*};
}

wire_tuples!((A 0, B 1) (A 0, B 1, C 2));

/// The "present-only" option: a flag, then the value only when `Some`.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut ByteWriter) {
        self.is_some().put(w);
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn take(r: &mut ByteReader) -> Result<Self, FevesError> {
        Ok(if bool::take(r)? {
            Some(T::take(r)?)
        } else {
            None
        })
    }
}

/// v3 quirk, the "filled" option (a `wire!` field marked `filled`): a flag,
/// then the value — its default when `None` — either way.
fn put_filled<T: Wire + Default>(v: &Option<T>, w: &mut ByteWriter) {
    v.is_some().put(w);
    match v {
        Some(v) => v.put(w),
        None => T::default().put(w),
    }
}

fn take_filled<T: Wire>(r: &mut ByteReader) -> Result<Option<T>, FevesError> {
    let some = bool::take(r)?;
    let v = T::take(r)?;
    Ok(some.then_some(v))
}

/// A reference picture: its Y, Cb and Cr planes.
type Picture = (Plane<u8>, Plane<u8>, Plane<u8>);

/// v3 quirk, the "flagged" pictures (a `wire!` field marked `flagged`): a
/// count, then each picture as Y, a presence byte, Cb and Cr. The byte is
/// always 1. It let a reference be luma only, which no reference is, so a 0
/// is corrupt.
fn put_flagged(pictures: &[Picture], w: &mut ByteWriter) {
    pictures.len().put(w);
    for (y, u, v) in pictures {
        y.put(w);
        true.put(w);
        u.put(w);
        v.put(w);
    }
}

fn take_flagged(r: &mut ByteReader) -> Result<Vec<Picture>, FevesError> {
    let n = usize::take(r)?;
    let left = r.remaining();
    ensure!(n <= left, "{n} pictures declared, {left} bytes left");
    (0..n)
        .map(|_| {
            let y = Plane::take(r)?;
            ensure!(bool::take(r)?, "a reference picture without Cb and Cr");
            Ok((y, Plane::take(r)?, Plane::take(r)?))
        })
        .collect()
}

/// A plane is its width, its height and a length-prefixed payload of
/// exactly w×h samples (stride padding is not written).
impl Wire for Plane<u8> {
    fn put(&self, w: &mut ByteWriter) {
        let (pw, ph) = (self.width(), self.height());
        pw.put(w);
        ph.put(w);
        if self.stride() == pw {
            w.put_bytes(self.as_slice());
        } else {
            (pw * ph).put(w);
            self.rows().flatten().for_each(|&b| w.put_u8(b));
        }
    }
    fn take(r: &mut ByteReader) -> Result<Self, FevesError> {
        let (pw, ph) = (usize::take(r)?, usize::take(r)?);
        let side = 1..=MAX_PLANE_DIM;
        ensure!(
            side.contains(&pw) && side.contains(&ph),
            "implausible plane {pw}x{ph}"
        );
        let data = r.take_bytes()?;
        let (len, area) = (data.len(), pw * ph);
        ensure!(
            len == area,
            "plane payload {len} bytes, dimensions say {area}"
        );
        Ok(Plane::from_vec(data, pw, ph))
    }
}

/// A device's health on the wire is its index here.
const HEALTH_BYTE: [DeviceHealth; 3] = [
    DeviceHealth::Healthy,
    DeviceHealth::Probation,
    DeviceHealth::Blacklisted,
];

impl Wire for DeviceHealth {
    fn put(&self, w: &mut ByteWriter) {
        let b = HEALTH_BYTE.iter().position(|h| h == self);
        w.put_u8(b.expect("every health state has a byte") as u8);
    }
    fn take(r: &mut ByteReader) -> Result<Self, FevesError> {
        let b = r.take_u8()?;
        HEALTH_BYTE.get(usize::from(b)).copied().ok_or_else(|| {
            FevesError::CheckpointCorrupt(format!("invalid device-health byte {b:#x}"))
        })
    }
}

/// One statement of a struct's v3 layout: its fields in file order, each
/// optionally marked `id` (hashed by [`ResumeContext::fingerprint`], in
/// table order) and `filled` (see [`put_filled`]) or `flagged` (see
/// [`put_flagged`]), and an optional `[check]` that vets the decoded
/// value. Generates [`Wire`] for the struct.
macro_rules! wire {
    (@put $w:ident $v:expr; id $($m:ident)*) => { wire!(@put $w $v; $($m)*) };
    (@put $w:ident $v:expr; filled) => { put_filled($v, $w) };
    (@put $w:ident $v:expr; flagged) => { put_flagged($v, $w) };
    (@put $w:ident $v:expr;) => { Wire::put($v, $w) };
    (@id $w:ident $v:expr; id $($m:ident)*) => { wire!(@put $w $v; $($m)*) };
    (@id $w:ident $v:expr; $($m:ident)*) => {};
    (@take $r:ident; id $($m:ident)*) => { wire!(@take $r; $($m)*) };
    (@take $r:ident; filled) => { take_filled($r)? };
    (@take $r:ident; flagged) => { take_flagged($r)? };
    (@take $r:ident;) => { Wire::take($r)? };
    ($($ty:ident $([$check:ident])? { $($field:ident $(: $($m:ident)+)?),* $(,)? })*) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut ByteWriter) {
                $(wire!(@put w &self.$field; $($($m)+)?);)*
            }
            fn put_id(&self, _w: &mut ByteWriter) {
                $(wire!(@id _w &self.$field; $($($m)+)?);)*
            }
            fn take(r: &mut ByteReader) -> Result<Self, FevesError> {
                let v = Self { $($field: wire!(@take r; $($($m)+)?),)* };
                $($check(&v)?;)?
                Ok(v)
            }
        }
    )*};
}

// v3 quirk: `fingerprint` hashes the `id` fields in this order, so
// `n_frames` and `input_fingerprint` sit among the progress fields.
wire! {
    ResumeContext [check_job] {
        input: id, output: id, platform: id, platform_json: id filled, sa: id, refs: id,
        qp: id, balancer: id, kernels: id filled, faults: id, deadline_factor: id filled,
        flight_out: filled, metrics_out: filled, every, keep, frames_done, n_frames: id,
        out_bytes, input_fingerprint: id, pipeline, out_crc,
    }
    HealthSnapshot {
        state, readmit_at, backoff, probation_left, faults, base_backoff, probation_frames,
    }
    DriftSnapshot { streak, flagged }
    NoiseState [check_noise] { amp, key, counter, idx }
    RateSnapshot { target_bits_per_frame, buffer, qp, min_qp, max_qp }
    PredictedTimes { tau1, tau2, tau_tot }
    DevicePrediction { phase1, phase2, rstar }
    Distribution [check_distribution] {
        me, interp, sme, delta_m, delta_l, sigma, sigma_rem, rstar_device,
        predicted, predicted_device, lp_iterations: filled,
    }
    FtStats { injected, detected, recovered, resolves, redispatched_rows, drift_vs_fault }
}

fn check_job(c: &ResumeContext) -> Result<(), FevesError> {
    let n = c.faults.len();
    ensure!(n <= MAX_FAULT_SPECS, "implausible fault-spec count {n}");
    Ok(())
}

fn check_noise(s: &NoiseState) -> Result<(), FevesError> {
    let amp = s.amp;
    ensure!(
        (0.0..1.0).contains(&amp),
        "noise amplitude {amp} outside [0,1)"
    );
    Ok(())
}

fn check_distribution(d: &Distribution) -> Result<(), FevesError> {
    let n = d.me.len();
    for (name, v) in [
        ("interp", &d.interp),
        ("sme", &d.sme),
        ("delta_m", &d.delta_m),
        ("delta_l", &d.delta_l),
        ("sigma", &d.sigma),
        ("sigma_rem", &d.sigma_rem),
    ] {
        let k = v.len();
        ensure!(
            k == n,
            "distribution vector `{name}` has {k} devices, `me` has {n}"
        );
    }
    let rstar = d.rstar_device;
    ensure!(
        rstar < n.max(1),
        "R* device {rstar} out of range for {n} devices"
    );
    let k = d.predicted_device.as_ref().map_or(n, Vec::len);
    ensure!(
        k == n,
        "per-device predictions for {k} devices, distribution has {n}"
    );
    Ok(())
}

/// A section tag from its four-letter name.
const fn tag(name: &str) -> [u8; 4] {
    let b = name.as_bytes();
    [b[0], b[1], b[2], b[3]]
}

fn to_payload(v: &impl Wire) -> Vec<u8> {
    let mut w = ByteWriter::new();
    v.put(&mut w);
    w.into_bytes()
}

fn from_payload<T: Wire>(bytes: &[u8], what: &str) -> Result<T, FevesError> {
    let mut r = ByteReader::new(bytes);
    let v = T::take(&mut r)?;
    r.expect_end(what)?;
    Ok(v)
}

/// The v3 sections after META and PERF, in file order: a tag, `optional`
/// when the section is written only for a `Some` field, and the
/// [`FrameworkState`] fields its payload holds (marked as in `wire!`). A
/// v3 slot may follow a `;`: another field's value, of the type given,
/// written again at the section's end and skipped on read. Generates
/// `put_sections` and `take_sections`.
macro_rules! sections {
    (@put $blob:ident $s:ident $tag:ident [] [$($slot:ident: $ty:ty)?]
        $($field:ident [$($m:ident)*])*) => {{
        let mut bytes = ByteWriter::new();
        let w = &mut bytes;
        $(wire!(@put w &$s.$field; $($m)*);)*
        $(wire!(@put w &$s.$slot;);)?
        $blob.push_section(tag(stringify!($tag)), bytes.into_bytes());
    }};
    (@put $blob:ident $s:ident $tag:ident [optional] [] $field:ident []) => {
        if let Some(v) = &$s.$field {
            $blob.push_section(tag(stringify!($tag)), to_payload(v));
        }
    };
    (@take $blob:ident $tag:ident [] [$($slot:ident: $ty:ty)?]
        $($field:ident [$($m:ident)*])*) => {
        let r = &mut ByteReader::new($blob.require_section(tag(stringify!($tag)))?);
        $(let $field = wire!(@take r; $($m)*);)*
        $(<$ty as Wire>::take(r)?;)?
        r.expect_end(concat!(stringify!($tag), " section"))?;
    };
    (@take $blob:ident $tag:ident [optional] [] $field:ident []) => {
        let $field = match $blob.section(tag(stringify!($tag))) {
            Some(b) => Some(from_payload(b, concat!(stringify!($tag), " section"))?),
            None => None,
        };
    };
    ($($tag:ident $($opt:ident)? {
        $($field:ident $(: $($m:ident)+)?),* $(; $slot:ident: $ty:ty)?
    })*) => {
        fn put_sections(s: &FrameworkState, blob: &mut CheckpointBlob) {
            $(sections!(@put blob s $tag [$($opt)?] [$($slot: $ty)?]
                $($field [$($($m)+)?])*);)*
        }

        fn take_sections(
            blob: &CheckpointBlob,
            perf: PerfChar,
        ) -> Result<FrameworkState, FevesError> {
            $(sections!(@take blob $tag [$($opt)?] [$($slot: $ty)?]
                $($field [$($($m)+)?])*);)*
            Ok(FrameworkState { perf, $($($field,)*)* })
        }
    };
}

// v3 quirk: DAMS ends in the DAM's committed-frame count, which is the
// inter count (`close_frame` advances both) and which nothing reads.
sections! {
    HLTH { health }
    DRFT { drift }
    NOIS { noise }
    DAMS { dam_sigma_rem; inter_count: usize }
    CURS { inter_count, frames_encoded, refs_available, expected_tau: filled, ft_stats }
    RATE optional { rate }
    DIST optional { prev_dist }
    REFS { refs: flagged }
    PEND optional { recon_pending }
}

/// Serialize `ctx` + `state` into a [`CheckpointBlob`] ready for
/// [`CheckpointBlob::to_bytes`].
pub fn encode_checkpoint(ctx: &ResumeContext, state: &FrameworkState) -> CheckpointBlob {
    let mut blob = CheckpointBlob::new(ctx.fingerprint());
    blob.push_section(tag("META"), to_payload(ctx));
    blob.push_section(tag("PERF"), state.perf.to_ckpt_bytes());
    put_sections(state, &mut blob);
    blob
}

/// Decode a [`CheckpointBlob`] back into the resume context and framework
/// state. Structural problems are [`FevesError::CheckpointCorrupt`]; the
/// caller still has to cross-check the blob against the live world
/// (fingerprint, input bytes, output length) before trusting it.
pub fn decode_checkpoint(
    blob: &CheckpointBlob,
) -> Result<(ResumeContext, FrameworkState), FevesError> {
    let ctx: ResumeContext = from_payload(blob.require_section(tag("META"))?, "META section")?;
    if blob.fingerprint != ctx.fingerprint() {
        return Err(FevesError::CheckpointStale(format!(
            "header fingerprint {:#018x} does not match the job described in META ({:#018x})",
            blob.fingerprint,
            ctx.fingerprint()
        )));
    }
    let perf = PerfChar::from_ckpt_bytes(blob.require_section(tag("PERF"))?)?;
    let state = take_sections(blob, perf)?;
    let n = state.refs.len();
    ensure!(n <= MAX_REFS, "implausible reference count {n}");
    Ok((ctx, state))
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
            refs: vec![(luma.clone(), cb.clone(), cr.clone()), (luma, cb, cr)],
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
        // Every plane of every picture, Y, Cb and Cr: dimensions and samples.
        assert_eq!(to_payload(&a.refs), to_payload(&b.refs));
        assert_eq!(to_payload(&a.recon_pending), to_payload(&b.recon_pending));
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

    /// `sample_state(2)` with every optional section and field absent.
    fn lean_state() -> FrameworkState {
        let mut state = sample_state(2);
        state.rate = None;
        state.prev_dist = None;
        state.recon_pending = None;
        state.expected_tau = None;
        state
    }

    #[test]
    fn optional_sections_really_are_optional() {
        let ctx = sample_ctx();
        let bytes = encode_checkpoint(&ctx, &lean_state()).to_bytes();
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

    /// The writer's v3 bytes, pinned as (length, FNV-1a 64) of the whole
    /// image: a changed constant is a changed checkpoint format. Not a
    /// CRC-32: the header and every section end in the CRC-32 of their own
    /// bytes, so a change that keeps every section's length keeps the
    /// CRC-32 of the image too.
    #[test]
    fn checkpoint_bytes_are_pinned() {
        let digest = |state: &FrameworkState| {
            let bytes = encode_checkpoint(&sample_ctx(), state).to_bytes();
            (bytes.len(), fnv1a64(&bytes))
        };
        assert_eq!(digest(&sample_state(2)), (10_788, 0xdaea_789d_f9b8_5b0a));
        assert_eq!(digest(&lean_state()), (7_310, 0xaa57_41d1_9670_9c26));
    }

    /// Section order of every v3 checkpoint.
    const TAGS: [&str; 11] = [
        "META", "PERF", "HLTH", "DRFT", "NOIS", "DAMS", "CURS", "RATE", "DIST", "REFS", "PEND",
    ];

    /// Decode `blob` with section `name`'s payload replaced by a fresh
    /// section (CRC recomputed, so the mangled bytes reach the section
    /// parser): `Ok` or a typed checkpoint error, never a panic.
    fn decode_mangled(
        blob: &CheckpointBlob,
        name: &str,
        payload: &[u8],
        what: impl Fn() -> String,
    ) {
        let mut mangled = CheckpointBlob::new(blob.fingerprint);
        for t in TAGS {
            if let Some(p) = blob.section(tag(t)) {
                mangled.push_section(tag(t), if t == name { payload } else { p }.to_vec());
            }
        }
        match decode_checkpoint(&mangled) {
            Ok(_) | Err(FevesError::CheckpointCorrupt(_) | FevesError::CheckpointStale(_)) => {}
            Err(e) => panic!("{}: untyped error {e}", what()),
        }
    }

    /// Beneath the CRC: every truncation and 256 seeded bit flips of every
    /// section payload, of the previous build's checkpoint and of the
    /// RATE-bearing sample, decode to `Ok` or a typed error — never a panic.
    #[test]
    fn mangled_sections_decode_or_err_never_panic() {
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures/ckpt_v3_pr15/ckpt-000008.ckpt");
        let blobs = [
            CheckpointBlob::from_bytes(&fs::read(fixture).unwrap()).unwrap(),
            encode_checkpoint(&sample_ctx(), &sample_state(2)),
        ];
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        for blob in &blobs {
            for name in TAGS {
                let Some(payload) = blob.section(tag(name)) else {
                    continue;
                };
                for cut in 0..payload.len() {
                    decode_mangled(blob, name, &payload[..cut], || {
                        format!("{name} cut to {cut}")
                    });
                }
                for _ in 0..256 {
                    // xorshift64: a fixed, seeded sequence of bit positions.
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    let bit = (seed % (payload.len() as u64 * 8)) as usize;
                    let mut bytes = payload.to_vec();
                    bytes[bit / 8] ^= 1 << (bit % 8);
                    decode_mangled(blob, name, &bytes, || format!("{name} bit {bit} flipped"));
                }
            }
        }
    }

    /// Stride padding is not part of the layout: a padded plane writes the
    /// same bytes as its compact copy.
    #[test]
    fn a_padded_plane_is_written_without_its_padding() {
        let compact = Plane::from_fn(64, 32, |x, y| (x * 3 + y) as u8);
        let mut padded = Plane::with_stride(64, 32, 80);
        padded.fill(0xEE);
        padded.copy_from(&compact);
        assert_eq!(to_payload(&padded), to_payload(&compact));
    }
}
