//! Session-scoped telemetry: per-session metric registries and live device
//! state, listed by a process-wide [`TelemetryHub`].
//!
//! An encode farm runs many sessions over one platform, so nothing here is
//! process-global but the hub that lists them. A [`SessionScope`] owns
//!
//! - an aggregated [`MemoryRecorder`] (this session's metric registry),
//! - live per-device state ([`DeviceLive`]: busy %, prediction residual,
//!   blacklist flag) for dashboards, and
//! - a frames-done counter + wall-clock start for a frames/s figure.
//!
//! Every record lands in the session's own registry on the recording
//! thread: counters, gauges and histogram buckets are atomics, and span
//! aggregates and device rows sit behind short mutexes. A live-snapshot
//! writer ([`crate::live::LiveWriter`]) reads the same registries from its
//! own thread, so no queue stands between the two.

use crate::recorder::{MemoryRecorder, Recorder};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

/// Retired sessions kept by the hub for late snapshot readers. Oldest
/// entries are evicted beyond this bound, so a long-lived farm cannot leak
/// one registry per completed job.
const MAX_RETIRED: usize = 64;

/// Frozen terminal state of a session whose last [`SessionScope`] handle
/// has dropped. The hub keeps a bounded history of these so the live
/// snapshot writer can still report sessions that ended *between* snapshot
/// ticks — without retirement, a short job could come and go invisibly.
#[derive(Clone)]
pub struct RetiredSession {
    /// Session id the scope had while live.
    pub id: u64,
    /// Human label given at creation.
    pub label: String,
    /// The session's final metric registry — the same `Arc` its
    /// [`SessionScope::recorder`] handed out (see there for why nothing
    /// writes it any more).
    pub metrics: Arc<MemoryRecorder>,
    /// Final per-device live state.
    pub devices: Vec<DeviceLive>,
    /// Frames completed over the session's lifetime.
    pub frames: u64,
    /// Frames per wall-clock second over the session's lifetime, frozen at
    /// retirement.
    pub fps: f64,
}

/// Recover a guard even if a panicking holder poisoned the lock —
/// telemetry must never take the encoder down with it.
macro_rules! lock {
    ($l:expr) => {
        $l.lock().unwrap_or_else(|e| e.into_inner())
    };
}

/// Live view of one device inside a session — the per-device row of the
/// `feves top` dashboard.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeviceLive {
    /// Device index in platform enumeration order.
    pub device: usize,
    /// Display name (defaults to `dev<i>` until labeled).
    pub name: String,
    /// Compute-busy percentage of the most recent frame.
    pub busy_pct: f64,
    /// Signed LP-prediction residual of the most recent frame, when the
    /// frame carried a prediction.
    pub residual_pct: Option<f64>,
    /// Device is currently blacklisted by the health tracker.
    pub blacklisted: bool,
}

/// Row `device` of `devices`, appending default `dev<i>` rows up to it.
fn device_row(devices: &mut Vec<DeviceLive>, device: usize) -> &mut DeviceLive {
    while devices.len() <= device {
        let d = devices.len();
        devices.push(DeviceLive {
            device: d,
            name: format!("dev{d}"),
            ..DeviceLive::default()
        });
    }
    &mut devices[device]
}

struct SessionInner {
    id: u64,
    label: String,
    metrics: Arc<MemoryRecorder>,
    devices: Mutex<Vec<DeviceLive>>,
    frames: AtomicU64,
    started: Instant,
}

impl Drop for SessionInner {
    fn drop(&mut self) {
        // The last handle to this session is gone: freeze its final state
        // into the hub's retirement ring so snapshot readers still see it.
        // Runs with arbitrary hub locks held by *other* threads, so it must
        // only ever take the separate `retired` mutex.
        let frames = self.frames.load(Ordering::Relaxed);
        let secs = self.started.elapsed().as_secs_f64();
        let retired = RetiredSession {
            id: self.id,
            label: std::mem::take(&mut self.label),
            metrics: self.metrics.clone(),
            devices: std::mem::take(&mut *lock!(self.devices)),
            frames,
            fps: if secs > 0.0 {
                frames as f64 / secs
            } else {
                0.0
            },
        };
        hub().retire(retired);
    }
}

/// A handle to one telemetry session. Clones share the same session; the
/// session stays registered with the hub while any clone holds it.
#[derive(Clone)]
pub struct SessionScope {
    inner: Arc<SessionInner>,
}

impl std::fmt::Debug for SessionScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionScope")
            .field("id", &self.inner.id)
            .field("label", &self.inner.label)
            .finish()
    }
}

impl SessionScope {
    /// Session id (unique per process).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Human label given at creation.
    pub fn label(&self) -> &str {
        &self.inner.label
    }

    /// The recorder to hand to instrumented code: this session's registry
    /// itself, so every record is applied on the recording thread.
    ///
    /// Frames and device rows are written only through a scope handle, so
    /// they are final once the last handle drops. Metric records can also
    /// come from a clone of this recorder; one that outlived every handle
    /// would land in the registry the [`RetiredSession`] shares (not lost,
    /// shown by the next snapshot). No product holder does that:
    /// `FevesEncoder` keeps the scope beside the recorder it took from it,
    /// and the CLI and the farm hold the scope until their writer stops.
    pub fn recorder(&self) -> Arc<dyn Recorder> {
        self.inner.metrics.clone()
    }

    /// The aggregated per-session metric registry.
    pub fn metrics(&self) -> Arc<MemoryRecorder> {
        self.inner.metrics.clone()
    }

    /// Label the per-device rows (platform enumeration order).
    pub fn set_device_labels<S: AsRef<str>>(&self, labels: &[S]) {
        let mut devices = lock!(self.inner.devices);
        for (d, label) in labels.iter().enumerate() {
            device_row(&mut devices, d).name = label.as_ref().to_string();
        }
    }

    /// Record one device's live sample for the current frame: all three
    /// fields under one lock, so a snapshot never sees half a sample.
    pub fn device_sample(
        &self,
        device: usize,
        busy_pct: f64,
        residual_pct: Option<f64>,
        blacklisted: bool,
    ) {
        let mut devices = lock!(self.inner.devices);
        let row = device_row(&mut devices, device);
        row.busy_pct = busy_pct;
        row.residual_pct = residual_pct;
        row.blacklisted = blacklisted;
    }

    /// Mark one frame complete (feeds the frames/s figure).
    pub fn frame_done(&self) {
        self.inner.frames.fetch_add(1, Ordering::Relaxed);
    }

    /// Frames completed so far.
    pub fn frames(&self) -> u64 {
        self.inner.frames.load(Ordering::Relaxed)
    }

    /// Frames per wall-clock second since the scope was created.
    pub fn fps(&self) -> f64 {
        let secs = self.inner.started.elapsed().as_secs_f64();
        if secs > 0.0 {
            self.frames() as f64 / secs
        } else {
            0.0
        }
    }

    /// Snapshot of the live per-device state.
    pub fn devices(&self) -> Vec<DeviceLive> {
        lock!(self.inner.devices).clone()
    }
}

/// Process-wide registry of telemetry sessions. The hub hands out
/// [`SessionScope`]s and enumerates live sessions for the snapshot writer.
/// Sessions deregister automatically when the last scope handle drops (the
/// hub only holds weak references).
pub struct TelemetryHub {
    sessions: Mutex<Vec<Weak<SessionInner>>>,
    next_id: AtomicU64,
    /// Bounded ring of recently ended sessions (see [`RetiredSession`]).
    retired: Mutex<VecDeque<RetiredSession>>,
}

/// The process-wide hub singleton.
pub fn hub() -> &'static TelemetryHub {
    static HUB: OnceLock<TelemetryHub> = OnceLock::new();
    HUB.get_or_init(|| TelemetryHub {
        sessions: Mutex::new(Vec::new()),
        next_id: AtomicU64::new(1),
        retired: Mutex::new(VecDeque::new()),
    })
}

impl TelemetryHub {
    /// Create and register a new session.
    pub fn session(&self, label: &str) -> SessionScope {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let inner = Arc::new(SessionInner {
            id,
            label: label.to_string(),
            metrics: Arc::new(MemoryRecorder::new()),
            devices: Mutex::new(Vec::new()),
            frames: AtomicU64::new(0),
            started: Instant::now(),
        });
        lock!(self.sessions).push(Arc::downgrade(&inner));
        SessionScope { inner }
    }

    /// All live sessions (pruning dead registrations), creation order.
    pub fn scopes(&self) -> Vec<SessionScope> {
        let mut out = Vec::new();
        lock!(self.sessions).retain(|w| match w.upgrade() {
            Some(inner) => {
                out.push(SessionScope { inner });
                true
            }
            None => false,
        });
        out
    }

    /// Recently ended sessions, oldest first (bounded history — see
    /// [`RetiredSession`]).
    pub fn retired(&self) -> Vec<RetiredSession> {
        lock!(self.retired).iter().cloned().collect()
    }

    fn retire(&self, session: RetiredSession) {
        let mut ring = lock!(self.retired);
        if ring.len() >= MAX_RETIRED {
            ring.pop_front();
        }
        ring.push_back(session);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Metric;

    #[test]
    fn records_land_in_the_registry_immediately() {
        let scope = hub().session("direct");
        let rec = scope.recorder();
        assert!(rec.enabled());
        rec.add(Metric::FramesEncoded, 3);
        rec.observe(Metric::FrameTauTotMs, 31.0);
        rec.span_record("x", 12);
        scope.frame_done();
        scope.device_sample(1, 88.5, Some(-2.0), false);
        let m = scope.metrics();
        assert_eq!(m.counter(Metric::FramesEncoded), 3);
        assert_eq!(m.histogram(Metric::FrameTauTotMs).count(), 1);
        assert_eq!(scope.frames(), 1);
        let devices = scope.devices();
        assert_eq!(devices.len(), 2);
        assert_eq!(devices[0].name, "dev0");
        assert_eq!(devices[1].busy_pct, 88.5);
        assert_eq!(devices[1].residual_pct, Some(-2.0));
    }

    #[test]
    fn sessions_do_not_share_registries() {
        let a = hub().session("a");
        let b = hub().session("b");
        assert_ne!(a.id(), b.id());
        a.recorder().add(Metric::FramesEncoded, 5);
        b.recorder().add(Metric::FramesEncoded, 7);
        assert_eq!(a.metrics().counter(Metric::FramesEncoded), 5);
        assert_eq!(b.metrics().counter(Metric::FramesEncoded), 7);
    }

    #[test]
    fn hub_prunes_dead_sessions() {
        let label = "prune-me-unique";
        {
            let s = hub().session(label);
            assert!(hub().scopes().iter().any(|x| x.label() == label));
            drop(s);
        }
        assert!(!hub().scopes().iter().any(|x| x.label() == label));
    }

    #[test]
    fn device_labels_and_residual_clear() {
        let scope = hub().session("labels");
        scope.set_device_labels(&["GPU", "CPU0"]);
        scope.device_sample(0, 50.0, Some(1.0), false);
        scope.device_sample(0, 60.0, None, true);
        let d = &scope.devices()[0];
        assert_eq!(d.name, "GPU");
        assert_eq!(d.busy_pct, 60.0);
        assert_eq!(d.residual_pct, None, "a probe frame clears the residual");
        assert!(d.blacklisted);
    }

    #[test]
    fn retirement_preserves_final_state() {
        let label = "retire-me-unique";
        {
            let s = hub().session(label);
            s.recorder().add(Metric::FramesEncoded, 2);
            s.frame_done();
            s.device_sample(0, 10.0, None, false);
        }
        let retired = hub().retired();
        let r = retired
            .iter()
            .find(|r| r.label == label)
            .expect("dropped session must appear in the retirement ring");
        assert_eq!(r.frames, 1);
        assert_eq!(r.devices.len(), 1);
        assert_eq!(r.metrics.counter(Metric::FramesEncoded), 2);
    }
}
