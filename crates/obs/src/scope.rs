//! Session-scoped telemetry: per-session metric registries and live device
//! state, multiplexed through a process-wide [`TelemetryHub`].
//!
//! An encode farm runs many sessions over one platform, so nothing here is
//! process-global but the hub that lists them. A [`SessionScope`] owns
//!
//! - an aggregated [`MemoryRecorder`] (this session's metric registry),
//! - live per-device state ([`DeviceLive`]: busy %, prediction residual,
//!   blacklist flag) for dashboards,
//! - a frames-done counter + wall-clock start for a frames/s figure, and
//! - a dropped-event counter fed by the bus's drop-and-count policy.
//!
//! Recording goes through the scope's [`Recorder`] facade. In *direct*
//! mode every record applies immediately to the session registry. Once a
//! [`TelemetryBus`] is attached ([`SessionScope::attach_bus`]) the facade
//! instead publishes fixed-size [`TelemetryEvent`]s and the bus's drain
//! thread applies them — the hot path never takes a lock and never blocks,
//! even when the drain side stalls (events are dropped and counted).

use crate::bus::{DeviceField, TelemetryBus, TelemetryEvent};
use crate::recorder::{MemoryRecorder, Recorder};
use crate::Metric;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, Weak};
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
    /// The session's final metric registry (shared, no longer written).
    pub metrics: Arc<MemoryRecorder>,
    /// Final per-device live state.
    pub devices: Vec<DeviceLive>,
    /// Frames completed over the session's lifetime.
    pub frames: u64,
    /// Frames per wall-clock second over the session's lifetime, frozen at
    /// retirement.
    pub fps: f64,
    /// Events lost to a full bus over the session's lifetime.
    pub dropped: u64,
}

/// Recover a read guard even if a panicking holder poisoned the lock —
/// telemetry must never take the encoder down with it.
macro_rules! read_lock {
    ($l:expr) => {
        $l.read().unwrap_or_else(|e| e.into_inner())
    };
}
macro_rules! write_lock {
    ($l:expr) => {
        $l.write().unwrap_or_else(|e| e.into_inner())
    };
}
macro_rules! mutex_lock {
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

pub(crate) struct SessionInner {
    id: u64,
    label: String,
    metrics: Arc<MemoryRecorder>,
    /// Bus sink, set at most once; absent = direct mode.
    bus: OnceLock<Arc<TelemetryBus>>,
    /// Cached facade so `recorder()` is allocation-free after first use.
    facade: OnceLock<Arc<dyn Recorder>>,
    devices: Mutex<Vec<DeviceLive>>,
    frames: AtomicU64,
    /// Events this session failed to publish (bus full).
    dropped: AtomicU64,
    /// Portion of `dropped` already flushed into the metric registry.
    dropped_flushed: AtomicU64,
    started: Instant,
}

impl SessionInner {
    /// Route one event: publish to the bus when attached (drop-and-count on
    /// a full queue — never block), else apply directly.
    pub(crate) fn record(&self, ev: TelemetryEvent) {
        match self.bus.get() {
            Some(bus) => {
                if !bus.publish(ev) {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => self.apply(ev),
        }
    }

    /// Apply one event to this session's aggregates. Runs on the recording
    /// thread in direct mode and on the drain thread in bus mode.
    pub(crate) fn apply(&self, ev: TelemetryEvent) {
        match ev {
            TelemetryEvent::Add { metric, delta, .. } => self.metrics.add(metric, delta),
            TelemetryEvent::Gauge { metric, value, .. } => self.metrics.gauge(metric, value),
            TelemetryEvent::Observe { metric, value, .. } => self.metrics.observe(metric, value),
            TelemetryEvent::SpanEnd { name, dur_us, .. } => self.metrics.span_record(name, dur_us),
            TelemetryEvent::FrameDone { .. } => {
                self.frames.fetch_add(1, Ordering::Relaxed);
            }
            TelemetryEvent::Device {
                device,
                field,
                value,
                ..
            } => {
                let mut devices = mutex_lock!(self.devices);
                let device = device as usize;
                while devices.len() <= device {
                    let d = devices.len();
                    devices.push(DeviceLive {
                        device: d,
                        name: format!("dev{d}"),
                        ..DeviceLive::default()
                    });
                }
                let slot = &mut devices[device];
                match field {
                    DeviceField::BusyPct => slot.busy_pct = value,
                    // NaN encodes "no residual this frame" (probe frames).
                    DeviceField::ResidualPct => {
                        slot.residual_pct = if value.is_nan() { None } else { Some(value) }
                    }
                    DeviceField::Blacklisted => slot.blacklisted = value != 0.0,
                }
            }
        }
    }
}

impl Drop for SessionInner {
    fn drop(&mut self) {
        // The last handle to this session is gone: freeze its final state
        // into the hub's retirement ring so snapshot readers still see it.
        // Runs with arbitrary hub locks held by *other* threads — and
        // possibly inside this thread's own `sessions` read lock (a
        // transient upgrade in `lookup` can be the last strong reference) —
        // so it must only ever take the separate `retired` mutex.
        let total = self.dropped.load(Ordering::Relaxed);
        let flushed = self.dropped_flushed.load(Ordering::Relaxed);
        if total > flushed {
            self.metrics.add(Metric::ObsDroppedEvents, total - flushed);
        }
        let frames = self.frames.load(Ordering::Relaxed);
        let secs = self.started.elapsed().as_secs_f64();
        let retired = RetiredSession {
            id: self.id,
            label: std::mem::take(&mut self.label),
            metrics: self.metrics.clone(),
            devices: std::mem::take(&mut *mutex_lock!(self.devices)),
            frames,
            fps: if secs > 0.0 {
                frames as f64 / secs
            } else {
                0.0
            },
            dropped: total,
        };
        hub().retire(retired);
    }
}

/// The recorder facade of one scope: forwards every record as an event of
/// that session. Holds only a `Weak` back-reference — the facade is cached
/// *inside* the session, so a strong reference here would be a cycle that
/// kept every session alive (and unretirable) forever. Records arriving
/// after the session retired are dropped silently.
struct ScopeRecorder {
    session: u64,
    inner: Weak<SessionInner>,
}

impl Recorder for ScopeRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }
    fn add(&self, m: Metric, delta: u64) {
        if let Some(inner) = self.inner.upgrade() {
            inner.record(TelemetryEvent::Add {
                session: self.session,
                metric: m,
                delta,
            });
        }
    }
    fn gauge(&self, m: Metric, value: f64) {
        if let Some(inner) = self.inner.upgrade() {
            inner.record(TelemetryEvent::Gauge {
                session: self.session,
                metric: m,
                value,
            });
        }
    }
    fn observe(&self, m: Metric, value: f64) {
        if let Some(inner) = self.inner.upgrade() {
            inner.record(TelemetryEvent::Observe {
                session: self.session,
                metric: m,
                value,
            });
        }
    }
    fn span_record(&self, name: &'static str, dur_us: u64) {
        if let Some(inner) = self.inner.upgrade() {
            inner.record(TelemetryEvent::SpanEnd {
                session: self.session,
                name,
                dur_us,
            });
        }
    }
}

/// A handle to one telemetry session. Clones share the same session; the
/// session stays registered with the hub while any clone (or the bus drain
/// thread's lookup) holds it.
#[derive(Clone)]
pub struct SessionScope {
    inner: Arc<SessionInner>,
}

impl std::fmt::Debug for SessionScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionScope")
            .field("id", &self.inner.id)
            .field("label", &self.inner.label)
            .field("bus", &self.inner.bus.get().is_some())
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

    /// The recorder to hand to instrumented code: this scope's
    /// event-routing facade.
    pub fn recorder(&self) -> Arc<dyn Recorder> {
        self.inner
            .facade
            .get_or_init(|| {
                Arc::new(ScopeRecorder {
                    session: self.inner.id,
                    inner: Arc::downgrade(&self.inner),
                })
            })
            .clone()
    }

    /// Attach a telemetry bus: from now on every record of this scope is
    /// published as a bounded-queue event and applied by the bus's drain
    /// thread. Attach before recording; returns `false` (and changes
    /// nothing) if a bus was already attached.
    pub fn attach_bus(&self, bus: Arc<TelemetryBus>) -> bool {
        self.inner.bus.set(bus).is_ok()
    }

    /// The aggregated per-session metric registry. In bus mode this view
    /// trails the hot path until the drain thread catches up — flush the
    /// bus (e.g. [`crate::bus::BusController::stop`]) before asserting on
    /// final values.
    pub fn metrics(&self) -> Arc<MemoryRecorder> {
        self.inner.metrics.clone()
    }

    /// Label the per-device rows (platform enumeration order). Applied
    /// immediately — labels are setup data, not events.
    pub fn set_device_labels<S: AsRef<str>>(&self, labels: &[S]) {
        let mut devices = mutex_lock!(self.inner.devices);
        for (d, label) in labels.iter().enumerate() {
            while devices.len() <= d {
                let i = devices.len();
                devices.push(DeviceLive {
                    device: i,
                    name: format!("dev{i}"),
                    ..DeviceLive::default()
                });
            }
            devices[d].name = label.as_ref().to_string();
        }
    }

    /// Record one device's live sample for the current frame.
    pub fn device_sample(
        &self,
        device: usize,
        busy_pct: f64,
        residual_pct: Option<f64>,
        blacklisted: bool,
    ) {
        let session = self.inner.id;
        let device = device as u32;
        self.inner.record(TelemetryEvent::Device {
            session,
            device,
            field: DeviceField::BusyPct,
            value: busy_pct,
        });
        self.inner.record(TelemetryEvent::Device {
            session,
            device,
            field: DeviceField::ResidualPct,
            value: residual_pct.unwrap_or(f64::NAN),
        });
        self.inner.record(TelemetryEvent::Device {
            session,
            device,
            field: DeviceField::Blacklisted,
            value: if blacklisted { 1.0 } else { 0.0 },
        });
    }

    /// Mark one frame complete (feeds the frames/s figure).
    pub fn frame_done(&self) {
        let session = self.inner.id;
        self.inner.record(TelemetryEvent::FrameDone { session });
    }

    /// Frames completed so far (drained view in bus mode).
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

    /// Events this session lost to a full bus so far.
    pub fn dropped_events(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Fold any not-yet-flushed drop count into the session registry's
    /// `obs.dropped_events` counter. Called by the live-snapshot writer and
    /// before final exports; idempotent between new drops.
    pub fn sync_dropped(&self) {
        let total = self.inner.dropped.load(Ordering::Relaxed);
        let prev = self.inner.dropped_flushed.swap(total, Ordering::Relaxed);
        if total > prev {
            self.inner
                .metrics
                .add(Metric::ObsDroppedEvents, total - prev);
        }
    }

    /// Snapshot of the live per-device state.
    pub fn devices(&self) -> Vec<DeviceLive> {
        mutex_lock!(self.inner.devices).clone()
    }

    pub(crate) fn inner(&self) -> &Arc<SessionInner> {
        &self.inner
    }
}

/// Process-wide registry of telemetry sessions. The hub hands out
/// [`SessionScope`]s, resolves bus events back to their session, and
/// enumerates live sessions for the snapshot writer. Sessions deregister
/// automatically when the last scope handle drops (the hub only holds
/// weak references).
pub struct TelemetryHub {
    sessions: RwLock<Vec<Weak<SessionInner>>>,
    next_id: AtomicU64,
    /// Bounded ring of recently ended sessions (see [`RetiredSession`]).
    retired: Mutex<VecDeque<RetiredSession>>,
}

/// The process-wide hub singleton.
pub fn hub() -> &'static TelemetryHub {
    static HUB: OnceLock<TelemetryHub> = OnceLock::new();
    HUB.get_or_init(|| TelemetryHub {
        sessions: RwLock::new(Vec::new()),
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
            bus: OnceLock::new(),
            facade: OnceLock::new(),
            devices: Mutex::new(Vec::new()),
            frames: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            dropped_flushed: AtomicU64::new(0),
            started: Instant::now(),
        });
        write_lock!(self.sessions).push(Arc::downgrade(&inner));
        SessionScope { inner }
    }

    /// All live sessions (pruning dead registrations), creation order.
    pub fn scopes(&self) -> Vec<SessionScope> {
        let mut out = Vec::new();
        let mut sessions = write_lock!(self.sessions);
        sessions.retain(|w| match w.upgrade() {
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
        mutex_lock!(self.retired).iter().cloned().collect()
    }

    fn retire(&self, session: RetiredSession) {
        let mut ring = mutex_lock!(self.retired);
        if ring.len() >= MAX_RETIRED {
            ring.pop_front();
        }
        ring.push_back(session);
    }

    /// Resolve a session id to its scope (drain-thread lookup).
    pub(crate) fn lookup(&self, id: u64) -> Option<SessionScope> {
        read_lock!(self.sessions)
            .iter()
            .filter_map(Weak::upgrade)
            .find(|inner| inner.id == id)
            .map(|inner| SessionScope { inner })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_scope_applies_immediately() {
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
        assert_eq!(d.residual_pct, None, "NaN sample clears the residual");
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
            s.inner.dropped.store(3, Ordering::Relaxed);
        }
        let retired = hub().retired();
        let r = retired
            .iter()
            .find(|r| r.label == label)
            .expect("dropped session must appear in the retirement ring");
        assert_eq!(r.frames, 1);
        assert_eq!(r.devices.len(), 1);
        assert_eq!(r.dropped, 3);
        assert_eq!(r.metrics.counter(Metric::FramesEncoded), 2);
        assert_eq!(
            r.metrics.counter(Metric::ObsDroppedEvents),
            3,
            "outstanding drops are folded into the registry at retirement"
        );
    }

    #[test]
    fn sync_dropped_is_incremental() {
        let scope = hub().session("drops");
        scope.inner.dropped.store(4, Ordering::Relaxed);
        scope.sync_dropped();
        assert_eq!(scope.metrics().counter(Metric::ObsDroppedEvents), 4);
        scope.sync_dropped();
        assert_eq!(scope.metrics().counter(Metric::ObsDroppedEvents), 4);
        scope.inner.dropped.store(9, Ordering::Relaxed);
        scope.sync_dropped();
        assert_eq!(scope.metrics().counter(Metric::ObsDroppedEvents), 9);
    }
}
