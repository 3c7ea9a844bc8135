//! The bounded telemetry bus: non-blocking event transport between recording
//! hot paths and a dedicated drain/export thread.
//!
//! Recorders publish fixed-size [`TelemetryEvent`]s into a bounded
//! [`std::sync::mpsc::sync_channel`] with `try_send`; a drain thread owned
//! by [`BusController`] pops them in batches and applies them to each
//! event's session registry (via [`crate::scope::hub`]). The policy at a
//! full queue is **drop-and-count**: [`TelemetryBus::publish`] returns
//! `false` immediately and the session folds the loss into its
//! `obs.dropped_events` counter — the encode loop is never blocked by
//! telemetry, no matter how slow the drain side is. The drain side polls
//! (`try_recv`, then a short sleep when idle) rather than parking in
//! `recv`: a parked receiver would turn the first publish of every frame
//! into a wake-up syscall on the encoder thread.
//!
//! The bus also meters itself: every 64th publish is wall-clock timed
//! (`obs.bus_enqueue_ns`), and each drain batch records its pop+apply cost
//! (`obs.bus_drain_us`). Those two distributions are what the
//! `obs_overhead` bench gate uses to prove the live path stays under the
//! paper's 2 ms/frame scheduling-overhead budget.

use crate::histogram::Histogram;
use crate::live;
use crate::recorder::Recorder;
use crate::scope::{hub, SessionScope};
use crate::Metric;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which live per-device field a [`TelemetryEvent::Device`] sample updates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceField {
    /// Compute-busy percentage of the last frame.
    BusyPct,
    /// Signed LP-prediction residual (%); a NaN value clears it (probe
    /// frames carry no prediction).
    ResidualPct,
    /// Blacklist flag (0.0 = healthy, anything else = blacklisted).
    Blacklisted,
}

/// One fixed-size telemetry event. `Copy`, no heap payload — the channel
/// slot is the entire allocation, and publishing is a couple of atomic ops.
#[derive(Clone, Copy, Debug)]
pub enum TelemetryEvent {
    /// Counter increment.
    Add {
        /// Originating session id.
        session: u64,
        /// Target counter.
        metric: Metric,
        /// Increment.
        delta: u64,
    },
    /// Gauge write (last wins).
    Gauge {
        /// Originating session id.
        session: u64,
        /// Target gauge.
        metric: Metric,
        /// New value.
        value: f64,
    },
    /// Histogram sample.
    Observe {
        /// Originating session id.
        session: u64,
        /// Target histogram.
        metric: Metric,
        /// Sample value.
        value: f64,
    },
    /// Completed wall-clock span.
    SpanEnd {
        /// Originating session id.
        session: u64,
        /// Span point name.
        name: &'static str,
        /// Duration in µs.
        dur_us: u64,
    },
    /// Live per-device field update.
    Device {
        /// Originating session id.
        session: u64,
        /// Device index.
        device: u32,
        /// Field being written.
        field: DeviceField,
        /// New value (encoding per [`DeviceField`]).
        value: f64,
    },
    /// One frame finished in this session.
    FrameDone {
        /// Originating session id.
        session: u64,
    },
}

impl TelemetryEvent {
    /// The session this event belongs to.
    pub fn session(&self) -> u64 {
        match *self {
            TelemetryEvent::Add { session, .. }
            | TelemetryEvent::Gauge { session, .. }
            | TelemetryEvent::Observe { session, .. }
            | TelemetryEvent::SpanEnd { session, .. }
            | TelemetryEvent::Device { session, .. }
            | TelemetryEvent::FrameDone { session } => session,
        }
    }
}

/// Summary of one of the bus's self-cost distributions.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfCost {
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// 99th percentile (bucket upper bound).
    pub p99: f64,
    /// Exact maximum.
    pub max: f64,
}

impl SelfCost {
    fn of(h: &Histogram) -> SelfCost {
        SelfCost {
            count: h.count(),
            mean: h.mean(),
            p99: h.percentile(99.0),
            max: h.max(),
        }
    }
}

/// Point-in-time bus accounting, embedded in live snapshots.
#[derive(Clone, Copy, Debug)]
pub struct BusStats {
    /// Queue capacity (events).
    pub capacity: usize,
    /// Events currently queued (approximate under concurrency).
    pub depth: usize,
    /// Events accepted by `publish` since start.
    pub published: u64,
    /// Events rejected at a full queue since start.
    pub dropped: u64,
    /// Events popped by the drain side (applied, once its batch ends).
    pub drained: u64,
    /// Sampled enqueue cost (ns; every 64th publish is timed).
    pub enqueue_ns: SelfCost,
    /// Per-batch drain cost (µs; pop + apply of up to [`DRAIN_BATCH`]).
    pub drain_batch_us: SelfCost,
}

/// Max events one drain batch pops before re-checking the clock and the
/// stop flag.
pub const DRAIN_BATCH: usize = 1024;
/// Publish-sampling interval for enqueue self-timing (power of two).
const ENQUEUE_SAMPLE: u64 = 64;

/// The transport half of the pipeline: a bounded channel — many producers
/// (session scopes), one consumer (the [`BusController`] drain thread) —
/// plus drop/drain accounting.
pub struct TelemetryBus {
    tx: SyncSender<TelemetryEvent>,
    /// The single consumer's end; the lock is uncontended and only makes
    /// `pop(&self)` shareable.
    rx: Mutex<Receiver<TelemetryEvent>>,
    capacity: usize,
    publishes: AtomicU64,
    published: AtomicU64,
    dropped: AtomicU64,
    drained: AtomicU64,
    enqueue_ns: Histogram,
    drain_batch_us: Histogram,
}

impl std::fmt::Debug for TelemetryBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryBus")
            .field("stats", &self.stats())
            .finish()
    }
}

impl TelemetryBus {
    /// A bus holding at most `capacity` in-flight events (at least one: a
    /// zero-capacity `sync_channel` is a rendezvous, which `try_send` can
    /// never enter without a parked receiver).
    pub fn new(capacity: usize) -> TelemetryBus {
        let capacity = capacity.max(1);
        let (tx, rx) = sync_channel(capacity);
        TelemetryBus {
            tx,
            rx: Mutex::new(rx),
            capacity,
            publishes: AtomicU64::new(0),
            published: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            enqueue_ns: Histogram::new(),
            drain_batch_us: Histogram::new(),
        }
    }

    /// Publish one event. Returns `false` — immediately, without blocking —
    /// when the queue is full; the caller is responsible for counting the
    /// drop against its session.
    pub fn publish(&self, ev: TelemetryEvent) -> bool {
        let n = self.publishes.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(ENQUEUE_SAMPLE) {
            return self.push_counted(ev);
        }
        // Sampled publish: time the push and feed the measurement back
        // through the bus itself as an ordinary Observe event (losing the
        // self-metering event at a full queue is fine — the local histogram
        // below already has the sample).
        let session = ev.session();
        let t0 = Instant::now();
        let ok = self.push_counted(ev);
        let ns = t0.elapsed().as_nanos() as f64;
        self.enqueue_ns.observe(ns);
        if ok {
            let _ = self.push_counted(TelemetryEvent::Observe {
                session,
                metric: Metric::ObsBusEnqueueNs,
                value: ns,
            });
        }
        ok
    }

    fn push_counted(&self, ev: TelemetryEvent) -> bool {
        match self.tx.try_send(ev) {
            Ok(()) => {
                self.published.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Pop one event (drain side).
    pub fn pop(&self) -> Option<TelemetryEvent> {
        let rx = self
            .rx
            .lock()
            .expect("a telemetry consumer panicked inside pop");
        let ev = rx.try_recv().ok()?;
        self.drained.fetch_add(1, Ordering::Relaxed);
        Some(ev)
    }

    /// Events currently queued: accepted − popped (approximate under
    /// concurrency).
    pub fn depth(&self) -> usize {
        // Two relaxed counters, so a pop may be counted before the publish
        // it took: saturate instead of wrapping.
        let published = self.published.load(Ordering::Relaxed);
        published.saturating_sub(self.drained.load(Ordering::Relaxed)) as usize
    }

    /// Current accounting snapshot.
    pub fn stats(&self) -> BusStats {
        BusStats {
            capacity: self.capacity,
            depth: self.depth(),
            published: self.published.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            drained: self.drained.load(Ordering::Relaxed),
            enqueue_ns: SelfCost::of(&self.enqueue_ns),
            drain_batch_us: SelfCost::of(&self.drain_batch_us),
        }
    }
}

/// Periodic live-snapshot output written by the drain thread.
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// Snapshot destination (written atomically: temp + fsync + rename).
    pub path: PathBuf,
    /// Interval between snapshot writes.
    pub period: Duration,
}

/// Owns the drain thread: spawns it on [`BusController::start`], joins it
/// (after a final drain and final snapshot) on [`BusController::stop`] or
/// drop.
pub struct BusController {
    bus: Arc<TelemetryBus>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl BusController {
    /// Start a bus of `capacity` events plus its drain thread. With a
    /// [`LiveConfig`], the drain thread also writes a live snapshot every
    /// `period` (and a final one at stop).
    pub fn start(capacity: usize, live: Option<LiveConfig>) -> BusController {
        let bus = Arc::new(TelemetryBus::new(capacity));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let bus = bus.clone();
            let stop = stop.clone();
            std::thread::Builder::new()
                .name("feves-obs-drain".into())
                .spawn(move || drain_loop(&bus, &stop, live))
                .expect("spawn telemetry drain thread")
        };
        BusController {
            bus,
            stop,
            handle: Some(handle),
        }
    }

    /// The shared bus handle, for [`crate::SessionScope::attach_bus`].
    pub fn bus(&self) -> Arc<TelemetryBus> {
        self.bus.clone()
    }

    /// Signal the drain thread, wait for it to drain the queue, apply
    /// everything, write the final snapshot (if configured) and exit.
    /// Idempotent. After `stop` returns, session registries reflect every
    /// event that was ever accepted by the bus.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            // A telemetry thread that panicked must not take the encoder
            // down with it at shutdown.
            let _ = h.join();
        }
    }
}

impl Drop for BusController {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Apply one drained event to its session, with a one-entry lookup cache —
/// events arrive in long same-session runs, so this avoids a hub read-lock
/// per event.
fn apply_event(ev: TelemetryEvent, cache: &mut Option<SessionScope>) {
    let id = ev.session();
    if !matches!(cache, Some(s) if s.id() == id) {
        *cache = hub().lookup(id);
    }
    // A session whose every handle dropped with events still in flight:
    // nowhere to apply — discard.
    if let Some(scope) = cache.as_ref() {
        scope.inner().apply(ev);
        scope.metrics().add(Metric::ObsBusEvents, 1);
    }
}

fn drain_loop(bus: &TelemetryBus, stop: &AtomicBool, live: Option<LiveConfig>) {
    let started = Instant::now();
    let mut cache: Option<SessionScope> = None;
    let mut seq = 0u64;
    let mut last_write = Instant::now();
    loop {
        let stopping = stop.load(Ordering::Acquire);
        let t0 = Instant::now();
        let mut n = 0u64;
        let mut batch_sessions: Vec<SessionScope> = Vec::new();
        while n < DRAIN_BATCH as u64 {
            match bus.pop() {
                Some(ev) => {
                    apply_event(ev, &mut cache);
                    if let Some(s) = &cache {
                        if !batch_sessions.iter().any(|b| b.id() == s.id()) {
                            batch_sessions.push(s.clone());
                        }
                    }
                    n += 1;
                }
                None => break,
            }
        }
        if n > 0 {
            let us = t0.elapsed().as_nanos() as f64 / 1_000.0;
            bus.drain_batch_us.observe(us);
            // Attribute the batch cost to every session it served.
            for s in &batch_sessions {
                s.metrics().observe(Metric::ObsBusDrainUs, us);
            }
        }
        let due = live
            .as_ref()
            .is_some_and(|cfg| last_write.elapsed() >= cfg.period);
        if due && !stopping {
            if let Some(cfg) = &live {
                seq += 1;
                let _ = live::write_live(&cfg.path, seq, started.elapsed(), Some(&bus.stats()));
                last_write = Instant::now();
            }
        }
        // A batch shorter than DRAIN_BATCH means the pop loop above hit an
        // empty queue — with producers quiesced (the stop contract) that is
        // a complete drain. Checking via a probing pop instead would discard
        // the popped event.
        if stopping && n < DRAIN_BATCH as u64 {
            // Queue fully drained after the stop signal: final snapshot,
            // then exit. (A racing publisher at this point is a programming
            // error — scopes must stop recording before the controller is
            // stopped — and at worst loses its tail events.)
            if let Some(cfg) = &live {
                seq += 1;
                let _ = live::write_live(&cfg.path, seq, started.elapsed(), Some(&bus.stats()));
            }
            return;
        }
        if n == 0 {
            // Idle: yield briefly instead of spinning. 200 µs keeps worst-
            // case drain latency far below any snapshot period.
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_full_returns_false_and_counts() {
        let bus = TelemetryBus::new(4);
        let ev = TelemetryEvent::FrameDone { session: 999_001 };
        // Publishes 1..=4 fill the queue (publish #0 is sampled and emits an
        // extra self-metering event, so start from a non-sampled index by
        // pre-loading the counter).
        bus.publishes.store(1, Ordering::Relaxed);
        for _ in 0..4 {
            assert!(bus.publish(ev));
        }
        assert!(!bus.publish(ev), "full bus must reject, not block");
        let s = bus.stats();
        assert_eq!(s.published, 4);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.depth, 4);
        assert_eq!(s.capacity, 4);
    }

    #[test]
    fn sampled_publish_records_enqueue_cost() {
        let bus = TelemetryBus::new(16);
        // Publish #0 is sampled: times the push and enqueues one extra
        // Observe(ObsBusEnqueueNs) event.
        assert!(bus.publish(TelemetryEvent::FrameDone { session: 999_002 }));
        assert_eq!(bus.stats().enqueue_ns.count, 1);
        assert_eq!(bus.depth(), 2);
        let mut saw_self_meter = false;
        while let Some(ev) = bus.pop() {
            if let TelemetryEvent::Observe { metric, .. } = ev {
                assert_eq!(metric, Metric::ObsBusEnqueueNs);
                saw_self_meter = true;
            }
        }
        assert!(saw_self_meter);
    }

    #[test]
    fn controller_drains_into_session_registry() {
        let scope = hub().session("bus-drain-test");
        let mut ctl = BusController::start(1 << 12, None);
        assert!(scope.attach_bus(ctl.bus()));
        let rec = scope.recorder();
        for _ in 0..500 {
            rec.add(Metric::FramesEncoded, 1);
            rec.observe(Metric::FrameTauTotMs, 33.0);
        }
        rec.span_record("bus-span", 42);
        scope.frame_done();
        ctl.stop();
        let m = scope.metrics();
        assert_eq!(m.counter(Metric::FramesEncoded), 500);
        assert_eq!(m.histogram(Metric::FrameTauTotMs).count(), 500);
        assert_eq!(scope.frames(), 1);
        assert!(m.spans().iter().any(|s| s.name == "bus-span"));
        // Self-accounting: every applied event is counted, and the drain
        // cost histogram has samples.
        assert!(m.counter(Metric::ObsBusEvents) >= 1002);
        assert!(m.histogram(Metric::ObsBusDrainUs).count() >= 1);
        assert_eq!(scope.dropped_events(), 0);
    }

    #[test]
    fn stop_is_idempotent_and_drop_safe() {
        let mut ctl = BusController::start(64, None);
        ctl.stop();
        ctl.stop();
        drop(ctl);
    }

    #[test]
    fn overflow_drops_are_counted_per_session() {
        // No drain thread: a raw bus fills up and every further record is
        // dropped-and-counted on the session.
        let scope = hub().session("bus-overflow-test");
        let bus = Arc::new(TelemetryBus::new(8));
        assert!(scope.attach_bus(bus.clone()));
        let rec = scope.recorder();
        for _ in 0..100 {
            rec.add(Metric::FramesEncoded, 1);
        }
        // Capacity 8 (one slot may hold a self-metering event): at least
        // 100 − 8 of the records were dropped-and-counted.
        assert!(scope.dropped_events() >= 92, "{}", scope.dropped_events());
        assert_eq!(bus.depth(), 8);
        // Nothing was applied yet (no drain thread).
        assert_eq!(scope.metrics().counter(Metric::FramesEncoded), 0);
        scope.sync_dropped();
        assert_eq!(
            scope.metrics().counter(Metric::ObsDroppedEvents),
            scope.dropped_events()
        );
    }
}
