//! The fault planes in one table. A row is a scenario plus one value per
//! plane — device fault, in-process kill, storage faults, `--pipeline` and
//! an encoder extra — and every pair of plane values occurs in some row.
//! One runner drives `core::session::Session` as the farm does, retrying
//! typed failures and the kill's panic from the newest checkpoint. One
//! oracle holds each row to its scenario's fault-free artifact, byte for
//! byte, and to its *twin* — the same device fault and extra with the other
//! planes off — for bits, splits, `FtStats` and health; the twin to each
//! device value's [`expected_counters`]. Host width is CI's `taskset -c 0`
//! run of this suite. `FEVES_FAULT_SEED` (default 1) seeds the chaos
//! schedule and the storage plans; with `FEVES_FAULT_ARTIFACT=dir` each row
//! leaves its artifact and a summary there before it is judged.

mod common;

use common::{fault_artifact, fault_seed, scratch, silence_injected_panics, write_input};
use feves::codec::cabac::EntropyBackend;
use feves::core::prelude::*;
use feves::core::session::{self, Finished, Session, SessionError, SessionHooks};
use feves::ft::ckpt::fnv1a64;
use feves::ft::io::{inject, FaultPlan, FaultyIo};
use feves::sched::Distribution;
use feves::serve::session::verify_artifact;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};
use Device::{Chaos, Death, NoFault, Panic, PanicCores, PanicMe, PanicSme, Stall, Xfer};
use Extra::{Cabac, Drift, Gop, Jitter, Plain, RateControl};

/// Frames per clip: the I-frame, the equidistant probe, the fault frame and
/// one more.
const FRAMES: usize = 4;
/// The inter frame (and input frame) every device fault starts at.
const FAULT_AT: usize = 2;
/// The kill strikes before this frame, after the checkpoint of frames 0–1,
/// so the resumed attempt replays the fault frame.
const KILL_AT: usize = 3;
/// Attempts under storage faults before they are lifted and a clean pass
/// must converge.
const MAX_ATTEMPTS: usize = 20;
/// Frames a device sits out after its first fault.
const BASE_BACKOFF: usize = 2;

/// `--platform` and `--balancer`: the part of a row no plane varies. Of
/// listed balancers the first whose split has the device a panic wants is
/// used: the kernel family rescales the profiles, and so the split.
type Scenario = (&'static str, &'static str);
const NFF: Scenario = ("sysnff", "feves");
const NFF_PROPORTIONAL: Scenario = ("sysnff", "proportional");
const NFF_ONE_BAND: Scenario = ("sysnff", "proportional feves");
const NF: Scenario = ("sysnf", "feves");

/// The device-fault plane. `Chaos` is the `FEVES_FAULT_SEED` schedule. A
/// panic strikes every band of the first device with both an ME and an SME
/// band (`Panic`), an ME band only or an SME band only, in the fault-free
/// split of the fault frame — or of every CPU core.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Device {
    NoFault,
    Death(usize),
    Xfer,
    Stall,
    Panic,
    Chaos,
    PanicMe,
    PanicSme,
    PanicCores,
}

/// The encoder-extras plane. `Drift` halves accelerator 0's speed from the
/// fault frame on under a sluggish EWMA; `Jitter` is the farm's
/// health-backoff jitter.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Extra {
    Plain,
    Drift,
    RateControl,
    Gop,
    Cabac,
    Jitter,
}

const EXTRAS: [Extra; 6] = [Plain, Drift, RateControl, Gop, Cabac, Jitter];

/// A row: `planes` is `[kill, storage, pipeline]`, 1 for on.
#[derive(Clone, Copy, Debug)]
struct Row {
    scenario: Scenario,
    device: Device,
    planes: [u8; 3],
    extra: Extra,
}

/// The device × extras grid on SysNFF, the other planes off: one test per
/// device value, over every extra. Each cell is also the twin of the listed
/// rows that share its device and extra.
macro_rules! grid {
    ($($name:ident: $device:expr;)*) => {
        const DEVICES: &[Device] = &[$($device),*];
        $(#[test] fn $name() {
            for extra in EXTRAS {
                let name = format!("{}_{extra:?}", stringify!($name));
                check(&name, Row::new(NFF, $device, [0; 3], extra));
            }
        })*
    };
}

grid! {
    grid_none: NoFault;
    grid_death: Death(0);
    grid_xfer: Xfer;
    grid_stall: Stall;
    grid_panic: Panic;
    grid_chaos: Chaos;
}

/// The listed rows: [`ROWS`], and one test per row named after it.
macro_rules! table {
    ($($name:ident: $scenario:ident $device:expr, $planes:expr, $extra:ident;)*) => {
        const ROWS: &[Row] = &[$(
            Row::new($scenario, $device, $planes, $extra)
        ),*];
        $(#[test] fn $name() {
            check(stringify!($name), Row::new($scenario, $device, $planes, $extra));
        })*
    };
}

table! {
    // name                        scenario         device      [kill, storage, pipeline]  extra
    // All three planes on, over one grid cell per device value and extra.
    none_all_planes:               NFF              NoFault,    [1, 1, 1], Drift;
    death_all_planes:              NFF              Death(0),   [1, 1, 1], Jitter;
    xfer_all_planes:               NFF              Xfer,       [1, 1, 1], RateControl;
    stall_all_planes:              NFF              Stall,      [1, 1, 1], Gop;
    panic_all_planes:              NFF              Panic,      [1, 1, 1], Cabac;
    chaos_all_planes:              NFF              Chaos,      [1, 1, 1], Plain;
    // One of them at a time.
    death_killed:                  NFF              Death(0),   [1, 0, 0], Plain;
    none_under_storage_faults:     NFF              NoFault,    [0, 1, 0], Plain;
    none_pipelined:                NFF              NoFault,    [0, 0, 1], Plain;
    // What the grid's device values leave out.
    death_of_gpu_1_pipelined:      NFF              Death(1),   [0, 0, 1], Plain;
    panic_in_both_bands:           NFF_PROPORTIONAL Panic,      [0, 0, 0], Plain;
    panic_in_an_me_band_only:      NFF_ONE_BAND     PanicMe,    [0, 0, 0], Plain;
    panic_in_an_sme_band_only:     NFF_ONE_BAND     PanicSme,   [0, 0, 0], Plain;
    panic_on_every_core:           NF               PanicCores, [0, 0, 0], Plain;
}

impl Row {
    const fn new(scenario: Scenario, device: Device, planes: [u8; 3], extra: Extra) -> Row {
        Row {
            scenario,
            device,
            planes,
            extra,
        }
    }

    /// The devices a panic strikes, given the fault-free split of the
    /// fault frame; `None` when no device there has the bands it wants.
    fn panicking(&self, split: &Distribution) -> Option<Vec<usize>> {
        let platform = session::platform_of(self.scenario.0).unwrap().0;
        let bands = |d: usize| (split.me[d] > 0, split.sme[d] > 0);
        let wanted = match self.device {
            Panic => (true, true),
            PanicMe => (true, false),
            PanicSme => (false, true),
            PanicCores => return Some((platform.n_accel..platform.len()).collect()),
            _ => return Some(Vec::new()),
        };
        let first = (0..platform.len()).find(|&d| bands(d) == wanted);
        first.map(|d| vec![d])
    }

    /// The device plane's fault specs.
    fn faults(&self, split: &Distribution) -> Vec<String> {
        let at = FAULT_AT;
        // A horizon of the fault frame starts every chaos fault there:
        // GOP's I-frame refresh leaves no inter frame after it.
        let chaos = FaultSchedule::chaos(fault_seed(), 2, at).specs;
        let panics = self.panicking(split).expect("a device the panic wants");
        match self.device {
            NoFault => Vec::new(),
            Death(d) => vec![format!("{d}:death@{at}")],
            Xfer => vec![format!("0:xfer@{at}")],
            Stall => vec![format!("1:stall@{at}+2")],
            Chaos => chaos.iter().map(|s| s.to_string()).collect(),
            _ => panics.iter().map(|d| format!("{d}:panic@{at}")).collect(),
        }
    }

    fn configure(&self, cfg: &mut EncoderConfig) {
        let rate = RateControlConfig {
            target_kbps: 400.0,
            fps: 25.0,
        };
        match self.extra {
            Plain => {}
            Drift => cfg.ewma = feves::sched::Ewma(0.1),
            RateControl => cfg.rate_control = Some(rate),
            Gop => cfg.gop = Some(3),
            Cabac => cfg.entropy = EntropyBackend::Cabac,
            Jitter => cfg.health_jitter = Some(0xFEE7),
        }
    }
}

/// What a run left behind.
struct Outcome {
    artifact: Vec<u8>,
    /// The split of the fault frame.
    split: Distribution,
    /// Coded bits and split by input frame, as the last attempt reported.
    frames: Vec<(Option<u64>, Option<Distribution>)>,
    ft: FtStats,
    /// Per device: faults charged, and the frame of its last re-admission.
    health: Vec<(u64, usize)>,
    /// Every typed failure on the way.
    failures: Vec<SessionError>,
}

/// The in-process kill: an unwind that runs no panic hook.
struct Killed;

/// The runner's side of the driver's frame loop.
struct Hooks {
    kill_at: Option<usize>,
    frame: usize,
    frames: Vec<(Option<u64>, Option<Distribution>)>,
}

impl SessionHooks for Hooks {
    fn stop_requested(&self) -> bool {
        false
    }

    fn before_frame(&mut self, index: usize) {
        self.frame = index;
        if self.kill_at == Some(index) {
            self.kill_at = None;
            resume_unwind(Box::new(Killed));
        }
    }

    fn on_frame(&mut self, report: FrameReport) {
        self.frames[self.frame] = (report.bits, report.distribution);
    }
}

/// One attempt, as the farm makes it: continue from the newest checkpoint
/// generation that loads and still matches the input and output on disk,
/// otherwise start the job over.
fn attempt(job: &ResumeContext, row: &Row, hooks: &mut Hooks) -> Result<Finished, SessionError> {
    let ckpt_dir = Path::new(&job.output).with_extension("y4m.ckpt");
    let latest = load_latest(&ckpt_dir).ok();
    let at = latest.as_ref().map_or(0, |(_, ctx, ..)| ctx.frames_done);
    let input = session::open_input(&job.input, at)?;
    let (ctx, resume) = latest
        .and_then(|(_, ctx, state, _)| {
            let prefix_crc_state = session::validate_checkpoint(&ctx, &input).ok()??;
            Some((ctx, Some((state, prefix_crc_state))))
        })
        .unwrap_or_else(|| (job.clone(), None));
    let mut session = Session::open(ctx, input, resume, Some(ckpt_dir), |cfg| row.configure(cfg))?;
    if row.extra == Drift {
        session.encoder_mut().add_perturbation(Perturbation {
            device: 0,
            frames: FAULT_AT..FRAMES,
            factor: 0.5,
        });
    }
    session.run(hooks)
}

/// Encode `row` with `faults` in a fresh directory `name`, under the storage
/// faults of `plan` if any, until an attempt completes.
fn run(name: &str, row: &Row, faults: Vec<String>, plan: Option<FaultPlan>) -> Outcome {
    silence_injected_panics();
    let dir = scratch(&name.replace(['(', ')'], "_"));
    write_input(&dir.join("in.y4m"), 7, FRAMES);
    let path = |file: &str| dir.join(file).to_string_lossy().into_owned();
    let (input, output) = (path("in.y4m"), path("out.y4m"));
    let (platform, balancer) = (row.scenario.0.into(), row.scenario.1.into());
    let (sa, refs, qp, every, keep, pipeline) = (8, 2, 28, 2, 2, row.planes[2] != 0);
    #[rustfmt::skip]
    let job = ResumeContext {
        input, output, platform, platform_json: None, sa, refs, qp, balancer, kernels: None,
        faults, deadline_factor: None, flight_out: None, metrics_out: None, every, keep,
        frames_done: 0, n_frames: 0, out_bytes: 0, input_fingerprint: 0, pipeline, out_crc: 0,
    };
    let mut storage = plan.map(|plan| inject(&dir, Arc::new(FaultyIo::new(plan))));
    let mut hooks = Hooks {
        kill_at: (row.planes[0] != 0).then_some(KILL_AT),
        frame: 0,
        frames: vec![(None, None); FRAMES],
    };
    let mut failures = Vec::new();
    let done = loop {
        if failures.len() == MAX_ATTEMPTS {
            storage = None;
        }
        match catch_unwind(AssertUnwindSafe(|| attempt(&job, row, &mut hooks))) {
            Ok(Ok(done)) => break done,
            Ok(Err(e)) => failures.push(e),
            Err(p) if p.is::<Killed>() => {}
            Err(p) => resume_unwind(p),
        }
        assert!(failures.len() <= MAX_ATTEMPTS, "{name}: {failures:?}");
    };
    drop(storage);
    assert_eq!(hooks.kill_at, None, "{name}: the kill never struck");
    let (ctx, health) = (&done.context, done.encoder.health());
    let verified = verify_artifact(&ctx.output, ctx.out_bytes, ctx.out_crc);
    assert_eq!(verified, Ok(()), "{name}: the artifact does not verify");
    let charged = |d| (health.fault_count(d), health.readmit_at(d));
    Outcome {
        artifact: std::fs::read(&ctx.output).unwrap(),
        split: hooks.frames[FAULT_AT].1.clone().expect("an inter frame"),
        frames: hooks.frames,
        ft: done.encoder.ft_stats(),
        health: (0..health.len()).map(charged).collect(),
        failures,
    }
}

/// The run of `(scenario, device, extra)` with the kill, storage and
/// pipeline planes off, once per process, whichever row asks first.
fn twin(scenario: Scenario, device: Device, extra: Extra) -> Arc<Outcome> {
    type Twin = ((Scenario, Device, Extra), Arc<OnceLock<Arc<Outcome>>>);
    static TWINS: Mutex<Vec<Twin>> = Mutex::new(Vec::new());
    let key = (scenario, device, extra);
    let cell = {
        let mut twins = TWINS.lock().unwrap_or_else(|e| e.into_inner());
        if !twins.iter().any(|(k, _)| *k == key) {
            twins.push((key, Arc::default()));
        }
        twins.iter().find(|(k, _)| *k == key).unwrap().1.clone()
    };
    let outcome = cell.get_or_init(|| {
        let row = Row::new(scenario, device, [0; 3], extra);
        let faults = match device {
            NoFault => Vec::new(),
            _ => row.faults(&twin(scenario, NoFault, extra).split),
        };
        let name = format!("twin_{scenario:?}_{device:?}_{extra:?}");
        Arc::new(run(&name, &row, faults, None))
    });
    outcome.clone()
}

/// Run `row` and judge it.
fn check(name: &str, row: Row) {
    let (platform, balancers) = row.scenario;
    let choice = |b| Row::new((platform, b), row.device, row.planes, row.extra);
    let fits = |r: &Row| {
        let split = &twin(r.scenario, NoFault, r.extra).split;
        r.panicking(split).is_some()
    };
    let resolved = balancers.split(' ').map(choice).find(fits);
    let row = resolved.expect("a split with the device the panic wants");
    let twin_ = twin(row.scenario, row.device, row.extra);
    let fault_free = twin(row.scenario, NoFault, row.extra);
    let storage = row.planes[1] != 0;
    let out = if row.planes != [0; 3] {
        let plan = FaultPlan::transient(fault_seed() ^ fnv1a64(name.as_bytes()));
        let faults = row.faults(&fault_free.split);
        Arc::new(run(name, &row, faults, storage.then_some(plan)))
    } else {
        twin_.clone()
    };
    if let Some(dir) = fault_artifact() {
        let file = |ext: &str| dir.join(format!("{name}-seed{}.{ext}", fault_seed()));
        std::fs::write(file("y4m"), &out.artifact).unwrap();
        let o = &out;
        let summary = (&o.ft, &o.health, &o.failures, &o.frames);
        std::fs::write(file("txt"), format!("{row:?}\n{summary:#?}")).unwrap();
    }

    let bits = |o: &Outcome| o.frames.iter().map(|f| f.0).collect::<Vec<_>>();
    let fault_free_bytes = out.artifact == fault_free.artifact;
    assert!(fault_free_bytes, "{name}: not the fault-free artifact");
    assert_eq!(bits(&out), bits(&fault_free), "{name}: coded bits");
    for e in &out.failures {
        let typed_io = matches!(e, SessionError::Io(_));
        assert!(storage && typed_io, "{name}: {e:?}");
    }
    // Every MB row is dispatched exactly once per balanced module.
    let n_rows = Resolution::QCIF.mb_grid().rows;
    for (i, split) in out.frames.iter().enumerate() {
        for rows in split.1.iter().flat_map(|s| [&s.me, &s.interp, &s.sme]) {
            assert_eq!(rows.iter().sum::<usize>(), n_rows, "{name}: frame {i}");
        }
    }
    assert_eq!(out.frames, twin_.frames, "{name}: bits and splits");
    assert_eq!((out.ft, &out.health), (twin_.ft, &twin_.health), "{name}");
    expected_counters(name, &row, &out, &fault_free);
}

/// The expected-counters column, stated once per device value: what the
/// fault must leave in `FtStats` and the health tracker.
fn expected_counters(name: &str, row: &Row, out: &Outcome, fault_free: &Outcome) {
    let (ft, split) = (out.ft, &out.split);
    let recovered = [ft.injected, ft.detected, ft.resolves, ft.redispatched_rows];
    let holds = match row.device {
        NoFault => ft == FtStats::default(),
        Death(_) | Xfer | Stall => recovered.iter().all(|&n| n >= 1),
        Chaos => ft.injected >= 1 && ft.resolves <= ft.detected,
        Panic | PanicMe | PanicSme | PanicCores => *split == fault_free.split,
    };
    assert!(holds, "{name}: {ft:?}, fault frame split {split:?}");
    let Some(devices) = row.panicking(split).filter(|d| !d.is_empty()) else {
        return;
    };
    let held = |d: usize| usize::from(split.me[d] > 0) + usize::from(split.sme[d] > 0);
    let bands: Vec<usize> = devices.iter().map(|&d| held(d)).collect();
    assert!(!bands.contains(&0), "{name}: {devices:?} hold no band");
    // Each band is one fault, detected, recovered and recomputed.
    let n_bands = bands.iter().sum::<usize>() as u64;
    let rows = devices.iter().map(|&d| split.me[d] + split.sme[d]);
    let want = (n_bands, n_bands, rows.sum::<usize>() as u64);
    let counts = (ft.detected, ft.recovered, ft.redispatched_rows);
    assert_eq!(counts, want, "{name}: one fault per band");
    // Each device is charged once, however many bands it lost, and sits out
    // the base backoff (plus up to half again under jitter) — except the
    // last live core, which is never dropped.
    let charged = devices.iter().map(|&d| out.health[d]);
    let spared = charged.clone().filter(|h| h.0 == 0).count();
    let last_core = usize::from(row.device == PanicCores);
    assert_eq!(spared, last_core, "{name}: {:?}", out.health);
    let jitter = usize::from(row.extra == Jitter) * BASE_BACKOFF / 2;
    let readmit = FAULT_AT + BASE_BACKOFF..=FAULT_AT + BASE_BACKOFF + jitter;
    for (faults, at) in charged.filter(|h| h.0 > 0) {
        let once = faults == 1 && readmit.contains(&at);
        assert!(once, "{name}: {:?}", out.health);
    }
}

#[test]
fn every_pair_of_plane_values_occurs() {
    let grid = DEVICES
        .iter()
        .flat_map(|&d| EXTRAS.map(|e| Row::new(NFF, d, [0; 3], e)));
    // A row as one value index per plane; a device no pair needs is none.
    let index = |r: Row| {
        let device = DEVICES
            .iter()
            .position(|&d| d == r.device)
            .unwrap_or(usize::MAX);
        let extra = EXTRAS.iter().position(|&e| e == r.extra).unwrap();
        let [kill, storage, pipeline] = r.planes.map(usize::from);
        [device, kill, storage, pipeline, extra]
    };
    let rows: Vec<_> = grid.chain(ROWS.iter().copied()).map(index).collect();
    let planes = ["device", "kill", "storage", "pipeline", "extra"];
    let sizes = [DEVICES.len(), 2, 2, 2, EXTRAS.len()];
    for (i, j) in (0..5).flat_map(|i| (i + 1..5).map(move |j| (i, j))) {
        for (a, b) in (0..sizes[i]).flat_map(|a| (0..sizes[j]).map(move |b| (a, b))) {
            let (pa, pb) = (planes[i], planes[j]);
            let found = rows.iter().any(|r| r[i] == a && r[j] == b);
            assert!(found, "no row holds {pa} value {a} with {pb} value {b}");
        }
    }
}

/// The storage plane reaches the job's files: under a plan that fails
/// every operation, every attempt fails as a typed I/O error until the
/// faults are lifted, and the clean pass converges to the fault-free
/// artifact. (Whether a seeded plan fires in a given row is up to the seed.)
#[test]
fn storage_plane_reaches_the_job() {
    let row = Row::new(NFF, NoFault, [0, 1, 0], Plain);
    let (transient_eio_per_mille, seed) = (1000, fault_seed());
    let always = FaultPlan {
        transient_eio_per_mille,
        seed,
        ..FaultPlan::default()
    };
    let out = run("storage_reaches_the_job", &row, Vec::new(), Some(always));
    let io = |e: &SessionError| matches!(e, SessionError::Io(_));
    assert_eq!(out.failures.iter().filter(|e| io(e)).count(), MAX_ATTEMPTS);
    assert!(out.artifact == twin(NFF, NoFault, Plain).artifact);
}
