//! A session's memory is a function of the resolution and `n_ref`, not of
//! the sequence: the input is scanned and then read one frame at a time
//! into one buffer, the encoder reuses its frame-sized working set, and
//! the artifact is written straight from the reconstruction. Measured here
//! under a counting global allocator, through the same `Session::open` /
//! `run` every `feves encode`, `feves resume` and farm attempt goes
//! through.
//!
//! The allocator's counters are process-wide, so the tests of this file
//! take turns ([`serial`]).

mod common;

use common::{job_spec, scratch, write_input};
use feves::codec::SubpelFrame;
use feves::core::session::{self, Session, SessionError, SessionHooks};
use feves::core::{FrameReport, ResumeContext};
use feves::ft::io::{inject, IoBackend, IoFile, RealIo};
use feves::obs::{hub, LiveConfig, LiveSnapshot, LiveWriter};
use feves::serve::farm::{self, FarmConfig};
use feves::serve::job::{self, JobSpec};
use feves::video::geometry::RowRange;
use feves::video::plane::Plane;
use feves::Resolution;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// The system allocator, counting: bytes live now, the most that ever
/// were, and how many allocations reached [`WATCH`] bytes while it was set.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static WATCH: AtomicUsize = AtomicUsize::new(usize::MAX);
static WATCHED: AtomicUsize = AtomicUsize::new(0);

fn count_alloc(size: usize) {
    // Relaxed: statistics, read only once the session under measurement has
    // returned (its helper threads are joined by then).
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
    if size >= WATCH.load(Ordering::Relaxed) {
        WATCHED.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters touch no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        count_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn serial() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

const RES: Resolution = Resolution::QCIF;
/// One input frame on disk: 4:2:0 samples (the `FRAME` line not counted).
const FRAME_BYTES: usize = 176 * 144 * 3 / 2;

fn context(dir: &Path) -> ResumeContext {
    let at = |name: &str| dir.join(name).to_string_lossy().into_owned();
    ResumeContext {
        input: at("in.y4m"),
        output: at("out.y4m"),
        platform: "syshk".into(),
        platform_json: None,
        sa: 8,
        refs: 2,
        qp: 28,
        balancer: "feves".into(),
        kernels: None,
        faults: Vec::new(),
        deadline_factor: None,
        flight_out: None,
        metrics_out: None,
        every: 4,
        keep: 2,
        frames_done: 0,
        n_frames: 0,
        out_bytes: 0,
        input_fingerprint: 0,
        pipeline: false,
        out_crc: 0,
    }
}

/// Watches for frame-sized allocations on the frame path — reading the
/// frame, encoding it, writing its reconstruction — from frame `from` on.
/// Checkpoint commits, which snapshot the reference planes, fall between
/// `on_frame` and the next `before_frame` and are not watched.
struct WatchFramePath {
    from: usize,
}

impl SessionHooks for WatchFramePath {
    fn stop_requested(&self) -> bool {
        false
    }

    fn before_frame(&mut self, index: usize) {
        if index >= self.from {
            WATCH.store(RES.pixels(), Ordering::Relaxed);
        }
    }

    fn on_frame(&mut self, _report: FrameReport) {
        WATCH.store(usize::MAX, Ordering::Relaxed);
    }
}

/// Run one whole checkpointed session over an `n`-frame clip — with
/// `live`, watched by a session scope and a snapshot writer of that period,
/// as `feves encode --live-out` runs it; returns the peak of live heap
/// bytes above where it started, and the frame-sized allocations seen on
/// the frame path from frame `from` on.
fn measure(n: usize, from: usize, live: Option<Duration>) -> (usize, usize) {
    let dir = scratch(&format!("flat-{n}"));
    write_input(&dir.join("in.y4m"), 5, n);
    let ctx = context(&dir);
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    WATCHED.store(0, Ordering::Relaxed);
    let input = session::open_input(&ctx.input, 0).unwrap();
    assert_eq!(input.file.scan().n_frames, n);
    let mut session = Session::open(ctx, input, None, Some(dir.join("ckpt")), |_| {}).unwrap();
    let snapshot = dir.join("live.json");
    let writer = live.map(|period| {
        session.encoder_mut().set_scope(hub().session("streaming"));
        LiveWriter::start(LiveConfig {
            path: snapshot.clone(),
            period,
        })
    });
    let done = session.run(&mut WatchFramePath { from }).unwrap();
    assert_eq!((done.context.frames_done, done.interrupted), (n, false));
    drop(writer);
    drop(done);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    if live.is_some() {
        let text = std::fs::read_to_string(&snapshot).unwrap();
        let seq = LiveSnapshot::parse(&text).unwrap().seq();
        assert!(seq >= 3, "the writer ticked during the session: seq {seq}");
    }
    let _ = std::fs::remove_dir_all(&dir);
    (peak, WATCHED.load(Ordering::Relaxed))
}

#[test]
fn a_session_s_memory_does_not_grow_with_the_sequence() {
    let _turn = serial();
    // Once-per-process set-up (lookup tables, the telemetry hub) is
    // allocated by whichever session comes first and then stays. Watched
    // from frame 0 this run also shows the watch works: the first frames
    // do allocate their planes.
    assert!(
        measure(4, 0, None).1 > 0,
        "the watch saw no allocation at all"
    );
    let (short, short_big) = measure(8, 3, None);
    let (long, long_big) = measure(256, 3, None);
    // Holding the input — once, let alone twice as the whole-file reader
    // did — would put 248 frames (9.4 MB) between the two.
    assert!(
        long.abs_diff(short) < FRAME_BYTES,
        "peak live heap: {short} B over 8 frames, {long} B over 256"
    );
    // With `refs 2` the reference window is full from the third frame, so
    // from the fourth on every frame-sized buffer is a reused one.
    assert_eq!(
        (short_big, long_big),
        (0, 0),
        "allocations of a luma plane's size or more, from the fourth frame on"
    );
}

/// A reference's sub-pel frame is its four stored phases (G, b, h and j),
/// 4 × RF, not the paper's sixteen planes: a new SF holds those and a few
/// headers, and interpolating into it keeps nothing once it returns.
#[test]
fn a_reference_holds_four_subpel_planes() {
    let _turn = serial();
    let (w, h) = (1280, 720);
    let rf = Plane::from_fn(w, h, |x, y| ((x * 37) ^ (y * 11)) as u8);
    let before = LIVE.load(Ordering::Relaxed);
    let mut sf = SubpelFrame::new(w, h);
    let held = LIVE.load(Ordering::Relaxed) - before;
    assert!(
        (4 * w * h..=4 * w * h + 1024).contains(&held),
        "a {w}x{h} SF holds {held} B"
    );
    let before = LIVE.load(Ordering::Relaxed);
    sf.interpolate_rows(&rf, RowRange::new(0, h / 16));
    assert_eq!(
        LIVE.load(Ordering::Relaxed),
        before,
        "bytes interpolate_rows left live"
    );
    assert_eq!(sf.sample(4 * 5 + 2, 4 * 7), sf.phase(2, 0).get(5, 7));
}

/// Live telemetry is the session's own registry plus one writer thread:
/// no queue stands between them, so watching a session — several
/// snapshots written while it runs — adds well under half a megabyte to
/// its peak heap.
#[test]
fn live_telemetry_adds_no_queue_to_a_session_s_heap() {
    let _turn = serial();
    let tick = Some(Duration::from_millis(2));
    // Once-per-process set-up, the hub and the snapshot path included.
    measure(4, 0, tick);
    let (bare, _) = measure(8, 3, None);
    let (live, _) = measure(8, 3, tick);
    eprintln!("peak live heap over 8 frames: {bare} B bare, {live} B watched");
    assert!(
        live.saturating_sub(bare) < 512 * 1024,
        "peak live heap over 8 frames: {bare} B bare, {live} B watched"
    );
}

/// Appends one frame's worth of bytes to `input`.
fn append_a_frame(input: &str) {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(input)
        .unwrap();
    f.write_all(b"FRAME\n").unwrap();
    f.write_all(&vec![128u8; FRAME_BYTES]).unwrap();
}

#[test]
fn an_input_that_grows_under_the_encode_fails_the_session() {
    let _turn = serial();
    struct Grow {
        input: String,
        at: usize,
    }
    impl SessionHooks for Grow {
        fn stop_requested(&self) -> bool {
            false
        }
        fn before_frame(&mut self, index: usize) {
            if index == self.at {
                append_a_frame(&self.input);
            }
        }
    }
    // Caught at the next checkpoint commit, or — with none left before the
    // end — when the artifact would be declared complete.
    for at in [1, 5] {
        let dir = scratch(&format!("grow-{at}"));
        write_input(&dir.join("in.y4m"), 5, 6);
        let ctx = context(&dir);
        let input = session::open_input(&ctx.input, 0).unwrap();
        let session =
            Session::open(ctx.clone(), input, None, Some(dir.join("ckpt")), |_| {}).unwrap();
        let grow = &mut Grow {
            input: ctx.input.clone(),
            at,
        };
        match session.run(grow).map(|done| done.context.frames_done) {
            Err(SessionError::Io(m)) => {
                assert!(
                    m.ends_with("in.y4m: input changed during the encode"),
                    "{m}"
                )
            }
            other => panic!("frame appended before frame {at}: expected Io, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The real filesystem, except that creating a file first appends a frame
/// to `input`: overlaid on a job's output path it changes the input at a
/// known point of every attempt — after the opening scan, before frame 0.
struct GrowInputOnCreate {
    input: String,
}

impl IoBackend for GrowInputOnCreate {
    fn create(&self, path: &Path) -> std::io::Result<Box<dyn IoFile>> {
        append_a_frame(&self.input);
        RealIo.create(path)
    }
    fn open(&self, path: &Path) -> std::io::Result<Box<dyn Read + Send>> {
        RealIo.open(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        RealIo.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        RealIo.remove_file(path)
    }
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        RealIo.sync_dir(dir)
    }
    fn free_space(&self, dir: &Path) -> std::io::Result<u64> {
        RealIo.free_space(dir)
    }
}

#[test]
fn the_farm_never_completes_a_job_whose_input_changed_under_it() {
    let _turn = serial();
    feves::serve::signal::reset();
    let dir = scratch("grow-farm");
    write_input(&dir.join("in.y4m"), 5, 6);
    let spec = JobSpec {
        sa: 8,
        refs: 1,
        ..job_spec(&dir, "grown")
    };
    job::write_job(&dir.join("spool"), &spec).unwrap();
    let _scope = inject(
        PathBuf::from(&spec.output),
        Arc::new(GrowInputOnCreate {
            input: spec.input.clone(),
        }),
    );
    let report = farm::run(FarmConfig {
        spool: dir.join("spool"),
        exit_when_idle: true,
        poll_ms: 10,
        retry_base_ms: 5,
        retry_budget: 1,
        ..FarmConfig::default()
    })
    .unwrap();
    assert_eq!((report.completed, report.failed), (0, 1), "{report:?}");
    let done = job::done_dir(&dir.join("spool")).join("grown.json");
    let text = std::fs::read_to_string(done).unwrap();
    assert!(text.contains("\"failed\""), "{text}");
    assert!(text.contains("input changed during the encode"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}
