//! Fault-injectable I/O layer.
//!
//! Every durable path in the workspace (checkpoints, the spool/done
//! protocol, flight/metrics/live/report outputs, encoded artifacts) routes
//! its filesystem side effects through an [`IoBackend`]. In production the
//! backend is [`RealIo`] — a thin veneer over `std::fs` whose only addition
//! is a `statvfs`-based free-space probe. Under test, [`inject`] overlays a
//! seeded [`FaultyIo`] on a path prefix and the same code paths experience
//! ENOSPC, transient and permanent EIO, short writes, torn renames, and
//! post-`fsync` bit-rot — deterministically enough that the storage chaos
//! harness can replay a schedule from a single seed.
//!
//! The seam is process-global but *scoped*: [`inject`] returns a
//! [`FaultScope`] guard that removes the overlay on drop, and overlays match
//! by path prefix, so parallel tests in one binary each fault only their own
//! scratch directory.

use std::collections::HashSet;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Duration;

use crate::ckpt::{crc32_update, CRC32_INIT};
use crate::retry::RetryPolicy;

/// A writable file handle produced by an [`IoBackend`].
///
/// `sync` takes `&self` (like `File::sync_all`) so callers holding a shared
/// reference through a `BufWriter` stack can still force durability.
pub trait IoFile: Write + Send {
    /// Flush file contents to stable storage (fsync).
    fn sync(&self) -> io::Result<()>;
}

impl IoFile for File {
    fn sync(&self) -> io::Result<()> {
        self.sync_all()
    }
}

/// The injectable filesystem seam. All durable writes in the workspace go
/// through one of these; see the module docs.
pub trait IoBackend: Send + Sync {
    /// Create (truncating) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn IoFile>>;
    /// Open a file for streaming reads.
    fn open(&self, path: &Path) -> io::Result<Box<dyn Read + Send>>;
    /// Atomically rename `from` onto `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Best-effort fsync of a directory (durability of renames within it).
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Free bytes available on the filesystem holding `dir`
    /// (`u64::MAX` when the platform offers no probe).
    fn free_space(&self, dir: &Path) -> io::Result<u64>;

    /// Convenience: open + read a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut bytes = Vec::new();
        self.open(path)?.read_to_end(&mut bytes)?;
        Ok(bytes)
    }

    /// Convenience: create + write + fsync in one call.
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = self.create(path)?;
        f.write_all(bytes)?;
        f.sync()
    }
}

// ---------------------------------------------------------------------------
// Real backend
// ---------------------------------------------------------------------------

/// Production backend: plain `std::fs`, plus a `statvfs(3)` free-space probe
/// on Linux (mirroring the direct-FFI precedent of `serve`'s signal hook —
/// no external crates).
#[derive(Debug, Default)]
pub struct RealIo;

#[cfg(target_os = "linux")]
mod statvfs_ffi {
    /// glibc `struct statvfs` on 64-bit Linux: eleven unsigned-long fields
    /// then six spare ints.
    #[repr(C)]
    pub struct Statvfs {
        pub f_bsize: u64,
        pub f_frsize: u64,
        pub f_blocks: u64,
        pub f_bfree: u64,
        pub f_bavail: u64,
        pub f_files: u64,
        pub f_ffree: u64,
        pub f_favail: u64,
        pub f_fsid: u64,
        pub f_flag: u64,
        pub f_namemax: u64,
        pub f_spare: [i32; 6],
    }

    extern "C" {
        pub fn statvfs(path: *const u8, buf: *mut Statvfs) -> i32;
    }
}

#[cfg(target_os = "linux")]
fn platform_free_space(dir: &Path) -> io::Result<u64> {
    use std::os::unix::ffi::OsStrExt;
    let mut cpath = dir.as_os_str().as_bytes().to_vec();
    if cpath.contains(&0) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "path contains NUL",
        ));
    }
    cpath.push(0);
    let mut buf = std::mem::MaybeUninit::<statvfs_ffi::Statvfs>::uninit();
    // SAFETY: cpath is NUL-terminated and buf is sized for the glibc layout.
    let rc = unsafe { statvfs_ffi::statvfs(cpath.as_ptr(), buf.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    let st = unsafe { buf.assume_init() };
    Ok(st.f_bavail.saturating_mul(st.f_frsize))
}

#[cfg(not(target_os = "linux"))]
fn platform_free_space(_dir: &Path) -> io::Result<u64> {
    Ok(u64::MAX)
}

impl IoBackend for RealIo {
    fn create(&self, path: &Path) -> io::Result<Box<dyn IoFile>> {
        Ok(Box::new(File::create(path)?))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn Read + Send>> {
        Ok(Box::new(File::open(path)?))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        #[cfg(unix)]
        {
            File::open(dir)?.sync_all()
        }
        #[cfg(not(unix))]
        {
            let _ = dir;
            Ok(())
        }
    }

    fn free_space(&self, dir: &Path) -> io::Result<u64> {
        platform_free_space(dir)
    }
}

// ---------------------------------------------------------------------------
// Fault classification + retry
// ---------------------------------------------------------------------------

/// Coarse classes the retry/degradation machinery cares about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoErrorClass {
    /// Disk full — retrying is pointless; shed load / pause admission.
    Enospc,
    /// Transient (EIO, interrupted, timed out) — worth a bounded retry.
    Transient,
    /// Everything else (permissions, missing dirs, …) — fail fast.
    Other,
}

/// Classify an `io::Error` for retry/degradation decisions.
pub fn classify(e: &io::Error) -> IoErrorClass {
    if e.raw_os_error() == Some(28) || e.kind() == io::ErrorKind::StorageFull {
        return IoErrorClass::Enospc;
    }
    match e.kind() {
        io::ErrorKind::Interrupted | io::ErrorKind::TimedOut | io::ErrorKind::WriteZero => {
            IoErrorClass::Transient
        }
        // Injected / hardware EIO surfaces as raw os error 5.
        _ if e.raw_os_error() == Some(5) => IoErrorClass::Transient,
        _ => IoErrorClass::Other,
    }
}

/// Run `f`, retrying **transient** failures under `policy` (sleeping the
/// policy's jittered delay between attempts). ENOSPC and `Other` errors are
/// returned immediately. Returns the final result plus how many retries
/// were spent, so callers can account `io.retries`.
pub fn retry_io<T>(
    policy: &RetryPolicy,
    mut f: impl FnMut() -> io::Result<T>,
) -> (io::Result<T>, u32) {
    let mut attempt = 0u32;
    loop {
        match f() {
            Ok(v) => return (Ok(v), attempt),
            Err(e) => {
                if classify(&e) != IoErrorClass::Transient || !policy.allows(attempt) {
                    return (Err(e), attempt);
                }
                std::thread::sleep(policy.delay(attempt).min(Duration::from_millis(50)));
                attempt += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Path-prefix overlay router
// ---------------------------------------------------------------------------

static OVERLAYS: RwLock<Vec<(PathBuf, Arc<dyn IoBackend>)>> = RwLock::new(Vec::new());
static REAL: OnceLock<Arc<dyn IoBackend>> = OnceLock::new();

fn real_backend() -> Arc<dyn IoBackend> {
    REAL.get_or_init(|| Arc::new(RealIo)).clone()
}

/// Resolve the backend for `path`: the longest registered overlay prefix
/// wins, otherwise the shared [`RealIo`].
pub fn backend_for(path: &Path) -> Arc<dyn IoBackend> {
    let overlays = OVERLAYS.read().unwrap_or_else(|e| e.into_inner());
    overlays
        .iter()
        .filter(|(prefix, _)| path.starts_with(prefix))
        .max_by_key(|(prefix, _)| prefix.as_os_str().len())
        .map(|(_, b)| b.clone())
        .unwrap_or_else(|| {
            drop(overlays);
            real_backend()
        })
}

/// RAII guard deregistering an overlay installed by [`inject`].
#[must_use = "dropping the scope removes the fault overlay"]
pub struct FaultScope {
    prefix: PathBuf,
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        let mut overlays = OVERLAYS.write().unwrap_or_else(|e| e.into_inner());
        if let Some(i) = overlays.iter().position(|(p, _)| *p == self.prefix) {
            overlays.remove(i);
        }
    }
}

/// Overlay `backend` on every path under `prefix` until the returned scope
/// drops. Scoping by prefix keeps concurrently running tests (one process,
/// many scratch dirs) from faulting each other.
pub fn inject(prefix: impl Into<PathBuf>, backend: Arc<dyn IoBackend>) -> FaultScope {
    let prefix = prefix.into();
    OVERLAYS
        .write()
        .unwrap_or_else(|e| e.into_inner())
        .push((prefix.clone(), backend));
    FaultScope { prefix }
}

// ---------------------------------------------------------------------------
// Faulty backend
// ---------------------------------------------------------------------------

/// Per-mille fault rates for a [`FaultyIo`]. All draws come from a
/// SplitMix64 stream over `(seed, op-counter)`, so a given seed produces a
/// repeatable schedule for a serial caller and a statistically identical
/// mix for concurrent ones.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultPlan {
    pub seed: u64,
    /// Writes fail with ENOSPC.
    pub enospc_per_mille: u16,
    /// Operations fail once with EIO (retry succeeds).
    pub transient_eio_per_mille: u16,
    /// The touched path is poisoned: every later op on it fails with EIO.
    pub permanent_eio_per_mille: u16,
    /// A write persists only a prefix of the buffer, then errors.
    pub short_write_per_mille: u16,
    /// A rename leaves a torn half-copy at the destination and errors
    /// (source is left intact, as a crashed-then-recovered kernel would).
    pub torn_rename_per_mille: u16,
    /// After a successful fsync, one bit of the file is silently flipped.
    pub bitrot_per_mille: u16,
}

impl FaultPlan {
    /// A mixed transient schedule: some EIO, some short writes, some torn
    /// renames — the bread-and-butter chaos diet.
    pub fn transient(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_eio_per_mille: 120,
            short_write_per_mille: 60,
            torn_rename_per_mille: 60,
            ..FaultPlan::default()
        }
    }
}

/// Tallies of injected faults, for test assertions.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultCounts {
    pub enospc: u64,
    pub transient_eio: u64,
    pub permanent_eio: u64,
    pub short_writes: u64,
    pub torn_renames: u64,
    pub bitrot: u64,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct FaultyInner {
    plan: FaultPlan,
    op: AtomicU64,
    poisoned: Mutex<HashSet<PathBuf>>,
    forced_free: Mutex<Option<u64>>,
    counts: Mutex<FaultCounts>,
}

impl FaultyInner {
    /// One pseudo-random draw in `[0, 1000)` per call.
    fn roll(&self) -> u64 {
        let n = self.op.fetch_add(1, Ordering::Relaxed);
        splitmix64(self.plan.seed ^ n.wrapping_mul(0x2545_f491_4f6c_dd1d)) % 1000
    }

    fn hit(&self, per_mille: u16) -> bool {
        per_mille > 0 && self.roll() < u64::from(per_mille)
    }

    /// EIO as the kernel reports it: the raw os error is what [`classify`]
    /// reads as transient, and wrapping it in a message would drop it.
    fn eio() -> io::Error {
        io::Error::from_raw_os_error(5)
    }

    fn enospc(msg: &str) -> io::Error {
        let e = io::Error::from_raw_os_error(28);
        io::Error::new(e.kind(), format!("{msg}: {e}"))
    }

    /// Shared preamble for every op: poisoned-path check, then the
    /// permanent/transient/ENOSPC lottery.
    fn gate(&self, path: &Path, writes: bool) -> io::Result<()> {
        if self
            .poisoned
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .contains(path)
        {
            return Err(Self::eio());
        }
        if self.hit(self.plan.permanent_eio_per_mille) {
            self.poisoned
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(path.to_path_buf());
            self.counts
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .permanent_eio += 1;
            return Err(Self::eio());
        }
        if writes && self.hit(self.plan.enospc_per_mille) {
            self.counts.lock().unwrap_or_else(|e| e.into_inner()).enospc += 1;
            return Err(Self::enospc("injected disk-full"));
        }
        if self.hit(self.plan.transient_eio_per_mille) {
            self.counts
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .transient_eio += 1;
            return Err(Self::eio());
        }
        Ok(())
    }
}

/// Seeded fault-injecting backend. Wraps the real filesystem and corrupts
/// it on a pseudo-random schedule drawn from [`FaultPlan`].
pub struct FaultyIo {
    inner: Arc<FaultyInner>,
}

impl FaultyIo {
    pub fn new(plan: FaultPlan) -> Self {
        FaultyIo {
            inner: Arc::new(FaultyInner {
                plan,
                op: AtomicU64::new(0),
                poisoned: Mutex::new(HashSet::new()),
                forced_free: Mutex::new(None),
                counts: Mutex::new(FaultCounts::default()),
            }),
        }
    }

    /// Force `free_space` to report `bytes` (None restores the real probe).
    /// Drives the farm's disk-pressure state machine in tests.
    pub fn set_free_space(&self, bytes: Option<u64>) {
        *self
            .inner
            .forced_free
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = bytes;
    }

    /// Injected-fault tallies so far.
    pub fn counts(&self) -> FaultCounts {
        *self.inner.counts.lock().unwrap_or_else(|e| e.into_inner())
    }
}

struct FaultyFile {
    file: File,
    path: PathBuf,
    inner: Arc<FaultyInner>,
}

impl Write for FaultyFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.gate(&self.path, true)?;
        if !buf.is_empty() && self.inner.hit(self.inner.plan.short_write_per_mille) {
            // Persist a torn prefix, then error — the on-disk state a real
            // short write + crash would leave behind.
            let half = buf.len() / 2;
            self.file.write_all(&buf[..half])?;
            self.inner
                .counts
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .short_writes += 1;
            return Err(FaultyInner::eio());
        }
        self.file.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl IoFile for FaultyFile {
    fn sync(&self) -> io::Result<()> {
        self.inner.gate(&self.path, false)?;
        self.file.sync_all()?;
        if self.inner.hit(self.inner.plan.bitrot_per_mille) && rot_one_bit(&self.path).is_ok() {
            // Silent: the caller believes the fsync succeeded.
            self.inner
                .counts
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .bitrot += 1;
        }
        Ok(())
    }
}

/// Flip one bit of `path` in place (offset drawn from the file length).
fn rot_one_bit(path: &Path) -> io::Result<()> {
    let mut f = OpenOptions::new().read(true).write(true).open(path)?;
    let len = f.metadata()?.len();
    if len == 0 {
        return Ok(());
    }
    let off = splitmix64(len ^ 0x000b_1707) % len;
    let mut b = [0u8; 1];
    f.seek(SeekFrom::Start(off))?;
    f.read_exact(&mut b)?;
    b[0] ^= 0x10;
    f.seek(SeekFrom::Start(off))?;
    f.write_all(&b)?;
    f.sync_all()
}

impl IoBackend for FaultyIo {
    fn create(&self, path: &Path) -> io::Result<Box<dyn IoFile>> {
        self.inner.gate(path, true)?;
        Ok(Box::new(FaultyFile {
            file: File::create(path)?,
            path: path.to_path_buf(),
            inner: self.inner.clone(),
        }))
    }

    /// One roll of the fault gate per open — so per whole-file
    /// [`IoBackend::read`] too, however many chunks the reader then takes.
    fn open(&self, path: &Path) -> io::Result<Box<dyn Read + Send>> {
        self.inner.gate(path, false)?;
        Ok(Box::new(File::open(path)?))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.gate(to, true)?;
        if self.inner.hit(self.inner.plan.torn_rename_per_mille) {
            // Destination gets a torn half-copy; source survives so a retry
            // can re-run the whole write-then-rename sequence.
            if let Ok(bytes) = fs::read(from) {
                let _ = fs::write(to, &bytes[..bytes.len() / 2]);
            }
            self.inner
                .counts
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .torn_renames += 1;
            return Err(FaultyInner::eio());
        }
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.gate(path, false)?;
        fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.gate(dir, false)?;
        RealIo.sync_dir(dir)
    }

    fn free_space(&self, dir: &Path) -> io::Result<u64> {
        if let Some(forced) = *self
            .inner
            .forced_free
            .lock()
            .unwrap_or_else(|e| e.into_inner())
        {
            return Ok(forced);
        }
        RealIo.free_space(dir)
    }
}

// ---------------------------------------------------------------------------
// Streaming CRC: of a file on disk, and of a file being written
// ---------------------------------------------------------------------------

/// Running CRC-32 state ([`crc32_update`]) of the first `limit` bytes of
/// `path`, read through its routed backend in 64 KiB chunks, and how many
/// bytes that was — fewer than `limit` only when the file is shorter.
/// Every re-read of an artifact (the farm's verify-before-`completed`
/// gate, a resume's committed-prefix check) is this one fold, so none of
/// them holds the file.
pub fn crc_of_prefix(path: &Path, limit: u64) -> io::Result<(u64, u32)> {
    let mut file = backend_for(path).open(path)?.take(limit);
    let mut chunk = vec![0u8; 64 * 1024];
    let (mut bytes, mut state) = (0u64, CRC32_INIT);
    loop {
        match file.read(&mut chunk) {
            Ok(0) => return Ok((bytes, state)),
            Ok(n) => {
                state = crc32_update(state, &chunk[..n]);
                bytes += n as u64;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// A writable file that maintains a running CRC-32 of every byte *intended*
/// for it. The CRC is computed on the write path — before any backend fault
/// or post-fsync rot can touch the platters — so re-reading the artifact
/// and comparing checksums detects silent corruption instead of hashing it
/// in.
pub struct CrcFile {
    inner: Box<dyn IoFile>,
    state: u32,
    bytes: u64,
}

impl CrcFile {
    /// Create `path` (through its routed backend) with a fresh CRC.
    pub fn create(path: &Path) -> io::Result<Self> {
        let inner = backend_for(path).create(path)?;
        Ok(CrcFile {
            inner,
            state: CRC32_INIT,
            bytes: 0,
        })
    }

    /// Reopen `path` to continue it after its first `prefix_len` bytes,
    /// whose running CRC state is `prefix_crc_state`: whatever follows them
    /// (a torn write from the attempt that died) is cut off.
    pub fn reopen(path: &Path, prefix_crc_state: u32, prefix_len: u64) -> io::Result<Self> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(prefix_len)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Self::resume(file, prefix_crc_state, prefix_len))
    }

    /// Wrap an already-positioned file (resume): `prefix_crc`/`prefix_len`
    /// seed the running checksum with the artifact bytes already on disk.
    pub fn resume(file: File, prefix_crc_state: u32, prefix_len: u64) -> Self {
        CrcFile {
            inner: Box::new(file),
            state: prefix_crc_state,
            bytes: prefix_len,
        }
    }

    /// Finalized CRC-32 of all bytes written (plus any seeded prefix).
    pub fn crc(&self) -> u32 {
        !self.state
    }

    /// Bytes written (plus any seeded prefix length).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// fsync the underlying file.
    pub fn sync(&self) -> io::Result<()> {
        self.inner.sync()
    }
}

impl Write for CrcFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.state = crc32_update(self.state, &buf[..n]);
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ckpt::crc32;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("feves-ftio-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn real_backend_round_trips_and_reports_free_space() {
        let dir = scratch("real");
        let p = dir.join("a.bin");
        let b = backend_for(&p);
        b.write_file(&p, b"hello").unwrap();
        assert_eq!(b.read(&p).unwrap(), b"hello");
        let free = b.free_space(&dir).unwrap();
        assert!(free > 0, "free-space probe returned zero");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overlay_routes_by_longest_prefix_and_unregisters_on_drop() {
        let dir = scratch("route");
        let faulty = Arc::new(FaultyIo::new(FaultPlan {
            seed: 1,
            enospc_per_mille: 1000,
            ..FaultPlan::default()
        }));
        {
            let _scope = inject(&dir, faulty.clone());
            let err = backend_for(&dir.join("x"))
                .write_file(&dir.join("x"), b"boom")
                .unwrap_err();
            assert_eq!(classify(&err), IoErrorClass::Enospc);
            // Paths outside the prefix still hit the real disk.
            let other = scratch("route-other");
            backend_for(&other.join("y"))
                .write_file(&other.join("y"), b"fine")
                .unwrap();
            fs::remove_dir_all(&other).unwrap();
        }
        // Scope dropped: the prefix is healthy again.
        backend_for(&dir.join("x"))
            .write_file(&dir.join("x"), b"fine")
            .unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retry_io_retries_transient_but_not_enospc() {
        let policy = RetryPolicy::new(Duration::from_millis(1), 5, 7);
        let mut left = 2;
        let (res, retries) = retry_io(&policy, || {
            if left > 0 {
                left -= 1;
                Err(io::Error::from_raw_os_error(5))
            } else {
                Ok(42)
            }
        });
        assert_eq!(res.unwrap(), 42);
        assert_eq!(retries, 2);

        let (res, retries) = retry_io::<()>(&policy, || Err(io::Error::from_raw_os_error(28)));
        assert_eq!(classify(&res.unwrap_err()), IoErrorClass::Enospc);
        assert_eq!(retries, 0, "ENOSPC must not be retried");
    }

    #[test]
    fn faulty_backend_injects_each_class_deterministically() {
        let dir = scratch("classes");
        let faulty = FaultyIo::new(FaultPlan {
            seed: 3,
            enospc_per_mille: 200,
            transient_eio_per_mille: 200,
            short_write_per_mille: 200,
            torn_rename_per_mille: 200,
            bitrot_per_mille: 200,
            ..FaultPlan::default()
        });
        for i in 0..200 {
            let p = dir.join(format!("f{i}"));
            let t = dir.join(format!("f{i}.tmp"));
            let _ = faulty.write_file(&t, b"0123456789abcdef");
            let _ = faulty.rename(&t, &p);
        }
        let c = faulty.counts();
        assert!(c.enospc > 0, "no ENOSPC injected: {c:?}");
        assert!(c.transient_eio > 0, "no EIO injected: {c:?}");
        assert!(c.short_writes > 0, "no short writes injected: {c:?}");
        assert!(c.torn_renames > 0, "no torn renames injected: {c:?}");
        assert!(c.bitrot > 0, "no bit-rot injected: {c:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn permanent_fault_poisons_the_path_for_later_ops() {
        let dir = scratch("perm");
        let faulty = FaultyIo::new(FaultPlan {
            seed: 11,
            permanent_eio_per_mille: 300,
            ..FaultPlan::default()
        });
        let p = dir.join("victim");
        let mut poisoned = false;
        for _ in 0..64 {
            if faulty.write_file(&p, b"x").is_err() {
                poisoned = true;
                break;
            }
        }
        assert!(poisoned, "permanent fault never fired");
        for _ in 0..8 {
            assert!(faulty.write_file(&p, b"x").is_err(), "poison must persist");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_eio_is_transient_and_retry_io_rides_it_out() {
        let dir = scratch("eio-class");
        let faulty = FaultyIo::new(FaultPlan {
            seed: 2,
            transient_eio_per_mille: 1000,
            ..FaultPlan::default()
        });
        let err = faulty.write_file(&dir.join("x"), b"x").unwrap_err();
        assert_eq!(classify(&err), IoErrorClass::Transient, "{err}");
        // Fail twice, then succeed: two retries spent, and reported.
        let mut calls = 0;
        let policy = RetryPolicy::new(Duration::from_millis(1), 3, 7);
        let (result, retries) = retry_io(&policy, || {
            calls += 1;
            if calls <= 2 {
                faulty.write_file(&dir.join("x"), b"x")
            } else {
                Ok(())
            }
        });
        assert!(result.is_ok());
        assert_eq!((calls, retries), (3, 2));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn forced_free_space_overrides_the_probe() {
        let dir = scratch("free");
        let faulty = FaultyIo::new(FaultPlan::default());
        faulty.set_free_space(Some(123));
        assert_eq!(faulty.free_space(&dir).unwrap(), 123);
        faulty.set_free_space(None);
        assert!(faulty.free_space(&dir).unwrap() > 123);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streamed_crc_equals_the_crc_of_the_whole_read() {
        let dir = scratch("crc-stream");
        let p = dir.join("artifact");
        let b = backend_for(&p);
        // Around the 64 KiB chunk edge, and the two degenerate sizes.
        for size in [0usize, 1, 65_535, 65_536, 65_537, 200_000] {
            let payload: Vec<u8> = (0..size).map(|i| (i * 31 + i / 251) as u8).collect();
            b.write_file(&p, &payload).unwrap();
            let (bytes, state) = crc_of_prefix(&p, u64::MAX).unwrap();
            assert_eq!(bytes, size as u64);
            assert_eq!(!state, crc32(&b.read(&p).unwrap()), "size {size}");
            // A committed prefix shorter than the file: the tail is not
            // folded; a limit past the end reports the length it found.
            let prefix = size / 3;
            let (bytes, state) = crc_of_prefix(&p, prefix as u64).unwrap();
            assert_eq!(bytes, prefix as u64);
            assert_eq!(state, crc32_update(CRC32_INIT, &payload[..prefix]));
            assert_eq!(crc_of_prefix(&p, size as u64 + 9).unwrap().0, size as u64);
        }
        assert!(crc_of_prefix(&dir.join("missing"), 1).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_streamed_read_draws_the_fault_schedule_a_whole_read_does() {
        // The schedule is a function of (seed, op counter): a reader that
        // switched from `read` to chunked `open` must leave every later
        // draw where it was, or no storage-chaos seed replays.
        let dir = scratch("crc-faulty");
        let p = dir.join("artifact");
        fs::write(&p, vec![7u8; 300_000]).unwrap();
        let plan = FaultPlan {
            permanent_eio_per_mille: 5,
            ..FaultPlan::transient(9)
        };
        let (whole, streamed) = (FaultyIo::new(plan), FaultyIo::new(plan));
        let _scope = inject(
            &dir,
            Arc::new(FaultyIo {
                inner: streamed.inner.clone(),
            }),
        );
        for i in 0..300 {
            let a = whole.read(&p).map(|bytes| crc32(&bytes));
            let b = crc_of_prefix(&p, u64::MAX).map(|(_, state)| !state);
            assert_eq!(a.ok(), b.ok(), "call {i}");
        }
        let (a, b) = (whole.counts(), streamed.counts());
        assert!(a.transient_eio > 0, "{a:?}");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(
            whole.inner.op.load(Ordering::Relaxed),
            streamed.inner.op.load(Ordering::Relaxed)
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc_file_streams_the_checksum_of_intended_bytes() {
        let dir = scratch("crc");
        let p = dir.join("artifact");
        let payload = b"the quick brown fox jumps over the lazy dog";
        let mut f = CrcFile::create(&p).unwrap();
        f.write_all(&payload[..20]).unwrap();
        f.write_all(&payload[20..]).unwrap();
        f.sync().unwrap();
        assert_eq!(f.crc(), crc32(payload));
        assert_eq!(f.bytes(), payload.len() as u64);

        // Resume from a prefix reproduces the same final CRC.
        let state = crc32_update(CRC32_INIT, &payload[..20]);
        let file = OpenOptions::new().append(true).open(&p).unwrap();
        let mut r = CrcFile::resume(file, state, 20);
        r.write_all(&payload[20..]).unwrap();
        assert_eq!(r.crc(), crc32(payload));
        fs::remove_dir_all(&dir).unwrap();
    }
}
