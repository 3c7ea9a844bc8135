//! Crash-safe artifact persistence.
//!
//! Every file the framework emits for a human or a downstream tool — flight
//! JSONL, metrics JSON, bench results, HTML reports, spool/done control
//! files — goes through [`write_atomic`]: write the full payload to a temp
//! file *in the same directory*, fsync it, then `rename` over the
//! destination. POSIX rename is atomic within a filesystem, so a reader (or
//! a crash at any instant) sees either the complete old file or the
//! complete new file — never a torn one.
//!
//! The temp file lives next to the destination (not in `/tmp`) because
//! `rename(2)` cannot cross filesystems; the name embeds the destination
//! file name plus the process id so concurrent writers to *different* files
//! in one directory never collide.
//!
//! All filesystem side effects route through the [`feves_ft::io`] backend
//! seam, so storage chaos tests can inject ENOSPC / EIO / torn renames here
//! without touching this code. Transient faults are retried under a small
//! bounded [`RetryPolicy`]; retries and disk-full events are accounted on
//! the recorder the caller hands to [`write_atomic_recorded`] (`io.retries`,
//! `io.enospc_events`) — the farm passes its `farm` registry.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use feves_ft::io::{backend_for, classify, retry_io, IoErrorClass};
use feves_ft::RetryPolicy;

use crate::recorder::{NoopRecorder, Recorder};
use crate::Metric;

/// Temp-file path for an atomic write to `dest`: same directory,
/// `.<name>.<pid>.tmp`.
fn temp_path_for(dest: &Path) -> PathBuf {
    let dir = dest.parent().unwrap_or_else(|| Path::new("."));
    let name = dest
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".to_string());
    dir.join(format!(".{name}.{}.tmp", std::process::id()))
}

/// Retry policy for transient I/O faults on durable control/artifact
/// writes: three quick attempts, seeded off the destination name so delays
/// decorrelate across concurrent writers.
fn io_policy(dest: &Path) -> RetryPolicy {
    let seed = feves_ft::ckpt::fnv1a64(dest.as_os_str().as_encoded_bytes());
    RetryPolicy::new(Duration::from_millis(2), 3, seed)
}

/// Durably replace `dest` with `bytes`: temp file in the same directory →
/// write → fsync → atomic rename → directory fsync (best-effort on
/// non-unix). On any error the temp file is removed and `dest` is left
/// exactly as it was. Transient EIO is retried (the whole
/// write-then-rename sequence re-runs, so a torn temp or torn rename
/// destination is simply overwritten); ENOSPC is surfaced immediately.
pub fn write_atomic(dest: impl AsRef<Path>, bytes: impl AsRef<[u8]>) -> io::Result<()> {
    write_atomic_recorded(dest, bytes, &NoopRecorder)
}

/// [`write_atomic`], booking what the write cost on `rec`: `io.retries` per
/// transient fault retried, `io.enospc_events` when the disk was full.
pub fn write_atomic_recorded(
    dest: impl AsRef<Path>,
    bytes: impl AsRef<[u8]>,
    rec: &dyn Recorder,
) -> io::Result<()> {
    let dest = dest.as_ref();
    let bytes = bytes.as_ref();
    let backend = backend_for(dest);
    let tmp = temp_path_for(dest);
    let (result, retries) = retry_io(&io_policy(dest), || {
        backend.write_file(&tmp, bytes)?;
        backend.rename(&tmp, dest)
    });
    if retries > 0 {
        rec.add(Metric::IoRetries, u64::from(retries));
    }
    match result {
        Ok(()) => {
            sync_parent_dir(dest);
            Ok(())
        }
        Err(e) => {
            if classify(&e) == IoErrorClass::Enospc {
                rec.add(Metric::IoEnospcEvents, 1);
            }
            let _ = backend.remove_file(&tmp);
            Err(e)
        }
    }
}

/// Remove orphaned `write_atomic` temp files (`.<name>.<pid>.tmp`) left in
/// `dir` by a crash mid-write. Returns how many were swept. Any process id
/// is matched — the orphan may belong to a previous daemon incarnation.
pub fn sweep_orphans(dir: impl AsRef<Path>) -> io::Result<usize> {
    let dir = dir.as_ref();
    let mut swept = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with('.') && name.ends_with(".tmp") && entry.path().is_file() {
            backend_for(&entry.path()).remove_file(&entry.path())?;
            swept += 1;
        }
    }
    Ok(swept)
}

/// fsync the directory containing `path` so the rename itself is durable.
/// Directory fds are not writable on all platforms; failures are ignored —
/// the data file is already synced, only the rename's durability window
/// widens.
pub(crate) fn sync_parent_dir(path: &Path) {
    if let Some(dir) = path.parent() {
        let dir = if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        };
        let _ = backend_for(dir).sync_dir(dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::MemoryRecorder;
    use feves_ft::io::{inject, FaultPlan, FaultyIo};
    use std::fs;
    use std::sync::Arc;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("feves-persist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_new_file_and_replaces_existing() {
        let dir = scratch_dir("basic");
        let dest = dir.join("out.json");
        write_atomic(&dest, b"first").unwrap();
        assert_eq!(fs::read(&dest).unwrap(), b"first");
        write_atomic(&dest, b"second, longer payload").unwrap();
        assert_eq!(fs::read(&dest).unwrap(), b"second, longer payload");
        // No temp droppings left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_write_leaves_destination_untouched() {
        let dir = scratch_dir("fail");
        let dest = dir.join("missing-subdir").join("out.json");
        // Parent of dest does not exist → File::create fails; nothing
        // should appear anywhere.
        assert!(write_atomic(&dest, b"x").is_err());
        assert!(!dest.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn temp_name_is_sibling_and_hidden() {
        let t = temp_path_for(Path::new("/a/b/report.html"));
        assert_eq!(t.parent().unwrap(), Path::new("/a/b"));
        let name = t.file_name().unwrap().to_string_lossy().into_owned();
        assert!(name.starts_with(".report.html."), "{name}");
        assert!(name.ends_with(".tmp"), "{name}");
    }

    #[test]
    fn transient_faults_are_retried_to_success() {
        let dir = scratch_dir("retry");
        let dest = dir.join("out.json");
        let faulty = Arc::new(FaultyIo::new(FaultPlan {
            seed: 5,
            transient_eio_per_mille: 250,
            torn_rename_per_mille: 150,
            ..FaultPlan::default()
        }));
        let _scope = inject(&dir, faulty.clone());
        let rec = MemoryRecorder::new();
        let mut failures = 0;
        for i in 0..40 {
            let payload = format!("payload {i}");
            match write_atomic_recorded(&dest, payload.as_bytes(), &rec) {
                // A successful return always means the complete payload
                // landed — retries must re-run the whole sequence.
                Ok(()) => assert_eq!(fs::read(&dest).unwrap(), payload.as_bytes()),
                // Budget exhaustion under an unlucky streak is allowed and
                // may leave a torn destination (an injected torn rename is
                // a simulated kernel crash); callers detect that via the
                // CRC framing layered on top.
                Err(_) => failures += 1,
            }
        }
        let c = faulty.counts();
        assert!(c.transient_eio + c.torn_renames > 0, "no faults fired");
        assert!(failures < 40, "every write failed — retries not working");
        // Every fault drawn was either retried (and booked) or ended a
        // write: the directory fsync's are ignored, budget exhaustion is
        // one failure per write.
        let retries = rec.counter(Metric::IoRetries);
        assert!(retries > 0, "faults fired but none was retried");
        assert!(retries <= c.transient_eio + c.torn_renames);
        drop(_scope);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_is_not_retried_and_surfaces_typed() {
        let dir = scratch_dir("enospc");
        let dest = dir.join("out.json");
        let faulty = Arc::new(FaultyIo::new(FaultPlan {
            seed: 9,
            enospc_per_mille: 1000,
            ..FaultPlan::default()
        }));
        let _scope = inject(&dir, faulty);
        let rec = MemoryRecorder::new();
        let err = write_atomic_recorded(&dest, b"x", &rec).unwrap_err();
        assert_eq!(classify(&err), IoErrorClass::Enospc);
        assert_eq!(rec.counter(Metric::IoEnospcEvents), 1);
        assert_eq!(rec.counter(Metric::IoRetries), 0);
        assert!(!dest.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_orphans_removes_only_temp_droppings() {
        let dir = scratch_dir("sweep");
        fs::write(dir.join(".out.json.12345.tmp"), b"torn").unwrap();
        fs::write(dir.join(".other.99.tmp"), b"torn").unwrap();
        fs::write(dir.join("keep.json"), b"real").unwrap();
        let swept = sweep_orphans(&dir).unwrap();
        assert_eq!(swept, 2);
        assert!(dir.join("keep.json").exists());
        assert!(!dir.join(".out.json.12345.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
