//! Process plumbing: resident-memory high-water marks, child processes
//! that are always reaped, and the per-run scratch directory.

use std::path::{Path, PathBuf};
use std::process::Child;

/// The resident-memory high-water mark (`VmHWM`) of process `pid`
/// (`"self"` for this one), in MiB; `None` once it has exited.
///
/// Read from `/proc` while the process lives, not from `getrusage`
/// after it is reaped: `std::process::Command` spawns with `vfork`
/// semantics, so a child's `ru_maxrss` also counts the parent's
/// resident set at the moment of the spawn. That folded the benchmark's
/// own reference data, which varies with the seed, into the figure.
pub fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A child process killed and reaped when dropped, so no error path
/// leaves a daemon running.
pub struct Reaped(pub Option<Child>);

impl Drop for Reaped {
    fn drop(&mut self) {
        if let Some(child) = &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The run's scratch directory, `.bench_work/<pid>` under the working
/// directory; removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates a fresh scratch directory.
    pub fn create() -> std::io::Result<WorkDir> {
        let dir = Path::new(".bench_work").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// A path inside the scratch directory (relative to the working
    /// directory, which keeps Unix socket paths short).
    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave `.bench_work` itself only when other runs still use it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}
