//! Host facts and process memory, read from `/proc`.

use std::path::{Path, PathBuf};

/// Resets this process's peak resident set (Linux `clear_refs` mode 5),
/// so [`peak_rss_mb`] covers only what runs afterwards. Returns false
/// where the kernel refuses, in which case the peak covers the whole
/// process lifetime.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set (`VmHWM`) of `pid` (`None`: this process), in MiB.
/// Returns 0 when `/proc` is unavailable.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => PathBuf::from(format!("/proc/{p}/status")),
        None => PathBuf::from("/proc/self/status"),
    };
    let status = std::fs::read_to_string(path).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host name, CPU model and logical CPU count, for results records.
pub fn host_line() -> String {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname").unwrap_or_default();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name").map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_default();
    format!("host={} cpu=\"{}\" nproc={}", host.trim(), cpu, nproc())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A scratch directory for one run, removed when dropped.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `<root>/run-<pid>`, emptying a leftover of the same name.
    ///
    /// # Errors
    ///
    /// Propagates directory creation errors.
    pub fn create(root: &Path) -> std::io::Result<Self> {
        let path = root.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
