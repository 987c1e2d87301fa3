//! What the record says about where it was measured.

use std::path::{Path, PathBuf};

/// Peak resident set of this process (`VmHWM`) in MB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `nproc`, CPU model and kernel release as JSON object members.
pub fn fingerprint_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let mut out = format!("\"nproc\":{nproc},\"cpu\":");
    ssj_io::json::write_escaped(&mut out, &cpu);
    out.push_str(",\"kernel\":");
    ssj_io::json::write_escaped(&mut out, &kernel);
    out
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; `unknown` outside a repository.
pub fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_default(),
        None => head.to_string(),
    };
    if rev.len() >= 12 && rev.bytes().all(|b| b.is_ascii_hexdigit()) {
        rev[..12].to_string()
    } else {
        "unknown".to_string()
    }
}

/// Where the benchmark keeps its files: `bench/` under the cargo target
/// directory (`CARGO_TARGET_DIR`, else `target`), so everything it writes
/// stays inside the checkout and out of version control.
pub fn work_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("bench")
}

/// A private directory under the work directory, removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    /// Creates `<work_dir>/<label>-<pid>` afresh.
    pub fn create(work_dir: &Path, label: &str) -> Result<Self, String> {
        let dir = work_dir.join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
