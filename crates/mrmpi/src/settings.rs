//! Tunables of the MapReduce engine, mirroring the original library's
//! `memsize`/`mapstyle`/`fpath` settings.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::durable::DiskFaultPlan;

/// Distinguishes concurrent runs in the same process; combined with the pid
/// it makes the default spill directory unique across processes too.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Engine settings for one [`crate::MapReduce`] object.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Size of one KV/KMV page in bytes. The original library defaults to
    /// 64 MB pages; tests use much smaller pages to exercise paging.
    pub page_size: usize,
    /// Per-rank in-memory budget in bytes across all pages of one dataset.
    /// When exceeded, closed pages spill to `tmpdir` ("out-of-core
    /// processing"). `usize::MAX` disables spilling.
    pub mem_budget: usize,
    /// Directory for spill files (the original's `fpath`). The default is a
    /// run-unique subdirectory of the system temp dir, created lazily on
    /// first spill and removed again when the last spool drops it empty —
    /// two runs never share spill namespace.
    pub tmpdir: PathBuf,
    /// Seeded disk-fault injector consulted on every physical write made
    /// through [`crate::durable`] (spill pages, checkpoints). `None` (the
    /// default) means a healthy disk. Clones share the plan's attempt
    /// counter, so one plan deterministically covers a whole run.
    pub disk_faults: Option<Arc<DiskFaultPlan>>,
    /// Tracing/metrics ring for the rank running this engine. `None` (the
    /// default) turns every obs hook into a branch on a `None` — zero
    /// counters are touched. [`crate::MapReduce::with_settings`] fills this
    /// from the communicator automatically when the world carries a
    /// collector (see `mpisim::World::with_obs`), so callers only set it to
    /// override that inheritance.
    pub obs: Option<obs::RankObs>,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            page_size: 4 * 1024 * 1024,
            mem_budget: usize::MAX,
            tmpdir: Settings::unique_spill_dir(),
            disk_faults: None,
            obs: None,
        }
    }
}

impl Settings {
    /// Settings with a small page size and memory budget, forcing the
    /// out-of-core paths; used by tests and the paging ablation bench.
    pub fn tiny_paged(tmpdir: impl Into<PathBuf>) -> Self {
        Settings {
            page_size: 256,
            mem_budget: 512,
            tmpdir: tmpdir.into(),
            disk_faults: None,
            obs: None,
        }
    }

    /// A fresh process-unique spill directory path under the system temp
    /// dir (`mrmpi-run-<pid>-<seq>`). The directory is not created here;
    /// spools create it on first spill and remove it on drop when empty.
    pub fn unique_spill_dir() -> PathBuf {
        let seq = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("mrmpi-run-{}-{seq}", std::process::id()))
    }

    /// This settings object with the given disk-fault plan installed.
    pub fn with_disk_faults(mut self, plan: Arc<DiskFaultPlan>) -> Self {
        self.disk_faults = Some(plan);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_never_spills() {
        let s = Settings::default();
        assert_eq!(s.mem_budget, usize::MAX);
        assert!(s.page_size > 0);
        assert!(s.disk_faults.is_none());
    }

    #[test]
    fn tiny_paged_is_tiny() {
        let s = Settings::tiny_paged("/tmp");
        assert!(s.mem_budget <= 1024);
        assert_eq!(s.tmpdir, PathBuf::from("/tmp"));
    }

    #[test]
    fn default_spill_dirs_are_unique_per_instance() {
        let a = Settings::default();
        let b = Settings::default();
        assert_ne!(a.tmpdir, b.tmpdir, "two runs must never share a spill dir");
        assert_ne!(a.tmpdir, std::env::temp_dir(), "never spill into the shared temp root");
        let name = a.tmpdir.file_name().unwrap().to_string_lossy().into_owned();
        assert!(name.starts_with("mrmpi-run-"), "{name}");
    }
}
