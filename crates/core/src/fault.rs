//! Fault-tolerance plumbing for the parallel drivers.
//!
//! The paper is explicit that MR-MPI inherits MPI's fail-stop behaviour:
//! "the price for this extra flexibility and portability is a lack of
//! fault-tolerance inherent in the underlying MPI execution model" (§II.A).
//! This module is the configuration surface for the drivers
//! ([`crate::mrblast::run_mrblast`], [`crate::mrsom::run_mrsom`]), which
//! always run on the fault-tolerant scheduler in [`mrmpi::sched`]:
//!
//! * worker deaths (injected deterministically via [`mpisim::FaultPlan`], or
//!   real crashes in a native port) are detected and the dead worker's work
//!   units — in flight *and* already completed, since their output died with
//!   the rank — are re-dispatched to survivors;
//! * every run ends in cross-rank reconciliation, so the result is either
//!   provably complete (each unit contributed exactly once to the surviving
//!   output) or a typed [`mrmpi::MrError`] on **every** live rank — never a
//!   hang, never silent loss;
//! * the master is a **role, not a rank**: rank 0 coordinates initially,
//!   but when the acting master dies (or stalls past the workers' whole RPC
//!   retry budget) the survivors elect the lowest eligible rank as its
//!   successor, which replays the replicated scheduler log and gathers the
//!   workers' committed-unit claims before dispatching anything — so the
//!   run continues with exactly-once accounting and bit-for-bit output.
//!   The drivers' own collectives (SOM epoch reductions, BLAST checkpoint
//!   gathers) are root-agnostic to match: they either reduce symmetrically
//!   on every rank or coordinate through the lowest *live* rank
//!   ([`ft_root`]). The only rank-0 assumption left is at **startup**
//!   (initializing/loading state before the first work unit is dispatched).
//!
//! **Disk faults** are the other half of the fault story. Process deaths are
//! injected with [`mpisim::FaultPlan`]; storage misbehaviour — torn writes,
//! bit rot, transient and persistent EIO — is injected with
//! [`mrmpi::DiskFaultPlan`], threaded through
//! [`mrmpi::Settings::disk_faults`] into every durable write the engine and
//! the drivers perform: KV spill pages, SOM epoch checkpoints
//! ([`crate::mrsom::write_checkpoint`]) and the BLAST restart checkpoint
//! ([`crate::ckpt`]). The two planes compose: a run can lose a worker *and*
//! tear its next checkpoint write, and must still restart into bit-for-bit
//! output. See [`disk_faults`] for the wiring shortcut.

use std::sync::Arc;

use mrmpi::{DiskFaultPlan, FtConfig, Settings};

/// Fault-tolerance knobs threaded through the parallel BLAST / SOM drivers
/// (and into the shipped `mb-blast` / `mb-som` CLIs, which use the
/// defaults).
///
/// The default tolerates any number of worker deaths (recovery is driven by
/// death detection, not by a budgeted count) while bounding every blocking
/// wait, so a run always terminates.
#[derive(Debug, Clone, Default)]
pub struct FaultConfig {
    /// Scheduler timeouts and retry budgets (see [`FtConfig`]).
    pub ft: FtConfig,
}

impl FaultConfig {
    /// Defaults — equivalent to `FaultConfig::default()`, spelled out for
    /// call sites that configure nothing else.
    pub fn new() -> Self {
        Self::default()
    }

    /// Defaults with **speculative re-execution** enabled (the `--speculate`
    /// recipe): work units in flight on a worker that misses its heartbeat
    /// deadline are re-dispatched to idle workers; the first completion wins
    /// and every duplicate is discarded before it can touch the output, so
    /// results stay bit-for-bit identical to a fault-free run.
    pub fn speculative() -> Self {
        FaultConfig { ft: FtConfig { speculate: true, ..FtConfig::default() } }
    }

    /// This config with the scheduler's replicated log also appended to a
    /// durable CRC-framed file at `path` (see [`FtConfig::log_path`]); an
    /// elected successor replays the longer of this file and its in-memory
    /// standby mirror.
    pub fn with_scheduler_log(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.ft.log_path = Some(path.into());
        self
    }
}

/// The lowest **live** rank: the coordinator used by the fault-tolerant
/// drivers wherever a fixed root would re-introduce a single point of
/// failure (checkpoint gathers, one-writer log appends). In a fault-free
/// run this is rank 0.
pub fn ft_root(comm: &mpisim::Comm) -> usize {
    (0..comm.size()).find(|&r| comm.is_alive(r)).unwrap_or(0)
}

/// Engine settings with a seeded disk-fault plan attached: every durable
/// write the run performs (spill pages, checkpoints, output replacement)
/// consults `plan`. The returned settings share one fault plan — attempts
/// are counted globally across ranks, matching how a single flaky disk
/// serves the whole node.
pub fn disk_faults(base: Settings, plan: DiskFaultPlan) -> Settings {
    Settings { disk_faults: Some(Arc::new(plan)), ..base }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_faults_attaches_a_shared_plan() {
        let s = disk_faults(Settings::default(), DiskFaultPlan::new(3).eio_at(0));
        let plan = s.disk_faults.as_ref().expect("plan attached");
        assert_eq!(plan.writes_attempted(), 0);
        let s2 = s.clone();
        // Clones observe the same attempt counter (one disk, many users).
        assert!(Arc::ptr_eq(plan, s2.disk_faults.as_ref().unwrap()));
    }
}
