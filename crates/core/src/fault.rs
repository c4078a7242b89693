//! Fault tolerance of the parallel drivers.
//!
//! The paper is explicit that MR-MPI inherits MPI's fail-stop behaviour:
//! "the price for this extra flexibility and portability is a lack of
//! fault-tolerance inherent in the underlying MPI execution model" (§II.A).
//! The drivers ([`crate::mrblast::run_mrblast`], [`crate::mrsom::run_mrsom`])
//! always run on the fault-tolerant scheduler in [`mrmpi::sched`], and every
//! fault setting of a run lives in the driver's own config: the scheduler's
//! timeouts, budgets and speculation in its `ft` ([`mrmpi::FtConfig`]), the
//! disk-fault plan in its `mr_settings` ([`mrmpi::Settings`]). The defaults tolerate any number of
//! worker deaths while bounding every blocking wait, so a run always
//! terminates.
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
//!   successor, which gathers the workers' committed-unit claims before
//!   dispatching anything — so the run continues with exactly-once
//!   accounting and bit-for-bit output.
//!   The drivers' own collectives (SOM epoch reductions, BLAST checkpoint
//!   gathers) are root-agnostic to match: they either reduce symmetrically
//!   on every rank or coordinate through the lowest *live* rank
//!   ([`ft_root`]). The only rank-0 assumption left is at **startup**
//!   (initializing/loading state before the first work unit is dispatched).
//!
//! **Disk faults** are the other half of the fault story. Process deaths are
//! injected with [`mpisim::FaultPlan`]; storage misbehaviour — torn writes,
//! bit rot, transient and persistent EIO — is injected with
//! [`mrmpi::DiskFaultPlan`], attached with [`mrmpi::Settings::with_disk_faults`]
//! and threaded into every durable write the engine and the drivers perform:
//! KV spill pages, SOM epoch checkpoints ([`crate::mrsom::write_checkpoint`])
//! and the BLAST restart checkpoint ([`crate::ckpt`]). The two planes
//! compose: a run can lose a worker *and* tear its next checkpoint write,
//! and must still restart into bit-for-bit output.

/// The lowest **live** rank: the coordinator used by the fault-tolerant
/// drivers wherever a fixed root would re-introduce a single point of
/// failure (checkpoint gathers, one-writer log appends). In a fault-free
/// run this is rank 0.
pub fn ft_root(comm: &mpisim::Comm) -> usize {
    (0..comm.size()).find(|&r| comm.is_alive(r)).unwrap_or(0)
}
