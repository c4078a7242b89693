//! # mrbio — the paper's contribution: MR-MPI BLAST and MR-MPI batch SOM
//!
//! This crate is the Rust equivalent of the two open-source applications the
//! paper describes (§III): parallel BLAST and parallel batch SOM built on
//! the MapReduce-MPI library, with a little direct MPI in the SOM's critical
//! path.
//!
//! ## MR-MPI BLAST ([`mrblast`], paper Fig. 1)
//!
//! * a work item is a *(query block, DB partition)* pair;
//! * rank 0 is a master distributing work items to workers for load balance
//!   (BLAST runtimes are "highly non-uniform and unpredictable"). The master
//!   is the fault-tolerant scheduler of `mrmpi::sched`, so worker and master
//!   deaths, stragglers and poison units are survived ([`fault`]);
//! * `map()` runs the unmodified serial engine ([`blast::BlastSearcher`]) on
//!   its work item with the DB length overridden to the whole database, and
//!   emits `(query id → encoded hit)` pairs;
//! * the DB partition object is cached between `map()` invocations on a
//!   rank and re-initialized only when a different partition is required;
//! * `collate()` groups every query's hits from all partitions on one rank;
//! * `reduce()` sorts by E-value, applies the top-K cutoff, and appends to
//!   the per-rank output file;
//! * an outer loop over query-block subsets bounds the in-memory key-value
//!   working set ("multiple iterations of the above MapReduce protocol").
//!
//! ## MR-MPI batch SOM ([`mrsom`], paper Fig. 2)
//!
//! * a work item is a block of input vectors, read from a dense on-disk
//!   matrix by offset ([`matrixio::VectorMatrix`] — the paper memory-maps
//!   the same layout);
//! * the codebook is broadcast from the master at the start of each epoch;
//! * each `map()` accumulates Eq. 5 numerator/denominator contributions into
//!   rank-local arrays;
//! * a direct MPI reduction (not a MapReduce `reduce()` — "No reduce()
//!   stage is used in this program") sums the accumulators; here it is an
//!   `allreduce`, so every rank computes the next codebook and no single
//!   rank's death loses an epoch.
//!
//! A pure-MapReduce variant of the SOM reduction lives in the
//! `ablation_som_reduce` bench, which quantifies why the paper mixes in
//! direct MPI calls.
//!
//! ## Future work, implemented
//!
//! The paper's conclusion names two scheduler improvements as work in
//! progress; both are built here: the **locality-aware master**
//! (`MrBlastConfig::locality_aware`, scheduling in `mrmpi::sched`) and
//! **dynamic query-block sizing**. The scheduler's grants size the work
//! after the start of the run: a worker holding a DB partition takes up to
//! `clamp(pending ÷ (2 × live workers), 1, limit)` of that partition's
//! small query blocks in one grant, where `limit` is a memory budget for
//! their prepared queries ([`mrblast::grant_limit`]). Grants are large
//! while the pool is full and single blocks in the tail, so a small block
//! size needs no tuning.
//!
//! ## Baselines
//!
//! [`htc`] implements the matrix-split HTC workflow (the paper's JCVI/VICS
//! comparison): statically partitioned serial jobs plus a merge step, on the
//! same engine, for makespan comparison.

//! ```
//! use bioseq::db::{format_db, FormatDbConfig};
//! use bioseq::gen::{dna_workload, WorkloadConfig};
//! use bioseq::shred::query_blocks;
//! use mpisim::World;
//! use mrbio::{run_mrblast, MrBlastConfig};
//! use std::sync::Arc;
//!
//! let w = dna_workload(3, &WorkloadConfig { db_seqs: 6, queries: 10, ..Default::default() });
//! let dir = std::env::temp_dir().join("mrbio-doc");
//! let db = Arc::new(format_db(&w.db, &FormatDbConfig::dna(4096), &dir, "d").unwrap());
//! let blocks = Arc::new(query_blocks(w.queries, 5));
//! let reports = World::new(3).run(move |comm| {
//!     run_mrblast(comm, &db, &blocks, &MrBlastConfig::blastn())
//! });
//! assert!(reports.iter().all(Result::is_ok));
//! ```

pub mod ckpt;
pub mod cliargs;
pub mod fault;
pub mod htc;
pub mod matrixio;
pub mod mrblast;
pub mod mrsom;
pub mod util;

pub use ckpt::{BlastCheckpoint, RestartPoint, RunFingerprint};
pub use matrixio::VectorMatrix;
pub use mrblast::{run_mrblast, MrBlastConfig, MrBlastRankReport};
pub use mrsom::{
    checkpoint_path, load_latest_checkpoint, run_mrsom, write_checkpoint, MrSomConfig,
    MrSomRankReport,
};
pub use util::BusyTracker;
