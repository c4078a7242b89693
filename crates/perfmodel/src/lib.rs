//! # perfmodel — cluster model and schedule simulator for the paper's
//! scaling figures
//!
//! The paper's performance results (Figs. 3–6 and the in-text protein
//! scaling numbers) were measured on TACC Ranger at 32–1024 cores. The
//! phenomena they exhibit are *scheduling and caching* phenomena:
//!
//! * wall clock vs core count for different work-unit granularities
//!   (Fig. 3) — governed by load balance and tail effects;
//! * core-minutes per query for 40 vs 80 query blocks (Fig. 4) — granularity
//!   vs partition-reload amortization;
//! * "useful CPU utilization" over time at 1024 cores (Fig. 5) — the
//!   end-of-run taper as work units run out;
//! * superlinear efficiency at medium core counts — "all 109 1GB DB
//!   partitions begin to fit entirely into the combined RAM of the MPI
//!   process ranks";
//! * the batch SOM's near-perfect BSP scaling (Fig. 6).
//!
//! This crate models exactly those mechanisms: a [`cluster`] description
//! (nodes, cores, RAM, interconnect, filesystem), a deterministic
//! discrete-event simulator of the master-worker schedule — one event loop
//! whose [`Conditions`] compose partition affinity, worker deaths, stalls
//! with speculation and master failover — and of static schedules
//! ([`des`]), per-node partition RAM caching, a skewed work-unit cost
//! model ([`blastsim`]) whose constants are calibrated against real runs of
//! our engine ([`calibrate`]), and a BSP model of the batch SOM epoch
//! ([`somsim`]).
//!
//! Absolute times are *not* expected to match the 2011 hardware; the curves'
//! shape — who wins, where the crossovers and the superlinear bump fall —
//! is the reproduction target (see EXPERIMENTS.md).

//! ```
//! use perfmodel::{BlastScenario, ClusterModel};
//!
//! // The paper's Fig. 3, one point: 80K queries at 128 cores.
//! let scenario = BlastScenario::paper_nucleotide(80_000, 1000);
//! let run = scenario.simulate(&ClusterModel::ranger(), 128);
//! assert!(run.makespan_s > 0.0);
//! assert_eq!(scenario.n_tasks(), 8720); // the paper's work-unit count
//! ```

pub mod blastsim;
pub mod calibrate;
pub mod cluster;
pub mod des;
pub mod somsim;

pub use blastsim::{BlastScenario, WorkUnitCosts};
pub use cluster::ClusterModel;
pub use des::{
    simulate_master_worker, simulate_master_worker_abort_restart, simulate_static, Conditions,
    Failure, MasterDeath, Schedule, SimResult, Stall,
};
pub use somsim::SomScenario;
