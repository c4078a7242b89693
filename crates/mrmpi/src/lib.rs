//! # mrmpi — a Rust port of the Sandia MapReduce-MPI library
//!
//! The paper parallelizes BLAST and batch SOM with the MapReduce-MPI (MR-MPI)
//! library of Plimpton & Devine: a MapReduce implemented as a plain MPI
//! program, with no daemons, no distributed file system, and the option to
//! drop down to direct MPI calls. This crate reproduces that object model on
//! top of [`mpisim`]:
//!
//! * a [`MapReduce`] object bound to a communicator, owning at most one
//!   distributed **KeyValue** (KV) or **KeyMultiValue** (KMV) dataset at a
//!   time;
//! * [`MapReduce::map_tasks`], the one map, with the three *mapstyles* of
//!   the original library — chunked, round-robin, and the **master/worker**
//!   mode the paper relies on for BLAST load balancing (rank 0 hands out
//!   task indices to workers on request). There is one master-worker
//!   scheduler, and it is fault-tolerant ([`sched`]): it survives worker
//!   and master deaths, stragglers and poison units, and a [`MapPlan`] with
//!   an affinity slice makes it the locality-aware master. Its decisions
//!   are one pure state machine, [`sched::core::Core`], which `perfmodel`'s
//!   simulator drives too;
//! * [`MapReduce::aggregate`] (hash-partitioned alltoallv key exchange over
//!   the live ranks, with a pair-conservation check),
//!   [`MapReduce::convert`] (local KV → KMV grouping),
//!   [`MapReduce::collate`] = aggregate + convert,
//!   [`MapReduce::reduce`], [`MapReduce::sort_keys`] and
//!   [`MapReduce::gather`] — the operations the paper's BLAST and SOM
//!   drivers use, and nothing more;
//! * **out-of-core paging**: KV/KMV data lives in fixed-size pages; when the
//!   per-rank memory budget is exceeded, closed pages spill to files in a
//!   temporary directory and are read back on iteration, exactly as the
//!   original library pages its working set ("out-of-core processing" in the
//!   paper's §III.A).
//!
//! Keys and values are arbitrary byte strings, as in MR-MPI.
//!
//! ```
//! use mpisim::World;
//! use mrmpi::{MapReduce, MapStyle};
//!
//! // Word-count flavoured example: 8 tasks emit (task % 3) as the key.
//! let counts = World::new(2).run(|comm| {
//!     let mut mr = MapReduce::new(comm);
//!     mr.map_tasks(8, MapStyle::Chunk, &mut |task, kv| {
//!         kv.emit(&[(task % 3) as u8], b"x");
//!     })
//!     .expect("fault-free map");
//!     mr.collate().expect("fault-free shuffle");
//!     let mut out = Vec::new();
//!     mr.reduce(&mut |key, values, _kv| {
//!         out.push((key[0], values.count()));
//!     });
//!     out
//! });
//! let mut all: Vec<_> = counts.concat();
//! all.sort();
//! assert_eq!(all, vec![(0, 3), (1, 3), (2, 2)]);
//! ```

pub mod durable;
pub mod extsort;
pub mod hashfn;
pub mod kmv;
pub mod kv;
pub mod mapreduce;
pub mod sched;
pub mod settings;
pub mod spool;

pub use durable::{DiskFaultPlan, DurableError};
pub use kmv::KeyMultiValue;
pub use kv::{KeyValue, KvEmitter, KvError};
pub use mapreduce::{FtMapReport, MapPlan, MapReduce, MrError, MultiValues};
pub use sched::{FtConfig, FtRun, Grants, MapStyle, SchedError};
pub use settings::Settings;
