//! # mpisim — an in-process MPI-like runtime
//!
//! This crate provides the message-passing substrate used by the rest of the
//! workspace. It deliberately mirrors the subset of MPI that the Sandia
//! MapReduce-MPI library (and therefore the paper's two applications) relies
//! on:
//!
//! * a fixed-size *world* of ranks, each executing the same program
//!   ([`World::run`]),
//! * blocking point-to-point [`Comm::send`] / [`Comm::recv`] with tag and
//!   source matching (including `ANY_SOURCE` / `ANY_TAG` wildcards); the
//!   receive, its wall-clock-bounded form [`Comm::recv_timeout`] and the poll
//!   [`Comm::try_recv`] report a dead source, an expired bound or a torn-down
//!   world as a typed [`MpiError`] instead of hanging,
//! * the collectives the paper's applications call out explicitly:
//!   [`Comm::barrier`], [`Comm::bcast`] (`MPI_Bcast` of the SOM codebook),
//!   [`Comm::reduce_f64`] / [`Comm::allreduce_f64`] (`MPI_Reduce` of the
//!   batch-SOM accumulators), [`Comm::gather`], [`Comm::alltoallv`] (the data
//!   exchange behind MR-MPI's `aggregate()`); a rank that died contributes
//!   nothing, and [`Comm::allreduce_f64_present`] reports who did,
//! * per-rank **virtual clocks** ([`clock`]) so that a program can be executed
//!   with simulated communication and computation costs and report the wall
//!   clock it *would* have had on a large cluster, while actually running on
//!   however many cores the host machine has.
//!
//! Ranks are OS threads inside one process; messages are moved through
//! in-memory mailboxes. There is no serialization boundary, but all payloads
//! are `Vec<u8>` to keep the programming model honest (the helpers in
//! [`wire`] convert typed slices to and from bytes).
//!
//! ## Virtual time
//!
//! Every rank owns a scalar clock (seconds, `f64`). Compute is charged
//! explicitly with [`Comm::charge`]; communication is charged through a
//! configurable α–β [`CostModel`]. Message timestamps propagate through
//! receives (`t_recv = max(t_local, t_msg_arrival)`), and collectives
//! synchronize all participating clocks to the maximum plus the modelled
//! collective cost. For bulk-synchronous programs (such as the paper's batch
//! SOM, where every epoch ends in a reduce + broadcast) this yields *exact*
//! simulated makespans regardless of the physical thread interleaving.
//!
//! ```
//! use mpisim::{World, ReduceOp};
//!
//! // Four ranks sum their ranks with an allreduce.
//! let results = World::new(4).run(|comm| {
//!     let mine = [comm.rank() as f64];
//!     let mut total = [0.0f64];
//!     comm.allreduce_f64(&mine, &mut total, ReduceOp::Sum);
//!     total[0] as usize
//! });
//! assert!(results.iter().all(|&s| s == 6));
//! ```

pub mod clock;
pub mod collective;
pub mod comm;
pub mod error;
pub mod fault;
pub mod mailbox;
pub mod wire;
pub mod world;

pub use clock::{Clock, CostModel};
pub use collective::ReduceOp;
pub use comm::{Comm, RecvMsg, Status, ANY_SOURCE, ANY_TAG};
pub use error::MpiError;
pub use fault::{FaultBoard, FaultPlan, RankDeath};
pub use world::{RankOutcome, World};

/// A rank index within a world. Mirrors MPI's `int` rank but kept as `usize`
/// for indexing convenience.
pub type Rank = usize;

/// A message tag. [`ANY_TAG`] matches every tag.
pub type Tag = u32;
