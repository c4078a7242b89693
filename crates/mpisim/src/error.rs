//! Error type for runtime failures.
//!
//! The runtime panics on programming errors (rank out of bounds, mismatched
//! collective participation) because those are unrecoverable bugs, exactly as
//! a real MPI implementation would abort. Recoverable conditions a receive
//! can meet — a torn-down world, a dead source, an expired bound — are
//! reported as [`MpiError`].

use std::fmt;

use crate::Rank;

/// Errors surfaced by the receives ([`crate::Comm::recv`],
/// [`crate::Comm::recv_timeout`], [`crate::Comm::try_recv`]).
#[derive(Debug, Clone, PartialEq)]
pub enum MpiError {
    /// The world was shut down while this rank was waiting for a message.
    /// This can only happen if another rank panicked.
    WorldDown,
    /// A `try_recv` found no matching message.
    WouldBlock,
    /// A receive can never complete because the (specific) source rank died
    /// with no matching message left in the queue. Fault injection only; see
    /// [`crate::fault`].
    RankDead {
        /// The dead source rank, and its virtual death time.
        rank: Rank,
        /// Virtual time at which the rank died.
        at: f64,
    },
    /// A bounded receive ([`crate::Comm::recv_timeout`]) expired with no
    /// matching message.
    Timeout,
    /// A blocking receive was interrupted because some rank died while this
    /// rank was waiting (the death epoch changed). The caller should
    /// re-examine liveness and decide whether to keep waiting.
    Interrupted,
}

impl fmt::Display for MpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpiError::WorldDown => write!(f, "world shut down during a blocking operation"),
            MpiError::WouldBlock => write!(f, "no matching message available"),
            MpiError::RankDead { rank, at } => {
                write!(f, "rank {rank} died at virtual time {at}s; receive can never complete")
            }
            MpiError::Timeout => write!(f, "receive timed out with no matching message"),
            MpiError::Interrupted => {
                write!(f, "receive interrupted by a rank death; re-check liveness")
            }
        }
    }
}

impl std::error::Error for MpiError {}
