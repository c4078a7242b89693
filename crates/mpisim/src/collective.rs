//! The rendezvous primitive that backs every collective operation.
//!
//! All collectives in this runtime reduce to one pattern: every rank deposits
//! a byte contribution, the last arriver publishes the full set, and every
//! rank leaves with a shared (`Arc`) view of all contributions plus a clock
//! synchronized to the latest participant. Barrier, broadcast, reduce,
//! gather and alltoallv are thin wrappers in [`crate::comm`].
//!
//! Ranks must call collectives in the same order — the standard MPI contract.
//! The rendezvous is generation-based so it can be reused for an unbounded
//! sequence of collectives without reallocation of the synchronization state.

use parking_lot::{Condvar, Mutex};
use std::sync::Arc;

use crate::fault::FaultBoard;

/// Reduction operator for `f64` element-wise reductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

impl ReduceOp {
    /// Apply the operator to one element pair.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }

    /// Fold `src` into `acc` element-wise.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn fold_into(self, acc: &mut [f64], src: &[f64]) {
        assert_eq!(acc.len(), src.len(), "reduce buffers differ in length");
        for (a, s) in acc.iter_mut().zip(src) {
            *a = self.apply(*a, *s);
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Collect,
    Distribute,
}

struct State {
    phase: Phase,
    arrived: Vec<bool>,
    arrived_count: usize,
    /// Number of ranks that deposited into the published generation and must
    /// therefore leave before the rendezvous can be reused.
    expected_leavers: usize,
    left: usize,
    inputs: Vec<Vec<u8>>,
    clocks: Vec<f64>,
    output: Option<Arc<Vec<Vec<u8>>>>,
    max_clock: f64,
    down: bool,
}

/// A reusable all-gather rendezvous for a fixed set of `size` participants.
///
/// Death awareness: a collective completes once every rank has either
/// deposited its contribution or died (per the shared [`FaultBoard`]). Dead
/// ranks contribute an empty buffer and do not influence the synchronized
/// clock, so survivors keep making progress across an unbounded sequence of
/// collectives after any number of deaths.
pub struct Rendezvous {
    size: usize,
    board: Arc<FaultBoard>,
    state: Mutex<State>,
    cond: Condvar,
}

impl Rendezvous {
    /// Create a rendezvous for `size` ranks with no fault injection (a fresh
    /// all-alive board).
    pub fn new(size: usize) -> Self {
        Self::with_board(size, Arc::new(FaultBoard::new(size)))
    }

    /// Create a rendezvous sharing the world's liveness board.
    pub fn with_board(size: usize, board: Arc<FaultBoard>) -> Self {
        Rendezvous {
            size,
            board,
            state: Mutex::new(State {
                phase: Phase::Collect,
                arrived: vec![false; size],
                arrived_count: 0,
                expected_leavers: 0,
                left: 0,
                inputs: vec![Vec::new(); size],
                clocks: vec![0.0; size],
                output: None,
                max_clock: 0.0,
                down: false,
            }),
            cond: Condvar::new(),
        }
    }

    /// All live ranks have deposited (and at least one rank is waiting).
    fn collect_complete(&self, s: &State) -> bool {
        s.arrived_count > 0
            && (0..self.size).all(|r| s.arrived[r] || !self.board.is_alive(r))
    }

    /// Publish the current generation: dead non-arrived ranks contribute
    /// empty buffers; the synchronized clock is the max over arrivers.
    fn publish(&self, s: &mut State) {
        let inputs = std::mem::replace(&mut s.inputs, vec![Vec::new(); self.size]);
        s.max_clock = (0..self.size)
            .filter(|&r| s.arrived[r])
            .map(|r| s.clocks[r])
            .fold(f64::NEG_INFINITY, f64::max);
        s.expected_leavers = s.arrived_count;
        s.output = Some(Arc::new(inputs));
        s.phase = Phase::Distribute;
        self.cond.notify_all();
    }

    /// Re-evaluate completion after a rank died: if everyone still alive has
    /// already deposited, the waiters must be released now — the dead rank
    /// will never arrive.
    pub fn on_death(&self) {
        let mut g = self.state.lock();
        if g.phase == Phase::Collect && self.collect_complete(&g) {
            self.publish(&mut g);
        }
        drop(g);
        self.cond.notify_all();
    }

    /// Mark the rendezvous dead (world teardown after a rank panic) and
    /// wake every waiter: a collective can never complete once a
    /// participant is gone, so blocked ranks must be released to observe
    /// the failure.
    pub fn shutdown(&self) {
        self.state.lock().down = true;
        self.cond.notify_all();
    }

    /// Deposit `data` as rank `rank`'s contribution at local time `clock`;
    /// block until all ranks have arrived; return the full contribution set
    /// and the synchronized (maximum) clock.
    ///
    /// # Panics
    /// Panics if the world is torn down while waiting (another rank
    /// panicked mid-collective).
    pub fn exchange(&self, rank: usize, data: Vec<u8>, clock: f64) -> (Arc<Vec<Vec<u8>>>, f64) {
        let mut g = self.state.lock();
        // A fast rank may loop around into the next collective while slow
        // ranks are still leaving the previous one.
        while g.phase != Phase::Collect && !g.down {
            self.cond.wait(&mut g);
        }
        assert!(!g.down, "world shut down during a collective on rank {rank}");
        g.inputs[rank] = data;
        g.clocks[rank] = clock;
        g.arrived[rank] = true;
        g.arrived_count += 1;
        if self.collect_complete(&g) {
            self.publish(&mut g);
        } else {
            while g.phase != Phase::Distribute && !g.down {
                self.cond.wait(&mut g);
            }
            assert!(!g.down, "world shut down during a collective on rank {rank}");
        }
        let out = g.output.as_ref().expect("output published").clone();
        let t = g.max_clock;
        g.left += 1;
        if g.left == g.expected_leavers {
            g.arrived.iter_mut().for_each(|a| *a = false);
            g.arrived_count = 0;
            g.left = 0;
            g.output = None;
            g.phase = Phase::Collect;
            self.cond.notify_all();
        }
        (out, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn reduce_op_semantics() {
        assert_eq!(ReduceOp::Sum.apply(2.0, 3.0), 5.0);
        assert_eq!(ReduceOp::Max.apply(2.0, 3.0), 3.0);
        assert_eq!(ReduceOp::Min.apply(2.0, 3.0), 2.0);
        let mut acc = vec![1.0, 5.0];
        ReduceOp::Sum.fold_into(&mut acc, &[2.0, -1.0]);
        assert_eq!(acc, vec![3.0, 4.0]);
    }

    #[test]
    fn exchange_collects_all_and_syncs_clock() {
        let rv = Arc::new(Rendezvous::new(3));
        let handles: Vec<_> = (0..3)
            .map(|r| {
                let rv = rv.clone();
                thread::spawn(move || rv.exchange(r, vec![r as u8], r as f64 * 10.0))
            })
            .collect();
        for h in handles {
            let (out, t) = h.join().unwrap();
            assert_eq!(out.len(), 3);
            for r in 0..3 {
                assert_eq!(out[r], vec![r as u8]);
            }
            assert_eq!(t, 20.0);
        }
    }

    #[test]
    fn exchange_is_reusable_across_generations() {
        let rv = Arc::new(Rendezvous::new(2));
        let handles: Vec<_> = (0..2)
            .map(|r| {
                let rv = rv.clone();
                thread::spawn(move || {
                    let mut seen = Vec::new();
                    for round in 0..50u8 {
                        let (out, _) = rv.exchange(r, vec![round, r as u8], round as f64);
                        seen.push((out[0].clone(), out[1].clone()));
                    }
                    seen
                })
            })
            .collect();
        for h in handles {
            let seen = h.join().unwrap();
            for (round, (a, b)) in seen.into_iter().enumerate() {
                assert_eq!(a, vec![round as u8, 0]);
                assert_eq!(b, vec![round as u8, 1]);
            }
        }
    }

    #[test]
    fn single_rank_exchange_is_immediate() {
        let rv = Rendezvous::new(1);
        let (out, t) = rv.exchange(0, vec![42], 7.0);
        assert_eq!(out[0], vec![42]);
        assert_eq!(t, 7.0);
    }
}
