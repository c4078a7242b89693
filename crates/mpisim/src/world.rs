//! World construction: spawn ranks, run the program, collect results.

use std::sync::Arc;

use crate::clock::CostModel;
use crate::collective::Rendezvous;
use crate::comm::{Comm, Shared};
use crate::fault::{FaultBoard, FaultPlan, RankDeath};
use crate::mailbox::Mailbox;

/// Stack size for rank threads. BLAST's banded DP and the MR-MPI page
/// machinery are iterative, but FASTA parsing and sort recursions benefit
/// from headroom.
const RANK_STACK_BYTES: usize = 8 * 1024 * 1024;

/// Per-rank result of a fault-injected run ([`World::run_faulty`]).
#[derive(Debug, Clone, PartialEq)]
pub enum RankOutcome<T> {
    /// The rank ran the program to completion.
    Done(T),
    /// The rank was killed by the fault plan at virtual time `at`.
    Died {
        /// Virtual time of death.
        at: f64,
    },
}

impl<T> RankOutcome<T> {
    /// The completed value, if the rank survived.
    pub fn done(self) -> Option<T> {
        match self {
            RankOutcome::Done(v) => Some(v),
            RankOutcome::Died { .. } => None,
        }
    }

    /// The completed value by reference, if the rank survived.
    pub fn as_done(&self) -> Option<&T> {
        match self {
            RankOutcome::Done(v) => Some(v),
            RankOutcome::Died { .. } => None,
        }
    }

    /// Did the fault plan kill this rank?
    pub fn is_died(&self) -> bool {
        matches!(self, RankOutcome::Died { .. })
    }
}

/// A fixed-size set of ranks ready to execute an SPMD program.
///
/// ```
/// let sizes = mpisim::World::new(3).run(|comm| comm.size());
/// assert_eq!(sizes, vec![3, 3, 3]);
/// ```
pub struct World {
    size: usize,
    cost: CostModel,
    faults: Option<Arc<FaultPlan>>,
    obs: Option<obs::Collector>,
}

impl World {
    /// A world of `size` ranks with free (zero-cost) communication.
    ///
    /// # Panics
    /// Panics if `size` is zero.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "a world needs at least one rank");
        World { size, cost: CostModel::FREE, faults: None, obs: None }
    }

    /// Attach a tracing/metrics collector: every rank's communicator gets a
    /// per-rank [`obs::RankObs`] ring (restarted incarnations keep their
    /// predecessor's ring, so a rank's trace spans its whole lifetime).
    /// Snapshot the collector with [`obs::Collector::trace`] after the run.
    pub fn with_obs(mut self, collector: obs::Collector) -> Self {
        self.obs = Some(collector);
        self
    }

    /// Set the communication cost model used for virtual-clock accounting.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Attach a deterministic fault plan (see [`crate::fault`]). Run the
    /// world with [`World::run_faulty`] to observe per-rank outcomes;
    /// [`World::run`] panics if the plan actually kills a rank.
    ///
    /// # Panics
    /// Panics if the plan kills a rank outside this world.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        for rank in plan.doomed_ranks() {
            assert!(
                rank < self.size,
                "fault plan kills rank {rank} outside world of {}",
                self.size
            );
        }
        for rank in plan.stalled_ranks() {
            assert!(
                rank < self.size,
                "fault plan stalls rank {rank} outside world of {}",
                self.size
            );
        }
        for rank in plan.slowed_ranks() {
            assert!(
                rank < self.size,
                "fault plan slows rank {rank} outside world of {}",
                self.size
            );
        }
        for rank in plan.restarted_ranks() {
            assert!(
                rank < self.size,
                "fault plan restarts rank {rank} outside world of {}",
                self.size
            );
        }
        self.faults = Some(Arc::new(plan));
        self
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Run `f` on every rank concurrently and return the per-rank results in
    /// rank order.
    ///
    /// If any rank panics, the world is torn down (blocked receivers observe
    /// `WorldDown` and panic in turn) and the first panic is propagated to
    /// the caller.
    ///
    /// # Panics
    /// Also panics if an attached fault plan killed a rank — a plain `run`
    /// caller has no way to receive partial results; use
    /// [`World::run_faulty`] instead.
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(&Comm) -> T + Send + Sync + 'static,
    {
        self.run_faulty(f)
            .into_iter()
            .enumerate()
            .map(|(rank, outcome)| match outcome {
                RankOutcome::Done(v) => v,
                RankOutcome::Died { at } => {
                    panic!("rank {rank} died at {at}s; use World::run_faulty for fault plans")
                }
            })
            .collect()
    }

    /// Run `f` on every rank and report a per-rank [`RankOutcome`]:
    /// completed value or injected death.
    ///
    /// An injected death does **not** tear the world down — survivors keep
    /// running (collectives complete without the dead rank, fallible
    /// receives report `RankDead`). A genuine (non-injected) panic still
    /// tears everything down and is propagated.
    pub fn run_faulty<T, F>(&self, f: F) -> Vec<RankOutcome<T>>
    where
        T: Send + 'static,
        F: Fn(&Comm) -> T + Send + Sync + 'static,
    {
        silence_rank_death_panics();
        let board = Arc::new(FaultBoard::new(self.size));
        let shared = Arc::new(Shared {
            mailboxes: (0..self.size).map(|_| Mailbox::new()).collect(),
            rendezvous: Rendezvous::with_board(self.size, board.clone()),
            cost: self.cost,
            board,
        });
        let f = Arc::new(f);

        let handles: Vec<_> = (0..self.size)
            .map(|rank| {
                let shared = shared.clone();
                let f = f.clone();
                let size = self.size;
                let plan = self.faults.clone();
                let robs = self.obs.as_ref().map(|c| c.rank(rank));
                std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .stack_size(RANK_STACK_BYTES)
                    .spawn(move || {
                        let mut incarnation: u64 = 0;
                        loop {
                            let mut comm = match &plan {
                                Some(plan) if incarnation > 0 => {
                                    let from = shared
                                        .board
                                        .death_time_of(rank)
                                        .unwrap_or(0.0);
                                    Comm::with_faults_incarnation(
                                        shared.clone(),
                                        rank,
                                        size,
                                        plan.clone(),
                                        incarnation,
                                        from,
                                    )
                                }
                                Some(plan) => {
                                    Comm::with_faults(shared.clone(), rank, size, plan.clone())
                                }
                                None => Comm::new(shared.clone(), rank, size),
                            };
                            if let Some(o) = &robs {
                                comm.set_obs(o.clone());
                            }
                            let comm = comm;
                            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                                || f(&comm),
                            ));
                            match out {
                                Ok(v) => return Ok(RankOutcome::Done(v)),
                                Err(payload) => {
                                    if let Some(death) = payload.downcast_ref::<RankDeath>() {
                                        // An injected death: the dying rank
                                        // already advertised it (board,
                                        // mailbox purge, rendezvous);
                                        // survivors continue. With a restart
                                        // rule the rank rejoins after a
                                        // wall-clock delay as a fresh
                                        // incarnation — unless the join gate
                                        // has closed (the run is over).
                                        let at = death.at;
                                        let restart = if incarnation == 0 {
                                            plan.as_ref().and_then(|p| p.restart_delay(rank))
                                        } else {
                                            None
                                        };
                                        if let Some(delay_s) = restart {
                                            std::thread::sleep(
                                                std::time::Duration::from_secs_f64(delay_s),
                                            );
                                            if shared.board.try_revive(rank) {
                                                if let Some(o) = &robs {
                                                    o.instant(
                                                        o.now(),
                                                        "fault.restart",
                                                        format!(
                                                            "incarnation {}",
                                                            incarnation + 1
                                                        ),
                                                    );
                                                }
                                                // Wake peers (notably a
                                                // polling master) so the
                                                // revival is noticed promptly.
                                                for mb in &shared.mailboxes {
                                                    mb.nudge();
                                                }
                                                incarnation += 1;
                                                continue;
                                            }
                                        }
                                        return Ok(RankOutcome::Died { at });
                                    }
                                    // A real bug. Wake everyone so they don't
                                    // deadlock waiting on a rank that will
                                    // never send or join a collective.
                                    for mb in &shared.mailboxes {
                                        mb.shutdown();
                                    }
                                    shared.rendezvous.shutdown();
                                    return Err(payload);
                                }
                            }
                        }
                    })
                    .expect("spawn rank thread")
            })
            .collect();

        let mut results = Vec::with_capacity(self.size);
        let mut first_panic = None;
        for h in handles {
            match h.join().expect("rank thread not poisoned") {
                Ok(v) => results.push(Some(v)),
                Err(p) => {
                    results.push(None);
                    if first_panic.is_none() {
                        first_panic = Some(p);
                    }
                }
            }
        }
        if let Some(p) = first_panic {
            std::panic::resume_unwind(p);
        }
        results.into_iter().map(|r| r.expect("no panic recorded")).collect()
    }
}

/// Injected deaths unwind via a [`RankDeath`] panic that [`World::run_faulty`]
/// always catches; the default panic hook would still print a spurious
/// backtrace for each one. Wrap the hook (once, process-wide) to swallow
/// exactly that payload type — every other panic keeps its normal report.
fn silence_rank_death_panics() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<RankDeath>().is_some() {
                return;
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::MpiError;
    use crate::{ReduceOp, ANY_SOURCE, ANY_TAG};
    use std::time::Duration;

    #[test]
    fn ranks_are_distinct_and_sized() {
        let got = World::new(6).run(|comm| (comm.rank(), comm.size()));
        for (i, (rank, size)) in got.into_iter().enumerate() {
            assert_eq!(rank, i);
            assert_eq!(size, 6);
        }
    }

    #[test]
    fn single_rank_world_works() {
        let got = World::new(1).run(|comm| {
            comm.barrier();
            comm.rank()
        });
        assert_eq!(got, vec![0]);
    }

    #[test]
    #[should_panic]
    fn zero_rank_world_rejected() {
        let _ = World::new(0);
    }

    #[test]
    fn rank_panic_propagates_without_deadlock() {
        let result = std::panic::catch_unwind(|| {
            World::new(3).run(|comm| {
                if comm.rank() == 1 {
                    panic!("rank 1 dies");
                }
                // Other ranks block on a message that will never come; the
                // teardown must unblock them.
                let _ = comm.recv(1, 0);
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn results_in_rank_order() {
        let got = World::new(5).run(|comm| comm.rank() * comm.rank());
        assert_eq!(got, vec![0, 1, 4, 9, 16]);
    }

    // ------------------------------------------------------ fault injection

    #[test]
    fn killed_rank_reports_death_and_survivors_finish() {
        let plan = FaultPlan::new(1).kill(2, 0.5);
        let outcomes = World::new(4).with_faults(plan).run_faulty(|comm| {
            comm.charge(1.0);
            comm.barrier();
            comm.rank()
        });
        assert_eq!(outcomes[2], RankOutcome::Died { at: 0.5 });
        for r in [0usize, 1, 3] {
            assert_eq!(outcomes[r], RankOutcome::Done(r));
        }
    }

    #[test]
    fn kill_at_zero_dies_on_first_operation() {
        let plan = FaultPlan::new(9).kill(1, 0.0);
        let outcomes = World::new(2).with_faults(plan).run_faulty(|comm| {
            comm.barrier(); // rank 1 dies entering this
            comm.rank()
        });
        assert!(outcomes[1].is_died());
        assert_eq!(outcomes[0], RankOutcome::Done(0));
    }

    #[test]
    fn recv_reports_dead_source() {
        let plan = FaultPlan::new(3).kill(0, 0.0);
        let outcomes = World::new(2).with_faults(plan).run_faulty(|comm| {
            if comm.rank() == 1 {
                match comm.recv(0, 7) {
                    Err(MpiError::RankDead { rank: 0, .. }) => true,
                    other => panic!("expected RankDead, got {other:?}"),
                }
            } else {
                comm.barrier(); // never completes: rank 0 dies entering it
                false
            }
        });
        assert_eq!(outcomes[1], RankOutcome::Done(true));
    }

    #[test]
    fn queued_message_still_delivered_after_sender_death() {
        // The sender emits before dying; the receiver must get the queued
        // packet, then see RankDead on the next receive.
        let plan = FaultPlan::new(5).kill(0, 1.0);
        let outcomes = World::new(2).with_faults(plan).run_faulty(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 4, vec![0xEE]);
                comm.charge(2.0); // dies here
                0
            } else {
                let msg = comm.recv(0, 4).expect("queued before death");
                assert_eq!(msg.data, vec![0xEE]);
                let saw_dead = loop {
                    // The death may race the first receive; poll until the
                    // board shows it.
                    match comm.recv_timeout(0, 4, Duration::from_millis(50)) {
                        Err(MpiError::RankDead { rank: 0, .. }) => break true,
                        Err(MpiError::Timeout) | Err(MpiError::Interrupted) => continue,
                        other => panic!("unexpected: {other:?}"),
                    }
                };
                assert!(saw_dead);
                1
            }
        });
        assert!(outcomes[0].is_died());
        assert_eq!(outcomes[1], RankOutcome::Done(1));
    }

    #[test]
    fn collectives_complete_and_skip_dead_contributions() {
        // 4 ranks allreduce-sum their (rank+1); rank 3 dies first, so the
        // survivors' total must be 1+2+3 = 6.
        let plan = FaultPlan::new(2).kill(3, 0.0);
        let outcomes = World::new(4).with_faults(plan).run_faulty(|comm| {
            let mine = [comm.rank() as f64 + 1.0];
            let mut total = [0.0];
            comm.allreduce_f64(&mine, &mut total, ReduceOp::Sum);
            total[0]
        });
        assert!(outcomes[3].is_died());
        for out in outcomes.iter().take(3) {
            assert_eq!(*out, RankOutcome::Done(6.0));
        }
    }

    #[test]
    fn allreduce_present_excludes_a_rank_dying_at_entry() {
        // Rank 0 idles at clock 0 while the others charge past its strike
        // time; the first allreduce pulls rank 0's clock over the strike, so
        // it dies entering the second — after peers may have snapshotted it
        // as alive. The participation set of that second collective must
        // exclude it on every survivor, whatever the thread interleaving.
        let plan = FaultPlan::new(8).kill(0, 1.0);
        let outcomes = World::new(3).with_faults(plan).run_faulty(|comm| {
            if comm.rank() != 0 {
                comm.charge(2.0);
            }
            let mut out = [0.0];
            comm.allreduce_f64(&[1.0], &mut out, ReduceOp::Sum);
            let mut total = [0.0];
            let present = comm.allreduce_f64_present(&[1.0], &mut total, ReduceOp::Sum);
            (present, total[0])
        });
        assert!(outcomes[0].is_died(), "rank 0 dies at the second collective");
        for out in outcomes.iter().skip(1) {
            let (present, total) = out.as_done().expect("survivor");
            assert_eq!(*present, vec![false, true, true]);
            assert_eq!(*total, 2.0);
        }
    }

    #[test]
    fn allreduce_present_mid_collate_race_is_agreed_and_traced() {
        // The mid-collate membership race (PR 4 covered it only through the
        // soak harness), pinned directly: survivors snapshot the victim as
        // alive *before* the collective, the victim dies entering it, and
        // the participation set — not the stale snapshot — is the agreed
        // truth. With a collector attached, the decision itself lands on
        // the trace as a `collective.allreduce_present` instant.
        let collector = obs::Collector::new();
        let plan = FaultPlan::new(8).kill(2, 1.0);
        let outcomes =
            World::new(3).with_faults(plan).with_obs(collector.clone()).run_faulty(|comm| {
                if comm.rank() != 2 {
                    comm.charge(2.0);
                }
                // First collective drags the victim's clock past its strike
                // time; the snapshot taken here is the stale pre-collective
                // view a naive liveness check would trust.
                let mut out = [0.0];
                comm.allreduce_f64(&[1.0], &mut out, ReduceOp::Sum);
                let stale = comm.alive_ranks();
                let mut total = [0.0];
                let present =
                    comm.allreduce_f64_present(&[1.0], &mut total, ReduceOp::Sum);
                (stale, present, total[0])
            });
        assert!(outcomes[2].is_died(), "rank 2 dies entering the second collective");
        for out in outcomes.iter().take(2) {
            let (_, present, total) = out.as_done().expect("survivor");
            assert_eq!(*present, vec![true, true, false]);
            assert_eq!(*total, 2.0, "only live contributions are folded");
        }
        let trace = collector.trace();
        trace.validate().expect("well-formed trace");
        for r in 0..2 {
            let decisions: Vec<&str> = trace.ranks[r]
                .events
                .iter()
                .filter_map(|e| match e {
                    obs::Event::Instant { name, detail, .. }
                        if *name == "collective.allreduce_present" =>
                    {
                        Some(detail.as_str())
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(
                decisions,
                vec!["present=[0, 1] of 3"],
                "rank {r} must record the reduced participation set"
            );
        }
    }

    #[test]
    fn repeated_collectives_after_death_keep_working() {
        let plan = FaultPlan::new(4).kill(1, 0.0);
        let outcomes = World::new(3).with_faults(plan).run_faulty(|comm| {
            let mut acc = 0.0;
            for _ in 0..20 {
                let mine = [1.0];
                let mut out = [0.0];
                comm.allreduce_f64(&mine, &mut out, ReduceOp::Sum);
                acc += out[0];
            }
            acc
        });
        assert!(outcomes[1].is_died());
        assert_eq!(outcomes[0], RankOutcome::Done(40.0)); // 2 survivors × 20 rounds
    }

    #[test]
    fn dropped_messages_are_deterministic() {
        let run = || {
            let plan = FaultPlan::new(77).drop_p2p(0, 1, 0.5);
            World::new(2).with_faults(plan).run_faulty(|comm| {
                if comm.rank() == 0 {
                    for i in 0..32u8 {
                        comm.send(1, 1, vec![i]);
                    }
                    comm.barrier();
                    Vec::new()
                } else {
                    comm.barrier(); // all sends queued before we drain
                    let mut got = Vec::new();
                    while let Ok(msg) = comm.try_recv(ANY_SOURCE, ANY_TAG) {
                        got.push(msg.data[0]);
                    }
                    got
                }
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a[1], b[1], "same seed, same surviving messages");
        let survivors = a[1].as_done().unwrap();
        assert!(survivors.len() < 32, "p=0.5 must drop something");
        assert!(!survivors.is_empty(), "p=0.5 must deliver something");
    }

    #[test]
    fn delayed_messages_arrive_late_on_the_virtual_clock() {
        let plan = FaultPlan::new(0).delay_p2p(0, 1, 3.5);
        let outcomes = World::new(2).with_faults(plan).run_faulty(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 2, vec![1]);
                comm.now()
            } else {
                comm.recv(0, 2).unwrap();
                comm.now()
            }
        });
        assert_eq!(outcomes[0], RankOutcome::Done(0.0));
        assert_eq!(outcomes[1], RankOutcome::Done(3.5));
    }

    #[test]
    fn recv_timeout_times_out_without_sender() {
        let got = World::new(2).run(|comm| {
            if comm.rank() == 1 {
                matches!(
                    comm.recv_timeout(0, 9, Duration::from_millis(30)),
                    Err(MpiError::Timeout)
                )
            } else {
                true // sends nothing
            }
        });
        assert!(got[1]);
    }

    #[test]
    #[should_panic(expected = "use World::run_faulty")]
    fn plain_run_rejects_actual_deaths() {
        let plan = FaultPlan::new(0).kill(0, 0.0);
        let _ = World::new(2).with_faults(plan).run(|comm| {
            comm.barrier();
            comm.rank()
        });
    }
}
