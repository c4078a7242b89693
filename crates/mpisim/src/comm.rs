//! The per-rank communicator handle.
//!
//! A [`Comm`] is handed to each rank closure by [`crate::World::run`]. It is
//! intentionally *not* `Sync`: one rank, one thread, one communicator, as in
//! MPI. All operations advance the rank's virtual clock per the world's
//! [`CostModel`].

use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::clock::{Clock, CostModel};
use crate::collective::{ReduceOp, Rendezvous};
use crate::error::MpiError;
use crate::fault::{FaultBoard, FaultPlan, RankDeath, RankFaults};
use crate::mailbox::{Mailbox, Packet};
use crate::wire;
use crate::{Rank, Tag};

/// Wildcard source for receives (matches any sending rank).
pub const ANY_SOURCE: Rank = usize::MAX;
/// Wildcard tag for receives (matches any tag).
pub const ANY_TAG: Tag = u32::MAX;

/// Envelope information returned by receives and probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Actual source rank of the matched message.
    pub source: Rank,
    /// Actual tag of the matched message.
    pub tag: Tag,
    /// Payload length in bytes.
    pub len: usize,
}

/// A received message: payload plus envelope.
#[derive(Debug)]
pub struct RecvMsg {
    /// Payload bytes.
    pub data: Vec<u8>,
    /// Envelope of the matched message.
    pub status: Status,
}

/// Shared world state referenced by every rank's communicator.
pub(crate) struct Shared {
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) rendezvous: Rendezvous,
    pub(crate) cost: CostModel,
    pub(crate) board: Arc<FaultBoard>,
}

/// Communicator for one rank of a running world.
pub struct Comm {
    shared: Arc<Shared>,
    rank: Rank,
    size: usize,
    clock: RefCell<Clock>,
    faults: Option<RankFaults>,
    /// Which incarnation of this rank owns the communicator: 0 for the
    /// original process, bumped each time a restarted rank rejoins.
    incarnation: u64,
    /// Scheduler-round counter (see [`Comm::next_round`]).
    rounds: std::cell::Cell<u64>,
    /// This rank's tracing/metrics ring, when a collector is attached to
    /// the world (see [`crate::World::with_obs`]). `None` costs one branch
    /// per hook — the obs layer off is a no-op.
    obs: Option<obs::RankObs>,
}

impl Comm {
    pub(crate) fn new(shared: Arc<Shared>, rank: Rank, size: usize) -> Self {
        Comm {
            shared,
            rank,
            size,
            clock: RefCell::new(Clock::new()),
            faults: None,
            incarnation: 0,
            rounds: std::cell::Cell::new(0),
            obs: None,
        }
    }

    pub(crate) fn with_faults(
        shared: Arc<Shared>,
        rank: Rank,
        size: usize,
        plan: Arc<FaultPlan>,
    ) -> Self {
        Self::with_faults_incarnation(shared, rank, size, plan, 0, 0.0)
    }

    /// Communicator for incarnation `incarnation` of `rank`, with the
    /// virtual clock resumed from `clock_from` (a rejoiner continues from
    /// its predecessor's death time so virtual time never rewinds).
    pub(crate) fn with_faults_incarnation(
        shared: Arc<Shared>,
        rank: Rank,
        size: usize,
        plan: Arc<FaultPlan>,
        incarnation: u64,
        clock_from: f64,
    ) -> Self {
        let faults = Some(RankFaults::for_incarnation(plan, rank, size, incarnation));
        let mut clock = Clock::new();
        clock.sync_to(clock_from);
        Comm {
            shared,
            rank,
            size,
            clock: RefCell::new(clock),
            faults,
            incarnation,
            rounds: std::cell::Cell::new(0),
            obs: None,
        }
    }

    /// Attach this rank's tracing ring (done by the world at spawn; the
    /// same ring is re-attached to restarted incarnations).
    pub(crate) fn set_obs(&mut self, obs: obs::RankObs) {
        obs.set_now(self.clock.borrow().now());
        self.obs = Some(obs);
    }

    /// This rank's tracing/metrics handle, if a collector is attached.
    #[inline]
    pub fn obs(&self) -> Option<&obs::RankObs> {
        self.obs.as_ref()
    }

    /// Mirror the virtual clock into the obs ring so span guards and
    /// comm-less layers (spool, KV) timestamp correctly. Called after every
    /// clock mutation.
    #[inline]
    fn obs_tick(&self) {
        if let Some(o) = &self.obs {
            o.set_now(self.clock.borrow().now());
        }
    }

    #[inline]
    fn obs_add(&self, name: &'static str, delta: u64) {
        if let Some(o) = &self.obs {
            o.add(name, delta);
        }
    }

    /// Hand out the next scheduler-round number (0, 1, 2, …). Every rank
    /// runs the same program, so the `n`-th scheduler invocation draws the
    /// same round number on every rank — the round scopes the fault board's
    /// deposition/departure state to one invocation. A rejoiner's counter
    /// restarts at 0 with its fresh communicator, which is why restarted
    /// ranks are only supported in single-map-phase programs.
    pub fn next_round(&self) -> u64 {
        let r = self.rounds.get();
        self.rounds.set(r + 1);
        r
    }

    /// Incarnation number of this communicator's rank: 0 for the original
    /// process, `n` for the `n`-th rejoin after a [`FaultPlan::restart`].
    #[inline]
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// The shared fault board (membership, generations, coordinator
    /// eligibility). Available in faulty *and* fault-free worlds — the board
    /// simply reports everyone alive in the latter.
    #[inline]
    pub fn board(&self) -> &FaultBoard {
        &self.shared.board
    }

    // ------------------------------------------------------ fault plumbing

    /// Check whether this rank's scheduled death time has been reached and,
    /// if so, die. Called at every communication-operation entry and after
    /// every compute charge, so deaths happen at operation boundaries — never
    /// while blocked (a blocked rank's clock is frozen).
    ///
    /// Also the trigger point for two supervision-layer mechanisms:
    /// * **stalls** — an injected straggler window freezes the rank here, in
    ///   wall-clock time (timeouts and heartbeat deadlines are wall-clock);
    /// * **fencing** — a rank another rank marked dead on the board (a
    ///   supervisor evicting a straggler) notices at its next operation and
    ///   unwinds with the recorded death.
    fn preflight(&self) {
        if let Some(f) = &self.faults {
            if let Some(at) = f.death_at {
                if self.now() >= at && self.shared.board.is_alive(self.rank) {
                    self.die(at);
                }
            }
        }
        self.maybe_stall();
        if !self.shared.board.is_alive(self.rank) {
            // Fenced by a peer while we were computing or stalled: the board
            // already records the death; just unwind.
            let at = self.shared.board.death_time_of(self.rank).unwrap_or_else(|| self.now());
            std::panic::panic_any(RankDeath { rank: self.rank, at });
        }
    }

    /// Serve any stall window whose virtual trigger time has been crossed:
    /// sleep wall-clock in short slices, waking early if this rank gets
    /// fenced (marked dead) meanwhile — a fenced straggler stops burning real
    /// time and dies at the `preflight` board check that follows.
    fn maybe_stall(&self) {
        let Some(f) = &self.faults else { return };
        loop {
            let due = {
                let mut stalls = f.stalls.borrow_mut();
                let now = self.now();
                stalls.iter_mut().find_map(|s| {
                    if !s.2 && now >= s.0 {
                        s.2 = true;
                        Some(s.1)
                    } else {
                        None
                    }
                })
            };
            let Some(dur_s) = due else { return };
            let deadline = std::time::Instant::now() + Duration::from_secs_f64(dur_s);
            while std::time::Instant::now() < deadline {
                if !self.shared.board.is_alive(self.rank) {
                    return; // fenced mid-stall: die promptly instead of sleeping on
                }
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                std::thread::sleep(left.min(Duration::from_millis(10)));
            }
        }
    }

    /// Execute this rank's death: record it on the board, discard queued
    /// messages (they die with the rank), wake every blocked peer so it can
    /// re-examine liveness, and unwind with a [`RankDeath`] payload that
    /// [`crate::World::run_faulty`] converts into a
    /// [`RankOutcome::Died`](crate::RankOutcome::Died).
    fn die(&self, at: f64) -> ! {
        if let Some(o) = &self.obs {
            o.instant(at, "fault.death", format!("incarnation {}", self.incarnation));
        }
        self.shared.board.mark_dead(self.rank, at);
        self.shared.mailboxes[self.rank].purge();
        for mb in &self.shared.mailboxes {
            mb.nudge();
        }
        self.shared.rendezvous.on_death();
        std::panic::panic_any(RankDeath { rank: self.rank, at });
    }

    /// Is `rank` still alive? Always true outside fault injection.
    #[inline]
    pub fn is_alive(&self, rank: Rank) -> bool {
        self.shared.board.is_alive(rank)
    }

    /// **Fence** `rank`: declare it dead on the fault board on behalf of a
    /// supervisor that has given up on it (e.g. the FT master evicting a
    /// straggler whose work a backup already finished). Mirrors a self-death:
    /// the victim's queued messages are purged, every blocked peer is woken,
    /// and collectives stop waiting for it. The victim itself notices at its
    /// next operation boundary (or mid-stall) and unwinds as a rank death.
    ///
    /// # Panics
    /// Panics if asked to fence ourselves (use a kill rule for that) or an
    /// out-of-range rank.
    pub fn fence(&self, rank: Rank) {
        assert!(rank < self.size, "fence of rank {rank} in a world of {}", self.size);
        assert_ne!(rank, self.rank, "a rank cannot fence itself");
        if !self.shared.board.is_alive(rank) {
            return;
        }
        if let Some(o) = &self.obs {
            o.instant(self.now(), "fault.fence", format!("fenced rank {rank}"));
        }
        self.shared.board.mark_dead(rank, self.now());
        self.shared.mailboxes[rank].purge();
        for mb in &self.shared.mailboxes {
            mb.nudge();
        }
        self.shared.rendezvous.on_death();
    }

    /// Is work unit `unit` poisoned by the attached fault plan? Always false
    /// outside fault injection. Schedulers consult this to inject a
    /// deterministic per-unit panic.
    pub fn unit_poisoned(&self, unit: u64) -> bool {
        self.faults.as_ref().is_some_and(|f| f.plan.is_poisoned(unit))
    }

    /// Live ranks in rank order.
    pub fn alive_ranks(&self) -> Vec<Rank> {
        self.shared.board.alive_ranks()
    }

    /// `(rank, virtual_death_time)` pairs in death order.
    pub fn failed_ranks(&self) -> Vec<(Rank, f64)> {
        self.shared.board.failed_ranks()
    }

    /// This rank's index in `0..size`.
    #[inline]
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the world.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Current virtual time of this rank, in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.clock.borrow().now()
    }

    /// Charge `dt` seconds of local computation to this rank's clock. Under
    /// fault injection, crossing this rank's scheduled death time inside the
    /// charge kills it (models a node failing mid-computation), and a
    /// [`FaultPlan::slow`] rule scales the charge (a soft straggler).
    #[inline]
    pub fn charge(&self, dt: f64) {
        let dt = match &self.faults {
            Some(f) => dt * f.slow_factor,
            None => dt,
        };
        self.clock.borrow_mut().charge(dt);
        self.obs_tick();
        self.preflight();
    }

    // ---------------------------------------------------------------- p2p

    /// Blocking-eager send of `data` to `dst` with `tag`.
    ///
    /// The sender is charged the full α + βn transfer cost (a rendezvous-free
    /// eager protocol); the message arrives at the receiver at the sender's
    /// post-send clock.
    ///
    /// # Panics
    /// Panics if `dst` is out of range.
    pub fn send(&self, dst: Rank, tag: Tag, data: Vec<u8>) {
        assert!(dst < self.size, "send to rank {dst} in a world of {}", self.size);
        self.preflight();
        let cost = self.shared.cost.p2p(data.len());
        self.charge(cost); // may kill this rank: a message in flight at death is lost
        self.obs_add("net.sends", 1);
        self.obs_add("net.bytes_sent", data.len() as u64);
        let mut arrival = self.now();
        if let Some(f) = &self.faults {
            let seq = f.next_seq(dst);
            match f.plan.message_fate(self.rank, dst, seq) {
                None => return, // dropped by the injected network fault
                Some(extra) => arrival += extra,
            }
        }
        if !self.shared.board.is_alive(dst) {
            return; // messages to a dead rank vanish (its mailbox is purged anyway)
        }
        self.shared.mailboxes[dst].push(Packet { src: self.rank, tag, data, arrival });
    }

    /// Convenience: send a `u64` slice.
    pub fn send_u64s(&self, dst: Rank, tag: Tag, xs: &[u64]) {
        self.send(dst, tag, wire::u64s_to_bytes(xs));
    }

    /// Blocking receive matching `(src, tag)`; wildcards [`ANY_SOURCE`] /
    /// [`ANY_TAG`] are honored. The local clock is pulled up to the message's
    /// modelled arrival time.
    ///
    /// Faults surface as errors instead of hangs: [`MpiError::RankDead`]
    /// when a specific source died with no matching message left (or, for
    /// [`ANY_SOURCE`], when no other rank is alive), [`MpiError::WorldDown`]
    /// on teardown.
    pub fn recv(&self, src: Rank, tag: Tag) -> Result<RecvMsg, MpiError> {
        self.recv_until(src, tag, None)
    }

    /// Like [`Comm::recv`] but bounded by `timeout` of *wall-clock* waiting:
    /// returns [`MpiError::Timeout`] when it elapses (a zero timeout polls
    /// the queued messages) and [`MpiError::Interrupted`] as soon as any rank
    /// dies while waiting, so a retrying caller reacts to failures promptly.
    /// The timeout is a liveness backstop for fault-tolerant protocols and is
    /// deliberately not charged to the virtual clock.
    pub fn recv_timeout(
        &self,
        src: Rank,
        tag: Tag,
        timeout: Duration,
    ) -> Result<RecvMsg, MpiError> {
        self.recv_until(src, tag, Some(Instant::now() + timeout))
    }

    fn recv_until(
        &self,
        src: Rank,
        tag: Tag,
        deadline: Option<Instant>,
    ) -> Result<RecvMsg, MpiError> {
        self.preflight();
        let pkt = self.shared.mailboxes[self.rank].recv(
            self.rank,
            src,
            tag,
            &self.shared.board,
            deadline,
        )?;
        let msg = self.deliver(pkt);
        self.preflight();
        Ok(msg)
    }

    /// Non-blocking receive. `Err(WouldBlock)` when nothing matches.
    pub fn try_recv(&self, src: Rank, tag: Tag) -> Result<RecvMsg, MpiError> {
        let pkt = self.shared.mailboxes[self.rank].try_recv(src, tag)?;
        Ok(self.deliver(pkt))
    }

    /// Hand a matched packet to the caller: sync the clock to its arrival
    /// and count it.
    fn deliver(&self, pkt: Packet) -> RecvMsg {
        self.clock.borrow_mut().sync_to(pkt.arrival);
        self.obs_tick();
        self.obs_add("net.recvs", 1);
        self.obs_add("net.bytes_recvd", pkt.data.len() as u64);
        RecvMsg {
            status: Status { source: pkt.src, tag: pkt.tag, len: pkt.data.len() },
            data: pkt.data,
        }
    }

    /// Probe for a matching message without consuming it.
    pub fn probe(&self, src: Rank, tag: Tag) -> Option<Status> {
        self.shared.mailboxes[self.rank]
            .probe(src, tag)
            .map(|(source, tag, len)| Status { source, tag, len })
    }

    // --------------------------------------------------------- collectives

    fn exchange(&self, data: Vec<u8>) -> (Arc<Vec<Vec<u8>>>, f64) {
        self.preflight();
        self.shared.rendezvous.exchange(self.rank, data, self.now())
    }

    fn finish_collective(&self, entry_max: f64, bytes: usize) {
        {
            let mut clock = self.clock.borrow_mut();
            clock.sync_to(entry_max);
            clock.charge(self.shared.cost.collective(self.size, bytes));
        }
        self.obs_tick();
        self.obs_add("net.collectives", 1);
        self.obs_add("net.collective_bytes", bytes as u64);
    }

    /// Synchronize all ranks; clocks leave at `max(entry clocks) + log2(P)·α`.
    pub fn barrier(&self) {
        let (_, t) = self.exchange(Vec::new());
        self.finish_collective(t, 0);
    }

    /// Broadcast `data` from `root` to every rank. On non-root ranks `data`
    /// is replaced with the root's payload.
    pub fn bcast(&self, root: Rank, data: &mut Vec<u8>) {
        let contribution = if self.rank == root { std::mem::take(data) } else { Vec::new() };
        let (all, t) = self.exchange(contribution);
        *data = all[root].clone();
        self.finish_collective(t, data.len());
    }

    /// Broadcast an `f64` buffer from `root`; all ranks' `buf` holds the
    /// root's values afterwards.
    ///
    /// # Panics
    /// Panics if buffer lengths disagree with the root's.
    pub fn bcast_f64s(&self, root: Rank, buf: &mut [f64]) {
        let contribution =
            if self.rank == root { wire::f64s_to_bytes(buf) } else { Vec::new() };
        let (all, t) = self.exchange(contribution);
        wire::bytes_into_f64s(&all[root], buf);
        self.finish_collective(t, buf.len() * 8);
    }

    /// Element-wise reduction of `input` across all ranks into `output` on
    /// `root`. Non-root `output` buffers are left untouched. Returns `true`
    /// on the root rank.
    ///
    /// # Panics
    /// Panics if any rank contributes a different length.
    pub fn reduce_f64(&self, root: Rank, input: &[f64], output: &mut [f64], op: ReduceOp) -> bool {
        let (all, t) = self.exchange(wire::f64s_to_bytes(input));
        if self.rank == root {
            assert_eq!(output.len(), input.len(), "reduce output length mismatch");
            Self::fold_contributions(&all, input.len(), output, op);
        }
        self.finish_collective(t, input.len() * 8);
        self.rank == root
    }

    /// Element-wise reduction delivered to every rank.
    pub fn allreduce_f64(&self, input: &[f64], output: &mut [f64], op: ReduceOp) {
        assert_eq!(output.len(), input.len(), "allreduce output length mismatch");
        output.copy_from_slice(input);
        self.allreduce_f64_in_place(output, op);
    }

    /// [`Comm::allreduce_f64`] with `buf` as both input and output: no
    /// second buffer of the reduction's size is allocated, which matters for
    /// multi-megabyte reductions such as a SOM epoch's accumulator.
    pub fn allreduce_f64_in_place(&self, buf: &mut [f64], op: ReduceOp) {
        let (all, t) = self.exchange(wire::f64s_to_bytes(buf));
        Self::fold_contributions(&all, buf.len(), buf, op);
        self.finish_collective(t, buf.len() * 8);
    }

    /// [`Comm::allreduce_f64`] that also returns the agreed *participation
    /// set* of this very collective: `present[r]` is `true` iff rank `r`
    /// deposited a contribution before the exchange completed. A rank that
    /// dies entering the collective leaves an empty slot in the published
    /// contribution vector, which every survivor observes identically — so
    /// the set is both agreed and strictly fresher than any liveness
    /// snapshot taken *before* the collective, closing the race where a
    /// peer dies between the snapshot and the exchange.
    ///
    /// # Panics
    /// Panics if `input` is empty (a zero-length contribution would be
    /// indistinguishable from a dead rank's non-contribution).
    pub fn allreduce_f64_present(
        &self,
        input: &[f64],
        output: &mut [f64],
        op: ReduceOp,
    ) -> Vec<bool> {
        assert!(!input.is_empty(), "allreduce_f64_present needs a non-empty contribution");
        let (all, t) = self.exchange(wire::f64s_to_bytes(input));
        assert_eq!(output.len(), input.len(), "allreduce output length mismatch");
        Self::fold_contributions(&all, input.len(), output, op);
        let present: Vec<bool> = all.iter().map(|c| !c.is_empty()).collect();
        self.finish_collective(t, input.len() * 8);
        if let Some(o) = &self.obs {
            // The participation-set decision is load-bearing (it closes the
            // mid-collate membership race), so it goes on the record: which
            // ranks this collective agreed were present.
            let members: Vec<Rank> =
                present.iter().enumerate().filter(|(_, p)| **p).map(|(r, _)| r).collect();
            o.instant(
                self.now(),
                "collective.allreduce_present",
                format!("present={members:?} of {}", self.size),
            );
        }
        present
    }

    /// Fold all contributions into `output`. Empty buffers are skipped: a
    /// dead rank contributes nothing to a reduction (its partial state died
    /// with it). Non-empty length mismatches still panic, as before. Later
    /// contributions are decoded through a fixed-size scratch, so the fold
    /// allocates nothing however large the reduction.
    fn fold_contributions(all: &[Vec<u8>], elems: usize, output: &mut [f64], op: ReduceOp) {
        const CHUNK: usize = 512;
        let mut scratch = [0.0f64; CHUNK];
        let mut first = true;
        for contribution in all.iter() {
            if contribution.is_empty() && elems != 0 {
                continue;
            }
            assert_eq!(contribution.len(), elems * 8, "payload/buffer length mismatch");
            if first {
                wire::bytes_into_f64s(contribution, output);
                first = false;
                continue;
            }
            for (out, bytes) in output.chunks_mut(CHUNK).zip(contribution.chunks(CHUNK * 8)) {
                let src = &mut scratch[..out.len()];
                wire::bytes_into_f64s(bytes, src);
                op.fold_into(out, src);
            }
        }
        // The calling rank always contributed, so at least one buffer folded.
        assert!(!first || elems == 0, "reduction with no live contributions");
    }

    /// Gather every rank's payload at `root`. Returns `Some(payloads)` (rank
    /// indexed) on the root, `None` elsewhere.
    pub fn gather(&self, root: Rank, data: Vec<u8>) -> Option<Vec<Vec<u8>>> {
        let bytes = data.len();
        let (all, t) = self.exchange(data);
        self.finish_collective(t, bytes);
        if self.rank == root {
            Some(all.iter().cloned().collect())
        } else {
            None
        }
    }

    /// Gather every rank's payload at every rank (rank indexed).
    pub fn allgather(&self, data: Vec<u8>) -> Vec<Vec<u8>> {
        let bytes = data.len();
        let (all, t) = self.exchange(data);
        self.finish_collective(t, bytes);
        all.iter().cloned().collect()
    }

    /// Personalized all-to-all: `sends[d]` goes to rank `d`; the result's
    /// element `s` is the buffer rank `s` sent to this rank.
    ///
    /// This is the primitive behind MR-MPI's `aggregate()` key exchange.
    ///
    /// # Panics
    /// Panics if `sends.len() != size`.
    pub fn alltoallv(&self, sends: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        assert_eq!(sends.len(), self.size, "alltoallv needs one buffer per rank");
        let my_bytes: usize = sends.iter().map(Vec::len).sum();
        let mut packed = Vec::with_capacity(my_bytes + 4 * self.size);
        for buf in &sends {
            wire::put_bytes(&mut packed, buf);
        }
        let (all, t) = self.exchange(packed);
        let mut recvd = Vec::with_capacity(self.size);
        for src_buf in all.iter() {
            // A dead rank's contribution is fully empty (a live rank always
            // packs size length prefixes); it sent us nothing.
            if src_buf.is_empty() {
                recvd.push(Vec::new());
                continue;
            }
            let mut pos = 0;
            let mut segment = &[][..];
            for d in 0..=self.rank {
                segment = wire::get_bytes(src_buf, &mut pos);
                if d == self.rank {
                    break;
                }
            }
            recvd.push(segment.to_vec());
        }
        self.finish_collective(t, my_bytes);
        recvd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    #[test]
    fn p2p_ring_passes_token() {
        let n = 4;
        let results = World::new(n).run(move |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            if comm.rank() == 0 {
                comm.send(next, 1, vec![1]);
                let msg = comm.recv(prev, 1).unwrap();
                msg.data[0]
            } else {
                let msg = comm.recv(prev, 1).unwrap();
                comm.send(next, 1, vec![msg.data[0] + 1]);
                msg.data[0]
            }
        });
        assert_eq!(results, vec![4, 1, 2, 3]);
    }

    #[test]
    fn bcast_delivers_root_payload() {
        let results = World::new(5).run(|comm| {
            let mut data = if comm.rank() == 2 { b"codebook".to_vec() } else { Vec::new() };
            comm.bcast(2, &mut data);
            data
        });
        for r in results {
            assert_eq!(r, b"codebook");
        }
    }

    #[test]
    fn reduce_sums_on_root_only() {
        let results = World::new(4).run(|comm| {
            let input = [comm.rank() as f64, 1.0];
            let mut out = [-1.0, -1.0];
            let is_root = comm.reduce_f64(0, &input, &mut out, ReduceOp::Sum);
            (is_root, out)
        });
        assert_eq!(results[0], (true, [6.0, 4.0]));
        for r in &results[1..] {
            assert_eq!(*r, (false, [-1.0, -1.0]));
        }
    }

    #[test]
    fn allreduce_max_everywhere() {
        let results = World::new(3).run(|comm| {
            let input = [comm.rank() as f64];
            let mut out = [0.0];
            comm.allreduce_f64(&input, &mut out, ReduceOp::Max);
            out[0]
        });
        assert_eq!(results, vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn allreduce_in_place_matches_out_of_place_across_chunk_edges() {
        // Longer than the fold's scratch and not a multiple of it.
        let n = 1_300;
        let results = World::new(3).run(move |comm| {
            let input: Vec<f64> =
                (0..n).map(|i| (i * (comm.rank() + 1)) as f64 * 0.1).collect();
            let mut out = vec![0.0; n];
            comm.allreduce_f64(&input, &mut out, ReduceOp::Sum);
            let mut buf = input;
            comm.allreduce_f64_in_place(&mut buf, ReduceOp::Sum);
            (out, buf)
        });
        for (out, buf) in &results {
            assert_eq!(out, buf);
            assert_eq!(out[10], 0.1 * 10.0 + 0.1 * 20.0 + 0.1 * 30.0);
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let results = World::new(3).run(|comm| comm.gather(1, vec![comm.rank() as u8 * 3]));
        assert!(results[0].is_none());
        assert_eq!(results[1].as_ref().unwrap(), &vec![vec![0], vec![3], vec![6]]);
        assert!(results[2].is_none());
    }

    #[test]
    fn alltoallv_transposes() {
        let n = 4;
        let results = World::new(n).run(move |comm| {
            let sends: Vec<Vec<u8>> =
                (0..n).map(|d| vec![comm.rank() as u8, d as u8]).collect();
            comm.alltoallv(sends)
        });
        for (me, recvd) in results.iter().enumerate() {
            for (src, buf) in recvd.iter().enumerate() {
                assert_eq!(buf, &vec![src as u8, me as u8]);
            }
        }
    }

    #[test]
    fn alltoallv_handles_empty_buffers() {
        let results = World::new(3).run(|comm| {
            let mut sends = vec![Vec::new(); 3];
            // Everyone sends only to rank 0.
            sends[0] = vec![comm.rank() as u8];
            comm.alltoallv(sends)
        });
        assert_eq!(results[0], vec![vec![0], vec![1], vec![2]]);
        assert_eq!(results[1], vec![Vec::<u8>::new(); 3]);
    }

    #[test]
    fn virtual_clocks_sync_through_collectives() {
        let results = World::new(4).run(|comm| {
            // Rank 3 does the most "work"; everyone's clock must leave the
            // barrier at >= 30.
            comm.charge(comm.rank() as f64 * 10.0);
            comm.barrier();
            comm.now()
        });
        for t in results {
            assert!((t - 30.0).abs() < 1e-12, "clock was {t}");
        }
    }

    #[test]
    fn message_arrival_pulls_receiver_clock() {
        let results = World::new(2).run(|comm| {
            if comm.rank() == 0 {
                comm.charge(5.0);
                comm.send(1, 0, vec![0; 8]);
                comm.now()
            } else {
                comm.recv(0, 0).unwrap();
                comm.now()
            }
        });
        // Free cost model: arrival == sender clock at send (5.0).
        assert_eq!(results, vec![5.0, 5.0]);
    }

    #[test]
    fn cost_model_charges_sender_and_receiver() {
        let results = World::new(2)
            .with_cost(CostModel { alpha: 1.0, beta: 0.5 })
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 0, vec![0; 4]); // cost 1 + 2 = 3
                    comm.now()
                } else {
                    comm.recv(0, 0).unwrap();
                    comm.now()
                }
            });
        assert_eq!(results, vec![3.0, 3.0]);
    }

    // --------------------------------------------- supervision-layer faults

    #[test]
    fn slow_rule_scales_compute_charges() {
        let plan = FaultPlan::new(11).slow(1, 3.0);
        let outcomes = World::new(2).with_faults(plan).run_faulty(|comm| {
            comm.charge(2.0);
            comm.now()
        });
        assert_eq!(outcomes[0], crate::RankOutcome::Done(2.0));
        assert_eq!(outcomes[1], crate::RankOutcome::Done(6.0));
    }

    #[test]
    fn fence_wakes_a_stalled_rank_promptly() {
        // Rank 1 stalls for 30 wall-clock seconds at its first operation;
        // rank 0 fences it after ~50ms. The whole world must finish orders
        // of magnitude sooner than the stall window.
        let start = std::time::Instant::now();
        let plan = FaultPlan::new(7).stall(1, 0.0, 30.0);
        let outcomes = World::new(2).with_faults(plan).run_faulty(|comm| {
            if comm.rank() == 0 {
                std::thread::sleep(Duration::from_millis(50));
                comm.fence(1);
            }
            comm.barrier();
            comm.rank()
        });
        assert_eq!(outcomes[0], crate::RankOutcome::Done(0));
        assert!(outcomes[1].is_died(), "fenced rank must unwind as a death");
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "fence must cut the stall short, elapsed {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn recv_timeout_of_zero_polls_and_times_out() {
        let results = World::new(2).run(|comm| {
            if comm.rank() == 1 {
                matches!(comm.recv_timeout(0, 3, Duration::ZERO), Err(MpiError::Timeout))
            } else {
                true
            }
        });
        assert!(results[1]);
    }
}
