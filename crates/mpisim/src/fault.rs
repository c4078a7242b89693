//! Deterministic fault injection for the simulated runtime.
//!
//! Real MapReduce-MPI deployments on a thousand Ranger cores lose nodes; the
//! paper's applications must finish anyway. This module lets a test kill a
//! rank at a chosen *virtual-clock* time, drop or delay point-to-point
//! messages with a seeded coin, and have every blocking operation surface a
//! typed [`MpiError`](crate::MpiError) instead of hanging.
//!
//! Everything is reproducible: a [`FaultPlan`] is a pure value (seed plus
//! rules), message fates are hashes of `(seed, src, dst, per-pair sequence
//! number)`, and deaths trigger at virtual times, so the same plan against the
//! same program produces the same failure schedule on every run regardless of
//! thread interleaving.
//!
//! ## Failure model
//!
//! Fail-stop with a perfect in-simulation detector: a dead rank stops
//! communicating forever (its mailbox is purged, its future sends never
//! happen) and every survivor can observe the death through
//! [`Comm::is_alive`](crate::Comm::is_alive) or through `RankDead` errors.
//! Ranks die only at communication-operation entry or while charging compute
//! time — never while blocked (a blocked rank's clock is frozen) and never
//! midway through a collective rendezvous, which keeps collectives well
//! defined: a dead rank simply contributes an empty buffer from then on.
//!
//! **Any** rank may be killed, including rank 0. Rank 0 holds no special
//! status in the simulator itself; it is only a *convention* that schedulers
//! start with rank 0 as the coordinator. Killing it exercises exactly the
//! coordinator-failover paths: survivors observe the death like any other,
//! and role-based schedulers (see `mrmpi::sched`) elect a replacement.
//!
//! Membership is monotone, as in MPI: a rank only ever goes from alive to
//! dead, and a dead rank never rejoins the world. Survivors carry on with
//! the shrinking set of live ranks.
//!
//! ```
//! use mpisim::{FaultPlan, RankOutcome, World};
//!
//! // Rank 2 dies the moment its virtual clock reaches 1.0 s.
//! let plan = FaultPlan::new(7).kill(2, 1.0);
//! let outcomes = World::new(4).with_faults(plan).run_faulty(|comm| {
//!     comm.charge(2.0); // rank 2 dies inside this charge
//!     comm.barrier();   // survivors complete: dead ranks don't block collectives
//!     comm.rank()
//! });
//! assert!(matches!(outcomes[2], RankOutcome::Died { .. }));
//! assert!(matches!(outcomes[0], RankOutcome::Done(0)));
//! ```

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::Rank;

/// Wildcard rank for drop/delay rules: matches any source or destination.
pub const ANY_RANK: Rank = usize::MAX;

#[derive(Debug, Clone, Copy)]
struct DropRule {
    src: Rank,
    dst: Rank,
    prob: f64,
}

#[derive(Debug, Clone, Copy)]
struct DelayRule {
    src: Rank,
    dst: Rank,
    extra_s: f64,
}

/// A straggler injection: the rank freezes (consumes wall-clock time without
/// making progress) once its virtual clock reaches `at_s`.
#[derive(Debug, Clone, Copy)]
struct StallRule {
    rank: Rank,
    at_s: f64,
    dur_s: f64,
}

/// A reproducible schedule of injected faults.
///
/// Built once, attached to a [`World`](crate::World) via
/// [`World::with_faults`](crate::World::with_faults), and evaluated
/// deterministically during the run.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    deaths: Vec<(Rank, f64)>,
    drops: Vec<DropRule>,
    delays: Vec<DelayRule>,
    stalls: Vec<StallRule>,
    slows: Vec<(Rank, f64)>,
    poisons: Vec<u64>,
}

impl FaultPlan {
    /// An empty plan. `seed` drives the per-message drop coin.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            deaths: Vec::new(),
            drops: Vec::new(),
            delays: Vec::new(),
            stalls: Vec::new(),
            slows: Vec::new(),
            poisons: Vec::new(),
        }
    }

    /// Kill `rank` when its virtual clock first reaches `at_s` seconds (at a
    /// communication-operation boundary or compute charge). `at_s = 0.0`
    /// kills the rank at its first operation.
    ///
    /// `rank` may be **any** rank of the world, *including rank 0*. The
    /// simulator treats a master/coordinator death exactly like a worker
    /// death: the board records it, blocked peers are nudged, and collectives
    /// skip the corpse. Whether the *run* survives is up to the scheduler —
    /// `mrmpi`'s fault-tolerant scheduler elects a replacement master (see
    /// its `FtConfig::failover`), while legacy abort mode surfaces a typed
    /// `MasterDied` error. Seeded and deterministic like every other rule.
    pub fn kill(mut self, rank: Rank, at_s: f64) -> Self {
        assert!(at_s >= 0.0, "death time must be non-negative");
        self.deaths.push((rank, at_s));
        self
    }

    /// Drop each message from `src` to `dst` independently with probability
    /// `prob` (seeded, per-message deterministic). [`ANY_RANK`] wildcards
    /// either side.
    pub fn drop_p2p(mut self, src: Rank, dst: Rank, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "drop probability must be in [0,1]");
        self.drops.push(DropRule { src, dst, prob });
        self
    }

    /// Add `extra_s` seconds of virtual latency to every message from `src`
    /// to `dst`. [`ANY_RANK`] wildcards either side.
    pub fn delay_p2p(mut self, src: Rank, dst: Rank, extra_s: f64) -> Self {
        assert!(extra_s >= 0.0, "delay must be non-negative");
        self.delays.push(DelayRule { src, dst, extra_s });
        self
    }

    /// Freeze `rank` for `dur_s` seconds of **wall-clock** time once its
    /// virtual clock first reaches `at_s` (checked at communication-operation
    /// boundaries, like deaths). The rank stays alive but goes silent — the
    /// canonical *straggler*. Timeouts and heartbeat deadlines are wall-clock
    /// quantities, so the stall is injected in wall time too; a stalled rank
    /// that is fenced (marked dead) by a supervisor wakes up early and dies.
    pub fn stall(mut self, rank: Rank, at_s: f64, dur_s: f64) -> Self {
        assert!(at_s >= 0.0, "stall time must be non-negative");
        assert!(dur_s >= 0.0, "stall duration must be non-negative");
        self.stalls.push(StallRule { rank, at_s, dur_s });
        self
    }

    /// Scale every compute charge on `rank` by `factor` (≥ 1 slows the rank
    /// down). A *soft* straggler: the rank keeps communicating, just late.
    pub fn slow(mut self, rank: Rank, factor: f64) -> Self {
        assert!(factor > 0.0, "slow factor must be positive");
        self.slows.push((rank, factor));
        self
    }

    /// Poison work unit `unit`: any fault-aware scheduler executing it sees
    /// the unit's map function panic, deterministically, on every attempt.
    pub fn poison(mut self, unit: u64) -> Self {
        self.poisons.push(unit);
        self
    }

    /// `(at_s, dur_s)` stall windows scheduled for `rank`, in insertion order.
    pub fn stalls_for(&self, rank: Rank) -> Vec<(f64, f64)> {
        self.stalls.iter().filter(|s| s.rank == rank).map(|s| (s.at_s, s.dur_s)).collect()
    }

    /// Ranks with at least one stall rule, deduplicated.
    pub fn stalled_ranks(&self) -> Vec<Rank> {
        let mut v: Vec<Rank> = self.stalls.iter().map(|s| s.rank).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Combined compute slowdown factor for `rank` (product of matching
    /// rules; 1.0 when none apply).
    pub fn slow_factor(&self, rank: Rank) -> f64 {
        self.slows.iter().filter(|&&(r, _)| r == rank).map(|&(_, f)| f).product()
    }

    /// Ranks with a slowdown rule, deduplicated.
    pub fn slowed_ranks(&self) -> Vec<Rank> {
        let mut v: Vec<Rank> = self.slows.iter().map(|&(r, _)| r).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Is work unit `unit` poisoned?
    pub fn is_poisoned(&self, unit: u64) -> bool {
        self.poisons.contains(&unit)
    }

    /// Poisoned unit indices, sorted and deduplicated.
    pub fn poisoned_units(&self) -> Vec<u64> {
        let mut v = self.poisons.clone();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The virtual death time scheduled for `rank`, if any (earliest wins
    /// when a rank is killed twice).
    pub fn death_time(&self, rank: Rank) -> Option<f64> {
        self.deaths
            .iter()
            .filter(|(r, _)| *r == rank)
            .map(|&(_, t)| t)
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.min(t))))
    }

    /// Ranks scheduled to die, deduplicated.
    pub fn doomed_ranks(&self) -> Vec<Rank> {
        let mut v: Vec<Rank> = self.deaths.iter().map(|&(r, _)| r).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    fn rule_matches(rule_src: Rank, rule_dst: Rank, src: Rank, dst: Rank) -> bool {
        (rule_src == ANY_RANK || rule_src == src) && (rule_dst == ANY_RANK || rule_dst == dst)
    }

    /// Decide the fate of the `seq`-th message from `src` to `dst`:
    /// `None` if dropped, `Some(extra_delay_s)` if delivered.
    pub fn message_fate(&self, src: Rank, dst: Rank, seq: u64) -> Option<f64> {
        for rule in &self.drops {
            if Self::rule_matches(rule.src, rule.dst, src, dst) {
                let h = fate_hash(self.seed, src as u64, dst as u64, seq);
                // 53 high-quality bits -> uniform in [0,1).
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                if u < rule.prob {
                    return None;
                }
            }
        }
        let mut extra = 0.0;
        for rule in &self.delays {
            if Self::rule_matches(rule.src, rule.dst, src, dst) {
                extra += rule.extra_s;
            }
        }
        Some(extra)
    }
}

/// SplitMix64-style mixing of the message coordinates into one fate word.
fn fate_hash(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut x = seed;
    for w in [a, b, c] {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(w);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
    }
    x
}

/// Shared liveness state: which ranks are alive, and a monotonically
/// increasing epoch bumped on every death so blocked receivers can notice
/// that the world changed underneath them.
///
/// Beyond plain liveness the board carries the *membership* state a
/// role-based coordinator needs: deposition flags (a coordinator declared
/// dead-or-useless by its peers steps down) and departure records (a rank
/// that finished cleanly, together with the work units it committed).
/// Membership is monotone: a rank marked dead stays dead.
pub struct FaultBoard {
    alive: Vec<AtomicBool>,
    epoch: AtomicU64,
    deaths: Mutex<Vec<(Rank, f64)>>,
    /// Coordinator-deposition marks, scoped to one scheduler *round* (a
    /// round is one scheduler invocation; drivers that map repeatedly run
    /// many rounds over one board). Stores `round + 1`, `0` = never deposed.
    /// Within a round the mark is monotonic, like deaths.
    deposed: Vec<AtomicU64>,
    /// Clean-departure marks, same `round + 1` encoding: the rank finished
    /// round `round` of the scheduler and left.
    departed: Vec<AtomicU64>,
    /// Work units each departed rank had committed when it left (tagged
    /// with `round + 1`) — the stand-in for a durable per-worker output
    /// manifest a successor coordinator consults instead of syncing with
    /// the departed rank.
    manifests: Mutex<Vec<(u64, Vec<u64>)>>,
}

impl FaultBoard {
    /// A board with every rank alive.
    pub fn new(size: usize) -> Self {
        FaultBoard {
            alive: (0..size).map(|_| AtomicBool::new(true)).collect(),
            epoch: AtomicU64::new(0),
            deaths: Mutex::new(Vec::new()),
            deposed: (0..size).map(|_| AtomicU64::new(0)).collect(),
            departed: (0..size).map(|_| AtomicU64::new(0)).collect(),
            manifests: Mutex::new(vec![(0, Vec::new()); size]),
        }
    }

    /// Is `rank` still alive? Out-of-range ranks (e.g. `ANY_SOURCE`) report
    /// alive so wildcard receives never spuriously fail.
    #[inline]
    pub fn is_alive(&self, rank: Rank) -> bool {
        self.alive.get(rank).is_none_or(|a| a.load(Ordering::Acquire))
    }

    /// Record `rank`'s death at virtual time `at`. Idempotent.
    pub fn mark_dead(&self, rank: Rank, at: f64) {
        if self.alive[rank].swap(false, Ordering::AcqRel) {
            self.deaths.lock().push((rank, at));
            self.epoch.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Current death epoch (number of deaths observed so far).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Number of live ranks.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|a| a.load(Ordering::Acquire)).count()
    }

    /// Live ranks in rank order.
    pub fn alive_ranks(&self) -> Vec<Rank> {
        (0..self.alive.len()).filter(|&r| self.is_alive(r)).collect()
    }

    /// Virtual death time of `rank`, if it died.
    pub fn death_time_of(&self, rank: Rank) -> Option<f64> {
        self.deaths.lock().iter().find(|&&(r, _)| r == rank).map(|&(_, t)| t)
    }

    /// Is any rank other than `me` still alive? When false, a wildcard
    /// receive with an empty queue can never be satisfied.
    pub fn any_other_alive(&self, me: Rank) -> bool {
        self.alive
            .iter()
            .enumerate()
            .any(|(r, a)| r != me && a.load(Ordering::Acquire))
    }

    // ------------------------------------------------- membership & failover

    /// Depose `rank` as coordinator for scheduler round `round`: peers that
    /// exhausted their retry budget against a live-but-useless coordinator
    /// strike it from this round's eligibility without killing it. Monotonic
    /// within the round and idempotent; a later round starts clean.
    pub fn depose(&self, rank: Rank, round: u64) {
        if let Some(d) = self.deposed.get(rank) {
            d.store(round + 1, Ordering::Release);
        }
    }

    /// Has `rank` been deposed as coordinator in round `round`?
    #[inline]
    pub fn is_deposed(&self, rank: Rank, round: u64) -> bool {
        self.deposed.get(rank).is_some_and(|d| d.load(Ordering::Acquire) == round + 1)
    }

    /// Record that `rank` finished round `round` of its scheduler run
    /// cleanly, leaving behind the list of work units it committed. A
    /// successor coordinator reads this manifest instead of waiting for the
    /// departed rank to sync.
    pub fn record_departure(&self, rank: Rank, round: u64, committed_units: Vec<u64>) {
        if let Some(d) = self.departed.get(rank) {
            let mut manifests = self.manifests.lock();
            manifests[rank] = (round + 1, committed_units);
            d.store(round + 1, Ordering::Release);
        }
    }

    /// Has `rank` departed cleanly from round `round` of the scheduler run?
    #[inline]
    pub fn is_departed(&self, rank: Rank, round: u64) -> bool {
        self.departed.get(rank).is_some_and(|d| d.load(Ordering::Acquire) == round + 1)
    }

    /// The committed-unit manifest `rank` left when departing round `round`
    /// (empty if it has not departed this round or committed nothing).
    pub fn departure_manifest(&self, rank: Rank, round: u64) -> Vec<u64> {
        match self.manifests.lock().get(rank) {
            Some((tag, units)) if *tag == round + 1 => units.clone(),
            _ => Vec::new(),
        }
    }

    /// Is `rank` eligible to act as coordinator in round `round`?
    /// Eligibility requires being alive, not departed and not deposed this
    /// round — all monotonic-within-the-round conditions (a dead rank never
    /// comes back), so the eligible set only shrinks and every rank computes
    /// the same shrinking sequence from local board reads.
    fn is_eligible_coordinator(&self, rank: Rank, round: u64) -> bool {
        self.is_alive(rank) && !self.is_departed(rank, round) && !self.is_deposed(rank, round)
    }

    /// Deterministic election: the lowest eligible rank for round `round`,
    /// or `None` when no rank qualifies. Because eligibility is shrink-only,
    /// successive winners within a round have strictly increasing ranks —
    /// the winner's rank doubles as the membership/fencing epoch.
    pub fn elect_coordinator(&self, round: u64) -> Option<Rank> {
        (0..self.alive.len()).find(|&r| self.is_eligible_coordinator(r, round))
    }
}

/// Panic payload carried by a dying rank;
/// [`World::run_faulty`](crate::World::run_faulty) downcasts it to
/// distinguish an injected death from a genuine bug.
#[derive(Debug, Clone, Copy)]
pub struct RankDeath {
    /// The rank that died.
    pub rank: Rank,
    /// Virtual time of death.
    pub at: f64,
}

/// Per-rank fault evaluation state owned by a `Comm`.
pub(crate) struct RankFaults {
    pub(crate) plan: std::sync::Arc<FaultPlan>,
    pub(crate) death_at: Option<f64>,
    /// Per-destination send sequence numbers feeding the message-fate hash.
    pub(crate) seq: RefCell<Vec<u64>>,
    /// This rank's stall windows `(at_s, dur_s)` with a fired flag each —
    /// every stall triggers exactly once.
    pub(crate) stalls: RefCell<Vec<(f64, f64, bool)>>,
    /// Compute slowdown factor applied to every `charge`.
    pub(crate) slow_factor: f64,
}

impl RankFaults {
    /// Fault state of `rank` in a world of `size` ranks under `plan`.
    pub(crate) fn new(plan: std::sync::Arc<FaultPlan>, rank: Rank, size: usize) -> Self {
        let stalls = plan.stalls_for(rank).into_iter().map(|(at, dur)| (at, dur, false)).collect();
        RankFaults {
            death_at: plan.death_time(rank),
            seq: RefCell::new(vec![0; size]),
            stalls: RefCell::new(stalls),
            slow_factor: plan.slow_factor(rank),
            plan,
        }
    }

    /// Next sequence number for a send to `dst`.
    pub(crate) fn next_seq(&self, dst: Rank) -> u64 {
        let mut seq = self.seq.borrow_mut();
        let s = seq[dst];
        seq[dst] += 1;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn death_time_earliest_wins() {
        let plan = FaultPlan::new(1).kill(3, 5.0).kill(3, 2.0).kill(1, 9.0);
        assert_eq!(plan.death_time(3), Some(2.0));
        assert_eq!(plan.death_time(1), Some(9.0));
        assert_eq!(plan.death_time(0), None);
        assert_eq!(plan.doomed_ranks(), vec![1, 3]);
    }

    #[test]
    fn message_fate_is_deterministic_and_seed_sensitive() {
        let plan = FaultPlan::new(42).drop_p2p(ANY_RANK, ANY_RANK, 0.5);
        let fates: Vec<bool> = (0..64).map(|s| plan.message_fate(1, 2, s).is_some()).collect();
        let again: Vec<bool> = (0..64).map(|s| plan.message_fate(1, 2, s).is_some()).collect();
        assert_eq!(fates, again, "same plan, same fates");
        let dropped = fates.iter().filter(|d| !**d).count();
        assert!(dropped > 10 && dropped < 54, "p=0.5 should drop roughly half, got {dropped}");
        let other = FaultPlan::new(43).drop_p2p(ANY_RANK, ANY_RANK, 0.5);
        let other_fates: Vec<bool> =
            (0..64).map(|s| other.message_fate(1, 2, s).is_some()).collect();
        assert_ne!(fates, other_fates, "different seed, different fates");
    }

    #[test]
    fn drop_rules_respect_endpoints() {
        let plan = FaultPlan::new(7).drop_p2p(1, 2, 1.0);
        assert!(plan.message_fate(1, 2, 0).is_none(), "matching pair always dropped at p=1");
        assert!(plan.message_fate(2, 1, 0).is_some(), "reverse direction unaffected");
        assert!(plan.message_fate(0, 2, 0).is_some(), "other source unaffected");
    }

    #[test]
    fn delays_accumulate() {
        let plan = FaultPlan::new(0).delay_p2p(0, 1, 0.25).delay_p2p(ANY_RANK, 1, 0.5);
        assert_eq!(plan.message_fate(0, 1, 0), Some(0.75));
        assert_eq!(plan.message_fate(2, 1, 0), Some(0.5));
        assert_eq!(plan.message_fate(0, 2, 0), Some(0.0));
    }

    #[test]
    fn stall_slow_poison_rules_are_queryable() {
        let plan = FaultPlan::new(5)
            .stall(2, 0.5, 3.0)
            .stall(2, 4.0, 1.0)
            .slow(1, 2.0)
            .slow(1, 1.5)
            .poison(7)
            .poison(3)
            .poison(7);
        assert_eq!(plan.stalls_for(2), vec![(0.5, 3.0), (4.0, 1.0)]);
        assert!(plan.stalls_for(0).is_empty());
        assert_eq!(plan.stalled_ranks(), vec![2]);
        assert_eq!(plan.slow_factor(1), 3.0);
        assert_eq!(plan.slow_factor(0), 1.0);
        assert_eq!(plan.slowed_ranks(), vec![1]);
        assert!(plan.is_poisoned(7) && plan.is_poisoned(3) && !plan.is_poisoned(1));
        assert_eq!(plan.poisoned_units(), vec![3, 7]);
    }

    #[test]
    fn board_eligibility_shrinks_and_elections_are_deterministic() {
        let b = FaultBoard::new(4);
        assert_eq!(b.elect_coordinator(0), Some(0));
        b.mark_dead(0, 1.0);
        assert_eq!(b.elect_coordinator(0), Some(1), "lowest live rank wins");
        // Deposition strikes a live rank from this round's eligibility.
        b.depose(1, 0);
        assert!(b.is_alive(1) && b.is_deposed(1, 0));
        assert_eq!(b.elect_coordinator(0), Some(2));
        // Departure does too, and leaves a manifest behind.
        b.record_departure(2, 0, vec![7, 9]);
        assert!(b.is_departed(2, 0));
        assert_eq!(b.departure_manifest(2, 0), vec![7, 9]);
        assert_eq!(b.elect_coordinator(0), Some(3));
        // A new round starts clean: deposition, departure, and manifests are
        // round-scoped, only deaths are permanent.
        assert!(!b.is_deposed(1, 1) && !b.is_departed(2, 1));
        assert!(b.departure_manifest(2, 1).is_empty());
        assert_eq!(b.elect_coordinator(1), Some(1));
    }

    #[test]
    fn board_tracks_deaths_and_epoch() {
        let b = FaultBoard::new(4);
        assert!(b.is_alive(2));
        assert_eq!(b.epoch(), 0);
        b.mark_dead(2, 1.5);
        b.mark_dead(2, 9.9); // idempotent
        assert!(!b.is_alive(2));
        assert_eq!(b.epoch(), 1);
        assert_eq!(b.alive_count(), 3);
        assert_eq!(b.alive_ranks(), vec![0, 1, 3]);
        // Wildcard/out-of-range ranks read as alive.
        assert!(b.is_alive(crate::comm::ANY_SOURCE));
    }
}
