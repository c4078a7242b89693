//! The master-worker scheduler's decisions as a pure state machine.
//!
//! [`Core`] decides everything the master decides: which pending unit a
//! worker gets (with the partition-affinity rule), attempts and abort,
//! first-result-wins commit or discard, poison quarantine, reclaiming a
//! dead worker's units, parking, settling, heartbeat suspicion with
//! speculative backups, fencing a silent straggler that lost its race, and
//! a successor's takeover (log replay, claims, departed ranks' manifests
//! and the gather barrier). It does no IO and reads no clock: callers pass
//! time in as `now` seconds, feed it inputs and drain its decisions with
//! [`Core::poll`]. The master loop in [`crate::sched`] drives it from
//! mpisim messages on wall-clock seconds, and `perfmodel`'s discrete-event
//! simulator from its event queue on virtual seconds — so the model's
//! scheduler *is* the runtime's scheduler.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// Scheduler-log record kind: a unit was handed to a worker.
pub const LOG_DISPATCH: u64 = 1;
/// A completion won its unit; the worker's staged output was published.
pub const LOG_COMMIT: u64 = 2;
/// A completion lost arbitration; its staged output was dropped.
pub const LOG_DISCARD: u64 = 3;
/// The unit exhausted its poison retries and was quarantined.
pub const LOG_QUARANTINE: u64 = 4;
/// A silent straggler was fenced off the run after losing to a backup.
pub const LOG_FENCE: u64 = 5;

/// One journaled master state transition: log sequence number (strictly
/// increasing within a run), `LOG_*` kind, and the unit and worker it
/// concerns. An elected successor replays the log it inherits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    pub lsn: u64,
    pub kind: u64,
    pub unit: u64,
    pub worker: usize,
}

/// The scheduling policy, in plain seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Policy {
    /// Dispatches of one unit (first included) before the run aborts.
    pub max_attempts: usize,
    /// Panics of one unit before it is quarantined (at least 1).
    pub poison_retries: usize,
    /// Launch speculative backups of units stuck on silent workers.
    pub speculate: bool,
    /// Heartbeat deadline: a busy worker silent this long is suspected.
    pub suspect_after: f64,
    /// Initial gap between backups of one unit; doubles per launch.
    pub spec_backoff: f64,
}

/// The master's judgement of the completion a request reported: none
/// reported; first result for the unit (publish the staged output); or
/// another execution already won it (drop the staged output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    None,
    Commit,
    Discard,
}

/// What a reply tells a worker to do next: run a unit, or stop because
/// every unit is accounted for, or because the run is abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Code {
    Unit(u64),
    Done,
    Abort,
}

/// A decision for the driver to carry out, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Out {
    /// Answer `worker`'s latest request (possibly long after it was
    /// parked) with what it runs next and the verdict on the completion the
    /// request reported.
    Reply { worker: usize, code: Code, verdict: Verdict },
    /// A new scheduler-log record; a [`LOG_FENCE`] one says to fence its
    /// worker.
    Journal(Record),
    /// `worker` missed its heartbeat deadline with a unit in flight.
    Suspect(usize),
    /// The next reply hands `unit` to `worker` as a speculative backup.
    Backup { unit: u64, worker: usize },
}

/// How a tenure of the master role ends: every unit committed or
/// quarantined (the sorted quarantine list), a unit out of dispatch
/// attempts, or units left with no worker to run them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    Finished(Vec<u64>),
    Aborted(u64),
    AllWorkersDead,
}

/// What an elected successor inherits.
#[derive(Debug, Clone, Default)]
pub struct Takeover {
    /// The replicated scheduler log. Only attempts and quarantines are
    /// trusted from it: a journaled commit's output may have died with its
    /// rank, so commits come from claims alone.
    pub log: Vec<Record>,
    /// Committed units per worker known up front (the successor's own,
    /// departed ranks' manifests).
    pub claims: Vec<(usize, Vec<u64>)>,
    /// The gather barrier: live workers whose first contact dispatch waits
    /// for.
    pub expected: BTreeSet<usize>,
}

/// Units waiting for a worker, ordered by (available-from, index), so a
/// reclaimed batch re-queues in unit order. With affinity they are bucketed
/// by resource; without it every unit shares bucket 0. Times are never
/// negative, so their bit patterns order like their values.
#[derive(Debug, Default)]
struct Pool {
    buckets: BTreeMap<usize, BTreeSet<(u64, u64)>>,
    queued: Vec<bool>,
    /// The latest available-from time of any unit ever queued.
    latest: f64,
}

impl Pool {
    fn push(&mut self, at: f64, unit: u64, bucket: usize) {
        if std::mem::replace(&mut self.queued[unit as usize], true) {
            return;
        }
        self.buckets.entry(bucket).or_default().insert((at.to_bits(), unit));
        self.latest = self.latest.max(at);
    }

    fn contains(&self, unit: u64) -> bool {
        self.queued[unit as usize]
    }

    fn ready(&self, now: f64) -> bool {
        self.buckets.values().any(|units| units.first().is_some_and(|k| k.0 <= now.to_bits()))
    }

    /// Take the unit a worker holding resource `held` gets at `now`: the
    /// first available one of its own bucket, else one from the bucket with
    /// the most available units, ties to the earliest-queued unit.
    fn take(&mut self, now: f64, held: Option<usize>) -> Option<u64> {
        type Units = BTreeSet<(u64, u64)>;
        let cutoff = (now.to_bits(), u64::MAX);
        let ready = |units: &Units| units.first().is_some_and(|k| k.0 <= cutoff.0);
        let all = self.latest <= now;
        let available = |u: &Units| if all { u.len() } else { u.range(..=cutoff).count() };
        let bucket = match held {
            Some(b) if self.buckets.get(&b).is_some_and(ready) => b,
            _ => self
                .buckets
                .iter()
                .filter(|(_, units)| ready(units))
                .max_by_key(|(_, units)| (available(units), std::cmp::Reverse(units.first())))
                .map(|(&b, _)| b)?,
        };
        let units = self.buckets.get_mut(&bucket).expect("chosen bucket");
        let (_, unit) = units.pop_first().expect("ready");
        if units.is_empty() {
            self.buckets.remove(&bucket);
        }
        self.queued[unit as usize] = false;
        Some(unit)
    }
}

/// The master's state for one tenure of the role; see the module docs.
#[derive(Debug, Default)]
pub struct Core<'a> {
    policy: Policy,
    /// Resource each unit needs; `None` serves the pool in queue order.
    affinity: Option<&'a [usize]>,
    pool: Pool,
    /// A result for the unit is committed on a live worker.
    done: Vec<bool>,
    ndone: usize,
    attempts: Vec<usize>,
    /// Panics per unit; at `poison_retries` the unit is quarantined.
    fails: Vec<usize>,
    /// Units given up on as poison, in quarantine order.
    quarantined: Vec<u64>,
    /// The unit each busy worker runs, and how many run each unit.
    inflight: BTreeMap<usize, u64>,
    running: Vec<u32>,
    /// Committed units whose output lives on each worker.
    owned: HashMap<usize, Vec<u64>>,
    /// Resource of the unit each worker last received.
    last_resource: HashMap<usize, usize>,
    /// Idle workers and the verdict owed to each, served in rank order.
    parked: BTreeMap<usize, Verdict>,
    /// When each worker was last heard from.
    last_heard: HashMap<usize, f64>,
    suspected: BTreeSet<usize>,
    /// Per-unit backup gate: earliest next launch and the current backoff.
    spec_next: HashMap<u64, (f64, f64)>,
    dead: HashSet<usize>,
    /// Workers that made first contact this tenure.
    greeted: HashSet<usize>,
    /// A successor's gather barrier; `None` once dispatch is open.
    gathering: Option<BTreeSet<usize>>,
    /// First-contact completions, judged once the gather closes.
    deferred: Vec<(usize, u64)>,
    log: Vec<Record>,
    abort: Option<u64>,
    out: VecDeque<Out>,
}

impl<'a> Core<'a> {
    /// A tenure of the master role over units `0..ntasks` starting at `now`:
    /// the round's first master (every unit queued) when `takeover` is
    /// `None`, else an elected successor that replays the log, credits the
    /// claims and holds dispatch until every expected worker has made
    /// first contact.
    pub fn new(
        ntasks: usize,
        policy: Policy,
        affinity: Option<&'a [usize]>,
        takeover: Option<Takeover>,
        now: f64,
    ) -> Self {
        let mut core = Core {
            policy: Policy { poison_retries: policy.poison_retries.max(1), ..policy },
            affinity,
            pool: Pool { queued: vec![false; ntasks], latest: now, ..Pool::default() },
            done: vec![false; ntasks],
            attempts: vec![0; ntasks],
            fails: vec![0; ntasks],
            running: vec![0; ntasks],
            ..Core::default()
        };
        let Some(t) = takeover else {
            for unit in 0..ntasks as u64 {
                core.push(now, unit);
            }
            return core;
        };
        for rec in &t.log {
            let unit = rec.unit as usize;
            if unit < ntasks {
                match rec.kind {
                    LOG_DISPATCH => core.attempts[unit] += 1,
                    LOG_QUARANTINE if !core.poisoned(rec.unit) => {
                        core.fails[unit] = core.policy.poison_retries;
                        core.quarantined.push(rec.unit);
                    }
                    _ => {}
                }
            }
        }
        core.log = t.log;
        for (worker, units) in &t.claims {
            core.claim(*worker, units);
        }
        core.gathering = Some(t.expected);
        core.gathered(None, now);
        core
    }

    /// The next decision to carry out, oldest first.
    pub fn poll(&mut self) -> Option<Out> {
        self.out.pop_front()
    }

    /// `worker` asks for work at `now`, reporting the unit it just ran
    /// (`Some((unit, true))` clean, `Some((unit, false))` panicked) and, on
    /// its first contact with this master, the units it has committed.
    /// Requests from a worker reported dead are ignored.
    pub fn request(&mut self, worker: usize, report: Option<(u64, bool)>, claims: &[u64], now: f64) {
        if self.dead.contains(&worker) {
            return;
        }
        self.heartbeat(worker, now);
        let first_contact = self.greeted.insert(worker);
        if first_contact {
            self.claim(worker, claims);
        }
        let mut verdict = Some(Verdict::None);
        if let Some((unit, clean)) = report.filter(|r| (r.0 as usize) < self.done.len()) {
            let tracked = self.inflight.get(&worker) == Some(&unit);
            if tracked {
                self.stop(worker);
            }
            verdict = if !clean {
                self.fail(worker, unit, now);
                Some(Verdict::None)
            } else if first_contact && !tracked && self.gathering.is_some() {
                // A completion the previous master never judged: another
                // survivor may yet claim the unit, so judge it once every
                // claim is in, and park the worker until then.
                self.deferred.push((worker, unit));
                None
            } else {
                Some(self.arbitrate(worker, unit, tracked || first_contact, now))
            };
        }
        match verdict {
            Some(v) => self.serve(worker, v, now),
            None => drop(self.parked.insert(worker, Verdict::None)),
        }
        if first_contact {
            self.gathered(Some(worker), now);
        }
        self.wake(now);
    }

    /// A sign of life from `worker` at `at`; lifts any suspicion.
    pub fn heartbeat(&mut self, worker: usize, at: f64) {
        self.last_heard.insert(worker, at);
        self.suspected.remove(&worker);
    }

    /// `worker` died (or was fenced) at `now`. Its in-flight unit and every
    /// unit it committed (the output died with it) go back to the pool,
    /// available from `requeue_at` (a model with a detection delay passes a
    /// later time than `now`). Repeated reports are ignored.
    pub fn death(&mut self, worker: usize, now: f64, requeue_at: f64) {
        if !self.dead.insert(worker) {
            return;
        }
        self.suspected.remove(&worker);
        self.reclaim(worker, requeue_at);
        self.gathered(Some(worker), now);
        self.wake(now);
    }

    /// `worker` died and came back as a fresh incarnation: reclaim what the
    /// old one owned; the new one owes a fresh first contact.
    pub fn rejoin(&mut self, worker: usize, now: f64) {
        self.dead.remove(&worker);
        self.greeted.remove(&worker);
        self.heartbeat(worker, now);
        self.reclaim(worker, now);
        self.wake(now);
    }

    /// `worker`, awaited by the gather barrier, departed cleanly and left
    /// the manifest of its committed units instead of a claim contact.
    pub fn depart(&mut self, worker: usize, manifest: &[u64], now: f64) {
        if self.gathering.as_ref().is_some_and(|g| g.contains(&worker)) {
            self.claim(worker, manifest);
            self.gathered(Some(worker), now);
            self.wake(now);
        }
    }

    /// Periodic step: serve parked workers if units became available, then
    /// suspect silent busy workers and, with speculation, back up each unit
    /// that runs only on suspected workers on an idle trusted worker, gated
    /// by the unit's doubling backoff.
    pub fn tick(&mut self, now: f64) {
        self.wake(now);
        if !self.policy.speculate {
            return;
        }
        let mut stuck = BTreeSet::new();
        let mut healthy = HashSet::new();
        for (&worker, &unit) in &self.inflight {
            if self.silent(worker, now) {
                if self.suspected.insert(worker) {
                    self.out.push_back(Out::Suspect(worker));
                }
                stuck.insert(unit);
            } else {
                healthy.insert(unit);
            }
        }
        for unit in stuck {
            let u = unit as usize;
            if healthy.contains(&unit) || self.done[u] || self.poisoned(unit) || self.pool.contains(unit) {
                continue;
            }
            let (gate, backoff) =
                self.spec_next.get(&unit).copied().unwrap_or((now, self.policy.spec_backoff));
            if now < gate {
                continue;
            }
            let Some((&worker, &verdict)) =
                self.parked.iter().find(|(w, _)| !self.suspected.contains(w))
            else {
                continue;
            };
            self.parked.remove(&worker);
            if self.attempts[u] < self.policy.max_attempts {
                self.out.push_back(Out::Backup { unit, worker });
            }
            self.dispatch(worker, unit, verdict, now);
            if self.abort.is_some() {
                return;
            }
            self.spec_next.insert(unit, (now + backoff, backoff * 2.0));
        }
    }

    /// Every unit is committed on a live worker or quarantined.
    pub fn settled(&self) -> bool {
        self.ndone + self.quarantined.len() == self.done.len()
    }

    /// Nothing can still be executing: settled, or aborted with nothing in
    /// flight.
    pub fn drained(&self) -> bool {
        self.settled() || (self.abort.is_some() && self.inflight.is_empty())
    }

    /// How the tenure ends if it ends now.
    pub fn outcome(&self) -> Outcome {
        match self.abort {
            Some(unit) => Outcome::Aborted(unit),
            None if self.settled() => {
                let mut q = self.quarantined.clone();
                q.sort_unstable();
                Outcome::Finished(q)
            }
            None => Outcome::AllWorkersDead,
        }
    }

    /// Has `worker` been reported dead (or fenced) and not rejoined?
    pub fn is_dead(&self, worker: usize) -> bool {
        self.dead.contains(&worker)
    }

    /// Workers the gather barrier still waits for.
    pub fn awaiting(&self) -> impl Iterator<Item = usize> + '_ {
        self.gathering.iter().flatten().copied()
    }

    /// Units committed on `worker`, in commit order.
    pub fn committed(&self, worker: usize) -> &[u64] {
        self.owned.get(&worker).map_or(&[], Vec::as_slice)
    }

    /// The scheduler log: the replayed prefix plus this tenure's records.
    pub fn log(&self) -> &[Record] {
        &self.log
    }

    /// Queue `unit`, available from `at`. While a successor gathers,
    /// dispatch stays closed: the gather's close queues every unit that no
    /// claim accounts for.
    fn push(&mut self, at: f64, unit: u64) {
        if self.gathering.is_some() {
            return;
        }
        let bucket = self.affinity.map_or(0, |a| a[unit as usize]);
        self.pool.push(at, unit, bucket);
    }

    fn journal(&mut self, kind: u64, unit: u64, worker: usize) {
        let lsn = self.log.last().map_or(0, |r| r.lsn + 1);
        let rec = Record { lsn, kind, unit, worker };
        self.log.push(rec);
        self.out.push_back(Out::Journal(rec));
    }

    fn reply(&mut self, worker: usize, code: Code, verdict: Verdict) {
        self.out.push_back(Out::Reply { worker, code, verdict });
    }

    fn poisoned(&self, unit: u64) -> bool {
        self.fails[unit as usize] >= self.policy.poison_retries
    }

    /// Has busy `worker` been silent past the heartbeat deadline?
    fn silent(&self, worker: usize, now: f64) -> bool {
        self.last_heard.get(&worker).is_none_or(|t| t + self.policy.suspect_after <= now)
    }

    /// Credit `worker` with committed `units` it claims (or left behind).
    fn claim(&mut self, worker: usize, units: &[u64]) {
        for &unit in units {
            if (unit as usize) < self.done.len() && !self.done[unit as usize] {
                self.commit(worker, unit);
            }
        }
    }

    fn commit(&mut self, worker: usize, unit: u64) {
        self.done[unit as usize] = true;
        self.ndone += 1;
        self.owned.entry(worker).or_default().push(unit);
        self.journal(LOG_COMMIT, unit, worker);
    }

    /// First result wins: commit a clean completion of `unit` by `worker`
    /// when it is `known` (tracked in flight, or carried across a failover)
    /// and nothing has won the unit yet; otherwise discard it.
    fn arbitrate(&mut self, worker: usize, unit: u64, known: bool, now: f64) -> Verdict {
        let u = unit as usize;
        if known && !self.done[u] && !self.poisoned(unit) {
            self.commit(worker, unit);
            self.fence_silent_losers(unit, worker, now);
            Verdict::Commit
        } else {
            self.journal(LOG_DISCARD, unit, worker);
            Verdict::Discard
        }
    }

    /// `worker`'s execution of `unit` panicked: retry it, or quarantine it
    /// once it has panicked `poison_retries` times.
    fn fail(&mut self, worker: usize, unit: u64, now: f64) {
        self.fails[unit as usize] += 1;
        if self.fails[unit as usize] == self.policy.poison_retries {
            self.quarantined.push(unit);
            self.journal(LOG_QUARANTINE, unit, worker);
        } else if self.should_requeue(unit) {
            self.push(now, unit);
        }
    }

    /// Should `unit` go back in the pool? Not if its result is in (or given
    /// up on), not if it is queued, and not while another worker runs it.
    fn should_requeue(&self, unit: u64) -> bool {
        let u = unit as usize;
        !self.done[u] && !self.poisoned(unit) && !self.pool.contains(unit) && self.running[u] == 0
    }

    fn stop(&mut self, worker: usize) -> Option<u64> {
        let unit = self.inflight.remove(&worker)?;
        self.running[unit as usize] -= 1;
        Some(unit)
    }

    /// Put everything `worker` owned back in the pool, available from `at`.
    fn reclaim(&mut self, worker: usize, at: f64) {
        self.parked.remove(&worker);
        self.deferred.retain(|&(w, _)| w != worker);
        let inflight = self.stop(worker);
        let lost = self.owned.remove(&worker).unwrap_or_default();
        for &unit in &lost {
            self.done[unit as usize] = false;
            self.ndone -= 1;
        }
        for unit in lost.into_iter().chain(inflight) {
            if self.should_requeue(unit) {
                self.push(at, unit);
            }
        }
    }

    /// Answer `worker` (owed `verdict`): a unit, the end of the run, or a
    /// place among the parked until something changes.
    fn serve(&mut self, worker: usize, verdict: Verdict, now: f64) {
        if self.abort.is_some() {
            return self.reply(worker, Code::Abort, verdict);
        }
        let held = self.affinity.and(self.last_resource.get(&worker).copied());
        while let Some(unit) = self.pool.take(now, held) {
            if !self.done[unit as usize] && !self.poisoned(unit) {
                return self.dispatch(worker, unit, verdict, now);
            }
        }
        if self.settled() {
            self.reply(worker, Code::Done, verdict);
        } else {
            self.parked.insert(worker, verdict);
        }
    }

    fn dispatch(&mut self, worker: usize, unit: u64, verdict: Verdict, now: f64) {
        let u = unit as usize;
        self.attempts[u] += 1;
        if self.attempts[u] > self.policy.max_attempts {
            self.abort = Some(unit);
            self.reply(worker, Code::Abort, verdict);
            return self.flush(now);
        }
        self.inflight.insert(worker, unit);
        self.running[u] += 1;
        if let Some(a) = self.affinity {
            self.last_resource.insert(worker, a[u]);
        }
        self.journal(LOG_DISPATCH, unit, worker);
        self.reply(worker, Code::Unit(unit), verdict);
    }

    /// Re-serve every parked worker, in rank order.
    fn flush(&mut self, now: f64) {
        for (worker, verdict) in std::mem::take(&mut self.parked) {
            if !self.dead.contains(&worker) {
                self.serve(worker, verdict, now);
            }
        }
    }

    /// Re-serve the parked workers if the run ended or units are available.
    fn wake(&mut self, now: f64) {
        if !self.parked.is_empty()
            && (self.abort.is_some() || self.settled() || self.pool.ready(now))
        {
            self.flush(now);
        }
    }

    /// `worker` made first contact, died or departed: once the gather
    /// barrier waits for nobody, arbitrate the deferred completions, queue
    /// everything still unaccounted for in unit order, and open dispatch.
    fn gathered(&mut self, worker: Option<usize>, now: f64) {
        let Some(expected) = &mut self.gathering else { return };
        if let Some(w) = worker {
            expected.remove(&w);
        }
        if !expected.is_empty() {
            return;
        }
        self.gathering = None;
        for (worker, unit) in std::mem::take(&mut self.deferred) {
            if self.parked.contains_key(&worker) {
                let verdict = self.arbitrate(worker, unit, true, now);
                self.parked.insert(worker, verdict);
            }
        }
        for unit in 0..self.done.len() as u64 {
            if self.should_requeue(unit) {
                self.push(now, unit);
            }
        }
        self.flush(now);
    }

    /// A backup just won `unit`: fence every still-silent suspected worker
    /// running the same unit, and reclaim what it committed. The winner is
    /// alive, so this never removes the last worker.
    fn fence_silent_losers(&mut self, unit: u64, winner: usize, now: f64) {
        if !self.policy.speculate || self.running[unit as usize] == 0 {
            return;
        }
        let losers: Vec<usize> = self
            .inflight
            .iter()
            .filter(|&(&w, &u)| u == unit && w != winner && self.suspected.contains(&w))
            .map(|(&w, _)| w)
            .collect();
        for worker in losers {
            if self.silent(worker, now) && !self.dead.contains(&worker) {
                self.journal(LOG_FENCE, unit, worker);
                self.dead.insert(worker);
                self.suspected.remove(&worker);
                self.reclaim(worker, now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    fn policy() -> Policy {
        Policy {
            max_attempts: 8,
            poison_retries: 3,
            speculate: false,
            suspect_after: 1.0,
            spec_backoff: 1.0,
        }
    }

    fn drain(core: &mut Core) -> Vec<Out> {
        std::iter::from_fn(|| core.poll()).collect()
    }

    fn assigned(outs: &[Out], unit: u64) -> bool {
        outs.iter().any(|o| matches!(o, Out::Reply { code: Code::Unit(u), .. } if *u == unit))
    }

    fn verdict_of(outs: &[Out], worker: usize) -> Option<Verdict> {
        outs.iter().find_map(|o| match o {
            Out::Reply { worker: w, verdict, .. } if *w == worker => Some(*verdict),
            _ => None,
        })
    }

    /// A successor (rank 1) awaits ranks 2, 3 and 4. Each reports, on first
    /// contact, its claims and a completion the dead master never judged.
    /// The last contact closes the gather: its completion (unit 9) must be
    /// judged before the pool is rebuilt, or unit 9 is queued, handed to a
    /// parked survivor and committed twice.
    #[test]
    fn successor_judges_the_last_survivors_carried_unit_before_requeueing_it() {
        let takeover = Takeover {
            log: Vec::new(),
            claims: vec![(1, vec![1, 4])],
            expected: [2, 3, 4].into(),
        };
        let mut core = Core::new(12, policy(), None, Some(takeover), 0.0);
        core.request(2, Some((10, true)), &[2, 6], 0.0);
        core.request(3, Some((7, true)), &[0, 3], 0.0);
        let before = drain(&mut core);
        core.request(4, Some((9, true)), &[5], 0.0);
        let after = drain(&mut core);
        assert!(!assigned(&before, 9) && !assigned(&after, 9), "{after:?}");
        assert_eq!(core.committed(4), &[5, 9]);
        for w in [2, 3] {
            assert_eq!(verdict_of(&after, w), Some(Verdict::Commit), "worker {w}");
        }
    }

    /// Claims beat carried completions: a backup (rank 3) committed unit 5
    /// under the dead master while the straggler (rank 2) finished it too.
    /// The straggler's carried copy reaches the successor first, but is
    /// judged only after rank 3's claim arrives — and discarded.
    #[test]
    fn carried_completion_loses_to_a_claim_that_arrives_later() {
        let takeover = Takeover { expected: [2, 3].into(), ..Takeover::default() };
        let mut core = Core::new(8, policy(), None, Some(takeover), 0.0);
        core.request(2, Some((5, true)), &[], 0.0);
        core.request(3, None, &[5], 0.0);
        let outs = drain(&mut core);
        assert_eq!(verdict_of(&outs, 2), Some(Verdict::Discard));
        assert_eq!(core.committed(3), &[5]);
        assert!(core.committed(2).is_empty());
        assert!(!assigned(&outs, 5));
    }

    #[test]
    fn fault_free_dispatch_is_fifo_and_parks_in_rank_order() {
        let mut core = Core::new(3, policy(), None, None, 0.0);
        for w in [2, 1, 3] {
            core.request(w, None, &[], 0.0);
        }
        core.request(4, None, &[], 0.0);
        let outs = drain(&mut core);
        let codes: Vec<(usize, Code)> = outs
            .iter()
            .filter_map(|o| match o {
                Out::Reply { worker, code, .. } => Some((*worker, *code)),
                _ => None,
            })
            .collect();
        assert_eq!(codes, [(2, Code::Unit(0)), (1, Code::Unit(1)), (3, Code::Unit(2))]);
        // Worker 2 dies; its unit goes to the parked worker 4 at once.
        core.death(2, 1.0, 1.0);
        assert!(assigned(&drain(&mut core), 0));
    }

    #[test]
    fn a_reclaimed_unit_waits_for_its_requeue_time() {
        let mut core = Core::new(2, policy(), None, None, 0.0);
        core.request(1, None, &[], 0.0);
        core.request(2, None, &[], 0.0);
        core.request(2, Some((1, true)), &[], 1.0);
        drain(&mut core);
        core.death(1, 2.0, 5.0);
        assert!(drain(&mut core).is_empty(), "unit 0 is not available before t=5");
        core.tick(5.0);
        assert!(assigned(&drain(&mut core), 0));
    }

    /// One simulated worker, as the runtime's worker loop keeps it.
    #[derive(Debug, Clone, Default)]
    struct Worker {
        alive: bool,
        /// Units whose commit verdict this worker received.
        mine: Vec<u64>,
        /// The unit it runs.
        running: Option<u64>,
        /// A finished execution not yet judged: (unit, clean).
        carry: Option<(u64, bool)>,
        /// Its request awaits a reply.
        waiting: bool,
        /// It owes the current master its claims.
        first: bool,
        /// It received `Done`/`Abort`.
        finished: bool,
        /// It was promoted to master and left the worker pool for good.
        promoted: bool,
    }

    /// A world of workers driving one `Core` per master tenure.
    struct World<'a> {
        core: Core<'a>,
        policy: Policy,
        ntasks: usize,
        workers: Vec<Worker>,
        poison: Vec<bool>,
        /// Committed units held by the acting master, if it was promoted.
        master: Vec<u64>,
        now: f64,
    }

    impl<'a> World<'a> {
        fn pump(&mut self) {
            while let Some(out) = self.core.poll() {
                match out {
                    Out::Reply { worker, code, verdict } => {
                        let w = &mut self.workers[worker];
                        assert!(w.alive && w.waiting, "reply to worker {worker}: {w:?}");
                        w.waiting = false;
                        if let Some((unit, true)) = w.carry.take() {
                            if verdict == Verdict::Commit {
                                w.mine.push(unit);
                            }
                        }
                        match code {
                            Code::Unit(unit) => w.running = Some(unit),
                            Code::Done | Code::Abort => w.finished = true,
                        }
                    }
                    Out::Journal(rec) if rec.kind == LOG_FENCE => self.kill(rec.worker),
                    _ => {}
                }
            }
        }

        fn kill(&mut self, worker: usize) {
            self.workers[worker] = Worker::default();
            self.core.death(worker, self.now, self.now);
            self.pump();
        }

        /// A live, unfinished worker asks for work.
        fn request(&mut self, worker: usize) {
            let w = &mut self.workers[worker];
            let claims = if std::mem::take(&mut w.first) { w.mine.clone() } else { Vec::new() };
            w.waiting = true;
            let report = w.carry;
            self.core.request(worker, report, &claims, self.now);
            self.pump();
        }

        fn complete(&mut self, worker: usize) {
            let w = &mut self.workers[worker];
            let unit = w.running.take().expect("running");
            w.carry = Some((unit, !self.poison[unit as usize]));
            self.request(worker);
        }

        /// The master dies with what it committed; the lowest live worker
        /// takes over, dropping its own unjudged completion, and the others
        /// re-register.
        fn fail_over(&mut self) {
            let live: Vec<usize> = (0..self.workers.len())
                .filter(|&w| self.workers[w].alive && !self.workers[w].finished)
                .collect();
            let [p, _, ..] = live[..] else { return };
            let promoted = std::mem::replace(
                &mut self.workers[p],
                Worker { promoted: true, ..Worker::default() },
            );
            self.master = promoted.mine.clone();
            let mut claims = vec![(p, promoted.mine)];
            let mut expected = BTreeSet::new();
            for (r, w) in self.workers.iter_mut().enumerate() {
                if w.alive && w.finished {
                    claims.push((r, w.mine.clone()));
                } else if w.alive {
                    expected.insert(r);
                    w.first = true;
                }
            }
            let log = self.core.log().to_vec();
            let takeover = Takeover { log, claims, expected };
            self.core = Core::new(self.ntasks, self.policy, None, Some(takeover), self.now);
            for r in 0..self.workers.len() {
                // An unanswered request is re-sent to the new master.
                if self.workers[r].waiting {
                    self.request(r);
                }
            }
            self.pump();
        }

        fn step(&mut self, op: u32) {
            let n = self.workers.len();
            let w = (op >> 8) as usize % n;
            let w_ok = self.workers[w].alive && !self.workers[w].finished;
            match op % 16 {
                0..=5 if w_ok && self.workers[w].running.is_some() => self.complete(w),
                6..=8 if w_ok && !self.workers[w].waiting && self.workers[w].running.is_none() => {
                    self.request(w)
                }
                9 if w_ok => {
                    self.now += 0.3;
                    self.core.heartbeat(w, self.now);
                }
                10 if w_ok && self.workers.iter().filter(|x| x.alive).count() > 1 => self.kill(w),
                11 if !self.workers[w].alive && !self.workers[w].promoted => self.restart(w),
                12 | 13 => {
                    self.now += 0.7;
                    self.core.tick(self.now);
                    self.pump();
                }
                14 if op % 32 == 14 => self.fail_over(),
                _ => {}
            }
        }

        /// A fresh incarnation of `worker`, with nothing committed.
        fn restart(&mut self, worker: usize) {
            self.workers[worker] = Worker { alive: true, ..Worker::default() };
            self.core.rejoin(worker, self.now);
            self.pump();
            self.request(worker);
        }

        /// Run every live worker to completion, restarting a dead one when
        /// units remain and nobody is left to run them.
        fn settle(&mut self) {
            for _ in 0..100_000 {
                let busy = (0..self.workers.len()).find(|&w| {
                    let x = &self.workers[w];
                    x.alive && !x.finished && x.running.is_some()
                });
                let idle = (0..self.workers.len()).find(|&w| {
                    let x = &self.workers[w];
                    x.alive && !x.finished && !x.waiting && x.running.is_none()
                });
                match (busy, idle) {
                    (Some(w), _) => self.complete(w),
                    (None, Some(w)) => self.request(w),
                    (None, None) => {
                        let dead = (0..self.workers.len())
                            .find(|&w| !self.workers[w].alive && !self.workers[w].promoted);
                        match dead {
                            Some(w) if !self.core.drained() => self.restart(w),
                            _ => return,
                        }
                    }
                }
            }
            panic!("the run did not settle");
        }
    }

    /// Drive one seeded interleaving to the end and check its accounting.
    fn interleaving(ntasks: usize, nworkers: usize, speculate: bool, seed: u64) -> TestCaseResult {
        let mut rng = TestRng::from_seed(seed);
        let policy = Policy {
            max_attempts: 4 + (seed % 5) as usize,
            poison_retries: 1 + (seed % 4) as usize,
            speculate,
            suspect_after: 1.0,
            spec_backoff: 0.5,
        };
        let poison: Vec<bool> = (0..ntasks).map(|_| rng.below(8) == 0).collect();
        // Worker 0 stands in for the first master; workers are 1..=n.
        let mut workers = vec![Worker::default(); nworkers + 1];
        for w in &mut workers[1..] {
            *w = Worker { alive: true, ..Worker::default() };
        }
        let mut world = World {
            core: Core::new(ntasks, policy, None, None, 0.0),
            policy,
            ntasks,
            workers,
            poison,
            master: Vec::new(),
            now: 0.0,
        };
        for w in 1..=nworkers {
            world.request(w);
        }
        for _ in 0..rng.below(300) {
            world.step(rng.next_u64() as u32);
        }
        world.settle();

        let mut attempts = vec![0usize; ntasks];
        for rec in world.core.log().iter().filter(|r| r.kind == LOG_DISPATCH) {
            attempts[rec.unit as usize] += 1;
        }
        // No unit is ever dispatched past its budget; the attempt that
        // would exceed it aborts the run instead.
        prop_assert!(attempts.iter().all(|&a| a <= policy.max_attempts), "{attempts:?}");
        let outcome = world.core.outcome();
        if let Outcome::Aborted(unit) = outcome {
            prop_assert_eq!(attempts[unit as usize], policy.max_attempts);
            return Ok(());
        }
        let Outcome::Finished(quarantined) = outcome else {
            return Err(TestCaseError::fail(format!("run did not settle: {outcome:?}")));
        };
        let mut count = vec![0usize; ntasks];
        let held = world.workers.iter().filter(|w| w.alive).map(|w| &w.mine);
        for unit in held.chain([&world.master]).flatten() {
            count[*unit as usize] += 1;
        }
        for u in 0..ntasks {
            let q = quarantined.contains(&(u as u64));
            prop_assert_eq!(count[u] + q as usize, 1, "unit {} (quarantined {})", u, q);
            prop_assert!(!q || world.poison[u], "unit {} quarantined but not poison", u);
        }
        Ok(())
    }

    proptest! {
        #[test]
        /// Random interleavings of requests, clean and panicking
        /// completions, heartbeats, ticks, worker deaths and restarts, and
        /// master deaths followed by a takeover that replays the log and
        /// gathers the survivors' claims — 32 per case. Every unit ends
        /// committed exactly once on a live worker or quarantined, none is
        /// lost, no unit is dispatched more than `max_attempts` times
        /// without an abort, and the run settles.
        fn core_commits_every_unit_exactly_once_under_any_interleaving(
            ntasks in 0usize..20,
            nworkers in 1usize..7,
            speculate in any::<bool>(),
            seed in any::<u64>(),
        ) {
            for k in 0..32 {
                interleaving(ntasks, nworkers, speculate, seed.wrapping_add(k))?;
            }
        }
    }
}
