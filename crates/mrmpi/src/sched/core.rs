//! The master-worker scheduler's decisions as a pure state machine.
//!
//! [`Core`] decides everything the master decides: which pending units a
//! worker gets (with the partition-affinity rule and, with [`Grants`],
//! several units of one key at once), attempts and abort,
//! first-result-wins commit or discard, poison quarantine, reclaiming a
//! dead worker's units, parking, settling, heartbeat suspicion with
//! speculative backups, fencing a silent straggler that lost its race, and
//! a successor's takeover (claims, departed ranks' manifests and the
//! gather barrier). It does no IO and reads no clock: callers pass
//! time in as `now` seconds, feed it inputs and drain its decisions with
//! [`Core::poll`]. The master loop in [`crate::sched`] drives it from
//! mpisim messages on wall-clock seconds, and `perfmodel`'s discrete-event
//! simulator from its event queue on virtual seconds — so the model's
//! scheduler *is* the runtime's scheduler.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// Journal record kind: a unit was handed to a worker.
pub const LOG_DISPATCH: u64 = 1;
/// A completion won its unit; the worker's staged output was published.
pub const LOG_COMMIT: u64 = 2;
/// A completion lost arbitration; its staged output was dropped.
pub const LOG_DISCARD: u64 = 3;
/// The unit exhausted its poison retries and was quarantined.
pub const LOG_QUARANTINE: u64 = 4;
/// A silent straggler was fenced off the run after losing to a backup.
pub const LOG_FENCE: u64 = 5;

/// One journaled master state transition: its `LOG_*` kind, and the unit
/// and worker it concerns. The journal feeds the `sched.*` metrics and the
/// fence; it is not kept, so a successor never sees its predecessor's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    pub kind: u64,
    pub unit: u64,
    pub worker: usize,
}

/// The scheduling policy, in plain seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Policy {
    /// Dispatches of one unit (first included) in one tenure before the run
    /// aborts.
    pub max_attempts: usize,
    /// Panics of one unit in one tenure before it is quarantined (at
    /// least 1).
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

/// What a reply tells a worker to do next: run a grant of one or more
/// units in one execution, or stop because every unit is accounted for, or
/// because the run is abandoned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Code {
    Grant(Vec<u64>),
    Done,
    Abort,
}

/// How many pending units one request may take. A grant starts with the
/// unit a lone request would get and adds pending units of the same `key`
/// that are available now and never panicked, up to the guided size
/// `clamp(pending ÷ (2 × live workers), 1, limit)`: large while the pool is
/// full, one unit in the tail. The default grants one unit.
#[derive(Debug, Clone, Copy, Default)]
pub struct Grants<'a> {
    /// Most units in one grant; 0 or 1 grants one unit per request.
    pub limit: usize,
    /// `key[u]`: the units of one grant share it (e.g. a DB partition);
    /// `None` lets any units share a grant.
    pub key: Option<&'a [usize]>,
}

/// A decision for the driver to carry out, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Out {
    /// Answer `worker`'s latest request (possibly long after it was
    /// parked) with what it runs next and a verdict on each unit the request
    /// reported, in report order.
    Reply { worker: usize, code: Code, verdicts: Vec<Verdict> },
    /// A new journal record; a [`LOG_FENCE`] one says to fence its worker.
    Journal(Record),
    /// `worker` missed its heartbeat deadline with a unit in flight.
    Suspect(usize),
    /// The next reply hands `unit` to `worker`, alone, as a speculative
    /// backup.
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

/// What an elected successor inherits: claims alone. Attempts and
/// quarantines are not carried over, so a successor re-runs a unit its
/// predecessor quarantined at most `poison_retries` times and quarantines
/// it again.
#[derive(Debug, Clone, Default)]
pub struct Takeover {
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
    /// Units queued.
    len: usize,
    /// The latest available-from time of any unit ever queued.
    latest: f64,
}

impl Pool {
    fn push(&mut self, at: f64, unit: u64, bucket: usize) {
        if std::mem::replace(&mut self.queued[unit as usize], true) {
            return;
        }
        self.buckets.entry(bucket).or_default().insert((at.to_bits(), unit));
        self.len += 1;
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
        let (at, unit) = *self.buckets[&bucket].first().expect("ready");
        self.remove(bucket, at, unit);
        Some(unit)
    }

    /// Take up to `max` units available at `now` that satisfy `wanted`, in
    /// bucket order and queue order within a bucket.
    fn take_where(&mut self, now: f64, max: usize, mut wanted: impl FnMut(u64) -> bool) -> Vec<u64> {
        let mut found = Vec::new();
        'scan: for (&bucket, units) in &self.buckets {
            for &(at, unit) in units.range(..=(now.to_bits(), u64::MAX)) {
                if found.len() == max {
                    break 'scan;
                }
                if wanted(unit) {
                    found.push((bucket, at, unit));
                }
            }
        }
        found.into_iter().map(|(bucket, at, unit)| self.remove(bucket, at, unit)).collect()
    }

    fn remove(&mut self, bucket: usize, at: u64, unit: u64) -> u64 {
        let units = self.buckets.get_mut(&bucket).expect("queued bucket");
        units.remove(&(at, unit));
        if units.is_empty() {
            self.buckets.remove(&bucket);
        }
        self.queued[unit as usize] = false;
        self.len -= 1;
        unit
    }
}

/// The master's state for one tenure of the role; see the module docs.
#[derive(Debug, Default)]
pub struct Core<'a> {
    policy: Policy,
    /// Resource each unit needs; `None` serves the pool in queue order.
    affinity: Option<&'a [usize]>,
    grants: Grants<'a>,
    /// Worker ranks at the tenure's start: the guided grant size's divisor,
    /// less the deaths reported since.
    workers: usize,
    pool: Pool,
    /// A result for the unit is committed on a live worker.
    done: Vec<bool>,
    ndone: usize,
    attempts: Vec<usize>,
    /// Panics per unit; at `poison_retries` the unit is quarantined.
    fails: Vec<usize>,
    /// An execution holding the unit panicked, alone or in a grant: from
    /// then on it is dispatched alone, so its strikes are its own.
    tainted: Vec<bool>,
    /// Units given up on as poison, in quarantine order.
    quarantined: Vec<u64>,
    /// The grant each busy worker runs, and how many run each unit.
    inflight: BTreeMap<usize, Vec<u64>>,
    running: Vec<u32>,
    /// Committed units whose output lives on each worker.
    owned: HashMap<usize, Vec<u64>>,
    /// Resource of the unit each worker last received.
    last_resource: HashMap<usize, usize>,
    /// Idle workers and the verdicts owed to each, served in rank order.
    parked: BTreeMap<usize, Vec<Verdict>>,
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
    /// First-contact completions, judged once the gather closes: the
    /// worker, the report's index among its verdicts, and the unit.
    deferred: Vec<(usize, usize, u64)>,
    abort: Option<u64>,
    out: VecDeque<Out>,
}

impl<'a> Core<'a> {
    /// A tenure of the master role over units `0..ntasks` starting at `now`:
    /// the round's first master (every unit queued) when `takeover` is
    /// `None`, else an elected successor that credits the claims and holds
    /// dispatch until every expected worker has made first contact.
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
            tainted: vec![false; ntasks],
            running: vec![0; ntasks],
            ..Core::default()
        };
        let Some(t) = takeover else {
            for unit in 0..ntasks as u64 {
                core.push(now, unit);
            }
            return core;
        };
        for (worker, units) in &t.claims {
            core.claim(*worker, units);
        }
        core.gathering = Some(t.expected);
        core.gathered(None, now);
        core
    }

    /// Hand out grants under `grants` to a fleet of `workers` worker ranks
    /// (instead of one unit per request).
    pub fn with_grants(mut self, grants: Grants<'a>, workers: usize) -> Self {
        self.grants = grants;
        self.workers = workers;
        self
    }

    /// The next decision to carry out, oldest first.
    pub fn poll(&mut self) -> Option<Out> {
        self.out.pop_front()
    }

    /// `worker` asks for work at `now`, reporting each unit of the grant
    /// it just ran (`(unit, true)` clean, `(unit, false)` panicked; empty
    /// when it ran none) and, on its first contact with this master, the
    /// units it has committed. Each reported unit is judged on its own; a
    /// grant of several units that panicked costs them no strike, but each
    /// is dispatched alone from then on. Requests from a worker reported
    /// dead are ignored.
    pub fn request(&mut self, worker: usize, reports: &[(u64, bool)], claims: &[u64], now: f64) {
        if self.dead.contains(&worker) {
            return;
        }
        self.heartbeat(worker, now);
        let first_contact = self.greeted.insert(worker);
        if first_contact {
            self.claim(worker, claims);
        }
        let reports: Vec<(u64, bool)> =
            reports.iter().copied().filter(|r| (r.0 as usize) < self.done.len()).collect();
        let tracked = reports.iter().any(|r| self.inflight.get(&worker).is_some_and(|g| g.contains(&r.0)));
        let grant = if tracked { self.stop(worker) } else { Vec::new() };
        let mut verdicts = Vec::with_capacity(reports.len());
        let mut defer = false;
        for (i, &(unit, clean)) in reports.iter().enumerate() {
            let known = grant.contains(&unit);
            verdicts.push(if !clean {
                if reports.len() > 1 {
                    self.taint(unit, now);
                } else {
                    self.fail(worker, unit, now);
                }
                Verdict::None
            } else if first_contact && !known && self.gathering.is_some() {
                // A completion the previous master never judged: another
                // survivor may yet claim the unit, so judge it once every
                // claim is in, and park the worker until then.
                self.deferred.push((worker, i, unit));
                defer = true;
                Verdict::None
            } else {
                self.arbitrate(worker, unit, known || first_contact, now)
            });
        }
        if defer {
            self.parked.insert(worker, verdicts);
        } else {
            self.serve(worker, verdicts, now);
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

    /// `worker` died (or was fenced) at `now`. Its in-flight grant and every
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
        let mut stuck: BTreeSet<u64> = BTreeSet::new();
        let mut healthy: HashSet<u64> = HashSet::new();
        for (&worker, units) in &self.inflight {
            if self.silent(worker, now) {
                if self.suspected.insert(worker) {
                    self.out.push_back(Out::Suspect(worker));
                }
                stuck.extend(units);
            } else {
                healthy.extend(units);
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
            let Some(&worker) = self.parked.keys().find(|w| !self.suspected.contains(w)) else {
                continue;
            };
            let verdicts = self.parked.remove(&worker).expect("parked");
            if self.attempts[u] < self.policy.max_attempts {
                self.out.push_back(Out::Backup { unit, worker });
            }
            self.dispatch(worker, unit, verdicts, now, false);
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

    /// Has `worker` been reported dead (or fenced)? A dead worker stays dead.
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
        self.out.push_back(Out::Journal(Record { kind, unit, worker }));
    }

    fn reply(&mut self, worker: usize, code: Code, verdicts: Vec<Verdict>) {
        self.out.push_back(Out::Reply { worker, code, verdicts });
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

    /// `worker`'s execution of `unit` alone panicked: retry it, or
    /// quarantine it once it has panicked `poison_retries` times.
    fn fail(&mut self, worker: usize, unit: u64, now: f64) {
        self.tainted[unit as usize] = true;
        self.fails[unit as usize] += 1;
        if self.fails[unit as usize] == self.policy.poison_retries {
            self.quarantined.push(unit);
            self.journal(LOG_QUARANTINE, unit, worker);
        } else if self.should_requeue(unit) {
            self.push(now, unit);
        }
    }

    /// A grant holding `unit` panicked: retry it alone, with no strike.
    fn taint(&mut self, unit: u64, now: f64) {
        self.tainted[unit as usize] = true;
        if self.should_requeue(unit) {
            self.push(now, unit);
        }
    }

    /// Should `unit` go back in the pool? Not if its result is in (or given
    /// up on), not if it is queued, and not while another worker runs it.
    fn should_requeue(&self, unit: u64) -> bool {
        let u = unit as usize;
        !self.done[u] && !self.poisoned(unit) && !self.pool.contains(unit) && self.running[u] == 0
    }

    /// `worker`'s grant stops running; its units.
    fn stop(&mut self, worker: usize) -> Vec<u64> {
        let units = self.inflight.remove(&worker).unwrap_or_default();
        for &unit in &units {
            self.running[unit as usize] -= 1;
        }
        units
    }

    /// Put everything `worker` owned back in the pool, available from `at`.
    fn reclaim(&mut self, worker: usize, at: f64) {
        self.parked.remove(&worker);
        self.deferred.retain(|&(w, _, _)| w != worker);
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

    /// Answer `worker` (owed `verdicts`): a grant, the end of the run, or a
    /// place among the parked until something changes.
    fn serve(&mut self, worker: usize, verdicts: Vec<Verdict>, now: f64) {
        if self.abort.is_some() {
            return self.reply(worker, Code::Abort, verdicts);
        }
        let held = self.affinity.and(self.last_resource.get(&worker).copied());
        while let Some(unit) = self.pool.take(now, held) {
            if !self.done[unit as usize] && !self.poisoned(unit) {
                return self.dispatch(worker, unit, verdicts, now, true);
            }
        }
        if self.settled() {
            self.reply(worker, Code::Done, verdicts);
        } else {
            self.parked.insert(worker, verdicts);
        }
    }

    /// Hand `worker` a grant that starts with `first`, joined (if `grant`)
    /// by the pending units [`Grants`] allows.
    fn dispatch(&mut self, worker: usize, first: u64, verdicts: Vec<Verdict>, now: f64, grant: bool) {
        let u = first as usize;
        self.attempts[u] += 1;
        if self.attempts[u] > self.policy.max_attempts {
            self.abort = Some(first);
            self.reply(worker, Code::Abort, verdicts);
            return self.flush(now);
        }
        let mut units = vec![first];
        if grant {
            units.extend(self.companions(first, now));
        }
        for &unit in &units {
            if unit != first {
                self.attempts[unit as usize] += 1;
            }
            self.running[unit as usize] += 1;
            self.journal(LOG_DISPATCH, unit, worker);
        }
        if let Some(a) = self.affinity {
            self.last_resource.insert(worker, a[u]);
        }
        self.inflight.insert(worker, units.clone());
        self.reply(worker, Code::Grant(units), verdicts);
    }

    /// The pending units that join `first` in a grant: up to the guided
    /// size less one, of `first`'s key, available at `now`, never panicked
    /// and within their attempt budget. None if `first` itself panicked.
    fn companions(&mut self, first: u64, now: f64) -> Vec<u64> {
        let live = self.workers.saturating_sub(self.dead.len()).max(1);
        let k = ((self.pool.len + 1) / (2 * live)).clamp(1, self.grants.limit.max(1));
        if k == 1 || self.tainted[first as usize] {
            return Vec::new();
        }
        let key = self.grants.key;
        let first_key = key.map(|key| key[first as usize]);
        let (done, tainted, attempts) = (&self.done, &self.tainted, &self.attempts);
        let max_attempts = self.policy.max_attempts;
        self.pool.take_where(now, k - 1, |unit| {
            let u = unit as usize;
            key.map(|key| key[u]) == first_key && !done[u] && !tainted[u] && attempts[u] < max_attempts
        })
    }

    /// Re-serve every parked worker, in rank order.
    fn flush(&mut self, now: f64) {
        for (worker, verdicts) in std::mem::take(&mut self.parked) {
            if !self.dead.contains(&worker) {
                self.serve(worker, verdicts, now);
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
        for (worker, i, unit) in std::mem::take(&mut self.deferred) {
            if self.parked.contains_key(&worker) {
                let verdict = self.arbitrate(worker, unit, true, now);
                self.parked.get_mut(&worker).expect("parked")[i] = verdict;
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
            .filter(|&(&w, us)| us.contains(&unit) && w != winner && self.suspected.contains(&w))
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
        outs.iter().any(|o| matches!(o, Out::Reply { code: Code::Grant(us), .. } if us.contains(&unit)))
    }

    /// The verdict on the one unit `worker` reported.
    fn verdict_of(outs: &[Out], worker: usize) -> Option<Verdict> {
        verdicts_of(outs, worker).first().copied()
    }

    fn verdicts_of(outs: &[Out], worker: usize) -> Vec<Verdict> {
        outs.iter()
            .find_map(|o| match o {
                Out::Reply { worker: w, verdicts, .. } if *w == worker => Some(verdicts.clone()),
                _ => None,
            })
            .unwrap_or_default()
    }

    fn grant_of(outs: &[Out], worker: usize) -> Vec<u64> {
        outs.iter()
            .find_map(|o| match o {
                Out::Reply { worker: w, code: Code::Grant(us), .. } if *w == worker => Some(us.clone()),
                _ => None,
            })
            .unwrap_or_default()
    }

    /// A successor (rank 1) awaits ranks 2, 3 and 4. Each reports, on first
    /// contact, its claims and a completion the dead master never judged.
    /// The last contact closes the gather: its completion (unit 9) must be
    /// judged before the pool is rebuilt, or unit 9 is queued, handed to a
    /// parked survivor and committed twice.
    #[test]
    fn successor_judges_the_last_survivors_carried_unit_before_requeueing_it() {
        let takeover = Takeover {
            claims: vec![(1, vec![1, 4])],
            expected: [2, 3, 4].into(),
        };
        let mut core = Core::new(12, policy(), None, Some(takeover), 0.0);
        core.request(2, &[(10, true)], &[2, 6], 0.0);
        core.request(3, &[(7, true)], &[0, 3], 0.0);
        let before = drain(&mut core);
        core.request(4, &[(9, true)], &[5], 0.0);
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
        core.request(2, &[(5, true)], &[], 0.0);
        core.request(3, &[], &[5], 0.0);
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
            core.request(w, &[], &[], 0.0);
        }
        core.request(4, &[], &[], 0.0);
        let outs = drain(&mut core);
        let codes: Vec<(usize, Code)> = outs
            .iter()
            .filter_map(|o| match o {
                Out::Reply { worker, code, .. } => Some((*worker, code.clone())),
                _ => None,
            })
            .collect();
        let grant = |u| Code::Grant(vec![u]);
        assert_eq!(codes, [(2, grant(0)), (1, grant(1)), (3, grant(2))]);
        // Worker 2 dies; its unit goes to the parked worker 4 at once.
        core.death(2, 1.0, 1.0);
        assert!(assigned(&drain(&mut core), 0));
    }

    #[test]
    fn a_reclaimed_unit_waits_for_its_requeue_time() {
        let mut core = Core::new(2, policy(), None, None, 0.0);
        core.request(1, &[], &[], 0.0);
        core.request(2, &[], &[], 0.0);
        core.request(2, &[(1, true)], &[], 1.0);
        drain(&mut core);
        core.death(1, 2.0, 5.0);
        assert!(drain(&mut core).is_empty(), "unit 0 is not available before t=5");
        core.tick(5.0);
        assert!(assigned(&drain(&mut core), 0));
    }

    /// Grants follow the guided size — pending ÷ (2 × live workers), capped
    /// by the limit — take units of the first unit's key only, and shrink to
    /// one unit as the pool drains.
    #[test]
    fn grants_share_a_key_and_shrink_as_the_pool_drains() {
        let key: Vec<usize> = (0..24).map(|u| u / 6).collect();
        let grants = Grants { limit: 4, key: Some(&key) };
        let mut core = Core::new(24, policy(), None, None, 0.0).with_grants(grants, 2);
        core.request(1, &[], &[], 0.0);
        assert_eq!(grant_of(&drain(&mut core), 1), [0, 1, 2, 3], "24 pending: k = min(6, 4)");
        core.request(2, &[], &[], 0.0);
        assert_eq!(grant_of(&drain(&mut core), 2), [4, 5], "only two units of key 0 are left");
        let reports: Vec<(u64, bool)> = (0..4).map(|u| (u, true)).collect();
        core.request(1, &reports, &[], 1.0);
        let outs = drain(&mut core);
        assert_eq!(verdicts_of(&outs, 1), [Verdict::Commit; 4]);
        assert_eq!(grant_of(&outs, 1), [6, 7, 8, 9], "18 pending: k = min(4, 4)");
        assert_eq!(core.committed(1), &[0, 1, 2, 3]);
        // Run both workers to the end: the last grants are single units.
        let mut held = [Vec::new(), grant_of(&outs, 1), vec![4, 5]];
        let mut sizes = Vec::new();
        for step in 0..100 {
            if core.settled() {
                break;
            }
            let w = 1 + step % 2;
            let reports: Vec<(u64, bool)> = held[w].iter().map(|&u| (u, true)).collect();
            core.request(w, &reports, &[], 2.0);
            held[w] = grant_of(&drain(&mut core), w);
            sizes.push(held[w].len());
        }
        assert!(core.settled());
        assert_eq!(sizes.iter().rev().find(|&&n| n > 0), Some(&1), "fine-grained tail: {sizes:?}");
    }

    /// A poison unit inside a grant panics the whole grant. No unit of it
    /// takes a strike; each is retried alone, so only the poison unit
    /// collects strikes and is quarantined, and every other unit commits
    /// once.
    #[test]
    fn a_poison_unit_inside_a_grant_is_the_only_unit_quarantined() {
        let grants = Grants { limit: 4, key: None };
        let mut core = Core::new(8, policy(), None, None, 0.0).with_grants(grants, 1);
        let poison = 2u64;
        let mut report: Vec<(u64, bool)> = Vec::new();
        let mut commits = [0usize; 8];
        let mut first = Vec::new();
        loop {
            core.request(1, &report, &[], 0.0);
            let outs = drain(&mut core);
            for (&(unit, _), v) in report.iter().zip(verdicts_of(&outs, 1)) {
                commits[unit as usize] += usize::from(v == Verdict::Commit);
            }
            let grant = grant_of(&outs, 1);
            if grant.is_empty() {
                break;
            }
            if first.is_empty() {
                first.clone_from(&grant);
            }
            // The grant runs as one execution: the poison unit fails it.
            let clean = !grant.contains(&poison);
            report = grant.iter().map(|&u| (u, clean)).collect();
        }
        assert_eq!(first, [0, 1, 2, 3], "the poison unit starts inside a grant");
        assert_eq!(core.outcome(), Outcome::Finished(vec![poison]));
        for (u, &n) in commits.iter().enumerate() {
            let poisoned = u as u64 == poison;
            assert_eq!(n, usize::from(!poisoned), "unit {u} commits");
            let strikes = if poisoned { policy().poison_retries } else { 0 };
            assert_eq!(core.fails[u], strikes, "unit {u} strikes");
        }
    }

    /// One simulated worker, as the runtime's worker loop keeps it.
    #[derive(Debug, Clone, Default)]
    struct Worker {
        alive: bool,
        /// Units whose commit verdict this worker received.
        mine: Vec<u64>,
        /// The grant it runs.
        running: Option<Vec<u64>>,
        /// A finished execution not yet judged: (unit, clean) per unit.
        carry: Vec<(u64, bool)>,
        /// Its request awaits a reply.
        waiting: bool,
        /// It owes the current master its claims.
        first: bool,
        /// It received `Done`/`Abort`.
        finished: bool,
    }

    /// A world of workers driving one `Core` per master tenure.
    struct World<'a> {
        core: Core<'a>,
        policy: Policy,
        grants: Grants<'a>,
        ntasks: usize,
        workers: Vec<Worker>,
        poison: Vec<bool>,
        /// Committed units held by the acting master, if it was promoted.
        master: Vec<u64>,
        /// Dispatches per unit journaled by the current tenure, and by all.
        attempts: Vec<usize>,
        total: Vec<usize>,
        tenures: usize,
        now: f64,
    }

    impl<'a> World<'a> {
        fn pump(&mut self) {
            while let Some(out) = self.core.poll() {
                match out {
                    Out::Reply { worker, code, verdicts } => {
                        let w = &mut self.workers[worker];
                        assert!(w.alive && w.waiting, "reply to worker {worker}: {w:?}");
                        w.waiting = false;
                        assert_eq!(verdicts.len(), w.carry.len(), "one verdict per reported unit");
                        let carry = std::mem::take(&mut w.carry);
                        for ((unit, clean), verdict) in carry.into_iter().zip(verdicts) {
                            if clean && verdict == Verdict::Commit {
                                w.mine.push(unit);
                            }
                        }
                        match code {
                            Code::Grant(units) => {
                                assert!(!units.is_empty() && units.len() <= self.grants.limit.max(1));
                                w.running = Some(units);
                            }
                            Code::Done | Code::Abort => w.finished = true,
                        }
                    }
                    Out::Journal(rec) if rec.kind == LOG_FENCE => self.kill(rec.worker),
                    Out::Journal(rec) if rec.kind == LOG_DISPATCH => {
                        let u = rec.unit as usize;
                        self.attempts[u] += 1;
                        self.total[u] += 1;
                        // The dispatch that would exceed the tenure's budget
                        // aborts the run instead of being journaled.
                        assert!(self.attempts[u] <= self.policy.max_attempts, "unit {u}");
                    }
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
            let report = w.carry.clone();
            self.core.request(worker, &report, &claims, self.now);
            self.pump();
        }

        /// The worker's grant ends as one execution: a poison unit in it
        /// panics the whole grant.
        fn complete(&mut self, worker: usize) {
            let w = &mut self.workers[worker];
            let units = w.running.take().expect("running");
            let clean = !units.iter().any(|&u| self.poison[u as usize]);
            w.carry = units.into_iter().map(|u| (u, clean)).collect();
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
            // The promoted worker leaves the worker pool for good.
            let promoted = std::mem::take(&mut self.workers[p]);
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
            let takeover = Takeover { claims, expected };
            self.core = Core::new(self.ntasks, self.policy, None, Some(takeover), self.now)
                .with_grants(self.grants, self.workers.len() - 1);
            // Budgets count per tenure: the successor starts its own.
            self.attempts = vec![0; self.ntasks];
            self.tenures += 1;
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
                12 | 13 => {
                    self.now += 0.7;
                    self.core.tick(self.now);
                    self.pump();
                }
                14 if op % 32 == 14 => self.fail_over(),
                _ => {}
            }
        }

        /// Run every live worker to completion. Fence kills bypass the
        /// "keep one alive" guard of `step`, so units may remain with no
        /// live worker left to run them.
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
                    (None, None) => return,
                }
            }
            panic!("the run did not settle");
        }
    }

    /// Drive one seeded interleaving to the end and check its accounting.
    /// Grants hold 1–4 units that share a key (from `key`).
    fn interleaving(
        ntasks: usize,
        nworkers: usize,
        speculate: bool,
        seed: u64,
        key: &[usize],
    ) -> TestCaseResult {
        let mut rng = TestRng::from_seed(seed);
        let grants = Grants { limit: 1 + (seed % 4) as usize, key: Some(key) };
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
            core: Core::new(ntasks, policy, None, None, 0.0).with_grants(grants, nworkers),
            policy,
            grants,
            ntasks,
            workers,
            poison,
            master: Vec::new(),
            attempts: vec![0; ntasks],
            total: vec![0; ntasks],
            tenures: 1,
            now: 0.0,
        };
        for w in 1..=nworkers {
            world.request(w);
        }
        for _ in 0..rng.below(300) {
            world.step(rng.next_u64() as u32);
        }
        world.settle();

        // No tenure ever dispatches a unit past its budget (the attempt that
        // would exceed it aborts the run instead; `pump` checks every
        // tenure), so across tenures a unit is dispatched at most
        // `max_attempts` × tenures times.
        let attempts = &world.attempts;
        prop_assert!(attempts.iter().all(|&a| a <= policy.max_attempts), "{attempts:?}");
        let (total, tenures) = (&world.total, world.tenures);
        let cap = policy.max_attempts * tenures;
        prop_assert!(total.iter().all(|&a| a <= cap), "{total:?} over {tenures} tenures");
        let outcome = world.core.outcome();
        if let Outcome::Aborted(unit) = outcome {
            prop_assert_eq!(attempts[unit as usize], policy.max_attempts);
            return Ok(());
        }
        let mut count = vec![0usize; ntasks];
        let held = world.workers.iter().filter(|w| w.alive).map(|w| &w.mine);
        for unit in held.chain([&world.master]).flatten() {
            count[*unit as usize] += 1;
        }
        let Outcome::Finished(quarantined) = outcome else {
            // Units remain and nobody is left to run them: a dead worker
            // never comes back, so this is the run's real end — but only
            // once no live worker is still unfinished.
            let stranded = world.workers.iter().any(|w| w.alive && !w.finished);
            prop_assert!(!stranded, "run did not settle: {:?}", outcome);
            for (u, (&held, &poison)) in count.iter().zip(&world.poison).enumerate() {
                let q = world.core.quarantined.contains(&(u as u64));
                prop_assert!(held <= 1, "unit {} held {} times", u, held);
                prop_assert!(!q || poison, "unit {} quarantined but not poison", u);
            }
            return Ok(());
        };
        for (u, (&held, &poison)) in count.iter().zip(&world.poison).enumerate() {
            let q = quarantined.contains(&(u as u64));
            prop_assert_eq!(held + q as usize, 1, "unit {} (quarantined {})", u, q);
            prop_assert!(!q || poison, "unit {} quarantined but not poison", u);
        }
        Ok(())
    }

    proptest! {
        #[test]
        /// Random interleavings of requests for grants of 1–4 units, clean
        /// and panicking completions (a poison unit panics its whole grant),
        /// heartbeats, ticks, worker deaths, and master deaths followed by a
        /// takeover from the survivors' claims alone — 32 per case. Every
        /// unit ends committed exactly once on a live worker or
        /// quarantined, none is lost, no tenure dispatches a unit more than
        /// `max_attempts` times without an abort (so no unit is dispatched
        /// more than `max_attempts` × tenures times), and the run settles —
        /// or, when every worker died with units left, no unit is held twice
        /// and only poison is quarantined.
        fn core_commits_every_unit_exactly_once_under_any_interleaving(
            ntasks in 0usize..20,
            nworkers in 1usize..7,
            speculate in any::<bool>(),
            seed in any::<u64>(),
            keys in 1usize..4,
        ) {
            let key: Vec<usize> = (0..ntasks).map(|u| u % keys).collect();
            for k in 0..32 {
                interleaving(ntasks, nworkers, speculate, seed.wrapping_add(k), &key)?;
            }
        }
    }
}
