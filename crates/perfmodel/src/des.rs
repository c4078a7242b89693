//! Deterministic discrete-event simulation of the work-unit schedules.
//!
//! Models the three mechanisms the paper's BLAST scaling discussion rests
//! on (§IV.A):
//!
//! 1. **dynamic master-worker dispatch** — work units handed to whichever
//!    worker frees up first, rank 0 dedicated to the master role;
//! 2. **per-node partition RAM caching** — a node that has loaded a DB
//!    partition before re-maps it from page cache ("the memory mapped DB
//!    partitions stay cached in RAM after being loaded upon the first read
//!    access"), with LRU eviction under the node's RAM budget;
//! 3. **tail idling** — "the entire MPI program then has to wait for that
//!    longest unit of work to finish".
//!
//! [`simulate_master_worker`] is one event loop driving the runtime's own
//! scheduler core, `mrmpi::sched::core::Core`: every dispatch, requeue,
//! verdict, backup and fence it simulates is that core's decision. Its
//! [`Conditions`] add what the runtime survives, alone or combined:
//! partition-affinity dispatch, fail-stop worker deaths, stragglers with
//! speculative backups, and a master death with failover.
//!
//! Static schedules (round-robin / chunk) are simulated for the HTC and
//! mapstyle-ablation comparisons.

use crate::cluster::ClusterModel;
use mrmpi::sched::core::{Code, Core, Out, Policy, Takeover, Verdict, LOG_FENCE};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

/// One work unit: the DB partition it needs and its search compute cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task {
    /// DB partition index this task scans.
    pub part: usize,
    /// Search (engine) time in seconds, excluding partition load.
    pub cost_s: f64,
}

/// Static scheduling policy (all cores compute; see [`simulate_static`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Task `t` on worker `t % workers`.
    RoundRobin,
    /// Contiguous task ranges.
    Chunk,
}

/// Result of one simulated run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Wall clock of the whole run in seconds.
    pub makespan_s: f64,
    /// Per-worker total search seconds.
    pub worker_busy: Vec<f64>,
    /// Per-worker search intervals (start, end) for utilization curves.
    pub busy_intervals: Vec<Vec<(f64, f64)>>,
    /// Partition loads that missed every cache (cold, from Lustre).
    pub cold_loads: u64,
    /// Partition loads served from the node page cache (warm re-maps).
    pub warm_loads: u64,
    /// Total search seconds across workers (the "useful" work).
    pub total_search_s: f64,
    /// Dispatches beyond one per unit, speculative backups aside: units
    /// re-run because the worker holding their result died, was fenced or
    /// was promoted to master — the re-dispatch cost of fault recovery.
    pub redispatched: u64,
    /// Speculative backup copies launched against suspected stragglers
    /// (0 unless [`Conditions::suspect_after_s`] is set).
    pub speculated: usize,
    /// Cores the run was charged for (workers + dedicated master if any).
    pub cores: usize,
}

impl SimResult {
    fn new(
        makespan_s: f64,
        (worker_busy, busy_intervals): (Vec<f64>, Vec<Vec<(f64, f64)>>),
        loads: &LoadModel,
        redispatched: u64,
        speculated: usize,
        cores: usize,
    ) -> Self {
        let (cold_loads, warm_loads) = (loads.cold, loads.warm);
        let total_search_s = worker_busy.iter().sum();
        SimResult {
            makespan_s, worker_busy, busy_intervals, cold_loads, warm_loads, total_search_s,
            redispatched, speculated, cores,
        }
    }

    /// Core-seconds charged: makespan × allocated cores.
    pub fn core_seconds(&self) -> f64 {
        self.makespan_s * self.cores as f64
    }

    /// Mean "useful CPU utilization" over the run (Fig. 5's metric averaged
    /// over time): total search time ÷ (makespan × cores).
    pub fn mean_utilization(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            return 0.0;
        }
        self.total_search_s / self.core_seconds()
    }

    /// Utilization time series over `buckets` equal slices of the makespan
    /// (the Fig. 5 curve).
    pub fn utilization_curve(&self, buckets: usize) -> Vec<f64> {
        assert!(buckets > 0);
        let mut out = vec![0.0; buckets];
        if self.makespan_s <= 0.0 {
            return out;
        }
        let width = self.makespan_s / buckets as f64;
        for intervals in &self.busy_intervals {
            for &(s, e) in intervals {
                let first = ((s / width).floor() as usize).min(buckets - 1);
                let last = ((e / width).ceil() as usize).min(buckets);
                for (b, slot) in out.iter_mut().enumerate().take(last).skip(first) {
                    let b_start = b as f64 * width;
                    let b_end = b_start + width;
                    *slot += (e.min(b_end) - s.max(b_start)).max(0.0);
                }
            }
        }
        for v in &mut out {
            *v /= width * self.cores as f64;
        }
        out
    }
}

/// LRU cache of partition indices with combined-RAM capacity.
///
/// This implements the paper's own explanation of the superlinear speedup:
/// "all 109 1GB DB partitions begin to fit entirely into the *combined RAM
/// of the MPI process ranks* (32 cores only have 64 GB)" — once the
/// aggregate page cache of the allocation covers the database, re-reads of
/// a previously loaded partition are warm re-maps; below that capacity the
/// LRU thrashes and loads come cold from Lustre. (Per-node cache locality
/// is deliberately not modelled: the paper's scheduler has no partition
/// affinity either — locality-aware dispatch is its stated future work.)
struct LruCache {
    capacity: usize,
    entries: Vec<usize>, // most recent last
}

impl LruCache {
    fn new(capacity: usize) -> Self {
        LruCache { capacity, entries: Vec::new() }
    }

    /// Touch a partition; returns true when it was already cached.
    fn touch(&mut self, part: usize) -> bool {
        if let Some(pos) = self.entries.iter().position(|&p| p == part) {
            self.entries.remove(pos);
            self.entries.push(part);
            return true;
        }
        if self.capacity == 0 {
            return false;
        }
        if self.entries.len() == self.capacity {
            self.entries.remove(0);
        }
        self.entries.push(part);
        false
    }
}

struct LoadModel<'a> {
    cluster: &'a ClusterModel,
    partition_gb: f64,
    cache: LruCache,
    cold: u64,
    warm: u64,
}

impl<'a> LoadModel<'a> {
    fn new(cluster: &'a ClusterModel, cores: usize, partition_gb: f64) -> Self {
        let nodes = cluster.nodes_for(cores);
        let capacity = cluster.cache_capacity(partition_gb, 4.0).saturating_mul(nodes);
        LoadModel { cluster, partition_gb, cache: LruCache::new(capacity), cold: 0, warm: 0 }
    }

    /// Load cost of `part` on a worker holding partition `held`. A worker
    /// that already holds it keeps its DB object ("cached between map()
    /// invocations on a given rank") and pays nothing; otherwise it
    /// (re-)maps, warm or cold per the combined cache, and now holds `part`.
    fn load(&mut self, held: &mut Option<usize>, part: usize) -> f64 {
        if *held == Some(part) {
            return 0.0;
        }
        *held = Some(part);
        if self.cache.touch(part) {
            self.warm += 1;
            self.cluster.warm_load_s_per_gb * self.partition_gb
        } else {
            self.cold += 1;
            self.cluster.cold_load_s_per_gb * self.partition_gb
        }
    }
}

/// A scheduled fail-stop worker failure (see [`Conditions::failures`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Failure {
    /// Worker index (0-based over the `cores − 1` workers).
    pub worker: usize,
    /// Virtual time at which the worker dies, in seconds.
    pub at_s: f64,
}

/// A scheduled straggler episode (see [`Conditions::stalls`]): the worker
/// freezes for `dur_s` wall-clock seconds (GC pause, flaky NIC, contended
/// node) but does not die — work in progress resumes afterwards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stall {
    /// Worker index (0-based over the `cores − 1` workers).
    pub worker: usize,
    /// Virtual time at which the freeze begins, in seconds.
    pub at_s: f64,
    /// Freeze duration in seconds.
    pub dur_s: f64,
}

/// The dedicated master's death (see [`Conditions::master_death`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MasterDeath {
    /// Virtual time at which the master dies, in seconds.
    pub at_s: f64,
    /// Election + log replay, paid after `detect_s`; the claim gather then
    /// lasts until every survivor's in-flight unit is done.
    pub failover_s: f64,
}

/// What befalls a master-worker run besides its work. `Conditions::default()`
/// is the fault-free run; the fields compose freely.
#[derive(Debug, Clone, Copy, Default)]
pub struct Conditions<'a> {
    /// Locality-aware dispatch, the paper's future-work scheduler
    /// ("distribute the work unit tuples to those ranks that have already
    /// been processing the same DB partitions"): a freed worker takes the
    /// first available unit of the partition it holds, else one from the
    /// partition with the most available units (ties to the earliest-queued
    /// unit). Off, units go out in (available-from, index) order.
    pub affinity: bool,
    /// Fail-stop worker deaths. A dead worker loses its in-flight unit
    /// **and every unit it had already completed** (the emitted key-values
    /// die with the rank); they are re-queued, in unit order, `detect_s`
    /// after the death. Deaths after the last unit completes change nothing.
    pub failures: &'a [Failure],
    /// Stragglers: a [`Stall`] makes the unit its worker is executing (or
    /// the next one it is handed) finish `dur_s` late.
    pub stalls: &'a [Stall],
    /// Failure-detection delay in seconds, for worker deaths and the master.
    pub detect_s: f64,
    /// The master dies: nothing is dispatched until, `detect_s +
    /// failover_s` later, the lowest live worker becomes master, dropping
    /// its own unit. Meanwhile workers finish their unit and hold it
    /// unjudged. The successor gathers every other survivor's claims and
    /// held units — waiting for those still running — and only then
    /// rebuilds its queue in unit order. The run ends one worker short; a
    /// failure that hits the new master is a plain worker death, and a
    /// second election is not modelled.
    pub master_death: Option<MasterDeath>,
    /// Speculative re-execution: a worker silent this many seconds past its
    /// unit's stall-free end is suspected, and the unit is backed up on an
    /// idle worker (again, at doubling intervals from this one, while every
    /// copy is silent). The first completion wins and the loser appears in
    /// no busy interval; a silent straggler that lost is fenced and its
    /// committed units re-run. `None` means no speculation: the makespan
    /// absorbs every stall.
    pub suspect_after_s: Option<f64>,
}

// Event kinds, in their order at equal times: a unit finishing exactly at the
// master's death counts as unarbitrated, and one finishing exactly on its
// suspicion deadline is never speculated against.
const EV_MASTER_DEATH: u8 = 0;
const EV_DEATH: u8 = 1;
const EV_FREE: u8 = 2;
const EV_SUSPECT: u8 = 3;
const EV_PROMOTE: u8 = 4;
const EV_WAKE: u8 = 5;
const EV_START: u8 = 6;

/// Simulate the dynamic master-worker schedule over `tasks` (in dispatch
/// order) on `cores` cores of `cluster`, with DB partitions of
/// `partition_gb` GB, under `conditions`. The scheduler core decides; the
/// simulator adds what it does not know: partition loads, stalls,
/// detection delays and busy intervals.
///
/// `total_search_s` and the busy intervals count *completed* executions
/// only: re-runs after a death are included, while compute cut short by a
/// death, promotion or fence, and a speculative race's losing copy, are
/// not.
///
/// # Panics
/// Panics if fewer than 2 cores are requested (a dedicated master needs at
/// least one worker), fewer than 3 with a master death (master, successor,
/// one worker), if a failure or stall names a nonexistent worker, or if
/// every worker dies with units unfinished (the protocol's `AllWorkersDead`
/// outcome — the model has no makespan then).
pub fn simulate_master_worker(
    cluster: &ClusterModel,
    cores: usize,
    tasks: &[Task],
    partition_gb: f64,
    conditions: &Conditions,
) -> SimResult {
    assert!(cores >= 2, "master-worker needs >= 2 cores");
    let failover_cores = cores >= 3 || conditions.master_death.is_none();
    assert!(failover_cores, "failover needs >= 3 cores: master, successor, one worker");
    let workers = cores - 1;
    let grace = conditions.suspect_after_s;
    let mut sim = Sim {
        cluster,
        tasks,
        grace,
        loads: LoadModel::new(cluster, cores, partition_gb),
        events: BinaryHeap::new(),
        stalls: vec![VecDeque::new(); workers],
        slot: vec![None; workers],
        held: vec![None; workers],
        alive: vec![true; workers],
        busy_intervals: vec![Vec::new(); workers],
        worker_busy: vec![0.0; workers],
        dispatched: 0,
        speculated: 0,
    };
    let mut sorted: Vec<&Stall> = conditions.stalls.iter().collect();
    sorted.sort_by(|a, b| a.at_s.partial_cmp(&b.at_s).expect("no NaN stall times"));
    for s in sorted {
        assert!(s.worker < workers, "stall names worker {} of {workers}", s.worker);
        sim.stalls[s.worker].push_back((s.at_s, s.dur_s));
    }
    if let Some(m) = conditions.master_death {
        sim.event(m.at_s, EV_MASTER_DEATH, 0);
    }
    for f in conditions.failures {
        assert!(f.worker < workers, "failure names worker {} of {workers}", f.worker);
        sim.event(f.at_s, EV_DEATH, f.worker);
    }
    sim.event(0.0, EV_START, 0);

    // The model's speculation backoff is its suspicion grace period.
    let policy = Policy {
        max_attempts: usize::MAX,
        poison_retries: 1,
        speculate: grace.is_some(),
        suspect_after: grace.unwrap_or(f64::INFINITY),
        spec_backoff: grace.unwrap_or(f64::INFINITY),
    };
    let parts: Vec<usize> = tasks.iter().map(|t| t.part).collect();
    let affinity = conditions.affinity.then_some(parts.as_slice());
    // The acting master's core; `None` from the master's death until the
    // promotion, while `orphan` holds the dead master's state.
    let mut core = Some(Core::new(tasks.len(), policy, affinity, None, 0.0));
    let mut orphan = None;
    let mut makespan = 0.0f64;

    while !core.as_ref().is_some_and(Core::settled) {
        let Some(Reverse((at, kind, w))) = sim.events.pop() else { break };
        let now = f64::from_bits(at);
        makespan = now;
        match (kind, core.as_mut()) {
            (EV_START, Some(c)) => {
                for w in (0..workers).filter(|&w| sim.alive[w]) {
                    c.request(w, None, &[], now);
                }
                sim.pump(c, now);
            }
            (EV_MASTER_DEATH, _) => {
                orphan = core.take();
                let m = conditions.master_death.expect("scheduled master death");
                sim.event(now + conditions.detect_s + m.failover_s, EV_PROMOTE, 0);
            }
            (EV_DEATH, c) if sim.alive[w] => {
                sim.alive[w] = false;
                sim.held[w] = None;
                // A finished execution's compute happened; its result died.
                if let Some(e) = sim.slot[w].take().filter(|e| e.end <= now) {
                    sim.record(w, e);
                }
                // While the master is down the successor finds it dead.
                if let Some(c) = c {
                    let at = now + conditions.detect_s;
                    c.death(w, now, at);
                    sim.pump(c, now);
                    sim.event(at, EV_WAKE, 0);
                }
            }
            // The unit ends; without a master to ask, the worker holds its
            // result for the successor.
            (EV_FREE, Some(c)) => {
                if let Some(e) = sim.slot[w] {
                    c.request(w, Some((e.unit as u64, true)), &[], now);
                    sim.pump(c, now);
                }
            }
            (EV_SUSPECT, c) => {
                // Tick while this execution overruns `nominal_end + grace`.
                let grace = grace.expect("suspicion checks imply a grace period");
                let Some(e) = sim.slot[w] else { continue };
                if e.nominal_end + grace > now || e.end <= now + 1e-12 {
                    continue; // a newer execution, or one finishing now
                }
                if let Some(c) = c {
                    c.tick(now);
                    sim.pump(c, now);
                }
                sim.event(now + grace, EV_SUSPECT, w);
            }
            (EV_PROMOTE, _) => {
                let Some(p) = (0..workers).find(|&w| sim.alive[w]) else {
                    continue; // all dead; the assert below reports it
                };
                let dead: Core = orphan.take().expect("a dead master to succeed");
                // The lowest live worker becomes master and drops its unit.
                // A survivor's unjudged unit is reported, not claimed.
                if let Some(e) = sim.slot[p].take().filter(|e| e.end <= now) {
                    sim.record(p, e);
                }
                let mut claims = Vec::new();
                let mut expected = BTreeSet::new();
                for r in (0..workers).filter(|&r| sim.alive[r]) {
                    let unjudged = sim.slot[r].map(|e| e.unit as u64);
                    let mine = dead.committed(r).iter().copied().filter(|&u| Some(u) != unjudged);
                    claims.push((r, mine.collect()));
                    if r != p {
                        expected.insert(r);
                    }
                }
                let takeover = Takeover { log: dead.log().to_vec(), claims, expected };
                let c = core.insert(Core::new(tasks.len(), policy, affinity, Some(takeover), now));
                for r in (0..workers).filter(|&r| r != p && sim.alive[r]) {
                    match sim.slot[r] {
                        Some(e) if e.end > now => {} // reports when it ends
                        e => c.request(r, e.map(|e| (e.unit as u64, true)), &[], now),
                    }
                }
                sim.pump(c, now);
            }
            (EV_WAKE, Some(c)) => {
                c.tick(now);
                sim.pump(c, now);
            }
            _ => {}
        }
    }
    let settled = core.as_ref().is_some_and(Core::settled);
    assert!(settled, "all {workers} workers dead before the {} units finished", tasks.len());

    let redispatched = sim.dispatched - tasks.len() as u64;
    let busy = (sim.worker_busy, sim.busy_intervals);
    SimResult::new(makespan, busy, &sim.loads, redispatched, sim.speculated, cores)
}

/// One execution of a unit on a worker, kept until the master's verdict on
/// it reaches the worker; `nominal_end` is its end had no stall struck.
#[derive(Debug, Clone, Copy)]
struct Exec {
    unit: usize,
    start: f64,
    end: f64,
    nominal_end: f64,
}

/// The simulated workers, their load model and the event queue.
struct Sim<'a> {
    cluster: &'a ClusterModel,
    tasks: &'a [Task],
    grace: Option<f64>,
    loads: LoadModel<'a>,
    /// (time, kind, worker), earliest first. Times are never negative, so
    /// their bit patterns order like their values.
    events: BinaryHeap<Reverse<(u64, u8, usize)>>,
    /// Per-worker (at, duration) stalls, earliest first, until absorbed.
    stalls: Vec<VecDeque<(f64, f64)>>,
    /// Each worker's current execution.
    slot: Vec<Option<Exec>>,
    /// The partition each worker's DB object holds.
    held: Vec<Option<usize>>,
    alive: Vec<bool>,
    busy_intervals: Vec<Vec<(f64, f64)>>,
    worker_busy: Vec<f64>,
    /// Primary (non-backup) dispatches.
    dispatched: u64,
    speculated: usize,
}

impl Sim<'_> {
    fn event(&mut self, at: f64, kind: u8, x: usize) {
        debug_assert!(at >= 0.0, "event time {at}");
        self.events.push(Reverse((at.to_bits(), kind, x)));
    }

    fn record(&mut self, w: usize, e: Exec) {
        self.busy_intervals[w].push((e.start, e.end));
        self.worker_busy[w] += self.tasks[e.unit].cost_s;
    }

    /// Carry out the core's decisions at `now`: deliver each reply's
    /// verdict (a discarded execution leaves no busy interval), start the
    /// unit it hands out, and fence what the core fences.
    fn pump(&mut self, core: &mut Core, now: f64) {
        let mut backup = false;
        while let Some(out) = core.poll() {
            match out {
                Out::Reply { worker, code, verdict } => {
                    if let Some(e) = self.slot[worker].take() {
                        if verdict != Verdict::Discard {
                            self.record(worker, e);
                        }
                    }
                    if let Code::Unit(unit) = code {
                        if !std::mem::take(&mut backup) {
                            self.dispatched += 1;
                        }
                        let heard = self.dispatch(worker, unit as usize, now);
                        core.heartbeat(worker, heard);
                    }
                }
                Out::Backup { .. } => {
                    backup = true;
                    self.speculated += 1;
                }
                // A fenced straggler is stopped mid-unit, like a crash.
                Out::Journal(rec) if rec.kind == LOG_FENCE => {
                    self.alive[rec.worker] = false;
                    self.slot[rec.worker] = None;
                }
                _ => {}
            }
        }
    }

    /// Hand `task` to `w` at `now` and queue its completion. A pending
    /// stall overlapping the execution window extends it. The worker
    /// beacons until the *stall-free* end, which is returned: its last
    /// heartbeat, `grace` before the suspicion check.
    fn dispatch(&mut self, w: usize, task: usize, now: f64) -> f64 {
        let t = now + self.cluster.dispatch_latency_s;
        let start = t + self.loads.load(&mut self.held[w], self.tasks[task].part);
        let nominal_end = start + self.tasks[task].cost_s;
        let mut end = nominal_end;
        while let Some(&(at, dur)) = self.stalls[w].front() {
            if at >= end {
                break;
            }
            end += dur;
            self.stalls[w].pop_front();
        }
        self.slot[w] = Some(Exec { unit: task, start, end, nominal_end });
        self.event(end, EV_FREE, w);
        if let Some(grace) = self.grace {
            self.event(nominal_end + grace, EV_SUSPECT, w);
        }
        nominal_end
    }
}

/// Simulate the **abort-and-restart** answer to a master death, the MPI
/// default that failover is measured against: the run aborts `detect_s`
/// after the master dies at `master_dies_at_s` — every completed unit is
/// thrown away — and the whole job re-runs from scratch on a fresh
/// allocation of the same size (page caches cold again).
///
/// Completions before the abort are reported as [`SimResult::redispatched`]
/// and appear in the busy intervals (the compute really happened, then was
/// discarded); `cold_loads`/`warm_loads` count the restarted run only. A
/// `master_dies_at_s` past the fault-free makespan changes nothing.
pub fn simulate_master_worker_abort_restart(
    cluster: &ClusterModel,
    cores: usize,
    tasks: &[Task],
    partition_gb: f64,
    master_dies_at_s: f64,
    detect_s: f64,
) -> SimResult {
    let clean = simulate_master_worker(cluster, cores, tasks, partition_gb, &Conditions::default());
    if master_dies_at_s >= clean.makespan_s {
        return clean;
    }
    let abort_at = master_dies_at_s + detect_s;
    let mut busy_intervals: Vec<Vec<(f64, f64)>> = vec![Vec::new(); cores - 1];
    let mut worker_busy = vec![0.0f64; cores - 1];
    let mut redispatched = 0u64;
    // Wasted pre-abort executions: every unit that completed before the
    // workers noticed the master was gone.
    for (w, intervals) in clean.busy_intervals.iter().enumerate() {
        for &(s, e) in intervals.iter().filter(|&&(_, e)| e <= abort_at) {
            busy_intervals[w].push((s, e));
            worker_busy[w] += e - s;
            redispatched += 1;
        }
    }
    // The restart is a fresh allocation running the identical schedule,
    // shifted to begin once the abort is declared.
    for (w, intervals) in clean.busy_intervals.iter().enumerate() {
        for &(s, e) in intervals {
            busy_intervals[w].push((s + abort_at, e + abort_at));
        }
        worker_busy[w] += clean.worker_busy[w];
    }
    SimResult {
        makespan_s: abort_at + clean.makespan_s,
        total_search_s: worker_busy.iter().sum(),
        worker_busy,
        busy_intervals,
        redispatched,
        ..clean
    }
}

/// Simulate a static schedule (all cores compute; no dynamic balancing).
pub fn simulate_static(
    cluster: &ClusterModel,
    cores: usize,
    tasks: &[Task],
    partition_gb: f64,
    schedule: Schedule,
) -> SimResult {
    assert!(cores >= 1);
    let mut loads = LoadModel::new(cluster, cores, partition_gb);
    let mut busy_intervals = vec![Vec::new(); cores];
    let mut worker_busy = vec![0.0f64; cores];
    let mut clock = vec![0.0f64; cores];
    let mut held: Vec<Option<usize>> = vec![None; cores];

    for (i, task) in tasks.iter().enumerate() {
        let w = match schedule {
            Schedule::RoundRobin => i % cores,
            Schedule::Chunk => i * cores / tasks.len().max(1),
        };
        let start = clock[w] + loads.load(&mut held[w], task.part);
        let end = start + task.cost_s;
        busy_intervals[w].push((start, end));
        worker_busy[w] += task.cost_s;
        clock[w] = end;
    }

    let makespan = clock.iter().copied().fold(0.0, f64::max);
    SimResult::new(makespan, (worker_busy, busy_intervals), &loads, 0, 0, cores)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cheap_cluster() -> ClusterModel {
        ClusterModel {
            cold_load_s_per_gb: 0.0,
            warm_load_s_per_gb: 0.0,
            dispatch_latency_s: 0.0,
            ..ClusterModel::ranger()
        }
    }

    fn uniform_tasks(n: usize, cost: f64) -> Vec<Task> {
        (0..n).map(|i| Task { part: i % 4, cost_s: cost }).collect()
    }

    #[test]
    fn uniform_tasks_give_ceil_distribution() {
        // 10 tasks, 3 cores (2 workers), unit cost, zero overheads:
        // makespan = ceil(10/2) = 5.
        let r = simulate_master_worker(
            &cheap_cluster(),
            3,
            &uniform_tasks(10, 1.0),
            0.0,
            &Conditions::default(),
        );
        assert!((r.makespan_s - 5.0).abs() < 1e-9, "makespan {}", r.makespan_s);
        assert_eq!(r.total_search_s, 10.0);
    }

    #[test]
    fn single_worker_serializes() {
        let r = simulate_master_worker(
            &cheap_cluster(),
            2,
            &uniform_tasks(7, 2.0),
            0.0,
            &Conditions::default(),
        );
        assert!((r.makespan_s - 14.0).abs() < 1e-9);
    }

    #[test]
    fn master_worker_beats_static_on_skewed_load() {
        // One giant task plus many small: dynamic dispatch must win.
        let mut tasks = vec![Task { part: 0, cost_s: 50.0 }];
        tasks.extend((0..40).map(|i| Task { part: i % 4, cost_s: 1.0 }));
        let cluster = cheap_cluster();
        let dynamic = simulate_master_worker(&cluster, 5, &tasks, 0.0, &Conditions::default());
        let static_rr = simulate_static(&cluster, 5, &tasks, 0.0, Schedule::RoundRobin);
        assert!(
            dynamic.makespan_s < static_rr.makespan_s,
            "dynamic {} vs static {}",
            dynamic.makespan_s,
            static_rr.makespan_s
        );
        // Dynamic is near the lower bound max(longest task, total/workers).
        let lower = 50.0f64.max(90.0 / 4.0);
        assert!(dynamic.makespan_s <= lower * 1.1, "dynamic {}", dynamic.makespan_s);
    }

    #[test]
    fn tail_idling_appears_when_tasks_scarce() {
        // 5 equal tasks on 4 workers: one worker runs 2 → utilization 5/8.
        let r = simulate_master_worker(
            &cheap_cluster(),
            5,
            &uniform_tasks(5, 1.0),
            0.0,
            &Conditions::default(),
        );
        assert!((r.makespan_s - 2.0).abs() < 1e-9);
        let util = r.total_search_s / (r.makespan_s * 4.0); // worker cores
        assert!((util - 5.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn cold_then_warm_loads_with_cache() {
        let cluster = ClusterModel {
            cold_load_s_per_gb: 10.0,
            warm_load_s_per_gb: 1.0,
            dispatch_latency_s: 0.0,
            ..ClusterModel::ranger()
        };
        // 2 cores → 1 worker, alternating partitions 0,1,0,1 of 1 GB; node
        // cache holds both → first two cold, rest warm.
        let tasks: Vec<Task> = (0..6).map(|i| Task { part: i % 2, cost_s: 1.0 }).collect();
        let r = simulate_master_worker(&cluster, 2, &tasks, 1.0, &Conditions::default());
        assert_eq!(r.cold_loads, 2);
        assert_eq!(r.warm_loads, 4);
        // makespan = 2 cold (10s) + 4 warm (1s) + 6 × 1s search.
        assert!((r.makespan_s - (20.0 + 4.0 + 6.0)).abs() < 1e-9, "{}", r.makespan_s);
    }

    #[test]
    fn repeated_same_partition_needs_no_reload() {
        let cluster = ClusterModel {
            cold_load_s_per_gb: 10.0,
            dispatch_latency_s: 0.0,
            ..ClusterModel::ranger()
        };
        let tasks = vec![Task { part: 3, cost_s: 1.0 }; 5];
        let r = simulate_master_worker(&cluster, 2, &tasks, 1.0, &Conditions::default());
        assert_eq!(r.cold_loads, 1, "partition loaded once, then rank-cached");
        assert!((r.makespan_s - 15.0).abs() < 1e-9);
    }

    #[test]
    fn cache_too_small_thrashes() {
        let cluster = ClusterModel {
            ram_per_node_gb: 5.0, // capacity (5-4)/1 = 1 partition
            cold_load_s_per_gb: 10.0,
            warm_load_s_per_gb: 0.1,
            dispatch_latency_s: 0.0,
            ..ClusterModel::ranger()
        };
        let tasks: Vec<Task> = (0..6).map(|i| Task { part: i % 2, cost_s: 1.0 }).collect();
        let r = simulate_master_worker(&cluster, 2, &tasks, 1.0, &Conditions::default());
        assert_eq!(r.cold_loads, 6, "alternating partitions must thrash a 1-slot cache");
    }

    #[test]
    fn utilization_curve_tapers_at_end() {
        // Few long tasks at the end starve most workers.
        let mut tasks = uniform_tasks(40, 1.0);
        tasks.push(Task { part: 0, cost_s: 10.0 });
        let r = simulate_master_worker(&cheap_cluster(), 9, &tasks, 0.0, &Conditions::default());
        let curve = r.utilization_curve(10);
        assert!(curve[0] > 0.8, "start busy: {curve:?}");
        assert!(curve[9] < 0.4, "tail idle: {curve:?}");
    }

    #[test]
    fn affinity_dispatch_cuts_reloads_without_hurting_balance() {
        let cluster = ClusterModel {
            cold_load_s_per_gb: 5.0,
            warm_load_s_per_gb: 5.0, // cache off: every switch pays
            dispatch_latency_s: 0.0,
            ..ClusterModel::ranger()
        };
        // 8 partitions × 16 unit tasks, interleaved (block-major) order.
        let tasks: Vec<Task> = (0..128).map(|i| Task { part: i % 8, cost_s: 1.0 }).collect();
        let plain = simulate_master_worker(&cluster, 5, &tasks, 1.0, &Conditions::default());
        let affine = simulate_master_worker(
            &cluster,
            5,
            &tasks,
            1.0,
            &Conditions { affinity: true, ..Default::default() },
        );
        assert_eq!(plain.total_search_s, affine.total_search_s);
        // With affinity, each of 4 workers should touch ~2 partitions; the
        // plain dispatcher reloads nearly every task.
        assert!(
            affine.cold_loads + affine.warm_loads <= 16,
            "affinity loads: {} + {}",
            affine.cold_loads,
            affine.warm_loads
        );
        assert!(
            plain.cold_loads + plain.warm_loads > 60,
            "plain loads unexpectedly low: {} + {}",
            plain.cold_loads,
            plain.warm_loads
        );
        assert!(affine.makespan_s < plain.makespan_s);
    }

    #[test]
    fn affinity_dispatch_handles_skew_like_plain() {
        let cluster = cheap_cluster();
        let mut tasks = vec![Task { part: 0, cost_s: 30.0 }];
        tasks.extend((0..40).map(|i| Task { part: 1 + i % 3, cost_s: 1.0 }));
        let r = simulate_master_worker(
            &cluster,
            5,
            &tasks,
            0.0,
            &Conditions { affinity: true, ..Default::default() },
        );
        let lower = 30.0f64.max(70.0 / 4.0);
        assert!(r.makespan_s <= lower * 1.35, "affinity makespan {}", r.makespan_s);
        assert_eq!(r.total_search_s, 70.0);
    }

    #[test]
    fn static_chunk_and_round_robin_process_all_tasks() {
        let tasks = uniform_tasks(13, 1.0);
        for sched in [Schedule::RoundRobin, Schedule::Chunk] {
            let r = simulate_static(&cheap_cluster(), 4, &tasks, 0.0, sched);
            assert_eq!(r.total_search_s, 13.0);
            assert!(r.makespan_s >= 13.0 / 4.0);
        }
    }

    #[test]
    fn faulty_sim_with_no_failures_matches_plain() {
        let cluster = ClusterModel {
            cold_load_s_per_gb: 3.0,
            warm_load_s_per_gb: 0.5,
            dispatch_latency_s: 0.01,
            ..ClusterModel::ranger()
        };
        let mut tasks = vec![Task { part: 0, cost_s: 9.0 }];
        tasks.extend((0..30).map(|i| Task { part: i % 4, cost_s: 1.0 + (i % 3) as f64 }));
        let plain = simulate_master_worker(&cluster, 5, &tasks, 1.0, &Conditions::default());
        let faulty = simulate_master_worker(
            &cluster,
            5,
            &tasks,
            1.0,
            &Conditions { detect_s: 0.5, ..Default::default() },
        );
        assert!((plain.makespan_s - faulty.makespan_s).abs() < 1e-9);
        assert_eq!(plain.cold_loads, faulty.cold_loads);
        assert_eq!(plain.warm_loads, faulty.warm_loads);
        assert_eq!(faulty.redispatched, 0);
    }

    #[test]
    fn dead_worker_at_t0_gives_reduced_ceil_distribution() {
        // 12 unit tasks, 4 cores (3 workers), one dead at t=0: the closed
        // form is ceil(12/2) = 6 on the two survivors.
        let fails = [Failure { worker: 1, at_s: 0.0 }];
        let r = simulate_master_worker(
            &cheap_cluster(),
            4,
            &uniform_tasks(12, 1.0),
            0.0,
            &Conditions { failures: &fails, detect_s: 0.25, ..Default::default() },
        );
        assert!((r.makespan_s - 6.0).abs() < 1e-9, "makespan {}", r.makespan_s);
        assert_eq!(r.redispatched, 0, "a worker that never got a unit loses none");
    }

    #[test]
    fn mid_run_death_redispatches_completed_units_and_stretches_makespan() {
        // 3 workers, 12 unit tasks. Worker 0 dies at t=2.5: it has finished
        // units at t=1 and t=2 and is mid-unit — all 3 must be redone.
        let fails = [Failure { worker: 0, at_s: 2.5 }];
        let r = simulate_master_worker(
            &cheap_cluster(),
            4,
            &uniform_tasks(12, 1.0),
            0.0,
            &Conditions { failures: &fails, detect_s: 0.0, ..Default::default() },
        );
        assert_eq!(r.redispatched, 3);
        // 12 final + 2 re-runs of completed units = 14 completed executions
        // (the killed in-flight unit's first attempt never finished).
        assert!((r.total_search_s - 14.0).abs() < 1e-9, "search {}", r.total_search_s);
        // Fault-free on 3 workers would be 4.0; losing a worker and 3 units
        // must cost extra, and the survivors' bound still holds.
        assert!(r.makespan_s > 4.0 + 1e-9, "makespan {}", r.makespan_s);
        assert!(r.makespan_s >= 12.0 / 2.0 - 1e-9);
    }

    #[test]
    fn detection_delay_is_paid_once_per_death() {
        // Single task, 2 workers; worker 0 dies mid-unit at t=1, detection
        // takes 2s, then worker 1 reruns the 3s unit: makespan = 1+2+3.
        let tasks = vec![Task { part: 0, cost_s: 3.0 }];
        let fails = [Failure { worker: 0, at_s: 1.0 }];
        let r = simulate_master_worker(
            &cheap_cluster(),
            3,
            &tasks,
            0.0,
            &Conditions { failures: &fails, detect_s: 2.0, ..Default::default() },
        );
        assert!((r.makespan_s - 6.0).abs() < 1e-9, "makespan {}", r.makespan_s);
        assert_eq!(r.redispatched, 1);
    }

    #[test]
    fn death_after_completion_changes_nothing() {
        let fails = [Failure { worker: 0, at_s: 1e6 }];
        let r = simulate_master_worker(
            &cheap_cluster(),
            3,
            &uniform_tasks(10, 1.0),
            0.0,
            &Conditions { failures: &fails, detect_s: 0.5, ..Default::default() },
        );
        assert!((r.makespan_s - 5.0).abs() < 1e-9);
        assert_eq!(r.redispatched, 0);
    }

    #[test]
    #[should_panic(expected = "workers dead")]
    fn all_workers_dead_panics_with_units_unfinished() {
        let fails = [Failure { worker: 0, at_s: 0.0 }, Failure { worker: 1, at_s: 0.0 }];
        simulate_master_worker(
            &cheap_cluster(),
            3,
            &uniform_tasks(4, 1.0),
            0.0,
            &Conditions { failures: &fails, detect_s: 0.1, ..Default::default() },
        );
    }

    #[test]
    fn speculative_sim_with_no_stalls_matches_plain() {
        let cluster = ClusterModel {
            cold_load_s_per_gb: 3.0,
            warm_load_s_per_gb: 0.5,
            dispatch_latency_s: 0.01,
            ..ClusterModel::ranger()
        };
        let mut tasks = vec![Task { part: 0, cost_s: 9.0 }];
        tasks.extend((0..30).map(|i| Task { part: i % 4, cost_s: 1.0 + (i % 3) as f64 }));
        let plain = simulate_master_worker(&cluster, 5, &tasks, 1.0, &Conditions::default());
        for speculate in [false, true] {
            let spec = simulate_master_worker(
                &cluster,
                5,
                &tasks,
                1.0,
                &Conditions { suspect_after_s: speculate.then_some(0.5), ..Default::default() },
            );
            assert!(
                (plain.makespan_s - spec.makespan_s).abs() < 1e-9,
                "speculate={speculate}: {} vs {}",
                plain.makespan_s,
                spec.makespan_s
            );
            assert_eq!(spec.speculated, 0);
        }
    }

    #[test]
    fn stall_without_speculation_is_absorbed_in_full() {
        // 8 unit tasks on 2 workers; worker 0 freezes 10s inside its first
        // unit: without speculation the makespan pays the entire stall.
        let stalls = [Stall { worker: 0, at_s: 0.5, dur_s: 10.0 }];
        let r = simulate_master_worker(
            &cheap_cluster(),
            3,
            &uniform_tasks(8, 1.0),
            0.0,
            &Conditions { stalls: &stalls, ..Default::default() },
        );
        // Worker 1 clears the other 7 units by t=7; worker 0's unit lands at
        // t=11 and dominates.
        assert!((r.makespan_s - 11.0).abs() < 1e-9, "makespan {}", r.makespan_s);
        assert_eq!(r.speculated, 0);
    }

    #[test]
    fn speculation_hides_the_stall_and_first_result_wins() {
        let stalls = [Stall { worker: 0, at_s: 0.5, dur_s: 10.0 }];
        let r = simulate_master_worker(
            &cheap_cluster(),
            3,
            &uniform_tasks(8, 1.0),
            0.0,
            &Conditions { stalls: &stalls, suspect_after_s: Some(0.5), ..Default::default() },
        );
        // Worker 1 finishes the other 7 by t=7; the stuck unit is declared
        // overdue at t=1.5 and its backup runs on worker 1 as soon as it
        // idles — the run never waits for the frozen worker.
        assert!(r.makespan_s < 11.0 - 1e-9, "speculation must beat {}", r.makespan_s);
        assert!(r.makespan_s <= 8.0 + 1e-9, "makespan {}", r.makespan_s);
        assert_eq!(r.speculated, 1, "exactly one backup for one stuck unit");
        // Every unit appears exactly once in the winning busy intervals.
        assert!((r.total_search_s - 8.0).abs() < 1e-9, "search {}", r.total_search_s);
    }

    #[test]
    fn speculation_on_a_recovering_straggler_keeps_one_copy() {
        // The stall is short: the primary recovers and wins before the
        // backup (launched at suspicion) can finish; output conservation
        // still holds — the unit counts once.
        let stalls = [Stall { worker: 0, at_s: 0.2, dur_s: 1.2 }];
        let r = simulate_master_worker(
            &cheap_cluster(),
            3,
            &uniform_tasks(2, 1.0),
            0.0,
            &Conditions { stalls: &stalls, suspect_after_s: Some(0.1), ..Default::default() },
        );
        assert!((r.total_search_s - 2.0).abs() < 1e-9, "search {}", r.total_search_s);
        assert!(r.makespan_s <= 2.2 + 1e-9, "makespan {}", r.makespan_s);
    }

    #[test]
    fn speculation_scales_to_paper_sized_fleets() {
        // 1024 cores, one straggler frozen for an hour mid-unit: with
        // speculation the fleet's makespan is within noise of fault-free.
        let cluster = cheap_cluster();
        let tasks = uniform_tasks(4096, 30.0);
        let clean = simulate_master_worker(&cluster, 1024, &tasks, 0.0, &Conditions::default());
        let stalls = [Stall { worker: 17, at_s: 10.0, dur_s: 3600.0 }];
        let stalled = simulate_master_worker(
            &cluster,
            1024,
            &tasks,
            0.0,
            &Conditions { stalls: &stalls, ..Default::default() },
        );
        let spec = simulate_master_worker(
            &cluster,
            1024,
            &tasks,
            0.0,
            &Conditions { stalls: &stalls, suspect_after_s: Some(15.0), ..Default::default() },
        );
        assert!(stalled.makespan_s > clean.makespan_s + 3000.0, "{}", stalled.makespan_s);
        assert!(
            spec.makespan_s < clean.makespan_s + 120.0,
            "speculated makespan {} vs clean {}",
            spec.makespan_s,
            clean.makespan_s
        );
        assert_eq!(spec.speculated, 1);
    }

    #[test]
    fn failover_sim_with_master_death_after_completion_matches_plain() {
        let cluster = ClusterModel {
            cold_load_s_per_gb: 3.0,
            warm_load_s_per_gb: 0.5,
            dispatch_latency_s: 0.01,
            ..ClusterModel::ranger()
        };
        let mut tasks = vec![Task { part: 0, cost_s: 9.0 }];
        tasks.extend((0..30).map(|i| Task { part: i % 4, cost_s: 1.0 + (i % 3) as f64 }));
        let plain = simulate_master_worker(&cluster, 5, &tasks, 1.0, &Conditions::default());
        let fo = simulate_master_worker(
            &cluster,
            5,
            &tasks,
            1.0,
            &Conditions {
                detect_s: 0.5,
                master_death: Some(MasterDeath { at_s: 1e6, failover_s: 0.5 }),
                ..Default::default()
            },
        );
        assert!((plain.makespan_s - fo.makespan_s).abs() < 1e-9);
        assert_eq!(plain.cold_loads, fo.cold_loads);
        assert_eq!(plain.warm_loads, fo.warm_loads);
        assert_eq!(fo.redispatched, 0);
    }

    #[test]
    fn master_death_freezes_dispatch_and_promotion_loses_one_worker() {
        // 2 workers, 8 unit tasks. Units 4 and 5 are in flight when the
        // master dies at t=2.5; both land at t=3 unarbitrated. Failover
        // completes at t=4 = 2.5 + 1.0 detect + 0.5 election: worker 1's
        // carried unit commits then, worker 0 is promoted and its carried
        // unit is discarded. The single remaining worker clears units 6, 7
        // and the re-run at t=5, 6, 7.
        let r = simulate_master_worker(
            &cheap_cluster(),
            3,
            &uniform_tasks(8, 1.0),
            0.0,
            &Conditions {
                detect_s: 1.0,
                master_death: Some(MasterDeath { at_s: 2.5, failover_s: 0.5 }),
                ..Default::default()
            },
        );
        assert!((r.makespan_s - 7.0).abs() < 1e-9, "makespan {}", r.makespan_s);
        assert_eq!(r.redispatched, 1, "exactly the promoted worker's carried unit");
        // 8 final + 1 discarded execution all really ran.
        assert!((r.total_search_s - 9.0).abs() < 1e-9, "search {}", r.total_search_s);
    }

    #[test]
    fn promotion_discards_the_successors_in_flight_unit() {
        // 2 workers, 6 tasks of 2s. Promotion fires at t=3.9 while both
        // workers are mid-unit: worker 0 is promoted and its in-flight unit
        // 2 is re-queued (its partial compute uncharged); worker 1 finishes
        // unit 3 at t=4 and then serially clears units 4, 5 and the re-run:
        // makespan 4 + 3 × 2 = 10.
        let r = simulate_master_worker(
            &cheap_cluster(),
            3,
            &uniform_tasks(6, 2.0),
            0.0,
            &Conditions {
                detect_s: 1.0,
                master_death: Some(MasterDeath { at_s: 2.5, failover_s: 0.4 }),
                ..Default::default()
            },
        );
        assert!((r.makespan_s - 10.0).abs() < 1e-9, "makespan {}", r.makespan_s);
        assert_eq!(r.redispatched, 1);
        assert!((r.total_search_s - 12.0).abs() < 1e-9, "search {}", r.total_search_s);
    }

    #[test]
    fn failover_composes_with_a_worker_death() {
        // Worker 2 dies mid-run, then the master dies: both recoveries land
        // in one run and every unit still completes exactly once.
        let fails = [Failure { worker: 2, at_s: 1.5 }];
        let r = simulate_master_worker(
            &cheap_cluster(),
            4,
            &uniform_tasks(12, 1.0),
            0.0,
            &Conditions {
                failures: &fails,
                detect_s: 0.5,
                master_death: Some(MasterDeath { at_s: 2.5, failover_s: 0.5 }),
                ..Default::default()
            },
        );
        // Worker 2 loses its completed unit and its in-flight unit; the
        // promoted worker discards one more.
        assert_eq!(r.redispatched, 3, "redispatched {}", r.redispatched);
        assert!(r.total_search_s >= 12.0 - 1e-9);
        assert!(r.makespan_s >= 12.0 / 3.0);
    }

    #[test]
    fn every_condition_composes_in_one_run() {
        // Affinity + a worker death + a stall with speculation + a master
        // failover, all in one run on 5 workers.
        let tasks = uniform_tasks(30, 1.0);
        let fails = [Failure { worker: 2, at_s: 1.5 }];
        let stalls = [Stall { worker: 4, at_s: 0.5, dur_s: 50.0 }];
        let all = Conditions {
            affinity: true,
            failures: &fails,
            stalls: &stalls,
            detect_s: 0.5,
            master_death: Some(MasterDeath { at_s: 3.5, failover_s: 0.5 }),
            suspect_after_s: Some(0.5),
        };
        let cluster = cheap_cluster();
        let r = simulate_master_worker(&cluster, 6, &tasks, 0.0, &all);
        // Every unit completed at least once. The stall outlives the
        // master, and the successor rebuilds its queue in unit order only
        // after the claim gather, which waits for every survivor's first
        // contact — the stalled worker 4's at t = 51 included. So no backup
        // runs and the makespan absorbs the stall.
        assert!(r.total_search_s >= 30.0 - 1e-9, "search {}", r.total_search_s);
        assert!(r.makespan_s > 51.0 && r.makespan_s < 60.0, "makespan {}", r.makespan_s);
        assert_eq!(r.speculated, 0);
        // Worker 2's completed and in-flight units, plus the successor's.
        assert!(r.redispatched >= 3, "redispatched {}", r.redispatched);

        // Each condition alone equals the run with the others emptied —
        // and with the others present but scheduled after the run ends.
        let late = 1e9;
        let late_fails = [Failure { worker: 2, at_s: late }];
        let late_stalls = [Stall { worker: 4, at_s: late, dur_s: 50.0 }];
        let empty = Conditions {
            affinity: false,
            failures: &[],
            stalls: &[],
            master_death: None,
            suspect_after_s: None,
            ..all
        };
        let alone = [
            Conditions { affinity: true, ..empty },
            Conditions { failures: &fails, ..empty },
            Conditions { stalls: &stalls, suspect_after_s: all.suspect_after_s, ..empty },
            Conditions { master_death: all.master_death, ..empty },
        ];
        for one in alone {
            let neutral = Conditions {
                failures: if one.failures.is_empty() { &late_fails } else { one.failures },
                stalls: if one.stalls.is_empty() { &late_stalls } else { one.stalls },
                master_death: one
                    .master_death
                    .or(Some(MasterDeath { at_s: late, failover_s: 0.5 })),
                suspect_after_s: one.suspect_after_s.or(Some(0.5)),
                ..one
            };
            let a = simulate_master_worker(&cluster, 6, &tasks, 0.0, &one);
            let b = simulate_master_worker(&cluster, 6, &tasks, 0.0, &neutral);
            assert!(a.total_search_s >= 30.0 - 1e-9, "{one:?}");
            assert_eq!(a.makespan_s.to_bits(), b.makespan_s.to_bits(), "{one:?}");
            assert_eq!(a.busy_intervals, b.busy_intervals, "{one:?}");
            assert_eq!(
                (a.cold_loads, a.warm_loads, a.redispatched, a.speculated),
                (b.cold_loads, b.warm_loads, b.redispatched, b.speculated),
                "{one:?}"
            );
        }
    }

    #[test]
    fn abort_restart_pays_for_the_whole_rerun_and_failover_beats_it() {
        // 2 workers, 20 unit tasks → clean makespan 10. Master dies at t=8.
        let tasks = uniform_tasks(20, 1.0);
        let cluster = cheap_cluster();
        let abort = simulate_master_worker_abort_restart(&cluster, 3, &tasks, 0.0, 8.0, 1.0);
        // Abort declared at t=9; full rerun appended: 9 + 10.
        assert!((abort.makespan_s - 19.0).abs() < 1e-9, "abort {}", abort.makespan_s);
        // 18 units had completed by t=9 (9 per worker) and are thrown away.
        assert_eq!(abort.redispatched, 18);
        assert!((abort.total_search_s - 38.0).abs() < 1e-9, "search {}", abort.total_search_s);
        let fo = simulate_master_worker(
            &cluster,
            3,
            &tasks,
            0.0,
            &Conditions {
                detect_s: 1.0,
                master_death: Some(MasterDeath { at_s: 8.0, failover_s: 0.5 }),
                ..Default::default()
            },
        );
        assert!(
            fo.makespan_s < abort.makespan_s - 1e-9,
            "failover {} must beat abort-restart {}",
            fo.makespan_s,
            abort.makespan_s
        );
    }

    #[test]
    fn abort_restart_with_late_death_matches_plain() {
        let tasks = uniform_tasks(10, 1.0);
        let plain =
            simulate_master_worker(&cheap_cluster(), 3, &tasks, 0.0, &Conditions::default());
        let r = simulate_master_worker_abort_restart(&cheap_cluster(), 3, &tasks, 0.0, 1e6, 1.0);
        assert!((r.makespan_s - plain.makespan_s).abs() < 1e-9);
        assert_eq!(r.redispatched, 0);
    }

    #[test]
    fn core_seconds_and_mean_utilization() {
        let r = simulate_master_worker(
            &cheap_cluster(),
            3,
            &uniform_tasks(4, 1.0),
            0.0,
            &Conditions::default(),
        );
        assert!((r.makespan_s - 2.0).abs() < 1e-9);
        assert!((r.core_seconds() - 6.0).abs() < 1e-9);
        // 4 search-seconds over 6 core-seconds (master idles by design).
        assert!((r.mean_utilization() - 4.0 / 6.0).abs() < 1e-9);
    }
}
