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
//! Static schedules (round-robin / chunk) are simulated for the HTC and
//!    mapstyle-ablation comparisons.

use crate::cluster::ClusterModel;

/// One work unit: the DB partition it needs and its search compute cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task {
    /// DB partition index this task scans.
    pub part: usize,
    /// Search (engine) time in seconds, excluding partition load.
    pub cost_s: f64,
}

/// Scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Dynamic: rank 0 dedicated master, `cores − 1` workers pull tasks.
    MasterWorker,
    /// Static: task `t` on worker `t % workers`, all cores compute.
    RoundRobin,
    /// Static: contiguous task ranges, all cores compute.
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
    /// Work units executed more than once because their worker died — the
    /// re-dispatch cost of fault recovery (0 for the fault-free simulators).
    pub redispatched: u64,
    /// Speculative backup copies launched against suspected stragglers
    /// (0 outside [`simulate_master_worker_speculative`]).
    pub speculated: usize,
    /// Cores the run was charged for (workers + dedicated master if any).
    pub cores: usize,
}

impl SimResult {
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
}

impl<'a> LoadModel<'a> {
    fn new(cluster: &'a ClusterModel, cores: usize, partition_gb: f64) -> Self {
        let nodes = cluster.nodes_for(cores);
        let capacity = cluster.cache_capacity(partition_gb, 4.0).saturating_mul(nodes);
        LoadModel { cluster, partition_gb, cache: LruCache::new(capacity) }
    }

    /// Load cost of `part`; updates the combined cache and counters.
    fn load(&mut self, _core: usize, part: usize, cold: &mut u64, warm: &mut u64) -> f64 {
        if self.cache.touch(part) {
            *warm += 1;
            self.cluster.warm_load_s_per_gb * self.partition_gb
        } else {
            *cold += 1;
            self.cluster.cold_load_s_per_gb * self.partition_gb
        }
    }
}

/// Simulate the dynamic master-worker schedule over `tasks` (in dispatch
/// order) on `cores` cores of `cluster`, with DB partitions of
/// `partition_gb` GB.
///
/// # Panics
/// Panics if fewer than 2 cores are requested (a dedicated master needs at
/// least one worker).
pub fn simulate_master_worker(
    cluster: &ClusterModel,
    cores: usize,
    tasks: &[Task],
    partition_gb: f64,
) -> SimResult {
    assert!(cores >= 2, "master-worker needs >= 2 cores");
    let workers = cores - 1;
    let mut loads = LoadModel::new(cluster, cores, partition_gb);
    let (mut cold, mut warm) = (0u64, 0u64);

    // Min-heap of (free_time, worker). Workers are cores 1..cores (core 0 is
    // the master).
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(OrdF64, usize)>> =
        (0..workers).map(|w| std::cmp::Reverse((OrdF64(0.0), w))).collect();

    let mut busy_intervals = vec![Vec::new(); workers];
    let mut worker_busy = vec![0.0f64; workers];
    let mut last_worker_cache: Vec<Option<usize>> = vec![None; workers];

    for task in tasks {
        let std::cmp::Reverse((OrdF64(free), w)) = heap.pop().expect("worker heap never empty");
        let t = free + cluster.dispatch_latency_s;
        // Worker-level cache: a worker that just used this partition keeps
        // its DB object ("cached between map() invocations on a given
        // rank"); otherwise it (re-)maps, warm or cold per the node cache.
        let load = if last_worker_cache[w] == Some(task.part) {
            0.0
        } else {
            last_worker_cache[w] = Some(task.part);
            // Worker core id: skip the master core (core 0).
            loads.load(w + 1, task.part, &mut cold, &mut warm)
        };
        let start = t + load;
        let end = start + task.cost_s;
        busy_intervals[w].push((start, end));
        worker_busy[w] += task.cost_s;
        heap.push(std::cmp::Reverse((OrdF64(end), w)));
    }

    let makespan = heap.into_iter().map(|std::cmp::Reverse((OrdF64(t), _))| t).fold(0.0, f64::max);
    let total_search: f64 = worker_busy.iter().sum();
    SimResult {
        makespan_s: makespan,
        worker_busy,
        busy_intervals,
        cold_loads: cold,
        warm_loads: warm,
        total_search_s: total_search,
        redispatched: 0,
        speculated: 0,
        cores,
    }
}

/// Simulate the **locality-aware** master-worker schedule: the master keeps
/// per-partition task queues and serves a freed worker a task for the
/// partition it already holds when one remains, falling back to the
/// partition with the most remaining work. This is the paper's future-work
/// scheduler ("distribute the work unit tuples to those ranks that have
/// already been processing the same DB partitions"), quantified by the
/// `ablation_locality` bench.
///
/// # Panics
/// Panics if fewer than 2 cores are requested.
pub fn simulate_master_worker_affinity(
    cluster: &ClusterModel,
    cores: usize,
    tasks: &[Task],
    partition_gb: f64,
) -> SimResult {
    assert!(cores >= 2, "master-worker needs >= 2 cores");
    let workers = cores - 1;
    let mut loads = LoadModel::new(cluster, cores, partition_gb);
    let (mut cold, mut warm) = (0u64, 0u64);

    // Per-partition FIFO queues of task indices, dispatch preferring the
    // worker's held partition.
    let mut queues: std::collections::HashMap<usize, std::collections::VecDeque<usize>> =
        std::collections::HashMap::new();
    for (i, t) in tasks.iter().enumerate() {
        queues.entry(t.part).or_default().push_back(i);
    }
    let mut remaining = tasks.len();

    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(OrdF64, usize)>> =
        (0..workers).map(|w| std::cmp::Reverse((OrdF64(0.0), w))).collect();
    let mut busy_intervals = vec![Vec::new(); workers];
    let mut worker_busy = vec![0.0f64; workers];
    let mut last_worker_cache: Vec<Option<usize>> = vec![None; workers];
    let mut finish = vec![0.0f64; workers];

    while remaining > 0 {
        let std::cmp::Reverse((OrdF64(free), w)) = heap.pop().expect("worker heap never empty");
        let t = free + cluster.dispatch_latency_s;
        let part = match last_worker_cache[w] {
            Some(p) if queues.get(&p).is_some_and(|q| !q.is_empty()) => p,
            // Ties go to the partition whose next task was queued first, as
            // in the runtime scheduler, so the simulation is deterministic.
            _ => *queues
                .iter()
                .filter(|(_, q)| !q.is_empty())
                .max_by_key(|(_, q)| (q.len(), std::cmp::Reverse(q.front().copied())))
                .expect("remaining > 0")
                .0,
        };
        let task_idx =
            queues.get_mut(&part).expect("chosen queue").pop_front().expect("non-empty");
        remaining -= 1;
        let task = tasks[task_idx];
        let load = if last_worker_cache[w] == Some(task.part) {
            0.0
        } else {
            last_worker_cache[w] = Some(task.part);
            loads.load(w + 1, task.part, &mut cold, &mut warm)
        };
        let start = t + load;
        let end = start + task.cost_s;
        busy_intervals[w].push((start, end));
        worker_busy[w] += task.cost_s;
        finish[w] = end;
        heap.push(std::cmp::Reverse((OrdF64(end), w)));
    }

    let makespan = finish.iter().copied().fold(0.0, f64::max);
    let total_search: f64 = worker_busy.iter().sum();
    SimResult {
        makespan_s: makespan,
        worker_busy,
        busy_intervals,
        cold_loads: cold,
        warm_loads: warm,
        total_search_s: total_search,
        redispatched: 0,
        speculated: 0,
        cores,
    }
}

/// A scheduled fail-stop worker failure for
/// [`simulate_master_worker_faulty`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Failure {
    /// Worker index (0-based over the `cores − 1` workers).
    pub worker: usize,
    /// Virtual time at which the worker dies, in seconds.
    pub at_s: f64,
}

/// Simulate the master-worker schedule under fail-stop worker deaths with
/// re-dispatch, mirroring the recovery protocol in `mrmpi::sched`:
///
/// * a worker that dies loses its in-flight unit **and every unit it had
///   already completed** (the emitted key-values die with the rank), all of
///   which the master re-dispatches to survivors once the death is detected
///   `detect_s` seconds later;
/// * deaths after the last unit completes change nothing (the run's output
///   has already been reconciled);
/// * `SimResult::redispatched` counts the units that had to be redone —
///   the recovery cost on top of the fault-free makespan.
///
/// `total_search_s` and the busy intervals count *completed* executions
/// only (re-runs included); compute cut short by a death is not charged.
///
/// # Panics
/// Panics if fewer than 2 cores are requested, if a failure names a
/// nonexistent worker, or if every worker dies with units unfinished (the
/// protocol's `AllWorkersDead` outcome — the model has no makespan then).
pub fn simulate_master_worker_faulty(
    cluster: &ClusterModel,
    cores: usize,
    tasks: &[Task],
    partition_gb: f64,
    failures: &[Failure],
    detect_s: f64,
) -> SimResult {
    assert!(cores >= 2, "master-worker needs >= 2 cores");
    let workers = cores - 1;
    let mut loads = LoadModel::new(cluster, cores, partition_gb);
    let (mut cold, mut warm) = (0u64, 0u64);

    // Event queue: (time, kind, worker). At equal times deaths precede
    // completions; since a dead worker's completed units are re-dispatched
    // anyway, the tie-break cannot change which work is redone — it only
    // keeps the trace deterministic.
    const EV_DEATH: u8 = 0;
    const EV_FREE: u8 = 1;
    const EV_WAKE: u8 = 2;
    let mut events: std::collections::BinaryHeap<std::cmp::Reverse<(OrdF64, u8, usize)>> =
        std::collections::BinaryHeap::new();
    for f in failures {
        assert!(f.worker < workers, "failure names worker {} of {workers}", f.worker);
        events.push(std::cmp::Reverse((OrdF64(f.at_s), EV_DEATH, f.worker)));
    }
    events.push(std::cmp::Reverse((OrdF64(0.0), EV_WAKE, 0)));

    // Unit pool ordered by (available-from, index): re-dispatched units
    // only become available once the master has detected the death.
    let mut pool: std::collections::BinaryHeap<std::cmp::Reverse<(OrdF64, usize)>> =
        (0..tasks.len()).map(|i| std::cmp::Reverse((OrdF64(0.0), i))).collect();

    let mut alive = vec![true; workers];
    let mut idle: std::collections::BTreeSet<usize> = (0..workers).collect();
    let mut inflight: Vec<Option<(usize, f64, f64)>> = vec![None; workers];
    let mut completed: Vec<Vec<usize>> = vec![Vec::new(); workers];
    let mut busy_intervals = vec![Vec::new(); workers];
    let mut worker_busy = vec![0.0f64; workers];
    let mut last_worker_cache: Vec<Option<usize>> = vec![None; workers];
    let mut ndone = 0usize;
    let mut redispatched = 0u64;
    let mut makespan = 0.0f64;

    while ndone < tasks.len() {
        let Some(std::cmp::Reverse((OrdF64(now), kind, w))) = events.pop() else {
            break; // every worker dead with units remaining
        };
        match kind {
            EV_DEATH => {
                if !alive[w] {
                    continue;
                }
                alive[w] = false;
                idle.remove(&w);
                last_worker_cache[w] = None;
                let mut lost = 0u64;
                if let Some((task, _, _)) = inflight[w].take() {
                    pool.push(std::cmp::Reverse((OrdF64(now + detect_s), task)));
                    lost += 1;
                }
                for task in completed[w].drain(..) {
                    pool.push(std::cmp::Reverse((OrdF64(now + detect_s), task)));
                    ndone -= 1;
                    lost += 1;
                }
                redispatched += lost;
                if lost > 0 {
                    events.push(std::cmp::Reverse((OrdF64(now + detect_s), EV_WAKE, 0)));
                }
            }
            EV_FREE => {
                if !alive[w] {
                    continue; // this completion was preempted by the death
                }
                let (task, start, end) = inflight[w].take().expect("free without inflight");
                completed[w].push(task);
                ndone += 1;
                busy_intervals[w].push((start, end));
                worker_busy[w] += tasks[task].cost_s;
                makespan = makespan.max(end);
                idle.insert(w);
            }
            _ => {} // EV_WAKE: fall through to the dispatch sweep below
        }
        // Dispatch sweep: hand every currently available unit to an idle
        // worker (idle set iterates in worker order — deterministic).
        while let Some(&std::cmp::Reverse((OrdF64(avail), task))) = pool.peek() {
            if avail > now {
                break;
            }
            let Some(&w) = idle.iter().next() else { break };
            pool.pop();
            idle.remove(&w);
            let t = now + cluster.dispatch_latency_s;
            let load = if last_worker_cache[w] == Some(tasks[task].part) {
                0.0
            } else {
                last_worker_cache[w] = Some(tasks[task].part);
                loads.load(w + 1, tasks[task].part, &mut cold, &mut warm)
            };
            let start = t + load;
            let end = start + tasks[task].cost_s;
            inflight[w] = Some((task, start, end));
            events.push(std::cmp::Reverse((OrdF64(end), EV_FREE, w)));
        }
    }
    assert!(
        ndone == tasks.len(),
        "all {workers} workers dead with {} of {} units unfinished",
        tasks.len() - ndone,
        tasks.len()
    );

    let total_search: f64 = worker_busy.iter().sum();
    SimResult {
        makespan_s: makespan,
        worker_busy,
        busy_intervals,
        cold_loads: cold,
        warm_loads: warm,
        total_search_s: total_search,
        redispatched,
        speculated: 0,
        cores,
    }
}

/// Simulate the master-worker schedule through a **master death and
/// failover**, mirroring the election protocol in `mrmpi::sched`:
///
/// * the dedicated master dies at `master_dies_at_s`; from that instant no
///   new units are dispatched. Workers already computing run their unit to
///   completion, then sit idle retrying the dead master;
/// * `detect_s` later the workers' failure detector gives up on the old
///   master, and after a further `failover_s` (election + scheduler-log
///   replay + committed-claim gather) the **lowest-indexed live worker is
///   promoted** to acting master and dispatch resumes;
/// * completions that landed during the dead-master window were never
///   arbitrated: survivors carry them to the new master, which commits them
///   at first contact — except the promoted worker's own carried unit,
///   which the role transition discards and re-queues (counted in
///   [`SimResult::redispatched`]), exactly as the scheduler does;
/// * the promotion permanently converts one compute core into the master
///   role, so the tail of the run proceeds with one fewer worker on the
///   same `cores`-core allocation;
/// * worker `failures` compose as in [`simulate_master_worker_faulty`]
///   (dead workers lose in-flight *and* committed units). A failure that
///   hits the already-promoted master is treated as a plain worker death;
///   the cost of a second election is not modelled here — the scheduler
///   tests cover cascaded master deaths;
/// * a `master_dies_at_s` past the fault-free makespan changes nothing.
///
/// # Panics
/// Panics if fewer than 3 cores are requested (a failover needs a worker
/// left over after the promotion), if a failure names a nonexistent worker,
/// or if every worker dies with units unfinished.
#[allow(clippy::too_many_arguments)]
pub fn simulate_master_worker_failover(
    cluster: &ClusterModel,
    cores: usize,
    tasks: &[Task],
    partition_gb: f64,
    master_dies_at_s: f64,
    detect_s: f64,
    failover_s: f64,
    failures: &[Failure],
) -> SimResult {
    assert!(cores >= 3, "failover needs >= 3 cores: master, successor, one worker");
    let workers = cores - 1;
    let mut loads = LoadModel::new(cluster, cores, partition_gb);
    let (mut cold, mut warm) = (0u64, 0u64);

    // Event queue: (time, kind, worker). The master death sorts before
    // completions at the same instant, so a unit finishing exactly then
    // counts as unarbitrated — the conservative reading.
    const EV_MDEATH: u8 = 0;
    const EV_DEATH: u8 = 1;
    const EV_FREE: u8 = 2;
    const EV_PROMOTE: u8 = 3;
    const EV_WAKE: u8 = 4;
    let mut events: std::collections::BinaryHeap<std::cmp::Reverse<(OrdF64, u8, usize)>> =
        std::collections::BinaryHeap::new();
    events.push(std::cmp::Reverse((OrdF64(master_dies_at_s), EV_MDEATH, 0)));
    for f in failures {
        assert!(f.worker < workers, "failure names worker {} of {workers}", f.worker);
        events.push(std::cmp::Reverse((OrdF64(f.at_s), EV_DEATH, f.worker)));
    }
    events.push(std::cmp::Reverse((OrdF64(0.0), EV_WAKE, 0)));

    let mut pool: std::collections::BinaryHeap<std::cmp::Reverse<(OrdF64, usize)>> =
        (0..tasks.len()).map(|i| std::cmp::Reverse((OrdF64(0.0), i))).collect();

    let mut alive = vec![true; workers];
    let mut idle: std::collections::BTreeSet<usize> = (0..workers).collect();
    let mut inflight: Vec<Option<(usize, f64, f64)>> = vec![None; workers];
    let mut completed: Vec<Vec<usize>> = vec![Vec::new(); workers];
    // A worker's single unarbitrated completion while the master is down
    // (it cannot receive another unit until arbitration resumes).
    let mut carried: Vec<Option<usize>> = vec![None; workers];
    let mut busy_intervals = vec![Vec::new(); workers];
    let mut worker_busy = vec![0.0f64; workers];
    let mut last_worker_cache: Vec<Option<usize>> = vec![None; workers];
    let mut frozen = false;
    let mut promoted: Option<usize> = None;
    let mut ndone = 0usize;
    let mut redispatched = 0u64;
    let mut makespan = 0.0f64;

    while ndone < tasks.len() {
        let Some(std::cmp::Reverse((OrdF64(now), kind, w))) = events.pop() else {
            break; // every worker dead with units remaining
        };
        match kind {
            EV_MDEATH => {
                frozen = true;
                events.push(std::cmp::Reverse((
                    OrdF64(now + detect_s + failover_s),
                    EV_PROMOTE,
                    0,
                )));
            }
            EV_PROMOTE => {
                // Elect the lowest live worker; its carried or in-flight
                // unit is discarded by the role transition and re-queued.
                let Some(p) = (0..workers).find(|&w| alive[w]) else {
                    continue; // all dead; the assert below reports it
                };
                if let Some((task, _, _)) = inflight[p].take() {
                    pool.push(std::cmp::Reverse((OrdF64(now), task)));
                    redispatched += 1;
                }
                if let Some(task) = carried[p].take() {
                    pool.push(std::cmp::Reverse((OrdF64(now), task)));
                    redispatched += 1;
                }
                // Survivors' carried completions commit at first contact.
                for w in 0..workers {
                    if let Some(task) = carried[w].take() {
                        completed[w].push(task);
                        ndone += 1;
                        makespan = makespan.max(now);
                    }
                }
                idle.remove(&p);
                promoted = Some(p);
                frozen = false;
            }
            EV_DEATH => {
                if !alive[w] {
                    continue;
                }
                alive[w] = false;
                idle.remove(&w);
                last_worker_cache[w] = None;
                let mut lost = 0u64;
                if let Some((task, _, _)) = inflight[w].take() {
                    pool.push(std::cmp::Reverse((OrdF64(now + detect_s), task)));
                    lost += 1;
                }
                if let Some(task) = carried[w].take() {
                    pool.push(std::cmp::Reverse((OrdF64(now + detect_s), task)));
                    lost += 1;
                }
                for task in completed[w].drain(..) {
                    pool.push(std::cmp::Reverse((OrdF64(now + detect_s), task)));
                    ndone -= 1;
                    lost += 1;
                }
                redispatched += lost;
                if lost > 0 {
                    events.push(std::cmp::Reverse((OrdF64(now + detect_s), EV_WAKE, 0)));
                }
            }
            EV_FREE => {
                if !alive[w] || promoted == Some(w) {
                    continue; // preempted by a death or by the promotion
                }
                let Some((task, start, end)) = inflight[w].take() else { continue };
                busy_intervals[w].push((start, end));
                worker_busy[w] += tasks[task].cost_s;
                idle.insert(w);
                if frozen {
                    carried[w] = Some(task); // unarbitrated until failover
                } else {
                    completed[w].push(task);
                    ndone += 1;
                    makespan = makespan.max(end);
                }
            }
            _ => {} // EV_WAKE: fall through to the dispatch sweep
        }
        if frozen {
            continue; // nobody arbitrates; no dispatch until the promotion
        }
        while let Some(&std::cmp::Reverse((OrdF64(avail), task))) = pool.peek() {
            if avail > now {
                break;
            }
            let Some(&w) = idle.iter().next() else { break };
            pool.pop();
            idle.remove(&w);
            let t = now + cluster.dispatch_latency_s;
            let load = if last_worker_cache[w] == Some(tasks[task].part) {
                0.0
            } else {
                last_worker_cache[w] = Some(tasks[task].part);
                loads.load(w + 1, tasks[task].part, &mut cold, &mut warm)
            };
            let start = t + load;
            let end = start + tasks[task].cost_s;
            inflight[w] = Some((task, start, end));
            events.push(std::cmp::Reverse((OrdF64(end), EV_FREE, w)));
        }
    }
    assert!(
        ndone == tasks.len(),
        "all {workers} workers dead with {} of {} units unfinished",
        tasks.len() - ndone,
        tasks.len()
    );

    let total_search: f64 = worker_busy.iter().sum();
    SimResult {
        makespan_s: makespan,
        worker_busy,
        busy_intervals,
        cold_loads: cold,
        warm_loads: warm,
        total_search_s: total_search,
        redispatched,
        speculated: 0,
        cores,
    }
}

/// Simulate the legacy **abort-and-restart** answer to a master death (the
/// `abort_on_master_loss` ablation baseline): the run aborts `detect_s`
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
    let clean = simulate_master_worker(cluster, cores, tasks, partition_gb);
    if master_dies_at_s >= clean.makespan_s {
        return clean;
    }
    let abort_at = master_dies_at_s + detect_s;
    // The restart is a fresh allocation running the identical schedule.
    let rerun = clean.clone();
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
    // The restart, shifted to begin once the abort is declared.
    for (w, intervals) in rerun.busy_intervals.iter().enumerate() {
        for &(s, e) in intervals {
            busy_intervals[w].push((s + abort_at, e + abort_at));
        }
        worker_busy[w] += rerun.worker_busy[w];
    }
    let total_search: f64 = worker_busy.iter().sum();
    SimResult {
        makespan_s: abort_at + rerun.makespan_s,
        worker_busy,
        busy_intervals,
        cold_loads: rerun.cold_loads,
        warm_loads: rerun.warm_loads,
        total_search_s: total_search,
        redispatched,
        speculated: 0,
        cores,
    }
}

/// A scheduled straggler episode for
/// [`simulate_master_worker_speculative`]: the worker freezes for `dur_s`
/// wall-clock seconds (GC pause, flaky NIC, contended node) but does not
/// die — work in progress resumes afterwards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stall {
    /// Worker index (0-based over the `cores − 1` workers).
    pub worker: usize,
    /// Virtual time at which the freeze begins, in seconds.
    pub at_s: f64,
    /// Freeze duration in seconds.
    pub dur_s: f64,
}

/// Simulate the master-worker schedule under **stragglers** with optional
/// speculative re-execution, mirroring the heartbeat/speculation protocol in
/// `mrmpi::sched`:
///
/// * a [`Stall`] freezes its worker: the unit it is executing (or the next
///   unit it is handed) finishes `dur_s` late;
/// * the master expects a unit to complete in its known cost; once a unit is
///   `suspect_after_s` overdue the worker is *suspected*;
/// * with `speculate` on, a suspected worker's in-flight unit is re-launched
///   on an idle worker; the **first completion wins**, the duplicate is
///   discarded (its compute appears in no busy interval, exactly as the
///   scheduler's commit/discard dedup keeps duplicate emissions out of the
///   output), and the run does not wait for the loser;
/// * with `speculate` off, the makespan simply absorbs every stall — the
///   baseline the `ablation_speculation` bench compares against.
///
/// `SimResult::speculated` counts backup launches.
///
/// # Panics
/// Panics if fewer than 2 cores are requested or a stall names a
/// nonexistent worker.
pub fn simulate_master_worker_speculative(
    cluster: &ClusterModel,
    cores: usize,
    tasks: &[Task],
    partition_gb: f64,
    stalls: &[Stall],
    suspect_after_s: f64,
    speculate: bool,
) -> SimResult {
    assert!(cores >= 2, "master-worker needs >= 2 cores");
    let workers = cores - 1;
    let mut loads = LoadModel::new(cluster, cores, partition_gb);
    let (mut cold, mut warm) = (0u64, 0u64);

    // Per-worker stall schedule, earliest first, consumed as units absorb
    // them.
    let mut pending_stalls: Vec<std::collections::VecDeque<(f64, f64)>> =
        vec![std::collections::VecDeque::new(); workers];
    {
        let mut sorted: Vec<&Stall> = stalls.iter().collect();
        sorted.sort_by(|a, b| a.at_s.partial_cmp(&b.at_s).expect("no NaN stall times"));
        for s in sorted {
            assert!(s.worker < workers, "stall names worker {} of {workers}", s.worker);
            pending_stalls[s.worker].push_back((s.at_s, s.dur_s));
        }
    }

    // Events: completions, overdue checks, dispatch wakeups. At equal times
    // completions precede suspicion checks, so a unit finishing exactly on
    // its deadline is never speculated against.
    const EV_FREE: u8 = 0;
    const EV_SPEC: u8 = 1;
    const EV_WAKE: u8 = 2;
    let mut events: std::collections::BinaryHeap<std::cmp::Reverse<(OrdF64, u8, usize)>> =
        std::collections::BinaryHeap::new();
    events.push(std::cmp::Reverse((OrdF64(0.0), EV_WAKE, 0)));

    let mut pool: std::collections::VecDeque<usize> = (0..tasks.len()).collect();
    let mut idle: std::collections::BTreeSet<usize> = (0..workers).collect();
    // (task, start, effective_end) per worker.
    let mut inflight: Vec<Option<(usize, f64, f64)>> = vec![None; workers];
    let mut done = vec![false; tasks.len()];
    let mut backed_up = vec![false; tasks.len()];
    let mut busy_intervals = vec![Vec::new(); workers];
    let mut worker_busy = vec![0.0f64; workers];
    let mut last_worker_cache: Vec<Option<usize>> = vec![None; workers];
    let mut ndone = 0usize;
    let mut speculated = 0usize;
    let mut makespan = 0.0f64;

    // Hand `task` to `w` at `now`; returns nothing, queues the completion.
    // A pending stall overlapping the execution window extends it; the
    // overdue check fires `suspect_after_s` past the *stall-free* end.
    let dispatch = |w: usize,
                        task: usize,
                        now: f64,
                        loads: &mut LoadModel,
                        cold: &mut u64,
                        warm: &mut u64,
                        pending_stalls: &mut Vec<std::collections::VecDeque<(f64, f64)>>,
                        inflight: &mut Vec<Option<(usize, f64, f64)>>,
                        last_worker_cache: &mut Vec<Option<usize>>,
                        events: &mut std::collections::BinaryHeap<
                            std::cmp::Reverse<(OrdF64, u8, usize)>,
                        >| {
        let t = now + cluster.dispatch_latency_s;
        let load = if last_worker_cache[w] == Some(tasks[task].part) {
            0.0
        } else {
            last_worker_cache[w] = Some(tasks[task].part);
            loads.load(w + 1, tasks[task].part, cold, warm)
        };
        let start = t + load;
        let nominal_end = start + tasks[task].cost_s;
        let mut end = nominal_end;
        while let Some(&(at, dur)) = pending_stalls[w].front() {
            if at < end {
                end += dur;
                pending_stalls[w].pop_front();
            } else {
                break;
            }
        }
        inflight[w] = Some((task, start, end));
        events.push(std::cmp::Reverse((OrdF64(end), EV_FREE, w)));
        if speculate {
            // Overdue check keyed by *unit*, not worker: by the time it
            // fires the worker may long since be running something else.
            events.push(std::cmp::Reverse((
                OrdF64(nominal_end + suspect_after_s),
                EV_SPEC,
                task,
            )));
        }
    };

    while ndone < tasks.len() {
        let std::cmp::Reverse((OrdF64(now), kind, w)) =
            events.pop().expect("stalled workers always finish eventually");
        match kind {
            EV_FREE => {
                let Some((task, start, end)) = inflight[w].take() else { continue };
                idle.insert(w);
                if done[task] {
                    continue; // lost the race to a speculative copy
                }
                done[task] = true;
                ndone += 1;
                busy_intervals[w].push((start, end));
                worker_busy[w] += tasks[task].cost_s;
                makespan = makespan.max(end);
            }
            EV_SPEC => {
                // `w` is the *unit* here. Speculate only against a unit
                // that is genuinely overdue — still in flight past its
                // stall-free deadline plus grace — and back each unit up at
                // most once (the scheduler's backoff keeps duplicates
                // bounded the same way). With every worker busy, re-check
                // one grace period later instead of giving up.
                let task = w;
                if done[task] || backed_up[task] {
                    continue;
                }
                let running = inflight
                    .iter()
                    .enumerate()
                    .find(|(_, slot)| matches!(slot, Some((t, _, _)) if *t == task));
                let Some((primary, &Some((_, _, end)))) = running else { continue };
                if end <= now + 1e-12 {
                    continue; // completes momentarily; not worth a copy
                }
                let Some(&backup) = idle.iter().find(|&&b| b != primary) else {
                    events.push(std::cmp::Reverse((
                        OrdF64(now + suspect_after_s),
                        EV_SPEC,
                        task,
                    )));
                    continue;
                };
                idle.remove(&backup);
                backed_up[task] = true;
                speculated += 1;
                dispatch(
                    backup,
                    task,
                    now,
                    &mut loads,
                    &mut cold,
                    &mut warm,
                    &mut pending_stalls,
                    &mut inflight,
                    &mut last_worker_cache,
                    &mut events,
                );
            }
            _ => {} // EV_WAKE: fall through to the dispatch sweep
        }
        while !pool.is_empty() {
            let Some(&w) = idle.iter().next() else { break };
            let task = pool.pop_front().expect("non-empty");
            if done[task] {
                continue;
            }
            idle.remove(&w);
            dispatch(
                w,
                task,
                now,
                &mut loads,
                &mut cold,
                &mut warm,
                &mut pending_stalls,
                &mut inflight,
                &mut last_worker_cache,
                &mut events,
            );
        }
    }

    let total_search: f64 = worker_busy.iter().sum();
    SimResult {
        makespan_s: makespan,
        worker_busy,
        busy_intervals,
        cold_loads: cold,
        warm_loads: warm,
        total_search_s: total_search,
        redispatched: 0,
        speculated,
        cores,
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
    assert!(schedule != Schedule::MasterWorker, "use simulate_master_worker");
    let mut loads = LoadModel::new(cluster, cores, partition_gb);
    let (mut cold, mut warm) = (0u64, 0u64);
    let mut busy_intervals = vec![Vec::new(); cores];
    let mut worker_busy = vec![0.0f64; cores];
    let mut clock = vec![0.0f64; cores];
    let mut last_part: Vec<Option<usize>> = vec![None; cores];

    for (i, task) in tasks.iter().enumerate() {
        let w = match schedule {
            Schedule::RoundRobin => i % cores,
            Schedule::Chunk => i * cores / tasks.len().max(1),
            Schedule::MasterWorker => unreachable!(),
        };
        let load = if last_part[w] == Some(task.part) {
            0.0
        } else {
            last_part[w] = Some(task.part);
            loads.load(w, task.part, &mut cold, &mut warm)
        };
        let start = clock[w] + load;
        let end = start + task.cost_s;
        busy_intervals[w].push((start, end));
        worker_busy[w] += task.cost_s;
        clock[w] = end;
    }

    let makespan = clock.iter().copied().fold(0.0, f64::max);
    let total_search: f64 = worker_busy.iter().sum();
    SimResult {
        makespan_s: makespan,
        worker_busy,
        busy_intervals,
        cold_loads: cold,
        warm_loads: warm,
        total_search_s: total_search,
        redispatched: 0,
        speculated: 0,
        cores,
    }
}

/// Total-orderable f64 for the event heap (costs are never NaN).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("no NaN times")
    }
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
        let r = simulate_master_worker(&cheap_cluster(), 3, &uniform_tasks(10, 1.0), 0.0);
        assert!((r.makespan_s - 5.0).abs() < 1e-9, "makespan {}", r.makespan_s);
        assert_eq!(r.total_search_s, 10.0);
    }

    #[test]
    fn single_worker_serializes() {
        let r = simulate_master_worker(&cheap_cluster(), 2, &uniform_tasks(7, 2.0), 0.0);
        assert!((r.makespan_s - 14.0).abs() < 1e-9);
    }

    #[test]
    fn master_worker_beats_static_on_skewed_load() {
        // One giant task plus many small: dynamic dispatch must win.
        let mut tasks = vec![Task { part: 0, cost_s: 50.0 }];
        tasks.extend((0..40).map(|i| Task { part: i % 4, cost_s: 1.0 }));
        let cluster = cheap_cluster();
        let dynamic = simulate_master_worker(&cluster, 5, &tasks, 0.0);
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
        let r = simulate_master_worker(&cheap_cluster(), 5, &uniform_tasks(5, 1.0), 0.0);
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
        let tasks: Vec<Task> =
            (0..6).map(|i| Task { part: i % 2, cost_s: 1.0 }).collect();
        let r = simulate_master_worker(&cluster, 2, &tasks, 1.0);
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
        let r = simulate_master_worker(&cluster, 2, &tasks, 1.0);
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
        let r = simulate_master_worker(&cluster, 2, &tasks, 1.0);
        assert_eq!(r.cold_loads, 6, "alternating partitions must thrash a 1-slot cache");
    }

    #[test]
    fn utilization_curve_tapers_at_end() {
        // Few long tasks at the end starve most workers.
        let mut tasks = uniform_tasks(40, 1.0);
        tasks.push(Task { part: 0, cost_s: 10.0 });
        let r = simulate_master_worker(&cheap_cluster(), 9, &tasks, 0.0);
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
        let tasks: Vec<Task> =
            (0..128).map(|i| Task { part: i % 8, cost_s: 1.0 }).collect();
        let plain = simulate_master_worker(&cluster, 5, &tasks, 1.0);
        let affine = simulate_master_worker_affinity(&cluster, 5, &tasks, 1.0);
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
        let r = simulate_master_worker_affinity(&cluster, 5, &tasks, 0.0);
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
        let plain = simulate_master_worker(&cluster, 5, &tasks, 1.0);
        let faulty = simulate_master_worker_faulty(&cluster, 5, &tasks, 1.0, &[], 0.5);
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
        let r = simulate_master_worker_faulty(
            &cheap_cluster(),
            4,
            &uniform_tasks(12, 1.0),
            0.0,
            &fails,
            0.25,
        );
        assert!((r.makespan_s - 6.0).abs() < 1e-9, "makespan {}", r.makespan_s);
        assert_eq!(r.redispatched, 0, "a worker that never got a unit loses none");
    }

    #[test]
    fn mid_run_death_redispatches_completed_units_and_stretches_makespan() {
        // 3 workers, 12 unit tasks. Worker 0 dies at t=2.5: it has finished
        // units at t=1 and t=2 and is mid-unit — all 3 must be redone.
        let fails = [Failure { worker: 0, at_s: 2.5 }];
        let r = simulate_master_worker_faulty(
            &cheap_cluster(),
            4,
            &uniform_tasks(12, 1.0),
            0.0,
            &fails,
            0.0,
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
        let r = simulate_master_worker_faulty(&cheap_cluster(), 3, &tasks, 0.0, &fails, 2.0);
        assert!((r.makespan_s - 6.0).abs() < 1e-9, "makespan {}", r.makespan_s);
        assert_eq!(r.redispatched, 1);
    }

    #[test]
    fn death_after_completion_changes_nothing() {
        let fails = [Failure { worker: 0, at_s: 1e6 }];
        let r = simulate_master_worker_faulty(
            &cheap_cluster(),
            3,
            &uniform_tasks(10, 1.0),
            0.0,
            &fails,
            0.5,
        );
        assert!((r.makespan_s - 5.0).abs() < 1e-9);
        assert_eq!(r.redispatched, 0);
    }

    #[test]
    #[should_panic(expected = "workers dead")]
    fn all_workers_dead_panics_with_units_unfinished() {
        let fails = [Failure { worker: 0, at_s: 0.0 }, Failure { worker: 1, at_s: 0.0 }];
        simulate_master_worker_faulty(
            &cheap_cluster(),
            3,
            &uniform_tasks(4, 1.0),
            0.0,
            &fails,
            0.1,
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
        let plain = simulate_master_worker(&cluster, 5, &tasks, 1.0);
        for speculate in [false, true] {
            let spec = simulate_master_worker_speculative(
                &cluster, 5, &tasks, 1.0, &[], 0.5, speculate,
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
        let r = simulate_master_worker_speculative(
            &cheap_cluster(),
            3,
            &uniform_tasks(8, 1.0),
            0.0,
            &stalls,
            0.5,
            false,
        );
        // Worker 1 clears the other 7 units by t=7; worker 0's unit lands at
        // t=11 and dominates.
        assert!((r.makespan_s - 11.0).abs() < 1e-9, "makespan {}", r.makespan_s);
        assert_eq!(r.speculated, 0);
    }

    #[test]
    fn speculation_hides_the_stall_and_first_result_wins() {
        let stalls = [Stall { worker: 0, at_s: 0.5, dur_s: 10.0 }];
        let r = simulate_master_worker_speculative(
            &cheap_cluster(),
            3,
            &uniform_tasks(8, 1.0),
            0.0,
            &stalls,
            0.5,
            true,
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
        let r = simulate_master_worker_speculative(
            &cheap_cluster(),
            3,
            &uniform_tasks(2, 1.0),
            0.0,
            &stalls,
            0.1,
            true,
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
        let clean = simulate_master_worker(&cluster, 1024, &tasks, 0.0);
        let stalls = [Stall { worker: 17, at_s: 10.0, dur_s: 3600.0 }];
        let stalled = simulate_master_worker_speculative(
            &cluster, 1024, &tasks, 0.0, &stalls, 15.0, false,
        );
        let spec = simulate_master_worker_speculative(
            &cluster, 1024, &tasks, 0.0, &stalls, 15.0, true,
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
        let plain = simulate_master_worker(&cluster, 5, &tasks, 1.0);
        let fo = simulate_master_worker_failover(&cluster, 5, &tasks, 1.0, 1e6, 0.5, 0.5, &[]);
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
        let r = simulate_master_worker_failover(
            &cheap_cluster(),
            3,
            &uniform_tasks(8, 1.0),
            0.0,
            2.5,
            1.0,
            0.5,
            &[],
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
        let r = simulate_master_worker_failover(
            &cheap_cluster(),
            3,
            &uniform_tasks(6, 2.0),
            0.0,
            2.5,
            1.0,
            0.4,
            &[],
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
        let r = simulate_master_worker_failover(
            &cheap_cluster(),
            4,
            &uniform_tasks(12, 1.0),
            0.0,
            2.5,
            0.5,
            0.5,
            &fails,
        );
        // Worker 2 loses its completed unit and its in-flight unit; the
        // promoted worker discards one more.
        assert_eq!(r.redispatched, 3, "redispatched {}", r.redispatched);
        assert!(r.total_search_s >= 12.0 - 1e-9);
        assert!(r.makespan_s >= 12.0 / 3.0);
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
        let fo = simulate_master_worker_failover(&cluster, 3, &tasks, 0.0, 8.0, 1.0, 0.5, &[]);
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
        let plain = simulate_master_worker(&cheap_cluster(), 3, &tasks, 0.0);
        let r = simulate_master_worker_abort_restart(&cheap_cluster(), 3, &tasks, 0.0, 1e6, 1.0);
        assert!((r.makespan_s - plain.makespan_s).abs() < 1e-9);
        assert_eq!(r.redispatched, 0);
    }

    #[test]
    fn core_seconds_and_mean_utilization() {
        let r = simulate_master_worker(&cheap_cluster(), 3, &uniform_tasks(4, 1.0), 0.0);
        assert!((r.makespan_s - 2.0).abs() < 1e-9);
        assert!((r.core_seconds() - 6.0).abs() < 1e-9);
        // 4 search-seconds over 6 core-seconds (master idles by design).
        assert!((r.mean_utilization() - 4.0 / 6.0).abs() < 1e-9);
    }
}
