//! Map-task assignment: the three *mapstyles* of MapReduce-MPI.
//!
//! The original library's `mapstyle` setting selects how the `nmap` task
//! indices of a `map()` call are assigned to ranks:
//!
//! * `Chunk` — rank *r* gets the contiguous block of tasks
//!   `[r·n/P, (r+1)·n/P)`;
//! * `RoundRobin` — rank *r* gets tasks `r, r+P, r+2P, …`;
//! * `MasterWorker` — rank 0 acts as a dedicated master handing one task at a
//!   time to whichever worker asks next. The paper uses this mode for BLAST,
//!   "such that each worker is kept occupied as long as there are remaining
//!   work units", because BLAST work-unit runtimes are highly skewed.
//!
//! [`assign_and_run`] is the one entry point for all three. The
//! master-worker scheduler is fault-tolerant: it survives worker and master
//! deaths, stragglers and poison units, and with a per-call affinity slice
//! it is also the locality-aware master. Its decisions live in one pure
//! state machine, [`core::Core`]; this module is the IO shell that drives
//! it from mpisim messages and the fault board, and `perfmodel`'s
//! discrete-event simulator drives the same core from its event queue.
//! Every setting of the scheduler — timeouts, retry and poison budgets,
//! speculation — is one [`FtConfig`]; the `mrbio` drivers carry it as the
//! `ft` field of their run config.
//!
//! Every style has the same contract: each unit's execution is
//! panic-isolated, retried and quarantined as poison under the same budgets,
//! and its output is published or dropped on a verdict. A style only picks
//! which units a rank runs. With [`Grants`] a request may take several
//! pending units of one key, run as one execution ([`assign_grants`]);
//! each unit is still judged, published and quarantined on its own. Chunk and round-robin — and master-worker in a
//! world of one rank — run their units through one message-free local loop
//! over the same [`core::Core`].

pub mod core;

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use mpisim::{Comm, MpiError, ANY_SOURCE};

pub use self::core::Grants;
use self::core::{Code, Core, Out, Outcome, Policy, Record, Takeover, Verdict};
use self::core::{LOG_COMMIT, LOG_DISCARD, LOG_DISPATCH, LOG_FENCE, LOG_QUARANTINE};

/// Tag for a worker's "give me work" request.
const TAG_REQ: u32 = 0x4D52_0001;
/// Tag for the master's task assignment / termination reply.
const TAG_TASK: u32 = 0x4D52_0002;

// Reply codes: "run the grant that follows", "no more tasks", "the run is
// abandoned", and "no work yet, but I am alive" to a parked worker
// (resetting its retry budget). A request's report count of FAREWELL
// confirms receipt of DONE/ABORT (the master answers retransmissions until
// every live worker said farewell, so a dropped termination reply cannot
// strand one); a request sequence number of BEACON marks a one-way progress
// beacon ([`ft_beacon`]).
const GRANT: u64 = u64::MAX - 6;
const DONE: u64 = u64::MAX;
const ABORT: u64 = u64::MAX - 1;
const FAREWELL: u64 = u64::MAX - 3;
const WAIT: u64 = u64::MAX - 4;
const BEACON: u64 = u64::MAX - 5;

// A reported unit's flag: ran clean (its staged output awaits a verdict),
// or its grant panicked (nothing staged).
const FLAG_OK: u64 = 1;
const FLAG_PANIC: u64 = 2;

// A reply's verdict on one reported unit.
const V_NONE: u64 = 0;
const V_COMMIT: u64 = 1;
const V_DISCARD: u64 = 2;

/// Words of a reply frame before its verdicts and granted units:
/// `[seq_echo, code, epoch, nverdicts]`.
const REPLY_HEAD: usize = 4;
/// Words of a request frame before its `(unit, flag)` reports and claims:
/// `[seq, epoch, nreports, nclaims]`.
const REQ_HEAD: usize = 4;

thread_local! {
    /// The rank this rank currently believes holds the master *role* (one
    /// cell per rank: the simulator runs ranks as threads). Routes
    /// [`ft_beacon`] traffic to the acting master across failovers.
    static CURRENT_MASTER: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Task-to-rank assignment policy for [`crate::MapReduce::map_tasks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapStyle {
    /// Contiguous blocks of tasks per rank (original `mapstyle 0`).
    Chunk,
    /// Strided assignment: task `t` runs on rank `t % P` (original
    /// `mapstyle 1`).
    RoundRobin,
    /// Rank 0 is a dedicated master doling out tasks dynamically (original
    /// `mapstyle 2`); this is the load-balanced mode the paper's BLAST uses.
    MasterWorker,
}

/// Tuning knobs of the fault-tolerant scheduler. The attempt and poison
/// budgets govern every mapstyle; the timeouts and speculation only the
/// master-worker style at two or more ranks.
#[derive(Debug, Clone)]
pub struct FtConfig {
    /// Wall-clock timeout of one wait for a reply (or, on the master, for a
    /// request): the liveness backstop bounding every blocking wait.
    pub rpc_timeout: Duration,
    /// How many times a worker re-sends one request before concluding the
    /// master is unreachable.
    pub max_rpc_retries: usize,
    /// How many times one master tenure may dispatch one work unit (first
    /// dispatch included) before it aborts the whole run. A successor
    /// starts its own count: there are at most as many tenures as ranks.
    pub max_attempts: usize,
    /// Speculatively re-execute units stuck on *suspected* workers. Off by
    /// default: it trades spare cycles for tail latency.
    pub speculate: bool,
    /// Heartbeat deadline: a worker with a unit in flight that has been
    /// silent (no request, no beacon) this long is *suspected*.
    pub suspect_after: Duration,
    /// Initial backoff between backups of one unit; doubles per launch.
    pub spec_backoff: Duration,
    /// How many times one unit may panic under one master tenure before it
    /// is *quarantined* (dropped from the run and reported) instead of
    /// retried. Must stay below [`FtConfig::max_attempts`] or the run aborts
    /// before quarantine fires. A successor learns nothing of its
    /// predecessor's quarantines: it re-runs such a unit at most this many
    /// times and quarantines it again.
    pub poison_retries: usize,
}

impl Default for FtConfig {
    fn default() -> Self {
        FtConfig {
            rpc_timeout: Duration::from_millis(200),
            max_rpc_retries: 150,
            max_attempts: 8,
            speculate: false,
            suspect_after: Duration::from_millis(500),
            spec_backoff: Duration::from_millis(300),
            poison_retries: 3,
        }
    }
}

impl FtConfig {
    /// The scheduling policy these knobs give [`core::Core`].
    pub fn policy(&self) -> Policy {
        Policy {
            max_attempts: self.max_attempts,
            poison_retries: self.poison_retries,
            speculate: self.speculate,
            suspect_after: self.suspect_after.as_secs_f64(),
            spec_backoff: self.spec_backoff.as_secs_f64(),
        }
    }
}

/// Typed failure of a scheduled run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// The master exhausted [`FtConfig::max_attempts`] dispatches of `unit`
    /// and abandoned the run.
    Aborted {
        /// The unit that kept failing.
        unit: u64,
    },
    /// No rank was left to take over an unreachable master.
    MasterUnreachable,
    /// The master died and no rank was left to take over.
    MasterDied,
    /// Every worker died before all units completed.
    AllWorkersDead,
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::Aborted { unit } => {
                write!(f, "work unit {unit} exceeded its dispatch-attempt budget; run aborted")
            }
            SchedError::MasterUnreachable => write!(f, "master did not answer within the retry budget"),
            SchedError::MasterDied => write!(f, "master rank died"),
            SchedError::AllWorkersDead => write!(f, "all workers died with work outstanding"),
        }
    }
}

impl std::error::Error for SchedError {}

/// Outcome of a scheduled run ([`assign_and_run`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FtRun {
    /// Unit indices whose output this rank *committed*, in execution order.
    /// Empty on a rank that only ever held the master role; a worker
    /// elected master mid-run keeps the units it committed while it was
    /// serving.
    pub units: Vec<usize>,
    /// Units quarantined as poison (each panicked
    /// [`FtConfig::poison_retries`] times), sorted. Populated on the rank
    /// that quarantined them only — the final acting master, or the rank
    /// that ran a static unit — and the others learn about quarantine
    /// through the higher layer's reconciliation exchange.
    pub quarantined: Vec<u64>,
}

/// Execute `run(unit)` for every unit this rank is responsible for under
/// `style`, one unit per execution: [`assign_grants`] with the default
/// [`Grants`].
pub fn assign_and_run(
    comm: &Comm,
    ntasks: usize,
    style: MapStyle,
    cfg: &FtConfig,
    affinity: Option<&[usize]>,
    run: &mut dyn FnMut(usize),
    verdict: &mut dyn FnMut(usize, bool),
) -> Result<FtRun, SchedError> {
    let grants = Grants::default();
    assign_grants(comm, ntasks, style, cfg, affinity, grants, &mut |units| run(units[0]), verdict)
}

/// Execute `run(grant)` until every unit this rank is responsible for under
/// `style` has run, calling `verdict(unit, commit)` exactly once per unit of
/// each completed execution to publish (`true`) or drop (`false`) what it
/// staged for that unit. A grant is one or more units that `grants` lets
/// one request take (see [`Grants`]); a panic fails the whole grant.
///
/// `Chunk` and `RoundRobin` assign units statically, and `MasterWorker` in
/// a world of one rank gives the rank every unit: the rank runs its list
/// through one local [`core::Core`] with no messages, so a panicking unit
/// is retried and quarantined as on the distributed path. `MasterWorker`
/// at two or more ranks is dynamic master-worker scheduling that survives
/// worker deaths, master deaths, stragglers and poison units; every
/// decision is [`core::Core`]'s (see its docs for the rules), and this
/// module carries them over an at-least-once RPC with master-side dedup, so
/// dropped or delayed messages are harmless:
///
/// * a worker's request is `[seq, epoch, nreports, nclaims, (unit, flag)…,
///   claims…]`: one `(unit, flag)` per unit of the grant it just ran, the
///   flag saying whether it ran clean or panicked; `epoch` is the rank the
///   worker believes holds the master role; the claims — the units this
///   worker has committed — ride only on the first request to each new
///   master.
///   The worker re-sends a request on timeout and the master answers a
///   duplicate `seq` from its reply cache;
/// * the master's reply is `[seq_echo, code, epoch, nverdicts, verdicts…,
///   units…]`: `code` is `GRANT` (the granted units follow), `DONE` or
///   `ABORT`; each verdict publishes or drops one reported unit's staged
///   output; `epoch` fences a deposed zombie ex-master;
/// * workers may send one-way progress beacons mid-unit ([`ft_beacon`]).
///
/// The master is a *role*, not a rank: when the acting master dies — or
/// stalls past a worker's whole retry budget and is *deposed* on the fault
/// board — the survivors elect the lowest eligible rank (alive, not
/// departed or deposed this round). Membership is monotone, as in MPI: a
/// dead rank never rejoins. So eligibility only shrinks, elected ranks
/// strictly increase within a round and every rank converges on the same
/// master; its rank is the fencing epoch. The claims are the takeover: the
/// successor credits its own commits and departed ranks' manifests and
/// gathers every survivor's claims before it dispatches again, so output
/// stays bit-for-bit that of a fault-free run. Its attempt and poison
/// budgets start afresh; at most `size` tenures bound the run.
///
/// `affinity[t]`, when given, names the resource (e.g. a DB partition) unit
/// `t` needs: a worker then gets a pending unit of the resource it last
/// received, else one of the resource with the most pending units — the
/// locality-aware scheduler the paper proposes as future work ("distribute
/// the work unit tuples to those ranks that have already been processing
/// the same DB partitions"). Requeued units follow the same rule.
///
/// # Panics
/// Panics if `affinity` or `grants.key` is given and its length is not
/// `ntasks`.
#[allow(clippy::too_many_arguments)]
pub fn assign_grants(
    comm: &Comm,
    ntasks: usize,
    style: MapStyle,
    cfg: &FtConfig,
    affinity: Option<&[usize]>,
    grants: Grants,
    run: &mut dyn FnMut(&[usize]),
    verdict: &mut dyn FnMut(usize, bool),
) -> Result<FtRun, SchedError> {
    if let Some(a) = affinity {
        assert_eq!(a.len(), ntasks, "one affinity per task");
    }
    if let Some(key) = grants.key {
        assert_eq!(key.len(), ntasks, "one grant key per task");
    }
    let (size, rank) = (comm.size(), comm.rank());
    let units: Vec<usize> = match style {
        MapStyle::MasterWorker if size > 1 => {
            return ft_run(comm, ntasks, cfg, affinity, grants, run, verdict)
        }
        MapStyle::MasterWorker => (0..ntasks).collect(),
        MapStyle::Chunk => (rank * ntasks / size..(rank + 1) * ntasks / size).collect(),
        MapStyle::RoundRobin => (rank..ntasks).step_by(size).collect(),
    };
    run_local(comm, &units, cfg, grants, run, verdict)
}

/// The master role's state machine across failovers, for a world of at
/// least two ranks.
fn ft_run(
    comm: &Comm,
    ntasks: usize,
    cfg: &FtConfig,
    affinity: Option<&[usize]>,
    grants: Grants,
    run: &mut dyn FnMut(&[usize]),
    verdict: &mut dyn FnMut(usize, bool),
) -> Result<FtRun, SchedError> {
    let round = comm.next_round();
    let board = comm.board();
    let me = comm.rank();
    let mut mine: Vec<usize> = Vec::new();
    let mut seq = 0u64;
    // The last grant's units, with whether it ran clean, until judged.
    let mut carry: Vec<(u64, bool)> = Vec::new();

    let Some(mut master) = board.elect_coordinator(round) else {
        return Err(SchedError::MasterUnreachable);
    };
    CURRENT_MASTER.with(|m| m.set(master));
    // `via_failover` distinguishes a takeover (commits may exist — gather
    // the claims before dispatching) from being the round's first master.
    // Elected ranks strictly increase within a round, so only rank 0 knows
    // no master preceded it: a rank that starts late may find its first
    // election already landing on a successor, and must take over like one.
    let mut via_failover = master != 0;
    let mut last_died;
    loop {
        if master == me {
            // A completion the dead master never arbitrated: drop the
            // staging and let its units re-dispatch — self-committing could
            // race a speculative backup's claim.
            for (unit, clean) in carry.drain(..) {
                if clean {
                    verdict(unit as usize, false);
                }
            }
            // Every survivor runs the same election, and a late starter
            // may learn of it only from the round's first one: the rank
            // taking over counts it, once.
            if via_failover {
                if let Some(o) = comm.obs() {
                    o.add("sched.elections", 1);
                }
            }
            let claims = via_failover.then(|| mine.clone());
            match ft_master_loop(comm, ntasks, cfg, affinity, grants, round, claims) {
                Some(outcome) => {
                    if matches!(outcome, Outcome::Finished(_)) {
                        board.record_departure(me, round, mine.iter().map(|&u| u as u64).collect());
                    }
                    return ended(outcome, mine, |u| u);
                }
                // Peers lost patience during a stall and elected around us:
                // step down and serve the successor as a worker.
                None => last_died = false,
            }
        } else {
            match ft_worker_phase(comm, cfg, master, run, verdict, &mut mine, &mut seq, &mut carry) {
                WorkerExit::Done => {
                    board.record_departure(me, round, mine.iter().map(|&u| u as u64).collect());
                    return Ok(FtRun { units: mine, quarantined: Vec::new() });
                }
                WorkerExit::Abort => return Err(SchedError::Aborted { unit: u64::MAX }),
                WorkerExit::MasterGone { died } => {
                    if !died {
                        // Alive but absent past the whole retry budget:
                        // strike it from eligibility so the election below
                        // cannot pick it again.
                        board.depose(master, round);
                    }
                    last_died = died;
                }
            }
        }
        via_failover = true;
        let lost = master;
        let Some(next) = board.elect_coordinator(round) else {
            return Err(if last_died {
                SchedError::MasterDied
            } else {
                SchedError::MasterUnreachable
            });
        };
        master = next;
        // Only failover elects here, so a fault-free trace has no
        // `sched.elect` events.
        if let Some(o) = comm.obs() {
            let why = if last_died { "predecessor died" } else { "predecessor unreachable" };
            o.instant(o.now(), "sched.elect", format!("master role moved {lost} -> {master} ({why})"));
        }
        CURRENT_MASTER.with(|m| m.set(master));
    }
}

/// Send a one-way progress beacon to the *acting* master (tracked across
/// failovers), refreshing this worker's heartbeat deadline. Call from inside
/// a long-running work unit (e.g. after loading a database partition) so a
/// genuinely busy worker is not mistaken for a straggler. No-op on the
/// acting master and in single-rank worlds.
pub fn ft_beacon(comm: &Comm) {
    if comm.size() <= 1 {
        return;
    }
    let master = CURRENT_MASTER.with(|m| m.get());
    if comm.rank() != master {
        comm.send_u64s(master, TAG_REQ, &[BEACON, master as u64, 0, 0]);
    }
}

/// Run this rank's own `units` (ascending) with no messages: the rank is
/// master and only worker at once, so it drives a [`Core`] over
/// `0..units.len()` directly, with the same grant and
/// isolate-retry-quarantine policy as the distributed path, and maps each
/// core index `i` back to the global unit `units[i]`. Grants run in list
/// order and time stands still at zero, so a panicked grant is retried
/// before the next one starts.
fn run_local(
    comm: &Comm,
    units: &[usize],
    cfg: &FtConfig,
    grants: Grants,
    run: &mut dyn FnMut(&[usize]),
    verdict: &mut dyn FnMut(usize, bool),
) -> Result<FtRun, SchedError> {
    let global = |i: u64| units[i as usize] as u64;
    let key: Option<Vec<usize>> = grants.key.map(|key| units.iter().map(|&u| key[u]).collect());
    let grants = Grants { key: key.as_deref(), ..grants };
    let mut core = Core::new(units.len(), cfg.policy(), None, None, 0.0).with_grants(grants, 1);
    let mut mine = Vec::new();
    let mut report: Vec<(u64, bool)> = Vec::new();
    loop {
        core.request(comm.rank(), &report, &[], 0.0);
        let mut next = None;
        while let Some(out) = core.poll() {
            match out {
                Out::Journal(rec) => journal_obs(comm, &Record { unit: global(rec.unit), ..rec }),
                Out::Reply { code, verdicts, .. } => {
                    for (&(i, clean), v) in report.iter().zip(verdicts) {
                        if clean {
                            settle(comm, global(i), v == Verdict::Commit, verdict, &mut mine);
                        }
                    }
                    next = Some(code);
                }
                Out::Suspect(_) | Out::Backup { .. } => {}
            }
        }
        report = match next.expect("a lone worker is never parked") {
            Code::Grant(grant) => {
                let globals: Vec<u64> = grant.iter().map(|&i| global(i)).collect();
                let clean = execute(comm, &globals, run, verdict);
                grant.into_iter().map(|i| (i, clean)).collect()
            }
            Code::Done | Code::Abort => return ended(core.outcome(), mine, global),
        };
    }
}

/// The run's result on the rank whose master tenure ended with `outcome`,
/// with the core's unit indices mapped to global ones by `global`.
fn ended(outcome: Outcome, units: Vec<usize>, global: impl Fn(u64) -> u64) -> Result<FtRun, SchedError> {
    match outcome {
        Outcome::Finished(q) => Ok(FtRun { units, quarantined: q.into_iter().map(global).collect() }),
        Outcome::Aborted(unit) => Err(SchedError::Aborted { unit: global(unit) }),
        Outcome::AllWorkersDead => Err(SchedError::AllWorkersDead),
    }
}

/// Execute one grant with panic isolation: a poison injection from the
/// fault plan on any of its units or a genuine panic inside `run` yields
/// `false` (and drops whatever the execution staged for each unit) instead
/// of tearing the rank down. An injected *rank death* is not a unit
/// failure and keeps unwinding.
fn execute(
    comm: &Comm,
    grant: &[u64],
    run: &mut dyn FnMut(&[usize]),
    verdict: &mut dyn FnMut(usize, bool),
) -> bool {
    let _span = obs::maybe_span(comm.obs(), "sched.unit");
    let units: Vec<usize> = grant.iter().map(|&u| u as usize).collect();
    let clean = !grant.iter().any(|&u| comm.unit_poisoned(u))
        && match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&units))) {
            Ok(()) => true,
            Err(payload) if payload.is::<mpisim::RankDeath>() => std::panic::resume_unwind(payload),
            Err(_) => false,
        };
    if !clean {
        for &unit in &units {
            verdict(unit, false);
        }
    }
    clean
}

/// Apply the master's verdict on this worker's clean execution of `unit`:
/// publish (`commit`) or drop its staging, and remember a committed unit.
fn settle(
    comm: &Comm,
    unit: u64,
    commit: bool,
    verdict: &mut dyn FnMut(usize, bool),
    mine: &mut Vec<usize>,
) {
    verdict(unit as usize, commit);
    if let Some(o) = comm.obs() {
        o.add(if commit { "sched.worker_commit" } else { "sched.worker_discard" }, 1);
    }
    if commit {
        mine.push(unit as usize);
    }
}

/// The metrics registry's view of one journal record.
fn journal_obs(comm: &Comm, rec: &Record) {
    let Some(o) = comm.obs() else { return };
    match rec.kind {
        LOG_DISPATCH => o.add("sched.dispatch", 1),
        LOG_COMMIT => o.add("sched.commit", 1),
        LOG_DISCARD => o.add("sched.discard", 1),
        LOG_QUARANTINE => {
            o.add("sched.quarantine", 1);
            o.instant(
                o.now(),
                "sched.quarantine",
                format!("unit {} quarantined (last worker {})", rec.unit, rec.worker),
            );
        }
        LOG_FENCE => o.add("sched.fence", 1),
        _ => {}
    }
}

/// How one tenure serving a particular master ended: termination
/// confirmed, the run abandoned, or the master gone — confirmed dead
/// (`died`) or silent past the whole retry budget.
enum WorkerExit {
    Done,
    Abort,
    MasterGone { died: bool },
}

/// The IO shell around [`Core`] for one tenure of the master role: wire
/// framing, request dedup, epoch fencing, fault-board reads and the
/// `sched.*` metrics. Every scheduling decision is the core's.
struct Master<'c> {
    comm: &'c Comm,
    core: Core<'c>,
    /// Scheduler round this tenure belongs to (scopes fault-board state).
    round: u64,
    /// Fencing epoch — this master's own rank, stamped on every reply.
    epoch: u64,
    /// The core's clock: wall-clock seconds since the tenure began.
    clock: Instant,
    /// Highest request sequence number seen per worker, with the cached
    /// reply for duplicate-request retransmission (`None` while parked).
    last: HashMap<usize, (u64, Option<Vec<u64>>)>,
    /// Workers that confirmed termination with a farewell.
    retired: HashSet<usize>,
}

impl Master<'_> {
    fn now(&self) -> f64 {
        self.clock.elapsed().as_secs_f64()
    }

    /// Carry out the core's decisions, in order.
    fn pump(&mut self) {
        while let Some(out) = self.core.poll() {
            match out {
                Out::Reply { worker, code, verdicts } => {
                    let (code, units) = match code {
                        Code::Grant(units) => (GRANT, units),
                        Code::Done => (DONE, Vec::new()),
                        Code::Abort => (ABORT, Vec::new()),
                    };
                    let verdicts: Vec<u64> = verdicts
                        .iter()
                        .map(|v| match v {
                            Verdict::None => V_NONE,
                            Verdict::Commit => V_COMMIT,
                            Verdict::Discard => V_DISCARD,
                        })
                        .collect();
                    let seq = self.last.get(&worker).map_or(0, |l| l.0);
                    self.reply(worker, seq, code, &verdicts, &units);
                }
                Out::Journal(rec) => {
                    journal_obs(self.comm, &rec);
                    if rec.kind == LOG_FENCE {
                        // The straggler wakes from its stall at the board
                        // check and unwinds exactly like a crashed rank.
                        self.comm.fence(rec.worker);
                    }
                }
                Out::Suspect(_) => {
                    if let Some(o) = self.comm.obs() {
                        o.add("sched.suspect", 1);
                    }
                }
                Out::Backup { unit, worker } => {
                    let Some(o) = self.comm.obs() else { continue };
                    o.add("sched.speculative_dispatch", 1);
                    let why = format!("unit {unit} re-dispatched to backup worker {worker}");
                    o.instant(o.now(), "sched.speculate", why);
                }
            }
        }
    }

    /// Send (and cache) a reply to request `seq`, stamped with this
    /// master's epoch.
    fn reply(&mut self, worker: usize, seq: u64, code: u64, verdicts: &[u64], units: &[u64]) {
        let mut payload = vec![seq, code, self.epoch, verdicts.len() as u64];
        payload.extend_from_slice(verdicts);
        payload.extend_from_slice(units);
        self.comm.send_u64s(worker, TAG_TASK, &payload);
        self.last.insert(worker, (seq, Some(payload)));
    }

    /// Feed the core the fault board's news — deaths, departed gather
    /// members — and its periodic tick.
    fn reap(&mut self) {
        let (board, me, now) = (self.comm.board(), self.comm.rank(), self.now());
        for worker in (0..self.comm.size()).filter(|&w| w != me && !self.comm.is_alive(w)) {
            self.core.death(worker, now, now);
        }
        let departed: Vec<usize> = self
            .core
            .awaiting()
            .filter(|&r| board.is_alive(r) && board.is_departed(r, self.round))
            .collect();
        for r in departed {
            self.core.depart(r, &board.departure_manifest(r, self.round), now);
        }
        self.core.tick(now);
        self.pump();
    }

    /// A request `seq` from `worker`: a farewell, or the reports of the
    /// grant it ran (empty on its first request) and, on first contact, its
    /// claims.
    fn handle_request(
        &mut self,
        worker: usize,
        seq: u64,
        farewell: bool,
        reports: &[(u64, bool)],
        claims: &[u64],
    ) {
        // Drop requests queued before a death or a fence: their sender will
        // never apply a verdict.
        if self.core.is_dead(worker) || !self.comm.is_alive(worker) {
            return;
        }
        self.core.heartbeat(worker, self.now());
        if let Some((last_seq, cached)) = self.last.get(&worker) {
            if *last_seq == seq {
                // Duplicate of a request already seen: re-send the cached
                // reply (the original may have been dropped). A parked
                // worker has no reply yet; answer WAIT (uncached — the real
                // assignment comes when the core serves it) so its retry
                // budget survives arbitrarily long units elsewhere.
                match cached.clone() {
                    Some(payload) => self.comm.send_u64s(worker, TAG_TASK, &payload),
                    None => self.comm.send_u64s(worker, TAG_TASK, &[seq, WAIT, self.epoch, 0]),
                }
                return;
            }
        }
        self.last.insert(worker, (seq, None));
        if farewell {
            self.retired.insert(worker);
            return self.reply(worker, seq, DONE, &[], &[]);
        }
        self.core.request(worker, reports, claims, self.now());
        self.pump();
    }

    /// Count live, not-yet-departed workers and whether every one of them
    /// has confirmed termination. Master-agnostic: scans every rank but
    /// this one. A rank that departed cleanly this round (e.g. under a
    /// predecessor master) counts as confirmed.
    fn live_workers_all_retired(&self) -> (usize, bool) {
        let board = self.comm.board();
        (0..self.comm.size())
            .filter(|&w| w != self.comm.rank() && !self.core.is_dead(w) && board.is_alive(w))
            .filter(|&w| !board.is_departed(w, self.round))
            .fold((0, true), |(live, all), w| (live + 1, all && self.retired.contains(&w)))
    }
}

/// One tenure of the master role, ending with the core's outcome once every
/// live worker confirmed termination (or none is left), or `None` when
/// peers deposed this master during a stall. `mine` is `None` for the
/// round's first master and a successor's own committed units otherwise:
/// its core starts from the claims alone.
fn ft_master_loop(
    comm: &Comm,
    ntasks: usize,
    cfg: &FtConfig,
    affinity: Option<&[usize]>,
    grants: Grants,
    round: u64,
    mine: Option<Vec<usize>>,
) -> Option<Outcome> {
    let board = comm.board();
    let me = comm.rank();
    let takeover = mine.map(|mine| {
        // Own commits survive the promotion; departed ranks left manifests;
        // every other live rank is awaited.
        let mut claims = vec![(me, mine.iter().map(|&u| u as u64).collect())];
        let mut expected = std::collections::BTreeSet::new();
        for r in (0..comm.size()).filter(|&r| r != me) {
            if board.is_departed(r, round) {
                claims.push((r, board.departure_manifest(r, round)));
            } else if board.is_alive(r) {
                expected.insert(r);
            }
        }
        Takeover { claims, expected }
    });
    let mut m = Master {
        comm,
        core: Core::new(ntasks, cfg.policy(), affinity, takeover, 0.0)
            .with_grants(grants, comm.size() - 1),
        round,
        epoch: me as u64,
        clock: Instant::now(),
        last: HashMap::new(),
        retired: HashSet::new(),
    };
    m.pump();
    // Quiet ticks tolerated once no unit can still be running: a live
    // worker retries at least once per `rpc_timeout`, so a longer silence
    // means every unconfirmed worker is gone.
    let quiet_limit = cfg.max_rpc_retries + 5;
    let mut quiet = 0usize;
    loop {
        if board.is_deposed(me, round) {
            // Peers elected around us during a stall; any replies we send
            // from here on are fenced by epoch. Step down.
            return None;
        }
        m.reap();
        let (live, all_confirmed) = m.live_workers_all_retired();
        if live == 0 || all_confirmed || (m.core.drained() && quiet > quiet_limit) {
            return Some(m.core.outcome());
        }
        match comm.recv_timeout(ANY_SOURCE, TAG_REQ, cfg.rpc_timeout) {
            Ok(msg) => {
                quiet = 0;
                let req = mpisim::wire::bytes_to_u64s(&msg.data);
                if req[0] == BEACON {
                    if let Some(o) = comm.obs() {
                        o.add("sched.heartbeats", 1);
                    }
                    m.core.heartbeat(msg.status.source, m.now());
                    continue;
                }
                if req.len() < REQ_HEAD || req[1] != me as u64 {
                    // Malformed, or addressed to a different master epoch.
                    continue;
                }
                let body = &req[REQ_HEAD..];
                let farewell = req[2] == FAREWELL;
                let nreports = if farewell { 0 } else { (req[2] as usize).min(body.len() / 2) };
                let reports: Vec<(u64, bool)> = body[..2 * nreports]
                    .chunks_exact(2)
                    .filter(|r| matches!(r[1], FLAG_OK | FLAG_PANIC))
                    .map(|r| (r[0], r[1] == FLAG_OK))
                    .collect();
                let rest = &body[2 * nreports..];
                let claims = &rest[..(req[3] as usize).min(rest.len())];
                m.handle_request(msg.status.source, req[0], farewell, &reports, claims);
            }
            Err(MpiError::Timeout) => quiet += 1,
            // A death interrupted the wait or every worker is gone: loop
            // back to reap and re-evaluate.
            Err(MpiError::Interrupted) | Err(MpiError::RankDead { .. }) => quiet = 0,
            Err(e) => panic!("ft master recv: {e}"),
        }
    }
}

/// A master's answer to one request: its code, a verdict per reported
/// unit, and the granted units.
struct Reply {
    code: u64,
    verdicts: Vec<u64>,
    grant: Vec<u64>,
}

/// One at-least-once request round against the acting `master`: send the
/// request (a farewell, or the `reports` of the last grant), resend on
/// timeout, and return the reply whose sequence echo and epoch both match.
/// `Err(true)` means the master is confirmed dead, `Err(false)` silent past
/// the whole retry budget.
fn ft_request(
    comm: &Comm,
    cfg: &FtConfig,
    master: usize,
    seq: u64,
    farewell: bool,
    reports: &[(u64, bool)],
    claims: &[u64],
) -> Result<Reply, bool> {
    let nreports = if farewell { FAREWELL } else { reports.len() as u64 };
    let mut frame = vec![seq, master as u64, nreports, claims.len() as u64];
    for &(unit, clean) in reports {
        frame.extend([unit, if clean { FLAG_OK } else { FLAG_PANIC }]);
    }
    frame.extend_from_slice(claims);
    let mut resends = 0usize;
    let mut need_send = true;
    loop {
        if need_send {
            comm.send_u64s(master, TAG_REQ, &frame);
            need_send = false;
        }
        match comm.recv_timeout(master, TAG_TASK, cfg.rpc_timeout) {
            Ok(msg) => {
                let reply = mpisim::wire::bytes_to_u64s(&msg.data);
                if reply.len() < REPLY_HEAD || reply[2] != master as u64 {
                    // Zombie fencing: a deposed ex-master's stale replies
                    // carry its old epoch and are discarded.
                    continue;
                }
                if reply[0] != seq {
                    continue; // stale echo of an earlier request: discard
                }
                if reply[1] == WAIT {
                    // Master is alive but has nothing to hand out yet; the
                    // real assignment will be pushed when one frees up.
                    resends = 0;
                    continue;
                }
                let nverdicts = (reply[3] as usize).min(reply.len() - REPLY_HEAD);
                let (verdicts, grant) = reply[REPLY_HEAD..].split_at(nverdicts);
                return Ok(Reply { code: reply[1], verdicts: verdicts.to_vec(), grant: grant.to_vec() });
            }
            Err(MpiError::RankDead { .. }) => return Err(true),
            Err(MpiError::Timeout) => {
                resends += 1;
                if let Some(o) = comm.obs() {
                    o.add("sched.rpc_retries", 1);
                }
                if resends > cfg.max_rpc_retries {
                    return Err(false);
                }
                need_send = true;
            }
            // Another rank died; our request may still be answered.
            Err(MpiError::Interrupted) => {}
            Err(e) => panic!("ft worker recv: {e}"),
        }
    }
}

/// One tenure serving `master` as a worker. Execution state persists across
/// tenures through the `&mut` parameters so a failover mid-run carries this
/// worker's committed units (`mine` — re-registered as claims on the first
/// request to each new master), its monotonic request sequence, and the
/// not-yet-arbitrated units of its last grant (`carry`).
#[allow(clippy::too_many_arguments)]
fn ft_worker_phase(
    comm: &Comm,
    cfg: &FtConfig,
    master: usize,
    run: &mut dyn FnMut(&[usize]),
    verdict: &mut dyn FnMut(usize, bool),
    mine: &mut Vec<usize>,
    seq: &mut u64,
    carry: &mut Vec<(u64, bool)>,
) -> WorkerExit {
    // Committed-unit claims ride only on the first request to this master.
    let mut claims: Vec<u64> = mine.iter().map(|&u| u as u64).collect();
    let outcome = loop {
        *seq += 1;
        let reply = match ft_request(comm, cfg, master, *seq, false, carry, &claims) {
            Ok(r) => r,
            // The unjudged completion (if any) stays in `carry` for the
            // role state machine to resolve.
            Err(died) => return WorkerExit::MasterGone { died },
        };
        claims.clear();
        // The reply judges each unit this request reported (a panicked
        // grant already dropped its partial staging).
        for (&(unit, clean), &v) in carry.iter().zip(&reply.verdicts) {
            if clean {
                settle(comm, unit, v == V_COMMIT, verdict, mine);
            }
        }
        carry.clear();
        match reply.code {
            DONE => break WorkerExit::Done,
            ABORT => break WorkerExit::Abort,
            _ => {
                let clean = execute(comm, &reply.grant, run, verdict);
                carry.extend(reply.grant.iter().map(|&unit| (unit, clean)));
            }
        }
    };
    // Confirm the termination reply so the master can stop serving
    // retransmissions; best-effort, the master may already be gone.
    *seq += 1;
    let _ = ft_request(comm, cfg, master, *seq, true, &[], &[]);
    outcome
}


#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::World;

    fn run_style(ranks: usize, ntasks: usize, style: MapStyle) -> Vec<Vec<usize>> {
        World::new(ranks).run(move |comm| {
            let cfg = FtConfig::default();
            assign_and_run(comm, ntasks, style, &cfg, None, &mut |_| {}, &mut |_, _| {})
                .expect("scheduled run")
                .units
        })
    }

    /// The master-worker scheduler with a verdict hook.
    fn mw_report(
        comm: &Comm,
        ntasks: usize,
        cfg: &FtConfig,
        affinity: Option<&[usize]>,
        run: &mut dyn FnMut(usize),
        verdict: &mut dyn FnMut(usize, bool),
    ) -> Result<FtRun, SchedError> {
        assign_and_run(comm, ntasks, MapStyle::MasterWorker, cfg, affinity, run, verdict)
    }

    /// The master-worker scheduler's committed units, for a `run` that
    /// publishes directly.
    fn mw_units(
        comm: &Comm,
        ntasks: usize,
        cfg: &FtConfig,
        mut run: impl FnMut(usize),
    ) -> Result<Vec<usize>, SchedError> {
        mw_report(comm, ntasks, cfg, None, &mut |t| run(t), &mut |_, _| {}).map(|r| r.units)
    }

    /// Run the master-worker scheduler with an optional affinity slice and
    /// return each rank's committed units in execution order.
    fn run_mw(ranks: usize, ntasks: usize, affinity: Option<Vec<usize>>) -> Vec<Vec<usize>> {
        World::new(ranks).run(move |comm| {
            mw_report(
                comm,
                ntasks,
                &FtConfig::default(),
                affinity.as_deref(),
                &mut |_| {},
                &mut |_, _| {},
            )
            .expect("fault-free run")
            .units
        })
    }

    fn assert_partition(assignments: &[Vec<usize>], ntasks: usize) {
        let mut all: Vec<usize> = assignments.concat();
        all.sort_unstable();
        assert_eq!(all, (0..ntasks).collect::<Vec<_>>(), "tasks must partition exactly");
    }

    #[test]
    fn chunk_assigns_contiguous_blocks() {
        let got = run_style(4, 10, MapStyle::Chunk);
        assert_partition(&got, 10);
        for ranks_tasks in &got {
            for w in ranks_tasks.windows(2) {
                assert_eq!(w[1], w[0] + 1, "chunk must be contiguous");
            }
        }
    }

    #[test]
    fn round_robin_strides() {
        let got = run_style(3, 10, MapStyle::RoundRobin);
        assert_partition(&got, 10);
        assert_eq!(got[0], vec![0, 3, 6, 9]);
        assert_eq!(got[1], vec![1, 4, 7]);
        assert_eq!(got[2], vec![2, 5, 8]);
    }

    #[test]
    fn master_worker_partitions_and_master_idles() {
        let got = run_mw(4, 23, None);
        assert!(got[0].is_empty(), "master must not execute tasks");
        assert_partition(&got, 23);
        // The mapstyle entry point runs the same scheduler.
        let got = run_style(4, 23, MapStyle::MasterWorker);
        assert!(got[0].is_empty(), "master must not execute tasks");
        assert_partition(&got, 23);
    }

    #[test]
    fn master_worker_zero_tasks_terminates() {
        for m in run_mw(3, 0, None) {
            assert!(m.is_empty());
        }
    }

    #[test]
    fn master_worker_fewer_tasks_than_workers() {
        assert_partition(&run_mw(8, 3, None), 3);
    }

    #[test]
    fn single_rank_runs_everything_for_every_style() {
        for style in [MapStyle::Chunk, MapStyle::RoundRobin, MapStyle::MasterWorker] {
            let got = run_style(1, 7, style);
            assert_eq!(got[0], (0..7).collect::<Vec<_>>());
        }
    }

    #[test]
    fn affinity_scheduler_partitions_tasks_exactly() {
        let ntasks = 30;
        let got = run_mw(4, ntasks, Some((0..ntasks).map(|t| t % 5).collect()));
        assert!(got[0].is_empty(), "master must not execute tasks");
        assert_partition(&got, ntasks);
    }

    #[test]
    fn affinity_scheduler_groups_same_resource_on_one_worker() {
        // 3 resources × 10 tasks each, 4 workers: each worker should see far
        // fewer resource switches than task count.
        let ntasks = 30;
        let affinity: Vec<usize> = (0..ntasks).map(|t| t / 10).collect();
        let got = run_mw(5, ntasks, Some(affinity.clone()));
        assert_partition(&got, ntasks);
        let total_switches: usize = got[1..]
            .iter()
            .map(|tasks| tasks.windows(2).filter(|w| affinity[w[0]] != affinity[w[1]]).count())
            .sum();
        // Plain dynamic dispatch of the interleaved stream would switch
        // almost every task; affinity should keep it near the minimum
        // (#resources - 1 per worker at worst).
        assert!(
            total_switches <= 8,
            "too many resource switches: {total_switches} (got {got:?})"
        );
    }

    #[test]
    fn affinity_scheduler_single_rank_and_zero_tasks() {
        assert_eq!(run_mw(1, 4, Some(vec![0, 1, 0, 1]))[0], vec![0, 1, 2, 3]);
        assert!(run_mw(3, 0, Some(Vec::new())).iter().all(Vec::is_empty));
    }

    #[test]
    fn affinity_scheduler_requeues_a_dead_workers_units_exactly_once() {
        // Rank 2 dies on its first operation; its resource's units are
        // requeued and still follow the affinity rule on the survivors.
        let ntasks = 24;
        let affinity: Vec<usize> = (0..ntasks).map(|t| t / 8).collect();
        let outcomes = World::new(4).with_faults(FaultPlan::new(5).kill(2, 0.0)).run_faulty(
            move |comm| {
                mw_report(
                    comm,
                    ntasks,
                    &FtConfig::default(),
                    Some(&affinity),
                    &mut |_| comm.charge(1.0),
                    &mut |_, _| {},
                )
                .map(|r| r.units)
            },
        );
        assert!(outcomes[2].is_died());
        assert_exact_partition(&outcomes, ntasks);
    }

    #[test]
    #[should_panic(expected = "one affinity per task")]
    fn affinity_length_mismatch_panics() {
        let _ = run_mw(1, 3, Some(vec![0]));
    }

    #[test]
    fn master_worker_virtual_makespan_is_bounded_by_serial_work() {
        // NOTE on virtual-time fidelity: the master serves requests in
        // *physical* arrival order, and virtual charges consume no real time,
        // so the simulated schedule of a master-worker map is *a* feasible
        // schedule, not necessarily the one a wall-clock run would produce.
        // (The discrete-event simulator in the `perfmodel` crate is the
        // faithful tool for skewed-load scaling studies; this test pins down
        // the guarantees that do hold.)
        let ntasks = 16usize;
        let slow = 8.0; // seconds, task 0
        let fast = 1.0;
        let total = slow + (ntasks - 1) as f64 * fast;
        let times = World::new(3).run(move |comm| {
            mw_units(comm, ntasks, &FtConfig::default(), |t| {
                comm.charge(if t == 0 { slow } else { fast });
            })
            .expect("fault-free run");
            comm.barrier();
            comm.now()
        });
        let makespan = times[0];
        // Any feasible 2-worker schedule is at least the critical path and at
        // most all work on one worker.
        assert!(makespan >= total / 2.0, "impossibly fast: {makespan}");
        assert!(makespan <= total + 1e-9, "worse than serial: {makespan}");
    }

    // ---- fault-tolerant scheduler ----

    use mpisim::{FaultPlan, RankOutcome};
    use std::sync::Arc as StdArc;

    /// Run the master-worker scheduler under `plan` and return, per rank, either the
    /// locally executed unit list or the death time.
    fn ft_run(
        size: usize,
        ntasks: usize,
        plan: Option<FaultPlan>,
    ) -> Vec<RankOutcome<Result<Vec<usize>, SchedError>>> {
        let mut world = World::new(size);
        if let Some(p) = plan {
            world = world.with_faults(p);
        }
        let world = world;
        world.run_faulty(move |comm| {
            mw_units(comm, ntasks, &FtConfig::default(), |_| {})
        })
    }

    /// Collect the union of executed units across surviving workers and
    /// assert it is an exact partition of `0..ntasks`.
    fn assert_exact_partition(
        outcomes: &[RankOutcome<Result<Vec<usize>, SchedError>>],
        ntasks: usize,
    ) {
        let mut count = vec![0usize; ntasks];
        for o in outcomes {
            if let RankOutcome::Done(Ok(units)) = o {
                for &u in units {
                    count[u] += 1;
                }
            }
        }
        for (u, &c) in count.iter().enumerate() {
            assert_eq!(c, 1, "unit {u} executed {c} times from the survivors' view");
        }
    }

    #[test]
    fn ft_no_faults_matches_plain_master_worker_semantics() {
        let outcomes = ft_run(4, 13, None);
        for o in &outcomes {
            assert!(matches!(o, RankOutcome::Done(Ok(_))));
        }
        assert_exact_partition(&outcomes, 13);
    }

    #[test]
    fn ft_single_rank_runs_everything_locally() {
        let outcomes = ft_run(1, 5, None);
        match &outcomes[0] {
            RankOutcome::Done(Ok(units)) => assert_eq!(units, &[0, 1, 2, 3, 4]),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn ft_one_worker_death_redispatches_its_units() {
        // Rank 2 dies almost immediately; its in-flight unit and anything it
        // had completed must be re-run by the survivors.
        let plan = FaultPlan::new(11).kill(2, 0.0);
        let outcomes = ft_run(4, 20, Some(plan));
        assert!(outcomes[2].is_died(), "rank 2 should have died");
        assert!(matches!(&outcomes[0], RankOutcome::Done(Ok(_))));
        assert_exact_partition(&outcomes, 20);
    }

    #[test]
    fn ft_two_worker_deaths_still_complete_every_unit() {
        let plan = FaultPlan::new(23).kill(1, 0.0).kill(3, 0.0);
        let outcomes = ft_run(5, 24, Some(plan));
        assert!(outcomes[1].is_died() && outcomes[3].is_died());
        assert!(matches!(&outcomes[0], RankOutcome::Done(Ok(_))));
        assert_exact_partition(&outcomes, 24);
    }

    #[test]
    fn ft_death_mid_run_unwinds_completed_units_too() {
        // Kill late enough (virtual time) that rank 1 has completed several
        // units before dying: every one of them must be re-executed because
        // its output died with the rank. Each unit charges 1 virtual second,
        // so rank 1 dies after finishing a handful.
        let plan = FaultPlan::new(7).kill(1, 5.5);
        let world = World::new(3).with_faults(plan);
        let outcomes = world.run_faulty(move |comm| {
            mw_units(comm, 12, &FtConfig::default(), |_| comm.charge(1.0))
        });
        assert!(outcomes[1].is_died());
        assert_exact_partition(&outcomes, 12);
    }

    #[test]
    fn ft_all_workers_dead_yields_typed_error_not_hang() {
        let plan = FaultPlan::new(3).kill(1, 0.0).kill(2, 0.0);
        let outcomes = ft_run(3, 9, Some(plan));
        assert!(outcomes[1].is_died() && outcomes[2].is_died());
        match &outcomes[0] {
            RankOutcome::Done(Err(SchedError::AllWorkersDead)) => {}
            other => panic!("master should report AllWorkersDead, got {other:?}"),
        }
    }

    #[test]
    fn ft_message_drops_are_survived_by_retransmission() {
        // Drop half of all traffic in both directions between master and
        // worker 1. The at-least-once RPC layer must still complete the run
        // without duplicating any unit.
        let plan = FaultPlan::new(99)
            .drop_p2p(1, 0, 0.5)
            .drop_p2p(0, 1, 0.5);
        let outcomes = ft_run(3, 16, Some(plan));
        for o in &outcomes {
            assert!(matches!(o, RankOutcome::Done(Ok(_))), "outcome: {o:?}");
        }
        assert_exact_partition(&outcomes, 16);
    }

    #[test]
    fn ft_zero_tasks_terminates_cleanly() {
        let outcomes = ft_run(3, 0, None);
        for o in &outcomes {
            assert!(matches!(o, RankOutcome::Done(Ok(units)) if units.is_empty()));
        }
    }

    #[test]
    fn ft_run_is_deterministic_for_a_fixed_fault_seed() {
        // Same plan, same seed: the set of survivors and the executed-unit
        // partition invariant hold on every run (the *assignment* may differ
        // across runs — only the output-visible contract is deterministic).
        for _ in 0..3 {
            let plan = FaultPlan::new(41).kill(2, 0.0).drop_p2p(1, 0, 0.3);
            let outcomes = ft_run(4, 18, Some(plan));
            assert!(outcomes[2].is_died());
            assert_exact_partition(&outcomes, 18);
        }
    }

    // ---- master failover and elections ----

    #[test]
    fn ft_master_death_fails_over_and_completes_exactly() {
        // Kill rank 0 (the initial master) mid-run: the survivors elect
        // rank 1, which gathers the workers' committed-unit claims and
        // finishes the run with an exact partition — no unit lost, none
        // duplicated.
        let plan = FaultPlan::new(11).kill(0, 2.5);
        let world = World::new(4).with_faults(plan);
        let outcomes = world.run_faulty(move |comm| {
            mw_units(comm, 12, &FtConfig::default(), |_| comm.charge(1.0))
        });
        assert!(outcomes[0].is_died());
        for o in &outcomes[1..] {
            assert!(matches!(o, RankOutcome::Done(Ok(_))), "outcome: {o:?}");
        }
        assert_exact_partition(&outcomes, 12);
    }

    #[test]
    fn one_master_death_counts_one_election_however_many_survive() {
        // Up to eight survivors run the election that follows rank 0's
        // death; the trace counts it once, on the rank elected.
        let collector = obs::Collector::new();
        let plan = FaultPlan::new(11).kill(0, 2.5);
        let world = World::new(9).with_faults(plan).with_obs(collector.clone());
        let outcomes = world.run_faulty(move |comm| {
            mw_units(comm, 48, &FtConfig::default(), |_| comm.charge(1.0))
        });
        assert!(outcomes[0].is_died());
        assert_exact_partition(&outcomes, 48);
        assert_eq!(collector.trace().counter_total("sched.elections"), 1);
    }

    #[test]
    fn ft_two_master_deaths_across_epochs() {
        // Rank 0 dies, rank 1 takes over (epoch 1), then rank 1 dies too:
        // rank 2 must win the second election (elected ranks strictly
        // increase within a round) and still finish exactly.
        let plan = FaultPlan::new(17).kill(0, 2.5).kill(1, 4.0);
        let world = World::new(5).with_faults(plan);
        let outcomes = world.run_faulty(move |comm| {
            mw_units(comm, 20, &FtConfig::default(), |_| comm.charge(1.0))
        });
        assert!(outcomes[0].is_died() && outcomes[1].is_died());
        for o in &outcomes[2..] {
            assert!(matches!(o, RankOutcome::Done(Ok(_))), "outcome: {o:?}");
        }
        assert_exact_partition(&outcomes, 20);
    }

    #[test]
    fn ft_late_starter_whose_first_election_lands_on_it_takes_over() {
        // Rank 1 enters the round only after rank 0 (the first master) has
        // died, so its very first election picks itself. The others have
        // committed units under rank 0 already: rank 1 must gather their
        // claims like any successor before it dispatches, not hand out
        // units they hold (each such re-run ends in a discard).
        let plan = FaultPlan::new(17).kill(0, 2.5);
        let world = World::new(5).with_faults(plan);
        let outcomes = world.run_faulty(move |comm| {
            if comm.rank() == 1 {
                while comm.is_alive(0) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            let mut discards = 0;
            let cfg = FtConfig::default();
            mw_report(comm, 20, &cfg, None, &mut |_| comm.charge(1.0), &mut |_, commit| {
                discards += usize::from(!commit);
            })
            .map(|r| (r.units, discards))
        });
        assert!(outcomes[0].is_died());
        let mut units = Vec::new();
        for o in &outcomes[1..] {
            let RankOutcome::Done(Ok((mine, discards))) = o else { panic!("outcome: {o:?}") };
            assert_eq!(*discards, 0, "a re-run of a claimed unit");
            units.push(RankOutcome::Done(Ok(mine.clone())));
        }
        assert_exact_partition(&units, 20);
    }

    #[test]
    fn ft_stalled_master_is_deposed_and_steps_down() {
        // The master stalls for 1 s of wall clock — longer than a worker's
        // whole RPC retry budget — without dying. The workers depose it,
        // elect rank 1, and finish; the ex-master wakes as a zombie, sees
        // the deposition on the board, and serves as a worker (its stale
        // epoch-0 replies are fenced). Every rank ends Ok.
        let plan = FaultPlan::new(23).stall(0, 0.005, 1.0);
        let cfg = FtConfig {
            rpc_timeout: Duration::from_millis(20),
            max_rpc_retries: 5,
            ..FtConfig::default()
        };
        let world = World::new(3).with_faults(plan);
        let outcomes = world.run_faulty(move |comm| {
            mw_units(comm, 8, &cfg, |_| comm.charge(0.01))
        });
        for o in &outcomes {
            assert!(matches!(o, RankOutcome::Done(Ok(_))), "outcome: {o:?}");
        }
        assert_exact_partition(&outcomes, 8);
    }

    #[test]
    fn ft_failover_requarantines_poison_from_claims_alone() {
        // Unit 3 is poison and gets quarantined (3 fast failures) before the
        // master dies at virtual t=1.5 (good units burn 100 ms wall and 1.0
        // virtual each, so the quarantine strictly precedes the death). The
        // successor knows only the survivors' claims: it re-runs unit 3 with
        // a fresh per-tenure budget (3 panics < max_attempts = 4) and
        // quarantines it again, so the run still completes with exactly [3]
        // quarantined and the good units partitioned.
        let plan = FaultPlan::new(47).poison(3).kill(0, 1.5);
        let cfg = FtConfig { max_attempts: 4, ..FtConfig::default() };
        let world = World::new(3).with_faults(plan);
        let outcomes = world.run_faulty(move |comm| {
            mw_report(
                comm,
                4,
                &cfg,
                None,
                &mut |_| {
                    std::thread::sleep(Duration::from_millis(100));
                    comm.charge(1.0);
                },
                &mut |_, _| {},
            )
        });
        assert!(outcomes[0].is_died());
        let mut all: Vec<usize> = Vec::new();
        let mut quarantined: Vec<u64> = Vec::new();
        for o in &outcomes[1..] {
            match o {
                RankOutcome::Done(Ok(run)) => {
                    all.extend(&run.units);
                    quarantined.extend(&run.quarantined);
                }
                other => panic!("survivor should finish Ok, got {other:?}"),
            }
        }
        assert_eq!(quarantined, vec![3], "exactly unit 3 quarantined, reported once");
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2], "good units must partition exactly");
    }

    #[test]
    fn ft_config_default_is_bounded() {
        let cfg = FtConfig::default();
        assert!(cfg.rpc_timeout > Duration::ZERO);
        assert!(cfg.max_rpc_retries > 0 && cfg.max_attempts > 0);
        assert!(!cfg.speculate, "speculation must be opt-in");
        assert!(cfg.poison_retries >= 1 && cfg.poison_retries < cfg.max_attempts);
        let _ = StdArc::new(cfg); // Clone + Send across rank closures
    }

    // ---- stragglers, speculation, quarantine ----

    #[test]
    fn ft_poisoned_units_are_quarantined_and_run_completes() {
        let plan = FaultPlan::new(13).poison(2).poison(7);
        let outcomes = World::new(3).with_faults(plan).run_faulty(move |comm| {
            mw_report(
                comm,
                10,
                &FtConfig::default(),
                None,
                &mut |_| {},
                &mut |_, _| {},
            )
        });
        let master = outcomes[0].as_done().unwrap().as_ref().expect("run completes");
        assert_eq!(master.quarantined, vec![2, 7], "sorted quarantine list");
        let mut committed: Vec<usize> = outcomes
            .iter()
            .filter_map(|o| o.as_done())
            .filter_map(|r| r.as_ref().ok())
            .flat_map(|r| r.units.iter().copied())
            .collect();
        committed.sort_unstable();
        assert_eq!(committed, vec![0, 1, 3, 4, 5, 6, 8, 9]);
    }

    /// Grants over the mpisim shell: a poison unit inside a grant panics
    /// the whole execution, yet only it is quarantined; every other unit
    /// is committed exactly once, and grants of several units did run.
    #[test]
    fn ft_poison_unit_inside_a_grant_is_the_only_unit_quarantined() {
        let key: Vec<usize> = (0..24).map(|u| u / 6).collect();
        let outcomes = World::new(3).with_faults(FaultPlan::new(29).poison(2)).run_faulty(move |comm| {
            let mut widest = 0;
            let grants = Grants { limit: 4, key: Some(&key) };
            let run = assign_grants(
                comm,
                24,
                MapStyle::MasterWorker,
                &FtConfig::default(),
                None,
                grants,
                &mut |units| {
                    assert!(units.iter().all(|&u| key[u] == key[units[0]]), "one key per grant");
                    widest = widest.max(units.len());
                },
                &mut |_, _| {},
            );
            (run, widest)
        });
        let results: Vec<_> = outcomes.iter().filter_map(|o| o.as_done()).collect();
        let master = results[0].0.as_ref().expect("run completes");
        assert_eq!(master.quarantined, vec![2]);
        let mut committed: Vec<usize> =
            results.iter().flat_map(|(r, _)| r.as_ref().unwrap().units.iter().copied()).collect();
        committed.sort_unstable();
        assert_eq!(committed, (0..24).filter(|&u| u != 2).collect::<Vec<_>>());
        assert!(results.iter().any(|(_, widest)| *widest > 1), "grants of several units ran");
    }

    #[test]
    fn ft_single_rank_quarantines_poison_too() {
        let plan = FaultPlan::new(17).poison(1);
        let outcomes = World::new(1).with_faults(plan).run_faulty(move |comm| {
            mw_report(
                comm,
                4,
                &FtConfig::default(),
                None,
                &mut |_| {},
                &mut |_, _| {},
            )
        });
        let run = outcomes[0].as_done().unwrap().as_ref().unwrap();
        assert_eq!(run.units, vec![0, 2, 3]);
        assert_eq!(run.quarantined, vec![1]);
    }

    #[test]
    fn ft_genuine_panic_in_run_is_isolated_and_quarantined() {
        let outcomes = World::new(3).run_faulty(move |comm| {
            mw_report(
                comm,
                6,
                &FtConfig::default(),
                None,
                &mut |t| {
                    if t == 3 {
                        panic!("bad work unit");
                    }
                },
                &mut |_, _| {},
            )
        });
        let master = outcomes[0].as_done().unwrap().as_ref().expect("no crash");
        assert_eq!(master.quarantined, vec![3]);
    }

    #[test]
    fn ft_stalled_worker_is_fenced_and_backup_commits_every_unit() {
        // Rank 1 stalls for 30 wall-clock seconds inside its first unit;
        // with speculation on, its unit is re-run elsewhere, the straggler
        // is fenced, and everything it had committed is re-executed — the
        // committed union is still an exact partition, long before the
        // stall window ends.
        fenced_straggler_run(0.005);
    }

    #[test]
    fn ft_straggler_fenced_after_committing_has_its_units_rerun() {
        // As above, but the stall strikes in the second unit: the straggler
        // has committed one unit when it is fenced. That unit must be
        // reclaimed at the fence, or the master sees every unit done, sends
        // DONE to everyone, and the run ends in `AllWorkersDead`.
        fenced_straggler_run(0.015);
    }

    fn fenced_straggler_run(stall_at: f64) {
        let start = std::time::Instant::now();
        let cfg = FtConfig {
            rpc_timeout: Duration::from_millis(25),
            speculate: true,
            suspect_after: Duration::from_millis(100),
            spec_backoff: Duration::from_millis(50),
            ..FtConfig::default()
        };
        let plan = FaultPlan::new(29).stall(1, stall_at, 30.0);
        // Rank 2 starts once rank 1 holds the unit its stall strikes, so the
        // stall never lands on a clock advanced by rank 2's replies instead.
        let gate = std::sync::Barrier::new(2);
        let outcomes = World::new(3).with_faults(plan).run_faulty(move |comm| {
            if comm.rank() == 2 {
                gate.wait();
            }
            let mut gated = comm.rank() != 1;
            let mut run = |_| {
                if !gated && comm.now() + 0.01 >= stall_at {
                    gated = true;
                    gate.wait();
                }
                comm.charge(0.01)
            };
            mw_report(comm, 8, &cfg, None, &mut run, &mut |_, _| {})
        });
        assert!(outcomes[1].is_died(), "straggler must be fenced: {:?}", outcomes[1]);
        let master = outcomes[0].as_done().unwrap().as_ref().expect("master finishes");
        assert!(master.quarantined.is_empty());
        let mut committed: Vec<usize> = outcomes
            .iter()
            .filter_map(|o| o.as_done())
            .filter_map(|r| r.as_ref().ok())
            .flat_map(|r| r.units.iter().copied())
            .collect();
        committed.sort_unstable();
        assert_eq!(committed, (0..8).collect::<Vec<_>>());
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "speculation must beat the stall window, elapsed {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn ft_recovered_straggler_wins_and_beaconing_backup_discards() {
        // One unit, two workers. Rank 1 takes the unit and stalls 400ms;
        // the master suspects it and launches a backup on rank 2, whose
        // execution takes ~600ms but beacons while it works (so it is never
        // mistaken for a straggler itself). Rank 1 recovers first: its
        // result commits, the backup's is discarded, and both survive.
        let cfg = FtConfig {
            rpc_timeout: Duration::from_millis(25),
            speculate: true,
            suspect_after: Duration::from_millis(100),
            spec_backoff: Duration::from_millis(50),
            ..FtConfig::default()
        };
        let plan = FaultPlan::new(31).stall(1, 0.005, 0.4);
        let outcomes = World::new(3).with_faults(plan).run_faulty(move |comm| {
            if comm.rank() == 2 {
                // Guarantee rank 1 asks first and owns the only unit.
                std::thread::sleep(Duration::from_millis(50));
            }
            let mut verdicts: Vec<(usize, bool)> = Vec::new();
            let run = mw_report(
                comm,
                1,
                &cfg,
                None,
                &mut |_| {
                    comm.charge(0.01); // rank 1 hits its stall window here
                    if comm.rank() == 2 {
                        for _ in 0..12 {
                            ft_beacon(comm);
                            std::thread::sleep(Duration::from_millis(50));
                        }
                    }
                },
                &mut |unit, commit| verdicts.push((unit, commit)),
            );
            (run, verdicts)
        });
        let (r1, v1) = outcomes[1].as_done().expect("straggler recovered, not fenced");
        let (r2, v2) = outcomes[2].as_done().expect("backup survives");
        assert_eq!(r1.as_ref().unwrap().units, vec![0], "primary wins");
        assert_eq!(v1, &vec![(0, true)]);
        assert!(r2.as_ref().unwrap().units.is_empty(), "backup loses");
        assert_eq!(v2, &vec![(0, false)], "backup's staged output is discarded");
        let master = outcomes[0].as_done().unwrap().0.as_ref().unwrap();
        assert!(master.quarantined.is_empty());
    }

    #[test]
    fn ft_speculation_off_never_discards_live_work() {
        // Same stall, speculation disabled: the run simply waits the
        // straggler out and every worker's completions commit.
        let cfg = FtConfig {
            rpc_timeout: Duration::from_millis(25),
            suspect_after: Duration::from_millis(100),
            ..FtConfig::default()
        };
        let plan = FaultPlan::new(37).stall(1, 0.005, 0.2);
        let outcomes = World::new(3).with_faults(plan).run_faulty(move |comm| {
            let mut discards = 0usize;
            let run = mw_report(
                comm,
                6,
                &cfg,
                None,
                &mut |_| comm.charge(0.01),
                &mut |_, commit| {
                    if !commit {
                        discards += 1;
                    }
                },
            );
            (run, discards)
        });
        for o in &outcomes {
            let (run, discards) = o.as_done().expect("nobody dies without speculation");
            assert!(run.is_ok());
            assert_eq!(*discards, 0);
        }
        let mut committed: Vec<usize> = outcomes
            .iter()
            .filter_map(|o| o.as_done())
            .flat_map(|(r, _)| r.as_ref().unwrap().units.iter().copied())
            .collect();
        committed.sort_unstable();
        assert_eq!(committed, (0..6).collect::<Vec<_>>());
    }
}
