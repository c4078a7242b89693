//! The `MapReduce` object: the user-facing API of the library.
//!
//! Mirrors the original C++ class: an object bound to a communicator that
//! owns at most one distributed KeyValue *or* KeyMultiValue dataset, plus the
//! collective operations that transform one into the other. All collective
//! methods must be called by every rank of the communicator (standard MR-MPI
//! contract).

use std::collections::HashMap;

use mpisim::Comm;

use crate::durable::{self, DurableError};
use crate::hashfn::{fnv1a, key_owner};
use crate::kmv::{KeyMultiValue, ValueCursor};
use crate::kv::{decode_entry, encode_entry, validate_page, KeyValue, KvEmitter, KvError};
use crate::sched::{assign_and_run, FtConfig, MapStyle, SchedError};
use crate::settings::Settings;

/// Alias for the value cursor handed to reduce callbacks.
pub type MultiValues<'a> = ValueCursor<'a>;

/// Pair-wise transform callback handed to [`MapReduce::map_kv`].
pub type KvMapFn<'a> = dyn FnMut(&[u8], &[u8], &mut KvEmitter<'_>) + 'a;

/// Typed failure of a fault-tolerant MapReduce operation.
///
/// The fault-tolerant entry points ([`MapReduce::map_tasks`] with
/// [`MapStyle::MasterWorker`], [`MapReduce::aggregate`]) guarantee that
/// every live rank returns the same success/failure verdict: error status is
/// itself combined with an allreduce before any rank returns, so callers can
/// bail out consistently without stranding a peer inside a collective.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MrError {
    /// The fault-tolerant scheduler failed (worker/master deaths beyond
    /// recovery, or a unit exhausted its attempt budget).
    Sched(SchedError),
    /// A KV page received from another rank failed validation, or a local
    /// spill page failed its durable read-back.
    Corrupt(KvError),
    /// Durable storage failed: a checkpoint could not be written or read
    /// (I/O error after bounded retries, torn or corrupt record).
    Disk(DurableError),
    /// A cross-rank accounting check failed: data silently went missing
    /// (e.g. a rank died after the master loop but before reconciliation,
    /// taking completed output with it).
    DataLost {
        /// Which invariant was violated.
        what: &'static str,
        /// The count the invariant requires.
        expected: u64,
        /// The count actually observed.
        got: u64,
    },
}

impl std::fmt::Display for MrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MrError::Sched(e) => write!(f, "scheduling failed: {e}"),
            MrError::Corrupt(e) => write!(f, "corrupt KV page: {e}"),
            MrError::Disk(e) => write!(f, "durable storage failed: {e}"),
            MrError::DataLost { what, expected, got } => {
                write!(f, "data lost ({what}): expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for MrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MrError::Sched(e) => Some(e),
            MrError::Corrupt(e) => Some(e),
            MrError::Disk(e) => Some(e),
            MrError::DataLost { .. } => None,
        }
    }
}

impl From<SchedError> for MrError {
    fn from(e: SchedError) -> Self {
        MrError::Sched(e)
    }
}

impl From<DurableError> for MrError {
    fn from(e: DurableError) -> Self {
        MrError::Disk(e)
    }
}

impl From<KvError> for MrError {
    fn from(e: KvError) -> Self {
        MrError::Corrupt(e)
    }
}

/// Wire encoding of a [`SchedError`] for the cross-rank error allreduce.
fn sched_err_code(e: &SchedError) -> f64 {
    match e {
        SchedError::Aborted { .. } => 1.0,
        SchedError::MasterUnreachable => 2.0,
        SchedError::MasterDied => 3.0,
        SchedError::AllWorkersDead => 4.0,
    }
}

/// Inverse of [`sched_err_code`] for ranks that only learn of the failure
/// through the allreduce (the unit detail, if any, stays on the rank that
/// observed it).
fn sched_err_decode(code: u32) -> SchedError {
    match code {
        1 => SchedError::Aborted { unit: u64::MAX },
        2 => SchedError::MasterUnreachable,
        3 => SchedError::MasterDied,
        _ => SchedError::AllWorkersDead,
    }
}

/// Counters reported by [`MapReduce::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MrStats {
    /// Global number of KV pairs (if a KV exists).
    pub kv_pairs: u64,
    /// Global number of KMV groups (if a KMV exists).
    pub kmv_groups: u64,
    /// Local pages spilled to disk so far, summed over datasets.
    pub local_spills: u64,
}

/// Report of a map ([`MapReduce::map_tasks`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FtMapReport {
    /// Global number of committed KV pairs.
    pub pairs: u64,
    /// Quarantined (poison) unit indices of this map call, sorted; identical
    /// on every live rank.
    pub quarantined: Vec<u64>,
}

/// How one [`MapReduce::map_tasks`] call schedules its tasks. A bare
/// [`MapStyle`] converts into a plan with the default [`FtConfig`], no
/// affinity and no verdict hook, and a `&FtConfig` into a master-worker
/// plan with that configuration; set the other fields with struct-update
/// syntax, e.g. `MapPlan { affinity: Some(&parts), ..(&cfg).into() }`.
pub struct MapPlan<'a> {
    /// Task-to-rank assignment.
    pub style: MapStyle,
    /// Master-worker scheduler settings; `None` means the defaults.
    pub ft: Option<&'a FtConfig>,
    /// `affinity[t]` names the resource (e.g. a DB partition) task `t`
    /// needs; a master-worker run then preferentially hands workers tasks
    /// of the resource they already hold — the paper's proposed
    /// locality-aware scheduler (see [`crate::sched::assign_and_run`]).
    pub affinity: Option<&'a [usize]>,
    /// Called as `verdict(task, commit)` once per completed execution, as
    /// its staged output is published (`true`) or dropped (`false`).
    pub verdict: Option<&'a mut dyn FnMut(usize, bool)>,
}

impl From<MapStyle> for MapPlan<'_> {
    fn from(style: MapStyle) -> Self {
        MapPlan { style, ft: None, affinity: None, verdict: None }
    }
}

/// A scheduler configuration implies the master-worker style.
impl<'a> From<&'a FtConfig> for MapPlan<'a> {
    fn from(ft: &'a FtConfig) -> Self {
        MapPlan { ft: Some(ft), ..MapStyle::MasterWorker.into() }
    }
}

/// Append `units` to the durable poison log at `path` (one 8-byte
/// little-endian unit index per CRC-framed record), merging with any units
/// already recorded by earlier map calls. Atomic: a crash mid-write leaves
/// the previous log intact.
fn append_poison_log(
    path: &std::path::Path,
    units: &[u64],
    faults: Option<&crate::durable::DiskFaultPlan>,
) -> Result<(), DurableError> {
    let mut all: Vec<u64> = match durable::read_record_file(path) {
        Ok(records) => records
            .iter()
            .filter(|r| r.len() == 8)
            .map(|r| u64::from_le_bytes(r[..8].try_into().expect("8 bytes")))
            .collect(),
        Err(DurableError::Io { kind: std::io::ErrorKind::NotFound, .. }) => Vec::new(),
        Err(e) => return Err(e),
    };
    all.extend_from_slice(units);
    all.sort_unstable();
    all.dedup();
    let encoded: Vec<[u8; 8]> = all.iter().map(|u| u.to_le_bytes()).collect();
    let payloads: Vec<&[u8]> = encoded.iter().map(|b| b.as_slice()).collect();
    durable::write_record_file(path, &payloads, faults)
}

/// Decode a poison log written via [`Settings::poison_log`] back into the
/// sorted list of quarantined unit indices.
pub fn read_poison_log(path: &std::path::Path) -> Result<Vec<u64>, DurableError> {
    let records = durable::read_record_file(path)?;
    let mut units: Vec<u64> = records
        .iter()
        .filter(|r| r.len() == 8)
        .map(|r| u64::from_le_bytes(r[..8].try_into().expect("8 bytes")))
        .collect();
    units.sort_unstable();
    Ok(units)
}

/// A MapReduce engine bound to one communicator.
pub struct MapReduce<'c> {
    comm: &'c Comm,
    settings: Settings,
    kv: Option<KeyValue>,
    kmv: Option<KeyMultiValue>,
    /// Spills from datasets already consumed by later operations (so the
    /// out-of-core cost of a whole map→collate→reduce cycle is visible in
    /// [`MapReduce::stats`] even after the intermediates are gone).
    spills_retired: u64,
}

impl<'c> MapReduce<'c> {
    /// New engine with default [`Settings`].
    pub fn new(comm: &'c Comm) -> Self {
        Self::with_settings(comm, Settings::default())
    }

    /// New engine with explicit settings (page size, memory budget, tmpdir).
    /// When the world carries a tracing collector and the settings don't
    /// override it, the engine inherits the communicator's per-rank ring so
    /// its phases and storage counters land on the same trace.
    pub fn with_settings(comm: &'c Comm, mut settings: Settings) -> Self {
        if settings.obs.is_none() {
            settings.obs = comm.obs().cloned();
        }
        MapReduce { comm, settings, kv: None, kmv: None, spills_retired: 0 }
    }

    /// Span guard for an engine phase, plus the spill count at entry (the
    /// pair feeds [`MapReduce::obs_phase_end`]). A no-op `(None, 0)` when no
    /// ring is attached.
    fn obs_phase(&self, name: &'static str) -> (Option<obs::SpanGuard>, u64) {
        match &self.settings.obs {
            Some(_) => (obs::maybe_span(self.settings.obs.as_ref(), name), self.local_spills()),
            None => (None, 0),
        }
    }

    /// Phase-boundary metrics: KV pairs emitted by the phase and spool
    /// pages spilled during it, as counters plus sampled counter tracks.
    fn obs_phase_end(&self, spills_at_entry: u64, pairs_added: u64) {
        if let Some(o) = &self.settings.obs {
            if pairs_added > 0 {
                o.add("mr.kv_pairs", pairs_added);
            }
            o.sample(o.now(), "mr.kv_pairs");
            let spilled = self.local_spills().saturating_sub(spills_at_entry);
            if spilled > 0 {
                o.add("mr.spool_spills", spilled);
                o.sample(o.now(), "mr.spool_spills");
            }
        }
    }

    /// Spill pages charged to this engine so far (live datasets + retired).
    fn local_spills(&self) -> u64 {
        let live = self.kv.as_ref().map_or(0, |kv| kv.spill_count() as u64)
            + self.kmv.as_ref().map_or(0, |kmv| kmv.spill_count() as u64);
        live + self.spills_retired
    }

    fn retire_kv(&mut self, kv: &KeyValue) {
        self.spills_retired += kv.spill_count() as u64;
    }

    fn retire_kmv(&mut self, kmv: &KeyMultiValue) {
        self.spills_retired += kmv.spill_count() as u64;
    }

    /// The communicator this engine runs on.
    pub fn comm(&self) -> &Comm {
        self.comm
    }

    /// Engine settings.
    pub fn settings(&self) -> &Settings {
        &self.settings
    }

    // ------------------------------------------------------------------ map

    /// Collective. Run `ntasks` map tasks scheduled per `plan`, replacing
    /// any existing dataset with the emitted KV. The map callback receives
    /// the global task index and an emitter. A bare [`MapStyle`] is a plan
    /// with the default [`FtConfig`], no affinity and no verdict hook.
    ///
    /// `Chunk` and `RoundRobin` emit straight into the KV. `MasterWorker`
    /// runs the fault-tolerant scheduler ([`crate::sched::assign_and_run`]):
    /// worker deaths are detected, their units (in flight *and* already
    /// completed — the emitted pairs died with the rank) are re-dispatched
    /// to survivors, and the run ends with a cross-rank reconciliation
    /// proving every unit contributed to the surviving output exactly once.
    /// Every live rank returns the same `Ok`/`Err` verdict; on `Err` the
    /// engine holds no KV dataset.
    ///
    /// A master-worker unit that keeps panicking is *quarantined* (after
    /// [`FtConfig::poison_retries`] attempts) instead of failing the run,
    /// and the returned report names every quarantined unit on every rank;
    /// a caller that cannot accept a partial result checks
    /// [`FtMapReport::quarantined`] itself. When [`Settings::poison_log`] is
    /// set, the final acting master also appends the quarantined units to
    /// that durable CRC-framed log.
    ///
    /// Master-worker emissions are **staged** per unit and only published
    /// when the master's first-result-wins verdict commits them, so with
    /// speculative re-execution ([`FtConfig::speculate`]) the surviving
    /// output is bit-for-bit what a fault-free run produces.
    /// [`MapPlan::verdict`] exposes that arbitration: it fires exactly once
    /// per completed execution of `f`, right as its staged KV is published
    /// (`true`) or dropped (`false` — a speculative backup won, or the unit
    /// was carried unarbitrated across a master failover and discarded).
    /// Map callbacks whose result lives *outside* the KV (e.g. a local
    /// numeric accumulator) must buffer per execution and fold on
    /// `commit == true` only.
    ///
    /// Returns the global number of emitted (committed) pairs.
    pub fn map_tasks<'p>(
        &mut self,
        ntasks: usize,
        plan: impl Into<MapPlan<'p>>,
        f: &mut dyn FnMut(usize, &mut KvEmitter<'_>),
    ) -> Result<FtMapReport, MrError> {
        let MapPlan { style, ft, affinity, mut verdict } = plan.into();
        let mut on_verdict = |unit: usize, commit: bool| {
            if let Some(v) = verdict.as_deref_mut() {
                v(unit, commit);
            }
        };
        if let Some(old) = self.kmv.take() {
            self.retire_kmv(&old);
        }
        if let Some(old) = self.kv.take() {
            self.retire_kv(&old);
        }
        let (_span, spills0) = self.obs_phase("mr.map");
        if style != MapStyle::MasterWorker {
            let mut kv = KeyValue::new(&self.settings);
            let run = &mut |task| f(task, &mut KvEmitter::new(&mut kv));
            let cfg = FtConfig::default();
            assign_and_run(self.comm, ntasks, style, &cfg, affinity, run, &mut on_verdict)
                .expect("static mapstyles cannot fail");
            let local = kv.npairs();
            self.kv = Some(kv);
            self.obs_phase_end(spills0, local);
            return Ok(FtMapReport { pairs: self.global_count(local), quarantined: Vec::new() });
        }
        let kv = std::cell::RefCell::new(KeyValue::new(&self.settings));
        let staging: std::cell::RefCell<Option<KeyValue>> = std::cell::RefCell::new(None);
        let settings = self.settings.clone();
        // The scheduler log shares the engine's disk fault plan unless the
        // caller installed its own.
        let mut cfg = ft.cloned().unwrap_or_default();
        if cfg.log_faults.is_none() {
            cfg.log_faults = self.settings.disk_faults.clone();
        }
        let sched = assign_and_run(
            self.comm,
            ntasks,
            style,
            &cfg,
            affinity,
            &mut |task| {
                let mut skv = KeyValue::new(&settings);
                {
                    let mut em = KvEmitter::new(&mut skv);
                    f(task, &mut em);
                }
                *staging.borrow_mut() = Some(skv);
            },
            &mut |unit, commit| {
                let staged = staging.borrow_mut().take();
                if commit {
                    if let Some(staged) = staged {
                        let mut kv = kv.borrow_mut();
                        staged.for_each(|k, v| kv.add(k, v));
                    }
                }
                on_verdict(unit, commit);
            },
        );
        let kv = kv.into_inner();
        if self.comm.size() == 1 {
            let run = sched?;
            if let Some(path) = &self.settings.poison_log {
                if !run.quarantined.is_empty() {
                    append_poison_log(path, &run.quarantined, self.settings.disk_faults.as_deref())?;
                }
            }
            let n = kv.npairs();
            self.kv = Some(kv);
            self.obs_phase_end(spills0, n);
            return Ok(FtMapReport { pairs: n, quarantined: run.quarantined });
        }
        // The final acting master — the only rank whose scheduler run
        // reports a non-empty quarantine, and after a failover not
        // necessarily rank 0 — persists the quarantine *before* the
        // reconciliation so a write failure can be folded into the
        // cross-rank verdict below: every live rank must agree on success
        // or failure.
        let mut disk_err = None;
        let local_quar = match &sched {
            Ok(run) if !run.quarantined.is_empty() => {
                if let Some(path) = &self.settings.poison_log {
                    if let Err(e) =
                        append_poison_log(path, &run.quarantined, self.settings.disk_faults.as_deref())
                    {
                        disk_err = Some(e);
                    }
                }
                run.quarantined.clone()
            }
            _ => Vec::new(),
        };
        // Reconciliation: every rank participates in the same two
        // allreduces regardless of its local verdict, so survivors cannot
        // deadlock waiting for a rank that bailed out early. Dead ranks are
        // skipped by the collective layer — which is exactly the check:
        // units committed by a rank that died after the master loop vanish
        // from the sum and surface as `DataLost`.
        let (local_units, local_err) = match &sched {
            Ok(run) => (run.units.len() as f64, 0.0),
            Err(e) => (0.0, sched_err_code(e)),
        };
        let mut sums = [0.0f64; 4];
        self.comm.allreduce_f64(
            &[
                kv.npairs() as f64,
                local_units,
                local_quar.len() as f64,
                disk_err.is_some() as u64 as f64,
            ],
            &mut sums,
            mpisim::ReduceOp::Sum,
        );
        let mut err = [0.0f64];
        self.comm.allreduce_f64(&[local_err], &mut err, mpisim::ReduceOp::Max);
        if err[0] != 0.0 {
            return Err(MrError::Sched(match sched {
                Err(e) => e,
                Ok(_) => sched_err_decode(err[0] as u32),
            }));
        }
        if sums[3] != 0.0 {
            return Err(MrError::Disk(disk_err.unwrap_or_else(|| DurableError::Io {
                kind: std::io::ErrorKind::Other,
                what: "poison log write failed on the reporting rank".into(),
            })));
        }
        let global_units = sums[1].round() as u64;
        let global_quar = sums[2].round() as u64;
        if global_units + global_quar != ntasks as u64 {
            return Err(MrError::DataLost {
                what: "map units after fault recovery",
                expected: ntasks as u64,
                got: global_units + global_quar,
            });
        }
        // Every rank reports the same quarantine list. Only the final
        // acting master knows it first-hand — and after a failover that
        // need not be rank 0 — so the list is unioned through a per-unit
        // bitmap max-reduction instead of broadcast from a fixed root.
        // (All live ranks agree on `global_quar`, so they take the same
        // branch and the collective cannot deadlock.)
        let quarantined = if global_quar == 0 {
            Vec::new()
        } else {
            let mut bitmap = vec![0.0f64; ntasks];
            for &u in &local_quar {
                if (u as usize) < ntasks {
                    bitmap[u as usize] = 1.0;
                }
            }
            let mut unioned = vec![0.0f64; ntasks];
            self.comm.allreduce_f64(&bitmap, &mut unioned, mpisim::ReduceOp::Max);
            unioned
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v != 0.0)
                .map(|(u, _)| u as u64)
                .collect()
        };
        let local_pairs = kv.npairs();
        self.kv = Some(kv);
        self.obs_phase_end(spills0, local_pairs);
        Ok(FtMapReport { pairs: sums[0] as u64, quarantined })
    }

    /// Collective. Transform the existing KV pair-by-pair into a new KV.
    /// Purely local (no communication). Returns the global pair count of the
    /// new dataset.
    ///
    /// # Panics
    /// Panics if no KV dataset exists.
    pub fn map_kv(&mut self, f: &mut KvMapFn<'_>) -> u64 {
        let old = self.kv.take().expect("map_kv requires a KV dataset");
        let mut new_kv = KeyValue::new(&self.settings);
        old.for_each(|k, v| {
            let mut em = KvEmitter::new(&mut new_kv);
            f(k, v, &mut em);
        });
        self.retire_kv(&old);
        let local = new_kv.npairs();
        self.kv = Some(new_kv);
        self.global_count(local)
    }

    /// Local. Add a pair directly to the KV dataset (creating it if absent).
    /// The original library's `kv->add()` used inside user callbacks between
    /// operations.
    pub fn add(&mut self, key: &[u8], value: &[u8]) {
        if self.kv.is_none() {
            self.kv = Some(KeyValue::new(&self.settings));
        }
        self.kv.as_mut().expect("just ensured").add(key, value);
    }

    // -------------------------------------------------------------- shuffle

    /// Collective. Re-distribute KV pairs so that every pair of a given key
    /// lands on one rank: `live[hash(key) % L]` over the `L` ranks every
    /// survivor agrees are alive, which is `hash(key) % P` while no rank has
    /// died. Processes page-at-a-time with one `alltoallv` per global page
    /// round, bounding memory to O(page size · P) regardless of dataset size
    /// (the original exchanges page-wise for the same reason). Returns the
    /// global pair count.
    ///
    /// The exchange is checked end to end: every page received from a peer
    /// is validated before it is spliced in (truncation/corruption surfaces
    /// as [`MrError::Corrupt`], never a panic), and the global pair count
    /// must be conserved across the shuffle ([`MrError::DataLost`] otherwise
    /// — e.g. a rank died between the map and the exchange, taking its pairs
    /// with it).
    ///
    /// Every live rank returns the same `Ok`/`Err` verdict. On `Err` the
    /// engine holds no KV dataset.
    ///
    /// # Panics
    /// Panics if no KV dataset exists.
    pub fn aggregate(&mut self) -> Result<u64, MrError> {
        let (_span, spills0) = self.obs_phase("mr.aggregate");
        let size = self.comm.size();
        let kv = self.kv.take().expect("aggregate requires a KV dataset");
        if size == 1 {
            let n = kv.npairs();
            self.kv = Some(kv);
            self.obs_phase_end(spills0, 0);
            return Ok(n);
        }

        let before = self.global_count(kv.npairs());

        // Agree on the set of live ranks and partition keys over *that* — a
        // pair hashed to a dead rank would silently vanish. Two sources are
        // intersected: the Min over everyone's board view, and the agreed
        // participation set of this very allreduce. The latter closes a
        // race the view alone leaves open: a rank whose clock was pulled
        // past its strike time by the count collective above dies *entering*
        // this one, after peers snapshotted their views — it never deposits,
        // so every survivor sees its empty slot and excludes it. A rank
        // dying after this agreement is not recovered, but the conservation
        // check below still catches it.
        let my_view: Vec<f64> =
            (0..size).map(|r| if self.comm.is_alive(r) { 1.0 } else { 0.0 }).collect();
        let mut alive = vec![0.0f64; size];
        let present =
            self.comm.allreduce_f64_present(&my_view, &mut alive, mpisim::ReduceOp::Min);
        let live: Vec<usize> =
            (0..size).filter(|&r| alive[r] == 1.0 && present[r]).collect();

        let local_pages = kv.num_pages() as f64;
        let mut max_pages = [0.0f64];
        self.comm.allreduce_f64(&[local_pages], &mut max_pages, mpisim::ReduceOp::Max);
        let rounds = max_pages[0] as usize;

        let mut incoming = KeyValue::new(&self.settings);
        // First problem seen locally; the exchange still runs to completion
        // so every rank executes the same collective sequence.
        let mut local_err: Option<MrError> = None;

        for round in 0..rounds {
            let mut sends: Vec<Vec<u8>> = vec![Vec::new(); size];
            let mut counts: Vec<u64> = vec![0; size];
            match kv.try_page_at(round) {
                Ok(Some(page)) => {
                    let mut pos = 0;
                    while pos < page.len() {
                        let (k, v) = decode_entry(&page, &mut pos);
                        let owner = live[key_owner(k, live.len())];
                        encode_entry(&mut sends[owner], k, v);
                        counts[owner] += 1;
                    }
                }
                Ok(None) => {}
                Err(e) => {
                    // A rotted spill page: still run the full collective
                    // sequence (peers are mid-exchange), report after.
                    local_err.get_or_insert(MrError::Corrupt(e));
                }
            }
            let sends: Vec<Vec<u8>> = sends
                .into_iter()
                .zip(&counts)
                .map(|(buf, &n)| {
                    let mut msg = Vec::with_capacity(8 + buf.len());
                    msg.extend_from_slice(&n.to_le_bytes());
                    msg.extend_from_slice(&buf);
                    msg
                })
                .collect();
            let received = self.comm.alltoallv(sends);
            for msg in received {
                if msg.is_empty() {
                    continue; // a dead rank's non-contribution
                }
                if msg.len() < 8 {
                    local_err.get_or_insert(MrError::DataLost {
                        what: "aggregate message prefix",
                        expected: 8,
                        got: msg.len() as u64,
                    });
                    continue;
                }
                let declared = u64::from_le_bytes(msg[..8].try_into().expect("count"));
                match validate_page(&msg[8..]) {
                    Ok(actual) if actual == declared => {
                        if actual > 0 {
                            incoming.add_encoded_page(msg[8..].to_vec(), actual);
                        }
                    }
                    Ok(actual) => {
                        local_err.get_or_insert(MrError::DataLost {
                            what: "aggregate page header count",
                            expected: declared,
                            got: actual,
                        });
                    }
                    Err(e) => {
                        local_err.get_or_insert(MrError::Corrupt(e));
                    }
                }
            }
        }

        // Reconciliation: combine local verdicts and the post-shuffle pair
        // count in one allreduce so every rank agrees on the outcome.
        let mut sums = [0.0f64; 2];
        let flag = if local_err.is_some() { 1.0 } else { 0.0 };
        self.comm.allreduce_f64(
            &[incoming.npairs() as f64, flag],
            &mut sums,
            mpisim::ReduceOp::Sum,
        );
        if sums[1] != 0.0 {
            return Err(local_err.unwrap_or(MrError::DataLost {
                what: "aggregate (corrupt page on another rank)",
                expected: 0,
                got: sums[1] as u64,
            }));
        }
        let after = sums[0] as u64;
        if after != before {
            return Err(MrError::DataLost {
                what: "aggregate pair conservation",
                expected: before,
                got: after,
            });
        }

        self.retire_kv(&kv);
        self.kv = Some(incoming);
        self.obs_phase_end(spills0, 0);
        Ok(before)
    }

    /// Local (but conventionally called on all ranks). Group the local KV by
    /// key into a KMV. After [`MapReduce::aggregate`] the grouping is global.
    /// Returns the global number of groups.
    ///
    /// When the dataset exceeds the memory budget the grouping runs in
    /// hash-partitioned passes ("bins"), each small enough to group in
    /// memory — the out-of-core convert of the original library.
    ///
    /// # Panics
    /// Panics if no KV dataset exists.
    pub fn convert(&mut self) -> u64 {
        let (_span, spills0) = self.obs_phase("mr.convert");
        let kv = self.kv.take().expect("convert requires a KV dataset");
        let mut kmv = KeyMultiValue::new(&self.settings);

        let budget = self.settings.mem_budget;
        if kv.nbytes() <= budget || budget == usize::MAX {
            Self::convert_in_memory(&kv, &mut kmv);
        } else {
            // Out-of-core: split keys into enough hash bins that one bin fits
            // comfortably in the budget, spool each bin (spilling as needed),
            // then group bin-by-bin.
            let nbins = (kv.nbytes() / (budget / 2).max(1) + 1).max(2);
            let mut bins: Vec<KeyValue> =
                (0..nbins).map(|_| KeyValue::new(&self.settings)).collect();
            kv.for_each(|k, v| {
                // Rotate the hash so bin selection is independent of the
                // rank-ownership hash used by aggregate().
                let bin = (fnv1a(k).rotate_left(32) % nbins as u64) as usize;
                bins[bin].add(k, v);
            });
            for bin in &bins {
                Self::convert_in_memory(bin, &mut kmv);
            }
            self.spills_retired +=
                bins.iter().map(|b| b.spill_count() as u64).sum::<u64>();
        }

        self.retire_kv(&kv);
        let local = kmv.ngroups();
        self.kv = None;
        self.kmv = Some(kmv);
        self.obs_phase_end(spills0, 0);
        self.global_count(local)
    }

    fn convert_in_memory(kv: &KeyValue, kmv: &mut KeyMultiValue) {
        // Group preserving first-seen key order (deterministic output).
        let mut order: Vec<Vec<u8>> = Vec::new();
        let mut groups: HashMap<Vec<u8>, Vec<Vec<u8>>> = HashMap::new();
        kv.for_each(|k, v| {
            if let Some(vals) = groups.get_mut(k) {
                vals.push(v.to_vec());
            } else {
                order.push(k.to_vec());
                groups.insert(k.to_vec(), vec![v.to_vec()]);
            }
        });
        for key in order {
            let vals = groups.remove(&key).expect("key recorded in order list");
            kmv.add_group(&key, vals.iter().map(Vec::as_slice));
        }
    }

    /// Collective. `aggregate()` followed by `convert()`: the canonical
    /// shuffle that groups every key's values on one rank. Returns the global
    /// number of unique keys, or the error [`MapReduce::aggregate`] agreed
    /// on.
    pub fn collate(&mut self) -> Result<u64, MrError> {
        let (_span, _) = self.obs_phase("mr.collate");
        self.aggregate()?;
        Ok(self.convert())
    }

    // --------------------------------------------------------------- reduce

    /// Collective in convention, local in execution. Call `f` once per local
    /// KMV group; pairs emitted through the third argument form the new KV
    /// dataset. Returns the global emitted-pair count.
    ///
    /// # Panics
    /// Panics if no KMV dataset exists.
    pub fn reduce(&mut self, f: &mut dyn FnMut(&[u8], MultiValues<'_>, &mut KvEmitter<'_>)) -> u64 {
        let (_span, spills0) = self.obs_phase("mr.reduce");
        let kmv = self.kmv.take().expect("reduce requires a KMV dataset");
        let mut kv = KeyValue::new(&self.settings);
        kmv.for_each_group(|key, vals| {
            let mut em = KvEmitter::new(&mut kv);
            f(key, vals, &mut em);
        });
        self.retire_kmv(&kmv);
        let local = kv.npairs();
        self.kv = Some(kv);
        self.obs_phase_end(spills0, local);
        self.global_count(local)
    }

    /// Local convert + reduce without any communication: combines duplicate
    /// keys *within* each rank (the original's `compress()`), typically used
    /// to shrink data before an expensive `collate()`.
    pub fn compress(
        &mut self,
        f: &mut dyn FnMut(&[u8], MultiValues<'_>, &mut KvEmitter<'_>),
    ) -> u64 {
        let (_span, spills0) = self.obs_phase("mr.compress");
        let kv = self.kv.take().expect("compress requires a KV dataset");
        let mut kmv = KeyMultiValue::new(&self.settings);
        Self::convert_in_memory(&kv, &mut kmv);
        self.retire_kv(&kv);
        let mut out = KeyValue::new(&self.settings);
        kmv.for_each_group(|key, vals| {
            let mut em = KvEmitter::new(&mut out);
            f(key, vals, &mut em);
        });
        let local = out.npairs();
        self.kv = Some(out);
        self.obs_phase_end(spills0, local);
        self.global_count(local)
    }

    // ----------------------------------------------------------------- misc

    /// Local. Sort the KV pairs by key with `cmp`. Datasets within the
    /// memory budget sort in memory; larger ones run the external merge sort
    /// ([`crate::extsort`]), matching the original library's out-of-core
    /// `sort_keys()`.
    ///
    /// # Panics
    /// Panics if no KV dataset exists.
    pub fn sort_keys(&mut self, cmp: impl Fn(&[u8], &[u8]) -> std::cmp::Ordering) {
        let kv = self.kv.take().expect("sort_keys requires a KV dataset");
        self.retire_kv(&kv);
        self.kv = Some(crate::extsort::external_sort(
            kv,
            &self.settings,
            crate::extsort::SortBy::Key,
            &cmp,
        ));
    }

    /// Local. Sort the KV pairs by value with `cmp` (the original library's
    /// `sort_values()`), out-of-core past the memory budget like
    /// [`MapReduce::sort_keys`].
    ///
    /// # Panics
    /// Panics if no KV dataset exists.
    pub fn sort_values(&mut self, cmp: impl Fn(&[u8], &[u8]) -> std::cmp::Ordering) {
        let kv = self.kv.take().expect("sort_values requires a KV dataset");
        self.retire_kv(&kv);
        self.kv = Some(crate::extsort::external_sort(
            kv,
            &self.settings,
            crate::extsort::SortBy::Value,
            &cmp,
        ));
    }

    /// Local. Sort the values *within* each KMV group with `cmp` (the
    /// original library's `sort_multivalues()`) — e.g. hits by E-value
    /// before a reduce that writes them out in order.
    ///
    /// # Panics
    /// Panics if no KMV dataset exists.
    pub fn sort_multivalues(&mut self, cmp: impl Fn(&[u8], &[u8]) -> std::cmp::Ordering) {
        let kmv = self.kmv.take().expect("sort_multivalues requires a KMV dataset");
        self.retire_kmv(&kmv);
        let mut out = KeyMultiValue::new(&self.settings);
        kmv.for_each_group(|key, vals| {
            let mut values = vals.collect_owned();
            values.sort_by(|a, b| cmp(a, b));
            out.add_group(key, values.iter().map(Vec::as_slice));
        });
        self.kmv = Some(out);
    }

    /// Collective. Replace every rank's KV dataset with a copy of `root`'s
    /// (the original library's `broadcast()`).
    ///
    /// # Panics
    /// Panics if the root has no KV dataset.
    pub fn broadcast(&mut self, root: usize) -> u64 {
        let is_root = self.comm.rank() == root;
        let mut payload = Vec::new();
        if is_root {
            let kv = self.kv.as_ref().expect("broadcast requires a KV dataset on root");
            payload.extend_from_slice(&kv.npairs().to_le_bytes());
            kv.for_each_page(|page| {
                payload.extend_from_slice(&(page.len() as u64).to_le_bytes());
                payload.extend_from_slice(page);
            });
        }
        self.comm.bcast(root, &mut payload);
        if !is_root {
            if let Some(old) = self.kv.take() {
                self.retire_kv(&old);
            }
            let npairs = u64::from_le_bytes(payload[..8].try_into().expect("count"));
            let mut kv = KeyValue::new(&self.settings);
            let mut pos = 8usize;
            let mut remaining_pairs = npairs;
            while pos < payload.len() {
                let len =
                    u64::from_le_bytes(payload[pos..pos + 8].try_into().expect("len")) as usize;
                pos += 8;
                let page = payload[pos..pos + len].to_vec();
                pos += len;
                // Pair counts per page are recovered by decoding; the final
                // page gets the remainder.
                let mut count = 0u64;
                let mut p = 0usize;
                while p < page.len() {
                    let _ = decode_entry(&page, &mut p);
                    count += 1;
                }
                remaining_pairs = remaining_pairs.saturating_sub(count);
                kv.add_encoded_page(page, count);
            }
            debug_assert_eq!(remaining_pairs, 0, "broadcast page counts disagree");
            self.kv = Some(kv);
        }
        self.global_count(self.kv_local_count()) / self.comm.size() as u64
    }

    /// Collective. Move every KV pair to the first `nranks` ranks (pair
    /// counts preserved; source rank `r` ships to `r % nranks`). The original
    /// library's `gather()`.
    ///
    /// # Panics
    /// Panics if `nranks` is zero or exceeds the world size, or if no KV
    /// dataset exists.
    pub fn gather(&mut self, nranks: usize) -> u64 {
        let size = self.comm.size();
        assert!(nranks >= 1 && nranks <= size, "gather target {nranks} out of range");
        let kv = self.kv.take().expect("gather requires a KV dataset");
        if size == 1 || nranks == size {
            let n = kv.npairs();
            self.kv = Some(kv);
            return self.global_count(n);
        }
        let rank = self.comm.rank();
        let mut sends: Vec<Vec<u8>> = vec![Vec::new(); size];
        let mut keep = KeyValue::new(&self.settings);
        if rank < nranks {
            kv.for_each(|k, v| keep.add(k, v));
        } else {
            let dst = rank % nranks;
            let mut buf = vec![0u8; 8];
            let mut n = 0u64;
            kv.for_each(|k, v| {
                encode_entry(&mut buf, k, v);
                n += 1;
            });
            buf[..8].copy_from_slice(&n.to_le_bytes());
            sends[dst] = buf;
        }
        let received = self.comm.alltoallv(sends);
        for msg in received {
            if msg.len() <= 8 {
                continue;
            }
            let n = u64::from_le_bytes(msg[..8].try_into().expect("count"));
            keep.add_encoded_page(msg[8..].to_vec(), n);
        }
        self.retire_kv(&kv);
        let local = keep.npairs();
        self.kv = Some(keep);
        self.global_count(local)
    }

    /// Global pair/group count across ranks for a local count.
    fn global_count(&self, local: u64) -> u64 {
        if self.comm.size() == 1 {
            return local;
        }
        let mut out = [0.0f64];
        self.comm.allreduce_f64(&[local as f64], &mut out, mpisim::ReduceOp::Sum);
        out[0] as u64
    }

    /// Local pair count of the KV dataset (0 if none).
    pub fn kv_local_count(&self) -> u64 {
        self.kv.as_ref().map_or(0, KeyValue::npairs)
    }

    /// Local group count of the KMV dataset (0 if none).
    pub fn kmv_local_count(&self) -> u64 {
        self.kmv.as_ref().map_or(0, KeyMultiValue::ngroups)
    }

    /// Collective. Global dataset statistics.
    pub fn stats(&self) -> MrStats {
        let live = self.kv.as_ref().map_or(0, KeyValue::spill_count)
            + self.kmv.as_ref().map_or(0, KeyMultiValue::spill_count);
        MrStats {
            kv_pairs: self.global_count(self.kv_local_count()),
            kmv_groups: self.global_count(self.kmv_local_count()),
            local_spills: live as u64 + self.spills_retired,
        }
    }

    /// Visit every local KV pair (insertion order). No-op without a KV.
    pub fn kv_for_each(&self, f: impl FnMut(&[u8], &[u8])) {
        if let Some(kv) = &self.kv {
            kv.for_each(f);
        }
    }

    /// Take the KV dataset out of the engine (e.g. to hand to application
    /// code).
    pub fn take_kv(&mut self) -> Option<KeyValue> {
        self.kv.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::World;

    /// Word-count over synthetic "documents": the canonical end-to-end test.
    #[test]
    fn wordcount_end_to_end() {
        for ranks in [1, 2, 4] {
            let docs: Vec<&str> =
                vec!["a b a", "c a b", "a a c", "b", "c c c c", "a b c", "b b", ""];
            let ndocs = docs.len();
            let results = World::new(ranks).run(move |comm| {
                let docs = docs.clone();
                let mut mr = MapReduce::new(comm);
                mr.map_tasks(ndocs, MapStyle::RoundRobin, &mut |t, kv| {
                    for w in docs[t].split_whitespace() {
                        kv.emit(w.as_bytes(), &1u64.to_le_bytes());
                    }
                })
                .expect("fault-free map");
                mr.collate().expect("fault-free shuffle");
                let mut counts: Vec<(String, usize)> = Vec::new();
                mr.reduce(&mut |key, vals, _| {
                    counts.push((String::from_utf8(key.to_vec()).expect("utf8"), vals.count()));
                });
                counts
            });
            let mut all: Vec<(String, usize)> = results.concat();
            all.sort();
            assert_eq!(
                all,
                vec![
                    ("a".to_string(), 6),
                    ("b".to_string(), 6),
                    ("c".to_string(), 7),
                ],
                "ranks={ranks}"
            );
        }
    }

    #[test]
    fn collate_places_each_key_on_exactly_one_rank() {
        let results = World::new(4).run(|comm| {
            let mut mr = MapReduce::new(comm);
            mr.map_tasks(40, MapStyle::Chunk, &mut |t, kv| {
                kv.emit(&[(t % 10) as u8], &(t as u64).to_le_bytes());
            })
            .expect("fault-free map");
            let groups = mr.collate().expect("fault-free shuffle");
            assert_eq!(groups, 10);
            let mut local_keys = Vec::new();
            mr.reduce(&mut |key, vals, _| {
                assert_eq!(vals.count(), 4, "each key emitted by 4 tasks");
                local_keys.push(key[0]);
            });
            local_keys
        });
        let mut all: Vec<u8> = results.concat();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn map_kv_transforms_pairs_locally() {
        let results = World::new(2).run(|comm| {
            let mut mr = MapReduce::new(comm);
            mr.map_tasks(6, MapStyle::Chunk, &mut |t, kv| {
                kv.emit(&[t as u8], &[t as u8]);
            })
            .expect("fault-free map");
            mr.map_kv(&mut |k, v, out| {
                // Duplicate each pair with doubled value.
                out.emit(k, v);
                out.emit(k, &[v[0] * 2]);
            })
        });
        assert_eq!(results, vec![12, 12]);
    }

    #[test]
    fn compress_combines_local_duplicates_only() {
        let results = World::new(2).run(|comm| {
            let mut mr = MapReduce::new(comm);
            // Both ranks emit the same key; compress is local so both keep it.
            mr.map_tasks(2, MapStyle::RoundRobin, &mut |_, kv| {
                kv.emit(b"k", b"1");
                kv.emit(b"k", b"1");
            })
            .expect("fault-free map");
            mr.compress(&mut |key, vals, out| {
                let n = vals.count() as u64;
                out.emit(key, &n.to_le_bytes());
            })
        });
        // 2 ranks × 1 compressed pair each.
        assert_eq!(results, vec![2, 2]);
    }

    #[test]
    fn sort_keys_orders_local_pairs() {
        let results = World::new(1).run(|comm| {
            let mut mr = MapReduce::new(comm);
            mr.map_tasks(1, MapStyle::Chunk, &mut |_, kv| {
                kv.emit(b"zebra", b"");
                kv.emit(b"apple", b"");
                kv.emit(b"mango", b"");
            })
            .expect("fault-free map");
            mr.sort_keys(|a, b| a.cmp(b));
            let mut keys = Vec::new();
            mr.kv_for_each(|k, _| keys.push(k.to_vec()));
            keys
        });
        assert_eq!(results[0], vec![b"apple".to_vec(), b"mango".to_vec(), b"zebra".to_vec()]);
    }

    #[test]
    fn gather_concentrates_pairs() {
        let results = World::new(4).run(|comm| {
            let mut mr = MapReduce::new(comm);
            mr.map_tasks(8, MapStyle::RoundRobin, &mut |t, kv| {
                kv.emit(&[t as u8], b"v");
            })
            .expect("fault-free map");
            let total = mr.gather(2);
            assert_eq!(total, 8);
            mr.kv_local_count()
        });
        assert_eq!(results[2], 0);
        assert_eq!(results[3], 0);
        assert_eq!(results[0] + results[1], 8);
    }

    #[test]
    fn out_of_core_collate_matches_in_memory() {
        let run = |settings: Settings| {
            World::new(2).run(move |comm| {
                let mut mr = MapReduce::with_settings(comm, settings.clone());
                mr.map_tasks(60, MapStyle::Chunk, &mut |t, kv| {
                    kv.emit(&[(t % 7) as u8], &(t as u64).to_le_bytes());
                })
                .expect("fault-free map");
                mr.collate().expect("fault-free shuffle");
                let mut out: Vec<(u8, Vec<u64>)> = Vec::new();
                mr.reduce(&mut |key, vals, _| {
                    let mut ts: Vec<u64> = vals
                        .map(|v| u64::from_le_bytes(v.try_into().expect("u64")))
                        .collect();
                    ts.sort_unstable();
                    out.push((key[0], ts));
                });
                out
            })
        };
        let mut a: Vec<_> = run(Settings::default()).concat();
        let mut b: Vec<_> = run(Settings::tiny_paged(std::env::temp_dir())).concat();
        a.sort();
        b.sort();
        assert_eq!(a, b, "paged execution must not change results");
        assert_eq!(a.len(), 7);
    }

    #[test]
    fn master_worker_map_collects_all_emissions() {
        let results = World::new(4).run(|comm| {
            let mut mr = MapReduce::new(comm);
            mr.map_tasks(30, MapStyle::MasterWorker, &mut |t, kv| {
                kv.emit(&(t as u64).to_le_bytes(), b"done");
            })
            .expect("fault-free map")
            .pairs
        });
        assert_eq!(results, vec![30, 30, 30, 30]);
    }

    #[test]
    fn stats_reports_global_counts() {
        let results = World::new(3).run(|comm| {
            let mut mr = MapReduce::new(comm);
            mr.map_tasks(9, MapStyle::RoundRobin, &mut |t, kv| {
                kv.emit(&[(t % 3) as u8], b"");
            })
            .expect("fault-free map");
            let s1 = mr.stats();
            mr.collate().expect("fault-free shuffle");
            let s2 = mr.stats();
            (s1.kv_pairs, s2.kmv_groups)
        });
        for (kv, kmv) in results {
            assert_eq!(kv, 9);
            assert_eq!(kmv, 3);
        }
    }

    #[test]
    fn add_feeds_kv_directly() {
        let results = World::new(2).run(|comm| {
            let mut mr = MapReduce::new(comm);
            mr.add(b"k", &[comm.rank() as u8]);
            mr.collate().expect("fault-free shuffle");
            let mut n = 0;
            mr.reduce(&mut |_, vals, _| n = vals.count());
            n
        });
        // Key "k" groups on one rank with both values.
        assert!(results.contains(&2));
    }

    // ---- fault-tolerant operations ----

    use crate::sched::FtConfig;
    use mpisim::{FaultPlan, RankOutcome};

    #[test]
    fn master_worker_map_with_a_config_matches_the_bare_style() {
        let results = World::new(4).run(|comm| {
            let mut mr = MapReduce::new(comm);
            mr.map_tasks(30, &FtConfig::default(), &mut |t, kv| {
                kv.emit(&(t as u64).to_le_bytes(), b"done");
            })
            .expect("no faults injected")
            .pairs
        });
        assert_eq!(results, vec![30, 30, 30, 30]);
    }

    #[test]
    fn master_worker_map_recovers_all_pairs_after_a_worker_death() {
        // Rank 2 dies on its first operation; every one of the 24 units must
        // still contribute exactly one pair to the surviving global KV.
        let plan = FaultPlan::new(17).kill(2, 0.0);
        let outcomes = World::new(4).with_faults(plan).run_faulty(|comm| {
            let mut mr = MapReduce::new(comm);
            let n = mr
                .map_tasks(24, &FtConfig::default(), &mut |t, kv| {
                    kv.emit(&(t as u64).to_le_bytes(), b"x");
                })?
                .pairs;
            // The shuffle must also conserve all 24 pairs.
            let after = mr.aggregate()?;
            Ok::<(u64, u64), MrError>((n, after))
        });
        assert!(outcomes[2].is_died());
        for (rank, o) in outcomes.iter().enumerate() {
            if rank == 2 {
                continue;
            }
            match o {
                RankOutcome::Done(Ok((n, after))) => {
                    assert_eq!((*n, *after), (24, 24), "rank {rank}");
                }
                other => panic!("rank {rank}: {other:?}"),
            }
        }
    }

    #[test]
    fn master_worker_map_reports_consistent_error_when_all_workers_die() {
        let plan = FaultPlan::new(29).kill(1, 0.0).kill(2, 0.0);
        let outcomes = World::new(3).with_faults(plan).run_faulty(|comm| {
            let mut mr = MapReduce::new(comm);
            mr.map_tasks(8, &FtConfig::default(), &mut |_, kv| kv.emit(b"k", b"v"))
        });
        match &outcomes[0] {
            RankOutcome::Done(Err(MrError::Sched(SchedError::AllWorkersDead))) => {}
            other => panic!("master outcome: {other:?}"),
        }
    }

    #[test]
    fn master_worker_map_quarantines_poison_and_logs_durably() {
        let dir = std::env::temp_dir().join(format!("mrmpi-poison-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("poison.log");
        let _ = std::fs::remove_file(&log);
        let plan = FaultPlan::new(7).poison(3).poison(9);
        let outcomes = World::new(4).with_faults(plan).run_faulty({
            let log = log.clone();
            move |comm| {
            let settings = Settings { poison_log: Some(log.clone()), ..Settings::default() };
            let mut mr = MapReduce::with_settings(comm, settings);
            let report = mr.map_tasks(16, &FtConfig::default(), &mut |t, kv| {
                kv.emit(&(t as u64).to_le_bytes(), b"x");
            })?;
            Ok::<FtMapReport, MrError>(report)
        }});
        for (rank, o) in outcomes.iter().enumerate() {
            match o {
                RankOutcome::Done(Ok(report)) => {
                    // Every rank sees the same verdict: 14 committed pairs,
                    // the two poison units quarantined.
                    assert_eq!(report.pairs, 14, "rank {rank}");
                    assert_eq!(report.quarantined, vec![3, 9], "rank {rank}");
                }
                other => panic!("rank {rank}: {other:?}"),
            }
        }
        // The quarantine survives the run in the durable CRC-framed log.
        assert_eq!(read_poison_log(&log).unwrap(), vec![3, 9]);
        // A single-rank world quarantines through the same core and reports
        // the partial result the same way.
        let plan = FaultPlan::new(7).poison(5);
        let outcomes = World::new(1).with_faults(plan).run_faulty(|comm| {
            let mut mr = MapReduce::new(comm);
            mr.map_tasks(8, &FtConfig::default(), &mut |_, kv| kv.emit(b"k", b"v"))
        });
        match &outcomes[0] {
            RankOutcome::Done(Ok(FtMapReport { pairs: 7, quarantined })) if quarantined == &[5] => {}
            other => panic!("single-rank quarantine: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn poison_log_appends_and_dedups_across_map_calls() {
        let dir = std::env::temp_dir().join(format!("mrmpi-poison-append-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("poison.log");
        let _ = std::fs::remove_file(&log);
        for seed in [(11u64, 4u64), (13, 2)] {
            let plan = FaultPlan::new(seed.0).poison(seed.1).poison(4);
            World::new(2).with_faults(plan).run_faulty({
                let log = log.clone();
                move |comm| {
                let settings = Settings { poison_log: Some(log.clone()), ..Settings::default() };
                let mut mr = MapReduce::with_settings(comm, settings);
                mr.map_tasks(6, &FtConfig::default(), &mut |t, kv| {
                    kv.emit(&[t as u8], b"v");
                })
            }});
        }
        // Unit 4 was quarantined by both calls but is logged once.
        assert_eq!(read_poison_log(&log).unwrap(), vec![2, 4]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn aggregate_conserves_pairs_and_groups_keys_when_healthy() {
        let results = World::new(3).run(|comm| {
            let mut mr = MapReduce::new(comm);
            mr.map_tasks(12, MapStyle::RoundRobin, &mut |t, kv| {
                kv.emit(&[(t % 5) as u8], &(t as u64).to_le_bytes());
            })
            .expect("fault-free map");
            let n = mr.aggregate().expect("healthy world");
            // All pairs for one key live on one rank now.
            let mut local = std::collections::HashMap::<u8, usize>::new();
            mr.kv_for_each(|k, _| *local.entry(k[0]).or_default() += 1);
            (n, local)
        });
        assert!(results.iter().all(|(n, _)| *n == 12));
        let mut merged = std::collections::HashMap::<u8, usize>::new();
        for (_, local) in &results {
            for (k, c) in local {
                assert!(merged.insert(*k, *c).is_none(), "key {k} split across ranks");
            }
        }
        assert_eq!(merged.values().sum::<usize>(), 12);
    }

    #[test]
    fn collate_after_a_death_keeps_every_survivor_pair() {
        // Every rank adds 50 pairs under keys of its own; rank 2 then
        // charges past its kill time, so it is dead before the shuffle
        // starts. The survivors' pairs must all survive the shuffle — none
        // may be sent to the dead rank — and each key must land on exactly
        // one survivor.
        let plan = FaultPlan::new(13).kill(2, 1.0);
        let outcomes = World::new(4).with_faults(plan).run_faulty(|comm| {
            let mut mr = MapReduce::new(comm);
            for i in 0..50u64 {
                mr.add(format!("r{}k{i}", comm.rank()).as_bytes(), &i.to_le_bytes());
            }
            if comm.rank() == 2 {
                comm.charge(2.0);
            }
            let groups = mr.collate()?;
            let mut local_keys = Vec::new();
            mr.reduce(&mut |key, vals, _| {
                assert_eq!(vals.count(), 1, "one pair per key");
                local_keys.push(key.to_vec());
            });
            Ok::<(u64, Vec<Vec<u8>>), MrError>((groups, local_keys))
        });
        assert!(outcomes[2].is_died(), "rank 2 dies before the shuffle");
        let mut seen = std::collections::HashSet::new();
        for rank in [0, 1, 3] {
            match &outcomes[rank] {
                RankOutcome::Done(Ok((groups, keys))) => {
                    assert_eq!(*groups, 150, "rank {rank}: the survivors' 3 × 50 pairs");
                    for k in keys {
                        assert!(seen.insert(k.clone()), "key {k:?} on two ranks");
                    }
                }
                other => panic!("rank {rank}: {other:?}"),
            }
        }
        assert_eq!(seen.len(), 150, "every survivor key sits on one rank");
    }
}
