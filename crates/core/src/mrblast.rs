//! MR-MPI BLAST: the paper's first application (Fig. 1).
//!
//! The control flow reproduced here, stage by stage:
//!
//! 1. the query set arrives pre-split into *query blocks*; the database is
//!    pre-formatted into partitions (`bioseq::db`);
//! 2. work items are `(query block, DB partition)` tuples; `map()` is run
//!    with the master-worker mapstyle so that "each worker is kept occupied
//!    as long as there are remaining work units" — through the
//!    fault-tolerant scheduler of [`mrmpi::sched`], so worker and master
//!    deaths, stragglers and poison units are survived;
//! 3. each `map()` call runs the serial engine with the DB length overridden
//!    to the whole database and emits `(query id → encoded HSP)` pairs;
//! 4. `collate()` groups hits per query across partitions (with end-to-end
//!    accounting, and keys sorted so each rank's output does not depend on
//!    which worker ran which unit);
//! 5. `reduce()` sorts by E-value, truncates to the requested top-K and
//!    appends to the per-rank output file — "the results of the computations
//!    are in a set of files, one per each MPI rank, with the hits for each
//!    query located in only one file";
//! 6. an outer loop over subsets of the query blocks bounds the KV working
//!    set held in memory between `map()` and `reduce()`.

use std::cell::RefCell;
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

use bioseq::db::{BlastDb, DbPartition};
use bioseq::seq::SeqRecord;
use blast::format::tabular_line;
use blast::hsp::{sort_and_truncate, Hit};
use blast::search::{BlastSearcher, PreparedQueries};
use blast::SearchParams;
use mpisim::Comm;
use mrmpi::{MapPlan, MapReduce, MrError, Settings};

use crate::ckpt::{self, RestartPoint, RunFingerprint};
use crate::fault::FaultConfig;
use crate::util::BusyTracker;

/// Configuration of one MR-MPI BLAST run.
#[derive(Debug, Clone)]
pub struct MrBlastConfig {
    /// Engine parameters (passed through to the serial searcher unchanged —
    /// the paper's "easy to support any of the multitudes of options").
    pub params: SearchParams,
    /// Use the locality-aware master (the paper's future-work scheduler):
    /// workers preferentially receive work units for the DB partition they
    /// already hold.
    pub locality_aware: bool,
    /// Query blocks per MapReduce iteration (`0` = all blocks in one
    /// iteration). Controls the intermediate key-value working set.
    pub blocks_per_iteration: usize,
    /// Directory for per-rank tabular output files (`None` = in-memory
    /// only).
    pub output_dir: Option<PathBuf>,
    /// Drop hits of a shredded fragment against its own source sequence
    /// (the paper excluded "hits of the RefSeq fragments against
    /// themselves"). A fragment id `src/123-523` is considered self against
    /// subject id `src`.
    pub exclude_self: bool,
    /// MapReduce engine settings (page size, memory budget, spill dir).
    pub mr_settings: Settings,
    /// Directory for the durable restart checkpoint (`None` = no
    /// checkpointing). After every completed iteration, rank 0 atomically
    /// records the finished query blocks and each rank's output-file offset;
    /// a restarted run with the same configuration skips finished iterations
    /// and truncates partial output back to the last consistent offset, so
    /// the final files are bit-for-bit those of an uninterrupted run.
    pub checkpoint_dir: Option<PathBuf>,
    /// Stop (cleanly, on every rank) after this many iterations have been
    /// executed *by this run* — a deterministic simulated crash for
    /// checkpoint/restart tests. `None` = run to completion.
    pub stop_after_iterations: Option<usize>,
}

impl MrBlastConfig {
    /// Nucleotide defaults.
    pub fn blastn() -> Self {
        MrBlastConfig {
            params: SearchParams::blastn(),
            locality_aware: false,
            blocks_per_iteration: 0,
            output_dir: None,
            exclude_self: false,
            mr_settings: Settings::default(),
            checkpoint_dir: None,
            stop_after_iterations: None,
        }
    }

    /// Protein defaults.
    pub fn blastp() -> Self {
        MrBlastConfig { params: SearchParams::blastp(), ..Self::blastn() }
    }
}

/// Open (or reopen) this rank's output file, truncated back to
/// `resume_offset` — the output-truncation invariant: bytes past the last
/// checkpointed offset belong to an unfinished iteration and are discarded
/// before recomputation appends them again.
fn open_rank_output(
    dir: &std::path::Path,
    rank: usize,
    resume_offset: u64,
) -> (PathBuf, std::io::BufWriter<std::fs::File>) {
    use std::io::Seek;
    std::fs::create_dir_all(dir).expect("create output dir");
    let path = dir.join(format!("hits.rank{rank:04}.tsv"));
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false) // restart keeps finished bytes; set_len trims the rest
        .open(&path)
        .expect("open rank output file");
    f.set_len(resume_offset).expect("truncate rank output to checkpoint offset");
    f.seek(std::io::SeekFrom::End(0)).expect("seek rank output");
    (path, std::io::BufWriter::new(f))
}

/// Per-rank outcome of a run.
#[derive(Debug)]
pub struct MrBlastRankReport {
    /// This rank.
    pub rank: usize,
    /// Hits reduced on this rank, in output-file order (each query's hits
    /// are contiguous and sorted by E-value).
    pub hits: Vec<Hit>,
    /// Path of the per-rank output file, when file output was requested.
    pub output_file: Option<PathBuf>,
    /// Number of map() work items executed on this rank.
    pub map_calls: u64,
    /// Number of DB partition (re)loads this rank performed — the cache-miss
    /// counter behind the paper's superlinear-speedup discussion.
    pub db_loads: u64,
    /// Busy intervals spent inside the search engine (rank-local clock).
    pub busy: BusyTracker,
    /// Rank-local virtual time at completion.
    pub finish_time: f64,
    /// Work units quarantined as poison by the fault-tolerant scheduler,
    /// encoded as `global_block * nparts + partition` and sorted; identical
    /// on every surviving rank. Non-empty means the run completed with
    /// partial results, and these `(query block, DB partition)` pairs
    /// contributed no hits.
    pub quarantined: Vec<u64>,
}

/// Run MR-MPI BLAST collectively. Must be called by every rank of `comm`
/// with identical arguments.
///
/// Work units are scheduled through the fault-tolerant master-worker
/// protocol of [`mrmpi::sched`]. A worker that dies mid-run loses its cached
/// state and every pair it emitted; the master re-dispatches all of its work
/// units to survivors, and both the map and the shuffle end in cross-rank
/// accounting, so the surviving ranks' combined output is **bit-for-bit the
/// serial output** — or every live rank returns the same typed error. After
/// the shuffle each rank sorts its keys, so its output file is byte-identical
/// whichever worker ran which unit.
///
/// With `cfg.locality_aware` the master prefers to hand a worker units of
/// the DB partition it already holds. The master is a *role*, not a rank — if the
/// acting master dies mid-iteration the scheduler elects a successor,
/// replays the replicated dispatch log, and the iteration completes (see
/// [`mrmpi::sched`]); the per-iteration restart checkpoint is written by
/// the lowest live rank ([`crate::ckpt::record_iteration`]), so
/// checkpointing also survives rank 0. Only startup (checkpoint load before
/// any unit is dispatched) assumes rank 0 is alive.
pub fn run_mrblast(
    comm: &Comm,
    db: &BlastDb,
    query_blocks: &[Vec<SeqRecord>],
    cfg: &MrBlastConfig,
    fault: &FaultConfig,
) -> Result<MrBlastRankReport, MrError> {
    let searcher = BlastSearcher::new(cfg.params);
    let nparts = db.num_partitions();
    let nblocks = query_blocks.len();
    let per_iter = if cfg.blocks_per_iteration == 0 {
        nblocks.max(1)
    } else {
        cfg.blocks_per_iteration
    };

    let mut report = MrBlastRankReport {
        rank: comm.rank(),
        hits: Vec::new(),
        output_file: None,
        map_calls: 0,
        db_loads: 0,
        busy: BusyTracker::new(),
        finish_time: 0.0,
        quarantined: Vec::new(),
    };

    let fp = RunFingerprint {
        nblocks: nblocks as u64,
        nparts: nparts as u64,
        per_iter: per_iter as u64,
        nranks: comm.size() as u64,
    };
    let restart = match &cfg.checkpoint_dir {
        Some(dir) => ckpt::plan_restart(comm, dir, &fp),
        None => RestartPoint::fresh(),
    };

    let mut out_file = match &cfg.output_dir {
        Some(dir) => {
            let (path, f) = open_rank_output(dir, comm.rank(), restart.my_offset);
            report.output_file = Some(path);
            Some(f)
        }
        None => None,
    };
    let mut out_offset: u64 = restart.my_offset;

    let db_cache: RefCell<Option<(usize, DbPartition)>> = RefCell::new(None);
    let q_cache: RefCell<Option<(usize, PreparedQueries)>> = RefCell::new(None);
    let counters: RefCell<(u64, u64)> = RefCell::new((0, 0)); // (map_calls, db_loads)
    let busy: RefCell<BusyTracker> = RefCell::new(BusyTracker::new());

    let mut iters_this_run = 0usize;
    let mut iter_start = restart.start_block;
    while iter_start < nblocks {
        let iter_end = (iter_start + per_iter).min(nblocks);
        let iter_blocks = &query_blocks[iter_start..iter_end];
        let ntasks = iter_blocks.len() * nparts;
        let _iter_span = obs::maybe_span(comm.obs(), "blast.iteration");

        let mut mr = MapReduce::with_settings(comm, cfg.mr_settings.clone());
        let nblocks_iter = iter_blocks.len();
        // Partition-major order: consecutive tasks share a partition, so
        // sequential assignment reuses the cached DB object.
        let affinity: Option<Vec<usize>> =
            cfg.locality_aware.then(|| (0..ntasks).map(|t| t / nblocks_iter).collect());
        let mut map_body = |task: usize, kv: &mut mrmpi::KvEmitter<'_>| {
            let part_idx = task / nblocks_iter;
            let block_idx = task % nblocks_iter;

            counters.borrow_mut().0 += 1;

            let mut db_slot = db_cache.borrow_mut();
            let reload = !matches!(&*db_slot, Some((idx, _)) if *idx == part_idx);
            if reload {
                let t0 = Instant::now();
                let part = db.load_partition(part_idx).expect("load DB partition");
                comm.charge(t0.elapsed().as_secs_f64());
                counters.borrow_mut().1 += 1;
                if let Some(o) = comm.obs() {
                    o.add("blast.db_loads", 1);
                }
                *db_slot = Some((part_idx, part));
                // A cold DB partition load can dominate a work unit; tell the
                // master we are alive so the deadline detector does not start
                // speculating against a healthy worker.
                mrmpi::sched::ft_beacon(comm);
            }
            let (_, part) = db_slot.as_ref().expect("cache just filled");

            let global_block = iter_start + block_idx;
            let mut q_slot = q_cache.borrow_mut();
            let rebuild = !matches!(&*q_slot, Some((idx, _)) if *idx == global_block);
            if rebuild {
                let t0 = Instant::now();
                let prepared = searcher.prepare_queries(&iter_blocks[block_idx]);
                comm.charge(t0.elapsed().as_secs_f64());
                *q_slot = Some((global_block, prepared));
            }
            let (_, prepared) = q_slot.as_ref().expect("cache just filled");

            let clock_start = comm.now();
            let t0 = Instant::now();
            let hits =
                searcher.search_partition(prepared, part, db.total_residues, db.total_sequences);
            let elapsed = t0.elapsed().as_secs_f64();
            comm.charge(elapsed);
            busy.borrow_mut().record(clock_start, clock_start + elapsed);

            for hit in hits {
                if cfg.exclude_self && is_self_hit(&hit) {
                    continue;
                }
                kv.emit(hit.query_id.as_bytes(), &hit.encode());
            }
        };
        let plan = MapPlan { affinity: affinity.as_deref(), ..(&fault.ft).into() };
        let ft_report = mr.map_tasks(ntasks, plan, &mut map_body)?;
        // Re-encode this iteration's quarantined scheduler units (partition-
        // major within the iteration) as stable global `(block, partition)`
        // ids so the final report is meaningful across iterations.
        for unit in &ft_report.quarantined {
            let part_idx = *unit as usize / nblocks_iter;
            let block_idx = *unit as usize % nblocks_iter;
            let global_block = (iter_start + block_idx) as u64;
            report.quarantined.push(global_block * nparts as u64 + part_idx as u64);
        }

        // collate() with a key sort between the shuffle and the grouping:
        // the committed pairs arrive in an order that depends on the
        // schedule; sorting the keys makes this rank's output independent
        // of it.
        mr.aggregate()?;
        mr.sort_keys(|a, b| a.cmp(b));
        mr.convert();

        let max_hits = cfg.params.max_hits_per_query;
        mr.reduce(&mut |key, values, _out| {
            let mut hits: Vec<Hit> = values.map(Hit::decode).collect();
            sort_and_truncate(&mut hits, max_hits);
            debug_assert!(hits.iter().all(|h| h.query_id.as_bytes() == key));
            if let Some(f) = out_file.as_mut() {
                for h in &hits {
                    let line = tabular_line(h);
                    out_offset += line.len() as u64 + 1;
                    writeln!(f, "{line}").expect("write hit line");
                }
            }
            report.hits.extend(hits);
        });

        iter_start = iter_end;
        iters_this_run += 1;

        if let Some(dir) = &cfg.checkpoint_dir {
            if let Some(f) = out_file.as_mut() {
                f.flush().expect("flush rank output");
                f.get_ref().sync_all().expect("sync rank output");
            }
            let faults = cfg.mr_settings.disk_faults.as_deref();
            let _ = ckpt::record_iteration(comm, dir, &fp, iter_end as u64, out_offset, faults);
        }
        if cfg.stop_after_iterations == Some(iters_this_run) {
            break;
        }
    }

    if let Some(mut f) = out_file {
        f.flush().expect("flush rank output");
    }
    comm.barrier();

    let (map_calls, db_loads) = *counters.borrow();
    report.map_calls = map_calls;
    report.db_loads = db_loads;
    report.busy = busy.into_inner();
    report.finish_time = comm.now();
    report.quarantined.sort_unstable();
    Ok(report)
}

/// A shredded fragment `src/123-523` hitting subject `src` is a self-hit.
pub(crate) fn is_self_hit(hit: &Hit) -> bool {
    match hit.query_id.split_once('/') {
        Some((src, _)) => src == hit.subject_id,
        None => hit.query_id == hit.subject_id,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::db::{format_db, FormatDbConfig};
    use bioseq::gen::{self, WorkloadConfig};
    use bioseq::shred::query_blocks;
    use mpisim::World;
    use std::sync::Arc;

    struct Fixture {
        db: BlastDb,
        blocks: Vec<Vec<SeqRecord>>,
        serial: Vec<Hit>,
        dir: PathBuf,
    }

    fn fixture(seed: u64, tag: &str) -> Fixture {
        let cfg = WorkloadConfig {
            db_seqs: 10,
            db_seq_len: 1200,
            queries: 24,
            homolog_fraction: 0.7,
            ..Default::default()
        };
        let w = gen::dna_workload(seed, &cfg);
        let dir =
            std::env::temp_dir().join(format!("mrblast-test-{tag}-{}", std::process::id()));
        let db = format_db(&w.db, &FormatDbConfig::dna(900), &dir, "db").unwrap();
        let searcher = BlastSearcher::new(SearchParams::blastn());
        let serial = searcher.search_db_serial(&w.queries, &db).unwrap();
        let blocks = query_blocks(w.queries, 6);
        Fixture { db, blocks, serial, dir }
    }

    /// Run the driver fault-free on `ranks` ranks; every rank must succeed.
    fn run_on(ranks: usize, fx: &Arc<Fixture>, cfg: MrBlastConfig) -> Vec<MrBlastRankReport> {
        let fx = fx.clone();
        World::new(ranks).run(move |comm| {
            run_mrblast(comm, &fx.db, &fx.blocks, &cfg, &FaultConfig::default())
                .expect("no faults injected")
        })
    }

    fn sorted(mut hits: Vec<Hit>) -> Vec<Hit> {
        hits.sort_by(|a, b| {
            a.query_id.cmp(&b.query_id).then_with(|| a.rank_cmp(b))
        });
        hits
    }

    fn all_hits(reports: Vec<MrBlastRankReport>) -> Vec<Hit> {
        sorted(reports.into_iter().flat_map(|r| r.hits).collect())
    }

    #[test]
    fn parallel_output_matches_serial_for_every_rank_count() {
        let fx = Arc::new(fixture(21, "match"));
        assert!(fx.db.num_partitions() >= 3, "need several partitions");
        assert!(!fx.serial.is_empty(), "workload must produce hits");
        for ranks in [1, 2, 4] {
            assert_eq!(
                all_hits(run_on(ranks, &fx, MrBlastConfig::blastn())),
                sorted(fx.serial.clone()),
                "rank count {ranks} must reproduce serial output"
            );
        }
    }

    #[test]
    fn each_query_reduced_on_exactly_one_rank() {
        let fx = Arc::new(fixture(22, "onerank"));
        let reports = run_on(3, &fx, MrBlastConfig::blastn());
        let mut owners: std::collections::HashMap<String, usize> = Default::default();
        for rep in &reports {
            for h in &rep.hits {
                if let Some(prev) = owners.insert(h.query_id.clone(), rep.rank) {
                    assert_eq!(
                        prev, rep.rank,
                        "query {} split across ranks {} and {}",
                        h.query_id, prev, rep.rank
                    );
                }
            }
        }
    }

    #[test]
    fn iteration_looping_preserves_results() {
        let fx = Arc::new(fixture(23, "iters"));
        let run_with = |blocks_per_iteration: usize| {
            let cfg = MrBlastConfig { blocks_per_iteration, ..MrBlastConfig::blastn() };
            all_hits(run_on(2, &fx, cfg))
        };
        assert_eq!(run_with(0), run_with(1), "per-block iterations must not change output");
        assert_eq!(run_with(0), run_with(2));
    }

    #[test]
    fn output_files_contain_all_hits() {
        let fx = Arc::new(fixture(25, "files"));
        let outdir = fx.dir.join("out");
        let cfg = MrBlastConfig { output_dir: Some(outdir.clone()), ..MrBlastConfig::blastn() };
        let reports = run_on(2, &fx, cfg);
        let mut lines = 0usize;
        for rep in &reports {
            let path = rep.output_file.as_ref().expect("file requested");
            let content = std::fs::read_to_string(path).unwrap();
            lines += content.lines().count();
            for line in content.lines() {
                assert_eq!(line.split('\t').count(), 12, "tabular format");
            }
        }
        let total: usize = reports.iter().map(|r| r.hits.len()).sum();
        assert_eq!(lines, total);
        assert_eq!(total, fx.serial.len());
        std::fs::remove_dir_all(&outdir).ok();
    }

    #[test]
    fn exclude_self_drops_fragment_source_hits() {
        // Shred a DB sequence into fragments and search with exclude_self.
        let mut r = gen::rng(26);
        let genome = gen::random_dna(&mut r, 3000, 0.5);
        let db_recs = vec![SeqRecord::new("src0", genome)];
        let dir = std::env::temp_dir().join(format!("mrblast-self-{}", std::process::id()));
        let db = format_db(&db_recs, &FormatDbConfig::dna(usize::MAX), &dir, "db").unwrap();
        let frags = bioseq::shred::shred_record(
            &db_recs[0],
            &bioseq::shred::ShredConfig::default(),
        );
        let fx = Arc::new(Fixture {
            db,
            blocks: query_blocks(frags, 4),
            serial: Vec::new(),
            dir: dir.clone(),
        });
        let run_with = |exclude: bool| {
            let cfg = MrBlastConfig { exclude_self: exclude, ..MrBlastConfig::blastn() };
            all_hits(run_on(2, &fx, cfg))
        };
        let with = run_with(false);
        let without = run_with(true);
        assert!(!with.is_empty(), "fragments must hit their source");
        assert!(
            without.is_empty(),
            "all hits are self-hits here, exclusion must drop them: {without:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn locality_aware_scheduler_preserves_results_and_cuts_reloads() {
        let fx = Arc::new(fixture(28, "locality"));
        let run_with = |locality: bool| {
            let cfg = MrBlastConfig { locality_aware: locality, ..MrBlastConfig::blastn() };
            let reports = run_on(4, &fx, cfg);
            let loads: u64 = reports.iter().map(|r| r.db_loads).sum();
            (all_hits(reports), loads)
        };
        let (plain_hits, plain_loads) = run_with(false);
        let (loc_hits, loc_loads) = run_with(true);
        assert_eq!(plain_hits, loc_hits, "locality must not change results");
        assert!(
            loc_loads <= plain_loads,
            "locality-aware master should not increase DB loads: {loc_loads} vs {plain_loads}"
        );
    }

    #[test]
    fn survives_worker_death_bit_for_bit() {
        use mpisim::{FaultPlan, RankOutcome};
        let fx = Arc::new(fixture(42, "ftdeath"));
        let fx2 = fx.clone();
        let plan = FaultPlan::new(7).kill(2, 0.0);
        let outcomes = World::new(4).with_faults(plan).run_faulty(move |comm| {
            run_mrblast(
                comm,
                &fx2.db,
                &fx2.blocks,
                &MrBlastConfig::blastn(),
                &FaultConfig::default(),
            )
        });
        assert!(outcomes[2].is_died(), "rank 2 was scheduled to die");
        let mut hits = Vec::new();
        for (rank, out) in outcomes.into_iter().enumerate() {
            if rank == 2 {
                continue;
            }
            match out {
                RankOutcome::Done(Ok(rep)) => hits.extend(rep.hits),
                RankOutcome::Done(Err(e)) => panic!("survivor rank {rank} failed: {e}"),
                RankOutcome::Died { .. } => panic!("unexpected death on rank {rank}"),
            }
        }
        assert_eq!(
            sorted(hits),
            sorted(fx.serial.clone()),
            "output after a worker death must equal serial bit-for-bit"
        );
    }

    #[test]
    fn counters_track_cache_behaviour() {
        let fx = Arc::new(fixture(27, "counters"));
        let nparts = fx.db.num_partitions() as u64;
        let nblocks = fx.blocks.len() as u64;
        let reports = run_on(1, &fx, MrBlastConfig::blastn());
        let rep = &reports[0];
        assert_eq!(rep.map_calls, nparts * nblocks);
        // Partition-major order on a single rank: each partition loaded once.
        assert_eq!(rep.db_loads, nparts, "one load per partition expected");
        assert!(rep.busy.busy_total() > 0.0);
        assert!(rep.finish_time >= rep.busy.busy_total() * 0.99);
    }
}
