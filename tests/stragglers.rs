//! Straggler and poison-task resilience, end to end through the BLAST and
//! SOM drivers.
//!
//! * **Straggler smoke** — one of eight workers freezes mid-map. With
//!   speculation off the run waits out the stall; with speculation on the
//!   heartbeat detector suspects the silent worker, its in-flight unit is
//!   re-executed on an idle peer, and first-result-wins dedup keeps the
//!   output bit-for-bit identical to the fault-free run at a fraction of
//!   the stalled wall clock.
//! * **SOM staged commits** — a straggling SOM worker recovers after its
//!   block was speculatively re-run on a peer that then stalls too: its
//!   result commits, the backup's staged rows are discarded, and the
//!   codebook still equals the serial batch trainer's.
//! * **Poison quarantine** — units that panic deterministically are retried
//!   a bounded number of times, then quarantined; the run completes with an
//!   explicit partial result whose content equals exactly the non-poisoned
//!   units' output, and the report names the quarantined units.

use bioseq::db::{format_db, BlastDb, FormatDbConfig};
use bioseq::gen::{self, WorkloadConfig};
use bioseq::seq::SeqRecord;
use bioseq::shred::query_blocks;
use blast::hsp::Hit;
use blast::search::BlastSearcher;
use blast::SearchParams;
use mpisim::{FaultPlan, RankOutcome, World};
use mrbio::{run_mrblast, run_mrsom, MrBlastConfig, MrSomConfig, VectorMatrix};
use mrmpi::FtConfig;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

struct BlastFixture {
    db: Arc<BlastDb>,
    blocks: Arc<Vec<Vec<SeqRecord>>>,
    serial: Vec<Hit>,
    dir: PathBuf,
}

impl Drop for BlastFixture {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn blast_fixture(seed: u64, tag: &str) -> BlastFixture {
    // Deliberately small: the straggler smoke compares wall clocks, so the
    // fault-free run must be quick next to the injected multi-second stall.
    let cfg = WorkloadConfig {
        db_seqs: 10,
        db_seq_len: 1200,
        queries: 24,
        homolog_fraction: 0.7,
        ..Default::default()
    };
    let w = gen::dna_workload(seed, &cfg);
    let dir = std::env::temp_dir().join(format!("it-strag-{tag}-{}", std::process::id()));
    let db = format_db(&w.db, &FormatDbConfig::dna(900), &dir, "db").expect("format db");
    assert!(db.num_partitions() >= 4, "fixture needs several partitions");
    let serial = BlastSearcher::new(SearchParams::blastn())
        .search_db_serial(&w.queries, &db)
        .expect("serial search");
    assert!(!serial.is_empty(), "fixture must produce hits");
    BlastFixture {
        db: Arc::new(db),
        blocks: Arc::new(query_blocks(w.queries, 6)),
        serial,
        dir,
    }
}

fn hit_key(h: &Hit) -> (String, String, u32, u32, i32) {
    (h.query_id.clone(), h.subject_id.clone(), h.q_start, h.s_start, h.raw_score)
}

fn sorted_hits(mut hits: Vec<Hit>) -> Vec<Hit> {
    hits.sort_by_key(hit_key);
    hits
}

/// A detector tuned for a short test run: a worker silent for 500 ms while
/// holding a unit is suspected and its unit re-dispatched. The deadline is
/// ~100x a work unit's nominal compute but a small fraction of the injected
/// stall, so healthy-but-contended workers rarely trip it while the real
/// straggler always does.
fn fast_detector(speculate: bool) -> FtConfig {
    FtConfig {
        rpc_timeout: Duration::from_millis(25),
        suspect_after: Duration::from_millis(500),
        spec_backoff: Duration::from_millis(100),
        speculate,
        ..FtConfig::default()
    }
}

/// Run the recovering BLAST driver under `plan`, returning the survivors'
/// combined hits, the death count, and the wall-clock seconds.
fn run_ft(
    fx: &BlastFixture,
    ranks: usize,
    plan: Option<FaultPlan>,
    cfg: MrBlastConfig,
    ft: FtConfig,
) -> (Vec<Hit>, Vec<u64>, usize, f64) {
    let db = fx.db.clone();
    let blocks = fx.blocks.clone();
    let world = match plan {
        Some(p) => World::new(ranks).with_faults(p),
        None => World::new(ranks),
    };
    let t0 = std::time::Instant::now();
    let cfg = MrBlastConfig { ft, ..cfg };
    let outcomes = world.run_faulty(move |comm| run_mrblast(comm, &db, &blocks, &cfg));
    let wall = t0.elapsed().as_secs_f64();
    let mut hits = Vec::new();
    let mut quarantined = None;
    let mut died = 0;
    for (rank, out) in outcomes.into_iter().enumerate() {
        match out {
            RankOutcome::Done(Ok(rep)) => {
                hits.extend(rep.hits);
                // The quarantine report is reconciled: identical everywhere.
                if let Some(prev) = &quarantined {
                    assert_eq!(prev, &rep.quarantined, "rank {rank} quarantine diverges");
                }
                quarantined = Some(rep.quarantined);
            }
            RankOutcome::Done(Err(e)) => panic!("surviving rank {rank} failed: {e}"),
            RankOutcome::Died { .. } => died += 1,
        }
    }
    (hits, quarantined.expect("at least one survivor"), died, wall)
}

#[test]
fn speculation_hides_a_straggler_and_output_stays_bit_for_bit() {
    let fx = blast_fixture(3001, "spec");
    let stall_s = 5.0;
    // Worker 4's virtual clock crosses 2 ms mid-way through its first work
    // unit (the BLAST map charges real engine time), so the stall fires at
    // the next operation boundary with the unit still in flight — the
    // classic straggler: alive, owing work, silent.
    let stall_plan = || FaultPlan::new(31).stall(4, 0.002, stall_s);

    let (hits_off, quar_off, died_off, wall_off) = run_ft(
        &fx,
        9,
        Some(stall_plan()),
        MrBlastConfig::blastn(),
        fast_detector(false),
    );
    // Without speculation the run is correct but waits out the entire stall.
    assert_eq!(died_off, 0, "a stalled worker is not dead");
    assert!(quar_off.is_empty());
    assert_eq!(sorted_hits(hits_off), sorted_hits(fx.serial.clone()));
    assert!(
        wall_off >= stall_s,
        "non-speculative run must track the stall: {wall_off:.2}s < {stall_s}s"
    );

    let (hits_on, quar_on, died_on, wall_on) = run_ft(
        &fx,
        9,
        Some(stall_plan()),
        MrBlastConfig::blastn(),
        fast_detector(true),
    );
    // With speculation the straggler's unit is re-run on an idle worker and
    // the backup's commit fences the still-silent straggler (at least one
    // death; on a heavily contended host the detector may also fence a
    // slow-but-healthy loser, which is safe — dedup keeps output exact).
    assert!(died_on >= 1, "the fenced straggler must die (died={died_on})");
    assert!(died_on < 8, "at least one worker must survive (died={died_on})");
    assert!(quar_on.is_empty());
    assert_eq!(
        sorted_hits(hits_on),
        sorted_hits(fx.serial.clone()),
        "speculative output must equal the fault-free output bit-for-bit"
    );
    assert!(
        wall_on < 0.6 * wall_off,
        "speculation must hide most of the stall: {wall_on:.2}s vs {wall_off:.2}s stalled"
    );
}

#[test]
fn poison_units_are_quarantined_and_the_run_reports_them() {
    let fx = blast_fixture(3002, "poison");
    let nparts = fx.db.num_partitions();
    let nblocks = fx.blocks.len();
    let ntasks = nparts * nblocks;
    // Scheduler units 3 and 9 panic on every attempt, on every rank.
    let poisoned = [3u64, 9];
    assert!(ntasks > 9, "fixture too small for the chosen poison units");

    let cfg = MrBlastConfig::blastn();
    let mut plan = FaultPlan::new(32);
    for &u in &poisoned {
        plan = plan.poison(u);
    }
    let (hits, quarantined, died, _) =
        run_ft(&fx, 4, Some(plan), cfg, FtConfig::default());

    // The run completes: poison costs the poisoned units, not the run and
    // not the workers that hit them.
    assert_eq!(died, 0, "poison must be isolated, not kill ranks");

    // The report names exactly the poisoned (query block, DB partition)
    // pairs, in the stable global encoding block * nparts + partition.
    let expect_quar: Vec<u64> = {
        let mut v: Vec<u64> = poisoned
            .iter()
            .map(|&u| {
                let part = u / nblocks as u64;
                let block = u % nblocks as u64;
                block * nparts as u64 + part
            })
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(quarantined, expect_quar, "run summary must list the poison set");

    // The partial result is exactly the non-poisoned units' output: rebuild
    // the expectation unit by unit with the same serial engine.
    let searcher = BlastSearcher::new(SearchParams::blastn());
    let mut expect_hits = Vec::new();
    for unit in 0..ntasks {
        if poisoned.contains(&(unit as u64)) {
            continue;
        }
        let part = fx.db.load_partition(unit / nblocks).expect("load partition");
        let prepared = searcher.prepare_queries(&fx.blocks[unit % nblocks]);
        expect_hits.extend(searcher.search_partition(
            &prepared,
            &part,
            fx.db.total_residues,
            fx.db.total_sequences,
        ));
    }
    assert_eq!(
        sorted_hits(hits),
        sorted_hits(expect_hits),
        "partial result must be exactly the non-poisoned units' hits"
    );
    assert!(
        !fx.serial.is_empty(),
        "fixture sanity: fault-free output is non-empty"
    );
}

#[test]
fn som_straggler_that_recovers_wins_and_the_backup_is_discarded() {
    // One block per epoch, three ranks: the master and workers 1 and 2.
    // Both workers carry the same stall rule, which fires at a worker's
    // first compute charge — the read of its first block. In epoch 0 one
    // worker (A) takes the block and stalls; the other (B) is parked with
    // nothing charged. Once A has been silent for `suspect_after`, the
    // master re-runs the block on B, whose read now fires B's stall. A
    // wakes `stall - suspect_after` later with only its BMU search left and
    // commits, while B is still frozen: the straggler wins whatever
    // commit-time work either side has. B was heard from when it was
    // handed the backup and has been silent for less than `suspect_after`
    // when A commits, so it is not fenced; its staged result is discarded
    // when it wakes and reports. Both margins (the backup starts 0.4 s
    // before A wakes, and B is 0.8 s short of suspicion when A commits)
    // are far above a block's compute even in an unoptimised build.
    let (n, dims) = (40, 64);
    let vectors = gen::random_vectors(3003, n, dims);
    let som = som::neighborhood::SomConfig {
        rows: 30,
        cols: 30,
        dims,
        epochs: 2,
        sigma0: None,
        sigma_end: 1.0,
        seed: 17,
        ..Default::default()
    };
    let serial = som::batch::batch_train(&vectors, &som);
    let path = std::env::temp_dir().join(format!("it-strag-som-{}.bin", std::process::id()));
    VectorMatrix::create(&path, &vectors).expect("write matrix");

    let suspect_after = Duration::from_millis(1200);
    let stall = 1.6;
    let ft = FtConfig {
        rpc_timeout: Duration::from_millis(2),
        // A parked worker is answered every `rpc_timeout`; keep the whole
        // retry budget well above the stalls.
        max_rpc_retries: 5_000,
        suspect_after,
        spec_backoff: Duration::from_secs(60),
        speculate: true,
        ..FtConfig::default()
    };
    let plan = FaultPlan::new(41).stall(1, 1e-12, stall).stall(2, 1e-12, stall);
    let collector = obs::Collector::new();
    let p = path.clone();
    let outcomes = World::new(3)
        .with_faults(plan)
        .with_obs(collector.clone())
        .run_faulty(move |comm| {
            let matrix = VectorMatrix::open(&p).expect("open matrix");
            let cfg = MrSomConfig { block_size: n, ft: ft.clone(), ..MrSomConfig::new(som) };
            run_mrsom(comm, &matrix, &cfg)
        });
    std::fs::remove_file(&path).ok();

    for (rank, out) in outcomes.iter().enumerate() {
        match out {
            RankOutcome::Done(Ok((cb, _))) => {
                let max_dev = cb
                    .weights
                    .iter()
                    .zip(&serial.weights)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max);
                assert!(max_dev < 1e-9, "rank {rank}: codebook deviates by {max_dev}");
            }
            other => panic!("rank {rank} must finish Ok, got {other:?}"),
        }
    }
    let trace = collector.trace();
    assert!(
        trace.counter_total("sched.speculative_dispatch") >= 1,
        "the stalled block must be re-run speculatively"
    );
    assert!(
        trace.counter_total("sched.discard") >= 1,
        "the losing execution's staged rows must be discarded"
    );
    assert_eq!(trace.counter_total("sched.fence"), 0, "nobody is fenced");
}
