//! Chaos-soak harness: seeded campaigns composing every injection the
//! simulator knows — master kill, worker kill, stall, slow, poison,
//! transient disk errors — over BLAST, SOM, and raw engine
//! runs, asserting output equivalence and exact commit/quarantine
//! accounting after every campaign.
//!
//! Reproducing a failure: each campaign prints one line
//! (`chaos campaign seed=N ...`) before it runs; re-run a single case with
//! `CHAOS_SOAK_SEED=N cargo test --test chaos_soak <name>` or replay the
//! same composition under the bench binary with
//! `cargo run --release --bin ablation_failover -- --seed N`.

use bioseq::db::{format_db, BlastDb, FormatDbConfig};
use bioseq::gen::{self, WorkloadConfig};
use bioseq::seq::SeqRecord;
use bioseq::shred::query_blocks;
use blast::hsp::Hit;
use blast::search::BlastSearcher;
use blast::SearchParams;
use mpisim::{FaultPlan, RankOutcome, World};
use mrbio::{run_mrblast, run_mrsom, BlastCheckpoint, MrBlastConfig, MrSomConfig, VectorMatrix};
use mrmpi::{DiskFaultPlan, FtConfig, MapReduce, Settings};
use som::batch::batch_train;
use som::neighborhood::SomConfig;
use std::path::PathBuf;
use std::sync::Arc;

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
    let cfg = WorkloadConfig {
        db_seqs: 10,
        db_seq_len: 1200,
        queries: 24,
        homolog_fraction: 0.7,
        ..Default::default()
    };
    let w = gen::dna_workload(seed, &cfg);
    let dir = std::env::temp_dir().join(format!("it-chaos-{tag}-{}", std::process::id()));
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

/// Run the recovering BLAST driver under `plan`; panic if any survivor
/// errors. Returns the survivors' combined hits, the reconciled quarantine
/// list (asserted identical on every survivor — the "exact accounting" half
/// of the soak contract), and the death count.
fn run_blast_chaos(
    fx: &BlastFixture,
    ranks: usize,
    plan: FaultPlan,
    cfg: MrBlastConfig,
) -> (Vec<Hit>, Vec<u64>, usize) {
    let db = fx.db.clone();
    let blocks = fx.blocks.clone();
    let outcomes = World::new(ranks).with_faults(plan).run_faulty(move |comm| {
        run_mrblast(comm, &db, &blocks, &cfg)
    });
    let mut hits = Vec::new();
    let mut quarantined = None;
    let mut died = 0;
    for (rank, out) in outcomes.into_iter().enumerate() {
        match out {
            RankOutcome::Done(Ok(rep)) => {
                hits.extend(rep.hits);
                if let Some(prev) = &quarantined {
                    assert_eq!(prev, &rep.quarantined, "rank {rank} quarantine diverges");
                }
                quarantined = Some(rep.quarantined);
            }
            RankOutcome::Done(Err(e)) => panic!("surviving rank {rank} failed: {e}"),
            RankOutcome::Died { .. } => died += 1,
        }
    }
    (hits, quarantined.expect("at least one survivor"), died)
}

/// The expected output of a run whose scheduler quarantined `poisoned`
/// (scheduler-unit indices): exactly the non-poisoned units' hits, rebuilt
/// unit by unit with the serial engine.
fn expected_minus_poisoned(fx: &BlastFixture, poisoned: &[u64]) -> Vec<Hit> {
    let searcher = BlastSearcher::new(SearchParams::blastn());
    let nblocks = fx.blocks.len();
    let nparts = fx.db.num_partitions();
    let mut hits = Vec::new();
    for unit in 0..(nblocks * nparts) as u64 {
        if poisoned.contains(&unit) {
            continue;
        }
        let part = fx.db.load_partition(unit as usize / nblocks).expect("load partition");
        let prepared = searcher.prepare_queries(&fx.blocks[unit as usize % nblocks]);
        hits.extend(searcher.search_partition(
            &prepared,
            &part,
            fx.db.total_residues,
            fx.db.total_sequences,
        ));
    }
    hits
}

/// Scheduler-unit indices re-encoded the way the run report lists them:
/// stable global `(query block, DB partition)` ids.
fn global_quarantine_ids(fx: &BlastFixture, poisoned: &[u64]) -> Vec<u64> {
    let nblocks = fx.blocks.len() as u64;
    let nparts = fx.db.num_partitions() as u64;
    let mut v: Vec<u64> =
        poisoned.iter().map(|&u| (u % nblocks) * nparts + u / nblocks).collect();
    v.sort_unstable();
    v
}

// ---------------------------------------------------------------- failover

#[test]
fn failover_smoke_master_kill_mid_map_bit_for_bit() {
    let fx = blast_fixture(4001, "fo-smoke");
    // Rank 0 — the acting master — dies once its virtual clock crosses
    // 0.1 ms: the BLAST map charges real engine time, so the strike fires
    // mid-map with units dispatched, committed, and in flight. Survivors
    // elect rank 1, which gathers the survivors' claims and finishes the
    // run.
    let (hits, quarantined, died) = run_blast_chaos(
        &fx,
        5,
        FaultPlan::new(41).kill(0, 1e-4),
        MrBlastConfig::blastn(),
    );
    assert_eq!(died, 1, "the master death must fire");
    assert!(quarantined.is_empty());
    assert_eq!(
        sorted_hits(hits),
        sorted_hits(fx.serial.clone()),
        "master killed mid-map: survivors' output must equal serial bit-for-bit"
    );
}

#[test]
fn chaos_campaign_composes_every_injection_in_one_run() {
    let fx = blast_fixture(4002, "campaign");
    let nblocks = fx.blocks.len();
    let nparts = fx.db.num_partitions();
    assert!(nblocks * nparts > 6, "fixture too small for the chosen poison unit");
    let poisoned = [5u64];

    // One run, every injection the harness knows:
    //  * rank 0 (the master) killed mid-map        -> election + claim gather
    //  * worker 4 killed a little later            -> its units re-dispatched
    //  * worker 2 stalled half a second            -> ridden out, not fenced
    //  * worker 3 slowed 3x                        -> just late, never wrong
    //  * scheduler unit 5 poisoned                 -> quarantined everywhere
    //  * the checkpoint's first two write attempts
    //    fail with a transient EIO                 -> the atomic write
    //                                                 retries and lands
    let mut plan = FaultPlan::new(42)
        .kill(0, 1e-4)
        .kill(4, 3e-4)
        .stall(2, 2e-4, 0.5)
        .slow(3, 3.0);
    for &u in &poisoned {
        plan = plan.poison(u);
    }
    let disk = DiskFaultPlan::new(43).eio_at(0).eio_at(1).shared();
    let ckpt_dir = fx.dir.join("ckpt");
    let cfg = MrBlastConfig {
        mr_settings: Settings { disk_faults: Some(disk.clone()), ..Settings::default() },
        checkpoint_dir: Some(ckpt_dir.clone()),
        ..MrBlastConfig::blastn()
    };

    let (hits, quarantined, died) = run_blast_chaos(&fx, 6, plan, cfg);

    // Exact accounting: both planned deaths fired and nothing else died;
    // the reconciled quarantine names exactly the poisoned unit (the
    // divergence check across survivors ran inside run_blast_chaos).
    assert_eq!(died, 2, "exactly the master and worker 4 die");
    assert_eq!(quarantined, global_quarantine_ids(&fx, &poisoned));
    // The checkpoint, written by the lowest live rank after the master
    // failover, lands on the third attempt past the two injected EIOs.
    assert_eq!(disk.writes_attempted(), 3, "two EIOs, then the atomic write lands");
    let ck = BlastCheckpoint::load(&ckpt_dir).expect("checkpoint survives the campaign");
    assert_eq!((ck.completed_blocks, ck.fingerprint.nblocks), (4, 4), "every block completed");

    // Output equivalence: exactly the non-poisoned units' hits, bit for
    // bit, despite six concurrent fault modes.
    assert_eq!(
        sorted_hits(hits),
        sorted_hits(expected_minus_poisoned(&fx, &poisoned)),
        "campaign output must equal the fault-free output minus the poison set"
    );
}

#[test]
fn chaos_soak_seeded_campaigns_stay_bit_for_bit() {
    // A short soak: several seeded campaigns, each composing a master kill
    // with a seed-derived worker kill, stall, and poison unit. Override the
    // base seed with CHAOS_SOAK_SEED to replay a reported failure.
    let base = std::env::var("CHAOS_SOAK_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4100u64);
    let fx = blast_fixture(4003, "soak");
    let ntasks = (fx.blocks.len() * fx.db.num_partitions()) as u64;
    for campaign in 0..3u64 {
        let seed = base + campaign;
        let worker = 2 + (seed % 3) as usize; // a worker in 2..=4
        let kill_master_at = 1e-4 * (1.0 + (seed % 5) as f64);
        let kill_worker_at = 2e-4 * (1.0 + (seed % 3) as f64);
        let poisoned = [seed % ntasks];
        println!(
            "chaos campaign seed={seed} kill(0,{kill_master_at}) \
             kill({worker},{kill_worker_at}) stall(5) poison({})",
            poisoned[0]
        );
        let plan = FaultPlan::new(seed)
            .kill(0, kill_master_at)
            .kill(worker, kill_worker_at)
            .stall(5, 1e-4, 0.2)
            .poison(poisoned[0]);
        let (hits, quarantined, died) = run_blast_chaos(
            &fx,
            7,
            plan,
            MrBlastConfig::blastn(),
        );
        assert_eq!(died, 2, "seed {seed}: both planned deaths must fire");
        assert_eq!(
            quarantined,
            global_quarantine_ids(&fx, &poisoned),
            "seed {seed}: quarantine accounting"
        );
        assert_eq!(
            sorted_hits(hits),
            sorted_hits(expected_minus_poisoned(&fx, &poisoned)),
            "seed {seed}: output equivalence"
        );
    }
}

#[test]
fn som_master_kill_mid_training_matches_serial() {
    let vectors = gen::random_vectors(4040, 160, 8);
    let som = SomConfig {
        rows: 6,
        cols: 5,
        dims: 8,
        epochs: 7,
        sigma0: None,
        sigma_end: 1.0,
        seed: 13,
        ..SomConfig::default()
    };
    let serial = batch_train(&vectors, &som);
    let path = std::env::temp_dir().join(format!("it-chaos-som-{}.bin", std::process::id()));
    VectorMatrix::create(&path, &vectors).expect("write matrix");

    // The master dies early in training; the epoch pipeline is symmetric
    // (every rank applies the allreduced update) and block contributions are
    // committed exactly once through the scheduler's verdicts, so the
    // failover loses no epoch and no block is double-counted. The codebook
    // matches serial batch training to the repo's SOM equivalence tolerance
    // (fold order varies with the block->rank assignment, so the last few
    // bits may differ — same contract as the worker-death equivalence
    // tests).
    let p = path.clone();
    let outcomes = World::new(5).with_faults(FaultPlan::new(44).kill(0, 1e-4)).run_faulty(
        move |comm| {
            let matrix = VectorMatrix::open(&p).expect("open");
            let cfg = MrSomConfig { block_size: 16, ..MrSomConfig::new(som) };
            run_mrsom(comm, &matrix, &cfg)
        },
    );
    let mut died = 0;
    let mut survivors = 0;
    for (rank, out) in outcomes.iter().enumerate() {
        match out {
            RankOutcome::Died { .. } => died += 1,
            RankOutcome::Done(Ok((cb, _))) => {
                survivors += 1;
                let max_dev = cb
                    .weights
                    .iter()
                    .zip(&serial.weights)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max);
                assert!(
                    max_dev < 1e-9,
                    "rank {rank}: codebook deviates from serial batch SOM by {max_dev}"
                );
            }
            RankOutcome::Done(Err(e)) => panic!("surviving rank {rank} failed: {e}"),
        }
    }
    assert_eq!(died, 1, "the master death must fire");
    assert!(survivors >= 3);
    std::fs::remove_file(&path).ok();
}

#[test]
fn master_death_mid_collate_next_round_elects_and_stays_exact() {
    // Engine-level, fully deterministic clocks: two map->collate->reduce
    // rounds with every unit charging 1 s of virtual time. Rank 0 serves
    // round 1 as master (its clock ends at ~3 s, synced from worker
    // traffic), survives the map, and dies *inside* round 1's collate: the
    // workers charge past the strike time before the shuffle, so rank 0's
    // clock crosses 4.0 at the shuffle's first collective exchange. The
    // shuffle's liveness agreement routes keys to survivors only, round 1
    // reduces completely, and round 2's map elects rank 1 master from the
    // start. Both rounds' reduce output must match the fault-free run
    // key-for-key, value-for-value.
    const UNITS: u64 = 9;
    let run = |plan: Option<FaultPlan>| -> Vec<(Vec<u8>, Vec<Vec<u8>>)> {
        let world = match plan {
            Some(p) => World::new(4).with_faults(p),
            None => World::new(4),
        };
        let outcomes = world.run_faulty(|comm| {
            let cfg = FtConfig::default();
            let mut collected: Vec<(Vec<u8>, Vec<Vec<u8>>)> = Vec::new();
            for round in 0..2u64 {
                let mut mr = MapReduce::new(comm);
                mr.map_tasks(UNITS as usize, &cfg, &mut |task, kv| {
                    comm.charge(1.0);
                    let unit = round * UNITS + task as u64;
                    kv.emit(&unit.to_le_bytes(), &[unit as u8, (unit * 3) as u8]);
                })?;
                if round == 0 && comm.rank() != 0 {
                    // Push the workers past the master's strike time while
                    // rank 0 stays below it: rank 0 survives into the
                    // shuffle, picks up the workers' later clocks from its
                    // first collective exchange, and dies on the next one —
                    // inside the collate.
                    comm.charge(2.0);
                }
                mr.aggregate()?;
                mr.convert();
                mr.reduce(&mut |key, values, _out| {
                    collected.push((key.to_vec(), values.map(<[u8]>::to_vec).collect()));
                });
            }
            Ok::<_, mrmpi::MrError>(collected)
        });
        let mut all = Vec::new();
        for (rank, out) in outcomes.into_iter().enumerate() {
            match out {
                RankOutcome::Done(Ok(pairs)) => all.extend(pairs),
                RankOutcome::Done(Err(e)) => panic!("surviving rank {rank} failed: {e}"),
                RankOutcome::Died { .. } => {}
            }
        }
        all.sort();
        all
    };

    let clean = run(None);
    assert_eq!(clean.len(), 2 * UNITS as usize, "each unit reduces exactly once");
    let faulty = run(Some(FaultPlan::new(45).kill(0, 4.0)));
    assert_eq!(
        faulty, clean,
        "master death mid-collate: both rounds must stay key- and value-exact"
    );
}
