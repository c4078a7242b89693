//! Cross-crate integration tests: the paper's central correctness claims as
//! executable invariants.
//!
//! * MR-MPI BLAST produces the same hit set as the serial engine at every
//!   rank count, iteration granularity, and paging budget — the
//!   Rust analogue of "using unmodified NCBI Toolkit ensures that the
//!   results are compatible";
//! * MR-MPI batch SOM trains the same codebook as the serial batch
//!   algorithm — the order-independence of Eq. 5.

use bioseq::db::{format_db, BlastDb, FormatDbConfig};
use bioseq::gen::{self, WorkloadConfig};
use bioseq::seq::SeqRecord;
use bioseq::shred::query_blocks;
use blast::hsp::Hit;
use blast::search::BlastSearcher;
use blast::SearchParams;
use mpisim::{FaultPlan, RankOutcome, World};
use mrbio::{run_mrblast, run_mrsom, MrBlastConfig, MrSomConfig, VectorMatrix};
use mrmpi::Settings;
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
        db_seqs: 14,
        db_seq_len: 1400,
        queries: 36,
        homolog_fraction: 0.7,
        ..Default::default()
    };
    let w = gen::dna_workload(seed, &cfg);
    let dir = std::env::temp_dir().join(format!("it-eq-{tag}-{}", std::process::id()));
    let db = format_db(&w.db, &FormatDbConfig::dna(1100), &dir, "db").expect("format db");
    assert!(db.num_partitions() >= 4, "fixture needs several partitions");
    let serial = BlastSearcher::new(SearchParams::blastn())
        .search_db_serial(&w.queries, &db)
        .expect("serial search");
    assert!(!serial.is_empty(), "fixture must produce hits");
    BlastFixture {
        db: Arc::new(db),
        blocks: Arc::new(query_blocks(w.queries, 7)),
        serial,
        dir,
    }
}

fn hit_key(h: &Hit) -> (String, String, u32, u32, i32) {
    (h.query_id.clone(), h.subject_id.clone(), h.q_start, h.s_start, h.raw_score)
}

fn sorted_keys(hits: impl IntoIterator<Item = Hit>) -> Vec<(String, String, u32, u32, i32)> {
    let mut v: Vec<_> = hits.into_iter().map(|h| hit_key(&h)).collect();
    v.sort();
    v
}

fn run_parallel(fx: &BlastFixture, ranks: usize, cfg: MrBlastConfig) -> Vec<Hit> {
    let db = fx.db.clone();
    let blocks = fx.blocks.clone();
    let reports = World::new(ranks).run(move |comm| {
        run_mrblast(comm, &db, &blocks, &cfg).expect("fault-free run")
    });
    reports.into_iter().flat_map(|r| r.hits).collect()
}

#[test]
fn blast_equivalence_across_rank_counts() {
    let fx = blast_fixture(1001, "ranks");
    let expect = sorted_keys(fx.serial.clone());
    for ranks in [1, 2, 3, 5, 8] {
        let got = sorted_keys(run_parallel(&fx, ranks, MrBlastConfig::blastn()));
        assert_eq!(got, expect, "rank count {ranks}");
    }
}

#[test]
fn blast_per_rank_output_bytes_do_not_depend_on_the_schedule() {
    // Which worker runs which unit varies run to run with measured unit
    // durations, and the locality-aware master changes it outright. Each
    // rank's output file must not: the driver sorts its keys after the
    // shuffle.
    let fx = blast_fixture(1009, "schedule");
    let run = |tag: &str, locality_aware: bool| -> Vec<Vec<u8>> {
        let out = fx.dir.join(tag);
        let cfg = MrBlastConfig {
            output_dir: Some(out.clone()),
            locality_aware,
            ..MrBlastConfig::blastn()
        };
        run_parallel(&fx, 4, cfg);
        (0..4)
            .map(|r| std::fs::read(out.join(format!("hits.rank{r:04}.tsv"))).expect("rank file"))
            .collect()
    };
    let first = run("first", false);
    assert!(first.iter().any(|b| !b.is_empty()), "workload must produce hits");
    assert_eq!(run("second", false), first, "two runs must write identical rank files");
    assert_eq!(run("locality", true), first, "the locality-aware schedule too");
}

#[test]
fn blast_equivalence_under_out_of_core_paging() {
    let fx = blast_fixture(1003, "paging");
    let expect = sorted_keys(fx.serial.clone());
    let cfg = MrBlastConfig {
        mr_settings: Settings {
            page_size: 1024,
            mem_budget: 4096,
            tmpdir: std::env::temp_dir(),
            ..Settings::default()
        },
        ..MrBlastConfig::blastn()
    };
    let got = sorted_keys(run_parallel(&fx, 3, cfg));
    assert_eq!(got, expect, "tiny paged settings must not change results");
}

#[test]
fn blast_equivalence_across_iteration_granularity() {
    let fx = blast_fixture(1004, "iters");
    let expect = sorted_keys(fx.serial.clone());
    for blocks_per_iteration in [0, 1, 2, 3] {
        let cfg = MrBlastConfig { blocks_per_iteration, ..MrBlastConfig::blastn() };
        let got = sorted_keys(run_parallel(&fx, 4, cfg));
        assert_eq!(got, expect, "blocks_per_iteration={blocks_per_iteration}");
    }
}

#[test]
fn blast_respects_evalue_and_topk_through_the_pipeline() {
    let fx = blast_fixture(1005, "cutoffs");
    let params = SearchParams::blastn().with_evalue(1e-10).with_max_hits(2);
    let serial = BlastSearcher::new(params)
        .search_db_serial(
            &fx.blocks.iter().flatten().cloned().collect::<Vec<_>>(),
            &fx.db,
        )
        .expect("serial");
    let cfg = MrBlastConfig { params, ..MrBlastConfig::blastn() };
    let got = run_parallel(&fx, 4, cfg);
    assert_eq!(sorted_keys(got.clone()), sorted_keys(serial));
    // Top-K honored per query.
    let mut per_query = std::collections::HashMap::new();
    for h in &got {
        *per_query.entry(h.query_id.clone()).or_insert(0usize) += 1;
        assert!(h.evalue <= 1e-10, "cutoff violated: {}", h.evalue);
    }
    assert!(per_query.values().all(|&n| n <= 2), "top-K violated");
}

#[test]
fn blastx_parallel_equals_serial() {
    // Translated search through the full parallel pipeline: DNA reads with
    // planted coding regions against a partitioned protein database.
    use bioseq::gen::rng;
    use rand::Rng;
    let mut r = rng(1006);
    let proteins: Vec<SeqRecord> = (0..6)
        .map(|i| SeqRecord::new(format!("p{i}"), gen::random_protein(&mut r, 250)))
        .collect();
    let dir = std::env::temp_dir().join(format!("it-blastx-{}", std::process::id()));
    let db = format_db(&proteins, &FormatDbConfig::protein(300), &dir, "pdb").unwrap();
    assert!(db.num_partitions() >= 3);

    // Queries: DNA "reads" carrying coding regions for random protein slices
    // via a fixed codon table, plus decoys.
    let codon = |aa: u8| -> &'static [u8] {
        match aa {
            b'A' => b"GCT", b'R' => b"CGT", b'N' => b"AAT", b'D' => b"GAT",
            b'C' => b"TGT", b'Q' => b"CAA", b'E' => b"GAA", b'G' => b"GGT",
            b'H' => b"CAT", b'I' => b"ATT", b'L' => b"CTT", b'K' => b"AAA",
            b'M' => b"ATG", b'F' => b"TTT", b'P' => b"CCT", b'S' => b"TCT",
            b'T' => b"ACT", b'W' => b"TGG", b'Y' => b"TAT", b'V' => b"GTT",
            _ => b"GCT",
        }
    };
    let mut queries = Vec::new();
    for q in 0..12 {
        if q % 3 == 2 {
            queries.push(SeqRecord::new(format!("xq{q}"), gen::random_dna(&mut r, 300, 0.5)));
            continue;
        }
        let src = q % proteins.len();
        let start = r.random_range(0..150);
        let coding: Vec<u8> = proteins[src].seq[start..start + 60]
            .iter()
            .flat_map(|&aa| codon(aa).iter().copied())
            .collect();
        let mut dna = gen::random_dna(&mut r, 20 + q, 0.5);
        dna.extend_from_slice(&coding);
        dna.extend(gen::random_dna(&mut r, 25, 0.5));
        queries.push(SeqRecord::new(format!("xq{q}"), dna));
    }

    let params = SearchParams::blastx().with_evalue(1e-8);
    let serial = BlastSearcher::new(params).search_db_serial(&queries, &db).unwrap();
    assert!(!serial.is_empty(), "planted coding regions must hit");

    let db = Arc::new(db);
    let blocks = Arc::new(query_blocks(queries, 4));
    for ranks in [1, 3] {
        let db = db.clone();
        let blocks = blocks.clone();
        let reports = World::new(ranks).run(move |comm| {
            let cfg = MrBlastConfig { params, ..MrBlastConfig::blastp() };
            run_mrblast(comm, &db, &blocks, &cfg).expect("fault-free run")
        });
        let got = sorted_keys(reports.into_iter().flat_map(|r| r.hits).collect::<Vec<_>>());
        assert_eq!(got, sorted_keys(serial.clone()), "blastx ranks={ranks}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Sort full hits (not just keys) for bit-for-bit output comparison.
fn sorted_hits(mut hits: Vec<Hit>) -> Vec<Hit> {
    hits.sort_by_key(hit_key);
    hits
}

/// Run the recovering driver under a fault plan; panic if any survivor
/// errors, return the survivors' combined hits and the death count.
fn run_parallel_ft(fx: &BlastFixture, ranks: usize, plan: FaultPlan) -> (Vec<Hit>, usize) {
    let db = fx.db.clone();
    let blocks = fx.blocks.clone();
    let outcomes = World::new(ranks).with_faults(plan).run_faulty(move |comm| {
        run_mrblast(comm, &db, &blocks, &MrBlastConfig::blastn())
    });
    let mut hits = Vec::new();
    let mut died = 0;
    for (rank, out) in outcomes.into_iter().enumerate() {
        match out {
            RankOutcome::Done(Ok(rep)) => hits.extend(rep.hits),
            RankOutcome::Done(Err(e)) => panic!("surviving rank {rank} failed: {e}"),
            RankOutcome::Died { .. } => died += 1,
        }
    }
    (hits, died)
}

#[test]
fn blast_equivalence_with_one_injected_worker_death() {
    let fx = blast_fixture(1007, "ft1");
    // The kill fires on worker 2's first operation: it never completes a
    // unit, and the survivors take over its share.
    let (hits, died) = run_parallel_ft(&fx, 4, FaultPlan::new(90).kill(2, 0.0));
    assert_eq!(died, 1, "the planned death must fire");
    assert_eq!(
        sorted_hits(hits),
        sorted_hits(fx.serial.clone()),
        "1 worker death: output must equal serial bit-for-bit"
    );
}

#[test]
fn blast_equivalence_with_two_of_eight_workers_killed_mid_map() {
    let fx = blast_fixture(1008, "ft2");
    // 9 ranks: dedicated master + 8 workers. The BLAST map charges real
    // engine time to the virtual clock, so these strike times fire after
    // the doomed workers have completed (and therefore own) work units —
    // mid-map deaths whose finished output dies with them, the worst case
    // for the recovery protocol.
    let plan = FaultPlan::new(91).kill(3, 1e-4).kill(6, 2e-4);
    let (hits, died) = run_parallel_ft(&fx, 9, plan);
    assert_eq!(died, 2, "both planned deaths must fire");
    assert_eq!(
        sorted_hits(hits),
        sorted_hits(fx.serial.clone()),
        "2 of 8 workers killed mid-map: output must equal serial bit-for-bit"
    );
}

#[test]
fn som_equivalence_with_injected_worker_deaths() {
    let vectors = gen::random_vectors(2022, 160, 8);
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
    let path = std::env::temp_dir().join(format!("it-som-ft-{}.bin", std::process::id()));
    VectorMatrix::create(&path, &vectors).expect("write matrix");

    for (deaths, plan) in [
        (1usize, FaultPlan::new(92).kill(2, 0.0)),
        (2, FaultPlan::new(93).kill(1, 0.0).kill(3, 1e-5)),
    ] {
        let p = path.clone();
        let outcomes = World::new(5).with_faults(plan).run_faulty(move |comm| {
            let matrix = VectorMatrix::open(&p).expect("open");
            let cfg = MrSomConfig { block_size: 16, ..MrSomConfig::new(som) };
            run_mrsom(comm, &matrix, &cfg)
        });
        let mut died = 0;
        for (rank, out) in outcomes.iter().enumerate() {
            match out {
                RankOutcome::Died { .. } => died += 1,
                RankOutcome::Done(Ok((cb, _))) => {
                    let max_dev = cb
                        .weights
                        .iter()
                        .zip(&serial.weights)
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0, f64::max);
                    assert!(
                        max_dev < 1e-9,
                        "{deaths} deaths, rank {rank}: codebook deviates by {max_dev}"
                    );
                }
                RankOutcome::Done(Err(e)) => panic!("surviving rank {rank} failed: {e}"),
            }
        }
        assert_eq!(died, deaths, "planned deaths must fire");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn som_parallel_equals_serial_batch() {
    let vectors = gen::random_vectors(2020, 240, 10);
    let som = SomConfig {
        rows: 7,
        cols: 6,
        dims: 10,
        epochs: 9,
        sigma0: None,
        sigma_end: 1.0,
        seed: 77,
        ..SomConfig::default()
    };
    let serial = batch_train(&vectors, &som);
    let path = std::env::temp_dir().join(format!("it-som-{}.bin", std::process::id()));
    VectorMatrix::create(&path, &vectors).expect("write matrix");
    for ranks in [1, 2, 5] {
        let p = path.clone();
        let results = World::new(ranks).run(move |comm| {
            let matrix = VectorMatrix::open(&p).expect("open");
            run_mrsom(comm, &matrix, &MrSomConfig { block_size: 20, ..MrSomConfig::new(som) })
            .expect("fault-free run")
        });
        for (cb, _) in &results {
            let max_dev = cb
                .weights
                .iter()
                .zip(&serial.weights)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(max_dev < 1e-9, "ranks={ranks}: codebook deviates by {max_dev}");
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn som_block_sizes_agree() {
    let vectors = gen::random_vectors(2021, 120, 6);
    let som = SomConfig {
        rows: 5,
        cols: 5,
        dims: 6,
        epochs: 6,
        sigma0: None,
        sigma_end: 1.0,
        seed: 5,
        ..SomConfig::default()
    };
    let path = std::env::temp_dir().join(format!("it-som2-{}.bin", std::process::id()));
    VectorMatrix::create(&path, &vectors).expect("write matrix");
    let mut reference: Option<Vec<f64>> = None;
    for block in [40, 80] {
        let p = path.clone();
        let results = World::new(3).run(move |comm| {
            let matrix = VectorMatrix::open(&p).expect("open");
            let cfg = MrSomConfig { block_size: block, ..MrSomConfig::new(som) };
            run_mrsom(comm, &matrix, &cfg).expect("fault-free run")
        });
        let weights = results[0].0.weights.clone();
        match &reference {
            None => reference = Some(weights),
            Some(r) => {
                let max_dev = weights
                    .iter()
                    .zip(r)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max);
                assert!(
                    max_dev < 1e-9,
                    "block {block}: deviation {max_dev}"
                );
            }
        }
    }
    std::fs::remove_file(&path).ok();
}
