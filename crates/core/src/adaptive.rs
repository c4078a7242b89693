//! Dynamic query-block sizing — the paper's second future-work item,
//! implemented.
//!
//! "Second, we are eliminating the need to pre-partition the query dataset
//! by building an index of sequence offsets in the input FASTA file. This
//! will allow selecting the size of the query blocks dynamically after the
//! start of the program based on a small timing iteration at the beginning,
//! thus eliminating the need for tuning by the user. This can be also used
//! to make progressively smaller query chunks toward the end of each
//! iteration and have a more uniform filling of the cores." (§Conclusions)
//!
//! The driver:
//!
//! 1. builds a [`bioseq::FastaIndex`] over the query file (no
//!    pre-partitioning);
//! 2. rank 0 runs a **timing iteration**: a small pilot block against one
//!    partition, yielding seconds-per-query, from which the steady-state
//!    block size for a target work-unit duration is derived and broadcast;
//! 3. block ranges follow a **guided schedule** ([`bioseq::guided_blocks`]):
//!    full-size early, shrinking toward the end for uniform core filling;
//! 4. the guided blocks are read from the indexed FASTA and handed to the
//!    one BLAST driver ([`run_mrblast`]) over (block × partition) work
//!    units.

use std::path::Path;
use std::time::Instant;

use bioseq::db::BlastDb;
use bioseq::faindex::{guided_blocks, FastaIndex};
use bioseq::seq::SeqRecord;
use blast::search::BlastSearcher;
use mpisim::Comm;
use mrmpi::MrError;

use crate::mrblast::{run_mrblast, MrBlastConfig, MrBlastRankReport};

/// Tuning of the adaptive driver.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// Desired duration of one work unit in seconds; the timing iteration
    /// converts this into a block size.
    pub target_unit_seconds: f64,
    /// Queries used for the timing iteration.
    pub pilot_queries: usize,
    /// Smallest allowed block (the guided tail shrinks to this).
    pub min_block: usize,
    /// Largest allowed block.
    pub max_block: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            target_unit_seconds: 0.05,
            pilot_queries: 16,
            min_block: 2,
            max_block: 4096,
        }
    }
}

/// Per-rank outcome of an adaptive run: the standard report plus the block
/// schedule the timing iteration chose.
#[derive(Debug)]
pub struct AdaptiveReport {
    /// The standard per-rank report.
    pub base: MrBlastRankReport,
    /// Steady-state block size chosen by the timing iteration.
    pub chosen_block: usize,
    /// The guided block ranges used (record index ranges).
    pub block_ranges: Vec<(usize, usize)>,
}

/// Run MR-MPI BLAST straight from an indexed FASTA query file with
/// dynamically chosen, guided query blocks. Collective.
///
/// Once the blocks are chosen, the run is [`run_mrblast`] with `cfg`
/// unchanged, so locality, self-exclusion, per-rank output files,
/// checkpoints and fault tolerance behave exactly as they do there.
pub fn run_mrblast_adaptive(
    comm: &Comm,
    db: &BlastDb,
    query_fasta: &Path,
    cfg: &MrBlastConfig,
    acfg: &AdaptiveConfig,
) -> Result<AdaptiveReport, MrError> {
    let searcher = BlastSearcher::new(cfg.params);
    let index = FastaIndex::build(query_fasta).expect("index query FASTA");
    let nparts = db.num_partitions();
    let nqueries = index.len();

    // ---- timing iteration (rank 0), block size broadcast ----
    let mut chosen = [0.0f64];
    if comm.rank() == 0 {
        let pilot_n = acfg.pilot_queries.min(nqueries).max(1);
        let chosen_block = if nqueries == 0 || nparts == 0 {
            acfg.min_block
        } else {
            let pilot = index.read_range(0, pilot_n).expect("read pilot block");
            let part = db.load_partition(0).expect("load pilot partition");
            let t0 = Instant::now();
            let prepared = searcher.prepare_queries(&pilot);
            let _ = searcher.search_partition(
                &prepared,
                &part,
                db.total_residues,
                db.total_sequences,
            );
            let per_query = (t0.elapsed().as_secs_f64() / pilot_n as f64).max(1e-9);
            ((acfg.target_unit_seconds / per_query) as usize)
                .clamp(acfg.min_block, acfg.max_block)
        };
        chosen[0] = chosen_block as f64;
    }
    comm.bcast_f64s(0, &mut chosen);
    let chosen_block = chosen[0] as usize;

    // ---- guided block schedule ----
    let workers = comm.size().saturating_sub(1).max(1);
    let block_ranges = guided_blocks(nqueries, chosen_block, acfg.min_block, workers);
    let blocks: Vec<Vec<SeqRecord>> = block_ranges
        .iter()
        .map(|&(start, end)| index.read_range(start, end).expect("read query range"))
        .collect();

    let base = run_mrblast(comm, db, &blocks, cfg)?;
    Ok(AdaptiveReport { base, chosen_block, block_ranges })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::db::{format_db, FormatDbConfig};
    use bioseq::fasta::write_fasta_file;
    use bioseq::gen::{self, WorkloadConfig};
    use blast::hsp::Hit;
    use blast::SearchParams;
    use mpisim::World;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn fixture(tag: &str) -> (Arc<BlastDb>, PathBuf, Vec<Hit>, PathBuf) {
        let cfg = WorkloadConfig {
            db_seqs: 10,
            db_seq_len: 1200,
            queries: 30,
            homolog_fraction: 0.7,
            ..Default::default()
        };
        let w = gen::dna_workload(4444, &cfg);
        let dir = std::env::temp_dir().join(format!("adaptive-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let db = format_db(&w.db, &FormatDbConfig::dna(900), &dir, "db").unwrap();
        let serial = BlastSearcher::new(SearchParams::blastn())
            .search_db_serial(&w.queries, &db)
            .unwrap();
        let fasta = dir.join("queries.fa");
        write_fasta_file(&fasta, &w.queries).unwrap();
        (Arc::new(db), fasta, serial, dir)
    }

    fn keys(hits: impl IntoIterator<Item = Hit>) -> Vec<(String, String, u32, i32)> {
        let mut v: Vec<_> = hits
            .into_iter()
            .map(|h| (h.query_id, h.subject_id, h.q_start, h.raw_score))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn adaptive_run_matches_serial_output() {
        let (db, fasta, serial, dir) = fixture("match");
        for ranks in [1, 3] {
            let db = db.clone();
            let fasta = fasta.clone();
            let reports = World::new(ranks).run(move |comm| {
                run_mrblast_adaptive(
                    comm,
                    &db,
                    &fasta,
                    &MrBlastConfig::blastn(),
                    &AdaptiveConfig::default(),
                )
                .expect("no faults injected")
            });
            let got = keys(reports.into_iter().flat_map(|r| r.base.hits));
            assert_eq!(got, keys(serial.clone()), "ranks={ranks}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn block_schedule_is_guided_and_broadcast_consistently() {
        let (db, fasta, _, dir) = fixture("guided");
        let reports = World::new(3).run(move |comm| {
            run_mrblast_adaptive(
                comm,
                &db,
                &fasta,
                &MrBlastConfig::blastn(),
                &AdaptiveConfig { target_unit_seconds: 0.02, ..Default::default() },
            )
            .expect("no faults injected")
        });
        // Every rank derived the same schedule.
        let first = &reports[0];
        for r in &reports[1..] {
            assert_eq!(r.chosen_block, first.chosen_block);
            assert_eq!(r.block_ranges, first.block_ranges);
        }
        // Schedule covers all queries, sizes non-increasing.
        let ranges = &first.block_ranges;
        assert_eq!(ranges.first().unwrap().0, 0);
        assert_eq!(ranges.last().unwrap().1, 30);
        let sizes: Vec<usize> = ranges.iter().map(|(s, e)| e - s).collect();
        for w in sizes.windows(2) {
            assert!(w[1] <= w[0], "guided sizes must not grow: {sizes:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn adaptive_with_locality_still_correct() {
        let (db, fasta, serial, dir) = fixture("loc");
        let reports = World::new(4).run(move |comm| {
            let cfg = MrBlastConfig { locality_aware: true, ..MrBlastConfig::blastn() };
            run_mrblast_adaptive(comm, &db, &fasta, &cfg, &AdaptiveConfig::default())
            .expect("no faults injected")
        });
        let got = keys(reports.into_iter().flat_map(|r| r.base.hits));
        assert_eq!(got, keys(serial));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tiny_target_forces_small_blocks() {
        let (db, fasta, serial, dir) = fixture("tiny");
        let reports = World::new(2).run(move |comm| {
            run_mrblast_adaptive(
                comm,
                &db,
                &fasta,
                &MrBlastConfig::blastn(),
                &AdaptiveConfig {
                    target_unit_seconds: 1e-9,
                    min_block: 2,
                    ..Default::default()
                },
            )
            .expect("no faults injected")
        });
        assert_eq!(reports[0].chosen_block, 2, "tiny target must clamp to min_block");
        let got = keys(reports.into_iter().flat_map(|r| r.base.hits));
        assert_eq!(got, keys(serial));
        std::fs::remove_dir_all(&dir).ok();
    }
}
