//! Quickstart: the whole system in ~60 lines.
//!
//! Generates a synthetic nucleotide workload with planted homologies,
//! formats a partitioned database, runs the parallel MR-MPI BLAST on four
//! simulated MPI ranks, and cross-checks the output against the serial
//! engine. Then trains a small SOM both serially and in parallel and shows
//! the codebooks agree.
//!
//! Run with: `cargo run --release --example quickstart`

use bioseq::db::{format_db, FormatDbConfig};
use bioseq::gen::{dna_workload, random_vectors, WorkloadConfig};
use bioseq::shred::query_blocks;
use blast::search::BlastSearcher;
use blast::SearchParams;
use mpisim::World;
use mrbio::{run_mrblast, run_mrsom, MrBlastConfig, MrSomConfig, VectorMatrix};
use som::batch::batch_train;
use som::neighborhood::SomConfig;
use std::sync::Arc;

fn main() {
    // ---------- parallel BLAST ----------
    let workload = dna_workload(42, &WorkloadConfig::default());
    let dir = std::env::temp_dir().join(format!("quickstart-{}", std::process::id()));
    let db = format_db(&workload.db, &FormatDbConfig::dna(8_192), &dir, "demo")
        .expect("format database");
    println!(
        "database: {} sequences, {} residues, {} partitions",
        db.total_sequences,
        db.total_residues,
        db.num_partitions()
    );

    let serial = BlastSearcher::new(SearchParams::blastn())
        .search_db_serial(&workload.queries, &db)
        .expect("serial search");

    let db = Arc::new(db);
    let blocks = Arc::new(query_blocks(workload.queries, 25));
    let ranks = 4;
    let db2 = db.clone();
    let blocks2 = blocks.clone();
    let reports = World::new(ranks)
        .run(move |comm| {
            run_mrblast(comm, &db2, &blocks2, &MrBlastConfig::blastn())
            .expect("fault-free run")
        });

    let parallel_hits: usize = reports.iter().map(|r| r.hits.len()).sum();
    println!(
        "MR-MPI BLAST on {ranks} ranks: {parallel_hits} hits (serial: {}) — {}",
        serial.len(),
        if parallel_hits == serial.len() { "MATCH" } else { "MISMATCH" }
    );
    for rep in &reports {
        println!(
            "  rank {}: {} map calls, {} DB loads, {:.3}s busy",
            rep.rank,
            rep.map_calls,
            rep.db_loads,
            rep.busy.busy_total()
        );
    }

    // ---------- parallel batch SOM ----------
    let vectors = random_vectors(7, 300, 8);
    let som = SomConfig { rows: 8, cols: 8, dims: 8, epochs: 10, sigma0: None, sigma_end: 1.0, seed: 3, ..SomConfig::default() };
    let serial_cb = batch_train(&vectors, &som);

    let matrix_path = dir.join("vectors.bin");
    VectorMatrix::create(&matrix_path, &vectors).expect("write matrix");
    let results = World::new(ranks).run(move |comm| {
        let matrix = VectorMatrix::open(&matrix_path).expect("open matrix");
        run_mrsom(comm, &matrix, &MrSomConfig { block_size: 30, ..MrSomConfig::new(som) })
        .expect("fault-free run")
    });
    let max_dev = results[0]
        .0
        .weights
        .iter()
        .zip(&serial_cb.weights)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    println!("MR-MPI batch SOM on {ranks} ranks: max codebook deviation vs serial = {max_dev:.2e}");

    std::fs::remove_dir_all(&dir).ok();
}
