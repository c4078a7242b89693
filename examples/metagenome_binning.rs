//! The paper's SOM use case: metagenomic binning in tetranucleotide
//! composition space.
//!
//! "In the bioinformatics domain, SOM is a popular tool for unsupervised
//! clustering and semi-supervised classification of metagenomic sequences
//! in a multi-dimensional sequence composition space" (§I); the conclusion
//! names the tetranucleotide space explicitly. This example builds two
//! synthetic genomes with distinct composition, shreds them into fragments,
//! maps each fragment to its 256-dimensional tetranucleotide frequency
//! vector (4⁴ = 256 — the dimensionality of the paper's Fig. 6 benchmark),
//! trains the parallel batch SOM, and measures how cleanly the two genomes
//! separate on the map (bin purity).
//!
//! Run with: `cargo run --release --example metagenome_binning`

use bioseq::gen::{self, rng};
use bioseq::kmer::tetra_frequencies;
use bioseq::seq::SeqRecord;
use bioseq::shred::{shred_record, ShredConfig};
use mpisim::World;
use mrbio::{run_mrsom, MrSomConfig, VectorMatrix};
use som::neighborhood::SomConfig;
use som::ppm::write_umatrix_pgm;
use som::umatrix::umatrix;
use std::collections::HashMap;

fn main() {
    let mut r = rng(808);

    // Two genomes with very different GC content → distinct tetranucleotide
    // signatures (the real biological signal binning exploits).
    let genome_a = SeqRecord::new("low_gc_organism", gen::random_dna(&mut r, 40_000, 0.30));
    let genome_b = SeqRecord::new("high_gc_organism", gen::random_dna(&mut r, 40_000, 0.65));

    let shred = ShredConfig { fragment_len: 1000, overlap: 0, min_len: 500 };
    let mut fragments: Vec<(usize, SeqRecord)> = Vec::new();
    for f in shred_record(&genome_a, &shred) {
        fragments.push((0, f));
    }
    for f in shred_record(&genome_b, &shred) {
        fragments.push((1, f));
    }
    println!("{} fragments from 2 organisms", fragments.len());

    // 256-dimensional composition vectors.
    let vectors: Vec<Vec<f64>> =
        fragments.iter().map(|(_, f)| tetra_frequencies(&f.seq)).collect();
    let labels: Vec<usize> = fragments.iter().map(|(l, _)| *l).collect();

    let dir = std::env::temp_dir().join(format!("binning-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let matrix_path = dir.join("tetra.bin");
    VectorMatrix::create(&matrix_path, &vectors).expect("write matrix");

    // Parallel batch SOM, 12×12 map.
    let som = SomConfig {
        rows: 12,
        cols: 12,
        dims: 256,
        epochs: 15,
        sigma0: None,
        sigma_end: 1.0,
        seed: 11,
        ..SomConfig::default()
    };
    let mp = matrix_path.clone();
    let results = World::new(4).run(move |comm| {
        let matrix = VectorMatrix::open(&mp).expect("open matrix");
        run_mrsom(comm, &matrix, &MrSomConfig { block_size: 10, ..MrSomConfig::new(som) })
        .expect("fault-free run")
    });
    let cb = &results[0].0;

    // Bin purity: for each neuron, the majority organism among mapped
    // fragments; purity = majority fraction over all mapped fragments.
    let mut per_neuron: HashMap<usize, [usize; 2]> = HashMap::new();
    for (v, &label) in vectors.iter().zip(&labels) {
        per_neuron.entry(cb.bmu(v)).or_default()[label] += 1;
    }
    let mut majority = 0usize;
    for counts in per_neuron.values() {
        majority += counts[0].max(counts[1]);
    }
    let purity = majority as f64 / vectors.len() as f64;
    println!(
        "map occupancy: {} neurons used of {}; bin purity = {:.1}%",
        per_neuron.len(),
        cb.num_neurons(),
        100.0 * purity
    );

    let u = umatrix(cb);
    let um_path = dir.join("binning_umatrix.pgm");
    write_umatrix_pgm(&um_path, cb, &u).expect("write U-matrix");
    println!("U-matrix written to {} (ridge separates the two bins)", um_path.display());

    assert!(purity > 0.95, "composition binning should be nearly pure, got {purity}");
    std::fs::remove_dir_all(&dir).ok();
}
