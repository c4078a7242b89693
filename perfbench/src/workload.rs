//! Seeded inputs of the three workloads. The seed is the only input; the
//! CLIs receive nothing but the files generated from it.

use bioseq::gen::{self, WorkloadConfig};
use bioseq::seq::SeqRecord;
use bioseq::shred::{shred_records, ShredConfig};
use rand::Rng;

/// Simulated MPI ranks of every run: rank 0 as master plus two workers.
pub const RANKS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    BlastnShred,
    BlastpBlocks,
    SomTetra,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "blastn-shred" => Some(Kind::BlastnShred),
            "blastp-blocks" => Some(Kind::BlastpBlocks),
            "som-tetra" => Some(Kind::SomTetra),
            _ => None,
        }
    }
}

/// Genome families: `FAMILIES` base genomes of `GENOME_LEN` bp, each with
/// `MEMBERS` strains (member 0 is the base, the others mutated copies).
/// Families differ in GC content, like taxa in a metagenome.
const FAMILIES: usize = 6;
const MEMBERS: usize = 4;
const GENOME_LEN: usize = 12_000;
const STRAIN_SUB: f64 = 0.04;
const STRAIN_INDEL: f64 = 0.002;

/// A BLAST workload: the DB records and query records plus how the CLI
/// formats and searches them.
pub struct BlastInputs {
    pub db: Vec<SeqRecord>,
    pub queries: Vec<SeqRecord>,
    pub protein: bool,
    pub partition_bytes: usize,
    pub block_size: usize,
    pub exclude_self: bool,
    pub genomes: usize,
}

/// A SOM workload: the sequences whose tetranucleotide vectors are trained
/// on, plus the map shape.
pub struct SomInputs {
    pub fragments: Vec<SeqRecord>,
    pub rows: usize,
    pub cols: usize,
    pub epochs: usize,
    pub block_size: usize,
    pub genomes: usize,
}

/// All strains of all families, family-major, named `g<family>s<strain>`.
fn genome_families(seed: u64) -> Vec<Vec<SeqRecord>> {
    let mut r = gen::rng(seed);
    (0..FAMILIES)
        .map(|f| {
            let gc = 0.35 + 0.3 * f as f64 / (FAMILIES - 1) as f64;
            let base = gen::random_dna(&mut r, GENOME_LEN, gc);
            (0..MEMBERS)
                .map(|m| {
                    let seq = if m == 0 {
                        base.clone()
                    } else {
                        gen::mutate_dna(&mut r, &base, STRAIN_SUB, STRAIN_INDEL)
                    };
                    SeqRecord::new(format!("g{f}s{m}"), seq)
                })
                .collect()
        })
        .collect()
}

/// `blastn-shred`: 400 bp / 200 bp-overlap fragments of strain 0 of every
/// family against all strains, two strains per DB partition.
pub fn blastn_shred(seed: u64) -> BlastInputs {
    let families = genome_families(seed);
    let firsts: Vec<SeqRecord> = families.iter().map(|f| f[0].clone()).collect();
    let queries = shred_records(&firsts, &ShredConfig::default());
    BlastInputs {
        db: families.into_iter().flatten().collect(),
        queries,
        protein: false,
        // 2-bit packing: two strains per partition.
        partition_bytes: 2 * GENOME_LEN / 4 + 64,
        block_size: 20,
        exclude_self: true,
        genomes: FAMILIES * MEMBERS,
    }
}

/// `blastp-blocks`: half planted homologs at 30% substitution, half
/// decoys, in blocks of 10 against a DB in many small partitions.
pub fn blastp_blocks(seed: u64) -> BlastInputs {
    let cfg = WorkloadConfig {
        db_seqs: 500,
        db_seq_len: 500,
        queries: 120,
        query_len: 150,
        homolog_fraction: 0.5,
        sub_rate: 0.3,
        indel_rate: 0.0,
        gc: 0.5,
    };
    let w = gen::protein_workload(seed, &cfg);
    BlastInputs {
        db: w.db,
        queries: w.queries,
        protein: true,
        // One byte per residue: 10 partitions of 50 sequences.
        partition_bytes: 50 * cfg.db_seq_len,
        block_size: 10,
        exclude_self: false,
        genomes: cfg.db_seqs,
    }
}

/// `som-tetra`: fragments of every strain of every family, mapped to
/// 256-d tetranucleotide frequencies on a 50×50 map.
pub fn som_tetra(seed: u64) -> SomInputs {
    // A seed of its own so the map sees different genomes than BLAST does
    // at the same seed; the shape is identical for every seed.
    let mut r = gen::rng(seed);
    let strains: Vec<SeqRecord> = genome_families(r.random::<u64>())
        .into_iter()
        .flat_map(|f| f.into_iter().take(SOM_STRAINS))
        .collect();
    let fragments = shred_records(&strains, &ShredConfig::default());
    SomInputs {
        fragments,
        rows: 50,
        cols: 50,
        epochs: 3,
        block_size: 40,
        genomes: strains.len(),
    }
}

/// Strains per family shredded for the SOM.
const SOM_STRAINS: usize = 2;
