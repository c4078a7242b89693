//! Microbenchmarks of the BLAST pipeline stages (§II.B's three stages plus
//! lookup construction). These back the calibration constants used by the
//! scaling simulator: the relative cost of seeding vs extension vs full
//! work units is what makes the skew model credible.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

/// Small sample budget: these benches run on laptop-class single-core CI;
/// Criterion's defaults (100 samples, 5 s) would take an hour across the
/// suite.
fn quick_config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500))
}

use bioseq::alphabet::Alphabet;
use bioseq::db::{partition_records, FormatDbConfig};
use bioseq::gen::{self, WorkloadConfig};
use bioseq::seq::SeqRecord;
use bioseq::shred::{shred_records, ShredConfig};
use blast::extend::ungapped_extend;
use blast::gapped::{banded_global_stats, xdrop_extend};
use blast::lookup::{Lookup, Neighbourhoods};
use blast::search::{BlastSearcher, SearchMode};
use blast::Scoring;

fn bench_lookup_build(c: &mut Criterion) {
    let mut rng = gen::rng(1);
    let queries: Vec<Vec<u8>> =
        (0..50).map(|_| Alphabet::Dna.encode_seq(&gen::random_dna(&mut rng, 400, 0.5))).collect();
    let masks: Vec<Vec<u8>> = queries.iter().map(|q| vec![0u8; q.len()]).collect();
    c.bench_function("lookup_build_dna_50x400bp_w11", |b| {
        b.iter(|| {
            let refs: Vec<(&[u8], &[u8])> =
                queries.iter().zip(&masks).map(|(q, m)| (q.as_slice(), m.as_slice())).collect();
            black_box(Lookup::build_dna(&refs, 11).num_words())
        })
    });

    let mut rng = gen::rng(2);
    let prots: Vec<Vec<u8>> =
        (0..10).map(|_| Alphabet::Protein.encode_seq(&gen::random_protein(&mut rng, 150))).collect();
    let pmasks: Vec<Vec<u8>> = prots.iter().map(|q| vec![0u8; q.len()]).collect();
    let refs: Vec<(&[u8], &[u8])> =
        prots.iter().zip(&pmasks).map(|(q, m)| (q.as_slice(), m.as_slice())).collect();
    // Cold: a fresh neighbourhood table, so every query word is enumerated.
    c.bench_function("lookup_build_protein_10x150aa_T11", |b| {
        b.iter(|| {
            let mut table = Neighbourhoods::new(3, 11, &Scoring::blastp_default());
            black_box(Lookup::build_protein(&refs, &mut table).num_words())
        })
    });
    // Warm: the table already holds the block's words, as for every block
    // after the first that a searcher prepares.
    let mut table = Neighbourhoods::new(3, 11, &Scoring::blastp_default());
    Lookup::build_protein(&refs, &mut table);
    c.bench_function("lookup_build_protein_10x150aa_T11_warm_table", |b| {
        b.iter(|| black_box(Lookup::build_protein(&refs, &mut table).num_words()))
    });
}

fn bench_extensions(c: &mut Criterion) {
    let mut rng = gen::rng(3);
    let genome = gen::random_dna(&mut rng, 5000, 0.5);
    let q = Alphabet::Dna.encode_seq(&gen::mutate_dna(&mut rng, &genome[1000..1400], 0.05, 0.0));
    let s = Alphabet::Dna.encode_seq(&genome);
    let scoring = Scoring::blastn_default();

    c.bench_function("ungapped_extend_400bp_homolog", |b| {
        b.iter(|| black_box(ungapped_extend(&q, &s, 100, 1100, 11, &scoring, 40)))
    });
    c.bench_function("gapped_xdrop_400bp_homolog", |b| {
        b.iter(|| black_box(xdrop_extend(&q[200..], &s[1200..1700], &scoring, 60)))
    });
    c.bench_function("banded_traceback_400bp", |b| {
        b.iter(|| black_box(banded_global_stats(&q, &s[1000..1400], &scoring, 16)))
    });
}

fn bench_work_unit(c: &mut Criterion) {
    // One full (query block × partition) work unit, the paper's map() body.
    let cfg = WorkloadConfig {
        db_seqs: 6,
        db_seq_len: 2000,
        queries: 20,
        homolog_fraction: 0.5,
        ..Default::default()
    };
    let w = gen::dna_workload(4, &cfg);
    let part = partition_records(&w.db, &FormatDbConfig::dna(usize::MAX))
        .into_iter()
        .next()
        .expect("one partition");
    let searcher = BlastSearcher::with_mode(SearchMode::Blastn);
    let prepared = searcher.prepare_queries(&w.queries);
    c.bench_function("work_unit_20q_x_12kbp_partition", |b| {
        b.iter(|| black_box(searcher.search_partition(&prepared, &part, 12_000, 6).len()))
    });

    // A unit shaped like one hit-rich blastn-shred unit: a block of 20
    // 400 bp fragments of a genome against a partition of two strains of
    // its family (the genome and a copy with 4% substitutions and 0.2%
    // indels), so gapped extension and traceback dominate.
    let mut rng = gen::rng(8);
    let genome = gen::random_dna(&mut rng, 12_000, 0.5);
    let strain = gen::mutate_dna(&mut rng, &genome, 0.04, 0.002);
    let strains = [SeqRecord::new("g0s0", genome), SeqRecord::new("g0s1", strain)];
    let fragments: Vec<SeqRecord> =
        shred_records(&strains[..1], &ShredConfig::default()).into_iter().take(20).collect();
    let spart = partition_records(&strains, &FormatDbConfig::dna(usize::MAX))
        .into_iter()
        .next()
        .expect("one partition");
    let sprepared = searcher.prepare_queries(&fragments);
    c.bench_function("work_unit_blastn_shred_20frag_x_2strains", |b| {
        b.iter(|| black_box(searcher.search_partition(&sprepared, &spart, 24_000, 2).len()))
    });

    // Protein work unit.
    let pw = gen::protein_workload(5, &WorkloadConfig {
        db_seqs: 4,
        db_seq_len: 500,
        queries: 8,
        query_len: 120,
        ..Default::default()
    });
    let ppart = partition_records(&pw.db, &FormatDbConfig::protein(usize::MAX))
        .into_iter()
        .next()
        .expect("one partition");
    let psearcher = BlastSearcher::with_mode(SearchMode::Blastp);
    let pprepared = psearcher.prepare_queries(&pw.queries);
    c.bench_function("work_unit_protein_8q_x_2kaa_partition", |b| {
        b.iter(|| black_box(psearcher.search_partition(&pprepared, &ppart, 2_000, 4).len()))
    });

    // A protein unit shaped like one blastp-blocks (query block ×
    // partition) unit: enough subject residues that seeding and two-hit
    // bookkeeping, not setup, dominate.
    let bw = gen::protein_workload(7, &WorkloadConfig {
        db_seqs: 50,
        db_seq_len: 500,
        queries: 10,
        query_len: 150,
        homolog_fraction: 0.5,
        sub_rate: 0.3,
        ..Default::default()
    });
    let bpart = partition_records(&bw.db, &FormatDbConfig::protein(usize::MAX))
        .into_iter()
        .next()
        .expect("one partition");
    let bprepared = psearcher.prepare_queries(&bw.queries);
    c.bench_function("work_unit_protein_10q_x_25kaa_partition", |b| {
        b.iter(|| black_box(psearcher.search_partition(&bprepared, &bpart, 25_000, 50).len()))
    });
}

fn bench_masking(c: &mut Criterion) {
    let mut rng = gen::rng(6);
    let seq = Alphabet::Dna.encode_seq(&gen::random_dna(&mut rng, 10_000, 0.5));
    c.bench_function("dust_mask_10kbp", |b| {
        b.iter(|| black_box(blast::dust::default_dust(&seq).len()))
    });
    let prot = Alphabet::Protein.encode_seq(&gen::random_protein(&mut rng, 2_000));
    c.bench_function("seg_mask_2kaa", |b| {
        b.iter(|| black_box(blast::dust::default_seg(&prot).len()))
    });
    let _ = SeqRecord::new("warm", b"ACGT".to_vec());
}

criterion_group!{
    name = benches;
    config = quick_config();
    targets =
    bench_lookup_build,
    bench_extensions,
    bench_work_unit,
    bench_masking

}
criterion_main!(benches);
