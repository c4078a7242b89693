//! Full-pipeline integration test from files on disk: FASTA in → formatdb →
//! shredding → parallel MR-MPI BLAST → tabular per-rank output files →
//! classification. Exercises every IO boundary a real deployment crosses.

use bioseq::fasta::{read_fasta_file, write_fasta_file};
use bioseq::db::{format_db, BlastDb, FormatDbConfig};
use bioseq::gen::{self, rng};
use bioseq::seq::SeqRecord;
use bioseq::shred::{query_blocks, shred_records, ShredConfig};
use mpisim::World;
use mrbio::{run_mrblast, MrBlastConfig};
use std::sync::Arc;

#[test]
fn fasta_to_classified_reads() {
    let mut r = rng(31337);
    let dir = std::env::temp_dir().join(format!("e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // 1. Write reference genomes as FASTA (the input format of the paper's
    // pipeline).
    let genomes: Vec<SeqRecord> = (0..6)
        .map(|i| SeqRecord::new(format!("genome{i}"), gen::random_dna(&mut r, 4_000, 0.5)))
        .collect();
    let fasta_path = dir.join("refs.fa");
    write_fasta_file(&fasta_path, &genomes).unwrap();

    // 2. Read back and format the database (our formatdb).
    let loaded = read_fasta_file(&fasta_path).unwrap();
    assert_eq!(loaded, genomes, "FASTA roundtrip");
    let db = format_db(&loaded, &FormatDbConfig::dna(2_500), &dir, "refs").unwrap();
    assert!(db.num_partitions() >= 2);

    // 3. Shred two genomes into reads (the paper's 400/200 procedure) and
    // write the query FASTA, then read it back as the search input.
    let reads = shred_records(&genomes[..2], &ShredConfig::default());
    let reads_path = dir.join("reads.fa");
    write_fasta_file(&reads_path, &reads).unwrap();
    let queries = read_fasta_file(&reads_path).unwrap();
    assert!(queries.len() > 20);

    // 4. Parallel search with per-rank file output and self-exclusion off
    // (reads should hit their own source — that's the assertion).
    let outdir = dir.join("out");
    let db = Arc::new(BlastDb::open(&dir, "refs").unwrap());
    let blocks = Arc::new(query_blocks(queries.clone(), 9));
    let od = outdir.clone();
    let reports = World::new(4).run(move |comm| {
        let cfg = MrBlastConfig { output_dir: Some(od.clone()), ..MrBlastConfig::blastn() };
        run_mrblast(comm, &db, &blocks, &cfg).expect("fault-free run")
    });

    // 5. Every read must hit its source genome as the top hit.
    let mut best: std::collections::HashMap<String, (f64, String)> = Default::default();
    for rep in &reports {
        for h in &rep.hits {
            let entry = best
                .entry(h.query_id.clone())
                .or_insert((f64::INFINITY, String::new()));
            if h.evalue < entry.0 {
                *entry = (h.evalue, h.subject_id.clone());
            }
        }
    }
    for q in &queries {
        let src = q.id.split_once('/').unwrap().0;
        let (_, subject) = best.get(&q.id).unwrap_or_else(|| panic!("read {} had no hits", q.id));
        assert_eq!(subject, src, "read {} classified to wrong genome", q.id);
    }

    // 6. Per-rank files exist, are tabular, and cover every hit exactly once.
    let mut file_lines = 0usize;
    for rep in &reports {
        let path = rep.output_file.as_ref().expect("file output requested");
        let content = std::fs::read_to_string(path).unwrap();
        for line in content.lines() {
            assert_eq!(line.split('\t').count(), 12);
        }
        file_lines += content.lines().count();
    }
    let total_hits: usize = reports.iter().map(|r| r.hits.len()).sum();
    assert_eq!(file_lines, total_hits);

    // 7. Queries live in exactly one rank's file (the paper's output
    // contract: "the hits for each query located in only one file").
    let mut owner: std::collections::HashMap<String, usize> = Default::default();
    for rep in &reports {
        for h in &rep.hits {
            if let Some(prev) = owner.insert(h.query_id.clone(), rep.rank) {
                assert_eq!(prev, rep.rank, "query {} in two files", h.query_id);
            }
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn self_exclusion_filters_but_keeps_cross_hits() {
    let mut r = rng(555);
    let dir = std::env::temp_dir().join(format!("e2e-self-{}", std::process::id()));
    // Two near-identical genomes: fragments of A hit both A (self) and B.
    let base = gen::random_dna(&mut r, 3_000, 0.5);
    let genomes = vec![
        SeqRecord::new("A", base.clone()),
        SeqRecord::new("B", gen::mutate_dna(&mut r, &base, 0.04, 0.002)),
    ];
    let db = Arc::new(format_db(&genomes, &FormatDbConfig::dna(usize::MAX), &dir, "db").unwrap());
    let reads = shred_records(&genomes[..1], &ShredConfig::default());
    let blocks = Arc::new(query_blocks(reads, 4));

    let db2 = db.clone();
    let blocks2 = blocks.clone();
    let reports = World::new(2).run(move |comm| {
        let cfg = MrBlastConfig { exclude_self: true, ..MrBlastConfig::blastn() };
        run_mrblast(comm, &db2, &blocks2, &cfg).expect("fault-free run")
    });
    let hits: Vec<_> = reports.iter().flat_map(|r| r.hits.iter()).collect();
    assert!(!hits.is_empty(), "cross-genome hits must survive");
    assert!(
        hits.iter().all(|h| h.subject_id == "B"),
        "all self (A) hits must be excluded"
    );
    std::fs::remove_dir_all(&dir).ok();
}
