//! Second property-test batch: IO roundtrips, translation coordinates,
//! external sorting, alignment-path consistency, and scheduler invariants.

use proptest::prelude::*;

use bioseq::fasta::{read_fasta, write_fasta};
use bioseq::seq::SeqRecord;
use bioseq::translate::{translate_frame, Frame};
use blast::gapped::banded_global_alignment;
use blast::oracle::needleman_wunsch;
use blast::Scoring;
use mrmpi::extsort::external_sort;
use mrmpi::{KeyValue, Settings};

fn dna_vec(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(proptest::sample::select(b"ACGT".to_vec()), 0..max)
}

proptest! {
    #[test]
    fn fasta_roundtrip_arbitrary_records(
        records in proptest::collection::vec(
            ("[A-Za-z0-9_.:-]{1,20}", "[A-Za-z0-9 ]{0,30}", dna_vec(200)),
            0..8)
    ) {
        let recs: Vec<SeqRecord> = records
            .into_iter()
            .map(|(id, desc, seq)| SeqRecord { id, desc: desc.trim().to_string(), seq })
            .collect();
        let mut buf = Vec::new();
        write_fasta(&mut buf, &recs).unwrap();
        let back = read_fasta(&buf[..]).unwrap();
        prop_assert_eq!(back, recs);
    }

    #[test]
    fn translation_length_is_codon_count(seq in dna_vec(300), offset in 0usize..3) {
        let protein = translate_frame(&seq, offset);
        prop_assert_eq!(protein.len(), seq.len().saturating_sub(offset) / 3);
    }

    #[test]
    fn frame_coordinates_stay_in_bounds(
        nt_len in 3usize..600,
        offset in 0u8..3,
        reverse in any::<bool>(),
        aa_span in (0usize..50, 1usize..50),
    ) {
        let frame = Frame { offset, reverse };
        let aa_capacity = (nt_len - offset as usize) / 3;
        prop_assume!(aa_capacity > 0);
        let aa_start = aa_span.0 % aa_capacity;
        let aa_end = (aa_start + aa_span.1).min(aa_capacity);
        let (s, e) = frame.to_nucleotide(aa_start, aa_end, nt_len);
        prop_assert!(s < e, "empty/inverted range {s}..{e}");
        prop_assert!(e <= nt_len, "range end {e} beyond {nt_len}");
        prop_assert_eq!(e - s, 3 * (aa_end - aa_start));
    }

    #[test]
    fn external_sort_matches_std_sort(
        pairs in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..120),
        budget in 64usize..2048,
    ) {
        let settings = Settings {
            page_size: 128,
            mem_budget: budget,
            tmpdir: std::env::temp_dir(),
            ..Settings::default()
        };
        let mut kv = KeyValue::new(&settings);
        for &(k, v) in &pairs {
            kv.add(&k.to_le_bytes(), &v.to_le_bytes());
        }
        let sorted = external_sort(kv, &settings, &|a, b| a.cmp(b));
        let got: Vec<(Vec<u8>, Vec<u8>)> = sorted.into_pairs();
        // Expected: stable sort by the little-endian byte encoding.
        let mut expect: Vec<(Vec<u8>, Vec<u8>)> = pairs
            .iter()
            .map(|&(k, v)| (k.to_le_bytes().to_vec(), v.to_le_bytes().to_vec()))
            .collect();
        expect.sort_by(|a, b| a.0.cmp(&b.0));
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn alignment_path_is_consistent(a in dna_vec(60), b in dna_vec(60)) {
        let scoring = Scoring::blastn_default();
        let aln = banded_global_alignment(&a, &b, &scoring, 80);
        // The path must consume exactly both sequences.
        let consumed_a = aln.ops.iter().filter(|&&o| o != b'I').count();
        let consumed_b = aln.ops.iter().filter(|&&o| o != b'D').count();
        prop_assert_eq!(consumed_a, a.len());
        prop_assert_eq!(consumed_b, b.len());
        // Replaying the path reproduces the reported score.
        let mut score = 0i32;
        let (mut i, mut j) = (0usize, 0usize);
        let mut prev_gap = 0u8;
        for &op in &aln.ops {
            match op {
                b'M' => {
                    score += scoring.score(a[i], b[j]);
                    i += 1;
                    j += 1;
                    prev_gap = 0;
                }
                gap => {
                    if prev_gap != gap {
                        score -= scoring.gap_open();
                    }
                    score -= scoring.gap_extend();
                    if gap == b'I' { j += 1 } else { i += 1 }
                    prev_gap = gap;
                }
            }
        }
        prop_assert_eq!(score, aln.score, "path replay must equal reported score");
        // A wide band is exact: equal to the NW oracle.
        prop_assert_eq!(aln.score, needleman_wunsch(&a, &b, &scoring));
    }

    #[test]
    fn des_makespan_bounds(costs in proptest::collection::vec(0.01f64..20.0, 1..80),
                           cores in 2usize..20) {
        use perfmodel::des::{simulate_master_worker, Conditions, Task};
        use perfmodel::ClusterModel;
        let cluster = ClusterModel {
            cold_load_s_per_gb: 0.0,
            warm_load_s_per_gb: 0.0,
            dispatch_latency_s: 0.0,
            ..ClusterModel::ranger()
        };
        let tasks: Vec<Task> =
            costs.iter().map(|&c| Task { part: 0, cost_s: c }).collect();
        let r = simulate_master_worker(&cluster, cores, &tasks, 0.0, &Conditions::default());
        let total: f64 = costs.iter().sum();
        let longest = costs.iter().copied().fold(0.0, f64::max);
        let workers = (cores - 1) as f64;
        // Classic list-scheduling bounds.
        prop_assert!(r.makespan_s >= (total / workers).max(longest) - 1e-9);
        prop_assert!(r.makespan_s <= total / workers + longest + 1e-9);
        prop_assert!((r.total_search_s - total).abs() < 1e-9);
    }

    #[test]
    fn guided_blocks_always_cover(n in 0usize..5000, base in 1usize..500,
                                  min_block in 1usize..100, workers in 1usize..64) {
        prop_assume!(min_block <= base);
        let ranges = bioseq::guided_blocks(n, base, min_block, workers);
        let mut pos = 0usize;
        for &(s, e) in &ranges {
            prop_assert_eq!(s, pos, "ranges must be contiguous");
            prop_assert!(e > s, "empty range");
            prop_assert!(e - s <= base, "range larger than base");
            pos = e;
        }
        prop_assert_eq!(pos, n, "ranges must cover exactly");
    }
}
