//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use bioseq::alphabet::Alphabet;
use bioseq::kmer::{kmer_counts, kmer_frequencies};
use bioseq::shred::{shred_record, ShredConfig};
use bioseq::seq::SeqRecord;
use bioseq::twobit::TwoBitSeq;
use blast::hsp::{Hit, Strand};
use blast::stats::KarlinParams;
use blast::Scoring;
use mpisim::wire;
use mrmpi::hashfn::key_owner;
use mrmpi::{KeyValue, Settings};
use rand::{Rng, SeedableRng};
use som::batch::{BatchAccumulator, BmuSums};
use som::codebook::Codebook;
use som::neighborhood::Kernel;

fn dna_seq() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(proptest::sample::select(b"ACGTacgtNRY-".to_vec()), 0..300)
}

proptest! {
    #[test]
    fn twobit_roundtrip_is_lossless(seq in dna_seq()) {
        let t = TwoBitSeq::encode(&seq);
        let decoded = t.decode();
        let expect: Vec<u8> = seq.iter().map(|c| c.to_ascii_uppercase()).collect();
        prop_assert_eq!(decoded, expect);
        prop_assert_eq!(t.len, seq.len());
    }

    #[test]
    fn twobit_codes_bounded(seq in dna_seq()) {
        let t = TwoBitSeq::encode(&seq);
        for i in 0..t.len {
            prop_assert!(t.code_at(i) < 4);
        }
    }

    #[test]
    fn reverse_complement_involution(seq in proptest::collection::vec(
        proptest::sample::select(b"ACGT".to_vec()), 0..200)) {
        let r = SeqRecord::new("x", seq.clone());
        prop_assert_eq!(r.reverse_complement().reverse_complement().seq, seq);
    }

    #[test]
    fn kv_preserves_pairs_in_order(
        pairs in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..40),
             proptest::collection::vec(any::<u8>(), 0..80)),
            0..60),
        page_size in 16usize..256,
    ) {
        let settings = Settings { page_size, ..Settings::default() };
        let mut kv = KeyValue::new(&settings);
        for (k, v) in &pairs {
            kv.add(k, v);
        }
        prop_assert_eq!(kv.npairs(), pairs.len() as u64);
        let got = kv.into_pairs();
        prop_assert_eq!(got, pairs);
    }

    #[test]
    fn key_owner_is_total_function(key in proptest::collection::vec(any::<u8>(), 0..64),
                                   size in 1usize..64) {
        let o = key_owner(&key, size);
        prop_assert!(o < size);
        prop_assert_eq!(o, key_owner(&key, size));
    }

    #[test]
    fn wire_f64_roundtrip(xs in proptest::collection::vec(
        prop_oneof![any::<f64>().prop_filter("finite", |x| x.is_finite()),
                    Just(0.0), Just(-0.0)], 0..64)) {
        let bytes = wire::f64s_to_bytes(&xs);
        prop_assert_eq!(wire::bytes_to_f64s(&bytes), xs);
    }

    #[test]
    fn hit_encoding_roundtrip(
        qid in "[a-zA-Z0-9_/.-]{0,30}",
        sid in "[a-zA-Z0-9_/.-]{0,30}",
        raw in any::<i32>(),
        bits in -1e6f64..1e6,
        evalue in 0.0f64..100.0,
        coords in any::<[u32; 4]>(),
        minus in any::<bool>(),
        stats in any::<[u32; 3]>(),
    ) {
        let hit = Hit {
            query_id: qid,
            subject_id: sid,
            raw_score: raw,
            bit_score: bits,
            evalue,
            q_start: coords[0],
            q_end: coords[1],
            s_start: coords[2],
            s_end: coords[3],
            strand: if minus { Strand::Minus } else { Strand::Plus },
            identity: stats[0],
            align_len: stats[1],
            gaps: stats[2],
        };
        prop_assert_eq!(Hit::decode(&hit.encode()), hit);
    }

    #[test]
    fn evalue_is_monotone_in_score(space in 1e3f64..1e15, s1 in 1i32..500, delta in 1i32..200) {
        let kp = KarlinParams::gapped(&Scoring::blastn_default());
        prop_assert!(kp.evalue(s1 + delta, space) < kp.evalue(s1, space));
        prop_assert!(kp.bit_score(s1 + delta) > kp.bit_score(s1));
    }

    #[test]
    fn kmer_total_counts_match_valid_windows(seq in proptest::collection::vec(
        proptest::sample::select(b"ACGT".to_vec()), 0..200), k in 1usize..6) {
        let counts = kmer_counts(&seq, k);
        let total: u64 = counts.iter().map(|&c| c as u64).sum();
        let expect = seq.len().saturating_sub(k - 1) as u64;
        prop_assert_eq!(total, expect);
        let freqs = kmer_frequencies(&seq, k);
        let sum: f64 = freqs.iter().sum();
        if expect > 0 {
            prop_assert!((sum - 1.0).abs() < 1e-9);
        } else {
            prop_assert_eq!(sum, 0.0);
        }
    }

    #[test]
    fn shredding_covers_the_source(len in 1usize..3000,
                                   frag in 50usize..500,
                                   overlap_frac in 0.0f64..0.9) {
        let overlap = ((frag as f64) * overlap_frac) as usize;
        let cfg = ShredConfig { fragment_len: frag, overlap, min_len: 1 };
        let seq: Vec<u8> = (0..len).map(|i| b"ACGT"[i % 4]).collect();
        let rec = SeqRecord::new("s", seq.clone());
        let frags = shred_record(&rec, &cfg);
        // Fragments reassemble the source: coverage of every position.
        let mut covered = vec![false; len];
        for f in &frags {
            let (_, range) = f.id.split_once('/').unwrap();
            let (s, e) = range.split_once('-').unwrap();
            let (s, e): (usize, usize) = (s.parse().unwrap(), e.parse().unwrap());
            prop_assert_eq!(&seq[s..e], f.seq.as_slice());
            for c in covered[s..e].iter_mut() {
                *c = true;
            }
        }
        prop_assert!(covered.iter().all(|&c| c), "positions uncovered");
    }

    #[test]
    fn batch_som_accumulation_is_associative(
        inputs in proptest::collection::vec(
            proptest::collection::vec(0.0f64..1.0, 3), 1..30),
        split in 0usize..30,
        sigma in 0.5f64..5.0,
    ) {
        let cb = Codebook::zeros(3, 3, 3);
        let split = split.min(inputs.len());
        let mut joint = BatchAccumulator::zeros(&cb);
        joint.accumulate_block(&cb, &inputs, sigma);
        let mut a = BatchAccumulator::zeros(&cb);
        a.accumulate_block(&cb, &inputs[..split], sigma);
        let mut b = BatchAccumulator::zeros(&cb);
        b.accumulate_block(&cb, &inputs[split..], sigma);
        a.merge(&b);
        for (x, y) in joint.numerator.iter().zip(&a.numerator) {
            prop_assert!((x - y).abs() < 1e-9);
        }
        for (x, y) in joint.denominator.iter().zip(&a.denominator) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn bmu_is_argmin(weights in proptest::collection::vec(0.0f64..1.0, 12),
                     input in proptest::collection::vec(0.0f64..1.0, 2)) {
        let mut cb = Codebook::zeros(2, 3, 2);
        cb.weights.copy_from_slice(&weights);
        let bmu = cb.bmu(&input);
        let d_best = cb.dist_sq(bmu, &input);
        for n in 0..cb.num_neurons() {
            prop_assert!(d_best <= cb.dist_sq(n, &input) + 1e-15);
        }
    }

    #[test]
    fn block_bmus_reach_the_true_minimum(
        dims in (1usize..24).prop_filter("dims not a multiple of 8", |d| d % 8 != 0),
        block in (1usize..20).prop_filter("length not a multiple of 4", |n| n % 4 != 0),
        rows in 1usize..6,
        cols in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cb = Codebook::random(rows, cols, dims, &mut rng, -1.0, 1.0);
        let inputs: Vec<Vec<f64>> = (0..block)
            .map(|_| (0..dims).map(|_| rng.random::<f64>() * 2.0 - 1.0).collect())
            .collect();
        let bmus = cb.bmus(&inputs);
        prop_assert_eq!(bmus.len(), block);
        for (x, &bmu) in inputs.iter().zip(&bmus) {
            let d_min = (0..cb.num_neurons()).map(|n| cb.dist_sq(n, x)).fold(f64::INFINITY, f64::min);
            let d_bmu = cb.dist_sq(bmu, x);
            prop_assert!(d_bmu - d_min <= 1e-12 * d_min, "BMU distance {d_bmu} vs minimum {d_min}");
            prop_assert_eq!(cb.bmu(x), bmu, "single-vector and block search disagree");
        }
        // Exact ties: every neuron equal, so every input's BMU is neuron 0.
        let mut flat = cb.clone();
        let first = cb.neuron(0).to_vec();
        for n in 0..flat.num_neurons() {
            flat.neuron_mut(n).copy_from_slice(&first);
        }
        prop_assert!(flat.bmus(&inputs).iter().all(|&b| b == 0));
    }

    #[test]
    fn bmu_sums_fold_equals_per_vector_accumulation(
        rows in 1usize..7,
        cols in 1usize..7,
        dims in 1usize..12,
        block in 1usize..40,
        sigma in 0.3f64..6.0,
        bubble in any::<bool>(),
        torus in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cb = Codebook::random(rows, cols, dims, &mut rng, 0.0, 1.0).with_torus(torus);
        let kernel = if bubble { Kernel::Bubble } else { Kernel::Gaussian };
        let inputs: Vec<Vec<f64>> =
            (0..block).map(|_| (0..dims).map(|_| rng.random::<f64>()).collect()).collect();
        let bmus = cb.bmus(&inputs);
        let mut sums = BmuSums::new(dims);
        sums.add_block(&bmus, &inputs);
        let mut got = BatchAccumulator::zeros(&cb);
        sums.fold_into(&mut got, &cb, sigma, kernel);
        // The per-vector form of Eq. 5: every input's neighborhood, one
        // input at a time.
        let mut want = BatchAccumulator::zeros(&cb);
        for (x, &bmu) in inputs.iter().zip(&bmus) {
            for n in 0..cb.num_neurons() {
                let h = kernel.eval(cb.grid_dist_sq(bmu, n), sigma);
                if h < 1e-12 {
                    continue;
                }
                want.denominator[n] += h;
                for (acc, &v) in want.numerator[n * dims..(n + 1) * dims].iter_mut().zip(x) {
                    *acc += h * v;
                }
            }
        }
        for (a, b) in got.denominator.iter().zip(&want.denominator) {
            prop_assert!((a - b).abs() < 1e-9, "denominator {a} vs {b}");
        }
        for (a, b) in got.numerator.iter().zip(&want.numerator) {
            prop_assert!((a - b).abs() < 1e-9, "numerator {a} vs {b}");
        }
    }

    #[test]
    fn protein_encoding_total(seq in proptest::collection::vec(any::<u8>(), 0..100)) {
        let codes = Alphabet::Protein.encode_seq(&seq);
        prop_assert_eq!(codes.len(), seq.len());
        prop_assert!(codes.iter().all(|&c| (c as usize) < Alphabet::Protein.radix()));
    }
}
