//! Host-speed probe. The benchmark host is shared, and its speed drifts by
//! tens of percent over minutes as neighbours come and go. The probe is a
//! fixed amount of work, independent of the code under test, timed right
//! before and right after every CLI run and every batch of set-ups; the
//! reported times are scaled by `REF_S` ÷ the probe time beside them, so a
//! slow phase of the host stretches both and largely cancels.
//!
//! Its work mixes what the CLIs do: an integer dynamic-programming sweep
//! (BLAST extension), random lookups into a table larger than L2 (seed
//! lookup) and squared distances over a 5 MB f64 matrix (SOM BMU search),
//! on one thread per worker rank.

use std::hint::black_box;
use std::time::Instant;

use crate::workload::RANKS;

/// Probe time on the quiet 2-vCPU host the benchmark was sized on, so that
/// normalised times read about the raw wall clock there.
pub const REF_S: f64 = 0.1;

/// `secs` measured between probes that took `before` and `after`, in
/// seconds of the reference host.
pub fn normalise(secs: f64, before: f64, after: f64) -> f64 {
    secs * REF_S / (0.5 * (before + after))
}

const SEQ_LEN: usize = 3000;
const TABLE_BITS: u32 = 21;
const LOOKUPS: usize = 6_000_000;
const NEURONS: usize = 2500;
const DIMS: usize = 256;
const POINTS: usize = 16;

pub struct Probe {
    seqs: Vec<(Vec<u8>, Vec<u8>)>,
    table: Vec<u32>,
    matrix: Vec<f64>,
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

impl Probe {
    /// Allocate and fill the probe's inputs once, so a timing touches no
    /// fresh pages.
    pub fn new() -> Self {
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let seq = |s: &mut u64| (0..SEQ_LEN).map(|_| (xorshift(s) & 3) as u8).collect();
        let seqs = (0..RANKS - 1).map(|_| (seq(&mut s), seq(&mut s))).collect();
        let table = (0..1usize << TABLE_BITS)
            .map(|_| xorshift(&mut s) as u32)
            .collect();
        let matrix = (0..NEURONS * DIMS)
            .map(|_| (xorshift(&mut s) >> 11) as f64 / (1u64 << 53) as f64)
            .collect();
        Probe {
            seqs,
            table,
            matrix,
        }
    }

    /// Seconds the probe's work takes now.
    pub fn time(&self) -> f64 {
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for (worker, (a, b)) in self.seqs.iter().enumerate() {
                scope.spawn(move || black_box(self.work(worker as u64, a, b)));
            }
        });
        t0.elapsed().as_secs_f64()
    }

    fn work(&self, worker: u64, a: &[u8], b: &[u8]) -> u64 {
        // Local alignment score, linear gaps.
        let mut row = vec![0i32; b.len() + 1];
        let mut best = 0i32;
        for &x in a {
            let mut diag = 0;
            for j in 1..=b.len() {
                let up = row[j];
                let score = if x == b[j - 1] { 2 } else { -3 };
                let v = (diag + score).max(up - 5).max(row[j - 1] - 5).max(0);
                diag = up;
                row[j] = v;
                best = best.max(v);
            }
        }
        // Random table lookups.
        let mut s = worker * 2 + 1;
        let mask = (1usize << TABLE_BITS) - 1;
        let mut acc = 0u64;
        for _ in 0..LOOKUPS {
            acc = acc.wrapping_add(u64::from(self.table[xorshift(&mut s) as usize & mask]));
        }
        // Nearest row of the matrix for a few points.
        for p in 0..POINTS {
            let x = &self.matrix[p * DIMS..(p + 1) * DIMS];
            let nearest = self
                .matrix
                .chunks_exact(DIMS)
                .map(|w| w.iter().zip(x).map(|(a, b)| (a - b) * (a - b)).sum::<f64>())
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map_or(0, |(i, _)| i);
            acc = acc.wrapping_add(nearest as u64);
        }
        acc ^ best as u64
    }
}
