//! Batch SOM training (Eq. 5) — the formulation the paper parallelizes.
//!
//! One epoch: for every input vector find its BMU against the *epoch-start*
//! codebook, accumulate `h_bmu,i · x` into the numerator and `h_bmu,i` into
//! the denominator of every neuron `i`, then set each weight vector to
//! numerator / denominator. The accumulation is a sum over inputs, hence
//! order-independent and splittable across workers — the parallel driver in
//! the `mrbio` crate sums per-rank accumulators with `MPI_Reduce`, exactly
//! as Fig. 2 of the paper shows.
//!
//! Both halves run as blocked dense linear algebra: [`Codebook::bmus`]
//! searches a whole block's BMUs in one pass over the codebook, and
//! [`BmuSums`] sums the inputs per distinct BMU so the neighborhood is
//! applied once per BMU rather than once per input.

use std::collections::BTreeMap;

use crate::codebook::Codebook;
use crate::neighborhood::{sigma_schedule, InitMethod, Kernel, SomConfig};

/// Per-epoch accumulator: the numerator matrix (same shape as the codebook)
/// and the denominator vector (one scalar per neuron). "Each worker has its
/// own copy of a new codebook, initialized to zero at the start of an epoch,
/// plus a matrix of floating point scalars with the same shape" (§III.B).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchAccumulator {
    /// Σ h·x per neuron, flat `neurons × dims`.
    pub numerator: Vec<f64>,
    /// Σ h per neuron.
    pub denominator: Vec<f64>,
    dims: usize,
}

impl BatchAccumulator {
    /// Reassemble an accumulator from raw parts (e.g. after an MPI reduce of
    /// the packed arrays).
    ///
    /// # Panics
    /// Panics on inconsistent shapes.
    pub fn from_parts(numerator: Vec<f64>, denominator: Vec<f64>, dims: usize) -> Self {
        assert_eq!(numerator.len(), denominator.len() * dims, "accumulator shape mismatch");
        BatchAccumulator { numerator, denominator, dims }
    }

    /// Zeroed accumulator matching a codebook's shape.
    pub fn zeros(cb: &Codebook) -> Self {
        BatchAccumulator {
            numerator: vec![0.0; cb.num_neurons() * cb.dims],
            denominator: vec![0.0; cb.num_neurons()],
            dims: cb.dims,
        }
    }

    /// Accumulate one input vector's contribution (BMU against `cb`,
    /// Gaussian neighborhood of width `sigma`).
    pub fn accumulate(&mut self, cb: &Codebook, input: &[f64], sigma: f64) {
        self.accumulate_with(cb, input, sigma, Kernel::Gaussian);
    }

    /// Accumulate with an explicit neighborhood kernel.
    pub fn accumulate_with(&mut self, cb: &Codebook, input: &[f64], sigma: f64, kernel: Kernel) {
        self.accumulate_rows(cb, &[input], sigma, kernel);
    }

    /// Accumulate a block of inputs (a MapReduce work unit).
    pub fn accumulate_block(&mut self, cb: &Codebook, inputs: &[Vec<f64>], sigma: f64) {
        self.accumulate_rows(cb, inputs, sigma, Kernel::Gaussian);
    }

    /// Accumulate a block with an explicit kernel.
    pub fn accumulate_block_with(
        &mut self,
        cb: &Codebook,
        inputs: &[Vec<f64>],
        sigma: f64,
        kernel: Kernel,
    ) {
        self.accumulate_rows(cb, inputs, sigma, kernel);
    }

    /// The one accumulation path: block BMU search, per-BMU sums, one
    /// neighborhood fold.
    fn accumulate_rows(
        &mut self,
        cb: &Codebook,
        inputs: &[impl AsRef<[f64]>],
        sigma: f64,
        kernel: Kernel,
    ) {
        let mut sums = BmuSums::new(cb.dims);
        sums.add_block(&cb.bmus(inputs), inputs);
        sums.fold_into(self, cb, sigma, kernel);
    }

    /// Merge another accumulator into this one (the MPI_Reduce sum).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn merge(&mut self, other: &BatchAccumulator) {
        assert_eq!(self.numerator.len(), other.numerator.len());
        assert_eq!(self.denominator.len(), other.denominator.len());
        for (a, b) in self.numerator.iter_mut().zip(&other.numerator) {
            *a += b;
        }
        for (a, b) in self.denominator.iter_mut().zip(&other.denominator) {
            *a += b;
        }
    }

    /// Apply Eq. 5: replace every weight vector whose denominator is
    /// non-negligible by numerator/denominator; starved neurons keep their
    /// previous weights (the standard convention).
    pub fn apply(&self, cb: &mut Codebook) {
        for n in 0..cb.num_neurons() {
            let den = self.denominator[n];
            if den <= 1e-12 {
                continue;
            }
            let row = &self.numerator[n * self.dims..(n + 1) * self.dims];
            for (w, &num) in cb.neuron_mut(n).iter_mut().zip(row) {
                *w = num / den;
            }
        }
    }
}

/// Σx and an input count per distinct BMU: the per-BMU-sum form of Eq. 5.
///
/// Every input with BMU `b` contributes `h_b,i · x` to neuron `i`'s
/// numerator, so the inputs sharing a BMU can be summed first and the
/// neighborhood applied once per distinct BMU, not once per input (as in
/// Somoclu's batch kernel). Sparse: only BMUs that occur are stored,
/// iterated in BMU-index order.
#[derive(Debug, Clone)]
pub struct BmuSums {
    dims: usize,
    /// BMU index → (inputs with that BMU, their Σx).
    sums: BTreeMap<usize, (f64, Vec<f64>)>,
}

impl BmuSums {
    /// No inputs yet, for `dims`-dimensional vectors.
    pub fn new(dims: usize) -> Self {
        BmuSums { dims, sums: BTreeMap::new() }
    }

    /// Add one input whose BMU is `bmu`.
    fn add(&mut self, bmu: usize, input: &[f64]) {
        assert_eq!(input.len(), self.dims, "input dims must match");
        let (count, sum) = self.sums.entry(bmu).or_insert_with(|| (0.0, vec![0.0; self.dims]));
        *count += 1.0;
        for (s, &x) in sum.iter_mut().zip(input) {
            *s += x;
        }
    }

    /// Add a block of inputs with their BMUs (`bmus[i]` is the BMU of
    /// `inputs[i]`).
    pub fn add_block(&mut self, bmus: &[usize], inputs: &[impl AsRef<[f64]>]) {
        assert_eq!(bmus.len(), inputs.len(), "one BMU per input");
        for (&bmu, x) in bmus.iter().zip(inputs) {
            self.add(bmu, x.as_ref());
        }
    }

    /// Add every input's neighborhood contribution to `acc`: for each
    /// neuron `i` and each distinct BMU `b`, `h_b,i · count_b` to the
    /// denominator and `h_b,i · Σx_b` to the numerator row. The kernel
    /// values are those of [`Kernel::eval`] on the grid distance, tabulated
    /// per grid offset; terms with `h < 1e-12` are skipped, as per input.
    /// Neurons are the outer loop, so each numerator row is written once,
    /// four BMUs per pass.
    pub fn fold_into(&self, acc: &mut BatchAccumulator, cb: &Codebook, sigma: f64, kernel: Kernel) {
        assert_eq!(acc.dims, self.dims, "accumulator dims must match");
        assert_eq!(acc.denominator.len(), cb.num_neurons(), "accumulator shape must match");
        if self.sums.is_empty() {
            return;
        }
        let h_table: Vec<f64> = (0..cb.rows)
            .flat_map(|dy| (0..cb.cols).map(move |dx| (dx, dy)))
            .map(|(dx, dy)| kernel.eval(cb.grid_offset_dist_sq(dx, dy), sigma))
            .collect();
        let bmus: Vec<((usize, usize), f64, &[f64])> = self
            .sums
            .iter()
            .map(|(&b, (count, sum))| (cb.coords(b), *count, sum.as_slice()))
            .collect();
        let mut terms: Vec<(f64, &[f64])> = Vec::with_capacity(bmus.len());
        let rows = acc.numerator.chunks_exact_mut(self.dims);
        for (n, (row, den)) in rows.zip(acc.denominator.iter_mut()).enumerate() {
            let (nx, ny) = cb.coords(n);
            terms.clear();
            for &((bx, by), count, sum) in &bmus {
                let h = h_table[by.abs_diff(ny) * cb.cols + bx.abs_diff(nx)];
                if h < 1e-12 {
                    continue; // negligible neighborhood weight
                }
                *den += h * count;
                terms.push((h, sum));
            }
            let mut groups = terms.chunks_exact(4);
            for g in &mut groups {
                let [(h0, s0), (h1, s1), (h2, s2), (h3, s3)] = [g[0], g[1], g[2], g[3]];
                let sums = s0.iter().zip(s1).zip(s2).zip(s3);
                for (r, (((a, b), c), d)) in row.iter_mut().zip(sums) {
                    *r += h0 * a + h1 * b + h2 * c + h3 * d;
                }
            }
            for &(h, sum) in groups.remainder() {
                for (r, &x) in row.iter_mut().zip(sum) {
                    *r += h * x;
                }
            }
        }
    }
}

/// Serial batch training: the reference implementation the parallel
/// version must match. Both run the same kernels (block BMU search, per-BMU
/// sums, one neighborhood fold), so the BMUs agree exactly; the parallel
/// version sums each rank's share separately and adds the accumulators,
/// which is associative only up to rounding — the comparison tests allow
/// 1e-9.
pub fn batch_train(inputs: &[Vec<f64>], config: &SomConfig) -> Codebook {
    let mut cb = init_codebook(config, inputs);
    let sigma0 = config.sigma0_for(cb.half_diagonal());
    for epoch in 0..config.epochs {
        let sigma = sigma_schedule(sigma0, config.sigma_end, config.epochs, epoch);
        let mut acc = BatchAccumulator::zeros(&cb);
        acc.accumulate_block_with(&cb, inputs, sigma, config.kernel);
        acc.apply(&mut cb);
    }
    cb
}

/// Initialize a codebook per the configuration: seeded-random weights or
/// the PCA plane of `pca_inputs` ("assigned random values or linearly
/// generated from the first two PCA eigen-vectors", §II.D). The topology
/// flag is applied either way.
///
/// # Panics
/// Panics if PCA initialization is requested with no inputs.
pub fn init_codebook(config: &SomConfig, pca_inputs: &[Vec<f64>]) -> Codebook {
    let cb = match config.init {
        InitMethod::Random => {
            let mut rng = rand_seeded(config.seed);
            Codebook::random(config.rows, config.cols, config.dims, &mut rng, 0.0, 1.0)
        }
        InitMethod::PcaPlane => {
            assert!(!pca_inputs.is_empty(), "PCA initialization needs input vectors");
            crate::pca::pca_init(pca_inputs, config.rows, config.cols)
        }
    };
    cb.with_torus(config.torus)
}

/// Deterministic RNG used across the SOM drivers so serial and parallel
/// runs initialize identical codebooks.
pub fn rand_seeded(seed: u64) -> impl rand::Rng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SomConfig {
        SomConfig { rows: 4, cols: 4, dims: 3, epochs: 8, sigma0: None, sigma_end: 1.0, seed: 9, ..SomConfig::default() }
    }

    fn clustered_inputs() -> Vec<Vec<f64>> {
        // Two tight clusters in opposite corners of the unit cube.
        let mut v = Vec::new();
        for i in 0..20 {
            let e = (i as f64) * 1e-3;
            v.push(vec![0.1 + e, 0.1, 0.1]);
            v.push(vec![0.9 - e, 0.9, 0.9]);
        }
        v
    }

    #[test]
    fn batch_update_is_order_independent() {
        let cfg = small_config();
        let inputs = clustered_inputs();
        let mut reversed = inputs.clone();
        reversed.reverse();
        // Same initial codebook, one epoch accumulated in different orders.
        let mut rng = rand_seeded(cfg.seed);
        let cb = Codebook::random(cfg.rows, cfg.cols, cfg.dims, &mut rng, 0.0, 1.0);
        let mut a1 = BatchAccumulator::zeros(&cb);
        a1.accumulate_block(&cb, &inputs, 2.0);
        let mut a2 = BatchAccumulator::zeros(&cb);
        a2.accumulate_block(&cb, &reversed, 2.0);
        for (x, y) in a1.denominator.iter().zip(&a2.denominator) {
            assert!((x - y).abs() < 1e-9);
        }
        for (x, y) in a1.numerator.iter().zip(&a2.numerator) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn merge_equals_joint_accumulation_on_split() {
        let cfg = small_config();
        let inputs = clustered_inputs();
        let mut rng = rand_seeded(cfg.seed);
        let cb = Codebook::random(cfg.rows, cfg.cols, cfg.dims, &mut rng, 0.0, 1.0);
        let mut joint = BatchAccumulator::zeros(&cb);
        joint.accumulate_block(&cb, &inputs, 3.0);
        let (left, right) = inputs.split_at(inputs.len() / 2);
        let mut a = BatchAccumulator::zeros(&cb);
        a.accumulate_block(&cb, left, 3.0);
        let mut b = BatchAccumulator::zeros(&cb);
        b.accumulate_block(&cb, right, 3.0);
        a.merge(&b);
        for (x, y) in joint.numerator.iter().zip(&a.numerator) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn codebook_converges_into_input_hull() {
        let cfg = small_config();
        let cb = batch_train(&clustered_inputs(), &cfg);
        // After training, every weight must lie within the input range
        // (convex combinations of inputs).
        for &w in &cb.weights {
            assert!(
                (0.0..=1.0).contains(&w),
                "weight {w} escaped the convex hull of inputs"
            );
        }
    }

    #[test]
    fn training_reduces_quantization_error() {
        let cfg = SomConfig { epochs: 15, ..small_config() };
        let inputs = clustered_inputs();
        let mut rng = rand_seeded(cfg.seed);
        let initial = Codebook::random(cfg.rows, cfg.cols, cfg.dims, &mut rng, 0.0, 1.0);
        let trained = batch_train(&inputs, &cfg);
        let qe = |cb: &Codebook| -> f64 {
            inputs.iter().map(|x| cb.dist_sq(cb.bmu(x), x).sqrt()).sum::<f64>()
                / inputs.len() as f64
        };
        assert!(
            qe(&trained) < 0.5 * qe(&initial),
            "training should cut quantization error: {} vs {}",
            qe(&trained),
            qe(&initial)
        );
    }

    #[test]
    fn starved_neurons_keep_weights() {
        let mut cb = Codebook::zeros(2, 2, 1);
        cb.neuron_mut(3).copy_from_slice(&[7.0]);
        let acc = BatchAccumulator::zeros(&cb);
        let mut cb2 = cb.clone();
        acc.apply(&mut cb2);
        assert_eq!(cb, cb2, "empty accumulator must not move weights");
    }

    #[test]
    fn two_clusters_map_to_distant_neurons() {
        let cfg = SomConfig { epochs: 20, ..small_config() };
        let cb = batch_train(&clustered_inputs(), &cfg);
        let b1 = cb.bmu(&[0.1, 0.1, 0.1]);
        let b2 = cb.bmu(&[0.9, 0.9, 0.9]);
        assert_ne!(b1, b2);
        assert!(cb.grid_dist_sq(b1, b2) >= 4.0, "clusters should separate on the grid");
    }
}
