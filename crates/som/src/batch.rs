//! Batch SOM training (Eq. 5) — the formulation the paper parallelizes.
//!
//! One epoch: for every input vector find its BMU against the *epoch-start*
//! codebook, accumulate `h_bmu,i · x` into the numerator and `h_bmu,i` into
//! the denominator of every neuron `i`, then set each weight vector to
//! numerator / denominator. The accumulation is a sum over inputs, hence
//! order-independent and splittable across workers — the parallel driver in
//! the `mrbio` crate sums per-rank accumulators with `MPI_Reduce`, exactly
//! as Fig. 2 of the paper shows.

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
        self.accumulate_at(cb, input, cb.bmu(input), sigma, kernel);
    }

    /// Accumulate one input vector whose BMU against `cb` is already known:
    /// the neighborhood half of [`BatchAccumulator::accumulate_with`], for
    /// callers that search BMUs and fold contributions at different times.
    pub fn accumulate_at(
        &mut self,
        cb: &Codebook,
        input: &[f64],
        bmu: usize,
        sigma: f64,
        kernel: Kernel,
    ) {
        for n in 0..cb.num_neurons() {
            let h = kernel.eval(cb.grid_dist_sq(bmu, n), sigma);
            if h < 1e-12 {
                continue; // negligible neighborhood weight
            }
            self.denominator[n] += h;
            let row = &mut self.numerator[n * self.dims..(n + 1) * self.dims];
            for (acc, &x) in row.iter_mut().zip(input) {
                *acc += h * x;
            }
        }
    }

    /// Accumulate a block of inputs (a MapReduce work unit).
    pub fn accumulate_block(&mut self, cb: &Codebook, inputs: &[Vec<f64>], sigma: f64) {
        for x in inputs {
            self.accumulate(cb, x, sigma);
        }
    }

    /// Accumulate a block with an explicit kernel.
    pub fn accumulate_block_with(
        &mut self,
        cb: &Codebook,
        inputs: &[Vec<f64>],
        sigma: f64,
        kernel: Kernel,
    ) {
        for x in inputs {
            self.accumulate_with(cb, x, sigma, kernel);
        }
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

/// Serial batch training: the reference implementation the parallel version
/// must match bit-for-bit (floating-point summation order inside one epoch
/// is per-neuron accumulation in input order; the parallel version preserves
/// it within blocks and sums block results, which is associative only up to
/// rounding — the comparison tests use an exact block split that keeps
/// summation order identical, plus epsilon comparisons elsewhere).
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
