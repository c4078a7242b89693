//! SOM quality metrics: quantization error and topographic error.
//!
//! Used by the figure harness to certify that parallel runs train maps of
//! the same quality as serial runs (the paper relies on visual inspection —
//! Figs. 7/8; we report numbers too).

use crate::codebook::Codebook;

/// Mean Euclidean distance between each input and its BMU weight vector.
pub fn quantization_error(cb: &Codebook, inputs: &[Vec<f64>]) -> f64 {
    if inputs.is_empty() {
        return 0.0;
    }
    let bmus = cb.bmus(inputs);
    inputs.iter().zip(bmus).map(|(x, b)| cb.dist_sq(b, x).sqrt()).sum::<f64>()
        / inputs.len() as f64
}

/// Fraction of inputs whose best and second-best matching units are *not*
/// grid neighbors (8-connected) — a topology-preservation measure.
pub fn topographic_error(cb: &Codebook, inputs: &[Vec<f64>]) -> f64 {
    if inputs.is_empty() {
        return 0.0;
    }
    let mut errors = 0usize;
    for x in inputs {
        let (b1, b2) = best_two(cb, x);
        let (x1, y1) = cb.coords(b1);
        let (x2, y2) = cb.coords(b2);
        let adjacent = x1.abs_diff(x2) <= 1 && y1.abs_diff(y2) <= 1;
        if !adjacent {
            errors += 1;
        }
    }
    errors as f64 / inputs.len() as f64
}

/// Indices of the two closest neurons to `input`.
fn best_two(cb: &Codebook, input: &[f64]) -> (usize, usize) {
    let (mut b1, mut b2) = (0usize, 0usize);
    let (mut d1, mut d2) = (f64::INFINITY, f64::INFINITY);
    for n in 0..cb.num_neurons() {
        let d = cb.dist_sq(n, input);
        if d < d1 {
            b2 = b1;
            d2 = d1;
            b1 = n;
            d1 = d;
        } else if d < d2 {
            b2 = n;
            d2 = d;
        }
    }
    (b1, b2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::batch_train;
    use crate::neighborhood::SomConfig;

    #[test]
    fn quantization_error_zero_for_perfect_codebook() {
        let mut cb = Codebook::zeros(1, 2, 2);
        cb.neuron_mut(0).copy_from_slice(&[0.0, 0.0]);
        cb.neuron_mut(1).copy_from_slice(&[1.0, 1.0]);
        let inputs = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
        assert_eq!(quantization_error(&cb, &inputs), 0.0);
    }

    #[test]
    fn empty_inputs_are_zero_error() {
        let cb = Codebook::zeros(2, 2, 2);
        assert_eq!(quantization_error(&cb, &[]), 0.0);
        assert_eq!(topographic_error(&cb, &[]), 0.0);
    }

    #[test]
    fn best_two_distinct() {
        let mut cb = Codebook::zeros(1, 3, 1);
        cb.neuron_mut(0)[0] = 0.0;
        cb.neuron_mut(1)[0] = 1.0;
        cb.neuron_mut(2)[0] = 5.0;
        let (b1, b2) = best_two(&cb, &[0.9]);
        assert_eq!(b1, 1);
        assert_eq!(b2, 0);
    }

    #[test]
    fn trained_map_has_low_topographic_error() {
        // A trained SOM on 2-D data matching the grid topology should map
        // best and second-best units adjacent for most inputs. (1-D data
        // would force the 2-D grid to fold and inflate this metric.)
        let inputs: Vec<Vec<f64>> = (0..225)
            .map(|i| {
                let x = (i % 15) as f64 / 14.0;
                let y = (i / 15) as f64 / 14.0;
                vec![x, y]
            })
            .collect();
        let cfg =
            SomConfig { rows: 6, cols: 6, dims: 2, epochs: 25, sigma0: None, sigma_end: 1.0, seed: 3, ..SomConfig::default() };
        let cb = batch_train(&inputs, &cfg);
        let te = topographic_error(&cb, &inputs);
        assert!(te < 0.35, "topographic error too high: {te}");
    }
}
