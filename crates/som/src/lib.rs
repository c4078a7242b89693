//! # som — Self-Organizing Maps, online and batch
//!
//! The paper's second application is the SOM (§II.D): a K-neuron network on
//! a 2-D grid, each neuron carrying an n-dimensional weight vector; the
//! matrix of all weight vectors is the *codebook*. Two training
//! formulations are implemented:
//!
//! * **online** ([`online`]) — Eqs. 1–4: present one input at a time, move
//!   the best matching unit (BMU) and its neighborhood toward it;
//! * **batch** ([`batch`]) — Eq. 5: accumulate neighborhood-weighted sums
//!   over a whole epoch, then replace every weight vector by the ratio of
//!   accumulated numerator and denominator. "Unlike the online version, the
//!   batch algorithm is not influenced by the order in which the input
//!   vectors are presented" — which is precisely what makes it MapReduce-
//!   friendly, and what our tests pin down as an invariant.
//!
//! Supporting modules: [`codebook`] (grid and weights, random or PCA-plane
//! initialization), [`neighborhood`] (Gaussian kernel and the σ schedule
//! that shrinks "from a value no less than half of the largest diagonal of
//! the map to … the width of a single cell"), [`umatrix`] and [`quality`]
//! (U-matrix, quantization and topographic errors — Figs. 7 and 8), and
//! [`ppm`] (image output for the visual checks).

//! ```
//! use som::batch::batch_train;
//! use som::neighborhood::SomConfig;
//! use som::quality::quantization_error;
//!
//! let inputs: Vec<Vec<f64>> = (0..100)
//!     .map(|i| vec![(i % 10) as f64 / 9.0, (i / 10) as f64 / 9.0])
//!     .collect();
//! let cfg = SomConfig { rows: 5, cols: 5, dims: 2, epochs: 12, ..SomConfig::default() };
//! let map = batch_train(&inputs, &cfg);
//! assert!(quantization_error(&map, &inputs) < 0.2);
//! ```

pub mod batch;
pub mod codebook;
pub mod neighborhood;
pub mod online;
pub mod pca;
pub mod ppm;
pub mod quality;
pub mod umatrix;

pub use batch::{batch_train, init_codebook, BatchAccumulator, BmuSums};
pub use codebook::Codebook;
pub use neighborhood::{gaussian, sigma_schedule, InitMethod, Kernel, SomConfig};
pub use online::online_train;
