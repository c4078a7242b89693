//! The codebook: a 2-D grid of weight vectors.
//!
//! "Each neuron is defined by its X,Y position in the map and by an
//! n-dimensional vector assigned to it ('weight vector' or 'code-vector').
//! The matrix of all K weight-vectors forms the complete description of the
//! SOM called the codebook." (§II.D)

use rand::Rng;

/// Bytes of input vectors per tile of [`Codebook::bmus`]: 16 256-d vectors,
/// which stay in a 48 KB L1 data cache next to the weight row in flight.
const BMU_TILE_BYTES: usize = 32 * 1024;

/// Independent accumulators per dot product: enough sums in flight to hide
/// the latency of the vector adds.
const LANES: usize = 8;

/// `a·b` over [`LANES`] independent lane sums (which LLVM vectorizes along
/// the lanes), then the tail past the last full chunk.
#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let (ac, bc) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let tail: f64 = ac.remainder().iter().zip(bc.remainder()).map(|(x, y)| x * y).sum();
    for (a, b) in ac.zip(bc) {
        for ((s, &x), &y) in acc.iter_mut().zip(a).zip(b) {
            *s += x * y;
        }
    }
    lane_sum(&acc) + tail
}

/// Pairwise sum of the lanes, in a fixed order.
#[inline]
fn lane_sum(a: &[f64; LANES]) -> f64 {
    ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]))
}

/// A rows × cols grid of `dims`-dimensional weight vectors, stored row-major
/// in one flat buffer (neuron `(x, y)` at index `y * cols + x`).
#[derive(Debug, Clone, PartialEq)]
pub struct Codebook {
    /// Grid height.
    pub rows: usize,
    /// Grid width.
    pub cols: usize,
    /// Weight vector dimensionality.
    pub dims: usize,
    /// Flat weights, `rows * cols * dims` values.
    pub weights: Vec<f64>,
    /// Toroidal (wrap-around) grid topology. Planar by default; toroidal
    /// maps avoid border effects on periodic data (a standard SOM option,
    /// e.g. in somoclu).
    pub torus: bool,
}

impl Codebook {
    /// Zero-initialized codebook.
    pub fn zeros(rows: usize, cols: usize, dims: usize) -> Self {
        assert!(rows > 0 && cols > 0 && dims > 0, "degenerate codebook shape");
        Codebook { rows, cols, dims, weights: vec![0.0; rows * cols * dims], torus: false }
    }

    /// Random initialization with weights uniform in `[lo, hi)` —
    /// "initially all weight vectors are either assigned random values or
    /// linearly generated from the first two PCA eigen-vectors".
    pub fn random(rows: usize, cols: usize, dims: usize, rng: &mut impl Rng, lo: f64, hi: f64) -> Self {
        let mut cb = Self::zeros(rows, cols, dims);
        for w in cb.weights.iter_mut() {
            *w = lo + (hi - lo) * rng.random::<f64>();
        }
        cb
    }

    /// Switch the grid to toroidal topology (chainable).
    pub fn with_torus(mut self, torus: bool) -> Self {
        self.torus = torus;
        self
    }

    /// Number of neurons.
    pub fn num_neurons(&self) -> usize {
        self.rows * self.cols
    }

    /// Grid coordinates of neuron `idx`.
    #[inline]
    pub fn coords(&self, idx: usize) -> (usize, usize) {
        (idx % self.cols, idx / self.cols)
    }

    /// Weight vector of neuron `idx`.
    #[inline]
    pub fn neuron(&self, idx: usize) -> &[f64] {
        &self.weights[idx * self.dims..(idx + 1) * self.dims]
    }

    /// Mutable weight vector of neuron `idx`.
    #[inline]
    pub fn neuron_mut(&mut self, idx: usize) -> &mut [f64] {
        &mut self.weights[idx * self.dims..(idx + 1) * self.dims]
    }

    /// Squared Euclidean distance between neuron `idx` and `input` (Eq. 1;
    /// the square root is monotone, so BMU selection uses squares).
    #[inline]
    pub fn dist_sq(&self, idx: usize, input: &[f64]) -> f64 {
        debug_assert_eq!(input.len(), self.dims);
        self.neuron(idx).iter().zip(input).map(|(w, x)| (w - x) * (w - x)).sum()
    }

    /// Best matching unit for `input` (Eq. 2): [`Codebook::bmus`] on a
    /// block of one.
    pub fn bmu(&self, input: &[f64]) -> usize {
        self.bmus(&[input])[0]
    }

    /// Best matching units for a block of inputs (Eq. 2), as blocked dense
    /// linear algebra: `‖x − w‖² = ‖x‖² + ‖w‖² − 2·x·w`, and `‖x‖²` does not
    /// depend on the neuron, so the BMU of `x` is the argmin over neurons of
    /// `‖w‖² − 2·x·w`. Neuron norms are computed once per call. Neurons are
    /// the outer loop; the inputs are taken in tiles that stay in L1, and
    /// each weight row, once loaded, is scored against the whole tile.
    ///
    /// Ties resolve to the lowest neuron index: the paper breaks ties
    /// randomly, but a deterministic rule is required for the parallel ==
    /// serial tests, and with continuous inputs ties have measure zero. An
    /// input's scores do not depend on the other inputs in the block, so
    /// neither does its BMU.
    ///
    /// # Panics
    /// Panics if an input's length differs from `dims`.
    pub fn bmus(&self, inputs: &[impl AsRef<[f64]>]) -> Vec<usize> {
        for x in inputs {
            assert_eq!(x.as_ref().len(), self.dims, "input dims must match the codebook");
        }
        let norms: Vec<f64> = (0..self.num_neurons())
            .map(|n| {
                let w = self.neuron(n);
                dot(w, w)
            })
            .collect();
        let tile = (BMU_TILE_BYTES / (8 * self.dims)).max(1);
        let mut best = vec![(f64::INFINITY, 0usize); inputs.len()];
        for (xs, best) in inputs.chunks(tile).zip(best.chunks_mut(tile)) {
            for (n, &norm) in norms.iter().enumerate() {
                let w = self.neuron(n);
                for (x, slot) in xs.iter().zip(best.iter_mut()) {
                    let score = norm - 2.0 * dot(w, x.as_ref());
                    if score < slot.0 {
                        *slot = (score, n);
                    }
                }
            }
        }
        best.into_iter().map(|(_, n)| n).collect()
    }

    /// Squared distance between two neurons in *grid* space (respecting the
    /// torus topology when enabled).
    #[inline]
    pub fn grid_dist_sq(&self, a: usize, b: usize) -> f64 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        self.grid_offset_dist_sq(ax.abs_diff(bx), ay.abs_diff(by))
    }

    /// Squared grid distance spanned by a column offset `dx` and a row
    /// offset `dy` (`dx < cols`, `dy < rows`); on a torus each offset wraps
    /// to the shorter way round.
    #[inline]
    pub(crate) fn grid_offset_dist_sq(&self, dx: usize, dy: usize) -> f64 {
        let mut dx = dx as f64;
        let mut dy = dy as f64;
        if self.torus {
            dx = dx.min(self.cols as f64 - dx);
            dy = dy.min(self.rows as f64 - dy);
        }
        dx * dx + dy * dy
    }

    /// Half of the largest grid diagonal — the paper's starting width for
    /// the neighborhood function.
    pub fn half_diagonal(&self) -> f64 {
        let w = (self.cols - 1) as f64;
        let h = (self.rows - 1) as f64;
        0.5 * (w * w + h * h).sqrt()
    }

    /// Serialize to the codebook wire format (little-endian; magic + shape
    /// header + torus flag + weights). The inverse of
    /// [`Codebook::from_bytes`]; this is what [`Codebook::save`] writes and
    /// what durable checkpoint records carry.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(33 + self.weights.len() * 8);
        out.extend_from_slice(b"SOMCBK01");
        for v in [self.rows as u64, self.cols as u64, self.dims as u64] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.push(u8::from(self.torus));
        for x in &self.weights {
            out.extend_from_slice(&x.to_le_bytes());
        }
        out
    }

    /// Decode a codebook serialized by [`Codebook::to_bytes`]. `None` on any
    /// malformed input: wrong magic, degenerate shape, or a length that does
    /// not match the header exactly (no trailing bytes tolerated).
    pub fn from_bytes(bytes: &[u8]) -> Option<Codebook> {
        let rest = bytes.strip_prefix(b"SOMCBK01")?;
        if rest.len() < 25 {
            return None;
        }
        let u64_at = |i: usize| -> usize {
            u64::from_le_bytes(rest[i * 8..i * 8 + 8].try_into().expect("8 bytes")) as usize
        };
        let (rows, cols, dims) = (u64_at(0), u64_at(1), u64_at(2));
        if rows == 0 || cols == 0 || dims == 0 {
            return None;
        }
        let nweights = rows.checked_mul(cols)?.checked_mul(dims)?;
        let wbuf = &rest[25..];
        if wbuf.len() != nweights.checked_mul(8)? {
            return None;
        }
        let mut cb = Codebook::zeros(rows, cols, dims);
        cb.torus = rest[24] != 0;
        for (i, c) in wbuf.chunks_exact(8).enumerate() {
            cb.weights[i] = f64::from_le_bytes(c.try_into().expect("8 bytes"));
        }
        Some(cb)
    }

    /// Save the codebook to a binary file (the [`Codebook::to_bytes`]
    /// format). Used for checkpointing and for shipping trained maps.
    ///
    /// # Errors
    /// IO errors.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Load a codebook saved by [`Codebook::save`].
    ///
    /// # Errors
    /// IO errors; `InvalidData` on a malformed file.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Codebook> {
        let bytes = std::fs::read(path)?;
        Codebook::from_bytes(&bytes).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "not a codebook file")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(7)
    }

    #[test]
    fn shapes_and_indexing() {
        let cb = Codebook::zeros(3, 5, 2);
        assert_eq!(cb.num_neurons(), 15);
        assert_eq!(cb.coords(0), (0, 0));
        assert_eq!(cb.coords(4), (4, 0));
        assert_eq!(cb.coords(5), (0, 1));
        assert_eq!(cb.coords(14), (4, 2));
        assert_eq!(cb.neuron(7).len(), 2);
    }

    #[test]
    fn random_init_within_range() {
        let cb = Codebook::random(4, 4, 3, &mut rng(), -1.0, 1.0);
        assert!(cb.weights.iter().all(|&w| (-1.0..1.0).contains(&w)));
        // And not all equal.
        assert!(cb.weights.iter().any(|&w| w != cb.weights[0]));
    }

    #[test]
    fn bmu_finds_nearest() {
        let mut cb = Codebook::zeros(2, 2, 2);
        cb.neuron_mut(0).copy_from_slice(&[0.0, 0.0]);
        cb.neuron_mut(1).copy_from_slice(&[1.0, 0.0]);
        cb.neuron_mut(2).copy_from_slice(&[0.0, 1.0]);
        cb.neuron_mut(3).copy_from_slice(&[1.0, 1.0]);
        assert_eq!(cb.bmu(&[0.1, 0.1]), 0);
        assert_eq!(cb.bmu(&[0.9, 0.2]), 1);
        assert_eq!(cb.bmu(&[0.2, 0.9]), 2);
        assert_eq!(cb.bmu(&[0.8, 0.8]), 3);
    }

    #[test]
    fn bmu_tie_breaks_to_lowest_index() {
        let cb = Codebook::zeros(2, 2, 2); // all neurons identical
        assert_eq!(cb.bmu(&[5.0, 5.0]), 0);
    }

    #[test]
    fn grid_distance() {
        let cb = Codebook::zeros(4, 4, 1);
        let a = 0; // (0,0)
        let b = 15; // (3,3)
        assert_eq!(cb.grid_dist_sq(a, b), 18.0);
        assert_eq!(cb.grid_dist_sq(a, a), 0.0);
    }

    #[test]
    fn toroidal_distance_wraps() {
        let cb = Codebook::zeros(4, 4, 1).with_torus(true);
        // (0,0) to (3,3): planar 18, toroidal wraps both axes to (1,1) = 2.
        assert_eq!(cb.grid_dist_sq(0, 15), 2.0);
        // (0,0) to (2,0): no benefit from wrapping a 4-wide axis (2 == 4-2).
        assert_eq!(cb.grid_dist_sq(0, 2), 4.0);
        // Corners are neighbors on a torus.
        assert_eq!(cb.grid_dist_sq(0, 3), 1.0);
    }

    #[test]
    fn half_diagonal_matches_paper_definition() {
        let cb = Codebook::zeros(50, 50, 1);
        let d = cb.half_diagonal();
        assert!((d - 0.5 * (2.0f64 * 49.0 * 49.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn save_load_roundtrip() {
        let mut cb = Codebook::random(5, 7, 3, &mut rng(), -2.0, 2.0).with_torus(true);
        cb.neuron_mut(0)[0] = 123.456;
        let path = std::env::temp_dir().join(format!("cb-test-{}.bin", std::process::id()));
        cb.save(&path).unwrap();
        let back = Codebook::load(&path).unwrap();
        assert_eq!(back, cb);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_garbage() {
        let path = std::env::temp_dir().join(format!("cb-bad-{}.bin", std::process::id()));
        std::fs::write(&path, b"nonsense").unwrap();
        assert!(Codebook::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_dims_rejected() {
        let _ = Codebook::zeros(1, 1, 0);
    }

    #[test]
    fn bytes_roundtrip_and_reject_malformed() {
        let cb = Codebook::random(3, 4, 2, &mut rng(), -1.0, 1.0).with_torus(true);
        let bytes = cb.to_bytes();
        assert_eq!(Codebook::from_bytes(&bytes), Some(cb));
        // Truncation at any boundary is rejected, never misread.
        assert_eq!(Codebook::from_bytes(&bytes[..bytes.len() - 1]), None);
        assert_eq!(Codebook::from_bytes(&bytes[..10]), None);
        assert_eq!(Codebook::from_bytes(b""), None);
        // Trailing bytes are rejected too.
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(Codebook::from_bytes(&longer), None);
        // A corrupted shape header cannot allocate a bogus codebook.
        let mut bad = bytes;
        bad[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(Codebook::from_bytes(&bad), None);
    }
}
