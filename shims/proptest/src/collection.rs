//! Collection strategies: `vec(element, size)`.

use std::ops::{Range, RangeInclusive};

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// The accepted size specifications for [`vec()`].
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi_inclusive: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi_inclusive: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty vec size range");
        SizeRange { lo: r.start, hi_inclusive: r.end - 1 }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty vec size range");
        SizeRange { lo: *r.start(), hi_inclusive: *r.end() }
    }
}

/// Strategy for `Vec<E>` with lengths drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy { element, size: size.into() }
}

/// See [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.hi_inclusive - self.size.lo) as u64 + 1;
        let len = self.size.lo + rng.below(span) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_sizes_exact_and_ranged() {
        let mut rng = TestRng::from_seed(4);
        for _ in 0..100 {
            let v = vec(0u8..255, 3).generate(&mut rng);
            assert_eq!(v.len(), 3);
            let w = vec(0.0f64..1.0, 1..30).generate(&mut rng);
            assert!((1..30).contains(&w.len()));
            let nested = vec(vec(0u32..10, 0..4), 0..6).generate(&mut rng);
            assert!(nested.len() < 6);
        }
    }
}
