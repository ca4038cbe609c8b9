//! Value-generation strategies.

use crate::test_runner::TestRng;
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

/// A recipe for generating random values of `Self::Value`.
///
/// Object safe: `generate` takes `&self`, and the combinators are gated on
/// `Self: Sized`, so `dyn Strategy<Value = T>` works (that is what
/// [`BoxedStrategy`] wraps).
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map {
            source: self,
            func: f,
        }
    }

    /// Erase the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

/// Always produce a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// The result of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    source: S,
    func: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.func)(self.source.generate(rng))
    }
}

/// A type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

impl<T> std::fmt::Debug for BoxedStrategy<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("BoxedStrategy")
    }
}

/// Weighted choice among alternatives (built by `prop_oneof!`).
#[derive(Clone)]
pub struct Union<T> {
    options: Vec<(u32, BoxedStrategy<T>)>,
    total: u64,
}

impl<T> Union<T> {
    /// Build from `(weight, strategy)` pairs; weights must not all be zero.
    pub fn new(options: Vec<(u32, BoxedStrategy<T>)>) -> Union<T> {
        let total: u64 = options.iter().map(|(w, _)| *w as u64).sum();
        assert!(total > 0, "prop_oneof! requires a positive total weight");
        Union { options, total }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.below(self.total);
        for (w, strat) in &self.options {
            if pick < *w as u64 {
                return strat.generate(rng);
            }
            pick -= *w as u64;
        }
        unreachable!("weights sum to total")
    }
}

/// Uniformly random `bool` (see `prop::bool::ANY`).
#[derive(Debug, Clone, Copy)]
pub struct BoolStrategy;

impl Strategy for BoolStrategy {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.below(2) == 1
    }
}

macro_rules! int_range_strategies {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as i128) - (self.start as i128);
                assert!(span > 0, "empty range strategy");
                let off = rng.below(span as u64) as i128;
                ((self.start as i128) + off) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (*self.end() as i128) - (*self.start() as i128) + 1;
                assert!(span > 0, "empty range strategy");
                let off = rng.below(span as u64) as i128;
                ((*self.start() as i128) + off) as $t
            }
        }
    )*};
}

int_range_strategies!(i8, i16, i32, i64, u8, u16, u32, usize);

macro_rules! tuple_strategies {
    ($(($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategies! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// How many elements `vec` should generate.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    max_excl: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> SizeRange {
        SizeRange {
            min: n,
            max_excl: n + 1,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> SizeRange {
        assert!(r.end > r.start, "empty size range");
        SizeRange {
            min: r.start,
            max_excl: r.end,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> SizeRange {
        SizeRange {
            min: *r.start(),
            max_excl: *r.end() + 1,
        }
    }
}

/// The result of [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    elem: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.max_excl - self.size.min) as u64;
        let len = self.size.min + rng.below(span.max(1)) as usize;
        (0..len).map(|_| self.elem.generate(rng)).collect()
    }
}

/// A strategy for `Vec`s of `elem` values with a length drawn from `size`.
pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        elem,
        size: size.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::deterministic("ranges", 0);
        for _ in 0..200 {
            let v = (-6i64..6).generate(&mut rng);
            assert!((-6..6).contains(&v));
            let u = (0u32..3).generate(&mut rng);
            assert!(u < 3);
            let w = (-3i64..=3).generate(&mut rng);
            assert!((-3..=3).contains(&w));
        }
    }

    #[test]
    fn union_respects_zero_weight_ordering() {
        let mut rng = TestRng::deterministic("union", 0);
        let s = prop_oneof![3 => Just(1u8), 1 => Just(2u8)];
        let mut saw = [false; 3];
        for _ in 0..100 {
            saw[s.generate(&mut rng) as usize] = true;
        }
        assert!(saw[1] && saw[2]);
    }

    #[test]
    fn vec_lengths_respect_size_range() {
        let mut rng = TestRng::deterministic("vec", 0);
        for _ in 0..100 {
            let v = vec(0i32..5, 2..4).generate(&mut rng);
            assert!(v.len() == 2 || v.len() == 3);
            let exact = vec(0i32..5, 3usize).generate(&mut rng);
            assert_eq!(exact.len(), 3);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn macro_generates_and_runs(a in 0i64..10, (b, flip) in (0i64..10, prop::bool::ANY)) {
            prop_assert!(a < 10 && b < 10);
            let picked = if flip { a } else { b };
            prop_assert!((0..10).contains(&picked));
        }
    }
}
