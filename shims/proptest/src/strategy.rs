//! Strategy combinators for the proptest shim: value generators over a
//! seeded RNG. No shrinking — `generate` is the whole contract.

use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// A generator of values of type `Self::Value`.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Transform generated values with `f` (closure or constructor path).
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Filter generated values; rejected draws are retried (bounded).
    fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            whence,
            f,
        }
    }

    /// Type-erase this strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

trait DynStrategy<T> {
    fn generate_dyn(&self, rng: &mut StdRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn generate_dyn(&self, rng: &mut StdRng) -> S::Value {
        self.generate(rng)
    }
}

/// A type-erased strategy (`Strategy::boxed`).
pub struct BoxedStrategy<T>(Box<dyn DynStrategy<T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        self.0.generate_dyn(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// `prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// `prop_filter` adapter.
pub struct Filter<S, F> {
    inner: S,
    whence: &'static str,
    f: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;
    fn generate(&self, rng: &mut StdRng) -> S::Value {
        for _ in 0..10_000 {
            let v = self.inner.generate(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter rejected 10000 draws in a row: {}", self.whence)
    }
}

/// Weighted choice over boxed strategies (`prop_oneof!`).
pub struct Union<T> {
    options: Vec<(u32, BoxedStrategy<T>)>,
    total: u64,
}

impl<T> Union<T> {
    /// Build from `(weight, strategy)` pairs; weights must sum to > 0.
    pub fn new(options: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        let total: u64 = options.iter().map(|(w, _)| *w as u64).sum();
        assert!(total > 0, "prop_oneof! needs at least one positive weight");
        Union { options, total }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        let mut pick = rng.next_u64() % self.total;
        for (w, strat) in &self.options {
            let w = *w as u64;
            if pick < w {
                return strat.generate(rng);
            }
            pick -= w;
        }
        unreachable!("weighted pick out of range")
    }
}

// ---------------------------------------------------------------------------
// Ranges as strategies
// ---------------------------------------------------------------------------

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

impl Strategy for Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut StdRng) -> f32 {
        rng.gen_range(self.clone())
    }
}

// ---------------------------------------------------------------------------
// any::<T>()
// ---------------------------------------------------------------------------

/// Types with a canonical "whole domain" strategy.
pub trait Arbitrary: Sized {
    /// Draw from the full domain of `Self`.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut StdRng) -> Self {
        // Finite, sign-balanced; the workspace never relies on NaN/inf draws.
        let magnitude = (rng.next_u64() >> 11) as f64;
        if rng.next_u64() & 1 == 1 {
            -magnitude
        } else {
            magnitude
        }
    }
}

impl<T: Arbitrary> Arbitrary for Option<T> {
    fn arbitrary(rng: &mut StdRng) -> Self {
        // ~1 in 4 None, matching proptest's weighted default closely enough.
        if rng.next_u64().is_multiple_of(4) {
            None
        } else {
            Some(T::arbitrary(rng))
        }
    }
}

macro_rules! impl_arbitrary_tuple {
    ($($t:ident),+) => {
        impl<$($t: Arbitrary),+> Arbitrary for ($($t,)+) {
            fn arbitrary(rng: &mut StdRng) -> Self {
                ($($t::arbitrary(rng),)+)
            }
        }
    };
}

impl_arbitrary_tuple!(A, B);
impl_arbitrary_tuple!(A, B, C);
impl_arbitrary_tuple!(A, B, C, D);

/// Strategy produced by [`any`].
pub struct Any<T>(PhantomData<fn() -> T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// Full-domain strategy for `T`, mirroring `proptest::prelude::any`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

// ---------------------------------------------------------------------------
// Tuples of strategies
// ---------------------------------------------------------------------------

macro_rules! impl_tuple_strategy {
    ($($s:ident . $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A.0);
impl_tuple_strategy!(A.0, B.1);
impl_tuple_strategy!(A.0, B.1, C.2);
impl_tuple_strategy!(A.0, B.1, C.2, D.3);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6);

// ---------------------------------------------------------------------------
// collection::vec
// ---------------------------------------------------------------------------

/// Length specification for [`vec()`]: an exact `usize` or a `usize` range.
pub trait IntoLen {
    /// Draw a concrete length.
    fn draw_len(&self, rng: &mut StdRng) -> usize;
}

impl IntoLen for usize {
    fn draw_len(&self, _rng: &mut StdRng) -> usize {
        *self
    }
}

impl IntoLen for Range<usize> {
    fn draw_len(&self, rng: &mut StdRng) -> usize {
        assert!(self.start < self.end, "empty length range");
        rng.gen_range(self.clone())
    }
}

impl IntoLen for RangeInclusive<usize> {
    fn draw_len(&self, rng: &mut StdRng) -> usize {
        rng.gen_range(self.clone())
    }
}

/// Strategy for vectors of values drawn from `element`.
pub struct VecStrategy<S, L> {
    element: S,
    len: L,
}

impl<S: Strategy, L: IntoLen> Strategy for VecStrategy<S, L> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
        let n = self.len.draw_len(rng);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

/// `proptest::collection::vec`: a vector whose elements come from `element`
/// and whose length comes from `len` (exact or range).
pub fn vec<S: Strategy, L: IntoLen>(element: S, len: L) -> VecStrategy<S, L> {
    VecStrategy { element, len }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn map_and_filter_compose() {
        let mut rng = StdRng::seed_from_u64(3);
        let strat = (0u32..100)
            .prop_filter("even", |v| v % 2 == 0)
            .prop_map(|v| v + 1);
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!(v % 2 == 1 && v < 101);
        }
    }

    #[test]
    fn vec_lengths_respect_spec() {
        let mut rng = StdRng::seed_from_u64(4);
        let exact = vec(any::<u8>(), 8usize);
        let ranged = vec(any::<u8>(), 2usize..5);
        for _ in 0..50 {
            assert_eq!(exact.generate(&mut rng).len(), 8);
            let n = ranged.generate(&mut rng).len();
            assert!((2..5).contains(&n));
        }
    }
}
