//! Offline stand-in for the subset of the `proptest` crate this
//! workspace uses.
//!
//! The build environment has no access to a crate registry, so the
//! property tests run on this minimal, API-compatible implementation:
//! a [`strategy::Strategy`] trait with `prop_map`/`prop_flat_map`,
//! range/tuple/[`strategy::Just`]/[`any`] strategies, the
//! [`collection`] builders, and the [`proptest!`]/[`prop_oneof!`]/
//! `prop_assert*` macros. Unlike the real crate there is **no input
//! shrinking** — a failing case panics with its case number, and the
//! deterministic per-test seed makes every failure reproducible.

#![forbid(unsafe_code)]

pub use strategy::{any, Just, Strategy};

/// Test-runner configuration and deterministic RNG.
pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// Configuration accepted by `#![proptest_config(..)]`.
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases per property.
        #[must_use]
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 256 }
        }
    }

    /// The deterministic generator driving strategy sampling.
    #[derive(Clone, Debug)]
    pub struct TestRng(StdRng);

    impl TestRng {
        /// Creates the generator for one property, seeded from its name
        /// so failures reproduce across runs.
        #[must_use]
        pub fn deterministic(name: &str) -> Self {
            let mut seed = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                seed ^= u64::from(b);
                seed = seed.wrapping_mul(0x0000_0100_0000_01B3);
            }
            Self(StdRng::seed_from_u64(seed))
        }
    }

    impl RngCore for TestRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    /// A generator of random values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Samples one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Builds a dependent strategy from each generated value.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }

        /// Type-erases the strategy (used by
        /// [`prop_oneof!`](crate::prop_oneof)).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// A boxed, type-erased strategy.
    pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            self.0.sample(rng)
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;

        fn sample(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.inner.sample(rng)).sample(rng)
        }
    }

    /// Always generates a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice between boxed alternatives (built by
    /// [`prop_oneof!`](crate::prop_oneof)).
    pub struct OneOf<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> OneOf<T> {
        /// Creates the union of the given alternatives.
        ///
        /// # Panics
        /// Panics if `arms` is empty.
        #[must_use]
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Self { arms }
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            let k = rng.gen_range(0..self.arms.len());
            self.arms[k].sample(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;

        fn sample(&self, rng: &mut TestRng) -> f64 {
            rng.gen_range(self.clone())
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, G);

    /// Types with a canonical full-domain strategy (see [`any`]).
    pub trait ArbValue {
        /// Samples an unconstrained value.
        fn arb(rng: &mut TestRng) -> Self;
    }

    impl ArbValue for bool {
        fn arb(rng: &mut TestRng) -> bool {
            rng.gen_range(0u32..2) == 1
        }
    }

    macro_rules! impl_arb_int {
        ($($t:ty),*) => {$(
            impl ArbValue for $t {
                fn arb(rng: &mut TestRng) -> $t {
                    use rand::RngCore;
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

    /// The strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: ArbValue> Strategy for Any<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            T::arb(rng)
        }
    }

    /// The full-domain strategy for `T` (`any::<u32>()`, `any::<bool>()`).
    #[must_use]
    pub fn any<T: ArbValue>() -> Any<T> {
        Any(PhantomData)
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::collections::BTreeSet;
    use std::ops::{Range, RangeInclusive};

    /// Length specifications accepted by the collection builders.
    pub trait SizeRange {
        /// Samples a target length.
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub struct VecStrategy<S, L> {
        element: S,
        size: L,
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.sample_len(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Generates vectors of `element` values with a length in `size`.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, size: L) -> VecStrategy<S, L> {
        VecStrategy { element, size }
    }

    /// Strategy for `BTreeSet<S::Value>` (distinct elements).
    pub struct BTreeSetStrategy<S, L> {
        element: S,
        size: L,
    }

    impl<S, L> Strategy for BTreeSetStrategy<S, L>
    where
        S: Strategy,
        S::Value: Ord,
        L: SizeRange,
    {
        type Value = BTreeSet<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.sample_len(rng);
            let mut set = BTreeSet::new();
            // Bounded retries: a narrow element domain may not be able to
            // supply `target` distinct values.
            for _ in 0..(target * 10 + 32) {
                if set.len() >= target {
                    break;
                }
                set.insert(self.element.sample(rng));
            }
            set
        }
    }

    /// Generates sets of distinct `element` values with a size in `size`.
    pub fn btree_set<S, L>(element: S, size: L) -> BTreeSetStrategy<S, L>
    where
        S: Strategy,
        S::Value: Ord,
        L: SizeRange,
    {
        BTreeSetStrategy { element, size }
    }
}

/// The common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Asserts a condition inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Declares property tests: each `name(binding in strategy, ..)` runs
/// `cases` times with freshly sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $( $(#[$meta:meta])*
         fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng =
                    $crate::test_runner::TestRng::deterministic(stringify!($name));
                for case in 0..config.cases {
                    let run = || {
                        $(let $arg =
                            $crate::strategy::Strategy::sample(&($strat), &mut rng);)+
                        $body
                    };
                    if let Err(panic) = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(run),
                    ) {
                        eprintln!(
                            "proptest case {case}/{} of `{}` failed",
                            config.cases,
                            stringify!($name),
                        );
                        ::std::panic::resume_unwind(panic);
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Tag {
        X,
        Y,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(a in 3u32..17, b in -4i32..4, f in -1.0f64..1.0) {
            prop_assert!((3..17).contains(&a));
            prop_assert!((-4..4).contains(&b));
            prop_assert!((-1.0..1.0).contains(&f));
        }

        #[test]
        fn oneof_and_map(t in prop_oneof![Just(Tag::X), Just(Tag::Y)],
                         v in (0u8..4, 0u8..4).prop_map(|(x, y)| x + y)) {
            prop_assert!(t == Tag::X || t == Tag::Y);
            prop_assert!(v < 7);
        }

        #[test]
        fn collections_respect_sizes(
            v in crate::collection::vec(0u32..100, 2..9),
            s in crate::collection::btree_set(0usize..1000, 0..=5),
        ) {
            prop_assert!((2..9).contains(&v.len()));
            prop_assert!(s.len() <= 5);
        }

        #[test]
        fn flat_map_links_values(
            pair in (1usize..8).prop_flat_map(|n| {
                (Just(n), crate::collection::vec(0u8..255, n))
            }),
        ) {
            prop_assert_eq!(pair.0, pair.1.len());
        }
    }

    #[test]
    fn deterministic_sampling() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let s = (0u32..1000, 0u32..1000);
        let mut r1 = TestRng::deterministic("t");
        let mut r2 = TestRng::deterministic("t");
        for _ in 0..32 {
            assert_eq!(s.sample(&mut r1), s.sample(&mut r2));
        }
    }
}
