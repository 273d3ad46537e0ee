//! Offline stand-in for [`proptest`](https://crates.io/crates/proptest).
//!
//! Implements the subset of proptest this workspace's property tests use:
//! the [`Strategy`] trait with [`Strategy::prop_map`], [`any`], integer
//! range strategies, tuple strategies, [`collection::vec`], [`option::of`],
//! the [`prop_oneof!`] union, [`ProptestConfig`], [`TestCaseError`], and the
//! `proptest!` / `prop_assert*` macros.
//!
//! Differences from the real crate, by design:
//!
//! * **No shrinking.** A failing case reports its inputs-by-seed (the case
//!   number and derived seed are printed) but is not minimized.
//! * **Deterministic seeding.** Case `i` of test `name` always sees the same
//!   input stream, so CI failures reproduce locally without a persistence
//!   file.
//!
//! Neither difference affects whether a property holds.

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

/// Deterministic generator driving test-case generation. Wraps the sibling
/// `rand` shim's `SmallRng` (the real proptest also builds on `rand`), so
/// there is a single PRNG implementation across the shims.
#[derive(Clone, Debug)]
pub struct TestRng(rand::rngs::SmallRng);

impl TestRng {
    /// Builds a generator from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        use rand::SeedableRng;
        TestRng(rand::rngs::SmallRng::seed_from_u64(seed))
    }

    /// Returns the next 64-bit word of the stream.
    pub fn next_u64(&mut self) -> u64 {
        use rand::RngCore;
        self.0.next_u64()
    }

    /// Uniform value in `[0, bound)`. Panics when `bound == 0`.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "below: bound must be positive");
        (self.next_u64() % bound as u64) as usize
    }
}

// ---------------------------------------------------------------------------
// Strategy core
// ---------------------------------------------------------------------------

/// A recipe for generating values of one type.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Produces one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Types with a canonical "generate anything" strategy.
pub trait Arbitrary {
    /// Produces an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),* $(,)?) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for u128 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`any`].
#[derive(Clone, Copy, Debug)]
pub struct AnyStrategy<T>(pub(crate) PhantomData<fn() -> T>);

/// Strategy generating any value of `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(PhantomData)
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

// Integer ranges are strategies, as in the real crate.
macro_rules! impl_range_strategy {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u128) - (self.start as u128);
                self.start + ((rng.next_u64() as u128 % span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u128) - (lo as u128) + 1;
                lo + ((rng.next_u64() as u128 % span) as $t)
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// A boxed generator arm of a [`Union`].
type UnionArm<T> = Box<dyn Fn(&mut TestRng) -> T>;

/// Uniform choice between boxed alternatives; built by [`prop_oneof!`].
pub struct Union<T> {
    arms: Vec<UnionArm<T>>,
}

impl<T> Union<T> {
    /// Creates an empty union (generate panics until an arm is added).
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Union { arms: Vec::new() }
    }

    /// Adds one alternative.
    pub fn or<S>(mut self, strategy: S) -> Self
    where
        S: Strategy<Value = T> + 'static,
    {
        self.arms.push(Box::new(move |rng| strategy.generate(rng)));
        self
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        assert!(!self.arms.is_empty(), "prop_oneof! needs at least one arm");
        let idx = rng.below(self.arms.len());
        (self.arms[idx])(rng)
    }
}

// ---------------------------------------------------------------------------
// Collection / option strategies
// ---------------------------------------------------------------------------

/// Collection strategies (`Vec` only in this shim).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Inclusive length bounds for generated collections.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates a `Vec` whose length is drawn from `size` and whose
    /// elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = self.size.hi - self.size.lo + 1;
            let len = self.size.lo + rng.below(span);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Option strategies.
pub mod option {
    use super::{Strategy, TestRng};

    /// Strategy returned by [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// Generates `Some` (with probability 1/2) of the inner strategy's
    /// value, else `None`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            if rng.next_u64() & 1 == 0 {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }
}

/// Strategy that always produces (a clone of) one value, mirroring
/// `proptest::strategy::Just`.
#[derive(Clone, Copy, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Value-sampling strategies, mirroring `proptest::sample`.
pub mod sample {
    use crate::{Strategy, TestRng};

    /// Uniform choice from a fixed set of values; built by [`select`].
    #[derive(Clone, Debug)]
    pub struct Select<T: Clone>(Vec<T>);

    /// Uniformly selects one of `values` (which must be non-empty).
    pub fn select<T: Clone>(values: Vec<T>) -> Select<T> {
        assert!(!values.is_empty(), "select needs at least one value");
        Select(values)
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0[rng.below(self.0.len())].clone()
        }
    }
}

/// Namespaced strategy constants, mirroring `proptest::prop`.
pub mod prop {
    pub use crate::sample;

    /// Numeric strategies.
    pub mod num {
        /// `u8` strategies.
        pub mod u8 {
            use std::marker::PhantomData;

            /// Any `u8`.
            pub const ANY: crate::AnyStrategy<u8> = crate::AnyStrategy(PhantomData);
        }

        /// `u64` strategies.
        pub mod u64 {
            use std::marker::PhantomData;

            /// Any `u64`.
            pub const ANY: crate::AnyStrategy<u64> = crate::AnyStrategy(PhantomData);
        }
    }
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// Per-test configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A failed or rejected test case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// A hard failure with the given reason.
    pub fn fail(reason: impl Into<String>) -> Self {
        TestCaseError(reason.into())
    }

    /// A rejected case (treated as a failure in this shim, which never
    /// generates values that need filtering).
    pub fn reject(reason: impl Into<String>) -> Self {
        TestCaseError(format!("rejected: {}", reason.into()))
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for TestCaseError {}

fn fnv1a(name: &str) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for byte in name.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Runs `body` against `config.cases` deterministic inputs, panicking on the
/// first failure. Used by the `proptest!` macro; not part of the public
/// proptest API.
pub fn run_cases<F>(config: &ProptestConfig, name: &str, body: F)
where
    F: Fn(&mut TestRng) -> Result<(), TestCaseError>,
{
    let base = fnv1a(name);
    for case in 0..config.cases {
        let seed = base ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = TestRng::from_seed(seed);
        if let Err(err) = body(&mut rng) {
            panic!(
                "proptest `{name}` failed at case {}/{} (seed {seed:#018x}): {err}",
                case + 1,
                config.cases
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Property-failing assertion; returns `Err(TestCaseError)` from the case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Equality assertion counterpart of [`prop_assert!`]. Accepts an optional
/// trailing format message, as the real crate does.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(*left == *right) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` != `{:?}`",
                left, right
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(*left == *right) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` != `{:?}`: {}",
                left, right, format!($($fmt)+)
            )));
        }
    }};
}

/// Inequality assertion counterpart of [`prop_assert!`]. Accepts an optional
/// trailing format message, as the real crate does.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if *left == *right {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` == `{:?}`",
                left, right
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if *left == *right {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` == `{:?}`: {}",
                left, right, format!($($fmt)+)
            )));
        }
    }};
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new()$(.or($strategy))+
    };
}

/// Declares property tests. Supports an optional leading
/// `#![proptest_config(...)]`, `name in strategy` bindings, and
/// `name: Type` bindings (which use [`Arbitrary`]).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($config:expr)) => {};
    (($config:expr) $(#[$meta:meta])* fn $name:ident($($params:tt)*) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            $crate::run_cases(&($config), stringify!($name), |__proptest_rng| {
                $crate::__proptest_bind! { __proptest_rng $($params)* }
                let __proptest_result: ::core::result::Result<(), $crate::TestCaseError> =
                    (move || {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                __proptest_result
            });
        }
        $crate::__proptest_fns! { ($config) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident) => {};
    ($rng:ident $arg:ident in $strategy:expr, $($rest:tt)*) => {
        let $arg = $crate::Strategy::generate(&($strategy), $rng);
        $crate::__proptest_bind! { $rng $($rest)* }
    };
    ($rng:ident $arg:ident in $strategy:expr) => {
        let $arg = $crate::Strategy::generate(&($strategy), $rng);
    };
    ($rng:ident $arg:ident : $ty:ty, $($rest:tt)*) => {
        let $arg = <$ty as $crate::Arbitrary>::arbitrary($rng);
        $crate::__proptest_bind! { $rng $($rest)* }
    };
    ($rng:ident $arg:ident : $ty:ty) => {
        let $arg = <$ty as $crate::Arbitrary>::arbitrary($rng);
    };
}

/// Common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        Just, ProptestConfig, Strategy, TestCaseError,
    };
}

// ---------------------------------------------------------------------------
// Self-tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use crate::collection::vec;
    use crate::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Shape {
        Dot(u8),
        Line(u8, u8),
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(a in 3u32..17, b in 5u64..=9, n: bool) {
            prop_assert!((3..17).contains(&a));
            prop_assert!((5..=9).contains(&b));
            let tagged = if n { a as u64 } else { b };
            prop_assert!(tagged < 17, "tagged = {tagged}");
        }

        #[test]
        fn vectors_respect_size(data in vec(any::<u8>(), 2..6)) {
            prop_assert!(data.len() >= 2 && data.len() < 6, "len = {}", data.len());
        }

        #[test]
        fn oneof_and_map_compose(
            shape in prop_oneof![
                (0u8..10).prop_map(Shape::Dot),
                (0u8..10, 0u8..10).prop_map(|(x, y)| Shape::Line(x, y)),
            ],
            maybe in crate::option::of(0usize..4),
        ) {
            match shape {
                Shape::Dot(x) => prop_assert!(x < 10),
                Shape::Line(x, y) => prop_assert!(x < 10 && y < 10),
            }
            if let Some(v) = maybe {
                prop_assert!(v < 4);
            }
        }
    }

    #[test]
    fn deterministic_per_name_and_case() {
        let mut a = crate::TestRng::from_seed(1);
        let mut b = crate::TestRng::from_seed(1);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    #[should_panic(expected = "proptest `always_fails` failed")]
    fn failures_panic_with_context() {
        crate::run_cases(
            &ProptestConfig::with_cases(3),
            "always_fails",
            |_rng| -> Result<(), TestCaseError> { Err(TestCaseError::fail("nope")) },
        );
    }
}
