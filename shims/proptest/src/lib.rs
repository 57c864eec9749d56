//! Offline mini property-testing harness.
//!
//! Implements the subset of the proptest API this workspace uses —
//! `proptest! { #[test] fn f(x in strategy) { .. } }`, integer/float
//! range strategies, `any::<T>()`, `prop::collection::vec`,
//! `prop::sample::select`, tuple strategies, `prop_assert!` /
//! `prop_assert_eq!`, and `TestCaseError` — so the property suites run
//! in the hermetic build environment without crates.io access.
//!
//! Unlike real proptest there is no shrinking: each test runs a fixed
//! number of cases drawn from a deterministic per-test generator (seeded
//! by the test's name), so failures replay bit-identically.

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// A failed test case. Returned via `?` / `prop_assert!` from test bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// The property did not hold.
    Fail(String),
    /// The case was rejected (kept for API parity; unused here).
    Reject(String),
}

impl TestCaseError {
    /// Creates a failure with a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// Creates a rejection with a message.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "{m}"),
            TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
        }
    }
}

impl std::error::Error for TestCaseError {}

/// Runner configuration. Only `cases` is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to execute per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic value source handed to strategies (splitmix64).
#[derive(Debug, Clone)]
pub struct CaseRng {
    state: u64,
}

impl CaseRng {
    /// Seeds a generator from a test name (FNV-1a over the bytes).
    pub fn for_test(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        CaseRng { state: h }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift bounded draw; bias is negligible for test inputs.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Something that can generate values for a test case.
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Draws one value.
    fn generate(&self, rng: &mut CaseRng) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut CaseRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut CaseRng) -> $t {
                let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo + 1) as u64;
                (lo + rng.below(span) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut CaseRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (rng.unit() as $t) * (self.end - self.start)
            }
        }
    )*};
}

float_range_strategy!(f32, f64);

/// Types with a default "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut CaseRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut CaseRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut CaseRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut CaseRng) -> f64 {
        // Finite values only: keeps arithmetic properties testable.
        (rng.unit() - 0.5) * 2e9
    }
}

/// The `any::<T>()` strategy.
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(PhantomData<T>);

/// Generates any value of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut CaseRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut CaseRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy!((A, B)(A, B, C)(A, B, C, D));

/// Collection and sampling strategies, mirroring `proptest::prop`.
pub mod prop {
    /// Collection strategies (`prop::collection::vec`).
    pub mod collection {
        use super::super::{CaseRng, Strategy};

        /// Number-of-elements bound for [`vec()`].
        #[derive(Debug, Clone, Copy)]
        pub struct SizeRange {
            lo: usize,
            hi: usize,
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange { lo: n, hi: n + 1 }
            }
        }

        impl From<std::ops::Range<usize>> for SizeRange {
            fn from(r: std::ops::Range<usize>) -> Self {
                SizeRange {
                    lo: r.start,
                    hi: r.end,
                }
            }
        }

        impl From<std::ops::RangeInclusive<usize>> for SizeRange {
            fn from(r: std::ops::RangeInclusive<usize>) -> Self {
                SizeRange {
                    lo: *r.start(),
                    hi: *r.end() + 1,
                }
            }
        }

        /// Strategy producing `Vec`s of a given element strategy.
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            elem: S,
            size: SizeRange,
        }

        /// Vectors of `size` elements drawn from `elem`.
        pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                elem,
                size: size.into(),
            }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut CaseRng) -> Vec<S::Value> {
                assert!(self.size.lo < self.size.hi, "empty size range");
                let span = (self.size.hi - self.size.lo) as u64;
                let n = self.size.lo + rng.below(span) as usize;
                (0..n).map(|_| self.elem.generate(rng)).collect()
            }
        }
    }

    /// Sampling strategies (`prop::sample::select`).
    pub mod sample {
        use super::super::{CaseRng, Strategy};

        /// Strategy picking uniformly from a fixed set.
        #[derive(Debug, Clone)]
        pub struct Select<T> {
            options: Vec<T>,
        }

        /// Picks one of `options` per case.
        pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
            assert!(!options.is_empty(), "select needs at least one option");
            Select { options }
        }

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;
            fn generate(&self, rng: &mut CaseRng) -> T {
                let i = rng.below(self.options.len() as u64) as usize;
                self.options[i].clone()
            }
        }
    }
}

/// Everything a property-test file needs in scope.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, ProptestConfig,
        Strategy, TestCaseError,
    };
}

/// Asserts a condition inside a proptest body, failing the case (not
/// panicking) so the harness can report the case number.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Asserts two expressions are equal inside a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {} ({:?} vs {:?})",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

/// Asserts two expressions are not equal inside a proptest body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} != {} (both {:?})",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

/// Declares property tests. Each `#[test] fn name(arg in strategy, ..)`
/// becomes a standard `#[test]` that runs `cases` deterministic draws.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_cases!($cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_cases!($crate::ProptestConfig::default(); $($rest)*);
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_cases {
    ($cfg:expr; $($(#[$meta:meta])+ fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])+
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::CaseRng::for_test(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..config.cases {
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!("case {case}/{}: {e}", config.cases);
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn ranges_stay_in_bounds(x in 3u64..10, y in -5i64..5, f in 0.5f64..2.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-5..5).contains(&y));
            prop_assert!((0.5..2.0).contains(&f));
        }

        #[test]
        fn vec_sizes_respected(v in prop::collection::vec(0u32..9, 2..6), e in prop::collection::vec(0u32..9, 3)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert_eq!(e.len(), 3);
        }

        #[test]
        fn select_picks_member(x in prop::sample::select(vec![1u8, 3, 7])) {
            prop_assert!([1u8, 3, 7].contains(&x));
        }

        #[test]
        fn tuples_compose(pair in (any::<bool>(), 0u64..4)) {
            prop_assert!(pair.1 < 4);
        }
    }

    #[test]
    fn draws_are_deterministic() {
        let run = || {
            let mut rng = crate::CaseRng::for_test("t");
            (0..16).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
