//! Offline drop-in subset of the `proptest` 1.x API.
//!
//! The build environment for this workspace has no access to crates.io, so
//! the workspace pins `proptest` to this local implementation covering the
//! surface the test suites use: the [`proptest!`] macro, [`Strategy`] with
//! `prop_map`, integer/float range strategies, [`collection::vec`],
//! [`any`], simple `"[a-z]{m,n}"` string-pattern strategies, and the
//! `prop_assert*` / `prop_assume!` macros.
//!
//! Differences from crates.io proptest: cases are generated from a seed
//! derived from the test name (deterministic run-to-run), and failing cases
//! are **not shrunk** — the failing input values are printed instead.

#![warn(missing_docs)]

use std::ops::Range;

/// Outcome of one generated case: `Err` carries an assertion/assume message.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Why a case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is skipped, not failed.
    Reject(String),
    /// `prop_assert*!` failed; the test fails.
    Fail(String),
}

/// Deterministic splitmix64 stream used to generate case inputs.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the stream (tests derive the seed from the test name).
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.state;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform value in `[0, span)`.
    pub fn below(&mut self, span: u64) -> u64 {
        assert!(span > 0, "cannot sample empty range");
        ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64
    }

    /// Uniform double in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / ((1u64 << 53) as f64))
    }
}

/// FNV-1a over the test name: a stable per-test seed.
pub fn seed_for(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A generator of test-case values (no shrinking in this subset).
pub trait Strategy {
    /// The type of generated values.
    type Value: std::fmt::Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U: std::fmt::Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

/// A type-erased strategy: wraps any generation closure. The building
/// block of [`prop_oneof!`], whose arms generally have distinct types.
pub struct FnStrategy<T> {
    f: Box<dyn Fn(&mut TestRng) -> T>,
}

impl<T: std::fmt::Debug> FnStrategy<T> {
    /// Wraps a generation closure.
    pub fn new(f: impl Fn(&mut TestRng) -> T + 'static) -> Self {
        Self { f: Box::new(f) }
    }
}

impl<T: std::fmt::Debug> Strategy for FnStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(rng)
    }
}

/// Weighted union over same-valued strategies (see [`prop_oneof!`]).
pub struct Union<T> {
    arms: Vec<(u32, FnStrategy<T>)>,
    total: u64,
}

impl<T: std::fmt::Debug> Union<T> {
    /// Builds a union; weights must not all be zero.
    pub fn new(arms: Vec<(u32, FnStrategy<T>)>) -> Self {
        let total: u64 = arms.iter().map(|(w, _)| u64::from(*w)).sum();
        assert!(total > 0, "prop_oneof needs at least one positive weight");
        Self { arms, total }
    }
}

impl<T: std::fmt::Debug> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.below(self.total);
        for (w, strat) in &self.arms {
            let w = u64::from(*w);
            if pick < w {
                return strat.generate(rng);
            }
            pick -= w;
        }
        unreachable!("pick is below the weight total")
    }
}

/// Chooses among strategies, optionally weighted:
/// `prop_oneof![a, b]` or `prop_oneof![3 => a, 1 => b]`.
#[macro_export]
macro_rules! prop_oneof {
    ( $($weight:expr => $strat:expr),+ $(,)? ) => {
        $crate::Union::new(vec![
            $((
                $weight as u32,
                $crate::FnStrategy::new({
                    let s = $strat;
                    move |rng: &mut $crate::TestRng| $crate::Strategy::generate(&s, rng)
                }),
            )),+
        ])
    };
    ( $($strat:expr),+ $(,)? ) => {
        $crate::prop_oneof![ $(1 => $strat),+ ]
    };
}

impl<S: Strategy, U: std::fmt::Debug, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_range_strategy_int {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (u128::from(rng.next_u64()) * span) >> 64;
                (self.start as i128 + v as i128) as $t
            }
        }
    )*};
}
impl_range_strategy_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_range_strategy_float {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                self.start + (self.end - self.start) * rng.unit_f64() as $t
            }
        }
    )*};
}
impl_range_strategy_float!(f32, f64);

/// Whole-domain strategy for a type (see [`any`]).
#[derive(Debug, Clone, Copy)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T> Default for Any<T> {
    fn default() -> Self {
        Self {
            _marker: std::marker::PhantomData,
        }
    }
}

/// Types with a whole-domain strategy.
pub trait Arbitrary: Sized + std::fmt::Debug {
    /// Draws a uniform value over the whole domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.unit_f64()
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The `any::<T>()` whole-domain strategy.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any::default()
}

/// Strategies over collections.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy producing `Vec`s with lengths drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// `vec(element, lengths)`: a vector of `element`-generated values.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start
                + if span == 0 {
                    0
                } else {
                    rng.below(span) as usize
                };
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// `&str` patterns of the shape `[class]{m,n}` act as string strategies
/// (the only regex form the workspace's tests use).
impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let (chars, lo, hi) = parse_class_pattern(self).unwrap_or_else(|| {
            panic!("unsupported string pattern {self:?}: expected [class]{{m,n}}")
        });
        let span = (hi - lo + 1) as u64;
        let n = lo + rng.below(span) as usize;
        (0..n)
            .map(|_| chars[rng.below(chars.len() as u64) as usize])
            .collect()
    }
}

/// Parses `[a-dxy]{m,n}` into (alphabet, m, n). Returns `None` on any other
/// shape.
fn parse_class_pattern(pat: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pat.strip_prefix('[')?;
    let (class, rest) = rest.split_once(']')?;
    let rest = rest.strip_prefix('{')?;
    let counts = rest.strip_suffix('}')?;
    let (lo, hi) = counts.split_once(',')?;
    let (lo, hi) = (lo.trim().parse().ok()?, hi.trim().parse().ok()?);
    if lo > hi {
        return None;
    }

    let mut chars: Vec<char> = Vec::new();
    let mut it = class.chars().peekable();
    while let Some(c) = it.next() {
        if it.peek() == Some(&'-') {
            it.next();
            let end = it.next()?;
            if (c as u32) > (end as u32) {
                return None;
            }
            for x in (c as u32)..=(end as u32) {
                chars.push(char::from_u32(x)?);
            }
        } else {
            chars.push(c);
        }
    }
    if chars.is_empty() {
        return None;
    }
    Some((chars, lo, hi))
}

/// Per-`proptest!`-block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases generated per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

impl ProptestConfig {
    /// Configuration running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// Asserts a condition inside a proptest case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a proptest case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a == *b,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($a), stringify!($b), a, b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a == *b, $($fmt)*);
    }};
}

/// Asserts inequality inside a proptest case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a != *b,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($a), stringify!($b), a
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a != *b, $($fmt)*);
    }};
}

/// Skips the current case when its inputs do not satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `body` over generated inputs.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal expansion of [`proptest!`] — one arm per declared test fn.
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_fns {
    ( ($cfg:expr) ) => {};
    (
        ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::new($crate::seed_for(concat!(
                module_path!(), "::", stringify!($name)
            )));
            let mut ran = 0u32;
            let mut attempts = 0u32;
            let max_attempts = config.cases.saturating_mul(16).max(1024);
            while ran < config.cases {
                attempts += 1;
                assert!(
                    attempts <= max_attempts,
                    "proptest {}: too many rejected cases ({} accepted of {} attempts)",
                    stringify!($name), ran, attempts
                );
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                let inputs = {
                    let mut s = ::std::string::String::new();
                    $(s.push_str(&format!("\n  {} = {:?}", stringify!($arg), &$arg));)+
                    s
                };
                let case = (|| -> $crate::TestCaseResult {
                    $(let $arg = $arg;)+
                    $body
                    ::std::result::Result::Ok(())
                })();
                match case {
                    ::std::result::Result::Ok(()) => ran += 1,
                    ::std::result::Result::Err($crate::TestCaseError::Reject(_)) => {}
                    ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest {} failed at case {}: {}\ninputs:{}",
                            stringify!($name),
                            ran,
                            msg,
                            inputs,
                        );
                    }
                }
            }
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

/// The conventional `use proptest::prelude::*;` import set.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, ProptestConfig, Strategy, TestCaseError, TestCaseResult,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn class_pattern_parses() {
        let (chars, lo, hi) = super::parse_class_pattern("[a-c]{1,12}").unwrap();
        assert_eq!(chars, vec!['a', 'b', 'c']);
        assert_eq!((lo, hi), (1, 12));
        let (chars, _, _) = super::parse_class_pattern("[xa-b]{0,3}").unwrap();
        assert_eq!(chars, vec!['x', 'a', 'b']);
        assert!(super::parse_class_pattern("plain").is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_respect_bounds(x in 3usize..9, f in 0.25f64..0.75) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        fn vec_strategy_obeys_lengths(v in prop::collection::vec(0u32..5, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&x| x < 5));
        }

        #[test]
        fn prop_map_applies(v in prop::collection::vec(0u32..9, 0..8).prop_map(|mut v| {
            v.sort_unstable();
            v
        })) {
            prop_assert!(v.windows(2).all(|w| w[0] <= w[1]));
        }

        #[test]
        fn string_patterns_generate_in_class(s in "[a-d]{0,10}") {
            prop_assert!(s.len() <= 10);
            prop_assert!(s.chars().all(|c| ('a'..='d').contains(&c)));
        }

        #[test]
        fn assume_skips_cases(n in 0u32..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
            prop_assert_ne!(n % 2, 1);
        }

        #[test]
        fn oneof_draws_every_arm(picks in prop::collection::vec(
            prop_oneof![
                2 => (0u32..10).prop_map(|x| (0u8, x)),
                1 => (10u32..20).prop_map(|x| (1u8, x)),
            ],
            200..201,
        )) {
            prop_assert!(picks.iter().all(|&(tag, x)| match tag {
                0 => x < 10,
                _ => (10..20).contains(&x),
            }));
            // With weights 2:1 over 200 draws, both arms must appear.
            prop_assert!(picks.iter().any(|&(tag, _)| tag == 0));
            prop_assert!(picks.iter().any(|&(tag, _)| tag == 1));
        }
    }

    #[test]
    #[should_panic(expected = "proptest always_fails failed")]
    fn failures_panic_with_inputs() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            fn always_fails(n in 0u32..10) {
                prop_assert!(n > 100, "n was {}", n);
            }
        }
        always_fails();
    }
}
