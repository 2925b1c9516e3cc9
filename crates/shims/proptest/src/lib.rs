//! Offline shim for `proptest`.
//!
//! A miniature random-input property-testing framework exposing the
//! subset of the proptest API this workspace's tests use: the
//! [`Strategy`] trait with `prop_map` / `prop_filter_map` /
//! `prop_recursive`, range and tuple strategies, `prop::collection` /
//! `prop::option` / `prop::sample` constructors, and the `proptest!`,
//! `prop_oneof!`, `prop_assert!`, `prop_assert_eq!` macros.
//!
//! Differences from the real crate: no shrinking (a failing case panics
//! with its case number and deterministic seed, so it reproduces
//! exactly) and a simpler recursion-depth model. Test generation is
//! fully deterministic per test name, so CI failures replay locally.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

// ---------------------------------------------------------------- rng

/// Deterministic generator used for test-case generation (xoshiro256++).
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Seeds deterministically from a test name.
    pub fn deterministic(name: &str) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let mut sm = h;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        TestRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let [a, b, c, d] = self.s;
        let result = a.wrapping_add(d).rotate_left(23).wrapping_add(a);
        let t = b << 17;
        let mut s = [a, b, c, d];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.s = s;
        result
    }

    fn usize_below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }

    fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

// --------------------------------------------------------- errors/config

/// Why a test case failed (or was rejected).
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// An assertion failed.
    Fail(String),
    /// The input was rejected (filter exhaustion).
    Reject(String),
}

impl TestCaseError {
    /// A failing case with a reason.
    pub fn fail(reason: impl Into<String>) -> TestCaseError {
        TestCaseError::Fail(reason.into())
    }

    /// A rejected case with a reason.
    pub fn reject(reason: impl Into<String>) -> TestCaseError {
        TestCaseError::Reject(reason.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Fail(r) => write!(f, "{r}"),
            TestCaseError::Reject(r) => write!(f, "input rejected: {r}"),
        }
    }
}

/// Per-test configuration (`#![proptest_config(...)]`).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// Configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

/// Runs one generated case (used by the `proptest!` macro expansion).
pub fn run_case<F: FnOnce() -> Result<(), TestCaseError>>(f: F) -> Result<(), TestCaseError> {
    f()
}

// ------------------------------------------------------------ strategy

/// A generator of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Maps through a partial function, regenerating on `None`.
    fn prop_filter_map<O, F>(self, whence: &'static str, f: F) -> FilterMap<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> Option<O>,
    {
        FilterMap {
            inner: self,
            whence,
            f,
        }
    }

    /// Builds a recursive strategy: `self` generates leaves; `recurse`
    /// receives a strategy for the nested level and wraps it one level
    /// deeper. `depth` bounds the nesting. `desired_size` and
    /// `expected_branch_size` are accepted for API compatibility.
    fn prop_recursive<S, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> Recursive<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        S: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S + 'static,
    {
        Recursive {
            base: BoxedStrategy::new(self),
            grow: Arc::new(move |inner| BoxedStrategy::new(recurse(inner))),
            depth,
        }
    }
}

trait ObjStrategy<V> {
    fn gen_obj(&self, rng: &mut TestRng) -> V;
}

impl<S: Strategy> ObjStrategy<S::Value> for S {
    fn gen_obj(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// A type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<V> {
    inner: Arc<dyn ObjStrategy<V>>,
}

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<V: 'static> BoxedStrategy<V> {
    /// Erases a concrete strategy.
    pub fn new<S: Strategy<Value = V> + 'static>(s: S) -> BoxedStrategy<V> {
        BoxedStrategy { inner: Arc::new(s) }
    }
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        self.inner.gen_obj(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_filter_map`].
pub struct FilterMap<S, F> {
    inner: S,
    whence: &'static str,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> Option<O>> Strategy for FilterMap<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        for _ in 0..1000 {
            if let Some(v) = (self.f)(self.inner.generate(rng)) {
                return v;
            }
        }
        panic!("prop_filter_map exhausted 1000 attempts: {}", self.whence);
    }
}

/// See [`Strategy::prop_recursive`].
pub struct Recursive<V> {
    base: BoxedStrategy<V>,
    grow: Arc<dyn Fn(BoxedStrategy<V>) -> BoxedStrategy<V>>,
    depth: u32,
}

impl<V> Strategy for Recursive<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let levels = rng.usize_below(self.depth as usize + 1);
        let mut s = self.base.clone();
        for _ in 0..levels {
            s = (self.grow)(s);
        }
        s.generate(rng)
    }
}

/// A constant strategy.
#[derive(Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice among equally weighted, type-erased alternatives
/// (the `prop_oneof!` backing type).
pub struct Union<V> {
    arms: Vec<BoxedStrategy<V>>,
}

impl<V: 'static> Union<V> {
    /// Builds from the already-erased arms.
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Union<V> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.usize_below(self.arms.len());
        self.arms[i].generate(rng)
    }
}

/// `any::<T>()` support (only the types the workspace asks for).
pub trait Arbitrary: Sized {
    /// Generates an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut TestRng) -> u8 {
        rng.next_u64() as u8
    }
}

impl Arbitrary for i64 {
    fn arbitrary(rng: &mut TestRng) -> i64 {
        rng.next_u64() as i64
    }
}

/// Strategy produced by [`any`].
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The `any::<T>()` strategy constructor.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

// Ranges are strategies.
macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.f64_unit() * (self.end - self.start)
    }
}

// Tuples of strategies are strategies.
macro_rules! tuple_strategy {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
}

// ------------------------------------------------------- constructors

/// Strategy constructors, mirroring `proptest::prelude::prop`.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::*;

        /// Size specification for collection strategies.
        #[derive(Clone, Debug)]
        pub struct SizeRange {
            lo: usize,
            hi: usize, // exclusive
        }

        impl From<Range<usize>> for SizeRange {
            fn from(r: Range<usize>) -> SizeRange {
                assert!(r.start < r.end, "empty size range");
                SizeRange {
                    lo: r.start,
                    hi: r.end,
                }
            }
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> SizeRange {
                SizeRange { lo: n, hi: n + 1 }
            }
        }

        impl SizeRange {
            fn sample(&self, rng: &mut TestRng) -> usize {
                self.lo + rng.usize_below(self.hi - self.lo)
            }
        }

        /// Generates `Vec`s of sizes drawn from `size`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        /// See [`vec`].
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = self.size.sample(rng);
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// Generates `BTreeSet`s with *up to* the sampled number of
        /// elements (duplicates collapse, as in real proptest).
        pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
        where
            S: Strategy,
            S::Value: Ord,
        {
            BTreeSetStrategy {
                element,
                size: size.into(),
            }
        }

        /// See [`btree_set`].
        pub struct BTreeSetStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for BTreeSetStrategy<S>
        where
            S::Value: Ord,
        {
            type Value = std::collections::BTreeSet<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let n = self.size.sample(rng);
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// Generates `BTreeMap`s with *up to* the sampled number of
        /// entries.
        pub fn btree_map<K, V>(
            key: K,
            value: V,
            size: impl Into<SizeRange>,
        ) -> BTreeMapStrategy<K, V>
        where
            K: Strategy,
            K::Value: Ord,
            V: Strategy,
        {
            BTreeMapStrategy {
                key,
                value,
                size: size.into(),
            }
        }

        /// See [`btree_map`].
        pub struct BTreeMapStrategy<K, V> {
            key: K,
            value: V,
            size: SizeRange,
        }

        impl<K, V> Strategy for BTreeMapStrategy<K, V>
        where
            K: Strategy,
            K::Value: Ord,
            V: Strategy,
        {
            type Value = std::collections::BTreeMap<K::Value, V::Value>;
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let n = self.size.sample(rng);
                (0..n)
                    .map(|_| (self.key.generate(rng), self.value.generate(rng)))
                    .collect()
            }
        }
    }

    /// `Option` strategies.
    pub mod option {
        use super::super::*;

        /// Generates `Some` three times out of four.
        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy { inner }
        }

        /// See [`of`].
        pub struct OptionStrategy<S> {
            inner: S,
        }

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
                if rng.next_u64().is_multiple_of(4) {
                    None
                } else {
                    Some(self.inner.generate(rng))
                }
            }
        }
    }

    /// Sampling from explicit value lists.
    pub mod sample {
        use super::super::*;

        /// Uniformly selects one of the given values.
        pub fn select<T: Clone>(values: Vec<T>) -> Select<T> {
            assert!(!values.is_empty(), "select from an empty list");
            Select { values }
        }

        /// See [`select`].
        pub struct Select<T: Clone> {
            values: Vec<T>,
        }

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;
            fn generate(&self, rng: &mut TestRng) -> T {
                let i = rng.usize_below(self.values.len());
                self.values[i].clone()
            }
        }
    }
}

// ------------------------------------------------------------- macros

/// Uniform choice among strategy expressions of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::BoxedStrategy::new($arm)),+])
    };
}

/// Asserts inside a property body, failing the case (not the process).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left == right,
            "assertion failed: `left == right`\n  left: {:?}\n right: {:?}",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left == right,
            "assertion failed: `left == right` ({})\n  left: {:?}\n right: {:?}",
            format!($($fmt)+),
            left,
            right
        );
    }};
}

/// Declares property tests: each `#[test] fn name(arg in strategy, …)`
/// runs `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr)
        $(
            #[test]
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            #[test]
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
                $(let $arg = $strat;)+
                for case in 0..config.cases {
                    $(let $arg = $crate::Strategy::generate(&$arg, &mut rng);)+
                    let outcome = $crate::run_case(move || { $body ::core::result::Result::Ok(()) });
                    match outcome {
                        ::core::result::Result::Ok(()) => {}
                        ::core::result::Result::Err($crate::TestCaseError::Reject(_)) => {}
                        ::core::result::Result::Err(e) => {
                            panic!("property `{}` failed at case {}/{}: {}",
                                   stringify!($name), case + 1, config.cases, e);
                        }
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// The glob-import surface tests use.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_oneof, proptest, Arbitrary, BoxedStrategy,
        Just, ProptestConfig, Strategy, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = crate::TestRng::deterministic("tuples");
        let s = (0usize..5, -3i64..3, 0.0f64..1.0);
        for _ in 0..200 {
            let (a, b, c) = s.generate(&mut rng);
            assert!(a < 5);
            assert!((-3..3).contains(&b));
            assert!((0.0..1.0).contains(&c));
        }
    }

    #[test]
    fn recursion_bottoms_out() {
        #[derive(Debug)]
        enum Tree {
            Leaf(i64),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(v) => {
                    assert!((0..10).contains(v));
                    0
                }
                Tree::Node(ts) => 1 + ts.iter().map(depth).max().unwrap_or(0),
            }
        }
        let strat = (0i64..10)
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 16, 2, |inner| {
                prop::collection::vec(inner, 1..3).prop_map(Tree::Node)
            });
        let mut rng = crate::TestRng::deterministic("rec");
        for _ in 0..100 {
            let t = strat.generate(&mut rng);
            assert!(depth(&t) <= 3, "{t:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn macro_driven_property(v in prop::collection::vec(0i64..100, 0..10)) {
            let doubled: Vec<i64> = v.iter().map(|x| x * 2).collect();
            prop_assert_eq!(doubled.len(), v.len());
            prop_assert!(doubled.iter().all(|x| x % 2 == 0));
        }

        #[test]
        fn oneof_and_option(x in prop_oneof![Just(1i64), Just(2i64)], o in prop::option::of(0i64..5)) {
            prop_assert!(x == 1 || x == 2);
            if let Some(v) = o {
                prop_assert!(v < 5);
            }
        }
    }
}
