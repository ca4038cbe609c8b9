//! A small, self-contained property-testing harness exposing the subset of
//! the `proptest` crate's API that this workspace uses: `Strategy`,
//! `prop_map`/`boxed`, `Just`, integer-range and tuple strategies,
//! `prop::collection::vec`, `prop::bool::ANY`, weighted `prop_oneof!`, and
//! the `proptest!`/`prop_assert*` macros.
//!
//! It exists so the workspace builds in hermetic environments where no
//! package registry is reachable. Generation is deterministic (seeded per
//! test name and case index) and there is no shrinking: a failing case
//! reports the panic from `prop_assert!` directly. `PROPTEST_CASES=n` in
//! the environment runs `n` cases per property instead of the configured
//! count.

pub mod strategy;
pub mod test_runner;

pub use strategy::{BoxedStrategy, Just, Map, Strategy, Union};
pub use test_runner::{ProptestConfig, TestRng};

/// Namespaced strategy constructors (`prop::collection::vec`,
/// `prop::bool::ANY`), mirroring the upstream module layout.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        pub use crate::strategy::{vec, SizeRange, VecStrategy};
    }
    /// Boolean strategies.
    pub mod bool {
        pub use crate::strategy::BoolStrategy;
        /// Uniformly random `bool`.
        pub const ANY: BoolStrategy = BoolStrategy;
    }
}

/// Everything a property test needs, via `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Assert a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($($arg:tt)*) => { assert!($($arg)*) };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($arg:tt)*) => { assert_eq!($($arg)*) };
}

/// Assert inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($arg:tt)*) => { assert_ne!($($arg)*) };
}

/// Choose among strategies, optionally weighted (`w => strategy`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

/// Define property tests: each function runs its body against
/// `ProptestConfig::cases` generated inputs.
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn addition_commutes(a in 0i64..100, b in 0i64..100) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($cfg) $($rest)*);
    };
    (@impl ($cfg:expr)
     $($(#[$meta:meta])*
       fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                for case in 0..cfg.effective_cases() {
                    let mut rng =
                        $crate::TestRng::deterministic(stringify!($name), case);
                    $(let $pat =
                        $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                    $body
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ($crate::ProptestConfig::default()) $($rest)*);
    };
}
