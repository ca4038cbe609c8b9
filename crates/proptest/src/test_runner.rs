//! Deterministic RNG and per-test configuration.

/// Configuration for a `proptest!` block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test function.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run `cases` generated inputs per test.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }

    /// The number of cases to run: `PROPTEST_CASES` from the environment
    /// when it holds a number, else `cases`. Unlike upstream, the variable
    /// also overrides an explicit [`ProptestConfig::with_cases`], so one
    /// property can be run deeper from the command line.
    pub fn effective_cases(&self) -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(self.cases)
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

/// A deterministic xorshift64* generator. Seeded from the test name and
/// case index so failures reproduce exactly across runs.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed from a test name and case index (FNV-1a over the name).
    pub fn deterministic(name: &str, case: u32) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        TestRng { state: h | 1 }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `[0, bound)`; `bound` must be positive.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = TestRng::deterministic("t", 3);
        let mut b = TestRng::deterministic("t", 3);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_cases_differ() {
        let mut a = TestRng::deterministic("t", 0);
        let mut b = TestRng::deterministic("t", 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
