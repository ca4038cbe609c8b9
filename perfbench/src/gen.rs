//! Seeded input generation: a splitmix64 stream, a Zipf sampler and
//! seeded permutations. The benchmark's inputs depend only on `--seed`.

/// A splitmix64 pseudo-random stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` tag.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// Zipf(s) over ranks `0..n`, drawn by inverting the cumulative table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution `P(rank k) ∝ 1 / (k + 1)^s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One draw.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A uniform sample of at most `cap` items from a stream (reservoir
/// sampling), drawn from a seeded stream.
#[derive(Debug)]
pub struct Reservoir<T> {
    cap: usize,
    seen: u64,
    items: Vec<T>,
    rng: Rng,
}

impl<T> Reservoir<T> {
    pub fn new(cap: usize, rng: Rng) -> Reservoir<T> {
        Reservoir {
            cap,
            seen: 0,
            items: Vec::new(),
            rng,
        }
    }

    /// Offer one item of the stream.
    pub fn offer(&mut self, item: T) {
        self.seen += 1;
        if self.items.len() < self.cap {
            self.items.push(item);
        } else if let Some(slot) = self.items.get_mut(self.rng.below(self.seen) as usize) {
            *slot = item;
        }
    }

    pub fn into_items(self) -> Vec<T> {
        self.items
    }
}
