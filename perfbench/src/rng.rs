//! Seeded input generation: SplitMix64 and an order-independent row hash.

/// SplitMix64: small, fast, and identical on every platform, so the same
/// seed always yields the same workload inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A non-negative value in `0..n` as a column value.
    pub fn value(&mut self, n: u64) -> i64 {
        self.below(n) as i64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of one row of integers. Summing it over a table (wrapping) gives
/// a multiset hash that ignores row order.
pub fn row_hash(values: impl IntoIterator<Item = i64>) -> u64 {
    values
        .into_iter()
        .fold(0x51_7CC1_B727_220A, |h, v| mix(h ^ v as u64))
}
