//! Value generators: what the stream elements *are*.
//!
//! The paper's samplers are value-agnostic, but the §5 applications
//! (frequency moments, entropy) are sensitive to the value distribution, so
//! the experiments sweep uniform and Zipf workloads.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A deterministic-given-seed source of stream values over `[0, domain)`.
pub trait ValueGen {
    /// Produce the next value.
    fn next_value<R: Rng>(&mut self, rng: &mut R) -> u64;
    /// Size of the value domain `m` (values are `0..m`).
    fn domain(&self) -> u64;
}

/// Uniform values over `0..domain`.
#[derive(Debug, Clone)]
pub struct UniformGen {
    domain: u64,
}

impl UniformGen {
    /// Uniform generator over `0..domain`.
    pub fn new(domain: u64) -> Self {
        assert!(domain > 0, "UniformGen: empty domain");
        Self { domain }
    }
}

impl ValueGen for UniformGen {
    fn next_value<R: Rng>(&mut self, rng: &mut R) -> u64 {
        rng.gen_range(0..self.domain)
    }
    fn domain(&self) -> u64 {
        self.domain
    }
}

/// Zipf-distributed values: `P(v = i) ∝ 1/(i+1)^theta` for `i ∈ 0..domain`.
///
/// Implemented by inverse transform over a precomputed CDF (the domains the
/// experiments use are ≤ ~1e6, so the table is cheap and exact).
#[derive(Debug, Clone)]
pub struct ZipfGen {
    cdf: Vec<f64>,
    theta: f64,
}

impl ZipfGen {
    /// Zipf generator with exponent `theta > 0` over `0..domain`.
    pub fn new(domain: u64, theta: f64) -> Self {
        assert!(domain > 0, "ZipfGen: empty domain");
        assert!(
            theta > 0.0 && theta.is_finite(),
            "ZipfGen: bad theta {theta}"
        );
        let mut cdf = Vec::with_capacity(domain as usize);
        let mut acc = 0.0;
        for i in 0..domain {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let z = acc;
        for c in &mut cdf {
            *c /= z;
        }
        // Guard against FP round-off on the last entry.
        *cdf.last_mut().expect("nonempty") = 1.0;
        Self { cdf, theta }
    }

    /// The skew exponent.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Probability of value `i`.
    pub fn pmf(&self, i: u64) -> f64 {
        let i = i as usize;
        assert!(i < self.cdf.len());
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }
}

impl ValueGen for ZipfGen {
    fn next_value<R: Rng>(&mut self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        // First index whose CDF is >= u.
        self.cdf.partition_point(|&c| c < u) as u64
    }
    fn domain(&self) -> u64 {
        self.cdf.len() as u64
    }
}

/// The keyed fleet workload the `multi` command, the load generator,
/// the fleet benches and tests share: event `i` is `(key, i / 64, i)` —
/// a [`ZipfGen`] key over `0..keys` drawn from a [`SmallRng`] seeded
/// with `seed`, a clock that ticks every 64 arrivals, and the global
/// arrival index as the value. Endless; `take` as many as needed.
pub fn zipf_fleet_events(
    keys: u64,
    theta: f64,
    seed: u64,
) -> impl Iterator<Item = (u64, u64, u64)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut zipf = ZipfGen::new(keys, theta);
    (0u64..).map(move |i| (zipf.next_value(&mut rng), i / 64, i))
}

/// Deterministic round-robin values `0, 1, …, domain−1, 0, 1, …`.
///
/// Handy in tests: with a round-robin stream the exact multiset of values in
/// any window is known in closed form.
#[derive(Debug, Clone)]
pub struct RoundRobinGen {
    domain: u64,
    next: u64,
}

impl RoundRobinGen {
    /// Round-robin generator over `0..domain`.
    pub fn new(domain: u64) -> Self {
        assert!(domain > 0, "RoundRobinGen: empty domain");
        Self { domain, next: 0 }
    }
}

impl ValueGen for RoundRobinGen {
    fn next_value<R: Rng>(&mut self, _rng: &mut R) -> u64 {
        let v = self.next;
        self.next = (self.next + 1) % self.domain;
        v
    }
    fn domain(&self) -> u64 {
        self.domain
    }
}

/// A constant value; the degenerate distribution (entropy 0, `F_k = N^k`).
#[derive(Debug, Clone)]
pub struct ConstantGen {
    value: u64,
}

impl ConstantGen {
    /// Generator that always yields `value`.
    pub fn new(value: u64) -> Self {
        Self { value }
    }
}

impl ValueGen for ConstantGen {
    fn next_value<R: Rng>(&mut self, _rng: &mut R) -> u64 {
        self.value
    }
    fn domain(&self) -> u64 {
        self.value + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_stays_in_domain() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut g = UniformGen::new(17);
        for _ in 0..1000 {
            assert!(g.next_value(&mut rng) < 17);
        }
    }

    #[test]
    fn uniform_covers_domain() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut g = UniformGen::new(8);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[g.next_value(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zipf_pmf_sums_to_one_and_is_decreasing() {
        let g = ZipfGen::new(100, 1.2);
        let total: f64 = (0..100).map(|i| g.pmf(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for i in 1..100 {
            assert!(g.pmf(i) <= g.pmf(i - 1) + 1e-12);
        }
    }

    #[test]
    fn zipf_empirical_head_matches_pmf() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut g = ZipfGen::new(50, 1.0);
        let n = 200_000;
        let mut count0 = 0u64;
        for _ in 0..n {
            if g.next_value(&mut rng) == 0 {
                count0 += 1;
            }
        }
        let emp = count0 as f64 / n as f64;
        let exp = g.pmf(0);
        assert!((emp - exp).abs() < 0.01, "empirical {emp} vs pmf {exp}");
    }

    #[test]
    fn zipf_stays_in_domain() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut g = ZipfGen::new(10, 2.0);
        for _ in 0..10_000 {
            assert!(g.next_value(&mut rng) < 10);
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut g = RoundRobinGen::new(3);
        let seq: Vec<u64> = (0..7).map(|_| g.next_value(&mut rng)).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn constant_is_constant() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut g = ConstantGen::new(9);
        for _ in 0..5 {
            assert_eq!(g.next_value(&mut rng), 9);
        }
    }
}
