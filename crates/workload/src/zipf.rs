//! Zipfian key-selection (the YCSB generator of Gray et al., "Quickly
//! generating billion-record synthetic databases").

use rand::Rng;

/// Zipfian distribution over `0..n` with skew parameter θ.
///
/// θ = 0 degenerates to uniform; YCSB's default is 0.99; the paper's setup
/// describes a "uniform Zipfian" workload which we model with a moderate
/// θ = 0.9 default in [`crate::WorkloadConfig`].
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// Creates a generator over `0..n`.
    ///
    /// # Panics
    /// Panics if `n == 0` or θ is not in `[0, 1)` ∪ `(1, ∞)` (θ = 1 makes
    /// the normalization singular).
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "domain must be non-empty");
        assert!(
            theta >= 0.0 && (theta - 1.0).abs() > 1e-9,
            "theta must be >= 0 and != 1"
        );
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // For large n, the sum converges slowly; cap the exact sum and
        // approximate the tail with the integral — adequate for key
        // selection skew (YCSB itself caches the constant).
        const EXACT: u64 = 100_000;
        let exact_n = n.min(EXACT);
        let mut sum = 0.0;
        for i in 1..=exact_n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        if n > EXACT && theta < 1.0 {
            // ∫ x^-θ dx from EXACT to n
            sum +=
                ((n as f64).powf(1.0 - theta) - (EXACT as f64).powf(1.0 - theta)) / (1.0 - theta);
        }
        sum
    }

    /// Draws the next key.
    pub fn next(&self, rng: &mut impl Rng) -> u64 {
        if self.theta == 0.0 {
            return rng.gen_range(0..self.n);
        }
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let spread = (self.eta * u - self.eta + 1.0).powf(self.alpha);
        ((self.n as f64 - 1.0) * spread) as u64 % self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn all_keys_in_domain() {
        let z = Zipfian::new(1000, 0.9);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.next(&mut rng) < 1000);
        }
    }

    #[test]
    fn theta_zero_is_roughly_uniform() {
        let z = Zipfian::new(10, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[z.next(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "counts={counts:?}");
        }
    }

    #[test]
    fn skew_concentrates_on_low_keys() {
        let z = Zipfian::new(10_000, 0.99);
        let mut rng = StdRng::seed_from_u64(3);
        let mut hot = 0;
        const DRAWS: u32 = 100_000;
        for _ in 0..DRAWS {
            if z.next(&mut rng) < 100 {
                hot += 1;
            }
        }
        // Under uniform, 1% of draws hit the first 100 keys; Zipf(0.99)
        // sends a large share there.
        assert!(hot > DRAWS / 4, "hot={hot}");
    }

    #[test]
    fn higher_theta_more_skew() {
        let mut rng = StdRng::seed_from_u64(4);
        let hits_at = |theta: f64, rng: &mut StdRng| {
            let z = Zipfian::new(10_000, theta);
            (0..50_000).filter(|_| z.next(rng) == 0).count()
        };
        let mild = hits_at(0.5, &mut rng);
        let strong = hits_at(0.99, &mut rng);
        assert!(strong > mild, "strong={strong} mild={mild}");
    }

    #[test]
    fn large_domain_constructs_quickly() {
        // 600K records like the paper's table: must not take noticeable time.
        let z = Zipfian::new(600_000, 0.9);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            assert!(z.next(&mut rng) < 600_000);
        }
        assert!(z.zetan.is_finite() && z.eta.is_finite());
    }

    #[test]
    #[should_panic(expected = "domain must be non-empty")]
    fn zero_domain_panics() {
        let _ = Zipfian::new(0, 0.5);
    }

    #[test]
    #[should_panic(expected = "theta must be")]
    fn theta_one_panics() {
        let _ = Zipfian::new(10, 1.0);
    }
}
