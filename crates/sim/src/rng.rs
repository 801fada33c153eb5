//! Random-number utilities: exponential sampling and deterministic seed derivation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Exp};

/// Samples the time to the next arrival of a Poisson process of rate `rate`
/// (an exponential random variable). A zero rate yields `+∞` (the event never
/// happens), which the engines rely on to model error-free sources.
pub fn sample_exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    debug_assert!(rate >= 0.0 && rate.is_finite());
    if rate == 0.0 {
        return f64::INFINITY;
    }
    // `rand_distr`'s sampler (the vendored one inverts the CDF, `-ln(1 - u) / λ`);
    // rate is validated above.
    Exp::new(rate).expect("positive finite rate").sample(rng)
}

/// Inverse-CDF exponential sampler, kept as an independent implementation for
/// cross-checking the distribution of [`sample_exponential`] in tests.
pub fn sample_exponential_inverse_cdf<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    debug_assert!(rate >= 0.0 && rate.is_finite());
    if rate == 0.0 {
        return f64::INFINITY;
    }
    // u ∈ (0, 1]; -ln(u)/rate is Exp(rate) distributed.
    let u: f64 = 1.0 - rng.gen::<f64>();
    -u.ln() / rate
}

/// Derives a per-replicate RNG from a base seed and a replicate index, using a
/// SplitMix64 mixing step so that consecutive indices produce decorrelated
/// streams. Deterministic: the same `(base_seed, index)` always yields the same
/// stream, regardless of how replicates are scheduled across threads.
pub fn rng_for_replicate(base_seed: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64(base_seed ^ splitmix64(index)))
}

/// One round of the SplitMix64 mixing function.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_fires() {
        let mut rng = rng_for_replicate(1, 0);
        assert_eq!(sample_exponential(&mut rng, 0.0), f64::INFINITY);
        assert_eq!(sample_exponential_inverse_cdf(&mut rng, 0.0), f64::INFINITY);
    }

    #[test]
    fn exponential_mean_matches_inverse_rate() {
        let mut rng = rng_for_replicate(42, 7);
        let rate = 1.0 / 500.0;
        let n = 200_000;
        let mean: f64 = (0..n)
            .map(|_| sample_exponential(&mut rng, rate))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 500.0).abs() < 5.0, "mean={mean}");
    }

    #[test]
    fn both_samplers_agree_in_distribution() {
        let rate = 2.5e-3;
        let n = 200_000;
        let mut rng1 = rng_for_replicate(7, 1);
        let mut rng2 = rng_for_replicate(7, 2);
        let mean1: f64 = (0..n)
            .map(|_| sample_exponential(&mut rng1, rate))
            .sum::<f64>()
            / n as f64;
        let mean2: f64 = (0..n)
            .map(|_| sample_exponential_inverse_cdf(&mut rng2, rate))
            .sum::<f64>()
            / n as f64;
        let expected = 1.0 / rate;
        assert!((mean1 - expected).abs() / expected < 0.02);
        assert!((mean2 - expected).abs() / expected < 0.02);
    }

    #[test]
    fn replicate_streams_are_deterministic_and_distinct() {
        let mut a1 = rng_for_replicate(123, 5);
        let mut a2 = rng_for_replicate(123, 5);
        let mut b = rng_for_replicate(123, 6);
        let xs1: Vec<f64> = (0..10).map(|_| a1.gen::<f64>()).collect();
        let xs2: Vec<f64> = (0..10).map(|_| a2.gen::<f64>()).collect();
        let ys: Vec<f64> = (0..10).map(|_| b.gen::<f64>()).collect();
        assert_eq!(xs1, xs2, "same seed/index must reproduce the stream");
        assert_ne!(xs1, ys, "different indices must decorrelate");
    }

    #[test]
    fn splitmix_is_a_bijection_probe() {
        // Distinct inputs map to distinct outputs on a small probe set.
        let outs: std::collections::HashSet<u64> = (0..1_000u64).map(splitmix64).collect();
        assert_eq!(outs.len(), 1_000);
    }
}
