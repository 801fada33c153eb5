//! Integer minimisation for processor counts.
//!
//! Optimal processor allocations are, physically, integers. The analysis treats
//! `P` as continuous; this module converts a continuous optimum into the best
//! integer neighbour.

/// Rounds a continuous optimiser `x` to the best of its integer neighbours
/// (clamped to be at least `min`), according to the objective `f`.
/// Returns `(argmin, min)`.
pub fn round_to_best_integer<F>(x: f64, min: u64, f: F) -> (u64, f64)
where
    F: Fn(u64) -> f64,
{
    let floor = (x.floor().max(min as f64)) as u64;
    let candidates = [
        floor.saturating_sub(1).max(min),
        floor.max(min),
        (floor + 1).max(min),
    ];
    let mut best: Option<(u64, f64)> = None;
    for &p in &candidates {
        let v = f(p);
        if v.is_finite() && best.is_none_or(|(_, bv)| v < bv) {
            best = Some((p, v));
        }
    }
    best.expect("objective was non-finite at every candidate integer")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounding_picks_best_neighbour() {
        let f = |p: u64| (p as f64 - 7.6).powi(2);
        assert_eq!(round_to_best_integer(7.6, 1, f).0, 8);
        let f = |p: u64| (p as f64 - 7.4).powi(2);
        assert_eq!(round_to_best_integer(7.4, 1, f).0, 7);
    }

    #[test]
    fn rounding_respects_minimum() {
        let f = |p: u64| p as f64;
        assert_eq!(round_to_best_integer(0.2, 1, f).0, 1);
    }
}
