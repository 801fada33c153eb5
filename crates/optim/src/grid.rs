//! Logarithmic grid scans.
//!
//! The overheads minimised in this project vary over many orders of magnitude in
//! both `T` (seconds to weeks) and `P` (tens to 10^12 processors in the α = 0
//! regime of Figure 6), so every search starts with a coarse scan over a
//! logarithmically spaced grid to locate the basin containing the global minimum
//! before a local method refines it.

/// The logarithmic grid of `n` points on `[lo, hi]`, with `ln lo` and the
/// log step computed once. Point `i` is `exp(ln lo + step · i)`, and the last
/// point is `hi` itself. [`log_space`] and the seeded search of
/// [`crate::seeded`] both evaluate points through it, so a probed point is
/// bit-identical to the same point of a full scan.
#[derive(Debug, Clone, Copy)]
pub struct LogGrid {
    lo: f64,
    hi: f64,
    n: usize,
    ln_lo: f64,
    step: f64,
}

impl LogGrid {
    /// The grid of `n` points on `[lo, hi]` (a single point when `lo == hi`).
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        let (ln_lo, ln_hi) = (lo.ln(), hi.ln());
        Self {
            lo,
            hi,
            n,
            ln_lo,
            step: (ln_hi - ln_lo) / (n as f64 - 1.0),
        }
    }

    /// The `i`-th grid point.
    ///
    /// # Panics
    /// Panics if `i >= n` (or `i > 0` on a degenerate `lo == hi` range).
    pub fn point(&self, i: usize) -> f64 {
        if self.lo == self.hi {
            assert!(i == 0, "index {i} out of range for a degenerate grid");
            return self.lo;
        }
        assert!(
            i < self.n,
            "index {i} out of range for a {}-point grid",
            self.n
        );
        if i == self.n - 1 {
            self.hi // avoid drift on the last point
        } else {
            (self.ln_lo + self.step * i as f64).exp()
        }
    }

    /// The index of the grid point nearest `x` in log space, clamped into the
    /// grid; `None` when `x` has no finite log-space position (`x ≤ 0`, NaN,
    /// infinite) or the grid is degenerate.
    pub fn nearest_index(&self, x: f64) -> Option<usize> {
        let index = ((x.ln() - self.ln_lo) / self.step).round();
        index
            .is_finite()
            .then(|| (index.max(0.0) as usize).min(self.n - 1))
    }
}

/// Generates `n` logarithmically spaced points covering `[lo, hi]` inclusive.
///
/// # Panics
/// Panics if `lo` or `hi` is not strictly positive, if `lo > hi`, or if `n < 2`
/// while `lo != hi`.
pub fn log_space(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > 0.0, "log spacing requires positive bounds");
    assert!(lo <= hi, "invalid range: lo={lo} > hi={hi}");
    if lo == hi {
        return vec![lo];
    }
    assert!(
        n >= 2,
        "need at least two points to span a non-degenerate range"
    );
    let grid = LogGrid::new(lo, hi, n);
    (0..n).map(|i| grid.point(i)).collect()
}

/// Scans `f` over a logarithmic grid of `n` points on `[lo, hi]` and returns the
/// index of the best point together with the full grid and values
/// (`(best_index, grid, values)`); non-finite objective values are skipped.
///
/// If the objective is non-finite on the whole grid the first index is returned
/// (its non-finite value signals the caller that no usable minimum exists — the
/// nested `(P, T)` search relies on this to discard processor counts whose
/// overhead overflows for every period).
pub fn log_grid_scan<F>(lo: f64, hi: f64, n: usize, f: F) -> (usize, Vec<f64>, Vec<f64>)
where
    F: Fn(f64) -> f64,
{
    let grid = log_space(lo, hi, n);
    let values: Vec<f64> = grid.iter().map(|&x| f(x)).collect();
    let mut best: Option<usize> = None;
    for (i, &v) in values.iter().enumerate() {
        if v.is_finite() && best.is_none_or(|b| v < values[b]) {
            best = Some(i);
        }
    }
    (best.unwrap_or(0), grid, values)
}

/// Returns the best point of a logarithmic grid scan together with a bracket
/// `[lower, upper]` formed by its grid neighbours, suitable for handing to a
/// local refinement method: `(x_best, f_best, lower, upper)`.
pub fn log_grid_minimum<F>(lo: f64, hi: f64, n: usize, f: F) -> (f64, f64, f64, f64)
where
    F: Fn(f64) -> f64,
{
    let (best, grid, values) = log_grid_scan(lo, hi, n, f);
    let lower = if best == 0 { grid[0] } else { grid[best - 1] };
    let upper = if best + 1 == grid.len() {
        grid[grid.len() - 1]
    } else {
        grid[best + 1]
    };
    (grid[best], values[best], lower, upper)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_space_endpoints_and_monotonicity() {
        let g = log_space(1.0, 1e6, 7);
        assert_eq!(g.len(), 7);
        assert!((g[0] - 1.0).abs() < 1e-12);
        assert!((g[6] - 1e6).abs() < 1e-6);
        for w in g.windows(2) {
            assert!(w[1] > w[0]);
        }
        // Ratios are constant for a log grid.
        let r = g[1] / g[0];
        for w in g.windows(2) {
            assert!((w[1] / w[0] - r).abs() < 1e-9);
        }
    }

    #[test]
    fn log_space_degenerate_range() {
        assert_eq!(log_space(5.0, 5.0, 1), vec![5.0]);
    }

    #[test]
    fn grid_scan_finds_basin() {
        let f = |x: f64| (x.ln() - 100.0f64.ln()).powi(2);
        let (x, _, lower, upper) = log_grid_minimum(1.0, 1e6, 61, f);
        assert!(x > 50.0 && x < 200.0, "x={x}");
        assert!(
            lower <= 100.0 && upper >= 100.0,
            "bracket [{lower}, {upper}] misses the optimum"
        );
    }

    #[test]
    fn grid_scan_skips_non_finite_values() {
        let f = |x: f64| {
            if x < 10.0 {
                f64::INFINITY
            } else {
                (x - 50.0).powi(2)
            }
        };
        let (x, _, _, _) = log_grid_minimum(1.0, 1e3, 200, f);
        assert!(x >= 10.0);
        assert!((x - 50.0).abs() < 10.0);
    }

    #[test]
    fn bracket_is_clamped_at_range_edges() {
        // Minimum at the left edge.
        let (x, _, lower, _) = log_grid_minimum(2.0, 1e3, 30, |x| x);
        assert_eq!(x, 2.0);
        assert_eq!(lower, 2.0);
        // Minimum at the right edge.
        let (x, _, _, upper) = log_grid_minimum(2.0, 1e3, 30, |x| -x);
        assert!((x - 1e3).abs() < 1e-9);
        assert!((upper - 1e3).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive bounds")]
    fn rejects_non_positive_bounds() {
        let _ = log_space(0.0, 10.0, 5);
    }

    #[test]
    fn log_grid_points_are_bit_identical_to_the_full_scan() {
        for &(lo, hi, n) in &[(1.0, 1e7, 64), (1.0, 1e9, 40), (2.5, 3.25e4, 7)] {
            let scan = log_space(lo, hi, n);
            let grid = LogGrid::new(lo, hi, n);
            for (i, &x) in scan.iter().enumerate() {
                // The grid's expression, written out with its logarithms
                // taken per point: hoisting them changes no bit.
                let expected = if i == n - 1 {
                    hi
                } else {
                    (lo.ln() + (hi.ln() - lo.ln()) / (n as f64 - 1.0) * i as f64).exp()
                };
                assert_eq!(
                    x.to_bits(),
                    expected.to_bits(),
                    "point {i} of ({lo}, {hi}, {n})"
                );
                assert_eq!(grid.point(i).to_bits(), expected.to_bits());
                assert_eq!(grid.nearest_index(x), Some(i));
            }
            assert_eq!(grid.nearest_index(hi * 1e3), Some(n - 1));
            for x in [0.0, -1.0, f64::NAN, f64::INFINITY] {
                assert_eq!(grid.nearest_index(x), None, "x = {x}");
            }
        }
        assert_eq!(LogGrid::new(5.0, 5.0, 1).point(0), 5.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn log_grid_rejects_out_of_range_indices() {
        let _ = LogGrid::new(1.0, 10.0, 5).point(5);
    }

    #[test]
    fn fully_infinite_objective_reports_a_non_finite_minimum() {
        let (x, value, _, _) = log_grid_minimum(1.0, 10.0, 5, |_| f64::INFINITY);
        assert_eq!(x, 1.0);
        assert!(!value.is_finite());
    }
}
