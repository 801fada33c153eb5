//! Golden-section search for one-dimensional unimodal minimisation.

/// The inverse golden ratio, `(sqrt(5) - 1) / 2 ≈ 0.618`.
const INV_PHI: f64 = 0.618_033_988_749_894_9;

/// Minimises `f` on the closed interval `[a, b]` by golden-section search,
/// assuming `f` is unimodal there. Returns `(x_min, f(x_min))`.
///
/// The search stops when the bracket width falls below `tol * (|a| + |b| + 1)`
/// (a mixed absolute/relative tolerance) or after `max_iter` shrink steps.
///
/// # Panics
/// Panics if `a > b`, if `tol` is not strictly positive, or if the objective
/// returns NaN.
pub fn golden_section<F>(mut a: f64, mut b: f64, tol: f64, max_iter: usize, f: F) -> (f64, f64)
where
    F: Fn(f64) -> f64,
{
    assert!(a <= b, "invalid bracket: a={a} > b={b}");
    assert!(tol > 0.0, "tolerance must be positive");
    let eval = |x: f64| {
        let y = f(x);
        assert!(!y.is_nan(), "objective returned NaN at x={x}");
        y
    };
    if a == b {
        return (a, eval(a));
    }
    let mut c = b - INV_PHI * (b - a);
    let mut d = a + INV_PHI * (b - a);
    let mut fc = eval(c);
    let mut fd = eval(d);
    let threshold = tol * (a.abs() + b.abs() + 1.0);
    for _ in 0..max_iter {
        if (b - a) <= threshold {
            break;
        }
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - INV_PHI * (b - a);
            fc = eval(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + INV_PHI * (b - a);
            fd = eval(d);
        }
    }
    let mid = 0.5 * (a + b);
    let fmid = eval(mid);
    // Return the best of the three candidates we still hold.
    let mut best = (mid, fmid);
    if fc < best.1 {
        best = (c, fc);
    }
    if fd < best.1 {
        best = (d, fd);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_quadratic_minimum() {
        let (x, y) = golden_section(-10.0, 10.0, 1e-10, 200, |x| (x - 3.0).powi(2) + 1.0);
        assert!((x - 3.0).abs() < 1e-6);
        assert!((y - 1.0).abs() < 1e-10);
    }

    #[test]
    fn finds_minimum_at_boundary() {
        // Monotonically increasing function: the minimum is the left endpoint.
        let (x, _) = golden_section(2.0, 9.0, 1e-10, 200, |x| x * x);
        assert!((x - 2.0).abs() < 1e-4);
    }

    #[test]
    fn handles_degenerate_interval() {
        let (x, y) = golden_section(4.0, 4.0, 1e-8, 100, |x| x + 1.0);
        assert_eq!(x, 4.0);
        assert_eq!(y, 5.0);
    }

    #[test]
    fn finds_young_daly_like_minimum() {
        // f(T) = C/T + λ T/2 has its minimum at sqrt(2C/λ).
        let (c, lambda) = (300.0, 1e-5);
        let (t, _) = golden_section(1.0, 1e7, 1e-12, 400, |t| c / t + lambda * t / 2.0);
        let expected = (2.0 * c / lambda).sqrt();
        assert!(
            (t - expected).abs() / expected < 1e-5,
            "t={t} expected={expected}"
        );
    }

    #[test]
    #[should_panic(expected = "invalid bracket")]
    fn rejects_reversed_bracket() {
        let _ = golden_section(1.0, 0.0, 1e-8, 10, |x| x);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan_objective() {
        let _ = golden_section(0.0, 1.0, 1e-8, 10, |_| f64::NAN);
    }
}
