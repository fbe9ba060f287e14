//! Aggregation helpers used when folding per-workload results into the
//! paper's summary numbers.
//!
//! The paper reports performance as "the geometric mean of the IPC values of
//! different workloads running on the eight processor cores", normalized to
//! the BASE scheme (§5.1). [`geomean`] is that mean; the speedup table in
//! the simulator crate divides each scheme's by BASE's.

/// Geometric mean of strictly positive values; `None` if the slice is empty
/// or contains a non-positive value.
#[must_use]
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Arithmetic mean; `None` if empty.
#[must_use]
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_identical_is_identity() {
        assert!((geomean(&[2.0, 2.0, 2.0]).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_known_value() {
        // gm(1, 4) = 2; gm(1, 2, 4) = 2.
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 2.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_rejects_bad_input() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn geomean_leq_mean() {
        // AM-GM inequality.
        let v = [1.0, 3.0, 9.0, 27.0];
        assert!(geomean(&v).unwrap() <= mean(&v).unwrap());
    }

    #[test]
    fn mean_basics() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
    }
}
