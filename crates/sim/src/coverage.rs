//! Fault-coverage curve bookkeeping.

use std::fmt;

/// The cumulative fault-coverage curve of an ordered test set.
///
/// `cumulative(i)` is the paper's `n_ord(i)`: the number of faults detected
/// by the first `i` tests (with `n_ord(0) = 0`). The curve is the raw
/// material both for Figure 1 and for the `AVE_ord` steepness metric.
///
/// # Examples
///
/// ```
/// use adi_sim::CoverageCurve;
///
/// // Three tests detecting 5, 2 and 1 new faults out of 10 total.
/// let curve = CoverageCurve::from_new_detections(&[5, 2, 1], 10);
/// assert_eq!(curve.cumulative(0), 0);
/// assert_eq!(curve.cumulative(2), 7);
/// assert_eq!(curve.final_detected(), 8);
/// assert!((curve.coverage_fraction(3) - 0.8).abs() < 1e-12);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CoverageCurve {
    /// `cumulative[i]` = faults detected by the first `i` tests; index 0
    /// is always 0.
    cumulative: Vec<usize>,
    total_faults: usize,
}

impl CoverageCurve {
    /// Builds a curve from the number of *new* faults detected by each
    /// test, in application order.
    pub fn from_new_detections(new_per_test: &[u32], total_faults: usize) -> Self {
        let mut cumulative = Vec::with_capacity(new_per_test.len() + 1);
        cumulative.push(0usize);
        let mut acc = 0usize;
        for &d in new_per_test {
            acc += d as usize;
            cumulative.push(acc);
        }
        CoverageCurve {
            cumulative,
            total_faults,
        }
    }

    /// Builds a curve from per-fault first-detection indices (as produced
    /// by fault simulation with dropping over an ordered test set of
    /// `num_tests` tests).
    pub fn from_first_detection(
        first_detection: &[Option<u32>],
        num_tests: usize,
        total_faults: usize,
    ) -> Self {
        let mut new_per_test = vec![0u32; num_tests];
        for d in first_detection.iter().flatten() {
            new_per_test[*d as usize] += 1;
        }
        Self::from_new_detections(&new_per_test, total_faults)
    }

    /// Number of tests in the curve.
    pub fn num_tests(&self) -> usize {
        self.cumulative.len() - 1
    }

    /// Total number of target faults (the curve's denominator).
    pub fn total_faults(&self) -> usize {
        self.total_faults
    }

    /// `n_ord(i)`: faults detected by the first `i` tests.
    ///
    /// # Panics
    ///
    /// Panics if `i > num_tests()`.
    pub fn cumulative(&self, i: usize) -> usize {
        self.cumulative[i]
    }

    /// Fault coverage after `i` tests, as a fraction of the total.
    ///
    /// Returns 0 when the fault list is empty.
    ///
    /// # Panics
    ///
    /// Panics if `i > num_tests()`.
    pub fn coverage_fraction(&self, i: usize) -> f64 {
        if self.total_faults == 0 {
            0.0
        } else {
            self.cumulative[i] as f64 / self.total_faults as f64
        }
    }

    /// Faults detected by the complete test set.
    pub fn final_detected(&self) -> usize {
        *self.cumulative.last().expect("curve has index 0")
    }

    /// New faults detected by test `i` (1-based, like the paper's
    /// `n_ord(i) - n_ord(i-1)`).
    ///
    /// # Panics
    ///
    /// Panics if `i == 0` or `i > num_tests()`.
    pub fn new_at(&self, i: usize) -> usize {
        assert!(i >= 1, "tests are 1-based");
        self.cumulative[i] - self.cumulative[i - 1]
    }

    /// Serializes the curve as CSV rows `test_index,detected,coverage`.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("tests,detected,coverage\n");
        for i in 0..self.cumulative.len() {
            let _ = writeln!(
                out,
                "{},{},{:.6}",
                i,
                self.cumulative[i],
                self.coverage_fraction(i)
            );
        }
        out
    }
}

impl fmt::Display for CoverageCurve {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "coverage curve: {} tests, {}/{} faults detected",
            self.num_tests(),
            self.final_detected(),
            self.total_faults
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cumulative_from_new_detections() {
        let c = CoverageCurve::from_new_detections(&[3, 0, 2], 10);
        assert_eq!(c.num_tests(), 3);
        assert_eq!(c.cumulative(0), 0);
        assert_eq!(c.cumulative(1), 3);
        assert_eq!(c.cumulative(2), 3);
        assert_eq!(c.cumulative(3), 5);
        assert_eq!(c.new_at(3), 2);
        assert_eq!(c.final_detected(), 5);
    }

    #[test]
    fn from_first_detection_matches() {
        let first = vec![Some(0u32), None, Some(2), Some(0), Some(1)];
        let c = CoverageCurve::from_first_detection(&first, 3, 5);
        assert_eq!(c.cumulative(1), 2);
        assert_eq!(c.cumulative(2), 3);
        assert_eq!(c.cumulative(3), 4);
    }

    #[test]
    fn monotone_nondecreasing() {
        let c = CoverageCurve::from_new_detections(&[1, 4, 0, 0, 2], 10);
        for i in 1..=c.num_tests() {
            assert!(c.cumulative(i) >= c.cumulative(i - 1));
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let c = CoverageCurve::from_new_detections(&[2, 1], 4);
        let csv = c.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4); // header + 3 rows (i = 0, 1, 2)
        assert_eq!(lines[0], "tests,detected,coverage");
        assert!(lines[2].starts_with("1,2,"));
    }

    #[test]
    fn display_summarizes() {
        let c = CoverageCurve::from_new_detections(&[2, 1], 4);
        assert_eq!(c.to_string(), "coverage curve: 2 tests, 3/4 faults detected");
    }
}
