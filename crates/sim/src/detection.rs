//! The fault × pattern detection matrix.

use adi_netlist::fault::FaultId;

/// A dense bitmap recording which patterns detect which faults.
///
/// Row `f` is the paper's `D(f)` (the set of vectors detecting fault `f`);
/// column counts are the paper's `ndet(u)` (the number of faults detected
/// by vector `u`). The matrix is produced by
/// [`FaultSimulator::no_drop_matrix`](crate::FaultSimulator::no_drop_matrix).
///
/// # Examples
///
/// ```
/// use adi_sim::DetectionMatrix;
/// use adi_netlist::fault::FaultId;
///
/// let mut m = DetectionMatrix::new(2, 3);
/// m.set(FaultId::new(0), 1);
/// m.set(FaultId::new(1), 1);
/// m.set(FaultId::new(1), 2);
/// assert_eq!(m.ndet_counts(), vec![0, 2, 1]);
/// assert!(m.detected(FaultId::new(1), 2));
/// assert_eq!(m.detecting_patterns(FaultId::new(0)).collect::<Vec<_>>(), vec![1]);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DetectionMatrix {
    n_faults: usize,
    n_patterns: usize,
    n_blocks: usize,
    /// Fault-major: `data[f * n_blocks + b]`.
    data: Vec<u64>,
}

impl DetectionMatrix {
    /// Creates an all-zero matrix for `n_faults` faults and `n_patterns`
    /// patterns.
    pub fn new(n_faults: usize, n_patterns: usize) -> Self {
        let n_blocks = n_patterns.div_ceil(64);
        DetectionMatrix {
            n_faults,
            n_patterns,
            n_blocks,
            data: vec![0; n_faults * n_blocks],
        }
    }

    /// Number of faults (rows).
    pub fn num_faults(&self) -> usize {
        self.n_faults
    }

    /// Number of patterns (columns).
    pub fn num_patterns(&self) -> usize {
        self.n_patterns
    }

    /// Number of 64-pattern blocks per row.
    pub fn num_blocks(&self) -> usize {
        self.n_blocks
    }

    /// Marks `fault` as detected by `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    pub fn set(&mut self, fault: FaultId, pattern: usize) {
        assert!(pattern < self.n_patterns);
        self.data[fault.index() * self.n_blocks + pattern / 64] |= 1u64 << (pattern % 64);
    }

    /// ORs a whole block word into a fault's row (used by the fault
    /// simulator; bits beyond the valid patterns must already be masked).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    pub fn or_word(&mut self, fault: FaultId, block: usize, word: u64) {
        assert!(block < self.n_blocks);
        self.data[fault.index() * self.n_blocks + block] |= word;
    }

    /// Returns `true` if `pattern` detects `fault`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    pub fn detected(&self, fault: FaultId, pattern: usize) -> bool {
        assert!(pattern < self.n_patterns);
        self.data[fault.index() * self.n_blocks + pattern / 64] >> (pattern % 64) & 1 == 1
    }

    /// The packed detection row of `fault`.
    ///
    /// # Panics
    ///
    /// Panics if `fault` is out of range.
    #[inline]
    pub fn row(&self, fault: FaultId) -> &[u64] {
        &self.data[fault.index() * self.n_blocks..(fault.index() + 1) * self.n_blocks]
    }

    /// Returns `true` if any pattern detects `fault`.
    pub fn detected_any(&self, fault: FaultId) -> bool {
        self.row(fault).iter().any(|&w| w != 0)
    }

    /// Number of patterns detecting `fault` (the cardinality of `D(f)`).
    pub fn detection_count(&self, fault: FaultId) -> usize {
        self.row(fault).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the indices of patterns detecting `fault`, in
    /// increasing order.
    pub fn detecting_patterns(&self, fault: FaultId) -> impl Iterator<Item = usize> + '_ {
        self.row(fault).iter().enumerate().flat_map(|(b, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let t = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(b * 64 + t)
                }
            })
        })
    }

    /// Computes `ndet(u)` for every pattern `u`: the number of faults each
    /// pattern detects.
    pub fn ndet_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.n_patterns];
        for f in 0..self.n_faults {
            for b in 0..self.n_blocks {
                let mut w = self.data[f * self.n_blocks + b];
                while w != 0 {
                    let t = w.trailing_zeros() as usize;
                    w &= w - 1;
                    counts[b * 64 + t] += 1;
                }
            }
        }
        counts
    }

    /// Number of faults detected by at least one pattern.
    pub fn num_detected_faults(&self) -> usize {
        (0..self.n_faults)
            .filter(|&f| self.detected_any(FaultId::new(f)))
            .count()
    }

    /// Fault coverage of the whole pattern set: detected / total.
    ///
    /// Returns 0 for an empty fault list.
    pub fn coverage(&self) -> f64 {
        if self.n_faults == 0 {
            0.0
        } else {
            self.num_detected_faults() as f64 / self.n_faults as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_query() {
        let mut m = DetectionMatrix::new(3, 130);
        m.set(FaultId::new(0), 0);
        m.set(FaultId::new(0), 64);
        m.set(FaultId::new(2), 129);
        assert!(m.detected(FaultId::new(0), 0));
        assert!(m.detected(FaultId::new(0), 64));
        assert!(!m.detected(FaultId::new(0), 1));
        assert!(m.detected(FaultId::new(2), 129));
        assert_eq!(m.detection_count(FaultId::new(0)), 2);
        assert_eq!(m.detection_count(FaultId::new(1)), 0);
        assert!(m.detected_any(FaultId::new(2)));
        assert!(!m.detected_any(FaultId::new(1)));
    }

    #[test]
    fn ndet_counts_are_column_sums() {
        let mut m = DetectionMatrix::new(4, 5);
        for f in 0..4 {
            m.set(FaultId::new(f), 2);
        }
        m.set(FaultId::new(1), 4);
        let ndet = m.ndet_counts();
        assert_eq!(ndet, vec![0, 0, 4, 0, 1]);
    }

    #[test]
    fn detecting_patterns_in_order() {
        let mut m = DetectionMatrix::new(1, 200);
        for p in [5usize, 63, 64, 199] {
            m.set(FaultId::new(0), p);
        }
        let got: Vec<usize> = m.detecting_patterns(FaultId::new(0)).collect();
        assert_eq!(got, vec![5, 63, 64, 199]);
    }

    #[test]
    fn coverage_counts_detected_rows() {
        let mut m = DetectionMatrix::new(4, 8);
        m.set(FaultId::new(0), 3);
        m.set(FaultId::new(3), 7);
        assert_eq!(m.num_detected_faults(), 2);
        assert!((m.coverage() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn or_word_sets_bits() {
        let mut m = DetectionMatrix::new(2, 70);
        m.or_word(FaultId::new(1), 1, 0b11);
        assert!(m.detected(FaultId::new(1), 64));
        assert!(m.detected(FaultId::new(1), 65));
        assert_eq!(m.detection_count(FaultId::new(1)), 2);
    }

    #[test]
    fn empty_matrix() {
        let m = DetectionMatrix::new(0, 0);
        assert_eq!(m.num_detected_faults(), 0);
        assert_eq!(m.coverage(), 0.0);
        assert!(m.ndet_counts().is_empty());
    }
}
