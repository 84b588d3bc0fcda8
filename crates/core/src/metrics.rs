//! Steepness metrics for fault-coverage curves (Section 4 of the paper).

use adi_sim::CoverageCurve;

/// The paper's `AVE_ord`: the expected number of tests that must be
/// applied before a fault is detected,
///
/// ```text
/// AVE = ( Σ_{i=1..k} i · (n(i) − n(i−1)) ) / n(k)
/// ```
///
/// A lower value means a steeper fault-coverage curve. Returns 0 when the
/// test set detects nothing.
///
/// # Examples
///
/// ```
/// use adi_core::metrics::average_detection_position;
/// use adi_sim::CoverageCurve;
///
/// // 4 faults at test 1, 1 fault at test 2: AVE = (4·1 + 1·2) / 5 = 1.2
/// let curve = CoverageCurve::from_new_detections(&[4, 1], 10);
/// assert!((average_detection_position(&curve) - 1.2).abs() < 1e-12);
/// ```
pub fn average_detection_position(curve: &CoverageCurve) -> f64 {
    let detected = curve.final_detected();
    if detected == 0 {
        return 0.0;
    }
    let mut weighted = 0.0f64;
    for i in 1..=curve.num_tests() {
        weighted += (i as f64) * (curve.new_at(i) as f64);
    }
    weighted / detected as f64
}

/// One labelled curve for plotting.
#[derive(Clone, PartialEq, Debug)]
pub struct LabelledCurve {
    /// Legend label (e.g. the ordering name).
    pub label: String,
    /// Plot glyph (the paper uses `o`, `d`, `z`).
    pub glyph: char,
    /// The curve.
    pub curve: CoverageCurve,
}

/// Renders Figure-1-style ASCII art: x = tests as a percentage of the
/// largest test set, y = fault coverage percentage.
///
/// Later curves overdraw earlier ones where they collide, mirroring the
/// paper's overlaid scatter plot.
pub fn ascii_plot(curves: &[LabelledCurve], width: usize, height: usize) -> String {
    assert!(width >= 10 && height >= 5, "plot too small");
    let max_tests = curves
        .iter()
        .map(|c| c.curve.num_tests())
        .max()
        .unwrap_or(0);
    let mut grid = vec![vec![' '; width]; height];

    for lc in curves {
        let total = lc.curve.total_faults().max(1);
        for i in 0..=lc.curve.num_tests() {
            if max_tests == 0 {
                continue;
            }
            let x = (i as f64 / max_tests as f64 * (width - 1) as f64).round() as usize;
            let cov = lc.curve.cumulative(i) as f64 / total as f64;
            let y = ((1.0 - cov) * (height - 1) as f64).round() as usize;
            grid[y.min(height - 1)][x.min(width - 1)] = lc.glyph;
        }
    }

    let mut out = String::new();
    out.push_str("f.c. 100% |\n");
    for row in &grid {
        out.push_str("          |");
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str("       0% +");
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!(
        "           0%{}100% of {} tests\n",
        " ".repeat(width.saturating_sub(9)),
        max_tests
    ));
    for lc in curves {
        out.push_str(&format!("  {} - {}\n", lc.glyph, lc.label));
    }
    out
}

/// Coverage retained when the last `drop_fraction` of the tests is
/// removed — the paper's tester-memory-truncation motivation.
///
/// Returns `(kept_tests, coverage_fraction)`.
pub fn truncated_coverage(curve: &CoverageCurve, drop_fraction: f64) -> (usize, f64) {
    let kept = ((1.0 - drop_fraction) * curve.num_tests() as f64).floor() as usize;
    (kept, curve.coverage_fraction(kept))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ave_hand_computed() {
        // n(1)=3, n(2)=3, n(3)=6: AVE = (1*3 + 2*0 + 3*3)/6 = 2.0
        let c = CoverageCurve::from_new_detections(&[3, 0, 3], 6);
        assert!((average_detection_position(&c) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ave_of_empty_detection_is_zero() {
        let c = CoverageCurve::from_new_detections(&[0, 0], 5);
        assert_eq!(average_detection_position(&c), 0.0);
    }

    #[test]
    fn steeper_curve_has_lower_ave() {
        let steep = CoverageCurve::from_new_detections(&[8, 1, 1], 10);
        let flat = CoverageCurve::from_new_detections(&[1, 1, 8], 10);
        assert!(
            average_detection_position(&steep) < average_detection_position(&flat)
        );
    }

    #[test]
    fn ascii_plot_contains_glyphs_and_legend() {
        let curves = vec![
            LabelledCurve {
                label: "orig".into(),
                glyph: 'o',
                curve: CoverageCurve::from_new_detections(&[1, 1, 1, 1], 4),
            },
            LabelledCurve {
                label: "dynm".into(),
                glyph: 'd',
                curve: CoverageCurve::from_new_detections(&[3, 1], 4),
            },
        ];
        let plot = ascii_plot(&curves, 40, 10);
        assert!(plot.contains('o'));
        assert!(plot.contains('d'));
        assert!(plot.contains("o - orig"));
        assert!(plot.contains("d - dynm"));
        assert!(plot.contains("100%"));
    }

    #[test]
    fn truncated_coverage_drops_tail() {
        let c = CoverageCurve::from_new_detections(&[5, 2, 2, 1], 10);
        let (kept, cov) = truncated_coverage(&c, 0.5);
        assert_eq!(kept, 2);
        assert!((cov - 0.7).abs() < 1e-12);
        let (all, full) = truncated_coverage(&c, 0.0);
        assert_eq!(all, 4);
        assert!((full - 1.0).abs() < 1e-12);
    }
}
