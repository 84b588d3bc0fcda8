//! Partially-specified input assignments produced by PODEM.

use std::fmt;

use adi_sim::Pattern;

use crate::value::T3;

/// A test cube: one optional boolean per primary input.
///
/// PODEM assigns only the inputs it needs; the rest remain unspecified
/// (`None`) and are later completed by a [`FillStrategy`]. Any completion
/// of a cube returned by PODEM detects the targeted fault — the 5-valued
/// D-calculus proof holds for every assignment of the X inputs.
///
/// [`FillStrategy`]: crate::FillStrategy
///
/// # Examples
///
/// ```
/// use adi_atpg::TestCube;
///
/// let cube = TestCube::from_options(vec![Some(true), None, Some(false)]);
/// assert_eq!(cube.specified_count(), 2);
/// assert_eq!(cube.get(1), None);
/// assert_eq!(cube.to_string(), "1X0");
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TestCube {
    values: Vec<Option<bool>>,
}

impl TestCube {
    /// Creates a fully unspecified cube over `num_inputs` inputs.
    pub fn unspecified(num_inputs: usize) -> Self {
        TestCube {
            values: vec![None; num_inputs],
        }
    }

    /// Creates a cube from explicit optional values.
    pub fn from_options(values: Vec<Option<bool>>) -> Self {
        TestCube { values }
    }

    /// Creates a cube from ternary values.
    pub fn from_t3(values: &[T3]) -> Self {
        TestCube {
            values: values.iter().map(|v| v.to_bool()).collect(),
        }
    }

    /// Number of inputs.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the cube covers no inputs.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value assigned to input `i` (`None` = unspecified).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> Option<bool> {
        self.values[i]
    }

    /// Assigns input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set(&mut self, i: usize, v: Option<bool>) {
        self.values[i] = v;
    }

    /// Number of specified (binary) inputs.
    pub fn specified_count(&self) -> usize {
        self.values.iter().filter(|v| v.is_some()).count()
    }

    /// Returns `true` if `pattern` is a completion of this cube (agrees on
    /// every specified input).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn covers(&self, pattern: &Pattern) -> bool {
        assert_eq!(self.len(), pattern.len());
        self.values
            .iter()
            .zip(pattern.iter())
            .all(|(&c, p)| c.is_none() || c == Some(p))
    }

    /// The underlying optional values.
    pub fn as_slice(&self) -> &[Option<bool>] {
        &self.values
    }
}

impl fmt::Display for TestCube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for v in &self.values {
            match v {
                Some(true) => write!(f, "1")?,
                Some(false) => write!(f, "0")?,
                None => write!(f, "X")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_counters() {
        let mut c = TestCube::unspecified(4);
        assert_eq!(c.specified_count(), 0);
        c.set(0, Some(true));
        c.set(3, Some(false));
        assert_eq!(c.specified_count(), 2);
    }

    #[test]
    fn covers_checks_specified_bits_only() {
        let c = TestCube::from_options(vec![Some(true), None, Some(false)]);
        assert!(c.covers(&Pattern::new(vec![true, false, false])));
        assert!(c.covers(&Pattern::new(vec![true, true, false])));
        assert!(!c.covers(&Pattern::new(vec![false, true, false])));
        assert!(!c.covers(&Pattern::new(vec![true, true, true])));
    }

    #[test]
    fn from_t3_maps_x() {
        let c = TestCube::from_t3(&[T3::One, T3::X, T3::Zero]);
        assert_eq!(c.get(0), Some(true));
        assert_eq!(c.get(1), None);
        assert_eq!(c.get(2), Some(false));
    }

    #[test]
    fn display_uses_x() {
        let c = TestCube::from_options(vec![None, Some(false)]);
        assert_eq!(c.to_string(), "X0");
    }
}
