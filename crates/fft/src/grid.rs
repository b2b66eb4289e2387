use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major 2-D grid of `f64` samples.
///
/// The grid is indexed by `(ix, iy)` where `ix` selects the row
/// (x-direction bin) and `iy` the column (y-direction bin); storage is
/// contiguous along `iy`. This is the carrier type for density maps and
/// field maps throughout the framework.
///
/// ```
/// use xplace_fft::Grid2;
///
/// let mut g = Grid2::new(4, 8);
/// g[(1, 2)] = 3.5;
/// assert_eq!(g[(1, 2)], 3.5);
/// assert_eq!(g.nx(), 4);
/// assert_eq!(g.ny(), 8);
/// assert_eq!(g.sum(), 3.5);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Grid2 {
    nx: usize,
    ny: usize,
    data: Vec<f64>,
}

impl Grid2 {
    /// Creates an `nx`-by-`ny` grid filled with zeros.
    pub fn new(nx: usize, ny: usize) -> Self {
        Grid2 {
            nx,
            ny,
            data: vec![0.0; nx * ny],
        }
    }

    /// Creates a grid from existing row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != nx * ny`.
    pub fn from_vec(nx: usize, ny: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), nx * ny, "grid data length must equal nx * ny");
        Grid2 { nx, ny, data }
    }

    /// Creates a grid by evaluating `f(ix, iy)` at every sample.
    pub fn from_fn(nx: usize, ny: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(nx * ny);
        for ix in 0..nx {
            for iy in 0..ny {
                data.push(f(ix, iy));
            }
        }
        Grid2 { nx, ny, data }
    }

    /// Number of samples along x (rows).
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of samples along y (columns).
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Total number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the grid holds no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The `(nx, ny)` dimension pair.
    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Borrows the raw row-major sample buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the raw row-major sample buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrows row `ix` (all `iy` samples at that x index).
    ///
    /// # Panics
    ///
    /// Panics if `ix >= nx`.
    #[inline]
    pub fn row(&self, ix: usize) -> &[f64] {
        &self.data[ix * self.ny..(ix + 1) * self.ny]
    }

    /// Mutably borrows row `ix`.
    ///
    /// # Panics
    ///
    /// Panics if `ix >= nx`.
    #[inline]
    pub fn row_mut(&mut self, ix: usize) -> &mut [f64] {
        &mut self.data[ix * self.ny..(ix + 1) * self.ny]
    }

    /// Sets every sample to zero, retaining the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Fills every sample with `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// The sum of all samples.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// The maximum sample, or 0.0 for an empty grid.
    pub fn max(&self) -> f64 {
        self.data
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            .max(if self.data.is_empty() {
                0.0
            } else {
                f64::NEG_INFINITY
            })
    }

    /// The minimum sample, or 0.0 for an empty grid.
    pub fn min(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Adds `other` element-wise into `self`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn add_assign_grid(&mut self, other: &Grid2) {
        assert_eq!(self.dims(), other.dims(), "grid dimensions must match");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
    }

    /// Scales every sample by `s`.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Subtracts the mean so samples sum to zero (the `∫ρ = 0` condition of
    /// the electrostatic system).
    pub fn remove_mean(&mut self) {
        if self.data.is_empty() {
            return;
        }
        let mean = self.sum() / self.data.len() as f64;
        for v in &mut self.data {
            *v -= mean;
        }
    }

    /// Maximum absolute difference to another grid of the same dimensions.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn max_abs_diff(&self, other: &Grid2) -> f64 {
        assert_eq!(self.dims(), other.dims(), "grid dimensions must match");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl Index<(usize, usize)> for Grid2 {
    type Output = f64;
    #[inline]
    fn index(&self, (ix, iy): (usize, usize)) -> &f64 {
        debug_assert!(ix < self.nx && iy < self.ny);
        &self.data[ix * self.ny + iy]
    }
}

impl IndexMut<(usize, usize)> for Grid2 {
    #[inline]
    fn index_mut(&mut self, (ix, iy): (usize, usize)) -> &mut f64 {
        debug_assert!(ix < self.nx && iy < self.ny);
        &mut self.data[ix * self.ny + iy]
    }
}

impl fmt::Display for Grid2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Grid2 {}x{}", self.nx, self.ny)?;
        for ix in 0..self.nx.min(8) {
            for iy in 0..self.ny.min(8) {
                write!(f, "{:10.4} ", self[(ix, iy)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_row_major() {
        let mut g = Grid2::new(3, 4);
        g[(2, 1)] = 7.0;
        assert_eq!(g.as_slice()[2 * 4 + 1], 7.0);
        assert_eq!(g.row(2)[1], 7.0);
    }

    #[test]
    fn from_fn_evaluates_each_sample() {
        let g = Grid2::from_fn(2, 3, |ix, iy| (ix * 10 + iy) as f64);
        assert_eq!(g[(0, 0)], 0.0);
        assert_eq!(g[(1, 2)], 12.0);
        assert_eq!(g.len(), 6);
    }

    #[test]
    #[should_panic(expected = "grid data length")]
    fn from_vec_rejects_bad_length() {
        let _ = Grid2::from_vec(2, 2, vec![0.0; 5]);
    }

    #[test]
    fn sum_min_max() {
        let g = Grid2::from_vec(1, 4, vec![1.0, -2.0, 3.0, 0.5]);
        assert_eq!(g.sum(), 2.5);
        assert_eq!(g.max(), 3.0);
        assert_eq!(g.min(), -2.0);
    }

    #[test]
    fn remove_mean_centers_samples() {
        let mut g = Grid2::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        g.remove_mean();
        assert!(g.sum().abs() < 1e-12);
        assert_eq!(g[(0, 0)], -1.5);
    }

    #[test]
    fn add_assign_and_scale() {
        let mut a = Grid2::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Grid2::from_vec(1, 2, vec![0.5, -1.0]);
        a.add_assign_grid(&b);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[3.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "grid dimensions")]
    fn add_assign_rejects_mismatched_dims() {
        let mut a = Grid2::new(2, 2);
        let b = Grid2::new(2, 3);
        a.add_assign_grid(&b);
    }

    #[test]
    fn max_abs_diff_measures_distance() {
        let a = Grid2::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Grid2::from_vec(1, 3, vec![1.0, 2.5, 2.0]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }

    #[test]
    fn empty_grid_behaves() {
        let g = Grid2::new(0, 0);
        assert!(g.is_empty());
        assert_eq!(g.sum(), 0.0);
        assert_eq!(g.min(), 0.0);
    }

    #[test]
    fn display_is_nonempty() {
        let g = Grid2::new(2, 2);
        assert!(!format!("{g}").is_empty());
    }
}
