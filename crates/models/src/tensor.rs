//! Minimal dense linear algebra for the model substrate.
//!
//! [`Matrix`] is a row-major `f64` matrix with exactly the operations the
//! from-scratch neural network needs: matmul, transpose, elementwise map,
//! and row/column access. No external BLAS — the paper's models here are
//! small (pBEAM-scale), so clarity beats throughput.

use vdap_sim::RngStream;

/// A row-major dense matrix.
///
/// # Examples
///
/// ```
/// use vdap_models::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from row slices.
    ///
    /// # Panics
    ///
    /// Panics when rows are empty or ragged.
    #[must_use]
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "need at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        assert!(rows > 0 && cols > 0);
        Matrix { rows, cols, data }
    }

    /// Random matrix with Xavier-style scaling, for weight init.
    #[must_use]
    pub fn xavier(rows: usize, cols: usize, rng: &mut RngStream) -> Self {
        let scale = (2.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols).map(|_| rng.normal(0.0, scale)).collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major data.
    #[must_use]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// One row as a slice.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of bounds.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics when inner dimensions disagree.
    #[must_use]
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must match");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue; // sparse-friendly skip for pruned weights
                }
                let orow = &other.data[k * other.cols..(k + 1) * other.cols];
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(orow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Elementwise map.
    #[must_use]
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a * b)
                .collect(),
        }
    }

    /// Scales every element.
    #[must_use]
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Count of non-zero elements (pruning metric).
    #[must_use]
    pub fn nonzero(&self) -> usize {
        self.data.iter().filter(|&&x| x != 0.0).count()
    }

    /// Frobenius norm.
    #[must_use]
    pub fn frobenius(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdap_sim::SeedFactory;

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = SeedFactory::new(3).stream("m");
        let a = Matrix::xavier(4, 4, &mut rng);
        assert_eq!(a.matmul(&Matrix::identity(4)), a);
        assert_eq!(Matrix::identity(4).matmul(&a), a);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = SeedFactory::new(5).stream("m");
        let a = Matrix::xavier(3, 7, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows(), 7);
    }

    #[test]
    fn transpose_distributes_over_matmul() {
        let mut rng = SeedFactory::new(7).stream("m");
        let a = Matrix::xavier(2, 3, &mut rng);
        let b = Matrix::xavier(3, 4, &mut rng);
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn add_and_hadamard() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.add(&b), Matrix::from_rows(&[&[4.0, 6.0]]));
        assert_eq!(a.hadamard(&b), Matrix::from_rows(&[&[3.0, 8.0]]));
    }

    #[test]
    fn nonzero_counts_pruned_weights() {
        let mut a = Matrix::zeros(2, 2);
        a[(0, 1)] = 5.0;
        assert_eq!(a.nonzero(), 1);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn frobenius_norm() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((a.frobenius() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn xavier_scale_reasonable() {
        let mut rng = SeedFactory::new(11).stream("m");
        let a = Matrix::xavier(64, 64, &mut rng);
        let std = (a.data().iter().map(|x| x * x).sum::<f64>() / a.len() as f64).sqrt();
        let expect = (2.0 / 128.0f64).sqrt();
        assert!(
            (std - expect).abs() / expect < 0.15,
            "std {std} vs {expect}"
        );
    }
}
