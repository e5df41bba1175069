//! A small row-major dense matrix used for transformation matrices (MTransE,
//! SEA), relation-specific projections (TransR) and GCN weights.

use crate::vecops;
use openea_runtime::rng::Rng;

/// Row-major dense `f32` matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix (square).
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Self { rows, cols, data }
    }

    /// Uniform random matrix in `[-scale, scale]`.
    pub fn random_uniform<R: Rng>(rows: usize, cols: usize, scale: f32, rng: &mut R) -> Self {
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-scale..=scale))
            .collect();
        Self { rows, cols, data }
    }

    /// Xavier/Glorot uniform initialization.
    pub fn xavier<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let scale = (6.0 / (rows + cols) as f32).sqrt();
        Self::random_uniform(rows, cols, scale, rng)
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Matrix–vector product `out = M · x`.
    pub fn matvec_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.cols);
        assert_eq!(out.len(), self.rows);
        for (i, o) in out.iter_mut().enumerate() {
            *o = vecops::dot(self.row(i), x);
        }
    }

    /// Matrix–vector product, allocating.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(x, &mut out);
        out
    }

    /// Transposed matrix–vector product `out = Mᵀ · x`.
    pub fn matvec_t_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.rows);
        assert_eq!(out.len(), self.cols);
        out.fill(0.0);
        for (i, &xi) in x.iter().enumerate() {
            vecops::axpy(xi, self.row(i), out);
        }
    }

    /// Matrix product `self · other`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(i);
                vecops::axpy(a, orow, out_row);
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Makes the rows orthonormal in place via modified Gram–Schmidt.
    /// Rows that become (numerically) zero are re-seeded from the identity.
    pub fn orthonormalize_rows(&mut self) {
        for i in 0..self.rows {
            for j in 0..i {
                let d = vecops::dot(self.row(i), self.row(j));
                // Split borrows: copy row j, then update row i.
                let rj: Vec<f32> = self.row(j).to_vec();
                vecops::axpy(-d, &rj, self.row_mut(i));
            }
            let n = vecops::norm2(self.row(i));
            if n > 1e-6 {
                vecops::scale(self.row_mut(i), 1.0 / n);
            } else {
                let cols = self.cols;
                let r = self.row_mut(i);
                r.fill(0.0);
                r[i % cols] = 1.0;
            }
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f32 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f32 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openea_runtime::rng::SeedableRng;
    use openea_runtime::rng::SmallRng;

    #[test]
    fn identity_matvec_is_noop() {
        let m = Matrix::identity(3);
        let x = vec![1.0, -2.0, 3.0];
        assert_eq!(m.matvec(&x), x);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(0);
        let m = Matrix::random_uniform(3, 5, 1.0, &mut rng);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matvec_t_matches_transpose_matvec() {
        let mut rng = SmallRng::seed_from_u64(1);
        let m = Matrix::random_uniform(4, 3, 1.0, &mut rng);
        let x = vec![0.5, -1.0, 2.0, 0.25];
        let mut out = vec![0.0; 3];
        m.matvec_t_into(&x, &mut out);
        let expected = m.transpose().matvec(&x);
        for (a, b) in out.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn orthonormalize_produces_orthonormal_rows() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut m = Matrix::random_uniform(4, 4, 1.0, &mut rng);
        m.orthonormalize_rows();
        for i in 0..4 {
            for j in 0..4 {
                let d = vecops::dot(m.row(i), m.row(j));
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-4, "rows {i},{j}: {d}");
            }
        }
    }

    #[test]
    fn orthonormalize_rescues_degenerate_rows() {
        let mut m = Matrix::from_vec(2, 2, vec![1.0, 0.0, 2.0, 0.0]); // parallel rows
        m.orthonormalize_rows();
        let d = vecops::dot(m.row(0), m.row(1));
        assert!(d.abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn xavier_scale_shrinks_with_size() {
        let mut rng = SmallRng::seed_from_u64(3);
        let big = Matrix::xavier(100, 100, &mut rng);
        let bound = (6.0 / 200.0f32).sqrt();
        assert!(big.data().iter().all(|&x| x.abs() <= bound + 1e-6));
    }
}
