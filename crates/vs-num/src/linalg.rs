//! A dense [`Matrix`] and a fill-reducing LU factorization, generic over the
//! circuit scalar ([`f64`] for DC/transient analysis, [`Complex`] for AC
//! analysis).
//!
//! Power-delivery-network matrices in this workspace are small (about 50
//! unknowns) and sparse: the stacked 4×4 rig's MNA matrix has 4 nonzeros per
//! row. Eliminated in natural MNA order its factors fill in to ~1.9k
//! entries; a greedy minimum-degree ordering keeps them at 260. The
//! transient engine factors the system matrix **once** per topology or
//! timestep change, and each step then costs one substitution over the
//! stored entries of `L` and `U`, which is what makes million-cycle
//! co-simulation affordable. See [`LuFactors`].
//!
//! [`Complex`]: crate::Complex

use crate::complex::Scalar;

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T> {
    n_rows: usize,
    n_cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Creates an `n_rows x n_cols` matrix of zeros.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        Matrix {
            n_rows,
            n_cols,
            data: vec![T::zero(); n_rows * n_cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::one();
        }
        m
    }

    /// Builds a matrix from a row-major nested array, panicking if rows are
    /// ragged.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have the same length.
    pub fn from_rows(rows: &[Vec<T>]) -> Self {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, Vec::len);
        assert!(
            rows.iter().all(|r| r.len() == n_cols),
            "ragged rows in Matrix::from_rows"
        );
        Matrix {
            n_rows,
            n_cols,
            data: rows.iter().flat_map(|r| r.iter().copied()).collect(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Fills every entry with zero, preserving the shape.
    pub fn clear(&mut self) {
        self.data.fill(T::zero());
    }

    /// Reshapes to `n_rows x n_cols` and fills with zeros, reusing the
    /// existing allocation when it is large enough.
    pub fn resize_zeroed(&mut self, n_rows: usize, n_cols: usize) {
        self.n_rows = n_rows;
        self.n_cols = n_cols;
        self.data.clear();
        self.data.resize(n_rows * n_cols, T::zero());
    }

    /// Copies `src` into `self`, reusing the existing allocation when it is
    /// large enough.
    pub fn copy_from(&mut self, src: &Matrix<T>) {
        self.n_rows = src.n_rows;
        self.n_cols = src.n_cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.n_rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        &self.data[r * self.n_cols..(r + 1) * self.n_cols]
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.n_cols()`.
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.n_cols, "dimension mismatch in mul_vec");
        let mut y = vec![T::zero(); self.n_rows];
        for (i, out) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.n_cols..(i + 1) * self.n_cols];
            let mut acc = T::zero();
            for (a, b) in row.iter().zip(x.iter()) {
                acc += *a * *b;
            }
            *out = acc;
        }
        y
    }
}

impl<T: Scalar> Matrix<T> {
    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix<T>) -> Matrix<T> {
        assert_eq!(self.n_cols, rhs.n_rows, "dimension mismatch in matmul");
        let mut out = Matrix::zeros(self.n_rows, rhs.n_cols);
        for i in 0..self.n_rows {
            for k in 0..self.n_cols {
                let aik = self[(i, k)];
                if aik == T::zero() {
                    continue;
                }
                for j in 0..rhs.n_cols {
                    let add = aik * rhs[(k, j)];
                    out[(i, j)] += add;
                }
            }
        }
        out
    }

    /// Elementwise sum `self + rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&self, rhs: &Matrix<T>) -> Matrix<T> {
        assert_eq!((self.n_rows, self.n_cols), (rhs.n_rows, rhs.n_cols));
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(rhs.data.iter()) {
            *a += *b;
        }
        out
    }

    /// Elementwise difference `self - rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub(&self, rhs: &Matrix<T>) -> Matrix<T> {
        assert_eq!((self.n_rows, self.n_cols), (rhs.n_rows, rhs.n_cols));
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(rhs.data.iter()) {
            *a -= *b;
        }
        out
    }

    /// Scales every entry by `s`.
    pub fn scale(&self, s: T) -> Matrix<T> {
        let mut out = self.clone();
        for a in out.data.iter_mut() {
            *a = *a * s;
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix<T> {
        let mut out = Matrix::zeros(self.n_cols, self.n_rows);
        for i in 0..self.n_rows {
            for j in 0..self.n_cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Largest entry magnitude.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|v| v.magnitude()).fold(0.0, f64::max)
    }

    /// Infinity norm (max absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.n_rows)
            .map(|i| {
                (0..self.n_cols)
                    .map(|j| self[(i, j)].magnitude())
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    }
}

impl<T: Scalar> Default for Matrix<T> {
    /// An empty `0 x 0` matrix that allocates nothing.
    fn default() -> Self {
        Matrix { n_rows: 0, n_cols: 0, data: Vec::new() }
    }
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &T {
        debug_assert!(r < self.n_rows && c < self.n_cols);
        &self.data[r * self.n_cols + c]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        debug_assert!(r < self.n_rows && c < self.n_cols);
        &mut self.data[r * self.n_cols + c]
    }
}

/// Error returned when a matrix is singular to working precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrixError {
    /// Pivot column where elimination failed.
    pub column: usize,
}

impl std::fmt::Display for SingularMatrixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is singular to working precision at pivot column {}",
            self.column
        )
    }
}

impl std::error::Error for SingularMatrixError {}

/// An LU factorization `P*Q*A*Qᵀ = L*U`: a fill-reducing symmetric
/// permutation `Q`, then partial pivoting `P`.
///
/// Factor once with [`LuFactors::factor`], then reuse
/// [`LuFactors::solve_in_place`] for many right-hand sides. When the same
/// system is factored repeatedly (e.g. on every topology or timestep change
/// of a transient simulation), [`LuFactors::refactor`] reuses all internal
/// storage so no heap allocation happens after the first factorization.
///
/// `Q` is a greedy minimum-degree ordering of the symmetrized nonzero
/// pattern of `A`. It depends only on that pattern, so it is computed once
/// and reused by every refactor whose matrix has the same nonzeros. `Q*A*Qᵀ`
/// is then eliminated densely with partial pivoting, and the surviving
/// entries of `L` and `U` are kept as compressed rows, so a solve costs one
/// multiply-add per stored entry ([`LuFactors::nnz`]). Both permutations are
/// recorded as swap sequences, applied in place to the right-hand side.
#[derive(Debug, Clone)]
pub struct LuFactors<T> {
    n: usize,
    /// Dense elimination scratch; holds `P*Q*A*Qᵀ` overwritten by `L\U`.
    work: Matrix<T>,
    /// Strictly-lower part of `L` (its diagonal is all ones).
    lower: CompressedRows<T>,
    /// Strictly-upper part of `U`.
    upper: CompressedRows<T>,
    /// Diagonal of `U`.
    diag: Vec<T>,
    /// Swaps taking `b` to `P*Q*b`: the ordering's swaps, then the pivots.
    row_swaps: Vec<(u32, u32)>,
    ordering: MinDegree,
}

/// Off-diagonal entries of a triangular factor, row by row: row `i` holds
/// `cols[start[i]..start[i + 1]]` (ascending) with the matching `vals`.
#[derive(Debug, Clone, Default)]
struct CompressedRows<T> {
    start: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<T>,
}

impl<T: Scalar> CompressedRows<T> {
    fn clear(&mut self) {
        self.start.clear();
        self.cols.clear();
        self.vals.clear();
        self.start.push(0);
    }

    fn push(&mut self, col: usize, val: T) {
        self.cols.push(col as u32);
        self.vals.push(val);
    }

    fn end_row(&mut self) {
        self.start.push(self.cols.len() as u32);
    }

    /// `acc - Σ vals[k] * x[cols[k]]` over row `i`, in column order.
    #[inline]
    fn reduce_row(&self, i: usize, mut acc: T, x: &[T]) -> T {
        let (s, e) = (self.start[i] as usize, self.start[i + 1] as usize);
        for (&j, &v) in self.cols[s..e].iter().zip(&self.vals[s..e]) {
            acc -= v * x[j as usize];
        }
        acc
    }
}

/// Greedy minimum-degree ordering of a symmetric nonzero pattern, cached
/// against the pattern it was computed for. All buffers are reused.
#[derive(Debug, Clone, Default)]
struct MinDegree {
    n: usize,
    /// Row-major nonzero pattern of the matrix the ordering was computed for.
    pattern: Vec<bool>,
    /// `perm[k]` is the original index of the `k`-th eliminated unknown.
    perm: Vec<usize>,
    /// Swaps taking `b` to `Q*b` (so `(Q*b)[k] = b[perm[k]]`).
    swaps: Vec<(u32, u32)>,
    // Scratch: the elimination graph (one bitset row per vertex), degrees,
    // and the position bookkeeping used to turn `perm` into swaps.
    graph: Vec<u64>,
    degree: Vec<u32>,
    at: Vec<usize>,
    pos: Vec<usize>,
}

fn set_bit(row: &mut [u64], j: usize) {
    row[j / 64] |= 1 << (j % 64);
}

fn clear_bit(row: &mut [u64], j: usize) {
    row[j / 64] &= !(1 << (j % 64));
}

fn popcount(row: &[u64]) -> u32 {
    row.iter().map(|x| x.count_ones()).sum()
}

impl MinDegree {
    /// Makes the ordering current for `a`: recomputes it only when the
    /// nonzero pattern differs from the one it was computed for.
    fn update<T: Scalar>(&mut self, a: &Matrix<T>) {
        let nonzero = |v: &T| *v != T::zero();
        let same = self.pattern.len() == a.data.len()
            && self.pattern.iter().zip(&a.data).all(|(&p, v)| p == nonzero(v));
        if same {
            return;
        }
        self.n = a.n_rows();
        self.pattern.clear();
        self.pattern.extend(a.data.iter().map(nonzero));
        self.order();
        self.record_swaps();
    }

    /// Greedy minimum degree on the symmetrized pattern: repeatedly
    /// eliminate the vertex with the fewest neighbours (lowest index on
    /// ties), joining its neighbours into a clique — exactly the fill that
    /// eliminating it would cause. An eliminated vertex gets degree
    /// `u32::MAX` and leaves every neighbour's row.
    fn order(&mut self) {
        let n = self.n;
        let w = n.div_ceil(64);
        let row = |i: usize| i * w..(i + 1) * w;
        self.graph.clear();
        self.graph.resize(n * w, 0);
        for i in 0..n {
            for j in 0..n {
                if i != j && self.pattern[i * n + j] {
                    set_bit(&mut self.graph[row(i)], j);
                    set_bit(&mut self.graph[row(j)], i);
                }
            }
        }
        self.degree.clear();
        self.degree.extend((0..n).map(|i| popcount(&self.graph[row(i)])));
        self.perm.clear();
        for _ in 0..n {
            let v = (0..n)
                .min_by_key(|&i| self.degree[i])
                .expect("the matrix is not empty");
            self.perm.push(v);
            self.degree[v] = u32::MAX;
            for wi in 0..w {
                let mut nbrs = self.graph[v * w + wi];
                while nbrs != 0 {
                    let u = wi * 64 + nbrs.trailing_zeros() as usize;
                    nbrs &= nbrs - 1;
                    for k in 0..w {
                        self.graph[u * w + k] |= self.graph[v * w + k];
                    }
                    clear_bit(&mut self.graph[row(u)], u);
                    clear_bit(&mut self.graph[row(u)], v);
                    self.degree[u] = popcount(&self.graph[row(u)]);
                }
            }
        }
    }

    /// Turns `perm` into the in-place swap sequence that gathers
    /// `b[perm[k]]` into position `k`.
    fn record_swaps(&mut self) {
        let n = self.n;
        self.at.clear();
        self.at.extend(0..n);
        self.pos.clear();
        self.pos.extend(0..n);
        self.swaps.clear();
        for k in 0..n {
            let v = self.perm[k];
            let j = self.pos[v];
            if j != k {
                self.swaps.push((k as u32, j as u32));
                let u = self.at[k];
                self.at[k] = v;
                self.at[j] = u;
                self.pos[v] = k;
                self.pos[u] = j;
            }
        }
    }
}

impl<T: Scalar> Default for LuFactors<T> {
    /// An empty (`0 x 0`) factorization that allocates nothing; fill it with
    /// [`LuFactors::refactor`] before solving.
    fn default() -> Self {
        LuFactors {
            n: 0,
            work: Matrix::default(),
            lower: CompressedRows::default(),
            upper: CompressedRows::default(),
            diag: Vec::new(),
            row_swaps: Vec::new(),
            ordering: MinDegree::default(),
        }
    }
}

impl<T: Scalar> LuFactors<T> {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if a pivot smaller than `1e-300` in
    /// magnitude is encountered.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn factor(a: &Matrix<T>) -> Result<Self, SingularMatrixError> {
        let mut out = Self::default();
        out.refactor(a)?;
        Ok(out)
    }

    /// Re-factors `a` in place, reusing every internal buffer — and the
    /// fill-reducing ordering too when `a` has the same nonzero pattern as
    /// the matrix it was computed for.
    ///
    /// On error the factors are left in an unusable intermediate state; a
    /// subsequent successful `refactor` restores full consistency.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if a pivot smaller than `1e-300` in
    /// magnitude is encountered. The reported column is in the reordered
    /// system.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn refactor(&mut self, a: &Matrix<T>) -> Result<(), SingularMatrixError> {
        assert_eq!(a.n_rows(), a.n_cols(), "LU requires a square matrix");
        let n = a.n_rows();
        self.n = n;
        self.ordering.update(a);
        let perm = &self.ordering.perm;
        let work = &mut self.work;
        work.resize_zeroed(n, n);
        for (i, &pi) in perm.iter().enumerate() {
            let src = a.row(pi);
            for (dst, &pj) in work.data[i * n..(i + 1) * n].iter_mut().zip(perm) {
                *dst = src[pj];
            }
        }
        self.row_swaps.clear();
        self.row_swaps.extend_from_slice(&self.ordering.swaps);
        for col in 0..n {
            // Partial pivoting: pick the largest remaining entry in this column.
            let mut best_row = col;
            let mut best_mag = work[(col, col)].magnitude();
            for row in (col + 1)..n {
                let mag = work[(row, col)].magnitude();
                if mag > best_mag {
                    best_mag = mag;
                    best_row = row;
                }
            }
            if best_mag < 1e-300 || !best_mag.is_finite() {
                return Err(SingularMatrixError { column: col });
            }
            if best_row != col {
                self.row_swaps.push((col as u32, best_row as u32));
                let (head, tail) = work.data.split_at_mut(best_row * n);
                head[col * n..(col + 1) * n].swap_with_slice(&mut tail[..n]);
            }
            // Eliminate below the pivot, touching only the pivot row's
            // nonzero columns (the skipped terms would subtract exact zeros).
            let (head, tail) = work.data.split_at_mut((col + 1) * n);
            let pivot_row = &head[col * n..];
            let pivot = pivot_row[col];
            for row in tail.chunks_exact_mut(n) {
                if row[col] == T::zero() {
                    continue;
                }
                let factor = row[col] / pivot;
                row[col] = factor;
                for c in (col + 1)..n {
                    let u = pivot_row[c];
                    if u != T::zero() {
                        row[c] -= factor * u;
                    }
                }
            }
        }
        self.lower.clear();
        self.upper.clear();
        self.diag.clear();
        for i in 0..n {
            let row = work.row(i);
            for (j, &v) in row.iter().enumerate().take(i) {
                if v != T::zero() {
                    self.lower.push(j, v);
                }
            }
            self.lower.end_row();
            self.diag.push(row[i]);
            for (j, &v) in row.iter().enumerate().skip(i + 1) {
                if v != T::zero() {
                    self.upper.push(j, v);
                }
            }
            self.upper.end_row();
        }
        Ok(())
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored entries of `L` and `U`: the off-diagonal nonzeros of both
    /// factors plus `U`'s diagonal. A solve does one multiply-add per
    /// off-diagonal entry and one division per diagonal entry.
    pub fn nnz(&self) -> usize {
        self.lower.cols.len() + self.upper.cols.len() + self.n
    }

    /// Solves `A*x = b` in place: `b` holds the solution on return.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the factored dimension.
    pub fn solve_in_place(&self, b: &mut [T]) {
        let n = self.n;
        assert_eq!(b.len(), n, "dimension mismatch in solve_in_place");
        for &(i, j) in &self.row_swaps {
            b.swap(i as usize, j as usize);
        }
        // Forward substitution with unit-lower-triangular L.
        for i in 1..n {
            b[i] = self.lower.reduce_row(i, b[i], b);
        }
        // Backward substitution with U.
        for i in (0..n).rev() {
            b[i] = self.upper.reduce_row(i, b[i], b) / self.diag[i];
        }
        // Undo the ordering: x = Qᵀ*y.
        for &(i, j) in self.ordering.swaps.iter().rev() {
            b.swap(i as usize, j as usize);
        }
    }

    /// Convenience wrapper returning the solution as a new vector.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// Computes the matrix inverse column by column.
    pub fn inverse(&self) -> Matrix<T> {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        let mut col = vec![T::zero(); n];
        for j in 0..n {
            col.fill(T::zero());
            col[j] = T::one();
            self.solve_in_place(&mut col);
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
        }
        inv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;

    #[test]
    fn identity_solve_returns_rhs() {
        let a: Matrix<f64> = Matrix::identity(4);
        let lu = LuFactors::factor(&a).unwrap();
        let b = vec![1.0, -2.0, 3.5, 0.25];
        assert_eq!(lu.solve(&b), b);
    }

    #[test]
    fn solves_small_real_system() {
        // A = [[2,1],[1,3]], b = [3,5] => x = [4/5, 7/5]
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let lu = LuFactors::factor(&a).unwrap();
        let x = lu.solve(&[3.0, 5.0]);
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let lu = LuFactors::factor(&a).unwrap();
        let x = lu.solve(&[2.0, 3.0]);
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(LuFactors::factor(&a).is_err());
    }

    #[test]
    fn complex_system_solution() {
        // (1+i) x = 2 => x = 1-i
        let mut a = Matrix::zeros(1, 1);
        a[(0, 0)] = Complex::new(1.0, 1.0);
        let lu = LuFactors::factor(&a).unwrap();
        let x = lu.solve(&[Complex::from_re(2.0)]);
        assert!((x[0] - Complex::new(1.0, -1.0)).abs() < 1e-12);
    }

    #[test]
    fn mul_vec_matches_manual_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let y = a.mul_vec(&[1.0, 0.0, -1.0]);
        assert_eq!(y, vec![-2.0, -2.0]);
    }

    #[test]
    fn refactor_reuses_storage_and_matches_fresh_factor() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let b4 = Matrix::from_rows(&[
            vec![4.0, 0.0, 1.0, 0.0],
            vec![0.0, 3.0, 0.0, 0.0],
            vec![1.0, 0.0, 5.0, 2.0],
            vec![0.0, 0.0, 2.0, 6.0],
        ]);
        // Refactoring across a dimension change must behave exactly like a
        // fresh factorization.
        let mut lu = LuFactors::factor(&a).unwrap();
        lu.refactor(&b4).unwrap();
        let fresh = LuFactors::factor(&b4).unwrap();
        let rhs = [1.0, -2.0, 3.0, 0.5];
        let mut x_reused = rhs;
        let mut x_fresh = rhs;
        lu.solve_in_place(&mut x_reused);
        fresh.solve_in_place(&mut x_fresh);
        assert_eq!(x_reused, x_fresh);
        // A refactor that fails leaves the struct usable after a later
        // successful refactor.
        let singular = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(lu.refactor(&singular).is_err());
        lu.refactor(&a).unwrap();
        let x = lu.solve(&[3.0, 5.0]);
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn sparse_pattern_solve_matches_dense_residual() {
        // A banded (sparse) diagonally dominant system: the pattern-based
        // substitutions must reproduce the exact solution of the full sweep.
        let n = 16;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = 4.0 + i as f64 * 0.125;
            if i + 1 < n {
                a[(i, i + 1)] = -1.0;
                a[(i + 1, i)] = -0.5;
            }
            if i + 5 < n {
                a[(i, i + 5)] = 0.25;
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 7.5).collect();
        let lu = LuFactors::factor(&a).unwrap();
        let x = lu.solve(&b);
        let r = a.mul_vec(&x);
        for i in 0..n {
            assert!((r[i] - b[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn random_roundtrip_via_residual() {
        // Deterministic pseudo-random fill; checks ||Ax - b|| is tiny.
        let n = 12;
        let mut a = Matrix::zeros(n, n);
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
        };
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = next();
            }
            a[(i, i)] += 4.0; // diagonally dominant => nonsingular
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let lu = LuFactors::factor(&a).unwrap();
        let x = lu.solve(&b);
        let r = a.mul_vec(&x);
        for i in 0..n {
            assert!((r[i] - b[i]).abs() < 1e-10);
        }
    }

    /// An `n x n` "arrow": a dense first row and column plus the diagonal.
    /// Eliminating the hub (index 0) first fills the whole matrix; ordering
    /// it last fills nothing.
    fn arrow(n: usize, hub: usize) -> Matrix<f64> {
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = 4.0 + i as f64;
            if i != hub {
                a[(hub, i)] = -1.0;
                a[(i, hub)] = -0.5;
            }
        }
        a[(hub, hub)] = 2.0 * n as f64;
        a
    }

    fn assert_residual_small(a: &Matrix<f64>, lu: &LuFactors<f64>) {
        let b: Vec<f64> = (0..a.n_rows()).map(|i| (i as f64) - 2.5).collect();
        let r = a.mul_vec(&lu.solve(&b));
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-10, "residual {ri} vs {bi}");
        }
    }

    #[test]
    fn ordering_is_a_deterministic_permutation() {
        let a = arrow(20, 0);
        let first = LuFactors::factor(&a).unwrap();
        let again = LuFactors::factor(&a).unwrap();
        let mut sorted = first.ordering.perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        assert_eq!(first.ordering.perm, again.ordering.perm);
        // The leaves tie at degree 1 and go in index order; the hub waits
        // until only one leaf is left, and then wins the tie on its index.
        let expect: Vec<usize> = (1..19).chain([0, 19]).collect();
        assert_eq!(first.ordering.perm, expect);
        // The swap sequence gathers b[perm[k]] into position k.
        let mut b: Vec<f64> = (0..20).map(|i| i as f64).collect();
        for &(i, j) in &first.ordering.swaps {
            b.swap(i as usize, j as usize);
        }
        let gathered: Vec<f64> = first.ordering.perm.iter().map(|&p| p as f64).collect();
        assert_eq!(b, gathered);
    }

    #[test]
    fn minimum_degree_avoids_arrow_fill() {
        let n = 24;
        let lu = LuFactors::factor(&arrow(n, 0)).unwrap();
        // L and U keep exactly the arrow's entries: n - 1 per factor plus
        // the diagonal. Natural order would store all n * n.
        assert_eq!(lu.nnz(), 3 * n - 2);
        assert_residual_small(&arrow(n, 0), &lu);
    }

    #[test]
    fn ordering_is_reused_for_the_same_pattern_and_redone_for_a_new_one() {
        let n = 16;
        let mut lu = LuFactors::factor(&arrow(n, 0)).unwrap();
        let perm = lu.ordering.perm.clone();
        // Same pattern, new values: the cached ordering stands.
        let scaled = arrow(n, 0).scale(3.0);
        lu.refactor(&scaled).unwrap();
        assert_eq!(lu.ordering.perm, perm);
        assert_residual_small(&scaled, &lu);
        // A new pattern of the same size gets its own ordering: the hub
        // moves, and the fill stays minimal.
        let moved = arrow(n, n - 1);
        lu.refactor(&moved).unwrap();
        assert_eq!(lu.ordering.perm, (0..n).collect::<Vec<_>>());
        assert_eq!(lu.nnz(), 3 * n - 2);
        assert_residual_small(&moved, &lu);
    }

    #[test]
    fn mna_with_zero_diagonal_source_row_factors() {
        // 1 V source at node 0 (branch current is unknown 3), 1 Ω from node
        // 0 to 1, 2 Ω from 1 to 2, 1 Ω from 2 to ground. The source row and
        // column have a zero diagonal, which the pivot search must route
        // around in whatever position the ordering puts them.
        let a = Matrix::from_rows(&[
            vec![1.0, -1.0, 0.0, 1.0],
            vec![-1.0, 1.5, -0.5, 0.0],
            vec![0.0, -0.5, 1.5, 0.0],
            vec![1.0, 0.0, 0.0, 0.0],
        ]);
        let lu = LuFactors::factor(&a).unwrap();
        let x = lu.solve(&[0.0, 0.0, 0.0, 1.0]);
        let expect = [1.0, 0.75, 0.25, -0.25];
        for (xi, ei) in x.iter().zip(expect) {
            assert!((xi - ei).abs() < 1e-12, "{x:?}");
        }
    }

    #[test]
    fn complex_system_goes_through_the_ordered_path() {
        // A complex arrow: the residual must vanish exactly as for f64.
        let n = 8;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = Complex::new(3.0 + i as f64, 0.5);
            if i != 0 {
                a[(0, i)] = Complex::new(-1.0, 0.25);
                a[(i, 0)] = Complex::new(-0.5, -0.25);
            }
        }
        let lu = LuFactors::factor(&a).unwrap();
        assert_eq!(lu.nnz(), 3 * n - 2);
        let b: Vec<Complex> = (0..n).map(|i| Complex::new(i as f64, 1.0)).collect();
        let r = a.mul_vec(&lu.solve(&b));
        for (ri, bi) in r.iter().zip(&b) {
            assert!((*ri - *bi).abs() < 1e-12);
        }
    }
}
