//! Entropic optimal-transport matching (Sinkhorn–Knopp), the machinery
//! behind OTEA \[58\] in the paper's survey (Table 1: optimal transport for
//! cross-lingual alignment). A fourth collective inference strategy next to
//! stable marriage and Kuhn–Munkres: compute the entropy-regularized
//! transport plan between source and target entities and round it to a
//! 1-to-1 matching.

use crate::infer::stable_marriage_topk;
use crate::simmat::SimilarityMatrix;
use crate::topk::TopKMatrix;

/// Entropic regularization strength (smaller = closer to exact OT but
/// slower/less stable).
const EPSILON: f32 = 0.05;

/// Sinkhorn iterations.
const ITERATIONS: usize = 60;

/// The entropy-regularized transport plan between uniform marginals, as a
/// dense `rows × cols` matrix (rows sum to `1/rows` each after convergence
/// when `rows == cols`).
pub fn sinkhorn_plan(sim: &SimilarityMatrix) -> Vec<f32> {
    let rows = sim.rows();
    let cols = sim.cols();
    if rows == 0 || cols == 0 {
        return Vec::new();
    }
    // Gibbs kernel K = exp(sim / ε), normalized per-row for stability.
    let mut k = vec![0.0f32; rows * cols];
    for i in 0..rows {
        let row = sim.row(i);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for (j, &s) in row.iter().enumerate() {
            k[i * cols + j] = ((s - max) / EPSILON).exp();
        }
    }
    let (ra, ca) = (1.0 / rows as f32, 1.0 / cols as f32);
    let mut u = vec![1.0f32; rows];
    let mut v = vec![1.0f32; cols];
    for _ in 0..ITERATIONS {
        // u = r / (K v)
        for i in 0..rows {
            let mut kv = 0.0f32;
            for j in 0..cols {
                kv += k[i * cols + j] * v[j];
            }
            u[i] = ra / kv.max(1e-30);
        }
        // v = c / (Kᵀ u)
        for j in 0..cols {
            let mut ku = 0.0f32;
            for i in 0..rows {
                ku += k[i * cols + j] * u[i];
            }
            v[j] = ca / ku.max(1e-30);
        }
    }
    let mut plan = vec![0.0f32; rows * cols];
    for i in 0..rows {
        for j in 0..cols {
            plan[i * cols + j] = u[i] * k[i * cols + j] * v[j];
        }
    }
    plan
}

/// Rounds the transport plan to a 1-to-1 matching: greedy collective over
/// transported mass, which is [`stable_marriage_topk`] over every plan cell.
/// Returns `match[i] = j`.
pub fn sinkhorn_match(sim: &SimilarityMatrix) -> Vec<Option<usize>> {
    let plan = SimilarityMatrix::from_raw(sim.rows(), sim.cols(), sinkhorn_plan(sim));
    stable_marriage_topk(&TopKMatrix::from_matrix(&plan, plan.cols()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::{greedy_match_topk, hungarian};

    #[test]
    fn plan_marginals_are_uniform() {
        let sim =
            SimilarityMatrix::from_raw(3, 3, vec![0.9, 0.1, 0.0, 0.2, 0.8, 0.1, 0.0, 0.3, 0.7]);
        let plan = sinkhorn_plan(&sim);
        for i in 0..3 {
            let row_sum: f32 = (0..3).map(|j| plan[i * 3 + j]).sum();
            assert!(
                (row_sum - 1.0 / 3.0).abs() < 1e-3,
                "row {i} sums to {row_sum}"
            );
        }
        for j in 0..3 {
            let col_sum: f32 = (0..3).map(|i| plan[i * 3 + j]).sum();
            assert!(
                (col_sum - 1.0 / 3.0).abs() < 1e-3,
                "col {j} sums to {col_sum}"
            );
        }
    }

    #[test]
    fn sinkhorn_resolves_hub_conflicts() {
        // Greedy sends both sources to target 0; OT must split them.
        let sim = SimilarityMatrix::from_raw(2, 2, vec![0.9, 0.1, 0.8, 0.75]);
        let greedy = greedy_match_topk(&TopKMatrix::from_matrix(&sim, sim.cols()));
        assert_eq!(greedy, vec![Some(0), Some(0)]);
        let ot = sinkhorn_match(&sim);
        assert_eq!(ot, vec![Some(0), Some(1)]);
    }

    #[test]
    fn sinkhorn_agrees_with_hungarian_on_clear_inputs() {
        let sim = SimilarityMatrix::from_raw(
            4,
            4,
            vec![
                0.9, 0.1, 0.2, 0.0, //
                0.0, 0.8, 0.1, 0.2, //
                0.1, 0.0, 0.9, 0.1, //
                0.2, 0.1, 0.0, 0.7,
            ],
        );
        let h = hungarian(&sim);
        let ot = sinkhorn_match(&sim);
        assert_eq!(h, ot);
    }

    #[test]
    fn nan_mass_ranks_last_and_never_panics() {
        // A finite 3×3 problem bordered by a NaN row and a NaN column. The
        // plan is normalized across the whole matrix, so its finite cells
        // saturate; what rounding still guarantees is the order: no NaN
        // cell is taken while a finite one is open.
        let mut sim = vec![f32::NAN; 16];
        for (i, row) in [[0.2, 0.9, 0.4], [0.8, 0.7, 0.1], [0.3, 0.6, 0.5]]
            .iter()
            .enumerate()
        {
            sim[i * 4..i * 4 + 3].copy_from_slice(row);
        }
        let m = sinkhorn_match(&SimilarityMatrix::from_raw(4, 4, sim));
        let mut finite_cols: Vec<usize> = m[..3].iter().map(|j| j.unwrap()).collect();
        finite_cols.sort_unstable();
        assert_eq!(finite_cols, vec![0, 1, 2]);
        assert_eq!(m[3], Some(3));
    }

    #[test]
    fn empty_matrix_is_handled() {
        let sim = SimilarityMatrix::from_raw(0, 0, vec![]);
        assert!(sinkhorn_plan(&sim).is_empty());
        assert!(sinkhorn_match(&sim).is_empty());
    }

    #[test]
    fn rectangular_matrices_match_all_sources() {
        let sim = SimilarityMatrix::from_raw(2, 4, vec![0.9, 0.0, 0.1, 0.2, 0.1, 0.8, 0.0, 0.3]);
        let ot = sinkhorn_match(&sim);
        assert_eq!(ot.iter().flatten().count(), 2);
        let set: std::collections::HashSet<_> = ot.iter().flatten().collect();
        assert_eq!(set.len(), 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::infer::hungarian;
    use openea_runtime::testkit::prelude::*;

    fn weight(sim: &SimilarityMatrix, m: &[Option<usize>]) -> f64 {
        m.iter()
            .enumerate()
            .filter_map(|(i, &j)| j.map(|j| sim.get(i, j) as f64))
            .sum()
    }

    props! {
        #![cases = 32]

        /// OT matching is 1-to-1 and its weight is near the optimum.
        #[test]
        fn sinkhorn_matching_is_near_optimal(values in vec_of(0.0f32..1.0, 16)) {
            let sim = SimilarityMatrix::from_raw(4, 4, values);
            let ot = sinkhorn_match(&sim);
            let picked: Vec<usize> = ot.iter().flatten().copied().collect();
            let distinct: std::collections::HashSet<_> = picked.iter().collect();
            prop_assert_eq!(picked.len(), distinct.len());
            let h = hungarian(&sim);
            let gc = stable_marriage_topk(&TopKMatrix::from_matrix(&sim, 4));
            // At least as good as the greedy heuristic, within tolerance of
            // the optimum (entropic smoothing costs a little).
            prop_assert!(weight(&sim, &ot) >= weight(&sim, &gc) - 0.15);
            prop_assert!(weight(&sim, &ot) <= weight(&sim, &h) + 1e-4);
        }
    }
}
