//! Alignment-inference strategies (paper Sect. 2.2.2 and Table 6).
//!
//! * [`greedy_match_topk`] — independent nearest-neighbour per source (what
//!   every surveyed approach uses);
//! * [`stable_marriage_topk`] — Gale–Shapley: no source/target pair prefers
//!   each other over their assigned partners. Under the kernel layer's one
//!   total order on pairs it is also the greedy collective matching, so it
//!   is BootEA's editing and Sinkhorn's rounding too;
//! * [`hungarian`] — Kuhn–Munkres maximum-weight matching, the O(N³)
//!   collective-search optimum.
//!
//! Greedy and stable marriage read streamed [`TopKMatrix`] lists, so they
//! never need the `rows × cols` matrix; Hungarian weighs every cell and
//! takes a dense [`SimilarityMatrix`].

use crate::simmat::SimilarityMatrix;
use crate::topk::{score_desc, TopKMatrix};
use std::cmp::Ordering;

/// Greedy nearest-neighbour: each source independently picks its most
/// similar target (targets may be reused; ties go to the lowest target
/// index). Returns `match[i] = j`; a list of width 1 is all it reads.
pub fn greedy_match_topk(topk: &TopKMatrix) -> Vec<Option<usize>> {
    (0..topk.rows())
        .map(|i| topk.best(i).map(|(j, _)| j))
        .collect()
}

/// Gale–Shapley stable marriage with sources proposing down their kept
/// lists. Both sides rank by the kernel layer's total order on pairs:
/// score descending, NaN last, then the lower source, then the lower
/// target. Rows of a [`TopKMatrix`] are already sorted that way, and a
/// target takes a new proposer when its score ranks first, or ties and its
/// source index is lower — so a diverged run's NaN similarities lose to
/// every finite one instead of panicking a comparison.
///
/// The result is the greedy collective matching over the kept entries:
/// pairs taken in that order, each accepted when both ends are free. The
/// first pair in the order is matched in every stable matching (each end
/// ranks it above any other partner); remove that pair and repeat. So the
/// stable matching is unique and the order sources propose in does not
/// matter. With `k ≥ cols` this is the sort-every-cell greedy heuristic at
/// O(rows·k) memory; over truncated lists a source whose list runs dry
/// stays unmatched.
pub fn stable_marriage_topk(topk: &TopKMatrix) -> Vec<Option<usize>> {
    let rows = topk.rows();
    let cols = topk.cols();
    let mut next_proposal = vec![0usize; rows];
    let mut target_of = vec![None::<usize>; rows];
    // Per target: the currently engaged source and its similarity.
    let mut source_of = vec![None::<(usize, f32)>; cols];
    let mut free: Vec<usize> = (0..rows).collect();

    while let Some(i) = free.pop() {
        let row = topk.row(i);
        while next_proposal[i] < row.len() {
            let (j, s) = row[next_proposal[i]];
            let j = j as usize;
            next_proposal[i] += 1;
            if let Some((other, other_s)) = source_of[j] {
                if score_desc(s, other_s).then(i.cmp(&other)) != Ordering::Less {
                    continue;
                }
                target_of[other] = None;
                free.push(other);
            }
            source_of[j] = Some((i, s));
            target_of[i] = Some(j);
            break;
        }
    }
    target_of
}

/// Kuhn–Munkres (Hungarian) maximum-weight matching in O(n³). Pads the
/// rectangular matrix with zero-weight dummies; returns `match[i] = j` for
/// real pairs only.
pub fn hungarian(sim: &SimilarityMatrix) -> Vec<Option<usize>> {
    let rows = sim.rows();
    let cols = sim.cols();
    if rows == 0 || cols == 0 {
        return vec![None; rows];
    }
    let n = rows.max(cols);
    // Convert to a min-cost problem on an n×n padded matrix.
    let max_sim = (0..rows)
        .flat_map(|i| sim.row(i).iter().copied())
        .fold(f32::NEG_INFINITY, f32::max) as f64;
    let cost = |i: usize, j: usize| -> f64 {
        if i < rows && j < cols {
            max_sim - sim.get(i, j) as f64
        } else {
            max_sim // dummy rows/cols: constant cost, never preferred
        }
    };

    // Standard O(n³) Hungarian with potentials (1-based helper arrays).
    let mut u = vec![0.0f64; n + 1];
    let mut v = vec![0.0f64; n + 1];
    let mut p = vec![0usize; n + 1]; // p[j] = row matched to column j
    let mut way = vec![0usize; n + 1];
    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![f64::INFINITY; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = f64::INFINITY;
            let mut j1 = 0usize;
            for j in 1..=n {
                if used[j] {
                    continue;
                }
                let cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut result = vec![None; rows];
    #[allow(clippy::needless_range_loop)] // multi-array indexed math reads clearer
    for j in 1..=n {
        let i = p[j];
        if i >= 1 && i <= rows && j <= cols {
            result[i - 1] = Some(j - 1);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, v: Vec<f32>) -> SimilarityMatrix {
        SimilarityMatrix::from_raw(rows, cols, v)
    }

    /// Every target of every row: the lists greedy and stable marriage read
    /// when nothing is truncated.
    pub(super) fn full(sim: &SimilarityMatrix) -> TopKMatrix {
        TopKMatrix::from_matrix(sim, sim.cols())
    }

    pub(super) fn stable_marriage_full(sim: &SimilarityMatrix) -> Vec<Option<usize>> {
        stable_marriage_topk(&full(sim))
    }

    #[test]
    fn nan_similarities_rank_last_and_never_panic() {
        // What a diverged run hands inference: a finite 3×3 problem inside
        // a 4×4 whose last row and last column are NaN. The NaN row engages
        // target 0 first and a finite proposal must win it back.
        let finite = [0.2, 0.9, 0.4, 0.8, 0.7, 0.1, 0.3, 0.6, 0.5];
        let mut bordered = vec![f32::NAN; 16];
        for (i, row) in finite.chunks(3).enumerate() {
            bordered[i * 4..i * 4 + 3].copy_from_slice(row);
        }
        let (clean, bordered) = (mat(3, 3, finite.to_vec()), mat(4, 4, bordered));
        let want = stable_marriage_full(&clean);
        assert_eq!(want, vec![Some(1), Some(0), Some(2)]);
        let got = stable_marriage_full(&bordered);
        // Finite rows match as if the NaNs were not there; the NaN row is
        // left the NaN column, never a cell a finite row wanted.
        assert_eq!(got[..3], want[..]);
        assert_eq!(got[3], Some(3));
        // Greedy never picks a NaN cell over a finite one either.
        let greedy = greedy_match_topk(&full(&bordered));
        assert_eq!(greedy[..3], greedy_match_topk(&full(&clean))[..]);
    }

    #[test]
    fn greedy_allows_conflicts() {
        let m = mat(2, 2, vec![0.9, 0.1, 0.8, 0.2]);
        let g = greedy_match_topk(&full(&m));
        assert_eq!(g, vec![Some(0), Some(0)]); // both pick target 0
                                               // Width 1 is all greedy reads.
        assert_eq!(greedy_match_topk(&TopKMatrix::from_matrix(&m, 1)), g);
    }

    #[test]
    fn stable_marriage_resolves_conflicts() {
        let m = mat(2, 2, vec![0.9, 0.1, 0.8, 0.2]);
        let sm = stable_marriage_full(&m);
        // Source 0 prefers 0 more strongly; source 1 settles for 1.
        assert_eq!(sm, vec![Some(0), Some(1)]);
    }

    #[test]
    fn stable_marriage_has_no_blocking_pair() {
        let m = mat(3, 3, vec![0.5, 0.9, 0.1, 0.4, 0.8, 0.3, 0.95, 0.2, 0.6]);
        let sm = stable_marriage_full(&m);
        // Verify stability: no (i, j) both preferring each other over current.
        let matched: Vec<usize> = sm.iter().map(|x| x.unwrap()).collect();
        for i in 0..3 {
            for j in 0..3 {
                if matched[i] == j {
                    continue;
                }
                let i_prefers_j = m.get(i, j) > m.get(i, matched[i]);
                let owner = matched.iter().position(|&x| x == j);
                let j_prefers_i = owner.is_none_or(|o| m.get(i, j) > m.get(o, j));
                assert!(!(i_prefers_j && j_prefers_i), "blocking pair ({i},{j})");
            }
        }
    }

    #[test]
    fn hungarian_finds_max_weight_assignment() {
        // Greedy (per-row) picks (0→0, 1→0 conflict); optimum pairs 0→1, 1→0.
        let m = mat(2, 2, vec![0.9, 0.8, 0.9, 0.1]);
        let h = hungarian(&m);
        assert_eq!(h, vec![Some(1), Some(0)]); // total 1.7 > alternatives
    }

    #[test]
    fn hungarian_identity_on_diagonal_dominant() {
        let m = mat(3, 3, vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]);
        assert_eq!(hungarian(&m), vec![Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn hungarian_handles_rectangular() {
        let m = mat(2, 3, vec![0.1, 0.9, 0.2, 0.8, 0.7, 0.3]);
        let h = hungarian(&m);
        assert_eq!(h, vec![Some(1), Some(0)]);
        // More sources than targets: one source stays unmatched.
        let m = mat(3, 2, vec![0.9, 0.1, 0.8, 0.7, 0.85, 0.2]);
        let h = hungarian(&m);
        let matched: Vec<_> = h.iter().flatten().collect();
        assert_eq!(matched.len(), 2);
        let set: std::collections::HashSet<_> = matched.iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn greedy_collective_respects_one_to_one() {
        let m = mat(2, 2, vec![0.9, 0.8, 0.85, 0.1]);
        let gc = stable_marriage_full(&m);
        // Highest pair (0,0)=0.9 taken, then (1,?) only 1 left.
        assert_eq!(gc, vec![Some(0), Some(1)]);
    }

    #[test]
    fn all_strategies_agree_on_unambiguous_input() {
        let m = mat(3, 3, vec![0.9, 0.0, 0.1, 0.0, 0.8, 0.1, 0.1, 0.0, 0.9]);
        let expect = vec![Some(0), Some(1), Some(2)];
        assert_eq!(greedy_match_topk(&full(&m)), expect);
        assert_eq!(stable_marriage_full(&m), expect);
        assert_eq!(hungarian(&m), expect);
    }

    #[test]
    fn empty_matrix_is_handled() {
        let m = mat(0, 0, vec![]);
        assert!(hungarian(&m).is_empty());
        for k in [0, 3] {
            let t = TopKMatrix::from_matrix(&m, k);
            assert!(greedy_match_topk(&t).is_empty());
            assert!(stable_marriage_topk(&t).is_empty());
        }
        // Sources without targets stay unmatched.
        let t = full(&mat(2, 0, vec![]));
        assert_eq!(greedy_match_topk(&t), vec![None, None]);
        assert_eq!(stable_marriage_topk(&t), vec![None, None]);
    }

    #[test]
    fn topk_stable_marriage_truncated_list_leaves_source_unmatched() {
        // Both sources only want target 0; with k=1 the loser has nowhere
        // else to propose.
        let m = mat(2, 2, vec![0.9, 0.1, 0.8, 0.2]);
        let t = TopKMatrix::from_matrix(&m, 1);
        assert_eq!(stable_marriage_topk(&t), vec![Some(0), None]);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{full, stable_marriage_full};
    use super::*;
    use openea_runtime::testkit::prelude::*;

    /// The sort-every-cell matcher stable marriage replaced: every
    /// `(score, source, target)` cell in the kernel's total order (score
    /// descending, NaN last, then source, then target), each accepted when
    /// both ends are still free.
    fn greedy_collective(
        rows: usize,
        cols: usize,
        mut cells: Vec<(f32, usize, usize)>,
    ) -> Vec<Option<usize>> {
        cells.sort_by(|a, b| score_desc(a.0, b.0).then((a.1, a.2).cmp(&(b.1, b.2))));
        let mut used_src = vec![false; rows];
        let mut used_dst = vec![false; cols];
        let mut result = vec![None; rows];
        for (_, i, j) in cells {
            if !used_src[i] && !used_dst[j] {
                used_src[i] = true;
                used_dst[j] = true;
                result[i] = Some(j);
            }
        }
        result
    }

    /// Every cell of `sim`, for [`greedy_collective`].
    fn all_cells(sim: &SimilarityMatrix) -> Vec<(f32, usize, usize)> {
        (0..sim.rows())
            .flat_map(|i| sim.row(i).iter().enumerate().map(move |(j, &s)| (s, i, j)))
            .collect()
    }

    fn matching_weight(sim: &SimilarityMatrix, m: &[Option<usize>]) -> f64 {
        m.iter()
            .enumerate()
            .filter_map(|(i, &j)| j.map(|j| sim.get(i, j) as f64))
            .sum()
    }

    /// A `rows × cols` matrix from the head of `values`; with `ties`, every
    /// value snaps to one of three levels, so rows and columns tie often.
    fn shaped(rows: usize, cols: usize, values: &[f32], ties: bool) -> SimilarityMatrix {
        let snap = |v: f32| if ties { (v * 3.0).floor() / 3.0 } else { v };
        let data = values[..rows * cols].iter().map(|&v| snap(v)).collect();
        SimilarityMatrix::from_raw(rows, cols, data)
    }

    /// [`shaped`], with its last row and last column NaN when `nan_border`
    /// — what a diverged run hands inference.
    fn bordered(
        rows: usize,
        cols: usize,
        values: &[f32],
        ties: bool,
        nan_border: bool,
    ) -> SimilarityMatrix {
        let sim = shaped(rows, cols, values, ties);
        if !nan_border {
            return sim;
        }
        let data = (0..rows)
            .flat_map(|i| (0..cols).map(move |j| (i, j)))
            .map(|(i, j)| {
                if i + 1 == rows || j + 1 == cols {
                    f32::NAN
                } else {
                    sim.get(i, j)
                }
            })
            .collect();
        SimilarityMatrix::from_raw(rows, cols, data)
    }

    props! {
        #![cases = 64]

        /// Hungarian is optimal: at least the weight of the greedy collective
        /// heuristic (stable marriage over full lists) on square matrices.
        #[test]
        fn hungarian_weight_dominates_greedy_collective(
            values in vec_of(0.0f32..1.0, 16)
        ) {
            let sim = SimilarityMatrix::from_raw(4, 4, values);
            let h = hungarian(&sim);
            let gc = stable_marriage_full(&sim);
            prop_assert!(matching_weight(&sim, &h) >= matching_weight(&sim, &gc) - 1e-4);
        }

        /// Stable marriage over full lists never leaves a blocking pair —
        /// an unmatched source would take any target — and matches
        /// `min(rows, cols)` sources, on either side of square and with
        /// three-level ties.
        #[test]
        fn stable_marriage_has_no_blocking_pair_prop(
            rows in 1usize..7,
            cols in 1usize..7,
            ties in any_bool(),
            values in vec_of(0.0f32..1.0, 36)
        ) {
            let sim = shaped(rows, cols, &values, ties);
            let sm = stable_marriage_full(&sim);
            prop_assert_eq!(sm.iter().flatten().count(), rows.min(cols));
            for i in 0..rows {
                for j in 0..cols {
                    if sm[i] == Some(j) {
                        continue;
                    }
                    let i_prefers = sm[i].is_none_or(|mi| sim.get(i, j) > sim.get(i, mi));
                    let owner = (0..rows).find(|&o| sm[o] == Some(j));
                    let j_prefers = owner.is_none_or(|o| sim.get(i, j) > sim.get(o, j));
                    prop_assert!(!(i_prefers && j_prefers), "blocking pair ({i},{j})");
                }
            }
        }

        /// Over full lists stable marriage is the sort-every-cell greedy
        /// collective matching — whichever order sources propose in — on
        /// tie-heavy, NaN-bordered, rectangular and empty shapes.
        #[test]
        fn stable_marriage_over_full_lists_is_greedy_collective(
            rows in 0usize..=7,
            cols in 0usize..=7,
            ties in any_bool(),
            nan_border in any_bool(),
            values in vec_of(0.0f32..1.0, 49)
        ) {
            let sim = bordered(rows, cols, &values, ties, nan_border);
            prop_assert_eq!(
                stable_marriage_full(&sim),
                greedy_collective(rows, cols, all_cells(&sim))
            );
        }

        /// Over lists truncated to any `k` it is greedy collective over the
        /// kept entries.
        #[test]
        fn stable_marriage_over_truncated_lists_is_greedy_over_the_kept_entries(
            rows in 0usize..=7,
            cols in 0usize..=7,
            ties in any_bool(),
            nan_border in any_bool(),
            values in vec_of(0.0f32..1.0, 49)
        ) {
            let sim = bordered(rows, cols, &values, ties, nan_border);
            for k in 1..=cols {
                let topk = TopKMatrix::from_matrix(&sim, k);
                let kept = topk
                    .iter_rows()
                    .enumerate()
                    .flat_map(|(i, row)| row.iter().map(move |&(j, s)| (s, i, j as usize)))
                    .collect();
                prop_assert_eq!(stable_marriage_topk(&topk), greedy_collective(rows, cols, kept));
            }
        }

        /// Every 1-to-1 strategy returns distinct targets.
        #[test]
        fn one_to_one_strategies_have_distinct_targets(
            rows in 1usize..7,
            cols in 1usize..7,
            ties in any_bool(),
            values in vec_of(0.0f32..1.0, 36)
        ) {
            let sim = shaped(rows, cols, &values, ties);
            for m in [stable_marriage_full(&sim), hungarian(&sim)] {
                let picked: Vec<usize> = m.iter().flatten().copied().collect();
                let set: std::collections::HashSet<_> = picked.iter().collect();
                prop_assert_eq!(set.len(), picked.len());
            }
        }

        /// Greedy picks each row's maximum, the lowest index among ties.
        #[test]
        fn greedy_picks_the_first_row_maximum(
            rows in 1usize..7,
            cols in 1usize..7,
            ties in any_bool(),
            values in vec_of(0.0f32..1.0, 36)
        ) {
            let sim = shaped(rows, cols, &values, ties);
            for (i, got) in greedy_match_topk(&full(&sim)).into_iter().enumerate() {
                let row = sim.row(i);
                let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                prop_assert_eq!(got, row.iter().position(|&s| s == max));
            }
        }

        /// CSLS preserves matrix shape and finiteness.
        #[test]
        fn csls_is_shape_preserving(values in vec_of(-1.0f32..1.0, 12)) {
            let sim = SimilarityMatrix::from_raw(3, 4, values);
            let c = sim.csls(2);
            prop_assert_eq!(c.rows(), 3);
            prop_assert_eq!(c.cols(), 4);
            for i in 0..3 {
                prop_assert!(c.row(i).iter().all(|x| x.is_finite()));
            }
        }
    }
}
