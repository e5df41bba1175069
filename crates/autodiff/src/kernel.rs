//! The one inner loop under every product on the tape: a row of the output
//! is a sum of scaled source rows, `out[c] += coef · src[at + c]` over a list
//! of `(coef, at)` terms.
//!
//! The dense product, both halves of its backward pass and the sparse
//! product in either direction differ only in which terms a row has, so each
//! of them states its terms as an iterator and calls [`accumulate_row`].
//! Every output element receives exactly the sequence of `+= coef * x` the
//! plain scalar loop over those terms would give it — the same terms, in the
//! same order, a multiply and then an add, never fused — so the results are
//! bit-identical to it. What the kernel changes is where the running sums
//! live: a block of columns stays in registers across all terms of a row
//! instead of being loaded and stored once per term.

/// `out[c] += coef · src[at + c]` for each `(coef, at)` of `terms` in order,
/// for every column `c` of `out`. `out` holds the sums so far (zeros for a
/// fresh product); every `at + out.len()` must be inside `src`.
#[inline]
pub(crate) fn accumulate_row<I>(out: &mut [f32], src: &[f32], terms: I)
where
    I: Iterator<Item = (f32, usize)> + Clone,
{
    let mut c = 0;
    while out.len() - c >= 32 {
        block::<32, _>(&mut out[c..c + 32], src, c, terms.clone());
        c += 32;
    }
    while out.len() - c >= 8 {
        block::<8, _>(&mut out[c..c + 8], src, c, terms.clone());
        c += 8;
    }
    while c < out.len() {
        block::<1, _>(&mut out[c..c + 1], src, c, terms.clone());
        c += 1;
    }
}

/// Columns `c..c + W` of one output row, with the sums in a local array the
/// compiler keeps in registers.
#[inline(always)]
fn block<const W: usize, I>(out: &mut [f32], src: &[f32], c: usize, terms: I)
where
    I: Iterator<Item = (f32, usize)>,
{
    let out: &mut [f32; W] = out.try_into().expect("a block is W columns wide");
    let mut acc = *out;
    for (coef, at) in terms {
        let x: &[f32; W] = src[at + c..at + c + W]
            .try_into()
            .expect("a block is W columns wide");
        for (a, &xv) in acc.iter_mut().zip(x) {
            *a += coef * xv;
        }
    }
    *out = acc;
}

/// Row-major `rows × cols` → `cols × rows` into `out`.
pub(crate) fn transpose(src: &[f32], rows: usize, cols: usize, out: &mut [f32]) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(out.len(), rows * cols);
    for (r, row) in src.chunks_exact(cols.max(1)).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            out[c * rows + r] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_width_matches_the_scalar_loop() {
        // 45 columns = one block of 32, one of 8, five of 1.
        let cols = 45;
        let src: Vec<f32> = (0..4 * cols).map(|i| (i as f32 * 0.37).sin()).collect();
        let terms = [(0.5f32, 2 * cols), (-1.25, 0), (3.0, 3 * cols), (0.1, 0)];
        let mut want = vec![0.25f32; cols];
        for &(coef, at) in &terms {
            for (c, o) in want.iter_mut().enumerate() {
                *o += coef * src[at + c];
            }
        }
        let mut got = vec![0.25f32; cols];
        accumulate_row(&mut got, &src, terms.iter().copied());
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn transpose_moves_every_element() {
        let src = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut out = [0.0; 6];
        transpose(&src, 2, 3, &mut out);
        assert_eq!(out, [1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        transpose(&[], 0, 3, &mut []);
    }
}
