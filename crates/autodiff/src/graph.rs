//! The tape: eager graph construction + reverse-mode differentiation.
//!
//! Nodes are appended in topological order, so the backward pass is a single
//! reverse sweep. Every operation the deep models need is implemented here
//! and validated against finite differences in the test module.
//!
//! ```
//! use openea_autodiff::{Graph, Tensor};
//!
//! // d/dx sum(tanh(x·w)) at x = [1, 2], w = [[1], [−1]]
//! let mut g = Graph::new();
//! let x = g.leaf(Tensor::from_vec(1, 2, vec![1.0, 2.0]));
//! let w = g.leaf(Tensor::from_vec(2, 1, vec![1.0, -1.0]));
//! let y = g.matmul(x, w);
//! let t = g.tanh(y);
//! let loss = g.sum(t);
//! g.backward(loss);
//! let gx = g.grad(x);
//! assert_eq!(gx.rows, 1);
//! assert_eq!(gx.cols, 2);
//! assert!(gx.data[0] > 0.0 && gx.data[1] < 0.0);
//! ```

use crate::sparse::SparseMatrix;
use crate::tensor::Tensor;

/// Handle to a node on the tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Clone, Debug)]
enum Op {
    Leaf,
    Add(Var, Var),
    /// `[n,c] + [1,c]` broadcast over rows.
    AddRow(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    /// `[n,c] ⊙ [1,c]` broadcast over rows.
    MulRow(Var, Var),
    Scale(Var, f32),
    Matmul(Var, Var),
    /// Constant sparse matrix × dense var.
    Spmm(usize, Var),
    Gather(Var, Vec<u32>),
    Sigmoid(Var),
    Tanh(Var),
    Relu(Var),
    Abs(Var),
    Sum(Var),
    Mean(Var),
    /// Row-wise sum: `[n,c] → [n,1]`.
    SumRows(Var),
    /// Column concatenation.
    Concat(Var, Var),
    Reshape(Var),
    /// Mean softmax cross-entropy of logits `[n,c]` against target columns.
    SoftmaxCe(Var, Vec<u32>),
    /// Valid-padding single-channel conv: input `[n, h·w]`, filters `[k, kh·kw]`.
    Conv2d {
        input: Var,
        filters: Var,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
    },
}

struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    op: Op,
}

/// The autodiff tape.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    sparse: Vec<SparseMatrix>,
}

impl Graph {
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the tape for the next step (sparse constants are kept).
    pub fn reset(&mut self) {
        self.nodes.clear();
    }

    /// Registers a constant sparse matrix; returns its id for [`Graph::spmm`].
    pub fn add_sparse(&mut self, m: SparseMatrix) -> usize {
        self.sparse.push(m);
        self.sparse.len() - 1
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
        });
        Var(self.nodes.len() - 1)
    }

    /// A leaf tensor (input or parameter snapshot).
    pub fn leaf(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Leaf)
    }

    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Gradient of the last `backward` target with respect to `v`
    /// (zeros if the node is unreachable from the target).
    pub fn grad(&self, v: Var) -> Tensor {
        match &self.nodes[v.0].grad {
            Some(g) => g.clone(),
            None => Tensor::zeros(self.nodes[v.0].value.rows, self.nodes[v.0].value.cols),
        }
    }

    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert!(ta.same_shape(tb), "add shape mismatch");
        let data = ta.data.iter().zip(&tb.data).map(|(x, y)| x + y).collect();
        let t = Tensor::from_vec(ta.rows, ta.cols, data);
        self.push(t, Op::Add(a, b))
    }

    pub fn add_row(&mut self, a: Var, row: Var) -> Var {
        let (ta, tr) = (&self.nodes[a.0].value, &self.nodes[row.0].value);
        assert_eq!(tr.rows, 1, "broadcast operand must be a row vector");
        assert_eq!(ta.cols, tr.cols, "add_row width mismatch");
        let mut out = ta.clone();
        for r in 0..out.rows {
            for (o, &b) in out.row_mut(r).iter_mut().zip(&tr.data) {
                *o += b;
            }
        }
        self.push(out, Op::AddRow(a, row))
    }

    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert!(ta.same_shape(tb), "sub shape mismatch");
        let data = ta.data.iter().zip(&tb.data).map(|(x, y)| x - y).collect();
        let t = Tensor::from_vec(ta.rows, ta.cols, data);
        self.push(t, Op::Sub(a, b))
    }

    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert!(ta.same_shape(tb), "mul shape mismatch");
        let data = ta.data.iter().zip(&tb.data).map(|(x, y)| x * y).collect();
        let t = Tensor::from_vec(ta.rows, ta.cols, data);
        self.push(t, Op::Mul(a, b))
    }

    pub fn mul_row(&mut self, a: Var, row: Var) -> Var {
        let (ta, tr) = (&self.nodes[a.0].value, &self.nodes[row.0].value);
        assert_eq!(tr.rows, 1, "broadcast operand must be a row vector");
        assert_eq!(ta.cols, tr.cols, "mul_row width mismatch");
        let mut out = ta.clone();
        for r in 0..out.rows {
            for (o, &b) in out.row_mut(r).iter_mut().zip(&tr.data) {
                *o *= b;
            }
        }
        self.push(out, Op::MulRow(a, row))
    }

    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let ta = &self.nodes[a.0].value;
        let data = ta.data.iter().map(|x| x * s).collect();
        let t = Tensor::from_vec(ta.rows, ta.cols, data);
        self.push(t, Op::Scale(a, s))
    }

    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(ta.cols, tb.rows, "matmul shape mismatch");
        let mut out = Tensor::zeros(ta.rows, tb.cols);
        for i in 0..ta.rows {
            for k in 0..ta.cols {
                let av = ta.get(i, k);
                if av == 0.0 {
                    continue;
                }
                let brow = tb.row(k);
                let orow = out.row_mut(i);
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        self.push(out, Op::Matmul(a, b))
    }

    pub fn spmm(&mut self, sparse_id: usize, b: Var) -> Var {
        let out = self.sparse[sparse_id].matmul(&self.nodes[b.0].value);
        self.push(out, Op::Spmm(sparse_id, b))
    }

    /// Row gather: output row `i` is input row `idx[i]`.
    pub fn gather(&mut self, a: Var, idx: Vec<u32>) -> Var {
        let ta = &self.nodes[a.0].value;
        let mut out = Tensor::zeros(idx.len(), ta.cols);
        for (i, &r) in idx.iter().enumerate() {
            out.row_mut(i).copy_from_slice(ta.row(r as usize));
        }
        self.push(out, Op::Gather(a, idx))
    }

    pub fn sigmoid(&mut self, a: Var) -> Var {
        let ta = &self.nodes[a.0].value;
        let data = ta
            .data
            .iter()
            .map(|&x| {
                if x >= 0.0 {
                    1.0 / (1.0 + (-x).exp())
                } else {
                    let e = x.exp();
                    e / (1.0 + e)
                }
            })
            .collect();
        let t = Tensor::from_vec(ta.rows, ta.cols, data);
        self.push(t, Op::Sigmoid(a))
    }

    pub fn tanh(&mut self, a: Var) -> Var {
        let ta = &self.nodes[a.0].value;
        let data = ta.data.iter().map(|x| x.tanh()).collect();
        let t = Tensor::from_vec(ta.rows, ta.cols, data);
        self.push(t, Op::Tanh(a))
    }

    pub fn relu(&mut self, a: Var) -> Var {
        let ta = &self.nodes[a.0].value;
        let data = ta.data.iter().map(|x| x.max(0.0)).collect();
        let t = Tensor::from_vec(ta.rows, ta.cols, data);
        self.push(t, Op::Relu(a))
    }

    pub fn abs(&mut self, a: Var) -> Var {
        let ta = &self.nodes[a.0].value;
        let data = ta.data.iter().map(|x| x.abs()).collect();
        let t = Tensor::from_vec(ta.rows, ta.cols, data);
        self.push(t, Op::Abs(a))
    }

    pub fn sum(&mut self, a: Var) -> Var {
        let s: f32 = self.nodes[a.0].value.data.iter().sum();
        self.push(Tensor::scalar(s), Op::Sum(a))
    }

    pub fn mean(&mut self, a: Var) -> Var {
        let ta = &self.nodes[a.0].value;
        let s: f32 = ta.data.iter().sum::<f32>() / ta.len().max(1) as f32;
        self.push(Tensor::scalar(s), Op::Mean(a))
    }

    pub fn sum_rows(&mut self, a: Var) -> Var {
        let ta = &self.nodes[a.0].value;
        let mut out = Tensor::zeros(ta.rows, 1);
        for i in 0..ta.rows {
            out.data[i] = ta.row(i).iter().sum();
        }
        self.push(out, Op::SumRows(a))
    }

    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(ta.rows, tb.rows, "concat row mismatch");
        let mut out = Tensor::zeros(ta.rows, ta.cols + tb.cols);
        for i in 0..ta.rows {
            out.row_mut(i)[..ta.cols].copy_from_slice(ta.row(i));
        }
        for i in 0..tb.rows {
            let c0 = ta.cols;
            out.row_mut(i)[c0..].copy_from_slice(tb.row(i));
        }
        self.push(out, Op::Concat(a, b))
    }

    pub fn reshape(&mut self, a: Var, rows: usize, cols: usize) -> Var {
        let ta = &self.nodes[a.0].value;
        assert_eq!(ta.len(), rows * cols, "reshape size mismatch");
        let t = Tensor::from_vec(rows, cols, ta.data.clone());
        self.push(t, Op::Reshape(a))
    }

    /// Mean softmax cross-entropy of `logits` `[n,c]` against `targets[i] < c`.
    pub fn softmax_cross_entropy(&mut self, logits: Var, targets: Vec<u32>) -> Var {
        let tl = &self.nodes[logits.0].value;
        assert_eq!(tl.rows, targets.len(), "one target per row");
        let mut loss = 0.0f64;
        for (i, &t) in targets.iter().enumerate() {
            let row = tl.row(i);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse: f32 = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln() + max;
            loss += (lse - row[t as usize]) as f64;
        }
        let t = Tensor::scalar((loss / targets.len().max(1) as f64) as f32);
        self.push(t, Op::SoftmaxCe(logits, targets))
    }

    /// Single-channel valid convolution (used by ConvE).
    pub fn conv2d(
        &mut self,
        input: Var,
        filters: Var,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
    ) -> Var {
        let (ti, tf) = (&self.nodes[input.0].value, &self.nodes[filters.0].value);
        assert_eq!(ti.cols, h * w, "conv input shape");
        assert_eq!(tf.cols, kh * kw, "conv filter shape");
        let (oh, ow) = (h - kh + 1, w - kw + 1);
        let k = tf.rows;
        let mut out = Tensor::zeros(ti.rows, k * oh * ow);
        for n in 0..ti.rows {
            let img = ti.row(n);
            for f in 0..k {
                let filt = tf.row(f);
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for fy in 0..kh {
                            for fx in 0..kw {
                                acc += img[(oy + fy) * w + (ox + fx)] * filt[fy * kw + fx];
                            }
                        }
                        out.row_mut(n)[f * oh * ow + oy * ow + ox] = acc;
                    }
                }
            }
        }
        self.push(
            out,
            Op::Conv2d {
                input,
                filters,
                h,
                w,
                kh,
                kw,
            },
        )
    }

    /// Runs the reverse pass from scalar node `target`.
    pub fn backward(&mut self, target: Var) {
        assert_eq!(
            self.nodes[target.0].value.len(),
            1,
            "backward target must be scalar"
        );
        for n in &mut self.nodes {
            n.grad = None;
        }
        self.nodes[target.0].grad = Some(Tensor::scalar(1.0));

        for id in (0..=target.0).rev() {
            // Taken out for the node's own step (its inputs all have lower
            // ids) and put back below: `grad` reads it after the pass.
            let Some(g) = self.nodes[id].grad.take() else {
                continue;
            };
            let op = self.nodes[id].op.clone();
            match op {
                Op::Leaf => {}
                Op::Add(a, b) => {
                    self.accum(a, &g);
                    self.accum(b, &g);
                }
                Op::AddRow(a, row) => {
                    self.accum(a, &g);
                    let mut rg = Tensor::zeros(1, g.cols);
                    for i in 0..g.rows {
                        for (o, &x) in rg.data.iter_mut().zip(g.row(i)) {
                            *o += x;
                        }
                    }
                    self.accum_owned(row, rg);
                }
                Op::Sub(a, b) => {
                    self.accum(a, &g);
                    let neg = Tensor::from_vec(g.rows, g.cols, g.data.iter().map(|x| -x).collect());
                    self.accum_owned(b, neg);
                }
                Op::Mul(a, b) => {
                    let ga = {
                        let tb = &self.nodes[b.0].value;
                        Tensor::from_vec(
                            g.rows,
                            g.cols,
                            g.data.iter().zip(&tb.data).map(|(x, y)| x * y).collect(),
                        )
                    };
                    let gb = {
                        let ta = &self.nodes[a.0].value;
                        Tensor::from_vec(
                            g.rows,
                            g.cols,
                            g.data.iter().zip(&ta.data).map(|(x, y)| x * y).collect(),
                        )
                    };
                    self.accum_owned(a, ga);
                    self.accum_owned(b, gb);
                }
                Op::MulRow(a, row) => {
                    let (ga, gr) = {
                        let ta = &self.nodes[a.0].value;
                        let tr = &self.nodes[row.0].value;
                        let mut ga = Tensor::zeros(g.rows, g.cols);
                        let mut gr = Tensor::zeros(1, g.cols);
                        for i in 0..g.rows {
                            for j in 0..g.cols {
                                ga.row_mut(i)[j] = g.get(i, j) * tr.data[j];
                                gr.data[j] += g.get(i, j) * ta.get(i, j);
                            }
                        }
                        (ga, gr)
                    };
                    self.accum_owned(a, ga);
                    self.accum_owned(row, gr);
                }
                Op::Scale(a, s) => {
                    let ga =
                        Tensor::from_vec(g.rows, g.cols, g.data.iter().map(|x| x * s).collect());
                    self.accum_owned(a, ga);
                }
                Op::Matmul(a, b) => {
                    // dA = g · Bᵀ ; dB = Aᵀ · g
                    let (ga, gb) = {
                        let ta = &self.nodes[a.0].value;
                        let tb = &self.nodes[b.0].value;
                        let mut ga = Tensor::zeros(ta.rows, ta.cols);
                        for i in 0..ta.rows {
                            for j in 0..tb.cols {
                                let gv = g.get(i, j);
                                if gv == 0.0 {
                                    continue;
                                }
                                for k in 0..ta.cols {
                                    ga.row_mut(i)[k] += gv * tb.get(k, j);
                                }
                            }
                        }
                        let mut gb = Tensor::zeros(tb.rows, tb.cols);
                        for i in 0..ta.rows {
                            for k in 0..ta.cols {
                                let av = ta.get(i, k);
                                if av == 0.0 {
                                    continue;
                                }
                                for (o, &gv) in gb.row_mut(k).iter_mut().zip(g.row(i)) {
                                    *o += av * gv;
                                }
                            }
                        }
                        (ga, gb)
                    };
                    self.accum_owned(a, ga);
                    self.accum_owned(b, gb);
                }
                Op::Spmm(s, b) => {
                    let gb = self.sparse[s].matmul_t(&g);
                    self.accum_owned(b, gb);
                }
                Op::Gather(a, idx) => {
                    let ta_cols = self.nodes[a.0].value.cols;
                    let ta_rows = self.nodes[a.0].value.rows;
                    let mut ga = Tensor::zeros(ta_rows, ta_cols);
                    for (i, &r) in idx.iter().enumerate() {
                        for (o, &x) in ga.row_mut(r as usize).iter_mut().zip(g.row(i)) {
                            *o += x;
                        }
                    }
                    self.accum_owned(a, ga);
                }
                Op::Sigmoid(a) => {
                    let y = &self.nodes[id].value;
                    let ga = Tensor::from_vec(
                        g.rows,
                        g.cols,
                        g.data
                            .iter()
                            .zip(&y.data)
                            .map(|(gv, yv)| gv * yv * (1.0 - yv))
                            .collect(),
                    );
                    self.accum_owned(a, ga);
                }
                Op::Tanh(a) => {
                    let y = &self.nodes[id].value;
                    let ga = Tensor::from_vec(
                        g.rows,
                        g.cols,
                        g.data
                            .iter()
                            .zip(&y.data)
                            .map(|(gv, yv)| gv * (1.0 - yv * yv))
                            .collect(),
                    );
                    self.accum_owned(a, ga);
                }
                Op::Relu(a) => {
                    let x = &self.nodes[a.0].value;
                    let ga = Tensor::from_vec(
                        g.rows,
                        g.cols,
                        g.data
                            .iter()
                            .zip(&x.data)
                            .map(|(gv, xv)| if *xv > 0.0 { *gv } else { 0.0 })
                            .collect(),
                    );
                    self.accum_owned(a, ga);
                }
                Op::Abs(a) => {
                    let x = &self.nodes[a.0].value;
                    let ga = Tensor::from_vec(
                        g.rows,
                        g.cols,
                        g.data
                            .iter()
                            .zip(&x.data)
                            .map(|(gv, xv)| gv * xv.signum())
                            .collect(),
                    );
                    self.accum_owned(a, ga);
                }
                Op::Sum(a) => {
                    let ta = &self.nodes[a.0].value;
                    let ga = Tensor::from_vec(ta.rows, ta.cols, vec![g.item(); ta.len()]);
                    self.accum_owned(a, ga);
                }
                Op::Mean(a) => {
                    let ta = &self.nodes[a.0].value;
                    let v = g.item() / ta.len().max(1) as f32;
                    let ga = Tensor::from_vec(ta.rows, ta.cols, vec![v; ta.len()]);
                    self.accum_owned(a, ga);
                }
                Op::SumRows(a) => {
                    let ta = &self.nodes[a.0].value;
                    let mut ga = Tensor::zeros(ta.rows, ta.cols);
                    for i in 0..ta.rows {
                        let gv = g.data[i];
                        ga.row_mut(i).fill(gv);
                    }
                    self.accum_owned(a, ga);
                }
                Op::Concat(a, b) => {
                    let ca = self.nodes[a.0].value.cols;
                    let cb = self.nodes[b.0].value.cols;
                    let mut ga = Tensor::zeros(g.rows, ca);
                    let mut gb = Tensor::zeros(g.rows, cb);
                    for i in 0..g.rows {
                        ga.row_mut(i).copy_from_slice(&g.row(i)[..ca]);
                        gb.row_mut(i).copy_from_slice(&g.row(i)[ca..]);
                    }
                    self.accum_owned(a, ga);
                    self.accum_owned(b, gb);
                }
                Op::Reshape(a) => {
                    let ta = &self.nodes[a.0].value;
                    let ga = Tensor::from_vec(ta.rows, ta.cols, g.data.clone());
                    self.accum_owned(a, ga);
                }
                Op::SoftmaxCe(logits, targets) => {
                    let tl = &self.nodes[logits.0].value;
                    let n = targets.len().max(1) as f32;
                    let scale = g.item() / n;
                    let mut gl = Tensor::zeros(tl.rows, tl.cols);
                    for (i, &t) in targets.iter().enumerate() {
                        let row = tl.row(i);
                        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                        let exps: Vec<f32> = row.iter().map(|&x| (x - max).exp()).collect();
                        let z: f32 = exps.iter().sum();
                        let grow = gl.row_mut(i);
                        for (j, e) in exps.iter().enumerate() {
                            grow[j] = scale * (e / z - if j == t as usize { 1.0 } else { 0.0 });
                        }
                    }
                    self.accum_owned(logits, gl);
                }
                Op::Conv2d {
                    input,
                    filters,
                    h,
                    w,
                    kh,
                    kw,
                } => {
                    let (gi, gf) = {
                        let ti = &self.nodes[input.0].value;
                        let tf = &self.nodes[filters.0].value;
                        let (oh, ow) = (h - kh + 1, w - kw + 1);
                        let k = tf.rows;
                        let mut gi = Tensor::zeros(ti.rows, ti.cols);
                        let mut gf = Tensor::zeros(tf.rows, tf.cols);
                        for n in 0..ti.rows {
                            let img = ti.row(n);
                            let gout = g.row(n);
                            for f in 0..k {
                                let filt = tf.row(f);
                                for oy in 0..oh {
                                    for ox in 0..ow {
                                        let gv = gout[f * oh * ow + oy * ow + ox];
                                        if gv == 0.0 {
                                            continue;
                                        }
                                        for fy in 0..kh {
                                            for fx in 0..kw {
                                                gi.row_mut(n)[(oy + fy) * w + (ox + fx)] +=
                                                    gv * filt[fy * kw + fx];
                                                gf.row_mut(f)[fy * kw + fx] +=
                                                    gv * img[(oy + fy) * w + (ox + fx)];
                                            }
                                        }
                                    }
                                }
                            }
                        }
                        (gi, gf)
                    };
                    self.accum_owned(input, gi);
                    self.accum_owned(filters, gf);
                }
            }
            self.nodes[id].grad = Some(g);
        }
    }

    fn accum(&mut self, v: Var, g: &Tensor) {
        let node = &mut self.nodes[v.0];
        match &mut node.grad {
            Some(existing) => {
                for (e, &x) in existing.data.iter_mut().zip(&g.data) {
                    *e += x;
                }
            }
            None => node.grad = Some(g.clone()),
        }
    }

    /// `accum` of a gradient its caller is done with: a first contribution
    /// moves in instead of being copied and then dropped.
    fn accum_owned(&mut self, v: Var, g: Tensor) {
        if self.nodes[v.0].grad.is_some() {
            self.accum(v, &g);
        } else {
            self.nodes[v.0].grad = Some(g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openea_runtime::rng::SmallRng;
    use openea_runtime::rng::{Rng, SeedableRng};

    /// Finite-difference check: builds the graph twice per perturbed input
    /// via `f`, compares numeric and analytic gradients of the first leaf.
    fn grad_check(build: impl Fn(&mut Graph, &Tensor) -> Var, x0: Tensor) {
        let mut g = Graph::new();
        let loss = build(&mut g, &x0);
        g.backward(loss);
        // Find the leaf holding x0 (first node).
        let analytic = g.grad(Var(0));
        let eps = 1e-3f32;
        for i in 0..x0.len() {
            let mut xp = x0.clone();
            xp.data[i] += eps;
            let mut gp = Graph::new();
            let lp = build(&mut gp, &xp);
            let fp = gp.value(lp).item();
            let mut xm = x0.clone();
            xm.data[i] -= eps;
            let mut gm = Graph::new();
            let lm = build(&mut gm, &xm);
            let fm = gm.value(lm).item();
            let numeric = (fp - fm) / (2.0 * eps);
            let a = analytic.data[i];
            assert!(
                (a - numeric).abs() < 2e-2 * (1.0 + a.abs().max(numeric.abs())),
                "component {i}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    fn rand_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = SmallRng::seed_from_u64(seed);
        Tensor::random_uniform(rows, cols, 1.0, &mut rng)
    }

    #[test]
    fn grad_add_mul_chain() {
        grad_check(
            |g, x| {
                let a = g.leaf(x.clone());
                let b = g.leaf(rand_tensor(2, 3, 100));
                let s = g.add(a, b);
                let m = g.mul(s, a);
                g.sum(m)
            },
            rand_tensor(2, 3, 1),
        );
    }

    #[test]
    fn every_reached_node_keeps_its_gradient_after_backward() {
        // `backward` moves gradients instead of copying them; interior
        // nodes and fan-out (x feeds two ops) must still read back whole.
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(1, 2, vec![3.0, -1.0]));
        let y = g.scale(x, 2.0);
        let z = g.add(y, x);
        let loss = g.sum(z);
        g.backward(loss);
        assert_eq!(g.grad(loss).data, [1.0]);
        assert_eq!(g.grad(z).data, [1.0, 1.0]);
        assert_eq!(g.grad(y).data, [1.0, 1.0]);
        assert_eq!(g.grad(x).data, [3.0, 3.0]);
    }

    #[test]
    fn grad_matmul() {
        grad_check(
            |g, x| {
                let a = g.leaf(x.clone());
                let b = g.leaf(rand_tensor(3, 2, 101));
                let m = g.matmul(a, b);
                g.sum(m)
            },
            rand_tensor(2, 3, 2),
        );
        // Also check the right operand.
        grad_check(
            |g, x| {
                let b = g.leaf(x.clone());
                let a = g.leaf(rand_tensor(2, 3, 102));
                let m = g.matmul(a, b);
                let t = g.tanh(m);
                g.sum(t)
            },
            rand_tensor(3, 2, 3),
        );
    }

    #[test]
    fn grad_activations() {
        for act in 0..4 {
            grad_check(
                move |g, x| {
                    let a = g.leaf(x.clone());
                    let y = match act {
                        0 => g.sigmoid(a),
                        1 => g.tanh(a),
                        2 => g.relu(a),
                        _ => g.abs(a),
                    };
                    g.sum(y)
                },
                // Stay away from relu/abs kinks.
                Tensor::from_vec(2, 2, vec![0.5, -0.7, 1.2, -0.3]),
            );
        }
    }

    #[test]
    fn grad_broadcast_ops() {
        grad_check(
            |g, x| {
                let a = g.leaf(x.clone());
                let r = g.leaf(rand_tensor(1, 3, 103));
                let y = g.add_row(a, r);
                let z = g.mul_row(y, r);
                g.mean(z)
            },
            rand_tensor(4, 3, 4),
        );
        // Gradient w.r.t. the broadcast row itself.
        grad_check(
            |g, x| {
                let r = g.leaf(x.clone());
                let a = g.leaf(rand_tensor(4, 3, 104));
                let y = g.mul_row(a, r);
                g.sum(y)
            },
            rand_tensor(1, 3, 5),
        );
    }

    #[test]
    fn grad_gather_scatters_back() {
        grad_check(
            |g, x| {
                let a = g.leaf(x.clone());
                let picked = g.gather(a, vec![0, 2, 2]);
                let s = g.mul(picked, picked);
                g.sum(s)
            },
            rand_tensor(3, 2, 6),
        );
    }

    #[test]
    fn grad_spmm() {
        let sp = SparseMatrix::from_triplets(2, 3, vec![(0, 0, 1.0), (0, 2, 2.0), (1, 1, -1.5)]);
        grad_check(
            move |g, x| {
                let id = g.add_sparse(sp.clone());
                let a = g.leaf(x.clone());
                let y = g.spmm(id, a);
                let t = g.tanh(y);
                g.sum(t)
            },
            rand_tensor(3, 2, 7),
        );
    }

    #[test]
    fn grad_softmax_ce() {
        grad_check(
            |g, x| {
                let a = g.leaf(x.clone());
                g.softmax_cross_entropy(a, vec![1, 0])
            },
            rand_tensor(2, 4, 8),
        );
    }

    #[test]
    fn grad_conv2d() {
        // 3x3 image, 2 filters of 2x2.
        grad_check(
            |g, x| {
                let img = g.leaf(x.clone());
                let f = g.leaf(rand_tensor(2, 4, 105));
                let y = g.conv2d(img, f, 3, 3, 2, 2);
                let t = g.tanh(y);
                g.sum(t)
            },
            rand_tensor(2, 9, 9),
        );
        // Filter gradients.
        grad_check(
            |g, x| {
                let f = g.leaf(x.clone());
                let img = g.leaf(rand_tensor(2, 9, 106));
                let y = g.conv2d(img, f, 3, 3, 2, 2);
                g.sum(y)
            },
            rand_tensor(2, 4, 10),
        );
    }

    #[test]
    fn grad_concat_reshape_sumrows() {
        grad_check(
            |g, x| {
                let a = g.leaf(x.clone());
                let b = g.leaf(rand_tensor(2, 2, 107));
                let c = g.concat_cols(a, b);
                let r = g.reshape(c, 1, 10);
                let m = g.mul(r, r);
                let s = g.sum_rows(m);
                g.sum(s)
            },
            rand_tensor(2, 3, 11),
        );
    }

    #[test]
    fn softmax_ce_value_matches_manual() {
        let mut g = Graph::new();
        let logits = g.leaf(Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]));
        let loss = g.softmax_cross_entropy(logits, vec![2]);
        let z = (1.0f64.exp() + 2.0f64.exp() + 3.0f64.exp()).ln();
        assert!((g.value(loss).item() as f64 - (z - 3.0)).abs() < 1e-5);
    }

    #[test]
    fn unreachable_nodes_have_zero_grad() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::scalar(2.0));
        let b = g.leaf(Tensor::scalar(5.0));
        let y = g.mul(a, a);
        g.backward(y);
        assert_eq!(g.grad(b).item(), 0.0);
        assert!((g.grad(a).item() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn gradient_descent_on_tape_converges() {
        // Fit w in y = x·w to a target by re-taping every step.
        let mut rng = SmallRng::seed_from_u64(42);
        let x = Tensor::random_uniform(8, 3, 1.0, &mut rng);
        let w_true = Tensor::random_uniform(3, 1, 1.0, &mut rng);
        let mut g0 = Graph::new();
        let xv = g0.leaf(x.clone());
        let wv = g0.leaf(w_true.clone());
        let yv = g0.matmul(xv, wv);
        let y = g0.value(yv).clone();

        let mut w = Tensor::random_uniform(3, 1, 0.1, &mut rng);
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            let mut g = Graph::new();
            let xv = g.leaf(x.clone());
            let wv = g.leaf(w.clone());
            let yv = g.leaf(y.clone());
            let pred = g.matmul(xv, wv);
            let diff = g.sub(pred, yv);
            let sq = g.mul(diff, diff);
            let loss = g.mean(sq);
            g.backward(loss);
            last = g.value(loss).item();
            let gw = g.grad(wv);
            for (wi, gi) in w.data.iter_mut().zip(&gw.data) {
                *wi -= 0.5 * gi;
            }
        }
        assert!(last < 1e-4, "final loss {last}");
        let _ = rng.gen::<f32>();
    }

    #[test]
    #[should_panic(expected = "must be scalar")]
    fn backward_on_matrix_panics() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::zeros(2, 2));
        g.backward(a);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use openea_runtime::testkit::prelude::*;

    props! {
        #![cases = 24]

        /// A randomly-composed chain of elementwise ops matches finite
        /// differences on every input component.
        #[test]
        fn random_elementwise_chains_differentiate_correctly(
            x0 in vec_of(-1.5f32..1.5, 4),
            ops in vec_of(0u8..4, 1..5),
        ) {
            let build = |g: &mut Graph, x: &Tensor| {
                let mut v = g.leaf(x.clone());
                for &op in &ops {
                    v = match op {
                        0 => g.sigmoid(v),
                        1 => g.tanh(v),
                        2 => g.scale(v, 0.5),
                        _ => g.mul(v, v),
                    };
                }
                g.sum(v)
            };
            let x = Tensor::from_vec(1, 4, x0.clone());
            let mut g = Graph::new();
            let loss = build(&mut g, &x);
            g.backward(loss);
            let analytic = g.grad(Var(0));
            let eps = 1e-3;
            for i in 0..4 {
                let mut xp = x.clone();
                xp.data[i] += eps;
                let mut xm = x.clone();
                xm.data[i] -= eps;
                let mut gp = Graph::new();
                let lp = build(&mut gp, &xp);
                let mut gm = Graph::new();
                let lm = build(&mut gm, &xm);
                let numeric = (gp.value(lp).item() - gm.value(lm).item()) / (2.0 * eps);
                let a = analytic.data[i];
                prop_assert!(
                    (a - numeric).abs() < 3e-2 * (1.0 + a.abs().max(numeric.abs())),
                    "component {i}: analytic {a} vs numeric {numeric} (ops {ops:?})"
                );
            }
        }
    }
}
