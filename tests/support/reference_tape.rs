//! The tape as it was before its buffers were pooled and its products went
//! through `kernel.rs`: the plain nested loop of every op, forward and
//! backward, moved here verbatim from `crates/autodiff/src/{graph,sparse}.rs`.
//! It allocates a fresh tensor per node and per gradient, walks `B` by column
//! in `dA = g·Bᵀ`, and scatters in `spmm`'s backward — the arithmetic that
//! `tests/autodiff_equivalence.rs` pins the tape to, bit for bit. Do not
//! tidy these loops: their order of operations is the specification.
//! Beside the former API there is one composition, `propagate`: the nodes
//! the tape's fused graph layer stands for.

// The reference keeps the whole former API, used by the test or not.
#![allow(dead_code)]

use openea_autodiff::{Act, Tensor};

/// Compressed sparse row matrix with `f32` values.
#[derive(Clone, Debug)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl SparseMatrix {
    /// Builds from triplets `(row, col, value)`; duplicate entries are summed.
    pub fn from_triplets(rows: usize, cols: usize, mut triplets: Vec<(u32, u32, f32)>) -> Self {
        triplets.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut counts = vec![0usize; rows];
        let mut col_idx = Vec::with_capacity(triplets.len());
        let mut values: Vec<f32> = Vec::with_capacity(triplets.len());
        let mut prev: Option<(u32, u32)> = None;
        for &(r, c, v) in &triplets {
            assert!(
                (r as usize) < rows && (c as usize) < cols,
                "triplet out of range"
            );
            if prev == Some((r, c)) {
                *values.last_mut().expect("previous value") += v;
            } else {
                counts[r as usize] += 1;
                col_idx.push(c);
                values.push(v);
                prev = Some((r, c));
            }
        }
        let mut row_ptr = vec![0usize; rows + 1];
        for r in 0..rows {
            row_ptr[r + 1] = row_ptr[r] + counts[r];
        }
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Dense product `self · m`.
    pub fn matmul(&self, m: &Tensor) -> Tensor {
        assert_eq!(self.cols, m.rows, "spmm shape mismatch");
        let mut out = Tensor::zeros(self.rows, m.cols);
        for r in 0..self.rows {
            let out_row = out.row_mut(r);
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k] as usize;
                let v = self.values[k];
                for (o, &x) in out_row.iter_mut().zip(m.row(c)) {
                    *o += v * x;
                }
            }
        }
        out
    }

    /// Transposed product `selfᵀ · m` (used in the backward pass of `spmm`).
    pub fn matmul_t(&self, m: &Tensor) -> Tensor {
        assert_eq!(self.rows, m.rows, "spmmᵀ shape mismatch");
        let mut out = Tensor::zeros(self.cols, m.cols);
        for r in 0..self.rows {
            let m_row = m.row(r);
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k] as usize;
                let v = self.values[k];
                let out_row = out.row_mut(c);
                for (o, &x) in out_row.iter_mut().zip(m_row) {
                    *o += v * x;
                }
            }
        }
        out
    }
}

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

    /// `act(Â·(H·W))` as three nodes: `matmul`, `spmm`, and `tanh` for
    /// [`Act::Tanh`].
    pub fn propagate(&mut self, sparse_id: usize, h: Var, w: Var, act: Act) -> Var {
        let hw = self.matmul(h, w);
        let p = self.spmm(sparse_id, hw);
        match act {
            Act::Linear => p,
            Act::Tanh => self.tanh(p),
        }
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
