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
//!
//! # Buffers
//!
//! A training loop tapes the same shapes step after step, so a `Graph` owns
//! its memory: every value and gradient is drawn from a pool of free buffers
//! keyed by exact length, [`Graph::reset`] hands every buffer back instead of
//! dropping it, and a tape that is reset and rebuilt with the shapes of the
//! step before asks the allocator for nothing. The pool holds the most
//! buffers of each length the tape has had in use at once, until
//! [`Graph::release`] gives them back to the allocator — which is for the
//! moments a tape pauses, such as a checkpoint between steps. Four things
//! keep buffers off the tape that no backward step would read:
//!
//! * **One node per layer.** [`Graph::propagate`] is a graph-convolution
//!   layer, `act(Â·(H·W))`, as one node. `H·W` is made in a pooled scratch
//!   buffer and handed back before the node is pushed, because `spmm`'s
//!   step needs its shape only; with [`Act::Tanh`] the activation runs in
//!   place on the product, because `tanh`'s step reads its own output and
//!   not its input. ([`Graph::tanh`] on its own still writes a new buffer:
//!   a program may read its operand again.)
//! * **Symmetric constants once.** [`Graph::add_sparse`] keeps the
//!   transpose that `spmm`'s backward step multiplies by only if it differs
//!   from the matrix in a bit; a GCN's normalized adjacency is symmetric by
//!   construction, and its backward step multiplies by the matrix itself.
//! * **Lent leaves.** A tensor moved in through [`Graph::leaf`] is not
//!   pooled: it is dropped at `reset`, or a leaf per step would grow the pool
//!   by one buffer per step. A caller that keeps the tensor — a model's
//!   features between steps — lends it instead of copying it: `leaf(t)`,
//!   then [`Graph::take_value`] before the next `reset`. The leaf's gradient
//!   stays readable after the value has gone back. (A parameter the caller
//!   cannot move goes in through [`Graph::leaf_from`], a pooled copy.)
//! * **Moved-out values.** `take_value` on any node moves its buffer out
//!   without a copy, so a result can outlive [`Graph::release`] and be
//!   post-processed without the pool still held under it.
//!
//! # What can be read after `backward`
//!
//! [`Graph::backward`] recycles the interior of the tape — every node that
//! is neither a leaf nor the target — as it goes, in two moves:
//!
//! 1. Before the sweep, the value of every interior node that no backward
//!    step reads returns to the pool. Most steps need only the *shape* of
//!    what they touch (`add`, `spmm`, `gather`, the reductions, …); the
//!    values that are read — both factors of a product (`propagate`'s `H`
//!    and `W`), the input of `relu` and `abs`, the output of `tanh`,
//!    `sigmoid` and a `propagate` through `tanh` — are marked as the tape
//!    is built (`Op::reads`).
//! 2. When the sweep has run the step of an interior node, that node's
//!    gradient is complete and has been passed on, and nothing later in the
//!    sweep reads its value: its consumers were appended after it, so they
//!    have higher ids and their steps ran first. Both buffers return to the
//!    pool at that moment.
//!
//! The freed buffers carry the next gradients, so a step holds the forward
//! values plus the two or three gradients in flight, not a gradient per
//! node. After `backward(t)`:
//!
//! * [`Graph::grad`] / [`Graph::grad_ref`] are defined for **leaves** (zeros
//!   for one `t` does not depend on) and for **`t`** itself;
//! * [`Graph::value`] is defined for **leaves** and for **`t`**;
//! * reading any other node **panics** with a message that says its buffers
//!   were recycled — never stale numbers or zeros;
//! * a value moved out by [`Graph::take_value`], before or after `backward`,
//!   panics the same way when read; a leaf's gradient is the exception and
//!   stays readable;
//! * a tape takes one `backward` between resets; read interior values (a
//!   prediction, a second loss) before calling it.
//!
//! # Arithmetic
//!
//! No kernel here reorders a sum. Each output element of every op, forward
//! and backward, is the floating-point expression of the plain nested loop:
//! the same terms in the same order, `*` and `+` separate. The products keep
//! their running sums in registers (`kernel.rs`) and walk transposed
//! copies instead of columns; `tests/autodiff_equivalence.rs` holds all of it
//! to the bits of the plain loops.

use crate::kernel::{accumulate_row, transpose};
use crate::sparse::SparseMatrix;
use crate::tensor::Tensor;

/// Handle to a node on the tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

/// The activation [`Graph::propagate`] applies to its output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Act {
    /// None: the layer's output is `Â·(H·W)` itself.
    Linear,
    /// `tanh`, in place on the product: the bits of [`Graph::tanh`] of it,
    /// without a second buffer.
    Tanh,
}

#[derive(Debug)]
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
    /// `1 − x`, the complement of a gate.
    OneMinus(Var),
    Matmul(Var, Var),
    /// Constant sparse matrix × dense var.
    Spmm(usize, Var),
    /// `act(Â·(H·W))`: one graph-convolution layer, the product `H·W` and
    /// the pre-activation not kept.
    Propagate(usize, Var, Var, Act),
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

/// Where a node's value buffer is, and where it goes at `reset`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Held {
    /// Drawn from the pool; returns to it.
    Pooled,
    /// Moved in by the caller of [`Graph::leaf`]; dropped, unless
    /// [`Graph::take_value`] hands it back first.
    Foreign,
    /// Gone: back in the pool once `backward` has passed this interior
    /// node, or moved out by [`Graph::take_value`].
    Recycled,
}

struct Node {
    /// `rows`/`cols` stay valid after the data has been recycled.
    value: Tensor,
    grad: Option<Tensor>,
    op: Op,
    held: Held,
    /// Some backward step reads this value: the node's own, or that of an
    /// op it feeds ([`Op::reads`]). Set as the tape is built.
    read_by_backward: bool,
}

impl Node {
    /// Elements in the value, recycled or not.
    fn size(&self) -> usize {
        self.value.rows * self.value.cols
    }
}

impl Op {
    /// The values this op's backward step reads: those of which inputs, and
    /// whether the node's own. Of every other node it touches, a step needs
    /// the shape only — which is what lets `backward` hand the values no
    /// step reads back to the pool before the sweep begins. (A step that
    /// reads a value this does not list panics on it: `value_of`.)
    fn reads(&self) -> ([Option<Var>; 2], bool) {
        match *self {
            Op::Mul(a, b) | Op::MulRow(a, b) | Op::Matmul(a, b) => ([Some(a), Some(b)], false),
            Op::Propagate(_, h, w, act) => ([Some(h), Some(w)], act == Act::Tanh),
            Op::Conv2d { input, filters, .. } => ([Some(input), Some(filters)], false),
            Op::Relu(a) | Op::Abs(a) | Op::SoftmaxCe(a, _) => ([Some(a), None], false),
            Op::Sigmoid(_) | Op::Tanh(_) => ([None, None], true),
            Op::Leaf
            | Op::Add(..)
            | Op::AddRow(..)
            | Op::Sub(..)
            | Op::Scale(..)
            | Op::OneMinus(_)
            | Op::Spmm(..)
            | Op::Gather(..)
            | Op::Sum(_)
            | Op::Mean(_)
            | Op::SumRows(_)
            | Op::Concat(..)
            | Op::Reshape(_) => ([None, None], false),
        }
    }
}

const RECYCLED: &str = "this node's value is gone, recycled by backward() or moved out \
    by take_value(): after backward() only leaves and the target can be read (read interior \
    values before it)";

/// A node's value, for the ops as well as for callers: nothing computes from
/// a buffer that has gone back to the pool.
fn value_of(nodes: &[Node], v: Var) -> &Tensor {
    let node = &nodes[v.0];
    assert!(node.held != Held::Recycled, "{RECYCLED}");
    &node.value
}

/// Free buffers by exact length. Shapes repeat from step to step, so after
/// the first step every request finds a buffer of its length waiting.
#[derive(Default)]
struct Pool {
    /// `(length, free buffers of that length)`, sorted by length.
    free: Vec<(usize, Vec<Vec<f32>>)>,
}

impl Pool {
    /// A buffer of `len` elements holding whatever its last user left: for
    /// outputs whose every element is written.
    fn take(&mut self, len: usize) -> Vec<f32> {
        let found = match self.free.binary_search_by_key(&len, |class| class.0) {
            Ok(at) => self.free[at].1.pop(),
            Err(_) => None,
        };
        found.unwrap_or_else(|| vec![0.0; len])
    }

    /// A buffer of `len` zeros: for accumulators.
    fn zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take(len);
        buf.fill(0.0);
        buf
    }

    fn copy_of(&mut self, src: &[f32]) -> Vec<f32> {
        let mut buf = self.take(src.len());
        buf.copy_from_slice(src);
        buf
    }

    fn give(&mut self, buf: Vec<f32>) {
        if buf.is_empty() {
            return;
        }
        match self.free.binary_search_by_key(&buf.len(), |class| class.0) {
            Ok(at) => self.free[at].1.push(buf),
            Err(at) => self.free.insert(at, (buf.len(), vec![buf])),
        }
    }
}

/// A sparse constant registered with [`Graph::add_sparse`].
struct Constant {
    matrix: SparseMatrix,
    /// Its transpose, unless that is the matrix itself, bit for bit.
    transposed: Option<SparseMatrix>,
}

impl Constant {
    /// What `spmm`'s backward pass multiplies by: `Âᵀ`.
    fn transposed(&self) -> &SparseMatrix {
        self.transposed.as_ref().unwrap_or(&self.matrix)
    }
}

/// The autodiff tape.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    sparse: Vec<Constant>,
    pool: Pool,
    /// `backward` has run since the last `reset`.
    swept: bool,
}

impl Graph {
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the tape for the next step. Sparse constants are kept, and so
    /// is every buffer the tape drew from its pool.
    pub fn reset(&mut self) {
        self.swept = false;
        for node in self.nodes.drain(..) {
            if let Some(grad) = node.grad {
                self.pool.give(grad.data);
            }
            if node.held == Held::Pooled {
                self.pool.give(node.value.data);
            }
        }
    }

    /// [`Graph::reset`], and the pool's buffers go back to the allocator: for
    /// a tape that will not be stepped again for a while. The next step
    /// warms the pool as the first did.
    pub fn release(&mut self) {
        self.reset();
        self.pool = Pool::default();
    }

    /// Registers a constant sparse matrix; returns its id for [`Graph::spmm`]
    /// and [`Graph::propagate`]. The transpose their backward steps multiply
    /// by is built here, and kept only if it differs from `matrix` in a bit:
    /// a symmetric matrix — a GCN's normalized adjacency — is stored once.
    pub fn add_sparse(&mut self, matrix: SparseMatrix) -> usize {
        let transposed = matrix.transposed();
        let transposed = (!transposed.same_bits(&matrix)).then_some(transposed);
        self.sparse.push(Constant { matrix, transposed });
        self.sparse.len() - 1
    }

    fn push(&mut self, rows: usize, cols: usize, data: Vec<f32>, op: Op) -> Var {
        let (inputs, own) = op.reads();
        for v in inputs.into_iter().flatten() {
            self.nodes[v.0].read_by_backward = true;
        }
        self.nodes.push(Node {
            value: Tensor::from_vec(rows, cols, data),
            grad: None,
            op,
            held: Held::Pooled,
            read_by_backward: own,
        });
        Var(self.nodes.len() - 1)
    }

    /// A leaf tensor (input or parameter snapshot) the caller gives away.
    /// Its buffer is dropped at the next `reset` unless [`Graph::take_value`]
    /// hands it back first — which is how a caller lends the tape a tensor
    /// it keeps, without a copy.
    pub fn leaf(&mut self, t: Tensor) -> Var {
        self.nodes.push(Node {
            value: t,
            grad: None,
            op: Op::Leaf,
            held: Held::Foreign,
            read_by_backward: false,
        });
        Var(self.nodes.len() - 1)
    }

    /// A leaf holding a copy of `t` in a pooled buffer.
    pub fn leaf_from(&mut self, t: &Tensor) -> Var {
        self.leaf_slice(t.rows, t.cols, &t.data)
    }

    /// A leaf holding a copy of row-major `data` in a pooled buffer.
    pub fn leaf_slice(&mut self, rows: usize, cols: usize, data: &[f32]) -> Var {
        let buf = self.pool.copy_of(data);
        self.push(rows, cols, buf, Op::Leaf)
    }

    /// The value of `v`. After [`Graph::backward`] only leaves and the
    /// target have one; any other node panics.
    pub fn value(&self, v: Var) -> &Tensor {
        value_of(&self.nodes, v)
    }

    /// Moves `v`'s value off the tape without a copy: a tensor lent through
    /// [`Graph::leaf`] goes back to its owner, a result leaves before
    /// [`Graph::release`]. A leaf's gradient stays readable; a later read of
    /// the value panics as a recycled one does, and `reset` frees nothing of
    /// it. A value `backward` still has to read must not be taken before it.
    pub fn take_value(&mut self, v: Var) -> Tensor {
        let node = &mut self.nodes[v.0];
        assert!(node.held != Held::Recycled, "{RECYCLED}");
        node.held = Held::Recycled;
        let data = std::mem::take(&mut node.value.data);
        Tensor::from_vec(node.value.rows, node.value.cols, data)
    }

    /// The node whose gradient is asked for: a leaf's outlives its value
    /// ([`Graph::take_value`]), any other node's goes with it.
    fn grad_node(&self, v: Var) -> &Node {
        let node = &self.nodes[v.0];
        let leaf = matches!(node.op, Op::Leaf);
        assert!(leaf || node.held != Held::Recycled, "{RECYCLED}");
        node
    }

    /// Gradient of the last `backward` target with respect to `v` (zeros if
    /// `v` is unreachable from the target, or before any `backward`).
    /// Defined for leaves and the target; any other node panics.
    pub fn grad(&self, v: Var) -> Tensor {
        let node = self.grad_node(v);
        match &node.grad {
            Some(g) => g.clone(),
            None => Tensor::zeros(node.value.rows, node.value.cols),
        }
    }

    /// [`Graph::grad`] without the copy. Needs a `backward` to have run.
    pub fn grad_ref(&self, v: Var) -> &Tensor {
        self.grad_node(v)
            .grad
            .as_ref()
            .expect("grad_ref: no backward() has run on this tape")
    }

    /// `f(a)` element by element.
    fn map(&mut self, a: Var, op: Op, f: impl Fn(f32) -> f32) -> Var {
        let ta = value_of(&self.nodes, a);
        let mut out = self.pool.take(ta.len());
        for (o, &x) in out.iter_mut().zip(&ta.data) {
            *o = f(x);
        }
        let (rows, cols) = (ta.rows, ta.cols);
        self.push(rows, cols, out, op)
    }

    /// `f(a, b)` element by element over two tensors of one shape.
    fn zip(&mut self, a: Var, b: Var, what: &str, op: Op, f: impl Fn(f32, f32) -> f32) -> Var {
        let (ta, tb) = (value_of(&self.nodes, a), value_of(&self.nodes, b));
        assert!(ta.same_shape(tb), "{what} shape mismatch");
        let mut out = self.pool.take(ta.len());
        for ((o, &x), &y) in out.iter_mut().zip(&ta.data).zip(&tb.data) {
            *o = f(x, y);
        }
        let (rows, cols) = (ta.rows, ta.cols);
        self.push(rows, cols, out, op)
    }

    /// `f(a[i,j], row[j])`: a row vector broadcast over the rows of `a`.
    fn zip_row(
        &mut self,
        a: Var,
        row: Var,
        what: &str,
        op: Op,
        f: impl Fn(f32, f32) -> f32,
    ) -> Var {
        let (ta, tr) = (value_of(&self.nodes, a), value_of(&self.nodes, row));
        assert_eq!(tr.rows, 1, "broadcast operand must be a row vector");
        assert_eq!(ta.cols, tr.cols, "{what} width mismatch");
        let (rows, cols) = (ta.rows, ta.cols);
        let mut out = self.pool.take(ta.len());
        for i in 0..rows {
            let orow = &mut out[i * cols..(i + 1) * cols];
            for ((o, &x), &b) in orow.iter_mut().zip(ta.row(i)).zip(&tr.data) {
                *o = f(x, b);
            }
        }
        self.push(rows, cols, out, op)
    }

    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.zip(a, b, "add", Op::Add(a, b), |x, y| x + y)
    }

    pub fn add_row(&mut self, a: Var, row: Var) -> Var {
        self.zip_row(a, row, "add_row", Op::AddRow(a, row), |x, b| x + b)
    }

    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.zip(a, b, "sub", Op::Sub(a, b), |x, y| x - y)
    }

    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.zip(a, b, "mul", Op::Mul(a, b), |x, y| x * y)
    }

    pub fn mul_row(&mut self, a: Var, row: Var) -> Var {
        self.zip_row(a, row, "mul_row", Op::MulRow(a, row), |x, b| x * b)
    }

    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        self.map(a, Op::Scale(a, s), |x| x * s)
    }

    /// `1 − a` element by element: the complement of a gate. One node, and
    /// the same bits forward and backward as `add(ones, scale(a, −1))`,
    /// since `1 + (−x) ≡ 1 − x` and `x · −1 ≡ −x` in IEEE arithmetic.
    pub fn one_minus(&mut self, a: Var) -> Var {
        self.map(a, Op::OneMinus(a), |x| 1.0 - x)
    }

    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (value_of(&self.nodes, a), value_of(&self.nodes, b));
        assert_eq!(ta.cols, tb.rows, "matmul shape mismatch");
        let (rows, inner, cols) = (ta.rows, ta.cols, tb.cols);
        let mut out = self.pool.zeroed(rows * cols);
        product(&ta.data, &tb.data, &mut out, rows, inner, cols);
        self.push(rows, cols, out, Op::Matmul(a, b))
    }

    pub fn spmm(&mut self, sparse_id: usize, b: Var) -> Var {
        let (m, tb) = (&self.sparse[sparse_id].matrix, value_of(&self.nodes, b));
        let (rows, cols) = (m.rows(), tb.cols);
        let mut out = self.pool.zeroed(rows * cols);
        m.matmul_into(&tb.data, cols, &mut out);
        self.push(rows, cols, out, Op::Spmm(sparse_id, b))
    }

    /// `act(Â·(H·W))` for the sparse constant `Â` registered as `sparse_id`:
    /// one graph-convolution layer as one node, with the bits of
    /// `spmm(sparse_id, matmul(h, w))` — then of `tanh` of it, for
    /// [`Act::Tanh`] — forward and backward. `H·W` lives in a pooled scratch
    /// buffer for the forward pass only (its one reader, `spmm`'s step,
    /// needs its shape and not its value), and `tanh` runs in place on the
    /// product (its step reads its own output, not its input). The backward
    /// step runs `tanh`'s step, then `spmm`'s and then `matmul`'s.
    pub fn propagate(&mut self, sparse_id: usize, h: Var, w: Var, act: Act) -> Var {
        let (th, tw) = (value_of(&self.nodes, h), value_of(&self.nodes, w));
        assert_eq!(th.cols, tw.rows, "propagate shape mismatch");
        let cols = tw.cols;
        let mut hw = self.pool.zeroed(th.rows * cols);
        product(&th.data, &tw.data, &mut hw, th.rows, th.cols, cols);
        let m = &self.sparse[sparse_id].matrix;
        let rows = m.rows();
        let mut out = self.pool.zeroed(rows * cols);
        m.matmul_into(&hw, cols, &mut out);
        self.pool.give(hw);
        if act == Act::Tanh {
            for o in out.iter_mut() {
                *o = o.tanh();
            }
        }
        self.push(rows, cols, out, Op::Propagate(sparse_id, h, w, act))
    }

    /// Row gather: output row `i` is input row `idx[i]`.
    pub fn gather(&mut self, a: Var, idx: Vec<u32>) -> Var {
        let ta = value_of(&self.nodes, a);
        let cols = ta.cols;
        let mut out = self.pool.take(idx.len() * cols);
        for (i, &r) in idx.iter().enumerate() {
            out[i * cols..(i + 1) * cols].copy_from_slice(ta.row(r as usize));
        }
        self.push(idx.len(), cols, out, Op::Gather(a, idx))
    }

    pub fn sigmoid(&mut self, a: Var) -> Var {
        self.map(a, Op::Sigmoid(a), |x| {
            if x >= 0.0 {
                1.0 / (1.0 + (-x).exp())
            } else {
                let e = x.exp();
                e / (1.0 + e)
            }
        })
    }

    pub fn tanh(&mut self, a: Var) -> Var {
        self.map(a, Op::Tanh(a), |x| x.tanh())
    }

    pub fn relu(&mut self, a: Var) -> Var {
        self.map(a, Op::Relu(a), |x| x.max(0.0))
    }

    pub fn abs(&mut self, a: Var) -> Var {
        self.map(a, Op::Abs(a), |x| x.abs())
    }

    fn push_scalar(&mut self, v: f32, op: Op) -> Var {
        let mut buf = self.pool.take(1);
        buf[0] = v;
        self.push(1, 1, buf, op)
    }

    pub fn sum(&mut self, a: Var) -> Var {
        let s: f32 = value_of(&self.nodes, a).data.iter().sum();
        self.push_scalar(s, Op::Sum(a))
    }

    pub fn mean(&mut self, a: Var) -> Var {
        let ta = value_of(&self.nodes, a);
        let s: f32 = ta.data.iter().sum::<f32>() / ta.len().max(1) as f32;
        self.push_scalar(s, Op::Mean(a))
    }

    pub fn sum_rows(&mut self, a: Var) -> Var {
        let ta = value_of(&self.nodes, a);
        let rows = ta.rows;
        let mut out = self.pool.take(rows);
        for (i, o) in out.iter_mut().enumerate() {
            *o = ta.row(i).iter().sum();
        }
        self.push(rows, 1, out, Op::SumRows(a))
    }

    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (value_of(&self.nodes, a), value_of(&self.nodes, b));
        assert_eq!(ta.rows, tb.rows, "concat row mismatch");
        let (rows, ca, cols) = (ta.rows, ta.cols, ta.cols + tb.cols);
        let mut out = self.pool.take(rows * cols);
        for i in 0..rows {
            let orow = &mut out[i * cols..(i + 1) * cols];
            orow[..ca].copy_from_slice(ta.row(i));
            orow[ca..].copy_from_slice(tb.row(i));
        }
        self.push(rows, cols, out, Op::Concat(a, b))
    }

    pub fn reshape(&mut self, a: Var, rows: usize, cols: usize) -> Var {
        let ta = value_of(&self.nodes, a);
        assert_eq!(ta.len(), rows * cols, "reshape size mismatch");
        let out = self.pool.copy_of(&ta.data);
        self.push(rows, cols, out, Op::Reshape(a))
    }

    /// Mean softmax cross-entropy of `logits` `[n,c]` against `targets[i] < c`.
    pub fn softmax_cross_entropy(&mut self, logits: Var, targets: Vec<u32>) -> Var {
        let tl = value_of(&self.nodes, logits);
        assert_eq!(tl.rows, targets.len(), "one target per row");
        let mut loss = 0.0f64;
        for (i, &t) in targets.iter().enumerate() {
            let row = tl.row(i);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse: f32 = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln() + max;
            loss += (lse - row[t as usize]) as f64;
        }
        let v = (loss / targets.len().max(1) as f64) as f32;
        self.push_scalar(v, Op::SoftmaxCe(logits, targets))
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
        let (ti, tf) = (value_of(&self.nodes, input), value_of(&self.nodes, filters));
        assert_eq!(ti.cols, h * w, "conv input shape");
        assert_eq!(tf.cols, kh * kw, "conv filter shape");
        let (oh, ow) = (h - kh + 1, w - kw + 1);
        let k = tf.rows;
        let (rows, cols) = (ti.rows, k * oh * ow);
        let mut out = self.pool.take(rows * cols);
        for n in 0..rows {
            let img = ti.row(n);
            let orow = &mut out[n * cols..(n + 1) * cols];
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
                        orow[f * oh * ow + oy * ow + ox] = acc;
                    }
                }
            }
        }
        self.push(
            rows,
            cols,
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

    /// Runs the reverse pass from scalar node `target`, recycling interior
    /// nodes as it passes them (see the module docs for what can be read
    /// afterwards). One `backward` per tape: `reset` before the next.
    pub fn backward(&mut self, target: Var) {
        assert_eq!(
            value_of(&self.nodes, target).len(),
            1,
            "backward target must be scalar"
        );
        assert!(
            !self.swept,
            "backward() has already run on this tape and recycled its interior: reset() and re-tape first"
        );
        self.swept = true;
        let Graph {
            nodes,
            sparse,
            pool,
            ..
        } = self;
        let recycle = |node: &mut Node, pool: &mut Pool| {
            pool.give(std::mem::take(&mut node.value.data));
            node.held = Held::Recycled;
        };
        // Interior values no step reads are dead already: they carry the
        // first gradients.
        for (id, node) in nodes.iter_mut().enumerate() {
            let interior = id != target.0 && !matches!(node.op, Op::Leaf);
            if interior && !node.read_by_backward {
                recycle(node, pool);
            }
        }
        let mut one = pool.take(1);
        one[0] = 1.0;
        nodes[target.0].grad = Some(Tensor::from_vec(1, 1, one));

        for id in (0..nodes.len()).rev() {
            // A node's inputs all have lower ids, its consumers higher ones.
            let (inputs, rest) = nodes.split_at_mut(id);
            let node = &mut rest[0];
            if matches!(node.op, Op::Leaf) {
                continue;
            }
            if let Some(grad) = node.grad.take() {
                if id == target.0 {
                    // The target keeps its gradient; its step consumes a copy.
                    node.grad = Some(Tensor::from_vec(1, 1, pool.copy_of(&grad.data)));
                }
                step(node, grad.data, inputs, sparse, pool);
            }
            if id != target.0 && node.held == Held::Pooled {
                // Every consumer's step has run, and now its own: nothing
                // reads this value again.
                recycle(node, pool);
            }
        }
        for node in nodes.iter_mut() {
            if matches!(node.op, Op::Leaf) && node.grad.is_none() {
                let (rows, cols) = (node.value.rows, node.value.cols);
                node.grad = Some(Tensor::from_vec(rows, cols, pool.zeroed(rows * cols)));
            }
        }
    }
}

/// Adds `g` to `node`'s gradient; a first contribution is copied in.
fn accum(node: &mut Node, pool: &mut Pool, g: &[f32]) {
    match &mut node.grad {
        Some(existing) => {
            for (e, &x) in existing.data.iter_mut().zip(g) {
                *e += x;
            }
        }
        None => {
            let (rows, cols) = (node.value.rows, node.value.cols);
            node.grad = Some(Tensor::from_vec(rows, cols, pool.copy_of(g)));
        }
    }
}

/// `accum` of a buffer its caller is done with: a first contribution moves
/// in, a later one is added and its buffer returns to the pool.
fn accum_owned(node: &mut Node, pool: &mut Pool, g: Vec<f32>) {
    if node.grad.is_some() {
        accum(node, pool, &g);
        pool.give(g);
    } else {
        let (rows, cols) = (node.value.rows, node.value.cols);
        node.grad = Some(Tensor::from_vec(rows, cols, g));
    }
}

/// The non-zero entries of `row` as kernel terms `(entry, index · stride)`:
/// the dense products' `if v == 0.0 { continue; }`.
fn nonzero_terms(row: &[f32], stride: usize) -> impl Iterator<Item = (f32, usize)> + Clone + '_ {
    row.iter()
        .enumerate()
        .filter(|&(_, &v)| v != 0.0)
        .map(move |(k, &v)| (v, k * stride))
}

/// `out += a · b` for row-major `a` (`rows × inner`) and `b` (`inner ×
/// cols`): output row `i` is the sum over `k`, ascending, of `a[i,k]` times
/// row `k` of `b`, zero entries of `a` skipped.
fn product(a: &[f32], b: &[f32], out: &mut [f32], rows: usize, inner: usize, cols: usize) {
    for i in 0..rows {
        let terms = nonzero_terms(&a[i * inner..(i + 1) * inner], cols);
        accumulate_row(&mut out[i * cols..(i + 1) * cols], b, terms);
    }
}

/// `out += aᵀ · g` for row-major `a` (`rows × inner`) and `g` (`rows ×
/// cols`): output row `k` is the sum over `i`, ascending, of `a[i,k]` times
/// row `i` of `g`, zero entries of `a` skipped. Rows are taken a block at a
/// time so that `a` and `g` are each streamed once: a block of both stays in
/// L1 while every output row takes its terms from it, and an output row's
/// sum continues from block to block in the same order.
fn product_at(a: &[f32], g: &[f32], out: &mut [f32], rows: usize, inner: usize, cols: usize) {
    const BLOCK: usize = 64;
    for i0 in (0..rows).step_by(BLOCK) {
        let i1 = (i0 + BLOCK).min(rows);
        for k in 0..inner {
            let terms = (i0..i1)
                .map(|i| (a[i * inner + k], i * cols))
                .filter(|&(av, _)| av != 0.0);
            accumulate_row(&mut out[k * cols..(k + 1) * cols], g, terms);
        }
    }
}

/// `matmul`'s step: `g`, the gradient of `A·B`, passed on to `a` and `b`.
fn matmul_step(a: Var, b: Var, g: Vec<f32>, inputs: &mut [Node], pool: &mut Pool) {
    let (ta, tb) = (value_of(inputs, a), value_of(inputs, b));
    let (rows, inner, cols) = (ta.rows, ta.cols, tb.cols);
    // dA = g · Bᵀ, with B transposed once so that the sum over B's columns
    // walks rows; an all-zero row of g (hinge gradients are zero outside the
    // gathered rows) has no terms at all.
    let mut bt = pool.take(tb.len());
    transpose(&tb.data, inner, cols, &mut bt);
    let mut ga = pool.zeroed(ta.len());
    product(&g, &bt, &mut ga, rows, cols, inner);
    pool.give(bt);
    // dB = Aᵀ · g
    let mut gb = pool.zeroed(tb.len());
    product_at(&ta.data, &g, &mut gb, rows, inner, cols);
    pool.give(g);
    accum_owned(&mut inputs[a.0], pool, ga);
    accum_owned(&mut inputs[b.0], pool, gb);
}

/// `spmm`'s input gradient `Âᵀ · g`, for `g` of width `cols`, as a row
/// gather over the transpose: each output row sums its terms by ascending
/// source row, the order in which the scatter over `Â`'s rows reaches it.
fn spmm_grad(transposed: &SparseMatrix, g: Vec<f32>, cols: usize, pool: &mut Pool) -> Vec<f32> {
    let mut gb = pool.zeroed(transposed.rows() * cols);
    transposed.matmul_into(&g, cols, &mut gb);
    pool.give(g);
    gb
}

/// `tanh`'s step, in place: `g ⊙ (1 − y²)` for `node`'s output `y`.
fn tanh_step(node: &Node, g: &mut [f32]) {
    assert!(node.held != Held::Recycled, "{RECYCLED}");
    for (gv, &yv) in g.iter_mut().zip(&node.value.data) {
        *gv *= 1.0 - yv * yv;
    }
}

/// One node's backward step: passes `g`, the node's complete gradient, on to
/// its inputs. `g` is the step's to consume — an op whose input gradient has
/// `g`'s shape computes it in place and moves the buffer on.
///
/// Contributions reach a node's gradient in a fixed order (steps by
/// descending id, an op's first operand before its second), because a sum
/// of three or more floats depends on it.
fn step(node: &Node, mut g: Vec<f32>, inputs: &mut [Node], sparse: &[Constant], pool: &mut Pool) {
    // The shape is always there; the data only if `Op::reads` said so.
    let value = &node.value;
    match node.op {
        Op::Leaf => unreachable!("leaves have no step"),
        Op::Add(a, b) => {
            accum(&mut inputs[a.0], pool, &g);
            accum_owned(&mut inputs[b.0], pool, g);
        }
        Op::AddRow(a, row) => {
            let cols = value.cols;
            let mut rg = pool.zeroed(cols);
            for i in 0..value.rows {
                for (o, &x) in rg.iter_mut().zip(&g[i * cols..(i + 1) * cols]) {
                    *o += x;
                }
            }
            accum_owned(&mut inputs[a.0], pool, g);
            accum_owned(&mut inputs[row.0], pool, rg);
        }
        Op::Sub(a, b) => {
            accum(&mut inputs[a.0], pool, &g);
            for x in g.iter_mut() {
                *x = -*x;
            }
            accum_owned(&mut inputs[b.0], pool, g);
        }
        Op::Mul(a, b) => {
            let mut ga = pool.take(g.len());
            let tb = value_of(inputs, b);
            for ((o, &x), &y) in ga.iter_mut().zip(&g).zip(&tb.data) {
                *o = x * y;
            }
            let ta = value_of(inputs, a);
            for (x, &y) in g.iter_mut().zip(&ta.data) {
                *x *= y;
            }
            accum_owned(&mut inputs[a.0], pool, ga);
            accum_owned(&mut inputs[b.0], pool, g);
        }
        Op::MulRow(a, row) => {
            let cols = value.cols;
            let mut gr = pool.zeroed(cols);
            let ta = value_of(inputs, a);
            for i in 0..value.rows {
                let span = i * cols..(i + 1) * cols;
                for ((o, &x), &y) in gr.iter_mut().zip(&g[span.clone()]).zip(&ta.data[span]) {
                    *o += x * y;
                }
            }
            let tr = value_of(inputs, row);
            for i in 0..value.rows {
                for (x, &y) in g[i * cols..(i + 1) * cols].iter_mut().zip(&tr.data) {
                    *x *= y;
                }
            }
            accum_owned(&mut inputs[a.0], pool, g);
            accum_owned(&mut inputs[row.0], pool, gr);
        }
        Op::Scale(a, s) => {
            for x in g.iter_mut() {
                *x *= s;
            }
            accum_owned(&mut inputs[a.0], pool, g);
        }
        Op::OneMinus(a) => {
            for x in g.iter_mut() {
                *x = -*x;
            }
            accum_owned(&mut inputs[a.0], pool, g);
        }
        Op::Matmul(a, b) => matmul_step(a, b, g, inputs, pool),
        Op::Spmm(s, b) => {
            let gb = spmm_grad(sparse[s].transposed(), g, value.cols, pool);
            accum_owned(&mut inputs[b.0], pool, gb);
        }
        Op::Propagate(s, h, w, act) => {
            if act == Act::Tanh {
                tanh_step(node, &mut g);
            }
            // The gradient of `H·W` is complete here — `Â` was its only
            // consumer — so it goes straight on to `matmul`'s step.
            let ghw = spmm_grad(sparse[s].transposed(), g, value.cols, pool);
            matmul_step(h, w, ghw, inputs, pool);
        }
        Op::Gather(a, ref idx) => {
            // Summed into zeros first and added whole: rows may repeat in
            // `idx`, and `(e + x₁) + x₂` is not `e + (x₁ + x₂)`; and the
            // `+ 0.0` a skipped row would miss turns a −0.0 into +0.0.
            let cols = value.cols;
            let mut ga = pool.zeroed(inputs[a.0].size());
            for (i, &r) in idx.iter().enumerate() {
                let r = r as usize;
                for (o, &x) in ga[r * cols..(r + 1) * cols]
                    .iter_mut()
                    .zip(&g[i * cols..(i + 1) * cols])
                {
                    *o += x;
                }
            }
            pool.give(g);
            accum_owned(&mut inputs[a.0], pool, ga);
        }
        Op::Sigmoid(a) => {
            assert!(node.held != Held::Recycled, "{RECYCLED}");
            for (gv, &yv) in g.iter_mut().zip(&value.data) {
                *gv = *gv * yv * (1.0 - yv);
            }
            accum_owned(&mut inputs[a.0], pool, g);
        }
        Op::Tanh(a) => {
            tanh_step(node, &mut g);
            accum_owned(&mut inputs[a.0], pool, g);
        }
        Op::Relu(a) => {
            let x = value_of(inputs, a);
            for (gv, &xv) in g.iter_mut().zip(&x.data) {
                *gv = if xv > 0.0 { *gv } else { 0.0 };
            }
            accum_owned(&mut inputs[a.0], pool, g);
        }
        Op::Abs(a) => {
            let x = value_of(inputs, a);
            for (gv, &xv) in g.iter_mut().zip(&x.data) {
                *gv *= xv.signum();
            }
            accum_owned(&mut inputs[a.0], pool, g);
        }
        Op::Sum(a) => {
            let mut ga = pool.take(inputs[a.0].size());
            ga.fill(g[0]);
            pool.give(g);
            accum_owned(&mut inputs[a.0], pool, ga);
        }
        Op::Mean(a) => {
            let len = inputs[a.0].size();
            let mut ga = pool.take(len);
            ga.fill(g[0] / len.max(1) as f32);
            pool.give(g);
            accum_owned(&mut inputs[a.0], pool, ga);
        }
        Op::SumRows(a) => {
            let cols = inputs[a.0].value.cols;
            let mut ga = pool.take(value.rows * cols);
            for (i, &gv) in g.iter().enumerate() {
                ga[i * cols..(i + 1) * cols].fill(gv);
            }
            pool.give(g);
            accum_owned(&mut inputs[a.0], pool, ga);
        }
        Op::Concat(a, b) => {
            let (rows, cols) = (value.rows, value.cols);
            let ca = inputs[a.0].value.cols;
            let cb = cols - ca;
            let mut ga = pool.take(rows * ca);
            let mut gb = pool.take(rows * cb);
            for i in 0..rows {
                let grow = &g[i * cols..(i + 1) * cols];
                ga[i * ca..(i + 1) * ca].copy_from_slice(&grow[..ca]);
                gb[i * cb..(i + 1) * cb].copy_from_slice(&grow[ca..]);
            }
            pool.give(g);
            accum_owned(&mut inputs[a.0], pool, ga);
            accum_owned(&mut inputs[b.0], pool, gb);
        }
        Op::Reshape(a) => accum_owned(&mut inputs[a.0], pool, g),
        Op::SoftmaxCe(logits, ref targets) => {
            let tl = value_of(inputs, logits);
            let cols = tl.cols;
            let scale = g[0] / targets.len().max(1) as f32;
            let mut gl = pool.take(tl.len());
            for (i, &t) in targets.iter().enumerate() {
                let row = tl.row(i);
                let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let grow = &mut gl[i * cols..(i + 1) * cols];
                for (e, &x) in grow.iter_mut().zip(row) {
                    *e = (x - max).exp();
                }
                let z: f32 = grow.iter().sum();
                for (j, e) in grow.iter_mut().enumerate() {
                    *e = scale * (*e / z - if j == t as usize { 1.0 } else { 0.0 });
                }
            }
            pool.give(g);
            accum_owned(&mut inputs[logits.0], pool, gl);
        }
        Op::Conv2d {
            input,
            filters,
            h,
            w,
            kh,
            kw,
        } => {
            let (ti, tf) = (value_of(inputs, input), value_of(inputs, filters));
            let (oh, ow) = (h - kh + 1, w - kw + 1);
            let k = tf.rows;
            let mut gi = pool.zeroed(ti.len());
            let mut gf = pool.zeroed(tf.len());
            for n in 0..ti.rows {
                let img = ti.row(n);
                let gout = &g[n * value.cols..(n + 1) * value.cols];
                let gi_row = &mut gi[n * ti.cols..(n + 1) * ti.cols];
                for f in 0..k {
                    let filt = tf.row(f);
                    let gf_row = &mut gf[f * tf.cols..(f + 1) * tf.cols];
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let gv = gout[f * oh * ow + oy * ow + ox];
                            if gv == 0.0 {
                                continue;
                            }
                            for fy in 0..kh {
                                for fx in 0..kw {
                                    gi_row[(oy + fy) * w + (ox + fx)] += gv * filt[fy * kw + fx];
                                    gf_row[fy * kw + fx] += gv * img[(oy + fy) * w + (ox + fx)];
                                }
                            }
                        }
                    }
                }
            }
            pool.give(g);
            accum_owned(&mut inputs[input.0], pool, gi);
            accum_owned(&mut inputs[filters.0], pool, gf);
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

    /// `x` feeds two ops, `y` and `z` are interior.
    fn fan_out_tape() -> (Graph, [Var; 4]) {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(1, 2, vec![3.0, -1.0]));
        let y = g.scale(x, 2.0);
        let z = g.add(y, x);
        let loss = g.sum(z);
        g.backward(loss);
        (g, [x, y, z, loss])
    }

    #[test]
    fn every_reached_node_keeps_its_gradient_after_backward() {
        // What `backward` promises to keep: a leaf's whole gradient, fan-out
        // included, and the target's value and gradient. (The name is from
        // when interior nodes kept theirs too; they are recycled now, and
        // the tests below hold that a read of one panics.)
        let (g, [x, _, _, loss]) = fan_out_tape();
        assert_eq!(g.grad(x).data, [3.0, 3.0]);
        assert_eq!(g.grad_ref(x).data, [3.0, 3.0]);
        assert_eq!(g.value(x).data, [3.0, -1.0]);
        assert_eq!(g.grad(loss).data, [1.0]);
        assert_eq!(g.value(loss).data, [6.0]);
    }

    #[test]
    #[should_panic(expected = "recycled")]
    fn interior_gradient_after_backward_panics() {
        let (g, [_, y, _, _]) = fan_out_tape();
        let _ = g.grad(y);
    }

    #[test]
    #[should_panic(expected = "recycled")]
    fn interior_value_after_backward_panics() {
        let (g, [_, _, z, _]) = fan_out_tape();
        let _ = g.value(z);
    }

    #[test]
    #[should_panic(expected = "already run")]
    fn second_backward_without_reset_panics() {
        let (mut g, [_, _, _, loss]) = fan_out_tape();
        g.backward(loss);
    }

    #[test]
    fn reset_tape_reuses_its_buffers() {
        // Same shapes, second step: every buffer comes from the pool, and a
        // zeroed one is really zero (the gather's accumulator held the
        // first step's gradient).
        let mut g = Graph::new();
        let mut grads = Vec::new();
        for _ in 0..2 {
            g.reset();
            let x = g.leaf_from(&Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
            let picked = g.gather(x, vec![2, 0, 2]);
            let sq = g.mul(picked, picked);
            let loss = g.sum(sq);
            g.backward(loss);
            grads.push(g.grad(x).data);
        }
        assert_eq!(grads[0], [2.0, 4.0, 0.0, 0.0, 20.0, 24.0]);
        assert_eq!(grads[0], grads[1]);
    }

    #[test]
    fn released_tape_keeps_its_constants_and_steps_again() {
        let mut g = Graph::new();
        let id = g.add_sparse(SparseMatrix::from_triplets(
            2,
            2,
            vec![(0, 1, 2.0), (1, 0, 3.0)],
        ));
        let run = |g: &mut Graph| {
            let x = g.leaf_from(&Tensor::from_vec(2, 1, vec![1.0, 10.0]));
            let y = g.spmm(id, x);
            let loss = g.sum(y);
            g.backward(loss);
            g.grad(x).data
        };
        let first = run(&mut g);
        assert_eq!(first, [3.0, 2.0]);
        g.release();
        assert_eq!(run(&mut g), first);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data.iter().map(|v| v.to_bits()).collect()
    }

    /// `propagate` against the `matmul` → `spmm` (→ `tanh`) chain it
    /// replaced, as bits: the layer's value, the loss and every leaf
    /// gradient. `Â` is 4 × 5 with an empty row, `x` has a zero row, only
    /// rows 0 and 2 of the layer are gathered (so its gradient has zero
    /// rows), and `x` also feeds a gate taped before the layer and another
    /// taped after it, so three contributions reach `x`'s gradient in an
    /// order that must not change.
    #[test]
    fn propagate_is_the_matmul_spmm_chain_bit_for_bit() {
        let adj = SparseMatrix::from_triplets(
            4,
            5,
            vec![
                (0, 1, 0.5),
                (0, 4, -1.25),
                (2, 0, 2.0),
                (2, 1, 0.75),
                (3, 3, 1.5),
            ],
        );
        let mut x0 = rand_tensor(5, 3, 30);
        x0.data[3..6].fill(0.0);
        let (w0, wg0) = (rand_tensor(3, 2, 31), rand_tensor(3, 3, 32));
        let run = |fused: bool, act: Act| {
            let mut g = Graph::new();
            let id = g.add_sparse(adj.clone());
            let x = g.leaf_from(&x0);
            let w = g.leaf_from(&w0);
            let wg = g.leaf_from(&wg0);
            let gate = |g: &mut Graph| {
                let gate_in = g.matmul(x, wg);
                let s = g.sigmoid(gate_in);
                let keep = g.mul(s, x);
                g.sum(keep)
            };
            let early = gate(&mut g);
            let layer = if fused {
                g.propagate(id, x, w, act)
            } else {
                let xw = g.matmul(x, w);
                let p = g.spmm(id, xw);
                match act {
                    Act::Linear => p,
                    Act::Tanh => g.tanh(p),
                }
            };
            let forward = bits(g.value(layer));
            let picked = g.gather(layer, vec![0, 2, 2]);
            let sq = g.mul(picked, picked);
            let mut loss = g.sum(sq);
            loss = g.add(loss, early);
            let late = gate(&mut g);
            loss = g.add(loss, late);
            g.backward(loss);
            let grads = [x, w, wg].map(|v| bits(g.grad_ref(v)));
            (forward, bits(g.value(loss)), grads)
        };
        for act in [Act::Linear, Act::Tanh] {
            let want = run(false, act);
            assert!(want.2[0].iter().any(|&b| b != 0), "x has a gradient");
            assert_eq!(run(true, act), want, "{act:?}");
        }
    }

    /// `spmm`'s input gradient for an upstream gradient `up`, read off a
    /// tape, against `Âᵀ·up` through a transpose built for the purpose.
    fn spmm_grad_against_matmul_t(adj: &SparseMatrix, up: &Tensor) -> (Graph, usize) {
        let mut g = Graph::new();
        let id = g.add_sparse(adj.clone());
        let x = g.leaf(rand_tensor(adj.cols(), up.cols, 50));
        let y = g.spmm(id, x);
        let r = g.leaf_from(up);
        let weighted = g.mul(y, r);
        let loss = g.sum(weighted);
        g.backward(loss);
        assert_eq!(bits(g.grad_ref(x)), bits(&adj.matmul_t(up)));
        (g, id)
    }

    #[test]
    fn a_symmetric_constant_is_stored_once() {
        let adj = SparseMatrix::gcn_normalized_weighted(
            5,
            &[
                (0, 1, 1.0),
                (1, 2, 0.5),
                (3, 1, 0.25),
                (4, 4, 1.0),
                (2, 0, 2.0),
            ],
        );
        let (g, id) = spmm_grad_against_matmul_t(&adj, &rand_tensor(5, 3, 51));
        assert!(g.sparse[id].transposed.is_none(), "Â is its own transpose");
    }

    #[test]
    fn an_asymmetric_constant_keeps_its_transpose() {
        let directed =
            SparseMatrix::from_triplets(3, 3, vec![(0, 1, 0.5), (1, 2, -1.0), (2, 0, 2.0)]);
        // Equal as numbers, not as bits: `+0.0` mirrored by `−0.0`.
        let signed_zeros = SparseMatrix::from_triplets(
            2,
            2,
            vec![(0, 0, 1.0), (0, 1, 0.0), (1, 0, -0.0), (1, 1, 1.0)],
        );
        for adj in [directed, signed_zeros] {
            let up = rand_tensor(adj.rows(), 2, 52);
            let (g, id) = spmm_grad_against_matmul_t(&adj, &up);
            let kept = g.sparse[id]
                .transposed
                .as_ref()
                .expect("the transpose is kept");
            assert!(kept.same_bits(&adj.transposed()));
        }
    }

    #[test]
    fn a_lent_leaf_comes_back_with_its_bits_and_its_gradient() {
        let x0 = rand_tensor(4, 3, 40);
        let w0 = rand_tensor(3, 2, 41);
        let run = |lend: bool| {
            let mut g = Graph::new();
            let x = if lend {
                g.leaf(x0.clone())
            } else {
                g.leaf_from(&x0)
            };
            let w = g.leaf_from(&w0);
            let y = g.matmul(x, w);
            let loss = g.sum(y);
            g.backward(loss);
            (g, x)
        };
        let (want, wx) = run(false);
        let (mut g, x) = run(true);
        let lent = g.value(x).data.as_ptr();
        let back = g.take_value(x);
        assert_eq!(back.data.as_ptr(), lent, "moved, not copied");
        assert_eq!((back.rows, back.cols), (4, 3));
        assert!(back
            .data
            .iter()
            .zip(&x0.data)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(g.grad_ref(x), want.grad_ref(wx));
        assert_eq!(g.grad(x), want.grad(wx));
        // `reset` pools the leaf's gradient (4 × 3) and nothing else of it:
        // the value it would have dropped is the caller's again.
        g.reset();
        let pooled = |len: usize| match g.pool.free.binary_search_by_key(&len, |c| c.0) {
            Ok(at) => g.pool.free[at].1.len(),
            Err(_) => 0,
        };
        assert_eq!(pooled(12), 1);
        assert_eq!(back.data, x0.data);
    }

    #[test]
    #[should_panic(expected = "moved out by take_value")]
    fn reading_a_moved_out_interior_value_panics() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(1, 2, vec![3.0, -1.0]));
        let y = g.scale(x, 2.0);
        assert_eq!(g.take_value(y).data, [6.0, -2.0]);
        let _ = g.value(y);
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
