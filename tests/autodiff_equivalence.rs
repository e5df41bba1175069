//! Bits, not tolerances: every op of the autodiff tape, forward and backward,
//! against the plain nested loops it replaced.
//!
//! The reference (`support/reference_tape.rs`) is the tape as it was —
//! a fresh tensor per node and per gradient, one scalar loop per op. The tape
//! under test draws its buffers from a pool, recycles them during `backward`
//! and multiplies through register-blocked kernels over transposed copies.
//! None of that may change a single bit: each property here runs one random
//! program on both and compares `to_bits()` of every forward value and of
//! every leaf gradient.
//!
//! What the generator goes out of its way to hit: shapes with 0 rows, 1×1,
//! inner dimension 1, widths on both sides of the kernel's 32- and 8-column
//! blocks, more rows than one `dB` row block; leaves with exact zeros, `−0.0`
//! and whole zero rows (the products skip zero factors, and a skipped
//! `+ 0.0` is only the same bits if nothing was `−0.0`); gathers with
//! repeated and with no indices; sparse matrices with empty rows, empty
//! columns and duplicate triplets; and one `Graph` reset and re-taped with
//! other shapes, then with the first shapes again, so that every buffer it
//! hands out has stale contents of exactly that length.
//!
//! The random programs also draw `propagate`, the tape's one fused op (a
//! graph layer: `Â·(H·W)`, optionally through `tanh`), which the reference
//! spells as the `matmul`, `spmm` and `tanh` nodes it stands for; half of
//! its square constants are symmetric, the kind `add_sparse` stores without
//! a second copy for the transpose.

#[path = "support/reference_tape.rs"]
mod reference;

use openea_autodiff::{Act, Tensor};
use openea_runtime::rng::{Rng, SeedableRng, SmallRng};
use openea_runtime::testkit::prelude::*;

/// One instruction of a tape program; operands index earlier instructions.
#[derive(Clone, Debug)]
enum Ins {
    Leaf(Tensor),
    Add(usize, usize),
    AddRow(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    MulRow(usize, usize),
    Scale(usize, f32),
    Matmul(usize, usize),
    /// Index into [`Program::sparse`], then the dense operand.
    Spmm(usize, usize),
    /// Index into [`Program::sparse`], then `H` and `W`.
    Propagate(usize, usize, usize, Act),
    Gather(usize, Vec<u32>),
    Sigmoid(usize),
    Tanh(usize),
    Relu(usize),
    Abs(usize),
    Sum(usize),
    Mean(usize),
    SumRows(usize),
    Concat(usize, usize),
    Reshape(usize, usize, usize),
    SoftmaxCe(usize, Vec<u32>),
    Conv2d {
        input: usize,
        filters: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
    },
}

/// A sparse constant as `from_triplets` takes it: rows, columns, triplets.
type SparseSpec = (usize, usize, Vec<(u32, u32, f32)>);

/// A straight-line program whose last instruction is the scalar `backward`
/// starts from.
#[derive(Clone, Debug, Default)]
struct Program {
    sparse: Vec<SparseSpec>,
    ins: Vec<Ins>,
}

/// What a tape made of a program, as bits.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// `(rows, cols, bits)` of every instruction's value.
    values: Vec<(usize, usize, Vec<u32>)>,
    /// Bits of every leaf's gradient, in program order.
    grads: Vec<Vec<u32>>,
}

fn bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|v| v.to_bits()).collect()
}

/// Runs `prog` on a tape — the same text for both tapes, since the rebuilt
/// one kept every method of the old. How a leaf goes in and how a gradient
/// is read are the caller's: the rebuilt tape has two ways of each.
macro_rules! interpreter {
    (
        $name:ident, $graph:ty, $sparse:ty,
        |$lg:ident, $lt:ident| $leaf:expr,
        |$gg:ident, $gv:ident| $grad:expr
    ) => {
        fn $name(g: &mut $graph, prog: &Program) -> Outcome {
            let sparse: Vec<usize> = prog
                .sparse
                .iter()
                .map(|(r, c, t)| g.add_sparse(<$sparse>::from_triplets(*r, *c, t.clone())))
                .collect();
            let mut vars = Vec::with_capacity(prog.ins.len());
            let mut values = Vec::with_capacity(prog.ins.len());
            for ins in &prog.ins {
                let v = match *ins {
                    Ins::Leaf(ref $lt) => {
                        let $lg = &mut *g;
                        $leaf
                    }
                    Ins::Add(a, b) => g.add(vars[a], vars[b]),
                    Ins::AddRow(a, b) => g.add_row(vars[a], vars[b]),
                    Ins::Sub(a, b) => g.sub(vars[a], vars[b]),
                    Ins::Mul(a, b) => g.mul(vars[a], vars[b]),
                    Ins::MulRow(a, b) => g.mul_row(vars[a], vars[b]),
                    Ins::Scale(a, s) => g.scale(vars[a], s),
                    Ins::Matmul(a, b) => g.matmul(vars[a], vars[b]),
                    Ins::Spmm(s, a) => g.spmm(sparse[s], vars[a]),
                    Ins::Propagate(s, h, w, act) => g.propagate(sparse[s], vars[h], vars[w], act),
                    Ins::Gather(a, ref idx) => g.gather(vars[a], idx.clone()),
                    Ins::Sigmoid(a) => g.sigmoid(vars[a]),
                    Ins::Tanh(a) => g.tanh(vars[a]),
                    Ins::Relu(a) => g.relu(vars[a]),
                    Ins::Abs(a) => g.abs(vars[a]),
                    Ins::Sum(a) => g.sum(vars[a]),
                    Ins::Mean(a) => g.mean(vars[a]),
                    Ins::SumRows(a) => g.sum_rows(vars[a]),
                    Ins::Concat(a, b) => g.concat_cols(vars[a], vars[b]),
                    Ins::Reshape(a, rows, cols) => g.reshape(vars[a], rows, cols),
                    Ins::SoftmaxCe(a, ref targets) => {
                        g.softmax_cross_entropy(vars[a], targets.clone())
                    }
                    Ins::Conv2d {
                        input,
                        filters,
                        h,
                        w,
                        kh,
                        kw,
                    } => g.conv2d(vars[input], vars[filters], h, w, kh, kw),
                };
                // Read now: after `backward` only leaves and the target
                // still have a value.
                let t = g.value(v);
                values.push((t.rows, t.cols, bits(&t.data)));
                vars.push(v);
            }
            g.backward(*vars.last().expect("a program has a target"));
            let grads = prog
                .ins
                .iter()
                .zip(&vars)
                .filter(|(ins, _)| matches!(ins, Ins::Leaf(_)))
                .map(|(_, &$gv)| {
                    let $gg = &*g;
                    $grad
                })
                .collect();
            Outcome { values, grads }
        }
    };
}

interpreter!(
    run_reference,
    reference::Graph,
    reference::SparseMatrix,
    |g, t| g.leaf(t.clone()),
    |g, v| bits(&g.grad(v).data)
);
interpreter!(
    run_tape,
    openea_autodiff::Graph,
    openea_autodiff::SparseMatrix,
    |g, t| g.leaf(t.clone()),
    |g, v| bits(&g.grad(v).data)
);

/// Fails with the first instruction or leaf on which the two tapes differ.
fn compare(prog: &Program, want: &Outcome, got: &Outcome) -> PropResult {
    for (i, (w, g)) in want.values.iter().zip(&got.values).enumerate() {
        prop_assert!(
            w == g,
            "value of instruction {i} ({:?}) differs:\n want {w:?}\n  got {g:?}",
            prog.ins[i]
        );
    }
    let leaves = prog
        .ins
        .iter()
        .enumerate()
        .filter(|(_, ins)| matches!(ins, Ins::Leaf(_)));
    for ((i, _), (w, g)) in leaves.zip(want.grads.iter().zip(&got.grads)) {
        prop_assert!(
            w == g,
            "gradient of leaf {i} differs:\n want {w:?}\n  got {g:?}"
        );
    }
    prop_assert_eq!(want.values.len(), got.values.len());
    prop_assert_eq!(want.grads.len(), got.grads.len());
    Ok(())
}

/// Overflow would make the comparison one of NaN payloads, which no
/// instruction order is held to; such a program is discarded.
fn all_finite(outcome: &Outcome) -> bool {
    let finite = |b: &Vec<u32>| b.iter().all(|&v| f32::from_bits(v).is_finite());
    outcome.values.iter().all(|(_, _, b)| finite(b)) && outcome.grads.iter().all(finite)
}

/// Runs `prog` on a fresh reference tape and on `tape`, and compares.
fn check_on(tape: &mut openea_autodiff::Graph, prog: &Program) -> PropResult {
    let want = run_reference(&mut reference::Graph::new(), prog);
    prop_assume!(all_finite(&want));
    let got = run_tape(tape, prog);
    compare(prog, &want, &got)
}

fn check(prog: &Program) -> PropResult {
    check_on(&mut openea_autodiff::Graph::new(), prog)
}

// ------------------------------------------------------------ generation

/// Row counts: none, one, a few, and more than one 64-row block of `dB`.
const ROWS: [usize; 10] = [0, 1, 1, 2, 3, 5, 9, 17, 70, 131];
/// Column counts on both sides of the kernel's 8- and 32-wide blocks.
const COLS: [usize; 10] = [1, 1, 2, 3, 8, 9, 16, 32, 33, 45];

struct Builder {
    rng: SmallRng,
    prog: Program,
    shapes: Vec<(usize, usize)>,
}

impl Builder {
    fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            prog: Program::default(),
            shapes: Vec::new(),
        }
    }

    fn of<T: Copy>(&mut self, choices: &[T]) -> T {
        choices[self.rng.gen_range(0..choices.len())]
    }

    fn push(&mut self, ins: Ins, rows: usize, cols: usize) -> usize {
        self.prog.ins.push(ins);
        self.shapes.push((rows, cols));
        self.shapes.len() - 1
    }

    /// A leaf with exact zeros, negative zeros and, sometimes, zero rows.
    fn leaf(&mut self, rows: usize, cols: usize) -> usize {
        let mut data: Vec<f32> = (0..rows * cols)
            .map(|_| match self.rng.gen_range(0..20) {
                0 | 1 => 0.0,
                2 => -0.0,
                _ => self.rng.gen_range(-1.5f32..1.5),
            })
            .collect();
        if rows > 1 && cols > 0 && self.rng.gen_bool(0.4) {
            for row in data.chunks_mut(cols) {
                if self.rng.gen_bool(0.4) {
                    row.fill(if self.rng.gen_bool(0.2) { -0.0 } else { 0.0 });
                }
            }
        }
        self.push(Ins::Leaf(Tensor::from_vec(rows, cols, data)), rows, cols)
    }

    /// An earlier instruction, the recent ones more often — but never the
    /// `n × 0` left operand that case 8 of `step` makes for a 0-row right
    /// one: every op takes at least one column from here on.
    fn pick(&mut self) -> usize {
        let n = self.shapes.len();
        loop {
            let at = if n > 4 && self.rng.gen_bool(0.6) {
                self.rng.gen_range(n - 4..n)
            } else {
                self.rng.gen_range(0..n)
            };
            if self.shapes[at].1 > 0 {
                return at;
            }
        }
    }

    /// An earlier instruction of this shape (fan-out, `mul(a, a)`) or a
    /// fresh leaf.
    fn with_shape(&mut self, rows: usize, cols: usize) -> usize {
        let same: Vec<usize> = (0..self.shapes.len())
            .filter(|&i| self.shapes[i] == (rows, cols))
            .collect();
        if !same.is_empty() && self.rng.gen_bool(0.6) {
            self.of(&same)
        } else {
            self.leaf(rows, cols)
        }
    }

    fn sparse(&mut self, rows: usize, cols: usize) -> usize {
        // Rows and columns the triplets never touch stay empty; a repeated
        // cell is a duplicate `from_triplets` sums.
        let mut triplets = Vec::new();
        if rows > 0 && cols > 0 {
            for _ in 0..self.rng.gen_range(0..3 * rows.max(cols)) {
                let r = self.rng.gen_range(0..rows) as u32;
                let c = self.rng.gen_range(0..cols) as u32;
                let v = if self.rng.gen_bool(0.1) {
                    0.0
                } else {
                    self.rng.gen_range(-1.0f32..1.0)
                };
                triplets.push((r, c, v));
                if self.rng.gen_bool(0.2) {
                    triplets.push((r, c, self.rng.gen_range(-1.0f32..1.0)));
                }
            }
        }
        self.prog.sparse.push((rows, cols, triplets));
        self.prog.sparse.len() - 1
    }

    /// A symmetric `n × n` constant: each cell of the upper triangle drawn
    /// at most once and mirrored, so the two halves hold the same bits.
    fn symmetric_sparse(&mut self, n: usize) -> usize {
        let mut triplets = Vec::new();
        for r in 0..n as u32 {
            for c in r..n as u32 {
                if self.rng.gen_bool(0.1) {
                    let v = match self.rng.gen_range(0..10) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => self.rng.gen_range(-1.0f32..1.0),
                    };
                    triplets.push((r, c, v));
                    if r != c {
                        triplets.push((c, r, v));
                    }
                }
            }
        }
        self.prog.sparse.push((n, n, triplets));
        self.prog.sparse.len() - 1
    }

    /// A square constant over `n` nodes, symmetric half of the time.
    fn adjacency(&mut self, n: usize) -> usize {
        if self.rng.gen_bool(0.5) {
            self.symmetric_sparse(n)
        } else {
            self.sparse(n, n)
        }
    }

    /// Appends one random op on earlier instructions.
    fn step(&mut self) {
        let a = self.pick();
        let (rows, cols) = self.shapes[a];
        match self.rng.gen_range(0..23) {
            0 => {
                let b = self.with_shape(rows, cols);
                self.push(Ins::Add(a, b), rows, cols);
            }
            1 => {
                let b = self.with_shape(rows, cols);
                self.push(Ins::Sub(a, b), rows, cols);
            }
            2 => {
                let b = self.with_shape(rows, cols);
                self.push(Ins::Mul(a, b), rows, cols);
            }
            3 => {
                let row = self.with_shape(1, cols);
                self.push(Ins::AddRow(a, row), rows, cols);
            }
            4 => {
                let row = self.with_shape(1, cols);
                self.push(Ins::MulRow(a, row), rows, cols);
            }
            5 => {
                let s = self.of(&[-1.0, 0.5, 2.0, 0.0, -0.0]);
                self.push(Ins::Scale(a, s), rows, cols);
            }
            6 | 7 => {
                let out = self.of(&COLS);
                let b = self.with_shape(cols, out);
                self.push(Ins::Matmul(a, b), rows, out);
            }
            8 => {
                // As the right operand: `a` is what dB is taken for.
                let left_rows = self.of(&ROWS);
                let left = self.with_shape(left_rows, rows);
                self.push(Ins::Matmul(left, a), left_rows, cols);
            }
            9 | 10 => {
                let out = self.of(&ROWS);
                let s = self.sparse(out, rows);
                self.push(Ins::Spmm(s, a), out, cols);
            }
            11 | 12 => {
                let len = if rows == 0 {
                    0
                } else {
                    self.of(&[0, 1, 3, 6, 12])
                };
                let idx: Vec<u32> = (0..len)
                    .map(|_| self.rng.gen_range(0..rows) as u32)
                    .collect();
                self.push(Ins::Gather(a, idx), len, cols);
            }
            13 => {
                self.push(Ins::Sigmoid(a), rows, cols);
            }
            14 => {
                self.push(Ins::Tanh(a), rows, cols);
            }
            15 => {
                self.push(Ins::Relu(a), rows, cols);
            }
            16 => {
                self.push(Ins::Abs(a), rows, cols);
            }
            17 => {
                self.push(Ins::SumRows(a), rows, 1);
            }
            18 => {
                let other = self.of(&COLS);
                let b = self.with_shape(rows, other);
                self.push(Ins::Concat(a, b), rows, cols + other);
            }
            19 => {
                let (r, c) = if rows == 0 {
                    (rows, cols)
                } else if self.rng.gen_bool(0.5) {
                    (cols, rows)
                } else {
                    (1, rows * cols)
                };
                self.push(Ins::Reshape(a, r, c), r, c);
            }
            20 | 21 => {
                // A graph layer over `a`: a square `Â` most of the time (a
                // GNN's), a rectangular one sometimes.
                let out = self.of(&COLS);
                let w = self.with_shape(cols, out);
                let (s, out_rows) = if self.rng.gen_bool(0.7) {
                    (self.adjacency(rows), rows)
                } else {
                    let out_rows = self.of(&ROWS);
                    (self.sparse(out_rows, rows), out_rows)
                };
                let act = self.of(&[Act::Linear, Act::Tanh]);
                self.push(Ins::Propagate(s, a, w, act), out_rows, out);
            }
            _ => {
                // An image of `h × w = cols`, filters no larger than it.
                let h = (1..=cols).filter(|h| cols % h == 0).nth(1).unwrap_or(1);
                let w = cols / h;
                let kh = self.rng.gen_range(1..=h.min(3));
                let kw = self.rng.gen_range(1..=w.min(3));
                let k = self.rng.gen_range(1..=3);
                let filters = self.with_shape(k, kh * kw);
                let out = k * (h - kh + 1) * (w - kw + 1);
                self.push(
                    Ins::Conv2d {
                        input: a,
                        filters,
                        h,
                        w,
                        kh,
                        kw,
                    },
                    rows,
                    out,
                );
            }
        }
    }

    /// `a` reduced to a scalar by one of the three reductions.
    fn scalar(&mut self, a: usize) -> usize {
        let (rows, cols) = self.shapes[a];
        match self.rng.gen_range(0..3) {
            0 => self.push(Ins::Sum(a), 1, 1),
            1 => self.push(Ins::Mean(a), 1, 1),
            _ => {
                let targets = (0..rows)
                    .map(|_| self.rng.gen_range(0..cols) as u32)
                    .collect();
                self.push(Ins::SoftmaxCe(a, targets), 1, 1)
            }
        }
    }

    /// Ends the program in a scalar that depends on its last instruction
    /// and on two others.
    fn finish(mut self) -> Program {
        let last = self.shapes.len() - 1;
        let mut total = self.scalar(last);
        for _ in 0..2 {
            let a = self.pick();
            let s = self.scalar(a);
            total = self.push(Ins::Add(total, s), 1, 1);
        }
        self.prog
    }
}

/// A random program of `steps` ops over a first leaf.
fn random_program(seed: u64, steps: usize) -> Program {
    let mut b = Builder::new(seed);
    let (rows, cols) = (b.of(&ROWS), b.of(&COLS));
    b.leaf(rows, cols);
    for _ in 0..steps {
        b.step();
    }
    b.finish()
}

/// The tape of one `GcnEncoder::step`: two propagation layers over a random
/// graph (symmetric or not; taped as the encoder tapes them, fused, or as
/// the nodes that stand for them), three gathers of the output (the
/// negatives repeat rows), Manhattan distances and a hinge — so the gradient
/// that reaches the layers is zero outside the gathered rows, and all of it
/// where no pair violates the margin.
fn gcn_program(seed: u64, nodes: usize, dim: usize, seeds: usize, margin: f32) -> Program {
    let mut b = Builder::new(seed);
    let x = b.leaf(nodes, dim);
    let w1 = b.leaf(dim, dim);
    let w2 = b.leaf(dim, dim);
    let adj = b.adjacency(nodes);
    let h = if b.rng.gen_bool(0.5) {
        let h1 = b.push(Ins::Propagate(adj, x, w1, Act::Tanh), nodes, dim);
        b.push(Ins::Propagate(adj, h1, w2, Act::Linear), nodes, dim)
    } else {
        let xw = b.push(Ins::Matmul(x, w1), nodes, dim);
        let prop = b.push(Ins::Spmm(adj, xw), nodes, dim);
        let h1 = b.push(Ins::Tanh(prop), nodes, dim);
        let hw = b.push(Ins::Matmul(h1, w2), nodes, dim);
        b.push(Ins::Spmm(adj, hw), nodes, dim)
    };
    let rows = |b: &mut Builder| -> Vec<u32> {
        (0..seeds)
            .map(|_| b.rng.gen_range(0..nodes) as u32)
            .collect()
    };
    let (i1, i2, neg) = (rows(&mut b), rows(&mut b), rows(&mut b));
    let g1 = b.push(Ins::Gather(h, i1), seeds, dim);
    let g2 = b.push(Ins::Gather(h, i2), seeds, dim);
    let gn = b.push(Ins::Gather(h, neg), seeds, dim);
    let distance = |b: &mut Builder, other: usize| {
        let d = b.push(Ins::Sub(g1, other), seeds, dim);
        let a = b.push(Ins::Abs(d), seeds, dim);
        b.push(Ins::SumRows(a), seeds, 1)
    };
    let (pd, nd) = (distance(&mut b, g2), distance(&mut b, gn));
    let diff = b.push(Ins::Sub(pd, nd), seeds, 1);
    let m = b.push(Ins::Leaf(Tensor::scalar(margin)), 1, 1);
    let arg = b.push(Ins::AddRow(diff, m), seeds, 1);
    let hinge = b.push(Ins::Relu(arg), seeds, 1);
    b.push(Ins::Mean(hinge), 1, 1);
    b.prog
}

props! {
    #![cases = 400]

    #[test]
    fn random_programs_match_the_plain_loops(seed in 0u64..u64::MAX, steps in 1usize..14) {
        check(&random_program(seed, steps))?;
    }
}

props! {
    #![cases = 120]

    #[test]
    fn a_gcn_step_matches_the_plain_loops(
        seed in 0u64..u64::MAX,
        nodes in 1usize..150,
        dim in 1usize..40,
        seeds in 1usize..24,
        margin in -2.0f32..3.0,
    ) {
        check(&gcn_program(seed, nodes, dim, seeds, margin))?;
    }

    /// One `Graph`, reset between programs of other shapes and then given
    /// the first program again: by then the pool holds a used buffer of
    /// every length that program asks for, and an accumulator that was not
    /// zeroed, or an output that was not fully written, would show.
    #[test]
    fn a_reset_tape_leaks_nothing_into_the_next_program(
        seed in 0u64..u64::MAX,
        steps in 1usize..12,
    ) {
        let first = random_program(seed, steps);
        let second = random_program(seed ^ 0x5DEE_CE66, steps + 2);
        let third = gcn_program(seed, 20, 8, 6, 1.0);
        let mut tape = openea_autodiff::Graph::new();
        for prog in [&first, &second, &third, &first, &third] {
            tape.reset();
            check_on(&mut tape, prog)?;
        }
    }
}

#[test]
fn sparse_products_match_the_plain_loops() {
    // The public `SparseMatrix` products, without a tape around them.
    let mut b = Builder::new(7);
    for (rows, cols, width) in [(0, 3, 2), (3, 0, 2), (1, 1, 1), (9, 17, 33), (70, 5, 45)] {
        let s = b.sparse(rows, cols);
        let (_, _, triplets) = b.prog.sparse[s].clone();
        let want = reference::SparseMatrix::from_triplets(rows, cols, triplets.clone());
        let got = openea_autodiff::SparseMatrix::from_triplets(rows, cols, triplets);
        let right = b.leaf(cols, width);
        let left = b.leaf(rows, width);
        let (Ins::Leaf(right), Ins::Leaf(left)) = (&b.prog.ins[right], &b.prog.ins[left]) else {
            unreachable!("leaf() appends a Leaf");
        };
        assert_eq!(
            bits(&got.matmul(right).data),
            bits(&want.matmul(right).data)
        );
        assert_eq!(
            bits(&got.matmul_t(left).data),
            bits(&want.matmul_t(left).data)
        );
    }
}

// ---------------------------------------------- new with the rebuilt tape
//
// Everything below holds what the rebuilt tape added (`one_minus`,
// `leaf_from`, `leaf_slice`, `grad_ref`) to what it stands for; the
// reference has none of it.

props! {
    #![cases = 100]

    /// `one_minus(g)` against the three nodes it replaced in the highway
    /// gates, `add(ones, scale(g, −1))`, inside a gate: `g⊙a + (1−g)⊙b`.
    #[test]
    fn one_minus_is_the_composition_it_replaced(
        seed in 0u64..u64::MAX,
        rows in 0usize..9,
        cols in 1usize..40,
    ) {
        let mut b = Builder::new(seed);
        let leaves = [b.leaf(rows, cols), b.leaf(rows, cols), b.leaf(rows, cols)];
        let tensors: Vec<Tensor> = leaves
            .iter()
            .map(|&l| match &b.prog.ins[l] {
                Ins::Leaf(t) => t.clone(),
                _ => unreachable!("leaf() appends a Leaf"),
            })
            .collect();
        let gated = |composed: bool| {
            let mut g = openea_autodiff::Graph::new();
            let vars: Vec<_> = tensors.iter().map(|t| g.leaf_from(t)).collect();
            let gate = g.sigmoid(vars[0]);
            let keep = g.mul(gate, vars[1]);
            let inv = if composed {
                let neg = g.scale(gate, -1.0);
                let ones = g.leaf(Tensor::from_vec(rows, cols, vec![1.0; rows * cols]));
                g.add(ones, neg)
            } else {
                g.one_minus(gate)
            };
            let inv_bits = bits(&g.value(inv).data);
            let far = g.mul(inv, vars[2]);
            let out = g.add(keep, far);
            let loss = g.sum(out);
            g.backward(loss);
            let grads: Vec<_> = vars.iter().map(|&v| bits(&g.grad_ref(v).data)).collect();
            (inv_bits, bits(&g.value(loss).data), grads)
        };
        prop_assert_eq!(gated(true), gated(false));
    }

    /// A pooled copy of a leaf is the leaf: `leaf_from` / `leaf_slice` /
    /// `grad_ref` against `leaf` / `grad`, on a tape that is reset and
    /// given the program again.
    #[test]
    fn pooled_leaves_and_borrowed_gradients_read_the_same(
        seed in 0u64..u64::MAX,
        steps in 1usize..8,
    ) {
        let prog = random_program(seed, steps);
        let want = run_tape(&mut openea_autodiff::Graph::new(), &prog);
        prop_assume!(all_finite(&want));
        let mut tape = openea_autodiff::Graph::new();
        for run in [run_tape_copied, run_tape_sliced, run_tape_copied] {
            tape.reset();
            compare(&prog, &want, &run(&mut tape, &prog))?;
        }
    }
}

interpreter!(
    run_tape_copied,
    openea_autodiff::Graph,
    openea_autodiff::SparseMatrix,
    |g, t| g.leaf_from(t),
    |g, v| bits(&g.grad_ref(v).data)
);
interpreter!(
    run_tape_sliced,
    openea_autodiff::Graph,
    openea_autodiff::SparseMatrix,
    |g, t| g.leaf_slice(t.rows, t.cols, &t.data),
    |g, v| bits(&g.grad_ref(v).data)
);
