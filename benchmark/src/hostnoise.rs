//! `--host-noise`: the four measurements of this host that the estimator and
//! the choice of end-to-end metrics rest on (README.md, "Why a fast-side
//! decile"). `noise.sh` runs them and pastes the output into `NOISE.md`.
//!
//! 1. a fixed single-thread compute kernel cut into equal slices: how far
//!    the total, the median slice and the lower-decile slice move from run
//!    to run;
//! 2. the same for memory-bound work, raw and divided by an interleaved
//!    reference kernel (what a host-calibration factor would do);
//! 3. HTTP throughput on a 3 000-target exact index: best-decile window
//!    against mean;
//! 4. one-request-at-a-time latency on cache hits and on misses.

use crate::estimator::{fast_decile, mean, median, percentile, Better};
use crate::layers::reference_slice;
use crate::pipeline::{random_snapshot, Harness, Tally};
use crate::traffic::Rng64;
use crate::workloads::TOP_K;
use openea_serve::IndexOptions;
use std::hint::black_box;
use std::time::Instant;

const SLICES: usize = 400;
const KERNEL_RUNS: usize = 12;
const HTTP_RUNS: usize = 6;
const HTTP_WINDOWS: usize = 20;
const HTTP_WINDOW_REQUESTS: usize = 2048;
const HTTP_TARGETS: usize = 3000;
const LATENCY_REQUESTS: usize = 2000;

/// Distance between the quartiles over the median, in percent.
fn iqr_pct(values: &[f64]) -> f64 {
    100.0 * (percentile(values, 75.0) - percentile(values, 25.0)) / median(values)
}

fn row(what: &str, unit: &str, values: &[f64]) {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(0.0, f64::max);
    println!(
        "| {what} | {lo:.3}–{hi:.3} {unit} | {:.1} % | {:.1} % |",
        100.0 * (hi - lo) / median(values),
        iqr_pct(values)
    );
}

fn timed_ms<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64() * 1e3
}

/// One slice of memory-bound work: a strided read of a buffer far larger
/// than the last-level cache.
fn memory_slice(buf: &[u64], start: usize) -> u64 {
    let mut acc = 0u64;
    let mut i = start % buf.len();
    for _ in 0..40_000 {
        acc = acc.wrapping_add(buf[i]);
        // 4 KiB + 64 B apart: a new page and a new cache line every read.
        i = (i + 520) % buf.len();
    }
    black_box(acc)
}

fn kernels() {
    println!("### 1. Compute kernel, {SLICES} equal slices per run, {KERNEL_RUNS} runs\n");
    println!("| quantity | min–max over runs | range / median | IQR / median |");
    println!("|---|---|---|---|");
    let (mut totals, mut medians, mut deciles) = (Vec::new(), Vec::new(), Vec::new());
    let buf: Vec<u64> = (0..(256 << 20) / 8).map(|i| i as u64).collect();
    let (mut mem_raw, mut mem_ratio, mut cpu_raw, mut cpu_ratio) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for run in 0..KERNEL_RUNS {
        let slices: Vec<f64> = (0..SLICES).map(|_| timed_ms(reference_slice)).collect();
        totals.push(slices.iter().sum());
        medians.push(median(&slices));
        deciles.push(fast_decile(&slices, Better::Lower));

        // Interleaved: reference, compute-bound test, reference, memory-bound
        // test, so that test and reference see the same host conditions.
        let (mut reference, mut compute, mut memory) = (Vec::new(), Vec::new(), Vec::new());
        for s in 0..SLICES / 2 {
            reference.push(timed_ms(reference_slice));
            compute.push(timed_ms(reference_slice));
            reference.push(timed_ms(reference_slice));
            memory.push(timed_ms(|| memory_slice(&buf, run * 7919 + s * 104_729)));
        }
        let ref_total: f64 = reference.iter().sum::<f64>() / 2.0;
        cpu_raw.push(fast_decile(&compute, Better::Lower));
        cpu_ratio.push(compute.iter().sum::<f64>() / ref_total);
        mem_raw.push(fast_decile(&memory, Better::Lower));
        mem_ratio.push(memory.iter().sum::<f64>() / ref_total);
    }
    row("total of a run", "ms", &totals);
    row("median slice", "ms", &medians);
    row("lower-decile slice", "ms", &deciles);

    println!("\n### 2. Dividing by an interleaved reference kernel\n");
    println!("| quantity | min–max over runs | range / median | IQR / median |");
    println!("|---|---|---|---|");
    row("compute-bound, raw lower decile", "ms", &cpu_raw);
    row("compute-bound, total / reference total", "", &cpu_ratio);
    row("memory-bound, raw lower decile", "ms", &mem_raw);
    row("memory-bound, total / reference total", "", &mem_ratio);
}

fn http(nproc: usize) {
    let opts = IndexOptions {
        threads: 1,
        ..IndexOptions::default()
    };
    // Both servers below hold the same rows, and so the same generation.
    let snapshot = || random_snapshot(&mut Rng64::new(1, 0x405), HTTP_TARGETS, 32);
    let mut harness = Harness::serve(opts.build(snapshot()), opts, nproc);
    let generation = harness.hot.current().index().generation();
    let mut tally = Tally::default();
    let mut rng = Rng64::new(1, 0x406);

    println!(
        "\n### 3. HTTP, {HTTP_TARGETS}-target exact index, {} connections × bursts of 32, \
         {HTTP_RUNS} runs of {HTTP_WINDOWS} windows × {HTTP_WINDOW_REQUESTS} requests\n",
        harness.conns.len()
    );
    println!("| quantity | min–max over runs | range / median | IQR / median |");
    println!("|---|---|---|---|");
    let (mut best, mut means) = (Vec::new(), Vec::new());
    for _ in 0..HTTP_RUNS {
        let qps: Vec<f64> = (0..HTTP_WINDOWS)
            .map(|_| {
                let entities: Vec<u32> = (0..HTTP_WINDOW_REQUESTS)
                    .map(|_| rng.below(HTTP_TARGETS as u32))
                    .collect();
                let t = Instant::now();
                harness.drive(&entities, generation, &mut tally, |_, _| ());
                HTTP_WINDOW_REQUESTS as f64 / t.elapsed().as_secs_f64()
            })
            .collect();
        best.push(fast_decile(&qps, Better::Higher) / 1e3);
        means.push(mean(&qps) / 1e3);
    }
    row("best-decile window throughput", "k/s", &best);
    row("mean window throughput", "k/s", &means);

    println!(
        "\n### 4. One request at a time, {LATENCY_REQUESTS} requests per run, {HTTP_RUNS} runs\n"
    );
    println!("| quantity | min–max over runs | range / median | IQR / median |");
    println!("|---|---|---|---|");
    // Hits: the index above has answered every entity by now (its cache holds
    // 4 096 of 3 000). Misses: a default-configuration index whose cache is
    // off, so that every request takes the batcher's path.
    let miss_opts = IndexOptions {
        cache_cap: 0,
        ..opts
    };
    let mut cold = Harness::serve(miss_opts.build(snapshot()), miss_opts, nproc);
    let (mut hit50, mut hit99, mut miss50, mut miss99) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..HTTP_RUNS {
        for (h, p50, p99) in [
            (&mut harness, &mut hit50, &mut hit99),
            (&mut cold, &mut miss50, &mut miss99),
        ] {
            let us: Vec<f64> = (0..LATENCY_REQUESTS)
                .map(|_| {
                    let e = [rng.below(HTTP_TARGETS as u32)];
                    let t = Instant::now();
                    h.drive(&e, generation, &mut tally, |_, _| ());
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            p50.push(median(&us));
            p99.push(percentile(&us, 99.0));
        }
    }
    row("cache hits, p50", "µs", &hit50);
    row("cache hits, p99", "µs", &hit99);
    row("misses, p50", "µs", &miss50);
    row("misses, p99", "µs", &miss99);
    println!(
        "\n{} requests attempted, {} failed (k = {TOP_K}).",
        tally.attempted, tally.failed
    );
    harness.stop();
    cold.stop();
}

pub fn report() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("## Host measurements (`--host-noise`), nproc = {nproc}\n");
    kernels();
    http(nproc);
}
