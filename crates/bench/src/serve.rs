//! `openea-bench serve` — self-validating load generator for the serving
//! layer, the first benchmark on the training → artifact → serving path.
//!
//! Every run walks the full production pipeline before timing anything:
//! train a registry approach with the engine's checkpoint hook installed,
//! load the emitted snapshot back from disk, and prove on a fixed seed that
//! batched/cached answers through [`BatchIndex`] are **bit-identical** to
//! the dense `compute_naive` + stable-argsort reference under the shared
//! tie rule (descending score, lowest index wins) — across kernel thread
//! counts and cache passes. Divergence exits non-zero.
//!
//! The load phase then measures two regimes:
//!
//! 1. **Closed-loop replay** — keep-alive clients at counts {1, 2, 8}
//!    issue-and-wait over uniform and Zipf traces, reporting QPS,
//!    client-observed latency percentiles, cache hit rate and batch
//!    occupancy (the historical table, now over the epoll reactor).
//! 2. **Latency under load** — an *open-loop* generator multiplexes
//!    hundreds-to-thousands of keep-alive connections on its own
//!    [`Poller`](openea_runtime::os::Poller) and sends on a fixed
//!    schedule regardless of completions (no coordinated omission:
//!    latency is charged from the scheduled send time). The same offered
//!    rate is driven at each connection count, far past the compute
//!    worker count; the reactor holding a flat p50 is the committed curve.
//!
//! `--smoke` runs the equivalence gate, one tiny closed-loop config with
//! a latency sanity bound, and a concurrency gate (32 connections over
//! 8 compute workers must all be answered, none dropped). Smoke writes
//! no JSON.

use crate::HarnessConfig;
use openea::align::DEFAULT_TILE;
use openea::math::kernel;
use openea::prelude::*;
use openea_runtime::json::{object, Json, ToJson};
use openea_runtime::os::{Interest, PollEvent, Poller};
use openea_runtime::rng::{Rng, SeedableRng, SmallRng};
use openea_runtime::testkit::replay::Zipf;
use openea_runtime::timer::{MicrosHistogram, Monotonic};
use openea_serve::{serve, AlignmentIndex, BatchIndex, ServerOptions, Snapshot, SnapshotWriter};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// k served during the load phase (Hits@10-shaped answers).
const LOAD_K: usize = 10;
/// Zipf exponent of the skewed trace (web-like popularity skew).
const ZIPF_S: f64 = 1.1;

/// Trains MTransE on a power-law synth pair with the snapshot writer
/// installed on the driver engine, then loads the emitted artifact back —
/// the exact pipeline `openea-serve` consumes. Shared with the `swap`
/// bench, whose flip variants perturb this base artifact.
pub(crate) fn build_snapshot(cfg: &HarnessConfig, smoke: bool) -> Snapshot {
    let (entities, epochs) = if smoke { (150, 6) } else { (600, 30) };
    let pair = PresetConfig::new(DatasetFamily::DY, entities, false, cfg.seed).generate();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let folds = k_fold_splits(&pair.alignment, 3, &mut rng);
    let rc = RunConfig {
        dim: 16,
        max_epochs: epochs,
        threads: cfg.threads,
        seed: cfg.seed,
        ..RunConfig::default()
    };
    let dir = std::env::temp_dir().join(format!("openea-bench-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create snapshot dir");
    let writer = SnapshotWriter::new(&dir, Vec::new(), Vec::new());
    let approach = approach_by_name("MTransE").expect("registry approach");
    let ctx = RunContext::new(&rc)
        .for_valid(&folds[0].valid)
        .with_artifacts(&writer);
    let out = approach.run_with(&pair, &folds[0], &rc, &ctx);
    if let Some(e) = writer.take_error() {
        eprintln!("FAILED — snapshot write error: {e}");
        std::process::exit(1);
    }
    let snap = match Snapshot::read_from(&writer.final_path("MTransE")) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("FAILED — cannot load emitted snapshot: {e}");
            std::process::exit(1);
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    if snap.to_output().content_hash() != out.content_hash() {
        eprintln!("FAILED — snapshot roundtrip changed the embeddings");
        std::process::exit(1);
    }
    println!(
        "artifact: {} checkpoint snapshot(s) + final ({} x {} entities, dim {}, metric {})",
        writer.checkpoints_written(),
        snap.num_queries(),
        snap.num_targets(),
        snap.dim,
        snap.metric.label(),
    );
    snap
}

/// Dense reference: `compute_naive` row + stable argsort, truncated to `k`.
fn dense_answers(snap: &Snapshot, ks: &[usize]) -> Vec<Vec<Vec<(u32, f32)>>> {
    let sim = SimilarityMatrix::compute_naive(&snap.emb1, &snap.emb2, snap.dim, snap.metric, 1);
    (0..snap.num_queries())
        .map(|e| {
            let row = sim.row(e);
            let mut idx: Vec<u32> = (0..row.len() as u32).collect();
            idx.sort_by(|&a, &b| {
                row[b as usize]
                    .partial_cmp(&row[a as usize])
                    .expect("finite")
                    .then(a.cmp(&b))
            });
            ks.iter()
                .map(|&k| {
                    idx.iter()
                        .take(k.min(row.len()))
                        .map(|&j| (j, row[j as usize]))
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Proves batched/cached serving bit-identical to the dense reference.
/// Returns the number of (threads, pass) configurations checked.
fn check_equivalence(snap: &Snapshot, smoke: bool) -> Result<usize, String> {
    let ks = [1usize, 5, LOAD_K];
    let expected = dense_answers(snap, &ks);
    let n1 = snap.num_queries();
    let thread_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 8] };
    let mut checked = 0usize;
    for &threads in thread_counts {
        let index = Arc::new(BatchIndex::new(
            AlignmentIndex::new(snap.clone()),
            threads,
            n1 * ks.len(), // holds every (entity, k): pass 2 must hit
        ));
        // Two passes: the second mostly answers from the LRU cache, so
        // cached answers are held to the same bit-identity bar.
        for pass in 0..2usize {
            let failure = std::thread::scope(|s| {
                let handles: Vec<_> = (0..4usize)
                    .map(|c| {
                        let index = Arc::clone(&index);
                        let expected = &expected;
                        s.spawn(move || {
                            for e in (c..n1).step_by(4) {
                                for (ki, &k) in ks.iter().enumerate() {
                                    let got = index
                                        .query(e as u32, k)
                                        .map_err(|err| format!("query ({e},{k}): {err}"))?;
                                    let want = &expected[e][ki];
                                    let same = got.len() == want.len()
                                        && got.iter().zip(want).all(|(&(i, s), &(j, t))| {
                                            i == j && s.to_bits() == t.to_bits()
                                        });
                                    if !same {
                                        return Err(format!(
                                            "threads {threads} pass {pass}: \
                                             query ({e},{k}) got {got:?}, want {want:?}"
                                        ));
                                    }
                                }
                            }
                            Ok(())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .filter_map(|h| h.join().expect("no panic").err())
                    .next()
            });
            if let Some(msg) = failure {
                return Err(msg);
            }
            checked += 1;
        }
        let stats = index.stats();
        if stats.cache_hits == 0 {
            return Err(format!(
                "threads {threads}: second pass produced no cache hits"
            ));
        }
    }
    Ok(checked)
}

/// One keep-alive GET; returns true when the response status was 200. The
/// body is drained (by Content-Length) but not parsed — the equivalence
/// gate owns correctness, the load phase measures time.
fn http_get(
    conn: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    path: &str,
) -> std::io::Result<bool> {
    conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())?;
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let ok = status_line.split_whitespace().nth(1) == Some("200");
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let line = line.trim();
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().unwrap_or(0);
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(ok)
}

/// Result of one (trace, clients) load configuration.
struct LoadEntry {
    trace: &'static str,
    clients: usize,
    queries: usize,
    qps: f64,
    p50_us: u64,
    p99_us: u64,
    mean_us: f64,
    cache_hit_rate: f64,
    mean_batch_occupancy: f64,
}

impl ToJson for LoadEntry {
    fn to_json(&self) -> Json {
        object([
            // Constant: keeps entries comparable with the recorded
            // `BENCH_serve.json`, whose rows carry a mode.
            ("mode", "reactor".to_json()),
            ("trace", self.trace.to_json()),
            ("clients", self.clients.to_json()),
            ("queries", self.queries.to_json()),
            ("qps", self.qps.to_json()),
            ("latency_p50_us", (self.p50_us as i64).to_json()),
            ("latency_p99_us", (self.p99_us as i64).to_json()),
            ("latency_mean_us", self.mean_us.to_json()),
            ("cache_hit_rate", self.cache_hit_rate.to_json()),
            ("mean_batch_occupancy", self.mean_batch_occupancy.to_json()),
        ])
    }
}

/// Replays `total_queries` of `trace` against a fresh in-process server with
/// `clients` concurrent keep-alive connections.
fn run_load(
    snap: &Snapshot,
    trace: &'static str,
    clients: usize,
    total_queries: usize,
    seed: u64,
) -> LoadEntry {
    let n1 = snap.num_queries();
    let index = Arc::new(BatchIndex::new(AlignmentIndex::new(snap.clone()), 2, 4096));
    let mut handle = serve(
        Arc::clone(&index),
        "127.0.0.1:0".parse().unwrap(),
        ServerOptions {
            workers: clients.max(2),
            queue_cap: 64,
            ..Default::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = handle.addr();
    let per_client = total_queries / clients;
    let zipf = Zipf::new(n1, ZIPF_S);
    let clock = Monotonic::start();

    let histogram = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let zipf = &zipf;
                s.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(seed ^ (c as u64) << 32);
                    let mut conn = TcpStream::connect(addr).expect("connect");
                    conn.set_nodelay(true).expect("nodelay");
                    let mut reader = BufReader::new(conn.try_clone().expect("clone stream"));
                    let mut hist = MicrosHistogram::new();
                    let local = Monotonic::start();
                    for _ in 0..per_client {
                        let entity = match trace {
                            "uniform" => rng.gen_range(0..n1 as u64) as usize,
                            _ => zipf.sample(&mut rng),
                        };
                        let t0 = local.micros();
                        let ok = http_get(
                            &mut conn,
                            &mut reader,
                            &format!("/align?entity={entity}&k={LOAD_K}"),
                        )
                        .expect("request");
                        assert!(ok, "load queries must answer 200");
                        hist.record(local.micros().saturating_sub(t0));
                    }
                    hist
                })
            })
            .collect();
        let mut merged = MicrosHistogram::new();
        for h in handles {
            merged.merge(&h.join().expect("client thread"));
        }
        merged
    });
    let wall_s = clock.seconds();
    handle.stop();

    let stats = index.stats();
    LoadEntry {
        trace,
        clients,
        queries: per_client * clients,
        qps: (per_client * clients) as f64 / wall_s,
        p50_us: histogram.percentile_us(50.0),
        p99_us: histogram.percentile_us(99.0),
        mean_us: histogram.mean_us(),
        cache_hit_rate: stats.hit_rate(),
        mean_batch_occupancy: stats.mean_batch_occupancy(),
    }
}

// ---------------------------------------------------------------------------
// Open-loop latency-under-load curve.

/// Result of one open-loop configuration.
struct CurveEntry {
    conns: usize,
    offered_qps: f64,
    achieved_qps: f64,
    completed: usize,
    shed_503: usize,
    errors: usize,
    unanswered: usize,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    mean_us: f64,
}

impl ToJson for CurveEntry {
    fn to_json(&self) -> Json {
        object([
            ("mode", "reactor".to_json()),
            ("conns", self.conns.to_json()),
            ("offered_qps", self.offered_qps.to_json()),
            ("achieved_qps", self.achieved_qps.to_json()),
            ("completed", self.completed.to_json()),
            ("shed_503", self.shed_503.to_json()),
            ("errors", self.errors.to_json()),
            ("unanswered", self.unanswered.to_json()),
            ("latency_p50_us", (self.p50_us as i64).to_json()),
            ("latency_p95_us", (self.p95_us as i64).to_json()),
            ("latency_p99_us", (self.p99_us as i64).to_json()),
            ("latency_mean_us", self.mean_us.to_json()),
        ])
    }
}

/// One multiplexed load-generator connection.
struct GenConn {
    stream: TcpStream,
    /// Poller registration token (slot index; connections never move).
    token: u64,
    /// Unparsed response bytes.
    inbuf: Vec<u8>,
    /// Request bytes the kernel has not yet accepted.
    out: Vec<u8>,
    written: usize,
    /// Scheduled send stamps (µs) of requests written, FIFO — responses
    /// come back in order on a keep-alive connection.
    sent_at: VecDeque<u64>,
    next_due_us: u64,
    dead: bool,
    reg_write: bool,
}

/// Drives `conns` keep-alive connections at an aggregate `offered_qps`
/// for `duration`, **open-loop**: sends follow the schedule whether or
/// not earlier responses arrived, and each latency is charged from the
/// *scheduled* send time, so server-side queueing and stalls appear in
/// the percentiles instead of silently throttling the generator
/// (coordinated omission). The generator itself multiplexes on a
/// [`Poller`], so thousands of connections cost one thread.
fn run_open_loop(
    snap: &Snapshot,
    conns: usize,
    offered_qps: f64,
    duration: Duration,
    seed: u64,
) -> CurveEntry {
    let n1 = snap.num_queries();
    let index = Arc::new(BatchIndex::new(AlignmentIndex::new(snap.clone()), 2, 4096));
    let mut handle = serve(
        Arc::clone(&index),
        "127.0.0.1:0".parse().unwrap(),
        ServerOptions {
            workers: 8,
            queue_cap: 64,
            ..Default::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = handle.addr();

    let zipf = Zipf::new(n1, ZIPF_S);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6f70_656e_6c6f_6f70);
    let clock = Monotonic::start();
    let interval_us = (conns as f64 / offered_qps * 1e6).max(1.0) as u64;

    let mut poller = Poller::new().expect("poller");
    let mut gens: Vec<GenConn> = (0..conns)
        .map(|i| {
            let stream = TcpStream::connect(addr).expect("connect");
            stream.set_nonblocking(true).expect("nonblocking");
            let _ = stream.set_nodelay(true);
            poller
                .register(&stream, i as u64, Interest::READ)
                .expect("register");
            GenConn {
                stream,
                token: i as u64,
                inbuf: Vec::new(),
                out: Vec::new(),
                written: 0,
                sent_at: VecDeque::new(),
                next_due_us: 0,
                dead: false,
                reg_write: false,
            }
        })
        .collect();
    // Schedules start only after every connection is up, staggered so the
    // aggregate rate is smooth — stamping during the (sequential) connect
    // phase would open the run with a catch-up burst on early connections.
    let t_start = clock.micros();
    for (i, gen) in gens.iter_mut().enumerate() {
        gen.next_due_us = t_start + (i as u64 * interval_us) / conns.max(1) as u64;
    }

    let end_us = t_start + duration.as_micros() as u64;
    let grace_us = end_us + 1_000_000;
    let mut hist = MicrosHistogram::new();
    let mut completed = 0usize;
    let mut shed_503 = 0usize;
    let mut errors = 0usize;
    let mut unanswered = 0usize;
    let mut events: Vec<PollEvent> = Vec::new();

    loop {
        let now = clock.micros();
        let sending = now < end_us;
        // Fire every due send (open loop: no waiting on completions).
        let mut next_wake = if sending { end_us } else { grace_us };
        for gen in gens.iter_mut() {
            if gen.dead {
                continue;
            }
            if sending {
                while gen.next_due_us <= now {
                    let entity = zipf.sample(&mut rng);
                    gen.out.extend_from_slice(
                        format!(
                            "GET /align?entity={entity}&k={LOAD_K} HTTP/1.1\r\nHost: b\r\n\r\n"
                        )
                        .as_bytes(),
                    );
                    gen.sent_at.push_back(gen.next_due_us);
                    gen.next_due_us += interval_us;
                }
                next_wake = next_wake.min(gen.next_due_us);
            }
            if flush_gen(gen) {
                unanswered += gen.sent_at.len();
                kill_gen(&poller, gen, &mut errors);
            } else {
                arm_write(&poller, gen);
            }
        }
        let outstanding: usize = gens.iter().map(|g| g.sent_at.len()).sum();
        if !sending && (outstanding == 0 || now >= grace_us) {
            unanswered += outstanding;
            break;
        }
        let timeout = Duration::from_micros(next_wake.saturating_sub(now).clamp(200, 50_000));
        let _ = poller.wait(&mut events, Some(timeout));
        for ev in &events {
            let gen = &mut gens[ev.token as usize];
            if gen.dead {
                continue;
            }
            if ev.readable {
                let now = clock.micros();
                match read_gen(gen, now, &mut hist, &mut completed, &mut shed_503) {
                    Ok(true) => {}
                    Ok(false) | Err(_) => {
                        // EOF (server closed, e.g. a shed-at-accept 503
                        // already counted) or socket error: requests still
                        // outstanding on this connection die with it.
                        unanswered += gen.sent_at.len();
                        kill_gen(&poller, gen, &mut errors);
                        continue;
                    }
                }
            }
            if ev.writable && flush_gen(gen) {
                unanswered += gen.sent_at.len();
                kill_gen(&poller, gen, &mut errors);
            } else {
                arm_write(&poller, gen);
            }
        }
    }
    let wall_s = (clock.micros().min(grace_us) as f64) / 1e6;
    drop(gens);
    handle.stop();

    CurveEntry {
        conns,
        offered_qps,
        achieved_qps: completed as f64 / wall_s.max(duration.as_secs_f64()),
        completed,
        shed_503,
        errors,
        unanswered,
        p50_us: hist.percentile_us(50.0),
        p95_us: hist.percentile_us(95.0),
        p99_us: hist.percentile_us(99.0),
        mean_us: hist.mean_us(),
    }
}

/// Nonblocking write pump; true on a broken socket.
fn flush_gen(gen: &mut GenConn) -> bool {
    while gen.written < gen.out.len() {
        match gen.stream.write(&gen.out[gen.written..]) {
            Ok(0) => return true,
            Ok(n) => gen.written += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
    gen.out.clear();
    gen.written = 0;
    false
}

/// Keeps write interest armed exactly while bytes are pending.
fn arm_write(poller: &Poller, gen: &mut GenConn) {
    let want = gen.written < gen.out.len();
    if want != gen.reg_write && !gen.dead {
        let interest = if want {
            Interest::READ_WRITE
        } else {
            Interest::READ
        };
        if poller.modify(&gen.stream, gen.token, interest).is_ok() {
            gen.reg_write = want;
        }
    }
}

/// Reads everything available and consumes complete responses.
/// `Ok(false)` = clean EOF; `Err` = socket error.
fn read_gen(
    gen: &mut GenConn,
    now: u64,
    hist: &mut MicrosHistogram,
    completed: &mut usize,
    shed_503: &mut usize,
) -> std::io::Result<bool> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match gen.stream.read(&mut chunk) {
            Ok(0) => {
                consume_responses(gen, now, hist, completed, shed_503);
                return Ok(false);
            }
            Ok(n) => gen.inbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    consume_responses(gen, now, hist, completed, shed_503);
    Ok(true)
}

/// Pops every complete `head + Content-Length body` response from the
/// connection's input buffer and accounts it.
fn consume_responses(
    gen: &mut GenConn,
    now: u64,
    hist: &mut MicrosHistogram,
    completed: &mut usize,
    shed_503: &mut usize,
) {
    loop {
        let Some(head_end) = find_double_crlf(&gen.inbuf) else {
            return;
        };
        let head = &gen.inbuf[..head_end];
        let status = parse_status(head);
        let body_len = parse_content_length(head);
        let total = head_end + 4 + body_len;
        if gen.inbuf.len() < total {
            return;
        }
        gen.inbuf.drain(..total);
        let t0 = gen.sent_at.pop_front().unwrap_or(now);
        match status {
            200 => {
                hist.record(now.saturating_sub(t0));
                *completed += 1;
            }
            503 => *shed_503 += 1,
            _ => {
                // Load traffic is all-valid; anything else is a bug the
                // equivalence gate would have caught — still count it so
                // the curve cannot silently hide it.
                *shed_503 += 1;
            }
        }
    }
}

fn find_double_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_status(head: &[u8]) -> u16 {
    let line = head.split(|&b| b == b'\r').next().unwrap_or(&[]);
    std::str::from_utf8(line)
        .ok()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn parse_content_length(head: &[u8]) -> usize {
    for line in head.split(|&b| b == b'\n') {
        let line = std::str::from_utf8(line).unwrap_or("").trim();
        if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                return v.trim().parse().unwrap_or(0);
            }
        }
    }
    0
}

fn kill_gen(poller: &Poller, gen: &mut GenConn, errors: &mut usize) {
    if !gen.dead {
        let _ = poller.deregister(&gen.stream);
        gen.dead = true;
        gen.sent_at.clear();
        *errors += 1;
    }
}

pub fn serve_bench(cfg: &HarnessConfig, smoke: bool) {
    let snap = build_snapshot(cfg, smoke);

    print!("equivalence gate (seed {}): ", cfg.seed);
    match check_equivalence(&snap, smoke) {
        Ok(n) => println!("{n} thread/pass configurations bit-identical to dense"),
        Err(msg) => {
            eprintln!("FAILED — served answers diverge from the dense path: {msg}");
            std::process::exit(1);
        }
    }

    let client_counts: &[usize] = if smoke { &[2] } else { &[1, 2, 8] };
    let traces: &[&'static str] = if smoke {
        &["uniform"]
    } else {
        &["uniform", "zipf"]
    };
    let total_queries = if smoke { 600 } else { 4000 };

    let mut entries: Vec<LoadEntry> = Vec::new();
    println!("load replay (reactor): k={LOAD_K}, {total_queries} queries per configuration");
    println!(
        "{:>8} {:>8} {:>8} {:>10} {:>9} {:>9} {:>10} {:>10}",
        "trace", "clients", "queries", "qps", "p50_us", "p99_us", "hit_rate", "occupancy"
    );
    for &trace in traces {
        for &clients in client_counts {
            let e = run_load(&snap, trace, clients, total_queries, cfg.seed);
            println!(
                "{:>8} {:>8} {:>8} {:>10.0} {:>9} {:>9} {:>10.3} {:>10.2}",
                e.trace,
                e.clients,
                e.queries,
                e.qps,
                e.p50_us,
                e.p99_us,
                e.cache_hit_rate,
                e.mean_batch_occupancy
            );
            entries.push(e);
        }
    }

    // Open-loop latency-under-load curve. The smoke variant doubles as the
    // CI concurrency gate: one point at a conn count well past the compute
    // worker pool.
    let (curve_conns, offered, dur): (&[usize], f64, Duration) = if smoke {
        (&[32], 1500.0, Duration::from_secs(1))
    } else {
        (&[8, 64, 256, 1024], 3000.0, Duration::from_secs(3))
    };
    println!(
        "latency under load: open-loop, offered {offered:.0} qps aggregate, {} s per point",
        dur.as_secs()
    );
    println!(
        "{:>6} {:>9} {:>9} {:>8} {:>8} {:>8} {:>9} {:>11}",
        "conns", "offered", "achieved", "p50_us", "p95_us", "p99_us", "shed_503", "unanswered"
    );
    let mut curve: Vec<CurveEntry> = Vec::new();
    for &conns in curve_conns {
        let e = run_open_loop(&snap, conns, offered, dur, cfg.seed);
        println!(
            "{:>6} {:>9.0} {:>9.0} {:>8} {:>8} {:>8} {:>9} {:>11}",
            e.conns,
            e.offered_qps,
            e.achieved_qps,
            e.p50_us,
            e.p95_us,
            e.p99_us,
            e.shed_503,
            e.unanswered
        );
        curve.push(e);
    }

    if smoke {
        // Latency sanity bound: a local in-process round trip answering from
        // a warm index must come in far under this even on a loaded CI box.
        let p99 = entries.iter().map(|e| e.p99_us).max().unwrap_or(0);
        if p99 > 500_000 {
            eprintln!("FAILED — smoke p99 latency {p99} µs exceeds the 500 ms sanity bound");
            std::process::exit(1);
        }
        // Concurrency gate: with conns well past the worker pool, the
        // reactor must answer, and answer cleanly.
        let point = curve.first().expect("one smoke point");
        if point.errors > 0 || point.completed == 0 {
            eprintln!(
                "FAILED — reactor dropped {} connection(s) and completed {} request(s) \
                 under the smoke load",
                point.errors, point.completed
            );
            std::process::exit(1);
        }
        println!(
            "[serve smoke OK] reactor {:.0} qps at {} conns, 0 dropped",
            point.achieved_qps, point.conns
        );
        return;
    }

    let doc = object([
        ("experiment", "serve".to_json()),
        ("kernel_backend", kernel::active_backend().label().to_json()),
        ("tile", DEFAULT_TILE.to_json()),
        ("panel_rows", kernel::PANEL_ROWS.to_json()),
        ("seed", (cfg.seed as i64).to_json()),
        (
            "threads_available",
            std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1)
                .to_json(),
        ),
        (
            "snapshot",
            object([
                ("label", snap.trace.label.to_json()),
                ("queries", snap.num_queries().to_json()),
                ("targets", snap.num_targets().to_json()),
                ("dim", snap.dim.to_json()),
                ("metric", snap.metric.label().to_json()),
            ]),
        ),
        (
            "equivalence",
            "batched+cached answers bit-identical to dense compute_naive argsort".to_json(),
        ),
        ("zipf_s", ZIPF_S.to_json()),
        ("k", LOAD_K.to_json()),
        ("entries", entries.to_json()),
        (
            "latency_under_load",
            object([
                ("offered_qps", offered.to_json()),
                ("duration_s", dur.as_secs_f64().to_json()),
                ("server_workers", 8usize.to_json()),
                ("entries", curve.to_json()),
            ]),
        ),
    ]);
    cfg.write_json("BENCH_serve", &doc);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_entry_serializes() {
        let e = LoadEntry {
            trace: "uniform",
            clients: 2,
            queries: 100,
            qps: 5000.0,
            p50_us: 90,
            p99_us: 400,
            mean_us: 120.0,
            cache_hit_rate: 0.5,
            mean_batch_occupancy: 3.5,
        };
        let j = e.to_json();
        assert_eq!(j.get("mode").and_then(Json::as_str), Some("reactor"));
        assert_eq!(j.get("trace").and_then(Json::as_str), Some("uniform"));
        assert_eq!(j.get("qps").and_then(Json::as_f64), Some(5000.0));
        assert_eq!(j.get("latency_p99_us").and_then(Json::as_f64), Some(400.0));
    }

    #[test]
    fn curve_entry_serializes() {
        let e = CurveEntry {
            conns: 1024,
            offered_qps: 3000.0,
            achieved_qps: 212.0,
            completed: 636,
            shed_503: 40,
            errors: 40,
            unanswered: 8200,
            p50_us: 950_000,
            p95_us: 2_900_000,
            p99_us: 2_990_000,
            mean_us: 1.1e6,
        };
        let j = e.to_json();
        assert_eq!(j.get("mode").and_then(Json::as_str), Some("reactor"));
        assert_eq!(j.get("conns").and_then(Json::as_f64), Some(1024.0));
        assert_eq!(j.get("unanswered").and_then(Json::as_f64), Some(8200.0));
        assert_eq!(
            j.get("latency_p95_us").and_then(Json::as_f64),
            Some(2_900_000.0)
        );
    }

    #[test]
    fn response_parser_pops_pipelined_responses_in_order() {
        let mut gen = GenConn {
            stream: TcpStream::connect(
                std::net::TcpListener::bind("127.0.0.1:0")
                    .unwrap()
                    .local_addr()
                    .unwrap(),
            )
            .unwrap(),
            token: 0,
            inbuf: Vec::new(),
            out: Vec::new(),
            written: 0,
            sent_at: VecDeque::from([100, 200, 300]),
            next_due_us: 0,
            dead: false,
            reg_write: false,
        };
        gen.inbuf.extend_from_slice(
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok\
              HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 4\r\n\r\nshed",
        );
        // Third response arrives torn: head only, body later.
        gen.inbuf
            .extend_from_slice(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n");
        let mut hist = MicrosHistogram::new();
        let (mut completed, mut shed) = (0usize, 0usize);
        consume_responses(&mut gen, 1_000, &mut hist, &mut completed, &mut shed);
        assert_eq!((completed, shed), (1, 1));
        assert_eq!(gen.sent_at.len(), 1, "torn response keeps its stamp");
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.max_us(), 900); // charged from the scheduled stamp
        gen.inbuf.extend_from_slice(b"ok");
        consume_responses(&mut gen, 2_000, &mut hist, &mut completed, &mut shed);
        assert_eq!((completed, shed), (2, 1));
        assert!(gen.sent_at.is_empty());
    }

    #[test]
    fn equivalence_gate_passes_on_a_tiny_snapshot() {
        let mut rng = SmallRng::seed_from_u64(11);
        let snap = Snapshot {
            dim: 4,
            metric: Metric::Cosine,
            emb1: (0..20 * 4).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            emb2: (0..15 * 4).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            names1: Vec::new(),
            names2: Vec::new(),
            trace: Default::default(),
            lineage: None,
        };
        assert!(check_equivalence(&snap, true).unwrap() >= 4);
    }
}
