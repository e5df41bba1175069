//! `openea-bench swap` — zero-downtime hot-swap benchmark and CI gate.
//!
//! The run trains one real artifact through the full pipeline (shared
//! with the `serve` bench), derives a chain of perturbed flip variants
//! (each a distinct generation by content digest), and serves the base
//! over HTTP via [`HotSwapIndex`]. Two phases are measured with the same
//! Zipf replay driver the torture tests use:
//!
//! 1. **steady** — keep-alive clients replay queries with no flips: the
//!    baseline latency distribution.
//! 2. **under-swap** — the same replay while a flip driver walks the
//!    variant chain through `/admin/reload?path=…` (≥ 3 flips).
//!
//! Every answer is checked against a locally built reference index for
//! the generation it claims, so the phase comparison doubles as the
//! correctness gate: across all flips there must be **zero dropped, zero
//! stale-generation and zero bit-divergent answers**, the flip count must
//! reach the target, and `/stats` must agree on the reload count and the
//! final generation. Any violation exits non-zero — this is what
//! `scripts/ci.sh` runs with `--smoke`.
//!
//! The full run writes `results/BENCH_swap.json` with the steady vs
//! under-swap latency split and the writer-side flip pause per flip
//! (expected far below 1 ms: the flip is one atomic pointer swap plus a
//! bounded grace-period wait; readers never pause at all).

use crate::serve::build_snapshot;
use crate::HarnessConfig;
use openea::align::DEFAULT_TILE;
use openea::math::kernel;
use openea_runtime::json::{object, parse, Json, ToJson};
use openea_runtime::rng::{Rng, SeedableRng, SmallRng};
use openea_runtime::testkit::replay::{replay, ReplayOptions, ReplayOutcome, ReplayReport};
use openea_runtime::timer::{MicrosHistogram, Monotonic};
use openea_serve::{serve_hot, BatchIndex, HotSwapIndex, IndexOptions, ServerOptions, Snapshot};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// k served throughout (Hits@10-shaped answers).
const LOAD_K: usize = 10;
/// Zipf exponent of the replayed trace.
const ZIPF_S: f64 = 1.1;

/// A flip variant: deterministic per-round perturbation of the base
/// embeddings. Same shape and metric, different content — therefore a
/// different generation digest, which is what the no-aliasing and
/// monotonicity checks need.
fn perturbed(base: &Snapshot, round: u64) -> Snapshot {
    let mut snap = base.clone();
    let mut rng = SmallRng::seed_from_u64(0x51AB_0000 ^ round);
    for v in snap.emb1.iter_mut().chain(snap.emb2.iter_mut()) {
        *v += rng.gen_range(-0.05f32..0.05);
    }
    snap.trace.label = format!("{} / swap variant {round}", base.trace.label);
    snap
}

/// One keep-alive GET returning `(status, parsed body)`.
pub(crate) fn http_get_json(
    conn: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    path: &str,
) -> Result<(u16, Json), String> {
    conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| format!("status: {e}"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        if reader
            .read_line(&mut line)
            .map_err(|e| format!("header: {e}"))?
            == 0
        {
            return Err("eof in headers".into());
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
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("body: {e}"))?;
    let text = String::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    let json = parse(&text).map_err(|e| format!("json: {e}"))?;
    Ok((status, json))
}

/// Parses the `"0x…"` generation hex string the server reports.
pub(crate) fn parse_generation(j: &Json) -> Option<u64> {
    let s = j.get("generation").and_then(Json::as_str)?;
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

/// Per-generation reference: its publish order (for the monotonicity
/// check) and a locally built index answering with the exact bits the
/// server must reproduce.
pub(crate) struct References {
    by_generation: HashMap<u64, (usize, Arc<BatchIndex>)>,
}

impl References {
    pub(crate) fn new(snaps: &[Snapshot], opts: &IndexOptions) -> Self {
        let by_generation = snaps
            .iter()
            .enumerate()
            .map(|(i, s)| (s.generation(), (i, opts.build(s.clone()))))
            .collect();
        Self { by_generation }
    }
}

/// The issuer closure one replay client runs: owns a keep-alive
/// connection and the last observed publish index, classifies each
/// answer per the hot-swap contract.
pub(crate) fn client_issuer(
    addr: SocketAddr,
    refs: &References,
) -> impl FnMut(usize) -> ReplayOutcome + '_ {
    let mut conn = TcpStream::connect(addr).expect("connect replay client");
    conn.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(conn.try_clone().expect("clone stream"));
    let mut last_publish = 0usize;
    move |entity| {
        let (status, body) = match http_get_json(
            &mut conn,
            &mut reader,
            &format!("/align?entity={entity}&k={LOAD_K}"),
        ) {
            Ok(pair) => pair,
            Err(e) => return ReplayOutcome::Dropped(e),
        };
        if status != 200 {
            return ReplayOutcome::Dropped(format!("status {status}"));
        }
        let Some(generation) = parse_generation(&body) else {
            return ReplayOutcome::Dropped("answer without a generation".into());
        };
        let Some(&(publish, ref reference)) = refs.by_generation.get(&generation) else {
            return ReplayOutcome::Stale(format!("unknown generation {generation:#018x}"));
        };
        if publish < last_publish {
            return ReplayOutcome::Stale(format!(
                "generation moved backwards: publish {publish} after {last_publish}"
            ));
        }
        last_publish = publish;
        let want = reference
            .query(entity as u32, LOAD_K)
            .expect("reference query");
        let got: Vec<(u32, f32)> = match body.get("results").and_then(Json::as_array) {
            Some(rows) => rows
                .iter()
                .filter_map(|r| {
                    let target = r.get("target").and_then(Json::as_f64)? as u32;
                    let score = r.get("score").and_then(Json::as_f64)? as f32;
                    Some((target, score))
                })
                .collect(),
            None => return ReplayOutcome::Dropped("answer without results".into()),
        };
        let same = got.len() == want.len()
            && got
                .iter()
                .zip(&want)
                .all(|(&(i, s), &(j, t))| i == j && s.to_bits() == t.to_bits());
        if same {
            ReplayOutcome::Ok
        } else {
            ReplayOutcome::Incorrect(format!(
                "entity {entity} gen {generation:#018x}: got {got:?}, want {want:?}"
            ))
        }
    }
}

/// Merged counters + latency of one phase (possibly several replay
/// rounds).
#[derive(Default)]
pub(crate) struct PhaseTotals {
    pub(crate) queries: usize,
    pub(crate) dropped: usize,
    pub(crate) stale: usize,
    pub(crate) incorrect: usize,
    pub(crate) latency: MicrosHistogram,
    pub(crate) failures: Vec<String>,
    pub(crate) wall_s: f64,
}

impl PhaseTotals {
    pub(crate) fn absorb(&mut self, r: &ReplayReport) {
        self.queries += r.total;
        self.dropped += r.dropped;
        self.stale += r.stale;
        self.incorrect += r.incorrect;
        self.latency.merge(&r.latency);
        for f in &r.failures {
            if self.failures.len() < 8 {
                self.failures.push(f.clone());
            }
        }
    }

    pub(crate) fn clean(&self) -> bool {
        self.dropped == 0 && self.stale == 0 && self.incorrect == 0
    }

    pub(crate) fn qps(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.queries as f64 / self.wall_s
        } else {
            0.0
        }
    }

    pub(crate) fn row(&self, phase: &str) -> String {
        format!(
            "{:>12} {:>8} {:>10.0} {:>9} {:>9} {:>8} {:>6} {:>10}",
            phase,
            self.queries,
            self.qps(),
            self.latency.percentile_us(50.0),
            self.latency.percentile_us(99.0),
            self.dropped,
            self.stale,
            self.incorrect
        )
    }

    pub(crate) fn to_json(&self, phase: &str) -> Json {
        object([
            ("phase", phase.to_json()),
            ("queries", self.queries.to_json()),
            ("qps", self.qps().to_json()),
            (
                "latency_p50_us",
                (self.latency.percentile_us(50.0) as i64).to_json(),
            ),
            (
                "latency_p99_us",
                (self.latency.percentile_us(99.0) as i64).to_json(),
            ),
            ("latency_mean_us", self.latency.mean_us().to_json()),
            ("dropped", self.dropped.to_json()),
            ("stale", self.stale.to_json()),
            ("incorrect", self.incorrect.to_json()),
        ])
    }
}

pub(crate) fn fail(msg: &str) -> ! {
    eprintln!("FAILED — {msg}");
    std::process::exit(1);
}

pub fn swap_bench(cfg: &HarnessConfig, smoke: bool) {
    let base = build_snapshot(cfg, smoke);
    let n1 = base.num_queries();
    let flips = if smoke { 3usize } else { 6 };
    let clients = if smoke { 2usize } else { 4 };
    let steady_per_client = if smoke { 150usize } else { 1000 };
    let round_per_client = if smoke { 100usize } else { 250 };
    let flip_gap = Duration::from_millis(if smoke { 15 } else { 25 });

    // The variant chain: base is publish 0, each flip publishes the next.
    let mut chain = vec![base.clone()];
    for round in 1..=flips as u64 {
        chain.push(perturbed(&base, round));
    }
    let opts = IndexOptions {
        threads: 2,
        cache_cap: 4096,
        warm_keys: 64,
        ..IndexOptions::default()
    };
    let refs = References::new(&chain, &opts);

    // Artifacts on disk: the live one the server opens, plus one file per
    // flip variant for `/admin/reload?path=…`.
    let dir = std::env::temp_dir().join(format!("openea-bench-swap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    let live = dir.join("live.snap");
    if let Err(e) = base.write_to(&live) {
        fail(&format!("cannot write live artifact: {e}"));
    }
    let variant_paths: Vec<PathBuf> = (1..=flips)
        .map(|i| {
            let p = dir.join(format!("variant-{i}.snap"));
            if let Err(e) = chain[i].write_to(&p) {
                fail(&format!("cannot write variant {i}: {e}"));
            }
            p
        })
        .collect();

    let (hot, _coverage) = match HotSwapIndex::open(&live, opts) {
        Ok(pair) => pair,
        Err(e) => fail(&format!("cannot open live artifact: {e}")),
    };
    // Workers bound concurrently-open connections: replay clients + the
    // flip driver + the closing /stats probe.
    let mut handle = match serve_hot(
        hot,
        "127.0.0.1:0".parse().unwrap(),
        ServerOptions {
            workers: clients + 2,
            queue_cap: 64,
            ..Default::default()
        },
    ) {
        Ok(h) => h,
        Err(e) => fail(&format!("cannot bind ephemeral port: {e}")),
    };
    let addr = handle.addr();

    println!(
        "swap replay: k={LOAD_K}, {clients} clients, {flips} flips every {} ms",
        flip_gap.as_millis()
    );
    println!(
        "{:>12} {:>8} {:>10} {:>9} {:>9} {:>8} {:>6} {:>10}",
        "phase", "queries", "qps", "p50_us", "p99_us", "dropped", "stale", "incorrect"
    );

    // Phase 1: steady state, no flips.
    let mut steady = PhaseTotals::default();
    let clock = Monotonic::start();
    steady.absorb(&replay(
        n1,
        &ReplayOptions {
            clients,
            queries_per_client: steady_per_client,
            zipf_s: ZIPF_S,
            seed: cfg.seed,
        },
        |_| client_issuer(addr, &refs),
    ));
    steady.wall_s = clock.seconds();
    println!("{}", steady.row("steady"));

    // Phase 2: the same replay while the flip driver walks the variant
    // chain over `/admin/reload`. Rounds keep running until the driver is
    // done, so queries provably span every flip.
    let done = AtomicBool::new(false);
    let flip_us: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let mut under_swap = PhaseTotals::default();
    let clock = Monotonic::start();
    std::thread::scope(|s| {
        let done = &done;
        let flip_us = &flip_us;
        let variant_paths = &variant_paths;
        let chain = &chain;
        s.spawn(move || {
            let mut conn = TcpStream::connect(addr).expect("connect flip driver");
            let mut reader = BufReader::new(conn.try_clone().expect("clone stream"));
            for (i, path) in variant_paths.iter().enumerate() {
                std::thread::sleep(flip_gap);
                let url = format!("/admin/reload?path={}", path.display());
                match http_get_json(&mut conn, &mut reader, &url) {
                    Ok((200, body)) => {
                        let gen = parse_generation(&body);
                        assert_eq!(
                            gen,
                            Some(chain[i + 1].generation()),
                            "flip {i} published an unexpected generation"
                        );
                        let us = body.get("flip_us").and_then(Json::as_f64).unwrap_or(-1.0);
                        assert!(us >= 0.0, "flip {i} reported no flip_us");
                        flip_us.lock().unwrap().push(us);
                    }
                    Ok((status, body)) => {
                        panic!("flip {i}: status {status}: {}", body.to_string_pretty())
                    }
                    Err(e) => panic!("flip {i}: {e}"),
                }
            }
            done.store(true, Ordering::SeqCst);
        });
        let mut round = 0u64;
        while !done.load(Ordering::SeqCst) {
            under_swap.absorb(&replay(
                n1,
                &ReplayOptions {
                    clients,
                    queries_per_client: round_per_client,
                    zipf_s: ZIPF_S,
                    seed: cfg.seed ^ (0xF00D << 16) ^ round,
                },
                |_| client_issuer(addr, &refs),
            ));
            round += 1;
        }
    });
    under_swap.wall_s = clock.seconds();
    println!("{}", under_swap.row("under-swap"));

    // One last round after the final flip: the terminal generation serves.
    let mut settled = PhaseTotals::default();
    let clock = Monotonic::start();
    settled.absorb(&replay(
        n1,
        &ReplayOptions {
            clients,
            queries_per_client: round_per_client,
            zipf_s: ZIPF_S,
            seed: cfg.seed ^ 0x5E77_1ED5,
        },
        |_| client_issuer(addr, &refs),
    ));
    settled.wall_s = clock.seconds();
    println!("{}", settled.row("settled"));

    // Closing /stats probe: the server's own gauges must agree.
    let mut conn = TcpStream::connect(addr).expect("connect stats probe");
    let mut reader = BufReader::new(conn.try_clone().expect("clone stream"));
    let stats = match http_get_json(&mut conn, &mut reader, "/stats") {
        Ok((200, j)) => j,
        Ok((status, _)) => fail(&format!("/stats answered {status}")),
        Err(e) => fail(&format!("/stats: {e}")),
    };
    drop(reader);
    drop(conn);
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);

    // The gate.
    let flip_us = flip_us.into_inner().unwrap();
    let final_generation = chain.last().unwrap().generation();
    if flip_us.len() < 3 {
        fail(&format!(
            "only {} flips completed, need >= 3",
            flip_us.len()
        ));
    }
    for (phase, totals) in [
        ("steady", &steady),
        ("under-swap", &under_swap),
        ("settled", &settled),
    ] {
        if !totals.clean() {
            fail(&format!(
                "{phase} phase not clean: {} dropped, {} stale, {} incorrect; first failures: {:?}",
                totals.dropped, totals.stale, totals.incorrect, totals.failures
            ));
        }
    }
    if stats.get("reloads").and_then(Json::as_f64) != Some(flip_us.len() as f64) {
        fail("server /stats disagrees on the reload count");
    }
    if parse_generation(&stats) != Some(final_generation) {
        fail("server /stats did not end on the final variant's generation");
    }
    let flip_max = flip_us.iter().cloned().fold(0.0f64, f64::max);
    let flip_mean = flip_us.iter().sum::<f64>() / flip_us.len() as f64;
    println!(
        "flips: {} completed, writer-side pause mean {:.1} µs, max {:.1} µs (readers never pause)",
        flip_us.len(),
        flip_mean,
        flip_max
    );
    if flip_max > 1_000.0 {
        println!("note: max flip pause exceeded 1 ms on this machine");
    }
    println!(
        "gate OK: {} answers across {} flips — zero dropped, zero stale, zero bit-divergent",
        steady.queries + under_swap.queries + settled.queries,
        flip_us.len()
    );

    if smoke {
        println!("[swap smoke OK]");
        return;
    }

    let doc = object([
        ("experiment", "swap".to_json()),
        ("kernel_backend", kernel::active_backend().label().to_json()),
        ("tile", DEFAULT_TILE.to_json()),
        ("panel_rows", kernel::PANEL_ROWS.to_json()),
        ("seed", (cfg.seed as i64).to_json()),
        (
            "snapshot",
            object([
                ("label", base.trace.label.to_json()),
                ("queries", base.num_queries().to_json()),
                ("targets", base.num_targets().to_json()),
                ("dim", base.dim.to_json()),
                ("metric", base.metric.label().to_json()),
            ]),
        ),
        ("zipf_s", ZIPF_S.to_json()),
        ("k", LOAD_K.to_json()),
        ("clients", clients.to_json()),
        ("flips", flip_us.len().to_json()),
        ("flip_pause_us", flip_us.to_json()),
        ("flip_pause_mean_us", flip_mean.to_json()),
        ("flip_pause_max_us", flip_max.to_json()),
        (
            "gate",
            "zero dropped / stale / bit-divergent answers across all flips".to_json(),
        ),
        (
            "phases",
            Json::Array(vec![
                steady.to_json("steady"),
                under_swap.to_json("under_swap"),
                settled.to_json("settled"),
            ]),
        ),
    ]);
    cfg.write_json("BENCH_swap", &doc);
}
