//! `openea-serve` — load a snapshot and serve alignment queries over HTTP,
//! with zero-downtime hot-swap of the artifact.

use openea_serve::{serve_hot, HotSwapIndex, IndexOptions, ServerOptions};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

const USAGE: &str = "usage: openea-serve <snapshot.snap | snapshot.manifest> [options]

A `.manifest` path loads a sharded snapshot (shard files resolved next to
the manifest); any other path loads a monolithic snapshot.

options:
  --addr HOST:PORT   bind address          (default 127.0.0.1:7077)
  --workers N        compute worker threads (default 4)
  --max-conns N      open-connection ceiling; 503 above it
                     (default 8192, 0 = unlimited)
  --p99-budget-us T  admission control: shed align load while the
                     windowed p99 exceeds T µs (default 0 = disabled)
  --threads N        kernel threads per batch sweep (default 2)
  --cache N          LRU answer-cache capacity (default 4096, 0 disables)
  --queue N          pending compute jobs before 503s (default 64)
  --nlist N          IVF partitions for two-stage answering (default 0 = exact only)
  --nprobe N         default probe width (default 0 = nlist/8; needs --nlist)
  --mem-budget-mb N  load only the shard prefix fitting N MiB of target
                     embeddings (default unlimited; manifests only)
  --warm-keys N      hottest cache keys replayed into a reloaded index
                     before the flip (default 256, 0 disables)
  --watch            poll the artifact and hot-swap when it changes
  --watch-ms T       watch poll interval in milliseconds (default 2000)

routes: /align?entity=<id>&k=<k>[&nprobe=<n>]   /health   /stats
        /admin/reload[?path=<artifact>]";

struct Args {
    snapshot: PathBuf,
    addr: SocketAddr,
    workers: usize,
    queue: usize,
    max_conns: usize,
    p99_budget_us: u64,
    watch: bool,
    watch_ms: u64,
    index: IndexOptions,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut snapshot = None;
    let mut warm_keys = 256usize;
    let mut mem_budget_mb = 0usize;
    let mut out = Args {
        snapshot: PathBuf::new(),
        addr: "127.0.0.1:7077".parse().unwrap(),
        workers: 4,
        queue: 64,
        max_conns: 8192,
        p99_budget_us: 0,
        watch: false,
        watch_ms: 2000,
        index: IndexOptions::default(),
    };
    while let Some(a) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} expects a value"));
        match a.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            "--addr" => {
                out.addr = value("--addr")?
                    .parse()
                    .map_err(|e| format!("--addr: {e}"))?
            }
            "--workers" => out.workers = parse_num(&value("--workers")?, "--workers")?,
            "--max-conns" => out.max_conns = parse_num(&value("--max-conns")?, "--max-conns")?,
            "--p99-budget-us" => {
                out.p99_budget_us = parse_num(&value("--p99-budget-us")?, "--p99-budget-us")? as u64
            }
            "--threads" => out.index.threads = parse_num(&value("--threads")?, "--threads")?,
            "--cache" => out.index.cache_cap = parse_num(&value("--cache")?, "--cache")?,
            "--queue" => out.queue = parse_num(&value("--queue")?, "--queue")?,
            "--nlist" => out.index.nlist = parse_num(&value("--nlist")?, "--nlist")?,
            "--nprobe" => out.index.nprobe = parse_num(&value("--nprobe")?, "--nprobe")?,
            "--mem-budget-mb" => {
                mem_budget_mb = parse_num(&value("--mem-budget-mb")?, "--mem-budget-mb")?
            }
            "--warm-keys" => warm_keys = parse_num(&value("--warm-keys")?, "--warm-keys")?,
            "--watch" => out.watch = true,
            "--watch-ms" => out.watch_ms = parse_num(&value("--watch-ms")?, "--watch-ms")? as u64,
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            path if snapshot.is_none() => snapshot = Some(PathBuf::from(path)),
            extra => return Err(format!("unexpected argument {extra}")),
        }
    }
    out.index.warm_keys = warm_keys;
    out.index.mem_budget_bytes = if mem_budget_mb == 0 {
        u64::MAX
    } else {
        mem_budget_mb as u64 * (1 << 20)
    };
    out.snapshot = snapshot.ok_or("missing snapshot path")?;
    Ok(out)
}

fn parse_num(s: &str, flag: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("{flag}: not a number: {s}"))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            exit(2);
        }
    };
    let (hot, coverage) = match HotSwapIndex::open(&args.snapshot, args.index) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("error: cannot load {}: {e}", args.snapshot.display());
            exit(1);
        }
    };
    {
        let index = hot.current();
        let snap = index.index().snapshot();
        println!(
            "loaded {}: '{}' — {} query entities × {} targets, dim {}, metric {}, {} trained epochs",
            args.snapshot.display(),
            snap.trace.label,
            snap.num_queries(),
            snap.num_targets(),
            snap.dim,
            snap.metric.label(),
            snap.trace.epochs.len(),
        );
        if coverage.partial() {
            eprintln!(
                "warning: memory budget truncated the load to {} of {} shards \
                 ({} of {} target entities) — answers cover only that prefix; \
                 /stats reports loaded_entities vs total_entities",
                coverage.shards_loaded,
                coverage.shards_total,
                coverage.loaded_entities,
                coverage.total_entities,
            );
        }
        if let Some(ivf) = index.index().ann() {
            println!(
                "two-stage index: {} partitions over {} targets, default {}",
                ivf.nlist(),
                ivf.len(),
                index.default_probe().label(),
            );
        }
    }
    let opts = ServerOptions {
        workers: args.workers,
        queue_cap: args.queue,
        max_conns: args.max_conns,
        p99_budget_us: args.p99_budget_us,
        ..Default::default()
    };
    let handle = match serve_hot(hot.clone(), args.addr, opts) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", args.addr);
            exit(1);
        }
    };
    let _watcher = if args.watch {
        let interval = Duration::from_millis(args.watch_ms.max(1));
        println!(
            "watching {} every {} ms for hot-swap",
            args.snapshot.display(),
            interval.as_millis(),
        );
        Some(hot.spawn_watcher(interval))
    } else {
        None
    };
    println!(
        "serving on http://{} (epoll reactor, {} workers, cache {}, queue {})",
        handle.addr(),
        args.workers,
        args.index.cache_cap,
        args.queue,
    );
    println!(
        "routes: /align?entity=<id>&k=<k>[&nprobe=<n>]  /health  /stats  /admin/reload  (ctrl-c to stop)"
    );
    loop {
        std::thread::park();
    }
}
