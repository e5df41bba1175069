//! `openea-serve` — load a snapshot and serve alignment queries over HTTP,
//! with zero-downtime hot-swap of the artifact.

use openea_runtime::cli::Args;
use openea_runtime::outln;
use openea_serve::{serve_hot, HotSwapIndex, IndexOptions, ServerOptions};
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};
use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

/// The usage text, with the defaults `ServerOptions` and `IndexOptions` hold.
fn usage(server: &ServerOptions, index: &IndexOptions) -> String {
    format!(
        "usage: openea-serve <snapshot.snap | snapshot.manifest> [options]

options:
  --addr HOST:PORT   bind address          (default {ADDR})
  --workers N        compute worker threads (default {workers})
  --max-conns N      open-connection ceiling; 503 above it
                     (default {max_conns}, 0 = unlimited)
  --p99-budget-us T  admission control: shed align load while the
                     windowed p99 exceeds T µs (default {p99} = disabled)
  --threads N        kernel threads per batch sweep (default {threads})
  --cache N          LRU answer-cache capacity (default {cache}, 0 disables)
  --queue N          pending compute jobs before 503s (default {queue})
  --nlist N          IVF partitions for two-stage answering (default {nlist} = exact only)
  --nprobe N         default probe width (default {nprobe} = nlist/8; needs --nlist)
  --mem-budget-mb N  keep the longest prefix of whole shards fitting N MiB
                     of target embeddings, at least one (default
                     unlimited; a .snap is one shard)
  --warm-keys N      hottest cache keys replayed into a reloaded index
                     before the flip (default {warm}, 0 disables)
  --watch            poll the artifact and hot-swap when it changes
  --watch-ms T       watch poll interval in milliseconds (default {WATCH_MS})

routes: /align?entity=<id>&k=<k>[&nprobe=<n>]   /health   /stats
        /admin/reload[?path=<artifact>]",
        workers = server.workers,
        max_conns = server.max_conns,
        p99 = server.p99_budget_us,
        threads = index.threads,
        cache = index.cache_cap,
        queue = server.queue_cap,
        nlist = index.nlist,
        nprobe = index.nprobe,
        warm = index.warm_keys,
    )
}

const ADDR: SocketAddr = SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 7077));
const WATCH_MS: u64 = 2000;

fn main() {
    let (mut server, mut index) = (ServerOptions::default(), IndexOptions::default());
    let mut args = Args::from_env(usage(&server, &index), &["watch"]);
    let snapshot: PathBuf = args.positional("snapshot path");
    let addr = args.value_or("addr", ADDR);
    server.workers = args.value_or("workers", server.workers);
    server.queue_cap = args.value_or("queue", server.queue_cap);
    server.max_conns = args.value_or("max-conns", server.max_conns);
    server.p99_budget_us = args.value_or("p99-budget-us", server.p99_budget_us);
    index.threads = args.value_or("threads", index.threads);
    index.cache_cap = args.value_or("cache", index.cache_cap);
    index.nlist = args.value_or("nlist", index.nlist);
    index.nprobe = args.value_or("nprobe", index.nprobe);
    index.warm_keys = args.value_or("warm-keys", index.warm_keys);
    if let Some(mb) = args.value::<u64>("mem-budget-mb").filter(|&mb| mb > 0) {
        index.mem_budget_bytes = mb.saturating_mul(1 << 20);
    }
    let watch = args.flag("watch");
    let watch_ms = args.value_or("watch-ms", WATCH_MS);
    args.finish();

    let (hot, coverage) = match HotSwapIndex::open(&snapshot, index) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("error: cannot load {}: {e}", snapshot.display());
            exit(1);
        }
    };
    {
        let live = hot.current();
        let snap = live.index().snapshot();
        outln!(
            "loaded {}: '{}' — {} query entities × {} targets, dim {}, metric {}, {} trained epochs",
            snapshot.display(),
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
        if let Some(ivf) = live.index().ann() {
            outln!(
                "two-stage index: {} partitions over {} targets, default {}",
                ivf.nlist(),
                ivf.len(),
                live.default_probe().label(),
            );
        }
    }
    let handle = match serve_hot(hot.clone(), addr, server) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            exit(1);
        }
    };
    let _watcher = if watch {
        let interval = Duration::from_millis(watch_ms.max(1));
        outln!(
            "watching {} every {} ms for hot-swap",
            snapshot.display(),
            interval.as_millis(),
        );
        Some(hot.spawn_watcher(interval))
    } else {
        None
    };
    outln!(
        "serving on http://{} (epoll reactor, {} workers, cache {}, queue {})",
        handle.addr(),
        server.workers,
        index.cache_cap,
        server.queue_cap,
    );
    outln!(
        "routes: /align?entity=<id>&k=<k>[&nprobe=<n>]  /health  /stats  /admin/reload  (ctrl-c to stop)"
    );
    loop {
        std::thread::park();
    }
}
