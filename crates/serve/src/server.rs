//! The HTTP serving front end: routing, response encoding and telemetry
//! over the alignment index, served by the epoll reactor in
//! [`crate::event`].
//!
//! Deliberately minimal protocol: `GET` only, four routes, no TLS, no
//! chunked bodies — enough for curl, browsers and the bench load
//! generator, implemented directly on `std::net` so the zero-dependency
//! policy holds.
//!
//! ## Routes
//!
//! * `GET /align?entity=<id>&k=<k>[&nprobe=<n>]` — top-`k` KG2 targets of
//!   KG1 entity `<id>`, best first. Without `nprobe` the index's default
//!   probe applies; `nprobe=0` forces the dense exact sweep (bit-identical
//!   to the offline evaluation); `nprobe=n` probes the `n` best partitions
//!   of the two-stage index (exact fallback when none was built).
//! * `GET /health` — liveness probe.
//! * `GET /stats` — cache hit rate, batch occupancy, per-endpoint latency
//!   percentiles, served/shed counters, connection gauges, snapshot
//!   generation, partition shape, admission-control state, and the
//!   hot-swap gauges.
//! * `GET /admin/reload[?path=<artifact>]` — zero-downtime hot-swap: load
//!   and validate the artifact (the remembered one, or `path`) off the
//!   request path, warm the replacement's cache, flip atomically. On any
//!   validation failure the live index keeps serving and the typed error
//!   is returned with status 409.
//!
//! Every `/align` answer carries the generation of the index that
//! computed it, so clients can observe flips and verify monotonicity.
//!
//! ## One front end
//!
//! [`serve_hot`] binds the listener and starts the reactor: one
//! event-loop thread multiplexes every connection through nonblocking
//! reads and the incremental parser in [`crate::conn`], each connection's
//! pipelined `/align` run goes to a compute worker as one
//! [`BatchIndex::query_batch`] call, and latency-aware admission control
//! sheds load (503 + `Retry-After`) when a windowed p99 exceeds its
//! budget. This module holds what the event loop and its workers answer
//! with: every JSON body and every response byte is built by exactly one
//! function below, and `tests/reactor_e2e.rs` pins those bytes against a
//! golden fixture.

use crate::index::{Answer, BatchIndex, Probe, QueryError};
use crate::swap::HotSwapIndex;
use openea_runtime::json::{object, Json, ToJson};
use openea_runtime::timer::{MicrosHistogram, Monotonic};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerOptions {
    /// Compute worker threads running index sweeps and reloads.
    pub workers: usize,
    /// Pending compute jobs before queue-depth shedding starts (503,
    /// `shed_total.queue`).
    pub queue_cap: usize,
    /// Open-connection ceiling; further accepts are shed with 503
    /// (`shed_total.conn_limit`). 0 means unlimited.
    pub max_conns: usize,
    /// Latency budget in µs for the windowed `/align` p99. While the
    /// observed p99 exceeds it, a matching fraction of incoming align
    /// requests is shed with 503 + `Retry-After` (`shed_total.latency`).
    /// 0 disables latency-aware admission.
    pub p99_budget_us: u64,
    /// Width of the admission-control observation window.
    pub budget_window: Duration,
}

impl Default for ServerOptions {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_cap: 64,
            max_conns: 8192,
            p99_budget_us: 0,
            budget_window: Duration::from_millis(1000),
        }
    }
}

// ---------------------------------------------------------------------------
// Telemetry.

/// Endpoint slots for per-endpoint latency histograms.
pub(crate) const EP_ALIGN: usize = 0;
pub(crate) const EP_HEALTH: usize = 1;
pub(crate) const EP_STATS: usize = 2;
pub(crate) const EP_RELOAD: usize = 3;
pub(crate) const EP_OTHER: usize = 4;
pub(crate) const N_ENDPOINTS: usize = 5;

const ENDPOINT_NAMES: [&str; N_ENDPOINTS] = ["align", "health", "stats", "reload", "other"];

/// Counters and histograms exported through `/stats`, fed by the event
/// loop and its compute workers.
pub(crate) struct Telemetry {
    pub clock: Monotonic,
    /// Responses written (any status), across all endpoints.
    pub served: AtomicU64,
    /// Connections accepted since startup (shed ones included).
    pub accepted_total: AtomicU64,
    /// Currently open connections.
    pub open_conns: AtomicU64,
    /// 503s by reason: bounded queue full.
    pub shed_queue: AtomicU64,
    /// 503s by reason: windowed p99 over its latency budget.
    pub shed_latency: AtomicU64,
    /// 503s by reason: open-connection ceiling reached.
    pub shed_conn_limit: AtomicU64,
    /// Compute jobs that carried more than one pipelined `/align` request.
    pub pipelined_batches: AtomicU64,
    /// Per-endpoint service latency (µs), parse-complete → response queued.
    /// Its guard is held for one histogram update or one read, which leave
    /// the histograms whole, so a poisoned guard is as good as a clean one.
    pub latency: Mutex<[MicrosHistogram; N_ENDPOINTS]>,
    /// Admission-control snapshot for `/stats` (written by the reactor).
    pub window_p99_us: AtomicU64,
    /// Current shed fraction in milli-units (0..=1000).
    pub shed_frac_milli: AtomicU64,
}

impl Telemetry {
    pub(crate) fn new() -> Self {
        Self {
            clock: Monotonic::start(),
            served: AtomicU64::new(0),
            accepted_total: AtomicU64::new(0),
            open_conns: AtomicU64::new(0),
            shed_queue: AtomicU64::new(0),
            shed_latency: AtomicU64::new(0),
            shed_conn_limit: AtomicU64::new(0),
            pipelined_batches: AtomicU64::new(0),
            latency: Mutex::new(std::array::from_fn(|_| MicrosHistogram::new())),
            window_p99_us: AtomicU64::new(0),
            shed_frac_milli: AtomicU64::new(0),
        }
    }

    pub(crate) fn endpoint(path: &str) -> usize {
        match path {
            "/align" => EP_ALIGN,
            "/health" => EP_HEALTH,
            "/stats" => EP_STATS,
            "/admin/reload" => EP_RELOAD,
            _ => EP_OTHER,
        }
    }

    /// Records one answered request on `endpoint` with service latency `us`.
    pub(crate) fn record(&self, endpoint: usize, us: u64) {
        self.served.fetch_add(1, Ordering::Relaxed);
        self.latency.lock().unwrap_or_else(PoisonError::into_inner)[endpoint].record(us);
    }

    pub(crate) fn shed_total(&self) -> u64 {
        self.shed_queue.load(Ordering::Relaxed)
            + self.shed_latency.load(Ordering::Relaxed)
            + self.shed_conn_limit.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Routing. Every JSON answer is built by exactly one function, whether
// the event loop answers inline or a compute worker does.

/// A validated `/align` request.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AlignQuery {
    pub entity: u32,
    pub k: usize,
    pub probe: Option<Probe>,
}

/// What a parsed request needs from the serving core.
pub(crate) enum RouteAction {
    /// Fully answerable without touching the compute path.
    Inline(u16, Json),
    /// Telemetry snapshot; cheap, answered on the event loop with its
    /// queue-depth gauge.
    Stats,
    /// Needs an index sweep (dispatched to a compute worker).
    Align(AlignQuery),
    /// Needs an artifact load (slow; never run on the event loop).
    Reload(Option<String>),
}

/// Classifies a request; all parameter validation errors happen here, on
/// the event loop, before any compute is queued.
pub(crate) fn classify(method: &str, path: &str, query: &str) -> RouteAction {
    if method != "GET" {
        return RouteAction::Inline(405, err_json("only GET is supported"));
    }
    match path {
        "/health" => RouteAction::Inline(200, object([("status", "ok".to_json())])),
        "/stats" => RouteAction::Stats,
        "/align" => classify_align(query),
        "/admin/reload" => RouteAction::Reload(query_param_raw(query, "path").map(str::to_string)),
        _ => RouteAction::Inline(404, err_json("unknown path")),
    }
}

fn classify_align(query: &str) -> RouteAction {
    let Some(entity) = query_param(query, "entity") else {
        return RouteAction::Inline(400, err_json("missing or invalid 'entity' parameter"));
    };
    let k = query_param(query, "k").unwrap_or(10);
    let entity = match u32::try_from(entity) {
        Ok(e) => e,
        Err(_) => return RouteAction::Inline(400, err_json("'entity' does not fit u32")),
    };
    // Absent → the index's default probe; 0 → exact; n → probe n lists.
    let probe = match query_param_raw(query, "nprobe") {
        None => None,
        Some(raw) => match raw.parse::<u32>() {
            Ok(0) => Some(Probe::Exact),
            Ok(n) => Some(Probe::Nprobe(n)),
            Err(_) => return RouteAction::Inline(400, err_json("'nprobe' is not a u32")),
        },
    };
    RouteAction::Align(AlignQuery {
        entity,
        k: k as usize,
        probe,
    })
}

/// Builds the `/align` response from an already-computed answer. `index`
/// must be the [`BatchIndex`] the answer was computed on, so the metric,
/// names and generation all describe one coherent snapshot.
pub(crate) fn align_response(
    index: &BatchIndex,
    q: &AlignQuery,
    result: Result<Answer, QueryError>,
) -> (u16, Json) {
    let effective = q.probe.unwrap_or_else(|| index.default_probe());
    match result {
        Ok(answer) => {
            let results: Vec<Json> = answer
                .iter()
                .map(|&(target, score)| {
                    let mut fields = vec![
                        ("target".to_string(), target.to_json()),
                        ("score".to_string(), (score as f64).to_json()),
                    ];
                    if let Some(name) = index.index().target_name(target) {
                        fields.push(("name".to_string(), name.to_json()));
                    }
                    Json::Object(fields)
                })
                .collect();
            (
                200,
                object([
                    ("entity", q.entity.to_json()),
                    ("k", answer.len().to_json()),
                    ("metric", index.index().metric().label().to_json()),
                    ("probe", effective.label().to_json()),
                    (
                        "generation",
                        format!("{:#018x}", index.index().generation()).to_json(),
                    ),
                    ("results", Json::Array(results)),
                ]),
            )
        }
        Err(e @ QueryError::EntityOutOfRange { .. }) => (404, err_json(&e.to_string())),
        Err(e @ QueryError::ZeroK) => (400, err_json(&e.to_string())),
    }
}

/// Hot-swap trigger. Loading, warming and flipping all happen on the
/// calling (worker) thread; every other worker keeps answering from the
/// live index throughout, then picks up the new one on its next
/// `current()`.
pub(crate) fn reload_response(hot: &HotSwapIndex, path: Option<&str>) -> (u16, Json) {
    let outcome = match path {
        Some(path) => hot.reload_from(std::path::Path::new(path)),
        None => hot.reload(),
    };
    match outcome {
        Ok(o) => (
            200,
            object([
                ("generation", format!("{:#018x}", o.generation).to_json()),
                ("loaded_entities", o.coverage.loaded_entities.to_json()),
                ("total_entities", o.coverage.total_entities.to_json()),
                ("shards_loaded", o.coverage.shards_loaded.to_json()),
                ("shards_total", o.coverage.shards_total.to_json()),
                ("partial", o.coverage.partial().to_json()),
                ("flip_us", (o.flip_ns as f64 / 1_000.0).to_json()),
                ("warmed", o.warmed.to_json()),
            ]),
        ),
        // 409: the request was well-formed but the artifact (or the lack
        // of one) refused it; the previous index is still serving.
        Err(e) => (409, err_json(&e.to_string())),
    }
}

pub(crate) fn stats_json(
    hot: &HotSwapIndex,
    tel: &Telemetry,
    queue_depth: usize,
    p99_budget_us: u64,
) -> Json {
    let index = hot.current();
    let swap = hot.stats();
    let ix = index.stats();
    let raw = index.index();
    let (merged, endpoints) = {
        let lat = tel.latency.lock().unwrap_or_else(PoisonError::into_inner);
        let mut merged = MicrosHistogram::new();
        let mut endpoints = Vec::with_capacity(N_ENDPOINTS);
        for (name, h) in ENDPOINT_NAMES.iter().zip(lat.iter()) {
            merged.merge(h);
            endpoints.push((
                name.to_string(),
                object([
                    ("count", (h.count() as i64).to_json()),
                    ("p50_us", (h.percentile_us(50.0) as i64).to_json()),
                    ("p99_us", (h.percentile_us(99.0) as i64).to_json()),
                    ("mean_us", h.mean_us().to_json()),
                ]),
            ));
        }
        (merged, endpoints)
    };
    object([
        // Hex string: a u64 generation does not fit f64-backed JSON numbers.
        (
            "generation",
            format!("{:#018x}", raw.generation()).to_json(),
        ),
        ("server_mode", "reactor".to_json()),
        (
            "ann_nlist",
            raw.ann().map(|ivf| ivf.nlist()).unwrap_or(0).to_json(),
        ),
        ("default_probe", index.default_probe().label().to_json()),
        ("loaded_entities", swap.coverage.loaded_entities.to_json()),
        ("total_entities", swap.coverage.total_entities.to_json()),
        ("reloads", (swap.reloads as i64).to_json()),
        ("reload_failures", (swap.reload_failures as i64).to_json()),
        (
            "last_flip_us",
            (swap.last_flip_ns as f64 / 1_000.0).to_json(),
        ),
        ("draining_generations", swap.draining_generations.to_json()),
        // Freshness gauges for the live alignment pipeline: how stale the
        // served snapshot is and which lineage it extends. A cold (v1)
        // snapshot reports parent_generation "0x0" and its trace length.
        (
            "snapshot_age_ms",
            (swap.snapshot_age_ns as f64 / 1_000_000.0).to_json(),
        ),
        (
            "parent_generation",
            format!(
                "{:#018x}",
                raw.snapshot()
                    .lineage
                    .map(|l| l.parent_generation)
                    .unwrap_or(0)
            )
            .to_json(),
        ),
        (
            "trained_epochs",
            (raw.snapshot()
                .lineage
                .map(|l| l.trained_epochs)
                .unwrap_or(raw.snapshot().trace.epochs.len() as u64) as i64)
                .to_json(),
        ),
        (
            "served",
            (tel.served.load(Ordering::Relaxed) as i64).to_json(),
        ),
        ("rejected_503", (tel.shed_total() as i64).to_json()),
        (
            "accepted_total",
            (tel.accepted_total.load(Ordering::Relaxed) as i64).to_json(),
        ),
        (
            "open_conns",
            (tel.open_conns.load(Ordering::Relaxed) as i64).to_json(),
        ),
        (
            "pipelined_batches",
            (tel.pipelined_batches.load(Ordering::Relaxed) as i64).to_json(),
        ),
        (
            "shed_total",
            object([
                (
                    "queue",
                    (tel.shed_queue.load(Ordering::Relaxed) as i64).to_json(),
                ),
                (
                    "latency",
                    (tel.shed_latency.load(Ordering::Relaxed) as i64).to_json(),
                ),
                (
                    "conn_limit",
                    (tel.shed_conn_limit.load(Ordering::Relaxed) as i64).to_json(),
                ),
                ("total", (tel.shed_total() as i64).to_json()),
            ]),
        ),
        (
            "admission",
            object([
                ("p99_budget_us", (p99_budget_us as i64).to_json()),
                (
                    "window_p99_us",
                    (tel.window_p99_us.load(Ordering::Relaxed) as i64).to_json(),
                ),
                (
                    "shed_frac",
                    (tel.shed_frac_milli.load(Ordering::Relaxed) as f64 / 1000.0).to_json(),
                ),
            ]),
        ),
        ("queue_depth", queue_depth.to_json()),
        ("cache_hits", (ix.cache_hits as i64).to_json()),
        ("cache_misses", (ix.cache_misses as i64).to_json()),
        ("cache_hit_rate", ix.hit_rate().to_json()),
        ("batches", (ix.batches as i64).to_json()),
        ("mean_batch_occupancy", ix.mean_batch_occupancy().to_json()),
        (
            "latency_p50_us",
            (merged.percentile_us(50.0) as i64).to_json(),
        ),
        (
            "latency_p99_us",
            (merged.percentile_us(99.0) as i64).to_json(),
        ),
        ("latency_mean_us", merged.mean_us().to_json()),
        ("latency_max_us", (merged.max_us() as i64).to_json()),
        ("endpoints", Json::Object(endpoints)),
    ])
}

pub(crate) fn err_json(msg: &str) -> Json {
    object([("error", msg.to_json())])
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Content Too Large",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Encodes one complete response. `retry_after` adds the backpressure
/// header on 503s so clients get an explicit signal, not a timeout.
pub(crate) fn response_bytes(
    status: u16,
    body: &Json,
    close: bool,
    retry_after_s: Option<u32>,
) -> Vec<u8> {
    let body = body.to_string_pretty();
    let retry = match retry_after_s {
        Some(s) => format!("Retry-After: {s}\r\n"),
        None => String::new(),
    };
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{}Connection: {}\r\n\r\n",
        status,
        status_text(status),
        body.len(),
        retry,
        if close { "close" } else { "keep-alive" },
    );
    let mut out = Vec::with_capacity(head.len() + body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(body.as_bytes());
    out
}

/// The canned load-shedding response.
pub(crate) fn shed_bytes(reason: &str, retry_after_s: u32, close: bool) -> Vec<u8> {
    response_bytes(
        503,
        &object([
            ("error", "server overloaded, retry".to_json()),
            ("reason", reason.to_json()),
        ]),
        close,
        Some(retry_after_s),
    )
}

fn query_param(query: &str, name: &str) -> Option<u64> {
    query_param_raw(query, name).and_then(|v| v.parse().ok())
}

/// The raw value of `name`, present or not — lets callers distinguish an
/// absent parameter (fall back to a default) from a malformed one (400).
fn query_param_raw<'q>(query: &'q str, name: &str) -> Option<&'q str> {
    query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == name)
        .map(|(_, v)| v)
}

// ---------------------------------------------------------------------------
// Server handle.

/// A running server: bound address plus the handles needed to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    reactor: crate::event::ReactorHandle,
}

impl ServerHandle {
    /// The actually-bound address (resolve port 0 here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals shutdown, drains gracefully and joins every thread.
    /// Idempotent; also runs on drop.
    pub fn stop(&mut self) {
        self.reactor.stop();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Binds `addr` (use port 0 for an ephemeral port) and starts the reactor
/// over `index`: `/admin/reload` republishes from the index's artifact path
/// (or an explicit `path`) and a watcher (if spawned) follows it. An
/// in-memory index serves through [`HotSwapIndex::fixed_with`].
pub fn serve_hot(
    index: Arc<HotSwapIndex>,
    addr: SocketAddr,
    opts: ServerOptions,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let reactor = crate::event::spawn_reactor(index, listener, opts)?;
    Ok(ServerHandle { addr, reactor })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::tests::tiny_snapshot;
    use crate::swap::IndexOptions;

    #[test]
    fn telemetry_recovers_a_latency_lock_poisoned_mid_record() {
        let tel = Telemetry::new();
        tel.record(EP_ALIGN, 100);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _lat = tel.latency.lock();
                panic!("a recorder panics while it holds the latency lock");
            })
            .join()
            .unwrap_err();
        });
        assert!(tel.latency.is_poisoned());

        tel.record(EP_ALIGN, 300);
        let opts = IndexOptions::default();
        let hot = HotSwapIndex::fixed_with(opts.build(tiny_snapshot()), opts);
        let body = stats_json(&hot, &tel, 0, 1_000);
        let align = body.get("endpoints").and_then(|e| e.get("align"));
        assert_eq!(
            align.and_then(|a| a.get("count")).and_then(Json::as_f64),
            Some(2.0)
        );
        assert_eq!(body.get("served").and_then(Json::as_f64), Some(2.0));
    }
}
