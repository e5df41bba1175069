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
//!   percentiles, served/shed/panic counters, connection gauges, snapshot
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
use std::sync::Arc;
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

/// Counters and histograms exported through `/stats`. The event loop owns
/// them: it counts what it answers inline, and each compute job when the
/// job comes back with its bytes.
#[derive(Default)]
pub(crate) struct Telemetry {
    pub clock: Monotonic,
    /// Responses written (any status), across all endpoints.
    pub served: u64,
    /// Connections accepted since startup (shed ones included).
    pub accepted_total: u64,
    /// Currently open connections.
    pub open_conns: usize,
    /// 503s by reason: bounded queue full.
    pub shed_queue: u64,
    /// 503s by reason: windowed p99 over its latency budget.
    pub shed_latency: u64,
    /// 503s by reason: open-connection ceiling reached.
    pub shed_conn_limit: u64,
    /// Compute jobs that carried more than one pipelined `/align` request.
    pub pipelined_batches: u64,
    /// Compute jobs that panicked; each of their unshed requests got a 500.
    pub panics_total: u64,
    /// Per-endpoint service latency (µs), parse-complete → response queued.
    pub latency: [MicrosHistogram; N_ENDPOINTS],
    /// Admission control's `/align` latencies: the current window, then
    /// the previous one.
    pub window: [MicrosHistogram; 2],
    /// When the current window opened (µs on `clock`).
    pub window_start_us: u64,
    /// The two windows' p99 at the last admission decision.
    pub window_p99_us: u64,
    /// The fraction of `/align` requests being shed (0..=1).
    pub shed_frac: f64,
}

impl Telemetry {
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
    pub(crate) fn record(&mut self, endpoint: usize, us: u64) {
        self.served += 1;
        self.latency[endpoint].record(us);
    }

    pub(crate) fn shed_total(&self) -> u64 {
        self.shed_queue
            .saturating_add(self.shed_latency)
            .saturating_add(self.shed_conn_limit)
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

/// A counter as a JSON number. JSON integers here are `i64`, so a count
/// past `i64::MAX` reads `i64::MAX`, never a negative number.
fn count<N: TryInto<i64>>(n: N) -> Json {
    Json::Int(n.try_into().unwrap_or(i64::MAX))
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
    let mut merged = MicrosHistogram::new();
    let mut endpoints = Vec::with_capacity(N_ENDPOINTS);
    for (name, h) in ENDPOINT_NAMES.iter().zip(&tel.latency) {
        merged.merge(h);
        endpoints.push((
            name.to_string(),
            object([
                ("count", count(h.count())),
                ("p50_us", count(h.percentile_us(50.0))),
                ("p99_us", count(h.percentile_us(99.0))),
                ("mean_us", h.mean_us().to_json()),
            ]),
        ));
    }
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
        ("reloads", count(swap.reloads)),
        ("reload_failures", count(swap.reload_failures)),
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
            count(
                raw.snapshot()
                    .lineage
                    .map(|l| l.trained_epochs)
                    .unwrap_or(raw.snapshot().trace.epochs.len() as u64),
            ),
        ),
        ("served", count(tel.served)),
        ("rejected_503", count(tel.shed_total())),
        ("accepted_total", count(tel.accepted_total)),
        ("open_conns", count(tel.open_conns)),
        ("pipelined_batches", count(tel.pipelined_batches)),
        ("panics_total", count(tel.panics_total)),
        (
            "shed_total",
            object([
                ("queue", count(tel.shed_queue)),
                ("latency", count(tel.shed_latency)),
                ("conn_limit", count(tel.shed_conn_limit)),
                ("total", count(tel.shed_total())),
            ]),
        ),
        (
            "admission",
            object([
                ("p99_budget_us", count(p99_budget_us)),
                ("window_p99_us", count(tel.window_p99_us)),
                ("shed_frac", tel.shed_frac.to_json()),
            ]),
        ),
        ("queue_depth", count(queue_depth)),
        ("cache_hits", count(ix.cache_hits)),
        ("cache_misses", count(ix.cache_misses)),
        ("cache_hit_rate", ix.hit_rate().to_json()),
        ("batches", count(ix.batches)),
        ("mean_batch_occupancy", ix.mean_batch_occupancy().to_json()),
        ("ivf_rows_scanned", count(ix.ivf_rows_scanned)),
        ("ivf_rows_reranked", count(ix.ivf_rows_reranked)),
        ("latency_p50_us", count(merged.percentile_us(50.0))),
        ("latency_p99_us", count(merged.percentile_us(99.0))),
        ("latency_mean_us", merged.mean_us().to_json()),
        ("latency_max_us", count(merged.max_us())),
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
mod proptests {
    //! The reactor thread runs `classify` and `stats_json` outside any
    //! `catch_unwind`, so a panic in either would end the event loop: both
    //! are held total here.

    use super::*;
    use crate::snapshot::tests::tiny_snapshot;
    use crate::swap::IndexOptions;
    use openea_runtime::json;
    use openea_runtime::testkit::prelude::*;

    const METHODS: [&str; 6] = ["GET", "get", "POST", "", "GÉT", "GET "];
    const PATHS: [&str; 9] = [
        "/align",
        "/health",
        "/stats",
        "/admin/reload",
        "/",
        "",
        "/align/",
        "/%61lign",
        "/é",
    ];
    const KEYS: [&str; 6] = ["entity", "k", "nprobe", "path", "", "é"];
    const VALUES: [&str; 16] = [
        "",
        "0",
        "7",
        "4294967295",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999999999999999",
        "-1",
        "+3",
        "%",
        "%zz",
        "%41",
        "é",
        "1e3",
        "=",
    ];
    /// What a stray byte of a query may be.
    const NOISE: &str = "ek=&%0123456789é中 ";

    /// A query of `params` (key, value, form) and trailing `noise`: form 0
    /// is `key=value`, 1 a bare key, 2 `key=value=value`.
    fn query(params: &[(usize, usize, u8)], noise: &str) -> String {
        let mut q: Vec<String> = params
            .iter()
            .map(|&(k, v, form)| {
                let (k, v) = (KEYS[k], VALUES[v]);
                match form {
                    0 => format!("{k}={v}"),
                    1 => k.to_string(),
                    _ => format!("{k}={v}={v}"),
                }
            })
            .collect();
        q.push(noise.to_string());
        q.join("&")
    }

    /// Whether no number anywhere in `json` is below zero: nothing
    /// `/stats` reports can be.
    fn no_negative_number(json: &Json) -> bool {
        match json {
            Json::Int(n) => *n >= 0,
            Json::Float(f) => *f >= 0.0,
            Json::Array(items) => items.iter().all(no_negative_number),
            Json::Object(members) => members.iter().all(|(_, v)| no_negative_number(v)),
            _ => true,
        }
    }

    /// A fresh histogram holding `samples`.
    fn histogram(samples: &[u64]) -> MicrosHistogram {
        let mut h = MicrosHistogram::new();
        for &us in samples {
            h.record(us);
        }
        h
    }

    props! {
        #[test]
        fn classify_is_total_and_answers_from_the_route_table(
            method in 0..METHODS.len(),
            path in 0..PATHS.len(),
            free_path in string_of(NOISE, 0..=8),
            params in vec_of((0..KEYS.len(), 0..VALUES.len(), 0u8..3), 0..=6),
            noise in string_of(NOISE, 0..=12),
        ) {
            let (method, query) = (METHODS[method], query(&params, &noise));
            for path in [PATHS[path], free_path.as_str()] {
                let status = match classify(method, path, &query) {
                    RouteAction::Inline(status, body) => {
                        prop_assert!(
                            json::parse(&body.to_string_pretty()).is_ok(),
                            "{method} {path}?{query}: body does not parse"
                        );
                        status
                    }
                    RouteAction::Stats | RouteAction::Reload(_) => 200,
                    RouteAction::Align(_) => {
                        prop_assert_eq!(path, "/align");
                        200
                    }
                };
                let want: &[u16] = match (method, path) {
                    ("GET", "/align") => &[200, 400],
                    ("GET", "/health" | "/stats" | "/admin/reload") => &[200],
                    ("GET", _) => &[404],
                    _ => &[405],
                };
                prop_assert!(
                    want.contains(&status),
                    "{method} {path}?{query} answered {status}, not one of {want:?}"
                );
            }
        }

        #[test]
        fn stats_json_is_total_and_parses_back(
            maxed in vec_of(any_bool(), 12..=12),
            samples in vec_of(any_bool(), 0..=4),
            shed_frac in 0.0f64..=1.0,
        ) {
            let at = |i: usize| if maxed[i] { u64::MAX } else { 0 };
            let samples: Vec<u64> = samples.iter().map(|&m| if m { u64::MAX } else { 0 }).collect();
            let tel = Telemetry {
                served: at(0),
                accepted_total: at(1),
                open_conns: at(2) as usize,
                shed_queue: at(3),
                shed_latency: at(4),
                shed_conn_limit: at(5),
                pipelined_batches: at(6),
                panics_total: at(7),
                latency: std::array::from_fn(|_| histogram(&samples)),
                window: [histogram(&samples), histogram(&samples)],
                window_start_us: at(8),
                window_p99_us: at(9),
                shed_frac,
                ..Telemetry::default()
            };
            let opts = IndexOptions::default();
            let hot = HotSwapIndex::fixed_with(opts.build(tiny_snapshot()), opts);
            let stats = stats_json(&hot, &tel, at(10) as usize, at(11));
            let text = stats.to_string_pretty();
            let back = json::parse(&text);
            prop_assert!(back.is_ok(), "{text}");
            let back = back.unwrap();
            prop_assert!(back == stats, "{text}");
            prop_assert!(no_negative_number(&back), "a count reads negative: {text}");
        }
    }
}
