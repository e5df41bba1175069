//! The serving core, end to end: raw response bytes against a golden
//! fixture, adversarial clients against the incremental parser, graceful
//! shutdown, admission control, and the `/stats` connection gauges.

mod common;

use common::{connect, http_get, read_response, tiny_snapshot};
use openea_runtime::json::{self, Json};
use openea_serve::{serve_hot, HotSwapIndex, IndexOptions, ServerHandle, ServerOptions};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The seed's tiny snapshot, served exactly with a 128-answer cache.
fn tiny_index(seed: u64) -> Arc<HotSwapIndex> {
    let opts = IndexOptions {
        cache_cap: 128,
        ..IndexOptions::default()
    };
    HotSwapIndex::fixed_with(opts.build(tiny_snapshot(40, 50, 8, seed)), opts)
}

fn start(index: Arc<HotSwapIndex>, opts: ServerOptions) -> ServerHandle {
    serve_hot(index, "127.0.0.1:0".parse().unwrap(), opts).expect("bind ephemeral port")
}

fn get_i64(obj: &Json, key: &str) -> i64 {
    match obj.get(key).and_then(Json::as_f64) {
        Some(n) => n as i64,
        None => panic!("stats field {key} missing or non-numeric: {obj:?}"),
    }
}

/// Polls `/stats` until `pred` holds or the deadline passes.
fn wait_for_stats(addr: SocketAddr, pred: impl Fn(&Json) -> bool, what: &str) -> Json {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut conn = connect(addr);
        let (status, stats) = http_get(&mut conn, "/stats");
        assert_eq!(status, 200);
        if pred(&stats) {
            return stats;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

// ---------------------------------------------------------------------------

/// Every response — valid, erroneous, or probing — is byte-identical to
/// `fixtures/responses.golden`: the nine raw responses, concatenated in
/// path order, captured from the thread-per-connection server this
/// front end replaced (over the same seed-7 index).
#[test]
fn reactor_answers_match_golden_bytes() {
    let golden = include_bytes!("fixtures/responses.golden");
    let mut server = start(tiny_index(7), ServerOptions::default());

    let paths = [
        "/align?entity=0&k=5",
        "/align?entity=17&k=3&nprobe=0",
        "/align?entity=39&k=64",          // k past n2: clamped
        "/align?entity=99&k=5",           // out of range: 404
        "/align?k=5",                     // missing entity: 400
        "/align?entity=3&k=0",            // zero k: 400
        "/align?entity=3&k=2&nprobe=zzz", // malformed probe: 400
        "/health",
        "/nope",
    ];
    let mut offset = 0;
    for path in paths {
        let mut conn = connect(server.addr());
        conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
            .unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let (_, _, _, raw) = read_response(&mut reader);
        let end = (offset + raw.len()).min(golden.len());
        assert_eq!(
            String::from_utf8_lossy(&raw),
            String::from_utf8_lossy(&golden[offset..end]),
            "divergent response for {path}"
        );
        offset = end;
    }
    assert_eq!(offset, golden.len(), "fixture holds exactly these nine");
    server.stop();
}

/// A pipelined burst on one connection comes back complete, in request
/// order, and runs as one multi-request job (`pipelined_batches`).
#[test]
fn pipelined_burst_is_ordered_and_batched() {
    let index = tiny_index(11);
    let mut server = start(index, ServerOptions::default());
    let addr = server.addr();

    let mut conn = connect(addr);
    let mut burst = Vec::new();
    for i in 0..20 {
        burst.extend_from_slice(
            format!("GET /align?entity={i}&k=3 HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
        );
    }
    conn.write_all(&burst).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    for i in 0..20 {
        let (status, _, body, _) = read_response(&mut reader);
        assert_eq!(status, 200);
        let obj = json::parse(&body).unwrap();
        assert_eq!(
            get_i64(&obj, "entity"),
            i,
            "responses must keep request order"
        );
    }

    let stats = wait_for_stats(
        addr,
        |s| get_i64(s, "pipelined_batches") >= 1,
        "a multi-request align job",
    );
    let endpoints = stats.get("endpoints").expect("endpoints object");
    let align = endpoints.get("align").expect("align endpoint");
    assert!(
        get_i64(align, "count") >= 20,
        "per-endpoint histogram counts aligns"
    );
    server.stop();
}

/// A slowloris client dribbling one byte at a time neither wedges the
/// reactor (a concurrent client stays served) nor corrupts its own
/// request.
#[test]
fn slowloris_does_not_stall_other_clients() {
    let index = tiny_index(13);
    let mut server = start(index, ServerOptions::default());
    let addr = server.addr();

    let mut slow = connect(addr);
    let raw = b"GET /align?entity=5&k=2 HTTP/1.1\r\nHost: t\r\n\r\n";
    let mut fast = connect(addr);
    for (i, &b) in raw.iter().enumerate() {
        slow.write_all(&[b]).unwrap();
        // Interleave: the fast client gets answered while the slow one
        // is still mid-request-line.
        if i % 16 == 0 {
            let (status, _) = http_get(&mut fast, "/health");
            assert_eq!(status, 200);
        }
    }
    let mut reader = BufReader::new(slow.try_clone().unwrap());
    let (status, _, body, _) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert_eq!(get_i64(&json::parse(&body).unwrap(), "entity"), 5);
    server.stop();
}

/// Oversized header lines and malformed request lines get their typed
/// status and a clean close — never a hang or a desynced answer.
#[test]
fn abusive_requests_get_typed_errors_and_close() {
    let index = tiny_index(17);
    let mut server = start(index, ServerOptions::default());
    let addr = server.addr();

    // Header line past MAX_LINE → 431, then EOF.
    let mut conn = connect(addr);
    conn.write_all(b"GET /health HTTP/1.1\r\nX-Big: ").unwrap();
    conn.write_all(&vec![b'x'; 9 * 1024]).unwrap();
    conn.write_all(b"\r\n\r\n").unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let (status, _, _, _) = read_response(&mut reader);
    assert_eq!(status, 431);
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("clean close");
    assert!(
        rest.is_empty(),
        "connection closes after the error response"
    );

    // Garbage request line → 400, then EOF.
    let mut conn = connect(addr);
    conn.write_all(b"GARBAGE\r\n\r\n").unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let (status, _, _, _) = read_response(&mut reader);
    assert_eq!(status, 400);

    // Pipelined valid requests *before* the poison are still answered, in
    // order, before the terminal error.
    let mut conn = connect(addr);
    conn.write_all(b"GET /health HTTP/1.1\r\n\r\nGET /health HTTP/1.1\r\n\r\nGARBAGE\r\n\r\n")
        .unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    for _ in 0..2 {
        let (status, _, _, _) = read_response(&mut reader);
        assert_eq!(status, 200);
    }
    let (status, _, _, _) = read_response(&mut reader);
    assert_eq!(status, 400);

    // The server is still healthy afterwards.
    let mut conn = connect(addr);
    assert_eq!(http_get(&mut conn, "/health").0, 200);
    server.stop();
}

/// A client that keeps sending after its request was refused still reads
/// the whole refusal and then a clean end of stream. Here the client writes
/// 256 KiB more after its header line passed the 8 KiB cap, on a thread of
/// its own, while it reads. A server that closes with those bytes unread
/// makes the kernel answer them with a reset, and the client's read fails
/// instead of ending. The server closes its write half after the response
/// instead, and discards what still arrives before it closes.
#[test]
fn a_refused_client_that_keeps_writing_reads_the_error_then_eof() {
    let index = tiny_index(23);
    let mut server = start(index, ServerOptions::default());
    let addr = server.addr();
    for round in 0..5 {
        let mut conn = connect(addr);
        conn.write_all(b"GET /health HTTP/1.1\r\nX-Big: ").unwrap();
        let mut writer = conn.try_clone().unwrap();
        let pump = std::thread::spawn(move || {
            let chunk = [b'x'; 16 * 1024];
            (0..16).all(|_| writer.write_all(&chunk).is_ok())
        });
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let (status, _, _, _) = read_response(&mut reader);
        assert_eq!(status, 431, "round {round}");
        let mut rest = Vec::new();
        if let Err(e) = reader.read_to_end(&mut rest) {
            panic!("round {round}: the refusal ended in {e}, not in EOF");
        }
        assert!(rest.is_empty(), "round {round}: bytes after the refusal");
        assert!(
            pump.join().unwrap(),
            "round {round}: the server stopped taking bytes"
        );
    }
    server.stop();
}

/// Clients that vanish mid-request leak nothing: the reactor reaps the
/// connection and keeps serving.
#[test]
fn mid_request_disconnects_are_reaped() {
    let index = tiny_index(19);
    let mut server = start(index, ServerOptions::default());
    let addr = server.addr();

    for i in 0..20 {
        let mut conn = connect(addr);
        // Torn at a different offset every iteration.
        let raw = b"GET /align?entity=1&k=2 HTTP/1.1\r\nHost: t\r\n\r\n";
        let cut = 1 + (i * 2) % (raw.len() - 1);
        conn.write_all(&raw[..cut]).unwrap();
        drop(conn);
    }
    // All aborted connections are eventually closed; the poller's own
    // stats connection is the only one left.
    let stats = wait_for_stats(
        addr,
        |s| get_i64(s, "open_conns") <= 1,
        "aborted connections to be reaped",
    );
    assert!(get_i64(&stats, "accepted_total") >= 20);
    let mut conn = connect(addr);
    assert_eq!(http_get(&mut conn, "/align?entity=2&k=2").0, 200);
    server.stop();
}

/// The graceful-shutdown contract: a request written to a connection
/// whose handshake completed is answered even when `stop()` lands
/// immediately after — whether the reactor had accepted the connection
/// yet or it still sat in the kernel backlog. A pipelined `/stats` burst
/// keeps the event loop answering inline while the clients connect and
/// write, so they are all still unaccepted when the flag flips.
#[test]
fn shutdown_never_drops_an_accepted_request() {
    for round in 0..5 {
        let index = tiny_index(23 + round);
        let mut server = start(index, ServerOptions::default());
        let addr = server.addr();

        let mut busy = connect(addr);
        assert_eq!(http_get(&mut busy, "/health").0, 200);
        busy.write_all("GET /stats HTTP/1.1\r\n\r\n".repeat(256).as_bytes())
            .unwrap();
        // One request in flight per connection (fewer connections than
        // `queue_cap`, so none may be shed), then stop the server before
        // reading any response.
        let conns: Vec<TcpStream> = (0..32)
            .map(|i| {
                let mut c = connect(addr);
                c.write_all(
                    format!("GET /align?entity={i}&k=3 HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
                )
                .unwrap();
                c
            })
            .collect();
        // Unread responses must not hold the drain for its grace period.
        drop(busy);
        server.stop();
        for (i, conn) in conns.into_iter().enumerate() {
            let mut reader = BufReader::new(conn);
            let (status, _, body, _) = read_response(&mut reader);
            assert_eq!(status, 200, "round {round}: in-flight request dropped");
            assert_eq!(get_i64(&json::parse(&body).unwrap(), "entity"), i as i64);
        }
    }
}

/// Latency-aware admission control: with an absurdly tight budget the
/// windowed p99 is always over it, so align traffic sheds with 503 +
/// `Retry-After` and the decisions are visible in `/stats`.
#[test]
fn admission_control_sheds_over_budget() {
    let index = tiny_index(29);
    let mut server = start(
        index,
        ServerOptions {
            p99_budget_us: 1,
            budget_window: Duration::from_millis(100),
            ..Default::default()
        },
    );
    let addr = server.addr();

    let mut conn = connect(addr);
    let mut shed = 0;
    let mut served = 0;
    let mut saw_retry_after = false;
    for i in 0..200 {
        conn.write_all(
            format!(
                "GET /align?entity={}&k=3 HTTP/1.1\r\nHost: t\r\n\r\n",
                i % 40
            )
            .as_bytes(),
        )
        .unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let (status, headers, body, _) = read_response(&mut reader);
        match status {
            200 => served += 1,
            503 => {
                shed += 1;
                let obj = json::parse(&body).unwrap();
                assert_eq!(
                    obj.get("reason").and_then(Json::as_str),
                    Some("latency"),
                    "shed reason is typed"
                );
                saw_retry_after |= headers.iter().any(|(k, _)| k == "retry-after");
            }
            other => panic!("unexpected status {other}"),
        }
    }
    assert!(served >= 16, "warmup requests are served (got {served})");
    assert!(shed > 0, "a 1µs budget must shed under load");
    assert!(saw_retry_after, "503s carry Retry-After");

    let stats = wait_for_stats(addr, |_| true, "stats");
    let shed_total = stats.get("shed_total").expect("shed_total object");
    assert!(get_i64(shed_total, "latency") as usize >= shed);
    let admission = stats.get("admission").expect("admission object");
    assert_eq!(get_i64(admission, "p99_budget_us"), 1);
    server.stop();
}

/// The open-connection ceiling sheds at accept time with its own reason.
#[test]
fn conn_limit_sheds_at_accept() {
    let index = tiny_index(31);
    let mut server = start(
        index,
        ServerOptions {
            max_conns: 2,
            ..Default::default()
        },
    );
    let addr = server.addr();

    // Two connections hold the ceiling...
    let mut held: Vec<TcpStream> = (0..2).map(|_| connect(addr)).collect();
    for c in held.iter_mut() {
        assert_eq!(http_get(c, "/health").0, 200);
    }
    // ...so the third is answered 503 and closed.
    let extra = connect(addr);
    let mut reader = BufReader::new(extra);
    let (status, _, body, _) = read_response(&mut reader);
    assert_eq!(status, 503);
    assert_eq!(
        json::parse(&body)
            .unwrap()
            .get("reason")
            .and_then(Json::as_str),
        Some("conn_limit")
    );

    // Releasing one held connection frees a slot (checked through the
    // stats route, which itself needs that free slot to connect).
    drop(held.pop());
    let stats = wait_for_stats(
        addr,
        |s| get_i64(s.get("shed_total").unwrap(), "conn_limit") >= 1,
        "conn_limit shed counter",
    );
    assert!(get_i64(&stats, "open_conns") <= 2);
    server.stop();
}

/// A client shed at the ceiling reads its 503 and then the end of stream,
/// even when its whole request reached the server before the shed. A
/// server that closes with that request unread makes the kernel answer it
/// with a reset, and the client's read fails instead of ending. At
/// `max_conns: 1`, with the slot held, a second client writes one `/align`
/// and reads; the held connection reads the shed counter.
#[test]
fn a_shed_client_reads_its_503_then_eof() {
    let index = tiny_index(53);
    let mut server = start(
        index,
        ServerOptions {
            max_conns: 1,
            ..Default::default()
        },
    );
    let addr = server.addr();
    let mut held = connect(addr);
    assert_eq!(http_get(&mut held, "/health").0, 200);
    for round in 0..5 {
        let mut extra = connect(addr);
        extra
            .write_all(b"GET /align?entity=0&k=3 HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let mut reader = BufReader::new(extra);
        let (status, _, body, _) = read_response(&mut reader);
        assert_eq!(status, 503, "round {round}");
        assert_eq!(
            json::parse(&body)
                .unwrap()
                .get("reason")
                .and_then(Json::as_str),
            Some("conn_limit")
        );
        let mut rest = Vec::new();
        if let Err(e) = reader.read_to_end(&mut rest) {
            panic!("round {round}: the shed ended in {e}, not in EOF");
        }
        assert!(rest.is_empty(), "round {round}: bytes after the 503");
        let (status, stats) = http_get(&mut held, "/stats");
        assert_eq!(status, 200);
        assert_eq!(
            get_i64(stats.get("shed_total").unwrap(), "conn_limit"),
            round + 1
        );
    }
    server.stop();
}

/// Connection gauges move with real connections, per-endpoint histograms
/// fill, and `server_mode` reports the active core.
#[test]
fn stats_gauges_track_connections() {
    let index = tiny_index(37);
    let mut server = start(index, ServerOptions::default());
    let addr = server.addr();

    let mut held: Vec<TcpStream> = (0..3).map(|_| connect(addr)).collect();
    for (i, c) in held.iter_mut().enumerate() {
        assert_eq!(http_get(c, &format!("/align?entity={i}&k=2")).0, 200);
    }
    let stats = wait_for_stats(
        addr,
        // The stats-endpoint count lags its own response by one request,
        // so poll until a prior /stats has been recorded too.
        |s| {
            get_i64(s, "open_conns") >= 3
                && get_i64(s.get("endpoints").unwrap().get("stats").unwrap(), "count") >= 1
        },
        "held connections in the gauge",
    );
    assert_eq!(
        stats.get("server_mode").and_then(Json::as_str),
        Some("reactor")
    );
    assert!(
        get_i64(&stats, "accepted_total") >= 4,
        "3 held + stats probes"
    );
    let endpoints = stats.get("endpoints").expect("endpoints");
    assert!(get_i64(endpoints.get("align").unwrap(), "count") >= 3);
    assert!(get_i64(endpoints.get("stats").unwrap(), "count") >= 1);

    drop(held);
    wait_for_stats(addr, |s| get_i64(s, "open_conns") <= 1, "gauge to fall");
    server.stop();
}

/// The ceiling counts a slot as free once its connection has closed, even
/// when the close and the next connection reach the reactor in one wake with
/// the listener reported first. Two pipelined `/stats` bursts arrange exactly
/// that: while the loop answers the first, the over-limit connection and the
/// second burst queue up behind it in that order, so the loop sheds the one
/// and is then busy with the other while this test drops a held connection
/// and connects again — and the level-triggered listener, reported a moment
/// ago, is polled ahead of the dropped connection's hang-up.
#[test]
fn conn_limit_counts_a_slot_freed_in_the_same_wake() {
    let burst = "GET /stats HTTP/1.1\r\n\r\n".repeat(256);
    for round in 0..5 {
        let mut server = start(
            tiny_index(41 + round),
            ServerOptions {
                max_conns: 3,
                ..Default::default()
            },
        );
        let addr = server.addr();
        let mut held: Vec<TcpStream> = (0..3).map(|_| connect(addr)).collect();
        for c in held.iter_mut() {
            assert_eq!(http_get(c, "/health").0, 200);
        }

        held[0].write_all(burst.as_bytes()).unwrap();
        let extra = connect(addr);
        held[1].write_all(burst.as_bytes()).unwrap();
        let (status, ..) = read_response(&mut BufReader::new(extra));
        assert_eq!(status, 503);
        drop(held.pop());
        let mut next = connect(addr);
        assert_eq!(
            http_get(&mut next, "/health").0,
            200,
            "round {round}: shed although a slot was free"
        );
        server.stop();
    }
}

/// A connection that closes after its response lingers to discard input,
/// but holds no slot a new client needs. At `max_conns: 1` a client sends
/// `Connection: close`, reads the response and the end of stream, and keeps
/// its socket open; the next client is served, not shed, because the
/// reactor closes the lingering connection to make room.
#[test]
fn a_lingering_close_gives_its_slot_to_the_next_client() {
    for round in 0..5 {
        let mut server = start(
            tiny_index(47 + round),
            ServerOptions {
                max_conns: 1,
                ..Default::default()
            },
        );
        let addr = server.addr();
        let mut first = connect(addr);
        first
            .write_all(b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut reader = BufReader::new(first.try_clone().unwrap());
        assert_eq!(read_response(&mut reader).0, 200, "round {round}");
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "round {round}: bytes after the response");
        let mut next = connect(addr);
        assert_eq!(
            http_get(&mut next, "/health").0,
            200,
            "round {round}: shed behind a lingering connection"
        );
        drop(first);
        server.stop();
    }
}

/// A job that panics answers 500 in its request's place, and its worker
/// and connection live on. The snapshot's `emb2` is one float short of
/// whole rows, so the kernel sweep's shape assertion fires on every
/// `/align`; one worker means the second panic lands on the thread that
/// survived the first. The first 500 is compared byte for byte.
#[test]
fn a_panicking_job_answers_500_and_its_connection_lives_on() {
    let mut snap = tiny_snapshot(40, 50, 8, 43);
    snap.emb2.pop();
    let opts = IndexOptions::default();
    let index = HotSwapIndex::fixed_with(opts.build(snap), opts);
    let mut server = start(
        index,
        ServerOptions {
            workers: 1,
            ..Default::default()
        },
    );
    let mut conn = connect(server.addr());
    conn.write_all(b"GET /align?entity=0&k=3 HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (_, _, _, raw) = read_response(&mut BufReader::new(conn.try_clone().unwrap()));
    assert_eq!(
        String::from_utf8(raw).unwrap(),
        "HTTP/1.1 500 Internal Server Error\r\n\
         Content-Type: application/json\r\n\
         Content-Length: 49\r\n\
         Connection: keep-alive\r\n\
         \r\n\
         {\n  \"error\": \"internal error: the job panicked\"\n}"
    );
    assert_eq!(http_get(&mut conn, "/health").0, 200);
    assert_eq!(http_get(&mut conn, "/align?entity=1&k=3").0, 500);
    let (status, stats) = http_get(&mut conn, "/stats");
    assert_eq!(status, 200);
    assert_eq!(get_i64(&stats, "panics_total"), 2);

    // Pipelined, the 500s keep their sequence positions.
    conn.write_all(
        b"GET /align?entity=2&k=3 HTTP/1.1\r\n\r\nGET /health HTTP/1.1\r\n\r\n\
          GET /align?entity=3&k=3 HTTP/1.1\r\n\r\nGET /align?entity=4&k=3 HTTP/1.1\r\n\r\n",
    )
    .unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let statuses: Vec<u16> = (0..4).map(|_| read_response(&mut reader).0).collect();
    assert_eq!(statuses, [500, 200, 500, 500]);
    let (_, stats) = http_get(&mut conn, "/stats");
    assert_eq!(get_i64(&stats, "panics_total"), 4, "one per job: {stats:?}");
    server.stop();
}
