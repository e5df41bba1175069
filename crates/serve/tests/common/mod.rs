//! The one HTTP test client of the serving suites, and the synthetic
//! snapshot they serve.

use openea_align::Metric;
use openea_approaches::ApproachOutput;
use openea_runtime::json::{self, Json};
use openea_runtime::rng::{Rng, SeedableRng, SmallRng};
use openea_serve::Snapshot;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A deterministic synthetic snapshot — no training, instant startup.
pub fn tiny_snapshot(n1: usize, n2: usize, dim: usize, seed: u64) -> Snapshot {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut emb = |n: usize| -> Vec<f32> {
        (0..n * dim)
            .map(|_| (rng.gen_range(0..2000) as f32 - 1000.0) / 250.0)
            .collect()
    };
    let e1 = emb(n1);
    let e2 = emb(n2);
    let names2 = (0..n2).map(|i| format!("kg2/e{i}")).collect();
    Snapshot::from_output(
        &ApproachOutput::new(dim, Metric::Cosine, e1, e2),
        Vec::new(),
        names2,
    )
}

/// Connects with a read timeout, so a server that never answers fails the
/// test instead of hanging it.
pub fn connect(addr: SocketAddr) -> TcpStream {
    let conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    conn
}

/// Reads one complete HTTP response; returns (status, headers, body, raw).
pub fn read_response(
    reader: &mut BufReader<TcpStream>,
) -> (u16, Vec<(String, String)>, String, Vec<u8>) {
    let mut raw = Vec::new();
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    assert!(!status_line.is_empty(), "unexpected EOF before status line");
    raw.extend_from_slice(status_line.as_bytes());
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        raw.extend_from_slice(line.as_bytes());
        let line = line.trim();
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().expect("length");
            }
            headers.push((k.trim().to_lowercase(), v.trim().to_string()));
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    raw.extend_from_slice(&body);
    (status, headers, String::from_utf8(body).unwrap(), raw)
}

/// One keep-alive GET; returns (status, parsed JSON).
pub fn http_get(conn: &mut TcpStream, path: &str) -> (u16, Json) {
    conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let (status, _, body, _) = read_response(&mut reader);
    (status, json::parse(&body).expect("json body"))
}
