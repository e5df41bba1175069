//! The benchmark's HTTP client: request encoding, a response reader that
//! tolerates torn and pipelined reads, and the scanners that pull the fields
//! the checks need out of an `/align` answer.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Appends one keep-alive `GET /align` request for `entity` to `out`.
pub fn push_align_request(out: &mut Vec<u8>, entity: u32, k: usize) {
    let _ = write!(
        out,
        "GET /align?entity={entity}&k={k} HTTP/1.1\r\nHost: bench\r\n\r\n"
    );
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Response<'a> {
    pub status: u16,
    pub body: &'a [u8],
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The status line is not `HTTP/1.x <code> ...`.
    BadStatusLine,
    /// No (valid) `Content-Length` header: the routes never answer without.
    NoContentLength,
}

/// Accumulates bytes as they arrive and yields complete responses in order,
/// however the stream was cut: a response split over many reads, or many
/// responses in one read.
#[derive(Default)]
pub struct ResponseReader {
    buf: Vec<u8>,
    /// Offset of the first byte not yet handed out.
    start: usize,
}

/// Largest head the reader scans for; the server's heads are ~120 bytes.
const MAX_HEAD: usize = 8 * 1024;

impl ResponseReader {
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 64 * 1024 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete response, `None` while it is still incomplete.
    pub fn next_response(&mut self) -> Result<Option<Response<'_>>, FrameError> {
        let pending = &self.buf[self.start..];
        let Some(head_len) = find(pending, b"\r\n\r\n", 0).map(|i| i + 4) else {
            return if pending.len() > MAX_HEAD {
                Err(FrameError::BadStatusLine)
            } else {
                Ok(None)
            };
        };
        let head = &pending[..head_len];
        let status = parse_status(head).ok_or(FrameError::BadStatusLine)?;
        let body_len = content_length(head).ok_or(FrameError::NoContentLength)?;
        if pending.len() < head_len + body_len {
            return Ok(None);
        }
        let body_at = self.start + head_len;
        self.start = body_at + body_len;
        Ok(Some(Response {
            status,
            body: &self.buf[body_at..body_at + body_len],
        }))
    }
}

fn parse_status(head: &[u8]) -> Option<u16> {
    let line = &head[..find(head, b"\r\n", 0)?];
    let rest = line.strip_prefix(b"HTTP/1.")?;
    let code = rest.get(2..5)?;
    if rest.get(1) != Some(&b' ') {
        return None;
    }
    std::str::from_utf8(code).ok()?.parse().ok()
}

fn content_length(head: &[u8]) -> Option<usize> {
    const NAME: &[u8] = b"content-length:";
    head.split(|&b| b == b'\n').find_map(|line| {
        let name = line.get(..NAME.len())?;
        if !name.eq_ignore_ascii_case(NAME) {
            return None;
        }
        std::str::from_utf8(&line[NAME.len()..])
            .ok()?
            .trim()
            .parse()
            .ok()
    })
}

/// First occurrence of `needle` in `hay` at or after `from`.
pub fn find(hay: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    hay.get(from..)?
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|i| i + from)
}

/// The number that follows `key` (and optional spaces) at or after `from`,
/// with the offset just past it.
fn number_after<'a>(body: &'a [u8], key: &[u8], from: usize) -> Option<(&'a str, usize)> {
    let mut at = find(body, key, from)? + key.len();
    while body.get(at) == Some(&b' ') {
        at += 1;
    }
    let len = body[at..]
        .iter()
        .take_while(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        .count();
    let text = std::str::from_utf8(&body[at..at + len]).ok()?;
    Some((text, at + len))
}

/// The `"entity"` an `/align` answer echoes.
pub fn body_entity(body: &[u8]) -> Option<u32> {
    number_after(body, b"\"entity\":", 0)?.0.parse().ok()
}

/// The `"generation"` hex string of an `/align` or `/stats` answer.
pub fn body_generation(body: &[u8]) -> Option<u64> {
    const KEY: &[u8] = b"\"generation\": \"0x";
    let at = find(body, KEY, 0)? + KEY.len();
    let hex = body.get(at..at + 16)?;
    u64::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()
}

/// The `(target, score)` list of an `/align` answer, best first. Scores are
/// printed from the `f32` widened to `f64`, so narrowing the parsed value
/// gives back the served bits.
pub fn body_results(body: &[u8]) -> Option<Vec<(u32, f32)>> {
    let mut at = find(body, b"\"results\":", 0)?;
    let mut results = Vec::new();
    while let Some((target, next)) = number_after(body, b"\"target\":", at) {
        let (score, next) = number_after(body, b"\"score\":", next)?;
        results.push((target.parse().ok()?, score.parse::<f64>().ok()? as f32));
        at = next;
    }
    Some(results)
}

/// One keep-alive connection to the server under test.
pub struct Conn {
    stream: TcpStream,
    reader: ResponseReader,
    scratch: Vec<u8>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A wedged server must fail the run, not hang it past the driver's
        // time limit.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self {
            stream,
            reader: ResponseReader::default(),
            scratch: vec![0u8; 64 * 1024],
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Reads `count` responses and hands each to `on` with its position.
    pub fn recv(
        &mut self,
        count: usize,
        mut on: impl FnMut(usize, Response<'_>),
    ) -> io::Result<()> {
        let mut got = 0;
        while got < count {
            match self.reader.next_response() {
                Ok(Some(resp)) => {
                    on(got, resp);
                    got += 1;
                }
                Ok(None) => {
                    let n = self.stream.read(&mut self.scratch)?;
                    if n == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed the connection",
                        ));
                    }
                    self.reader.feed(&self.scratch[..n]);
                }
                Err(e) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unreadable response: {e:?}"),
                    ))
                }
            }
        }
        Ok(())
    }

    /// One request, one response: `(status, body)`.
    pub fn get(&mut self, target: &str) -> io::Result<(u16, Vec<u8>)> {
        self.send(format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())?;
        let mut answer = (0, Vec::new());
        self.recv(1, |_, resp| answer = (resp.status, resp.body.to_vec()))?;
        Ok(answer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(status: u16, body: &str) -> Vec<u8> {
        format!(
            "HTTP/1.1 {status} X\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
             Connection: keep-alive\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    fn drain(reader: &mut ResponseReader) -> Vec<(u16, String)> {
        let mut out = Vec::new();
        while let Some(r) = reader.next_response().unwrap() {
            out.push((r.status, String::from_utf8(r.body.to_vec()).unwrap()));
        }
        out
    }

    #[test]
    fn a_response_torn_at_every_byte_comes_out_whole() {
        let wire = response(200, "{\"entity\": 7}");
        for cut in 1..wire.len() {
            let mut reader = ResponseReader::default();
            reader.feed(&wire[..cut]);
            assert_eq!(reader.next_response(), Ok(None), "cut at {cut}");
            reader.feed(&wire[cut..]);
            assert_eq!(drain(&mut reader), [(200, "{\"entity\": 7}".to_string())]);
        }
    }

    #[test]
    fn one_byte_at_a_time() {
        let wire = response(404, "{}");
        let mut reader = ResponseReader::default();
        let mut seen = Vec::new();
        for b in &wire {
            reader.feed(std::slice::from_ref(b));
            seen.extend(drain(&mut reader));
        }
        assert_eq!(seen, [(404, "{}".to_string())]);
    }

    #[test]
    fn pipelined_responses_in_one_read_keep_their_order() {
        let mut wire = Vec::new();
        for i in 0..5 {
            wire.extend(response(200, &format!("{{\"entity\": {i}}}")));
        }
        // The last response arrives torn.
        let cut = wire.len() - 3;
        let mut reader = ResponseReader::default();
        reader.feed(&wire[..cut]);
        let first = drain(&mut reader);
        assert_eq!(first.len(), 4);
        reader.feed(&wire[cut..]);
        let rest = drain(&mut reader);
        let entities: Vec<u32> = first
            .iter()
            .chain(&rest)
            .map(|(_, b)| body_entity(b.as_bytes()).unwrap())
            .collect();
        assert_eq!(entities, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn an_empty_body_and_a_long_stream_are_handled() {
        let mut reader = ResponseReader::default();
        reader.feed(&response(503, ""));
        assert_eq!(drain(&mut reader), [(503, String::new())]);
        // Enough traffic to force the buffer to compact many times.
        let body = "x".repeat(1000);
        for _ in 0..300 {
            reader.feed(&response(200, &body));
            reader.feed(&response(200, &body)[..10]);
            assert_eq!(drain(&mut reader).len(), 1);
            reader.feed(&response(200, &body)[10..]);
            assert_eq!(drain(&mut reader).len(), 1);
        }
        assert!(reader.buf.len() < 200 * 1024);
    }

    #[test]
    fn malformed_framing_is_an_error_not_a_hang() {
        let mut reader = ResponseReader::default();
        reader.feed(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n{}");
        assert_eq!(reader.next_response(), Err(FrameError::NoContentLength));
        let mut reader = ResponseReader::default();
        reader.feed(b"ICY 200 OK\r\nContent-Length: 0\r\n\r\n");
        assert_eq!(reader.next_response(), Err(FrameError::BadStatusLine));
        let mut reader = ResponseReader::default();
        reader.feed(&vec![b'a'; MAX_HEAD + 1]);
        assert_eq!(reader.next_response(), Err(FrameError::BadStatusLine));
    }

    #[test]
    fn answer_fields_are_scanned_out_of_the_pretty_json() {
        let body = br#"{
  "entity": 42,
  "k": 2,
  "metric": "cosine",
  "probe": "exact",
  "generation": "0x00ab54a98ceb1f0a",
  "results": [
    {
      "target": 9,
      "score": 0.10000000149011612
    },
    {
      "target": 1234,
      "score": -1.5e-7
    }
  ]
}"#;
        assert_eq!(body_entity(body), Some(42));
        assert_eq!(body_generation(body), Some(0x00ab_54a9_8ceb_1f0a));
        let results = body_results(body).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].0, 9);
        assert_eq!(results[0].1.to_bits(), 0.1f32.to_bits());
        assert_eq!(results[1], (1234, -1.5e-7));
        assert_eq!(body_entity(b"{\"error\": \"x\"}"), None);
        assert_eq!(body_results(b"{\"error\": \"x\"}"), None);
    }

    #[test]
    fn requests_are_pipelined_back_to_back() {
        let mut out = Vec::new();
        push_align_request(&mut out, 5, 10);
        push_align_request(&mut out, 6, 10);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.matches("\r\n\r\n").count(), 2);
        assert!(text.starts_with("GET /align?entity=5&k=10 HTTP/1.1\r\n"));
        assert!(text.contains("GET /align?entity=6&k=10 HTTP/1.1\r\n"));
    }
}
