//! Per-connection nonblocking HTTP/1.1 machinery for the reactor: an
//! incremental request parser that tolerates arbitrarily torn reads, and
//! the [`Conn`] state the event loop drives.
//!
//! ## Parser contract
//!
//! [`HttpParser::feed`] accepts bytes in any fragmentation — one byte at a
//! time (a slowloris client), a torn request split across reads, or a
//! pipelined burst of many requests in one read — and
//! [`HttpParser::next_request`] yields complete requests in arrival order.
//! Every malformed or abusive input surfaces as a typed [`ParseError`]
//! (mapped to a final HTTP status by the reactor before the connection is
//! closed), never as a panic or an unbounded buffer:
//!
//! * request or header lines past [`MAX_LINE`] bytes → [`ParseError::LineTooLong`];
//! * more than [`MAX_HEADERS`] header lines → [`ParseError::TooManyHeaders`];
//! * a request line that is not `METHOD TARGET VERSION` → [`ParseError::MalformedRequestLine`];
//! * a declared body past [`MAX_BODY`] bytes → [`ParseError::BodyTooLarge`]
//!   (the routes are GET-only, but a well-formed POST must still be framed
//!   correctly so the connection can answer 405 and stay in sync).
//!
//! Consumed bytes are compacted out of the buffer between requests, so a
//! long-lived keep-alive connection holds at most one in-progress request
//! head plus whatever the client has pipelined ahead.

use std::collections::VecDeque;
use std::fmt;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};

/// Longest accepted request/header line, bytes (including CRLF).
pub const MAX_LINE: usize = 8 * 1024;
/// Most header lines accepted per request.
pub const MAX_HEADERS: usize = 128;
/// Largest accepted (and skipped) request body, bytes.
pub const MAX_BODY: usize = 64 * 1024;

/// Why a connection's byte stream was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// A request or header line exceeded [`MAX_LINE`] bytes.
    LineTooLong { limit: usize },
    /// A request carried more than [`MAX_HEADERS`] header lines.
    TooManyHeaders { limit: usize },
    /// The request line was not `METHOD TARGET VERSION`.
    MalformedRequestLine,
    /// A declared `Content-Length` exceeded [`MAX_BODY`] bytes.
    BodyTooLarge { limit: usize },
}

impl ParseError {
    /// The HTTP status the reactor answers with before closing.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::LineTooLong { .. } | ParseError::TooManyHeaders { .. } => 431,
            ParseError::MalformedRequestLine => 400,
            ParseError::BodyTooLarge { .. } => 413,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::LineTooLong { limit } => {
                write!(f, "request line or header exceeds {limit} bytes")
            }
            ParseError::TooManyHeaders { limit } => {
                write!(f, "request carries more than {limit} header lines")
            }
            ParseError::MalformedRequestLine => write!(f, "malformed request line"),
            ParseError::BodyTooLarge { limit } => {
                write!(f, "request body exceeds {limit} bytes")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// One fully parsed request head (the served routes carry no meaningful
/// bodies; any declared body has already been skipped by the parser).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpRequest {
    pub method: String,
    pub path: String,
    /// Raw query string (after `?`), possibly empty.
    pub query: String,
    /// Client asked for `Connection: close`.
    pub close: bool,
    /// When the head finished parsing, µs on the server's shared clock
    /// (stamped by the reactor; latency is measured from here).
    pub parsed_us: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ParseState {
    /// Waiting for (more of) the request line.
    RequestLine,
    /// Waiting for (more of) the header block.
    Headers,
    /// Discarding `remaining` declared body bytes.
    Body { remaining: usize },
}

/// In-progress request being assembled across feeds.
#[derive(Clone, Debug, Default)]
struct Partial {
    method: String,
    path: String,
    query: String,
    close: bool,
    headers_seen: usize,
    content_length: usize,
}

/// Incremental HTTP/1.1 request-head parser. Feed bytes, pull requests.
pub struct HttpParser {
    buf: Vec<u8>,
    /// Scan offset: bytes before it belong to already-consumed lines.
    scan: usize,
    state: ParseState,
    partial: Partial,
    /// A parse error is terminal: the stream is out of sync, so the
    /// connection must answer (if possible) and close.
    failed: Option<ParseError>,
}

impl Default for HttpParser {
    fn default() -> Self {
        Self::new()
    }
}

impl HttpParser {
    pub fn new() -> Self {
        Self {
            buf: Vec::new(),
            scan: 0,
            state: ParseState::RequestLine,
            partial: Partial::default(),
            failed: None,
        }
    }

    /// Appends newly read bytes. Fragmentation is irrelevant: one byte or
    /// one megabyte per feed parse identically.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete request.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// True when a request head is partially parsed (the client owes us
    /// more bytes to complete it).
    pub fn mid_request(&self) -> bool {
        self.state != ParseState::RequestLine || self.scan > 0 || !self.buf.is_empty()
    }

    /// Extracts the next complete line (without CRLF) starting at `scan`,
    /// or `None` when the buffer ends mid-line. Enforces [`MAX_LINE`].
    fn take_line(&mut self) -> Result<Option<(usize, usize)>, ParseError> {
        let start = self.scan;
        match self.buf[start..].iter().position(|&b| b == b'\n') {
            Some(rel) => {
                let nl = start + rel;
                if nl - start + 1 > MAX_LINE {
                    return Err(ParseError::LineTooLong { limit: MAX_LINE });
                }
                // Trim the optional CR before the LF.
                let end = if nl > start && self.buf[nl - 1] == b'\r' {
                    nl - 1
                } else {
                    nl
                };
                self.scan = nl + 1;
                Ok(Some((start, end)))
            }
            None => {
                if self.buf.len() - start > MAX_LINE {
                    return Err(ParseError::LineTooLong { limit: MAX_LINE });
                }
                Ok(None)
            }
        }
    }

    /// Yields the next complete request, `Ok(None)` when more bytes are
    /// needed, or the terminal [`ParseError`]. Call in a loop to drain a
    /// pipelined burst.
    pub fn next_request(&mut self) -> Result<Option<HttpRequest>, ParseError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        match self.advance() {
            Err(e) => {
                self.failed = Some(e.clone());
                Err(e)
            }
            ok => ok,
        }
    }

    fn advance(&mut self) -> Result<Option<HttpRequest>, ParseError> {
        loop {
            match self.state {
                ParseState::RequestLine => {
                    let Some((s, e)) = self.take_line()? else {
                        return Ok(None);
                    };
                    if s == e {
                        // Tolerate stray blank lines between requests
                        // (robustness note in RFC 9112 §2.2).
                        self.compact();
                        continue;
                    }
                    let line = std::str::from_utf8(&self.buf[s..e])
                        .map_err(|_| ParseError::MalformedRequestLine)?;
                    let mut parts = line.split_whitespace();
                    let (Some(method), Some(target), Some(version)) =
                        (parts.next(), parts.next(), parts.next())
                    else {
                        return Err(ParseError::MalformedRequestLine);
                    };
                    if parts.next().is_some() || !version.starts_with("HTTP/") {
                        return Err(ParseError::MalformedRequestLine);
                    }
                    let (path, query) = match target.split_once('?') {
                        Some((p, q)) => (p.to_string(), q.to_string()),
                        None => (target.to_string(), String::new()),
                    };
                    self.partial = Partial {
                        method: method.to_string(),
                        path,
                        query,
                        close: false,
                        headers_seen: 0,
                        content_length: 0,
                    };
                    self.state = ParseState::Headers;
                }
                ParseState::Headers => {
                    let Some((s, e)) = self.take_line()? else {
                        return Ok(None);
                    };
                    if s == e {
                        // End of head: skip any declared body, then emit.
                        let remaining = self.partial.content_length;
                        if remaining > MAX_BODY {
                            return Err(ParseError::BodyTooLarge { limit: MAX_BODY });
                        }
                        self.state = ParseState::Body { remaining };
                        continue;
                    }
                    self.partial.headers_seen += 1;
                    if self.partial.headers_seen > MAX_HEADERS {
                        return Err(ParseError::TooManyHeaders { limit: MAX_HEADERS });
                    }
                    // Header values are latin-1-ish bytes; only the two
                    // headers we act on need decoding, and both are ASCII.
                    if let Some(colon) = self.buf[s..e].iter().position(|&b| b == b':') {
                        let (k, v) = (&self.buf[s..s + colon], &self.buf[s + colon + 1..e]);
                        if k.eq_ignore_ascii_case(b"connection") {
                            self.partial.close = v.trim_ascii().eq_ignore_ascii_case(b"close");
                        } else if k.eq_ignore_ascii_case(b"content-length") {
                            let v = std::str::from_utf8(v).unwrap_or("").trim();
                            self.partial.content_length =
                                v.parse().map_err(|_| ParseError::MalformedRequestLine)?;
                        }
                    }
                }
                ParseState::Body { remaining } => {
                    let available = self.buf.len() - self.scan;
                    let eat = remaining.min(available);
                    self.scan += eat;
                    if eat < remaining {
                        self.state = ParseState::Body {
                            remaining: remaining - eat,
                        };
                        self.compact();
                        return Ok(None);
                    }
                    self.state = ParseState::RequestLine;
                    let req = HttpRequest {
                        method: std::mem::take(&mut self.partial.method),
                        path: std::mem::take(&mut self.partial.path),
                        query: std::mem::take(&mut self.partial.query),
                        close: self.partial.close,
                        parsed_us: 0,
                    };
                    self.compact();
                    return Ok(Some(req));
                }
            }
        }
    }

    /// Drops consumed bytes. Called at request boundaries so the buffer
    /// never accumulates history.
    fn compact(&mut self) {
        if self.scan > 0 {
            self.buf.drain(..self.scan);
            self.scan = 0;
        }
    }
}

/// Why the reactor should stop servicing a connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnEvent {
    /// Keep going; nothing terminal happened.
    Continue,
    /// Peer closed its write half (EOF observed). Responses already in
    /// flight may still be written back.
    ReadClosed,
    /// The socket errored; drop the connection.
    Broken,
}

/// Stop reading once this many parsed-but-unanswered requests are queued
/// on one connection (per-connection pipelining flow control).
pub const MAX_PIPELINE: usize = 256;
/// Stop reading once this many unsent response bytes are queued.
pub const MAX_OUTBUF: usize = 1 << 20;

/// Input a closing connection discards after its last response before it
/// closes anyway ([`Conn::discard_input`]).
pub const LINGER_BYTES: usize = 1 << 20;

/// [`Conn::discard_input`] on a bare nonblocking `stream`, adding the count
/// to `discarded`.
pub(crate) fn discard_input(stream: &mut TcpStream, discarded: &mut usize) -> bool {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return true,
            Ok(n) => {
                *discarded += n;
                if *discarded >= LINGER_BYTES {
                    return true;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
}

/// Per-connection state the reactor owns: socket, parser, parsed-request
/// queue, and the outgoing byte buffer.
pub struct Conn {
    pub stream: TcpStream,
    pub parser: HttpParser,
    /// Parsed, not yet answered (in arrival order).
    pub pending: VecDeque<HttpRequest>,
    /// Response bytes not yet accepted by the kernel.
    out: Vec<u8>,
    written: usize,
    /// A compute job for this connection is with the workers.
    pub inflight: bool,
    /// Close once `out` drains (terminal response queued).
    pub close_after_flush: bool,
    /// EOF seen; no further requests will arrive.
    pub read_closed: bool,
    /// The last response is flushed and the write half shut: the
    /// connection only discards input until the peer's EOF.
    pub lingering: bool,
    /// Input bytes discarded while lingering.
    discarded: usize,
    /// Slot-reuse guard: completions carry the epoch they were issued
    /// under and are dropped when it no longer matches.
    pub epoch: u64,
    /// Scratch for the registered interest so the reactor only issues
    /// `epoll_ctl(MOD)` when the interest actually changes.
    pub reg_read: bool,
    /// See [`Conn::reg_read`].
    pub reg_write: bool,
}

impl Conn {
    pub fn new(stream: TcpStream, epoch: u64) -> Self {
        Self {
            stream,
            parser: HttpParser::new(),
            pending: VecDeque::new(),
            out: Vec::new(),
            written: 0,
            inflight: false,
            close_after_flush: false,
            read_closed: false,
            lingering: false,
            discarded: 0,
            epoch,
            reg_read: true,
            reg_write: false,
        }
    }

    /// True while per-connection flow control says "stop reading": the
    /// pipeline or the out-buffer is over its bound. Level-triggered epoll
    /// re-reports readability once the reactor resumes reading.
    pub fn throttled(&self) -> bool {
        self.pending.len() >= MAX_PIPELINE || self.out.len() - self.written >= MAX_OUTBUF
    }

    /// Nonblocking read pump: drains the socket into the parser until
    /// `WouldBlock`, EOF, flow-control throttle, or error.
    pub fn fill(&mut self) -> ConnEvent {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if self.throttled() || self.close_after_flush {
                return ConnEvent::Continue;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    return ConnEvent::ReadClosed;
                }
                Ok(n) => self.parser.feed(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return ConnEvent::Continue,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return ConnEvent::Broken,
            }
        }
    }

    /// Starts the close of a connection whose last response is flushed:
    /// shuts the write half, so the peer reads the response and then EOF.
    /// The read half stays open, because closing a socket with input
    /// unread makes the kernel send a reset, which can reach the peer
    /// before it has read the response. False when the shutdown fails.
    pub fn start_linger(&mut self) -> bool {
        self.lingering = true;
        self.stream.shutdown(Shutdown::Write).is_ok()
    }

    /// Reads and drops what the peer still sends, up to `WouldBlock`.
    /// True once the connection should close: the peer's EOF, a socket
    /// error, or [`LINGER_BYTES`] discarded.
    pub fn discard_input(&mut self) -> bool {
        discard_input(&mut self.stream, &mut self.discarded)
    }

    /// Queues response bytes for writing.
    pub fn push_out(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    /// Unsent response bytes.
    pub fn out_pending(&self) -> usize {
        self.out.len() - self.written
    }

    /// Nonblocking write pump: pushes queued bytes until drained or
    /// `WouldBlock`. Compacts the buffer when fully flushed.
    pub fn flush_out(&mut self) -> ConnEvent {
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return ConnEvent::Broken,
                Ok(n) => self.written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return ConnEvent::Continue,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return ConnEvent::Broken,
            }
        }
        self.out.clear();
        self.written = 0;
        ConnEvent::Continue
    }

    /// True when the connection owes nobody anything: no partial request,
    /// no queued requests, no in-flight job, no unsent bytes. Shutdown
    /// closes exactly these; anything else drains first.
    pub fn idle(&self) -> bool {
        self.pending.is_empty()
            && !self.inflight
            && self.out_pending() == 0
            && !self.parser.mid_request()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_all(parser: &mut HttpParser, bytes: &[u8]) -> Vec<HttpRequest> {
        parser.feed(bytes);
        let mut out = Vec::new();
        while let Ok(Some(r)) = parser.next_request() {
            out.push(r);
        }
        out
    }

    #[test]
    fn whole_request_in_one_feed() {
        let mut p = HttpParser::new();
        let reqs = feed_all(
            &mut p,
            b"GET /align?entity=3&k=5 HTTP/1.1\r\nHost: x\r\n\r\n",
        );
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].method, "GET");
        assert_eq!(reqs[0].path, "/align");
        assert_eq!(reqs[0].query, "entity=3&k=5");
        assert!(!reqs[0].close);
        assert!(!p.mid_request());
    }

    #[test]
    fn byte_at_a_time_parses_identically() {
        let raw = b"GET /health HTTP/1.1\r\nConnection: close\r\nHost: a\r\n\r\n";
        let mut p = HttpParser::new();
        let mut got = Vec::new();
        for &b in raw.iter() {
            p.feed(&[b]);
            while let Ok(Some(r)) = p.next_request() {
                got.push(r);
            }
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].path, "/health");
        assert!(got[0].close);
    }

    #[test]
    fn torn_across_arbitrary_boundaries() {
        let raw: &[u8] = b"GET /stats HTTP/1.1\r\nHost: b\r\n\r\nGET /health HTTP/1.1\r\n\r\n";
        for split in 0..raw.len() {
            let mut p = HttpParser::new();
            let mut got = feed_all(&mut p, &raw[..split]);
            got.extend(feed_all(&mut p, &raw[split..]));
            assert_eq!(got.len(), 2, "split at {split}");
            assert_eq!(got[0].path, "/stats");
            assert_eq!(got[1].path, "/health");
        }
    }

    #[test]
    fn pipelined_burst_yields_in_order() {
        let mut p = HttpParser::new();
        let mut raw = Vec::new();
        for i in 0..10 {
            raw.extend_from_slice(format!("GET /align?entity={i}&k=1 HTTP/1.1\r\n\r\n").as_bytes());
        }
        let got = feed_all(&mut p, &raw);
        assert_eq!(got.len(), 10);
        for (i, r) in got.iter().enumerate() {
            assert_eq!(r.query, format!("entity={i}&k=1"));
        }
        assert_eq!(p.buffered(), 0, "consumed bytes are compacted away");
    }

    #[test]
    fn oversized_request_line_is_typed() {
        let mut p = HttpParser::new();
        p.feed(&vec![b'A'; MAX_LINE + 1]);
        assert_eq!(
            p.next_request(),
            Err(ParseError::LineTooLong { limit: MAX_LINE })
        );
        // Terminal: stays failed.
        p.feed(b"\r\n");
        assert!(p.next_request().is_err());
    }

    #[test]
    fn oversized_header_line_is_typed() {
        let mut p = HttpParser::new();
        p.feed(b"GET / HTTP/1.1\r\nX-Big: ");
        p.feed(&vec![b'x'; MAX_LINE]);
        assert_eq!(
            p.next_request(),
            Err(ParseError::LineTooLong { limit: MAX_LINE })
        );
    }

    #[test]
    fn too_many_headers_is_typed() {
        let mut p = HttpParser::new();
        p.feed(b"GET / HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            p.feed(format!("X-{i}: v\r\n").as_bytes());
        }
        p.feed(b"\r\n");
        assert_eq!(
            p.next_request(),
            Err(ParseError::TooManyHeaders { limit: MAX_HEADERS })
        );
    }

    #[test]
    fn malformed_request_lines_are_typed() {
        for raw in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET /x\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"GET /x FTP/1.0\r\n\r\n",
            b"\xff\xfe\xfd words words\r\n\r\n",
        ] {
            let mut p = HttpParser::new();
            p.feed(raw);
            assert_eq!(
                p.next_request(),
                Err(ParseError::MalformedRequestLine),
                "{raw:?}"
            );
        }
    }

    #[test]
    fn declared_body_is_skipped_and_bounded() {
        let mut p = HttpParser::new();
        p.feed(b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /health HTTP/1.1\r\n\r\n");
        let r1 = p.next_request().unwrap().unwrap();
        assert_eq!(r1.method, "POST");
        let r2 = p.next_request().unwrap().unwrap();
        assert_eq!(r2.path, "/health");

        let mut p = HttpParser::new();
        p.feed(
            format!(
                "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY + 1
            )
            .as_bytes(),
        );
        assert_eq!(
            p.next_request(),
            Err(ParseError::BodyTooLarge { limit: MAX_BODY })
        );
    }

    #[test]
    fn torn_body_resumes() {
        let mut p = HttpParser::new();
        p.feed(b"POST /x HTTP/1.1\r\nContent-Length: 4\r\n\r\nab");
        assert_eq!(p.next_request(), Ok(None));
        assert!(p.mid_request());
        p.feed(b"cdGET /health HTTP/1.1\r\n\r\n");
        assert_eq!(p.next_request().unwrap().unwrap().method, "POST");
        assert_eq!(p.next_request().unwrap().unwrap().path, "/health");
    }

    #[test]
    fn mid_request_reports_incomplete_head() {
        let mut p = HttpParser::new();
        assert!(!p.mid_request());
        p.feed(b"GET /ali");
        assert_eq!(p.next_request(), Ok(None));
        assert!(p.mid_request(), "partial request line counts as owed work");
    }

    #[test]
    fn connection_close_detection_is_case_insensitive() {
        let mut p = HttpParser::new();
        p.feed(b"GET / HTTP/1.1\r\nCONNECTION:  CLOSE \r\n\r\n");
        assert!(p.next_request().unwrap().unwrap().close);
        let mut p = HttpParser::new();
        p.feed(b"GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n");
        assert!(!p.next_request().unwrap().unwrap().close);
    }

    #[test]
    fn stray_blank_lines_between_requests_are_tolerated() {
        let mut p = HttpParser::new();
        p.feed(b"GET /a HTTP/1.1\r\n\r\n\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        assert_eq!(p.next_request().unwrap().unwrap().path, "/a");
        assert_eq!(p.next_request().unwrap().unwrap().path, "/b");
    }
}
