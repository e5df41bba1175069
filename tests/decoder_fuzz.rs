//! Seeded byte-level fuzz loops over the two text decoders that face bytes
//! this program did not write: the reactor's incremental HTTP/1.1 parser
//! (`HttpParser::feed` / `next_request`) and `runtime::json::parse`.
//! Whatever the bytes, a decode ends in a typed error or in a value — never
//! a panic, a hang, a stack overflow, or memory out of proportion to the
//! input.
//!
//! Every input is a *seed* — a well-formed request run, a well-formed
//! document, or one built to trip exactly one limit — put through one
//! mutator: a truncation or a bit flip from `testkit::faults`, a splice of a
//! slice of another seed, a duplicated slice, or a flip and a cut together.
//! Beyond "it returns", each loop holds its decoder to what it promises:
//!
//! * **HTTP**: fragmentation is irrelevant — the input fed whole and fed in
//!   random pieces (down to one byte at a time) yields the same requests in
//!   the same order and the same final error; an error is terminal; nothing
//!   is buffered that was not fed.
//! * **JSON**: an error's offset is inside the input; a value re-encodes to
//!   a document that parses back to itself; nesting past `MAX_DEPTH` is an
//!   error, also when it is 100 000 deep (that used to be a stack overflow).
//!
//! Under the counting allocator no decode may have more live than a small
//! multiple of its input: a parser that sized a buffer from what a length
//! field or a nesting depth claims, and not from bytes it holds, would show.
//! One `#[test]` only, for the allocator's sake.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::CountingAlloc;
use openea_runtime::json::{self, Json};
use openea_runtime::rng::{Rng, SeedableRng, SmallRng};
use openea_runtime::testkit::faults::{bit_flips, truncations};
use openea_runtime::testkit::prelude::*;
use openea_serve::conn::{HttpParser, HttpRequest, ParseError, MAX_BODY, MAX_HEADERS, MAX_LINE};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Inputs each loop must get through.
const CASES: u32 = 2400;
const SLACK: usize = 16 * 1024;

static HTTP_INPUTS: AtomicUsize = AtomicUsize::new(0);
static JSON_INPUTS: AtomicUsize = AtomicUsize::new(0);

/// One mutation of `seed`, chosen by `kind`; `a` and `b` place it.
fn mutate(seeds: &[Vec<u8>], seed: usize, kind: u8, a: usize, b: usize) -> Vec<u8> {
    let pristine = &seeds[seed % seeds.len()];
    let len = pristine.len();
    let cut = |bytes: &[u8], at: usize| {
        let cuts = truncations(bytes.len(), 1);
        cuts[at % cuts.len()]
            .apply(bytes)
            .expect("a cut keeps the file")
    };
    let flip = |bytes: &[u8], at: usize| {
        let flips = bit_flips(bytes.len(), 1);
        flips[at % flips.len()]
            .apply(bytes)
            .expect("a flip keeps the file")
    };
    match kind {
        0 => pristine.clone(),
        1 => cut(pristine, a),
        2 => flip(pristine, a),
        3 => {
            // A slice of another seed, spliced in.
            let other = &seeds[b % seeds.len()];
            let from = a % other.len();
            let take = (b / seeds.len()) % (other.len() - from).min(64) + 1;
            let at = (a / other.len().max(1)) % (len + 1);
            let mut out = pristine[..at].to_vec();
            out.extend_from_slice(&other[from..(from + take).min(other.len())]);
            out.extend_from_slice(&pristine[at..]);
            out
        }
        4 => {
            // A slice of itself, repeated in place.
            let from = a % len;
            let take = b % (len - from).min(256) + 1;
            let mut out = pristine[..from + take.min(len - from)].to_vec();
            out.extend_from_slice(&pristine[from..]);
            out
        }
        _ => cut(&flip(pristine, a), b),
    }
}

// ------------------------------------------------------------------ HTTP

fn http_seeds() -> Vec<Vec<u8>> {
    let get = b"GET /align?entity=5&k=10 HTTP/1.1\r\nHost: bench\r\n\r\n".to_vec();
    let mut pipelined = Vec::new();
    for i in 0..8 {
        pipelined.extend_from_slice(
            format!("GET /align?entity={i}&k=3 HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes(),
        );
    }
    let post = b"POST /admin/reload HTTP/1.1\r\nContent-Length: 11\r\nConnection: close\r\n\r\nhello world\
        GET /stats HTTP/1.1\r\n\r\n"
        .to_vec();
    let bare_lf = b"\n\nGET /health HTTP/1.0\nconnection:   CLOSE  \nX-Odd: \xff\xfe:\x00\n\nGET / HTTP/1.1\n\n"
        .to_vec();
    // Each of the next four trips exactly one limit.
    let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE)).into_bytes();
    let long_header = format!(
        "GET / HTTP/1.1\r\nCookie: {}\r\n\r\n",
        "c".repeat(MAX_LINE + 100)
    )
    .into_bytes();
    let mut many_headers = b"GET / HTTP/1.1\r\n".to_vec();
    for i in 0..MAX_HEADERS + 2 {
        many_headers.extend_from_slice(format!("X-{i}: {i}\r\n").as_bytes());
    }
    many_headers.extend_from_slice(b"\r\n");
    let big_body = format!(
        "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        MAX_BODY + 1
    )
    .into_bytes();
    vec![
        get,
        pipelined,
        post,
        bare_lf,
        long_line,
        long_header,
        many_headers,
        big_body,
        b"GET /nover\r\n\r\n".to_vec(),
        b"GET / HTTP/1.1\r\nContent-Length: 18446744073709551616\r\n\r\n".to_vec(),
    ]
}

/// What a byte stream parses to: the requests it completes, then the error
/// that ends it, if one does.
type Parsed = (Vec<HttpRequest>, Option<ParseError>);

/// Feeds `input` in the given pieces, draining after each as the reactor
/// does. The error, once seen, must keep coming back.
fn drive(input: &[u8], pieces: &[usize]) -> Result<Parsed, String> {
    let mut parser = HttpParser::new();
    let mut requests = Vec::new();
    let mut fed = 0;
    for &piece in pieces {
        parser.feed(&input[fed..fed + piece]);
        fed += piece;
        loop {
            match parser.next_request() {
                Ok(Some(request)) => requests.push(request),
                Ok(None) => break,
                Err(e) => {
                    if parser.next_request() != Err(e.clone()) {
                        return Err(format!("{e:?} was not terminal"));
                    }
                    return Ok((requests, Some(e)));
                }
            }
            // A request is at least a line: more of them than bytes is a
            // parser yielding without consuming.
            if requests.len() > input.len() {
                return Err("more requests than bytes".into());
            }
        }
        if parser.buffered() > fed {
            return Err(format!("{} bytes buffered of {fed} fed", parser.buffered()));
        }
    }
    Ok((requests, None))
}

/// `len` split into random pieces: single bytes for a short input (a
/// slowloris client), up to 64 at a time for a long one — the parser
/// rescans an unfinished line at every call.
fn pieces(len: usize, rng: &mut SmallRng) -> Vec<usize> {
    let most = if len <= 512 { 1 } else { 64 };
    let mut out = Vec::new();
    let mut left = len;
    while left > 0 {
        let piece = rng.gen_range(1..=most.min(left));
        out.push(piece);
        left -= piece;
    }
    out
}

props! {
    #![cases = CASES]

    fn http_parser_survives_any_bytes_in_any_fragmentation(
        seed in 0usize..64,
        kind in 0u8..6,
        a in 0usize..1 << 20,
        b in 0usize..1 << 20,
        cuts in 0u64..u64::MAX,
    ) {
        let seeds = http_seeds();
        let input = mutate(&seeds, seed, kind, a, b);
        HTTP_INPUTS.fetch_add(1, Relaxed);
        let whole = drive(&input, &[input.len()]).map_err(PropFail::Fail)?;
        let torn_pieces = pieces(input.len(), &mut SmallRng::seed_from_u64(cuts));
        let (torn, peak) = ALLOC.measure(|| drive(&input, &torn_pieces));
        let torn = torn.map_err(PropFail::Fail)?;
        prop_assert!(
            whole == torn,
            "fragmentation changed the parse:\n whole {whole:?}\n  torn {torn:?}"
        );
        prop_assert!(
            peak <= 4 * input.len() + SLACK,
            "{peak} bytes live for {} bytes of input",
            input.len()
        );
    }
}

/// The seeds are what the mutators start from: each must mean what it was
/// built to mean, or the loop fuzzes around nothing.
fn pristine_http_seeds_parse_as_written() {
    let outcomes: Vec<_> = http_seeds()
        .iter()
        .map(|s| drive(s, &[s.len()]).expect("driven"))
        .map(|(requests, error)| (requests.len(), error))
        .collect();
    let line = Some(ParseError::LineTooLong { limit: MAX_LINE });
    assert_eq!(
        outcomes,
        [
            (1, None),
            (8, None),
            (2, None),
            (2, None),
            (0, line.clone()),
            (0, line),
            (0, Some(ParseError::TooManyHeaders { limit: MAX_HEADERS })),
            (0, Some(ParseError::BodyTooLarge { limit: MAX_BODY })),
            (0, Some(ParseError::MalformedRequestLine)),
            (0, Some(ParseError::MalformedRequestLine)),
        ]
    );
}

// ------------------------------------------------------------------ JSON

fn json_seeds() -> Vec<Vec<u8>> {
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    [
        r#"{"name":"MTransE","hits":[0.25,0.5],"epochs":40,"ok":true,"none":null}"#.to_string(),
        r#"{"a":{"b":{"c":[[],{},[{"d":[1,[2,[3,[4]]]]}]]}},"e":[{"f":{}},{"g":[]}]}"#.to_string(),
        r#"["\"\\\/\b\f\n\r\t","é€","😀","é€😀","\u0000\u001f\u00e9\ud83d\ude00"]"#.to_string(),
        "[0,-0,7,-9223372036854775808,9223372036854775807,9223372036854775808,\
         1e308,-1E-400,0.1e+5,123456789012345678901234567890,1.5,2e0]"
            .to_string(),
        " \t\r\n{ \"spaced\" :\n[ 1 ,\t2 ] ,\"k\": \"v\" }\n ".to_string(),
        nested(json::MAX_DEPTH),
        r#""a lone string""#.to_string(),
        "-12.5e-3".to_string(),
    ]
    .into_iter()
    .map(String::into_bytes)
    .collect()
}

fn finite(v: &Json) -> bool {
    match v {
        Json::Float(f) => f.is_finite(),
        Json::Array(items) => items.iter().all(finite),
        Json::Object(members) => members.iter().all(|(_, v)| finite(v)),
        _ => true,
    }
}

/// A parse ends in an offset inside the input, or in a value that survives
/// its own encoding.
fn check_json(text: &str) -> Result<(), String> {
    let (parsed, peak) = ALLOC.measure(|| json::parse(text));
    if peak > 64 * text.len() + SLACK {
        return Err(format!(
            "{peak} bytes live for {} bytes of input",
            text.len()
        ));
    }
    match parsed {
        Err(e) if e.offset > text.len() => Err(format!("{e} in {} bytes", text.len())),
        Err(_) => Ok(()),
        // JSON has no NaN/∞: the encoder writes `null` for them.
        Ok(value) if !finite(&value) => Ok(()),
        Ok(value) => match json::parse(&value.to_string_pretty()) {
            Ok(again) if again == value => Ok(()),
            other => Err(format!("{value:?} re-encodes to {other:?}")),
        },
    }
}

props! {
    #![cases = CASES]

    fn json_parser_survives_any_bytes(
        seed in 0usize..64,
        kind in 0u8..6,
        a in 0usize..1 << 20,
        b in 0usize..1 << 20,
    ) {
        let seeds = json_seeds();
        let input = mutate(&seeds, seed, kind, a, b);
        JSON_INPUTS.fetch_add(1, Relaxed);
        // A flip can leave bytes that are not UTF-8, which `&str` rules out
        // before the parser: what it would then see is the lossy decoding.
        check_json(&String::from_utf8_lossy(&input)).map_err(PropFail::Fail)?;
    }
}

#[test]
fn decoders_survive_any_bytes() {
    // Everything shares one test: measurements are open while it runs.
    pristine_http_seeds_parse_as_written();
    http_parser_survives_any_bytes_in_any_fragmentation();
    json_parser_survives_any_bytes();
    assert!(HTTP_INPUTS.load(Relaxed) >= 2000 && JSON_INPUTS.load(Relaxed) >= 2000);

    // The nesting limit, at it and past it — far past it: the parser
    // recurses per container, and 100 000 of them used to end the process.
    for seed in json_seeds() {
        check_json(std::str::from_utf8(&seed).unwrap()).unwrap();
        assert!(json::parse(std::str::from_utf8(&seed).unwrap()).is_ok());
    }
    for depth in [json::MAX_DEPTH + 1, 100_000] {
        for open in ["[", "{\"k\":"] {
            let text = open.repeat(depth);
            let err = json::parse(&text).expect_err("too deep");
            assert_eq!(err.message, "nesting too deep", "depth {depth}");
            check_json(&text).unwrap();
        }
    }
}
