//! Minimal HTTP/1.1 framing over blocking sockets.
//!
//! The container builds offline, so there is no tokio/hyper; this module
//! hand-rolls exactly the subset the wire protocol needs — request-line +
//! header parsing, `Content-Length` bodies, keep-alive negotiation,
//! response serialization, and chunked *response* streaming (requests
//! with `Transfer-Encoding` stay rejected with 501; only the server
//! pushes chunks, one subscription frame per chunk) — the same
//! vendored-stand-in philosophy as `vendor/`. Both the server's
//! connection loop and the blocking [`client`](crate::client) parse
//! message heads through [`read_head`], so the two sides cannot drift.
//!
//! Sockets are driven with short read timeouts: [`read_head`] surfaces a
//! timeout *before the first byte* as [`HttpError::Idle`] (the caller
//! decides whether to keep waiting, e.g. to poll a shutdown flag between
//! keep-alive requests), while a stall *mid-message* is retried only up
//! to `deadline` and then fails — a half-written request cannot pin a
//! connection thread forever during a graceful drain.
//!
//! Every message this module writes — a response, a chunked-stream
//! head, one chunk, the terminator — leaves in a single vectored write
//! (`send`): its head is formatted into one small buffer, and the body
//! goes beside it as it is, never copied behind the head. Both ends set
//! `TCP_NODELAY`, so the kernel sends each `write(2)` at once as its own
//! TCP segment, and each can wake the peer: a response formatted piece
//! by piece onto the socket would leave as a dozen segments.

use std::io::{self, BufRead, IoSlice, Write};
use std::time::{Duration, Instant};

/// Hard cap on the request/status line plus all headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Framing failure while reading one HTTP message.
#[derive(Debug)]
pub enum HttpError {
    /// Peer closed the connection cleanly before sending any byte.
    Closed,
    /// Read timed out before the first byte of a message (idle
    /// keep-alive connection, not an error).
    Idle,
    /// Syntactically invalid message → 400.
    Malformed(String),
    /// Head or declared body over the configured limit → 431/413.
    TooLarge(&'static str),
    /// A feature this server does not implement (chunked bodies) → 501.
    Unsupported(&'static str),
    /// Transport failure (including mid-message stall past the deadline).
    Io(io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => f.write_str("connection closed"),
            HttpError::Idle => f.write_str("idle timeout"),
            HttpError::Malformed(m) => write!(f, "malformed message: {m}"),
            HttpError::TooLarge(what) => write!(f, "{what} too large"),
            HttpError::Unsupported(what) => write!(f, "unsupported: {what}"),
            HttpError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// One parsed request (server side).
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path only — query strings are not part of the wire protocol.
    pub path: String,
    /// `true` for HTTP/1.1, `false` for HTTP/1.0.
    pub http11: bool,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_of(&self.headers, name)
    }

    /// Keep-alive negotiation: HTTP/1.1 defaults on, HTTP/1.0 defaults
    /// off, an explicit `Connection` header wins either way. The header
    /// is a comma-separated token list, matched without case and without
    /// allocating; `close` wins over `keep-alive`.
    pub fn wants_keep_alive(&self) -> bool {
        let Some(tokens) = self.header("connection") else {
            return self.http11;
        };
        let has = |want: &str| {
            tokens
                .split(',')
                .any(|t| t.trim().eq_ignore_ascii_case(want))
        };
        !has("close") && (has("keep-alive") || self.http11)
    }
}

/// Case-insensitive lookup in a parsed header list.
pub fn header_of<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// The deadline, checked after *every* chunk — successful reads included,
/// so a client trickling one byte per socket-timeout window cannot
/// outrun it.
fn check_deadline(started: Instant, deadline: Duration) -> Result<(), HttpError> {
    if started.elapsed() >= deadline {
        Err(HttpError::Io(io::Error::new(
            io::ErrorKind::TimedOut,
            "message read deadline exceeded",
        )))
    } else {
        Ok(())
    }
}

/// Read one CRLF (or bare-LF) terminated line, retrying timeouts until
/// `deadline` once at least one byte of the message has been seen.
/// `first_line` controls whether a timeout before any byte is `Idle`.
///
/// Built on `fill_buf`/`consume` rather than `read_until` so the
/// [`MAX_HEAD_BYTES`] cap applies to every chunk as it arrives — a
/// delimiter-free byte stream fails fast instead of accumulating
/// unboundedly inside the reader.
fn read_line(
    r: &mut impl BufRead,
    buf: &mut Vec<u8>,
    started: Instant,
    deadline: Duration,
    first_line: bool,
    total_so_far: usize,
) -> Result<String, HttpError> {
    buf.clear();
    loop {
        let chunk = match r.fill_buf() {
            Ok([]) => {
                return Err(if buf.is_empty() && first_line {
                    HttpError::Closed
                } else {
                    HttpError::Malformed("eof mid-message".into())
                })
            }
            Ok(chunk) => chunk,
            Err(e) if is_timeout(&e) => {
                if first_line && buf.is_empty() && total_so_far == 0 {
                    return Err(HttpError::Idle);
                }
                check_deadline(started, deadline)?;
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HttpError::Io(e)),
        };
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.map_or(chunk.len(), |i| i + 1);
        buf.extend_from_slice(&chunk[..take]);
        r.consume(take);
        if total_so_far + buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge("header section"));
        }
        if newline.is_some() {
            break;
        }
        // a slow-trickle sender makes progress on every chunk and never
        // hits the timeout branch above — bound it here too
        check_deadline(started, deadline)?;
    }
    let mut end = buf.len() - 1;
    if end > 0 && buf[end - 1] == b'\r' {
        end -= 1;
    }
    String::from_utf8(buf[..end].to_vec())
        .map_err(|_| HttpError::Malformed("non-utf8 header line".into()))
}

/// Read a start line plus headers (up to the blank line). Shared by the
/// server (request head) and the client (status head).
pub fn read_head(
    r: &mut impl BufRead,
    deadline: Duration,
) -> Result<(String, Vec<(String, String)>), HttpError> {
    let started = Instant::now();
    let mut buf = Vec::new();
    let mut total = 0usize;
    let start_line = read_line(r, &mut buf, started, deadline, true, total)?;
    if start_line.is_empty() {
        return Err(HttpError::Malformed("empty start line".into()));
    }
    total += buf.len();
    let mut headers = Vec::new();
    loop {
        let line = read_line(r, &mut buf, started, deadline, false, total)?;
        total += buf.len();
        if line.is_empty() {
            return Ok((start_line, headers));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header without ':': {line:?}")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed(format!("bad header name {name:?}")));
        }
        headers.push((name.to_owned(), value.trim().to_owned()));
    }
}

/// Read a `Content-Length` body, enforcing `max_body` **before** any
/// allocation. The buffer then grows only as bytes arrive (doubling,
/// never past the declared length), so a declared length costs memory
/// only once its bytes are sent — the client reads responses with no cap.
pub fn read_body(
    r: &mut impl BufRead,
    headers: &[(String, String)],
    max_body: usize,
    deadline: Duration,
) -> Result<Vec<u8>, HttpError> {
    if header_of(headers, "transfer-encoding").is_some() {
        return Err(HttpError::Unsupported("transfer-encoding"));
    }
    let len = match header_of(headers, "content-length") {
        None => return Ok(Vec::new()),
        Some(v) => v
            .trim()
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("bad content-length {v:?}")))?,
    };
    if len > max_body {
        return Err(HttpError::TooLarge("body"));
    }
    let started = Instant::now();
    let (mut body, mut read) = (Vec::new(), 0usize);
    while read < len {
        if read == body.len() {
            // double the buffer once it is full, never past `len`
            let grow = (len - read).min(read.max(64 * 1024));
            body.reserve_exact(grow);
            body.resize(read + grow, 0);
        }
        match r.read(&mut body[read..]) {
            Ok(0) => return Err(HttpError::Malformed("eof mid-body".into())),
            // deadline applies to successful partial reads too (a
            // byte-at-a-time trickle never takes the timeout branch)
            Ok(n) => {
                read += n;
                if read < len {
                    check_deadline(started, deadline)?;
                }
            }
            Err(e) if is_timeout(&e) => check_deadline(started, deadline)?,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
    Ok(body)
}

/// Read one complete request from a connection.
pub fn read_request(
    r: &mut impl BufRead,
    max_body: usize,
    deadline: Duration,
) -> Result<Request, HttpError> {
    let (start, headers) = read_head(r, deadline)?;
    let mut parts = start.split(' ').filter(|s| !s.is_empty());
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m, p, v),
        _ => return Err(HttpError::Malformed(format!("bad request line {start:?}"))),
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => return Err(HttpError::Malformed(format!("bad version {other:?}"))),
    };
    if !path.starts_with('/') {
        return Err(HttpError::Malformed(format!("bad path {path:?}")));
    }
    let body = read_body(r, &headers, max_body, deadline)?;
    Ok(Request {
        method: method.to_owned(),
        // the wire protocol has no query strings; strip one defensively
        path: path.split('?').next().unwrap_or(path).to_owned(),
        http11,
        headers,
        body,
    })
}

/// Canonical reason phrases for the statuses the wire protocol uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// One response ready to serialize.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    pub content_type: &'static str,
    /// Close the connection after this response (overrides keep-alive).
    pub close: bool,
    /// Emit a `Retry-After: <secs>` header — the load-shedding 503 path
    /// uses it to tell well-behaved clients when to come back.
    pub retry_after: Option<u64>,
}

impl Response {
    pub fn json(status: u16, doc: &expfinder_graph::json::Value) -> Response {
        Response::json_text(status, doc.to_string_compact())
    }

    /// A JSON response whose body is already written: the query routes
    /// write their reply straight into `body`.
    pub fn json_text(status: u16, body: String) -> Response {
        Response {
            status,
            body: body.into_bytes(),
            content_type: "application/json",
            close: false,
            retry_after: None,
        }
    }

    /// Serialize onto the wire in one write (see the module docs).
    /// `keep_alive` is the connection-level decision; `self.close`
    /// forces `Connection: close` regardless.
    pub fn write_to(&self, w: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        let conn = if keep_alive && !self.close {
            "keep-alive"
        } else {
            "close"
        };
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            conn
        );
        if let Some(secs) = self.retry_after {
            head.push_str(&format!("Retry-After: {secs}\r\n"));
        }
        head.push_str("\r\n");
        send(w, [head.as_bytes(), &self.body])
    }
}

/// Hand one message, given as its consecutive `parts`, to `w` in
/// vectored writes — one, on a socket whose buffer takes it all — then
/// flush. A short write resumes where it stopped.
pub(crate) fn send<const N: usize>(w: &mut impl Write, parts: [&[u8]; N]) -> io::Result<()> {
    let mut slices = parts.map(IoSlice::new);
    let mut parts = &mut slices[..];
    // drop empty parts up front, so an empty message writes nothing
    IoSlice::advance_slices(&mut parts, 0);
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

// ---------------------------------------------------------------------
// chunked response streaming (subscriptions)
// ---------------------------------------------------------------------

/// Hard cap on one received chunk's declared size — far above any real
/// subscription frame; a larger length field is framing corruption, not
/// an allocation request.
pub const MAX_CHUNK_BYTES: usize = 16 * 1024 * 1024;

/// Write the head of a chunked streaming response. Chunked responses
/// always close the connection when they end — a subscription consumes
/// its connection, so there is no keep-alive to negotiate.
pub fn write_chunked_head(w: &mut impl Write, status: u16, content_type: &str) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
        status,
        reason(status),
        content_type
    );
    send(w, [head.as_bytes()])
}

/// Write one chunk — size line, payload and CRLF in one write — and
/// flush it to the peer. The subscription protocol maps one JSON frame
/// to exactly one chunk, so a reader that decodes chunk-by-chunk never
/// has to scan for frame boundaries. `data` must not be empty — a
/// zero-length chunk is the stream terminator, written by
/// [`finish_chunked`].
pub fn write_chunk(w: &mut impl Write, data: &[u8]) -> io::Result<()> {
    debug_assert!(!data.is_empty(), "empty chunk would terminate the stream");
    let size = format!("{:x}\r\n", data.len());
    send(w, [size.as_bytes(), data, b"\r\n"])
}

/// Terminate a chunked response (`0\r\n\r\n`, no trailers).
pub fn finish_chunked(w: &mut impl Write) -> io::Result<()> {
    send(w, [b"0\r\n\r\n"])
}

/// Read one chunk of a chunked response body (client side). Returns
/// `Ok(None)` on the terminal zero-length chunk. A timeout before the
/// first byte of a chunk surfaces as [`HttpError::Idle`] — the caller
/// decides whether to keep waiting for the next pushed frame — while a
/// stall *mid-chunk* is bounded by `deadline` like any other message.
pub fn read_chunk(r: &mut impl BufRead, deadline: Duration) -> Result<Option<Vec<u8>>, HttpError> {
    let started = Instant::now();
    let mut buf = Vec::new();
    let line = read_line(r, &mut buf, started, deadline, true, 0)?;
    // chunk extensions (";ext=val") are tolerated and ignored
    let size_str = line.split(';').next().unwrap_or("").trim();
    let size = usize::from_str_radix(size_str, 16)
        .map_err(|_| HttpError::Malformed(format!("bad chunk size {line:?}")))?;
    if size > MAX_CHUNK_BYTES {
        return Err(HttpError::TooLarge("chunk"));
    }
    // payload plus its trailing CRLF (the terminal chunk carries no
    // payload but still ends with the empty trailer section's CRLF)
    let mut data = vec![0u8; size + 2];
    let mut read = 0usize;
    while read < data.len() {
        match r.read(&mut data[read..]) {
            Ok(0) => return Err(HttpError::Malformed("eof mid-chunk".into())),
            Ok(n) => {
                read += n;
                if read < data.len() {
                    check_deadline(started, deadline)?;
                }
            }
            Err(e) if is_timeout(&e) => check_deadline(started, deadline)?,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
    if &data[size..] != b"\r\n" {
        return Err(HttpError::Malformed("chunk not CRLF-terminated".into()));
    }
    data.truncate(size);
    if size == 0 {
        Ok(None)
    } else {
        Ok(Some(data))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::io::BufReader;

    const DL: Duration = Duration::from_secs(1);

    fn req(bytes: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(bytes), 1024, DL)
    }

    #[test]
    fn parses_post_with_body() {
        let r = req(b"POST /graphs/g/query HTTP/1.1\r\nHost: x\r\ncontent-length: 4\r\n\r\nabcd")
            .unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/graphs/g/query");
        assert!(r.http11);
        assert_eq!(r.body, b"abcd");
        assert_eq!(r.header("CONTENT-LENGTH"), Some("4"));
        assert!(r.wants_keep_alive());
    }

    #[test]
    fn keep_alive_negotiation() {
        let r = req(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!r.wants_keep_alive());
        let r = req(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
        assert!(!r.wants_keep_alive());
        let r = req(b"GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(r.wants_keep_alive());
    }

    /// `Connection` is a token list matched without case: `close` wins
    /// wherever it stands, and with no header 1.1 keeps the connection
    /// and 1.0 closes it.
    #[test]
    fn connection_tokens_match_without_case() {
        for (version, connection, keep) in [
            ("1.1", Some("Close"), false),
            ("1.1", Some("keep-alive, close"), false),
            ("1.0", Some("keep-alive, close"), false),
            ("1.0", Some("Upgrade ,KEEP-ALIVE"), true),
            ("1.1", Some("keep-alive"), true),
            ("1.1", Some("Upgrade"), true),
            ("1.0", Some("Upgrade"), false),
            ("1.1", None, true),
            ("1.0", None, false),
        ] {
            let header = connection.map_or(String::new(), |c| format!("Connection: {c}\r\n"));
            let head = format!("GET /healthz HTTP/{version}\r\n{header}\r\n");
            let r = req(head.as_bytes()).unwrap();
            assert_eq!(r.wants_keep_alive(), keep, "{head:?}");
        }
    }

    #[test]
    fn bare_lf_lines_and_query_strings_tolerated() {
        let r = req(b"GET /metrics?x=1 HTTP/1.1\nHost: a\n\n").unwrap();
        assert_eq!(r.path, "/metrics");
        assert!(r.body.is_empty());
    }

    #[test]
    fn malformed_requests_rejected() {
        for bytes in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET /x HTTP/2.0\r\n\r\n",
            b"GET nopath HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: nan\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
        ] {
            assert!(
                matches!(req(bytes), Err(HttpError::Malformed(_))),
                "{:?}",
                String::from_utf8_lossy(bytes)
            );
        }
        assert!(matches!(req(b""), Err(HttpError::Closed)));
    }

    /// A client reads responses with no body cap: a head declaring an
    /// absurd length allocates nothing before the body's bytes arrive.
    #[test]
    fn an_absurd_declared_length_allocates_nothing_up_front() {
        let mut r =
            BufReader::new(&b"HTTP/1.1 200 OK\r\nContent-Length: 1152921504606846976\r\n\r\n"[..]);
        let (_, headers) = read_head(&mut r, DL).unwrap();
        let e = read_body(&mut r, &headers, usize::MAX, DL).unwrap_err();
        assert!(
            matches!(&e, HttpError::Malformed(m) if m == "eof mid-body"),
            "{e}"
        );
    }

    #[test]
    fn oversized_body_and_head_rejected_without_allocation() {
        // declared length over the cap fails before reading the body
        let e = req(b"POST /x HTTP/1.1\r\nContent-Length: 9999\r\n\r\n").unwrap_err();
        assert!(matches!(e, HttpError::TooLarge("body")));
        // a huge header section dies at MAX_HEAD_BYTES
        let mut big = b"GET /x HTTP/1.1\r\n".to_vec();
        big.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 10));
        assert!(matches!(
            req(&big),
            Err(HttpError::TooLarge("header section"))
        ));
    }

    /// A reader that yields one byte per call, each after a short sleep —
    /// the "slow loris" shape: every read succeeds, so the socket-timeout
    /// branch never fires and only the explicit deadline check can stop it.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        delay: Duration,
    }

    impl std::io::Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.data.len() || buf.is_empty() {
                return Ok(0);
            }
            std::thread::sleep(self.delay);
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    fn trickle(data: &[u8]) -> BufReader<Trickle> {
        BufReader::new(Trickle {
            data: data.to_vec(),
            pos: 0,
            delay: Duration::from_millis(5),
        })
    }

    #[test]
    fn slow_trickle_body_hits_the_deadline() {
        // 200 declared bytes at 5ms each would take a second; the 40ms
        // deadline must cut it off even though every read makes progress
        let mut head = b"POST /x HTTP/1.1\r\nContent-Length: 200\r\n\r\n".to_vec();
        head.extend(std::iter::repeat_n(b'x', 200));
        let started = Instant::now();
        let e = read_request(&mut trickle(&head), 1024, Duration::from_millis(40)).unwrap_err();
        assert!(matches!(e, HttpError::Io(_)), "{e}");
        assert!(
            started.elapsed() < Duration::from_millis(700),
            "deadline must bound a trickling sender, took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn slow_trickle_head_hits_the_deadline() {
        let mut head = b"GET /x HTTP/1.1\r\n".to_vec();
        head.extend(std::iter::repeat_n(b'a', 200));
        head.extend_from_slice(b": v\r\n\r\n");
        let started = Instant::now();
        let e = read_request(&mut trickle(&head), 1024, Duration::from_millis(40)).unwrap_err();
        assert!(matches!(e, HttpError::Io(_)), "{e}");
        assert!(
            started.elapsed() < Duration::from_millis(700),
            "took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn chunked_bodies_unsupported() {
        let e = req(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert!(matches!(e, HttpError::Unsupported(_)));
    }

    #[test]
    fn chunked_stream_roundtrips() {
        let mut wire = Vec::new();
        write_chunked_head(&mut wire, 200, "application/x-ndjson").unwrap();
        write_chunk(&mut wire, br#"{"frame":"hello"}"#).unwrap();
        write_chunk(&mut wire, br#"{"frame":"update","n":1}"#).unwrap();
        write_chunk(&mut wire, br#"{"frame":"bye"}"#).unwrap();
        finish_chunked(&mut wire).unwrap();

        let mut r = BufReader::new(&wire[..]);
        let (status, headers) = read_head(&mut r, DL).unwrap();
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        assert_eq!(
            header_of(&headers, "transfer-encoding"),
            Some("chunked"),
            "{headers:?}"
        );
        assert_eq!(header_of(&headers, "connection"), Some("close"));
        let mut frames = Vec::new();
        while let Some(chunk) = read_chunk(&mut r, DL).unwrap() {
            frames.push(String::from_utf8(chunk).unwrap());
        }
        assert_eq!(
            frames,
            vec![
                r#"{"frame":"hello"}"#,
                r#"{"frame":"update","n":1}"#,
                r#"{"frame":"bye"}"#
            ]
        );
        // the terminator consumed everything
        assert!(matches!(read_chunk(&mut r, DL), Err(HttpError::Closed)));
    }

    #[test]
    fn bad_chunks_rejected() {
        // non-hex size line
        let mut r = BufReader::new(&b"zz\r\nabc\r\n"[..]);
        assert!(matches!(
            read_chunk(&mut r, DL),
            Err(HttpError::Malformed(_))
        ));
        // payload not CRLF-terminated
        let mut r = BufReader::new(&b"3\r\nabcXX"[..]);
        assert!(matches!(
            read_chunk(&mut r, DL),
            Err(HttpError::Malformed(_))
        ));
        // truncated payload (server died mid-frame)
        let mut r = BufReader::new(&b"10\r\nonly-seven"[..]);
        assert!(matches!(
            read_chunk(&mut r, DL),
            Err(HttpError::Malformed(_))
        ));
        // absurd declared size fails before allocating
        let mut r = BufReader::new(&b"fffffffff\r\n"[..]);
        assert!(matches!(
            read_chunk(&mut r, DL),
            Err(HttpError::TooLarge(_))
        ));
    }

    /// A `Write` that counts its `write` calls: a message written piece
    /// by piece shows up as more than one.
    #[derive(Default)]
    pub(crate) struct CountingWriter {
        pub(crate) writes: usize,
        pub(crate) bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        /// One call, every part taken, as `writev(2)` on a socket with
        /// room.
        fn write_vectored(&mut self, parts: &[IoSlice<'_>]) -> io::Result<usize> {
            self.writes += 1;
            for part in parts {
                self.bytes.extend_from_slice(part);
            }
            Ok(parts.iter().map(|p| p.len()).sum())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Run `emit` on a counting writer; assert it wrote exactly `golden`
    /// (the bytes first, so a framing change and a split write fail with
    /// different messages) and did so in one `write` call.
    pub(crate) fn assert_one_write(
        golden: &str,
        emit: impl FnOnce(&mut CountingWriter) -> io::Result<()>,
    ) {
        let mut w = CountingWriter::default();
        emit(&mut w).unwrap();
        assert_eq!(String::from_utf8(w.bytes).unwrap(), golden);
        assert_eq!(w.writes, 1, "{golden:?} left in {} writes", w.writes);
    }

    #[test]
    fn response_serialization_roundtrips() {
        let doc = expfinder_graph::json::parse(r#"{"ok":true}"#).unwrap();
        assert_one_write(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\
             Connection: keep-alive\r\n\r\n{\"ok\":true}",
            |w| Response::json(200, &doc).write_to(w, true),
        );
        let closing = Response {
            close: true,
            ..Response::json(404, &doc)
        };
        assert_one_write(
            "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\
             Connection: close\r\n\r\n{\"ok\":true}",
            |w| closing.write_to(w, true),
        );
    }

    #[test]
    fn retry_after_header_emitted_when_set() {
        let doc = expfinder_graph::json::parse(r#"{"ok":false}"#).unwrap();
        let shed = Response {
            close: true,
            retry_after: Some(2),
            ..Response::json(503, &doc)
        };
        assert_one_write(
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
             Content-Length: 12\r\nConnection: close\r\nRetry-After: 2\r\n\r\n{\"ok\":false}",
            |w| shed.write_to(w, false),
        );
    }

    /// A `Write` that takes at most 7 bytes per call, across parts, so
    /// a message leaves in many short writes that cut its parts anywhere.
    #[derive(Default)]
    struct SevenBytes(Vec<u8>);

    impl Write for SevenBytes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, parts: &[IoSlice<'_>]) -> io::Result<usize> {
            let start = self.0.len();
            for part in parts {
                let room = 7 - (self.0.len() - start);
                self.0.extend_from_slice(&part[..part.len().min(room)]);
            }
            Ok(self.0.len() - start)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A short writer receives every byte, in order: the same bytes the
    /// encoder that copied head and body into one buffer produced.
    #[test]
    fn a_short_writer_receives_the_whole_message() {
        let copied = |r: &Response, keep_alive: bool| {
            let conn = if keep_alive && !r.close {
                "keep-alive"
            } else {
                "close"
            };
            let mut out = format!(
                "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
                r.status,
                reason(r.status),
                r.content_type,
                r.body.len(),
                conn
            )
            .into_bytes();
            if let Some(secs) = r.retry_after {
                out.extend_from_slice(format!("Retry-After: {secs}\r\n").as_bytes());
            }
            out.extend_from_slice(b"\r\n");
            out.extend_from_slice(&r.body);
            out
        };
        let long = "x".repeat(1000);
        for body in ["", "{\"ok\":true}", &long] {
            for (status, retry_after) in [(200, None), (404, None), (503, Some(2))] {
                for keep_alive in [false, true] {
                    let resp = Response {
                        retry_after,
                        ..Response::json_text(status, body.to_owned())
                    };
                    let mut w = SevenBytes::default();
                    resp.write_to(&mut w, keep_alive).unwrap();
                    assert_eq!(w.0, copied(&resp, keep_alive));
                }
            }
        }
        for data in ["a", "{\"frame\":\"hello\"}\n", &long] {
            let mut w = SevenBytes::default();
            write_chunk(&mut w, data.as_bytes()).unwrap();
            assert_eq!(w.0, format!("{:x}\r\n{data}\r\n", data.len()).into_bytes());
        }
        let mut w = SevenBytes::default();
        finish_chunked(&mut w).unwrap();
        assert_eq!(w.0, b"0\r\n\r\n");
    }

    #[test]
    fn a_chunked_head_frame_and_terminator_are_one_write_each() {
        assert_one_write(
            "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
             Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            |w| write_chunked_head(w, 200, "application/x-ndjson"),
        );
        assert_one_write("12\r\n{\"frame\":\"hello\"}\n\r\n", |w| {
            write_chunk(w, b"{\"frame\":\"hello\"}\n")
        });
        assert_one_write("0\r\n\r\n", finish_chunked);
    }
}
