//! The benchmark's own HTTP/1.1 client: one keep-alive connection that
//! writes pre-encoded request bytes and reads one `Content-Length`
//! response, plus the reader of a `/subscribe` chunk stream.
//!
//! The repo ships a client (`expfinder_server::client`), but it encodes
//! the request and parses the response JSON inside every call. Here the
//! clock covers only *send → full response on the socket*: requests are
//! encoded before the run and bodies are kept as bytes and parsed after
//! it, so client-side work is not billed to the server — and a later
//! change to the repo's client cannot move the benchmark.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// No response of this benchmark takes anywhere near this long; a
/// socket that stays silent for it is a hung server, reported as a
/// failed op instead of a hung benchmark.
pub const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A complete request with a JSON body (empty body: no content type).
pub fn encode_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n");
    if !body.is_empty() {
        head.push_str("Content-Type: application/json\r\n");
    }
    head.push_str(&format!(
        "Content-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len()
    ));
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn open(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

/// Buffered reader over a socket that hands out exact byte counts and
/// CRLF-terminated lines.
struct Reader {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
}

impl Reader {
    fn new(stream: TcpStream) -> Reader {
        Reader {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            pos: 0,
        }
    }

    fn fill(&mut self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        let old = self.buf.len();
        self.buf.resize(old + 16 * 1024, 0);
        let n = self.stream.read(&mut self.buf[old..])?;
        self.buf.truncate(old + n);
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed by the server",
            ));
        }
        Ok(())
    }

    /// The next line without its CRLF.
    fn line(&mut self) -> io::Result<String> {
        loop {
            if let Some(at) = self.buf[self.pos..].iter().position(|&b| b == b'\n') {
                let line = &self.buf[self.pos..self.pos + at];
                let line = line.strip_suffix(b"\r").unwrap_or(line);
                let text = std::str::from_utf8(line)
                    .map_err(|_| bad("non-utf8 header line"))?
                    .to_owned();
                self.pos += at + 1;
                return Ok(text);
            }
            self.fill()?;
        }
    }

    /// Exactly `n` bytes appended to `out`.
    fn take(&mut self, n: usize, out: &mut Vec<u8>) -> io::Result<()> {
        let mut left = n;
        while left > 0 {
            if self.pos == self.buf.len() {
                self.fill()?;
            }
            let chunk = left.min(self.buf.len() - self.pos);
            out.extend_from_slice(&self.buf[self.pos..self.pos + chunk]);
            self.pos += chunk;
            left -= chunk;
        }
        Ok(())
    }

    /// Status and headers of one response head.
    fn head(&mut self) -> io::Result<(u16, Vec<(String, String)>)> {
        let status_line = self.line()?;
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {status_line:?}")))?;
        let mut headers = Vec::new();
        loop {
            let line = self.line()?;
            if line.is_empty() {
                return Ok((status, headers));
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| bad(format!("bad header line {line:?}")))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
    }
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// One keep-alive connection; one request in flight at a time.
pub struct Conn {
    reader: Reader,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        Ok(Conn {
            reader: Reader::new(open(addr)?),
        })
    }

    /// Send `request`, read the whole response; the body replaces the
    /// contents of `body`. Returns the status.
    pub fn roundtrip(&mut self, request: &[u8], body: &mut Vec<u8>) -> io::Result<u16> {
        self.reader.stream.write_all(request)?;
        let (status, headers) = self.reader.head()?;
        let len: usize = header(&headers, "content-length")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("response without Content-Length"))?;
        body.clear();
        self.reader.take(len, body)?;
        Ok(status)
    }

    /// `GET path`, expecting 200; the body as text.
    pub fn get(&mut self, path: &str) -> io::Result<String> {
        let mut body = Vec::new();
        let status = self.roundtrip(&encode_request("GET", path, ""), &mut body)?;
        if status != 200 {
            return Err(bad(format!("GET {path} answered {status}")));
        }
        String::from_utf8(body).map_err(|_| bad("non-utf8 body"))
    }
}

/// One frame of a subscription stream and when its last byte arrived.
#[derive(Debug)]
pub struct Frame {
    pub at: Instant,
    pub bytes: Vec<u8>,
}

/// A `/subscribe` stream read on its own thread, so a frame's arrival
/// time is taken when it arrives, not when the driver gets round to it.
pub struct Subscriber {
    frames: Receiver<Frame>,
    thread: Option<JoinHandle<()>>,
}

impl Subscriber {
    /// Subscribe to every registered query of `graph`; returns once the
    /// stream head (status 200, chunked) has been read.
    pub fn attach(addr: SocketAddr, graph: &str) -> io::Result<Subscriber> {
        let mut stream = open(addr)?;
        // the stream is quiet between updates for as long as reads take
        stream.set_read_timeout(None)?;
        stream.write_all(
            format!(
                "POST /graphs/{graph}/subscribe HTTP/1.1\r\nHost: bench\r\n\
                 Content-Length: 0\r\nConnection: close\r\n\r\n"
            )
            .as_bytes(),
        )?;
        let mut reader = Reader::new(stream);
        let (status, headers) = reader.head()?;
        if status != 200 {
            return Err(bad(format!("subscribe answered {status}")));
        }
        if !header(&headers, "transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked"))
        {
            return Err(bad("subscription response is not chunked"));
        }
        let (tx, frames) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("subscriber".into())
            .spawn(move || {
                // ends on the terminal chunk, on EOF (the server was
                // killed) or when the receiver is gone
                while let Ok(Some(bytes)) = read_chunk(&mut reader) {
                    let frame = Frame {
                        at: Instant::now(),
                        bytes,
                    };
                    if tx.send(frame).is_err() {
                        break;
                    }
                }
            })?;
        Ok(Subscriber {
            frames,
            thread: Some(thread),
        })
    }

    /// The next frame, waiting at most `timeout`.
    pub fn next(&self, timeout: Duration) -> Option<Frame> {
        self.frames.recv_timeout(timeout).ok()
    }

    /// Wait for the reader thread; call after the server is gone (its
    /// death is what ends the stream).
    pub fn join(mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One chunk's payload, `None` on the terminal zero-length chunk.
fn read_chunk(reader: &mut Reader) -> io::Result<Option<Vec<u8>>> {
    let size_line = reader.line()?;
    let size_text = size_line.split(';').next().unwrap_or("").trim();
    let size = usize::from_str_radix(size_text, 16)
        .map_err(|_| bad(format!("bad chunk size {size_line:?}")))?;
    if size > 64 * 1024 * 1024 {
        return Err(bad("chunk larger than any frame this server sends"));
    }
    if size == 0 {
        return Ok(None);
    }
    let mut bytes = Vec::with_capacity(size);
    reader.take(size, &mut bytes)?;
    reader.line()?; // the CRLF after the payload
    Ok(Some(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_framing() {
        let r = encode_request("POST", "/graphs/g/query", "{}");
        let text = String::from_utf8(r).unwrap();
        assert!(text.starts_with("POST /graphs/g/query HTTP/1.1\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        let g = String::from_utf8(encode_request("GET", "/metrics", "")).unwrap();
        assert!(g.contains("Content-Length: 0\r\n") && !g.contains("Content-Type"));
    }
}
