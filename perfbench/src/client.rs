//! The benchmark's own HTTP/1.1 client. [`Conn`] sends one request at a
//! time on a keep-alive connection; [`Pipe`] is the open loop's
//! non-blocking connection, which sends each request when it is due,
//! whether or not earlier responses have arrived (HTTP pipelining).

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    /// The server asked to close the connection after this response.
    pub close: bool,
    chunked: bool,
}

enum Parsed {
    /// More bytes are needed; `first_chunk` tells whether a whole chunk
    /// of a chunked body is already in.
    Incomplete {
        first_chunk: bool,
    },
    Done {
        resp: Response,
        used: usize,
    },
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Parses one response from the front of `buf`.
fn parse_response(buf: &[u8]) -> io::Result<Parsed> {
    let Some(head_end) = find(buf, b"\r\n\r\n") else {
        return Ok(Parsed::Incomplete { first_chunk: false });
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let (mut length, mut chunked, mut close) = (None, false, false);
    for h in lines {
        let (name, value) = h.split_once(':').unwrap_or((h, ""));
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => length = Some(value.parse::<usize>().map_err(|_| bad("length"))?),
            "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
            "connection" => close = value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    let mut pos = head_end + 4;
    if !chunked {
        let n = length.ok_or_else(|| bad("response without length"))?;
        if buf.len() < pos + n {
            return Ok(Parsed::Incomplete { first_chunk: false });
        }
        let resp = Response {
            status,
            body: buf[pos..pos + n].to_vec(),
            close,
            chunked,
        };
        return Ok(Parsed::Done {
            resp,
            used: pos + n,
        });
    }
    let mut body = Vec::new();
    let mut chunks = 0;
    loop {
        let incomplete = Parsed::Incomplete {
            first_chunk: chunks > 0,
        };
        let Some(line_len) = find(&buf[pos..], b"\r\n") else {
            return Ok(incomplete);
        };
        let size_text = std::str::from_utf8(&buf[pos..pos + line_len]).unwrap_or("");
        let size = usize::from_str_radix(size_text.split(';').next().unwrap_or("").trim(), 16)
            .map_err(|_| bad(format!("bad chunk size {size_text:?}")))?;
        let data = pos + line_len + 2;
        if buf.len() < data + size + 2 {
            return Ok(incomplete);
        }
        if size == 0 {
            // No trailers: the last chunk is followed by one empty line.
            let resp = Response {
                status,
                body,
                close,
                chunked,
            };
            return Ok(Parsed::Done {
                resp,
                used: data + 2,
            });
        }
        body.extend_from_slice(&buf[data..data + size]);
        chunks += 1;
        pos = data + size + 2;
    }
}

fn request_bytes(path: &str, body: &str) -> Vec<u8> {
    let mut req = format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body.as_bytes());
    req
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    Ok(s)
}

/// One request at a time on a keep-alive connection.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Self {
        Conn {
            addr,
            stream: None,
            buf: Vec::new(),
        }
    }

    /// Sends one request and reads its response to the last byte. Also
    /// returns when the first whole chunk of a chunked body had arrived.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<(Response, Option<Instant>)> {
        let out = self.exchange(path, body);
        if !matches!(&out, Ok((r, _)) if !r.close) {
            self.stream = None;
        }
        out
    }

    fn exchange(&mut self, path: &str, body: &str) -> io::Result<(Response, Option<Instant>)> {
        if self.stream.is_none() {
            let s = connect(self.addr)?;
            s.set_read_timeout(Some(Duration::from_secs(30)))?;
            self.stream = Some(s);
            self.buf.clear();
        }
        let s = self.stream.as_mut().expect("connected above");
        s.write_all(&request_bytes(path, body))?;
        let mut first_chunk = None;
        let mut chunk = vec![0u8; 64 * 1024];
        loop {
            match parse_response(&self.buf)? {
                Parsed::Done { resp, used } => {
                    self.buf.drain(..used);
                    // A chunked body that arrived in one read had its first
                    // chunk complete just now.
                    if resp.chunked {
                        first_chunk.get_or_insert_with(Instant::now);
                    }
                    return Ok((resp, first_chunk));
                }
                Parsed::Incomplete { first_chunk: seen } => {
                    if seen {
                        first_chunk.get_or_insert_with(Instant::now);
                    }
                }
            }
            let n = s.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// A non-blocking pipelined connection: requests are queued and written
/// as the socket accepts them; responses come back in request order.
pub struct Pipe<T> {
    stream: TcpStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    /// Caller tags of the requests still waiting for a response.
    pending: VecDeque<T>,
}

impl<T> Pipe<T> {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = connect(addr)?;
        stream.set_nonblocking(true)?;
        Ok(Pipe {
            stream,
            out: Vec::new(),
            inbuf: Vec::new(),
            pending: VecDeque::new(),
        })
    }

    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    pub fn send(&mut self, path: &str, body: &str, tag: T) {
        self.out.extend_from_slice(&request_bytes(path, body));
        self.pending.push_back(tag);
    }

    /// Writes what the socket takes, reads what has arrived, and returns
    /// every response that is complete, with its tag. `Ok(false)` in the
    /// second place means nothing moved.
    pub fn poll(&mut self) -> io::Result<(Vec<(T, Response)>, bool)> {
        let mut moved = false;
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out.drain(..n);
                    moved = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) if !self.pending.is_empty() => {
                    return Err(io::ErrorKind::UnexpectedEof.into())
                }
                Ok(0) => break,
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    moved = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        let mut done = Vec::new();
        while !self.pending.is_empty() {
            match parse_response(&self.inbuf)? {
                Parsed::Done { resp, used } => {
                    self.inbuf.drain(..used);
                    let tag = self.pending.pop_front().expect("checked non-empty");
                    done.push((tag, resp));
                }
                Parsed::Incomplete { .. } => break,
            }
        }
        Ok((done, moved))
    }
}
