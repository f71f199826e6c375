//! A minimal keep-alive HTTP/1.1 client: one request in flight per
//! connection, responses framed by `Content-Length` (a `304` has no
//! body), reconnecting whenever the server closes.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct HttpClient {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    pub status: u16,
    /// The unquoted `ETag` of the last response, if any.
    pub etag: Option<String>,
    pub body: Vec<u8>,
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

impl HttpClient {
    pub fn new(addr: SocketAddr) -> HttpClient {
        HttpClient {
            addr,
            stream: None,
            buf: Vec::with_capacity(64 * 1024),
            status: 0,
            etag: None,
            body: Vec::with_capacity(64 * 1024),
        }
    }

    fn stream(&mut self) -> std::io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(20)))?;
            s.set_write_timeout(Some(Duration::from_secs(20)))?;
            self.buf.clear();
            self.stream = Some(s);
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    /// Sends one request and reads its response. Any error drops the
    /// connection; the next call reconnects.
    pub fn roundtrip(&mut self, request: &[u8]) -> std::io::Result<()> {
        let r = self.exchange(request);
        if r.is_err() {
            self.stream = None;
        }
        r
    }

    fn exchange(&mut self, request: &[u8]) -> std::io::Result<()> {
        self.stream()?.write_all(request)?;
        let head_end = loop {
            if let Some(p) = find(&self.buf, b"\r\n\r\n") {
                break p;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        self.status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length = None;
        let mut close = false;
        self.etag = None;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else { continue };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(value.parse::<usize>().map_err(|_| bad("bad Content-Length"))?);
            } else if name.eq_ignore_ascii_case("etag") {
                self.etag = Some(value.trim_matches('"').to_string());
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        self.buf.drain(..head_end + 4);
        self.body.clear();
        match (self.status, length) {
            (304, _) => {}
            (_, Some(n)) => {
                while self.buf.len() < n {
                    self.fill()?;
                }
                self.body.extend(self.buf.drain(..n));
            }
            (_, None) => {
                while self.fill().is_ok() {}
                self.body.append(&mut self.buf);
                close = true;
            }
        }
        if close {
            self.stream = None;
        }
        Ok(())
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 32 * 1024];
        let s = self.stream.as_mut().ok_or_else(|| bad("not connected"))?;
        let n = s.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed"));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}
