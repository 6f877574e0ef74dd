//! A minimal HTTP/1.1 keep-alive client: exactly what the load loops
//! need, with no buffering or parsing beyond the response framing.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A response's status and decoded body.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes (chunked framing removed).
    pub body: Vec<u8>,
}

/// One keep-alive connection.
pub struct Conn {
    stream: BufReader<TcpStream>,
    host: String,
    head: Vec<u8>,
}

impl Conn {
    /// Connects with Nagle off and a read timeout of `timeout`.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Self { stream: BufReader::new(stream), host: addr.to_string(), head: Vec::new() })
    }

    /// Sends one request tagged with `X-Request-Id: request_id` and
    /// reads its response.
    ///
    /// # Errors
    ///
    /// Any transport error; `WouldBlock`/`TimedOut` mean the read timeout
    /// passed.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        request_id: &str,
        body: &[u8],
    ) -> io::Result<Response> {
        self.head.clear();
        write!(
            self.head,
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nX-Request-Id: {request_id}\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            self.host,
            body.len()
        )?;
        let stream = self.stream.get_mut();
        stream.write_all(&self.head)?;
        stream.write_all(body)?;
        read_response(&mut self.stream)
    }
}

/// Whether an I/O error is the read timeout expiring.
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn read_response(stream: &mut BufReader<TcpStream>) -> io::Result<Response> {
    let mut line = String::new();
    if stream.read_line(&mut line)? == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut content_length = 0usize;
    let mut chunked = false;
    loop {
        line.clear();
        stream.read_line(&mut line)?;
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((k, v)) = header.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().map_err(|_| bad("bad content-length"))?;
            } else if k.eq_ignore_ascii_case("transfer-encoding") {
                chunked = v.trim().eq_ignore_ascii_case("chunked");
            }
        }
    }
    let mut body = Vec::new();
    if chunked {
        loop {
            line.clear();
            stream.read_line(&mut line)?;
            let size = usize::from_str_radix(line.trim(), 16).map_err(|_| bad("bad chunk size"))?;
            if size == 0 {
                line.clear();
                stream.read_line(&mut line)?;
                break;
            }
            let start = body.len();
            body.resize(start + size, 0);
            stream.read_exact(&mut body[start..])?;
            let mut crlf = [0u8; 2];
            stream.read_exact(&mut crlf)?;
        }
    } else {
        body.resize(content_length, 0);
        stream.read_exact(&mut body)?;
    }
    Ok(Response { status, body })
}
