//! A minimal HTTP/1.1 client for the daemon's one-request-per-connection
//! protocol: every response carries `connection: close`, so a reply ends
//! where the stream ends.

use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A response: status, body, and the time from the first byte sent to
/// the last byte read.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    pub latency: Duration,
}

impl Reply {
    /// The body as UTF-8 (empty on invalid bytes, which then fail the
    /// caller's parse and count as a failed check).
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// Sends one request and reads the whole response.
pub fn send(
    addr: SocketAddr,
    method: &str,
    path: &str,
    content_type: Option<&str>,
    body: &[u8],
) -> io::Result<Reply> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: perfbench\r\n");
    if let Some(ct) = content_type {
        head.push_str(&format!("content-type: {ct}\r\naccept: {ct}\r\n"));
    }
    head.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
    let mut wire = head.into_bytes();
    wire.extend_from_slice(body);

    let started = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(&wire)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let latency = started.elapsed();

    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| io::Error::other("response has no header terminator"))?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::other("response has no status line"))?;
    Ok(Reply { status, body: raw.split_off(split + 4), latency })
}
