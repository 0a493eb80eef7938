//! A minimal, defensive HTTP/1.1 implementation over `std::net`.
//!
//! Scope: exactly what the serving layer needs — request-line + headers +
//! `Content-Length` bodies, keep-alive, and fixed limits so a malicious or
//! broken peer cannot hang a worker or exhaust memory:
//!
//! * header block capped at [`MAX_HEAD_BYTES`], body at [`MAX_BODY_BYTES`];
//! * every socket read runs under the caller-provided timeout, so a
//!   half-open connection times out instead of pinning a pool worker;
//! * chunked transfer encoding and HTTP/2 upgrades are rejected cleanly.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Maximum bytes of request line + headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum request body bytes (an ingest payload dominates; 8 MiB is
/// generous for the GBCO-scale sources this reproduction serves).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Uppercased method token.
    pub method: String,
    /// Request path (query strings are not used by this protocol and are
    /// kept verbatim).
    pub path: String,
    /// Lowercased header names with verbatim values.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// First value of a header, by case-insensitive name.
    fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 defaults to keep-alive unless `Connection: close`).
    pub fn keep_alive(&self) -> bool {
        !matches!(self.header("connection"), Some(v) if v.eq_ignore_ascii_case("close"))
    }
}

/// Why reading a request failed.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection before sending a request — the
    /// normal end of a keep-alive session, not an error to report.
    Closed,
    /// The socket read timed out or failed.
    Io(std::io::Error),
    /// The bytes were not a parseable HTTP/1.1 request. The connection
    /// must close (framing is lost); the status suggests what to say first.
    Malformed {
        /// Status to respond with before closing (400 or 413).
        status: u16,
        /// Human-readable reason.
        reason: String,
    },
}

impl HttpError {
    fn malformed(status: u16, reason: impl Into<String>) -> Self {
        HttpError::Malformed {
            status,
            reason: reason.into(),
        }
    }
}

/// Read one request from the stream. `timeout` bounds each socket read;
/// `Ok(None)`-like clean closes surface as [`HttpError::Closed`].
pub fn read_request(stream: &mut TcpStream, timeout: Duration) -> Result<HttpRequest, HttpError> {
    stream
        .set_read_timeout(Some(timeout))
        .map_err(HttpError::Io)?;

    // Read up to the end of the header block.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::malformed(431, "header block too large"));
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).map_err(|e| {
            if buf.is_empty()
                && matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                )
            {
                HttpError::Closed
            } else {
                HttpError::Io(e)
            }
        })?;
        if n == 0 {
            if buf.is_empty() {
                return Err(HttpError::Closed);
            }
            return Err(HttpError::malformed(400, "connection closed mid-request"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::malformed(400, "header block is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => {
            (m.to_ascii_uppercase(), p.to_string(), v)
        }
        _ => return Err(HttpError::malformed(400, "malformed request line")),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::malformed(400, "unsupported HTTP version"));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::malformed(400, "malformed header line"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut request = HttpRequest {
        method,
        path,
        headers,
        body: Vec::new(),
    };

    if let Some(te) = request.header("transfer-encoding") {
        if !te.eq_ignore_ascii_case("identity") {
            return Err(HttpError::malformed(
                400,
                "chunked bodies are not supported",
            ));
        }
    }

    let content_length = match request.header("content-length") {
        None => 0usize,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::malformed(400, "invalid Content-Length"))?,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::malformed(413, "request body too large"));
    }

    // The body: whatever followed the head in the buffer, then the rest
    // from the socket.
    let mut body = buf[head_end + 4..].to_vec();
    if body.len() > content_length {
        // Pipelined extra bytes would desynchronise framing; reject.
        return Err(HttpError::malformed(
            400,
            "request pipelining is not supported",
        ));
    }
    while body.len() < content_length {
        let mut chunk = [0u8; 8192];
        let want = (content_length - body.len()).min(chunk.len());
        let n = stream.read(&mut chunk[..want]).map_err(HttpError::Io)?;
        if n == 0 {
            return Err(HttpError::malformed(400, "connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    request.body = body;
    Ok(request)
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// Write one response. Always sends `Content-Length` (no chunking), so the
/// connection can stay open when `keep_alive`.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        status,
        reason_phrase(status),
        content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Run `client` against a socket pair and parse one request server-side.
    fn exchange(client: impl FnOnce(&mut TcpStream) + Send) -> Result<HttpRequest, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port binds");
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connects");
                client(&mut stream);
                // Keep the write half open briefly so the server reads it all.
                std::thread::sleep(Duration::from_millis(20));
            });
            let (mut stream, _) = listener.accept().expect("accepts");
            read_request(&mut stream, Duration::from_millis(900))
        })
    }

    #[test]
    fn parses_a_request_with_body_and_headers() {
        let request = exchange(|s| {
            s.write_all(b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\r\n{\"v\":1,...}")
                .unwrap();
        })
        .expect("parses");
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/query");
        assert_eq!(request.header("content-type"), Some("application/json"));
        assert_eq!(request.header("Content-Type"), Some("application/json"));
        assert_eq!(request.body, b"{\"v\":1,...}");
        assert!(request.keep_alive());
    }

    #[test]
    fn split_writes_reassemble() {
        let request = exchange(|s| {
            s.write_all(b"GET /healthz HT").unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(10));
            s.write_all(b"TP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        })
        .expect("parses");
        assert_eq!(request.method, "GET");
        assert!(!request.keep_alive());
    }

    #[test]
    fn malformed_requests_are_rejected_not_hung() {
        let cases: Vec<(&[u8], u16)> = vec![
            (b"NOT A REQUEST\r\n\r\n", 400),
            (b"GET noslash HTTP/1.1\r\n\r\n", 400),
            (b"GET / HTTP/2\r\n\r\n", 400),
            (b"POST / HTTP/1.1\r\nContent-Length: oops\r\n\r\n", 400),
            (
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                400,
            ),
        ];
        for (bytes, expected) in cases {
            match exchange(move |s| {
                s.write_all(bytes).unwrap();
            }) {
                Err(HttpError::Malformed { status, .. }) => assert_eq!(status, expected),
                other => panic!("expected Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_bodies_are_rejected() {
        let head = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        match exchange(move |s| {
            s.write_all(head.as_bytes()).unwrap();
        }) {
            Err(HttpError::Malformed { status, .. }) => assert_eq!(status, 413),
            other => panic!("expected 413, got {other:?}"),
        }
    }

    #[test]
    fn truncated_bodies_time_out_instead_of_hanging() {
        let start = std::time::Instant::now();
        let result = exchange(|s| {
            // Claims 10 bytes, sends 3, keeps the socket open.
            s.write_all(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
                .unwrap();
            std::thread::sleep(Duration::from_millis(1200));
        });
        assert!(matches!(result, Err(HttpError::Io(_))), "got {result:?}");
        assert!(start.elapsed() < Duration::from_secs(5), "must not hang");
    }

    #[test]
    fn clean_close_reports_closed() {
        let result = exchange(|_s| { /* connect and immediately close */ });
        assert!(matches!(result, Err(HttpError::Closed)), "got {result:?}");
    }
}
