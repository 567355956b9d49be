//! Minimal HTTP/1.1 plumbing over `std::net` — just enough protocol for
//! the prediction service and its load generator, with hard limits on
//! everything a hostile client controls (request-line length, header
//! count, body size). No external dependencies.

use std::io::{self, BufRead, Write};

/// Upper bound on the request line plus all headers, in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on the number of request headers.
pub const MAX_HEADERS: usize = 64;

/// A parsed request head (everything before the body).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestHead {
    /// `GET`, `POST`, ...
    pub method: String,
    /// Decoded path component of the target (no query string).
    pub path: String,
    /// Decoded `key=value` pairs of the query string, in order.
    pub query: Vec<(String, String)>,
    /// Declared body length (`Content-Length`), 0 when absent.
    pub content_length: u64,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// Why a request head failed to parse — each maps to one 4xx status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The client closed the connection before sending a request.
    Closed,
    /// Socket-level failure.
    Io(String),
    /// Malformed request line or header (400).
    Malformed(String),
    /// Head grew past [`MAX_HEAD_BYTES`] or [`MAX_HEADERS`] (431).
    HeadTooLarge,
    /// `Content-Length` was present but not a number (400).
    BadContentLength,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::Io(e) => write!(f, "socket error: {e}"),
            HttpError::Malformed(d) => write!(f, "malformed request: {d}"),
            HttpError::HeadTooLarge => write!(f, "request head too large"),
            HttpError::BadContentLength => write!(f, "bad Content-Length"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Decodes `%XX` escapes and `+` (as space) in a query component.
/// Invalid escapes pass through literally — queries never abort parsing.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                let decoded = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok());
                if let Some(v) = decoded {
                    out.push(v);
                    i += 3;
                    continue;
                }
                out.push(b'%');
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// Reads one line (terminated by `\n`) from `r`, enforcing `budget` bytes
/// across the whole head.
fn read_line(r: &mut impl BufRead, budget: &mut usize) -> Result<String, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Err(HttpError::Closed);
                }
                return Err(HttpError::Malformed("truncated head".into()));
            }
            Ok(_) => {
                if *budget == 0 {
                    return Err(HttpError::HeadTooLarge);
                }
                *budget -= 1;
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map_err(|_| HttpError::Malformed("non-UTF-8 head".into()));
                }
                line.push(byte[0]);
            }
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HttpError::Io(e.to_string())),
        }
    }
}

/// Parses one request head from `r`. The body (if any) is left unread —
/// the caller decides whether to stream, bound, or drain it.
pub fn read_request_head(r: &mut impl BufRead) -> Result<RequestHead, HttpError> {
    let mut budget = MAX_HEAD_BYTES;
    let request_line = read_line(r, &mut budget)?;
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m.to_string(), t.to_string(), v.to_string()),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line `{request_line}`"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("unsupported `{version}`")));
    }
    let http_10 = version == "HTTP/1.0";

    let mut content_length = 0u64;
    let mut keep_alive = !http_10;
    let mut headers = 0usize;
    loop {
        let line = read_line(r, &mut budget)?;
        if line.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(HttpError::HeadTooLarge);
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header `{line}`")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                content_length = value.parse().map_err(|_| HttpError::BadContentLength)?;
            }
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v.contains("close") {
                    keep_alive = false;
                } else if v.contains("keep-alive") {
                    keep_alive = true;
                }
            }
            _ => {}
        }
    }

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target, Vec::new()),
    };
    Ok(RequestHead {
        method,
        path: percent_decode(&path),
        query,
        content_length,
        keep_alive,
    })
}

/// Writes a complete response with a `Content-Length` body.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    write!(
        w,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    )?;
    w.write_all(body)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn head(raw: &str) -> Result<RequestHead, HttpError> {
        read_request_head(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_get_with_query() {
        let h = head("GET /predict?workload=nn&scale=0.02&design=big HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        assert_eq!(h.method, "GET");
        assert_eq!(h.path, "/predict");
        let pair = |k: &str, v: &str| (k.to_string(), v.to_string());
        assert_eq!(
            h.query,
            [
                pair("workload", "nn"),
                pair("scale", "0.02"),
                pair("design", "big")
            ]
        );
        assert_eq!(h.content_length, 0);
        assert!(h.keep_alive);
    }

    #[test]
    fn parses_content_length_and_close() {
        let h = head("POST /traces HTTP/1.1\r\nContent-Length: 42\r\nConnection: close\r\n\r\n")
            .unwrap();
        assert_eq!(h.content_length, 42);
        assert!(!h.keep_alive);
    }

    #[test]
    fn percent_decoding_applies_to_queries() {
        let h = head("GET /predict?name=a%20b+c HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(h.query, [("name".to_string(), "a b c".to_string())]);
    }

    #[test]
    fn hostile_heads_are_typed_errors() {
        assert_eq!(head(""), Err(HttpError::Closed));
        assert!(matches!(
            head("garbage\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            head("GET / SPDY/99\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert_eq!(
            head("POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n"),
            Err(HttpError::BadContentLength)
        );
        let huge = format!(
            "GET / HTTP/1.1\r\nX: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        assert_eq!(head(&huge), Err(HttpError::HeadTooLarge));
        let many = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            "A: b\r\n".repeat(MAX_HEADERS + 1)
        );
        assert_eq!(head(&many), Err(HttpError::HeadTooLarge));
    }

    #[test]
    fn response_has_length_and_connection() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "application/json", b"{}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
