//! A blocking client for the serving daemon — the piece tests, the soak
//! harness, and the CI parity check drive the wire protocol through.

use crate::http::{read_chunked_body, read_response_head, Request, ResponseHead};
use crate::wire::{assemble, parse_frames, WireBatch};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use xplace_telemetry::Json;

/// The outcome of one `POST /batch` submission.
#[derive(Debug, Clone)]
pub enum Submission {
    /// The batch ran; the stream reassembled into a [`WireBatch`].
    Completed(WireBatch),
    /// The request was rejected before execution.
    Rejected {
        /// HTTP status (400, 413, 429, 503, …).
        status: u16,
        /// The `Retry-After` header, in seconds, when present.
        retry_after: Option<u64>,
        /// The server's plain-text explanation.
        message: String,
    },
}

impl Submission {
    /// Unwraps the completed batch.
    ///
    /// # Panics
    ///
    /// Panics (with the rejection message) if the submission was
    /// rejected — test-suite convenience.
    pub fn expect_completed(self) -> WireBatch {
        match self {
            Submission::Completed(batch) => batch,
            Submission::Rejected {
                status, message, ..
            } => panic!("submission rejected with {status}: {message}"),
        }
    }
}

/// A blocking client bound to one daemon address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    identity: Option<String>,
    deadline_ns: Option<u64>,
}

impl Client {
    /// A client for the daemon at `addr` (`host:port`). Without an
    /// explicit identity the server keys quotas on the peer IP.
    pub fn new(addr: impl Into<String>) -> Self {
        Client {
            addr: addr.into(),
            identity: None,
            deadline_ns: None,
        }
    }

    /// The daemon address this client is bound to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Sets the `X-Client` identity quotas and fairness key on.
    pub fn with_identity(mut self, identity: impl Into<String>) -> Self {
        self.identity = Some(identity.into());
        self
    }

    /// Sets the `X-Deadline-Ns` per-request modeled-time deadline every
    /// job of a submitted batch must finish within.
    pub fn with_deadline_ns(mut self, deadline_ns: u64) -> Self {
        self.deadline_ns = Some(deadline_ns);
        self
    }

    fn request(&self, method: &str, target: &str, body: &[u8]) -> Request {
        let mut headers = vec![("Host".to_string(), self.addr.clone())];
        if let Some(identity) = &self.identity {
            headers.push(("X-Client".to_string(), identity.clone()));
        }
        if let Some(ns) = self.deadline_ns {
            headers.push(("X-Deadline-Ns".to_string(), ns.to_string()));
        }
        Request {
            method: method.into(),
            target: target.into(),
            headers,
            body: body.to_vec(),
        }
    }

    fn send(&self, request: &Request) -> io::Result<(ResponseHead, TcpStream)> {
        let mut stream = TcpStream::connect(&self.addr)?;
        stream.write_all(&request.render())?;
        stream.flush()?;
        let head = read_response_head(&mut stream)?;
        Ok((head, stream))
    }

    /// Submits a manifest to `POST /batch` and, on admission, blocks
    /// until the streamed response completes, reassembling it.
    ///
    /// # Errors
    ///
    /// Network failures and protocol violations (a truncated stream, a
    /// malformed frame) are `io::Error`s; *rejections* (4xx/5xx) are the
    /// [`Submission::Rejected`] value, not an error.
    pub fn submit(&self, manifest: &str) -> io::Result<Submission> {
        let request = self.request("POST", "/batch", manifest.as_bytes());
        let (head, mut stream) = self.send(&request)?;
        if head.status != 200 {
            let retry_after = head
                .header("retry-after")
                .and_then(|v| v.trim().parse().ok());
            let message = read_sized_body(&head, &mut stream)?;
            return Ok(Submission::Rejected {
                status: head.status,
                retry_after,
                message,
            });
        }
        if head
            .header("transfer-encoding")
            .map(|v| !v.eq_ignore_ascii_case("chunked"))
            .unwrap_or(true)
        {
            return Err(invalid("200 response is not chunked"));
        }
        let body = read_chunked_body(&mut stream)?;
        let text = String::from_utf8(body).map_err(|_| invalid("stream is not UTF-8"))?;
        let frames = parse_frames(&text).map_err(invalid)?;
        let batch = assemble(&frames).map_err(invalid)?;
        Ok(Submission::Completed(batch))
    }

    /// Fetches `GET /stats` as parsed JSON.
    ///
    /// # Errors
    ///
    /// Network failures, non-200 statuses, and malformed JSON.
    pub fn stats(&self) -> io::Result<Json> {
        let request = self.request("GET", "/stats", b"");
        let (head, mut stream) = self.send(&request)?;
        let body = read_sized_body(&head, &mut stream)?;
        if head.status != 200 {
            return Err(invalid(format!("/stats returned {}: {body}", head.status)));
        }
        Json::parse(&body).map_err(|e| invalid(format!("bad /stats JSON: {e}")))
    }

    /// Fetches `GET /health` as parsed JSON (`status` is one of `ok`,
    /// `draining`, `degraded`).
    ///
    /// # Errors
    ///
    /// Network failures, non-200 statuses, and malformed JSON.
    pub fn health(&self) -> io::Result<Json> {
        let request = self.request("GET", "/health", b"");
        let (head, mut stream) = self.send(&request)?;
        let body = read_sized_body(&head, &mut stream)?;
        if head.status != 200 {
            return Err(invalid(format!("/health returned {}: {body}", head.status)));
        }
        Json::parse(&body).map_err(|e| invalid(format!("bad /health JSON: {e}")))
    }

    /// Triggers graceful shutdown via `POST /shutdown`.
    ///
    /// # Errors
    ///
    /// Network failures and non-200 statuses.
    pub fn shutdown(&self) -> io::Result<()> {
        let request = self.request("POST", "/shutdown", b"");
        let (head, mut stream) = self.send(&request)?;
        let body = read_sized_body(&head, &mut stream)?;
        if head.status != 200 {
            return Err(invalid(format!(
                "/shutdown returned {}: {body}",
                head.status
            )));
        }
        Ok(())
    }
}

fn invalid(msg: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Reads a `Content-Length`-framed body as UTF-8 text.
fn read_sized_body(head: &ResponseHead, stream: &mut TcpStream) -> io::Result<String> {
    let len: usize = head
        .header("content-length")
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| invalid("response has no Content-Length"))?;
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    String::from_utf8(body).map_err(|_| invalid("response body is not UTF-8"))
}
