//! An incremental reader of the daemon's chunked frame stream.
//!
//! `xplace_serve::Client::submit` returns only once the whole response has
//! arrived, which hides when each frame came. This reader hands out each
//! frame line as soon as its last byte is read, so the caller can stamp
//! the arrival of `hello`, `start`, `job` and `batch` frames and separate
//! queue wait from service time. It accepts any fragmentation of the
//! byte stream, down to one byte per read.

use std::io::{self, Read};

/// The status line and framing headers of a response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Head {
    /// HTTP status code.
    pub status: u16,
    /// `Transfer-Encoding: chunked`.
    pub chunked: bool,
    /// `Content-Length`, when present.
    pub content_length: Option<usize>,
}

/// Reads one HTTP response incrementally from `R`.
#[derive(Debug)]
pub struct FrameStream<R> {
    inner: R,
    buf: Vec<u8>,
    pos: usize,
    /// Body bytes of the current chunk not yet consumed.
    chunk_left: usize,
    /// The CRLF that closes a fully consumed chunk is still unread.
    chunk_crlf: bool,
    /// The zero-size chunk has been read.
    done: bool,
    /// Frame bytes received but not yet ended by a newline.
    partial: Vec<u8>,
    /// Bytes read from `inner` so far.
    pub bytes: usize,
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl<R: Read> FrameStream<R> {
    /// Wraps a reader positioned at the start of a response.
    pub fn new(inner: R) -> Self {
        FrameStream {
            inner,
            buf: Vec::new(),
            pos: 0,
            chunk_left: 0,
            chunk_crlf: false,
            done: false,
            partial: Vec::new(),
            bytes: 0,
        }
    }

    /// Buffered bytes not yet consumed.
    fn available(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Refills the buffer with one `read`; `UnexpectedEof` at end of input.
    fn fill(&mut self) -> io::Result<()> {
        if self.available() > 0 {
            return Ok(());
        }
        self.buf.resize(16 * 1024, 0);
        let n = loop {
            match self.inner.read(&mut self.buf) {
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "response ended early",
            ));
        }
        self.buf.truncate(n);
        self.pos = 0;
        self.bytes += n;
        Ok(())
    }

    fn byte(&mut self) -> io::Result<u8> {
        self.fill()?;
        self.pos += 1;
        Ok(self.buf[self.pos - 1])
    }

    /// One CRLF-terminated line, without the CRLF (at most 16 KiB).
    fn line(&mut self) -> io::Result<String> {
        let mut line = Vec::new();
        loop {
            match self.byte()? {
                b'\n' if line.last() == Some(&b'\r') => {
                    line.pop();
                    return String::from_utf8(line).map_err(|_| invalid("header is not UTF-8"));
                }
                b => line.push(b),
            }
            if line.len() > 16 * 1024 {
                return Err(invalid("header line too long"));
            }
        }
    }

    /// Reads the status line and headers.
    pub fn head(&mut self) -> io::Result<Head> {
        let status_line = self.line()?;
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid(format!("bad status line {status_line:?}")))?;
        let mut head = Head {
            status,
            chunked: false,
            content_length: None,
        };
        loop {
            let line = self.line()?;
            if line.is_empty() {
                return Ok(head);
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(invalid(format!("bad header {line:?}")));
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("transfer-encoding") {
                head.chunked = value.eq_ignore_ascii_case("chunked");
            } else if name.eq_ignore_ascii_case("content-length") {
                head.content_length = Some(value.parse().map_err(|_| invalid("bad length"))?);
            }
        }
    }

    /// Reads a `Content-Length` body.
    pub fn sized_body(&mut self, len: usize) -> io::Result<Vec<u8>> {
        let mut body = Vec::with_capacity(len.min(1 << 20));
        while body.len() < len {
            self.fill()?;
            let take = self.available().min(len - body.len());
            body.extend_from_slice(&self.buf[self.pos..self.pos + take]);
            self.pos += take;
        }
        Ok(body)
    }

    /// The next newline-terminated line of the chunked body (without the
    /// newline), returned as soon as its last byte is read; `None` after
    /// the terminating chunk.
    pub fn next_line(&mut self) -> io::Result<Option<String>> {
        loop {
            if let Some(end) = self.partial.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.partial.drain(..=end).collect();
                line.pop();
                return String::from_utf8(line)
                    .map(Some)
                    .map_err(|_| invalid("frame is not UTF-8"));
            }
            if self.done {
                return if self.partial.is_empty() {
                    Ok(None)
                } else {
                    Err(invalid("stream ended inside a frame"))
                };
            }
            if self.chunk_left == 0 {
                if self.chunk_crlf {
                    if self.byte()? != b'\r' || self.byte()? != b'\n' {
                        return Err(invalid("chunk not followed by CRLF"));
                    }
                    self.chunk_crlf = false;
                }
                let size_line = self.line()?;
                let digits = size_line.split(';').next().unwrap_or("").trim();
                let size = usize::from_str_radix(digits, 16)
                    .map_err(|_| invalid(format!("bad chunk size {size_line:?}")))?;
                if size == 0 {
                    while !self.line()?.is_empty() {}
                    self.done = true;
                    continue;
                }
                self.chunk_left = size;
            }
            self.fill()?;
            let take = self.available().min(self.chunk_left);
            self.partial
                .extend_from_slice(&self.buf[self.pos..self.pos + take]);
            self.pos += take;
            self.chunk_left -= take;
            self.chunk_crlf = self.chunk_left == 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xplace_serve::http::{write_response_head, ChunkedWriter};
    use xplace_serve::{parse_frames, Frame};
    use xplace_telemetry::{BatchReport, FromJson, JobRecord, ToJson};

    /// A reader that hands out one byte per `read`.
    struct OneByte<'a>(&'a [u8]);

    impl Read for OneByte<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            match self.0.split_first() {
                Some((&b, rest)) if !out.is_empty() => {
                    out[0] = b;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    fn frames() -> Vec<Frame> {
        let failed = JobRecord::failed("a", "boom");
        vec![
            Frame::Hello {
                jobs: vec!["a".into()],
                threads: 2,
            },
            Frame::Start { job: 0 },
            Frame::Trace {
                job: 0,
                line: "{\"event\":\"iteration\",\"note\":\"a\\nb\"}".into(),
            },
            Frame::Job {
                job: 0,
                record: failed.clone(),
            },
            Frame::Batch {
                report: BatchReport::new(vec![failed]),
                cache: (1, 2),
            },
        ]
    }

    /// The daemon's wire bytes for `frames`, with one frame split over
    /// two chunks and two frames sharing one chunk.
    fn wire(frames: &[Frame]) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_response_head(
            &mut bytes,
            200,
            "OK",
            &[("Transfer-Encoding", "chunked".to_string())],
        )
        .unwrap();
        let lines: Vec<String> = frames.iter().map(|f| f.to_json_string() + "\n").collect();
        let mut writer = ChunkedWriter::new(&mut bytes);
        let (first, second) = lines[0].split_at(lines[0].len() / 2);
        writer.chunk(first.as_bytes()).unwrap();
        writer.chunk(second.as_bytes()).unwrap();
        writer
            .chunk((lines[1].clone() + &lines[2]).as_bytes())
            .unwrap();
        for line in &lines[3..] {
            writer.chunk(line.as_bytes()).unwrap();
        }
        writer.finish().unwrap();
        bytes
    }

    fn read_all(reader: impl Read) -> (Head, Vec<Frame>, usize) {
        let mut stream = FrameStream::new(reader);
        let head = stream.head().unwrap();
        let mut frames = Vec::new();
        while let Some(line) = stream.next_line().unwrap() {
            frames.push(Frame::from_json_str(&line).unwrap());
        }
        (head, frames, stream.bytes)
    }

    #[test]
    fn one_byte_reads_yield_the_same_frames_as_one_read() {
        let want = frames();
        let bytes = wire(&want);
        let (head, whole, n) = read_all(&bytes[..]);
        assert_eq!(head.status, 200);
        assert!(head.chunked);
        assert_eq!(whole, want);
        assert_eq!(n, bytes.len());
        let (_, split, n) = read_all(OneByte(&bytes));
        assert_eq!(split, want);
        assert_eq!(n, bytes.len());
        let body: String = want.iter().map(|f| f.to_json_string() + "\n").collect();
        assert_eq!(parse_frames(&body).unwrap(), want);
    }

    #[test]
    fn truncated_streams_are_errors() {
        let bytes = wire(&frames());
        for cut in [10, bytes.len() / 2, bytes.len() - 3] {
            let mut stream = FrameStream::new(OneByte(&bytes[..cut]));
            let result = stream.head().and_then(|_| loop {
                if stream.next_line()?.is_none() {
                    break Ok(());
                }
            });
            assert!(
                result.is_err(),
                "a stream cut at byte {cut} must not end cleanly"
            );
        }
    }

    #[test]
    fn rejections_carry_a_sized_body() {
        let mut bytes = Vec::new();
        xplace_serve::http::write_response(
            &mut bytes,
            429,
            "Too Many Requests",
            &[],
            "text/plain",
            b"quota\n",
        )
        .unwrap();
        let mut stream = FrameStream::new(OneByte(&bytes));
        let head = stream.head().unwrap();
        assert_eq!(head.status, 429);
        assert_eq!(
            stream.sized_body(head.content_length.unwrap()).unwrap(),
            b"quota\n"
        );
    }
}
