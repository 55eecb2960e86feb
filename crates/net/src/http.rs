//! A minimal, bounded HTTP/1.1 wire layer over `std::io`.
//!
//! This is deliberately not a general HTTP implementation: it parses
//! exactly the subset the Tolerance Tiers API needs (request line,
//! headers, `Content-Length` bodies, keep-alive) with **hard limits on
//! every dimension** — header count, header block size, body size —
//! so malformed, truncated, or hostile input produces a typed
//! [`HttpError`] (mapped to `400`/`413`/`431`/`501`/`505` responses),
//! never a panic and never unbounded allocation. The fuzz suite in
//! `tests/http_fuzz.rs` holds the parser to that contract.

use std::io::{BufRead, Write};

/// Upper bounds the reader enforces while parsing one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum bytes in the request line plus all header lines.
    pub max_head_bytes: usize,
    /// Maximum number of header lines.
    pub max_headers: usize,
    /// Maximum body bytes (`Content-Length` above this is refused).
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 16 * 1024,
            max_headers: 64,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// Why a request could not be read. Each variant carries the HTTP
/// status the server answers with; `Truncated` means the peer went away
/// mid-request and there is nobody left to answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Not parseable as HTTP (bad request line, bad header shape, bad
    /// `Content-Length`, stray control bytes).
    BadRequest(String),
    /// Header block exceeded [`Limits::max_head_bytes`] or
    /// [`Limits::max_headers`].
    HeadersTooLarge,
    /// Declared `Content-Length` exceeded [`Limits::max_body_bytes`].
    PayloadTooLarge,
    /// A well-formed method this server does not implement.
    MethodNotImplemented(String),
    /// An HTTP version other than 1.0/1.1.
    VersionNotSupported(String),
    /// The connection closed (or errored) before a full request landed.
    Truncated,
}

impl HttpError {
    /// The status line this error maps to (`None` for `Truncated`:
    /// no response can be delivered to a vanished peer).
    pub fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            HttpError::BadRequest(_) => Some((400, "Bad Request")),
            HttpError::HeadersTooLarge => Some((431, "Request Header Fields Too Large")),
            HttpError::PayloadTooLarge => Some((413, "Payload Too Large")),
            HttpError::MethodNotImplemented(_) => Some((501, "Not Implemented")),
            HttpError::VersionNotSupported(_) => Some((505, "HTTP Version Not Supported")),
            HttpError::Truncated => None,
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(why) => write!(f, "bad request: {why}"),
            HttpError::HeadersTooLarge => write!(f, "header block exceeds limits"),
            HttpError::PayloadTooLarge => write!(f, "declared body exceeds limits"),
            HttpError::MethodNotImplemented(m) => write!(f, "method {m} not implemented"),
            HttpError::VersionNotSupported(v) => write!(f, "http version {v} not supported"),
            HttpError::Truncated => write!(f, "connection closed mid-request"),
        }
    }
}

impl std::error::Error for HttpError {}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// The request target as sent (path plus optional query).
    pub target: String,
    /// Headers in wire order, names as sent.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

impl Request {
    /// First header value whose name matches case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The request path with any query string stripped.
    pub fn path(&self) -> &str {
        self.target
            .split_once('?')
            .map_or(self.target.as_str(), |(path, _)| path)
    }

    /// The `Rules-Epoch` stamp on this request, if any.
    ///
    /// The front tier stamps proxied requests with the fleet's current
    /// rules epoch; a node compares it against its own epoch to detect
    /// that it has missed a broadcast. `Ok(None)` means unstamped
    /// (direct clients never stamp).
    ///
    /// # Errors
    ///
    /// [`HttpError::BadRequest`] when the stamp is present but not a
    /// decimal `u64` — a malformed epoch is a protocol error, not a
    /// missing one.
    pub fn rules_epoch(&self) -> Result<Option<u64>, HttpError> {
        parse_rules_epoch(self.header(RULES_EPOCH_HEADER))
    }

    /// The distributed-tracing context stamped on this request, if
    /// any: `X-Trace-Id` carries the fleet-wide trace id, and
    /// `X-Parent-Span` carries `"{parent_span_id}/{hop}"` — the
    /// stamping tier's proxy span plus this request's hop depth.
    /// `None` when unstamped (direct clients) **or** malformed: a bad
    /// trace stamp must never fail a request, it just starts a fresh
    /// local trace.
    pub fn trace_context(&self) -> Option<tt_obs::TraceContext> {
        let trace_id = self.header(TRACE_ID_HEADER)?.trim().parse::<u64>().ok()?;
        let (parent_span, hop) = match self.header(PARENT_SPAN_HEADER) {
            Some(raw) => {
                let (span, hop) = raw.trim().split_once('/')?;
                (
                    Some(span.trim().parse::<u32>().ok()?),
                    hop.trim().parse::<u32>().ok()?,
                )
            }
            None => (None, 0),
        };
        Some(tt_obs::TraceContext {
            trace_id,
            parent_span,
            hop,
        })
    }
}

/// Wire header carrying the rules epoch, both directions: the front
/// tier stamps proxied requests with the epoch it expects, nodes stamp
/// every response with the epoch they actually served under.
pub const RULES_EPOCH_HEADER: &str = "Rules-Epoch";

/// Wire header carrying the fleet-wide trace id (decimal `u64`). The
/// front tier originates it on proxied requests; nodes echo it on
/// replies so clients can correlate a response to `GET /trace/{id}`.
pub const TRACE_ID_HEADER: &str = "X-Trace-Id";

/// Wire header carrying `"{parent_span_id}/{hop}"`: which span in the
/// hop-above trace is this request's parent, and how many proxy hops
/// deep the request is.
pub const PARENT_SPAN_HEADER: &str = "X-Parent-Span";

/// Format an [`tt_obs::TraceContext`]'s `X-Parent-Span` value.
pub fn format_parent_span(context: &tt_obs::TraceContext) -> String {
    format!("{}/{}", context.parent_span.unwrap_or(0), context.hop)
}

/// Parse an optional `Rules-Epoch` header value.
///
/// # Errors
///
/// [`HttpError::BadRequest`] when present but not a decimal `u64`
/// (empty, signed, hex, overflowing, or trailing garbage all count).
pub fn parse_rules_epoch(value: Option<&str>) -> Result<Option<u64>, HttpError> {
    match value {
        None => Ok(None),
        Some(raw) => raw
            .trim()
            .parse::<u64>()
            .map(Some)
            .map_err(|_| HttpError::BadRequest(format!("bad rules epoch `{raw}`"))),
    }
}

/// Methods this server understands at the wire level (routing decides
/// which are allowed per path).
const KNOWN_METHODS: [&str; 5] = ["GET", "POST", "HEAD", "PUT", "DELETE"];

/// Read one line terminated by `\n`, bounded by what remains of
/// `budget`. Returns `Ok(None)` on clean EOF before any byte.
fn read_line_bounded(
    reader: &mut impl BufRead,
    budget: &mut usize,
) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::Truncated);
            }
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(HttpError::Truncated),
        }
        if *budget == 0 {
            return Err(HttpError::HeadersTooLarge);
        }
        *budget -= 1;
        if byte[0] == b'\n' {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return match String::from_utf8(line) {
                Ok(s) => Ok(Some(s)),
                Err(_) => Err(HttpError::BadRequest("non-utf8 header bytes".into())),
            };
        }
        line.push(byte[0]);
    }
}

/// Whether the client asked to keep the connection open: an explicit
/// `Connection: close` / `keep-alive` decides, otherwise the version's
/// default (persistent from HTTP/1.1 on).
fn wants_keep_alive(headers: &[(String, String)], version: &str) -> bool {
    let connection = headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case("connection"))
        .map(|(_, v)| v.as_str());
    match connection {
        Some(v) if v.eq_ignore_ascii_case("close") => false,
        Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
        _ => version == "HTTP/1.1",
    }
}

/// Read one request off `reader` under `limits`.
///
/// Returns `Ok(None)` when the connection closed cleanly before a new
/// request started (the keep-alive end-of-stream case). The server
/// parses with [`RequestAssembler`]; this blocking reader is the
/// reference `tests/http_fuzz.rs` holds the assembler to.
///
/// # Errors
///
/// A typed [`HttpError`] for anything else — malformed, oversized, or
/// truncated input. This function never panics on any byte sequence.
pub fn read_request(
    reader: &mut impl BufRead,
    limits: &Limits,
) -> Result<Option<Request>, HttpError> {
    let mut head_budget = limits.max_head_bytes;

    // Request line. Tolerate (bounded) leading blank lines, as RFC 7230
    // suggests for robustness.
    let request_line = loop {
        match read_line_bounded(reader, &mut head_budget)? {
            None => return Ok(None),
            Some(line) if line.is_empty() => continue,
            Some(line) => break line,
        }
    };
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line `{}`",
                request_line.chars().take(80).collect::<String>()
            )))
        }
    };
    let method = method.to_ascii_uppercase();
    if !KNOWN_METHODS.contains(&method.as_str()) {
        return Err(HttpError::MethodNotImplemented(method));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::VersionNotSupported(version.to_string()));
    }
    if !target.starts_with('/') {
        return Err(HttpError::BadRequest(format!(
            "request target `{}` is not origin-form",
            target.chars().take(80).collect::<String>()
        )));
    }

    // Header block.
    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = match read_line_bounded(reader, &mut head_budget)? {
            None => return Err(HttpError::Truncated),
            Some(line) => line,
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= limits.max_headers {
            return Err(HttpError::HeadersTooLarge);
        }
        let (name, value) = line.split_once(':').ok_or_else(|| {
            HttpError::BadRequest(format!(
                "malformed header line `{}`",
                line.chars().take(80).collect::<String>()
            ))
        })?;
        if name.is_empty() || name.contains(' ') || name.contains('\t') {
            return Err(HttpError::BadRequest(format!(
                "malformed header name `{}`",
                name.chars().take(80).collect::<String>()
            )));
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }

    // Body, gated on a sane Content-Length.
    let content_length = match headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
    {
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| HttpError::BadRequest(format!("bad content-length `{v}`")))?,
        None => 0,
    };
    if content_length > limits.max_body_bytes {
        return Err(HttpError::PayloadTooLarge);
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        let mut filled = 0;
        while filled < content_length {
            match reader.read(&mut body[filled..]) {
                Ok(0) => return Err(HttpError::Truncated),
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(HttpError::Truncated),
            }
        }
    }

    let keep_alive = wants_keep_alive(&headers, version);

    Ok(Some(Request {
        method,
        target: target.to_string(),
        headers,
        body,
        keep_alive,
    }))
}

/// What one parse attempt over a buffered prefix concluded.
enum Assembled {
    /// A full request starts at byte 0 and spans `consumed` bytes.
    Complete { request: Request, consumed: usize },
    /// The prefix is valid so far but incomplete. `required` is the
    /// total byte count needed once the head has fully parsed (head
    /// plus declared body), `None` while the head itself is unfinished.
    NeedMore { required: Option<usize> },
}

/// Find the next line in `buf[*pos..]` under the remaining head
/// `budget`, mirroring [`read_line_bounded`]'s accounting exactly: every
/// consumed byte (including `\r` and `\n`) costs one budget unit, and
/// the error fires on the byte that would arrive with zero budget left.
///
/// `Ok(None)` means the line's terminator has not arrived yet.
fn take_line<'b>(
    buf: &'b [u8],
    pos: &mut usize,
    budget: &mut usize,
) -> Result<Option<&'b str>, HttpError> {
    let rest = &buf[*pos..];
    match rest.iter().position(|&b| b == b'\n') {
        Some(i) => {
            if i >= *budget {
                return Err(HttpError::HeadersTooLarge);
            }
            *budget -= i + 1;
            *pos += i + 1;
            let mut line = &rest[..i];
            if line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            match std::str::from_utf8(line) {
                Ok(s) => Ok(Some(s)),
                Err(_) => Err(HttpError::BadRequest("non-utf8 header bytes".into())),
            }
        }
        None => {
            if rest.len() > *budget {
                return Err(HttpError::HeadersTooLarge);
            }
            Ok(None)
        }
    }
}

/// Parse one request from the front of `buf`, or report how much more
/// input is needed. Pure over the slice: nothing is consumed until the
/// caller acts on `Assembled::Complete::consumed`.
///
/// This is the incremental twin of [`read_request`] and must agree with
/// it verdict-for-verdict on every complete input (the fuzz suite
/// enforces the parity); `NeedMore` corresponds to the prefix states
/// where `read_request` would still be blocked on the socket.
fn assemble(buf: &[u8], limits: &Limits) -> Result<Assembled, HttpError> {
    let mut budget = limits.max_head_bytes;
    let mut pos = 0usize;

    // Request line, tolerating (bounded) leading blank lines.
    let request_line = loop {
        match take_line(buf, &mut pos, &mut budget)? {
            None => return Ok(Assembled::NeedMore { required: None }),
            Some("") => continue,
            Some(line) => break line,
        }
    };
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line `{}`",
                request_line.chars().take(80).collect::<String>()
            )))
        }
    };
    let method = method.to_ascii_uppercase();
    if !KNOWN_METHODS.contains(&method.as_str()) {
        return Err(HttpError::MethodNotImplemented(method));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::VersionNotSupported(version.to_string()));
    }
    if !target.starts_with('/') {
        return Err(HttpError::BadRequest(format!(
            "request target `{}` is not origin-form",
            target.chars().take(80).collect::<String>()
        )));
    }

    // Header block.
    // Sized for the API's own request (two annotations, `Payload`,
    // length, connection, a trace stamp) so the list never regrows.
    let mut headers: Vec<(String, String)> = Vec::with_capacity(8);
    loop {
        let line = match take_line(buf, &mut pos, &mut budget)? {
            None => return Ok(Assembled::NeedMore { required: None }),
            Some(line) => line,
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= limits.max_headers {
            return Err(HttpError::HeadersTooLarge);
        }
        let (name, value) = line.split_once(':').ok_or_else(|| {
            HttpError::BadRequest(format!(
                "malformed header line `{}`",
                line.chars().take(80).collect::<String>()
            ))
        })?;
        if name.is_empty() || name.contains(' ') || name.contains('\t') {
            return Err(HttpError::BadRequest(format!(
                "malformed header name `{}`",
                name.chars().take(80).collect::<String>()
            )));
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }
    let head_end = pos;

    // Body, gated on a sane Content-Length. The declaration alone is
    // enough to refuse an oversized body — no body byte need arrive.
    let content_length = match headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
    {
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| HttpError::BadRequest(format!("bad content-length `{v}`")))?,
        None => 0,
    };
    if content_length > limits.max_body_bytes {
        return Err(HttpError::PayloadTooLarge);
    }
    let required = head_end + content_length;
    if buf.len() < required {
        return Ok(Assembled::NeedMore {
            required: Some(required),
        });
    }
    let body = buf[head_end..required].to_vec();

    let keep_alive = wants_keep_alive(&headers, version);

    Ok(Assembled::Complete {
        request: Request {
            method,
            target: target.to_string(),
            headers,
            body,
            keep_alive,
        },
        consumed: required,
    })
}

/// Incremental request parser for readiness-driven (non-blocking) I/O.
///
/// Where [`read_request`] pulls bytes off a blocking reader, the
/// assembler is fed whatever a non-blocking read produced and parses
/// straight out of its internal buffer — headers are sliced in place
/// and only the final owned [`Request`] allocates. It enforces the same
/// [`Limits`] with the same accounting as `read_request` and yields the
/// same verdict for every complete input; pipelined requests queue up
/// in the buffer and pop out one [`next_request`] call at a time.
///
/// Parse attempts are gated so byte-at-a-time input stays cheap: the
/// head is only re-parsed when a new line terminator has arrived (or
/// the head budget is exhausted), and once the head is complete the
/// body phase is a plain length check until enough bytes are buffered.
///
/// After an `Err` the connection is unrecoverable — the caller must
/// answer with the error's status (if any) and close, exactly as with
/// `read_request`.
///
/// [`next_request`]: RequestAssembler::next_request
#[derive(Debug)]
pub struct RequestAssembler {
    limits: Limits,
    buf: Vec<u8>,
    /// Complete lines buffered but not yet consumed by a parse attempt.
    pending_newlines: usize,
    /// Total bytes the in-progress request needs, once its head parsed.
    required: Option<usize>,
}

impl RequestAssembler {
    /// A fresh assembler enforcing `limits` per request.
    pub fn new(limits: Limits) -> Self {
        RequestAssembler {
            limits,
            buf: Vec::new(),
            pending_newlines: 0,
            required: None,
        }
    }

    /// Feed bytes read off the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        self.pending_newlines += bytes.iter().filter(|&&b| b == b'\n').count();
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as a request.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is buffered — EOF here is a clean close, EOF
    /// with buffered bytes is a mid-request truncation.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// True once the current request's head has fully parsed and only
    /// body bytes are outstanding.
    pub fn awaiting_body(&self) -> bool {
        self.required.is_some()
    }

    fn should_attempt(&self) -> bool {
        if self.buf.is_empty() {
            return false;
        }
        match self.required {
            Some(n) => self.buf.len() >= n,
            None => self.pending_newlines > 0 || self.buf.len() > self.limits.max_head_bytes,
        }
    }

    /// Pop the next complete request, if one is fully buffered.
    ///
    /// `Ok(None)` means more input is needed. Call in a loop after each
    /// feed: pipelined input yields one request per call.
    ///
    /// # Errors
    ///
    /// The same typed [`HttpError`]s as [`read_request`]; the
    /// connection must be closed afterwards.
    pub fn next_request(&mut self) -> Result<Option<Request>, HttpError> {
        if !self.should_attempt() {
            return Ok(None);
        }
        self.pending_newlines = 0;
        match assemble(&self.buf, &self.limits)? {
            Assembled::Complete { request, consumed } => {
                self.buf.drain(..consumed);
                self.required = None;
                // Leftover pipelined bytes may already hold the next
                // head; re-arm the gate from what remains.
                self.pending_newlines = self.buf.iter().filter(|&&b| b == b'\n').count();
                Ok(Some(request))
            }
            Assembled::NeedMore { required } => {
                self.required = required;
                Ok(None)
            }
        }
    }
}

/// A response header's value, kept off the heap for everything this
/// server originates: a fixed label (`X-Cache: hit`), or an integer
/// (`Rules-Epoch`, `X-Trace-Id`, `Retry-After`) formatted into inline
/// bytes. Only text relayed from elsewhere — the front tier passing a
/// node's headers through — owns a `String`.
#[derive(Clone)]
pub enum HeaderValue {
    /// A fixed label.
    Static(&'static str),
    /// A decimal integer, formatted inline.
    Int(Decimal),
    /// Text this process did not originate.
    Owned(String),
}

/// A `u64` in decimal, held in the 20 bytes its longest value needs.
#[derive(Clone, Copy)]
pub struct Decimal {
    /// Right-aligned ASCII digits; the number is `digits[start..]`.
    digits: [u8; 20],
    start: u8,
}

impl Decimal {
    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.digits[usize::from(self.start)..]).expect("ASCII digits")
    }
}

impl HeaderValue {
    /// The value as it goes on the wire.
    pub fn as_str(&self) -> &str {
        match self {
            HeaderValue::Static(text) => text,
            HeaderValue::Int(number) => number.as_str(),
            HeaderValue::Owned(text) => text,
        }
    }
}

impl From<&'static str> for HeaderValue {
    fn from(text: &'static str) -> Self {
        HeaderValue::Static(text)
    }
}

impl From<u64> for HeaderValue {
    fn from(n: u64) -> Self {
        let mut digits = [0u8; 20];
        let start = decimal(n, &mut digits) as u8;
        HeaderValue::Int(Decimal { digits, start })
    }
}

impl From<String> for HeaderValue {
    fn from(text: String) -> Self {
        HeaderValue::Owned(text)
    }
}

impl PartialEq for HeaderValue {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for HeaderValue {}

impl std::fmt::Debug for HeaderValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

/// Write `n` in decimal, right-aligned in `digits` (`u64::MAX` has 20
/// digits); returns where the number starts.
fn decimal(mut n: u64, digits: &mut [u8; 20]) -> usize {
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return start;
        }
    }
}

/// The one response encoder: append status line, headers, blank line
/// and body to `out`. `content_type` is omitted when the body is empty.
/// Header names and values must already be wire-safe; this layer does
/// no escaping. Every response this crate puts on a socket or into a
/// reactor completion is these bytes.
pub(crate) fn encode_response(
    out: &mut Vec<u8>,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, HeaderValue)],
    body: &[u8],
    keep_alive: bool,
) {
    let mut digits = [0u8; 20];
    let mut number = |out: &mut Vec<u8>, n: u64| {
        let start = decimal(n, &mut digits);
        out.extend_from_slice(&digits[start..]);
    };
    out.extend_from_slice(b"HTTP/1.1 ");
    number(out, u64::from(status));
    out.push(b' ');
    out.extend_from_slice(reason.as_bytes());
    if !body.is_empty() {
        out.extend_from_slice(b"\r\nContent-Type: ");
        out.extend_from_slice(content_type.as_bytes());
    }
    out.extend_from_slice(b"\r\nContent-Length: ");
    number(out, body.len() as u64);
    out.extend_from_slice(b"\r\n");
    for (name, value) in extra_headers {
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_str().as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(if keep_alive {
        b"Connection: keep-alive\r\n\r\n".as_slice()
    } else {
        b"Connection: close\r\n\r\n".as_slice()
    });
    out.extend_from_slice(body);
}

/// Most a thread's response scratch keeps between responses: every
/// `/compute` reply fits with room to spare, and an ops document that
/// outgrew it gives the excess back once it is written.
const SCRATCH_KEEP: usize = 4096;

thread_local! {
    /// The buffer a response is encoded into before its one write.
    static SCRATCH: std::cell::Cell<Vec<u8>> = const { std::cell::Cell::new(Vec::new()) };
}

/// Serialize and send one response with extra response headers
/// (`Retry-After`, `Brownout`, ...). `content_type` is omitted when
/// the body is empty. Header names and values must already be
/// wire-safe; this layer does no escaping.
///
/// Head and body are encoded into this thread's scratch buffer and
/// leave in one `write_all`, so a socket sees one segment per reply
/// and a steady stream of replies allocates nothing here.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response_with(
    writer: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, HeaderValue)],
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    // Taken, not borrowed: a writer that itself writes a response
    // finds an empty scratch rather than a held one.
    let mut wire = SCRATCH.with(std::cell::Cell::take);
    encode_response(
        &mut wire,
        status,
        reason,
        content_type,
        extra_headers,
        body,
        keep_alive,
    );
    let written = writer.write_all(&wire).and_then(|()| writer.flush());
    wire.clear();
    wire.shrink_to(SCRATCH_KEEP);
    SCRATCH.with(|scratch| scratch.set(wire));
    written
}

/// A response as the load-generator client sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers in wire order.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// First header value whose name matches case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Read one response off `reader` (client side), bounded by `limits`.
///
/// # Errors
///
/// A typed [`HttpError`] for malformed, oversized, or truncated input.
pub fn read_response(reader: &mut impl BufRead, limits: &Limits) -> Result<Response, HttpError> {
    let mut head_budget = limits.max_head_bytes;
    let status_line = match read_line_bounded(reader, &mut head_budget)? {
        None => return Err(HttpError::Truncated),
        Some(line) => line,
    };
    let mut parts = status_line.splitn(3, ' ');
    let (version, code) = match (parts.next(), parts.next()) {
        (Some(v), Some(c)) => (v, c),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed status line `{}`",
                status_line.chars().take(80).collect::<String>()
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::VersionNotSupported(version.to_string()));
    }
    let status: u16 = code
        .parse()
        .map_err(|_| HttpError::BadRequest(format!("bad status code `{code}`")))?;

    let mut headers = Vec::new();
    loop {
        let line = match read_line_bounded(reader, &mut head_budget)? {
            None => return Err(HttpError::Truncated),
            Some(line) => line,
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= limits.max_headers {
            return Err(HttpError::HeadersTooLarge);
        }
        let (name, value) = line.split_once(':').ok_or_else(|| {
            HttpError::BadRequest(format!(
                "malformed header line `{}`",
                line.chars().take(80).collect::<String>()
            ))
        })?;
        headers.push((name.to_string(), value.trim().to_string()));
    }

    let content_length = match headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
    {
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| HttpError::BadRequest(format!("bad content-length `{v}`")))?,
        None => 0,
    };
    if content_length > limits.max_body_bytes {
        return Err(HttpError::PayloadTooLarge);
    }
    let mut body = vec![0u8; content_length];
    let mut filled = 0;
    while filled < content_length {
        match reader.read(&mut body[filled..]) {
            Ok(0) => return Err(HttpError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(HttpError::Truncated),
        }
    }

    Ok(Response {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut Cursor::new(bytes.to_vec()), &Limits::default())
    }

    #[test]
    fn parses_a_full_post() {
        let req = parse(
            b"POST /compute HTTP/1.1\r\nTolerance: 0.01\r\nObjective: response-time\r\n\
              Content-Length: 5\r\n\r\nhello",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path(), "/compute");
        assert_eq!(req.header("tolerance"), Some("0.01"));
        assert_eq!(req.header("OBJECTIVE"), Some("response-time"));
        assert_eq!(req.body, b"hello");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn rules_epoch_round_trips_through_request_and_response() {
        // Request direction: a stamped proxy request parses back to
        // the same epoch.
        let req = parse(
            b"POST /compute HTTP/1.1\r\nRules-Epoch: 42\r\nTolerance: 0\r\n\
              Content-Length: 0\r\n\r\n",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.rules_epoch(), Ok(Some(42)));

        // Response direction: a node-stamped reply survives emit+parse.
        let mut wire = Vec::new();
        write_response_with(
            &mut wire,
            200,
            "OK",
            "application/json",
            &[(RULES_EPOCH_HEADER, HeaderValue::from(42u64))],
            b"{}",
            false,
        )
        .unwrap();
        let response = read_response(&mut Cursor::new(wire), &Limits::default()).unwrap();
        assert_eq!(
            parse_rules_epoch(response.header("rules-epoch")),
            Ok(Some(42))
        );
    }

    #[test]
    fn unstamped_requests_have_no_epoch() {
        let req = parse(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.rules_epoch(), Ok(None));
        assert_eq!(parse_rules_epoch(None), Ok(None));
    }

    #[test]
    fn malformed_epochs_are_bad_requests() {
        for bad in [
            "",
            "  ",
            "-1",
            "1.5",
            "0x10",
            "18446744073709551616",
            "7 up",
        ] {
            let err = parse_rules_epoch(Some(bad)).unwrap_err();
            assert!(
                matches!(&err, HttpError::BadRequest(_)),
                "`{bad}` must be a 400, got {err:?}"
            );
            assert_eq!(err.status(), Some((400, "Bad Request")));
        }
        // Benign surrounding whitespace is tolerated, like other
        // header values.
        assert_eq!(parse_rules_epoch(Some(" 7 ")), Ok(Some(7)));
        assert_eq!(parse_rules_epoch(Some("0")), Ok(Some(0)));
    }

    #[test]
    fn parses_get_without_body_and_query_strings() {
        let req = parse(b"GET /stats?pretty=1 HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/stats?pretty=1");
        assert_eq!(req.path(), "/stats");
        assert!(req.body.is_empty());
    }

    #[test]
    fn clean_eof_is_none_truncation_is_an_error() {
        assert_eq!(parse(b""), Ok(None));
        assert_eq!(parse(b"POST /compute HT"), Err(HttpError::Truncated));
        assert_eq!(
            parse(b"POST /compute HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(HttpError::Truncated)
        );
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive);
        let req = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive);
        let req = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.keep_alive);
    }

    #[test]
    fn bounded_header_count_maps_to_431() {
        let limits = Limits {
            max_headers: 4,
            ..Limits::default()
        };
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..8 {
            raw.extend_from_slice(format!("H{i}: v\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        let err = read_request(&mut Cursor::new(raw), &limits).unwrap_err();
        assert_eq!(err, HttpError::HeadersTooLarge);
        assert_eq!(err.status(), Some((431, "Request Header Fields Too Large")));
    }

    #[test]
    fn bounded_head_bytes_maps_to_431() {
        let limits = Limits {
            max_head_bytes: 64,
            ..Limits::default()
        };
        let mut raw = b"GET / HTTP/1.1\r\nLong: ".to_vec();
        raw.extend_from_slice(&vec![b'x'; 4096]);
        raw.extend_from_slice(b"\r\n\r\n");
        assert_eq!(
            read_request(&mut Cursor::new(raw), &limits).unwrap_err(),
            HttpError::HeadersTooLarge
        );
    }

    #[test]
    fn oversized_declared_body_maps_to_413_without_allocating() {
        let limits = Limits {
            max_body_bytes: 16,
            ..Limits::default()
        };
        // The body itself never needs to arrive: the declaration is
        // enough to refuse.
        let raw = b"POST /compute HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n".to_vec();
        let err = read_request(&mut Cursor::new(raw), &limits).unwrap_err();
        assert_eq!(err, HttpError::PayloadTooLarge);
        assert_eq!(err.status(), Some((413, "Payload Too Large")));
    }

    #[test]
    fn malformed_inputs_map_to_400() {
        for raw in [
            b"NONSENSE\r\n\r\n".to_vec(),
            b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n".to_vec(),
            b"GET / HTTP/1.1\r\n: empty-name\r\n\r\n".to_vec(),
            b"GET / HTTP/1.1\r\nBad Name: v\r\n\r\n".to_vec(),
            b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n".to_vec(),
            b"GET noslash HTTP/1.1\r\n\r\n".to_vec(),
        ] {
            let err = read_request(&mut Cursor::new(raw), &Limits::default()).unwrap_err();
            assert!(
                matches!(err, HttpError::BadRequest(_)),
                "expected 400, got {err:?}"
            );
        }
    }

    #[test]
    fn unknown_method_and_version_get_distinct_statuses() {
        assert_eq!(
            parse(b"BREW /pot HTTP/1.1\r\n\r\n"),
            Err(HttpError::MethodNotImplemented("BREW".into()))
        );
        assert_eq!(
            parse(b"GET / HTTP/2.0\r\n\r\n"),
            Err(HttpError::VersionNotSupported("HTTP/2.0".into()))
        );
    }

    #[test]
    fn response_round_trips_through_the_client_reader() {
        let mut wire = Vec::new();
        write_response_with(
            &mut wire,
            200,
            "OK",
            "application/json",
            &[],
            b"{\"ok\":true}",
            true,
        )
        .unwrap();
        let resp = read_response(&mut Cursor::new(wire), &Limits::default()).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("content-type"), Some("application/json"));
        assert_eq!(resp.text(), "{\"ok\":true}");
    }

    #[test]
    fn extra_headers_ride_the_status_line() {
        let mut wire = Vec::new();
        write_response_with(
            &mut wire,
            429,
            "Too Many Requests",
            "application/json",
            &[("Retry-After", HeaderValue::from(2u64))],
            b"{}",
            true,
        )
        .unwrap();
        let resp = read_response(&mut Cursor::new(wire), &Limits::default()).unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.header("retry-after"), Some("2"));
    }

    #[test]
    fn integer_header_values_format_inline() {
        for (n, text) in [
            (0u64, "0"),
            (9, "9"),
            (10, "10"),
            (1_234_567_890, "1234567890"),
            (u64::MAX, "18446744073709551615"),
        ] {
            let value = HeaderValue::from(n);
            assert!(matches!(value, HeaderValue::Int(_)));
            assert_eq!(value.as_str(), text);
            assert_eq!(value.as_str(), n.to_string());
        }
    }

    #[test]
    fn header_values_compare_and_print_as_their_text() {
        let label = HeaderValue::from("7");
        let number = HeaderValue::from(7u64);
        let relayed = HeaderValue::from("7".to_string());
        assert_eq!(label, number);
        assert_eq!(number, relayed);
        assert_ne!(number, HeaderValue::from(8u64));
        assert_eq!(format!("{number:?}"), "\"7\"");
    }

    #[test]
    fn the_encoder_spells_the_head_the_way_the_line_formatter_did() {
        let mut wire = Vec::new();
        write_response_with(
            &mut wire,
            503,
            "Service Unavailable",
            "application/json",
            &[
                ("Retry-After", HeaderValue::from(1u64)),
                ("X-Cache", HeaderValue::from("miss")),
                ("Served-By", HeaderValue::from("node-2".to_string())),
            ],
            b"{}\n",
            false,
        )
        .unwrap();
        assert_eq!(
            String::from_utf8(wire).unwrap(),
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
             Content-Length: 3\r\nRetry-After: 1\r\nX-Cache: miss\r\nServed-By: node-2\r\n\
             Connection: close\r\n\r\n{}\n"
        );
    }

    /// A writer that counts `write` calls and takes at most `chunk`
    /// bytes per call.
    struct Dribble {
        taken: Vec<u8>,
        calls: usize,
        chunk: usize,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            let n = buf.len().min(self.chunk);
            self.taken.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_leaves_in_one_write_and_survives_short_writes() {
        let body = vec![b'x'; 3 * SCRATCH_KEEP];
        let send = |chunk: usize| {
            let mut writer = Dribble {
                taken: Vec::new(),
                calls: 0,
                chunk,
            };
            write_response_with(&mut writer, 200, "OK", "text/plain", &[], &body, true).unwrap();
            writer
        };
        let whole = send(usize::MAX);
        assert_eq!(whole.calls, 1, "head and body are one write");
        assert!(whole.taken.ends_with(&body));
        let dribbled = send(7);
        assert!(dribbled.calls > 1);
        assert_eq!(dribbled.taken, whole.taken);
        // The oversized reply did not stay behind in the scratch.
        let kept = SCRATCH.with(|scratch| {
            let wire = scratch.take();
            let capacity = wire.capacity();
            scratch.set(wire);
            capacity
        });
        assert!(kept <= SCRATCH_KEEP, "scratch kept {kept} bytes");
    }

    #[test]
    fn assembler_pops_pipelined_requests_one_at_a_time() {
        let mut asm = RequestAssembler::new(Limits::default());
        asm.push(
            b"POST /compute HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc\
              GET /stats HTTP/1.1\r\n\r\nGET /healthz",
        );
        let first = asm.next_request().unwrap().unwrap();
        assert_eq!(first.method, "POST");
        assert_eq!(first.body, b"abc");
        let second = asm.next_request().unwrap().unwrap();
        assert_eq!(second.method, "GET");
        assert_eq!(second.path(), "/stats");
        // Third request's head is incomplete: not ready, bytes retained.
        assert_eq!(asm.next_request().unwrap(), None);
        assert!(!asm.is_empty());
        asm.push(b" HTTP/1.1\r\n\r\n");
        let third = asm.next_request().unwrap().unwrap();
        assert_eq!(third.path(), "/healthz");
        assert!(asm.is_empty());
    }

    #[test]
    fn assembler_handles_byte_dribble() {
        let wire = b"POST /compute HTTP/1.1\r\nTolerance: 0.05\r\nContent-Length: 5\r\n\r\nhello";
        let mut asm = RequestAssembler::new(Limits::default());
        for (i, byte) in wire.iter().enumerate() {
            asm.push(std::slice::from_ref(byte));
            let popped = asm.next_request().unwrap();
            if i + 1 < wire.len() {
                assert_eq!(popped, None, "complete at byte {i} of {}", wire.len());
            } else {
                let req = popped.expect("last byte completes the request");
                assert_eq!(req.body, b"hello");
                assert_eq!(req.header("tolerance"), Some("0.05"));
            }
        }
    }

    #[test]
    fn assembler_matches_blocking_reader_verdicts() {
        // A complete-input cross-check of the two parsers; the fuzz
        // suite extends this to arbitrary bytes.
        for raw in [
            b"\r\n\r\nGET / HTTP/1.1\r\n\r\n".to_vec(),
            b"NONSENSE\r\n\r\n".to_vec(),
            b"BREW /pot HTTP/1.1\r\n\r\n".to_vec(),
            b"GET / HTTP/2.0\r\n\r\n".to_vec(),
            b"GET noslash HTTP/1.1\r\n\r\n".to_vec(),
            b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n".to_vec(),
            b"GET / HTTP/1.1\r\nBad Name: v\r\n\r\n".to_vec(),
        ] {
            let blocking = read_request(&mut Cursor::new(raw.clone()), &Limits::default());
            let mut asm = RequestAssembler::new(Limits::default());
            asm.push(&raw);
            let incremental = asm.next_request();
            match (&blocking, &incremental) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                (Err(a), Err(b)) => assert_eq!(a, b),
                other => panic!("verdicts diverge on {raw:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn assembler_enforces_head_budget_without_a_terminator() {
        let limits = Limits {
            max_head_bytes: 64,
            ..Limits::default()
        };
        let mut asm = RequestAssembler::new(limits);
        // 65 bytes of request line with no newline: the 65th byte would
        // arrive with zero budget, exactly like the blocking reader.
        asm.push(&[b'G'; 65]);
        assert_eq!(asm.next_request(), Err(HttpError::HeadersTooLarge));
    }

    #[test]
    fn assembler_refuses_oversized_declared_body_before_it_arrives() {
        let limits = Limits {
            max_body_bytes: 16,
            ..Limits::default()
        };
        let mut asm = RequestAssembler::new(limits);
        asm.push(b"POST /compute HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n");
        assert_eq!(asm.next_request(), Err(HttpError::PayloadTooLarge));
    }

    #[test]
    fn assembler_tracks_body_phase() {
        let mut asm = RequestAssembler::new(Limits::default());
        asm.push(b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\n");
        assert_eq!(asm.next_request().unwrap(), None);
        assert!(asm.awaiting_body());
        asm.push(b"body");
        let req = asm.next_request().unwrap().unwrap();
        assert_eq!(req.body, b"body");
        assert!(!asm.awaiting_body());
    }

    #[test]
    fn empty_body_omits_content_type() {
        let mut wire = Vec::new();
        write_response_with(&mut wire, 204, "No Content", "text/plain", &[], b"", false).unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(!text.contains("Content-Type"));
        assert!(text.contains("Content-Length: 0"));
        assert!(text.contains("Connection: close"));
    }
}
