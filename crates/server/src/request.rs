//! The transport-independent request core behind both HTTP front ends.
//!
//! The blocking pool ([`crate::http`]) and the event loop
//! ([`crate::epoll`]) differ only in how they move bytes: the pool
//! blocks one worker per connection, the loop multiplexes readiness on
//! one thread. Everything between the bytes and the answer lives here,
//! once:
//!
//! - **Framing.** [`Core::route`] takes the bytes buffered so far and
//!   reports whether they hold a complete request yet: [`scan_head`]
//!   enforces the request-line and header-block caps (431) as bytes
//!   arrive, [`parse_head`] reads the headers the demo honours, and a
//!   `POST` waits for its `Content-Length` framed body.
//! - **Routing.** One check order for every request: a malformed or
//!   conflicting `Content-Length` first (400), then a body on anything
//!   but an update (400: its bytes must not be read as the next
//!   request), then `/metrics`, then the request line (400); for a
//!   `POST`, then a missing or oversized `Content-Length` (411/413),
//!   then the body, then the op batch (400 naming its line).
//!   What is left is a [`Job`]: a view, a secure query or an update.
//! - **The cache-only probe.** [`Core::cached`] answers a view from
//!   already-computed state (a warm hit, a 304, or the probe's error)
//!   without running a pipeline stage; on a miss it leaves the probe's
//!   ticket on the job, so compute does not repeat the probe. The event
//!   loop calls it inline before handing a job to a worker, and every
//!   degraded (shed) job goes through it.
//! - **Compute.** [`Core::compute`] runs one job under `catch_unwind`
//!   with the `handle.start`, `process.request` and `respond.write`
//!   fault points, and renders the reply: one error-to-status mapping,
//!   one cancellation rule, one deadline token per request.
//! - **Workers.** [`Workers::start`] spawns the one bounded worker loop
//!   (queue-depth gauge, sojourn, CoDel [`Admission`], panic backstop,
//!   service-time EWMA) and [`Workers::join`] is its drain-deadline
//!   shutdown. The pool queues whole connections, the loop queues jobs.
//!
//! A transport never renders a status of its own except the two that
//! are about the socket rather than the request: the 408 of a read
//! timeout and the silent close of a half-sent request.

use crate::faults;
use crate::http::{
    adaptive_shed_total, cancelled_total, degraded_hits_total, not_modified_total,
    panics_caught_total, parse_update_ops_with_lines, queue_depth, render_busy, render_err,
    render_not_modified, render_overloaded, render_response, render_view, shed_total,
    sojourn_seconds, Admission, HttpConfig, MAX_UPDATE_BODY,
};
use crate::server::{
    ClientRequest, ConditionalOutcome, Probe, SecureServer, ServerError, ViewTicket,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xmlsec_core::update::UpdateOp;
use xmlsec_core::{CancelReason, CancelToken};
use xmlsec_telemetry as telemetry;

/// How often shutdown polls the workers for completion.
const JOIN_POLL: Duration = Duration::from_millis(2);

const TOO_LARGE: &str = "Request Header Fields Too Large";

/// Outcome of scanning buffered bytes for one complete request head
/// (request line + headers + blank line).
#[derive(Debug, PartialEq, Eq)]
enum HeadScan {
    Incomplete,
    LineTooLong,
    HeadersTooLong,
    /// Byte length of the complete head, terminator included.
    Complete(usize),
}

/// Scans for a complete head without trusting the client to ever send
/// a terminator: the request line (terminator included) may not exceed
/// `max_line` and the header lines together may not exceed
/// `max_header`, whether or not their newline has arrived yet.
fn scan_head(buf: &[u8], max_line: usize, max_header: usize) -> HeadScan {
    let line_end = match buf.iter().position(|&b| b == b'\n') {
        Some(i) if i + 1 > max_line => return HeadScan::LineTooLong,
        Some(i) => i + 1,
        None if buf.len() > max_line => return HeadScan::LineTooLong,
        None => return HeadScan::Incomplete,
    };
    let mut pos = line_end;
    let mut header_bytes = 0usize;
    loop {
        let rest = &buf[pos..];
        match rest.iter().position(|&b| b == b'\n') {
            Some(i) => {
                let line = &rest[..=i];
                if line == b"\n" || line == b"\r\n" {
                    return HeadScan::Complete(pos + i + 1);
                }
                header_bytes += line.len();
                if header_bytes > max_header {
                    return HeadScan::HeadersTooLong;
                }
                pos += i + 1;
            }
            // A lone `\r` may be the start of the blank line, which
            // does not count against the cap.
            None if rest != b"\r" && header_bytes + rest.len() > max_header => {
                return HeadScan::HeadersTooLong
            }
            None => return HeadScan::Incomplete,
        }
    }
}

/// The parsed head: the request line plus the headers the demo honours,
/// and the keep-alive decision (an explicit `Connection` header wins;
/// otherwise HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close).
struct Head {
    line: String,
    if_none_match: Option<String>,
    deadline_ms: Option<u64>,
    /// The declared body length: `Ok(None)` when absent, `Err(())` when
    /// a value is not `1*DIGIT` or two copies disagree (RFC 9112 §6.3).
    content_length: Result<Option<usize>, ()>,
    keep_alive: bool,
}

/// A `Content-Length` value: `1*DIGIT`, saturating past `usize::MAX`
/// (still a length, and far over any body cap).
fn parse_length(value: &str) -> Result<usize, ()> {
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(());
    }
    Ok(value.parse().unwrap_or(usize::MAX))
}

/// Parses a complete head. With `persistent` false (the pool) the
/// connection never stays open, whatever the client asks for.
fn parse_head(head: &str, persistent: bool) -> Head {
    let mut it = head.lines();
    let line = it.next().unwrap_or("").to_string();
    let http11 = line
        .split_whitespace()
        .nth(2)
        .is_some_and(|v| v.eq_ignore_ascii_case("HTTP/1.1"));
    let mut if_none_match = None;
    let mut deadline_ms = None;
    let mut content_length = Ok(None);
    let mut ka_header: Option<bool> = None;
    for h in it {
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            let name = name.trim();
            let value = value.trim();
            if name.eq_ignore_ascii_case("if-none-match") {
                if_none_match = Some(value.to_string());
            } else if name.eq_ignore_ascii_case("x-request-deadline") {
                // Unparsable values are ignored, not 400s: the header is
                // advisory and the server deadline still bounds the
                // request.
                deadline_ms = value.parse().ok();
            } else if name.eq_ignore_ascii_case("content-length") {
                content_length =
                    content_length.and_then(|seen| match (seen, parse_length(value)?) {
                        (Some(seen), l) if seen != l => Err(()),
                        (_, l) => Ok(Some(l)),
                    });
            } else if name.eq_ignore_ascii_case("connection") {
                let v = value.to_ascii_lowercase();
                if v.contains("keep-alive") {
                    ka_header = Some(true);
                } else if v.contains("close") {
                    ka_header = Some(false);
                }
            }
        }
    }
    Head {
        line,
        if_none_match,
        deadline_ms,
        content_length,
        keep_alive: persistent && ka_header.unwrap_or(http11),
    }
}

/// Parses `GET /uri?user=..&pass=..&ip=..&host=..&q=.. HTTP/1.x`.
fn parse_request_line(line: &str, peer_ip: &str) -> Option<(ClientRequest, Option<String>)> {
    let mut parts = line.split_whitespace();
    if parts.next()? != "GET" {
        return None;
    }
    let target = parts.next()?;
    let (path, qs) = target.split_once('?').unwrap_or((target, ""));
    let uri = percent_decode(path.strip_prefix('/')?);
    if uri.is_empty() {
        return None;
    }
    let mut user = None;
    let mut pass = String::new();
    let mut ip = None;
    let mut host = None;
    let mut query = None;
    for pair in qs.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        let v = percent_decode(v);
        match k {
            "user" => user = Some(v),
            "pass" => pass = v,
            "ip" => ip = Some(v),
            "host" => host = Some(v),
            "q" => query = Some(v),
            _ => {}
        }
    }
    let client = ClientRequest {
        user: user.map(|u| (u, pass)),
        // The demo trusts declared locations (the paper's model assumes
        // the server can establish them); default to the TCP peer.
        ip: ip.unwrap_or_else(|| peer_ip.to_string()),
        sym: host.unwrap_or_else(|| "localhost.localdomain".to_string()),
        uri,
    };
    Some((client, query))
}

/// Parses `POST /update?doc=..&user=..&pass=..&ip=..&host=.. HTTP/1.x`.
fn parse_update_request_line(line: &str, peer_ip: &str) -> Option<ClientRequest> {
    let mut parts = line.split_whitespace();
    if parts.next()? != "POST" {
        return None;
    }
    let target = parts.next()?;
    let (path, qs) = target.split_once('?').unwrap_or((target, ""));
    if path != "/update" {
        return None;
    }
    let mut doc = None;
    let mut user = None;
    let mut pass = String::new();
    let mut ip = None;
    let mut host = None;
    for pair in qs.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        let v = percent_decode(v);
        match k {
            "doc" => doc = Some(v),
            "user" => user = Some(v),
            "pass" => pass = v,
            "ip" => ip = Some(v),
            "host" => host = Some(v),
            _ => {}
        }
    }
    let uri = doc.filter(|d| !d.is_empty())?;
    Some(ClientRequest {
        user: user.map(|u| (u, pass)),
        ip: ip.unwrap_or_else(|| peer_ip.to_string()),
        sym: host.unwrap_or_else(|| "localhost.localdomain".to_string()),
        uri,
    })
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                // Exactly two hex digits: `from_str_radix` alone would
                // also take a sign, decoding `%+1` to 0x01.
                let hex = bytes
                    .get(i + 1..i + 3)
                    .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                    .and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok());
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// What the connection does once a reply is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum After {
    /// Read the next request (event loop keep-alive only).
    KeepAlive,
    Close,
    /// Close after briefly discarding the client's in-flight bytes: the
    /// request was refused before it was fully read, and closing on
    /// unread bytes would answer them with a reset that can destroy the
    /// status line before the client reads it.
    Linger,
}

/// A rendered answer. Empty `bytes` means close without answering (the
/// client left, or an injected disconnect).
pub(crate) struct Reply {
    pub(crate) bytes: Vec<u8>,
    pub(crate) after: After,
}

impl Reply {
    fn new(bytes: Vec<u8>, keep_alive: bool) -> Reply {
        Reply { bytes, after: if keep_alive { After::KeepAlive } else { After::Close } }
    }

    fn silent() -> Reply {
        Reply { bytes: Vec::new(), after: After::Close }
    }

    fn plain(code: u16, text: &str, body: &str, keep_alive: bool) -> Reply {
        Reply::new(render_response(code, text, "text/plain", body, &[], keep_alive), keep_alive)
    }
}

/// What a job computes.
enum Work {
    View {
        if_none_match: Option<String>,
    },
    Query(String),
    /// A parsed op batch, with each op's 1-based source line so a
    /// denial can point back at the batch the client sent.
    Update {
        ops: Vec<UpdateOp>,
        lines: Vec<u32>,
    },
}

/// A routed request that the cache-only probe may not be able to
/// answer: everything compute needs, including its cancellation token.
pub(crate) struct Job {
    client: ClientRequest,
    work: Work,
    /// Tripped by the deadline, or by the transport when the client
    /// hangs up.
    pub(crate) cancel: CancelToken,
    keep_alive: bool,
    /// What a view's cache-only probe established before it missed, so
    /// compute does not authenticate and fingerprint the request again.
    ticket: Option<Box<ViewTicket>>,
}

/// What the buffered bytes amount to.
pub(crate) enum Step {
    /// Not a complete request yet: read more.
    Incomplete,
    /// Answer now; the request took the first `consumed` bytes.
    Reply { consumed: usize, reply: Reply },
    /// A complete request for compute; it took the first `consumed`
    /// bytes.
    Job { consumed: usize, job: Job },
}

/// The shared request core: the server, the limits, and the admission
/// state of one running front end.
pub(crate) struct Core {
    server: SecureServer,
    pub(crate) cfg: HttpConfig,
    admission: Admission,
    depth: Arc<telemetry::Gauge>,
    /// Whether a reply may leave the connection open (the event loop)
    /// or always closes it (the pool).
    persistent: bool,
}

impl Core {
    pub(crate) fn new(server: SecureServer, cfg: HttpConfig, persistent: bool) -> Core {
        Core { server, admission: Admission::new(&cfg), cfg, depth: queue_depth(), persistent }
    }

    /// Routes the request at the front of `buf`, if it is complete.
    /// Side effects (metrics, the probe) happen only once a request is
    /// complete, so a transport may call this again after every read.
    pub(crate) fn route(&self, buf: &[u8], peer_ip: &str) -> Step {
        // Refused before the request was fully read: close, lingering.
        let refuse = |consumed, code, text, body: &str| Step::Reply {
            consumed,
            reply: Reply { after: After::Linger, ..Reply::plain(code, text, body, false) },
        };
        let len = match scan_head(buf, self.cfg.max_request_line, self.cfg.max_header_bytes) {
            HeadScan::Incomplete => return Step::Incomplete,
            HeadScan::LineTooLong => {
                xmlsec_xml::limit_rejected("request_line");
                return refuse(buf.len(), 431, TOO_LARGE, "request line too long\n");
            }
            HeadScan::HeadersTooLong => {
                xmlsec_xml::limit_rejected("header_bytes");
                return refuse(buf.len(), 431, TOO_LARGE, "header block too large\n");
            }
            HeadScan::Complete(len) => len,
        };
        let head = parse_head(&String::from_utf8_lossy(&buf[..len]), self.persistent);
        let ka = head.keep_alive;
        // Unknowable framing is refused first, whatever the method or
        // target: where such a request ends cannot be told.
        let Ok(content_length) = head.content_length else {
            return refuse(len, 400, "Bad Request", "malformed Content-Length\n");
        };

        // Only an update reads a body. Anywhere else the declared bytes
        // would be read as the next request, so a front end framing by
        // `Content-Length` would see one request where we see two.
        let target = head.line.split_whitespace().nth(1).unwrap_or("");
        let metrics = target == "/metrics" || target.starts_with("/metrics?");
        let update = head.line.starts_with("POST ") && !metrics;
        if !update && matches!(content_length, Some(l) if l > 0) {
            return refuse(
                len,
                400,
                "Bad Request",
                "a request body is accepted only on an update\n",
            );
        }

        // Observability endpoint, before any document handling and for
        // any method: the whole process shares one registry.
        if metrics {
            let body = telemetry::global().render_prometheus();
            let bytes = render_response(200, "OK", "text/plain; version=0.0.4", &body, &[], ka);
            return Step::Reply { consumed: len, reply: Reply::new(bytes, ka) };
        }

        if !update {
            let Some((client, query)) = parse_request_line(&head.line, peer_ip) else {
                let reply = Reply::plain(400, "Bad Request", "malformed request line\n", ka);
                return Step::Reply { consumed: len, reply };
            };
            let work = match query {
                Some(path) => Work::Query(path),
                None => Work::View { if_none_match: head.if_none_match },
            };
            let cancel = self.token(head.deadline_ms);
            let job = Job { client, work, cancel, keep_alive: ka, ticket: None };
            return Step::Job { consumed: len, job };
        }

        // Writes: the request line, then the declared length (refused
        // without waiting for the bytes), then the body, then the ops.
        let Some(client) = parse_update_request_line(&head.line, peer_ip) else {
            return refuse(len, 400, "Bad Request", "malformed update request\n");
        };
        let body_len = match content_length {
            None => return refuse(len, 411, "Length Required", "Content-Length required\n"),
            Some(l) if l > MAX_UPDATE_BODY => {
                xmlsec_xml::limit_rejected("update_body");
                return refuse(len, 413, "Content Too Large", "update body too large\n");
            }
            Some(l) => l,
        };
        let Some(body) = buf.get(len..len + body_len) else { return Step::Incomplete };
        let consumed = len + body_len;
        match parse_update_ops_with_lines(&String::from_utf8_lossy(body)) {
            Ok(ops) => {
                let (lines, ops) = ops.into_iter().unzip();
                let job = Job {
                    client,
                    work: Work::Update { ops, lines },
                    cancel: self.token(head.deadline_ms),
                    keep_alive: ka,
                    ticket: None,
                };
                Step::Job { consumed, job }
            }
            // No keep-alive reuse after a refused write.
            Err(e) => Step::Reply {
                consumed,
                reply: Reply::plain(400, "Bad Request", &format!("{e}\n"), false),
            },
        }
    }

    /// The request's cancellation token. Its deadline is the tighter of
    /// the server's ceiling and the client's declared budget.
    fn token(&self, client_ms: Option<u64>) -> CancelToken {
        let client = client_ms.map(Duration::from_millis);
        match self.cfg.request_deadline.into_iter().chain(client).min() {
            Some(d) => CancelToken::with_timeout(d),
            None => CancelToken::never(),
        }
    }

    /// Answers a view from already-computed state: `Ok(Some)` for a warm
    /// hit or a 304, `Err` for the probe's typed error (authentication,
    /// missing document), `Ok(None)` when the job needs compute — the
    /// job then carries the probe's ticket to it. Queries and updates
    /// always need compute.
    pub(crate) fn cached(&self, job: &mut Job) -> Result<Option<Reply>, Reply> {
        let Work::View { if_none_match } = &job.work else { return Ok(None) };
        let ka = job.keep_alive;
        match self.server.probe_cache_only(&job.client, if_none_match.as_deref()) {
            Ok(Probe::Hit(ConditionalOutcome::NotModified { etag })) => {
                not_modified_total().inc();
                Ok(Some(Reply::new(render_not_modified(&etag, ka), ka)))
            }
            Ok(Probe::Hit(ConditionalOutcome::Full(resp))) => {
                Ok(Some(Reply::new(render_view(resp, ka), ka)))
            }
            Ok(Probe::Miss(ticket)) => {
                job.ticket = Some(Box::new(ticket));
                Ok(None)
            }
            Err(e) => Err(Reply::new(render_err(&e, ka), ka)),
        }
    }

    /// Runs one job and renders its reply. `admitted` false means the
    /// admission controller is shedding: only already-computed state is
    /// served, and fresh compute is refused with 503 + `Retry-After`.
    /// A panic anywhere in here answers 500 and leaves the worker alive.
    pub(crate) fn compute(&self, job: &mut Job, admitted: bool) -> Reply {
        match catch_unwind(AssertUnwindSafe(|| self.run(job, admitted))) {
            Ok(reply) => reply,
            Err(_) => {
                panics_caught_total().inc();
                let what = match job.work {
                    Work::View { .. } => "request",
                    Work::Query(_) => "query",
                    Work::Update { .. } => "update",
                };
                let e = ServerError::Processing(format!("panic during {what} processing"));
                Reply::new(render_err(&e, job.keep_alive), job.keep_alive)
            }
        }
    }

    fn run(&self, job: &mut Job, admitted: bool) -> Reply {
        let ka = job.keep_alive;
        if faults::check("handle.start") {
            return Reply::silent(); // injected disconnect: drop without responding
        }
        if !admitted {
            return match self.cached(job) {
                Ok(Some(reply)) => {
                    degraded_hits_total().inc();
                    reply
                }
                Ok(None) => Reply::new(render_overloaded(&self.admission, ka), ka),
                Err(reply) => reply,
            };
        }
        let _ = faults::check("process.request");
        let cancel = Some(&job.cancel);
        let rendered = match &job.work {
            Work::View { if_none_match } => match job.ticket.take() {
                Some(ticket) => self.server.handle_probed(
                    &job.client,
                    if_none_match.as_deref(),
                    cancel,
                    *ticket,
                ),
                None => {
                    self.server.handle_cancellable(&job.client, if_none_match.as_deref(), cancel)
                }
            }
            .map(|outcome| match outcome {
                ConditionalOutcome::NotModified { etag } => {
                    not_modified_total().inc();
                    render_not_modified(&etag, ka)
                }
                ConditionalOutcome::Full(resp) => render_view(resp, ka),
            }),
            Work::Query(path) => {
                self.server.query_cancellable(&job.client, path, cancel).map(|resp| {
                    let mut body = String::new();
                    for m in &resp.matches {
                        body.push_str(m);
                        body.push('\n');
                    }
                    render_response(200, "OK", "text/xml", &body, &[], ka)
                })
            }
            Work::Update { ops, lines } => {
                match self.server.update_cancellable(&job.client, ops, cancel) {
                    Ok(touched) => Ok(render_response(
                        200,
                        "OK",
                        "text/plain",
                        &format!("updated {touched}\n"),
                        &[],
                        ka,
                    )),
                    // A static denial points back at the op's source line
                    // in the batch the client sent, not its post-parse
                    // index.
                    Err(ServerError::UpdateDeniedStatic { op, reason }) => {
                        let line = lines.get(op).copied().unwrap_or(0);
                        let body = format!("update denied: line {line}: {reason}\n");
                        return Reply::plain(403, "Forbidden", &body, ka);
                    }
                    Err(e) => Err(e),
                }
            }
        };
        match rendered {
            Ok(_) if faults::check("respond.write") => Reply::silent(),
            Ok(bytes) => Reply::new(bytes, ka),
            Err(e) => self.respond_err_cancellable(&e, ka),
        }
    }

    /// The error reply, except cancellations get their typed treatment:
    /// the per-reason counter is bumped, a vanished client gets no bytes
    /// at all (there is nobody to read them), and deadline or explicit
    /// cancellations answer 503 with a computed `Retry-After` so the
    /// client retries when the server expects to have capacity.
    fn respond_err_cancellable(&self, e: &ServerError, ka: bool) -> Reply {
        if let ServerError::Cancelled(reason) = e {
            cancelled_total(reason.as_str()).inc();
            return match reason {
                CancelReason::ClientGone => Reply::silent(),
                CancelReason::DeadlineExceeded | CancelReason::Explicit => {
                    Reply::new(render_overloaded(&self.admission, ka), ka)
                }
            };
        }
        Reply::new(render_err(e, ka), ka)
    }
}

/// The sending half of the bounded worker queue.
pub(crate) struct Queue<T> {
    tx: SyncSender<(T, Instant)>,
    core: Arc<Core>,
}

/// What became of an item offered to the worker queue.
pub(crate) enum Pushed<T> {
    Queued,
    /// The backlog is full: the item comes back with the 503 to answer.
    Shed(T, Vec<u8>),
    /// The workers are gone (shutdown).
    Closed,
}

impl<T> Queue<T> {
    /// Offers `item` to the workers, stamped with its enqueue time so
    /// the dequeuing worker can feed its sojourn to admission control.
    pub(crate) fn push(&self, item: T) -> Pushed<T> {
        let depth = &self.core.depth;
        // Count before enqueueing: a worker may dequeue (and decrement)
        // the instant try_send returns, and the gauge must never read
        // negative.
        depth.add(1);
        match self.tx.try_send((item, Instant::now())) {
            Ok(()) => Pushed::Queued,
            Err(TrySendError::Full((item, _))) => {
                depth.add(-1);
                shed_total().inc();
                Pushed::Shed(item, render_busy(self.core.admission.retry_after_secs(depth.get())))
            }
            Err(TrySendError::Disconnected(_)) => {
                depth.add(-1);
                Pushed::Closed
            }
        }
    }
}

/// The bounded worker pool behind either transport.
pub(crate) struct Workers {
    handles: Vec<JoinHandle<()>>,
    drain_timeout: Duration,
}

impl Workers {
    /// Spawns `cfg.workers` workers that each run
    /// `run(core, item, admitted)` on queued items, and returns the
    /// queue that feeds them; its capacity is `cfg.backlog`. The workers
    /// exit once every queue handle is dropped and the backlog drains.
    pub(crate) fn start<T, F>(core: &Arc<Core>, run: F) -> (Queue<T>, Workers)
    where
        T: Send + 'static,
        F: Fn(&Core, T, bool) + Send + Sync + 'static,
    {
        let (tx, rx) = sync_channel::<(T, Instant)>(core.cfg.backlog.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let run = Arc::new(run);
        let handles = (0..core.cfg.workers.max(1))
            .map(|_| {
                let (rx, run, core) = (Arc::clone(&rx), Arc::clone(&run), Arc::clone(core));
                std::thread::spawn(move || worker_loop(&rx, &core, &*run))
            })
            .collect();
        let workers = Workers { handles, drain_timeout: core.cfg.drain_timeout };
        (Queue { tx, core: Arc::clone(core) }, workers)
    }

    /// Waits for the workers to finish their backlog, up to the drain
    /// deadline; workers still busy after that are detached, so shutdown
    /// always returns. Call after dropping the queue.
    pub(crate) fn join(&mut self) {
        let deadline = Instant::now() + self.drain_timeout;
        for h in std::mem::take(&mut self.handles) {
            while !h.is_finished() && Instant::now() < deadline {
                std::thread::sleep(JOIN_POLL);
            }
            if h.is_finished() {
                let _ = h.join();
            }
            // else: detached by drop.
        }
    }
}

fn worker_loop<T>(rx: &Mutex<Receiver<(T, Instant)>>, core: &Core, run: &dyn Fn(&Core, T, bool)) {
    loop {
        // A panicking sibling poisons the mutex; treat that as shutdown
        // rather than unwrapping (the pool is already compromised).
        let next = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => break,
        };
        let Ok((item, enqueued)) = next else { break };
        core.depth.add(-1);
        let now = Instant::now();
        let sojourn = now.duration_since(enqueued);
        sojourn_seconds().observe_duration(sojourn);
        let admitted = core.admission.admit(sojourn, now);
        if !admitted {
            adaptive_shed_total().inc();
        }
        let started = Instant::now();
        // Panic isolation: one bad request must not take the worker (and
        // with it a slice of the pool's capacity) down. Compute panics
        // are caught closer in and answered with 500; this is the
        // backstop for everything else.
        if catch_unwind(AssertUnwindSafe(|| run(core, item, admitted))).is_err() {
            panics_caught_total().inc();
        }
        if admitted {
            // Degraded requests skip compute; folding their (tiny) wall
            // time into the EWMA would talk Retry-After down exactly
            // when the queue is at its worst.
            core.admission.record_service(started.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use xmlsec_authz::{AuthType, Authorization, AuthorizationBase, ObjectSpec, Sign};
    use xmlsec_subjects::{Directory, Subject};

    #[test]
    fn scan_head_enforces_the_line_cap_as_bytes_arrive() {
        // "GET /x\r\n" is 8 bytes, terminator included.
        let line = b"GET /x\r\n\r\n";
        assert_eq!(scan_head(line, 8, 64), HeadScan::Complete(10), "a line at the cap");
        assert_eq!(scan_head(line, 7, 64), HeadScan::LineTooLong, "one past it");
        // Without a terminator yet, the cap still holds.
        assert_eq!(scan_head(b"GET /xyz", 8, 64), HeadScan::Incomplete);
        assert_eq!(scan_head(b"GET /xyz!", 8, 64), HeadScan::LineTooLong);
    }

    #[test]
    fn scan_head_enforces_the_header_block_cap() {
        // Two header lines of 6 bytes each: a 12-byte block.
        let head = b"GET /x\r\nA: 1\r\nB: 2\r\n\r\n";
        assert_eq!(scan_head(head, 64, 12), HeadScan::Complete(head.len()), "a block at the cap");
        assert_eq!(scan_head(head, 64, 11), HeadScan::HeadersTooLong, "one past it");
        // An unterminated header line counts against the cap too.
        assert_eq!(scan_head(b"GET /x\r\nA: 1\r\nB: 2", 64, 10), HeadScan::Incomplete);
        assert_eq!(scan_head(b"GET /x\r\nA: 1\r\nB: 23", 64, 10), HeadScan::HeadersTooLong);
        // Bare-LF framing is accepted.
        assert_eq!(scan_head(b"GET /x\nA: 1\n\nrest", 64, 64), HeadScan::Complete(13));
        // A block at its cap whose blank line has sent only its `\r` so far.
        assert_eq!(scan_head(b"GET /x\r\nA: 1\r\n\r", 64, 6), HeadScan::Incomplete);
        assert_eq!(scan_head(b"GET /x\r\nA: 1\r\n\rB", 64, 6), HeadScan::HeadersTooLong);
    }

    /// Bytes biased towards framing: request-line and header fragments,
    /// both line terminators, and arbitrary single bytes.
    fn framing_bytes() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec((0u8..9, any::<u8>()), 0..48).prop_map(|parts| {
            let mut out = Vec::new();
            for (kind, b) in parts {
                match kind {
                    0 => out.extend_from_slice(b"GET /doc.xml?user=tom HTTP/1.1"),
                    1 => out.extend_from_slice(b"\r\n"),
                    2 => out.push(b'\n'),
                    3 => out.push(b'\r'),
                    4 => out.extend_from_slice(b"Content-Length: 4"),
                    5 => out.extend_from_slice(b"Connection: keep-alive"),
                    6 => out.extend_from_slice(b"POST /update?doc=doc.xml&user=tom HTTP/1.1"),
                    _ => out.push(b),
                }
            }
            out
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn hostile_framing_never_panics(bytes in framing_bytes(), caps in (0usize..96, 0usize..96)) {
            let _ = scan_head(&bytes, caps.0, caps.1);
            let _ = parse_head(&String::from_utf8_lossy(&bytes), true);
            let _ = parse_head(&String::from_utf8_lossy(&bytes), false);
        }

        /// The request core on hostile bytes: no panic, never more
        /// consumed than buffered, and `Incomplete` only while no
        /// complete head fits the caps or a `POST` still awaits the body
        /// its head declares.
        #[test]
        fn route_frames_hostile_bytes(
            framed in framing_bytes(),
            raw in prop::collection::vec(any::<u8>(), 0..160),
            caps in (0usize..160, 0usize..160),
        ) {
            let mut core = core();
            core.cfg.max_request_line = caps.0;
            core.cfg.max_header_bytes = caps.1;
            // Each buffer as sent, and cut right after its head.
            let mut bufs = vec![framed, raw];
            for i in 0..bufs.len() {
                if let HeadScan::Complete(len) = scan_head(&bufs[i], caps.0, caps.1) {
                    bufs.push(bufs[i][..len].to_vec());
                }
            }
            for buf in &bufs {
                let step = core.route(buf, "127.0.0.1");
                // Unless the connection closes, the next request starts
                // after every body byte the head declared.
                let lingers =
                    matches!(&step, Step::Reply { reply, .. } if reply.after == After::Linger);
                let answered = match &step {
                    Step::Reply { consumed, .. } | Step::Job { consumed, .. } => Some(*consumed),
                    Step::Incomplete => None,
                };
                if let (Some(consumed), false) = (answered, lingers) {
                    if let HeadScan::Complete(len) = scan_head(buf, caps.0, caps.1) {
                        let head = parse_head(&String::from_utf8_lossy(&buf[..len]), false);
                        let body = head.content_length.ok().flatten().unwrap_or(0);
                        prop_assert!(consumed >= len + body, "body left unread: {:?}", buf);
                    }
                }
                match step {
                    Step::Reply { consumed, .. } | Step::Job { consumed, .. } => {
                        prop_assert!(consumed <= buf.len(), "consumed {} of {:?}", consumed, buf);
                    }
                    Step::Incomplete => match scan_head(buf, caps.0, caps.1) {
                        HeadScan::Incomplete => {}
                        HeadScan::Complete(len) => {
                            let head = parse_head(&String::from_utf8_lossy(&buf[..len]), false);
                            let awaits_body = head.line.starts_with("POST ")
                                && matches!(head.content_length, Ok(Some(l)) if len + l > buf.len());
                            prop_assert!(awaits_body, "a complete head left waiting: {:?}", buf);
                        }
                        refused => prop_assert!(false, "{:?} left waiting: {:?}", refused, buf),
                    },
                }
            }
        }

        #[test]
        fn scan_verdicts_are_final_once_reached(
            bytes in framing_bytes(),
            caps in (0usize..96, 0usize..96),
        ) {
            let mut settled = None;
            for end in 0..=bytes.len() {
                let verdict = scan_head(&bytes[..end], caps.0, caps.1);
                if let Some(first) = &settled {
                    prop_assert_eq!(&verdict, first, "prefix of {} bytes", end);
                } else if verdict != HeadScan::Incomplete {
                    settled = Some(verdict);
                }
            }
        }

        #[test]
        fn caps_admit_the_limit_and_refuse_one_byte_more(
            path in "[a-z/]{1,24}",
            headers in prop::collection::vec("[A-Za-z]{1,6}: [ -~]{0,12}", 0..4),
            crlf in any::<bool>(),
        ) {
            let term: &[u8] = if crlf { b"\r\n" } else { b"\n" };
            let content = format!("GET /{path} HTTP/1.1");
            let line = [content.as_bytes(), term].concat();
            let block: Vec<u8> = headers.iter().flat_map(|h| [h.as_bytes(), term].concat()).collect();
            let head = [line.as_slice(), &block, term].concat();
            let (max_line, max_header) = (line.len(), block.len());

            // At both caps the head is complete, and no prefix of it is refused.
            prop_assert_eq!(scan_head(&head, max_line, max_header), HeadScan::Complete(head.len()));
            for end in 0..head.len() {
                prop_assert_eq!(scan_head(&head[..end], max_line, max_header), HeadScan::Incomplete);
            }
            // One byte over the line cap: refused with its newline...
            prop_assert_eq!(scan_head(&head, max_line - 1, max_header), HeadScan::LineTooLong);
            // ...and before it, once the line's own bytes pass the cap.
            let unterminated = content.as_bytes();
            prop_assert_eq!(scan_head(unterminated, unterminated.len(), 0), HeadScan::Incomplete);
            prop_assert_eq!(
                scan_head(unterminated, unterminated.len() - 1, 0),
                HeadScan::LineTooLong
            );
            if let Some(last) = headers.last() {
                // One byte over the header cap: refused with its newline...
                prop_assert_eq!(
                    scan_head(&head, max_line, max_header - 1),
                    HeadScan::HeadersTooLong
                );
                // ...and before it, once the block's bytes pass the cap.
                let sent = [line.as_slice(), &block[..block.len() - term.len()]].concat();
                let so_far = block.len() - term.len();
                prop_assert!(sent.ends_with(last.as_bytes()));
                prop_assert_eq!(scan_head(&sent, max_line, so_far), HeadScan::Incomplete);
                prop_assert_eq!(scan_head(&sent, max_line, so_far - 1), HeadScan::HeadersTooLong);
            }
        }
    }

    #[test]
    fn parse_head_reads_the_honoured_headers() {
        let h = parse_head(
            "GET /x HTTP/1.1\r\nif-none-match: \"t\"\r\nX-Request-Deadline: 25\r\n\
             Content-Length: 7\r\n\r\n",
            true,
        );
        assert_eq!(h.line, "GET /x HTTP/1.1");
        assert_eq!(h.if_none_match.as_deref(), Some("\"t\""));
        assert_eq!(h.deadline_ms, Some(25));
        assert_eq!(h.content_length, Ok(Some(7)));
        assert!(h.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(!parse_head("GET /x HTTP/1.1\r\n\r\n", false).keep_alive, "the pool never does");
        let h = parse_head(
            "GET /x HTTP/1.0\r\nConnection: keep-alive\r\nX-Request-Deadline: soon\r\n",
            true,
        );
        assert!(h.keep_alive);
        assert_eq!(h.deadline_ms, None, "advisory header, ignored when unparsable");
        assert_eq!(h.content_length, Ok(None));
    }

    #[test]
    fn parse_head_refuses_a_malformed_or_conflicting_length() {
        let length = |headers: &str| {
            parse_head(&format!("POST /x HTTP/1.1\r\n{headers}\r\n"), true).content_length
        };
        assert_eq!(length("Content-Length: 007\r\n"), Ok(Some(7)));
        assert_eq!(
            length("Content-Length: 4\r\ncontent-length: 4\r\n"),
            Ok(Some(4)),
            "copies agree"
        );
        assert_eq!(length("Content-Length: 99999999999999999999999\r\n"), Ok(Some(usize::MAX)));
        for bad in ["+5", "-5", " ", "5 5", "4, 4", "0x10", "5\u{b5}", "\u{661}"] {
            assert_eq!(length(&format!("Content-Length: {bad}\r\n")), Err(()), "{bad:?}");
        }
        assert_eq!(
            length("Content-Length: 4\r\nContent-Length: 5\r\n"),
            Err(()),
            "copies disagree"
        );
        assert_eq!(
            length("Content-Length: x\r\nContent-Length: 5\r\n"),
            Err(()),
            "a bad copy sticks"
        );
    }

    #[test]
    fn a_malformed_or_conflicting_length_is_400_for_every_request() {
        let core = core();
        let update = "POST /update?doc=doc.xml&user=tom&pass=pw HTTP/1.0";
        for head in [
            format!("{update}\r\nContent-Length: +5\r\n\r\nhello"),
            format!("{update}\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello"),
            "GET /doc.xml?user=tom&pass=pw HTTP/1.0\r\nContent-Length: -1\r\n\r\n".to_string(),
            "GET /metrics HTTP/1.0\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n".to_string(),
        ] {
            let Step::Reply { reply, consumed } = core.route(head.as_bytes(), "127.0.0.1") else {
                panic!("refused inline: {head:?}")
            };
            assert_eq!(reply.after, After::Linger, "{head:?}");
            assert!(consumed <= head.len());
            let text = String::from_utf8(reply.bytes).unwrap();
            assert!(text.starts_with("HTTP/1.0 400") && text.contains("Content-Length"), "{text}");
        }
    }

    #[test]
    fn a_body_outside_an_update_is_refused_not_read_as_the_next_request() {
        let core = core();
        let smuggled = "GET /cold.xml?user=tom&pass=pw HTTP/1.1\r\n\r\n";
        for first in [
            "GET /doc.xml?user=tom&pass=pw HTTP/1.1",
            "GET /metrics HTTP/1.1",
            "POST /metrics HTTP/1.1",
            "HEAD /doc.xml?user=tom&pass=pw HTTP/1.1",
        ] {
            let head = format!("{first}\r\nContent-Length: {}\r\n\r\n", smuggled.len());
            let buf = format!("{head}{smuggled}");
            let Step::Reply { reply, consumed } = core.route(buf.as_bytes(), "127.0.0.1") else {
                panic!("{first:?} with a body was routed as a job")
            };
            assert_eq!((consumed, reply.after), (head.len(), After::Linger), "{first:?}");
            let text = String::from_utf8(reply.bytes).unwrap();
            assert!(text.starts_with("HTTP/1.0 400") && text.contains("update"), "{text}");
        }
        // An empty body declared outright is no body at all.
        let zero = "GET /doc.xml?user=tom&pass=pw HTTP/1.1\r\nContent-Length: 0\r\n\r\n";
        assert!(
            matches!(core.route(zero.as_bytes(), "127.0.0.1"), Step::Job { consumed, .. } if consumed == zero.len())
        );
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("%2Fd%2Fpub"), "/d/pub");
        assert_eq!(percent_decode("plain"), "plain");
        assert_eq!(percent_decode("bad%zz"), "bad%zz");
        assert_eq!(percent_decode("trail%2"), "trail%2");
        // A sign is not a hex digit: `%` stays literal, `+` is a space.
        assert_eq!(percent_decode("%+1%-1"), "% 1%-1");
        assert_eq!(percent_decode("%4a%4B"), "JK", "either case");
    }

    fn core() -> Core {
        let mut dir = Directory::new();
        dir.add_user("tom").unwrap();
        let mut base = AuthorizationBase::new();
        base.add(Authorization::new(
            Subject::new("tom", "*", "*").unwrap(),
            ObjectSpec::with_path("doc.xml", "/d/pub").unwrap(),
            Sign::Plus,
            AuthType::Recursive,
        ));
        let mut s = SecureServer::new(dir, base);
        s.register_credentials("tom", "pw");
        s.repository_mut()
            .put_document("doc.xml", "<d><pub>hello</pub><priv>no</priv></d>", None);
        s.repository_mut().put_document("cold.xml", "<d><pub>brr</pub></d>", None);
        Core::new(s, HttpConfig::default(), false)
    }

    fn answer(core: &Core, request: &str, admitted: bool) -> String {
        let reply = match core.route(request.as_bytes(), "127.0.0.1") {
            Step::Incomplete => panic!("incomplete: {request:?}"),
            Step::Reply { reply, .. } => reply,
            Step::Job { mut job, .. } => core.compute(&mut job, admitted),
        };
        String::from_utf8(reply.bytes).unwrap()
    }

    #[test]
    fn degraded_mode_serves_warm_cache_and_refuses_compute() {
        let core = core();
        // Warm the cache exactly as the request below will key it.
        let warm = ClientRequest {
            user: Some(("tom".into(), "pw".into())),
            ip: "1.2.3.4".into(),
            sym: "h.x.org".into(),
            uri: "doc.xml".into(),
        };
        let warmed = core.server.handle(&warm).expect("warm the cache");
        let degraded_get =
            |target: &str| answer(&core, &format!("GET {target} HTTP/1.0\r\n\r\n"), false);

        // Warm view: served from cache even while shedding.
        let hit = degraded_get("/doc.xml?user=tom&pass=pw&ip=1.2.3.4&host=h.x.org");
        assert!(hit.starts_with("HTTP/1.0 200"), "{hit}");
        assert!(hit.contains("hello"), "{hit}");
        assert!(hit.contains(&warmed.etag), "degraded hit carries the same tag: {hit}");
        // Cold view: would need the pipeline → refused with a hint.
        let miss = degraded_get("/cold.xml?user=tom&pass=pw&ip=1.2.3.4&host=h.x.org");
        assert!(miss.starts_with("HTTP/1.0 503"), "{miss}");
        assert!(miss.contains("Retry-After: "), "{miss}");
        // Queries always recompute → refused while shedding.
        let q = degraded_get("/doc.xml?user=tom&pass=pw&ip=1.2.3.4&host=h.x.org&q=%2Fd%2Fpub");
        assert!(q.starts_with("HTTP/1.0 503"), "{q}");
    }

    #[test]
    fn a_view_counts_one_cache_lookup_whichever_probe_answers_it() {
        let core = core();
        let get = "GET /doc.xml?user=tom&pass=pw&ip=1.2.3.4&host=h.x.org HTTP/1.0\r\n\r\n";
        // As the event loop serves a view: the cache-only probe, then
        // compute when it cannot answer.
        let serve = || {
            let Step::Job { mut job, .. } = core.route(get.as_bytes(), "127.0.0.1") else {
                panic!("a view is a job")
            };
            let reply = match core.cached(&mut job) {
                Ok(Some(reply)) | Err(reply) => reply,
                Ok(None) => {
                    assert!(job.ticket.is_some(), "a missed probe hands its ticket on");
                    core.compute(&mut job, true)
                }
            };
            String::from_utf8(reply.bytes).unwrap()
        };
        let moved = |before: (u64, u64)| {
            let after = core.server.cache_stats();
            (after.0 - before.0, after.1 - before.1)
        };
        let before = core.server.cache_stats();
        let cold = serve();
        assert!(cold.starts_with("HTTP/1.0 200"), "{cold}");
        assert_eq!(moved(before), (0, 1), "a cold GET is one miss");
        let before = core.server.cache_stats();
        let warm = serve();
        assert!(warm.starts_with("HTTP/1.0 200"), "{warm}");
        assert_eq!(moved(before), (1, 0), "a warm GET is one hit");
    }

    #[test]
    fn post_checks_run_in_one_order_whatever_the_admission() {
        let core = core();
        let update = "POST /update?doc=doc.xml&user=tom&pass=pw HTTP/1.0";
        for admitted in [true, false] {
            // The request line is checked before the declared length...
            let r =
                answer(&core, "POST /nope HTTP/1.0\r\nContent-Length: 999999999\r\n\r\n", admitted);
            assert!(r.starts_with("HTTP/1.0 400"), "{r}");
            // ...the length before the body and before any shedding...
            let r = answer(&core, &format!("{update}\r\n\r\n"), admitted);
            assert!(r.starts_with("HTTP/1.0 411"), "{r}");
            let r =
                answer(&core, &format!("{update}\r\nContent-Length: 999999999\r\n\r\n"), admitted);
            assert!(r.starts_with("HTTP/1.0 413"), "{r}");
            // ...and the ops before compute.
            let r = answer(&core, &format!("{update}\r\nContent-Length: 4\r\n\r\nnope"), admitted);
            assert!(r.starts_with("HTTP/1.0 400") && r.contains("line 1"), "{r}");
        }
        // A length-framed body is waited for.
        let partial = format!("{update}\r\nContent-Length: 20\r\n\r\nsettext");
        assert!(matches!(core.route(partial.as_bytes(), "127.0.0.1"), Step::Incomplete));
        // Refusals before the body was read linger; later ones close.
        let Step::Reply { reply, .. } = core.route(format!("{update}\r\n\r\n").as_bytes(), "p")
        else {
            panic!("411 is answered inline")
        };
        assert_eq!(reply.after, After::Linger);
    }

    #[test]
    fn deadline_token_takes_the_tighter_budget() {
        let mut core = core();
        assert!(core.token(Some(0)).check().is_err(), "client budget tighter");
        assert!(core.token(Some(60_000)).check().is_ok());
        core.cfg.request_deadline = Some(Duration::ZERO);
        assert!(core.token(Some(60_000)).check().is_err(), "server ceiling tighter");
        core.cfg.request_deadline = None;
        assert!(core.token(None).check().is_ok(), "no deadline at all");
    }
}
