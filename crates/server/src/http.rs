//! A minimal HTTP front end for the secure server — the demonstrator the
//! paper's conclusion promises ("we intend to prepare in a short time a
//! Web site to demonstrate the characteristics of our proposal").
//!
//! Protocol: `GET /<document-uri>?user=U&pass=P&ip=A&host=H[&q=PATH]`
//! over HTTP/1.0. Without `user`, the request is anonymous. With `q`,
//! the response is the secure query result instead of the whole view.
//! When the document has a DTD, its loosened form follows the view in
//! the body behind a `<!-- loosened DTD -->` marker.
//!
//! Writes: `POST /update?doc=<uri>&user=U&pass=P&ip=A&host=H` with a
//! Content-Length framed, line-based op batch as body (see
//! [`parse_update_ops`] for the grammar). A successful batch answers
//! `200 updated <n>`; denials answer 403, and the same deadline,
//! cancellation, and overload contract as reads applies (docs/UPDATES.md).
//!
//! View responses carry a strong `ETag` (derived from the view's
//! content-addressed cache key and exact bytes) and `Cache-Control:
//! private, no-cache` — private because a view is requester-class
//! specific, no-cache so clients revalidate every time. A request whose
//! `If-None-Match` still names the current view is answered `304 Not
//! Modified` without rendering (from a warm cache, without running any
//! pipeline stage); 304s are counted in
//! `xmlsec_http_not_modified_total`.
//!
//! This module is the **blocking pool** transport, the portable one and
//! the reference the event loop ([`crate::epoll`]) is held byte-identical
//! to. It is a driver around the shared request core in
//! `crate::request`, which frames, routes, computes and renders every
//! request for both transports. The pool adds only blocking I/O: an
//! accept thread feeds a bounded backlog (503 load shedding when full),
//! and each worker reads one connection until the core can route it,
//! runs the core's compute when the request needs it, writes the reply
//! and closes. Socket read/write timeouts reap slow clients (408), and a
//! graceful shutdown drains in-flight work up to a deadline. Everything
//! is tunable through [`HttpConfig`]; the renderers, the admission
//! controller and the telemetry series here are shared with the loop.
//!
//! The overload contract both transports share:
//!
//! - **End-to-end deadlines and cancellation.** Every request gets a
//!   [`CancelToken`] whose deadline is the tighter of the server's
//!   [`HttpConfig::request_deadline`] and the client's
//!   `X-Request-Deadline` header (milliseconds). The token is threaded
//!   through every pipeline stage and polled inside the hot loops; a
//!   tripped request unwinds with a typed cancellation (503, computed
//!   `Retry-After`), partial work discarded. On the pool a per-request
//!   watchdog polls the socket while compute runs, so a client that
//!   hangs up cancels its own request (`ClientGone`) instead of burning
//!   the worker's remaining budget. Cancellations are counted per reason
//!   in `xmlsec_server_cancelled_total`.
//! - **CoDel-style adaptive admission.** Each queued item is stamped on
//!   enqueue; at dequeue the worker feeds the queue *sojourn time* to an
//!   admission controller (target/interval in [`HttpConfig`]). When
//!   sojourn stays above target for a full interval, the controller
//!   sheds requests at an increasing rate until the queue drains — but
//!   shed requests degrade gracefully: cache hits and `If-None-Match`
//!   revalidations are still served from already-computed state, and
//!   only fresh *compute* is refused with 503 and a `Retry-After`
//!   derived from the live queue depth and an EWMA of recent service
//!   times.

use crate::request::{After, Core, Pushed, Step, Workers};
use crate::server::{SecureServer, ServerError, ServerResponse};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xmlsec_core::update::UpdateOp;
use xmlsec_core::{CancelReason, CancelToken};
use xmlsec_telemetry as telemetry;

/// How often the accept loop re-checks the stop flag while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Largest accepted `POST /update` body. Update batches are small (a
/// few ops, each one line); anything bigger is hostile or broken.
pub(crate) const MAX_UPDATE_BODY: usize = 256 * 1024;

/// Tunable resource bounds for [`HttpDemo`].
///
/// The defaults are generous enough that every legitimate demo workload
/// passes untouched, while still bounding what a hostile or broken
/// client can cost the server.
#[derive(Debug, Clone, Copy)]
pub struct HttpConfig {
    /// Worker threads handling requests (the concurrency bound).
    pub workers: usize,
    /// Accepted connections that may wait for a worker before new
    /// arrivals are shed with 503.
    pub backlog: usize,
    /// Per-connection read timeout; a stalled client (slow loris) gets
    /// a best-effort 408 and is dropped.
    pub read_timeout: Duration,
    /// Per-connection write timeout; a client that stops draining its
    /// response is dropped.
    pub write_timeout: Duration,
    /// Longest accepted request line in bytes (431 beyond this).
    pub max_request_line: usize,
    /// Longest accepted header block in bytes (431 beyond this).
    pub max_header_bytes: usize,
    /// How long shutdown waits for in-flight requests to finish before
    /// detaching the remaining workers.
    pub drain_timeout: Duration,
    /// Server-side ceiling on how long one request may run end to end
    /// (measured from when a worker picks it up). A client's
    /// `X-Request-Deadline: <ms>` header can tighten but never loosen
    /// it. `None` disables the server-side deadline (client deadlines
    /// still apply).
    pub request_deadline: Option<Duration>,
    /// Turns CoDel-style adaptive admission control on (default) or
    /// off. Off, only the hard backlog bound sheds.
    pub shed_adaptive: bool,
    /// Sojourn target for admission control: the queue wait the server
    /// is willing to sustain. Below it nothing is shed.
    pub shed_target: Duration,
    /// How long sojourn must stay above target before shedding starts
    /// (CoDel's interval).
    pub shed_interval: Duration,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            workers: 8,
            backlog: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_request_line: 8 * 1024,
            max_header_bytes: 32 * 1024,
            drain_timeout: Duration::from_secs(5),
            request_deadline: Some(Duration::from_secs(10)),
            shed_adaptive: true,
            shed_target: Duration::from_millis(100),
            shed_interval: Duration::from_secs(1),
        }
    }
}

/// Handle to a running demo server.
pub struct HttpDemo {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    workers: Workers,
}

pub(crate) fn shed_total() -> Arc<telemetry::Counter> {
    telemetry::global().counter(
        "xmlsec_server_shed_total",
        "Connections rejected with 503 because the request queue was full.",
        &[],
    )
}

pub(crate) fn panics_caught_total() -> Arc<telemetry::Counter> {
    telemetry::global().counter(
        "xmlsec_server_panics_caught_total",
        "Panics caught during request handling and converted to errors.",
        &[],
    )
}

pub(crate) fn not_modified_total() -> Arc<telemetry::Counter> {
    telemetry::global().counter(
        "xmlsec_http_not_modified_total",
        "View requests answered 304 Not Modified via If-None-Match.",
        &[],
    )
}

pub(crate) fn queue_depth() -> Arc<telemetry::Gauge> {
    telemetry::global().gauge(
        "xmlsec_server_queue_depth",
        "Accepted connections waiting in the backlog queue for a worker.",
        &[],
    )
}

pub(crate) fn cancelled_total(reason: &'static str) -> Arc<telemetry::Counter> {
    telemetry::global().counter(
        "xmlsec_server_cancelled_total",
        "Requests cancelled before completion, by reason.",
        &[("reason", reason)],
    )
}

pub(crate) fn adaptive_shed_total() -> Arc<telemetry::Counter> {
    telemetry::global().counter(
        "xmlsec_server_adaptive_shed_total",
        "Requests degraded to cache-only service by the admission controller.",
        &[],
    )
}

pub(crate) fn degraded_hits_total() -> Arc<telemetry::Counter> {
    telemetry::global().counter(
        "xmlsec_server_degraded_hits_total",
        "Requests answered from already-computed state while shedding.",
        &[],
    )
}

pub(crate) fn sojourn_seconds() -> Arc<telemetry::Histogram> {
    telemetry::global().histogram(
        "xmlsec_server_queue_sojourn_seconds",
        "Time accepted connections spent waiting for a worker.",
        &[],
        telemetry::Buckets::duration_default(),
    )
}

/// CoDel-style admission controller plus the service-time estimate that
/// prices `Retry-After`.
///
/// The classic CoDel insight, applied to the worker queue: transient
/// bursts are fine (sojourn spikes that drain within one interval are
/// never shed), but *standing* queues are not — once the sojourn time
/// has exceeded `target` for a full `interval`, the controller starts
/// shedding, and sheds at an increasing rate (`interval / √count`)
/// until the queue drains back under target.
pub(crate) struct Admission {
    enabled: bool,
    target: Duration,
    interval: Duration,
    state: Mutex<ShedState>,
    /// EWMA of admitted requests' service time, in nanoseconds (α=1/8).
    service_ewma_ns: AtomicU64,
}

struct ShedState {
    /// When sojourn first exceeded target (None: currently below).
    above_since: Option<Instant>,
    /// In shedding mode.
    dropping: bool,
    /// Next instant at which a request is shed while in shedding mode.
    drop_next: Instant,
    /// Sheds in the current shedding episode (drives the control law).
    count: u32,
}

impl Admission {
    pub(crate) fn new(cfg: &HttpConfig) -> Admission {
        Admission {
            enabled: cfg.shed_adaptive,
            target: cfg.shed_target,
            interval: cfg.shed_interval.max(Duration::from_millis(1)),
            state: Mutex::new(ShedState {
                above_since: None,
                dropping: false,
                drop_next: Instant::now(),
                count: 0,
            }),
            service_ewma_ns: AtomicU64::new(0),
        }
    }

    /// Decides whether the request dequeued `sojourn` after being
    /// accepted runs the full pipeline (`true`) or degrades to
    /// cache-only service (`false`).
    pub(crate) fn admit(&self, sojourn: Duration, now: Instant) -> bool {
        if !self.enabled {
            return true;
        }
        let Ok(mut st) = self.state.lock() else { return true };
        if sojourn <= self.target {
            st.above_since = None;
            st.dropping = false;
            st.count = 0;
            return true;
        }
        let above_since = *st.above_since.get_or_insert(now);
        if !st.dropping {
            if now.duration_since(above_since) < self.interval {
                return true; // transient burst: give it one interval to drain
            }
            st.dropping = true;
            st.drop_next = now; // sustained: shed starting with this request
        }
        if now >= st.drop_next {
            st.count += 1;
            st.drop_next = now + self.interval.div_f64(f64::from(st.count).sqrt());
            false
        } else {
            true
        }
    }

    /// Folds one admitted request's wall time into the EWMA.
    pub(crate) fn record_service(&self, d: Duration) {
        let ns = d.as_nanos().min(u128::from(u64::MAX)) as u64;
        let prev = self.service_ewma_ns.load(Ordering::Relaxed);
        let next = if prev == 0 { ns } else { prev - prev / 8 + ns / 8 };
        self.service_ewma_ns.store(next, Ordering::Relaxed);
    }

    /// `Retry-After` seconds for a shed response: the live queue depth
    /// priced at the recent per-request service time, clamped to
    /// [1, 30]. An integer per RFC 9110 §10.2.3.
    pub(crate) fn retry_after_secs(&self, depth: i64) -> u64 {
        // 1 ms floor so a cold EWMA still yields a sane hint.
        let ewma = self.service_ewma_ns.load(Ordering::Relaxed).max(1_000_000);
        let waiting = depth.max(0) as u64 + 1;
        waiting.saturating_mul(ewma).div_ceil(1_000_000_000).clamp(1, 30)
    }
}

impl HttpDemo {
    /// Starts serving `server` on `addr` with default limits (use port 0
    /// for an ephemeral port). Runs until [`HttpDemo::shutdown`] or drop.
    pub fn start(server: SecureServer, addr: &str) -> std::io::Result<HttpDemo> {
        HttpDemo::start_with(server, addr, HttpConfig::default())
    }

    /// Starts serving with explicit resource bounds.
    pub fn start_with(
        server: SecureServer,
        addr: &str,
        cfg: HttpConfig,
    ) -> std::io::Result<HttpDemo> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        // Nonblocking accept: a blocking accept would only notice the stop
        // flag after one more connection arrived, so shutdown could hang
        // (e.g. when the bind address is unspecified and no self-connect
        // reaches the listener). Polling sidesteps the race entirely.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);

        // Bounded handoff: accept → queue → worker. A worker owns the
        // connection from its first byte to close; when the backlog is
        // full the accept loop sheds instead of queueing unbounded work.
        let core = Arc::new(Core::new(server, cfg, false));
        let (queue, workers) = Workers::start(&core, serve);

        let handle = std::thread::spawn(move || {
            while !stop2.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((conn, _)) => {
                        // The accepted socket must block; inheritance of
                        // the nonblocking flag is platform-dependent.
                        let _ = conn.set_nonblocking(false);
                        let _ = conn.set_read_timeout(Some(cfg.read_timeout));
                        let _ = conn.set_write_timeout(Some(cfg.write_timeout));
                        match queue.push(conn) {
                            Pushed::Queued => {}
                            Pushed::Shed(mut conn, busy) => {
                                let _ = conn.write_all(&busy);
                            }
                            Pushed::Closed => break,
                        }
                    }
                    Err(_) => std::thread::sleep(ACCEPT_POLL),
                }
            }
            // `queue` drops here; workers drain the backlog and then exit.
        });
        Ok(HttpDemo { addr: local, stop, handle: Some(handle), workers })
    }

    /// Where the demo is listening.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, then drains: queued and in-flight requests get
    /// up to the configured drain deadline to finish; workers still busy
    /// after that are detached so shutdown always returns.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        self.workers.join();
    }
}

impl Drop for HttpDemo {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The 503 bytes written when the request queue has no room: both
/// transports shed with exactly this response.
pub(crate) fn render_busy(retry_after: u64) -> Vec<u8> {
    let body = "server busy, try again shortly\n";
    format!(
        "HTTP/1.0 503 Service Unavailable\r\nRetry-After: {retry_after}\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The best-effort 408 for a client that held its connection without
/// completing a request (slow loris).
pub(crate) fn render_timeout() -> Vec<u8> {
    render_response(408, "Request Timeout", "text/plain", "request timeout\n", &[], false)
}

/// One connection on a pool worker: read until the request core can
/// route the request, run its compute here when it needs compute, write
/// the reply, close. A connection that ends before its request is
/// complete is closed without an answer; one that stalls gets a 408.
fn serve(core: &Core, mut conn: TcpStream, admitted: bool) {
    let peer_ip = conn
        .peer_addr()
        .map(|a| a.ip().to_string())
        .unwrap_or_else(|_| "127.0.0.1".to_string());
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let reply = loop {
        match core.route(&buf, &peer_ip) {
            Step::Incomplete => {}
            Step::Reply { reply, .. } => break reply,
            Step::Job { mut job, .. } => {
                // The request is fully read, so the watchdog's
                // read-0-means-hangup contract holds for GETs and POSTs
                // alike.
                let watchdog = Watchdog::spawn(&conn, &job.cancel);
                let reply = core.compute(&mut job, admitted);
                if let Some(w) = watchdog {
                    w.disarm(&conn);
                }
                break reply;
            }
        }
        match conn.read(&mut chunk) {
            Ok(n) if n > 0 => buf.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => {
                let _ = conn.write_all(&render_timeout());
                return;
            }
            Ok(_) | Err(_) => return,
        }
    };
    if conn.write_all(&reply.bytes).and_then(|()| conn.flush()).is_ok()
        && reply.after == After::Linger
    {
        drain_before_close(&mut conn);
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// Bounded lingering close after an early rejection: if we close while
/// the client's unread bytes sit in the socket, TCP answers them with a
/// reset and the client may never see our status line. Discard what is
/// already in flight (briefly, and at most a fixed amount) so the close
/// is a clean FIN.
fn drain_before_close(conn: &mut TcpStream) {
    let _ = conn.set_read_timeout(Some(Duration::from_millis(200)));
    let mut scratch = [0u8; 8192];
    let mut total = 0usize;
    while total < 256 * 1024 {
        match conn.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => total += n,
        }
    }
}

/// How often the client-disconnect watchdog polls the socket.
const WATCHDOG_POLL: Duration = Duration::from_millis(10);

/// Watches the client socket while the pipeline runs and trips the
/// request's token with [`CancelReason::ClientGone`] on hangup, so an
/// abandoned request stops burning the worker instead of computing a
/// view nobody will read.
///
/// The watchdog reads a *clone* of the stream nonblockingly. HTTP/1.0
/// GETs carry no body, so any `read` returning 0 after the headers is a
/// client-side close; stray bytes (a pipelined follow-up we will never
/// parse — the demo always answers `Connection: close`) are discarded
/// without poisoning anything. Nonblocking-ness is a property of the
/// shared socket, so [`Watchdog::disarm`] must run — and restore
/// blocking mode — before the response is written.
struct Watchdog {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Watchdog {
    fn spawn(conn: &TcpStream, token: &CancelToken) -> Option<Watchdog> {
        let sock = conn.try_clone().ok()?;
        sock.set_nonblocking(true).ok()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let token = token.clone();
        let handle = std::thread::spawn(move || {
            let mut scratch = [0u8; 256];
            while !stop2.load(Ordering::Relaxed) {
                match std::io::Read::read(&mut (&sock), &mut scratch) {
                    Ok(0) => {
                        token.cancel_with(CancelReason::ClientGone);
                        break;
                    }
                    Ok(_) => {} // unread request bytes: discard
                    // Parked, not asleep: `halt` wakes it at once.
                    Err(e) if is_timeout(&e) => std::thread::park_timeout(WATCHDOG_POLL),
                    Err(_) => {
                        token.cancel_with(CancelReason::ClientGone);
                        break;
                    }
                }
            }
        });
        Some(Watchdog { stop, handle: Some(handle) })
    }

    /// Stops the watchdog and restores blocking mode on `conn` so the
    /// response can be written normally.
    fn disarm(mut self, conn: &TcpStream) {
        self.halt();
        let _ = conn.set_nonblocking(false);
    }

    /// Stops the thread without waiting out its current poll interval.
    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        // Unwind path (disarm not reached): stop the thread so it never
        // outlives the request it was watching.
        self.halt();
    }
}

/// Parses the line-based update body shared by both transports. One op
/// per line, fields tab-separated; blank lines and `#` comments are
/// skipped:
///
/// ```text
/// settext <path>\t<text>
/// setattr <path>\t<name>\t<value>
/// insert <path>\t<name>
/// insertsub <path>\t<xml-fragment>
/// replacesub <path>\t<xml-fragment>
/// delete <path>
/// ```
pub fn parse_update_ops(body: &str) -> Result<Vec<UpdateOp>, String> {
    Ok(parse_update_ops_with_lines(body)?.into_iter().map(|(_, op)| op).collect())
}

/// [`parse_update_ops`], but each op carries its 1-based source line so
/// transports can point denials and parse errors back at the batch.
///
/// Field arity is strict: ops whose grammar ends in a free-text field
/// (`settext`, `insertsub`, `replacesub`) absorb the rest of the line,
/// but every other field must be exactly one tab-separated token —
/// `setattr a\tb\tc\textra`, `insert <path>\t<name>\tmore`, and
/// `delete <path>\tmore` are rejected with the offending line number
/// instead of silently folding the garbage into a value, name, or
/// path.
pub fn parse_update_ops_with_lines(body: &str) -> Result<Vec<(u32, UpdateOp)>, String> {
    let mut ops = Vec::new();
    for (i, raw) in body.lines().enumerate() {
        let lineno = (i + 1) as u32;
        let line = raw.trim_end_matches('\r');
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (verb, rest) = line.split_once(' ').unwrap_or((line, ""));
        let op = match verb {
            "settext" => {
                let (target, text) = rest
                    .split_once('\t')
                    .ok_or_else(|| format!("line {lineno}: settext wants <path>\\t<text>"))?;
                UpdateOp::SetText { target: target.to_string(), text: text.to_string() }
            }
            "setattr" => {
                let mut it = rest.splitn(3, '\t');
                match (it.next(), it.next(), it.next()) {
                    (Some(t), Some(n), Some(v)) if !t.is_empty() && !n.is_empty() => {
                        if v.contains('\t') {
                            return Err(format!(
                                "line {lineno}: setattr wants exactly \
                                 <path>\\t<name>\\t<value>, got trailing fields"
                            ));
                        }
                        UpdateOp::SetAttribute {
                            target: t.to_string(),
                            name: n.to_string(),
                            value: v.to_string(),
                        }
                    }
                    _ => {
                        return Err(format!(
                            "line {lineno}: setattr wants <path>\\t<name>\\t<value>"
                        ))
                    }
                }
            }
            "insert" => {
                let (parent, name) = rest
                    .split_once('\t')
                    .ok_or_else(|| format!("line {lineno}: insert wants <path>\\t<name>"))?;
                if name.contains('\t') {
                    return Err(format!(
                        "line {lineno}: insert wants exactly <path>\\t<name>, got trailing fields"
                    ));
                }
                UpdateOp::InsertElement { parent: parent.to_string(), name: name.to_string() }
            }
            "insertsub" => {
                let (parent, xml) = rest
                    .split_once('\t')
                    .ok_or_else(|| format!("line {lineno}: insertsub wants <path>\\t<xml>"))?;
                UpdateOp::InsertSubtree { parent: parent.to_string(), xml: xml.to_string() }
            }
            "replacesub" => {
                let (target, xml) = rest
                    .split_once('\t')
                    .ok_or_else(|| format!("line {lineno}: replacesub wants <path>\\t<xml>"))?;
                UpdateOp::ReplaceSubtree { target: target.to_string(), xml: xml.to_string() }
            }
            "delete" => {
                if rest.is_empty() {
                    return Err(format!("line {lineno}: delete wants <path>"));
                }
                if rest.contains('\t') {
                    return Err(format!(
                        "line {lineno}: delete wants exactly <path>, got trailing fields"
                    ));
                }
                UpdateOp::Delete { target: rest.to_string() }
            }
            other => return Err(format!("line {lineno}: unknown op {other:?}")),
        };
        ops.push((lineno, op));
    }
    if ops.is_empty() {
        return Err("empty update batch".to_string());
    }
    Ok(ops)
}

/// Renders a full view response (200 + ETag + cache policy).
pub(crate) fn render_view(resp: ServerResponse, keep_alive: bool) -> Vec<u8> {
    let etag_header = format!("\"{}\"", resp.etag);
    let mut body = resp.xml;
    body.push('\n');
    if let Some(dtd) = resp.loosened_dtd {
        body.push_str("<!-- loosened DTD -->\n");
        body.push_str(&dtd);
    }
    render_response(
        200,
        "OK",
        "text/xml",
        &body,
        &[("ETag", &etag_header), ("Cache-Control", "private, no-cache")],
        keep_alive,
    )
}

/// Renders the 503 for a request refused (or abandoned) under overload,
/// with a `Retry-After` priced from the live queue depth and the
/// service-time EWMA.
pub(crate) fn render_overloaded(admission: &Admission, keep_alive: bool) -> Vec<u8> {
    let retry = admission.retry_after_secs(queue_depth().get()).to_string();
    render_response(
        503,
        "Service Unavailable",
        "text/plain",
        "server overloaded, try again shortly\n",
        &[("Retry-After", &retry)],
        keep_alive,
    )
}

/// Renders a typed error response (the status mapping shared by both
/// transports).
pub(crate) fn render_err(e: &ServerError, keep_alive: bool) -> Vec<u8> {
    let (code, text) = match e {
        ServerError::AuthenticationFailed => (401, "Unauthorized"),
        ServerError::NotFound(_) => (404, "Not Found"),
        ServerError::BadRequest(_) | ServerError::BadQuery(_) => (400, "Bad Request"),
        ServerError::UpdateDenied(_) | ServerError::UpdateDeniedStatic { .. } => (403, "Forbidden"),
        ServerError::Processing(_) => (500, "Internal Server Error"),
        // The request was well-formed but asked for more resources than
        // the server allows — the client's document or query is at
        // fault, not the server.
        ServerError::LimitExceeded(_) => (422, "Unprocessable Entity"),
        // The server gave up on the request (deadline, disconnect,
        // overload) — the client may retry the identical request.
        ServerError::Cancelled(_) => (503, "Service Unavailable"),
    };
    render_response(code, text, "text/plain", &format!("{e}\n"), &[], keep_alive)
}

/// Renders one complete HTTP response. Both transports produce their
/// bytes here, so a given (status, body, headers) triple is answered
/// byte-identically over the blocking pool and the event loop — the
/// only sanctioned difference is the `Connection` header, which
/// advertises `keep-alive` when the event loop will keep the connection
/// open for another request.
pub(crate) fn render_response(
    code: u16,
    text: &str,
    ctype: &str,
    body: &str,
    extra_headers: &[(&str, &str)],
    keep_alive: bool,
) -> Vec<u8> {
    let mut extra = String::new();
    for (name, value) in extra_headers {
        extra.push_str(name);
        extra.push_str(": ");
        extra.push_str(value);
        extra.push_str("\r\n");
    }
    let conn = if keep_alive { "keep-alive" } else { "close" };
    format!(
        "HTTP/1.0 {code} {text}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\n{extra}Connection: {conn}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Renders a 304: no body (RFC 9110 §15.4.5); the tag and cache policy
/// ride in the headers so the client can keep validating its copy.
pub(crate) fn render_not_modified(etag: &str, keep_alive: bool) -> Vec<u8> {
    let conn = if keep_alive { "keep-alive" } else { "close" };
    format!(
        "HTTP/1.0 304 Not Modified\r\nETag: \"{etag}\"\r\nCache-Control: private, no-cache\r\nConnection: {conn}\r\n\r\n"
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::SecureServer;
    use proptest::prelude::*;
    use std::io::Read;
    use xmlsec_authz::{AuthType, Authorization, AuthorizationBase, ObjectSpec, Sign};
    use xmlsec_subjects::{Directory, Subject};

    fn demo() -> HttpDemo {
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
        HttpDemo::start(s, "127.0.0.1:0").expect("bind ephemeral port")
    }

    fn get(addr: SocketAddr, target: &str) -> (u16, String) {
        let mut conn = TcpStream::connect(addr).expect("connect");
        write!(conn, "GET {target} HTTP/1.0\r\nHost: test\r\n\r\n").expect("write");
        let mut buf = String::new();
        conn.read_to_string(&mut buf).expect("read");
        let code: u16 = buf.split_whitespace().nth(1).and_then(|c| c.parse().ok()).unwrap_or(0);
        let body = buf.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
        (code, body)
    }

    /// Like [`get`] but sends extra headers and returns the raw header
    /// block alongside the parsed status and body.
    fn get_full(addr: SocketAddr, target: &str, headers: &[(&str, &str)]) -> (u16, String, String) {
        let mut conn = TcpStream::connect(addr).expect("connect");
        let mut req = format!("GET {target} HTTP/1.0\r\nHost: test\r\n");
        for (name, value) in headers {
            req.push_str(&format!("{name}: {value}\r\n"));
        }
        req.push_str("\r\n");
        conn.write_all(req.as_bytes()).expect("write");
        let mut buf = String::new();
        conn.read_to_string(&mut buf).expect("read");
        let code: u16 = buf.split_whitespace().nth(1).and_then(|c| c.parse().ok()).unwrap_or(0);
        let (head, body) = buf.split_once("\r\n\r\n").unwrap_or((buf.as_str(), ""));
        (code, head.to_string(), body.to_string())
    }

    fn etag_of(head: &str) -> String {
        head.lines()
            .find_map(|l| l.strip_prefix("ETag: "))
            .expect("response carries an ETag")
            .trim()
            .to_string()
    }

    #[test]
    fn serves_views_over_http() {
        let demo = demo();
        let (code, body) = get(demo.addr(), "/doc.xml?user=tom&pass=pw&ip=1.2.3.4&host=h.x.org");
        assert_eq!(code, 200);
        assert!(body.contains("hello"), "{body}");
        assert!(!body.contains("no"), "{body}");
    }

    #[test]
    fn wrong_password_is_401() {
        let demo = demo();
        let (code, _) = get(demo.addr(), "/doc.xml?user=tom&pass=oops&ip=1.2.3.4&host=h.x.org");
        assert_eq!(code, 401);
    }

    #[test]
    fn missing_document_is_404() {
        let demo = demo();
        let (code, _) = get(demo.addr(), "/nope.xml?user=tom&pass=pw&ip=1.2.3.4&host=h.x.org");
        assert_eq!(code, 404);
    }

    #[test]
    fn queries_over_http() {
        let demo = demo();
        let (code, body) =
            get(demo.addr(), "/doc.xml?user=tom&pass=pw&ip=1.2.3.4&host=h.x.org&q=%2Fd%2Fpub");
        assert_eq!(code, 200);
        assert_eq!(body.trim(), "<pub>hello</pub>");
        // A malformed query is a 400.
        let (code2, _) =
            get(demo.addr(), "/doc.xml?user=tom&pass=pw&ip=1.2.3.4&host=h.x.org&q=%5B%5B");
        assert_eq!(code2, 400);
    }

    #[test]
    fn anonymous_requests_use_peer_address() {
        let demo = demo();
        // No user, no declared ip/host: defaults kick in; with no grants
        // for anonymous, the view is the bare shell.
        let (code, body) = get(demo.addr(), "/doc.xml");
        assert_eq!(code, 200);
        assert!(body.contains("<d/>"), "{body}");
    }

    #[test]
    fn bad_request_line_is_400() {
        let demo = demo();
        let mut conn = TcpStream::connect(demo.addr()).unwrap();
        write!(conn, "POST / HTTP/1.0\r\n\r\n").unwrap();
        let mut buf = String::new();
        conn.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.0 400"), "{buf}");
    }

    #[test]
    fn view_responses_carry_etag_and_cache_control() {
        let demo = demo();
        let target = "/doc.xml?user=tom&pass=pw&ip=1.2.3.4&host=h.x.org";
        let (code, head, body) = get_full(demo.addr(), target, &[]);
        assert_eq!(code, 200);
        assert!(body.contains("hello"), "{body}");
        let etag = etag_of(&head);
        assert!(etag.starts_with('"') && etag.ends_with('"'), "strong quoted tag: {etag}");
        assert!(head.contains("Cache-Control: private, no-cache"), "{head}");
        // Error responses carry no tag.
        let (_, head401, _) =
            get_full(demo.addr(), "/doc.xml?user=tom&pass=oops&ip=1.2.3.4&host=h.x.org", &[]);
        assert!(!head401.contains("ETag:"), "{head401}");
    }

    #[test]
    fn if_none_match_revalidates_with_304() {
        let demo = demo();
        let target = "/doc.xml?user=tom&pass=pw&ip=1.2.3.4&host=h.x.org";
        let (_, head, _) = get_full(demo.addr(), target, &[]);
        let etag = etag_of(&head);
        let (code, head304, body304) = get_full(demo.addr(), target, &[("If-None-Match", &etag)]);
        assert_eq!(code, 304);
        assert!(body304.is_empty(), "a 304 has no body: {body304:?}");
        assert_eq!(etag_of(&head304), etag, "the 304 re-states the tag");
        // A stale tag gets the full body again.
        let (code2, _, body2) = get_full(demo.addr(), target, &[("If-None-Match", "\"stale\"")]);
        assert_eq!(code2, 200);
        assert!(body2.contains("hello"), "{body2}");
        // Header-name matching is case-insensitive.
        let (code3, _, _) = get_full(demo.addr(), target, &[("if-none-match", &etag)]);
        assert_eq!(code3, 304);
    }

    #[test]
    fn shutdown_is_idempotent() {
        let mut demo = demo();
        demo.shutdown();
        demo.shutdown();
    }

    #[test]
    fn shutdown_completes_without_any_connection() {
        // The old accept loop blocked until one more connection arrived;
        // shutting down a server nobody ever talked to must still return.
        let mut demo = demo();
        let t = std::time::Instant::now();
        demo.shutdown();
        assert!(t.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn metrics_endpoint_renders_prometheus_text() {
        let demo = demo();
        let _ = get(demo.addr(), "/doc.xml?user=tom&pass=pw&ip=1.2.3.4&host=h.x.org");
        let (code, body) = get(demo.addr(), "/metrics");
        assert_eq!(code, 200);
        assert!(body.contains("# TYPE xmlsec_requests_total counter"), "{body}");
        assert!(body.contains("xmlsec_pipeline_stage_duration_seconds_bucket"), "{body}");
    }

    #[test]
    fn oversized_request_line_is_431() {
        let demo = demo();
        let long = "a".repeat(10 * 1024);
        let (code, _) = get(demo.addr(), &format!("/doc.xml?user={long}"));
        assert_eq!(code, 431);
    }

    #[test]
    fn oversized_header_block_is_431() {
        let demo = demo();
        let mut conn = TcpStream::connect(demo.addr()).unwrap();
        write!(conn, "GET /doc.xml HTTP/1.0\r\n").unwrap();
        let filler = "x".repeat(1000);
        for i in 0..40 {
            // The server may answer 431 and close before we finish
            // writing; a failed write just means it already rejected us.
            if write!(conn, "X-Pad-{i}: {filler}\r\n").is_err() {
                break;
            }
        }
        let _ = write!(conn, "\r\n");
        let mut buf = String::new();
        conn.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.0 431"), "{buf}");
    }

    #[test]
    fn admission_sheds_only_sustained_overload() {
        let cfg = HttpConfig {
            shed_target: Duration::from_millis(10),
            shed_interval: Duration::from_millis(100),
            ..Default::default()
        };
        let adm = Admission::new(&cfg);
        let t0 = Instant::now();
        let above = Duration::from_millis(50);
        let ms = Duration::from_millis;
        // Below target: always admitted.
        assert!(adm.admit(ms(1), t0));
        // A burst above target is tolerated for one interval.
        assert!(adm.admit(above, t0));
        assert!(adm.admit(above, t0 + ms(50)));
        // Sustained a full interval: shedding starts.
        assert!(!adm.admit(above, t0 + ms(150)));
        // Between drop points requests still pass...
        assert!(adm.admit(above, t0 + ms(151)));
        // ...until the next drop point (interval/√count later).
        assert!(!adm.admit(above, t0 + ms(250)));
        // One sojourn back under target resets the episode entirely.
        assert!(adm.admit(ms(1), t0 + ms(260)));
        assert!(adm.admit(above, t0 + ms(261)));
    }

    #[test]
    fn admission_can_be_disabled() {
        let cfg = HttpConfig {
            shed_adaptive: false,
            shed_target: Duration::from_millis(1),
            shed_interval: Duration::from_millis(1),
            ..Default::default()
        };
        let adm = Admission::new(&cfg);
        let t0 = Instant::now();
        for i in 0..100 {
            assert!(adm.admit(Duration::from_secs(5), t0 + Duration::from_millis(i)));
        }
    }

    #[test]
    fn retry_after_is_priced_from_depth_and_service_time() {
        let adm = Admission::new(&HttpConfig::default());
        // Cold EWMA: 1 ms floor → clamps up to 1 second.
        assert_eq!(adm.retry_after_secs(0), 1);
        adm.record_service(Duration::from_millis(500));
        // 10 waiting × ~500 ms each ≈ 5 s.
        let r = adm.retry_after_secs(9);
        assert!((4..=6).contains(&r), "{r}");
        // Clamped to 30 s no matter the backlog.
        assert_eq!(adm.retry_after_secs(1_000_000), 30);
        // Never zero or negative, even on nonsense depth.
        assert_eq!(adm.retry_after_secs(-5), 1);
    }

    #[test]
    fn expired_client_deadline_is_503_with_retry_after() {
        let demo = demo();
        let target = "/doc.xml?user=tom&pass=pw&ip=1.2.3.4&host=h.x.org";
        let (code, head, _) = get_full(demo.addr(), target, &[("X-Request-Deadline", "0")]);
        assert_eq!(code, 503, "{head}");
        let retry = head
            .lines()
            .find_map(|l| l.strip_prefix("Retry-After: "))
            .expect("shed response names a retry hint");
        let secs: u64 = retry.trim().parse().expect("Retry-After is integer seconds");
        assert!((1..=30).contains(&secs), "{secs}");
        // The cancellation is visible per-reason in telemetry.
        let (_, metrics) = get(demo.addr(), "/metrics");
        assert!(
            metrics.contains("xmlsec_server_cancelled_total{reason=\"deadline\"}"),
            "{metrics}"
        );
        // A garbage deadline header is advisory, not a 400 — and the
        // server's own (generous) deadline still applies.
        let (code2, _, body2) = get_full(demo.addr(), target, &[("X-Request-Deadline", "soon")]);
        assert_eq!(code2, 200);
        assert!(body2.contains("hello"), "{body2}");
    }

    #[test]
    fn backlog_overflow_sheds_with_computed_retry_after() {
        let cfg = HttpConfig {
            workers: 1,
            backlog: 1,
            read_timeout: Duration::from_millis(600),
            ..Default::default()
        };
        let mut dir = Directory::new();
        dir.add_user("tom").unwrap();
        let s = SecureServer::new(dir, AuthorizationBase::new());
        let mut demo = HttpDemo::start_with(s, "127.0.0.1:0", cfg).expect("bind");
        // A slow loris pins the only worker...
        let mut loris = TcpStream::connect(demo.addr()).unwrap();
        write!(loris, "GET /doc").unwrap();
        loris.flush().unwrap();
        std::thread::sleep(Duration::from_millis(100));
        // ...a second connection fills the single backlog slot...
        let queued = TcpStream::connect(demo.addr()).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        // ...and the third is shed with a well-formed Retry-After.
        let mut c = TcpStream::connect(demo.addr()).unwrap();
        let mut buf = String::new();
        c.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.0 503"), "{buf}");
        let retry = buf
            .lines()
            .find_map(|l| l.strip_prefix("Retry-After: "))
            .expect("backlog shed names a retry hint");
        let secs: u64 = retry.trim().parse().expect("integer seconds");
        assert!((1..=30).contains(&secs), "{secs}");
        drop(queued);
        drop(loris);
        demo.shutdown();
    }

    #[test]
    fn slow_request_times_out_with_408() {
        let cfg = HttpConfig { read_timeout: Duration::from_millis(200), ..Default::default() };
        let mut dir = Directory::new();
        dir.add_user("tom").unwrap();
        let s = SecureServer::new(dir, AuthorizationBase::new());
        let mut demo = HttpDemo::start_with(s, "127.0.0.1:0", cfg).expect("bind");
        let mut conn = TcpStream::connect(demo.addr()).unwrap();
        // Send half a request line and stall; the server should answer
        // 408 (or at minimum close) instead of pinning a worker forever.
        write!(conn, "GET /doc").unwrap();
        conn.flush().unwrap();
        let mut buf = String::new();
        let t = Instant::now();
        let _ = conn.read_to_string(&mut buf);
        assert!(t.elapsed() < Duration::from_secs(3), "connection not reaped");
        assert!(buf.is_empty() || buf.starts_with("HTTP/1.0 408"), "{buf}");
        demo.shutdown();
    }

    // --- POST /update ---------------------------------------------------

    fn writable_demo() -> HttpDemo {
        let mut dir = Directory::new();
        dir.add_user("ed").unwrap();
        dir.add_user("ro").unwrap();
        let mut base = AuthorizationBase::new();
        for user in ["ed", "ro"] {
            base.add(Authorization::new(
                Subject::new(user, "*", "*").unwrap(),
                ObjectSpec::with_path("doc.xml", "/d").unwrap(),
                Sign::Plus,
                AuthType::Recursive,
            ));
        }
        base.add(
            Authorization::new(
                Subject::new("ed", "*", "*").unwrap(),
                ObjectSpec::with_path("doc.xml", "/d").unwrap(),
                Sign::Plus,
                AuthType::Recursive,
            )
            .with_action(xmlsec_authz::Action::Write),
        );
        let mut s = SecureServer::new(dir, base);
        s.register_credentials("ed", "pw");
        s.register_credentials("ro", "pw");
        s.repository_mut().put_document("doc.xml", "<d><t>v1</t></d>", None);
        HttpDemo::start(s, "127.0.0.1:0").expect("bind ephemeral port")
    }

    fn post(addr: SocketAddr, target: &str, body: &str) -> (u16, String) {
        let mut conn = TcpStream::connect(addr).expect("connect");
        write!(
            conn,
            "POST {target} HTTP/1.0\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("write");
        let mut buf = String::new();
        conn.read_to_string(&mut buf).expect("read");
        let code: u16 = buf.split_whitespace().nth(1).and_then(|c| c.parse().ok()).unwrap_or(0);
        let resp = buf.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
        (code, resp)
    }

    const ED_UPDATE: &str = "/update?doc=doc.xml&user=ed&pass=pw&ip=1.2.3.4&host=h.x.org";

    #[test]
    fn updates_over_http() {
        let demo = writable_demo();
        let (code, body) = post(demo.addr(), ED_UPDATE, "settext /d/t\tv2\ninsert /d\tt\n");
        assert_eq!(code, 200, "{body}");
        assert_eq!(body.trim(), "updated 2");
        // The committed batch is visible through the read path at once.
        let (code2, view) = get(demo.addr(), "/doc.xml?user=ro&pass=pw&ip=1.2.3.4&host=h.x.org");
        assert_eq!(code2, 200);
        assert!(view.contains("v2"), "{view}");
        assert!(!view.contains("v1"), "{view}");
    }

    #[test]
    fn update_without_write_grant_is_403() {
        let demo = writable_demo();
        let (code, _) = post(
            demo.addr(),
            "/update?doc=doc.xml&user=ro&pass=pw&ip=1.2.3.4&host=h.x.org",
            "settext /d/t\tdefaced\n",
        );
        assert_eq!(code, 403);
        let (_, view) = get(demo.addr(), "/doc.xml?user=ro&pass=pw&ip=1.2.3.4&host=h.x.org");
        assert!(view.contains("v1"), "nothing committed: {view}");
    }

    #[test]
    fn update_with_wrong_password_is_401() {
        let demo = writable_demo();
        let (code, _) = post(
            demo.addr(),
            "/update?doc=doc.xml&user=ed&pass=oops&ip=1.2.3.4&host=h.x.org",
            "settext /d/t\tx\n",
        );
        assert_eq!(code, 401);
    }

    #[test]
    fn malformed_update_bodies_are_400() {
        let demo = writable_demo();
        // Unknown verb.
        let (code, body) = post(demo.addr(), ED_UPDATE, "frobnicate /d/t\n");
        assert_eq!(code, 400);
        assert!(body.contains("line 1"), "{body}");
        // Missing tab separator.
        let (code2, _) = post(demo.addr(), ED_UPDATE, "settext /d/t v2\n");
        assert_eq!(code2, 400);
        // Empty batch (comments only).
        let (code3, body3) = post(demo.addr(), ED_UPDATE, "# nothing\n\n");
        assert_eq!(code3, 400);
        assert!(body3.contains("empty"), "{body3}");
        // Missing doc parameter.
        let (code4, _) = post(
            demo.addr(),
            "/update?user=ed&pass=pw&ip=1.2.3.4&host=h.x.org",
            "settext /d/t\tx\n",
        );
        assert_eq!(code4, 400);
    }

    #[test]
    fn update_without_content_length_is_411() {
        let demo = writable_demo();
        let mut conn = TcpStream::connect(demo.addr()).unwrap();
        write!(conn, "POST {ED_UPDATE} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
        let mut buf = String::new();
        conn.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.0 411"), "{buf}");
    }

    #[test]
    fn oversized_update_body_is_413() {
        let demo = writable_demo();
        let mut conn = TcpStream::connect(demo.addr()).unwrap();
        // Declare a body over the cap; the server must refuse without
        // waiting for the bytes.
        write!(
            conn,
            "POST {ED_UPDATE} HTTP/1.0\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
            MAX_UPDATE_BODY + 1
        )
        .unwrap();
        let mut buf = String::new();
        conn.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.0 413"), "{buf}");
    }

    #[test]
    fn update_with_expired_deadline_is_503_and_commits_nothing() {
        let demo = writable_demo();
        let mut conn = TcpStream::connect(demo.addr()).unwrap();
        let body = "settext /d/t\tx\n";
        write!(
            conn,
            "POST {ED_UPDATE} HTTP/1.0\r\nHost: test\r\nX-Request-Deadline: 0\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut buf = String::new();
        conn.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.0 503"), "{buf}");
        assert!(buf.contains("Retry-After: "), "{buf}");
        let (_, view) = get(demo.addr(), "/doc.xml?user=ro&pass=pw&ip=1.2.3.4&host=h.x.org");
        assert!(view.contains("v1"), "the expired batch left the document alone: {view}");
    }

    /// One op and the line that renders it in the batch grammar. Paths
    /// and names hold no tab; free-text fields may.
    fn op_and_line() -> impl Strategy<Value = (UpdateOp, String)> {
        let field = "[a-z/@*=' ]{1,12}";
        let text = "[\t -~]{0,16}";
        (0u8..6, field, field, text).prop_map(|(kind, a, b, t)| match kind {
            0 => (
                UpdateOp::SetText { target: a.clone(), text: t.clone() },
                format!("settext {a}\t{t}"),
            ),
            1 => {
                let value = t.replace('\t', " ");
                let line = format!("setattr {a}\t{b}\t{value}");
                (UpdateOp::SetAttribute { target: a, name: b, value }, line)
            }
            2 => (
                UpdateOp::InsertElement { parent: a.clone(), name: b.clone() },
                format!("insert {a}\t{b}"),
            ),
            3 => (
                UpdateOp::InsertSubtree { parent: a.clone(), xml: t.clone() },
                format!("insertsub {a}\t{t}"),
            ),
            4 => (
                UpdateOp::ReplaceSubtree { target: a.clone(), xml: t.clone() },
                format!("replacesub {a}\t{t}"),
            ),
            _ => (UpdateOp::Delete { target: a.clone() }, format!("delete {a}")),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn hostile_op_batches_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
            let _ = parse_update_ops_with_lines(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn hostile_op_lines_never_panic(parts in prop::collection::vec((0usize..16, any::<u8>()), 0..32)) {
            // Verbs, separators and payload fragments in any order, so
            // every arm's error paths are reached.
            const FRAGMENTS: [&str; 14] = [
                "settext ", "setattr ", "insert ", "insertsub ", "replacesub ", "delete ",
                "frobnicate ", "\t", "\n", "\r\n", "\r", "#", "/d/a", "<x/>",
            ];
            let mut body = String::new();
            for (i, b) in parts {
                match FRAGMENTS.get(i) {
                    Some(f) => body.push_str(f),
                    None => body.push(char::from(b)),
                }
            }
            let _ = parse_update_ops_with_lines(&body);
        }

        #[test]
        fn rendered_batches_parse_back_to_their_ops_and_lines(
            batch in prop::collection::vec((op_and_line(), 0u8..3, 0u8..3), 1..8),
        ) {
            let mut body = String::new();
            let mut line = 0u32;
            let mut expect = Vec::new();
            for ((op, rendered), filler, ending) in batch {
                // Comment and blank lines are skipped but still counted.
                for f in 0..filler {
                    body.push_str(if f % 2 == 0 { "# note\n" } else { "\r\n" });
                    line += 1;
                }
                body.push_str(&rendered);
                body.push_str(if ending == 0 { "\r\n" } else { "\n" });
                line += 1;
                expect.push((line, op));
            }
            prop_assert_eq!(parse_update_ops_with_lines(&body), Ok(expect));
        }
    }
}
