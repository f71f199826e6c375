//! The HTTP front end: a readiness-driven event loop (Linux `epoll`).
//!
//! [`HttpDemo`] is the one driver around the request core
//! (`crate::request`): a single-threaded event loop with nonblocking
//! accept, per-connection read and write buffers, and keep-alive /
//! pipelined requests. Connection count and CPU budget scale
//! independently — the loop holds thousands of idle or dribbling sockets
//! for the cost of a buffer each, while *compute* (cache-miss view
//! assembly, queries, updates) runs on the core's bounded worker pool,
//! whose pipeline stages lease cores from the global `par::lease`
//! budget.
//!
//! The loop owns only readiness, buffers and connection state. After
//! every read it asks the core to route what is buffered; what the core
//! answers without compute (`/metrics`, 400s, 411/413, 431s, and —
//! through the cache-only probe — warm hits, 304 revalidations and the
//! probe's typed errors) is queued on the connection at once. A job that
//! needs compute goes on the worker queue (a full queue sheds 503
//! inline); the worker runs the core's compute and posts the rendered
//! reply back as a `Done` completion, waking the loop through an
//! `eventfd`.
//!
//! The core renders every byte, so the loop writes exactly what the
//! core answers for the bytes it read. Client hangups are detected by
//! *readiness* (`EPOLLRDHUP`/EOF): once the peer has finished sending,
//! the loop answers what it had already buffered, trips the in-flight
//! request's [`CancelToken`](xmlsec_core::CancelToken) with
//! `ClientGone`, and discards the completion.
//!
//! Zero dependencies: the four syscalls used (`epoll_create1`,
//! `epoll_ctl`, `epoll_wait`, `eventfd`) are declared by hand against
//! the libc that std already links. Serving requires Linux: elsewhere
//! the public types build, but [`HttpDemo::start_with`] returns
//! [`std::io::ErrorKind::Unsupported`].

use std::net::SocketAddr;

use crate::http::HttpConfig;
use crate::server::SecureServer;

/// The HTTP front end to run: the event loop is the only one.
///
/// Kept, with [`AnyDemo`], only because the benchmark harness in
/// `perfbench/` names `Transport::Epoll` and `AnyDemo::start_with`; both
/// go with the next benchmark-scoped change (ROADMAP item 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// The readiness-driven event loop ([`HttpDemo`]).
    Epoll,
}

/// A running [`HttpDemo`] started through a [`Transport`]. Kept for the
/// benchmark harness only, like [`Transport`]; new code uses
/// [`HttpDemo`].
pub struct AnyDemo(HttpDemo);

impl AnyDemo {
    /// [`HttpDemo::start_with`].
    pub fn start_with(
        _transport: Transport,
        server: SecureServer,
        addr: &str,
        cfg: HttpConfig,
    ) -> std::io::Result<AnyDemo> {
        HttpDemo::start_with(server, addr, cfg).map(AnyDemo)
    }

    /// [`HttpDemo::addr`].
    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    /// [`HttpDemo::shutdown`].
    pub fn shutdown(&mut self) {
        self.0.shutdown()
    }
}

pub use imp::HttpDemo;

#[cfg(target_os = "linux")]
mod imp {
    use crate::http::{render_timeout, HttpConfig, MAX_UPDATE_BODY};
    use crate::request::{After, Core, Pushed, Queue, Reply, Step, Workers};
    use crate::server::SecureServer;
    use std::collections::HashMap;
    use std::fs::File;
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::os::raw::c_int;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};
    use xmlsec_core::{CancelReason, CancelToken};
    use xmlsec_telemetry as telemetry;

    /// Hand-declared bindings for the four syscalls the loop needs; the
    /// symbols live in the libc std already links, so this adds no
    /// dependency.
    mod sys {
        use std::os::raw::{c_int, c_uint};

        /// Mirrors `struct epoll_event`. The kernel ABI packs it on
        /// x86-64 (12 bytes); other architectures use natural layout.
        #[repr(C)]
        #[cfg_attr(target_arch = "x86_64", repr(packed))]
        #[derive(Clone, Copy)]
        pub(super) struct EpollEvent {
            pub(super) events: u32,
            pub(super) data: u64,
        }

        pub(super) const EPOLLIN: u32 = 0x001;
        pub(super) const EPOLLOUT: u32 = 0x004;
        pub(super) const EPOLLERR: u32 = 0x008;
        pub(super) const EPOLLHUP: u32 = 0x010;
        pub(super) const EPOLLRDHUP: u32 = 0x2000;
        pub(super) const EPOLL_CTL_ADD: c_int = 1;
        pub(super) const EPOLL_CTL_DEL: c_int = 2;
        pub(super) const EPOLL_CTL_MOD: c_int = 3;
        pub(super) const EPOLL_CLOEXEC: c_int = 0x80000;
        pub(super) const EFD_CLOEXEC: c_int = 0x80000;
        pub(super) const EFD_NONBLOCK: c_int = 0x800;

        extern "C" {
            pub(super) fn epoll_create1(flags: c_int) -> c_int;
            pub(super) fn epoll_ctl(
                epfd: c_int,
                op: c_int,
                fd: c_int,
                event: *mut EpollEvent,
            ) -> c_int;
            pub(super) fn epoll_wait(
                epfd: c_int,
                events: *mut EpollEvent,
                maxevents: c_int,
                timeout: c_int,
            ) -> c_int;
            pub(super) fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        }
    }

    /// RAII epoll instance.
    struct Epoll {
        fd: OwnedFd,
    }

    impl Epoll {
        fn new() -> std::io::Result<Epoll> {
            let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Epoll { fd: unsafe { OwnedFd::from_raw_fd(fd) } })
        }

        fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
            let mut ev = sys::EpollEvent { events, data: token };
            let rc = unsafe { sys::epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) };
            if rc < 0 {
                Err(std::io::Error::last_os_error())
            } else {
                Ok(())
            }
        }

        /// Waits up to `timeout_ms`, retrying `EINTR`; returns the number
        /// of ready events (0 on timeout or unrecoverable error — the
        /// caller's tick loop makes progress either way).
        fn wait(&self, events: &mut [sys::EpollEvent], timeout_ms: c_int) -> usize {
            loop {
                let rc = unsafe {
                    sys::epoll_wait(
                        self.fd.as_raw_fd(),
                        events.as_mut_ptr(),
                        events.len() as c_int,
                        timeout_ms,
                    )
                };
                if rc >= 0 {
                    return rc as usize;
                }
                if std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
                    return 0;
                }
            }
        }
    }

    fn eventfd_file() -> std::io::Result<File> {
        let fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(unsafe { File::from_raw_fd(fd) })
    }

    pub(crate) fn open_connections() -> Arc<telemetry::Gauge> {
        telemetry::global().gauge(
            "xmlsec_server_open_connections",
            "Connections currently registered with the event loop.",
            &[],
        )
    }

    /// Loop tick: the longest the loop sleeps between deadline sweeps.
    const TICK_MS: c_int = 25;
    /// How long a connection refused before its request was fully read
    /// (431, 411, 413, framing 400s) lingers discarding the client's
    /// in-flight bytes: closing on unread bytes would answer them with a
    /// reset that can destroy the status line before the client reads
    /// it, so the close is a clean FIN instead.
    const LINGER: Duration = Duration::from_millis(200);
    /// Event-loop tokens 0 and 1 are the listener and the wake eventfd;
    /// connections start at 2.
    const TOK_LISTENER: u64 = 0;
    const TOK_WAKE: u64 = 1;
    const TOK_FIRST_CONN: u64 = 2;

    /// A worker's rendered completion for the connection `conn`.
    struct Done {
        conn: u64,
        reply: Reply,
    }

    /// Per-connection state machine: inbound framing buffer, outbound
    /// response buffer, and the flags that drive it between `Reading`,
    /// `Computing`, `Writing`, and `Lingering`.
    struct Conn {
        sock: TcpStream,
        peer_ip: String,
        /// Unparsed inbound bytes (may already hold pipelined requests).
        buf: Vec<u8>,
        /// Rendered-but-unwritten response bytes.
        out: Vec<u8>,
        out_pos: usize,
        /// A worker is computing this connection's current request.
        computing: bool,
        cancel: Option<CancelToken>,
        /// Post-431 drain window: inbound discarded, close at expiry.
        lingering: Option<Instant>,
        close_after_write: bool,
        /// Peer hung up while a worker was computing; the completion is
        /// discarded when it arrives.
        gone: bool,
        /// fd already removed from the epoll set (stops level-triggered
        /// EOF spin on `gone` connections).
        deregistered: bool,
        read_deadline: Instant,
        write_deadline: Option<Instant>,
        /// `EPOLLOUT` currently armed.
        want_out: bool,
        /// Responses completed on this connection (0 ⇒ a read timeout is
        /// a slow loris worth a 408; >0 ⇒ it is an idle keep-alive).
        served: u64,
    }

    impl Conn {
        fn new(sock: TcpStream, peer_ip: String, read_deadline: Instant) -> Conn {
            Conn {
                sock,
                peer_ip,
                buf: Vec::new(),
                out: Vec::new(),
                out_pos: 0,
                computing: false,
                cancel: None,
                lingering: None,
                close_after_write: false,
                gone: false,
                deregistered: false,
                read_deadline,
                write_deadline: None,
                want_out: false,
                served: 0,
            }
        }

        fn push_out(&mut self, bytes: &[u8]) {
            self.out.extend_from_slice(bytes);
        }

        fn out_drained(&self) -> bool {
            self.out_pos >= self.out.len()
        }
    }

    struct EventLoop {
        ep: Epoll,
        listener: TcpListener,
        core: Arc<Core>,
        open: Arc<telemetry::Gauge>,
        conns: HashMap<u64, Conn>,
        next_token: u64,
        queue: Queue,
        completions: Arc<Mutex<Vec<Done>>>,
        wake: Arc<File>,
        stop: Arc<AtomicBool>,
    }

    impl EventLoop {
        fn run(mut self) {
            let mut events = [sys::EpollEvent { events: 0, data: 0 }; 64];
            let mut draining: Option<Instant> = None;
            loop {
                if draining.is_none() && self.stop.load(Ordering::SeqCst) {
                    // Stop accepting; idle connections close now, busy
                    // ones get the drain window to finish.
                    let _ = self.ep.ctl(sys::EPOLL_CTL_DEL, self.listener.as_raw_fd(), 0, 0);
                    let idle: Vec<u64> = self
                        .conns
                        .iter()
                        .filter(|(_, c)| !c.computing && c.out_drained())
                        .map(|(t, _)| *t)
                        .collect();
                    for tok in idle {
                        if let Some(conn) = self.conns.remove(&tok) {
                            self.drop_conn(conn);
                        }
                    }
                    draining = Some(Instant::now() + self.core.cfg.drain_timeout);
                }
                if let Some(deadline) = draining {
                    let busy = self.conns.values().any(|c| c.computing || !c.out_drained());
                    if !busy || Instant::now() >= deadline {
                        break;
                    }
                }
                let n = self.ep.wait(&mut events, TICK_MS);
                for ev in events.iter().take(n) {
                    // Copy out of the (packed) event before use.
                    let mask = ev.events;
                    let tok = ev.data;
                    match tok {
                        TOK_LISTENER => self.on_accept(),
                        TOK_WAKE => {
                            let mut b = [0u8; 8];
                            let _ = (&*self.wake).read(&mut b);
                        }
                        _ => self.on_conn_event(tok, mask),
                    }
                }
                self.apply_completions();
                self.sweep();
            }
            // Whatever remains after the drain window closes abruptly.
            for (_, conn) in std::mem::take(&mut self.conns) {
                self.drop_conn(conn);
            }
        }

        fn on_accept(&mut self) {
            loop {
                match self.listener.accept() {
                    Ok((sock, peer)) => {
                        if sock.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let tok = self.next_token;
                        self.next_token += 1;
                        if self
                            .ep
                            .ctl(
                                sys::EPOLL_CTL_ADD,
                                sock.as_raw_fd(),
                                sys::EPOLLIN | sys::EPOLLRDHUP,
                                tok,
                            )
                            .is_err()
                        {
                            continue;
                        }
                        self.open.add(1);
                        let deadline = Instant::now() + self.core.cfg.read_timeout;
                        self.conns.insert(tok, Conn::new(sock, peer.ip().to_string(), deadline));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }

        fn on_conn_event(&mut self, tok: u64, mask: u32) {
            let Some(mut conn) = self.conns.remove(&tok) else { return };
            let mut close = false;
            if mask & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR) != 0 {
                close = self.readable(tok, &mut conn);
            }
            if !close && mask & sys::EPOLLOUT != 0 {
                close = self.flush(tok, &mut conn);
            }
            if close {
                self.drop_conn(conn);
            } else {
                self.conns.insert(tok, conn);
            }
        }

        /// Drains the socket into the framing buffer, routes every
        /// complete request it holds, and only then applies the hangup
        /// rule if the peer has finished sending: requests that arrive
        /// together with the client's half-close are answered like any
        /// other. Returns true when the connection should close.
        fn readable(&mut self, tok: u64, conn: &mut Conn) -> bool {
            // Room for one request of every framing budget; a pipelined
            // backlog beyond that drops the connection outright.
            let cfg = &self.core.cfg;
            let cap = cfg.max_request_line + cfg.max_header_bytes + MAX_UPDATE_BODY;
            let mut scratch = [0u8; 16 * 1024];
            let mut eof = false;
            loop {
                match conn.sock.read(&mut scratch) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        if conn.lingering.is_some() || conn.gone {
                            continue; // discard: rejected or abandoned
                        }
                        if conn.buf.len() + n > cap {
                            return true;
                        }
                        conn.buf.extend_from_slice(&scratch[..n]);
                        conn.read_deadline = Instant::now() + self.core.cfg.read_timeout;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        eof = true;
                        break;
                    }
                }
            }
            if self.advance(tok, conn) || self.flush(tok, conn) {
                return true;
            }
            eof && self.peer_closed(tok, conn)
        }

        /// The peer has finished sending (EOF or reset). Compute in
        /// flight is cancelled `ClientGone`, and the connection is kept
        /// (marked `gone`) only until the completion arrives to be
        /// discarded. Unflushed answers are
        /// still written before the close. Returns true to close now.
        fn peer_closed(&mut self, tok: u64, conn: &mut Conn) -> bool {
            if conn.computing {
                conn.gone = true;
                if let Some(cancel) = &conn.cancel {
                    cancel.cancel_with(CancelReason::ClientGone);
                }
                // Level-triggered EOF would re-fire every tick; drop the
                // fd from the interest set until the completion arrives.
                if !conn.deregistered
                    && self.ep.ctl(sys::EPOLL_CTL_DEL, conn.sock.as_raw_fd(), 0, 0).is_ok()
                {
                    conn.deregistered = true;
                }
                return false;
            }
            if conn.out_drained() {
                return true;
            }
            // Wait for writability only: EOF stays readable forever.
            conn.close_after_write = true;
            conn.lingering = None;
            conn.want_out = self
                .ep
                .ctl(sys::EPOLL_CTL_MOD, conn.sock.as_raw_fd(), sys::EPOLLOUT, tok)
                .is_ok();
            false
        }

        /// Routes as many complete requests out of the buffer as the
        /// serial-per-connection discipline allows: answers from the
        /// core and from the cache-only probe are queued inline, compute
        /// goes to the workers. Returns true when the connection should
        /// close.
        fn advance(&mut self, tok: u64, conn: &mut Conn) -> bool {
            while !conn.computing && !conn.close_after_write && conn.lingering.is_none() {
                let mut job = match self.core.route(&conn.buf, &conn.peer_ip) {
                    Step::Incomplete => return false,
                    Step::Reply { consumed, reply } => {
                        conn.buf.drain(..consumed);
                        answer(conn, reply);
                        continue;
                    }
                    Step::Job { consumed, job } => {
                        conn.buf.drain(..consumed);
                        job
                    }
                };
                // Warm hits, 304s and the probe's errors never leave the
                // loop thread.
                match self.core.cached(&mut job) {
                    Ok(Some(reply)) | Err(reply) => answer(conn, reply),
                    Ok(None) => {
                        let cancel = job.cancel.clone();
                        match self.queue.push(tok, job) {
                            Pushed::Queued => {
                                conn.computing = true;
                                conn.cancel = Some(cancel);
                            }
                            Pushed::Shed(busy) => {
                                answer(conn, Reply { bytes: busy, after: After::Close })
                            }
                            Pushed::Closed => return true,
                        }
                    }
                }
            }
            if conn.close_after_write {
                conn.buf.clear(); // pipelined leftovers are never answered
            }
            false
        }

        /// Writes as much buffered response as the socket accepts.
        /// Returns true when the connection should close.
        fn flush(&mut self, tok: u64, conn: &mut Conn) -> bool {
            while !conn.out_drained() {
                match conn.sock.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => return true,
                    Ok(n) => {
                        conn.out_pos += n;
                        conn.write_deadline = Some(Instant::now() + self.core.cfg.write_timeout);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if !conn.want_out
                            && !conn.deregistered
                            && self
                                .ep
                                .ctl(
                                    sys::EPOLL_CTL_MOD,
                                    conn.sock.as_raw_fd(),
                                    sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLOUT,
                                    tok,
                                )
                                .is_ok()
                        {
                            conn.want_out = true;
                        }
                        if conn.write_deadline.is_none() {
                            conn.write_deadline =
                                Some(Instant::now() + self.core.cfg.write_timeout);
                        }
                        return false;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return true,
                }
            }
            conn.out.clear();
            conn.out_pos = 0;
            conn.write_deadline = None;
            if conn.want_out
                && !conn.deregistered
                && self
                    .ep
                    .ctl(
                        sys::EPOLL_CTL_MOD,
                        conn.sock.as_raw_fd(),
                        sys::EPOLLIN | sys::EPOLLRDHUP,
                        tok,
                    )
                    .is_ok()
            {
                conn.want_out = false;
            }
            if conn.close_after_write {
                // A lingering (431) connection drains the peer's bytes
                // first; the sweep closes it at expiry.
                return conn.lingering.is_none();
            }
            // Keep-alive: rearm the idle clock for the next request.
            conn.read_deadline = Instant::now() + self.core.cfg.read_timeout;
            false
        }

        /// Applies worker completions: rendered bytes are queued on the
        /// owning connection (or discarded if the client vanished), then
        /// the connection advances to any pipelined follow-up.
        fn apply_completions(&mut self) {
            let done: Vec<Done> = match self.completions.lock() {
                Ok(mut guard) => std::mem::take(&mut *guard),
                Err(_) => return,
            };
            for d in done {
                let Some(mut conn) = self.conns.remove(&d.conn) else { continue };
                conn.computing = false;
                conn.cancel = None;
                if conn.gone || d.reply.bytes.is_empty() {
                    self.drop_conn(conn);
                    continue;
                }
                answer(&mut conn, d.reply);
                if self.advance(d.conn, &mut conn) || self.flush(d.conn, &mut conn) {
                    self.drop_conn(conn);
                } else {
                    self.conns.insert(d.conn, conn);
                }
            }
        }

        /// Enforces the per-connection clocks: linger expiry, write
        /// stalls, and read deadlines (slow lorises get a best-effort
        /// 408; idle keep-alive connections close silently).
        fn sweep(&mut self) {
            let now = Instant::now();
            let toks: Vec<u64> = self.conns.keys().copied().collect();
            for tok in toks {
                let Some(mut conn) = self.conns.remove(&tok) else { continue };
                let mut close = false;
                if let Some(expiry) = conn.lingering {
                    close = now >= expiry;
                } else if conn.write_deadline.is_some_and(|d| now >= d) {
                    close = true; // client stopped draining its response
                } else if !conn.computing && conn.out_drained() && now >= conn.read_deadline {
                    if !conn.buf.is_empty() || conn.served == 0 {
                        // Slow loris: a request was started but never
                        // completed. Best-effort 408, then close.
                        conn.push_out(&render_timeout());
                        conn.close_after_write = true;
                        close = self.flush(tok, &mut conn);
                    } else {
                        close = true; // idle keep-alive: silent close
                    }
                }
                if close {
                    self.drop_conn(conn);
                } else {
                    self.conns.insert(tok, conn);
                }
            }
        }

        fn drop_conn(&mut self, conn: Conn) {
            // Dropping the socket closes the fd, which also removes it
            // from the epoll interest set.
            self.open.add(-1);
            drop(conn);
        }
    }

    /// Queues a reply on the connection and sets what follows it.
    fn answer(conn: &mut Conn, reply: Reply) {
        conn.push_out(&reply.bytes);
        conn.served += 1;
        match reply.after {
            After::KeepAlive => {}
            After::Close => conn.close_after_write = true,
            After::Linger => {
                conn.close_after_write = true;
                conn.lingering = Some(Instant::now() + LINGER);
                conn.buf.clear();
            }
        }
    }

    /// Handle to a running demo server.
    pub struct HttpDemo {
        addr: SocketAddr,
        stop: Arc<AtomicBool>,
        wake: Arc<File>,
        handle: Option<JoinHandle<()>>,
        workers: Workers,
    }

    impl HttpDemo {
        /// Starts serving `server` on `addr` with default limits (use
        /// port 0 for an ephemeral port). Runs until
        /// [`HttpDemo::shutdown`] or drop.
        pub fn start(server: SecureServer, addr: &str) -> std::io::Result<HttpDemo> {
            HttpDemo::start_with(server, addr, HttpConfig::default())
        }

        /// Starts serving with explicit resource bounds: `workers`
        /// bounds compute concurrency, `backlog` bounds queued compute,
        /// and the timeouts are per-connection deadlines enforced by the
        /// loop's sweep.
        pub fn start_with(
            server: SecureServer,
            addr: &str,
            cfg: HttpConfig,
        ) -> std::io::Result<HttpDemo> {
            let listener = TcpListener::bind(addr)?;
            let local = listener.local_addr()?;
            listener.set_nonblocking(true)?;
            let ep = Epoll::new()?;
            let wake = Arc::new(eventfd_file()?);
            ep.ctl(sys::EPOLL_CTL_ADD, listener.as_raw_fd(), sys::EPOLLIN, TOK_LISTENER)?;
            ep.ctl(sys::EPOLL_CTL_ADD, wake.as_raw_fd(), sys::EPOLLIN, TOK_WAKE)?;

            let stop = Arc::new(AtomicBool::new(false));
            let completions = Arc::new(Mutex::new(Vec::new()));
            let core = Arc::new(Core::new(server, cfg));
            // Workers post the rendered completion and wake the loop
            // through the eventfd.
            let (queue, workers) = {
                let (completions, wake) = (Arc::clone(&completions), Arc::clone(&wake));
                Workers::start(
                    &core,
                    Arc::new(move |conn, reply| {
                        if let Ok(mut guard) = completions.lock() {
                            guard.push(Done { conn, reply });
                        }
                        let _ = (&*wake).write_all(&1u64.to_ne_bytes());
                    }),
                )
            };

            let el = EventLoop {
                ep,
                listener,
                core,
                open: open_connections(),
                conns: HashMap::new(),
                next_token: TOK_FIRST_CONN,
                queue,
                completions,
                wake: Arc::clone(&wake),
                stop: Arc::clone(&stop),
            };
            let handle = std::thread::spawn(move || el.run());
            Ok(HttpDemo { addr: local, stop, wake, handle: Some(handle), workers })
        }

        /// Where the demo is listening.
        pub fn addr(&self) -> SocketAddr {
            self.addr
        }

        /// Stops accepting, then drains: in-flight compute gets up to
        /// the configured drain deadline; workers still busy after that
        /// are detached so shutdown always returns.
        pub fn shutdown(&mut self) {
            self.stop.store(true, Ordering::SeqCst);
            // Kick the loop out of epoll_wait so it sees the flag now.
            let _ = (&*self.wake).write_all(&1u64.to_ne_bytes());
            if let Some(h) = self.handle.take() {
                let _ = h.join();
            }
            // The loop thread has exited and dropped the queue, so each
            // worker finishes its backlog and returns.
            self.workers.join();
        }
    }

    impl Drop for HttpDemo {
        fn drop(&mut self) {
            self.shutdown();
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use crate::http::HttpConfig;
    use crate::server::SecureServer;
    use std::net::SocketAddr;

    /// Stub on non-Linux targets: the event loop needs `epoll`, so
    /// construction always fails with [`std::io::ErrorKind::Unsupported`].
    pub struct HttpDemo {
        addr: SocketAddr,
    }

    impl HttpDemo {
        /// Always fails on this platform.
        pub fn start(server: SecureServer, addr: &str) -> std::io::Result<HttpDemo> {
            HttpDemo::start_with(server, addr, HttpConfig::default())
        }

        /// Always fails on this platform.
        pub fn start_with(
            _server: SecureServer,
            _addr: &str,
            _cfg: HttpConfig,
        ) -> std::io::Result<HttpDemo> {
            Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "serving requires Linux (epoll)",
            ))
        }

        /// Where the demo is listening (unreachable: construction fails).
        pub fn addr(&self) -> SocketAddr {
            self.addr
        }

        /// No-op (construction fails, so there is nothing to stop).
        pub fn shutdown(&mut self) {}
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::request::{After, Core, Step};
    use crate::server::SecureServer;
    use std::io::{Read, Write};
    use std::net::{Shutdown, TcpStream};
    use std::time::Duration;
    use xmlsec_authz::{Action, AuthType, Authorization, AuthorizationBase, ObjectSpec, Sign};
    use xmlsec_subjects::{Directory, Subject};

    const OK_TARGET: &str = "/doc.xml?user=tom&pass=pw&ip=1.2.3.4&host=h.x.org";

    fn test_server() -> SecureServer {
        let mut dir = Directory::new();
        dir.add_user("tom").unwrap();
        let mut base = AuthorizationBase::new();
        base.add(Authorization::new(
            Subject::new("tom", "*", "*").unwrap(),
            ObjectSpec::with_path("doc.xml", "/d").unwrap(),
            Sign::Plus,
            AuthType::Recursive,
        ));
        let mut s = SecureServer::new(dir, base);
        s.register_credentials("tom", "pw");
        s.repository_mut().put_document("doc.xml", "<d><pub>hello</pub></d>", None);
        s
    }

    fn demo() -> HttpDemo {
        HttpDemo::start(test_server(), "127.0.0.1:0").unwrap()
    }

    /// Reads exactly one HTTP response off a (possibly keep-alive)
    /// connection, using Content-Length to find the body's end.
    fn read_one_response(conn: &mut TcpStream) -> String {
        let mut buf = Vec::new();
        let mut one = [0u8; 1];
        // Headers.
        while !buf.ends_with(b"\r\n\r\n") {
            assert_eq!(conn.read(&mut one).unwrap(), 1, "eof inside headers");
            buf.push(one[0]);
        }
        let head = String::from_utf8_lossy(&buf).into_owned();
        let clen: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .map_or(0, |v| v.trim().parse().unwrap());
        let mut body = vec![0u8; clen];
        conn.read_exact(&mut body).unwrap();
        head + &String::from_utf8_lossy(&body)
    }

    fn get(demo: &HttpDemo, target: &str) -> String {
        let mut conn = TcpStream::connect(demo.addr()).unwrap();
        write!(conn, "GET {target} HTTP/1.0\r\nHost: t\r\n\r\n").unwrap();
        let mut buf = String::new();
        conn.read_to_string(&mut buf).unwrap();
        buf
    }

    #[test]
    fn serves_view_and_revalidates_304() {
        let demo = demo();
        let full = get(&demo, OK_TARGET);
        assert!(full.starts_with("HTTP/1.0 200"), "{full}");
        assert!(full.contains("hello"), "{full}");
        assert!(full.contains("Connection: close"), "{full}");
        let etag = full
            .lines()
            .find_map(|l| l.strip_prefix("ETag: "))
            .expect("200 carries an entity tag")
            .trim()
            .to_string();
        let mut conn = TcpStream::connect(demo.addr()).unwrap();
        write!(conn, "GET {OK_TARGET} HTTP/1.0\r\nIf-None-Match: {etag}\r\n\r\n").unwrap();
        let mut buf = String::new();
        conn.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.0 304"), "{buf}");
    }

    #[test]
    fn keep_alive_serves_sequential_requests_on_one_connection() {
        let demo = demo();
        let mut conn = TcpStream::connect(demo.addr()).unwrap();
        write!(conn, "GET {OK_TARGET} HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        let first = read_one_response(&mut conn);
        assert!(first.starts_with("HTTP/1.0 200"), "{first}");
        assert!(first.contains("Connection: keep-alive"), "{first}");
        write!(conn, "GET {OK_TARGET} HTTP/1.0\r\nConnection: close\r\n\r\n").unwrap();
        let second = read_one_response(&mut conn);
        assert!(second.starts_with("HTTP/1.0 200"), "{second}");
        assert!(second.contains("Connection: close"), "{second}");
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let demo = demo();
        let mut conn = TcpStream::connect(demo.addr()).unwrap();
        // Both requests up front; the loop answers serially, in order.
        write!(
            conn,
            "GET {OK_TARGET} HTTP/1.0\r\nConnection: keep-alive\r\n\r\n\
             GET /metrics HTTP/1.0\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let first = read_one_response(&mut conn);
        assert!(first.starts_with("HTTP/1.0 200"), "{first}");
        assert!(first.contains("hello"), "{first}");
        let second = read_one_response(&mut conn);
        assert!(second.starts_with("HTTP/1.0 200"), "{second}");
        assert!(second.contains("xmlsec_server_open_connections"), "{second}");
    }

    #[test]
    fn slow_loris_gets_408() {
        let cfg = HttpConfig { read_timeout: Duration::from_millis(150), ..Default::default() };
        let demo = HttpDemo::start_with(test_server(), "127.0.0.1:0", cfg).unwrap();
        let mut conn = TcpStream::connect(demo.addr()).unwrap();
        write!(conn, "GET /doc.xml").unwrap(); // never completes the head
        let mut buf = String::new();
        conn.read_to_string(&mut buf).unwrap();
        assert!(buf.is_empty() || buf.starts_with("HTTP/1.0 408"), "{buf}");
    }

    // --- POST /update ---------------------------------------------------

    fn writable_server() -> SecureServer {
        let mut dir = Directory::new();
        dir.add_user("tom").unwrap();
        let mut base = AuthorizationBase::new();
        base.add(Authorization::new(
            Subject::new("tom", "*", "*").unwrap(),
            ObjectSpec::with_path("doc.xml", "/d").unwrap(),
            Sign::Plus,
            AuthType::Recursive,
        ));
        base.add(
            Authorization::new(
                Subject::new("tom", "*", "*").unwrap(),
                ObjectSpec::with_path("doc.xml", "/d").unwrap(),
                Sign::Plus,
                AuthType::Recursive,
            )
            .with_action(xmlsec_authz::Action::Write),
        );
        let mut s = SecureServer::new(dir, base);
        s.register_credentials("tom", "pw");
        s.repository_mut().put_document("doc.xml", "<d><pub>hello</pub></d>", None);
        s
    }

    const UPDATE_TARGET: &str = "/update?doc=doc.xml&user=tom&pass=pw&ip=1.2.3.4&host=h.x.org";

    fn post(demo: &HttpDemo, target: &str, body: &str) -> String {
        let mut conn = TcpStream::connect(demo.addr()).unwrap();
        write!(
            conn,
            "POST {target} HTTP/1.0\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut buf = String::new();
        conn.read_to_string(&mut buf).unwrap();
        buf
    }

    #[test]
    fn updates_over_the_event_loop() {
        let demo = HttpDemo::start(writable_server(), "127.0.0.1:0").unwrap();
        let resp = post(&demo, UPDATE_TARGET, "settext /d/pub\tpatched\n");
        assert!(resp.starts_with("HTTP/1.0 200"), "{resp}");
        assert!(resp.contains("updated 1"), "{resp}");
        // The committed batch is visible through the same event loop.
        let view = get(&demo, OK_TARGET);
        assert!(view.contains("patched"), "{view}");
        assert!(!view.contains("hello"), "{view}");
    }

    #[test]
    fn update_body_split_across_packets_is_reassembled() {
        let demo = HttpDemo::start(writable_server(), "127.0.0.1:0").unwrap();
        let body = "settext /d/pub\tlate\n";
        let mut conn = TcpStream::connect(demo.addr()).unwrap();
        write!(
            conn,
            "POST {UPDATE_TARGET} HTTP/1.0\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .unwrap();
        conn.flush().unwrap();
        // The head is complete but the body is not: the loop must keep
        // the connection in read state rather than answering early.
        std::thread::sleep(Duration::from_millis(50));
        let (a, b) = body.split_at(7);
        conn.write_all(a.as_bytes()).unwrap();
        conn.flush().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        conn.write_all(b.as_bytes()).unwrap();
        let mut buf = String::new();
        conn.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.0 200"), "{buf}");
        assert!(buf.contains("updated 1"), "{buf}");
    }

    #[test]
    fn refused_updates_commit_nothing() {
        let demo = HttpDemo::start(writable_server(), "127.0.0.1:0").unwrap();
        // Malformed op line.
        let bad = post(&demo, UPDATE_TARGET, "frobnicate /d\n");
        assert!(bad.starts_with("HTTP/1.0 400"), "{bad}");
        // Missing doc parameter.
        let nodoc =
            post(&demo, "/update?user=tom&pass=pw&ip=1.2.3.4&host=h.x.org", "delete /d/pub\n");
        assert!(nodoc.starts_with("HTTP/1.0 400"), "{nodoc}");
        // Wrong password.
        let unauth = post(
            &demo,
            "/update?doc=doc.xml&user=tom&pass=oops&ip=1.2.3.4&host=h.x.org",
            "settext /d/pub\tx\n",
        );
        assert!(unauth.starts_with("HTTP/1.0 401"), "{unauth}");
        // No Content-Length.
        let mut conn = TcpStream::connect(demo.addr()).unwrap();
        write!(conn, "POST {UPDATE_TARGET} HTTP/1.0\r\nHost: t\r\n\r\n").unwrap();
        let mut buf = String::new();
        conn.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.0 411"), "{buf}");
        // Oversized declared body is refused before it is read.
        let mut conn2 = TcpStream::connect(demo.addr()).unwrap();
        write!(
            conn2,
            "POST {UPDATE_TARGET} HTTP/1.0\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            crate::http::MAX_UPDATE_BODY + 1
        )
        .unwrap();
        let mut buf2 = String::new();
        conn2.read_to_string(&mut buf2).unwrap();
        assert!(buf2.starts_with("HTTP/1.0 413"), "{buf2}");
        // Nothing committed by any of the failures.
        let view = get(&demo, OK_TARGET);
        assert!(view.contains("hello"), "{view}");
    }

    // --- The loop against the core ---------------------------------------

    /// [`test_server`]'s document plus a DTD-backed `w.xml` that `ed`
    /// may write.
    /// `tom` holds no write authorization at all, so the static
    /// pre-flight refuses his batches before touching the document.
    fn script_server() -> SecureServer {
        let mut dir = Directory::new();
        dir.add_user("tom").unwrap();
        dir.add_user("ed").unwrap();
        let mut base = AuthorizationBase::new();
        base.add(Authorization::new(
            Subject::new("tom", "*", "*").unwrap(),
            ObjectSpec::with_path("doc.xml", "/d").unwrap(),
            Sign::Plus,
            AuthType::Recursive,
        ));
        for action in [Action::Read, Action::Write] {
            base.add(
                Authorization::new(
                    Subject::new("ed", "*", "*").unwrap(),
                    ObjectSpec::whole("w.dtd"),
                    Sign::Plus,
                    AuthType::Recursive,
                )
                .with_action(action),
            );
        }
        let mut s = SecureServer::new(dir, base);
        s.register_credentials("tom", "pw");
        s.register_credentials("ed", "pw");
        s.repository_mut().put_document("doc.xml", "<d><pub>hello</pub></d>", None);
        s.repository_mut()
            .put_dtd("w.dtd", "<!ELEMENT w (pub)>\n<!ELEMENT pub (#PCDATA)>");
        s.repository_mut().put_document("w.xml", "<w><pub>v1</pub></w>", Some("w.dtd"));
        s
    }

    /// What the request core renders in process for `bytes` sent on one
    /// connection that then finishes sending: each request routed in
    /// turn, a job answered by the cache-only probe or else computed,
    /// until a reply closes the connection or the rest is incomplete.
    fn rendered(core: &Core, mut bytes: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        loop {
            let (consumed, reply) = match core.route(bytes, "127.0.0.1") {
                Step::Incomplete => return out,
                Step::Reply { consumed, reply } => (consumed, reply),
                Step::Job { consumed, mut job } => match core.cached(&mut job) {
                    Ok(Some(reply)) | Err(reply) => (consumed, reply),
                    Ok(None) => (consumed, core.compute(&mut job, true)),
                },
            };
            out.extend_from_slice(&reply.bytes);
            if reply.after != After::KeepAlive {
                return out;
            }
            bytes = &bytes[consumed..];
        }
    }

    /// The loop writes exactly what the core renders for the bytes it
    /// read: on a fixed script of reads, writes and refusals, pipelined
    /// requests (after a view and after a length-framed body), and
    /// requests that arrive with the client's half-close, the bytes on
    /// the socket equal the in-process rendering of the same bytes by a
    /// second core over an identical server, request for request. Every
    /// response is deterministic (no Date header; the ETag is a content
    /// hash), so nothing but a driver fault can tell them apart.
    #[test]
    fn the_loop_writes_what_the_core_renders_on_a_fixed_script() {
        let demo = HttpDemo::start(script_server(), "127.0.0.1:0").unwrap();
        let core = Core::new(script_server(), HttpConfig::default());
        let exchange = |step: &str, request: &str, half_close: bool| -> String {
            let mut conn = TcpStream::connect(demo.addr()).unwrap();
            conn.write_all(request.as_bytes()).unwrap();
            if half_close {
                conn.shutdown(Shutdown::Write).unwrap();
            }
            let mut wire = Vec::new();
            conn.read_to_end(&mut wire).unwrap();
            let expected = rendered(&core, request.as_bytes());
            assert!(
                wire == expected,
                "script step {step} diverged:\n--- loop ---\n{}\n--- core ---\n{}",
                String::from_utf8_lossy(&wire),
                String::from_utf8_lossy(&expected)
            );
            String::from_utf8(wire).unwrap()
        };
        let status = |text: &str| text.split_whitespace().nth(1).unwrap_or("").to_string();

        let reads: Vec<(&str, String, &str)> = vec![
            ("cold view", format!("GET {OK_TARGET} HTTP/1.0\r\nHost: t\r\n\r\n"), "200"),
            ("warm hit", format!("GET {OK_TARGET} HTTP/1.0\r\nHost: t\r\n\r\n"), "200"),
            (
                "wrong password",
                "GET /doc.xml?user=tom&pass=nope&ip=1.2.3.4&host=h.x.org HTTP/1.0\r\n\r\n".into(),
                "401",
            ),
            (
                "missing document",
                "GET /missing.xml?user=tom&pass=pw&ip=1.2.3.4&host=h.x.org HTTP/1.0\r\n\r\n".into(),
                "404",
            ),
            ("malformed request line", "NONSENSE\r\n\r\n".into(), "400"),
            ("secure query", format!("GET {OK_TARGET}&q=%2Fd%2Fpub HTTP/1.0\r\n\r\n"), "200"),
        ];
        let mut etag = None;
        for (step, req, code) in &reads {
            let text = exchange(step, req, false);
            assert_eq!(status(&text), *code, "{step}: {text}");
            if etag.is_none() {
                etag = text.lines().find_map(|l| l.strip_prefix("ETag: ").map(str::to_string));
            }
        }
        let tag = etag.expect("a view response carries an ETag");
        let cond = format!("GET {OK_TARGET} HTTP/1.0\r\nIf-None-Match: {tag}\r\n\r\n");
        assert_eq!(status(&exchange("revalidation", &cond, false)), "304");

        // Writes: the request line, then the declared length, then the
        // body, then the ops.
        const ED: &str = "/update?doc=w.xml&user=ed&pass=pw&ip=1.2.3.4&host=h.x.org";
        const TOM: &str = "/update?doc=w.xml&user=tom&pass=pw&ip=1.2.3.4&host=h.x.org";
        let over_cap = crate::http::MAX_UPDATE_BODY + 1;
        let post = |target: &str, body: &str| {
            format!("POST {target} HTTP/1.0\r\nContent-Length: {}\r\n\r\n{body}", body.len())
        };
        let writes: Vec<(&str, String, &str)> = vec![
            ("successful batch", post(ED, "settext /w/pub\tv2\n"), "200"),
            (
                "batch larger than the head caps",
                post(ED, &format!("#{}\nsettext /w/pub\tv3\n", "x".repeat(48 * 1024))),
                "200",
            ),
            (
                "malformed /update line",
                post("/update?user=ed&pass=pw", "settext /w/pub\tx\n"),
                "400",
            ),
            ("bad op", post(ED, "# first\nfrobnicate /w\n"), "400"),
            ("static denial", post(TOM, "# first\nsettext /w/pub\tstolen\n"), "403"),
            ("no length", format!("POST {ED} HTTP/1.0\r\n\r\n"), "411"),
            (
                "declared length over the cap",
                format!("POST {ED} HTTP/1.0\r\nContent-Length: {over_cap}\r\n\r\n"),
                "413",
            ),
            (
                "oversized body on another path",
                "POST /nope HTTP/1.0\r\nContent-Length: 999999999\r\n\r\n".into(),
                "400",
            ),
        ];
        for (step, req, code) in &writes {
            let text = exchange(step, req, false);
            assert_eq!(status(&text), *code, "{step}: {text}");
            match *step {
                "bad op" => assert!(text.contains("line 2"), "the 400 names its line: {text}"),
                "static denial" => assert!(text.contains("update denied: line 2:"), "{text}"),
                _ => {}
            }
        }

        // Pipelined requests: each is answered, in order, and a body's
        // bytes are never read as the next request.
        let ops = "settext /w/pub\tv4\n";
        let pipelined: Vec<(&str, String, &[&str])> = vec![
            (
                "pipelined after a view",
                format!(
                    "GET {OK_TARGET} HTTP/1.0\r\nConnection: keep-alive\r\n\r\n\
                     GET /missing.xml?user=tom&pass=pw HTTP/1.0\r\n\r\n"
                ),
                &["200", "404"],
            ),
            (
                "pipelined after a body",
                format!(
                    "POST {ED} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{ops}\
                     GET {OK_TARGET}&q=%2Fd%2Fpub HTTP/1.1\r\nConnection: close\r\n\r\n",
                    ops.len()
                ),
                &["200", "200"],
            ),
        ];
        for (step, req, codes) in &pipelined {
            let text = exchange(step, req, false);
            let got: Vec<&str> =
                text.match_indices("HTTP/1.0 ").map(|(i, _)| &text[i + 9..i + 12]).collect();
            assert_eq!(got, *codes, "{step}: {text}");
            assert!(text.contains("Connection: keep-alive"), "{step}: {text}");
        }

        // Requests that arrive together with the client's half-close are
        // answered like any other, pipelined ones too; a head the
        // half-close cuts off before its blank line is closed without an
        // answer.
        let half: Vec<(&str, String, Option<&str>)> = vec![
            (
                "half-closed 404",
                "GET /missing.xml?user=tom&pass=pw&ip=1.2.3.4&host=h.x.org HTTP/1.0\r\n\r\n".into(),
                Some("404"),
            ),
            (
                "half-closed 401",
                "GET /doc.xml?user=tom&pass=nope&ip=1.2.3.4&host=h.x.org HTTP/1.0\r\n\r\n".into(),
                Some("401"),
            ),
            (
                "half-closed 413",
                format!("POST {ED} HTTP/1.0\r\nContent-Length: {over_cap}\r\n\r\n"),
                Some("413"),
            ),
            ("half-closed warm hit", format!("GET {OK_TARGET} HTTP/1.0\r\n\r\n"), Some("200")),
            (
                "half-closed pipeline",
                format!("GET {OK_TARGET} HTTP/1.1\r\n\r\nGET {OK_TARGET} HTTP/1.1\r\n\r\n"),
                Some("200"),
            ),
            ("truncated head", "GET /missing.xml HTTP/1.0\r\n".into(), None),
        ];
        for (step, req, code) in &half {
            let text = exchange(step, req, true);
            match code {
                Some(code) => assert_eq!(status(&text), *code, "{step}: {text}"),
                None => assert!(text.is_empty(), "{step}: {text}"),
            }
        }
    }
}
