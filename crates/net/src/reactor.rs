//! The epoll reactor engine: readiness-driven connection handling.
//!
//! The reactor multiplexes every connection on a single event-loop
//! thread and hands workers nothing but complete, already-parsed
//! requests, so no thread is ever pinned to an idle or slow peer. The
//! pieces:
//!
//! * **Slab of connection state machines.** Each connection lives in a
//!   slot of a pre-indexed slab and walks `ReadHead → ReadBody →
//!   Dispatched → WriteResponse → KeepAlive`. Tokens carry a
//!   generation stamp so a completion for a closed (and possibly
//!   reused) slot is discarded instead of corrupting a new connection.
//! * **Incremental parsing.** Non-blocking reads feed a
//!   [`RequestAssembler`], which enforces the same `Limits` as the
//!   blocking reader and pops pipelined requests one at a time.
//! * **Backpressure by deregistration, not threads.** While a request
//!   is dispatched the connection's read interest is dropped — the
//!   kernel's receive buffer, not a queue of ours, absorbs a pushy
//!   client. When the slab is full the *listener's* read interest is
//!   dropped, so accept pressure waits in the TCP backlog.
//! * **Asynchronous completion.** Workers receive `(token, request)`
//!   jobs off a bounded channel and answer through
//!   [`HttpHandler::handle_async`]; the serialized response comes back
//!   on a completion list and a wake byte. Response bytes come from
//!   the same encoder as `write_response_with`'s, so a reply reads the
//!   same on the wire as in process.
//!
//! The event loop doubles as the idle heartbeat: `on_idle` ticks on a
//! ~2ms cadence, which is what advances the SLO sentinel and the
//! control loops.

use crate::http::{HttpError, Request, RequestAssembler};
use crate::server::{
    error_body, record_socket_config_failure, HttpHandler, Reply, ReplySink, ServerConfig,
};
use parking_lot::Mutex;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tt_epoll::Poller;

/// Token for the listening socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Token for the wake pipe's read end.
const TOKEN_WAKE: u64 = u64::MAX - 1;

/// Where a connection is in its request/response cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Reading (or waiting for) the request head.
    ReadHead,
    /// Head parsed; body bytes still outstanding.
    ReadBody,
    /// A request is with a worker; further reads are suppressed (and
    /// read interest deregistered lazily if the peer pipelines).
    Dispatched,
    /// A serialized response is draining to the socket.
    WriteResponse,
    /// Between requests on a persistent connection.
    KeepAlive,
}

/// One slab-resident connection.
struct Conn {
    stream: TcpStream,
    generation: u32,
    assembler: RequestAssembler,
    state: ConnState,
    /// Serialized response bytes being written, and the write cursor.
    out: Vec<u8>,
    out_pos: usize,
    /// Wall-clock of the last observed progress (bytes read or
    /// written), for the keep-alive / stalled-writer sweeps.
    last_activity: Instant,
    /// When the current request's first byte arrived; the slow-loris
    /// deadline measures from here and re-arms per request.
    request_started: Option<Instant>,
    close_after_write: bool,
    /// The peer hung up while a request was in flight; deliver (or
    /// attempt) the pending response, then close.
    peer_gone: bool,
    /// The (read, write) interest currently registered with the
    /// poller. Tracking it makes interest changes idempotent: in the
    /// request-per-round-trip common case the registration never moves
    /// off (read, no-write) and no `epoll_ctl` is issued at all. Read
    /// interest is dropped lazily — only when bytes actually arrive
    /// while a request is in flight (see [`Reactor::conn_event`]) —
    /// which is the per-connection backpressure for pipelining peers.
    interest: (bool, bool),
}

/// A finished response travelling from a worker back to the loop.
struct Completion {
    token: u64,
    bytes: Vec<u8>,
    close: bool,
}

/// A request travelling from the loop to a worker.
struct Job {
    token: u64,
    request: Request,
}

/// Shared between workers and the event loop: finished responses plus
/// the wake pipe that interrupts `epoll_wait`.
struct Mailbox {
    completions: Mutex<Vec<Completion>>,
    wake_tx: UnixStream,
}

impl Mailbox {
    fn post(&self, completion: Completion) {
        let was_empty = {
            let mut completions = self.completions.lock();
            let was_empty = completions.is_empty();
            completions.push(completion);
            was_empty
        };
        // Only the post that makes the list non-empty needs to wake the
        // loop: the drain swaps the whole vec under the same lock, so a
        // push that lands before the swap is picked up by the wakeup
        // already in flight, and one after it sees an empty list again.
        // One byte is enough; if the pipe is full a wakeup is already
        // pending and WouldBlock is fine.
        if was_empty {
            let _ = (&self.wake_tx).write(&[1u8]);
        }
    }
}

/// Execute one dispatched request against the handler, posting the
/// serialized reply to the mailbox. Shared by the dispatch workers and
/// the loop's inline path for requests the handler promises not to
/// block on ([`HttpHandler::completes_promptly`]).
fn run_job<H: HttpHandler>(
    service: &H,
    shutdown: &Arc<AtomicBool>,
    mailbox: &Arc<Mailbox>,
    Job { token, request }: Job,
) {
    let is_head = request.method == "HEAD";
    let req_keep_alive = request.keep_alive;
    let mailbox = Arc::clone(mailbox);
    let shutdown_for_sink = Arc::clone(shutdown);
    let sink: ReplySink = Box::new(move |reply: Reply| {
        let keep_alive = req_keep_alive && !shutdown_for_sink.load(Ordering::SeqCst);
        mailbox.post(Completion {
            token,
            bytes: serialize_reply(&reply, is_head, keep_alive),
            close: !keep_alive,
        });
    });
    service.handle_async(&request, shutdown, sink);
}

/// Pack a slab index and generation into an epoll token.
fn token_for(index: usize, generation: u32) -> u64 {
    (u64::from(generation) << 32) | index as u64
}

/// Serialize one reply as it goes on the wire, straight into the `Vec`
/// a completion carries to the loop.
pub fn serialize_reply(reply: &Reply, is_head: bool, keep_alive: bool) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(256 + reply.body.len());
    reply.encode_into(&mut bytes, is_head, keep_alive);
    bytes
}

/// Run the reactor until `shutdown` rises, then drain in-flight
/// connections and return. This is `Server::run` for
/// [`crate::server::Engine::Reactor`].
pub(crate) fn run_reactor<H: HttpHandler>(
    listener: TcpListener,
    service: Arc<H>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    poller.add(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;

    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    poller.add(wake_rx.as_raw_fd(), TOKEN_WAKE, true, false)?;

    let mailbox = Arc::new(Mailbox {
        completions: Mutex::new(Vec::new()),
        wake_tx,
    });

    // Workers: complete requests in, serialized responses out.
    let (job_tx, job_rx) = crossbeam::channel::bounded::<Job>(config.backlog.max(1));
    let mut workers = Vec::with_capacity(config.http_workers.max(1));
    for _ in 0..config.http_workers.max(1) {
        let rx = job_rx.clone();
        let service = Arc::clone(&service);
        let shutdown = Arc::clone(&shutdown);
        let mailbox = Arc::clone(&mailbox);
        workers.push(std::thread::spawn(move || {
            while let Ok(job) = rx.recv() {
                run_job(service.as_ref(), &shutdown, &mailbox, job);
            }
        }));
    }
    drop(job_rx);

    let mut reactor = Reactor {
        poller,
        listener,
        slab: Vec::new(),
        free: Vec::new(),
        active: 0,
        generation_counter: 0,
        listener_registered: true,
        config,
        service,
        shutdown,
        mailbox,
        job_tx: Some(job_tx),
        draining: false,
    };

    let mut events = Vec::new();
    let mut wake_buf = [0u8; 64];
    let mut last_tick = Instant::now();
    let mut last_sweep = Instant::now();
    loop {
        reactor.poller.wait(&mut events, 2)?;

        if !reactor.draining && reactor.shutdown.load(Ordering::SeqCst) {
            reactor.begin_drain();
        }

        for ev in &events {
            match ev.token {
                TOKEN_LISTENER => reactor.accept_ready(),
                TOKEN_WAKE => while matches!((&wake_rx).read(&mut wake_buf), Ok(n) if n > 0) {},
                token => reactor.conn_event(token, ev.readable, ev.writable, ev.closed),
            }
        }

        reactor.apply_completions();

        // The idle heartbeat and the timeout sweeps run on wall-clock
        // cadence, not per-event, so a busy loop doesn't spin them.
        if last_tick.elapsed() >= Duration::from_millis(2) {
            reactor.service.on_idle();
            last_tick = Instant::now();
        }
        if last_sweep.elapsed() >= Duration::from_millis(100) {
            reactor.sweep_timeouts();
            last_sweep = Instant::now();
        }

        if reactor.draining && reactor.active == 0 {
            break;
        }
    }

    // Close the job channel and wait the workers out; with the slab
    // empty there are no queued jobs left.
    reactor.job_tx = None;
    for worker in workers {
        let _ = worker.join();
    }
    Ok(())
}

struct Reactor<H: HttpHandler> {
    poller: Poller,
    listener: TcpListener,
    slab: Vec<Option<Conn>>,
    free: Vec<usize>,
    active: usize,
    generation_counter: u32,
    listener_registered: bool,
    config: ServerConfig,
    service: Arc<H>,
    shutdown: Arc<AtomicBool>,
    mailbox: Arc<Mailbox>,
    job_tx: Option<crossbeam::channel::Sender<Job>>,
    draining: bool,
}

impl<H: HttpHandler> Reactor<H> {
    /// Whether the slot still holds the connection the token refers to.
    fn live(&self, index: usize, generation: u32) -> bool {
        self.slab
            .get(index)
            .and_then(Option::as_ref)
            .is_some_and(|conn| conn.generation == generation)
    }

    fn state_of(&self, index: usize) -> Option<ConnState> {
        self.slab
            .get(index)
            .and_then(Option::as_ref)
            .map(|conn| conn.state)
    }

    /// Accept until the listener runs dry or the slab fills.
    fn accept_ready(&mut self) {
        while !self.draining && self.active < self.config.max_connections {
            let stream = match self.listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            let configured = stream
                .set_nonblocking(true)
                .and_then(|()| stream.set_nodelay(true));
            if configured.is_err() {
                // A socket that refuses configuration is dropped and
                // counted, never served.
                record_socket_config_failure();
                continue;
            }
            let index = match self.free.pop() {
                Some(index) => index,
                None => {
                    self.slab.push(None);
                    self.slab.len() - 1
                }
            };
            // Generations climb monotonically across the whole reactor;
            // a stale token would need 2^32 intervening connections to
            // collide while its completion is still in flight.
            self.generation_counter = self.generation_counter.wrapping_add(1);
            let generation = self.generation_counter;
            let token = token_for(index, generation);
            if self
                .poller
                .add(stream.as_raw_fd(), token, true, false)
                .is_err()
            {
                self.free.push(index);
                continue;
            }
            self.slab[index] = Some(Conn {
                stream,
                generation,
                assembler: RequestAssembler::new(self.config.limits),
                state: ConnState::KeepAlive,
                out: Vec::new(),
                out_pos: 0,
                last_activity: Instant::now(),
                request_started: None,
                close_after_write: false,
                peer_gone: false,
                interest: (true, false),
            });
            self.active += 1;
            if self.active >= self.config.max_connections {
                self.set_listener_interest(false);
            }
        }
    }

    /// Move a connection's poller registration to (read, write),
    /// skipping the syscall when it is already there.
    fn set_interest(&mut self, index: usize, read: bool, write: bool) {
        let Some(conn) = self.slab.get_mut(index).and_then(Option::as_mut) else {
            return;
        };
        if conn.interest == (read, write) {
            return;
        }
        let token = token_for(index, conn.generation);
        let fd = conn.stream.as_raw_fd();
        if self.poller.modify(fd, token, read, write).is_ok() {
            if let Some(conn) = self.slab.get_mut(index).and_then(Option::as_mut) {
                conn.interest = (read, write);
            }
        }
    }

    fn set_listener_interest(&mut self, on: bool) {
        if self.listener_registered == on || (on && self.draining) {
            return;
        }
        let fd = self.listener.as_raw_fd();
        let ok = if on {
            self.poller.add(fd, TOKEN_LISTENER, true, false).is_ok()
        } else {
            self.poller.delete(fd).is_ok()
        };
        if ok {
            self.listener_registered = on;
        }
    }

    /// Dispatch one readiness event for a connection token.
    fn conn_event(&mut self, token: u64, readable: bool, writable: bool, closed: bool) {
        let index = (token & 0xFFFF_FFFF) as usize;
        let generation = (token >> 32) as u32;
        if !self.live(index, generation) {
            return;
        }
        if writable && self.state_of(index) == Some(ConnState::WriteResponse) {
            self.write_ready(index);
        }
        if !self.live(index, generation) {
            return;
        }
        if readable {
            match self.state_of(index) {
                Some(ConnState::ReadHead | ConnState::ReadBody | ConnState::KeepAlive) => {
                    self.read_ready(index);
                }
                // Bytes arrived while a request is in flight: a
                // pipelining peer has outrun us. Drop read interest now
                // — the lazy half of the dispatch-time backpressure —
                // so level-triggered epoll stops re-reporting the
                // buffered bytes; `finish_response` restores it.
                Some(ConnState::Dispatched | ConnState::WriteResponse) => {
                    let write = self
                        .slab
                        .get(index)
                        .and_then(Option::as_ref)
                        .is_some_and(|conn| conn.interest.1);
                    self.set_interest(index, false, write);
                }
                None => {}
            }
        }
        if !closed || !self.live(index, generation) {
            return;
        }
        match self.state_of(index) {
            // Mid-flight: remember the hang-up; the pending response is
            // still attempted (the peer may only have shut down its
            // write side), then the connection closes. Billing already
            // happened at dispatch.
            Some(ConnState::Dispatched | ConnState::WriteResponse) => {
                if let Some(conn) = self.slab[index].as_mut() {
                    conn.peer_gone = true;
                }
            }
            // At rest or mid-read with nothing more coming: close. The
            // read path above already drained whatever was buffered (a
            // completed request would have moved the state to
            // Dispatched and landed in the arm above).
            _ => self.close(index),
        }
    }

    /// Pull whatever the socket holds into the assembler and advance
    /// the state machine.
    fn read_ready(&mut self, index: usize) {
        let mut buf = [0u8; 16 * 1024];
        loop {
            let Some(conn) = self.slab.get_mut(index).and_then(Option::as_mut) else {
                return;
            };
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    // EOF: clean between requests, truncation within —
                    // either way nothing more will arrive, and neither
                    // case is answered.
                    self.close(index);
                    return;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    if conn.assembler.is_empty() && conn.request_started.is_none() {
                        conn.request_started = Some(Instant::now());
                    }
                    conn.assembler.push(&buf[..n]);
                    self.advance_parse(index);
                    // Dispatched (or answering an error) means read
                    // interest is off; stop pulling even if more bytes
                    // wait — that is the per-connection backpressure.
                    match self.state_of(index) {
                        Some(ConnState::ReadHead | ConnState::ReadBody | ConnState::KeepAlive) => {}
                        _ => return,
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(index);
                    return;
                }
            }
        }
    }

    /// Try to pop a request off the assembler: dispatch it, answer a
    /// parse error, or settle into the right waiting state.
    fn advance_parse(&mut self, index: usize) {
        let Some(conn) = self.slab.get_mut(index).and_then(Option::as_mut) else {
            return;
        };
        match conn.assembler.next_request() {
            Ok(Some(request)) => self.dispatch(index, request),
            Ok(None) => {
                conn.state = if conn.assembler.awaiting_body() {
                    ConnState::ReadBody
                } else if conn.assembler.is_empty() {
                    conn.request_started = None;
                    ConnState::KeepAlive
                } else {
                    ConnState::ReadHead
                };
            }
            Err(err) => self.answer_parse_error(index, &err),
        }
    }

    /// A parse error is answered with its status when one exists, then
    /// the connection closes.
    fn answer_parse_error(&mut self, index: usize, err: &HttpError) {
        match err.status() {
            Some((status, reason)) => {
                let reply = Reply::json(status, reason, error_body(&err.to_string()));
                let bytes = serialize_reply(&reply, false, false);
                self.start_write(index, bytes, true);
            }
            None => self.close(index),
        }
    }

    /// Hand a parsed request to the workers (or shed it), deregistering
    /// read interest for the duration — the per-connection backpressure.
    fn dispatch(&mut self, index: usize, request: Request) {
        let Some(conn) = self.slab.get_mut(index).and_then(Option::as_mut) else {
            return;
        };
        conn.state = ConnState::Dispatched;
        conn.request_started = None;
        let token = token_for(index, conn.generation);
        // Read interest stays armed for now: `read_ready` already stops
        // pulling once the state leaves the read family, and the
        // readiness handler deregisters lazily if the peer actually
        // pipelines more bytes mid-flight. A request-per-round-trip
        // peer therefore costs zero `epoll_ctl` syscalls per request.
        // Requests the handler promises not to block on run right here
        // on the loop — the dominant batched-compute case costs a few
        // microseconds of routing before parking in the coalescing
        // queue, cheaper than a channel hand-off and a worker wakeup.
        // Their completions (synchronous or batched) funnel through the
        // same mailbox either way.
        if self.job_tx.is_some() && self.service.completes_promptly(&request) {
            run_job(
                self.service.as_ref(),
                &self.shutdown,
                &self.mailbox,
                Job { token, request },
            );
            return;
        }
        let accepted = match self.job_tx.as_ref() {
            Some(tx) => tx.try_send(Job { token, request }).is_ok(),
            None => {
                self.close(index);
                return;
            }
        };
        if !accepted {
            // Queue full: shed inline with the handler's 503 (the
            // connection closes after the reply).
            let reply = self.service.shed();
            let bytes = serialize_reply(&reply, false, false);
            self.start_write(index, bytes, true);
        }
    }

    /// Route each worker completion to its (still-live) connection and
    /// start writing.
    fn apply_completions(&mut self) {
        let completions = std::mem::take(&mut *self.mailbox.completions.lock());
        for completion in completions {
            let index = (completion.token & 0xFFFF_FFFF) as usize;
            let generation = (completion.token >> 32) as u32;
            if self.live(index, generation) && self.state_of(index) == Some(ConnState::Dispatched) {
                self.start_write(index, completion.bytes, completion.close);
            }
        }
    }

    /// Begin (and opportunistically finish) writing a response.
    fn start_write(&mut self, index: usize, bytes: Vec<u8>, close_after: bool) {
        let Some(conn) = self.slab.get_mut(index).and_then(Option::as_mut) else {
            return;
        };
        conn.state = ConnState::WriteResponse;
        conn.out = bytes;
        conn.out_pos = 0;
        conn.close_after_write = close_after;
        conn.last_activity = Instant::now();
        self.write_ready(index);
    }

    /// Push buffered response bytes; on WouldBlock, arm write interest.
    fn write_ready(&mut self, index: usize) {
        loop {
            let Some(conn) = self.slab.get_mut(index).and_then(Option::as_mut) else {
                return;
            };
            if conn.out_pos >= conn.out.len() {
                break;
            }
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    self.close(index);
                    return;
                }
                Ok(n) => {
                    conn.out_pos += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.set_interest(index, false, true);
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(index);
                    return;
                }
            }
        }
        self.finish_response(index);
    }

    /// The response fully drained: close, or look for the next request
    /// (pipelined bytes first, then the socket again).
    fn finish_response(&mut self, index: usize) {
        {
            let Some(conn) = self.slab.get_mut(index).and_then(Option::as_mut) else {
                return;
            };
            if conn.close_after_write || conn.peer_gone {
                self.close(index);
                return;
            }
            conn.out = Vec::new();
            conn.out_pos = 0;
            conn.state = ConnState::KeepAlive;
            conn.last_activity = Instant::now();
            if !conn.assembler.is_empty() {
                conn.request_started = Some(Instant::now());
            }
        }
        self.advance_parse(index);
        // If parsing didn't immediately dispatch (or error), the
        // connection is waiting on the socket again: restore read
        // interest if a mid-flight event (pipelined bytes, or a write
        // that hit WouldBlock) dropped it. Level-triggered epoll
        // re-reports anything already queued in the kernel buffer, so
        // nothing is lost by returning to the loop. When the interest
        // never moved — the common request-per-round-trip case — this
        // is a no-op with no syscall.
        if matches!(
            self.state_of(index),
            Some(ConnState::ReadHead | ConnState::ReadBody | ConnState::KeepAlive)
        ) {
            self.set_interest(index, true, false);
        }
    }

    /// Close idle keep-alive connections, slow-loris half-requests, and
    /// stalled writers, on the clocks [`ServerConfig`] sets.
    fn sweep_timeouts(&mut self) {
        let keep_alive = self.config.keep_alive_timeout;
        let deadline = self.config.request_deadline;
        let now = Instant::now();
        for index in 0..self.slab.len() {
            let Some(conn) = self.slab[index].as_ref() else {
                continue;
            };
            let expired = match conn.state {
                ConnState::KeepAlive | ConnState::WriteResponse => {
                    now.duration_since(conn.last_activity) > keep_alive
                }
                ConnState::ReadHead | ConnState::ReadBody => conn
                    .request_started
                    .is_some_and(|start| now.duration_since(start) > deadline),
                ConnState::Dispatched => false,
            };
            if expired {
                self.close(index);
            }
        }
    }

    /// Stop accepting and cut loose every connection no reply is owed
    /// on: idle keep-alives and half-sent heads (no request has
    /// arrived on either). In-flight requests finish with
    /// `Connection: close` because every sink consults the shutdown
    /// flag; a body still arriving keeps its request deadline.
    fn begin_drain(&mut self) {
        self.set_listener_interest(false);
        self.draining = true;
        for index in 0..self.slab.len() {
            let owed_nothing = self.slab[index].as_ref().is_some_and(|conn| {
                matches!(conn.state, ConnState::KeepAlive | ConnState::ReadHead)
            });
            if owed_nothing {
                self.close(index);
            }
        }
    }

    fn close(&mut self, index: usize) {
        if let Some(conn) = self.slab.get_mut(index).and_then(Option::take) {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            drop(conn);
            self.free.push(index);
            self.active -= 1;
            if self.active < self.config.max_connections {
                self.set_listener_interest(true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::demo::demo_service;
    use crate::http::{read_response, Limits};
    use crate::server::{Engine, Server, ServerConfig};
    use crate::service::{ComputeService, ServiceConfig};
    use std::io::{BufReader, Write};
    use std::net::TcpStream;
    use std::sync::Arc;
    use std::time::Duration;

    fn reactor_server(service: Arc<ComputeService>) -> crate::server::RunningServer {
        Server::bind(
            "127.0.0.1:0",
            service,
            ServerConfig {
                engine: Engine::Reactor,
                keep_alive_timeout: Duration::from_millis(500),
                ..ServerConfig::default()
            },
        )
        .expect("bind")
        .spawn()
    }

    #[test]
    fn round_trip_keep_alive_and_graceful_stop() {
        let running = reactor_server(Arc::new(demo_service(60, 9, ServiceConfig::defaults())));
        let mut stream = TcpStream::connect(running.addr()).unwrap();
        stream
            .write_all(
                b"POST /compute HTTP/1.1\r\nTolerance: 0.10\r\nObjective: response-time\r\n\
                  Payload: 5\r\nContent-Length: 0\r\n\r\n",
            )
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let response = read_response(&mut reader, &Limits::default()).unwrap();
        assert_eq!(response.status, 200);
        assert!(response.text().contains("\"answered_by\""));

        // Keep-alive: a second request rides the same connection.
        stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let response = read_response(&mut reader, &Limits::default()).unwrap();
        assert_eq!(response.status, 200);

        // HEAD suppresses the body but carries the same headers.
        stream.write_all(b"HEAD /metrics HTTP/1.1\r\n\r\n").unwrap();
        let response = read_response(&mut reader, &Limits::default()).unwrap();
        assert_eq!(response.status, 200);
        assert!(response.body.is_empty());

        drop(stream);
        running.stop().unwrap();
    }

    #[test]
    fn a_drain_does_not_wait_on_a_half_sent_head() {
        let running = reactor_server(Arc::new(demo_service(60, 9, ServiceConfig::defaults())));
        let mut stream = TcpStream::connect(running.addr()).unwrap();
        stream
            .write_all(b"POST /compute HTTP/1.1\r\nTolerance: 0.1\r\n")
            .unwrap();
        // Let the loop read the partial head, so the connection sits
        // in `ReadHead` rather than waiting for its first byte.
        std::thread::sleep(Duration::from_millis(200));
        let begin = std::time::Instant::now();
        running.stop().unwrap();
        let took = begin.elapsed();
        assert!(
            took < Duration::from_secs(2),
            "stop waited {took:?} on a connection that owes no reply"
        );
        drop(stream);
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let running = reactor_server(Arc::new(demo_service(60, 9, ServiceConfig::defaults())));
        let mut stream = TcpStream::connect(running.addr()).unwrap();
        // Two compute requests and a healthz in one write.
        let mut wire = Vec::new();
        for payload in [3, 4] {
            wire.extend_from_slice(
                format!(
                    "POST /compute HTTP/1.1\r\nTolerance: 0.05\r\nObjective: cost\r\n\
                     Payload: {payload}\r\nContent-Length: 0\r\n\r\n"
                )
                .as_bytes(),
            );
        }
        wire.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
        stream.write_all(&wire).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for expected_payload in [3, 4] {
            let response = read_response(&mut reader, &Limits::default()).unwrap();
            assert_eq!(response.status, 200);
            assert!(
                response
                    .text()
                    .contains(&format!("\"payload\": {expected_payload}")),
                "pipelined responses must come back in request order"
            );
        }
        let response = read_response(&mut reader, &Limits::default()).unwrap();
        assert_eq!(response.status, 200);
    }

    #[test]
    fn parse_errors_are_answered_then_closed() {
        let running = reactor_server(Arc::new(demo_service(60, 9, ServiceConfig::defaults())));
        let mut stream = TcpStream::connect(running.addr()).unwrap();
        stream.write_all(b"BREW /compute HTTP/1.1\r\n\r\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let response = read_response(&mut reader, &Limits::default()).unwrap();
        assert_eq!(response.status, 501);
    }

    #[test]
    fn batching_enabled_serves_identical_response_fields() {
        let mut batched = ServiceConfig::defaults();
        batched.batch.enabled = true;
        let plain = Arc::new(demo_service(60, 9, ServiceConfig::defaults()));
        let running_plain = reactor_server(Arc::clone(&plain));
        let running_batched = Arc::new(demo_service(60, 9, batched));
        let running_batched = reactor_server(running_batched);

        let ask = |addr: std::net::SocketAddr| -> String {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .write_all(
                    b"POST /compute HTTP/1.1\r\nTolerance: 0.10\r\nObjective: response-time\r\n\
                      Payload: 7\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
                )
                .unwrap();
            let mut reader = BufReader::new(stream);
            let response = read_response(&mut reader, &Limits::default()).unwrap();
            assert_eq!(response.status, 200);
            response.text().to_string()
        };
        let a = ask(running_plain.addr());
        let b = ask(running_batched.addr());
        // Identical modulo the request id (tracer serial numbers differ
        // across server instances).
        let strip =
            |s: &str| -> String { s.split(", \"request_id\"").next().unwrap_or(s).to_string() };
        assert_eq!(
            strip(&a),
            strip(&b),
            "batch membership must not change any response field"
        );
    }
}
