//! Readiness-driven event-loop front-end: the daemon's only TCP server
//! (DESIGN.md §16).
//!
//! ```text
//!                    ┌─ reactor 0 ─ poll(2) over { self-pipe, conns… } ─┐
//!  acceptor thread ─▶│  reactor 1    nonblocking reads → FrameDecoder   │─▶ Tenant::submit …
//!  (round-robin)     └─ reactor N    write buffers ← replies, in order ─┘   (inline, tenant lock)
//! ```
//!
//! A thread per connection would make connection *count*, not planning
//! throughput, the daemon's wall. This module keeps every protocol
//! invariant of the in-process adapter ([`crate::ingest::serve_connection`])
//! while serving all sockets from a small fixed pool of reactor threads:
//!
//! * **Run to completion** — a reactor decodes each connection's frames
//!   strictly in arrival order and runs every one through
//!   [`crate::ingest::dispatch`], the same code the in-process adapter runs:
//!   a submit is planned, committed and journaled on the reactor under its
//!   tenant's lock, and its `SubmitAck` and `PlanReply` land in the
//!   connection's write buffer back to back. Per-connection admission
//!   order (and therefore each tenant's commit order and committed route
//!   set) and reply order are both frame order.
//! * **Receive time** — every frame is stamped with the instant the
//!   `read()` that completed it returned; a submit's deadline counts from
//!   there, so a request that waited behind other connections' plans on
//!   the same reactor, or for its tenant's lock, pays for it.
//! * **Known cost** — one slow plan delays every other socket on its
//!   reactor. A planner panic does not: it is caught at the tenant, which
//!   answers `ServiceDied` from then on, and the reactor keeps serving.
//! * **Rate limiting and drain** — the per-connection token bucket runs
//!   per inbound frame before any tenant lookup, inside
//!   [`crate::ingest::dispatch`]; on shutdown the acceptor stops, reactors
//!   stop reading, flush what they already wrote into buffers (bounded by
//!   [`MuxConfig::drain_grace`]), and [`serve_tcp_mux`] returns so the
//!   caller can [`TenantRegistry::drain_all`] and seal the WAL.
//!
//! The self-pipe wakes a reactor for two things only: a connection handed
//! over by the acceptor, and a record shipped to a log-tail subscriber.
//!
//! The reactor is hand-rolled on `poll(2)` through a single-declaration FFI
//! shim ([`sys`]) — no event-loop dependency, no `libc` crate. This module
//! is the only code in the crate allowed to contain `unsafe` (the crate
//! root is `#![deny(unsafe_code)]`; the shim opts in locally).
//!
//! [`TenantRegistry::drain_all`]: crate::tenant::TenantRegistry::drain_all

use crate::ingest::{dispatch, encode_reply, RateLimit, TokenBucket};
use crate::report::MuxCounters;
use crate::tenant::{Tenant, TenantRegistry};
use crate::wal::record::{encode_record, ChangeRecord};
use crate::wal::{LogSubscription, WalJournal};
use crate::wire::frame::{FrameDecoder, FrameKind, WireError};
use crate::wire::schema::{self, ErrorCode};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The `poll(2)` system-call shim: one extern declaration and one safe
/// wrapper. Kept to the smallest possible unsafe surface — the pointer and
/// length handed to the kernel come straight from a live `&mut [PollFd]`.
#[allow(unsafe_code)]
mod sys {
    use std::io;

    /// There is data to read.
    pub const POLLIN: i16 = 0x001;
    /// Writing now will not block.
    pub const POLLOUT: i16 = 0x004;
    /// Error condition (revents only).
    pub const POLLERR: i16 = 0x008;
    /// Peer hung up (revents only).
    pub const POLLHUP: i16 = 0x010;
    /// Invalid fd (revents only).
    pub const POLLNVAL: i16 = 0x020;

    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    #[derive(Clone, Copy, Debug)]
    pub struct PollFd {
        /// File descriptor to watch.
        pub fd: i32,
        /// Requested events.
        pub events: i16,
        /// Returned events.
        pub revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: core::ffi::c_ulong, timeout: i32) -> i32;
    }

    /// Block up to `timeout_ms` for readiness on `fds`; returns how many
    /// entries have non-zero `revents`. `EINTR` reads as zero ready — the
    /// caller's loop re-polls, which is the behaviour a signal wants.
    pub fn poll_fds(fds: &mut [super::sys::PollFd], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `fds` is a live, exclusively borrowed slice; the kernel
        // writes only within `fds.len()` entries, and only to `revents`.
        let rc = unsafe {
            poll(
                fds.as_mut_ptr(),
                fds.len() as core::ffi::c_ulong,
                timeout_ms,
            )
        };
        if rc < 0 {
            let err = io::Error::last_os_error();
            return if err.kind() == io::ErrorKind::Interrupted {
                Ok(0)
            } else {
                Err(err)
            };
        }
        Ok(rc as usize)
    }
}

/// How long the reactor sleeps in `poll(2)` when nothing is ready. Purely a
/// backstop: real work arrives via socket readiness or the self-pipe; the
/// timeout only bounds how late a draining reactor notices that its
/// [`MuxConfig::drain_grace`] ran out while a client stopped reading, and
/// how late an idle acceptor notices its shutdown flag.
const POLL_TIMEOUT: Duration = Duration::from_millis(25);

/// Block in `poll(2)` until `listener` has a connection to accept, or until
/// [`POLL_TIMEOUT`] passes so the caller can re-check its shutdown flag. A
/// socket that connects while the acceptor waits is accepted at once.
fn wait_for_connection(listener: &TcpListener) -> std::io::Result<()> {
    let mut fds = [sys::PollFd {
        fd: listener.as_raw_fd(),
        events: sys::POLLIN,
        revents: 0,
    }];
    sys::poll_fds(&mut fds, POLL_TIMEOUT.as_millis() as i32).map(drop)
}

/// Soft cap on the raw-record bytes packed into one shipped `LogChunk`.
/// A standby catching up from `seq=1` would otherwise receive the whole
/// log as a single frame; splitting near 1 MiB keeps every chunk far
/// below [`crate::wire::MAX_PAYLOAD`] and lets the reactor interleave
/// other connections' replies between chunks of a large catch-up.
const TAIL_CHUNK_BYTES: usize = 1 << 20;

/// Write-buffer size at which a reactor stops reading a connection until
/// the client drains its replies: the transport's backpressure, so a
/// client that pipelines without reading cannot grow the buffer without
/// bound.
const OUT_HIGH_WATER: usize = 1 << 20;

/// Reactor pool configuration for [`serve_tcp_mux`].
#[derive(Debug, Clone, Copy)]
pub struct MuxConfig {
    /// Reactor threads sharing the connections (the fixed thread pool);
    /// normalized up to 1.
    pub threads: usize,
    /// Optional per-connection token-bucket rate limit
    /// ([`RateLimit`]).
    pub rate_limit: Option<RateLimit>,
    /// On shutdown, how long reactors keep flushing replies already
    /// written into connection buffers before closing the remaining
    /// connections.
    /// Bounds daemon exit time when clients hold connections open.
    pub drain_grace: Duration,
}

impl Default for MuxConfig {
    fn default() -> Self {
        MuxConfig {
            threads: 2,
            rate_limit: None,
            drain_grace: Duration::from_secs(1),
        }
    }
}

/// Shared reactor counters, updated lock-free by the acceptor and every
/// reactor thread; snapshot with [`MuxMetrics::snapshot`].
#[derive(Debug, Default)]
pub struct MuxMetrics {
    registered: AtomicU64,
    peak_registered: AtomicU64,
    accepted: AtomicU64,
    polls: AtomicU64,
    wakeups: AtomicU64,
    pipe_wakeups: AtomicU64,
    partial_reads: AtomicU64,
    partial_writes: AtomicU64,
    max_ready_set: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
}

impl MuxMetrics {
    fn register(&self) {
        let now = self.registered.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_registered.fetch_max(now, Ordering::Relaxed);
    }

    fn deregister(&self, n: u64) {
        self.registered.fetch_sub(n, Ordering::Relaxed);
    }

    /// Point-in-time serializable snapshot.
    pub fn snapshot(&self) -> MuxCounters {
        MuxCounters {
            registered: self.registered.load(Ordering::Relaxed),
            peak_registered: self.peak_registered.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            polls: self.polls.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
            pipe_wakeups: self.pipe_wakeups.load(Ordering::Relaxed),
            partial_reads: self.partial_reads.load(Ordering::Relaxed),
            partial_writes: self.partial_writes.load(Ordering::Relaxed),
            max_ready_set: self.max_ready_set.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
        }
    }
}

/// Self-pipe write end; `wake` is safe from any thread and coalesces —
/// a full pipe means a wakeup is already pending, which is all we need.
struct WakePipe {
    tx: UnixStream,
}

impl WakePipe {
    fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }
}

/// A connection's live WAL-shipping subscription: the journal it tails
/// (for the epoch stamped into each chunk) and the queue the journal's
/// append path pushes committed records into.
struct TailConn {
    journal: Arc<WalJournal>,
    sub: LogSubscription,
}

/// One registered client connection and its reassembly state.
struct Conn {
    stream: TcpStream,
    peer: String,
    decoder: FrameDecoder,
    /// Bytes queued toward the client, flushed as the socket accepts them.
    out: Vec<u8>,
    bucket: Option<TokenBucket>,
    /// Live log-tail subscription, when the client sent `TailLog`.
    tail: Option<TailConn>,
    /// No more frames will be read (EOF, decode error, or drain mode);
    /// the connection stays registered until its write buffer flushes.
    read_closed: bool,
    /// Transport is broken; reap immediately.
    dead: bool,
}

impl Conn {
    fn wants_events(&self) -> i16 {
        let mut ev = 0i16;
        if !self.read_closed && self.out.len() < OUT_HIGH_WATER {
            ev |= sys::POLLIN;
        }
        if !self.out.is_empty() {
            ev |= sys::POLLOUT;
        }
        ev
    }

    /// Stop reading this connection (protocol error or EOF mid-frame): the
    /// blocking reader ends its loop at this point — mirrored here by
    /// keeping the connection registered only until `out` empties.
    fn fail_read(&mut self) {
        self.read_closed = true;
        self.decoder = FrameDecoder::new();
    }
}

/// Immutable per-reactor context shared by the frame handlers.
struct Ctx {
    registry: Arc<TenantRegistry>,
    metrics: Arc<MuxMetrics>,
    /// The reactor's own self-pipe, nudged by the journal whenever it
    /// ships a record to one of this reactor's log-tail subscribers.
    wake: Arc<WakePipe>,
}

struct Reactor {
    ctx: Ctx,
    conns: Vec<Conn>,
    inbox: Arc<Mutex<Vec<(TcpStream, String)>>>,
    wake_rx: UnixStream,
    shutdown: Arc<AtomicBool>,
    rate_limit: Option<RateLimit>,
    drain_grace: Duration,
    /// Event-sweep start offset, advanced every iteration (fairness).
    rotor: usize,
}

impl Reactor {
    fn run(mut self) {
        let mut drain_deadline: Option<Instant> = None;
        let mut scratch = [0u8; 16 * 1024];
        loop {
            self.take_incoming(drain_deadline.is_some());
            if drain_deadline.is_none() && self.shutdown.load(Ordering::SeqCst) {
                // Drain mode: admit nothing new, settle what is owed.
                drain_deadline = Some(Instant::now() + self.drain_grace);
                for conn in &mut self.conns {
                    conn.fail_read();
                }
            }
            for conn in &mut self.conns {
                Self::pump_tail(&self.ctx, conn);
                Self::flush(&self.ctx.metrics, conn);
            }
            self.reap();
            if let Some(deadline) = drain_deadline {
                if self.conns.is_empty() || Instant::now() >= deadline {
                    self.ctx.metrics.deregister(self.conns.len() as u64);
                    return;
                }
            }

            let mut fds = Vec::with_capacity(self.conns.len() + 1);
            fds.push(sys::PollFd {
                fd: self.wake_rx.as_raw_fd(),
                events: sys::POLLIN,
                revents: 0,
            });
            for conn in &self.conns {
                fds.push(sys::PollFd {
                    fd: conn.stream.as_raw_fd(),
                    events: conn.wants_events(),
                    revents: 0,
                });
            }
            let timeout = POLL_TIMEOUT.as_millis() as i32;
            let ready = match sys::poll_fds(&mut fds, timeout) {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("carp-service: mux poll failed: {e}");
                    self.ctx.metrics.deregister(self.conns.len() as u64);
                    return;
                }
            };
            let m = &self.ctx.metrics;
            m.polls.fetch_add(1, Ordering::Relaxed);
            if ready > 0 {
                m.wakeups.fetch_add(1, Ordering::Relaxed);
                m.max_ready_set.fetch_max(ready as u64, Ordering::Relaxed);
            }
            if fds[0].revents & sys::POLLIN != 0 {
                m.pipe_wakeups.fetch_add(1, Ordering::Relaxed);
                self.drain_wake_pipe(&mut scratch);
            }
            // Rotate where the sweep starts: with a fixed order, the conn
            // registered last waits behind every other ready socket on
            // every single wakeup, and its ack tail latency grows linearly
            // with fan-in. Rotation makes the wait positional-average.
            let n = self.conns.len();
            let start = if n == 0 { 0 } else { self.rotor % n };
            self.rotor = self.rotor.wrapping_add(1);
            for j in 0..n {
                let i = (start + j) % n;
                let conn = &mut self.conns[i];
                let re = fds[i + 1].revents;
                if re == 0 {
                    continue;
                }
                if re & sys::POLLNVAL != 0 {
                    conn.dead = true;
                    continue;
                }
                // HUP/ERR still allow draining whatever the kernel buffered
                // before the peer vanished; the read path surfaces the
                // EOF/error itself.
                if re & (sys::POLLIN | sys::POLLHUP | sys::POLLERR) != 0 && !conn.read_closed {
                    Self::read_conn(&self.ctx, conn, &mut scratch);
                    // Replies are generated inline, frame by frame; push
                    // them onto the wire before touching the next ready
                    // socket, so one connection's burst doesn't tax every
                    // other connection's latency.
                    Self::flush(&self.ctx.metrics, conn);
                } else if re & (sys::POLLHUP | sys::POLLERR) != 0 && conn.read_closed {
                    // The read side is already severed, so no arm above will
                    // consume this condition — without this arm a peer that
                    // vanished with replies still buffered (POLLERR from an
                    // RST, POLLHUP) is re-reported by every subsequent
                    // poll(2): a busy loop, and a leaked fd if the buffer
                    // never drains. The transport is gone both ways; try one
                    // last flush (it marks `dead` itself on failure) and
                    // reap regardless.
                    Self::flush(&self.ctx.metrics, conn);
                    conn.dead = true;
                }
                if re & sys::POLLOUT != 0 {
                    Self::flush(&self.ctx.metrics, conn);
                }
            }
        }
    }

    fn take_incoming(&mut self, draining: bool) {
        let fresh = {
            let mut inbox = self.inbox.lock().expect("mux inbox lock");
            std::mem::take(&mut *inbox)
        };
        for (stream, peer) in fresh {
            if stream.set_nonblocking(true).is_err() {
                continue; // socket already dead; never registered
            }
            let _ = stream.set_nodelay(true);
            self.ctx.metrics.register();
            let mut conn = Conn {
                stream,
                peer,
                decoder: FrameDecoder::new(),
                out: Vec::new(),
                bucket: self.rate_limit.map(TokenBucket::new),
                tail: None,
                read_closed: false,
                dead: false,
            };
            if draining {
                conn.fail_read();
            }
            self.conns.push(conn);
        }
    }

    fn drain_wake_pipe(&mut self, scratch: &mut [u8]) {
        loop {
            match (&self.wake_rx).read(scratch) {
                Ok(0) => return, // all write ends dropped; nothing to drain
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Drain the socket until `EWOULDBLOCK`/EOF, handing every complete
    /// frame to the dispatcher in arrival order, stamped with the instant
    /// the read that completed it returned.
    fn read_conn(ctx: &Ctx, conn: &mut Conn, scratch: &mut [u8]) {
        loop {
            match conn.stream.read(scratch) {
                Ok(0) => {
                    // EOF: judge the frame boundary like the blocking path.
                    if conn.decoder.finish().is_err() {
                        eprintln!("carp-service: {}: {}", conn.peer, WireError::Truncated);
                    }
                    conn.fail_read();
                    break;
                }
                Ok(n) => {
                    let received = Instant::now();
                    conn.decoder.push(&scratch[..n]);
                    loop {
                        match conn.decoder.next_frame() {
                            Ok(Some((kind, payload))) => {
                                if let Err(e) =
                                    Self::handle_frame(ctx, conn, kind, &payload, received)
                                {
                                    eprintln!("carp-service: {}: {e}", conn.peer);
                                    conn.fail_read();
                                    break;
                                }
                            }
                            Ok(None) => break,
                            Err(e) => {
                                eprintln!("carp-service: {}: {e}", conn.peer);
                                conn.fail_read();
                                break;
                            }
                        }
                    }
                    if conn.read_closed || conn.out.len() >= OUT_HIGH_WATER {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if conn.decoder.buffered() > 0 {
                        ctx.metrics.partial_reads.fetch_add(1, Ordering::Relaxed);
                    }
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    eprintln!("carp-service: {}: {}", conn.peer, WireError::from(e));
                    conn.dead = true;
                    break;
                }
            }
        }
    }

    /// Run one inbound frame through the shared dispatcher, queueing its
    /// replies; a log-tail subscription is served here.
    fn handle_frame(
        ctx: &Ctx,
        conn: &mut Conn,
        kind: FrameKind,
        payload: &[u8],
        received: Instant,
    ) -> Result<(), WireError> {
        ctx.metrics.frames_in.fetch_add(1, Ordering::Relaxed);
        let Conn { bucket, out, .. } = conn;
        let mut send = |tenant: Option<&Tenant>, kind: FrameKind, payload: &[u8]| {
            Self::queue_frame(&ctx.metrics, out, tenant, kind, payload)
        };
        let Some(from_seq) = dispatch(&ctx.registry, bucket, kind, payload, received, &mut send)?
        else {
            return Ok(());
        };
        let Some(journal) = ctx.registry.journal() else {
            let reply = schema::encode_error_reply(
                ErrorCode::NoJournal,
                "daemon has no changeset log attached",
            );
            send(None, FrameKind::ErrorReply, &reply);
            return Ok(());
        };
        // Catch-up (records already on disk from `from_seq`) and the live
        // registration happen under the journal's append lock, so the
        // hand-off is gap-free and duplicate-free: every later append lands
        // in the subscription queue. The waker nudges this reactor's
        // self-pipe so the next `poll(2)` wakes the instant a record ships.
        let wake = Arc::clone(&ctx.wake);
        let (catch_up, sub) = journal.tail(from_seq, move || wake.wake())?;
        Self::queue_log_chunks(ctx, conn, journal.epoch(), &catch_up);
        conn.tail = Some(TailConn { journal, sub });
        Ok(())
    }

    /// Move records the journal shipped since the last loop iteration from
    /// the subscription queue into the connection's write buffer.
    fn pump_tail(ctx: &Ctx, conn: &mut Conn) {
        let (epoch, records) = match conn.tail.as_ref() {
            Some(tail) => (tail.journal.epoch(), tail.sub.drain()),
            None => return,
        };
        if !records.is_empty() {
            Self::queue_log_chunks(ctx, conn, epoch, &records);
        }
    }

    /// Encode `records` as one or more `LogChunk` frames into the write
    /// buffer, packing up to [`TAIL_CHUNK_BYTES`] of raw record bytes per
    /// chunk (always at least one record, so progress is guaranteed).
    fn queue_log_chunks(ctx: &Ctx, conn: &mut Conn, epoch: u64, records: &[ChangeRecord]) {
        let mut raw = Vec::new();
        let mut count = 0u32;
        for rec in records {
            let bytes = encode_record(rec);
            if count > 0 && raw.len() + bytes.len() > TAIL_CHUNK_BYTES {
                let payload = schema::encode_log_chunk_raw(epoch, count, &raw);
                Self::queue_frame(
                    &ctx.metrics,
                    &mut conn.out,
                    None,
                    FrameKind::LogChunk,
                    &payload,
                );
                raw.clear();
                count = 0;
            }
            raw.extend_from_slice(&bytes);
            count += 1;
        }
        if count > 0 {
            let payload = schema::encode_log_chunk_raw(epoch, count, &raw);
            Self::queue_frame(
                &ctx.metrics,
                &mut conn.out,
                None,
                FrameKind::LogChunk,
                &payload,
            );
        }
    }

    /// Encode one daemon → client frame into a connection's write buffer,
    /// tallying it on `tenant` when known.
    fn queue_frame(
        metrics: &MuxMetrics,
        out: &mut Vec<u8>,
        tenant: Option<&Tenant>,
        kind: FrameKind,
        payload: &[u8],
    ) {
        metrics.frames_out.fetch_add(1, Ordering::Relaxed);
        encode_reply(out, tenant, kind, payload);
    }

    /// Push buffered bytes out until the socket pushes back.
    fn flush(metrics: &MuxMetrics, conn: &mut Conn) {
        while !conn.out.is_empty() {
            match conn.stream.write(&conn.out) {
                Ok(0) => {
                    conn.dead = true;
                    return;
                }
                Ok(n) => {
                    let short = n < conn.out.len();
                    conn.out.drain(..n);
                    if short {
                        metrics.partial_writes.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    metrics.partial_writes.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Client gone mid-reply. Its requests are already
                    // committed in their tenants; only the transport is
                    // finished.
                    conn.dead = true;
                    return;
                }
            }
        }
    }

    /// Drop connections that are finished: transport dead, or read side
    /// done with nothing left to flush.
    fn reap(&mut self) {
        let metrics = &self.ctx.metrics;
        let before = self.conns.len();
        self.conns
            .retain(|c| !(c.dead || c.read_closed && c.out.is_empty()));
        let reaped = before - self.conns.len();
        if reaped > 0 {
            metrics.deregister(reaped as u64);
        }
    }
}

/// Accept TCP connections and serve them all from `config.threads` reactor
/// threads until `shutdown` is set. Once the flag is set the listener
/// stops accepting, reactors flush what connected clients are still owed
/// (bounded by [`MuxConfig::drain_grace`]) and `serve_tcp_mux` returns
/// `Ok(())` so the caller can drain tenants and seal the changeset log. `metrics` is shared so callers can snapshot
/// reactor counters while the daemon serves.
pub fn serve_tcp_mux(
    listener: TcpListener,
    registry: Arc<TenantRegistry>,
    shutdown: Arc<AtomicBool>,
    config: MuxConfig,
    metrics: Arc<MuxMetrics>,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let threads = config.threads.max(1);
    let mut inboxes = Vec::with_capacity(threads);
    let mut wakers = Vec::with_capacity(threads);
    let mut handles = Vec::with_capacity(threads);
    for i in 0..threads {
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let pipe = Arc::new(WakePipe { tx: wake_tx });
        let inbox: Arc<Mutex<Vec<(TcpStream, String)>>> = Arc::new(Mutex::new(Vec::new()));
        let reactor = Reactor {
            ctx: Ctx {
                registry: Arc::clone(&registry),
                metrics: Arc::clone(&metrics),
                wake: Arc::clone(&pipe),
            },
            conns: Vec::new(),
            inbox: Arc::clone(&inbox),
            wake_rx,
            shutdown: Arc::clone(&shutdown),
            rate_limit: config.rate_limit,
            drain_grace: config.drain_grace,
            rotor: 0,
        };
        handles.push(
            std::thread::Builder::new()
                .name(format!("carp-mux-{i}"))
                .spawn(move || reactor.run())
                .expect("spawn mux reactor thread"),
        );
        inboxes.push(inbox);
        wakers.push(pipe);
    }

    let mut next = 0usize;
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, peer)) => {
                metrics.accepted.fetch_add(1, Ordering::Relaxed);
                let slot = next % threads;
                next += 1;
                inboxes[slot]
                    .lock()
                    .expect("mux inbox lock")
                    .push((stream, peer.to_string()));
                wakers[slot].wake();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                wait_for_connection(&listener)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    for w in &wakers {
        w.wake();
    }
    for h in handles {
        let _ = h.join();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{PlanResponse, ServiceConfig};
    use crate::wire::client::WireClient;
    use carp_warehouse::planner::{PlanOutcome, Planner};
    use carp_warehouse::request::{QueryKind, Request};
    use carp_warehouse::route::Route;
    use carp_warehouse::types::Cell;

    struct StubPlanner;

    impl Planner for StubPlanner {
        fn name(&self) -> &'static str {
            "mux-stub"
        }
        fn plan(&mut self, req: &Request) -> PlanOutcome {
            PlanOutcome::Planned(Route::stationary(req.t, req.origin))
        }
        fn cancel(&mut self, _id: carp_warehouse::request::RequestId) -> bool {
            true
        }
        fn memory_bytes(&self) -> usize {
            0
        }
    }

    struct PanicPlanner;

    impl Planner for PanicPlanner {
        fn name(&self) -> &'static str {
            "mux-panic"
        }
        fn plan(&mut self, _req: &Request) -> PlanOutcome {
            panic!("injected planner crash");
        }
        fn memory_bytes(&self) -> usize {
            0
        }
    }

    fn no_deadline() -> ServiceConfig {
        ServiceConfig {
            deadline: None,
            ..ServiceConfig::default()
        }
    }

    fn registry() -> Arc<TenantRegistry> {
        let registry = Arc::new(TenantRegistry::new());
        registry.register("W-test", StubPlanner, no_deadline());
        registry
    }

    type Harness = (
        std::net::SocketAddr,
        Arc<AtomicBool>,
        Arc<MuxMetrics>,
        std::thread::JoinHandle<std::io::Result<()>>,
        Arc<TenantRegistry>,
    );

    fn start(config: MuxConfig) -> Harness {
        start_with(config, registry())
    }

    fn start_with(config: MuxConfig, registry: Arc<TenantRegistry>) -> Harness {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let shutdown = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(MuxMetrics::default());
        let srv = {
            let registry = Arc::clone(&registry);
            let shutdown = Arc::clone(&shutdown);
            let metrics = Arc::clone(&metrics);
            std::thread::spawn(move || serve_tcp_mux(listener, registry, shutdown, config, metrics))
        };
        (addr, shutdown, metrics, srv, registry)
    }

    fn req(id: u64) -> Request {
        Request::new(id, 0, Cell::new(0, 0), Cell::new(0, 1), QueryKind::Pickup)
    }

    #[test]
    fn full_protocol_round_trip_over_the_reactor() {
        let (addr, shutdown, metrics, srv, _registry) = start(MuxConfig::default());
        let mut client = WireClient::connect(addr).expect("connect");
        for id in 0..8u64 {
            client.submit("W-test", &req(id)).expect("submit acked");
        }
        for id in 0..8u64 {
            let response = client.wait_plan(id).expect("plan reply");
            assert!(response.route().is_some(), "request {id} planned");
        }
        assert!(client.advance("W-test", 10).expect("advance").is_empty());
        assert!(client.cancel("W-test", 3).expect("cancel"));
        let (m, _wire) = client.metrics("W-test").expect("metrics");
        assert_eq!(m.planned, 8);
        drop(client);
        shutdown.store(true, Ordering::SeqCst);
        srv.join().expect("server thread").expect("serve ok");
        let counters = metrics.snapshot();
        assert_eq!(counters.accepted, 1);
        assert_eq!(counters.registered, 0, "connection reaped");
        assert!(counters.frames_in >= 11);
    }

    #[test]
    fn torn_frame_then_disconnect_is_reaped_not_wedged() {
        let (addr, shutdown, metrics, srv, _registry) = start(MuxConfig::default());
        {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(b"CARP\x01\x00").expect("half a header");
            // Force the reactor to register + read before we vanish.
            std::thread::sleep(Duration::from_millis(100));
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while metrics.snapshot().registered != 0 {
            assert!(Instant::now() < deadline, "torn connection never reaped");
            std::thread::sleep(Duration::from_millis(10));
        }
        shutdown.store(true, Ordering::SeqCst);
        srv.join().expect("server thread").expect("serve ok");
    }

    /// Connect ten times, each after the acceptor has idled for at least
    /// 30 ms and at phases 2.5 ms apart, and time each connection's first
    /// `Metrics` reply. An acceptor that naps 25 ms whenever `accept` would
    /// block answers about one connection in five 20 ms late or worse.
    #[test]
    fn idle_mux_acceptor_answers_a_new_connection_at_once() {
        let (addr, shutdown, _metrics, srv, _registry) = start(MuxConfig::default());
        for k in 0..10u64 {
            std::thread::sleep(Duration::from_micros(30_000 + 2_500 * k));
            let started = Instant::now();
            let mut client = WireClient::connect(addr).expect("connect");
            client.metrics("W-test").expect("metrics");
            let took = started.elapsed();
            assert!(
                took < Duration::from_millis(20),
                "connection {k}: first reply after {took:?}"
            );
        }
        shutdown.store(true, Ordering::SeqCst);
        srv.join().expect("server thread").expect("serve ok");
    }

    #[test]
    fn shutdown_mid_connection_drains_and_returns() {
        let (addr, shutdown, _metrics, srv, _registry) = start(MuxConfig {
            drain_grace: Duration::from_millis(200),
            ..MuxConfig::default()
        });
        let mut client = WireClient::connect(addr).expect("connect");
        client.submit("W-test", &req(0)).expect("submit acked");
        assert!(client.wait_plan(0).expect("plan reply").route().is_some());
        // Client keeps the socket open across shutdown: the reactor must
        // not wait for its EOF.
        shutdown.store(true, Ordering::SeqCst);
        let started = Instant::now();
        srv.join().expect("server thread").expect("serve ok");
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "drain must be bounded by the grace period"
        );
    }

    #[test]
    fn pipelined_frames_are_answered_in_frame_order() {
        use crate::wire::frame::{read_frame, write_frame};
        use crate::wire::schema::{AckStatus, PlanVerdict};
        let (addr, shutdown, _metrics, srv, _registry) = start(MuxConfig::default());
        let mut stream = TcpStream::connect(addr).expect("connect");
        // Six submits with an advance in the middle, sent in one write so
        // the reactor decodes them from one read.
        let mut burst = Vec::new();
        for id in 0..6u64 {
            let payload = schema::encode_submit("W-test", &req(id));
            write_frame(&mut burst, FrameKind::Submit, &payload).expect("encode");
            if id == 2 {
                let payload = schema::encode_advance("W-test", 1);
                write_frame(&mut burst, FrameKind::Advance, &payload).expect("encode");
            }
        }
        stream.write_all(&burst).expect("send burst");
        let mut next = || read_frame(&mut stream).expect("read").expect("frame");
        for id in 0..6u64 {
            let (kind, payload) = next();
            assert_eq!(kind, FrameKind::SubmitAck, "request {id}: ack first");
            let (acked, status) = schema::decode_submit_ack(&payload).expect("ack");
            assert_eq!((acked, status), (id, AckStatus::Accepted));
            let (kind, payload) = next();
            assert_eq!(
                kind,
                FrameKind::PlanReply,
                "request {id}: reply right after its ack"
            );
            let (planned, verdict) = schema::decode_plan_reply(&payload).expect("reply");
            assert_eq!(planned, id);
            assert!(matches!(verdict, PlanVerdict::Planned(_)));
            if id == 2 {
                let (kind, _) = next();
                assert_eq!(kind, FrameKind::AdvanceReply, "advance keeps its slot");
            }
        }
        drop(stream);
        shutdown.store(true, Ordering::SeqCst);
        srv.join().expect("server thread").expect("serve ok");
    }

    #[test]
    fn a_planner_panic_spares_the_reactor_and_the_other_tenant() {
        let registry = registry();
        registry.register("W-panic", PanicPlanner, no_deadline());
        // One reactor: both connections share the thread the panic hits.
        let (addr, shutdown, metrics, srv, _registry) = start_with(
            MuxConfig {
                threads: 1,
                ..MuxConfig::default()
            },
            registry,
        );
        let connect = || WireClient::connect(addr).expect("connect");
        let mut doomed = connect();
        let mut healthy = connect();
        for id in 0..2u64 {
            doomed.submit("W-panic", &req(id)).expect("submit acked");
            assert_eq!(
                doomed.wait_plan(id).expect("plan reply"),
                PlanResponse::ServiceDied
            );
        }
        for id in 10..13u64 {
            healthy.submit("W-test", &req(id)).expect("submit acked");
            assert!(healthy.wait_plan(id).expect("plan reply").route().is_some());
        }
        // The connection that hit the panic still serves other tenants.
        doomed.submit("W-test", &req(20)).expect("submit acked");
        assert!(doomed.wait_plan(20).expect("plan reply").route().is_some());
        let (m, _) = healthy.metrics("W-test").expect("metrics");
        assert_eq!(m.planned, 4);
        drop((doomed, healthy));
        shutdown.store(true, Ordering::SeqCst);
        srv.join().expect("server thread").expect("serve ok");
        assert_eq!(metrics.snapshot().accepted, 2);
    }
}
