//! The shared ingest front-end: routes framed requests to tenant queues.
//!
//! One [`serve_connection`] call services one client connection over any
//! `Read`/`Write` pair — the in-process [`duplex`] pipe in tests and
//! loadgen, a TCP stream under [`serve_tcp`]. Per connection there are
//! exactly two threads:
//!
//! * the **reader** (the calling thread) decodes frames in order. Submits
//!   are admitted into the addressed tenant's bounded queue and acked
//!   *synchronously, in frame order* — that single property is what pins
//!   admission order (and therefore each tenant's commit order and
//!   committed route set) to the order the client sent its submissions,
//!   making per-tenant backpressure (`SubmitAck::Backpressure` with a
//!   retry hint) an admission-control decision the client observes before
//!   its next frame. Control frames (advance / cancel / metrics) are
//!   answered inline the same way.
//! * the **reply pump** waits on plan tickets strictly in admission order
//!   and streams `PlanReply` frames back as the tenant's worker resolves
//!   them — so a slow plan never blocks the reader from admitting more
//!   work.
//!
//! Both threads share the writer behind a mutex; frames are written
//! atomically, and the client demultiplexes acks from interleaved replies
//! by request id. Frame and byte counts are tallied on the addressed
//! tenant's [`WireTally`](crate::tenant::WireTally).

use crate::service::{SubmitError, Ticket};
use crate::tenant::{Tenant, TenantRegistry};
use crate::wire::frame::{frame_len, read_frame, write_frame, FrameKind, WireError};
use crate::wire::schema::{self, AckStatus, ErrorCode};
use carp_warehouse::request::RequestId;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Per-connection rate limit: a token bucket refilled continuously, spent
/// one token per inbound frame. A throttled submit is refused with
/// [`AckStatus::Throttled`] (carrying a retry hint), a throttled control
/// frame with an [`ErrorCode::Throttled`] error reply — a typed verdict
/// the client can back off on, instead of silent queue pressure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Bucket capacity: the largest instantaneous frame burst allowed.
    pub burst: u32,
    /// Sustained refill rate, frames per second.
    pub per_sec: f64,
}

impl RateLimit {
    /// Floor on the retry hint a throttled verdict carries. Right at a
    /// refill boundary the raw token deficit can round to a zero or
    /// near-zero duration, which a well-behaved client turns into
    /// `sleep(0)` — a hot spin against a daemon that is actively
    /// throttling it. One millisecond is far below any realistic refill
    /// interval, so the clamp never meaningfully over-delays a retry.
    pub const MIN_RETRY_AFTER: Duration = Duration::from_millis(1);
}

pub(crate) struct TokenBucket {
    limit: RateLimit,
    tokens: f64,
    refilled: Instant,
}

impl TokenBucket {
    pub(crate) fn new(limit: RateLimit) -> Self {
        TokenBucket {
            limit,
            tokens: f64::from(limit.burst),
            refilled: Instant::now(),
        }
    }

    /// Take one token, or say how long until one will have refilled.
    pub(crate) fn try_take(&mut self) -> Result<(), Duration> {
        let now = Instant::now();
        let refill = now.duration_since(self.refilled).as_secs_f64() * self.limit.per_sec;
        self.tokens = (self.tokens + refill).min(f64::from(self.limit.burst));
        self.refilled = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - self.tokens;
            // Clamped: a zero/near-zero hint at a refill boundary would
            // have the client spin-retry (see RateLimit::MIN_RETRY_AFTER).
            Err(
                Duration::from_secs_f64(deficit / self.limit.per_sec.max(1e-9))
                    .max(RateLimit::MIN_RETRY_AFTER),
            )
        }
    }
}

/// Serve one client connection until clean EOF (`Ok`) or a protocol /
/// transport error (`Err`). See the module docs for the thread model.
pub fn serve_connection<R: Read, W: Write + Send>(
    registry: &TenantRegistry,
    reader: R,
    writer: W,
) -> Result<(), WireError> {
    serve_connection_limited(registry, reader, writer, None)
}

/// [`serve_connection`] with an optional per-connection rate limit.
pub fn serve_connection_limited<R: Read, W: Write + Send>(
    registry: &TenantRegistry,
    mut reader: R,
    writer: W,
    limit: Option<RateLimit>,
) -> Result<(), WireError> {
    let writer = Arc::new(Mutex::new(writer));
    let (pump_tx, pump_rx) = mpsc::channel::<(Arc<Tenant>, RequestId, Ticket)>();
    let mut bucket = limit.map(TokenBucket::new);
    std::thread::scope(|scope| {
        let pump_writer = Arc::clone(&writer);
        let pump = scope.spawn(move || {
            while let Ok((tenant, rid, ticket)) = pump_rx.recv() {
                let response = ticket.wait();
                let payload = schema::encode_plan_reply(rid, &response);
                let mut w = pump_writer.lock().expect("wire writer lock");
                match write_frame(&mut *w, FrameKind::PlanReply, &payload) {
                    Ok(()) => tenant.wire().frame_sent(frame_len(payload.len())),
                    // Writer broken (client gone): keep draining tickets so
                    // every admitted request still resolves in the tenant.
                    Err(_) => tenant.wire().protocol_error(),
                }
            }
        });
        let outcome = read_loop(registry, &mut reader, &writer, &pump_tx, &mut bucket);
        drop(pump_tx);
        pump.join().expect("reply pump panicked");
        outcome
    })
}

/// Write one daemon → client frame, tallying it on `tenant` when known.
fn send<W: Write>(
    writer: &Mutex<W>,
    tenant: Option<&Tenant>,
    kind: FrameKind,
    payload: &[u8],
) -> Result<(), WireError> {
    let mut w = writer.lock().expect("wire writer lock");
    write_frame(&mut *w, kind, payload)?;
    if let Some(t) = tenant {
        t.wire().frame_sent(frame_len(payload.len()));
    }
    Ok(())
}

fn read_loop<R: Read, W: Write>(
    registry: &TenantRegistry,
    reader: &mut R,
    writer: &Mutex<W>,
    pump: &mpsc::Sender<(Arc<Tenant>, RequestId, Ticket)>,
    bucket: &mut Option<TokenBucket>,
) -> Result<(), WireError> {
    loop {
        let Some((kind, payload)) = read_frame(reader)? else {
            return Ok(()); // clean EOF at a frame boundary
        };
        // Rate limiting is per inbound frame, decided before any tenant
        // queue is consulted: a throttled frame costs the daemon only the
        // decode needed to address the refusal.
        if let Some(retry_after) = bucket.as_mut().and_then(|b| b.try_take().err()) {
            if kind == FrameKind::Submit {
                let (_tenant, request) = schema::decode_submit(&payload)?;
                let ack =
                    schema::encode_submit_ack(request.id, AckStatus::Throttled { retry_after });
                send(writer, None, FrameKind::SubmitAck, &ack)?;
            } else {
                let reply = schema::encode_error_reply(
                    ErrorCode::Throttled,
                    "connection rate limit exceeded",
                );
                send(writer, None, FrameKind::ErrorReply, &reply)?;
            }
            continue;
        }
        let wire_bytes = frame_len(payload.len());
        match kind {
            FrameKind::Submit => {
                let (tenant_id, request) = schema::decode_submit(&payload)?;
                let Some(tenant) = registry.get(tenant_id) else {
                    let ack = schema::encode_submit_ack(request.id, AckStatus::UnknownTenant);
                    send(writer, None, FrameKind::SubmitAck, &ack)?;
                    continue;
                };
                tenant.wire().frame_received(wire_bytes);
                let status = match tenant.client().submit(request) {
                    Ok(ticket) => {
                        // Enqueue the ticket *before* acking: the pump
                        // resolves tickets in admission order either way,
                        // but this keeps "accepted" and "pending reply"
                        // atomic from the client's point of view.
                        pump.send((Arc::clone(&tenant), request.id, ticket))
                            .expect("reply pump outlives the reader");
                        AckStatus::Accepted
                    }
                    Err(SubmitError::Backpressure {
                        retry_after,
                        queue_depth,
                    }) => AckStatus::Backpressure {
                        retry_after,
                        queue_depth,
                    },
                    Err(SubmitError::ShuttingDown) => AckStatus::ShuttingDown,
                };
                let ack = schema::encode_submit_ack(request.id, status);
                send(writer, Some(&tenant), FrameKind::SubmitAck, &ack)?;
            }
            FrameKind::Advance => {
                let (tenant_id, now) = schema::decode_advance(&payload)?;
                let Some(tenant) = lookup(registry, tenant_id, writer)? else {
                    continue;
                };
                tenant.wire().frame_received(wire_bytes);
                let revisions = tenant.client().advance(now);
                let reply = schema::encode_advance_reply(&revisions);
                send(writer, Some(&tenant), FrameKind::AdvanceReply, &reply)?;
            }
            FrameKind::Cancel => {
                let (tenant_id, id) = schema::decode_cancel(&payload)?;
                let Some(tenant) = lookup(registry, tenant_id, writer)? else {
                    continue;
                };
                tenant.wire().frame_received(wire_bytes);
                let ok = tenant.client().cancel(id);
                send(
                    writer,
                    Some(&tenant),
                    FrameKind::CancelReply,
                    &schema::encode_cancel_reply(ok),
                )?;
            }
            FrameKind::MetricsQuery => {
                let tenant_id = schema::decode_metrics_query(&payload)?;
                let Some(tenant) = lookup(registry, tenant_id, writer)? else {
                    continue;
                };
                tenant.wire().frame_received(wire_bytes);
                let metrics = tenant.client().metrics();
                let wire = tenant.wire().snapshot();
                let reply = schema::encode_metrics_reply(&metrics, &wire);
                send(writer, Some(&tenant), FrameKind::MetricsReply, &reply)?;
            }
            // Log tailing is a long-lived push stream; only the mux
            // front-end can interleave pushes with request/reply traffic
            // without a dedicated thread per subscriber. The legacy
            // blocking path refuses the subscription with a typed error
            // and keeps the connection serving requests.
            FrameKind::TailLog => {
                let _from_seq = schema::decode_tail_log(&payload)?;
                let reply = schema::encode_error_reply(
                    ErrorCode::UnexpectedFrame,
                    "log tailing requires the event-loop front-end",
                );
                send(writer, None, FrameKind::ErrorReply, &reply)?;
            }
            // Reply kinds are daemon → client only; a client sending one
            // is confused but not fatal — answer with a typed error.
            FrameKind::SubmitAck
            | FrameKind::PlanReply
            | FrameKind::AdvanceReply
            | FrameKind::CancelReply
            | FrameKind::MetricsReply
            | FrameKind::ErrorReply
            | FrameKind::LogChunk => {
                let reply = schema::encode_error_reply(
                    ErrorCode::UnexpectedFrame,
                    "frame kind is daemon to client only",
                );
                send(writer, None, FrameKind::ErrorReply, &reply)?;
            }
        }
    }
}

/// Resolve a control frame's tenant, answering `ErrorReply` when unknown.
fn lookup<W: Write>(
    registry: &TenantRegistry,
    tenant_id: &str,
    writer: &Mutex<W>,
) -> Result<Option<Arc<Tenant>>, WireError> {
    match registry.get(tenant_id) {
        Some(t) => Ok(Some(t)),
        None => {
            let reply = schema::encode_error_reply(ErrorCode::UnknownTenant, tenant_id);
            send(writer, None, FrameKind::ErrorReply, &reply)?;
            Ok(None)
        }
    }
}

/// Accept TCP connections forever, serving each on its own thread. Returns
/// only when the listener itself fails; per-connection errors are printed
/// to stderr and drop that connection only.
pub fn serve_tcp(listener: TcpListener, registry: Arc<TenantRegistry>) -> std::io::Result<()> {
    serve_tcp_graceful(listener, registry, Arc::new(AtomicBool::new(false)), None)
}

/// [`serve_tcp`] with graceful shutdown and optional per-connection rate
/// limiting. The accept loop polls `shutdown` between accepts (the
/// listener runs non-blocking with a short sleep); once the flag is set it
/// stops accepting and returns `Ok(())` so the caller can drain tenants
/// ([`TenantRegistry::drain_all`](crate::tenant::TenantRegistry::drain_all)),
/// seal the changeset log, and exit cleanly. Connections already accepted
/// run to their own EOF on their own threads.
pub fn serve_tcp_graceful(
    listener: TcpListener,
    registry: Arc<TenantRegistry>,
    shutdown: Arc<AtomicBool>,
    limit: Option<RateLimit>,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let (stream, peer) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        // Accepted sockets inherit non-blocking from the listener on some
        // platforms; connection threads want blocking reads.
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_nodelay(true);
        let registry = Arc::clone(&registry);
        std::thread::Builder::new()
            .name(format!("carp-ingest-{peer}"))
            .spawn(move || {
                let reader = match stream.try_clone() {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("carp-service: {peer}: clone failed: {e}");
                        return;
                    }
                };
                if let Err(e) = serve_connection_limited(&registry, reader, stream, limit) {
                    eprintln!("carp-service: {peer}: {e}");
                }
            })
            .expect("spawn ingest connection thread");
    }
}

/// Serve one connection on a TCP stream (reader/writer halves via
/// `try_clone`). Exposed for tests of the TCP path.
pub fn serve_tcp_connection(registry: &TenantRegistry, stream: TcpStream) -> Result<(), WireError> {
    let reader = stream.try_clone().map_err(WireError::from)?;
    serve_connection(registry, reader, stream)
}

// ------------------------------------------------------ in-process duplex

struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
}

type PipeShared = Arc<(Mutex<PipeState>, Condvar)>;

fn pipe() -> (PipeReader, PipeWriter) {
    let shared: PipeShared = Arc::new((
        Mutex::new(PipeState {
            buf: VecDeque::new(),
            closed: false,
        }),
        Condvar::new(),
    ));
    (
        PipeReader {
            shared: Arc::clone(&shared),
        },
        PipeWriter { shared },
    )
}

/// Read half of an in-process byte pipe; blocking, `Ok(0)` after the write
/// half closes and the buffer drains (standard EOF semantics).
pub struct PipeReader {
    shared: PipeShared,
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let (lock, cv) = &*self.shared;
        let mut st = lock.lock().expect("pipe lock");
        while st.buf.is_empty() && !st.closed {
            st = cv.wait(st).expect("pipe lock");
        }
        if st.buf.is_empty() {
            return Ok(0); // closed and drained: EOF
        }
        let n = st.buf.len().min(out.len());
        for slot in out.iter_mut().take(n) {
            *slot = st.buf.pop_front().expect("len checked");
        }
        Ok(n)
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        let (lock, cv) = &*self.shared;
        lock.lock().expect("pipe lock").closed = true;
        cv.notify_all();
    }
}

/// Write half of an in-process byte pipe; unbounded, never blocks.
pub struct PipeWriter {
    shared: PipeShared,
}

impl Write for PipeWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        let (lock, cv) = &*self.shared;
        let mut st = lock.lock().expect("pipe lock");
        if st.closed {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "pipe reader closed",
            ));
        }
        st.buf.extend(data);
        cv.notify_all();
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        let (lock, cv) = &*self.shared;
        lock.lock().expect("pipe lock").closed = true;
        cv.notify_all();
    }
}

/// An in-process bidirectional byte transport: returns
/// `(client_half, server_half)`, each a `(reader, writer)` pair. The same
/// frames that cross a TCP socket cross this — loadgen and the conformance
/// tests exercise the full wire path without networking.
pub fn duplex() -> ((PipeReader, PipeWriter), (PipeReader, PipeWriter)) {
    let (server_read, client_write) = pipe(); // client → server
    let (client_read, server_write) = pipe(); // server → client
    ((client_read, client_write), (server_read, server_write))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplex_moves_bytes_both_ways_and_eofs() {
        let ((mut cr, mut cw), (mut sr, mut sw)) = duplex();
        cw.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        sr.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        sw.write_all(b"pong").unwrap();
        cr.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
        drop(cw);
        assert_eq!(sr.read(&mut buf).unwrap(), 0); // EOF after close
    }

    #[test]
    fn write_after_reader_drop_is_broken_pipe() {
        let ((cr, _cw), (_sr, mut sw)) = duplex();
        drop(cr);
        let err = sw.write_all(b"x").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
    }
}
