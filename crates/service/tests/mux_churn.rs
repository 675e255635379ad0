//! Connection-churn harness for the event-loop wire front-end.
//!
//! Spins the mux daemon on loopback and hammers it with 200+ concurrent
//! client sockets driven from a handful of threads, each following a
//! seeded, deterministic schedule of connects, submit bursts, slow reads,
//! pipelined bursts, and abrupt disconnects (sockets dropped with plan
//! replies still owed). The properties pinned:
//!
//! * **Per-connection ack ordering** — submit acks arrive in frame order
//!   on every connection, even when many submits are pipelined before the
//!   first ack is read ([`WireClient`] additionally hard-errors on any
//!   out-of-order ack in the request/reply paths).
//! * **No fd leaks** — after every client socket is dropped, the process
//!   fd count returns to the pre-churn baseline and the reactor registry
//!   drains to zero; torn frames and abrupt disconnects must reap, not
//!   wedge.
//! * **Digest conformance** — each tenant's committed route set is
//!   bit-identical to the same submissions driven over a single
//!   connection: admission interleaving across connections must be
//!   invisible to per-tenant outcomes (routes here are a pure function of
//!   the request id).
#![cfg(unix)]

use carp_service::report::routes_digest;
use carp_service::service::ServiceConfig;
use carp_service::tenant::TenantRegistry;
use carp_service::wire::{
    read_frame, schema, write_frame, AckStatus, FrameKind, WireClient, WireSubmitError,
};
use carp_service::{serve_tcp_mux, MuxConfig, MuxMetrics, PlanResponse};
use carp_warehouse::planner::{PlanOutcome, Planner};
use carp_warehouse::request::{QueryKind, Request, RequestId};
use carp_warehouse::route::Route;
use carp_warehouse::types::Cell;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

const THREADS: usize = 8;
const CLIENTS_PER_THREAD: usize = 26; // 208 concurrent sockets
const ROUNDS: usize = 40;
const TENANTS: [&str; 2] = ["churn-a", "churn-b"];

/// Route depends on the request id alone, so a tenant's committed set —
/// and therefore its digest — is a function of *which* requests were
/// admitted, never of how connections interleaved.
fn route_for(id: RequestId) -> Route {
    Route::stationary(0, Cell::new((id % 97) as u16, ((id / 97) % 97) as u16))
}

fn req_for(id: RequestId) -> Request {
    let c = Cell::new((id % 97) as u16, ((id / 97) % 97) as u16);
    Request::new(id, 0, c, c, QueryKind::Pickup)
}

/// Planner stub that mirrors every commit into a shared log the test can
/// read back after the daemon drains.
#[derive(Clone)]
struct LogPlanner {
    committed: Arc<Mutex<BTreeMap<RequestId, Route>>>,
}

impl LogPlanner {
    fn new() -> (Self, Arc<Mutex<BTreeMap<RequestId, Route>>>) {
        let log = Arc::new(Mutex::new(BTreeMap::new()));
        (
            LogPlanner {
                committed: Arc::clone(&log),
            },
            log,
        )
    }
}

impl Planner for LogPlanner {
    fn name(&self) -> &'static str {
        "churn-stub"
    }
    fn plan(&mut self, req: &Request) -> PlanOutcome {
        let route = route_for(req.id);
        self.committed
            .lock()
            .expect("commit log lock")
            .insert(req.id, route.clone());
        PlanOutcome::Planned(route)
    }
    fn cancel(&mut self, id: RequestId) -> bool {
        self.committed
            .lock()
            .expect("commit log lock")
            .remove(&id)
            .is_some()
    }
    fn memory_bytes(&self) -> usize {
        0
    }
}

struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<MuxMetrics>,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
    logs: [Arc<Mutex<BTreeMap<RequestId, Route>>>; 2],
}

fn start_server() -> Server {
    let registry = Arc::new(TenantRegistry::new());
    let cfg = ServiceConfig {
        deadline: None,
        ..ServiceConfig::default()
    };
    let (pa, la) = LogPlanner::new();
    let (pb, lb) = LogPlanner::new();
    registry.register(TENANTS[0], pa, cfg);
    registry.register(TENANTS[1], pb, cfg);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let shutdown = Arc::new(AtomicBool::new(false));
    let metrics = Arc::new(MuxMetrics::default());
    let handle = {
        let registry = Arc::clone(&registry);
        let shutdown = Arc::clone(&shutdown);
        let metrics = Arc::clone(&metrics);
        let config = MuxConfig {
            threads: 2,
            ..MuxConfig::default()
        };
        std::thread::spawn(move || serve_tcp_mux(listener, registry, shutdown, config, metrics))
    };
    Server {
        addr,
        shutdown,
        metrics,
        handle,
        logs: [la, lb],
    }
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd readable")
        .count()
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

/// One held-open socket plus its private request-id arena.
struct Slot {
    stream: TcpStream,
    tenant: usize,
    base: u64,
    seq: u64,
}

impl Slot {
    fn fresh_id(&mut self) -> u64 {
        let id = self.base + self.seq;
        self.seq += 1;
        id
    }
    fn client(&self) -> WireClient<TcpStream, TcpStream> {
        WireClient::new(
            self.stream.try_clone().expect("clone read half"),
            self.stream.try_clone().expect("clone write half"),
        )
    }
}

/// Submit `n` requests one at a time (each ack read synchronously), then
/// collect every plan reply — optionally after a deliberate slow-read nap
/// with replies already queued server-side.
fn burst(slot: &mut Slot, n: usize, nap: Option<Duration>, accepted: &mut [Vec<u64>; 2]) {
    let mut client = slot.client();
    let tenant = TENANTS[slot.tenant];
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        let id = slot.fresh_id();
        loop {
            match client.submit(tenant, &req_for(id)) {
                Ok(()) => break,
                Err(WireSubmitError::Backpressure { retry_after, .. })
                | Err(WireSubmitError::Throttled { retry_after }) => {
                    std::thread::sleep(retry_after)
                }
                Err(e) => panic!("churn submit refused: {e}"),
            }
        }
        accepted[slot.tenant].push(id);
        ids.push(id);
    }
    if let Some(nap) = nap {
        // Slow reader: replies pile into the reactor's write buffer (and
        // the socket) while this client sleeps; nothing may block on it.
        std::thread::sleep(nap);
    }
    for id in ids {
        match client.wait_plan(id).expect("plan reply") {
            PlanResponse::Planned(route) => assert_eq!(route, route_for(id), "route is f(id)"),
            other => panic!("stub planner refused request {id}: {other:?}"),
        }
    }
}

/// Pipeline `n` submit frames back-to-back before reading anything, then
/// assert the acks come back in exactly the submission order. Plan replies
/// interleave freely and are left unread — the caller drops the socket
/// abruptly afterwards, which is the torn-teardown path the reactor must
/// reap without wedging.
fn pipelined_burst(slot: &mut Slot, n: usize, accepted: &mut [Vec<u64>; 2]) {
    let tenant = TENANTS[slot.tenant];
    let mut writer = slot.stream.try_clone().expect("clone write half");
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        let id = slot.fresh_id();
        let payload = schema::encode_submit(tenant, &req_for(id));
        write_frame(&mut writer, FrameKind::Submit, &payload).expect("pipelined submit");
        ids.push(id);
    }
    let mut reader = slot.stream.try_clone().expect("clone read half");
    let mut acked = Vec::with_capacity(n);
    while acked.len() < n {
        let (kind, payload) = read_frame(&mut reader)
            .expect("frame after pipelined burst")
            .expect("connection open");
        match kind {
            FrameKind::SubmitAck => {
                let (id, status) = schema::decode_submit_ack(&payload).expect("ack decodes");
                if matches!(status, AckStatus::Accepted) {
                    accepted[slot.tenant].push(id);
                }
                acked.push(id);
            }
            FrameKind::PlanReply => {} // commit-order stream; ignored here
            other => panic!("unexpected frame kind {other:?} during pipelined burst"),
        }
    }
    assert_eq!(
        acked, ids,
        "submit acks must arrive in per-connection frame order"
    );
}

fn churn_thread(
    addr: SocketAddr,
    t: usize,
    ready: Arc<Barrier>,
) -> std::thread::JoinHandle<[Vec<u64>; 2]> {
    std::thread::Builder::new()
        .name(format!("churn-{t}"))
        .spawn(move || {
            let mut rng = StdRng::seed_from_u64(0xC0FFEE + t as u64);
            let mut slots: Vec<Slot> = (0..CLIENTS_PER_THREAD)
                .map(|s| {
                    let global = t * CLIENTS_PER_THREAD + s;
                    Slot {
                        stream: connect(addr),
                        tenant: (t + s) % TENANTS.len(),
                        base: global as u64 * 100_000,
                        seq: 0,
                    }
                })
                .collect();
            // Every socket in the fleet is open before any schedule runs.
            ready.wait();
            let mut accepted: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
            for _ in 0..ROUNDS {
                let i = rng.gen_range(0..slots.len());
                let slot = &mut slots[i];
                match rng.gen_range(0..4u8) {
                    0 => burst(slot, rng.gen_range(1..=3), None, &mut accepted),
                    1 => {
                        let nap = Duration::from_millis(rng.gen_range(1..=5));
                        burst(slot, rng.gen_range(1..=3), Some(nap), &mut accepted);
                    }
                    2 => {
                        pipelined_burst(slot, rng.gen_range(2..=4), &mut accepted);
                        // Abrupt teardown with plan replies still owed.
                        slot.stream = connect(addr);
                    }
                    _ => {
                        // Connect churn: drop a quiescent socket, reconnect.
                        slot.stream = connect(addr);
                    }
                }
            }
            accepted
        })
        .expect("spawn churn thread")
}

/// Replay `ids` (ascending) for one tenant over a single connection against
/// a fresh daemon and return the resulting commit log.
fn single_connection_digest(ids: &[u64], tenant_idx: usize) -> u64 {
    let server = start_server();
    let mut client = {
        let stream = connect(server.addr);
        WireClient::new(stream.try_clone().expect("clone"), stream)
    };
    for &id in ids {
        loop {
            match client.submit(TENANTS[tenant_idx], &req_for(id)) {
                Ok(()) => break,
                Err(WireSubmitError::Backpressure { retry_after, .. }) => {
                    std::thread::sleep(retry_after)
                }
                Err(e) => panic!("reference submit refused: {e}"),
            }
        }
        assert!(
            client
                .wait_plan(id)
                .expect("reference plan reply")
                .route()
                .is_some(),
            "reference run plans request {id}"
        );
    }
    drop(client);
    server.shutdown.store(true, Ordering::SeqCst);
    server
        .handle
        .join()
        .expect("reference server thread")
        .expect("reference server exits clean");
    let log = server.logs[tenant_idx].lock().expect("log lock").clone();
    routes_digest(&log.into_iter().collect::<HashMap<_, _>>())
}

/// Capture the process fd count once the daemon is fully up: the reactor
/// threads open their wake pipes asynchronously after `serve_tcp_mux` is
/// spawned, so a warm-up round-trip plus a stability window keeps those
/// out of the leak accounting.
fn settled_fd_baseline(server: &Server) -> usize {
    {
        let stream = connect(server.addr);
        let mut client = WireClient::new(stream.try_clone().expect("clone"), stream);
        client
            .submit(TENANTS[0], &req_for(99_999_999))
            .expect("warm-up submit");
        client.wait_plan(99_999_999).expect("warm-up plan");
        // Cancel the warm-up request so its route leaves the commit log and
        // the digest comparison below sees only churn traffic.
        let cancelled = client
            .cancel(TENANTS[0], 99_999_999)
            .expect("warm-up cancel");
        assert!(cancelled, "stub planner acknowledges the warm-up cancel");
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut last = open_fds();
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let now = open_fds();
        if now == last && server.metrics.snapshot().registered == 0 {
            return now;
        }
        last = now;
        assert!(Instant::now() < deadline, "fd count never settled");
    }
}

#[test]
fn two_hundred_churning_connections_stay_ordered_leak_free_and_deterministic() {
    let server = start_server();
    let fd_baseline = settled_fd_baseline(&server);

    let ready = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| churn_thread(server.addr, t, Arc::clone(&ready)))
        .collect();
    let mut accepted: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    for h in handles {
        let per_thread = h.join().expect("churn thread panicked");
        for (tenant, ids) in per_thread.into_iter().enumerate() {
            accepted[tenant].extend(ids);
        }
    }
    assert!(
        accepted[0].len() + accepted[1].len() >= 200,
        "churn actually submitted work: {} + {} accepted",
        accepted[0].len(),
        accepted[1].len()
    );

    // Every client socket is dropped; the reactors must reap each one —
    // including those torn down with replies still owed — and the process
    // must shed every churn fd.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let counters = server.metrics.snapshot();
        if counters.registered == 0 && open_fds() <= fd_baseline {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "fd leak: {} registered conns, {} fds open (baseline {})",
            counters.registered,
            open_fds(),
            fd_baseline
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let counters = server.metrics.snapshot();
    assert!(
        counters.accepted >= (THREADS * CLIENTS_PER_THREAD) as u64,
        "every fleet socket was accepted (saw {})",
        counters.accepted
    );

    // Seal the churn daemon and read each tenant's committed set.
    server.shutdown.store(true, Ordering::SeqCst);
    server
        .handle
        .join()
        .expect("mux server thread")
        .expect("mux server exits clean");

    for (tenant_idx, ids) in accepted.iter_mut().enumerate() {
        ids.sort_unstable();
        let dupes = ids.windows(2).any(|w| w[0] == w[1]);
        assert!(!dupes, "request ids are globally unique per tenant");
        let log = server.logs[tenant_idx].lock().expect("log lock").clone();
        let committed_ids: Vec<u64> = log.keys().copied().collect();
        assert_eq!(
            committed_ids, *ids,
            "tenant {} committed exactly the accepted requests",
            TENANTS[tenant_idx]
        );
        let churn_digest = routes_digest(&log.into_iter().collect::<HashMap<_, _>>());
        let solo_digest = single_connection_digest(ids, tenant_idx);
        assert_eq!(
            churn_digest, solo_digest,
            "tenant {} digest must be bit-identical to a single-connection run",
            TENANTS[tenant_idx]
        );
    }
}

/// Regression: a peer that vanishes with an RST *after* its read side was
/// already severed (garbage frame → `read_closed`) and with replies still
/// owed — sitting in the connection's write buffer because the peer never
/// read them — used to be unreapable: `POLLERR`/`POLLHUP` matched no event
/// arm, so every `poll(2)` re-reported the dead socket (busy loop) and the
/// connection pinned its fd until the buffer drained, which a peer that
/// never reads defers forever. The reactor must instead reap it the
/// moment the transport is gone both ways. With replies buffered, Linux
/// also reports `POLLOUT` after the RST and the failing flush reaps the
/// connection too, so this pins the outcome rather than that one arm.
#[test]
fn reset_after_read_close_with_owed_reply_is_reaped_not_wedged() {
    use std::io::Write;

    let registry = Arc::new(TenantRegistry::new());
    let (planner, _log) = LogPlanner::new();
    let cfg = ServiceConfig {
        deadline: None,
        ..ServiceConfig::default()
    };
    registry.register("owed", planner, cfg);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let shutdown = Arc::new(AtomicBool::new(false));
    let metrics = Arc::new(MuxMetrics::default());
    let handle = {
        let registry = Arc::clone(&registry);
        let shutdown = Arc::clone(&shutdown);
        let metrics = Arc::clone(&metrics);
        let config = MuxConfig {
            threads: 1,
            ..MuxConfig::default()
        };
        std::thread::spawn(move || serve_tcp_mux(listener, registry, shutdown, config, metrics))
    };

    // Settle the fd baseline. The reactor threads open their wake pipes
    // asynchronously after `serve_tcp_mux` is spawned, so a warm-up
    // round-trip plus a stability window keeps those out of the leak
    // accounting.
    {
        let stream = connect(addr);
        let mut client = WireClient::new(stream.try_clone().expect("clone"), stream);
        client.metrics("owed").expect("warm-up metrics round-trip");
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut fd_baseline = open_fds();
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let now = open_fds();
        if now == fd_baseline && metrics.snapshot().registered == 0 {
            break;
        }
        fd_baseline = now;
        assert!(Instant::now() < deadline, "fd count never settled");
    }

    let stream = connect(addr);
    let mut writer = stream.try_clone().expect("clone write half");

    // Pipeline submits without reading a single reply, one batch at a time,
    // each batch decoded before the next is sent, until the reactor's
    // writes to us would block: from then on replies sit in the
    // connection's write buffer, owed, and the buffer stays far below the
    // size at which the reactor stops reading.
    let frames_before = metrics.snapshot().frames_in;
    let mut sent = 0u64;
    let deadline = Instant::now() + Duration::from_secs(20);
    while metrics.snapshot().partial_writes == 0 {
        let mut batch = Vec::new();
        for _ in 0..64 {
            let payload = schema::encode_submit("owed", &req_for(sent));
            write_frame(&mut batch, FrameKind::Submit, &payload).expect("encode submit");
            sent += 1;
        }
        writer.write_all(&batch).expect("pipelined submits");
        while metrics.snapshot().frames_in < frames_before + sent {
            assert!(Instant::now() < deadline, "submits never decoded");
            std::thread::yield_now();
        }
        assert!(
            Instant::now() < deadline,
            "the reactor's writes never backed up"
        );
    }

    // Garbage after the valid frames: the reactor severs the read side
    // (`read_closed`) but keeps the connection registered for the owed
    // replies — the exact state the bug needed.
    writer
        .write_all(b"garbage, not a CARP frame")
        .expect("garbage");
    // Give the reactor a moment to consume the garbage and sever reads.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        metrics.snapshot().registered,
        1,
        "the connection still owes replies"
    );

    // Abrupt close with unread replies still in our receive buffer: the
    // kernel turns that into an RST, and the server socket reports
    // `POLLERR`/`POLLHUP` from then on.
    drop(writer);
    drop(stream);

    // The replies are still owed, yet the reactor must reap the
    // connection and shed its fd — the transport is gone both ways.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let counters = metrics.snapshot();
        if counters.registered == 0 && open_fds() <= fd_baseline {
            break;
        }
        let listing: Vec<String> = std::fs::read_dir("/proc/self/fd")
            .expect("/proc/self/fd readable")
            .map(|e| {
                let e = e.expect("fd entry");
                let target = std::fs::read_link(e.path())
                    .map(|p| p.display().to_string())
                    .unwrap_or_default();
                format!("{}→{}", e.file_name().to_string_lossy(), target)
            })
            .collect();
        assert!(
            Instant::now() < deadline,
            "dead conn never reaped: {} registered, {} fds (baseline {}): {listing:?}",
            counters.registered,
            open_fds(),
            fd_baseline
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    shutdown.store(true, Ordering::SeqCst);
    handle
        .join()
        .expect("mux server thread")
        .expect("mux server exits clean");
}
