//! One replayed warehouse day: set the daemon up through the public API,
//! drive the day over the wire, tear the daemon down, then gate the output.
//!
//! Only the drive loop is timed as the day. Set-up is timed per step, and
//! the collision audit runs after the daemon is gone, so neither lands in
//! `plans_per_s`.

use crate::shim::{PlanCall, TracedPlanner};
use crate::workload::{Transport, Workload};
use carp_service::ingest::{duplex, serve_connection};
use carp_service::loadgen::LoadScenario;
use carp_service::mux::{serve_tcp_mux, MuxConfig, MuxMetrics};
use carp_service::report::{routes_digest, MuxCounters};
use carp_service::service::{PlanResponse, ServiceConfig};
use carp_service::tenant::{TenantRegistry, WireCounters};
use carp_service::wal::{WalJournal, WalStats};
use carp_service::wire::{WireClient, WireSubmitError};
use carp_simenv::SimConfig;
use carp_srp::{SrpConfig, SrpPlanner, SrpStats};
use carp_warehouse::collision::{validate_routes, Conflict};
use carp_warehouse::planner::{EngineMetrics, Planner};
use carp_warehouse::request::{QueryKind, Request, RequestId};
use carp_warehouse::route::Route;
use carp_warehouse::types::{Cell, Time};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Set-up time of one day, split by step.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// Layout generation plus the day's task stream.
    pub layout_s: f64,
    /// `SrpPlanner::new`: strip extraction (Alg. 1) and the engine.
    pub planner_build_s: f64,
    /// Registry, journal, transport, tenant registration, and one metrics
    /// round trip that proves the connection is served.
    pub daemon_s: f64,
}

impl Setup {
    /// Start of the process-visible day to the first possible submit.
    pub fn total_s(&self) -> f64 {
        self.layout_s + self.planner_build_s + self.daemon_s
    }
}

/// Client-side timestamps of one submitted request, in nanoseconds since
/// the day's epoch.
#[derive(Debug, Clone, Copy)]
pub struct ClientRequest {
    /// Request id.
    pub rid: RequestId,
    /// `WireClient::submit` called.
    pub submit_ns: u64,
    /// `submit` returned with the accept ack.
    pub ack_ns: u64,
    /// `wait_plan` returned the reply.
    pub reply_ns: u64,
    /// The reply carried a route.
    pub planned: bool,
}

/// What the traced run collects on top of a timed day.
#[derive(Debug, Clone)]
pub struct DayTrace {
    /// Worker-side `plan` calls.
    pub plans: Vec<PlanCall>,
    /// Worker-side `advance` calls `(start_ns, end_ns)`.
    pub advances: Vec<(u64, u64)>,
    /// The wrapper's bookkeeping before each `advance`, `(start_ns, end_ns)`.
    pub bookkeeping: Vec<(u64, u64)>,
    /// The planner's counters and Fig. 22(a) time split (`instrument` on).
    pub srp: SrpStats,
    /// Engine counters at the end of the day.
    pub engine: Option<EngineMetrics>,
    /// Peak `memory_bytes`, sampled before each `advance`.
    pub mem_peak_bytes: usize,
    /// Peak stored segments, sampled before each `advance`.
    pub segments_peak: usize,
}

/// Everything one day brings home.
#[derive(Debug, Clone)]
pub struct Day {
    /// Task-stream seed.
    pub seed: u64,
    /// Set-up time by step.
    pub setup: Setup,
    /// Wall seconds of the drive loop.
    pub wall_s: f64,
    /// Every submitted request, in submission order.
    pub requests: Vec<ClientRequest>,
    /// Client-side `advance` round trips `(start_ns, end_ns)`.
    pub client_advances: Vec<(u64, u64)>,
    /// Replies that were refusals (shed or overrun).
    pub refused: u64,
    /// Replies that were `Infeasible`.
    pub infeasible: u64,
    /// Legs given up after the retry budget: the client's failed
    /// operations. A refused or infeasible request whose leg is retried
    /// later is a miss in `served_share`, not a failed operation.
    pub abandoned: u64,
    /// Submissions the daemon turned away with backpressure.
    pub rejected_backpressure: u64,
    /// Latest route end, sim seconds (OG).
    pub makespan: Time,
    /// FNV-1a digest of the final route set.
    pub digest: u64,
    /// First collision among the acked routes, if any.
    pub conflict: Option<Conflict>,
    /// Seconds the batch audit took.
    pub audit_s: f64,
    /// The tenant's wire counters.
    pub wire: WireCounters,
    /// Reactor counters (TCP workloads).
    pub mux: Option<MuxCounters>,
    /// Journal counters after the seal (WAL workloads).
    pub wal: Option<WalStats>,
    /// Traced-run data.
    pub trace: Option<DayTrace>,
}

impl Day {
    /// Requests answered with a route.
    pub fn planned(&self) -> usize {
        self.requests.iter().filter(|r| r.planned).count()
    }
}

/// Replay day `seed` of `workload` with `tasks` tasks (the workload's
/// horizon scales with it, so the arrival density stays). `traced`
/// registers the [`TracedPlanner`] with `SrpConfig::instrument` instead of
/// the bare planner. The journal, if any, lives in `scratch` and is
/// removed afterwards.
pub fn run_day(
    workload: &Workload,
    tasks: u32,
    seed: u64,
    traced: bool,
    scratch: &Path,
) -> Result<Day, String> {
    let epoch = Instant::now();
    let tenant = workload.name;

    // The daemon first: the reactor accepts the connection while the
    // planner builds, so no accept back-off lands in the timed day.
    let registry = Arc::new(TenantRegistry::new());
    let journal = if workload.wal {
        let path = scratch.join(format!("{tenant}-{seed}.wal"));
        let journal = WalJournal::create(&path)
            .map_err(|e| format!("create journal {}: {e}", path.display()))?;
        registry.attach_journal(Arc::clone(&journal));
        Some(journal)
    } else {
        None
    };
    let mut conn = Conn::open(workload.transport, &registry)?;
    let daemon_first = epoch.elapsed().as_secs_f64();

    let t = Instant::now();
    let horizon =
        (u64::from(workload.horizon) * u64::from(tasks) / u64::from(workload.tasks)) as Time;
    let scenario = LoadScenario::new(
        tenant,
        workload.preset.layout(),
        tasks,
        horizon,
        workload.rate,
        seed,
    );
    let layout_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let config = SrpConfig {
        instrument: traced,
        ..SrpConfig::default()
    };
    let planner = SrpPlanner::new(scenario.layout.matrix.clone(), config);
    let planner_build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let service = ServiceConfig {
        queue_capacity: 4096,
        deadline: None,
        workers: 1,
        ..ServiceConfig::default()
    };
    if traced {
        registry.register(tenant, TracedPlanner::new(planner, epoch), service);
    } else {
        registry.register(tenant, planner, service);
    }
    conn.probe(tenant)?;
    let setup = Setup {
        layout_s,
        planner_build_s,
        daemon_s: daemon_first + t.elapsed().as_secs_f64(),
    };

    let drive = match &mut conn {
        Conn::Duplex { client, .. } => drive(&scenario, client, epoch)?,
        Conn::Tcp { client, .. } => drive(&scenario, client, epoch)?,
    };
    let (metrics, wire) = conn.metrics(tenant)?;
    let mux = conn.close()?;

    let planner = registry
        .remove(tenant)
        .ok_or_else(|| format!("tenant {tenant} vanished"))?;
    let wal = journal.map(|j| {
        j.seal();
        let stats = j.stats();
        let _ = std::fs::remove_file(j.path());
        stats
    });
    let trace = if traced {
        let mut shim = planner
            .downcast::<TracedPlanner>()
            .map_err(|_| "traced tenant holds another planner type".to_string())?;
        shim.finish();
        Some(DayTrace {
            srp: shim.inner().stats,
            engine: shim.engine_metrics(),
            mem_peak_bytes: shim.mem_peak_bytes,
            segments_peak: shim.segments_peak,
            plans: shim.plans,
            advances: shim.advances,
            bookkeeping: shim.bookkeeping,
        })
    } else {
        None
    };

    // The correctness gate, outside the timed day.
    let t = Instant::now();
    let conflict = audit(&drive.routes);
    let audit_s = t.elapsed().as_secs_f64();

    Ok(Day {
        seed,
        setup,
        wall_s: drive.wall_s,
        digest: routes_digest(&drive.routes),
        requests: drive.requests,
        client_advances: drive.advances,
        refused: drive.refused,
        infeasible: drive.infeasible,
        abandoned: drive.abandoned,
        rejected_backpressure: metrics.rejected_backpressure,
        makespan: drive.makespan,
        conflict,
        audit_s,
        wire,
        mux,
        wal,
        trace,
    })
}

/// Batch collision audit of every acked route and revision: the first
/// conflict, or `None` when the set is collision-free.
pub fn audit(routes: &HashMap<RequestId, Route>) -> Option<Conflict> {
    let routes: Vec<Route> = routes.values().cloned().collect();
    validate_routes(&routes)
}

/// The client's end of the daemon, with whatever serves it.
enum Conn {
    Duplex {
        client: WireClient<carp_service::ingest::PipeReader, carp_service::ingest::PipeWriter>,
        server: JoinHandle<Result<(), carp_service::wire::WireError>>,
    },
    Tcp {
        client: WireClient<TcpStream, TcpStream>,
        server: JoinHandle<std::io::Result<()>>,
        shutdown: Arc<AtomicBool>,
        metrics: Arc<MuxMetrics>,
    },
}

impl Conn {
    fn open(transport: Transport, registry: &Arc<TenantRegistry>) -> Result<Conn, String> {
        match transport {
            Transport::Duplex => {
                let ((client_read, client_write), (server_read, server_write)) = duplex();
                let registry = Arc::clone(registry);
                let server = std::thread::Builder::new()
                    .name("daybench-ingest".into())
                    .spawn(move || serve_connection(&registry, server_read, server_write))
                    .map_err(|e| format!("spawn ingest thread: {e}"))?;
                Ok(Conn::Duplex {
                    client: WireClient::new(client_read, client_write),
                    server,
                })
            }
            Transport::TcpMux => {
                let listener =
                    TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
                let addr = listener
                    .local_addr()
                    .map_err(|e| format!("local addr: {e}"))?;
                let shutdown = Arc::new(AtomicBool::new(false));
                let metrics = Arc::new(MuxMetrics::default());
                let server = {
                    let registry = Arc::clone(registry);
                    let shutdown = Arc::clone(&shutdown);
                    let metrics = Arc::clone(&metrics);
                    let config = MuxConfig {
                        threads: 1,
                        ..MuxConfig::default()
                    };
                    std::thread::Builder::new()
                        .name("daybench-mux".into())
                        .spawn(move || serve_tcp_mux(listener, registry, shutdown, config, metrics))
                        .map_err(|e| format!("spawn mux server: {e}"))?
                };
                let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
                stream
                    .set_nodelay(true)
                    .map_err(|e| format!("nodelay: {e}"))?;
                let reader = stream
                    .try_clone()
                    .map_err(|e| format!("clone socket: {e}"))?;
                Ok(Conn::Tcp {
                    client: WireClient::new(reader, stream),
                    server,
                    shutdown,
                    metrics,
                })
            }
        }
    }

    /// One metrics round trip: the daemon has accepted the connection and
    /// knows the tenant.
    fn probe(&mut self, tenant: &str) -> Result<(), String> {
        self.metrics(tenant).map(|_| ())
    }

    fn metrics(
        &mut self,
        tenant: &str,
    ) -> Result<(carp_service::service::ServiceMetrics, WireCounters), String> {
        match self {
            Conn::Duplex { client, .. } => client.metrics(tenant),
            Conn::Tcp { client, .. } => client.metrics(tenant),
        }
        .map_err(|e| format!("metrics query: {e}"))
    }

    /// Hang up and stop the server; the reactor's counters for TCP.
    fn close(self) -> Result<Option<MuxCounters>, String> {
        match self {
            Conn::Duplex { client, server } => {
                drop(client);
                server
                    .join()
                    .map_err(|_| "ingest thread panicked".to_string())?
                    .map_err(|e| format!("connection ended with an error: {e}"))?;
                Ok(None)
            }
            Conn::Tcp {
                client,
                server,
                shutdown,
                metrics,
            } => {
                drop(client);
                shutdown.store(true, Ordering::SeqCst);
                server
                    .join()
                    .map_err(|_| "mux server panicked".to_string())?
                    .map_err(|e| format!("mux server failed: {e}"))?;
                Ok(Some(metrics.snapshot()))
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Arrive {
        task: usize,
    },
    Leg {
        task: usize,
        robot: usize,
        kind: QueryKind,
        attempt: u32,
    },
    Complete {
        robot: usize,
    },
}

/// The event queue in the simulator's order: time, then insertion.
#[derive(Default)]
struct Agenda {
    heap: BinaryHeap<Reverse<(Time, usize)>>,
    events: Vec<Event>,
}

impl Agenda {
    fn push(&mut self, t: Time, e: Event) {
        self.heap.push(Reverse((t, self.events.len())));
        self.events.push(e);
    }

    fn next_time(&self) -> Option<Time> {
        self.heap.peek().map(|&Reverse((t, _))| t)
    }

    /// The next event if it is due at `now`.
    fn pop_at(&mut self, now: Time) -> Option<Event> {
        match self.heap.peek() {
            Some(&Reverse((t, idx))) if t == now => {
                self.heap.pop();
                Some(self.events[idx])
            }
            _ => None,
        }
    }
}

struct Robot {
    pos: Cell,
    busy: bool,
}

/// What the drive loop saw.
struct Drive {
    wall_s: f64,
    requests: Vec<ClientRequest>,
    advances: Vec<(u64, u64)>,
    routes: HashMap<RequestId, Route>,
    makespan: Time,
    refused: u64,
    infeasible: u64,
    abandoned: u64,
}

/// The three-leg day (pickup → transmission → return, nearest free robot,
/// retry on refusal) in lockstep bursts, over `client`.
fn drive<R: Read, W: Write>(
    scenario: &LoadScenario,
    client: &mut WireClient<R, W>,
    epoch: Instant,
) -> Result<Drive, String> {
    let sim = SimConfig::default();
    let tenant = scenario.name.as_str();
    let tasks = &scenario.tasks;
    let ns = || epoch.elapsed().as_nanos() as u64;

    let mut robots: Vec<Robot> = scenario
        .layout
        .robot_spawns
        .iter()
        .map(|&pos| Robot { pos, busy: false })
        .collect();
    let mut agenda = Agenda::default();
    for (i, task) in tasks.iter().enumerate() {
        agenda.push(task.arrival, Event::Arrive { task: i });
    }
    let mut waiting: VecDeque<usize> = VecDeque::new();
    let mut out = Drive {
        wall_s: 0.0,
        requests: Vec::with_capacity(tasks.len() * 3),
        advances: Vec::new(),
        routes: HashMap::new(),
        makespan: 0,
        refused: 0,
        infeasible: 0,
        abandoned: 0,
    };
    let mut next_rid: RequestId = 0;
    let mut burst: Vec<(usize, usize, usize, QueryKind, u32)> = Vec::new();

    let start = Instant::now();
    while let Some(now) = agenda.next_time() {
        let adv_start = ns();
        let revisions = client
            .advance(tenant, now)
            .map_err(|e| format!("advance: {e}"))?;
        out.advances.push((adv_start, ns()));
        for (rid, route) in revisions {
            out.makespan = out.makespan.max(route.finish_exclusive());
            out.routes.insert(rid, route);
        }

        burst.clear();
        while let Some(event) = agenda.pop_at(now) {
            match event {
                Event::Arrive { task } => match nearest_free(&robots, tasks[task].rack) {
                    Some(r) => {
                        robots[r].busy = true;
                        let leg = Event::Leg {
                            task,
                            robot: r,
                            kind: QueryKind::Pickup,
                            attempt: 0,
                        };
                        agenda.push(now, leg);
                    }
                    None => waiting.push_back(task),
                },
                Event::Complete { robot } => {
                    robots[robot].busy = false;
                    if let Some(task) = waiting.pop_front() {
                        match nearest_free(&robots, tasks[task].rack) {
                            Some(r) => {
                                robots[r].busy = true;
                                let leg = Event::Leg {
                                    task,
                                    robot: r,
                                    kind: QueryKind::Pickup,
                                    attempt: 0,
                                };
                                agenda.push(now, leg);
                            }
                            None => waiting.push_front(task),
                        }
                    }
                }
                Event::Leg {
                    task,
                    robot,
                    kind,
                    attempt,
                } => {
                    let t = tasks[task];
                    let (origin, destination) = match kind {
                        QueryKind::Pickup => (robots[robot].pos, t.rack),
                        QueryKind::Transmission => (t.rack, t.picker),
                        QueryKind::Return => (t.picker, t.rack),
                    };
                    let rid = next_rid;
                    next_rid += 1;
                    let request = Request::new(rid, now, origin, destination, kind);
                    let submit_ns = ns();
                    loop {
                        match client.submit(tenant, &request) {
                            Ok(()) => break,
                            Err(WireSubmitError::Backpressure { retry_after, .. })
                            | Err(WireSubmitError::Throttled { retry_after }) => {
                                std::thread::sleep(retry_after)
                            }
                            Err(e) => return Err(format!("submit {rid}: {e}")),
                        }
                    }
                    out.requests.push(ClientRequest {
                        rid,
                        submit_ns,
                        ack_ns: ns(),
                        reply_ns: 0,
                        planned: false,
                    });
                    burst.push((out.requests.len() - 1, task, robot, kind, attempt));
                }
            }
        }

        for &(slot, task, robot, kind, attempt) in &burst {
            let rid = out.requests[slot].rid;
            let response = client
                .wait_plan(rid)
                .map_err(|e| format!("reply {rid}: {e}"))?;
            out.requests[slot].reply_ns = ns();
            match response {
                PlanResponse::Planned(route) => {
                    out.requests[slot].planned = true;
                    out.makespan = out.makespan.max(route.finish_exclusive());
                    let end = route.end_time();
                    out.routes.insert(rid, route);
                    let t = tasks[task];
                    let next = match kind {
                        QueryKind::Pickup => {
                            robots[robot].pos = t.rack;
                            Some(QueryKind::Transmission)
                        }
                        QueryKind::Transmission => {
                            robots[robot].pos = t.picker;
                            Some(QueryKind::Return)
                        }
                        QueryKind::Return => {
                            robots[robot].pos = t.rack;
                            None
                        }
                    };
                    match next {
                        Some(kind) => {
                            let leg = Event::Leg {
                                task,
                                robot,
                                kind,
                                attempt: 0,
                            };
                            agenda.push(end + sim.service_time, leg);
                        }
                        None => agenda.push(end, Event::Complete { robot }),
                    }
                }
                PlanResponse::ServiceDied => return Err(format!("service died planning {rid}")),
                response => {
                    if response.is_refusal() {
                        out.refused += 1;
                    } else {
                        out.infeasible += 1;
                    }
                    if attempt < sim.max_retries {
                        let leg = Event::Leg {
                            task,
                            robot,
                            kind,
                            attempt: attempt + 1,
                        };
                        agenda.push(now + sim.retry_delay, leg);
                    } else {
                        out.abandoned += 1;
                        robots[robot].busy = false;
                    }
                }
            }
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    Ok(out)
}

fn nearest_free(robots: &[Robot], target: Cell) -> Option<usize> {
    robots
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.busy)
        .min_by_key(|(_, r)| r.pos.manhattan(target))
        .map(|(i, _)| i)
}
