//! The simulation world: the hosts, the wire between them, and the event
//! loop that drives every pipeline stage of the paper's Fig. 1. By default
//! two hosts sit back-to-back on a point-to-point [`Link`] (the paper's
//! testbed); configuring [`SimConfig::fabric`] instead puts N hosts behind
//! a ToR switch model ([`crate::fabric::Fabric`]) for incast experiments.
//!
//! # Execution model
//!
//! Cores execute *steps*: a step is one scheduling quantum of a context
//! (one NAPI sub-batch for the softirq, one syscall's worth of work for an
//! application thread). `Dispatch` picks the next context via
//! [`hns_sched::Scheduler`], executes its step immediately (mutating world
//! state and charging cycles), and schedules `StepDone` after the step's
//! simulated duration; `StepDone` requeues or blocks the context and
//! dispatches again. All side effects apply at step start; the step's
//! cycle cost is what occupies the core.
//!
//! Packets move as whole frames: the sender path enqueues post-TSO frames
//! on the NIC [`TxArbiter`]; `TxDrain` serializes them onto the [`Link`];
//! `FrameArrive` lands them in an Rx descriptor, DMAs them (into the DCA
//! cache when eligible), and raises an IRQ subject to NAPI masking.

use hns_mem::numa::MemClass;
use hns_mem::pages_for;
use hns_metrics::{Category, DropStats, LatencyStats, Report, SideReport};
use hns_nic::link::TransmitOutcome;
use hns_nic::tso;
use hns_nic::{Link, TxArbiter};
use hns_proto::{FlowId, Segment, SegmentKind, HEADER_BYTES};
use hns_sched::Task;
use hns_sim::{cycles_to_time, Duration, EventQueue, PendingFire, SimTime};
use hns_trace::{StageId, TraceCollector};

use crate::app::{AppInstance, AppSpec};
use crate::config::SimConfig;
use crate::costs::CostModel;
use crate::datapath::{datapath_for, Datapath};
use crate::fabric::{Fabric, FabricConfig, MAX_HOSTS};
use crate::flow::{Flow, FlowSpec};
use crate::host::{Host, PendingFrame};
use crate::skb::RxSkb;
use crate::watchdog::{RunError, RunErrorKind, Snapshot, StuckFlow};

/// Simulation events.
#[derive(Clone, Copy, Debug)]
enum Event {
    /// Try to run something on (host, core).
    Dispatch { host: u8, core: u16 },
    /// The running step on (host, core) completed.
    StepDone { host: u8, core: u16 },
    /// The NIC of `host` pulls the next frame from its Tx queues.
    TxDrain { host: u8 },
    /// A frame arrives at the NIC of `dst`; its segment waits in
    /// [`SegmentSlab`] slot `slot`.
    FrameArrive { dst: u8, slot: u32 },
    /// IRQ delivery to (host, core).
    Irq { host: u8, core: u16 },
    /// Retransmission timer check for a flow.
    Rto { flow: u32, deadline: SimTime },
    /// Delayed-ACK flush timer for a flow's receiver.
    DelAck { flow: u32 },
    /// BBR pacing timer fired for a flow.
    PacerFire { flow: u32 },
    /// An open-loop client's next Poisson request arrival.
    OpenLoopArrival { app: u32 },
    /// Periodic receive-buffer auto-tuning + housekeeping.
    AutotuneTick,
    /// Warmup over: reset measurement state.
    EndWarmup,
    /// Measurement over: stop.
    EndRun,
    /// A fault schedule crosses a window boundary: reconcile its state.
    FaultTick { kind: FaultKind },
    /// An open-loop connection arrival (churn workloads).
    ConnArrival,
    /// A connection's client-side retransmit timer fired. Stale unless
    /// `deadline` still matches the record's armed deadline.
    ConnTimer { conn: u64, deadline: SimTime },
    /// Periodic TIME_WAIT reaper cadence (churn workloads).
    TimeWaitTick,
    /// Periodic idle-connection reaper cadence (overload model).
    IdleReapTick,
}

// Every queued event is stored, cascaded, sorted and drained by value, so
// its size is the event queue's memory traffic. Segments ride the wheel by
// slot index for this reason; the largest variant is `ConnTimer`.
const _: () = assert!(std::mem::size_of::<Event>() <= 24);

/// Segments on the wire, parked between `tx_drain` and their `FrameArrive`
/// so the event carries a `u32` slot instead of the segment itself. Slots
/// are reused LIFO. `FrameArrive` is never cancelled, so each slot is freed
/// exactly once, when its event fires; slots still parked at `EndRun` drop
/// with the world.
#[derive(Default)]
struct SegmentSlab {
    /// Slot storage; its length is the high-water mark of frames on the wire.
    segs: Vec<Segment>,
    /// Vacated slots awaiting reuse.
    free: Vec<u32>,
}

impl SegmentSlab {
    /// Park `seg` and return its slot.
    fn park(&mut self, seg: Segment) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.segs[slot as usize] = seg;
                slot
            }
            None => {
                self.segs.push(seg);
                (self.segs.len() - 1) as u32
            }
        }
    }

    /// Take the segment out of `slot`, freeing the slot.
    fn take(&mut self, slot: u32) -> Segment {
        self.free.push(slot);
        self.segs[slot as usize]
    }

    /// Slots currently holding a segment.
    fn live(&self) -> usize {
        self.segs.len() - self.free.len()
    }
}

mod audit;
mod churn;

/// Which scheduled resource fault a `FaultTick` reconciles.
#[derive(Clone, Copy, Debug)]
enum FaultKind {
    /// Rx descriptor-ring exhaustion.
    Ring,
    /// Page-pool allocation failure.
    Pool,
    /// Core stall (noisy neighbor).
    Stall,
}

/// Interval of the auto-tuning / housekeeping tick.
const AUTOTUNE_INTERVAL: Duration = Duration::from_millis(1);

/// Delayed-ACK flush timeout. Linux holds a delayed ACK up to 40–200ms
/// against a 200ms RTO floor; with this simulation's microsecond RTTs and
/// millisecond RTOs the same ratio lands at half a millisecond. Without
/// the timer, an in-order segment below the every-second-MSS ACK threshold
/// is never acknowledged once the sender goes quiet — a min-cwnd sender
/// (post-RTO) then crawls at one segment per RTO, each RTO re-collapsing
/// cwnd: a permanent livelock at ~0 goodput.
const DELACK_TIMEOUT: Duration = Duration::from_micros(500);

/// Watchdog: events fired at one sim-time instant before declaring a
/// zero-delay rescheduling storm. Healthy runs see at most a few thousand
/// same-instant events (one softirq step across every core).
const STORM_LIMIT: u64 = 5_000_000;

/// Watchdog: pending-event count past which the queue is declared leaking.
/// Steady state holds a few events per flow plus a few per core.
const LEAK_LIMIT: usize = 10_000_000;

/// Charges accumulated by one step. Thin wrapper so call sites read well.
#[derive(Default)]
struct Charges(hns_metrics::CycleBreakdown);

impl Charges {
    #[inline]
    fn add(&mut self, cat: Category, cycles: u64) {
        self.0.charge(cat, cycles);
    }

    fn total(&self) -> u64 {
        self.0.total()
    }
}

/// The socket pair and message size one RPC-style app step works on —
/// the syscall surface the client builders share, minus the execution
/// context (host/core/charges), which stays in the argument list.
#[derive(Clone, Copy)]
struct RpcIo {
    /// Index into `World::apps`.
    app_idx: usize,
    /// Request-direction flow (client → server).
    tx: usize,
    /// Response-direction flow (server → client).
    rx: usize,
    /// Request/response payload size, bytes.
    size: u32,
}

/// Live-snapshot subscriber callback (see [`World::set_monitor_emit`]).
pub type MonitorEmit = Box<dyn FnMut(&hns_monitor::MonitorSnapshot)>;

/// The network between the hosts: the paper's point-to-point cable, or the
/// ToR switch fabric when [`SimConfig::fabric`] is set. Every method takes
/// host indices; with two hosts the link's direction index equals the
/// source host, so the legacy path is a straight passthrough.
enum Wire {
    /// Two hosts back-to-back (loss/flap/ECN knobs live in `LinkConfig`).
    /// Boxed: the link's fault-injection state dwarfs the fabric variant.
    Link(Box<Link>),
    /// N hosts behind a shared-buffer switch.
    Fabric(Fabric),
}

impl Wire {
    /// Offer a frame from `src` to `dst`; `flow` is the fabric's ECMP key.
    fn transmit(
        &mut self,
        src: usize,
        dst: usize,
        flow: u64,
        now: SimTime,
        wire_bytes: u64,
    ) -> TransmitOutcome {
        match self {
            Wire::Link(l) => l.transmit(src, now, wire_bytes),
            Wire::Fabric(f) => f.transmit(src, dst, flow, now, wire_bytes),
        }
    }

    /// Earliest time `src` can begin serializing a new frame.
    fn next_free(&self, src: usize) -> SimTime {
        match self {
            Wire::Link(l) => l.next_free(src),
            Wire::Fabric(f) => f.next_free(src),
        }
    }

    /// Frames offered toward host `dst` (delivered and dropped alike).
    fn frames_to(&self, dst: usize) -> u64 {
        match self {
            Wire::Link(l) => l.frames(1 - dst),
            Wire::Fabric(f) => f.frames_to(dst),
        }
    }

    /// Frames lost on the way to host `dst` (in-network loss on the link,
    /// shared-buffer overflow on the fabric).
    fn drops_to(&self, dst: usize) -> u64 {
        match self {
            Wire::Link(l) => l.drops(1 - dst),
            Wire::Fabric(f) => f.drops_to(dst),
        }
    }

    /// Total frames ever offered (watchdog snapshots).
    fn total_frames(&self) -> u64 {
        match self {
            Wire::Link(l) => l.frames(0) + l.frames(1),
            Wire::Fabric(f) => (0..f.hosts()).map(|h| f.frames_to(h)).sum(),
        }
    }

    /// Drops charged to the `wire` taxonomy class (in-network loss). The
    /// fabric never loses frames in-network — its drops are `switch_buffer`.
    fn loss_drops(&self) -> u64 {
        match self {
            Wire::Link(l) => l.drops(0) + l.drops(1),
            Wire::Fabric(_) => 0,
        }
    }

    /// Drops charged to the `switch_buffer` taxonomy class.
    fn switch_drops(&self) -> u64 {
        match self {
            Wire::Link(_) => 0,
            Wire::Fabric(f) => f.total_drops(),
        }
    }
}

/// The assembled simulation.
pub struct World {
    /// Experiment configuration.
    pub cfg: SimConfig,
    /// Cycle-cost model.
    pub cost: CostModel,
    /// Charging policy of the configured datapath backend
    /// ([`SimConfig::datapath`]). Consulted at every cost juncture; the
    /// [`crate::datapath::InKernel`] policy reproduces the legacy charges
    /// bit-for-bit.
    dp: &'static dyn Datapath,
    /// Per-host Tx descriptor rings for the offload backends: posted at
    /// segment emission, completed when the NIC serializes the frame onto
    /// the wire, harvested (and charged) at the next emission. Sized so
    /// they never backpressure the window-bounded sender; they meter
    /// descriptor-bookkeeping cycles rather than gate transmission.
    descrings: Vec<hns_nic::DescRing>,
    queue: EventQueue<Event>,
    hosts: Vec<Host>,
    wire: Wire,
    arbiters: Vec<TxArbiter<Segment>>,
    /// Segments of the `FrameArrive` events still in the queue.
    in_flight: SegmentSlab,
    /// All flows, indexed by [`FlowId`].
    pub flows: Vec<Flow>,
    /// All applications.
    pub apps: Vec<AppInstance>,
    measuring: bool,
    window_start: SimTime,
    /// Client-observed RPC round-trip latencies (ns).
    rpc_latency_ns: hns_sim::Histogram,
    /// Workload randomness (open-loop inter-arrivals).
    workload_rng: hns_sim::SimRng,
    /// Bytes delivered since the last timeline sample.
    tick_bytes: u64,
    /// Aggregate throughput timeline, sampled each autotune tick.
    gbps_timeline: Vec<(f64, f64)>,
    finished: bool,
    wire_drop_baseline: u64,
    ring_drop_baseline: u64,
    /// Cumulative drop taxonomy since t = 0 (wire / rx-ring / gro-overflow
    /// / socket-queue / pool); reports subtract `drop_baseline`.
    drop_stats: DropStats,
    drop_baseline: DropStats,
    /// Forward-progress counter: bumped whenever a frame is offered to the
    /// wire or an application copies bytes out of a socket.
    progress: u64,
    last_progress: u64,
    last_progress_at: SimTime,
    /// Same-instant event counting for the event-storm tripwire.
    storm_at: SimTime,
    storm_count: u64,
    run_error: Option<RunError>,
    /// First out-of-range host/core reference seen while installing the
    /// scenario; `try_run` reports it as [`RunErrorKind::BadTopology`]
    /// before simulating anything (the offending spec is clamped so world
    /// structures stay consistent, but never runs).
    topo_error: Option<String>,
    label: String,
    /// Skb allocation cache: recycled frag vectors ([`FragPool`]). One per
    /// world, so recycling is deterministic and unsynchronized.
    frag_pool: crate::skb::FragPool,
    /// Reusable output buffer for GRO offer/flush in the softirq loop
    /// (avoids a `Vec` allocation per offered frame).
    gro_scratch: Vec<RxSkb>,
    /// Reusable batch buffer for same-tick event dispatch: `try_run`
    /// drains a whole timestamp's events here via `pop_batch` and commits
    /// each one just before handling, so the queue is probed once per tick
    /// rather than once per event.
    fire_scratch: Vec<PendingFire<Event>>,
    /// Per-skb lifecycle tracer (`hns-trace`). Disabled by default; every
    /// hook below is a single branch on `trace.enabled()` and stamps never
    /// charge cycles, so behaviour is identical with tracing on or off.
    trace: TraceCollector,
    /// Connection-lifecycle engine (`hns-conn`), present when the config
    /// carries a churn workload.
    churn: Option<churn::ChurnEngine>,
    /// Invariant-auditor counters (`SimConfig::audit`); `None` keeps every
    /// hook a single branch on the option.
    audit: Option<Box<audit::AuditState>>,
    /// Streaming-telemetry fold (`SimConfig::monitor`); `None` keeps the
    /// whole monitor path to one branch per autotune tick.
    monitor: Option<Box<hns_monitor::MonitorState>>,
    /// Live snapshot subscriber (the `hostnet monitor` CLI). Called with
    /// each emitted interval snapshot; absent for batch runs, which read
    /// the roll-up from the report instead.
    monitor_emit: Option<MonitorEmit>,
}

impl World {
    /// Build an empty world from a configuration. A fabric sized outside
    /// `2..=MAX_HOSTS` is clamped into range and reported by
    /// [`World::try_run`] as [`RunErrorKind::BadTopology`].
    pub fn new(cfg: SimConfig) -> Self {
        let cores = cfg.topology.total_cores() as usize;
        let requested = cfg.hosts();
        let nhosts = requested.clamp(2, MAX_HOSTS as usize);
        let mut world = World {
            cost: CostModel::calibrated(),
            dp: datapath_for(cfg.datapath),
            descrings: (0..nhosts)
                .map(|_| hns_nic::DescRing::new(1 << 16))
                .collect(),
            queue: EventQueue::new(),
            hosts: (0..nhosts).map(|h| Host::new(h, &cfg)).collect(),
            wire: match cfg.fabric {
                Some(f) => Wire::Fabric(Fabric::new(FabricConfig {
                    hosts: nhosts as u16,
                    ..f
                })),
                None => Wire::Link(Box::new(Link::new(cfg.link, cfg.seed))),
            },
            arbiters: (0..nhosts)
                .map(|_| TxArbiter::new(cores, u64::MAX))
                .collect(),
            in_flight: SegmentSlab::default(),
            flows: Vec::new(),
            apps: Vec::new(),
            measuring: false,
            window_start: SimTime::ZERO,
            rpc_latency_ns: hns_sim::Histogram::new(),
            workload_rng: hns_sim::SimRng::new(cfg.seed ^ 0x0411),
            tick_bytes: 0,
            gbps_timeline: Vec::new(),
            finished: false,
            wire_drop_baseline: 0,
            ring_drop_baseline: 0,
            drop_stats: DropStats::new(),
            drop_baseline: DropStats::new(),
            progress: 0,
            last_progress: 0,
            last_progress_at: SimTime::ZERO,
            storm_at: SimTime::ZERO,
            storm_count: 0,
            run_error: None,
            topo_error: None,
            label: String::new(),
            frag_pool: crate::skb::FragPool::new(),
            gro_scratch: Vec::new(),
            fire_scratch: Vec::new(),
            trace: TraceCollector::new(cfg.trace, nhosts, cores),
            churn: cfg
                .churn
                .map(|c| churn::ChurnEngine::new(c, cores, cfg.seed)),
            audit: cfg.audit.then(|| Box::new(audit::AuditState::new(nhosts))),
            monitor: cfg
                .monitor
                .map(|m| Box::new(hns_monitor::MonitorState::new(m))),
            monitor_emit: None,
            cfg,
        };
        // The monitor rides the sampled lifecycle tracer: subscribe its
        // residency sink only when both are on (the sink sees exactly what
        // the sampler already picks, so this adds no instrumentation).
        if world.monitor.is_some() {
            world.trace.enable_sink();
        }
        if nhosts != requested {
            world.topology_error(format!(
                "fabric of {requested} hosts outside 2..={MAX_HOSTS} (events pack the host into a u8)"
            ));
        }
        world
    }

    /// Subscribe to live monitor snapshots (the streaming CLI). The
    /// callback fires at each emission interval during `run`; without a
    /// monitor config it never fires.
    pub fn set_monitor_emit(&mut self, f: MonitorEmit) {
        self.monitor_emit = Some(f);
    }

    /// The lifecycle-trace collector (for export after a run).
    pub fn trace(&self) -> &TraceCollector {
        &self.trace
    }

    /// Take the collector out of the world, leaving a disabled one.
    pub fn take_trace(&mut self) -> TraceCollector {
        std::mem::replace(&mut self.trace, TraceCollector::disabled())
    }

    /// Label carried into the report.
    pub fn set_label(&mut self, label: impl Into<String>) {
        self.label = label.into();
    }

    /// Record the first topology violation; `try_run` turns it into a
    /// [`RunErrorKind::BadTopology`] error before anything is simulated.
    fn topology_error(&mut self, detail: String) {
        if self.topo_error.is_none() {
            self.topo_error = Some(detail);
        }
    }

    /// Validate a flow spec's host and core indices against the configured
    /// topology, clamping out-of-range fields to valid ones (the run is
    /// already doomed to `BadTopology`; clamping just keeps the world's
    /// structures indexable until `try_run` reports it).
    fn validated_flow_spec(&mut self, id: FlowId, mut spec: FlowSpec) -> FlowSpec {
        let hosts = self.hosts.len();
        let cores = self.cfg.topology.total_cores();
        if spec.src_host >= hosts || spec.dst_host >= hosts {
            self.topology_error(format!(
                "flow {id}: src_host {} / dst_host {} out of range (world has {hosts} hosts)",
                spec.src_host, spec.dst_host
            ));
            spec.src_host = spec.src_host.min(hosts - 1);
            spec.dst_host = spec.dst_host.min(hosts - 1);
        }
        if spec.src_core >= cores || spec.dst_core >= cores {
            self.topology_error(format!(
                "flow {id}: src_core {} / dst_core {} out of range (hosts have {cores} cores)",
                spec.src_core, spec.dst_core
            ));
            spec.src_core = spec.src_core.min(cores - 1);
            spec.dst_core = spec.dst_core.min(cores - 1);
        }
        spec
    }

    /// Register a flow. Returns its id. Host/core indices outside the
    /// configured topology are reported by [`World::try_run`] as
    /// [`RunErrorKind::BadTopology`] instead of panicking here.
    pub fn add_flow(&mut self, spec: FlowSpec) -> FlowId {
        let id = self.flows.len() as FlowId;
        let spec = self.validated_flow_spec(id, spec);
        let flow = Flow::new(id, spec, &self.cfg, id as u16);
        let node = self.cfg.topology.node_of(spec.src_core);
        self.hosts[spec.src_host].node_sender_flows[node as usize] += 1;
        self.flows.push(flow);
        id
    }

    /// Register an application on (host, core). Returns its index. Like
    /// [`World::add_flow`], out-of-range placement surfaces as a
    /// [`RunErrorKind::BadTopology`] run error rather than a panic.
    pub fn add_app(&mut self, host: usize, core: u16, spec: AppSpec) -> usize {
        let (mut host, mut core) = (host, core);
        if host >= self.hosts.len() {
            let n = self.hosts.len();
            self.topology_error(format!(
                "app {}: host {host} out of range (world has {n} hosts)",
                self.apps.len()
            ));
            host = n - 1;
        }
        if core >= self.cfg.topology.total_cores() {
            let n = self.cfg.topology.total_cores();
            self.topology_error(format!(
                "app {}: core {core} out of range (hosts have {n} cores)",
                self.apps.len()
            ));
            core = n - 1;
        }
        let tid = self.hosts[host].sched.add_thread(core);
        let app = AppInstance::new(spec, host, core, tid);
        for f in app.read_flows() {
            self.flows[f as usize].reader_tid = Some(tid);
        }
        for f in app.write_flows() {
            self.flows[f as usize].writer_tid = Some(tid);
        }
        debug_assert_eq!(self.hosts[host].thread_app.len(), tid as usize);
        self.hosts[host].thread_app.push(self.apps.len());
        self.apps.push(app);
        self.apps.len() - 1
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Total events the engine has processed (for benchmarking
    /// events/sec; see `hostbench`).
    pub fn events_processed(&self) -> u64 {
        self.queue.popped()
    }

    /// Run the simulation: `warmup` to reach steady state (measurements
    /// discarded), then a `measure` window. Returns the report, panicking
    /// if the watchdog declares the run wedged — use [`World::try_run`]
    /// when a structured error is wanted (fault experiments).
    pub fn run(&mut self, warmup: Duration, measure: Duration) -> Report {
        self.try_run(warmup, measure)
            .unwrap_or_else(|e| panic!("run did not quiesce: {e}"))
    }

    /// Fallible [`World::run`]: a wedged run (no forward progress over the
    /// configured horizon, an event storm, or a leaking event queue)
    /// returns a [`RunError`] with a diagnostic snapshot instead of
    /// hanging or panicking.
    pub fn try_run(&mut self, warmup: Duration, measure: Duration) -> Result<Report, RunError> {
        if let Some(detail) = self.topo_error.clone() {
            return Err(RunError {
                kind: RunErrorKind::BadTopology,
                at: SimTime::ZERO,
                detail,
                snapshot: Snapshot::default(),
            });
        }
        self.arm_faults()?;
        self.arm_churn()?;
        self.queue
            .schedule(SimTime::ZERO + warmup, Event::EndWarmup);
        self.queue
            .schedule(SimTime::ZERO + warmup + measure, Event::EndRun);
        self.queue
            .schedule(SimTime::ZERO + AUTOTUNE_INTERVAL, Event::AutotuneTick);

        // Arm open-loop arrival processes.
        for i in 0..self.apps.len() {
            if let AppSpec::OpenLoopClient {
                mean_interarrival_ns,
                ..
            } = self.apps[i].spec
            {
                let first = self.workload_rng.exp(mean_interarrival_ns as f64) as u64;
                self.queue.schedule(
                    SimTime::ZERO + Duration::from_nanos(first),
                    Event::OpenLoopArrival { app: i as u32 },
                );
            }
        }
        // Kick every application awake: batch-wake each host's threads
        // (per-host order matches the old per-app loop), then bulk-insert
        // the whole run of t=0 Dispatch events into a single wheel bucket.
        for h in 0..self.hosts.len() {
            let apps = &self.apps;
            self.hosts[h]
                .sched
                .wake_all(apps.iter().filter(|a| a.host == h).map(|a| a.tid));
        }
        self.queue.schedule_all(
            SimTime::ZERO,
            self.apps.iter().map(|a| Event::Dispatch {
                host: a.host as u8,
                core: a.core,
            }),
        );

        // Batched same-tick dispatch: drain every event sharing the head
        // timestamp in one queue probe, then commit each just before
        // handling. `commit` re-checks liveness, so a handler cancelling a
        // later event in the same tick (e.g. `sync_rto` rearming an RTO)
        // skips it exactly as the old pop-per-event loop did.
        let mut batch = std::mem::take(&mut self.fire_scratch);
        'run: while !self.finished {
            if self.queue.pop_batch(&mut batch) == 0 {
                break; // deadlock-free exhaustion (tests)
            }
            for fire in batch.drain(..) {
                if self.finished {
                    break 'run;
                }
                if !self.queue.commit(&fire) {
                    continue; // cancelled earlier in this tick
                }
                let t = fire.time;
                self.audit_pop(t);
                if self.finished {
                    break 'run;
                }
                if t == self.storm_at {
                    self.storm_count += 1;
                } else {
                    self.storm_at = t;
                    self.storm_count = 0;
                }
                if self.storm_count > STORM_LIMIT {
                    self.trip(
                        RunErrorKind::EventStorm,
                        format!("{STORM_LIMIT}+ events at t={}ns", t.as_nanos()),
                    );
                    break 'run;
                }
                if self.queue.len() > LEAK_LIMIT {
                    self.trip(
                        RunErrorKind::QueueLeak,
                        format!("event queue grew past {LEAK_LIMIT}"),
                    );
                    break 'run;
                }
                self.handle(fire.event)
            }
        }
        batch.clear();
        self.fire_scratch = batch;
        if self.run_error.is_none() {
            self.audit_teardown();
        }
        match self.run_error.take() {
            Some(e) => Err(e),
            None => Ok(self.build_report()),
        }
    }

    /// Validate the fault plan and apply / schedule every fault window.
    fn arm_faults(&mut self) -> Result<(), RunError> {
        let bad_plan = |detail: String| RunError {
            kind: RunErrorKind::BadFaultPlan,
            at: SimTime::ZERO,
            detail,
            snapshot: Snapshot::default(),
        };
        self.cfg.faults.validate().map_err(bad_plan)?;
        if let Some(cs) = &self.cfg.faults.core_stall {
            if cs.core >= self.cfg.topology.total_cores() {
                return Err(bad_plan(format!(
                    "core stall victim core {} out of range (host has {})",
                    cs.core,
                    self.cfg.topology.total_cores()
                )));
            }
        }
        for kind in [FaultKind::Ring, FaultKind::Pool, FaultKind::Stall] {
            self.fault_tick(kind);
        }
        Ok(())
    }

    /// Record a watchdog error and stop the event loop.
    fn trip(&mut self, kind: RunErrorKind, detail: String) {
        if self.run_error.is_none() {
            self.run_error = Some(RunError {
                kind,
                at: self.queue.now(),
                detail,
                snapshot: self.snapshot(),
            });
        }
        self.finished = true;
    }

    /// Capture diagnostic state for a [`RunError`].
    fn snapshot(&self) -> Snapshot {
        let backlog_frames = self
            .hosts
            .iter()
            .flat_map(|h| h.cores.iter())
            .map(|c| c.backlog.len() as u64)
            .sum();
        let stuck_flows = self
            .flows
            .iter()
            .filter(|f| f.sender.in_flight() > 0 || f.sender.unsent() > 0)
            .take(8)
            .map(|f| StuckFlow {
                flow: f.id,
                in_flight: f.sender.in_flight(),
                unsent: f.sender.unsent(),
            })
            .collect();
        Snapshot {
            queue_len: self.queue.len(),
            backlog_frames,
            stuck_flows,
            wire_frames: self.wire.total_frames(),
            retransmissions: self.flows.iter().map(|f| f.sender.retransmissions).sum(),
        }
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::Dispatch { host, core } => self.dispatch(host as usize, core as usize),
            Event::StepDone { host, core } => self.step_done(host as usize, core as usize),
            Event::TxDrain { host } => self.tx_drain(host as usize),
            Event::FrameArrive { dst, slot } => {
                let seg = self.in_flight.take(slot);
                self.frame_arrive(dst as usize, seg)
            }
            Event::Irq { host, core } => {
                let h = host as usize;
                if self.hosts[h].sched.raise_softirq(core as usize) {
                    self.dispatch(h, core as usize);
                }
            }
            Event::Rto { flow, deadline } => self.handle_rto(flow as usize, deadline),
            Event::DelAck { flow } => self.handle_delack(flow as usize),
            Event::PacerFire { flow } => self.pacer_fire(flow as usize),
            Event::OpenLoopArrival { app } => self.open_loop_arrival(app as usize),
            Event::AutotuneTick => self.autotune_tick(),
            Event::EndWarmup => self.end_warmup(),
            Event::EndRun => self.finished = true,
            Event::FaultTick { kind } => self.fault_tick(kind),
            Event::ConnArrival => self.conn_arrival(),
            Event::ConnTimer { conn, deadline } => self.conn_timer(conn, deadline),
            Event::TimeWaitTick => self.time_wait_tick(),
            Event::IdleReapTick => self.idle_reap_tick(),
        }
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Reconcile one scheduled fault with its window state at `now`, apply
    /// the side effects of any transition, and schedule the next boundary.
    /// Idempotent, so it doubles as the t = 0 arming call.
    fn fault_tick(&mut self, kind: FaultKind) {
        let now = self.queue.now();
        let next = match kind {
            FaultKind::Ring => {
                let Some(re) = self.cfg.faults.ring_exhaust else {
                    return;
                };
                let h = re.host as usize;
                if re.window.active(now) {
                    for r in &mut self.hosts[h].rings {
                        if !r.faulted() {
                            r.force_exhaust();
                        }
                    }
                } else {
                    for r in &mut self.hosts[h].rings {
                        if r.faulted() {
                            r.restore();
                        }
                    }
                }
                re.window.next_transition(now)
            }
            FaultKind::Pool => {
                let Some(pp) = self.cfg.faults.pool_pressure else {
                    return;
                };
                let h = pp.host as usize;
                let active = pp.window.active(now);
                let was = self.hosts[h].pages.failing();
                self.hosts[h].pages.set_failing(active);
                if was && !active {
                    self.repay_ring_deficits(h);
                }
                pp.window.next_transition(now)
            }
            FaultKind::Stall => {
                let Some(cs) = self.cfg.faults.core_stall else {
                    return;
                };
                let (h, core) = (cs.host as usize, cs.core as usize);
                let active = cs.window.active(now);
                let was = self.hosts[h].cores[core].stalled;
                self.hosts[h].cores[core].stalled = active;
                if was && !active {
                    // Stall over: resume whatever piled up on the core.
                    self.queue.schedule(
                        now,
                        Event::Dispatch {
                            host: h as u8,
                            core: cs.core,
                        },
                    );
                }
                cs.window.next_transition(now)
            }
        };
        if let Some(t) = next {
            self.queue.schedule(t, Event::FaultTick { kind });
        }
    }

    /// Pool pressure cleared: re-back the descriptors whose replenish
    /// failed during the window, charging the deferred page-allocation and
    /// IOMMU costs to each owning core.
    fn repay_ring_deficits(&mut self, h: usize) {
        for core in 0..self.hosts[h].cores.len() {
            let deficit = std::mem::take(&mut self.hosts[h].cores[core].ring_deficit);
            if deficit == 0 {
                continue;
            }
            let added = self.hosts[h].rings[core].replenish(deficit);
            if added == 0 {
                continue;
            }
            let mut ch = Charges::default();
            let pages = pages_for(self.cfg.stack.mtu as u64) * added as u64;
            let out = self.hosts[h].pages.alloc(core as u16, pages);
            if self.dp.charges_memory() {
                ch.add(
                    Category::Memory,
                    out.fast_pages * self.cost.page_alloc_fast
                        + out.slow_pages * self.cost.page_alloc_slow,
                );
            }
            let mapped = self.hosts[h].iommu.map(pages);
            if self.dp.charges_memory() {
                ch.add(Category::Memory, mapped * self.cost.iommu_map);
            }
            let cd = &mut self.hosts[h].cores[core];
            cd.breakdown += ch.0;
            cd.usage.add_busy(cycles_to_time(ch.total()));
            if let Some(a) = self.audit_mut() {
                a.charge_calls[h] += 1;
            }
        }
    }

    fn dispatch(&mut self, h: usize, core: usize) {
        if self.hosts[h].cores[core].stalled {
            return; // injected noisy neighbor owns the core; FaultTick resumes
        }
        if self.hosts[h].sched.running(core).is_some() {
            return; // busy; StepDone will redispatch
        }
        let picked = match self.hosts[h].sched.pick(core) {
            Some(p) => p,
            None => return, // idle
        };
        let mut charges = Charges::default();
        if picked.switched {
            charges.add(Category::Sched, self.cost.context_switch);
        }
        let runnable = match picked.task {
            Task::Softirq => self.exec_softirq(h, core, &mut charges),
            Task::Thread(tid) => self.exec_app(h, core, tid, &mut charges),
        };
        let cd = &mut self.hosts[h].cores[core];
        cd.pending_runnable = runnable;
        cd.breakdown += charges.0;
        let span = cycles_to_time(charges.total());
        cd.usage.add_busy(span);
        if let Some(a) = self.audit_mut() {
            a.charge_calls[h] += 1;
        }
        self.queue.schedule_after(
            span,
            Event::StepDone {
                host: h as u8,
                core: core as u16,
            },
        );
    }

    fn step_done(&mut self, h: usize, core: usize) {
        let running = self.hosts[h].sched.running(core);
        let runnable = match running {
            Some(Task::Softirq) => {
                let cd = &self.hosts[h].cores[core];
                let more = !cd.backlog.is_empty() || !cd.pacer_ready.is_empty();
                if !more {
                    self.hosts[h].coalescer.napi_complete(core);
                }
                more
            }
            Some(Task::Thread(_)) => self.hosts[h].cores[core].pending_runnable,
            None => return,
        };
        self.hosts[h].sched.step_done(core, runnable);
        self.dispatch(h, core);
    }

    // ------------------------------------------------------------------
    // Softirq: NAPI polling, GRO, TCP/IP rx, ACK rx
    // ------------------------------------------------------------------

    fn exec_softirq(&mut self, h: usize, core: usize, ch: &mut Charges) -> bool {
        let now = self.queue.now();
        let dp = self.dp;

        // Hard-IRQ handler work accumulated since the last step. A
        // busy-polling backend never takes the interrupt.
        let irqs = std::mem::take(&mut self.hosts[h].cores[core].irqs_pending);
        if irqs > 0 && dp.charges_irq() {
            ch.add(Category::Etc, self.cost.irq_handler * irqs as u64);
        }

        // BBR pacer releases queued on this core.
        while let Some(fid) = self.hosts[h].cores[core].pacer_ready.pop_front() {
            if dp.charges_protocol() {
                ch.add(Category::Sched, self.cost.pacer_fire);
            }
            self.paced_release(fid as usize, ch);
        }

        // NAPI poll: one sub-batch of frames.
        let batch = self
            .cfg
            .napi_batch
            .min(self.hosts[h].cores[core].backlog.len() as u32);
        if batch > 0 && dp.charges_protocol() {
            ch.add(Category::NetDevice, self.cost.napi_poll);
        }
        let mut replenish = 0u32;
        for _ in 0..batch {
            let pf = self.hosts[h].cores[core]
                .backlog
                .pop_front()
                .expect("batch bounded by backlog");
            replenish += 1;
            match pf.seg.kind {
                SegmentKind::Ack {
                    ack,
                    window,
                    ecn_echo,
                    sack,
                } => {
                    if dp.charges_protocol() {
                        ch.add(Category::NetDevice, self.cost.driver_rx_ack);
                        ch.add(Category::TcpIp, self.cost.ack_rx);
                    } else if dp.busy_polls() {
                        // The userspace stack sees the raw ACK frame on the
                        // polling core.
                        ch.add(Category::NetDevice, self.cost.bypass_poll_frame);
                    }
                    // TOE: ACK clocking lives on-NIC; the host never sees
                    // the frame, but the sender state machine still runs.
                    self.process_ack(pf.seg.flow as usize, ack, window, ecn_echo, sack, ch);
                }
                SegmentKind::Data {
                    seq,
                    len,
                    retransmit,
                } => {
                    if dp.charges_protocol() {
                        ch.add(Category::NetDevice, self.cost.driver_rx_frame);
                        ch.add(Category::Memory, self.cost.skb_alloc);
                        ch.add(Category::SkbMgmt, self.cost.skb_build);
                        if self.cfg.stack.steering.software_cost() {
                            ch.add(Category::NetDevice, self.cost.steering_sw);
                        }
                    } else if dp.busy_polls() {
                        // Bypass: per-frame harvest on the polling core is
                        // the whole Rx pipeline.
                        ch.add(Category::NetDevice, self.cost.bypass_poll_frame);
                    }
                    // TOE: per-frame work happened on-NIC; the host is
                    // charged per completion in `deliver_skb`.
                    let frame = pf.frame.expect("data frames carry buffers");
                    let mut skb = RxSkb::from_frame_pooled(
                        &mut self.frag_pool,
                        pf.seg.flow,
                        seq,
                        len,
                        frame,
                        now,
                        pf.seg.ecn_ce,
                        retransmit,
                    );
                    if self.trace.enabled() {
                        skb.trace = pf.seg.trace;
                        self.trace
                            .stamp(pf.seg.trace, pf.seg.flow, StageId::Napi, h, core, now);
                        if dp.busy_polls() {
                            self.trace.stamp(
                                pf.seg.trace,
                                pf.seg.flow,
                                StageId::BypassPoll,
                                h,
                                core,
                                now,
                            );
                        }
                    }
                    if dp.rx_aggregates(&self.cfg.stack) {
                        if dp.rx_aggregation_charged(&self.cfg.stack) {
                            ch.add(Category::NetDevice, self.cost.gro_per_frame);
                        }
                        if self.trace.enabled() {
                            // A merged frame's timeline ends here (its skb is
                            // absorbed); the aggregate continues under the
                            // head frame's id.
                            self.trace
                                .stamp(pf.seg.trace, pf.seg.flow, StageId::Gro, h, core, now);
                        }
                        let mut flushed = std::mem::take(&mut self.gro_scratch);
                        self.hosts[h].cores[core].gro.offer_into(
                            skb,
                            self.cfg.stack.max_aggregate,
                            &mut self.frag_pool,
                            &mut flushed,
                        );
                        for skb in flushed.drain(..) {
                            self.deliver_skb(h, core, skb, ch);
                        }
                        self.gro_scratch = flushed;
                    } else {
                        self.deliver_skb(h, core, skb, ch);
                    }
                }
                SegmentKind::Conn { phase, retransmit } => {
                    self.conn_rx(h, core, pf.seg.flow, phase, retransmit, ch);
                }
            }
            self.hosts[h].cores[core].budget_used += 1;
        }
        if batch > 0 {
            if let Some(a) = self.audit_mut() {
                a.polled[h] += batch as u64;
            }
        }

        // Driver replenishes this core's Rx ring for the descriptors we
        // consumed.
        if replenish > 0 {
            let added = self.hosts[h].rings[core].replenish(replenish);
            if added > 0 {
                let pages = pages_for(self.cfg.stack.mtu as u64) * added as u64;
                match self.hosts[h].pages.try_alloc(core as u16, pages) {
                    Some(out) => {
                        // Offload backends recycle long-lived pre-registered
                        // buffers: the pool and IOMMU still operate (the
                        // ledgers must balance) but cost no host cycles.
                        if dp.charges_memory() {
                            ch.add(
                                Category::Memory,
                                out.fast_pages * self.cost.page_alloc_fast
                                    + out.slow_pages * self.cost.page_alloc_slow,
                            );
                        }
                        let mapped = self.hosts[h].iommu.map(pages);
                        if dp.charges_memory() {
                            ch.add(Category::Memory, mapped * self.cost.iommu_map);
                        }
                    }
                    None => {
                        // Injected pool pressure: the descriptors cannot be
                        // backed by pages. Pull them back out of service and
                        // remember the deficit; it is repaid (with its page
                        // and IOMMU costs) when the pressure window ends.
                        let taken = self.hosts[h].rings[core].unreplenish(added);
                        self.hosts[h].cores[core].ring_deficit += taken;
                    }
                }
            }
        }

        // End of a poll cycle: flush GRO state and close the simulated
        // server thread's epoll_wait batch (churn workloads).
        let cd = &mut self.hosts[h].cores[core];
        if cd.backlog.is_empty() || cd.budget_used >= self.cfg.napi_budget {
            cd.budget_used = 0;
            let mut flushed = std::mem::take(&mut self.gro_scratch);
            cd.gro.flush_all_into(&mut flushed);
            for skb in flushed.drain(..) {
                self.deliver_skb(h, core, skb, ch);
            }
            self.gro_scratch = flushed;
            self.conn_epoll_batch_end(h, core);
        }

        let cd = &self.hosts[h].cores[core];
        !cd.backlog.is_empty() || !cd.pacer_ready.is_empty()
    }

    /// Deliver a (possibly aggregated) skb to the TCP/IP layer and the
    /// owning socket. Runs in softirq context on `core` of host `h`.
    fn deliver_skb(&mut self, h: usize, core: usize, skb: RxSkb, ch: &mut Charges) {
        let now = self.queue.now();
        if self.measuring {
            self.hosts[h].skb_sizes.record(skb.len as u64);
        }
        let dp = self.dp;
        if self.trace.enabled() {
            self.trace
                .stamp(skb.trace, skb.flow, StageId::TcpRx, h, core, now);
            if dp.charges_descriptors() && !dp.busy_polls() {
                self.trace
                    .stamp(skb.trace, skb.flow, StageId::ToeComplete, h, core, now);
            }
        }
        let fid = skb.flow as usize;
        if dp.charges_protocol() {
            ch.add(
                Category::TcpIp,
                self.cost.tcp_rx_cycles(skb.len) + self.cost.rx_queue_ops,
            );
            let contended = {
                let f = &self.flows[fid];
                f.irq_core != f.spec.dst_core
            };
            ch.add(
                Category::Lock,
                self.cost.sock_lock
                    + if contended {
                        self.cost.sock_lock_contended
                    } else {
                        0
                    },
            );
        } else if dp.charges_descriptors() && !dp.busy_polls() {
            // TOE: one completion descriptor per (NIC-aggregated) delivery
            // replaces the entire driver + skb + GRO + TCP-rx pipeline.
            ch.add(Category::NetDevice, self.cost.toe_rx_desc);
        }

        let (delivered, duplicate, ooo, ack) = {
            let f = &mut self.flows[fid];
            let action = f.receiver.on_data(skb.seq, skb.len, skb.ce, f.rx_backlog);
            (
                action.delivered,
                action.duplicate,
                action.out_of_order,
                action.ack,
            )
        };
        if dp.charges_protocol() {
            ch.add(Category::TcpIp, self.cost.ack_gen);
            if ooo {
                ch.add(Category::TcpIp, self.cost.tcp_ofo_per_skb);
            }
        }

        if delivered == 0 && duplicate {
            // Wholly duplicate data: free the buffers immediately (the
            // kernel's OFO queue coalesces/drops duplicates). These frames
            // survived the wire and the NIC only to be discarded at the
            // socket — the `socket_queue` bucket of the drop taxonomy.
            self.drop_stats.socket_queue += skb.frags.len().max(1) as u64;
            self.consume_skb(h, core, skb, 0, ch);
        } else {
            // In-order or out-of-order: park the skb in sequence order.
            // The queue is kept sorted by seq, so a back-to-front scan
            // finds the insertion point in O(1) for in-order traffic.
            if self.trace.enabled() {
                self.trace
                    .stamp(skb.trace, skb.flow, StageId::SockQueue, h, core, now);
            }
            let f = &mut self.flows[fid];
            let pos = f
                .rx_queue
                .iter()
                .rposition(|s| s.seq <= skb.seq)
                .map_or(0, |p| p + 1);
            f.rx_queue.insert(pos, skb);
            f.rx_backlog = f.receiver.rcv_nxt() - f.app_read_pos;
            if delivered > 0 {
                // Track near-zero advertised window for later updates.
                if f.receiver.advertised_window(f.rx_backlog) < 2 * self.cfg.stack.mss() as u64 {
                    if !f.window_closed {
                        f.trace.record(now, crate::trace::TraceEvent::WindowClosed);
                    }
                    f.window_closed = true;
                }
                if let Some(tid) = f.reader_tid {
                    self.wake(h, tid, ch);
                }
            }
        }

        match ack {
            Some(ack_seg) => self.enqueue_frames(h, core, ack_seg, ch),
            // Delay-ACK'd in-order delivery: make sure the held ACK
            // eventually flushes even if no further data arrives.
            None if self.flows[fid].receiver.pending_delack() => self.arm_delack(fid),
            None => {}
        }
    }

    /// Process an incoming ACK at the data sender (host `h`).
    fn process_ack(
        &mut self,
        fid: usize,
        ack: u64,
        window: u64,
        ecn_echo: bool,
        sack: hns_proto::SackBlocks,
        ch: &mut Charges,
    ) {
        let now = self.queue.now();
        let h = self.flows[fid].spec.src_host;
        let action = self.flows[fid]
            .sender
            .on_ack(now, ack, window, ecn_echo, &sack);
        if self.flows[fid].trace.enabled() {
            let f = &mut self.flows[fid];
            let srtt_us = f.sender.srtt().map(|d| d.as_micros()).unwrap_or(0);
            let (cwnd, in_flight) = (f.sender.cwnd(), f.sender.in_flight());
            f.trace.sample_cwnd(now, cwnd, in_flight, srtt_us);
            if action.fast_retransmit {
                f.trace
                    .record(now, crate::trace::TraceEvent::Retransmit { seq: ack });
            }
        }
        if action.newly_acked > 0 {
            // Send-buffer space freed: update warm-buffer accounting and
            // wake a blocked writer.
            let node = self.cfg.topology.node_of(self.flows[fid].spec.src_core);
            self.hosts[h].adjust_send_active(node, -(action.newly_acked as i64));
            let can_write = self.flows[fid].sender.write_capacity(self.sndbuf_for(fid))
                >= self.cfg.write_size as u64;
            if can_write {
                if let Some(tid) = self.flows[fid].writer_tid {
                    self.wake(h, tid, ch);
                }
            }
        }
        if action.fast_retransmit && self.dp.charges_protocol() {
            ch.add(Category::TcpIp, self.cost.retransmit_extra);
        }
        if action.try_transmit {
            self.pump(fid, ch);
        }
        self.sync_rto(fid);
    }

    // ------------------------------------------------------------------
    // Application steps
    // ------------------------------------------------------------------

    fn exec_app(&mut self, h: usize, core: usize, tid: u32, ch: &mut Charges) -> bool {
        let app_idx = self.hosts[h].thread_app[tid as usize];
        // Clone the lightweight spec to appease the borrow checker; RPC
        // progress lives in `self.apps[app_idx]` and is updated in place.
        let spec = self.apps[app_idx].spec.clone();
        match spec {
            AppSpec::LongSender { flow } => self.step_long_sender(flow as usize, ch),
            AppSpec::LongReceiver { flow } => self.step_long_receiver(h, core, flow as usize, ch),
            AppSpec::RpcClient { tx, rx, size } => {
                let io = RpcIo {
                    app_idx,
                    tx: tx as usize,
                    rx: rx as usize,
                    size,
                };
                self.step_rpc_client(h, core, io, ch)
            }
            AppSpec::RpcServer { conns, size } => {
                self.step_rpc_server(h, core, app_idx, &conns, size, ch)
            }
            AppSpec::OpenLoopClient { tx, rx, size, .. } => {
                let io = RpcIo {
                    app_idx,
                    tx: tx as usize,
                    rx: rx as usize,
                    size,
                };
                self.step_open_loop_client(h, core, io, ch)
            }
        }
    }

    /// Effective send-buffer size for a flow: Linux autotunes `sk_sndbuf`
    /// toward twice the congestion window (`tcp_sndbuf_expand`), capped by
    /// `tcp_wmem[2]`. Without this, thousands of idle-ish flows would each
    /// buffer the full static maximum and the measurement would be
    /// dominated by buffer-fill copies that never reach the wire.
    fn sndbuf_for(&self, fid: usize) -> u64 {
        let floor = 2 * self.cfg.write_size as u64;
        (2 * self.flows[fid].sender.cwnd()).clamp(floor, self.cfg.stack.sndbuf)
    }

    fn step_long_sender(&mut self, fid: usize, ch: &mut Charges) -> bool {
        let write = self.cfg.write_size as u64;
        let cap = self.sndbuf_for(fid);
        if self.flows[fid].sender.write_capacity(cap) < write {
            ch.add(Category::Sched, self.cost.block);
            return false;
        }
        if self.dp.charges_syscalls() {
            ch.add(Category::Etc, self.cost.syscall_write);
        }
        self.charge_sender_copy(fid, write, ch);
        self.flows[fid].sender.app_write(write);
        let node = self.cfg.topology.node_of(self.flows[fid].spec.src_core);
        let h = self.flows[fid].spec.src_host;
        self.hosts[h].adjust_send_active(node, write as i64);
        self.pump(fid, ch);
        self.sync_rto(fid);
        let again = self.flows[fid].sender.write_capacity(self.sndbuf_for(fid)) >= write;
        if !again {
            ch.add(Category::Sched, self.cost.block);
        }
        again
    }

    /// Fixed L3 working-set footprint per sending flow beyond its unacked
    /// buffer bytes: the application's user send buffer plus skb metadata
    /// and page churn. Calibrated so 24 outcast flows reach the paper's
    /// ~11% sender miss rate (Fig. 7c).
    const SENDER_FLOW_FOOTPRINT: u64 = 576 * 1024;

    /// Charge the user→kernel transfer of `bytes`: a payload copy through
    /// the statistical sender L3 model, or — with `MSG_ZEROCOPY` (§4) —
    /// per-page pinning plus a completion notification.
    fn charge_sender_copy(&mut self, fid: usize, bytes: u64, ch: &mut Charges) {
        if self.trace.enabled() {
            // Remember the write instant so frames emitted from these bytes
            // can stamp AppWrite/CopyIn retroactively.
            self.flows[fid].last_write_at = self.queue.now();
        }
        if !self.dp.charges_copies() {
            // Bypass transmits straight from pre-registered user buffers.
            return;
        }
        if self.cfg.stack.zerocopy_tx {
            let pages = pages_for(bytes);
            ch.add(Category::Memory, pages * self.cost.zc_tx_pin_page);
            ch.add(Category::Etc, self.cost.zc_tx_completion);
            return;
        }
        let f = &self.flows[fid];
        let h = f.spec.src_host;
        let node = self.cfg.topology.node_of(f.spec.src_core);
        let active = self.hosts[h].send_active(node)
            + self.hosts[h].node_sender_flows[node as usize] as u64 * Self::SENDER_FLOW_FOOTPRINT;
        let miss = self.hosts[h].sender_l3.miss_rate(active);
        ch.add(
            Category::DataCopy,
            self.cost.sender_copy_cycles(bytes, miss),
        );
        if self.measuring {
            let miss_bytes = (bytes as f64 * miss) as u64;
            self.hosts[h].tx_copy_cache.miss_bytes += miss_bytes;
            self.hosts[h].tx_copy_cache.hit_bytes += bytes - miss_bytes;
        }
    }

    fn step_long_receiver(&mut self, h: usize, core: usize, fid: usize, ch: &mut Charges) -> bool {
        if !self.readable(fid) {
            ch.add(Category::Sched, self.cost.block);
            return false;
        }
        if self.dp.charges_syscalls() {
            ch.add(Category::Etc, self.cost.syscall_recv);
        }
        if self.dp.charges_protocol() {
            ch.add(Category::Lock, self.cost.sock_lock);
        }
        let copied = self.copy_from_socket(h, core, fid, self.cfg.recv_size as u64, ch);
        self.after_app_copy(h, core, fid, copied, ch);
        let again = self.readable(fid);
        if !again {
            ch.add(Category::Sched, self.cost.block);
        }
        again
    }

    /// Copy up to `budget` in-order bytes from the socket queue to the
    /// application; returns bytes copied. Charges per-frag copy costs by
    /// residency and frees the DMA buffers.
    fn copy_from_socket(
        &mut self,
        h: usize,
        core: usize,
        fid: usize,
        budget: u64,
        ch: &mut Charges,
    ) -> u64 {
        let now = self.queue.now();
        let mut copied = 0u64;
        loop {
            let (skb, lat_sample, effective) = {
                let f = &mut self.flows[fid];
                let rcv_nxt = f.receiver.rcv_nxt();
                match f.rx_queue.front() {
                    Some(s) if s.end() <= rcv_nxt && copied < budget => {
                        let skb = f.rx_queue.pop_front().expect("front exists");
                        // Only the overlap with [app_read_pos, rcv_nxt)
                        // counts as new bytes — overlapping retransmits
                        // never double-count.
                        let lo = skb.seq.max(f.app_read_pos);
                        let hi = skb.end().min(rcv_nxt);
                        let effective = hi.saturating_sub(lo);
                        f.app_read_pos = f.app_read_pos.max(hi);
                        let lat = now.since(skb.napi_ts);
                        (skb, lat, effective)
                    }
                    _ => break,
                }
            };
            if self.measuring {
                self.hosts[h].napi_to_copy_ns.record(lat_sample.as_nanos());
            }
            if self.trace.enabled() {
                // End of life: the payload reached user space.
                self.trace
                    .stamp(skb.trace, skb.flow, StageId::RecvCopy, h, core, now);
            }
            self.flows[fid].sample_host_latency(lat_sample);
            self.consume_skb(h, core, skb, effective, ch);
            copied += effective;
        }
        copied
    }

    /// Final act of an skb's life, shared by the duplicate-drop path in
    /// [`World::deliver_skb`] and the application copy in
    /// [`World::copy_from_socket`]: charge the skb free, account the data
    /// copy (or zero-copy remap) for `effective` payload bytes, release
    /// the DMA frames, and recycle the frag vector into the pool.
    fn consume_skb(
        &mut self,
        h: usize,
        core: usize,
        mut skb: RxSkb,
        effective: u64,
        ch: &mut Charges,
    ) {
        let dp = self.dp;
        if dp.charges_protocol() {
            ch.add(Category::SkbMgmt, self.cost.skb_free);
        }
        // A backend that never copies (bypass: the app reads the DMA
        // buffers in place) skips both the remap and the copy charge.
        if effective > 0 && dp.charges_copies() && self.cfg.stack.zerocopy_rx {
            // TCP mmap receive (§4): remap the pages instead of
            // copying the payload. Cache residency becomes moot.
            let pages = pages_for(effective);
            ch.add(Category::Memory, pages * self.cost.zc_rx_remap_page);
        } else if effective > 0 && dp.charges_copies() {
            // Copy cost per fragment, by where the bytes are.
            let app_node = self.cfg.topology.node_of(core as u16);
            for &fr in &skb.frags {
                let host = &mut self.hosts[h];
                let bytes = host.arena.bytes(fr);
                let resident = host.dca.probe_copy(&host.arena, fr);
                let class =
                    self.cfg
                        .topology
                        .classify(app_node, self.hosts[h].arena.node(fr), resident);
                ch.add(Category::DataCopy, self.cost.copy_cycles(class, bytes));
                if self.measuring {
                    if class == MemClass::DcaHit {
                        self.hosts[h].rx_copy_cache.hit_bytes += bytes;
                    } else {
                        self.hosts[h].rx_copy_cache.miss_bytes += bytes;
                    }
                }
            }
        }
        let frags = std::mem::take(&mut skb.frags);
        self.free_frags(h, core, &frags, ch);
        self.frag_pool.put(frags);
    }

    /// Post-copy socket bookkeeping shared by all reading apps.
    fn after_app_copy(&mut self, h: usize, core: usize, fid: usize, copied: u64, ch: &mut Charges) {
        if copied == 0 {
            return;
        }
        self.progress += 1;
        let mss = self.cfg.stack.mss() as u64;
        let f = &mut self.flows[fid];
        f.rx_backlog = f.receiver.rcv_nxt() - f.app_read_pos;
        if self.measuring {
            f.app_bytes += copied;
            self.tick_bytes += copied;
        }
        f.copied_since_tick += copied;
        // Re-open a closed window explicitly.
        if f.window_closed && f.receiver.advertised_window(f.rx_backlog) >= 2 * mss {
            f.window_closed = false;
            let upd = f.receiver.window_update(f.rx_backlog);
            f.trace
                .record(self.queue.now(), crate::trace::TraceEvent::WindowReopened);
            ch.add(Category::TcpIp, self.cost.ack_gen);
            self.enqueue_frames(h, core, upd, ch);
        }
    }

    /// Release DMA buffers: DCA reclaim, page free, IOMMU unmap. The
    /// operations run under every backend (buffer and mapping ledgers must
    /// balance); only the in-kernel datapath pays cycles for them.
    fn free_frags(&mut self, h: usize, core: usize, frags: &[hns_mem::FrameId], ch: &mut Charges) {
        let core_node = self.cfg.topology.node_of(core as u16);
        let charged = self.dp.charges_memory();
        for &fr in frags {
            let node = self.hosts[h].arena.node(fr);
            let bytes = self.hosts[h].arena.release(fr);
            let pages = pages_for(bytes.max(1));
            let out = self.hosts[h]
                .pages
                .free(core as u16, pages, node == core_node);
            if charged {
                ch.add(
                    Category::Memory,
                    out.fast_pages * self.cost.page_free_fast
                        + out.slow_pages * self.cost.page_free_slow,
                );
            }
            let unmapped = self.hosts[h].iommu.unmap(pages);
            if charged {
                ch.add(Category::Memory, unmapped * self.cost.iommu_unmap);
            }
        }
    }

    fn step_rpc_client(&mut self, h: usize, core: usize, io: RpcIo, ch: &mut Charges) -> bool {
        let RpcIo {
            app_idx,
            tx,
            rx,
            size,
        } = io;
        if self.apps[app_idx].awaiting_response {
            // Drain whatever response bytes have arrived.
            if !self.readable(rx) {
                ch.add(Category::Sched, self.cost.block);
                return false;
            }
            if self.dp.charges_syscalls() {
                ch.add(Category::Etc, self.cost.syscall_recv);
            }
            if self.dp.charges_protocol() {
                ch.add(Category::Lock, self.cost.sock_lock);
            }
            let copied = self.copy_from_socket(h, core, rx, u64::MAX, ch);
            self.after_app_copy(h, core, rx, copied, ch);
            self.apps[app_idx].rpc[0].received += copied;
            if self.apps[app_idx].rpc[0].received >= size as u64 {
                self.apps[app_idx].rpc[0].received -= size as u64;
                self.apps[app_idx].rpc[0].completed += 1;
                if self.measuring {
                    self.apps[app_idx].completions += 1;
                    let rtt = self.queue.now().since(self.apps[app_idx].sent_at);
                    self.rpc_latency_ns.record(rtt.as_nanos());
                }
                self.apps[app_idx].awaiting_response = false;
                return true; // immediately send the next request
            }
            ch.add(Category::Sched, self.cost.block);
            return false;
        }
        // Send the next request.
        self.apps[app_idx].sent_at = self.queue.now();
        if self.dp.charges_syscalls() {
            ch.add(Category::Etc, self.cost.syscall_write);
        }
        self.charge_sender_copy(tx, size as u64, ch);
        self.flows[tx].sender.app_write(size as u64);
        let node = self.cfg.topology.node_of(self.flows[tx].spec.src_core);
        self.hosts[h].adjust_send_active(node, size as i64);
        self.pump(tx, ch);
        self.sync_rto(tx);
        self.apps[app_idx].awaiting_response = true;
        // Block until the response wakes us (unless it's somehow already
        // here).
        if self.readable(rx) {
            return true;
        }
        ch.add(Category::Sched, self.cost.block);
        false
    }

    fn step_rpc_server(
        &mut self,
        h: usize,
        core: usize,
        app_idx: usize,
        conns: &[(FlowId, FlowId)],
        size: u32,
        ch: &mut Charges,
    ) -> bool {
        // Epoll-style service: one wakeup drains every ready connection
        // (round-robin start for fairness).
        let n = conns.len();
        let start = self.apps[app_idx].next_conn;
        let mut served = false;
        for i in 0..n {
            let ci = (start + i) % n;
            let (rx, tx) = (conns[ci].0 as usize, conns[ci].1 as usize);
            if !self.readable(rx) {
                continue;
            }
            if self.dp.charges_syscalls() {
                ch.add(Category::Etc, self.cost.syscall_recv);
            }
            if self.dp.charges_protocol() {
                ch.add(Category::Lock, self.cost.sock_lock);
            }
            let copied = self.copy_from_socket(h, core, rx, u64::MAX, ch);
            self.after_app_copy(h, core, rx, copied, ch);
            self.apps[app_idx].rpc[ci].received += copied;
            while self.apps[app_idx].rpc[ci].received >= size as u64 {
                self.apps[app_idx].rpc[ci].received -= size as u64;
                // Write the response.
                if self.dp.charges_syscalls() {
                    ch.add(Category::Etc, self.cost.syscall_write);
                }
                self.charge_sender_copy(tx, size as u64, ch);
                self.flows[tx].sender.app_write(size as u64);
                let node = self.cfg.topology.node_of(self.flows[tx].spec.src_core);
                self.hosts[h].adjust_send_active(node, size as i64);
                self.pump(tx, ch);
                self.sync_rto(tx);
                self.apps[app_idx].rpc[ci].completed += 1;
                if self.measuring {
                    self.apps[app_idx].completions += 1;
                }
            }
            served = true;
        }
        self.apps[app_idx].next_conn = (start + 1) % n.max(1);
        if !served {
            ch.add(Category::Sched, self.cost.block);
            return false;
        }
        // Stay runnable if any connection already has more data.
        let again = conns.iter().any(|&(rx, _)| self.readable(rx as usize));
        if !again {
            ch.add(Category::Sched, self.cost.block);
        }
        again
    }

    /// An open-loop request arrived: queue it, wake the client, schedule
    /// the next arrival.
    fn open_loop_arrival(&mut self, app_idx: usize) {
        let mean = match self.apps[app_idx].spec {
            AppSpec::OpenLoopClient {
                mean_interarrival_ns,
                ..
            } => mean_interarrival_ns,
            _ => return,
        };
        self.apps[app_idx].pending_arrivals += 1;
        let (h, tid) = (self.apps[app_idx].host, self.apps[app_idx].tid);
        let mut ch = Charges::default();
        self.wake(h, tid, &mut ch);
        // Arrival-process overhead (timer) charged to the client's core.
        let core = self.apps[app_idx].core as usize;
        let cd = &mut self.hosts[h].cores[core];
        cd.breakdown += ch.0;
        cd.usage.add_busy(cycles_to_time(ch.total()));
        if let Some(a) = self.audit_mut() {
            a.charge_calls[h] += 1;
        }
        let gap = self.workload_rng.exp(mean as f64) as u64;
        self.queue.schedule_after(
            Duration::from_nanos(gap.max(1)),
            Event::OpenLoopArrival {
                app: app_idx as u32,
            },
        );
    }

    fn step_open_loop_client(
        &mut self,
        h: usize,
        core: usize,
        io: RpcIo,
        ch: &mut Charges,
    ) -> bool {
        let RpcIo {
            app_idx,
            tx,
            rx,
            size,
        } = io;
        let mut progressed = false;
        // Drain any response bytes first.
        if self.readable(rx) {
            if self.dp.charges_syscalls() {
                ch.add(Category::Etc, self.cost.syscall_recv);
            }
            if self.dp.charges_protocol() {
                ch.add(Category::Lock, self.cost.sock_lock);
            }
            let copied = self.copy_from_socket(h, core, rx, u64::MAX, ch);
            self.after_app_copy(h, core, rx, copied, ch);
            self.apps[app_idx].rpc[0].received += copied;
            while self.apps[app_idx].rpc[0].received >= size as u64 {
                self.apps[app_idx].rpc[0].received -= size as u64;
                self.apps[app_idx].rpc[0].completed += 1;
                if let Some(sent) = self.apps[app_idx].outstanding.pop_front() {
                    if self.measuring {
                        self.apps[app_idx].completions += 1;
                        let rtt = self.queue.now().since(sent);
                        self.rpc_latency_ns.record(rtt.as_nanos());
                    }
                }
            }
            progressed = true;
        }
        // Write one queued request per step (fine-grained fairness).
        if self.apps[app_idx].pending_arrivals > 0 {
            self.apps[app_idx].pending_arrivals -= 1;
            self.apps[app_idx].outstanding.push_back(self.queue.now());
            if self.dp.charges_syscalls() {
                ch.add(Category::Etc, self.cost.syscall_write);
            }
            self.charge_sender_copy(tx, size as u64, ch);
            self.flows[tx].sender.app_write(size as u64);
            let node = self.cfg.topology.node_of(self.flows[tx].spec.src_core);
            self.hosts[h].adjust_send_active(node, size as i64);
            self.pump(tx, ch);
            self.sync_rto(tx);
            progressed = true;
        }
        if !progressed {
            ch.add(Category::Sched, self.cost.block);
            return false;
        }
        let again = self.apps[app_idx].pending_arrivals > 0 || self.readable(rx);
        if !again {
            ch.add(Category::Sched, self.cost.block);
        }
        again
    }

    /// True if the flow's socket has in-order data ready for the app.
    fn readable(&self, fid: usize) -> bool {
        let f = &self.flows[fid];
        f.rx_queue
            .front()
            .map(|s| s.end() <= f.receiver.rcv_nxt())
            .unwrap_or(false)
    }

    // ------------------------------------------------------------------
    // Transmission path
    // ------------------------------------------------------------------

    /// Pump as much of `fid`'s send queue into the NIC as the windows
    /// allow. BBR flows arm the pacer instead.
    fn pump(&mut self, fid: usize, ch: &mut Charges) {
        if self.flows[fid].sender.pacing_rate().is_some() {
            self.arm_pacer(fid);
            return;
        }
        loop {
            if !self.transmit_one(fid, ch) {
                break;
            }
        }
    }

    /// Emit one (TSO-sized) segment. Returns false when nothing was
    /// sendable.
    fn transmit_one(&mut self, fid: usize, ch: &mut Charges) -> bool {
        let now = self.queue.now();
        let max = self.cfg.stack.max_tx_payload();
        let seg = match self.flows[fid].sender.next_segment(now, max) {
            Some(s) => s,
            None => return false,
        };
        let (seq0, len, rtx) = match seg.data_view() {
            Some(d) => (d.seq, d.len, d.retransmit),
            None => {
                // Senders only emit data today; if a control segment ever
                // appears here, forward it untouched rather than abort.
                let h = self.flows[fid].spec.src_host;
                let queue = self.flows[fid].spec.src_core as usize;
                let ok = self.arbiters[h].enqueue(queue, seg.payload_len(), seg);
                debug_assert!(ok, "tx queues are unbounded");
                self.arm_txdrain(h);
                return true;
            }
        };
        let dp = self.dp;
        let mss = self.cfg.stack.mss();
        let nframes = tso::frame_count(len, mss) as u64;
        if dp.charges_protocol() {
            ch.add(
                Category::TcpIp,
                self.cost.tcp_tx_cycles(len) + if rtx { self.cost.retransmit_extra } else { 0 },
            );
            ch.add(Category::Memory, self.cost.skb_alloc_tx);
            ch.add(Category::SkbMgmt, self.cost.skb_build_tx);
            ch.add(Category::NetDevice, self.cost.qdisc_tx_cycles(nframes));
            let software_gso = !self.cfg.stack.tso && self.cfg.stack.gso;
            if software_gso {
                ch.add(Category::NetDevice, self.cost.gso_per_frame * nframes);
            }
        }
        let h = self.flows[fid].spec.src_host;
        if dp.charges_descriptors() {
            // Reap completions of frames the NIC already put on the wire,
            // then post one descriptor per outgoing frame. The ring meters
            // bookkeeping cycles; it is sized never to gate transmission
            // (in-flight descriptors are window-bounded).
            let ring = &mut self.descrings[h];
            let reaped = ring.harvest(u64::MAX);
            let mut posted = 0u64;
            for _ in 0..nframes {
                if ring.try_post().is_none() {
                    break;
                }
                posted += 1;
            }
            ch.add(
                Category::NetDevice,
                reaped * self.cost.desc_complete + posted * self.cost.desc_post,
            );
        }
        let queue = self.flows[fid].spec.src_core as usize;
        let wrote = self.flows[fid].last_write_at;
        // Bulk-enqueue the whole TSO burst: frames are built lazily while
        // the arbiter hoists its queue/depth lookups out of the loop.
        let trace = &mut self.trace;
        let mut off = 0u64;
        let frames = tso::segment(len, mss).map(|flen| {
            let mut frame_seg = Segment::data(fid as FlowId, seq0 + off, flen, rtx);
            if trace.enabled() {
                let tid = trace.alloc(fid as u64);
                if tid != hns_trace::NO_SKB {
                    frame_seg.trace = tid;
                    trace.stamp(tid, fid as u64, StageId::AppWrite, h, queue, wrote);
                    trace.stamp(tid, fid as u64, StageId::CopyIn, h, queue, wrote);
                    trace.stamp(tid, fid as u64, StageId::TcpTx, h, queue, now);
                    trace.stamp(tid, fid as u64, StageId::Gso, h, queue, now);
                    trace.stamp(tid, fid as u64, StageId::Qdisc, h, queue, now);
                }
            }
            off += flen as u64;
            (flen, frame_seg)
        });
        let accepted = self.arbiters[h].enqueue_all(queue, frames);
        debug_assert_eq!(accepted as u64, nframes, "tx queues are unbounded");
        self.arm_txdrain(h);
        true
    }

    fn arm_txdrain(&mut self, h: usize) {
        if !self.hosts[h].txdrain_armed && !self.arbiters[h].is_empty() {
            self.hosts[h].txdrain_armed = true;
            let at = self.wire.next_free(h).max(self.queue.now());
            self.queue.schedule(at, Event::TxDrain { host: h as u8 });
        }
    }

    /// Enqueue an already-built control segment (ACK / window update) for
    /// transmission from (host, core).
    fn enqueue_frames(&mut self, h: usize, core: usize, seg: Segment, _ch: &mut Charges) {
        let ok = self.arbiters[h].enqueue(core, seg.payload_len(), seg);
        debug_assert!(ok);
        self.arm_txdrain(h);
    }

    fn tx_drain(&mut self, h: usize) {
        let now = self.queue.now();
        match self.arbiters[h].dequeue() {
            Some((payload, seg)) => {
                // Anything reaching the wire counts as forward progress for
                // the watchdog — even a dropped frame proves the sender's
                // recovery machinery is still alive.
                self.progress += 1;
                // Conn segments carry a packed connection id in `flow`, not
                // a flow-table index; their lifecycle stamps happen at the
                // handshake stages instead.
                let is_conn = matches!(seg.kind, SegmentKind::Conn { .. });
                if self.dp.charges_descriptors() && matches!(seg.kind, SegmentKind::Data { .. }) {
                    // The NIC consumed the posted descriptor; the host
                    // harvests (and pays for) the completion at its next
                    // transmit call.
                    self.descrings[h].complete(1);
                }
                if self.trace.enabled() && !is_conn {
                    let core = self.flows[seg.flow as usize].spec.src_core as usize;
                    self.trace
                        .stamp(seg.trace, seg.flow, StageId::NicTx, h, core, now);
                }
                let wire = payload as u64 + HEADER_BYTES as u64;
                // Route the frame: data toward the flow's receiver, ACKs
                // back toward its sender, lifecycle frames to the churn
                // peer. On the 2-host link every case is `1 - h`.
                let dst = match seg.kind {
                    SegmentKind::Data { .. } => self.flows[seg.flow as usize].spec.dst_host,
                    SegmentKind::Ack { .. } => self.flows[seg.flow as usize].spec.src_host,
                    SegmentKind::Conn { .. } => 1 - h,
                };
                match self.wire.transmit(h, dst, seg.flow, now, wire) {
                    TransmitOutcome::Delivered { arrives, ce } => {
                        let mut seg = seg;
                        seg.ecn_ce |= ce;
                        if self.trace.enabled() && !is_conn {
                            let core = self.flows[seg.flow as usize].spec.src_core as usize;
                            self.trace
                                .stamp(seg.trace, seg.flow, StageId::Wire, h, core, now);
                        }
                        let slot = self.in_flight.park(seg);
                        self.queue.schedule(
                            arrives,
                            Event::FrameArrive {
                                dst: dst as u8,
                                slot,
                            },
                        );
                        if let Some(a) = self.audit_mut() {
                            a.wire_in_flight[dst] += 1;
                        }
                    }
                    TransmitOutcome::Dropped => match &self.wire {
                        Wire::Link(_) => self.drop_stats.wire += 1,
                        Wire::Fabric(_) => self.drop_stats.switch_buffer += 1,
                    },
                }
                if self.arbiters[h].is_empty() {
                    self.hosts[h].txdrain_armed = false;
                } else {
                    let at = self.wire.next_free(h).max(now);
                    self.queue.schedule(at, Event::TxDrain { host: h as u8 });
                }
            }
            None => {
                self.hosts[h].txdrain_armed = false;
            }
        }
    }

    // ------------------------------------------------------------------
    // NIC receive path
    // ------------------------------------------------------------------

    fn frame_arrive(&mut self, dst: usize, seg: Segment) {
        let now = self.queue.now();
        let fid = seg.flow as usize;
        if let Some(a) = self.audit_mut() {
            a.arrived[dst] += 1;
            a.wire_in_flight[dst] -= 1;
        }
        // Steering decides the queue; the frame consumes a descriptor of
        // *that queue's* ring.
        let target_core = match seg.kind {
            SegmentKind::Data { .. } => self.flows[fid].irq_core,
            SegmentKind::Ack { .. } => self.flows[fid].ack_irq_core,
            SegmentKind::Conn { .. } => match self.conn_target_core(dst, seg.flow) {
                Some(core) => core,
                None => {
                    // Connection torn down while the frame was in flight: a
                    // late retransmit with no socket to land on.
                    self.conn_stale_frame();
                    if let Some(a) = self.audit_mut() {
                        a.stale_frames[dst] += 1;
                    }
                    return;
                }
            },
        };
        // Softirq backlog cap (netdev_max_backlog): shed load before even
        // consuming a descriptor when the polling core has fallen too far
        // behind (e.g. an injected core stall).
        let cap = self.cfg.max_backlog as usize;
        if cap > 0 && self.hosts[dst].cores[target_core as usize].backlog.len() >= cap {
            self.drop_stats.gro_overflow += 1;
            if let Some(a) = self.audit_mut() {
                a.backlog_drops[dst] += 1;
            }
            return;
        }
        if !self.hosts[dst].rings[target_core as usize].try_receive() {
            // Out of descriptors: dropped, TCP recovers. Attribute the drop
            // to the page pool when the ring is empty because replenishes
            // could not be backed, otherwise to the ring itself (organic
            // overrun or injected exhaustion).
            let pool_starved = self.hosts[dst].pages.failing()
                && !self.hosts[dst].rings[target_core as usize].faulted();
            if pool_starved {
                self.drop_stats.pool += 1;
            } else {
                self.drop_stats.rx_ring += 1;
            }
            return;
        }
        let (core, frame) = match seg.kind {
            SegmentKind::Data { len, .. } => {
                let core = self.flows[fid].irq_core;
                let node = self.cfg.topology.node_of(core);
                let host = &mut self.hosts[dst];
                let fr = host.arena.insert(len, node);
                if node == self.cfg.topology.nic_node {
                    host.dca.insert(&mut host.arena, fr);
                }
                (core, Some(fr))
            }
            SegmentKind::Ack { .. } => (self.flows[fid].ack_irq_core, None),
            // Lifecycle segments are header-sized (or small RPC payloads
            // modeled inline): no page-arena buffer, no GRO, no DCA.
            SegmentKind::Conn { .. } => (target_core, None),
        };
        if self.trace.enabled() {
            // Descriptor accepted and DMA'd: the frame is in host memory.
            self.trace
                .stamp(seg.trace, seg.flow, StageId::RxDma, dst, core as usize, now);
        }
        let host = &mut self.hosts[dst];
        host.cores[core as usize].backlog.push_back(PendingFrame {
            seg,
            frame,
            arrived: now,
        });
        if host.coalescer.frame_arrived(core as usize) {
            host.cores[core as usize].irqs_pending += 1;
            // A busy-polling backend notices the frame on its next spin:
            // no interrupt dispatch latency, no moderation delay. The
            // `Irq` event survives as the poll-wakeup edge; its handler
            // charge is already gated off in `exec_softirq`.
            let fires = if self.dp.busy_polls() {
                now
            } else {
                now + self.cfg.irq_latency + self.cfg.irq_coalesce
            };
            self.queue.schedule(
                fires,
                Event::Irq {
                    host: dst as u8,
                    core,
                },
            );
            if self.trace.enabled() {
                // Only the frame that actually raised the interrupt gets an
                // IRQ stamp; frames batched under NAPI masking wait in the
                // backlog and their RxDma→Napi residency shows it.
                self.trace
                    .stamp(seg.trace, seg.flow, StageId::Irq, dst, core as usize, fires);
            }
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Keep the event queue's RTO timer in sync with the sender's
    /// deadline.
    fn sync_rto(&mut self, fid: usize) {
        let desired = self.flows[fid].sender.rto_deadline();
        if desired == self.flows[fid].rto_scheduled_for {
            return;
        }
        let token = self.flows[fid].rto_token;
        self.queue.cancel(token);
        self.flows[fid].rto_scheduled_for = desired;
        self.flows[fid].rto_token = match desired {
            Some(t) => self.queue.schedule(
                t.max(self.queue.now()),
                Event::Rto {
                    flow: fid as u32,
                    deadline: t,
                },
            ),
            None => hns_sim::event::EventToken::NONE,
        };
    }

    fn handle_rto(&mut self, fid: usize, deadline: SimTime) {
        if self.flows[fid].rto_scheduled_for != Some(deadline) {
            return; // stale timer
        }
        let now = self.queue.now();
        self.flows[fid].rto_scheduled_for = None;
        // The token just fired; forget it so a later `sync_rto` doesn't
        // "cancel" a dead token. (Harmless since the queue's
        // generation-stamped slots make stale cancels a no-op, but NONE
        // documents that no timer is pending.)
        self.flows[fid].rto_token = hns_sim::event::EventToken::NONE;
        self.flows[fid].sender.on_rto(now);
        self.flows[fid]
            .trace
            .record(now, crate::trace::TraceEvent::TimerFired);
        // Timer softirq work: charge to the sender's app core directly
        // (rare enough that we don't occupy the scheduler).
        let h = self.flows[fid].spec.src_host;
        let core = self.flows[fid].spec.src_core as usize;
        let mut ch = Charges::default();
        if self.dp.charges_protocol() {
            ch.add(Category::TcpIp, self.cost.retransmit_extra);
        }
        self.pump(fid, &mut ch);
        self.sync_rto(fid);
        let cd = &mut self.hosts[h].cores[core];
        cd.breakdown += ch.0;
        cd.usage.add_busy(cycles_to_time(ch.total()));
        if let Some(a) = self.audit_mut() {
            a.charge_calls[h] += 1;
        }
    }

    /// Arm the delayed-ACK flush timer after in-order data was delivered
    /// without an immediate ACK. One pending event per flow; a no-op when
    /// a later segment already pushed the cumulative ACK out.
    fn arm_delack(&mut self, fid: usize) {
        if self.flows[fid].delack_armed {
            return;
        }
        self.flows[fid].delack_armed = true;
        self.queue.schedule(
            self.queue.now() + DELACK_TIMEOUT,
            Event::DelAck { flow: fid as u32 },
        );
    }

    fn handle_delack(&mut self, fid: usize) {
        self.flows[fid].delack_armed = false;
        if !self.flows[fid].receiver.pending_delack() {
            return; // a data-driven ACK already flushed it
        }
        // Timer softirq work on the receiver: flush the held cumulative
        // ACK, charged to the flow's rx-steering core like any ACK.
        let h = self.flows[fid].spec.dst_host;
        let core = self.flows[fid].irq_core as usize;
        let mut ch = Charges::default();
        if self.dp.charges_protocol() {
            ch.add(Category::TcpIp, self.cost.ack_gen);
        }
        let backlog = self.flows[fid].rx_backlog;
        let ack = self.flows[fid].receiver.delack_flush(backlog);
        self.enqueue_frames(h, core, ack, &mut ch);
        let cd = &mut self.hosts[h].cores[core];
        cd.breakdown += ch.0;
        cd.usage.add_busy(cycles_to_time(ch.total()));
        if let Some(a) = self.audit_mut() {
            a.charge_calls[h] += 1;
        }
    }

    /// BBR pacing: arm the release timer if not armed.
    fn arm_pacer(&mut self, fid: usize) {
        if self.flows[fid].pacer_armed {
            return;
        }
        let f = &self.flows[fid];
        let has_work = f.sender.usable_window() > 0 && f.sender.unsent() > 0;
        if !has_work {
            return;
        }
        self.flows[fid].pacer_armed = true;
        self.queue
            .schedule(self.queue.now(), Event::PacerFire { flow: fid as u32 });
    }

    fn pacer_fire(&mut self, fid: usize) {
        self.flows[fid].pacer_armed = false;
        let h = self.flows[fid].spec.src_host;
        let core = self.flows[fid].spec.src_core;
        self.hosts[h].cores[core as usize]
            .pacer_ready
            .push_back(fid as u64);
        if self.hosts[h].sched.raise_softirq(core as usize) {
            self.dispatch(h, core as usize);
        }
    }

    /// One paced release: emit a single segment, schedule the next release
    /// by the pacing rate. Runs inside the softirq step.
    fn paced_release(&mut self, fid: usize, ch: &mut Charges) {
        if !self.transmit_one(fid, ch) {
            return;
        }
        let f = &self.flows[fid];
        let more = f.sender.usable_window() > 0 && f.sender.unsent() > 0;
        if more {
            if let Some(rate) = f.sender.pacing_rate() {
                let burst = self.cfg.stack.max_tx_payload() as f64;
                let gap = Duration::from_secs_f64(burst / rate.max(1.0));
                self.flows[fid].pacer_armed = true;
                let fire_at = self.queue.now() + gap;
                self.queue
                    .schedule(fire_at, Event::PacerFire { flow: fid as u32 });
            }
        }
    }

    // ------------------------------------------------------------------
    // Housekeeping + measurement
    // ------------------------------------------------------------------

    fn autotune_tick(&mut self) {
        if self.measuring {
            let t = self.queue.now().since(self.window_start).as_secs_f64();
            let gbps = self.tick_bytes as f64 * 8.0 / 1e9 / AUTOTUNE_INTERVAL.as_secs_f64();
            self.gbps_timeline.push((t, gbps));
            if self.monitor.is_some() {
                self.monitor_tick(self.tick_bytes);
            }
            self.tick_bytes = 0;
        } else if self.monitor.is_some() {
            self.monitor_tick(0);
        }
        let prop = self
            .cfg
            .fabric
            .map_or(self.cfg.link.propagation, |f| f.propagation);
        for f in &mut self.flows {
            let copied = std::mem::take(&mut f.copied_since_tick);
            let hint = f.rtt_hint(prop);
            f.receiver
                .autotune_mut()
                .on_copied(copied, AUTOTUNE_INTERVAL, hint);
        }
        self.check_watchdog();
        self.audit_tick();
        self.queue
            .schedule_after(AUTOTUNE_INTERVAL, Event::AutotuneTick);
    }

    /// Fold one autotune tick into the streaming monitor: drain sampled
    /// residencies from the trace sink, account delivered bytes and the
    /// drop/conn counter samples, and cut a snapshot when an emission
    /// interval has elapsed. During warmup the sink is drained and
    /// discarded so the window's sketches hold only window samples (and
    /// the sink's pending buffer stays bounded).
    fn monitor_tick(&mut self, tick_bytes: u64) {
        let now = self.queue.now();
        if !self.measuring {
            self.trace.drain_residencies(now, |_, _| {});
            return;
        }
        let drops = self.drop_stats.since(self.drop_baseline);
        let conn = self.monitor_counters();
        let Some(mon) = self.monitor.as_deref_mut() else {
            return;
        };
        self.trace
            .drain_residencies(now, |stage, ns| mon.record_residency(stage, ns));
        mon.record_bytes(tick_bytes);
        if let Some(snapshot) = mon.on_tick(now, drops, conn) {
            if let Some(emit) = self.monitor_emit.as_mut() {
                emit(&snapshot);
            }
        }
    }

    /// Stall tripwire, evaluated once per autotune tick: if the progress
    /// counter hasn't moved for a full horizon while some flow still has
    /// outstanding work, the run is wedged.
    fn check_watchdog(&mut self) {
        let horizon = self.cfg.watchdog_horizon;
        if horizon == Duration::ZERO || self.run_error.is_some() {
            return;
        }
        let now = self.queue.now();
        if self.progress != self.last_progress {
            self.last_progress = self.progress;
            self.last_progress_at = now;
            return;
        }
        if now.since(self.last_progress_at) < horizon {
            return;
        }
        let outstanding = self
            .flows
            .iter()
            .any(|f| f.sender.in_flight() > 0 || f.sender.unsent() > 0);
        if !outstanding {
            // Quiet because there's nothing to do — not a stall.
            self.last_progress_at = now;
            return;
        }
        self.trip(
            RunErrorKind::Stalled,
            format!(
                "no forward progress for {}ns with flows outstanding",
                horizon.as_nanos()
            ),
        );
    }

    fn end_warmup(&mut self) {
        let now = self.queue.now();
        self.measuring = true;
        self.window_start = now;
        for h in &mut self.hosts {
            h.reset_measurement(now);
        }
        for f in &mut self.flows {
            f.app_bytes = 0;
            f.rtx_baseline = f.sender.retransmissions;
        }
        for a in &mut self.apps {
            a.completions = 0;
        }
        self.rpc_latency_ns.reset();
        self.tick_bytes = 0;
        self.gbps_timeline.clear();
        if let Some(eng) = self.churn.as_mut() {
            eng.start_window();
        }
        self.wire_drop_baseline = self.wire.loss_drops();
        self.ring_drop_baseline = self.hosts.iter().map(|h| h.ring_drops()).sum();
        self.drop_baseline = self.drop_stats;
        if self.monitor.is_some() {
            // Discard warmup residencies still queued in the sink, then
            // open the monitor's window with baselines pinned at "now":
            // drops are reported window-relative (zero here) and conn
            // counters are sampled so the first interval's deltas start
            // from this instant.
            self.trace.drain_residencies(now, |_, _| {});
            let conn = self.monitor_counters();
            if let Some(mon) = self.monitor.as_deref_mut() {
                mon.begin_window(now, DropStats::new(), conn);
            }
        }
        if let Some(a) = self.audit_mut() {
            // The cycle ledger's two sides (usage clocks, breakdowns) just
            // reset with the measurement window; its rounding-slack bound
            // restarts with them.
            a.charge_calls.iter_mut().for_each(|c| *c = 0);
        }
        if self.cfg.inject_rx_leak {
            // Audit self-test hook: consume a descriptor whose frame never
            // reaches a backlog. The frame ledgers can no longer balance and
            // an audited run must trip InvariantViolation.
            self.hosts[1].rings[0].try_receive();
        }
    }

    fn build_report(&self) -> Report {
        let now = self.queue.now();
        let window = now.since(self.window_start).as_secs_f64();
        let delivered: u64 = self.flows.iter().map(|f| f.app_bytes).sum::<u64>()
            + self.churn.as_ref().map_or(0, |e| e.bytes_delivered);
        let total_gbps = if window > 0.0 {
            delivered as f64 * 8.0 / 1e9 / window
        } else {
            0.0
        };

        let side = |h: &Host| SideReport {
            breakdown: h.total_breakdown(),
            cores_used: h.cores_used(now),
            cache: {
                let mut c = h.rx_copy_cache;
                c.merge(h.tx_copy_cache);
                c
            },
        };
        // Host 1 is the receiver by convention; every other host (host 0
        // on the legacy link, hosts {0, 2, 3, ..} behind a fabric) is a
        // sender and folds into the sender side of the report.
        let mut sender = side(&self.hosts[0]);
        for h in self.hosts.iter().skip(2) {
            let s = side(h);
            sender.breakdown += s.breakdown;
            sender.cores_used += s.cores_used;
            sender.cache.merge(s.cache);
        }
        let receiver = side(&self.hosts[1]);
        let bottleneck_cores = sender.cores_used.max(receiver.cores_used).max(1e-9);

        let lat = &self.hosts[1].napi_to_copy_ns;
        let napi_to_copy = LatencyStats {
            avg_us: lat.mean() / 1e3,
            p99_us: lat.quantile(0.99) as f64 / 1e3,
            samples: lat.count(),
        };
        let rpc_latency = LatencyStats {
            avg_us: self.rpc_latency_ns.mean() / 1e3,
            p99_us: self.rpc_latency_ns.quantile(0.99) as f64 / 1e3,
            samples: self.rpc_latency_ns.count(),
        };

        let (stage_latency, trace_overflow) = if self.trace.enabled() {
            let summary = self.trace.summary();
            let mut rows: Vec<hns_metrics::StageLatency> = summary
                .stages
                .iter()
                .map(|s| {
                    let p = s.hist.percentiles();
                    hns_metrics::StageLatency {
                        stage: s.stage.label().to_string(),
                        samples: s.hist.count(),
                        mean_ns: s.hist.mean(),
                        p50_ns: p.p50,
                        p90_ns: p.p90,
                        p99_ns: p.p99,
                        p999_ns: p.p999,
                        max_ns: p.max,
                    }
                })
                .collect();
            if summary.end_to_end.count() > 0 {
                let p = summary.end_to_end.percentiles();
                rows.push(hns_metrics::StageLatency {
                    stage: "end_to_end".to_string(),
                    samples: summary.end_to_end.count(),
                    mean_ns: summary.end_to_end.mean(),
                    p50_ns: p.p50,
                    p90_ns: p.p90,
                    p99_ns: p.p99,
                    p999_ns: p.p999,
                    max_ns: p.max,
                });
            }
            (rows, summary.overflow)
        } else {
            (Vec::new(), 0)
        };

        let wire_drops = self.wire.loss_drops() - self.wire_drop_baseline;
        let ring_drops =
            self.hosts.iter().map(|h| h.ring_drops()).sum::<u64>() - self.ring_drop_baseline;
        // Attribution invariants: the world counts every drop exactly once,
        // so `drops.wire == wire_drops` and
        // `drops.rx_ring + drops.pool == ring_drops`.
        let drops = self.drop_stats.since(self.drop_baseline);
        debug_assert_eq!(drops.wire, wire_drops);
        debug_assert_eq!(drops.rx_ring + drops.pool, ring_drops);

        Report {
            label: self.label.clone(),
            window_secs: window,
            delivered_bytes: delivered,
            total_gbps,
            thpt_per_core_gbps: total_gbps / bottleneck_cores,
            sender,
            receiver,
            napi_to_copy,
            rpc_latency,
            skb_size_hist: self.hosts[1].skb_sizes.iter_buckets().collect(),
            avg_skb_bytes: self.hosts[1].skb_sizes.mean(),
            wire_drops,
            ring_drops,
            drops,
            retransmissions: self
                .flows
                .iter()
                .map(|f| f.sender.retransmissions - f.rtx_baseline)
                .sum(),
            rpcs_completed: self.apps.iter().map(|a| a.completions).sum(),
            per_flow_bytes: self.flows.iter().map(|f| (f.id, f.app_bytes)).collect(),
            gbps_timeline: self.gbps_timeline.clone(),
            stage_latency,
            trace_overflow,
            conn: self.conn_summary(window),
            capacity: self.capacity_summary(),
            monitor: self.monitor.as_ref().map(|m| m.summary()),
        }
    }

    /// Wake thread `tid` on host `h`, charging wakeup cost to the waker.
    fn wake(&mut self, h: usize, tid: u32, ch: &mut Charges) {
        if let Some(core_was_idle) = self.hosts[h].sched.wake_thread(tid) {
            ch.add(Category::Sched, self.cost.wakeup);
            if core_was_idle {
                let core = self.hosts[h].sched.thread_core(tid);
                self.queue.schedule(
                    self.queue.now(),
                    Event::Dispatch {
                        host: h as u8,
                        core,
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_fabric_size_is_a_run_error_not_a_panic() {
        for hosts in [1, MAX_HOSTS + 1] {
            let mut w = World::new(SimConfig {
                fabric: Some(FabricConfig::neutral(hosts)),
                ..SimConfig::default()
            });
            let err = w
                .try_run(Duration::from_millis(1), Duration::from_millis(1))
                .unwrap_err();
            assert_eq!(err.kind, RunErrorKind::BadTopology, "{hosts} hosts");
            assert!(err.detail.contains("fabric of"), "{}", err.detail);
        }
        let w = World::new(SimConfig {
            fabric: Some(FabricConfig::neutral(MAX_HOSTS)),
            ..SimConfig::default()
        });
        assert!(w.topo_error.is_none());
    }

    #[test]
    fn segment_slab_recycles_slots() {
        let mut w = World::new(SimConfig::default());
        let flow = w.add_flow(FlowSpec::between(0, 0, 1, 0));
        w.add_app(0, 0, AppSpec::LongSender { flow });
        w.add_app(1, 0, AppSpec::LongReceiver { flow });
        w.run(Duration::from_millis(5), Duration::from_millis(8));
        // A new slot is pushed only when none is free, so the slab's length
        // is the peak number of frames on the wire at once: a handful for
        // one flow on a 2 µs wire, against ~10k frames sent.
        let frames = w.wire.total_frames();
        let high_water = w.in_flight.segs.len() as u64;
        assert!(w.in_flight.live() as u64 <= high_water);
        assert!(
            (1..=64).contains(&high_water) && high_water * 100 < frames,
            "{high_water} slots for {frames} frames"
        );
    }
}
