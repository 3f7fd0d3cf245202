//! The simulation world: the hosts, the wire between them, and the event
//! loop that drives every pipeline stage of the paper's Fig. 1. The wire is
//! always a ToR switch model ([`crate::fabric::Fabric`]) whose ports carry
//! the rate, propagation and faults of [`SimConfig::link`]. By default it
//! is a neutral two-port switch, frame-for-frame the paper's back-to-back
//! cable; configuring [`SimConfig::fabric`] puts N hosts behind it for
//! incast experiments.
//!
//! This file holds the world's state, its construction and the event loop;
//! the handlers live in child modules along the paper's pipeline: `tx`
//! (application write to the wire), `rx` (NIC arrival to application read),
//! `timers` (fault windows and each flow's RTO, delayed-ACK and pacing
//! timers), `apps` (application steps), `report` (the housekeeping tick,
//! the watchdog and the report), `churn` (connection lifecycle) and
//! `audit` (the invariant auditor).
//!
//! # Execution model
//!
//! Cores execute *steps*: a step is one scheduling quantum of a context
//! (one NAPI sub-batch for the softirq, one syscall's worth of work for an
//! application thread). `Dispatch` picks the next context via
//! [`hns_sched::Scheduler`], executes its step immediately (mutating world
//! state and charging cycles), and reserves the key of the step's end, its
//! simulated duration ahead. All side effects apply at step start; the
//! step's cycle cost is what occupies the core. When work waits at the
//! step's end (the context stays runnable, or a thread, softirq or frame
//! waits for the core), a `StepDone` is filed under that key: it requeues
//! or blocks the context and dispatches again. Otherwise the core holds
//! the key (`CoreData::step_end`), and the first handler that could give
//! the core work (`World::settle`) either completes the step, when the key
//! sorts before the event being handled, or files the `StepDone` under it.
//! Either way the step ends at the same `(time, seq)` as a filed one, and
//! a core that goes idle after its step costs no event.
//!
//! Packets move as whole frames: the sender path enqueues post-TSO frames
//! on the NIC [`TxArbiter`]; each host's NIC drain serializes them onto the
//! [`Fabric`] one frame at a time; their arrival lands them in an Rx
//! descriptor, DMAs them (into the DCA cache when eligible), and raises an
//! IRQ subject to NAPI masking. Drains, arrivals and IRQs are FIFO streams,
//! as are the churn engine's connection-timer carriers filed one fixed RTO
//! ahead, so they ride event lanes off the timer wheel and merge with it in
//! `(time, seq)` order (see `World::lanes`).

#![warn(clippy::too_many_lines)]

use hns_conn::Conn;
use hns_metrics::{Category, CycleBreakdown, DropStats, Report};
use hns_nic::link::LinkConfig;
use hns_nic::TxArbiter;
use hns_proto::{ConnPhase, FlowId, SackBlocks, Segment, SegmentKind};
use hns_sched::Task;
use hns_sim::{cycles_to_time, Duration, EventKey, EventQueue, Lanes, Next, SimTime, MAX_LANES};
use hns_trace::TraceCollector;

use crate::app::{AppInstance, AppSpec};
use crate::config::{DatapathKind, SimConfig};
use crate::costs::CostModel;
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
    /// The running step on (host, core) completed. Filed at step start
    /// when work waits at the step's end, else only when work reaches the
    /// core before the end (see `World::settle`).
    StepDone { host: u8, core: u16 },
    /// A frame arrives at the NIC of `dst`; its segment waits in
    /// [`SegmentSlab`] slot `slot`. Only a frame that overtakes an earlier
    /// one on the wire (a latency spike just ended) is an event; the rest
    /// ride `dst`'s arrival lane.
    FrameArrive { dst: u8, slot: u32 },
    /// A flow's retransmission timer: fires its recorded key, or is
    /// re-filed under it when the deadline moved out (see `handle_rto`).
    Rto { flow: u32 },
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
    /// A connection's one pending retransmit-timer event (its carrier),
    /// re-filed on the wheel under the timer's key when that key is due
    /// within one RTO (a carrier filed one fixed RTO ahead rides
    /// [`CONN_TIMER_LANE`] instead). It expires the timer only when it
    /// fires at exactly the recorded key (see `conn_timer`).
    ConnTimer { conn: u64 },
    /// A connection's backoff carrier: filed on the wheel under a backoff
    /// retry's own key, at most one per connection. It yields to a pending
    /// `ConnTimer`, which a later, nearer arm files.
    ConnBackoff { conn: u64 },
    /// A slow client's think deadline: a one-shot event at the key the
    /// record holds, stale if the record holds another.
    ConnThink { conn: u64 },
    /// Periodic TIME_WAIT reaper cadence (churn workloads).
    TimeWaitTick,
    /// Periodic idle-connection reaper cadence (overload model).
    IdleReapTick,
}

/// One turn of the event loop: a queued event, or a lane's head with its
/// value.
enum Fire {
    Event(Event),
    Lane(usize, u64),
}

/// The world's event lanes. Each is FIFO by construction: a host's NIC
/// drain is pending at most once and re-arms at a monotone wire clock, a
/// switch port delivers at its monotone `busy_until` plus a constant
/// propagation, and every IRQ and every connection-timer carrier on its
/// lane fires a constant delay after `now`. Lane 0 carries the IRQs (value:
/// [`irq_value`]) and lane 1 the connection-timer carriers filed one
/// `ChurnConfig::syn_rto` ahead (value: the packed connection id); host `h`
/// drains on lane `2 + 2h` and receives frames (value: the segment slot)
/// on lane `3 + 2h`.
const IRQ_LANE: usize = 0;
const CONN_TIMER_LANE: usize = 1;
const _: () = assert!(3 + 2 * (MAX_HOSTS as usize - 1) < MAX_LANES);

fn drain_lane(h: usize) -> usize {
    2 + 2 * h
}

fn arrival_lane(h: usize) -> usize {
    3 + 2 * h
}

/// An IRQ lane value: the interrupted host and core.
fn irq_value(host: usize, core: u16) -> u64 {
    (host as u64) << 16 | core as u64
}

// Every queued event is stored, cascaded, sorted and drained by value, so
// its size is the event queue's memory traffic. Segments ride the wheel by
// slot index for this reason; the largest variants carry one `u64`.
const _: () = assert!(std::mem::size_of::<Event>() <= 16);
// The same holds for the softirq backlog, which queues slots, not segments.
const _: () = assert!(std::mem::size_of::<PendingFrame>() <= 16);
// A window of in-flight frames costs one record each in the segment slab
// (a full `Segment` is 104 B, 56 B of them ACK-only SACK blocks).
const _: () = assert!(std::mem::size_of::<WireRecord>() <= 40);

/// What a parked frame is, as its routing needs it.
#[derive(Clone, Copy)]
enum FrameKind {
    Data,
    Ack,
    Conn,
}

/// [`WireRecord::tag`] of a data segment; an ACK's is [`TAG_ACK`], and a
/// lifecycle segment's is its phase's ([`conn_tag`]).
const TAG_DATA: u8 = 0;
const TAG_ACK: u8 = 1;
/// [`WireRecord::flags`] bits.
const RETRANSMIT: u8 = 1;
const ECN_ECHO: u8 = 2;
const ECN_CE: u8 = 4;
/// [`WireRecord::arg`] of an ACK that carries no SACK blocks.
const NO_SACK: u32 = u32::MAX;

/// A parked [`Segment`] in 40 B: what every frame has, plus one `u32`
/// whose meaning the tag gives. The SACK blocks only some ACKs carry wait
/// in the slab's side table ([`SegmentSlab::sacks`]).
#[derive(Clone, Copy)]
struct WireRecord {
    flow: FlowId,
    trace: u64,
    /// Data: the stream offset of the first payload byte. ACK: the
    /// cumulative ACK. Lifecycle: 0.
    seq: u64,
    /// ACK: the advertised window. Otherwise 0.
    window: u64,
    /// Data and lifecycle: payload bytes. ACK: the side-table index of its
    /// SACK blocks, or [`NO_SACK`].
    arg: u32,
    /// [`TAG_DATA`], [`TAG_ACK`] or a lifecycle phase's [`conn_tag`].
    tag: u8,
    /// [`RETRANSMIT`], [`ECN_ECHO`] and [`ECN_CE`].
    flags: u8,
}

impl WireRecord {
    fn kind(&self) -> FrameKind {
        match self.tag {
            TAG_DATA => FrameKind::Data,
            TAG_ACK => FrameKind::Ack,
            _ => FrameKind::Conn,
        }
    }

    /// Payload bytes (0 for an ACK).
    fn payload_len(&self) -> u32 {
        if self.tag == TAG_ACK {
            0
        } else {
            self.arg
        }
    }

    /// The side-table index of this ACK's SACK blocks.
    fn sack_index(&self) -> Option<u32> {
        (self.tag == TAG_ACK && self.arg != NO_SACK).then_some(self.arg)
    }

    /// Whether flag bit `flag` ([`RETRANSMIT`], [`ECN_ECHO`], [`ECN_CE`])
    /// is set.
    fn has(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }

    /// A lifecycle record's phase.
    fn phase(&self) -> ConnPhase {
        conn_phase(self.tag, self.arg)
    }
}

/// A lifecycle phase's [`WireRecord::tag`] and payload length.
fn conn_tag(phase: ConnPhase) -> (u8, u32) {
    let tag = match phase {
        ConnPhase::Syn => 2,
        ConnPhase::SynAck => 3,
        ConnPhase::SynAckCookie => 4,
        ConnPhase::HsAck => 5,
        ConnPhase::CookieAck => 6,
        ConnPhase::Reset => 7,
        ConnPhase::Request { .. } => 8,
        ConnPhase::Response { .. } => 9,
        ConnPhase::Fin => 10,
        ConnPhase::FinAck => 11,
    };
    (tag, phase.payload_len())
}

/// The lifecycle phase [`conn_tag`] gave `tag` and `len`.
fn conn_phase(tag: u8, len: u32) -> ConnPhase {
    match tag {
        2 => ConnPhase::Syn,
        3 => ConnPhase::SynAck,
        4 => ConnPhase::SynAckCookie,
        5 => ConnPhase::HsAck,
        6 => ConnPhase::CookieAck,
        7 => ConnPhase::Reset,
        8 => ConnPhase::Request { len },
        9 => ConnPhase::Response { len },
        10 => ConnPhase::Fin,
        11 => ConnPhase::FinAck,
        _ => unreachable!("tag {tag} names no lifecycle phase"),
    }
}

/// Store `item` in a vacated index of `items`, else at its end; return the
/// index.
fn put<T>(items: &mut Vec<T>, free: &mut Vec<u32>, item: T) -> u32 {
    match free.pop() {
        Some(i) => {
            items[i as usize] = item;
            i
        }
        None => {
            items.push(item);
            (items.len() - 1) as u32
        }
    }
}

/// Segments between the NIC and the NAPI poll. The stack parks a segment
/// once, when it hands the frame to the NIC; the Tx queues, the frame's
/// arrival and the softirq backlog then carry its `u32` slot,
/// so a frame's segment is written once and read once however many queues
/// it crosses. The drain, the arrival and the NAPI poll read the
/// [`WireRecord`] in place; only an ACK that carries SACK blocks copies
/// them out of the side table ([`SegmentSlab::sack`]). Slots and
/// side-table entries are reused LIFO. Each slot is freed exactly once,
/// with its SACK entry, by [`SegmentSlab::release`]: at the NAPI poll, or
/// on the path that drops the frame (wire loss, switch refusal, stale
/// connection frame, backlog cap, full Rx ring). Slots still parked at
/// `EndRun` drop with the world.
#[derive(Default)]
struct SegmentSlab {
    /// Slot storage; its length is the high-water mark of frames between
    /// Tx enqueue and the poll.
    recs: Vec<WireRecord>,
    /// Vacated slots awaiting reuse.
    free: Vec<u32>,
    /// The SACK blocks of parked ACKs that carry any; a loss-free run
    /// never allocates it.
    sacks: Vec<SackBlocks>,
    /// Vacated side-table entries awaiting reuse.
    free_sacks: Vec<u32>,
}

impl SegmentSlab {
    /// Park `seg` and return its slot.
    #[inline]
    fn park(&mut self, seg: Segment) -> u32 {
        let mut flags = if seg.ecn_ce { ECN_CE } else { 0 };
        let (tag, seq, window, arg) = match seg.kind {
            SegmentKind::Data {
                seq,
                len,
                retransmit,
            } => {
                if retransmit {
                    flags |= RETRANSMIT;
                }
                (TAG_DATA, seq, 0, len)
            }
            SegmentKind::Ack {
                ack,
                window,
                ecn_echo,
                sack,
            } => {
                if ecn_echo {
                    flags |= ECN_ECHO;
                }
                let arg = if sack.is_empty() {
                    NO_SACK
                } else {
                    put(&mut self.sacks, &mut self.free_sacks, sack)
                };
                (TAG_ACK, ack, window, arg)
            }
            SegmentKind::Conn { phase } => {
                let (tag, len) = conn_tag(phase);
                (tag, 0, 0, len)
            }
        };
        let rec = WireRecord {
            flow: seg.flow,
            trace: seg.trace,
            seq,
            window,
            arg,
            tag,
            flags,
        };
        put(&mut self.recs, &mut self.free, rec)
    }

    /// The record parked in `slot`.
    #[inline]
    fn record(&self, slot: u32) -> &WireRecord {
        &self.recs[slot as usize]
    }

    /// The network marked the frame in `slot` Congestion Experienced.
    fn mark_ce(&mut self, slot: u32) {
        self.recs[slot as usize].flags |= ECN_CE;
    }

    /// The SACK blocks the ACK record `rec` carries (none for any other
    /// record). Read them before the slot is released.
    #[inline]
    fn sack(&self, rec: &WireRecord) -> SackBlocks {
        match rec.sack_index() {
            Some(i) => self.sacks[i as usize],
            None => SackBlocks::EMPTY,
        }
    }

    /// Free `slot` and its SACK entry: its frame was polled or dropped.
    #[inline]
    fn release(&mut self, slot: u32) {
        self.free.push(slot);
        if let Some(i) = self.recs[slot as usize].sack_index() {
            self.free_sacks.push(i);
        }
    }

    /// Slots currently holding a segment.
    fn live(&self) -> usize {
        self.recs.len() - self.free.len()
    }

    /// Side-table entries currently holding an ACK's SACK blocks.
    fn live_sacks(&self) -> usize {
        self.sacks.len() - self.free_sacks.len()
    }

    /// Live ACK records that name a side-table entry. A vacated slot keeps
    /// its last record, so the free list's are counted out.
    fn sack_refs(&self) -> usize {
        let names = |slot: &u32| self.recs[*slot as usize].sack_index().is_some();
        let all = (0..self.recs.len() as u32).filter(names).count();
        all - self.free.iter().filter(|s| names(s)).count()
    }
}

mod apps;
mod audit;
mod churn;
mod report;
mod rx;
mod timers;
mod tx;

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

/// Watchdog: events fired at one sim-time instant before declaring a
/// zero-delay rescheduling storm. Healthy runs see at most a few thousand
/// same-instant events (one softirq step across every core).
const STORM_LIMIT: u64 = 5_000_000;

/// Watchdog: pending-event count past which the queue is declared leaking.
/// Steady state holds a few events per flow plus a few per core.
const LEAK_LIMIT: usize = 10_000_000;

/// Live-snapshot subscriber callback (see [`World::set_monitor_emit`]).
pub type MonitorEmit = Box<dyn FnMut(&hns_monitor::MonitorSnapshot)>;

/// The assembled simulation.
pub struct World {
    /// Experiment configuration.
    pub cfg: SimConfig,
    /// Cycle-cost model: the configured backend's cost table
    /// (`DatapathKind::cost_model`), which zeroes what the host does not
    /// pay under it.
    pub cost: CostModel,
    /// The configured datapath backend ([`SimConfig::datapath`]). Its cost
    /// table prices every charge; it decides only what moves or is
    /// recorded: copies, descriptor rings, polling and aggregation.
    dp: DatapathKind,
    /// Per-host Tx descriptor rings for the offload backends: posted at
    /// segment emission, completed when the NIC serializes the frame onto
    /// the wire, harvested (and charged) at the next emission. Sized so
    /// they never backpressure the window-bounded sender; they meter
    /// descriptor-bookkeeping cycles rather than gate transmission.
    descrings: Vec<hns_nic::DescRing>,
    queue: EventQueue<Event>,
    /// The key of the event being handled, lane entries included: a held
    /// step end that sorts before it has passed (see [`World::settle`]).
    firing: EventKey,
    /// Events that are FIFO by construction and never cancelled (see
    /// [`IRQ_LANE`]), kept off the wheel under keys reserved from the
    /// queue's own sequence counter; the event loop merges the earliest
    /// lane head with the queue head in `(time, seq)` order.
    lanes: Lanes<u64>,
    hosts: Vec<Host>,
    wire: Fabric,
    /// Per-host NIC Tx queues, holding [`SegmentSlab`] slots.
    arbiters: Vec<TxArbiter<u32>>,
    /// Segments handed to a NIC and not yet polled: Tx-queued, on the
    /// wire, or waiting in a softirq backlog.
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
    /// The out-of-range host sizing, or else the first out-of-range
    /// host/core reference seen while installing the scenario; `try_run`
    /// reports it as [`RunErrorKind::BadTopology`] before simulating
    /// anything (the offending value is clamped so world structures stay
    /// consistent, but never runs).
    topo_error: Option<String>,
    label: String,
    /// Skb allocation cache: recycled frag vectors ([`FragPool`]). One per
    /// world, so recycling is deterministic and unsynchronized.
    frag_pool: crate::skb::FragPool,
    /// Reusable output buffer for GRO offer/flush in the softirq loop
    /// (avoids a `Vec` allocation per offered frame).
    gro_scratch: Vec<RxSkb>,
    /// Per-skb lifecycle tracer (`hns-trace`), disabled by default. Hooks
    /// call it unguarded: off, it hands out only `NO_SKB`, at which
    /// `stamp`/`close` return. Only code holding no id (`drain_trace`,
    /// `build_report`) asks whether it is on. Stamps never charge cycles,
    /// so behaviour is identical with tracing on or off.
    trace: TraceCollector,
    /// Connection-lifecycle engine (`hns-conn`), present when the config
    /// carries a churn workload.
    churn: Option<Box<churn::ChurnEngine>>,
    /// Invariant-auditor counters (`SimConfig::audit`). Each hook is one
    /// branch on the option: counter bumps through `audit.as_deref_mut()`,
    /// and `audit_pop`/`audit_check`, which return at `None`.
    audit: Option<Box<audit::AuditState>>,
    /// Streaming-telemetry fold (`SimConfig::monitor`). The code that
    /// feeds it (`monitor_tick`, `drain_trace`, `end_warmup`) checks for it
    /// itself; callers never do.
    monitor: Option<Box<hns_monitor::MonitorState>>,
    /// Live snapshot subscriber (`hostnet run --monitor-ms`). Called with
    /// each emitted interval snapshot; absent for batch runs, which read
    /// the roll-up from the report instead.
    monitor_emit: Option<MonitorEmit>,
}

impl World {
    /// Build an empty world from a configuration. A fabric sized outside
    /// `2..=MAX_HOSTS` is clamped into range, a link rate that cannot
    /// serialize a frame builds a default-rate wire, and an MTU, Rx ring
    /// or write size out of range is clamped into it, so the world's
    /// structures stay indexable; [`World::try_run`] reports each as
    /// [`RunErrorKind::BadTopology`].
    pub fn new(mut cfg: SimConfig) -> Self {
        let sizing_error = cfg.clamp_host_sizing();
        let cores = cfg.topology.total_cores() as usize;
        let nhosts = cfg.hosts().clamp(2, MAX_HOSTS as usize);
        let mut link = cfg.link;
        if !link.rate_is_valid() {
            link.gbps = LinkConfig::default().gbps;
        }
        World {
            cost: cfg.datapath.cost_model(),
            dp: cfg.datapath,
            descrings: (0..nhosts)
                .map(|_| hns_nic::DescRing::new(1 << 16))
                .collect(),
            queue: EventQueue::new(),
            firing: EventKey::NONE,
            lanes: Lanes::new(),
            hosts: (0..nhosts).map(|h| Host::new(h, &cfg)).collect(),
            wire: Fabric::with_link(
                FabricConfig {
                    hosts: nhosts as u16,
                    ..cfg.fabric.unwrap_or_default()
                },
                link,
                cfg.seed,
            ),
            arbiters: (0..nhosts).map(|_| TxArbiter::new(cores)).collect(),
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
            topo_error: sizing_error,
            label: String::new(),
            frag_pool: crate::skb::FragPool::new(),
            gro_scratch: Vec::new(),
            trace: TraceCollector::new(cfg.trace, nhosts, cores),
            churn: cfg
                .churn
                .map(|c| Box::new(churn::ChurnEngine::new(c, cores, cfg.seed))),
            audit: cfg.audit.then(|| Box::new(audit::AuditState::new(nhosts))),
            // An invalid monitor config builds nothing; `try_run` reports it.
            monitor: cfg
                .monitor
                .filter(|m| m.validate().is_ok())
                .map(|m| Box::new(hns_monitor::MonitorState::new(m))),
            monitor_emit: None,
            cfg,
        }
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
            let bad = spec.src_core.max(spec.dst_core);
            self.topology_error(format!(
                "flow {id}: src_core {} / dst_core {} out of range ({})",
                spec.src_core,
                spec.dst_core,
                self.missing_core(bad)
            ));
            spec.src_core = spec.src_core.min(cores - 1);
            spec.dst_core = spec.dst_core.min(cores - 1);
        }
        spec
    }

    /// Why `core` is out of range: the NUMA node it would sit on, which
    /// the hosts lack.
    fn missing_core(&self, core: u16) -> String {
        let t = self.cfg.topology;
        let node = core / t.cores_per_node as u16;
        format!(
            "core {core} would be on NUMA node {node}; hosts have {} node(s) of {} cores",
            t.nodes, t.cores_per_node
        )
    }

    /// Register a flow. Returns its id. Host/core indices outside the
    /// configured topology are reported by [`World::try_run`] as
    /// [`RunErrorKind::BadTopology`] instead of panicking here.
    pub fn add_flow(&mut self, spec: FlowSpec) -> FlowId {
        let id = self.flows.len() as FlowId;
        let spec = self.validated_flow_spec(id, spec);
        let flow = Flow::new(id, spec, &self.cfg, id as u16);
        let host = &mut self.hosts[spec.src_host];
        let node = host.cores[spec.src_core as usize].node;
        host.node_sender_flows[node as usize] += 1;
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
            self.topology_error(format!(
                "app {}: core {core} out of range ({})",
                self.apps.len(),
                self.missing_core(core)
            ));
            core = self.cfg.topology.total_cores() - 1;
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
        self.cfg.validate()?;
        if let Some(detail) = self.topo_error.clone() {
            return Err(RunError::preflight(RunErrorKind::BadTopology, detail));
        }
        self.arm_faults();
        self.with_churn(World::arm_churn);
        self.trace.set_window_start(SimTime::ZERO + warmup);
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
        // Kick every application awake at t=0, in app order.
        for a in &self.apps {
            self.hosts[a.host].sched.wake_thread(a.tid);
            self.queue.schedule(
                SimTime::ZERO,
                Event::Dispatch {
                    host: a.host as u8,
                    core: a.core,
                },
            );
        }

        while !self.finished {
            // The queue head or the earliest lane head, whichever sorts
            // first; a lane entry leaves its lane before the checks below,
            // as a popped event leaves the queue.
            let (key, fire) = match self.queue.pop_before(self.lanes.peek()) {
                Next::Event(key, ev) => (key, Fire::Event(ev)),
                Next::External(key) => {
                    let (lane, value) = self.lanes.pop().expect("peeked lane");
                    (key, Fire::Lane(lane, value))
                }
                Next::Empty => break, // deadlock-free exhaustion (tests)
            };
            self.firing = key;
            let t = key.time;
            self.audit_pop(t);
            if self.finished {
                break;
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
                break;
            }
            if self.queue.len() + self.lanes.len() > LEAK_LIMIT {
                self.trip(
                    RunErrorKind::QueueLeak,
                    format!("event queue grew past {LEAK_LIMIT}"),
                );
                break;
            }
            match fire {
                Fire::Event(ev) => self.handle(ev, key),
                Fire::Lane(IRQ_LANE, v) => {
                    self.raise_softirq((v >> 16) as usize, v as u16 as usize)
                }
                Fire::Lane(CONN_TIMER_LANE, conn) => {
                    self.with_churn(|w, eng| w.conn_timer(eng, conn, key, Conn::QUEUED))
                }
                Fire::Lane(lane, _) if lane % 2 == 0 => self.tx_drain(lane / 2 - 1),
                Fire::Lane(lane, slot) => self.frame_arrive(lane / 2 - 1, slot as u32),
            }
        }
        if self.run_error.is_none() {
            self.audit_check(true);
        }
        match self.run_error.take() {
            Some(e) => Err(e),
            None => Ok(self.build_report()),
        }
    }

    /// Apply / schedule every fault window of the validated fault plan.
    fn arm_faults(&mut self) {
        for kind in [FaultKind::Ring, FaultKind::Pool, FaultKind::Stall] {
            self.fault_tick(kind);
        }
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
        let stuck_flows = self
            .flows
            .iter()
            .filter(|f| !f.sender.all_acked())
            .take(8)
            .map(|f| StuckFlow {
                flow: f.id,
                in_flight: f.sender.in_flight(),
                unsent: f.sender.unsent(),
            })
            .collect();
        // A held step end that has not passed counts as the `StepDone`
        // it stands for.
        let held = self
            .hosts
            .iter()
            .flat_map(|h| h.cores.iter())
            .filter(|c| c.step_end != EventKey::NONE && c.step_end > self.firing)
            .count();
        Snapshot {
            queue_len: self.queue.len() + self.lanes.len() + held,
            backlog_frames: self.backlog_frames(),
            stuck_flows,
            wire_frames: self.wire.frames(),
            retransmissions: self.flows.iter().map(|f| f.sender.retransmissions).sum(),
        }
    }

    /// Frames waiting in every softirq backlog.
    fn backlog_frames(&self) -> u64 {
        let cores = self.hosts.iter().flat_map(|h| h.cores.iter());
        cores.map(|c| c.backlog.len() as u64).sum()
    }

    /// Run the handler of `ev`, which fired under `key`.
    fn handle(&mut self, ev: Event, key: EventKey) {
        match ev {
            Event::Dispatch { host, core } => self.dispatch(host as usize, core as usize),
            Event::StepDone { host, core } => self.step_done(host as usize, core as usize),
            Event::FrameArrive { dst, slot } => self.frame_arrive(dst as usize, slot),
            Event::Rto { flow } => self.handle_rto(flow as usize),
            Event::DelAck { flow } => self.handle_delack(flow as usize),
            Event::PacerFire { flow } => self.pacer_fire(flow as usize),
            Event::OpenLoopArrival { app } => self.open_loop_arrival(app as usize),
            Event::AutotuneTick => self.autotune_tick(),
            Event::EndWarmup => self.end_warmup(),
            Event::EndRun => {
                self.drain_trace();
                self.finished = true;
            }
            Event::FaultTick { kind } => self.fault_tick(kind),
            Event::ConnArrival => self.with_churn(World::conn_arrival),
            Event::ConnTimer { conn } => {
                self.with_churn(|w, eng| w.conn_timer(eng, conn, key, Conn::QUEUED))
            }
            Event::ConnBackoff { conn } => {
                self.with_churn(|w, eng| w.conn_timer(eng, conn, key, Conn::BACKOFF))
            }
            Event::ConnThink { conn } => self.with_churn(|w, eng| w.conn_think(eng, conn, key)),
            Event::TimeWaitTick => self.with_churn(World::time_wait_tick),
            Event::IdleReapTick => self.with_churn(World::idle_reap_tick),
        }
    }

    /// Charge a batch of cycles to (host, core): its breakdown, its busy
    /// time, and the auditor's count of charges. Returns the busy time
    /// added. A scheduled step charges through here, and so does work
    /// charged outside any step: timer, arrival and recovery work that is
    /// frequent enough to cost CPU but too rare to occupy the scheduler.
    fn charge_core(&mut self, h: usize, core: usize, ch: CycleBreakdown) -> Duration {
        let cd = &mut self.hosts[h].cores[core];
        cd.breakdown += ch;
        let span = cycles_to_time(ch.total());
        cd.usage.add_busy(span);
        if let Some(a) = self.audit.as_deref_mut() {
            a.charge_calls[h] += 1;
        }
        span
    }

    fn dispatch(&mut self, h: usize, core: usize) {
        self.settle(h, core);
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
        let mut charges = CycleBreakdown::default();
        if picked.switched {
            charges.charge(Category::Sched, self.cost.context_switch);
        }
        let runnable = match picked.task {
            Task::Softirq => self.exec_softirq(h, core, &mut charges),
            Task::Thread(tid) => self.exec_app(h, core, tid, &mut charges),
        };
        self.hosts[h].cores[core].pending_runnable = runnable;
        let span = self.charge_core(h, core, charges);
        let end = self.queue.reserve(self.queue.now() + span);
        let host = &mut self.hosts[h];
        let cd = &mut host.cores[core];
        let quiet = !runnable && cd.backlog.is_empty() && cd.pacer_ready.is_empty();
        if quiet && host.sched.nothing_waiting(core) {
            cd.step_end = end;
        } else {
            let (host, core) = (h as u8, core as u16);
            self.queue.schedule_key(end, Event::StepDone { host, core });
        }
    }

    /// Settle the step end (host `h`, `core`) holds, if any, before a
    /// handler gives the core work or reads what its `StepDone` changes.
    #[inline]
    fn settle(&mut self, h: usize, core: usize) {
        if self.hosts[h].cores[core].step_end != EventKey::NONE {
            self.settle_held(h, core);
        }
    }

    /// [`Self::settle`]'s slow path. A held end that sorts before the event
    /// being handled has passed: complete the step as its `StepDone` would
    /// have, which leaves the core idle (nothing waited, so the dispatch
    /// that follows a `StepDone` would pick nothing). A later end is filed
    /// as the `StepDone` under its key.
    #[inline(never)]
    fn settle_held(&mut self, h: usize, core: usize) {
        let end = std::mem::replace(&mut self.hosts[h].cores[core].step_end, EventKey::NONE);
        if end > self.firing {
            let (host, core) = (h as u8, core as u16);
            self.queue.schedule_key(end, Event::StepDone { host, core });
            return;
        }
        let host = &mut self.hosts[h];
        if host.sched.running(core) == Some(Task::Softirq) {
            host.coalescer.napi_complete(core);
        }
        host.sched.step_done(core, false);
        debug_assert!(
            host.sched.is_fully_idle(core),
            "host {h} core {core}: work waited behind a held step end"
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

    /// Queue `value` on `lane` at `at`, under a key reserved where
    /// `schedule` would take one, so it fires where the same event on the
    /// wheel would. A refused key hands `value` back.
    fn try_lane_push(&mut self, lane: usize, at: SimTime, value: u64) -> Result<(), u64> {
        let key = self.queue.reserve(at);
        self.lanes.push(lane, key, value)
    }

    /// [`Self::try_lane_push`] on a lane whose times never fall (a host's
    /// drain, the IRQ and connection-timer lanes): a refusal is a logic
    /// error.
    fn lane_push(&mut self, lane: usize, at: SimTime, value: u64) {
        let key = self.queue.reserve(at);
        self.lane_file(lane, key, value);
    }

    /// Queue `value` on such a lane under a key reserved earlier (the
    /// latest one reserved for the lane, so the lane stays FIFO).
    fn lane_file(&mut self, lane: usize, key: EventKey, value: u64) {
        if self.lanes.push(lane, key, value).is_err() {
            panic!("lane {lane} refused a key at {:?}", key.time);
        }
    }

    /// Wake thread `tid` on host `h`, charging wakeup cost to the waker.
    fn wake(&mut self, h: usize, tid: u32, ch: &mut CycleBreakdown) {
        self.settle(h, self.hosts[h].sched.thread_core(tid) as usize);
        if let Some(core_was_idle) = self.hosts[h].sched.wake_thread(tid) {
            ch.charge(Category::Sched, self.cost.wakeup);
            if core_was_idle {
                let (host, core) = (h as u8, self.hosts[h].sched.thread_core(tid));
                self.queue
                    .schedule(self.queue.now(), Event::Dispatch { host, core });
            }
        }
    }
}

#[cfg(test)]
mod tests;
