//! Connection-lifecycle engine: `hns-conn` wired into the world.
//!
//! A child module of `world` so it can reach the event loop's private state
//! (queue, hosts, tracer) without widening visibility. The engine drives an
//! open-loop Poisson process of connection arrivals; each connection walks
//! the full SYN / SYN-ACK / accept / FIN / TIME_WAIT lifecycle with every
//! transition priced into the paper's 8-category cycle taxonomy, and every
//! lifecycle segment travels the simulated wire as a real frame — it is
//! serialized by the link, subject to the loss model (so injected SYN drops
//! exercise the retransmit path), and consumes an Rx descriptor at the
//! receiving NIC.
//!
//! A churn event takes the engine out of `World::churn` once
//! ([`World::with_churn`]) and hands `&mut ChurnEngine` to every handler
//! it reaches, so handlers touch engine state directly and never re-check
//! that a churn workload is configured.
//!
//! Execution contexts mirror the kernel's:
//!
//! * **Arrival / timer / reaper work** (connect(), retransmit timers, the
//!   TIME_WAIT reaper) charges its cycles directly to the owning core, like
//!   the RTO path — frequent enough to cost CPU, rare enough not to occupy
//!   the scheduler.
//! * **Segment receive work** runs inside the softirq step that polled the
//!   frame, so handshake processing competes with data-path NAPI work for
//!   the same cores.
//!
//! Reliability is client-driven: one timer per connection covers SYN,
//! request, and FIN retransmission with exponential backoff. An arm only
//! records the timer's key (`Conn::timer`, reserved where a plain schedule
//! would take it) and files an event, a *carrier*, only when none covers
//! the key, the same discipline as the flow RTO. A first transmission's
//! carrier is filed at its key, one fixed `syn_rto` ahead — those times
//! never fall, so it rides a FIFO event lane (`Conn::QUEUED`) — and every
//! arm is at least `syn_rto` ahead, so that carrier fires at or before any
//! later key; fired early, it is re-filed toward the key. A backoff retry's
//! carrier is a `ConnBackoff` on the wheel at its own key (`Conn::BACKOFF`);
//! a nearer arm while it waits files a lane carrier, which then covers the
//! key (see [`World::conn_timer`]). The timer thus expires at its own
//! `(time, seq)`. A slow client's think deadline is a one-shot `ConnThink`
//! event on the wheel. The server is duplicate-tolerant — a resent SYN gets
//! the SYN-ACK again, a resent request gets the response again, a FIN to an
//! already-closed half gets its FIN-ACK again — so any single loss heals.

use std::collections::{HashMap, VecDeque};

use hns_conn::overload::{
    bounded_pareto, reap_scan, syn_cookie, think_time_ns, MINISOCK_BYTES, SOCK_BYTES, THINK_CAP,
    THINK_MIN, THINK_SHAPE,
};
use hns_conn::{
    AcceptQueue, AdmissionPolicy, ChurnConfig, ChurnMode, ChurnStats, Conn, ConnCostModel, ConnId,
    EpollAccounting, FlowTable, HalfConn, MemBudget, RpcSizeDist, TimeWaitRing,
};
use hns_mem::numa::MemClass;
use hns_metrics::{Category, CycleBreakdown};
use hns_proto::{ConnPhase, Segment};
use hns_sim::{Duration, EventKey, SimTime};
use hns_trace::StageId;

use super::{Event, World, CONN_TIMER_LANE};

/// Clients run on host 0, servers on host 1 (matching the long-flow world
/// where host 0 sends and host 1 receives).
const CLIENT_HOST: usize = 0;
const SERVER_HOST: usize = 1;

/// Retransmissions of a client's pending segment (SYN, request or FIN)
/// before it gives up: a handshake fails, a later phase closes unclean.
const SYN_RETRY_MAX: u8 = 6;

/// Flow-table shard count.
const SHARDS: u16 = 64;

/// Outcome of the server-side establish attempt for a handshake-completing
/// segment (plain ACK, piggybacked first request, or cookie-bearing ACK).
enum Establish {
    /// Newly promoted to Established (`accept()` ran).
    Promoted,
    /// Already established — a duplicate completing segment.
    AlreadyUp,
    /// Admission or memory said no; a RST is on its way to the client.
    Refused,
}

/// The churn engine's state, owned by the world when `SimConfig::churn` is
/// set.
pub(crate) struct ChurnEngine {
    /// The churn workload. `try_run` validates it before any handler runs.
    pub(crate) cfg: ChurnConfig,
    /// Per-transition cycle prices.
    pub(crate) cost: ConnCostModel,
    /// The sharded slab of live connections.
    pub(crate) table: FlowTable,
    /// TIME_WAIT deadline ring (client side; the active closer).
    pub(crate) timewait: TimeWaitRing,
    /// Per-server-core epoll accounting.
    pub(crate) epoll: Vec<EpollAccounting>,
    /// Lifecycle counters and the handshake-latency histogram.
    pub(crate) stats: ChurnStats,
    /// Pool mode: live members, oldest first (the next churn victim).
    pub(crate) pool: VecDeque<u64>,
    /// Connections initiated so far (round-robin core placement + trace
    /// sampling index).
    pub(crate) arrival_seq: u64,
    /// RPC payload bytes delivered to applications during the measurement
    /// window (feeds the report's throughput like long-flow app bytes).
    pub(crate) bytes_delivered: u64,
    /// Epoll counter snapshots at the warmup boundary, so the report covers
    /// only the measurement window.
    epoll_wakeup_base: u64,
    epoll_event_base: u64,
    /// Bounded listen/accept queue (overload model; inert otherwise).
    pub(crate) accept: AcceptQueue,
    /// Server-side connection-memory budget (overload model).
    pub(crate) mem: MemBudget,
    /// Keyed SYN-cookie secret, derived from the run seed so cookies are
    /// reproducible per (seed, connection) regardless of interleaving.
    pub(crate) cookie_secret: u64,
    /// Handshake aborts before the measurement window opened (`stats.failed`
    /// resets there; the audit ledger reconciles the whole-run count).
    pub(crate) aborts_prewindow: u64,
    /// Lifecycle-trace ids of the sampled connections (the records with
    /// `Conn::TRACED`), by packed id: only they need one.
    pub(super) traced: HashMap<u64, u64>,
    /// The idle reaper's scan buffer, reused across ticks.
    reap_buf: Vec<ConnId>,
}

impl ChurnEngine {
    pub(crate) fn new(cfg: ChurnConfig, cores: usize, seed: u64) -> Self {
        let mut table = FlowTable::new(SHARDS);
        if let ChurnMode::Pool { conns } = cfg.mode {
            table.reserve(conns as usize);
        }
        ChurnEngine {
            cfg,
            cost: ConnCostModel::calibrated(),
            table,
            timewait: TimeWaitRing::new(),
            epoll: vec![EpollAccounting::new(); cores],
            stats: ChurnStats::new(),
            pool: VecDeque::new(),
            arrival_seq: 0,
            bytes_delivered: 0,
            epoll_wakeup_base: 0,
            epoll_event_base: 0,
            accept: AcceptQueue::new(cfg.overload.accept_queue),
            mem: MemBudget::new(cfg.overload.mem_budget),
            cookie_secret: seed ^ 0x9e37_79b9_7f4a_7c15,
            aborts_prewindow: 0,
            traced: HashMap::new(),
            reap_buf: Vec::new(),
        }
    }

    /// Sum epoll wakeups/events across server cores.
    fn epoll_totals(&self) -> (u64, u64) {
        self.epoll
            .iter()
            .fold((0, 0), |(w, e), a| (w + a.wakeups(), e + a.events()))
    }

    /// Reset window-scoped counters at the warmup/measurement boundary.
    pub(crate) fn start_window(&mut self) {
        self.aborts_prewindow += self.stats.failed;
        self.stats.reset();
        self.bytes_delivered = 0;
        let (w, e) = self.epoll_totals();
        self.epoll_wakeup_base = w;
        self.epoll_event_base = e;
    }

    /// Epoll wakeups/events within the measurement window.
    fn epoll_window(&self) -> (u64, u64) {
        let (w, e) = self.epoll_totals();
        (w - self.epoll_wakeup_base, e - self.epoll_event_base)
    }

    /// The record of a connection the caller knows is live.
    fn conn(&mut self, raw: u64) -> &mut Conn {
        self.table
            .get_mut(ConnId::from_u64(raw))
            .expect("checked live")
    }

    /// The lifecycle-trace id of a connection whose record carries
    /// `flags`: [`hns_trace::NO_SKB`] unless it is sampled.
    fn trace_id(&self, raw: u64, flags: u8) -> u64 {
        if flags & Conn::TRACED != 0 {
            self.traced[&raw]
        } else {
            hns_trace::NO_SKB
        }
    }

    /// Free a connection's record, returning it with its trace id.
    fn remove(&mut self, id: ConnId) -> Option<(Conn, u64)> {
        let c = self.table.remove(id)?;
        let tid = if c.flags & Conn::TRACED != 0 {
            self.traced.remove(&id.to_u64()).expect("a traced id")
        } else {
            hns_trace::NO_SKB
        };
        Some((c, tid))
    }

    /// Deterministic bounded-Pareto think time for a slow client. Derived
    /// by hashing the connection id under the run-seeded secret rather than
    /// drawing from `workload_rng`, so slow-client pacing never perturbs
    /// the shared arrival stream (policies stay comparable at a seed).
    fn think_delay(&self, raw: u64, salt: u64) -> Duration {
        let x = syn_cookie(self.cookie_secret.rotate_left(29) ^ salt, raw);
        let u = x as f64 / (u32::MAX as f64 + 1.0);
        Duration::from_nanos(think_time_ns(u, THINK_MIN, THINK_SHAPE, THINK_CAP))
    }

    /// Deterministic per-request payload size. Like think times, the draw
    /// hashes the connection id under the run-seeded secret (salt 3) rather
    /// than consuming `workload_rng`, so sizes are policy- and
    /// jobs-invariant and a retransmitted request resends exactly the
    /// length it first sent.
    fn rpc_len(&self, raw: u64) -> u32 {
        match self.cfg.rpc_size_dist {
            RpcSizeDist::Fixed => self.cfg.rpc_size,
            RpcSizeDist::Pareto { min, shape, cap } => {
                let x = syn_cookie(self.cookie_secret.rotate_left(43) ^ 3, raw);
                let u = x as f64 / (u32::MAX as f64 + 1.0);
                bounded_pareto(u, min as f64, shape, cap as f64) as u32
            }
        }
    }

    /// Give back what a server half in state `was` pins under the overload
    /// model: an established socket's bytes, or a pending minisock and its
    /// listen-queue slot.
    fn release_server_half(&mut self, was: HalfConn) {
        if !self.cfg.overload.enabled {
            return;
        }
        match was {
            HalfConn::Established => self.mem.free(SOCK_BYTES),
            HalfConn::SynRcvd => {
                self.mem.free(MINISOCK_BYTES);
                self.accept.release();
            }
            _ => {}
        }
    }
}

impl World {
    /// Run `f` with the churn engine held out of `self.churn`: the one
    /// presence check of a churn event. Nothing runs without a churn
    /// workload. While `f` runs, `self.churn` is `None`.
    pub(super) fn with_churn(&mut self, f: impl FnOnce(&mut World, &mut ChurnEngine)) {
        if let Some(mut eng) = self.churn.take() {
            f(self, &mut eng);
            self.churn = Some(eng);
        }
    }

    /// The engine, for the readers outside the churn handlers (report,
    /// monitor, auditor). A handler holds the engine out of `self.churn`,
    /// so none of them may run inside one.
    pub(super) fn churn_engine(&self) -> Option<&ChurnEngine> {
        debug_assert_eq!(
            self.churn.is_some(),
            self.cfg.churn.is_some(),
            "churn engine read while a handler holds it"
        );
        self.churn.as_deref()
    }

    /// Pre-install the pool of the validated churn plan, and schedule the
    /// first arrival and the TIME_WAIT reaper. Called from `try_run`.
    pub(super) fn arm_churn(&mut self, eng: &mut ChurnEngine) {
        let ccfg = eng.cfg;
        let ncores = self.cfg.topology.total_cores() as u64;
        if let ChurnMode::Pool { conns } = ccfg.mode {
            // Seed the pool fully established — the historical handshakes
            // are not part of the experiment, only the steady-state churn.
            for i in 0..conns as u64 {
                let c = Conn::established(
                    (i % ncores) as u16,
                    ((i + 1) % ncores) as u16,
                    SimTime::ZERO,
                );
                let id = eng.table.install(c);
                eng.pool.push_back(id.to_u64());
            }
        }
        let first = self
            .workload_rng
            .exp(ccfg.mean_interarrival().as_nanos() as f64) as u64;
        self.queue.schedule(
            SimTime::ZERO + Duration::from_nanos(first.max(1)),
            Event::ConnArrival,
        );
        // Both reaper cadences start at the same instant and fire FIFO:
        // TIME_WAIT, then idle reap.
        let first_reap = SimTime::ZERO + ccfg.reap_interval;
        self.queue.schedule(first_reap, Event::TimeWaitTick);
        if ccfg.overload.enabled && !ccfg.overload.idle_timeout.is_zero() {
            self.queue.schedule(first_reap, Event::IdleReapTick);
        }
    }

    /// Steering for connection-lifecycle frames: the owning core from the
    /// flow table (fixed RSS-style placement chosen at open). `None` means
    /// the connection is gone — a late retransmit racing teardown — and
    /// counts the frame as stale.
    pub(super) fn conn_target_core(&mut self, dst: usize, raw: u64) -> Option<u16> {
        let eng = self.churn.as_deref_mut()?;
        let Some(c) = eng.table.get(ConnId::from_u64(raw)) else {
            eng.stats.stale_frames += 1;
            return None;
        };
        Some(if dst == SERVER_HOST {
            c.server_core
        } else {
            c.client_core
        })
    }

    /// End-of-poll-cycle hook: the simulated server thread drained its
    /// `epoll_wait` batch and goes back to sleep.
    pub(super) fn conn_epoll_batch_end(&mut self, h: usize, core: usize) {
        if h != SERVER_HOST {
            return;
        }
        if let Some(eng) = self.churn.as_deref_mut() {
            eng.epoll[core].end_batch();
        }
    }

    /// Arm the connection's retransmit timer `delay` from now (`syn_rto`
    /// for a first transmission, `syn_rto·2^k` for a backoff retry): record
    /// its key, and file a carrier unless a `QUEUED` one is pending — no arm
    /// is less than `syn_rto` ahead, so that one fires at or before the key.
    /// A first transmission files on the connection-timer lane at the key
    /// itself (a pending backoff carrier may be later); a backoff retry
    /// files as [`World::file_carrier`] says.
    fn arm_conn_rto(&mut self, eng: &mut ChurnEngine, raw: u64, delay: Duration) {
        let rto = eng.cfg.syn_rto;
        let Some(c) = eng.table.get_mut(ConnId::from_u64(raw)) else {
            return;
        };
        debug_assert!(delay >= rto, "an arm nearer than syn_rto");
        c.timer = self.queue.reserve(self.queue.now() + delay);
        if c.flags & Conn::QUEUED != 0 {
            return;
        }
        if delay == rto {
            c.flags |= Conn::QUEUED;
            self.lane_file(CONN_TIMER_LANE, c.timer, raw);
        } else {
            self.file_carrier(c, raw, rto);
        }
    }

    /// File a carrier toward `c.timer`, with none pending that covers it:
    /// under the key itself on the wheel — a `ConnTimer` when the key is due
    /// within `syn_rto`, else a `ConnBackoff` unless one is pending already
    /// (its key is not kept, so it may be later) — or, failing both, one
    /// `syn_rto` ahead on the lane.
    fn file_carrier(&mut self, c: &mut Conn, raw: u64, rto: Duration) {
        let now = self.queue.now();
        if c.timer.time <= now + rto {
            c.flags |= Conn::QUEUED;
            self.queue
                .schedule_key(c.timer, Event::ConnTimer { conn: raw });
        } else if c.flags & Conn::BACKOFF == 0 {
            c.flags |= Conn::BACKOFF;
            self.queue
                .schedule_key(c.timer, Event::ConnBackoff { conn: raw });
        } else {
            c.flags |= Conn::QUEUED;
            self.lane_push(CONN_TIMER_LANE, now + rto, raw);
        }
    }

    /// Send a lifecycle segment from (host `h`, `core`), charging its skb
    /// build to `ch`.
    fn send_ctl(
        &mut self,
        eng: &ChurnEngine,
        h: usize,
        core: usize,
        seg: Segment,
        ch: &mut CycleBreakdown,
    ) {
        ch.charge(Category::SkbMgmt, eng.cost.ctl_skb);
        self.enqueue_frames(h, core, seg);
    }

    /// Refuse the connection with a RST from the server.
    fn refuse(&mut self, eng: &ChurnEngine, core: usize, raw: u64, ch: &mut CycleBreakdown) {
        ch.charge(Category::TcpIp, eng.cost.rst_tx);
        let rst = Segment::conn(raw, ConnPhase::Reset);
        self.send_ctl(eng, SERVER_HOST, core, rst, ch);
    }

    /// Application write of an RPC message (a request or response
    /// segment): syscall, copy and TCP transmit of its payload, then the
    /// segment.
    fn conn_write(&mut self, h: usize, core: usize, seg: Segment, ch: &mut CycleBreakdown) {
        let len = seg.payload_len();
        ch.charge(Category::Etc, self.cost.syscall_write);
        ch.charge(
            Category::DataCopy,
            self.cost.sender_copy_cycles(len as u64, 0.0),
        );
        ch.charge(Category::TcpIp, self.cost.tcp_tx_cycles(len));
        ch.charge(Category::SkbMgmt, self.cost.skb_build_tx);
        self.enqueue_frames(h, core, seg);
    }

    /// Application read of a `len`-byte RPC message: syscall and copy, and
    /// the bytes count toward the window's throughput.
    fn conn_read(&mut self, eng: &mut ChurnEngine, len: u32, ch: &mut CycleBreakdown) {
        ch.charge(Category::Etc, self.cost.syscall_recv);
        ch.charge(
            Category::DataCopy,
            self.cost.copy_cycles(MemClass::LocalDram, len as u64),
        );
        if self.measuring {
            eng.bytes_delivered += len as u64;
            self.tick_bytes += len as u64;
        }
    }

    /// An open-loop connection arrival: in pool mode retire the oldest
    /// member, then open a new connection (socket alloc + SYN), and
    /// schedule the next arrival.
    pub(super) fn conn_arrival(&mut self, eng: &mut ChurnEngine) {
        let ccfg = eng.cfg;
        let now = self.queue.now();
        // The Poisson process never stops; EndRun stops the loop.
        let gap = self
            .workload_rng
            .exp(ccfg.mean_interarrival().as_nanos() as f64) as u64;
        self.queue
            .schedule_after(Duration::from_nanos(gap.max(1)), Event::ConnArrival);

        if matches!(ccfg.mode, ChurnMode::Pool { .. }) {
            if let Some(raw) = eng.pool.pop_front() {
                self.client_close(eng, raw);
            }
        }

        let ncores = self.cfg.topology.total_cores() as u64;
        // Heavy-tailed slow-client marking. The draw count per arrival
        // depends only on (overload.enabled, slow_prob), never on the
        // admission policy, so the arrival process is identical across
        // policies at fixed workload knobs.
        let slow = ccfg.overload.enabled && self.workload_rng.chance(ccfg.overload.slow_prob);
        let seq = eng.arrival_seq;
        eng.arrival_seq += 1;
        let client_core = (seq % ncores) as usize;
        let mut conn = Conn::new(client_core as u16, ((seq + 1) % ncores) as u16, now);
        conn.client = HalfConn::SynSent;
        if slow {
            conn.flags |= Conn::SLOW;
            eng.stats.slow_conns += 1;
        }
        eng.stats.opened += 1;
        let raw = eng.table.install(conn).to_u64();
        // Lifecycle tracing: sample every Nth connection, the only draw
        // (the collector's own skb sampling does not apply twice); the
        // whole connection shares one timeline id (SynTx → … →
        // TimeWaitReap).
        let tid = if ccfg.trace_sample > 0 && seq.is_multiple_of(ccfg.trace_sample as u64) {
            self.trace.alloc_sampled(raw)
        } else {
            hns_trace::NO_SKB
        };
        if tid != hns_trace::NO_SKB {
            eng.conn(raw).flags |= Conn::TRACED;
            eng.traced.insert(raw, tid);
        }

        let cc = eng.cost;
        let mut ch = CycleBreakdown::default();
        ch.charge(Category::Memory, cc.socket_alloc);
        ch.charge(Category::TcpIp, cc.syn_tx);
        ch.charge(Category::Lock, cc.conn_lock);
        self.trace
            .stamp(tid, raw, StageId::SynTx, CLIENT_HOST, client_core, now);
        let syn = Segment::conn(raw, ConnPhase::Syn);
        self.send_ctl(eng, CLIENT_HOST, client_core, syn, &mut ch);
        self.charge_core(CLIENT_HOST, client_core, ch);
        self.arm_conn_rto(eng, raw, ccfg.syn_rto);
    }

    /// Initiate an active close from the client: FIN out, FinWait, timer
    /// armed. Charged directly to the client core (application context).
    fn client_close(&mut self, eng: &mut ChurnEngine, raw: u64) {
        let now = self.queue.now();
        let Some(c) = eng
            .table
            .get_mut(ConnId::from_u64(raw))
            .filter(|c| c.client == HalfConn::Established)
        else {
            return;
        };
        c.client = HalfConn::FinWait;
        c.syn_retries = 0;
        let (core, flags) = (c.client_core as usize, c.flags);
        let tid = eng.trace_id(raw, flags);
        let mut ch = CycleBreakdown::default();
        ch.charge(Category::TcpIp, eng.cost.fin_tx);
        ch.charge(Category::Lock, eng.cost.conn_lock);
        self.trace
            .stamp(tid, raw, StageId::FinTx, CLIENT_HOST, core, now);
        let fin = Segment::conn(raw, ConnPhase::Fin);
        self.send_ctl(eng, CLIENT_HOST, core, fin, &mut ch);
        self.charge_core(CLIENT_HOST, core, ch);
        self.arm_conn_rto(eng, raw, eng.cfg.syn_rto);
    }

    /// A slow client defers its next move by a think time: `pending`
    /// (`Conn::REQ_PENDING` or `Conn::CLOSE_PENDING`) records the move, and
    /// a `ConnThink` at the recorded key makes it.
    fn client_think(&mut self, eng: &mut ChurnEngine, raw: u64, pending: u8) {
        let salt = if pending == Conn::REQ_PENDING { 1 } else { 2 };
        let delay = eng.think_delay(raw, salt);
        let key = self.queue.reserve(self.queue.now() + delay);
        self.queue.schedule_key(key, Event::ConnThink { conn: raw });
        let c = eng.conn(raw);
        c.flags |= pending;
        c.timer = key;
    }

    /// Server side of the handshake completing: the server half becomes
    /// Established, `accept()` takes the connection and epoll registers it.
    /// Runs in the softirq step that processed the completing segment.
    fn server_accept(
        &mut self,
        eng: &mut ChurnEngine,
        core: usize,
        raw: u64,
        ch: &mut CycleBreakdown,
    ) {
        let now = self.queue.now();
        let c = eng.conn(raw);
        c.server = HalfConn::Established;
        c.last_seen = now;
        let flags = c.flags;
        let tid = eng.trace_id(raw, flags);
        let cc = eng.cost;
        ch.charge(Category::TcpIp, cc.establish);
        ch.charge(Category::Etc, cc.accept);
        ch.charge(Category::Etc, cc.epoll_ctl);
        eng.epoll[core].ctl();
        if eng.epoll[core].event() {
            ch.charge(Category::Sched, cc.epoll_wakeup);
        }
        ch.charge(Category::Sched, cc.epoll_dispatch);
        self.trace
            .stamp(tid, raw, StageId::ConnAccept, SERVER_HOST, core, now);
    }

    /// Try to promote the server half to Established on a handshake-
    /// completing segment: pop the listen-queue slot and convert the
    /// minisock into a full socket (queued path), or validate the echoed
    /// cookie and build the socket from scratch (stateless path). A memory
    /// refusal answers with a RST so the client fails instead of hanging.
    fn conn_server_establish(
        &mut self,
        eng: &mut ChurnEngine,
        core: usize,
        raw: u64,
        ch: &mut CycleBreakdown,
    ) -> Establish {
        let ov = eng.cfg.overload;
        let c = eng.conn(raw);
        let cookie = c.flags & Conn::COOKIE != 0;
        let admitted = match c.server {
            HalfConn::Established => return Establish::AlreadyUp,
            HalfConn::SynRcvd if ov.enabled => {
                // The minisock converts into a full socket: its bytes come
                // back before the socket's are charged.
                eng.mem.free(MINISOCK_BYTES);
                if eng.mem.try_charge(SOCK_BYTES) {
                    eng.accept.pop();
                    true
                } else {
                    eng.accept.release();
                    eng.conn(raw).server = HalfConn::Closed;
                    false
                }
            }
            HalfConn::SynRcvd => true,
            HalfConn::Closed if ov.enabled && cookie => {
                // Stateless path: the completing segment echoes the cookie.
                // The cookie is a pure keyed function of the connection id,
                // so an honest echo always validates (forgery is out of
                // scope); only its verification cost is modelled.
                c.flags &= !Conn::COOKIE;
                ch.charge(Category::TcpIp, eng.cost.syn_cookie_check);
                ch.charge(Category::Memory, eng.cost.socket_alloc);
                eng.mem.try_charge(SOCK_BYTES)
            }
            _ if ov.enabled => {
                // Closed without a cookie: this connection was refused or
                // reaped earlier. Re-refuse so a retransmitting client
                // stops (duplicate-tolerant refusal).
                self.refuse(eng, core, raw, ch);
                return Establish::Refused;
            }
            _ => return Establish::AlreadyUp,
        };
        if !admitted {
            self.drop_stats.conn_memory += 1;
            self.refuse(eng, core, raw, ch);
            return Establish::Refused;
        }
        self.server_accept(eng, core, raw, ch);
        Establish::Promoted
    }

    /// The client half just reached Established (first SYN-ACK, cookie or
    /// not): record handshake latency, then continue per churn mode. Slow
    /// clients defer their next move by a think time instead of acting
    /// inline.
    fn conn_client_established(
        &mut self,
        eng: &mut ChurnEngine,
        core: usize,
        raw: u64,
        cookie: bool,
        ch: &mut CycleBreakdown,
    ) {
        let ccfg = eng.cfg;
        let now = self.queue.now();
        let c = eng.conn(raw);
        if c.client != HalfConn::SynSent {
            return; // duplicate SYN-ACK: processing charge only
        }
        c.client = HalfConn::Established;
        c.syn_retries = 0;
        c.timer = EventKey::NONE;
        let (flags, opened_at) = (c.flags, c.opened_at);
        let tid = eng.trace_id(raw, flags);
        let slow = ccfg.overload.enabled && flags & Conn::SLOW != 0;
        eng.stats.established += 1;
        if self.measuring {
            eng.stats
                .handshake_ns
                .record(now.since(opened_at).as_nanos());
        }
        self.trace
            .stamp(tid, raw, StageId::SynAckRx, CLIENT_HOST, core, now);
        match ccfg.mode {
            ChurnMode::HandshakeOnly => {
                let phase = if cookie {
                    ConnPhase::CookieAck
                } else {
                    ConnPhase::HsAck
                };
                self.send_ctl(eng, CLIENT_HOST, core, Segment::conn(raw, phase), ch);
                if slow {
                    self.client_think(eng, raw, Conn::CLOSE_PENDING);
                } else {
                    self.client_close(eng, raw);
                }
            }
            ChurnMode::Pool { .. } => {
                // Overload + pool is rejected at validation, so `cookie`
                // can never be set on this path.
                let ack = Segment::conn(raw, ConnPhase::HsAck);
                self.send_ctl(eng, CLIENT_HOST, core, ack, ch);
                eng.pool.push_back(raw);
            }
            // Think before the first request; for cookie connections the
            // echoed cookie rides on the deferred request, so the server
            // keeps no state while we think.
            ChurnMode::ShortRpc if slow => self.client_think(eng, raw, Conn::REQ_PENDING),
            ChurnMode::ShortRpc => {
                // The first request chunk piggybacks the completing ACK, as
                // real clients do.
                self.conn_send_request(eng, core, raw, ch);
                self.arm_conn_rto(eng, raw, ccfg.syn_rto);
            }
        }
    }

    /// Write the single request of a short-RPC exchange (syscall, copy, TCP
    /// tx) and stamp the RPC-latency base when the overload model samples
    /// it.
    fn conn_send_request(
        &mut self,
        eng: &mut ChurnEngine,
        core: usize,
        raw: u64,
        ch: &mut CycleBreakdown,
    ) {
        let len = eng.rpc_len(raw);
        if eng.cfg.overload.enabled {
            // Handshake latency was sampled at establish; from here on the
            // field is the request-send time (RPC-latency base).
            eng.conn(raw).opened_at = self.queue.now();
        }
        let req = Segment::conn(raw, ConnPhase::Request { len });
        self.conn_write(CLIENT_HOST, core, req, ch);
    }

    /// A connection-lifecycle segment was polled out of the softirq
    /// backlog on (host `h`, `core`). The full per-phase state machine.
    pub(super) fn conn_rx(
        &mut self,
        eng: &mut ChurnEngine,
        h: usize,
        core: usize,
        raw: u64,
        phase: ConnPhase,
        ch: &mut CycleBreakdown,
    ) {
        let ccfg = eng.cfg;
        let now = self.queue.now();
        let cc = eng.cost;

        // Driver receive + skb bookkeeping + ehash bucket lock: every
        // lifecycle segment pays these regardless of phase.
        ch.charge(
            Category::NetDevice,
            if phase.payload_len() > 0 {
                self.cost.driver_rx_frame
            } else {
                self.cost.driver_rx_ack
            },
        );
        ch.charge(Category::SkbMgmt, cc.ctl_skb);
        ch.charge(Category::Lock, cc.conn_lock);

        if eng.table.get(ConnId::from_u64(raw)).is_none() {
            // Torn down between descriptor DMA and the poll: dropped at
            // socket lookup, exactly like the kernel's ehash miss.
            eng.stats.stale_frames += 1;
            return;
        }

        match (h, phase) {
            // ---------------- server side (host 1) ----------------
            (SERVER_HOST, ConnPhase::Syn) => self.server_syn(eng, core, raw, ch),
            // A plain completing ACK, or the cookie-bearing ACK a stateless
            // SYN-cookie exchange completes with (handshake-only clients;
            // short-RPC clients piggyback the cookie on the first request
            // instead).
            (SERVER_HOST, ConnPhase::HsAck | ConnPhase::CookieAck) => {
                let _ = self.conn_server_establish(eng, core, raw, ch);
            }
            (SERVER_HOST, ConnPhase::Request { len }) => {
                // First request chunk doubles as the handshake-completing
                // ACK (piggybacked) — and, for cookie connections, carries
                // the echoed cookie.
                if matches!(
                    self.conn_server_establish(eng, core, raw, ch),
                    Establish::Refused
                ) {
                    return;
                }
                ch.charge(Category::TcpIp, self.cost.tcp_rx_cycles(len));
                let c = eng.conn(raw);
                c.last_seen = now;
                if c.flags & Conn::REQ_DONE != 0 {
                    // Duplicate request (client timer fired): resend the
                    // response.
                    eng.stats.syn_retransmits += 1;
                    ch.charge(Category::TcpIp, self.cost.tcp_tx_cycles(len));
                    let resp = Segment::conn(raw, ConnPhase::Response { len });
                    self.enqueue_frames(SERVER_HOST, core, resp);
                    return;
                }
                c.flags |= Conn::REQ_DONE;
                // Data-ready epoll event, server read, response write.
                if eng.epoll[core].event() {
                    ch.charge(Category::Sched, cc.epoll_wakeup);
                }
                ch.charge(Category::Sched, cc.epoll_dispatch);
                self.conn_read(eng, len, ch);
                let resp = Segment::conn(raw, ConnPhase::Response { len });
                self.conn_write(SERVER_HOST, core, resp, ch);
            }
            (SERVER_HOST, ConnPhase::Fin) => {
                ch.charge(Category::TcpIp, cc.fin_rx);
                let c = eng.conn(raw);
                let was = c.server;
                let dup = !was.is_live();
                if dup {
                    eng.stats.syn_retransmits += 1;
                } else {
                    c.server = HalfConn::Closed;
                    // Server sock freed and its fd dropped from epoll.
                    ch.charge(Category::Memory, cc.sock_free);
                    ch.charge(Category::Etc, cc.epoll_ctl);
                    eng.epoll[core].ctl();
                    // A client that closes before completing the handshake
                    // (lost completing ACK) releases the pending minisock.
                    eng.release_server_half(was);
                }
                let fin_ack = Segment::conn(raw, ConnPhase::FinAck);
                self.send_ctl(eng, SERVER_HOST, core, fin_ack, ch);
            }

            // ---------------- client side (host 0) ----------------
            // A cookie SYN-ACK (stateless admission) is the same handshake
            // from the client's point of view, but the completing segment
            // must echo the cookie.
            (CLIENT_HOST, ConnPhase::SynAck | ConnPhase::SynAckCookie) => {
                ch.charge(Category::TcpIp, cc.synack_rx);
                let cookie = phase == ConnPhase::SynAckCookie;
                self.conn_client_established(eng, core, raw, cookie, ch);
            }
            (CLIENT_HOST, ConnPhase::Reset) => {
                // Actively refused (shed or out of server memory): tear
                // down instantly — no retries, no TIME_WAIT. This is the
                // fail-fast half of the shed policy's bargain.
                ch.charge(Category::TcpIp, cc.rst_tx);
                ch.charge(Category::Memory, cc.sock_free);
                eng.remove(ConnId::from_u64(raw));
                eng.stats.refused += 1;
            }
            (CLIENT_HOST, ConnPhase::Response { len }) => {
                ch.charge(Category::TcpIp, self.cost.tcp_rx_cycles(len));
                let c = eng.conn(raw);
                if c.client != HalfConn::Established || c.flags & Conn::CLOSE_PENDING != 0 {
                    // A duplicate response (the answer to a retransmitted
                    // request) while closing, or while a slow client
                    // lingers after its RPC: processing charge only.
                    return;
                }
                c.timer = EventKey::NONE;
                let req_at = c.opened_at;
                let slow = ccfg.overload.enabled && c.flags & Conn::SLOW != 0;
                self.conn_read(eng, len, ch);
                eng.stats.rpcs_completed += 1;
                if self.measuring && ccfg.overload.enabled {
                    // `opened_at` was re-stamped at request send, so this
                    // is request→response latency.
                    eng.stats.rpc_ns.record(now.since(req_at).as_nanos());
                }
                if slow {
                    // Slow client lingers (pinning the server sock) before
                    // closing — the resource-hogging half of the on/off
                    // behavior the idle reaper exists for.
                    self.client_think(eng, raw, Conn::CLOSE_PENDING);
                } else {
                    self.client_close(eng, raw);
                }
            }
            (CLIENT_HOST, ConnPhase::FinAck) => {
                let c = eng.conn(raw);
                if c.client == HalfConn::FinWait {
                    c.client = HalfConn::TimeWait;
                    c.timer = EventKey::NONE;
                    ch.charge(Category::TcpIp, cc.timewait_insert);
                    eng.timewait.insert(now + ccfg.time_wait, raw);
                }
            }
            // A phase arriving at the wrong host would be a routing bug;
            // treat it like a stale frame rather than corrupting state.
            _ => eng.stats.stale_frames += 1,
        }
    }

    /// A SYN reached the server: answer a duplicate again, or admit a fresh
    /// one (minisock + SYN-ACK), or, with the listen queue full, apply the
    /// admission policy.
    fn server_syn(
        &mut self,
        eng: &mut ChurnEngine,
        core: usize,
        raw: u64,
        ch: &mut CycleBreakdown,
    ) {
        let ov = eng.cfg.overload;
        let cc = eng.cost;
        let now = self.queue.now();
        ch.charge(Category::TcpIp, cc.syn_rx);
        let c = eng.conn(raw);
        if c.server != HalfConn::Closed || (ov.enabled && c.flags & Conn::COOKIE != 0) {
            // Duplicate SYN (client retransmitted): resend the SYN-ACK, or
            // recompute and resend the cookie — the whole point of a cookie
            // is that no state was kept.
            let (tx, phase) = if c.server == HalfConn::Closed {
                (cc.syn_cookie_tx, ConnPhase::SynAckCookie)
            } else {
                (cc.synack_tx, ConnPhase::SynAck)
            };
            eng.stats.syn_retransmits += 1;
            ch.charge(Category::TcpIp, tx);
            self.send_ctl(eng, SERVER_HOST, core, Segment::conn(raw, phase), ch);
            return;
        }
        // Admission: under the overload model a fresh SYN must win a
        // listen-queue slot and a request-sock allocation before the server
        // keeps any state for it.
        let admitted = if !ov.enabled {
            Ok(())
        } else if !eng.accept.push() {
            Err(Some(ov.policy))
        } else if eng.mem.try_charge(MINISOCK_BYTES) {
            Ok(())
        } else {
            eng.accept.release();
            Err(None)
        };
        match admitted {
            Ok(()) => {
                // Minisock allocated, SYN-ACK out.
                let c = eng.conn(raw);
                c.server = HalfConn::SynRcvd;
                c.last_seen = now;
                let flags = c.flags;
                ch.charge(Category::Memory, cc.socket_alloc);
                let tid = eng.trace_id(raw, flags);
                self.trace
                    .stamp(tid, raw, StageId::SynRx, SERVER_HOST, core, now);
                ch.charge(Category::TcpIp, cc.synack_tx);
                let syn_ack = Segment::conn(raw, ConnPhase::SynAck);
                self.send_ctl(eng, SERVER_HOST, core, syn_ack, ch);
            }
            // Minisock allocation refused by the memory budget: silent
            // drop, client RTO retries.
            Err(None) => self.drop_stats.conn_memory += 1,
            Err(Some(AdmissionPolicy::Drop)) => {
                // Listen queue full, syncookies off: the SYN vanishes and
                // the client's RTO carries the cost.
                eng.accept.note_full_drop();
                self.drop_stats.accept_queue += 1;
            }
            Err(Some(AdmissionPolicy::Queue)) => {
                // Stateless fallback: answer with a SYN cookie, keep no
                // queue slot and no minisock. The cookie value itself (keyed
                // hash of the connection id) is folded into the SYN-ACK;
                // only its cost is modelled on this side.
                eng.accept.note_cookie();
                eng.conn(raw).flags |= Conn::COOKIE;
                ch.charge(Category::TcpIp, cc.syn_cookie_tx);
                let syn_ack = Segment::conn(raw, ConnPhase::SynAckCookie);
                self.send_ctl(eng, SERVER_HOST, core, syn_ack, ch);
            }
            Err(Some(AdmissionPolicy::Shed)) => {
                // Fail fast: refuse with a RST so the client stops retrying
                // into a saturated host.
                eng.accept.note_shed();
                self.refuse(eng, core, raw, ch);
            }
        }
    }

    /// A connection's timer carrier — `carrier` is its flag, `QUEUED` or
    /// `BACKOFF` — fired under `fired`. At the recorded key the retransmit
    /// timer expires: it resends whatever segment the client half is
    /// waiting on, with exponential backoff, or aborts past the retry
    /// budget. Earlier than the key, the carrier is re-filed toward it
    /// ([`World::file_carrier`]), so the timer expires at its own
    /// `(time, seq)`. A disarmed or thinking connection drops the carrier,
    /// and a backoff carrier drops itself while a `QUEUED` one covers the
    /// key.
    pub(super) fn conn_timer(
        &mut self,
        eng: &mut ChurnEngine,
        raw: u64,
        fired: EventKey,
        carrier: u8,
    ) {
        let ccfg = eng.cfg;
        let id = ConnId::from_u64(raw);
        let Some(c) = eng.table.get_mut(id) else {
            return; // torn down
        };
        debug_assert!(c.flags & carrier != 0, "a carrier not flagged");
        c.flags &= !carrier;
        let thinking = c.flags & (Conn::REQ_PENDING | Conn::CLOSE_PENDING) != 0;
        if thinking || c.timer == EventKey::NONE || c.flags & Conn::QUEUED != 0 {
            return;
        }
        if c.timer != fired {
            debug_assert!(fired < c.timer, "a carrier fired past its key");
            self.file_carrier(c, raw, ccfg.syn_rto);
            return;
        }
        c.timer = EventKey::NONE;
        let core = c.client_core as usize;
        c.syn_retries = c.syn_retries.saturating_add(1);
        let (client, retries) = (c.client, c.syn_retries);
        let cc = eng.cost;
        let mut ch = CycleBreakdown::default();

        if retries > SYN_RETRY_MAX {
            // Out of retries: free the record. A handshake that never
            // completed is a failure; an established connection stuck in
            // teardown closes unclean but still closes.
            let (c, _) = eng.remove(id).expect("checked live");
            if c.client.in_handshake() {
                eng.stats.failed += 1;
                self.drop_stats.handshake_abort += 1;
            } else {
                eng.stats.closed += 1;
            }
            // Whatever the server half still pins dies with the record.
            eng.release_server_half(c.server);
            ch.charge(Category::Memory, cc.sock_free);
            ch.charge(Category::Lock, cc.conn_lock);
            self.charge_core(CLIENT_HOST, core, ch);
            return;
        }

        let (tx, seg) = match client {
            HalfConn::SynSent => (cc.syn_tx, Segment::conn(raw, ConnPhase::Syn)),
            HalfConn::Established if matches!(ccfg.mode, ChurnMode::ShortRpc) => {
                // Same hash-derived length as the original send: a
                // retransmit resends identical bytes.
                let len = eng.rpc_len(raw);
                let req = Segment::conn(raw, ConnPhase::Request { len });
                (self.cost.tcp_tx_cycles(len), req)
            }
            HalfConn::FinWait => (cc.fin_tx, Segment::conn(raw, ConnPhase::Fin)),
            _ => return, // nothing pending (pool steady state, TIME_WAIT)
        };
        ch.charge(Category::TcpIp, tx);
        eng.stats.syn_retransmits += 1;
        self.send_ctl(eng, CLIENT_HOST, core, seg, &mut ch);
        self.charge_core(CLIENT_HOST, core, ch);
        let backoff = ccfg.syn_rto * (1u64 << retries.min(10) as u32);
        self.arm_conn_rto(eng, raw, backoff);
    }

    /// A slow client's think deadline fired under `fired`. Unless the
    /// record now holds another key (a later think superseded this one) or
    /// is gone, the client makes its deferred move: the first request, or
    /// the close.
    pub(super) fn conn_think(&mut self, eng: &mut ChurnEngine, raw: u64, fired: EventKey) {
        let id = ConnId::from_u64(raw);
        let Some(c) = eng.table.get_mut(id).filter(|c| c.timer == fired) else {
            return; // superseded or torn down
        };
        c.timer = EventKey::NONE;
        let core = c.client_core as usize;
        let pending = c.flags & (Conn::REQ_PENDING | Conn::CLOSE_PENDING);
        debug_assert_ne!(pending, 0, "a think key without a deferred move");
        c.flags &= !pending;
        if pending & Conn::REQ_PENDING != 0 {
            let mut ch = CycleBreakdown::default();
            self.conn_send_request(eng, core, raw, &mut ch);
            self.charge_core(CLIENT_HOST, core, ch);
            self.arm_conn_rto(eng, raw, eng.cfg.syn_rto);
        } else {
            self.client_close(eng, raw);
        }
    }

    /// Batch-reap expired TIME_WAIT entries (the kernel's timewait timer
    /// wheel cadence) and reschedule.
    pub(super) fn time_wait_tick(&mut self, eng: &mut ChurnEngine) {
        let now = self.queue.now();
        let cc = eng.cost;
        while let Some(raw) = eng.timewait.expire_one(now) {
            let Some((c, tid)) = eng.remove(ConnId::from_u64(raw)) else {
                continue; // already force-removed (teardown abort)
            };
            let core = c.client_core as usize;
            let mut ch = CycleBreakdown::default();
            ch.charge(Category::TcpIp, cc.timewait_reap);
            ch.charge(Category::Memory, cc.sock_free);
            ch.charge(Category::Lock, cc.conn_lock);
            self.trace
                .stamp(tid, raw, StageId::TimeWaitReap, CLIENT_HOST, core, now);
            eng.stats.closed += 1;
            self.charge_core(CLIENT_HOST, core, ch);
        }
        self.queue
            .schedule_after(eng.cfg.reap_interval, Event::TimeWaitTick);
    }

    /// Reap server-side established connections idle past the timeout (the
    /// defense against slow clients pinning sockets). Scheduled only when
    /// the overload model sets an idle timeout. Scan order is the flow
    /// table's deterministic (shard, slot) order, so the reap sequence is a
    /// pure function of table state. The scan fills the engine's reused
    /// buffer, so a tick allocates nothing.
    pub(super) fn idle_reap_tick(&mut self, eng: &mut ChurnEngine) {
        let now = self.queue.now();
        let cc = eng.cost;
        let mut victims = std::mem::take(&mut eng.reap_buf);
        reap_scan(&eng.table, now, eng.cfg.overload.idle_timeout, &mut victims);
        for &id in &victims {
            let Some((c, _)) = eng.remove(id) else {
                continue;
            };
            let core = c.server_core as usize;
            eng.release_server_half(c.server);
            eng.stats.idle_reaped += 1;
            // An unclean close: the peer finds out when its next segment
            // comes back stale.
            eng.stats.closed += 1;
            eng.epoll[core].ctl();
            let mut ch = CycleBreakdown::default();
            ch.charge(Category::TcpIp, cc.idle_reap);
            ch.charge(Category::Memory, cc.sock_free);
            ch.charge(Category::Etc, cc.epoll_ctl);
            ch.charge(Category::Lock, cc.conn_lock);
            self.charge_core(SERVER_HOST, core, ch);
        }
        eng.reap_buf = victims;
        self.queue
            .schedule_after(eng.cfg.reap_interval, Event::IdleReapTick);
    }

    /// The report's overload/capacity summary; `None` unless the overload
    /// model ran (keeps non-overload reports byte-identical).
    pub(super) fn capacity_summary(&self) -> Option<hns_metrics::CapacitySummary> {
        let eng = self.churn_engine()?;
        let ov = eng.cfg.overload;
        if !ov.enabled {
            return None;
        }
        Some(hns_metrics::CapacitySummary {
            policy: ov.policy.label().to_string(),
            accept_depth: eng.accept.depth() as u64,
            accept_high_water: eng.accept.high_water() as u64,
            accept_overflows: eng.accept.overflows(),
            syn_cookies: eng.accept.cookies(),
            accept_drops: eng.accept.full_drops(),
            sheds: eng.accept.sheds(),
            refused: eng.stats.refused,
            mem_budget_bytes: eng.mem.budget(),
            mem_peak_bytes: eng.mem.peak(),
            alloc_fails: eng.mem.alloc_fails(),
            idle_reaped: eng.stats.idle_reaped,
            slow_conns: eng.stats.slow_conns,
            rpc: hns_metrics::LatencyStats::from_ns(&eng.stats.rpc_ns),
        })
    }

    /// The report's connection summary, measurement-window scoped.
    pub(super) fn conn_summary(&self, window_secs: f64) -> Option<hns_metrics::ConnSummary> {
        let eng = self.churn_engine()?;
        let (wakeups, events) = eng.epoll_window();
        Some(hns_metrics::ConnSummary {
            opened: eng.stats.opened,
            established: eng.stats.established,
            closed: eng.stats.closed,
            failed: eng.stats.failed,
            retransmits: eng.stats.syn_retransmits,
            rpcs: eng.stats.rpcs_completed,
            stale_frames: eng.stats.stale_frames,
            conn_rate_cps: if window_secs > 0.0 {
                eng.stats.established as f64 / window_secs
            } else {
                0.0
            },
            handshake: hns_metrics::LatencyStats::from_ns(&eng.stats.handshake_ns),
            established_high_water: eng.table.high_water() as u64,
            time_wait_high_water: eng.timewait.high_water() as u64,
            table_capacity: eng.table.capacity() as u64,
            table_slot_reuse: eng.table.reused_slots(),
            epoll_wakeups: wakeups,
            epoll_events: events,
        })
    }

    /// Cumulative churn/overload counters for the streaming monitor, which
    /// turns consecutive tick samples into per-interval deltas. Cheap: a
    /// struct of counter reads, no iteration.
    pub(super) fn monitor_counters(&self) -> Option<hns_monitor::ConnCounters> {
        let eng = self.churn_engine()?;
        Some(hns_monitor::ConnCounters {
            opened: eng.stats.opened,
            established: eng.stats.established,
            closed: eng.stats.closed,
            failed: eng.stats.failed,
            rpcs: eng.stats.rpcs_completed,
            refused: eng.stats.refused,
            accept_overflows: eng.accept.overflows(),
            syn_cookies: eng.accept.cookies(),
            sheds: eng.accept.sheds(),
            live: eng.table.len() as u64,
        })
    }

    /// Live-connection count (tests and the million-connection assertion).
    pub fn live_connections(&self) -> usize {
        self.churn.as_ref().map_or(0, |e| e.table.len())
    }

    /// Flow-table slot capacity (tests assert churn keeps it flat).
    pub fn conn_table_capacity(&self) -> usize {
        self.churn.as_ref().map_or(0, |e| e.table.capacity())
    }
}
