//! Runtime invariant auditor: conservation laws checked while the world runs.
//!
//! A child module of `world` (like `churn`) so it can read the event loop's
//! private state without widening visibility. When `SimConfig::audit` is set
//! the world keeps a handful of extra counters ([`AuditState`]) and, at every
//! autotune tick and at teardown, reconciles them against the ledgers in
//! `hns-audit`:
//!
//! * **wire-frame / arrival-attribution / backlog ledgers** — every frame the
//!   link accepted is on the wire, arrived, or dropped; every arrival was
//!   received or attributed to exactly one drop bucket; every received frame
//!   was polled or still sits in a backlog,
//! * **segment-slab ledger** — the world's segment slab holds exactly one
//!   live slot per frame that is Tx-queued, on the wire, or in a backlog,
//! * **cycle-taxonomy ledger** — per-host busy time equals the category
//!   breakdown's total within per-charge rounding slack,
//! * **rx-ring descriptors** — a ring never serves more descriptors than it
//!   has,
//! * **frame-arena leak-freedom** — every live DMA buffer is reachable from
//!   a backlog, an rx queue, or a GRO table,
//! * **flow byte ledgers + seqno continuity** — written equals acked plus
//!   in-flight plus unsent, the receiver never runs ahead of the sender,
//!   the socket queue's skbs cover the unread bytes `[copied_seq, rcv_nxt)`,
//!   and delivery never regresses,
//! * **rto-timer ledger** — an armed retransmission timer has exactly one
//!   pending `Rto` event, firing no later than the timer is due, and a
//!   disarmed one has none,
//! * **step-end ledger** — a core running a step either holds the step's
//!   end or has exactly one pending `StepDone`, never both and never
//!   neither, and a core holding an end has nothing waiting for it,
//! * **conn-timer ledger** — a live connection's `QUEUED` flag is set
//!   exactly when one `ConnTimer` carrier is pending for it (on the
//!   connection-timer lane or on the wheel) and its `BACKOFF` flag exactly
//!   when one `ConnBackoff` is, an armed retransmit timer has its covering
//!   carrier (the `ConnTimer` if any, else the `ConnBackoff`) at or before
//!   its key, and a thinking client has a `ConnThink` at exactly its key,
//! * at teardown additionally the **drop-taxonomy reconciliation** and the
//!   **churn connection-table** checks.
//!
//! The first imbalance trips [`RunErrorKind::InvariantViolation`] through the
//! same diagnostic-snapshot machinery the watchdog uses, so a failing audit
//! run reports *what* broke and the world state it broke in.

use std::collections::HashMap;

use hns_audit::{
    AcceptLedger, ArenaLedger, ChurnLedger, ConnMemLedger, ConnTimerLedger, CycleLedger,
    DropLedger, FlowLedger, HostFrameLedger, RingLedger, RtoTimerLedger, SegmentSlabLedger,
    StepEndLedger, Violation,
};
use hns_conn::{Conn, ConnId};
use hns_sim::{cycles_to_time, EventKey, SimTime};

use super::World;
use crate::watchdog::RunErrorKind;

/// What [`World::pending_events`] counts in the queues.
struct PendingEvents {
    /// Frame arrivals pending per destination host.
    arrivals: Vec<u64>,
    /// Per flow, its pending `Rto`s: `(count, latest firing time)`.
    rtos: Vec<(u64, SimTime)>,
    /// Per connection, its pending timer events.
    conns: HashMap<u64, ConnEvents>,
    /// Per host, the `StepDone`s pending for each core.
    step_dones: Vec<Vec<u64>>,
}

/// The timer events pending for one connection.
#[derive(Default)]
struct ConnEvents {
    /// `ConnTimer` carriers, on the lane or the wheel.
    carriers: u64,
    /// The earliest carrier's key.
    carrier: Option<EventKey>,
    /// `ConnBackoff` carriers.
    backoffs: u64,
    /// The earliest backoff carrier's key.
    backoff_at: Option<EventKey>,
    /// The keys of its `ConnThink`s (superseded ones included).
    thinks: Vec<EventKey>,
}

impl ConnEvents {
    fn add_carrier(&mut self, key: EventKey) {
        self.carriers += 1;
        self.carrier = Some(self.carrier.map_or(key, |c| c.min(key)));
    }

    fn add_backoff(&mut self, key: EventKey) {
        self.backoffs += 1;
        self.backoff_at = Some(self.backoff_at.map_or(key, |c| c.min(key)));
    }
}

/// A key as the ledgers take it: `(ns, seq)`.
fn key_pair(key: EventKey) -> (u64, u64) {
    (key.time.as_nanos(), key.seq())
}

/// Counters the audited event loop maintains beyond what reports need.
/// Everything is cumulative from t = 0 except `charge_calls`, which resets
/// with the measurement window (its ledger's two sides reset there too).
/// All per-host vectors are sized to the world's host count (two by
/// default, `fabric.hosts` on a larger rack).
#[derive(Default)]
pub(super) struct AuditState {
    /// Frames that have arrived (from an arrival lane or, after a latency
    /// spike, a wheel `FrameArrive` event), per destination host.
    pub(super) arrived: Vec<u64>,
    /// Frames softirq popped from the per-core backlogs, per host.
    pub(super) polled: Vec<u64>,
    /// Frames shed at the softirq backlog cap, per host.
    pub(super) backlog_drops: Vec<u64>,
    /// Connection frames that arrived after teardown, per host.
    pub(super) stale_frames: Vec<u64>,
    /// Busy-time charge calls since the window started, per host (bounds
    /// the cycles→ns flooring slack in the cycle ledger).
    pub(super) charge_calls: Vec<u64>,
    /// Pop time of the previous event (monotonicity tripwire).
    pub(super) last_event_at: SimTime,
    /// Per-flow `rcv_nxt` high-water marks (delivery continuity).
    prev_rcv_nxt: Vec<u64>,
}

impl AuditState {
    /// Zeroed counters for a world of `hosts` hosts.
    pub(super) fn new(hosts: usize) -> Self {
        AuditState {
            arrived: vec![0; hosts],
            polled: vec![0; hosts],
            backlog_drops: vec![0; hosts],
            stale_frames: vec![0; hosts],
            charge_calls: vec![0; hosts],
            last_event_at: SimTime::ZERO,
            prev_rcv_nxt: Vec::new(),
        }
    }
}

impl World {
    /// Event-time monotonicity, checked on every pop of the event loop.
    #[inline]
    pub(super) fn audit_pop(&mut self, t: SimTime) {
        let Some(a) = self.audit.as_deref_mut() else {
            return;
        };
        if t < a.last_event_at {
            let detail = format!(
                "[event-time-monotonic] event at t={}ns popped after t={}ns",
                t.as_nanos(),
                a.last_event_at.as_nanos()
            );
            self.trip(RunErrorKind::InvariantViolation, detail);
        } else {
            a.last_event_at = t;
        }
    }

    /// Collect violations and trip the watchdog on the first imbalance; a
    /// no-op unless audit mode is on. Runs at every autotune tick (a
    /// quiesce point) and, with `teardown`, once after the event loop
    /// drains, which adds the cross-layer drop reconciliation and the churn
    /// table.
    pub(super) fn audit_check(&mut self, teardown: bool) {
        if self.audit.is_none() {
            return;
        }
        let violations = self.collect_violations(teardown);
        if let Some(v) = violations.first() {
            let detail = if violations.len() > 1 {
                format!("{} (+{} more)", v, violations.len() - 1)
            } else {
                v.to_string()
            };
            self.trip(RunErrorKind::InvariantViolation, detail);
        }
    }

    /// What the queues hold, counted from the queues themselves, so an
    /// event lost before it fires unbalances a ledger: frame arrivals
    /// pending per destination host (arrival-lane entries plus wheel
    /// `FrameArrive` events), per flow the `Rto` events pending with the
    /// latest one's firing time, and per connection its `ConnTimer`
    /// carriers (lane entries plus wheel events), `ConnBackoff`s and
    /// `ConnThink`s, and per core its `StepDone`s.
    fn pending_events(&self) -> PendingEvents {
        let mut arrivals: Vec<u64> = (0..self.hosts.len())
            .map(|h| self.lanes.lane_len(super::arrival_lane(h)) as u64)
            .collect();
        let mut rtos = vec![(0, SimTime::ZERO); self.flows.len()];
        let mut conns: HashMap<u64, ConnEvents> = HashMap::new();
        let mut step_dones: Vec<Vec<u64>> =
            self.hosts.iter().map(|h| vec![0; h.cores.len()]).collect();
        for (key, &conn) in self.lanes.iter(super::CONN_TIMER_LANE) {
            conns.entry(conn).or_default().add_carrier(key);
        }
        for (key, ev) in self.queue.pending() {
            match *ev {
                super::Event::FrameArrive { dst, .. } => arrivals[dst as usize] += 1,
                super::Event::Rto { flow } => {
                    let r = &mut rtos[flow as usize];
                    *r = (r.0 + 1, r.1.max(key.time));
                }
                super::Event::ConnTimer { conn } => {
                    conns.entry(conn).or_default().add_carrier(key);
                }
                super::Event::ConnBackoff { conn } => {
                    conns.entry(conn).or_default().add_backoff(key);
                }
                super::Event::ConnThink { conn } => {
                    conns.entry(conn).or_default().thinks.push(key);
                }
                super::Event::StepDone { host, core } => {
                    step_dones[host as usize][core as usize] += 1;
                }
                _ => {}
            }
        }
        PendingEvents {
            arrivals,
            rtos,
            conns,
            step_dones,
        }
    }

    /// Evaluate every conservation law at the current event boundary.
    fn collect_violations(&mut self, teardown: bool) -> Vec<Violation> {
        let mut out = Vec::new();
        let pending = self.pending_events();
        self.check_host_ledgers(&pending.arrivals, &mut out);
        SegmentSlabLedger {
            live: self.in_flight.live() as u64,
            tx_queued: self.arbiters.iter().map(|t| t.runs() as u64).sum(),
            wire_in_flight: pending.arrivals.iter().sum(),
            backlog: self.backlog_frames(),
            sack_entries: self.in_flight.live_sacks() as u64,
            sack_acks: self.in_flight.sack_refs() as u64,
        }
        .check(&mut out);
        self.check_flow_ledgers(&pending.rtos, &mut out);
        self.check_step_ends(&pending.step_dones, &mut out);
        self.check_conn_timer_ledgers(&pending.conns, &mut out);
        self.check_seqno_continuity(&mut out);
        if teardown {
            self.check_teardown_ledgers(&mut out);
        }
        out
    }

    /// Per host: the rx rings, frames (`in_flight`: arrivals pending per
    /// host), cycles and the frame arena.
    fn check_host_ledgers(&self, in_flight: &[u64], out: &mut Vec<Violation>) {
        let a = self.audit.as_deref().expect("audit mode on");
        for (h, host) in self.hosts.iter().enumerate() {
            for (core, ring) in host.rings.iter().enumerate() {
                RingLedger {
                    host: h,
                    core,
                    capacity: ring.capacity() as u64,
                    available: ring.available() as u64,
                    withheld: ring.withheld() as u64,
                }
                .check(out);
            }

            HostFrameLedger {
                host: h,
                link_frames: self.wire.frames_to(h),
                link_drops: self.wire.drops_to(h),
                arrived: a.arrived[h],
                wire_in_flight: in_flight[h],
                ring_received: host.rings.iter().map(|r| r.received).sum(),
                ring_drops: host.rings.iter().map(|r| r.drops).sum(),
                backlog_drops: a.backlog_drops[h],
                stale_conn_frames: a.stale_frames[h],
                backlog_len: host.cores.iter().map(|c| c.backlog.len() as u64).sum(),
                polled: a.polled[h],
            }
            .check(out);

            CycleLedger {
                host: h,
                busy_ns: host
                    .cores
                    .iter()
                    .map(|c| c.usage.busy().as_nanos())
                    .sum::<u64>(),
                taxonomy_ns: cycles_to_time(host.total_breakdown().total()).as_nanos(),
                charge_calls: a.charge_calls[h],
            }
            .check(out);

            ArenaLedger {
                host: h,
                live: host.arena.live_count() as u64,
                backlog_frames: host
                    .cores
                    .iter()
                    .flat_map(|c| c.backlog.iter())
                    .filter(|pf| pf.frame.is_some())
                    .count() as u64,
                skb_frames: self
                    .flows
                    .iter()
                    .filter(|f| f.spec.dst_host == h)
                    .flat_map(|f| f.rx_queue.iter())
                    .map(|s| s.frags.len() as u64)
                    .sum(),
                gro_frames: host.cores.iter().map(|c| c.gro.held_frags()).sum(),
            }
            .check(out);
        }
    }

    /// Per flow: bytes, and the rto timer against its pending `rtos`.
    fn check_flow_ledgers(&self, rtos: &[(u64, SimTime)], out: &mut Vec<Violation>) {
        for f in &self.flows {
            FlowLedger {
                flow: f.id,
                written: f.sender.stream_written(),
                acked: f.sender.acked(),
                in_flight: f.sender.in_flight(),
                unsent: f.sender.unsent(),
                rcv_nxt: f.receiver.rcv_nxt(),
                app_read: f.receiver.copied_seq(),
                // Sorted by seq: past the first gap no skb extends the run.
                queued_to: f.rx_queue.iter().fold(f.receiver.copied_seq(), |to, s| {
                    if s.seq <= to {
                        to.max(s.end())
                    } else {
                        to
                    }
                }),
            }
            .check(out);
        }

        for (f, &(pending, latest)) in self.flows.iter().zip(rtos) {
            RtoTimerLedger {
                flow: f.id,
                due_ns: f.rto_key.map(|k| k.time.as_nanos()),
                pending,
                latest_ns: latest.as_nanos(),
            }
            .check(out);
        }
    }

    /// Per core: the running step's end, held or filed, against its
    /// pending `StepDone`s (`step_dones`, per host and core).
    fn check_step_ends(&self, step_dones: &[Vec<u64>], out: &mut Vec<Violation>) {
        for (h, host) in self.hosts.iter().enumerate() {
            for (core, cd) in host.cores.iter().enumerate() {
                StepEndLedger {
                    host: h,
                    core,
                    running: host.sched.running(core).is_some(),
                    held: cd.step_end != EventKey::NONE,
                    pending: step_dones[h][core],
                    nothing_waiting: host.sched.nothing_waiting(core),
                    backlog: cd.backlog.len() as u64,
                    pacer_ready: cd.pacer_ready.len() as u64,
                }
                .check(out);
            }
        }
    }

    /// Per live connection: the conn timer against its pending events.
    fn check_conn_timer_ledgers(
        &self,
        conn_events: &HashMap<u64, ConnEvents>,
        out: &mut Vec<Violation>,
    ) {
        let Some(eng) = self.churn_engine() else {
            return;
        };
        let none = ConnEvents::default();
        for (id, c) in eng.table.iter() {
            let conn = id.to_u64();
            let ev = conn_events.get(&conn).unwrap_or(&none);
            let thinking = c.flags & (Conn::REQ_PENDING | Conn::CLOSE_PENDING) != 0;
            let timer = (c.timer != EventKey::NONE).then_some(c.timer);
            let think = timer.filter(|_| thinking);
            ConnTimerLedger {
                conn,
                queued: c.flags & Conn::QUEUED != 0,
                carriers: ev.carriers,
                carrier: ev.carrier.map(key_pair),
                backoff: c.flags & Conn::BACKOFF != 0,
                backoffs: ev.backoffs,
                backoff_at: ev.backoff_at.map(key_pair),
                armed: timer.filter(|_| !thinking).map(key_pair),
                think: think.map(key_pair),
                thinks_at_key: think
                    .map_or(0, |k| ev.thinks.iter().filter(|&&t| t == k).count() as u64),
            }
            .check(out);
        }
    }

    /// Delivered-seqno continuity: rcv_nxt is a high-water mark and may
    /// only rise between quiesce points.
    fn check_seqno_continuity(&mut self, out: &mut Vec<Violation>) {
        let marks: Vec<u64> = self.flows.iter().map(|f| f.receiver.rcv_nxt()).collect();
        let a = self.audit.as_deref_mut().expect("audit mode on");
        for (i, &m) in marks.iter().enumerate() {
            if let Some(prev) = a.prev_rcv_nxt.get(i) {
                if m < *prev {
                    out.push(Violation {
                        invariant: "flow-seqno-regression",
                        detail: format!("flow {i}: rcv_nxt regressed {prev} -> {m}"),
                    });
                }
            }
        }
        a.prev_rcv_nxt = marks;
    }

    /// At teardown: drop taxonomy, churn table and overload ledgers.
    fn check_teardown_ledgers(&self, out: &mut Vec<Violation>) {
        let a = self.audit.as_deref().expect("audit mode on");
        let layers = self.drop_stats.by_layer();
        DropLedger {
            taxo_wire: layers.wire,
            link_drops: self.wire.loss_drops(),
            taxo_switch: layers.switch,
            switch_drops: self.wire.switch_drops(),
            taxo_ring_pool: layers.nic,
            ring_drops: self.hosts.iter().map(|h| h.ring_drops()).sum(),
            taxo_backlog: layers.backlog,
            backlog_drops: a.backlog_drops.iter().sum(),
            taxo_socket: layers.socket,
            taxo_conn: layers.conn,
            taxo_total: self.drop_stats.total(),
        }
        .check(out);

        if let Some(ledger) = self.audit_churn_ledger() {
            ledger.check(out);
        }
        if let Some((accept, mem)) = self.audit_overload_ledgers() {
            accept.check(out);
            mem.check(out);
        }
    }

    /// Connection-table sanity snapshot, `None` when no churn is configured.
    fn audit_churn_ledger(&self) -> Option<ChurnLedger> {
        let eng = self.churn_engine()?;
        let pool_live = eng
            .pool
            .iter()
            .filter(|&&raw| eng.table.get(ConnId::from_u64(raw)).is_some())
            .count() as u64;
        Some(ChurnLedger {
            pool_len: eng.pool.len() as u64,
            pool_live,
            table_len: eng.table.len() as u64,
            table_capacity: eng.table.capacity() as u64,
            lifecycle_aborts: eng.aborts_prewindow + eng.stats.failed,
            taxo_aborts: self.drop_stats.handshake_abort,
        })
    }

    /// Accept-queue and connection-memory conservation snapshots, `None`
    /// unless the overload model ran.
    fn audit_overload_ledgers(&self) -> Option<(AcceptLedger, ConnMemLedger)> {
        let eng = self.churn_engine()?;
        if !eng.cfg.overload.enabled {
            return None;
        }
        let accept = AcceptLedger {
            depth: eng.accept.depth() as u64,
            len: eng.accept.occupancy() as u64,
            high_water: eng.accept.high_water() as u64,
            enqueued: eng.accept.enqueued(),
            dequeued: eng.accept.dequeued(),
            released: eng.accept.released(),
            overflows: eng.accept.overflows(),
            cookies: eng.accept.cookies(),
            full_drops: eng.accept.full_drops(),
            sheds: eng.accept.sheds(),
            taxo_accept_drops: self.drop_stats.accept_queue,
        };
        let mem = ConnMemLedger {
            budget: eng.mem.budget(),
            in_use: eng.mem.in_use(),
            peak: eng.mem.peak(),
            charged: eng.mem.charged(),
            freed: eng.mem.freed(),
            alloc_fails: eng.mem.alloc_fails(),
            taxo_mem_drops: self.drop_stats.conn_memory,
        };
        Some((accept, mem))
    }
}
