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
//! * **segment-slab ledger** — the world's in-flight segment slab holds
//!   exactly one live slot per frame on the wire,
//! * **cycle-taxonomy ledger** — per-host busy time equals the category
//!   breakdown's total within per-charge rounding slack,
//! * **rx-ring descriptors** — a ring never serves more descriptors than it
//!   has,
//! * **frame-arena leak-freedom** — every live DMA buffer is reachable from
//!   a backlog, an rx queue, or a GRO table,
//! * **flow byte ledgers + seqno continuity** — written equals acked plus
//!   in-flight plus unsent, the receiver never runs ahead of the sender,
//!   and delivery never regresses,
//! * at teardown additionally the **drop-taxonomy reconciliation** and the
//!   **churn connection-table** checks.
//!
//! The first imbalance trips [`RunErrorKind::InvariantViolation`] through the
//! same diagnostic-snapshot machinery the watchdog uses, so a failing audit
//! run reports *what* broke and the world state it broke in.

use hns_audit::{
    AcceptLedger, ArenaLedger, ChurnLedger, ConnMemLedger, CycleLedger, DropLedger, FlowLedger,
    HostFrameLedger, RingLedger, SegmentSlabLedger, Violation,
};
use hns_conn::ConnId;
use hns_sim::{cycles_to_time, SimTime};

use super::World;
use crate::watchdog::RunErrorKind;

/// Counters the audited event loop maintains beyond what reports need.
/// Everything is cumulative from t = 0 except `charge_calls`, which resets
/// with the measurement window (its ledger's two sides reset there too).
/// All per-host vectors are sized to the world's host count (two on the
/// legacy link, `fabric.hosts` behind a ToR switch).
#[derive(Default)]
pub(super) struct AuditState {
    /// Frames whose `FrameArrive` event has fired, per destination host.
    pub(super) arrived: Vec<u64>,
    /// Frames softirq popped from the per-core backlogs, per host.
    pub(super) polled: Vec<u64>,
    /// Frames shed at the softirq backlog cap, per host.
    pub(super) backlog_drops: Vec<u64>,
    /// Connection frames that arrived after teardown, per host.
    pub(super) stale_frames: Vec<u64>,
    /// `FrameArrive` events scheduled but not yet fired, per destination.
    pub(super) wire_in_flight: Vec<u64>,
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
            wire_in_flight: vec![0; hosts],
            charge_calls: vec![0; hosts],
            last_event_at: SimTime::ZERO,
            prev_rcv_nxt: Vec::new(),
        }
    }
}

impl World {
    /// The audit counters, when audit mode is on.
    #[inline]
    pub(super) fn audit_mut(&mut self) -> Option<&mut AuditState> {
        self.audit.as_deref_mut()
    }

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

    /// Quiesce-point audit, run from every autotune tick.
    pub(super) fn audit_tick(&mut self) {
        if self.audit.is_some() {
            self.audit_check(false);
        }
    }

    /// Teardown audit, run after the event loop drains: everything the tick
    /// checks plus the cross-layer drop reconciliation and churn table.
    pub(super) fn audit_teardown(&mut self) {
        if self.audit.is_some() {
            self.audit_check(true);
        }
    }

    /// Collect violations and trip the watchdog on the first imbalance.
    fn audit_check(&mut self, teardown: bool) {
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

    /// Evaluate every conservation law at the current event boundary.
    fn collect_violations(&mut self, teardown: bool) -> Vec<Violation> {
        let mut out = Vec::new();
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
                .check(&mut out);
            }

            HostFrameLedger {
                host: h,
                link_frames: self.wire.frames_to(h),
                link_drops: self.wire.drops_to(h),
                arrived: a.arrived[h],
                wire_in_flight: a.wire_in_flight[h],
                ring_received: host.rings.iter().map(|r| r.received).sum(),
                ring_drops: host.rings.iter().map(|r| r.drops).sum(),
                backlog_drops: a.backlog_drops[h],
                stale_conn_frames: a.stale_frames[h],
                backlog_len: host.cores.iter().map(|c| c.backlog.len() as u64).sum(),
                polled: a.polled[h],
            }
            .check(&mut out);

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
            .check(&mut out);

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
            .check(&mut out);
        }

        SegmentSlabLedger {
            live: self.in_flight.live() as u64,
            wire_in_flight: a.wire_in_flight.iter().sum(),
        }
        .check(&mut out);

        for f in &self.flows {
            FlowLedger {
                flow: f.id,
                written: f.sender.stream_written(),
                acked: f.sender.acked(),
                in_flight: f.sender.in_flight(),
                unsent: f.sender.unsent(),
                rcv_nxt: f.receiver.rcv_nxt(),
                app_read: f.app_read_pos,
                rx_backlog: f.rx_backlog,
            }
            .check(&mut out);
        }

        // Delivered-seqno continuity: rcv_nxt is a high-water mark and may
        // only rise between quiesce points.
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

        if teardown {
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
            .check(&mut out);

            if let Some(ledger) = self.audit_churn_ledger() {
                ledger.check(&mut out);
            }
            if let Some((accept, mem)) = self.audit_overload_ledgers() {
                accept.check(&mut out);
                mem.check(&mut out);
            }
        }
        out
    }

    /// Connection-table sanity snapshot, `None` when no churn is configured.
    fn audit_churn_ledger(&self) -> Option<ChurnLedger> {
        let eng = self.churn.as_ref()?;
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
        let ccfg = self.cfg.churn?;
        if !ccfg.overload.enabled {
            return None;
        }
        let eng = self.churn.as_ref()?;
        let accept = AcceptLedger {
            depth: eng.accept.depth() as u64,
            len: eng.accept.len() as u64,
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
