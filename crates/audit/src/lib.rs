//! Conservation-law ledgers for the runtime invariant auditor.
//!
//! The paper's accounting only holds if the ledgers balance: every byte the
//! application writes is delivered, in flight, or attributed to exactly one
//! drop bucket, and every busy cycle lands in exactly one taxonomy category
//! (PAPER.md §2.2, §3). This crate holds the *pure* half of the auditor:
//! plain snapshot structs the simulator fills in at quiesce points, each with
//! a `check` method that returns human-readable [`Violation`]s, plus the
//! [`bisect`] helper the differential fuzzer uses to shrink a failing config
//! delta to a minimal repro. Keeping the checks dependency-free means they
//! can be unit-tested against hand-built snapshots without running a `World`.

pub mod bisect;

pub use bisect::minimize;

/// One broken invariant: which law, and the numbers that break it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Stable short name of the invariant (e.g. `"flow-byte-ledger"`).
    pub invariant: &'static str,
    /// Human-readable account of the imbalance.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// Per-flow byte conservation: what the sender wrote must equal what was
/// acked, what is in flight, and what is still queued; the receiver must
/// never be ahead of the sender and the app never ahead of the receiver;
/// and the skbs parked in the socket queue must hold every byte the
/// receiver delivered that the app has not read.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlowLedger {
    /// Flow id (labels the violation).
    pub flow: u64,
    /// Bytes the application has written into the send stream.
    pub written: u64,
    /// Bytes cumulatively acked (snd_una).
    pub acked: u64,
    /// Bytes sent but not yet acked (snd_nxt − snd_una).
    pub in_flight: u64,
    /// Bytes written but not yet sent (stream_end − snd_nxt).
    pub unsent: u64,
    /// Receiver's next expected sequence number (contiguously delivered).
    pub rcv_nxt: u64,
    /// Bytes the receiving application has consumed (`copied_seq`).
    pub app_read: u64,
    /// End of the contiguous byte run the socket queue's skbs cover from
    /// `app_read` on; in balance it is `rcv_nxt`: the in-order skbs cover
    /// `[app_read, rcv_nxt)`, and out-of-order ones start past a hole.
    pub queued_to: u64,
}

impl FlowLedger {
    /// Check the byte-conservation laws, appending violations to `out`.
    pub fn check(&self, out: &mut Vec<Violation>) {
        let f = self.flow;
        if self.acked + self.in_flight + self.unsent != self.written {
            out.push(Violation {
                invariant: "flow-byte-ledger",
                detail: format!(
                    "flow {f}: acked {} + in_flight {} + unsent {} != written {}",
                    self.acked, self.in_flight, self.unsent, self.written
                ),
            });
        }
        if self.rcv_nxt > self.written {
            out.push(Violation {
                invariant: "flow-rcv-ahead-of-snd",
                detail: format!(
                    "flow {f}: receiver delivered {} > sender wrote {}",
                    self.rcv_nxt, self.written
                ),
            });
        }
        if self.acked > self.rcv_nxt {
            out.push(Violation {
                invariant: "flow-ack-ahead-of-delivery",
                detail: format!(
                    "flow {f}: acked {} > contiguously delivered {}",
                    self.acked, self.rcv_nxt
                ),
            });
        }
        if self.app_read > self.rcv_nxt {
            out.push(Violation {
                invariant: "flow-app-ahead-of-rcv",
                detail: format!(
                    "flow {f}: app read {} > delivered {}",
                    self.app_read, self.rcv_nxt
                ),
            });
        }
        if self.queued_to != self.rcv_nxt {
            out.push(Violation {
                invariant: "flow-rx-queue-coverage",
                detail: format!(
                    "flow {f}: socket queue covers [{}, {}) but rcv_nxt is {}",
                    self.app_read, self.queued_to, self.rcv_nxt
                ),
            });
        }
    }
}

/// Rx descriptor conservation for one ring: descriptors the NIC posted are
/// either available, withheld by a fault, or consumed — never conjured.
#[derive(Clone, Copy, Debug, Default)]
pub struct RingLedger {
    /// Host the ring belongs to.
    pub host: usize,
    /// Core (ring index) on that host.
    pub core: usize,
    /// Ring capacity in descriptors.
    pub capacity: u64,
    /// Descriptors currently available to receive into.
    pub available: u64,
    /// Descriptors withheld by an injected exhaustion fault.
    pub withheld: u64,
}

impl RingLedger {
    /// Check descriptor conservation, appending violations to `out`.
    pub fn check(&self, out: &mut Vec<Violation>) {
        if self.available + self.withheld > self.capacity {
            out.push(Violation {
                invariant: "rx-ring-descriptors",
                detail: format!(
                    "host {} core {}: available {} + withheld {} > capacity {}",
                    self.host, self.core, self.available, self.withheld, self.capacity
                ),
            });
        }
    }
}

/// Per-host frame conservation across the Rx path: every frame the link
/// carried toward this host either arrived or is still on the wire, every
/// arrival was received into a ring or attributed to a drop bucket, and
/// every received frame was either polled by softirq or still sits in a
/// backlog.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostFrameLedger {
    /// Receiving host.
    pub host: usize,
    /// Frames the wire accepted toward this host (pre-loss).
    pub link_frames: u64,
    /// Frames the wire dropped toward this host: refused by the switch
    /// buffer or lost in-network at the host's egress port.
    pub link_drops: u64,
    /// Frames whose arrival event has fired.
    pub arrived: u64,
    /// Frames in flight on the wire: arrivals still queued (on an arrival
    /// lane or the wheel), counted from the queues, not fired.
    pub wire_in_flight: u64,
    /// Frames received into Rx rings (Σ per-ring received).
    pub ring_received: u64,
    /// Frames dropped at the rings (descriptor or page-pool exhaustion).
    pub ring_drops: u64,
    /// Frames dropped because the softirq backlog was at capacity.
    pub backlog_drops: u64,
    /// Connection-scoped frames that arrived for a torn-down flow.
    pub stale_conn_frames: u64,
    /// Frames currently queued in per-core softirq backlogs.
    pub backlog_len: u64,
    /// Frames softirq has popped from the backlogs.
    pub polled: u64,
}

impl HostFrameLedger {
    /// Check frame conservation, appending violations to `out`.
    pub fn check(&self, out: &mut Vec<Violation>) {
        let h = self.host;
        if self.link_drops + self.arrived + self.wire_in_flight != self.link_frames {
            out.push(Violation {
                invariant: "wire-frame-ledger",
                detail: format!(
                    "host {h}: link_drops {} + arrived {} + in_flight {} != link_frames {}",
                    self.link_drops, self.arrived, self.wire_in_flight, self.link_frames
                ),
            });
        }
        let attributed =
            self.ring_received + self.ring_drops + self.backlog_drops + self.stale_conn_frames;
        if attributed != self.arrived {
            out.push(Violation {
                invariant: "arrival-attribution",
                detail: format!(
                    "host {h}: received {} + ring_drops {} + backlog_drops {} + stale {} \
                     != arrived {}",
                    self.ring_received,
                    self.ring_drops,
                    self.backlog_drops,
                    self.stale_conn_frames,
                    self.arrived
                ),
            });
        }
        if self.polled + self.backlog_len != self.ring_received {
            out.push(Violation {
                invariant: "backlog-ledger",
                detail: format!(
                    "host {h}: polled {} + backlog {} != received {}",
                    self.polled, self.backlog_len, self.ring_received
                ),
            });
        }
    }
}

/// Segment slab conservation: the world parks a segment once, when the
/// stack hands it to the NIC, as one Tx-queue run (a TSO burst, or a
/// control segment's one frame); the drain gives each frame it splits off
/// a run a slot of its own, the run's last frame keeping the run's. A
/// frame's slot is freed at the NAPI poll or where the frame is dropped.
/// Every live slot therefore belongs to exactly one Tx-queued run, or to
/// one frame on the wire or waiting in a softirq backlog. An ACK's SACK
/// blocks wait in a side table freed with the slot, so every live side
/// entry belongs to exactly one live ACK.
#[derive(Clone, Copy, Debug, Default)]
pub struct SegmentSlabLedger {
    /// Slab slots currently holding a segment.
    pub live: u64,
    /// Runs waiting in the NICs' Tx queues, summed over hosts.
    pub tx_queued: u64,
    /// Frames in flight on the wire, summed over destination hosts.
    pub wire_in_flight: u64,
    /// Frames waiting in the softirq backlogs, summed over hosts and cores.
    pub backlog: u64,
    /// Side-table entries currently holding SACK blocks.
    pub sack_entries: u64,
    /// Live ACKs whose SACK blocks wait in the side table.
    pub sack_acks: u64,
}

impl SegmentSlabLedger {
    /// Check slab conservation, appending violations to `out`.
    pub fn check(&self, out: &mut Vec<Violation>) {
        let held = self.tx_queued + self.wire_in_flight + self.backlog;
        if self.live != held {
            out.push(Violation {
                invariant: "segment-slab-ledger",
                detail: format!(
                    "{} live slab segments != {} Tx-queued runs + {} on the wire + {} in backlogs",
                    self.live, self.tx_queued, self.wire_in_flight, self.backlog
                ),
            });
        }
        if self.sack_entries != self.sack_acks {
            out.push(Violation {
                invariant: "segment-slab-ledger",
                detail: format!(
                    "{} live SACK entries != {} live ACKs naming one",
                    self.sack_entries, self.sack_acks
                ),
            });
        }
    }
}

/// A flow's retransmission timer against the event queue. An armed timer
/// has exactly one pending `Rto` event, firing no later than the timer is
/// due (one that fires earlier is re-filed under the timer's key); a
/// disarmed timer has none. A lost re-file leaves an armed timer that never
/// fires, and a leaked event a second one.
#[derive(Clone, Copy, Debug, Default)]
pub struct RtoTimerLedger {
    /// Flow id (labels the violation).
    pub flow: u64,
    /// When the armed timer fires, in ns: its deadline, or the moment it
    /// was armed if the deadline had passed by then. `None` when disarmed.
    pub due_ns: Option<u64>,
    /// `Rto` events pending in the queue for this flow.
    pub pending: u64,
    /// The latest firing time among them, in ns (0 when none).
    pub latest_ns: u64,
}

impl RtoTimerLedger {
    /// Check the timer against its pending events, appending violations
    /// to `out`.
    pub fn check(&self, out: &mut Vec<Violation>) {
        let ok = match self.due_ns {
            Some(due) => self.pending == 1 && self.latest_ns <= due,
            None => self.pending == 0,
        };
        if !ok {
            let armed = match self.due_ns {
                Some(due) => format!("armed, due at {due} ns"),
                None => "disarmed".to_string(),
            };
            out.push(Violation {
                invariant: "rto-timer",
                detail: format!(
                    "flow {}: timer {armed}, {} Rto events pending (latest at {} ns)",
                    self.flow, self.pending, self.latest_ns
                ),
            });
        }
    }
}

/// Step-end conservation, per core. A core running a step either holds
/// the step's end (a reserved key it files only when work arrives before
/// it) or has exactly one pending `StepDone`: never both, never neither.
/// An idle core has neither. A core holding an end has nothing waiting
/// for it: no queued thread, raised softirq or pending wake, and an empty
/// softirq backlog and pacer queue. Work left behind a held end waits for
/// a `StepDone` that is never filed; a second `StepDone` ends one step
/// twice.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepEndLedger {
    /// Host index (labels the violation).
    pub host: usize,
    /// Core index on that host (labels the violation).
    pub core: usize,
    /// The scheduler shows a task running on the core.
    pub running: bool,
    /// The core holds its step's end.
    pub held: bool,
    /// `StepDone` events pending in the queue for this core.
    pub pending: u64,
    /// The scheduler has nothing waiting on the core.
    pub nothing_waiting: bool,
    /// Frames in the core's softirq backlog.
    pub backlog: u64,
    /// Pacer releases queued on the core.
    pub pacer_ready: u64,
}

impl StepEndLedger {
    /// Check the core's step end, appending violations to `out`.
    pub fn check(&self, out: &mut Vec<Violation>) {
        let ends = u64::from(self.held) + self.pending;
        let ends_ok = ends == u64::from(self.running);
        let quiet = self.nothing_waiting && self.backlog == 0 && self.pacer_ready == 0;
        if ends_ok && (quiet || !self.held) {
            return;
        }
        let state = if self.running { "running" } else { "idle" };
        let held = if self.held { "end held" } else { "no end held" };
        out.push(Violation {
            invariant: "step-end",
            detail: format!(
                "host {} core {}: {state}, {held}, {} StepDone pending; \
                 nothing waiting in the scheduler: {}, backlog {} frames, {} pacer releases",
                self.host,
                self.core,
                self.pending,
                self.nothing_waiting,
                self.backlog,
                self.pacer_ready
            ),
        });
    }
}

/// Connection-timer conservation (churn). A connection keeps at most one
/// pending `ConnTimer` (its carrier) and at most one `ConnBackoff` (its
/// backoff carrier), and its `QUEUED` and `BACKOFF` flags say whether it
/// does; an armed retransmit timer has its covering carrier — the
/// `ConnTimer` if one is pending, else the `ConnBackoff` — at or before
/// its key (the carrier fires there and is re-filed toward the key); and a
/// slow client thinking has a `ConnThink` at exactly its key. A lost
/// re-file leaves a timer that never fires, a leaked carrier a second one.
/// Keys are `(ns, seq)` pairs, compared in the queue's order.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConnTimerLedger {
    /// Packed connection id (labels the violation).
    pub conn: u64,
    /// The record's `QUEUED` flag.
    pub queued: bool,
    /// `ConnTimer` carriers pending for this connection, on the
    /// connection-timer lane or on the wheel.
    pub carriers: u64,
    /// The earliest `ConnTimer` carrier's key, when any is pending.
    pub carrier: Option<(u64, u64)>,
    /// The record's `BACKOFF` flag.
    pub backoff: bool,
    /// `ConnBackoff` carriers pending for this connection.
    pub backoffs: u64,
    /// The earliest `ConnBackoff` carrier's key, when any is pending.
    pub backoff_at: Option<(u64, u64)>,
    /// The armed retransmit timer's key (`None` when disarmed or thinking).
    pub armed: Option<(u64, u64)>,
    /// The think deadline's key while the client thinks.
    pub think: Option<(u64, u64)>,
    /// `ConnThink` events pending at exactly `think`.
    pub thinks_at_key: u64,
}

impl ConnTimerLedger {
    /// Check the connection's timer events, appending violations to `out`.
    pub fn check(&self, out: &mut Vec<Violation>) {
        let mut fail = |detail: String| {
            out.push(Violation {
                invariant: "conn-timer",
                detail: format!("conn {:#x}: {detail}", self.conn),
            })
        };
        if self.queued != (self.carriers == 1) {
            fail(format!(
                "{} carriers pending, queued flag {}",
                self.carriers, self.queued
            ));
        }
        if self.backoff != (self.backoffs == 1) {
            fail(format!(
                "{} backoff carriers pending, backoff flag {}",
                self.backoffs, self.backoff
            ));
        }
        if let Some((ns, seq)) = self.armed {
            let covering = match (self.queued, self.backoff) {
                (true, _) => self.carrier,
                (false, true) => self.backoff_at,
                (false, false) => None,
            };
            if covering.is_none_or(|c| c > (ns, seq)) {
                fail(format!(
                    "timer armed for {ns} ns (seq {seq}), covering carrier {covering:?}"
                ));
            }
        }
        if let Some((ns, seq)) = self.think {
            if self.thinks_at_key == 0 {
                fail(format!(
                    "thinking until {ns} ns (seq {seq}), no ConnThink pending then"
                ));
            }
        }
    }
}

/// Per-host cycle conservation: the per-category taxonomy must sum to the
/// busy time the scheduler accounted, within the per-call floor-rounding
/// slack of the cycles→ns conversion.
#[derive(Clone, Copy, Debug, Default)]
pub struct CycleLedger {
    /// Host being audited.
    pub host: usize,
    /// Busy nanoseconds accumulated by the core-usage clocks.
    pub busy_ns: u64,
    /// The cycle taxonomy's total, converted to nanoseconds in one shot.
    pub taxonomy_ns: u64,
    /// Number of busy-time charge calls: each floors independently and can
    /// lose strictly less than 1 ns versus the one-shot conversion.
    pub charge_calls: u64,
}

impl CycleLedger {
    /// Check cycle conservation, appending violations to `out`.
    pub fn check(&self, out: &mut Vec<Violation>) {
        // Each charge site converts its own cycle total with a flooring
        // division, so Σ floor(xᵢ) ≤ floor(Σ xᵢ) and the gap is < 1 ns per
        // call. Anything outside that band means a charge was dropped or
        // double-counted.
        if self.busy_ns > self.taxonomy_ns {
            out.push(Violation {
                invariant: "cycle-taxonomy-ledger",
                detail: format!(
                    "host {}: busy {} ns exceeds taxonomy total {} ns",
                    self.host, self.busy_ns, self.taxonomy_ns
                ),
            });
        } else if self.taxonomy_ns - self.busy_ns > self.charge_calls {
            out.push(Violation {
                invariant: "cycle-taxonomy-ledger",
                detail: format!(
                    "host {}: taxonomy {} ns − busy {} ns = {} exceeds rounding slack \
                     of {} charge calls",
                    self.host,
                    self.taxonomy_ns,
                    self.busy_ns,
                    self.taxonomy_ns - self.busy_ns,
                    self.charge_calls
                ),
            });
        }
    }
}

/// Per-host frame-arena leak check: every live frame must be reachable from
/// a softirq backlog, an in-assembly skb, or the GRO merge table.
#[derive(Clone, Copy, Debug, Default)]
pub struct ArenaLedger {
    /// Host owning the arena.
    pub host: usize,
    /// Frames currently live in the arena.
    pub live: u64,
    /// Frames held by per-core softirq backlogs.
    pub backlog_frames: u64,
    /// Frames held by skbs queued toward the application.
    pub skb_frames: u64,
    /// Frames held inside the GRO merge tables.
    pub gro_frames: u64,
}

impl ArenaLedger {
    /// Check leak-freedom, appending violations to `out`.
    pub fn check(&self, out: &mut Vec<Violation>) {
        let reachable = self.backlog_frames + self.skb_frames + self.gro_frames;
        if reachable != self.live {
            out.push(Violation {
                invariant: "frame-arena-leak",
                detail: format!(
                    "host {}: backlog {} + skb {} + gro {} reachable != {} live",
                    self.host, self.backlog_frames, self.skb_frames, self.gro_frames, self.live
                ),
            });
        }
    }
}

/// Teardown reconciliation of the global drop taxonomy against the
/// layer-local counters that fed it.
///
/// Beyond the per-layer pairings, the ledger carries the taxonomy's own
/// `total()` and demands that the attributed groups cover it exactly: a
/// drop class added to the taxonomy but never wired into a ledger field
/// (say, a future fabric class) trips `drop-taxonomy-unknown-class`
/// loudly instead of leaking out of the books unseen.
#[derive(Clone, Copy, Debug, Default)]
pub struct DropLedger {
    /// Taxonomy wire bucket.
    pub taxo_wire: u64,
    /// In-network losses (loss process and flaps) summed over every
    /// egress port of the wire.
    pub link_drops: u64,
    /// Taxonomy switch_buffer bucket (ToR shared-buffer overflow).
    pub taxo_switch: u64,
    /// Shared-buffer refusals summed over every egress port (zero with an
    /// infinite buffer).
    pub switch_drops: u64,
    /// Taxonomy rx_ring + pool buckets.
    pub taxo_ring_pool: u64,
    /// Ring-local drop counters across all hosts.
    pub ring_drops: u64,
    /// Taxonomy gro_overflow bucket.
    pub taxo_backlog: u64,
    /// Backlog-capacity drops observed at the arrival hook.
    pub backlog_drops: u64,
    /// Taxonomy socket_queue bucket (no independent layer counter; it
    /// participates only in the coverage check).
    pub taxo_socket: u64,
    /// Taxonomy connection-level buckets (handshake_abort + accept_queue +
    /// conn_memory), reconciled in detail by the churn/accept/memory
    /// ledgers; here they participate only in the coverage check.
    pub taxo_conn: u64,
    /// The taxonomy's own `total()` across every class it knows about.
    pub taxo_total: u64,
}

impl DropLedger {
    /// Check taxonomy/layer agreement, appending violations to `out`.
    pub fn check(&self, out: &mut Vec<Violation>) {
        if self.taxo_wire != self.link_drops {
            out.push(Violation {
                invariant: "drop-taxonomy-wire",
                detail: format!(
                    "taxonomy wire {} != link drops {}",
                    self.taxo_wire, self.link_drops
                ),
            });
        }
        if self.taxo_switch != self.switch_drops {
            out.push(Violation {
                invariant: "drop-taxonomy-switch",
                detail: format!(
                    "taxonomy switch_buffer {} != fabric port drops {}",
                    self.taxo_switch, self.switch_drops
                ),
            });
        }
        if self.taxo_ring_pool != self.ring_drops {
            out.push(Violation {
                invariant: "drop-taxonomy-ring",
                detail: format!(
                    "taxonomy rx_ring+pool {} != ring drops {}",
                    self.taxo_ring_pool, self.ring_drops
                ),
            });
        }
        if self.taxo_backlog != self.backlog_drops {
            out.push(Violation {
                invariant: "drop-taxonomy-backlog",
                detail: format!(
                    "taxonomy gro_overflow {} != backlog-cap drops {}",
                    self.taxo_backlog, self.backlog_drops
                ),
            });
        }
        let attributed = self.taxo_wire
            + self.taxo_switch
            + self.taxo_ring_pool
            + self.taxo_backlog
            + self.taxo_socket
            + self.taxo_conn;
        if attributed != self.taxo_total {
            out.push(Violation {
                invariant: "drop-taxonomy-unknown-class",
                detail: format!(
                    "taxonomy total {} != {} attributed across known classes \
                     (a drop class is missing from the ledger)",
                    self.taxo_total, attributed
                ),
            });
        }
    }
}

/// Connection-table sanity for churn runs: pooled handles must reference
/// live, established records, and the table never exceeds its slab.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChurnLedger {
    /// Handles parked in the reuse pool.
    pub pool_len: u64,
    /// Pool handles whose table record is live.
    pub pool_live: u64,
    /// Live flow-table records.
    pub table_len: u64,
    /// Flow-table slot capacity.
    pub table_capacity: u64,
    /// Handshake aborts per the lifecycle counters (whole-run: aborts
    /// before the measurement window plus aborts inside it).
    pub lifecycle_aborts: u64,
    /// Handshake aborts per the drop taxonomy's `handshake_abort` class —
    /// charged on an independent path, so drift between the two means an
    /// abort vanished from one set of books.
    pub taxo_aborts: u64,
}

impl ChurnLedger {
    /// Check connection-table sanity, appending violations to `out`.
    pub fn check(&self, out: &mut Vec<Violation>) {
        if self.pool_live != self.pool_len {
            out.push(Violation {
                invariant: "conn-pool-liveness",
                detail: format!(
                    "{} of {} pooled handles reference live connections",
                    self.pool_live, self.pool_len
                ),
            });
        }
        if self.table_len > self.table_capacity {
            out.push(Violation {
                invariant: "conn-table-capacity",
                detail: format!(
                    "flow table holds {} records in {} slots",
                    self.table_len, self.table_capacity
                ),
            });
        }
        if self.lifecycle_aborts != self.taxo_aborts {
            out.push(Violation {
                invariant: "handshake-abort-taxonomy",
                detail: format!(
                    "lifecycle counted {} handshake aborts, drop taxonomy {}",
                    self.lifecycle_aborts, self.taxo_aborts
                ),
            });
        }
    }
}

/// Accept-queue conservation for overload runs: every SYN that reached the
/// accept path either took a queue slot (later drained by `accept()` or
/// released by an abort) or overflowed into exactly one admission outcome,
/// and occupancy never exceeded the configured depth.
#[derive(Clone, Copy, Debug, Default)]
pub struct AcceptLedger {
    /// Configured queue depth.
    pub depth: u64,
    /// Occupancy at teardown.
    pub len: u64,
    /// Peak occupancy.
    pub high_water: u64,
    /// Slots taken in total.
    pub enqueued: u64,
    /// Slots drained by `accept()`.
    pub dequeued: u64,
    /// Slots released by handshake aborts before accept.
    pub released: u64,
    /// SYNs that found the queue full.
    pub overflows: u64,
    /// Overflows answered with SYN cookies.
    pub cookies: u64,
    /// Overflows silently dropped.
    pub full_drops: u64,
    /// Overflows refused with RST.
    pub sheds: u64,
    /// The drop taxonomy's `accept_queue` class (must equal `full_drops`:
    /// cookies and sheds are answered, not dropped).
    pub taxo_accept_drops: u64,
}

impl AcceptLedger {
    /// Check accept-queue conservation, appending violations to `out`.
    pub fn check(&self, out: &mut Vec<Violation>) {
        if self.len > self.depth || self.high_water > self.depth {
            out.push(Violation {
                invariant: "accept-queue-bound",
                detail: format!(
                    "occupancy {} / high water {} exceeded depth {}",
                    self.len, self.high_water, self.depth
                ),
            });
        }
        if self.enqueued != self.dequeued + self.released + self.len {
            out.push(Violation {
                invariant: "accept-queue-slots",
                detail: format!(
                    "enqueued {} != dequeued {} + released {} + len {}",
                    self.enqueued, self.dequeued, self.released, self.len
                ),
            });
        }
        if self.overflows != self.cookies + self.full_drops + self.sheds {
            out.push(Violation {
                invariant: "accept-overflow-outcomes",
                detail: format!(
                    "overflows {} != cookies {} + drops {} + sheds {}",
                    self.overflows, self.cookies, self.full_drops, self.sheds
                ),
            });
        }
        if self.taxo_accept_drops != self.full_drops {
            out.push(Violation {
                invariant: "accept-drop-taxonomy",
                detail: format!(
                    "drop taxonomy counted {} accept-queue drops, queue {}",
                    self.taxo_accept_drops, self.full_drops
                ),
            });
        }
    }
}

/// Connection-memory conservation for overload runs: every byte charged
/// against the budget was either freed or is still pinned, the budget was
/// never exceeded, and every refusal landed in the drop taxonomy.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConnMemLedger {
    /// Configured budget in bytes (0 = unlimited).
    pub budget: u64,
    /// Bytes pinned at teardown.
    pub in_use: u64,
    /// Peak bytes pinned.
    pub peak: u64,
    /// Total bytes ever charged.
    pub charged: u64,
    /// Total bytes ever freed.
    pub freed: u64,
    /// Allocations refused by the budget.
    pub alloc_fails: u64,
    /// The drop taxonomy's `conn_memory` class (must equal `alloc_fails`).
    pub taxo_mem_drops: u64,
}

impl ConnMemLedger {
    /// Check memory conservation, appending violations to `out`.
    pub fn check(&self, out: &mut Vec<Violation>) {
        if self.charged != self.freed + self.in_use {
            out.push(Violation {
                invariant: "conn-mem-conservation",
                detail: format!(
                    "charged {} != freed {} + in_use {}",
                    self.charged, self.freed, self.in_use
                ),
            });
        }
        if self.budget > 0 && (self.in_use > self.budget || self.peak > self.budget) {
            out.push(Violation {
                invariant: "conn-mem-budget",
                detail: format!(
                    "in_use {} / peak {} exceeded budget {}",
                    self.in_use, self.peak, self.budget
                ),
            });
        }
        if self.taxo_mem_drops != self.alloc_fails {
            out.push(Violation {
                invariant: "conn-mem-taxonomy",
                detail: format!(
                    "drop taxonomy counted {} memory refusals, budget {}",
                    self.taxo_mem_drops, self.alloc_fails
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checked<F: Fn(&mut Vec<Violation>)>(f: F) -> Vec<Violation> {
        let mut out = Vec::new();
        f(&mut out);
        out
    }

    #[test]
    fn balanced_flow_ledger_is_clean() {
        let l = FlowLedger {
            flow: 1,
            written: 100,
            acked: 40,
            in_flight: 35,
            unsent: 25,
            rcv_nxt: 60,
            app_read: 50,
            queued_to: 60,
        };
        assert!(checked(|o| l.check(o)).is_empty());
    }

    #[test]
    fn flow_ledger_catches_lost_bytes() {
        let l = FlowLedger {
            flow: 7,
            written: 100,
            acked: 40,
            in_flight: 30, // 10 bytes vanished
            unsent: 20,
            rcv_nxt: 40,
            app_read: 40,
            queued_to: 40,
        };
        let v = checked(|o| l.check(o));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "flow-byte-ledger");
        assert!(v[0].detail.contains("flow 7"), "{}", v[0].detail);
    }

    #[test]
    fn flow_ledger_catches_receiver_ahead_of_sender() {
        let l = FlowLedger {
            flow: 2,
            written: 50,
            acked: 50,
            rcv_nxt: 60,
            app_read: 60,
            queued_to: 60,
            ..FlowLedger::default()
        };
        let v = checked(|o| l.check(o));
        assert!(v.iter().any(|v| v.invariant == "flow-rcv-ahead-of-snd"));
    }

    #[test]
    fn flow_ledger_catches_socket_queue_gap() {
        // Delivered [50, 60) but the socket queue's skbs stop at 55: an skb
        // the receiver counted was never parked for the app to read.
        let mut l = FlowLedger {
            flow: 4,
            written: 100,
            acked: 60,
            in_flight: 40,
            rcv_nxt: 60,
            app_read: 50,
            queued_to: 55,
            ..FlowLedger::default()
        };
        let v = checked(|o| l.check(o));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "flow-rx-queue-coverage");
        assert!(v[0].detail.contains("[50, 55)"), "{}", v[0].detail);
        // Queued bytes past rcv_nxt that the receiver never delivered.
        l.queued_to = 70;
        let v = checked(|o| l.check(o));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "flow-rx-queue-coverage");
        // An empty queue balances once the app has read everything.
        l.app_read = 60;
        l.queued_to = 60;
        assert!(checked(|o| l.check(o)).is_empty());
    }

    #[test]
    fn ring_ledger_catches_conjured_descriptor() {
        let l = RingLedger {
            host: 1,
            core: 0,
            capacity: 256,
            available: 255,
            withheld: 2,
        };
        let v = checked(|o| l.check(o));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "rx-ring-descriptors");
    }

    #[test]
    fn frame_ledger_balances_with_in_flight_frames() {
        let l = HostFrameLedger {
            host: 1,
            link_frames: 100,
            link_drops: 5,
            arrived: 90,
            wire_in_flight: 5,
            ring_received: 80,
            ring_drops: 6,
            backlog_drops: 3,
            stale_conn_frames: 1,
            backlog_len: 12,
            polled: 68,
        };
        assert!(checked(|o| l.check(o)).is_empty());
    }

    #[test]
    fn frame_ledger_catches_leaked_descriptor() {
        // One try_receive() whose frame never reached a backlog: received
        // goes up, polled + backlog_len does not.
        let l = HostFrameLedger {
            host: 1,
            link_frames: 10,
            arrived: 10,
            ring_received: 10,
            polled: 9,
            ..HostFrameLedger::default()
        };
        let v = checked(|o| l.check(o));
        assert!(v.iter().any(|v| v.invariant == "backlog-ledger"));
    }

    #[test]
    fn rto_timer_ledger_wants_one_event_no_later_than_due() {
        let ledger = |due_ns, pending, latest_ns| RtoTimerLedger {
            flow: 3,
            due_ns,
            pending,
            latest_ns,
        };
        for good in [
            ledger(Some(10_000), 1, 4_000),  // fires early, re-filed then
            ledger(Some(10_000), 1, 10_000), // fires at its key
            ledger(None, 0, 0),
        ] {
            assert!(checked(|o| good.check(o)).is_empty(), "{good:?}");
        }
        for bad in [
            ledger(Some(10_000), 0, 0),      // re-file lost
            ledger(Some(10_000), 2, 4_000),  // event leaked
            ledger(Some(10_000), 1, 10_001), // fires late
            ledger(None, 1, 4_000),          // disarm missed
        ] {
            let v = checked(|o| bad.check(o));
            assert_eq!(v.len(), 1, "{bad:?}");
            assert_eq!(v[0].invariant, "rto-timer");
            assert!(v[0].detail.contains("flow 3"), "{}", v[0].detail);
        }
    }

    #[test]
    fn step_end_ledger_wants_one_end_per_running_core() {
        let held = StepEndLedger {
            host: 1,
            core: 4,
            running: true,
            held: true,
            nothing_waiting: true,
            ..Default::default()
        };
        let filed = StepEndLedger {
            held: false,
            pending: 1,
            nothing_waiting: false,
            backlog: 3,
            ..held
        };
        let idle = StepEndLedger {
            running: false,
            held: false,
            ..held
        };
        for good in [held, filed, idle] {
            assert!(checked(|o| good.check(o)).is_empty(), "{good:?}");
        }
        for bad in [
            StepEndLedger { pending: 1, ..held }, // held and filed
            StepEndLedger {
                pending: 0,
                ..filed
            }, // neither
            StepEndLedger {
                pending: 2,
                ..filed
            }, // filed twice
            StepEndLedger { pending: 1, ..idle }, // filed on an idle core
            StepEndLedger { held: true, ..idle }, // held on an idle core
            StepEndLedger {
                nothing_waiting: false,
                ..held
            }, // a thread or softirq waits behind the end
            StepEndLedger { backlog: 1, ..held }, // a lost settle at arrival
            StepEndLedger {
                pacer_ready: 1,
                ..held
            }, // a lost settle at a pacer release
        ] {
            let v = checked(|o| bad.check(o));
            assert_eq!(v.len(), 1, "{bad:?}");
            assert_eq!(v[0].invariant, "step-end");
            assert!(v[0].detail.contains("host 1 core 4"), "{}", v[0].detail);
        }
    }

    #[test]
    fn conn_timer_ledger_wants_one_carrier_at_or_before_the_key() {
        let armed = ConnTimerLedger {
            conn: 0x2a,
            queued: true,
            carriers: 1,
            carrier: Some((5_000_000, 7)),
            armed: Some((5_000_000, 9)),
            ..Default::default()
        };
        let disarmed = ConnTimerLedger {
            armed: None,
            ..armed
        };
        let idle = ConnTimerLedger {
            queued: false,
            carriers: 0,
            carrier: None,
            ..disarmed
        };
        for ok in [armed, disarmed, idle] {
            assert!(checked(|o| ok.check(o)).is_empty(), "{ok:?}");
        }
        for bad in [
            // A re-file lost: the flag says queued, nothing is.
            ConnTimerLedger {
                carriers: 0,
                carrier: None,
                ..disarmed
            },
            // A carrier leaked past the flag.
            ConnTimerLedger {
                queued: false,
                ..disarmed
            },
            // A second carrier filed.
            ConnTimerLedger {
                carriers: 2,
                ..disarmed
            },
            // The carrier sorts after the key (same time, later seq).
            ConnTimerLedger {
                carrier: Some((5_000_000, 10)),
                ..armed
            },
            // A backoff carrier leaked past its flag.
            ConnTimerLedger {
                backoffs: 1,
                backoff_at: Some((9_000_000, 3)),
                ..armed
            },
        ] {
            let v = checked(|o| bad.check(o));
            assert_eq!(v.len(), 1, "{bad:?}: {v:?}");
            assert_eq!(v[0].invariant, "conn-timer");
            assert!(v[0].detail.contains("conn 0x2a"), "{}", v[0].detail);
        }
        let lost = ConnTimerLedger {
            carriers: 0,
            carrier: None,
            ..disarmed
        };
        let v = checked(|o| lost.check(o));
        assert!(
            v[0].detail.contains("0 carriers pending, queued flag true"),
            "{}",
            v[0].detail
        );
        // An armed timer with no carrier at all fails both checks.
        let v = checked(|o| {
            ConnTimerLedger {
                carriers: 0,
                carrier: None,
                ..armed
            }
            .check(o)
        });
        assert_eq!(v.len(), 2);
        assert!(v[1].detail.contains("5000000 ns"), "{}", v[1].detail);
    }

    #[test]
    fn conn_timer_ledger_wants_the_covering_carrier_at_or_before_the_key() {
        // A backoff retry's carrier waits on the wheel at its own key.
        let backoff = ConnTimerLedger {
            conn: 0x2c,
            backoff: true,
            backoffs: 1,
            backoff_at: Some((20_000_000, 4)),
            armed: Some((20_000_000, 4)),
            ..Default::default()
        };
        // A nearer arm files a `ConnTimer`, which then covers the key
        // while the later backoff carrier still waits.
        let nearer = ConnTimerLedger {
            queued: true,
            carriers: 1,
            carrier: Some((7_000_000, 8)),
            armed: Some((7_000_000, 8)),
            ..backoff
        };
        for ok in [backoff, nearer] {
            assert!(checked(|o| ok.check(o)).is_empty(), "{ok:?}");
        }
        for bad in [
            // A nearer arm filed nothing: the backoff carrier is late.
            ConnTimerLedger {
                armed: Some((7_000_000, 8)),
                ..backoff
            },
            // The `ConnTimer` covers the key, and it is late, although
            // the backoff carrier is early enough.
            ConnTimerLedger {
                backoff_at: Some((6_000_000, 2)),
                carrier: Some((7_000_000, 9)),
                ..nearer
            },
            // A second backoff carrier filed.
            ConnTimerLedger {
                backoffs: 2,
                ..backoff
            },
        ] {
            let v = checked(|o| bad.check(o));
            assert_eq!(v.len(), 1, "{bad:?}: {v:?}");
            assert!(v[0].detail.contains("conn 0x2c"), "{}", v[0].detail);
        }
        let v = checked(|o| {
            ConnTimerLedger {
                backoff: false,
                ..backoff
            }
            .check(o)
        });
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(
            v[0].detail
                .contains("1 backoff carriers pending, backoff flag false"),
            "{}",
            v[0].detail
        );
    }

    #[test]
    fn conn_timer_ledger_wants_a_think_event_at_the_key() {
        let thinking = ConnTimerLedger {
            conn: 0x2b,
            think: Some((9_000, 3)),
            thinks_at_key: 1,
            ..Default::default()
        };
        assert!(checked(|o| thinking.check(o)).is_empty());
        let v = checked(|o| {
            ConnTimerLedger {
                thinks_at_key: 0,
                ..thinking
            }
            .check(o)
        });
        assert_eq!(v.len(), 1);
        assert!(
            v[0].detail.contains("thinking until 9000 ns"),
            "{}",
            v[0].detail
        );
    }

    #[test]
    fn segment_slab_ledger_catches_orphaned_slot() {
        let l = SegmentSlabLedger {
            live: 7,
            tx_queued: 0,
            wire_in_flight: 7,
            backlog: 0,
            sack_entries: 2,
            sack_acks: 2,
        };
        assert!(checked(|o| l.check(o)).is_empty());
        // A slot parked without an arrival event (or never freed after one).
        let v = checked(|o| SegmentSlabLedger { live: 8, ..l }.check(o));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "segment-slab-ledger");
    }

    #[test]
    fn segment_slab_ledger_counts_tx_queued_and_backlog_slots() {
        let l = SegmentSlabLedger {
            live: 12,
            tx_queued: 3,
            wire_in_flight: 4,
            backlog: 5,
            sack_entries: 0,
            sack_acks: 0,
        };
        assert!(checked(|o| l.check(o)).is_empty());
        // A Tx-queued run dropped without freeing its slot, and a polled
        // frame whose slot was never freed: each leaves one orphan.
        for orphan in [
            SegmentSlabLedger { tx_queued: 2, ..l },
            SegmentSlabLedger { backlog: 4, ..l },
        ] {
            let v = checked(|o| orphan.check(o));
            assert_eq!(v.len(), 1, "{orphan:?}");
            assert_eq!(v[0].invariant, "segment-slab-ledger");
        }
        // A slot freed twice (once at a drop, once at the poll) leaves the
        // slab one short of the frames that still hold slots.
        let v = checked(|o| SegmentSlabLedger { live: 11, ..l }.check(o));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn segment_slab_ledger_catches_orphaned_sack_entry() {
        let l = SegmentSlabLedger {
            live: 3,
            wire_in_flight: 3,
            sack_entries: 2,
            sack_acks: 2,
            ..SegmentSlabLedger::default()
        };
        assert!(checked(|o| l.check(o)).is_empty());
        // A dropped ACK whose slot was freed without its side entry, and a
        // side entry freed twice.
        for bad in [
            SegmentSlabLedger { sack_acks: 1, ..l },
            SegmentSlabLedger {
                sack_entries: 1,
                ..l
            },
        ] {
            let v = checked(|o| bad.check(o));
            assert_eq!(v.len(), 1, "{bad:?}");
            assert_eq!(v[0].invariant, "segment-slab-ledger");
            assert!(v[0].detail.contains("SACK"), "{}", v[0].detail);
        }
    }

    #[test]
    fn cycle_ledger_allows_per_call_rounding() {
        let l = CycleLedger {
            host: 0,
            busy_ns: 995,
            taxonomy_ns: 1000,
            charge_calls: 6,
        };
        assert!(checked(|o| l.check(o)).is_empty());
        let too_wide = CycleLedger {
            charge_calls: 4,
            ..l
        };
        assert_eq!(checked(|o| too_wide.check(o)).len(), 1);
        let over = CycleLedger { busy_ns: 1001, ..l };
        assert_eq!(checked(|o| over.check(o)).len(), 1);
    }

    #[test]
    fn arena_ledger_catches_leak() {
        let l = ArenaLedger {
            host: 1,
            live: 5,
            backlog_frames: 2,
            skb_frames: 2,
            gro_frames: 0, // one frame unreachable
        };
        let v = checked(|o| l.check(o));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "frame-arena-leak");
    }

    #[test]
    fn drop_ledger_reconciles() {
        let l = DropLedger {
            taxo_wire: 4,
            link_drops: 4,
            taxo_switch: 3,
            switch_drops: 3,
            taxo_ring_pool: 7,
            ring_drops: 7,
            taxo_backlog: 2,
            backlog_drops: 2,
            taxo_socket: 1,
            taxo_conn: 5,
            taxo_total: 4 + 3 + 7 + 2 + 1 + 5,
        };
        assert!(checked(|o| l.check(o)).is_empty());
        let bad = DropLedger { link_drops: 5, ..l };
        assert_eq!(checked(|o| bad.check(o)).len(), 1);
        let bad_switch = DropLedger {
            switch_drops: 2,
            ..l
        };
        let v = checked(|o| bad_switch.check(o));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "drop-taxonomy-switch");
    }

    #[test]
    fn drop_ledger_fails_loudly_on_unknown_class() {
        // A drop class counted in the taxonomy's total but absent from
        // every attributed group must not slip through silently.
        let l = DropLedger {
            taxo_wire: 4,
            link_drops: 4,
            taxo_total: 4 + 9, // 9 drops of a class the ledger never saw
            ..DropLedger::default()
        };
        let v = checked(|o| l.check(o));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "drop-taxonomy-unknown-class");
    }

    #[test]
    fn churn_ledger_catches_dangling_pool_handle() {
        let l = ChurnLedger {
            pool_len: 10,
            pool_live: 9,
            table_len: 50,
            table_capacity: 64,
            ..ChurnLedger::default()
        };
        let v = checked(|o| l.check(o));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "conn-pool-liveness");
    }

    #[test]
    fn churn_ledger_reconciles_handshake_aborts() {
        let l = ChurnLedger {
            pool_len: 0,
            pool_live: 0,
            table_len: 10,
            table_capacity: 64,
            lifecycle_aborts: 7,
            taxo_aborts: 7,
        };
        assert!(checked(|o| l.check(o)).is_empty());
        let bad = ChurnLedger {
            taxo_aborts: 6,
            ..l
        };
        let v = checked(|o| bad.check(o));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "handshake-abort-taxonomy");
    }

    #[test]
    fn accept_ledger_balances() {
        let l = AcceptLedger {
            depth: 64,
            len: 3,
            high_water: 64,
            enqueued: 100,
            dequeued: 90,
            released: 7,
            overflows: 12,
            cookies: 5,
            full_drops: 4,
            sheds: 3,
            taxo_accept_drops: 4,
        };
        assert!(checked(|o| l.check(o)).is_empty());
    }

    #[test]
    fn accept_ledger_catches_each_imbalance() {
        let ok = AcceptLedger {
            depth: 8,
            len: 0,
            high_water: 8,
            enqueued: 20,
            dequeued: 20,
            overflows: 2,
            cookies: 2,
            ..AcceptLedger::default()
        };
        assert!(checked(|o| ok.check(o)).is_empty());
        let over = AcceptLedger {
            high_water: 9,
            ..ok
        };
        assert!(checked(|o| over.check(o))
            .iter()
            .any(|v| v.invariant == "accept-queue-bound"));
        let leak = AcceptLedger { dequeued: 19, ..ok };
        assert!(checked(|o| leak.check(o))
            .iter()
            .any(|v| v.invariant == "accept-queue-slots"));
        let outcome = AcceptLedger { cookies: 1, ..ok };
        assert!(checked(|o| outcome.check(o))
            .iter()
            .any(|v| v.invariant == "accept-overflow-outcomes"));
        let taxo = AcceptLedger {
            full_drops: 1,
            cookies: 1,
            ..ok
        };
        assert!(checked(|o| taxo.check(o))
            .iter()
            .any(|v| v.invariant == "accept-drop-taxonomy"));
    }

    #[test]
    fn conn_mem_ledger_balances_and_catches_leaks() {
        let ok = ConnMemLedger {
            budget: 1_000,
            in_use: 200,
            peak: 900,
            charged: 5_000,
            freed: 4_800,
            alloc_fails: 3,
            taxo_mem_drops: 3,
        };
        assert!(checked(|o| ok.check(o)).is_empty());
        let leak = ConnMemLedger { freed: 4_700, ..ok };
        assert!(checked(|o| leak.check(o))
            .iter()
            .any(|v| v.invariant == "conn-mem-conservation"));
        let burst = ConnMemLedger { peak: 1_001, ..ok };
        assert!(checked(|o| burst.check(o))
            .iter()
            .any(|v| v.invariant == "conn-mem-budget"));
        let taxo = ConnMemLedger {
            taxo_mem_drops: 2,
            ..ok
        };
        assert!(checked(|o| taxo.check(o))
            .iter()
            .any(|v| v.invariant == "conn-mem-taxonomy"));
        // Unlimited budget: conservation still checked, bound is not.
        let unlimited = ConnMemLedger {
            budget: 0,
            peak: 1_000_000,
            ..ok
        };
        assert!(checked(|o| unlimited.check(o)).is_empty());
    }

    #[test]
    fn violation_display_names_the_invariant() {
        let v = Violation {
            invariant: "wire-frame-ledger",
            detail: "host 1: off by 3".into(),
        };
        assert_eq!(v.to_string(), "[wire-frame-ledger] host 1: off by 3");
    }
}
