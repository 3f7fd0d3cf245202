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
/// never be ahead of the sender and the app never ahead of the receiver.
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
    /// Bytes the receiving application has consumed.
    pub app_read: u64,
    /// Bytes delivered to the socket but not yet read by the app.
    pub rx_backlog: u64,
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
        if self.app_read + self.rx_backlog != self.rcv_nxt {
            out.push(Violation {
                invariant: "flow-rx-backlog-ledger",
                detail: format!(
                    "flow {f}: app_read {} + rx_backlog {} != rcv_nxt {}",
                    self.app_read, self.rx_backlog, self.rcv_nxt
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
    /// Frames the link accepted toward this host (pre-loss).
    pub link_frames: u64,
    /// Frames the link dropped toward this host.
    pub link_drops: u64,
    /// Frames whose arrival event has fired.
    pub arrived: u64,
    /// Frames in flight on the wire (arrival event scheduled, not fired).
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

/// In-flight segment slab conservation: every segment parked in the world's
/// slab belongs to exactly one arrival event still on the wire, so the
/// slab's live slots must equal the frames in flight toward all hosts.
#[derive(Clone, Copy, Debug, Default)]
pub struct SegmentSlabLedger {
    /// Slab slots currently holding a segment.
    pub live: u64,
    /// Frames in flight on the wire, summed over destination hosts.
    pub wire_in_flight: u64,
}

impl SegmentSlabLedger {
    /// Check slab conservation, appending violations to `out`.
    pub fn check(&self, out: &mut Vec<Violation>) {
        if self.live != self.wire_in_flight {
            out.push(Violation {
                invariant: "segment-slab-ledger",
                detail: format!(
                    "{} live slab segments != {} frames in flight",
                    self.live, self.wire_in_flight
                ),
            });
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
    /// Link-local drop counters, both directions.
    pub link_drops: u64,
    /// Taxonomy switch_buffer bucket (ToR shared-buffer overflow).
    pub taxo_switch: u64,
    /// Fabric-local per-port drop counters (zero without a fabric).
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
            rx_backlog: 10,
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
            rx_backlog: 0,
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
            ..FlowLedger::default()
        };
        let v = checked(|o| l.check(o));
        assert!(v.iter().any(|v| v.invariant == "flow-rcv-ahead-of-snd"));
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
    fn segment_slab_ledger_catches_orphaned_slot() {
        let l = SegmentSlabLedger {
            live: 7,
            wire_in_flight: 7,
        };
        assert!(checked(|o| l.check(o)).is_empty());
        // A slot parked without an arrival event (or never freed after one).
        let v = checked(|o| SegmentSlabLedger { live: 8, ..l }.check(o));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "segment-slab-ledger");
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
