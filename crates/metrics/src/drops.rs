//! Drop taxonomy: where every lost frame died.
//!
//! The paper reports only an aggregate packet-drop rate (Fig. 9). For fault
//! injection we need attribution: a frame can be lost on the wire, at the
//! NIC for want of Rx descriptors, at the softirq backlog (GRO overflow,
//! the `netdev_max_backlog` analogue), at the socket for arriving outside
//! the receive window, or because the page pool could not back a descriptor
//! replenish. Every dropped frame is charged to exactly one bucket, so
//! `total()` equals the true number of frames lost end-to-end and resilience
//! experiments can verify full accounting.
//!
//! Overload runs add connection-level classes: a handshake the client
//! abandoned after its last SYN retry, a SYN discarded at a full accept queue,
//! and an allocation refused by the connection-memory budget. These are
//! connection-lifecycle losses rather than frame-layer ones; they serialize
//! only when nonzero so pre-overload reports stay byte-identical.

use crate::schema::{field, Field, Section};

/// [`DropStats`] re-grouped by observing layer (see [`DropStats::by_layer`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerDrops {
    /// Drops the link itself observed.
    pub wire: u64,
    /// Drops the ToR switch observed (shared-buffer overflow).
    pub switch: u64,
    /// Drops the NIC observed (descriptor or page-pool exhaustion).
    pub nic: u64,
    /// Drops the softirq backlog cap observed.
    pub backlog: u64,
    /// Drops the socket observed (duplicate data discarded).
    pub socket: u64,
    /// Connection-level losses the lifecycle engine observed (handshake
    /// aborts, accept-queue discards, memory-budget refusals).
    pub conn: u64,
}

/// Frames dropped, attributed to the layer that dropped them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DropStats {
    /// Lost in the network (random loss, burst loss, link flap).
    pub wire: u64,
    /// Dropped at the ToR switch because the shared egress buffer was full
    /// (fabric incast overflow; only possible when a fabric is configured).
    pub switch_buffer: u64,
    /// Arrived at the NIC but no free Rx descriptor (organic exhaustion
    /// under incast, or injected ring-exhaustion faults).
    pub rx_ring: u64,
    /// Rx descriptor available but the per-core softirq backlog was full
    /// (GRO/backlog overflow).
    pub gro_overflow: u64,
    /// Delivered to TCP but outside the receive window (socket queue full
    /// from the sender's point of view).
    pub socket_queue: u64,
    /// Rx descriptor replenish failed because the page pool was exhausted
    /// (injected allocation-failure faults).
    pub pool: u64,
    /// Handshake abandoned by the client after exhausting its SYN retries
    /// (the connection, not a single frame, is what was lost).
    pub handshake_abort: u64,
    /// SYN discarded because the accept queue was full and the admission
    /// policy was `Drop`.
    pub accept_queue: u64,
    /// Connection-memory budget refused an allocation (request sock at
    /// SYN, or full sock at establish — the latter surfaces as a RST).
    pub conn_memory: u64,
}

impl DropStats {
    /// All-zero stats.
    pub const fn new() -> Self {
        DropStats {
            wire: 0,
            switch_buffer: 0,
            rx_ring: 0,
            gro_overflow: 0,
            socket_queue: 0,
            pool: 0,
            handshake_abort: 0,
            accept_queue: 0,
            conn_memory: 0,
        }
    }

    /// Total losses across every attribution point (frame-layer and
    /// connection-level classes alike).
    pub fn total(&self) -> u64 {
        self.wire
            + self.switch_buffer
            + self.rx_ring
            + self.gro_overflow
            + self.socket_queue
            + self.pool
            + self.handshake_abort
            + self.accept_queue
            + self.conn_memory
    }

    /// Bucket-wise `self - baseline`, used to exclude warmup drops from the
    /// measurement window (saturating, so a never-reset baseline is safe).
    pub fn since(&self, baseline: DropStats) -> DropStats {
        DropStats {
            wire: self.wire.saturating_sub(baseline.wire),
            switch_buffer: self.switch_buffer.saturating_sub(baseline.switch_buffer),
            rx_ring: self.rx_ring.saturating_sub(baseline.rx_ring),
            gro_overflow: self.gro_overflow.saturating_sub(baseline.gro_overflow),
            socket_queue: self.socket_queue.saturating_sub(baseline.socket_queue),
            pool: self.pool.saturating_sub(baseline.pool),
            handshake_abort: self
                .handshake_abort
                .saturating_sub(baseline.handshake_abort),
            accept_queue: self.accept_queue.saturating_sub(baseline.accept_queue),
            conn_memory: self.conn_memory.saturating_sub(baseline.conn_memory),
        }
    }

    /// The taxonomy re-grouped by the *layer* that observed each drop: the
    /// wire keeps its own counter, the NIC observes both descriptor and
    /// page-pool failures, the softirq backlog observes its cap, and the
    /// socket observes duplicate discards. The invariant auditor reconciles
    /// each group against the corresponding layer-local counters, proving
    /// every dropped frame was charged to exactly one bucket.
    pub fn by_layer(&self) -> LayerDrops {
        LayerDrops {
            wire: self.wire,
            switch: self.switch_buffer,
            nic: self.rx_ring + self.pool,
            backlog: self.gro_overflow,
            socket: self.socket_queue,
            conn: self.handshake_abort + self.accept_queue + self.conn_memory,
        }
    }

    /// Labelled `(bucket, count)` view in stable order.
    pub fn buckets(&self) -> [(&'static str, u64); 9] {
        [
            ("wire", self.wire),
            ("switch_buffer", self.switch_buffer),
            ("rx_ring", self.rx_ring),
            ("gro_overflow", self.gro_overflow),
            ("socket_queue", self.socket_queue),
            ("pool", self.pool),
            ("handshake_abort", self.handshake_abort),
            ("accept_queue", self.accept_queue),
            ("conn_memory", self.conn_memory),
        ]
    }
}

impl Section for DropStats {
    // Connection-level and fabric classes only appear when something was
    // lost there, keeping pre-overload/pre-fabric reports byte-identical.
    const FIELDS: &'static [Field<Self>] = &[
        field!(wire),
        field!(rx_ring),
        field!(gro_overflow),
        field!(socket_queue),
        field!(pool),
        field!(switch_buffer when(|d| d.switch_buffer > 0)),
        field!(handshake_abort when(|d| d.handshake_abort > 0)),
        field!(accept_queue when(|d| d.accept_queue > 0)),
        field!(conn_memory when(|d| d.conn_memory > 0)),
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Node;

    #[test]
    fn total_sums_every_bucket() {
        let d = DropStats {
            wire: 1,
            switch_buffer: 9,
            rx_ring: 2,
            gro_overflow: 3,
            socket_queue: 4,
            pool: 5,
            handshake_abort: 6,
            accept_queue: 7,
            conn_memory: 8,
        };
        assert_eq!(d.total(), 45);
        assert_eq!(d.buckets().iter().map(|&(_, n)| n).sum::<u64>(), 45);
    }

    #[test]
    fn since_subtracts_bucketwise() {
        let a = DropStats {
            wire: 13,
            rx_ring: 5,
            pool: 7,
            ..DropStats::new()
        };
        let b = DropStats {
            wire: 3,
            pool: 7,
            ..DropStats::new()
        };
        let delta = a.since(b);
        assert_eq!(delta.wire, 10);
        assert_eq!(delta.rx_ring, 5);
        assert_eq!(delta.pool, 0);
    }

    #[test]
    fn by_layer_partitions_every_bucket() {
        let d = DropStats {
            wire: 1,
            switch_buffer: 9,
            rx_ring: 2,
            gro_overflow: 3,
            socket_queue: 4,
            pool: 5,
            handshake_abort: 6,
            accept_queue: 7,
            conn_memory: 8,
        };
        let l = d.by_layer();
        assert_eq!(l.wire, 1);
        assert_eq!(l.switch, 9);
        assert_eq!(l.nic, 7);
        assert_eq!(l.backlog, 3);
        assert_eq!(l.socket, 4);
        assert_eq!(l.conn, 21);
        assert_eq!(
            l.wire + l.switch + l.nic + l.backlog + l.socket + l.conn,
            d.total()
        );
    }

    fn round_trip(d: DropStats) -> DropStats {
        let mut back = DropStats::new();
        back.read(&d.to_value()).unwrap();
        back
    }

    #[test]
    fn json_round_trip() {
        let d = DropStats {
            wire: 8,
            gro_overflow: 1,
            socket_queue: 2,
            ..DropStats::new()
        };
        assert_eq!(round_trip(d), d);
        let o = DropStats {
            switch_buffer: 2,
            handshake_abort: 3,
            accept_queue: 4,
            conn_memory: 5,
            ..d
        };
        assert_eq!(round_trip(o), o);
    }

    /// Pre-overload/pre-fabric reports must not grow keys: connection-level
    /// and fabric classes serialize only when nonzero.
    #[test]
    fn zero_conn_classes_stay_invisible() {
        let json = DropStats::new().to_value().compact();
        assert!(!json.contains("handshake_abort"));
        assert!(!json.contains("accept_queue"));
        assert!(!json.contains("conn_memory"));
        assert!(!json.contains("switch_buffer"));
        assert!(json.contains("socket_queue"), "legacy keys always present");
    }
}
