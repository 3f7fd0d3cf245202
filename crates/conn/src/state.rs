//! Per-connection state: the two half-connection machines and the compact
//! record the flow table stores.
//!
//! One [`Conn`] record models both ends of a simulated connection (the
//! client on host 0, the server on host 1), which halves memory at the
//! million-connection scale and keeps handshake bookkeeping in one place.
//! The record is deliberately small (40 bytes): at 1M concurrent
//! connections, every field earns its keep.

use hns_sim::{EventKey, SimTime};

/// State of one half-connection.
///
/// The client walks `Closed → SynSent → Established → FinWait → TimeWait →
/// Closed` (the actively-closing side holds TIME_WAIT); the server walks
/// `Closed → SynRcvd → Established → Closed`. This is the subset of the TCP
/// state diagram the churn workloads exercise — simultaneous open/close and
/// half-duplex shutdown are out of scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum HalfConn {
    /// No connection (initial and final state).
    Closed,
    /// Client sent SYN, awaiting SYN-ACK.
    SynSent,
    /// Server saw SYN, sent SYN-ACK, awaiting the completing ACK.
    SynRcvd,
    /// Handshake complete; data may flow.
    Established,
    /// Sent FIN, awaiting the peer's acknowledgment.
    FinWait,
    /// Actively-closed side draining 2MSL before the port is reusable.
    TimeWait,
}

impl HalfConn {
    /// True while the half occupies a socket (anything but `Closed`).
    #[inline]
    pub fn is_live(self) -> bool {
        self != HalfConn::Closed
    }

    /// True while the handshake is still in flight.
    #[inline]
    pub fn in_handshake(self) -> bool {
        matches!(self, HalfConn::SynSent | HalfConn::SynRcvd)
    }
}

/// Compact per-connection record stored in the flow table.
#[derive(Clone, Copy, Debug)]
pub struct Conn {
    /// Core running the client end (host 0).
    pub client_core: u16,
    /// Core handling the server end (host 1) — fixed RSS-style steering.
    pub server_core: u16,
    /// Client half state.
    pub client: HalfConn,
    /// Server half state.
    pub server: HalfConn,
    /// SYN retransmissions so far (handshake aborts past the retry cap).
    pub syn_retries: u8,
    /// Behavior and bookkeeping flag bits ([`Conn::SLOW`] and friends).
    pub flags: u8,
    /// When the client initiated the connection (handshake latency base).
    pub opened_at: SimTime,
    /// Key of the armed client timer — a retransmit deadline, or a slow
    /// client's think deadline while [`Conn::REQ_PENDING`] or
    /// [`Conn::CLOSE_PENDING`] is set — or [`EventKey::NONE`] when none is
    /// armed. The timer fires only at exactly this key, so an event filed
    /// under any other key is recognised as superseded.
    pub timer: EventKey,
    /// Last time the server observed activity on this connection (the
    /// idle-reaper's clock).
    pub last_seen: SimTime,
}

impl Conn {
    /// Flag: a slow client with heavy-tailed on/off think times.
    pub const SLOW: u8 = 1 << 0;
    /// Flag: admitted via the SYN-cookie fallback (no queue slot or
    /// request sock was ever held server-side).
    pub const COOKIE: u8 = 1 << 1;
    /// Flag: the armed timer sends the deferred first request (slow
    /// client thinking), not a retransmission.
    pub const REQ_PENDING: u8 = 1 << 2;
    /// Flag: the armed timer initiates the deferred close (slow client
    /// lingering), not a retransmission.
    pub const CLOSE_PENDING: u8 = 1 << 3;
    /// Flag: the server has received the request (a later copy is a
    /// retransmission).
    pub const REQ_DONE: u8 = 1 << 4;
    /// Flag: one retransmit-timer event is pending for this connection,
    /// at most one `syn_rto` ahead of when it was filed.
    pub const QUEUED: u8 = 1 << 5;
    /// Flag: the connection's lifecycle is traced (its trace id is kept
    /// outside the record).
    pub const TRACED: u8 = 1 << 6;
    /// Flag: one backoff-timer event is pending for this connection, filed
    /// at a backoff retry's own deadline.
    pub const BACKOFF: u8 = 1 << 7;

    /// Fresh (pre-SYN) connection record.
    pub fn new(client_core: u16, server_core: u16, opened_at: SimTime) -> Self {
        Conn {
            client_core,
            server_core,
            client: HalfConn::Closed,
            server: HalfConn::Closed,
            syn_retries: 0,
            flags: 0,
            opened_at,
            timer: EventKey::NONE,
            last_seen: opened_at,
        }
    }

    /// Fully-established connection (used to seed long-lived pools without
    /// simulating their historical handshakes).
    pub fn established(client_core: u16, server_core: u16, opened_at: SimTime) -> Self {
        let mut c = Conn::new(client_core, server_core, opened_at);
        c.client = HalfConn::Established;
        c.server = HalfConn::Established;
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_stays_compact() {
        // The million-connection budget: the record must not silently grow.
        assert!(
            std::mem::size_of::<Conn>() <= 40,
            "Conn is {} bytes; keep it <= 40 for 1M-conn runs",
            std::mem::size_of::<Conn>()
        );
    }

    #[test]
    fn half_state_predicates() {
        assert!(!HalfConn::Closed.is_live());
        assert!(HalfConn::SynSent.is_live());
        assert!(HalfConn::TimeWait.is_live());
        assert!(HalfConn::SynSent.in_handshake());
        assert!(HalfConn::SynRcvd.in_handshake());
        assert!(!HalfConn::Established.in_handshake());
    }

    #[test]
    fn constructors() {
        let c = Conn::new(1, 2, SimTime::from_nanos(5));
        assert_eq!(c.client, HalfConn::Closed);
        assert_eq!(c.server, HalfConn::Closed);
        assert_eq!(c.timer, EventKey::NONE);
        let e = Conn::established(1, 2, SimTime::ZERO);
        assert_eq!(e.client, HalfConn::Established);
        assert_eq!(e.server, HalfConn::Established);
        assert_eq!(e.last_seen, SimTime::ZERO);
    }

    #[test]
    fn flag_bits_are_distinct() {
        let all = Conn::SLOW
            | Conn::COOKIE
            | Conn::REQ_PENDING
            | Conn::CLOSE_PENDING
            | Conn::REQ_DONE
            | Conn::QUEUED
            | Conn::TRACED
            | Conn::BACKOFF;
        assert_eq!(all.count_ones(), 8, "flag bits must not overlap");
        assert_eq!(Conn::new(0, 0, SimTime::ZERO).flags, 0);
    }
}
