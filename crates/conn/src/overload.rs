//! Overload-survival model: accept-queue backpressure, admission control,
//! per-connection host memory pressure, and slow/idle-client behavior.
//!
//! "Scouting the Path to a Million-Client Server" maps exactly what breaks
//! when a host approaches a million concurrent clients: the finite listen
//! queue overflows, per-connection kernel memory (request socks, full
//! socks) exhausts its budget, and slow or idle clients pin resources the
//! fast path needs. This module owns the pure, engine-independent pieces of
//! that model:
//!
//! * [`AdmissionPolicy`] — what the server does when the accept queue is
//!   full (silently drop the SYN, fall back to stateless SYN cookies, or
//!   shed with an immediate RST).
//! * [`AcceptQueue`] — the bounded listen/accept queue with full overflow
//!   accounting (feeds the audit crate's `AcceptLedger`).
//! * [`MemBudget`] — the per-host connection-memory budget; allocation
//!   failures surface as a distinct drop class.
//! * [`syn_cookie`] — the deterministic cookie function used by the
//!   SYN-cookie fallback (seed-stable so parallel sweeps stay
//!   byte-identical).
//! * [`think_time_ns`] — bounded-Pareto on/off think times for the
//!   heavy-tailed slow-client population.
//! * [`reap_scan`] — the idle-connection scan, in deterministic flow-table
//!   order, used by the engine's idle-reaper tick.

use hns_sim::{Duration, SimTime};

use crate::state::HalfConn;
use crate::table::{ConnId, FlowTable};

/// What the accept path does when the listen queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Silently discard the SYN. The client's RTO eventually retransmits,
    /// so the queue sheds load by pushing latency onto clients
    /// (`tcp_abort_on_overflow=0` with syncookies off).
    Drop,
    /// Answer statelessly with a SYN cookie: no queue slot, no request
    /// sock. The connection materialises only when the cookie-bearing ACK
    /// returns (`net.ipv4.tcp_syncookies=1`).
    Queue,
    /// Refuse immediately with a RST so the client fails fast instead of
    /// retrying into an already-saturated host (accept-shedding
    /// load-balancer behavior).
    Shed,
}

impl AdmissionPolicy {
    /// Short label for CSV/CLI output.
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionPolicy::Drop => "drop",
            AdmissionPolicy::Queue => "queue",
            AdmissionPolicy::Shed => "shed",
        }
    }

    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "drop" => Some(AdmissionPolicy::Drop),
            "queue" => Some(AdmissionPolicy::Queue),
            "shed" => Some(AdmissionPolicy::Shed),
            _ => None,
        }
    }
}

// Per-connection footprints and the slow-client think-time law. These are
// parameters of the model, taken from "Scouting the Path to a
// Million-Client Server", not experiment knobs: no figure sweeps them.

/// Bytes a fully established socket pins against
/// [`OverloadConfig::mem_budget`].
pub const SOCK_BYTES: u64 = 3_072;

/// Bytes a request sock (SYN_RCVD minisock) pins against
/// [`OverloadConfig::mem_budget`].
pub const MINISOCK_BYTES: u64 = 256;

/// Minimum think time of a slow client (the Pareto scale).
pub const THINK_MIN: Duration = Duration::from_millis(2);

/// Pareto shape of the think-time tail; smaller is heavier.
pub const THINK_SHAPE: f64 = 1.2;

/// Cap on one think time (bounds the tail so runs finish).
pub const THINK_CAP: Duration = Duration::from_millis(20);

/// Overload-model knobs, embedded in `ChurnConfig` (and therefore `Copy`).
///
/// The default is fully inert (`enabled = false`): existing churn runs are
/// bit-for-bit unchanged unless a scenario opts in.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OverloadConfig {
    /// Master switch. When false every other knob is ignored and the
    /// engine takes none of the overload branches (no extra RNG draws).
    pub enabled: bool,
    /// Accept-path behavior when the listen queue is full.
    pub policy: AdmissionPolicy,
    /// Listen/accept queue depth (`somaxconn`); must be > 0 when enabled.
    pub accept_queue: u32,
    /// Connection-memory budget in bytes (0 = unlimited). Request socks
    /// ([`MINISOCK_BYTES`]) and full socks ([`SOCK_BYTES`]) are charged
    /// against it; failures become the `conn_memory` drop class.
    pub mem_budget: u64,
    /// Reap server-side established connections idle at least this long
    /// (`Duration::ZERO` disables the reaper).
    pub idle_timeout: Duration,
    /// Fraction of arriving clients that are slow (heavy-tailed on/off
    /// behavior, think times from [`THINK_MIN`] to [`THINK_CAP`]); 0.0
    /// disables.
    pub slow_prob: f64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            enabled: false,
            policy: AdmissionPolicy::Drop,
            accept_queue: 128,
            mem_budget: 0,
            idle_timeout: Duration::ZERO,
            slow_prob: 0.0,
        }
    }
}

impl OverloadConfig {
    /// Validate the knobs (only meaningful when `enabled`).
    pub fn validate(&self) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        if self.accept_queue == 0 {
            return Err("overload: accept_queue depth must be > 0".into());
        }
        if self.mem_budget > 0 && self.mem_budget < SOCK_BYTES {
            return Err(format!(
                "overload: mem_budget {} smaller than one socket ({SOCK_BYTES})",
                self.mem_budget
            ));
        }
        if !(0.0..=1.0).contains(&self.slow_prob) {
            return Err(format!(
                "overload: slow_prob must be in [0, 1], got {}",
                self.slow_prob
            ));
        }
        Ok(())
    }
}

/// The bounded listen/accept queue, with the counters the audit ledger
/// reconciles: every SYN that reached the accept path either took a queue
/// slot (`enqueued`, later `dequeued` by accept or `released` by an abort)
/// or overflowed (`overflows`, split by admission outcome).
#[derive(Clone, Copy, Debug, Default)]
pub struct AcceptQueue {
    depth: u32,
    len: u32,
    high_water: u32,
    enqueued: u64,
    dequeued: u64,
    released: u64,
    overflows: u64,
    cookies: u64,
    full_drops: u64,
    sheds: u64,
}

impl AcceptQueue {
    /// A queue of the given depth.
    pub fn new(depth: u32) -> Self {
        AcceptQueue {
            depth,
            ..AcceptQueue::default()
        }
    }

    /// Take a queue slot for a fresh SYN_RCVD connection. Returns false
    /// (and counts the overflow) when the queue is full.
    pub fn push(&mut self) -> bool {
        if self.len >= self.depth {
            self.overflows += 1;
            return false;
        }
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
        self.enqueued += 1;
        true
    }

    /// `accept()` drained one pending connection.
    pub fn pop(&mut self) {
        debug_assert!(self.len > 0, "accept-queue pop with empty queue");
        self.len = self.len.saturating_sub(1);
        self.dequeued += 1;
    }

    /// A queued (SYN_RCVD) connection aborted before it was accepted.
    pub fn release(&mut self) {
        debug_assert!(self.len > 0, "accept-queue release with empty queue");
        self.len = self.len.saturating_sub(1);
        self.released += 1;
    }

    /// An overflow answered with a SYN cookie.
    pub fn note_cookie(&mut self) {
        self.cookies += 1;
    }

    /// An overflow silently dropped.
    pub fn note_full_drop(&mut self) {
        self.full_drops += 1;
    }

    /// An overflow refused with a RST.
    pub fn note_shed(&mut self) {
        self.sheds += 1;
    }

    /// Configured depth.
    pub fn depth(&self) -> u32 {
        self.depth
    }
    /// Current occupancy.
    pub fn len(&self) -> u32 {
        self.len
    }
    /// True when no connection is waiting to be accepted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
    /// Peak occupancy over the run.
    pub fn high_water(&self) -> u32 {
        self.high_water
    }
    /// Slots taken in total.
    pub fn enqueued(&self) -> u64 {
        self.enqueued
    }
    /// Slots drained by `accept()`.
    pub fn dequeued(&self) -> u64 {
        self.dequeued
    }
    /// Slots released by handshake aborts.
    pub fn released(&self) -> u64 {
        self.released
    }
    /// SYNs that found the queue full.
    pub fn overflows(&self) -> u64 {
        self.overflows
    }
    /// Overflows answered with SYN cookies.
    pub fn cookies(&self) -> u64 {
        self.cookies
    }
    /// Overflows silently dropped.
    pub fn full_drops(&self) -> u64 {
        self.full_drops
    }
    /// Overflows refused with RST.
    pub fn sheds(&self) -> u64 {
        self.sheds
    }
}

/// The host's connection-memory budget. `budget == 0` means unlimited
/// (charges are still tracked so the ledger closes).
#[derive(Clone, Copy, Debug, Default)]
pub struct MemBudget {
    budget: u64,
    in_use: u64,
    peak: u64,
    charged: u64,
    freed: u64,
    alloc_fails: u64,
}

impl MemBudget {
    /// A budget of the given size in bytes (0 = unlimited).
    pub fn new(budget: u64) -> Self {
        MemBudget {
            budget,
            ..MemBudget::default()
        }
    }

    /// Charge an allocation against the budget. On failure nothing is
    /// charged and the failure is counted.
    pub fn try_charge(&mut self, bytes: u64) -> bool {
        if self.budget > 0 && self.in_use + bytes > self.budget {
            self.alloc_fails += 1;
            return false;
        }
        self.in_use += bytes;
        self.peak = self.peak.max(self.in_use);
        self.charged += bytes;
        true
    }

    /// Return an allocation to the budget.
    pub fn free(&mut self, bytes: u64) {
        debug_assert!(
            self.in_use >= bytes,
            "memory budget freed more than charged"
        );
        self.in_use = self.in_use.saturating_sub(bytes);
        self.freed += bytes;
    }

    /// Configured budget (0 = unlimited).
    pub fn budget(&self) -> u64 {
        self.budget
    }
    /// Bytes currently pinned.
    pub fn in_use(&self) -> u64 {
        self.in_use
    }
    /// Peak bytes pinned over the run.
    pub fn peak(&self) -> u64 {
        self.peak
    }
    /// Total bytes ever charged.
    pub fn charged(&self) -> u64 {
        self.charged
    }
    /// Total bytes ever freed.
    pub fn freed(&self) -> u64 {
        self.freed
    }
    /// Allocations refused by the budget.
    pub fn alloc_fails(&self) -> u64 {
        self.alloc_fails
    }
}

/// Deterministic SYN cookie: a keyed hash of the connection id. Real
/// cookies fold the 4-tuple and a timestamp through SipHash; here the
/// packed connection id stands in for the 4-tuple and the secret derives
/// from the run seed, so the value is reproducible for a given (seed,
/// connection) regardless of event interleaving or job count.
pub fn syn_cookie(secret: u64, conn: u64) -> u32 {
    // SplitMix64 finalizer over the keyed id: cheap, well-mixed, stable.
    let mut z = conn ^ secret.rotate_left(17);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 32) as u32
}

/// Bounded-Pareto inverse-CDF sample: `min * (1-u)^(-1/shape)` clamped to
/// `[min, cap]`. `u` must be in `[0, 1)` (a raw uniform draw). Shared by
/// think times and per-request RPC sizes so both tails come from the same
/// well-tested transform.
pub fn bounded_pareto(u: f64, min: f64, shape: f64, cap: f64) -> f64 {
    let raw = min * (1.0 - u).powf(-1.0 / shape);
    raw.min(cap).max(min)
}

/// Bounded-Pareto think time in nanoseconds: `min * (1-u)^(-1/shape)`
/// clamped to `cap`. `u` must be in `[0, 1)` (a raw uniform draw).
pub fn think_time_ns(u: f64, min: Duration, shape: f64, cap: Duration) -> u64 {
    bounded_pareto(u, min.as_nanos() as f64, shape, cap.as_nanos() as f64) as u64
}

/// Scan the flow table for server-side established connections idle for at
/// least `timeout`, in the table's deterministic (shard, slot) iteration
/// order, into `out` (cleared first, so a caller's buffer is reused across
/// scans). The engine reaps exactly this list, so timer ordering is a pure
/// function of table state — property-tested in `prop_overload`.
pub fn reap_scan(table: &FlowTable, now: SimTime, timeout: Duration, out: &mut Vec<ConnId>) {
    out.clear();
    out.extend(
        table
            .iter()
            .filter(|(_, c)| c.server == HalfConn::Established && now.since(c.last_seen) >= timeout)
            .map(|(id, _)| id),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::Conn;

    #[test]
    fn default_is_inert_and_valid() {
        let ov = OverloadConfig::default();
        assert!(!ov.enabled);
        ov.validate().unwrap();
        let on = OverloadConfig {
            enabled: true,
            ..ov
        };
        on.validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        let bad = |f: fn(&mut OverloadConfig)| {
            let mut ov = OverloadConfig {
                enabled: true,
                ..OverloadConfig::default()
            };
            f(&mut ov);
            ov.validate()
        };
        assert!(bad(|o| o.accept_queue = 0).is_err());
        assert!(
            bad(|o| o.mem_budget = SOCK_BYTES - 1).is_err(),
            "budget below one sock"
        );
        assert!(bad(|o| o.mem_budget = SOCK_BYTES).is_ok());
        assert!(bad(|o| o.slow_prob = 1.5).is_err());
    }

    #[test]
    fn policy_labels_round_trip() {
        for p in [
            AdmissionPolicy::Drop,
            AdmissionPolicy::Queue,
            AdmissionPolicy::Shed,
        ] {
            assert_eq!(AdmissionPolicy::parse(p.label()), Some(p));
        }
        assert_eq!(AdmissionPolicy::parse("bogus"), None);
    }

    #[test]
    fn accept_queue_books_balance() {
        let mut q = AcceptQueue::new(2);
        assert!(q.push());
        assert!(q.push());
        assert!(!q.push(), "third push overflows a depth-2 queue");
        q.note_cookie();
        assert_eq!(q.len(), 2);
        assert_eq!(q.high_water(), 2);
        q.pop();
        q.release();
        assert!(q.is_empty());
        assert_eq!(q.enqueued(), q.dequeued() + q.released() + q.len() as u64);
        assert_eq!(q.overflows(), q.cookies() + q.full_drops() + q.sheds());
    }

    #[test]
    fn mem_budget_charges_and_fails() {
        let mut m = MemBudget::new(1_000);
        assert!(m.try_charge(600));
        assert!(!m.try_charge(600), "second charge exceeds the budget");
        assert_eq!(m.alloc_fails(), 1);
        assert!(m.try_charge(400));
        assert_eq!(m.in_use(), 1_000);
        assert_eq!(m.peak(), 1_000);
        m.free(600);
        assert_eq!(m.in_use(), 400);
        assert_eq!(m.charged(), m.freed() + m.in_use());
        // Unlimited budget never fails but still keeps books.
        let mut u = MemBudget::new(0);
        assert!(u.try_charge(u64::MAX / 2));
        assert_eq!(u.alloc_fails(), 0);
    }

    #[test]
    fn cookie_is_deterministic_and_keyed() {
        assert_eq!(syn_cookie(7, 42), syn_cookie(7, 42));
        assert_ne!(syn_cookie(7, 42), syn_cookie(8, 42));
        assert_ne!(syn_cookie(7, 42), syn_cookie(7, 43));
    }

    #[test]
    fn think_time_is_bounded() {
        let think = |u| think_time_ns(u, THINK_MIN, THINK_SHAPE, THINK_CAP);
        let (min, cap) = (THINK_MIN.as_nanos(), THINK_CAP.as_nanos());
        assert_eq!(think(0.0), min);
        assert_eq!(think(0.999_999_9), cap);
        let mid = think(0.5);
        assert!(mid > min && mid < cap);
    }

    #[test]
    fn reap_scan_picks_only_idle_established() {
        let mut t = FlowTable::new(4);
        let now = SimTime::from_nanos(10_000_000);
        let timeout = Duration::from_millis(5);
        let mut idle = Conn::established(0, 1, SimTime::ZERO);
        idle.last_seen = SimTime::ZERO; // idle 10ms
        let idle_id = t.install(idle);
        let mut fresh = Conn::established(0, 1, SimTime::ZERO);
        fresh.last_seen = SimTime::from_nanos(9_000_000); // idle 1ms
        t.install(fresh);
        let mut handshake = Conn::new(0, 1, SimTime::ZERO);
        handshake.server = HalfConn::SynRcvd;
        handshake.last_seen = SimTime::ZERO;
        t.install(handshake);
        let mut reaped = vec![idle_id, idle_id];
        reap_scan(&t, now, timeout, &mut reaped);
        assert_eq!(reaped, vec![idle_id], "the buffer is cleared first");
    }
}
