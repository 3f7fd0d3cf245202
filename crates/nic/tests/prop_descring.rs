//! Property tests for the offload descriptor ring.
//!
//! The ring's counter model makes its conservation laws directly
//! checkable: under *any* interleaving of posts, device completions and
//! host harvests, `harvested ≤ completed ≤ posted`, the producer never
//! claims a slot whose completion is unreaped, ids are never lost or
//! duplicated, and completion batches are exact (a batch completes
//! `min(n, in_flight)` descriptors, no more, no fewer).

use hns_nic::DescRing;
use proptest::prelude::*;

/// One step of an arbitrary driver/device interleaving.
#[derive(Clone, Copy, Debug)]
enum Op {
    Post,
    Complete(u64),
    Harvest(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Post),
        (0u64..40).prop_map(Op::Complete),
        (0u64..40).prop_map(Op::Harvest),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary interleavings preserve every invariant after every
    /// operation, batches are exact, and accepted posts hand out the
    /// monotone id sequence 0,1,2,… — never losing or duplicating a
    /// descriptor.
    #[test]
    fn interleavings_never_lose_or_duplicate(
        cap in 1u64..32,
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        let mut r = DescRing::new(cap);
        let mut next_id = 0u64;
        for op in ops {
            match op {
                Op::Post => {
                    let free = r.free_slots();
                    match r.try_post() {
                        Some(id) => {
                            prop_assert!(free > 0, "accepted a post with no free slot");
                            prop_assert_eq!(id, next_id, "ids must be dense and monotone");
                            next_id += 1;
                        }
                        None => prop_assert_eq!(free, 0, "rejected a post with free slots"),
                    }
                }
                Op::Complete(n) => {
                    let in_flight = r.in_flight();
                    let done = r.complete(n);
                    prop_assert_eq!(done, n.min(in_flight), "completion batch not exact");
                }
                Op::Harvest(n) => {
                    let pending = r.unharvested();
                    let reaped = r.harvest(n);
                    prop_assert_eq!(reaped, n.min(pending), "harvest batch not exact");
                }
            }
            prop_assert!(r.invariants_hold(), "invariants broken: {:?}", r);
            prop_assert_eq!(r.posted(), next_id, "posted counter drifted from handed-out ids");
            // Every slot is in exactly one state: free, owned by the
            // device (in flight), or completed-awaiting-harvest.
            prop_assert_eq!(
                r.free_slots() + r.in_flight() + r.unharvested(),
                cap,
                "slot accounting must partition the ring"
            );
        }
    }

    /// Head/tail wraparound: run strictly more than `cap` descriptors
    /// through the ring in full post/complete/harvest rounds; physical
    /// slots cycle 0..cap while ids keep counting, and the ring ends
    /// empty with all counters equal.
    #[test]
    fn wraparound_reuses_slots_without_losing_ids(
        cap in 1u64..16,
        rounds in 2u64..20,
        batch_extra in 0u64..8,
    ) {
        let mut r = DescRing::new(cap);
        let batch = (1 + batch_extra).min(cap);
        let mut expect_id = 0u64;
        for _ in 0..rounds {
            for _ in 0..batch {
                let id = r.try_post().expect("batch ≤ cap must fit in an empty ring");
                prop_assert_eq!(id, expect_id);
                expect_id += 1;
            }
            prop_assert_eq!(r.complete(u64::MAX), batch);
            prop_assert_eq!(r.harvest(u64::MAX), batch);
            prop_assert!(r.invariants_hold());
        }
        prop_assert_eq!(r.posted(), rounds * batch);
        prop_assert_eq!(r.posted(), r.completed());
        prop_assert_eq!(r.completed(), r.harvested());
        prop_assert_eq!(r.free_slots(), cap);
    }

    /// A saturating producer against a slower device: the ring caps
    /// in-flight work at its capacity, and once the device catches up
    /// every posted descriptor is eventually harvested exactly once.
    #[test]
    fn saturation_then_drain_conserves_descriptors(
        cap in 1u64..32,
        bursts in proptest::collection::vec((1u64..64, 0u64..8), 1..50),
    ) {
        let mut r = DescRing::new(cap);
        for (want_post, device_batch) in bursts {
            let free_before = r.free_slots();
            let mut accepted = 0u64;
            for _ in 0..want_post {
                if r.try_post().is_some() {
                    accepted += 1;
                }
            }
            prop_assert_eq!(
                accepted,
                want_post.min(free_before),
                "must accept exactly the free slots"
            );
            prop_assert!(r.posted() - r.harvested() <= cap, "overcommitted the ring");
            r.complete(device_batch);
            r.harvest(u64::MAX);
            prop_assert!(r.invariants_hold());
        }
        // Drain: device completes everything, host reaps everything.
        r.complete(u64::MAX);
        let _ = r.harvest(u64::MAX);
        prop_assert_eq!(r.posted(), r.harvested(), "descriptors lost in the ring");
        prop_assert_eq!(r.free_slots(), cap);
    }
}
