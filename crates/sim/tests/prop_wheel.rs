//! Differential property tests: the timer-wheel [`EventQueue`] against the
//! reference binary-heap [`HeapEventQueue`].
//!
//! Both queues consume identical operation streams — interleaved
//! schedules (near, mid-wheel, far-spill horizons), bulk `schedule_all`
//! runs, cancellations of pending *and already-fired* tokens, and pops —
//! and every observable (`pop` results, `len`, `popped`, `peek_time`,
//! `now`) is asserted equal after every single operation. A dedicated
//! property keeps some events outside the wheel under reserved keys and
//! merges them through `pop_before` (with mid-run cancellations and
//! same-tick re-reservations) against an oracle that schedules a marker
//! event for each key, and another pins slot generations near `u64::MAX`
//! so wrap-around reuse is covered, not just reachable. Two workload-shaped profiles
//! follow: a far timer that pins the wheel's front limit while bursts of
//! near events insert into a long sorted front, and a cancel-heavy stream
//! whose buried cancels are followed by schedules that reuse slots.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hns_sim::event::EventToken;
use hns_sim::{EventKey, EventQueue, HeapEventQueue, Next, SimTime};
use proptest::prelude::*;

/// Decoded operation stream: `(kind, a, b)` triples.
type Ops = Vec<(u64, u64, u64)>;

fn ops_strategy(len: usize) -> impl Strategy<Value = Ops> {
    proptest::collection::vec((0u64..10, any::<u64>(), any::<u64>()), 1..len)
}

/// Delay horizon by profile: exercises the front, every wheel level, and
/// the spill list.
fn horizon(profile: u64) -> u64 {
    match profile % 7 {
        0 => 60,              // same / adjacent level-0 bucket
        1 => 1_500,           // level 0 window (2.05us)
        2 => 300_000,         // level 1 window (524us)
        3 => 100_000_000,     // level 2 window (134ms)
        4 => 10_000_000_000,  // level 3 window (34.4s)
        5 => 100_000_000_000, // spill (≳34s ahead)
        _ => 0,               // exactly now (same-tick)
    }
}

/// Apply one op to both queues, checking pop results match. Tokens for
/// outstanding events are kept in `live`, fired/cancelled ones in `dead`
/// so stale-token cancels (always no-ops) get exercised too.
#[allow(clippy::too_many_arguments)]
fn apply(
    op: (u64, u64, u64),
    id: &mut u64,
    w: &mut EventQueue<u64>,
    h: &mut HeapEventQueue<u64>,
    live: &mut Vec<(EventToken, EventToken)>,
    dead: &mut Vec<(EventToken, EventToken)>,
) {
    let (kind, a, b) = op;
    match kind {
        // Schedule one event at a horizon chosen by `a`.
        0..=3 => {
            let at = SimTime::from_nanos(w.now().as_nanos() + b % (horizon(a) + 1));
            let tw = w.schedule(at, *id);
            let th = h.schedule(at, *id);
            *id += 1;
            live.push((tw, th));
        }
        // Bulk schedule_all on the wheel vs the reference semantics: one
        // schedule per event at the same instant (tokens not retained).
        4 => {
            let at = SimTime::from_nanos(w.now().as_nanos() + b % (horizon(a) + 1));
            let n = 1 + a % 5;
            w.schedule_all(at, *id..*id + n);
            for e in *id..*id + n {
                h.schedule(at, e);
            }
            *id += n;
        }
        // Cancel an outstanding event.
        5..=6 => {
            if !live.is_empty() {
                let k = (a as usize) % live.len();
                let (tw, th) = live.swap_remove(k);
                w.cancel(tw);
                h.cancel(th);
                dead.push((tw, th));
            }
        }
        // Cancel a fired-or-cancelled token: must be a no-op on both.
        7 => {
            if !dead.is_empty() {
                let k = (a as usize) % dead.len();
                let (tw, th) = dead[k];
                w.cancel(tw);
                h.cancel(th);
            }
        }
        // Pop.
        _ => {
            let (pw, ph) = (w.pop(), h.pop());
            assert_eq!(pw, ph, "pop diverged");
            if pw.is_some() {
                // The fired event's token is now dead on both sides; move
                // one live pair over when we can't tell which fired (the
                // exact pair doesn't matter for no-op cancels).
                if let Some(p) = live.pop() {
                    dead.push(p);
                }
            }
        }
    }
}

fn assert_observables(w: &EventQueue<u64>, h: &HeapEventQueue<u64>) {
    assert_eq!(w.len(), h.len(), "len diverged");
    assert_eq!(w.is_empty(), h.is_empty());
    assert_eq!(w.popped(), h.popped(), "popped diverged");
    assert_eq!(w.peek_time(), h.peek_time(), "peek_time diverged");
    assert_eq!(w.now(), h.now(), "now diverged");
}

/// One merged pop: the wheel's head or its earliest reserved key, against
/// the oracle's next event (a marker where the wheel side holds a key).
/// Returns whether anything fired.
fn pop_both(
    w: &mut EventQueue<u64>,
    h: &mut HeapEventQueue<u64>,
    keys: &mut BinaryHeap<Reverse<(EventKey, u64)>>,
) -> bool {
    let fired = match w.pop_before(keys.peek().map(|k| k.0 .0)) {
        Next::Event(t, e) => Some((t, e)),
        Next::External(t) => keys.pop().map(|Reverse((_, marker))| (t, marker)),
        Next::Empty => None,
    };
    assert_eq!(fired, h.pop(), "merged pop diverged");
    fired.is_some()
}

fn assert_merged_observables(
    w: &EventQueue<u64>,
    h: &HeapEventQueue<u64>,
    keys: &BinaryHeap<Reverse<(EventKey, u64)>>,
) {
    assert_eq!(w.len() + keys.len(), h.len(), "len diverged");
    assert_eq!(w.popped(), h.popped(), "popped diverged");
    assert_eq!(w.now(), h.now(), "now diverged");
    let key_time = keys.peek().map(|k| k.0 .0.time);
    let merged = match (w.peek_time(), key_time) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    assert_eq!(merged, h.peek_time(), "peek_time diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary interleavings of schedule / schedule_all / cancel /
    /// cancel-after-fire / pop: every observable matches the heap oracle
    /// after every operation, and draining both yields identical streams.
    #[test]
    fn wheel_matches_heap_on_interleaved_ops(ops in ops_strategy(400)) {
        let mut w: EventQueue<u64> = EventQueue::new();
        let mut h: HeapEventQueue<u64> = HeapEventQueue::new();
        let mut id = 0u64;
        let (mut live, mut dead) = (Vec::new(), Vec::new());
        for op in ops {
            apply(op, &mut id, &mut w, &mut h, &mut live, &mut dead);
            assert_observables(&w, &h);
        }
        loop {
            let (pw, ph) = (w.pop(), h.pop());
            prop_assert_eq!(pw, ph);
            assert_observables(&w, &h);
            if pw.is_none() {
                break;
            }
        }
        prop_assert_eq!(w.popped(), h.popped());
    }

    /// Same differential drive with slot generations pinned near
    /// `u64::MAX`, so fire/cancel bumps wrap and stale pre-wrap tokens
    /// must stay dead on both implementations.
    #[test]
    fn wheel_matches_heap_across_generation_wrap(ops in ops_strategy(200)) {
        let mut w: EventQueue<u64> = EventQueue::new();
        let mut h: HeapEventQueue<u64> = HeapEventQueue::new();
        // Materialize a few slots, then pin them just below the wrap on
        // both sides (slot assignment is deterministic and identical).
        let mut first = Vec::new();
        for i in 0..4u64 {
            let tw = w.schedule(SimTime::from_nanos(i + 1), i);
            let th = h.schedule(SimTime::from_nanos(i + 1), i);
            first.push((tw, th));
        }
        for (tw, th) in first {
            w.cancel(tw);
            h.cancel(th);
        }
        for slot in 0..4u32 {
            w.force_generation(slot, u64::MAX - 1);
            h.force_generation(slot, u64::MAX - 1);
        }
        let mut id = 10u64;
        let (mut live, mut dead) = (Vec::new(), Vec::new());
        for op in ops {
            apply(op, &mut id, &mut w, &mut h, &mut live, &mut dead);
            assert_observables(&w, &h);
        }
        loop {
            let (pw, ph) = (w.pop(), h.pop());
            prop_assert_eq!(pw, ph);
            if pw.is_none() {
                break;
            }
        }
        assert_observables(&w, &h);
    }

    /// Events kept outside the queue against one queue holding them all:
    /// the wheel side reserves keys (held in a caller heap, as the world
    /// holds NIC drains) and merges them through `pop_before`, while the
    /// heap oracle schedules a marker event wherever a key is reserved.
    /// Mid-run cancellations, handler-style same-tick re-reservations and
    /// cancels make every pop — event or marker — and every counter match.
    #[test]
    fn reserved_keys_match_heap_markers(ops in ops_strategy(300)) {
        let mut w: EventQueue<u64> = EventQueue::new();
        let mut h: HeapEventQueue<u64> = HeapEventQueue::new();
        let mut keys: BinaryHeap<Reverse<(EventKey, u64)>> = BinaryHeap::new();
        let mut id = 0u64;
        let mut live: Vec<(EventToken, EventToken)> = Vec::new();
        for (kind, a, b) in ops {
            let at = SimTime::from_nanos(w.now().as_nanos() + b % (horizon(a) + 1));
            match kind {
                // Schedule on both (same-tick horizons included).
                0..=3 => {
                    live.push((w.schedule(at, id), h.schedule(at, id)));
                    id += 1;
                }
                // Reserve a key: a marker event on the oracle.
                4..=5 => {
                    keys.push(Reverse((w.reserve(at), id)));
                    h.schedule(at, id);
                    id += 1;
                }
                // Cancel an outstanding event on both.
                6 => {
                    if !live.is_empty() {
                        let (tw, th) = live.swap_remove((a as usize) % live.len());
                        w.cancel(tw);
                        h.cancel(th);
                    }
                }
                // Pop a few. `a` odd => each "handler" cancels the newest
                // scheduled event and re-reserves a key at its own tick,
                // as `tx_drain` re-arms the NIC.
                _ => {
                    for _ in 0..1 + a % 4 {
                        pop_both(&mut w, &mut h, &mut keys);
                        if a % 2 == 1 {
                            if let Some((tw, th)) = live.pop() {
                                w.cancel(tw);
                                h.cancel(th);
                            }
                            keys.push(Reverse((w.reserve(w.now()), id)));
                            h.schedule(h.now(), id);
                            id += 1;
                        }
                    }
                }
            }
            assert_merged_observables(&w, &h, &keys);
        }
        while pop_both(&mut w, &mut h, &mut keys) {
            assert_merged_observables(&w, &h, &keys);
        }
        prop_assert!(keys.is_empty() && w.is_empty() && h.is_empty());
        prop_assert_eq!(w.popped(), h.popped());
    }

    /// A far timer (an RTO, a 1 ms autotune tick) pins the front limit
    /// far ahead, so every nearer schedule is insertion-sorted into the
    /// front. Bursts of near schedules, buried cancels, stale cancels,
    /// re-arms of the far timer and pops must all match the heap oracle.
    #[test]
    fn far_timer_pinned_front_matches_heap(ops in ops_strategy(300)) {
        let mut w: EventQueue<u64> = EventQueue::new();
        let mut h: HeapEventQueue<u64> = HeapEventQueue::new();
        let mut id = 0u64;
        let far_at = |now: SimTime, b: u64| SimTime::from_nanos(now.as_nanos() + 1_000_000 + b % 2_000_000);
        let at = far_at(w.now(), id);
        let mut far = (w.schedule(at, id), h.schedule(at, id));
        id += 1;
        let (mut live, mut dead): (Vec<(EventToken, EventToken)>, Vec<_>) = (Vec::new(), Vec::new());
        for (kind, a, b) in ops {
            match kind {
                // A burst of near schedules, below the pinned front limit.
                0..=4 => {
                    let spread = [8, 2_000, 200_000, 900_000][(a % 4) as usize];
                    for k in 0..1 + a % 24 {
                        let x = b.rotate_left(7 * k as u32);
                        let at = SimTime::from_nanos(w.now().as_nanos() + x % spread);
                        live.push((w.schedule(at, id), h.schedule(at, id)));
                        id += 1;
                    }
                }
                5..=6 => {
                    if !live.is_empty() {
                        let pair = live.swap_remove((a as usize) % live.len());
                        w.cancel(pair.0);
                        h.cancel(pair.1);
                        dead.push(pair);
                    }
                }
                7 => {
                    if !dead.is_empty() {
                        let (tw, th) = dead[(a as usize) % dead.len()];
                        w.cancel(tw);
                        h.cancel(th);
                    }
                }
                // Re-arm the far timer, as an ACK re-arms an RTO.
                8 => {
                    w.cancel(far.0);
                    h.cancel(far.1);
                    dead.push(far);
                    let at = far_at(w.now(), b);
                    far = (w.schedule(at, id), h.schedule(at, id));
                    id += 1;
                }
                _ => {
                    for _ in 0..1 + a % 4 {
                        prop_assert_eq!(w.pop(), h.pop(), "pop diverged");
                    }
                }
            }
            assert_observables(&w, &h);
        }
        loop {
            let (pw, ph) = (w.pop(), h.pop());
            prop_assert_eq!(pw, ph);
            assert_observables(&w, &h);
            if pw.is_none() {
                break;
            }
        }
    }

    /// Cancel-heavy streams: most cancels hit buried events, whose nodes
    /// stay stored until they surface, and the schedules that follow take
    /// recycled slots. Stale-token cancels of those buried nodes must stay
    /// no-ops, and `len`, pops and `peek_time` must match the oracle.
    #[test]
    fn cancel_heavy_slot_reuse_matches_heap(ops in ops_strategy(400)) {
        // Remap `apply`'s op kinds: schedule 4/10, cancel 3/10, stale
        // cancel 2/10, pop 1/10.
        const KINDS: [u64; 10] = [0, 1, 2, 4, 5, 6, 5, 7, 7, 8];
        let mut w: EventQueue<u64> = EventQueue::new();
        let mut h: HeapEventQueue<u64> = HeapEventQueue::new();
        let mut id = 0u64;
        let (mut live, mut dead) = (Vec::new(), Vec::new());
        for (kind, a, b) in ops {
            // Three in four use the level-0 horizon (profile 1), so many
            // events sit buried just behind the head.
            let a = if a % 4 == 0 { a } else { a / 7 * 7 + 1 };
            apply((KINDS[kind as usize], a, b), &mut id, &mut w, &mut h, &mut live, &mut dead);
            assert_observables(&w, &h);
        }
        loop {
            let (pw, ph) = (w.pop(), h.pop());
            prop_assert_eq!(pw, ph);
            assert_observables(&w, &h);
            if pw.is_none() {
                break;
            }
        }
    }
}
