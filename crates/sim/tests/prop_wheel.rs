//! Differential property tests: the timer-wheel [`EventQueue`] against the
//! reference binary-heap [`HeapEventQueue`].
//!
//! Both queues consume identical operation streams — interleaved
//! schedules (near, mid-wheel, far-spill horizons), bulk `schedule_all`
//! runs, cancellations of pending *and already-fired* tokens, and pops —
//! and every observable (`pop` results, `len`, `popped`, `peek_time`,
//! `now`) is asserted equal after every single operation. A dedicated
//! property drives the wheel through the `pop_batch`/`commit` protocol
//! (including handler-style mid-batch cancellation) against serial heap
//! pops, and another pins slot generations near `u64::MAX` so wrap-around
//! reuse is covered, not just reachable. Two workload-shaped profiles
//! follow: a far timer that pins the wheel's front limit while bursts of
//! near events insert into a long sorted front, and a cancel-heavy stream
//! whose buried cancels are followed by schedules that reuse slots.

use hns_sim::event::EventToken;
use hns_sim::{EventQueue, HeapEventQueue, SimTime};
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

    /// Batched same-tick dispatch against serial pops: the wheel drains
    /// whole ticks via `pop_batch` + per-event `commit` — with
    /// handler-style mid-batch cancellations and same-tick reschedules —
    /// while the heap pops one event at a time. Fired streams and all
    /// counters must be identical.
    #[test]
    fn pop_batch_commit_matches_serial_heap_pops(ops in ops_strategy(300)) {
        let mut w: EventQueue<u64> = EventQueue::new();
        let mut h: HeapEventQueue<u64> = HeapEventQueue::new();
        let mut id = 0u64;
        // id -> token pair, so a "handler" can cancel a specific later
        // event of its own batch on both queues.
        let mut tokens: std::collections::HashMap<u64, (EventToken, EventToken)> =
            std::collections::HashMap::new();
        let mut batch = Vec::new();
        let mut fired_w = Vec::new();
        let mut fired_h = Vec::new();
        for (kind, a, b) in ops {
            match kind {
                // Schedule on both (same-tick horizons included).
                0..=4 => {
                    let at = SimTime::from_nanos(w.now().as_nanos() + b % (horizon(a) + 1));
                    let tw = w.schedule(at, id);
                    let th = h.schedule(at, id);
                    tokens.insert(id, (tw, th));
                    id += 1;
                }
                // Cancel an outstanding event by id on both.
                5 => {
                    if !tokens.is_empty() {
                        let ids: Vec<u64> = tokens.keys().copied().collect();
                        let victim = ids[(a as usize) % ids.len()];
                        let (tw, th) = tokens[&victim];
                        w.cancel(tw);
                        h.cancel(th);
                    }
                }
                // Drain one whole tick: batch on the wheel, serial pops on
                // the heap. `a` odd => the first handler cancels the last
                // event of the batch (classic sync_rto same-tick rearm).
                _ => {
                    let drained = w.pop_batch(&mut batch);
                    let tick = h.peek_time();
                    for (j, fire) in batch.drain(..).enumerate() {
                        if j == 0 && a % 2 == 1 && drained > 1 {
                            // Handler side effect: kill a later same-tick
                            // event on both queues before it commits.
                            let last_id = id - 1;
                            if let Some(&(tw, th)) = tokens.get(&last_id) {
                                w.cancel(tw);
                                h.cancel(th);
                            }
                        }
                        if w.commit(&fire) {
                            fired_w.push((fire.time, fire.event));
                            tokens.remove(&fire.event);
                        }
                    }
                    if let Some(t) = tick {
                        while h.peek_time() == Some(t) {
                            let (pt, pe) = h.pop().expect("peeked");
                            fired_h.push((pt, pe));
                        }
                    }
                    prop_assert_eq!(&fired_w, &fired_h, "fired streams diverged");
                }
            }
            assert_eq!(w.len(), h.len(), "len diverged");
            assert_eq!(w.popped(), h.popped(), "popped diverged");
            assert_eq!(w.peek_time(), h.peek_time(), "peek_time diverged");
        }
        // Drain the remainder tick-by-tick the same way.
        loop {
            if w.pop_batch(&mut batch) == 0 {
                prop_assert_eq!(h.pop(), None);
                break;
            }
            let tick = h.peek_time().expect("heap behind wheel");
            for fire in batch.drain(..) {
                if w.commit(&fire) {
                    fired_w.push((fire.time, fire.event));
                }
            }
            while h.peek_time() == Some(tick) {
                let (pt, pe) = h.pop().expect("peeked");
                fired_h.push((pt, pe));
            }
            prop_assert_eq!(&fired_w, &fired_h);
        }
        prop_assert_eq!(fired_w.len() as u64, w.popped());
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
