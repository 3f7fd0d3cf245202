//! Differential property tests: the timer-wheel [`EventQueue`] against the
//! reference binary-heap [`HeapEventQueue`].
//!
//! Both queues consume identical operation streams — interleaved
//! schedules (near, mid-wheel, far-spill horizons), runs of schedules
//! at one instant, cancellations of pending *and already-fired* tokens, and pops —
//! and every observable (`pop` results, `len`, `popped`, `peek_time`,
//! `now`) is asserted equal after every single operation. A dedicated
//! property keeps some events in FIFO [`Lanes`] outside the wheel and
//! merges them through `pop_before` (with same-tick ties, lane events at
//! every wheel level and past the spill edge, refused out-of-order pushes
//! that fall back to the wheel, mid-run cancellations and same-tick
//! re-arms) against an oracle that schedules every lane event plainly,
//! Another holds keys from `reserve` and files them later with
//! `schedule_key` under their old sequence numbers, tying with newer
//! schedules, same-instant runs and lane keys (the oracle files the same
//! keys), and another pins slot generations near `u64::MAX`
//! so wrap-around reuse is covered, not just reachable. Two workload-shaped profiles
//! follow: a far timer that pins the wheel's front limit while bursts of
//! near events insert into a long sorted front, and a cancel-heavy stream
//! whose buried cancels are followed by schedules that reuse slots.

use hns_sim::event::EventToken;
use hns_sim::{EventKey, EventQueue, HeapEventQueue, Lanes, Next, SimTime, MAX_LANES};
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
        0 => 60,                // same / adjacent level-0 bucket
        1 => 12_000,            // level 0 window (16.4us)
        2 => 3_000_000,         // level 1 window (4.19ms)
        3 => 800_000_000,       // level 2 window (1.07s)
        4 => 200_000_000_000,   // level 3 window (275s)
        5 => 1_000_000_000_000, // spill (≳275s ahead)
        _ => 0,                 // exactly now (same-tick)
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
        // A run of schedules at one instant, which fire FIFO (tokens not
        // retained).
        4 => {
            let at = SimTime::from_nanos(w.now().as_nanos() + b % (horizon(a) + 1));
            let n = 1 + a % 5;
            for e in *id..*id + n {
                w.schedule(at, e);
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

/// Lanes exercised by the lane property: a few low indices and the last
/// one, so the packed heap keys carry every lane bit.
const LANES: [usize; 4] = [0, 1, 2, MAX_LANES - 1];

/// What the lane property expects of each lane in [`LANES`]: the entries
/// it holds and its tail's time.
type Mirror = [(usize, SimTime); LANES.len()];

fn mirror_of(mirror: &mut Mirror, lane: usize) -> &mut (usize, SimTime) {
    &mut mirror[LANES.iter().position(|&l| l == lane).expect("a test lane")]
}

/// One merged pop: the wheel's head or the earliest lane head, against the
/// oracle's next event (which holds every lane entry as a plain event).
/// Returns the lane that fired, if one did, and whether anything fired.
fn pop_both(
    w: &mut EventQueue<u64>,
    h: &mut HeapEventQueue<u64>,
    lanes: &mut Lanes<u64>,
    mirror: &mut Mirror,
) -> (Option<usize>, bool) {
    let (lane, fired) = match w.pop_before(lanes.peek()) {
        Next::Event(k, e) => (None, Some((k.time, e))),
        Next::External(k) => {
            let (lane, e) = lanes.pop().expect("a key was peeked");
            mirror_of(mirror, lane).0 -= 1;
            (Some(lane), Some((k.time, e)))
        }
        Next::Empty => (None, None),
    };
    assert_eq!(fired, h.pop(), "merged pop diverged");
    (lane, fired.is_some())
}

fn assert_merged_observables(
    w: &EventQueue<u64>,
    h: &HeapEventQueue<u64>,
    lanes: &Lanes<u64>,
    mirror: &Mirror,
) {
    assert_eq!(w.len() + lanes.len(), h.len(), "len diverged");
    let held: usize = mirror.iter().map(|m| m.0).sum();
    assert_eq!(lanes.len(), held, "lane entries diverged");
    assert_eq!(w.popped(), h.popped(), "popped diverged");
    assert_eq!(w.now(), h.now(), "now diverged");
    let lane_time = lanes.peek().map(|k| k.time);
    let merged = match (w.peek_time(), lane_time) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    assert_eq!(merged, h.peek_time(), "peek_time diverged");
}

/// Put event `id` at `at` on `lane`, as the world does: the key is
/// reserved and pushed, and a key that sorts before the lane's tail is
/// handed back and scheduled on the wheel instead. The mirror checks that
/// a lane refuses exactly those keys. The oracle schedules the event
/// plainly either way.
fn lane_or_wheel(
    w: &mut EventQueue<u64>,
    h: &mut HeapEventQueue<u64>,
    lanes: &mut Lanes<u64>,
    mirror: &mut Mirror,
    (lane, at, id): (usize, SimTime, u64),
) {
    let m = mirror_of(mirror, lane);
    let fits = m.0 == 0 || m.1 <= at;
    match lanes.push(lane, w.reserve(at), id) {
        Ok(()) => {
            assert!(fits, "lane {lane} took a key before its tail");
            *m = (m.0 + 1, at);
        }
        Err(id) => {
            assert!(!fits, "lane {lane} refused a key at or after its tail");
            w.schedule(at, id);
        }
    }
    h.schedule(at, id);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary interleavings of schedule / same-instant runs / cancel /
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

    /// FIFO lanes outside the queue against one queue holding them all:
    /// the wheel side keeps lane events under reserved keys and merges the
    /// earliest lane head through `pop_before`, while the heap oracle
    /// schedules each lane event as a plain event. Same-tick ties between
    /// lanes and the wheel, lane events at every wheel level and past the
    /// spill edge (so a lane pop moves `now` far past the wheel's consumed
    /// edge before the next schedules), out-of-order pushes that lanes
    /// refuse (the event goes to the wheel), mid-run cancels and
    /// handler-style re-arms at the popped tick make every pop and every
    /// counter match.
    #[test]
    fn lanes_match_heap(ops in ops_strategy(300)) {
        let mut w: EventQueue<u64> = EventQueue::new();
        let mut h: HeapEventQueue<u64> = HeapEventQueue::new();
        let mut lanes: Lanes<u64> = Lanes::new();
        let mut mirror: Mirror = [(0, SimTime::ZERO); LANES.len()];
        let mut id = 0u64;
        let mut live: Vec<(EventToken, EventToken)> = Vec::new();
        for (kind, a, b) in ops {
            let now = w.now().as_nanos();
            let lane = LANES[(a % 4) as usize];
            match kind {
                // Schedule on both (same-tick horizons included).
                0..=2 => {
                    let at = SimTime::from_nanos(now + b % (horizon(a) + 1));
                    live.push((w.schedule(at, id), h.schedule(at, id)));
                    id += 1;
                }
                // A lane event on a coarse grid, so lanes tie with each
                // other and with the wheel; its time wanders, so some
                // pushes sort before their lane's tail.
                3..=4 => {
                    let at = SimTime::from_nanos(now + (b % 5) * 64);
                    lane_or_wheel(&mut w, &mut h, &mut lanes, &mut mirror, (lane, at, id));
                    id += 1;
                }
                // A lane event at any horizon the wheel has, spill
                // included: its lane refuses nearer pushes until it fires.
                5 => {
                    let at = SimTime::from_nanos(now + b % (horizon(a) + 1));
                    lane_or_wheel(&mut w, &mut h, &mut lanes, &mut mirror, (lane, at, id));
                    id += 1;
                }
                // Cancel an outstanding wheel event on both.
                6 => {
                    if !live.is_empty() {
                        let (tw, th) = live.swap_remove((a as usize) % live.len());
                        w.cancel(tw);
                        h.cancel(th);
                    }
                }
                // Pop a few. `a` odd => each "handler" cancels the newest
                // scheduled event and pushes onto the lane that fired at
                // its own tick, as `tx_drain` re-arms the NIC.
                _ => {
                    for _ in 0..1 + a % 4 {
                        let (fired, _) = pop_both(&mut w, &mut h, &mut lanes, &mut mirror);
                        if a % 2 == 1 {
                            if let Some((tw, th)) = live.pop() {
                                w.cancel(tw);
                                h.cancel(th);
                            }
                            let again = (fired.unwrap_or(lane), w.now(), id);
                            lane_or_wheel(&mut w, &mut h, &mut lanes, &mut mirror, again);
                            id += 1;
                        }
                    }
                }
            }
            assert_merged_observables(&w, &h, &lanes, &mirror);
        }
        while pop_both(&mut w, &mut h, &mut lanes, &mut mirror).1 {
            assert_merged_observables(&w, &h, &lanes, &mirror);
        }
        prop_assert!(lanes.is_empty() && w.is_empty() && h.is_empty());
        prop_assert_eq!(w.popped(), h.popped());
    }

    /// Keys reserved and held, then filed later with `schedule_key` under
    /// their old sequence numbers, against the heap oracle doing the same:
    /// a filed key ties at its time with plain `schedule` calls and
    /// same-instant runs made after its reservation, and with lane keys
    /// merged through `pop_before` (the oracle files lane events with
    /// `schedule_key` too). Filed keys are cancelled and filed again, as
    /// an RTO is disarmed and re-filed; held keys whose time passes
    /// unfiled are dropped, as a skipped sequence number changes no order.
    #[test]
    fn held_keys_match_heap(ops in ops_strategy(300)) {
        let mut w: EventQueue<u64> = EventQueue::new();
        let mut h: HeapEventQueue<u64> = HeapEventQueue::new();
        let mut lanes: Lanes<u64> = Lanes::new();
        let mut id = 0u64;
        // Held keys not stored on either side, and filed ones with their
        // tokens (a filed key may be cancelled, then held again).
        let mut held: Vec<EventKey> = Vec::new();
        let mut filed: Vec<(EventKey, EventToken, EventToken)> = Vec::new();
        for (kind, a, b) in ops {
            let now = w.now().as_nanos();
            // A coarse grid at small horizons, so keys, schedules, runs
            // and lane heads tie at one time.
            let at = match a % 3 {
                0 => SimTime::from_nanos(now + (b % 4) * 64),
                _ => SimTime::from_nanos(now + b % (horizon(a / 3) + 1)),
            };
            match kind {
                // Reserve a key on both sides and hold it.
                0..=1 => {
                    let key = w.reserve(at);
                    prop_assert_eq!(h.reserve(at), key, "keys diverged");
                    held.push(key);
                }
                // File a held key under its old sequence number.
                2..=3 => {
                    if !held.is_empty() {
                        let key = held.swap_remove((b as usize) % held.len());
                        let (tw, th) = (w.schedule_key(key, id), h.schedule_key(key, id));
                        filed.push((key, tw, th));
                        id += 1;
                    }
                }
                // A plain schedule or a same-time run, after the holds.
                4 => {
                    w.schedule(at, id);
                    h.schedule(at, id);
                    id += 1;
                }
                5 => {
                    let n = 1 + a % 4;
                    for e in id..id + n {
                        w.schedule(at, e);
                        h.schedule(at, e);
                    }
                    id += n;
                }
                // A lane event: held in a lane on the wheel side, filed
                // under the same key on the oracle side. A refused key
                // goes to the wheel under that key.
                6 => {
                    let key = w.reserve(at);
                    prop_assert_eq!(h.reserve(at), key, "keys diverged");
                    if let Err(e) = lanes.push((a % 3) as usize, key, id) {
                        w.schedule_key(key, e);
                    }
                    h.schedule_key(key, id);
                    id += 1;
                }
                // Cancel a filed key; it is held again, to file later.
                7 => {
                    if !filed.is_empty() {
                        let (key, tw, th) = filed.swap_remove((b as usize) % filed.len());
                        w.cancel(tw);
                        h.cancel(th);
                        held.push(key);
                    }
                }
                // Pop a few, merging the lanes through `pop_before`.
                _ => {
                    for _ in 0..1 + a % 4 {
                        let fired = match w.pop_before(lanes.peek()) {
                            Next::Event(k, e) => Some((k.time, e)),
                            Next::External(k) => lanes.pop().map(|(_, e)| (k.time, e)),
                            Next::Empty => None,
                        };
                        prop_assert_eq!(fired, h.pop(), "merged pop diverged");
                    }
                }
            }
            let now = w.now();
            held.retain(|k| k.time >= now);
            prop_assert_eq!(w.len() + lanes.len(), h.len(), "len diverged");
            prop_assert_eq!(w.popped(), h.popped(), "popped diverged");
            prop_assert_eq!(w.now(), h.now(), "now diverged");
        }
        loop {
            let fired = match w.pop_before(lanes.peek()) {
                Next::Event(k, e) => Some((k.time, e)),
                Next::External(k) => lanes.pop().map(|(_, e)| (k.time, e)),
                Next::Empty => None,
            };
            prop_assert_eq!(fired, h.pop(), "merged pop diverged");
            if fired.is_none() {
                break;
            }
        }
        prop_assert!(lanes.is_empty() && w.is_empty() && h.is_empty());
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
                // Re-arm the far timer by cancel and schedule, as a
                // deadline pulled earlier re-files an RTO.
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
