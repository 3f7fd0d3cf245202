//! Event queue.
//!
//! A discrete-event simulation advances by repeatedly popping the earliest
//! pending event. [`EventQueue`] keys events by `(time, sequence)` — the
//! monotonically increasing sequence number makes same-instant events pop
//! in FIFO scheduling order, which is what keeps runs deterministic
//! regardless of storage internals.
//!
//! # One slab, ordered by a timer wheel
//!
//! Every pending event is stored exactly once, in a slab of nodes
//! (`time`, `seq`, the slot's `generation`, a `next` link and the
//! payload) with a LIFO free list threaded through `next`. The ordering
//! structure is a hierarchical timer wheel (`crate::wheel`) that links and
//! moves 4-byte slot indices, never the events: pushes are O(1) bucket
//! prepends and pops are amortized-O(1) `pop_front`s from a sorted front
//! run. The slab and the wheel's index buffers keep their high-water
//! capacity, so a queue in steady state allocates nothing. The binary heap
//! lives on as [`HeapEventQueue`] — same API, same semantics — serving as
//! the differential-test oracle and the benchmark baseline.
//!
//! Events also support *cancellation by token*: callers keep the
//! [`EventToken`] returned by [`EventQueue::schedule`] and may cancel it
//! (e.g. a retransmission timer disarmed by an ACK).
//!
//! # Cancellation without the hot-path probe
//!
//! Cancellation is generation-stamped: a token is `(slot, generation)`,
//! and the node records its slot's current generation. Cancelling (or
//! firing) an event bumps that generation, so liveness is a single indexed
//! compare — no hash-set probe on the pop path. Slots are reused, so the
//! slab stays sized to the maximum number of *stored* events, not the run
//! length.
//!
//! A cancel also drops the payload, but the node keeps its slot until it
//! surfaces — its level-0 bucket is consumed, or it reaches the head of
//! the wheel's front — and is discarded; only then does the slot return to
//! the free list, so no bucket link can ever point at a reused node. The
//! head itself is pruned eagerly (on `cancel` and after each
//! `pop`), so the queue upholds the invariant *the head is never
//! cancelled*. That is what lets [`EventQueue::peek_time`] take `&self`,
//! and it keeps [`EventQueue::len`] exact: a token cancelled after its
//! event fired is a generation mismatch and a no-op, never a phantom
//! entry.
//!
//! # Events kept outside the queue
//!
//! A caller may hold some events itself and still have them fire in the
//! queue's order. [`EventQueue::reserve`] takes the next sequence number
//! exactly as [`EventQueue::schedule`] would, but stores nothing and
//! returns the [`EventKey`] instead. [`EventQueue::pop_before`] then
//! merges the two sides by `(time, seq)`: it pops the head if it sorts
//! before the caller's earliest key, and otherwise advances `now` to the
//! key's time, counts one pop and answers [`Next::External`]. An event
//! held outside therefore fires exactly where the same event scheduled
//! into the queue would have, and `popped()` counts it the same way;
//! only `len()` leaves it out.
//!
//! [`Lanes`] is the caller-side store for streams that are FIFO by
//! construction — a NIC drain per host, the frames arriving at a switch
//! port, interrupts raised and timers armed a constant delay after `now`.
//! Each lane is a plain deque whose keys never decrease, so a sorted
//! structure would be wasted on it; one small heap orders only the lane
//! heads.
//!
//! A held key can also be filed later: [`EventQueue::schedule_key`]
//! stores an event under a key `reserve` minted earlier, and the event
//! fires at that key's `(time, seq)` — after same-time events reserved
//! before it, before those reserved after it — however many schedules
//! came in between. A retransmission timer uses this to move its deadline
//! without touching the queue: each move only reserves a key, and the
//! one pending event, when it fires early, is re-filed under the latest
//! key.

use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;
use crate::wheel::{Slab, TimerWheel};

/// Opaque handle identifying a scheduled event, for cancellation. Carries
/// the event's slot index and the slot generation at scheduling time; the
/// token is *dead* (cancel is a no-op) once the event fires or is
/// cancelled, because either bumps the slot generation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventToken {
    slot: u32,
    generation: u64,
}

impl EventToken {
    /// A token that never matches a real event.
    pub const NONE: EventToken = EventToken {
        slot: u32::MAX,
        generation: u64::MAX,
    };
}

/// An event with its scheduled time and FIFO tie-break sequence, as stored
/// by [`HeapEventQueue`].
#[derive(Debug)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    seq: u64,
    slot: u32,
    generation: u64,
    /// The payload.
    pub event: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A position in the queue's `(time, seq)` order, reserved by
/// [`EventQueue::reserve`] for an event the caller keeps outside the queue
/// or files later with [`EventQueue::schedule_key`]. Keys order by time,
/// then by reservation order; only the queue mints them, so a key's
/// sequence number is unique among every scheduled event.
/// [`EventQueue::pop_before`] hands back the key of whatever fired.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventKey {
    /// When the reserved event fires.
    pub time: SimTime,
    seq: u64,
}

impl EventKey {
    /// A key the queue never mints and that sorts after every minted one:
    /// the "no timer armed" sentinel for a caller that records keys.
    pub const NONE: EventKey = EventKey {
        time: SimTime::MAX,
        seq: u64::MAX,
    };

    /// The key's sequence number: its place among same-time keys.
    pub fn seq(self) -> u64 {
        self.seq
    }
}

/// Most lanes a [`Lanes`] can hold: a lane index packs into the low bits
/// of the head heap's keys.
pub const MAX_LANES: usize = 1 << LANE_BITS;
const LANE_BITS: u32 = 10;

/// FIFO lanes of events held outside an [`EventQueue`], each entry under a
/// key from [`EventQueue::reserve`]. Within a lane keys never decrease, so
/// the lane is a deque and only its head needs ordering: one binary heap
/// holds each non-empty lane's head key, packed with the lane index as
/// `time << 64 | seq << 10 | lane`. [`Lanes::peek`] is the key to hand
/// [`EventQueue::pop_before`]. Nothing allocates until the first push.
pub struct Lanes<T> {
    lanes: Vec<VecDeque<(EventKey, T)>>,
    heads: BinaryHeap<Reverse<u128>>,
    len: usize,
}

impl<T> Default for Lanes<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Lanes<T> {
    /// No lanes, no entries. Allocates nothing.
    pub const fn new() -> Self {
        Lanes {
            lanes: Vec::new(),
            heads: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Entries held across every lane.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no lane holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries held in `lane` (zero for a lane never pushed to).
    pub fn lane_len(&self, lane: usize) -> usize {
        self.lanes.get(lane).map_or(0, VecDeque::len)
    }

    /// The entries held in `lane`, oldest first (none for a lane never
    /// pushed to): for audits that check what a lane still holds.
    pub fn iter(&self, lane: usize) -> impl Iterator<Item = (EventKey, &T)> {
        self.lanes
            .get(lane)
            .into_iter()
            .flatten()
            .map(|(key, value)| (*key, value))
    }

    /// Append `value` to `lane` under `key`, or hand it back if `key`
    /// sorts before the lane's tail (the caller then orders the event some
    /// other way, e.g. [`EventQueue::schedule`]; skipping the refused
    /// key's sequence number changes no order). Panics on a lane index of
    /// [`MAX_LANES`] or more.
    #[inline]
    pub fn push(&mut self, lane: usize, key: EventKey, value: T) -> Result<(), T> {
        if lane >= self.lanes.len() {
            assert!(lane < MAX_LANES, "lane {lane} past MAX_LANES");
            self.lanes.resize_with(lane + 1, VecDeque::new);
        }
        let q = &mut self.lanes[lane];
        match q.back() {
            Some((tail, _)) if key < *tail => return Err(value),
            Some(_) => {}
            None => self.heads.push(Reverse(pack(key, lane))),
        }
        q.push_back((key, value));
        self.len += 1;
        Ok(())
    }

    /// The earliest key across every lane head.
    #[inline]
    pub fn peek(&self) -> Option<EventKey> {
        self.heads.peek().map(|&Reverse(p)| EventKey {
            time: SimTime::from_nanos((p >> 64) as u64),
            seq: (p as u64) >> LANE_BITS,
        })
    }

    /// Remove the earliest entry, returning its lane and value. The lane's
    /// next entry, if any, replaces the head in place (one sift instead of
    /// a pop and a push); an emptied lane leaves the heap.
    #[inline]
    pub fn pop(&mut self) -> Option<(usize, T)> {
        let mut top = self.heads.peek_mut()?;
        let lane = (top.0 as usize) & (MAX_LANES - 1);
        let q = &mut self.lanes[lane];
        let (_, value) = q.pop_front().expect("a lane in the heap has a head");
        match q.front() {
            Some(&(next, _)) => *top = Reverse(pack(next, lane)),
            None => {
                PeekMut::pop(top);
            }
        }
        self.len -= 1;
        Some((lane, value))
    }
}

/// A lane head's heap key: time, then sequence number, then the lane
/// (which never decides, as sequence numbers are unique).
#[inline]
fn pack(key: EventKey, lane: usize) -> u128 {
    debug_assert!(key.seq < 1 << (64 - LANE_BITS), "seq past the packing");
    ((key.time.as_nanos() as u128) << 64) | ((key.seq << LANE_BITS) | lane as u64) as u128
}

/// What [`EventQueue::pop_before`] found first, with the key it fired
/// under.
#[derive(Debug, PartialEq, Eq)]
pub enum Next<E> {
    /// The queue head sorted first and has fired: its key (the one it was
    /// scheduled or filed under) and payload.
    Event(EventKey, E),
    /// The caller's key sorted first: its event is due now.
    External(EventKey),
    /// Neither side holds anything.
    Empty,
}

/// Deterministic priority queue of simulation events: a slab of nodes
/// ordered by a hierarchical timer wheel.
pub struct EventQueue<E> {
    /// Every stored event, indexed by slot; the wheel links slot indices.
    slab: Slab<E>,
    wheel: TimerWheel,
    next_seq: u64,
    now: SimTime,
    /// Exact number of pending (live) events.
    live_pending: usize,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue at t = 0. Allocates nothing.
    pub fn new() -> Self {
        EventQueue {
            slab: Slab::new(),
            wheel: TimerWheel::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            live_pending: 0,
            popped: 0,
        }
    }

    /// Current simulation time: the timestamp of the most recently popped
    /// event or external key, monotonically non-decreasing.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending (non-cancelled) events. Exact: cancelling an
    /// already-fired token is a generation mismatch and changes nothing.
    /// Reserved keys are not stored, so they are not counted.
    pub fn len(&self) -> usize {
        self.live_pending
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events popped so far (for engine benchmarking), counting
    /// each external key [`Self::pop_before`] let fire.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Take the next sequence number for an event at `at` without storing
    /// anything: the caller keeps the event and passes the key to
    /// [`Self::pop_before`], which fires it exactly where [`Self::schedule`]
    /// at this point would have.
    ///
    /// Reserving in the past is a logic error; debug builds assert, release
    /// builds clamp to `now` so the simulation still makes progress.
    #[inline]
    pub fn reserve(&mut self, at: SimTime) -> EventKey {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        EventKey {
            time: at.max(self.now),
            seq,
        }
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error; debug builds assert, release
    /// builds clamp to `now` so the simulation still makes progress.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventToken {
        let key = self.reserve(at);
        self.schedule_key(key, event)
    }

    /// Store `event` under `key`, which [`Self::reserve`] minted earlier:
    /// it fires at the key's `(time, seq)`, exactly where [`Self::schedule`]
    /// at the reservation would have put it, however many events were
    /// scheduled in between. A key is stored at most once at a time; a
    /// caller may hold it, file it, and after it fires or is cancelled
    /// file it again.
    ///
    /// A key whose time has passed is a logic error; debug builds assert,
    /// release builds clamp it to `now`.
    pub fn schedule_key(&mut self, key: EventKey, event: E) -> EventToken {
        debug_assert!(key.seq < self.next_seq, "a key the queue never minted");
        debug_assert!(
            key.time >= self.now,
            "scheduling into the past: {:?} < {:?}",
            key.time,
            self.now
        );
        let slot = self.slab.alloc(key.time.max(self.now), key.seq, event);
        self.wheel.push(&mut self.slab, slot);
        self.live_pending += 1;
        // Keep the head materialized so peek_time stays `&self`.
        self.wheel.ensure_front(&mut self.slab);
        EventToken {
            slot,
            generation: self.slab[slot].generation,
        }
    }

    /// Schedule `event` after a delay relative to `now`.
    pub fn schedule_after(&mut self, delay: crate::Duration, event: E) -> EventToken {
        self.schedule(self.now + delay, event)
    }

    /// Cancel a previously scheduled event. Safe to call with a token that
    /// has already fired or been cancelled (generation mismatch, no effect)
    /// or with [`EventToken::NONE`].
    pub fn cancel(&mut self, token: EventToken) {
        let Some(node) = self.slab.get_mut(token.slot) else {
            return; // NONE
        };
        if node.generation != token.generation {
            return; // already fired or already cancelled
        }
        // Bump the generation so the token reads as dead, and drop the
        // payload. The slot is released only when the node surfaces, so
        // nothing still linked can be handed to a new event.
        node.generation = node.generation.wrapping_add(1);
        node.event = None;
        self.live_pending -= 1;
        self.prune();
    }

    /// Restore the invariant that the queue head is live and materialized
    /// in the wheel's front, discarding (and releasing) any cancelled nodes
    /// that surfaced. Amortized O(1): each dead node is discarded exactly
    /// once.
    fn prune(&mut self) {
        loop {
            self.wheel.ensure_front(&mut self.slab);
            match self.wheel.peek() {
                Some(slot) if self.slab[slot].event.is_none() => {
                    self.wheel.pop_front();
                    self.slab.release(slot);
                }
                _ => break,
            }
        }
    }

    /// Count a fired event and advance the clock.
    #[inline]
    fn advance(&mut self, time: SimTime) {
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        self.popped += 1;
    }

    /// Pop the earliest pending event, advancing `now` to its timestamp.
    /// Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_keyed().map(|(key, event)| (key.time, event))
    }

    /// [`Self::pop`], returning the event's full key.
    fn pop_keyed(&mut self) -> Option<(EventKey, E)> {
        // The head-liveness invariant means the first pop is the answer;
        // the loop is defense in depth (and self-healing in release).
        self.wheel.ensure_front(&mut self.slab);
        while let Some(slot) = self.wheel.pop_front() {
            let node = &mut self.slab[slot];
            let Some(event) = node.event.take() else {
                debug_assert!(false, "cancelled event at queue head");
                self.slab.release(slot);
                self.wheel.ensure_front(&mut self.slab);
                continue;
            };
            let key = EventKey {
                time: node.time,
                seq: node.seq,
            };
            node.generation = node.generation.wrapping_add(1);
            self.slab.release(slot);
            self.live_pending -= 1;
            self.advance(key.time);
            self.prune();
            return Some((key, event));
        }
        None
    }

    /// Pop the head if it sorts before `key` in `(time, seq)` order.
    /// Otherwise the caller's reserved event is due: advance `now` to
    /// `key.time`, count the pop, and return [`Next::External`] (the caller
    /// drops the key). With no key this is [`Self::pop`]. Either way the
    /// answer carries the fired event's key, so a handler can tell which
    /// of several same-time entries it is.
    #[inline]
    pub fn pop_before(&mut self, key: Option<EventKey>) -> Next<E> {
        if let Some(key) = key {
            // The head is live and materialized (`cancel` and `pop` keep
            // it so), so one compare picks the side that fires first.
            let head_first = self.wheel.peek().is_some_and(|slot| {
                let head = &self.slab[slot];
                EventKey {
                    time: head.time,
                    seq: head.seq,
                } < key
            });
            if !head_first {
                self.advance(key.time);
                return Next::External(key);
            }
        }
        match self.pop_keyed() {
            Some((key, event)) => Next::Event(key, event),
            None => Next::Empty,
        }
    }

    /// Every pending event with its key, in slot order (not firing
    /// order): for audits that count what is still queued.
    pub fn pending(&self) -> impl Iterator<Item = (EventKey, &E)> {
        self.slab
            .events()
            .map(|(time, seq, event)| (EventKey { time, seq }, event))
    }

    /// Timestamp of the next pending event without popping it. `&self`:
    /// the head is never cancelled (pruned eagerly on `cancel`/`pop`), so
    /// no draining is needed to answer accurately.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.wheel.peek().map(|slot| {
            let head = &self.slab[slot];
            debug_assert!(head.event.is_some());
            head.time
        })
    }

    /// Test support: pin a slot's generation stamp directly, to exercise
    /// wrap-around without 2^64 organic reuses. Not for production use.
    #[doc(hidden)]
    pub fn force_generation(&mut self, slot: u32, generation: u64) {
        self.slab[slot].generation = generation;
    }
}

/// The original `BinaryHeap`-backed queue, kept as the reference
/// implementation: the differential property suite drives it in lockstep
/// with [`EventQueue`], and the microbenchmark uses it as the wheel's
/// baseline. Semantics are identical — `(time, seq)` total order,
/// generation-stamped O(1) cancellation, eager head pruning, exact
/// `len()`/`popped()`.
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
    now: SimTime,
    /// Current generation of each slot. An event in the heap is live iff
    /// its stamped generation equals its slot's entry here.
    generations: Vec<u64>,
    /// Slots whose event has fired or been cancelled, available for reuse.
    free_slots: Vec<u32>,
    /// Cancelled events still physically in the heap (below the head).
    /// `len()` subtracts this, so the count is exact at all times.
    cancelled_in_heap: usize,
    popped: u64,
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapEventQueue<E> {
    /// Create an empty queue at t = 0.
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            generations: Vec::new(),
            free_slots: Vec::new(),
            cancelled_in_heap: 0,
            popped: 0,
        }
    }

    /// Current simulation time: the timestamp of the most recently popped
    /// event (monotonically non-decreasing).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending (non-cancelled) events. Exact.
    pub fn len(&self) -> usize {
        self.heap.len() - self.cancelled_in_heap
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events popped so far.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Take the next sequence number for an event at `at` (clamped to
    /// `now`) without storing anything (see [`EventQueue::reserve`]).
    pub fn reserve(&mut self, at: SimTime) -> EventKey {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        EventKey {
            time: at.max(self.now),
            seq,
        }
    }

    /// Schedule `event` at absolute time `at` (clamped to `now`).
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventToken {
        let key = self.reserve(at);
        self.schedule_key(key, event)
    }

    /// Store `event` under a key [`Self::reserve`] minted earlier (see
    /// [`EventQueue::schedule_key`]).
    pub fn schedule_key(&mut self, key: EventKey, event: E) -> EventToken {
        debug_assert!(key.seq < self.next_seq, "a key the queue never minted");
        debug_assert!(key.time >= self.now, "scheduling into the past");
        let (at, seq) = (key.time.max(self.now), key.seq);
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                self.generations.push(0);
                (self.generations.len() - 1) as u32
            }
        };
        let generation = self.generations[slot as usize];
        self.heap.push(ScheduledEvent {
            time: at,
            seq,
            slot,
            generation,
            event,
        });
        EventToken { slot, generation }
    }

    /// Schedule `event` after a delay relative to `now`.
    pub fn schedule_after(&mut self, delay: crate::Duration, event: E) -> EventToken {
        self.schedule(self.now + delay, event)
    }

    /// Cancel a previously scheduled event (generation-checked no-op for
    /// fired/cancelled/[`EventToken::NONE`] tokens).
    pub fn cancel(&mut self, token: EventToken) {
        let s = token.slot as usize;
        if s >= self.generations.len() || self.generations[s] != token.generation {
            return;
        }
        self.generations[s] = self.generations[s].wrapping_add(1);
        self.free_slots.push(token.slot);
        self.cancelled_in_heap += 1;
        self.prune_cancelled_head();
    }

    #[inline]
    fn is_live(&self, slot: u32, generation: u64) -> bool {
        self.generations[slot as usize] == generation
    }

    fn prune_cancelled_head(&mut self) {
        while let Some(head) = self.heap.peek() {
            if self.is_live(head.slot, head.generation) {
                break;
            }
            self.heap.pop();
            self.cancelled_in_heap -= 1;
        }
    }

    /// Pop the earliest pending event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(ev) = self.heap.pop() {
            if !self.is_live(ev.slot, ev.generation) {
                debug_assert!(false, "cancelled event at heap head");
                self.cancelled_in_heap -= 1;
                continue;
            }
            debug_assert!(ev.time >= self.now, "time went backwards");
            self.generations[ev.slot as usize] = self.generations[ev.slot as usize].wrapping_add(1);
            self.free_slots.push(ev.slot);
            self.now = ev.time;
            self.popped += 1;
            self.prune_cancelled_head();
            return Some((ev.time, ev.event));
        }
        None
    }

    /// Timestamp of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|head| {
            debug_assert!(self.is_live(head.slot, head.generation));
            head.time
        })
    }

    /// Test support: pin a slot's generation stamp directly (see
    /// [`EventQueue::force_generation`]).
    #[doc(hidden)]
    pub fn force_generation(&mut self, slot: u32, generation: u64) {
        self.generations[slot as usize] = generation;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Duration;

    /// A `pop_before` answer with its key cut to the firing time.
    #[derive(Debug, PartialEq)]
    enum Fired<E> {
        Event(SimTime, E),
        External(SimTime),
        Empty,
    }

    fn timed<E>(next: Next<E>) -> Fired<E> {
        match next {
            Next::Event(key, e) => Fired::Event(key.time, e),
            Next::External(key) => Fired::External(key.time),
            Next::Empty => Fired::Empty,
        }
    }

    #[test]
    fn popped_key_is_the_key_filed_or_pushed_under() {
        // Wheel events come back under the key `schedule` reserved or
        // `schedule_key` filed them under, lane entries under the key they
        // were pushed with, including same-time entries of both kinds.
        let mut q = EventQueue::new();
        let mut lanes = Lanes::new();
        let t = SimTime::from_nanos(40);
        let mut want = Vec::new();
        let held = q.reserve(t);
        for i in 0..3u32 {
            let key = q.reserve(t);
            lanes.push(0, key, i).unwrap();
            want.push((key, i));
            let key = q.reserve(SimTime::from_nanos(10 + u64::from(i)));
            q.schedule_key(key, 10 + i);
            want.push((key, 10 + i));
        }
        q.schedule_key(held, 99);
        want.push((held, 99));
        let late = q.reserve(SimTime::from_nanos(70_000));
        lanes.push(1, late, 7).unwrap();
        want.push((late, 7));
        want.sort_unstable();
        let mut got = Vec::new();
        loop {
            match q.pop_before(lanes.peek()) {
                Next::Event(key, e) => got.push((key, e)),
                Next::External(key) => got.push((key, lanes.pop().unwrap().1)),
                Next::Empty => break,
            }
            assert_eq!(q.now(), got.last().unwrap().0.time);
        }
        assert_eq!(got, want);
        // `pending` lists the same keys before anything fires.
        let key = q.reserve(SimTime::from_nanos(80_000));
        q.schedule_key(key, 5);
        assert_eq!(
            q.pending().map(|(k, &e)| (k, e)).collect::<Vec<_>>(),
            [(key, 5)]
        );
        assert!(key < EventKey::NONE && key.seq() < EventKey::NONE.seq());
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), "c");
        q.schedule(SimTime::from_nanos(10), "a");
        q.schedule(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.schedule(SimTime::from_nanos(10), ());
        q.schedule(SimTime::from_nanos(40), ());
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            assert_eq!(q.now(), t);
        }
        assert_eq!(last, SimTime::from_nanos(40));
    }

    #[test]
    fn cancellation_skips_event() {
        let mut q = EventQueue::new();
        let _a = q.schedule(SimTime::from_nanos(1), "keep1");
        let b = q.schedule(SimTime::from_nanos(2), "drop");
        let _c = q.schedule(SimTime::from_nanos(3), "keep2");
        q.cancel(b);
        assert_eq!(q.len(), 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["keep1", "keep2"]);
    }

    #[test]
    fn cancel_fired_token_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), 1u32);
        assert!(q.pop().is_some());
        q.cancel(a); // already fired
        q.schedule(SimTime::from_nanos(2), 2u32);
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
    }

    #[test]
    fn cancel_fired_token_keeps_len_exact() {
        // The old HashSet design overcounted here: a token cancelled after
        // its event fired sat in the cancelled set forever.
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), ());
        q.schedule(SimTime::from_nanos(2), ());
        assert!(q.pop().is_some());
        q.cancel(a); // fired; must not disturb the count
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert!(q.pop().is_some());
        assert!(q.is_empty());
        q.cancel(a); // double-cancel of a dead token: still a no-op
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn cancel_none_is_noop() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.cancel(EventToken::NONE);
        q.schedule(SimTime::from_nanos(1), 7);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn slot_reuse_does_not_resurrect_cancelled_events() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(5), "old");
        q.cancel(a);
        // Reuses the slot a freed; its generation was bumped, so the new
        // token must be distinct and the old event must stay dead.
        let b = q.schedule(SimTime::from_nanos(1), "new");
        assert_ne!(a, b);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some("new"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn schedule_after_uses_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(100), "base");
        q.pop();
        q.schedule_after(Duration::from_nanos(50), "later");
        assert_eq!(q.pop().map(|(t, _)| t), Some(SimTime::from_nanos(150)));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), ());
        q.schedule(SimTime::from_nanos(2), ());
        q.cancel(a);
        // peek_time is &self: the cancelled head was pruned eagerly.
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(2)));
    }

    #[test]
    fn peek_time_sees_buried_cancellation() {
        // Cancel an event that is NOT the head; it surfaces only after the
        // head pops, and the post-pop prune must keep peek_time accurate.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(1), "head");
        let buried = q.schedule(SimTime::from_nanos(2), "buried");
        q.schedule(SimTime::from_nanos(3), "tail");
        q.cancel(buried);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(1)));
        assert_eq!(q.pop().map(|(_, e)| e), Some("head"));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(3)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn empty_and_len() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        let t = q.schedule(SimTime::from_nanos(1), ());
        assert_eq!(q.len(), 1);
        q.cancel(t);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pending_lists_exactly_the_live_events() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(1), 'a');
        let b = q.schedule(SimTime::from_nanos(90_000), 'b');
        q.schedule(SimTime::from_nanos(2), 'c');
        q.schedule(SimTime::from_nanos(3), 'd');
        q.cancel(b); // cancelled below the head: still in the slab
        assert_eq!(q.pop().map(|(_, e)| e), Some('a'));
        let mut live: Vec<(u64, char)> =
            q.pending().map(|(k, &e)| (k.time.as_nanos(), e)).collect();
        live.sort_unstable();
        assert_eq!(live, [(2, 'c'), (3, 'd')]);
        assert_eq!(live.len(), q.len());
    }

    #[test]
    fn late_cancel_after_reuse_cannot_kill_the_new_event() {
        // The nasty ordering: an event fires, its slot is reused by a new
        // event, and only then does the stale token's cancel arrive. The
        // fired pop bumped the generation, so the late cancel must miss
        // the reused slot and len() must stay exact.
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), "a");
        assert!(q.pop().is_some());
        let b = q.schedule(SimTime::from_nanos(2), "b");
        assert_eq!(b.slot, a.slot, "test premise: b reuses a's slot");
        q.cancel(a);
        assert_eq!(q.len(), 1, "late cancel must not touch the reused slot");
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert!(q.is_empty());
    }

    #[test]
    fn generation_stamps_survive_slot_reuse_near_u64_boundary() {
        // Generations bump with wrapping_add, so the interesting edge is
        // the wrap itself: tokens stamped MAX-1 and MAX must die on
        // fire/cancel, and the post-wrap stamp (0) must not resurrect
        // them. Reaching u64::MAX takes 2^64 reuses organically; pin the
        // freed slot's generation directly.
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), "seed");
        q.cancel(a); // slot 0 freed
        q.force_generation(0, u64::MAX - 1);
        let b = q.schedule(SimTime::from_nanos(2), "near-max");
        assert_eq!(b.generation, u64::MAX - 1);
        q.cancel(b); // bumps to u64::MAX
        assert!(q.is_empty());
        let c = q.schedule(SimTime::from_nanos(3), "at-max");
        assert_eq!(c.generation, u64::MAX);
        q.cancel(b); // stale token from the previous generation: no-op
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some("at-max"));
        // c fired across the wrap (MAX -> 0); its token is dead and the
        // recycled slot stamps the wrapped generation on the next event.
        let d = q.schedule(SimTime::from_nanos(4), "wrapped");
        assert_eq!(d.generation, 0);
        assert_ne!(c, d);
        q.cancel(c); // dead pre-wrap token: no-op on the live event
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some("wrapped"));
        assert!(q.is_empty());
    }

    #[test]
    fn heavy_cancel_churn_stays_consistent() {
        // Timer-like workload: schedule, cancel half, fire the rest, reuse
        // slots continuously. len() must track exactly throughout.
        let mut q = EventQueue::new();
        let mut live = 0usize;
        let mut tokens = Vec::new();
        for round in 0u64..50 {
            for i in 0..20 {
                let tok = q.schedule(SimTime::from_nanos(round * 100 + i + 1), (round, i));
                tokens.push(tok);
                live += 1;
            }
            // Cancel every other token from this round.
            for tok in tokens.drain(..).step_by(2) {
                q.cancel(tok);
                live -= 1;
            }
            assert_eq!(q.len(), live);
            // Fire half of what remains.
            for _ in 0..5 {
                if q.pop().is_some() {
                    live -= 1;
                }
            }
            assert_eq!(q.len(), live);
        }
        while q.pop().is_some() {
            live -= 1;
        }
        assert_eq!(live, 0);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_before_fires_a_same_tick_run_then_the_key() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(10);
        for i in 0..5 {
            q.schedule(t, i);
        }
        let key = q.reserve(t);
        q.schedule(SimTime::from_nanos(11), 99);
        assert_eq!(q.len(), 6, "a reserved key is not stored");
        for i in 0..5 {
            assert_eq!(timed(q.pop_before(Some(key))), Fired::Event(t, i));
            assert_eq!(q.now(), t);
        }
        assert_eq!(q.len(), 1);
        assert_eq!(q.popped(), 5);
        assert_eq!(timed(q.pop_before(Some(key))), Fired::External(t));
        assert_eq!(q.popped(), 6);
        assert_eq!(
            timed(q.pop_before(None)),
            Fired::Event(SimTime::from_nanos(11), 99)
        );
        assert_eq!(timed(q.pop_before(None)), Fired::Empty);
    }

    #[test]
    fn pop_before_skips_an_event_cancelled_by_an_earlier_same_tick_handler() {
        // A handler for the first event of a tick cancels the second (as
        // `sync_rto` disarms an RTO): the second never fires, and the key
        // reserved after all three still fires last.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(7);
        q.schedule(t, "first");
        let victim = q.schedule(t, "second");
        q.schedule(t, "third");
        let key = q.reserve(t);
        let mut fired = Vec::new();
        loop {
            match q.pop_before(Some(key)) {
                Next::Event(_, "first") => {
                    q.cancel(victim); // handler side effect
                    fired.push("first");
                }
                Next::Event(_, e) => fired.push(e),
                Next::External(_) => break,
                Next::Empty => unreachable!("the key is still held"),
            }
        }
        assert_eq!(fired, vec!["first", "third"]);
        assert_eq!(q.popped(), 3);
        assert!(q.is_empty());
        assert_eq!(q.now(), t);
    }

    #[test]
    fn pop_before_same_tick_reschedule_fires_after_a_same_tick_key() {
        // A handler re-arms a drain at its own tick and then schedules a
        // same-tick follow-up: FIFO by sequence puts the key first.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(42);
        q.schedule(t, 0);
        assert_eq!(timed(q.pop_before(None)), Fired::Event(t, 0));
        let key = q.reserve(t);
        q.schedule(t, 1);
        assert_eq!(timed(q.pop_before(Some(key))), Fired::External(t));
        assert_eq!(timed(q.pop_before(None)), Fired::Event(t, 1));
        assert_eq!(timed(q.pop_before(None)), Fired::Empty);
        assert_eq!(q.popped(), 3);
    }

    #[test]
    fn reserved_key_fires_between_same_time_schedules() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        q.schedule(t, "before");
        let key = q.reserve(t);
        q.schedule(t, "after");
        assert_eq!(timed(q.pop_before(Some(key))), Fired::Event(t, "before"));
        assert_eq!(timed(q.pop_before(Some(key))), Fired::External(t));
        assert_eq!(timed(q.pop_before(None)), Fired::Event(t, "after"));
    }

    #[test]
    fn earlier_key_fires_before_the_head() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(9), "late");
        let key = q.reserve(SimTime::from_nanos(8));
        assert!(key < q.reserve(SimTime::from_nanos(9)));
        assert_eq!(key.time, SimTime::from_nanos(8));
        assert_eq!(
            timed(q.pop_before(Some(key))),
            Fired::External(SimTime::from_nanos(8))
        );
        assert_eq!(
            timed(q.pop_before(None)),
            Fired::Event(SimTime::from_nanos(9), "late")
        );
    }

    #[test]
    fn external_pop_advances_now_and_counts() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.schedule(SimTime::from_nanos(100), 1);
        let key = q.reserve(SimTime::from_nanos(30));
        assert_eq!(timed(q.pop_before(Some(key))), Fired::External(key.time));
        assert_eq!(q.now(), SimTime::from_nanos(30));
        assert_eq!(q.popped(), 1);
        assert_eq!(q.len(), 1);
        // `now` moved, so a relative schedule starts from the key's time.
        q.schedule_after(Duration::from_nanos(5), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(35), 2)));
    }

    #[test]
    fn empty_only_when_both_sides_are_empty() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert_eq!(timed(q.pop_before(None)), Fired::Empty);
        let key = q.reserve(SimTime::from_nanos(3));
        assert_eq!(timed(q.pop_before(Some(key))), Fired::External(key.time));
        let t = q.schedule(SimTime::from_nanos(4), 1);
        q.cancel(t);
        let key = q.reserve(SimTime::from_nanos(4));
        assert_eq!(timed(q.pop_before(Some(key))), Fired::External(key.time));
        q.schedule(SimTime::from_nanos(6), 2);
        assert_eq!(
            timed(q.pop_before(None)),
            Fired::Event(SimTime::from_nanos(6), 2)
        );
        assert_eq!(timed(q.pop_before(None)), Fired::Empty);
        assert_eq!(q.popped(), 3);
    }

    /// Schedule `events` one by one at `at`: a same-instant run.
    fn schedule_run(q: &mut EventQueue<i32>, at: u64, events: std::ops::Range<i32>) {
        for e in events {
            q.schedule(SimTime::from_nanos(at), e);
        }
    }

    #[test]
    fn same_instant_run_is_fifo_and_cancellable_around() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(5), 100);
        schedule_run(&mut q, 5, 0..4);
        schedule_run(&mut q, 3, 50..52);
        assert_eq!(q.len(), 7);
        q.cancel(a);
        assert_eq!(q.len(), 6);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![50, 51, 0, 1, 2, 3]);
        assert_eq!(q.popped(), 6);
    }

    #[test]
    fn same_instant_runs_into_sorted_front_keep_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(100), 0);
        q.schedule(SimTime::from_nanos(300), 9);
        assert!(q.pop().is_some()); // front now holds 300 with a far limit
        schedule_run(&mut q, 200, 1..3);
        schedule_run(&mut q, 200, 3..5);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 9]);
    }

    #[test]
    fn a_key_refiled_at_now_fires_after_same_time_smaller_seqs() {
        // A key reserved between same-time schedules, filed, cancelled and
        // filed again once the clock reaches its time: it keeps its place
        // between the events reserved before and after it, and a schedule
        // made after the re-file still fires last. The heap agrees.
        let t = SimTime::from_nanos(10);
        let mut w = EventQueue::new();
        let mut h = HeapEventQueue::new();
        w.schedule(t, "head");
        h.schedule(t, "head");
        w.schedule(t, "smaller");
        h.schedule(t, "smaller");
        let key = w.reserve(t);
        assert_eq!(h.reserve(t), key);
        w.schedule(t, "larger");
        h.schedule(t, "larger");
        let early = w.schedule_key(key, "key");
        w.cancel(early);
        let early = h.schedule_key(key, "key");
        h.cancel(early);
        assert_eq!(w.pop(), Some((t, "head")));
        assert_eq!(h.pop(), Some((t, "head")));
        assert_eq!(w.now(), t);
        w.schedule_key(key, "key");
        h.schedule_key(key, "key");
        w.schedule(t, "newest");
        h.schedule(t, "newest");
        let order = ["smaller", "key", "larger", "newest"];
        for e in order {
            assert_eq!(w.pop(), Some((t, e)));
            assert_eq!(h.pop(), Some((t, e)));
        }
        assert_eq!((w.pop(), h.pop()), (None, None));
        assert_eq!(w.popped(), h.popped());
    }

    #[test]
    fn a_held_key_fires_at_its_place_among_later_schedules() {
        let mut q = EventQueue::new();
        let key = q.reserve(SimTime::from_nanos(5_000_000));
        for i in 0..3 {
            q.schedule(SimTime::from_nanos(5_000_000), i);
        }
        q.schedule(SimTime::from_nanos(4_999_999), 9);
        q.schedule_key(key, 7);
        assert_eq!(q.len(), 5);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![9, 7, 0, 1, 2]);
    }

    #[test]
    fn lane_pop_replaces_the_head_in_place() {
        let mut q: EventQueue<()> = EventQueue::new();
        let mut lanes = Lanes::new();
        let t = |ns| SimTime::from_nanos(ns);
        let a0 = q.reserve(t(10));
        let b0 = q.reserve(t(20));
        let a1 = q.reserve(t(30));
        let b1 = q.reserve(t(30));
        assert!(lanes.push(3, a0, "a0").is_ok());
        assert!(lanes.push(7, b0, "b0").is_ok());
        assert!(lanes.push(3, a1, "a1").is_ok());
        assert!(lanes.push(7, b1, "b1").is_ok());
        assert_eq!(
            (lanes.len(), lanes.heads.len()),
            (4, 2),
            "one head per lane"
        );
        assert_eq!(
            (lanes.lane_len(3), lanes.lane_len(7), lanes.lane_len(9)),
            (2, 2, 0)
        );
        assert_eq!(lanes.peek(), Some(a0));
        // Lane 3's next entry takes its head's place: the heap keeps its
        // size and re-sorts, so lane 7 now leads.
        assert_eq!(lanes.pop(), Some((3, "a0")));
        assert_eq!(lanes.heads.len(), 2);
        assert_eq!(lanes.peek(), Some(b0));
        assert_eq!(lanes.pop(), Some((7, "b0")));
        // A same-time tie between lanes goes to the earlier reservation.
        assert_eq!(lanes.peek(), Some(a1));
        assert_eq!(lanes.pop(), Some((3, "a1")));
        assert_eq!(lanes.pop(), Some((7, "b1")));
        assert_eq!(lanes.pop(), None);
        assert!(lanes.is_empty());
    }

    #[test]
    fn an_emptied_lane_leaves_the_heap() {
        let mut q: EventQueue<()> = EventQueue::new();
        let mut lanes = Lanes::new();
        let k1 = q.reserve(SimTime::from_nanos(5));
        let k2 = q.reserve(SimTime::from_nanos(9));
        lanes.push(0, k1, 1u32).unwrap();
        lanes.push(MAX_LANES - 1, k2, 2).unwrap();
        assert_eq!(lanes.pop(), Some((0, 1)));
        assert_eq!(lanes.heads.len(), 1, "lane 0 emptied and left the heap");
        assert_eq!(lanes.peek(), Some(k2));
        // Refilling the emptied lane puts it back as a head.
        let k3 = q.reserve(SimTime::from_nanos(7));
        lanes.push(0, k3, 3).unwrap();
        assert_eq!(lanes.heads.len(), 2);
        assert_eq!(lanes.pop(), Some((0, 3)));
        assert_eq!(lanes.pop(), Some((MAX_LANES - 1, 2)));
        assert!(lanes.heads.is_empty() && lanes.is_empty());
    }

    #[test]
    fn a_lane_refuses_a_key_before_its_tail() {
        let mut q: EventQueue<()> = EventQueue::new();
        let mut lanes = Lanes::new();
        let late = q.reserve(SimTime::from_nanos(50));
        lanes.push(2, late, "late").unwrap();
        let early = q.reserve(SimTime::from_nanos(49));
        assert_eq!(lanes.push(2, early, "early"), Err("early"));
        let other = q.reserve(SimTime::from_nanos(49));
        assert_eq!(lanes.push(1, other, "other"), Ok(()), "lanes are apart");
        let tie = q.reserve(SimTime::from_nanos(50));
        assert_eq!(lanes.push(2, tie, "tie"), Ok(()), "a later tie joins");
        // A key from before the tail's reservation at the same time sorts
        // before it too.
        let mut fresh: Lanes<&str> = Lanes::new();
        let (first, second) = (
            q.reserve(SimTime::from_nanos(60)),
            q.reserve(SimTime::from_nanos(60)),
        );
        fresh.push(0, second, "second").unwrap();
        assert_eq!(fresh.push(0, first, "first"), Err("first"));
        assert_eq!(lanes.len(), 3);
        assert_eq!(fresh.len(), 1);
        let order: Vec<_> = std::iter::from_fn(|| lanes.pop()).collect();
        assert_eq!(order, vec![(1, "other"), (2, "late"), (2, "tie")]);
    }

    #[test]
    fn lane_iter_lists_one_lane_oldest_first() {
        let mut q: EventQueue<()> = EventQueue::new();
        let mut lanes = Lanes::new();
        let k = |q: &mut EventQueue<()>, ns| q.reserve(SimTime::from_nanos(ns));
        let (a0, b0, a1) = (k(&mut q, 10), k(&mut q, 5), k(&mut q, 20));
        lanes.push(1, a0, 'a').unwrap();
        lanes.push(4, b0, 'b').unwrap();
        lanes.push(1, a1, 'c').unwrap();
        let lane1: Vec<_> = lanes.iter(1).map(|(key, &v)| (key, v)).collect();
        assert_eq!(lane1, [(a0, 'a'), (a1, 'c')]);
        assert_eq!(lanes.iter(4).count(), 1);
        assert_eq!(lanes.iter(2).count(), 0, "a lane below the highest");
        assert_eq!(lanes.iter(MAX_LANES).count(), 0, "a lane never pushed to");
        // Reading leaves the lanes as they were.
        assert_eq!(lanes.len(), 3);
        assert_eq!(lanes.pop(), Some((4, 'b')));
        let rest: Vec<_> = lanes.iter(1).map(|(_, &v)| v).collect();
        assert_eq!(rest, ['a', 'c']);
    }

    #[test]
    fn lanes_allocate_nothing_until_pushed() {
        let lanes: Lanes<u32> = Lanes::new();
        assert_eq!(lanes.lanes.capacity(), 0);
        assert_eq!(lanes.heads.capacity(), 0);
        assert_eq!(lanes.peek(), None);
    }

    #[test]
    fn wheel_and_heap_agree_on_a_mixed_workload() {
        // Inline differential smoke (the full proptest lives in
        // tests/prop_wheel.rs): identical op sequences must yield
        // identical observable state at every step.
        let mut w: EventQueue<u64> = EventQueue::new();
        let mut h: HeapEventQueue<u64> = HeapEventQueue::new();
        let mut rng = 0x243f6a8885a308d3u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut tokens: Vec<(EventToken, EventToken)> = Vec::new();
        for i in 0..5_000u64 {
            match next() % 10 {
                0..=4 => {
                    let horizon = match next() % 8 {
                        0 => 300_000_000_000, // spill (past ~275 s)
                        1..=2 => 2_000_000,   // mid wheel
                        _ => 2_000,           // near
                    };
                    let at = SimTime::from_nanos(w.now().as_nanos() + next() % horizon);
                    let tw = w.schedule(at, i);
                    let th = h.schedule(at, i);
                    tokens.push((tw, th));
                }
                5..=6 => {
                    if !tokens.is_empty() {
                        let k = (next() as usize) % tokens.len();
                        let (tw, th) = tokens.swap_remove(k);
                        w.cancel(tw);
                        h.cancel(th);
                    }
                }
                _ => {
                    assert_eq!(w.pop(), h.pop());
                }
            }
            assert_eq!(w.len(), h.len());
            assert_eq!(w.popped(), h.popped());
            assert_eq!(w.peek_time(), h.peek_time());
            assert_eq!(w.now(), h.now());
        }
        loop {
            let (a, b) = (w.pop(), h.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
