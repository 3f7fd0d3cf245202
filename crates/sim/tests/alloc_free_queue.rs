//! A warmed-up [`EventQueue`] allocates nothing.
//!
//! Every pending event lives in the queue's slab and the wheel only links
//! slot indices, so once the slab, the front and the spill have reached
//! their high-water capacity, schedule / cancel / pop cycles must not
//! touch the allocator — even as the clock moves the events across wheel
//! buckets the warm-up never used. The same holds for FIFO [`Lanes`]
//! merged with the queue. A counting global allocator checks it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hns_sim::event::EventToken;
use hns_sim::{EventQueue, Lanes, Next, SimTime};

/// Wraps the system allocator, counting this thread's allocations so the
/// test harness's other threads cannot disturb the count.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only a const-initialized
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by this thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Events per round, by horizon.
const SAME_TICK: u64 = 16;
const SPREAD: u64 = 40;
const SPILL: u64 = 8;

/// One round: arm a same-tick burst, events spread over every wheel level
/// and a few beyond the last one, cancel every third, then pop until the
/// queue is empty. `shift` moves the whole round to other buckets.
fn round(q: &mut EventQueue<u64>, tokens: &mut Vec<EventToken>, shift: u64) {
    let base = q.now().as_nanos() + 1_000 + shift;
    for i in 0..SAME_TICK {
        tokens.push(q.schedule(SimTime::from_nanos(base), i));
    }
    for i in 0..SPREAD {
        // 40 ns .. ~2.7 s ahead: level 0 through level 3.
        let ahead = 40 << (i % 27);
        tokens.push(q.schedule(SimTime::from_nanos(base + ahead + i), i));
    }
    for i in 0..SPILL {
        // Past the ~275 s level-3 window.
        let ahead = 400_000_000_000 + i * 1_000_003;
        tokens.push(q.schedule(SimTime::from_nanos(base + ahead), i));
    }
    for tok in tokens.iter().step_by(3) {
        q.cancel(*tok);
    }
    tokens.clear();
    while q.pop().is_some() {}
}

#[test]
fn warm_queue_cycles_allocate_nothing() {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut tokens = Vec::with_capacity((SAME_TICK + SPREAD + SPILL) as usize);
    // Shift by a prime number of nanoseconds so every round lands in
    // buckets of its own at every level. The shift is 27 mod 64, so the
    // first 64 rounds meet every alignment of the same-tick burst against
    // a 64 ns level-0 bucket; the fullest bucket sets the sort scratch's
    // high-water mark, so those rounds are the warm-up.
    let shift = |k: u64| k * 7_919_003;
    for k in 0..64 {
        round(&mut q, &mut tokens, shift(k));
    }
    let before = allocs();
    for k in 64..264u64 {
        round(&mut q, &mut tokens, shift(k));
    }
    assert!(q.is_empty());
    let armed = SAME_TICK + SPREAD + SPILL;
    assert_eq!(q.popped(), 264 * (armed - armed.div_ceil(3)));
    assert_eq!(allocs() - before, 0, "a warmed-up queue allocated");
}

#[test]
fn warm_lanes_allocate_nothing() {
    // Four lanes of same-tick and staggered entries merged with wheel
    // events through `pop_before`: once the deques and the head heap have
    // reached their high-water capacity, cycles allocate nothing.
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut lanes: Lanes<u64> = Lanes::new();
    let cycle = |q: &mut EventQueue<u64>, lanes: &mut Lanes<u64>| {
        let now = q.now().as_nanos();
        for i in 0..32u64 {
            let at = SimTime::from_nanos(now + 100 + (i / 4) * 50);
            let pushed = lanes.push((i % 4) as usize, q.reserve(at), i);
            assert!(pushed.is_ok());
            q.schedule(SimTime::from_nanos(now + 100 + i * 13), i);
        }
        let mut fired = 0;
        loop {
            match q.pop_before(lanes.peek()) {
                Next::Event(..) => fired += 1,
                Next::External(_) => {
                    lanes.pop().expect("a key was peeked");
                    fired += 1;
                }
                Next::Empty => break,
            }
        }
        assert_eq!(fired, 64);
    };
    cycle(&mut q, &mut lanes);
    let before = allocs();
    for _ in 0..200 {
        cycle(&mut q, &mut lanes);
    }
    assert!(lanes.is_empty() && q.is_empty());
    assert_eq!(allocs() - before, 0, "warm lanes allocated");
}
