//! Hierarchical timer wheel — the ordering index behind [`crate::EventQueue`].
//!
//! A binary heap pays an O(log n) sift on every push and pop; at
//! million-flow scale those sifts dominate the engine's cycle budget the
//! same way per-skb bookkeeping dominates the kernel's. The wheel replaces
//! them with O(1) bucket pushes and amortized-O(1) pops.
//!
//! The wheel stores no events. Every pending event lives exactly once, as
//! a [`Node`] in the queue's slab, and the wheel orders 4-byte slot
//! indices into that slab. Moving an event between regions relinks or
//! copies an index; the node itself never moves.
//!
//! * **Front** — a `VecDeque<u32>` holding, in sorted `(time, seq)` order,
//!   every pending node with `time < front_limit`. The queue head is
//!   always `front[0]`, so peeking is a field read and popping is
//!   `pop_front`. A push below `front_limit` appends when it sorts last;
//!   otherwise a galloping search from the head (probe 0, 1, 3, 7, …,
//!   then binary-search the bracket) finds its position, which costs a
//!   compare or two for the common near-head insert and O(log n) at worst.
//! * **Four wheel levels** of 256 buckets each. Level 0 buckets are 64 ns
//!   wide (`time >> 6`), and each higher level is 256× coarser
//!   (`time >> 14`, `time >> 22`, `time >> 30`), giving windows of
//!   ~16.4 µs, ~4.19 ms, ~1.07 s and ~275 s ahead of the consumed edge. A
//!   bucket is an intrusive singly linked list: the level holds 256 inline
//!   `u32` list heads and the nodes link through [`Node::next`], so a push
//!   is one prepend and a cascade relinks nodes without copying them. A
//!   per-level 256-bit occupancy bitmap finds the next non-empty bucket in
//!   a handful of word scans.
//! * **Spill** — nodes beyond the level-3 window (≳275 s ahead) land in a
//!   lazily-sorted index vector and migrate into the wheels once the
//!   consumed edge draws near enough. Such far timers are vanishingly rare
//!   in a seconds-scale simulation, so the spill stays small and its sort
//!   amortizes away.
//!
//! Nothing here allocates on construction, and once the front, the spill
//! and the sort scratch have reached their high-water capacity, nothing
//! allocates at all.
//!
//! # Cursors and the placement rule
//!
//! `cur[l]` is the *absolute* index of the next unconsumed bucket at level
//! `l` (not masked). A node at time `t` goes to the smallest level `l`
//! with `(t >> shift(l)) < cur[l] + 256`, else to the spill. Because the
//! windows are anchored at the consumed edge rather than at `now`, the rule
//! is collision-proof: a node can never land in a bucket that has already
//! been consumed or cascaded (see the invariants below).
//!
//! # Refill and cascade
//!
//! When the front runs dry, `ensure_front` performs refill steps. Each step
//! compares the earliest non-empty level-0 bucket `a0` against the
//! *boundaries* of the earliest non-empty coarser buckets
//! (`b_l << 8l`, in level-0 bucket units). The coarsest level whose
//! boundary is ≤ `a0` and ≤ every finer boundary cascades first — its
//! nodes redistribute into lower levels — so nothing at a lower level is
//! consumed while a coarser bucket still covers the same span. Only then is
//! bucket `a0`'s live nodes appended to the front: a one-node bucket
//! directly, a longer one sorted by `(time, seq)` in a reused scratch
//! vector. That advances
//! `cur[0]` (and hence `front_limit`) past it.
//!
//! # Invariants
//!
//! 1. Every node outside the front has `time >= front_limit`
//!    (`front_limit = cur[0] << SHIFT0`), hence `time >> SHIFT0 >= cur[0]`.
//! 2. `cur[l+1] <= (cur[l] >> 8) + 1` for every adjacent level pair: a
//!    node that misses a level's window always fits the next one.
//! 3. The front is sorted ascending by `(time, seq)` and, together with
//!    invariant 1, holds *all* pending nodes below `front_limit` — so all
//!    same-timestamp nodes are contiguous at the head and pop in FIFO
//!    order as a run of `pop_front`s.
//!
//! Cancellation lives in [`crate::EventQueue`]: it bumps the node's
//! generation and drops the payload, but leaves the node linked. A dead
//! node surfaces either when its level-0 bucket is consumed, where
//! `consume_l0` drops it instead of sorting it into the front, or at the
//! head of the front, where the queue's prune drops it. Only then is its
//! slot released, so no bucket link ever points at a reused node.
//! Cascades relink dead nodes like live ones: dropping them there could
//! empty a cascade and leave a finer cursor ahead of the consumed edge,
//! breaking invariant 2.

use std::collections::VecDeque;
use std::ops::{Index, IndexMut};

use crate::time::SimTime;

/// Buckets per wheel level.
pub(crate) const SLOTS: usize = 256;
/// log2 of a level-0 bucket width in nanoseconds (64 ns). The per-frame
/// streams (NIC drains, frame arrivals, IRQs) ride the caller's FIFO lanes,
/// so what stays on the wheel is sparse: a 16.4 µs level-0 window lets
/// near timers land in level 0 without a cascade, and a bucket still holds
/// few nodes for `consume_l0` to sort.
pub(crate) const SHIFT0: u32 = 6;
/// Bits added per level (each level is 256× coarser).
const LEVEL_BITS: u32 = 8;
/// Number of wheel levels before the spill list takes over.
pub(crate) const LEVELS: usize = 4;
/// End of a bucket list (and of the queue's free list).
pub(crate) const NIL: u32 = u32::MAX;

#[inline]
fn level_shift(level: usize) -> u32 {
    SHIFT0 + LEVEL_BITS * level as u32
}

/// One slot of the event slab: a pending event with its timestamp, FIFO
/// tie-break and the slot's current generation.
#[derive(Debug)]
pub(crate) struct Node<E> {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    /// The slot's current generation: a token is live iff it matches.
    pub(crate) generation: u64,
    /// Next node in the same bucket list, or in the queue's free list;
    /// [`NIL`] ends either.
    pub(crate) next: u32,
    /// The payload; `None` once the event fired or was cancelled.
    pub(crate) event: Option<E>,
}

/// The event slab: every stored node, indexed by slot, and a LIFO free
/// list of slots threaded through [`Node::next`].
pub(crate) struct Slab<E> {
    nodes: Vec<Node<E>>,
    free: u32,
}

impl<E> Slab<E> {
    pub(crate) const fn new() -> Self {
        Slab {
            nodes: Vec::new(),
            free: NIL,
        }
    }

    /// Store `event` at `(time, seq)` in a free slot, reusing the most
    /// recently released one and keeping its generation. The node is not
    /// yet linked anywhere.
    #[inline]
    pub(crate) fn alloc(&mut self, time: SimTime, seq: u64, event: E) -> u32 {
        let slot = self.free;
        if slot == NIL {
            debug_assert!(self.nodes.len() < NIL as usize, "slab full");
            self.nodes.push(Node {
                time,
                seq,
                generation: 0,
                next: NIL,
                event: Some(event),
            });
            return (self.nodes.len() - 1) as u32;
        }
        let node = &mut self.nodes[slot as usize];
        self.free = node.next;
        node.time = time;
        node.seq = seq;
        node.next = NIL;
        node.event = Some(event);
        slot
    }

    /// Return a slot to the free list. No wheel region may refer to it
    /// any more.
    #[inline]
    pub(crate) fn release(&mut self, slot: u32) {
        self.nodes[slot as usize].next = self.free;
        self.free = slot;
    }

    /// Every payload still stored, with its time and sequence number:
    /// events neither fired nor cancelled.
    pub(crate) fn events(&self) -> impl Iterator<Item = (SimTime, u64, &E)> {
        self.nodes
            .iter()
            .filter_map(|n| n.event.as_ref().map(|e| (n.time, n.seq, e)))
    }

    /// The node in `slot`, or `None` past the end (e.g. a `NONE` token).
    #[inline]
    pub(crate) fn get_mut(&mut self, slot: u32) -> Option<&mut Node<E>> {
        self.nodes.get_mut(slot as usize)
    }
}

impl<E> Index<u32> for Slab<E> {
    type Output = Node<E>;

    #[inline]
    fn index(&self, slot: u32) -> &Node<E> {
        &self.nodes[slot as usize]
    }
}

impl<E> IndexMut<u32> for Slab<E> {
    #[inline]
    fn index_mut(&mut self, slot: u32) -> &mut Node<E> {
        &mut self.nodes[slot as usize]
    }
}

/// `(time, seq)` of slot `i`: the total order the wheel maintains.
#[inline]
fn key<E>(slab: &Slab<E>, i: u32) -> (SimTime, u64) {
    let n = &slab[i];
    (n.time, n.seq)
}

/// The partition point of `front` under `pred`, which must hold on a
/// prefix. Gallops from the head — probes 0, 1, 3, 7, … until `pred`
/// fails — then binary-searches the last bracket, so an answer at
/// position `p` costs O(log p) probes.
fn gallop(front: &VecDeque<u32>, pred: impl Fn(u32) -> bool) -> usize {
    let len = front.len();
    let mut lo = 0;
    let mut probe = 0;
    while probe < len && pred(front[probe]) {
        lo = probe + 1;
        probe = 2 * probe + 1;
    }
    // `pred` holds below `lo` and fails at `probe` (if in range).
    let mut hi = probe.min(len);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(front[mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// One wheel level: 256 bucket list heads, a 256-bit occupancy bitmap,
/// and the absolute index of the next unconsumed bucket.
struct Level {
    heads: [u32; SLOTS],
    occupied: [u64; 4],
    cur: u64,
}

impl Level {
    const EMPTY: Level = Level {
        heads: [NIL; SLOTS],
        occupied: [0; 4],
        cur: 0,
    };

    /// Prepend slot `i` to bucket `abs`.
    #[inline]
    fn link<E>(&mut self, slab: &mut Slab<E>, abs: u64, i: u32) {
        let b = (abs as usize) & (SLOTS - 1);
        slab[i].next = self.heads[b];
        self.heads[b] = i;
        self.occupied[b / 64] |= 1u64 << (b % 64);
    }

    /// Empty bucket `abs`, returning the head of its list.
    #[inline]
    fn take(&mut self, abs: u64) -> u32 {
        let b = (abs as usize) & (SLOTS - 1);
        self.occupied[b / 64] &= !(1u64 << (b % 64));
        std::mem::replace(&mut self.heads[b], NIL)
    }

    /// Absolute index of the earliest non-empty bucket, or `None` if the
    /// level is empty. All occupied buckets lie in `[cur, cur + 256)`, so
    /// the circular distance from `cur`'s slot to a set bit *is* the
    /// absolute distance from `cur`.
    fn next_occupied(&self) -> Option<u64> {
        let start = (self.cur as usize) & (SLOTS - 1);
        let (sw, sb) = (start / 64, start % 64);
        let w = self.occupied[sw] & (!0u64 << sb);
        if w != 0 {
            let idx = sw * 64 + w.trailing_zeros() as usize;
            return Some(self.cur + (idx - start) as u64);
        }
        for k in 1..=4usize {
            let wi = (sw + k) % 4;
            let mut w = self.occupied[wi];
            if k == 4 {
                // Wrapped back to the start word: only bits before `sb`.
                w &= (1u64 << sb) - 1;
            }
            if w != 0 {
                let idx = wi * 64 + w.trailing_zeros() as usize;
                let off = (idx + SLOTS - start) % SLOTS;
                return Some(self.cur + off as u64);
            }
        }
        None
    }
}

/// Hierarchical timer wheel ordering slab slots by `(time, seq)`. Every
/// method that reads or relinks nodes takes the slab.
pub(crate) struct TimerWheel {
    front: VecDeque<u32>,
    levels: [Level; LEVELS],
    spill: Vec<u32>,
    /// True when `spill` is sorted descending by `(time, seq)` (so the
    /// earliest nodes pop off the back during migration).
    spill_sorted: bool,
    /// Minimum time (ns) present in `spill`; `u64::MAX` when empty.
    spill_min: u64,
    /// Conservative lower bound (in level-0 bucket units) on the earliest
    /// occupied coarse-level bucket boundary. While the next level-0
    /// bucket sits below it, no cascade can be due, so refill skips the
    /// coarse bitmap scans entirely — the common case when events cluster
    /// near `now`. Pushes lower it; cascades zero it to force a rescan.
    coarse_min: u64,
    /// Total stored nodes (front + levels + spill), live or dead.
    stored: usize,
    /// Reused buffer for sorting a multi-node level-0 bucket.
    scratch: Vec<u32>,
}

impl TimerWheel {
    pub(crate) fn new() -> Self {
        TimerWheel {
            front: VecDeque::new(),
            levels: [Level::EMPTY; LEVELS],
            spill: Vec::new(),
            spill_sorted: true,
            spill_min: u64::MAX,
            coarse_min: u64::MAX,
            stored: 0,
            scratch: Vec::new(),
        }
    }

    /// Total stored nodes, including dead (cancelled) ones not yet
    /// discarded.
    #[cfg(test)]
    pub(crate) fn stored(&self) -> usize {
        self.stored
    }

    /// Everything below this time lives in the front.
    #[inline]
    fn front_limit(&self) -> u64 {
        self.levels[0].cur << SHIFT0
    }

    /// The earliest stored slot, provided the front has been refilled
    /// (see [`Self::ensure_front`]).
    #[inline]
    pub(crate) fn peek(&self) -> Option<u32> {
        self.front.front().copied()
    }

    /// Remove and return the earliest slot. The caller is responsible for
    /// calling [`Self::ensure_front`] afterwards if it needs the next head.
    #[inline]
    pub(crate) fn pop_front(&mut self) -> Option<u32> {
        let i = self.front.pop_front()?;
        self.stored -= 1;
        Some(i)
    }

    /// Insert slot `i`, whose time and seq are already set.
    pub(crate) fn push<E>(&mut self, slab: &mut Slab<E>, i: u32) {
        self.stored += 1;
        if slab[i].time.as_nanos() < self.front_limit() {
            self.insert_front(slab, i);
        } else {
            self.sync_cursors();
            self.place_in_levels(slab, i);
        }
    }

    /// Insert slot `i` below `front_limit` at its sorted front position.
    fn insert_front<E>(&mut self, slab: &Slab<E>, i: u32) {
        let k = key(slab, i);
        match self.front.back() {
            Some(&last) if key(slab, last) > k => {
                let pos = gallop(&self.front, |j| key(slab, j) < k);
                self.front.insert(pos, i);
            }
            _ => self.front.push_back(i),
        }
    }

    /// Refill the front until it holds the queue head (or the wheel is
    /// truly empty). Amortized O(1) per stored node: each node cascades
    /// at most twice and joins the front exactly once.
    pub(crate) fn ensure_front<E>(&mut self, slab: &mut Slab<E>) {
        while self.front.is_empty() && self.stored > 0 && self.refill_once(slab) {}
    }

    /// Smallest level whose window covers slot `i`, per the placement rule.
    fn place_in_levels<E>(&mut self, slab: &mut Slab<E>, i: u32) {
        let t = slab[i].time.as_nanos();
        for (l, level) in self.levels.iter_mut().enumerate() {
            let abs = t >> level_shift(l);
            if abs < level.cur + SLOTS as u64 {
                debug_assert!(abs >= level.cur, "node behind consumed edge");
                level.link(slab, abs, i);
                if l > 0 {
                    let boundary = abs << (LEVEL_BITS * l as u32);
                    self.coarse_min = self.coarse_min.min(boundary);
                }
                return;
            }
        }
        self.push_spill(slab, i);
    }

    fn push_spill<E>(&mut self, slab: &Slab<E>, i: u32) {
        if let Some(&last) = self.spill.last() {
            if self.spill_sorted && key(slab, last) < key(slab, i) {
                self.spill_sorted = false;
            }
        }
        self.spill_min = self.spill_min.min(slab[i].time.as_nanos());
        self.spill.push(i);
    }

    /// Keep the coarser cursors abreast of the consumed edge so the
    /// placement windows track it: no node below `front_limit` is stored
    /// outside the front, so no occupied coarse bucket can be skipped by
    /// this advance.
    fn sync_cursors(&mut self) {
        // Each coarse cursor advances from `cur[0]` directly (not from the
        // next-finer cursor, which may sit one bucket *past* its own
        // boundary and would over-advance the coarser level).
        let c0 = self.levels[0].cur;
        for (l, level) in self.levels.iter_mut().enumerate().skip(1) {
            let target = c0 >> (LEVEL_BITS * l as u32);
            if level.cur < target {
                level.cur = target;
            }
        }
    }

    /// One unit of refill work: migrate eligible spill nodes, cascade the
    /// coarser level whose boundary is due, consume the next level-0
    /// bucket, or re-anchor onto the spill. Returns false when nothing
    /// remains outside the front.
    fn refill_once<E>(&mut self, slab: &mut Slab<E>) -> bool {
        self.sync_cursors();
        self.migrate_spill(slab);
        let a0 = self.levels[0].next_occupied();
        // Fast path: the next level-0 bucket lies strictly before every
        // occupied coarse boundary, so no cascade can be due.
        if let Some(a0v) = a0 {
            if a0v < self.coarse_min {
                self.consume_l0(slab, a0v);
                return true;
            }
        }
        // Ties go to the coarser level: its nodes may belong in the very
        // bucket (or finer bucket) about to be processed. Scanning finer to
        // coarser with `<=` leaves the coarsest tied level selected.
        let mut best = None;
        let mut best_boundary = a0.unwrap_or(u64::MAX);
        let mut min_boundary = u64::MAX;
        for l in 1..LEVELS {
            if let Some(b) = self.levels[l].next_occupied() {
                let boundary = b << (LEVEL_BITS * l as u32);
                min_boundary = min_boundary.min(boundary);
                if boundary <= best_boundary {
                    best = Some((l, b));
                    best_boundary = boundary;
                }
            }
        }
        if let Some((l, b)) = best {
            self.cascade(slab, l, b);
            // Coarse occupancy changed; force a rescan next refill.
            self.coarse_min = 0;
            true
        } else if let Some(a0) = a0 {
            // The scan just proved every coarse boundary is beyond `a0`.
            self.coarse_min = min_boundary;
            self.consume_l0(slab, a0);
            true
        } else if !self.spill.is_empty() {
            self.reanchor_to_spill(slab);
            self.coarse_min = 0;
            true
        } else {
            false
        }
    }

    /// Relink bucket `b` of level `l` into finer levels. The caller
    /// guarantees no finer-level bucket before `b`'s boundary is occupied,
    /// so advancing the finer cursor to the boundary skips only empties.
    /// Dead nodes are relinked too (see the module docs).
    fn cascade<E>(&mut self, slab: &mut Slab<E>, l: usize, b: u64) {
        let boundary = b << LEVEL_BITS;
        if self.levels[l - 1].cur < boundary {
            self.levels[l - 1].cur = boundary;
        }
        if l - 1 == 0 {
            self.sync_cursors();
        }
        let mut i = self.levels[l].take(b);
        self.levels[l].cur = b + 1;
        while i != NIL {
            let next = slab[i].next;
            self.place_in_levels(slab, i);
            i = next;
        }
    }

    /// Append level-0 bucket `a0`'s live nodes to the front in
    /// `(time, seq)` order, advancing the consumed edge past it.
    fn consume_l0<E>(&mut self, slab: &mut Slab<E>, a0: u64) {
        let head = self.levels[0].take(a0);
        self.levels[0].cur = a0 + 1;
        if slab[head].next == NIL {
            if self.keep(slab, head) {
                self.append_front(slab, head);
            }
            return;
        }
        let mut i = head;
        while i != NIL {
            let next = slab[i].next;
            if self.keep(slab, i) {
                self.scratch.push(i);
            }
            i = next;
        }
        if !self.scratch.is_empty() {
            self.scratch.sort_unstable_by_key(|&j| key(slab, j));
            let first = self.scratch[0];
            self.append_front(slab, first);
            self.front.extend(&self.scratch[1..]);
            self.scratch.clear();
        }
    }

    /// Whether slot `i`, just unlinked from a level-0 bucket, joins the
    /// front: a cancelled node is discarded instead and its slot released,
    /// since no link to it remains.
    #[inline]
    fn keep<E>(&mut self, slab: &mut Slab<E>, i: u32) -> bool {
        if slab[i].event.is_some() {
            return true;
        }
        self.stored -= 1;
        slab.release(i);
        false
    }

    /// Append slot `i`, which sorts after the whole front.
    #[inline]
    fn append_front<E>(&mut self, slab: &Slab<E>, i: u32) {
        if let Some(&last) = self.front.back() {
            debug_assert!(
                key(slab, last) < key(slab, i),
                "bucket nodes must follow the existing front"
            );
        }
        self.front.push_back(i);
    }

    /// Pull spill nodes whose top-level bucket has come within the window.
    fn migrate_spill<E>(&mut self, slab: &mut Slab<E>) {
        if self.spill.is_empty() {
            return;
        }
        let top = LEVELS - 1;
        let horizon = self.levels[top].cur + SLOTS as u64;
        if self.spill_min >> level_shift(top) >= horizon {
            return;
        }
        if !self.spill_sorted {
            self.spill
                .sort_unstable_by_key(|&j| std::cmp::Reverse(key(slab, j)));
            self.spill_sorted = true;
        }
        while let Some(&last) = self.spill.last() {
            if slab[last].time.as_nanos() >> level_shift(top) < horizon {
                self.spill.pop();
                self.place_in_levels(slab, last);
            } else {
                break;
            }
        }
        self.spill_min = self
            .spill
            .last()
            .map_or(u64::MAX, |&j| slab[j].time.as_nanos());
    }

    /// Everything but the spill is empty and the spill is still beyond the
    /// level-3 window: jump the consumed edge to the spill minimum so
    /// migration can proceed. Safe because there is nothing to skip.
    fn reanchor_to_spill<E>(&mut self, slab: &mut Slab<E>) {
        let anchor = self.spill_min >> SHIFT0;
        if self.levels[0].cur < anchor {
            self.levels[0].cur = anchor;
        }
        self.sync_cursors();
        self.migrate_spill(slab);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A wheel with its own slab; payloads are the seqs.
    struct Harness {
        w: TimerWheel,
        slab: Slab<u64>,
    }

    impl Harness {
        fn new() -> Self {
            Harness {
                w: TimerWheel::new(),
                slab: Slab::new(),
            }
        }

        fn node(&mut self, t: u64, seq: u64) -> u32 {
            self.slab.alloc(SimTime::from_nanos(t), seq, seq)
        }

        fn push(&mut self, t: u64, seq: u64) {
            let i = self.node(t, seq);
            self.w.push(&mut self.slab, i);
        }

        /// Push fresh slots for `seqs` at time `t`, one by one.
        fn push_run(&mut self, t: u64, seqs: std::ops::Range<u64>) {
            for seq in seqs {
                self.push(t, seq);
            }
        }

        fn peek(&mut self) -> Option<(u64, u64)> {
            self.w.ensure_front(&mut self.slab);
            self.w.peek().map(|i| self.key(i))
        }

        fn pop(&mut self) -> Option<(u64, u64)> {
            self.w.ensure_front(&mut self.slab);
            self.w.pop_front().map(|i| self.key(i))
        }

        fn key(&self, i: u32) -> (u64, u64) {
            let (t, seq) = key(&self.slab, i);
            (t.as_nanos(), seq)
        }

        /// Drain the wheel fully, returning (time, seq) pairs in pop order.
        fn drain(&mut self) -> Vec<(u64, u64)> {
            std::iter::from_fn(|| self.pop()).collect()
        }
    }

    /// Nanoseconds spanned by the window of `level` (`LEVELS` = the spill
    /// edge), measured from a consumed edge at zero.
    fn window(level: usize) -> u64 {
        (SLOTS as u64) << level_shift(level)
    }

    /// A time that, pushed into an empty wheel, lands in `level` (or the
    /// spill for `LEVELS`): halfway through that level's reach.
    fn inside(level: usize) -> u64 {
        match level {
            0 => window(0) / 2,
            l => (window(l - 1) + window(l)) / 2,
        }
    }

    /// The region an empty wheel places time `t` in: a level or the spill.
    fn region(t: u64) -> usize {
        (0..LEVELS).find(|&l| t < window(l)).unwrap_or(LEVELS)
    }

    #[test]
    fn pops_sorted_across_levels_and_spill() {
        let mut h = Harness::new();
        // One node per region: front-of-L0, then one inside each level
        // and the spill, all derived from the geometry.
        let mut times = vec![5u64];
        times.extend((0..=LEVELS).map(inside));
        for (l, &t) in times[1..].iter().enumerate() {
            assert_eq!(region(t), l, "{t} ns lands in region {l}");
        }
        for (i, &t) in times.iter().rev().enumerate() {
            h.push(t, i as u64);
        }
        // Every level and the spill hold exactly their node.
        let counts: Vec<usize> =
            h.w.levels
                .iter()
                .map(|lv| lv.occupied.iter().map(|w| w.count_ones() as usize).sum())
                .collect();
        assert_eq!(counts[0], 2, "front-of-L0 and deep L0");
        assert!(counts[1..].iter().all(|&c| c == 1), "{counts:?}");
        assert_eq!(h.w.spill.len(), 1);
        let got: Vec<u64> = h.drain().into_iter().map(|(t, _)| t).collect();
        let mut want = times.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn same_time_pops_in_seq_order_regardless_of_insert_order() {
        let mut h = Harness::new();
        let t = 777u64;
        // Insert with shuffled seqs; pop order must be by seq.
        for &s in &[4u64, 1, 3, 0, 2] {
            h.push(t, s);
        }
        let got: Vec<u64> = h.drain().into_iter().map(|(_, s)| s).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn interleaved_push_pop_is_totally_ordered() {
        // Mixed near/far pushes interleaved with pops; the output stream
        // must be non-decreasing in (time, seq) whenever the pushes never
        // go behind the last popped time.
        let mut h = Harness::new();
        let mut seq = 0u64;
        let mut rng = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut last = (0u64, 0u64);
        let mut pending = 0usize;
        for round in 0..2_000u64 {
            let base = last.0;
            for _ in 0..(next() % 4) {
                let spread = match next() % 10 {
                    0 => 2 * window(3), // spill-bound
                    1 => window(3),     // L3
                    2 => window(2),     // L2
                    3..=5 => window(1), // L1
                    _ => window(0),     // L0
                };
                h.push(base + next() % spread, seq);
                seq += 1;
                pending += 1;
            }
            if round % 3 != 0 {
                if let Some(k) = h.pop() {
                    assert!(k >= last, "order violated: {k:?} after {last:?}");
                    last = k;
                    pending -= 1;
                }
            }
        }
        let rest = h.drain();
        assert_eq!(rest.len(), pending);
        for k in rest {
            assert!(k >= last);
            last = k;
        }
    }

    #[test]
    fn same_time_runs_land_contiguously_in_fifo_order() {
        let mut h = Harness::new();
        h.push(100, 0);
        h.push(300, 1);
        // A run between them, plus a run into the sorted front after a
        // pop established a nonzero front_limit.
        h.push_run(200, 2..5);
        assert_eq!(h.pop().map(|(_, s)| s), Some(0));
        h.push_run(210, 5..7);
        assert_eq!(
            h.drain(),
            vec![(200, 2), (200, 3), (200, 4), (210, 5), (210, 6), (300, 1)]
        );
    }

    #[test]
    fn far_future_singleton_reanchors_without_scanning() {
        let mut h = Harness::new();
        h.push(10, 0);
        assert_eq!(h.pop().map(|(t, _)| t), Some(10));
        // An hour ahead: lands in spill, then the empty wheel re-anchors.
        let hour = 3_600_000_000_000u64;
        h.push(hour, 1);
        assert_eq!(h.peek().map(|(t, _)| t), Some(hour));
        // A nearer node scheduled after the re-anchor still pops first if
        // it precedes the spill node.
        h.push(hour - 32, 2);
        let got: Vec<u64> = h.drain().into_iter().map(|(_, s)| s).collect();
        assert_eq!(got, vec![2, 1]);
    }

    #[test]
    fn spill_migrates_as_the_edge_approaches() {
        let mut h = Harness::new();
        // Beyond the initial L3 window, by two and a half L2 buckets.
        let far = window(3) + 5 * (window(2) / SLOTS as u64) / 2;
        h.push(far, 0);
        assert_eq!(h.w.spill.len(), 1);
        // A steady stream of near nodes drags the consumed edge forward;
        // the spill node must fire at exactly its time, in order.
        let mut seq = 1u64;
        let mut t = 0u64;
        let mut popped = Vec::new();
        // Steps of a tenth of the L2 window keep each near node in L2.
        let step = window(2) / 10;
        while t < far + 1_000 {
            t += step;
            h.push(t, seq);
            seq += 1;
            popped.push(h.pop().unwrap().0);
        }
        let mut sorted = popped.clone();
        sorted.sort_unstable();
        assert_eq!(popped, sorted);
        assert!(popped.contains(&far), "spill node never fired");
        assert!(h.w.spill.is_empty());
    }

    #[test]
    fn stored_tracks_every_region() {
        let mut h = Harness::new();
        assert_eq!(h.w.stored(), 0);
        for region in 0..=LEVELS {
            h.push(inside(region), region as u64);
        }
        assert_eq!(h.w.stored(), 5);
        h.pop();
        assert_eq!(h.w.stored(), 4);
        assert_eq!(h.drain().len(), 4);
        assert_eq!(h.w.stored(), 0);
    }

    #[test]
    fn gallop_finds_every_partition_point() {
        // Every split of every front length up to a few brackets past the
        // 64-entry mark, against the linear answer.
        for len in 0..70u32 {
            let front: VecDeque<u32> = (0..len).collect();
            for split in 0..=len {
                assert_eq!(gallop(&front, |x| x < split), split as usize, "len {len}");
            }
        }
    }
}
