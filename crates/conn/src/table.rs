//! Sharded, slab-backed flow table.
//!
//! The table is the million-connection workhorse: every live connection is
//! one compact [`Conn`] record in a slab slot, addressed by a
//! generation-stamped [`ConnId`]. Freed slots go on a per-shard freelist and
//! are reused LIFO, so steady-state churn allocates nothing — capacity
//! tracks the concurrency high-water mark, not the total number of
//! connections ever opened. Generations make stale ids harmless: a lookup
//! with an id whose slot has been recycled misses instead of aliasing the
//! new occupant (the same token discipline `hns-sim`'s event queue uses).
//!
//! Sharding mirrors the kernel's bucketed ehash: it bounds per-bucket scan
//! and lock cost in the real stack, and here it keeps slot indices small and
//! gives install a cheap round-robin balance. The shard is part of the id,
//! so lookups touch exactly one shard.

use crate::state::Conn;

/// Maximum number of shards (the shard index is packed into 8 bits).
pub const MAX_SHARDS: u16 = 256;

/// Maximum slots per shard (the slot index is packed into 24 bits).
pub const MAX_SLOTS_PER_SHARD: u32 = 1 << 24;

/// A generation-stamped handle to a table slot.
///
/// Packs into a `u64` (shard:8 | slot:24 | gen:32) so it can ride a wire
/// segment's `flow` field. A `ConnId` held after the connection is removed
/// simply misses on lookup — it can never alias a recycled slot because the
/// generation is bumped on every removal.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ConnId {
    shard: u16,
    slot: u32,
    generation: u32,
}

impl ConnId {
    /// Pack into a `u64` for transport inside a segment's flow field.
    #[inline]
    pub fn to_u64(self) -> u64 {
        ((self.shard as u64) << 56) | ((self.slot as u64) << 32) | self.generation as u64
    }

    /// Unpack from a `u64` produced by [`ConnId::to_u64`].
    #[inline]
    pub fn from_u64(raw: u64) -> Self {
        ConnId {
            shard: ((raw >> 56) & 0xff) as u16,
            slot: ((raw >> 32) & 0x00ff_ffff) as u32,
            generation: raw as u32,
        }
    }

    /// Shard index (for stats / tests).
    #[inline]
    pub fn shard(self) -> u16 {
        self.shard
    }
}

struct Slot {
    generation: u32,
    conn: Option<Conn>,
}

struct Shard {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

/// Sharded slab of live connections. See the module docs for the design.
pub struct FlowTable {
    shards: Vec<Shard>,
    len: usize,
    high_water: usize,
    installs: u64,
    reused_slots: u64,
    next_shard: usize,
}

impl FlowTable {
    /// Create a table with `shards` shards (clamped to `1..=MAX_SHARDS`).
    pub fn new(shards: u16) -> Self {
        let n = shards.clamp(1, MAX_SHARDS) as usize;
        FlowTable {
            shards: (0..n)
                .map(|_| Shard {
                    slots: Vec::new(),
                    free: Vec::new(),
                })
                .collect(),
            len: 0,
            high_water: 0,
            installs: 0,
            reused_slots: 0,
            next_shard: 0,
        }
    }

    /// Pre-size every shard's slab for `total` concurrent connections so a
    /// large pool install doesn't pay incremental `Vec` growth.
    pub fn reserve(&mut self, total: usize) {
        let per = total.div_ceil(self.shards.len());
        for sh in &mut self.shards {
            sh.slots.reserve(per.saturating_sub(sh.slots.len()));
        }
    }

    /// Install a connection, returning its id. Reuses a freed slot when one
    /// exists (the slab guarantee); otherwise grows the shard by one slot.
    ///
    /// # Panics
    /// Panics if a shard exceeds [`MAX_SLOTS_PER_SHARD`] (4G+ connections).
    pub fn install(&mut self, conn: Conn) -> ConnId {
        let si = self.next_shard;
        self.next_shard = (self.next_shard + 1) % self.shards.len();
        let shard = &mut self.shards[si];
        let slot_idx = match shard.free.pop() {
            Some(idx) => {
                self.reused_slots += 1;
                shard.slots[idx as usize].conn = Some(conn);
                idx
            }
            None => {
                let idx = shard.slots.len() as u32;
                assert!(idx < MAX_SLOTS_PER_SHARD, "flow table shard overflow");
                shard.slots.push(Slot {
                    generation: 0,
                    conn: Some(conn),
                });
                idx
            }
        };
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
        self.installs += 1;
        ConnId {
            shard: si as u16,
            slot: slot_idx,
            generation: shard.slots[slot_idx as usize].generation,
        }
    }

    #[inline]
    fn slot(&self, id: ConnId) -> Option<&Slot> {
        let s = self
            .shards
            .get(id.shard as usize)?
            .slots
            .get(id.slot as usize)?;
        (s.generation == id.generation).then_some(s)
    }

    /// Look up a live connection.
    #[inline]
    pub fn get(&self, id: ConnId) -> Option<&Conn> {
        self.slot(id).and_then(|s| s.conn.as_ref())
    }

    /// Mutable lookup of a live connection.
    #[inline]
    pub fn get_mut(&mut self, id: ConnId) -> Option<&mut Conn> {
        let s = self
            .shards
            .get_mut(id.shard as usize)?
            .slots
            .get_mut(id.slot as usize)?;
        if s.generation != id.generation {
            return None;
        }
        s.conn.as_mut()
    }

    /// Remove a connection, returning its record. The slot's generation is
    /// bumped (wrapping) and the slot joins the shard freelist, so `id` and
    /// any copies of it become permanently stale.
    pub fn remove(&mut self, id: ConnId) -> Option<Conn> {
        let s = self
            .shards
            .get_mut(id.shard as usize)?
            .slots
            .get_mut(id.slot as usize)?;
        if s.generation != id.generation {
            return None;
        }
        let conn = s.conn.take()?;
        s.generation = s.generation.wrapping_add(1);
        self.shards[id.shard as usize].free.push(id.slot);
        self.len -= 1;
        Some(conn)
    }

    /// Number of live connections.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no connections are live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slots ever allocated across all shards. Under slab reuse this
    /// tracks the concurrency high-water mark, not total installs — the
    /// flat-memory property the million-connection acceptance test asserts.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.slots.len()).sum()
    }

    /// Highest number of simultaneously live connections observed.
    #[inline]
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total installs over the table's lifetime.
    #[inline]
    pub fn installs(&self) -> u64 {
        self.installs
    }

    /// Installs that reused a freed slot instead of growing a shard.
    #[inline]
    pub fn reused_slots(&self) -> u64 {
        self.reused_slots
    }

    /// Iterate live connections in deterministic (shard, slot) order.
    pub fn iter(&self) -> impl Iterator<Item = (ConnId, &Conn)> + '_ {
        self.shards.iter().enumerate().flat_map(|(si, sh)| {
            sh.slots.iter().enumerate().filter_map(move |(qi, s)| {
                s.conn.as_ref().map(|c| {
                    (
                        ConnId {
                            shard: si as u16,
                            slot: qi as u32,
                            generation: s.generation,
                        },
                        c,
                    )
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{Conn, HalfConn};
    use hns_sim::SimTime;

    fn conn(core: u16) -> Conn {
        let mut c = Conn::new(core, core, SimTime::ZERO);
        c.client = HalfConn::SynSent;
        c
    }

    #[test]
    fn slot_stays_compact() {
        // A slot is the record plus its generation: the table's per-
        // connection footprint at the million-connection scale.
        assert!(
            std::mem::size_of::<Slot>() <= 48,
            "a flow-table slot is {} bytes; keep it <= 48",
            std::mem::size_of::<Slot>()
        );
    }

    #[test]
    fn id_packs_and_unpacks() {
        let id = ConnId {
            shard: 255,
            slot: 0x00ab_cdef,
            generation: u32::MAX,
        };
        assert_eq!(ConnId::from_u64(id.to_u64()), id);
        let id0 = ConnId {
            shard: 0,
            slot: 0,
            generation: 0,
        };
        assert_eq!(ConnId::from_u64(id0.to_u64()), id0);
    }

    #[test]
    fn install_get_remove_round_trip() {
        let mut t = FlowTable::new(4);
        let id = t.install(conn(3));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(id).unwrap().client_core, 3);
        t.get_mut(id).unwrap().client_core = 7;
        let c = t.remove(id).unwrap();
        assert_eq!(c.client_core, 7);
        assert_eq!(t.len(), 0);
        assert!(t.get(id).is_none());
        assert!(t.remove(id).is_none(), "double remove misses");
    }

    #[test]
    fn stale_id_never_aliases_recycled_slot() {
        let mut t = FlowTable::new(1);
        let id1 = t.install(conn(1));
        t.remove(id1).unwrap();
        let id2 = t.install(conn(2));
        // Same physical slot, different generation.
        assert_eq!(id1.slot, id2.slot);
        assert_ne!(id1.generation, id2.generation);
        assert!(t.get(id1).is_none(), "stale id must miss");
        assert_eq!(t.get(id2).unwrap().client_core, 2);
    }

    #[test]
    fn churn_keeps_capacity_flat() {
        let mut t = FlowTable::new(8);
        // 100k connections churned through with at most 64 concurrent.
        let mut live = Vec::new();
        for i in 0..100_000u32 {
            live.push(t.install(conn((i % 13) as u16)));
            if live.len() > 64 {
                let id = live.remove(0);
                t.remove(id).unwrap();
            }
        }
        for id in live {
            t.remove(id).unwrap();
        }
        assert_eq!(t.len(), 0);
        assert!(
            t.capacity() <= 80,
            "capacity {} should track concurrency (~65), not installs (100k)",
            t.capacity()
        );
        assert_eq!(t.installs(), 100_000);
        assert!(t.reused_slots() > 99_000);
        assert!(t.high_water() <= 65);
    }

    #[test]
    fn million_concurrent_installs() {
        let mut t = FlowTable::new(64);
        t.reserve(1_000_000);
        let ids: Vec<ConnId> = (0..1_000_000).map(|i| t.install(conn(i as u16))).collect();
        assert_eq!(t.len(), 1_000_000);
        assert_eq!(t.capacity(), 1_000_000);
        // Close and reopen half: capacity must not grow.
        for id in &ids[..500_000] {
            t.remove(*id).unwrap();
        }
        for i in 0..500_000 {
            t.install(conn(i as u16));
        }
        assert_eq!(t.len(), 1_000_000);
        assert_eq!(t.capacity(), 1_000_000, "slab reuse keeps memory flat");
        assert_eq!(t.reused_slots(), 500_000);
    }

    #[test]
    fn round_robin_balances_shards() {
        let mut t = FlowTable::new(16);
        for i in 0..1600 {
            t.install(conn(i as u16));
        }
        // Perfectly balanced round-robin: every shard has exactly 100 slots.
        for sh in &t.shards {
            assert_eq!(sh.slots.len(), 100);
        }
    }

    #[test]
    fn iter_is_deterministic_and_complete() {
        let mut t = FlowTable::new(4);
        let a = t.install(conn(1));
        let b = t.install(conn(2));
        let c = t.install(conn(3));
        t.remove(b).unwrap();
        let seen: Vec<ConnId> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(seen, vec![a, c]);
    }
}
