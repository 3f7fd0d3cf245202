//! Frame arena: the set of DMA buffers currently holding received data.
//!
//! Every frame the NIC DMAs is registered here at reception and released
//! when the application has copied its payload and the skb is freed. The
//! arena is a generational slab: [`FrameId`]s are cheap `Copy` handles and
//! stale handles (freed and reused slots) are detected by generation
//! mismatch — important because the DCA cache holds frame references that
//! may outlive the frame.

use crate::numa::NodeId;

/// Handle to a frame buffer in a [`FrameArena`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FrameId {
    index: u32,
    generation: u32,
}

/// [`Slot::dca_mark`] of a frame never DDIO-inserted.
const NO_MARK: u64 = u64::MAX;

/// One DMA buffer in 16 B: a live window holds one per frame between the
/// DMA and the application's copy.
#[derive(Clone, Debug)]
struct Slot {
    /// DMA-clock stamp from the DCA model, [`NO_MARK`] if never
    /// DDIO-inserted.
    dca_mark: u64,
    generation: u32,
    /// Payload bytes held by this frame (below 64 KiB: an MTU frame is at
    /// most 9000).
    bytes: u16,
    /// NUMA node of the backing memory.
    node: NodeId,
    live: bool,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 16);

/// Generational slab of live DMA frames.
#[derive(Default, Debug)]
pub struct FrameArena {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live_count: usize,
}

impl FrameArena {
    /// Empty arena.
    pub fn new() -> Self {
        FrameArena::default()
    }

    /// Register a new frame of `bytes` backed by memory on `node`.
    /// Residency starts false; the DCA model flips it on insert. Panics on
    /// a buffer of 64 KiB or more, which no frame of an MTU up to 9000
    /// reaches.
    pub fn insert(&mut self, bytes: u32, node: NodeId) -> FrameId {
        let Ok(bytes) = u16::try_from(bytes) else {
            panic!("a {bytes} B DMA buffer: frames stay below 64 KiB");
        };
        self.live_count += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            slot.live = true;
            slot.bytes = bytes;
            slot.node = node;
            slot.dca_mark = NO_MARK;
            FrameId {
                index,
                generation: slot.generation,
            }
        } else {
            let index = self.slots.len() as u32;
            self.slots.push(Slot {
                dca_mark: NO_MARK,
                generation: 0,
                bytes,
                node,
                live: true,
            });
            FrameId {
                index,
                generation: 0,
            }
        }
    }

    /// Release a frame (skb freed after data copy). Returns its byte count.
    /// Stale ids are a logic error.
    pub fn release(&mut self, id: FrameId) -> u64 {
        let slot = &mut self.slots[id.index as usize];
        assert!(slot.live && slot.generation == id.generation, "double free");
        slot.live = false;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(id.index);
        self.live_count -= 1;
        slot.bytes as u64
    }

    /// DMA-clock stamp of a live, DDIO-inserted frame.
    pub fn dca_mark(&self, id: FrameId) -> Option<u64> {
        let slot = &self.slots[id.index as usize];
        (slot.live && slot.generation == id.generation && slot.dca_mark != NO_MARK)
            .then_some(slot.dca_mark)
    }

    /// Stamp a frame as DDIO-inserted at DMA-clock `mark` (a byte count,
    /// below `u64::MAX`). Stale ids are ignored.
    pub fn set_dca_inserted(&mut self, id: FrameId, mark: u64) {
        debug_assert_ne!(mark, NO_MARK, "the DMA clock wrapped");
        let slot = &mut self.slots[id.index as usize];
        if slot.live && slot.generation == id.generation {
            slot.dca_mark = mark;
        }
    }

    /// Payload bytes of a live frame (0 for stale ids).
    pub fn bytes(&self, id: FrameId) -> u64 {
        let slot = &self.slots[id.index as usize];
        if slot.live && slot.generation == id.generation {
            slot.bytes as u64
        } else {
            0
        }
    }

    /// NUMA node of the frame's backing memory.
    pub fn node(&self, id: FrameId) -> NodeId {
        self.slots[id.index as usize].node
    }

    /// Number of live frames (for invariant checks).
    pub fn live_count(&self) -> usize {
        self.live_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_release_cycle() {
        let mut a = FrameArena::new();
        let f = a.insert(9000, 0);
        assert_eq!(a.bytes(f), 9000);
        assert_eq!(a.live_count(), 1);
        assert_eq!(a.release(f), 9000);
        assert_eq!(a.bytes(f), 0, "a released handle holds nothing");
        assert_eq!(a.live_count(), 0);
    }

    #[test]
    fn dca_mark_round_trip() {
        let mut a = FrameArena::new();
        let f = a.insert(1500, 0);
        assert_eq!(a.dca_mark(f), None);
        a.set_dca_inserted(f, 12345);
        assert_eq!(a.dca_mark(f), Some(12345));
        a.release(f);
        assert_eq!(a.dca_mark(f), None, "stale handle has no mark");
    }

    #[test]
    fn stale_handle_detected() {
        let mut a = FrameArena::new();
        let f = a.insert(100, 1);
        a.release(f);
        let g = a.insert(200, 2);
        // g reuses f's slot but with a bumped generation.
        assert_eq!(g.index, f.index);
        assert_eq!(a.bytes(f), 0);
        assert_eq!(a.bytes(g), 200);
        // Stale mark writes are ignored.
        a.set_dca_inserted(f, 7);
        assert_eq!(a.dca_mark(g), None);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = FrameArena::new();
        let f = a.insert(100, 0);
        a.release(f);
        a.release(f);
    }

    #[test]
    fn slot_reuse_keeps_arena_small() {
        let mut a = FrameArena::new();
        for _ in 0..1000 {
            let f = a.insert(1500, 0);
            a.release(f);
        }
        assert_eq!(a.slots.len(), 1);
    }

    #[test]
    #[should_panic(expected = "a 65536 B DMA buffer")]
    fn refuses_a_64_kib_buffer() {
        let mut a = FrameArena::new();
        a.insert(u16::MAX as u32, 0);
        a.insert(65_536, 0);
    }

    #[test]
    fn node_recorded() {
        let mut a = FrameArena::new();
        let f = a.insert(64, 3);
        assert_eq!(a.node(f), 3);
    }
}
