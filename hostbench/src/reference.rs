//! Reference kernel: a fixed piece of work timed next to every simulated
//! run, so the end-to-end times can be divided by how fast the host was
//! at that moment.
//!
//! The benchmark shares a few cores of a host with other tenants. Their
//! load changes how fast the same code runs by 20–40% over seconds to
//! minutes, and it hits cache-bound code (like the simulator) much harder
//! than arithmetic or DRAM-bound loops. This kernel is shaped like the
//! simulator's inner loop — pop the earliest of ~1k 112-byte events, look
//! a key up in a hash table, copy a small slice of a frame buffer, schedule
//! a follow-up event — over an L2-sized working set, so it slows down with
//! the simulator. It lives in the benchmark and never changes with the
//! program, so a faster simulator still shows as a smaller ratio.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Loop iterations in one timing of the kernel (about 60 ms on a 2.1 GHz
/// Xeon when the host is quiet).
const OPS: u64 = 300_000;

/// Nominal seconds of one kernel timing: the quiet-host figure above, used
/// to express calibrated times in seconds.
pub const NOMINAL_S: f64 = 0.06;

/// Events pending in the kernel's queue.
const PENDING: u64 = 1024;
/// Frame buffer the kernel copies within.
const FRAME_BYTES: usize = 256 << 10;
/// Keys live in `0..KEY_SPACE`; the table is pruned past `TABLE_MAX`.
const KEY_SPACE: u64 = 1 << 17;
const TABLE_MAX: usize = 8192;

/// An event the size of the simulator's: a time, a sequence number and a
/// payload.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    at: Reverse<u64>,
    seq: u64,
    payload: [u64; 12],
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Wall seconds of one run of the kernel. The work is the same on every
/// call: no randomness beyond a fixed-seed generator and a fixed hasher.
pub fn time() -> f64 {
    let t0 = Instant::now();
    black_box(kernel(OPS));
    t0.elapsed().as_secs_f64()
}

fn kernel(ops: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for k in 0..TABLE_MAX as u64 / 2 {
        table.insert(k.wrapping_mul(2_654_435_761) % KEY_SPACE, k);
    }
    let mut frames = vec![0u8; FRAME_BYTES];
    let mut queue = BinaryHeap::with_capacity(2 * PENDING as usize);
    for seq in 0..PENDING {
        let at = Reverse(xorshift(&mut x) % 10_000);
        queue.push(Event {
            at,
            seq,
            payload: [seq; 12],
        });
    }
    let (mut seq, mut acc) = (PENDING, 0u64);
    for _ in 0..ops {
        let Some(ev) = queue.pop() else { break };
        let key = (ev.payload[3] ^ xorshift(&mut x)) % KEY_SPACE;
        *table.entry(key).or_insert(0) += 1;
        acc = acc.wrapping_add(table.get(&(key ^ 1)).copied().unwrap_or(0));
        let dst = xorshift(&mut x) as usize % (FRAME_BYTES - 256);
        let src = dst.wrapping_mul(7) % (FRAME_BYTES - 256);
        frames.copy_within(src..src + 256, dst);
        let at = Reverse(ev.at.0 + 1 + xorshift(&mut x) % 5_000);
        queue.push(Event {
            at,
            seq,
            payload: [acc; 12],
        });
        seq += 1;
        if table.len() > TABLE_MAX {
            // Age the counts: halve each and drop the keys that reach 0.
            table.retain(|_, v| {
                *v >>= 1;
                *v > 0
            });
        }
    }
    acc ^ u64::from(frames[FRAME_BYTES / 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_does_the_same_work_every_time() {
        assert_eq!(kernel(20_000), kernel(20_000));
    }
}
