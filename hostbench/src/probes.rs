//! Per-layer probes: each times one module's public functions directly,
//! in a loop shaped like the workload that loads that module, and reports
//! wall nanoseconds per operation (median over repeats).

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration as Wall, Instant};

use hns_conn::{Conn, FlowTable};
use hns_core::figures::{INCAST_BUFFER_BYTES, INCAST_ECN_THRESHOLD};
use hns_mem::{DcaCache, FrameArena};
use hns_monitor::DdSketch;
use hns_nic::{Link, LinkConfig};
use hns_sched::Scheduler;
use hns_sim::event::EventToken;
use hns_sim::{EventQueue, HeapEventQueue, Histogram, SimRng, SimTime};
use hns_stack::gro::GroEngine;
use hns_stack::skb::{FragPool, RxSkb};
use hns_stack::{Fabric, FabricConfig};

use crate::stats::Summary;

/// One probe: `run(seed, ops)` builds its inputs from `seed`, performs
/// about `ops` operations and returns the wall time of the measured loop
/// with the number of operations it actually timed.
pub struct Probe {
    /// Metric name (`<layer>.<what>_ns`).
    pub name: &'static str,
    run: fn(u64, u64) -> (Wall, u64),
}

/// Every probe, in reporting order.
pub const PROBES: [Probe; 14] = [
    Probe {
        name: "sim.queue_near_ns",
        run: |s, n| queue_near(&mut EventQueue::new(), s, n),
    },
    Probe {
        name: "sim.heap_near_ns",
        run: |s, n| queue_near(&mut HeapEventQueue::new(), s, n),
    },
    Probe {
        name: "sim.queue_cancel_ns",
        run: |s, n| queue_cancel(&mut EventQueue::new(), s, n),
    },
    Probe {
        name: "sim.queue_spill_ns",
        run: |s, n| queue_spill(&mut EventQueue::new(), s, n),
    },
    Probe {
        name: "sim.heap_spill_ns",
        run: |s, n| queue_spill(&mut HeapEventQueue::new(), s, n),
    },
    Probe {
        name: "sim.hist_ns",
        run: hist_record,
    },
    Probe {
        name: "monitor.sketch_ns",
        run: sketch_record,
    },
    Probe {
        name: "stack.gro_offer_ns",
        run: gro_offer,
    },
    Probe {
        name: "stack.fabric_tx_ns",
        run: |s, n| fabric_tx(17, s, n),
    },
    Probe {
        name: "stack.fabric_tx2_ns",
        run: |s, n| fabric_tx(2, s, n),
    },
    Probe {
        name: "nic.link_tx_ns",
        run: link_tx,
    },
    Probe {
        name: "mem.dca_ns",
        run: dca_copy,
    },
    Probe {
        name: "sched.pick_ns",
        run: sched_pick,
    },
    Probe {
        name: "conn.table_ns",
        run: table_churn,
    },
];

impl Probe {
    /// Median ns per operation. One repeat is sized to about a twelfth of
    /// `budget`; repeats continue until `budget` is spent (at least three).
    /// `smoke` runs a single short repeat.
    pub fn measure(&self, seed: u64, budget: Wall, smoke: bool) -> f64 {
        let per_op = |(t, ops): (Wall, u64)| t.as_nanos() as f64 / ops.max(1) as f64;
        if smoke {
            return per_op((self.run)(seed, 512));
        }
        let deadline = Instant::now() + budget;
        let slice = budget / 12;
        let mut ops = 1024u64;
        let (mut t, _) = (self.run)(seed, ops);
        while t < slice / 8 && ops < 1 << 30 {
            ops *= 2;
            t = (self.run)(seed, ops).0;
        }
        ops = ((ops as f64 * slice.as_secs_f64() / t.as_secs_f64().max(1e-9)) as u64).max(1024);
        let mut samples = Vec::new();
        while samples.len() < 3 || Instant::now() < deadline {
            samples.push(per_op((self.run)(seed, ops)));
        }
        Summary::of(&samples).median
    }
}

/// Table size for seeded inputs (a power of two, indexed with `MASK`).
const TABLE: usize = 4096;
const MASK: usize = TABLE - 1;

/// `TABLE` draws in `lo..hi` from `seed`.
fn draws(seed: u64, lo: u64, hi: u64) -> Vec<u64> {
    let mut rng = SimRng::new(seed ^ 0xB0B0);
    (0..TABLE).map(|_| rng.range(lo, hi)).collect()
}

/// Payload of one 9000 B MTU frame, and its size on the wire.
const MSS: u32 = 8948;
const WIRE_BYTES: u64 = 9078;

/// The queue surface the probes drive, so one loop times both the timer
/// wheel and the reference heap.
trait QueueApi {
    fn schedule(&mut self, at: SimTime, v: u64) -> EventToken;
    fn cancel(&mut self, t: EventToken);
    fn pop(&mut self) -> Option<(SimTime, u64)>;
    fn now(&self) -> SimTime;
}

impl QueueApi for EventQueue<u64> {
    fn schedule(&mut self, at: SimTime, v: u64) -> EventToken {
        EventQueue::schedule(self, at, v)
    }
    fn cancel(&mut self, t: EventToken) {
        EventQueue::cancel(self, t)
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        EventQueue::pop(self)
    }
    fn now(&self) -> SimTime {
        EventQueue::now(self)
    }
}

impl QueueApi for HeapEventQueue<u64> {
    fn schedule(&mut self, at: SimTime, v: u64) -> EventToken {
        HeapEventQueue::schedule(self, at, v)
    }
    fn cancel(&mut self, t: EventToken) {
        HeapEventQueue::cancel(self, t)
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        HeapEventQueue::pop(self)
    }
    fn now(&self) -> SimTime {
        HeapEventQueue::now(self)
    }
}

fn after<Q: QueueApi>(q: &Q, ns: u64) -> SimTime {
    SimTime::from_nanos(q.now().as_nanos() + ns)
}

/// Schedule + pop with ~1k events pending at sub-µs horizons: the
/// per-frame timer traffic of every workload. One op = one pair.
fn queue_near<Q: QueueApi>(q: &mut Q, seed: u64, ops: u64) -> (Wall, u64) {
    let h = draws(seed, 1, 912);
    for (i, &at) in h.iter().take(1024).enumerate() {
        q.schedule(SimTime::from_nanos(at), i as u64);
    }
    let t0 = Instant::now();
    for i in 0..ops {
        q.schedule(after(q, h[i as usize & MASK]), i);
        black_box(q.pop());
    }
    (t0.elapsed(), ops)
}

/// Cancel-heavy churn: two schedules per pop, one cancelled at once and
/// an older one cancelled every other round, like the churn engine's
/// handshake timers. One op = one pop.
fn queue_cancel<Q: QueueApi>(q: &mut Q, seed: u64, ops: u64) -> (Wall, u64) {
    let h = draws(seed, 1, 912);
    let mut tokens: VecDeque<EventToken> = (0..512)
        .map(|i| q.schedule(SimTime::from_nanos(h[i]), i as u64))
        .collect();
    let t0 = Instant::now();
    for i in 0..ops {
        let keep = q.schedule(after(q, h[i as usize & MASK]), i);
        let kill = q.schedule(after(q, h[(i as usize + 7) & MASK]), i);
        q.cancel(kill);
        if i % 2 == 0 {
            if let Some(t) = tokens.pop_front() {
                q.cancel(t);
            }
        }
        tokens.push_back(keep);
        black_box(q.pop());
    }
    (t0.elapsed(), ops)
}

/// Near events mixed with timers in every wheel level and ≥34 s ahead,
/// then a full drain that fires the far ones. One op = one pop.
fn queue_spill<Q: QueueApi>(q: &mut Q, seed: u64, ops: u64) -> (Wall, u64) {
    let h = draws(seed, 0, 1000);
    let t0 = Instant::now();
    let mut popped = 0u64;
    for i in 0..ops {
        let j = h[i as usize & MASK];
        let ahead = if i % 61 == 0 {
            80_000_000_000 + j * 1_000_000 // spill list
        } else if i % 31 == 0 {
            2_000_000_000 + j * 10_000 // level 3
        } else if i % 13 == 0 {
            50_000_000 + j * 1_000 // level 2
        } else if i % 7 == 0 {
            200_000 + j * 10 // level 1
        } else {
            1 + j
        };
        q.schedule(after(q, ahead), i);
        popped += u64::from(q.pop().is_some());
    }
    while q.pop().is_some() {
        popped += 1;
    }
    (t0.elapsed(), popped)
}

/// Latency-like values spanning 1 ns to 16 ms.
fn latencies(seed: u64) -> Vec<u64> {
    let shift = draws(seed, 0, 24);
    let low = draws(seed ^ 1, 0, 1 << 24);
    shift
        .iter()
        .zip(&low)
        .map(|(&s, &l)| 1 + (l >> s))
        .collect()
}

/// `Histogram::record`, as the stage-latency and RPC histograms use it.
fn hist_record(seed: u64, ops: u64) -> (Wall, u64) {
    let v = latencies(seed);
    let mut h = Histogram::new();
    let t0 = Instant::now();
    for i in 0..ops {
        h.record(v[i as usize & MASK]);
    }
    black_box(&h);
    (t0.elapsed(), ops)
}

/// `DdSketch::record` at the monitor's α = 0.01.
fn sketch_record(seed: u64, ops: u64) -> (Wall, u64) {
    let v = latencies(seed);
    let mut s = DdSketch::new(0.01);
    let t0 = Instant::now();
    for i in 0..ops {
        s.record(v[i as usize & MASK]);
    }
    black_box(&s);
    (t0.elapsed(), ops)
}

/// One flow's MTU frames through `GroEngine::offer_into`, flushed with
/// `flush_all_into` every 64-frame NAPI batch, with a rare sequence gap;
/// includes the frame insert at DMA time and the consumer's release, as
/// in the softirq loop. One op = one frame.
fn gro_offer(seed: u64, ops: u64) -> (Wall, u64) {
    let gap = draws(seed, 0, 512);
    let mut arena = FrameArena::new();
    let mut pool = FragPool::new();
    let mut gro = GroEngine::new();
    let mut out = Vec::new();
    let mut seq = 0u64;
    let t0 = Instant::now();
    for i in 0..ops {
        if gap[i as usize & MASK] == 0 {
            seq += MSS as u64;
        }
        let f = arena.insert(MSS, 0);
        let skb = RxSkb::from_frame_pooled(&mut pool, 1, seq, MSS, f, SimTime::ZERO, false, false);
        seq += MSS as u64;
        gro.offer_into(skb, 64 * 1024, &mut pool, &mut out);
        if i % 64 == 63 {
            gro.flush_all_into(&mut out);
        }
        for skb in out.drain(..) {
            for &frame in &skb.frags {
                arena.release(frame);
            }
            pool.put(skb.frags);
        }
    }
    (t0.elapsed(), ops)
}

/// `Fabric::transmit` on the incast fabric (4 uplinks, 256 KiB shared
/// buffer, 64 KiB ECN threshold): every other host sends to host 1 in
/// turn at about line rate. One op = one frame.
fn fabric_tx(hosts: u16, seed: u64, ops: u64) -> (Wall, u64) {
    let jitter = draws(seed, 0, 200);
    let mut cfg = FabricConfig::neutral(hosts);
    cfg.uplinks = 4;
    cfg.buffer_bytes = INCAST_BUFFER_BYTES;
    cfg.ecn_threshold_bytes = Some(INCAST_ECN_THRESHOLD);
    let mut fabric = Fabric::new(cfg);
    let senders: Vec<usize> = (0..hosts as usize).filter(|&h| h != 1).collect();
    let mut now = 0u64;
    let t0 = Instant::now();
    for i in 0..ops {
        let src = senders[i as usize % senders.len()];
        let at = SimTime::from_nanos(now);
        black_box(fabric.transmit(src, 1, src as u64, at, WIRE_BYTES));
        now += 650 + jitter[i as usize & MASK];
    }
    (t0.elapsed(), ops)
}

/// `Link::transmit` for one flow: MTU data frames one way, ACKs back.
/// One op = one frame.
fn link_tx(seed: u64, ops: u64) -> (Wall, u64) {
    let jitter = draws(seed, 0, 100);
    let mut link = Link::new(LinkConfig::default(), seed);
    let mut now = 0u64;
    let t0 = Instant::now();
    for i in 0..ops {
        let (dir, bytes) = if i % 2 == 0 { (0, WIRE_BYTES) } else { (1, 78) };
        black_box(link.transmit(dir, SimTime::from_nanos(now), bytes));
        now += 330 + jitter[i as usize & MASK];
    }
    (t0.elapsed(), ops)
}

/// `DcaCache::insert` at DMA time and `probe_copy` 256 frames later
/// (~2.3 MB of lag, the single-flow copy distance), over a `FrameArena`.
/// One op = one frame.
fn dca_copy(seed: u64, ops: u64) -> (Wall, u64) {
    let mut arena = FrameArena::new();
    let mut dca = DcaCache::with_defaults(true, seed);
    let mut in_flight = VecDeque::new();
    for _ in 0..256 {
        let f = arena.insert(MSS, 0);
        dca.insert(&mut arena, f);
        in_flight.push_back(f);
    }
    let t0 = Instant::now();
    for _ in 0..ops {
        let f = arena.insert(MSS, 0);
        dca.insert(&mut arena, f);
        in_flight.push_back(f);
        let old = in_flight.pop_front().expect("256 frames in flight");
        black_box(dca.probe_copy(&arena, old));
        arena.release(old);
    }
    (t0.elapsed(), ops)
}

/// The incast receiver's scheduler: 16 pinned reader threads, each woken
/// in turn (`wake_thread`), dispatched (`pick`) and blocked again
/// (`step_done`), with softirqs raised on a quarter of the wakes.
/// One op = one wake and the dispatches it causes.
fn sched_pick(seed: u64, ops: u64) -> (Wall, u64) {
    let softirq = draws(seed, 0, 4);
    let mut s = Scheduler::new(24);
    let tids: Vec<u32> = (0..16).map(|core| s.add_thread(core)).collect();
    let t0 = Instant::now();
    for i in 0..ops {
        let tid = tids[i as usize % tids.len()];
        let core = s.thread_core(tid) as usize;
        if softirq[i as usize & MASK] == 0 {
            s.raise_softirq(core);
        }
        s.wake_thread(tid);
        while s.pick(core).is_some() {
            s.step_done(core, false);
        }
    }
    (t0.elapsed(), ops)
}

/// `FlowTable::install` + `remove` at a steady population of 1024
/// connections over the churn engine's 64 shards, oldest first.
/// One op = one install and one remove.
fn table_churn(seed: u64, ops: u64) -> (Wall, u64) {
    let cores = draws(seed, 0, 24);
    let mut table = FlowTable::new(64);
    let conn = |i: u64| {
        let c = cores[i as usize & MASK] as u16;
        Conn::new(c, c, SimTime::from_nanos(i))
    };
    let mut live: VecDeque<_> = (0..1024).map(|i| table.install(conn(i))).collect();
    let t0 = Instant::now();
    for i in 0..ops {
        let old = live.pop_front().expect("steady population");
        black_box(table.remove(old));
        live.push_back(table.install(conn(i)));
    }
    (t0.elapsed(), ops)
}
