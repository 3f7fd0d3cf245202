//! ToR switch fabric: N hosts behind a shared-buffer switch — the world's
//! one wire.
//!
//! The paper's testbed is two hosts on a cable; incast (§4.3) needs many
//! senders converging on one receiver. This module models a single
//! top-of-rack switch that covers both: every source host serializes
//! frames onto its own **ingress** wire at line rate (that clock is what
//! gates the host's transmit loop), every destination hangs off its own
//! egress **port** (a serializing clock), all queues draw on one **shared
//! buffer** (frames that would push total occupancy past the buffer are
//! dropped and charged to the `switch_buffer` taxonomy class), and an
//! optional bank of **uplinks** adds a second serialization stage chosen
//! by deterministic ECMP hashing of the flow id (no RNG, so parallel
//! sweeps stay byte-identical at any `--jobs` count).
//!
//! The ingress/egress split is what makes incast *possible*: a source is
//! paced only by its own NIC, so `n` senders can legally offer `n` ×
//! line-rate into one egress port, and the difference accumulates in the
//! port queue until the shared buffer overflows — the switch never
//! back-pressures the hosts, it drops, exactly like a real shallow-buffer
//! ToR.
//!
//! ECN marking is depth-based (DCTCP-style "K" threshold): a frame is
//! CE-marked when the egress port already holds at least
//! `ecn_threshold_bytes` of queued frames the moment it is offered.
//!
//! Admission needs the shared buffer's occupancy on every frame. The
//! fabric keeps one bitset of ports and one of uplinks that may hold a
//! backlog and sums only those, dropping a port or uplink from its set
//! once it has drained, so a frame's cost grows with the queues actually
//! building, not with the rack size. An infinite buffer (the neutral
//! fabric's) admits every frame, so `transmit` skips the sum altogether,
//! and the depth behind an ECN mark is computed only when a threshold is
//! set.
//!
//! Rate, propagation and in-network faults come from a [`LinkConfig`]:
//! each egress port runs one loss process of a shared [`WireFaults`]
//! (the §3.6 loss sweep, bursty loss, flaps and latency spikes), stepped
//! after the port clock advances, so a lost frame still occupies the wire
//! while a frame the shared buffer refused makes no loss draw.
//!
//! **Identity guarantee:** with two hosts, no uplinks, an infinite buffer
//! and marking off, port `dst` carries exactly the frames of cable
//! direction `1 - dst`, so the fabric is frame-for-frame identical to the
//! two-port [`hns_nic::link::Link`] with the same `LinkConfig` and seed,
//! faults and RNG draw order included. That is what lets
//! `SimConfig::fabric: None` build [`FabricConfig::neutral`]`(2)` as the
//! paper's cable.

use hns_nic::link::{LinkConfig, TransmitOutcome, WireFaults};
use hns_sim::{Duration, SimTime};

/// Most hosts a fabric (and so a world) can hold: events pack the host
/// index into a `u8`.
pub const MAX_HOSTS: u16 = 256;

/// Words of the fabric's busy-port bitset: one bit per possible port.
const BUSY_WORDS: usize = MAX_HOSTS as usize / 64;

/// Words of the fabric's busy-uplink bitset: one bit per possible uplink
/// ([`FabricConfig::uplinks`] is a `u8`).
const UPLINK_WORDS: usize = (u8::MAX as usize + 1) / 64;

/// Wire sizes whose serialization time the fabric memoizes. On
/// `single_long` at seed 1, 4 sizes miss on 4.4% of frames, where 2 miss
/// on 19% and 8 still miss on 3.7%.
const SER_MEMO: usize = 4;

/// ToR fabric parameters. `Copy` so [`crate::SimConfig`] stays `Copy`.
/// The ports' rate, propagation and faults are the world's
/// [`crate::SimConfig::link`].
#[derive(Clone, Copy, Debug)]
pub struct FabricConfig {
    /// Number of hosts on the rack (ports on the switch), in
    /// `2..=MAX_HOSTS`.
    pub hosts: u16,
    /// ECMP uplink count. Zero (the default) models a single-switch rack
    /// with no core hop: frames serialize only at the egress port, which
    /// is required for the 2-host identity with the cable.
    pub uplinks: u8,
    /// Shared egress buffer in bytes. A frame whose admission would push
    /// the summed occupancy of every port past this is dropped
    /// (`switch_buffer` class). `u64::MAX` means never drop.
    pub buffer_bytes: u64,
    /// CE-mark frames offered to a port already holding at least this many
    /// queued bytes (`None` disables marking).
    pub ecn_threshold_bytes: Option<u64>,
}

impl FabricConfig {
    /// A fabric that is provably indistinguishable from the two-port cable
    /// for `hosts` hosts: no uplink stage, infinite shared buffer, marking
    /// off.
    pub fn neutral(hosts: u16) -> Self {
        FabricConfig {
            hosts,
            uplinks: 0,
            buffer_bytes: u64::MAX,
            ecn_threshold_bytes: None,
        }
    }
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig::neutral(2)
    }
}

/// One egress port: a serializing resource, like one cable direction.
#[derive(Debug, Default)]
struct Port {
    busy_until: SimTime,
    frames: u64,
    /// Frames the shared buffer refused.
    refused: u64,
    /// Frames lost in-network after serializing.
    lost: u64,
}

/// The switch itself.
#[derive(Debug)]
pub struct Fabric {
    config: FabricConfig,
    /// Port rate and propagation.
    link: LinkConfig,
    /// Port `dst`'s loss process is the fault plan's port `dst`.
    faults: WireFaults,
    /// Egress port toward each host (indexed by destination host).
    ports: Vec<Port>,
    /// Ports that may hold a backlog: bit `p % 64` of word `p / 64` is set
    /// when port `p` serializes a frame and cleared by the first
    /// occupancy sum in [`Fabric::transmit`] that finds the port drained.
    /// Every port with `busy_until` past the latest `transmit`'s `now` has
    /// its bit set, so the occupancy sum visits only these.
    busy: [u64; BUSY_WORDS],
    /// `now` of the latest [`Fabric::transmit`]; never decreases.
    clock: SimTime,
    /// ECMP uplink serialization clocks (empty when `uplinks == 0`).
    uplinks: Vec<SimTime>,
    /// Uplinks that may hold a backlog, kept like `busy`: set when an
    /// uplink serializes a frame, cleared once it has drained.
    busy_uplinks: [u64; UPLINK_WORDS],
    /// Per-source ingress wire (host NIC → switch): the only clock that
    /// gates a host's transmit loop. With two hosts source `h` and port
    /// `1 - h` carry exactly the same frames at the same times, so this
    /// equals the cable's per-direction `next_free`.
    ingress: Vec<SimTime>,
    /// The serialization times of the last [`SER_MEMO`] distinct wire
    /// sizes transmitted, most recently used first. The rate is fixed, and
    /// most frames repeat a few sizes (a full segment, an ACK, a write's
    /// tail), so they read their time here instead of dividing
    /// ([`Fabric::serialization`]).
    ser_memo: [(u64, Duration); SER_MEMO],
}

/// Bytes a port backlog of `depth` represents at `gbps` (inverse of
/// [`Duration::for_bytes_at_gbps`]).
fn backlog_bytes(depth: Duration, gbps: f64) -> u64 {
    (depth.as_nanos() as f64 * gbps / 8.0) as u64
}

/// The summed backlog at `now` of every serializing clock whose bit is set
/// in `busy` (bit `i % 64` of word `i / 64` for clock `i`, which frees up
/// at `until(i)`), clearing the bits of clocks that have drained. A
/// drained clock's term is exactly 0, so leaving it out is exact.
fn busy_backlog(
    busy: &mut [u64],
    until: impl Fn(usize) -> SimTime,
    now: SimTime,
    gbps: f64,
) -> u64 {
    let mut total = 0;
    for (w, word) in busy.iter_mut().enumerate() {
        let mut bits = *word;
        while bits != 0 {
            let b = bits.trailing_zeros();
            bits &= bits - 1;
            let until = until(w * 64 + b as usize);
            if until <= now {
                *word &= !(1 << b);
            } else {
                total += backlog_bytes(until.since(now), gbps);
            }
        }
    }
    total
}

impl Fabric {
    /// Build a fault-free fabric at the default link rate and propagation.
    /// Panics on fewer than two hosts or more than [`MAX_HOSTS`], like
    /// [`Fabric::with_link`].
    pub fn new(config: FabricConfig) -> Self {
        Fabric::with_link(config, LinkConfig::default(), 0)
    }

    /// Build a fabric whose ports run at `link`'s rate and propagation and
    /// suffer its faults, drawn from `seed`. Panics on fewer than two
    /// hosts — a rack of one has no wire to model — or more than
    /// [`MAX_HOSTS`]. `SimConfig::validate` reports a bad size as a run
    /// error, and `World::new` clamps the host count before building.
    pub fn with_link(config: FabricConfig, link: LinkConfig, seed: u64) -> Self {
        assert!(config.hosts >= 2, "a fabric needs at least two hosts");
        assert!(
            config.hosts <= MAX_HOSTS,
            "host indices must fit the event encoding (max {MAX_HOSTS} hosts)"
        );
        let n = config.hosts as usize;
        Fabric {
            link,
            faults: WireFaults::new(&link, n, seed),
            ports: (0..n).map(|_| Port::default()).collect(),
            busy: [0; BUSY_WORDS],
            clock: SimTime::ZERO,
            uplinks: vec![SimTime::ZERO; config.uplinks as usize],
            busy_uplinks: [0; UPLINK_WORDS],
            ingress: vec![SimTime::ZERO; n],
            ser_memo: [(0, Duration::for_bytes_at_gbps(0, link.gbps)); SER_MEMO],
            config,
        }
    }

    /// [`Duration::for_bytes_at_gbps`] of `wire_bytes` at the port rate,
    /// read from the memo when it holds this size. A miss evicts the least
    /// recently used size.
    fn serialization(&mut self, wire_bytes: u64) -> Duration {
        let memo = &mut self.ser_memo;
        let (i, ser) = match memo.iter().position(|&(b, _)| b == wire_bytes) {
            Some(i) => (i, memo[i].1),
            None => {
                let ser = Duration::for_bytes_at_gbps(wire_bytes, self.link.gbps);
                (SER_MEMO - 1, ser)
            }
        };
        // Move to the front, shifting the more recent sizes down one (a
        // loop of at most three moves, where `rotate_right` is a call).
        for j in (0..i).rev() {
            memo[j + 1] = memo[j];
        }
        memo[0] = (wire_bytes, ser);
        ser
    }

    /// Deterministic ECMP: which uplink carries `flow`. Fibonacci hashing
    /// on the flow id — stable across runs, processes and job counts. The
    /// hash's top 32 bits and the uplink count (a `u8`) both fit a `u32`,
    /// so the reduction runs in `u32`.
    pub fn ecmp_uplink(&self, flow: u64) -> usize {
        debug_assert!(!self.uplinks.is_empty());
        let h = (flow.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32;
        (h % self.uplinks.len() as u32) as usize
    }

    /// The occupancy at `now` (total queued bytes across every egress port
    /// and uplink: the shared buffer's occupancy), and the busy-port and
    /// busy-uplink sets with every port and uplink that has drained by
    /// `now` removed. Each term is an integer, so the sum is exact in any
    /// order. `now` must be no earlier than the latest
    /// [`Fabric::transmit`]'s.
    fn backlog(&self, now: SimTime) -> (u64, [u64; BUSY_WORDS], [u64; UPLINK_WORDS]) {
        debug_assert!(now >= self.clock, "fabric time went backwards");
        let gbps = self.link.gbps;
        let mut ports = self.busy;
        let mut uplinks = self.busy_uplinks;
        let total = busy_backlog(
            &mut ports[..self.ports.len().div_ceil(64)],
            |p| self.ports[p].busy_until,
            now,
            gbps,
        ) + busy_backlog(
            &mut uplinks[..self.uplinks.len().div_ceil(64)],
            |u| self.uplinks[u],
            now,
            gbps,
        );
        (total, ports, uplinks)
    }

    /// Offer a frame of `wire_bytes` from host `src` to host `dst` on
    /// behalf of `flow` (the ECMP key). Serialization starts when the
    /// egress port frees up, the frame arrives `propagation` after it
    /// finishes, and callers gate their transmit loops on
    /// [`Fabric::next_free`].
    ///
    /// `now` must never decrease from one call to the next (the world's
    /// event clock guarantees it): the occupancy sum forgets a port once
    /// it has drained by `now`, which is only safe if no later frame can
    /// be offered at an earlier time.
    pub fn transmit(
        &mut self,
        src: usize,
        dst: usize,
        flow: u64,
        now: SimTime,
        wire_bytes: u64,
    ) -> TransmitOutcome {
        debug_assert_ne!(src, dst, "a host cannot transmit to itself");
        debug_assert!(now >= self.clock, "fabric time went backwards");
        self.clock = now;
        let ser = self.serialization(wire_bytes);

        // The frame crosses the source's own wire whatever the switch does
        // with it afterwards — a congested egress port does not slow the
        // sender down, it drops the sender's frames.
        self.ingress[src] = self.ingress[src].max(now) + ser;

        self.ports[dst].frames += 1;

        // Shared-buffer admission: a refused frame consumed its ingress
        // wire time but never occupied the switch, so no switch clock
        // advances and no loss is drawn. An infinite buffer refuses
        // nothing, so it skips the occupancy sum and its busy sets stay
        // supersets of the queues that hold a backlog.
        if self.config.buffer_bytes != u64::MAX {
            let (occ, busy, busy_uplinks) = self.backlog(now);
            self.busy = busy;
            self.busy_uplinks = busy_uplinks;
            if occ.saturating_add(wire_bytes) > self.config.buffer_bytes {
                self.ports[dst].refused += 1;
                return TransmitOutcome::Dropped;
            }
        }

        // Depth-based CE mark, judged on the egress queue as the frame is
        // offered (the DCTCP "K" rule).
        let ce = match self.config.ecn_threshold_bytes {
            Some(k) => backlog_bytes(self.ports[dst].busy_until.since(now), self.link.gbps) >= k,
            None => false,
        };

        // Optional ECMP uplink hop: the frame first serializes on its
        // hashed uplink, then on the egress port once both are free.
        let mut available = now;
        if !self.uplinks.is_empty() {
            let u = self.ecmp_uplink(flow);
            let up_start = self.uplinks[u].max(now);
            self.uplinks[u] = up_start + ser;
            self.busy_uplinks[u / 64] |= 1 << (u % 64);
            available = self.uplinks[u];
        }

        let p = &mut self.ports[dst];
        p.busy_until = p.busy_until.max(available) + ser;
        self.busy[dst / 64] |= 1 << (dst % 64);

        match self.faults.fate(dst, now) {
            None => {
                p.lost += 1;
                TransmitOutcome::Lost
            }
            Some(extra) => TransmitOutcome::Delivered {
                arrives: p.busy_until + self.link.propagation + extra,
                ce,
            },
        }
    }

    /// Earliest time host `src` can begin serializing a new frame: when
    /// its own ingress wire frees up. Equals the cable's per-direction
    /// gate at two hosts (ingress `h` and port `1 - h` carry the same
    /// frames).
    pub fn next_free(&self, src: usize) -> SimTime {
        self.ingress[src]
    }

    /// Frames offered toward host `dst` (delivered and dropped alike).
    pub fn frames_to(&self, dst: usize) -> u64 {
        self.ports[dst].frames
    }

    /// Frames that never reached host `dst`: refused by the shared buffer
    /// or lost in-network.
    pub fn drops_to(&self, dst: usize) -> u64 {
        self.ports[dst].refused + self.ports[dst].lost
    }

    /// Frames offered toward every host.
    pub fn frames(&self) -> u64 {
        self.ports.iter().map(|p| p.frames).sum()
    }

    /// Shared-buffer refusals summed over every port (`switch_buffer`).
    pub fn switch_drops(&self) -> u64 {
        self.ports.iter().map(|p| p.refused).sum()
    }

    /// In-network losses summed over every port (`wire`).
    pub fn loss_drops(&self) -> u64 {
        self.ports.iter().map(|p| p.lost).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hns_faults::{LatencySpike, LossModel, PhaseSchedule};
    use hns_nic::link::Link;

    fn neutral() -> Fabric {
        Fabric::new(FabricConfig::neutral(2))
    }

    /// The identity the goldens rest on: a neutral 2-host fabric times
    /// frames exactly like the two-port cable with the same link config,
    /// faults and RNG draw order included.
    #[test]
    fn two_host_neutral_fabric_matches_link() {
        let window = |start_us, len_us| {
            PhaseSchedule::once(
                Duration::from_micros(start_us),
                Duration::from_micros(len_us),
            )
        };
        let faulted = LinkConfig {
            loss: LossModel::bursty(0.02, 4.0),
            flap: Some(window(300, 100)),
            latency_spike: Some(LatencySpike {
                window: window(1_000, 300),
                extra: Duration::from_micros(30),
            }),
            ..LinkConfig::default()
        };
        for (name, link) in [("default", LinkConfig::default()), ("faulted", faulted)] {
            let mut f = Fabric::with_link(FabricConfig::neutral(2), link, 7);
            let mut l = Link::new(link, 7);
            let mut lost = 0;
            let mut spiked = 0;
            // Two data frames one way, then an ACK back, every 500 ns for
            // 2 ms: across the flap and the spike, with a standing queue.
            for i in 0..4_000u64 {
                let src = usize::from(i % 3 == 2);
                let bytes = if src == 0 { 9078 } else { 78 };
                let now = SimTime::from_nanos(i * 500);
                let a = f.transmit(src, 1 - src, 42, now, bytes);
                let b = l.transmit(src, now, bytes);
                assert_eq!(a, b, "{name}: frame {i}");
                assert_eq!(f.next_free(src), l.next_free(src), "{name}: frame {i}");
                match a {
                    TransmitOutcome::Lost => lost += 1,
                    TransmitOutcome::Delivered { arrives, .. } => {
                        let prop = arrives.since(l.next_free(src));
                        spiked += u32::from(prop > link.propagation);
                    }
                    TransmitOutcome::Dropped => panic!("{name}: infinite buffer refused"),
                }
            }
            for dst in 0..2 {
                assert_eq!(f.frames_to(dst), l.frames(1 - dst), "{name}");
                assert_eq!(f.drops_to(dst), l.drops(1 - dst), "{name}");
            }
            assert_eq!(f.switch_drops(), 0, "{name}");
            assert_eq!(f.loss_drops(), lost, "{name}");
            if name == "faulted" {
                assert!(
                    lost > 200 && spiked > 0,
                    "{name}: lost {lost}, spiked {spiked}"
                );
            } else {
                assert_eq!((lost, spiked), (0, 0));
            }
        }
    }

    #[test]
    fn frames_queue_per_port_and_fan_in_serializes() {
        let mut f = Fabric::new(FabricConfig::neutral(4));
        let t0 = SimTime::ZERO;
        // Three senders converge on host 1: their frames share one port
        // clock and serialize back-to-back.
        let mut arrivals = Vec::new();
        for src in [0usize, 2, 3] {
            match f.transmit(src, 1, src as u64, t0, 9078) {
                TransmitOutcome::Delivered { arrives, .. } => arrivals.push(arrives),
                _ => panic!("dropped"),
            }
        }
        assert_eq!(arrivals[1].since(arrivals[0]), Duration::from_nanos(726));
        assert_eq!(arrivals[2].since(arrivals[1]), Duration::from_nanos(726));
        // A frame toward a different host rides an independent port.
        match f.transmit(0, 2, 9, t0, 9078) {
            TransmitOutcome::Delivered { arrives, .. } => {
                assert_eq!(arrives, arrivals[0]);
            }
            _ => panic!("dropped"),
        }
    }

    #[test]
    fn next_free_is_the_source_wire_not_the_congested_port() {
        let mut f = Fabric::new(FabricConfig::neutral(4));
        let t0 = SimTime::ZERO;
        f.transmit(0, 1, 1, t0, 9078);
        assert_eq!(f.next_free(0).as_nanos(), 726);
        // Host 2 never sent: it is free immediately.
        assert_eq!(f.next_free(2), SimTime::ZERO);
        // Host 2 sends into the now-busy port toward host 1. Its frame
        // queues behind host 0's at the switch, but its own wire freed up
        // after one serialization slot — the port's congestion must NOT
        // back-pressure the source.
        match f.transmit(2, 1, 2, t0, 9078) {
            TransmitOutcome::Delivered { arrives, .. } => {
                assert_eq!(arrives.as_nanos(), 726 * 2 + 2_000);
            }
            _ => panic!("dropped"),
        }
        assert_eq!(f.next_free(2).as_nanos(), 726);
    }

    #[test]
    fn shared_buffer_overflow_drops_after_the_source_wire() {
        let mut f = Fabric::new(FabricConfig {
            buffer_bytes: 20_000,
            ..FabricConfig::neutral(4)
        });
        let t0 = SimTime::ZERO;
        let mut delivered = 0;
        let mut dropped = 0;
        for i in 0..10 {
            match f.transmit(0, 1, i, t0, 9078) {
                TransmitOutcome::Delivered { .. } => delivered += 1,
                TransmitOutcome::Dropped => dropped += 1,
                TransmitOutcome::Lost => panic!("no faults configured"),
            }
        }
        assert!(dropped > 0, "10 jumbo frames exceed a 20KB buffer");
        assert_eq!(f.switch_drops(), dropped);
        assert_eq!(f.drops_to(1), dropped);
        assert_eq!(f.frames_to(1), 10);
        // Every frame — dropped ones included — crossed the source's own
        // wire; only the switch clocks skip the refused frames.
        assert_eq!(f.next_free(0).as_nanos(), 726 * (delivered + dropped));
        let queued = f.backlog(t0).0;
        assert!(
            queued <= 20_000,
            "admission keeps occupancy within the buffer: {queued}"
        );
        // Once the queue drains, the buffer admits frames again.
        let later = SimTime::from_nanos(1_000_000);
        assert!(matches!(
            f.transmit(0, 1, 99, later, 9078),
            TransmitOutcome::Delivered { .. }
        ));
    }

    #[test]
    fn occupancy_drains_with_time() {
        let mut f = neutral();
        f.transmit(0, 1, 1, SimTime::ZERO, 9078);
        f.transmit(0, 1, 1, SimTime::ZERO, 9078);
        let full = f.backlog(SimTime::ZERO).0;
        assert!(full > 17_000, "two jumbo frames queued: {full}");
        let half = f.backlog(SimTime::from_nanos(726)).0;
        assert!(half < full && half > 8_000, "one frame left: {half}");
        assert_eq!(f.backlog(SimTime::from_nanos(2_000)).0, 0);
    }

    /// Every port's and uplink's backlog at `now`, summed the long way.
    fn full_scan(f: &Fabric, now: SimTime) -> u64 {
        let gbps = f.link.gbps;
        let ports: u64 = f
            .ports
            .iter()
            .map(|p| backlog_bytes(p.busy_until.since(now), gbps))
            .sum();
        let uplinks: u64 = f
            .uplinks
            .iter()
            .map(|&u| backlog_bytes(u.since(now), gbps))
            .sum();
        ports + uplinks
    }

    /// The busy-port and busy-uplink sets only ever leave out drained
    /// queues: on the incast shape and on a full rack, with queues that
    /// build past the ECN threshold and the shared buffer and then drain,
    /// the occupancy equals a full scan at every frame, and a twin fabric
    /// fed the same frames whose busy sets hold every port and uplink
    /// before each one (so it sums every queue, as a full scan does) gives
    /// identical outcomes. The neutral fabric, which skips the sum in
    /// `transmit`, still reports an exact occupancy.
    #[test]
    fn busy_port_occupancy_is_exact() {
        let incast = FabricConfig {
            uplinks: 4,
            // `hns_core::figures::INCAST_BUFFER_BYTES` and
            // `INCAST_ECN_THRESHOLD`, the incast figure's switch.
            buffer_bytes: 256 * 1024,
            ecn_threshold_bytes: Some(64 * 1024),
            ..FabricConfig::neutral(17)
        };
        let rack = FabricConfig {
            uplinks: 2,
            buffer_bytes: 1 << 20,
            ecn_threshold_bytes: Some(32 * 1024),
            ..FabricConfig::neutral(MAX_HOSTS)
        };
        let lossy = LinkConfig {
            loss: LossModel::bursty(0.01, 4.0),
            ..LinkConfig::default()
        };
        for (name, cfg, link) in [
            ("incast17", incast, LinkConfig::default()),
            ("rack256", rack, lossy),
            (
                "neutral17",
                FabricConfig::neutral(17),
                LinkConfig::default(),
            ),
        ] {
            let n = cfg.hosts as usize;
            let mut every_port = [0u64; BUSY_WORDS];
            for p in 0..n {
                every_port[p / 64] |= 1 << (p % 64);
            }
            let mut every_uplink = [0u64; UPLINK_WORDS];
            for u in 0..cfg.uplinks as usize {
                every_uplink[u / 64] |= 1 << (u % 64);
            }
            let mut f = Fabric::with_link(cfg, link, 3);
            let mut twin = Fabric::with_link(cfg, link, 3);
            let mut rng = hns_sim::SimRng::new(0x0cc0 + n as u64);
            let (mut now, mut ce) = (0u64, 0u32);
            let (mut cleared, mut uplinks_cleared) = (0u32, 0u32);
            for i in 0..20_000u32 {
                // Three frames in four converge on host 1 from the other
                // hosts; the rest run between random pairs.
                let (src, dst) = if rng.next_below(4) != 0 {
                    let src = rng.next_below(n as u64 - 1) as usize;
                    (if src >= 1 { src + 1 } else { src }, 1)
                } else {
                    let src = rng.next_below(n as u64) as usize;
                    let dst = rng.next_below(n as u64 - 1) as usize;
                    (src, if dst >= src { dst + 1 } else { dst })
                };
                let bytes = if rng.chance(0.8) { 9078 } else { 78 };
                // Back-to-back bursts build queues; rare idles drain them.
                now += match rng.next_below(200) {
                    0 => 50_000,
                    1..=80 => 0,
                    _ => rng.next_below(600),
                };
                let at = SimTime::from_nanos(now);
                assert_eq!(f.backlog(at).0, full_scan(&f, at), "{name}: frame {i}");
                let (before, uplinks_before) = (f.busy, f.busy_uplinks);
                twin.busy = every_port;
                twin.busy_uplinks = every_uplink;
                let a = f.transmit(src, dst, u64::from(i), at, bytes);
                let b = twin.transmit(src, dst, u64::from(i), at, bytes);
                assert_eq!(a, b, "{name}: frame {i}");
                assert_eq!(f.backlog(at).0, full_scan(&f, at), "{name}: frame {i}");
                ce += u32::from(matches!(a, TransmitOutcome::Delivered { ce: true, .. }));
                let shrank = |b: &[u64], a: &[u64]| b.iter().zip(a).any(|(&b, &a)| b & !a != 0);
                cleared += u32::from(shrank(&before, &f.busy));
                uplinks_cleared += u32::from(shrank(&uplinks_before, &f.busy_uplinks));
            }
            for dst in 0..n {
                assert_eq!(f.frames_to(dst), twin.frames_to(dst), "{name}");
                assert_eq!(f.drops_to(dst), twin.drops_to(dst), "{name}");
            }
            if cfg.buffer_bytes == u64::MAX {
                // Nothing is refused, so nothing is ever summed or cleared.
                assert_eq!((f.switch_drops(), ce, cleared), (0, 0, 0), "{name}");
            } else {
                assert!(
                    f.switch_drops() > 0 && ce > 0 && cleared > 0 && uplinks_cleared > 0,
                    "{name}: drops {}, ce {ce}, cleared {cleared}, uplinks cleared \
                     {uplinks_cleared}",
                    f.switch_drops()
                );
            }
        }
    }

    #[test]
    fn ecn_marks_at_depth_threshold() {
        let mut f = Fabric::new(FabricConfig {
            ecn_threshold_bytes: Some(30_000),
            ..FabricConfig::neutral(3)
        });
        let t0 = SimTime::ZERO;
        let mut first_ce = None;
        for i in 0..8 {
            if let TransmitOutcome::Delivered { ce, .. } = f.transmit(0, 1, 1, t0, 9078) {
                if ce && first_ce.is_none() {
                    first_ce = Some(i);
                }
            }
        }
        // Depth crosses 30KB once four 9078B frames are queued ahead.
        assert_eq!(first_ce, Some(4));
        // An idle port never marks.
        assert!(matches!(
            f.transmit(2, 0, 5, SimTime::from_nanos(1_000_000), 9078),
            TransmitOutcome::Delivered { ce: false, .. }
        ));
    }

    #[test]
    fn ecmp_is_deterministic_and_spreads() {
        let f = Fabric::new(FabricConfig {
            uplinks: 4,
            ..FabricConfig::neutral(8)
        });
        let g = Fabric::new(FabricConfig {
            uplinks: 4,
            ..FabricConfig::neutral(8)
        });
        let mut used = [false; 4];
        for flow in 0..64u64 {
            let u = f.ecmp_uplink(flow);
            assert_eq!(u, g.ecmp_uplink(flow), "hash must not depend on state");
            used[u] = true;
        }
        assert!(
            used.iter().all(|&b| b),
            "64 flows should touch all 4 uplinks"
        );
    }

    #[test]
    fn ecmp_u32_reduction_matches_the_u64_formula() {
        let mut rng = hns_sim::SimRng::new(0xec3b);
        let flows: Vec<u64> = (0..256).map(|_| rng.next_u64()).chain(0..64).collect();
        for uplinks in 1..=u8::MAX {
            let f = Fabric::new(FabricConfig {
                uplinks,
                ..FabricConfig::neutral(2)
            });
            for &flow in &flows {
                let h = flow.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let want = ((h >> 32) % uplinks as u64) as usize;
                assert_eq!(f.ecmp_uplink(flow), want, "flow {flow}, {uplinks} uplinks");
            }
        }
    }

    #[test]
    fn memoized_serialization_is_the_division() {
        let mut rng = hns_sim::SimRng::new(0x5e71);
        for gbps in [100.0, 25.0] {
            let link = LinkConfig {
                gbps,
                ..LinkConfig::default()
            };
            let mut f = Fabric::with_link(FabricConfig::neutral(2), link, 0);
            // Data and ACK sizes alternating, a third size and a zero now
            // and then, and random sizes that evict the least recent.
            let sizes = [9078, 78, 1578, 0];
            for _ in 0..4096 {
                let bytes = match rng.next_below(16) {
                    0 => rng.next_below(10_000),
                    1 => sizes[rng.next_below(4) as usize],
                    n => sizes[(n % 2) as usize],
                };
                let want = Duration::for_bytes_at_gbps(bytes, gbps);
                assert_eq!(f.serialization(bytes), want, "{bytes} B at {gbps} Gb/s");
            }
        }
    }

    #[test]
    fn uplink_stage_adds_serialization() {
        let mut with = Fabric::new(FabricConfig {
            uplinks: 1,
            ..FabricConfig::neutral(4)
        });
        let mut without = Fabric::new(FabricConfig::neutral(4));
        let t0 = SimTime::ZERO;
        // Two frames to *different* destinations share the single uplink:
        // the second is delayed behind the first even though its egress
        // port is idle.
        let a1 = match with.transmit(0, 1, 1, t0, 9078) {
            TransmitOutcome::Delivered { arrives, .. } => arrives,
            _ => panic!(),
        };
        let a2 = match with.transmit(2, 3, 2, t0, 9078) {
            TransmitOutcome::Delivered { arrives, .. } => arrives,
            _ => panic!(),
        };
        assert_eq!(a2.since(a1), Duration::from_nanos(726));
        // Without the uplink they are independent, and each arrival is one
        // serialization slot earlier (no second hop).
        without.transmit(0, 1, 1, t0, 9078);
        let b2 = match without.transmit(2, 3, 2, t0, 9078) {
            TransmitOutcome::Delivered { arrives, .. } => arrives,
            _ => panic!(),
        };
        assert_eq!(a1.since(b2), Duration::from_nanos(726));
    }
}
