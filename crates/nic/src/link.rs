//! The wire's physical model and its faults.
//!
//! The paper's testbed wires two servers back-to-back with a 100Gbps cable
//! (a switch is inserted only for the §3.6 loss experiments). A frame
//! occupies a serializing port for `bytes × 8 / rate`, frames queue behind
//! each other (`busy_until`), and arrive `propagation` later.
//! [`WireFaults`] then decides each frame's fate with a deterministic
//! seeded RNG: in-network loss, either independently per frame (the
//! paper's §3.6 sweep) or through a Gilbert–Elliott bursty process, plus
//! scheduled link flaps and latency spikes that model in-network failures.
//!
//! The world's one wire is the switch fabric (`hns_stack::fabric`), whose
//! egress ports run these faults. [`Link`] is a two-port cable on the same
//! faults, which the fabric's unit tests replay as their oracle.

use hns_faults::{LatencySpike, LossModel, LossProcess, PhaseSchedule};
use hns_sim::{Duration, SimRng, SimTime};

/// Link parameters.
#[derive(Clone, Copy, Debug)]
pub struct LinkConfig {
    /// Line rate in Gbps (paper: 100).
    pub gbps: f64,
    /// One-way propagation delay (cable + switch forwarding).
    pub propagation: Duration,
    /// Per-frame in-network loss process (§3.6 sweep, burst-loss faults).
    pub loss: LossModel,
    /// Scheduled outage: while active, every frame in both directions is
    /// lost (cable pull / switch reboot).
    pub flap: Option<PhaseSchedule>,
    /// Scheduled extra one-way delay (failover reroute).
    pub latency_spike: Option<LatencySpike>,
}

impl LinkConfig {
    /// True if the line rate can serialize a frame: finite and positive.
    pub fn rate_is_valid(&self) -> bool {
        self.gbps.is_finite() && self.gbps > 0.0
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            gbps: 100.0,
            propagation: Duration::from_micros(2),
            loss: LossModel::None,
            flap: None,
            latency_spike: None,
        }
    }
}

/// Result of offering a frame to a wire port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransmitOutcome {
    /// Frame will arrive at the far end at this time, with this CE mark.
    Delivered {
        /// Arrival instant at the receiver NIC.
        arrives: SimTime,
        /// ECN Congestion-Experienced mark.
        ce: bool,
    },
    /// Frame was refused by a full shared switch buffer (the
    /// `switch_buffer` drop class).
    Dropped,
    /// Frame was lost in-network by the loss process or a link flap (the
    /// `wire` drop class).
    Lost,
}

/// The fault plan of a wire: one loss process per port (each port of a
/// real cable or switch fails independently), all drawing from one shared
/// RNG in transmit order, plus the flap window and latency spike that hit
/// every port at once.
#[derive(Debug)]
pub struct WireFaults {
    loss: Vec<LossProcess>,
    flap: Option<PhaseSchedule>,
    latency_spike: Option<LatencySpike>,
    rng: SimRng,
}

impl WireFaults {
    /// Faults of `config` over `ports` independent ports.
    pub fn new(config: &LinkConfig, ports: usize, seed: u64) -> Self {
        // Line-rate time of a nominal 1500B+overhead frame: the slot that
        // converts idle wire time into Gilbert–Elliott chain steps.
        let slot = Duration::for_bytes_at_gbps(1578, config.gbps);
        WireFaults {
            loss: (0..ports)
                .map(|_| LossProcess::with_slot(config.loss, slot))
                .collect(),
            flap: config.flap,
            latency_spike: config.latency_spike,
            rng: SimRng::new(seed ^ 0x11A7),
        }
    }

    /// Decide the fate of a frame offered to `port` at `now`. Call it
    /// after the port clock has advanced, so a lost frame still occupied
    /// the wire. `None` means the frame is lost; otherwise the extra
    /// one-way delay of an active latency spike (`ZERO` outside one).
    ///
    /// The loss process steps even during a flap, so post-flap behaviour
    /// is independent of how many frames died in the outage window.
    pub fn fate(&mut self, port: usize, now: SimTime) -> Option<Duration> {
        let lost = self.loss[port].step(now, &mut self.rng);
        if lost || matches!(&self.flap, Some(w) if w.active(now)) {
            return None;
        }
        Some(match &self.latency_spike {
            Some(spike) if spike.window.active(now) => spike.extra,
            _ => Duration::ZERO,
        })
    }
}

/// One direction of the full-duplex wire.
#[derive(Debug, Default)]
struct Direction {
    busy_until: SimTime,
    drops: u64,
    frames: u64,
    bytes: u64,
}

/// The full-duplex cable between two hosts.
#[derive(Debug)]
pub struct Link {
    config: LinkConfig,
    dirs: [Direction; 2],
    /// Port `dir` carries direction `dir`.
    faults: WireFaults,
}

impl Link {
    /// Build a link.
    pub fn new(config: LinkConfig, seed: u64) -> Self {
        Link {
            config,
            dirs: Default::default(),
            faults: WireFaults::new(&config, 2, seed),
        }
    }

    /// Offer a frame of `wire_bytes` to direction `dir` (0 = host0→host1).
    /// Serialization starts when the wire frees up; the caller should gate
    /// its transmit loop on [`Link::next_free`] to model NIC back-pressure.
    pub fn transmit(&mut self, dir: usize, now: SimTime, wire_bytes: u64) -> TransmitOutcome {
        let d = &mut self.dirs[dir];
        d.frames += 1;
        d.bytes += wire_bytes;
        let ser = Duration::for_bytes_at_gbps(wire_bytes, self.config.gbps);
        d.busy_until = d.busy_until.max(now) + ser;
        match self.faults.fate(dir, now) {
            None => {
                d.drops += 1;
                TransmitOutcome::Lost
            }
            Some(extra) => TransmitOutcome::Delivered {
                arrives: d.busy_until + self.config.propagation + extra,
                ce: false,
            },
        }
    }

    /// Earliest time direction `dir` can begin serializing a new frame.
    pub fn next_free(&self, dir: usize) -> SimTime {
        self.dirs[dir].busy_until
    }

    /// Frames dropped in-network on `dir`.
    pub fn drops(&self, dir: usize) -> u64 {
        self.dirs[dir].drops
    }

    /// Frames offered on `dir`.
    pub fn frames(&self, dir: usize) -> u64 {
        self.dirs[dir].frames
    }

    /// Bytes offered on `dir`.
    pub fn bytes(&self, dir: usize) -> u64 {
        self.dirs[dir].bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(loss: f64) -> Link {
        Link::new(
            LinkConfig {
                loss: LossModel::uniform(loss),
                ..LinkConfig::default()
            },
            7,
        )
    }

    #[test]
    fn serialization_and_propagation() {
        let mut l = link(0.0);
        let t0 = SimTime::ZERO;
        // 9078-byte wire frame at 100Gbps = 726ns + 2us propagation.
        match l.transmit(0, t0, 9078) {
            TransmitOutcome::Delivered { arrives, ce } => {
                assert_eq!(arrives.as_nanos(), 726 + 2_000);
                assert!(!ce);
            }
            _ => panic!("dropped"),
        }
    }

    #[test]
    fn frames_queue_behind_each_other() {
        let mut l = link(0.0);
        let t0 = SimTime::ZERO;
        let a1 = match l.transmit(0, t0, 9078) {
            TransmitOutcome::Delivered { arrives, .. } => arrives,
            _ => panic!(),
        };
        let a2 = match l.transmit(0, t0, 9078) {
            TransmitOutcome::Delivered { arrives, .. } => arrives,
            _ => panic!(),
        };
        assert_eq!(a2.since(a1), Duration::from_nanos(726));
        assert_eq!(l.next_free(0).as_nanos(), 2 * 726);
    }

    #[test]
    fn directions_are_independent() {
        let mut l = link(0.0);
        l.transmit(0, SimTime::ZERO, 9078);
        assert_eq!(l.next_free(1), SimTime::ZERO);
        l.transmit(1, SimTime::ZERO, 78);
        assert!(l.next_free(1) < l.next_free(0));
    }

    #[test]
    fn loss_rate_statistics() {
        let mut l = link(0.015);
        let mut dropped = 0;
        for _ in 0..100_000 {
            if l.transmit(0, SimTime::ZERO, 1578) == TransmitOutcome::Lost {
                dropped += 1;
            }
        }
        assert!((1_200..1_800).contains(&dropped), "drops = {dropped}");
        assert_eq!(l.drops(0), dropped);
    }

    #[test]
    fn bursty_loss_comes_in_bursts() {
        let mut l = Link::new(
            LinkConfig {
                loss: LossModel::bursty(0.02, 8.0),
                ..LinkConfig::default()
            },
            7,
        );
        let mut lost = 0u64;
        let mut bursts = 0u64;
        let mut in_burst = false;
        for _ in 0..200_000 {
            let drop = l.transmit(0, SimTime::ZERO, 1578) == TransmitOutcome::Lost;
            if drop {
                lost += 1;
                if !in_burst {
                    bursts += 1;
                }
            }
            in_burst = drop;
        }
        let rate = lost as f64 / 200_000.0;
        assert!((0.013..0.027).contains(&rate), "rate = {rate}");
        let mean_burst = lost as f64 / bursts as f64;
        assert!(mean_burst > 4.0, "mean burst = {mean_burst}");
    }

    #[test]
    fn flap_window_kills_both_directions() {
        let mut l = Link::new(
            LinkConfig {
                flap: Some(PhaseSchedule::once(
                    Duration::from_micros(10),
                    Duration::from_micros(20),
                )),
                ..LinkConfig::default()
            },
            7,
        );
        let up = SimTime::from_nanos(5_000);
        let down = SimTime::from_nanos(15_000);
        let up_again = SimTime::from_nanos(31_000);
        assert!(matches!(
            l.transmit(0, up, 1578),
            TransmitOutcome::Delivered { .. }
        ));
        assert_eq!(l.transmit(0, down, 1578), TransmitOutcome::Lost);
        assert_eq!(l.transmit(1, down, 1578), TransmitOutcome::Lost);
        assert!(matches!(
            l.transmit(1, up_again, 1578),
            TransmitOutcome::Delivered { .. }
        ));
        assert_eq!(l.drops(0) + l.drops(1), 2);
    }

    #[test]
    fn latency_spike_adds_delay_during_window() {
        let spike = LatencySpike {
            window: PhaseSchedule::once(Duration::from_micros(10), Duration::from_micros(10)),
            extra: Duration::from_micros(50),
        };
        let mut l = Link::new(
            LinkConfig {
                latency_spike: Some(spike),
                ..LinkConfig::default()
            },
            7,
        );
        let normal = match l.transmit(0, SimTime::from_nanos(1_000), 1578) {
            TransmitOutcome::Delivered { arrives, .. } => arrives,
            _ => panic!(),
        };
        let spiked = match l.transmit(0, SimTime::from_nanos(15_000), 1578) {
            TransmitOutcome::Delivered { arrives, .. } => arrives,
            _ => panic!(),
        };
        // Same serialization and propagation, plus 50us of spike, minus the
        // 14us later offer time.
        assert_eq!(
            spiked.since(normal),
            Duration::from_micros(50) + Duration::from_micros(14)
        );
    }

    #[test]
    fn byte_and_frame_counters() {
        let mut l = link(0.0);
        l.transmit(0, SimTime::ZERO, 1000);
        l.transmit(0, SimTime::ZERO, 2000);
        assert_eq!(l.frames(0), 2);
        assert_eq!(l.bytes(0), 3000);
        assert_eq!(l.frames(1), 0);
    }
}
