//! The monitor's fold state: per-interval sketches, interval counters,
//! and the cumulative window roll-up.
//!
//! `MonitorState` is driven entirely by the simulation loop — it never
//! schedules events of its own. The world feeds it three things:
//!
//! - sampled stage residencies (the trace collector's window fold),
//! - delivered byte counts (once per autotune tick),
//! - cumulative drop/conn counter snapshots (once per autotune tick).
//!
//! On each tick the state decides whether an emission interval has
//! elapsed; if so it cuts a [`MonitorSnapshot`] of the interval deltas,
//! merges the interval sketches into the cumulative window sketches
//! (exercising the sketch's merge-order invariance), and resets the
//! interval accumulators. Everything is keyed to sim-time, so the
//! snapshot stream is deterministic under a fixed seed.

use crate::config::MonitorConfig;
use crate::sketch::DdSketch;
use crate::snapshot::{ConnCounters, MonitorSnapshot};
use hns_metrics::{DropStats, MonitorStage, MonitorSummary};
use hns_sim::SimTime;
use hns_trace::{StageId, N_STAGES};

/// DDSketch relative-error bound of every stage-residency quantile.
pub const SKETCH_ALPHA: f64 = 0.01;

/// Streaming-telemetry fold state for one simulated run.
#[derive(Clone, Debug)]
pub struct MonitorState {
    cfg: MonitorConfig,
    window_start: SimTime,
    last_emit: SimTime,
    /// Application bytes delivered since the last emission.
    interval_bytes: u64,
    /// Per-stage residency sketches for the current interval.
    interval_stage: Vec<DdSketch>,
    /// Per-stage cumulative sketches (merged emitted intervals).
    window_stage: Vec<DdSketch>,
    /// Cumulative drop counters at the last emission.
    last_drops: DropStats,
    /// Cumulative conn counters at the last emission.
    last_conn: Option<ConnCounters>,
    snapshots: u64,
    goodput_sum: f64,
    goodput_min: f64,
    goodput_max: f64,
}

impl MonitorState {
    /// Build the fold state; sketches are sized for every trace stage.
    pub fn new(cfg: MonitorConfig) -> MonitorState {
        let mk = || (0..N_STAGES).map(|_| DdSketch::new(SKETCH_ALPHA)).collect();
        MonitorState {
            cfg,
            window_start: SimTime::ZERO,
            last_emit: SimTime::ZERO,
            interval_bytes: 0,
            interval_stage: mk(),
            window_stage: mk(),
            last_drops: DropStats::new(),
            last_conn: None,
            snapshots: 0,
            goodput_sum: 0.0,
            goodput_min: f64::INFINITY,
            goodput_max: 0.0,
        }
    }

    /// The configured knobs.
    pub fn cfg(&self) -> MonitorConfig {
        self.cfg
    }

    /// Snapshots emitted so far.
    pub fn snapshots(&self) -> u64 {
        self.snapshots
    }

    /// Open the measurement window: drop warmup accumulation and pin the
    /// counter baselines so the first interval's deltas are exact.
    pub fn begin_window(&mut self, now: SimTime, drops: DropStats, conn: Option<ConnCounters>) {
        self.window_start = now;
        self.last_emit = now;
        self.interval_bytes = 0;
        for s in &mut self.interval_stage {
            s.clear();
        }
        for s in &mut self.window_stage {
            s.clear();
        }
        self.last_drops = drops;
        self.last_conn = conn;
        self.snapshots = 0;
        self.goodput_sum = 0.0;
        self.goodput_min = f64::INFINITY;
        self.goodput_max = 0.0;
    }

    /// Fold delivered application bytes into the current interval.
    pub fn record_bytes(&mut self, bytes: u64) {
        self.interval_bytes += bytes;
    }

    /// Fold one sampled stage residency into the current interval.
    pub fn record_residency(&mut self, stage: StageId, ns: u64) {
        self.interval_stage[stage as usize].record(ns);
    }

    /// Housekeeping-tick hook. `drops` and `conn` are *cumulative*
    /// counters (window-relative or absolute — only deltas matter, the
    /// baseline was pinned by [`MonitorState::begin_window`]). Returns a
    /// snapshot when an emission interval has elapsed.
    pub fn on_tick(
        &mut self,
        now: SimTime,
        drops: DropStats,
        conn: Option<ConnCounters>,
    ) -> Option<MonitorSnapshot> {
        let elapsed = now.since(self.last_emit);
        if elapsed < self.cfg.interval {
            return None;
        }
        let secs = elapsed.as_secs_f64();
        let goodput_gbps = self.interval_bytes as f64 * 8.0 / 1e9 / secs;
        let stages = self
            .interval_stage
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_empty())
            .map(|(i, s)| stage_row(i, s))
            .collect();
        let snapshot = MonitorSnapshot {
            t_secs: now.since(self.window_start).as_secs_f64(),
            interval_secs: secs,
            goodput_gbps,
            drops: drops.since(self.last_drops),
            stages,
            conn: match (conn, self.last_conn) {
                (Some(cur), Some(base)) => Some(cur.since(base)),
                (Some(cur), None) => Some(cur),
                (None, _) => None,
            },
        };
        // Roll the interval into the window and reset for the next one.
        for (w, i) in self.window_stage.iter_mut().zip(&mut self.interval_stage) {
            w.merge(i);
            i.clear();
        }
        self.interval_bytes = 0;
        self.last_emit = now;
        self.last_drops = drops;
        self.last_conn = conn;
        self.snapshots += 1;
        self.goodput_sum += goodput_gbps;
        self.goodput_min = self.goodput_min.min(goodput_gbps);
        self.goodput_max = self.goodput_max.max(goodput_gbps);
        Some(snapshot)
    }

    /// Whole-window roll-up for the report. Residencies still sitting in
    /// the open interval (sampled after the last emission) are included
    /// by merging a scratch copy — the live state is untouched.
    pub fn summary(&self) -> MonitorSummary {
        let stages = self
            .window_stage
            .iter()
            .zip(&self.interval_stage)
            .enumerate()
            .filter(|(_, (w, i))| !w.is_empty() || !i.is_empty())
            .map(|(idx, (w, i))| {
                let mut s = w.clone();
                s.merge(i);
                stage_row(idx, &s)
            })
            .collect();
        MonitorSummary {
            snapshots: self.snapshots,
            interval_secs: self.cfg.interval.as_secs_f64(),
            sketch_alpha: SKETCH_ALPHA,
            goodput_avg_gbps: if self.snapshots == 0 {
                0.0
            } else {
                self.goodput_sum / self.snapshots as f64
            },
            goodput_min_gbps: if self.goodput_min.is_finite() {
                self.goodput_min
            } else {
                0.0
            },
            goodput_max_gbps: self.goodput_max,
            stages,
        }
    }
}

/// The row of trace stage `stage` (its index in `StageId::ALL`): the
/// sketch's sample count and residency quantiles.
fn stage_row(stage: usize, sketch: &DdSketch) -> MonitorStage {
    MonitorStage {
        stage: StageId::ALL[stage].label().to_string(),
        samples: sketch.count(),
        p50_ns: sketch.quantile(0.50),
        p99_ns: sketch.quantile(0.99),
        p999_ns: sketch.quantile(0.999),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hns_sim::Duration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + Duration::from_millis(ms)
    }

    fn cfg_10ms() -> MonitorConfig {
        MonitorConfig {
            interval: Duration::from_millis(10),
        }
    }

    #[test]
    fn no_snapshot_before_interval_elapses() {
        let mut m = MonitorState::new(cfg_10ms());
        m.begin_window(t(0), DropStats::new(), None);
        m.record_bytes(1000);
        assert!(m.on_tick(t(5), DropStats::new(), None).is_none());
        assert_eq!(m.snapshots(), 0);
    }

    #[test]
    fn snapshot_carries_interval_deltas() {
        let mut m = MonitorState::new(cfg_10ms());
        let mut drops = DropStats::new();
        drops.wire = 5; // pre-window drops must not leak in
        m.begin_window(t(0), drops, None);
        m.record_bytes(12_500_000); // 12.5 MB over 10 ms = 10 Gbps
        m.record_residency(StageId::TcpRx, 1000);
        m.record_residency(StageId::TcpRx, 2000);
        drops.wire = 8;
        let s = m.on_tick(t(10), drops, None).expect("interval elapsed");
        assert!((s.goodput_gbps - 10.0).abs() < 1e-9, "{}", s.goodput_gbps);
        assert_eq!(s.drops.wire, 3, "delta against the window baseline");
        assert_eq!(s.stages.len(), 1);
        assert_eq!(s.stages[0].stage, "tcp_rx");
        assert_eq!(s.stages[0].samples, 2);
        assert!((s.t_secs - 0.010).abs() < 1e-12);
    }

    #[test]
    fn intervals_merge_into_window_summary() {
        let mut m = MonitorState::new(cfg_10ms());
        m.begin_window(t(0), DropStats::new(), None);
        m.record_residency(StageId::SockQueue, 100);
        m.on_tick(t(10), DropStats::new(), None).unwrap();
        m.record_residency(StageId::SockQueue, 300);
        m.on_tick(t(20), DropStats::new(), None).unwrap();
        // One more residency in the still-open interval.
        m.record_residency(StageId::SockQueue, 500);
        let sum = m.summary();
        assert_eq!(sum.snapshots, 2);
        let row = sum
            .stages
            .iter()
            .find(|s| s.stage == "sock_queue")
            .expect("sock_queue row");
        assert_eq!(row.samples, 3, "open-interval samples are included");
    }

    #[test]
    fn goodput_envelope_tracks_min_and_max() {
        let mut m = MonitorState::new(cfg_10ms());
        m.begin_window(t(0), DropStats::new(), None);
        m.record_bytes(12_500_000); // 10 Gbps
        m.on_tick(t(10), DropStats::new(), None).unwrap();
        m.record_bytes(25_000_000); // 20 Gbps
        m.on_tick(t(20), DropStats::new(), None).unwrap();
        let sum = m.summary();
        assert!((sum.goodput_min_gbps - 10.0).abs() < 1e-9);
        assert!((sum.goodput_max_gbps - 20.0).abs() < 1e-9);
        assert!((sum.goodput_avg_gbps - 15.0).abs() < 1e-9);
    }

    #[test]
    fn begin_window_discards_warmup_state() {
        let mut m = MonitorState::new(cfg_10ms());
        m.begin_window(t(0), DropStats::new(), None);
        m.record_bytes(999);
        m.record_residency(StageId::Wire, 7);
        m.on_tick(t(10), DropStats::new(), None).unwrap();
        // Re-opening the window (end of warmup) wipes everything.
        m.begin_window(t(10), DropStats::new(), None);
        assert_eq!(m.snapshots(), 0);
        let sum = m.summary();
        assert!(sum.stages.is_empty());
        assert_eq!(sum.goodput_max_gbps, 0.0);
    }

    #[test]
    fn conn_deltas_span_intervals() {
        let mut m = MonitorState::new(cfg_10ms());
        let base = ConnCounters {
            established: 100,
            live: 10,
            ..Default::default()
        };
        m.begin_window(t(0), DropStats::new(), Some(base));
        let c1 = ConnCounters {
            established: 150,
            live: 12,
            ..Default::default()
        };
        let s1 = m.on_tick(t(10), DropStats::new(), Some(c1)).unwrap();
        assert_eq!(s1.conn.unwrap().established, 50);
        assert_eq!(s1.conn.unwrap().live, 12);
        let c2 = ConnCounters {
            established: 170,
            live: 9,
            ..Default::default()
        };
        let s2 = m.on_tick(t(20), DropStats::new(), Some(c2)).unwrap();
        assert_eq!(s2.conn.unwrap().established, 20);
        assert_eq!(s2.conn.unwrap().live, 9);
    }
}
