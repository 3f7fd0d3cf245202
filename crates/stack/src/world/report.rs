//! Measurement: the autotune/housekeeping tick, the watchdog, the tracer
//! and monitor feeds, the warmup boundary, and the report built at the end
//! of the run.

use hns_metrics::{DropStats, LatencyStats, Report, SideReport};
use hns_nic::link::PROPAGATION;
use hns_sim::Duration;

use super::{Event, World, AUTOTUNE_INTERVAL};
use crate::host::Host;
use crate::watchdog::RunErrorKind;

impl World {
    pub(super) fn autotune_tick(&mut self) {
        self.drain_trace();
        if self.measuring {
            let t = self.queue.now().since(self.window_start).as_secs_f64();
            let gbps = self.tick_bytes as f64 * 8.0 / 1e9 / AUTOTUNE_INTERVAL.as_secs_f64();
            self.gbps_timeline.push((t, gbps));
            self.monitor_tick(self.tick_bytes);
            self.tick_bytes = 0;
        }
        for f in &mut self.flows {
            f.receiver.on_tick(AUTOTUNE_INTERVAL, PROPAGATION);
        }
        self.check_watchdog();
        self.audit_check(false);
        self.queue
            .schedule_after(AUTOTUNE_INTERVAL, Event::AutotuneTick);
    }

    /// Hand the tracer's window residencies folded since the last drain to
    /// the monitor, when one runs, and let the tracer prune timelines that
    /// went quiet. Runs every autotune tick and once more at `EndRun`, so
    /// the monitor holds the same residencies as the report's
    /// `stage_latency`.
    pub(super) fn drain_trace(&mut self) {
        if !self.trace.enabled() {
            return;
        }
        let mut mon = self.monitor.as_deref_mut();
        self.trace.drain_residencies(self.queue.now(), |stage, ns| {
            if let Some(m) = mon.as_deref_mut() {
                m.record_residency(stage, ns);
            }
        });
    }

    /// Fold one measuring autotune tick into the streaming monitor: account
    /// delivered bytes and the drop/conn counter samples, and cut a
    /// snapshot when an emission interval has elapsed. A no-op without a
    /// monitor; one is held out of `self.monitor` while the counters are
    /// read.
    fn monitor_tick(&mut self, tick_bytes: u64) {
        let Some(mut mon) = self.monitor.take() else {
            return;
        };
        let drops = self.drop_stats.since(self.drop_baseline);
        mon.record_bytes(tick_bytes);
        if let Some(snapshot) = mon.on_tick(self.queue.now(), drops, self.monitor_counters()) {
            if let Some(emit) = self.monitor_emit.as_mut() {
                emit(&snapshot);
            }
        }
        self.monitor = Some(mon);
    }

    /// Stall tripwire, evaluated once per autotune tick: if the progress
    /// counter hasn't moved for a full horizon while some flow still has
    /// outstanding work, the run is wedged.
    fn check_watchdog(&mut self) {
        let horizon = self.cfg.watchdog_horizon;
        if horizon == Duration::ZERO || self.run_error.is_some() {
            return;
        }
        let now = self.queue.now();
        if self.progress != self.last_progress {
            self.last_progress = self.progress;
            self.last_progress_at = now;
            return;
        }
        if now.since(self.last_progress_at) < horizon {
            return;
        }
        let outstanding = self.flows.iter().any(|f| !f.sender.all_acked());
        if !outstanding {
            // Quiet because there's nothing to do — not a stall.
            self.last_progress_at = now;
            return;
        }
        self.trip(
            RunErrorKind::Stalled,
            format!(
                "no forward progress for {}ns with flows outstanding",
                horizon.as_nanos()
            ),
        );
    }

    pub(super) fn end_warmup(&mut self) {
        let now = self.queue.now();
        self.measuring = true;
        self.window_start = now;
        for h in &mut self.hosts {
            h.reset_measurement(now);
        }
        for f in &mut self.flows {
            f.app_bytes = 0;
            f.rtx_baseline = f.sender.retransmissions;
        }
        for a in &mut self.apps {
            a.completions = 0;
        }
        self.rpc_latency_ns.reset();
        self.tick_bytes = 0;
        self.gbps_timeline.clear();
        if let Some(eng) = self.churn.as_mut() {
            eng.start_window();
        }
        self.wire_drop_baseline = self.wire.loss_drops();
        self.ring_drop_baseline = self.hosts.iter().map(|h| h.ring_drops()).sum();
        self.drop_baseline = self.drop_stats;
        if let Some(mut mon) = self.monitor.take() {
            // Open the monitor's window with baselines pinned at "now":
            // drops are reported window-relative (zero here) and conn
            // counters are sampled so the first interval's deltas start
            // from this instant. The tracer folds no warmup residency, so
            // there is nothing to discard.
            mon.begin_window(now, DropStats::new(), self.monitor_counters());
            self.monitor = Some(mon);
        }
        if let Some(a) = self.audit.as_deref_mut() {
            // The cycle ledger's two sides (usage clocks, breakdowns) just
            // reset with the measurement window; its rounding-slack bound
            // restarts with them.
            a.charge_calls.iter_mut().for_each(|c| *c = 0);
        }
        if self.cfg.inject_rx_leak {
            // Audit self-test hook: consume a descriptor whose frame never
            // reaches a backlog. The frame ledgers can no longer balance and
            // an audited run must trip InvariantViolation.
            self.hosts[1].rings[0].try_receive();
        }
    }

    /// The run's report. It takes the throughput timeline, which the run
    /// never reads again, rather than copying it.
    pub(super) fn build_report(&mut self) -> Report {
        let now = self.queue.now();
        let window = now.since(self.window_start).as_secs_f64();
        let delivered: u64 = self.flows.iter().map(|f| f.app_bytes).sum::<u64>()
            + self.churn.as_ref().map_or(0, |e| e.bytes_delivered);
        let total_gbps = if window > 0.0 {
            delivered as f64 * 8.0 / 1e9 / window
        } else {
            0.0
        };

        let side = |h: &Host| SideReport {
            breakdown: h.total_breakdown(),
            cores_used: h.cores_used(now),
            cache: {
                let mut c = h.rx_copy_cache;
                c.merge(h.tx_copy_cache);
                c
            },
        };
        // Host 1 is the receiver by convention; every other host (host 0
        // of a two-host world, hosts {0, 2, 3, ..} on a larger rack) is a
        // sender and folds into the sender side of the report.
        let mut sender = side(&self.hosts[0]);
        for h in self.hosts.iter().skip(2) {
            let s = side(h);
            sender.breakdown += s.breakdown;
            sender.cores_used += s.cores_used;
            sender.cache.merge(s.cache);
        }
        let receiver = side(&self.hosts[1]);
        let bottleneck_cores = sender.cores_used.max(receiver.cores_used).max(1e-9);

        let (stage_latency, trace_overflow) = if self.trace.enabled() {
            let row = |stage: &str, h: &hns_sim::Histogram| {
                let p = h.percentiles();
                hns_metrics::StageLatency {
                    stage: stage.to_string(),
                    samples: h.count(),
                    mean_ns: h.mean(),
                    p50_ns: p.p50,
                    p90_ns: p.p90,
                    p99_ns: p.p99,
                    p999_ns: p.p999,
                    max_ns: p.max,
                }
            };
            let mut rows: Vec<_> = self
                .trace
                .stage_residency()
                .map(|(s, h)| row(s.label(), h))
                .collect();
            rows.extend(self.trace.end_to_end().map(|h| row("end_to_end", h)));
            (rows, self.trace.overflows())
        } else {
            (Vec::new(), 0)
        };

        let wire_drops = self.wire.loss_drops() - self.wire_drop_baseline;
        let ring_drops =
            self.hosts.iter().map(|h| h.ring_drops()).sum::<u64>() - self.ring_drop_baseline;
        // Attribution invariants: the world counts every drop exactly once,
        // so `drops.wire == wire_drops` and
        // `drops.rx_ring + drops.pool == ring_drops`.
        let drops = self.drop_stats.since(self.drop_baseline);
        debug_assert_eq!(drops.wire, wire_drops);
        debug_assert_eq!(drops.rx_ring + drops.pool, ring_drops);

        Report {
            label: self.label.clone(),
            window_secs: window,
            delivered_bytes: delivered,
            total_gbps,
            thpt_per_core_gbps: total_gbps / bottleneck_cores,
            sender,
            receiver,
            napi_to_copy: LatencyStats::from_ns(&self.hosts[1].napi_to_copy_ns),
            rpc_latency: LatencyStats::from_ns(&self.rpc_latency_ns),
            skb_size_hist: self.hosts[1].skb_sizes.iter_buckets().collect(),
            avg_skb_bytes: self.hosts[1].skb_sizes.mean(),
            wire_drops,
            ring_drops,
            drops,
            retransmissions: self
                .flows
                .iter()
                .map(|f| f.sender.retransmissions - f.rtx_baseline)
                .sum(),
            rpcs_completed: self.apps.iter().map(|a| a.completions).sum(),
            per_flow_bytes: self.flows.iter().map(|f| (f.id, f.app_bytes)).collect(),
            gbps_timeline: std::mem::take(&mut self.gbps_timeline),
            stage_latency,
            trace_overflow,
            conn: self.conn_summary(window),
            capacity: self.capacity_summary(),
            monitor: self.monitor.as_ref().map(|m| m.summary()),
        }
    }
}
