//! The event collector: skb id allocation with sampling and filtering,
//! the live residency fold behind every report, and bounded per-core rings
//! of stage stamps for export.

use crate::{StageId, TraceConfig, N_STAGES};
use hns_sim::stats::Histogram;
use hns_sim::time::SimTime;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Identifier for one traced wire frame. Allocated when the sender's TCP
/// layer emits the frame; carried on the segment and the receive-side skb.
pub type SkbId = u64;

/// Sentinel meaning "not traced" — the disabled / sampled-out / filtered
/// path. Every hook checks against this and returns immediately.
pub const NO_SKB: SkbId = u64::MAX;

/// One stage stamp.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Which traced frame.
    pub skb: SkbId,
    /// Flow the frame belongs to.
    pub flow: u64,
    /// Stage crossed.
    pub stage: StageId,
    /// When.
    pub t: SimTime,
}

/// A [`TraceRecord`] with the `(host, core)` ring it was stamped on.
pub type LocatedRecord = (usize, usize, TraceRecord);

/// A fixed-capacity export ring for one (host, core) execution context.
/// Full ring ⇒ the record is dropped and counted, never silently lost and
/// never allowed to grow memory. Rings feed the exporters only; the
/// residency fold never reads them.
#[derive(Debug, Default)]
struct Ring {
    records: Vec<TraceRecord>,
    capacity: usize,
    overflow: u64,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Ring {
            records: Vec::new(),
            capacity,
            overflow: 0,
        }
    }

    #[inline]
    fn push(&mut self, rec: TraceRecord) {
        if self.records.len() < self.capacity {
            self.records.push(rec);
        } else {
            self.overflow += 1;
        }
    }
}

/// How long the entry of an in-flight skb may sit without a new stamp
/// before the pruner drops it. Data-path residencies are microseconds and
/// the longest lifecycle stages (TIME_WAIT, SYN RTO backoff) are tens of
/// milliseconds, so anything older is a timeline that ended without a
/// terminal stamp and would otherwise leak. (A GRO-merged frame's entry
/// does not wait for this: [`TraceCollector::close`] drops it at the
/// merge.)
const PRUNE_AFTER_NS: u64 = 100_000_000;

/// The collector. One instance per `World`; indexed by (host, core) so the
/// Chrome export can draw one track per core.
///
/// It is also the one residency fold: each stamp closes the residency of
/// the skb's previous stage (previous stamp → this stamp) the moment it
/// lands, and a residency whose closing stamp lands at or after the window
/// start goes into the per-stage histograms and the monitor's pending
/// buffer. The fold covers the whole window however long the run, and
/// never reads the export rings.
#[derive(Debug)]
pub struct TraceCollector {
    cfg: TraceConfig,
    /// Export rings indexed `host * cores_per_host + core`.
    rings: Vec<Ring>,
    cores_per_host: usize,
    /// Monotone counter over *candidate* skbs (for every-Nth sampling).
    seen: u64,
    /// Next id to hand out.
    next_id: SkbId,
    /// Per in-flight skb: its last stamp's stage and time, and its first
    /// stamp's time.
    open: HashMap<SkbId, (StageId, SimTime, SimTime)>,
    /// Closing stamps before this instant (the warmup) fold nothing.
    window_start: SimTime,
    /// Window residencies per stage, indexed by `StageId`, then the end to
    /// end latencies (first stamp → [`StageId::RecvCopy`]) of timelines
    /// ended in the window. Allocated by the first residency, so a tracer
    /// that folds nothing allocates nothing (and no histogram sits inline,
    /// whose 16-byte alignment would reorder `World`'s hot fields).
    hists: Vec<Histogram>,
    /// Window residencies since the last drain: `(stage, nanoseconds)`.
    pending: Vec<(StageId, u64)>,
}

impl TraceCollector {
    /// Build a collector for `hosts * cores_per_host` execution contexts.
    /// A disabled config allocates nothing.
    pub fn new(cfg: TraceConfig, hosts: usize, cores_per_host: usize) -> Self {
        let n = if cfg.enabled {
            hosts * cores_per_host
        } else {
            0
        };
        let cap = cfg.ring_capacity.max(1) as usize;
        TraceCollector {
            cfg,
            rings: (0..n).map(|_| Ring::new(cap)).collect(),
            cores_per_host: cores_per_host.max(1),
            seen: 0,
            next_id: 0,
            open: HashMap::new(),
            window_start: SimTime::ZERO,
            hists: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// A collector that records nothing (tracing off).
    pub fn disabled() -> Self {
        TraceCollector::new(TraceConfig::DISABLED, 0, 1)
    }

    /// Is tracing on at all? The hooks' cheap branch.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Open the measurement window at `at`, before the first stamp:
    /// residencies closing earlier (the warmup) never fold.
    pub fn set_window_start(&mut self, at: SimTime) {
        self.window_start = at;
    }

    /// Hand every window residency folded since the last drain to `f`, in
    /// stamp order, then prune in-flight entries whose timelines went quiet
    /// (ended without a terminal stamp) so that state stays bounded.
    pub fn drain_residencies(&mut self, now: SimTime, mut f: impl FnMut(StageId, u64)) {
        for (stage, ns) in self.pending.drain(..) {
            f(stage, ns);
        }
        self.open
            .retain(|_, (_, at, _)| now.since(*at).as_nanos() < PRUNE_AFTER_NS);
    }

    /// End `skb`'s timeline without a terminal stamp (a GRO-merged frame:
    /// the aggregate carries on under its head frame's id). Its last
    /// residency never closes, so nothing folds; the entry just leaves
    /// `open` now instead of at the pruner. No-op for [`NO_SKB`] and for
    /// an id with no open entry.
    #[inline]
    pub fn close(&mut self, skb: SkbId) {
        if skb != NO_SKB {
            self.open.remove(&skb);
        }
    }

    /// Decide whether to trace the next emitted skb of `flow`, and hand out
    /// an id if so. Applies the per-flow filter and every-Nth sampling;
    /// returns [`NO_SKB`] when the frame should not be traced.
    #[inline]
    pub fn alloc(&mut self, flow: u64) -> SkbId {
        if !self.admits(flow) {
            return NO_SKB;
        }
        let pick = self.seen.is_multiple_of(self.cfg.sample_every as u64);
        self.seen += 1;
        if pick {
            self.alloc_sampled(flow)
        } else {
            NO_SKB
        }
    }

    /// Hand out an id for a candidate its caller already sampled (the churn
    /// engine draws one connection in `trace_sample` itself), so only the
    /// per-flow filter applies.
    pub fn alloc_sampled(&mut self, flow: u64) -> SkbId {
        if !self.admits(flow) {
            return NO_SKB;
        }
        self.next_id += 1;
        self.next_id - 1
    }

    #[inline]
    fn admits(&self, flow: u64) -> bool {
        self.cfg.enabled && self.cfg.flow.is_none_or(|want| want == flow)
    }

    /// Ids handed out so far: the traced skbs.
    pub fn skbs(&self) -> u64 {
        self.next_id
    }

    /// Stamp `skb` crossing `stage` on (`host`, `core`) at `t`. No-op for
    /// [`NO_SKB`] — callers pass the id through unconditionally and this
    /// single branch, inlined into the caller, keeps the disabled path free.
    #[inline]
    pub fn stamp(
        &mut self,
        skb: SkbId,
        flow: u64,
        stage: StageId,
        host: usize,
        core: usize,
        t: SimTime,
    ) {
        if skb != NO_SKB {
            self.record(skb, flow, stage, host, core, t);
        }
    }

    /// [`Self::stamp`] for a traced skb, kept out of line so that an
    /// untraced hook costs its caller the branch and no call.
    #[inline(never)]
    fn record(
        &mut self,
        skb: SkbId,
        flow: u64,
        stage: StageId,
        host: usize,
        core: usize,
        t: SimTime,
    ) {
        let idx = host * self.cores_per_host + core;
        debug_assert!(idx < self.rings.len(), "trace ring index out of range");
        if let Some(ring) = self.rings.get_mut(idx) {
            ring.push(TraceRecord {
                skb,
                flow,
                stage,
                t,
            });
        }
        let prev = match self.open.entry(skb) {
            // Terminal stamp: the skb's life ends here.
            Entry::Occupied(e) if stage == StageId::RecvCopy => Some(e.remove()),
            Entry::Occupied(mut e) => Some(e.insert((stage, t, e.get().2))),
            Entry::Vacant(e) => {
                if stage != StageId::RecvCopy {
                    e.insert((stage, t, t));
                }
                None
            }
        };
        let Some((prev, at, first)) = prev.filter(|_| t >= self.window_start) else {
            return;
        };
        if self.hists.is_empty() {
            self.hists = (0..=N_STAGES).map(|_| Histogram::new()).collect();
        }
        let ns = t.since(at).as_nanos();
        self.hists[prev as usize].record(ns);
        self.pending.push((prev, ns));
        if stage == StageId::RecvCopy {
            self.hists[N_STAGES].record(t.since(first).as_nanos());
        }
    }

    /// Window residency histograms in pipeline order, stages with samples
    /// only. Residency in stage *s* is the time from the *s* stamp to the
    /// next stamp on the same skb; a timeline's final stamp has none.
    pub fn stage_residency(&self) -> impl Iterator<Item = (StageId, &Histogram)> {
        StageId::ALL
            .into_iter()
            .zip(&self.hists)
            .filter(|(_, h)| h.count() > 0)
    }

    /// End-to-end latency (first stamp → [`StageId::RecvCopy`]) of the
    /// timelines that ended in the window; `None` when none did.
    pub fn end_to_end(&self) -> Option<&Histogram> {
        self.hists.get(N_STAGES).filter(|h| h.count() > 0)
    }

    /// Export records dropped to full rings. The fold is unaffected.
    pub fn overflows(&self) -> u64 {
        self.rings.iter().map(|r| r.overflow).sum()
    }

    /// Export records held by the rings.
    pub fn events(&self) -> u64 {
        self.rings.iter().map(|r| r.records.len() as u64).sum()
    }

    /// All records with their (host, core) context, sorted deterministically
    /// by (time, skb, stage) — the export order.
    pub fn sorted_records(&self) -> Vec<LocatedRecord> {
        let mut out: Vec<LocatedRecord> = Vec::with_capacity(self.events() as usize);
        for (idx, ring) in self.rings.iter().enumerate() {
            let host = idx / self.cores_per_host;
            let core = idx % self.cores_per_host;
            out.extend(ring.records.iter().map(|r| (host, core, *r)));
        }
        out.sort_by_key(|(_, _, r)| (r.t, r.skb, r.stage as u8));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn residencies(c: &TraceCollector) -> Vec<(StageId, u64, u64)> {
        c.stage_residency()
            .map(|(s, h)| (s, h.count(), h.percentiles().max))
            .collect()
    }

    #[test]
    fn disabled_collector_allocates_nothing_and_records_nothing() {
        let mut c = TraceCollector::disabled();
        assert!(!c.enabled());
        assert_eq!(c.alloc(0), NO_SKB);
        assert_eq!(c.alloc_sampled(0), NO_SKB);
        c.stamp(NO_SKB, 0, StageId::TcpTx, 0, 0, t(1));
        assert_eq!(c.events(), 0);
        assert_eq!(c.overflows(), 0);
        assert_eq!(c.skbs(), 0);
        assert_eq!(c.stage_residency().count(), 0);
        let mut got = Vec::new();
        c.drain_residencies(t(10), |s, ns| got.push((s, ns)));
        assert!(got.is_empty());
    }

    #[test]
    fn sampling_picks_every_nth_candidate() {
        let cfg = TraceConfig {
            enabled: true,
            sample_every: 3,
            ..TraceConfig::DISABLED
        };
        let mut c = TraceCollector::new(cfg, 1, 1);
        let picks: Vec<bool> = (0..9).map(|_| c.alloc(7) != NO_SKB).collect();
        assert_eq!(
            picks,
            [true, false, false, true, false, false, true, false, false]
        );
        assert_eq!(c.skbs(), 3);
    }

    #[test]
    fn presampled_ids_skip_the_draw_but_not_the_filter() {
        let cfg = TraceConfig {
            enabled: true,
            sample_every: 8,
            flow: Some(5),
            ..TraceConfig::DISABLED
        };
        let mut c = TraceCollector::new(cfg, 1, 1);
        assert_eq!(c.alloc_sampled(4), NO_SKB);
        assert!((0..3).all(|_| c.alloc_sampled(5) != NO_SKB));
        // Nor do they consume sampling slots: the next candidate is drawn.
        assert_ne!(c.alloc(5), NO_SKB);
        assert_eq!(c.skbs(), 4);
    }

    #[test]
    fn flow_filter_excludes_other_flows() {
        let cfg = TraceConfig {
            enabled: true,
            flow: Some(5),
            ..TraceConfig::DISABLED
        };
        let mut c = TraceCollector::new(cfg, 1, 1);
        assert_eq!(c.alloc(4), NO_SKB);
        assert_ne!(c.alloc(5), NO_SKB);
        // Filtered-out flows must not consume sampling slots.
        assert_ne!(c.alloc(5), NO_SKB);
    }

    #[test]
    fn ring_overflow_is_counted_not_silent() {
        let cfg = TraceConfig {
            enabled: true,
            ring_capacity: 2,
            ..TraceConfig::DISABLED
        };
        let mut c = TraceCollector::new(cfg, 1, 1);
        for i in 0..5 {
            let id = c.alloc(0);
            c.stamp(id, 0, StageId::TcpTx, 0, 0, t(i));
        }
        assert_eq!(c.events(), 2);
        assert_eq!(c.overflows(), 3);
    }

    #[test]
    fn residency_is_time_between_consecutive_stamps() {
        let mut c = TraceCollector::new(TraceConfig::enabled(), 2, 1);
        let id = c.alloc(1);
        c.stamp(id, 1, StageId::AppWrite, 0, 0, t(100));
        c.stamp(id, 1, StageId::TcpTx, 0, 0, t(150));
        c.stamp(id, 1, StageId::Wire, 0, 0, t(400));
        c.stamp(id, 1, StageId::RecvCopy, 1, 0, t(1100));
        assert_eq!(c.skbs(), 1);
        assert_eq!(c.events(), 4);
        assert_eq!(
            residencies(&c),
            [
                (StageId::AppWrite, 1, 50),
                (StageId::TcpTx, 1, 250),
                (StageId::Wire, 1, 700)
            ]
        );
        let e2e = c.end_to_end().expect("a timeline ended");
        assert_eq!((e2e.count(), e2e.percentiles().max), (1, 1000));
    }

    #[test]
    fn incomplete_timeline_has_no_end_to_end_sample() {
        let mut c = TraceCollector::new(TraceConfig::enabled(), 2, 1);
        let id = c.alloc(1);
        c.stamp(id, 1, StageId::TcpTx, 0, 0, t(10));
        c.stamp(id, 1, StageId::Gro, 1, 0, t(90));
        assert!(c.end_to_end().is_none());
        assert_eq!(residencies(&c), [(StageId::TcpTx, 1, 80)]);
    }

    #[test]
    fn only_residencies_closing_in_the_window_fold() {
        let mut c = TraceCollector::new(TraceConfig::enabled(), 2, 1);
        c.set_window_start(t(200));
        let id = c.alloc(1);
        c.stamp(id, 1, StageId::AppWrite, 0, 0, t(100));
        c.stamp(id, 1, StageId::TcpTx, 0, 0, t(150)); // closes in warmup
        c.stamp(id, 1, StageId::Wire, 0, 0, t(200)); // closes at the start
        c.stamp(id, 1, StageId::RecvCopy, 1, 0, t(900));
        assert_eq!(
            residencies(&c),
            [(StageId::TcpTx, 1, 50), (StageId::Wire, 1, 700)]
        );
        // End to end spans the whole timeline; its closing stamp decides.
        assert_eq!(c.end_to_end().map(|h| h.percentiles().max), Some(800));
        let mut got = Vec::new();
        c.drain_residencies(t(1000), |s, ns| got.push((s, ns)));
        assert_eq!(got, [(StageId::TcpTx, 50), (StageId::Wire, 700)]);
    }

    #[test]
    fn drained_residencies_match_the_fold() {
        let mut c = TraceCollector::new(TraceConfig::enabled(), 2, 1);
        let id = c.alloc(1);
        c.stamp(id, 1, StageId::AppWrite, 0, 0, t(100));
        c.stamp(id, 1, StageId::TcpTx, 0, 0, t(150));
        c.stamp(id, 1, StageId::RecvCopy, 1, 0, t(400));
        let mut got = Vec::new();
        c.drain_residencies(t(1000), |s, ns| got.push((s, ns)));
        assert_eq!(got, [(StageId::AppWrite, 50), (StageId::TcpTx, 250)]);
        assert_eq!(
            residencies(&c),
            [(StageId::AppWrite, 1, 50), (StageId::TcpTx, 1, 250)]
        );
        // Drained means drained.
        let mut again = Vec::new();
        c.drain_residencies(t(1001), |s, ns| again.push((s, ns)));
        assert!(again.is_empty());
    }

    #[test]
    fn fold_ignores_ring_overflow() {
        let cfg = TraceConfig {
            enabled: true,
            ring_capacity: 1,
            ..TraceConfig::DISABLED
        };
        let mut c = TraceCollector::new(cfg, 1, 1);
        let id = c.alloc(0);
        c.stamp(id, 0, StageId::AppWrite, 0, 0, t(0));
        c.stamp(id, 0, StageId::TcpTx, 0, 0, t(10));
        c.stamp(id, 0, StageId::Qdisc, 0, 0, t(30));
        assert_eq!(c.overflows(), 2, "ring is saturated");
        assert_eq!(
            residencies(&c),
            [(StageId::AppWrite, 1, 10), (StageId::TcpTx, 1, 20)],
            "overflowed rings must not truncate the fold"
        );
    }

    #[test]
    fn quiet_timelines_are_pruned() {
        let mut c = TraceCollector::new(TraceConfig::enabled(), 2, 1);
        let id = c.alloc(1);
        // A GRO-merged frame: timeline ends without a terminal stamp.
        c.stamp(id, 1, StageId::Gro, 1, 0, t(100));
        c.drain_residencies(t(PRUNE_AFTER_NS + 200), |_, _| {});
        // A much later stamp on the same id must not pair with the stale
        // entry (it was pruned), so no bogus residency appears.
        c.stamp(id, 1, StageId::TcpRx, 1, 0, t(PRUNE_AFTER_NS + 500));
        let mut got = Vec::new();
        c.drain_residencies(t(PRUNE_AFTER_NS + 1000), |s, ns| got.push((s, ns)));
        assert!(got.is_empty(), "pruned entry paired anyway: {got:?}");
    }

    #[test]
    fn a_closed_timeline_neither_folds_nor_stays_open() {
        let mut c = TraceCollector::new(TraceConfig::enabled(), 2, 1);
        let (merged, head) = (c.alloc(1), c.alloc(1));
        c.stamp(merged, 1, StageId::Napi, 1, 0, t(100));
        c.stamp(merged, 1, StageId::Gro, 1, 0, t(120));
        c.stamp(head, 1, StageId::Gro, 1, 0, t(110));
        c.close(merged);
        c.close(NO_SKB);
        assert!(!c.open.contains_key(&merged), "closed at the merge");
        assert!(c.open.contains_key(&head), "other timelines stay open");
        // Only the residency the Gro stamp closed folds; the closed
        // timeline's last (Gro) residency never does.
        let mut got = Vec::new();
        c.drain_residencies(t(200), |s, ns| got.push((s, ns)));
        assert_eq!(got, [(StageId::Napi, 20)]);
        assert_eq!(residencies(&c), [(StageId::Napi, 1, 20)]);
        assert_eq!(c.events(), 3, "the export rings keep every stamp");
        // A stray later stamp on the closed id starts afresh: no residency
        // pairs it with the entry the close dropped.
        c.stamp(merged, 1, StageId::TcpRx, 1, 0, t(300));
        c.drain_residencies(t(400), |s, ns| got.push((s, ns)));
        assert_eq!(got, [(StageId::Napi, 20)]);
    }

    #[test]
    fn sorted_records_order_is_deterministic() {
        let mut c = TraceCollector::new(TraceConfig::enabled(), 2, 2);
        let a = c.alloc(1);
        let b = c.alloc(1);
        // Same timestamp on different cores: order must fall back to skb id.
        c.stamp(b, 1, StageId::TcpTx, 0, 1, t(50));
        c.stamp(a, 1, StageId::TcpTx, 0, 0, t(50));
        c.stamp(a, 1, StageId::Wire, 0, 0, t(20));
        let recs = c.sorted_records();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].2.t, t(20));
        assert_eq!(recs[1].2.skb, a);
        assert_eq!(recs[2].2.skb, b);
    }
}
