//! Property test for the tracer's residency fold against the timeline
//! rebuild it replaced.
//!
//! Random skbs with interleaved timelines (terminal and unterminated, with
//! zero, short and long gaps) are stamped into two collectors: one whose
//! export rings hold every record and one whose rings are as small as one
//! record. The oracle is the old post-hoc path: group the exported records
//! per skb, sort each timeline by (time, stage), take each consecutive
//! pair as the first stamp's residency, and take a timeline ending in
//! `recv_copy` as one end-to-end sample. Restricted to pairs whose closing
//! stamp lands at or after the window start, it must equal both
//! collectors' folds, and what each collector drains for the monitor.

use hns_sim::{Histogram, SimTime};
use hns_trace::collector::LocatedRecord;
use hns_trace::{StageId, TraceCollector, TraceConfig, TraceRecord, N_STAGES};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One stamp of a drawn timeline.
#[derive(Clone, Copy, Debug)]
struct Stamp {
    skb: u64,
    stage: StageId,
    t: u64,
    host: usize,
    core: usize,
}

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Skb `i`'s timeline from its draw `(start, stages, gaps)`: the stages
/// whose bit is set in `stages`, in pipeline order, ended by `recv_copy`
/// when bit 40 is set. Stamps on one skb never go back in time; a tie
/// keeps pipeline order, and `recv_copy` lands strictly after the stamp
/// before it, so the oracle's sort keeps stamp order.
fn timeline(i: u64, (start, stages, gaps): (u64, u64, u64)) -> Vec<Stamp> {
    let mut picked: Vec<StageId> = StageId::ALL
        .into_iter()
        .filter(|&s| s != StageId::RecvCopy && (stages >> s as u32) & 1 == 1)
        .collect();
    if picked.is_empty() {
        picked.push(StageId::AppWrite);
    }
    if (stages >> 40) & 1 == 1 {
        picked.push(StageId::RecvCopy);
    }
    let mut rng = gaps;
    let mut t = start % 2_000_000;
    let mut out = Vec::new();
    for (k, stage) in picked.into_iter().enumerate() {
        let r = splitmix(&mut rng);
        if k > 0 {
            t += match r % 4 {
                0 => 0,
                1 => (r >> 8) % 100,
                2 => (r >> 8) % 20_000,
                _ => (r >> 8) % 1_000_000,
            };
            if stage == StageId::RecvCopy {
                t += 1;
            }
        }
        out.push(Stamp {
            skb: i,
            stage,
            t,
            host: (r >> 32) as usize % 2,
            core: (r >> 40) as usize % 2,
        });
    }
    out
}

/// Every skb's stamps, interleaved in time order as a run would stamp
/// them (a stable sort, so one skb's same-time stamps keep their order).
fn interleave(draws: &[(u64, u64, u64)]) -> Vec<Stamp> {
    let mut all: Vec<Stamp> = draws
        .iter()
        .enumerate()
        .flat_map(|(i, &d)| timeline(i as u64, d))
        .collect();
    all.sort_by_key(|s| s.t);
    all
}

/// A collector with `ring_capacity`, its window opened at `window`, fed
/// `stamps`.
fn collect(stamps: &[Stamp], skbs: usize, ring_capacity: u32, window: SimTime) -> TraceCollector {
    let cfg = TraceConfig {
        ring_capacity,
        ..TraceConfig::enabled()
    };
    let mut c = TraceCollector::new(cfg, 2, 2);
    c.set_window_start(window);
    for i in 0..skbs as u64 {
        assert_eq!(c.alloc(0), i);
    }
    for s in stamps {
        c.stamp(s.skb, 0, s.stage, s.host, s.core, SimTime::from_nanos(s.t));
    }
    c
}

/// The timeline rebuild `stage_latency` used to come from, restricted to
/// closing stamps at or after `window`: per-stage residencies, end-to-end
/// latencies, and the residencies as `(stage, ns)` pairs.
fn oracle(
    records: &[LocatedRecord],
    window: SimTime,
) -> (Vec<Histogram>, Histogram, Vec<(StageId, u64)>) {
    let mut by_skb: BTreeMap<u64, Vec<TraceRecord>> = BTreeMap::new();
    for (_, _, r) in records {
        by_skb.entry(r.skb).or_default().push(*r);
    }
    let mut stages: Vec<Histogram> = (0..N_STAGES).map(|_| Histogram::new()).collect();
    let mut end_to_end = Histogram::new();
    let mut pairs = Vec::new();
    for tl in by_skb.values_mut() {
        tl.sort_by_key(|r| (r.t, r.stage as u8));
        for w in tl.windows(2) {
            let (a, b) = (w[0], w[1]);
            if b.t >= window {
                let ns = b.t.since(a.t).as_nanos();
                stages[a.stage as usize].record(ns);
                pairs.push((a.stage, ns));
            }
        }
        let (first, last) = (tl[0], tl[tl.len() - 1]);
        if last.stage == StageId::RecvCopy && last.t >= window {
            end_to_end.record(last.t.since(first.t).as_nanos());
        }
    }
    (stages, end_to_end, pairs)
}

/// Everything a report reads from a histogram.
fn shape(h: &Histogram) -> (u64, u64, u64, u64, Vec<(u64, u64)>) {
    (
        h.count(),
        h.mean().to_bits(),
        h.min(),
        h.percentiles().max,
        h.iter_buckets().collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fold_equals_the_window_restricted_timeline_rebuild(
        draws in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..80),
        window in 0u64..3_000_000,
        ring_capacity in 1u32..64,
    ) {
        let stamps = interleave(&draws);
        let window = SimTime::from_nanos(window);
        let full = collect(&stamps, draws.len(), stamps.len() as u32, window);
        let small = collect(&stamps, draws.len(), ring_capacity, window);
        prop_assert_eq!(full.overflows(), 0);
        prop_assert_eq!(
            small.overflows() + small.events(),
            stamps.len() as u64,
            "a full ring counts what it drops"
        );

        let (stages, end_to_end, mut pairs) = oracle(&full.sorted_records(), window);
        let want: Vec<_> = StageId::ALL
            .into_iter()
            .zip(&stages)
            .filter(|(_, h)| h.count() > 0)
            .map(|(s, h)| (s, shape(h)))
            .collect();
        pairs.sort_unstable();
        for mut c in [full, small] {
            let got: Vec<_> = c.stage_residency().map(|(s, h)| (s, shape(h))).collect();
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(
                c.end_to_end().map(shape),
                Some(shape(&end_to_end)).filter(|s| s.0 > 0)
            );
            let mut drained = Vec::new();
            c.drain_residencies(SimTime::ZERO, |s, ns| drained.push((s, ns)));
            drained.sort_unstable();
            prop_assert_eq!(&drained, &pairs, "the monitor's feed is the fold");
        }
    }
}
