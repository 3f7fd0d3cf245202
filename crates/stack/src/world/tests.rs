//! Unit tests of the world: topology and monitor preflight errors, churn
//! connection tracing and timer carriers, the segment slab, and held step
//! ends.

use super::*;

#[test]
fn bad_fabric_size_is_a_run_error_not_a_panic() {
    for hosts in [1, MAX_HOSTS + 1] {
        let mut w = World::new(SimConfig {
            fabric: Some(FabricConfig::neutral(hosts)),
            ..SimConfig::default()
        });
        let err = w
            .try_run(Duration::from_millis(1), Duration::from_millis(1))
            .unwrap_err();
        assert_eq!(err.kind, RunErrorKind::BadTopology, "{hosts} hosts");
        assert!(err.detail.contains("fabric of"), "{}", err.detail);
    }
    let w = World::new(SimConfig {
        fabric: Some(FabricConfig::neutral(MAX_HOSTS)),
        ..SimConfig::default()
    });
    assert!(w.topo_error.is_none());
}

#[test]
fn bad_monitor_config_is_a_run_error_not_a_panic() {
    let monitor = hns_monitor::MonitorConfig {
        interval: Duration::ZERO,
    };
    let mut w = World::new(SimConfig {
        monitor: Some(monitor),
        ..SimConfig::default()
    });
    assert!(w.monitor.is_none(), "{monitor:?} built a monitor");
    let err = w
        .try_run(Duration::from_millis(1), Duration::from_millis(1))
        .unwrap_err();
    assert_eq!(err.kind, RunErrorKind::BadMonitorConfig, "{monitor:?}");
    assert!(err.detail.contains("monitor"), "{}", err.detail);
}

/// The churn engine's `trace_sample` is a connection's only draw: one
/// connection in N is traced, not one in N² through the tracer's own
/// skb sampling. A flow filter that admits no connection leaves every
/// connection untraced: no id, no `TRACED` flag, no map entry.
#[test]
fn churn_traces_one_connection_in_trace_sample() {
    use hns_conn::{ChurnConfig, ChurnMode};
    for (n, flow) in [(1, None), (8, None), (1, Some(u64::MAX - 1))] {
        let mut w = World::new(SimConfig {
            churn: Some(ChurnConfig {
                mode: ChurnMode::HandshakeOnly,
                trace_sample: n,
                ..ChurnConfig::default()
            }),
            trace: hns_trace::TraceConfig {
                sample_every: n,
                flow,
                ..hns_trace::TraceConfig::enabled()
            },
            ..SimConfig::default()
        });
        w.run(Duration::from_millis(2), Duration::from_millis(8));
        let eng = w.churn.as_ref().expect("churn engine");
        let arrivals = eng.arrival_seq;
        assert!(arrivals > 500, "{arrivals} arrivals");
        let want = if flow.is_some() {
            0
        } else {
            arrivals.div_ceil(n as u64)
        };
        assert_eq!(w.trace.skbs(), want, "N = {n}, flow {flow:?}");
        if flow.is_some() {
            assert!(
                eng.traced.is_empty(),
                "{} refused ids kept",
                eng.traced.len()
            );
        }
    }
}

/// A short-RPC churn run at `syn_rto` on a lossless wire, audited (so
/// the conn-timer ledger runs at every tick), over a 5 ms warmup and a
/// 30 ms window: the world, its report and the events it processed.
fn lossless_churn(syn_rto: Duration) -> (World, Report, u64) {
    use hns_conn::{ChurnConfig, ChurnMode};
    let mut w = World::new(SimConfig {
        churn: Some(ChurnConfig {
            mode: ChurnMode::ShortRpc,
            rate_cps: 50_000.0,
            syn_rto,
            ..ChurnConfig::default()
        }),
        audit: true,
        ..SimConfig::default()
    });
    let r = w
        .try_run(Duration::from_millis(5), Duration::from_millis(30))
        .expect("audited churn run");
    let events = w.events_processed();
    (w, r, events)
}

/// The carrier rule's payoff: a connection re-arms its timer on every
/// segment (SYN, request, FIN), but files one carrier while it lives
/// under one `syn_rto`. No timer expires on a lossless wire, so a
/// `syn_rto` past the run's end changes nothing but when the carriers
/// come due — never — and the difference in events processed is the
/// carriers that fired.
#[test]
fn churn_fires_at_most_one_conn_timer_per_connection() {
    let (w, r, events) = lossless_churn(hns_conn::ChurnConfig::default().syn_rto);
    let (_, r_never, events_never) = lossless_churn(Duration::from_secs(1));
    let conn = r.conn.expect("churn summary");
    assert_eq!(conn.retransmits, 0, "a timeout on a lossless wire");
    assert_eq!(r.conn, r_never.conn, "the timers moved the run");
    let conns = w.churn.as_ref().expect("churn engine").arrival_seq;
    let carriers = events - events_never;
    assert!(conns > 1000, "{conns} connections");
    assert!(
        carriers > 0 && carriers <= conns,
        "{carriers} carriers fired for {conns} connections"
    );
}

#[test]
fn segment_slab_recycles_slots() {
    let mut w = World::new(SimConfig::default());
    let flow = w.add_flow(FlowSpec::between(0, 0, 1, 0));
    w.add_app(0, 0, AppSpec::LongSender { flow });
    w.add_app(1, 0, AppSpec::LongReceiver { flow });
    w.run(Duration::from_millis(5), Duration::from_millis(8));
    // A new slot is pushed only when none is free, so the slab's length
    // is the peak number of frames between Tx enqueue and the poll:
    // about one window's worth for one flow, against ~10k frames sent.
    let frames = w.wire.frames();
    let high_water = w.in_flight.recs.len() as u64;
    assert!(w.in_flight.live() as u64 <= high_water);
    assert!(
        high_water > 0 && high_water * 20 < frames,
        "{high_water} slots for {frames} frames"
    );
}

/// Parking a segment as a wire record and taking it at the poll gives back
/// the identical segment, whatever its shape; taking or releasing an ACK
/// frees its SACK side entry.
#[test]
fn segment_slab_round_trips_every_frame_shape() {
    let blocks = [(3000, 4000), (5000, 6000), (7000, 9000)];
    let mut shapes = vec![
        Segment::data(1, 0, 1448, false),
        Segment::data(2, u64::MAX - 9000, 9000, true),
        Segment::ack(3, 1 << 40, 6 << 20, true, SackBlocks::EMPTY),
    ];
    for n in 0..=blocks.len() {
        let sack = SackBlocks::from_ranges(blocks[..n].iter().copied());
        shapes.push(Segment::ack(4, 2000, 65_535, false, sack));
        shapes.push(Segment::ack(5, 2000, 0, true, sack));
    }
    for phase in [
        ConnPhase::Syn,
        ConnPhase::SynAck,
        ConnPhase::SynAckCookie,
        ConnPhase::HsAck,
        ConnPhase::CookieAck,
        ConnPhase::Reset,
        ConnPhase::Request { len: 4096 },
        ConnPhase::Response { len: 1 },
        ConnPhase::Response { len: u32::MAX },
        ConnPhase::Fin,
        ConnPhase::FinAck,
    ] {
        shapes.push(Segment::conn(u64::MAX - 7, phase));
    }
    for (i, seg) in shapes.iter_mut().enumerate() {
        seg.trace = if i % 2 == 0 {
            100 + i as u64
        } else {
            hns_proto::segment::NO_TRACE
        };
    }

    let mut slab = SegmentSlab::default();
    for &seg in &shapes {
        let slot = slab.park(seg);
        assert_eq!(slab.take(slot), seg);
        // The network's CE mark, set in place, survives the trip.
        let slot = slab.park(seg);
        slab.mark_ce(slot);
        assert_eq!(
            slab.take(slot),
            Segment {
                ecn_ce: true,
                ..seg
            }
        );
        let marked = Segment {
            ecn_ce: true,
            ..seg
        };
        let slot = slab.park(marked);
        assert_eq!(slab.take(slot), marked);
    }
    assert_eq!((slab.live(), slab.live_sacks()), (0, 0));

    // All parked at once, then half taken and half released.
    let slots: Vec<u32> = shapes.iter().map(|&s| slab.park(s)).collect();
    assert_eq!(slab.live(), shapes.len());
    assert_eq!(slab.live_sacks(), 2 * blocks.len());
    assert_eq!(slab.sack_refs(), slab.live_sacks());
    for (i, (&slot, &seg)) in slots.iter().zip(&shapes).enumerate() {
        if i % 2 == 0 {
            assert_eq!(slab.take(slot), seg);
        } else {
            slab.release(slot);
        }
        assert_eq!(slab.sack_refs(), slab.live_sacks());
    }
    assert_eq!((slab.live(), slab.live_sacks()), (0, 0));
    assert_eq!(slab.sacks.len(), 2 * blocks.len(), "side entries reused");
}

/// Every path that drops a frame between Tx enqueue and the NAPI poll
/// frees its segment's slot: an audited run that takes each path
/// records drops of that kind, and the slab ledger (checked at every
/// autotune tick and at teardown) stays balanced.
#[test]
fn segment_slab_frees_every_drop_path() {
    use hns_conn::{ChurnConfig, ChurnMode};
    use hns_faults::LossModel;

    /// Run `cfg` audited with a long flow per `(src, dst)` pair, and
    /// return the world for its drop counters.
    fn audited(name: &str, cfg: SimConfig, pairs: &[(usize, usize)]) -> World {
        let mut w = World::new(SimConfig { audit: true, ..cfg });
        for (i, &(src, dst)) in pairs.iter().enumerate() {
            let flow = w.add_flow(FlowSpec::between(src, i as u16, dst, i as u16));
            w.add_app(src, i as u16, AppSpec::LongSender { flow });
            w.add_app(dst, i as u16, AppSpec::LongReceiver { flow });
        }
        if let Err(e) = w.try_run(Duration::from_millis(2), Duration::from_millis(8)) {
            panic!("{name}: {e}");
        }
        w
    }
    let base = SimConfig::default();

    let mut lossy = base;
    lossy.link.loss = LossModel::uniform(0.01);
    let w = audited("wire loss", lossy, &[(0, 1)]);
    assert!(w.drop_stats.wire > 0, "no wire loss");

    let small_buffer = SimConfig {
        fabric: Some(FabricConfig {
            buffer_bytes: 32 * 1024,
            ..FabricConfig::neutral(3)
        }),
        ..base
    };
    let w = audited("switch refusal", small_buffer, &[(0, 2), (1, 2)]);
    assert!(w.drop_stats.switch_buffer > 0, "no switch refusal");

    let capped = SimConfig {
        max_backlog: 2,
        ..base
    };
    let w = audited("backlog cap", capped, &[(0, 1)]);
    assert!(w.drop_stats.gro_overflow > 0, "no backlog-cap drop");

    let mut few_descriptors = base;
    few_descriptors.stack.rx_descriptors = 16;
    let w = audited("ring full", few_descriptors, &[(0, 1)]);
    assert!(w.drop_stats.rx_ring > 0, "no ring-full drop");

    // A SYN timeout shorter than the handshake's round trip sends
    // duplicate handshake frames, and a 2 µs TIME_WAIT reaps their
    // connection before the duplicates land.
    let churn = SimConfig {
        churn: Some(ChurnConfig {
            mode: ChurnMode::ShortRpc,
            rate_cps: 100_000.0,
            syn_rto: Duration::from_micros(2),
            time_wait: Duration::from_micros(2),
            reap_interval: Duration::from_micros(2),
            ..ChurnConfig::default()
        }),
        ..base
    };
    let w = audited("stale conn frame", churn, &[]);
    let stale: u64 = w.audit.as_ref().map_or(0, |a| a.stale_frames.iter().sum());
    assert!(stale > 0, "no stale connection frame");
}

/// A pure ACK of `flow` reaches its sender, host 0.
fn arrive_ack(w: &mut World, flow: FlowId) {
    let ack = Segment::ack(flow, 0, 1 << 20, false, Default::default());
    let slot = w.in_flight.park(ack);
    w.frame_arrive(0, slot);
}

/// The keys of the pending `StepDone`s.
fn step_dones(w: &World) -> Vec<EventKey> {
    let pending = w.queue.pending();
    let steps = pending.filter(|(_, ev)| matches!(ev, Event::StepDone { .. }));
    steps.map(|(key, _)| key).collect()
}

/// A world in which one pure ACK reached host 0's ACK core, raised the
/// IRQ that masks NAPI, and was polled by a softirq step that left nothing
/// waiting, so the core holds the step's end; nothing has fired yet. A key
/// at `before` is reserved ahead of the step, so it takes a lower
/// sequence number than the end. Returns the world, the flow, the core,
/// the held end and that key.
fn held_step(before: Option<SimTime>) -> (World, FlowId, usize, EventKey, Option<EventKey>) {
    let mut w = World::new(SimConfig::default());
    let flow = w.add_flow(FlowSpec::between(0, 0, 1, 0));
    let core = w.flows[flow as usize].ack_irq_core as usize;
    let early = before.map(|t| w.queue.reserve(t));
    arrive_ack(&mut w, flow);
    assert_eq!(
        w.lanes.lane_len(IRQ_LANE),
        1,
        "the first frame raises the IRQ"
    );
    w.raise_softirq(0, core); // the IRQ's delivery
    let end = w.hosts[0].cores[core].step_end;
    assert_ne!(
        end,
        EventKey::NONE,
        "a step leaving nothing waiting holds its end"
    );
    assert!(end.time > SimTime::ZERO, "the step takes time");
    assert!(step_dones(&w).is_empty(), "a held end files no StepDone");
    (w, flow, core, end, early)
}

/// A frame handled under `firing` reaches the core: held ends settle
/// against that key.
fn arrive_at(w: &mut World, flow: FlowId, firing: EventKey) {
    w.firing = firing;
    arrive_ack(w, flow);
}

/// The step ended at its held key: the core is idle, NAPI unmasked, so the
/// frame raised a second IRQ, and no `StepDone` was filed.
fn assert_completed(w: &World, core: usize) {
    assert_eq!(w.hosts[0].cores[core].step_end, EventKey::NONE);
    assert!(step_dones(w).is_empty(), "a completed step files nothing");
    assert!(w.hosts[0].sched.is_fully_idle(core));
    assert_eq!(w.lanes.lane_len(IRQ_LANE), 2, "NAPI was unmasked");
    assert_eq!(w.hosts[0].cores[core].irqs_pending, 1);
}

/// The frame came before the step's end: the end is filed as the
/// `StepDone` under the held key, and NAPI, still masked, raises no IRQ.
fn assert_filed(w: &World, core: usize, end: EventKey) {
    assert_eq!(w.hosts[0].cores[core].step_end, EventKey::NONE);
    assert_eq!(step_dones(w), vec![end], "filed under the held key");
    assert_eq!(w.hosts[0].sched.running(core), Some(Task::Softirq));
    assert_eq!(w.lanes.lane_len(IRQ_LANE), 1, "NAPI is still masked");
    assert_eq!(w.hosts[0].cores[core].irqs_pending, 0);
}

#[test]
fn frame_mid_step_files_the_held_step_done() {
    let (mut w, flow, core, end, _) = held_step(None);
    let mid = w
        .queue
        .reserve(SimTime::from_nanos(end.time.as_nanos() / 2));
    arrive_at(&mut w, flow, mid);
    assert_filed(&w, core, end);
}

#[test]
fn frame_after_the_end_completes_the_step_first() {
    let (mut w, flow, core, end, _) = held_step(None);
    let after = w.queue.reserve(end.time + Duration::from_nanos(1));
    arrive_at(&mut w, flow, after);
    assert_completed(&w, core);
}

#[test]
fn frame_at_the_ends_nanosecond_orders_by_sequence_number() {
    // Reserved after the step, the arrival's key sorts after the end.
    let (mut w, flow, core, end, _) = held_step(None);
    let later = w.queue.reserve(end.time);
    assert!(later > end);
    arrive_at(&mut w, flow, later);
    assert_completed(&w, core);

    // Reserved before the step, it sorts before the end.
    let (mut w, flow, core, end, early) = held_step(Some(end.time));
    let early = early.expect("reserved ahead of the step");
    assert!(early.time == end.time && early < end);
    arrive_at(&mut w, flow, early);
    assert_filed(&w, core, end);
}
