//! The send path: an application `write()` into the send buffer, TCP
//! transmission and TSO into the NIC's Tx queues, the drain that
//! serializes frames onto the fabric, and the sender's ACK processing that
//! clocks it.

use hns_mem::pages_for;
use hns_metrics::{Category, CycleBreakdown};
use hns_nic::link::TransmitOutcome;
use hns_nic::tso;
use hns_proto::{FlowId, Segment, HEADER_BYTES};
use hns_trace::StageId;

use super::{arrival_lane, drain_lane, Event, FrameKind, World};

impl World {
    /// Process an incoming ACK at the data sender (host `h`).
    pub(super) fn process_ack(
        &mut self,
        fid: usize,
        ack: u64,
        window: u64,
        ecn_echo: bool,
        sack: hns_proto::SackBlocks,
        ch: &mut CycleBreakdown,
    ) {
        let now = self.queue.now();
        let h = self.flows[fid].spec.src_host;
        let action = self.flows[fid]
            .sender
            .on_ack(now, ack, window, ecn_echo, &sack);
        if action.newly_acked > 0 {
            // Send-buffer space freed: update warm-buffer accounting and
            // wake a blocked writer.
            let node = self.hosts[h].cores[self.flows[fid].spec.src_core as usize].node;
            self.hosts[h].adjust_send_active(node, -(action.newly_acked as i64));
            if self.flows[fid].sender.can_write(self.cfg.write_size as u64) {
                if let Some(tid) = self.flows[fid].writer_tid {
                    self.wake(h, tid, ch);
                }
            }
        }
        if action.fast_retransmit {
            ch.charge(Category::TcpIp, self.cost.retransmit_extra);
        }
        if action.try_transmit {
            self.pump(fid, ch);
        }
        self.sync_rto(fid);
    }

    /// One application `write()` of `bytes` on flow `fid`: the syscall,
    /// the user→kernel copy, the send-buffer append, then as much
    /// transmission as the windows allow.
    pub(super) fn app_send(&mut self, fid: usize, bytes: u64, ch: &mut CycleBreakdown) {
        ch.charge(Category::Etc, self.cost.syscall_write);
        self.charge_sender_copy(fid, bytes, ch);
        self.flows[fid].sender.app_write(bytes);
        let spec = self.flows[fid].spec;
        let node = self.hosts[spec.src_host].cores[spec.src_core as usize].node;
        self.hosts[spec.src_host].adjust_send_active(node, bytes as i64);
        self.pump(fid, ch);
        self.sync_rto(fid);
    }

    /// Fixed L3 working-set footprint per sending flow beyond its unacked
    /// buffer bytes: the application's user send buffer plus skb metadata
    /// and page churn. Calibrated so 24 outcast flows reach the paper's
    /// ~11% sender miss rate (Fig. 7c).
    const SENDER_FLOW_FOOTPRINT: u64 = 576 * 1024;

    /// Charge the user→kernel transfer of `bytes`: a payload copy through
    /// the statistical sender L3 model, or — with `MSG_ZEROCOPY` (§4) —
    /// per-page pinning plus a completion notification.
    fn charge_sender_copy(&mut self, fid: usize, bytes: u64, ch: &mut CycleBreakdown) {
        // Remember the write instant so traced frames emitted from these
        // bytes can stamp AppWrite/CopyIn retroactively.
        self.flows[fid].last_write_at = self.queue.now();
        if self.cfg.stack.zerocopy_tx {
            let pages = pages_for(bytes);
            ch.charge(Category::Memory, pages * self.cost.zc_tx_pin_page);
            ch.charge(Category::Etc, self.cost.zc_tx_completion);
            return;
        }
        let f = &self.flows[fid];
        let h = f.spec.src_host;
        let node = self.hosts[h].cores[f.spec.src_core as usize].node;
        let active = self.hosts[h].send_active(node)
            + self.hosts[h].node_sender_flows[node as usize] as u64 * Self::SENDER_FLOW_FOOTPRINT;
        let miss = self.hosts[h].sender_l3.miss_rate(active);
        ch.charge(
            Category::DataCopy,
            self.cost.sender_copy_cycles(bytes, miss),
        );
        // Bypass transmits straight from pre-registered user buffers: its
        // table prices no copy, and no copied bytes are counted.
        if self.measuring && self.dp.copies_payload() {
            let miss_bytes = (bytes as f64 * miss) as u64;
            self.hosts[h].tx_copy_cache.miss_bytes += miss_bytes;
            self.hosts[h].tx_copy_cache.hit_bytes += bytes - miss_bytes;
        }
    }

    /// Pump as much of `fid`'s send queue into the NIC as the windows
    /// allow. BBR flows arm the pacer instead.
    pub(super) fn pump(&mut self, fid: usize, ch: &mut CycleBreakdown) {
        if self.flows[fid].sender.pacing_rate().is_some() {
            self.arm_pacer(fid);
            return;
        }
        while self.transmit_one(fid, ch) {}
    }

    /// Emit one (TSO-sized) segment. Returns false when nothing was
    /// sendable.
    pub(super) fn transmit_one(&mut self, fid: usize, ch: &mut CycleBreakdown) -> bool {
        let now = self.queue.now();
        let max = self.cfg.stack.max_tx_payload();
        let seg = match self.flows[fid].sender.next_segment(now, max) {
            Some(s) => s,
            None => return false,
        };
        let (seq0, len, rtx) = match seg.data_view() {
            Some(d) => (d.seq, d.len, d.retransmit),
            None => {
                // Senders only emit data today; if a control segment ever
                // appears here, forward it untouched rather than abort.
                let spec = self.flows[fid].spec;
                self.enqueue_frames(spec.src_host, spec.src_core as usize, seg);
                return true;
            }
        };
        let mss = self.cfg.stack.mss();
        let nframes = tso::frame_count(len, mss) as u64;
        ch.charge(
            Category::TcpIp,
            self.cost.tcp_tx_cycles(len) + if rtx { self.cost.retransmit_extra } else { 0 },
        );
        ch.charge(Category::Memory, self.cost.skb_alloc_tx);
        ch.charge(Category::SkbMgmt, self.cost.skb_build_tx);
        let h = self.flows[fid].spec.src_host;
        let (reaped, posted) = if self.dp.keeps_tx_desc_rings() {
            // Reap completions of frames the NIC already put on the wire,
            // then post one descriptor per outgoing frame. The ring meters
            // bookkeeping cycles; it is sized never to gate transmission
            // (in-flight descriptors are window-bounded).
            let ring = &mut self.descrings[h];
            let reaped = ring.harvest(u64::MAX);
            let posted = (0..nframes)
                .take_while(|_| ring.try_post().is_some())
                .count();
            (reaped, posted as u64)
        } else {
            (0, 0)
        };
        ch.charge(
            Category::NetDevice,
            self.cost.qdisc_tx_cycles(nframes)
                + reaped * self.cost.desc_complete
                + posted * self.cost.desc_post,
        );
        let queue = self.flows[fid].spec.src_core as usize;
        let wrote = self.flows[fid].last_write_at;
        // Bulk-enqueue the whole TSO burst: frames are built and parked
        // lazily while the arbiter hoists its queue lookup out of the loop.
        let trace = &mut self.trace;
        let slab = &mut self.in_flight;
        let mut off = 0u64;
        let frames = tso::segment(len, mss).map(|flen| {
            let mut frame_seg = Segment::data(fid as FlowId, seq0 + off, flen, rtx);
            let tid = trace.alloc(fid as u64);
            if tid != hns_trace::NO_SKB {
                frame_seg.trace = tid;
                trace.stamp(tid, fid as u64, StageId::AppWrite, h, queue, wrote);
                trace.stamp(tid, fid as u64, StageId::CopyIn, h, queue, wrote);
                trace.stamp(tid, fid as u64, StageId::TcpTx, h, queue, now);
                trace.stamp(tid, fid as u64, StageId::Gso, h, queue, now);
                trace.stamp(tid, fid as u64, StageId::Qdisc, h, queue, now);
            }
            off += flen as u64;
            (flen, slab.park(frame_seg))
        });
        self.arbiters[h].enqueue_all(queue, frames);
        self.arm_txdrain(h);
        true
    }

    fn arm_txdrain(&mut self, h: usize) {
        if !self.hosts[h].txdrain_armed && !self.arbiters[h].is_empty() {
            self.hosts[h].txdrain_armed = true;
            let at = self.wire.next_free(h).max(self.queue.now());
            self.lane_push(drain_lane(h), at, 0);
        }
    }

    /// Enqueue an already-built control segment (ACK / window update) for
    /// transmission from (host, core).
    pub(super) fn enqueue_frames(&mut self, h: usize, core: usize, seg: Segment) {
        let slot = self.in_flight.park(seg);
        self.arbiters[h].enqueue(core, seg.payload_len(), slot);
        self.arm_txdrain(h);
    }

    /// Serialize the next Tx-queued frame onto the fabric. The segment
    /// stays in its slab slot: a delivered frame's arrival carries the same
    /// slot (a CE mark is set in place), and a frame the switch refused or
    /// the wire lost releases it.
    pub(super) fn tx_drain(&mut self, h: usize) {
        let now = self.queue.now();
        let Some((payload, slot)) = self.arbiters[h].dequeue() else {
            self.hosts[h].txdrain_armed = false;
            return;
        };
        // Anything reaching the wire counts as forward progress for the
        // watchdog — even a dropped frame proves the sender's recovery
        // machinery is still alive.
        self.progress += 1;
        let rec = self.in_flight.record(slot);
        let (flow, tid) = (rec.flow, rec.trace);
        // Route the frame: data toward the flow's receiver, ACKs back toward
        // its sender, lifecycle frames to the churn peer. With two hosts
        // every case is `1 - h`. Conn segments carry a packed connection id
        // in `flow`, not a flow-table index; their lifecycle stamps happen
        // at the handshake stages instead.
        let (dst, is_data, is_conn) = match rec.kind() {
            FrameKind::Data => (self.flows[flow as usize].spec.dst_host, true, false),
            FrameKind::Ack => (self.flows[flow as usize].spec.src_host, false, false),
            FrameKind::Conn => (1 - h, false, true),
        };
        if self.dp.keeps_tx_desc_rings() && is_data {
            // The NIC consumed the posted descriptor; the host harvests (and
            // pays for) the completion at its next transmit call.
            self.descrings[h].complete(1);
        }
        // An untraced frame never loads its flow's `src_core`.
        let traced = tid != hns_trace::NO_SKB && !is_conn;
        if traced {
            let core = self.flows[flow as usize].spec.src_core as usize;
            self.trace.stamp(tid, flow, StageId::NicTx, h, core, now);
        }
        let wire = payload as u64 + HEADER_BYTES as u64;
        match self.wire.transmit(h, dst, flow, now, wire) {
            TransmitOutcome::Delivered { arrives, ce } => {
                if ce {
                    self.in_flight.mark_ce(slot);
                }
                if traced {
                    let core = self.flows[flow as usize].spec.src_core as usize;
                    self.trace.stamp(tid, flow, StageId::Wire, h, core, now);
                }
                let lane = arrival_lane(dst);
                if let Err(slot) = self.try_lane_push(lane, arrives, slot as u64) {
                    // A latency spike just ended: this frame lands before
                    // ones still on the wire, so the wheel orders it.
                    let (dst, slot) = (dst as u8, slot as u32);
                    self.queue
                        .schedule(arrives, Event::FrameArrive { dst, slot });
                }
            }
            TransmitOutcome::Dropped => {
                self.in_flight.release(slot);
                self.drop_stats.switch_buffer += 1;
            }
            TransmitOutcome::Lost => {
                self.in_flight.release(slot);
                self.drop_stats.wire += 1;
            }
        }
        if self.arbiters[h].is_empty() {
            self.hosts[h].txdrain_armed = false;
        } else {
            let at = self.wire.next_free(h).max(now);
            self.lane_push(drain_lane(h), at, 0);
        }
    }
}
