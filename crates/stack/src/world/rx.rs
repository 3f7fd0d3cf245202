//! The receive path: a frame's arrival at the NIC, the IRQ, the softirq's
//! NAPI poll and GRO, TCP/IP receive into the socket, and the
//! application's `recv()` copy that ends an skb's life, with the Rx ring
//! replenish and DMA-buffer release around them.

use hns_mem::numa::MemClass;
use hns_mem::{pages_for, AllocOutcome};
use hns_metrics::{Category, CycleBreakdown};
use hns_proto::SegmentKind;
use hns_sim::Duration;
use hns_trace::StageId;

use super::{irq_value, FrameKind, World, IRQ_LANE};
use crate::config::DatapathKind;
use crate::host::PendingFrame;
use crate::skb::{RxFrame, RxSkb};

/// IRQ dispatch latency from the NIC raising an interrupt to its handler
/// running.
const IRQ_LATENCY: Duration = Duration::from_micros(1);

impl World {
    /// Pool pressure cleared: re-back the descriptors whose replenish
    /// failed during the window, charging the deferred page-allocation and
    /// IOMMU costs to each owning core.
    pub(super) fn repay_ring_deficits(&mut self, h: usize) {
        for core in 0..self.hosts[h].cores.len() {
            let deficit = std::mem::take(&mut self.hosts[h].cores[core].ring_deficit);
            if deficit == 0 {
                continue;
            }
            let added = self.hosts[h].rings[core].replenish(deficit);
            if added == 0 {
                continue;
            }
            let pages = pages_for(self.cfg.stack.mtu as u64) * added as u64;
            let out = self.hosts[h].pages.alloc(core as u16, pages);
            let mut ch = CycleBreakdown::default();
            self.back_rx_pages(h, pages, out, &mut ch);
            self.charge_core(h, core, ch);
        }
    }

    /// Back replenished Rx descriptors on host `h` with `pages` freshly
    /// allocated pages (`out`): map them in the IOMMU and charge the page
    /// allocation and the mappings. Offload backends recycle long-lived
    /// pre-registered buffers: the pool and IOMMU still operate (the
    /// ledgers must balance) but their cost table prices them at zero.
    fn back_rx_pages(&mut self, h: usize, pages: u64, out: AllocOutcome, ch: &mut CycleBreakdown) {
        let mapped = self.hosts[h].iommu.map(pages);
        let alloc =
            out.fast_pages * self.cost.page_alloc_fast + out.slow_pages * self.cost.page_alloc_slow;
        ch.charge(Category::Memory, alloc + mapped * self.cost.iommu_map);
    }

    /// One softirq step on (host `h`, `core`): the hard-IRQ and pacer work
    /// accumulated since the last step, then the NAPI poll of one
    /// sub-batch of frames ([`Self::poll_frame`]), the Rx ring replenish,
    /// and at the end of a poll cycle the GRO flush. Returns whether the
    /// softirq still has work.
    pub(super) fn exec_softirq(&mut self, h: usize, core: usize, ch: &mut CycleBreakdown) -> bool {
        // Hard-IRQ handler work accumulated since the last step. A
        // busy-polling backend never takes the interrupt.
        let irqs = std::mem::take(&mut self.hosts[h].cores[core].irqs_pending);
        ch.charge(Category::Etc, self.cost.irq_handler * irqs as u64);

        // BBR pacer releases queued on this core.
        while let Some(fid) = self.hosts[h].cores[core].pacer_ready.pop_front() {
            ch.charge(Category::Sched, self.cost.pacer_fire);
            self.paced_release(fid as usize, ch);
        }

        // NAPI poll: one sub-batch of frames.
        let batch = self
            .cfg
            .napi_batch
            .min(self.hosts[h].cores[core].backlog.len() as u32);
        if batch > 0 {
            ch.charge(Category::NetDevice, self.cost.napi_poll);
        }
        for _ in 0..batch {
            let pf = self.hosts[h].cores[core]
                .backlog
                .pop_front()
                .expect("batch bounded by backlog");
            self.poll_frame(h, core, pf, ch);
            self.hosts[h].cores[core].budget_used += 1;
        }
        if let Some(a) = self.audit.as_deref_mut() {
            a.polled[h] += batch as u64;
        }
        self.replenish_rx_ring(h, core, batch, ch);

        // End of a poll cycle: flush GRO state and close the simulated
        // server thread's epoll_wait batch (churn workloads).
        let cd = &mut self.hosts[h].cores[core];
        if cd.backlog.is_empty() || cd.budget_used >= self.cfg.napi_budget {
            cd.budget_used = 0;
            let mut flushed = std::mem::take(&mut self.gro_scratch);
            cd.gro.flush_all_into(&mut flushed);
            self.deliver_flushed(h, core, flushed, ch);
            self.conn_epoll_batch_end(h, core);
        }

        let cd = &self.hosts[h].cores[core];
        !cd.backlog.is_empty() || !cd.pacer_ready.is_empty()
    }

    /// Poll phase: take one frame off the backlog's slab slot. An ACK goes
    /// to the sender's state machine, a data frame goes to GRO
    /// ([`Self::gro_receive`]) or becomes an skb that TCP/IP receives at
    /// once, and a lifecycle frame goes to the churn engine.
    fn poll_frame(&mut self, h: usize, core: usize, pf: PendingFrame, ch: &mut CycleBreakdown) {
        let now = self.queue.now();
        let seg = self.in_flight.take(pf.slot);
        match seg.kind {
            SegmentKind::Ack {
                ack,
                window,
                ecn_echo,
                sack,
            } => {
                // In-kernel pays the driver and TCP ACK processing;
                // bypass sees the raw ACK frame on the polling core.
                // TOE: ACK clocking lives on-NIC; the host never sees
                // the frame, but the sender state machine still runs.
                ch.charge(
                    Category::NetDevice,
                    self.cost.driver_rx_ack + self.cost.bypass_poll_frame,
                );
                ch.charge(Category::TcpIp, self.cost.ack_rx);
                self.process_ack(seg.flow as usize, ack, window, ecn_echo, sack, ch);
            }
            SegmentKind::Data {
                seq,
                len,
                retransmit,
            } => {
                // In-kernel pays the driver and the skb; bypass's
                // per-frame harvest on the polling core is its whole Rx
                // pipeline. TOE: per-frame work happened on-NIC; the
                // host is charged per completion in `deliver_skb`. The
                // simulated kernel builds an skb per frame; the simulator
                // builds one only for a frame that starts an aggregate.
                ch.charge(
                    Category::NetDevice,
                    self.cost.driver_rx_frame + self.cost.bypass_poll_frame,
                );
                ch.charge(Category::Memory, self.cost.skb_alloc);
                ch.charge(Category::SkbMgmt, self.cost.skb_build);
                if self.cfg.stack.steering.software_cost() {
                    ch.charge(Category::NetDevice, self.cost.steering_sw);
                }
                let frame = RxFrame {
                    flow: seg.flow,
                    seq,
                    len,
                    frame: pf.frame.expect("data frames carry buffers"),
                    napi_ts: now,
                    ce: seg.ecn_ce,
                    retransmit,
                    trace: seg.trace,
                };
                self.trace
                    .stamp(seg.trace, seg.flow, StageId::Napi, h, core, now);
                if self.dp.busy_polls() {
                    self.trace
                        .stamp(seg.trace, seg.flow, StageId::BypassPoll, h, core, now);
                }
                if self.dp.rx_aggregates(&self.cfg.stack) {
                    self.gro_receive(h, core, frame, ch);
                } else {
                    let skb = frame.into_skb(&mut self.frag_pool);
                    self.deliver_skb(h, core, skb, ch);
                }
            }
            SegmentKind::Conn { phase } => {
                self.with_churn(|w, eng| w.conn_rx(eng, h, core, seg.flow, phase, ch));
            }
        }
    }

    /// GRO phase: offer a frame to the core's GRO table and deliver
    /// whatever the offer flushes. The host pays the skb build and the GRO
    /// work for every frame, merged or not ([`Self::poll_frame`]).
    fn gro_receive(&mut self, h: usize, core: usize, frame: RxFrame, ch: &mut CycleBreakdown) {
        let now = self.queue.now();
        // Software GRO costs cycles per merged frame; hardware aggregation
        // (LRO, TOE) is free.
        if self.cfg.stack.gro && !self.cfg.stack.lro {
            ch.charge(Category::NetDevice, self.cost.gro_per_frame);
        }
        let tid = frame.trace;
        self.trace
            .stamp(tid, frame.flow, StageId::Gro, h, core, now);
        let mut flushed = std::mem::take(&mut self.gro_scratch);
        let absorbed = self.hosts[h].cores[core].gro.offer_frame(
            frame,
            hns_nic::MAX_AGGREGATE,
            &mut self.frag_pool,
            &mut flushed,
        );
        if absorbed {
            // A merged frame's timeline ends here; the aggregate continues
            // under the head frame's id.
            self.trace.close(tid);
        }
        self.deliver_flushed(h, core, flushed, ch);
    }

    /// Deliver phase: hand the skbs GRO let go of to TCP/IP, in order, and
    /// return the emptied buffer to `gro_scratch` (so the softirq loop
    /// allocates no `Vec` per frame).
    fn deliver_flushed(
        &mut self,
        h: usize,
        core: usize,
        mut flushed: Vec<RxSkb>,
        ch: &mut CycleBreakdown,
    ) {
        for skb in flushed.drain(..) {
            self.deliver_skb(h, core, skb, ch);
        }
        self.gro_scratch = flushed;
    }

    /// The driver replenishes `core`'s Rx ring for the `consumed`
    /// descriptors the poll took.
    fn replenish_rx_ring(&mut self, h: usize, core: usize, consumed: u32, ch: &mut CycleBreakdown) {
        if consumed == 0 {
            return;
        }
        let added = self.hosts[h].rings[core].replenish(consumed);
        if added == 0 {
            return;
        }
        let pages = pages_for(self.cfg.stack.mtu as u64) * added as u64;
        match self.hosts[h].pages.try_alloc(core as u16, pages) {
            Some(out) => self.back_rx_pages(h, pages, out, ch),
            None => {
                // Injected pool pressure: the descriptors cannot be backed
                // by pages. Pull them back out of service and remember the
                // deficit; it is repaid (with its page and IOMMU costs)
                // when the pressure window ends.
                let taken = self.hosts[h].rings[core].unreplenish(added);
                self.hosts[h].cores[core].ring_deficit += taken;
            }
        }
    }

    /// Deliver a (possibly aggregated) skb to the TCP/IP layer and the
    /// owning socket. Runs in softirq context on `core` of host `h`.
    fn deliver_skb(&mut self, h: usize, core: usize, skb: RxSkb, ch: &mut CycleBreakdown) {
        let now = self.queue.now();
        if self.measuring {
            self.hosts[h].skb_sizes.record(skb.len as u64);
        }
        self.trace
            .stamp(skb.trace, skb.flow, StageId::TcpRx, h, core, now);
        let fid = skb.flow as usize;
        ch.charge(
            Category::TcpIp,
            self.cost.tcp_rx_cycles(skb.len) + self.cost.rx_queue_ops,
        );
        let f = &self.flows[fid];
        let contended = if f.irq_core != f.spec.dst_core {
            self.cost.sock_lock_contended
        } else {
            0
        };
        ch.charge(Category::Lock, self.cost.sock_lock + contended);
        if self.dp == DatapathKind::ToeOffload {
            // One completion descriptor per (NIC-aggregated) delivery
            // replaces the entire driver + skb + GRO + TCP-rx pipeline.
            self.trace
                .stamp(skb.trace, skb.flow, StageId::ToeComplete, h, core, now);
        }
        ch.charge(Category::NetDevice, self.cost.toe_rx_desc);

        let action = self.flows[fid].receiver.on_data(skb.seq, skb.len, skb.ce);
        let delivered = action.delivered;
        ch.charge(Category::TcpIp, self.cost.ack_gen);
        if action.out_of_order {
            ch.charge(Category::TcpIp, self.cost.tcp_ofo_per_skb);
        }

        if delivered == 0 && action.duplicate {
            // Wholly duplicate data: free the buffers immediately (the
            // kernel's OFO queue coalesces/drops duplicates). These frames
            // survived the wire and the NIC only to be discarded at the
            // socket — the `socket_queue` bucket of the drop taxonomy.
            self.drop_stats.socket_queue += skb.frags.len().max(1) as u64;
            self.consume_skb(h, core, skb, 0, ch);
        } else {
            // In-order or out-of-order: park the skb in sequence order.
            // The queue is kept sorted by seq, so a back-to-front scan
            // finds the insertion point in O(1) for in-order traffic.
            self.trace
                .stamp(skb.trace, skb.flow, StageId::SockQueue, h, core, now);
            let f = &mut self.flows[fid];
            let pos = f
                .rx_queue
                .iter()
                .rposition(|s| s.seq <= skb.seq)
                .map_or(0, |p| p + 1);
            f.rx_queue.insert(pos, skb);
            if delivered > 0 {
                if let Some(tid) = f.reader_tid {
                    self.wake(h, tid, ch);
                }
            }
        }

        match action.ack {
            Some(ack_seg) => self.enqueue_frames(h, core, ack_seg),
            // Delay-ACK'd in-order delivery: make sure the held ACK
            // eventually flushes even if no further data arrives.
            None => {
                if let Some(due) = self.flows[fid].receiver.delack_deadline(now) {
                    self.arm_delack(fid, due);
                }
            }
        }
    }

    /// Copy up to `budget` in-order bytes from the socket queue to the
    /// application; returns bytes copied. Charges per-frag copy costs by
    /// residency and frees the DMA buffers.
    fn copy_from_socket(
        &mut self,
        h: usize,
        core: usize,
        fid: usize,
        budget: u64,
        ch: &mut CycleBreakdown,
    ) -> u64 {
        let now = self.queue.now();
        let mut copied = 0u64;
        loop {
            let f = &mut self.flows[fid];
            let skb = match f.rx_queue.front() {
                Some(s) if s.end() <= f.receiver.rcv_nxt() && copied < budget => {
                    f.rx_queue.pop_front().expect("front exists")
                }
                _ => break,
            };
            let lat_sample = now.since(skb.napi_ts);
            let effective = f.receiver.on_copy(skb.seq, skb.end(), lat_sample);
            if self.measuring {
                self.hosts[h].napi_to_copy_ns.record(lat_sample.as_nanos());
            }
            // End of life: the payload reached user space.
            self.trace
                .stamp(skb.trace, skb.flow, StageId::RecvCopy, h, core, now);
            self.consume_skb(h, core, skb, effective, ch);
            copied += effective;
        }
        copied
    }

    /// Final act of an skb's life, shared by the duplicate-drop path in
    /// [`World::deliver_skb`] and the application copy in
    /// [`World::copy_from_socket`]: charge the skb free, account the data
    /// copy (or zero-copy remap) for `effective` payload bytes, release
    /// the DMA frames, and recycle the frag vector into the pool.
    fn consume_skb(
        &mut self,
        h: usize,
        core: usize,
        mut skb: RxSkb,
        effective: u64,
        ch: &mut CycleBreakdown,
    ) {
        ch.charge(Category::SkbMgmt, self.cost.skb_free);
        if effective > 0 && self.cfg.stack.zerocopy_rx {
            // TCP mmap receive (§4): remap the pages instead of
            // copying the payload. Cache residency becomes moot.
            let pages = pages_for(effective);
            ch.charge(Category::Memory, pages * self.cost.zc_rx_remap_page);
        } else if effective > 0 {
            // Copy cost per fragment, by where the bytes are. A backend
            // that never copies (bypass: the app reads the DMA buffers in
            // place) neither probes the DCA cache, which changes its state,
            // nor counts copied bytes; its table prices the copy at zero.
            let copies = self.dp.copies_payload();
            let app_node = self.hosts[h].cores[core].node;
            for &fr in &skb.frags {
                let host = &mut self.hosts[h];
                let bytes = host.arena.bytes(fr);
                let resident = copies && host.dca.probe_copy(&host.arena, fr);
                let class =
                    self.cfg
                        .topology
                        .classify(app_node, self.hosts[h].arena.node(fr), resident);
                ch.charge(Category::DataCopy, self.cost.copy_cycles(class, bytes));
                if self.measuring && copies {
                    if class == MemClass::DcaHit {
                        self.hosts[h].rx_copy_cache.hit_bytes += bytes;
                    } else {
                        self.hosts[h].rx_copy_cache.miss_bytes += bytes;
                    }
                }
            }
        }
        let frags = std::mem::take(&mut skb.frags);
        self.free_frags(h, core, &frags, ch);
        self.frag_pool.put(frags);
    }

    /// One application `recv()` on flow `fid` from (host `h`, `core`):
    /// the syscall and socket lock, a copy of up to `budget` in-order
    /// bytes, then the socket bookkeeping. Returns bytes copied.
    pub(super) fn app_recv(
        &mut self,
        h: usize,
        core: usize,
        fid: usize,
        budget: u64,
        ch: &mut CycleBreakdown,
    ) -> u64 {
        ch.charge(Category::Etc, self.cost.syscall_recv);
        ch.charge(Category::Lock, self.cost.sock_lock);
        let copied = self.copy_from_socket(h, core, fid, budget, ch);
        if copied == 0 {
            return 0;
        }
        self.progress += 1;
        let f = &mut self.flows[fid];
        if self.measuring {
            f.app_bytes += copied;
            self.tick_bytes += copied;
        }
        if let Some(upd) = f.receiver.reopen_update() {
            ch.charge(Category::TcpIp, self.cost.ack_gen);
            self.enqueue_frames(h, core, upd);
        }
        copied
    }

    /// Release DMA buffers: DCA reclaim, page free, IOMMU unmap. The
    /// operations run under every backend (buffer and mapping ledgers must
    /// balance); only the in-kernel cost table prices them.
    fn free_frags(
        &mut self,
        h: usize,
        core: usize,
        frags: &[hns_mem::FrameId],
        ch: &mut CycleBreakdown,
    ) {
        let core_node = self.hosts[h].cores[core].node;
        for &fr in frags {
            let node = self.hosts[h].arena.node(fr);
            let bytes = self.hosts[h].arena.release(fr);
            let pages = pages_for(bytes.max(1));
            let out = self.hosts[h]
                .pages
                .free(core as u16, pages, node == core_node);
            ch.charge(
                Category::Memory,
                out.fast_pages * self.cost.page_free_fast
                    + out.slow_pages * self.cost.page_free_slow,
            );
            let unmapped = self.hosts[h].iommu.unmap(pages);
            ch.charge(Category::Memory, unmapped * self.cost.iommu_unmap);
        }
    }

    /// A frame reaches the NIC of `dst`; its segment waits in slab slot
    /// `slot`, which moves on to the softirq backlog, or is released when
    /// the frame is dropped here.
    pub(super) fn frame_arrive(&mut self, dst: usize, slot: u32) {
        let now = self.queue.now();
        let rec = self.in_flight.record(slot);
        let (flow, tid, kind, len) = (rec.flow, rec.trace, rec.kind(), rec.payload_len());
        let fid = flow as usize;
        if let Some(a) = self.audit.as_deref_mut() {
            a.arrived[dst] += 1;
        }
        // Steering decides the queue; the frame consumes a descriptor of
        // *that queue's* ring.
        let target_core = match kind {
            FrameKind::Data => self.flows[fid].irq_core,
            FrameKind::Ack => self.flows[fid].ack_irq_core,
            FrameKind::Conn => match self.conn_target_core(dst, flow) {
                Some(core) => core,
                None => {
                    // Connection torn down while the frame was in flight: a
                    // late retransmit with no socket to land on.
                    self.in_flight.release(slot);
                    if let Some(a) = self.audit.as_deref_mut() {
                        a.stale_frames[dst] += 1;
                    }
                    return;
                }
            },
        };
        // Softirq backlog cap (netdev_max_backlog): shed load before even
        // consuming a descriptor when the polling core has fallen too far
        // behind (e.g. an injected core stall).
        let cap = self.cfg.max_backlog as usize;
        if cap > 0 && self.hosts[dst].cores[target_core as usize].backlog.len() >= cap {
            self.in_flight.release(slot);
            self.drop_stats.gro_overflow += 1;
            if let Some(a) = self.audit.as_deref_mut() {
                a.backlog_drops[dst] += 1;
            }
            return;
        }
        if !self.hosts[dst].rings[target_core as usize].try_receive() {
            // Out of descriptors: dropped, TCP recovers. Attribute the drop
            // to the page pool when the ring is empty because replenishes
            // could not be backed, otherwise to the ring itself (organic
            // overrun or injected exhaustion).
            self.in_flight.release(slot);
            let pool_starved = self.hosts[dst].pages.failing()
                && !self.hosts[dst].rings[target_core as usize].faulted();
            if pool_starved {
                self.drop_stats.pool += 1;
            } else {
                self.drop_stats.rx_ring += 1;
            }
            return;
        }
        let core = target_core;
        // Only data is DMA'd into a page-arena buffer. ACKs carry none, and
        // lifecycle segments are header-sized (or small RPC payloads modeled
        // inline): no page-arena buffer, no GRO, no DCA.
        let frame = match kind {
            FrameKind::Data => {
                let host = &mut self.hosts[dst];
                let node = host.cores[core as usize].node;
                let fr = host.arena.insert(len, node);
                if node == self.cfg.topology.nic_node {
                    host.dca.insert(&mut host.arena, fr);
                }
                Some(fr)
            }
            FrameKind::Ack | FrameKind::Conn => None,
        };
        // Descriptor accepted and DMA'd: the frame is in host memory.
        self.trace
            .stamp(tid, flow, StageId::RxDma, dst, core as usize, now);
        self.settle(dst, core as usize);
        let host = &mut self.hosts[dst];
        host.cores[core as usize].backlog.push_back(PendingFrame {
            slot,
            frame,
            arrived: now,
        });
        if host.coalescer.frame_arrived(core as usize) {
            host.cores[core as usize].irqs_pending += 1;
            // A busy-polling backend notices the frame on its next spin:
            // no interrupt dispatch latency, no moderation delay. The IRQ
            // survives as the poll-wakeup edge; its cost table prices the
            // handler at zero. Either delay is fixed for the run, so the
            // IRQ lane stays FIFO.
            let fires = if self.dp.busy_polls() {
                now
            } else {
                now + IRQ_LATENCY + self.cfg.irq_coalesce
            };
            self.lane_push(IRQ_LANE, fires, irq_value(dst, core));
            // Only the frame that actually raised the interrupt gets an
            // IRQ stamp; frames batched under NAPI masking wait in the
            // backlog and their RxDma→Napi residency shows it.
            self.trace
                .stamp(tid, flow, StageId::Irq, dst, core as usize, fires);
        }
    }

    /// Raise the softirq on (host, core), for an IRQ's delivery or a BBR
    /// pacer release, and dispatch the core if it was idle.
    pub(super) fn raise_softirq(&mut self, h: usize, core: usize) {
        self.settle(h, core);
        if self.hosts[h].sched.raise_softirq(core) {
            self.dispatch(h, core);
        }
    }
}
