//! Timers: the scheduled fault windows and each flow's retransmission,
//! delayed-ACK and BBR pacing timers.

use hns_faults::{STALLED_CORE, VICTIM_HOST};
use hns_metrics::{Category, CycleBreakdown};
use hns_sim::event::EventToken;
use hns_sim::{Duration, EventKey, SimTime};

use super::{Event, FaultKind, World};

impl World {
    /// Reconcile one scheduled fault with its window state at `now`, apply
    /// the side effects of any transition, and schedule the next boundary.
    /// Idempotent, so it doubles as the t = 0 arming call.
    pub(super) fn fault_tick(&mut self, kind: FaultKind) {
        let now = self.queue.now();
        let faults = &self.cfg.faults;
        let window = match kind {
            FaultKind::Ring => faults.ring_exhaust,
            FaultKind::Pool => faults.pool_pressure,
            FaultKind::Stall => faults.core_stall,
        };
        let Some(window) = window else {
            return;
        };
        let active = window.active(now);
        let h = VICTIM_HOST as usize;
        match kind {
            FaultKind::Ring => {
                for r in &mut self.hosts[h].rings {
                    match (active, r.faulted()) {
                        (true, false) => r.force_exhaust(),
                        (false, true) => r.restore(),
                        _ => {}
                    }
                }
            }
            FaultKind::Pool => {
                let was = self.hosts[h].pages.failing();
                self.hosts[h].pages.set_failing(active);
                if was && !active {
                    self.repay_ring_deficits(h);
                }
            }
            FaultKind::Stall => {
                let core = &mut self.hosts[h].cores[STALLED_CORE as usize];
                let was = core.stalled;
                core.stalled = active;
                if was && !active {
                    // Stall over: resume whatever piled up on the core.
                    let (host, core) = (VICTIM_HOST, STALLED_CORE);
                    self.queue.schedule(now, Event::Dispatch { host, core });
                }
            }
        }
        let next = window.next_transition(now);
        if let Some(t) = next {
            self.queue.schedule(t, Event::FaultTick { kind });
        }
    }

    /// Keep the flow's retransmission timer in sync with the sender's
    /// deadline (RFC 6298 §5.3 restarts it on every ACK of new data).
    ///
    /// A moved deadline always reserves its key, the sequence number a
    /// plain `schedule` would take, so the timer fires where it always
    /// has. The queue is touched only to disarm, or when the new key fires
    /// no later than the pending event: a deadline pushed out leaves the
    /// pending event in place, and `handle_rto` re-files it under the key
    /// when it fires.
    pub(super) fn sync_rto(&mut self, fid: usize) {
        let desired = self.flows[fid].sender.rto_deadline();
        let f = &mut self.flows[fid];
        if desired == f.rto_scheduled_for {
            return;
        }
        f.rto_scheduled_for = desired;
        let Some(t) = desired else {
            f.rto_key = None;
            self.queue.cancel(f.rto_token);
            f.rto_token = EventToken::NONE;
            return;
        };
        let key = self.queue.reserve(t.max(self.queue.now()));
        f.rto_key = Some(key);
        if f.rto_token == EventToken::NONE || key.time <= f.rto_filed_at {
            self.queue.cancel(f.rto_token);
            self.file_rto(fid, key);
        }
    }

    /// File the flow's one pending `Rto` event under `key`.
    fn file_rto(&mut self, fid: usize, key: EventKey) {
        let token = self
            .queue
            .schedule_key(key, Event::Rto { flow: fid as u32 });
        let f = &mut self.flows[fid];
        f.rto_token = token;
        f.rto_filed_at = key.time;
    }

    /// The flow's pending `Rto` event fired. Before the recorded key it is
    /// re-filed under that key; at the key the timer expires.
    pub(super) fn handle_rto(&mut self, fid: usize) {
        let now = self.queue.now();
        let f = &mut self.flows[fid];
        f.rto_token = EventToken::NONE;
        let Some(key) = f.rto_key else {
            debug_assert!(false, "disarming cancels the pending RTO");
            return;
        };
        if key.time > now {
            // ACKs pushed the deadline out after this event was filed.
            self.file_rto(fid, key);
            return;
        }
        f.rto_scheduled_for = None;
        f.rto_key = None;
        self.flows[fid].sender.on_rto(now);
        // Timer softirq work: charge to the sender's app core directly
        // (rare enough that we don't occupy the scheduler).
        let spec = self.flows[fid].spec;
        let mut ch = CycleBreakdown::default();
        ch.charge(Category::TcpIp, self.cost.retransmit_extra);
        self.pump(fid, &mut ch);
        self.sync_rto(fid);
        self.charge_core(spec.src_host, spec.src_core as usize, ch);
    }

    /// Arm the delayed-ACK flush timer for `due` after in-order data was
    /// delivered without an immediate ACK. One pending event per flow; a
    /// no-op when a later segment already pushed the cumulative ACK out.
    pub(super) fn arm_delack(&mut self, fid: usize, due: SimTime) {
        if self.flows[fid].delack_armed {
            return;
        }
        self.flows[fid].delack_armed = true;
        self.queue.schedule(due, Event::DelAck { flow: fid as u32 });
    }

    pub(super) fn handle_delack(&mut self, fid: usize) {
        self.flows[fid].delack_armed = false;
        let Some(ack) = self.flows[fid].receiver.delack_flush() else {
            return; // a data-driven ACK already flushed it
        };
        // Timer softirq work on the receiver: flush the held cumulative
        // ACK, charged to the flow's rx-steering core like any ACK.
        let h = self.flows[fid].spec.dst_host;
        let core = self.flows[fid].irq_core as usize;
        let mut ch = CycleBreakdown::default();
        ch.charge(Category::TcpIp, self.cost.ack_gen);
        self.enqueue_frames(h, core, ack);
        self.charge_core(h, core, ch);
    }

    /// BBR pacing: arm the release timer if not armed.
    pub(super) fn arm_pacer(&mut self, fid: usize) {
        let f = &self.flows[fid];
        if f.pacer_armed || !f.sender.can_send() {
            return;
        }
        self.flows[fid].pacer_armed = true;
        self.queue
            .schedule(self.queue.now(), Event::PacerFire { flow: fid as u32 });
    }

    pub(super) fn pacer_fire(&mut self, fid: usize) {
        self.flows[fid].pacer_armed = false;
        let h = self.flows[fid].spec.src_host;
        let core = self.flows[fid].spec.src_core;
        self.settle(h, core as usize);
        self.hosts[h].cores[core as usize]
            .pacer_ready
            .push_back(fid as u64);
        self.raise_softirq(h, core as usize);
    }

    /// One paced release: emit a single segment, schedule the next release
    /// by the pacing rate. Runs inside the softirq step.
    pub(super) fn paced_release(&mut self, fid: usize, ch: &mut CycleBreakdown) {
        if !self.transmit_one(fid, ch) {
            return;
        }
        let f = &self.flows[fid];
        let Some(rate) = f.sender.pacing_rate().filter(|_| f.sender.can_send()) else {
            return;
        };
        let burst = self.cfg.stack.max_tx_payload() as f64;
        let gap = Duration::from_secs_f64(burst / rate.max(1.0));
        self.flows[fid].pacer_armed = true;
        let fire_at = self.queue.now() + gap;
        self.queue
            .schedule(fire_at, Event::PacerFire { flow: fid as u32 });
    }
}
