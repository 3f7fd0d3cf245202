//! Interrupt generation with NAPI masking.
//!
//! Under NAPI the driver disables the NIC's Rx interrupt while a poll cycle
//! is scheduled or running, and re-enables it only when a poll finds the
//! ring empty. The result: at high rate, one IRQ kicks off a long stretch
//! of polling and subsequent frames arrive interrupt-free — which is the
//! behaviour that keeps IRQ-handling cycles ("etc" in the taxonomy) small
//! in the paper's breakdowns.

/// Per-(host, core) NAPI/interrupt state machine.
#[derive(Debug)]
pub struct InterruptCoalescer {
    /// True while NAPI is scheduled or actively polling on that core:
    /// interrupts masked.
    napi_active: Vec<bool>,
}

impl InterruptCoalescer {
    /// State for `cores` cores, all interrupts enabled.
    pub fn new(cores: usize) -> Self {
        InterruptCoalescer {
            napi_active: vec![false; cores],
        }
    }

    /// A frame arrived for `core`'s Rx queue. Returns `true` when an IRQ
    /// fires (the caller schedules the IRQ handler); `false` when NAPI is
    /// already pending and the frame will be picked up by the ongoing poll.
    pub fn frame_arrived(&mut self, core: usize) -> bool {
        if self.napi_active[core] {
            false
        } else {
            self.napi_active[core] = true;
            true
        }
    }

    /// NAPI poll on `core` completed and found the ring empty: re-enable
    /// interrupts.
    pub fn napi_complete(&mut self, core: usize) {
        self.napi_active[core] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_frame_raises_irq() {
        let mut ic = InterruptCoalescer::new(2);
        assert!(ic.frame_arrived(0));
        assert!(!ic.frame_arrived(0), "core 0 is masked");
        assert!(ic.frame_arrived(1), "core 1 is not");
    }

    #[test]
    fn subsequent_frames_masked() {
        let mut ic = InterruptCoalescer::new(1);
        assert!(ic.frame_arrived(0));
        for _ in 0..100 {
            assert!(!ic.frame_arrived(0));
        }
    }

    #[test]
    fn complete_reenables() {
        let mut ic = InterruptCoalescer::new(1);
        ic.frame_arrived(0);
        ic.napi_complete(0);
        assert!(ic.frame_arrived(0), "IRQ fires again after completion");
    }

    #[test]
    fn cores_are_independent() {
        let mut ic = InterruptCoalescer::new(3);
        assert!(ic.frame_arrived(1));
        assert!(ic.frame_arrived(2));
        assert!(!ic.frame_arrived(1));
        assert!(!ic.frame_arrived(2));
    }
}
