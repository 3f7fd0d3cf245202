//! TIME_WAIT deadline ring.
//!
//! Every actively-closed connection parks in TIME_WAIT for a fixed 2MSL
//! stand-in before its record is freed. Because the residence time is a
//! constant, entries expire in insertion order — a FIFO ring suffices and a
//! priority queue would be pure overhead at a million entries. The kernel's
//! timewait timer wheel exploits the same monotonicity.

use std::collections::VecDeque;

use hns_sim::SimTime;

/// FIFO of (deadline, packed `ConnId`) pairs with monotone deadlines.
#[derive(Default)]
pub struct TimeWaitRing {
    entries: VecDeque<(SimTime, u64)>,
    high_water: usize,
}

impl TimeWaitRing {
    /// Empty ring.
    pub fn new() -> Self {
        Self::default()
    }

    /// Park a connection until `deadline`.
    ///
    /// Deadlines must be non-decreasing across calls (guaranteed when every
    /// entry uses `now + TIME_WAIT`); debug builds assert it.
    pub fn insert(&mut self, deadline: SimTime, conn: u64) {
        debug_assert!(
            self.entries.back().is_none_or(|&(d, _)| d <= deadline),
            "TIME_WAIT deadlines must be monotone"
        );
        self.entries.push_back((deadline, conn));
        self.high_water = self.high_water.max(self.entries.len());
    }

    /// Pop the next entry whose deadline has passed, if any.
    pub fn expire_one(&mut self, now: SimTime) -> Option<u64> {
        match self.entries.front() {
            Some(&(d, _)) if d <= now => Some(self.entries.pop_front().expect("front exists").1),
            _ => None,
        }
    }

    /// Largest simultaneous TIME_WAIT population observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hns_sim::Duration;

    #[test]
    fn fifo_expiry() {
        let mut r = TimeWaitRing::new();
        let t = |ms| SimTime::ZERO + Duration::from_millis(ms);
        r.insert(t(10), 1);
        r.insert(t(10), 2);
        r.insert(t(20), 3);
        assert_eq!(r.expire_one(t(5)), None, "nothing due yet");
        assert_eq!(r.expire_one(t(10)), Some(1));
        assert_eq!(r.expire_one(t(10)), Some(2));
        assert_eq!(r.expire_one(t(10)), None, "entry 3 not due");
        assert_eq!(r.expire_one(t(25)), Some(3));
        assert_eq!(r.expire_one(SimTime::MAX), None, "all three reaped");
        assert_eq!(r.high_water(), 3);
    }

    #[test]
    fn million_entries_is_cheap() {
        let mut r = TimeWaitRing::new();
        for i in 0..1_000_000u64 {
            r.insert(SimTime::from_nanos(i), i);
        }
        let mut n = 0u64;
        while r.expire_one(SimTime::MAX).is_some() {
            n += 1;
        }
        assert_eq!(n, 1_000_000);
        assert_eq!(r.high_water(), 1_000_000);
    }
}
