//! Epoll wakeup accounting.
//!
//! A million-connection server lives inside `epoll_wait`: every readable
//! socket costs an event dispatch, and every transition from "no events
//! pending" to "events pending" costs a thread wakeup. The engine charges
//! the cycles (from [`ConnCostModel`](crate::ConnCostModel)) into the Sched
//! category; this type keeps the counts so the report can answer "how many
//! wakeups did this connection rate cost".
//!
//! The batching model: events arriving while the server thread is already
//! awake (i.e. within the same softirq NAPI batch) coalesce into the
//! in-flight `epoll_wait` return and cost only a dispatch, not a wakeup —
//! which is why high event rates amortise so much better than trickles.

/// Wakeup/event counters for one simulated epoll instance.
#[derive(Default, Clone, Copy, Debug)]
pub struct EpollAccounting {
    wakeups: u64,
    events: u64,
    ctl_ops: u64,
    batch_open: bool,
}

impl EpollAccounting {
    /// Fresh accounting.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one ready event. Returns `true` when this event needed a
    /// thread wakeup (first event of a batch) — the caller charges the
    /// wakeup cycles only then.
    pub fn event(&mut self) -> bool {
        self.events += 1;
        if self.batch_open {
            false
        } else {
            self.batch_open = true;
            self.wakeups += 1;
            true
        }
    }

    /// Close the current batch (the simulated server thread has drained its
    /// `epoll_wait` return and gone back to sleep). Called at NAPI batch
    /// boundaries.
    pub fn end_batch(&mut self) {
        self.batch_open = false;
    }

    /// Record an `epoll_ctl` add/remove.
    pub fn ctl(&mut self) {
        self.ctl_ops += 1;
    }

    /// Thread wakeups charged.
    pub fn wakeups(&self) -> u64 {
        self.wakeups
    }

    /// Ready events dispatched.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// `epoll_ctl` operations performed.
    pub fn ctl_ops(&self) -> u64 {
        self.ctl_ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_event_of_batch_wakes() {
        let mut e = EpollAccounting::new();
        assert!(e.event(), "first event wakes the thread");
        assert!(!e.event(), "second coalesces");
        assert!(!e.event());
        e.end_batch();
        assert!(e.event(), "new batch wakes again");
        assert_eq!(e.wakeups(), 2);
        assert_eq!(e.events(), 4);
    }

    #[test]
    fn ctl_ops_count() {
        let mut e = EpollAccounting::new();
        e.ctl();
        e.ctl();
        assert_eq!(e.ctl_ops(), 2);
        assert_eq!(e.wakeups(), 0, "epoll_ctl wakes no thread");
    }
}
