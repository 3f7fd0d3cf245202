//! # hns-sched — the CPU scheduler model
//!
//! The paper's scheduling findings (§3.2: wakeup/context-switch overhead
//! grows once the link saturates and cores idle between bursts; §3.7:
//! colocating long- and short-flow applications on one core costs ~43%)
//! require a scheduler model with:
//!
//! * per-core run queues (everything in the experiments is pinned),
//! * softirq context prioritized over application threads (ksoftirqd-style
//!   processing runs before user threads get the core back),
//! * block/wake semantics — a thread blocked on an empty socket queue (or
//!   full send buffer) yields the core; the wakeup path costs cycles,
//! * context-switch detection so each switch charges the `Sched` taxonomy
//!   category.
//!
//! The scheduler is a pure mechanism: [`Scheduler::pick`] chooses what runs
//! next; the host stack executes a step of whatever was chosen and charges
//! its costs. Events and time live in the stack's event loop, keeping this
//! crate independently testable.

use std::collections::VecDeque;

/// A schedulable context on one core.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Task {
    /// The softirq context (NAPI polling, GRO, TCP/IP rx processing).
    Softirq,
    /// An application thread, by host-global thread id.
    Thread(u32),
}

/// Scheduler-visible thread states.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ThreadState {
    /// Waiting (empty socket queue, full send buffer, RPC response…).
    Blocked,
    /// On a run queue.
    Runnable,
    /// Currently executing.
    Running,
}

#[derive(Debug, Default)]
struct CoreState {
    /// Runnable application threads, FIFO.
    queue: VecDeque<u32>,
    /// Softirq raised and waiting to run.
    softirq_pending: bool,
    /// What currently holds the core.
    running: Option<Task>,
    /// Last *thread* that ran (context-switch detection). Softirq runs in
    /// interrupt context borrowing the current stack — entering/leaving it
    /// is not a context switch, which is why saturated single-flow cores
    /// show little scheduling overhead despite constant softirq activity.
    last_thread: Option<u32>,
}

#[derive(Debug)]
struct ThreadInfo {
    core: u16,
    state: ThreadState,
    /// A wakeup arrived while the thread was Running: when its step ends
    /// with "blocked", it becomes runnable again instead (otherwise the
    /// wakeup — e.g. data delivered by a softirq on another core mid-step —
    /// would be lost and the thread would sleep forever).
    wake_pending: bool,
}

/// Outcome of picking the next task to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Picked {
    /// The task now running.
    pub task: Task,
    /// True if this dispatch switches away from the previously running
    /// context (charge a context-switch cost).
    pub switched: bool,
}

/// Per-host scheduler over a fixed set of cores and pinned threads.
#[derive(Debug)]
pub struct Scheduler {
    cores: Vec<CoreState>,
    threads: Vec<ThreadInfo>,
}

impl Scheduler {
    /// Scheduler for `cores` cores with no threads yet.
    pub fn new(cores: usize) -> Self {
        Scheduler {
            cores: (0..cores).map(|_| CoreState::default()).collect(),
            threads: Vec::new(),
        }
    }

    /// Register a thread pinned to `core`, initially blocked. Returns its id.
    pub fn add_thread(&mut self, core: u16) -> u32 {
        let id = self.threads.len() as u32;
        self.threads.push(ThreadInfo {
            core,
            state: ThreadState::Blocked,
            wake_pending: false,
        });
        id
    }

    /// Core a thread is pinned to.
    pub fn thread_core(&self, tid: u32) -> u16 {
        self.threads[tid as usize].core
    }

    /// Wake a blocked thread. Returns `Some(core_was_idle)` when the wake
    /// did something — the caller charges wakeup cycles, and must schedule
    /// a dispatch for the core when it was idle. Returns `None` for a
    /// redundant wake of a runnable thread. Waking a *running* thread sets
    /// `wake_pending` so the wakeup survives the thread blocking at the end
    /// of its current step.
    pub fn wake_thread(&mut self, tid: u32) -> Option<bool> {
        let t = &mut self.threads[tid as usize];
        match t.state {
            ThreadState::Runnable => None,
            ThreadState::Running => {
                if t.wake_pending {
                    None
                } else {
                    t.wake_pending = true;
                    Some(false)
                }
            }
            ThreadState::Blocked => {
                t.state = ThreadState::Runnable;
                let core = t.core as usize;
                self.cores[core].queue.push_back(tid);
                Some(self.core_is_idle(core))
            }
        }
    }

    /// Raise the softirq on `core`. Returns `true` if the core was idle.
    pub fn raise_softirq(&mut self, core: usize) -> bool {
        let c = &mut self.cores[core];
        if c.softirq_pending || c.running == Some(Task::Softirq) {
            return false;
        }
        c.softirq_pending = true;
        self.core_is_idle(core)
    }

    fn core_is_idle(&self, core: usize) -> bool {
        self.cores[core].running.is_none()
    }

    /// True if nothing runs and nothing waits on `core`.
    pub fn is_fully_idle(&self, core: usize) -> bool {
        let c = &self.cores[core];
        c.running.is_none() && !c.softirq_pending && c.queue.is_empty()
    }

    /// True if nothing waits on `core` behind what runs there: no queued
    /// thread, no raised softirq, and no wake pending on a running thread.
    /// A step that ends in this state leaves the core idle.
    pub fn nothing_waiting(&self, core: usize) -> bool {
        let c = &self.cores[core];
        let woken = match c.running {
            Some(Task::Thread(tid)) => self.threads[tid as usize].wake_pending,
            _ => false,
        };
        c.queue.is_empty() && !c.softirq_pending && !woken
    }

    /// What currently runs on `core`.
    pub fn running(&self, core: usize) -> Option<Task> {
        self.cores[core].running
    }

    /// Pick the next task for an idle `core`: softirq first, then the
    /// thread run queue. `None` if the core stays idle. The picked task
    /// becomes `running`; the caller executes one step and then calls
    /// [`Scheduler::step_done`].
    pub fn pick(&mut self, core: usize) -> Option<Picked> {
        let c = &mut self.cores[core];
        assert!(c.running.is_none(), "pick() on a busy core");
        let task = if c.softirq_pending {
            c.softirq_pending = false;
            Task::Softirq
        } else if let Some(tid) = c.queue.pop_front() {
            self.threads[tid as usize].state = ThreadState::Running;
            Task::Thread(tid)
        } else {
            return None;
        };
        let c = &mut self.cores[core];
        c.running = Some(task);
        let switched = match task {
            Task::Softirq => false,
            Task::Thread(tid) => {
                let sw = c.last_thread != Some(tid);
                c.last_thread = Some(tid);
                sw
            }
        };
        Some(Picked { task, switched })
    }

    /// The running task on `core` finished one step.
    ///
    /// * `still_runnable = true` — requeue it (round-robin yield, so a
    ///   pending softirq or sibling thread gets the core between steps);
    /// * `still_runnable = false` — it blocked (or the softirq completed).
    pub fn step_done(&mut self, core: usize, still_runnable: bool) {
        let c = &mut self.cores[core];
        let task = c.running.take().expect("step_done on idle core");
        match task {
            Task::Softirq => {
                if still_runnable {
                    c.softirq_pending = true;
                }
            }
            Task::Thread(tid) => {
                let t = &mut self.threads[tid as usize];
                if still_runnable || t.wake_pending {
                    t.wake_pending = false;
                    t.state = ThreadState::Runnable;
                    c.queue.push_back(tid);
                } else {
                    t.state = ThreadState::Blocked;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_while_running_survives_block() {
        let mut s = Scheduler::new(1);
        let a = s.add_thread(0);
        s.wake_thread(a);
        s.pick(0).unwrap();
        // Data arrives mid-step: wake the running thread.
        assert_eq!(s.wake_thread(a), Some(false));
        // The step ends deciding to block — but the pending wake wins.
        s.step_done(0, false);
        let p = s.pick(0).expect("thread must be runnable again");
        assert_eq!(p.task, Task::Thread(a));
    }

    #[test]
    fn wake_idle_core_requests_dispatch() {
        let mut s = Scheduler::new(2);
        let t = s.add_thread(0);
        assert_eq!(s.wake_thread(t), Some(true), "idle core needs a dispatch");
        // Double wake is a no-op.
        assert_eq!(s.wake_thread(t), None);
    }

    #[test]
    fn softirq_preempts_queue_order() {
        let mut s = Scheduler::new(1);
        let t = s.add_thread(0);
        s.wake_thread(t);
        s.raise_softirq(0);
        // Softirq wins even though the thread was queued first.
        let p = s.pick(0).unwrap();
        assert_eq!(p.task, Task::Softirq);
        s.step_done(0, false);
        let p = s.pick(0).unwrap();
        assert_eq!(p.task, Task::Thread(t));
    }

    #[test]
    fn context_switch_detection() {
        let mut s = Scheduler::new(1);
        let a = s.add_thread(0);
        let b = s.add_thread(0);
        s.wake_thread(a);
        let p = s.pick(0).unwrap();
        assert!(p.switched, "first dispatch is a switch");
        s.step_done(0, true);
        // Same thread runs again: no switch.
        let p = s.pick(0).unwrap();
        assert_eq!(p.task, Task::Thread(a));
        assert!(!p.switched);
        s.step_done(0, true);
        // Softirq interleaves for free (interrupt context, not a switch)…
        s.raise_softirq(0);
        assert!(!s.pick(0).unwrap().switched);
        s.step_done(0, false);
        // …and resuming the same thread afterwards is also free.
        assert!(!s.pick(0).unwrap().switched);
        s.step_done(0, true);
        // A different thread IS a switch.
        s.wake_thread(b);
        // a is requeued ahead; run a (no switch), then b (switch).
        assert!(!s.pick(0).unwrap().switched);
        s.step_done(0, true);
        let p = s.pick(0).unwrap();
        assert_eq!(p.task, Task::Thread(b));
        assert!(p.switched);
    }

    #[test]
    fn round_robin_between_threads() {
        let mut s = Scheduler::new(1);
        let a = s.add_thread(0);
        let b = s.add_thread(0);
        s.wake_thread(a);
        s.wake_thread(b);
        let mut order = Vec::new();
        for _ in 0..4 {
            let p = s.pick(0).unwrap();
            order.push(p.task);
            s.step_done(0, true);
        }
        assert_eq!(
            order,
            vec![
                Task::Thread(a),
                Task::Thread(b),
                Task::Thread(a),
                Task::Thread(b)
            ]
        );
    }

    #[test]
    fn blocking_removes_from_queue() {
        let mut s = Scheduler::new(1);
        let a = s.add_thread(0);
        s.wake_thread(a);
        s.pick(0).unwrap();
        s.step_done(0, false); // blocked
        assert!(s.pick(0).is_none());
        assert!(s.is_fully_idle(0));
        // Wake brings it back.
        assert_eq!(s.wake_thread(a), Some(true));
        assert_eq!(s.pick(0).unwrap().task, Task::Thread(a));
    }

    #[test]
    fn softirq_reraise_while_running_is_coalesced() {
        let mut s = Scheduler::new(1);
        s.raise_softirq(0);
        s.pick(0).unwrap();
        // While softirq runs, new raise is swallowed (NAPI is already
        // polling).
        assert!(!s.raise_softirq(0));
        s.step_done(0, false);
        assert!(s.is_fully_idle(0));
    }

    #[test]
    fn softirq_self_requeue() {
        let mut s = Scheduler::new(1);
        s.raise_softirq(0);
        s.pick(0).unwrap();
        s.step_done(0, true); // budget exhausted, more work pending
        assert_eq!(s.pick(0).unwrap().task, Task::Softirq);
    }

    #[test]
    fn threads_pin_to_their_core() {
        let mut s = Scheduler::new(2);
        let a = s.add_thread(1);
        assert_eq!(s.thread_core(a), 1);
        s.wake_thread(a);
        assert!(s.pick(0).is_none(), "core 0 has nothing");
        assert_eq!(s.pick(1).unwrap().task, Task::Thread(a));
    }

    #[test]
    fn nothing_waiting_sees_queue_softirq_and_pending_wake() {
        let mut s = Scheduler::new(1);
        let a = s.add_thread(0);
        let b = s.add_thread(0);
        assert!(s.nothing_waiting(0), "an idle core");
        s.wake_thread(a);
        assert!(!s.nothing_waiting(0), "a queued thread");
        s.pick(0).unwrap();
        assert!(s.nothing_waiting(0), "the running thread waits on nothing");
        s.raise_softirq(0);
        assert!(!s.nothing_waiting(0), "a raised softirq");
        s.step_done(0, false);
        s.pick(0).unwrap(); // the softirq
        assert!(s.nothing_waiting(0));
        s.wake_thread(b);
        assert!(!s.nothing_waiting(0), "a thread woken behind the softirq");
        s.step_done(0, false);
        s.pick(0).unwrap(); // b
        s.wake_thread(b);
        assert!(
            !s.nothing_waiting(0),
            "a wake pending on the running thread"
        );
        s.step_done(0, false);
        s.pick(0).unwrap(); // b again, by its pending wake
        s.step_done(0, false);
        assert!(s.nothing_waiting(0) && s.is_fully_idle(0));
    }

    #[test]
    fn runnable_threads_wait_behind_the_running_one() {
        let mut s = Scheduler::new(1);
        let a = s.add_thread(0);
        let b = s.add_thread(0);
        s.wake_thread(a);
        s.wake_thread(b);
        s.pick(0).unwrap();
        assert_eq!(s.running(0), Some(Task::Thread(a)));
        assert!(!s.nothing_waiting(0), "b waits behind a");
        s.step_done(0, false);
        assert_eq!(s.running(0), None);
        assert!(!s.nothing_waiting(0), "b is still runnable");
    }

    #[test]
    #[should_panic(expected = "busy core")]
    fn double_pick_panics() {
        let mut s = Scheduler::new(1);
        s.raise_softirq(0);
        s.pick(0);
        s.pick(0);
    }
}
