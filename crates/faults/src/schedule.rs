//! Time windows for scheduled faults.

use hns_sim::{Duration, SimTime};

/// A (possibly repeating) activity window on the simulation clock.
///
/// The window is active on `[start, start + duration)` and, when `period`
/// is non-zero, again every `period` after that. All fields are plain
/// durations since simulation start so the type stays `Copy` and fault
/// configs can ride inside `SimConfig` unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseSchedule {
    /// First activation instant (time since simulation start).
    pub start: Duration,
    /// Length of each active window. Zero disables the schedule.
    pub duration: Duration,
    /// Repetition period (measured start-to-start). Zero means one-shot.
    pub period: Duration,
}

impl PhaseSchedule {
    /// One-shot window `[start, start + duration)`.
    pub const fn once(start: Duration, duration: Duration) -> Self {
        PhaseSchedule {
            start,
            duration,
            period: Duration::ZERO,
        }
    }

    /// Check internal consistency; returns a human-readable complaint.
    pub fn validate(&self) -> Result<(), String> {
        if self.period > Duration::ZERO && self.period <= self.duration {
            return Err(format!(
                "schedule period ({:?}) must exceed window duration ({:?})",
                self.period, self.duration
            ));
        }
        Ok(())
    }

    /// Is the window active at `now`?
    pub fn active(&self, now: SimTime) -> bool {
        if self.duration == Duration::ZERO {
            return false;
        }
        let t = now.as_nanos();
        let start = self.start.as_nanos();
        if t < start {
            return false;
        }
        let since = t - start;
        if self.period == Duration::ZERO {
            since < self.duration.as_nanos()
        } else {
            since % self.period.as_nanos() < self.duration.as_nanos()
        }
    }

    /// The next instant strictly after `now` at which [`active`] changes
    /// value, or `None` if the state never changes again.
    ///
    /// [`active`]: PhaseSchedule::active
    pub fn next_transition(&self, now: SimTime) -> Option<SimTime> {
        if self.duration == Duration::ZERO {
            return None;
        }
        let t = now.as_nanos();
        let start = self.start.as_nanos();
        let dur = self.duration.as_nanos();
        if t < start {
            return Some(SimTime::from_nanos(start));
        }
        let since = t - start;
        if self.period == Duration::ZERO {
            if since < dur {
                Some(SimTime::from_nanos(start + dur))
            } else {
                None
            }
        } else {
            let period = self.period.as_nanos();
            let phase = since % period;
            let cycle_base = t - phase;
            if phase < dur {
                Some(SimTime::from_nanos(cycle_base + dur))
            } else {
                Some(SimTime::from_nanos(cycle_base + period))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn at(n: u64) -> SimTime {
        SimTime::from_nanos(ms(n).as_nanos())
    }

    /// A window of `duration` ms every `period` ms from `start` ms.
    fn every(start: u64, duration: u64, period: u64) -> PhaseSchedule {
        PhaseSchedule {
            start: ms(start),
            duration: ms(duration),
            period: ms(period),
        }
    }

    #[test]
    fn one_shot_window() {
        let s = PhaseSchedule::once(ms(10), ms(5));
        assert!(!s.active(at(9)));
        assert!(s.active(at(10)));
        assert!(s.active(at(14)));
        assert!(!s.active(at(15)));
        assert!(!s.active(at(100)));
    }

    #[test]
    fn periodic_window() {
        let s = every(10, 2, 10);
        for k in 0..5u64 {
            assert!(s.active(at(10 + 10 * k)), "cycle {k} start");
            assert!(s.active(at(11 + 10 * k)), "cycle {k} middle");
            assert!(!s.active(at(12 + 10 * k)), "cycle {k} end");
            assert!(!s.active(at(19 + 10 * k)), "cycle {k} gap");
        }
        assert!(!s.active(at(0)));
    }

    #[test]
    fn zero_duration_never_fires() {
        let s = PhaseSchedule::once(ms(10), Duration::ZERO);
        assert!(!s.active(at(10)));
        assert_eq!(s.next_transition(at(0)), None);
    }

    #[test]
    fn transitions_walk_the_whole_timeline() {
        let s = every(10, 2, 10);
        let mut now = SimTime::ZERO;
        let mut flips = Vec::new();
        for _ in 0..6 {
            let next = s.next_transition(now).unwrap();
            assert!(next > now);
            flips.push(next.as_nanos() / 1_000_000);
            now = next;
        }
        assert_eq!(flips, vec![10, 12, 20, 22, 30, 32]);
    }

    #[test]
    fn one_shot_transitions_end() {
        let s = PhaseSchedule::once(ms(10), ms(5));
        assert_eq!(s.next_transition(at(0)), Some(at(10)));
        assert_eq!(s.next_transition(at(12)), Some(at(15)));
        assert_eq!(s.next_transition(at(15)), None);
    }

    #[test]
    fn validation_rejects_overlapping_period() {
        assert!(every(0, 5, 5).validate().is_err());
        assert!(every(0, 5, 6).validate().is_ok());
        assert!(PhaseSchedule::once(ms(0), ms(5)).validate().is_ok());
    }
}
