//! Wire-loss models: uniform (the paper's §3.6 sweep) and Gilbert–Elliott
//! bursty loss.
//!
//! The Gilbert–Elliott chain has two states, Good (no loss) and Bad (every
//! frame lost). Parameterized by the long-run loss rate `L` and the mean
//! burst length `B` (frames), the transition probabilities follow from the
//! stationary distribution: `p(Bad→Good) = 1/B`, and since the stationary
//! Bad probability must equal `L`, `p(Good→Bad) = L / (B·(1 − L))`.

use hns_sim::{Duration, SimRng, SimTime};

/// Per-frame wire-loss process.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum LossModel {
    /// No in-network loss.
    #[default]
    None,
    /// Independent per-frame loss with this probability (paper Fig. 9).
    Uniform {
        /// Drop probability per frame.
        rate: f64,
    },
    /// Two-state bursty loss.
    GilbertElliott {
        /// Long-run fraction of frames lost.
        rate: f64,
        /// Mean number of consecutive frames lost per burst (≥ 1).
        mean_burst: f64,
    },
}

impl LossModel {
    /// Uniform loss; a zero rate means no loss. Any other rate is kept,
    /// for [`LossModel::validate`] to judge.
    pub fn uniform(rate: f64) -> Self {
        if rate == 0.0 {
            LossModel::None
        } else {
            LossModel::Uniform { rate }
        }
    }

    /// Bursty loss at long-run `rate` with `mean_burst`-frame bursts.
    /// A zero rate means no loss, and any other rate is kept, as in
    /// [`LossModel::uniform`]; `mean_burst` is clamped to ≥ 1.
    pub fn bursty(rate: f64, mean_burst: f64) -> Self {
        if rate == 0.0 {
            LossModel::None
        } else {
            LossModel::GilbertElliott {
                rate,
                mean_burst: mean_burst.max(1.0),
            }
        }
    }

    /// Refuse a process the link cannot draw from: a rate outside
    /// [0, 1), NaN included, or a mean burst that is not finite.
    pub fn validate(&self) -> Result<(), String> {
        let (rate, mean_burst) = match *self {
            LossModel::None => return Ok(()),
            LossModel::Uniform { rate } => (rate, 1.0),
            LossModel::GilbertElliott { rate, mean_burst } => (rate, mean_burst),
        };
        if !(0.0..1.0).contains(&rate) {
            return Err(format!("wire loss rate {rate} outside [0, 1)"));
        }
        if !mean_burst.is_finite() {
            return Err(format!(
                "mean loss burst of {mean_burst} frames is not finite"
            ));
        }
        Ok(())
    }
}

/// Runtime state of the loss process (owned by the link; the config stays
/// `Copy`).
///
/// The Gilbert–Elliott chain is *time-correlated*, not frame-correlated: a
/// burst is a stretch of wall-clock trouble (shallow-buffer overflow, a
/// brief interference event), so its length is measured in back-to-back
/// frame slots at line rate. When traffic goes sparse — e.g. a sender in
/// RTO backoff offering one retransmission every few milliseconds — the
/// chain advances through the idle slots too (via the closed-form k-step
/// transition, one RNG draw), so a lone frame long after a burst sees the
/// stationary loss rate rather than a frozen Bad state. Without this, every
/// RTO retransmission of a stalled flow would be lost with probability
/// `1 − 1/B` and recovery would never converge.
#[derive(Clone, Debug)]
pub struct LossProcess {
    model: LossModel,
    /// Gilbert–Elliott: currently in the Bad (lossy) state?
    bad: bool,
    /// `p(Good→Bad)` per frame.
    p_gb: f64,
    /// `p(Bad→Good)` per frame.
    p_bg: f64,
    /// Nominal frame slot used to convert idle time into chain steps.
    /// `ZERO` disables time decay (pure per-frame chain).
    slot: Duration,
    /// When the chain last stepped.
    last_step: Option<SimTime>,
}

impl LossProcess {
    /// Build the process for `model` with no time decay (the chain steps
    /// once per observed frame regardless of spacing).
    pub fn new(model: LossModel) -> Self {
        Self::with_slot(model, Duration::ZERO)
    }

    /// Build the process for `model`; idle gaps advance the chain by one
    /// step per elapsed `slot` (nominal line-rate frame time).
    pub fn with_slot(model: LossModel, slot: Duration) -> Self {
        let (p_gb, p_bg) = match model {
            LossModel::GilbertElliott { rate, mean_burst } => {
                let b = mean_burst.max(1.0);
                let l = rate.clamp(0.0, 0.99);
                ((l / (b * (1.0 - l))).min(1.0), 1.0 / b)
            }
            _ => (0.0, 0.0),
        };
        LossProcess {
            model,
            bad: false,
            p_gb,
            p_bg,
            slot,
            last_step: None,
        }
    }

    /// Fast-forward the chain through the idle slots between the previous
    /// frame and `now`, collapsing the k-step transition into a single
    /// draw: `P(bad after k) = π_b + λ^k (bad − π_b)` with
    /// `λ = 1 − p_gb − p_bg`.
    fn decay(&mut self, now: SimTime, rng: &mut SimRng) {
        let last = self.last_step.replace(now);
        let (Some(last), false) = (last, self.slot == Duration::ZERO) else {
            return;
        };
        let k = (now.since(last).as_nanos() / self.slot.as_nanos()).min(1 << 20) as i32;
        // One chain step always happens per frame below; only fast-forward
        // the slots beyond it.
        if k <= 1 {
            return;
        }
        let pi_b = self.p_gb / (self.p_gb + self.p_bg);
        let lambda = 1.0 - self.p_gb - self.p_bg;
        let cur = if self.bad { 1.0 } else { 0.0 };
        self.bad = rng.chance(pi_b + lambda.powi(k - 1) * (cur - pi_b));
    }

    /// Advance one frame offered at `now`; returns `true` if that frame is
    /// lost.
    pub fn step(&mut self, now: SimTime, rng: &mut SimRng) -> bool {
        match self.model {
            LossModel::None => false,
            LossModel::Uniform { rate } => rng.chance(rate),
            LossModel::GilbertElliott { .. } => {
                self.decay(now, rng);
                if self.bad {
                    if rng.chance(self.p_bg) {
                        self.bad = false;
                    }
                } else if rng.chance(self.p_gb) {
                    self.bad = true;
                }
                self.bad
            }
        }
    }

    /// The configured model.
    pub fn model(&self) -> LossModel {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observed(model: LossModel, frames: usize) -> (f64, f64) {
        let mut p = LossProcess::new(model);
        let mut rng = SimRng::new(0xfa17);
        let mut lost = 0u64;
        let mut bursts = 0u64;
        let mut in_burst = false;
        for _ in 0..frames {
            let drop = p.step(SimTime::ZERO, &mut rng);
            if drop {
                lost += 1;
                if !in_burst {
                    bursts += 1;
                }
            }
            in_burst = drop;
        }
        let rate = lost as f64 / frames as f64;
        let mean_burst = if bursts == 0 {
            0.0
        } else {
            lost as f64 / bursts as f64
        };
        (rate, mean_burst)
    }

    #[test]
    fn none_never_drops() {
        let (rate, _) = observed(LossModel::None, 10_000);
        assert_eq!(rate, 0.0);
    }

    #[test]
    fn uniform_rate_matches() {
        let (rate, mean_burst) = observed(LossModel::uniform(0.02), 200_000);
        assert!((0.017..0.023).contains(&rate), "rate = {rate}");
        // Independent losses: bursts are overwhelmingly singletons.
        assert!(mean_burst < 1.2, "mean burst = {mean_burst}");
    }

    #[test]
    fn gilbert_elliott_hits_rate_and_burst_length() {
        let (rate, mean_burst) = observed(LossModel::bursty(0.02, 8.0), 400_000);
        assert!((0.015..0.025).contains(&rate), "rate = {rate}");
        assert!(
            (6.0..10.0).contains(&mean_burst),
            "mean burst = {mean_burst}"
        );
    }

    #[test]
    fn constructors_normalize_degenerate_input() {
        assert_eq!(LossModel::uniform(0.0), LossModel::None);
        assert_eq!(LossModel::bursty(0.0, 5.0), LossModel::None);
        // A negative rate is kept for `validate` to refuse.
        assert_eq!(LossModel::uniform(-1.0), LossModel::Uniform { rate: -1.0 });
        assert!(LossModel::uniform(-1.0).validate().is_err());
        match LossModel::bursty(0.01, 0.2) {
            LossModel::GilbertElliott { mean_burst, .. } => assert_eq!(mean_burst, 1.0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn idle_gaps_decay_the_burst_state() {
        // Drive the chain at line rate into (and out of) bursts, then offer
        // lone frames at 10ms spacing: losses must revert to roughly the
        // stationary rate instead of freezing at 1 − 1/B per frame, which
        // would make every RTO retransmission of a stalled flow die.
        let slot = Duration::from_nanos(126);
        let mut p = LossProcess::with_slot(LossModel::bursty(0.02, 8.0), slot);
        let mut rng = SimRng::new(3);
        let mut t = SimTime::ZERO;
        for _ in 0..10_000 {
            p.step(t, &mut rng);
            t += slot;
        }
        let mut lost = 0u64;
        for _ in 0..20_000 {
            t += Duration::from_millis(10);
            if p.step(t, &mut rng) {
                lost += 1;
            }
        }
        let rate = lost as f64 / 20_000.0;
        assert!(
            rate < 0.05,
            "sparse-traffic loss rate did not decay: {rate}"
        );
        assert!(
            rate > 0.005,
            "sparse traffic should still see some loss: {rate}"
        );
    }
}
