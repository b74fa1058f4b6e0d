//! Gilbert–Elliott two-state burst-loss process.
//!
//! Wireless links do not drop packets independently: losses cluster in
//! bursts (fading, interference). The Gilbert–Elliott chain is the standard
//! minimal model: a *Good* state with low loss and a *Bad* state with high
//! loss, with geometric sojourn times. The EVM's fault-detection logic is
//! sensitive to exactly this burstiness — a burst of lost health reports
//! must not be confused with a controller fault — so the channel model
//! exposes it directly.

use evm_sim::SimRng;

/// State of the Gilbert–Elliott chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GeState {
    Good,
    Bad,
}

/// A two-state Markov burst-loss process.
///
/// # Example
///
/// ```
/// use evm_netsim::GilbertElliott;
/// use evm_sim::SimRng;
///
/// let mut rng = SimRng::seed_from(1);
/// let mut link = GilbertElliott::new(0.01, 0.3, 0.0, 0.8);
/// let losses = (0..1000).filter(|_| link.sample_loss(&mut rng)).count();
/// assert!(losses > 0 && losses < 300);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GilbertElliott {
    /// P(Good -> Bad) per packet.
    p_gb: f64,
    /// P(Bad -> Good) per packet.
    p_bg: f64,
    /// Loss probability while Good.
    loss_good: f64,
    /// Loss probability while Bad.
    loss_bad: f64,
    state: GeState,
}

impl GilbertElliott {
    /// Creates a burst-loss process.
    ///
    /// * `p_gb` — per-packet probability of entering the bad state,
    /// * `p_bg` — per-packet probability of recovering,
    /// * `loss_good` / `loss_bad` — loss rates within each state.
    ///
    /// # Panics
    ///
    /// Panics if any argument is outside `[0, 1]`.
    #[must_use]
    pub fn new(p_gb: f64, p_bg: f64, loss_good: f64, loss_bad: f64) -> Self {
        for (name, v) in [
            ("p_gb", p_gb),
            ("p_bg", p_bg),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ] {
            assert!((0.0..=1.0).contains(&v), "{name} out of [0,1]: {v}");
        }
        GilbertElliott {
            p_gb,
            p_bg,
            loss_good,
            loss_bad,
            state: GeState::Good,
        }
    }

    /// A process that never loses packets (ideal link).
    #[must_use]
    pub fn ideal() -> Self {
        GilbertElliott::new(0.0, 1.0, 0.0, 0.0)
    }

    /// A memoryless (Bernoulli) loss process with rate `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn bernoulli(p: f64) -> Self {
        GilbertElliott::new(0.0, 1.0, p, p)
    }

    /// Advances the chain by one packet and samples whether that packet is
    /// lost.
    pub fn sample_loss(&mut self, rng: &mut SimRng) -> bool {
        // Transition first, then sample loss in the new state.
        self.state = match self.state {
            GeState::Good if rng.chance(self.p_gb) => GeState::Bad,
            GeState::Bad if rng.chance(self.p_bg) => GeState::Good,
            s => s,
        };
        let p = match self.state {
            GeState::Good => self.loss_good,
            GeState::Bad => self.loss_bad,
        };
        rng.chance(p)
    }

    /// Long-run average loss probability implied by the parameters.
    #[must_use]
    pub fn steady_state_loss(&self) -> f64 {
        let denom = self.p_gb + self.p_bg;
        if denom == 0.0 {
            // Chain never moves; stays Good forever.
            return self.loss_good;
        }
        let pi_bad = self.p_gb / denom;
        (1.0 - pi_bad) * self.loss_good + pi_bad * self.loss_bad
    }

    /// `true` if the chain is currently in the bad (bursty) state.
    #[must_use]
    pub fn in_burst(&self) -> bool {
        self.state == GeState::Bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_never_loses() {
        let mut rng = SimRng::seed_from(2);
        let mut link = GilbertElliott::ideal();
        assert!((0..10_000).all(|_| !link.sample_loss(&mut rng)));
    }

    #[test]
    fn bernoulli_rate_matches() {
        let mut rng = SimRng::seed_from(3);
        let mut link = GilbertElliott::bernoulli(0.2);
        let n = 100_000;
        let losses = (0..n).filter(|_| link.sample_loss(&mut rng)).count();
        let rate = losses as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn empirical_matches_steady_state() {
        let mut rng = SimRng::seed_from(4);
        let mut link = GilbertElliott::new(0.02, 0.25, 0.01, 0.7);
        let expect = link.steady_state_loss();
        let n = 200_000;
        let losses = (0..n).filter(|_| link.sample_loss(&mut rng)).count();
        let rate = losses as f64 / n as f64;
        assert!((rate - expect).abs() < 0.01, "rate {rate} vs {expect}");
    }

    #[test]
    fn losses_are_bursty() {
        // With strongly separated states, consecutive-loss runs must be much
        // longer than under an equal-rate Bernoulli process.
        let mut rng = SimRng::seed_from(5);
        let mut link = GilbertElliott::new(0.005, 0.05, 0.0, 0.95);
        let mut max_run = 0usize;
        let mut run = 0usize;
        for _ in 0..100_000 {
            if link.sample_loss(&mut rng) {
                run += 1;
                max_run = max_run.max(run);
            } else {
                run = 0;
            }
        }
        assert!(max_run >= 10, "expected long bursts, max run {max_run}");
    }

    #[test]
    fn frozen_chain_steady_state() {
        let link = GilbertElliott::new(0.0, 0.0, 0.05, 0.9);
        assert_eq!(link.steady_state_loss(), 0.05);
    }

    #[test]
    fn steady_state_in_unit_interval_over_random_chains() {
        let mut rng = SimRng::seed_from(0x6E1);
        for _ in 0..1_000 {
            let link =
                GilbertElliott::new(rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform());
            let s = link.steady_state_loss();
            assert!((0.0..=1.0).contains(&s), "steady-state loss {s}");
        }
        // Boundary chains as well (uniform() never draws exactly 1.0).
        for (p_gb, p_bg, lg, lb) in [
            (0.0, 0.0, 0.0, 1.0),
            (1.0, 0.0, 1.0, 1.0),
            (0.0, 1.0, 0.0, 0.0),
            (1.0, 1.0, 1.0, 0.0),
        ] {
            let s = GilbertElliott::new(p_gb, p_bg, lg, lb).steady_state_loss();
            assert!((0.0..=1.0).contains(&s));
        }
    }
}
