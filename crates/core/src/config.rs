//! PCC configuration: the §2.2/§3 constants of the paper a spec can tune.

use pcc_simnet::time::SimDuration;

/// How monitor-interval durations are chosen.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MiTiming {
    /// The paper's default (§3.1): `Tm = max(time to send 10 packets,
    /// U[1.7, 2.2] · RTT)` — the randomization desynchronizes competing
    /// senders' intervals.
    Randomized,
    /// Fixed multiple of RTT (used by the Fig. 16 stability/reactiveness
    /// sweep, which varies `Tm` from 4.8×RTT down to 1×RTT).
    FixedRttMultiple(f64),
}

/// Tunable PCC parameters.
#[derive(Clone, Copy, Debug)]
pub struct PccConfig {
    /// Minimum experiment granularity ε (paper: 0.01).
    pub eps_min: f64,
    /// Maximum experiment granularity ε (paper: 0.05).
    pub eps_max: f64,
    /// Monitor-interval duration policy.
    pub mi_timing: MiTiming,
    /// Run randomized controlled trials with two pairs (4 MIs) instead of a
    /// single pair (2 MIs). Paper §2.1/§3.2; Fig. 16 quantifies the benefit.
    pub rct: bool,
    /// RTT assumed before the first measurement (drives the initial rate
    /// `2·MSS/RTT` and the first MI length).
    pub rtt_hint: SimDuration,
}

impl Default for PccConfig {
    fn default() -> Self {
        PccConfig {
            eps_min: 0.01,
            eps_max: 0.05,
            mi_timing: MiTiming::Randomized,
            rct: true,
            rtt_hint: SimDuration::from_millis(100),
        }
    }
}

impl PccConfig {
    /// Paper defaults.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Set the pre-measurement RTT hint.
    pub fn with_rtt_hint(mut self, rtt: SimDuration) -> Self {
        self.rtt_hint = rtt;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = PccConfig::paper();
        assert_eq!(c.eps_min, 0.01);
        assert_eq!(c.eps_max, 0.05);
        assert!(c.rct);
        assert_eq!(c.mi_timing, MiTiming::Randomized);
    }

    #[test]
    fn builders() {
        let c = PccConfig::paper().with_rtt_hint(SimDuration::from_millis(30));
        assert_eq!(c.rtt_hint, SimDuration::from_millis(30));
    }
}
