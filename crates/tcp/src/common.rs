//! Shared constants and helpers for the TCP congestion-control baselines.

/// Initial congestion window in packets (IW10, RFC 6928 — the Linux default
/// in the paper's era).
pub const INITIAL_CWND: f64 = 10.0;

/// Floor for the congestion window the engine is ever asked to run with.
/// Enforced by the [`crate::window::Windowed`] adapter for every variant:
/// whatever the window says (e.g. cwnd = 1 after an RTO), the effective
/// window stays at least this, so the flow always keeps
/// enough packets moving for SACK-based loss detection to function.
pub const MIN_CWND: f64 = 2.0;

/// Floor for the slow-start threshold after a loss.
pub const MIN_SSTHRESH: f64 = 2.0;

/// Reno's cut: half the window, floored at [`MIN_SSTHRESH`].
pub fn halved(cwnd: f64) -> f64 {
    (cwnd / 2.0).max(MIN_SSTHRESH)
}

/// Standard slow-start growth: +1 packet per acked packet.
pub fn slow_start(cwnd: &mut f64, newly_acked: u32) {
    *cwnd += newly_acked as f64;
}

/// Reno congestion avoidance: +1/cwnd per acked packet.
pub fn reno_ca(cwnd: &mut f64, newly_acked: u32) {
    *cwnd += newly_acked as f64 / *cwnd;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_start_doubles_per_window() {
        let mut cwnd = 10.0;
        // One window's worth of ACKs doubles cwnd.
        slow_start(&mut cwnd, 10);
        assert_eq!(cwnd, 20.0);
    }

    #[test]
    fn ca_grows_one_per_rtt() {
        let mut cwnd = 10.0;
        for _ in 0..10 {
            reno_ca(&mut cwnd, 1);
        }
        assert!((cwnd - 11.0).abs() < 0.05, "≈ +1 MSS per RTT: {cwnd}");
    }
}
