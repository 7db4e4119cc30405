//! The §2.2 game-theoretic fluid model and numerical verification of
//! Theorems 1 and 2.
//!
//! `n` senders share a bottleneck of capacity `C`. With global rate vector
//! `x`, the per-packet loss probability is `L(x) = max(0, 1 − C/Σx)`,
//! sender `i`'s throughput is `T_i = x_i(1−L)`, and its utility is
//!
//! ```text
//! u_i(x) = T_i(x) · Sigmoid_α(L(x) − 0.05) − x_i · L(x)
//! ```
//!
//! **Theorem 1.** For α ≥ max(2.2(n−1), 100) there is a unique stable state
//! and it is fair (`x*_1 = … = x*_n`), with `Σx` confined to `(C, 20C/19)`.
//!
//! **Theorem 2.** Under the ±ε best-response dynamics — each sender moves to
//! `x(1+ε)` if that yields higher utility than `x(1−ε)` with others held
//! fixed — every `x_j` converges to `(x̂(1−ε)², x̂(1+ε)²)` around the
//! equilibrium `x̂`.
//!
//! This module implements the model exactly and exposes the dynamics so the
//! test-suite can verify both theorems numerically, including the paper's
//! remark that convergence survives heterogeneous step rules (AIMD/MIMD
//! mixes).

use crate::utility::sigmoid;

/// The fluid model: capacity, sigmoid steepness, loss knee.
#[derive(Clone, Copy, Debug)]
pub struct FluidModel {
    /// Bottleneck capacity (any rate unit; Mbps in the paper's examples).
    pub capacity: f64,
    /// Sigmoid steepness α.
    pub alpha: f64,
    /// Loss knee (paper: 0.05).
    pub cutoff: f64,
}

impl FluidModel {
    /// Model with the paper's α rule: `α = max(2.2(n−1), 100)`.
    pub fn paper(capacity: f64, n_senders: usize) -> Self {
        FluidModel {
            capacity,
            alpha: (2.2 * (n_senders.saturating_sub(1)) as f64).max(100.0),
            cutoff: 0.05,
        }
    }

    /// Per-packet loss probability at aggregate rate `sum`.
    pub fn loss(&self, sum: f64) -> f64 {
        if sum <= self.capacity {
            0.0
        } else {
            1.0 - self.capacity / sum
        }
    }

    /// Utility of a sender at rate `xi` when everyone sends `sum` in total
    /// (`sum` includes `xi`).
    pub fn utility(&self, xi: f64, sum: f64) -> f64 {
        let l = self.loss(sum);
        let t = xi * (1.0 - l);
        t * sigmoid(self.alpha, l - self.cutoff) - xi * l
    }

    /// One synchronous step of the ±ε best-response dynamics: every sender
    /// compares `u(x_i(1+ε_i), x_−i)` against `u(x_i(1−ε_i), x_−i)` and
    /// multiplies its rate accordingly. `eps[i]` may differ per sender.
    pub fn step(&self, rates: &mut [f64], eps: &[f64]) {
        assert_eq!(rates.len(), eps.len());
        let sum: f64 = rates.iter().sum();
        let next: Vec<f64> = rates
            .iter()
            .zip(eps)
            .map(|(&xi, &e)| {
                let up = xi * (1.0 + e);
                let down = xi * (1.0 - e);
                // Others held fixed: replace x_i by the perturbed value.
                let u_up = self.utility(up, sum - xi + up);
                let u_down = self.utility(down, sum - xi + down);
                if u_up > u_down {
                    up
                } else {
                    down
                }
            })
            .collect();
        rates.copy_from_slice(&next);
    }

    /// Run the dynamics until the system reaches the Theorem-2 band: every
    /// rate within a few ε of the common mean and aggregate rate above
    /// capacity. The dynamics never stop moving (each step multiplies by
    /// `1±ε`), so "converged" means "entered the oscillation band around
    /// the fair equilibrium". Returns the number of iterations taken, or
    /// `max_iters` if the band was never reached.
    pub fn converge(&self, rates: &mut [f64], eps: &[f64], max_iters: usize) -> usize {
        let max_eps = eps.iter().copied().fold(0.0f64, f64::max);
        let band = 3.0 * max_eps + 1e-9;
        // Theorem-1 region for the aggregate, padded by the oscillation the
        // ±ε steps inject. Equal rates descending in lockstep from far above
        // capacity are *not* converged, even though they're "fair".
        let sum_hi = self.capacity * (20.0 / 19.0) * (1.0 + 2.0 * max_eps);
        for it in 0..max_iters {
            self.step(rates, eps);
            let sum: f64 = rates.iter().sum();
            let mean = sum / rates.len() as f64;
            let fair = rates.iter().all(|&r| (r / mean - 1.0).abs() <= band);
            if fair && sum > self.capacity && sum < sum_hi {
                return it + 1;
            }
        }
        max_iters
    }

    /// The fair-equilibrium total rate: the `Σx > C` point where a sender's
    /// ±ε comparison flips sign (found by bisection on the symmetric
    /// profile). Theorem 1 places it in `(C, 20C/19)`.
    pub fn equilibrium_sum(&self, n: usize, eps: f64) -> f64 {
        let n_f = n as f64;
        let mut lo = self.capacity;
        let mut hi = self.capacity * 20.0 / 19.0 * 1.05; // just past the bound
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            let xi = mid / n_f;
            let up = self.utility(xi * (1.0 + eps), mid + xi * eps);
            let down = self.utility(xi * (1.0 - eps), mid - xi * eps);
            if up > down {
                lo = mid; // still profitable to increase: equilibrium higher
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

/// Jain-style fairness check helper: max/min ratio of rates.
pub fn max_min_ratio(rates: &[f64]) -> f64 {
    let max = rates.iter().copied().fold(f64::MIN, f64::max);
    let min = rates.iter().copied().fold(f64::MAX, f64::min);
    if min <= 0.0 {
        f64::INFINITY
    } else {
        max / min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_model() {
        let m = FluidModel::paper(100.0, 2);
        assert_eq!(m.loss(50.0), 0.0);
        assert_eq!(m.loss(100.0), 0.0);
        assert!((m.loss(125.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn alpha_rule() {
        assert_eq!(FluidModel::paper(100.0, 2).alpha, 100.0);
        assert_eq!(
            FluidModel::paper(100.0, 47).alpha,
            100.0 + 1.2000000000000028
        );
        // 2.2 * 46 = 101.2
    }

    /// Theorem 1 (numeric): the equilibrium total sits in (C, 20C/19).
    #[test]
    fn theorem1_equilibrium_band() {
        for &n in &[2usize, 4, 10, 30] {
            let m = FluidModel::paper(100.0, n);
            let sum = m.equilibrium_sum(n, 0.01);
            assert!(
                sum > 100.0 && sum < 100.0 * 20.0 / 19.0,
                "n={n}: equilibrium sum {sum} outside (100, {})",
                100.0 * 20.0 / 19.0
            );
        }
    }

    /// Theorem 2 (numeric): from wildly unfair starts, the ±ε dynamics
    /// reach a fair oscillation band around the equilibrium.
    #[test]
    fn theorem2_convergence_to_fairness() {
        let m = FluidModel::paper(100.0, 4);
        let eps = vec![0.01; 4];
        // The paper's §2.2 example: one hog at 90, others tiny.
        let mut rates = vec![90.0, 10.0, 3.0, 0.5];
        let iters = m.converge(&mut rates, &eps, 5000);
        assert!(iters < 5000, "did not settle");
        // Keep stepping and average over a window to smooth oscillation.
        let mut avg = vec![0.0; 4];
        let window = 200;
        for _ in 0..window {
            m.step(&mut rates, &eps);
            for (a, r) in avg.iter_mut().zip(&rates) {
                *a += r / window as f64;
            }
        }
        let ratio = max_min_ratio(&avg);
        assert!(ratio < 1.1, "fair to within 10%: ratio {ratio}, {avg:?}");
        let sum: f64 = avg.iter().sum();
        assert!(
            sum > 100.0 && sum < 100.0 * 20.0 / 19.0 * 1.02,
            "total {sum} in the Theorem-1 band"
        );
    }

    /// The §2.2 example verbatim: on a 100 Mbps link with A at 90 Mbps and
    /// B at 10 Mbps, A's ±ε experiments say "decrease" while B's say
    /// "increase" — precisely because B contributes little congestion.
    #[test]
    fn asymmetric_senders_move_opposite_ways() {
        let m = FluidModel::paper(100.0, 2);
        let eps = 0.01;
        let (a, b) = (90.0, 10.0);
        let sum = a + b;
        let a_up = m.utility(a * (1.0 + eps), sum + a * eps);
        let a_down = m.utility(a * (1.0 - eps), sum - a * eps);
        assert!(a_down > a_up, "the hog prefers to decrease");
        let b_up = m.utility(b * (1.0 + eps), sum + b * eps);
        let b_down = m.utility(b * (1.0 - eps), sum - b * eps);
        assert!(b_up > b_down, "the mouse prefers to increase");
    }

    /// The paper's claim that convergence is independent of step rule:
    /// heterogeneous ε (e.g. one sender 4× more aggressive) still converges
    /// to near-fairness.
    #[test]
    fn heterogeneous_step_sizes_still_converge() {
        let m = FluidModel::paper(100.0, 3);
        let eps = vec![0.04, 0.01, 0.02];
        let mut rates = vec![1.0, 60.0, 20.0];
        m.converge(&mut rates, &eps, 5000);
        let mut avg = vec![0.0; 3];
        let window = 400;
        for _ in 0..window {
            m.step(&mut rates, &eps);
            for (a, r) in avg.iter_mut().zip(&rates) {
                *a += r / window as f64;
            }
        }
        let ratio = max_min_ratio(&avg);
        assert!(ratio < 1.35, "near-fair under mixed steps: {avg:?}");
    }

    /// Below capacity everyone increases (no loss ⇒ more rate is free
    /// utility).
    #[test]
    fn underutilized_link_always_increases() {
        let m = FluidModel::paper(100.0, 2);
        let mut rates = vec![10.0, 20.0];
        let eps = vec![0.01, 0.01];
        let before = rates.clone();
        m.step(&mut rates, &eps);
        assert!(rates[0] > before[0]);
        assert!(rates[1] > before[1]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Theorem 2, property form: random sender counts, capacities, and
        /// starting rates always converge to a near-fair split with total
        /// rate in the Theorem-1 band.
        #[test]
        fn converges_from_random_starts(
            n in 2usize..8,
            cap in 10.0f64..1000.0,
            seedrates in proptest::collection::vec(0.01f64..1.0, 8),
        ) {
            let m = FluidModel::paper(cap, n);
            let eps = vec![0.01; n];
            let mut rates: Vec<f64> =
                seedrates.iter().take(n).map(|r| r * cap * 2.0).collect();
            m.converge(&mut rates, &eps, 8000);
            let mut avg = vec![0.0; n];
            let window = 300;
            for _ in 0..window {
                m.step(&mut rates, &eps);
                for (a, r) in avg.iter_mut().zip(&rates) {
                    *a += r / window as f64;
                }
            }
            let sum: f64 = avg.iter().sum();
            prop_assert!(sum > cap * 0.999, "capacity used: {} of {}", sum, cap);
            prop_assert!(sum < cap * (20.0 / 19.0) * 1.02,
                "loss capped: {} vs {}", sum, cap * 20.0 / 19.0);
            prop_assert!(max_min_ratio(&avg) < 1.25,
                "near-fair: {:?}", avg);
        }
    }
}
