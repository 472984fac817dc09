//! Prior distributions over each node's proportion `p_i`.
//!
//! The paper (§3.2) tests uniform and Beta priors and finds the data
//! dominates for most ASs; the prior mainly shapes the *no-data* marginals
//! (Fig. 9(d) shows a recovered Beta prior). The default used throughout
//! the reproduction is `Beta(1, 4)` — mass near zero, encoding "most ASs
//! do not damp" — with the uniform available for sensitivity runs.

use netsim::SimRng;
use serde::{Deserialize, Serialize};

use crate::likelihood::clamp_p;
use crate::math::ln_beta;

/// An independent per-node prior on `p ∈ [0, 1]`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Prior {
    /// Uniform on `[0, 1]` (uninformative).
    Uniform,
    /// `Beta(alpha, beta)`.
    Beta {
        /// Shape α.
        alpha: f64,
        /// Shape β.
        beta: f64,
    },
}

impl Default for Prior {
    fn default() -> Self {
        // "Most ASs do not damp": mean 0.2, decreasing density.
        Prior::Beta {
            alpha: 1.0,
            beta: 4.0,
        }
    }
}

impl Prior {
    /// Log density at `p` (normalised). For repeated evaluation, build a
    /// [`LogPrior`] once instead.
    pub fn log_density(&self, p: f64) -> f64 {
        LogPrior::new(*self).log_density(p)
    }

    /// `d log density / d p`.
    pub fn grad(&self, p: f64) -> f64 {
        let p = clamp_p(p);
        match *self {
            Prior::Uniform => 0.0,
            Prior::Beta { alpha, beta } => (alpha - 1.0) / p - (beta - 1.0) / (1.0 - p),
        }
    }

    /// Draw an initial state from the prior.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match *self {
            Prior::Uniform => rng.uniform(),
            Prior::Beta { alpha, beta } => rng.beta(alpha, beta),
        }
    }

    /// The prior mean (useful as a reference line in reports).
    pub fn mean(&self) -> f64 {
        match *self {
            Prior::Uniform => 0.5,
            Prior::Beta { alpha, beta } => alpha / (alpha + beta),
        }
    }
}

/// A [`Prior`] prepared for evaluation in a sampler loop: the Beta
/// normaliser `ln B(α, β)` (three Lanczos `ln Γ`) is computed once here
/// rather than on every call.
#[derive(Clone, Copy, Debug)]
pub struct LogPrior {
    prior: Prior,
    ln_norm: f64,
}

impl LogPrior {
    /// Hoist the prior's constants.
    pub fn new(prior: Prior) -> Self {
        let ln_norm = match prior {
            Prior::Uniform => 0.0,
            Prior::Beta { alpha, beta } => ln_beta(alpha, beta),
        };
        LogPrior { prior, ln_norm }
    }

    /// Log density at `p`.
    pub fn log_density(&self, p: f64) -> f64 {
        self.log_density_log_q(p, (1.0 - clamp_p(p)).ln())
    }

    /// Log density at `p`, given `log_q = ln(1 − clamp_p(p))` — the value
    /// the likelihood already computed for the same node, which is
    /// exactly the prior's `ln(1 − p)` term.
    ///
    /// With `α = 1` the term `(α − 1)·ln p` is `0 · ln p = −0.0` (the
    /// clamped `p` is below 1, so `ln p < 0`), and `−0.0 + x = x` for
    /// every `x`, so the logarithm is skipped without changing a bit.
    #[inline]
    pub fn log_density_log_q(&self, p: f64, log_q: f64) -> f64 {
        match self.prior {
            Prior::Uniform => 0.0,
            Prior::Beta { alpha, beta } => {
                let b_term = (beta - 1.0) * log_q;
                if alpha == 1.0 {
                    b_term - self.ln_norm
                } else {
                    (alpha - 1.0) * clamp_p(p).ln() + b_term - self.ln_norm
                }
            }
        }
    }

    /// `d log density / d p` (see [`Prior::grad`]).
    #[inline]
    pub fn grad(&self, p: f64) -> f64 {
        self.prior.grad(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_flat() {
        let u = Prior::Uniform;
        assert_eq!(u.log_density(0.2), 0.0);
        assert_eq!(u.log_density(0.9), 0.0);
        assert_eq!(u.grad(0.3), 0.0);
        assert_eq!(u.mean(), 0.5);
    }

    #[test]
    fn beta_density_integrates_to_one() {
        // Trapezoid integration of exp(log_density) over (0,1).
        let b = Prior::Beta {
            alpha: 2.0,
            beta: 5.0,
        };
        let n = 20_000;
        let mut sum = 0.0;
        for k in 1..n {
            let p = k as f64 / n as f64;
            sum += b.log_density(p).exp();
        }
        let integral = sum / n as f64;
        assert!((integral - 1.0).abs() < 1e-3, "integral={integral}");
    }

    #[test]
    fn beta_gradient_matches_finite_difference() {
        let b = Prior::Beta {
            alpha: 2.0,
            beta: 5.0,
        };
        let h = 1e-7;
        for &p in &[0.1, 0.3, 0.7, 0.9] {
            let fd = (b.log_density(p + h) - b.log_density(p - h)) / (2.0 * h);
            assert!((b.grad(p) - fd).abs() < 1e-4, "p={p}");
        }
    }

    #[test]
    fn beta_mean() {
        let b = Prior::Beta {
            alpha: 1.0,
            beta: 4.0,
        };
        assert!((b.mean() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn samples_match_prior_mean() {
        let mut rng = SimRng::new(5);
        let b = Prior::default();
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| b.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - b.mean()).abs() < 0.01, "mean={mean}");
    }

    /// The density as written before its constants were hoisted.
    fn reference_log_density(prior: Prior, p: f64) -> f64 {
        let p = clamp_p(p);
        match prior {
            Prior::Uniform => 0.0,
            Prior::Beta { alpha, beta } => {
                (alpha - 1.0) * p.ln() + (beta - 1.0) * (1.0 - p).ln() - ln_beta(alpha, beta)
            }
        }
    }

    /// The hoisted terms are bitwise the unhoisted density, including
    /// when the log of `1 − p` is supplied by the likelihood.
    #[test]
    fn log_prior_is_bitwise_log_density() {
        use crate::likelihood::P_EPS;
        let priors = [
            Prior::Uniform,
            Prior::default(),
            Prior::Beta {
                alpha: 2.0,
                beta: 5.0,
            },
            Prior::Beta {
                alpha: 0.5,
                beta: 0.5,
            },
            Prior::Beta {
                alpha: 1.0,
                beta: 1.0,
            },
            Prior::Beta {
                alpha: 3.0,
                beta: 1.0,
            },
        ];
        let mut rng = SimRng::new(8);
        let mut ps = vec![0.0, P_EPS, 2.0 * P_EPS, 0.5, 1.0 - P_EPS, 1.0, -0.5, 1.5];
        ps.extend((0..200).map(|_| rng.uniform()));
        for prior in priors {
            let hoisted = LogPrior::new(prior);
            for &p in &ps {
                let want = reference_log_density(prior, p).to_bits();
                let log_q = (1.0 - clamp_p(p)).ln();
                assert_eq!(prior.log_density(p).to_bits(), want, "{prior:?} p={p}");
                assert_eq!(hoisted.log_density(p).to_bits(), want, "{prior:?} p={p}");
                assert_eq!(
                    hoisted.log_density_log_q(p, log_q).to_bits(),
                    want,
                    "{prior:?} p={p} with log q"
                );
                assert_eq!(hoisted.grad(p).to_bits(), prior.grad(p).to_bits());
            }
        }
    }

    #[test]
    fn density_finite_at_boundaries() {
        for prior in [
            Prior::Uniform,
            Prior::default(),
            Prior::Beta {
                alpha: 2.0,
                beta: 2.0,
            },
        ] {
            assert!(prior.log_density(0.0).is_finite());
            assert!(prior.log_density(1.0).is_finite());
            assert!(prior.grad(0.0).is_finite());
            assert!(prior.grad(1.0).is_finite());
        }
    }
}
