//! Bit-level contract for the samplers and the post-chain diagnostics.
//!
//! The golden stdout of the experiment binaries prints rounded digits, so
//! a change that perturbs a draw by one ulp can slip past it. This test
//! runs the full [`Analysis`] (two MH and two HMC chains) at a fixed seed
//! on a fixed synthetic dataset and hashes the bits of every draw, every
//! trajectory energy, the kernel counters, every marginal summary and the
//! convergence diagnostics. Performance work on the likelihood, the
//! kernels or the diagnostics must leave the digest unchanged; a change
//! that is meant to alter the draw stream must re-capture it and say so.

use because::chain::ChainConfig;
use because::{Analysis, AnalysisConfig, Chain, NodeId, PathData, PathObservation, Prior};

/// FNV-1a (64-bit), fed one `u64` at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
}

/// A fixed dataset with the shapes the kernels special-case: repeated
/// observations (weights > 1), showing and clean paths, single-node paths
/// and one node that appears only on showing paths.
fn dataset() -> PathData {
    let mut obs = Vec::new();
    let mut x = 0x2020_u64;
    let mut next = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as u32
    };
    for k in 0..240u32 {
        let len = 1 + next() % 5;
        let mut nodes: Vec<NodeId> = (0..len).map(|_| NodeId(next() % 40)).collect();
        // Node 7 damps: every path through it shows the property.
        let shows = nodes.contains(&NodeId(7)) || next() % 9 == 0;
        if k % 4 == 0 {
            nodes.truncate(1);
        }
        let copies = 1 + next() % 3;
        for _ in 0..copies {
            obs.push(PathObservation::new(nodes.clone(), shows));
        }
    }
    // A node seen only on showing paths.
    obs.push(PathObservation::new(vec![NodeId(99)], true));
    obs.push(PathObservation::new(vec![NodeId(99), NodeId(3)], true));
    PathData::from_observations(&obs, &[])
}

fn hash_chain(h: &mut Fnv, c: &Chain) {
    h.u64(c.len() as u64);
    for &v in c.flat() {
        h.f64(v);
    }
    for &e in c.energies() {
        h.f64(e);
    }
    for &d in c.divergent_draws() {
        h.u64(d as u64);
    }
    h.f64(c.accept_rate);
    h.u64(c.proposals);
    h.u64(c.divergences);
    h.u64(c.likelihood_evals);
    h.u64(c.grad_evals);
}

fn digest(prior: Prior, seed: u64) -> (u64, u64) {
    let data = dataset();
    let config = AnalysisConfig {
        prior,
        chain: ChainConfig {
            warmup: 150,
            samples: 250,
            thin: 1,
        },
        n_chains: 2,
        seed,
        ..Default::default()
    };
    let a = Analysis::run(&data, &config);
    let mut h = Fnv::new();
    for c in a.mh_chains.iter().chain(&a.hmc_chains) {
        hash_chain(&mut h, c);
    }
    for r in &a.reports {
        h.u64(u64::from(r.id.0));
        for m in [r.mh, r.hmc].into_iter().flatten() {
            for v in [m.mean, m.hpdi_low, m.hpdi_high] {
                h.f64(v);
            }
        }
        h.u64(r.category as u64);
        h.u64(u64::from(r.flagged_inconsistent));
        h.f64(r.pinpoint_prob.unwrap_or(f64::NAN));
    }
    h.u64(a.unexplained_paths as u64);
    for v in [
        a.max_r_hat,
        a.max_rank_r_hat,
        a.min_ess_bulk,
        a.min_ess_tail,
    ] {
        h.f64(v);
    }
    for &b in &a.e_bfmi {
        h.f64(b);
    }
    let grad_evals = a.hmc_chains.iter().map(|c| c.grad_evals).sum();
    (h.0, grad_evals)
}

#[test]
fn beta_prior_chain_digest_is_pinned() {
    let (d, grad_evals) = digest(Prior::default(), 2020);
    assert_eq!(
        grad_evals,
        2 * (1 + 400 * 20),
        "one eval at init + 20 per trajectory"
    );
    assert_eq!(d, 0x43d1_65af_5dc0_5b57, "digest {d:#018x}");
}

#[test]
fn informative_beta_prior_chain_digest_is_pinned() {
    let prior = Prior::Beta {
        alpha: 2.0,
        beta: 5.0,
    };
    let (d, _) = digest(prior, 7);
    assert_eq!(d, 0x15d8_a115_35b6_9c20, "digest {d:#018x}");
}

#[test]
fn uniform_prior_chain_digest_is_pinned() {
    let (d, _) = digest(Prior::Uniform, 11);
    assert_eq!(d, 0x7a97_af24_385d_efc9, "digest {d:#018x}");
}
