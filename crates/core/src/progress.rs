//! Streaming sampler diagnostics: the [`ProgressObserver`] hook on the
//! chain driver and the one observer that ships with the crate.
//!
//! [`crate::supervisor::run_chains`] calls each chain's observer every
//! `k` iterations with a [`ProgressSnapshot`] — running accept rate,
//! Welford online means, and an incremental split-R̂ / min-ESS estimate
//! over the draws collected so far (reusing the capped estimators in
//! [`crate::diagnostics`]). [`Progress`] fans each snapshot out to
//! whatever is armed, under one cadence:
//!
//! * a stderr ticker line — the `--progress [every-n]` flag of the
//!   experiment binaries;
//! * wall-clock counter events in an owned [`obs::TraceBuffer`], one lane
//!   per chain, for the Chrome-trace export;
//! * the process-global [`obs::serve`] endpoint (the `--serve <addr>`
//!   flag), feeding the live `/metrics` and `/progress` views.
//!
//! With nothing armed, `every()` is 0 and the driver skips every
//! snapshot after one branch per iteration. Observation never touches
//! the RNG, so observed and unobserved runs draw identically.

use crate::chain::SamplerKind;

/// Which phase of a chain run a snapshot belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChainPhase {
    /// Burn-in + adaptation (draws discarded).
    Warmup,
    /// Post-warmup collection.
    Sampling,
}

impl ChainPhase {
    /// Short label for tickers and trace events.
    pub fn name(self) -> &'static str {
        match self {
            ChainPhase::Warmup => "warmup",
            ChainPhase::Sampling => "sampling",
        }
    }
}

/// One per-k-iteration observation of a running chain.
///
/// During warmup only the kernel statistics are live; `means` is empty
/// and the convergence estimates are `NaN` (warmup draws are discarded,
/// so there is nothing to diagnose yet).
#[derive(Debug)]
pub struct ProgressSnapshot<'a> {
    /// Which chain (the `run_chains` index).
    pub chain_index: usize,
    /// Which kernel is running.
    pub kind: SamplerKind,
    /// Warmup or sampling.
    pub phase: ChainPhase,
    /// Iterations completed in this phase (retained draws during
    /// sampling).
    pub iteration: usize,
    /// Total iterations this phase will run.
    pub total: usize,
    /// Running acceptance rate of the kernel.
    pub accept_rate: f64,
    /// Divergent trajectories so far (HMC).
    pub divergences: u64,
    /// Welford online mean per coordinate over retained draws.
    pub means: &'a [f64],
    /// Incremental split-R̂ over this chain's halves so far (worst
    /// coordinate; `NaN` until enough draws).
    pub split_r_hat: f64,
    /// Incremental min-ESS over this chain's draws so far (`NaN` during
    /// warmup).
    pub min_ess: f64,
}

/// Observer hook for [`crate::supervisor::run_chains`].
pub trait ProgressObserver {
    /// Snapshot cadence in iterations; `0` disables observation (the
    /// driver then skips all snapshot bookkeeping).
    fn every(&self) -> usize;

    /// Called every [`Self::every`] iterations.
    fn observe(&mut self, snap: &ProgressSnapshot);

    /// A phase (warmup/sampling) is starting on `chain_index`.
    fn begin_phase(&mut self, chain_index: usize, kind: SamplerKind, phase: ChainPhase) {
        let _ = (chain_index, kind, phase);
    }

    /// The phase finished.
    fn end_phase(&mut self, chain_index: usize, kind: SamplerKind, phase: ChainPhase) {
        let _ = (chain_index, kind, phase);
    }
}

/// The production observer: one cadence, fanned out to a stderr ticker,
/// a trace buffer and the serve endpoint, each armed independently.
/// [`Progress::default`] arms nothing (`every() == 0`).
#[derive(Debug, Default)]
pub struct Progress {
    /// Snapshot cadence in iterations (at least 1 once anything is armed).
    pub cadence: usize,
    /// Print one stderr line per snapshot.
    pub ticker: bool,
    /// Record phases as spans and snapshots as counter samples
    /// (`accept_rate`, `split_r_hat`, `min_ess`, `divergences`, and
    /// `mean0` — the first coordinate's running mean), chain `k` on lane
    /// `lane_base + k`, named (`"MH chain 0"`) on the first phase seen.
    /// Share one wall-clock epoch across buffers that will merge.
    pub trace: Option<obs::TraceBuffer>,
    /// Lane offset, so several kernels' buffers merge without colliding
    /// (e.g. MH at 0, HMC at `n_chains`).
    pub lane_base: u64,
    /// Publish snapshots to this endpoint's `/progress` table and
    /// `/metrics` series, and mark the chain done when sampling ends.
    pub serve: Option<&'static std::sync::Arc<obs::serve::ServeState>>,
}

impl Progress {
    fn lane(&self, chain_index: usize) -> obs::Lane {
        obs::Lane(self.lane_base + chain_index as u64)
    }
}

impl ProgressObserver for Progress {
    fn every(&self) -> usize {
        if self.ticker || self.trace.is_some() || self.serve.is_some() {
            self.cadence.max(1)
        } else {
            0
        }
    }

    fn observe(&mut self, s: &ProgressSnapshot) {
        if self.ticker {
            match s.phase {
                ChainPhase::Warmup => eprintln!(
                    "progress {} chain {} {} {}/{} accept={:.3}",
                    s.kind.name(),
                    s.chain_index,
                    s.phase.name(),
                    s.iteration,
                    s.total,
                    s.accept_rate,
                ),
                ChainPhase::Sampling => eprintln!(
                    "progress {} chain {} {} {}/{} accept={:.3} Rhat={:.3} minESS={:.1} div={}",
                    s.kind.name(),
                    s.chain_index,
                    s.phase.name(),
                    s.iteration,
                    s.total,
                    s.accept_rate,
                    s.split_r_hat,
                    s.min_ess,
                    s.divergences,
                ),
            }
        }
        let lane = self.lane(s.chain_index);
        if let Some(buf) = &mut self.trace {
            buf.counter_wall("accept_rate", lane, s.accept_rate);
            if s.phase == ChainPhase::Sampling {
                buf.counter_wall("split_r_hat", lane, s.split_r_hat);
                buf.counter_wall("min_ess", lane, s.min_ess);
                if let Some(&m) = s.means.first() {
                    buf.counter_wall("mean0", lane, m);
                }
            }
            if s.divergences > 0 {
                buf.counter_wall("divergences", lane, s.divergences as f64);
            }
        }
        if let Some(state) = self.serve {
            state.record_progress(obs::serve::ChainProgress {
                kernel: s.kind.name(),
                chain_index: s.chain_index,
                phase: s.phase.name(),
                iteration: s.iteration,
                total: s.total,
                accept_rate: s.accept_rate,
                divergences: s.divergences,
                split_r_hat: s.split_r_hat,
                min_ess: s.min_ess,
            });
        }
    }

    fn begin_phase(&mut self, chain_index: usize, kind: SamplerKind, phase: ChainPhase) {
        let lane = self.lane(chain_index);
        if let Some(buf) = &mut self.trace {
            // A resumed chain starts at sampling, so name on any phase.
            if buf.lane_name(lane).is_none() {
                buf.set_lane_name(lane, &format!("{} chain {chain_index}", kind.name()));
            }
            buf.begin_wall(phase.name(), lane);
        }
    }

    fn end_phase(&mut self, chain_index: usize, kind: SamplerKind, phase: ChainPhase) {
        let lane = self.lane(chain_index);
        if let Some(buf) = &mut self.trace {
            buf.end_wall(phase.name(), lane);
        }
        // Flip the chain's `/progress` row to "done" when sampling closes
        // so a finished chain is not reported mid-flight forever.
        if let (Some(state), ChainPhase::Sampling) = (self.serve, phase) {
            state.mark_done(kind.name(), chain_index);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_is_zero_until_something_is_armed() {
        assert_eq!(Progress::default().every(), 0);
        let cadence = |p: Progress| p.every();
        assert_eq!(
            cadence(Progress {
                cadence: 50,
                ..Default::default()
            }),
            0
        );
        assert_eq!(
            cadence(Progress {
                ticker: true,
                ..Default::default()
            }),
            1
        );
        assert_eq!(
            cadence(Progress {
                cadence: 50,
                ticker: true,
                ..Default::default()
            }),
            50
        );
    }

    #[test]
    fn trace_records_lanes_phases_and_counters() {
        let mut tp = Progress {
            cadence: 10,
            trace: Some(obs::TraceBuffer::new(256)),
            ..Default::default()
        };
        tp.begin_phase(2, SamplerKind::Hmc, ChainPhase::Warmup);
        tp.observe(&ProgressSnapshot {
            chain_index: 2,
            kind: SamplerKind::Hmc,
            phase: ChainPhase::Warmup,
            iteration: 10,
            total: 100,
            accept_rate: 0.8,
            divergences: 1,
            means: &[],
            split_r_hat: f64::NAN,
            min_ess: f64::NAN,
        });
        tp.end_phase(2, SamplerKind::Hmc, ChainPhase::Warmup);
        tp.begin_phase(2, SamplerKind::Hmc, ChainPhase::Sampling);
        tp.observe(&ProgressSnapshot {
            chain_index: 2,
            kind: SamplerKind::Hmc,
            phase: ChainPhase::Sampling,
            iteration: 10,
            total: 100,
            accept_rate: 0.7,
            divergences: 0,
            means: &[0.25, 0.5],
            split_r_hat: 1.01,
            min_ess: 42.0,
        });
        tp.end_phase(2, SamplerKind::Hmc, ChainPhase::Sampling);

        let buf = tp.trace.expect("trace armed");
        assert_eq!(buf.lane_name(obs::Lane(2)), Some("HMC chain 2"));
        let count = |name: &str, kind: obs::TraceKind| {
            buf.events()
                .filter(|e| e.name == name && e.kind == kind)
                .count()
        };
        assert_eq!(count("warmup", obs::TraceKind::Begin), 1);
        assert_eq!(count("warmup", obs::TraceKind::End), 1);
        assert_eq!(count("sampling", obs::TraceKind::Begin), 1);
        assert_eq!(count("sampling", obs::TraceKind::End), 1);
        assert_eq!(count("accept_rate", obs::TraceKind::Counter), 2);
        assert_eq!(count("split_r_hat", obs::TraceKind::Counter), 1);
        assert_eq!(count("mean0", obs::TraceKind::Counter), 1);
        assert_eq!(count("divergences", obs::TraceKind::Counter), 1);
        // All wall-stamped.
        assert!(buf
            .events()
            .all(|e| matches!(e.time, obs::TraceTime::Wall(_))));
    }
}
