//! The path likelihood (Eq. 5 of the paper), its gradient, and an
//! incremental evaluator for component-wise samplers.
//!
//! Everything is kept in log space. For a path `J` with `S_J = Σ_{i∈J}
//! log q_i`:
//!
//! * a **non-showing** path contributes `w_J · S_J`;
//! * a **showing** path contributes `w_J · log(1 − e^{S_J})`
//!   (via [`crate::math::log1mexp`]),
//!
//! where `w_J` is the observation weight (identical measurements
//! collapsed). Changing a single `q_i` only changes `S_J` for paths
//! through node `i`, which makes component-wise Metropolis–Hastings a
//! `O(paths-through-i)` operation instead of `O(all paths)` —
//! [`IncrementalLikelihood`] exploits exactly that.
//!
//! ## Fused value and gradient
//!
//! HMC needs the value and the gradient at every leapfrog step.
//! [`LogLikelihood::eval_grad`] computes both in one kernel: each
//! `log q_i` is computed once per node, each `S_J` once per path, and a
//! showing path's `log1mexp(S_J)` serves as both its value term and its
//! gradient's denominator. A clean path's gradient term `−w/q_i` reads a
//! per-node reciprocal `1/q_i = exp(−log q_i)` ([`GradWorkspace`])
//! instead of taking one `exp` per incidence. The showing-incidence
//! exponentials run in one tight loop, and a second walk of the paths
//! adds them in path order. None of this changes a bit: every sum adds
//! the same terms in the same order as a separate `eval` and
//! per-incidence gradient, which the `eval_grad_is_bitwise_eval_plus_grad`
//! property test checks with `to_bits()`. [`LogLikelihood::grad`] is a
//! thin wrapper over the same kernel; [`LogLikelihood::eval`] keeps a
//! value-only walk.
//!
//! ## Parallel full evaluation
//!
//! [`LogLikelihood::eval`] and [`LogLikelihood::eval_grad`] walk the CSR
//! path arena in contiguous chunks and, above a tunable path-count
//! threshold ([`LogLikelihood::with_parallel_threshold`], default
//! [`DEFAULT_PARALLEL_THRESHOLD`]), fan the chunks out over scoped
//! threads — the same dependency-free pattern as
//! [`crate::chain::run_chains`]. Each thread reduces into a private
//! accumulator (a scalar value, plus a gradient buffer for `eval_grad`)
//! that is summed on the calling thread in chunk order, so results are
//! deterministic for a fixed thread count. Below the threshold, or on a
//! single-core host, the evaluation stays serial with zero threading
//! overhead.
//!
//! ## Numerical safety at the `log1mexp` boundary
//!
//! `log1mexp` requires a non-positive argument. Fresh sums of `log q`
//! terms are non-positive by construction, but the incremental cache
//! updates `path_sum[j] += d_log_q` in [`IncrementalLikelihood::commit`],
//! and accumulated rounding can push a near-zero sum to a small positive
//! value. That drift used to surface as a `debug_assert` (debug builds) or
//! a NaN (release builds) after long runs. The invariant is now enforced
//! in both places: `commit` clamps the stored sum to `≤ 0`, and **every**
//! `log1mexp` call site clamps its argument with `.min(0.0)`.

use std::ops::Range;

use crate::math::log1mexp;
use crate::model::PathData;

/// Lower clamp for `p` and `1 − p`: keeps `log q` finite while being far
/// below any resolvable posterior mass.
pub const P_EPS: f64 = 1e-9;

/// Default path count above which [`LogLikelihood::eval`] and
/// [`LogLikelihood::eval_grad`] use scoped threads. Below it the
/// fork/join overhead outweighs the work.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 4096;

/// Minimum paths per spawned chunk; stops a huge core count from dicing a
/// barely-above-threshold dataset into cache-hostile slivers.
const MIN_CHUNK: usize = 1024;

/// Clamp a probability into the numerically safe open interval.
#[inline]
pub fn clamp_p(p: f64) -> f64 {
    p.clamp(P_EPS, 1.0 - P_EPS)
}

/// Full-dataset log-likelihood evaluator.
#[derive(Clone, Debug)]
pub struct LogLikelihood<'a> {
    data: &'a PathData,
    parallel_threshold: usize,
}

impl<'a> LogLikelihood<'a> {
    /// Bind to a dataset.
    pub fn new(data: &'a PathData) -> Self {
        LogLikelihood {
            data,
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
        }
    }

    /// Override the path count at which evaluation goes parallel.
    /// `usize::MAX` forces serial evaluation; `0` forces parallel (useful
    /// for benchmarks and tests).
    pub fn with_parallel_threshold(mut self, threshold: usize) -> Self {
        self.parallel_threshold = threshold;
        self
    }

    /// The current parallel threshold.
    pub fn parallel_threshold(&self) -> usize {
        self.parallel_threshold
    }

    /// The underlying dataset.
    pub fn data(&self) -> &'a PathData {
        self.data
    }

    /// How many threads to use for `n_paths` paths.
    fn thread_count(&self, n_paths: usize) -> usize {
        if n_paths < self.parallel_threshold.max(1) {
            return 1;
        }
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        hw.min(n_paths.div_ceil(MIN_CHUNK)).max(1)
    }

    /// `log P(D | p)`.
    pub fn eval(&self, p: &[f64]) -> f64 {
        assert_eq!(p.len(), self.data.num_nodes(), "dimension mismatch");
        let log_q: Vec<f64> = p.iter().map(|&pi| (1.0 - clamp_p(pi)).ln()).collect();
        let n_paths = self.data.num_paths();
        let threads = self.thread_count(n_paths);
        if threads <= 1 {
            return eval_range(self.data, &log_q, 0..n_paths);
        }
        let chunk = n_paths.div_ceil(threads);
        let mut partials = vec![0.0f64; threads];
        let data = self.data;
        let log_q = &log_q;
        std::thread::scope(|scope| {
            for (t, out) in partials.iter_mut().enumerate() {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(n_paths);
                scope.spawn(move || *out = eval_range(data, log_q, lo..hi));
            }
        });
        partials.iter().sum()
    }

    /// Gradient `∂ log P(D|p) / ∂ p_i` written into `grad` (overwritten).
    ///
    /// For a non-showing path: `∂/∂p_i = −w/q_i`. For a showing path with
    /// `Q = e^{S}`: `∂/∂p_i = w · (Q/q_i) / (1 − Q)`, evaluated as
    /// `w · exp(S − log q_i − log1mexp(S))` to stay stable when `Q → 0`
    /// or `Q → 1`. A wrapper over [`Self::eval_grad`] that drops the value;
    /// like it, it builds a [`GradWorkspace`] per call, so a loop should
    /// keep one and call [`Self::eval_grad_in`].
    pub fn grad(&self, p: &[f64], grad: &mut [f64]) {
        self.eval_grad(p, grad);
    }

    /// `log P(D | p)`, returned, and its gradient, written into `grad`
    /// (overwritten), in one kernel.
    ///
    /// The value is bitwise [`Self::eval`]'s and the gradient bitwise the
    /// per-incidence formula of [`Self::grad`]: each path's `S_J` is summed
    /// in the same order, the value is reduced in the same order, and each
    /// node's gradient accumulates its paths in path order.
    pub fn eval_grad(&self, p: &[f64], grad: &mut [f64]) -> f64 {
        assert_eq!(p.len(), self.data.num_nodes(), "dimension mismatch");
        let mut ws = self.workspace();
        ws.fill(p);
        self.eval_grad_in(&mut ws, grad)
    }

    /// A [`GradWorkspace`] sized for this dataset.
    pub fn workspace(&self) -> GradWorkspace {
        let data = self.data;
        let mut on_clean = vec![false; data.num_nodes()];
        for path in data.paths().filter(|path| !path.shows_property) {
            for &i in path.nodes {
                on_clean[i as usize] = true;
            }
        }
        GradWorkspace {
            log_q: vec![0.0; data.num_nodes()],
            inv_q: vec![0.0; data.num_nodes()],
            on_clean,
            chunks: Vec::new(),
        }
    }

    /// [`Self::eval_grad`] at the state last written into `ws`, so a
    /// caller that evaluates repeatedly (HMC) reuses the buffers and the
    /// `log q` values it already has.
    pub fn eval_grad_in(&self, ws: &mut GradWorkspace, grad: &mut [f64]) -> f64 {
        assert_eq!(ws.log_q.len(), self.data.num_nodes(), "dimension mismatch");
        assert_eq!(grad.len(), ws.log_q.len(), "dimension mismatch");
        grad.fill(0.0);
        let n_paths = self.data.num_paths();
        let threads = self.thread_count(n_paths);
        let GradWorkspace {
            log_q,
            inv_q,
            chunks,
            ..
        } = ws;
        let (log_q, inv_q) = (&log_q[..], &inv_q[..]);
        chunks.resize_with(threads, Chunk::default);
        if threads <= 1 {
            let exps = &mut chunks[0].exps;
            return eval_grad_range(self.data, log_q, inv_q, 0..n_paths, grad, exps);
        }
        let chunk = n_paths.div_ceil(threads);
        // Private per-thread value and gradient, reduced after the join in
        // chunk order.
        let mut values = vec![0.0f64; threads];
        let data = self.data;
        std::thread::scope(|scope| {
            for (t, (value, scratch)) in values.iter_mut().zip(chunks.iter_mut()).enumerate() {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(n_paths);
                scratch.grad.clear();
                scratch.grad.resize(grad.len(), 0.0);
                scope.spawn(move || {
                    let Chunk { grad, exps } = scratch;
                    *value = eval_grad_range(data, log_q, inv_q, lo..hi, grad, exps);
                });
            }
        });
        for scratch in chunks.iter() {
            for (g, b) in grad.iter_mut().zip(&scratch.grad) {
                *g += b;
            }
        }
        values.iter().sum()
    }
}

/// The state the fused kernel ([`LogLikelihood::eval_grad_in`]) reads,
/// plus its scratch. Built by [`LogLikelihood::workspace`].
///
/// Per node it holds `log q_i = ln(1 − clamp_p(p_i))` and, for nodes on at
/// least one clean path, the reciprocal `1/q_i = exp(−log q_i)`. Computing
/// `1/q_i` once per node instead of once per incidence is what makes clean
/// paths cheap: their gradient term `−w/q_i` becomes a multiply, and the
/// value is the same f64 the per-incidence `exp` gave. Nodes seen only on
/// showing paths never read it, so it is skipped there.
#[derive(Clone, Debug)]
pub struct GradWorkspace {
    log_q: Vec<f64>,
    inv_q: Vec<f64>,
    on_clean: Vec<bool>,
    /// Scratch per path chunk, kept across calls.
    chunks: Vec<Chunk>,
}

/// One path chunk's scratch: its partial gradient (parallel evaluation
/// only) and its showing-incidence exponents, then their exponentials.
#[derive(Clone, Debug, Default)]
struct Chunk {
    grad: Vec<f64>,
    exps: Vec<f64>,
}

impl GradWorkspace {
    /// Set node `i` to state `p`.
    #[inline]
    pub fn set(&mut self, i: usize, p: f64) {
        let log_q = (1.0 - clamp_p(p)).ln();
        self.log_q[i] = log_q;
        if self.on_clean[i] {
            self.inv_q[i] = (-log_q).exp();
        }
    }

    /// Set every node from the state vector `p`.
    pub fn fill(&mut self, p: &[f64]) {
        for (i, &pi) in p.iter().enumerate() {
            self.set(i, pi);
        }
    }

    /// `ln(1 − clamp_p(p_i))` per node.
    pub fn log_q(&self) -> &[f64] {
        &self.log_q
    }
}

/// Sum the log-likelihood contribution of paths in `range`.
///
/// Walks the CSR arenas with a plain index loop, carrying the low offset
/// across iterations so each path costs one offset load. (Micro-variants
/// of this loop — zipped iterators, manual accumulation — measure within
/// codegen-lottery noise of each other on the bench host; don't re-tune
/// without an interleaved A/B harness.)
fn eval_range(data: &PathData, log_q: &[f64], range: Range<usize>) -> f64 {
    let (arena, meta) = data.path_csr();
    let mut total = 0.0;
    let mut lo = meta[range.start].offset as usize;
    for j in range {
        let hi = meta[j + 1].offset as usize;
        let wshow = meta[j].wshow;
        let s: f64 = arena[lo..hi].iter().map(|&i| log_q[i as usize]).sum();
        let contrib = if wshow & 1 == 1 {
            log1mexp(s.min(0.0))
        } else {
            s
        };
        total += f64::from(wshow >> 1) * contrib;
        lo = hi;
    }
    total
}

/// The fused kernel: return the log-likelihood contribution of paths in
/// `range` and accumulate their gradient into `grad`.
///
/// Each path's `S_J` is summed once and serves both the value and the
/// gradient. The value terms are exactly [`eval_range`]'s; a showing
/// path's `log1mexp(S_J)` is both its value term and the gradient's
/// denominator. The showing-incidence exponentials are taken in a
/// separate tight loop over `exps`, where independent calls overlap,
/// and then added in path order — the order a single walk would add
/// them — so every gradient sum is bitwise unchanged.
fn eval_grad_range(
    data: &PathData,
    log_q: &[f64],
    inv_q: &[f64],
    range: Range<usize>,
    grad: &mut [f64],
    exps: &mut Vec<f64>,
) -> f64 {
    let (arena, meta) = data.path_csr();
    let paths = || {
        let mut lo = meta[range.start].offset as usize;
        range.clone().map(move |j| {
            let hi = meta[j + 1].offset as usize;
            let path = (&arena[lo..hi], meta[j].wshow);
            lo = hi;
            path
        })
    };

    // Value, and the exponent `S − log q_i − log(1 − Q)` of every showing
    // incidence's gradient term. The range's incidence count bounds the
    // exponents, so `extend` below never reallocates.
    exps.clear();
    exps.reserve((meta[range.end].offset - meta[range.start].offset) as usize);
    let mut total = 0.0;
    for (path, wshow) in paths() {
        let w = f64::from(wshow >> 1);
        let s: f64 = path.iter().map(|&i| log_q[i as usize]).sum();
        if wshow & 1 == 1 {
            let s = s.min(0.0);
            let log_denom = log1mexp(s); // log(1 − Q)
            total += w * log_denom;
            exps.extend(path.iter().map(|&i| s - log_q[i as usize] - log_denom));
        } else {
            total += w * s;
        }
    }
    for x in exps.iter_mut() {
        *x = x.exp();
    }

    // Gradient, in path order.
    let mut exps = exps.iter();
    for (path, wshow) in paths() {
        let w = f64::from(wshow >> 1);
        if wshow & 1 == 1 {
            for (&i, e) in path.iter().zip(exps.by_ref()) {
                grad[i as usize] += w * e;
            }
        } else {
            for &i in path {
                // −1/q_i
                grad[i as usize] -= w * inv_q[i as usize];
            }
        }
    }
    total
}

/// Incremental evaluator: caches per-path `S_J` and the total, and updates
/// both in `O(paths through i)` when one coordinate moves.
///
/// Invariant: every cached `path_sum[j]` is `≤ 0` — maintained by clamping
/// in [`Self::commit`] (see the module docs on drift).
#[derive(Clone, Debug)]
pub struct IncrementalLikelihood<'a> {
    data: &'a PathData,
    log_q: Vec<f64>,
    path_sum: Vec<f64>,
    total: f64,
    commits: u64,
    /// Rebuild from scratch every this many commits to cap float drift.
    rebuild_every: u64,
}

impl<'a> IncrementalLikelihood<'a> {
    /// Initialise the caches at state `p`.
    pub fn new(data: &'a PathData, p: &[f64]) -> Self {
        let mut il = IncrementalLikelihood {
            data,
            log_q: Vec::new(),
            path_sum: Vec::new(),
            total: 0.0,
            commits: 0,
            rebuild_every: 100_000,
        };
        il.rebuild(p);
        il
    }

    /// Recompute every cache from scratch.
    pub fn rebuild(&mut self, p: &[f64]) {
        assert_eq!(p.len(), self.data.num_nodes());
        self.log_q = p.iter().map(|&pi| (1.0 - clamp_p(pi)).ln()).collect();
        let n_paths = self.data.num_paths();
        self.path_sum.clear();
        self.path_sum.reserve(n_paths);
        let (arena, meta) = self.data.path_csr();
        let mut total = 0.0;
        let mut lo = 0usize;
        for j in 0..n_paths {
            let hi = meta[j + 1].offset as usize;
            let wshow = meta[j].wshow;
            let s: f64 = arena[lo..hi].iter().map(|&i| self.log_q[i as usize]).sum();
            lo = hi;
            // Fresh sums of non-positive terms cannot exceed zero, but the
            // invariant is cheap to enforce uniformly.
            let s = s.min(0.0);
            self.path_sum.push(s);
            let c = if wshow & 1 == 1 {
                log1mexp(s.min(0.0))
            } else {
                s
            };
            total += f64::from(wshow >> 1) * c;
        }
        self.total = total;
    }

    /// Current total log-likelihood.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Log-likelihood change if `p_i` moved to `new_p` (no state change).
    pub fn delta(&self, i: usize, new_p: f64) -> f64 {
        let new_log_q = (1.0 - clamp_p(new_p)).ln();
        let d_log_q = new_log_q - self.log_q[i];
        let (_, meta) = self.data.path_csr();
        let mut delta = 0.0;
        for &j in self.data.paths_of(i) {
            let j = j as usize;
            let wshow = meta[j].wshow;
            let s_old = self.path_sum[j];
            let s_new = s_old + d_log_q;
            let (c_old, c_new) = if wshow & 1 == 1 {
                (log1mexp(s_old.min(0.0)), log1mexp(s_new.min(0.0)))
            } else {
                (s_old, s_new)
            };
            delta += f64::from(wshow >> 1) * (c_new - c_old);
        }
        delta
    }

    /// Serialize the caches bit-exactly for a checkpoint.
    ///
    /// The caches are stored as-is rather than rebuilt on restore: a
    /// rebuild recomputes the sums from scratch and differs from the
    /// drifted incremental values by ulps, which would break draw-for-draw
    /// resume equivalence.
    pub(crate) fn save_state(&self, w: &mut crate::checkpoint::Writer) {
        w.f64_slice(&self.log_q);
        w.f64_slice(&self.path_sum);
        w.f64(self.total);
        w.u64(self.commits);
        w.u64(self.rebuild_every);
    }

    /// Restore caches saved by [`Self::save_state`].
    pub(crate) fn restore_state(
        &mut self,
        r: &mut crate::checkpoint::Reader<'_>,
    ) -> Result<(), crate::checkpoint::CheckpointError> {
        let log_q = r.f64_vec()?;
        let path_sum = r.f64_vec()?;
        if log_q.len() != self.data.num_nodes() || path_sum.len() != self.data.num_paths() {
            return Err(crate::checkpoint::CheckpointError::Mismatch(format!(
                "likelihood cache sized {}x{}, dataset is {}x{}",
                log_q.len(),
                path_sum.len(),
                self.data.num_nodes(),
                self.data.num_paths()
            )));
        }
        self.log_q = log_q;
        self.path_sum = path_sum;
        self.total = r.f64()?;
        self.commits = r.u64()?;
        self.rebuild_every = r.u64()?;
        Ok(())
    }

    /// Commit the move of `p_i` to `new_p`, updating caches.
    pub fn commit(&mut self, i: usize, new_p: f64, delta: f64) {
        let new_log_q = (1.0 - clamp_p(new_p)).ln();
        let d_log_q = new_log_q - self.log_q[i];
        self.log_q[i] = new_log_q;
        let data = self.data; // copy of the shared reference, frees `self`
        for &j in data.paths_of(i) {
            let j = j as usize;
            // Clamp the stored sum: repeated += can round a near-zero sum
            // to a small positive value, which would later reach log1mexp.
            self.path_sum[j] = (self.path_sum[j] + d_log_q).min(0.0);
        }
        self.total += delta;
        self.commits += 1;
        if self.commits.is_multiple_of(self.rebuild_every) {
            // Periodic exact rebuild caps accumulated float drift.
            let p: Vec<f64> = self.log_q.iter().map(|&lq| 1.0 - lq.exp()).collect();
            self.rebuild(&p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{NodeId, PathObservation};

    fn data(paths: &[(&[u32], bool)]) -> PathData {
        let obs: Vec<PathObservation> = paths
            .iter()
            .map(|(ids, label)| {
                PathObservation::new(ids.iter().map(|&i| NodeId(i)).collect(), *label)
            })
            .collect();
        PathData::from_observations(&obs, &[])
    }

    #[test]
    fn single_path_probabilities() {
        // One non-showing path over two nodes: L = q1·q2.
        let d = data(&[(&[1, 2], false)]);
        let ll = LogLikelihood::new(&d);
        let p = [0.2, 0.5];
        let expect = (0.8 * 0.5_f64).ln();
        assert!((ll.eval(&p) - expect).abs() < 1e-12);

        // Showing path: L = 1 − q1·q2.
        let d = data(&[(&[1, 2], true)]);
        let ll = LogLikelihood::new(&d);
        let expect = (1.0 - 0.8 * 0.5_f64).ln();
        assert!((ll.eval(&p) - expect).abs() < 1e-12);
    }

    #[test]
    fn weights_multiply_contributions() {
        let d1 = data(&[(&[1], true), (&[1], true), (&[1], true)]);
        let d2 = data(&[(&[1], true)]);
        let p = [0.3];
        let l1 = LogLikelihood::new(&d1).eval(&p);
        let l2 = LogLikelihood::new(&d2).eval(&p);
        assert!((l1 - 3.0 * l2).abs() < 1e-12);
    }

    #[test]
    fn likelihood_increases_toward_truth() {
        // Node 1 damps everything, node 2 nothing. Paths: {1} shows,
        // {2} doesn't (many observations).
        let d = data(&[(&[1], true), (&[1], true), (&[2], false), (&[2], false)]);
        let ll = LogLikelihood::new(&d);
        let good = ll.eval(&[0.95, 0.05]);
        let bad = ll.eval(&[0.05, 0.95]);
        assert!(good > bad);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let d = data(&[
            (&[1, 2], true),
            (&[2, 3], false),
            (&[1, 3], true),
            (&[3], false),
        ]);
        let ll = LogLikelihood::new(&d);
        let p = [0.3, 0.6, 0.2];
        let mut g = vec![0.0; 3];
        ll.grad(&p, &mut g);
        let h = 1e-7;
        for i in 0..3 {
            let mut pp = p;
            pp[i] += h;
            let mut pm = p;
            pm[i] -= h;
            let fd = (ll.eval(&pp) - ll.eval(&pm)) / (2.0 * h);
            assert!((g[i] - fd).abs() < 1e-4, "i={i} grad={} fd={fd}", g[i]);
        }
    }

    #[test]
    fn gradient_sign_logic() {
        // A showing path pushes p up (positive gradient); a non-showing
        // path pushes p down.
        let d_show = data(&[(&[1], true)]);
        let mut g = vec![0.0];
        LogLikelihood::new(&d_show).grad(&[0.5], &mut g);
        assert!(g[0] > 0.0);

        let d_clean = data(&[(&[1], false)]);
        LogLikelihood::new(&d_clean).grad(&[0.5], &mut g);
        assert!(g[0] < 0.0);
    }

    /// The gradient as computed before value and gradient shared the
    /// fused kernel: its own `log q` table, one `exp` per clean incidence,
    /// and the same chunking and chunk-order reduction as
    /// [`LogLikelihood::eval_grad_in`].
    fn reference_grad(ll: &LogLikelihood, p: &[f64]) -> Vec<f64> {
        let data = ll.data();
        let log_q: Vec<f64> = p.iter().map(|&pi| (1.0 - clamp_p(pi)).ln()).collect();
        let (arena, meta) = data.path_csr();
        let grad_range = |range: Range<usize>, grad: &mut [f64]| {
            let mut lo = meta[range.start].offset as usize;
            for j in range {
                let hi = meta[j + 1].offset as usize;
                let wshow = meta[j].wshow;
                let nodes = &arena[lo..hi];
                lo = hi;
                let w = f64::from(wshow >> 1);
                let s: f64 = nodes.iter().map(|&i| log_q[i as usize]).sum();
                if wshow & 1 == 1 {
                    let s = s.min(0.0);
                    let log_denom = log1mexp(s);
                    for &i in nodes {
                        grad[i as usize] += w * (s - log_q[i as usize] - log_denom).exp();
                    }
                } else {
                    for &i in nodes {
                        grad[i as usize] -= w * (-log_q[i as usize]).exp();
                    }
                }
            }
        };
        let mut grad = vec![0.0; p.len()];
        let n_paths = data.num_paths();
        let threads = ll.thread_count(n_paths);
        if threads <= 1 {
            grad_range(0..n_paths, &mut grad);
            return grad;
        }
        let chunk = n_paths.div_ceil(threads);
        for t in 0..threads {
            let mut buf = vec![0.0; p.len()];
            grad_range(t * chunk..((t + 1) * chunk).min(n_paths), &mut buf);
            for (g, b) in grad.iter_mut().zip(&buf) {
                *g += b;
            }
        }
        grad
    }

    /// `eval_grad` must return `eval`'s value and the reference gradient,
    /// bit for bit.
    fn assert_fused_bitwise(ll: &LogLikelihood, p: &[f64]) {
        let mut g = vec![f64::NAN; p.len()];
        let value = ll.eval_grad(p, &mut g);
        assert_eq!(value.to_bits(), ll.eval(p).to_bits(), "value at p={p:?}");
        let want = reference_grad(ll, p);
        for (i, (a, b)) in g.iter().zip(&want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "grad[{i}]: {a} vs {b} at p={p:?}");
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut g2 = vec![f64::NAN; p.len()];
        ll.grad(p, &mut g2);
        assert_eq!(bits(&g), bits(&g2));
        // A workspace reused from another state, as HMC reuses it.
        let mut ws = ll.workspace();
        let other: Vec<f64> = p.iter().map(|&x| 1.0 - x).collect();
        ws.fill(&other);
        ll.eval_grad_in(&mut ws, &mut g2);
        ws.fill(p);
        assert_eq!(ll.eval_grad_in(&mut ws, &mut g2).to_bits(), value.to_bits());
        assert_eq!(bits(&g), bits(&g2));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// Fused value and gradient equal `eval` and the unfused gradient
        /// bitwise: weights > 1, show-only, clean-only and single-node
        /// paths, `p` at the clamp boundaries, serial and forced-parallel.
        #[test]
        fn eval_grad_is_bitwise_eval_plus_grad(
            paths in proptest::collection::vec(
                (proptest::collection::vec(0u32..10, 1..6), proptest::prelude::any::<bool>(), 1u32..4),
                1..30
            ),
            labels in 0u8..3,
            states in proptest::collection::vec((0u8..8, 0.0f64..1.0), 10),
        ) {
            let mut obs = Vec::new();
            for (ids, shows, copies) in &paths {
                // 0: as drawn; 1: show-only; 2: clean-only.
                let shows = match labels {
                    0 => *shows,
                    1 => true,
                    _ => false,
                };
                for _ in 0..*copies {
                    obs.push(PathObservation::new(ids.iter().map(|&i| NodeId(i)).collect(), shows));
                }
            }
            let d = PathData::from_observations(&obs, &[]);
            let p: Vec<f64> = (0..d.num_nodes())
                .map(|i| match states[i] {
                    (0, _) => P_EPS,
                    (1, _) => 1.0 - P_EPS,
                    (2, _) => 0.0,
                    (3, _) => 1.0,
                    (4, _) => 2.0 * P_EPS,
                    (_, u) => u,
                })
                .collect();
            for threshold in [usize::MAX, 0] {
                assert_fused_bitwise(&LogLikelihood::new(&d).with_parallel_threshold(threshold), &p);
            }
        }
    }

    /// A dataset large enough that the forced-parallel path really splits
    /// into chunks (on a multi-core host): still bitwise the reference.
    #[test]
    fn chunked_eval_grad_is_bitwise_reference() {
        let mut obs = Vec::new();
        let mut x = 7u64;
        for k in 0..5000u32 {
            let mut nodes = Vec::new();
            for _ in 0..1 + k % 4 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                nodes.push(NodeId((x >> 33) as u32 % 300));
            }
            obs.push(PathObservation::new(nodes, k % 3 != 0));
        }
        let d = PathData::from_observations(&obs, &[]);
        let p: Vec<f64> = (0..d.num_nodes())
            .map(|i| match i % 7 {
                0 => P_EPS,
                1 => 1.0 - P_EPS,
                _ => (i as f64 * 0.37).fract(),
            })
            .collect();
        for threshold in [usize::MAX, 0] {
            assert_fused_bitwise(
                &LogLikelihood::new(&d).with_parallel_threshold(threshold),
                &p,
            );
        }
    }

    #[test]
    fn parallel_eval_matches_serial() {
        // Build a dataset big enough for several chunks and compare a
        // forced-parallel evaluation against a forced-serial one.
        let mut obs = Vec::new();
        let mut x = 42u64;
        for k in 0..3000u32 {
            let mut nodes = Vec::new();
            for _ in 0..3 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                nodes.push(NodeId((x >> 33) as u32 % 100));
            }
            obs.push(PathObservation::new(nodes, k % 3 == 0));
        }
        let d = PathData::from_observations(&obs, &[]);
        let p: Vec<f64> = (0..d.num_nodes())
            .map(|i| (i as f64 * 0.37).fract().clamp(0.01, 0.99))
            .collect();

        let serial = LogLikelihood::new(&d).with_parallel_threshold(usize::MAX);
        let parallel = LogLikelihood::new(&d).with_parallel_threshold(0);
        let (es, ep) = (serial.eval(&p), parallel.eval(&p));
        assert!(
            (es - ep).abs() < 1e-9 * es.abs().max(1.0),
            "serial {es} vs parallel {ep}"
        );

        let mut gs = vec![0.0; d.num_nodes()];
        let mut gp = vec![0.0; d.num_nodes()];
        serial.grad(&p, &mut gs);
        parallel.grad(&p, &mut gp);
        for (i, (a, b)) in gs.iter().zip(&gp).enumerate() {
            assert!(
                (a - b).abs() < 1e-9 * a.abs().max(1.0),
                "grad[{i}]: {a} vs {b}"
            );
        }
    }

    #[test]
    fn incremental_matches_full_on_random_walk() {
        let d = data(&[
            (&[1, 2, 3], true),
            (&[2, 3], false),
            (&[1, 4], true),
            (&[4, 5], false),
            (&[1, 2, 3, 4, 5], true),
        ]);
        let ll = LogLikelihood::new(&d);
        let mut p = vec![0.5; d.num_nodes()];
        let mut inc = IncrementalLikelihood::new(&d, &p);
        assert!((inc.total() - ll.eval(&p)).abs() < 1e-10);

        // Deterministic pseudo-random walk.
        let mut x = 123456789u64;
        for step in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = (x >> 33) as usize % d.num_nodes();
            let new_p = ((x >> 11) as f64 / (1u64 << 53) as f64).clamp(0.01, 0.99);
            let delta = inc.delta(i, new_p);
            // Cross-check against full evaluation.
            let mut p2 = p.clone();
            p2[i] = new_p;
            let full_delta = ll.eval(&p2) - ll.eval(&p);
            assert!(
                (delta - full_delta).abs() < 1e-8,
                "step {step}: inc {delta} vs full {full_delta}"
            );
            if step % 3 != 0 {
                inc.commit(i, new_p, delta);
                p = p2;
            }
            assert!((inc.total() - ll.eval(&p)).abs() < 1e-7);
        }
    }

    #[test]
    fn extreme_p_values_stay_finite() {
        let d = data(&[(&[1, 2], true), (&[1, 2], false)]);
        let ll = LogLikelihood::new(&d);
        for p in [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]] {
            let v = ll.eval(&p);
            assert!(v.is_finite(), "p={p:?} gave {v}");
            let mut g = vec![0.0; 2];
            ll.grad(&p, &mut g);
            assert!(g.iter().all(|x| x.is_finite()), "p={p:?} grad {g:?}");
        }
    }

    #[test]
    fn delta_of_identity_move_is_zero() {
        let d = data(&[(&[1, 2], true)]);
        let p = [0.4, 0.6];
        let inc = IncrementalLikelihood::new(&d, &p);
        assert!(inc.delta(0, 0.4).abs() < 1e-12);
    }

    /// Regression for the drift bug: long commit sequences used to let
    /// `path_sum[j]` creep above zero via accumulated `+=` rounding, at
    /// which point the next `delta` (or a rebuild-time `log1mexp`) hit a
    /// positive argument — a `debug_assert` in debug builds, NaN in
    /// release. The commit-time clamp must hold the invariant through an
    /// adversarial schedule of boundary-hugging moves with the periodic
    /// rebuild disabled.
    #[test]
    fn commit_drift_never_breaks_log1mexp_invariant() {
        let d = data(&[
            (&[1, 2], true),
            (&[1, 3], true),
            (&[2, 3], false),
            (&[1, 2, 3], true),
        ]);
        let ll = LogLikelihood::new(&d);
        let p0 = vec![0.5; d.num_nodes()];
        let mut inc = IncrementalLikelihood::new(&d, &p0);
        inc.rebuild_every = u64::MAX; // no periodic safety net

        // Alternate every coordinate between the clamp boundaries — each
        // swing moves log_q by ~20.7, the worst case for cancellation in
        // the cached sums — with occasional mid-range values mixed in.
        let mut x = 987654321u64;
        let mut p = p0.clone();
        for step in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = (x >> 33) as usize % d.num_nodes();
            let new_p = match step % 4 {
                0 => P_EPS,       // q → 1 − eps, log_q ≈ −1e-9
                1 => 1.0 - P_EPS, // q → eps, log_q ≈ −20.7
                2 => 1.0 - 1e-7,
                _ => 0.5,
            };
            let delta = inc.delta(i, new_p);
            assert!(delta.is_finite(), "step {step}: non-finite delta");
            inc.commit(i, new_p, delta);
            p[i] = clamp_p(new_p);
            // The invariant every log1mexp call depends on:
            assert!(
                inc.path_sum.iter().all(|&s| s <= 0.0),
                "step {step}: cached path sum went positive"
            );
        }
        assert!(inc.total().is_finite());
        // After the walk the cache must still agree with a fresh full
        // evaluation to within accumulated-rounding tolerance.
        let full = ll.eval(&p);
        assert!(
            (inc.total() - full).abs() < 1e-5 * full.abs().max(1.0),
            "cache {} vs full {}",
            inc.total(),
            full
        );
    }

    /// The concrete drift failure: commit-time `+=` rounding eventually
    /// pushes a near-zero cached sum positive (reaching that organically
    /// takes ~1e11 boundary-hugging commits — the injected `path_sum`
    /// below is that end state, not an arbitrary corruption). Pre-fix, the
    /// positive sum then survived **every** subsequent commit (`+=` keeps
    /// whatever sign drift produced) and poisoned later `log1mexp` calls;
    /// post-fix the very next commit clamps it back into the invariant.
    #[test]
    fn commit_restores_invariant_from_drifted_state() {
        let d = data(&[(&[1, 2], true)]);
        let mut inc = IncrementalLikelihood::new(&d, &[1e-9, 1e-9]);
        inc.rebuild_every = u64::MAX;
        inc.path_sum[0] = 5e-14; // accumulated-rounding end state

        // `delta` on the drifted cache must not produce NaN thanks to its
        // call-site clamps (`−inf`/`+inf` is the honest answer for a sum
        // clamped to zero — P(show) = 0 — and unlike NaN it cannot
        // silently poison an accept/reject comparison; pre-fix this path
        // hit the `log1mexp` debug_assert instead).
        let delta = inc.delta(0, 0.5);
        assert!(!delta.is_nan(), "delta from drifted cache: {delta}");

        // A tiny same-coordinate nudge (d_log_q ≈ −5e-8, far smaller than
        // needed to rescue a positive sum pre-fix, where path_sum would
        // stay at ~5e-14 − 5e-8 + later +5e-8 round trips): after ANY
        // commit the invariant must hold again.
        let dl = inc.delta(0, 1e-9 + 5e-8);
        inc.commit(0, 1e-9 + 5e-8, dl);
        let dl = inc.delta(0, 1e-9);
        inc.commit(0, 1e-9, dl);
        assert!(
            inc.path_sum.iter().all(|&s| s <= 0.0),
            "commit failed to restore the ≤0 invariant: {:?}",
            inc.path_sum
        );
        // The running total was corrupted by the ±inf deltas the drifted
        // state produced (inf − inf = NaN); the periodic rebuild is the
        // designed recovery for the total, and must come back finite.
        inc.rebuild(&[1e-9, 1e-9]);
        assert!(inc.total().is_finite(), "rebuild total: {}", inc.total());
        assert!(inc.path_sum.iter().all(|&s| s <= 0.0));
    }
}
