//! The repository benchmark: three paper workloads composed from the
//! library's public functions, one layer call at a time, each call timed
//! from outside the program.
//!
//! * `rfd_1min` — Fig. 9 / Table 2 / Table 4 (RFD half): one 1-minute
//!   campaign, BeCAUSe, the heuristics and both oracle evaluations.
//! * `rov_inference` — Table 4 (ROV half): `rov::build`, the path data
//!   and BeCAUSe against the planted ROV set.
//! * `interval_sweep` — Fig. 12: six campaigns at 1/2/3/5/10/15 minutes
//!   on one topology and deployment, each with BeCAUSe and the
//!   heuristics.
//!
//! The composition mirrors `experiments::run_campaign`,
//! `experiments::infer_with_supervision` and `RovScenario::evaluate` with
//! every opt-in flag off, so a workload computes what the binaries
//! compute (`tests/composition.rs` checks this). The program is not
//! instrumented: counts come from values it already returns.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use beacon::Campaign;
use because::chain::ChainConfig;
use because::{Analysis, AnalysisConfig, Chain, Prior, SupervisorConfig};
use bgpsim::AsId;
use collector::CollectorSet;
use experiments::infer::{path_data_from_labels, Coverage, InferenceOutput};
use experiments::metrics::{detectable_universe, evaluate_against_oracle};
use experiments::pipeline::{CampaignOutput, ExperimentConfig};
use experiments::Deployment;
use heuristics::HeuristicConfig;
use netsim::{SimDuration, SimTime};
use rov::{PrecisionRecall, RovScenarioConfig};
use topology::{generate, TopologyConfig};

/// The workloads, in the order the benchmark lists them.
pub const WORKLOADS: [&str; 3] = ["rfd_1min", "rov_inference", "interval_sweep"];

/// The Fig. 12 beacon intervals, in minutes.
pub const SWEEP_INTERVALS: [u64; 6] = [1, 2, 3, 5, 10, 15];

/// The seed every recorded fingerprint was taken at (the binaries'
/// default).
pub const FINGERPRINT_SEED: u64 = 2020;

/// Problem size, matching the binaries' `REPRO_SCALE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// `REPRO_SCALE=tiny`: for tests.
    Tiny,
    /// `REPRO_SCALE=small`: the benchmarked size.
    Small,
}

/// Topology settings of the binaries at `scale`. This and the config
/// functions below restate `crates/experiments/src/bin/common/mod.rs`;
/// `tests/composition.rs` checks that the two agree.
pub fn topology_config(scale: Scale, seed: u64) -> TopologyConfig {
    match scale {
        Scale::Tiny => TopologyConfig::tiny(seed),
        Scale::Small => TopologyConfig {
            n_tier1: 6,
            n_transit: 60,
            n_stub: 150,
            n_beacon_sites: 7,
            n_vantage_points: 40,
            seed,
            ..TopologyConfig::default()
        },
    }
}

/// A single-interval experiment as the binaries configure it, with
/// tracing and faults off.
pub fn experiment_config(scale: Scale, interval_mins: u64, seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::single_interval(interval_mins, seed);
    cfg.topology = topology_config(scale, seed);
    cfg.cycles = match scale {
        Scale::Tiny => 3,
        Scale::Small => 4,
    };
    cfg.break_duration = SimDuration::from_hours(2);
    cfg
}

/// The binaries' analysis settings at `scale`, with progress and tracing
/// off.
pub fn analysis_config(scale: Scale, seed: u64) -> AnalysisConfig {
    let (warmup, samples) = match scale {
        Scale::Tiny => (200, 400),
        Scale::Small => (400, 800),
    };
    AnalysisConfig {
        prior: Prior::default(),
        chain: ChainConfig {
            warmup,
            samples,
            thin: 1,
        },
        n_chains: 2,
        seed,
        ..Default::default()
    }
}

/// The ROV scenario as `table4_precision_recall` configures it.
pub fn rov_config(scale: Scale, seed: u64) -> RovScenarioConfig {
    RovScenarioConfig {
        topology: topology_config(scale, seed),
        seed,
        ..Default::default()
    }
}

/// One timed call (or a group of calls) on the benchmark's clock.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name (`bgpsim.simulate`, …) or group name (`campaign.5min`).
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Seconds since the recorder started.
    pub start: f64,
    /// Seconds since the recorder started.
    pub end: f64,
    /// True for a call into a layer, false for a grouping span.
    pub layer: bool,
}

/// Times layer calls from outside. Busy seconds per layer are always
/// kept (set-up and analysis time feed end-to-end metrics); spans are
/// recorded only when tracing.
pub struct Recorder {
    epoch: Instant,
    traced: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    busy: BTreeMap<&'static str, f64>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new(traced: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            traced,
            spans: Vec::new(),
            open: Vec::new(),
            busy: BTreeMap::new(),
        }
    }

    fn since_epoch(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64()
    }

    /// Time one call into layer `name`.
    pub fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        *self.busy.entry(name).or_insert(0.0) += end.duration_since(start).as_secs_f64();
        if self.traced {
            self.spans.push(Span {
                name: name.to_string(),
                parent: self.open.last().copied(),
                start: self.since_epoch(start),
                end: self.since_epoch(end),
                layer: true,
            });
        }
        out
    }

    /// Run `f` under a grouping span (traced runs only).
    pub fn group<T>(&mut self, name: String, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.traced {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.since_epoch(Instant::now());
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end: start,
            layer: false,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.since_epoch(Instant::now());
        out
    }

    /// Busy seconds of one layer so far.
    pub fn busy(&self, name: &str) -> f64 {
        self.busy.get(name).copied().unwrap_or(0.0)
    }

    /// The recorded spans (empty unless tracing).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-layer values of one workload run, by metric name.
#[derive(Clone, Debug, Default)]
pub struct Tally(BTreeMap<&'static str, f64>);

impl Tally {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    fn min(&mut self, name: &'static str, v: f64) {
        let e = self.0.entry(name).or_insert(f64::INFINITY);
        *e = e.min(v);
    }

    fn max(&mut self, name: &'static str, v: f64) {
        let e = self.0.entry(name).or_insert(0.0);
        *e = e.max(v);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    fn ratio(&mut self, name: &'static str, num: &str, den: &str) {
        let d = self.get(den);
        self.0
            .insert(name, if d > 0.0 { self.get(num) / d } else { 0.0 });
    }

    /// Every value, by name.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(&k, &v)| (k, v))
    }
}

/// Topology and deployment → network → beacon campaign: everything
/// before the first simulated event.
fn set_up(
    rec: &mut Recorder,
    cfg: &ExperimentConfig,
) -> (topology::Topology, Deployment, bgpsim::Network, Campaign) {
    let (topology, deployment) = rec.layer("topology", || {
        let topology = generate(&cfg.topology);
        let deployment = Deployment::assign(&topology, &cfg.deployment);
        (topology, deployment)
    });
    let net_config = bgpsim::NetworkConfig {
        jitter: 0.5,
        ..bgpsim::NetworkConfig::realistic(cfg.seed)
    };
    let mut net = rec.layer("bgpsim.instantiate", || {
        topology.instantiate(net_config, deployment.policy_hook())
    });
    let campaign = rec.layer("beacon", || {
        let campaign = Campaign::new(
            &topology.beacon_sites,
            &cfg.intervals,
            cfg.break_duration,
            SimTime::ZERO,
            cfg.cycles,
        );
        campaign.apply(&mut net);
        campaign
    });
    (topology, deployment, net, campaign)
}

/// The layers whose busy time is a workload's `setup_s`: everything
/// before the first simulated event or MCMC draw.
fn setup_layers(workload: &str) -> &'static [&'static str] {
    match workload {
        "rov_inference" => &["rov.build", "pathdata"],
        _ => &["topology", "bgpsim.instantiate", "beacon"],
    }
}

/// Only the set-up of workload `name`, as its full run performs it.
/// Returns the set-up seconds, or `None` for an unknown workload.
pub fn set_up_only(name: &str, scale: Scale, seed: u64) -> Option<f64> {
    let mut rec = Recorder::new(false);
    match name {
        "rfd_1min" => {
            std::hint::black_box(set_up(&mut rec, &experiment_config(scale, 1, seed)));
        }
        "interval_sweep" => {
            for mins in SWEEP_INTERVALS {
                std::hint::black_box(set_up(&mut rec, &experiment_config(scale, mins, seed)));
            }
        }
        "rov_inference" => {
            let scenario = rec.layer("rov.build", || rov::build(&rov_config(scale, seed)));
            std::hint::black_box(rec.layer("pathdata", || scenario.path_data()));
        }
        _ => return None,
    }
    Some(setup_layers(name).iter().map(|l| rec.busy(l)).sum())
}

/// One campaign, layer by layer: what `run_campaign` computes on a
/// fault-free, untraced config.
pub fn campaign(rec: &mut Recorder, cfg: &ExperimentConfig, tally: &mut Tally) -> CampaignOutput {
    let (topology, deployment, mut net, campaign) = set_up(rec, cfg);
    tally.add("topology.ases", topology.ases.len() as f64);
    tally.add("topology.links", topology.links.len() as f64);

    rec.layer("bgpsim.simulate", || net.run_to_quiescence());
    let events_processed = net.events_processed();
    let updates_delivered = net.delivered();
    tally.add("netsim.events", events_processed as f64);
    tally.add("bgpsim.updates_delivered", updates_delivered as f64);
    tally.add("bgpsim.mrai_deferrals", net.stats().mrai_deferrals as f64);
    let suppressions: u64 = net.stats().rfd.values().map(|p| p.suppressions).sum();
    tally.add("bgpsim.rfd_suppressions", suppressions as f64);
    tally.max(
        "netsim.queue_high_water",
        net.queue_depth_high_water() as f64,
    );

    let horizon = campaign.end();
    let (taps, dump) = rec.layer("collector", || {
        let taps = net.take_tap_log();
        let collectors = CollectorSet::assign(&topology.vantage_points, cfg.seed);
        let dump = collectors.process(&taps, &cfg.collector, horizon);
        (taps.len(), dump)
    });
    tally.add("collector.taps", taps as f64);
    tally.add("collector.records", dump.len() as f64);

    let labels = rec.layer("signature", || {
        let mut labels = Vec::new();
        for schedule in campaign.beacon_schedules() {
            labels.extend(signature::label_dump(&dump, schedule, &cfg.labeling));
        }
        labels
    });
    tally.add("signature.paths", labels.len() as f64);
    tally.add(
        "signature.paths_rfd",
        labels.iter().filter(|l| l.rfd).count() as f64,
    );

    CampaignOutput {
        topology,
        deployment,
        campaign,
        dump,
        labels,
        events_processed,
        updates_delivered,
        report: obs::RunReport::new("campaign"),
        trace: None,
        fault_counters: Default::default(),
        vp_outages: BTreeMap::new(),
    }
}

/// Count the path data and run BeCAUSe on it, tallying kernel counters.
fn analyse(
    rec: &mut Recorder,
    data: &because::PathData,
    acfg: &AnalysisConfig,
    tally: &mut Tally,
) -> Analysis {
    tally.add("pathdata.paths", data.num_paths() as f64);
    tally.add("pathdata.nodes", data.num_nodes() as f64);
    tally.add("pathdata.observations", data.num_observations() as f64);
    let incidences: usize = (0..data.num_paths())
        .map(|j| data.path_nodes(j).len())
        .sum();
    tally.add("pathdata.incidences", incidences as f64);

    let before = rec.busy("because");
    let analysis = rec.layer("because", || {
        Analysis::run_supervised(data, acfg, &SupervisorConfig::default())
    });
    let secs = rec.busy("because") - before;
    let sum = |chains: &[Chain], f: fn(&Chain) -> u64| chains.iter().map(f).sum::<u64>() as f64;
    let accept = |chains: &[Chain]| {
        let proposals = sum(chains, |c| c.proposals);
        let accepted: f64 = chains
            .iter()
            .map(|c| c.accept_rate * c.proposals as f64)
            .sum();
        if proposals > 0.0 {
            accepted / proposals
        } else {
            0.0
        }
    };
    tally.add("because.analyses", 1.0);
    tally.add("because.mh.secs", analysis.mh_secs);
    tally.add(
        "because.mh.likelihood_evals",
        sum(&analysis.mh_chains, |c| c.likelihood_evals),
    );
    tally.add("because.mh.accept_rate", accept(&analysis.mh_chains));
    tally.add("because.hmc.secs", analysis.hmc_secs);
    let grad_evals = sum(&analysis.hmc_chains, |c| c.grad_evals);
    tally.add("because.hmc.grad_evals", grad_evals);
    tally.add("because.hmc.accept_rate", accept(&analysis.hmc_chains));
    tally.add(
        "because.hmc.divergences",
        sum(&analysis.hmc_chains, |c| c.divergences),
    );
    tally.add(
        "because.hmc.incidence_visits",
        grad_evals * incidences as f64,
    );
    tally.add(
        "because.post_secs",
        secs - analysis.mh_secs - analysis.hmc_secs,
    );
    tally.min("because.min_ess_bulk", analysis.min_ess_bulk);
    tally.min("ess_per_s", analysis.min_ess_bulk / secs);
    analysis
}

/// Path data → BeCAUSe → heuristics on one campaign: what
/// `infer_with_supervision` computes with the default supervisor.
pub fn infer(
    rec: &mut Recorder,
    output: &CampaignOutput,
    acfg: &AnalysisConfig,
    tally: &mut Tally,
) -> InferenceOutput {
    let data = rec.layer("pathdata", || path_data_from_labels(output));
    let analysis = analyse(rec, &data, acfg, tally);
    let hcfg = HeuristicConfig::default();
    let heuristics = rec.layer("heuristics", || {
        let schedules: Vec<&beacon::BeaconSchedule> = output.campaign.beacon_schedules().collect();
        heuristics::evaluate(&output.labels, &output.dump, &schedules, &hcfg)
    });
    tally.add("heuristics.paths", output.labels.len() as f64);
    InferenceOutput {
        data,
        analysis,
        heuristics,
        heuristic_threshold: hcfg.threshold,
        coverage: Coverage::from_labels(&output.labels),
    }
}

/// What one workload run produced: its per-layer values, what the
/// correctness check found, and a fingerprint of the deterministic
/// results.
pub struct Run {
    /// Per-layer values (sums over campaigns and analyses), plus
    /// `ess_per_s`.
    pub tally: Tally,
    /// Seconds before the first simulated event or MCMC draw.
    pub setup_s: f64,
    /// `Err` names the first check that failed.
    pub check: Result<(), String>,
    /// The deterministic results the check compares, as text.
    pub fingerprint: String,
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, recorded {want:?}"))
    }
}

/// Invariants every campaign's labels must meet, at any seed: some path
/// is labelled RFD, and each RFD path crosses a damping session.
fn check_rfd_labels(output: &CampaignOutput) -> Result<(), String> {
    let rfd: Vec<_> = output.labels.iter().filter(|l| l.rfd).collect();
    if rfd.is_empty() {
        return Err("no path labelled RFD".into());
    }
    for l in rfd {
        let crosses = l
            .path
            .asns()
            .windows(2)
            .any(|w| output.deployment.damps_session(w[0], w[1]).is_some());
        if !crosses {
            return Err(format!("RFD path {} crosses no damping session", l.path));
        }
    }
    Ok(())
}

fn check_categories(analysis: &Analysis, nodes: usize) -> Result<(), String> {
    let counts = analysis.category_counts();
    expect_eq("category count total", counts.iter().sum::<usize>(), nodes)
}

fn pr_counts(pr: &PrecisionRecall) -> [usize; 3] {
    [
        pr.true_positives.len(),
        pr.false_positives.len(),
        pr.false_negatives.len(),
    ]
}

/// BeCAUSe's TP/FP/FN against the oracle.
fn tally_oracle(tally: &mut Tally, pr: &PrecisionRecall) {
    let [tp, fp, fneg] = pr_counts(pr);
    tally.add("oracle.tp", tp as f64);
    tally.add("oracle.fp", fp as f64);
    tally.add("oracle.fn", fneg as f64);
}

/// `rfd_1min`.
fn rfd_1min(rec: &mut Recorder, scale: Scale, seed: u64) -> Run {
    let mut tally = Tally::default();
    let cfg = experiment_config(scale, 1, seed);
    let out = &campaign(rec, &cfg, &mut tally);
    let inf = infer(rec, out, &analysis_config(scale, seed), &mut tally);
    let interval = SimDuration::from_mins(1);
    let (because_eval, heuristics_eval) = rec.layer("oracle", || {
        (
            evaluate_against_oracle(out, &inf.because_flagged(), interval),
            evaluate_against_oracle(out, &inf.heuristics_flagged(), interval),
        )
    });
    tally_oracle(&mut tally, &because_eval.pr);

    let categories = inf.analysis.category_counts();
    let fingerprint = format!(
        "events={} records={} categories={:?} because={:?} heuristics={:?}",
        out.events_processed,
        out.dump.len(),
        categories,
        pr_counts(&because_eval.pr),
        pr_counts(&heuristics_eval.pr)
    );
    let check = (|| {
        check_rfd_labels(out)?;
        check_categories(&inf.analysis, inf.data.num_nodes())?;
        if scale == Scale::Small && seed == FINGERPRINT_SEED {
            expect_eq("events", out.events_processed, 2_254_365)?;
            expect_eq("dump records", out.dump.len(), 289_090)?;
            expect_eq("categories", categories, [44, 1, 3, 0, 4])?;
            expect_eq("BeCAUSe TP/FP/FN", pr_counts(&because_eval.pr), [4, 0, 0])?;
            expect_eq(
                "heuristics TP/FP/FN",
                pr_counts(&heuristics_eval.pr),
                [4, 4, 0],
            )?;
        }
        Ok(())
    })();
    Run {
        tally,
        setup_s: 0.0,
        check,
        fingerprint,
    }
}

/// The ROV layers: `rov::build` → path data → BeCAUSe → precision and
/// recall against the planted set, what `RovScenario::evaluate` computes.
pub fn rov_layers(
    rec: &mut Recorder,
    scale: Scale,
    seed: u64,
    tally: &mut Tally,
) -> (
    rov::RovScenario,
    because::PathData,
    Analysis,
    PrecisionRecall,
) {
    let scenario = rec.layer("rov.build", || rov::build(&rov_config(scale, seed)));
    let data = rec.layer("pathdata", || scenario.path_data());
    tally.add("topology.ases", scenario.topology.ases.len() as f64);
    tally.add("topology.links", scenario.topology.links.len() as f64);
    let analysis = analyse(rec, &data, &analysis_config(scale, seed), tally);
    let pr = rec.layer("oracle", || {
        let flagged: BTreeSet<AsId> = analysis
            .property_nodes()
            .iter()
            .map(|n| AsId(n.0))
            .collect();
        let universe: BTreeSet<AsId> = data.ids().iter().map(|n| AsId(n.0)).collect();
        PrecisionRecall::compute(&flagged, &scenario.rov_ases, &universe)
    });
    (scenario, data, analysis, pr)
}

/// `rov_inference`.
fn rov_inference(rec: &mut Recorder, scale: Scale, seed: u64) -> Run {
    let mut tally = Tally::default();
    let (scenario, data, analysis, pr) = rov_layers(rec, scale, seed, &mut tally);
    tally_oracle(&mut tally, &pr);

    let categories = analysis.category_counts();
    let fingerprint = format!(
        "paths={} pathdata={} categories={:?} rov_tp_fp_fn={:?}",
        scenario.paths.len(),
        data.num_paths(),
        categories,
        pr_counts(&pr)
    );
    let check = (|| {
        let rov_paths: Vec<_> = scenario.paths.iter().filter(|(_, rov)| *rov).collect();
        if rov_paths.is_empty() {
            return Err("no path labelled ROV".to_string());
        }
        if let Some((p, _)) = rov_paths
            .iter()
            .find(|(p, _)| !p.asns().iter().any(|a| scenario.rov_ases.contains(a)))
        {
            return Err(format!("ROV path {p} crosses no planted ROV AS"));
        }
        check_categories(&analysis, data.num_nodes())?;
        if scale == Scale::Small && seed == FINGERPRINT_SEED {
            expect_eq("collected paths", scenario.paths.len(), 444)?;
            expect_eq("PathData paths", data.num_paths(), 442)?;
            expect_eq("categories", categories, [2, 0, 214, 3, 2])?;
            expect_eq(
                "precision/recall %",
                [
                    (pr.precision() * 100.0).round(),
                    (pr.recall() * 100.0).round(),
                ],
                [80.0, 50.0],
            )?;
        }
        Ok(())
    })();
    Run {
        tally,
        setup_s: 0.0,
        check,
        fingerprint,
    }
}

/// `interval_sweep`.
fn interval_sweep(rec: &mut Recorder, scale: Scale, seed: u64) -> Run {
    let mut tally = Tally::default();
    let acfg = analysis_config(scale, seed);
    let mut per_interval = Vec::new();
    let mut common_universe: Option<BTreeSet<AsId>> = None;
    let mut check = Ok(());
    let (mut events, mut records) = (0, 0);
    for mins in SWEEP_INTERVALS {
        let cfg = experiment_config(scale, mins, seed);
        rec.group(format!("campaign.{mins}min"), |rec| {
            let out = &campaign(rec, &cfg, &mut tally);
            let inf = infer(rec, out, &acfg, &mut tally);
            let universe = rec.layer("oracle", || detectable_universe(out));
            common_universe = Some(match common_universe.take() {
                None => universe,
                Some(u) => u.intersection(&universe).copied().collect(),
            });
            let property = |with_inconsistent: bool| -> BTreeSet<AsId> {
                inf.analysis
                    .reports
                    .iter()
                    .filter(|r| r.is_property() && (with_inconsistent || !r.flagged_inconsistent))
                    .map(|r| AsId(r.id.0))
                    .collect()
            };
            per_interval.push((mins, property(false), property(true)));
            events += out.events_processed;
            records += out.dump.len();
            if check.is_ok() {
                check = check_categories(&inf.analysis, inf.data.num_nodes())
                    .and_then(|()| {
                        if mins == 1 {
                            check_rfd_labels(out)
                        } else {
                            Ok(())
                        }
                    })
                    .map_err(|e| format!("{mins} min: {e}"));
            }
        });
    }
    let universe = common_universe.unwrap_or_default();
    let shares: Vec<[usize; 2]> = per_interval
        .iter()
        .map(|(_, c, a)| {
            [
                c.intersection(&universe).count(),
                a.intersection(&universe).count(),
            ]
        })
        .collect();
    let fingerprint = format!(
        "events={events} records={records} universe={} flagged_per_interval={shares:?}",
        universe.len()
    );
    if check.is_ok() && scale == Scale::Small && seed == FINGERPRINT_SEED {
        check = (|| {
            expect_eq("events", events, 5_149_009)?;
            expect_eq("dump records", records, 671_962)?;
            expect_eq("fig12 universe", universe.len(), SWEEP_UNIVERSE)?;
            expect_eq("fig12 flagged per interval", shares, SWEEP_FLAGGED.to_vec())
        })();
    }
    Run {
        tally,
        setup_s: 0.0,
        check,
        fingerprint,
    }
}

/// Fig. 12 at seed 2020, small scale: ASs measured in all six campaigns.
const SWEEP_UNIVERSE: usize = 52;
/// Fig. 12 at seed 2020, small scale: per interval, the ASs flagged
/// consistently and including inconsistent dampers (the numerators of
/// the two share columns).
const SWEEP_FLAGGED: [[usize; 2]; 6] = [[4, 4], [4, 4], [3, 4], [2, 2], [2, 2], [0, 2]];

/// Run workload `name`, then derive the per-layer rates.
pub fn run_workload(rec: &mut Recorder, name: &str, scale: Scale, seed: u64) -> Option<Run> {
    let mut run = match name {
        "rfd_1min" => rfd_1min(rec, scale, seed),
        "rov_inference" => rov_inference(rec, scale, seed),
        "interval_sweep" => interval_sweep(rec, scale, seed),
        _ => return None,
    };
    run.setup_s = setup_layers(name).iter().map(|l| rec.busy(l)).sum();
    let t = &mut run.tally;
    for (metric, layer) in [
        ("topology.secs", "topology"),
        ("bgpsim.instantiate_secs", "bgpsim.instantiate"),
        ("beacon.secs", "beacon"),
        ("bgpsim.simulate_secs", "bgpsim.simulate"),
        ("collector.secs", "collector"),
        ("signature.secs", "signature"),
        ("pathdata.secs", "pathdata"),
        ("rov.build_secs", "rov.build"),
        ("because.secs", "because"),
        ("heuristics.secs", "heuristics"),
        ("oracle.secs", "oracle"),
    ] {
        t.add(metric, rec.busy(layer));
    }
    t.ratio(
        "bgpsim.events_per_s",
        "netsim.events",
        "bgpsim.simulate_secs",
    );
    t.ratio(
        "bgpsim.deliveries_per_s",
        "bgpsim.updates_delivered",
        "bgpsim.simulate_secs",
    );
    t.ratio(
        "collector.records_per_s",
        "collector.records",
        "collector.secs",
    );
    t.ratio(
        "collector.kept_share",
        "collector.records",
        "collector.taps",
    );
    t.ratio(
        "signature.records_per_s",
        "collector.records",
        "signature.secs",
    );
    t.ratio(
        "because.mh.evals_per_s",
        "because.mh.likelihood_evals",
        "because.mh.secs",
    );
    t.ratio(
        "because.hmc.grad_evals_per_s",
        "because.hmc.grad_evals",
        "because.hmc.secs",
    );
    t.ratio(
        "because.hmc.incidence_visits_per_s",
        "because.hmc.incidence_visits",
        "because.hmc.secs",
    );
    t.ratio(
        "because.mh.accept_rate",
        "because.mh.accept_rate",
        "because.analyses",
    );
    t.ratio(
        "because.hmc.accept_rate",
        "because.hmc.accept_rate",
        "because.analyses",
    );
    Some(run)
}
