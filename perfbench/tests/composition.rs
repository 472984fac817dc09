//! The benchmark's layer-by-layer composition is the program the binaries
//! run: its configs are the binaries' own at `REPRO_SCALE=tiny` and
//! `small`, and at `tiny` it yields the same labels, events and
//! categories as `run_campaign` + `infer_with_supervision` and as
//! `rov::build(..).evaluate(..)`.

use because::SupervisorConfig;
use experiments::infer::infer_with_supervision;
use experiments::pipeline::run_campaign;
use heuristics::HeuristicConfig;
use perfbench::{
    analysis_config, campaign, experiment_config, infer, rov_config, rov_layers, Recorder, Scale,
    Tally, SWEEP_INTERVALS,
};

/// The binaries' shared configuration helpers, which read `REPRO_SCALE`.
#[path = "../../crates/experiments/src/bin/common/mod.rs"]
mod common;

#[test]
fn configs_are_the_binaries() {
    for (name, scale) in [("tiny", Scale::Tiny), ("small", Scale::Small)] {
        std::env::set_var("REPRO_SCALE", name);
        for seed in [2020, 7] {
            for mins in SWEEP_INTERVALS {
                // The benchmark keeps the opt-in tracing and faults off.
                let mut want = common::experiment(mins, seed);
                want.trace = false;
                want.faults = None;
                let got = experiment_config(scale, mins, seed);
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "{name}, {mins} min"
                );
            }
            // …and progress ticking.
            let mut want = common::analysis_config(seed);
            want.progress_every = 0;
            want.trace = false;
            let got = analysis_config(scale, seed);
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{name} analysis");
            // `table4_precision_recall` builds its ROV scenario on the
            // common topology.
            let want = rov::RovScenarioConfig {
                topology: common::topology_config(seed),
                seed,
                ..Default::default()
            };
            let got = rov_config(scale, seed);
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{name} rov");
        }
    }
}

#[test]
fn campaign_and_inference_match_the_pipeline() {
    for (mins, seed) in [(1, 2020), (1, 7), (5, 11)] {
        let cfg = experiment_config(Scale::Tiny, mins, seed);
        let acfg = analysis_config(Scale::Tiny, seed);
        let want = run_campaign(&cfg);
        let want_inf = infer_with_supervision(
            &want,
            &acfg,
            &HeuristicConfig::default(),
            &SupervisorConfig::default(),
        );

        let mut rec = Recorder::new(true);
        let mut tally = Tally::default();
        let got = campaign(&mut rec, &cfg, &mut tally);
        let got_inf = infer(&mut rec, &got, &acfg, &mut tally);

        assert_eq!(got.labels, want.labels, "labels, seed {seed}");
        assert_eq!(got.events_processed, want.events_processed);
        assert_eq!(got.updates_delivered, want.updates_delivered);
        assert_eq!(got.dump.records(), want.dump.records());
        assert_eq!(
            got_inf.analysis.category_counts(),
            want_inf.analysis.category_counts()
        );
        assert_eq!(got_inf.because_flagged(), want_inf.because_flagged());
        assert_eq!(got_inf.heuristics_flagged(), want_inf.heuristics_flagged());
        // Every layer call left a span.
        let layers: Vec<&str> = rec.spans().iter().map(|s| s.name.as_str()).collect();
        for layer in [
            "topology",
            "bgpsim.instantiate",
            "beacon",
            "bgpsim.simulate",
            "collector",
            "signature",
            "pathdata",
            "because",
            "heuristics",
        ] {
            assert!(layers.contains(&layer), "no {layer} span");
        }
    }
}

#[test]
fn rov_layers_match_scenario_evaluate() {
    for seed in [2020, 110] {
        let scenario = rov::build(&rov_config(Scale::Tiny, seed));
        let (want, want_pr) = scenario.evaluate(&analysis_config(Scale::Tiny, seed));

        let mut rec = Recorder::new(false);
        let (got_scenario, data, got, got_pr) =
            rov_layers(&mut rec, Scale::Tiny, seed, &mut Tally::default());
        assert_eq!(got_scenario.paths, scenario.paths);
        assert_eq!(data.num_paths(), scenario.path_data().num_paths());
        assert_eq!(got.category_counts(), want.category_counts());
        assert_eq!(got_pr, want_pr);
    }
}
