//! The fault-injection zero-cost-off A/B: exactly the two budgeted hot
//! paths, in one fast binary so baseline/new rounds can be alternated
//! many times on a noisy host.
//!
//! * `event_queue/schedule_pop_10k` — the simulator's dispatch loop;
//! * `mh_sweep/*` — the MCMC kernel's per-step cost.
//!
//! Neither path carries a fault or supervisor branch when disabled: the
//! engine is untouched and the kernels only gained (cold) checkpoint
//! codecs, so any measured delta is binary-layout noise. The
//! enabled-cost counterparts live next to the code they price:
//! `beacon_burst/one_2h_burst_1min_faulted` (simulator) and
//! `pipeline/campaign_simulation_faulted` (whole pipeline). Every chain
//! runs through the supervised driver, so `mh_chain_run/plain` (samplers)
//! already includes the disabled supervisor checks.

use because::chain::Sampler;
use because::mh::MetropolisHastings;
use because::Prior;
use bench::synthetic_paths;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netsim::{EventQueue, SimRng, SimTime};
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.bench_function("schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..10_000u64 {
                q.schedule_at(
                    SimTime::from_millis(i.wrapping_mul(2654435761) % 1_000_000),
                    i,
                );
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_mh_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("mh_sweep");
    for &(nodes, paths) in &[(50u32, 200usize), (200, 1000)] {
        let data = synthetic_paths(nodes, paths, 0.2, 10);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{nodes}n_{paths}p")),
            &(),
            |b, _| {
                let mut rng = SimRng::new(1);
                let mut s = MetropolisHastings::from_prior(&data, Prior::default(), &mut rng);
                b.iter(|| {
                    s.step(&mut rng);
                    black_box(s.state()[0])
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default();
    targets = bench_event_queue, bench_mh_sweep
);
criterion_main!(benches);
