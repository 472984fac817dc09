#!/usr/bin/env python3
"""The repository benchmark.

One workload, as the command in BENCHMARK.json runs it (from the repository root):

    python3 perfbench/run.py --workload rfd_1min --seed 7 --seconds 30 --trace 0

Every workload, printing every end-to-end metric by name with its unit and
then a traced run's per-layer busy/self seconds; exits non-zero when any
correctness check fails:

    python3 perfbench/run.py --all [--seconds 10]

How a run works. The harness binary (`perfbench/src`) is built with cargo
into $CARGO_TARGET_DIR (default `.bench_build`). A run then starts two
processes, one after the other:

* the timed process runs the workload's paper instance (program seed
  2020, the binaries' default and the instance whose fingerprint is
  recorded) back to back for --seconds, with a block of set-up-only
  repetitions before the first run and after each. End-to-end metrics are medians over its runs; with
  --trace 1 it alternates traced and untraced runs and per-layer metrics
  are medians over the traced ones.
* the probe process runs the workload once at program seed --seed and
  checks its invariants. The probe varies the inputs with the seed; the
  timed instance stays fixed because run time and ESS vary several-fold
  between seeds (see perfbench/README.md), which would swamp any bound.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. A failed check, a panic or a probe whose
invariants fail counts as a failed run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
TIMED_SEED = 2020
# Set-up-only repetitions before the first full run and after each one.
SETUP_REPS = 9
# Traced runs must attribute this share of their wall time to layer spans.
MIN_COVERAGE = 0.95
# Kill a harness process that overruns its budget by this much.
GRACE_SECONDS = 60


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Build the harness; return its path, or exit 1 if it cannot be built."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        log(f"perfbench: cannot run cargo: {e}")
        sys.exit(1)
    if done.returncode != 0:
        log("perfbench: the harness did not build")
        sys.exit(1)
    return os.path.join(target_dir(), "release", "perfbench")


def harness(binary, args, budget):
    """Run the harness binary; return its parsed JSON lines."""
    try:
        done = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=budget + GRACE_SECONDS, text=True)
    except subprocess.TimeoutExpired:
        log(f"perfbench: harness overran its budget: {args}")
        sys.exit(1)
    if done.returncode != 0:
        log(f"perfbench: harness exited with {done.returncode}: {args}")
        sys.exit(1)
    return [json.loads(line) for line in done.stdout.splitlines() if line.strip()]


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def measure(binary, workload, seed, seconds, trace, per_layer, probe=True):
    """Run one workload; return (correct, attempted, failed, metrics, detail).

    `per_layer` names every declared per-layer metric: a traced run reports
    each of them, 0 for a layer the workload does not call. With `probe`
    false the probe at program seed `seed` is left out.
    """
    # The file's stem is the run id its spans are tagged with.
    spans = os.path.join(target_dir(), "perfbench-spans", f"{workload}-{seed}-{os.getpid()}.json")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    timed = harness(binary, [
        "--workload", workload, "--seed", str(TIMED_SEED), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--setup-reps", str(SETUP_REPS), "--spans", spans,
    ], seconds)
    if probe:
        probe = harness(binary, [
            "--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", "0", "--setup-reps", "0",
        ], 0)
    else:
        probe = []

    iters = [r for r in timed if r["kind"] == "iter"]
    probe_iters = [r for r in probe if r["kind"] == "iter"]
    plain = [r for r in iters if not r["traced"]]
    traced = [r for r in iters if r["traced"]]
    failures = []
    for r in iters + probe_iters:
        if not r["correct"]:
            r["failure"] = r.get("error") or "check failed"
        elif r["traced"] and not r["coverage"] >= MIN_COVERAGE:
            r["failure"] = f"layer spans cover {r['coverage']} of wall_s"
        if "failure" in r:
            failures.append(r["failure"])
    fingerprints = {r.get("fingerprint") for r in iters}
    if len(fingerprints) > 1:
        failures.append(f"timed runs disagree: {sorted(map(str, fingerprints))}")

    # Failed runs still count towards the timings: a wrong answer is not
    # a way to go faster, and the result must be printed either way.
    ok = [r for r in plain if "layers" in r]
    metrics = {}
    if not trace:
        setups = [r["setup_s"] for r in timed if r["kind"] == "setup"]
        setups += [r["setup_s"] for r in ok]
        rss = [r["peak_rss_kb"] for r in timed if r["kind"] == "rss"]
        metrics = {
            "wall_s": median(r["wall_s"] for r in ok),
            "setup_s": median(setups),
            "peak_rss_mb": rss[0] / 1024 if rss else None,
            "ess_per_s": median(r["layers"].get("ess_per_s") for r in ok),
        }
    else:
        good = [r for r in traced if "layers" in r]
        names = {k for r in good for k in r["layers"]}
        # Accumulators behind other metrics, and the end-to-end ESS rate.
        names -= {"ess_per_s", "because.analyses", "because.hmc.incidence_visits"}
        metrics = {k: median(r["layers"].get(k) for r in good) for k in sorted(names)}
        if good:
            for k in per_layer:
                metrics.setdefault(k, 0.0)
        traced_wall = median(r["wall_s"] for r in good)
        plain_wall = median(r["wall_s"] for r in ok)
        if traced_wall is not None and plain_wall is not None:
            metrics["trace.overhead_s"] = traced_wall - plain_wall
        metrics["trace.unattributed_s"] = median(r.get("unattributed_s") for r in good)
        metrics["trace.coverage"] = median(r.get("coverage") for r in good)
    detail = {
        "iters": iters, "probe": probe_iters, "failures": failures,
        "spans_file": spans if trace else None,
    }
    attempted = len(iters) + len(probe_iters)
    failed = sum("failure" in r for r in iters + probe_iters)
    return not failures, attempted, max(failed, len(fingerprints) > 1), metrics, detail


def declared_metrics():
    """BENCHMARK.json, and its metrics by name; exit 1 if the annotations in
    metrics.json do not name the same metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(BENCH_DIR, "metrics.json")) as f:
        annotated = set(json.load(f)["metrics"])
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    if annotated != set(declared):
        log(f"perfbench: BENCHMARK.json and metrics.json disagree on {sorted(annotated ^ set(declared))}")
        sys.exit(1)
    return bench, declared


def result_line(correct, attempted, failed, metrics, declared):
    """The last line of stdout; every metric must be declared and measured."""
    out = {}
    for name, value in metrics.items():
        if name not in declared:
            log(f"perfbench: metric {name} is not declared in BENCHMARK.json")
            sys.exit(1)
        if value is None:
            log(f"perfbench: metric {name} was not measured")
            sys.exit(1)
        out[name] = {"value": value, "unit": declared[name]["unit"]}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": out})


def print_layer_table(detail, out):
    """Per-layer busy and self seconds, medians over the traced runs."""
    traced = [r for r in detail["iters"] if r["traced"] and "spans" in r]
    names = sorted({k for r in traced for k in r["spans"]})
    print(f"   {'span':<22}{'busy_s':>12}{'self_s':>12}   (median of {len(traced)} traced runs)",
          file=out)
    for n in names:
        busy = median(r["spans"].get(n, {}).get("busy_s") for r in traced)
        own = median(r["spans"].get(n, {}).get("self_s") for r in traced)
        print(f"   {n:<22}{busy:>12.6f}{own:>12.6f}", file=out)
    print(f"   spans written to {detail['spans_file']}", file=out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=TIMED_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 0 or args.seed < 0:
        parser.error("--seconds and --seed must be non-negative")
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")

    bench, declared = declared_metrics()
    per_layer = [m["name"] for m in bench["per_layer"]]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in workloads:
        parser.error(f"unknown workload {args.workload}; one of {workloads}")
    binary = build()

    if not args.all:
        correct, attempted, failed, metrics, detail = measure(
            binary, args.workload, args.seed, args.seconds, bool(args.trace), per_layer)
        for f in detail["failures"]:
            log(f"perfbench: FAILED {args.workload}: {f}")
        for name, value in metrics.items():
            log(f"{args.workload} {name} = {value} {declared.get(name, {}).get('unit', '?')}")
        if args.trace:
            print_layer_table(detail, sys.stderr)
        print(result_line(correct, attempted, failed, metrics, declared))
        return 0

    print(f"host cores: {os.cpu_count()}; timed instance: program seed {TIMED_SEED}; "
          f"probe seed: {args.seed}; --seconds {args.seconds}")
    all_correct = True
    for workload in workloads:
        for trace in (False, True):
            # The untraced pass has already probed this seed.
            correct, attempted, failed, metrics, detail = measure(
                binary, workload, args.seed, args.seconds, trace, per_layer, probe=not trace)
            all_correct &= correct
            mode = "traced" if trace else "untraced"
            print(f"== {workload} ({mode}): correct={correct} attempted={attempted} failed={failed}")
            for f in detail["failures"]:
                print(f"   FAILED: {f}")
            if not trace:
                print(f"   timed instance: {detail['iters'][0]['fingerprint'] if detail['iters'] else '-'}")
                print(f"   probe seed {args.seed}: {detail['probe'][0].get('fingerprint', '-') if detail['probe'] else '-'}")
                for name, value in metrics.items():
                    print(f"   {name:<14} {value:.6g} {declared[name]['unit']}")
            else:
                for name in ("trace.overhead_s", "trace.unattributed_s", "trace.coverage"):
                    print(f"   {name:<22} {metrics.get(name)} {declared[name]['unit']}")
                print_layer_table(detail, sys.stdout)
            sys.stdout.flush()
    print("all checks passed" if all_correct else "SOME CHECKS FAILED")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
