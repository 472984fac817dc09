//! Run one benchmark workload back to back for a time budget and print
//! one JSON line per measurement on stdout. `run.py` builds this binary,
//! runs it and reduces the lines to the benchmark's metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --setup-reps <n> [--spans <path>]
//! ```
//!
//! The workload runs at `REPRO_SCALE=small`, the benchmarked size.
//! Lines are `{"kind":"iter",…}` for each full run of the workload,
//! `{"kind":"setup",…}` for each set-up-only repetition (a block of
//! `--setup-reps` before the first full run and after each), and finally
//! `{"kind":"rss",…}` with the process's peak resident set. With
//! `--trace 1`, full runs alternate traced and untraced (traced first),
//! so the tracing overhead is measured in the same process; the spans of
//! every traced run are written once, at exit, to `--spans`, tagged with
//! the file's stem as the run id.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use obs::json::{json_f64, json_string};
use perfbench::{run_workload, set_up_only, Recorder, Scale, Span, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_reps: usize,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let mut take = |name: &str| {
        flags
            .remove(name)
            .ok_or_else(|| format!("--{name} is required"))
    };
    let workload = take("workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = take("seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = take("seconds")?;
    let seconds = seconds
        .parse::<f64>()
        .ok()
        .filter(|x| x.is_finite() && *x >= 0.0)
        .ok_or_else(|| format!("--seconds {seconds:?} is not a non-negative number"))?;
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other:?}: expected 0 or 1")),
    };
    let setup_reps = take("setup-reps")?
        .parse::<usize>()
        .map_err(|e| format!("--setup-reps: {e}"))?;
    let spans = take("spans").ok();
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        setup_reps,
        spans,
    })
}

/// Each span's self time: its duration minus the part its children
/// cover. Children never overlap, since layer calls run one at a time.
fn self_secs(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end - s.start;
        }
    }
    own
}

/// Busy and self seconds per span name.
fn busy_and_self(spans: &[Span]) -> BTreeMap<&str, (f64, f64)> {
    let mut out: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_secs(spans)) {
        let e = out.entry(s.name.as_str()).or_default();
        e.0 += s.end - s.start;
        e.1 += own;
    }
    out
}

/// One full run of the workload; prints its line and returns the spans
/// when traced.
fn iteration(args: &Args, index: usize, traced: bool) -> Vec<Span> {
    let mut rec = Recorder::new(traced);
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        rec.group("workload".to_string(), |rec| {
            run_workload(rec, &args.workload, Scale::Small, args.seed)
                .expect("workload was checked")
        })
    }));
    let wall_s = t0.elapsed().as_secs_f64();
    let mut line = format!("{{\"kind\":\"iter\",\"index\":{index},\"traced\":{traced},\"wall_s\":");
    json_f64(&mut line, wall_s);
    match outcome {
        Ok(run) => {
            let error = run.check.err();
            let _ = write!(line, ",\"correct\":{},\"error\":", error.is_none());
            match &error {
                Some(e) => json_string(&mut line, e),
                None => line.push_str("null"),
            }
            line.push_str(",\"setup_s\":");
            json_f64(&mut line, run.setup_s);
            line.push_str(",\"fingerprint\":");
            json_string(&mut line, &run.fingerprint);
            line.push_str(",\"layers\":{");
            for (i, (name, v)) in run.tally.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                json_string(&mut line, name);
                line.push(':');
                json_f64(&mut line, v);
            }
            line.push('}');
        }
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".to_string());
            line.push_str(",\"correct\":false,\"error\":");
            json_string(&mut line, &msg);
        }
    }
    if traced {
        let spans = rec.spans();
        // Layer calls run one at a time, so they cover their summed
        // durations of the run's wall time.
        let covered: f64 = spans
            .iter()
            .filter(|s| s.layer)
            .map(|s| s.end - s.start)
            .sum();
        let unattributed = wall_s - covered;
        line.push_str(",\"unattributed_s\":");
        json_f64(&mut line, unattributed);
        line.push_str(",\"coverage\":");
        json_f64(&mut line, 1.0 - unattributed / wall_s);
        line.push_str(",\"spans\":{");
        for (i, (name, (busy, own))) in busy_and_self(spans).into_iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            json_string(&mut line, name);
            line.push_str(":{\"busy_s\":");
            json_f64(&mut line, busy);
            line.push_str(",\"self_s\":");
            json_f64(&mut line, own);
            line.push('}');
        }
        line.push('}');
    }
    line.push('}');
    println!("{line}");
    rec.spans().to_vec()
}

/// Write every traced run's spans to `path`, tagged with the workload,
/// the seed and the file's stem as the run id.
fn write_spans(args: &Args, path: &str, traced: &[(usize, Vec<Span>)]) -> std::io::Result<()> {
    let run_id = Path::new(path)
        .file_stem()
        .map_or(String::new(), |s| s.to_string_lossy().into_owned());
    let mut out = String::from("{\"workload\":");
    json_string(&mut out, &args.workload);
    let _ = write!(out, ",\"seed\":{},\"run\":", args.seed);
    json_string(&mut out, &run_id);
    out.push_str(",\"spans\":[");
    let mut first = true;
    for (iter, spans) in traced {
        for (id, s) in spans.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n{{\"iter\":{iter},\"id\":{id},\"name\":");
            json_string(&mut out, &s.name);
            out.push_str(",\"parent\":");
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"start_s\":");
            json_f64(&mut out, s.start);
            out.push_str(",\"end_s\":");
            json_f64(&mut out, s.end);
            let _ = write!(out, ",\"layer\":{}}}", s.layer);
        }
    }
    out.push_str("\n]}\n");
    std::fs::write(path, out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Set-up repetitions run in blocks, one before the first full run and
    // one after each, so `setup_s` samples the whole run rather than its
    // first milliseconds.
    let setup_block = || {
        for _ in 0..args.setup_reps {
            let secs =
                set_up_only(&args.workload, Scale::Small, args.seed).expect("workload was checked");
            let mut line = String::from("{\"kind\":\"setup\",\"setup_s\":");
            json_f64(&mut line, secs);
            line.push('}');
            println!("{line}");
        }
    };
    setup_block();
    let start = Instant::now();
    let min_iters = if args.trace { 2 } else { 1 };
    let mut traced_spans = Vec::new();
    let mut index = 0;
    loop {
        let traced = args.trace && index % 2 == 0;
        let spans = iteration(&args, index, traced);
        if traced {
            traced_spans.push((index, spans));
        }
        setup_block();
        index += 1;
        // Stop before a run that would end past the budget.
        let elapsed = start.elapsed().as_secs_f64();
        let per_iter = elapsed / index as f64;
        if index >= min_iters && elapsed + per_iter > args.seconds {
            break;
        }
    }
    // The process's own peak resident set, for `peak_rss_mb`.
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    if let Some(kb) = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
    {
        println!("{{\"kind\":\"rss\",\"peak_rss_kb\":{kb}}}");
    }
    if let Some(path) = &args.spans {
        if let Err(e) = write_spans(&args, path, &traced_spans) {
            eprintln!("perfbench: writing spans to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
