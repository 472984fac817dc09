//! Live metrics serving: a dependency-free HTTP endpoint over the
//! sampler-progress state in [`ServeState`].
//!
//! A long campaign (hours at `paper` scale) is a black box without a
//! scrapeable surface: the RunReport only exists once the run is over.
//! [`Server`] fixes that with a deliberately tiny `std::net`-only
//! responder — a blocking accept loop on one background thread — exposing
//!
//! * `GET /metrics`  — the seven sampler-progress series in Prometheus
//!   text exposition format (version 0.0.4): counters and gauges as
//!   single samples, the snapshot accept-rate histogram as a cumulative
//!   `_bucket`/`_sum`/`_count` family plus interpolated
//!   `_p50`/`_p90`/`_p99` gauges;
//! * `GET /progress` — the latest per-chain sampler snapshot (draw
//!   count, accept rate, incremental split-R̂/min-ESS) as JSON;
//! * `GET /report`   — the most recently published [`RunReport`] JSON;
//! * `GET /healthz`  — `200 ok`, for liveness probes.
//!
//! Everything is read-only and lock-cheap: the metric values and the
//! progress table (which also carries the draw-delta bookkeeping) sit
//! behind one mutex,
//! the report body behind another, each written only at the observer
//! cadence (default every 50 iterations). The serving thread never
//! touches the sampler hot path.
//!
//! ## Connection handling
//!
//! Connections are served **one at a time**, one request each: the
//! response is an `HTTP/1.1` status line with `Connection: close`. Every
//! connection gets 2 s read and write timeouts, so a client that
//! connects and sends nothing (or stops reading) holds the loop for at
//! most about 2 s; the next client is then answered, and
//! [`Server::shutdown`] still joins.
//!
//! ## Process-global state
//!
//! The experiment binaries install one [`ServeState`] per process with
//! [`install`]; layers that cannot thread a handle through their
//! signatures (the chain driver's progress observer) look it up with
//! [`installed`]. When nothing is installed — every default run — the
//! lookup is a single `OnceLock` load returning `None`.
//!
//! [`RunReport`]: crate::RunReport

use std::io::{Read, Write as IoWrite};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use crate::json::{json_f64, json_string};
use crate::metrics::Histogram;
use crate::report::HistogramSnapshot;

/// One chain's most recent progress snapshot, as published by the sampler
/// driver's observer. Field meanings mirror `because`'s
/// `ProgressSnapshot`; they are duplicated here as plain data so `obs`
/// stays dependency-free.
#[derive(Clone, Debug, PartialEq)]
pub struct ChainProgress {
    /// Kernel label (`"MH"`, `"HMC"`).
    pub kernel: &'static str,
    /// The `run_chains` index.
    pub chain_index: usize,
    /// `"warmup"` or `"sampling"` (or `"done"` once the chain finished).
    pub phase: &'static str,
    /// Iterations completed in the current phase.
    pub iteration: usize,
    /// Iterations the phase will run.
    pub total: usize,
    /// Running acceptance rate.
    pub accept_rate: f64,
    /// Divergent trajectories so far.
    pub divergences: u64,
    /// Incremental split-R̂ over this chain's halves (`NaN` in warmup).
    pub split_r_hat: f64,
    /// Incremental min-ESS over this chain's draws (`NaN` in warmup).
    pub min_ess: f64,
}

/// Everything `/metrics` and `/progress` render, under one lock.
#[derive(Debug)]
struct Live {
    /// Snapshots recorded (`repro_progress_snapshots`).
    snapshots: u64,
    /// Sampling draws credited so far (`repro_draws`).
    draws: u64,
    /// Last snapshot's divergences (`repro_divergences`).
    divergences: f64,
    /// Last snapshot's accept rate (`repro_accept_rate`).
    accept_rate: f64,
    /// Last finite split-R̂ (`repro_split_r_hat`).
    split_r_hat: f64,
    /// Last finite min-ESS (`repro_min_ess`).
    min_ess: f64,
    /// Accept rate of every snapshot (`repro_snapshot_accept_rate`).
    accept_hist: Histogram,
    /// The `/progress` table: one row per (kernel, chain).
    progress: Vec<ChainProgress>,
}

/// Shared state behind the served endpoints: the sampler-progress
/// series (`progress_snapshots`, `draws`, `divergences`, `accept_rate`,
/// `split_r_hat`, `min_ess`, `snapshot_accept_rate`), the `/progress`
/// table, and the last published report.
#[derive(Debug)]
pub struct ServeState {
    live: Mutex<Live>,
    report_json: Mutex<Option<String>>,
}

impl Default for ServeState {
    fn default() -> Self {
        ServeState::new()
    }
}

impl ServeState {
    /// Empty state: zeroed series, no chains, no report.
    pub fn new() -> ServeState {
        ServeState {
            live: Mutex::new(Live {
                snapshots: 0,
                draws: 0,
                divergences: 0.0,
                accept_rate: 0.0,
                split_r_hat: 0.0,
                min_ess: 0.0,
                accept_hist: Histogram::new(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]),
                progress: Vec::new(),
            }),
            report_json: Mutex::new(None),
        }
    }

    /// Publish the current report JSON (served at `/report`). Call at
    /// every merge point so mid-run scrapes see the latest sections.
    pub fn publish_report_json(&self, json: String) {
        *self.report_json.lock().expect("report lock") = Some(json);
    }

    /// Record one chain-progress snapshot: updates the `/progress` table
    /// and the `/metrics` series.
    pub fn record_progress(&self, p: ChainProgress) {
        let mut live = self.live.lock().expect("serve state lock");
        live.snapshots += 1;
        live.accept_rate = p.accept_rate;
        live.accept_hist.record(p.accept_rate);
        live.divergences = p.divergences as f64;
        if p.split_r_hat.is_finite() {
            live.split_r_hat = p.split_r_hat;
        }
        if p.min_ess.is_finite() {
            live.min_ess = p.min_ess;
        }
        let live = &mut *live;
        let row = live
            .progress
            .iter_mut()
            .find(|e| e.kernel == p.kernel && e.chain_index == p.chain_index);
        // Draw accounting: during sampling, credit the draws since this
        // chain's previous sampling snapshot (none after its warmup, or
        // after an earlier run of the same chain index finished).
        if p.phase == "sampling" {
            let prev = row
                .as_ref()
                .filter(|r| r.phase == "sampling")
                .map_or(0, |r| r.iteration);
            live.draws += p.iteration.saturating_sub(prev) as u64;
        }
        match row {
            Some(slot) => *slot = p,
            None => live.progress.push(p),
        }
    }

    /// Mark a chain's `/progress` row finished (phase `"done"`), keeping
    /// its last recorded statistics and crediting the draws collected
    /// after the final sampling snapshot. Chains that never snapshotted
    /// (cadence longer than the run) have no row and stay unrecorded.
    pub fn mark_done(&self, kernel: &'static str, chain_index: usize) {
        let mut live = self.live.lock().expect("serve state lock");
        let live = &mut *live;
        let Some(slot) = live
            .progress
            .iter_mut()
            .find(|e| e.kernel == kernel && e.chain_index == chain_index)
        else {
            return;
        };
        if slot.phase == "sampling" {
            live.draws += slot.total.saturating_sub(slot.iteration) as u64;
            slot.iteration = slot.total;
        }
        slot.phase = "done";
    }

    /// The `/metrics` body: the sampler-progress series in Prometheus
    /// text exposition.
    pub fn render_metrics(&self) -> String {
        let live = self.live.lock().expect("serve state lock");
        let mut out = String::new();
        for (name, v) in [
            ("progress_snapshots", live.snapshots),
            ("draws", live.draws),
        ] {
            out.push_str(&format!("# TYPE repro_{name} counter\nrepro_{name} {v}\n"));
        }
        for (name, v) in [
            ("divergences", live.divergences),
            ("accept_rate", live.accept_rate),
            ("split_r_hat", live.split_r_hat),
            ("min_ess", live.min_ess),
        ] {
            out.push_str(&format!(
                "# TYPE repro_{name} gauge\nrepro_{name} {}\n",
                prometheus_f64(v)
            ));
        }
        prometheus_histogram(
            &mut out,
            "repro_snapshot_accept_rate",
            &live.accept_hist.snapshot(),
        );
        out
    }

    /// The `/progress` body: the latest per-chain snapshots as JSON.
    pub fn render_progress(&self) -> String {
        let live = self.live.lock().expect("serve state lock");
        let mut out = String::from("{\"chains\":[");
        for (i, p) in live.progress.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"kernel\":");
            json_string(&mut out, p.kernel);
            out.push_str(&format!(
                ",\"chain\":{},\"phase\":\"{}\",\"iteration\":{},\"total\":{}",
                p.chain_index, p.phase, p.iteration, p.total
            ));
            out.push_str(",\"accept_rate\":");
            json_f64(&mut out, p.accept_rate);
            out.push_str(&format!(",\"divergences\":{}", p.divergences));
            out.push_str(",\"split_r_hat\":");
            json_f64(&mut out, p.split_r_hat);
            out.push_str(",\"min_ess\":");
            json_f64(&mut out, p.min_ess);
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    fn report_body(&self) -> Option<String> {
        self.report_json.lock().expect("report lock").clone()
    }
}

static GLOBAL: OnceLock<Arc<ServeState>> = OnceLock::new();

/// Install the process-global serve state (first install wins). Returns
/// the installed handle.
pub fn install(state: Arc<ServeState>) -> Arc<ServeState> {
    GLOBAL.get_or_init(|| state).clone()
}

/// The installed serve state, if a server was started this process.
pub fn installed() -> Option<&'static Arc<ServeState>> {
    GLOBAL.get()
}

/// A running metrics server: one background accept thread.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:9184"`, port `0` for ephemeral) and
    /// start serving `state` on a background thread.
    pub fn start(addr: &str, state: Arc<ServeState>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = stop.clone();
        let handle = std::thread::Builder::new()
            .name("obs-serve".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if thread_stop.load(Ordering::Acquire) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        // One request per connection, bounded by timeouts:
                        // a stalled client cannot wedge the loop for long.
                        let _ = handle_connection(stream, &state);
                    }
                }
            })?;
        Ok(Server {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the serving thread. Idempotent via `Drop`.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Release);
            // Unblock the accept loop with a throwaway connection.
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Serve one request on `stream`: parse the request line, route, respond.
fn handle_connection(mut stream: TcpStream, state: &ServeState) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // Read until the end of the request head (or a modest cap — the
    // endpoints take no bodies).
    let mut buf = [0u8; 4096];
    let mut head = Vec::new();
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= 16 * 1024 {
            break;
        }
    }
    let request = String::from_utf8_lossy(&head);
    let mut parts = request.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or(path);

    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_string(),
        )
    } else {
        match path {
            "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                state.render_metrics(),
            ),
            "/progress" => (
                "200 OK",
                "application/json; charset=utf-8",
                state.render_progress(),
            ),
            "/report" => match state.report_body() {
                Some(json) => ("200 OK", "application/json; charset=utf-8", json),
                None => (
                    "404 Not Found",
                    "text/plain; charset=utf-8",
                    "no report published yet\n".to_string(),
                ),
            },
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found; try /metrics /progress /report /healthz\n".to_string(),
            ),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// A float in exposition form: `+Inf` / `-Inf` / `NaN` per the format
/// spec, shortest-round-trip decimal otherwise.
pub fn prometheus_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Render one histogram snapshot as a cumulative Prometheus family plus
/// interpolated quantile gauges, appending to `out`.
fn prometheus_histogram(out: &mut String, name: &str, snap: &HistogramSnapshot) {
    out.push_str(&format!("# TYPE {name} histogram\n"));
    let mut cumulative = 0u64;
    for (i, c) in snap.counts.iter().enumerate() {
        cumulative += c;
        let le = match snap.bounds.get(i) {
            Some(b) => prometheus_f64(*b),
            None => "+Inf".to_string(),
        };
        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
    }
    out.push_str(&format!("{name}_sum {}\n", prometheus_f64(snap.sum)));
    out.push_str(&format!("{name}_count {}\n", snap.count));
    for (suffix, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
        let v = snap.quantile(q);
        out.push_str(&format!("# TYPE {name}_{suffix} gauge\n"));
        out.push_str(&format!("{name}_{suffix} {}\n", prometheus_f64(v)));
    }
}

/// Validate a Prometheus text-exposition body: every line must be a
/// comment (`# HELP` / `# TYPE` with a valid type), blank, or a sample
/// `name{labels} value` with a well-formed name, balanced quoted labels,
/// and a parseable value. Returns the first offence with its line number.
///
/// This is the in-tree scrape check: the serve tests and the CI smoke leg
/// both run real `/metrics` output through it.
pub fn validate_exposition(body: &str) -> Result<(), String> {
    if !body.ends_with('\n') {
        return Err("exposition must end with a newline".to_string());
    }
    let valid_name = |s: &str| {
        !s.is_empty()
            && s.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    };
    let valid_value = |s: &str| matches!(s, "+Inf" | "-Inf" | "NaN") || s.parse::<f64>().is_ok();
    for (lineno, line) in body.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut words = comment.split_whitespace();
            match words.next() {
                Some("TYPE") => {
                    let name = words.next().unwrap_or("");
                    let kind = words.next().unwrap_or("");
                    if !valid_name(name) {
                        return Err(format!("line {n}: bad TYPE metric name {name:?}"));
                    }
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {n}: unknown metric type {kind:?}"));
                    }
                }
                Some("HELP") | Some("EOF") => {}
                _ => return Err(format!("line {n}: malformed comment {line:?}")),
            }
            continue;
        }
        // Sample line: name[{labels}] value [timestamp]
        let (name_part, rest) = match line.find(['{', ' ']) {
            Some(idx) => line.split_at(idx),
            None => return Err(format!("line {n}: no value in sample {line:?}")),
        };
        if !valid_name(name_part) {
            return Err(format!("line {n}: bad metric name {name_part:?}"));
        }
        let rest = rest.trim_start();
        let value_part = if let Some(labels) = rest.strip_prefix('{') {
            let Some(close) = labels.find('}') else {
                return Err(format!("line {n}: unbalanced label braces"));
            };
            let (label_body, after) = labels.split_at(close);
            for pair in label_body.split(',').filter(|p| !p.is_empty()) {
                let Some((k, v)) = pair.split_once('=') else {
                    return Err(format!("line {n}: malformed label pair {pair:?}"));
                };
                if !valid_name(k) || !v.starts_with('"') || !v.ends_with('"') || v.len() < 2 {
                    return Err(format!("line {n}: malformed label {pair:?}"));
                }
            }
            after[1..].trim_start()
        } else {
            rest
        };
        let value = value_part.split_whitespace().next().unwrap_or("");
        if !valid_value(value) {
            return Err(format!("line {n}: unparseable value {value:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrape(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
            .expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("response has a head/body split");
        (head.to_string(), body.to_string())
    }

    /// A snapshot with no divergences and no convergence estimates yet.
    fn snap(
        kernel: &'static str,
        chain_index: usize,
        phase: &'static str,
        iteration: usize,
        accept_rate: f64,
    ) -> ChainProgress {
        ChainProgress {
            kernel,
            chain_index,
            phase,
            iteration,
            total: if phase == "warmup" { 100 } else { 170 },
            accept_rate,
            divergences: 0,
            split_r_hat: f64::NAN,
            min_ess: f64::NAN,
        }
    }

    /// A fixed run: MH chain 0 warms up and samples to 100 of 170, HMC
    /// chain 1 samples to 50 of 170, then both finish.
    fn fixed_run() -> ServeState {
        let state = ServeState::new();
        state.record_progress(snap("MH", 0, "warmup", 50, 0.05));
        state.record_progress(ChainProgress {
            split_r_hat: 1.25,
            min_ess: 12.5,
            ..snap("MH", 0, "sampling", 50, 0.44)
        });
        state.record_progress(ChainProgress {
            divergences: 2,
            ..snap("HMC", 1, "sampling", 50, 0.95)
        });
        state.record_progress(ChainProgress {
            split_r_hat: 1.0625,
            min_ess: 40.0,
            ..snap("MH", 0, "sampling", 100, 0.52)
        });
        state.mark_done("MH", 0);
        state.mark_done("HMC", 1);
        state
    }

    /// The `/metrics` and `/progress` contract, pinned byte for byte.
    /// Only the accept-rate quantiles depend on the histogram tracking
    /// its min and max: p90/p99 interpolate into the overflow bucket up
    /// to the largest sample (0.95) instead of stopping at its bound.
    #[test]
    fn metrics_body_after_a_fixed_run_is_exact() {
        let state = fixed_run();
        assert_eq!(
            state.render_metrics(),
            "# TYPE repro_progress_snapshots counter\n\
             repro_progress_snapshots 4\n\
             # TYPE repro_draws counter\n\
             repro_draws 340\n\
             # TYPE repro_divergences gauge\n\
             repro_divergences 0\n\
             # TYPE repro_accept_rate gauge\n\
             repro_accept_rate 0.52\n\
             # TYPE repro_split_r_hat gauge\n\
             repro_split_r_hat 1.0625\n\
             # TYPE repro_min_ess gauge\n\
             repro_min_ess 40\n\
             # TYPE repro_snapshot_accept_rate histogram\n\
             repro_snapshot_accept_rate_bucket{le=\"0.1\"} 1\n\
             repro_snapshot_accept_rate_bucket{le=\"0.2\"} 1\n\
             repro_snapshot_accept_rate_bucket{le=\"0.3\"} 1\n\
             repro_snapshot_accept_rate_bucket{le=\"0.4\"} 1\n\
             repro_snapshot_accept_rate_bucket{le=\"0.5\"} 2\n\
             repro_snapshot_accept_rate_bucket{le=\"0.6\"} 3\n\
             repro_snapshot_accept_rate_bucket{le=\"0.7\"} 3\n\
             repro_snapshot_accept_rate_bucket{le=\"0.8\"} 3\n\
             repro_snapshot_accept_rate_bucket{le=\"0.9\"} 3\n\
             repro_snapshot_accept_rate_bucket{le=\"+Inf\"} 4\n\
             repro_snapshot_accept_rate_sum 1.96\n\
             repro_snapshot_accept_rate_count 4\n\
             # TYPE repro_snapshot_accept_rate_p50 gauge\n\
             repro_snapshot_accept_rate_p50 0.5\n\
             # TYPE repro_snapshot_accept_rate_p90 gauge\n\
             repro_snapshot_accept_rate_p90 0.9299999999999999\n\
             # TYPE repro_snapshot_accept_rate_p99 gauge\n\
             repro_snapshot_accept_rate_p99 0.948\n"
        );
        assert_eq!(
            state.render_progress(),
            "{\"chains\":[\
             {\"kernel\":\"MH\",\"chain\":0,\"phase\":\"done\",\"iteration\":170,\"total\":170,\
             \"accept_rate\":0.52,\"divergences\":0,\"split_r_hat\":1.0625,\"min_ess\":40},\
             {\"kernel\":\"HMC\",\"chain\":1,\"phase\":\"done\",\"iteration\":170,\"total\":170,\
             \"accept_rate\":0.95,\"divergences\":2,\"split_r_hat\":null,\"min_ess\":null}]}"
        );
    }

    #[test]
    fn healthz_metrics_progress_report_roundtrip() {
        let state = Arc::new(ServeState::new());
        state.record_progress(ChainProgress {
            split_r_hat: 1.02,
            min_ess: 55.0,
            ..snap("MH", 0, "sampling", 100, 0.44)
        });
        state.publish_report_json("{\"name\":\"t\",\"sections\":[]}".to_string());
        let server = Server::start("127.0.0.1:0", state).expect("bind");
        let addr = server.local_addr();

        let (head, body) = scrape(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert_eq!(body, "ok\n");

        let (head, body) = scrape(addr, "/metrics");
        assert!(head.contains("text/plain; version=0.0.4"));
        validate_exposition(&body).expect("exposition must parse");
        assert!(body.contains("# TYPE repro_draws counter"));
        assert!(body.contains("repro_accept_rate 0.44"));
        assert!(body.contains("repro_draws 100"));
        assert!(body.contains("repro_snapshot_accept_rate_bucket{le=\"+Inf\"} 1"));

        let (head, body) = scrape(addr, "/progress");
        assert!(head.contains("application/json"));
        assert!(body.contains("\"kernel\":\"MH\""));
        assert!(body.contains("\"iteration\":100"));

        let (_, body) = scrape(addr, "/report");
        assert_eq!(body, "{\"name\":\"t\",\"sections\":[]}");

        let (head, _) = scrape(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));

        server.shutdown();
    }

    #[test]
    fn report_404_until_published() {
        let state = Arc::new(ServeState::new());
        let server = Server::start("127.0.0.1:0", state.clone()).expect("bind");
        let (head, _) = scrape(server.local_addr(), "/report");
        assert!(head.starts_with("HTTP/1.1 404"));
        state.publish_report_json("{}".to_string());
        let (head, _) = scrape(server.local_addr(), "/report");
        assert!(head.starts_with("HTTP/1.1 200"));
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_the_accept_thread() {
        let server = Server::start("127.0.0.1:0", Arc::new(ServeState::new())).expect("bind");
        let addr = server.local_addr();
        // Returning at all proves the accept thread joined (a wedged
        // loop would hang the test); the listener must also be gone.
        server.shutdown();
        let after = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
        assert!(after.is_err(), "listener still accepting after shutdown");
    }

    #[test]
    fn silent_client_delays_the_next_by_at_most_the_read_timeout() {
        let server = Server::start("127.0.0.1:0", Arc::new(ServeState::new())).expect("bind");
        let addr = server.local_addr();
        // A client that connects and never sends a byte holds the serial
        // loop until its 2 s read timeout fires (connections are
        // accepted in connect order)…
        let silent = TcpStream::connect(addr).expect("connect");
        let started = std::time::Instant::now();
        let mut probe = TcpStream::connect(addr).expect("connect");
        probe
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        probe
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            .expect("request");
        let mut response = String::new();
        probe.read_to_string(&mut response).expect("response");
        let waited = started.elapsed();
        // …then the next client is answered.
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.ends_with("ok\n"), "{response}");
        assert!(waited >= Duration::from_millis(1500), "{waited:?}");
        assert!(waited < Duration::from_millis(3500), "{waited:?}");
        drop(silent);

        // A silent client still connected at shutdown delays the join by
        // at most the same timeout.
        let _silent = TcpStream::connect(addr).expect("connect");
        let started = std::time::Instant::now();
        server.shutdown();
        assert!(started.elapsed() < Duration::from_millis(3500));
    }

    #[test]
    fn progress_draw_deltas_accumulate_not_double_count() {
        let state = ServeState::new();
        for it in [50, 100, 150] {
            state.record_progress(snap("HMC", 1, "sampling", it, 0.8));
        }
        let metrics = state.render_metrics();
        assert!(metrics.contains("repro_draws 150"), "{metrics}");
        // The table keeps one row per chain, not one per snapshot.
        let progress = state.render_progress();
        assert_eq!(progress.matches("\"kernel\"").count(), 1);
        assert!(progress.contains("\"iteration\":150"));
    }

    #[test]
    fn mark_done_flips_phase_and_credits_draw_tail() {
        let state = ServeState::new();
        state.record_progress(ChainProgress {
            split_r_hat: 1.02,
            min_ess: 80.0,
            ..snap("MH", 0, "sampling", 50, 0.5)
        });
        state.record_progress(ChainProgress {
            split_r_hat: 1.02,
            min_ess: 80.0,
            ..snap("MH", 0, "sampling", 100, 0.5)
        });
        // The run ends between snapshots (170 not divisible by 50):
        // mark_done credits the 70-draw tail and keeps the statistics.
        state.mark_done("MH", 0);
        let metrics = state.render_metrics();
        assert!(metrics.contains("repro_draws 170"), "{metrics}");
        let progress = state.render_progress();
        assert!(progress.contains("\"phase\":\"done\""), "{progress}");
        assert!(progress.contains("\"iteration\":170"), "{progress}");
        assert!(progress.contains("\"split_r_hat\":1.02"), "{progress}");
        // Idempotent: a second call credits nothing.
        state.mark_done("MH", 0);
        assert!(state.render_metrics().contains("repro_draws 170"));
        // Unknown chains are ignored.
        state.mark_done("HMC", 9);
        // A later run reusing the chain index (one process, several
        // analyses) is credited in full.
        state.record_progress(snap("MH", 0, "warmup", 50, 0.5));
        state.record_progress(snap("MH", 0, "sampling", 50, 0.5));
        state.mark_done("MH", 0);
        assert!(state.render_metrics().contains("repro_draws 340"));
        state.record_progress(snap("MH", 0, "sampling", 50, 0.5));
        state.mark_done("MH", 0);
        assert!(state.render_metrics().contains("repro_draws 510"));
    }

    #[test]
    fn validator_accepts_good_and_rejects_bad() {
        let good = "# TYPE a counter\na 1\n# TYPE b gauge\nb{x=\"1\",y=\"z\"} 2.5\nc_bucket{le=\"+Inf\"} 3\nd NaN\n";
        validate_exposition(good).expect("good body");
        assert!(validate_exposition("a 1").is_err(), "missing newline");
        assert!(validate_exposition("1bad 1\n").is_err(), "bad name");
        assert!(validate_exposition("a one\n").is_err(), "bad value");
        assert!(validate_exposition("a{x=1} 2\n").is_err(), "unquoted label");
        assert!(
            validate_exposition("a{x=\"1\" 2\n").is_err(),
            "unbalanced braces"
        );
        assert!(
            validate_exposition("# TYPE a rainbow\na 1\n").is_err(),
            "bad type"
        );
    }

    #[test]
    fn exposition_always_validates() {
        validate_exposition(&ServeState::new().render_metrics()).expect("empty state");
        validate_exposition(&fixed_run().render_metrics()).expect("after a run");
    }
}
