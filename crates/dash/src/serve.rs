//! The live experiment dashboard: a minimal HTTP/1.1 server over
//! `std::net` TCP — the same no-tokio discipline as `tsa-net` — serving a
//! static HTML page plus JSON polling endpoints.
//!
//! Endpoints:
//!
//! * `GET /` — the embedded dashboard page (no files to deploy).
//! * `GET /api/progress` — every `*.progress.json` sidecar under the sweeps
//!   directory, as an array of `{file, snapshot}` objects. Sidecars are
//!   written atomically by the sweep executor after each cell, so a poll
//!   always sees a complete JSON document.
//! * `GET /api/trajectory` — every parseable row of `TRAJECTORY.jsonl`.
//! * `GET /api/bench` — the names of committed `BENCH_*.json` artifacts.
//! * `GET /api/bench/<name>` — one artifact's contents (name must match
//!   `BENCH_*.json` exactly; path traversal is rejected by construction).
//!
//! The server handles one connection at a time and gives each client one
//! short deadline for its whole request head: it is an observation window
//! onto files the experiments own, not a production web server, and a
//! stalled or trickling client must never wedge a sweep.

use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serde::Value;

use crate::trajectory::{read_rows, TRAJECTORY_FILE};

/// What the dashboard watches.
#[derive(Clone, Debug)]
pub struct DashConfig {
    /// The repo/artifact directory: `BENCH_*.json` and `TRAJECTORY.jsonl`
    /// live here.
    pub dir: PathBuf,
    /// The sweep shard directory: `*.progress.json` sidecars live here.
    pub sweeps: PathBuf,
}

impl DashConfig {
    /// Watches `dir` for artifacts and `dir/target/sweeps` for progress.
    pub fn at(dir: &Path) -> Self {
        DashConfig {
            dir: dir.to_path_buf(),
            sweeps: dir.join("target").join("sweeps"),
        }
    }
}

/// Serves `config` on `listener` until `max_requests` connections have been
/// handled (`None` = forever). Returns the number of requests served.
///
/// Per-connection errors (torn requests, client timeouts, broken pipes) are
/// absorbed: the dashboard observes, it must never fail the thing it
/// observes.
pub fn serve(listener: &TcpListener, config: &DashConfig, max_requests: Option<usize>) -> usize {
    let mut served = 0;
    for stream in listener.incoming() {
        if let Ok(stream) = stream {
            let _ = handle(stream, config);
        }
        served += 1;
        if let Some(max) = max_requests {
            if served >= max {
                break;
            }
        }
    }
    served
}

/// How long a client has to deliver its whole request head (shortened under
/// test, so the trickling-client test takes a second instead of ten).
const HEAD_DEADLINE: Duration = Duration::from_millis(if cfg!(test) { 400 } else { 5_000 });

fn handle(mut stream: TcpStream, config: &DashConfig) -> std::io::Result<()> {
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let path = match read_request_path(&mut stream) {
        Some(p) => p,
        None => return respond(&mut stream, 400, "text/plain", b"bad request"),
    };
    match path.as_str() {
        "/" | "/index.html" => respond(
            &mut stream,
            200,
            "text/html; charset=utf-8",
            DASH_HTML.as_bytes(),
        ),
        "/api/progress" => {
            let body = progress_json(&config.sweeps);
            respond(&mut stream, 200, "application/json", body.as_bytes())
        }
        "/api/trajectory" => {
            let body = trajectory_json(&config.dir);
            respond(&mut stream, 200, "application/json", body.as_bytes())
        }
        "/api/bench" => {
            let body = bench_list_json(&config.dir);
            respond(&mut stream, 200, "application/json", body.as_bytes())
        }
        p if p.starts_with("/api/bench/") => {
            match bench_artifact(&config.dir, &p["/api/bench/".len()..]) {
                Some(body) => respond(&mut stream, 200, "application/json", body.as_bytes()),
                None => respond(&mut stream, 404, "text/plain", b"no such artifact"),
            }
        }
        _ => respond(&mut stream, 404, "text/plain", b"not found"),
    }
}

/// Reads the request head and returns the GET path (query string stripped).
fn read_request_path(stream: &mut TcpStream) -> Option<String> {
    // Read until the end of the request line; a well-formed GET fits well
    // inside 8 KiB, and anything longer is not a request we serve.
    let mut buf = [0u8; 8192];
    let mut len = 0;
    let deadline = Instant::now() + HEAD_DEADLINE;
    loop {
        if len == buf.len() {
            return None;
        }
        // Each read may wait only for what is left of the one deadline, so
        // a client trickling bytes cannot renew it.
        let left = deadline.checked_duration_since(Instant::now())?;
        stream
            .set_read_timeout(Some(left.max(Duration::from_millis(1))))
            .ok()?;
        let n = stream.read(&mut buf[len..]).ok()?;
        if n == 0 {
            break;
        }
        len += n;
        if buf[..len].contains(&b'\n') {
            break;
        }
    }
    let head = std::str::from_utf8(&buf[..len]).ok()?;
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    if parts.next()? != "GET" {
        return None;
    }
    let target = parts.next()?;
    Some(target.split('?').next().unwrap_or(target).to_string())
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        _ => "Not Found",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\ncache-control: no-store\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// All progress sidecars as `[{file, snapshot}]`, sorted by file name so
/// polls are stable.
fn progress_json(sweeps: &Path) -> String {
    let mut entries: Vec<(String, Value)> = Vec::new();
    if let Ok(dir) = std::fs::read_dir(sweeps) {
        for entry in dir.flatten() {
            let name = entry.file_name().to_string_lossy().to_string();
            if !name.ends_with(".progress.json") {
                continue;
            }
            if let Ok(text) = std::fs::read_to_string(entry.path()) {
                if let Ok(snapshot) = serde_json::parse_value(&text) {
                    entries.push((name, snapshot));
                }
            }
        }
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    Value::Array(
        entries
            .into_iter()
            .map(|(file, snapshot)| {
                Value::Object(vec![
                    ("file".to_string(), Value::Str(file)),
                    ("snapshot".to_string(), snapshot),
                ])
            })
            .collect(),
    )
    .to_json_compact()
}

fn trajectory_json(dir: &Path) -> String {
    let rows = read_rows(&dir.join(TRAJECTORY_FILE));
    serde_json::to_string(&rows).unwrap_or_else(|_| "[]".to_string())
}

/// Committed artifact names (`BENCH_*.json`), sorted.
fn bench_list_json(dir: &Path) -> String {
    let mut names: Vec<String> = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().to_string();
            if valid_bench_name(&name) {
                names.push(name);
            }
        }
    }
    names.sort();
    Value::Array(names.into_iter().map(Value::Str).collect()).to_json_compact()
}

/// A servable artifact name: exactly `BENCH_<word>.json`, no separators —
/// traversal is impossible because nothing outside this shape is looked up.
fn valid_bench_name(name: &str) -> bool {
    name.starts_with("BENCH_")
        && name.ends_with(".json")
        && name.len() > "BENCH_.json".len()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
        && !name.contains("..")
}

fn bench_artifact(dir: &Path, name: &str) -> Option<String> {
    if !valid_bench_name(name) {
        return None;
    }
    let text = std::fs::read_to_string(dir.join(name)).ok()?;
    // Only serve well-formed JSON: the page consumes it directly.
    serde_json::parse_value(&text).ok()?;
    Some(text)
}

/// The dashboard page. Palette and chart rules follow the repo's data-viz
/// discipline: roles as CSS custom properties with a selected dark mode,
/// categorical slot 1 (blue) for the single trajectory series per chart
/// (one series per small multiple — no legend needed), text in ink tokens,
/// hairline grid, thin marks, tabular figures in tables.
const DASH_HTML: &str = r#"<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>tsa dashboard</title>
<style>
  .viz-root {
    color-scheme: light;
    --surface-1: #fcfcfb;
    --page: #f9f9f7;
    --text-primary: #0b0b0b;
    --text-secondary: #52514e;
    --muted: #898781;
    --grid: #e1e0d9;
    --baseline: #c3c2b7;
    --series-1: #2a78d6;
    --good: #0ca30c;
    --critical: #d03b3b;
  }
  @media (prefers-color-scheme: dark) {
    :root:where(:not([data-theme="light"])) .viz-root {
      color-scheme: dark;
      --surface-1: #1a1a19;
      --page: #0d0d0d;
      --text-primary: #ffffff;
      --text-secondary: #c3c2b7;
      --muted: #898781;
      --grid: #2c2c2a;
      --baseline: #383835;
      --series-1: #3987e5;
      --good: #0ca30c;
      --critical: #d03b3b;
    }
  }
  body.viz-root {
    margin: 0; padding: 24px;
    background: var(--page); color: var(--text-primary);
    font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
  }
  h1 { font-size: 18px; margin: 0 0 4px; }
  h2 { font-size: 14px; margin: 24px 0 8px; color: var(--text-secondary); font-weight: 600; }
  .sub { color: var(--text-secondary); margin: 0 0 16px; }
  .card {
    background: var(--surface-1); border: 1px solid var(--grid);
    border-radius: 8px; padding: 12px 16px; margin-bottom: 12px;
  }
  .bar { height: 6px; border-radius: 3px; background: var(--grid); overflow: hidden; margin: 6px 0; }
  .bar > div { height: 100%; background: var(--series-1); border-radius: 3px; }
  .meta { color: var(--text-secondary); font-size: 12px; }
  .recent { color: var(--muted); font-size: 12px; white-space: pre-wrap; margin-top: 4px; }
  table { border-collapse: collapse; width: 100%; font-variant-numeric: tabular-nums; }
  th, td { text-align: left; padding: 3px 10px 3px 0; border-bottom: 1px solid var(--grid); }
  th { color: var(--text-secondary); font-weight: 600; }
  td.num { text-align: right; }
  .ok { color: var(--good); } .bad { color: var(--critical); }
  .charts { display: flex; flex-wrap: wrap; gap: 12px; }
  .chart { background: var(--surface-1); border: 1px solid var(--grid); border-radius: 8px; padding: 10px 12px; }
  .chart .t { font-size: 12px; color: var(--text-secondary); margin-bottom: 4px; }
  svg text { fill: var(--muted); font: 10px system-ui, sans-serif; }
  .empty { color: var(--muted); }
</style>
</head>
<body class="viz-root">
<h1>tsa experiment dashboard</h1>
<p class="sub">Live sweep progress and the cross-PR perf trajectory. Polls every 2&#8201;s.</p>
<h2>Sweeps in flight</h2>
<div id="progress"><p class="empty">No progress sidecars yet.</p></div>
<h2>Perf trajectory (TRAJECTORY.jsonl)</h2>
<div id="trajectory" class="charts"><p class="empty">No trajectory rows yet.</p></div>
<h2>Committed artifacts</h2>
<div id="bench" class="card"><p class="empty">None found.</p></div>
<script>
"use strict";
const esc = s => String(s).replace(/[&<>"]/g, c => ({"&":"&amp;","<":"&lt;",">":"&gt;",'"':"&quot;"}[c]));
const fmtSecs = s => s < 60 ? Math.round(s) + "s"
  : s < 3600 ? Math.floor(s/60) + "m" + String(Math.round(s%60)).padStart(2,"0") + "s"
  : Math.floor(s/3600) + "h" + String(Math.floor(s%3600/60)).padStart(2,"0") + "m";

async function poll(url) {
  try { const r = await fetch(url); return r.ok ? await r.json() : null; }
  catch (e) { return null; }
}

function renderProgress(items) {
  const el = document.getElementById("progress");
  if (!items || !items.length) { el.innerHTML = '<p class="empty">No progress sidecars yet.</p>'; return; }
  el.innerHTML = items.map(({file, snapshot: s}) => {
    const pct = s.total ? (100 * s.done / s.total) : 0;
    const eta = s.done >= s.total ? "done" : "eta " + fmtSecs(s.eta_secs);
    const recent = (s.recent || []).slice(-3).map(esc).join("\n");
    return `<div class="card"><strong>${esc(s.label)}</strong>
      <span class="meta">${s.done}/${s.total} &middot; ${eta} &middot; ${esc(file)}</span>
      <div class="bar"><div style="width:${pct.toFixed(1)}%"></div></div>
      <div class="recent">${recent}</div></div>`;
  }).join("");
}

// One small multiple per (exp, metric): a single blue series on its own
// axis — never two scales on one chart.
function chartSvg(points) {
  const W = 260, H = 90, L = 8, R = 8, T = 8, B = 16;
  const xs = points.map(p => p.x), ys = points.map(p => p.y);
  const x0 = Math.min(...xs), x1 = Math.max(...xs);
  const y0 = Math.min(0, Math.min(...ys)), y1 = Math.max(...ys) || 1;
  const px = x => x1 === x0 ? W / 2 : L + (x - x0) / (x1 - x0) * (W - L - R);
  const py = y => H - B - (y - y0) / (y1 - y0 || 1) * (H - T - B);
  const d = points.map((p, i) => (i ? "L" : "M") + px(p.x).toFixed(1) + " " + py(p.y).toFixed(1)).join(" ");
  const dots = points.length === 1
    ? `<circle cx="${px(points[0].x)}" cy="${py(points[0].y)}" r="4" fill="var(--series-1)"/>` : "";
  const last = points[points.length - 1];
  return `<svg width="${W}" height="${H}" role="img">
    <line x1="${L}" y1="${H-B}" x2="${W-R}" y2="${H-B}" stroke="var(--baseline)" stroke-width="1"/>
    <path d="${d}" fill="none" stroke="var(--series-1)" stroke-width="2" stroke-linejoin="round"/>${dots}
    <text x="${W-R}" y="${H-3}" text-anchor="end">${esc(last.y.toPrecision(4))}</text>
  </svg>`;
}

function renderTrajectory(rows) {
  const el = document.getElementById("trajectory");
  if (!rows || !rows.length) { el.innerHTML = '<p class="empty">No trajectory rows yet.</p>'; return; }
  const series = new Map();
  for (const row of rows) {
    for (const m of row.metrics || []) {
      const key = row.exp + " &middot; " + esc(m.name);
      if (!series.has(key)) series.set(key, []);
      series.get(key).push({x: row.unix_ms, y: m.value, ok: row.det_match});
    }
  }
  let html = "";
  for (const [key, pts] of series) {
    pts.sort((a, b) => a.x - b.x);
    const ok = pts.every(p => p.ok);
    html += `<div class="chart"><div class="t">${key}
      <span class="${ok ? "ok" : "bad"}">${ok ? "&#10003; det" : "&#10007; drift"}</span></div>
      ${chartSvg(pts)}</div>`;
  }
  el.innerHTML = html;
}

function renderBench(names) {
  const el = document.getElementById("bench");
  if (!names || !names.length) { el.innerHTML = '<p class="empty">None found.</p>'; return; }
  el.innerHTML = "<table><tr><th>artifact</th></tr>" +
    names.map(n => `<tr><td><a href="/api/bench/${esc(n)}">${esc(n)}</a></td></tr>`).join("") +
    "</table>";
}

async function tick() {
  renderProgress(await poll("/api/progress"));
  renderTrajectory(await poll("/api/trajectory"));
  renderBench(await poll("/api/bench"));
}
tick();
setInterval(tick, 2000);
</script>
</body>
</html>
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn request(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nhost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        let status: u16 = body
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let payload = body
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, payload)
    }

    fn temp_config(tag: &str) -> DashConfig {
        let dir = std::env::temp_dir().join(format!("tsa-dash-serve-{tag}"));
        let sweeps = dir.join("sweeps");
        std::fs::create_dir_all(&sweeps).unwrap();
        DashConfig {
            dir: dir.clone(),
            sweeps,
        }
    }

    fn serve_n(
        config: DashConfig,
        n: usize,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || serve(&listener, &config, Some(n)));
        (addr, handle)
    }

    #[test]
    fn serves_page_progress_trajectory_and_artifacts() {
        let config = temp_config("full");
        std::fs::write(
            config.sweeps.join("exp.sweep.progress.json"),
            r#"{"label":"exp/sweep","total":4,"done":1,"elapsed_secs":1.0,"eta_secs":3.0,"recent":["cell"]}"#,
        )
        .unwrap();
        std::fs::write(
            config.dir.join(TRAJECTORY_FILE),
            "{\"exp\":\"exp_perf\",\"unix_ms\":5,\"host\":\"h/l/x\",\"det_match\":true,\"artifact_bytes\":10,\"metrics\":[]}\n",
        )
        .unwrap();
        std::fs::write(config.dir.join("BENCH_exp_demo.json"), "{\"ok\":true}").unwrap();
        std::fs::write(config.dir.join("not_bench.json"), "{}").unwrap();

        let (addr, handle) = serve_n(config, 6);
        let (status, page) = request(addr, "/");
        assert_eq!(status, 200);
        assert!(page.contains("tsa experiment dashboard"));

        let (status, progress) = request(addr, "/api/progress");
        assert_eq!(status, 200);
        let doc = serde_json::parse_value(&progress).unwrap();
        let items = doc.as_array().unwrap();
        assert_eq!(items.len(), 1);
        assert_eq!(
            items[0]
                .get("snapshot")
                .unwrap()
                .get("label")
                .unwrap()
                .as_str(),
            Some("exp/sweep")
        );

        let (status, traj) = request(addr, "/api/trajectory");
        assert_eq!(status, 200);
        let rows = serde_json::parse_value(&traj).unwrap();
        assert_eq!(rows.as_array().unwrap().len(), 1);

        let (status, list) = request(addr, "/api/bench");
        assert_eq!(status, 200);
        let names = serde_json::parse_value(&list).unwrap();
        assert_eq!(
            names.as_array().unwrap()[0].as_str(),
            Some("BENCH_exp_demo.json")
        );

        let (status, artifact) = request(addr, "/api/bench/BENCH_exp_demo.json");
        assert_eq!(status, 200);
        assert!(artifact.contains("\"ok\""));

        let (status, _) = request(addr, "/api/bench/../Cargo.toml");
        assert_eq!(status, 404);
        assert_eq!(handle.join().unwrap(), 6);
    }

    #[test]
    fn unknown_paths_and_bad_methods_do_not_wedge_the_server() {
        let config = temp_config("bad");
        let (addr, handle) = serve_n(config, 3);
        let (status, _) = request(addr, "/nope");
        assert_eq!(status, 404);
        // A POST is refused, not served.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST / HTTP/1.1\r\nhost: x\r\n\r\n")
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        // And the server is still alive for the next request.
        let (status, _) = request(addr, "/api/progress");
        assert_eq!(status, 200);
        handle.join().unwrap();
    }

    #[test]
    fn a_trickling_client_is_cut_off_at_the_head_deadline() {
        let (addr, handle) = serve_n(temp_config("trickle"), 2);
        let started = Instant::now();
        let mut slow = TcpStream::connect(addr).unwrap();
        let mut reader = slow.try_clone().unwrap();
        // One byte every 50 ms and never a newline: every single read on the
        // server succeeds quickly, for 5 s or until the server hangs up.
        let trickler = std::thread::spawn(move || {
            for _ in 0..100 {
                if slow.write_all(b"G").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        // The server closes with trickled bytes unread, so the stream may
        // end in a reset rather than EOF; the bytes before it are kept.
        let mut out = Vec::new();
        let _ = reader.read_to_end(&mut out);
        assert!(out.starts_with(b"HTTP/1.1 400"), "{out:?}");
        assert!(
            started.elapsed() < HEAD_DEADLINE * 4,
            "cut off after {:?}",
            started.elapsed()
        );
        // And the server is free for the next, well-formed request.
        let (status, _) = request(addr, "/api/progress");
        assert_eq!(status, 200);
        trickler.join().unwrap();
        assert_eq!(handle.join().unwrap(), 2);
    }

    #[test]
    fn bench_name_validation_is_strict() {
        assert!(valid_bench_name("BENCH_exp_perf.json"));
        assert!(!valid_bench_name("BENCH_.json"));
        assert!(!valid_bench_name("BENCH_a/../b.json"));
        assert!(!valid_bench_name("BENCH_a..json"));
        assert!(!valid_bench_name("other.json"));
        assert!(!valid_bench_name("BENCH_exp.txt"));
    }
}
