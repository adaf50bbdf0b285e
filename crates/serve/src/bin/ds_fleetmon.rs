//! The fleet observability aggregator: one pane of glass over N shards.
//!
//! `ds_fleetmon` scrapes every shard's `STATS` and `TRACE` over the
//! normal wire protocol on a fixed interval, then serves the merged view
//! on its own socket speaking the same one-line protocol:
//!
//! * `STATS` — the per-shard Prometheus expositions merged via
//!   [`ds_obs::merge_expositions`] (counters sum, histograms merge
//!   bucket-wise exactly, gauges take the worst shard), with the
//!   aggregator's own scrape counters folded into the same document;
//! * `TRACE` — every shard's slow-request exemplars, with records that
//!   share a trace id grouped together so a cross-shard traced request
//!   reads as one causal tree (client span → per-shard server spans →
//!   batch spans);
//! * `HELLO` / `QUIT` — the usual handshake and teardown.
//!
//! Usage: `ds_fleetmon --shard HOST:PORT [--shard HOST:PORT ...]
//! [--addr HOST:PORT] [--interval-ms N]`
//!
//! Prints `ADDR <bound-address>` on stdout once listening, then serves
//! until stdin reaches EOF (the same lifetime contract as `ds_shard`).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ds_obs::{FleetCounters, PromFamily};
use ds_serve::{
    format_response, parse_request, Connection, ErrorCode, Request, RequestTimeline, Response,
    PROTOCOL_VERSION, SUPPORTED_FEATURES,
};

/// The latest scrape of the whole fleet: one parsed exposition per
/// reachable shard plus every shard's exemplars.
#[derive(Default)]
struct FleetView {
    expositions: Vec<Vec<PromFamily>>,
    timelines: Vec<RequestTimeline>,
}

struct Monitor {
    shards: Vec<SocketAddr>,
    view: Mutex<FleetView>,
    counters: FleetCounters,
    shutting_down: AtomicBool,
}

impl Monitor {
    /// Scrapes every shard once, replacing the stored view with whatever
    /// answered. Unreachable shards are skipped (and counted) — the merge
    /// over the survivors is still exact for what it covers.
    fn scrape(&self) {
        let mut expositions = Vec::with_capacity(self.shards.len());
        let mut timelines = Vec::new();
        for &addr in &self.shards {
            match scrape_shard(addr) {
                Some((families, mut tl)) => {
                    expositions.push(families);
                    timelines.append(&mut tl);
                }
                None => {
                    self.counters.sweep_failures.inc();
                }
            }
        }
        self.counters.routed.inc();
        // Group cross-shard records of the same trace together, so one
        // traced request's spans are adjacent in the stitched output.
        timelines.sort_by_key(|t| t.trace_id);
        *self.view.lock().expect("fleet view") = FleetView {
            expositions,
            timelines,
        };
    }

    /// The merged `STATS` payload: every shard document plus the
    /// aggregator's own counters, newline-escaped for the one-line wire.
    fn stats_payload(&self) -> Option<String> {
        let view = self.view.lock().expect("fleet view");
        let mut own = ds_obs::PromText::new();
        self.counters.render(&mut own);
        let own = ds_obs::parse_families(&own.into_string())?;
        let mut docs: Vec<&[PromFamily]> = view.expositions.iter().map(Vec::as_slice).collect();
        docs.push(&own);
        let merged = ds_obs::merge_families(&docs)?;
        Some(merged.trim_end().replace('\n', "\\n"))
    }

    /// The stitched `TRACE` payload, same wire shape as a shard's.
    fn trace_payload(&self) -> String {
        let view = self.view.lock().expect("fleet view");
        if view.timelines.is_empty() {
            return "(none)".to_string();
        }
        view.timelines
            .iter()
            .map(RequestTimeline::to_wire)
            .collect::<Vec<_>>()
            .join(";")
    }
}

/// One scrape of one shard: `STATS` (parsed into metric families) and
/// `TRACE` (parsed exemplars). `None` when the shard is unreachable or
/// answers garbage.
fn scrape_shard(addr: SocketAddr) -> Option<(Vec<PromFamily>, Vec<RequestTimeline>)> {
    let mut conn = Connection::connect_timeout(addr, Duration::from_secs(10)).ok()?;
    let families = conn.stats_families().ok()?;
    let timelines = conn.trace().ok()?;
    Some((families, timelines))
}

/// Answers one connection with the aggregator's four verbs; everything
/// else gets a typed `ERR` so probing tools fail loudly, not silently.
fn handle_connection(stream: TcpStream, monitor: &Monitor) {
    let _ = stream.set_nodelay(true);
    if stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .is_err()
    {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        if monitor.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(_) => return,
        }
        if line.trim().is_empty() {
            continue;
        }
        let (response, quit) = answer(&line, monitor);
        if writeln!(writer, "{}", format_response(&response)).is_err() || writer.flush().is_err() {
            return;
        }
        if quit {
            return;
        }
    }
}

fn answer(line: &str, monitor: &Monitor) -> (Response, bool) {
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(resp) => return (resp, false),
    };
    match request {
        Request::Hello { version, .. } => (
            Response::Text(format!(
                "HELLO {} {}",
                version.min(PROTOCOL_VERSION),
                SUPPORTED_FEATURES.join(",")
            )),
            false,
        ),
        Request::Stats => match monitor.stats_payload() {
            Some(p) => (Response::Text(p), false),
            None => (
                Response::Error {
                    code: ErrorCode::Internal,
                    message: "shard expositions failed to merge".to_string(),
                },
                false,
            ),
        },
        Request::Trace => (Response::Text(monitor.trace_payload()), false),
        Request::Quit => (Response::Bye, true),
        _ => (
            Response::Error {
                code: ErrorCode::Proto,
                message: "fleetmon speaks HELLO/STATS/TRACE/QUIT only".to_string(),
            },
            false,
        ),
    }
}

fn main() -> std::io::Result<()> {
    let mut addr = "127.0.0.1:0".to_string();
    let mut interval = Duration::from_millis(500);
    let mut shards: Vec<SocketAddr> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("ds_fleetmon: {flag} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--addr" => addr = value("--addr"),
            "--shard" => shards.push(value("--shard").parse().unwrap_or_else(|e| {
                eprintln!("ds_fleetmon: bad --shard: {e}");
                std::process::exit(2);
            })),
            "--interval-ms" => {
                interval =
                    Duration::from_millis(value("--interval-ms").parse().unwrap_or_else(|e| {
                        eprintln!("ds_fleetmon: bad --interval-ms: {e}");
                        std::process::exit(2);
                    }))
            }
            other => {
                eprintln!("ds_fleetmon: unknown flag '{other}'");
                std::process::exit(2);
            }
        }
    }
    if shards.is_empty() {
        eprintln!("ds_fleetmon: at least one --shard is required");
        std::process::exit(2);
    }

    let monitor = Arc::new(Monitor {
        shards,
        view: Mutex::new(FleetView::default()),
        counters: FleetCounters::new(),
        shutting_down: AtomicBool::new(false),
    });
    monitor.scrape();

    let scraper = {
        let monitor = Arc::clone(&monitor);
        std::thread::Builder::new()
            .name("fleetmon-scrape".to_string())
            .spawn(move || {
                while !monitor.shutting_down.load(Ordering::SeqCst) {
                    std::thread::sleep(interval);
                    monitor.scrape();
                }
            })?
    };

    let listener = TcpListener::bind(&addr)?;
    let local = listener.local_addr()?;
    let acceptor = {
        let monitor = Arc::clone(&monitor);
        std::thread::Builder::new()
            .name("fleetmon-accept".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if monitor.shutting_down.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let monitor = Arc::clone(&monitor);
                    let _ = std::thread::Builder::new()
                        .name("fleetmon-conn".to_string())
                        .spawn(move || handle_connection(stream, &monitor));
                }
            })?
    };

    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "ADDR {local}")?;
    stdout.flush()?;

    let stdin = std::io::stdin();
    let mut line = String::new();
    let mut handle = stdin.lock();
    while handle.read_line(&mut line)? > 0 {
        line.clear();
    }
    monitor.shutting_down.store(true, Ordering::SeqCst);
    // Unblock the acceptor with a wake-up connection, then join.
    let _ = TcpStream::connect(local);
    let _ = acceptor.join();
    let _ = scraper.join();
    Ok(())
}
