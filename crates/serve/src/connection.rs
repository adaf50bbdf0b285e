//! The low-level client layer: one TCP connection speaking the line
//! protocol, nothing more.
//!
//! [`Connection`] owns wire framing only — format a [`Request`], write one
//! line, read one line, parse the [`Response`]. Routing, retries, and
//! failover live a layer up in [`crate::fleet::FleetClient`]. On top of
//! the framing sit typed accessors that unwrap one verb's payload
//! ([`Connection::estimate_value`], [`Connection::stats_families`],
//! [`Connection::trace`], …). Splitting the layers means the fleet client
//! composes connections without inheriting single-node assumptions, and
//! the protocol tests can drive raw lines without a routing policy in the
//! way.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use ds_core::snapshot::{decode_hex, encode_hex};
use ds_obs::{PromFamily, PromSample};

use crate::metrics::{MetricsSnapshot, RequestTimeline};
use crate::protocol::{
    format_request, parse_response, ErrorCode, Request, Response, PROTOCOL_VERSION,
    SUPPORTED_FEATURES,
};

/// The outcome of a `HELLO` negotiation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Handshake {
    /// The protocol version both sides speak: `min(client, server)`.
    pub version: u32,
    /// Feature flags the server advertises (`cache`, `degraded-token`,
    /// `fleet`).
    pub features: Vec<String>,
}

impl Handshake {
    /// Whether the server advertised `feature`.
    pub fn has_feature(&self, feature: &str) -> bool {
        self.features.iter().any(|f| f == feature)
    }
}

/// A replica's answer to a `SYNC` offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncAck {
    /// The shipped generation won and now serves on the replica.
    Adopted(u64),
    /// The replica already serves a generation at least as new.
    Stale(u64),
}

/// The `INFO` summary card parsed back into fields (client side).
#[derive(Debug, Clone, PartialEq)]
pub struct InfoCard {
    /// Source database name.
    pub database: String,
    /// Tables in the featurization vocabulary.
    pub tables: u64,
    /// Joins in the vocabulary.
    pub joins: u64,
    /// Predicate columns in the vocabulary.
    pub predicate_columns: u64,
    /// MSCN hidden width.
    pub hidden_units: u64,
    /// Scalar model parameters.
    pub model_params: u64,
    /// Total materialized sample rows across tables.
    pub sample_rows: u64,
    /// Nominal sample size per table.
    pub sample_size: u64,
    /// Serialized size in MiB (two-decimal precision on the wire).
    pub footprint_mib: f64,
    /// Largest cardinality representable by the label normalizer.
    pub max_label: u64,
}

impl InfoCard {
    /// Parses the `INFO` wire line (the `SketchInfo` display form):
    /// `sketch[<db>]: <t> tables, <j> joins, … ; max label <n>`.
    pub fn from_wire(s: &str) -> Option<Self> {
        let rest = s.strip_prefix("sketch[")?;
        let (database, rest) = rest.split_once("]:")?;
        // All remaining numbers appear in a fixed order; pull out every
        // maximal digit/dot run and map positionally.
        let mut nums = Vec::new();
        let mut cur = String::new();
        for c in rest.chars().chain(std::iter::once(' ')) {
            if c.is_ascii_digit() || c == '.' {
                cur.push(c);
            } else if !cur.is_empty() {
                nums.push(std::mem::take(&mut cur).parse::<f64>().ok()?);
            }
        }
        if nums.len() != 9 {
            return None;
        }
        Some(Self {
            database: database.to_string(),
            tables: nums[0] as u64,
            joins: nums[1] as u64,
            predicate_columns: nums[2] as u64,
            hidden_units: nums[3] as u64,
            model_params: nums[4] as u64,
            sample_rows: nums[5] as u64,
            sample_size: nums[6] as u64,
            footprint_mib: nums[7],
            max_label: nums[8] as u64,
        })
    }
}

/// One blocking connection to a sketch server: wire framing plus typed
/// single-node accessors.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    peer: SocketAddr,
    handshake: Option<Handshake>,
}

impl Connection {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream)
    }

    /// Connects with a connect + read deadline, so callers never hang on a
    /// wedged server.
    pub fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> std::io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        Self::from_stream(stream)
    }

    /// Wraps an already-connected stream.
    pub fn from_stream(stream: TcpStream) -> std::io::Result<Self> {
        // One-line request/response roundtrips die under Nagle + delayed ACK.
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            peer,
            handshake: None,
        })
    }

    /// The server's address.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }

    /// The negotiated handshake, when [`Connection::hello`] has run. A
    /// connection that never sends `HELLO` speaks protocol v1.
    pub fn handshake(&self) -> Option<&Handshake> {
        self.handshake.as_ref()
    }

    /// Sends one request and reads its one-line response. `estimate`
    /// selects whether an `OK` payload parses as a number or as text.
    pub fn roundtrip(&mut self, req: &Request, estimate: bool) -> std::io::Result<Response> {
        writeln!(self.writer, "{}", format_request(req))?;
        self.writer.flush()?;
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        parse_response(&line, estimate)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Sends a raw line (possibly malformed — for protocol tests) and
    /// returns the raw response line.
    pub fn send_raw(&mut self, line: &str) -> std::io::Result<String> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        let mut resp = String::new();
        let n = self.reader.read_line(&mut resp)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(resp.trim_end().to_string())
    }

    /// Negotiates the protocol: sends `HELLO` with this build's version and
    /// features, records and returns the server's answer. A
    /// [`ErrorCode::VersionMismatch`] reply becomes an `Unsupported` io
    /// error — the caller knows negotiation failed rather than guessing
    /// from garbled lines.
    pub fn hello(&mut self) -> std::io::Result<Handshake> {
        let req = Request::Hello {
            version: PROTOCOL_VERSION,
            features: SUPPORTED_FEATURES.iter().map(|s| s.to_string()).collect(),
        };
        match self.roundtrip(&req, false)? {
            Response::Text(t) => {
                let mut parts = t.split_whitespace();
                let (tag, version) = (parts.next(), parts.next());
                if tag != Some("HELLO") {
                    return Err(invalid_data(format!("bad HELLO payload '{t}'")));
                }
                let version: u32 = version
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| invalid_data(format!("bad HELLO version in '{t}'")))?;
                let features = parts
                    .next()
                    .unwrap_or("")
                    .split(',')
                    .filter(|f| !f.is_empty())
                    .map(str::to_string)
                    .collect();
                let hs = Handshake { version, features };
                self.handshake = Some(hs.clone());
                Ok(hs)
            }
            Response::Error {
                code: ErrorCode::VersionMismatch,
                message,
            } => Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                message,
            )),
            other => Err(invalid_payload(&other)),
        }
    }

    /// Fetches the named sketch as a DSNP blob: `(generation, bytes)`. The
    /// bytes are exactly what the server's `save_snapshot` writes to disk.
    pub fn fetch_snapshot(&mut self, sketch: &str) -> std::io::Result<(u64, Vec<u8>)> {
        let req = Request::Snapshot {
            sketch: sketch.to_string(),
        };
        let t = text(self.roundtrip(&req, false)?)?;
        let mut parts = t.split_whitespace();
        let tag = parts.next();
        let name = parts.next().unwrap_or("");
        let generation: Option<u64> = parts.next().and_then(|v| v.parse().ok());
        let len: Option<u64> = parts.next().and_then(|v| v.parse().ok());
        let hex = parts.next().unwrap_or("");
        let (Some(generation), Some(len)) = (generation, len) else {
            return Err(invalid_data(format!("bad SNAPSHOT payload '{t}'")));
        };
        if tag != Some("SNAPSHOT") || name != sketch {
            return Err(invalid_data(format!("bad SNAPSHOT payload '{t}'")));
        }
        let bytes =
            decode_hex(hex).ok_or_else(|| invalid_data(format!("SNAPSHOT {sketch}: bad hex")))?;
        if bytes.len() as u64 != len {
            return Err(invalid_data(format!(
                "SNAPSHOT {sketch}: announced {len} bytes, got {}",
                bytes.len()
            )));
        }
        Ok((generation, bytes))
    }

    /// Offers a DSNP blob to the server for newest-wins adoption. A
    /// corrupt transfer comes back as a typed `ERR decode` (surfaced here
    /// as `InvalidData`); the server quarantines the bytes instead of
    /// adopting them.
    pub fn sync_snapshot(
        &mut self,
        name: &str,
        generation: u64,
        bytes: &[u8],
    ) -> std::io::Result<SyncAck> {
        let req = Request::Sync {
            name: name.to_string(),
            generation,
            len: bytes.len() as u64,
            hex: encode_hex(bytes),
        };
        let t = text(self.roundtrip(&req, false)?)?;
        let mut parts = t.split_whitespace();
        let tag = parts.next();
        let got_name = parts.next().unwrap_or("");
        let gen: Option<u64> = parts.next().and_then(|v| v.parse().ok());
        match (tag, gen, parts.next()) {
            (Some("SYNC"), Some(g), Some("adopted")) if got_name == name => Ok(SyncAck::Adopted(g)),
            (Some("SYNC"), Some(g), Some("stale")) if got_name == name => Ok(SyncAck::Stale(g)),
            _ => Err(invalid_data(format!("bad SYNC payload '{t}'"))),
        }
    }

    /// Sends `ESTIMATE` and returns the raw response ([`Response::Estimate`]
    /// on success, or the typed `ERR`/`BUSY`).
    pub fn estimate(&mut self, sketch: &str, sql: &str) -> std::io::Result<Response> {
        let (sketch, sql, trace) = (sketch.to_string(), sql.to_string(), None);
        self.roundtrip(&Request::Estimate { sketch, sql, trace }, true)
    }

    /// `ESTIMATE` and unwrap the value; any non-`OK` response becomes an
    /// `InvalidData` error carrying its wire line. Degraded answers
    /// (fallback-served) unwrap like healthy ones — use
    /// [`Connection::estimate_flagged`] to observe the flag.
    pub fn estimate_value(&mut self, sketch: &str, sql: &str) -> std::io::Result<f64> {
        self.estimate_flagged(sketch, sql).map(|(v, _)| v)
    }

    /// `ESTIMATE` and unwrap the value together with the `degraded` flag:
    /// `true` when the fallback estimator answered because the sketch is
    /// unhealthy (open circuit breaker, poisoned model).
    pub fn estimate_flagged(&mut self, sketch: &str, sql: &str) -> std::io::Result<(f64, bool)> {
        match self.estimate(sketch, sql)? {
            Response::Estimate(v) => Ok((v, false)),
            Response::Degraded(v) => Ok((v, true)),
            other => Err(invalid_payload(&other)),
        }
    }

    /// Sends `FEEDBACK`: estimates `sql` (bit-identical to `ESTIMATE`) and
    /// records its q-error against the observed true cardinality `actual`
    /// in the server's drift monitor. Returns the raw response.
    pub fn feedback(&mut self, sketch: &str, actual: u64, sql: &str) -> std::io::Result<Response> {
        let (sketch, sql, trace) = (sketch.to_string(), sql.to_string(), None);
        let req = Request::Feedback {
            sketch,
            actual,
            sql,
            trace,
        };
        self.roundtrip(&req, true)
    }

    /// [`Connection::feedback`] and unwrap the estimate value (degraded
    /// answers included — the server skips monitor recording for them).
    pub fn feedback_value(&mut self, sketch: &str, actual: u64, sql: &str) -> std::io::Result<f64> {
        match self.feedback(sketch, actual, sql)? {
            Response::Estimate(v) | Response::Degraded(v) => Ok(v),
            other => Err(invalid_payload(&other)),
        }
    }

    /// Sends `INFO <sketch>`.
    pub fn info(&mut self, sketch: &str) -> std::io::Result<Response> {
        let sketch = sketch.to_string();
        self.roundtrip(&Request::Info { sketch }, false)
    }

    /// Sends `INFO` and parses the payload into a typed card.
    pub fn info_card(&mut self, sketch: &str) -> std::io::Result<InfoCard> {
        let t = text(self.info(sketch)?)?;
        InfoCard::from_wire(&t).ok_or_else(|| invalid_data(format!("bad INFO payload '{t}'")))
    }

    /// Sends `LIST`.
    pub fn list(&mut self) -> std::io::Result<Response> {
        self.roundtrip(&Request::List, false)
    }

    /// Sends `LIFECYCLE <sketch>` — the retrain-and-hot-swap lifecycle
    /// status line for one sketch.
    pub fn lifecycle(&mut self, sketch: &str) -> std::io::Result<Response> {
        let sketch = sketch.to_string();
        self.roundtrip(&Request::Lifecycle { sketch }, false)
    }

    /// Sends `METRICS`.
    pub fn metrics(&mut self) -> std::io::Result<Response> {
        self.roundtrip(&Request::Metrics, false)
    }

    /// Sends `METRICS` and parses the payload into a typed snapshot.
    pub fn metrics_snapshot(&mut self) -> std::io::Result<MetricsSnapshot> {
        let t = text(self.metrics()?)?;
        MetricsSnapshot::from_wire(&t)
            .ok_or_else(|| invalid_data(format!("bad METRICS payload '{t}'")))
    }

    /// Sends `STATS` and parses the Prometheus exposition into samples.
    pub fn stats(&mut self) -> std::io::Result<Vec<PromSample>> {
        let doc = self.stats_document()?;
        ds_obs::prom::parse_text(&doc)
            .ok_or_else(|| invalid_data(format!("bad STATS payload '{doc}'")))
    }

    /// Sends `STATS` and parses the exposition into typed metric
    /// families — counters, gauges, summaries, histograms — via
    /// [`ds_obs::parse_families`]. Prefer this over grepping the raw
    /// text: `families.iter().find(|f| f.name == "ds_serve_requests")`
    /// then [`PromFamily::scalar`]/[`PromFamily::suffixed`].
    pub fn stats_families(&mut self) -> std::io::Result<Vec<PromFamily>> {
        let doc = self.stats_document()?;
        ds_obs::parse_families(&doc)
            .ok_or_else(|| invalid_data(format!("bad STATS payload '{doc}'")))
    }

    /// The `STATS` exposition as a real document. The server escapes
    /// newlines as literal `\n` to fit the one-line wire; this reverses
    /// that.
    fn stats_document(&mut self) -> std::io::Result<String> {
        Ok(text(self.roundtrip(&Request::Stats, false)?)?.replace("\\n", "\n"))
    }

    /// Sends `TRACE` and parses the slow-request exemplars, oldest first.
    pub fn trace(&mut self) -> std::io::Result<Vec<RequestTimeline>> {
        let t = text(self.roundtrip(&Request::Trace, false)?)?;
        if t.trim() == "(none)" {
            return Ok(Vec::new());
        }
        t.split(';')
            .map(|rec| {
                RequestTimeline::from_wire(rec)
                    .ok_or_else(|| invalid_data(format!("bad TRACE record '{rec}'")))
            })
            .collect()
    }

    /// Sends `QUIT` and consumes the connection.
    pub fn quit(mut self) -> std::io::Result<()> {
        match self.roundtrip(&Request::Quit, false)? {
            Response::Bye => Ok(()),
            other => Err(invalid_data(format!("expected BYE, got {other:?}"))),
        }
    }
}

pub(crate) fn invalid_data(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// The payload of a text (`OK <text>`) response; any other response
/// becomes an `InvalidData` error carrying its wire line.
fn text(resp: Response) -> std::io::Result<String> {
    match resp {
        Response::Text(t) => Ok(t),
        other => Err(invalid_payload(&other)),
    }
}

pub(crate) fn invalid_payload(resp: &Response) -> std::io::Error {
    invalid_data(crate::protocol::format_response(resp))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn info_card_parses_the_sketch_info_display_form() {
        // Build the wire line from the real Display impl so the parser
        // can never drift away from the server's format.
        let info = ds_core::sketch::SketchInfo {
            database: "imdb_v2".to_string(),
            tables: 6,
            joins: 5,
            predicate_columns: 9,
            hidden_units: 64,
            model_params: 12345,
            sample_size: 16,
            sample_rows: 96,
            footprint_bytes: 125_829, // 0.12 MiB
            max_label: 987654,
        };
        let card = InfoCard::from_wire(&info.to_string()).expect("parse");
        assert_eq!(card.database, "imdb_v2");
        assert_eq!(card.tables, 6);
        assert_eq!(card.joins, 5);
        assert_eq!(card.predicate_columns, 9);
        assert_eq!(card.hidden_units, 64);
        assert_eq!(card.model_params, 12345);
        assert_eq!(card.sample_rows, 96);
        assert_eq!(card.sample_size, 16);
        assert!((card.footprint_mib - 0.12).abs() < 1e-9);
        assert_eq!(card.max_label, 987654);
        assert!(InfoCard::from_wire("not a card").is_none());
        assert!(InfoCard::from_wire("sketch[x]: truncated").is_none());
    }
}
