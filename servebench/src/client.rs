//! Closed-loop clients speaking the daemon's JSON-lines protocol.
//!
//! Reply lines are timestamped as they arrive and parsed only after the
//! terminal line, so the client's own parsing never delays the clock it
//! reads for later lines.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use serde::Deserialize;

use crate::workload::{Plan, Request, Stream, Workload};

/// Longest a single request may take before the connection counts as lost.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// How far past the deadline a client may run to finish its fixed prefix.
const PREFIX_GRACE: Duration = Duration::from_secs(60);

/// One qualified tuple of an answer.
#[derive(Debug, Clone, PartialEq, Default, Deserialize)]
pub struct Entry {
    /// Attribute values (tuples are matched to the oracle by these).
    #[serde(default)]
    pub values: Vec<f64>,
    /// Reported global skyline probability.
    #[serde(default)]
    pub probability: f64,
}

/// Coordinator counters of a run report the benchmark reads.
#[derive(Debug, Clone, Default, Deserialize)]
pub struct Counters {
    /// Frames sent between coordinator and sites.
    #[serde(default)]
    pub messages: u64,
    /// Bytes of those frames.
    #[serde(default)]
    pub bytes_sent: u64,
    /// Tuples shipped to the coordinator.
    #[serde(default)]
    pub tuples_shipped: u64,
    /// Coordinator rounds.
    #[serde(default)]
    pub rounds: u64,
    /// Candidates the e-DSUD expunge removed.
    #[serde(default)]
    pub expunged: u64,
    /// Link-level retries.
    #[serde(default)]
    pub link_retries: u64,
    /// Link-level timeouts.
    #[serde(default)]
    pub link_timeouts: u64,
}

/// One span of a run report.
#[derive(Debug, Clone, Default, Deserialize)]
pub struct Span {
    /// Span name (`query:edsud`, `to-server:start`, `round`, ...).
    #[serde(default)]
    pub name: String,
    /// Index of the parent span.
    #[serde(default)]
    pub parent: Option<usize>,
    /// Start, µs on the report's clock.
    #[serde(default)]
    pub start_us: u64,
    /// End, µs on the report's clock (`None` if never closed).
    #[serde(default)]
    pub end_us: Option<u64>,
}

/// One progressive confirmation of a run report.
#[derive(Debug, Clone, Default, Deserialize)]
pub struct Progress {
    /// When the coordinator confirmed it, µs on the report's clock.
    #[serde(default)]
    pub at_us: u64,
}

/// The parts of the daemon's per-query `RunReport` the benchmark reads.
#[derive(Debug, Clone, Default, Deserialize)]
pub struct Report {
    /// Coordinator wall time.
    #[serde(default)]
    pub wall_ms: f64,
    /// Counters.
    #[serde(default)]
    pub counters: Counters,
    /// Span tree.
    #[serde(default)]
    pub spans: Vec<Span>,
    /// Plan-phase sketch bytes.
    #[serde(default)]
    pub sketch_bytes: Option<u64>,
    /// Progressive confirmations in order.
    #[serde(default)]
    pub progressive: Vec<Progress>,
}

/// The `done` summary of a query.
#[derive(Debug, Clone, Default, Deserialize)]
pub struct Done {
    /// Qualified tuples streamed.
    #[serde(default)]
    pub count: usize,
    /// Served from the result cache.
    #[serde(default)]
    pub cache_hit: bool,
    /// Wait at the admission gate.
    #[serde(default)]
    pub admission_wait_us: u64,
    /// Tuples transmitted between coordinator and sites.
    #[serde(default)]
    pub tuples_transmitted: u64,
    /// A site was lost and probabilities are only bounds.
    #[serde(default)]
    pub degraded: bool,
    /// The query hit a deadline.
    #[serde(default)]
    pub cancelled: bool,
    /// Run report, when asked for.
    #[serde(default)]
    pub report: Option<Report>,
}

#[derive(Debug, Clone, Default, Deserialize)]
struct Updated {
    #[serde(default)]
    updates_applied: u64,
}

#[derive(Debug, Clone, Default, Deserialize)]
struct Line {
    #[serde(default)]
    result: Option<Entry>,
    #[serde(default)]
    done: Option<Done>,
    #[serde(default)]
    updated: Option<Updated>,
    #[serde(default)]
    error: Option<String>,
}

/// How a request ended.
#[derive(Debug, Clone)]
pub enum Reply {
    /// A query's answer, in streamed order, and its summary.
    Answer(Vec<Entry>, Done),
    /// An update was applied.
    Updated,
    /// The daemon answered with an error line or a malformed reply.
    Error(String),
    /// The connection broke.
    Dropped(String),
}

impl Reply {
    /// Whether the request failed outright.
    pub fn failed(&self) -> bool {
        matches!(self, Reply::Error(_) | Reply::Dropped(_))
    }
}

/// One completed request.
#[derive(Debug, Clone)]
pub struct Record {
    /// Client that sent it.
    pub client: usize,
    /// Position in that client's stream.
    pub index: usize,
    /// The request.
    pub request: Request,
    /// Request write to terminal line, ms.
    pub latency_ms: f64,
    /// Request write to first `result` line, ms.
    pub first_ms: Option<f64>,
    /// The outcome.
    pub reply: Reply,
}

/// One protocol connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    results: Vec<String>,
    last: String,
}

impl Conn {
    /// Connects to the daemon.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        let writer = stream.try_clone()?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream),
            writer,
            results: Vec::new(),
            last: String::new(),
        })
    }

    /// Sends one request and reads its reply stream: returns the latency,
    /// the time to the first result line, and the parsed reply. An i/o
    /// failure is a dropped connection.
    pub fn exchange(&mut self, line: &str) -> (f64, Option<f64>, Reply) {
        let mut first = None;
        let start = Instant::now();
        let io = (|| -> io::Result<()> {
            self.writer.write_all(line.as_bytes())?;
            self.writer.write_all(b"\n")?;
            self.results.clear();
            loop {
                self.last.clear();
                if self.reader.read_line(&mut self.last)? == 0 {
                    return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "daemon hung up"));
                }
                // Result lines lead with a non-null `result`; any other line
                // ends the reply.
                if !self.last.starts_with(r#"{"result":{"#) {
                    return Ok(());
                }
                first.get_or_insert_with(|| start.elapsed());
                self.results.push(std::mem::take(&mut self.last));
            }
        })();
        let latency_ms = start.elapsed().as_secs_f64() * 1e3;
        let first_ms = first.map(|d| d.as_secs_f64() * 1e3);
        let reply = match io {
            Err(e) => Reply::Dropped(e.to_string()),
            Ok(()) => self.parse(),
        };
        (latency_ms, first_ms, reply)
    }

    fn parse(&self) -> Reply {
        let last: Line = match serde_json::from_str(self.last.trim_end()) {
            Ok(l) => l,
            Err(e) => return Reply::Error(format!("malformed reply line: {e}")),
        };
        if let Some(e) = last.error {
            return Reply::Error(e);
        }
        if let Some(u) = last.updated {
            return if u.updates_applied > 0 {
                Reply::Updated
            } else {
                Reply::Error("update acknowledged with no updates applied".into())
            };
        }
        let Some(done) = last.done else {
            return Reply::Error(format!("unexpected reply line {}", self.last.trim_end()));
        };
        let mut answer = Vec::with_capacity(self.results.len());
        for raw in &self.results {
            match serde_json::from_str::<Line>(raw.trim_end()).map(|l| l.result) {
                Ok(Some(entry)) => answer.push(entry),
                _ => return Reply::Error(format!("malformed result line {}", raw.trim_end())),
            }
        }
        Reply::Answer(answer, done)
    }

    /// Sends `request` and records its outcome.
    pub fn send(&mut self, client: usize, index: usize, request: Request, report: bool) -> Record {
        let (latency_ms, first_ms, reply) = self.exchange(&request.line(report));
        Record { client, index, request, latency_ms, first_ms, reply }
    }
}

/// Result of one closed-loop window.
pub struct Window {
    /// Every request completed, all clients.
    pub records: Vec<Record>,
    /// Wall seconds from the common start to the last client's finish.
    pub elapsed_s: f64,
}

/// Runs `wl.clients` closed-loop clients against `addr` for `seconds`:
/// each sends its next request as soon as the previous reply ends. A
/// client keeps going past the deadline until it has completed its first
/// `wl.count_prefix` requests, so the exact counts always cover the same
/// requests. A dropped connection ends that client.
pub fn closed_loop(
    addr: SocketAddr,
    wl: &Workload,
    plan: &Plan,
    seed: u64,
    seconds: f64,
    report: bool,
) -> Result<Window, String> {
    let mut conns = (0..wl.clients)
        .map(|_| Conn::connect(addr).map_err(|e| format!("cannot connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let per_client: Vec<Vec<Record>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(client, conn)| {
                let mut stream = Stream::new(wl, plan, seed, client);
                scope.spawn(move || {
                    let mut records = Vec::new();
                    loop {
                        let done = records.len();
                        let elapsed = start.elapsed();
                        let want_prefix =
                            done < wl.count_prefix && elapsed < deadline + PREFIX_GRACE;
                        if elapsed >= deadline && !want_prefix {
                            break;
                        }
                        let record = conn.send(client, done, stream.next_request(), report);
                        let dropped = matches!(record.reply, Reply::Dropped(_));
                        records.push(record);
                        if dropped {
                            break;
                        }
                    }
                    records
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    Ok(Window { records: per_client.into_iter().flatten().collect(), elapsed_s })
}
