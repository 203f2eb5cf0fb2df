//! `servebench`: the daemon-level benchmark of the `dsud` workspace.
//!
//! One run generates a workload's data with `dsud generate --seed`, starts
//! a real `dsud serve` on it, drives it with closed-loop protocol clients
//! for `--seconds`, checks every answer against the centralized oracle and
//! prints the metrics as one JSON line on stdout (a readable table goes to
//! stderr). `--trace 0` reports the end-to-end metrics of an untraced run;
//! `--trace 1` adds a traced run of the same seed (every query asks for
//! its `RunReport`) and an in-process replay of the lower layers, and
//! reports the per-layer metrics. See `servebench/README.md`.

mod client;
mod daemon;
mod layers;
mod oracle;
mod replay;
mod rng;
mod stats;
mod workload;

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::Command;

use dsud_uncertain::{Probability, TupleId, UncertainTuple};

use client::{Conn, Record, Reply, Window};
use daemon::Daemon;
use oracle::Oracle;
use rng::Rng;
use workload::{Plan, Query, Request, Stream, Tuple, Workload};

/// Daemons each measured window is split across. Every segment replays
/// the same request streams on a fresh daemon, so segments differ only in
/// how much of the shared host they got: neighbours' bursts (visible as
/// steal time) slow a segment by up to half, and never speed one up.
/// Rates, medians and the tail are taken over the [`KEPT`] quickest
/// segments.
const SEGMENTS: usize = 6;
/// Segments, by completed requests per second, the end-to-end metrics
/// are taken over.
const KEPT: usize = SEGMENTS / 2;
/// Extra daemon start-ups per run, besides the segments', whose median
/// with theirs is `setup_s`.
const SETUP_SPAWNS: usize = 3;
/// Insert-then-delete pairs sent after the window: they time updates on
/// workloads without any, and empty the result cache before the check.
const UPDATE_PROBES: usize = 100;
/// Fresh queries added to the hot set in `serve-mix`'s post-run check.
const CHECK_FRESH: usize = 6;
/// Distinct queries the in-process replay re-runs.
const REPLAY_QUERIES: usize = 12;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    dsud: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = HashMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k[2..].to_string(), v.clone());
            }
            _ => return Err(format!("expected --flag value pairs, got {argv:?}")),
        }
    }
    let get = |k: &str| flags.get(k).map(String::as_str);
    let num = |k: &str, default: &str| -> Result<u64, String> {
        get(k).unwrap_or(default).parse().map_err(|_| format!("--{k} expects a whole number"))
    };
    let name = get("workload").ok_or("--workload is required")?;
    let mut workload = workload::find(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    if let Some(n) = get("n") {
        // Scale override for smoke tests; the benchmark itself never sets it.
        workload.n = n.parse().map_err(|_| "--n expects a whole number".to_string())?;
    }
    let trace = match get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got '{other}'")),
    };
    Ok(Args {
        workload,
        seed: num("seed", "1")?,
        seconds: num("seconds", "10")? as f64,
        trace,
        dsud: PathBuf::from(get("dsud").ok_or("--dsud <path to the dsud binary> is required")?),
        work: PathBuf::from(get("work").unwrap_or(".bench_work")),
    })
}

/// Generates the workload's data with the daemon's own `dsud generate`.
fn generate(args: &Args, dir: &Path) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let wl = &args.workload;
    let path = dir.join("data.jsonl");
    let out = Command::new(&args.dsud)
        .args(["generate", "--n", &wl.n.to_string(), "--dims", &wl.dims.to_string()])
        .args(["--dist", wl.dist, "--seed", &workload::DATA_SEED.to_string(), "--out"])
        .arg(&path)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", args.dsud.display()))?;
    if !out.status.success() {
        return Err(format!("dsud generate failed: {}", String::from_utf8_lossy(&out.stderr)));
    }
    Ok(path)
}

fn read_tuples(path: &Path) -> Result<Vec<UncertainTuple>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).map_err(|e| format!("bad data line: {e}")))
        .collect()
}

fn as_tuple(t: &Tuple) -> UncertainTuple {
    let p = Probability::new(t.prob).expect("generated probabilities are valid");
    UncertainTuple::new(TupleId::new(t.site, t.seq), t.values.clone(), p).expect("valid tuple")
}

/// One measured window and what surrounds it, over [`SEGMENTS`] daemons
/// started one after another. Each segment gets a fresh daemon on the
/// generated data, a warm-up query and fresh client streams for its share
/// of the window; the last one then takes the update probes and (on
/// `serve-mix`) the post-run check queries.
struct Phase {
    setup_s: Vec<f64>,
    peak_rss_mb: f64,
    cpu_util: f64,
    /// The window's requests, pooled over the segments.
    window: Window,
    /// Where each segment's requests sit in `window.records`. The last
    /// segment's shaped the data the post-run check sees.
    segments: Vec<std::ops::Range<usize>>,
    /// Each segment's window length in seconds.
    segment_s: Vec<f64>,
    /// Share of the host's CPU time taken by other guests during each
    /// segment's window (`None` without `/proc/stat`).
    segment_steal: Vec<Option<f64>>,
    /// Untimed requests around the window: warm-up queries, the update
    /// probes and the check queries, in order.
    extra: Vec<Record>,
    /// `serve-mix` check: each query's cold answer and its cached repeat.
    checks: Vec<(Record, Record)>,
}

struct Ctx<'a> {
    args: &'a Args,
    plan: Plan,
    data: PathBuf,
}

fn phase(ctx: &Ctx, traced: bool) -> Result<Phase, String> {
    let wl = &ctx.args.workload;
    let mut p = Phase {
        setup_s: Vec::new(),
        peak_rss_mb: 0.0,
        cpu_util: 0.0,
        window: Window { records: Vec::new(), elapsed_s: 0.0 },
        segments: Vec::new(),
        segment_s: Vec::new(),
        segment_steal: Vec::new(),
        extra: Vec::new(),
        checks: Vec::new(),
    };
    let mut cpu_s = 0.0;
    for segment in 0..SEGMENTS {
        let daemon = Daemon::spawn(&ctx.args.dsud, &ctx.data, &wl.daemon_flags())?;
        p.setup_s.push(daemon.setup_s);
        let mut conn = Conn::connect(daemon.addr).map_err(|e| format!("cannot connect: {e}"))?;
        let warm = Query { algorithm: "edsud", q: 0.95, subspace: None, limit: None };
        p.extra.push(conn.send(0, 0, Request::Query(warm), false));

        let cpu0 = daemon.cpu_s();
        let steal0 = daemon::host_steal_s();
        let seconds = ctx.args.seconds / SEGMENTS as f64;
        let w = client::closed_loop(daemon.addr, wl, &ctx.plan, ctx.args.seed, seconds, traced)?;
        if let (Some(a), Some(b)) = (cpu0, daemon.cpu_s()) {
            cpu_s += b - a;
        }
        let stolen = daemon::host_steal_s().zip(steal0).map(|(b, a)| b - a);
        p.segment_steal.push(stolen.map(|s| s / (w.elapsed_s * nproc())));
        p.window.elapsed_s += w.elapsed_s;
        let at = p.window.records.len();
        p.segments.push(at..at + w.records.len());
        p.segment_s.push(w.elapsed_s);
        p.window.records.extend(w.records);

        if segment + 1 == SEGMENTS {
            let mut rng = Rng::derive(ctx.args.seed, 0xD0_0D);
            for k in 0..UPDATE_PROBES {
                let t = Tuple::random(&mut rng, wl.dims, 0, 2_000_000_000 + k as u64);
                p.extra.push(conn.send(0, 0, Request::Insert(t.clone()), false));
                p.extra.push(conn.send(0, 0, Request::Delete(t), false));
            }
            if wl.mixed {
                for q in check_queries(ctx) {
                    let cold = conn.send(0, 0, Request::Query(q.clone()), traced);
                    let cached = conn.send(0, 0, Request::Query(q), false);
                    p.checks.push((cold, cached));
                }
            }
        }
        p.peak_rss_mb = p.peak_rss_mb.max(daemon.peak_rss_mb().unwrap_or(0.0));
        drop(conn);
        daemon.stop()?;
    }
    p.cpu_util = cpu_s / (p.window.elapsed_s * nproc());
    Ok(p)
}

fn nproc() -> f64 {
    std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
}

/// `serve-mix`'s post-run check set: the hot set plus the first fresh
/// queries of a stream no client ran (subspace and `limit` ones included).
fn check_queries(ctx: &Ctx) -> Vec<Query> {
    let wl = &ctx.args.workload;
    let mut stream = Stream::new(wl, &ctx.plan, ctx.args.seed, wl.clients);
    let fresh = (0..CHECK_FRESH).map(|_| stream.fresh_query());
    ctx.plan.hot.iter().cloned().chain(fresh).collect()
}

/// What a `serve-mix` phase adds to the generated data: every
/// acknowledged insert not later deleted.
fn live_inserts(phase: &Phase) -> Vec<UncertainTuple> {
    let mut live: HashMap<(u32, u64), &Tuple> = HashMap::new();
    let last = phase.segments.last().cloned().unwrap_or_default();
    for r in phase.window.records[last].iter().chain(&phase.extra) {
        if !matches!(r.reply, Reply::Updated) {
            continue;
        }
        match &r.request {
            Request::Insert(t) => {
                live.insert((t.site, t.seq), t);
            }
            Request::Delete(t) => {
                live.remove(&(t.site, t.seq));
            }
            Request::Query(_) => {}
        }
    }
    let mut inserted: Vec<&Tuple> = live.into_values().collect();
    inserted.sort_by_key(|t| (t.site, t.seq));
    inserted.into_iter().map(as_tuple).collect()
}

/// Failures found in one phase, with a note for each.
#[derive(Default)]
struct Verdict {
    attempted: usize,
    failed: usize,
    notes: Vec<String>,
}

impl Verdict {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Counts `r`: fails it on an error line, a dropped connection, or a
    /// degraded or cancelled answer; otherwise runs `check` on the answer.
    fn judge(
        &mut self,
        r: &Record,
        check: impl FnOnce(&Query, &[client::Entry]) -> Result<(), String>,
    ) {
        self.attempted += 1;
        match (&r.request, &r.reply) {
            (_, Reply::Error(e)) => self.fail(format!("error line: {e}")),
            (_, Reply::Dropped(e)) => self.fail(format!("dropped connection: {e}")),
            (Request::Query(q), Reply::Answer(answer, done)) => {
                if done.degraded || done.cancelled || done.count != answer.len() {
                    self.fail(format!("{}: degraded, cancelled or short answer", q.key()));
                } else if let Err(e) = check(q, answer) {
                    self.fail(e);
                }
            }
            (Request::Query(q), Reply::Updated) => {
                self.fail(format!("{}: answered as an update", q.key()))
            }
            (_, Reply::Answer(..)) => self.fail("update answered as a query".into()),
            (_, Reply::Updated) => {}
        }
    }
}

/// Checks every request of a phase. Cold workloads check every answer
/// against the oracle of the generated data; `serve-mix`, whose data moves
/// under the window, checks its post-run queries against the oracle of the
/// data it ended with, and each cached repeat against its cold answer.
fn verify(wl: &Workload, generated: &Oracle, p: &Phase) -> Result<Verdict, String> {
    let mut v = Verdict::default();
    let owned;
    let oracle = if wl.mixed {
        owned = generated.extended(&live_inserts(p))?;
        &owned
    } else {
        generated
    };
    let skip = |_: &Query, _: &[client::Entry]| Ok(());
    let full = |q: &Query, a: &[client::Entry]| oracle.check(q, a);
    for r in p.window.records.iter().chain(&p.extra) {
        if wl.mixed {
            v.judge(r, skip);
        } else {
            v.judge(r, full);
        }
    }
    for (cold_r, cached) in &p.checks {
        v.judge(cold_r, |q, a| {
            match &cold_r.reply {
                Reply::Answer(_, d) if d.cache_hit => {
                    return Err(format!("{}: stale cache hit after an update", q.key()))
                }
                _ => {}
            }
            oracle.check(q, a)
        });
        v.judge(cached, |q, a| match (&cold_r.reply, &cached.reply) {
            (Reply::Answer(first, _), Reply::Answer(_, d))
                if d.cache_hit && first.as_slice() == a =>
            {
                Ok(())
            }
            _ => Err(format!("{}: repeat was not a cache hit equal to its miss", q.key())),
        });
    }
    Ok(v)
}

fn query_of(r: &Record) -> Option<&Query> {
    match &r.request {
        Request::Query(q) => Some(q),
        _ => None,
    }
}

/// One metric: name, value, unit.
type Metric = (String, f64, &'static str);

fn p50(v: &[f64]) -> f64 {
    stats::median(v).unwrap_or(0.0)
}

fn tail_of(v: &[f64]) -> stats::Tail {
    stats::tail(v).unwrap_or_else(|| {
        // Too few samples for the rule: fall back to the maximum.
        let max = v.iter().copied().fold(0.0, f64::max);
        stats::Tail { value: max, percentile: 100.0, samples: v.len() }
    })
}

/// Coordinator-answered queries (not cache hits) the exact counts are
/// taken over. On the cold workloads that is the window's fixed
/// per-client prefix. On `serve-mix`, which window queries reach the
/// coordinator depends on how the clients interleave with cache hits and
/// updates, so it is the cold pass of the post-run check set without its
/// `limit` query (whose k the seed draws): the same queries on the
/// generated data plus the few live inserts.
fn counted<'a>(wl: &Workload, p: &'a Phase) -> Vec<(&'a [client::Entry], &'a client::Done)> {
    let records: Vec<&Record> = if wl.mixed {
        let full = |r: &&Record| query_of(r).is_some_and(|q| q.limit.is_none());
        p.checks.iter().map(|(cold, _)| cold).filter(full).collect()
    } else {
        p.window.records.iter().filter(|r| r.index < wl.count_prefix).collect()
    };
    records
        .into_iter()
        .filter_map(|r| match &r.reply {
            Reply::Answer(a, d) if !d.cache_hit => Some((a.as_slice(), d)),
            _ => None,
        })
        .collect()
}

/// Client-observed latency samples of queries; a failed query counts as
/// exceeding any limit.
fn query_latencies<'a>(records: impl IntoIterator<Item = &'a Record>) -> Vec<f64> {
    records
        .into_iter()
        .filter(|r| matches!(r.request, Request::Query(_)))
        .map(|r| if r.reply.failed() { f64::INFINITY } else { r.latency_ms })
        .collect()
}

fn end_to_end(
    wl: &Workload,
    p: &Phase,
    setup: &[f64],
    verdict: &Verdict,
) -> (Vec<Metric>, stats::Tail) {
    let w = &p.window;
    let completed = |records: &[Record]| records.iter().filter(|r| !r.reply.failed()).count();
    // Every segment ran the same streams, so the quickest ones are those
    // the host disturbed least; the rest are reported on stderr only.
    let rates: Vec<f64> = p
        .segments
        .iter()
        .zip(&p.segment_s)
        .map(|(r, &s)| completed(&w.records[r.clone()]) as f64 / s)
        .collect();
    let kept = stats::quickest(&rates, KEPT);
    for (k, (rate, steal)) in rates.iter().zip(&p.segment_steal).enumerate() {
        let lat = query_latencies(&w.records[p.segments[k].clone()]);
        eprintln!(
            "  segment {k}: {rate:.2} ops/s, query p50 {:.2} ms, host steal {}{}",
            p50(&lat),
            steal.map_or("n/a".into(), |s| format!("{:.1}%", 100.0 * s)),
            if kept.contains(&k) { "" } else { " (dropped)" }
        );
    }
    let records: Vec<&Record> =
        kept.iter().flat_map(|&k| &w.records[p.segments[k].clone()]).collect();
    let seconds: f64 = kept.iter().map(|&k| p.segment_s[k]).sum();
    let lat = query_latencies(records.iter().copied());
    let tail = tail_of(&lat);
    let first: Vec<f64> = records
        .iter()
        .filter(|r| matches!(r.reply, Reply::Answer(..)))
        .map(|r| r.first_ms.unwrap_or(r.latency_ms))
        .collect();
    let done = records.iter().filter(|r| !r.reply.failed()).count();
    let tuples: Vec<f64> =
        counted(wl, p).iter().map(|(_, d)| d.tuples_transmitted as f64).collect();
    let ok = 1.0 - verdict.failed as f64 / verdict.attempted.max(1) as f64;
    let m = vec![
        ("setup_s".into(), p50(setup), "s"),
        ("peak_rss_mb".into(), p.peak_rss_mb, "MiB"),
        ("throughput_ops_s".into(), done as f64 / seconds, "1/s"),
        ("query_p50_ms".into(), p50(&lat), "ms"),
        ("query_tail_ms".into(), tail.value, "ms"),
        ("first_result_p50_ms".into(), p50(&first), "ms"),
        ("tuples_per_query".into(), stats::mean(&tuples).unwrap_or(0.0), "count"),
        ("ok_frac".into(), ok, "ratio"),
    ];
    (m, tail)
}

/// Median update latency: the window's updates on `serve-mix`, the idle
/// insert/delete probes elsewhere.
fn update_p50(p: &Phase) -> f64 {
    let is_update = |r: &&Record| matches!(r.request, Request::Insert(_) | Request::Delete(_));
    let mut updates: Vec<f64> =
        p.window.records.iter().filter(is_update).map(|r| r.latency_ms).collect();
    if updates.is_empty() {
        updates = p.extra.iter().filter(is_update).map(|r| r.latency_ms).collect();
    }
    p50(&updates)
}

/// Per-layer metrics from the traced window's run reports (source R),
/// plus the add-up checks, which fail `verdict` when a layer sum misses.
fn traced_layers(wl: &Workload, traced: &Phase, verdict: &mut Verdict) -> Vec<Metric> {
    let w = &traced.window;
    let mut reply = Vec::new();
    let mut waits = Vec::new();
    let (mut hits, mut answered) = (0usize, 0usize);
    let mut b = Vec::new();
    let mut lag = Vec::new();
    for r in &w.records {
        let Reply::Answer(answer, d) = &r.reply else { continue };
        answered += 1;
        hits += usize::from(d.cache_hit);
        let wait = d.admission_wait_us as f64 / 1e3;
        waits.push(wait);
        let Some(report) = &d.report else {
            verdict.fail("traced query came back without a run report".into());
            continue;
        };
        match layers::check_client(r.latency_ms, wait, report.wall_ms) {
            Ok(x) => reply.push(x),
            Err(e) => verdict.fail(format!("client layers do not add up: {e}")),
        }
        if d.cache_hit {
            continue;
        }
        match layers::breakdown(report).and_then(|x| x.check_wall().map(|()| x)) {
            Ok(x) => {
                if let (Some(first), Some(confirm)) = (r.first_ms, x.first_confirm) {
                    if !answer.is_empty() {
                        lag.push(first - wait - confirm);
                    }
                }
                b.push(x);
            }
            Err(e) => verdict.fail(format!("coordinator layers do not add up: {e}")),
        }
    }
    let col =
        |f: fn(&layers::Breakdown) -> f64| -> f64 { p50(&b.iter().map(f).collect::<Vec<_>>()) };
    let counted: Vec<_> = counted(wl, traced)
        .into_iter()
        .filter_map(|(a, d)| d.report.as_ref().map(|r| (a, r)))
        .collect();
    let mean = |f: &dyn Fn(&client::Report) -> f64| -> f64 {
        stats::mean(&counted.iter().map(|(_, r)| f(r)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let shipped: u64 = counted.iter().map(|(_, r)| r.counters.tuples_shipped).sum();
    let useful: usize = counted.iter().map(|(a, _)| a.len() * workload::SITES).sum();
    let all_misses: Vec<&client::Report> = w
        .records
        .iter()
        .filter_map(|r| match &r.reply {
            Reply::Answer(_, d) if !d.cache_hit => d.report.as_ref(),
            _ => None,
        })
        .collect();
    let total = |f: fn(&client::Report) -> u64| all_misses.iter().map(|r| f(r)).sum::<u64>() as f64;
    vec![
        ("cli.reply_ms_p50".into(), p50(&reply), "ms"),
        ("cli.first_result_lag_ms_p50".into(), p50(&lag), "ms"),
        ("session.cache_hit_ratio".into(), hits as f64 / answered.max(1) as f64, "ratio"),
        ("session.admission_wait_ms_p50".into(), p50(&waits), "ms"),
        ("session.admission_wait_ms_tail".into(), tail_of(&waits).value, "ms"),
        ("session.update_p50_ms".into(), update_p50(traced), "ms"),
        ("session.outside_coord_ms_p50".into(), col(|x| x.session), "ms"),
        ("coord.query_ms_p50".into(), col(|x| x.wall), "ms"),
        ("coord.self_ms_p50".into(), col(|x| x.own), "ms"),
        ("coord.start_ms_p50".into(), col(|x| x.start), "ms"),
        ("coord.plan_ms_p50".into(), col(|x| x.plan), "ms"),
        ("coord.rounds_ms_p50".into(), col(|x| x.rounds), "ms"),
        ("coord.delivery_ms_p50".into(), col(|x| x.delivery), "ms"),
        // DSUD has no expunge: its zeros would make this a median of a mix.
        (
            "coord.expunge_ms_p50".into(),
            p50(&b.iter().map(|x| x.expunge).filter(|&e| e > 0.0).collect::<Vec<_>>()),
            "ms",
        ),
        (
            "coord.first_confirm_ms_p50".into(),
            p50(&b.iter().filter_map(|x| x.first_confirm).collect::<Vec<_>>()),
            "ms",
        ),
        ("coord.rounds_per_query".into(), mean(&|r| r.counters.rounds as f64), "count"),
        ("coord.expunged_per_query".into(), mean(&|r| r.counters.expunged as f64), "count"),
        ("net.frames_per_query".into(), mean(&|r| r.counters.messages as f64), "count"),
        ("net.bytes_per_query".into(), mean(&|r| r.counters.bytes_sent as f64), "B"),
        ("net.sketch_bytes_per_query".into(), mean(&|r| r.sketch_bytes.unwrap_or(0) as f64), "B"),
        ("net.ceiling_ratio".into(), useful as f64 / shipped.max(1) as f64, "ratio"),
        ("net.link_retries".into(), total(|r| r.counters.link_retries), "count"),
        ("net.link_timeouts".into(), total(|r| r.counters.link_timeouts), "count"),
    ]
}

/// The first distinct coordinator-answered queries of the traced window,
/// in stream order, with their answers.
fn replay_queries(w: &Window) -> Vec<(Query, Vec<client::Entry>)> {
    let mut records: Vec<&Record> = w.records.iter().collect();
    records.sort_by_key(|r| (r.index, r.client));
    let mut seen = HashSet::new();
    records
        .into_iter()
        .filter_map(|r| match (&r.request, &r.reply) {
            (Request::Query(q), Reply::Answer(a, d)) if !d.cache_hit && seen.insert(q.key()) => {
                Some((q.clone(), a.clone()))
            }
            _ => None,
        })
        .take(REPLAY_QUERIES)
        .collect()
}

fn replay_metrics(r: &replay::Replay) -> Vec<Metric> {
    vec![
        ("net.tcp_call_us_p50".into(), r.tcp_call_us_p50, "us"),
        ("net.codec_ns_per_byte".into(), r.codec_ns_per_byte, "ns/B"),
        ("prtree.bulk_load_ms".into(), r.bulk_load_ms, "ms"),
        ("site.build_ms".into(), r.site_build_ms, "ms"),
        ("site.start_ms_per_query".into(), r.start_ms_per_query, "ms"),
        ("prtree.bbs_ms_per_query".into(), r.bbs_ms_per_query, "ms"),
        ("site.local_skyline_per_query".into(), r.local_skyline_per_query, "count"),
        ("prtree.multiprobe_ms_per_query".into(), r.multiprobe_ms_per_query, "ms"),
        ("dominance.ns_per_pair".into(), r.ns_per_pair, "ns"),
    ]
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        format!("{}", f64::MAX)
    }
}

fn result_line(correct: bool, v: &Verdict, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(r#""{name}":{{"value":{},"unit":"{unit}"}}"#, json_number(*value))
        })
        .collect();
    format!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        v.attempted,
        v.failed,
        body.join(",")
    )
}

fn run(args: &Args) -> Result<String, String> {
    let wl = &args.workload;
    let dir = args.work.join(format!("{}-data{}-n{}", wl.name, workload::DATA_SEED, wl.n));
    let data = generate(args, &dir)?;
    let initial = read_tuples(&data)?;
    let ctx = Ctx { args, plan: Plan::new(args.seed), data };

    let mut setup = Vec::new();
    for _ in 0..SETUP_SPAWNS {
        let d = Daemon::spawn(&args.dsud, &ctx.data, &wl.daemon_flags())?;
        setup.push(d.setup_s);
        d.stop()?;
    }
    let plain = phase(&ctx, false)?;
    setup.extend(&plain.setup_s);
    let traced = if args.trace {
        let t = phase(&ctx, true)?;
        setup.extend(&t.setup_s);
        Some(t)
    } else {
        None
    };

    // The oracle runs after every measured window, never beside one. The
    // generated data is the same on every run of a workload, so its oracle
    // is cached under the fingerprints of the data file and of this
    // binary, which holds the oracle's code.
    let own = std::env::current_exe().and_then(std::fs::read).map_err(|e| e.to_string())?;
    let bytes = std::fs::read(&ctx.data).map_err(|e| e.to_string())?;
    let cache = dir.join(format!(
        "oracle-{:016x}-{:016x}",
        oracle::fingerprint(&bytes),
        oracle::fingerprint(&own)
    ));
    let mut generated = Oracle::new(wl.dims, initial.clone())?;
    let phases = std::iter::once(&plain).chain(traced.as_ref());
    let asked = phases.flat_map(|p| {
        let checked = p.checks.iter().map(|(r, _)| r);
        p.window.records.iter().chain(&p.extra).chain(checked)
    });
    generated.prepare(asked.filter_map(query_of), Some(&cache))?;
    let mut verdict = verify(wl, &generated, &plain)?;
    let (e2e, tail) = end_to_end(wl, &plain, &setup, &verdict);

    let mut per_layer = Vec::new();
    if let Some(t) = &traced {
        let v = verify(wl, &generated, t)?;
        verdict.attempted += v.attempted;
        verdict.failed += v.failed;
        verdict.notes.extend(v.notes);
        per_layer = traced_layers(wl, t, &mut verdict);
        let plain_p50 = p50(&query_latencies(&plain.window.records));
        let traced_p50 = p50(&query_latencies(&t.window.records));
        let queries = replay_queries(&t.window);
        let r = replay::replay(wl.dims, &initial, &queries, args.seed)?;
        per_layer.extend(replay_metrics(&r));
        per_layer.extend([
            ("daemon.cpu_util".into(), plain.cpu_util, "ratio"),
            ("trace.overhead_frac".into(), traced_p50 / plain_p50 - 1.0, "ratio"),
            ("client.query_tail_pct".into(), tail.percentile, "pct"),
            ("client.query_samples".into(), tail.samples as f64, "count"),
        ]);
    }

    eprintln!(
        "servebench {} seed {} ({} s window{})",
        wl.name,
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );
    for (name, value, unit) in e2e.iter().chain(&per_layer) {
        eprintln!("  {name:<34} {value:>14.4} {unit}");
    }
    eprintln!(
        "  query_tail_ms is p{:.1} of {} queries (kept segments); failed_frac {} = {} failed / {} attempted",
        tail.percentile,
        tail.samples,
        verdict.failed as f64 / verdict.attempted.max(1) as f64,
        verdict.failed,
        verdict.attempted
    );
    for note in &verdict.notes {
        eprintln!("  FAILED: {note}");
    }
    let correct = verdict.failed == 0;
    Ok(result_line(correct, &verdict, if args.trace { &per_layer } else { &e2e }))
}

fn main() {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    }
}
