//! The three served workloads and their seeded request streams.
//!
//! Every daemon runs with `--sites 60 --batch auto` and the daemon's
//! defaults otherwise, except for the flags a workload lists. Requests are
//! written by hand as JSON lines, so the benchmark binds to the protocol's
//! wire format, not to the CLI crate's Rust types.

use std::collections::VecDeque;

use crate::rng::Rng;

/// Sites every daemon partitions its data over.
pub const SITES: usize = 60;

/// `dsud generate --seed` of every workload's data. The workload seed
/// drives the request streams, not the data: from one generated dataset
/// to the next, answer sizes move by ±8% and tuples transmitted by ±12%
/// (anticorrelated, N = 50,000), which would swamp every bound a
/// run-to-run comparison can hold.
pub const DATA_SEED: u64 = 1;

/// Step of the Weyl sequence that spreads query thresholds evenly over
/// their range: consecutive queries stratify `q` instead of clumping.
const PHI: f64 = 0.618_033_988_749_894_9;

/// Range of the query threshold `q`.
const Q_LO: f64 = 0.3;
const Q_SPAN: f64 = 0.6;

/// Where the hot-set and fresh threshold sequences start. The seed moves
/// each start by less than [`SEED_JITTER`]: every seed asks its own
/// queries, but the mix of thresholds — which sets a query's cost far more
/// than the data does — stays the same from seed to seed.
const HOT_START: f64 = 0.1;
const FRESH_START: f64 = 0.45;
const SEED_JITTER: f64 = 1e-3;

/// Inserts a `serve-mix` client keeps alive before deleting the oldest.
const MAX_LIVE: usize = 3;

/// One benchmark workload: data shape, daemon flags and client mix.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Tuples generated.
    pub n: usize,
    /// Dimensions.
    pub dims: usize,
    /// `dsud generate --dist`.
    pub dist: &'static str,
    /// `dsud serve --transport`, when not the default `inline`.
    pub transport: Option<&'static str>,
    /// `dsud serve --cache`, when not the default 64.
    pub cache: Option<usize>,
    /// Closed-loop client connections.
    pub clients: usize,
    /// Hot repeats, fresh queries and updates (`serve-mix`) instead of
    /// distinct queries only.
    pub mixed: bool,
    /// Every this-many-th fresh query of a client asks a 2-of-d subspace,
    /// cycling through them; `None` keeps every query in the full space.
    pub subspace_every: Option<usize>,
    /// Requests per client that are always completed, even past the
    /// deadline: the fixed sample the exact per-query counts of a cold
    /// workload are taken over, so they repeat bit for bit across runs of
    /// one seed. `serve-mix` takes them over its post-run check set.
    pub count_prefix: usize,
}

/// Every workload the benchmark runs.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "serve-mix",
        n: 50_000,
        dims: 3,
        dist: "independent",
        transport: None,
        cache: None,
        clients: 2,
        mixed: true,
        subspace_every: Some(3),
        count_prefix: 0,
    },
    Workload {
        name: "cold-tcp",
        n: 50_000,
        dims: 3,
        dist: "independent",
        transport: Some("tcp"),
        cache: Some(0),
        clients: 2,
        mixed: false,
        subspace_every: Some(3),
        count_prefix: 12,
    },
    Workload {
        name: "cold-anticorr",
        n: 50_000,
        dims: 4,
        dist: "anticorrelated",
        transport: None,
        cache: Some(0),
        clients: 1,
        mixed: false,
        subspace_every: None,
        count_prefix: 12,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// `dsud serve` flags besides `--input` and `--port`.
    pub fn daemon_flags(&self) -> Vec<String> {
        let mut flags = vec!["--sites".into(), SITES.to_string(), "--batch".into(), "auto".into()];
        if let Some(t) = self.transport {
            flags.extend(["--transport".into(), t.into()]);
        }
        if let Some(c) = self.cache {
            flags.extend(["--cache".into(), c.to_string()]);
        }
        flags
    }
}

/// One skyline query as a client asks it.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `dsud` or `edsud`.
    pub algorithm: &'static str,
    /// Threshold.
    pub q: f64,
    /// Subspace dimensions; `None` is the full space.
    pub subspace: Option<Vec<usize>>,
    /// Progressive top-k limit.
    pub limit: Option<usize>,
}

impl Query {
    /// The request line, asking for a run report when `report` is set.
    pub fn line(&self, report: bool) -> String {
        let mut s = format!(r#"{{"query":{{"algorithm":"{}","q":{}"#, self.algorithm, self.q);
        if let Some(dims) = &self.subspace {
            let dims: Vec<String> = dims.iter().map(usize::to_string).collect();
            s.push_str(&format!(r#","subspace":[{}]"#, dims.join(",")));
        }
        if let Some(k) = self.limit {
            s.push_str(&format!(r#","limit":{k}"#));
        }
        if report {
            s.push_str(r#","report":true"#);
        }
        s.push_str("}}");
        s
    }

    /// Identity of the query for deduplication (the line without report).
    pub fn key(&self) -> String {
        self.line(false)
    }

    /// The queried dimensions in a `dims`-dimensional space.
    pub fn mask_dims(&self, dims: usize) -> Vec<usize> {
        self.subspace.clone().unwrap_or_else(|| (0..dims).collect())
    }
}

/// A tuple a client inserts or deletes.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    /// Home site.
    pub site: u32,
    /// Sequence number, unique per site.
    pub seq: u64,
    /// Attribute values.
    pub values: Vec<f64>,
    /// Existential probability.
    pub prob: f64,
}

impl Tuple {
    /// A fresh tuple drawn like the generated data: uniform values in
    /// `[0, 1)`, probability in `[0.05, 0.95)`.
    pub fn random(rng: &mut Rng, dims: usize, site: u32, seq: u64) -> Self {
        let values = (0..dims).map(|_| rng.unit()).collect();
        Tuple { site, seq, values, prob: 0.05 + 0.9 * rng.unit() }
    }

    fn json(&self) -> String {
        let values: Vec<String> = self.values.iter().map(f64::to_string).collect();
        format!(
            r#"{{"id":{{"site":{},"seq":{}}},"values":[{}],"prob":{}}}"#,
            self.site,
            self.seq,
            values.join(","),
            self.prob
        )
    }
}

/// One request of a client's stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A skyline query.
    Query(Query),
    /// Insert a new tuple.
    Insert(Tuple),
    /// Delete a tuple this client inserted.
    Delete(Tuple),
}

impl Request {
    /// The request line.
    pub fn line(&self, report: bool) -> String {
        match self {
            Request::Query(q) => q.line(report),
            Request::Insert(t) => format!(r#"{{"update":{{"op":"insert","tuple":{}}}}}"#, t.json()),
            Request::Delete(t) => format!(r#"{{"update":{{"op":"delete","tuple":{}}}}}"#, t.json()),
        }
    }
}

/// What every client of one run shares: the hot set and where the fresh
/// thresholds start.
#[derive(Debug, Clone)]
pub struct Plan {
    /// `serve-mix` hot set: three thresholds, each under both algorithms.
    pub hot: Vec<Query>,
    /// Offset of the fresh-threshold Weyl sequence.
    offset: f64,
}

impl Plan {
    /// The plan of `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::derive(seed, 0xB1A5);
        let hot_offset = HOT_START + SEED_JITTER * rng.unit();
        let hot = (0..3)
            .flat_map(|j| {
                let q = threshold(hot_offset, j);
                ["dsud", "edsud"].map(|algorithm| Query {
                    algorithm,
                    q,
                    subspace: None,
                    limit: None,
                })
            })
            .collect();
        Plan { hot, offset: FRESH_START + SEED_JITTER * rng.unit() }
    }
}

/// Threshold `i` of the Weyl sequence starting at `offset`.
fn threshold(offset: f64, i: usize) -> f64 {
    Q_LO + Q_SPAN * (offset + i as f64 * PHI).fract()
}

/// One client's deterministic request stream. A client's stream depends
/// only on the seed and the client index, never on timing, and a client
/// deletes only tuples it inserted itself — so the data a run ends with is
/// fixed by how many requests each client completed, not by interleaving.
#[derive(Debug, Clone)]
pub struct Stream {
    wl: Workload,
    plan: Plan,
    client: usize,
    rng: Rng,
    fresh: usize,
    inserted: u64,
    live: VecDeque<Tuple>,
}

impl Stream {
    /// The stream of client `client` of `wl` under `seed`.
    pub fn new(wl: &Workload, plan: &Plan, seed: u64, client: usize) -> Self {
        Stream {
            wl: *wl,
            plan: plan.clone(),
            client,
            rng: Rng::derive(seed, 1 + client as u64),
            fresh: 0,
            inserted: 0,
            live: VecDeque::new(),
        }
    }

    /// The next fresh query: thresholds from one Weyl sequence shared by
    /// all clients (so every fresh query of a run is distinct), algorithms
    /// alternating, every few on a 2-of-d subspace (each in turn), and on
    /// `serve-mix` every fifth one with a top-k limit.
    pub fn fresh_query(&mut self) -> Query {
        let i = self.fresh;
        self.fresh += 1;
        let g = i * self.wl.clients + self.client;
        let algorithm = if (i + self.client).is_multiple_of(2) { "dsud" } else { "edsud" };
        let subspace = match self.wl.subspace_every {
            Some(k) if i % k == k - 1 => {
                let skip = (i / k) % self.wl.dims;
                Some((0..self.wl.dims).filter(|&d| d != skip).take(2).collect())
            }
            _ => None,
        };
        let limit = (self.wl.mixed && i % 5 == 4).then(|| 1 + self.rng.below(10) as usize);
        Query { algorithm, q: threshold(self.plan.offset, g), subspace, limit }
    }

    fn update(&mut self) -> Request {
        if !self.live.is_empty() && (self.live.len() >= MAX_LIVE || self.rng.unit() < 0.5) {
            return Request::Delete(self.live.pop_front().expect("checked non-empty"));
        }
        let site = self.rng.below(SITES as u64) as u32;
        let seq = 1_000_000_000 + self.client as u64 * 1_000_000 + self.inserted;
        self.inserted += 1;
        let t = Tuple::random(&mut self.rng, self.wl.dims, site, seq);
        self.live.push_back(t.clone());
        Request::Insert(t)
    }

    /// The next request. On `serve-mix` about 60% repeat the hot set, 30%
    /// are fresh and 10% are updates; elsewhere every request is fresh.
    pub fn next_request(&mut self) -> Request {
        if !self.wl.mixed {
            return Request::Query(self.fresh_query());
        }
        let u = self.rng.unit();
        if u < 0.6 {
            let k = self.rng.below(self.plan.hot.len() as u64) as usize;
            Request::Query(self.plan.hot[k].clone())
        } else if u < 0.9 {
            Request::Query(self.fresh_query())
        } else {
            self.update()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn streams_are_seeded_and_fresh_queries_distinct() {
        for wl in WORKLOADS {
            let plan = Plan::new(7);
            let take = |client| {
                let mut s = Stream::new(&wl, &plan, 7, client);
                (0..300).map(|_| s.next_request()).collect::<Vec<_>>()
            };
            assert_eq!(take(0), take(0), "{}", wl.name);
            let mut keys = HashSet::new();
            for client in 0..wl.clients {
                for r in take(client) {
                    if let Request::Query(q) = r {
                        assert!((Q_LO..Q_LO + Q_SPAN).contains(&q.q));
                        if !plan.hot.contains(&q) {
                            assert!(keys.insert(q.key()), "{} repeats {}", wl.name, q.key());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn serve_mix_deletes_only_its_own_inserts() {
        let wl = find("serve-mix").unwrap();
        let plan = Plan::new(3);
        let mut s = Stream::new(&wl, &plan, 3, 1);
        let mut live = HashSet::new();
        let (mut queries, mut updates) = (0, 0);
        for _ in 0..2000 {
            match s.next_request() {
                Request::Query(_) => queries += 1,
                Request::Insert(t) => {
                    updates += 1;
                    assert!(live.insert(t.seq));
                }
                Request::Delete(t) => {
                    updates += 1;
                    assert!(live.remove(&t.seq), "deleted a tuple it never inserted");
                }
            }
        }
        assert!(live.len() <= MAX_LIVE);
        let share = updates as f64 / (queries + updates) as f64;
        assert!((0.07..0.13).contains(&share), "{share}");
    }

    #[test]
    fn request_lines_are_protocol_json() {
        let q = Query { algorithm: "dsud", q: 0.5, subspace: Some(vec![0, 2]), limit: Some(3) };
        assert_eq!(
            q.line(true),
            r#"{"query":{"algorithm":"dsud","q":0.5,"subspace":[0,2],"limit":3,"report":true}}"#
        );
        let t = Tuple { site: 4, seq: 9, values: vec![0.25, 0.5], prob: 0.75 };
        assert_eq!(
            Request::Delete(t).line(false),
            r#"{"update":{"op":"delete","tuple":{"id":{"site":4,"seq":9},"values":[0.25,0.5],"prob":0.75}}}"#
        );
    }
}
