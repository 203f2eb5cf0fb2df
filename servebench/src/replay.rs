//! Source P: an in-process replay of a run's data and queries that times
//! calls into the lower layers' public functions — the site, the PR-tree,
//! the dominance kernel, the TCP transport and the frame codec.
//!
//! Only knob-free calls are used: `PrTree::bulk_load`, `bbs::local_skyline`,
//! `PrTree::survival_products`, `Batch::survival_product`, `LocalSite::new`
//! with default options, `Service::handle` and `Link::call` with
//! `Message::{Start, RequestNext}`, and `Message::{encode_into,
//! decode_slice}`.

use std::time::Instant;

use bytes::BytesMut;
use dsud_core::{LocalSite, SiteOptions};
use dsud_net::tcp::{spawn_site, TcpLink};
use dsud_net::{BandwidthMeter, Link, Message, Service};
use dsud_prtree::{bbs, MultiProbeScratch, PrTree};
use dsud_uncertain::{Batch, SubspaceMask, TupleId, UncertainTuple};

use crate::client::Entry;
use crate::rng::Rng;
use crate::stats;
use crate::workload::{Query, SITES};

/// Sites served over loopback TCP for the transport timing.
const TCP_SITES: usize = 4;
/// Most `RequestNext` calls timed per query and TCP site.
const TCP_CALLS: usize = 32;
/// Encoded bytes the codec timing runs over, at least.
const CODEC_BYTES: usize = 8 << 20;

/// What the replay measured.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Σ `PrTree::bulk_load` over the sites, ms.
    pub bulk_load_ms: f64,
    /// Σ `LocalSite::new(.., SiteOptions::default())`, ms.
    pub site_build_ms: f64,
    /// Σ over sites of `Service::handle(Start)`, mean per query, ms.
    pub start_ms_per_query: f64,
    /// Σ over sites of `bbs::local_skyline`, mean per query, ms.
    pub bbs_ms_per_query: f64,
    /// Σ over sites of local skyline sizes, mean per query.
    pub local_skyline_per_query: f64,
    /// Σ over sites of `survival_products` with the answer as probes, ms.
    pub multiprobe_ms_per_query: f64,
    /// `Batch::survival_product` time per (probe, tuple) pair, ns.
    pub ns_per_pair: f64,
    /// Median `Link::call(RequestNext)` over `TcpLink`, µs.
    pub tcp_call_us_p50: f64,
    /// `decode_slice` + `encode_into` per byte of site reply frames, ns.
    pub codec_ns_per_byte: f64,
}

/// Splits `tuples` over [`SITES`] sites by a seeded shuffle, equal sizes,
/// relabelling each tuple `(site, seq)`.
fn partition(tuples: &[UncertainTuple], seed: u64) -> Vec<Vec<UncertainTuple>> {
    let mut order: Vec<usize> = (0..tuples.len()).collect();
    let mut rng = Rng::derive(seed, 0x5175);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut sites = vec![Vec::new(); SITES];
    for (k, &i) in order.iter().enumerate() {
        let site = k % SITES;
        let t = &tuples[i];
        let id = TupleId::new(site as u32, sites[site].len() as u64);
        sites[site]
            .push(UncertainTuple::new(id, t.values().to_vec(), t.prob()).expect("valid tuple"));
    }
    sites
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

fn mask_of(q: &Query, dims: usize) -> Result<SubspaceMask, String> {
    SubspaceMask::from_dims(&q.mask_dims(dims)).map_err(|e| e.to_string())
}

/// Replays `queries` (each with the answer the daemon gave) over `tuples`.
pub fn replay(
    dims: usize,
    tuples: &[UncertainTuple],
    queries: &[(Query, Vec<Entry>)],
    seed: u64,
) -> Result<Replay, String> {
    let parts = partition(tuples, seed);
    let nq = queries.len().max(1) as f64;
    let mut r = Replay::default();

    let mut trees = Vec::with_capacity(SITES);
    for part in &parts {
        let rows = part.clone();
        let t = Instant::now();
        trees.push(PrTree::bulk_load(dims, rows).map_err(|e| e.to_string())?);
        r.bulk_load_ms += ms(t);
    }
    let mut sites = Vec::with_capacity(SITES);
    for (i, part) in parts.iter().enumerate() {
        let rows = part.clone();
        let t = Instant::now();
        sites.push(
            LocalSite::new(i as u32, dims, rows, SiteOptions::default())
                .map_err(|e| e.to_string())?,
        );
        r.site_build_ms += ms(t);
    }
    let batches: Vec<Batch> = parts.iter().map(|p| Batch::from_tuples(dims, p.iter())).collect();

    let mut scratch = MultiProbeScratch::default();
    let mut out = Vec::new();
    let (mut pairs, mut pair_ns) = (0.0, 0.0);
    let mut sink = 0.0;
    for (query, answer) in queries {
        let mask = mask_of(query, dims)?;
        for site in &mut sites {
            let t = Instant::now();
            let reply = site.handle(Message::Start { q: query.q, mask });
            r.start_ms_per_query += ms(t);
            drop(reply);
        }
        for tree in &trees {
            let t = Instant::now();
            let sky = bbs::local_skyline(tree, query.q, mask).map_err(|e| e.to_string())?;
            r.bbs_ms_per_query += ms(t);
            r.local_skyline_per_query += sky.len() as f64;
        }
        let probes: Vec<&[f64]> = answer.iter().map(|e| e.values.as_slice()).collect();
        for tree in &trees {
            let t = Instant::now();
            tree.survival_products(&probes, mask, &mut scratch, &mut out);
            r.multiprobe_ms_per_query += ms(t);
            sink += out.iter().sum::<f64>();
        }
        let t = Instant::now();
        for batch in &batches {
            for p in &probes {
                sink += batch.survival_product(p, mask);
            }
        }
        pair_ns += t.elapsed().as_nanos() as f64;
        pairs += (probes.len() * tuples.len()) as f64;
    }
    std::hint::black_box(sink);
    r.start_ms_per_query /= nq;
    r.bbs_ms_per_query /= nq;
    r.local_skyline_per_query /= nq;
    r.multiprobe_ms_per_query /= nq;
    r.ns_per_pair = if pairs > 0.0 { pair_ns / pairs } else { 0.0 };

    let frames = tcp_calls(dims, &parts, queries, &mut r)?;
    r.codec_ns_per_byte = codec(&frames)?;
    Ok(r)
}

/// Serves the first [`TCP_SITES`] sites over loopback TCP, times
/// `RequestNext` calls after each query's `Start`, and returns every reply
/// frame the sites emitted, encoded.
fn tcp_calls(
    dims: usize,
    parts: &[Vec<UncertainTuple>],
    queries: &[(Query, Vec<Entry>)],
    r: &mut Replay,
) -> Result<Vec<Vec<u8>>, String> {
    let io = |e: std::io::Error| e.to_string();
    let mut servers = Vec::new();
    let mut links = Vec::new();
    for (i, part) in parts.iter().take(TCP_SITES).enumerate() {
        let site = LocalSite::new(i as u32, dims, part.clone(), SiteOptions::default())
            .map_err(|e| e.to_string())?;
        let server = spawn_site(site).map_err(io)?;
        links.push(TcpLink::connect(server.addr(), BandwidthMeter::new()).map_err(io)?);
        servers.push(server);
    }
    let mut calls_us = Vec::new();
    let mut frames = Vec::new();
    let mut buf = BytesMut::new();
    let mut keep = |m: &Message, frames: &mut Vec<Vec<u8>>| {
        m.encode_into(&mut buf);
        frames.push(buf.to_vec());
    };
    for (query, _) in queries {
        let mask = mask_of(query, dims)?;
        for link in &mut links {
            let reply =
                link.call(Message::Start { q: query.q, mask }).map_err(|e| format!("{e:?}"))?;
            keep(&reply, &mut frames);
            for _ in 0..TCP_CALLS {
                let t = Instant::now();
                let reply = link.call(Message::RequestNext).map_err(|e| format!("{e:?}"))?;
                calls_us.push(t.elapsed().as_secs_f64() * 1e6);
                let exhausted = matches!(reply, Message::Upload(None));
                keep(&reply, &mut frames);
                if exhausted {
                    break;
                }
            }
        }
    }
    drop(links);
    for server in servers {
        server.shutdown().map_err(io)?;
    }
    r.tcp_call_us_p50 = stats::median(&calls_us).unwrap_or(0.0);
    Ok(frames)
}

/// Decodes and re-encodes `frames` until [`CODEC_BYTES`] have passed;
/// returns ns per byte.
fn codec(frames: &[Vec<u8>]) -> Result<f64, String> {
    let per_pass: usize = frames.iter().map(Vec::len).sum();
    if per_pass == 0 {
        return Ok(0.0);
    }
    let passes = CODEC_BYTES.div_ceil(per_pass);
    let mut buf = BytesMut::new();
    let t = Instant::now();
    for _ in 0..passes {
        for f in frames {
            let msg = Message::decode_slice(f).ok_or("a site reply frame did not decode")?;
            msg.encode_into(&mut buf);
            std::hint::black_box(&buf);
        }
    }
    Ok(t.elapsed().as_nanos() as f64 / (passes * per_pass) as f64)
}
