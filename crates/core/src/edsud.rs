//! The enhanced e-DSUD algorithm (paper Sections 5.2–5.3).
//!
//! DSUD ranks candidates by *local* skyline probability, which is usually a
//! very loose stand-in for the global one: it broadcasts many tuples that
//! were never going to qualify. e-DSUD instead maintains, for every queued
//! candidate `s`, an upper bound `P*_gsky(s)` on its global skyline
//! probability assembled from free information already at the server:
//!
//! * for every *broadcast* tuple `t` from another site that dominates `s`,
//!   the factor `(1 − P(t))` (these are confirmed dominators of `s`);
//! * for every *in-queue* representative `t'` of another site `x` that
//!   dominates `s`, the Observation-2 factor
//!   `P_sky(t', D_x)/P(t') × (1 − P(t'))` — the dominators of `t'` in
//!   `D_x` transitively dominate `s`, and so does `t'` itself.
//!
//! Per site the tighter of the two applicable factors is used (both are
//! valid upper bounds on `s`'s survival in that site, and they may overlap,
//! so they must not be multiplied together). This reproduces the paper's
//! worked example exactly: `P*((6.4,7.5)) = 0.8 × (0.65/0.7) × 0.3 ≈ 0.22`
//! while `(6,6)` is queued (Table 2b) and `0.8 × 0.3 = 0.24` after it has
//! been broadcast (Table 2f).
//!
//! Candidates whose bound already fails `q` are *expunged* without any
//! broadcast — the entire bandwidth saving of e-DSUD over DSUD — and their
//! home site immediately supplies its next representative.

use std::time::Instant;

use dsud_net::{BandwidthMeter, Fanout, Link, Message, TupleMsg};
use dsud_obs::Counter;
use dsud_uncertain::{dominates_in, SkylineEntry, SubspaceMask};

use crate::batch::BatchRound;
use crate::degrade::FailureTracker;
use crate::pipeline::InflightRefill;
use crate::synopsis::SynopsisBound;
use crate::{
    planner, BatchSize, BoundMode, Error, FailurePolicy, PipelineDepth, PlanMode, ProgressLog,
    QueryOutcome, RunStats, SiteOrder, WireFormat,
};

/// The factor of `site` in `factors`, a `(site, factor)` list sorted by
/// site id, inserted as `1.0` if absent. A sorted list rather than a hash
/// map: the bound's product then folds in ascending site order, one fixed
/// float order.
fn site_factor(factors: &mut Vec<(u32, f64)>, site: u32) -> &mut f64 {
    let i = match factors.binary_search_by_key(&site, |&(s, _)| s) {
        Ok(i) => i,
        Err(i) => {
            factors.insert(i, (site, 1.0));
            i
        }
    };
    &mut factors[i].1
}

/// A queued candidate and the per-site factors its bound is made of. Each
/// list is sorted by site id, so [`Member::bound`] merges them in ascending
/// site order: one fixed float fold.
#[derive(Debug)]
struct Member {
    msg: TupleMsg,
    /// For each other site: `∏ (1 − P(t))` over the broadcast tuples `t`
    /// from that site that dominate this member, as `(site, factor)`.
    broadcast_discount: Vec<(u32, f64)>,
    /// For each other site whose queued representative `t'` dominates this
    /// member: `(site, 1 − P(t'), P_sky(t', D_x)/P(t') × (1 − P(t')))`.
    /// Always empty under [`BoundMode::BroadcastOnly`].
    queue_dominators: Vec<(u32, f64, f64)>,
    /// For each other site with a synopsis: its bound on this member's
    /// survival there, as `(site, bound)`. Fixed once the member is queued.
    synopsis: Vec<(u32, f64)>,
}

impl Member {
    fn site(&self) -> u32 {
        self.msg.id.site.0
    }

    /// Accounts for a broadcast tuple: if it is a foreign dominator, its
    /// non-occurrence probability discounts this member forever.
    fn absorb_broadcast(&mut self, t: &TupleMsg, mask: SubspaceMask) {
        if t.id.site.0 != self.site() && dominates_in(&t.values, &self.msg.values, mask) {
            *site_factor(&mut self.broadcast_discount, t.id.site.0) *= 1.0 - t.prob;
        }
    }

    /// Records `t`, the queued representative of another site, as a
    /// dominator of this member.
    fn add_queue_dominator(&mut self, t: &TupleMsg) {
        let simple = 1.0 - t.prob;
        let obs2 = (t.local_prob / t.prob) * simple;
        let site = t.id.site.0;
        let at = self.queue_dominators.partition_point(|&(s, _, _)| s < site);
        self.queue_dominators.insert(at, (site, simple, obs2));
    }

    /// The upper bound `P*_gsky` (Corollary 2) of this member: per site,
    /// the broadcast discount `f`, then `min(f × (1 − P(t')), obs2)` for an
    /// in-queue dominator `t'`, then the `min` with the synopsis bound —
    /// valid bounds that may overlap, so they are min-combined, never
    /// multiplied. The per-site factors multiply in ascending site order.
    fn bound(&self) -> f64 {
        let (broadcast, queued, synopsis) =
            (&self.broadcast_discount, &self.queue_dominators, &self.synopsis);
        let (mut i, mut j, mut k) = (0, 0, 0);
        let mut product = 1.0;
        loop {
            let next = [
                broadcast.get(i).map(|e| e.0),
                queued.get(j).map(|e| e.0),
                synopsis.get(k).map(|e| e.0),
            ];
            let Some(site) = next.into_iter().flatten().min() else { break };
            let mut factor = 1.0;
            if next[0] == Some(site) {
                factor = broadcast[i].1;
                i += 1;
            }
            if next[1] == Some(site) {
                let (_, simple, obs2) = queued[j];
                factor = (factor * simple).min(obs2);
                j += 1;
            }
            if next[2] == Some(site) {
                factor = factor.min(synopsis[k].1);
                k += 1;
            }
            product *= factor;
        }
        self.msg.local_prob * product
    }
}

/// The e-DSUD candidate queue `L` with every member's bound kept current
/// as candidates arrive, leave and are broadcast, instead of re-walking the
/// queue at each selection.
///
/// The queue holds at most one representative per site: the sites start
/// with one upload each, and a site is asked for its next candidate only
/// after its representative left. So a member has at most one in-queue
/// dominator per site, and the per-site fold over the queue reduces to
/// that one stored factor. [`Queue::push`] asserts the invariant.
///
/// Costs: an arrival takes at most `2·m` dominance tests against the queue
/// plus one per broadcast tuple; a departure one binary search per member;
/// a broadcast one dominance test per member; and [`Queue::bounds`] a merge
/// of short sorted lists per member, with no dominance test at all.
#[derive(Debug)]
struct Queue {
    members: Vec<Member>,
    /// Every broadcast tuple so far, in broadcast order.
    history: Vec<TupleMsg>,
    mask: SubspaceMask,
    mode: BoundMode,
    /// Per-site synopses, sorted by site id.
    synopses: Vec<(u32, SynopsisBound)>,
}

impl Queue {
    /// An empty queue; `synopses` must be sorted by site id.
    fn new(mask: SubspaceMask, mode: BoundMode, synopses: Vec<(u32, SynopsisBound)>) -> Self {
        debug_assert!(synopses.windows(2).all(|w| w[0].0 < w[1].0), "synopses sorted by site");
        Queue { members: Vec::new(), history: Vec::new(), mask, mode, synopses }
    }

    fn len(&self) -> usize {
        self.members.len()
    }

    fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The candidate at `idx`.
    fn msg(&self, idx: usize) -> &TupleMsg {
        &self.members[idx].msg
    }

    /// Queues a site's new representative.
    ///
    /// # Panics
    ///
    /// Panics if the queue already holds a candidate from the same site.
    fn push(&mut self, msg: TupleMsg) {
        let mask = self.mask;
        let site = msg.id.site.0;
        let synopsis = self
            .synopses
            .iter()
            .filter(|&&(s, _)| s != site)
            .map(|(s, syn)| (*s, syn.survival_bound(&msg.values, mask)))
            .collect();
        let mut member =
            Member { msg, broadcast_discount: Vec::new(), queue_dominators: Vec::new(), synopsis };
        for t in &self.history {
            member.absorb_broadcast(t, mask);
        }
        for other in &mut self.members {
            assert_ne!(other.site(), site, "the queue holds one representative per site");
            if self.mode == BoundMode::Paper {
                if dominates_in(&member.msg.values, &other.msg.values, mask) {
                    other.add_queue_dominator(&member.msg);
                } else if dominates_in(&other.msg.values, &member.msg.values, mask) {
                    member.add_queue_dominator(&other.msg);
                }
            }
        }
        self.members.push(member);
    }

    /// Removes the candidate at `idx` (the last member takes its place) and
    /// drops it from every other member's in-queue dominators.
    fn swap_remove(&mut self, idx: usize) -> TupleMsg {
        let gone = self.members.swap_remove(idx);
        let site = gone.site();
        for m in &mut self.members {
            if let Ok(at) = m.queue_dominators.binary_search_by_key(&site, |&(s, _, _)| s) {
                m.queue_dominators.remove(at);
            }
        }
        gone.msg
    }

    /// Records a broadcast tuple: it discounts every member it dominates,
    /// and every later arrival.
    fn absorb_broadcast(&mut self, t: TupleMsg) {
        for m in &mut self.members {
            m.absorb_broadcast(&t, self.mask);
        }
        self.history.push(t);
    }

    /// The current bound of every member, in queue order. Debug builds
    /// check each against [`Queue::reference_bound`] bit for bit.
    fn bounds(&self) -> Vec<f64> {
        let bounds: Vec<f64> = self.members.iter().map(Member::bound).collect();
        #[cfg(debug_assertions)]
        for (idx, b) in bounds.iter().enumerate() {
            let reference = self.reference_bound(idx);
            assert_eq!(b.to_bits(), reference.to_bits(), "bound {b} vs from-scratch {reference}");
        }
        bounds
    }

    /// The bound of the member at `idx` computed from scratch: the
    /// broadcast history, then a walk over the whole queue, then the
    /// synopses, with per-site factors multiplied in ascending site order.
    #[cfg(any(test, debug_assertions))]
    fn reference_bound(&self, idx: usize) -> f64 {
        let me = &self.members[idx].msg;
        let site = me.id.site.0;
        let mut per_site = Vec::new();
        for t in &self.history {
            if t.id.site.0 != site && dominates_in(&t.values, &me.values, self.mask) {
                *site_factor(&mut per_site, t.id.site.0) *= 1.0 - t.prob;
            }
        }
        if self.mode == BoundMode::Paper {
            for other in &self.members {
                let other = &other.msg;
                if other.id.site.0 == site || !dominates_in(&other.values, &me.values, self.mask) {
                    continue;
                }
                let simple = 1.0 - other.prob;
                let factor = site_factor(&mut per_site, other.id.site.0);
                let obs2 = (other.local_prob / other.prob) * simple;
                *factor = (*factor * simple).min(obs2);
            }
        }
        for (s, syn) in &self.synopses {
            if *s != site {
                let factor = site_factor(&mut per_site, *s);
                *factor = factor.min(syn.survival_bound(&me.values, self.mask));
            }
        }
        me.local_prob * per_site.iter().map(|&(_, f)| f).product::<f64>()
    }
}

/// Runs e-DSUD over the given site links under the strict failure policy.
///
/// # Errors
///
/// Returns [`Error::InvalidThreshold`], [`Error::ProtocolViolation`], or
/// [`Error::SiteFailed`].
pub fn run(
    links: &mut [Box<dyn Link>],
    meter: &BandwidthMeter,
    q: f64,
    mask: SubspaceMask,
    mode: BoundMode,
    limit: Option<usize>,
) -> Result<QueryOutcome, Error> {
    run_with_synopses(
        links,
        meter,
        q,
        mask,
        mode,
        limit,
        None,
        FailurePolicy::Strict,
        BatchSize::default(),
        PipelineDepth::default(),
        WireFormat::default(),
        None,
    )
}

/// [`run`] with optional per-site grid synopses of the given resolution
/// (requested, and charged, at query start) folded into the candidate
/// bounds — the Section 5.2 synopsis trade-off made measurable — and an
/// explicit site-failure policy. Under [`FailurePolicy::Degrade`] a site
/// whose transport stays broken after retries is quarantined and the query
/// completes over the survivors with [`QueryOutcome::degraded`] set (see
/// [`crate::degrade`] for the upper-bound caveat).
///
/// With an overlapped [`PipelineDepth`] the expunge sweep puts every
/// doomed candidate's refill on the wire in one group before redeeming any
/// ticket — the sites extract their replacements in parallel — and the
/// selection round's refill overlaps the survival scatter, as in
/// [`crate::dsud::run_with_policy`]. Completions fold in send order, so
/// healthy runs stay bit-identical to `PipelineDepth::Fixed(1)` (see the
/// crate-private `pipeline` module).
///
/// # Errors
///
/// Same as [`run`]; [`Error::SiteFailed`] only under
/// [`FailurePolicy::Strict`].
#[allow(clippy::too_many_arguments)]
pub fn run_with_synopses(
    links: &mut [Box<dyn Link>],
    meter: &BandwidthMeter,
    q: f64,
    mask: SubspaceMask,
    mode: BoundMode,
    limit: Option<usize>,
    synopsis_resolution: Option<u16>,
    policy: FailurePolicy,
    batch: BatchSize,
    pipeline: PipelineDepth,
    wire: WireFormat,
    deadline_ms: Option<u64>,
) -> Result<QueryOutcome, Error> {
    let mut fan = Fanout::flat(links);
    run_on(
        &mut fan,
        meter,
        q,
        mask,
        mode,
        limit,
        synopsis_resolution,
        policy,
        batch,
        pipeline,
        wire,
        deadline_ms,
        PlanMode::Static,
    )
}

/// [`run_with_synopses`] over an arbitrary [`Fanout`] — the actual
/// coordinator. As in [`crate::dsud`], a flat fan-out reproduces the
/// pre-topology per-link traffic byte for byte, and a tree fan-out routes
/// the same per-site sequences through aggregator links with replies in
/// the same ascending site order, so the answer is bit-identical.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_on(
    fan: &mut Fanout<'_>,
    meter: &BandwidthMeter,
    q: f64,
    mask: SubspaceMask,
    mode: BoundMode,
    limit: Option<usize>,
    synopsis_resolution: Option<u16>,
    policy: FailurePolicy,
    batch: BatchSize,
    pipeline: PipelineDepth,
    wire: WireFormat,
    deadline_ms: Option<u64>,
    plan: PlanMode,
) -> Result<QueryOutcome, Error> {
    if !(q > 0.0 && q <= 1.0) {
        return Err(Error::InvalidThreshold(q));
    }
    let start_traffic = meter.snapshot();
    let started = Instant::now();
    let deadline = deadline_ms.map(std::time::Duration::from_millis);
    let mut cancelled = false;
    let rec = meter.recorder().clone();
    let query_span = rec.span("query:edsud");
    let overlap = pipeline.overlapped();
    rec.add(Counter::PipelineDepth, pipeline.window() as u64);
    let order = SiteOrder::new(fan.len());
    let mut tracker = FailureTracker::new(order.len(), policy, rec.clone());
    let mut stats = RunStats::default();
    let mut progress = ProgressLog::new();
    let mut skyline: Vec<SkylineEntry> = Vec::new();

    let mut uploads: Vec<TupleMsg> = Vec::with_capacity(order.len());
    {
        let _span = rec.span("to-server:start");
        for (x, reply) in order.verify(fan.broadcast(|_| true, &Message::Start { q, mask })) {
            if let Some(t) = tracker.upload(x, reply)? {
                uploads.push(t);
            }
        }
    }

    // Optional synopsis phase: every site ships its grid, paid for in
    // tuple-equivalents on the meter. The list is sorted by site id, as
    // `order.verify` passes replies in ascending site order.
    let mut synopses: Vec<(u32, SynopsisBound)> = Vec::new();
    if let Some(resolution) = synopsis_resolution {
        let _span = rec.span("synopsis");
        let active = |x: usize| tracker.is_active(x);
        for (x, reply) in
            order.verify(fan.broadcast(active, &Message::SynopsisRequest { resolution }))
        {
            match reply {
                Ok(Message::Synopsis(syn)) => {
                    synopses.push((x as u32, SynopsisBound::new(syn)));
                }
                // A site that cannot ship a synopsis is still a valid query
                // participant: synopses only tighten bounds, never gate
                // correctness. Transport failures still count against it.
                Ok(_) => {}
                Err(e) => tracker.transport_failure(x, e)?,
            }
        }
    }

    // The start uploads are queued once the synopses, which their bounds
    // use, are known.
    let mut queue = Queue::new(mask, mode, synopses);
    for t in uploads {
        queue.push(t);
    }

    // Plan phase: size `--batch auto` rounds (selection draws and expunge
    // sweeps alike) from the sites' sketched probability distributions.
    // Pure scheduling — see `crate::planner`.
    let plan_summary = plan.sketch().then(|| planner::plan(fan, q, &rec));
    let batch = planner::apply(batch, plan_summary.as_ref());

    'rounds: loop {
        // Deadline checks sit on round boundaries only, so a cancelled run
        // never leaves a frame in flight (see `dsud::run_with_policy`).
        if deadline.is_some_and(|d| started.elapsed() >= d) {
            cancelled = true;
            rec.incr(Counter::Cancelled);
            break 'rounds;
        }
        let round_span = rec.span("round");
        rec.incr(Counter::Rounds);
        let budget = batch.budget(queue.len());
        let mut round_overlapped = false;

        if budget > 1 {
            // Batched round: interleave expunge, selection, and refill
            // exactly as the one-candidate protocol below, flushing each
            // site's pending feedback immediately before any refill
            // request to it (see `crate::batch` for why that keeps the
            // run bit-identical). The broadcasts themselves are deferred
            // into one coalesced frame per site.
            let mut round = BatchRound::new(order.len(), budget, wire);
            let mut finished = false;
            // One expunge span per round, opened lazily at the first
            // expunge and spanning the interleaved draws — a span per draw
            // churned the recorder on large queues for no analytic gain.
            let mut expunge_span = None;
            while round.len() < budget && !finished {
                {
                    if expunge_span.is_none() {
                        expunge_span = Some(rec.span("expunge"));
                    }
                    loop {
                        let bounds = queue.bounds();
                        let mut replaced_any = false;
                        if overlap {
                            // Pipelined sweep, as in the unbatched path
                            // below, plus each doomed candidate's pending
                            // feedback flush riding the same link just
                            // ahead of its refill.
                            let jobs: Vec<usize> =
                                (0..queue.len()).rev().filter(|&idx| bounds[idx] < q).collect();
                            let sends: Vec<_> = jobs
                                .iter()
                                .map(|&idx| {
                                    let home = queue.msg(idx).id.site.0 as usize;
                                    let fed = round.deliver_send(fan, home, &tracker);
                                    let refill = tracker
                                        .is_active(home)
                                        .then(|| InflightRefill::send(fan, home));
                                    (home, fed, refill)
                                })
                                .collect();
                            let in_flight = sends.iter().filter(|(_, _, r)| r.is_some()).count();
                            if in_flight > 1 && !round_overlapped {
                                round_overlapped = true;
                                rec.incr(Counter::OverlappedRounds);
                            }
                            let overlap_span = (in_flight > 0).then(|| rec.span("overlap"));
                            // Drain every ticket before interpreting any
                            // reply, so an error path leaves no
                            // outstanding frames.
                            let completions: Vec<_> = sends
                                .into_iter()
                                .map(|(home, fed, refill)| {
                                    let fed_reply = fed.map(|(t, idxs)| {
                                        (t.and_then(|t| fan.complete(home, t)), idxs)
                                    });
                                    let refill_reply = refill.map(|slot| slot.complete(fan, &rec));
                                    (home, fed_reply, refill_reply)
                                })
                                .collect();
                            drop(overlap_span);
                            for (&idx, (home, fed_reply, refill_reply)) in
                                jobs.iter().zip(completions)
                            {
                                queue.swap_remove(idx);
                                stats.expunged += 1;
                                stats.iterations += 1;
                                rec.incr(Counter::Expunged);
                                if let Some((reply, idxs)) = fed_reply {
                                    round.absorb_reply(
                                        home,
                                        &idxs,
                                        reply,
                                        &mut tracker,
                                        &mut stats,
                                        &rec,
                                    )?;
                                }
                                if let Some(reply) = refill_reply {
                                    if tracker.is_active(home) {
                                        if let Some(next) = tracker.upload(home, reply)? {
                                            queue.push(next);
                                            replaced_any = true;
                                        }
                                    }
                                }
                            }
                        } else {
                            for idx in (0..queue.len()).rev() {
                                if bounds[idx] < q {
                                    let gone = queue.swap_remove(idx);
                                    stats.expunged += 1;
                                    stats.iterations += 1;
                                    rec.incr(Counter::Expunged);
                                    let home = gone.id.site.0 as usize;
                                    round.deliver(fan, home, &mut tracker, &mut stats, &rec)?;
                                    if !tracker.is_active(home) {
                                        continue;
                                    }
                                    let reply = fan.call(home, Message::RequestNext);
                                    if let Some(next) = tracker.upload(home, reply)? {
                                        queue.push(next);
                                        replaced_any = true;
                                    }
                                }
                            }
                        }
                        if !replaced_any {
                            break;
                        }
                    }
                }

                let bounds = queue.bounds();
                let Some(head_idx) = argmax(&bounds, &queue) else {
                    finished = true;
                    break;
                };
                if bounds[head_idx] < q {
                    // Defensive, mirroring the one-candidate round below.
                    continue;
                }
                let cand = queue.swap_remove(head_idx);
                stats.iterations += 1;
                stats.broadcasts += 1;
                rec.incr(Counter::FeedbackBroadcasts);
                let home = cand.id.site.0 as usize;

                // The drawn tuple discounts everything it dominates right
                // away — only its wire transmission is deferred.
                queue.absorb_broadcast(cand.clone());
                round.push(cand);

                {
                    let _span = rec.span("to-server");
                    if overlap {
                        // Pipelined draw: flush and refill ride `home`'s
                        // link back to back; one coordinator wait serves
                        // both (see the DSUD batched draw).
                        let fed = round.deliver_send(fan, home, &tracker);
                        let refill =
                            tracker.is_active(home).then(|| InflightRefill::send(fan, home));
                        if fed.is_some() && refill.is_some() && !round_overlapped {
                            round_overlapped = true;
                            rec.incr(Counter::OverlappedRounds);
                        }
                        let fed_reply =
                            fed.map(|(t, idxs)| (t.and_then(|t| fan.complete(home, t)), idxs));
                        let refill_reply = refill.map(|slot| slot.complete(fan, &rec));
                        if let Some((reply, idxs)) = fed_reply {
                            round.absorb_reply(
                                home,
                                &idxs,
                                reply,
                                &mut tracker,
                                &mut stats,
                                &rec,
                            )?;
                        }
                        if let Some(reply) = refill_reply {
                            if tracker.is_active(home) {
                                if let Some(next) = tracker.upload(home, reply)? {
                                    queue.push(next);
                                }
                            }
                        }
                    } else {
                        round.deliver(fan, home, &mut tracker, &mut stats, &rec)?;
                        if tracker.is_active(home) {
                            let reply = fan.call(home, Message::RequestNext);
                            if let Some(next) = tracker.upload(home, reply)? {
                                queue.push(next);
                            }
                        }
                    }
                }
                if queue.is_empty() {
                    finished = true;
                }
            }
            drop(expunge_span);

            if round.len() > 1 {
                rec.incr(Counter::BatchedRounds);
            }
            {
                let _span = rec.span("server-delivery");
                round.deliver_all(fan, &mut tracker, &mut stats, &rec)?;
            }
            for j in 0..round.len() {
                let global = round.global_probability(j);
                if global >= q {
                    let t = round.candidate(j);
                    skyline.push(SkylineEntry { tuple: t.to_tuple(), probability: global });
                    let transmitted = meter.snapshot().since(&start_traffic).tuples_transmitted();
                    rec.progressive(t.id.site.0, t.id.seq, global, transmitted);
                    progress.push(t.id, global, transmitted, started.elapsed());
                    if limit.is_some_and(|k| skyline.len() >= k) {
                        drop(round_span);
                        break 'rounds;
                    }
                }
            }
            if finished || round.is_empty() {
                break;
            }
            continue;
        }

        // Expunge phase: drop every candidate whose bound fails q, pulling
        // replacements until the picture stabilizes.
        {
            let _span = rec.span("expunge");
            loop {
                let bounds = queue.bounds();
                let mut replaced_any = false;
                if overlap {
                    // Pipelined sweep: the job set is precomputable — the
                    // sequential loop walks indices downwards and its
                    // swap_removes and pushes never disturb a position
                    // below the one currently processed — so every doomed
                    // candidate's refill goes on the wire in one group and
                    // the sites extract replacements in parallel. The
                    // replay below then evolves the queue exactly as the
                    // sequential loop would, folding replies in send
                    // order. (At most one job per site: the queue holds
                    // one representative per site.)
                    let jobs: Vec<usize> =
                        (0..queue.len()).rev().filter(|&idx| bounds[idx] < q).collect();
                    let slots: Vec<Option<InflightRefill>> = jobs
                        .iter()
                        .map(|&idx| {
                            let home = queue.msg(idx).id.site.0 as usize;
                            tracker.is_active(home).then(|| InflightRefill::send(fan, home))
                        })
                        .collect();
                    let in_flight = slots.iter().flatten().count();
                    if in_flight > 1 && !round_overlapped {
                        round_overlapped = true;
                        rec.incr(Counter::OverlappedRounds);
                    }
                    let overlap_span = (in_flight > 0).then(|| rec.span("overlap"));
                    // Drain every ticket before interpreting any reply, so
                    // an error path leaves no outstanding frames.
                    let replies: Vec<Option<Result<Message, dsud_net::LinkError>>> =
                        slots.into_iter().map(|slot| slot.map(|s| s.complete(fan, &rec))).collect();
                    drop(overlap_span);
                    for (&idx, reply) in jobs.iter().zip(replies) {
                        let gone = queue.swap_remove(idx);
                        stats.expunged += 1;
                        stats.iterations += 1;
                        rec.incr(Counter::Expunged);
                        let home = gone.id.site.0 as usize;
                        if let Some(reply) = reply {
                            if let Some(next) = tracker.upload(home, reply)? {
                                queue.push(next);
                                replaced_any = true;
                            }
                        }
                    }
                } else {
                    for idx in (0..queue.len()).rev() {
                        if bounds[idx] < q {
                            let gone = queue.swap_remove(idx);
                            stats.expunged += 1;
                            stats.iterations += 1;
                            rec.incr(Counter::Expunged);
                            let home = gone.id.site.0 as usize;
                            if !tracker.is_active(home) {
                                continue;
                            }
                            let reply = fan.call(home, Message::RequestNext);
                            if let Some(next) = tracker.upload(home, reply)? {
                                queue.push(next);
                                replaced_any = true;
                            }
                        }
                    }
                }
                if !replaced_any {
                    // No new arrivals; surviving bounds can only have grown
                    // (fewer in-queue dominators), so one more pass below
                    // suffices for selection.
                    break;
                }
            }
        }

        // Selection: broadcast the candidate with the largest bound.
        let bounds = queue.bounds();
        let Some(head_idx) = argmax(&bounds, &queue) else { break };
        if bounds[head_idx] < q {
            // Unreachable: the expunge loop above ends on a pass that
            // removed every candidate whose bound was below q and queued
            // no replacement, and removals only raise the bounds of the
            // rest (a leaver takes its in-queue factor with it).
            // Defensive continue.
            continue;
        }
        let cand = queue.swap_remove(head_idx);
        stats.iterations += 1;
        stats.broadcasts += 1;
        rec.incr(Counter::FeedbackBroadcasts);
        let home = cand.id.site.0 as usize;

        // Pipelined refill: on the wire before the survival scatter (which
        // excludes `home`), completed after the fold — see the DSUD
        // coordinator for the schedule and the `limit` guard.
        let may_finish = limit.is_some_and(|k| skyline.len() + 1 >= k);
        let refill = (overlap && !may_finish && tracker.is_active(home)).then(|| {
            if !round_overlapped {
                round_overlapped = true;
                rec.incr(Counter::OverlappedRounds);
            }
            (InflightRefill::send(fan, home), rec.span("overlap"))
        });

        // Concurrent fan-out: every other site computes its survival
        // product in parallel on concurrent transports.
        let mut global = cand.local_prob;
        {
            let _span = rec.span("server-delivery");
            // Quarantined sites are skipped: their survival factors are
            // lost, making a degraded answer an upper bound.
            let active = |x: usize| x != home && tracker.is_active(x);
            for (x, reply) in order.verify(fan.broadcast(active, &Message::Feedback(cand.clone())))
            {
                if let Some((survival, pruned)) = tracker.survival(x, reply)? {
                    global *= survival;
                    stats.pruned_at_sites += pruned;
                    rec.add(Counter::PrunedAtSites, pruned);
                }
            }
        }

        if global >= q {
            skyline.push(SkylineEntry { tuple: cand.to_tuple(), probability: global });
            let transmitted = meter.snapshot().since(&start_traffic).tuples_transmitted();
            rec.progressive(cand.id.site.0, cand.id.seq, global, transmitted);
            progress.push(cand.id, global, transmitted, started.elapsed());
            if limit.is_some_and(|k| skyline.len() >= k) {
                drop(round_span);
                break;
            }
        }

        // The broadcast tuple permanently discounts everything it
        // dominates, in the queue and in all future arrivals.
        queue.absorb_broadcast(cand);

        {
            let _span = rec.span("to-server");
            if let Some((slot, overlap_span)) = refill {
                let reply = slot.complete(fan, &rec);
                drop(overlap_span);
                // A mid-scatter quarantine means the sequential schedule
                // would have skipped this refill: discard the reply.
                if tracker.is_active(home) {
                    if let Some(next) = tracker.upload(home, reply)? {
                        queue.push(next);
                    }
                }
            } else if tracker.is_active(home) {
                let reply = fan.call(home, Message::RequestNext);
                if let Some(next) = tracker.upload(home, reply)? {
                    queue.push(next);
                }
            }
        }

        if queue.is_empty() {
            break;
        }
    }
    drop(query_span);

    Ok(QueryOutcome {
        skyline,
        progress,
        traffic: meter.snapshot().since(&start_traffic),
        stats,
        degraded: tracker.degraded(),
        cancelled,
        sites: tracker.statuses(),
        plan: plan_summary,
    })
}

/// Index of the largest bound, ties broken by tuple id for determinism.
fn argmax(bounds: &[f64], queue: &Queue) -> Option<usize> {
    (0..bounds.len()).max_by(|&a, &b| {
        bounds[a]
            .partial_cmp(&bounds[b])
            .expect("bounds are finite")
            .then_with(|| queue.msg(b).id.cmp(&queue.msg(a).id))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synopsis::build_synopsis;
    use dsud_uncertain::{Probability, TupleId, UncertainTuple};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn msg(site: u32, values: Vec<f64>, prob: f64, local_prob: f64) -> TupleMsg {
        TupleMsg { id: TupleId::new(site, 0), values, prob, local_prob }
    }

    fn full2() -> SubspaceMask {
        SubspaceMask::full(2).unwrap()
    }

    /// A queue over `members` after `history` was broadcast.
    fn queue_of(mode: BoundMode, history: &[TupleMsg], members: Vec<TupleMsg>) -> Queue {
        let mut queue = Queue::new(full2(), mode, Vec::new());
        for t in history {
            queue.absorb_broadcast(t.clone());
        }
        for t in members {
            queue.push(t);
        }
        queue
    }

    /// The paper's Table 2(b) state: bounds must come out 0.65, 0.22, 0.18.
    #[test]
    fn bound_reproduces_paper_table2b() {
        let queue = queue_of(
            BoundMode::Paper,
            &[],
            vec![
                msg(0, vec![6.0, 6.0], 0.7, 0.65),
                msg(1, vec![6.5, 7.0], 0.8, 0.65),
                msg(2, vec![6.4, 7.5], 0.9, 0.8),
            ],
        );
        let b = queue.bounds();
        // (6,6) is undominated in L: bound = its local probability.
        assert!((b[0] - 0.65).abs() < 1e-12);
        // (6.5,7) dominated by (6,6): 0.65 × (0.65/0.7) × 0.3 ≈ 0.18.
        assert!((b[1] - 0.65 * (0.65 / 0.7) * 0.3).abs() < 1e-12);
        // (6.4,7.5) dominated by (6,6): 0.8 × (0.65/0.7) × 0.3 ≈ 0.22.
        assert!((b[2] - 0.8 * (0.65 / 0.7) * 0.3).abs() < 1e-12);
    }

    /// The paper's Table 2(f) state: after (6,6) was broadcast, the bound
    /// keeps only the (1 − P) discount: 0.8 × 0.3 = 0.24.
    #[test]
    fn bound_reproduces_paper_table2f() {
        // Reached through the queue as the protocol reaches it: (6,6) is
        // drawn from the Table 2(b) queue and broadcast.
        let mut queue = queue_of(
            BoundMode::Paper,
            &[],
            vec![
                msg(0, vec![6.0, 6.0], 0.7, 0.65),
                msg(1, vec![6.5, 7.0], 0.8, 0.65),
                msg(2, vec![6.4, 7.5], 0.9, 0.8),
            ],
        );
        let drawn = queue.swap_remove(0);
        queue.absorb_broadcast(drawn);
        // `swap_remove` moved (6.4,7.5) into slot 0.
        let b = queue.bounds();
        assert!((b[0] - 0.8 * 0.3).abs() < 1e-12, "got {}", b[0]);
        assert!((b[1] - 0.65 * 0.3).abs() < 1e-12, "got {}", b[1]);
    }

    #[test]
    fn broadcast_only_mode_ignores_queue_dominators() {
        let queue = queue_of(
            BoundMode::BroadcastOnly,
            &[],
            vec![msg(0, vec![6.0, 6.0], 0.7, 0.65), msg(2, vec![6.4, 7.5], 0.9, 0.8)],
        );
        assert!((queue.bounds()[1] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn own_site_tuples_never_discount() {
        // A dominator from the candidate's own site is already priced into
        // its local probability.
        let queue = queue_of(
            BoundMode::Paper,
            &[msg(1, vec![1.0, 1.0], 0.9, 0.9)],
            vec![msg(1, vec![2.0, 2.0], 0.9, 0.09)],
        );
        assert!((queue.bounds()[0] - 0.09).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one representative per site")]
    fn a_second_representative_of_a_site_is_rejected() {
        queue_of(
            BoundMode::Paper,
            &[],
            vec![msg(1, vec![1.0, 1.0], 0.9, 0.9), msg(1, vec![2.0, 2.0], 0.9, 0.09)],
        );
    }

    #[test]
    fn history_discounts_accumulate_per_site() {
        let history = vec![
            msg(0, vec![1.0, 1.0], 0.5, 0.5),
            msg(0, vec![2.0, 2.0], 0.5, 0.25),
            msg(1, vec![1.5, 1.5], 0.2, 0.2),
        ];
        let queue = queue_of(BoundMode::Paper, &history, vec![msg(2, vec![3.0, 3.0], 0.9, 0.8)]);
        // Site 0 contributes 0.5 × 0.5, site 1 contributes 0.8.
        assert!((queue.bounds()[0] - 0.8 * 0.25 * 0.8).abs() < 1e-12);
    }

    #[test]
    fn bound_folds_site_factors_in_ascending_site_order() {
        // Products of these factors take three different values across
        // permutations; the history lists the sites out of order.
        let factors = [(0, 0.1), (3, 0.3), (1, 0.7), (4, 0.9), (2, 0.13)];
        let history: Vec<TupleMsg> =
            factors.iter().map(|&(site, f)| msg(site, vec![1.0, 1.0], 1.0 - f, 0.5)).collect();
        let queue = queue_of(BoundMode::Paper, &history, vec![msg(9, vec![3.0, 3.0], 0.9, 0.8)]);
        let b = queue.bounds()[0];

        let fold = |order: &[(u32, f64)]| {
            0.8 * order.iter().map(|&(_, f)| 1.0 - (1.0 - f)).product::<f64>()
        };
        let mut ascending = factors;
        ascending.sort_by_key(|&(site, _)| site);
        assert_eq!(b.to_bits(), fold(&ascending).to_bits());
        assert_ne!(fold(&ascending).to_bits(), fold(&factors).to_bits(), "order must matter");
    }

    /// A random tuple of `site` with a local probability in `[0, P]`.
    fn random_msg(rng: &mut StdRng, site: u32, seq: u64, dims: usize) -> TupleMsg {
        // Few distinct coordinates, so ties and dominance both occur often.
        let values = (0..dims).map(|_| rng.gen_range(0u32..6) as f64).collect();
        let prob = rng.gen_range(0.05..=1.0);
        let local_prob = prob * rng.gen_range(0.0..=1.0);
        TupleMsg { id: TupleId::new(site, seq), values, prob, local_prob }
    }

    /// Grid synopses of random per-site data, or none.
    fn random_synopses(
        rng: &mut StdRng,
        sites: u32,
        dims: usize,
        with: bool,
    ) -> Vec<(u32, SynopsisBound)> {
        let mut synopses = Vec::new();
        if !with {
            return synopses;
        }
        for site in 0..sites {
            if rng.gen_range(0u32..4) == 0 {
                continue;
            }
            let tuples: Vec<UncertainTuple> = (0..rng.gen_range(1u64..12))
                .map(|seq| {
                    let t = random_msg(rng, site, seq, dims);
                    let p = Probability::new(t.prob).unwrap();
                    UncertainTuple::new(t.id, t.values, p).unwrap()
                })
                .collect();
            let syn = build_synopsis(&tuples, dims, rng.gen_range(2u16..6)).unwrap();
            synopses.push((site, SynopsisBound::new(syn)));
        }
        synopses
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Random arrivals, departures and broadcasts: every incrementally
        /// kept bound equals the from-scratch walk bit for bit.
        #[test]
        fn incremental_bounds_equal_from_scratch_walk(
            seed in any::<u64>(),
            dims in 1usize..=4,
            subspace in any::<bool>(),
            paper in any::<bool>(),
            with_synopses in any::<bool>(),
            sites in 1u32..=8,
            steps in 1usize..=60,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mask = if subspace && dims > 1 {
                let mut picked: Vec<usize> = (0..dims).filter(|_| rng.gen_range(0u32..2) == 1).collect();
                if picked.is_empty() {
                    picked.push(rng.gen_range(0..dims));
                }
                SubspaceMask::from_dims(&picked).unwrap()
            } else {
                SubspaceMask::full(dims).unwrap()
            };
            let mode = if paper { BoundMode::Paper } else { BoundMode::BroadcastOnly };
            let synopses = random_synopses(&mut rng, sites, dims, with_synopses);
            let mut queue = Queue::new(mask, mode, synopses);
            let mut seq = 0u64;
            for _ in 0..steps {
                let absent: Vec<u32> = (0..sites)
                    .filter(|&s| (0..queue.len()).all(|i| queue.msg(i).id.site.0 != s))
                    .collect();
                match rng.gen_range(0u32..3) {
                    0 if !absent.is_empty() => {
                        let site = absent[rng.gen_range(0..absent.len())];
                        seq += 1;
                        queue.push(random_msg(&mut rng, site, seq, dims));
                    }
                    1 if !queue.is_empty() => {
                        let idx = rng.gen_range(0..queue.len());
                        queue.swap_remove(idx);
                    }
                    _ => {
                        // A broadcast: usually a drawn member, sometimes a
                        // tuple of a site whose representative is queued.
                        let t = if !queue.is_empty() && rng.gen_range(0u32..3) != 0 {
                            let idx = rng.gen_range(0..queue.len());
                            queue.swap_remove(idx)
                        } else {
                            seq += 1;
                            let site = rng.gen_range(0..sites);
                            random_msg(&mut rng, site, seq, dims)
                        };
                        queue.absorb_broadcast(t);
                    }
                }
                let bounds: Vec<f64> = queue.members.iter().map(Member::bound).collect();
                for (idx, b) in bounds.iter().enumerate() {
                    prop_assert_eq!(b.to_bits(), queue.reference_bound(idx).to_bits());
                }
            }
        }
    }

    #[test]
    fn rejects_bad_threshold() {
        let mut links: Vec<Box<dyn Link>> = Vec::new();
        let meter = BandwidthMeter::new();
        assert!(matches!(
            run(&mut links, &meter, 2.0, full2(), BoundMode::Paper, None),
            Err(Error::InvalidThreshold(_))
        ));
    }
}
