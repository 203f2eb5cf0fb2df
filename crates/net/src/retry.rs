//! Deterministic retry-with-backoff on top of any [`Link`].
//!
//! [`RetryLink`] is the failure-absorbing layer between a raw transport and
//! the coordinator: transient faults (a timed-out request, a dropped TCP
//! connection) are retried up to the [`LinkConfig::retry_budget`], with a
//! reconnect attempt and a deterministic backoff pause between attempts.
//! Only when the budget is exhausted does the failure propagate — at which
//! point the coordinator decides between aborting (strict mode) and
//! quarantining the site (degraded mode).
//!
//! Determinism: whether an attempt is retried and how long the backoff
//! pause lasts are pure functions of the per-call attempt index and the
//! config — no randomness, no wall-clock dependence. Replaying the same
//! fault schedule therefore produces the same attempt transcript on every
//! run, pool size, and transport; the backoff only stretches wall-clock
//! time.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dsud_obs::{Counter, Recorder};

use crate::transport::TicketLedger;
use crate::{Link, LinkConfig, LinkError, Message, Step, Ticket};

/// Shared, lock-free view of one link's failure history.
///
/// The coordinator holds a clone while the link itself lives inside the
/// boxed transport stack, so per-site failure accounting stays readable
/// after the query ends.
/// Counters are kept on two horizons: *cumulative* totals over the link's
/// whole life, and a *window* since the last explicit
/// [`Link::reconnect`] — probation decisions after a rejoin must weigh
/// fresh evidence, not the failure burst that caused the quarantine.
/// [`LinkHealth::consecutive_misses`] counts completed requests that
/// failed end-to-end (budget exhausted) with no intervening success; one
/// successful reply resets it.
#[derive(Debug, Default)]
pub struct LinkHealth {
    attempts: AtomicU64,
    retries: AtomicU64,
    timeouts: AtomicU64,
    disconnects: AtomicU64,
    malformed: AtomicU64,
    window_attempts: AtomicU64,
    window_retries: AtomicU64,
    window_timeouts: AtomicU64,
    window_disconnects: AtomicU64,
    window_malformed: AtomicU64,
    consecutive_misses: AtomicU64,
    reconnects: AtomicU64,
}

/// Point-in-time copy of a [`LinkHealth`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Requests attempted (first tries and retries alike).
    pub attempts: u64,
    /// Attempts that were retries of a failed predecessor.
    pub retries: u64,
    /// Attempts that failed with [`LinkError::Timeout`].
    pub timeouts: u64,
    /// Attempts that failed with [`LinkError::Disconnected`].
    pub disconnects: u64,
    /// Attempts that failed with [`LinkError::Malformed`].
    pub malformed: u64,
    /// [`HealthSnapshot::attempts`] since the last explicit reconnect.
    pub window_attempts: u64,
    /// [`HealthSnapshot::retries`] since the last explicit reconnect.
    pub window_retries: u64,
    /// [`HealthSnapshot::timeouts`] since the last explicit reconnect.
    pub window_timeouts: u64,
    /// [`HealthSnapshot::disconnects`] since the last explicit reconnect.
    pub window_disconnects: u64,
    /// [`HealthSnapshot::malformed`] since the last explicit reconnect.
    pub window_malformed: u64,
    /// Completed requests that failed end-to-end since the last
    /// successful reply.
    pub consecutive_misses: u64,
    /// Explicit reconnects (window resets) over the link's life.
    pub reconnects: u64,
}

impl LinkHealth {
    /// Copies the current counters.
    pub fn snapshot(&self) -> HealthSnapshot {
        HealthSnapshot {
            attempts: self.attempts.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            disconnects: self.disconnects.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            window_attempts: self.window_attempts.load(Ordering::Relaxed),
            window_retries: self.window_retries.load(Ordering::Relaxed),
            window_timeouts: self.window_timeouts.load(Ordering::Relaxed),
            window_disconnects: self.window_disconnects.load(Ordering::Relaxed),
            window_malformed: self.window_malformed.load(Ordering::Relaxed),
            consecutive_misses: self.consecutive_misses.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
        }
    }

    /// Completed requests that failed end-to-end with no success since.
    pub fn consecutive_misses(&self) -> u64 {
        self.consecutive_misses.load(Ordering::Relaxed)
    }

    fn note_attempt(&self) {
        self.attempts.fetch_add(1, Ordering::Relaxed);
        self.window_attempts.fetch_add(1, Ordering::Relaxed);
    }

    fn note_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        self.window_retries.fetch_add(1, Ordering::Relaxed);
    }

    fn note_failure(&self, error: &LinkError) {
        let (total, window) = match error {
            LinkError::Timeout => (&self.timeouts, &self.window_timeouts),
            LinkError::Disconnected | LinkError::Io(_) => {
                (&self.disconnects, &self.window_disconnects)
            }
            LinkError::Malformed => (&self.malformed, &self.window_malformed),
        };
        total.fetch_add(1, Ordering::Relaxed);
        window.fetch_add(1, Ordering::Relaxed);
    }

    /// A request completed with a reply: the miss streak is over.
    fn note_success(&self) {
        self.consecutive_misses.store(0, Ordering::Relaxed);
    }

    /// A request failed end-to-end (retry budget exhausted).
    fn note_miss(&self) {
        self.consecutive_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Starts a fresh evidence window at an explicit reconnect; the
    /// cumulative counters keep their history.
    fn reset_window(&self) {
        self.window_attempts.store(0, Ordering::Relaxed);
        self.window_retries.store(0, Ordering::Relaxed);
        self.window_timeouts.store(0, Ordering::Relaxed);
        self.window_disconnects.store(0, Ordering::Relaxed);
        self.window_malformed.store(0, Ordering::Relaxed);
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }
}

/// A [`Link`] wrapper that retries failed requests deterministically.
///
/// Each failed attempt is followed by a [`Link::reconnect`] of the inner
/// transport and a [`LinkConfig::backoff_step`] pause, until the request
/// succeeds or [`LinkConfig::retry_budget`] re-attempts have failed; the
/// last error is then returned. Retry and timeout totals are mirrored onto
/// the [`Recorder`] ([`Counter::LinkRetries`], [`Counter::LinkTimeouts`])
/// so they land in the run report.
///
/// Retries happen when the request is completed, never at [`Link::send`]:
/// a failed send is deferred (the ticket is still issued), so the rest of a
/// broadcast's sends go out before any backoff pause — the same overlap a
/// healthy round has, and the same deterministic backoff schedule as the
/// synchronous path. [`Link::complete_step`] returns as soon as a retry is
/// back in flight, so a [`broadcast`](crate::broadcast) waits for the
/// retries of all its links at once; [`Link::complete`] steps until the
/// request is done. When several requests are in flight and one fails, the
/// inner transport's remaining tickets are condemned (the wire they rode is
/// gone); the later requests are replayed, in send order, over a fresh
/// connection.
#[derive(Debug)]
pub struct RetryLink<L> {
    inner: L,
    config: LinkConfig,
    recorder: Recorder,
    health: Arc<LinkHealth>,
    tickets: TicketLedger,
    /// Requests in flight, in send order, each with a clone of its message
    /// (kept for retries on `complete`).
    pending: VecDeque<Pending>,
    /// Set once a failure forced (or will force) an inner reconnect: the
    /// inner tickets of later pending requests no longer redeem, so those
    /// requests are replayed on the fresh wire instead. Cleared when the
    /// window drains.
    broken: bool,
}

/// One in-flight request held by a [`RetryLink`].
#[derive(Debug)]
struct Pending {
    ticket: Ticket,
    msg: Message,
    /// The inner ticket when the send went through, or the deferred send
    /// error to retry at completion time.
    state: Result<Ticket, LinkError>,
    /// Whether `state` is a ticket of the current wire: the request was
    /// sent again after a reconnect, as a retry or a replay.
    resent: bool,
    /// Retries spent on this request.
    retries: u32,
}

impl<L: Link> RetryLink<L> {
    /// Wraps `inner` with the given retry policy.
    pub fn new(inner: L, config: LinkConfig) -> Self {
        Self::with_recorder(inner, config, Recorder::disabled())
    }

    /// Wraps `inner`, mirroring retry/timeout counts onto `recorder`.
    pub fn with_recorder(inner: L, config: LinkConfig, recorder: Recorder) -> Self {
        RetryLink {
            inner,
            config,
            recorder,
            health: Arc::new(LinkHealth::default()),
            tickets: TicketLedger::default(),
            pending: VecDeque::new(),
            broken: false,
        }
    }

    /// Shared handle onto this link's failure counters.
    pub fn health(&self) -> Arc<LinkHealth> {
        Arc::clone(&self.health)
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    fn note_failure(&self, error: &LinkError) {
        self.health.note_failure(error);
        if *error == LinkError::Timeout {
            self.recorder.incr(Counter::LinkTimeouts);
        }
    }

    /// Sends `entry` again on the inner transport, after a reconnect.
    fn resend(&mut self, entry: &mut Pending) -> Result<(), LinkError> {
        entry.state = Ok(self.inner.send(entry.msg.clone())?);
        entry.resent = true;
        Ok(())
    }

    /// Spends what is left of the retry budget on the head request `entry`
    /// after it failed with `error`, up to the first retry that goes out.
    fn retry(&mut self, mut entry: Pending, mut error: LinkError) -> Step {
        // Retries reconnect the inner transport, which condemns the inner
        // tickets of everything sent after this request.
        self.broken = true;
        while entry.retries < self.config.retry_budget {
            entry.retries += 1;
            self.health.note_retry();
            self.recorder.incr(Counter::LinkRetries);
            let pause = self.config.backoff_step(entry.retries);
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
            // Best-effort: a failed reconnect still lets the attempt run,
            // which surfaces the transport's own (possibly more specific)
            // error.
            let _ = self.inner.reconnect();
            self.health.note_attempt();
            match self.resend(&mut entry) {
                Ok(()) => {
                    self.pending.push_front(entry);
                    return Step::Resent;
                }
                Err(e) => {
                    self.note_failure(&e);
                    error = e;
                }
            }
        }
        self.finish(entry.ticket, Err(error))
    }

    /// Retires the head request with its final `result`.
    fn finish(&mut self, ticket: Ticket, result: Result<Message, LinkError>) -> Step {
        self.tickets.redeem(ticket);
        if self.pending.is_empty() {
            // The window drained: whatever happened, the next send starts
            // from a coherent (possibly freshly reconnected) wire.
            self.broken = false;
        }
        match result {
            Ok(_) => self.health.note_success(),
            Err(_) => self.health.note_miss(),
        }
        Step::Done(result)
    }
}

impl<L: Link> Link for RetryLink<L> {
    fn send(&mut self, msg: Message) -> Result<Ticket, LinkError> {
        self.health.note_attempt();
        let state = match self.inner.send(msg.clone()) {
            Ok(inner_ticket) => Ok(inner_ticket),
            Err(e) => {
                // Defer the retries to `complete`, so a broadcast's other
                // sends still go out first — the same overlap a healthy
                // round has. Only this request is condemned: requests
                // already on the wire complete normally ahead of it.
                self.note_failure(&e);
                Err(e)
            }
        };
        let ticket = self.tickets.issue();
        self.pending.push_back(Pending { ticket, msg, state, resent: false, retries: 0 });
        Ok(ticket)
    }

    fn complete(&mut self, ticket: Ticket) -> Result<Message, LinkError> {
        loop {
            if let Step::Done(result) = self.complete_step(ticket) {
                return result;
            }
        }
    }

    fn complete_step(&mut self, ticket: Ticket) -> Step {
        let mut entry = self.pending.pop_front().expect("a redeemed ticket has a pending request");
        assert!(entry.ticket == ticket, "tickets must be completed in send order");
        let error = match entry.state {
            Ok(inner_ticket) if entry.resent || !self.broken => {
                match self.inner.complete(inner_ticket) {
                    Ok(reply) => return self.finish(ticket, Ok(reply)),
                    Err(e) => {
                        self.note_failure(&e);
                        e
                    }
                }
            }
            Ok(_abandoned) => {
                // An earlier in-flight request broke the wire after this one
                // was sent; its inner ticket died with the old connection.
                // Replay the request on the reconnected transport — the
                // request may execute twice at the site, the same hazard any
                // retry of a timed-out request has.
                let _ = self.inner.reconnect();
                self.health.note_attempt();
                match self.resend(&mut entry) {
                    Ok(()) => {
                        self.pending.push_front(entry);
                        return Step::Resent;
                    }
                    Err(e) => {
                        self.note_failure(&e);
                        e
                    }
                }
            }
            // A deferred send failure, already counted at `send`.
            Err(ref e) => e.clone(),
        };
        self.retry(entry, error)
    }

    fn reconnect(&mut self) -> Result<(), LinkError> {
        self.pending.clear();
        self.tickets.reset();
        self.broken = false;
        // An explicit reconnect opens a fresh evidence window: probation
        // judges the rejoined link on what happens from here on.
        self.health.reset_window();
        self.inner.reconnect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BandwidthMeter, FaultMode, FaultyLink, LocalLink, Service};
    use std::time::Duration;

    fn echo_service() -> impl Service {
        |msg: Message| match msg {
            Message::RequestNext => Message::Upload(None),
            _ => Message::Ack,
        }
    }

    fn config(budget: u32) -> LinkConfig {
        LinkConfig {
            request_timeout: Duration::from_millis(100),
            retry_budget: budget,
            backoff: Duration::ZERO,
        }
    }

    fn stalled(budget: u32, stall: u64) -> RetryLink<FaultyLink<LocalLink<impl Service>>> {
        let inner = LocalLink::new(echo_service(), BandwidthMeter::new());
        RetryLink::new(FaultyLink::new(inner, FaultMode::Stall(stall), 1), config(budget))
    }

    #[test]
    fn retry_rides_out_a_stall_within_budget() {
        let mut link = stalled(2, 2);
        assert_eq!(link.call(Message::RequestNext), Ok(Message::Upload(None)));
        // The stall swallows two attempts; two retries recover the answer.
        assert_eq!(link.call(Message::RequestNext), Ok(Message::Upload(None)));
        let health = link.health().snapshot();
        assert_eq!(health.attempts, 4);
        assert_eq!(health.retries, 2);
        assert_eq!(health.timeouts, 2);
    }

    #[test]
    fn retry_budget_exhaustion_returns_the_last_error() {
        let mut link = stalled(1, 5);
        assert!(link.call(Message::RequestNext).is_ok());
        assert_eq!(link.call(Message::RequestNext), Err(LinkError::Timeout));
        let health = link.health().snapshot();
        assert_eq!(health.attempts, 3); // healthy + first try + 1 retry
        assert_eq!(health.retries, 1);
    }

    #[test]
    fn zero_budget_fails_fast() {
        let mut link = stalled(0, 1);
        assert!(link.call(Message::RequestNext).is_ok());
        assert_eq!(link.call(Message::RequestNext), Err(LinkError::Timeout));
        assert_eq!(link.health().snapshot().retries, 0);
    }

    #[test]
    fn split_path_retries_on_complete() {
        let mut link = stalled(2, 2);
        let ticket = link.send(Message::RequestNext).unwrap();
        assert_eq!(link.complete(ticket), Ok(Message::Upload(None)));
        // Second round hits the stall at send; complete absorbs it.
        let ticket = link.send(Message::RequestNext).unwrap();
        assert_eq!(link.complete(ticket), Ok(Message::Upload(None)));
        let health = link.health().snapshot();
        assert_eq!(health.attempts, 4);
        assert_eq!(health.retries, 2);
    }

    #[test]
    fn split_and_call_paths_account_identically() {
        let transcript = |split: bool| {
            let mut link = stalled(3, 2);
            for _ in 0..4 {
                let reply = if split {
                    let ticket = link.send(Message::RequestNext).unwrap();
                    link.complete(ticket)
                } else {
                    link.call(Message::RequestNext)
                };
                assert_eq!(reply, Ok(Message::Upload(None)));
            }
            link.health().snapshot()
        };
        assert_eq!(transcript(false), transcript(true));
    }

    #[test]
    fn deferred_send_failure_retries_in_send_order() {
        // Two requests in flight; the fault swallows the *first* of them at
        // send time. The failure is deferred to that request's completion,
        // where the retry runs — the second request, condemned with the
        // wire, is replayed and still yields its reply in send order.
        let mut link = stalled(2, 1);
        assert!(link.call(Message::RequestNext).is_ok()); // consume healthy budget
        let first = link.send(Message::RequestNext).unwrap(); // swallowed, deferred
        let second = link.send(Message::RequestNext).unwrap();
        assert_eq!(link.complete(first), Ok(Message::Upload(None))); // retried here
        assert_eq!(link.complete(second), Ok(Message::Upload(None))); // replayed
        let health = link.health().snapshot();
        assert_eq!(health.retries, 1);
        assert_eq!(health.timeouts, 1);
    }

    #[test]
    fn mid_window_failure_replays_later_requests() {
        // The middle of three in-flight requests fails; everything after it
        // rode the condemned wire and must be replayed over the reconnected
        // transport, still yielding replies in send order.
        let mut link = stalled(2, 1);
        let first = link.send(Message::RequestNext).unwrap(); // healthy budget
        let second = link.send(Message::RequestNext).unwrap(); // swallowed
        let third = link.send(Message::RequestNext).unwrap();
        assert_eq!(link.complete(first), Ok(Message::Upload(None)));
        assert_eq!(link.complete(second), Ok(Message::Upload(None))); // retried
        assert_eq!(link.complete(third), Ok(Message::Upload(None))); // replayed
                                                                     // A fresh window after the drain behaves as if nothing happened.
        assert_eq!(link.call(Message::RequestNext), Ok(Message::Upload(None)));
    }

    #[test]
    fn retries_flow_into_the_recorder() {
        let recorder = Recorder::enabled();
        let inner = LocalLink::new(echo_service(), BandwidthMeter::new());
        let faulty = FaultyLink::new(inner, FaultMode::Stall(1), 0);
        let mut link = RetryLink::with_recorder(faulty, config(2), recorder.clone());
        assert!(link.call(Message::RequestNext).is_ok());
        assert_eq!(recorder.counter(Counter::LinkRetries), 1);
        assert_eq!(recorder.counter(Counter::LinkTimeouts), 1);
    }

    #[test]
    fn window_counters_reset_on_reconnect_but_cumulative_persist() {
        // A failure burst exhausts the budget, then an explicit reconnect
        // opens a fresh window: probation evidence starts from zero while
        // the cumulative history is preserved.
        let inner = LocalLink::new(echo_service(), BandwidthMeter::new());
        let faulty = FaultyLink::new(inner, FaultMode::Stall(3), 0);
        let mut link = RetryLink::new(faulty, config(1));
        assert_eq!(link.call(Message::RequestNext), Err(LinkError::Timeout));
        let burst = link.health().snapshot();
        assert_eq!(burst.attempts, 2); // first try + 1 retry
        assert_eq!(burst.timeouts, 2);
        assert_eq!(burst.window_attempts, 2);
        assert_eq!(burst.window_timeouts, 2);
        assert_eq!(burst.consecutive_misses, 1);
        assert_eq!(burst.reconnects, 0);

        link.reconnect().expect("reconnect succeeds");
        let fresh = link.health().snapshot();
        assert_eq!(fresh.attempts, 2, "cumulative history survives the reconnect");
        assert_eq!(fresh.timeouts, 2);
        assert_eq!(fresh.window_attempts, 0, "the window starts over");
        assert_eq!(fresh.window_timeouts, 0);
        assert_eq!(fresh.reconnects, 1);
        // The stall has one faulted call left; it fails once more, then the
        // link is healthy — the success ends the miss streak while the
        // window records exactly the post-reconnect evidence.
        assert_eq!(link.call(Message::RequestNext), Ok(Message::Upload(None)));
        let after = link.health().snapshot();
        assert_eq!(after.window_attempts, 2); // failed try + successful retry
        assert_eq!(after.window_timeouts, 1);
        assert_eq!(after.consecutive_misses, 0, "a reply resets the miss streak");
        assert_eq!(after.attempts, 4);
        assert_eq!(after.timeouts, 3);
    }

    #[test]
    fn consecutive_misses_accumulate_per_failed_request() {
        let inner = LocalLink::new(echo_service(), BandwidthMeter::new());
        let faulty = FaultyLink::new(inner, FaultMode::Disconnect, 0);
        let mut link = RetryLink::new(faulty, config(0));
        for expect in 1..=3u64 {
            assert_eq!(link.call(Message::RequestNext), Err(LinkError::Disconnected));
            assert_eq!(link.health().consecutive_misses(), expect);
        }
    }

    #[test]
    fn permanent_disconnect_exhausts_the_budget() {
        let inner = LocalLink::new(echo_service(), BandwidthMeter::new());
        let faulty = FaultyLink::new(inner, FaultMode::Disconnect, 0);
        let mut link = RetryLink::new(faulty, config(3));
        assert_eq!(link.call(Message::RequestNext), Err(LinkError::Disconnected));
        let health = link.health().snapshot();
        assert_eq!(health.attempts, 4);
        assert_eq!(health.retries, 3);
        assert_eq!(health.disconnects, 4);
    }
}
