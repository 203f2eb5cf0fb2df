//! Layer breakdown of one traced query from the daemon's own `RunReport`,
//! and the check that the layers add back up.
//!
//! `wall_ms` runs from the moment the session starts the query's recorder
//! to the moment it builds the report. The coordinator's root span sits
//! inside it; what lies outside the root span is the session's own work
//! around the coordinator (cache lookup, per-query links, releasing the
//! sites' cursors, cache insert). Inside the root span, every span's
//! exclusive time (its duration minus its children's) goes to its nearest
//! ancestor-or-self that names a layer, and the root's own time is `self`.
//!
//! The check: every span is closed, children never overrun their parent,
//! the root span lies inside `wall_ms`, and the named layers add back up
//! to `wall_ms` within [`WALL_TOLERANCE_MS`] plus [`WALL_TOLERANCE_FRAC`]
//! of it. The fold splits `wall_ms` into the named layers plus `other`
//! (time under top-level spans no layer names) exactly, so the last part
//! fails when a span the breakdown does not know takes measurable time.
//! On the client side the daemon's times must fit inside the latency the
//! client saw, a clock the report does not produce; the rest is the reply
//! path (request parse, result streaming, and report serialization when
//! traced).

use crate::client::Report;

/// Slack for `wall_ms` against its layers: 0.5 ms plus 2% of `wall_ms`.
pub const WALL_TOLERANCE_MS: f64 = 0.5;
/// Relative part of the `wall_ms` slack.
pub const WALL_TOLERANCE_FRAC: f64 = 0.02;
/// Slack by which the daemon's own times may exceed the client's latency
/// (the two clocks start a socket write apart).
pub const CLIENT_TOLERANCE_MS: f64 = 0.5;

/// Coordinator time of one query, by layer, in ms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Breakdown {
    /// `wall_ms` as the report states it.
    pub wall: f64,
    /// Session time inside `wall_ms` but outside the coordinator's root span.
    pub session: f64,
    /// `to-server:start`: sites run their local skyline and upload.
    pub start: f64,
    /// `plan`: the sketch round trip.
    pub plan: f64,
    /// `round` time outside expunge and delivery: feedback and uploads.
    pub rounds: f64,
    /// `server-delivery`.
    pub delivery: f64,
    /// `expunge` (e-DSUD).
    pub expunge: f64,
    /// The root span's own time.
    pub own: f64,
    /// Time under unrecognised top-level spans.
    pub other: f64,
    /// First progressive confirmation after the query started.
    pub first_confirm: Option<f64>,
}

impl Breakdown {
    /// Sum of the named layers, everything but `other`.
    pub fn named(&self) -> f64 {
        self.session
            + self.start
            + self.plan
            + self.rounds
            + self.delivery
            + self.expunge
            + self.own
    }

    /// Checks `wall ≈ session + start + plan + rounds + delivery + expunge + self`.
    /// [`breakdown`] makes `wall = named() + other` by construction, so this
    /// fails exactly when `other` exceeds the slack.
    pub fn check_wall(&self) -> Result<(), String> {
        let slack = WALL_TOLERANCE_MS + WALL_TOLERANCE_FRAC * self.wall;
        if (self.wall - self.named()).abs() <= slack {
            Ok(())
        } else {
            Err(format!(
                "named layers sum to {:.3} ms but wall_ms is {:.3}: {:.3} ms under unnamed spans ({self:?})",
                self.named(),
                self.wall,
                self.other
            ))
        }
    }
}

fn bucket(name: &str) -> Option<usize> {
    ["to-server:start", "plan", "round", "server-delivery", "expunge"]
        .iter()
        .position(|n| *n == name)
}

/// Folds `report`'s span tree into layers. Fails on a report without a
/// closed root span, with children that overrun their parent, or with a
/// root span that does not fit inside `wall_ms`.
pub fn breakdown(report: &Report) -> Result<Breakdown, String> {
    let spans = &report.spans;
    let root = spans.iter().position(|s| s.parent.is_none()).ok_or("report has no root span")?;
    let dur = |i: usize| -> Result<f64, String> {
        let s = &spans[i];
        let end = s.end_us.ok_or_else(|| format!("span {} never closed", s.name))?;
        Ok(end.saturating_sub(s.start_us) as f64 / 1e3)
    };
    let mut children_ms = vec![0.0; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            *children_ms.get_mut(p).ok_or("span parent out of range")? += dur(i)?;
        }
    }
    let mut layers = [0.0; 5];
    let (mut own, mut other) = (0.0, 0.0);
    for i in 0..spans.len() {
        let exclusive = dur(i)? - children_ms[i];
        if exclusive < -WALL_TOLERANCE_MS {
            return Err(format!(
                "children of span {} overrun it by {:.3} ms",
                spans[i].name, -exclusive
            ));
        }
        // Nearest ancestor-or-self naming a layer; the root is `self`.
        let mut at = Some(i);
        let mut target = None;
        while let Some(j) = at {
            if let Some(b) = bucket(&spans[j].name) {
                target = Some(b);
                break;
            }
            at = spans[j].parent;
        }
        match target {
            Some(b) => layers[b] += exclusive,
            None if i == root => own += exclusive,
            None => other += exclusive,
        }
    }
    let t0 = spans[root].start_us;
    let outside = report.wall_ms - dur(root)?;
    if outside < -WALL_TOLERANCE_MS || (t0 as f64 / 1e3) > report.wall_ms {
        return Err(format!("root span does not fit inside wall_ms {:.3}", report.wall_ms));
    }
    Ok(Breakdown {
        wall: report.wall_ms,
        session: outside,
        start: layers[0],
        plan: layers[1],
        rounds: layers[2],
        delivery: layers[3],
        expunge: layers[4],
        own,
        other,
        first_confirm: report.progressive.first().map(|p| p.at_us.saturating_sub(t0) as f64 / 1e3),
    })
}

/// Checks that the daemon's time for one query fits in the client's:
/// `latency ≈ admission wait + wall_ms + reply` with a non-negative reply.
pub fn check_client(latency_ms: f64, wait_ms: f64, wall_ms: f64) -> Result<f64, String> {
    let reply = latency_ms - wait_ms - wall_ms;
    if reply >= -CLIENT_TOLERANCE_MS {
        Ok(reply)
    } else {
        Err(format!(
            "admission wait {wait_ms:.3} ms + wall {wall_ms:.3} ms exceed the client's {latency_ms:.3} ms"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Progress, Span};

    fn span(name: &str, parent: Option<usize>, start_us: u64, end_us: u64) -> Span {
        Span { name: name.into(), parent, start_us, end_us: Some(end_us) }
    }

    /// The e-DSUD shape: start, plan and a round holding an expunge that
    /// holds site calls, plus a delivery inside the round.
    fn edsud_report(wall_ms: f64) -> Report {
        Report {
            wall_ms,
            spans: vec![
                span("query:edsud", None, 0, 10_000),
                span("to-server:start", Some(0), 100, 6_000),
                span("plan", Some(0), 6_000, 6_200),
                span("round", Some(0), 6_200, 9_900),
                span("expunge", Some(3), 6_300, 8_300),
                span("to-server", Some(4), 7_000, 7_500),
                span("server-delivery", Some(3), 8_300, 9_000),
                span("to-server", Some(3), 9_000, 9_400),
            ],
            progressive: vec![Progress { at_us: 9_950 }],
            ..Report::default()
        }
    }

    #[test]
    fn layers_are_disjoint_and_add_up() {
        let b = breakdown(&edsud_report(10.1)).unwrap();
        assert_eq!(b.start, 5.9);
        assert!((b.plan - 0.2).abs() < 1e-9);
        // The round's own 1.0 ms plus its direct site call (0.4 ms).
        assert!((b.rounds - 1.0).abs() < 1e-9, "{b:?}");
        assert!((b.expunge - 2.0).abs() < 1e-9);
        assert!((b.delivery - 0.7).abs() < 1e-9);
        assert!((b.own - 0.2).abs() < 1e-9);
        assert!((b.session - 0.1).abs() < 1e-9);
        assert_eq!(b.other, 0.0);
        assert!((b.named() - 10.1).abs() < 1e-9);
        assert_eq!(b.first_confirm, Some(9.95));
        b.check_wall().unwrap();
    }

    #[test]
    fn a_root_span_longer_than_wall_fails() {
        assert!(breakdown(&edsud_report(9.0)).is_err());
    }

    #[test]
    fn time_under_an_unnamed_top_level_span_fails_the_check() {
        // 0.05 ms of the root's own time under a span no layer names: within slack.
        let mut r = edsud_report(10.1);
        r.spans.push(span("synopsis", Some(0), 9_900, 9_950));
        let b = breakdown(&r).unwrap();
        assert!((b.other - 0.05).abs() < 1e-9, "{b:?}");
        b.check_wall().unwrap();
        // 1 ms of the start phase under it: beyond the 0.5 ms + 2% slack.
        let mut r = edsud_report(10.1);
        r.spans[1].end_us = Some(5_000);
        r.spans.push(span("synopsis", Some(0), 5_000, 6_000));
        let b = breakdown(&r).unwrap();
        assert!((b.other - 1.0).abs() < 1e-9, "{b:?}");
        assert!((b.named() + b.other - 10.1).abs() < 1e-9);
        assert!(b.check_wall().is_err());
    }

    #[test]
    fn overlapping_children_fail() {
        let mut r = edsud_report(10.0);
        r.spans.push(span("round", Some(0), 1_000, 9_000));
        assert!(breakdown(&r).is_err());
    }

    #[test]
    fn client_latency_must_cover_the_daemon() {
        assert!((check_client(20.0, 1.0, 15.0).unwrap() - 4.0).abs() < 1e-12);
        assert!(check_client(20.0, 6.0, 15.0).is_err());
    }
}
