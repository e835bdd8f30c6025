//! Scripted failure injection.
//!
//! The paper's motivation is precisely the behaviour of 2PC *under failures*
//! ("the length of time these locks are held can be unbounded"). The failure
//! plan scripts site crashes and link outages at virtual times so experiment
//! E4 can crash a coordinator at its decision point deterministically.

use o2pc_common::{SimTime, SiteId};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Window {
    from: SimTime,
    to: SimTime,
}

impl Window {
    fn contains(&self, t: SimTime) -> bool {
        self.from <= t && t < self.to
    }
}

/// A scripted set of site crashes and link outages.
#[derive(Clone, Debug, Default)]
pub struct FailurePlan {
    site_down: Vec<(SiteId, Window)>,
    link_down: Vec<((SiteId, SiteId), Window)>,
}

impl FailurePlan {
    /// New empty plan (nothing ever fails).
    pub fn new() -> Self {
        Self::default()
    }

    /// Crash `site` during `[from, to)`; it recovers at `to` (with its WAL
    /// intact — recovery is the site's problem, scheduling it is the
    /// engine's).
    pub fn site_crash(&mut self, site: SiteId, from: SimTime, to: SimTime) {
        assert!(from < to, "empty crash window");
        self.site_down.push((site, Window { from, to }));
    }

    /// Take the (bidirectional) link between `a` and `b` down during
    /// `[from, to)`.
    pub fn link_outage(&mut self, a: SiteId, b: SiteId, from: SimTime, to: SimTime) {
        assert!(from < to, "empty outage window");
        let key = if a <= b { (a, b) } else { (b, a) };
        self.link_down.push((key, Window { from, to }));
    }

    /// Is `site` up at time `t`?
    pub fn site_up(&self, site: SiteId, t: SimTime) -> bool {
        !self
            .site_down
            .iter()
            .any(|&(s, w)| s == site && w.contains(t))
    }

    /// Is the link `a ↔ b` usable at time `t`? (Requires both endpoints up
    /// and no outage on the link.)
    pub fn link_up(&self, a: SiteId, b: SiteId, t: SimTime) -> bool {
        if !self.site_up(a, t) || !self.site_up(b, t) {
            return false;
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        !self
            .link_down
            .iter()
            .any(|&(k, w)| k == key && w.contains(t))
    }

    /// All scripted crash windows (engine schedules crash/recover events).
    pub fn crashes(&self) -> impl Iterator<Item = (SiteId, SimTime, SimTime)> + '_ {
        self.site_down.iter().map(|&(s, w)| (s, w.from, w.to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_windows() {
        let mut p = FailurePlan::new();
        p.site_crash(SiteId(1), SimTime(100), SimTime(200));
        assert!(p.site_up(SiteId(1), SimTime(99)));
        assert!(!p.site_up(SiteId(1), SimTime(100)));
        assert!(!p.site_up(SiteId(1), SimTime(199)));
        assert!(
            p.site_up(SiteId(1), SimTime(200)),
            "recovered at window end"
        );
        assert!(p.site_up(SiteId(0), SimTime(150)), "other sites unaffected");
    }

    #[test]
    fn link_symmetry_and_endpoint_liveness() {
        let mut p = FailurePlan::new();
        p.link_outage(SiteId(2), SiteId(0), SimTime(10), SimTime(20));
        assert!(!p.link_up(SiteId(0), SiteId(2), SimTime(15)));
        assert!(!p.link_up(SiteId(2), SiteId(0), SimTime(15)));
        assert!(p.link_up(SiteId(0), SiteId(2), SimTime(25)));
        // A crashed endpoint takes the link down implicitly.
        p.site_crash(SiteId(0), SimTime(30), SimTime(40));
        assert!(!p.link_up(SiteId(0), SiteId(2), SimTime(35)));
    }

    #[test]
    fn overlapping_crashes_take_latest_recovery() {
        let mut p = FailurePlan::new();
        p.site_crash(SiteId(1), SimTime(10), SimTime(50));
        p.site_crash(SiteId(1), SimTime(30), SimTime(80));
        assert!(!p.site_up(SiteId(1), SimTime(60)));
        assert!(p.site_up(SiteId(1), SimTime(80)));
        assert_eq!(p.crashes().count(), 2);
    }

    #[test]
    #[should_panic(expected = "empty crash window")]
    fn empty_window_rejected() {
        let mut p = FailurePlan::new();
        p.site_crash(SiteId(0), SimTime(5), SimTime(5));
    }
}
