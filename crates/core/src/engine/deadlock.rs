//! Local and lifted (cross-site) deadlock detection and victim resolution,
//! started from the execution that just blocked (DESIGN.md §8).

use super::{Engine, TimerEvent};
use crate::msg::Msg;
use o2pc_common::FastHashMap;
use o2pc_common::{ExecId, GlobalTxnId, SimTime, SiteId};
use o2pc_locking::{find_cycle, CycleWalk};
use o2pc_runtime::Runtime;

/// A node of the lifted waits-for graph: a subtransaction stands for its
/// whole global transaction, locals and compensations stay at their site.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
enum Node {
    G(GlobalTxnId),
    L(SiteId, ExecId),
    C(SiteId, GlobalTxnId),
}

impl Node {
    fn lift(site: SiteId, e: ExecId) -> Node {
        match e {
            ExecId::Sub(g) => Node::G(g),
            ExecId::Local(_) => Node::L(site, e),
            ExecId::CompSub(g) => Node::C(site, g),
        }
    }
}

/// The blocked path's reusable buffers.
#[derive(Default)]
pub(crate) struct BlockedWalks {
    local: CycleWalk<ExecId>,
    lifted: CycleWalk<Node>,
    blockers: Vec<ExecId>,
}

impl<R: Runtime<TimerEvent, Msg>> Engine<R> {
    /// `exec` just queued behind a lock at `site_id`. Every cycle that exists
    /// now passes through it, so each detector runs only when a walk from
    /// `exec` returns to it: first over the site's waits-for edges, then over
    /// the lifted ones. Debug builds run both detectors anyway and check that
    /// they agree with the walks.
    #[inline(never)]
    pub(crate) fn on_blocked(&mut self, now: SimTime, site_id: SiteId, exec: ExecId) {
        let Some(site) = self.slots[site_id.index()].state.site() else {
            return;
        };
        let walk = &mut self.walks.local;
        let local = walk.returns_to(exec, |e, out| site.blockers_of(e, out));
        if local || cfg!(debug_assertions) {
            let resolved = self.resolve_deadlocks(now, site_id);
            debug_assert_eq!(local, resolved, "walk from {exec} at {site_id}");
        }
        let (walk, blockers) = (&mut self.walks.lifted, &mut self.walks.blockers);
        let live = self.slots.iter().enumerate();
        let live = live.filter_map(|(i, s)| Some((SiteId(i as u32), s.state.site()?)));
        let lifted = walk.returns_to(Node::lift(site_id, exec), |node, out| {
            let (only, e) = match node {
                Node::G(g) => (None, ExecId::Sub(g)),
                Node::L(s, e) => (Some(s), e),
                Node::C(s, g) => (Some(s), ExecId::CompSub(g)),
            };
            for (sid, site) in live.clone().filter(|&(s, _)| only.is_none_or(|o| o == s)) {
                site.blockers_of(e, blockers);
                let next = blockers.drain(..).map(|b| Node::lift(sid, b));
                out.extend(next.filter(|&n| n != node));
            }
        });
        if lifted || cfg!(debug_assertions) {
            let resolved = self.resolve_global_deadlocks(now);
            debug_assert_eq!(lifted, resolved, "lifted walk from {exec} at {site_id}");
        }
    }

    /// Abort victims until the site's waits-for graph is acyclic; true if
    /// there was a cycle.
    fn resolve_deadlocks(&mut self, now: SimTime, site_id: SiteId) -> bool {
        let mut resolved = false;
        loop {
            let site = self.slots[site_id.index()].state.site_mut();
            let Some(cycle) = site.and_then(|s| s.find_deadlock()) else {
                return resolved;
            };
            resolved = true;
            // Victim preference: local < subtransaction < compensation
            // (compensations are the most expensive to redo, and must
            // eventually succeed anyway).
            let victim = cycle
                .iter()
                .copied()
                .min_by_key(|e| match e {
                    ExecId::Local(_) => 0,
                    ExecId::Sub(_) => 1,
                    ExecId::CompSub(_) => 2,
                })
                .expect("cycle non-empty");
            self.report.counters.inc(match victim {
                ExecId::Local(_) => "deadlock.victims.local",
                ExecId::Sub(_) => "deadlock.victims.sub",
                ExecId::CompSub(_) => "deadlock.victims.comp",
            });
            self.abort_execution(now, site_id, victim);
            if let ExecId::Sub(_) = victim {
                self.invalidate_incompatible_subs(now, site_id);
            }
        }
    }

    /// Distributed deadlock detection; true if there was a cycle.
    ///
    /// A subtransaction that finished executing holds its locks until its
    /// global transaction votes, and the vote waits for *every* sibling
    /// subtransaction to ack — so a lock wait on a subtransaction is really
    /// a wait on the whole global transaction. Lifting each site's waits-for
    /// edges to transaction granularity (compensating subtransactions stay
    /// independent, per §3.2) exposes cross-site cycles that no local
    /// detector can see. The engine plays the role a real deployment gives
    /// to timeouts or a global deadlock detector; the victim's *blocked*
    /// subtransaction is aborted unilaterally at its site (autonomy), and
    /// the 2PC abort cleans up the siblings.
    fn resolve_global_deadlocks(&mut self, now: SimTime) -> bool {
        let mut resolved = false;
        loop {
            let mut edges: FastHashMap<Node, Vec<Node>> = FastHashMap::default();
            // Where each node has a blocked execution (for victim handling).
            let mut blocked_at: FastHashMap<Node, (SiteId, ExecId)> = FastHashMap::default();
            for site in self.live_sites() {
                let sid = site.id();
                for (w, h) in site.waits_for_edges() {
                    let wn = Node::lift(sid, w);
                    let hn = Node::lift(sid, h);
                    if wn != hn {
                        edges.entry(wn).or_default().push(hn);
                        blocked_at.entry(wn).or_insert((sid, w));
                    }
                }
            }
            let Some(cycle) = find_cycle(&edges) else {
                return resolved;
            };
            resolved = true;
            // Victim: prefer a local, else the youngest global on the cycle.
            let victim = cycle
                .iter()
                .copied()
                .min_by_key(|n| match n {
                    Node::L(..) => (0, 0),
                    Node::C(..) => (2, 0),
                    Node::G(g) => (1, u64::MAX - g.0),
                })
                .expect("cycle non-empty");
            // Every node on a cycle has an out-edge, so it is blocked at some
            // site. Returning without a victim would leave the cycle standing,
            // and `on_blocked` relies on no cycle outliving this loop.
            let (sid, exec) = *blocked_at
                .get(&victim)
                .expect("a node on a cycle is blocked somewhere");
            self.report.counters.inc("deadlock.global");
            // A subtransaction victim marks undone with no mark re-check, unlike the local arm.
            self.abort_execution(now, sid, exec);
        }
    }
}
