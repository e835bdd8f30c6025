//! Local and lifted (cross-site) deadlock detection and victim resolution.

use super::{Engine, TimerEvent};
use crate::msg::Msg;
use o2pc_common::FastHashMap;
use o2pc_common::{ExecId, GlobalTxnId, SimTime, SiteId};
use o2pc_locking::find_cycle;
use o2pc_runtime::Runtime;

impl<R: Runtime<TimerEvent, Msg>> Engine<R> {
    pub(crate) fn resolve_deadlocks(&mut self, now: SimTime, site_id: SiteId) {
        loop {
            let Some(cycle) = self.sites[site_id.index()]
                .as_mut()
                .unwrap()
                .find_deadlock()
            else {
                return;
            };
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
            match victim {
                ExecId::Local(_) => {
                    self.report.counters.inc("deadlock.victims.local");
                    let hist = &mut self.hist;
                    let site = self.sites[site_id.index()].as_mut().unwrap();
                    let woken = site.abort_exec(victim, now, hist);
                    self.report.local_aborted += 1;
                    self.wake(now, site_id, woken);
                }
                ExecId::Sub(g) => {
                    self.report.counters.inc("deadlock.victims.sub");
                    let hist = &mut self.hist;
                    let site = self.sites[site_id.index()].as_mut().unwrap();
                    let woken = site.unilateral_abort(g, now, hist);
                    self.wake(now, site_id, woken);
                    let coord_site = self.txns[&g].coord_site;
                    self.send(
                        now,
                        site_id,
                        coord_site,
                        Msg::SubtxnAck {
                            txn: g,
                            from: site_id,
                            ok: false,
                        },
                    );
                    self.invalidate_incompatible_subs(now, site_id);
                }
                ExecId::CompSub(g) => {
                    self.report.counters.inc("deadlock.victims.comp");
                    let site = self.sites[site_id.index()].as_mut().unwrap();
                    let woken = site.rollback_compensation(g, now);
                    self.persistence.retried(g, site_id);
                    self.wake(now, site_id, woken);
                    let delay = self.cfg.comp_retry_delay;
                    self.rt.schedule(
                        now + delay,
                        TimerEvent::CompRetry {
                            txn: g,
                            site: site_id,
                        },
                    );
                }
            }
        }
    }

    /// Distributed deadlock detection.
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
    pub(crate) fn resolve_global_deadlocks(&mut self, now: SimTime) {
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
        enum Node {
            G(GlobalTxnId),
            L(SiteId, ExecId),
            C(SiteId, GlobalTxnId),
        }
        loop {
            let mut edges: FastHashMap<Node, Vec<Node>> = FastHashMap::default();
            // Where each node has a blocked execution (for victim handling).
            let mut blocked_at: FastHashMap<Node, (SiteId, ExecId)> = FastHashMap::default();
            for (idx, site) in self.sites.iter().enumerate() {
                let Some(site) = site else { continue };
                let sid = SiteId(idx as u32);
                let lift = |e: ExecId| match e {
                    ExecId::Sub(g) => Node::G(g),
                    ExecId::Local(_) => Node::L(sid, e),
                    ExecId::CompSub(g) => Node::C(sid, g),
                };
                for (w, h) in site.waits_for_edges() {
                    let wn = lift(w);
                    let hn = lift(h);
                    if wn != hn {
                        edges.entry(wn).or_default().push(hn);
                        blocked_at.entry(wn).or_insert((sid, w));
                    }
                }
            }
            if edges.is_empty() {
                return;
            }
            let Some(cycle) = find_cycle(&edges) else {
                return;
            };
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
            let Some(&(sid, exec)) = blocked_at.get(&victim) else {
                return;
            };
            self.report.counters.inc("deadlock.global");
            match exec {
                ExecId::Local(_) => {
                    let hist = &mut self.hist;
                    let site = self.sites[sid.index()].as_mut().unwrap();
                    let woken = site.abort_exec(exec, now, hist);
                    self.report.local_aborted += 1;
                    self.wake(now, sid, woken);
                }
                ExecId::Sub(g) => {
                    let hist = &mut self.hist;
                    let site = self.sites[sid.index()].as_mut().unwrap();
                    let woken = site.unilateral_abort(g, now, hist);
                    self.wake(now, sid, woken);
                    let coord_site = self.txns[&g].coord_site;
                    self.send(
                        now,
                        sid,
                        coord_site,
                        Msg::SubtxnAck {
                            txn: g,
                            from: sid,
                            ok: false,
                        },
                    );
                }
                ExecId::CompSub(g) => {
                    let site = self.sites[sid.index()].as_mut().unwrap();
                    let woken = site.rollback_compensation(g, now);
                    self.persistence.retried(g, sid);
                    self.wake(now, sid, woken);
                    let delay = self.cfg.comp_retry_delay;
                    self.rt
                        .schedule(now + delay, TimerEvent::CompRetry { txn: g, site: sid });
                }
            }
        }
    }
}
