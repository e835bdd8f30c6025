//! The serialization-graph builder.
//!
//! The paper's SGs (§5) are defined over a complete history: an edge
//! `A → B` at a site iff some operation of `A` precedes and conflicts with
//! some operation of `B` there (same item, at least one write), counting
//! only *included* accesses — committed locals, globals where exposed,
//! compensations always (see [`build_exposed_sgs`] for why exposure).
//! [`IncrementalSg`] builds that graph *as events are recorded*: it is a
//! [`HistorySink`], so the engine can feed it the live event stream and an
//! audit at quiescence starts from an already-built graph; replaying a
//! finished history through it ([`build_exposed_sgs`]) gives the same graph
//! offline. Two ideas keep it cheap:
//!
//! * **per-(site, key) last-accessor index** — instead of an ordered access
//!   list paired quadratically, each key lane keeps one compact entry per
//!   *distinct included transaction* with the min/max positions of its reads
//!   and writes. A new access conflicts with a prior transaction iff that
//!   transaction's conflicting-mode position range extends before (edge
//!   `them → me`) or after (edge `me → them`) the access's own position —
//!   which is exactly the definition, because an edge `A → B` exists iff
//!   *some* conflicting access of `A` precedes *some* access of `B`, and
//!   position ranges capture precisely that;
//! * **deferred inclusion** — an access whose transaction's fate is not yet
//!   settled (a local before its commit, a global before local commit /
//!   roll-back) is buffered in its lane with its position and linked only
//!   when the inclusion decision arrives, so late decisions need no replay.
//!   [`IncrementalSg::finish`] applies the end-of-history defaults to
//!   whatever is still undecided.
//!
//! `tests/incremental_sg_equivalence.rs` pins this builder against a
//! test-only quadratic batch replay of the same definition.

use crate::graph::GlobalSg;
use o2pc_common::FastHashMap;
use o2pc_common::{HistEvent, HistEventKind, History, HistorySink, Key, OpKind, SiteId, TxnId};

/// Inclusion state of one (transaction, site) pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Inclusion {
    /// No deciding event seen yet.
    Undecided,
    /// Forward accesses at the site count (committed / exposed).
    Included,
    /// Rolled back unexposed at the site; a later local-commit event may
    /// still upgrade to [`Inclusion::Included`] (exposure overrides
    /// roll-back regardless of the order the two events arrive in).
    Excluded,
}

const NONE: u32 = u32::MAX;

/// Per-lane record of one distinct *included* transaction: min/max access
/// positions split by mode (`NONE` = no access of that mode yet).
#[derive(Clone, Copy, Debug)]
struct LaneTxn {
    txn: TxnId,
    read_min: u32,
    read_max: u32,
    write_min: u32,
    write_max: u32,
}

impl LaneTxn {
    fn new(txn: TxnId) -> Self {
        LaneTxn {
            txn,
            read_min: NONE,
            read_max: NONE,
            write_min: NONE,
            write_max: NONE,
        }
    }

    fn note(&mut self, kind: OpKind, pos: u32) {
        let (min, max) = match kind {
            OpKind::Read => (&mut self.read_min, &mut self.read_max),
            OpKind::Write => (&mut self.write_min, &mut self.write_max),
        };
        if *min == NONE || pos < *min {
            *min = pos;
        }
        if *max == NONE || pos > *max {
            *max = pos;
        }
    }

    /// Position range of the accesses that conflict with an access of
    /// `kind` (reads conflict with writes only; writes with everything).
    fn conflicting_range(&self, kind: OpKind) -> (u32, u32) {
        match kind {
            OpKind::Write => (
                self.read_min.min(self.write_min),
                match (self.read_max, self.write_max) {
                    (NONE, m) | (m, NONE) => m,
                    (a, b) => a.max(b),
                },
            ),
            OpKind::Read => (self.write_min, self.write_max),
        }
    }
}

/// One (site, key) access lane.
#[derive(Clone, Debug, Default)]
struct Lane {
    next_pos: u32,
    /// One entry per distinct included transaction.
    included: Vec<LaneTxn>,
    /// Buffered accesses whose inclusion is not yet decided, in position
    /// order.
    pending: Vec<(TxnId, OpKind, u32)>,
}

/// An incrementally-maintained global serialization graph. Feed it history
/// events (it is a [`HistorySink`]); read the graph of all *settled*
/// accesses at any time via [`IncrementalSg::graph`], or settle the
/// end-of-history defaults with [`IncrementalSg::finish`] /
/// [`IncrementalSg::snapshot`].
#[derive(Clone, Debug, Default)]
pub struct IncrementalSg {
    gsg: GlobalSg,
    lanes: FastHashMap<(SiteId, Key), Lane>,
    status: FastHashMap<(TxnId, SiteId), Inclusion>,
    /// Keys (per (txn, site)) holding buffered accesses, for flushing.
    pending_keys: FastHashMap<(TxnId, SiteId), Vec<Key>>,
    /// Keys (per (compensation, site)) holding *linked* accesses, so a
    /// crash-voiding roll-back can remove them again (see
    /// [`IncrementalSg::observe`] on `RolledBack`).
    comp_keys: FastHashMap<(TxnId, SiteId), Vec<Key>>,
}

impl IncrementalSg {
    /// The graph over accesses whose inclusion is already settled.
    /// Undecided accesses (in-flight transactions) are not yet in it; use
    /// [`IncrementalSg::snapshot`] for end-of-history semantics.
    pub fn graph(&self) -> &GlobalSg {
        &self.gsg
    }

    /// Consume one history event.
    pub fn observe(&mut self, ev: HistEvent) {
        match ev.kind {
            HistEventKind::Access { kind, key, .. } => self.on_access(ev.site, ev.txn, kind, key),
            HistEventKind::LocallyCommitted => {
                if matches!(ev.txn, TxnId::Global(_)) {
                    self.set_included(ev.txn, ev.site);
                }
            }
            HistEventKind::Committed => match ev.txn {
                TxnId::Global(_) | TxnId::Local(_) => self.set_included(ev.txn, ev.site),
                TxnId::Compensation(_) => {}
            },
            HistEventKind::RolledBack => {
                match ev.txn {
                    // Roll-back excludes unless exposure was (or is later)
                    // observed — `Included` is absorbing.
                    TxnId::Global(_) | TxnId::Local(_) => {
                        let s = self
                            .status
                            .entry((ev.txn, ev.site))
                            .or_insert(Inclusion::Undecided);
                        if *s != Inclusion::Included {
                            *s = Inclusion::Excluded;
                        }
                    }
                    // A rolled-back compensation only happens on crash
                    // recovery: its earlier accesses at the site were wiped
                    // with the un-durable log tail and cleanly undone, and
                    // the compensation will re-execute under the same id.
                    // Void what was linked: only accesses after the last
                    // roll-back belong to the execution that counts.
                    TxnId::Compensation(_) => self.void_compensation(ev.txn, ev.site),
                }
            }
            HistEventKind::Begin | HistEventKind::Compensated => {}
        }
    }

    fn on_access(&mut self, site: SiteId, txn: TxnId, kind: OpKind, key: Key) {
        let lane = self.lanes.entry((site, key)).or_default();
        let pos = lane.next_pos;
        lane.next_pos += 1;
        let included = match txn {
            TxnId::Compensation(_) => true,
            TxnId::Global(_) | TxnId::Local(_) => {
                matches!(self.status.get(&(txn, site)), Some(Inclusion::Included))
            }
        };
        if included {
            link(&mut self.gsg, lane, site, txn, kind, pos);
            if matches!(txn, TxnId::Compensation(_)) {
                self.comp_keys.entry((txn, site)).or_default().push(key);
            }
        } else {
            lane.pending.push((txn, kind, pos));
            self.pending_keys.entry((txn, site)).or_default().push(key);
        }
    }

    /// Remove every linked access of a compensation at one site: node and
    /// incident edges from the site graph, plus its lane entries, so a later
    /// re-execution links from a clean slate. Crash-voiding is rare, so the
    /// incident-edge scan in [`LocalSg::remove_node`] is off the hot path.
    ///
    /// [`LocalSg::remove_node`]: crate::graph::LocalSg::remove_node
    fn void_compensation(&mut self, txn: TxnId, site: SiteId) {
        let Some(keys) = self.comp_keys.remove(&(txn, site)) else {
            return;
        };
        for key in keys {
            if let Some(lane) = self.lanes.get_mut(&(site, key)) {
                lane.included.retain(|lt| lt.txn != txn);
            }
        }
        self.gsg.site_mut(site).remove_node(txn);
    }

    fn set_included(&mut self, txn: TxnId, site: SiteId) {
        let s = self
            .status
            .entry((txn, site))
            .or_insert(Inclusion::Undecided);
        if *s == Inclusion::Included {
            return;
        }
        *s = Inclusion::Included;
        let Some(keys) = self.pending_keys.remove(&(txn, site)) else {
            return;
        };
        for key in keys {
            let lane = self.lanes.get_mut(&(site, key)).expect("lane exists");
            // Extract every buffered access of this transaction (position
            // order is preserved); repeated keys find an empty set.
            let mut i = 0;
            while i < lane.pending.len() {
                if lane.pending[i].0 == txn {
                    let (_, kind, pos) = lane.pending.remove(i);
                    link(&mut self.gsg, lane, site, txn, kind, pos);
                } else {
                    i += 1;
                }
            }
        }
    }

    /// Settle end-of-history defaults and return the final graph: globals
    /// with no deciding event at a site count as included (they were in
    /// flight when recording stopped); undecided locals and unexposed
    /// roll-backs are dropped.
    pub fn finish(mut self) -> GlobalSg {
        // Collect lanes into a deterministic order only insofar as edge
        // *sets* are concerned: positions make pair directions independent
        // of flush order, so plain map iteration is fine.
        let lanes = std::mem::take(&mut self.lanes);
        let mut lanes: Vec<((SiteId, Key), Lane)> = lanes.into_iter().collect();
        for ((site, _), lane) in &mut lanes {
            let pending = std::mem::take(&mut lane.pending);
            for (txn, kind, pos) in pending {
                let include_by_default = matches!(txn, TxnId::Global(_))
                    && !matches!(self.status.get(&(txn, *site)), Some(Inclusion::Excluded));
                if include_by_default {
                    link(&mut self.gsg, lane, *site, txn, kind, pos);
                }
            }
        }
        self.gsg
    }

    /// Non-consuming [`IncrementalSg::finish`]: the graph as if the history
    /// ended now. At quiescence (everything decided) nothing is pending and
    /// this is just a clone of the live graph.
    pub fn snapshot(&self) -> GlobalSg {
        self.clone().finish()
    }
}

impl HistorySink for IncrementalSg {
    fn record(&mut self, ev: HistEvent) {
        self.observe(ev);
    }
}

/// Add one settled access to the graph: node, conflict edges against every
/// other distinct included transaction in the lane (direction per position
/// range), and the lane-index update.
fn link(gsg: &mut GlobalSg, lane: &mut Lane, site: SiteId, txn: TxnId, kind: OpKind, pos: u32) {
    let sg = gsg.site_mut(site);
    sg.add_node(txn);
    let mut self_entry: Option<usize> = None;
    for (i, lt) in lane.included.iter().enumerate() {
        if lt.txn == txn {
            self_entry = Some(i);
            continue;
        }
        let (c_min, c_max) = lt.conflicting_range(kind);
        if c_min != NONE && c_min < pos {
            sg.add_edge(lt.txn, txn);
        }
        if c_max != NONE && c_max > pos {
            sg.add_edge(txn, lt.txn);
        }
    }
    match self_entry {
        Some(i) => lane.included[i].note(kind, pos),
        None => {
            let mut lt = LaneTxn::new(txn);
            lt.note(kind, pos);
            lane.included.push(lt);
        }
    }
}

/// Build the global SG of a recorded history, with **exposure semantics**
/// for failed global transactions.
///
/// The paper extends serializability theory to failed transactions because
/// under O2PC their updates may have been **seen** (local commit released
/// the locks). At a site that simply rolled the subtransaction back from
/// the log (voted abort, was a deadlock victim, or was undone by an R1
/// invalidation), strict 2PL guarantees nobody interleaved between its
/// operations and the undo — its forward operations are invisible there,
/// and including them would flag spurious "regular cycles" even for the
/// plain 2PL-2PC baseline, where nothing is ever exposed (DESIGN.md §2). So
/// a failed transaction's forward accesses at a site count iff the site
/// locally committed (or committed) it; its roll-back's undo writes count
/// everywhere, attributed to `CT_i` — which is exactly what Lemma 5 needs
/// (`CT_i → T_j` at sites that undid `T_i` before `T_j` arrived).
///
/// This replays the history through [`IncrementalSg`], the same builder
/// the engine runs live.
pub fn build_exposed_sgs(history: &History) -> GlobalSg {
    let mut inc = IncrementalSg::default();
    for &ev in history.events() {
        inc.observe(ev);
    }
    inc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2pc_common::{GlobalTxnId, LocalTxnId, SimTime};
    use HistEventKind::{Committed, LocallyCommitted, RolledBack};

    fn t(i: u64) -> TxnId {
        TxnId::Global(GlobalTxnId(i))
    }

    fn ct(i: u64) -> TxnId {
        TxnId::Compensation(GlobalTxnId(i))
    }

    fn l(site: u32, seq: u64) -> TxnId {
        TxnId::Local(LocalTxnId {
            site: SiteId(site),
            seq,
        })
    }

    fn write(h: &mut History, site: u32, txn: TxnId, key: u64, time: u64) {
        h.access(
            SiteId(site),
            txn,
            OpKind::Write,
            Key(key),
            None,
            SimTime(time),
        );
    }

    fn read(h: &mut History, site: u32, txn: TxnId, key: u64, from: TxnId, time: u64) {
        let (s, k) = (SiteId(site), Key(key));
        h.access(s, txn, OpKind::Read, k, Some(from), SimTime(time));
    }

    fn event(h: &mut History, site: u32, txn: TxnId, kind: HistEventKind, time: u64) {
        h.push(HistEvent {
            site: SiteId(site),
            txn,
            kind,
            time: SimTime(time),
        });
    }

    #[test]
    fn empty_history() {
        let g = build_exposed_sgs(&History::new());
        assert!(g.nodes().is_empty() && g.sites().next().is_none());
    }

    #[test]
    fn write_read_conflict_creates_edge() {
        let mut h = History::new();
        write(&mut h, 0, t(1), 1, 1);
        read(&mut h, 0, t(2), 1, t(1), 2);
        let gsg = build_exposed_sgs(&h);
        let sg = gsg.site(SiteId(0)).unwrap();
        assert_eq!(sg.successors(t(1)), &[t(2)]);
        assert!(sg.successors(t(2)).is_empty());
    }

    #[test]
    fn conflict_edges_follow_access_order_per_site() {
        let mut h = History::new();
        write(&mut h, 0, t(1), 1, 1);
        read(&mut h, 0, t(2), 1, t(1), 2);
        write(&mut h, 0, t(3), 1, 3);
        write(&mut h, 1, t(3), 1, 1);
        write(&mut h, 1, t(1), 1, 2);
        let g = build_exposed_sgs(&h);
        assert_eq!(
            g.edges(),
            vec![(t(1), t(2)), (t(1), t(3)), (t(2), t(3)), (t(3), t(1))]
        );
        assert!(!g.site(SiteId(1)).unwrap().contains(t(2)));
    }

    #[test]
    fn read_read_is_not_a_conflict() {
        let mut h = History::new();
        h.access(SiteId(0), t(1), OpKind::Read, Key(1), None, SimTime(1));
        h.access(SiteId(0), t(2), OpKind::Read, Key(1), None, SimTime(2));
        let g = build_exposed_sgs(&h);
        assert!(g.edges().is_empty());
        assert_eq!(g.nodes().len(), 2, "nodes still present");
    }

    #[test]
    fn different_keys_do_not_conflict() {
        let mut h = History::new();
        write(&mut h, 0, t(1), 1, 1);
        write(&mut h, 0, t(2), 2, 2);
        assert!(build_exposed_sgs(&h).edges().is_empty());
    }

    #[test]
    fn cross_site_accesses_stay_in_their_local_sgs() {
        let mut h = History::new();
        write(&mut h, 0, t(1), 1, 1);
        write(&mut h, 1, t(2), 1, 2);
        assert!(
            build_exposed_sgs(&h).edges().is_empty(),
            "same key id at different sites is a different item"
        );
    }

    #[test]
    fn local_txns_gated_on_commit() {
        let mut h = History::new();
        let (lx, ly) = (l(0, 1), l(0, 2));
        write(&mut h, 0, lx, 1, 1);
        write(&mut h, 0, ly, 1, 2);
        event(&mut h, 0, lx, Committed, 3);
        event(&mut h, 0, ly, RolledBack, 4);
        read(&mut h, 0, t(1), 1, lx, 5);
        let g = build_exposed_sgs(&h);
        assert_eq!(g.nodes(), vec![t(1), lx], "rolled-back local dropped");
        assert_eq!(g.edges(), vec![(lx, t(1))]);
    }

    #[test]
    fn compensation_serializes_after_its_forward_transaction() {
        // T1 has no terminal event (in flight when recording stopped), so
        // its forward access counts; the compensation's always does.
        let mut h = History::new();
        write(&mut h, 0, t(1), 1, 1);
        write(&mut h, 0, ct(1), 1, 2);
        let gsg = build_exposed_sgs(&h);
        assert_eq!(gsg.site(SiteId(0)).unwrap().successors(t(1)), &[ct(1)]);
    }

    #[test]
    fn ww_chain_orders_by_time() {
        let mut h = History::new();
        for i in 1..=3u64 {
            write(&mut h, 0, t(i), 7, i);
        }
        let gsg = build_exposed_sgs(&h);
        let sg = gsg.site(SiteId(0)).unwrap();
        assert!(sg.has_path(t(1), t(3)));
        assert!(!sg.has_path(t(3), t(1)));
        assert_eq!(sg.successors(t(1)).len(), 2, "edges to both later writers");
    }

    #[test]
    fn unexposed_rollback_drops_forward_accesses() {
        // T1 wrote at site 0 and was rolled back there without ever being
        // locally committed: its forward write is invisible and must not
        // create edges; the CT undo-write still does.
        let mut h = History::new();
        write(&mut h, 0, t(1), 1, 1);
        write(&mut h, 0, ct(1), 1, 2);
        event(&mut h, 0, t(1), RolledBack, 2);
        write(&mut h, 0, t(2), 1, 3);
        let gsg = build_exposed_sgs(&h);
        let sg = gsg.site(SiteId(0)).unwrap();
        assert!(!sg.contains(t(1)), "unexposed forward accesses dropped");
        assert_eq!(sg.successors(ct(1)), &[t(2)], "Lemma 5 edge CT1 → T2 kept");
    }

    #[test]
    fn locally_committed_rollback_keeps_forward_accesses() {
        // Same shape, but the site locally committed T1 first (O2PC
        // exposure): the forward write was visible and stays in the SG.
        let mut h = History::new();
        write(&mut h, 0, t(1), 1, 1);
        event(&mut h, 0, t(1), LocallyCommitted, 2);
        read(&mut h, 0, t(2), 1, t(1), 3);
        write(&mut h, 0, ct(1), 1, 4);
        let gsg = build_exposed_sgs(&h);
        let sg = gsg.site(SiteId(0)).unwrap();
        assert!(sg.has_path(t(1), t(2)));
        assert!(
            sg.has_path(t(2), ct(1)),
            "the exposed-window reader precedes the compensation"
        );
    }

    #[test]
    fn exposure_is_per_site() {
        // T1 locally committed at site 0 but was rolled back unexposed at
        // site 1: included there only via CT.
        let mut h = History::new();
        write(&mut h, 0, t(1), 1, 1);
        event(&mut h, 0, t(1), LocallyCommitted, 2);
        write(&mut h, 1, t(1), 1, 1);
        event(&mut h, 1, t(1), RolledBack, 3);
        let gsg = build_exposed_sgs(&h);
        assert!(gsg.site(SiteId(0)).unwrap().contains(t(1)));
        assert!(
            gsg.site(SiteId(1)).is_none_or(|sg| !sg.contains(t(1))),
            "unexposed forward access must not materialize the node"
        );
    }

    #[test]
    fn exposure_overrides_rollback_regardless_of_order() {
        // Roll-back recorded before the (late-arriving) local-commit event:
        // the forward access still counts — Excluded upgrades to Included.
        let mut h = History::new();
        write(&mut h, 0, t(1), 1, 1);
        event(&mut h, 0, t(1), RolledBack, 2);
        event(&mut h, 0, t(1), LocallyCommitted, 3);
        write(&mut h, 0, t(2), 1, 4);
        assert_eq!(build_exposed_sgs(&h).edges(), vec![(t(1), t(2))]);
    }

    #[test]
    fn undecided_global_included_by_default_at_finish() {
        let mut h = History::new();
        write(&mut h, 0, t(1), 1, 1);
        write(&mut h, 0, t(2), 1, 2);
        let g = build_exposed_sgs(&h);
        assert_eq!(g.edges().len(), 1, "in-flight globals default-included");
    }

    #[test]
    fn graph_grows_as_events_arrive() {
        let mut h = History::new();
        write(&mut h, 0, ct(1), 1, 1);
        write(&mut h, 0, ct(2), 1, 2);
        let mut inc = IncrementalSg::default();
        for &ev in h.events() {
            inc.observe(ev);
        }
        // Compensations settle immediately: the edge is live already.
        assert_eq!(inc.graph().edges().len(), 1);
        assert_eq!(inc.snapshot().edges().len(), 1);
    }

    #[test]
    fn repeated_access_positions_produce_local_cycles() {
        // a@1, b@2, a@3 on one key: both a→b and b→a.
        let mut h = History::new();
        write(&mut h, 0, t(1), 1, 1);
        write(&mut h, 0, t(2), 1, 2);
        write(&mut h, 0, t(1), 1, 3);
        let g = build_exposed_sgs(&h);
        assert_eq!(g.edges().len(), 2);
        assert!(g.site(SiteId(0)).unwrap().has_cycle());
    }

    #[test]
    fn late_commit_links_buffered_accesses_in_both_directions() {
        // Local L accesses between two global accesses; L commits last.
        let mut h = History::new();
        let lx = l(0, 1);
        write(&mut h, 0, t(1), 1, 1);
        write(&mut h, 0, lx, 1, 2);
        write(&mut h, 0, t(2), 1, 3);
        event(&mut h, 0, lx, Committed, 4);
        let g = build_exposed_sgs(&h);
        let sg = g.site(SiteId(0)).unwrap();
        assert!(sg.successors(t(1)).contains(&lx));
        assert!(sg.successors(lx).contains(&t(2)));
    }

    #[test]
    fn crash_voiding_removes_compensation_accesses_before_rollback() {
        // CT1 runs, its log records ride an un-fsynced tail, the site
        // crashes: the engine emits RolledBack for CT1 and the physical
        // execution is undone. CT1 later re-executes under the same id.
        // Only the post-voiding accesses may conflict.
        let mut h = History::new();
        write(&mut h, 0, t(1), 1, 1);
        write(&mut h, 0, ct(1), 1, 2);
        event(&mut h, 0, ct(1), RolledBack, 3);
        write(&mut h, 0, t(2), 2, 4);
        let g = build_exposed_sgs(&h);
        let sg = g.site(SiteId(0)).unwrap();
        assert!(!sg.contains(ct(1)), "voided compensation leaves the graph");
        assert!(
            sg.successors(t(1)).is_empty(),
            "edge to the wiped execution must not survive"
        );
    }

    #[test]
    fn crash_voiding_keeps_reexecution_accesses() {
        // Same shape, but CT1 re-executes after the voiding event: the
        // second physical execution's conflicts are real and must stay.
        let mut h = History::new();
        write(&mut h, 0, t(1), 1, 1);
        write(&mut h, 0, ct(1), 1, 2);
        event(&mut h, 0, ct(1), RolledBack, 3);
        write(&mut h, 0, ct(1), 1, 4);
        let g = build_exposed_sgs(&h);
        let sg = g.site(SiteId(0)).unwrap();
        assert!(sg.contains(ct(1)));
        assert!(
            sg.successors(t(1)).contains(&ct(1)),
            "re-executed compensation conflicts normally"
        );
        assert!(
            !sg.successors(ct(1)).contains(&t(1)),
            "no phantom back-edge from the wiped first execution"
        );
    }

    #[test]
    fn global_and_local_rollback_semantics_unchanged_by_voiding() {
        // RolledBack on a Global/Local txn still means exposure-exclusion,
        // not positional voiding: an exposed (locally committed) global's
        // accesses survive its later rollback event.
        let mut h = History::new();
        write(&mut h, 0, t(1), 1, 1);
        event(&mut h, 0, t(1), LocallyCommitted, 2);
        event(&mut h, 0, t(1), RolledBack, 3);
        write(&mut h, 0, t(2), 1, 4);
        let g = build_exposed_sgs(&h);
        let sg = g.site(SiteId(0)).unwrap();
        assert!(
            sg.successors(t(1)).contains(&t(2)),
            "exposed global stays despite rollback (Included absorbs)"
        );
    }
}
