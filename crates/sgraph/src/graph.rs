//! Local and global serialization graphs.

use o2pc_common::{FastHashMap, SiteId, TxnId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A serialization graph local to one site.
///
/// Nodes are [`TxnId`]s; an edge `A → B` means one of `A`'s operations
/// precedes and conflicts with one of `B`'s operations in this site's
/// history.
#[derive(Clone, Debug, Default)]
pub struct LocalSg {
    /// Adjacency: node → successors (deduplicated, insertion order kept).
    adj: BTreeMap<TxnId, Vec<TxnId>>,
    /// All nodes, including isolated ones.
    nodes: BTreeSet<TxnId>,
}

impl LocalSg {
    /// New empty local SG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a node (no-op if present).
    pub fn add_node(&mut self, n: TxnId) {
        self.nodes.insert(n);
    }

    /// Insert the edge `a → b` (and both nodes).
    pub fn add_edge(&mut self, a: TxnId, b: TxnId) {
        debug_assert_ne!(a, b, "self-conflicts do not create edges");
        self.nodes.insert(a);
        self.nodes.insert(b);
        let succs = self.adj.entry(a).or_default();
        if !succs.contains(&b) {
            succs.push(b);
        }
    }

    /// Remove a node and every edge incident to it. Used by crash voiding:
    /// a compensation whose log records were wiped with the un-durable WAL
    /// tail re-executes later under the same id, and its pre-crash accesses
    /// (cleanly undone, observed by nothing durable) must leave the graph.
    pub fn remove_node(&mut self, n: TxnId) {
        self.nodes.remove(&n);
        self.adj.remove(&n);
        for succs in self.adj.values_mut() {
            succs.retain(|&s| s != n);
        }
    }

    /// Does the node appear at this site?
    pub fn contains(&self, n: TxnId) -> bool {
        self.nodes.contains(&n)
    }

    /// All nodes, ordered.
    pub fn nodes(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.nodes.iter().copied()
    }

    /// Successors of a node.
    pub fn successors(&self, n: TxnId) -> &[TxnId] {
        self.adj.get(&n).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All edges.
    pub fn edges(&self) -> impl Iterator<Item = (TxnId, TxnId)> + '_ {
        self.adj
            .iter()
            .flat_map(|(&a, succs)| succs.iter().map(move |&b| (a, b)))
    }

    /// Is there a (directed) path `from →+ to` of length ≥ 1?
    pub fn has_path(&self, from: TxnId, to: TxnId) -> bool {
        self.has_path_avoiding(from, to, None)
    }

    /// Is there a path `from →+ to` that does not pass through `avoid`
    /// as an intermediate node? (`from`/`to` themselves are permitted to
    /// equal `avoid` only as endpoints.)
    pub fn has_path_avoiding(&self, from: TxnId, to: TxnId, avoid: Option<TxnId>) -> bool {
        if !self.nodes.contains(&from) || !self.nodes.contains(&to) {
            return false;
        }
        let mut seen: BTreeSet<TxnId> = BTreeSet::new();
        let mut queue: VecDeque<TxnId> = VecDeque::new();
        queue.push_back(from);
        while let Some(n) = queue.pop_front() {
            for &s in self.successors(n) {
                if s == to {
                    return true;
                }
                if Some(s) == avoid {
                    continue;
                }
                if seen.insert(s) {
                    queue.push_back(s);
                }
            }
        }
        false
    }

    /// Is there a path in either direction between `a` and `b`?
    pub fn connected_either_way(&self, a: TxnId, b: TxnId) -> bool {
        self.has_path(a, b) || self.has_path(b, a)
    }

    /// Does the local SG contain a cycle? (Local histories are serializable
    /// under strict 2PL, so this should always be `false`; the audit checks.)
    pub fn has_cycle(&self) -> bool {
        // Kahn's algorithm: cycle iff not all nodes drain. (The verdict is
        // queue-order independent, so the map's iteration order is free.)
        let mut indeg: FastHashMap<TxnId, usize> = self.nodes.iter().map(|&n| (n, 0)).collect();
        for (_, b) in self.edges() {
            *indeg.get_mut(&b).unwrap() += 1;
        }
        let mut queue: VecDeque<TxnId> = indeg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&n, _)| n)
            .collect();
        let mut drained = 0;
        while let Some(n) = queue.pop_front() {
            drained += 1;
            for &s in self.successors(n) {
                let d = indeg.get_mut(&s).unwrap();
                *d -= 1;
                if *d == 0 {
                    queue.push_back(s);
                }
            }
        }
        drained != self.nodes.len()
    }
}

/// The global serialization graph: the union of per-site local SGs
/// (`SG_global = (∪ V_a, ∪ E_a)`, §5).
#[derive(Clone, Debug, Default)]
pub struct GlobalSg {
    sites: BTreeMap<SiteId, LocalSg>,
}

impl GlobalSg {
    /// New empty global SG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Access (creating if needed) the local SG of `site`.
    pub fn site_mut(&mut self, site: SiteId) -> &mut LocalSg {
        self.sites.entry(site).or_default()
    }

    /// The local SG of `site`, if present.
    pub fn site(&self, site: SiteId) -> Option<&LocalSg> {
        self.sites.get(&site)
    }

    /// Iterate `(site, local SG)` pairs.
    pub fn sites(&self) -> impl Iterator<Item = (SiteId, &LocalSg)> {
        self.sites.iter().map(|(&s, g)| (s, g))
    }

    /// All nodes across all sites, ordered and deduplicated.
    pub fn nodes(&self) -> Vec<TxnId> {
        let mut set = BTreeSet::new();
        for g in self.sites.values() {
            set.extend(g.nodes());
        }
        set.into_iter().collect()
    }

    /// Union adjacency: successors of `n` across all sites, deduplicated.
    pub fn successors(&self, n: TxnId) -> Vec<TxnId> {
        let mut out = Vec::new();
        for g in self.sites.values() {
            for &s in g.successors(n) {
                if !out.contains(&s) {
                    out.push(s);
                }
            }
        }
        out
    }

    /// All union edges, deduplicated.
    pub fn edges(&self) -> Vec<(TxnId, TxnId)> {
        let mut set = BTreeSet::new();
        for g in self.sites.values() {
            for e in g.edges() {
                set.insert(e);
            }
        }
        set.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2pc_common::GlobalTxnId;

    fn t(i: u64) -> TxnId {
        TxnId::Global(GlobalTxnId(i))
    }

    fn ct(i: u64) -> TxnId {
        TxnId::Compensation(GlobalTxnId(i))
    }

    #[test]
    fn local_paths() {
        let mut g = LocalSg::new();
        g.add_edge(t(1), t(2));
        g.add_edge(t(2), t(3));
        assert!(g.has_path(t(1), t(3)));
        assert!(!g.has_path(t(3), t(1)));
        assert!(g.connected_either_way(t(3), t(1)));
        assert!(!g.has_path(t(1), t(1)), "no trivial self-path");
        assert!(!g.has_cycle());
    }

    #[test]
    fn self_loop_via_cycle_detected() {
        let mut g = LocalSg::new();
        g.add_edge(t(1), t(2));
        g.add_edge(t(2), t(1));
        assert!(g.has_cycle());
        assert!(
            g.has_path(t(1), t(1)),
            "cycle gives a self-path of length 2"
        );
    }

    #[test]
    fn path_avoiding_node() {
        // 1 → 2 → 3 and 1 → 4 → 3: avoiding 2 still reaches 3.
        let mut g = LocalSg::new();
        g.add_edge(t(1), t(2));
        g.add_edge(t(2), t(3));
        g.add_edge(t(1), t(4));
        g.add_edge(t(4), t(3));
        assert!(g.has_path_avoiding(t(1), t(3), Some(t(2))));
        assert!(g.has_path_avoiding(t(1), t(3), Some(t(4))));
        // Remove the detour: avoidance now blocks.
        let mut g2 = LocalSg::new();
        g2.add_edge(t(1), t(2));
        g2.add_edge(t(2), t(3));
        assert!(!g2.has_path_avoiding(t(1), t(3), Some(t(2))));
        assert!(g2.has_path_avoiding(t(1), t(3), None));
    }

    #[test]
    fn duplicate_edges_collapse() {
        let mut g = LocalSg::new();
        g.add_edge(t(1), t(2));
        g.add_edge(t(1), t(2));
        assert_eq!(g.successors(t(1)), &[t(2)]);
        assert_eq!(g.edges().count(), 1);
    }

    #[test]
    fn global_union() {
        let mut gsg = GlobalSg::new();
        gsg.site_mut(SiteId(0)).add_edge(t(1), t(2));
        gsg.site_mut(SiteId(1)).add_edge(t(2), ct(3));
        gsg.site_mut(SiteId(1)).add_edge(t(1), t(2));
        assert_eq!(gsg.nodes(), vec![t(1), t(2), ct(3)]);
        assert_eq!(gsg.edges(), vec![(t(1), t(2)), (t(2), ct(3))]);
        assert_eq!(gsg.successors(t(2)), vec![ct(3)], "union crosses sites");
    }

    #[test]
    fn isolated_nodes_are_tracked() {
        let mut g = LocalSg::new();
        g.add_node(t(9));
        assert_eq!(g.nodes().collect::<Vec<_>>(), vec![t(9)]);
        assert!(!g.has_cycle());
    }
}
