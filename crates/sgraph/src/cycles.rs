//! Strongly connected components and bounded simple-cycle enumeration over
//! the union (global) serialization graph.
//!
//! The enumerator is Johnson-flavoured: cycles are anchored at their
//! smallest node (so each simple cycle is reported exactly once), and the
//! DFS only walks nodes that can still *return* to the anchor (a reverse-BFS
//! "can-reach" set per anchor) — without that pruning, dense SGs from
//! contended workloads make the search explore astronomically many dead
//! paths. Enumeration is callback-based so callers (the regular-cycle
//! search) can stop at the first hit, and it reports whether it saw every
//! cycle, so a budget that cut it short is never mistaken for a proof.

use crate::graph::GlobalSg;
use o2pc_common::{FastHashMap, TxnId};
use std::ops::ControlFlow;

/// Union graph with dense integer indexing (built once per analysis).
pub(crate) struct Indexed {
    pub(crate) nodes: Vec<TxnId>,
    pub(crate) succ: Vec<Vec<u32>>,
    pub(crate) pred: Vec<Vec<u32>>,
}

impl Indexed {
    pub(crate) fn new(gsg: &GlobalSg) -> Self {
        // Sort + dedup flat vectors instead of `GlobalSg::nodes`/`edges`
        // (which build throwaway `BTreeSet`s): same sorted node order and
        // identical sorted, deduplicated adjacency — the enumeration
        // anchor order is part of the audit's determinism — at a fraction
        // of the allocation traffic. This runs once per oracle check, on
        // the chaos hot path.
        let mut nodes: Vec<TxnId> = Vec::new();
        for (_, sg) in gsg.sites() {
            nodes.extend(sg.nodes());
        }
        nodes.sort_unstable();
        nodes.dedup();
        let index_of: FastHashMap<TxnId, u32> = nodes
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i as u32))
            .collect();
        let mut succ = vec![Vec::new(); nodes.len()];
        let mut pred = vec![Vec::new(); nodes.len()];
        for (_, sg) in gsg.sites() {
            for (a, b) in sg.edges() {
                succ[index_of[&a] as usize].push(index_of[&b]);
            }
        }
        for s in &mut succ {
            s.sort_unstable();
            s.dedup();
        }
        for (ia, succs) in succ.iter().enumerate() {
            for &ib in succs {
                pred[ib as usize].push(ia as u32);
            }
        }
        Indexed { nodes, succ, pred }
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }
}

/// Tarjan SCC over the indexed graph (iterative).
pub(crate) fn sccs(g: &Indexed) -> Vec<Vec<u32>> {
    let n = g.len();
    let mut index = vec![u32::MAX; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut out = Vec::new();

    struct Frame {
        v: u32,
        child: usize,
    }
    for root in 0..n as u32 {
        if index[root as usize] != u32::MAX {
            continue;
        }
        let mut call = vec![Frame { v: root, child: 0 }];
        index[root as usize] = next_index;
        lowlink[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;
        while let Some(frame) = call.last_mut() {
            let v = frame.v as usize;
            if frame.child < g.succ[v].len() {
                let w = g.succ[v][frame.child];
                frame.child += 1;
                let wi = w as usize;
                if index[wi] == u32::MAX {
                    index[wi] = next_index;
                    lowlink[wi] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[wi] = true;
                    call.push(Frame { v: w, child: 0 });
                } else if on_stack[wi] {
                    lowlink[v] = lowlink[v].min(index[wi]);
                }
            } else {
                let v_id = frame.v;
                call.pop();
                if let Some(parent) = call.last() {
                    let p = parent.v as usize;
                    lowlink[p] = lowlink[p].min(lowlink[v_id as usize]);
                }
                if lowlink[v_id as usize] == index[v_id as usize] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().unwrap();
                        on_stack[w as usize] = false;
                        comp.push(w);
                        if w == v_id {
                            break;
                        }
                    }
                    if comp.len() >= 2 {
                        comp.sort_unstable();
                        out.push(comp);
                    }
                }
            }
        }
    }
    out
}

/// Visit the simple cycles lying inside one SCC (`comp` must be one
/// component returned by [`sccs`] over the same [`Indexed`] graph). Cycles
/// are reported as node sequences (`[n0, n1, ..., nk]` meaning
/// `n0 → n1 → ... → nk → n0`), each exactly once, length ≤ `max_len` only.
///
/// Returns whether the walk was complete: `false` when the callback broke
/// it off, or when `max_len` cut a live branch — a node that is in the
/// anchor's sub-universe, can return to the anchor and is not yet on the
/// path. A cut at a dead node loses no cycle and does not count.
pub(crate) fn cycles_in_comp<F>(g: &Indexed, comp: &[u32], max_len: usize, cb: &mut F) -> bool
where
    F: FnMut(&[TxnId]) -> ControlFlow<()>,
{
    let n = g.len();
    // Scratch buffers reused across anchors. Non-component nodes stay
    // `false` in `allowed` throughout, which confines the walk to the SCC
    // (every simple cycle lies within one).
    let mut allowed = vec![false; n];
    let mut can_reach = vec![false; n];
    let mut on_path = vec![false; n];
    let mut bfs: Vec<u32> = Vec::new();
    let mut txn_path: Vec<TxnId> = Vec::new();
    let mut complete = true;

    for &anchor in comp {
        // Sub-universe for this anchor: same SCC, index ≥ anchor.
        for &v in comp {
            allowed[v as usize] = v >= anchor;
            can_reach[v as usize] = false;
        }
        // Reverse BFS from the anchor over allowed nodes: which nodes can
        // return to it?
        bfs.clear();
        bfs.push(anchor);
        can_reach[anchor as usize] = true;
        let mut head = 0;
        while head < bfs.len() {
            let v = bfs[head];
            head += 1;
            for &p in &g.pred[v as usize] {
                if allowed[p as usize] && !can_reach[p as usize] {
                    can_reach[p as usize] = true;
                    bfs.push(p);
                }
            }
        }

        // DFS from the anchor over nodes that can return to it. `on_path`
        // is restored to all-false by the unwinding pops (a break abandons
        // the scratch entirely).
        let mut stack: Vec<(u32, usize)> = vec![(anchor, 0)];
        txn_path.clear();
        txn_path.push(g.nodes[anchor as usize]);
        on_path[anchor as usize] = true;
        'dfs: while let Some(&mut (v, ref mut child)) = stack.last_mut() {
            let succs = &g.succ[v as usize];
            let mut advanced = false;
            while *child < succs.len() {
                let w = succs[*child];
                *child += 1;
                if w == anchor {
                    if cb(&txn_path).is_break() {
                        return false;
                    }
                    continue;
                }
                let wi = w as usize;
                if !allowed[wi] || !can_reach[wi] || on_path[wi] {
                    continue;
                }
                if txn_path.len() >= max_len {
                    complete = false;
                    continue;
                }
                on_path[wi] = true;
                txn_path.push(g.nodes[wi]);
                stack.push((w, 0));
                advanced = true;
                break;
            }
            if advanced {
                continue 'dfs;
            }
            // Exhausted this node.
            let (v, _) = stack.pop().unwrap();
            on_path[v as usize] = false;
            txn_path.pop();
        }
    }
    complete
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2pc_common::{GlobalTxnId, SiteId};
    use std::collections::BTreeSet;

    fn t(i: u64) -> TxnId {
        TxnId::Global(GlobalTxnId(i))
    }

    fn graph(edges: &[(u64, u64, u32)]) -> GlobalSg {
        let mut g = GlobalSg::new();
        for &(a, b, s) in edges {
            g.site_mut(SiteId(s)).add_edge(t(a), t(b));
        }
        g
    }

    fn complete_digraph(n: u64) -> GlobalSg {
        let mut edges = Vec::new();
        for a in 1..=n {
            for b in 1..=n {
                if a != b {
                    edges.push((a, b, 0u32));
                }
            }
        }
        graph(&edges)
    }

    /// Every cycle of length ≤ `max_len`, component by component, and
    /// whether every walk was complete.
    fn cycles(gsg: &GlobalSg, max_len: usize) -> (Vec<Vec<TxnId>>, bool) {
        let g = Indexed::new(gsg);
        let mut out = Vec::new();
        let mut complete = true;
        for comp in sccs(&g) {
            complete &= cycles_in_comp(&g, &comp, max_len, &mut |c: &[TxnId]| {
                out.push(c.to_vec());
                ControlFlow::Continue(())
            });
        }
        (out, complete)
    }

    #[test]
    fn acyclic_graph_has_no_sccs_or_cycles() {
        let g = graph(&[(1, 2, 0), (2, 3, 1), (1, 3, 0)]);
        assert!(sccs(&Indexed::new(&g)).is_empty());
        assert_eq!(cycles(&g, 10), (vec![], true));
    }

    #[test]
    fn cross_site_two_cycle() {
        let g = graph(&[(1, 2, 0), (2, 1, 1)]);
        let ix = Indexed::new(&g);
        assert_eq!(sccs(&ix), vec![vec![0, 1]]);
        assert_eq!(cycles(&g, 10), (vec![vec![t(1), t(2)]], true));
    }

    #[test]
    fn two_separate_cycles() {
        let g = graph(&[(1, 2, 0), (2, 1, 0), (3, 4, 1), (4, 3, 1)]);
        assert_eq!(sccs(&Indexed::new(&g)).len(), 2);
        assert_eq!(cycles(&g, 10).0.len(), 2);
    }

    #[test]
    fn figure_eight_enumerates_all_simple_cycles() {
        // 1→2→1 and 2→3→2 share node 2; simple cycles: (1 2), (2 3).
        let g = graph(&[(1, 2, 0), (2, 1, 0), (2, 3, 0), (3, 2, 0)]);
        let mut found = cycles(&g, 10).0;
        for c in &mut found {
            c.sort_unstable();
        }
        found.sort();
        assert_eq!(found, vec![vec![t(1), t(2)], vec![t(2), t(3)]]);
    }

    #[test]
    fn triangle_with_chord() {
        // 1→2→3→1 plus chord 1→3: cycles (1 2 3) and (1 3).
        let g = graph(&[(1, 2, 0), (2, 3, 0), (3, 1, 0), (1, 3, 0)]);
        let found = cycles(&g, 10).0;
        assert_eq!(found.len(), 2);
        let lens: BTreeSet<usize> = found.iter().map(Vec::len).collect();
        assert_eq!(lens, BTreeSet::from([2, 3]));
    }

    #[test]
    fn max_len_cut_of_a_live_branch_makes_the_walk_incomplete() {
        let g = graph(&[(1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 1, 0)]);
        assert_eq!(cycles(&g, 3), (vec![], false));
        assert_eq!(cycles(&g, 4).0.len(), 1);
        assert!(cycles(&g, 4).1);
    }

    #[test]
    fn max_len_cut_of_a_dead_branch_keeps_the_walk_complete() {
        // 1⇄2 is the only cycle; 2→3→4 leads nowhere back, so stopping at
        // length 2 loses nothing.
        let g = graph(&[(1, 2, 0), (2, 1, 0), (2, 3, 0), (3, 4, 0)]);
        assert_eq!(cycles(&g, 2), (vec![vec![t(1), t(2)]], true));
    }

    #[test]
    fn callback_break_stops_the_walk() {
        let g = complete_digraph(6);
        let ix = Indexed::new(&g);
        let comp = &sccs(&ix)[0];
        let mut seen = 0;
        let complete = cycles_in_comp(&ix, comp, 6, &mut |_: &[TxnId]| {
            seen += 1;
            if seen == 3 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!((seen, complete), (3, false));
    }

    #[test]
    fn dense_graph_enumeration_is_fast() {
        // 60-node near-complete digraph: without reach-pruning and early
        // exits this would explode; with them, finding 1000 short cycles is
        // immediate.
        let mut edges = Vec::new();
        for a in 0..60u64 {
            for b in 0..60u64 {
                if a != b && (a + b) % 3 != 0 {
                    edges.push((a, b, (a % 3) as u32));
                }
            }
        }
        let g = graph(&edges);
        let ix = Indexed::new(&g);
        let start = std::time::Instant::now();
        let mut seen = 0;
        for comp in sccs(&ix) {
            cycles_in_comp(&ix, &comp, 8, &mut |_: &[TxnId]| {
                if seen == 1000 {
                    return ControlFlow::Break(());
                }
                seen += 1;
                ControlFlow::Continue(())
            });
        }
        assert_eq!(seen, 1000);
        assert!(
            start.elapsed().as_secs() < 5,
            "enumeration too slow: {:?}",
            start.elapsed()
        );
    }
}
