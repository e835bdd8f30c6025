//! The cycle searches behind deadlock detection, generic over the node type
//! so the engine's lifted (cross-site) waits-for graph uses the same searches
//! as a site's local one: [`find_cycle`] over a whole graph, and
//! [`CycleWalk`] from one node over successors computed on demand.

use o2pc_common::{FastHashMap, FastHashSet};
use std::hash::Hash;

/// A reachability walk that asks whether a cycle passes through one node,
/// visiting only the part of the graph that node reaches. Its buffers are
/// kept between walks, so a walk allocates only while it meets a larger
/// graph than any before.
#[derive(Clone, Debug)]
pub struct CycleWalk<N> {
    stack: Vec<N>,
    seen: FastHashSet<N>,
}

impl<N> Default for CycleWalk<N> {
    fn default() -> Self {
        Self {
            stack: Vec::new(),
            seen: FastHashSet::default(),
        }
    }
}

impl<N: Copy + Eq + Hash> CycleWalk<N> {
    /// Does a walk from `start` return to it? `succ(n, out)` appends the
    /// successors of `n` to `out`, repeats allowed; each node's are asked
    /// for at most once.
    pub fn returns_to(&mut self, start: N, mut succ: impl FnMut(N, &mut Vec<N>)) -> bool {
        let Self { stack, seen } = self;
        stack.clear();
        seen.clear();
        succ(start, stack);
        while let Some(node) = stack.pop() {
            if node == start {
                return true;
            }
            if seen.insert(node) {
                succ(node, stack);
            }
        }
        false
    }
}

/// Find one cycle in a directed graph given as an adjacency map.
///
/// Depth-first from every key in ascending order, successors in stored
/// order; the cycle is the path suffix starting at the node the search
/// re-entered. Both orders are fixed by the input, so equal graphs yield
/// equal cycles — victim selection depends on it.
pub fn find_cycle<N: Copy + Eq + Hash + Ord>(adj: &FastHashMap<N, Vec<N>>) -> Option<Vec<N>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Colour {
        Grey,
        Black,
    }
    let mut colour: FastHashMap<N, Colour> = FastHashMap::default();
    let mut roots: Vec<N> = adj.keys().copied().collect();
    roots.sort_unstable();
    for root in roots {
        if colour.contains_key(&root) {
            continue;
        }
        let mut stack: Vec<(N, usize)> = vec![(root, 0)];
        let mut path: Vec<N> = vec![root];
        colour.insert(root, Colour::Grey);
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let succs = adj.get(&node).map(Vec::as_slice).unwrap_or(&[]);
            if *next < succs.len() {
                let s = succs[*next];
                *next += 1;
                match colour.get(&s) {
                    Some(Colour::Grey) => {
                        let pos = path
                            .iter()
                            .position(|&n| n == s)
                            .expect("grey nodes are exactly the path");
                        return Some(path[pos..].to_vec());
                    }
                    Some(Colour::Black) => {}
                    None => {
                        colour.insert(s, Colour::Grey);
                        stack.push((s, 0));
                        path.push(s);
                    }
                }
            } else {
                colour.insert(node, Colour::Black);
                stack.pop();
                path.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(edges: &[(u32, u32)]) -> FastHashMap<u32, Vec<u32>> {
        let mut adj: FastHashMap<u32, Vec<u32>> = FastHashMap::default();
        for &(a, b) in edges {
            adj.entry(a).or_default().push(b);
        }
        adj
    }

    #[test]
    fn acyclic_graph_has_no_cycle() {
        assert_eq!(find_cycle(&graph(&[(1, 2), (2, 3), (4, 3)])), None);
        assert_eq!(find_cycle(&graph(&[])), None);
    }

    #[test]
    fn of_two_cycles_the_one_reached_from_the_smallest_root_wins() {
        // 1 is only a tail into the cycle 2 → 3 → 4 → 2; 7 ⇄ 8 is never
        // searched. The cycle starts at the re-entered node, not at the root.
        let adj = graph(&[(8, 7), (7, 8), (4, 2), (3, 4), (2, 3), (1, 2)]);
        assert_eq!(find_cycle(&adj), Some(vec![2, 3, 4]));
    }

    #[test]
    fn edge_into_a_finished_node_is_not_a_cycle() {
        // The search from 1 finishes (blackens) 2 and 3; the later root 5
        // reaches 2 again, which closes nothing.
        assert_eq!(find_cycle(&graph(&[(1, 2), (2, 3), (5, 2), (5, 3)])), None);
        // Same within one search: 3 is finished via 2 before 1 tries it.
        assert_eq!(find_cycle(&graph(&[(1, 2), (2, 3), (1, 3)])), None);
    }

    #[test]
    fn walk_sees_only_cycles_through_its_start() {
        // 1 reaches the cycle 2 → 3 → 2 but is not on it; 4 → 5 → 4 is not
        // reached from 1 at all.
        let adj = graph(&[(1, 2), (2, 3), (3, 2), (4, 5), (5, 4)]);
        let mut walk = CycleWalk::default();
        let mut asked = Vec::new();
        let from_1 = walk.returns_to(1, |n, out| {
            asked.push(n);
            out.extend(adj.get(&n).into_iter().flatten());
        });
        assert!(!from_1);
        asked.sort_unstable();
        assert_eq!(asked, vec![1, 2, 3], "each reached node asked once");
        let succ = |n: u32, out: &mut Vec<u32>| out.extend(adj.get(&n).into_iter().flatten());
        assert!(walk.returns_to(2, succ));
        assert!(walk.returns_to(5, succ));
    }

    #[test]
    fn walk_through_a_diamond_is_not_a_cycle() {
        let adj = graph(&[(1, 2), (1, 3), (2, 4), (3, 4), (4, 1)]);
        let mut walk = CycleWalk::default();
        let succ = |n: u32, out: &mut Vec<u32>| out.extend(adj.get(&n).into_iter().flatten());
        assert!(walk.returns_to(2, succ));
        let acyclic = graph(&[(1, 2), (1, 3), (2, 4), (3, 4), (2, 4)]);
        let succ = |n: u32, out: &mut Vec<u32>| out.extend(acyclic.get(&n).into_iter().flatten());
        assert!(!walk.returns_to(1, succ));
    }
}
