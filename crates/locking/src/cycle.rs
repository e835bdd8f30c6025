//! The cycle finder behind deadlock detection, generic over the node type so
//! the engine's lifted (cross-site) waits-for graph uses the same search as a
//! site's local one.

use o2pc_common::FastHashMap;
use std::hash::Hash;

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
}
