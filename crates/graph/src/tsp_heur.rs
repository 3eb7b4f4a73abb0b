//! Tour-construction helpers outside the paper's algorithms.
//!
//! [`nearest_neighbor`] is an independent construction baseline for
//! tests. [`knn_candidates`] builds spatial-index-backed neighbour lists
//! in `O(n · k · log n)`; the `perpetuum-opt` refiner, the workspace's one
//! tour-improvement kernel, limits its move scans to them.

use crate::dist::Metric;
use crate::tour::Tour;
use perpetuum_geom::{knn_lists, KdTree, Point2};

/// Nearest-neighbour tour over all nodes of `dist`, starting at `start`.
pub fn nearest_neighbor<M: Metric>(dist: &M, start: usize) -> Tour {
    let n = dist.len();
    assert!(start < n, "start out of bounds");
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut cur = start;
    visited[cur] = true;
    order.push(cur);
    for _ in 1..n {
        let mut best = usize::MAX;
        let mut bd = f64::INFINITY;
        for (v, &vis) in visited.iter().enumerate() {
            if !vis {
                let d = dist.get(cur, v);
                if d < bd {
                    bd = d;
                    best = v;
                }
            }
        }
        visited[best] = true;
        order.push(best);
        cur = best;
    }
    Tour::new(order)
}

/// Candidate lists from the kd-tree index: each node in `nodes` gets its
/// `k` nearest other members of `nodes`, nearest first (by position in
/// `points`, which is indexed by global node id). Runs in
/// `O(n · k · log n)` — the scalable replacement for sorting full distance
/// rows. The returned vector is indexed by global node id; ids below the
/// largest member that are not in `nodes` get empty lists.
pub fn knn_candidates(points: &[Point2], nodes: &[usize], k: usize) -> Vec<Vec<usize>> {
    let max_id = match nodes.iter().copied().max() {
        Some(m) => m + 1,
        None => return Vec::new(),
    };
    let pts: Vec<Point2> = nodes.iter().map(|&v| points[v]).collect();
    let tree = KdTree::new(&pts);
    let lists = knn_lists(&tree, k);
    let mut out = vec![Vec::new(); max_id];
    for (i, list) in lists.into_iter().enumerate() {
        out[nodes[i]] = list.into_iter().map(|j| nodes[j]).collect();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DistMatrix;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point2> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect()
    }

    #[test]
    fn nn_visits_everything_once() {
        let d = DistMatrix::from_points(&random_points(30, 1));
        let t = nearest_neighbor(&d, 5);
        assert_eq!(t.start(), Some(5));
        let mut nodes: Vec<usize> = t.nodes().to_vec();
        nodes.sort_unstable();
        assert_eq!(nodes, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn knn_candidates_match_brute_force() {
        // Lists over a scattered subset of the global ids: every member's
        // list is its k nearest other members, nearest first; every other
        // id gets an empty list.
        for (seed, k) in [(9u64, 6usize), (10, 1), (11, 40)] {
            let pts = random_points(60, seed);
            let nodes: Vec<usize> = (seed as usize % 3..pts.len()).step_by(3).collect();
            let cands = knn_candidates(&pts, &nodes, k);
            assert_eq!(cands.len(), nodes.iter().max().map_or(0, |&m| m + 1));
            for (v, list) in cands.iter().enumerate() {
                if !nodes.contains(&v) {
                    assert!(list.is_empty(), "seed {seed}: id {v} is not a member");
                    continue;
                }
                let mut brute: Vec<usize> = nodes.iter().copied().filter(|&u| u != v).collect();
                brute.sort_by(|&a, &b| pts[v].dist(pts[a]).total_cmp(&pts[v].dist(pts[b])));
                brute.truncate(k);
                assert_eq!(list, &brute, "seed {seed}, k {k}: list of {v}");
            }
        }
        assert!(knn_candidates(&random_points(5, 0), &[], 3).is_empty());
    }

    #[test]
    fn index_backed_candidates_match_row_sorted_quality() {
        // knn_candidates (kd-tree) must produce the same neighbour sets as
        // sorting full distance rows, up to tie order: the same ids and the
        // same distances, nearest first.
        for seed in 40..46 {
            let pts = random_points(80, seed);
            let d = DistMatrix::from_points(&pts);
            let nodes: Vec<usize> = (0..pts.len()).collect();
            let cands = knn_candidates(&pts, &nodes, 12);
            for &a in &nodes {
                let mut row: Vec<usize> = nodes.iter().copied().filter(|&b| b != a).collect();
                row.sort_by(|&x, &y| d.get(a, x).total_cmp(&d.get(a, y)));
                row.truncate(12);
                let list = &cands[a];
                assert_eq!(list.len(), row.len(), "seed {seed}: list of {a}");
                for (&x, &y) in list.iter().zip(&row) {
                    assert!((d.get(a, x) - d.get(a, y)).abs() < 1e-9, "seed {seed}: list of {a}");
                }
                let (mut got, mut want) = (list.clone(), row);
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "seed {seed}: list of {a}");
            }
        }
    }

    #[test]
    fn candidates_outside_tour_are_skipped() {
        // Lists built for a tour over a subset of the global ids: off-tour
        // ids never appear as candidates and get empty lists, and the slice
        // ends at the largest member.
        let pts = random_points(40, 9);
        for tour in
            [(0..pts.len()).step_by(3).collect::<Vec<usize>>(), (1..20).step_by(2).collect()]
        {
            let cands = knn_candidates(&pts, &tour, 10);
            assert_eq!(cands.len(), tour.iter().max().unwrap() + 1);
            for (v, list) in cands.iter().enumerate() {
                if !tour.contains(&v) {
                    assert!(list.is_empty(), "off-tour id {v} has candidates");
                    continue;
                }
                assert_eq!(list.len(), 10.min(tour.len() - 1));
                assert!(list.iter().all(|&c| c != v && tour.contains(&c)), "list of {v}: {list:?}");
                let mut dedup = list.clone();
                dedup.sort_unstable();
                dedup.dedup();
                assert_eq!(dedup.len(), list.len(), "list of {v} repeats an id");
            }
        }
    }

    #[test]
    fn two_opt_fixes_crossing() {
        // A deliberately crossed square tour 0-2-1-3 has length 2+2√2. The
        // uncrossing 2-opt move replaces edges (0,2), (1,3) with (0,1),
        // (2,3); a candidate-restricted scan finds it only if 1 is on 0's
        // list. At k = 2 every list holds exactly the two sides, never the
        // diagonal, and the move recovers the perimeter (4).
        let pts = [
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
        ];
        let d = DistMatrix::from_points(&pts);
        let cands = knn_candidates(&pts, &[0, 1, 2, 3], 2);
        for (v, diagonal) in [(0, 2), (1, 3), (2, 0), (3, 1)] {
            let mut list = cands[v].clone();
            list.sort_unstable();
            let sides: Vec<usize> = (0..4).filter(|&u| u != v && u != diagonal).collect();
            assert_eq!(list, sides, "list of {v}");
        }
        let crossed = Tour::new(vec![0, 2, 1, 3]);
        assert!((crossed.length(&d) - (2.0 + 2.0 * 2f64.sqrt())).abs() < 1e-9);
        assert!(cands[0].contains(&1));
        let mut nodes = crossed.into_nodes();
        nodes[1..=2].reverse();
        assert!((Tour::new(nodes).length(&d) - 4.0).abs() < 1e-9);
    }
}
