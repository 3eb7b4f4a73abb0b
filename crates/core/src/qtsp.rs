//! **Algorithm 2** — the 2-approximate `q`-rooted TSP.
//!
//! Find `q` closed tours, one through each depot, jointly covering a given
//! sensor set, of minimum total length. The paper's 2-approximation:
//!
//! 1. compute the optimal `q`-rooted MSF (Algorithm 1, [`crate::qmsf`]),
//! 2. double each tree's edges, extract an Euler circuit from the depot,
//!    and shortcut repeated nodes.
//!
//! The MSF weight lower-bounds the optimal tour cost (drop one edge per
//! optimal tour and you get a feasible forest), and doubling at most
//! doubles it — Theorem 1.
//!
//! Tour *improvement* is not part of the paper's algorithm and not done
//! here: [`mod@crate::refine`] runs the `perpetuum-opt` local search as a
//! post-pass over finished tour sets.

use crate::qmsf::{q_rooted_msf_src, ForestEdge};
use perpetuum_graph::euler::{double_edges, euler_circuit};
use perpetuum_graph::tsp_christofides::tour_from_tree_matched;
use perpetuum_graph::tsp_savings::savings_tour;
use perpetuum_graph::{DistSource, Metric, Tour};

/// How each MSF tree is turned into a closed tour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Routing {
    /// The paper's Algorithm 2: double the tree, Euler circuit, shortcut.
    /// Carries the provable 2× bound.
    #[default]
    Doubling,
    /// Christofides-style: tree + greedy minimum matching over its
    /// odd-degree vertices, Euler circuit, shortcut. Empirically shorter;
    /// still within the doubling bound (a matching never outweighs the
    /// tree). Routing-ablation only — not part of the paper's algorithm.
    Matching,
    /// Clarke–Wright savings construction over each MSF group's sensor
    /// set (only the group membership comes from Algorithm 1; the tour is
    /// built from scratch). No approximation guarantee; routing-ablation
    /// only.
    Savings,
}

/// The `q` closed tours produced by Algorithm 2.
#[derive(Debug, Clone)]
pub struct QTours {
    /// `tours[l]` starts at root `l` (as a node id of the host graph). A
    /// charger with nothing to do gets a singleton tour of its depot.
    pub tours: Vec<Tour>,
    /// `tour_lengths[l]` — length of `tours[l]`.
    pub tour_lengths: Vec<f64>,
    /// Total length of all tours (the sum of `tour_lengths`).
    pub cost: f64,
}

impl QTours {
    /// Recomputes the total length (used by tests to cross-check `cost`).
    pub fn total_length<M: Metric>(&self, dist: &M) -> f64 {
        self.tours.iter().map(|t| t.length(dist)).sum()
    }

    /// All sensor node ids covered, ascending. `roots` is consulted to
    /// exclude depots.
    pub fn covered_nodes(&self, is_root: impl Fn(usize) -> bool) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .tours
            .iter()
            .flat_map(|t| t.nodes().iter().copied())
            .filter(|&n| !is_root(n))
            .collect();
        v.sort_unstable();
        v
    }
}

/// **Algorithm 2** on a host graph: closed tours over `terminals`, one per
/// root in `roots` (node ids of `src`), each tree turned into a tour by
/// `routing`.
///
/// `Dense` sources reproduce the classic pipeline exactly; `Points`
/// sources use the sparse super-root MSF
/// ([`crate::qmsf::q_rooted_msf_sparse`]) and compute distances on demand,
/// so no dense matrix is ever forced.
///
/// ```
/// use perpetuum_core::qtsp::{q_rooted_tsp, Routing};
/// use perpetuum_geom::Point2;
/// use perpetuum_graph::{DistMatrix, DistSource};
///
/// // Nodes 0–2 are sensors, 3 and 4 are depots.
/// let dist = DistMatrix::from_points(&[
///     Point2::new(10.0, 0.0),
///     Point2::new(20.0, 0.0),
///     Point2::new(90.0, 0.0),
///     Point2::new(0.0, 0.0),   // depot A
///     Point2::new(100.0, 0.0), // depot B
/// ]);
/// let tours = q_rooted_tsp(&DistSource::dense(&dist), &[0, 1, 2], &[3, 4], Routing::Doubling);
/// assert_eq!(tours.tours.len(), 2);
/// // Near sensors go to depot A, the far one to depot B.
/// assert_eq!(tours.tours[0].nodes(), &[3, 0, 1]);
/// assert_eq!(tours.tours[1].nodes(), &[4, 2]);
/// assert!((tours.cost - (40.0 + 20.0)).abs() < 1e-9);
/// ```
pub fn q_rooted_tsp(
    src: &DistSource<'_>,
    terminals: &[usize],
    roots: &[usize],
    routing: Routing,
) -> QTours {
    debug_assert!(
        terminals.iter().all(|t| !roots.contains(t)),
        "terminals and roots must be disjoint"
    );
    let forest = q_rooted_msf_src(src, terminals, roots);
    let workers = default_tour_workers(terminals.len(), roots.len());
    tours_for_forest_src(src, &forest, terminals, roots, routing, 0, workers)
}

/// The worker count the parallel per-root tour build defaults to.
///
/// Thread spawn costs ~tens of µs; below [`PAR_TERMINALS_THRESHOLD`]
/// terminals the whole per-root build is cheaper than that, so stay
/// sequential (the result is identical either way — see
/// [`tours_for_forest_src`]).
pub(crate) fn default_tour_workers(terminal_count: usize, root_count: usize) -> usize {
    const PAR_TERMINALS_THRESHOLD: usize = 256;
    if terminal_count >= PAR_TERMINALS_THRESHOLD {
        perpetuum_par::default_workers(root_count)
    } else {
        1
    }
}

/// The tour-construction half of Algorithm 2: turns an already-computed
/// `q`-rooted forest ([`crate::qmsf::q_rooted_msf_src`]) into per-root
/// closed tours on `workers` threads. Callers that keep the forest (the
/// variable-cycle base builds, the incremental replanner) or pin the
/// worker count (the parity tests) call it directly.
///
/// Each root's tour depends only on its own tree, so the per-root builds
/// are embarrassingly parallel; results are collected in root order and
/// the cost is summed in that same order, making the output
/// **bit-identical** for any worker count.
///
/// `polish_rounds` must be 0: the parameter only keeps the signature the
/// benchmark's cold-plan replay (`perfbench/src/plan_cold.rs`) calls.
pub fn tours_for_forest_src(
    src: &DistSource<'_>,
    forest: &crate::qmsf::RootedForest,
    terminals: &[usize],
    roots: &[usize],
    routing: Routing,
    polish_rounds: usize,
    workers: usize,
) -> QTours {
    assert_eq!(polish_rounds, 0, "tour improvement is crate::refine's job");
    let groups = (routing == Routing::Savings).then(|| forest.terminals_by_root());
    let node_count = src.len();

    let build_tour = |r: usize| -> Tour {
        let root_node = roots[r];
        let edges: Vec<(usize, usize)> = forest.trees[r]
            .iter()
            .map(|e| match *e {
                ForestEdge::TermTerm(a, b) => (terminals[a], terminals[b]),
                ForestEdge::RootTerm(_, t) => (root_node, terminals[t]),
            })
            .collect();
        if edges.is_empty() {
            return Tour::singleton(root_node);
        }
        let tour = match routing {
            Routing::Doubling => tour_from_tree_doubling(&edges, root_node),
            Routing::Matching => tour_from_tree_matched(src, node_count, &edges, root_node),
            Routing::Savings => {
                let group = &groups.as_ref().expect("grouped for savings")[r];
                let customers: Vec<usize> = group.iter().map(|&t| terminals[t]).collect();
                savings_tour(src, root_node, &customers)
            }
        };
        debug_assert_eq!(tour.start(), Some(root_node));
        tour
    };

    let tours = perpetuum_par::par_map_indexed(roots.len(), workers, build_tour);
    let tour_lengths: Vec<f64> = tours.iter().map(|t| t.length(src)).collect();
    let cost = tour_lengths.iter().sum();
    QTours { tours, tour_lengths, cost }
}

/// The paper's tree-to-tour step for a single root: double the tree's
/// edges, walk an Euler circuit from the root, shortcut repeated nodes.
///
/// `edges` are the tree's edges in *host node-id* space and must form one
/// tree containing `root_node`; an empty edge list yields a singleton tour.
/// This is the exact Doubling arm of [`tours_for_forest_src`], exposed
/// so the incremental replanner can rebuild a single root's tour from a
/// spliced forest tree (its fallback when warm-start repair loses to a
/// fresh construction).
pub fn tour_from_tree_doubling(edges: &[(usize, usize)], root_node: usize) -> Tour {
    if edges.is_empty() {
        return Tour::singleton(root_node);
    }
    // Relabel this root's tree onto a compact node space before the Euler
    // walk: the walk only touches the tree's own nodes, but `euler_circuit`
    // allocates adjacency for every node id below its bound. In-sim replans
    // route small batches through here every polling tick, and paying
    // O(network) per root would dwarf the batch itself. The relabeling is
    // an isomorphism that preserves edge order, so the circuit (and hence
    // the tour) is unchanged.
    let mut locals: Vec<usize> = vec![root_node];
    let mut index = std::collections::HashMap::with_capacity(edges.len() + 1);
    index.insert(root_node, 0usize);
    let compact: Vec<(usize, usize)> = edges
        .iter()
        .map(|&(u, v)| {
            (compact_id(u, &mut index, &mut locals), compact_id(v, &mut index, &mut locals))
        })
        .collect();
    let doubled = double_edges(&compact);
    let circuit = euler_circuit(locals.len(), &doubled, 0)
        .expect("a doubled tree always has an Euler circuit from its root");
    let walk: Vec<usize> = circuit.iter().map(|&v| locals[v]).collect();
    Tour::shortcut(&walk)
}

/// Dense-index helper for the Euler relabeling above: the id of `x` in the
/// compact space, allocating the next one on first sight.
fn compact_id(
    x: usize,
    index: &mut std::collections::HashMap<usize, usize>,
    locals: &mut Vec<usize>,
) -> usize {
    *index.entry(x).or_insert_with(|| {
        locals.push(x);
        locals.len() - 1
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qmsf::q_rooted_msf;
    use perpetuum_geom::Point2;
    use perpetuum_graph::tsp_exact::held_karp;
    use perpetuum_graph::DistMatrix;

    fn tsp(dist: &DistMatrix, terminals: &[usize], roots: &[usize], routing: Routing) -> QTours {
        q_rooted_tsp(&DistSource::dense(dist), terminals, roots, routing)
    }

    fn host(sensors: &[Point2], depots: &[Point2]) -> DistMatrix {
        let all: Vec<Point2> = sensors.iter().chain(depots.iter()).copied().collect();
        DistMatrix::from_points(&all)
    }

    #[test]
    fn empty_terminals_gives_singleton_tours() {
        let dist = host(&[], &[Point2::ORIGIN, Point2::new(1.0, 1.0)]);
        let qt = tsp(&dist, &[], &[0, 1], Routing::Doubling);
        assert_eq!(qt.cost, 0.0);
        assert_eq!(qt.tours.len(), 2);
        assert!(qt.tours.iter().all(|t| t.len() == 1));
    }

    #[test]
    fn single_sensor_out_and_back() {
        let dist = host(&[Point2::new(3.0, 4.0)], &[Point2::ORIGIN]);
        let qt = tsp(&dist, &[0], &[1], Routing::Doubling);
        assert!((qt.cost - 10.0).abs() < 1e-9);
        assert_eq!(qt.tours[0].nodes(), &[1, 0]);
    }

    #[test]
    fn tours_start_at_their_roots_and_cover_terminals() {
        let sensors: Vec<Point2> = (0..10)
            .map(|i| Point2::new((i * 13 % 7) as f64 * 30.0, (i * 7 % 5) as f64 * 40.0))
            .collect();
        let depots = vec![Point2::new(0.0, 0.0), Point2::new(200.0, 200.0)];
        let dist = host(&sensors, &depots);
        let terminals: Vec<usize> = (0..10).collect();
        let roots = vec![10, 11];
        let qt = tsp(&dist, &terminals, &roots, Routing::Doubling);
        for (l, t) in qt.tours.iter().enumerate() {
            assert_eq!(t.start(), Some(roots[l]));
        }
        assert_eq!(qt.covered_nodes(|n| n >= 10), terminals);
        assert!((qt.cost - qt.total_length(&dist)).abs() < 1e-9);
    }

    #[test]
    fn cost_within_twice_msf_weight() {
        let sensors: Vec<Point2> = (0..15)
            .map(|i| Point2::new(((i * 37) % 101) as f64 * 9.0, ((i * 53) % 97) as f64 * 10.0))
            .collect();
        let depots =
            vec![Point2::new(100.0, 100.0), Point2::new(800.0, 100.0), Point2::new(450.0, 800.0)];
        let dist = host(&sensors, &depots);
        let terminals: Vec<usize> = (0..15).collect();
        let roots = vec![15, 16, 17];
        let forest = q_rooted_msf(&dist, &terminals, &roots);
        let qt = tsp(&dist, &terminals, &roots, Routing::Doubling);
        assert!(qt.cost <= 2.0 * forest.weight + 1e-9);
        // MSF also lower-bounds the tour cost itself.
        assert!(qt.cost >= forest.weight - 1e-9);
    }

    #[test]
    fn q1_within_twice_exact_optimum() {
        // With q = 1 the problem is plain TSP; compare against Held–Karp.
        for seed in 0..4u64 {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let sensors: Vec<Point2> = (0..9)
                .map(|_| Point2::new(rng.gen_range(0.0..500.0), rng.gen_range(0.0..500.0)))
                .collect();
            let depot = vec![Point2::new(250.0, 250.0)];
            let dist = host(&sensors, &depot);
            let terminals: Vec<usize> = (0..9).collect();
            let qt = tsp(&dist, &terminals, &[9], Routing::Doubling);
            // Full-graph TSP (all 10 nodes) is the q=1 optimum.
            let (_, opt) = held_karp(&dist);
            assert!(qt.cost <= 2.0 * opt + 1e-9, "seed {seed}: approx {} vs opt {opt}", qt.cost);
            assert!(qt.cost >= opt - 1e-9);
        }
    }

    #[test]
    fn matching_routing_covers_and_stays_within_doubling_bound() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let sensors: Vec<Point2> = (0..20)
            .map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect();
        let depots = vec![Point2::new(500.0, 500.0), Point2::new(0.0, 0.0)];
        let dist = host(&sensors, &depots);
        let terminals: Vec<usize> = (0..20).collect();
        let roots = vec![20, 21];
        let forest = q_rooted_msf(&dist, &terminals, &roots);
        let matched = tsp(&dist, &terminals, &roots, Routing::Matching);
        assert_eq!(matched.covered_nodes(|n| n >= 20), terminals);
        assert!(matched.cost <= 2.0 * forest.weight + 1e-9);
        for (l, t) in matched.tours.iter().enumerate() {
            assert_eq!(t.start(), Some(roots[l]));
        }
    }

    #[test]
    fn savings_routing_covers_and_competes() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let sensors: Vec<Point2> = (0..25)
            .map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect();
        let depots = vec![Point2::new(500.0, 500.0), Point2::new(100.0, 100.0)];
        let dist = host(&sensors, &depots);
        let terminals: Vec<usize> = (0..25).collect();
        let roots = vec![25, 26];
        let saved = tsp(&dist, &terminals, &roots, Routing::Savings);
        assert_eq!(saved.covered_nodes(|n| n >= 25), terminals);
        for (l, t) in saved.tours.iter().enumerate() {
            assert_eq!(t.start(), Some(roots[l]));
        }
        // No guarantee, but it should at least beat the star bound.
        let star: f64 = terminals
            .iter()
            .map(|&s| 2.0 * roots.iter().map(|&r| dist.get(s, r)).fold(f64::INFINITY, f64::min))
            .sum();
        assert!(saved.cost <= star + 1e-9);
    }

    #[test]
    fn matching_routing_beats_doubling_on_average() {
        use rand::{Rng, SeedableRng};
        let mut matched_total = 0.0;
        let mut doubled_total = 0.0;
        for seed in 0..8u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 300);
            let sensors: Vec<Point2> = (0..30)
                .map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
                .collect();
            let depots = vec![Point2::new(500.0, 500.0)];
            let dist = host(&sensors, &depots);
            let terminals: Vec<usize> = (0..30).collect();
            matched_total += tsp(&dist, &terminals, &[30], Routing::Matching).cost;
            doubled_total += tsp(&dist, &terminals, &[30], Routing::Doubling).cost;
        }
        assert!(
            matched_total < doubled_total,
            "matched {matched_total} vs doubled {doubled_total}"
        );
    }

    #[test]
    fn parallel_per_root_tours_are_bit_identical() {
        // Above the parallel threshold, any worker count must reproduce the
        // sequential result exactly — same tours, same cost bits.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let n = 300;
        let sensors: Vec<Point2> = (0..n)
            .map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect();
        let depots = vec![
            Point2::new(100.0, 100.0),
            Point2::new(900.0, 100.0),
            Point2::new(500.0, 900.0),
            Point2::new(500.0, 500.0),
        ];
        let dist = host(&sensors, &depots);
        let src = DistSource::dense(&dist);
        let terminals: Vec<usize> = (0..n).collect();
        let roots: Vec<usize> = (n..n + 4).collect();
        let forest = q_rooted_msf_src(&src, &terminals, &roots);
        let build = |routing, workers| {
            tours_for_forest_src(&src, &forest, &terminals, &roots, routing, 0, workers)
        };
        for routing in [Routing::Doubling, Routing::Matching, Routing::Savings] {
            let seq = build(routing, 1);
            for workers in [2, 4, 7] {
                let par = build(routing, workers);
                assert_eq!(seq.cost.to_bits(), par.cost.to_bits(), "{routing:?}/{workers}");
                for (a, b) in seq.tours.iter().zip(&par.tours) {
                    assert_eq!(a.nodes(), b.nodes(), "{routing:?}/{workers}");
                }
            }
        }
    }

    #[test]
    fn sparse_source_matches_dense_pipeline() {
        // A Points source solves the same MSF (weight parity is asserted
        // exactly in qmsf::tests), but its Prim emits tree edges in a
        // different order, so Euler shortcutting can pick a different —
        // equally valid — tour. Assert the actual guarantees: identical
        // coverage, the 2×MSF bound, and costs within a few percent.
        use rand::{Rng, SeedableRng};
        for seed in 0..5u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 900);
            let n = 60;
            let sensors: Vec<Point2> = (0..n)
                .map(|_| Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
                .collect();
            let depots = [Point2::new(250.0, 250.0), Point2::new(750.0, 750.0)];
            let all: Vec<Point2> = sensors.iter().chain(depots.iter()).copied().collect();
            let dist = DistMatrix::from_points(&all);
            let terminals: Vec<usize> = (0..n).collect();
            let roots = vec![n, n + 1];
            let dense = tsp(&dist, &terminals, &roots, Routing::Doubling);
            let sparse =
                q_rooted_tsp(&DistSource::points(&all), &terminals, &roots, Routing::Doubling);
            assert_eq!(
                dense.covered_nodes(|v| v >= n),
                sparse.covered_nodes(|v| v >= n),
                "seed {seed}"
            );
            let msf = q_rooted_msf(&dist, &terminals, &roots);
            for (label, qt) in [("dense", &dense), ("sparse", &sparse)] {
                assert!(qt.cost <= 2.0 * msf.weight + 1e-9, "seed {seed} {label}");
                assert!(qt.cost >= msf.weight - 1e-9, "seed {seed} {label}");
            }
            let rel = (dense.cost - sparse.cost).abs() / dense.cost;
            assert!(
                rel < 0.25,
                "seed {seed}: dense {} vs sparse {} (rel {rel})",
                dense.cost,
                sparse.cost
            );
        }
    }

    #[test]
    fn far_sensor_goes_to_near_depot() {
        // One sensor next to depot 1 must not be toured by depot 0.
        let dist =
            host(&[Point2::new(99.0, 0.0)], &[Point2::new(0.0, 0.0), Point2::new(100.0, 0.0)]);
        let qt = tsp(&dist, &[0], &[1, 2], Routing::Doubling);
        assert_eq!(qt.tours[0].len(), 1);
        assert_eq!(qt.tours[1].nodes(), &[2, 0]);
        assert!((qt.cost - 2.0).abs() < 1e-9);
    }
}
