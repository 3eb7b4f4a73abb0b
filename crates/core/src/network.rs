//! The network model of Section III: sensors, depots and the metric
//! complete graph `G = (V ∪ R, E; w)` over them.

use perpetuum_geom::Point2;
use perpetuum_graph::{DistMatrix, DistSource};
use std::sync::{Arc, OnceLock};

/// A sensor index, `0..n`.
pub type SensorId = usize;

/// The geometry of a WSN charging problem: sensor and depot positions plus
/// the Euclidean metric closure over all of them.
///
/// Node-id convention used across the whole workspace: node `i < n` is
/// sensor `i`; node `n + l` is depot `l` (`0 ≤ l < q`). Charging cycles are
/// deliberately *not* part of this type — the fixed-cycle planners take an
/// [`Instance`], while the variable-cycle machinery re-estimates cycles
/// continuously and passes them explicitly.
///
/// Cloning is cheap in the matrix: every clone of a dense network shares
/// one lazily filled cell, so the `Θ((n+q)²)` matrix is built at most once,
/// by whichever clone first asks for a distance, and never copied.
#[derive(Debug, Clone)]
pub struct Network {
    sensor_pos: Vec<Point2>,
    depot_pos: Vec<Point2>,
    /// All node positions in id order (sensors then depots) — the backing
    /// store for the on-demand [`DistSource::Points`] representation.
    all_pos: Vec<Point2>,
    /// Dense metric closure, filled from `all_pos` on first use; `None`
    /// for sparse networks, where distances are computed on demand.
    dist: Option<Arc<OnceLock<DistMatrix>>>,
}

impl Network {
    /// Node count up to which [`Network::auto`] picks the dense matrix.
    /// At 4096 nodes the matrix is 128 MB of f64 — above that the sparse
    /// representation wins on memory *and* build time.
    pub const DENSE_NODE_THRESHOLD: usize = 4096;

    /// Builds the metric complete graph over `sensors ∪ depots` on the
    /// dense matrix (the representation every planner accepted
    /// historically; use [`Network::sparse`] or [`Network::auto`] to avoid
    /// the `Θ((n+q)²)` memory). The matrix is filled on the first
    /// [`Network::dist_source`] or [`Network::dist`] call, not here.
    ///
    /// # Panics
    /// Panics when there are no depots (the paper requires `q ≥ 1`) or any
    /// coordinate is non-finite.
    pub fn new(sensors: Vec<Point2>, depots: Vec<Point2>) -> Self {
        let mut net = Self::sparse(sensors, depots);
        net.dist = Some(Arc::default());
        net
    }

    /// Builds the network *without* a dense matrix: distances come from
    /// positions on demand, planning runs through the sparse pipeline.
    /// Same panics as [`Network::new`].
    pub fn sparse(sensors: Vec<Point2>, depots: Vec<Point2>) -> Self {
        assert!(!depots.is_empty(), "at least one depot (mobile charger) is required");
        assert!(
            sensors.iter().chain(depots.iter()).all(|p| p.is_finite()),
            "positions must be finite"
        );
        let all: Vec<Point2> = sensors.iter().chain(depots.iter()).copied().collect();
        Self { sensor_pos: sensors, depot_pos: depots, all_pos: all, dist: None }
    }

    /// Dense up to [`Network::DENSE_NODE_THRESHOLD`] nodes, sparse above —
    /// the default constructor for experiments. Like [`Network::new`], it
    /// leaves a dense matrix unfilled until first use.
    pub fn auto(sensors: Vec<Point2>, depots: Vec<Point2>) -> Self {
        if sensors.len() + depots.len() <= Self::DENSE_NODE_THRESHOLD {
            Self::new(sensors, depots)
        } else {
            Self::sparse(sensors, depots)
        }
    }

    /// Number of sensors `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.sensor_pos.len()
    }

    /// Number of depots / mobile chargers `q`.
    #[inline]
    pub fn q(&self) -> usize {
        self.depot_pos.len()
    }

    /// Total node count `n + q`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n() + self.q()
    }

    /// Node id of sensor `i`.
    #[inline]
    pub fn sensor_node(&self, i: SensorId) -> usize {
        debug_assert!(i < self.n());
        i
    }

    /// Node id of depot `l`.
    #[inline]
    pub fn depot_node(&self, l: usize) -> usize {
        debug_assert!(l < self.q());
        self.n() + l
    }

    /// All depot node ids, in depot order.
    pub fn depot_nodes(&self) -> Vec<usize> {
        (self.n()..self.node_count()).collect()
    }

    /// True when `node` is a depot.
    #[inline]
    pub fn is_depot(&self, node: usize) -> bool {
        node >= self.n() && node < self.node_count()
    }

    /// Position of sensor `i`.
    #[inline]
    pub fn sensor_pos(&self, i: SensorId) -> Point2 {
        self.sensor_pos[i]
    }

    /// All sensor positions.
    #[inline]
    pub fn sensor_positions(&self) -> &[Point2] {
        &self.sensor_pos
    }

    /// Position of depot `l`.
    #[inline]
    pub fn depot_pos(&self, l: usize) -> Point2 {
        self.depot_pos[l]
    }

    /// All `n + q` node positions in node-id order (sensors then depots).
    #[inline]
    pub fn points(&self) -> &[Point2] {
        &self.all_pos
    }

    /// True when this network plans on the dense matrix, whether or not
    /// its first use has filled it yet.
    #[inline]
    pub fn has_dense_matrix(&self) -> bool {
        self.dist.is_some()
    }

    /// A copy of this network on the same positions without the dense
    /// matrix: planning on it runs the sparse pipeline. Distances are the
    /// same values either way; the copy neither builds nor keeps a matrix.
    pub fn to_sparse(&self) -> Self {
        Self { dist: None, ..self.clone() }
    }

    /// The distance source over all `n + q` nodes: the dense matrix on a
    /// dense network (filled here on first use), on-demand point distances
    /// otherwise. Planners should take this (via the `_src` entry points)
    /// rather than [`Network::dist`].
    #[inline]
    pub fn dist_source(&self) -> DistSource<'_> {
        match self.dense() {
            Some(d) => DistSource::Dense(d),
            None => DistSource::Points(&self.all_pos),
        }
    }

    /// The dense distance matrix over all `n + q` nodes, filled on first
    /// use and shared by every clone of this network.
    ///
    /// # Panics
    /// Panics on a sparse network — callers that can handle both
    /// representations should use [`Network::dist_source`].
    #[inline]
    pub fn dist(&self) -> &DistMatrix {
        self.dense().expect("no dense matrix on a sparse network — use dist_source()")
    }

    /// The dense matrix, built from the positions if no clone has built
    /// it yet; `None` on a sparse network.
    fn dense(&self) -> Option<&DistMatrix> {
        let cell = self.dist.as_deref()?;
        Some(cell.get_or_init(|| DistMatrix::from_points(&self.all_pos)))
    }
}

/// A fixed-maximum-charging-cycle problem instance (Section V): the
/// network, a cycle `τ_i > 0` per sensor, and the monitoring period `T`.
#[derive(Debug, Clone)]
pub struct Instance {
    network: Network,
    cycles: Vec<f64>,
    horizon: f64,
}

impl Instance {
    /// # Panics
    /// Panics when `cycles.len() != network.n()`, any cycle is not strictly
    /// positive and finite, or the horizon is not positive.
    pub fn new(network: Network, cycles: Vec<f64>, horizon: f64) -> Self {
        assert_eq!(cycles.len(), network.n(), "one maximum charging cycle per sensor");
        assert!(
            cycles.iter().all(|&t| t > 0.0 && t.is_finite()),
            "cycles must be positive and finite"
        );
        assert!(horizon > 0.0 && horizon.is_finite(), "horizon must be positive");
        Self { network, cycles, horizon }
    }

    /// The underlying network geometry.
    #[inline]
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Maximum charging cycles `τ_i`.
    #[inline]
    pub fn cycles(&self) -> &[f64] {
        &self.cycles
    }

    /// Monitoring period `T`.
    #[inline]
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Shorthand for `network().n()`.
    #[inline]
    pub fn n(&self) -> usize {
        self.network.n()
    }

    /// Shorthand for `network().q()`.
    #[inline]
    pub fn q(&self) -> usize {
        self.network.q()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Network {
        Network::new(
            vec![Point2::new(1.0, 0.0), Point2::new(0.0, 2.0)],
            vec![Point2::new(0.0, 0.0), Point2::new(5.0, 5.0)],
        )
    }

    #[test]
    fn node_id_convention() {
        let net = tiny();
        assert_eq!(net.n(), 2);
        assert_eq!(net.q(), 2);
        assert_eq!(net.node_count(), 4);
        assert_eq!(net.sensor_node(1), 1);
        assert_eq!(net.depot_node(0), 2);
        assert_eq!(net.depot_nodes(), vec![2, 3]);
        assert!(!net.is_depot(1));
        assert!(net.is_depot(2));
        assert!(!net.is_depot(4));
    }

    #[test]
    fn distances_cover_sensor_depot_pairs() {
        let net = tiny();
        assert_eq!(net.dist().get(0, 2), 1.0); // sensor 0 to depot 0
        assert_eq!(net.dist().get(1, 2), 2.0); // sensor 1 to depot 0
        assert!(net.dist().is_metric(1e-9));
    }

    #[test]
    fn sparse_network_serves_identical_distances() {
        use perpetuum_graph::Metric;
        let dense = tiny();
        let sparse = Network::sparse(
            vec![Point2::new(1.0, 0.0), Point2::new(0.0, 2.0)],
            vec![Point2::new(0.0, 0.0), Point2::new(5.0, 5.0)],
        );
        assert!(dense.has_dense_matrix());
        assert!(!sparse.has_dense_matrix());
        assert!(sparse.dist_source().positions().is_some());
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(
                    dense.dist_source().get(i, j),
                    sparse.dist_source().get(i, j),
                    "({i},{j})"
                );
            }
        }
        assert_eq!(sparse.points().len(), 4);
    }

    #[test]
    #[should_panic(expected = "use dist_source()")]
    fn sparse_network_has_no_dense_matrix() {
        let net = Network::sparse(vec![Point2::ORIGIN], vec![Point2::new(1.0, 0.0)]);
        let _ = net.dist();
    }

    #[test]
    fn auto_picks_representation_by_size() {
        let small = Network::auto(vec![Point2::ORIGIN], vec![Point2::new(1.0, 0.0)]);
        assert!(small.has_dense_matrix());
        let many: Vec<Point2> =
            (0..Network::DENSE_NODE_THRESHOLD).map(|i| Point2::new(i as f64, 0.0)).collect();
        let big = Network::auto(many, vec![Point2::new(0.0, 1.0)]);
        assert!(!big.has_dense_matrix());
    }

    /// True when the shared cell of a dense network has been filled.
    fn filled(net: &Network) -> bool {
        net.dist.as_ref().expect("dense network").get().is_some()
    }

    fn row_of_points(count: usize) -> Vec<Point2> {
        (0..count).map(|i| Point2::new(i as f64 * 1.5, (i % 7) as f64)).collect()
    }

    #[test]
    fn auto_fills_the_matrix_on_first_use() {
        let net = Network::auto(row_of_points(40), vec![Point2::new(3.0, 9.0)]);
        assert!(net.has_dense_matrix());
        assert!(!filled(&net), "construction must not build the matrix");
        let copy = net.clone();
        assert!(!filled(&net) && !filled(&copy), "neither clone nor query builds it");
        assert!(net.dist_source().is_dense());
        assert!(filled(&net) && filled(&copy));
    }

    #[test]
    fn clones_before_and_after_the_fill_share_one_matrix() {
        let net = Network::new(row_of_points(30), vec![Point2::ORIGIN, Point2::new(9.0, 9.0)]);
        let before = net.clone();
        let built = before.dist();
        let after = net.clone();
        assert!(std::ptr::eq(built, net.dist()));
        assert!(std::ptr::eq(built, after.dist()));
        assert_eq!(*built, DistMatrix::from_points(net.points()));
    }

    #[test]
    fn concurrent_first_use_builds_one_matrix() {
        let net = Network::new(row_of_points(600), vec![Point2::new(-4.0, 2.5)]);
        let start = std::sync::Barrier::new(4);
        let seen: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let (mine, start) = (net.clone(), &start);
                    s.spawn(move || {
                        start.wait();
                        mine.dist() as *const DistMatrix as usize
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("reader thread")).collect()
        });
        assert!(seen.iter().all(|&p| p == net.dist() as *const DistMatrix as usize));
        let fresh = DistMatrix::from_points(net.points());
        let m = net.dist();
        assert_eq!(m.len(), fresh.len());
        for i in 0..m.len() {
            for j in 0..m.len() {
                assert_eq!(m.get(i, j).to_bits(), fresh.get(i, j).to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn sparse_copy_keeps_positions_and_drops_the_matrix() {
        let net = tiny();
        let _ = net.dist();
        let copy = net.to_sparse();
        assert!(!copy.has_dense_matrix());
        assert_eq!(copy.points(), net.points());
        assert_eq!((copy.n(), copy.q()), (net.n(), net.q()));
    }

    #[test]
    fn zero_sensor_network_is_allowed() {
        let net = Network::new(vec![], vec![Point2::ORIGIN]);
        assert_eq!(net.n(), 0);
        assert_eq!(net.depot_nodes(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "at least one depot")]
    fn rejects_zero_depots() {
        Network::new(vec![Point2::ORIGIN], vec![]);
    }

    #[test]
    fn instance_validation() {
        let inst = Instance::new(tiny(), vec![1.0, 4.0], 100.0);
        assert_eq!(inst.cycles(), &[1.0, 4.0]);
        assert_eq!(inst.horizon(), 100.0);
        assert_eq!(inst.n(), 2);
        assert_eq!(inst.q(), 2);
    }

    #[test]
    #[should_panic(expected = "one maximum charging cycle per sensor")]
    fn instance_rejects_wrong_cycle_count() {
        Instance::new(tiny(), vec![1.0], 100.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn instance_rejects_nonpositive_cycle() {
        Instance::new(tiny(), vec![1.0, 0.0], 100.0);
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn instance_rejects_bad_horizon() {
        Instance::new(tiny(), vec![1.0, 1.0], 0.0);
    }
}
