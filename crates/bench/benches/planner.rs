//! Planning-pipeline scaling: dense matrix vs sparse k-NN pipeline.
//!
//! The numbers behind `BENCH_planner.json` and the README scaling table.
//! `end_to_end` includes network construction (for the dense variant that
//! is the `Θ((n+q)²)` matrix build — part of the cost a caller actually
//! pays), then Algorithm 1 + Algorithm 2 over all sensors.
//!
//! At `n = 10_000` only the sparse pipeline runs: the dense matrix alone
//! would be ~800 MB, which is exactly what the sparse path exists to avoid
//! (the setup asserts no matrix is materialized).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use perpetuum_core::network::Network;
use perpetuum_core::qtsp::{q_rooted_tsp, Routing};
use perpetuum_geom::Point2;
use perpetuum_geom::{deploy, derived_rng, Field};
use std::hint::black_box;

const Q: usize = 5;

fn deployment(n: usize, seed: u64) -> (Vec<Point2>, Vec<Point2>) {
    let field = Field::paper_default();
    let mut rng = derived_rng(seed, 0);
    let sensors = deploy::uniform_deployment(field, n, &mut rng);
    let depots = deploy::place_depots(
        field,
        field.center(),
        Q,
        deploy::DepotPlacement::OneAtBaseStation,
        &mut rng,
    );
    (sensors, depots)
}

fn plan(network: &Network) -> f64 {
    let terminals: Vec<usize> = (0..network.n()).collect();
    let roots = network.depot_nodes();
    q_rooted_tsp(&network.dist_source(), &terminals, &roots, Routing::Doubling).cost
}

fn bench_planner(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner");
    group.sample_size(10);

    for &n in &[500usize, 2000] {
        let (sensors, depots) = deployment(n, n as u64);
        group.bench_with_input(BenchmarkId::new("dense_end_to_end", n), &n, |b, _| {
            b.iter(|| {
                let net = Network::new(sensors.clone(), depots.clone());
                black_box(plan(&net))
            })
        });
        group.bench_with_input(BenchmarkId::new("sparse_end_to_end", n), &n, |b, _| {
            b.iter(|| {
                let net = Network::sparse(sensors.clone(), depots.clone());
                black_box(plan(&net))
            })
        });
    }

    // n = 10_000: sparse only — the whole point is never touching the
    // dense n² matrix at this scale.
    let n = 10_000usize;
    let (sensors, depots) = deployment(n, n as u64);
    let probe = Network::sparse(sensors.clone(), depots.clone());
    assert!(!probe.has_dense_matrix(), "sparse pipeline must not materialize the dense matrix");
    group.bench_with_input(BenchmarkId::new("sparse_end_to_end", n), &n, |b, _| {
        b.iter(|| {
            let net = Network::sparse(sensors.clone(), depots.clone());
            black_box(plan(&net))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_planner);
criterion_main!(benches);
