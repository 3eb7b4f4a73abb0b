//! Property suite for the refinement move kernels (`perpetuum-opt` via
//! `perpetuum_core::refine`): accepted moves never increase cost, the
//! sensor multiset of every tour set is exactly preserved, feasibility
//! survives, and a fixed `(seed, budget)` is byte-identical across runs
//! — including on tour sets the `IncrementalPlanner` has spliced.

use perpetuum_core::incremental::IncrementalPlanner;
use perpetuum_core::mtd::{plan_min_total_distance, MtdConfig};
use perpetuum_core::network::{Instance, Network};
use perpetuum_core::refine::{refine, refine_tour_set, Budget};
use perpetuum_core::var::{RepairStrategy, VarInput};
use perpetuum_core::{check_series, power_class};
use perpetuum_geom::Point2;
use proptest::prelude::*;

fn points(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec((0.0..1000.0f64, 0.0..1000.0f64), n)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point2::new(x, y)).collect())
}

fn sorted(mut v: Vec<usize>) -> Vec<usize> {
    v.sort_unstable();
    v
}

/// Every sensor node of a tour set, as a sorted list (depots excluded).
fn set_sensor_multiset(set: &perpetuum_core::TourSet, n: usize) -> Vec<usize> {
    sorted(set.tours().iter().flat_map(|t| t.nodes().iter().copied()).filter(|&v| v < n).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn refined_plans_cost_less_preserve_sensors_and_stay_feasible(
        sensors in points(8..48),
        depots in points(2..5),
        tau in 4.0..16.0f64,
        seed in 0u64..1000,
        budget in 0u64..60_000,
    ) {
        let n = sensors.len();
        let network = Network::new(sensors, depots);
        let instance = Instance::new(network, vec![tau; n], 4.0 * tau);
        let plan = plan_min_total_distance(&instance, &MtdConfig::default());
        let constructive_ok = check_series(&instance, &plan).is_ok();

        let (refined, report) =
            refine(instance.network(), &plan, &Budget::steps(budget), seed);

        // Cost never increases, overall or per set.
        prop_assert!(report.refined_cost <= report.constructive_cost + 1e-9);
        prop_assert_eq!(refined.sets().len(), plan.sets().len());
        for (after, before) in refined.sets().iter().zip(plan.sets()) {
            prop_assert!(after.cost() <= before.cost() + 1e-9);
            // Exact sensor multiset per set (and per network: the union
            // over sets is determined by the per-set equality).
            prop_assert_eq!(
                set_sensor_multiset(after, n),
                set_sensor_multiset(before, n)
            );
            // Depots stay pinned at the root of every tour.
            for (ta, tb) in after.tours().iter().zip(before.tours()) {
                prop_assert_eq!(ta.start(), tb.start());
            }
        }
        // Dispatch grid untouched ⇒ feasibility verdict unchanged.
        prop_assert_eq!(refined.dispatches(), plan.dispatches());
        if constructive_ok {
            prop_assert!(check_series(&instance, &refined).is_ok());
        }
    }

    #[test]
    fn fixed_seed_and_budget_is_byte_identical(
        sensors in points(8..40),
        depots in points(2..4),
        seed in 0u64..1000,
        budget in 0u64..40_000,
    ) {
        let n = sensors.len();
        let network = Network::new(sensors, depots);
        let instance = Instance::new(network, vec![6.0; n], 24.0);
        let plan = plan_min_total_distance(&instance, &MtdConfig::default());

        let (a, ra) = refine(instance.network(), &plan, &Budget::steps(budget), seed);
        let (b, rb) = refine(instance.network(), &plan, &Budget::steps(budget), seed);
        let ja = serde_json::to_string(&a).expect("serialize refined plan");
        let jb = serde_json::to_string(&b).expect("serialize refined plan");
        prop_assert_eq!(ja, jb);
        prop_assert_eq!(ra.steps, rb.steps);
        prop_assert_eq!(ra.accepted, rb.accepted);
    }

    #[test]
    fn dense_network_and_its_sparse_copy_refine_identically(
        sensors in points(8..80),
        depots in points(1..4),
        seed in 0u64..1000,
        budget in 0u64..40_000,
    ) {
        // The serve refine queue keeps only a points-only copy of each
        // job's network; the refined plan must not notice.
        let n = sensors.len();
        let instance = Instance::new(Network::new(sensors, depots), vec![6.0; n], 24.0);
        let plan = plan_min_total_distance(&instance, &MtdConfig::default());
        let sparse = instance.network().to_sparse();

        let (a, ra) = refine(instance.network(), &plan, &Budget::steps(budget), seed);
        let (b, rb) = refine(&sparse, &plan, &Budget::steps(budget), seed);
        let ja = serde_json::to_string(&a).expect("serialize refined plan");
        let jb = serde_json::to_string(&b).expect("serialize refined plan");
        prop_assert_eq!(ja, jb);
        prop_assert_eq!(ra.refined_cost.to_bits(), rb.refined_cost.to_bits());
        prop_assert_eq!((ra.steps, ra.accepted), (rb.steps, rb.accepted));
    }

    #[test]
    fn more_budget_never_costs_more(
        sensors in points(10..36),
        depots in points(2..4),
        seed in 0u64..100,
        small in 0u64..20_000,
        extra in 0u64..40_000,
    ) {
        // The refiner walks a single deterministic trajectory of strict
        // improvements; a bigger budget only extends it, so refined cost
        // is monotone non-increasing in the step budget.
        let n = sensors.len();
        let network = Network::new(sensors, depots);
        let instance = Instance::new(network, vec![5.0; n], 20.0);
        let plan = plan_min_total_distance(&instance, &MtdConfig::default());
        let (_, lo) = refine(instance.network(), &plan, &Budget::steps(small), seed);
        let (_, hi) =
            refine(instance.network(), &plan, &Budget::steps(small + extra), seed);
        prop_assert!(hi.refined_cost <= lo.refined_cost + 1e-9);
    }

    #[test]
    fn spliced_sets_refine_deterministically(
        sensors in points(12..40),
        depots in points(2..4),
        seed in 0u64..500,
        budget in 1_000u64..40_000,
        moved in 1usize..4,
    ) {
        // Seed the incremental planner, migrate a few sensors one class
        // up (the splice path), then refine the spliced base sets: the
        // result must still preserve membership, never cost more, and be
        // byte-identical for a fixed (seed, budget).
        let n = sensors.len();
        let network = Network::new(sensors, depots);
        let taus: Vec<f64> = (0..n).map(|i| 4.0 + (i % 5) as f64 * 3.0).collect();
        let input = VarInput {
            network: &network,
            max_cycles: &taus,
            residuals: &taus,
            now: 0.0,
            horizon: 64.0,
        };
        let (_, mut planner) =
            IncrementalPlanner::seed(&input, RepairStrategy::NearestScheduling);
        let k_max = planner.k_max();
        if k_max == 0 {
            return; // single-class instance: nothing to migrate
        }

        // Move up to `moved` sensors into the next class up (splice).
        let tau1 = planner.tau1();
        let changes: Vec<(usize, usize)> = (0..n)
            .filter(|&i| power_class(tau1, taus[i]) < k_max)
            .take(moved)
            .map(|i| (i, power_class(tau1, taus[i]) + 1))
            .collect();
        if changes.is_empty() {
            return; // everyone already sits in the top class
        }
        planner.apply_migrations(&network, &changes);

        for k in 0..=k_max {
            let spliced = planner.tour_set(k).clone();
            let (ra, oa) = refine_tour_set(&network, &spliced, &Budget::steps(budget), seed);
            let (rb, ob) = refine_tour_set(&network, &spliced, &Budget::steps(budget), seed);
            prop_assert!(ra.cost() <= spliced.cost() + 1e-9);
            prop_assert_eq!(
                set_sensor_multiset(&ra, n),
                set_sensor_multiset(&spliced, n)
            );
            prop_assert_eq!(oa.steps, ob.steps);
            let ja = serde_json::to_string(&ra).expect("serialize set");
            let jb = serde_json::to_string(&rb).expect("serialize set");
            prop_assert_eq!(ja, jb);
        }
    }
}
