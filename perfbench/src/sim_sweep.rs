//! `sim_sweep`: a fixed seeded list of n = 5000 simulator runs on sparse
//! networks with instant charging, called in-process from one thread.
//!
//! Arm (a) runs `MinTotalDistance-var` on slot-resampled variable worlds,
//! half of them under charger breakdowns so the engine's recovery planner
//! runs: planner-bound. Arm (b) polls a mostly idle fixed world with the
//! greedy baseline: almost no planning, bound by the policy's polling
//! checks more than by the event engine. Neither touches the daemon.
//! End-to-end run times are the process's CPU time over the run (the
//! simulator and its planner threads are all the process does then), so
//! another tenant holding the CPU does not stretch them. The traced run
//! wraps each policy in a [`Timed`] policy that times its callbacks.

use crate::report::{Checks, EndToEnd, Layers, Measured, Outcome};
use crate::stats::{median, ms, peak_rss_mb, process_cpu, us, SplitMix};
use crate::RunArgs;
use perpetuum_core::lemma3_lower_bound;
use perpetuum_core::network::{Instance, Network};
use perpetuum_core::schedule::TourSet;
use perpetuum_energy::CycleDistribution;
use perpetuum_geom::{deploy, derived_rng, Field};
use perpetuum_sim::{
    run_with_faults, ChargingPolicy, CheckContext, FaultModel, GreedyPolicy, Observation,
    PlanUpdate, RecoveryConfig, SimConfig, SimResult, VarPolicy, World,
};
use std::time::{Duration, Instant};

const N: usize = 5000;
const Q: usize = 5;
/// Networks per seed; each carries one run of every kind.
const NETWORKS: u64 = 4;
/// Set-ups per run; `setup_s` is their median. One takes a few ms.
const SETUPS: usize = 15;
const ADAPTIVE_TAU: (f64, f64) = (20.0, 60.0);

/// One entry of the seeded run list.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// Arm (a), fault-free.
    Adaptive,
    /// Arm (a) under charger breakdowns.
    AdaptiveFaulted,
    /// Arm (b).
    Polling,
}

struct Case {
    kind: Kind,
    network: Network,
    world: World,
    cfg: SimConfig,
    faults: FaultModel,
    /// The world's mean cycles, for the Lemma-3 bound of `cost_ratio`.
    mean_cycles: Vec<f64>,
}

/// The seeded run list: per network one fault-free adaptive run, one
/// faulted adaptive run and one polling run.
fn cases(seed: u64) -> Vec<Case> {
    let field = Field::paper_default();
    let mut out = Vec::new();
    for net in 0..NETWORKS {
        let mut rng = derived_rng(seed, net);
        let sensors = deploy::uniform_deployment(field, N, &mut rng);
        let depots = deploy::place_depots(
            field,
            field.center(),
            Q,
            deploy::DepotPlacement::OneAtBaseStation,
            &mut rng,
        );
        let network = Network::sparse(sensors, depots);
        let run_seed = seed.wrapping_mul(31).wrapping_add(net);

        let dist = CycleDistribution::Linear { sigma: 2.0 };
        let (lo, hi) = ADAPTIVE_TAU;
        let mean_cycles = dist.mean_all(network.sensor_positions(), field.center(), lo, hi);
        let adaptive = World::variable(network.clone(), &mean_cycles, dist, lo, hi);
        let cfg = SimConfig { horizon: 200.0, slot: 10.0, seed: run_seed, charger_speed: None };
        // The breakdown regime of scenarios/faulty_chargers.json, under
        // which MinTotalDistance-var with recovery stays perpetual.
        let faults = FaultModel::none()
            .with_breakdowns(150.0, 6.0)
            .with_recovery(RecoveryConfig { urgency_window: 4.0, max_retries: 6, backoff: 0.5 })
            .with_seed(run_seed);
        for (kind, faults) in
            [(Kind::Adaptive, FaultModel::none()), (Kind::AdaptiveFaulted, faults)]
        {
            out.push(Case {
                kind,
                network: network.clone(),
                world: adaptive.clone(),
                cfg,
                faults,
                mean_cycles: mean_cycles.clone(),
            });
        }

        // The sim bench's `polling` scenario with a 4x longer horizon: 1% of
        // sensors are hot, the rest nearly idle, and the greedy baseline
        // polls 4x per time unit, so its checks, not planning, dominate.
        let mut pick = SplitMix::new(seed, 0x9011 + net);
        let cycles: Vec<f64> = (0..N)
            .map(|i| {
                if i % 100 == 0 {
                    120.0 + 60.0 * pick.unit()
                } else {
                    3000.0 + 2000.0 * pick.unit()
                }
            })
            .collect();
        out.push(Case {
            kind: Kind::Polling,
            world: World::fixed(network.clone(), &cycles),
            network,
            cfg: SimConfig { horizon: 2000.0, slot: 10.0, seed: run_seed, charger_speed: None },
            faults: FaultModel::none(),
            mean_cycles: cycles,
        });
    }
    out
}

/// Times a policy's callbacks and counts its checks.
struct Timed<P> {
    inner: P,
    busy: Duration,
    checks: u64,
}

impl<P: ChargingPolicy> ChargingPolicy for Timed<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn check_interval(&self) -> Option<f64> {
        self.inner.check_interval()
    }

    fn initialize(&mut self, obs: &Observation) -> PlanUpdate {
        let t = Instant::now();
        let update = self.inner.initialize(obs);
        self.busy += t.elapsed();
        update
    }

    fn on_slot_boundary(&mut self, obs: &Observation) -> PlanUpdate {
        let t = Instant::now();
        let update = self.inner.on_slot_boundary(obs);
        self.busy += t.elapsed();
        update
    }

    fn on_check(&mut self, ctx: &mut CheckContext) -> Option<TourSet> {
        let t = Instant::now();
        let set = self.inner.on_check(ctx);
        self.busy += t.elapsed();
        self.checks += 1;
        set
    }
}

/// One finished run.
struct Ran {
    case: usize,
    wall: Duration,
    /// Process CPU time over the run.
    cpu: Duration,
    result: SimResult,
    /// Zero for untraced runs.
    trace: PolicyTrace,
}

/// What a traced run's [`Timed`] wrapper and adaptive policy report.
#[derive(Clone, Copy, Default)]
struct PolicyTrace {
    busy: Duration,
    checks: u64,
    incremental_s: f64,
    full_s: f64,
    incremental_replans: usize,
    full_replans: usize,
}

/// Runs one case; `traced` routes the callbacks through [`Timed`].
/// Returns the run's wall and process CPU time.
fn run_timed<P: ChargingPolicy>(
    case: &Case,
    policy: P,
    traced: bool,
) -> (Duration, Duration, SimResult, Timed<P>) {
    let world = case.world.clone();
    let mut p = Timed { inner: policy, busy: Duration::ZERO, checks: 0 };
    let cpu = process_cpu();
    let t = Instant::now();
    let result = if traced {
        run_with_faults(world, &case.cfg, &mut p, &case.faults)
    } else {
        run_with_faults(world, &case.cfg, &mut p.inner, &case.faults)
    };
    (t.elapsed(), process_cpu() - cpu, result, p)
}

fn run_case(i: usize, case: &Case, traced: bool) -> Ran {
    let (wall, cpu, result, trace) = match case.kind {
        Kind::Adaptive | Kind::AdaptiveFaulted => {
            let (wall, cpu, result, p) = run_timed(case, VarPolicy::new(&case.network), traced);
            let v = &p.inner;
            let trace = PolicyTrace {
                busy: p.busy,
                checks: p.checks,
                incremental_s: v.planner_seconds_incremental(),
                full_s: v.planner_seconds_full(),
                incremental_replans: v.incremental_replans(),
                full_replans: v.full_replans(),
            };
            (wall, cpu, result, trace)
        }
        Kind::Polling => {
            let mut greedy = GreedyPolicy::new(&case.network, 100.0);
            greedy.poll = Some(0.25);
            let (wall, cpu, result, p) = run_timed(case, greedy, traced);
            let trace = PolicyTrace { busy: p.busy, checks: p.checks, ..PolicyTrace::default() };
            (wall, cpu, result, trace)
        }
    };
    let trace = if traced { trace } else { PolicyTrace::default() };
    Ran { case: i, wall, cpu, result, trace }
}

/// Runs the list round-robin until `for_` elapses. With `traced`, every
/// step runs its case twice, untraced then traced, so both samples see the
/// same machine; the traced runs come back second.
fn sweep(cases: &[Case], for_: Duration, traced: bool) -> (Vec<Ran>, Vec<Ran>, Duration) {
    let started = Instant::now();
    let (mut plain, mut timed) = (Vec::new(), Vec::new());
    let mut i = 0;
    while started.elapsed() < for_ {
        let k = i % cases.len();
        plain.push(run_case(k, &cases[k], false));
        if traced {
            timed.push(run_case(k, &cases[k], true));
        }
        i += 1;
    }
    (plain, timed, started.elapsed())
}

/// Every run must keep all sensors alive and charge something; faulted
/// runs must see breakdowns; and repeats of one list entry must reproduce
/// its first result exactly (the simulator is deterministic).
fn check(cases: &[Case], ran: &[Ran], checks: &mut Checks) {
    let mut first: Vec<Option<&SimResult>> = cases.iter().map(|_| None).collect();
    for r in ran {
        let res = &r.result;
        let kind = cases[r.case].kind;
        let verdict = if !res.deaths.is_empty() {
            Err(format!("run {}: {} sensor deaths", r.case, res.deaths.len()))
        } else if res.dispatches == 0 || res.charges == 0 {
            Err(format!("run {}: nothing was charged", r.case))
        } else if kind == Kind::AdaptiveFaulted && res.faults.breakdowns == 0 {
            Err(format!("run {}: the fault model broke no charger", r.case))
        } else if let Some(f) = first[r.case] {
            if f.service_cost == res.service_cost
                && f.charges == res.charges
                && f.dispatches == res.dispatches
            {
                Ok(())
            } else {
                Err(format!("run {}: repeat differs from its first result", r.case))
            }
        } else {
            first[r.case] = Some(res);
            Ok(())
        };
        checks.op(verdict);
    }
}

/// Mean fault-free arm-(a) service cost over its Lemma-3 bound on the
/// mean cycles, and the median time of one bound. Faulted runs are left
/// out: how many emergency tours a breakdown history needs varies far
/// more between seeds than plan quality does.
fn cost_ratio(cases: &[Case], ran: &[Ran]) -> (f64, f64) {
    let mut ratios = Vec::new();
    let mut bound_us = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        if case.kind != Kind::Adaptive {
            continue;
        }
        let Some(r) = ran.iter().find(|r| r.case == i) else { continue };
        let instance =
            Instance::new(case.network.clone(), case.mean_cycles.clone(), case.cfg.horizon);
        let t = Instant::now();
        let bound = lemma3_lower_bound(&instance).bound;
        bound_us.push(us(t.elapsed()));
        ratios.push(r.result.service_cost / bound);
    }
    (ratios.iter().sum::<f64>() / ratios.len().max(1) as f64, median(&mut bound_us))
}

fn adaptive(cases: &[Case], r: &Ran) -> bool {
    cases[r.case].kind != Kind::Polling
}

pub fn run(args: &RunArgs) -> Outcome {
    let seed = args.seed;
    let mut checks = Checks::default();
    let mut setups = Vec::new();
    let mut list = Vec::new();
    for _ in 0..SETUPS {
        let cpu = process_cpu();
        list = cases(seed);
        setups.push((process_cpu() - cpu).as_secs_f64());
    }
    let setup_s = median(&mut setups);
    let mut notes =
        vec![format!("setup_s = {setup_s} s CPU (median of {SETUPS} network + world generations)")];

    let result = if args.trace {
        let (untraced, traced, _) = sweep(&list, args.seconds, true);
        check(&list, &untraced, &mut checks);
        check(&list, &traced, &mut checks);
        let (_, bound_us) = cost_ratio(&list, &traced);
        let e2e_us = median(
            &mut untraced
                .iter()
                .filter(|r| adaptive(&list, r))
                .map(|r| us(r.wall))
                .collect::<Vec<_>>(),
        );
        let mut layers = traced_layers(&list, &traced, e2e_us, bound_us, &mut checks);
        layers.set("peak_rss_mb", peak_rss_mb());
        notes.push(format!("runs: {} untraced, {} traced", untraced.len(), traced.len()));
        Measured::Layers(layers)
    } else {
        let (ran, _, _) = sweep(&list, args.seconds, false);
        let peak = peak_rss_mb();
        check(&list, &ran, &mut checks);
        // Each list entry repeats; its median run time is robust to outside
        // load that slows a few of its repeats.
        let per_case = |time: fn(&Ran) -> Duration| -> Vec<(Kind, f64)> {
            (0..list.len())
                .filter_map(|i| {
                    let mut times: Vec<f64> =
                        ran.iter().filter(|r| r.case == i).map(|r| ms(time(r))).collect();
                    (!times.is_empty()).then(|| (list[i].kind, median(&mut times)))
                })
                .collect()
        };
        let case_ms = per_case(|r| r.cpu);
        let case_wall_ms = per_case(|r| r.wall);
        let of_kind = |cases: &[(Kind, f64)], kind: Kind| -> Vec<f64> {
            cases.iter().filter(|c| c.0 == kind).map(|c| c.1).collect()
        };
        let mut adaptive_ms = of_kind(&case_ms, Kind::Adaptive);
        let mut faulted_ms = of_kind(&case_ms, Kind::AdaptiveFaulted);
        let mut polling_ms = of_kind(&case_ms, Kind::Polling);
        let wall_of = |kind: Kind| median(&mut of_kind(&case_wall_ms, kind));
        let (ratio, _) = cost_ratio(&list, &ran);
        let first_pass = &ran[..ran.len().min(list.len())];
        let service: Vec<f64> = first_pass
            .iter()
            .filter(|r| adaptive(&list, r))
            .map(|r| r.result.service_cost)
            .collect();
        let deaths: usize = ran.iter().map(|r| r.result.deaths.len()).sum();
        let e = EndToEnd {
            p50_ms: median(&mut adaptive_ms),
            tail_ms: median(&mut faulted_ms),
            throughput_per_s: case_ms.len() as f64 * 1e3 / case_ms.iter().map(|c| c.1).sum::<f64>(),
            second_p50_ms: median(&mut polling_ms),
            cost_ratio: ratio,
            setup_s,
        };
        notes.push(format!(
            "sim_adaptive_s = {} s CPU per fault-free run (median over the {} entries of each one's median; {} runs in all); wall {} s",
            e.p50_ms / 1e3,
            adaptive_ms.len(),
            ran.len(),
            wall_of(Kind::Adaptive) / 1e3
        ));
        notes.push(format!(
            "sim_adaptive_faulted_s = {} s CPU per run under breakdowns (median over the {} entries of each one's median); wall {} s",
            e.tail_ms / 1e3,
            faulted_ms.len(),
            wall_of(Kind::AdaptiveFaulted) / 1e3
        ));
        notes.push(format!(
            "sim_polling_s = {} s CPU per run (median over the {} arm (b) entries of each one's median); wall {} s",
            e.second_p50_ms / 1e3,
            polling_ms.len(),
            wall_of(Kind::Polling) / 1e3
        ));
        notes.push(format!(
            "sim_service_cost = {} (mean over the arm (a) list)",
            service.iter().sum::<f64>() / service.len().max(1) as f64
        ));
        notes.push(format!("sim_cost_ratio = {ratio} (fault-free arm (a) service cost / Lemma-3 bound of the mean cycles)"));
        notes.push(format!("sim_deaths = {deaths}"));
        notes.push(format!(
            "sim runs per CPU second = {} (one pass of the list at its median CPU times)",
            e.throughput_per_s
        ));
        notes.push(format!("peak_rss_mb = {peak} MB"));
        Measured::EndToEnd(e)
    };
    Outcome { checks, notes, result }
}

fn traced_layers(
    cases: &[Case],
    traced: &[Ran],
    e2e_us: f64,
    bound_us: f64,
    checks: &mut Checks,
) -> Layers {
    let arm =
        |adaptive_arm: bool| traced.iter().filter(move |r| adaptive(cases, r) == adaptive_arm);
    let policy_us = |r: &Ran| us(r.trace.busy);
    let med = |v: Vec<f64>| median(&mut v.clone());
    let mut l = Layers::default();
    l.set("sim.policy_us", med(arm(true).map(policy_us).collect()));
    l.set("sim.adaptive_engine_us", med(arm(true).map(|r| us(r.wall) - policy_us(r)).collect()));
    l.set("sim.engine_us", med(arm(false).map(|r| us(r.wall) - policy_us(r)).collect()));
    l.set("sim.polling_policy_us", med(arm(false).map(policy_us).collect()));
    l.set("core.incremental_s", med(arm(true).map(|r| r.trace.incremental_s).collect()));
    l.set("core.full_replan_s", med(arm(true).map(|r| r.trace.full_s).collect()));
    l.set("core.bounds_us", bound_us);
    // Counts over one pass of the list.
    let pass = &traced[..traced.len().min(cases.len())];
    let sum = |f: &dyn Fn(&Ran) -> f64| pass.iter().map(f).sum::<f64>();
    l.set("sim.replans_incremental", sum(&|r| r.trace.incremental_replans as f64));
    l.set("sim.replans_full", sum(&|r| r.trace.full_replans as f64));
    l.set("sim.dispatches", sum(&|r| r.result.dispatches as f64));
    l.set("sim.charges", sum(&|r| r.result.charges as f64));
    l.set("sim.emergency_dispatches", sum(&|r| r.result.faults.emergency_dispatches as f64));
    l.set("sim.checks", sum(&|r| r.trace.checks as f64));
    l.attribute(e2e_us, l.get("sim.policy_us") + l.get("sim.adaptive_engine_us"), checks);
    l
}
