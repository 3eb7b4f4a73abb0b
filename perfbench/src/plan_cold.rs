//! `plan_cold`: distinct n = 2000 `POST /plan` requests, each a cache
//! miss, from one closed-loop client per core.
//!
//! Every request pays the world build, Algorithm 1/2 (through Algorithm 3)
//! and an inline 200 000-step refinement, so this is the workload where
//! the `exp`, `core` planner and `opt` layers dominate. The traced run
//! replays each request in-process through the same public calls the
//! `/plan` handler makes, then sends the same request over the socket.

use crate::client;
use crate::report::{Checks, EndToEnd, Layers, Measured, Outcome};
use crate::stats::{
    cores, median, ms, peak_rss_mb, percentile, process_cpu, us, windowed, windowed_rate, SplitMix,
};
use crate::RunArgs;
use perpetuum_core::feasibility::check_series;
use perpetuum_core::lemma3_lower_bound;
use perpetuum_core::mtd::{plan_min_total_distance, MtdConfig};
use perpetuum_core::network::{Instance, Network};
use perpetuum_core::qmsf::q_rooted_msf_src;
use perpetuum_core::qtsp::{tours_for_forest_src, Routing};
use perpetuum_core::refine::{refine, Budget};
use perpetuum_core::rounding::partition_cycles;
use perpetuum_core::schedule::ScheduleSeries;
use perpetuum_exp::scenario::{world_from_value, ParsedWorld};
use perpetuum_serve::handlers::{render_plan_result, PlanMeta};
use perpetuum_serve::{canonical_hash, start, ServerConfig, ServerHandle};
use serde::{Deserialize as _, Value};
use std::collections::HashMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const N: usize = 2000;
const REFINE_STEPS: u64 = 200_000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// `cost_ratio` averages the first this-many requests of the seeded list;
/// a run that completes fewer in its timed window sends the rest untimed,
/// so the ratio never depends on speed.
const COST_PREFIX: u64 = 256;
/// Warm-up requests live far above the timed index range.
const WARMUP_BASE: u64 = 1 << 40;
/// Parts of the timed window whose median the latency and rate figures
/// report.
const WINDOWS: usize = 5;

/// Request `index` of seed `seed`. Requests come in pairs holding one
/// `Uniform` and one `Clustered` deployment in seeded order, so every run
/// sends the same mix; `index` makes each request a distinct cache key.
fn body(seed: u64, index: u64) -> String {
    let clustered = (index & 1) == (SplitMix::new(seed, index / 2).next_u64() & 1);
    let deployment = if clustered {
        r#"{"Clustered": {"clusters": 8, "spread": 120.0}}"#
    } else {
        r#""Uniform""#
    };
    format!(
        r#"{{"scenario": {{"field_size": 1000.0, "n": {N}, "q": 5, "tau_min": 2.0, "tau_max": 40.0, "dist": {{"Linear": {{"sigma": 2.0}}}}, "horizon": 60.0, "slot": 10.0, "variable": false, "deployment": {deployment}}}, "seed": {seed}, "index": {index}, "sparse": true, "refine": "inline", "refine_steps": {REFINE_STEPS}}}"#
    )
}

/// One `/plan` exchange as the client saw it.
struct Sample {
    index: u64,
    latency: Duration,
    /// Completion time, from the start of the timed window.
    done_at: Duration,
    reply: Result<client::Reply, String>,
    /// In-process stage times of the same request (traced phase only).
    stages: Option<Stages>,
}

fn post(addr: SocketAddr, seed: u64, index: u64) -> Sample {
    let body = body(seed, index);
    let reply = client::send(addr, "POST", "/plan", None, body.as_bytes());
    let latency = reply.as_ref().map_or(Duration::ZERO, |r| r.latency);
    Sample {
        index,
        latency,
        done_at: Duration::ZERO,
        reply: reply.map_err(|e| e.to_string()),
        stages: None,
    }
}

/// Starts a fresh daemon and warms it with one untimed request per core.
/// Returns the process's CPU time over both.
fn setup(seed: u64, round: usize, checks: &mut Checks) -> (ServerHandle, Duration) {
    let cpu = process_cpu();
    let handle = start(ServerConfig::default()).expect("daemon starts on an ephemeral port");
    let addr = handle.addr;
    let warm: Vec<Sample> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..cores())
            .map(|c| {
                let index = WARMUP_BASE + (round * cores() + c) as u64;
                s.spawn(move || post(addr, seed, index))
            })
            .collect();
        threads.into_iter().map(|t| t.join().expect("warm-up client")).collect()
    });
    let elapsed = process_cpu() - cpu;
    for w in warm {
        checks.op(match w.reply {
            Ok(r) if r.status == 200 => Ok(()),
            Ok(r) => Err(format!("warm-up /plan {}: status {}", w.index, r.status)),
            Err(e) => Err(format!("warm-up /plan {}: {e}", w.index)),
        });
    }
    (handle, elapsed)
}

/// Closed loop: one client per core, each sending the next request index
/// as soon as its previous reply is complete, for `for_`. With `trace`,
/// every second request of each client is traced: the client first
/// replays the handler's calls for it in-process. Untraced and traced
/// requests then share the window, and whatever speed the host has in it.
fn closed_loop(
    addr: SocketAddr,
    seed: u64,
    next: &AtomicU64,
    for_: Duration,
    trace: bool,
) -> Vec<Sample> {
    let started = Instant::now();
    let deadline = started + for_;
    let done = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..cores() {
            s.spawn(|| {
                let mut mine: Vec<Sample> = Vec::new();
                while Instant::now() < deadline {
                    let index = next.fetch_add(1, Relaxed);
                    let stages = (trace && mine.len() % 2 == 1).then(|| replay(seed, index));
                    let mut sample = post(addr, seed, index);
                    sample.stages = stages;
                    sample.done_at = started.elapsed();
                    mine.push(sample);
                }
                done.lock().expect("sample lock").extend(mine);
            });
        }
    });
    done.into_inner().expect("sample lock")
}

/// In-process stage times of one request, in µs.
#[derive(Debug, Clone, Copy, Default)]
struct Stages {
    parse: f64,
    world: f64,
    rounding: f64,
    qmsf: f64,
    qtsp: f64,
    mtd: f64,
    refine: f64,
    steps: f64,
    accepted: f64,
    render: f64,
    bytes: f64,
    network_auto: f64,
}

/// The world a `/plan` request tree describes, and the sparse instance
/// the handler plans on.
fn realise(tree: &Value, seed: u64, index: u64) -> Result<(ParsedWorld, Instance), String> {
    let scenario = tree.get("scenario").ok_or("request has no scenario")?;
    let parsed = world_from_value(scenario, seed, index).map_err(|e| e.to_string())?;
    let points = parsed.topology.network.points();
    let n = parsed.topology.network.n();
    let network = Network::sparse(points[..n].to_vec(), points[n..].to_vec());
    let instance =
        Instance::new(network, parsed.topology.init_cycles.clone(), parsed.scenario.horizon);
    Ok((parsed, instance))
}

/// Replays the `/plan` handler's calls for request `index`, timing each:
/// parse + hash, world build, Algorithm 3, refine, render. It makes no
/// other call, so the replaying thread allocates as a daemon worker does:
/// whether the allocator hands the world build's dense matrix back from
/// its own free memory or faults it in fresh dominates that stage.
fn replay(seed: u64, index: u64) -> Stages {
    let body = body(seed, index);
    let mut st = Stages::default();

    let t = Instant::now();
    let tree = serde_json::parse_value(&body).expect("generated request is JSON");
    black_box(canonical_hash(&tree));
    st.parse = us(t.elapsed());

    let t = Instant::now();
    let (world, instance) = realise(&tree, seed, index).expect("generated scenario is valid");
    st.world = us(t.elapsed());

    let t = Instant::now();
    let schedule = plan_min_total_distance(&instance, &MtdConfig::default());
    st.mtd = us(t.elapsed());

    let t = Instant::now();
    let (refined, report) =
        refine(instance.network(), &schedule, &Budget::steps(REFINE_STEPS), seed);
    st.refine = us(t.elapsed());
    st.steps = report.steps as f64;
    st.accepted = report.accepted as f64;

    let meta = PlanMeta {
        n: instance.n(),
        q: instance.q(),
        seed,
        index,
        sparse: true,
        refine_steps: REFINE_STEPS,
    };
    let t = Instant::now();
    let rendered = serde_json::to_string(&render_plan_result(
        &meta,
        &refined,
        Some(("inline", true, Some(&report))),
    ))
    .expect("plan renders");
    st.render = us(t.elapsed());
    st.bytes = rendered.len() as f64;
    // The handler holds the parsed world, dense matrix included, until it
    // returns. Freeing it before planning instead lets the plan's own
    // allocations split the freed block, so the next request faults its
    // matrix in fresh more often than a daemon worker does.
    drop(world);
    st
}

/// Algorithm 3's stages of request `index`, timed one by one as
/// `plan_min_total_distance` runs them (rounding, then per cumulative
/// class a q-rooted forest and its tours), and the `Network::auto` call
/// inside the world build. Runs after the traced window, so it neither
/// loads the machine during it nor changes how the replaying threads
/// allocate.
fn breakdown(seed: u64, index: u64, st: &mut Stages) {
    let tree = serde_json::parse_value(&body(seed, index)).expect("generated request is JSON");
    let (_, instance) = realise(&tree, seed, index).expect("generated scenario is valid");
    let network = instance.network();
    let src = network.dist_source();
    let depots = network.depot_nodes();
    let t = Instant::now();
    let partition = partition_cycles(instance.cycles());
    st.rounding = us(t.elapsed());
    for k in 0..=partition.k_max() {
        let terminals = partition.cumulative(k);
        let t = Instant::now();
        let forest = q_rooted_msf_src(&src, &terminals, &depots);
        st.qmsf += us(t.elapsed());
        // The planner's own worker policy: per-root tours in parallel
        // from 256 terminals up.
        let workers =
            if terminals.len() >= 256 { perpetuum_par::default_workers(depots.len()) } else { 1 };
        let t = Instant::now();
        black_box(tours_for_forest_src(
            &src,
            &forest,
            &terminals,
            &depots,
            Routing::Doubling,
            0,
            workers,
        ));
        st.qtsp += us(t.elapsed());
    }

    // The distance model `world_from_value` builds: below 4096 nodes
    // `Network::auto` fills a dense matrix, which the sparse request
    // then discards.
    let points = network.points();
    let t = Instant::now();
    black_box(Network::auto(points[..N].to_vec(), points[N..].to_vec()));
    st.network_auto = us(t.elapsed());
}

/// Runs [`breakdown`] for every traced sample, one thread per core.
fn break_down_all(seed: u64, traced: &mut [Sample]) {
    let chunk = traced.len().div_ceil(cores()).max(1);
    std::thread::scope(|s| {
        for part in traced.chunks_mut(chunk) {
            s.spawn(move || {
                for sample in part {
                    if let Some(st) = sample.stages.as_mut() {
                        breakdown(seed, sample.index, st);
                    }
                }
            });
        }
    });
}

/// What the output check of one reply found.
struct Checked {
    index: u64,
    cost: f64,
    bound: f64,
    server_us: f64,
    feasibility_us: f64,
    bounds_us: f64,
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    match v.get(key) {
        Some(Value::Num(x)) => Ok(*x),
        other => Err(format!("field `{key}` is not a number: {other:?}")),
    }
}

/// Checks one reply: a 200 cold miss whose schedule is feasible on the
/// re-realised instance, costs at least its Lemma-3 bound and reports a
/// non-negative refinement gain.
fn check(seed: u64, sample: &Sample) -> Result<Checked, String> {
    let reply = sample.reply.as_ref().map_err(|e| e.clone())?;
    if reply.status != 200 {
        return Err(format!("status {}: {}", reply.status, reply.text()));
    }
    let v = serde_json::parse_value(reply.text()).map_err(|e| e.to_string())?;
    if v.get("cache_hit") != Some(&Value::Bool(false)) {
        return Err("timed request was not a cache miss".into());
    }
    let server_us = num(&v, "plan_us")?;
    let result = v.get("result").ok_or("no result")?;
    if num(result, "n")? as usize != N {
        return Err("wrong n".into());
    }
    let cost = num(result, "service_cost")?;
    let improvement =
        result.get("refine").map(|r| num(r, "improvement_ratio")).ok_or("no refine object")??;
    if improvement.is_nan() || improvement < 0.0 {
        return Err(format!("improvement_ratio {improvement} < 0"));
    }
    let series = ScheduleSeries::from_value(result.get("schedule").ok_or("no schedule")?)
        .map_err(|e| format!("schedule: {}", e.0))?;
    if (series.service_cost() - cost).abs() > 1e-6 * cost.max(1.0) {
        return Err(format!(
            "schedule costs {} but service_cost says {cost}",
            series.service_cost()
        ));
    }
    let tree = serde_json::parse_value(&body(seed, sample.index)).map_err(|e| e.to_string())?;
    let (_, instance) = realise(&tree, seed, sample.index)?;
    let t = Instant::now();
    let feasible = check_series(&instance, &series);
    let feasibility_us = us(t.elapsed());
    if let Err(violations) = feasible {
        return Err(format!(
            "{} feasibility violations, first {:?}",
            violations.len(),
            violations.first()
        ));
    }
    let t = Instant::now();
    let bound = lemma3_lower_bound(&instance).bound;
    let bounds_us = us(t.elapsed());
    if !(bound > 0.0 && cost >= bound * (1.0 - 1e-9)) {
        return Err(format!("cost {cost} below Lemma-3 bound {bound}"));
    }
    Ok(Checked { index: sample.index, cost, bound, server_us, feasibility_us, bounds_us })
}

/// Checks every sample on one thread per core; returns the passing ones.
fn check_all(seed: u64, samples: &[Sample], checks: &mut Checks) -> Vec<Checked> {
    let chunk = samples.len().div_ceil(cores()).max(1);
    let results: Vec<Result<Checked, String>> = std::thread::scope(|s| {
        let threads: Vec<_> = samples
            .chunks(chunk)
            .map(|part| s.spawn(move || part.iter().map(|x| check(seed, x)).collect::<Vec<_>>()))
            .collect();
        threads.into_iter().flat_map(|t| t.join().expect("check thread")).collect()
    });
    let mut ok = Vec::new();
    for (sample, r) in samples.iter().zip(results) {
        match r {
            Ok(c) => {
                checks.op(Ok(()));
                ok.push(c);
            }
            Err(e) => checks.op(Err(format!("/plan index {}: {e}", sample.index))),
        }
    }
    ok
}

fn latencies_ms(samples: &[Sample]) -> Vec<f64> {
    samples.iter().filter(|s| s.reply.is_ok()).map(|s| ms(s.latency)).collect()
}

pub fn run(args: &RunArgs) -> Outcome {
    let seed = args.seed;
    let mut checks = Checks::default();
    let mut setups = Vec::new();
    let mut handle = None;
    for round in 0..SETUPS {
        if let Some(h) = handle.take() {
            ServerHandle::shutdown(h);
        }
        let (h, took) = setup(seed, round, &mut checks);
        setups.push(took.as_secs_f64());
        handle = Some(h);
    }
    let handle = handle.expect("at least one set-up");
    let setup_s = median(&mut setups);
    let next = AtomicU64::new(0);
    let mut notes =
        vec![format!("setup_s = {setup_s} s CPU (median of {SETUPS} daemon starts + warm-ups)")];

    let result = if args.trace {
        let (mut traced, untraced): (Vec<Sample>, Vec<Sample>) =
            closed_loop(handle.addr, seed, &next, args.seconds, true)
                .into_iter()
                .partition(|s| s.stages.is_some());
        let peak = peak_rss_mb();
        handle.shutdown();
        break_down_all(seed, &mut traced);
        let e2e_us = median(&mut latencies_ms(&untraced)) * 1e3;
        check_all(seed, &untraced, &mut checks);
        let checked = check_all(seed, &traced, &mut checks);
        let mut layers = traced_layers(&traced, &checked, e2e_us, &mut checks);
        layers.set("peak_rss_mb", peak);
        notes.push(format!(
            "traced requests = {}, untraced requests = {}",
            traced.len(),
            untraced.len()
        ));
        Measured::Layers(layers)
    } else {
        let samples = closed_loop(handle.addr, seed, &next, args.seconds, false);
        let peak = peak_rss_mb();
        let rest: Vec<Sample> =
            (next.load(Relaxed)..COST_PREFIX).map(|i| post(handle.addr, seed, i)).collect();
        handle.shutdown();
        let mut checked = check_all(seed, &samples, &mut checks);
        let server_ms: Vec<(Duration, f64)> = {
            let by_index: HashMap<u64, f64> =
                checked.iter().map(|c| (c.index, c.server_us / 1e3)).collect();
            samples.iter().filter_map(|s| by_index.get(&s.index).map(|&v| (s.done_at, v))).collect()
        };
        checked.extend(check_all(seed, &rest, &mut checks));
        let lat: Vec<(Duration, f64)> = samples
            .iter()
            .filter(|s| s.reply.is_ok())
            .map(|s| (s.done_at, ms(s.latency)))
            .collect();
        let done: Vec<(Duration, f64)> = samples.iter().map(|s| (s.done_at, 1.0)).collect();
        let prefix: Vec<&Checked> = checked.iter().filter(|c| c.index < COST_PREFIX).collect();
        let cost_ratio =
            prefix.iter().map(|c| c.cost / c.bound).sum::<f64>() / prefix.len().max(1) as f64;
        let span = args.seconds;
        let e = EndToEnd {
            p50_ms: windowed(&lat, span, WINDOWS, median),
            tail_ms: windowed(&lat, span, WINDOWS, |v| percentile(v, 0.9)),
            throughput_per_s: windowed_rate(&done, span, WINDOWS),
            second_p50_ms: windowed(&server_ms, span, WINDOWS, median),
            cost_ratio,
            setup_s,
        };
        notes.push(format!("plan_p50_ms = {} ms (n = {})", e.p50_ms, lat.len()));
        notes.push(format!("plan_p90_ms = {} ms", e.tail_ms));
        notes.push(format!(
            "plan_rps = {} 1/s ({} clients, {} requests in {} s)",
            e.throughput_per_s,
            cores(),
            samples.len(),
            span.as_secs_f64()
        ));
        notes
            .push(format!("plan_server_p50_ms = {} ms (daemon-reported plan_us)", e.second_p50_ms));
        notes.push(format!(
            "plan_cost_ratio = {cost_ratio} (mean service_cost / Lemma-3 bound, first {} requests)",
            prefix.len()
        ));
        notes.push(format!("peak_rss_mb = {peak} MB"));
        Measured::EndToEnd(e)
    };
    Outcome { checks, notes, result }
}

/// Per-layer medians of the traced phase and the stage-coverage check.
fn traced_layers(
    traced: &[Sample],
    checked: &[Checked],
    e2e_us: f64,
    checks: &mut Checks,
) -> Layers {
    let stages: Vec<Stages> = traced.iter().filter_map(|s| s.stages).collect();
    let med = |f: fn(&Stages) -> f64| median(&mut stages.iter().map(f).collect::<Vec<_>>());
    let mut l = Layers::default();
    l.set("serve.parse_us", med(|s| s.parse));
    l.set("exp.world_build_us", med(|s| s.world));
    l.set("core.rounding_us", med(|s| s.rounding));
    l.set("core.qmsf_us", med(|s| s.qmsf));
    l.set("core.qtsp_us", med(|s| s.qtsp));
    l.set("core.mtd_us", med(|s| s.mtd));
    l.set("opt.refine_us", med(|s| s.refine));
    l.set("opt.steps", med(|s| s.steps));
    l.set("opt.accept_ratio", med(|s| s.accepted / s.steps.max(1.0)));
    l.set("serve.render_us", med(|s| s.render));
    l.set("core.network_auto_us", med(|s| s.network_auto));
    l.set("serve.response_bytes", med(|s| s.bytes));
    let by_index: HashMap<u64, &Checked> = checked.iter().map(|c| (c.index, c)).collect();
    let mut transport: Vec<f64> = traced
        .iter()
        .filter_map(|s| by_index.get(&s.index).map(|c| us(s.latency) - c.server_us))
        .collect();
    l.set("serve.transport_us", median(&mut transport));
    l.set(
        "core.feasibility_us",
        median(&mut checked.iter().map(|c| c.feasibility_us).collect::<Vec<_>>()),
    );
    l.set("core.bounds_us", median(&mut checked.iter().map(|c| c.bounds_us).collect::<Vec<_>>()));
    // The median of each request's own stage sum: stage times are not
    // independent (a world build that faults its matrix in is slow for
    // every stage that follows), and a sum of per-stage medians mixes
    // requests. Algorithm 3 contains the rounding, forest and tour
    // stages, so only its total enters the sum.
    let in_process = med(|s| s.parse + s.world + s.mtd + s.refine + s.render);
    l.attribute(e2e_us, in_process + l.get("serve.transport_us"), checks);
    l
}
