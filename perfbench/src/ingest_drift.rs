//! `ingest_drift`: a slot-ordered binary telemetry stream against a
//! journaled daemon holding a few hundred sessions, with a fixed subset of
//! sensors drifting, from one closed-loop client per core.
//!
//! Each client owns a disjoint set of sessions (per-session time order is
//! the protocol's contract) and sends `POST /telemetry/batch` requests of
//! [`FRAMES`] PBT1 frames; every [`READ_EVERY`]th request is a
//! `GET /session/{id}/plan` instead. Drifting sensors follow rate drift
//! that restarts every [`PERIOD`] slots, compounding in most sessions and
//! stepping in a few, so a steady share of frames crosses a class band
//! and triggers incremental (and some full) replans for the whole run. Before the timed window every session is
//! driven untimed to a fixed slot and its plan read there, so the cost
//! ratio depends on the seed alone. The traced run alternates blocks of
//! requests between the socket and an in-process replay of the batch
//! handler's calls on the daemon's own session store and journal.

use crate::client::{self, Reply};
use crate::report::{Checks, EndToEnd, Layers, Measured, Outcome};
use crate::stats::{
    cores, median, ms, peak_rss_mb, percentile, process_cpu, us, windowed, windowed_rate, SplitMix,
};
use crate::RunArgs;
use perpetuum_core::lemma3_lower_bound;
use perpetuum_core::network::{Instance, Network};
use perpetuum_core::schedule::ScheduleSeries;
use perpetuum_exp::scenario::world_from_value;
use perpetuum_online::{IngestReport, ReplanKind, TelemetryBatch, TelemetryRecord};
use perpetuum_serve::wire::{self, Frame, FrameOutcome, FramePayload};
use perpetuum_serve::{start, AppState, FsyncPolicy, ServerConfig, ServerHandle};
use serde::{Deserialize as _, Value};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const SESSIONS: usize = 256;
const SENSORS: usize = 200;
/// Frames per batch request: on two cores, one slot of a client's 128
/// sessions. Each request is a few milliseconds of work, so a few
/// milliseconds of lost CPU (another tenant of the host) stretch it by a
/// fraction, not a multiple. At 32 frames such stalls set the tail and
/// halve the throughput (README.md, *Findings*).
const FRAMES: usize = 128;
/// Stable sensors reported per frame, rotating through the network.
const STABLE_PER_FRAME: usize = 16;
/// Every this-many-th request reads a session plan instead.
const READ_EVERY: u64 = 16;
/// Monitoring period of every session.
const HORIZON: f64 = 3000.0;
/// Time between a session's frames: the stream holds [`LAST_SLOT`] =
/// 59 980 slots, about thirteen times the most a 20 s run reached on two
/// cores. A run that reaches the end fails its check.
const SLOT_TIME: f64 = 0.05;
/// The slot no stream goes past.
const LAST_SLOT: u64 = ((HORIZON - 1.0) / SLOT_TIME) as u64;
/// Every session is driven to this slot before the timed window, and the
/// cost ratio read from its plan there: two drift periods, so every
/// drifting sensor has risen through its bands at least once.
const COST_SLOT: u64 = 2 * PERIOD;
/// Per-slot compounding drift factor of a drifting sensor's rate.
const DRIFT: f64 = 0.03;
/// Slots after which a drifting sensor's rate returns to its base:
/// `(1 + DRIFT)^(PERIOD - 1)` ≈ 4, two class halvings per period.
const PERIOD: u64 = 48;
/// Rate factor of a step drift.
const STEP: f64 = 4.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Traced runs alternate between socket and in-process replay in blocks
/// of this many requests (one block holds one plan read).
const TRACE_BLOCK: u64 = READ_EVERY;
/// Parts of the timed window whose median the latency and rate figures
/// report.
const WINDOWS: usize = 5;

fn scenario() -> String {
    format!(
        r#"{{"field_size": 1000.0, "n": {SENSORS}, "q": 5, "tau_min": 20.0, "tau_max": 640.0, "dist": {{"Linear": {{"sigma": 2.0}}}}, "horizon": {HORIZON:?}, "slot": 1.0, "variable": false, "deployment": "Uniform"}}"#
    )
}

/// One session as the benchmark generated it.
struct Session {
    id: u64,
    network: Network,
    base_rates: Vec<f64>,
    /// The drifting sensor and its phase.
    drift: Option<(usize, u64)>,
    /// Whether the drift is a step: the rate sits at [`STEP`] times its
    /// base for the second half of every period instead of compounding.
    step: bool,
}

impl Session {
    fn rate(&self, sensor: usize, slot: u64) -> f64 {
        match self.drift {
            Some((s, phase)) if s == sensor => {
                let at = (slot + phase) % PERIOD;
                let factor = if !self.step {
                    (1.0 + DRIFT).powi(at as i32)
                } else if at < PERIOD / 2 {
                    1.0
                } else {
                    STEP
                };
                self.base_rates[s] * factor
            }
            _ => self.base_rates[sensor],
        }
    }

    fn frame(&self, slot: u64) -> Frame {
        let mut records: Vec<TelemetryRecord> = (0..STABLE_PER_FRAME)
            .map(|j| (slot as usize * STABLE_PER_FRAME + j) % SENSORS)
            .filter(|&i| self.drift.is_none_or(|(d, _)| d != i))
            .map(|i| TelemetryRecord::rate(i, self.rate(i, slot)))
            .collect();
        if let Some((d, _)) = self.drift {
            records.push(TelemetryRecord::rate(d, self.rate(d, slot)));
        }
        Frame::telemetry(self.id, TelemetryBatch { time: slot as f64 * SLOT_TIME, records })
    }
}

/// One request of a client's stream.
enum Request {
    Batch(Vec<Frame>),
    Read(usize),
}

/// A client's slot-ordered request stream over the sessions it owns.
struct Stream {
    owned: Vec<usize>,
    slot: u64,
    /// The stream ends when every owned session has reached this slot.
    end: u64,
    cursor: usize,
    sent: u64,
    rng: SplitMix,
}

impl Stream {
    fn next(&mut self, sessions: &[Session]) -> Option<Request> {
        self.sent += 1;
        if self.sent.is_multiple_of(READ_EVERY) {
            return Some(Request::Read(
                self.owned[self.rng.below(self.owned.len() as u64) as usize],
            ));
        }
        let mut frames = Vec::with_capacity(FRAMES);
        while frames.len() < FRAMES && self.slot < self.end {
            frames.push(sessions[self.owned[self.cursor]].frame(self.slot));
            self.cursor += 1;
            if self.cursor == self.owned.len() {
                self.cursor = 0;
                self.slot += 1;
            }
        }
        (!frames.is_empty()).then_some(Request::Batch(frames))
    }
}

/// What one request did, as the client saw it.
enum Done {
    /// `done_at` is the completion time from the start of the window.
    Batch {
        frames: usize,
        latency: Duration,
        done_at: Duration,
        reply: Result<Reply, String>,
    },
    Read {
        session: usize,
        latency: Duration,
        done_at: Duration,
        reply: Result<Reply, String>,
    },
    /// Replayed in-process (traced runs), followed by an empty batch
    /// over the socket that times the transport on its own.
    Local {
        trace: Trace,
        outcomes: Vec<FrameOutcome>,
        probe: Result<Reply, String>,
    },
    LocalRead {
        us: f64,
    },
}

/// In-process layer times of one replayed batch, µs.
#[derive(Default)]
struct Trace {
    decode: f64,
    lookups: Vec<f64>,
    ingest: Vec<(ReplanKind, f64)>,
    appends: Vec<f64>,
    flush: f64,
    encode: f64,
}

impl Trace {
    fn total(&self) -> f64 {
        self.decode
            + self.lookups.iter().sum::<f64>()
            + self.ingest.iter().map(|x| x.1).sum::<f64>()
            + self.appends.iter().sum::<f64>()
            + self.flush
            + self.encode
    }
}

/// The batch handler's calls, in its order, on the daemon's own state:
/// decode, per session lookup + slot lock, ingest, journal append, then
/// one flush and the report encoding.
fn replay(state: &AppState, frames: &[Frame]) -> (Trace, Vec<FrameOutcome>) {
    let body = wire::encode_frames(frames);
    let mut tr = Trace::default();
    let t = Instant::now();
    let decoded = wire::decode_frames(&body).expect("generated frames decode");
    tr.decode = us(t.elapsed());

    let mut order: Vec<u64> = Vec::new();
    let mut groups: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, f) in decoded.iter().enumerate() {
        groups
            .entry(f.session)
            .or_insert_with(|| {
                order.push(f.session);
                Vec::new()
            })
            .push(i);
    }
    let journal = state.journal.as_ref().expect("ingest daemon is journaled");
    let mut outcomes: Vec<Option<FrameOutcome>> = decoded.iter().map(|_| None).collect();
    for session in order {
        let indices = &groups[&session];
        let t = Instant::now();
        let slot = state.sessions.get(session).expect("live session");
        let mut controller = slot.lock().expect("session not poisoned");
        tr.lookups.push(us(t.elapsed()));
        let mut accepted = Vec::new();
        for &i in indices {
            let FramePayload::Telemetry(batch) = &decoded[i].payload else {
                unreachable!("the stream sends telemetry frames only");
            };
            let t = Instant::now();
            let report = controller.ingest(batch);
            let took = us(t.elapsed());
            if let Ok(r) = &report {
                tr.ingest.push((r.replan, took));
                accepted.push(decoded[i].clone());
            }
            outcomes[i] = Some(FrameOutcome { session, result: report.map_err(|e| e.to_string()) });
        }
        let t = Instant::now();
        journal.append_frames(session, accepted);
        tr.appends.push(us(t.elapsed()));
    }
    let t = Instant::now();
    journal.flush().expect("journal flush");
    tr.flush = us(t.elapsed());
    let outcomes: Vec<FrameOutcome> =
        outcomes.into_iter().map(|o| o.expect("every frame applied")).collect();
    let t = Instant::now();
    std::hint::black_box(wire::encode_reports(&outcomes));
    tr.encode = us(t.elapsed());
    (tr, outcomes)
}

struct Daemon {
    handle: ServerHandle,
    dir: PathBuf,
}

impl Daemon {
    fn stop(self) {
        self.handle.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Starts a journaled daemon in a fresh directory, then generates the
/// sessions and opens each over the socket. The returned time is the
/// process's CPU time over the session opens only: opening the journal
/// stamps and fsyncs every shard's WAL, and one fsync on a shared disk can
/// take longer than all the rest.
fn setup(seed: u64, round: usize, checks: &mut Checks) -> (Daemon, Vec<Session>, Duration) {
    let dir = std::env::current_dir()
        .expect("working directory")
        .join(format!("perfbench/.tmp/ingest-{}-{round}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("journal directory");
    // Room for every session: shards are hash-picked, so per-shard LRU
    // capacity needs headroom above the mean occupancy. One apply thread
    // per request: with one client per core both workers are already
    // busy, and per-request apply threads only oversubscribe the cores.
    // The journal's request path (staging, group-commit writes) runs as
    // shipped, but nothing in the timed window waits on the disk: the
    // background fsync is off and compaction, which fsyncs every
    // snapshot, runs only on drain. README.md has the measurements
    // behind each of these settings.
    let config = ServerConfig {
        data_dir: Some(dir.clone()),
        session_capacity: 4 * SESSIONS,
        compact_every: 0,
        fsync_policy: FsyncPolicy::Never,
        session_threads: 1,
        ..ServerConfig::default()
    };
    let handle = start(config).expect("journaled daemon starts");
    let cpu = process_cpu();
    let addr = handle.addr;
    let scenario = scenario();
    let scenario_value = serde_json::parse_value(&scenario).expect("scenario is JSON");
    // One session at a time, in list order: the daemon hands out ids in
    // arrival order and ids pick store and journal shards, so a fixed
    // order keeps the shard layout the same from run to run.
    let created: Vec<Result<Session, String>> =
        (0..SESSIONS).map(|k| open(addr, seed, k, &scenario, &scenario_value)).collect();
    let mut sessions = Vec::new();
    for c in created {
        match c {
            Ok(s) => {
                checks.op(Ok(()));
                sessions.push(s);
            }
            Err(e) => checks.op(Err(e)),
        }
    }
    (Daemon { handle, dir }, sessions, process_cpu() - cpu)
}

fn open(
    addr: SocketAddr,
    seed: u64,
    k: usize,
    scenario: &str,
    scenario_value: &Value,
) -> Result<Session, String> {
    let body = format!(r#"{{"scenario": {scenario}, "seed": {seed}, "index": {k}}}"#);
    let reply =
        client::send(addr, "POST", "/session", None, body.as_bytes()).map_err(|e| e.to_string())?;
    if reply.status != 200 {
        return Err(format!("POST /session: status {}: {}", reply.status, reply.text()));
    }
    let v = serde_json::parse_value(reply.text()).map_err(|e| e.to_string())?;
    let Some(Value::Num(id)) = v.get("session") else {
        return Err(format!("POST /session: no id in {}", reply.text()));
    };
    let parsed = world_from_value(scenario_value, seed, k as u64).map_err(|e| e.to_string())?;
    let cycles = &parsed.topology.init_cycles;
    let base_rates = parsed.world.capacities().iter().zip(cycles).map(|(&c, &t)| c / t).collect();
    // Half of the sessions have one drifting sensor, in a pattern that
    // splits evenly over clients. Most are drawn from the middle of the
    // cycle range, where a 4x rate rise moves the sensor down two classes
    // without undercutting τ₁ or emptying the top class: incremental
    // replans. In one session of sixteen it has the shortest cycle band
    // and steps instead, so the step up undercuts τ₁ and replans in full.
    // (A compounding rise there would replan in full on every frame of
    // the rise, and those sessions alone would set the run's latency.)
    let (lo, hi) = cycles.iter().fold((f64::MAX, 0.0f64), |(lo, hi), &c| (lo.min(c), hi.max(c)));
    let full = k % 32 < 2;
    let eligible: Vec<usize> = (0..cycles.len())
        .filter(|&i| {
            if full {
                cycles[i] < 2.0 * lo
            } else {
                cycles[i] >= 5.0 * lo && cycles[i] <= hi / 2.0
            }
        })
        .collect();
    let mut rng = SplitMix::new(seed, k as u64);
    let drift = ((full || k % 4 < 2) && !eligible.is_empty())
        .then(|| (eligible[rng.below(eligible.len() as u64) as usize], rng.below(PERIOD)));
    Ok(Session { id: *id as u64, network: parsed.topology.network, base_rates, drift, step: full })
}

/// Runs every client's stream until it ends or `for_` elapses. With
/// `state`, blocks of requests alternate between the socket and
/// in-process replay.
fn closed_loop(
    addr: SocketAddr,
    sessions: &[Session],
    streams: &mut [Stream],
    for_: Option<Duration>,
    state: Option<&AppState>,
) -> Vec<Done> {
    let started = Instant::now();
    let deadline = for_.map(|d| started + d);
    let done = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for stream in streams.iter_mut() {
            let done = &done;
            s.spawn(move || {
                let mut mine = Vec::new();
                while deadline.is_none_or(|d| Instant::now() < d) {
                    let local = state.filter(|_| (stream.sent / TRACE_BLOCK).is_multiple_of(2));
                    let Some(request) = stream.next(sessions) else { break };
                    mine.push(match (request, local) {
                        (Request::Batch(frames), Some(state)) => {
                            let (trace, outcomes) = replay(state, &frames);
                            let probe = client::send(
                                addr,
                                "POST",
                                "/telemetry/batch",
                                Some(wire::CONTENT_TYPE),
                                &wire::encode_frames(&[]),
                            );
                            Done::Local { trace, outcomes, probe: probe.map_err(|e| e.to_string()) }
                        }
                        (Request::Read(k), Some(state)) => {
                            let t = Instant::now();
                            let slot = state.sessions.get(sessions[k].id).expect("live session");
                            let plan = slot.lock().expect("session not poisoned").plan_json();
                            std::hint::black_box(plan);
                            Done::LocalRead { us: us(t.elapsed()) }
                        }
                        (Request::Batch(frames), None) => {
                            let body = wire::encode_frames(&frames);
                            let reply = client::send(
                                addr,
                                "POST",
                                "/telemetry/batch",
                                Some(wire::CONTENT_TYPE),
                                &body,
                            );
                            let latency = reply.as_ref().map_or(Duration::ZERO, |r| r.latency);
                            let done_at = started.elapsed();
                            Done::Batch {
                                frames: frames.len(),
                                latency,
                                done_at,
                                reply: reply.map_err(|e| e.to_string()),
                            }
                        }
                        (Request::Read(k), None) => {
                            let path = format!("/session/{}/plan", sessions[k].id);
                            let reply = client::send(addr, "GET", &path, None, b"");
                            let latency = reply.as_ref().map_or(Duration::ZERO, |r| r.latency);
                            let done_at = started.elapsed();
                            Done::Read {
                                session: k,
                                latency,
                                done_at,
                                reply: reply.map_err(|e| e.to_string()),
                            }
                        }
                    });
                }
                done.lock().expect("result lock").extend(mine);
            });
        }
    });
    done.into_inner().expect("result lock")
}

/// Per-frame reports of a batch reply; any transport, status or decode
/// failure fails every frame of the request.
fn batch_reports(
    frames: usize,
    reply: &Result<Reply, String>,
) -> Result<Vec<FrameOutcome>, String> {
    let reply = reply.as_ref().map_err(|e| e.clone())?;
    if reply.status != 200 {
        return Err(format!("POST /telemetry/batch: status {}: {}", reply.status, reply.text()));
    }
    let outcomes = wire::decode_reports(&reply.body).map_err(|e| format!("reports: {e}"))?;
    if outcomes.len() != frames {
        return Err(format!("{} reports for {frames} frames", outcomes.len()));
    }
    Ok(outcomes)
}

/// Checks a plan read and returns its pending plan's cost over the
/// Lemma-3 bound of the remaining horizon.
fn read_ratio(session: &Session, reply: &Result<Reply, String>) -> Result<f64, String> {
    let reply = reply.as_ref().map_err(|e| e.clone())?;
    if reply.status != 200 {
        return Err(format!("GET plan: status {}: {}", reply.status, reply.text()));
    }
    let v = serde_json::parse_value(reply.text()).map_err(|e| e.to_string())?;
    let now = match v.get("now") {
        Some(Value::Num(x)) => *x,
        _ => return Err("plan has no `now`".into()),
    };
    let assigned: Vec<f64> = match v.get("assigned_cycles") {
        Some(Value::Arr(a)) => {
            a.iter().filter_map(|x| if let Value::Num(c) = x { Some(*c) } else { None }).collect()
        }
        _ => return Err("plan has no assigned_cycles".into()),
    };
    if assigned.len() != SENSORS {
        return Err(format!("{} assigned cycles for {SENSORS} sensors", assigned.len()));
    }
    let series = ScheduleSeries::from_value(v.get("schedule").ok_or("plan has no schedule")?)
        .map_err(|e| format!("schedule: {}", e.0))?;
    let pending: f64 =
        series.dispatches().iter().filter(|d| d.time >= now).map(|d| series.set_of(d).cost()).sum();
    let bound =
        lemma3_lower_bound(&Instance::new(session.network.clone(), assigned, HORIZON - now)).bound;
    if !(pending > 0.0 && bound > 0.0) {
        return Err(format!("pending plan cost {pending} over bound {bound}"));
    }
    Ok(pending / bound)
}

/// Counts of what the reports say the controllers did.
#[derive(Default)]
struct Tally {
    frames: u64,
    incremental: u64,
    full: u64,
    planner_calls: u64,
    class_changes: u64,
}

impl Tally {
    fn add(&mut self, r: &IngestReport) {
        self.frames += 1;
        match r.replan {
            ReplanKind::Incremental => self.incremental += 1,
            ReplanKind::Full => self.full += 1,
            ReplanKind::None => {}
        }
        self.planner_calls += r.planner_calls as u64;
        self.class_changes += r.class_changes as u64;
    }
}

/// What the requests of one phase showed; samples are
/// `(completion offset, value)` pairs.
#[derive(Default)]
struct Phase {
    batch_ms: Vec<(Duration, f64)>,
    /// Batch requests that carried at least one full replan.
    full_ms: Vec<(Duration, f64)>,
    read_ms: Vec<(Duration, f64)>,
    /// Frames applied per socket batch.
    applied: Vec<(Duration, f64)>,
    /// Pending plan cost over its bound, per checked plan read.
    ratios: Vec<f64>,
    tally: Tally,
}

/// Checks and accounts every request of a phase: each frame and each
/// plan read is one operation.
fn account(done: &[Done], sessions: &[Session], checks: &mut Checks) -> Phase {
    let mut phase = Phase::default();
    let frames_ok = |outcomes: &[FrameOutcome], tally: &mut Tally, checks: &mut Checks| {
        let mut ok = 0.0;
        for o in outcomes {
            match &o.result {
                Ok(r) => {
                    tally.add(r);
                    ok += 1.0;
                    checks.op(Ok(()));
                }
                Err(e) => checks.op(Err(format!("session {}: frame rejected: {e}", o.session))),
            }
        }
        ok
    };
    for d in done {
        match d {
            Done::Batch { frames, latency, done_at, reply } => {
                match batch_reports(*frames, reply) {
                    Ok(outcomes) => {
                        phase.batch_ms.push((*done_at, ms(*latency)));
                        let full = |o: &FrameOutcome| {
                            o.result.as_ref().is_ok_and(|r| r.replan == ReplanKind::Full)
                        };
                        if outcomes.iter().any(full) {
                            phase.full_ms.push((*done_at, ms(*latency)));
                        }
                        let ok = frames_ok(&outcomes, &mut phase.tally, checks);
                        phase.applied.push((*done_at, ok));
                    }
                    Err(e) => (0..*frames).for_each(|_| checks.op(Err(e.clone()))),
                }
            }
            Done::Read { session, latency, done_at, reply } => {
                match read_ratio(&sessions[*session], reply) {
                    Ok(r) => {
                        phase.read_ms.push((*done_at, ms(*latency)));
                        phase.ratios.push(r);
                        checks.op(Ok(()));
                    }
                    Err(e) => checks.op(Err(e)),
                }
            }
            Done::Local { outcomes, probe, .. } => {
                frames_ok(outcomes, &mut phase.tally, checks);
                checks.op(batch_reports(0, probe).map(|_| ()));
            }
            Done::LocalRead { .. } => checks.op(Ok(())),
        }
    }
    phase
}

fn values(samples: &[(Duration, f64)]) -> Vec<f64> {
    samples.iter().map(|s| s.1).collect()
}

/// Reads every session's plan, untimed.
fn read_all(addr: SocketAddr, sessions: &[Session]) -> Vec<Done> {
    (0..sessions.len())
        .map(|k| {
            let path = format!("/session/{}/plan", sessions[k].id);
            let reply = client::send(addr, "GET", &path, None, b"").map_err(|e| e.to_string());
            Done::Read { session: k, latency: Duration::ZERO, done_at: Duration::ZERO, reply }
        })
        .collect()
}

/// Bytes in every shard's WAL.
fn wal_total(state: &AppState) -> u64 {
    let journal = state.journal.as_ref().expect("ingest daemon is journaled");
    journal.wal_bytes().expect("WAL sizes").iter().sum()
}

pub fn run(args: &RunArgs) -> Outcome {
    let seed = args.seed;
    let mut checks = Checks::default();
    let mut setups = Vec::new();
    let mut current = None;
    for round in 0..SETUPS {
        if let Some((d, _)) = current.take() {
            Daemon::stop(d);
        }
        let (daemon, sessions, took) = setup(seed, round, &mut checks);
        setups.push(took.as_secs_f64());
        current = Some((daemon, sessions));
    }
    let (daemon, sessions) = current.expect("at least one set-up");
    let setup_s = median(&mut setups);
    let clients = cores().min(sessions.len()).max(1);
    let mut streams: Vec<Stream> = (0..clients)
        .map(|c| Stream {
            owned: (c..sessions.len()).step_by(clients).collect(),
            slot: 1,
            end: COST_SLOT,
            cursor: 0,
            sent: 0,
            rng: SplitMix::new(seed, 0x5EAD + c as u64),
        })
        .collect();
    let addr = daemon.handle.addr;
    let mut notes = vec![format!(
        "setup_s = {setup_s} s CPU (median of {SETUPS}: {SESSIONS} x POST /session on a fresh journaled daemon)"
    )];

    // Untimed: every session to the same slot, then its plan there, so
    // the cost ratio never depends on how far a timed window gets.
    let drive = closed_loop(addr, &sessions, &mut streams, None, None);
    account(&drive, &sessions, &mut checks);
    let ratios = account(&read_all(addr, &sessions), &sessions, &mut checks).ratios;
    let cost_ratio = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    for stream in &mut streams {
        stream.end = LAST_SLOT;
    }

    let result = if args.trace {
        // One window in which blocks of requests alternate between the
        // socket and the in-process replay, so both see the same load.
        let state = daemon.handle.state();
        let wal_before = wal_total(state);
        let traced = closed_loop(addr, &sessions, &mut streams, Some(args.seconds), Some(state));
        let wal_written = wal_total(state) - wal_before;
        let peak = peak_rss_mb();
        let phase = account(&traced, &sessions, &mut checks);
        let mut layers = traced_layers(
            &traced,
            median(&mut values(&phase.batch_ms)) * 1e3,
            &phase.tally,
            wal_written,
            &mut checks,
        );
        layers.set("peak_rss_mb", peak);
        notes.push(format!(
            "traced window: {} frames, half of the requests replayed in-process",
            phase.tally.frames
        ));
        daemon.stop();
        Measured::Layers(layers)
    } else {
        let cpu = process_cpu();
        let done = closed_loop(addr, &sessions, &mut streams, Some(args.seconds), None);
        let cpu_s = (process_cpu() - cpu).as_secs_f64();
        let peak = peak_rss_mb();
        daemon.stop();
        let phase = account(&done, &sessions, &mut checks);
        let span = args.seconds;
        let tally = &phase.tally;
        let e = EndToEnd {
            p50_ms: windowed(&phase.batch_ms, span, WINDOWS, median),
            // The slow mode that full replans set: about 30% of requests
            // carry one. A median of them, unlike p99, is not set by the
            // few requests another tenant of the host stalled.
            tail_ms: windowed(&phase.full_ms, span, WINDOWS, median),
            // Frames per second of the process's CPU time, daemon and
            // clients together. Per wall second, a closed loop on a shared
            // host loses whole requests to every stall (see README.md).
            throughput_per_s: tally.frames as f64 / cpu_s,
            second_p50_ms: windowed(&phase.read_ms, span, WINDOWS, median),
            cost_ratio,
            setup_s,
        };
        let mut batch_ms = values(&phase.batch_ms);
        notes.push(format!(
            "ingest_frames_per_cpu_s = {} 1/s ({} frames in {cpu_s} s of CPU)",
            e.throughput_per_s, tally.frames
        ));
        notes.push(format!(
            "ingest_frames_per_s = {} 1/s (per wall second, median over {WINDOWS} parts of {} s)",
            windowed_rate(&phase.applied, span, WINDOWS),
            span.as_secs_f64()
        ));
        notes.push(format!("ingest_p50_ms = {} ms (n = {})", e.p50_ms, batch_ms.len()));
        notes.push(format!(
            "ingest_full_replan_p50_ms = {} ms (n = {}: requests that carried a full replan)",
            e.tail_ms,
            phase.full_ms.len()
        ));
        notes.push(format!("ingest_p90_ms = {} ms", percentile(&mut batch_ms, 0.9)));
        notes.push(format!(
            "ingest_p99_ms = {} ms",
            windowed(&phase.batch_ms, span, WINDOWS, |v| percentile(v, 0.99))
        ));
        notes.push(format!("ingest_p99.9_ms = {} ms", percentile(&mut batch_ms, 0.999)));
        notes.push(format!(
            "session_plan_p50_ms = {} ms (n = {})",
            e.second_p50_ms,
            phase.read_ms.len()
        ));
        notes.push(format!("session_plan_cost_ratio = {} (plans of all sessions at slot {COST_SLOT}: pending cost / Lemma-3 bound of the remaining horizon)", e.cost_ratio));
        notes.push(format!(
            "replans: {} incremental, {} full, {} class changes, {} planner calls over {} frames; last slot {:?}",
            tally.incremental, tally.full, tally.class_changes, tally.planner_calls, tally.frames,
            streams.iter().map(|s| s.slot).collect::<Vec<_>>()
        ));
        notes.push(format!("peak_rss_mb = {peak} MB"));
        // The step-drift sessions replan in full every period; a window
        // without one measured no replan tail.
        checks.op(if phase.full_ms.is_empty() {
            Err("no batch request in the window carried a full replan".into())
        } else {
            Ok(())
        });
        Measured::EndToEnd(e)
    };
    // A stream that ran out idled its client for the rest of the window.
    for stream in &streams {
        checks.op(if stream.slot < LAST_SLOT {
            Ok(())
        } else {
            Err(format!("a client's stream ran out at slot {LAST_SLOT} inside the window"))
        });
    }
    let _ = std::fs::remove_dir(
        std::env::current_dir().expect("working directory").join("perfbench/.tmp"),
    );
    Outcome { checks, notes, result }
}

/// Per-layer medians of the in-process requests. `socket_us` is the
/// median latency of the socket requests of the same window; the
/// transport time is that of the empty batch sent after each replay.
fn traced_layers(
    traced: &[Done],
    socket_us: f64,
    tally: &Tally,
    wal_written: u64,
    checks: &mut Checks,
) -> Layers {
    let locals: Vec<(&Trace, f64)> = traced
        .iter()
        .filter_map(|d| match d {
            Done::Local { trace, probe: Ok(p), .. } => Some((trace, us(p.latency))),
            _ => None,
        })
        .collect();
    let per_call = |f: &dyn Fn(&Trace) -> Vec<f64>| {
        median(&mut locals.iter().flat_map(|t| f(t.0)).collect::<Vec<_>>())
    };
    let per_request =
        |f: &dyn Fn(&Trace) -> f64| median(&mut locals.iter().map(|t| f(t.0)).collect::<Vec<_>>());
    let ingest_of = |kind: ReplanKind| {
        move |t: &Trace| t.ingest.iter().filter(|x| x.0 == kind).map(|x| x.1).collect::<Vec<_>>()
    };

    let mut l = Layers::default();
    l.set("wire.decode_us", per_request(&|t| t.decode));
    l.set("wire.encode_us", per_request(&|t| t.encode));
    l.set("session.lookup_us", per_call(&|t| t.lookups.clone()));
    l.set("online.ingest_none_us", per_call(&ingest_of(ReplanKind::None)));
    l.set("online.ingest_incremental_us", per_call(&ingest_of(ReplanKind::Incremental)));
    l.set("online.ingest_full_us", per_call(&ingest_of(ReplanKind::Full)));
    l.set("journal.append_us", per_call(&|t| t.appends.clone()));
    l.set("journal.flush_us", per_request(&|t| t.flush));
    l.set("journal.bytes_per_frame", wal_written as f64 / tally.frames.max(1) as f64);
    l.set("online.replans_incremental", tally.incremental as f64);
    l.set("online.replans_full", tally.full as f64);
    l.set("online.planner_calls", tally.planner_calls as f64);
    l.set("online.class_changes", tally.class_changes as f64);
    l.set("online.frames", tally.frames as f64);
    let mut reads: Vec<f64> = traced
        .iter()
        .filter_map(|d| if let Done::LocalRead { us } = d { Some(*us) } else { None })
        .collect();
    l.set("session.plan_read_us", median(&mut reads));
    l.set("serve.transport_us", median(&mut locals.iter().map(|t| t.1).collect::<Vec<_>>()));
    // The median of each replayed request's own layer total, plus the
    // median transport. The probe is a request of its own, so pairing it
    // with the replay before it would only add its scheduling noise.
    let explained = per_request(&Trace::total) + l.get("serve.transport_us");
    l.attribute(socket_us, explained, checks);
    l
}
