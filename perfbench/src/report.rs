//! The metric names the benchmark reports, failure accounting, and the
//! output format: human-readable lines, then one JSON result line.

use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`), as `(name, unit)`. Every workload
/// reports every one of them; README.md maps each to the workload's own
/// operation (cold `/plan`, telemetry batch, simulator run).
pub const END_TO_END: [(&str, &str); 6] = [
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("second_p50_ms", "ms"),
    ("cost_ratio", "ratio"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`), as `(name, unit)`. Every workload
/// reports every one; a layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("serve.parse_us", "us"),
    ("exp.world_build_us", "us"),
    ("core.network_auto_us", "us"),
    ("core.rounding_us", "us"),
    ("core.qmsf_us", "us"),
    ("core.qtsp_us", "us"),
    ("core.mtd_us", "us"),
    ("opt.refine_us", "us"),
    ("opt.steps", "count"),
    ("opt.accept_ratio", "ratio"),
    ("serve.render_us", "us"),
    ("serve.response_bytes", "bytes"),
    ("serve.transport_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.encode_us", "us"),
    ("session.lookup_us", "us"),
    ("online.ingest_none_us", "us"),
    ("online.ingest_incremental_us", "us"),
    ("online.ingest_full_us", "us"),
    ("online.replans_incremental", "count"),
    ("online.replans_full", "count"),
    ("online.planner_calls", "count"),
    ("online.class_changes", "count"),
    ("online.frames", "count"),
    ("journal.append_us", "us"),
    ("journal.flush_us", "us"),
    ("journal.bytes_per_frame", "bytes"),
    ("session.plan_read_us", "us"),
    ("sim.policy_us", "us"),
    ("sim.engine_us", "us"),
    ("sim.adaptive_engine_us", "us"),
    ("sim.polling_policy_us", "us"),
    ("core.incremental_s", "s"),
    ("core.full_replan_s", "s"),
    ("sim.replans_incremental", "count"),
    ("sim.replans_full", "count"),
    ("sim.dispatches", "count"),
    ("sim.charges", "count"),
    ("sim.emergency_dispatches", "count"),
    ("sim.checks", "count"),
    ("core.feasibility_us", "us"),
    ("core.bounds_us", "us"),
    ("e2e_median_us", "us"),
    ("unattributed_us", "us"),
    ("attributed_share", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The share of the untraced end-to-end median the traced layer times
/// must explain; they may over-explain it by at most its inverse.
pub const MIN_ATTRIBUTED_SHARE: f64 = 0.9;

/// The end-to-end values of one run, one field per [`END_TO_END`] name.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub p50_ms: f64,
    pub tail_ms: f64,
    pub throughput_per_s: f64,
    pub second_p50_ms: f64,
    pub cost_ratio: f64,
    pub setup_s: f64,
}

impl EndToEnd {
    fn values(&self) -> [f64; 6] {
        [
            self.p50_ms,
            self.tail_ms,
            self.throughput_per_s,
            self.second_p50_ms,
            self.cost_ratio,
            self.setup_s,
        ]
    }
}

/// Per-layer values of a traced run, all [`PER_LAYER`] names present.
#[derive(Debug, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Self(PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect())
    }
}

impl Layers {
    /// Records one layer metric; `name` must be one of [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self.0.get_mut(name).unwrap_or_else(|| panic!("unknown layer metric {name}"));
        *slot = value;
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Records the stage-coverage result, how much of the untraced
    /// end-to-end median `e2e_us` the traced layer times (`explained_us`,
    /// layers that do not nest) explain, and counts it as one check. It
    /// fails below [`MIN_ATTRIBUTED_SHARE`], and above its inverse: layer
    /// times that over-explain the end-to-end figure were measured on
    /// something the program does not do.
    pub fn attribute(&mut self, e2e_us: f64, explained_us: f64, checks: &mut Checks) {
        let share = if e2e_us > 0.0 { explained_us / e2e_us } else { 0.0 };
        self.set("e2e_median_us", e2e_us);
        self.set("unattributed_us", e2e_us - explained_us);
        self.set("attributed_share", share);
        checks.op(if (MIN_ATTRIBUTED_SHARE..=1.0 / MIN_ATTRIBUTED_SHARE).contains(&share) {
            Ok(())
        } else {
            Err(format!("traced layers explain {share:.3} of the untraced median"))
        });
    }
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    reasons: Vec<String>,
}

impl Checks {
    /// Counts one operation; `Err` marks it failed.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = result {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(reason);
            }
        }
    }
}

/// What one run measured.
pub struct Outcome {
    pub checks: Checks,
    /// Human-readable lines (the workload-specific metric names and sample
    /// counts), printed before the result line.
    pub notes: Vec<String>,
    pub result: Measured,
}

/// The metrics of the mode that ran.
pub enum Measured {
    EndToEnd(EndToEnd),
    Layers(Layers),
}

impl Outcome {
    /// Prints the run: notes, then the JSON result as the last line.
    /// Returns whether every check passed.
    pub fn print(&self) -> bool {
        for note in &self.notes {
            println!("  {note}");
        }
        let ratio = self.checks.failed as f64 / self.checks.attempted.max(1) as f64;
        println!("  failed_ratio = {ratio} ({} of {})", self.checks.failed, self.checks.attempted);
        for reason in &self.checks.reasons {
            eprintln!("perfbench: check failed: {reason}");
        }
        let metrics: Vec<String> = match &self.result {
            Measured::EndToEnd(e) => END_TO_END
                .iter()
                .zip(e.values())
                .map(|(&(name, unit), v)| metric_json(name, v, unit))
                .collect(),
            Measured::Layers(l) => {
                PER_LAYER.iter().map(|&(name, unit)| metric_json(name, l.get(name), unit)).collect()
            }
        };
        let correct = self.checks.failed == 0 && self.checks.attempted > 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.attempted.max(1),
            self.checks.failed,
            metrics.join(", ")
        );
        correct
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
}
