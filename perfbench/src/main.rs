//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <plan_cold|ingest_drift|sim_sweep> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <base results> <change results> [--spec BENCHMARK.json]
//! ```
//!
//! A run generates its inputs from `--seed`, sets up, measures for
//! `--seconds`, checks every output, and prints the metrics with the JSON
//! result as its last line. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer ones. README.md documents the workloads.

mod client;
mod compare;
mod ingest_drift;
mod plan_cold;
mod report;
mod sim_sweep;
mod stats;

use std::process::ExitCode;
use std::time::Duration;

/// The seed later performance claims must also hold on, besides the
/// seeds they were tuned on (see README.md).
pub const HELD_OUT_SEED: u64 = 20_140_909;

/// A parsed run request.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <plan_cold|ingest_drift|sim_sweep> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench compare <base> <change> [--spec BENCHMARK.json]";

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench compare: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let run = match parse_run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run.workload.as_str() {
        "plan_cold" => plan_cold::run(&run),
        "ingest_drift" => ingest_drift::run(&run),
        "sim_sweep" => sim_sweep::run(&run),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench-run {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"cores\": {}, \"held_out_seed\": {HELD_OUT_SEED}}}",
        run.workload,
        run.seed,
        run.seconds.as_secs_f64(),
        u8::from(run.trace),
        stats::cores(),
    );
    if outcome.print() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
