//! Serve-path benchmark for the multi-tenant pattern-serving daemon.
//!
//! Runs one named workload against an in-process
//! [`midas_serve::ServeDaemon`] over real HTTP on loopback, checks what the
//! daemon answered, and prints every metric by name with its unit. The last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`.
//!
//! ```text
//! servebench --workload <isolated|read_update> --seed <n> --seconds <n> --trace <0|1>
//! servebench --workload <name> --seed <n> --seconds <n> --repeat <k>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics and `--trace 1` the
//! per-layer ones; `--repeat` is the steadiness mode. README.md has the
//! workload × metric × layer table.

mod layers;
mod plan;
mod procfs;
mod stats;
mod steady;
mod workload;

use midas_obs::json as js;
use std::process::ExitCode;

/// The workloads. Both are closed loops over the same four tenants and the
/// same update plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two phases that never overlap: two readers alone (`read_hot`), then
    /// one updater alone (`update_stream`).
    Isolated,
    /// One reader and one updater at once, for the whole update plan.
    ReadUpdate,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "isolated" => Some(Workload::Isolated),
            "read_update" => Some(Workload::ReadUpdate),
            _ => None,
        }
    }

    /// The name the command line uses.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Isolated => "isolated",
            Workload::ReadUpdate => "read_update",
        }
    }
}

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Steadiness mode: this many fresh processes (0: one run, in-process).
    pub repeat: usize,
}

const USAGE: &str = "usage: servebench --workload <isolated|read_update> --seed <n> --seconds <n> [--trace <0|1>] [--repeat <k>]";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut repeat) = (None, None, None, false, 0);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--repeat" => repeat = number()? as usize,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace,
        repeat,
    })
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The value of the metric called `name`, 0 if absent.
pub fn value_of(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.value)
}

/// A finished run.
#[derive(Debug)]
pub struct Report {
    /// Requests the workload sent.
    pub attempted: u64,
    /// Of those, the ones answered non-2xx or lost in transport.
    pub failed: u64,
    /// Every check that did not hold; empty on a correct run.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The result line: one JSON object.
    fn line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    js::quote(m.name),
                    js::number(m.value),
                    js::quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.repeat > 0 {
        return steady::run(&args);
    }
    match workload::run(&args) {
        Ok(report) => {
            for m in &report.metrics {
                println!("{:<26} {:>16.4} {}", m.name, m.value, m.unit);
            }
            for p in &report.problems {
                eprintln!("servebench: check failed: {p}");
            }
            println!("{}", report.line());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}
