//! Steadiness mode: one workload in several fresh processes, then each
//! end-to-end metric's quartiles and spread against its bound, and the
//! tracing-overhead line.

use crate::stats::{quartiles, sorted};
use crate::Args;
use midas_serve::json::Value;
use std::process::{Command, ExitCode, Stdio};

type Metrics = Vec<(String, f64)>;

/// Runs `args.repeat` untraced processes on seeds `seed..seed+repeat`, then
/// one traced process on `seed`. Exits 1 if any spread exceeds its bound.
pub fn run(args: &Args) -> ExitCode {
    let bounds = match bounds() {
        Ok(bounds) => bounds,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut runs: Vec<Metrics> = Vec::new();
    for seed in args.seed..args.seed + args.repeat as u64 {
        match child(args, seed, false) {
            Ok(metrics) => {
                let line: Vec<String> =
                    metrics.iter().map(|(k, v)| format!("{k}={v:.4}")).collect();
                println!("seed {seed}: {}", line.join(" "));
                runs.push(metrics);
            }
            Err(e) => {
                eprintln!("servebench: seed {seed}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut flagged = 0;
    println!(
        "{:<24} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "metric", "q1", "median", "q3", "spread", "bound"
    );
    for (name, bound) in &bounds {
        let values = sorted(runs.iter().filter_map(|m| lookup(m, name)).collect());
        if values.len() != runs.len() {
            println!("{name:<24} missing from some runs  FLAG");
            flagged += 1;
            continue;
        }
        let (q1, median, q3) = quartiles(&values);
        let spread = (q3 - q1) / median;
        let flag = if spread.abs() > *bound {
            flagged += 1;
            "  FLAG"
        } else {
            ""
        };
        println!("{name:<24} {q1:>14.4} {median:>14.4} {q3:>14.4} {spread:>8.4} {bound:>6}{flag}");
    }

    match child(args, args.seed, true) {
        Ok(traced) => {
            for (name, traced_name) in [
                ("read_p50_us", "trace.read_p50_us"),
                ("read_cpu_us", "trace.read_cpu_us"),
                ("apply_cpu_p50_ms", "trace.apply_cpu_p50_ms"),
            ] {
                if let (Some(off), Some(on)) =
                    (lookup(&runs[0], name), lookup(&traced, traced_name))
                {
                    println!(
                        "tracing overhead, seed {}: {name} untraced {off:.4}, traced {on:.4} ({:+.2}%)",
                        args.seed,
                        (on / off - 1.0) * 100.0
                    );
                }
            }
        }
        Err(e) => {
            eprintln!("servebench: traced run: {e}");
            return ExitCode::FAILURE;
        }
    }
    if flagged == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One run of this executable; its metrics from the result line.
fn child(args: &Args, seed: u64, trace: bool) -> Result<Metrics, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("run exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("no output")?;
    match Value::parse(last)?.get("metrics") {
        Some(Value::Obj(members)) => Ok(members
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect()),
        _ => Err("the result line has no metrics".into()),
    }
}

fn lookup(metrics: &Metrics, name: &str) -> Option<f64> {
    metrics.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
}

/// Each end-to-end metric's bound, from `BENCHMARK.json` in the working
/// directory.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    Value::parse(&text)?
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("a metric has no name")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("a metric has no bound")?;
            Ok((name.to_owned(), bound))
        })
        .collect()
}
