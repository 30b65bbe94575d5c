//! Oracle CLI: runs the thirteen differential checks (and, when `MIDAS_FAULT`
//! is set, the fault-containment pass first) and prints the JSON report.
//!
//! ```text
//! cargo run -p midas-oracle --release -- --seed 7
//! MIDAS_FAULT=task:3 cargo run -p midas-oracle --release -- --seed 7
//! ```
//!
//! Exit status: `0` iff every check is clean (and the fault pass, when
//! requested, contained the injected panic); `1` on divergence or a
//! containment failure; `2` on bad usage.

use midas_obs::Fault;
use midas_oracle::{fault_containment_pass, Oracle};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut seed = 7u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(v)) => seed = v,
                _ => {
                    eprintln!("--seed expects an unsigned integer");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: midas-oracle [--seed N]");
                println!();
                println!("Cross-checks every MIDAS fast path against its serial");
                println!("reference twin on a world generated from the seed, and");
                println!("prints a JSON divergence report.");
                println!();
                println!("Set MIDAS_FAULT=task:N to additionally verify that an");
                println!("injected task panic at exec task N is contained.");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }

    let mut failed = false;

    // Fault-containment pass first, when requested via the environment:
    // the differential checks below disarm the injector, so the armed
    // window must come before them.
    match midas_obs::config::env().fault {
        Some(Fault::Task(target)) => match fault_containment_pass(seed, target) {
            Ok(line) => eprintln!("fault containment: {line}"),
            Err(e) => {
                eprintln!("fault containment FAILED: {e}");
                failed = true;
            }
        },
        Some(fault) => {
            eprintln!("MIDAS_FAULT must be task:N for the oracle, got {fault:?}");
            return ExitCode::from(2);
        }
        None => {}
    }

    let report = Oracle::new(seed).run_all();
    println!("{}", report.to_json());
    if !report.is_clean() {
        eprintln!(
            "{} divergence(s) across {} cases",
            report.divergences.len(),
            report.total_cases()
        );
        failed = true;
    } else {
        eprintln!(
            "all {} checks clean ({} cases)",
            report.checks.len(),
            report.total_cases()
        );
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
