//! End-to-end and per-layer benchmark of the staleload simulator.
//!
//! ```text
//! perfbench --workload <periodic-sweep|delayed-view-sweep|meanfield>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload's grid runs as repeated cold sweep
//! sessions through `SweepRunner::run_batch` for `--seconds`, and the run
//! reports `jobs_per_s`, `cpu_ns_per_job`, `setup_s` and `peak_rss_mib`;
//! the three times are scaled to a reference host speed (see `host.rs`),
//! and the unscaled figures are printed beside them. With `--trace 1` a
//! separate run reports the per-layer split (see `traced.rs`). Both check
//! the simulator's outputs and print, as their last stdout line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Scratch
//! files go under `.perfbench_work/` in the current directory and are
//! removed before exit.

#![forbid(unsafe_code)]
#![allow(clippy::print_stdout)]

mod grid;
mod host;
mod replay;
mod session;
mod sys;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;

use grid::Workload;

const USAGE: &str = "usage: perfbench --workload <periodic-sweep|delayed-view-sweep|meanfield> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".perfbench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let outcome = if args.trace {
        traced::run(args.workload, args.seed, args.seconds, &work)
    } else {
        session::run(args.workload, args.seed, args.seconds, &work)
    };
    // Leave nothing behind, whatever happened.
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench_work");
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    for p in &report.problems {
        eprintln!("[perfbench] check failed: {p}");
    }
    println!(
        "workload {} seed {} ({})",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    if let Some(d) = &report.digest {
        println!("digest {d}");
    }
    println!(
        "trials attempted {} failed {}",
        report.attempted,
        report.failed()
    );
    for m in report.metrics.iter().chain(&report.raw) {
        println!("{:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let correct = report.failed() == 0 && report.problems.is_empty();
    println!(
        "{}",
        sys::report_json(
            correct,
            report.attempted.max(1),
            report.failed(),
            &report.metrics
        )
    );
    ExitCode::SUCCESS
}
