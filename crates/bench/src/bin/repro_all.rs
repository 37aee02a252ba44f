//! Runs the reproduction registry: every paper figure, then every
//! extension sweep (or the subset named by `--only`).
//!
//! Usage: `repro_all [smoke|quick|std|full] [--no-cache] [--no-watchdog]
//! [--only name,name,...]`. Prints each check's PASS/FAIL line (the
//! statistical ones are skipped at `smoke`). Exits 2 on an unknown flag
//! or entry name, before anything runs, and 1 if any entry errs or any
//! check fails.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use staleload_bench::{registry, run_entries, RunArgs};

fn main() -> ExitCode {
    let args = RunArgs::parse_or_exit();
    if run_entries(&args.scale, registry().filter(|e| args.selects(e.name))) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
