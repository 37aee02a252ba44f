//! A population trial's memory does not grow with the number of servers.
//!
//! The engine's state is the per-class count matrix, so a trial at
//! n = 10^7 must fit in the same few MiB as one at n = 10^3. This test
//! reads the process's peak resident set (`VmHWM`), so it lives in a test
//! binary of its own: no other test may share, and inflate, its process.

use staleload_core::{run_simulation, ArrivalSpec, EngineMode, SimConfig};
use staleload_info::InfoSpec;
use staleload_policies::PolicySpec;

/// Peak resident set of this process in KiB, from `/proc/self/status`
/// (`None` where the file or the field does not exist).
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn a_ten_million_server_trial_stays_under_64_mib() {
    let cfg = SimConfig::builder()
        .servers(10_000_000)
        .lambda(0.9)
        .arrivals(200_000)
        .engine(EngineMode::Population)
        .seed(7)
        .build();
    let r = run_simulation(
        &cfg,
        &ArrivalSpec::Poisson,
        &InfoSpec::Periodic { period: 0.005 },
        &PolicySpec::BasicLi { lambda: 0.9 },
    )
    .expect("valid population config");
    assert_eq!(r.detail.completed(), 200_000);
    assert_eq!(r.detail.servers(), 10_000_000);
    let Some(peak) = peak_rss_kib() else {
        eprintln!("no /proc/self/status VmHWM on this platform; skipping the memory bound");
        return;
    };
    eprintln!("peak RSS {:.1} MiB", peak as f64 / 1024.0);
    assert!(
        peak < 64 * 1024,
        "peak RSS {:.1} MiB for a population trial at n = 10^7",
        peak as f64 / 1024.0
    );
}
