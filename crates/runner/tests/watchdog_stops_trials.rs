//! A watchdog timeout stops the trial it times out: once `run_batch`
//! returns, none of the batch's trials is still computing on a thread.
//!
//! This binary holds one test on purpose: libtest runs the tests of a
//! binary on parallel threads, which would move the thread count the test
//! reads.

use std::fs::read_dir;
use std::time::{Duration, Instant};

use staleload_core::{ArrivalSpec, EngineMode, Experiment, SimConfig, SimError};
use staleload_info::InfoSpec;
use staleload_policies::PolicySpec;
use staleload_runner::{ResultCache, SweepRunner, WatchdogSpec, WorkerPool};

#[test]
fn timed_out_trials_leave_no_thread_behind() {
    use EngineMode::{PerServer, Population};
    let li = PolicySpec::BasicLi { lambda: 0.9 };
    // The first point is seconds of honest work. The other two are
    // refresh storms: a board refreshed every 1e-9 time units over the
    // ~556 units of 2 000 arrivals needs ~5.6·10^11 refreshes, so their
    // trials would never end on their own.
    let batch = [
        (64, 4_000_000, 4.0, PerServer, li.clone()),
        (4, 2_000, 1e-9, PerServer, li),
        (4, 2_000, 1e-9, Population, PolicySpec::Random),
    ]
    .map(|(servers, arrivals, period, engine, policy)| {
        let mut cfg = SimConfig::builder();
        cfg.servers(servers).arrivals(arrivals).engine(engine);
        let info = InfoSpec::Periodic { period };
        Experiment::new(cfg.build(), ArrivalSpec::Poisson, info, policy, 2)
    });
    let mut runner = SweepRunner::new(WorkerPool::new(2), ResultCache::disabled());
    runner.set_watchdog(Some(WatchdogSpec::with_budget(Duration::from_millis(50))));

    let threads = || read_dir("/proc/self/task").ok().map(Iterator::count);
    let before = threads();
    let results = runner.run_batch(&batch);
    // A joined thread can stay listed for a moment after its join returns,
    // until the kernel reaps it; a trial still computing stays for good.
    let settle = Instant::now() + Duration::from_secs(1);
    while threads() > before && Instant::now() < settle {
        std::thread::sleep(Duration::from_millis(10));
    }

    for result in &results {
        let Err(SimError::NoSuccessfulTrials { first_error, .. }) = result else {
            panic!("expected every trial to time out, got {result:?}");
        };
        assert!(first_error.contains("watchdog:"), "{first_error}");
    }
    #[cfg(target_os = "linux")]
    assert_eq!(threads(), before, "threads before and after the batch");
}
