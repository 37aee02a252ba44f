//! Every registry entry at smoke scale, end to end: it returns `Ok`, its
//! structural checks (ordering, bookkeeping, partition) pass, and every
//! CSV it names lands in the results directory.
//!
//! One test in its own binary: the results directory is process-wide
//! (`REPRO_RESULTS_DIR`), and the shared runner is set up once with the
//! cache off and the watchdog disarmed.

use staleload_bench::{configure_runner, default_workers, registry, results_path, Scale};
use staleload_runner::ResultCache;

#[test]
fn every_entry_runs_at_smoke_scale() {
    let dir = std::env::temp_dir().join(format!("staleload-registry-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_var("REPRO_RESULTS_DIR", &dir);
    configure_runner(default_workers(), ResultCache::disabled());

    let scale = Scale::smoke();
    let mut structural = Vec::new();
    for entry in registry() {
        let checks = (entry.run)(&scale).unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        for check in checks.iter().filter(|c| !c.statistical) {
            assert!(
                check.pass,
                "{}: {} check failed: {}",
                entry.name, check.name, check.detail
            );
            structural.push(check.name);
        }
        for csv in entry.csvs {
            let path = results_path(csv);
            assert!(path.is_file(), "{}: {} missing", entry.name, path.display());
        }
    }
    structural.sort_unstable();
    assert_eq!(structural, ["bookkeeping", "ordering", "partition"]);
    std::fs::remove_dir_all(&dir).unwrap();
}
