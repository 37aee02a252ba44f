//! Reproduction harness for the figures of *Interpreting Stale Load
//! Information* (Dahlin, ICDCS 1999 / TPDS 2000).
//!
//! Every figure in the paper's evaluation has a binary (`fig01` … `fig14`)
//! whose logic lives in [`figs`]; `repro_all` runs the full set. Each
//! figure prints the paper's series as an aligned table on stdout and
//! writes a CSV under `results/`.
//!
//! Run scale is controlled by the first CLI argument or the `REPRO_SCALE`
//! environment variable (`quick`, `std`, `full`): `full` matches the
//! paper's protocol (500 000 arrivals, ≥ 10 trials, ≥ 30 for Bounded
//! Pareto); `std` (default) is calibrated for a single-core machine;
//! `quick` is a smoke test.
//!
//! Every figure executes its (point × trial) grid on one shared
//! work-stealing worker pool ([`staleload_runner`]) and consults a
//! content-addressed result cache under `results/cache/`. Worker count
//! comes from `REPRO_WORKERS` (default: available parallelism); the
//! cache is disabled by `--no-cache` or a non-empty `REPRO_NO_CACHE`.
//! Results are bit-identical to a sequential run regardless of worker
//! count or cache state.
//!
//! Runs are crash-safe: cache and journal lines are checksummed (damage
//! is quarantined and recomputed, never trusted), completed trials are
//! journalled as they finish so a killed run resumes where it died just
//! by re-running the same command, and a per-trial watchdog (budget
//! from [`Scale::watchdog_budget`]; disarm with `--no-watchdog` or
//! `REPRO_NO_WATCHDOG`) isolates hung trials instead of stalling the
//! figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The figure harness prints its tables; stdout is the interface.
#![allow(clippy::print_stdout)]

pub mod figs;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use staleload_core::{Experiment, ExperimentResult, SimError};
use staleload_runner::{ResultCache, SweepJournal, SweepRunner, WatchdogSpec, WorkerPool};
use staleload_stats::{LinePlot, Table};

/// Run-scale knobs shared by all figures.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Arrivals per trial for cheap (periodic/fresh) models.
    pub arrivals: u64,
    /// Arrivals per trial for history-backed (continuous) models.
    pub continuous_arrivals: u64,
    /// Trials per point (exponential-service figures).
    pub trials: usize,
    /// Trials per point for Bounded-Pareto figures.
    pub pareto_trials: usize,
    /// Minimum jobs each update-on-access client must issue.
    pub min_jobs_per_client: u64,
    /// Human-readable name.
    pub name: &'static str,
}

impl Scale {
    /// The paper's protocol.
    pub fn full() -> Self {
        Self {
            arrivals: 500_000,
            continuous_arrivals: 500_000,
            trials: 10,
            pareto_trials: 30,
            min_jobs_per_client: 1_000,
            name: "full",
        }
    }

    /// Single-core-friendly default.
    pub fn std() -> Self {
        Self {
            arrivals: 200_000,
            continuous_arrivals: 100_000,
            trials: 5,
            pareto_trials: 15,
            min_jobs_per_client: 200,
            name: "std",
        }
    }

    /// Smoke-test scale.
    pub fn quick() -> Self {
        Self {
            arrivals: 60_000,
            continuous_arrivals: 40_000,
            trials: 3,
            pareto_trials: 5,
            min_jobs_per_client: 50,
            name: "quick",
        }
    }

    /// CI-sized scale: just enough jobs to exercise every code path.
    ///
    /// Statistical acceptance checks are meaningless at this size, so
    /// binaries skip them when `Scale::name == "smoke"` (see
    /// [`Scale::is_smoke`]).
    pub fn smoke() -> Self {
        Self {
            arrivals: 4_000,
            continuous_arrivals: 3_000,
            trials: 1,
            pareto_trials: 1,
            min_jobs_per_client: 10,
            name: "smoke",
        }
    }

    /// Whether this is the CI smoke scale (too small for acceptance
    /// checks).
    pub fn is_smoke(&self) -> bool {
        self.name == "smoke"
    }

    /// Arrivals needed so each of `clients` clients issues at least the
    /// configured minimum number of jobs (update-on-access experiments).
    pub fn arrivals_for_clients(&self, clients: usize) -> u64 {
        self.arrivals.max(clients as u64 * self.min_jobs_per_client)
    }

    /// Per-trial wall-clock watchdog budget at this scale: a minute of
    /// slack plus ~1 ms per arrival — two orders of magnitude above a
    /// healthy trial, so it only fires on a genuine hang.
    pub fn watchdog_budget(&self) -> Duration {
        let arrivals = self.arrivals.max(self.continuous_arrivals);
        Duration::from_secs(60) + Duration::from_millis(arrivals)
    }
}

/// Parsed command line shared by every reproduction binary.
///
/// ```text
/// <binary> [smoke|quick|std|full] [--no-cache] [--no-watchdog]
///          [--only figNN,figNN,...]
/// ```
///
/// `--no-cache` (or a non-empty `REPRO_NO_CACHE`) disables the
/// content-addressed result cache; `--no-watchdog` (or a non-empty
/// `REPRO_NO_WATCHDOG`) disarms the per-trial watchdog; `--only`
/// restricts `repro_all` to the named figures (other binaries ignore
/// it). Unknown arguments exit with status 2.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Run scale (from the scale token or `REPRO_SCALE`, default `std`).
    pub scale: Scale,
    /// Skip cache reads and writes for this run.
    pub no_cache: bool,
    /// Disarm the per-trial watchdog for this run.
    pub no_watchdog: bool,
    /// Figure names `repro_all` should run (empty = all).
    pub only: Vec<String>,
}

const USAGE: &str =
    "usage: <binary> [smoke|quick|std|full] [--no-cache] [--no-watchdog] [--only figNN,figNN,...]";

impl RunArgs {
    /// Parses `std::env::args()`, printing usage and exiting with status
    /// 2 on an unknown argument, and records the cache and watchdog
    /// preferences for the shared sweep runner.
    pub fn parse_or_exit() -> Self {
        match Self::try_parse(std::env::args().skip(1)) {
            Ok(args) => {
                if args.no_cache {
                    NO_CACHE.store(true, Ordering::Relaxed);
                }
                if !args.no_watchdog {
                    let ms = args
                        .scale
                        .watchdog_budget()
                        .as_millis()
                        .min(u128::from(u64::MAX));
                    WATCHDOG_MS.store(ms as u64, Ordering::Relaxed);
                }
                args
            }
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Parses an argument list (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a description of the first unrecognized argument.
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut scale: Option<Scale> = None;
        let mut no_cache = std::env::var("REPRO_NO_CACHE").is_ok_and(|v| !v.is_empty() && v != "0");
        let mut no_watchdog =
            std::env::var("REPRO_NO_WATCHDOG").is_ok_and(|v| !v.is_empty() && v != "0");
        let mut only: Vec<String> = Vec::new();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.trim_start_matches("--") {
                "full" => scale = Some(Scale::full()),
                "std" => scale = Some(Scale::std()),
                "quick" => scale = Some(Scale::quick()),
                "smoke" => scale = Some(Scale::smoke()),
                "no-cache" => no_cache = true,
                "no-watchdog" => no_watchdog = true,
                "only" => {
                    let list = it.next().ok_or("--only needs a figure list")?;
                    only.extend(list.split(',').map(|s| s.trim().to_string()));
                }
                s if s.starts_with("only=") => {
                    only.extend(s["only=".len()..].split(',').map(|s| s.trim().to_string()));
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        only.retain(|s| !s.is_empty());
        let scale = scale.unwrap_or_else(|| match std::env::var("REPRO_SCALE").as_deref() {
            Ok("full") => Scale::full(),
            Ok("quick") => Scale::quick(),
            Ok("smoke") => Scale::smoke(),
            _ => Scale::std(),
        });
        Ok(Self {
            scale,
            no_cache,
            no_watchdog,
            only,
        })
    }
}

/// `--no-cache` seen on the command line (checked at lazy runner init).
static NO_CACHE: AtomicBool = AtomicBool::new(false);

/// Watchdog budget in ms recorded by `parse_or_exit` (0 = disarmed —
/// the default, so library tests and probes never race a wall clock).
static WATCHDOG_MS: AtomicU64 = AtomicU64::new(0);

/// The process-wide sweep runner every figure shares: one persistent
/// work-stealing pool plus one result cache, built lazily on first use.
static RUNNER: OnceLock<Mutex<SweepRunner>> = OnceLock::new();

fn runner() -> MutexGuard<'static, SweepRunner> {
    RUNNER
        .get_or_init(|| {
            let mut runner = SweepRunner::new(WorkerPool::new(default_workers()), default_cache());
            // Crash-safety extras ride along only for real reproduction
            // runs: the journal needs the cache dir (and the cache's
            // fsynced puts for safe truncation), and the watchdog is
            // armed only once `parse_or_exit` derived a budget.
            if runner.cache_enabled() {
                match SweepJournal::open(&cache_dir()) {
                    Ok(journal) => runner.set_journal(journal),
                    Err(e) => eprintln!(
                        "warning: cannot open sweep journal under {} ({e}); \
                         interrupted runs will not resume",
                        cache_dir().display()
                    ),
                }
            }
            let budget_ms = WATCHDOG_MS.load(Ordering::Relaxed);
            if budget_ms > 0 {
                runner.set_watchdog(Some(WatchdogSpec::with_budget(Duration::from_millis(
                    budget_ms,
                ))));
            }
            Mutex::new(runner)
        })
        .lock()
        .expect("sweep runner lock poisoned")
}

/// Worker count for the shared pool: `REPRO_WORKERS` when set to a
/// positive integer, otherwise the machine's available parallelism.
pub fn default_workers() -> usize {
    std::env::var("REPRO_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Where the shared result cache lives: `<results dir>/cache`.
pub fn cache_dir() -> PathBuf {
    let root = std::env::var("REPRO_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    PathBuf::from(root).join("cache")
}

fn default_cache() -> ResultCache {
    let disabled = NO_CACHE.load(Ordering::Relaxed)
        || std::env::var("REPRO_NO_CACHE").is_ok_and(|v| !v.is_empty() && v != "0");
    if disabled {
        return ResultCache::disabled();
    }
    let dir = cache_dir();
    match ResultCache::open(&dir) {
        Ok(cache) => cache,
        Err(e) => {
            eprintln!(
                "warning: cannot open result cache at {} ({e}); running uncached",
                dir.display()
            );
            ResultCache::disabled()
        }
    }
}

/// Replaces the shared runner with one using `workers` threads and
/// `cache` (used by `repro_probe` to compare cold/warm/sequential runs).
pub fn configure_runner(workers: usize, cache: ResultCache) {
    let mut guard = runner();
    *guard = SweepRunner::new(WorkerPool::new(workers), cache);
}

/// Runs one experiment point through the shared runner (pool + cache).
///
/// # Errors
///
/// Returns the same errors [`Experiment::try_run`] would.
pub fn run_experiment(exp: &Experiment) -> Result<ExperimentResult, SimError> {
    runner().run_one(exp)
}

/// Runs `f(0)`, …, `f(count - 1)` on the shared worker pool, returning
/// the results in index order. For experiment shapes that need custom
/// per-trial metrics and therefore bypass [`Experiment`] and the cache;
/// keep `f` a pure function of its index to stay deterministic.
pub fn run_trials<T, F>(count: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    runner().run_map(count, f)
}

/// How a sweep cell is summarized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStyle {
    /// `mean ±ci90` (the paper's exponential-service figures).
    MeanCi,
    /// `median [q1, q3]` (the Bounded-Pareto figures).
    MedianQuartiles,
}

/// One labelled series of a sweep: a closure mapping the x value to an
/// [`Experiment`].
pub struct Series<'a> {
    /// Column label (matches the paper's legend).
    pub label: String,
    /// Experiment factory for each x value.
    pub make: Box<dyn Fn(f64) -> Experiment + 'a>,
}

impl<'a> Series<'a> {
    /// Creates a labelled series.
    pub fn new(label: impl Into<String>, make: impl Fn(f64) -> Experiment + 'a) -> Self {
        Self {
            label: label.into(),
            make: Box::new(make),
        }
    }
}

/// Runs a parameter sweep (one figure panel): for each x, each series'
/// experiment, collecting a table with one row per x and one column per
/// series.
///
/// Progress goes to stderr; the rendered table to stdout; the CSV (with
/// mean/ci/median/quartiles/min/max per cell) to
/// `results/<name>.csv`.
pub fn run_sweep(
    name: &str,
    title: &str,
    x_label: &str,
    xs: &[f64],
    series: &[Series<'_>],
    style: CellStyle,
) -> Table {
    let start = Instant::now();
    eprintln!("[{name}] {title}");
    let mut headers = vec![x_label.to_string()];
    headers.extend(series.iter().map(|s| s.label.clone()));
    let mut table = Table::new(headers);

    // The long-form CSV keeps every statistic.
    let mut csv = Table::new(vec![
        x_label.to_string(),
        "policy".into(),
        "mean".into(),
        "ci90".into(),
        "median".into(),
        "q1".into(),
        "q3".into(),
        "min".into(),
        "max".into(),
        "trials".into(),
    ]);

    // Build every (x, series) point up front, row-major so results come
    // back in the table/CSV order, and run them as one batch on the
    // shared pool: all trials of all points feed one task queue instead
    // of one thread-churning pass per point.
    let mut experiments = Vec::with_capacity(xs.len() * series.len());
    for &x in xs {
        for s in series {
            experiments.push((s.make)(x));
        }
    }
    let mut results = run_batch_with_progress(name, &experiments).into_iter();

    let mut curves: Vec<Vec<(f64, f64)>> = vec![Vec::new(); series.len()];
    for &x in xs {
        let mut row = vec![format_x(x)];
        for (series_idx, s) in series.iter().enumerate() {
            let result: ExperimentResult = results
                .next()
                .expect("one result per point")
                .unwrap_or_else(|e| panic!("experiment failed: {e}"));
            let sum = &result.summary;
            if result.history_misses > 0 {
                eprintln!(
                    "[{name}] WARNING: {} history misses at {x} for {}",
                    result.history_misses, s.label
                );
            }
            row.push(match style {
                CellStyle::MeanCi => format!("{:.3} ±{:.3}", sum.mean, sum.ci90),
                CellStyle::MedianQuartiles => {
                    format!("{:.2} [{:.2},{:.2}]", sum.median, sum.q1, sum.q3)
                }
            });
            curves[series_idx].push((
                x,
                match style {
                    CellStyle::MeanCi => sum.mean,
                    CellStyle::MedianQuartiles => sum.median,
                },
            ));
            csv.push_row(vec![
                format!("{x}"),
                s.label.clone(),
                format!("{}", sum.mean),
                format!("{}", sum.ci90),
                format!("{}", sum.median),
                format!("{}", sum.q1),
                format!("{}", sum.q3),
                format!("{}", sum.min),
                format!("{}", sum.max),
                format!("{}", sum.trials),
            ]);
        }
        table.push_row(row);
    }

    println!("\n== {title} ==");
    print!("{}", table.render());
    let path = results_path(name);
    if let Err(e) = csv.write_csv(&path) {
        eprintln!("[{name}] failed to write {}: {e}", path.display());
    } else {
        eprintln!(
            "[{name}] wrote {} ({:.1}s total)",
            path.display(),
            start.elapsed().as_secs_f64()
        );
    }

    // A rendered figure next to the CSV; log-y when curves span decades
    // (the herd-effect panels).
    let y_label = match style {
        CellStyle::MeanCi => "mean response time",
        CellStyle::MedianQuartiles => "median response time",
    };
    let mut plot = LinePlot::new(title, x_label, y_label);
    let mut y_min = f64::INFINITY;
    let mut y_max: f64 = 0.0;
    for (s, pts) in series.iter().zip(curves) {
        for &(_, y) in &pts {
            y_min = y_min.min(y);
            y_max = y_max.max(y);
        }
        plot.add_series(s.label.clone(), pts);
    }
    if y_min > 0.0 && y_max / y_min > 50.0 {
        plot.log_y(true);
    }
    let svg_path = path.with_extension("svg");
    if let Err(e) = plot.write_svg(&svg_path) {
        eprintln!("[{name}] failed to write {}: {e}", svg_path.display());
    }
    table
}

/// Runs a figure's points on the shared runner with progress lines
/// (`done/total` + ETA, throttled to ~8 updates) and a per-figure cache
/// hit/miss line on stderr.
fn run_batch_with_progress(
    name: &str,
    experiments: &[Experiment],
) -> Vec<Result<ExperimentResult, SimError>> {
    let mut runner = runner();
    let tag = name.to_string();
    runner.set_progress(move |p| {
        let stride = (p.total / 8).max(1);
        if p.done % stride != 0 && p.done != p.total {
            return;
        }
        let eta = match p.eta() {
            Some(d) => format!(", eta {:.1}s", d.as_secs_f64()),
            None => String::new(),
        };
        eprintln!(
            "[{tag}]   {}/{} points ({:.1}s elapsed{eta})",
            p.done,
            p.total,
            p.elapsed.as_secs_f64()
        );
    });
    let results = runner.run_batch(experiments);
    runner.clear_progress();
    let acct = runner.take_accounting();
    if runner.cache_enabled() {
        eprintln!(
            "[{name}] cache: {} hit{}, {} miss{}",
            acct.hits,
            if acct.hits == 1 { "" } else { "s" },
            acct.misses,
            if acct.misses == 1 { "" } else { "es" },
        );
        if acct.quarantined > 0 {
            eprintln!(
                "[{name}] cache: {} damaged entr{} quarantined and recomputed",
                acct.quarantined,
                if acct.quarantined == 1 { "y" } else { "ies" },
            );
        }
    }
    let jacct = runner.take_journal_accounting();
    if jacct.replayed > 0 {
        eprintln!(
            "[{name}] journal: {} trial{} replayed from an interrupted run",
            jacct.replayed,
            if jacct.replayed == 1 { "" } else { "s" },
        );
    }
    results
}

/// Destination for a figure's CSV.
pub fn results_path(name: &str) -> PathBuf {
    let root = std::env::var("REPRO_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    PathBuf::from(root).join(format!("{name}.csv"))
}

fn format_x(x: f64) -> String {
    if (x.fract()).abs() < 1e-9 && x.abs() < 1e9 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        let m = Scale::smoke();
        let q = Scale::quick();
        let s = Scale::std();
        let f = Scale::full();
        assert!(m.arrivals < q.arrivals);
        assert!(q.arrivals < s.arrivals && s.arrivals < f.arrivals);
        assert!(q.trials <= s.trials && s.trials <= f.trials);
        assert!(f.pareto_trials >= 30);
        assert!(m.is_smoke() && !q.is_smoke());
    }

    #[test]
    fn arrivals_scale_with_clients() {
        let s = Scale::std();
        assert_eq!(s.arrivals_for_clients(1), s.arrivals);
        let many = s.arrivals_for_clients(10_000);
        assert_eq!(many, 10_000 * s.min_jobs_per_client);
    }

    #[test]
    fn format_x_is_compact() {
        assert_eq!(format_x(10.0), "10");
        assert_eq!(format_x(0.5), "0.5");
    }

    fn parse(args: &[&str]) -> Result<RunArgs, String> {
        RunArgs::try_parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn run_args_parse_scale_tokens() {
        assert_eq!(parse(&["quick"]).unwrap().scale.name, "quick");
        assert_eq!(parse(&["--full"]).unwrap().scale.name, "full");
        assert_eq!(parse(&["smoke"]).unwrap().scale.name, "smoke");
    }

    #[test]
    fn run_args_parse_flags() {
        let a = parse(&["quick", "--no-cache", "--only", "fig02,fig10"]).unwrap();
        assert!(a.no_cache);
        assert!(!a.no_watchdog);
        assert_eq!(a.only, vec!["fig02", "fig10"]);
        let b = parse(&["--only=fig03", "--only", "fig04"]).unwrap();
        assert_eq!(b.only, vec!["fig03", "fig04"]);
        assert_eq!(b.scale.name, "std");
        let c = parse(&["--no-watchdog"]).unwrap();
        assert!(c.no_watchdog && !c.no_cache);
    }

    #[test]
    fn watchdog_budget_scales_with_arrivals_and_dwarfs_healthy_trials() {
        let smoke = Scale::smoke().watchdog_budget();
        let full = Scale::full().watchdog_budget();
        assert!(smoke >= Duration::from_secs(60));
        assert!(full > smoke);
        // full: 60 s + 500 000 ms ≈ 9.3 min per trial.
        assert_eq!(
            full,
            Duration::from_secs(60) + Duration::from_millis(500_000)
        );
    }

    #[test]
    fn run_args_reject_unknown_and_dangling() {
        assert!(parse(&["bogus"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--only"]).is_err());
    }
}
