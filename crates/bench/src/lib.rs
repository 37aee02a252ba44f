//! Reproduction harness for *Interpreting Stale Load Information*
//! (Dahlin, ICDCS 1999 / TPDS 2000): one registry of every paper figure
//! and extension sweep, run by `repro_all`.
//!
//! An [`Entry`] is a name plus a function of the [`Scale`]. The function
//! builds its cells, runs them as one batch on the shared runner, prints
//! its tables on stdout, writes its CSVs (and SVG curves) under
//! `results/`, and returns its [`Check`]s. [`FIGURES`] holds the paper's
//! figures (logic in `figs.rs`); [`SWEEPS`] holds the extension sweeps.
//! `repro_all` runs them in [`registry`] order, figures first, through
//! [`run_entries`], which prints every check's PASS/FAIL line and skips
//! the statistical ones at `smoke` scale.
//!
//! Run scale is controlled by the scale argument (`smoke`, `quick`,
//! `std`, `full`): `full` matches the paper's protocol (500 000
//! arrivals, ≥ 10 trials, ≥ 30 for Bounded Pareto); `std` (default) is
//! calibrated for a single-core machine; `quick` is a short run whose
//! statistics the checks can judge; `smoke` only exercises the code
//! paths.
//!
//! Every entry executes its (point × trial) grid as one batch on the
//! shared sweep runner ([`staleload_runner`]), whose worker pool maps
//! the batch onto scoped threads, and consults a content-addressed
//! result cache under `results/cache/`. Worker count comes from
//! `REPRO_WORKERS` (default: available parallelism); the cache is
//! disabled by `--no-cache`.
//! Results are bit-identical to a sequential run regardless of worker
//! count or cache state.
//!
//! Runs are crash-safe: cache and journal lines are checksummed (damage
//! is quarantined and recomputed, never trusted), completed trials are
//! journalled as they finish so a killed run resumes where it died just
//! by re-running the same command, and a per-trial watchdog (budget
//! from [`Scale::watchdog_budget`]; disarm with `--no-watchdog`) stops
//! a trial that outlives its budget and reports it as a failed trial
//! instead of stalling the run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The harness prints its tables; stdout is the interface.
#![allow(clippy::print_stdout)]

mod degradation;
mod ext;
mod ext_meanfield;
mod ext_resilience;
mod ext_tail;
mod figs;
mod overload;

use std::fmt::Display;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use staleload_core::{Experiment, ExperimentResult, SimError};
use staleload_runner::{ResultCache, SweepJournal, SweepRunner, WatchdogSpec, WorkerPool};
use staleload_stats::{LinePlot, Table};

/// Run-scale knobs shared by all entries.
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

    /// The smallest scale whose statistics the checks can judge.
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
    /// Statistical checks are meaningless at this size, so
    /// [`run_entries`] skips them here (see [`Scale::is_smoke`]).
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

    /// Whether this is the CI smoke scale (too small for statistical
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

/// One PASS/FAIL verdict an entry returns.
#[derive(Debug, Clone)]
pub struct Check {
    /// Printed as `<name> check: PASS — <detail>`.
    pub name: &'static str,
    /// Statistical checks need more jobs than `smoke` runs, so
    /// [`run_entries`] skips them there; structural ones (ordering,
    /// bookkeeping) gate at every scale.
    pub statistical: bool,
    /// Whether the comparison held.
    pub pass: bool,
    /// What was compared, with the numbers.
    pub detail: String,
}

impl Check {
    /// A check that holds at every scale.
    pub fn structural(name: &'static str, pass: bool, detail: impl Into<String>) -> Self {
        Self {
            name,
            statistical: false,
            pass,
            detail: detail.into(),
        }
    }

    /// A check that needs more than `smoke` scale to mean anything.
    pub fn statistical(name: &'static str, pass: bool, detail: impl Into<String>) -> Self {
        Self {
            name,
            statistical: true,
            pass,
            detail: detail.into(),
        }
    }
}

/// What an entry returns: its checks, or the error that stopped it.
pub type Outcome = Result<Vec<Check>, String>;

/// One figure or sweep of the registry.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// The name `repro_all --only` selects it by.
    pub name: &'static str,
    /// The CSVs it writes, each as `<results dir>/<csv>.csv`.
    pub csvs: &'static [&'static str],
    /// Runs the entry at a scale: cells, tables, CSVs, checks.
    pub run: fn(&Scale) -> Outcome,
}

/// The paper's figures, in paper order (the work `repro_probe` times).
pub const FIGURES: &[Entry] = &[
    entry("fig01", &["fig01"], figs::fig01),
    entry("fig02", &["fig02"], figs::fig02),
    entry("fig03", &["fig03"], figs::fig03),
    entry("fig04", &["fig04"], figs::fig04),
    entry("fig05", &["fig05"], figs::fig05),
    entry(
        "fig06",
        &["fig06a", "fig06b", "fig06c", "fig06d"],
        figs::fig06,
    ),
    entry("fig07", &["fig07a", "fig07b", "fig07c"], figs::fig07),
    entry("fig08", &["fig08"], figs::fig08),
    entry("fig09", &["fig09"], figs::fig09),
    entry("fig10", &["fig10a", "fig10b", "fig10c"], figs::fig10),
    entry("fig11", &["fig11"], figs::fig11),
    entry("fig12", &["fig12"], figs::fig12),
    entry("fig13", &["fig13"], figs::fig13),
    entry("fig14", &["fig14a", "fig14b", "fig14c"], figs::fig14),
];

/// The extension sweeps, run after the figures. The last five carry
/// checks.
pub const SWEEPS: &[Entry] = &[
    entry("ext_hetero", &["ext_hetero"], ext::hetero),
    entry("ext_mechanisms", &["ext_mechanisms"], ext::mechanisms),
    entry("ext_adaptive", &["ext_adaptive"], ext::adaptive),
    entry("ext_individual", &["ext_individual"], ext::individual),
    entry("ext_sita", &["ext_sita"], ext::sita),
    entry("ext_mmpp", &["ext_mmpp"], ext::mmpp),
    entry("degradation", &["degradation"], degradation::run),
    entry("ext_resilience", &["ext_resilience"], ext_resilience::run),
    entry("overload", &["overload"], overload::run),
    entry("ext_tail", &["ext_tail"], ext_tail::run),
    entry("ext_meanfield", &["ext_meanfield"], ext_meanfield::run),
];

const fn entry(
    name: &'static str,
    csvs: &'static [&'static str],
    run: fn(&Scale) -> Outcome,
) -> Entry {
    Entry { name, csvs, run }
}

/// Every entry, in the order `repro_all` runs them: figures first.
pub fn registry() -> impl Iterator<Item = &'static Entry> {
    FIGURES.iter().chain(SWEEPS)
}

/// Runs `entries` in order and prints each returned check as
/// `<name> check: PASS|FAIL — <detail>`. Statistical checks are skipped
/// at `smoke` scale, here and nowhere else.
///
/// Returns `false` if any entry erred or any check that ran failed; the
/// remaining entries still run.
pub fn run_entries<'a>(scale: &Scale, entries: impl IntoIterator<Item = &'a Entry>) -> bool {
    eprintln!("== staleload reproduction, scale = {} ==", scale.name);
    let mut ok = true;
    for entry in entries {
        match (entry.run)(scale) {
            Ok(checks) => {
                for check in checks {
                    if check.statistical && scale.is_smoke() {
                        println!("{} check: SKIPPED at smoke scale", check.name);
                        continue;
                    }
                    let verdict = if check.pass { "PASS" } else { "FAIL" };
                    println!("{} check: {verdict} — {}", check.name, check.detail);
                    ok &= check.pass;
                }
            }
            Err(e) => {
                eprintln!("[{}] error: {e}", entry.name);
                ok = false;
            }
        }
    }
    ok
}

/// Parsed `repro_all` command line.
///
/// ```text
/// repro_all [smoke|quick|std|full] [--no-cache] [--no-watchdog]
///           [--only name,name,...]
/// ```
///
/// The scale defaults to `std`. `--no-cache` disables the
/// content-addressed result cache; `--no-watchdog` disarms the
/// per-trial watchdog; `--only` restricts the run to the named registry
/// entries. An unknown argument or entry name exits with status 2
/// before anything runs.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Run scale (from the scale argument, default `std`).
    pub scale: Scale,
    /// Skip cache reads and writes for this run.
    pub no_cache: bool,
    /// Disarm the per-trial watchdog for this run.
    pub no_watchdog: bool,
    /// Registry entries to run (empty = all).
    pub only: Vec<String>,
}

const USAGE: &str =
    "usage: repro_all [smoke|quick|std|full] [--no-cache] [--no-watchdog] [--only name,name,...]";

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
    /// Returns a description of the first unrecognized argument, or of
    /// the first `--only` name that is not a registry entry.
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut scale: Option<Scale> = None;
        let mut no_cache = false;
        let mut no_watchdog = false;
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
                    let list = it.next().ok_or("--only needs a list of entry names")?;
                    only.extend(list.split(',').map(|s| s.trim().to_string()));
                }
                s if s.starts_with("only=") => {
                    only.extend(s["only=".len()..].split(',').map(|s| s.trim().to_string()));
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        only.retain(|s| !s.is_empty());
        if let Some(name) = only.iter().find(|n| !registry().any(|e| e.name == *n)) {
            let valid: Vec<&str> = registry().map(|e| e.name).collect();
            return Err(format!(
                "unknown entry `{name}` (valid: {})",
                valid.join(", ")
            ));
        }
        Ok(Self {
            scale: scale.unwrap_or_else(Scale::std),
            no_cache,
            no_watchdog,
            only,
        })
    }

    /// Whether the entry called `name` is selected (`--only`, or all).
    pub fn selects(&self, name: &str) -> bool {
        self.only.is_empty() || self.only.iter().any(|n| n == name)
    }
}

/// `--no-cache` seen on the command line (checked at lazy runner init).
static NO_CACHE: AtomicBool = AtomicBool::new(false);

/// Watchdog budget in ms recorded by `parse_or_exit` (0 = disarmed —
/// the default, so library tests and probes never race a wall clock).
static WATCHDOG_MS: AtomicU64 = AtomicU64::new(0);

/// The process-wide sweep runner every entry shares: one worker count,
/// one result cache and one journal, built lazily on first use.
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
    if NO_CACHE.load(Ordering::Relaxed) {
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
/// `cache`, with no journal and the watchdog disarmed (used by
/// `repro_probe` to compare cold/warm/sequential runs, and by tests).
pub fn configure_runner(workers: usize, cache: ResultCache) {
    let mut guard = runner();
    *guard = SweepRunner::new(WorkerPool::new(workers), cache);
}

/// Runs `f(0)`, …, `f(count - 1)` on the shared worker pool, returning
/// the results in index order. For cells that need custom per-trial
/// metrics and therefore bypass [`Experiment`] and the cache; keep `f` a
/// pure function of its index to stay deterministic.
fn run_trials<T, F>(count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    runner().run_map(count, f)
}

/// Runs an entry's cells as one batch on the shared runner, returning
/// their results in order, or an error naming the first cell that
/// failed.
fn run_cells(name: &str, experiments: &[Experiment]) -> Result<Vec<ExperimentResult>, String> {
    run_batch_with_progress(name, experiments)
        .into_iter()
        .zip(experiments)
        .map(|(result, exp)| {
            result.map_err(|e| {
                format!(
                    "{} under {} failed: {e}",
                    exp.policy.label(),
                    exp.info.label()
                )
            })
        })
        .collect()
}

/// Formats each cell with `Display`, the long-form CSVs' format (`f64`s
/// in shortest round-trip form).
fn row(cells: &[&dyn Display]) -> Vec<String> {
    cells.iter().map(ToString::to_string).collect()
}

/// A table with the given column headers.
fn table<H: ToString>(headers: impl IntoIterator<Item = H>) -> Table {
    Table::new(headers.into_iter().map(|h| h.to_string()).collect())
}

/// Prints `table` on stdout under its title.
fn print_table(title: &str, table: &Table) {
    println!("\n== {title} ==");
    print!("{}", table.render());
}

/// Prints `table` under its title and writes `csv` to
/// `results/<name>.csv`, returning the CSV's path.
fn publish(name: &str, title: &str, table: &Table, csv: &Table) -> Result<PathBuf, String> {
    print_table(title, table);
    let path = results_path(name);
    csv.write_csv(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("[{name}] wrote {}", path.display());
    Ok(path)
}

/// How a check's detail prints an `a < b` comparison: `<` when it
/// held, `>=` when it did not.
fn lt_sign(held: bool) -> &'static str {
    if held {
        "<"
    } else {
        ">="
    }
}

/// How a sweep cell is summarized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellStyle {
    /// `mean ±ci90` (the paper's exponential-service figures).
    MeanCi,
    /// `median [q1, q3]` (the Bounded-Pareto figures).
    MedianQuartiles,
}

/// One labelled series of a sweep: a closure mapping the x value to an
/// [`Experiment`].
struct Series<'a> {
    /// Column label (matches the paper's legend).
    label: String,
    /// Experiment factory for each x value.
    make: Box<dyn Fn(f64) -> Experiment + 'a>,
}

impl<'a> Series<'a> {
    /// Creates a labelled series.
    fn new(label: impl Into<String>, make: impl Fn(f64) -> Experiment + 'a) -> Self {
        Self {
            label: label.into(),
            make: Box::new(make),
        }
    }
}

/// Runs a parameter sweep (one figure panel): for each x, each series'
/// experiment, as one batch.
///
/// Progress goes to stderr; a table with one row per x and one column
/// per series to stdout; the long-form CSV (with
/// mean/ci/median/quartiles/min/max per cell) to `results/<name>.csv`,
/// and the curves to `results/<name>.svg`.
fn run_sweep(
    name: &str,
    title: &str,
    x_label: &str,
    xs: &[f64],
    series: &[Series<'_>],
    style: CellStyle,
) -> Result<(), String> {
    let start = Instant::now();
    eprintln!("[{name}] {title}");
    let mut rows = table(std::iter::once(x_label).chain(series.iter().map(|s| s.label.as_str())));
    let mut csv = table([
        x_label, "policy", "mean", "ci90", "median", "q1", "q3", "min", "max", "trials",
    ]);

    // Every (x, series) point, row-major so results come back in the
    // table/CSV order.
    let mut experiments = Vec::with_capacity(xs.len() * series.len());
    for &x in xs {
        for s in series {
            experiments.push((s.make)(x));
        }
    }
    let mut results = run_cells(name, &experiments)?.into_iter();

    let mut curves: Vec<Vec<(f64, f64)>> = vec![Vec::new(); series.len()];
    for &x in xs {
        let mut cells = vec![format_x(x)];
        for (series_idx, s) in series.iter().enumerate() {
            let result = results.next().expect("one result per point");
            let sum = &result.summary;
            if result.history_misses > 0 {
                eprintln!(
                    "[{name}] WARNING: {} history misses at {x} for {}",
                    result.history_misses, s.label
                );
            }
            let (cell, y) = match style {
                CellStyle::MeanCi => (format!("{:.3} ±{:.3}", sum.mean, sum.ci90), sum.mean),
                CellStyle::MedianQuartiles => (
                    format!("{:.2} [{:.2},{:.2}]", sum.median, sum.q1, sum.q3),
                    sum.median,
                ),
            };
            cells.push(cell);
            curves[series_idx].push((x, y));
            csv.push_row(row(&[
                &x,
                &s.label,
                &sum.mean,
                &sum.ci90,
                &sum.median,
                &sum.q1,
                &sum.q3,
                &sum.min,
                &sum.max,
                &sum.trials,
            ]));
        }
        rows.push_row(cells);
    }
    let path = publish(name, title, &rows, &csv)?;
    eprintln!("[{name}] done in {:.1}s", start.elapsed().as_secs_f64());

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
    plot.write_svg(&svg_path)
        .map_err(|e| format!("cannot write {}: {e}", svg_path.display()))
}

/// Runs a batch on the shared runner with progress lines (`done/total`
/// + ETA, throttled to ~8 updates) and a cache hit/miss line on stderr.
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

/// Destination for an entry's CSV.
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
        assert!(a.selects("fig10") && !a.selects("fig03"));
        let b = parse(&["--only=fig03", "--only", "fig04"]).unwrap();
        assert_eq!(b.only, vec!["fig03", "fig04"]);
        assert_eq!(b.scale.name, "std");
        let c = parse(&["--no-watchdog"]).unwrap();
        assert!(c.no_watchdog && !c.no_cache);
        assert!(c.selects("ext_meanfield"));
        // Every registry entry is selectable by name, alone or all at once.
        let names: Vec<&str> = registry().map(|e| e.name).collect();
        assert_eq!(names.len(), 25);
        for name in &names {
            assert_eq!(parse(&["--only", name]).unwrap().only, vec![*name]);
        }
        let all = parse(&["--only", &names.join(",")]).unwrap();
        assert_eq!(all.only, names);
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
        let err = parse(&["--only", "fig02,fig99"]).unwrap_err();
        assert!(err.contains("fig99"), "{err}");
        assert!(parse(&["--only=ext_nope"]).is_err());
    }

    #[test]
    fn registry_names_are_unique_and_csvs_disjoint() {
        let mut names: Vec<&str> = registry().map(|e| e.name).collect();
        let mut csvs: Vec<&str> = registry().flat_map(|e| e.csvs.iter().copied()).collect();
        let (n, c) = (names.len(), csvs.len());
        names.sort_unstable();
        names.dedup();
        csvs.sort_unstable();
        csvs.dedup();
        assert_eq!((names.len(), csvs.len()), (n, c));
        assert_eq!(FIGURES.len(), 14);
        assert!(FIGURES.iter().all(|e| e.name.starts_with("fig")));
    }
}
