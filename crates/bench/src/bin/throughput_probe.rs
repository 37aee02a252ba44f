//! Kernel perf harness: measures both event-scheduler backends and emits
//! `BENCH_kernel.json` (ISSUE 3).
//!
//! Two layers are measured:
//!
//! * **Hold model** — the classic pending-event-set microbenchmark (Jones
//!   1986): prefill the queue with `n` events, then repeatedly pop the
//!   minimum and push a replacement at `t_min + increment`. This isolates
//!   the scheduler itself; it is where the calendar queue's amortized O(1)
//!   shows up against the heap's O(log n).
//! * **Engine** — full `run_simulation` end to end, fault-free and
//!   faulted, reporting jobs/sec and ns/job. Queue operations are a
//!   fraction of total engine work, so the speedup here is diluted — both
//!   numbers are reported so the dilution is visible rather than implied.
//! * **Mean-field** — the per-server engine vs `--engine population` on
//!   one identical large-cluster workload (ISSUE 9): the jobs/sec ratio
//!   is gated at [`POPULATION_GATE`].
//!
//! Usage:
//!
//! ```text
//! throughput_probe                 # full scale, writes BENCH_kernel.json
//! throughput_probe --smoke        # CI scale (fast, noisier)
//! throughput_probe --out FILE     # override the output path
//! throughput_probe --check FILE   # smoke-measure and compare vs a baseline:
//!                                 #   exits nonzero on >15% regression of the
//!                                 #   calendar/heap speedup ratio (machine-
//!                                 #   portable); BENCH_STRICT=1 additionally
//!                                 #   compares absolute events/sec
//! ```
//!
//! All randomness is seeded, so two runs on the same machine measure the
//! same workload.

#![forbid(unsafe_code)]
// A figure binary prints its results; stdout is the interface.
#![allow(clippy::print_stdout)]

use std::time::Instant;

use staleload_core::{run_simulation, ArrivalSpec, EngineMode, FaultSpec, SimConfig};
use staleload_info::InfoSpec;
use staleload_policies::PolicySpec;
use staleload_sim::{CalendarQueue, EventQueue, EventScheduler, SchedulerKind, SimRng};
use staleload_stats::TailSketch;

/// Queue sizes for the hold model (and server counts for engine runs).
const SIZES: [usize; 3] = [8, 32, 256];

/// The regression gate: a checked metric may drop at most this fraction
/// below the baseline.
const TOLERANCE: f64 = 0.15;

/// The tail-sketch ingestion gate: recording one response time into the
/// quantile sketch may cost at most this fraction of one engine job
/// (same-machine ratio, so it transfers across hardware).
const SKETCH_GATE: f64 = 0.05;

/// Cluster size for the mean-field comparison: large enough that the
/// per-server engine's O(n) refresh scans dominate, small enough that
/// the per-server side still finishes in seconds.
const POPULATION_N: usize = 65_536;

/// The mean-field gate: on the same workload (`POPULATION_N` servers,
/// Basic LI over a periodic board), population mode must complete at
/// least this many times more jobs per second than the per-server
/// engine. A same-machine ratio, so it transfers across hardware.
const POPULATION_GATE: f64 = 50.0;

struct Scale {
    /// Hold operations measured per (backend, n) pair.
    hold_ops: u64,
    /// Arrivals per engine run.
    arrivals: u64,
    smoke: bool,
}

const FULL: Scale = Scale {
    hold_ops: 4_000_000,
    arrivals: 200_000,
    smoke: false,
};

const SMOKE: Scale = Scale {
    hold_ops: 400_000,
    arrivals: 20_000,
    smoke: true,
};

#[derive(Debug)]
struct HoldResult {
    backend: SchedulerKind,
    n: usize,
    ops: u64,
    events_per_sec: f64,
    ns_per_op: f64,
}

#[derive(Debug)]
struct EngineResult {
    backend: SchedulerKind,
    servers: usize,
    faulted: bool,
    arrivals: u64,
    jobs_per_sec: f64,
    ns_per_job: f64,
    mean_response: f64,
}

/// Increment table size for the hold model. Power of two so the cyclic
/// index is a mask; small enough (16 KiB) that the table and the pending
/// set fit L1 together, so the timed loop measures the scheduler rather
/// than RNG or memory bandwidth.
const INC_TABLE: usize = 1 << 11;

/// Precomputed hold-model increments: exp(1) gaps, with every 64th entry
/// an exact zero so the benchmark also pays for the FIFO tie-break path.
/// (The table length is a multiple of 64, so the tie pattern survives the
/// cyclic reuse.)
fn increments() -> Vec<f64> {
    let mut rng = SimRng::from_seed(0x5EED_0001);
    (0..INC_TABLE)
        .map(|i| if i % 64 == 0 { 0.0 } else { rng.exp(1.0) })
        .collect()
}

/// Hold model over one backend: prefill `n`, then `ops` × (pop min, push
/// replacement at `t + increment`). Increments are drawn from a
/// precomputed table — identically for both backends — so the timed
/// region contains only scheduler operations. Returns elapsed seconds.
fn hold<S: EventScheduler<u64>>(n: usize, ops: u64, inc: &[f64]) -> f64 {
    let mut q = S::with_capacity(n);
    let mut rng = SimRng::from_seed(0x5EED_0002);
    let mut t = 0.0;
    for i in 0..n as u64 {
        t += rng.exp(1.0);
        q.try_push(t, i).expect("finite time");
    }
    let mask = inc.len() - 1;
    let mut checksum = 0u64;
    let start = Instant::now();
    for i in 0..ops {
        let (time, id) = q.pop().expect("hold model never empties");
        checksum = checksum.wrapping_add(id);
        let next = time + inc[(i as usize) & mask];
        q.try_push(next, id).expect("finite time");
    }
    let dt = start.elapsed().as_secs_f64();
    // Keep the checksum observable so the loop cannot be optimized away.
    assert!(checksum > 0 || ops == 0);
    dt
}

fn run_hold(scale: &Scale) -> Vec<HoldResult> {
    let inc = increments();
    let mut out = Vec::new();
    for &n in &SIZES {
        for backend in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            // One warmup pass at 1/8 scale, then best-of-3 measured passes
            // (minimum wall time — the least-interfered-with run — applied
            // identically to both backends).
            let best = |dts: [f64; 3]| dts.into_iter().fold(f64::INFINITY, f64::min);
            let dt = match backend {
                SchedulerKind::Heap => {
                    hold::<EventQueue<u64>>(n, scale.hold_ops / 8, &inc);
                    best([0; 3].map(|_| hold::<EventQueue<u64>>(n, scale.hold_ops, &inc)))
                }
                SchedulerKind::Calendar => {
                    hold::<CalendarQueue<u64>>(n, scale.hold_ops / 8, &inc);
                    best([0; 3].map(|_| hold::<CalendarQueue<u64>>(n, scale.hold_ops, &inc)))
                }
            };
            // One hold op is a pop plus a push: two scheduler events.
            let events = (scale.hold_ops * 2) as f64;
            out.push(HoldResult {
                backend,
                n,
                ops: scale.hold_ops,
                events_per_sec: events / dt,
                ns_per_op: dt * 1e9 / scale.hold_ops as f64,
            });
        }
    }
    out
}

fn run_engine(scale: &Scale) -> Vec<EngineResult> {
    let mut out = Vec::new();
    for &servers in &SIZES {
        for faulted in [false, true] {
            for backend in [SchedulerKind::Heap, SchedulerKind::Calendar] {
                let faults = if faulted {
                    let mut f = FaultSpec::crash(500.0, 20.0);
                    f.loss = FaultSpec::drop(0.3).loss;
                    f
                } else {
                    FaultSpec::none()
                };
                let cfg = SimConfig::builder()
                    .servers(servers)
                    .lambda(0.9)
                    .arrivals(scale.arrivals)
                    .seed(7)
                    .scheduler(backend)
                    .faults(faults)
                    .build();
                let info = InfoSpec::Periodic { period: 10.0 };
                let policy = PolicySpec::BasicLi { lambda: 0.9 };
                let start = Instant::now();
                let r = run_simulation(&cfg, &ArrivalSpec::Poisson, &info, &policy)
                    .expect("valid config");
                let dt = start.elapsed().as_secs_f64();
                out.push(EngineResult {
                    backend,
                    servers,
                    faulted,
                    arrivals: scale.arrivals,
                    jobs_per_sec: r.generated as f64 / dt,
                    ns_per_job: dt * 1e9 / r.generated as f64,
                    mean_response: r.mean_response,
                });
            }
        }
    }
    out
}

#[derive(Debug)]
struct PopulationResult {
    engine: &'static str,
    servers: usize,
    arrivals: u64,
    jobs_per_sec: f64,
    ns_per_job: f64,
    mean_response: f64,
}

/// Per-server vs population mode on one identical workload: the paper's
/// Basic LI policy over a periodic board (T = 10) at load 0.9 on
/// [`POPULATION_N`] servers. Same arrival count, same seed — only the
/// engine differs, so the jobs/sec ratio is the mean-field speedup. The
/// two mean responses agree in distribution (the population state is an
/// exact lossless statistic for this policy class) but not per-sample;
/// both are recorded so drift would be visible in the JSON.
fn run_population_stage(scale: &Scale) -> Vec<PopulationResult> {
    let mut out = Vec::new();
    for (label, engine) in [
        ("per-server", EngineMode::PerServer),
        ("population", EngineMode::Population),
    ] {
        let cfg = SimConfig::builder()
            .servers(POPULATION_N)
            .lambda(0.9)
            .arrivals(scale.arrivals)
            .seed(7)
            .engine(engine)
            .build();
        let info = InfoSpec::Periodic { period: 10.0 };
        let policy = PolicySpec::BasicLi { lambda: 0.9 };
        let start = Instant::now();
        let r = run_simulation(&cfg, &ArrivalSpec::Poisson, &info, &policy).expect("valid config");
        let dt = start.elapsed().as_secs_f64();
        out.push(PopulationResult {
            engine: label,
            servers: POPULATION_N,
            arrivals: scale.arrivals,
            jobs_per_sec: r.generated as f64 / dt,
            ns_per_job: dt * 1e9 / r.generated as f64,
            mean_response: r.mean_response,
        });
    }
    out
}

fn population_speedup(pop: &[PopulationResult]) -> f64 {
    let jps = |engine: &str| {
        pop.iter()
            .find(|p| p.engine == engine)
            .map(|p| p.jobs_per_sec)
            .expect("both engines measured")
    };
    jps("population") / jps("per-server")
}

#[derive(Debug)]
struct SketchResult {
    mode: &'static str,
    records: u64,
    ns_per_record: f64,
}

/// Precomputed positive response-time-like values for the sketch
/// microbench (same cyclic-table trick as [`increments`]).
fn sketch_values() -> Vec<f64> {
    let mut rng = SimRng::from_seed(0x5EED_0003);
    (0..INC_TABLE).map(|_| 0.05 + rng.exp(1.0)).collect()
}

/// Tail-sketch ingestion cost, two modes:
///
/// * `steady` — one sketch at the default capacity ingesting the whole
///   stream: the amortized per-job cost of a large trial (exact-mode
///   appends, one compaction, then O(1) bucket increments).
/// * `exact` — fresh sketches filled exactly to capacity: the pure
///   exact-mode append path a small trial stays on.
fn run_sketch(scale: &Scale) -> Vec<SketchResult> {
    let vals = sketch_values();
    let mask = vals.len() - 1;
    let best = |dts: [f64; 3]| dts.into_iter().fold(f64::INFINITY, f64::min);

    let records = scale.hold_ops;
    let steady = || {
        let mut s = TailSketch::new(TailSketch::DEFAULT_CAP);
        let start = Instant::now();
        for i in 0..records {
            s.record(vals[(i as usize) & mask]);
        }
        let dt = start.elapsed().as_secs_f64();
        // Keep the sketch observable so the loop cannot be optimized away.
        assert_eq!(s.count(), records);
        dt
    };
    steady();
    let steady_dt = best([0; 3].map(|_| steady()));

    let cap = TailSketch::DEFAULT_CAP as u64;
    let passes = (records / cap).max(1);
    let exact_records = passes * cap;
    let exact = || {
        let start = Instant::now();
        let mut total = 0u64;
        for _ in 0..passes {
            let mut s = TailSketch::new(TailSketch::DEFAULT_CAP);
            for i in 0..cap {
                s.record(vals[(i as usize) & mask]);
            }
            total += s.count();
        }
        let dt = start.elapsed().as_secs_f64();
        assert_eq!(total, exact_records);
        dt
    };
    exact();
    let exact_dt = best([0; 3].map(|_| exact()));

    vec![
        SketchResult {
            mode: "steady",
            records,
            ns_per_record: steady_dt * 1e9 / records as f64,
        },
        SketchResult {
            mode: "exact",
            records: exact_records,
            ns_per_record: exact_dt * 1e9 / exact_records as f64,
        },
    ]
}

/// The sketch-ingestion overhead fraction: steady-state ns/record over
/// the mean clean-engine ns/job across sizes and backends — the cost of
/// recording one response time relative to a typical simulated job.
/// (Tiny clusters run cheaper jobs and would see proportionally more;
/// the paper's n = 100 configurations proportionally less.)
fn sketch_overhead(sketch: &[SketchResult], engine: &[EngineResult]) -> f64 {
    let steady = sketch
        .iter()
        .find(|s| s.mode == "steady")
        .expect("steady mode measured")
        .ns_per_record;
    let clean: Vec<f64> = engine
        .iter()
        .filter(|e| !e.faulted)
        .map(|e| e.ns_per_job)
        .collect();
    let mean = clean.iter().sum::<f64>() / clean.len() as f64;
    steady / mean
}

fn speedup(hold: &[HoldResult], n: usize) -> f64 {
    let eps = |kind: SchedulerKind| {
        hold.iter()
            .find(|h| h.backend == kind && h.n == n)
            .map(|h| h.events_per_sec)
            .expect("both backends measured at every size")
    };
    eps(SchedulerKind::Calendar) / eps(SchedulerKind::Heap)
}

/// Renders the results as JSON. Hand-rolled: the workspace has no JSON
/// dependency, and the schema is flat. The `summary` object holds one
/// uniquely-keyed scalar per checked metric so `--check` can parse the
/// file without a JSON parser.
fn to_json(
    hold: &[HoldResult],
    engine: &[EngineResult],
    population: &[PopulationResult],
    sketch: &[SketchResult],
    scale: &Scale,
) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"staleload-bench-kernel-v1\",\n");
    s.push_str(&format!("  \"smoke\": {},\n", scale.smoke));
    s.push_str("  \"hold\": [\n");
    for (i, h) in hold.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"backend\": \"{}\", \"n\": {}, \"ops\": {}, \
             \"events_per_sec\": {:.0}, \"ns_per_op\": {:.2}}}{}\n",
            h.backend.label(),
            h.n,
            h.ops,
            h.events_per_sec,
            h.ns_per_op,
            if i + 1 < hold.len() { "," } else { "" },
        ));
    }
    s.push_str("  ],\n  \"engine\": [\n");
    for (i, e) in engine.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"backend\": \"{}\", \"servers\": {}, \"faulted\": {}, \
             \"arrivals\": {}, \"jobs_per_sec\": {:.0}, \"ns_per_job\": {:.1}, \
             \"mean_response\": {:.6}}}{}\n",
            e.backend.label(),
            e.servers,
            e.faulted,
            e.arrivals,
            e.jobs_per_sec,
            e.ns_per_job,
            e.mean_response,
            if i + 1 < engine.len() { "," } else { "" },
        ));
    }
    s.push_str("  ],\n  \"population\": [\n");
    for (i, p) in population.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"engine\": \"{}\", \"servers\": {}, \"arrivals\": {}, \
             \"jobs_per_sec\": {:.0}, \"ns_per_job\": {:.1}, \
             \"mean_response\": {:.6}}}{}\n",
            p.engine,
            p.servers,
            p.arrivals,
            p.jobs_per_sec,
            p.ns_per_job,
            p.mean_response,
            if i + 1 < population.len() { "," } else { "" },
        ));
    }
    s.push_str("  ],\n  \"sketch\": [\n");
    for (i, k) in sketch.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"mode\": \"{}\", \"records\": {}, \"ns_per_record\": {:.2}}}{}\n",
            k.mode,
            k.records,
            k.ns_per_record,
            if i + 1 < sketch.len() { "," } else { "" },
        ));
    }
    s.push_str("  ],\n  \"summary\": {\n");
    let mut summary: Vec<(String, f64)> = Vec::new();
    for k in sketch {
        summary.push((format!("sketch_{}_ns_per_record", k.mode), k.ns_per_record));
    }
    summary.push((
        "sketch_overhead_frac".into(),
        sketch_overhead(sketch, engine),
    ));
    for h in hold {
        summary.push((
            format!("hold_{}_n{}_eps", h.backend.label(), h.n),
            h.events_per_sec,
        ));
    }
    for e in engine {
        summary.push((
            format!(
                "engine_{}_n{}_{}_jps",
                e.backend.label(),
                e.servers,
                if e.faulted { "faulted" } else { "clean" }
            ),
            e.jobs_per_sec,
        ));
    }
    for &n in &SIZES {
        summary.push((format!("calendar_speedup_hold_n{n}"), speedup(hold, n)));
    }
    for p in population {
        summary.push((
            format!("meanfield_{}_n{}_jps", p.engine, p.servers),
            p.jobs_per_sec,
        ));
    }
    summary.push((
        format!("population_speedup_n{POPULATION_N}"),
        population_speedup(population),
    ));
    for (i, (k, v)) in summary.iter().enumerate() {
        s.push_str(&format!(
            "    \"{k}\": {v:.4}{}\n",
            if i + 1 < summary.len() { "," } else { "" }
        ));
    }
    s.push_str("  }\n}\n");
    s
}

/// Extracts `"key": <number>` from a flat JSON document. Good enough for
/// the uniquely-keyed `summary` object this harness writes.
fn json_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Compares a fresh hold measurement against a baseline file. The default
/// gate is the calendar/heap hold speedup at each size — a ratio of two
/// same-machine measurements, so it transfers across machines. The
/// re-measurement runs at the baseline's own scale (hold speedups are
/// systematically lower at smoke scale, where the calendar's retune
/// transient is less amortized, so cross-scale ratios would not be
/// comparable); a full-scale hold sweep is only a few seconds. With
/// `BENCH_STRICT=1` absolute events/sec are gated too (only meaningful
/// when baseline and candidate ran on the same hardware).
fn check(baseline_path: &str) -> Result<(), String> {
    let baseline = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let baseline_smoke = baseline.contains("\"smoke\": true");
    let hold = run_hold(if baseline_smoke { &SMOKE } else { &FULL });
    let strict = std::env::var("BENCH_STRICT").is_ok_and(|v| v == "1");
    let mut failures = Vec::new();
    for &n in &SIZES {
        let key = format!("calendar_speedup_hold_n{n}");
        let base = json_number(&baseline, &key)
            .ok_or_else(|| format!("baseline has no {key} (regenerate BENCH_kernel.json)"))?;
        let cur = speedup(&hold, n);
        let floor = base * (1.0 - TOLERANCE);
        println!("{key}: baseline {base:.3}, current {cur:.3}, floor {floor:.3}");
        if cur < floor {
            failures.push(format!(
                "{key} regressed: {cur:.3} < {floor:.3} (baseline {base:.3} - {}%)",
                TOLERANCE * 100.0
            ));
        }
    }
    if strict {
        for h in &hold {
            let key = format!("hold_{}_n{}_eps", h.backend.label(), h.n);
            let Some(base) = json_number(&baseline, &key) else {
                return Err(format!("baseline has no {key}"));
            };
            let floor = base * (1.0 - TOLERANCE);
            println!(
                "{key}: baseline {base:.0}, current {:.0}, floor {floor:.0}",
                h.events_per_sec
            );
            if h.events_per_sec < floor {
                failures.push(format!(
                    "{key} regressed: {:.0} events/sec < {floor:.0}",
                    h.events_per_sec
                ));
            }
        }
    }
    // Sketch-ingestion overhead. Two gates: the baseline's *recorded*
    // overhead must honor the hard budget (the reference measurement is
    // the claim), and a fresh same-machine re-measurement may not exceed
    // it by more than the usual noise tolerance (absolute 5% with a thin
    // margin would flake on loaded CI machines, like any un-toleranced
    // wall-clock gate).
    let base_frac = json_number(&baseline, "sketch_overhead_frac")
        .ok_or("baseline has no sketch_overhead_frac (regenerate BENCH_kernel.json)")?;
    if base_frac >= SKETCH_GATE {
        failures.push(format!(
            "baseline sketch overhead {:.2}% violates the {:.0}% budget; \
             speed up TailSketch::record before regenerating the baseline",
            base_frac * 100.0,
            SKETCH_GATE * 100.0
        ));
    }
    // Mean-field gate: the population engine must hold its speedup over
    // the per-server engine. Ratio of two same-machine runs, so it
    // transfers across hardware; the hard `POPULATION_GATE` floor is the
    // ISSUE 9 claim and binds both the recorded baseline and the fresh
    // measurement (with the usual noise tolerance on the regression leg).
    let pop_key = format!("population_speedup_n{POPULATION_N}");
    let base_pop = json_number(&baseline, &pop_key)
        .ok_or_else(|| format!("baseline has no {pop_key} (regenerate BENCH_kernel.json)"))?;
    if base_pop < POPULATION_GATE {
        failures.push(format!(
            "baseline population speedup {base_pop:.1}x is below the {POPULATION_GATE:.0}x \
             budget; speed up the population engine before regenerating the baseline"
        ));
    }
    let population = run_population_stage(if baseline_smoke { &SMOKE } else { &FULL });
    let cur_pop = population_speedup(&population);
    let pop_floor = POPULATION_GATE.max(base_pop * (1.0 - TOLERANCE));
    println!("{pop_key}: baseline {base_pop:.1}, current {cur_pop:.1}, floor {pop_floor:.1}");
    if cur_pop < pop_floor {
        failures.push(format!(
            "population speedup regressed: {cur_pop:.1}x < {pop_floor:.1}x \
             (baseline {base_pop:.1}x, hard floor {POPULATION_GATE:.0}x)"
        ));
    }
    let engine = run_engine(if baseline_smoke { &SMOKE } else { &FULL });
    let sketch = run_sketch(if baseline_smoke { &SMOKE } else { &FULL });
    let frac = sketch_overhead(&sketch, &engine);
    let ceiling = base_frac * (1.0 + TOLERANCE);
    println!(
        "sketch_overhead_frac: baseline {base_frac:.4}, current {frac:.4}, \
         ceiling {ceiling:.4} (budget {SKETCH_GATE:.2})"
    );
    if frac > ceiling {
        failures.push(format!(
            "sketch ingestion regressed: {:.2}% of one engine job > {:.2}% \
             (baseline {:.2}% + {}%)",
            frac * 100.0,
            ceiling * 100.0,
            base_frac * 100.0,
            TOLERANCE * 100.0
        ));
    }
    if failures.is_empty() {
        println!(
            "perf check passed ({} mode)",
            if strict { "strict" } else { "ratio" }
        );
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out_path = "BENCH_kernel.json".to_string();
    let mut check_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = it.next().expect("--out needs a path").clone(),
            "--check" => check_path = Some(it.next().expect("--check needs a path").clone()),
            other => {
                eprintln!("unknown flag '{other}' (expected --smoke, --out FILE, --check FILE)");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = check_path {
        if let Err(msg) = check(&path) {
            eprintln!("perf check FAILED:\n{msg}");
            std::process::exit(1);
        }
        return;
    }

    let scale = if smoke { &SMOKE } else { &FULL };
    let hold = run_hold(scale);
    for h in &hold {
        println!(
            "hold {:>8} n={:<4} {:>12.0} events/sec  {:>8.2} ns/op",
            h.backend.label(),
            h.n,
            h.events_per_sec,
            h.ns_per_op
        );
    }
    for &n in &SIZES {
        println!("calendar speedup at n={n}: {:.2}x", speedup(&hold, n));
    }
    let engine = run_engine(scale);
    for e in &engine {
        println!(
            "engine {:>8} n={:<4} {} {:>10.0} jobs/sec  {:>9.1} ns/job",
            e.backend.label(),
            e.servers,
            if e.faulted { "faulted" } else { "clean  " },
            e.jobs_per_sec,
            e.ns_per_job
        );
    }
    let population = run_population_stage(scale);
    for p in &population {
        println!(
            "meanfield {:>10} n={} {:>11.0} jobs/sec  {:>9.1} ns/job  mean {:.4}",
            p.engine, p.servers, p.jobs_per_sec, p.ns_per_job, p.mean_response
        );
    }
    println!(
        "population speedup at n={POPULATION_N}: {:.1}x (gate {POPULATION_GATE:.0}x)",
        population_speedup(&population)
    );
    let sketch = run_sketch(scale);
    for k in &sketch {
        println!(
            "sketch {:>8} {:>10} records  {:>8.2} ns/record",
            k.mode, k.records, k.ns_per_record
        );
    }
    println!(
        "sketch overhead: {:.2}% of one engine job (gate {:.0}%)",
        sketch_overhead(&sketch, &engine) * 100.0,
        SKETCH_GATE * 100.0
    );
    let json = to_json(&hold, &engine, &population, &sketch, scale);
    std::fs::write(&out_path, &json).expect("write benchmark output");
    println!("wrote {out_path}");
}
