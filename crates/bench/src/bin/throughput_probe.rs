//! Kernel perf harness: measures the engine and emits `BENCH_kernel.json`.
//!
//! Three stages are measured:
//!
//! * **Engine** — full `run_simulation` end to end, fault-free and
//!   faulted, reporting jobs/sec and ns/job.
//! * **Mean-field** — the per-server engine vs `--engine population` on
//!   one identical large-cluster workload: the jobs/sec ratio is gated at
//!   [`POPULATION_GATE`].
//! * **Sketch** — the cost of recording one response time into the tail
//!   sketch, gated as a fraction of a clean engine job at [`SKETCH_GATE`].
//!
//! Usage:
//!
//! ```text
//! throughput_probe                 # full scale, writes BENCH_kernel.json
//! throughput_probe --smoke        # CI scale (fast, noisier)
//! throughput_probe --out FILE     # override the output path
//! throughput_probe --check FILE   # re-measure at the baseline's scale and
//!                                 #   exit nonzero when the population or
//!                                 #   sketch gate fails (same-machine
//!                                 #   ratios, so they transfer across
//!                                 #   hardware)
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
use staleload_sim::SimRng;
use staleload_stats::TailSketch;

/// Server counts for the engine runs.
const SIZES: [usize; 3] = [8, 32, 256];

/// The regression gate: a checked metric may drop at most this fraction
/// below the baseline.
const TOLERANCE: f64 = 0.15;

/// The tail-sketch ingestion gate: recording one response time into the
/// quantile sketch may cost at most this fraction of one engine job
/// (same-machine ratio, so it transfers across hardware).
const SKETCH_GATE: f64 = 0.05;

/// Cluster size for the mean-field comparison. At this size the run's
/// arrivals are a fraction of a job per server, so the board never
/// refreshes and no O(n) refresh scan happens: the ratio reflects
/// per-arrival costs only, and since board views stopped filling every
/// entry's age per arrival the gate below fails by design (see
/// EXPERIMENTS.md, "Kernel throughput").
const POPULATION_N: usize = 65_536;

/// The mean-field gate: on the same workload (`POPULATION_N` servers,
/// Basic LI over a periodic board), population mode must complete at
/// least this many times more jobs per second than the per-server
/// engine. A same-machine ratio, so it transfers across hardware.
const POPULATION_GATE: f64 = 50.0;

struct Scale {
    /// Response times recorded per sketch pass.
    sketch_records: u64,
    /// Arrivals per engine run.
    arrivals: u64,
    smoke: bool,
}

const FULL: Scale = Scale {
    sketch_records: 4_000_000,
    arrivals: 200_000,
    smoke: false,
};

const SMOKE: Scale = Scale {
    sketch_records: 400_000,
    arrivals: 20_000,
    smoke: true,
};

#[derive(Debug)]
struct EngineResult {
    servers: usize,
    faulted: bool,
    arrivals: u64,
    jobs_per_sec: f64,
    ns_per_job: f64,
    mean_response: f64,
}

fn run_engine(scale: &Scale) -> Vec<EngineResult> {
    let mut out = Vec::new();
    for &servers in &SIZES {
        for faulted in [false, true] {
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
                .faults(faults)
                .build();
            let info = InfoSpec::Periodic { period: 10.0 };
            let policy = PolicySpec::BasicLi { lambda: 0.9 };
            let start = Instant::now();
            let r =
                run_simulation(&cfg, &ArrivalSpec::Poisson, &info, &policy).expect("valid config");
            let dt = start.elapsed().as_secs_f64();
            out.push(EngineResult {
                servers,
                faulted,
                arrivals: scale.arrivals,
                jobs_per_sec: r.generated as f64 / dt,
                ns_per_job: dt * 1e9 / r.generated as f64,
                mean_response: r.mean_response,
            });
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

/// Size of the precomputed value table the sketch microbench cycles
/// through. Power of two so the cyclic index is a mask; small enough
/// (16 KiB) to stay in L1, so the timed loop measures the sketch rather
/// than RNG or memory bandwidth.
const VALUE_TABLE: usize = 1 << 11;

/// Precomputed positive response-time-like values for the sketch
/// microbench.
fn sketch_values() -> Vec<f64> {
    let mut rng = SimRng::from_seed(0x5EED_0003);
    (0..VALUE_TABLE).map(|_| 0.05 + rng.exp(1.0)).collect()
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

    let records = scale.sketch_records;
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
/// the mean clean-engine ns/job across sizes — the cost of
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

/// Renders the results as JSON. Hand-rolled: the workspace has no JSON
/// dependency, and the schema is flat. The `summary` object holds one
/// uniquely-keyed scalar per checked metric so `--check` can parse the
/// file without a JSON parser.
fn to_json(
    engine: &[EngineResult],
    population: &[PopulationResult],
    sketch: &[SketchResult],
    scale: &Scale,
) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"staleload-bench-kernel-v2\",\n");
    s.push_str(&format!("  \"smoke\": {},\n", scale.smoke));
    s.push_str("  \"engine\": [\n");
    for (i, e) in engine.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"servers\": {}, \"faulted\": {}, \
             \"arrivals\": {}, \"jobs_per_sec\": {:.0}, \"ns_per_job\": {:.1}, \
             \"mean_response\": {:.6}}}{}\n",
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
    for e in engine {
        summary.push((
            format!(
                "engine_n{}_{}_jps",
                e.servers,
                if e.faulted { "faulted" } else { "clean" }
            ),
            e.jobs_per_sec,
        ));
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

/// Compares fresh measurements against a baseline file, re-measured at
/// the baseline's own scale. Both gates are ratios of same-machine
/// measurements, so they transfer across machines.
fn check(baseline_path: &str) -> Result<(), String> {
    let baseline = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let scale = if baseline.contains("\"smoke\": true") {
        &SMOKE
    } else {
        &FULL
    };
    let mut failures = Vec::new();
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
    let population = run_population_stage(scale);
    let cur_pop = population_speedup(&population);
    let pop_floor = POPULATION_GATE.max(base_pop * (1.0 - TOLERANCE));
    println!("{pop_key}: baseline {base_pop:.1}, current {cur_pop:.1}, floor {pop_floor:.1}");
    if cur_pop < pop_floor {
        failures.push(format!(
            "population speedup regressed: {cur_pop:.1}x < {pop_floor:.1}x \
             (baseline {base_pop:.1}x, hard floor {POPULATION_GATE:.0}x)"
        ));
    }
    let engine = run_engine(scale);
    let sketch = run_sketch(scale);
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
        println!("perf check passed");
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
    let engine = run_engine(scale);
    for e in &engine {
        println!(
            "engine n={:<4} {} {:>10.0} jobs/sec  {:>9.1} ns/job",
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
    let json = to_json(&engine, &population, &sketch, scale);
    std::fs::write(&out_path, &json).expect("write benchmark output");
    println!("wrote {out_path}");
}
