//! Golden-trajectory regression: with the overload controls
//! (`queue_cap`/`deadline`/`retry`) unset, simulations must replay the
//! exact bit patterns produced before the control plane existed.
//!
//! The constants below were captured from the engine as of PR 1 (fault
//! layer, pre-overload-controls) over a seed sweep spanning every RNG
//! stream: plain Poisson, MMPP arrivals, the staleness gate, crash faults,
//! and lossy boards. Any change to stream fork order, event ordering, or
//! the default code path shows up here as a bit mismatch.

use staleload::core::{
    clients_for_mean_age, run_simulation, ArrivalSpec, EngineMode, FaultSpec, RetrySpec, RunResult,
    SimConfig,
};
use staleload::info::{AgeKnowledge, DelaySpec, InfoSpec};
use staleload::policies::PolicySpec;
use staleload::workloads::BurstConfig;

fn combos() -> Vec<(&'static str, ArrivalSpec, InfoSpec, PolicySpec, FaultSpec)> {
    vec![
        (
            "poisson/periodic/basic-li",
            ArrivalSpec::Poisson,
            InfoSpec::Periodic { period: 10.0 },
            PolicySpec::BasicLi { lambda: 0.9 },
            FaultSpec::none(),
        ),
        (
            "poisson/fresh/random",
            ArrivalSpec::Poisson,
            InfoSpec::Fresh,
            PolicySpec::Random,
            FaultSpec::none(),
        ),
        (
            "mmpp/periodic/gated-li",
            ArrivalSpec::Mmpp {
                rate_ratio: 1.4444444444444444,
                high_fraction: 0.2,
                cycle_mean: 200.0,
            },
            InfoSpec::Periodic { period: 10.0 },
            PolicySpec::Gated {
                cutoff: 1.5,
                inner: Box::new(PolicySpec::BasicLi { lambda: 0.9 }),
            },
            FaultSpec::none(),
        ),
        (
            "poisson/periodic/greedy+crash",
            ArrivalSpec::Poisson,
            InfoSpec::Periodic { period: 5.0 },
            PolicySpec::Greedy,
            FaultSpec::crash(300.0, 20.0),
        ),
        (
            "poisson/periodic/k2+drop",
            ArrivalSpec::Poisson,
            InfoSpec::Periodic { period: 5.0 },
            PolicySpec::KSubset { k: 2 },
            FaultSpec::drop(0.5),
        ),
    ]
}

/// (combo label, seed, mean_response bits, end_time bits), captured before
/// the overload control plane was added.
const GOLDEN: [(&str, u64, u64, u64); 15] = [
    (
        "poisson/periodic/basic-li",
        1,
        0x40150c767ce3ef33,
        0x4095e715aba36d4c,
    ),
    (
        "poisson/periodic/basic-li",
        2,
        0x40138b22a7c4eaf2,
        0x40960994cbf6dc7e,
    ),
    (
        "poisson/periodic/basic-li",
        3,
        0x4014bb70467252db,
        0x4095c5957985e425,
    ),
    (
        "poisson/fresh/random",
        1,
        0x402215b7e6d4a81f,
        0x40963116ed48f090,
    ),
    (
        "poisson/fresh/random",
        2,
        0x40227c4cd0b003f1,
        0x40962a060d59dec2,
    ),
    (
        "poisson/fresh/random",
        3,
        0x402479f7e99b8c49,
        0x40964177de474959,
    ),
    (
        "mmpp/periodic/gated-li",
        1,
        0x401ff1365c2215cf,
        0x40962ddee51eadce,
    ),
    (
        "mmpp/periodic/gated-li",
        2,
        0x402229cc3e39b681,
        0x40962b922b384699,
    ),
    (
        "mmpp/periodic/gated-li",
        3,
        0x402372e6e549b22e,
        0x4095c3e2e148f02f,
    ),
    (
        "poisson/periodic/greedy+crash",
        1,
        0x403e383df10e1e37,
        0x40977e6e8273fa68,
    ),
    (
        "poisson/periodic/greedy+crash",
        2,
        0x403bdd2967b9635c,
        0x40971575514e32e5,
    ),
    (
        "poisson/periodic/greedy+crash",
        3,
        0x403a32595b01a683,
        0x4097bb51eabe87dd,
    ),
    (
        "poisson/periodic/k2+drop",
        1,
        0x401bddcc4fddd063,
        0x4095f6eaecce48e9,
    ),
    (
        "poisson/periodic/k2+drop",
        2,
        0x401b1b1dc511c43a,
        0x409629f2b86dcf44,
    ),
    (
        "poisson/periodic/k2+drop",
        3,
        0x401b36538c3b28c5,
        0x4095cef25b57f0db,
    ),
];

/// Overload-control knobs layered onto a combo (the control-plane matrix).
#[derive(Debug, Clone, Copy, Default)]
struct Controls {
    queue_cap: Option<u32>,
    deadline: Option<f64>,
    retry: Option<RetrySpec>,
}

/// The {faults, queue-cap, retry, guard} matrix: one combo per control
/// feature, each exercising a different engine queue (departures only;
/// + reneges; + orbit) and RNG stream.
fn control_combos() -> Vec<(
    &'static str,
    ArrivalSpec,
    InfoSpec,
    PolicySpec,
    FaultSpec,
    Controls,
)> {
    let crash_and_drop = {
        let mut f = FaultSpec::crash(250.0, 25.0);
        f.loss = FaultSpec::drop(0.3).loss;
        f
    };
    vec![
        (
            "controls/faults+gate",
            ArrivalSpec::Poisson,
            InfoSpec::Periodic { period: 10.0 },
            PolicySpec::Gated {
                cutoff: 20.0,
                inner: Box::new(PolicySpec::BasicLi { lambda: 0.9 }),
            },
            crash_and_drop,
            Controls::default(),
        ),
        (
            "controls/queue-cap",
            ArrivalSpec::Poisson,
            InfoSpec::Fresh,
            PolicySpec::Random,
            FaultSpec::none(),
            Controls {
                queue_cap: Some(4),
                ..Controls::default()
            },
        ),
        (
            "controls/retry-orbit",
            ArrivalSpec::Poisson,
            InfoSpec::Periodic { period: 5.0 },
            PolicySpec::BasicLi { lambda: 0.9 },
            FaultSpec::none(),
            Controls {
                queue_cap: Some(3),
                deadline: Some(2.0),
                retry: Some(RetrySpec {
                    max_attempts: 4,
                    base: 0.25,
                    cap: 4.0,
                }),
            },
        ),
        (
            "controls/herd-guard",
            ArrivalSpec::Poisson,
            InfoSpec::Periodic { period: 30.0 },
            PolicySpec::Guarded {
                threshold: 2.0,
                cooldown: 50.0,
                inner: Box::new(PolicySpec::Greedy),
            },
            FaultSpec::none(),
            Controls::default(),
        ),
        // A cutoff of 1.5 periods: a dropped entry ages past it half-way
        // through an epoch, so the gate re-keys Basic LI's per-epoch cache
        // mid-epoch.
        (
            "controls/drop+gate-mid-epoch",
            ArrivalSpec::Poisson,
            InfoSpec::Periodic { period: 10.0 },
            PolicySpec::Gated {
                cutoff: 15.0,
                inner: Box::new(PolicySpec::BasicLi { lambda: 0.9 }),
            },
            FaultSpec::drop(0.5),
            Controls::default(),
        ),
    ]
}

fn run_combo(
    arrivals: &ArrivalSpec,
    info: &InfoSpec,
    policy: &PolicySpec,
    faults: FaultSpec,
    controls: Controls,
    seed: u64,
) -> RunResult {
    let mut builder = SimConfig::builder();
    builder
        .servers(16)
        .lambda(0.9)
        .arrivals(20_000)
        .seed(seed)
        .faults(faults);
    if let Some(cap) = controls.queue_cap {
        builder.queue_cap(cap);
    }
    if let Some(d) = controls.deadline {
        builder.deadline(d);
    }
    if let Some(r) = controls.retry {
        builder.retry(r);
    }
    run_simulation(&builder.build(), arrivals, info, policy).expect("valid config")
}

#[test]
fn default_path_replays_pre_control_plane_bits() {
    for (label, arrivals, info, policy, faults) in combos() {
        for seed in 1..=3u64 {
            let cfg = SimConfig::builder()
                .servers(16)
                .lambda(0.9)
                .arrivals(20_000)
                .seed(seed)
                .faults(faults)
                .build();
            let r = run_simulation(&cfg, &arrivals, &info, &policy).expect("valid config");
            let (_, _, mean_bits, end_bits) = *GOLDEN
                .iter()
                .find(|(l, s, _, _)| *l == label && *s == seed)
                .expect("every combo/seed pair has a golden entry");
            assert_eq!(
                r.mean_response.to_bits(),
                mean_bits,
                "{label} seed {seed}: mean_response drifted from golden \
                 ({} vs bits {mean_bits:#018x})",
                r.mean_response,
            );
            assert_eq!(
                r.end_time.to_bits(),
                end_bits,
                "{label} seed {seed}: end_time drifted from golden \
                 ({} vs bits {end_bits:#018x})",
                r.end_time,
            );
            assert!(
                r.overload.is_zero(),
                "{label} seed {seed}: controls unset must report zero overload stats"
            );
        }
    }
}

/// (combo label, seed, mean_response bits, end_time bits) for the
/// control-plane matrix, captured from the heap backend (ISSUE 3). To
/// regenerate after an *intentional* trajectory change, run
/// `cargo test --test golden_trajectories -- --ignored --nocapture`
/// and paste the printed array.
const CONTROL_GOLDEN: [(&str, u64, u64, u64); 15] = [
    (
        "controls/faults+gate",
        1,
        0x40334f32d7070f36,
        0x4096ac45ec8078bf,
    ),
    (
        "controls/faults+gate",
        2,
        0x403108626548de84,
        0x4096f6806865d93d,
    ),
    (
        "controls/faults+gate",
        3,
        0x4037f5a4722477de,
        0x409706d0d815ac9e,
    ),
    (
        "controls/queue-cap",
        1,
        0x4002e8c7bb316a5a,
        0x4095d20c40bd189c,
    ),
    (
        "controls/queue-cap",
        2,
        0x4002d3fef1aa1fb8,
        0x4095ee91958a4b71,
    ),
    (
        "controls/queue-cap",
        3,
        0x4002d0eb313a5cff,
        0x4095aea3b5497fc8,
    ),
    (
        "controls/retry-orbit",
        1,
        0x4003744eb9893302,
        0x4095d6905049037b,
    ),
    (
        "controls/retry-orbit",
        2,
        0x40039af939ed6c92,
        0x4095f1eee0096828,
    ),
    (
        "controls/retry-orbit",
        3,
        0x400398a5e1fa4be3,
        0x4095afcd73bf93dc,
    ),
    (
        "controls/herd-guard",
        1,
        0x4043f726f9f6aecb,
        0x409970f01469eed8,
    ),
    (
        "controls/herd-guard",
        2,
        0x404acca7d1b6d972,
        0x4098680447e8927b,
    ),
    (
        "controls/herd-guard",
        3,
        0x40472d06458d0814,
        0x4098af55403afde4,
    ),
    (
        "controls/drop+gate-mid-epoch",
        1,
        0x40324a451a51a0c0,
        0x40962b4aff5e092e,
    ),
    (
        "controls/drop+gate-mid-epoch",
        2,
        0x403067258971408e,
        0x409667d57b881c68,
    ),
    (
        "controls/drop+gate-mid-epoch",
        3,
        0x4031f25d317c8749,
        0x40961a9396c79b0a,
    ),
];

/// The control-plane matrix replays its pinned heap-backend bits.
#[test]
fn control_plane_matrix_replays_pinned_bits() {
    for (label, arrivals, info, policy, faults, controls) in control_combos() {
        for seed in 1..=3u64 {
            let r = run_combo(&arrivals, &info, &policy, faults, controls, seed);
            let (_, _, mean_bits, end_bits) = *CONTROL_GOLDEN
                .iter()
                .find(|(l, s, _, _)| *l == label && *s == seed)
                .expect("every control combo/seed pair has a golden entry");
            assert_eq!(
                r.mean_response.to_bits(),
                mean_bits,
                "{label} seed {seed}: mean_response drifted from golden \
                 ({} vs bits {mean_bits:#018x})",
                r.mean_response,
            );
            assert_eq!(
                r.end_time.to_bits(),
                end_bits,
                "{label} seed {seed}: end_time drifted from golden \
                 ({} vs bits {end_bits:#018x})",
                r.end_time,
            );
        }
    }
}

/// The tail-latency estimator matrix: EWMA and multi-horizon boards on
/// the default config. 20k arrivals exceed the default sketch capacity,
/// so these pins also cover the compacted quantile path.
fn tail_combos() -> Vec<(
    &'static str,
    ArrivalSpec,
    InfoSpec,
    PolicySpec,
    FaultSpec,
    Controls,
)> {
    vec![
        (
            "tails/ewma",
            ArrivalSpec::Poisson,
            InfoSpec::Ewma {
                period: 10.0,
                alpha: 0.3,
            },
            PolicySpec::BasicLi { lambda: 0.9 },
            FaultSpec::none(),
            Controls::default(),
        ),
        (
            "tails/multi-horizon",
            ArrivalSpec::Poisson,
            InfoSpec::MultiHorizon {
                period: 10.0,
                windows: [10.0, 30.0, 70.0],
            },
            PolicySpec::BasicLi { lambda: 0.9 },
            FaultSpec::none(),
            Controls::default(),
        ),
    ]
}

/// (combo label, seed, mean_response bits, p999 bits) for the estimator
/// matrix, captured from the heap backend (ISSUE 8). Regenerate with the
/// `print_tail_golden_bits` capture helper after intentional changes.
const TAIL_GOLDEN: [(&str, u64, u64, u64); 6] = [
    ("tails/ewma", 1, 0x401864948ee4cf0d, 0x403a5f8c5a0d9fe5),
    ("tails/ewma", 2, 0x40175880aaf540e0, 0x404093e5fcbc38dd),
    ("tails/ewma", 3, 0x40198b98afa797cb, 0x4038d8438c3dac40),
    (
        "tails/multi-horizon",
        1,
        0x401602b68f045c0f,
        0x4038994a7ba4fba3,
    ),
    (
        "tails/multi-horizon",
        2,
        0x401550189d7e8f57,
        0x403998fc78829364,
    ),
    (
        "tails/multi-horizon",
        3,
        0x4017611980ff2f38,
        0x40381d359dd297e0,
    ),
];

/// The estimator matrix replays its pinned bits — mean *and* the sketch's
/// p999, so a drift anywhere in the sketch ingest/compaction path fails.
#[test]
fn estimator_matrix_replays_pinned_bits() {
    for (label, arrivals, info, policy, faults, controls) in tail_combos() {
        for seed in 1..=3u64 {
            let r = run_combo(&arrivals, &info, &policy, faults, controls, seed);
            let (_, _, mean_bits, p999_bits) = *TAIL_GOLDEN
                .iter()
                .find(|(l, s, _, _)| *l == label && *s == seed)
                .expect("every tail combo/seed pair has a golden entry");
            assert_eq!(
                r.mean_response.to_bits(),
                mean_bits,
                "{label} seed {seed}: mean_response drifted from golden \
                 ({} vs bits {mean_bits:#018x})",
                r.mean_response,
            );
            let p999 = r.detail.response_quantile(0.999);
            assert_eq!(
                p999.to_bits(),
                p999_bits,
                "{label} seed {seed}: sketch p999 drifted from golden \
                 ({p999} vs bits {p999_bits:#018x})",
            );
        }
    }
}

/// Capture helper (not a regression test): prints the TAIL_GOLDEN array
/// body from the current engine.
#[test]
#[ignore = "capture helper; run with --ignored --nocapture to regenerate TAIL_GOLDEN"]
fn print_tail_golden_bits() {
    for (label, arrivals, info, policy, faults, controls) in tail_combos() {
        for seed in 1..=3u64 {
            let r = run_combo(&arrivals, &info, &policy, faults, controls, seed);
            println!(
                "    (\"{label}\", {seed}, {:#018x}, {:#018x}),",
                r.mean_response.to_bits(),
                r.detail.response_quantile(0.999).to_bits(),
            );
        }
    }
}

/// The board report-path matrix: the individual board and delayed
/// channels (`delay_mean > 0`), which no other pin runs, plus corruption
/// and partitions on both boards and crashes on the estimator boards.
/// Each board and fault set runs under Basic LI, Greedy and k = 2.
fn board_combos() -> Vec<(String, InfoSpec, PolicySpec, FaultSpec)> {
    let individual = InfoSpec::Individual { period: 5.0 };
    let periodic = InfoSpec::Periodic { period: 5.0 };
    let ewma = InfoSpec::Ewma {
        period: 5.0,
        alpha: 0.3,
    };
    let multi_horizon = InfoSpec::MultiHorizon {
        period: 5.0,
        windows: [5.0, 15.0, 35.0],
    };
    let lossy = "drop:0.3,delay:2";
    let corrupt = "drop:0.3,delay:2,corrupt:0.2";
    let all = "drop:0.3,delay:2,corrupt:0.2,partition:40:20:0.25";
    let boards = [
        ("individual/lossy", individual, lossy),
        ("individual/lossy+corrupt", individual, corrupt),
        ("individual/lossy+corrupt+partition", individual, all),
        ("individual/crash+drop", individual, "crash:250:25,drop:0.3"),
        ("periodic/lossy", periodic, lossy),
        ("periodic/lossy+corrupt+partition", periodic, all),
        ("ewma/crash", ewma, "crash:250:25"),
        ("multi-horizon/crash", multi_horizon, "crash:250:25"),
    ];
    let policies = [
        ("basic-li", PolicySpec::BasicLi { lambda: 0.8 }),
        ("greedy", PolicySpec::Greedy),
        ("k2", PolicySpec::KSubset { k: 2 }),
    ];
    let mut combos = Vec::new();
    for (board, info, faults) in boards {
        let faults: FaultSpec = faults.parse().expect("valid fault clauses");
        for (name, policy) in &policies {
            combos.push((format!("{board}/{name}"), info, policy.clone(), faults));
        }
    }
    combos
}

fn run_board(info: &InfoSpec, policy: &PolicySpec, faults: FaultSpec) -> RunResult {
    let cfg = SimConfig::builder()
        .servers(12)
        .lambda(0.8)
        .arrivals(40_000)
        .seed(99)
        .faults(faults)
        .build();
    run_simulation(&cfg, &ArrivalSpec::Poisson, info, policy).expect("valid config")
}

/// (mean_response bits, p99 bits, corrupted reports) for the board
/// matrix, in `board_combos` order. Regenerate with the
/// `print_board_golden_bits` capture helper after intentional changes.
const BOARD_GOLDEN: [(u64, u64, u64); 24] = [
    (0x400f0cb872f41802, 0x402de9fea9918545, 0), // individual/lossy/basic-li
    (0x402ef3b08c63658e, 0x4050f7d73a691d8e, 0), // individual/lossy/greedy
    (0x401107dba411f3ab, 0x403105c196281a15, 0), // individual/lossy/k2
    (0x4012786db3763017, 0x40339120dd4931d1, 2003), // individual/lossy+corrupt/basic-li
    (0x40302489186e39a7, 0x4051a837d497ebe5, 2012), // individual/lossy+corrupt/greedy
    (0x4012c8216de8eb96, 0x4033c3383ba8a587, 2006), // individual/lossy+corrupt/k2
    (0x4012d7c25efa9a49, 0x403428e8f427671b, 1835), // individual/lossy+corrupt+partition/basic-li
    (0x40371c5c0f3a7e3b, 0x405ed370ed65ed7e, 1842), // individual/lossy+corrupt+partition/greedy
    (0x4014a087089503d5, 0x4038994a7ba4fba3, 1835), // individual/lossy+corrupt+partition/k2
    (0x4016f33c55f36aee, 0x403c4692d4c89814, 0), // individual/crash+drop/basic-li
    (0x4031a5e2184d0e12, 0x40575485f8ccf6ba, 0), // individual/crash+drop/greedy
    (0x40174a03c051011b, 0x403e50bb095f89ce, 0), // individual/crash+drop/k2
    (0x400ff6ae0361c2ee, 0x402f70a125146d26, 0), // periodic/lossy/basic-li
    (0x402e7d623fe9708e, 0x404e6af99671b5c3, 0), // periodic/lossy/greedy
    (0x4010b6b7c01e96e4, 0x40308598612544ff, 0), // periodic/lossy/k2
    (0x4017024a21991975, 0x403ae7411e5225e2, 1835), // periodic/lossy+corrupt+partition/basic-li
    (0x4035433ef414d634, 0x405c779d0ce0bde0, 1842), // periodic/lossy+corrupt+partition/greedy
    (0x4014eaf17d73bfb2, 0x40385af1085c6118, 1824), // periodic/lossy+corrupt+partition/k2
    (0x401f44f9f115307e, 0x404a76613e0df5f4, 0), // ewma/crash/basic-li
    (0x40364cc355ee5f3c, 0x4055c2ae2ac0b521, 0), // ewma/crash/greedy
    (0x4017b358b5f921d4, 0x403b71b02cad7347, 0), // ewma/crash/k2
    (0x4013b6a34327a923, 0x4034fa76af8587dc, 0), // multi-horizon/crash/basic-li
    (0x4036155acd0dfc5e, 0x4056ded74d49ea9f, 0), // multi-horizon/crash/greedy
    (0x40190e45a48746b0, 0x40430e40735bfaf4, 0), // multi-horizon/crash/k2
];

/// The board matrix replays its pinned bits and corruption counts.
#[test]
fn board_matrix_replays_pinned_bits() {
    let combos = board_combos();
    assert_eq!(combos.len(), BOARD_GOLDEN.len());
    for ((label, info, policy, faults), &(mean_bits, p99_bits, corrupted)) in
        combos.into_iter().zip(&BOARD_GOLDEN)
    {
        let r = run_board(&info, &policy, faults);
        assert_eq!(
            r.mean_response.to_bits(),
            mean_bits,
            "{label}: mean_response drifted from golden \
             ({} vs bits {mean_bits:#018x})",
            r.mean_response,
        );
        let p99 = r.detail.response_quantile(0.99);
        assert_eq!(
            p99.to_bits(),
            p99_bits,
            "{label}: p99 drifted from golden ({p99} vs bits {p99_bits:#018x})",
        );
        assert_eq!(r.resilience.corrupted_reports, corrupted, "{label}");
    }
}

/// Capture helper (not a regression test): prints the BOARD_GOLDEN array
/// body from the current engine.
#[test]
#[ignore = "capture helper; run with --ignored --nocapture to regenerate BOARD_GOLDEN"]
fn print_board_golden_bits() {
    for (label, info, policy, faults) in board_combos() {
        let r = run_board(&info, &policy, faults);
        println!(
            "    ({:#018x}, {:#018x}, {}), // {label}",
            r.mean_response.to_bits(),
            r.detail.response_quantile(0.99).to_bits(),
            r.resilience.corrupted_reports,
        );
    }
}

/// Capture helper (not a regression test): prints the CONTROL_GOLDEN array
/// body from the current engine.
#[test]
#[ignore = "capture helper; run with --ignored --nocapture to regenerate CONTROL_GOLDEN"]
fn print_control_golden_bits() {
    for (label, arrivals, info, policy, faults, controls) in control_combos() {
        for seed in 1..=3u64 {
            let r = run_combo(&arrivals, &info, &policy, faults, controls, seed);
            println!(
                "    (\n        \"{label}\",\n        {seed},\n        {:#018x},\n        {:#018x},\n    ),",
                r.mean_response.to_bits(),
                r.end_time.to_bits(),
            );
        }
    }
}

/// The delayed-view matrix: each continuous-update delay under both kinds
/// of age knowledge, and update-on-access with Poisson and with bursty
/// clients, each under the four LI policies that read aged views; plus
/// periodic Aggressive LI. Every arrival here interprets its own aged view,
/// so these pins cover the load history and the LI math outside the
/// per-phase cache.
fn delayed_combos() -> Vec<(String, ArrivalSpec, InfoSpec, PolicySpec)> {
    const MEAN_AGE: f64 = 2.0;
    let mut views: Vec<(String, ArrivalSpec, InfoSpec)> = Vec::new();
    let delays = [
        DelaySpec::Constant { mean: MEAN_AGE },
        DelaySpec::UniformNarrow { mean: MEAN_AGE },
        DelaySpec::UniformWide { mean: MEAN_AGE },
        DelaySpec::Exponential { mean: MEAN_AGE },
    ];
    for delay in delays {
        for (knowledge, tag) in [
            (AgeKnowledge::MeanOnly, "mean"),
            (AgeKnowledge::Actual, "actual"),
        ] {
            views.push((
                format!("continuous/{}/{tag}", delay.label()),
                ArrivalSpec::Poisson,
                InfoSpec::Continuous { delay, knowledge },
            ));
        }
    }
    let clients = clients_for_mean_age(0.9, 16, MEAN_AGE);
    views.push((
        "uoa/poisson".to_string(),
        ArrivalSpec::PoissonClients { clients },
        InfoSpec::UpdateOnAccess,
    ));
    views.push((
        "uoa/bursty".to_string(),
        ArrivalSpec::BurstyClients {
            clients,
            burst: BurstConfig {
                burst_len: 10,
                intra_gap_mean: 1.0,
            },
        },
        InfoSpec::UpdateOnAccess,
    ));
    let policies = [
        ("basic-li", PolicySpec::BasicLi { lambda: 0.9 }),
        ("aggressive-li", PolicySpec::AggressiveLi { lambda: 0.9 }),
        ("li-subset-3", PolicySpec::LiSubset { k: 3, lambda: 0.9 }),
        (
            "adaptive-li",
            PolicySpec::AdaptiveLi {
                alpha: 0.01,
                warmup: 1000,
            },
        ),
    ];
    let mut combos = Vec::new();
    for (view_label, arrivals, info) in &views {
        for (policy_label, policy) in &policies {
            combos.push((
                format!("{view_label}/{policy_label}"),
                *arrivals,
                *info,
                policy.clone(),
            ));
        }
    }
    combos.push((
        "periodic/aggressive-li".to_string(),
        ArrivalSpec::Poisson,
        InfoSpec::Periodic { period: 10.0 },
        PolicySpec::AggressiveLi { lambda: 0.9 },
    ));
    combos
}

fn run_delayed(
    arrivals: &ArrivalSpec,
    info: &InfoSpec,
    policy: &PolicySpec,
    seed: u64,
) -> RunResult {
    let cfg = SimConfig::builder()
        .servers(16)
        .lambda(0.9)
        .arrivals(20_000)
        .seed(seed)
        .build();
    run_simulation(&cfg, arrivals, info, policy).expect("valid config")
}

/// (combo label, seed, mean_response bits, end_time bits, history misses)
/// for the delayed-view matrix. Regenerate with the
/// `print_delayed_golden_bits` capture helper after intentional changes.
#[rustfmt::skip]
const DELAYED_GOLDEN: [(&str, u64, u64, u64, u64); 123] = [
    ("continuous/constant/mean/basic-li", 1, 0x400f17815c9b352e, 0x4095e73fa1cad6c6, 0),
    ("continuous/constant/mean/basic-li", 2, 0x400e6e5d3c98bc03, 0x4095fa3b33de8a03, 0),
    ("continuous/constant/mean/basic-li", 3, 0x400ee2608bd1fe3e, 0x4095c308bbb9ceaa, 0),
    ("continuous/constant/mean/aggressive-li", 1, 0x4010d87677d212e7, 0x4095e120e4777a8f, 0),
    ("continuous/constant/mean/aggressive-li", 2, 0x40106e0f0cb6f0df, 0x4095fbf58405d2db, 0),
    ("continuous/constant/mean/aggressive-li", 3, 0x4010ce3a8867202d, 0x4095b5cefc6b637e, 0),
    ("continuous/constant/mean/li-subset-3", 1, 0x400f7a0e5b088548, 0x4095e4b016ea7078, 0),
    ("continuous/constant/mean/li-subset-3", 2, 0x400eaf9e8cdd9f20, 0x409603d54e1a6180, 0),
    ("continuous/constant/mean/li-subset-3", 3, 0x400f181d430c6232, 0x4095b76aa9b14872, 0),
    ("continuous/constant/mean/adaptive-li", 1, 0x400f3faa575f3813, 0x4095e1db9b7a4217, 0),
    ("continuous/constant/mean/adaptive-li", 2, 0x400e8f9ee00509b6, 0x4095f81a75b13a94, 0),
    ("continuous/constant/mean/adaptive-li", 3, 0x400f447e96745901, 0x4095bd9c1c425538, 0),
    ("continuous/constant/actual/basic-li", 1, 0x400f17815c9b352e, 0x4095e73fa1cad6c6, 0),
    ("continuous/constant/actual/basic-li", 2, 0x400e6e5d3c98bc03, 0x4095fa3b33de8a03, 0),
    ("continuous/constant/actual/basic-li", 3, 0x400ee2608bd1fe3e, 0x4095c308bbb9ceaa, 0),
    ("continuous/constant/actual/aggressive-li", 1, 0x4010d87677d212e7, 0x4095e120e4777a8f, 0),
    ("continuous/constant/actual/aggressive-li", 2, 0x40106e0f0cb6f0df, 0x4095fbf58405d2db, 0),
    ("continuous/constant/actual/aggressive-li", 3, 0x4010ce3a8867202d, 0x4095b5cefc6b637e, 0),
    ("continuous/constant/actual/li-subset-3", 1, 0x400f7a0e5b088548, 0x4095e4b016ea7078, 0),
    ("continuous/constant/actual/li-subset-3", 2, 0x400eaf9e8cdd9f20, 0x409603d54e1a6180, 0),
    ("continuous/constant/actual/li-subset-3", 3, 0x400f181d430c6232, 0x4095b76aa9b14872, 0),
    ("continuous/constant/actual/adaptive-li", 1, 0x400f3faa575f3813, 0x4095e1db9b7a4217, 0),
    ("continuous/constant/actual/adaptive-li", 2, 0x400e8f9ee00509b6, 0x4095f81a75b13a94, 0),
    ("continuous/constant/actual/adaptive-li", 3, 0x400f447e96745901, 0x4095bd9c1c425538, 0),
    ("continuous/uniform(T/2,3T/2)/mean/basic-li", 1, 0x400ef4e2ee493be0, 0x4095dc8ad29a876b, 0),
    ("continuous/uniform(T/2,3T/2)/mean/basic-li", 2, 0x400df6b4728cf35e, 0x4095fd8105615a5a, 0),
    ("continuous/uniform(T/2,3T/2)/mean/basic-li", 3, 0x400e689e88907c67, 0x4095bf045bef4bb6, 0),
    ("continuous/uniform(T/2,3T/2)/mean/aggressive-li", 1, 0x4010f82780ff84ea, 0x4095da6db7952076, 0),
    ("continuous/uniform(T/2,3T/2)/mean/aggressive-li", 2, 0x40100e2de28fdb2c, 0x409602d6522dfbab, 0),
    ("continuous/uniform(T/2,3T/2)/mean/aggressive-li", 3, 0x4010af252ecb60e7, 0x4095b6135c9def9a, 0),
    ("continuous/uniform(T/2,3T/2)/mean/li-subset-3", 1, 0x400f4e41280e2b19, 0x4095df3594e047a3, 0),
    ("continuous/uniform(T/2,3T/2)/mean/li-subset-3", 2, 0x400e0c6d5fcf8ad3, 0x4096024cbc4f7b2b, 0),
    ("continuous/uniform(T/2,3T/2)/mean/li-subset-3", 3, 0x400ebd6bba25293e, 0x4095b672d776139a, 0),
    ("continuous/uniform(T/2,3T/2)/mean/adaptive-li", 1, 0x400efcb751e550e9, 0x4095eed9dbfa75c3, 0),
    ("continuous/uniform(T/2,3T/2)/mean/adaptive-li", 2, 0x400de8a34cb39808, 0x409604b0dcd4809d, 0),
    ("continuous/uniform(T/2,3T/2)/mean/adaptive-li", 3, 0x400e542a921ac53b, 0x4095be6bcaa26e08, 0),
    ("continuous/uniform(T/2,3T/2)/actual/basic-li", 1, 0x400ec224710c7027, 0x4095e8ba59659ab9, 0),
    ("continuous/uniform(T/2,3T/2)/actual/basic-li", 2, 0x400d7cb23247529e, 0x4095f574f781a0ce, 0),
    ("continuous/uniform(T/2,3T/2)/actual/basic-li", 3, 0x400e185e7fbd5a4a, 0x4095ca6875d9d9ab, 0),
    ("continuous/uniform(T/2,3T/2)/actual/aggressive-li", 1, 0x4010a157a9c172dc, 0x4095dc1c7bebd7f2, 0),
    ("continuous/uniform(T/2,3T/2)/actual/aggressive-li", 2, 0x400f7b5cca263164, 0x4095ffce99b5e232, 0),
    ("continuous/uniform(T/2,3T/2)/actual/aggressive-li", 3, 0x40105bc3f06141dd, 0x4095ba836d456e27, 0),
    ("continuous/uniform(T/2,3T/2)/actual/li-subset-3", 1, 0x400f2d2a29ba3e5c, 0x4095e88ea9209f1d, 0),
    ("continuous/uniform(T/2,3T/2)/actual/li-subset-3", 2, 0x400e23ddb5927c1b, 0x40960260fbdb0d3a, 0),
    ("continuous/uniform(T/2,3T/2)/actual/li-subset-3", 3, 0x400e35e96cca85b9, 0x4095ba54c310173f, 0),
    ("continuous/uniform(T/2,3T/2)/actual/adaptive-li", 1, 0x400ece61c51aa211, 0x4095d8651f5948e8, 0),
    ("continuous/uniform(T/2,3T/2)/actual/adaptive-li", 2, 0x400da58a605d81cc, 0x4095fb898dbfa26a, 0),
    ("continuous/uniform(T/2,3T/2)/actual/adaptive-li", 3, 0x400e03e58d784cf9, 0x4095c6d9bf72dbc4, 0),
    ("continuous/uniform(0,2T)/mean/basic-li", 1, 0x400dd3018ab04466, 0x4095d6613579bc6f, 0),
    ("continuous/uniform(0,2T)/mean/basic-li", 2, 0x400c5502528d53d7, 0x4095f2bd6d4dd003, 0),
    ("continuous/uniform(0,2T)/mean/basic-li", 3, 0x400d66cf37bd8783, 0x4095c5f8c534baa2, 0),
    ("continuous/uniform(0,2T)/mean/aggressive-li", 1, 0x40112ba928a60ad3, 0x4095d875c691f36e, 0),
    ("continuous/uniform(0,2T)/mean/aggressive-li", 2, 0x400ffe98d27f1a7e, 0x40961662f7f83755, 0),
    ("continuous/uniform(0,2T)/mean/aggressive-li", 3, 0x40104d9d67fe2dae, 0x4095bce686735934, 0),
    ("continuous/uniform(0,2T)/mean/li-subset-3", 1, 0x400dfee5e349ec5a, 0x4095e74c1b9b1bb2, 0),
    ("continuous/uniform(0,2T)/mean/li-subset-3", 2, 0x400d30ed4c5c155e, 0x40960377476fc88d, 0),
    ("continuous/uniform(0,2T)/mean/li-subset-3", 3, 0x400e0b8c1f93a409, 0x4095b97c651045ab, 0),
    ("continuous/uniform(0,2T)/mean/adaptive-li", 1, 0x400d9e1324d527a1, 0x4095d3151dd99909, 0),
    ("continuous/uniform(0,2T)/mean/adaptive-li", 2, 0x400c53200c1af887, 0x4095f7f34bac5c70, 0),
    ("continuous/uniform(0,2T)/mean/adaptive-li", 3, 0x400d2a8598383888, 0x4095c3088ad0fe29, 0),
    ("continuous/uniform(0,2T)/actual/basic-li", 1, 0x400ad3860a817712, 0x4095db31627bdede, 0),
    ("continuous/uniform(0,2T)/actual/basic-li", 2, 0x4009d02fabbb106e, 0x4095f7d69fc17324, 0),
    ("continuous/uniform(0,2T)/actual/basic-li", 3, 0x400a2617f60ff827, 0x4095b8e4dd1a8b4d, 0),
    ("continuous/uniform(0,2T)/actual/aggressive-li", 1, 0x400cba628832bfee, 0x4095d670b3f3835e, 0),
    ("continuous/uniform(0,2T)/actual/aggressive-li", 2, 0x400b661a15dee2a6, 0x4096004dff06decb, 0),
    ("continuous/uniform(0,2T)/actual/aggressive-li", 3, 0x400bb91ce081d28d, 0x4095b4011351e643, 0),
    ("continuous/uniform(0,2T)/actual/li-subset-3", 1, 0x400dba986e120846, 0x4095d8584ec02d35, 0),
    ("continuous/uniform(0,2T)/actual/li-subset-3", 2, 0x400bf9dbcd85b9d1, 0x4095fee828c239ce, 0),
    ("continuous/uniform(0,2T)/actual/li-subset-3", 3, 0x400c56a22ed46b45, 0x4095b7c0259a8714, 0),
    ("continuous/uniform(0,2T)/actual/adaptive-li", 1, 0x400b2d5764320daa, 0x4095d9816ce29ea7, 0),
    ("continuous/uniform(0,2T)/actual/adaptive-li", 2, 0x4009e0873ed2afe8, 0x4096060326d9690e, 0),
    ("continuous/uniform(0,2T)/actual/adaptive-li", 3, 0x400a3e31ace862f9, 0x4095b1f792e97d67, 0),
    ("continuous/exponential/mean/basic-li", 1, 0x400c028317d8baf2, 0x4095dc7d505d5608, 0),
    ("continuous/exponential/mean/basic-li", 2, 0x400a698dfa6eadd1, 0x4095fe0c73350a2d, 0),
    ("continuous/exponential/mean/basic-li", 3, 0x400b46a0237e5cb9, 0x4095b57e2b45baa7, 0),
    ("continuous/exponential/mean/aggressive-li", 1, 0x4010ced9a8ea7196, 0x4095dab7d9ccf026, 0),
    ("continuous/exponential/mean/aggressive-li", 2, 0x4010474813912137, 0x4095fe04e0ff1afa, 0),
    ("continuous/exponential/mean/aggressive-li", 3, 0x40102e2cbfd09cd2, 0x4095c5b2c904831d, 0),
    ("continuous/exponential/mean/li-subset-3", 1, 0x400cfdbe3fe37671, 0x4095d9b1761bb2d9, 0),
    ("continuous/exponential/mean/li-subset-3", 2, 0x400ca713b70a2fe7, 0x4095fd7e11252c78, 0),
    ("continuous/exponential/mean/li-subset-3", 3, 0x400cfe9e0664c056, 0x4095addda80d7fd6, 0),
    ("continuous/exponential/mean/adaptive-li", 1, 0x400bebd033466e0e, 0x4095dbcfa7fb999c, 0),
    ("continuous/exponential/mean/adaptive-li", 2, 0x400af8dc822b67b3, 0x40960249d5673ff3, 0),
    ("continuous/exponential/mean/adaptive-li", 3, 0x400b274d9b99a84a, 0x4095b726a93ac7d1, 0),
    ("continuous/exponential/actual/basic-li", 1, 0x40083b3a2f51b439, 0x4095da29aabb37b7, 0),
    ("continuous/exponential/actual/basic-li", 2, 0x400761bef5f4f753, 0x4095f1e8aa5ae442, 0),
    ("continuous/exponential/actual/basic-li", 3, 0x4007e547efd18f36, 0x4095b1e68c9118c9, 0),
    ("continuous/exponential/actual/aggressive-li", 1, 0x4009ee40c3c182f4, 0x4095d6d678186b1f, 0),
    ("continuous/exponential/actual/aggressive-li", 2, 0x400895e475c3363c, 0x4095fab59414614e, 0),
    ("continuous/exponential/actual/aggressive-li", 3, 0x400910cfb405eb8e, 0x4095b4cdb58badc7, 0),
    ("continuous/exponential/actual/li-subset-3", 1, 0x400b5934fb9a8154, 0x4095db14dd506e8a, 0),
    ("continuous/exponential/actual/li-subset-3", 2, 0x400a31fcb02f01cc, 0x4095f6ebb731fdc4, 0),
    ("continuous/exponential/actual/li-subset-3", 3, 0x400adaecac787bd6, 0x4095af15ba08aead, 0),
    ("continuous/exponential/actual/adaptive-li", 1, 0x400890ecf40e19d0, 0x4095d4c7f542f2e1, 0),
    ("continuous/exponential/actual/adaptive-li", 2, 0x400771ad918dee20, 0x4095fc405ddcc39e, 0),
    ("continuous/exponential/actual/adaptive-li", 3, 0x4007ab8e3cfe4e47, 0x4095b5774ad85016, 0),
    ("uoa/poisson/basic-li", 1, 0x40087589dab795cf, 0x4095cdaa3b15cc19, 0),
    ("uoa/poisson/basic-li", 2, 0x400749fba7308644, 0x4095ed973d62d065, 0),
    ("uoa/poisson/basic-li", 3, 0x4008a440795fcc54, 0x40957ac16e270dd8, 0),
    ("uoa/poisson/aggressive-li", 1, 0x400a252ce131c273, 0x4095ce31ea163503, 0),
    ("uoa/poisson/aggressive-li", 2, 0x4008cd08ea2aa171, 0x4095df7bc5414d03, 0),
    ("uoa/poisson/aggressive-li", 3, 0x400a8c91ce289e90, 0x40957e969da67a36, 0),
    ("uoa/poisson/li-subset-3", 1, 0x400bb5890ade2436, 0x4095cd92b03f674e, 0),
    ("uoa/poisson/li-subset-3", 2, 0x400aa91d4f1446b4, 0x4095dd96dae847a5, 0),
    ("uoa/poisson/li-subset-3", 3, 0x400b5348de28de38, 0x4095788e9a713150, 0),
    ("uoa/poisson/adaptive-li", 1, 0x4008c53064ec59bc, 0x4095d7d419429d6e, 0),
    ("uoa/poisson/adaptive-li", 2, 0x4007972bb96fe19b, 0x4095dd62c5ca5694, 0),
    ("uoa/poisson/adaptive-li", 3, 0x4008b31632ced2c7, 0x4095779adad6c79f, 0),
    ("uoa/bursty/basic-li", 1, 0x4007791db4367e1e, 0x4095efecb1ead729, 0),
    ("uoa/bursty/basic-li", 2, 0x4005c8e167a48fc3, 0x40966d472e4c5bea, 0),
    ("uoa/bursty/basic-li", 3, 0x40056272e249fb46, 0x4095f1492f3f1421, 0),
    ("uoa/bursty/aggressive-li", 1, 0x4008c9fa7bc6ab04, 0x4095f986c37be7c8, 0),
    ("uoa/bursty/aggressive-li", 2, 0x4006f06476faeaf1, 0x4096690f762cfbfe, 0),
    ("uoa/bursty/aggressive-li", 3, 0x400695bc6ca7da7e, 0x4095f21122b59f30, 0),
    ("uoa/bursty/li-subset-3", 1, 0x400ac505e12da1f6, 0x4095f80cba927404, 0),
    ("uoa/bursty/li-subset-3", 2, 0x40093ed6dd8ebd67, 0x40967820908a976a, 0),
    ("uoa/bursty/li-subset-3", 3, 0x40089e253c934b57, 0x4095f43a11b18c24, 0),
    ("uoa/bursty/adaptive-li", 1, 0x4007c099c8fd1ad0, 0x4095fbca58d18f9b, 0),
    ("uoa/bursty/adaptive-li", 2, 0x4005bc1889f44b66, 0x409671c0688f747e, 0),
    ("uoa/bursty/adaptive-li", 3, 0x4005596143547c8e, 0x4095f9b781dcb995, 0),
    ("periodic/aggressive-li", 1, 0x4013417f8d396d03, 0x4095ed1cf31bbd74, 0),
    ("periodic/aggressive-li", 2, 0x4011ef989df357a4, 0x409608d8b9701042, 0),
    ("periodic/aggressive-li", 3, 0x4012c7e5c0a75a94, 0x4095bc9ecc7d7c6b, 0),
];

/// The delayed-view matrix replays its pinned bits.
#[test]
fn delayed_view_matrix_replays_pinned_bits() {
    let combos = delayed_combos();
    assert_eq!(DELAYED_GOLDEN.len(), combos.len() * 3);
    for (label, arrivals, info, policy) in combos {
        for seed in 1..=3u64 {
            let r = run_delayed(&arrivals, &info, &policy, seed);
            let &(_, _, mean_bits, end_bits, misses) = DELAYED_GOLDEN
                .iter()
                .find(|(l, s, ..)| *l == label && *s == seed)
                .expect("every delayed combo/seed pair has a golden entry");
            assert_eq!(
                r.mean_response.to_bits(),
                mean_bits,
                "{label} seed {seed}: mean_response drifted from golden \
                 ({} vs bits {mean_bits:#018x})",
                r.mean_response,
            );
            assert_eq!(
                r.end_time.to_bits(),
                end_bits,
                "{label} seed {seed}: end_time drifted from golden \
                 ({} vs bits {end_bits:#018x})",
                r.end_time,
            );
            assert_eq!(
                r.history_misses, misses,
                "{label} seed {seed}: history misses drifted from golden"
            );
        }
    }
}

/// Capture helper (not a regression test): prints the DELAYED_GOLDEN array
/// body.
#[test]
#[ignore = "capture helper; run with --ignored --nocapture to regenerate DELAYED_GOLDEN"]
fn print_delayed_golden_bits() {
    for (label, arrivals, info, policy) in delayed_combos() {
        for seed in 1..=3u64 {
            let r = run_delayed(&arrivals, &info, &policy, seed);
            println!(
                "    (\"{label}\", {seed}, {:#018x}, {:#018x}, {}),",
                r.mean_response.to_bits(),
                r.end_time.to_bits(),
                r.history_misses,
            );
        }
    }
}

/// The population engine's matrix: Random, k = 2 and Basic LI under fresh
/// and periodic boards at n = 256. Nothing else pins the population
/// engine's bits, and its measurement loop feeds the tail sketch.
fn population_combos() -> Vec<(String, InfoSpec, PolicySpec)> {
    let infos = [
        ("fresh", InfoSpec::Fresh),
        ("periodic", InfoSpec::Periodic { period: 10.0 }),
    ];
    let policies = [
        ("random", PolicySpec::Random),
        ("k2", PolicySpec::KSubset { k: 2 }),
        ("basic-li", PolicySpec::BasicLi { lambda: 0.9 }),
    ];
    let mut combos = Vec::new();
    for (info_label, info) in &infos {
        for (policy_label, policy) in &policies {
            combos.push((
                format!("population/{info_label}/{policy_label}"),
                *info,
                policy.clone(),
            ));
        }
    }
    combos
}

fn run_population(info: &InfoSpec, policy: &PolicySpec, seed: u64) -> RunResult {
    let cfg = SimConfig::builder()
        .servers(256)
        .lambda(0.9)
        .arrivals(100_000)
        .seed(seed)
        .engine(EngineMode::Population)
        .build();
    run_simulation(&cfg, &ArrivalSpec::Poisson, info, policy).expect("valid config")
}

/// (combo label, seed, mean_response bits, end_time bits) for the
/// population matrix. Regenerate with the `print_population_golden_bits`
/// capture helper after intentional changes.
#[rustfmt::skip]
const POPULATION_GOLDEN: [(&str, u64, u64, u64); 18] = [
    ("population/fresh/random", 1, 0x4022b610af827ffc, 0x407f01e09c8e99ee),
    ("population/fresh/random", 2, 0x40217b1387cd5de1, 0x407e62dcdf2a2c5b),
    ("population/fresh/random", 3, 0x4021c592f49ee83a, 0x407e02e71fbcae31),
    ("population/fresh/k2", 1, 0x40058980a965d43c, 0x407bd76269f47245),
    ("population/fresh/k2", 2, 0x4004f1d19a15023c, 0x407bc6713cfe9095),
    ("population/fresh/k2", 3, 0x4005d1c23d508e3c, 0x407ba0492ea369cc),
    ("population/fresh/basic-li", 1, 0x3ff034b580839e5e, 0x407b70d4d75edc93),
    ("population/fresh/basic-li", 2, 0x3ff0273e902c5c0e, 0x407bc619bf12e0a8),
    ("population/fresh/basic-li", 3, 0x3ff04db820f3918f, 0x407b8b70fa41b930),
    ("population/periodic/random", 1, 0x4021baa367cbc1cf, 0x407f19fc1568f3c6),
    ("population/periodic/random", 2, 0x4020ab1efa3565a7, 0x407e81a86fbab18c),
    ("population/periodic/random", 3, 0x40219e8dfebc3a88, 0x407d6922420ac2c5),
    ("population/periodic/k2", 1, 0x4014a5767fccbc5b, 0x407d215700f1df9b),
    ("population/periodic/k2", 2, 0x40144e3361c8dcee, 0x407c91190e8b1735),
    ("population/periodic/k2", 3, 0x4014869d89890dea, 0x407c14e6461977cb),
    ("population/periodic/basic-li", 1, 0x40141246f588de2e, 0x407cae577518576c),
    ("population/periodic/basic-li", 2, 0x401387fa57fc2edb, 0x407c4ff6aca694a6),
    ("population/periodic/basic-li", 3, 0x401418f241c347d0, 0x407bf5f1f1b01dfb),
];

/// The population matrix replays its pinned bits.
#[test]
fn population_matrix_replays_pinned_bits() {
    let combos = population_combos();
    assert_eq!(POPULATION_GOLDEN.len(), combos.len() * 3);
    for (label, info, policy) in combos {
        for seed in 1..=3u64 {
            let r = run_population(&info, &policy, seed);
            let &(_, _, mean_bits, end_bits) = POPULATION_GOLDEN
                .iter()
                .find(|(l, s, ..)| *l == label && *s == seed)
                .expect("every population combo/seed pair has a golden entry");
            assert_eq!(
                r.mean_response.to_bits(),
                mean_bits,
                "{label} seed {seed}: mean_response drifted from golden \
                 ({} vs bits {mean_bits:#018x})",
                r.mean_response,
            );
            assert_eq!(
                r.end_time.to_bits(),
                end_bits,
                "{label} seed {seed}: end_time drifted from golden \
                 ({} vs bits {end_bits:#018x})",
                r.end_time,
            );
        }
    }
}

/// Capture helper (not a regression test): prints the POPULATION_GOLDEN
/// array body.
#[test]
#[ignore = "capture helper; run with --ignored --nocapture to regenerate POPULATION_GOLDEN"]
fn print_population_golden_bits() {
    for (label, info, policy) in population_combos() {
        for seed in 1..=3u64 {
            let r = run_population(&info, &policy, seed);
            println!(
                "    (\"{label}\", {seed}, {:#018x}, {:#018x}),",
                r.mean_response.to_bits(),
                r.end_time.to_bits(),
            );
        }
    }
}

/// A trial too short to compact its sketch: 4 000 arrivals less the 10%
/// warm-up leave 3 600 measured jobs, under the default capacity of 4 096,
/// so its p99 is read from the exact multiset.
fn run_exact_tail() -> RunResult {
    let cfg = SimConfig::builder()
        .servers(16)
        .lambda(0.9)
        .arrivals(4_000)
        .seed(1)
        .build();
    run_simulation(
        &cfg,
        &ArrivalSpec::Poisson,
        &InfoSpec::Periodic { period: 10.0 },
        &PolicySpec::BasicLi { lambda: 0.9 },
    )
    .expect("valid config")
}

/// (mean_response bits, p99 bits) of [`run_exact_tail`]. Regenerate with
/// the `print_exact_tail_golden_bits` capture helper after intentional
/// changes.
const EXACT_TAIL_GOLDEN: (u64, u64) = (0x40111321dcf8e78d, 0x402d98096d8eada3);

/// The exact-mode sketch replays its pinned p99.
#[test]
fn exact_sketch_replays_pinned_p99() {
    let r = run_exact_tail();
    assert!(r.measured_jobs < 4_096, "{} measured jobs", r.measured_jobs);
    assert!(r.detail.response_sketch.is_exact());
    let (mean_bits, p99_bits) = EXACT_TAIL_GOLDEN;
    assert_eq!(r.mean_response.to_bits(), mean_bits, "{}", r.mean_response);
    let p99 = r.detail.response_quantile(0.99);
    assert_eq!(p99.to_bits(), p99_bits, "exact p99 drifted: {p99}");
}

/// Capture helper (not a regression test): prints EXACT_TAIL_GOLDEN.
#[test]
#[ignore = "capture helper; run with --ignored --nocapture to regenerate EXACT_TAIL_GOLDEN"]
fn print_exact_tail_golden_bits() {
    let r = run_exact_tail();
    println!(
        "({:#018x}, {:#018x})",
        r.mean_response.to_bits(),
        r.detail.response_quantile(0.99).to_bits(),
    );
}

/// The engine-path matrix: event-loop paths that no other pin and no
/// perfbench grid reaches, on the board matrix's n = 12, 40k arrivals,
/// seed 99 and periodic:5 board. Crash re-dispatch; the CLI help's
/// `--hedge 2 --faults churn:150:30,corrupt:0.1`, whose replicas migrate
/// when churn drains a server; work stealing, alone and beside stall-mode
/// crashes; deadlines and retries on crashing servers; and Hetero LI on a
/// heterogeneous cluster.
fn engine_combos() -> Vec<(&'static str, SimConfig, PolicySpec)> {
    let base = |faults: &str| {
        let mut b = SimConfig::builder();
        b.servers(12).lambda(0.8).arrivals(40_000).seed(99);
        b.faults(faults.parse().expect("valid fault clauses"));
        b
    };
    let li = PolicySpec::BasicLi { lambda: 0.8 };
    let hedged = PolicySpec::Hedged {
        h: 2,
        inner: Box::new(li.clone()),
    };
    let capacities: Vec<f64> = (0..12).map(|i| if i < 6 { 1.6 } else { 0.4 }).collect();
    let hetero_li = PolicySpec::HeteroLi {
        lambda: 0.7,
        capacities: capacities.clone(),
    };
    let retry = "4:0.5:8".parse().expect("valid retry spec");
    let crash = base("crash:250:25:redispatch").build();
    let churn = base("churn:150:30,corrupt:0.1").build();
    let stealing = base("none").work_stealing(2).build();
    let stealing_crash = base("crash:250:25").work_stealing(2).build();
    let deadline_crash = base("crash:250:25").deadline(8.0).retry(retry).build();
    let hetero = base("none").capacities(capacities).lambda(0.7).build();
    vec![
        ("crash-redispatch/basic-li", crash, li.clone()),
        ("hedge2+churn+corrupt/basic-li", churn, hedged),
        ("work-stealing/basic-li", stealing, li.clone()),
        ("work-stealing+crash/basic-li", stealing_crash, li.clone()),
        ("deadline+retry+crash/basic-li", deadline_crash, li),
        ("capacities/hetero-li", hetero, hetero_li),
    ]
}

/// One engine-path run: its mean and p99 bits, then its fault counters
/// (crashes, recoveries, re-dispatched, redirected, downtime bits) and
/// resilience counters (hedges issued, won and cancelled, quarantine
/// ejections and readmissions, corrupted reports, partition-second bits).
fn run_engine(cfg: &SimConfig, policy: &PolicySpec) -> EngineBits {
    let info = InfoSpec::Periodic { period: 5.0 };
    let r = run_simulation(cfg, &ArrivalSpec::Poisson, &info, policy).expect("valid config");
    let (f, s) = (r.faults, r.resilience);
    (
        r.mean_response.to_bits(),
        r.detail.response_quantile(0.99).to_bits(),
        [
            f.crashes,
            f.recoveries,
            f.redispatched,
            f.redirected,
            f.downtime.to_bits(),
        ],
        [
            s.hedges_issued,
            s.hedges_won,
            s.hedges_cancelled,
            s.quarantine_ejections,
            s.quarantine_readmissions,
            s.corrupted_reports,
            s.partition_seconds.to_bits(),
        ],
    )
}

type EngineBits = (u64, u64, [u64; 5], [u64; 7]);

/// The engine-path matrix's [`EngineBits`], in `engine_combos` order.
/// Regenerate with the `print_engine_golden_bits` capture helper after
/// intentional changes.
#[rustfmt::skip]
const ENGINE_GOLDEN: [(&str, EngineBits); 6] = [
    ("crash-redispatch/basic-li", (0x4013e20c6dd2f362, 0x40329e0386c3fcc8, [180, 178, 664, 5371, 4662303566120409801], [0, 0, 0, 0, 0, 0, 0])),
    ("hedge2+churn+corrupt/basic-li", (0x40559a29ad31970f, 0x407dd2e58c2a44b0, [319, 316, 28718, 8301, 4666764481515422124], [14992, 7346, 14992, 0, 0, 902, 0])),
    ("work-stealing/basic-li", (0x3ff593eb5f9dd045, 0x40161e7e397956f0, [0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0])),
    ("work-stealing+crash/basic-li", (0x4002da23d1f97ca2, 0x402ba00799ed3f1d, [181, 180, 0, 4039, 4661679198228248166], [0, 0, 0, 0, 0, 0, 0])),
    ("deadline+retry+crash/basic-li", (0x4010376e926ef49e, 0x4031b6b2d5b97bf8, [165, 165, 0, 3539, 4659933771362253741], [0, 0, 0, 0, 0, 0, 0])),
    ("capacities/hetero-li", (0x40017c8cb08a0125, 0x40266a754f9d6a90, [0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0])),
];

/// The engine-path matrix replays its pinned bits and counters.
#[test]
fn engine_matrix_replays_pinned_bits() {
    let combos = engine_combos();
    assert_eq!(combos.len(), ENGINE_GOLDEN.len());
    for ((label, cfg, policy), (golden_label, golden)) in combos.into_iter().zip(ENGINE_GOLDEN) {
        assert_eq!(label, golden_label);
        assert_eq!(
            run_engine(&cfg, &policy),
            golden,
            "{label} drifted from golden"
        );
    }
}

/// Capture helper (not a regression test): prints the ENGINE_GOLDEN array
/// body from the current engine.
#[test]
#[ignore = "capture helper; run with --ignored --nocapture to regenerate ENGINE_GOLDEN"]
fn print_engine_golden_bits() {
    for (label, cfg, policy) in engine_combos() {
        let (mean, p99, faults, resilience) = run_engine(&cfg, &policy);
        println!("    (\"{label}\", ({mean:#018x}, {p99:#018x}, {faults:?}, {resilience:?})),");
    }
}
