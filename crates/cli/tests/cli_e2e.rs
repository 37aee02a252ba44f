//! End-to-end tests that spawn the real `staleload` binary.

use std::process::{Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

fn staleload(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_staleload"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// [`staleload`] on one line of space-separated arguments.
fn staleload_line(line: &str) -> (bool, String, String) {
    staleload(&line.split(' ').collect::<Vec<_>>())
}

#[test]
fn help_lists_commands() {
    let (ok, stdout, _) = staleload(&["help"]);
    assert!(ok);
    for needle in ["run", "compare", "rank", "theory", "--policy", "basic-li"] {
        assert!(stdout.contains(needle), "help is missing '{needle}'");
    }
}

#[test]
fn run_help_prints_usage() {
    let (_, usage, _) = staleload(&["--help"]);
    for args in [
        &["run", "--help"][..],
        &["run", "-h"],
        &["run", "--servers", "8", "--help"],
    ] {
        let (ok, stdout, stderr) = staleload(args);
        assert!(ok, "{args:?}: {stderr}");
        assert_eq!(stdout, usage, "{args:?}");
    }
}

#[test]
fn compare_help_prints_usage() {
    let (_, usage, _) = staleload(&["--help"]);
    for args in [&["compare", "--help"][..], &["compare", "-h"]] {
        let (ok, stdout, stderr) = staleload(args);
        assert!(ok, "{args:?}: {stderr}");
        assert_eq!(stdout, usage, "{args:?}");
    }
}

#[test]
fn theory_prints_anchors() {
    let (ok, stdout, _) = staleload(&["theory", "--lambda", "0.5"]);
    assert!(ok);
    assert!(stdout.contains("M/M/1"));
    assert!(stdout.contains("2.0000"), "M/M/1 at 0.5 is 2.0:\n{stdout}");
}

#[test]
fn rank_prints_eq1_table() {
    let (ok, stdout, _) = staleload(&["rank", "--n", "10", "--k", "1,2"]);
    assert!(ok);
    assert!(stdout.contains("k=1"));
    assert!(stdout.contains("0.10000"), "uniform k=1 row:\n{stdout}");
    assert!(
        stdout.contains("0.20000"),
        "k=2 rank 0 is k/n = 0.2:\n{stdout}"
    );
}

#[test]
fn run_reports_mean_response() {
    let (ok, stdout, stderr) = staleload(&[
        "run",
        "--servers",
        "8",
        "--lambda",
        "0.5",
        "--arrivals",
        "20000",
        "--trials",
        "2",
        "--policy",
        "basic-li",
        "--info",
        "periodic:2",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("mean response"), "{stdout}");
    assert!(stdout.contains("Basic LI"));
}

#[test]
fn run_detail_prints_tails() {
    let (ok, stdout, _) = staleload(&[
        "run",
        "--servers",
        "4",
        "--lambda",
        "0.5",
        "--arrivals",
        "10000",
        "--trials",
        "1",
        "--policy",
        "random",
        "--info",
        "fresh",
        "--detail",
    ]);
    assert!(ok);
    assert!(stdout.contains("p50/p95/p99"), "{stdout}");
    assert!(stdout.contains("fairness"), "{stdout}");
}

#[test]
fn population_detail_reports_even_shares() {
    // 20 000 jobs over 100 000 exchangeable servers: each server's
    // expected share is the same, so the summary is perfectly fair.
    let (ok, stdout, stderr) = staleload(&[
        "run",
        "--engine",
        "population",
        "--servers",
        "100000",
        "--arrivals",
        "20000",
        "--trials",
        "1",
        "--policy",
        "k:2",
        "--info",
        "periodic:1",
        "--detail",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("utilization   : mean"), "{stdout}");
    assert!(stdout.contains("fairness      : 1.0000"), "{stdout}");
}

#[test]
fn run_overload_controls_print_goodput() {
    let (ok, stdout, stderr) = staleload(&[
        "run",
        "--servers",
        "8",
        "--lambda",
        "0.95",
        "--arrivals",
        "20000",
        "--trials",
        "1",
        "--policy",
        "random",
        "--info",
        "fresh",
        "--queue-cap",
        "2",
        "--deadline",
        "2",
        "--retry",
        "4:0.5:8",
        "--guard",
        "2:50",
        "--detail",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("overload"), "{stdout}");
    assert!(stdout.contains("goodput"), "{stdout}");
    assert!(
        stdout.contains("guarded"),
        "label shows the breaker:\n{stdout}"
    );
}

#[test]
fn bad_overload_flags_fail_with_message() {
    let (ok, _, stderr) = staleload(&["run", "--queue-cap", "0"]);
    assert!(!ok);
    assert!(stderr.contains("queue cap"), "{stderr}");
    let (ok, _, stderr) = staleload(&["run", "--retry", "5:1:30"]);
    assert!(!ok);
    assert!(
        stderr.contains("retry orbit needs a queue cap or a deadline"),
        "{stderr}"
    );
}

#[test]
fn run_resilience_knobs_print_counters() {
    let (ok, stdout, stderr) = staleload(&[
        "run",
        "--servers",
        "8",
        "--lambda",
        "0.5",
        "--arrivals",
        "20000",
        "--trials",
        "1",
        "--policy",
        "basic-li",
        "--info",
        "periodic:5",
        "--faults",
        "partition:40:20:0.25,corrupt:0.2",
        "--hedge",
        "2",
        "--quarantine",
        "15:10",
        "--detail",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("resilience"), "{stdout}");
    assert!(stdout.contains("partition-seconds"), "{stdout}");
    assert!(stdout.contains("hedge win rate"), "{stdout}");
    assert!(
        stdout.contains("hedged") && stdout.contains("quarantined"),
        "label shows the wrappers:\n{stdout}"
    );
}

#[test]
fn bad_resilience_flags_fail_with_message() {
    // Zero-length partition interval.
    let (ok, _, stderr) = staleload(&["run", "--faults", "partition:0:5:0.5"]);
    assert!(!ok);
    assert!(stderr.contains("partition"), "{stderr}");
    let (ok, _, stderr) = staleload(&["run", "--faults", "partition:10:0:0.5"]);
    assert!(!ok);
    assert!(stderr.contains("partition"), "{stderr}");
    // Churn that would empty the cluster.
    let (ok, _, stderr) = staleload(&["run", "--faults", "churn:10:20"]);
    assert!(!ok);
    assert!(stderr.contains("churn"), "{stderr}");
    // Corruption fraction out of range.
    let (ok, _, stderr) = staleload(&["run", "--faults", "corrupt:1.5"]);
    assert!(!ok);
    assert!(stderr.contains("corrupt"), "{stderr}");
    // Hedge factor below 1, and above the cluster size.
    let (ok, _, stderr) = staleload(&["run", "--hedge", "0"]);
    assert!(!ok);
    assert!(stderr.contains("hedge factor"), "{stderr}");
    let (ok, _, stderr) = staleload(&[
        "run",
        "--servers",
        "4",
        "--arrivals",
        "1000",
        "--hedge",
        "99",
        "--info",
        "periodic:5",
    ]);
    assert!(!ok);
    assert!(stderr.contains("exceeds the cluster size"), "{stderr}");
    // Quarantine with a zero window.
    let (ok, _, stderr) = staleload(&["run", "--quarantine", "0:5"]);
    assert!(!ok);
    assert!(stderr.contains("quarantine window"), "{stderr}");
}

#[test]
fn run_with_estimator_info_prints_tail_summary() {
    let (ok, stdout, stderr) = staleload(&[
        "run",
        "--servers",
        "8",
        "--lambda",
        "0.5",
        "--arrivals",
        "10000",
        "--trials",
        "2",
        "--policy",
        "basic-li",
        "--info",
        "ewma:0.3:2",
        "--sketch-cap",
        "256",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("ewma"), "label shows the model:\n{stdout}");
    assert!(stdout.contains("p50/p99/p999"), "{stdout}");
    let (ok, stdout, stderr) = staleload(&[
        "run",
        "--servers",
        "8",
        "--lambda",
        "0.5",
        "--arrivals",
        "10000",
        "--trials",
        "1",
        "--policy",
        "basic-li",
        "--info",
        "ma:2,6,14:2",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("ma("), "label shows the model:\n{stdout}");
}

#[test]
fn run_detail_prints_p999() {
    let (ok, stdout, _) = staleload(&[
        "run",
        "--servers",
        "4",
        "--lambda",
        "0.5",
        "--arrivals",
        "10000",
        "--trials",
        "1",
        "--policy",
        "random",
        "--info",
        "fresh",
        "--detail",
        "--tail-p",
        "0.9",
    ]);
    assert!(ok);
    assert!(stdout.contains("p50/p95/p99/p999"), "{stdout}");
    assert!(stdout.contains("p90 (requested)"), "{stdout}");
}

#[test]
fn bad_tail_flags_fail_with_message() {
    // EWMA weight outside (0, 1].
    let (ok, _, stderr) = staleload(&["run", "--info", "ewma:0"]);
    assert!(!ok);
    assert!(stderr.contains("(0, 1]"), "{stderr}");
    let (ok, _, stderr) = staleload(&["run", "--info", "ewma:1.5"]);
    assert!(!ok);
    assert!(stderr.contains("(0, 1]"), "{stderr}");
    // Horizon list must have exactly three strictly increasing windows.
    let (ok, _, stderr) = staleload(&["run", "--info", "ma:10,2,30"]);
    assert!(!ok);
    assert!(stderr.contains("strictly increasing"), "{stderr}");
    let (ok, _, stderr) = staleload(&["run", "--info", "ma:2,6"]);
    assert!(!ok);
    assert!(stderr.contains("three horizons"), "{stderr}");
    let (ok, _, stderr) = staleload(&["run", "--info", "ma:"]);
    assert!(!ok);
    assert!(!stderr.is_empty());
    // Zero sketch capacity.
    let (ok, _, stderr) = staleload(&["run", "--sketch-cap", "0"]);
    assert!(!ok);
    assert!(stderr.contains("sketch capacity"), "{stderr}");
    // Percentile target outside (0, 1): 0 and 1 are min/max, not
    // interior percentiles.
    for bad in ["0", "1", "1.5", "NaN"] {
        let (ok, _, stderr) = staleload(&["run", "--tail-p", bad]);
        assert!(!ok, "--tail-p {bad} should be rejected");
        assert!(stderr.contains("(0, 1)"), "--tail-p {bad}: {stderr}");
    }
}

#[test]
fn bad_policy_fails_with_message() {
    let (ok, _, stderr) = staleload(&["run", "--policy", "telepathy"]);
    assert!(!ok);
    assert!(stderr.contains("unknown policy"), "{stderr}");
}

#[test]
fn zero_continuous_delay_is_a_config_error() {
    let (ok, _, stderr) = staleload(&[
        "run",
        "--info",
        "continuous:const:0",
        "--servers",
        "4",
        "--arrivals",
        "2000",
        "--trials",
        "2",
    ]);
    assert!(!ok);
    assert!(stderr.contains("delay mean"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn bad_command_fails() {
    let (ok, _, stderr) = staleload(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn compare_prints_policy_panel() {
    let (ok, stdout, stderr) = staleload(&[
        "compare",
        "--servers",
        "8",
        "--lambda",
        "0.5",
        "--arrivals",
        "15000",
        "--trials",
        "2",
        "--info",
        "periodic:2",
    ]);
    assert!(ok, "stderr: {stderr}");
    for needle in ["Random", "k=2", "Greedy", "Basic LI", "vs random"] {
        assert!(stdout.contains(needle), "missing '{needle}':\n{stdout}");
    }
}

/// On the population engine `compare` runs the panel policies that engine
/// supports and names the one it leaves out.
#[test]
fn compare_on_the_population_engine_prints_the_symmetric_panel() {
    let (ok, stdout, stderr) =
        staleload_line("compare --servers 8 --arrivals 5000 --trials 2 --engine population");
    assert!(ok, "stderr: {stderr}");
    for needle in ["Random", "k=2", "k=3", "Greedy", "Basic LI"] {
        assert!(stdout.contains(needle), "missing '{needle}':\n{stdout}");
    }
    assert!(!stdout.contains("Aggressive LI"), "{stdout}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("Aggressive LI"), "{stderr}");
}

#[test]
fn watchdog_armed_runs_print_the_unguarded_output() {
    let flags = [
        "--servers",
        "8",
        "--lambda",
        "0.5",
        "--arrivals",
        "10000",
        "--trials",
        "3",
        "--info",
        "periodic:2",
    ];
    // 1e19 s is past what the clock can add: those trials get no deadline.
    for (command, budget) in [("run", "60"), ("compare", "60"), ("run", "1e19")] {
        let plain: Vec<&str> = [command].into_iter().chain(flags).collect();
        let guarded: Vec<&str> = plain
            .iter()
            .copied()
            .chain(["--watchdog", budget])
            .collect();
        let (ok_plain, out_plain, err_plain) = staleload(&plain);
        let (ok_guarded, out_guarded, err_guarded) = staleload(&guarded);
        assert!(ok_plain, "stderr: {err_plain}");
        assert!(ok_guarded, "stderr: {err_guarded}");
        assert!(out_plain.contains("mean response"), "{out_plain}");
        assert_eq!(
            out_plain, out_guarded,
            "{command}: --watchdog {budget} changed the output"
        );
    }
}

#[test]
fn out_of_range_values_fail_without_a_panic() {
    for flags in [
        "--watchdog 1e30",
        "--watchdog 1e-12",
        "--info uoa:0",
        "--info uoa:1e30",
        "--servers 0 --policy sita",
        "--info uoa:5 --burst 5:-1",
        "--info uoa:5 --burst 5:NaN",
    ] {
        let (ok, _, stderr) = staleload_line(&format!("run --arrivals 1000 --trials 1 {flags}"));
        assert!(!ok && stderr.starts_with("error: "), "{flags}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flags}: {stderr}");
    }
}

#[test]
fn board_faults_without_a_board_fail_before_any_trial() {
    let base = "run --servers 4 --arrivals 1000 --trials 2";
    for flags in [
        "--info ewma:0.3:5 --faults corrupt:0.2",
        "--info fresh --faults drop:0.3",
    ] {
        let (ok, _, stderr) = staleload_line(&format!("{base} {flags}"));
        assert!(!ok && stderr.contains("needs a bulletin-board"), "{stderr}");
        assert!(!stderr.contains("trials failed"), "{stderr}");
    }
    // A no-op loss clause acts on nothing: the fault-free output.
    let plain = staleload_line(&format!("{base} --info fresh"));
    let noop = staleload_line(&format!("{base} --info fresh --faults drop:0"));
    assert!(plain.0, "{}", plain.2);
    assert_eq!(noop, plain);
}

/// Runs `line`, which must fail within a second without a panic, and
/// returns its stderr.
fn fails_within_a_second(line: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_staleload"))
        .args(line.split(' '))
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("child status") {
            break status;
        }
        if started.elapsed() > Duration::from_secs(1) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{line}: still running after a second");
        }
        thread::sleep(Duration::from_millis(5));
    };
    let output = child.wait_with_output().expect("child output");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(!status.success(), "{line}: {stderr}");
    assert!(!stderr.contains("panicked"), "{line}: {stderr}");
    stderr
}

/// A refresh period too small to advance the board clock and an
/// update-on-access age whose snapshots pass the cap are config errors
/// naming `--info`, within a second: no hang, no abort, on both engines.
#[test]
fn unrunnable_info_specs_fail_within_a_second() {
    let base = "run --servers 4 --arrivals 2000 --trials 1";
    for flags in [
        "--info periodic:1e-300",
        "--info individual:1e-300",
        "--info ewma:0.3:1e-300",
        "--info ma:2,10,30:1e-300",
        "--info periodic:1e-300 --engine population --policy random",
        "--info uoa:1e15",
    ] {
        let stderr = fails_within_a_second(&format!("{base} {flags}"));
        assert!(stderr.starts_with("error: --info "), "{flags}: {stderr}");
    }
}

/// A crash or churn MTBF too small to advance the fault clock is a config
/// error naming `--faults`, within a second: without the check, a server
/// that recovers crashes again at the same instant and the run never ends.
#[test]
fn unrunnable_fault_clocks_fail_within_a_second() {
    let base = "run --servers 4 --arrivals 2000 --trials 1 --info periodic:10 --faults";
    for faults in [
        "crash:1e-300:1",
        "crash:1e-300:1:redispatch",
        "churn:1e-300:1e-301",
    ] {
        let stderr = fails_within_a_second(&format!("{base} {faults}"));
        assert!(
            stderr.starts_with("error: --faults: "),
            "{faults}: {stderr}"
        );
        assert!(stderr.contains("MTBF 1e-300"), "{faults}: {stderr}");
    }
}
