//! Fault-injection specifications: server crashes and lossy update channels.
//!
//! The paper's model assumes servers never fail and every load report
//! reaches the information system. [`FaultSpec`] relaxes both assumptions
//! so the interpretation algorithms can be stress-tested:
//!
//! * **Crashes** — each server independently alternates between up and
//!   down periods with exponential mean time between failures (MTBF) and
//!   mean time to repair (MTTR). A down server stops serving; its queued
//!   jobs either stall until recovery (default) or are re-dispatched to
//!   surviving servers at the crash instant.
//! * **Losses** — board refreshes are dropped or delayed per entry (see
//!   [`LossSpec`]).
//! * **Partitions** — a subset of servers becomes invisible to the
//!   bulletin board for an interval, then heals (see [`PartitionSpec`]).
//!   The servers keep serving; only their reports are lost.
//! * **Churn** — servers leave and rejoin the cluster mid-run (see
//!   [`ChurnSpec`]). A departing server evicts its whole queue for
//!   re-dispatch; a rejoining one comes back cold and warms up as the
//!   board's natural refresh cycle re-learns it.
//! * **Corruption** — a fraction of load reports are garbled in flight:
//!   zeroed, stuck, or scaled (see [`CorruptSpec`]).
//!
//! Fault randomness comes from its own forked RNG stream, drawn *after*
//! the four streams the fault-free engine forks, so
//! [`FaultSpec::none`] reproduces fault-free trajectories bit for bit.
//!
//! The textual grammar (used by `--faults` on the CLI and round-tripped by
//! `Display`/`FromStr`) is a comma-separated list of clauses:
//!
//! ```text
//! none
//! crash:<mtbf>:<mttr>[:redispatch]
//! drop:<p>
//! delay:<mean>
//! partition:<mtbf>:<duration>:<fraction>[:correlated]
//! churn:<mtbf>:<downtime>
//! corrupt:<fraction>
//! ```

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};
use staleload_info::InfoSpec;
pub use staleload_info::{CorruptSpec, LossSpec};

use crate::ConfigError;

/// Exponential crash/recovery process parameters for every server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrashSpec {
    /// Mean up time before a crash (exponential).
    pub mtbf: f64,
    /// Mean down time before recovery (exponential).
    pub mttr: f64,
    /// If `true`, jobs queued at a crashing server are immediately
    /// re-dispatched to a surviving server (losing any partial service);
    /// if `false` (default), they stall in place until the server
    /// recovers.
    pub redispatch: bool,
}

/// A recurring view-partition process: every so often a subset of servers
/// becomes invisible to the bulletin board for an interval, then heals.
///
/// Partitions are pure information-plane faults — the partitioned servers
/// keep serving jobs; only their load reports stop reaching the board, so
/// their entries decay in place exactly like a crashed server's. Intervals
/// never overlap: the next partition is drawn after the current one heals.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartitionSpec {
    /// Mean healthy time between partitions (exponential).
    pub mtbf: f64,
    /// Fixed length of each partition interval.
    pub duration: f64,
    /// Fraction of the cluster partitioned away each time, in `(0, 1]`
    /// (at least one server is always taken).
    pub fraction: f64,
    /// If `true` the partitioned subset is a *contiguous* block of server
    /// ids (a rack or zone losing its uplink); if `false` (default) a
    /// uniform random subset.
    pub correlated: bool,
}

/// A membership-churn process: each server independently alternates
/// between member and departed states, like [`CrashSpec`] but with
/// *eviction* semantics — a departing server's whole queue (including the
/// in-service job, which loses its partial service) is re-dispatched to
/// surviving servers, and a rejoining server comes back empty and cold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnSpec {
    /// Mean membership time before a server leaves (exponential).
    pub mtbf: f64,
    /// Mean departed time before it rejoins (exponential). Must be
    /// shorter than `mtbf`, otherwise churn drains the cluster.
    pub downtime: f64,
}

/// A complete fault-injection configuration; [`FaultSpec::none`] disables
/// every fault and is the default.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Server crash/recovery process, if any.
    pub crash: Option<CrashSpec>,
    /// Lossy/delayed update channel, if any.
    pub loss: Option<LossSpec>,
    /// Recurring view partitions, if any.
    pub partition: Option<PartitionSpec>,
    /// Membership churn, if any.
    pub churn: Option<ChurnSpec>,
    /// Report corruption, if any.
    pub corrupt: Option<CorruptSpec>,
}

impl FaultSpec {
    /// No faults: the engine behaves exactly like the fault-free
    /// simulator (bit-identical trajectories for equal seeds).
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether any fault is active.
    pub fn is_none(&self) -> bool {
        self.crash.is_none()
            && self.loss.is_none_or(|l| l.is_noop())
            && self.partition.is_none()
            && self.churn.is_none()
            && self.corrupt.is_none_or(|c| c.is_noop())
    }

    /// A pure crash/recovery fault (stall mode).
    pub fn crash(mtbf: f64, mttr: f64) -> Self {
        Self {
            crash: Some(CrashSpec {
                mtbf,
                mttr,
                redispatch: false,
            }),
            ..Self::none()
        }
    }

    /// A pure drop-loss fault.
    pub fn drop(p: f64) -> Self {
        Self {
            loss: Some(LossSpec::drop(p)),
            ..Self::none()
        }
    }

    /// A pure uncorrelated view-partition fault.
    pub fn partition(mtbf: f64, duration: f64, fraction: f64) -> Self {
        Self {
            partition: Some(PartitionSpec {
                mtbf,
                duration,
                fraction,
                correlated: false,
            }),
            ..Self::none()
        }
    }

    /// A pure membership-churn fault.
    pub fn churn(mtbf: f64, downtime: f64) -> Self {
        Self {
            churn: Some(ChurnSpec { mtbf, downtime }),
            ..Self::none()
        }
    }

    /// A pure report-corruption fault.
    pub fn corrupt(fraction: f64) -> Self {
        Self {
            corrupt: Some(CorruptSpec { fraction }),
            ..Self::none()
        }
    }

    /// Checks every parameter is in range.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] naming the out-of-range field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if let Some(crash) = &self.crash {
            if !(crash.mtbf.is_finite() && crash.mtbf > 0.0) {
                return Err(ConfigError::new(format!(
                    "crash MTBF must be finite and positive, got {}",
                    crash.mtbf
                )));
            }
            if !(crash.mttr.is_finite() && crash.mttr > 0.0) {
                return Err(ConfigError::new(format!(
                    "crash MTTR must be finite and positive, got {}",
                    crash.mttr
                )));
            }
        }
        if let Some(loss) = &self.loss {
            loss.validate().map_err(ConfigError::new)?;
        }
        if let Some(p) = &self.partition {
            if !(p.mtbf.is_finite() && p.mtbf > 0.0) {
                return Err(ConfigError::new(format!(
                    "partition MTBF must be finite and positive, got {}",
                    p.mtbf
                )));
            }
            if !(p.duration.is_finite() && p.duration > 0.0) {
                return Err(ConfigError::new(format!(
                    "partition duration must be finite and positive (a zero-length \
                     partition interval is degenerate), got {}",
                    p.duration
                )));
            }
            if !(p.fraction.is_finite() && p.fraction > 0.0 && p.fraction <= 1.0) {
                return Err(ConfigError::new(format!(
                    "partition fraction must be in (0, 1], got {}",
                    p.fraction
                )));
            }
        }
        if let Some(c) = &self.churn {
            if !(c.mtbf.is_finite() && c.mtbf > 0.0) {
                return Err(ConfigError::new(format!(
                    "churn MTBF must be finite and positive, got {}",
                    c.mtbf
                )));
            }
            if !(c.downtime.is_finite() && c.downtime > 0.0) {
                return Err(ConfigError::new(format!(
                    "churn downtime must be finite and positive, got {}",
                    c.downtime
                )));
            }
            if c.downtime >= c.mtbf {
                return Err(ConfigError::new(format!(
                    "churn downtime ({}) must be shorter than the membership MTBF ({}): \
                     that churn rate would empty the cluster",
                    c.downtime, c.mtbf
                )));
            }
            if self.crash.is_some() {
                return Err(ConfigError::new(
                    "churn and crash faults cannot be combined (churn subsumes crash: \
                     a departing server already stops serving and evicts its queue)",
                ));
            }
        }
        if let Some(c) = &self.corrupt {
            c.validate().map_err(ConfigError::new)?;
        }
        Ok(())
    }

    /// Checks the board faults (loss, partitions, corruption) have a
    /// report path to act on, which only a bulletin board
    /// ([`InfoSpec::supports_loss`]) has. A no-op loss or corruption
    /// clause acts on nothing, so any model takes it.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] naming the first board fault configured.
    pub fn check_report_path(&self, info: &InfoSpec) -> Result<(), ConfigError> {
        let what = if self.loss.is_some_and(|l| !l.is_noop()) {
            "loss injection needs"
        } else if self.partition.is_some() {
            "view partitions need"
        } else if self.corrupt.is_some_and(|c| !c.is_noop()) {
            "report corruption needs"
        } else {
            return Ok(());
        };
        if info.supports_loss() {
            return Ok(());
        }
        Err(ConfigError::new(format!(
            "{what} a bulletin-board info model (periodic or individual), got {}",
            info.label()
        )))
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.crash.is_none()
            && self.loss.is_none()
            && self.partition.is_none()
            && self.churn.is_none()
            && self.corrupt.is_none()
        {
            return write!(f, "none");
        }
        let mut sep = "";
        if let Some(c) = &self.crash {
            let mode = if c.redispatch { ":redispatch" } else { "" };
            write!(f, "crash:{}:{}{}", c.mtbf, c.mttr, mode)?;
            sep = ",";
        }
        if let Some(l) = &self.loss {
            write!(f, "{sep}drop:{}", l.drop_prob)?;
            if l.delay_mean > 0.0 {
                write!(f, ",delay:{}", l.delay_mean)?;
            }
            sep = ",";
        }
        if let Some(p) = &self.partition {
            let mode = if p.correlated { ":correlated" } else { "" };
            write!(
                f,
                "{sep}partition:{}:{}:{}{}",
                p.mtbf, p.duration, p.fraction, mode
            )?;
            sep = ",";
        }
        if let Some(c) = &self.churn {
            write!(f, "{sep}churn:{}:{}", c.mtbf, c.downtime)?;
            sep = ",";
        }
        if let Some(c) = &self.corrupt {
            write!(f, "{sep}corrupt:{}", c.fraction)?;
        }
        Ok(())
    }
}

fn parse_f64(v: &str, what: &str) -> Result<f64, ConfigError> {
    v.parse()
        .map_err(|_| ConfigError::new(format!("bad {what} '{v}' in fault spec")))
}

impl FromStr for FaultSpec {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() || s == "none" {
            return Ok(Self::none());
        }
        let mut spec = Self::none();
        let mut delay: Option<f64> = None;
        for clause in s.split(',') {
            let mut parts = clause.trim().split(':');
            let head = parts.next().unwrap_or("");
            let rest: Vec<&str> = parts.collect();
            match (head, rest.as_slice()) {
                ("crash", [mtbf, mttr]) | ("crash", [mtbf, mttr, "redispatch"]) => {
                    if spec.crash.is_some() {
                        return Err(ConfigError::new("duplicate crash clause in fault spec"));
                    }
                    spec.crash = Some(CrashSpec {
                        mtbf: parse_f64(mtbf, "MTBF")?,
                        mttr: parse_f64(mttr, "MTTR")?,
                        redispatch: rest.len() == 3,
                    });
                }
                ("drop", [p]) => {
                    if spec.loss.is_some() {
                        return Err(ConfigError::new("duplicate drop clause in fault spec"));
                    }
                    spec.loss = Some(LossSpec::drop(parse_f64(p, "drop probability")?));
                }
                ("delay", [mean]) => {
                    if delay.is_some() {
                        return Err(ConfigError::new("duplicate delay clause in fault spec"));
                    }
                    delay = Some(parse_f64(mean, "delay mean")?);
                }
                ("partition", [mtbf, duration, fraction])
                | ("partition", [mtbf, duration, fraction, "correlated"]) => {
                    if spec.partition.is_some() {
                        return Err(ConfigError::new("duplicate partition clause in fault spec"));
                    }
                    spec.partition = Some(PartitionSpec {
                        mtbf: parse_f64(mtbf, "partition MTBF")?,
                        duration: parse_f64(duration, "partition duration")?,
                        fraction: parse_f64(fraction, "partition fraction")?,
                        correlated: rest.len() == 4,
                    });
                }
                ("churn", [mtbf, downtime]) => {
                    if spec.churn.is_some() {
                        return Err(ConfigError::new("duplicate churn clause in fault spec"));
                    }
                    spec.churn = Some(ChurnSpec {
                        mtbf: parse_f64(mtbf, "churn MTBF")?,
                        downtime: parse_f64(downtime, "churn downtime")?,
                    });
                }
                ("corrupt", [fraction]) => {
                    if spec.corrupt.is_some() {
                        return Err(ConfigError::new("duplicate corrupt clause in fault spec"));
                    }
                    spec.corrupt = Some(CorruptSpec {
                        fraction: parse_f64(fraction, "corrupt fraction")?,
                    });
                }
                _ => {
                    return Err(ConfigError::new(format!(
                        "bad fault clause '{}' (expected none, crash:<mtbf>:<mttr>[:redispatch], \
                         drop:<p>, delay:<mean>, \
                         partition:<mtbf>:<duration>:<fraction>[:correlated], \
                         churn:<mtbf>:<downtime>, corrupt:<fraction>)",
                        clause.trim()
                    )));
                }
            }
        }
        if let Some(mean) = delay {
            let loss = spec.loss.get_or_insert(LossSpec::default());
            loss.delay_mean = mean;
        }
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_round_trips() {
        let none = FaultSpec::none();
        assert!(none.is_none());
        assert_eq!(none.to_string(), "none");
        assert_eq!("none".parse::<FaultSpec>().unwrap(), none);
        assert_eq!("".parse::<FaultSpec>().unwrap(), none);
    }

    #[test]
    fn grammar_round_trips() {
        for s in [
            "crash:1000:50",
            "crash:1000:50:redispatch",
            "drop:0.5",
            "crash:1000:50,drop:0.25",
            "drop:0.25,delay:2",
            "crash:500:10:redispatch,drop:0.1,delay:0.5",
            "partition:100:20:0.25",
            "partition:100:20:0.25:correlated",
            "churn:200:20",
            "corrupt:0.1",
            "drop:0.5,partition:50:10:0.5,churn:100:5,corrupt:0.25",
        ] {
            let spec: FaultSpec = s.parse().unwrap();
            assert_eq!(spec.to_string(), s, "display must round-trip '{s}'");
            assert_eq!(spec.to_string().parse::<FaultSpec>().unwrap(), spec);
        }
    }

    #[test]
    fn delay_alone_parses_as_lossless_delay() {
        let spec: FaultSpec = "delay:3".parse().unwrap();
        let loss = spec.loss.unwrap();
        assert_eq!(loss.drop_prob, 0.0);
        assert_eq!(loss.delay_mean, 3.0);
        // Display emits the canonical drop:0,delay:3 form.
        assert_eq!(spec.to_string().parse::<FaultSpec>().unwrap(), spec);
    }

    #[test]
    fn bad_specs_are_rejected() {
        for s in [
            "crash",
            "crash:10",
            "crash:10:5:now",
            "drop",
            "drop:1.5",
            "drop:-0.1",
            "crash:0:5",
            "crash:10:0",
            "crash:inf:5",
            "crash:nan:1",
            "crash:-5:2",
            "crash:10:nan",
            "drop:nan",
            "delay:-1",
            "delay:inf",
            "delay:nan",
            "warp",
            "drop:0.1,drop:0.2",
            "crash:10:5,crash:20:5",
            "delay:1,delay:2",
            "partition",
            "partition:100:20",
            "partition:0:20:0.5",
            "partition:100:0:0.5",
            "partition:100:20:0",
            "partition:100:20:1.5",
            "partition:100:20:nan",
            "partition:100:20:0.5:tight",
            "partition:1:1:0.5,partition:2:2:0.5",
            "churn",
            "churn:100",
            "churn:0:5",
            "churn:100:0",
            "churn:10:20",
            "churn:10:10",
            "churn:1000:1,churn:1000:1",
            "crash:100:5,churn:1000:1",
            "corrupt",
            "corrupt:-0.1",
            "corrupt:1.5",
            "corrupt:nan",
            "corrupt:0.1,corrupt:0.2",
        ] {
            assert!(s.parse::<FaultSpec>().is_err(), "'{s}' should be rejected");
        }
    }

    #[test]
    fn rejection_messages_name_the_field() {
        let err = |s: &str| s.parse::<FaultSpec>().unwrap_err().to_string();
        assert!(
            err("crash:nan:1").contains("MTBF"),
            "{}",
            err("crash:nan:1")
        );
        assert!(
            err("crash:10:-1").contains("MTTR"),
            "{}",
            err("crash:10:-1")
        );
        assert!(err("drop:1.5").contains("drop"), "{}", err("drop:1.5"));
        assert!(err("delay:-1").contains("delay"), "{}", err("delay:-1"));
        assert!(err("warp").contains("bad fault clause"), "{}", err("warp"));
        assert!(
            err("crash:10:5,crash:20:5").contains("duplicate"),
            "{}",
            err("crash:10:5,crash:20:5")
        );
    }

    #[test]
    fn validate_checks_ranges() {
        assert!(FaultSpec::crash(100.0, 5.0).validate().is_ok());
        assert!(FaultSpec::crash(-1.0, 5.0).validate().is_err());
        assert!(FaultSpec::drop(0.5).validate().is_ok());
        assert!(FaultSpec::drop(2.0).validate().is_err());
        assert!(FaultSpec::partition(100.0, 20.0, 0.5).validate().is_ok());
        assert!(FaultSpec::partition(100.0, 0.0, 0.5).validate().is_err());
        assert!(FaultSpec::partition(100.0, 20.0, 0.0).validate().is_err());
        assert!(FaultSpec::churn(200.0, 20.0).validate().is_ok());
        assert!(FaultSpec::churn(20.0, 200.0).validate().is_err());
        assert!(FaultSpec::corrupt(0.5).validate().is_ok());
        assert!(FaultSpec::corrupt(1.5).validate().is_err());
    }

    #[test]
    fn new_fault_rejections_name_the_degenerate_field() {
        let err = |s: &str| s.parse::<FaultSpec>().unwrap_err().to_string();
        assert!(
            err("partition:100:0:0.5").contains("zero-length"),
            "{}",
            err("partition:100:0:0.5")
        );
        assert!(
            err("churn:10:20").contains("empty the cluster"),
            "{}",
            err("churn:10:20")
        );
        assert!(
            err("crash:100:5,churn:1000:1").contains("cannot be combined"),
            "{}",
            err("crash:100:5,churn:1000:1")
        );
        assert!(
            err("corrupt:1.5").contains("corrupt fraction"),
            "{}",
            err("corrupt:1.5")
        );
    }

    #[test]
    fn is_none_sees_every_fault_kind() {
        assert!(FaultSpec::none().is_none());
        assert!(FaultSpec::corrupt(0.0).is_none(), "zero corruption is noop");
        for spec in [
            FaultSpec::crash(100.0, 5.0),
            FaultSpec::drop(0.5),
            FaultSpec::partition(100.0, 20.0, 0.5),
            FaultSpec::churn(200.0, 20.0),
            FaultSpec::corrupt(0.1),
        ] {
            assert!(!spec.is_none(), "{spec} should not be none");
        }
    }
}
