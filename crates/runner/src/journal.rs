//! The sweep journal: a crash-safe record of completed (point × trial)
//! outcomes, so an interrupted sweep resumes exactly where it died.
//!
//! The cache persists *aggregated points*; a `kill -9` in the middle of
//! a 30-trial point therefore used to lose every finished trial of that
//! point. The journal closes the gap: each trial's outcome is appended
//! (sealed, see [`crate::atomic`]) the moment it completes, and on the
//! next run `SweepRunner` replays journalled trials instead of
//! recomputing them. Because a trial's outcome depends only on the
//! point spec and the trial index — never on wall-clock or worker
//! identity — a replayed trial is bit-identical to a recomputed one,
//! and resumed output matches an uninterrupted run exactly.
//!
//! Write ordering: journal appends are *not* fsynced (losing a tail
//! costs recomputing a few trials; the checksum footer guarantees a
//! torn tail is detected, not misread). The journal is truncated only
//! after its batch's aggregated results are durably in the cache —
//! cache appends *are* fsynced — so truncation never destroys the only
//! copy of an outcome.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use staleload_core::{TrialFailure, TrialOutcome};

use crate::atomic::{self, DurableAppender};
use crate::cache::{
    decode_diagnostic, decode_failure, decode_sketch, encode_diagnostic, encode_failure,
    encode_sketch, parse_key,
};
use crate::codec;
use crate::PointKey;

/// File name of the journal inside the cache directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// Replay/record counters, reset per figure alongside the cache's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalAccounting {
    /// Trials served from the journal instead of recomputed.
    pub replayed: u64,
    /// Trial outcomes appended this period.
    pub recorded: u64,
    /// Damaged lines quarantined when the journal was opened.
    pub quarantined: u64,
}

struct Inner {
    appender: Mutex<DurableAppender>,
    map: Mutex<HashMap<(PointKey, usize), TrialOutcome>>,
    path: PathBuf,
    replayed: AtomicU64,
    recorded: AtomicU64,
    quarantined: AtomicU64,
    write_error_reported: AtomicU64,
}

/// A crash-safe map from (point key, trial index) to [`TrialOutcome`],
/// persisted by appending one sealed JSONL line per completed trial.
///
/// `lookup` and `record` take `&self` and are called from worker
/// threads; `clear` truncates atomically once a batch's results are
/// durable in the cache.
pub struct SweepJournal {
    inner: Option<Inner>,
}

impl SweepJournal {
    /// Opens (creating if needed) the journal under `dir` — the same
    /// directory the result cache lives in.
    ///
    /// Damaged lines (torn tails from a killed run, bit flips) are
    /// quarantined to `dir/quarantine/journal.jsonl` and the live file
    /// compacted by the loader the cache uses ([`atomic::load_store`]).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory or file cannot be created.
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        let store = atomic::load_store(
            dir,
            JOURNAL_FILE,
            |line| parse_entry(line).map(|(key, trial, outcome)| ((key, trial), outcome)),
            |&(key, trial), outcome| encode_entry(key, trial, outcome),
        )?;
        Ok(Self {
            inner: Some(Inner {
                path: store.appender.path().to_path_buf(),
                appender: Mutex::new(store.appender),
                map: Mutex::new(store.entries),
                replayed: AtomicU64::new(0),
                recorded: AtomicU64::new(0),
                quarantined: AtomicU64::new(store.quarantined),
                write_error_reported: AtomicU64::new(0),
            }),
        })
    }

    /// A journal that records nothing and replays nothing — the default
    /// for runners that do not opt in.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether the journal can replay trials.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Number of journalled trial outcomes currently loaded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |inner| {
            inner.map.lock().expect("journal map lock poisoned").len()
        })
    }

    /// Whether the journal holds no outcomes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Path of the backing JSONL file, when enabled.
    #[must_use]
    pub fn path(&self) -> Option<&Path> {
        self.inner.as_ref().map(|inner| inner.path.as_path())
    }

    /// Replays the journalled outcome of `(key, trial)`, if any.
    pub fn lookup(&self, key: PointKey, trial: usize) -> Option<TrialOutcome> {
        let inner = self.inner.as_ref()?;
        let found = inner
            .map
            .lock()
            .expect("journal map lock poisoned")
            .get(&(key, trial))
            .cloned();
        if found.is_some() {
            inner.replayed.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Records a completed trial: appends it (sealed, unsynced — see the
    /// module docs for why unsynced is safe) and remembers it in memory.
    /// A failing append is reported once and otherwise ignored.
    pub fn record(&self, key: PointKey, trial: usize, outcome: &TrialOutcome) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        inner
            .map
            .lock()
            .expect("journal map lock poisoned")
            .insert((key, trial), outcome.clone());
        inner.recorded.fetch_add(1, Ordering::Relaxed);
        let line = encode_entry(key, trial, outcome);
        let failed = inner
            .appender
            .lock()
            .expect("journal appender lock poisoned")
            .append(&line)
            .is_err();
        if failed && inner.write_error_reported.swap(1, Ordering::Relaxed) == 0 {
            eprintln!(
                "warning: failed to append to sweep journal {}; resume coverage degraded",
                inner.path.display()
            );
        }
    }

    /// Truncates the journal — called once a batch's aggregated results
    /// are durably in the cache, making the journalled trials redundant.
    ///
    /// The truncation is an atomic whole-file replace, and the appender
    /// is reopened on the new file (the rename orphaned its old handle).
    pub fn clear(&self) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        let mut map = inner.map.lock().expect("journal map lock poisoned");
        let mut appender = inner
            .appender
            .lock()
            .expect("journal appender lock poisoned");
        if let Err(e) = atomic::write_atomic(&inner.path, b"") {
            eprintln!(
                "warning: failed to truncate sweep journal {}: {e}",
                inner.path.display()
            );
            return;
        }
        match DurableAppender::open(&inner.path) {
            Ok(a) => {
                *appender = a;
                map.clear();
            }
            Err(e) => eprintln!(
                "warning: failed to reopen sweep journal {}: {e}",
                inner.path.display()
            ),
        }
    }

    /// Returns and resets the replay/record counters (call per figure).
    pub fn take_accounting(&self) -> JournalAccounting {
        self.inner
            .as_ref()
            .map_or_else(JournalAccounting::default, |inner| JournalAccounting {
                replayed: inner.replayed.swap(0, Ordering::Relaxed),
                recorded: inner.recorded.swap(0, Ordering::Relaxed),
                quarantined: inner.quarantined.swap(0, Ordering::Relaxed),
            })
    }
}

// ---------------------------------------------------------------------------
// Entry codec
// ---------------------------------------------------------------------------

fn encode_entry(key: PointKey, trial: usize, outcome: &TrialOutcome) -> String {
    let mut out = String::with_capacity(128);
    let _ = write!(out, "{{\"point\":\"{key}\",\"trial\":{trial},");
    match outcome {
        TrialOutcome::Ok {
            mean,
            history_misses,
            diagnostics,
            sketch,
        } => {
            let _ = write!(
                out,
                "\"ok\":{{\"mean\":{mean:?},\"history_misses\":{history_misses},\"diagnostics\":["
            );
            for (i, d) in diagnostics.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                encode_diagnostic(&mut out, d);
            }
            out.push_str("],\"sketch\":");
            encode_sketch(&mut out, sketch);
            out.push('}');
        }
        TrialOutcome::Failed(f) => {
            out.push_str("\"failed\":");
            encode_failure(&mut out, f);
        }
    }
    out.push('}');
    out
}

fn parse_entry(payload: &str) -> Option<(PointKey, usize, TrialOutcome)> {
    let payload = payload.trim();
    if payload.is_empty() {
        return None;
    }
    let doc = codec::parse(payload)?;
    let key = parse_key(doc.get("point")?.as_str()?)?;
    let trial = doc.get("trial")?.as_usize()?;
    let outcome = if let Some(ok) = doc.get("ok") {
        TrialOutcome::Ok {
            mean: ok.get("mean")?.as_f64()?,
            history_misses: ok.get("history_misses")?.as_u64()?,
            diagnostics: ok
                .get("diagnostics")?
                .as_arr()?
                .iter()
                .map(decode_diagnostic)
                .collect::<Option<Vec<_>>>()?,
            sketch: decode_sketch(ok.get("sketch")?)?,
        }
    } else {
        let f: TrialFailure = decode_failure(doc.get("failed")?)?;
        TrialOutcome::Failed(f)
    };
    Some((key, trial, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::QUARANTINE_DIR;
    use staleload_core::Diagnostic;

    fn temp_dir(tag: &str) -> PathBuf {
        // Tags are unique per test, so the process id separates runs.
        let dir = std::env::temp_dir().join(format!(
            "staleload-journal-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(n: u64) -> PointKey {
        PointKey::from_halves(n, n.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn ok_outcome(mean: f64) -> TrialOutcome {
        let mut sketch = staleload_stats::TailSketch::new(32);
        sketch.record(mean);
        sketch.record(mean * 2.0);
        TrialOutcome::Ok {
            mean,
            history_misses: 0,
            diagnostics: vec![Diagnostic {
                code: "history-misses",
                message: "λ≈0.9 ✓ unicode".to_string(),
            }],
            sketch,
        }
    }

    #[test]
    fn entry_round_trips_bit_exactly() {
        let outcomes = [
            ok_outcome(0.1 + 0.2),
            TrialOutcome::Failed(TrialFailure {
                trial: 3,
                seed: 0xDEAD_BEEF_CAFE_F00D,
                error: "panicked: \"quoted\"\nnewline".to_string(),
            }),
        ];
        for (trial, outcome) in outcomes.iter().enumerate() {
            let line = encode_entry(key(7), trial, outcome);
            let (k, t, decoded) = parse_entry(&line).expect("entry parses");
            assert_eq!(k, key(7));
            assert_eq!(t, trial);
            assert_eq!(&decoded, outcome);
            if let (TrialOutcome::Ok { mean: a, .. }, TrialOutcome::Ok { mean: b, .. }) =
                (&decoded, outcome)
            {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn journal_persists_and_replays() {
        let dir = temp_dir("replay");
        {
            let journal = SweepJournal::open(&dir).expect("open journal");
            assert!(journal.lookup(key(1), 0).is_none());
            journal.record(key(1), 0, &ok_outcome(1.5));
            journal.record(key(1), 1, &ok_outcome(2.5));
            let acct = journal.take_accounting();
            assert_eq!((acct.replayed, acct.recorded), (0, 2));
        }
        {
            let journal = SweepJournal::open(&dir).expect("reopen journal");
            assert_eq!(journal.len(), 2);
            assert_eq!(journal.lookup(key(1), 0), Some(ok_outcome(1.5)));
            assert_eq!(journal.lookup(key(1), 1), Some(ok_outcome(2.5)));
            assert!(journal.lookup(key(1), 2).is_none());
            assert!(journal.lookup(key(2), 0).is_none());
            let acct = journal.take_accounting();
            assert_eq!((acct.replayed, acct.quarantined), (2, 0));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_truncates_and_keeps_appending() {
        let dir = temp_dir("clear");
        let journal = SweepJournal::open(&dir).expect("open journal");
        journal.record(key(1), 0, &ok_outcome(1.0));
        journal.clear();
        assert!(journal.is_empty());
        assert_eq!(
            std::fs::metadata(dir.join(JOURNAL_FILE))
                .expect("journal file exists")
                .len(),
            0
        );
        // The appender must follow the truncated file, not the orphaned
        // pre-rename handle.
        journal.record(key(2), 0, &ok_outcome(2.0));
        drop(journal);
        let journal = SweepJournal::open(&dir).expect("reopen journal");
        assert_eq!(journal.len(), 1);
        assert_eq!(journal.lookup(key(2), 0), Some(ok_outcome(2.0)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_quarantined_and_intact_entries_survive() {
        let dir = temp_dir("torn");
        {
            let journal = SweepJournal::open(&dir).expect("open journal");
            journal.record(key(1), 0, &ok_outcome(1.0));
            journal.record(key(1), 1, &ok_outcome(2.0));
        }
        // Tear the last line in half, as a kill -9 mid-write would.
        let path = dir.join(JOURNAL_FILE);
        let body = std::fs::read_to_string(&path).expect("read journal");
        let keep = body.lines().next().expect("first line");
        let tear = body.lines().nth(1).expect("second line");
        std::fs::write(&path, format!("{keep}\n{}", &tear[..tear.len() / 2]))
            .expect("write torn journal");
        {
            let journal = SweepJournal::open(&dir).expect("open torn journal");
            assert_eq!(journal.len(), 1);
            assert_eq!(journal.lookup(key(1), 0), Some(ok_outcome(1.0)));
            assert!(journal.lookup(key(1), 1).is_none());
            assert_eq!(journal.take_accounting().quarantined, 1);
        }
        let qbody = std::fs::read_to_string(dir.join(QUARANTINE_DIR).join(JOURNAL_FILE))
            .expect("quarantine file exists");
        assert_eq!(qbody.lines().count(), 1);
        // The compaction pass removed the torn line from the live file.
        let journal = SweepJournal::open(&dir).expect("reopen journal");
        assert_eq!(journal.take_accounting().quarantined, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_lines_load_and_are_resealed() {
        let dir = temp_dir("legacy");
        std::fs::create_dir_all(&dir).expect("create dir");
        let line = encode_entry(key(1), 0, &ok_outcome(1.0));
        std::fs::write(dir.join(JOURNAL_FILE), format!("{line}\n")).expect("write legacy file");
        {
            let journal = SweepJournal::open(&dir).expect("open legacy journal");
            assert_eq!(journal.lookup(key(1), 0), Some(ok_outcome(1.0)));
            assert_eq!(journal.take_accounting().quarantined, 0);
        }
        let body = std::fs::read_to_string(dir.join(JOURNAL_FILE)).expect("read journal");
        assert_eq!(
            atomic::unseal(body.lines().next().expect("one line")),
            atomic::Unsealed::Verified(line.as_str())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_journal_is_inert() {
        let journal = SweepJournal::disabled();
        journal.record(key(1), 0, &ok_outcome(1.0));
        assert!(journal.lookup(key(1), 0).is_none());
        assert!(!journal.is_enabled());
        assert!(journal.path().is_none());
        journal.clear();
        assert_eq!(journal.take_accounting(), JournalAccounting::default());
    }
}
