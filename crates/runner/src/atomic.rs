//! Crash-safe file I/O primitives for the cache and the sweep journal.
//!
//! Two write paths, two guarantees:
//!
//! * [`write_atomic`] — full-file replacement via tmp-file + fsync +
//!   rename (+ best-effort directory fsync). A reader never observes a
//!   half-written file: it sees either the old contents or the new ones.
//!   Used for compaction/truncation of the JSONL stores.
//! * [`DurableAppender`] — append-only writes of *sealed* lines. Each
//!   line carries a length + FNV-1a-64 checksum footer
//!   (`payload|<len>|<16 hex>`), so a torn tail from a killed process —
//!   or a bit flip from a bad disk — is *detected* on reload instead of
//!   silently mis-deserializing. [`DurableAppender::append_synced`]
//!   additionally fsyncs, for entries that later writes assume durable
//!   (the cache entries a journal truncation relies on).
//!
//! [`unseal`] classifies a line three ways: [`Unsealed::Verified`]
//! (footer present and checks out — the payload is intact),
//! [`Unsealed::Legacy`] (no recognizable footer — a pre-footer line;
//! the caller may still try to parse it), and [`Unsealed::Corrupt`]
//! (footer present but the length or checksum mismatches). Truncated
//! sealed lines lose their footer and surface as `Legacy` payloads that
//! then fail to parse — either road leads to quarantine, never to a
//! poisoned store.
//!
//! [`load_store`] is the one loader of both stores built on these: it
//! reads a store back, quarantines what does not verify and parse, and
//! compacts the live file.
//!
//! This module is the only place in `staleload-runner` allowed to open
//! files for writing: the `atomic-io` lint rule fails any direct
//! `File::create` / `OpenOptions` / `fs::write` elsewhere in the crate.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::hash::Hash;
use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};

/// Directory (inside a store's directory) that damaged lines are moved
/// to, preserved verbatim for post-mortems.
pub const QUARANTINE_DIR: &str = "quarantine";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a-64 of `bytes` (the footer checksum).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Appends the length + checksum footer to `payload`:
/// `payload|<len decimal>|<fnv1a 16 hex>`.
#[must_use]
pub fn seal(payload: &str) -> String {
    format!(
        "{payload}|{}|{:016x}",
        payload.len(),
        fnv1a(payload.as_bytes())
    )
}

/// The three ways a stored line can read back — see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unsealed<'a> {
    /// Footer present, length and checksum verified: the payload is
    /// exactly what was written.
    Verified(&'a str),
    /// No recognizable footer (a line written before footers existed,
    /// or a sealed line truncated inside its footer). The caller may
    /// attempt to parse the raw line.
    Legacy(&'a str),
    /// Footer present but the length or checksum mismatches: the line
    /// was damaged after it was written.
    Corrupt,
}

/// Verifies a sealed line's footer; see [`Unsealed`] for the outcomes.
#[must_use]
pub fn unseal(line: &str) -> Unsealed<'_> {
    let Some(hash_at) = line.rfind('|') else {
        return Unsealed::Legacy(line);
    };
    let hash_field = &line[hash_at + 1..];
    let Some(len_at) = line[..hash_at].rfind('|') else {
        return Unsealed::Legacy(line);
    };
    let len_field = &line[len_at + 1..hash_at];
    let footer_shaped = hash_field.len() == 16
        && hash_field.bytes().all(|b| b.is_ascii_hexdigit())
        && !len_field.is_empty()
        && len_field.len() <= 12
        && len_field.bytes().all(|b| b.is_ascii_digit());
    if !footer_shaped {
        return Unsealed::Legacy(line);
    }
    let payload = &line[..len_at];
    let (Ok(len), Ok(hash)) = (
        len_field.parse::<usize>(),
        u64::from_str_radix(hash_field, 16),
    ) else {
        return Unsealed::Legacy(line);
    };
    if len != payload.len() || hash != fnv1a(payload.as_bytes()) {
        return Unsealed::Corrupt;
    }
    Unsealed::Verified(payload)
}

/// Replaces `path` atomically with `contents`: write a sibling tmp
/// file, fsync it, rename over `path`, then fsync the directory
/// (best-effort — some filesystems refuse directory fsync).
///
/// # Errors
///
/// Returns the I/O error of the failing step; a leftover tmp file is
/// cleaned up on the way out.
pub fn write_atomic(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let name = path
        .file_name()
        .ok_or_else(|| std::io::Error::other("write_atomic: path has no file name"))?;
    let tmp = dir.join(format!(
        ".{}.tmp.{}",
        name.to_string_lossy(),
        std::process::id()
    ));
    let write = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(contents)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)
    })();
    if write.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return write;
    }
    if let Ok(d) = File::open(&dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// A sealed JSONL store as [`load_store`] read it back.
#[derive(Debug)]
pub struct Loaded<K, V> {
    /// The intact entries, by key (a later line wins over an earlier one).
    pub entries: HashMap<K, V>,
    /// Damaged lines moved to quarantine.
    pub quarantined: u64,
    /// The live file, open for appends.
    pub appender: DurableAppender,
}

/// Opens the sealed JSONL store `dir/<file>`, creating both if needed,
/// and reads its entries back with `parse`.
///
/// Sealed lines load when their footer verifies, legacy (unfootered)
/// lines when they parse; blank lines are skipped. Every other line is
/// copied verbatim to `dir/quarantine/<file>` with a warning. When any
/// line was damaged or legacy, the live file is rewritten atomically
/// from the intact entries, sealed with `encode` in key order, so damage
/// is not quarantined again on the next open and legacy lines gain
/// footers.
///
/// # Errors
///
/// Returns the I/O error if the directory or file cannot be created.
pub fn load_store<K, V>(
    dir: &Path,
    file: &str,
    parse: impl Fn(&str) -> Option<(K, V)>,
    encode: impl Fn(&K, &V) -> String,
) -> std::io::Result<Loaded<K, V>>
where
    K: Hash + Ord,
{
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file);
    let mut entries = HashMap::new();
    let mut bad: Vec<String> = Vec::new();
    let mut legacy = 0usize;
    if let Ok(f) = File::open(&path) {
        for line in BufReader::new(f).lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                // A stray blank line is noise, not damage.
                continue;
            }
            let parsed = match unseal(&line) {
                Unsealed::Verified(payload) => parse(payload),
                Unsealed::Legacy(raw) => parse(raw).inspect(|_| legacy += 1),
                Unsealed::Corrupt => None,
            };
            match parsed {
                Some((key, value)) => {
                    entries.insert(key, value);
                }
                None => bad.push(line),
            }
        }
    }

    if !bad.is_empty() {
        let qpath = dir.join(QUARANTINE_DIR).join(file);
        let entr = if bad.len() == 1 { "entry" } else { "entries" };
        match DurableAppender::open(&qpath) {
            Ok(mut q) => {
                for line in &bad {
                    let _ = q.append_raw(line);
                }
                eprintln!(
                    "warning: quarantined {} damaged {entr} of {} to {} (they will be recomputed)",
                    bad.len(),
                    path.display(),
                    qpath.display()
                );
            }
            Err(e) => eprintln!(
                "warning: {} damaged {entr} of {} dropped (quarantine at {} failed: {e})",
                bad.len(),
                path.display(),
                qpath.display()
            ),
        }
    }
    if !bad.is_empty() || legacy > 0 {
        let mut sorted: Vec<(&K, &V)> = entries.iter().collect();
        sorted.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut body = String::new();
        for (key, value) in sorted {
            body.push_str(&seal(&encode(key, value)));
            body.push('\n');
        }
        if let Err(e) = write_atomic(&path, body.as_bytes()) {
            eprintln!("warning: failed to compact {}: {e}", path.display());
        }
    }

    Ok(Loaded {
        entries,
        quarantined: bad.len() as u64,
        appender: DurableAppender::open(&path)?,
    })
}

/// An append-only writer of sealed (checksummed) JSONL lines.
#[derive(Debug)]
pub struct DurableAppender {
    file: File,
    path: PathBuf,
}

impl DurableAppender {
    /// Opens `path` for appending, creating parent directories and the
    /// file as needed.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directories or file cannot be
    /// created.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
        })
    }

    /// The file being appended to.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one sealed line (payload + checksum footer + newline) in
    /// a single write. Not fsynced: a crash may lose the tail, but the
    /// footer guarantees a torn tail is detected — never misread.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the write.
    pub fn append(&mut self, payload: &str) -> std::io::Result<()> {
        let mut line = seal(payload);
        line.push('\n');
        self.file.write_all(line.as_bytes())
    }

    /// Appends one sealed line and fsyncs it, for entries other state
    /// transitions assume durable (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the write or the fsync.
    pub fn append_synced(&mut self, payload: &str) -> std::io::Result<()> {
        self.append(payload)?;
        self.file.sync_data()
    }

    /// Appends one raw (pre-formed, possibly damaged) line verbatim —
    /// the quarantine path preserves corrupt lines exactly as found.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the write.
    pub fn append_raw(&mut self, line: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(line.len() + 1);
        out.push_str(line);
        out.push('\n');
        self.file.write_all(out.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_then_unseal_verifies() {
        for payload in ["", "{}", "{\"k\":1}", "has|pipes|inside", "λ≈0.9 ✓"] {
            let line = seal(payload);
            assert_eq!(unseal(&line), Unsealed::Verified(payload), "{payload}");
        }
    }

    #[test]
    fn truncated_sealed_lines_never_verify_as_other_content() {
        let payload = "{\"key\":\"abc\",\"result\":{\"mean\":1.5}}";
        let line = seal(payload);
        for cut in 1..line.len() {
            match unseal(&line[..cut]) {
                // A prefix may still look legacy or corrupt, but if it
                // verifies it must be a prefix that *is* the payload —
                // impossible here because the footer encodes the length.
                Unsealed::Verified(p) => {
                    assert_eq!(p, payload, "cut at {cut} verified wrong payload")
                }
                Unsealed::Legacy(_) | Unsealed::Corrupt => {}
            }
        }
    }

    #[test]
    fn bit_flips_are_corrupt() {
        let line = seal("{\"key\":\"abc\",\"trial\":3}");
        let mut bytes = line.clone().into_bytes();
        // Flip a payload byte; the footer no longer matches.
        bytes[2] ^= 0x01;
        let flipped = String::from_utf8(bytes).expect("ascii survives the flip");
        assert_eq!(unseal(&flipped), Unsealed::Corrupt);
    }

    #[test]
    fn unfootered_lines_read_as_legacy() {
        assert_eq!(unseal("{\"key\":1}"), Unsealed::Legacy("{\"key\":1}"));
        assert_eq!(unseal(""), Unsealed::Legacy(""));
    }

    #[test]
    fn write_atomic_replaces_contents() {
        let dir = std::env::temp_dir().join(format!("staleload-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("store.jsonl");
        write_atomic(&path, b"first\n").expect("first write");
        assert_eq!(std::fs::read(&path).expect("read back"), b"first\n");
        write_atomic(&path, b"second\n").expect("replace");
        assert_eq!(std::fs::read(&path).expect("read back"), b"second\n");
        // No tmp litter left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("list dir")
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn appender_lines_round_trip() {
        let dir = std::env::temp_dir().join(format!("staleload-append-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("log.jsonl");
        {
            let mut a = DurableAppender::open(&path).expect("open appender");
            a.append("{\"a\":1}").expect("append");
            a.append_synced("{\"b\":2}").expect("append synced");
        }
        let body = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(unseal(lines[0]), Unsealed::Verified("{\"a\":1}"));
        assert_eq!(unseal(lines[1]), Unsealed::Verified("{\"b\":2}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
