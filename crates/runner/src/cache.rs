//! Content-addressed result cache, persisted as checksummed JSONL.
//!
//! One line per cached point: `{"key":"<32 hex>","result":{…}}`, sealed
//! with a length + FNV checksum footer (see [`crate::atomic`]) and
//! appended through the atomic writer — every entry is fsynced before
//! `put` returns, because the sweep journal truncates itself on the
//! assumption that aggregated results are already durable here.
//!
//! On load, damaged lines — a truncated tail from a killed run, a bit
//! flip, a zero-length entry — are **quarantined**: preserved verbatim
//! under `<cache dir>/quarantine/` for post-mortems, dropped from the
//! live file by an atomic compaction rewrite, and transparently
//! recomputed by the next sweep. Corruption costs a recompute, never an
//! abort and never a silently wrong result.
//!
//! The serializer round-trips every value bit-exactly (`f64`s via
//! shortest-roundtrip `Debug` formatting, `u64` seeds as raw integer
//! tokens — see [`crate::codec`]).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use staleload_core::{Diagnostic, ExperimentResult, TailSummary, TrialFailure};
use staleload_stats::{Summary, TailSketch};

use crate::atomic::{self, DurableAppender};
use crate::codec::{self, Json};
use crate::PointKey;

/// File name of the cache inside the cache directory.
pub const CACHE_FILE: &str = "cache.jsonl";

/// Hit/miss counters, reset per figure by the sweep runner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheAccounting {
    /// Points served from the cache.
    pub hits: u64,
    /// Points that had to be computed.
    pub misses: u64,
    /// Damaged lines quarantined when the cache was opened.
    pub quarantined: u64,
}

/// A content-addressed map from [`PointKey`] to [`ExperimentResult`],
/// persisted by appending one sealed JSONL line per insert.
pub struct ResultCache {
    /// `None` when caching is disabled (`--no-cache`).
    appender: Option<DurableAppender>,
    path: Option<PathBuf>,
    map: HashMap<PointKey, ExperimentResult>,
    accounting: CacheAccounting,
    write_error_reported: bool,
}

impl ResultCache {
    /// Opens (creating if needed) the cache under `dir`.
    ///
    /// Every line of `dir/cache.jsonl` is checksum-verified and parsed;
    /// damaged lines are moved to `dir/quarantine/cache.jsonl` and the
    /// live file is compacted with an atomic rewrite. Unsealed lines
    /// from a pre-footer cache still load (and are re-sealed by the
    /// same compaction). See [`atomic::load_store`].
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory or file cannot be created.
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        let store = atomic::load_store(dir, CACHE_FILE, parse_line, |&key, result| {
            encode_line(key, result)
        })?;
        Ok(Self {
            path: Some(store.appender.path().to_path_buf()),
            appender: Some(store.appender),
            map: store.entries,
            accounting: CacheAccounting {
                quarantined: store.quarantined,
                ..CacheAccounting::default()
            },
            write_error_reported: false,
        })
    }

    /// A cache that never hits and never persists (`--no-cache`).
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            appender: None,
            path: None,
            map: HashMap::new(),
            accounting: CacheAccounting::default(),
            write_error_reported: false,
        }
    }

    /// Whether lookups can ever hit.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.path.is_some()
    }

    /// Path of the backing JSONL file, when enabled.
    #[must_use]
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Number of entries currently loaded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks `key` up, counting a hit or miss.
    pub fn get(&mut self, key: PointKey) -> Option<ExperimentResult> {
        let found = self.map.get(&key).cloned();
        if found.is_some() {
            self.accounting.hits += 1;
        } else {
            self.accounting.misses += 1;
        }
        found
    }

    /// Stores `key → result` in memory and appends it, sealed and
    /// fsynced, to the JSONL file. A disabled cache ignores the call; a
    /// failing append is reported once and otherwise ignored (the run
    /// itself must not fail).
    pub fn put(&mut self, key: PointKey, result: &ExperimentResult) {
        if self.path.is_none() {
            return;
        }
        self.map.insert(key, result.clone());
        if let Some(appender) = self.appender.as_mut() {
            let line = encode_line(key, result);
            if appender.append_synced(&line).is_err() && !self.write_error_reported {
                self.write_error_reported = true;
                eprintln!(
                    "warning: failed to append to result cache {:?}; continuing without persistence",
                    self.path
                );
            }
        }
    }

    /// Returns and resets the hit/miss counters (called per figure).
    pub fn take_accounting(&mut self) -> CacheAccounting {
        std::mem::take(&mut self.accounting)
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn encode_line(key: PointKey, result: &ExperimentResult) -> String {
    let mut out = String::with_capacity(256);
    let _ = write!(out, "{{\"key\":\"{key}\",\"result\":");
    encode_result(&mut out, result);
    out.push('}');
    out
}

pub(crate) fn encode_result(out: &mut String, r: &ExperimentResult) {
    out.push_str("{\"trial_means\":[");
    for (i, m) in r.trial_means.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{m:?}");
    }
    let s = &r.summary;
    let _ = write!(
        out,
        "],\"summary\":{{\"trials\":{},\"mean\":{:?},\"stddev\":{:?},\"ci90\":{:?},\"min\":{:?},\"q1\":{:?},\"median\":{:?},\"q3\":{:?},\"max\":{:?}}}",
        s.trials, s.mean, s.stddev, s.ci90, s.min, s.q1, s.median, s.q3, s.max
    );
    out.push_str(",\"tail\":");
    encode_tail(out, &r.tail);
    let _ = write!(out, ",\"history_misses\":{}", r.history_misses);
    out.push_str(",\"failures\":[");
    for (i, f) in r.failures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        encode_failure(out, f);
    }
    out.push_str("],\"diagnostics\":[");
    for (i, d) in r.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        encode_diagnostic(out, d);
    }
    out.push_str("]}");
}

pub(crate) fn encode_tail(out: &mut String, t: &TailSummary) {
    let _ = write!(
        out,
        "{{\"p50\":{:?},\"p99\":{:?},\"p999\":{:?},\"max\":{:?},\"count\":{}}}",
        t.p50, t.p99, t.p999, t.max, t.count
    );
}

/// Encodes a [`TailSketch`] as either its exact multiset
/// (`{"cap":N,"exact":[…]}`) or its compacted bucket counts
/// (`{"cap":N,"count":C,"min":m,"max":M,"buckets":[[i,c],…]}`).
/// Both forms round-trip bit-exactly: values use shortest-roundtrip
/// `Debug` floats and counts stay integer tokens.
pub(crate) fn encode_sketch(out: &mut String, s: &TailSketch) {
    let _ = write!(out, "{{\"cap\":{}", s.cap());
    if let Some(values) = s.exact_values() {
        out.push_str(",\"exact\":[");
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v:?}");
        }
        out.push(']');
    } else if let Some(entries) = s.bucket_entries() {
        let _ = write!(
            out,
            ",\"count\":{},\"min\":{:?},\"max\":{:?},\"buckets\":[",
            s.count(),
            s.min(),
            s.max()
        );
        for (i, (bucket, count)) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{bucket},{count}]");
        }
        out.push(']');
    }
    out.push('}');
}

pub(crate) fn encode_failure(out: &mut String, f: &TrialFailure) {
    let _ = write!(
        out,
        "{{\"trial\":{},\"seed\":{},\"error\":",
        f.trial, f.seed
    );
    codec::encode_str(out, &f.error);
    out.push('}');
}

pub(crate) fn encode_diagnostic(out: &mut String, d: &Diagnostic) {
    out.push_str("{\"code\":");
    codec::encode_str(out, d.code);
    out.push_str(",\"message\":");
    codec::encode_str(out, &d.message);
    out.push('}');
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

pub(crate) fn parse_key(hex: &str) -> Option<PointKey> {
    if hex.len() != 32 {
        return None;
    }
    let hi = u64::from_str_radix(&hex[..16], 16).ok()?;
    let lo = u64::from_str_radix(&hex[16..], 16).ok()?;
    Some(PointKey::from_halves(hi, lo))
}

fn parse_line(line: &str) -> Option<(PointKey, ExperimentResult)> {
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    let doc = codec::parse(line)?;
    let key = parse_key(doc.get("key")?.as_str()?)?;
    let result = decode_result(doc.get("result")?)?;
    Some((key, result))
}

pub(crate) fn decode_result(v: &Json) -> Option<ExperimentResult> {
    let trial_means = v
        .get("trial_means")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect::<Option<Vec<_>>>()?;
    let s = v.get("summary")?;
    let summary = Summary {
        trials: s.get("trials")?.as_usize()?,
        mean: s.get("mean")?.as_f64()?,
        stddev: s.get("stddev")?.as_f64()?,
        ci90: s.get("ci90")?.as_f64()?,
        min: s.get("min")?.as_f64()?,
        q1: s.get("q1")?.as_f64()?,
        median: s.get("median")?.as_f64()?,
        q3: s.get("q3")?.as_f64()?,
        max: s.get("max")?.as_f64()?,
    };
    let failures = v
        .get("failures")?
        .as_arr()?
        .iter()
        .map(decode_failure)
        .collect::<Option<Vec<_>>>()?;
    let diagnostics = v
        .get("diagnostics")?
        .as_arr()?
        .iter()
        .map(decode_diagnostic)
        .collect::<Option<Vec<_>>>()?;
    Some(ExperimentResult {
        trial_means,
        summary,
        tail: decode_tail(v.get("tail")?)?,
        history_misses: v.get("history_misses")?.as_u64()?,
        failures,
        diagnostics,
    })
}

pub(crate) fn decode_tail(t: &Json) -> Option<TailSummary> {
    Some(TailSummary {
        p50: t.get("p50")?.as_f64()?,
        p99: t.get("p99")?.as_f64()?,
        p999: t.get("p999")?.as_f64()?,
        max: t.get("max")?.as_f64()?,
        count: t.get("count")?.as_u64()?,
    })
}

pub(crate) fn decode_sketch(s: &Json) -> Option<TailSketch> {
    let cap = s.get("cap")?.as_usize()?;
    if let Some(exact) = s.get("exact") {
        let values = exact
            .as_arr()?
            .iter()
            .map(Json::as_f64)
            .collect::<Option<Vec<_>>>()?;
        return TailSketch::from_exact_parts(cap, values).ok();
    }
    let entries = s
        .get("buckets")?
        .as_arr()?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr()?;
            if pair.len() != 2 {
                return None;
            }
            Some((pair[0].as_usize()?, pair[1].as_u64()?))
        })
        .collect::<Option<Vec<_>>>()?;
    TailSketch::from_bucket_parts(
        cap,
        &entries,
        s.get("count")?.as_u64()?,
        s.get("min")?.as_f64()?,
        s.get("max")?.as_f64()?,
    )
    .ok()
}

pub(crate) fn decode_failure(f: &Json) -> Option<TrialFailure> {
    Some(TrialFailure {
        trial: f.get("trial")?.as_usize()?,
        seed: f.get("seed")?.as_u64()?,
        error: f.get("error")?.as_str()?.to_string(),
    })
}

pub(crate) fn decode_diagnostic(d: &Json) -> Option<Diagnostic> {
    Some(Diagnostic {
        code: codec::intern_code(d.get("code")?.as_str()?),
        message: d.get("message")?.as_str()?.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::{Unsealed, QUARANTINE_DIR};

    fn sample_result() -> ExperimentResult {
        let trial_means = vec![1.5, 0.1 + 0.2, f64::from_bits(0x3FF5_5555_5555_5555)];
        let mut sketch = TailSketch::new(64);
        for &m in &trial_means {
            sketch.record(m);
        }
        ExperimentResult {
            summary: Summary::from_trials(&trial_means),
            tail: TailSummary::from_sketch(&sketch),
            trial_means,
            history_misses: 3,
            failures: vec![TrialFailure {
                trial: 7,
                // Above 2^53: corrupts if routed through f64.
                seed: 0xDEAD_BEEF_CAFE_F00D,
                error: "panicked: \"quoted\"\nand a newline\tand a tab \\".to_string(),
            }],
            diagnostics: vec![Diagnostic {
                code: "history-misses",
                message: "3 misses — unicode survives: λ≈0.9 ✓".to_string(),
            }],
        }
    }

    fn sample_key() -> PointKey {
        PointKey::from_halves(0x0123_4567_89AB_CDEF, 0xFEDC_BA98_7654_3210)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "staleload-cache-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn line_round_trips_bit_exactly() {
        let result = sample_result();
        let line = encode_line(sample_key(), &result);
        let (key, decoded) = parse_line(&line).expect("line parses");
        assert_eq!(key, sample_key());
        assert_eq!(decoded, result);
        for (a, b) in decoded.trial_means.iter().zip(&result.trial_means) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(decoded.failures[0].seed, result.failures[0].seed);
    }

    #[test]
    fn tail_summary_round_trips_including_empty() {
        // A populated tail and the all-NaN empty tail both survive the
        // codec bit for bit (bit-level PartialEq on TailSummary).
        for tail in [sample_result().tail, TailSummary::empty()] {
            let mut out = String::new();
            encode_tail(&mut out, &tail);
            let doc = codec::parse(&out).expect("tail parses");
            assert_eq!(decode_tail(&doc).expect("tail decodes"), tail);
        }
    }

    #[test]
    fn sketch_round_trips_in_both_modes() {
        // Exact mode: a handful of awkward values under the cap.
        let mut exact = TailSketch::new(16);
        for v in [0.1 + 0.2, 1.0e-9, 5.0e7, 3.75, -0.0] {
            exact.record(v);
        }
        // Compacted mode: enough values to cross the cap.
        let mut compacted = TailSketch::new(8);
        for i in 0..200 {
            compacted.record(0.01 * f64::from(i) + 0.005);
        }
        assert!(exact.is_exact());
        assert!(!compacted.is_exact());
        for sketch in [exact, compacted] {
            let mut out = String::new();
            encode_sketch(&mut out, &sketch);
            let doc = codec::parse(&out).expect("sketch parses");
            assert_eq!(decode_sketch(&doc).expect("sketch decodes"), sketch);
        }
    }

    #[test]
    fn exact_sketch_line_is_the_sorted_multiset() {
        // Whatever the record order, an exact sketch's cache line lists
        // its values in `f64::total_cmp` order, byte for byte.
        let values = [0.1 + 0.2, 1.0e-9, 5.0e7, 3.75, -0.0, 3.75];
        for order in [[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0], [3, 0, 4, 5, 2, 1]] {
            let mut sketch = TailSketch::new(16);
            for i in order {
                sketch.record(values[i]);
            }
            let mut out = String::new();
            encode_sketch(&mut out, &sketch);
            assert_eq!(
                out,
                r#"{"cap":16,"exact":[-0.0,1e-9,0.30000000000000004,3.75,3.75,50000000.0]}"#
            );
        }
    }

    #[test]
    fn f64_specials_round_trip() {
        let mut result = sample_result();
        result.trial_means = vec![f64::INFINITY, f64::NEG_INFINITY, -0.0];
        result.summary.stddev = f64::NAN;
        let line = encode_line(sample_key(), &result);
        let (_, decoded) = parse_line(&line).expect("line parses");
        assert_eq!(decoded.trial_means[0], f64::INFINITY);
        assert_eq!(decoded.trial_means[1], f64::NEG_INFINITY);
        assert_eq!(decoded.trial_means[2].to_bits(), (-0.0f64).to_bits());
        assert!(decoded.summary.stddev.is_nan());
    }

    #[test]
    fn corrupt_lines_are_skipped() {
        for line in [
            "",
            "not json",
            "{\"key\":\"short\",\"result\":{}}",
            "{\"key\":\"0123456789abcdef0123456789abcdef\"}",
            // Truncated mid-object, as a killed process would leave.
            "{\"key\":\"0123456789abcdef0123456789abcdef\",\"result\":{\"trial_means\":[1.0",
        ] {
            assert!(parse_line(line).is_none(), "accepted: {line}");
        }
    }

    #[test]
    fn cache_persists_and_reloads() {
        let dir = temp_dir("roundtrip");
        let key = sample_key();
        let result = sample_result();
        {
            let mut cache = ResultCache::open(&dir).expect("open cache");
            assert!(cache.get(key).is_none());
            cache.put(key, &result);
            assert_eq!(cache.get(key).as_ref(), Some(&result));
            let acct = cache.take_accounting();
            assert_eq!((acct.hits, acct.misses), (1, 1));
        }
        {
            let mut cache = ResultCache::open(&dir).expect("reopen cache");
            assert_eq!(cache.len(), 1);
            assert_eq!(cache.get(key).as_ref(), Some(&result));
            assert_eq!(cache.take_accounting().quarantined, 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stored_lines_are_sealed() {
        let dir = temp_dir("sealed");
        {
            let mut cache = ResultCache::open(&dir).expect("open cache");
            cache.put(sample_key(), &sample_result());
        }
        let body = std::fs::read_to_string(dir.join(CACHE_FILE)).expect("read cache file");
        for line in body.lines() {
            assert!(
                matches!(atomic::unseal(line), Unsealed::Verified(_)),
                "unsealed line: {line}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_unsealed_lines_load_and_are_resealed() {
        let dir = temp_dir("legacy");
        std::fs::create_dir_all(&dir).expect("create dir");
        let line = encode_line(sample_key(), &sample_result());
        std::fs::write(dir.join(CACHE_FILE), format!("{line}\n")).expect("write legacy file");
        {
            let mut cache = ResultCache::open(&dir).expect("open legacy cache");
            assert_eq!(cache.len(), 1);
            assert_eq!(cache.get(sample_key()).as_ref(), Some(&sample_result()));
            assert_eq!(cache.take_accounting().quarantined, 0);
        }
        // The compaction pass re-wrote the legacy line sealed.
        let body = std::fs::read_to_string(dir.join(CACHE_FILE)).expect("read cache file");
        assert!(matches!(
            atomic::unseal(body.lines().next().expect("one line")),
            Unsealed::Verified(_)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_lines_are_quarantined_and_compacted_away() {
        let dir = temp_dir("quarantine");
        let key = sample_key();
        let result = sample_result();
        {
            let mut cache = ResultCache::open(&dir).expect("open cache");
            cache.put(key, &result);
        }
        // Damage the store: a torn tail, a zero-length entry, and a
        // bit-flipped copy of a sealed line.
        let path = dir.join(CACHE_FILE);
        let good = std::fs::read_to_string(&path).expect("read cache file");
        let sealed_line = good.lines().next().expect("one line").to_string();
        let mut flipped = sealed_line.clone().into_bytes();
        flipped[10] ^= 0x40;
        let flipped = String::from_utf8_lossy(&flipped).into_owned();
        let torn = &sealed_line[..sealed_line.len() / 2];
        std::fs::write(&path, format!("{sealed_line}\n\n{flipped}\n{torn}"))
            .expect("write damaged file");
        {
            let mut cache = ResultCache::open(&dir).expect("open damaged cache");
            // The intact entry survives; the damage is quarantined
            // (the blank line is noise, not damage).
            assert_eq!(cache.len(), 1);
            assert_eq!(cache.get(key).as_ref(), Some(&result));
            assert_eq!(cache.take_accounting().quarantined, 2);
        }
        let qbody = std::fs::read_to_string(dir.join(QUARANTINE_DIR).join(CACHE_FILE))
            .expect("quarantine file exists");
        assert_eq!(qbody.lines().count(), 2);
        assert!(qbody.contains(torn), "torn line preserved verbatim");
        // The live file was compacted: only the good line, still sealed.
        let body = std::fs::read_to_string(&path).expect("read compacted file");
        assert_eq!(body.lines().count(), 1);
        {
            let mut cache = ResultCache::open(&dir).expect("reopen compacted cache");
            assert_eq!(cache.take_accounting().quarantined, 0);
            assert_eq!(cache.get(key).as_ref(), Some(&result));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_cache_never_hits() {
        let mut cache = ResultCache::disabled();
        let key = sample_key();
        cache.put(key, &sample_result());
        assert!(cache.get(key).is_none());
        assert!(!cache.is_enabled());
    }
}
