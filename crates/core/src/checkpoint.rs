//! Text-serialized stage checkpoints for crash/resume.
//!
//! Each pipeline stage writes its outputs as one `key = value` text file
//! (the same human-auditable idiom as [`crate::spec`]), atomically
//! (temp-file + rename), into a checkpoint directory. A resumed run loads
//! the files that exist, verifies the stored config matches, and recomputes
//! only from the first missing stage.
//!
//! Values are single-line escaped strings; multi-record payloads (labeled
//! pairs, match-id sets) encode one record per escaped line with
//! tab-separated fields. Floats are written with `{:?}`, which Rust
//! guarantees round-trips through `parse::<f64>()` exactly — checkpointed
//! and recomputed numbers are bit-identical, not merely close.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::error::CoreError;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// File extension of a stage checkpoint.
const EXT: &str = "ckpt";

/// An ordered `key = value` bag for one stage's outputs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checkpoint {
    entries: BTreeMap<String, String>,
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            _ => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> Result<String, CoreError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            other => {
                return Err(CoreError::Checkpoint(format!(
                    "bad escape \\{} in checkpoint value",
                    other.map(String::from).unwrap_or_default()
                )))
            }
        }
    }
    Ok(out)
}

impl Checkpoint {
    /// An empty checkpoint.
    pub fn new() -> Checkpoint {
        Checkpoint::default()
    }

    /// Stores a string value under `key`.
    pub fn put(&mut self, key: &str, value: impl AsRef<str>) {
        self.entries.insert(key.to_string(), value.as_ref().to_string());
    }

    /// Stores any `Display` value (integers, bools).
    pub fn put_display(&mut self, key: &str, value: impl std::fmt::Display) {
        self.put(key, value.to_string());
    }

    /// Stores a float via `{:?}` so it round-trips bit-exactly.
    pub fn put_f64(&mut self, key: &str, value: f64) {
        self.put(key, format!("{value:?}"));
    }

    /// Stores a list of records, each a slice of tab-joined fields.
    /// Fields must not contain tabs (escaping handles newlines).
    pub fn put_records(&mut self, key: &str, records: &[Vec<String>]) {
        let text =
            records.iter().map(|r| r.join("\t")).collect::<Vec<_>>().join("\n");
        self.put(key, text);
    }

    /// The raw string under `key`, or a checkpoint error naming it.
    pub fn get(&self, key: &str) -> Result<&str, CoreError> {
        self.entries
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| CoreError::Checkpoint(format!("missing key {key:?}")))
    }

    /// Parses the value under `key` with `FromStr`.
    pub fn get_parsed<T>(&self, key: &str) -> Result<T, CoreError>
    where
        T: std::str::FromStr,
    {
        let raw = self.get(key)?;
        raw.parse::<T>().map_err(|_| {
            CoreError::Checkpoint(format!("key {key:?} holds unparseable value {raw:?}"))
        })
    }

    /// The records stored by [`Checkpoint::put_records`], split back into
    /// fields. An empty value decodes as zero records.
    pub fn get_records(&self, key: &str) -> Result<Vec<Vec<String>>, CoreError> {
        let raw = self.get(key)?;
        if raw.is_empty() {
            return Ok(Vec::new());
        }
        Ok(raw
            .split('\n')
            .map(|line| line.split('\t').map(String::from).collect())
            .collect())
    }

    /// Serializes to `key = value` text (escaped, sorted by key).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.entries {
            out.push_str(k);
            out.push_str(" = ");
            out.push_str(&escape(v));
            out.push('\n');
        }
        out
    }

    /// Parses `key = value` text back into a checkpoint.
    pub fn from_text(text: &str) -> Result<Checkpoint, CoreError> {
        let mut entries = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let (k, v) = line.split_once(" = ").ok_or_else(|| {
                CoreError::Checkpoint(format!("line {}: expected `key = value`", i + 1))
            })?;
            entries.insert(k.to_string(), unescape(v)?);
        }
        Ok(Checkpoint { entries })
    }

    /// The checkpoint file path for a stage.
    pub fn path_for(dir: &Path, stage: &str) -> PathBuf {
        dir.join(format!("{stage}.{EXT}"))
    }

    /// Writes this checkpoint for `stage` atomically: the full text goes to
    /// a temp file first, then a rename makes it visible — a crash mid-write
    /// leaves either the old checkpoint or none, never a torn one.
    pub fn save(&self, dir: &Path, stage: &str) -> Result<(), CoreError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| CoreError::Checkpoint(format!("create {dir:?}: {e}")))?;
        let final_path = Self::path_for(dir, stage);
        let tmp_path = dir.join(format!("{stage}.{EXT}.tmp"));
        std::fs::write(&tmp_path, self.to_text())
            .map_err(|e| CoreError::Checkpoint(format!("write {tmp_path:?}: {e}")))?;
        std::fs::rename(&tmp_path, &final_path)
            .map_err(|e| CoreError::Checkpoint(format!("rename to {final_path:?}: {e}")))?;
        Ok(())
    }

    /// Loads the checkpoint for `stage`, `None` when the file does not
    /// exist (the stage has not completed).
    pub fn load(dir: &Path, stage: &str) -> Result<Option<Checkpoint>, CoreError> {
        let path = Self::path_for(dir, stage);
        match std::fs::read_to_string(&path) {
            Ok(text) => Ok(Some(Checkpoint::from_text(&text)?)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(CoreError::Checkpoint(format!("read {path:?}: {e}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir()
            .join(format!("em-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn text_round_trip_preserves_everything() {
        let mut cp = Checkpoint::new();
        cp.put("plain", "hello world");
        cp.put("tricky", "line1\nline2\ttabbed\\slashed\r");
        cp.put_display("count", 42usize);
        cp.put_f64("pi", std::f64::consts::PI);
        cp.put_f64("tiny", 1e-300);
        cp.put_records(
            "pairs",
            &[vec!["10.200 W1".into(), "100".into()], vec!["10.203 X2".into(), "200".into()]],
        );
        let back = Checkpoint::from_text(&cp.to_text()).unwrap();
        assert_eq!(back, cp);
        assert_eq!(back.get("tricky").unwrap(), "line1\nline2\ttabbed\\slashed\r");
        assert_eq!(back.get_parsed::<usize>("count").unwrap(), 42);
        let pi: f64 = back.get_parsed("pi").unwrap();
        assert_eq!(pi.to_bits(), std::f64::consts::PI.to_bits(), "bit-exact float round-trip");
        let tiny: f64 = back.get_parsed("tiny").unwrap();
        assert_eq!(tiny.to_bits(), 1e-300f64.to_bits());
        assert_eq!(back.get_records("pairs").unwrap().len(), 2);
        assert_eq!(back.get_records("pairs").unwrap()[0][0], "10.200 W1");
    }

    #[test]
    fn empty_records_round_trip() {
        let mut cp = Checkpoint::new();
        cp.put_records("none", &[]);
        let back = Checkpoint::from_text(&cp.to_text()).unwrap();
        assert!(back.get_records("none").unwrap().is_empty());
    }

    #[test]
    fn missing_key_and_bad_value_are_named_errors() {
        let cp = Checkpoint::new();
        let err = cp.get("absent").unwrap_err();
        assert!(err.to_string().contains("absent"), "{err}");
        let mut cp = Checkpoint::new();
        cp.put("n", "not-a-number");
        assert!(cp.get_parsed::<usize>("n").is_err());
        assert!(Checkpoint::from_text("no separator here\n").is_err());
    }

    #[test]
    fn save_load_cycle_and_missing_stage() {
        let dir = tmpdir("saveload");
        let mut cp = Checkpoint::new();
        cp.put("k", "v");
        cp.save(&dir, "blocking").unwrap();
        let loaded = Checkpoint::load(&dir, "blocking").unwrap().unwrap();
        assert_eq!(loaded, cp);
        assert!(Checkpoint::load(&dir, "labeling").unwrap().is_none());
        // Overwrite is atomic-replace, not append.
        let mut cp2 = Checkpoint::new();
        cp2.put("k", "v2");
        cp2.save(&dir, "blocking").unwrap();
        assert_eq!(
            Checkpoint::load(&dir, "blocking").unwrap().unwrap().get("k").unwrap(),
            "v2"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
