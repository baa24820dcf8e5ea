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
//!
//! Typed values go through [`Codec`] (a value under a key) and [`Record`]
//! (fields of one record line); `codec_struct!` / `record_struct!` derive
//! both directions from one list of a struct's fields. A case-study stage
//! output and `config.ckpt` are each one [`Checkpoint::of`] a value.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::error::CoreError;
use std::borrow::Cow;
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

    /// The raw string under `key`, or a checkpoint error naming it.
    pub fn get(&self, key: &str) -> Result<&str, CoreError> {
        self.entries
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| CoreError::Checkpoint(format!("missing key {key:?}")))
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

    /// A checkpoint holding `value` at its top level.
    pub fn of<T: Codec>(value: &T) -> Checkpoint {
        let mut cp = Checkpoint::new();
        value.put(&mut cp, "");
        cp
    }

    /// The value [`Checkpoint::of`] stored.
    pub fn decode<T: Codec>(&self) -> Result<T, CoreError> {
        T::get(self, "")
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

/// The key of field `field` of a value stored under `key` (the empty key
/// is a checkpoint's top level).
pub fn subkey(key: &str, field: &str) -> String {
    if key.is_empty() {
        field.to_string()
    } else {
        format!("{key}.{field}")
    }
}

/// A value stored in a [`Checkpoint`] under a key: a scalar as one entry, a
/// list as one record a line ([`Record`]), a struct as one entry a field,
/// under `key.field`. Decoding never panics: a missing or malformed entry
/// is a [`CoreError::Checkpoint`] naming its key.
pub trait Codec: Sized {
    /// Stores `self` under `key`.
    fn put(&self, cp: &mut Checkpoint, key: &str);
    /// Reads back what [`Codec::put`] stored under `key`.
    fn get(cp: &Checkpoint, key: &str) -> Result<Self, CoreError>;
}

/// The fields of one record line, in order.
pub type Fields<'a> = std::str::Split<'a, char>;

/// A value stored as consecutive tab-separated fields of one record line.
pub trait Record: Sized {
    /// Appends this value's fields (text it holds is borrowed, not copied).
    fn put_fields<'a>(&'a self, out: &mut Vec<Cow<'a, str>>);
    /// Consumes this value's fields, or says what was wrong with them.
    fn take_fields(fields: &mut Fields<'_>) -> Result<Self, String>;
}

/// A value that is one field: its text out, `FromStr` back.
pub trait Scalar: std::str::FromStr {
    /// The text stored for the value.
    fn text(&self) -> Cow<'_, str>;
}

macro_rules! display_scalar {
    ($($ty:ty),*) => {$(
        impl Scalar for $ty {
            fn text(&self) -> Cow<'_, str> {
                Cow::Owned(self.to_string())
            }
        }
    )*};
}
display_scalar!(usize, u32, u64);

impl Scalar for String {
    fn text(&self) -> Cow<'_, str> {
        Cow::Borrowed(self)
    }
}

/// Floats go through `{:?}`, which parses back bit-exactly.
impl Scalar for f64 {
    fn text(&self) -> Cow<'_, str> {
        Cow::Owned(format!("{self:?}"))
    }
}

impl<T: Scalar> Codec for T {
    fn put(&self, cp: &mut Checkpoint, key: &str) {
        cp.put(key, self.text());
    }
    fn get(cp: &Checkpoint, key: &str) -> Result<Self, CoreError> {
        let raw = cp.get(key)?;
        let bad = || CoreError::Checkpoint(format!("key {key:?} holds unparseable value {raw:?}"));
        raw.parse().map_err(|_| bad())
    }
}

impl<T: Scalar> Record for T {
    fn put_fields<'a>(&'a self, out: &mut Vec<Cow<'a, str>>) {
        out.push(self.text());
    }
    fn take_fields(fields: &mut Fields<'_>) -> Result<Self, String> {
        let raw = fields.next().ok_or("too few fields")?;
        raw.parse().map_err(|_| format!("unparseable field {raw:?}"))
    }
}

/// `None` is the empty string.
impl Codec for Option<String> {
    fn put(&self, cp: &mut Checkpoint, key: &str) {
        cp.put(key, self.as_deref().unwrap_or_default());
    }
    fn get(cp: &Checkpoint, key: &str) -> Result<Self, CoreError> {
        let raw = cp.get(key)?;
        Ok((!raw.is_empty()).then(|| raw.to_string()))
    }
}

/// A list is one record a line, its fields tab-separated (so a field must
/// not hold a tab); an empty value is the empty list. A record with fields
/// left over is an error.
impl<T: Record> Codec for Vec<T> {
    fn put(&self, cp: &mut Checkpoint, key: &str) {
        let line = |v: &T| {
            let mut fields = Vec::new();
            v.put_fields(&mut fields);
            fields.join("\t")
        };
        cp.put(key, self.iter().map(line).collect::<Vec<_>>().join("\n"));
    }
    fn get(cp: &Checkpoint, key: &str) -> Result<Self, CoreError> {
        let raw = cp.get(key)?;
        let lines = raw.split('\n').filter(|_| !raw.is_empty());
        lines
            .enumerate()
            .map(|(i, line)| {
                let mut fields = line.split('\t');
                let value = T::take_fields(&mut fields).and_then(|v| match fields.next() {
                    None => Ok(v),
                    Some(_) => Err("too many fields".to_string()),
                });
                value.map_err(|e| CoreError::Checkpoint(format!("record {i} under {key:?}: {e}")))
            })
            .collect()
    }
}

/// A variable-length record: every field left on the line.
impl Record for Vec<String> {
    fn put_fields<'a>(&'a self, out: &mut Vec<Cow<'a, str>>) {
        out.extend(self.iter().map(|s| Cow::Borrowed(s.as_str())));
    }
    fn take_fields(fields: &mut Fields<'_>) -> Result<Self, String> {
        Ok(fields.map(String::from).collect())
    }
}

/// A pair is its two halves under `key.0` and `key.1`.
impl<A: Codec, B: Codec> Codec for (A, B) {
    fn put(&self, cp: &mut Checkpoint, key: &str) {
        self.0.put(cp, &subkey(key, "0"));
        self.1.put(cp, &subkey(key, "1"));
    }
    fn get(cp: &Checkpoint, key: &str) -> Result<Self, CoreError> {
        Ok((A::get(cp, &subkey(key, "0"))?, B::get(cp, &subkey(key, "1"))?))
    }
}

/// A tuple is its members' fields, in order.
macro_rules! tuple_record {
    ($($t:ident . $i:tt),*) => {
        impl<$($t: Record),*> Record for ($($t,)*) {
            fn put_fields<'a>(&'a self, out: &mut Vec<Cow<'a, str>>) {
                $(self.$i.put_fields(out);)*
            }
            fn take_fields(fields: &mut Fields<'_>) -> Result<Self, String> {
                Ok(($($t::take_fields(fields)?,)*))
            }
        }
    };
}
tuple_record!(A.0, B.1);
tuple_record!(A.0, B.1, C.2);

/// Implements [`Codec`] for a struct by listing each field once: field `f`
/// of the value under `key` is stored under `key.f`. Encoding destructures
/// and decoding builds the struct without `..`, so a field left off the
/// list does not compile.
macro_rules! codec_struct {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::checkpoint::Codec for $ty {
            fn put(&self, cp: &mut $crate::checkpoint::Checkpoint, key: &str) {
                let $ty { $($field),* } = self;
                $($crate::checkpoint::Codec::put(
                    $field,
                    cp,
                    &$crate::checkpoint::subkey(key, stringify!($field)),
                );)*
            }
            fn get(
                cp: &$crate::checkpoint::Checkpoint,
                key: &str,
            ) -> Result<Self, $crate::error::CoreError> {
                Ok($ty {$(
                    $field: $crate::checkpoint::Codec::get(
                        cp,
                        &$crate::checkpoint::subkey(key, stringify!($field)),
                    )?,
                )*})
            }
        }
    };
}

/// Implements [`Record`] for a struct by listing each field once, in field
/// order; the same compile-time completeness as [`codec_struct!`].
macro_rules! record_struct {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::checkpoint::Record for $ty {
            fn put_fields<'a>(&'a self, out: &mut Vec<std::borrow::Cow<'a, str>>) {
                let $ty { $($field),* } = self;
                $($crate::checkpoint::Record::put_fields($field, out);)*
            }
            fn take_fields(fields: &mut $crate::checkpoint::Fields<'_>) -> Result<Self, String> {
                Ok($ty {$($field: $crate::checkpoint::Record::take_fields(fields)?,)*})
            }
        }
    };
}

pub(crate) use {codec_struct, record_struct};

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
        42usize.put(&mut cp, "count");
        std::f64::consts::PI.put(&mut cp, "pi");
        1e-300f64.put(&mut cp, "tiny");
        vec![("10.200 W1".to_string(), 100usize), ("10.203 X2".to_string(), 200)].put(&mut cp, "pairs");
        let back = Checkpoint::from_text(&cp.to_text()).unwrap();
        assert_eq!(back, cp);
        assert_eq!(back.get("tricky").unwrap(), "line1\nline2\ttabbed\\slashed\r");
        assert_eq!(usize::get(&back, "count").unwrap(), 42);
        let pi = f64::get(&back, "pi").unwrap();
        assert_eq!(pi.to_bits(), std::f64::consts::PI.to_bits(), "bit-exact float round-trip");
        let tiny = f64::get(&back, "tiny").unwrap();
        assert_eq!(tiny.to_bits(), 1e-300f64.to_bits());
        let pairs = Vec::<(String, usize)>::get(&back, "pairs").unwrap();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].0, "10.200 W1");
    }

    #[test]
    fn empty_records_round_trip() {
        let mut cp = Checkpoint::new();
        Vec::<usize>::new().put(&mut cp, "none");
        let back = Checkpoint::from_text(&cp.to_text()).unwrap();
        assert!(Vec::<usize>::get(&back, "none").unwrap().is_empty());
    }

    #[test]
    fn missing_key_and_bad_value_are_named_errors() {
        let cp = Checkpoint::new();
        let err = cp.get("absent").unwrap_err();
        assert!(err.to_string().contains("absent"), "{err}");
        let mut cp = Checkpoint::new();
        cp.put("n", "not-a-number");
        assert!(usize::get(&cp, "n").is_err());
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
