//! Frozen workflow snapshots: everything a trained EM workflow needs to
//! serve matches, in one versioned on-disk artifact.
//!
//! A snapshot captures the *decision function* of the batch pipeline — the
//! blocking plan, the generated feature plan, the fitted model, the rule
//! set, the decision threshold — plus the right-hand corpus table it
//! matches against. Loading the snapshot and serving a record reproduces
//! the batch pipeline's prediction **bit-identically**: every float is
//! written with `{:?}` (which round-trips each `f64` bit pattern through
//! `parse::<f64>()`), and every component reconstructs through the same
//! public constructors batch code uses.
//!
//! ## Format
//!
//! The file is text. The first line is the envelope:
//!
//! ```text
//! em-snapshot v1 <body-byte-length>
//! ```
//!
//! and the rest is the body — a [`Checkpoint`]-serialized `key = value`
//! bag. The declared byte length lets loading distinguish a torn write
//! ([`ServeError::Truncated`]) from hand-edited garbage
//! ([`ServeError::Corrupt`]); an unknown version is
//! [`ServeError::VersionMismatch`]. [`WorkflowSnapshot::load_quarantining`]
//! renames bad artifacts to `<path>.quarantined` so a corrupt snapshot
//! can never be retried in a crash loop.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::error::ServeError;
use em_core::checkpoint::{Checkpoint, Codec};
use em_core::pipeline::ServingArtifacts;
use em_core::BlockingPlan;
use em_features::FeatureSet;
use em_ml::{FittedModel, Imputer};
use em_rules::RuleSetDesc;
use em_table::{Column, DataType, Date, Schema, Table, Value};
use std::path::{Path, PathBuf};

/// Format version this build writes and reads.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Leading magic token of the envelope line.
const MAGIC: &str = "em-snapshot";

/// A frozen, serializable workflow: the trained artifacts of the batch
/// pipeline, sufficient to serve online match requests.
#[derive(Debug, Clone)]
pub struct WorkflowSnapshot {
    /// The right-hand corpus table matched against (USDA in the case
    /// study).
    pub corpus: Table,
    /// The generated feature plan.
    pub features: FeatureSet,
    /// Mean imputer fitted on the training matrix.
    pub imputer: Imputer,
    /// The fitted model in its concrete serializable form.
    pub model: FittedModel,
    /// Which learner won selection (provenance).
    pub learner_name: String,
    /// Declarative rule set (rebuilt into closures on load).
    pub rules: RuleSetDesc,
    /// Blocking plan parameters.
    pub plan: BlockingPlan,
    /// Decision threshold on `predict_proba` (the batch pipeline's 0.5).
    pub threshold: f64,
}

fn corrupt(detail: impl std::fmt::Display) -> ServeError {
    ServeError::Corrupt(detail.to_string())
}

/// Tag for a declared column type.
fn dtype_tag(t: DataType) -> &'static str {
    match t {
        DataType::Str => "str",
        DataType::Int => "int",
        DataType::Float => "float",
        DataType::Bool => "bool",
        DataType::Date => "date",
        DataType::Any => "any",
    }
}

fn dtype_from_tag(tag: &str) -> Result<DataType, ServeError> {
    Ok(match tag {
        "str" => DataType::Str,
        "int" => DataType::Int,
        "float" => DataType::Float,
        "bool" => DataType::Bool,
        "date" => DataType::Date,
        "any" => DataType::Any,
        other => return Err(corrupt(format!("unknown column type tag {other:?}"))),
    })
}

/// Escapes a string cell so it cannot contain a literal tab (record field
/// separator) or backslash ambiguity.
fn escape_cell(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            _ => out.push(c),
        }
    }
    out
}

fn unescape_cell(s: &str) -> Result<String, ServeError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            other => {
                return Err(corrupt(format!(
                    "bad cell escape \\{}",
                    other.map(String::from).unwrap_or_default()
                )))
            }
        }
    }
    Ok(out)
}

/// One cell as a tagged token. Types are explicit — the CSV reader
/// re-infers types, which would not round-trip a table whose column is
/// declared `Str` but holds numeric-looking text. Shared with the corpus
/// WAL ([`crate::wal`]), which logs rows in exactly this encoding so a
/// replayed row is byte-for-byte the snapshot row.
pub(crate) fn encode_cell(v: &Value) -> String {
    match v {
        Value::Null => String::new(),
        Value::Str(s) => format!("s:{}", escape_cell(s)),
        Value::Int(i) => format!("i:{i}"),
        Value::Float(f) => format!("f:{f:?}"),
        Value::Bool(b) => format!("b:{b}"),
        Value::Date(d) => format!("d:{d}"),
    }
}

pub(crate) fn decode_cell(s: &str) -> Result<Value, ServeError> {
    if s.is_empty() {
        return Ok(Value::Null);
    }
    let (tag, payload) =
        s.split_once(':').ok_or_else(|| corrupt(format!("untagged cell {s:?}")))?;
    Ok(match tag {
        "s" => Value::Str(unescape_cell(payload)?),
        "i" => Value::Int(
            payload.parse().map_err(|_| corrupt(format!("bad int cell {payload:?}")))?,
        ),
        "f" => Value::Float(
            payload.parse().map_err(|_| corrupt(format!("bad float cell {payload:?}")))?,
        ),
        "b" => Value::Bool(
            payload.parse().map_err(|_| corrupt(format!("bad bool cell {payload:?}")))?,
        ),
        "d" => Value::Date(
            Date::parse(payload).ok_or_else(|| corrupt(format!("bad date cell {payload:?}")))?,
        ),
        other => return Err(corrupt(format!("unknown cell tag {other:?}"))),
    })
}

fn encode_table(cp: &mut Checkpoint, prefix: &str, table: &Table) {
    cp.put(&format!("{prefix}.name"), table.name());
    let columns = table.schema().columns().iter();
    let schema: Vec<(String, String)> =
        columns.map(|c| (c.name.clone(), dtype_tag(c.dtype).to_string())).collect();
    schema.put(cp, &format!("{prefix}.schema"));
    let rows: Vec<Vec<String>> =
        table.iter().map(|r| r.values().iter().map(encode_cell).collect()).collect();
    rows.put(cp, &format!("{prefix}.rows"));
}

fn decode_table(cp: &Checkpoint, prefix: &str) -> Result<Table, ServeError> {
    let name = cp.get(&format!("{prefix}.name")).map_err(corrupt)?;
    let mut columns = Vec::new();
    for (col, tag) in Vec::<(String, String)>::get(cp, &format!("{prefix}.schema")).map_err(corrupt)? {
        columns.push(Column::new(col, dtype_from_tag(&tag)?));
    }
    let schema = Schema::new(columns).map_err(|e| corrupt(format!("bad schema: {e}")))?;
    let n_cols = schema.len();
    let mut table = Table::new(name, schema);
    for rec in Vec::<Vec<String>>::get(cp, &format!("{prefix}.rows")).map_err(corrupt)? {
        // A row of all-empty cells (all nulls) serializes as N-1 tabs; an
        // entirely-null single-column row is the empty string, which
        // `split` still yields as one field — arity stays consistent.
        if rec.len() != n_cols {
            return Err(corrupt(format!(
                "row has {} cells, schema has {n_cols} columns",
                rec.len()
            )));
        }
        let row = rec.iter().map(|c| decode_cell(c)).collect::<Result<Vec<_>, _>>()?;
        table.push_row(row).map_err(|e| corrupt(format!("bad row: {e}")))?;
    }
    Ok(table)
}

impl WorkflowSnapshot {
    /// Freezes the trained artifacts of a batch pipeline run into a
    /// serializable snapshot (decision threshold 0.5, matching
    /// `Model::predict`).
    pub fn from_artifacts(artifacts: &ServingArtifacts) -> WorkflowSnapshot {
        WorkflowSnapshot {
            corpus: artifacts.usda.clone(),
            features: artifacts.matcher.features.clone(),
            imputer: artifacts.matcher.imputer.clone(),
            model: artifacts.matcher.model.clone(),
            learner_name: artifacts.matcher.learner_name.clone(),
            rules: artifacts.rule_descs.clone(),
            plan: artifacts.plan,
            threshold: 0.5,
        }
    }

    /// Serializes to the versioned text format (envelope + checkpoint
    /// body). Encoding is canonical: decode ∘ encode is a fixed point.
    pub fn encode(&self) -> String {
        let mut cp = Checkpoint::new();
        cp.put("learner_name", &self.learner_name);
        self.threshold.put(&mut cp, "threshold");
        self.plan.put(&mut cp, "plan");
        cp.put("model", self.model.encode());
        cp.put("rules", self.rules.encode());
        let means: Vec<String> = self.imputer.means.iter().map(|m| format!("{m:?}")).collect();
        cp.put("imputer.means", means.join(" "));
        self.features.features.put(&mut cp, "features");
        encode_table(&mut cp, "corpus", &self.corpus);
        let body = cp.to_text();
        format!("{MAGIC} v{SNAPSHOT_VERSION} {}\n{body}", body.len())
    }

    /// Parses a snapshot produced by [`WorkflowSnapshot::encode`]. Every
    /// failure is a typed [`ServeError`] — never a panic.
    pub fn decode(text: &str) -> Result<WorkflowSnapshot, ServeError> {
        let (header, body) = text
            .split_once('\n')
            .ok_or_else(|| corrupt("missing envelope line"))?;
        let mut toks = header.split_whitespace();
        if toks.next() != Some(MAGIC) {
            return Err(corrupt(format!("not a snapshot (bad magic in {header:?})")));
        }
        let version_tok = toks.next().ok_or_else(|| corrupt("missing version token"))?;
        let version: u32 = version_tok
            .strip_prefix('v')
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| corrupt(format!("bad version token {version_tok:?}")))?;
        if version != SNAPSHOT_VERSION {
            return Err(ServeError::VersionMismatch { found: version, expected: SNAPSHOT_VERSION });
        }
        let declared: usize = toks
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| corrupt("missing or bad body length"))?;
        if toks.next().is_some() {
            return Err(corrupt("trailing tokens in envelope"));
        }
        if body.len() < declared {
            return Err(ServeError::Truncated {
                expected_bytes: declared,
                actual_bytes: body.len(),
            });
        }
        if body.len() > declared {
            return Err(corrupt(format!(
                "body has {} bytes, envelope declares {declared}",
                body.len()
            )));
        }
        let cp = Checkpoint::from_text(body).map_err(corrupt)?;
        let learner_name = cp.get("learner_name").map_err(corrupt)?.to_string();
        let threshold = f64::get(&cp, "threshold").map_err(corrupt)?;
        let plan = BlockingPlan::get(&cp, "plan").map_err(corrupt)?;
        let model = FittedModel::decode(cp.get("model").map_err(corrupt)?)?;
        let rules = RuleSetDesc::decode(cp.get("rules").map_err(corrupt)?)?;
        let means_raw = cp.get("imputer.means").map_err(corrupt)?;
        let means = if means_raw.is_empty() {
            Vec::new()
        } else {
            means_raw
                .split(' ')
                .map(|t| t.parse::<f64>().map_err(|_| corrupt(format!("bad mean {t:?}"))))
                .collect::<Result<Vec<_>, _>>()?
        };
        let features = FeatureSet { features: Codec::get(&cp, "features").map_err(corrupt)? };
        // The model and the imputer index rows of the feature plan: a width
        // that disagrees would surface as an out-of-range read at the first
        // request, so it is refused here.
        model.check_width(features.len()).map_err(corrupt)?;
        if means.len() != features.len() {
            return Err(corrupt(format!(
                "imputer has {} means for {} features",
                means.len(),
                features.len()
            )));
        }
        let corpus = decode_table(&cp, "corpus")?;
        Ok(WorkflowSnapshot {
            corpus,
            features,
            imputer: Imputer { means },
            model,
            learner_name,
            rules,
            plan,
            threshold,
        })
    }

    /// Writes the snapshot atomically (temp file + rename): a crash
    /// mid-write leaves either the old artifact or none, never a torn one.
    pub fn save(&self, path: &Path) -> Result<(), ServeError> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let tmp = tmp_path(path);
        std::fs::write(&tmp, self.encode())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and decodes a snapshot file.
    pub fn load(path: &Path) -> Result<WorkflowSnapshot, ServeError> {
        let text = std::fs::read_to_string(path)?;
        WorkflowSnapshot::decode(&text)
    }

    /// Like [`WorkflowSnapshot::load`], but a snapshot that fails to
    /// *decode* (version mismatch, truncation, corruption) is renamed to
    /// a fresh `<path>.quarantined[.N]` destination before the error is
    /// returned, so a supervisor restarting the service cannot crash-loop
    /// on the same bad artifact — and a *second* corrupt artifact cannot
    /// silently overwrite the evidence of the first. The returned
    /// [`ServeError::Quarantined`] carries the destination path and the
    /// underlying decode failure. Plain IO failures (e.g. the file does
    /// not exist) do not quarantine.
    pub fn load_quarantining(path: &Path) -> Result<WorkflowSnapshot, ServeError> {
        let text = std::fs::read_to_string(path)?;
        match WorkflowSnapshot::decode(&text) {
            Ok(snap) => Ok(snap),
            Err(e) => {
                let dest = quarantine_path(path);
                // Best-effort: the decode error is the primary failure.
                let _ = std::fs::rename(path, &dest);
                Err(ServeError::Quarantined {
                    dest: dest.display().to_string(),
                    cause: Box::new(e),
                })
            }
        }
    }
}

/// The temp-file path used by [`WorkflowSnapshot::save`].
fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Where [`WorkflowSnapshot::load_quarantining`] moves a corrupt artifact:
/// `<path>.quarantined`, or the first free `<path>.quarantined.N` when
/// earlier quarantined artifacts already occupy the plain suffix — each
/// corrupt artifact gets its own destination, none is overwritten.
pub fn quarantine_path(path: &Path) -> PathBuf {
    let base = {
        let mut os = path.as_os_str().to_os_string();
        os.push(".quarantined");
        PathBuf::from(os)
    };
    if !base.exists() {
        return base;
    }
    let mut n: u64 = 1;
    loop {
        let mut os = base.as_os_str().to_os_string();
        os.push(format!(".{n}"));
        let candidate = PathBuf::from(os);
        if !candidate.exists() {
            return candidate;
        }
        n = n.wrapping_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_features::{Feature, FeatureKind};
    use em_ml::model::ConstantModel;
    use em_ml::Model;
    use em_rules::RuleKeyKind;

    fn sample_corpus() -> Table {
        Table::from_rows(
            "usda",
            Schema::of(&[
                ("AccessionNumber", DataType::Str),
                ("AwardNumber", DataType::Str),
                ("AwardTitle", DataType::Str),
                ("Funds", DataType::Float),
                ("Year", DataType::Int),
                ("Active", DataType::Bool),
                ("Start", DataType::Date),
                ("Anything", DataType::Any),
            ]),
            vec![
                vec![
                    Value::Str("ACC1".into()),
                    Value::Str("2008-34103-19449".into()),
                    Value::Str("Corn Fungicide\tGuidelines \\ Study".into()),
                    Value::Float(0.1 + 0.2),
                    Value::Int(-7),
                    Value::Bool(true),
                    Value::Date(Date { year: 2008, month: 3, day: 1 }),
                    Value::Int(9),
                ],
                vec![
                    Value::Str("ACC2".into()),
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Value::Null,
                ],
            ],
        )
        .unwrap()
    }

    fn sample_snapshot() -> WorkflowSnapshot {
        let mut features = FeatureSet::default();
        features.features.push(Feature::new(
            "AwardTitle",
            "AwardTitle",
            FeatureKind::JaccardQgram3,
            true,
        ));
        features.features.push(Feature::new(
            "AwardNumber",
            "AwardNumber",
            FeatureKind::ExactStr,
            false,
        ));
        WorkflowSnapshot {
            corpus: sample_corpus(),
            features,
            imputer: Imputer { means: vec![0.25, std::f64::consts::PI / 3.0] },
            model: FittedModel::Constant(ConstantModel { proba: 0.75 }),
            learner_name: "decision_tree".into(),
            rules: RuleSetDesc::new()
                .positive(RuleKeyKind::Suffix, "M1", "AwardNumber", "AwardNumber")
                .negative(RuleKeyKind::Suffix, "neg:award", "AwardNumber", "AwardNumber"),
            plan: BlockingPlan { overlap_k: 3, oc_threshold: 0.7 },
            threshold: 0.5,
        }
    }

    #[test]
    fn encode_decode_is_a_fixed_point() {
        let snap = sample_snapshot();
        let text = snap.encode();
        let back = WorkflowSnapshot::decode(&text).unwrap();
        assert_eq!(back.encode(), text);
        assert_eq!(back.corpus, snap.corpus);
        assert_eq!(back.features.names(), snap.features.names());
        assert_eq!(back.rules, snap.rules);
        assert_eq!(back.learner_name, snap.learner_name);
        assert_eq!(back.plan.overlap_k, snap.plan.overlap_k);
        assert_eq!(back.plan.oc_threshold.to_bits(), snap.plan.oc_threshold.to_bits());
        assert_eq!(back.threshold.to_bits(), snap.threshold.to_bits());
        for (a, b) in back.imputer.means.iter().zip(&snap.imputer.means) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Model predictions are bit-identical post-round-trip.
        let row = [0.3, 0.8];
        assert_eq!(
            back.model.predict_proba(&row).to_bits(),
            snap.model.predict_proba(&row).to_bits()
        );
    }

    #[test]
    fn version_mismatch_is_typed() {
        let text = sample_snapshot().encode().replacen("v1", "v2", 1);
        assert_eq!(
            WorkflowSnapshot::decode(&text).map(|_| ()).unwrap_err(),
            ServeError::VersionMismatch { found: 2, expected: 1 }
        );
    }

    #[test]
    fn truncation_is_typed() {
        let text = sample_snapshot().encode();
        let cut = &text[..text.len() - 10];
        match WorkflowSnapshot::decode(cut) {
            Err(ServeError::Truncated { expected_bytes, actual_bytes }) => {
                assert_eq!(expected_bytes, actual_bytes + 10);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn garbage_is_corrupt_not_panic() {
        for text in [
            "",
            "not a snapshot\n",
            "em-snapshot\n",
            "em-snapshot vX 10\n",
            "em-snapshot v1 zzz\n",
            "em-snapshot v1 3 extra\nabc",
        ] {
            assert!(
                matches!(WorkflowSnapshot::decode(text), Err(ServeError::Corrupt(_))),
                "accepted {text:?}"
            );
        }
        // Valid envelope, mangled body key.
        let good = sample_snapshot().encode();
        let (header, body) = good.split_once('\n').unwrap();
        let bad_body = body.replacen("model = ", "motel = ", 1);
        let bad = format!("{header}\n{bad_body}");
        // Same byte length, so the envelope still matches.
        assert!(matches!(WorkflowSnapshot::decode(&bad), Err(ServeError::Corrupt(_))), "{bad}");
    }

    /// `decode` of hostile bytes is a typed error or a snapshot whose
    /// encoding is a fixed point — never a panic. Returns whether it was
    /// accepted.
    fn assert_decodes_or_errs(text: &str, what: &str) -> bool {
        let outcome = std::panic::catch_unwind(|| match WorkflowSnapshot::decode(text) {
            Err(_) => None,
            Ok(snap) => {
                let once = snap.encode();
                Some((WorkflowSnapshot::decode(&once).map(|s| s.encode()), once))
            }
        });
        match outcome {
            Err(_) => panic!("decode panicked on {what}"),
            Ok(Some((again, once))) => {
                assert_eq!(again, Ok(once), "{what}: accepted, but encode is not a fixed point");
                true
            }
            Ok(None) => false,
        }
    }

    #[test]
    fn hostile_bytes_are_typed_errors_or_fixed_points() {
        let good = sample_snapshot().encode();
        assert!(good.is_ascii());
        let (header, body) = good.split_once('\n').unwrap();
        let magic_version = header.rsplit_once(' ').unwrap().0;
        for cut in 0..good.len() {
            assert_decodes_or_errs(&good[..cut], &format!("truncation at {cut}"));
        }
        // The same cuts with the envelope re-stamped, so the body parser
        // (not the length check) sees every torn body.
        for cut in 0..body.len() {
            let body = &body[..cut];
            let text = format!("{magic_version} {}\n{body}", body.len());
            assert_decodes_or_errs(&text, &format!("re-enveloped body cut at {cut}"));
        }
        // Seeded single-byte ASCII mutations (splitmix64), tab and newline
        // included; the length is unchanged, so most reach the body parser.
        let mut state = 20190326u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as usize
        };
        let alphabet: Vec<u8> = (b' '..=b'~').chain([b'\t', b'\n']).collect();
        let mut accepted = 0;
        for _ in 0..4_000 {
            let at = next() % good.len();
            let byte = alphabet[next() % alphabet.len()];
            let mut bytes = good.clone().into_bytes();
            bytes[at] = byte;
            let text = String::from_utf8(bytes).unwrap();
            if assert_decodes_or_errs(&text, &format!("byte {at} set to {:?}", byte as char)) {
                accepted += 1;
            }
        }
        // Both outcomes occur: some mutations land in free text (a cell, a
        // name) and decode, most break the structure.
        assert!((1..4_000).contains(&accepted), "{accepted} of 4000 mutations accepted");
    }

    #[test]
    fn a_model_or_imputer_off_the_feature_plan_width_is_corrupt() {
        let tree = FittedModel::decode("tree\nS 5 0.5 0.0\nL 0.0\nL 1.0\n").unwrap();
        let wide_model = WorkflowSnapshot { model: tree, ..crate::testkit::snapshot(0.9) };
        let short_imputer =
            WorkflowSnapshot { imputer: Imputer { means: Vec::new() }, ..crate::testkit::snapshot(0.9) };
        for snap in [wide_model, short_imputer] {
            let text = snap.encode();
            assert!(
                matches!(WorkflowSnapshot::decode(&text), Err(ServeError::Corrupt(_))),
                "accepted {text}"
            );
        }
        // The testkit's own snapshot, one feature wide throughout, loads.
        assert!(WorkflowSnapshot::decode(&crate::testkit::snapshot(0.9).encode()).is_ok());
    }

    #[test]
    fn save_load_round_trips_and_quarantines_corruption() {
        let dir = std::env::temp_dir().join(format!("em-serve-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("workflow.emsnap");
        let snap = sample_snapshot();
        snap.save(&path).unwrap();
        let back = WorkflowSnapshot::load(&path).unwrap();
        assert_eq!(back.encode(), snap.encode());

        // Corrupt the artifact in place: load_quarantining must rename it,
        // and the error names both the decode failure and the destination.
        std::fs::write(&path, "em-snapshot v9 0\n").unwrap();
        let err = WorkflowSnapshot::load_quarantining(&path).unwrap_err();
        let ServeError::Quarantined { dest, cause } = err else {
            panic!("expected Quarantined, got {err:?}");
        };
        assert_eq!(*cause, ServeError::VersionMismatch { found: 9, expected: 1 });
        assert!(!path.exists(), "corrupt artifact still in place");
        let first = PathBuf::from(&dest);
        assert!(first.exists(), "quarantine file missing at {dest}");
        assert!(dest.ends_with(".quarantined"), "unexpected destination {dest}");

        // A missing file is Io and does not create quarantine litter.
        let missing = dir.join("absent.emsnap");
        assert!(matches!(
            WorkflowSnapshot::load_quarantining(&missing),
            Err(ServeError::Io(_))
        ));
        assert!(!quarantine_path(&missing).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_quarantine_destinations_never_collide() {
        let dir =
            std::env::temp_dir().join(format!("em-serve-snapq-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("workflow.emsnap");
        // Three corrupt artifacts in a row: each quarantine destination is
        // fresh, and every earlier artifact survives untouched.
        let mut dests = Vec::new();
        for gen in 0..3u32 {
            std::fs::write(&path, format!("em-snapshot v{} 0\n", 9 + gen)).unwrap();
            let err = WorkflowSnapshot::load_quarantining(&path).unwrap_err();
            let ServeError::Quarantined { dest, cause } = err else {
                panic!("expected Quarantined");
            };
            assert_eq!(
                *cause,
                ServeError::VersionMismatch { found: 9 + gen, expected: 1 },
                "generation {gen}"
            );
            assert!(!dests.contains(&dest), "destination {dest} reused");
            dests.push(dest);
        }
        for (gen, dest) in dests.iter().enumerate() {
            let text = std::fs::read_to_string(dest).unwrap();
            assert_eq!(
                text,
                format!("em-snapshot v{} 0\n", 9 + gen as u32),
                "quarantined artifact {dest} was overwritten"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
