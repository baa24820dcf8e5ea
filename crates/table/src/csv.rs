//! Hand-rolled RFC 4180 CSV reading and writing with type inference.
//!
//! The raw UMETRICS/USDA dumps arrive as CSV; this module loads them into
//! [`Table`]s. Parsing follows RFC 4180 (quoted fields, embedded commas,
//! doubled quotes, embedded newlines) plus the lenient conventions the real
//! dumps need: `\r\n` and `\n` line endings, empty fields and the literal
//! `NaN`/`NA`/`null` as missing values.
//!
//! Loading is two-phase: [`parse_records`] produces raw string records, and
//! [`read_str`] / [`read_path`] then apply per-column type inference — a
//! column becomes `Int`/`Float`/`Bool`/`Date` only if *every* non-missing
//! value parses as that type, otherwise it stays `Str` (mixed columns get
//! `Str`, never `Any`, mirroring how pandas reads these files as `object`).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::error::TableError;
use crate::schema::{Column, DataType, Schema};
use crate::table::Table;
use crate::value::{Date, Value};
use std::io::Write;
use std::path::Path;

/// Sentinels treated as missing values during inference.
const MISSING: &[&str] = &["", "NaN", "nan", "NA", "N/A", "null", "NULL", "-"];

/// Parses CSV text into raw records (header handling is the caller's job).
///
/// Returns one `Vec<String>` per record. Fails on unbalanced quotes or
/// characters trailing a closing quote.
pub fn parse_records(input: &str) -> Result<Vec<Vec<String>>, TableError> {
    let mut records = Vec::new();
    let mut field = String::new();
    let mut record: Vec<String> = Vec::new();
    let mut chars = input.chars().peekable();
    let mut in_quotes = false;
    let mut line = 1usize;
    // Tracks whether we have consumed any content for the current record,
    // so a trailing newline does not produce a phantom empty record.
    let mut record_started = false;

    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                        // Only a separator or end-of-record may follow.
                        match chars.peek() {
                            Some(',') | Some('\n') | Some('\r') | None => {}
                            Some(other) => {
                                return Err(TableError::Csv {
                                    line,
                                    message: format!(
                                        "unexpected {other:?} after closing quote"
                                    ),
                                });
                            }
                        }
                    }
                }
                '\n' => {
                    line += 1;
                    field.push(c);
                }
                _ => field.push(c),
            }
            continue;
        }
        match c {
            '"' if field.is_empty() => {
                in_quotes = true;
                record_started = true;
            }
            '"' => {
                return Err(TableError::Csv {
                    line,
                    message: "quote inside unquoted field".to_string(),
                })
            }
            ',' => {
                record.push(std::mem::take(&mut field));
                record_started = true;
            }
            '\r' => {
                // Swallow; `\n` (if present) terminates the record.
                if chars.peek() != Some(&'\n') {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                    record_started = false;
                    line += 1;
                }
            }
            '\n' => {
                record.push(std::mem::take(&mut field));
                records.push(std::mem::take(&mut record));
                record_started = false;
                line += 1;
            }
            _ => {
                field.push(c);
                record_started = true;
            }
        }
    }
    if in_quotes {
        return Err(TableError::Csv { line, message: "unterminated quoted field".to_string() });
    }
    if record_started || !record.is_empty() {
        record.push(field);
        records.push(record);
    }
    Ok(records)
}

fn parse_typed(raw: &str, dtype: DataType) -> Value {
    if MISSING.contains(&raw.trim()) {
        return Value::Null;
    }
    let t = raw.trim();
    match dtype {
        DataType::Int => t.parse::<i64>().map(Value::Int).unwrap_or(Value::Null),
        DataType::Float => t.parse::<f64>().map(Value::from).unwrap_or(Value::Null),
        DataType::Bool => match t.to_ascii_lowercase().as_str() {
            "true" | "t" | "yes" | "y" | "1" => Value::Bool(true),
            "false" | "f" | "no" | "n" | "0" => Value::Bool(false),
            _ => Value::Null,
        },
        DataType::Date => Date::parse(t).map(Value::Date).unwrap_or(Value::Null),
        DataType::Str | DataType::Any => Value::Str(raw.to_string()),
    }
}

fn looks_like(raw: &str, dtype: DataType) -> bool {
    let t = raw.trim();
    match dtype {
        DataType::Int => t.parse::<i64>().is_ok(),
        DataType::Float => t.parse::<f64>().is_ok_and(|f| !f.is_nan()),
        DataType::Bool => matches!(
            t.to_ascii_lowercase().as_str(),
            "true" | "t" | "yes" | "false" | "f" | "no"
        ),
        DataType::Date => Date::parse(t).is_some(),
        DataType::Str | DataType::Any => true,
    }
}

/// Infers the narrowest type that fits every non-missing value in a column.
/// Candidate order: `Int` → `Float` → `Date` → `Bool` → `Str`. Columns with
/// no non-missing values stay `Str`.
fn infer_column_type<'a>(values: impl Iterator<Item = &'a str> + Clone) -> DataType {
    for cand in [DataType::Int, DataType::Float, DataType::Date, DataType::Bool] {
        let mut any = false;
        let mut all = true;
        for v in values.clone() {
            if MISSING.contains(&v.trim()) {
                continue;
            }
            any = true;
            if !looks_like(v, cand) {
                all = false;
                break;
            }
        }
        if any && all {
            return cand;
        }
    }
    DataType::Str
}

/// Reads a table from CSV text. The first record is the header; column types
/// are inferred per-column across all data records.
///
/// Fully-empty records (blank lines, including the blank artifacts Windows
/// tools leave at the end of `\r\n` files) are skipped when the header has
/// more than one column — a blank line cannot be a valid record then. With
/// a single-column header an empty record stays a legitimate null row.
pub fn read_str(name: impl Into<String>, input: &str) -> Result<Table, TableError> {
    let records = parse_records(input)?;
    let mut it = records.into_iter();
    let header = it.next().ok_or(TableError::Csv {
        line: 1,
        message: "empty input (no header)".to_string(),
    })?;
    let mut data: Vec<Vec<String>> = it.collect();
    if header.len() > 1 {
        data.retain(|rec| !(rec.len() == 1 && rec[0].is_empty()));
    }
    for (i, rec) in data.iter().enumerate() {
        if rec.len() != header.len() {
            return Err(TableError::Csv {
                line: i + 2,
                message: format!("record has {} fields, header has {}", rec.len(), header.len()),
            });
        }
    }
    let mut cols = Vec::with_capacity(header.len());
    for (ci, hname) in header.iter().enumerate() {
        let dtype = infer_column_type(data.iter().map(move |r| r[ci].as_str()));
        cols.push(Column::new(hname.trim(), dtype));
    }
    let schema = Schema::new(cols)?;
    let mut table = Table::new(name, schema.clone());
    for rec in &data {
        let row = rec
            .iter()
            .zip(schema.columns())
            .map(|(raw, col)| parse_typed(raw, col.dtype))
            .collect();
        table.push_row(row)?;
    }
    Ok(table)
}

/// Reads a table from a CSV file; the table is named after the file stem.
pub fn read_path(path: impl AsRef<Path>) -> Result<Table, TableError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)?;
    let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("table").to_string();
    read_str(name, &text)
}

/// One malformed row diverted by [`read_quarantine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedRow {
    /// 1-based line where the record starts in the input.
    pub line: usize,
    /// The raw record text, verbatim.
    pub raw: String,
    /// Why it was rejected.
    pub reason: String,
}

/// What [`read_quarantine`] produced: the table of accepted rows plus the
/// diverted rows with locations and reasons.
#[derive(Debug, Clone)]
pub struct QuarantineOutcome {
    /// The table built from the well-formed rows.
    pub table: Table,
    /// The malformed rows, in input order.
    pub quarantined: Vec<QuarantinedRow>,
}

impl QuarantineOutcome {
    /// Total data rows seen: accepted + quarantined.
    pub fn total_rows(&self) -> usize {
        self.table.n_rows() + self.quarantined.len()
    }
}

/// Splits input into logical records: newline-terminated, except that
/// newlines inside quoted fields (odd quote parity) continue the record.
/// Returns `(1-based start line, raw text)` per record, `\r\n` normalized
/// at record ends only.
fn logical_records(input: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut open = false;
    let mut start = 1usize;
    for (line_no, seg) in (1usize..).zip(input.split('\n')) {
        if !open {
            start = line_no;
        }
        let odd_quotes = seg.matches('"').count() % 2 == 1;
        if open ^ odd_quotes {
            // The record continues past this newline (inside quotes).
            cur.push_str(seg);
            cur.push('\n');
            open = true;
        } else {
            cur.push_str(seg.strip_suffix('\r').unwrap_or(seg));
            out.push((start, std::mem::take(&mut cur)));
            open = false;
        }
    }
    if open {
        // A quote left open at EOF: flush what accumulated so the caller
        // can quarantine it instead of losing the record.
        let trimmed = cur.strip_suffix('\n').unwrap_or(&cur).to_string();
        out.push((start, trimmed));
    }
    // `split` yields a final empty segment for newline-terminated input;
    // drop the resulting phantom empty record (but keep interior blanks,
    // which the caller classifies).
    if let Some(last) = out.last() {
        if last.1.is_empty() {
            out.pop();
        }
    }
    out
}

/// Reads a table from CSV text, diverting malformed rows into a quarantine
/// instead of failing the whole load — the degraded-mode ingest path for
/// dirty production slices.
///
/// A row is quarantined when it does not parse (stray or unterminated
/// quotes) or its field count disagrees with the header. Blank records are
/// skipped under the same rule as [`read_str`]. Column types are inferred
/// from the accepted rows only.
///
/// `max_quarantine_fraction` bounds how much corruption is tolerable: when
/// more than `⌊fraction × total⌋` rows are quarantined the whole load fails
/// with [`TableError::QuarantineOverflow`] — past that point the surviving
/// rows say little about the real data.
pub fn read_quarantine(
    name: impl Into<String>,
    input: &str,
    max_quarantine_fraction: f64,
) -> Result<QuarantineOutcome, TableError> {
    let records = logical_records(input);
    let mut it = records.into_iter();
    let (_, header_raw) = it.next().ok_or(TableError::Csv {
        line: 1,
        message: "empty input (no header)".to_string(),
    })?;
    let header = match parse_records(&header_raw)?.into_iter().next() {
        Some(h) => h,
        None => {
            return Err(TableError::Csv { line: 1, message: "empty input (no header)".to_string() })
        }
    };

    let mut accepted: Vec<Vec<String>> = Vec::new();
    let mut quarantined: Vec<QuarantinedRow> = Vec::new();
    for (line, raw) in it {
        if raw.is_empty() && header.len() > 1 {
            continue; // blank line, not a data row
        }
        match parse_records(&raw) {
            Ok(mut recs) => {
                let rec = if recs.is_empty() { vec![String::new()] } else { recs.remove(0) };
                if rec.len() == header.len() {
                    accepted.push(rec);
                } else {
                    quarantined.push(QuarantinedRow {
                        line,
                        raw,
                        reason: format!(
                            "record has {} fields, header has {}",
                            rec.len(),
                            header.len()
                        ),
                    });
                }
            }
            Err(TableError::Csv { line: rel, message }) => {
                quarantined.push(QuarantinedRow {
                    line: line + rel.saturating_sub(1),
                    raw,
                    reason: message,
                });
            }
            Err(other) => return Err(other),
        }
    }

    let total = accepted.len() + quarantined.len();
    let allowed = (max_quarantine_fraction.clamp(0.0, 1.0) * total as f64).floor() as usize;
    if quarantined.len() > allowed {
        return Err(TableError::QuarantineOverflow {
            quarantined: quarantined.len(),
            total,
            allowed,
        });
    }

    let mut cols = Vec::with_capacity(header.len());
    for (ci, hname) in header.iter().enumerate() {
        let dtype = infer_column_type(accepted.iter().map(move |r| r[ci].as_str()));
        cols.push(Column::new(hname.trim(), dtype));
    }
    let schema = Schema::new(cols)?;
    let mut table = Table::new(name, schema.clone());
    for rec in &accepted {
        let row = rec
            .iter()
            .zip(schema.columns())
            .map(|(raw, col)| parse_typed(raw, col.dtype))
            .collect();
        table.push_row(row)?;
    }
    Ok(QuarantineOutcome { table, quarantined })
}

fn escape_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Serializes a table as RFC 4180 CSV (header + rows, `\n` line endings,
/// nulls as empty fields).
pub fn write_str(table: &Table) -> String {
    let mut out = String::new();
    out.push_str(
        &table.schema().names().iter().map(|n| escape_field(n)).collect::<Vec<_>>().join(","),
    );
    out.push('\n');
    for row in table.rows() {
        let line: Vec<String> = row.iter().map(|v| escape_field(&v.render())).collect();
        out.push_str(&line.join(","));
        out.push('\n');
    }
    out
}

/// Writes a table to a CSV file.
pub fn write_path(table: &Table, path: impl AsRef<Path>) -> Result<(), TableError> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(write_str(table).as_bytes())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple() {
        let recs = parse_records("a,b\n1,2\n").unwrap();
        assert_eq!(recs, vec![vec!["a", "b"], vec!["1", "2"]]);
    }

    #[test]
    fn parses_quotes_commas_newlines() {
        let recs = parse_records("a,b\n\"x,y\",\"line1\nline2\"\n").unwrap();
        assert_eq!(recs[1][0], "x,y");
        assert_eq!(recs[1][1], "line1\nline2");
    }

    #[test]
    fn parses_doubled_quotes() {
        let recs = parse_records("t\n\"say \"\"hi\"\"\"\n").unwrap();
        assert_eq!(recs[1][0], "say \"hi\"");
    }

    #[test]
    fn parses_crlf() {
        let recs = parse_records("a,b\r\n1,2\r\n").unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1], vec!["1", "2"]);
    }

    #[test]
    fn no_phantom_trailing_record() {
        assert_eq!(parse_records("a\n1\n").unwrap().len(), 2);
        assert_eq!(parse_records("a\n1").unwrap().len(), 2);
    }

    #[test]
    fn rejects_unterminated_quote() {
        assert!(parse_records("a\n\"oops\n").is_err());
    }

    #[test]
    fn rejects_text_after_closing_quote() {
        assert!(parse_records("a\n\"x\"y\n").is_err());
    }

    #[test]
    fn infers_types() {
        let t = read_str(
            "t",
            "id,score,title,start\n1,3.5,Alpha,2008-10-01\n2,NaN,Beta,10/1/08\n",
        )
        .unwrap();
        assert_eq!(t.schema().column("id").unwrap().dtype, DataType::Int);
        assert_eq!(t.schema().column("score").unwrap().dtype, DataType::Float);
        assert_eq!(t.schema().column("title").unwrap().dtype, DataType::Str);
        assert_eq!(t.schema().column("start").unwrap().dtype, DataType::Date);
        assert!(t.get(1, "score").unwrap().is_null());
        assert_eq!(t.get(1, "start").unwrap().as_date().unwrap().year, 2008);
    }

    #[test]
    fn mixed_column_stays_str() {
        let t = read_str("t", "x\n1\nabc\n").unwrap();
        assert_eq!(t.schema().column("x").unwrap().dtype, DataType::Str);
        assert_eq!(t.get(0, "x").unwrap().as_str(), Some("1"));
    }

    #[test]
    fn all_missing_column_stays_str() {
        let t = read_str("t", "x,y\nNaN,1\n,2\n").unwrap();
        assert_eq!(t.schema().column("x").unwrap().dtype, DataType::Str);
        assert!(t.get(0, "x").unwrap().is_null());
    }

    #[test]
    fn ragged_record_is_error() {
        assert!(read_str("t", "a,b\n1\n").is_err());
    }

    #[test]
    fn round_trip() {
        let src = "name,qty\n\"Smith, J\",3\n\"say \"\"hi\"\"\",\n";
        let t = read_str("t", src).unwrap();
        let out = write_str(&t);
        let t2 = read_str("t", &out).unwrap();
        assert_eq!(t.rows(), t2.rows());
    }

    #[test]
    fn write_renders_nulls_empty() {
        let t = read_str("t", "a,b\n1,\n").unwrap();
        assert_eq!(write_str(&t), "a,b\n1,\n");
    }

    #[test]
    fn quarantine_on_clean_input_matches_read_str() {
        let src = "id,note\n1,\"line1\nline2\"\n2,\"x,y\"\n3,plain\n";
        let strict = read_str("t", src).unwrap();
        let out = read_quarantine("t", src, 0.0).unwrap();
        assert!(out.quarantined.is_empty());
        assert_eq!(out.table.rows(), strict.rows());
        assert_eq!(out.table.schema(), strict.schema());
    }

    #[test]
    fn quarantine_diverts_ragged_and_bad_quote_rows() {
        let src = "a,b\n1,x\n2\nab\"\"cd,y\n3,z\n";
        let out = read_quarantine("t", src, 0.5).unwrap();
        assert_eq!(out.table.n_rows(), 2, "good rows survive");
        assert_eq!(out.quarantined.len(), 2);
        assert_eq!(out.total_rows(), 4, "accepted + quarantined = total");
        let ragged = &out.quarantined[0];
        assert_eq!(ragged.line, 3);
        assert_eq!(ragged.raw, "2");
        assert!(ragged.reason.contains("1 fields"), "reason: {}", ragged.reason);
        let badq = &out.quarantined[1];
        assert_eq!(badq.line, 4);
        assert!(badq.reason.contains("quote inside unquoted field"), "reason: {}", badq.reason);
    }

    #[test]
    fn quarantine_flushes_unterminated_quote_at_eof() {
        let src = "a,b\n1,x\n\"oops,2\n";
        let out = read_quarantine("t", src, 1.0).unwrap();
        assert_eq!(out.table.n_rows(), 1);
        assert_eq!(out.quarantined.len(), 1, "open-quote tail must not vanish");
        assert!(out.quarantined[0].reason.contains("unterminated"));
    }

    #[test]
    fn quarantine_overflow_aborts_the_load() {
        let src = "a,b\n1\n2\n3,x\n4,y\n";
        let err = read_quarantine("t", src, 0.25).unwrap_err();
        assert_eq!(
            err,
            TableError::QuarantineOverflow { quarantined: 2, total: 4, allowed: 1 }
        );
        // A laxer threshold accepts the same file.
        assert!(read_quarantine("t", src, 0.5).is_ok());
    }

    #[test]
    fn quarantine_skips_blank_lines_like_read_str() {
        let src = "a,b\n1,x\n\n2,y\n\n";
        let out = read_quarantine("t", src, 0.0).unwrap();
        assert_eq!(out.table.n_rows(), 2);
        assert!(out.quarantined.is_empty());
        // Single-column tables keep blank records as null rows.
        let single = read_quarantine("K", "K\n\n\n", 0.0).unwrap();
        assert_eq!(single.table.n_rows(), read_str("K", "K\n\n\n").unwrap().n_rows());
    }
}
