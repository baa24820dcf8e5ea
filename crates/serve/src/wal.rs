//! The corpus write-ahead log: crash-durable incremental corpus growth.
//!
//! A [`WorkflowSnapshot`](crate::WorkflowSnapshot) freezes the corpus at
//! checkpoint time, but [`MatchService::push_corpus_row`](crate::MatchService::push_corpus_row)
//! keeps growing it online — and before this log existed, every pushed row
//! died with the process. The WAL closes that gap with the classic
//! ordering: each push **appends a checksummed record first**, then
//! mutates the in-memory indexes, so at every instant
//!
//! ```text
//! service state  ==  snapshot corpus  +  replay(WAL records)
//! ```
//!
//! and [`MatchService::recover`](crate::MatchService::recover) can rebuild
//! a bit-identical service from the last checkpoint after any crash.
//!
//! ## Format
//!
//! The file is line-oriented text. The first line is the header:
//!
//! ```text
//! em-wal v1
//! ```
//!
//! Each subsequent line is one record:
//!
//! ```text
//! <seq> <fnv1a64-hex> <payload>
//! ```
//!
//! `seq` starts at 0 and increments by 1 (a gap means the file was
//! spliced — [`ServeError::Corrupt`]); the checksum covers `<seq> ` plus
//! the payload bytes. The payload is the row's cells in the snapshot
//! encoding ([`crate::snapshot`]'s tagged cells) joined by tabs, then
//! record-escaped so a cell can never smuggle a newline into the framing
//! (`\` → `\\`, newline → `\n`, carriage return → `\r`).
//!
//! ## Torn tails
//!
//! A record is appended with a **single** `write_all` of the full line
//! (including its newline), so a crash mid-append leaves a strict prefix
//! of one line at the end of the file and never damages earlier records.
//! [`read_wal`] therefore treats an unterminated final line as a torn
//! tail: the fragment is dropped and reported, never an error. A
//! *terminated* line that fails to parse or checksum is real corruption
//! and is a typed [`ServeError::Corrupt`]. Recovery repairs a torn tail
//! by truncating the file back to [`WalReplay::bytes_valid`].

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::error::ServeError;
use crate::snapshot::{decode_cell, encode_cell};
use em_table::Value;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Format version this build writes and reads.
pub const WAL_VERSION: u32 = 1;

/// The exact header line (without the trailing newline).
const HEADER: &str = "em-wal v1";

fn corrupt(detail: impl std::fmt::Display) -> ServeError {
    ServeError::Corrupt(detail.to_string())
}

/// FNV-1a over a byte string: small, dependency-free, and plenty to catch
/// torn or bit-rotted record lines (this is an integrity check against
/// accidental damage, not an authenticity check against an adversary).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Record-escapes a payload so the line framing survives any cell bytes.
fn escape_record(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            _ => out.push(c),
        }
    }
    out
}

fn unescape_record(s: &str) -> Result<String, ServeError> {
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
            other => {
                return Err(corrupt(format!(
                    "bad record escape \\{}",
                    other.map(String::from).unwrap_or_default()
                )))
            }
        }
    }
    Ok(out)
}

/// Encodes one corpus row as a WAL record line, newline included.
fn encode_record(seq: u64, row: &[Value]) -> String {
    let cells: Vec<String> = row.iter().map(encode_cell).collect();
    let payload = escape_record(&cells.join("\t"));
    let sum = fnv1a64(format!("{seq} {payload}").as_bytes());
    format!("{seq} {sum:016x} {payload}\n")
}

/// Parses one *complete* record line (newline already stripped).
fn decode_record(line: &str, expected_seq: u64) -> Result<Vec<Value>, ServeError> {
    let (seq_tok, rest) = line
        .split_once(' ')
        .ok_or_else(|| corrupt(format!("wal record missing seq field: {line:?}")))?;
    let seq: u64 = seq_tok
        .parse()
        .map_err(|_| corrupt(format!("bad wal seq {seq_tok:?}")))?;
    if seq != expected_seq {
        return Err(corrupt(format!(
            "wal seq discontinuity: found {seq}, expected {expected_seq}"
        )));
    }
    let (sum_tok, payload) = rest
        .split_once(' ')
        .ok_or_else(|| corrupt(format!("wal record {seq} missing checksum field")))?;
    let declared = u64::from_str_radix(sum_tok, 16)
        .map_err(|_| corrupt(format!("bad wal checksum {sum_tok:?}")))?;
    let actual = fnv1a64(format!("{seq} {payload}").as_bytes());
    if declared != actual {
        return Err(corrupt(format!(
            "wal record {seq} checksum mismatch: declared {declared:016x}, computed {actual:016x}"
        )));
    }
    let raw = unescape_record(payload)?;
    raw.split('\t').map(decode_cell).collect()
}

/// The parsed contents of a WAL file.
#[derive(Debug, Clone, Default)]
pub struct WalReplay {
    /// Every valid record, in append order.
    pub records: Vec<Vec<Value>>,
    /// Whether the file ended in an unterminated fragment (dropped).
    pub torn_tail: bool,
    /// Byte offset just past the last valid record (truncating the file
    /// here repairs a torn tail without touching any valid record).
    pub bytes_valid: u64,
    /// Byte offset just past each valid record, in order — offset `k`
    /// is the file length after record `k` was appended, so truncating to
    /// `record_end_offsets[k]` reproduces the exact on-disk state of the
    /// service right after its `k`-th post-checkpoint push.
    pub record_end_offsets: Vec<u64>,
}

/// Reads and validates a WAL file.
///
/// Returns every checksummed record plus tear accounting; a torn final
/// line is tolerated and reported, mid-file damage is
/// [`ServeError::Corrupt`], a wrong header is
/// [`ServeError::VersionMismatch`] or [`ServeError::Corrupt`].
pub fn read_wal(path: &Path) -> Result<WalReplay, ServeError> {
    let text = std::fs::read_to_string(path)?;
    read_wal_text(&text)
}

/// [`read_wal`] over already-loaded file contents (exposed for tests that
/// probe every byte-level truncation without round-tripping the disk).
pub fn read_wal_text(text: &str) -> Result<WalReplay, ServeError> {
    let Some((header, mut rest)) = text.split_once('\n') else {
        // No terminated header line: either an empty/torn file (a crash
        // before the header write completed — treat as a fully torn,
        // empty log) or garbage.
        if HEADER.starts_with(text) {
            return Ok(WalReplay { torn_tail: !text.is_empty(), ..WalReplay::default() });
        }
        return Err(corrupt(format!("not a wal (bad header {text:?})")));
    };
    if header != HEADER {
        if let Some(v) = header.strip_prefix("em-wal v").and_then(|v| v.parse::<u32>().ok()) {
            return Err(ServeError::VersionMismatch { found: v, expected: WAL_VERSION });
        }
        return Err(corrupt(format!("not a wal (bad header {header:?})")));
    }
    let mut replay = WalReplay {
        bytes_valid: (header.len() + 1) as u64,
        ..WalReplay::default()
    };
    while !rest.is_empty() {
        let Some((line, tail)) = rest.split_once('\n') else {
            // Unterminated final line: a torn append. The fragment may
            // even parse (the tear could have eaten only the newline), but
            // a record is only durable once its newline hit the disk, so
            // it is dropped either way — deterministically.
            replay.torn_tail = true;
            break;
        };
        let row = decode_record(line, replay.records.len() as u64)?;
        replay.records.push(row);
        replay.bytes_valid += (line.len() + 1) as u64;
        replay.record_end_offsets.push(replay.bytes_valid);
        rest = tail;
    }
    Ok(replay)
}

/// Appends checksummed corpus rows to a WAL file.
///
/// Owned by the [`MatchService`](crate::MatchService): the service calls
/// [`WalWriter::append`] *before* touching its in-memory indexes, so the
/// log is always at least as new as the state it protects.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    next_seq: u64,
}

impl WalWriter {
    /// Creates (or truncates) a WAL at `path` and writes the header. Used
    /// when a fresh checkpoint makes all prior records redundant.
    pub fn create(path: &Path) -> Result<WalWriter, ServeError> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut file =
            OpenOptions::new().write(true).create(true).truncate(true).open(path)?;
        file.write_all(format!("{HEADER}\n").as_bytes())?;
        file.flush()?;
        Ok(WalWriter { file, path: path.to_path_buf(), next_seq: 0 })
    }

    /// Re-opens an existing WAL for appending after recovery, first
    /// truncating it to `bytes_valid` (which repairs a torn tail and is a
    /// no-op on a clean log). `next_seq` must be the number of valid
    /// records already in the file.
    pub fn resume(path: &Path, bytes_valid: u64, next_seq: u64) -> Result<WalWriter, ServeError> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(bytes_valid)?;
        let mut file = OpenOptions::new().append(true).open(path)?;
        file.flush()?;
        Ok(WalWriter { file, path: path.to_path_buf(), next_seq })
    }

    /// Appends one corpus row as a single atomic-prefix write (one
    /// `write_all` of the full line, then flush) and returns its sequence
    /// number. A crash anywhere inside leaves a torn tail that
    /// [`read_wal`] drops — never a damaged earlier record.
    pub fn append(&mut self, row: &[Value]) -> Result<u64, ServeError> {
        let seq = self.next_seq;
        let line = encode_record(seq, row);
        self.file.write_all(line.as_bytes())?;
        self.file.flush()?;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Sequence number the next append will use (== records written).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The file this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Vec<Value>> {
        vec![
            vec![
                Value::Str("ACC9".into()),
                Value::Str("2008-34103-19449".into()),
                Value::Null,
                Value::Str("corn\tfungicide \\ guide\nline".into()),
            ],
            vec![
                Value::Int(-3),
                Value::Float(0.1 + 0.2),
                Value::Bool(true),
                Value::Str("carriage\rreturn".into()),
            ],
            vec![Value::Null, Value::Null, Value::Null, Value::Null],
        ]
    }

    fn temp_wal(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("em-wal-test-{tag}-{}", std::process::id()))
    }

    #[test]
    fn append_read_round_trips_all_value_shapes() {
        let path = temp_wal("roundtrip");
        let mut w = WalWriter::create(&path).unwrap();
        for row in rows() {
            w.append(&row).unwrap();
        }
        assert_eq!(w.next_seq(), 3);
        let replay = read_wal(&path).unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(replay.records, rows());
        assert_eq!(replay.record_end_offsets.len(), 3);
        assert_eq!(
            replay.bytes_valid,
            std::fs::metadata(&path).unwrap().len(),
            "clean log must be valid to its last byte"
        );
        // Floats round-trip bit-exactly through the tagged-cell encoding.
        let Value::Float(f) = replay.records[1][1] else { panic!("not a float") };
        assert_eq!(f.to_bits(), (0.1f64 + 0.2).to_bits());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_byte_truncation_is_a_torn_tail_never_corrupt() {
        let path = temp_wal("tear");
        let mut w = WalWriter::create(&path).unwrap();
        for row in rows() {
            w.append(&row).unwrap();
        }
        let full = std::fs::read_to_string(&path).unwrap();
        let offsets = read_wal(&path).unwrap().record_end_offsets;
        for cut in 0..=full.len() {
            let replay = match read_wal_text(&full[..cut]) {
                Ok(r) => r,
                Err(e) => panic!("cut at byte {cut}: prefix must never be corrupt, got {e}"),
            };
            // The prefix keeps exactly the records whose full line
            // (newline included) survived the cut.
            let expect_n = offsets.iter().filter(|&&o| o <= cut as u64).count();
            assert_eq!(replay.records.len(), expect_n, "cut at byte {cut}");
            assert_eq!(replay.records, rows()[..expect_n].to_vec(), "cut at byte {cut}");
            // Torn iff the cut landed strictly inside a line.
            let at_boundary =
                cut as u64 == replay.bytes_valid || cut == 0;
            assert_eq!(replay.torn_tail, !at_boundary, "cut at byte {cut}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mid_file_damage_is_corrupt_not_tolerated() {
        let path = temp_wal("damage");
        let mut w = WalWriter::create(&path).unwrap();
        for row in rows() {
            w.append(&row).unwrap();
        }
        let full = std::fs::read_to_string(&path).unwrap();
        // Flip one payload byte of the middle record: its line is still
        // newline-terminated, so this is corruption, not a tear.
        let lines: Vec<&str> = full.lines().collect();
        let mut bad = lines[2].to_string();
        let flip_at = bad.len() - 1;
        let flipped = if bad.as_bytes()[flip_at] == b'x' { 'y' } else { 'x' };
        bad.replace_range(flip_at..bad.len(), &flipped.to_string());
        let damaged = format!("{}\n{}\n{}\n{}\n", lines[0], lines[1], bad, lines[3]);
        assert!(matches!(read_wal_text(&damaged), Err(ServeError::Corrupt(_))));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn seq_splice_and_bad_header_are_typed() {
        // A record claiming the wrong sequence number is a splice.
        let row = vec![Value::Int(1)];
        let spliced = format!("{HEADER}\n{}{}", encode_record(0, &row), encode_record(2, &row));
        assert!(matches!(read_wal_text(&spliced), Err(ServeError::Corrupt(_))));
        // Future version is a typed mismatch, garbage is corrupt.
        assert_eq!(
            read_wal_text("em-wal v9\n").map(|_| ()).unwrap_err(),
            ServeError::VersionMismatch { found: 9, expected: 1 }
        );
        assert!(matches!(read_wal_text("not a wal\n"), Err(ServeError::Corrupt(_))));
        // A header prefix (torn before the header newline) is an empty log
        // with a torn tail, so recovery can truncate-and-resume.
        let torn_header = read_wal_text("em-wal").unwrap();
        assert!(torn_header.torn_tail && torn_header.records.is_empty());
    }

    /// Reads `text`; a typed error is fine, an accepted log must be a fixed
    /// point: its records written again by [`WalWriter`] read back to the
    /// same records, and written once more give the same bytes. Returns
    /// whether `text` was accepted. A panic fails the test naming `what`.
    fn assert_reads_or_errs(text: &str, path: &Path, what: &str) -> bool {
        let write = |records: &[Vec<Value>]| {
            let mut w = WalWriter::create(path).unwrap();
            for row in records {
                w.append(row).unwrap();
            }
            std::fs::read_to_string(path).unwrap()
        };
        let outcome = std::panic::catch_unwind(|| read_wal_text(text).ok());
        match outcome {
            Err(_) => panic!("read_wal_text panicked on {what}"),
            Ok(None) => false,
            Ok(Some(replay)) => {
                let once = write(&replay.records);
                let back = read_wal_text(&once)
                    .unwrap_or_else(|e| panic!("{what}: rewrite unreadable: {e}"));
                assert_eq!(back.records.len(), replay.records.len(), "{what}: record count");
                assert!(!back.torn_tail, "{what}: a rewritten log has no torn tail");
                assert_eq!(write(&back.records), once, "{what}: accepted, but not a fixed point");
                true
            }
        }
    }

    #[test]
    fn hostile_bytes_are_typed_errors_or_fixed_points() {
        let path = temp_wal("hostile");
        let mut w = WalWriter::create(&path).unwrap();
        for row in rows().iter().chain(&rows()) {
            w.append(row).unwrap();
        }
        let good = std::fs::read_to_string(&path).unwrap();
        assert!(good.is_ascii());
        let scratch = temp_wal("hostile-rewrite");
        for cut in 0..good.len() {
            assert_reads_or_errs(&good[..cut], &scratch, &format!("truncation at {cut}"));
        }
        // Seeded single-byte ASCII mutations (splitmix64), tab and newline
        // included. Raw, most break a checksum; with every record's
        // checksum stamped again, the payload decoder sees each of them.
        let mut state = 20190326u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as usize
        };
        let restamp = |text: &str| -> String {
            let mut out = String::with_capacity(text.len());
            for line in text.split_inclusive('\n') {
                let body = line.strip_suffix('\n').unwrap_or(line);
                let mut fields = body.splitn(3, ' ');
                match (fields.next(), fields.next(), fields.next()) {
                    (Some(seq), Some(_), Some(payload)) if seq.parse::<u64>().is_ok() => {
                        let sum = fnv1a64(format!("{seq} {payload}").as_bytes());
                        out.push_str(&format!("{seq} {sum:016x} {payload}"));
                        out.push_str(&line[body.len()..]);
                    }
                    _ => out.push_str(line),
                }
            }
            out
        };
        let alphabet: Vec<u8> = (b' '..=b'~').chain([b'\t', b'\n']).collect();
        let (mut raw_ok, mut stamped_ok) = (0, 0);
        for _ in 0..4_000 {
            let at = next() % good.len();
            let byte = alphabet[next() % alphabet.len()];
            let mut bytes = good.clone().into_bytes();
            bytes[at] = byte;
            let text = String::from_utf8(bytes).unwrap();
            let what = format!("byte {at} set to {:?}", byte as char);
            raw_ok += usize::from(assert_reads_or_errs(&text, &scratch, &what));
            let what = format!("{what}, checksums restamped");
            stamped_ok += usize::from(assert_reads_or_errs(&restamp(&text), &scratch, &what));
        }
        // Both outcomes occur on the restamped logs: a mutation inside a
        // cell's text decodes, one in a tag, a seq or the framing does not.
        assert!((1..4_000).contains(&stamped_ok), "{stamped_ok} of 4000 restamped accepted");
        assert!(raw_ok < stamped_ok, "{raw_ok} raw vs {stamped_ok} restamped accepted");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&scratch);
    }

    #[test]
    fn resume_repairs_torn_tail_and_continues_the_sequence() {
        let path = temp_wal("resume");
        let mut w = WalWriter::create(&path).unwrap();
        for row in rows().iter().take(2) {
            w.append(row).unwrap();
        }
        drop(w);
        // Tear the second record: chop the trailing newline plus 3 bytes.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 4]).unwrap();
        let replay = read_wal(&path).unwrap();
        assert!(replay.torn_tail);
        assert_eq!(replay.records.len(), 1);
        // Resume truncates the fragment and appends seq 1 again.
        let mut w =
            WalWriter::resume(&path, replay.bytes_valid, replay.records.len() as u64).unwrap();
        assert_eq!(w.append(&rows()[1]).unwrap(), 1);
        assert_eq!(w.append(&rows()[2]).unwrap(), 2);
        let healed = read_wal(&path).unwrap();
        assert!(!healed.torn_tail);
        assert_eq!(healed.records, rows());
        let _ = std::fs::remove_file(&path);
    }
}
