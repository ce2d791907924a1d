//! Text wire format for values, result sets and exported schemas.
//!
//! The paper's components exchange "messages, data and command files"; this
//! module defines the line-oriented text encodings used between the engine
//! and the LAMs:
//!
//! * result sets (partial query results shipped to the coordinator and final
//!   results returned to the user);
//! * Local Conceptual Schemas (answering `SCHEMA` requests for IMPORT).
//!
//! Encodings are escaped so arbitrary strings (including `|`, newlines and
//! backslashes) survive a round trip; every encoder has a matching decoder
//! and the pair is covered by tests.

use crate::error::MdbsError;
use catalog::{GddColumn, GddTable};
use ldbs::engine::{ColumnMeta, ResultSet, RowSink};
use ldbs::stats::{ColumnStats, TableStats};
use ldbs::value::{DataType, Value};
use msql_lang::TypeName;
use std::borrow::{Borrow, Cow};
use std::fmt::Write;
use std::vec::Drain;

// ----------------------------------------------------------------- escaping

/// Escapes `\`, `|` and newlines.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Appends `s` escaped: the runs between special characters in one copy
/// each, so a string with none of `\`, `|`, newline, carriage return is one
/// `push_str`.
fn escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'\\' => "\\\\",
            b'|' => "\\p",
            b'\n' => "\\n",
            b'\r' => "\\r",
            _ => continue,
        };
        // The four are ASCII, so `i` is a character boundary.
        out.push_str(&s[run..i]);
        out.push_str(escaped);
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Reverses [`escape`]. Errors carry the byte offset of the offending
/// backslash so a corrupt field inside a large payload can be located.
pub fn unescape(s: &str) -> Result<String, MdbsError> {
    // Most fields hold no escape at all: one copy, no per-char pushes.
    let Some(first) = s.bytes().position(|b| b == b'\\') else { return Ok(s.to_owned()) };
    let mut out = String::with_capacity(s.len());
    out.push_str(&s[..first]);
    let mut chars = s[first..].char_indices();
    while let Some((pos, c)) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        let pos = first + pos;
        match chars.next() {
            Some((_, '\\')) => out.push('\\'),
            Some((_, 'p')) => out.push('|'),
            Some((_, 'n')) => out.push('\n'),
            Some((_, 'r')) => out.push('\r'),
            Some((_, other)) => {
                return Err(MdbsError::Wire(format!(
                    "bad escape sequence `\\{other}` at byte {pos}"
                )));
            }
            None => {
                return Err(MdbsError::Wire(format!("trailing backslash at byte {pos}")));
            }
        }
    }
    Ok(out)
}

// ------------------------------------------------------------------- values

/// Encodes one value.
pub fn encode_value(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v);
    out
}

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push('N'),
        Value::Int(i) => {
            out.push_str("I:");
            write_int(out, *i);
        }
        Value::Float(f) => {
            let _ = write!(out, "F:{f:?}");
        }
        Value::Str(s) => {
            out.push_str("S:");
            escape_into(out, s);
        }
        Value::Bool(b) => out.push_str(if *b { "B:1" } else { "B:0" }),
    }
}

/// Appends the decimal digits of `i`, as `i.to_string()` spells them.
fn write_int(out: &mut String, i: i64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut n = i.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if i < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Decodes one value, reading numbers and booleans straight from the slice.
pub fn decode_value(s: &str) -> Result<Value, MdbsError> {
    let rest = s.get(2..).unwrap_or("");
    match s.as_bytes() {
        [b'N'] => Ok(Value::Null),
        [b'I', b':', ..] => {
            rest.parse().map(Value::Int).map_err(|_| MdbsError::Wire(format!("bad int `{rest}`")))
        }
        [b'F', b':', ..] => rest
            .parse()
            .map(Value::Float)
            .map_err(|_| MdbsError::Wire(format!("bad float `{rest}`"))),
        [b'S', b':', ..] => Ok(Value::Str(unescape(rest)?)),
        [b'B', b':', ..] => match rest {
            "0" => Ok(Value::Bool(false)),
            "1" => Ok(Value::Bool(true)),
            _ => Err(MdbsError::Wire(format!("bad bool `{rest}`"))),
        },
        _ => Err(MdbsError::Wire(match s.split_once(':') {
            Some((tag, _)) => format!("unknown value tag `{tag}`"),
            None => format!("bad value encoding `{s}`"),
        })),
    }
}

// -------------------------------------------------------------- data types

/// Encodes a data type.
pub fn encode_type(t: DataType) -> String {
    match t {
        DataType::Int => "int".to_string(),
        DataType::Float => "float".to_string(),
        DataType::Char(w) => format!("char({w})"),
        DataType::Bool => "bool".to_string(),
        DataType::Date => "date".to_string(),
    }
}

/// Decodes a data type.
pub fn decode_type(s: &str) -> Result<DataType, MdbsError> {
    match s {
        "int" => Ok(DataType::Int),
        "float" => Ok(DataType::Float),
        "bool" => Ok(DataType::Bool),
        "date" => Ok(DataType::Date),
        other => {
            if let Some(w) = other.strip_prefix("char(").and_then(|r| r.strip_suffix(')')) {
                let width: u32 =
                    w.parse().map_err(|_| MdbsError::Wire(format!("bad char width `{w}`")))?;
                return Ok(DataType::Char(width));
            }
            Err(MdbsError::Wire(format!("unknown type `{other}`")))
        }
    }
}

// ------------------------------------------------------------- result sets

/// Serializes a result set.
///
/// ```text
/// COLS name:type|name:type
/// R v|v|v
/// R v|v|v
/// ```
pub fn encode_result_set(rs: &ResultSet) -> String {
    let mut out = String::new();
    write_result_set(&mut out, rs);
    out
}

/// Appends the [`encode_result_set`] form of `rs` to `out` — how a message
/// body takes its payload without an intermediate string. The rows go
/// through [`TextRows`]'s row kernel, as a LAM's reply does.
pub fn write_result_set(out: &mut String, rs: &ResultSet) {
    write_header(out, rs.columns.iter().map(|c| (c.name.as_str(), c.data_type)));
    for row in &rs.rows {
        write_row(out, row);
    }
}

/// The `COLS` line.
fn write_header<'c>(out: &mut String, columns: impl Iterator<Item = (&'c str, DataType)>) {
    out.push_str("COLS ");
    for (i, (name, data_type)) in columns.enumerate() {
        if i > 0 {
            out.push('|');
        }
        escape_into(out, name);
        out.push(':');
        out.push_str(&encode_type(data_type));
    }
    out.push('\n');
}

/// One `R` line.
fn write_row<V: Borrow<Value>>(out: &mut String, values: impl IntoIterator<Item = V>) {
    out.push_str("R ");
    for (i, v) in values.into_iter().enumerate() {
        if i > 0 {
            out.push('|');
        }
        write_value(out, v.borrow());
    }
    out.push('\n');
}

/// The text codec's row writer: a [`RowSink`] that appends each row it is
/// given to a string as an `R` line, so the string ends up holding what
/// [`write_result_set`] writes for the same rows. The `COLS` line comes
/// first: written before the rows when every column's type is known then,
/// else put in front of them once [`RowSink::finish`] brings the types.
#[derive(Default)]
pub struct TextRows {
    out: String,
    /// Where the `COLS` line goes when the types came after the rows.
    header_at: Option<usize>,
    rows: usize,
    /// Set when rows are only counted ([`TextRows::counting`]): the bytes of
    /// those written and dropped so far.
    dropped: Option<usize>,
}

impl TextRows {
    /// A writer that keeps no row: it only sizes the text.
    pub fn counting() -> Self {
        TextRows { dropped: Some(0), ..TextRows::default() }
    }

    /// Rows written so far.
    pub fn count(&self) -> usize {
        self.rows
    }

    /// Bytes of the text written so far, kept or not.
    pub fn byte_len(&self) -> usize {
        self.out.len() + self.dropped.unwrap_or(0)
    }

    /// The text written.
    pub fn into_string(self) -> String {
        self.out
    }
}

impl RowSink for TextRows {
    fn begin(&mut self, columns: &[(String, Option<DataType>)]) {
        let typed: Option<Vec<(&str, DataType)>> =
            columns.iter().map(|(name, ty)| Some((name.as_str(), (*ty)?))).collect();
        match typed {
            Some(columns) => write_header(&mut self.out, columns.into_iter()),
            None => self.header_at = Some(self.out.len()),
        }
    }

    fn row(&mut self, values: Drain<'_, Cow<'_, Value>>) {
        let start = self.out.len();
        write_row(&mut self.out, values.as_slice().iter().map(|v| &**v));
        self.rows += 1;
        if let Some(dropped) = &mut self.dropped {
            *dropped += self.out.len() - start;
            self.out.truncate(start);
        }
    }

    fn finish(&mut self, columns: Vec<ColumnMeta>) {
        if let Some(at) = self.header_at.take() {
            let mut header = String::new();
            write_header(&mut header, columns.iter().map(|c| (c.name.as_str(), c.data_type)));
            self.out.insert_str(at, &header);
        }
    }
}

/// The fields of an encoded record: the slices of `line` between unescaped
/// `|`, escapes left as written. An empty line is one empty field.
fn split_fields(line: &str) -> impl Iterator<Item = &str> {
    let mut rest = Some(line);
    std::iter::from_fn(move || {
        let line = rest?;
        let bytes = line.as_bytes();
        // `\` and `|` are ASCII, so a byte scan never splits a character;
        // the byte after a backslash belongs to it whatever it is.
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'|' => {
                    rest = Some(&line[i + 1..]);
                    return Some(&line[..i]);
                }
                _ => i += 1,
            }
        }
        rest = None;
        Some(line)
    })
}

/// Deserializes a result set.
pub fn decode_result_set(text: &str) -> Result<ResultSet, MdbsError> {
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| MdbsError::Wire("empty result set payload".into()))?;
    let cols_text = header
        .strip_prefix("COLS ")
        .or_else(|| (header == "COLS").then_some(""))
        .ok_or_else(|| MdbsError::Wire(format!("bad result header `{header}`")))?;
    let mut columns = Vec::new();
    if !cols_text.is_empty() {
        for field in split_fields(cols_text) {
            let (name, ty) = field
                .rsplit_once(':')
                .ok_or_else(|| MdbsError::Wire(format!("bad column `{field}`")))?;
            columns.push(ColumnMeta { name: unescape(name)?, data_type: decode_type(ty)? });
        }
    }
    let mut rows = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let row_text = line
            .strip_prefix("R ")
            .or_else(|| (line == "R").then_some(""))
            .ok_or_else(|| MdbsError::Wire(format!("bad row line `{line}`")))?;
        let mut row = Vec::with_capacity(columns.len());
        if !row_text.is_empty() {
            for field in split_fields(row_text) {
                row.push(decode_value(field)?);
            }
        }
        if row.len() != columns.len() {
            return Err(MdbsError::Wire(format!(
                "row has {} values for {} columns",
                row.len(),
                columns.len()
            )));
        }
        rows.push(row);
    }
    Ok(ResultSet { columns, rows })
}

// ------------------------------------------------------------------ schemas

fn encode_type_name(t: TypeName) -> String {
    match t {
        TypeName::Int => "int".to_string(),
        TypeName::Float => "float".to_string(),
        TypeName::Char(w) => format!("char({w})"),
        TypeName::Bool => "bool".to_string(),
        TypeName::Date => "date".to_string(),
    }
}

fn decode_type_name(s: &str) -> Result<TypeName, MdbsError> {
    Ok(match decode_type(s)? {
        DataType::Int => TypeName::Int,
        DataType::Float => TypeName::Float,
        DataType::Char(w) => TypeName::Char(w),
        DataType::Bool => TypeName::Bool,
        DataType::Date => TypeName::Date,
    })
}

/// Serializes a Local Conceptual Schema (the answer to a `SCHEMA` request).
///
/// ```text
/// TABLE cars code:int|cartype:char(16)
/// VIEW available code:int
/// ```
pub fn encode_schema(tables: &[GddTable]) -> String {
    let mut out = String::new();
    for t in tables {
        out.push_str(if t.is_view { "VIEW " } else { "TABLE " });
        out.push_str(&escape(&t.name));
        out.push(' ');
        let cols: Vec<String> = t
            .columns
            .iter()
            .map(|c| format!("{}:{}", escape(&c.name), encode_type_name(c.type_name)))
            .collect();
        out.push_str(&cols.join("|"));
        out.push('\n');
    }
    out
}

/// Deserializes a Local Conceptual Schema.
pub fn decode_schema(text: &str) -> Result<Vec<GddTable>, MdbsError> {
    let mut out = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        let (is_view, rest) = if let Some(r) = line.strip_prefix("TABLE ") {
            (false, r)
        } else if let Some(r) = line.strip_prefix("VIEW ") {
            (true, r)
        } else {
            return Err(MdbsError::Wire(format!("bad schema line `{line}`")));
        };
        let (name, cols_text) = rest
            .split_once(' ')
            .ok_or_else(|| MdbsError::Wire(format!("bad schema line `{line}`")))?;
        let mut columns = Vec::new();
        for field in split_fields(cols_text) {
            let (cname, ty) = field
                .rsplit_once(':')
                .ok_or_else(|| MdbsError::Wire(format!("bad schema column `{field}`")))?;
            columns.push(GddColumn::new(unescape(cname)?, decode_type_name(ty)?));
        }
        let mut table = GddTable::new(unescape(name)?, columns);
        table.is_view = is_view;
        out.push(table);
    }
    Ok(out)
}

// --------------------------------------------------------------- statistics

/// One table's optimizer statistics as exported by a site (the answer to a
/// `STATS` request): the snapshot itself plus the staleness counter the
/// coordinator uses to decide how much to trust it.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteTableStats {
    /// Table name (lowercase).
    pub table: String,
    /// Mutations applied since the snapshot was collected.
    pub dml_since: u64,
    /// The statistics snapshot.
    pub stats: TableStats,
}

/// Serializes exported statistics. Only analyzed tables appear — a table
/// that was never `ANALYZE`d is simply absent, telling the coordinator to
/// fall back to heuristics.
///
/// ```text
/// TABLE cars 1000 7
/// COL code|997|0|I:1|I:1000|I:125|I:250|...
/// ```
///
/// `COL` fields: name, NDV, null count, min, max, then the equi-depth
/// histogram bounds. Absent min/max (empty column) encode as `-`.
pub fn encode_stats(tables: &[SiteTableStats]) -> String {
    let mut out = String::new();
    for t in tables {
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!("TABLE {} {} {}\n", escape(&t.table), t.stats.row_count, t.dml_since),
        );
        for c in &t.stats.columns {
            let mut fields = vec![
                escape(&c.name),
                c.ndv.to_string(),
                c.null_count.to_string(),
                c.min.as_ref().map_or_else(|| "-".to_string(), encode_value),
                c.max.as_ref().map_or_else(|| "-".to_string(), encode_value),
            ];
            fields.extend(c.histogram.iter().map(encode_value));
            out.push_str("COL ");
            out.push_str(&fields.join("|"));
            out.push('\n');
        }
    }
    out
}

/// Deserializes exported statistics.
pub fn decode_stats(text: &str) -> Result<Vec<SiteTableStats>, MdbsError> {
    fn parse_u64(s: &str, what: &str) -> Result<u64, MdbsError> {
        s.parse().map_err(|_| MdbsError::Wire(format!("bad {what} `{s}`")))
    }
    fn opt_value(s: &str) -> Result<Option<Value>, MdbsError> {
        if s == "-" {
            Ok(None)
        } else {
            decode_value(s).map(Some)
        }
    }
    let mut out: Vec<SiteTableStats> = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("TABLE ") {
            let mut words = rest.split(' ');
            let (name, rows, dml) = match (words.next(), words.next(), words.next(), words.next()) {
                (Some(n), Some(r), Some(d), None) => (n, r, d),
                _ => return Err(MdbsError::Wire(format!("bad stats table line `{line}`"))),
            };
            out.push(SiteTableStats {
                table: unescape(name)?,
                dml_since: parse_u64(dml, "staleness counter")?,
                stats: TableStats { row_count: parse_u64(rows, "row count")?, columns: Vec::new() },
            });
        } else if let Some(rest) = line.strip_prefix("COL ") {
            let current = out
                .last_mut()
                .ok_or_else(|| MdbsError::Wire("stats COL line before any TABLE".into()))?;
            let fields: Vec<&str> = split_fields(rest).collect();
            if fields.len() < 5 {
                return Err(MdbsError::Wire(format!("bad stats column line `{line}`")));
            }
            let mut histogram = Vec::with_capacity(fields.len() - 5);
            for f in &fields[5..] {
                histogram.push(decode_value(f)?);
            }
            current.stats.columns.push(ColumnStats {
                name: unescape(fields[0])?,
                ndv: parse_u64(fields[1], "ndv")?,
                null_count: parse_u64(fields[2], "null count")?,
                min: opt_value(fields[3])?,
                max: opt_value(fields[4])?,
                histogram,
            });
        } else {
            return Err(MdbsError::Wire(format!("bad stats line `{line}`")));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The text decoder as first written — every field pushed char by char
    // into a fresh `String`, then unescaped into a second one — kept as the
    // definition of what a text decodes to and of every error string.
    fn unescape_reference(s: &str) -> Result<String, MdbsError> {
        let mut out = String::with_capacity(s.len());
        let mut chars = s.char_indices();
        while let Some((pos, c)) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'p')) => out.push('|'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, other)) => {
                    return Err(MdbsError::Wire(format!(
                        "bad escape sequence `\\{other}` at byte {pos}"
                    )));
                }
                None => {
                    return Err(MdbsError::Wire(format!("trailing backslash at byte {pos}")));
                }
            }
        }
        Ok(out)
    }

    fn decode_value_reference(s: &str) -> Result<Value, MdbsError> {
        if s == "N" {
            return Ok(Value::Null);
        }
        let (tag, rest) = s
            .split_once(':')
            .ok_or_else(|| MdbsError::Wire(format!("bad value encoding `{s}`")))?;
        match tag {
            "I" => rest
                .parse()
                .map(Value::Int)
                .map_err(|_| MdbsError::Wire(format!("bad int `{rest}`"))),
            "F" => rest
                .parse()
                .map(Value::Float)
                .map_err(|_| MdbsError::Wire(format!("bad float `{rest}`"))),
            "S" => Ok(Value::Str(unescape_reference(rest)?)),
            "B" => match rest {
                "0" => Ok(Value::Bool(false)),
                "1" => Ok(Value::Bool(true)),
                _ => Err(MdbsError::Wire(format!("bad bool `{rest}`"))),
            },
            _ => Err(MdbsError::Wire(format!("unknown value tag `{tag}`"))),
        }
    }

    fn split_fields_reference(line: &str) -> Vec<String> {
        let mut fields = Vec::new();
        let mut current = String::new();
        let mut escaped = false;
        for c in line.chars() {
            if escaped {
                current.push('\\');
                current.push(c);
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '|' {
                fields.push(std::mem::take(&mut current));
            } else {
                current.push(c);
            }
        }
        if escaped {
            current.push('\\');
        }
        fields.push(current);
        fields
    }

    fn decode_result_set_reference(text: &str) -> Result<ResultSet, MdbsError> {
        let mut lines = text.lines();
        let header =
            lines.next().ok_or_else(|| MdbsError::Wire("empty result set payload".into()))?;
        let cols_text = header
            .strip_prefix("COLS ")
            .or_else(|| (header == "COLS").then_some(""))
            .ok_or_else(|| MdbsError::Wire(format!("bad result header `{header}`")))?;
        let mut columns = Vec::new();
        if !cols_text.is_empty() {
            for field in split_fields_reference(cols_text) {
                let (name, ty) = field
                    .rsplit_once(':')
                    .ok_or_else(|| MdbsError::Wire(format!("bad column `{field}`")))?;
                columns.push(ColumnMeta {
                    name: unescape_reference(name)?,
                    data_type: decode_type(ty)?,
                });
            }
        }
        let mut rows = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let row_text = line
                .strip_prefix("R ")
                .or_else(|| (line == "R").then_some(""))
                .ok_or_else(|| MdbsError::Wire(format!("bad row line `{line}`")))?;
            let mut row = Vec::new();
            if !row_text.is_empty() {
                for field in split_fields_reference(row_text) {
                    row.push(decode_value_reference(&field)?);
                }
            }
            if row.len() != columns.len() {
                return Err(MdbsError::Wire(format!(
                    "row has {} values for {} columns",
                    row.len(),
                    columns.len()
                )));
            }
            rows.push(row);
        }
        Ok(ResultSet { columns, rows })
    }

    /// `Debug` of either outcome: NaN decodes to NaN, which `==` rejects.
    fn outcome(r: Result<ResultSet, MdbsError>) -> String {
        format!("{r:?}")
    }

    #[test]
    fn result_sets_decode_as_the_reference_decodes_them() {
        let mut state = 0x5DEE_CE66Du64;
        let mut below = |n: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let pieces = ["", "a", "|", "\\", "\n", "\r", "é", "p", "n", ":", "N", "I:", " ", "日本"];
        for case in 0..600 {
            let ncols = below(5) as usize;
            let columns: Vec<ColumnMeta> = (0..ncols)
                .map(|c| ColumnMeta {
                    name: format!("c{c}{}", pieces[below(pieces.len() as u64) as usize]),
                    data_type: [DataType::Int, DataType::Float, DataType::Char(8), DataType::Bool]
                        [below(4) as usize],
                })
                .collect();
            let rows: Vec<Vec<Value>> = (0..below(6))
                .map(|_| {
                    (0..ncols)
                        .map(|_| match below(6) {
                            0 => Value::Null,
                            1 => Value::Int(below(1 << 50) as i64 - (1 << 49)),
                            2 => Value::Float(
                                [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.1, 1e300]
                                    [below(6) as usize],
                            ),
                            3 => Value::Bool(below(2) == 0),
                            _ => Value::Str(
                                (0..below(4))
                                    .map(|_| pieces[below(pieces.len() as u64) as usize])
                                    .collect(),
                            ),
                        })
                        .collect()
                })
                .collect();
            let text = encode_result_set(&ResultSet { columns, rows });
            let got = decode_result_set(&text);
            assert!(got.is_ok(), "case {case}: {text:?}");
            assert_eq!(outcome(got), outcome(decode_result_set_reference(&text)), "case {case}");
            // Corrupt it: cut it short, break an escape, drop or add a field,
            // garble a tag, a number or a line prefix, end lines in CR LF.
            for _ in 0..8 {
                let mut bad = text.clone();
                let at = |n: u64, s: &str| {
                    let mut i = (n as usize) % (s.len() + 1);
                    while !s.is_char_boundary(i) {
                        i -= 1;
                    }
                    i
                };
                match below(7) {
                    0 => bad.truncate(at(below(1 << 20), &bad)),
                    1 => bad.insert_str(
                        at(below(1 << 20), &bad),
                        ["\\x", "\\", "\\|"][below(3) as usize],
                    ),
                    2 => bad.insert(at(below(1 << 20), &bad), '|'),
                    3 => bad = bad.replacen('|', "", 1),
                    4 => bad.insert_str(
                        at(below(1 << 20), &bad),
                        ["Q:1", ":", "I:x", "F:", "B:2", "é"][below(6) as usize],
                    ),
                    5 => bad = bad.replace('\n', "\r\n"),
                    _ => bad = bad.replacen("R ", ["R", "X ", ""][below(3) as usize], 1),
                }
                assert_eq!(
                    outcome(decode_result_set(&bad)),
                    outcome(decode_result_set_reference(&bad)),
                    "case {case}: {bad:?}"
                );
            }
        }
        // Single values and bare escapes, where the error offsets live.
        for s in [
            "", "N", "NN", ":", "::x", "I", "I:", "I:+7", "F:nan", "F:-0", "S:", "S:a\\", "S:é\\q",
            "é:1", "B:", "IS:1",
        ] {
            assert_eq!(
                format!("{:?}", decode_value(s)),
                format!("{:?}", decode_value_reference(s)),
                "{s:?}"
            );
        }
        for s in ["", "plain", "\\", "a\\", "é\\q", "\\p\\n\\r\\\\", "x\\p\\", "日\\本"] {
            assert_eq!(
                format!("{:?}", unescape(s)),
                format!("{:?}", unescape_reference(s)),
                "{s:?}"
            );
            let fields: Vec<&str> = split_fields(s).collect();
            assert_eq!(fields, split_fields_reference(s), "{s:?}");
        }
    }

    #[test]
    fn value_roundtrip() {
        for v in [
            Value::Null,
            Value::Int(-42),
            Value::Float(1.25),
            Value::Float(1.0 / 3.0),
            Value::Str("plain".into()),
            Value::Str("pipes | and \\ slashes\nnewlines".into()),
            Value::Str(String::new()),
            Value::Bool(true),
            Value::Bool(false),
        ] {
            let enc = encode_value(&v);
            assert_eq!(decode_value(&enc).unwrap(), v, "encoded: {enc}");
        }
    }

    #[test]
    fn integers_are_spelled_as_to_string_spells_them() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut generated = vec![0, 1, -1, 9, 10, -10, 99, 100, i64::MAX, i64::MIN, i64::MIN + 1];
        generated.extend((0..2000).map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Every magnitude, from one digit to nineteen.
            (state as i64) >> (i % 64)
        }));
        for i in generated {
            let mut out = String::from("x");
            write_int(&mut out, i);
            assert_eq!(out[1..], i.to_string());
            let v = Value::Int(i);
            assert_eq!(decode_value(&encode_value(&v)).unwrap(), v);
        }
    }

    #[test]
    fn escaped_strings_decode_to_themselves() {
        // Runs of every length between the four special characters, which
        // are copied whole: the round trip and a count of the escapes pin
        // the bytes.
        let alphabet = ['a', '|', '\\', '\n', '\r', 'é', ' ', 'p', 'n', '漢'];
        let mut state = 0x9E37_79B9u64;
        for len in 0..400 {
            let s: String = (0..len % 40)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    alphabet[(state >> 33) as usize % alphabet.len()]
                })
                .collect();
            let escaped = escape(&s);
            let specials = s.chars().filter(|c| matches!(c, '|' | '\\' | '\n' | '\r')).count();
            assert_eq!(escaped.len(), s.len() + specials, "{s:?} → {escaped:?}");
            assert!(!escaped.contains(['|', '\n', '\r']), "{escaped:?}");
            assert_eq!(unescape(&escaped).unwrap(), s);
            let v = Value::Str(s);
            assert_eq!(decode_value(&encode_value(&v)).unwrap(), v);
        }
    }

    #[test]
    fn type_roundtrip() {
        for t in [
            DataType::Int,
            DataType::Float,
            DataType::Char(0),
            DataType::Char(255),
            DataType::Bool,
            DataType::Date,
        ] {
            assert_eq!(decode_type(&encode_type(t)).unwrap(), t);
        }
    }

    #[test]
    fn result_set_roundtrip() {
        let rs = ResultSet {
            columns: vec![
                ColumnMeta { name: "code".into(), data_type: DataType::Int },
                ColumnMeta { name: "weird|name".into(), data_type: DataType::Char(10) },
            ],
            rows: vec![
                vec![Value::Int(1), Value::Str("a|b".into())],
                vec![Value::Null, Value::Str("line\nbreak".into())],
            ],
        };
        let enc = encode_result_set(&rs);
        assert_eq!(decode_result_set(&enc).unwrap(), rs);
    }

    #[test]
    fn empty_result_set_roundtrip() {
        let rs = ResultSet { columns: vec![], rows: vec![] };
        let enc = encode_result_set(&rs);
        let back = decode_result_set(&enc).unwrap();
        assert!(back.columns.is_empty() && back.rows.is_empty());
    }

    #[test]
    fn arity_mismatch_detected() {
        let bad = "COLS a:int|b:int\nR I:1\n";
        assert!(matches!(decode_result_set(bad), Err(MdbsError::Wire(_))));
    }

    #[test]
    fn schema_roundtrip() {
        let mut view = GddTable::new("avail", vec![GddColumn::new("code", TypeName::Int)]);
        view.is_view = true;
        let tables = vec![
            GddTable::new(
                "cars",
                vec![
                    GddColumn::new("code", TypeName::Int),
                    GddColumn::new("cartype", TypeName::Char(16)),
                    GddColumn::new("rate", TypeName::Float),
                ],
            ),
            view,
        ];
        let enc = encode_schema(&tables);
        assert_eq!(decode_schema(&enc).unwrap(), tables);
    }

    #[test]
    fn stats_roundtrip() {
        let tables = vec![
            SiteTableStats {
                table: "cars".into(),
                dml_since: 7,
                stats: TableStats {
                    row_count: 1000,
                    columns: vec![
                        ColumnStats {
                            name: "code".into(),
                            ndv: 997,
                            null_count: 0,
                            min: Some(Value::Int(1)),
                            max: Some(Value::Int(1000)),
                            histogram: vec![Value::Int(125), Value::Int(1000)],
                        },
                        ColumnStats {
                            name: "weird|name".into(),
                            ndv: 2,
                            null_count: 3,
                            min: Some(Value::Str("a|b".into())),
                            max: Some(Value::Str("z\nz".into())),
                            histogram: vec![],
                        },
                    ],
                },
            },
            SiteTableStats {
                table: "empty".into(),
                dml_since: 0,
                stats: TableStats {
                    row_count: 0,
                    columns: vec![ColumnStats {
                        name: "x".into(),
                        ndv: 0,
                        null_count: 0,
                        min: None,
                        max: None,
                        histogram: vec![],
                    }],
                },
            },
        ];
        let enc = encode_stats(&tables);
        assert_eq!(decode_stats(&enc).unwrap(), tables);
        // An empty export is a valid "no statistics" answer.
        assert_eq!(decode_stats("").unwrap(), Vec::new());
    }

    #[test]
    fn bad_stats_rejected() {
        assert!(decode_stats("COL a|1|0|-|-").is_err(), "COL before TABLE");
        assert!(decode_stats("TABLE cars 10").is_err(), "missing staleness");
        assert!(decode_stats("TABLE cars ten 0").is_err(), "bad row count");
        assert!(decode_stats("TABLE cars 10 0\nCOL a|1|0|-").is_err(), "too few fields");
        assert!(decode_stats("TABLE cars 10 0\nCOL a|1|0|-|Q:9").is_err(), "bad value");
        assert!(decode_stats("GRBL").is_err(), "unknown line");
    }

    #[test]
    fn garbage_rejected() {
        assert!(decode_value("X:1").is_err());
        assert!(decode_value("I:notanint").is_err());
        assert!(decode_result_set("nonsense").is_err());
        assert!(decode_schema("GRBL x y").is_err());
        assert!(decode_type("char(abc)").is_err());
    }

    #[test]
    fn bad_escapes_report_the_offset() {
        let err = unescape("abc\\x").unwrap_err().to_string();
        assert!(err.contains("`\\x`") && err.contains("byte 3"), "got: {err}");
        let err = unescape("abcd\\").unwrap_err().to_string();
        assert!(err.contains("trailing backslash") && err.contains("byte 4"), "got: {err}");
        // Offsets are byte offsets, robust to preceding multi-byte chars.
        let err = unescape("é\\q").unwrap_err().to_string();
        assert!(err.contains("byte 2"), "got: {err}");
    }
}
