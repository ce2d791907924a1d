//! Columnar binary encoding for result sets.
//!
//! The text proto ships partials row-at-a-time as escaped strings; here the
//! same [`ResultSet`] is laid out column-wise so the encoder can pick a
//! representation per column:
//!
//! ```text
//! varint ncols
//! per column:  str name · type byte (0 int, 1 float, 2 char + varint width,
//!                                    3 bool, 4 date)
//! varint nrows
//! per column:
//!   encoding byte        0 typed ints (zigzag varints)
//!                        1 typed floats (f64 LE bits)
//!                        2 typed bools (bit-packed)
//!                        3 plain strings
//!                        4 dictionary strings (dict + varint indexes)
//!                        5 mixed (per-value tag byte)
//!   NULL bitmap          ceil(nrows/8) bytes, LSB-first; set bit = non-NULL
//!   values               non-NULL values only, in row order
//! ```
//!
//! Typed encodings drop the per-value tag entirely; the dictionary encoding
//! is chosen over plain strings only when the encoder's size estimate says
//! it is smaller (repeated strings — the common case for type/status
//! columns). No escaping anywhere: strings are length-prefixed.

use super::varint::{write_f64, write_i64, write_str, write_u64, Reader};
use crate::error::MdbsError;
use ldbs::engine::{ColumnMeta, ResultSet, RowSink};
use ldbs::value::{DataType, Value};
use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::vec::Drain;

const TYPE_INT: u8 = 0;
const TYPE_FLOAT: u8 = 1;
const TYPE_CHAR: u8 = 2;
const TYPE_BOOL: u8 = 3;
const TYPE_DATE: u8 = 4;

const COL_INTS: u8 = 0;
const COL_FLOATS: u8 = 1;
const COL_BOOLS: u8 = 2;
const COL_STRS: u8 = 3;
const COL_DICT: u8 = 4;
const COL_MIXED: u8 = 5;

const MIXED_INT: u8 = 0;
const MIXED_FLOAT: u8 = 1;
const MIXED_STR: u8 = 2;
const MIXED_BOOL: u8 = 3;

/// Encodes a result set into `buf`, through the same [`ColumnarRows`] writer
/// a LAM's reply is written with.
pub fn write_result_set(buf: &mut Vec<u8>, rs: &ResultSet) {
    let mut rows = ColumnarRows::default();
    rows.begin_columns(rs.columns.len());
    for row in &rs.rows {
        rows.push_row(row.iter());
    }
    rows.finish(rs.columns.clone());
    rows.write_to(buf);
}

/// The column descriptions and the row count.
fn write_header(buf: &mut Vec<u8>, columns: &[ColumnMeta], nrows: usize) {
    write_u64(buf, columns.len() as u64);
    for col in columns {
        write_str(buf, &col.name);
        match col.data_type {
            DataType::Int => buf.push(TYPE_INT),
            DataType::Float => buf.push(TYPE_FLOAT),
            DataType::Char(w) => {
                buf.push(TYPE_CHAR);
                write_u64(buf, u64::from(w));
            }
            DataType::Bool => buf.push(TYPE_BOOL),
            DataType::Date => buf.push(TYPE_DATE),
        }
    }
    write_u64(buf, nrows as u64);
}

/// Encodes a result set as a standalone byte vector.
pub fn encode_result_set(rs: &ResultSet) -> Vec<u8> {
    let mut buf = Vec::new();
    write_result_set(&mut buf, rs);
    buf
}

/// The columnar codec's row writer: a [`RowSink`] that lays each row it is
/// given into per-column buffers — a NULL bitmap and the values in the
/// column's layout — and writes the block once the rows, and with them the
/// row count and the columns' final types, are known. The bytes are
/// [`write_result_set`]'s for the same rows.
#[derive(Default)]
pub struct ColumnarRows {
    cols: Vec<ColumnWriter>,
    nrows: usize,
    columns: Vec<ColumnMeta>,
}

impl ColumnarRows {
    fn begin_columns(&mut self, ncols: usize) {
        self.cols = (0..ncols).map(|_| ColumnWriter::default()).collect();
    }

    /// Lays one row's values into the columns.
    fn push_row<'v>(&mut self, values: impl Iterator<Item = &'v Value>) {
        for (col, v) in self.cols.iter_mut().zip(values) {
            col.push(self.nrows, v);
        }
        self.nrows += 1;
    }

    /// Rows written so far.
    pub fn count(&self) -> usize {
        self.nrows
    }

    /// Bytes the block takes, without writing it.
    pub fn byte_len(&self) -> usize {
        let mut header = Vec::new();
        write_header(&mut header, &self.columns, self.nrows);
        header.len() + self.cols.iter().map(ColumnWriter::byte_len).sum::<usize>()
    }

    /// Appends the block to `buf`: the header, then each column.
    pub fn write_to(self, buf: &mut Vec<u8>) {
        buf.reserve(self.byte_len());
        write_header(buf, &self.columns, self.nrows);
        for col in self.cols {
            col.finish(buf);
        }
    }
}

impl RowSink for ColumnarRows {
    fn begin(&mut self, columns: &[(String, Option<DataType>)]) {
        self.begin_columns(columns.len());
    }

    fn row(&mut self, values: Drain<'_, Cow<'_, Value>>) {
        self.push_row(values.as_slice().iter().map(|v| &**v));
    }

    fn finish(&mut self, columns: Vec<ColumnMeta>) {
        self.columns = columns;
    }
}

/// One column being written: its NULL bitmap and its values in the typed
/// layout of the one kind of value met so far — or, from the second kind
/// on, each behind a tag.
#[derive(Default)]
struct ColumnWriter {
    /// `None` until the first value; `COL_MIXED` from the second kind on.
    encoding: Option<u8>,
    /// LSB-first; a set bit means the row has a value.
    bitmap: Vec<u8>,
    values: Vec<u8>,
    /// Values written, for bit-packing booleans.
    count: usize,
    /// A string column's dictionary, built beside the plain strings.
    dict: Dictionary,
}

impl ColumnWriter {
    fn push(&mut self, i: usize, v: &Value) {
        if i.is_multiple_of(8) {
            self.bitmap.push(0);
        }
        let kind = match v {
            Value::Null => return,
            Value::Int(_) => COL_INTS,
            Value::Float(_) => COL_FLOATS,
            Value::Bool(_) => COL_BOOLS,
            Value::Str(_) => COL_STRS,
        };
        self.bitmap[i / 8] |= 1 << (i % 8);
        let encoding = *self.encoding.get_or_insert(kind);
        if encoding != kind && encoding != COL_MIXED {
            self.make_mixed(encoding);
        }
        if self.encoding == Some(COL_MIXED) {
            write_mixed(&mut self.values, v);
            return;
        }
        match v {
            Value::Null => {}
            Value::Int(x) => write_i64(&mut self.values, *x),
            Value::Float(f) => write_f64(&mut self.values, *f),
            Value::Bool(b) => {
                if self.count.is_multiple_of(8) {
                    self.values.push(0);
                }
                self.values[self.count / 8] |= u8::from(*b) << (self.count % 8);
            }
            Value::Str(s) => {
                let start = self.values.len();
                write_str(&mut self.values, s);
                self.dict.index(&self.values, start, s);
            }
        }
        self.count += 1;
    }

    /// A second kind of value makes the column mixed: the values written so
    /// far, all of kind `typed`, are rewritten each behind its tag.
    fn make_mixed(&mut self, typed: u8) {
        let typed_values = std::mem::take(&mut self.values);
        let mut r = Reader::new(&typed_values);
        for n in 0..self.count {
            let v = match typed {
                COL_INTS => r.i64().map(Value::Int),
                COL_FLOATS => r.f64().map(Value::Float),
                COL_BOOLS => Ok(Value::Bool(typed_values[n / 8] & (1 << (n % 8)) != 0)),
                _ => r.string().map(Value::Str),
            };
            write_mixed(&mut self.values, &v.expect("the writer's own values"));
        }
        self.dict = Dictionary::default();
        self.encoding = Some(COL_MIXED);
    }

    /// The layout the column is written in.
    fn layout(&self) -> u8 {
        match self.encoding {
            // The dictionary is chosen only when it is the smaller.
            Some(COL_STRS) if self.dict.cost() < self.values.len() => COL_DICT,
            Some(encoding) => encoding,
            None => COL_MIXED,
        }
    }

    /// Bytes the column takes in the block.
    fn byte_len(&self) -> usize {
        let values = if self.layout() == COL_DICT { self.dict.cost() } else { self.values.len() };
        1 + self.bitmap.len() + values
    }

    fn finish(self, buf: &mut Vec<u8>) {
        let encoding = self.layout();
        buf.push(encoding);
        buf.extend_from_slice(&self.bitmap);
        if encoding == COL_DICT {
            self.dict.write_to(buf, &self.values);
        } else {
            // Typed columns drop the per-value tag a mixed one carries.
            buf.extend_from_slice(&self.values);
        }
    }
}

/// One value of a mixed column: its tag, then the value.
fn write_mixed(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => {}
        Value::Int(i) => {
            buf.push(MIXED_INT);
            write_i64(buf, *i);
        }
        Value::Float(f) => {
            buf.push(MIXED_FLOAT);
            write_f64(buf, *f);
        }
        Value::Str(s) => {
            buf.push(MIXED_STR);
            write_str(buf, s);
        }
        Value::Bool(b) => {
            buf.push(MIXED_BOOL);
            buf.push(u8::from(*b));
        }
    }
}

/// A string column's dictionary, built beside its plain strings so it can
/// be priced — and, if it wins, written — without another pass: the
/// distinct strings in first-appearance order and every string's index. An
/// entry is where the string's first copy sits in the column's plain
/// strings, length prefix included, so the dictionary holds no string of
/// its own and borrows none from the rows.
#[derive(Default)]
struct Dictionary {
    /// Open addressing over `entries`: 0 is a free slot, `n` is entry `n - 1`.
    slots: Vec<u32>,
    /// Each distinct string's hash and the byte range of its copy.
    entries: Vec<(u64, std::ops::Range<usize>)>,
    /// Bytes of the entries, length prefixes included.
    bytes: usize,
    indexes: Vec<u8>,
    /// Seeded: the strings are data from other sites.
    hasher: RandomState,
}

impl Dictionary {
    /// Files the string `s`, written to `values` at `start`, and appends its
    /// index.
    fn index(&mut self, values: &[u8], start: usize, s: &str) {
        if (self.entries.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let hash = self.hasher.hash_one(s);
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        let ix = loop {
            match self.slots[slot] {
                0 => {
                    let ix = self.entries.len();
                    self.slots[slot] = ix as u32 + 1;
                    self.entries.push((hash, start..values.len()));
                    self.bytes += values.len() - start;
                    break ix;
                }
                n => {
                    let (h, range) = &self.entries[n as usize - 1];
                    let copy = &values[range.clone()];
                    if *h == hash
                        && copy.ends_with(s.as_bytes())
                        && copy.len() == values.len() - start
                    {
                        break n as usize - 1;
                    }
                }
            }
            slot = (slot + 1) & mask;
        };
        write_u64(&mut self.indexes, ix as u64);
    }

    /// Doubles the slots and files every entry again by its hash.
    fn grow(&mut self) {
        self.slots = vec![0; (self.slots.len() * 2).max(16)];
        let mask = self.slots.len() - 1;
        for (ix, (hash, _)) in self.entries.iter().enumerate() {
            let mut slot = *hash as usize & mask;
            while self.slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = ix as u32 + 1;
        }
    }

    /// Bytes the dictionary encoding takes after the bitmap.
    fn cost(&self) -> usize {
        varint_len(self.entries.len() as u64) + self.bytes + self.indexes.len()
    }

    fn write_to(&self, buf: &mut Vec<u8>, values: &[u8]) {
        write_u64(buf, self.entries.len() as u64);
        for (_, range) in &self.entries {
            buf.extend_from_slice(&values[range.clone()]);
        }
        buf.extend_from_slice(&self.indexes);
    }
}

fn varint_len(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).max(1).div_ceil(7)
}

/// Decodes a result set from the reader's current position.
pub fn read_result_set(r: &mut Reader) -> Result<ResultSet, MdbsError> {
    let (columns, nrows) = read_header(r)?;
    let ncols = columns.len();
    // The rows are allocated once and every column decodes straight into
    // them. Whole rows are reserved only if the bytes left could hold a
    // bitmap per column, so a corrupt header cannot ask for more memory than
    // its frame is long.
    let width =
        if ncols.saturating_mul(1 + nrows.div_ceil(8)) <= r.remaining() { ncols } else { 0 };
    let mut rows: Vec<Vec<Value>> = Vec::new();
    rows.resize_with(nrows, || Vec::with_capacity(width));
    for _ in 0..ncols {
        read_column(r, &mut rows)?;
    }
    Ok(ResultSet { columns, rows })
}

/// The column descriptions and the row count.
fn read_header(r: &mut Reader) -> Result<(Vec<ColumnMeta>, usize), MdbsError> {
    let ncols = r.u64()? as usize;
    if ncols > 1 << 16 {
        return Err(MdbsError::Wire(format!("implausible column count {ncols}")));
    }
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let name = r.string()?;
        let data_type = match r.u8()? {
            TYPE_INT => DataType::Int,
            TYPE_FLOAT => DataType::Float,
            TYPE_CHAR => DataType::Char(u32::try_from(r.u64()?).map_err(|_| {
                MdbsError::Wire(format!("char width overflows u32 at byte {}", r.pos()))
            })?),
            TYPE_BOOL => DataType::Bool,
            TYPE_DATE => DataType::Date,
            other => {
                return Err(MdbsError::Wire(format!(
                    "unknown column type tag {other} at byte {}",
                    r.pos()
                )));
            }
        };
        columns.push(ColumnMeta { name, data_type });
    }
    let nrows = r.u64()? as usize;
    // Each row needs at least one bitmap bit per column; anything claiming
    // more rows than the remaining bytes could hold is corrupt.
    if nrows > r.remaining().saturating_mul(8).saturating_add(65536) {
        return Err(MdbsError::Wire(format!("implausible row count {nrows}")));
    }
    Ok((columns, nrows))
}

/// Decodes a standalone columnar buffer, requiring exact consumption.
pub fn decode_result_set(bytes: &[u8]) -> Result<ResultSet, MdbsError> {
    let mut r = Reader::new(bytes);
    let rs = read_result_set(&mut r)?;
    r.finish()?;
    Ok(rs)
}

/// Appends one column's values to `rows`, NULL where the bitmap has no bit.
fn read_column(r: &mut Reader, rows: &mut [Vec<Value>]) -> Result<(), MdbsError> {
    let nrows = rows.len();
    let encoding = r.u8()?;
    let bitmap = r.bytes(nrows.div_ceil(8))?;
    let present = |i: usize| -> bool { bitmap[i / 8] & (1 << (i % 8)) != 0 };
    let nonnull = (0..nrows).filter(|&i| present(i)).count();
    match encoding {
        COL_INTS => fill_column(rows, bitmap, || Ok(Value::Int(r.i64()?))),
        COL_FLOATS => fill_column(rows, bitmap, || Ok(Value::Float(r.f64()?))),
        COL_BOOLS => {
            let bits = r.bytes(nonnull.div_ceil(8))?;
            let mut n = 0;
            fill_column(rows, bitmap, || {
                n += 1;
                Ok(Value::Bool(bits[(n - 1) / 8] & (1 << ((n - 1) % 8)) != 0))
            })
        }
        COL_STRS => fill_column(rows, bitmap, || Ok(Value::Str(r.string()?))),
        COL_DICT => {
            let dict_len = r.u64()? as usize;
            if dict_len > nonnull {
                return Err(MdbsError::Wire(format!(
                    "dictionary larger than column ({dict_len} > {nonnull})"
                )));
            }
            let mut dict = Vec::with_capacity(dict_len);
            for _ in 0..dict_len {
                dict.push(r.string()?);
            }
            fill_column(rows, bitmap, || {
                let ix = r.u64()? as usize;
                dict.get(ix).cloned().map(Value::Str).ok_or_else(|| {
                    MdbsError::Wire(format!("dictionary index {ix} out of range {dict_len}"))
                })
            })
        }
        COL_MIXED => fill_column(rows, bitmap, || {
            Ok(match r.u8()? {
                MIXED_INT => Value::Int(r.i64()?),
                MIXED_FLOAT => Value::Float(r.f64()?),
                MIXED_STR => Value::Str(r.string()?),
                MIXED_BOOL => match r.u8()? {
                    0 => Value::Bool(false),
                    1 => Value::Bool(true),
                    other => {
                        return Err(MdbsError::Wire(format!("bad bool byte {other}")));
                    }
                },
                other => {
                    return Err(MdbsError::Wire(format!(
                        "unknown value tag {other} at byte {}",
                        r.pos()
                    )));
                }
            })
        }),
        other => Err(MdbsError::Wire(format!("unknown column encoding {other}"))),
    }
}

/// Gives every row its value of one column: the next one `next` decodes
/// where `bitmap` has the row's bit, NULL elsewhere.
fn fill_column(
    rows: &mut [Vec<Value>],
    bitmap: &[u8],
    mut next: impl FnMut() -> Result<Value, MdbsError>,
) -> Result<(), MdbsError> {
    for (i, row) in rows.iter_mut().enumerate() {
        row.push(if bitmap[i / 8] & (1 << (i % 8)) != 0 { next()? } else { Value::Null });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn roundtrip(rs: &ResultSet) {
        let bytes = encode_result_set(rs);
        assert_eq!(&decode_result_set(&bytes).unwrap(), rs);
    }

    fn cols(specs: &[(&str, DataType)]) -> Vec<ColumnMeta> {
        specs.iter().map(|(n, t)| ColumnMeta { name: n.to_string(), data_type: *t }).collect()
    }

    // The column writer as first written — two `Vec<&Value>` per column, the
    // dictionary built twice — kept as the definition of the bytes.
    fn write_column_reference(buf: &mut Vec<u8>, rs: &ResultSet, c: usize) {
        let values: Vec<&Value> = rs.rows.iter().map(|row| &row[c]).collect();
        let nonnull: Vec<&Value> =
            values.iter().copied().filter(|v| !matches!(v, Value::Null)).collect();
        let encoding = pick_encoding_reference(&nonnull);
        buf.push(encoding);
        // NULL bitmap: LSB-first, a set bit means the row has a value.
        let mut bitmap = vec![0u8; values.len().div_ceil(8)];
        for (i, v) in values.iter().enumerate() {
            if !matches!(v, Value::Null) {
                bitmap[i / 8] |= 1 << (i % 8);
            }
        }
        buf.extend_from_slice(&bitmap);
        match encoding {
            COL_INTS => {
                for v in &nonnull {
                    if let Value::Int(i) = v {
                        write_i64(buf, *i);
                    }
                }
            }
            COL_FLOATS => {
                for v in &nonnull {
                    if let Value::Float(f) = v {
                        write_f64(buf, *f);
                    }
                }
            }
            COL_BOOLS => {
                let mut bits = vec![0u8; nonnull.len().div_ceil(8)];
                for (i, v) in nonnull.iter().enumerate() {
                    if matches!(v, Value::Bool(true)) {
                        bits[i / 8] |= 1 << (i % 8);
                    }
                }
                buf.extend_from_slice(&bits);
            }
            COL_STRS => {
                for v in &nonnull {
                    if let Value::Str(s) = v {
                        write_str(buf, s);
                    }
                }
            }
            COL_DICT => {
                let (dict, indexes) = build_dict_reference(&nonnull);
                write_u64(buf, dict.len() as u64);
                for entry in &dict {
                    write_str(buf, entry);
                }
                for ix in indexes {
                    write_u64(buf, ix as u64);
                }
            }
            COL_MIXED => {
                for v in &nonnull {
                    match v {
                        Value::Int(i) => {
                            buf.push(MIXED_INT);
                            write_i64(buf, *i);
                        }
                        Value::Float(f) => {
                            buf.push(MIXED_FLOAT);
                            write_f64(buf, *f);
                        }
                        Value::Str(s) => {
                            buf.push(MIXED_STR);
                            write_str(buf, s);
                        }
                        Value::Bool(b) => {
                            buf.push(MIXED_BOOL);
                            buf.push(u8::from(*b));
                        }
                        Value::Null => unreachable!("nulls filtered into the bitmap"),
                    }
                }
            }
            other => unreachable!("unknown column encoding {other}"),
        }
    }

    fn pick_encoding_reference(nonnull: &[&Value]) -> u8 {
        if nonnull.is_empty() {
            return COL_MIXED;
        }
        if nonnull.iter().all(|v| matches!(v, Value::Int(_))) {
            return COL_INTS;
        }
        if nonnull.iter().all(|v| matches!(v, Value::Float(_))) {
            return COL_FLOATS;
        }
        if nonnull.iter().all(|v| matches!(v, Value::Bool(_))) {
            return COL_BOOLS;
        }
        if nonnull.iter().all(|v| matches!(v, Value::Str(_))) {
            let (dict, indexes) = build_dict_reference(nonnull);
            let plain: usize =
                nonnull
                    .iter()
                    .map(|v| {
                        if let Value::Str(s) = v {
                            varint_len(s.len() as u64) + s.len()
                        } else {
                            0
                        }
                    })
                    .sum();
            let dict_cost: usize = varint_len(dict.len() as u64)
                + dict.iter().map(|s| varint_len(s.len() as u64) + s.len()).sum::<usize>()
                + indexes.iter().map(|&ix| varint_len(ix as u64)).sum::<usize>();
            return if dict_cost < plain { COL_DICT } else { COL_STRS };
        }
        COL_MIXED
    }

    fn build_dict_reference<'a>(nonnull: &[&'a Value]) -> (Vec<&'a str>, Vec<usize>) {
        let mut dict: Vec<&str> = Vec::new();
        let mut seen: HashMap<&str, usize> = HashMap::new();
        let mut indexes = Vec::with_capacity(nonnull.len());
        for v in nonnull {
            if let Value::Str(s) = v {
                let ix = *seen.entry(s.as_str()).or_insert_with(|| {
                    dict.push(s.as_str());
                    dict.len() - 1
                });
                indexes.push(ix);
            }
        }
        (dict, indexes)
    }

    // The writer's predecessor: a whole result set, one column at a time.
    fn write_result_set_reference(buf: &mut Vec<u8>, rs: &ResultSet) {
        write_header(buf, &rs.columns, rs.rows.len());
        for c in 0..rs.columns.len() {
            write_column_reference(buf, rs, c);
        }
    }

    // The reader's predecessor: per column a vector of the values present, a
    // second one with the NULLs interleaved, then a pivot into rows.
    fn read_result_set_reference(r: &mut Reader) -> Result<ResultSet, MdbsError> {
        let (columns, nrows) = read_header(r)?;
        let mut cols_data: Vec<Vec<Value>> = Vec::with_capacity(columns.len());
        for _ in 0..columns.len() {
            cols_data.push(read_column_reference(r, nrows)?);
        }
        let mut rows = Vec::with_capacity(nrows);
        for i in 0..nrows {
            let mut row = Vec::with_capacity(columns.len());
            for col in cols_data.iter_mut() {
                row.push(std::mem::replace(&mut col[i], Value::Null));
            }
            rows.push(row);
        }
        Ok(ResultSet { columns, rows })
    }

    fn read_column_reference(r: &mut Reader, nrows: usize) -> Result<Vec<Value>, MdbsError> {
        let encoding = r.u8()?;
        let bitmap = r.bytes(nrows.div_ceil(8))?;
        let present = |i: usize| -> bool { bitmap[i / 8] & (1 << (i % 8)) != 0 };
        let nonnull = (0..nrows).filter(|&i| present(i)).count();
        let mut values: Vec<Value> = Vec::with_capacity(nonnull);
        match encoding {
            COL_INTS => {
                for _ in 0..nonnull {
                    values.push(Value::Int(r.i64()?));
                }
            }
            COL_FLOATS => {
                for _ in 0..nonnull {
                    values.push(Value::Float(r.f64()?));
                }
            }
            COL_BOOLS => {
                let bits = r.bytes(nonnull.div_ceil(8))?;
                for i in 0..nonnull {
                    values.push(Value::Bool(bits[i / 8] & (1 << (i % 8)) != 0));
                }
            }
            COL_STRS => {
                for _ in 0..nonnull {
                    values.push(Value::Str(r.string()?));
                }
            }
            COL_DICT => {
                let dict_len = r.u64()? as usize;
                if dict_len > nonnull {
                    return Err(MdbsError::Wire(format!(
                        "dictionary larger than column ({dict_len} > {nonnull})"
                    )));
                }
                let mut dict = Vec::with_capacity(dict_len);
                for _ in 0..dict_len {
                    dict.push(r.string()?);
                }
                for _ in 0..nonnull {
                    let ix = r.u64()? as usize;
                    let entry = dict.get(ix).ok_or_else(|| {
                        MdbsError::Wire(format!("dictionary index {ix} out of range {dict_len}"))
                    })?;
                    values.push(Value::Str(entry.clone()));
                }
            }
            COL_MIXED => {
                for _ in 0..nonnull {
                    let v = match r.u8()? {
                        MIXED_INT => Value::Int(r.i64()?),
                        MIXED_FLOAT => Value::Float(r.f64()?),
                        MIXED_STR => Value::Str(r.string()?),
                        MIXED_BOOL => match r.u8()? {
                            0 => Value::Bool(false),
                            1 => Value::Bool(true),
                            other => {
                                return Err(MdbsError::Wire(format!("bad bool byte {other}")));
                            }
                        },
                        other => {
                            return Err(MdbsError::Wire(format!(
                                "unknown value tag {other} at byte {}",
                                r.pos()
                            )));
                        }
                    };
                    values.push(v);
                }
            }
            other => {
                return Err(MdbsError::Wire(format!("unknown column encoding {other}")));
            }
        }
        // Interleave NULLs back into row order.
        let mut out = Vec::with_capacity(nrows);
        let mut next = values.into_iter();
        for i in 0..nrows {
            out.push(if present(i) { next.next().expect("counted above") } else { Value::Null });
        }
        Ok(out)
    }

    #[test]
    fn result_sets_are_written_and_read_as_the_references_do() {
        let mut state = 0x9E37_79B9u64;
        let mut below = |n: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        // Every encoding the writer can choose, with and without NULLs, over
        // row counts around the bitmap's byte boundaries, side by side in one
        // result set; kind 7 starts typed and turns mixed half-way.
        for case in 0..200 {
            let nrows = [0, 1, 7, 8, 9, 16, 17, 60][case % 8];
            let kinds: Vec<(u64, bool)> =
                (0..below(6)).map(|_| (below(8), below(3) == 0)).collect();
            let rows: Vec<Vec<Value>> = (0..nrows)
                .map(|i| {
                    kinds
                        .iter()
                        .map(|&(kind, nulls)| {
                            if nulls && below(3) == 0 {
                                return Value::Null;
                            }
                            match kind {
                                0 => Value::Int(below(1 << 40) as i64 - (1 << 39)),
                                1 => Value::Float(below(1000) as f64 / 8.0 - 60.0),
                                2 => Value::Bool(below(2) == 0),
                                3 => Value::Str(format!("unique-{}", below(1 << 30))),
                                4 => Value::Str(
                                    ["available", "rented", ""][below(3) as usize].into(),
                                ),
                                5 => Value::Null,
                                7 if i < nrows / 2 => Value::Str("early".into()),
                                _ => match below(4) {
                                    0 => Value::Int(below(9) as i64),
                                    1 => Value::Float(0.5),
                                    2 => Value::Bool(true),
                                    _ => Value::Str("s".into()),
                                },
                            }
                        })
                        .collect()
                })
                .collect();
            let names: Vec<String> = (0..kinds.len()).map(|c| format!("c{c}")).collect();
            let specs: Vec<(&str, DataType)> =
                names.iter().map(|n| (n.as_str(), DataType::Char(16))).collect();
            let rs = ResultSet { columns: cols(&specs), rows };
            let (mut got, mut want) = (Vec::new(), Vec::new());
            write_result_set(&mut got, &rs);
            write_result_set_reference(&mut want, &rs);
            assert_eq!(got, want, "case {case}: {rs:?}");
            roundtrip(&rs);
            // Damaged buffers: the same rows or the same error.
            for _ in 0..20 {
                let mut bad = got.clone();
                match below(3) {
                    0 => bad.truncate(below(bad.len() as u64 + 1) as usize),
                    1 if !bad.is_empty() => {
                        let at = below(bad.len() as u64) as usize;
                        bad[at] ^= 1 << below(8);
                    }
                    _ => bad.insert(below(bad.len() as u64 + 1) as usize, below(256) as u8),
                }
                let got = read_result_set(&mut Reader::new(&bad));
                let want = read_result_set_reference(&mut Reader::new(&bad));
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "case {case}: {bad:?}");
            }
        }
    }

    #[test]
    fn typed_columns_roundtrip() {
        roundtrip(&ResultSet {
            columns: cols(&[
                ("code", DataType::Int),
                ("rate", DataType::Float),
                ("ok", DataType::Bool),
            ]),
            rows: vec![
                vec![Value::Int(i64::MIN), Value::Float(-0.0), Value::Bool(true)],
                vec![Value::Int(i64::MAX), Value::Float(1.0 / 3.0), Value::Bool(false)],
                vec![Value::Int(0), Value::Float(f64::INFINITY), Value::Bool(true)],
            ],
        });
    }

    #[test]
    fn nulls_interleave_via_bitmap() {
        roundtrip(&ResultSet {
            columns: cols(&[("a", DataType::Int), ("b", DataType::Char(8))]),
            rows: vec![
                vec![Value::Null, Value::Str("x".into())],
                vec![Value::Int(7), Value::Null],
                vec![Value::Null, Value::Null],
                vec![Value::Int(-7), Value::Str("y|z\n\\".into())],
            ],
        });
    }

    #[test]
    fn repeated_strings_choose_the_dictionary() {
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| vec![Value::Str(if i % 2 == 0 { "available" } else { "rented" }.into())])
            .collect();
        let rs = ResultSet { columns: cols(&[("status", DataType::Char(16))]), rows };
        let bytes = encode_result_set(&rs);
        // header ~ name + type; column = enc byte + 13-byte bitmap + dict.
        // Plain would cost 100 * 10+ bytes; the dictionary stays near 150.
        assert!(bytes.len() < 200, "dictionary not chosen: {} bytes", bytes.len());
        assert_eq!(decode_result_set(&bytes).unwrap(), rs);
    }

    #[test]
    fn distinct_strings_stay_plain() {
        let rows: Vec<Vec<Value>> =
            (0..50).map(|i| vec![Value::Str(format!("unique-{i}"))]).collect();
        roundtrip(&ResultSet { columns: cols(&[("s", DataType::Char(16))]), rows });
    }

    #[test]
    fn mixed_type_column_roundtrips() {
        roundtrip(&ResultSet {
            columns: cols(&[("v", DataType::Char(32))]),
            rows: vec![
                vec![Value::Int(1)],
                vec![Value::Str("héllo".into())],
                vec![Value::Bool(false)],
                vec![Value::Float(2.5)],
                vec![Value::Null],
            ],
        });
    }

    #[test]
    fn empty_shapes_roundtrip() {
        roundtrip(&ResultSet { columns: vec![], rows: vec![] });
        roundtrip(&ResultSet { columns: cols(&[("a", DataType::Int)]), rows: vec![] });
        roundtrip(&ResultSet {
            columns: cols(&[("a", DataType::Date)]),
            rows: vec![vec![Value::Null]],
        });
    }

    #[test]
    fn corrupt_buffers_error_cleanly() {
        let rs = ResultSet {
            columns: cols(&[("a", DataType::Int)]),
            rows: vec![vec![Value::Int(5)], vec![Value::Int(6)]],
        };
        let bytes = encode_result_set(&rs);
        for cut in 0..bytes.len() {
            assert!(decode_result_set(&bytes[..cut]).is_err(), "truncation at {cut} accepted");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_result_set(&trailing).is_err());
    }

    #[test]
    fn dict_index_out_of_range_rejected() {
        // One column, one row: dict with 1 entry but index 5.
        let mut buf = Vec::new();
        write_u64(&mut buf, 1); // ncols
        write_str(&mut buf, "s");
        buf.push(TYPE_CHAR);
        write_u64(&mut buf, 8);
        write_u64(&mut buf, 1); // nrows
        buf.push(COL_DICT);
        buf.push(0b0000_0001); // bitmap: present
        write_u64(&mut buf, 1); // dict len
        write_str(&mut buf, "only");
        write_u64(&mut buf, 5); // bad index
        assert!(decode_result_set(&buf).is_err());
    }
}
