//! Optimizer statistics collected by `ANALYZE`.
//!
//! One pass over a table yields, per column: the number of distinct values
//! (NDV), the NULL count, the min/max, and a small equi-depth histogram.
//! Distinctness and ordering both come from [`Value::canonical_key`], so an
//! `INT 2` and a `FLOAT 2.0` count as one value exactly where SQL equality
//! says they are one value. Statistics are a *snapshot*: the table tracks a
//! staleness counter (`dml_since_analyze`) that the cost layer can consult
//! before trusting them.

use crate::table::Table;
use crate::value::{CanonicalKey, KeyRef, Value};
use std::cmp::Ordering;

/// Maximum number of equi-depth histogram buckets collected per column.
pub const HISTOGRAM_BUCKETS: usize = 8;

/// Statistics for one column of a table.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Column name (lowercase).
    pub name: String,
    /// Number of distinct non-null values (by canonical key, so values that
    /// compare SQL-equal count once).
    pub ndv: u64,
    /// Number of NULLs (including NaN floats, which have no canonical key
    /// and never satisfy a predicate).
    pub null_count: u64,
    /// Smallest non-null value, if any rows exist.
    pub min: Option<Value>,
    /// Largest non-null value, if any rows exist.
    pub max: Option<Value>,
    /// Equi-depth histogram: ascending bucket upper bounds over the sorted
    /// non-null values. At most [`HISTOGRAM_BUCKETS`] entries; the last one
    /// equals `max`. Empty when the column holds no non-null values.
    pub histogram: Vec<Value>,
}

impl ColumnStats {
    /// Fraction of buckets whose upper bound is strictly below `key` — a
    /// crude but monotone estimate of `P(column < value)` that equi-depth
    /// construction makes robust to skew.
    pub fn histogram_fraction_below(&self, key: &CanonicalKey) -> Option<f64> {
        if self.histogram.is_empty() {
            return None;
        }
        let below =
            self.histogram.iter().filter(|b| b.canonical_key().is_some_and(|bk| bk < *key)).count();
        Some(below as f64 / self.histogram.len() as f64)
    }
}

/// Statistics for one table, as of the last `ANALYZE`.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Number of rows at collection time.
    pub row_count: u64,
    /// Per-column statistics, in schema order.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Statistics for the column named `name` (case-insensitive).
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        let lower = name.to_ascii_lowercase();
        self.columns.iter().find(|c| c.name == lower)
    }
}

/// A [`KeyRef`] laid out to sort fast: the same order, decided by two integer
/// compares for every number and for strings that differ in their first
/// eight bytes (`head` is those bytes, big-endian, zero-padded; only a tie
/// between strings looks at the string itself).
#[derive(Clone, Copy)]
struct SortKey<'a> {
    class: u8,
    head: u64,
    tail: &'a str,
}

const STR_CLASS: u8 = 2;

impl Ord for SortKey<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        let tail = || match self.class {
            STR_CLASS => self.tail.cmp(other.tail),
            _ => Ordering::Equal,
        };
        (self.class, self.head).cmp(&(other.class, other.head)).then_with(tail)
    }
}

impl PartialOrd for SortKey<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for SortKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for SortKey<'_> {}

impl<'a> From<KeyRef<'a>> for SortKey<'a> {
    fn from(key: KeyRef<'a>) -> Self {
        match key {
            KeyRef::Bool(b) => SortKey { class: 0, head: u64::from(b), tail: "" },
            KeyRef::Num(bits) => SortKey { class: 1, head: bits, tail: "" },
            KeyRef::Str(s) => {
                let mut head = [0u8; 8];
                let n = s.len().min(8);
                head[..n].copy_from_slice(&s.as_bytes()[..n]);
                SortKey { class: STR_CLASS, head: u64::from_be_bytes(head), tail: s }
            }
        }
    }
}

/// One column's non-null keys in row order: bare numbers — what most columns
/// hold, and what sorts fastest — until the first key that is not one.
enum Keys<'a> {
    Nums(Vec<u64>),
    Mixed(Vec<SortKey<'a>>),
}

impl<'a> Keys<'a> {
    fn push(&mut self, key: KeyRef<'a>) {
        match (self, key) {
            (Keys::Nums(nums), KeyRef::Num(bits)) => nums.push(bits),
            (Keys::Mixed(keys), key) => keys.push(key.into()),
            (this @ Keys::Nums(_), key) => {
                let Keys::Nums(nums) = std::mem::replace(this, Keys::Mixed(Vec::new())) else {
                    unreachable!("matched above")
                };
                let widened = nums.into_iter().map(|bits| SortKey::from(KeyRef::Num(bits)));
                *this = Keys::Mixed(widened.chain([key.into()]).collect());
            }
        }
    }
}

/// Scans `table` once and computes fresh statistics for every column.
///
/// The definition is rank in a *stable* sort of a column's non-null values by
/// canonical key: of several SQL-equal values (`2` and `2.0`) row order
/// decides which one is the min (the first), the max (the last) or a bucket
/// bound. Computed without that sort: the borrowed keys alone are sorted
/// (unstable, and cheap where a column repeats itself), which fixes NDV and
/// every wanted rank's key and place among its equals; one more pass over the
/// keys in row order then picks the values that hold those places.
pub fn analyze_table(table: &Table) -> TableStats {
    let arity = table.schema.arity();
    let mut null_counts = vec![0u64; arity];
    let rows = table.len();
    let mut keys: Vec<Keys> = (0..arity).map(|_| Keys::Nums(Vec::with_capacity(rows))).collect();
    let mut values: Vec<Vec<&Value>> = (0..arity).map(|_| Vec::with_capacity(rows)).collect();
    for (_, row) in table.iter() {
        for (ci, v) in row.iter().enumerate() {
            match v.key_ref() {
                Some(key) => {
                    keys[ci].push(key);
                    values[ci].push(v);
                }
                None => null_counts[ci] += 1,
            }
        }
    }
    let columns = table.schema.columns.iter().zip(keys).zip(values).zip(null_counts);
    let columns = columns.map(|(((col, keys), values), null_count)| {
        let (ndv, picked) = match keys {
            Keys::Nums(keys) => ranked_values(&keys, &values),
            Keys::Mixed(keys) => ranked_values(&keys, &values),
        };
        let mut picked = picked.into_iter();
        let (min, max) = (picked.next(), picked.next());
        let histogram = picked.collect();
        ColumnStats { name: col.name.clone(), ndv, null_count, min, max, histogram }
    });
    TableStats { row_count: rows as u64, columns: columns.collect() }
}

/// NDV of one column, and the values at the ranks its statistics report —
/// min, max, then the equi-depth bucket bounds — given the column's keys in
/// row order and, parallel to them, the values they came from. Nothing but
/// the NDV for a column without keys.
fn ranked_values<K: Ord + Copy>(keys: &[K], values: &[&Value]) -> (u64, Vec<Value>) {
    let mut sorted = keys.to_vec();
    sorted.sort_unstable();
    let ndv = sorted.chunk_by(|a, b| a == b).count() as u64;
    // A rank as `(key, place among its equals)`.
    let place = |rank: usize| {
        let key = sorted[rank];
        (key, rank - sorted.partition_point(|k| *k < key))
    };
    let mut wanted: Vec<(K, usize)> = Vec::with_capacity(2 + HISTOGRAM_BUCKETS);
    if let Some(last) = sorted.len().checked_sub(1) {
        wanted.extend([place(0), place(last)]);
        wanted.extend(equi_depth(&sorted).into_iter().map(place));
    }
    // One pass in row order finds who holds each place.
    let mut seen = vec![0usize; wanted.len()];
    let mut picked: Vec<Option<&Value>> = vec![None; wanted.len()];
    for (key, value) in keys.iter().zip(values) {
        for (w, (want, n)) in wanted.iter().enumerate() {
            if want == key {
                if seen[w] == *n {
                    picked[w] = Some(value);
                }
                seen[w] += 1;
            }
        }
    }
    let picked = picked.into_iter().map(|v| v.expect("a wanted rank exists in its column").clone());
    (ndv, picked.collect())
}

/// Equi-depth bucket upper bounds over sorted keys, as ranks. Adjacent
/// buckets that end on the same key collapse into one, so heavy hitters
/// occupy (visibly) many buckets without duplicating boundaries.
fn equi_depth<K: PartialEq>(sorted: &[K]) -> Vec<usize> {
    let n = sorted.len();
    let buckets = HISTOGRAM_BUCKETS.min(n);
    let mut out: Vec<usize> = Vec::with_capacity(buckets);
    for b in 1..=buckets {
        let rank = b * n / buckets - 1;
        if out.last().is_none_or(|last| sorted[*last] != sorted[rank]) {
            out.push(rank);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnSchema, TableSchema};
    use crate::value::DataType;

    fn table_with(rows: Vec<Vec<Value>>) -> Table {
        let mut t = Table::new(TableSchema::new(
            "cars",
            vec![
                ColumnSchema::new("code", DataType::Int),
                ColumnSchema::new("carst", DataType::Char(10)),
            ],
        ));
        for row in rows {
            t.insert(row).unwrap();
        }
        t
    }

    /// The definition [`analyze_table`] must reproduce to the digit: one walk
    /// per column, owned keys, a stable sort.
    fn analyze_table_reference(table: &Table) -> TableStats {
        let mut columns = Vec::new();
        for (ci, col) in table.schema.columns.iter().enumerate() {
            let mut null_count = 0u64;
            let mut keyed: Vec<(CanonicalKey, &Value)> = Vec::new();
            for (_, row) in table.iter() {
                match row[ci].canonical_key() {
                    Some(k) => keyed.push((k, &row[ci])),
                    None => null_count += 1,
                }
            }
            keyed.sort_by(|a, b| a.0.cmp(&b.0));
            let ndv = (0..keyed.len()).filter(|&i| i == 0 || keyed[i - 1].0 != keyed[i].0).count();
            let mut histogram: Vec<Value> = Vec::new();
            let mut last_key = None;
            for b in 1..=HISTOGRAM_BUCKETS.min(keyed.len()) {
                let (key, value) = &keyed[b * keyed.len() / HISTOGRAM_BUCKETS.min(keyed.len()) - 1];
                if last_key != Some(key) {
                    histogram.push((*value).clone());
                    last_key = Some(key);
                }
            }
            columns.push(ColumnStats {
                name: col.name.clone(),
                ndv: ndv as u64,
                null_count,
                min: keyed.first().map(|(_, v)| (*v).clone()),
                max: keyed.last().map(|(_, v)| (*v).clone()),
                histogram,
            });
        }
        TableStats { row_count: table.len() as u64, columns }
    }

    #[test]
    fn one_walk_statistics_equal_the_reference_on_generated_tables() {
        // A small LCG: the tables must repeat, not be random.
        let mut state = 0x0005_DEEC_E66D_u64;
        let mut below = |n: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        for case in 0..60 {
            let rows = [0, 1, 2, 7, 8, 9, 40, 300][case % 8];
            // A narrow domain makes heavy hitters and SQL-equal pairs of
            // either representation (`2` / `2.0`, `0.0` / `-0.0`); which of a
            // pair is min, max or a bound is row order's to decide.
            let domain = [3, 12, 1000][case % 3];
            let mut t = Table::new(TableSchema::new(
                "g",
                vec![
                    ColumnSchema::new("n", DataType::Float),
                    ColumnSchema::new("s", DataType::Char(8)),
                    ColumnSchema::new("b", DataType::Bool),
                    ColumnSchema::new("any", DataType::Float),
                ],
            ));
            for id in 1..=rows {
                let k = below(domain) as i64 - 1;
                let n = match below(8) {
                    0 => Value::Null,
                    1 => Value::Float(f64::NAN),
                    2 | 3 => Value::Int(k),
                    4 => Value::Float(-(k as f64)),
                    _ => Value::Float(k as f64),
                };
                let s = match below(5) {
                    0 => Value::Null,
                    _ => Value::Str(format!("s{}", below(domain))),
                };
                let b = if below(4) == 0 { Value::Null } else { Value::Bool(below(2) == 0) };
                // Every class of key in one column, numbers first more often
                // than not: the keys start out bare and widen mid-walk.
                let any = match below(6) {
                    0 => Value::Str(format!("{}", below(domain))),
                    1 => Value::Bool(below(2) == 0),
                    _ => Value::Int(below(domain) as i64),
                };
                // `restore` stores the row as it is (no coercion), so the
                // float columns really hold what was generated.
                t.restore(id, vec![n, s, b, any]);
            }
            assert_eq!(analyze_table(&t), analyze_table_reference(&t), "case {case}");
        }
    }

    #[test]
    fn counts_rows_ndv_nulls_min_max() {
        let t = table_with(vec![
            vec![Value::Int(1), Value::Str("available".into())],
            vec![Value::Int(2), Value::Str("available".into())],
            vec![Value::Int(2), Value::Null],
            vec![Value::Int(7), Value::Str("rented".into())],
        ]);
        let s = analyze_table(&t);
        assert_eq!(s.row_count, 4);
        let code = s.column("CODE").unwrap();
        assert_eq!(code.ndv, 3);
        assert_eq!(code.null_count, 0);
        assert_eq!(code.min, Some(Value::Int(1)));
        assert_eq!(code.max, Some(Value::Int(7)));
        let carst = s.column("carst").unwrap();
        assert_eq!(carst.ndv, 2);
        assert_eq!(carst.null_count, 1);
        assert_eq!(carst.min, Some(Value::Str("available".into())));
        assert_eq!(carst.max, Some(Value::Str("rented".into())));
    }

    #[test]
    fn ndv_folds_sql_equal_values_across_types() {
        let mut t =
            Table::new(TableSchema::new("r", vec![ColumnSchema::new("x", DataType::Float)]));
        t.insert(vec![Value::Int(2)]).unwrap();
        t.insert(vec![Value::Float(2.0)]).unwrap();
        t.insert(vec![Value::Float(3.5)]).unwrap();
        let s = analyze_table(&t);
        assert_eq!(s.column("x").unwrap().ndv, 2);
    }

    #[test]
    fn empty_table_yields_empty_column_stats() {
        let t = table_with(vec![]);
        let s = analyze_table(&t);
        assert_eq!(s.row_count, 0);
        let code = s.column("code").unwrap();
        assert_eq!(code.ndv, 0);
        assert_eq!(code.min, None);
        assert_eq!(code.max, None);
        assert!(code.histogram.is_empty());
    }

    #[test]
    fn histogram_is_equi_depth_and_bounded() {
        // 64 rows, values 0..64: bucket bounds land every 8 values.
        let rows: Vec<Vec<Value>> =
            (0..64).map(|i| vec![Value::Int(i), Value::Str("s".into())]).collect();
        let s = analyze_table(&table_with(rows));
        let h = &s.column("code").unwrap().histogram;
        assert_eq!(h.len(), HISTOGRAM_BUCKETS);
        assert_eq!(h.first(), Some(&Value::Int(7)));
        assert_eq!(h.last(), Some(&Value::Int(63)));
        // Ascending.
        for w in h.windows(2) {
            assert!(w[0].canonical_key() < w[1].canonical_key());
        }
    }

    #[test]
    fn histogram_collapses_heavy_hitters() {
        // 70 copies of one value plus 10 others: equi-depth bounds mostly
        // land on the heavy hitter, which collapses to one boundary.
        let mut rows: Vec<Vec<Value>> = (0..70).map(|_| vec![Value::Int(5), Value::Null]).collect();
        rows.extend((10..20).map(|i| vec![Value::Int(i), Value::Null]));
        let s = analyze_table(&table_with(rows));
        let code = s.column("code").unwrap();
        assert!(code.histogram.len() < HISTOGRAM_BUCKETS);
        assert_eq!(code.histogram.first(), Some(&Value::Int(5)));
        // The estimate still sees most of the mass at/below 5.
        let frac = code.histogram_fraction_below(&Value::Int(6).canonical_key().unwrap()).unwrap();
        assert!(frac > 0.0);
    }

    #[test]
    fn histogram_fraction_is_monotone() {
        let rows: Vec<Vec<Value>> = (0..40).map(|i| vec![Value::Int(i), Value::Null]).collect();
        let s = analyze_table(&table_with(rows));
        let code = s.column("code").unwrap();
        let lo = code.histogram_fraction_below(&Value::Int(3).canonical_key().unwrap()).unwrap();
        let hi = code.histogram_fraction_below(&Value::Int(39).canonical_key().unwrap()).unwrap();
        assert!(lo <= hi);
        assert!(hi > 0.8);
    }
}
