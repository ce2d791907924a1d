//! Runtime values and data types.
//!
//! SQL three-valued logic: comparisons involving NULL yield *unknown*, which
//! is represented as [`Value::Null`] in boolean position; only
//! `Value::Bool(true)` satisfies a predicate.

use crate::error::DbError;
use msql_lang::TypeName;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Column data types stored in schemas and the Global Data Dictionary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// Character string with an advertised width (0 = unbounded); widths are
    /// schema metadata only, values are not padded or truncated.
    Char(u32),
    /// Boolean.
    Bool,
    /// Calendar date stored as ISO-8601 text.
    Date,
}

impl DataType {
    /// Converts a parsed [`TypeName`] into an engine data type.
    pub fn from_type_name(t: TypeName) -> Self {
        match t {
            TypeName::Int => DataType::Int,
            TypeName::Float => DataType::Float,
            TypeName::Char(w) => DataType::Char(w),
            TypeName::Bool => DataType::Bool,
            TypeName::Date => DataType::Date,
        }
    }

    /// True when a value of type `other` may be stored in a column of this
    /// type (identity, plus Int → Float widening and Char/Date
    /// interchangeability).
    pub fn accepts(&self, other: DataType) -> bool {
        match (self, other) {
            (a, b) if *a == b => true,
            (DataType::Float, DataType::Int) => true,
            (DataType::Char(_), DataType::Char(_)) => true,
            (DataType::Char(_), DataType::Date) | (DataType::Date, DataType::Char(_)) => true,
            _ => false,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Char(0) => write!(f, "CHAR"),
            DataType::Char(w) => write!(f, "CHAR({w})"),
            DataType::Bool => write!(f, "BOOLEAN"),
            DataType::Date => write!(f, "DATE"),
        }
    }
}

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL (also used as the *unknown* truth value).
    Null,
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// The type of a non-null value; NULL has no intrinsic type.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Char(0)),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// True if the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interprets the value as a predicate result: `Some(bool)` for BOOL,
    /// `None` for NULL (unknown), error otherwise.
    pub fn as_truth(&self) -> Result<Option<bool>, DbError> {
        match self {
            Value::Bool(b) => Ok(Some(*b)),
            Value::Null => Ok(None),
            other => Err(DbError::TypeError(format!("expected boolean, got {other}"))),
        }
    }

    /// Numeric view for arithmetic, widening Int to Float.
    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// SQL comparison. Returns `None` when either side is NULL or the types
    /// are incomparable (which callers surface as unknown).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// Total ordering used by ORDER BY and GROUP BY: NULLs first, then
    /// booleans, numbers, strings; incomparable types ordered by type tag so
    /// the sort is always well-defined.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn tag(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Str(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) if tag(a) == 2 && tag(b) == 2 => {
                let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
                x.partial_cmp(&y).unwrap_or(Ordering::Equal)
            }
            (a, b) => tag(a).cmp(&tag(b)),
        }
    }

    /// Arithmetic addition with SQL NULL propagation.
    pub fn add(&self, other: &Value) -> Result<Value, DbError> {
        numeric_binop(self, other, "+", |a, b| a + b, |a, b| a.checked_add(b))
    }

    /// Subtraction.
    pub fn sub(&self, other: &Value) -> Result<Value, DbError> {
        numeric_binop(self, other, "-", |a, b| a - b, |a, b| a.checked_sub(b))
    }

    /// Multiplication.
    pub fn mul(&self, other: &Value) -> Result<Value, DbError> {
        numeric_binop(self, other, "*", |a, b| a * b, |a, b| a.checked_mul(b))
    }

    /// Division. Always produces a float (so that `rate * 1.1 / 1.1`
    /// compensation behaves as in the paper's example); division by zero
    /// yields NULL rather than an error, matching permissive LDBMS behaviour.
    pub fn div(&self, other: &Value) -> Result<Value, DbError> {
        if self.is_null() || other.is_null() {
            return Ok(Value::Null);
        }
        let (a, b) = match (self.as_f64(), other.as_f64()) {
            (Some(a), Some(b)) => (a, b),
            _ => {
                return Err(DbError::TypeError(format!("cannot divide {self} by {other}")));
            }
        };
        if b == 0.0 {
            return Ok(Value::Null);
        }
        Ok(Value::Float(a / b))
    }

    /// Unary negation.
    pub fn neg(&self) -> Result<Value, DbError> {
        match self {
            Value::Null => Ok(Value::Null),
            Value::Int(v) => Ok(Value::Int(-v)),
            Value::Float(v) => Ok(Value::Float(-v)),
            other => Err(DbError::TypeError(format!("cannot negate {other}"))),
        }
    }

    /// String concatenation with NULL propagation.
    pub fn concat(&self, other: &Value) -> Result<Value, DbError> {
        if self.is_null() || other.is_null() {
            return Ok(Value::Null);
        }
        Ok(Value::Str(format!("{}{}", self.display_raw(), other.display_raw())))
    }

    /// SQL `LIKE` with `%` (any sequence) and `_` (any single char);
    /// case-sensitive, per the standard.
    pub fn sql_like(&self, pattern: &Value) -> Result<Value, DbError> {
        match (self, pattern) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::Str(s), Value::Str(p)) => Ok(Value::Bool(like_match(p, s))),
            (a, b) => Err(DbError::TypeError(format!("LIKE requires strings, got {a} and {b}"))),
        }
    }

    /// Coerces the value for storage in a column of type `ty`, widening Int
    /// to Float where necessary.
    pub fn coerce_to(&self, ty: DataType) -> Result<Value, DbError> {
        self.clone()
            .coerce_into(ty)
            .map_err(|v| DbError::TypeError(format!("cannot store {v} in a {ty} column")))
    }

    /// [`Value::coerce_to`] by value — a string moves instead of being
    /// copied — handing a value that does not fit back unchanged.
    pub(crate) fn coerce_into(self, ty: DataType) -> Result<Value, Value> {
        match (self, ty) {
            (Value::Int(v), DataType::Float) => Ok(Value::Float(v as f64)),
            (v @ Value::Null, _)
            | (v @ Value::Int(_), DataType::Int)
            | (v @ Value::Float(_), DataType::Float)
            | (v @ Value::Str(_), DataType::Char(_) | DataType::Date)
            | (v @ Value::Bool(_), DataType::Bool) => Ok(v),
            (v, _) => Err(v),
        }
    }

    /// Raw textual form without quoting (used by concatenation and output).
    pub fn display_raw(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Int(v) => v.to_string(),
            Value::Float(v) => format!("{v:?}"),
            Value::Str(s) => s.clone(),
            Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
        }
    }

    /// Canonical lookup key: two values that compare `Equal` under
    /// [`Value::sql_cmp`] always map to the same key, so hash buckets and
    /// ordered index ranges can be probed across the Int/Float divide
    /// (`2 = 2.0`). NULL and NaN have no key (they never equal anything).
    ///
    /// Distinct values may *collide* (integers beyond 2^53 fold onto the
    /// same f64), so key-based candidate sets are supersets and callers must
    /// re-check the original predicate.
    pub fn canonical_key(&self) -> Option<CanonicalKey> {
        self.key_ref().map(|key| match key {
            KeyRef::Bool(b) => CanonicalKey::Bool(b),
            KeyRef::Num(bits) => CanonicalKey::Num(bits),
            KeyRef::Str(s) => CanonicalKey::Str(s.to_string()),
        })
    }

    /// [`Value::canonical_key`] without the allocation: the key borrows the
    /// value's string.
    pub(crate) fn key_ref(&self) -> Option<KeyRef<'_>> {
        match self {
            Value::Null => None,
            Value::Int(v) => Some(KeyRef::Num(canonical_f64_bits(*v as f64))),
            Value::Float(v) if v.is_nan() => None,
            Value::Float(v) => Some(KeyRef::Num(canonical_f64_bits(*v))),
            Value::Str(s) => Some(KeyRef::Str(s)),
            Value::Bool(b) => Some(KeyRef::Bool(*b)),
        }
    }

    /// Feeds `state` the identity [`Value::total_cmp`] groups by, without
    /// allocating: values that compare `Equal` feed the same bytes (`2` and
    /// `2.0`, `0.0` and `-0.0`, NULL and NULL). Like the canonical key it is
    /// coarser than the relation, so a bucket is a candidate set to re-check.
    /// Returns `false` for NaN, which `total_cmp` calls equal to *every*
    /// number and which therefore belongs in no single bucket.
    pub(crate) fn hash_canonical<H: Hasher>(&self, state: &mut H) -> bool {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => (1u8, *b).hash(state),
            Value::Int(v) => (2u8, canonical_f64_bits(*v as f64)).hash(state),
            Value::Float(v) if v.is_nan() => return false,
            Value::Float(v) => (2u8, canonical_f64_bits(*v)).hash(state),
            Value::Str(s) => (3u8, s.as_str()).hash(state),
        }
        true
    }
}

/// A hashable, totally ordered key derived from a [`Value`] via
/// [`Value::canonical_key`]. The variant order (Bool < Num < Str) matches
/// the type-tag order of [`Value::total_cmp`], and `Num` is a
/// monotone-sortable encoding of the f64, so `CanonicalKey`'s derived `Ord`
/// agrees with SQL comparison wherever SQL comparison is defined.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CanonicalKey {
    /// Boolean key.
    Bool(bool),
    /// Numeric key: sortable bit-encoding of the f64 image of the value.
    Num(u64),
    /// String key.
    Str(String),
}

/// A [`CanonicalKey`] that borrows its string: the same variants in the same
/// order, so the derived `Ord` sorts exactly as the owned key's does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum KeyRef<'a> {
    Bool(bool),
    Num(u64),
    Str(&'a str),
}

/// Maps an f64 (not NaN) to a u64 whose unsigned order matches the float
/// order. `-0.0` collapses onto `0.0` first so the two zeros share a key.
fn canonical_f64_bits(f: f64) -> u64 {
    let f = if f == 0.0 { 0.0 } else { f };
    let bits = f.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

fn numeric_binop(
    a: &Value,
    b: &Value,
    sym: &str,
    ff: impl Fn(f64, f64) -> f64,
    ii: impl Fn(i64, i64) -> Option<i64>,
) -> Result<Value, DbError> {
    match (a, b) {
        (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
        (Value::Int(x), Value::Int(y)) => ii(*x, *y)
            .map(Value::Int)
            .ok_or_else(|| DbError::TypeError(format!("integer overflow in {x} {sym} {y}"))),
        _ => {
            let (x, y) = match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => (x, y),
                _ => {
                    return Err(DbError::TypeError(format!("cannot apply {sym} to {a} and {b}")));
                }
            };
            Ok(Value::Float(ff(x, y)))
        }
    }
}

/// SQL LIKE matcher: `%` = any sequence, `_` = any single character.
fn like_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    // Two-pointer with backtracking over the last `%`.
    let (mut pi, mut ti) = (0usize, 0usize);
    let mut star: Option<usize> = None;
    let mut star_t = 0usize;
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star = Some(pi);
            star_t = ti;
            pi += 1;
        } else if let Some(sp) = star {
            pi = sp + 1;
            star_t += 1;
            ti = star_t;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            other => write!(f, "{}", other.display_raw()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_propagates_through_arithmetic() {
        assert_eq!(Value::Null.add(&Value::Int(1)).unwrap(), Value::Null);
        assert_eq!(Value::Int(1).mul(&Value::Null).unwrap(), Value::Null);
        assert_eq!(Value::Null.neg().unwrap(), Value::Null);
    }

    #[test]
    fn mixed_arithmetic_widens() {
        assert_eq!(Value::Int(2).add(&Value::Float(0.5)).unwrap(), Value::Float(2.5));
        assert_eq!(Value::Int(3).mul(&Value::Int(4)).unwrap(), Value::Int(12));
    }

    #[test]
    fn division_always_float_and_zero_is_null() {
        assert_eq!(Value::Int(7).div(&Value::Int(2)).unwrap(), Value::Float(3.5));
        assert_eq!(Value::Int(7).div(&Value::Int(0)).unwrap(), Value::Null);
    }

    #[test]
    fn integer_overflow_is_an_error() {
        assert!(Value::Int(i64::MAX).add(&Value::Int(1)).is_err());
    }

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(Value::Int(2).sql_cmp(&Value::Float(2.0)), Some(Ordering::Equal));
        assert_eq!(Value::Str("a".into()).sql_cmp(&Value::Str("b".into())), Some(Ordering::Less));
        // Incomparable types are unknown, not a panic.
        assert_eq!(Value::Str("a".into()).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn total_cmp_is_total_and_nulls_first() {
        let mut vals = [
            Value::Str("z".into()),
            Value::Null,
            Value::Int(3),
            Value::Float(1.5),
            Value::Bool(true),
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Float(1.5));
        assert_eq!(vals[3], Value::Int(3));
        assert_eq!(vals[4], Value::Str("z".into()));
    }

    #[test]
    fn truthiness() {
        assert_eq!(Value::Bool(true).as_truth().unwrap(), Some(true));
        assert_eq!(Value::Null.as_truth().unwrap(), None);
        assert!(Value::Int(1).as_truth().is_err());
    }

    #[test]
    fn like_matcher() {
        let like = |p: &str, t: &str| {
            Value::Str(t.into()).sql_like(&Value::Str(p.into())).unwrap() == Value::Bool(true)
        };
        assert!(like("Hou%", "Houston"));
        assert!(like("%ton", "Houston"));
        assert!(like("H_uston", "Houston"));
        assert!(!like("H_uston", "Hooouston"));
        assert!(like("%", ""));
        assert!(!like("a", "b"));
    }

    #[test]
    fn like_null_is_unknown() {
        assert_eq!(Value::Null.sql_like(&Value::Str("%".into())).unwrap(), Value::Null);
    }

    #[test]
    fn coercion_rules() {
        assert_eq!(Value::Int(3).coerce_to(DataType::Float).unwrap(), Value::Float(3.0));
        assert!(Value::Str("x".into()).coerce_to(DataType::Int).is_err());
        assert_eq!(Value::Null.coerce_to(DataType::Int).unwrap(), Value::Null);
        assert_eq!(
            Value::Str("2024-01-01".into()).coerce_to(DataType::Date).unwrap(),
            Value::Str("2024-01-01".into())
        );
    }

    #[test]
    fn concat_and_display() {
        assert_eq!(Value::Str("a".into()).concat(&Value::Int(1)).unwrap(), Value::Str("a1".into()));
        assert_eq!(Value::Str("it's".into()).to_string(), "'it''s'");
    }

    #[test]
    fn canonical_key_matches_sql_equality() {
        // sql_cmp-equal values share a key across the Int/Float divide.
        assert_eq!(Value::Int(2).canonical_key(), Value::Float(2.0).canonical_key());
        assert_eq!(Value::Float(0.0).canonical_key(), Value::Float(-0.0).canonical_key());
        assert_ne!(Value::Int(2).canonical_key(), Value::Int(3).canonical_key());
        // NULL and NaN never equal anything, so they have no key.
        assert_eq!(Value::Null.canonical_key(), None);
        assert_eq!(Value::Float(f64::NAN).canonical_key(), None);
    }

    #[test]
    fn canonical_key_order_matches_sql_order() {
        let vals = [
            Value::Float(-1000.5),
            Value::Int(-3),
            Value::Float(-0.0),
            Value::Int(0),
            Value::Float(0.25),
            Value::Int(1),
            Value::Float(1.5),
            Value::Int(7),
            Value::Float(1e18),
        ];
        for a in &vals {
            for b in &vals {
                let (ka, kb) = (a.canonical_key().unwrap(), b.canonical_key().unwrap());
                match a.sql_cmp(b).unwrap() {
                    Ordering::Less => assert!(ka < kb, "{a} < {b} but keys disagree"),
                    Ordering::Equal => assert_eq!(ka, kb, "{a} = {b} but keys disagree"),
                    Ordering::Greater => assert!(ka > kb, "{a} > {b} but keys disagree"),
                }
            }
        }
        // Variant order mirrors total_cmp's type tags: Bool < Num < Str.
        let b = Value::Bool(true).canonical_key().unwrap();
        let n = Value::Int(-5).canonical_key().unwrap();
        let s = Value::Str("a".into()).canonical_key().unwrap();
        assert!(b < n && n < s);
    }

    #[test]
    fn datatype_accepts() {
        assert!(DataType::Float.accepts(DataType::Int));
        assert!(!DataType::Int.accepts(DataType::Float));
        assert!(DataType::Char(5).accepts(DataType::Char(90)));
        assert!(DataType::Char(0).accepts(DataType::Date));
    }
}
