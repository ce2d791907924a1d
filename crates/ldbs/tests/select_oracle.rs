//! Differential property test: the SELECT executor against a naive Rust
//! reference over randomly generated tables and predicates.

use ldbs::profile::DbmsProfile;
use ldbs::value::Value;
use ldbs::Engine;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Pred {
    LtX(i64),
    EqY(i64),
    XltY,
    BetweenX(i64, i64),
    And(i64, i64), // x < a AND y >= b
    Or(i64, i64),  // x = a OR y = b
}

impl Pred {
    fn sql(&self) -> String {
        match self {
            Pred::LtX(c) => format!("x < {c}"),
            Pred::EqY(c) => format!("y = {c}"),
            Pred::XltY => "x < y".to_string(),
            Pred::BetweenX(a, b) => format!("x BETWEEN {a} AND {b}"),
            Pred::And(a, b) => format!("x < {a} AND y >= {b}"),
            Pred::Or(a, b) => format!("x = {a} OR y = {b}"),
        }
    }

    fn eval(&self, x: i64, y: i64) -> bool {
        match self {
            Pred::LtX(c) => x < *c,
            Pred::EqY(c) => y == *c,
            Pred::XltY => x < y,
            Pred::BetweenX(a, b) => x >= *a && x <= *b,
            Pred::And(a, b) => x < *a && y >= *b,
            Pred::Or(a, b) => x == *a || y == *b,
        }
    }
}

fn pred_strategy() -> impl Strategy<Value = Pred> {
    let c = -20i64..20;
    prop_oneof![
        c.clone().prop_map(Pred::LtX),
        c.clone().prop_map(Pred::EqY),
        Just(Pred::XltY),
        (c.clone(), c.clone()).prop_map(|(a, b)| Pred::BetweenX(a.min(b), a.max(b))),
        (c.clone(), c.clone()).prop_map(|(a, b)| Pred::And(a, b)),
        (c.clone(), c).prop_map(|(a, b)| Pred::Or(a, b)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn filter_agrees_with_reference(
        rows in proptest::collection::vec((-20i64..20, -20i64..20), 0..40),
        pred in pred_strategy(),
    ) {
        let mut e = Engine::new("svc", DbmsProfile::oracle_like());
        e.create_database("db").unwrap();
        e.execute("db", "CREATE TABLE t (x INT, y INT)").unwrap();
        for (x, y) in &rows {
            e.execute("db", &format!("INSERT INTO t VALUES ({x}, {y})")).unwrap();
        }
        let got = e
            .execute("db", &format!("SELECT x, y FROM t WHERE {} ORDER BY x, y", pred.sql()))
            .unwrap()
            .into_result_set()
            .unwrap();
        let mut expected: Vec<(i64, i64)> =
            rows.iter().copied().filter(|(x, y)| pred.eval(*x, *y)).collect();
        expected.sort();
        let got_pairs: Vec<(i64, i64)> = got
            .rows
            .iter()
            .map(|r| match (&r[0], &r[1]) {
                (Value::Int(x), Value::Int(y)) => (*x, *y),
                other => panic!("{other:?}"),
            })
            .collect();
        prop_assert_eq!(got_pairs, expected, "predicate: {}", pred.sql());
    }

    #[test]
    fn aggregates_agree_with_reference(
        rows in proptest::collection::vec((-20i64..20, -20i64..20), 0..40),
    ) {
        let mut e = Engine::new("svc", DbmsProfile::oracle_like());
        e.create_database("db").unwrap();
        e.execute("db", "CREATE TABLE t (x INT, y INT)").unwrap();
        for (x, y) in &rows {
            e.execute("db", &format!("INSERT INTO t VALUES ({x}, {y})")).unwrap();
        }
        let got = e
            .execute("db", "SELECT COUNT(*), SUM(x), MIN(y), MAX(y) FROM t")
            .unwrap()
            .into_result_set()
            .unwrap();
        prop_assert_eq!(&got.rows[0][0], &Value::Int(rows.len() as i64));
        if rows.is_empty() {
            prop_assert_eq!(&got.rows[0][1], &Value::Null);
            prop_assert_eq!(&got.rows[0][2], &Value::Null);
        } else {
            let sum: i64 = rows.iter().map(|(x, _)| x).sum();
            let min = rows.iter().map(|(_, y)| *y).min().unwrap();
            let max = rows.iter().map(|(_, y)| *y).max().unwrap();
            prop_assert_eq!(&got.rows[0][1], &Value::Int(sum));
            prop_assert_eq!(&got.rows[0][2], &Value::Int(min));
            prop_assert_eq!(&got.rows[0][3], &Value::Int(max));
        }
    }

    #[test]
    fn group_by_agrees_with_reference(
        rows in proptest::collection::vec((0i64..5, -20i64..20), 0..40),
    ) {
        let mut e = Engine::new("svc", DbmsProfile::oracle_like());
        e.create_database("db").unwrap();
        e.execute("db", "CREATE TABLE t (g INT, v INT)").unwrap();
        for (g, v) in &rows {
            e.execute("db", &format!("INSERT INTO t VALUES ({g}, {v})")).unwrap();
        }
        let got = e
            .execute("db", "SELECT g, COUNT(*), SUM(v) FROM t GROUP BY g ORDER BY g")
            .unwrap()
            .into_result_set()
            .unwrap();
        let mut expected: std::collections::BTreeMap<i64, (i64, i64)> = Default::default();
        for (g, v) in &rows {
            let e = expected.entry(*g).or_insert((0, 0));
            e.0 += 1;
            e.1 += v;
        }
        prop_assert_eq!(got.rows.len(), expected.len());
        for (row, (g, (count, sum))) in got.rows.iter().zip(expected) {
            prop_assert_eq!(&row[0], &Value::Int(g));
            prop_assert_eq!(&row[1], &Value::Int(count));
            prop_assert_eq!(&row[2], &Value::Int(sum));
        }
    }
}

// ---------------------------------------------------------------------------
// Generated oracle: seeded tables and queries over everything the bound
// executor does per row and per group, against a plain-Rust reference that
// works the obvious way — linear group search, materialised member lists,
// stable sort, quadratic DISTINCT.
// ---------------------------------------------------------------------------

use ldbs::DbError;
use std::cmp::Ordering;

/// splitmix64: every case reproduces from its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }

    fn small(&mut self) -> i64 {
        self.below(9) as i64 - 4
    }

    fn pick<'t, T>(&mut self, items: &'t [T]) -> &'t T {
        &items[self.below(items.len() as u64) as usize]
    }
}

type Rows = Vec<Vec<Value>>;

const ID: usize = 0;
const I: usize = 1;
const F: usize = 2;
const S: usize = 3;
const G: usize = 4;
const H: usize = 5;
const COLUMNS: [&str; 6] = ["id", "i", "f", "s", "g", "h"];
const NAN_SQL: &str = "(1e308 * 1e308 - 1e308 * 1e308)";

/// `t (id INT, i INT, f FLOAT, s CHAR, g INT, h INT)`: `i` and `f` hold
/// NULLs and many Int–Float equal pairs (`2` / `2.0`), `g` has `groups`
/// distinct values and NULLs, `h` three.
fn gen_table(rng: &mut Rng, rows: usize, groups: u64, nan: bool) -> Rows {
    (0..rows)
        .map(|r| {
            let nullable = |rng: &mut Rng, v: Value| if rng.one_in(6) { Value::Null } else { v };
            let i = Value::Int(rng.small());
            let f = match rng.below(if nan { 5 } else { 4 }) {
                0 | 1 => Value::Float(rng.small() as f64),
                2 | 3 => Value::Float(rng.small() as f64 + 0.5),
                _ => Value::Float(f64::NAN),
            };
            let s = Value::Str(rng.pick(&["a", "ab", "b", "ba", "c"]).to_string());
            let g = Value::Int(rng.below(groups) as i64);
            vec![
                Value::Int(r as i64),
                nullable(rng, i),
                nullable(rng, f),
                nullable(rng, s),
                nullable(rng, g),
                Value::Int(rng.below(3) as i64),
            ]
        })
        .collect()
}

fn literal(v: &Value) -> String {
    match v {
        Value::Float(f) if f.is_nan() => NAN_SQL.to_string(),
        other => other.to_string(),
    }
}

fn load(e: &mut Engine, name: &str, columns: &str, rows: &Rows) {
    e.execute("db", &format!("CREATE TABLE {name} ({columns})")).unwrap();
    for chunk in rows.chunks(100) {
        let tuples: Vec<String> = chunk
            .iter()
            .map(|r| format!("({})", r.iter().map(literal).collect::<Vec<_>>().join(", ")))
            .collect();
        e.execute("db", &format!("INSERT INTO {name} VALUES {}", tuples.join(", "))).unwrap();
    }
}

fn engine_with(rows: &Rows) -> Engine {
    let mut e = Engine::new("svc", DbmsProfile::oracle_like());
    e.create_database("db").unwrap();
    load(&mut e, "t", "id INT, i INT, f FLOAT, s CHAR(8), g INT, h INT", rows);
    e
}

fn select(e: &mut Engine, sql: &str) -> Result<Rows, DbError> {
    Ok(e.execute("db", sql)?.into_result_set().unwrap().rows)
}

/// Rows compared by their debug form: `2` is not `2.0`, NaN is NaN.
fn show(rows: &Rows) -> String {
    rows.iter().map(|r| format!("{r:?}\n")).collect()
}

/// A scalar expression over one row of `t`.
#[derive(Debug, Clone, PartialEq)]
enum Ex {
    Col(usize),
    /// `coalesce(i, f)`: an Int or a Float in the same position.
    Mixed,
    /// `col + 1`.
    Plus1(usize),
}

impl Ex {
    fn sql(&self) -> String {
        match self {
            Ex::Col(c) => COLUMNS[*c].to_string(),
            Ex::Mixed => "coalesce(i, f)".to_string(),
            Ex::Plus1(c) => format!("{} + 1", COLUMNS[*c]),
        }
    }

    fn eval(&self, row: &[Value]) -> Value {
        match self {
            Ex::Col(c) => row[*c].clone(),
            Ex::Mixed if row[I].is_null() => row[F].clone(),
            Ex::Mixed => row[I].clone(),
            Ex::Plus1(c) => row[*c].add(&Value::Int(1)).unwrap(),
        }
    }
}

/// A predicate, with SQL's three truth values in the reference.
#[derive(Debug, Clone)]
enum Pr {
    Cmp(Ex, &'static str, Value),
    InG(Vec<i64>),
    IsNull(usize, bool),
    Between(Ex, i64, i64),
    Like(&'static str),
    And(Box<Pr>, Box<Pr>),
    Or(Box<Pr>, Box<Pr>),
    Not(Box<Pr>),
}

fn compare(op: &str, ord: Option<Ordering>) -> Option<bool> {
    ord.map(|o| match op {
        "=" => o == Ordering::Equal,
        "<>" => o != Ordering::Equal,
        "<" => o == Ordering::Less,
        "<=" => o != Ordering::Greater,
        ">" => o == Ordering::Greater,
        _ => o != Ordering::Less,
    })
}

impl Pr {
    fn sql(&self) -> String {
        match self {
            Pr::Cmp(e, op, v) => format!("{} {op} {}", e.sql(), literal(v)),
            Pr::InG(list) => {
                format!("g IN ({})", list.iter().map(i64::to_string).collect::<Vec<_>>().join(", "))
            }
            Pr::IsNull(c, not) => {
                format!("{} IS {}NULL", COLUMNS[*c], if *not { "NOT " } else { "" })
            }
            Pr::Between(e, lo, hi) => format!("{} BETWEEN {lo} AND {hi}", e.sql()),
            Pr::Like(p) => format!("s LIKE '{p}'"),
            Pr::And(a, b) => format!("({} AND {})", a.sql(), b.sql()),
            Pr::Or(a, b) => format!("({} OR {})", a.sql(), b.sql()),
            Pr::Not(a) => format!("NOT ({})", a.sql()),
        }
    }

    fn eval(&self, row: &[Value]) -> Option<bool> {
        match self {
            Pr::Cmp(e, op, v) => compare(op, e.eval(row).sql_cmp(v)),
            Pr::InG(list) => match &row[G] {
                Value::Null => None,
                g => Some(list.iter().any(|x| g.sql_cmp(&Value::Int(*x)) == Some(Ordering::Equal))),
            },
            Pr::IsNull(c, not) => Some(row[*c].is_null() != *not),
            Pr::Between(e, lo, hi) => {
                let v = e.eval(row);
                let ge = compare(">=", v.sql_cmp(&Value::Int(*lo)));
                let le = compare("<=", v.sql_cmp(&Value::Int(*hi)));
                match (ge, le) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                }
            }
            Pr::Like(p) => match &row[S] {
                Value::Str(s) => Some(match *p {
                    "a%" => s.starts_with('a'),
                    "%b" => s.ends_with('b'),
                    _ => s.len() == 2 && s.ends_with('a'), // "_a"
                }),
                _ => None,
            },
            Pr::And(a, b) => match (a.eval(row), b.eval(row)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            Pr::Or(a, b) => match (a.eval(row), b.eval(row)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            Pr::Not(a) => a.eval(row).map(|b| !b),
        }
    }
}

fn gen_pred(rng: &mut Rng, groups: u64, depth: u32) -> Pr {
    let numeric = [Ex::Col(I), Ex::Col(F), Ex::Mixed, Ex::Plus1(I)];
    let ops = ["=", "<>", "<", "<=", ">", ">="];
    match rng.below(if depth == 0 { 6 } else { 9 }) {
        0 => Pr::Cmp(rng.pick(&numeric).clone(), rng.pick::<&str>(&ops), Value::Int(rng.small())),
        1 => Pr::Cmp(
            rng.pick(&numeric).clone(),
            rng.pick::<&str>(&ops),
            Value::Float(rng.small() as f64 + 0.5),
        ),
        2 => Pr::Cmp(
            Ex::Col(S),
            rng.pick::<&str>(&ops),
            Value::Str(rng.pick(&["a", "b", "ba"]).to_string()),
        ),
        3 => Pr::InG((0..1 + rng.below(25)).map(|_| rng.below(groups) as i64).collect()),
        4 => Pr::IsNull(*rng.pick(&[I, F, S, G]), rng.one_in(2)),
        5 => match rng.below(2) {
            0 => Pr::Between(rng.pick(&numeric).clone(), rng.small(), rng.small()),
            _ => Pr::Like(rng.pick::<&str>(&["a%", "%b", "_a"])),
        },
        6 => Pr::And(
            Box::new(gen_pred(rng, groups, depth - 1)),
            Box::new(gen_pred(rng, groups, depth - 1)),
        ),
        7 => Pr::Or(
            Box::new(gen_pred(rng, groups, depth - 1)),
            Box::new(gen_pred(rng, groups, depth - 1)),
        ),
        _ => Pr::Not(Box::new(gen_pred(rng, groups, depth - 1))),
    }
}

/// One aggregate call.
#[derive(Debug, Clone)]
struct Ag {
    kind: &'static str,
    distinct: bool,
    /// `None` is `COUNT(*)`.
    arg: Option<Ex>,
}

impl Ag {
    fn sql(&self) -> String {
        match &self.arg {
            None => "COUNT(*)".to_string(),
            Some(a) => {
                format!(
                    "{}({}{})",
                    self.kind,
                    if self.distinct { "DISTINCT " } else { "" },
                    a.sql()
                )
            }
        }
    }

    /// The aggregate over a group's members, the long way round.
    fn eval(&self, members: &[&Vec<Value>]) -> Result<Value, DbError> {
        let Some(arg) = &self.arg else { return Ok(Value::Int(members.len() as i64)) };
        let mut values: Vec<Value> =
            members.iter().map(|m| arg.eval(m)).filter(|v| !v.is_null()).collect();
        if self.distinct {
            let mut unique: Vec<Value> = Vec::new();
            for v in values {
                if !unique.iter().any(|u| u.sql_cmp(&v) == Some(Ordering::Equal)) {
                    unique.push(v);
                }
            }
            values = unique;
        }
        let n = values.len() as i64;
        match self.kind {
            "COUNT" => Ok(Value::Int(n)),
            _ if values.is_empty() => Ok(Value::Null),
            "MIN" => {
                // The first of the smallest.
                let mut best = &values[0];
                for v in &values[1..] {
                    if v.total_cmp(best) == Ordering::Less {
                        best = v;
                    }
                }
                Ok(best.clone())
            }
            "MAX" => {
                // The last of the largest.
                let mut best = &values[0];
                for v in &values[1..] {
                    if v.total_cmp(best) != Ordering::Less {
                        best = v;
                    }
                }
                Ok(best.clone())
            }
            kind => {
                let mut sum = Value::Int(0);
                for v in &values {
                    sum = sum.add(v)?;
                }
                if kind == "SUM" {
                    Ok(sum)
                } else {
                    sum.div(&Value::Int(n))
                }
            }
        }
    }
}

fn gen_agg(rng: &mut Rng) -> Ag {
    if rng.one_in(5) {
        return Ag { kind: "COUNT", distinct: false, arg: None };
    }
    let kind = *rng.pick(&["COUNT", "SUM", "AVG", "MIN", "MAX"]);
    let numeric = [Ex::Col(I), Ex::Col(F), Ex::Mixed, Ex::Plus1(I), Ex::Col(H)];
    let arg = if matches!(kind, "SUM" | "AVG") || !rng.one_in(4) {
        rng.pick(&numeric).clone()
    } else {
        Ex::Col(S)
    };
    Ag { kind, distinct: rng.one_in(3), arg: Some(arg) }
}

/// One output column: a per-row expression (a group key, when grouping) or
/// an aggregate.
#[derive(Debug, Clone)]
enum Out {
    Ex(Ex),
    Ag(Ag),
}

impl Out {
    fn sql(&self) -> String {
        match self {
            Out::Ex(e) => e.sql(),
            Out::Ag(a) => a.sql(),
        }
    }
}

#[derive(Debug, Clone)]
struct Query {
    distinct: bool,
    items: Vec<Out>,
    filter: Option<Pr>,
    /// `Some` makes the block aggregate, even with no key.
    group_by: Option<Vec<Ex>>,
    /// `aggregate op constant`.
    having: Option<(Ag, &'static str, i64)>,
    /// Output column and `DESC`.
    order_by: Vec<(usize, bool)>,
    limit: Option<u64>,
}

impl Query {
    fn sql(&self) -> String {
        let mut sql = format!(
            "SELECT {}{} FROM t",
            if self.distinct { "DISTINCT " } else { "" },
            self.items.iter().map(Out::sql).collect::<Vec<_>>().join(", ")
        );
        if let Some(p) = &self.filter {
            sql += &format!(" WHERE {}", p.sql());
        }
        if let Some(keys) = self.group_by.as_ref().filter(|k| !k.is_empty()) {
            sql +=
                &format!(" GROUP BY {}", keys.iter().map(Ex::sql).collect::<Vec<_>>().join(", "));
        }
        if let Some((agg, op, c)) = &self.having {
            sql += &format!(" HAVING {} {op} {c}", agg.sql());
        }
        if !self.order_by.is_empty() {
            let keys: Vec<String> = self
                .order_by
                .iter()
                .map(|(col, desc)| {
                    format!("{}{}", self.items[*col].sql(), if *desc { " DESC" } else { "" })
                })
                .collect();
            sql += &format!(" ORDER BY {}", keys.join(", "));
        }
        if let Some(n) = self.limit {
            sql += &format!(" LIMIT {n}");
        }
        sql
    }

    /// What the query returns, by the book.
    fn reference(&self, table: &Rows) -> Result<Rows, DbError> {
        let survivors: Vec<&Vec<Value>> = table
            .iter()
            .filter(|r| self.filter.as_ref().is_none_or(|p| p.eval(r) == Some(true)))
            .collect();
        let mut out: Rows = Vec::new();
        match &self.group_by {
            None => {
                for r in survivors {
                    out.push(
                        self.items
                            .iter()
                            .map(|o| match o {
                                Out::Ex(e) => e.eval(r),
                                Out::Ag(_) => unreachable!("aggregates imply grouping"),
                            })
                            .collect(),
                    );
                }
            }
            Some(keys) => {
                // Groups in order of first appearance; a row joins the first
                // group whose key it equals under `total_cmp`.
                let mut groups: Vec<(Vec<Value>, Vec<&Vec<Value>>)> = Vec::new();
                for r in survivors {
                    let key: Vec<Value> = keys.iter().map(|k| k.eval(r)).collect();
                    let same = |g: &(Vec<Value>, _)| {
                        g.0.iter().zip(&key).all(|(a, b)| a.total_cmp(b) == Ordering::Equal)
                    };
                    match groups.iter_mut().find(|g| same(g)) {
                        Some(g) => g.1.push(r),
                        None => groups.push((key, vec![r])),
                    }
                }
                if groups.is_empty() && keys.is_empty() {
                    groups.push((Vec::new(), Vec::new()));
                }
                for (_, members) in &groups {
                    if let Some((agg, op, c)) = &self.having {
                        if compare(op, agg.eval(members)?.sql_cmp(&Value::Int(*c))) != Some(true) {
                            continue;
                        }
                    }
                    let mut row = Vec::new();
                    for o in &self.items {
                        row.push(match o {
                            // A key reads the group's first row.
                            Out::Ex(e) => e.eval(members[0]),
                            Out::Ag(a) => a.eval(members)?,
                        });
                    }
                    out.push(row);
                }
            }
        }
        // ORDER BY is stable.
        out.sort_by(|a, b| {
            for (col, desc) in &self.order_by {
                let ord = a[*col].total_cmp(&b[*col]);
                if ord != Ordering::Equal {
                    return if *desc { ord.reverse() } else { ord };
                }
            }
            Ordering::Equal
        });
        if self.distinct {
            let mut kept: Rows = Vec::new();
            for r in out {
                let dup = |k: &Vec<Value>| {
                    k.iter().zip(&r).all(|(a, b)| a.total_cmp(b) == Ordering::Equal)
                };
                if !kept.iter().any(dup) {
                    kept.push(r);
                }
            }
            out = kept;
        }
        if let Some(n) = self.limit {
            out.truncate(n as usize);
        }
        Ok(out)
    }
}

fn gen_query(rng: &mut Rng, rows: usize, groups: u64, sortable: bool) -> Query {
    let filter = (!rng.one_in(3)).then(|| gen_pred(rng, groups, 2));
    let key_pool = [Ex::Col(G), Ex::Col(H), Ex::Mixed, Ex::Col(S), Ex::Col(F), Ex::Plus1(I)];
    let (group_by, items, having) = if rng.one_in(3) {
        let pool =
            [Ex::Col(ID), Ex::Col(I), Ex::Col(F), Ex::Col(S), Ex::Mixed, Ex::Plus1(I), Ex::Col(H)];
        let items = (0..1 + rng.below(3)).map(|_| Out::Ex(rng.pick(&pool).clone())).collect();
        (None, items, None)
    } else {
        let mut keys: Vec<Ex> = Vec::new();
        for _ in 0..rng.below(3) {
            let k = rng.pick(&key_pool).clone();
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        let mut items: Vec<Out> = keys.iter().cloned().map(Out::Ex).collect();
        items.extend((0..1 + rng.below(3)).map(|_| Out::Ag(gen_agg(rng))));
        let having =
            rng.one_in(3).then(|| (gen_agg(rng), *rng.pick(&["<", ">", "=", ">="]), rng.small()));
        (Some(keys), items, having)
    };
    let mut order_by: Vec<(usize, bool)> = Vec::new();
    if sortable {
        for _ in 0..rng.below(3) {
            order_by.push((rng.below(items.len() as u64) as usize, rng.one_in(2)));
        }
    }
    let limit = match rng.below(5) {
        0 => Some(0),
        1 => Some(1 + rng.below(rows as u64 / 2 + 1)),
        2 => Some(rows as u64 + 1 + rng.below(5)),
        _ => None,
    };
    Query { distinct: rng.one_in(4), items, filter, group_by, having, order_by, limit }
}

#[test]
fn generated_queries_agree_with_the_reference() {
    // (rows, distinct values of g, NaN among the floats)
    let shapes = [
        (0, 3, false),
        (1, 1, false),
        (7, 2, false),
        (60, 5, false),
        (60, 40, true),
        (400, 300, false),
        (400, 12, true),
    ];
    for (case, (rows, groups, nan)) in shapes.into_iter().enumerate() {
        for seed in 0..6u64 {
            let seed = 1000 * case as u64 + seed;
            let mut rng = Rng(seed);
            let table = gen_table(&mut rng, rows, groups, nan);
            let mut e = engine_with(&table);
            for n in 0..60 {
                // `total_cmp` is no order once NaN is in play, so NaN tables
                // are never sorted (nor was that defined before).
                let q = gen_query(&mut rng, rows, groups, !nan);
                let sql = q.sql();
                let want = q.reference(&table).map(|r| show(&r));
                let got = select(&mut e, &sql).map(|r| show(&r));
                assert_eq!(got, want, "seed {seed}, query {n}: {sql}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// One pinned case per rule the executor must keep (see DESIGN.md §3a.13).
// ---------------------------------------------------------------------------

fn engine_from(ddl: &str, inserts: &str) -> Engine {
    let mut e = Engine::new("svc", DbmsProfile::oracle_like());
    e.create_database("db").unwrap();
    e.execute("db", ddl).unwrap();
    if !inserts.is_empty() {
        e.execute("db", inserts).unwrap();
    }
    e
}

/// `t (k, i INT, f FLOAT)`, read through `coalesce(i, f)` as one column `m`
/// holding `2, 2.0, NULL, 3.0, NULL, 3, 2`.
fn mixed() -> Engine {
    engine_from(
        "CREATE TABLE t (k INT, i INT, f FLOAT)",
        "INSERT INTO t VALUES (1, 2, NULL), (2, NULL, 2.0), (3, NULL, NULL), (4, NULL, 3.0), \
         (5, NULL, NULL), (6, 3, NULL), (7, 2, NULL)",
    )
}

fn int(v: i64) -> Value {
    Value::Int(v)
}

#[test]
fn groups_form_by_total_cmp_in_first_appearance_order() {
    let mut e = mixed();
    // 2 and 2.0 are one group, named by whichever came first; so are the
    // NULLs; no ORDER BY: groups come out as they first appeared.
    let got =
        select(&mut e, "SELECT coalesce(i, f), COUNT(*), MIN(k) FROM t GROUP BY coalesce(i, f)");
    assert_eq!(
        got.unwrap(),
        vec![
            vec![int(2), int(3), int(1)],
            vec![Value::Null, int(2), int(3)],
            vec![Value::Float(3.0), int(2), int(4)],
        ]
    );
}

#[test]
fn nan_joins_the_first_numeric_group_and_collects_later_numbers() {
    let mut e = engine_from(
        "CREATE TABLE t (k INT, f FLOAT)",
        &format!(
            "INSERT INTO t VALUES (1, 1.0), (2, 2.0), (3, {NAN_SQL}), (4, 2.0), (5, NULL), (7, 3.0)"
        ),
    );
    // NaN compares Equal to every number: it joins the first numeric group
    // (1.0); a group it had founded would take every later number.
    let got = select(&mut e, "SELECT MIN(k), COUNT(*) FROM t GROUP BY f").unwrap();
    assert_eq!(
        got,
        vec![
            vec![int(1), int(2)],
            vec![int(2), int(2)],
            vec![int(5), int(1)],
            vec![int(7), int(1)],
        ]
    );
    let mut e = engine_from(
        "CREATE TABLE t (k INT, f FLOAT)",
        &format!("INSERT INTO t VALUES (1, {NAN_SQL}), (2, 2.0), (3, NULL), (4, 3.0)"),
    );
    let got = select(&mut e, "SELECT MIN(k), COUNT(*) FROM t GROUP BY f").unwrap();
    assert_eq!(got, vec![vec![int(1), int(3)], vec![int(3), int(1)]]);
    // DISTINCT compares rows the same way.
    let got = select(&mut e, "SELECT DISTINCT f FROM t").unwrap();
    assert_eq!(show(&got), "[Float(NaN)]\n[Null]\n");
}

#[test]
fn min_keeps_the_first_minimum_and_max_the_last_maximum() {
    let mut e = mixed();
    // m = 2, 2.0, 3.0, 3, 2 without the NULLs.
    let got = select(&mut e, "SELECT MIN(coalesce(i, f)), MAX(coalesce(i, f)) FROM t").unwrap();
    assert_eq!(got, vec![vec![int(2), int(3)]]);
    let got = select(
        &mut e,
        "SELECT MIN(coalesce(i, f)), MAX(coalesce(i, f)) FROM t WHERE k IN (2, 4, 6, 7)",
    )
    .unwrap();
    assert_eq!(got, vec![vec![Value::Float(2.0), int(3)]]);
    // 3.0 then 3: the later maximum wins.
    let got = select(&mut e, "SELECT MAX(coalesce(i, f)) FROM t WHERE k IN (4, 6)").unwrap();
    assert_eq!(got, vec![vec![int(3)]]);
}

#[test]
fn sum_avg_count_follow_their_fold() {
    let mut e = mixed();
    // SUM starts at Int(0) and adds in enumeration order: Int until the
    // first Float, Float after.
    let got = select(
        &mut e,
        "SELECT SUM(i), SUM(coalesce(i, f)), AVG(i), COUNT(*), COUNT(i), COUNT(coalesce(i, f)) FROM t",
    )
    .unwrap();
    assert_eq!(
        got,
        vec![vec![int(7), Value::Float(12.0), Value::Float(7.0 / 3.0), int(7), int(3), int(5)]]
    );
    // All-NULL and empty inputs: NULL, and 0 for the counts.
    for filter in ["k IN (3, 5)", "k > 100"] {
        let got = select(
            &mut e,
            &format!("SELECT SUM(i), AVG(f), MIN(i), MAX(f), COUNT(i) FROM t WHERE {filter}"),
        )
        .unwrap();
        assert_eq!(
            got,
            vec![vec![Value::Null, Value::Null, Value::Null, Value::Null, int(0)]],
            "{filter}"
        );
    }
    // Float sums are the left-to-right sum, bit for bit.
    let mut e = engine_from(
        "CREATE TABLE t (f FLOAT)",
        "INSERT INTO t VALUES (0.1), (0.2), (0.3), (1e16), (-1e16), (0.7)",
    );
    let want = ((((0.0 + 0.1) + 0.2) + 0.3) + 1e16) + -1e16 + 0.7;
    assert_eq!(select(&mut e, "SELECT SUM(f) FROM t").unwrap(), vec![vec![Value::Float(want)]]);
}

#[test]
fn integer_overflow_in_sum_is_an_error_where_the_sum_is_read() {
    let mut e = engine_from(
        "CREATE TABLE t (g INT, v INT)",
        "INSERT INTO t VALUES (1, 9223372036854775807), (1, 1), (2, 5), (2, 6), (2, 7)",
    );
    assert!(matches!(
        select(&mut e, "SELECT g, SUM(v) FROM t GROUP BY g"),
        Err(DbError::TypeError(_))
    ));
    // HAVING rejects the overflowing group before its select list or its
    // ORDER BY key is read.
    let got = select(
        &mut e,
        "SELECT g, SUM(v) FROM t GROUP BY g HAVING COUNT(*) > 2 ORDER BY SUM(v + 1)",
    );
    assert_eq!(got.unwrap(), vec![vec![int(2), int(18)]]);
    // An expression reads all its aggregates before it is evaluated: AND
    // does not short-circuit past a failed one.
    for having in ["COUNT(*) > 2 AND SUM(v) > 0", "SUM(v) > 0 AND COUNT(*) > 2"] {
        let got = select(&mut e, &format!("SELECT g FROM t GROUP BY g HAVING {having}"));
        assert!(matches!(got, Err(DbError::TypeError(_))), "{having}");
    }
}

#[test]
fn distinct_aggregates_keep_first_occurrences_by_sql_equality() {
    let mut e = mixed();
    // m = 2, 2.0, 3.0, 3, 2: the distinct values are the first 2 and the
    // first 3.0, so the sum is a Float and the minimum an Int.
    let got = select(
        &mut e,
        "SELECT COUNT(DISTINCT coalesce(i, f)), SUM(DISTINCT coalesce(i, f)), \
         MIN(DISTINCT coalesce(i, f)), AVG(DISTINCT coalesce(i, f)) FROM t",
    )
    .unwrap();
    assert_eq!(got, vec![vec![int(2), Value::Float(5.0), int(2), Value::Float(2.5)]]);
}

#[test]
fn an_ungrouped_aggregate_over_no_rows_has_no_innermost_row() {
    let mut e = mixed();
    e.execute("db", "CREATE TABLE u (k INT, w INT)").unwrap();
    e.execute("db", "INSERT INTO u VALUES (6, 60), (7, 70)").unwrap();
    // One row all the same, evaluated with no row to read a column from.
    assert_eq!(select(&mut e, "SELECT COUNT(*) FROM t WHERE k > 100").unwrap(), vec![vec![int(0)]]);
    assert!(matches!(
        select(&mut e, "SELECT k, COUNT(*) FROM t WHERE k > 100"),
        Err(DbError::UnknownColumn(_))
    ));
    assert_eq!(
        select(&mut e, "SELECT k, COUNT(*) FROM t WHERE k > 5").unwrap(),
        vec![vec![int(6), int(2)]],
        "with rows, a bare column reads the group's first"
    );
    // Inside a subquery the enclosing block still binds the name: over no
    // rows `k` is the outer `u.k`, over some rows it is `t.k`.
    let got =
        select(&mut e, "SELECT w, (SELECT k + COUNT(*) FROM t WHERE t.k > u.k) FROM u ORDER BY w")
            .unwrap();
    assert_eq!(got, vec![vec![int(60), int(7 + 1)], vec![int(70), int(7)]]);
    // A grouped aggregate over no rows has no groups.
    assert!(select(&mut e, "SELECT k, COUNT(*) FROM t WHERE k > 100 GROUP BY k")
        .unwrap()
        .is_empty());
}

#[test]
fn misplaced_aggregates_stay_errors() {
    let mut e = mixed();
    for sql in [
        "SELECT k FROM t WHERE COUNT(*) > 0",
        "SELECT SUM(MAX(k)) FROM t",
        "SELECT k FROM t GROUP BY MAX(k)",
        "SELECT k FROM t ORDER BY MAX(k)",
    ] {
        assert!(matches!(select(&mut e, sql), Err(DbError::Internal(_))), "{sql}");
    }
    // ... when they are evaluated at all.
    assert!(select(&mut e, "SELECT k FROM t WHERE k > 100 AND COUNT(*) > 0").unwrap().is_empty());
    assert_eq!(
        select(&mut e, "SELECT SUM(MAX(k)) FROM t WHERE k > 100").unwrap(),
        vec![vec![Value::Null]]
    );
}

#[test]
fn order_by_is_stable_and_distinct_runs_between_it_and_limit() {
    let mut e = mixed();
    // Ties on the key keep enumeration order, with and without a LIMIT.
    let all = select(&mut e, "SELECT k FROM t ORDER BY coalesce(i, f) DESC").unwrap();
    let ks = |rows: &Rows| rows.iter().map(|r| r[0].clone()).collect::<Vec<_>>();
    assert_eq!(ks(&all), [4, 6, 1, 2, 7, 3, 5].map(int));
    for n in 0..=8 {
        let top =
            select(&mut e, &format!("SELECT k FROM t ORDER BY coalesce(i, f) DESC LIMIT {n}"))
                .unwrap();
        assert_eq!(ks(&top), ks(&all)[..n.min(7)], "LIMIT {n}");
    }
    // DISTINCT keeps the first of `total_cmp`-equal rows — after the sort,
    // before the limit.
    let got = select(&mut e, "SELECT DISTINCT coalesce(i, f) FROM t").unwrap();
    assert_eq!(got, vec![vec![int(2)], vec![Value::Null], vec![Value::Float(3.0)]]);
    let got =
        select(&mut e, "SELECT DISTINCT coalesce(i, f) FROM t ORDER BY k DESC LIMIT 2").unwrap();
    assert_eq!(got, vec![vec![int(2)], vec![int(3)]]);
}

// ---------------------------------------------------------------------------
// Correlated and uncorrelated subqueries, in queries and in DML, against
// nested loops over the generated rows.
// ---------------------------------------------------------------------------

fn sql_eq(a: &Value, b: &Value) -> Option<bool> {
    compare("=", a.sql_cmp(b))
}

/// `probe [NOT] IN candidates` with SQL's NULL rules.
fn in_list(probe: &Value, candidates: &[Value], negated: bool) -> Option<bool> {
    if probe.is_null() {
        return None;
    }
    if candidates.iter().any(|c| sql_eq(probe, c) == Some(true)) {
        return Some(!negated);
    }
    if candidates.iter().any(Value::is_null) {
        return None;
    }
    Some(negated)
}

fn ids(rows: &[&Vec<Value>]) -> Rows {
    rows.iter().map(|r| vec![r[ID].clone()]).collect()
}

#[test]
fn subqueries_agree_with_nested_loops() {
    for seed in 0..6u64 {
        let mut rng = Rng(77 + seed);
        let rows = [0, 5, 40, 120][seed as usize % 4];
        let t = gen_table(&mut rng, rows, 6, false);
        // u (k): a few small keys, one NULL now and then.
        let u: Rows = (0..rng.below(6))
            .map(|_| vec![if rng.one_in(5) { Value::Null } else { int(rng.small()) }])
            .collect();
        let mut e = engine_with(&t);
        load(&mut e, "u", "k INT", &u);
        // A second copy of t for DML to correlate with: inside `FROM t x`
        // the qualifier `t` names x itself (a qualifier matches a table name
        // as well as an alias), and UPDATE / DELETE take no alias.
        load(&mut e, "t2", "id INT, i INT, f FLOAT, s CHAR(8), g INT, h INT", &t);
        let uk: Vec<Value> = u.iter().map(|r| r[0].clone()).collect();
        let max_i_of = |h: &Value| {
            let same: Vec<&Vec<Value>> =
                t.iter().filter(|x| sql_eq(&x[H], h) == Some(true)).collect();
            Ag { kind: "MAX", distinct: false, arg: Some(Ex::Col(I)) }.eval(&same).unwrap()
        };

        // Correlated scalar subquery in WHERE.
        let want: Vec<&Vec<Value>> =
            t.iter().filter(|o| sql_eq(&o[I], &max_i_of(&o[H])) == Some(true)).collect();
        let got =
            select(&mut e, "SELECT id FROM t o WHERE i = (SELECT MAX(i) FROM t x WHERE x.h = o.h)");
        assert_eq!(got.unwrap(), ids(&want), "seed {seed}: correlated scalar");

        // Correlated EXISTS.
        let want: Vec<&Vec<Value>> =
            t.iter().filter(|o| uk.iter().any(|k| sql_eq(k, &o[I]) == Some(true))).collect();
        let got =
            select(&mut e, "SELECT id FROM t o WHERE EXISTS (SELECT 1 FROM u WHERE u.k = o.i)");
        assert_eq!(got.unwrap(), ids(&want), "seed {seed}: correlated EXISTS");

        // Correlated NOT IN, with its NULL rules.
        let want: Vec<&Vec<Value>> = t
            .iter()
            .filter(|o| {
                let cands: Vec<Value> = uk
                    .iter()
                    .filter(|k| compare("<>", k.sql_cmp(&o[H])) == Some(true))
                    .cloned()
                    .collect();
                in_list(&o[I], &cands, true) == Some(true)
            })
            .collect();
        let got = select(
            &mut e,
            "SELECT id FROM t o WHERE o.i NOT IN (SELECT k FROM u WHERE u.k <> o.h)",
        );
        assert_eq!(got.unwrap(), ids(&want), "seed {seed}: correlated NOT IN");

        // Uncorrelated IN and a correlated scalar in the select list.
        let want: Rows = t
            .iter()
            .filter(|o| in_list(&o[I], &uk, false) == Some(true))
            .map(|o| {
                let n = t.iter().filter(|x| sql_eq(&x[G], &o[G]) == Some(true)).count();
                vec![o[ID].clone(), int(n as i64)]
            })
            .collect();
        let got = select(
            &mut e,
            "SELECT id, (SELECT COUNT(*) FROM t x WHERE x.g = o.g) FROM t o \
             WHERE i IN (SELECT k FROM u)",
        );
        assert_eq!(got.unwrap(), want, "seed {seed}: IN + scalar in the select list");

        // DML plans against the statement's snapshot. §3.4: take the lowest
        // free seat.
        let mut model = t.clone();
        let lowest = model
            .iter()
            .filter(|r| sql_eq(&r[S], &Value::Str("a".into())) == Some(true))
            .map(|r| r[ID].clone())
            .next();
        for r in model.iter_mut() {
            if lowest.as_ref().is_some_and(|l| sql_eq(&r[ID], l) == Some(true)) {
                r[S] = Value::Str("TAKEN".into());
            }
        }
        e.execute(
            "db",
            "UPDATE t SET s = 'TAKEN' WHERE id = (SELECT MIN(id) FROM t WHERE s = 'a')",
        )
        .unwrap();
        // Correlated subqueries in SET and WHERE.
        for r in model.iter_mut() {
            if uk.iter().any(|k| sql_eq(k, &r[I]) == Some(true)) {
                let n = t.iter().filter(|x| sql_eq(&x[H], &r[H]) == Some(true)).count();
                r[G] = int(n as i64);
            }
        }
        e.execute(
            "db",
            "UPDATE t SET g = (SELECT COUNT(*) FROM t2 x WHERE x.h = t.h) \
             WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.i)",
        )
        .unwrap();
        // Correlated scalar and uncorrelated IN in DELETE.
        model.retain(|r| {
            let same: Vec<&Vec<Value>> =
                t.iter().filter(|x| sql_eq(&x[H], &r[H]) == Some(true)).collect();
            let avg =
                Ag { kind: "AVG", distinct: false, arg: Some(Ex::Col(F)) }.eval(&same).unwrap();
            let doomed = in_list(&r[I], &uk, false) == Some(true)
                && compare(">", r[F].sql_cmp(&avg)) == Some(true);
            !doomed
        });
        e.execute(
            "db",
            "DELETE FROM t WHERE i IN (SELECT k FROM u) \
             AND f > (SELECT AVG(f) FROM t2 x WHERE x.h = t.h)",
        )
        .unwrap();
        let got = select(&mut e, "SELECT id, i, f, s, g, h FROM t").unwrap();
        assert_eq!(show(&got), show(&model), "seed {seed}: table after UPDATE / UPDATE / DELETE");
    }
}
