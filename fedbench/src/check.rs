//! The correctness gate. Star results are checked against a plain-Rust
//! reference evaluator over the generated data (the first result of every
//! class row by row, every later one by row count and an order-insensitive
//! digest); paper results against a small model of the fixture's known
//! answers. A mismatch is a *failed* statement exactly like an error.

use crate::gen::{StarData, DIM_ROWS, FACT_ROWS, GROUPS, JOIN_WINDOW};
use crate::workload::{Class, Stmt};
use dol::TaskStatus;
use ldbs::value::Value;
use ldbs::ResultSet;
use mdbs::{MsqlOutcome, Multitable};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

type Row = Vec<Value>;

fn hash_bytes(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// FNV-1a of one row. Numbers hash by their `f64` value, so an engine that
/// returns `SUM` as a float and a reference that sums integers agree.
fn row_hash(row: &[Value]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for v in row {
        match v {
            Value::Null => hash_bytes(&mut h, b"\x00"),
            Value::Int(i) => {
                hash_bytes(&mut h, b"\x01");
                hash_bytes(&mut h, &(*i as f64).to_bits().to_le_bytes());
            }
            Value::Float(f) => {
                hash_bytes(&mut h, b"\x01");
                hash_bytes(&mut h, &(f + 0.0).to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                hash_bytes(&mut h, b"\x02");
                hash_bytes(&mut h, s.as_bytes());
                hash_bytes(&mut h, b"\xFF");
            }
            Value::Bool(b) => hash_bytes(&mut h, &[3, u8::from(*b)]),
        }
    }
    h
}

/// Row count plus the wrapping sum of row hashes (order-insensitive).
pub fn digest(rows: &[Row]) -> (usize, u64) {
    (rows.len(), rows.iter().fold(0u64, |acc, r| acc.wrapping_add(row_hash(r))))
}

fn sorted(rows: &[Row]) -> Vec<Row> {
    let mut out = rows.to_vec();
    out.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    out
}

/// Values equal up to int/float representation.
fn same_value(a: &Value, b: &Value) -> bool {
    row_hash(std::slice::from_ref(a)) == row_hash(std::slice::from_ref(b))
}

fn same_rows(got: &[Row], want: &[Row]) -> bool {
    let (got, want) = (sorted(got), sorted(want));
    got.len() == want.len()
        && got
            .iter()
            .zip(&want)
            .all(|(g, w)| g.len() == w.len() && g.iter().zip(w).all(|(x, y)| same_value(x, y)))
}

fn single_table(mt: &Multitable, database: &str) -> Result<ResultSet, String> {
    if mt.tables.len() != 1 {
        return Err(format!("expected one table, got {}", mt.tables.len()));
    }
    mt.table(database).cloned().ok_or_else(|| format!("no table for `{database}`"))
}

/// Verifies statement outcomes and keeps the model of the data in step with
/// the statements that succeeded.
pub struct Checker {
    star: Option<StarModel>,
    paper: PaperModel,
    /// Digests per class, in execution order of first appearance; equal
    /// across `star_text` and `star_binary` for the same seed and passes.
    digests: BTreeMap<Class, u64>,
}

impl Checker {
    /// `exact_rates`: false when other sessions update the fares
    /// concurrently, so a retrieval's rate column cannot be predicted.
    pub fn new(star: Option<Arc<StarData>>, exact_rates: bool) -> Checker {
        Checker {
            star: star.map(StarModel::new),
            paper: PaperModel::new(exact_rates),
            digests: BTreeMap::new(),
        }
    }

    /// Checks one outcome; `Err` carries what was wrong.
    pub fn check(&mut self, stmt: &Stmt, outcome: &MsqlOutcome) -> Result<(), String> {
        let folded = match &mut self.star {
            Some(star) if is_star_class(stmt.class) => star.check(stmt, outcome)?,
            _ => self.paper.check(stmt, outcome)?,
        };
        let slot = self.digests.entry(stmt.class).or_insert(0);
        *slot = slot.wrapping_mul(31).wrapping_add(folded);
        Ok(())
    }

    /// A statement the harness re-ran outside `Session::execute` (layer
    /// replay) changed the data: apply the same effect to the model.
    pub fn apply_effect(&mut self, stmt: &Stmt) {
        match (&mut self.star, stmt.class) {
            (Some(star), Class::FactUpdate) => star.updates[stmt.arg as usize] += 1,
            (_, Class::Q2Nonvital | Class::Q2Vital) => self.paper.delta += stmt.arg,
            _ => {}
        }
    }

    /// Running digest of every checked result, class by class.
    pub fn digests(&self) -> &BTreeMap<Class, u64> {
        &self.digests
    }
}

fn is_star_class(class: Class) -> bool {
    matches!(
        class,
        Class::ScanShip
            | Class::PointLookup
            | Class::LocalAgg
            | Class::JoinShip
            | Class::GroupbyPushed
            | Class::TopkPushed
            | Class::FactUpdate
            | Class::Analyze
    )
}

/// Reference evaluator over the generated star data.
struct StarModel {
    data: Arc<StarData>,
    /// `fact_update`s applied per group: a row's `u` is its group's count.
    updates: [i64; GROUPS],
    by_v: HashMap<i64, usize>,
    /// Per group: row count, Σ `v`, min `w` of the joined dimension rows
    /// (none of them changes).
    groups: Vec<(i64, i64, i64)>,
    /// Count and digest of results that never change (no `u`, no literal).
    fixed: HashMap<Class, (usize, u64)>,
    /// Classes whose first result was compared row by row already.
    seen: Vec<Class>,
}

impl StarModel {
    fn new(data: Arc<StarData>) -> StarModel {
        let by_v = data.fact.iter().enumerate().map(|(i, r)| (r.v, i)).collect();
        let mut groups = vec![(0i64, 0i64, i64::MAX); GROUPS];
        for r in &data.fact {
            let g = &mut groups[r.g as usize];
            *g = (g.0 + 1, g.1 + r.v, g.2.min(data.dim_w[r.k as usize]));
        }
        StarModel {
            data,
            updates: [0; GROUPS],
            by_v,
            groups,
            fixed: HashMap::new(),
            seen: Vec::new(),
        }
    }

    fn rows(&self, stmt: &Stmt) -> Vec<Row> {
        let d = &self.data;
        let w_of = |k: i64| d.dim_w[k as usize];
        match stmt.class {
            Class::ScanShip => d
                .fact
                .iter()
                .map(|r| {
                    vec![Value::Int(r.k), Value::Int(r.g), Value::Int(r.v), Value::Str(r.s.clone())]
                })
                .collect(),
            Class::PointLookup => self
                .by_v
                .get(&stmt.arg)
                .map(|&i| {
                    let r = &d.fact[i];
                    vec![
                        Value::Int(r.k),
                        Value::Int(r.g),
                        Value::Int(r.v),
                        Value::Int(self.updates[r.g as usize]),
                        Value::Str(r.s.clone()),
                    ]
                })
                .into_iter()
                .collect(),
            Class::LocalAgg => (self.groups.iter().zip(&self.updates).enumerate())
                .map(|(g, ((count, sum_v, _), updates))| {
                    vec![
                        Value::Int(g as i64),
                        Value::Int(*count),
                        Value::Int(*sum_v),
                        Value::Int(count * updates),
                    ]
                })
                .collect(),
            Class::JoinShip => {
                let (lo, hi) = (stmt.arg, stmt.arg + JOIN_WINDOW as i64);
                d.fact
                    .iter()
                    .filter(|r| (lo..hi).contains(&w_of(r.k)))
                    .map(|r| vec![Value::Int(r.v), Value::Str(r.s.clone()), Value::Int(w_of(r.k))])
                    .collect()
            }
            Class::GroupbyPushed => (self.groups.iter().enumerate())
                .map(|(g, (count, sum_v, min_w))| {
                    vec![
                        Value::Int(g as i64),
                        Value::Int(*count),
                        Value::Int(*sum_v),
                        Value::Int(*min_w),
                    ]
                })
                .collect(),
            Class::TopkPushed => {
                // ORDER BY f.v DESC, d.w LIMIT 10 over the pure product: `v`
                // is a permutation, so the top rows pair the largest `v`
                // with the 10 smallest `w`.
                const { assert!(DIM_ROWS >= 10) };
                let top_v = (FACT_ROWS - 1) as i64;
                let mut ws = d.dim_w.clone();
                ws.sort_unstable();
                ws.into_iter().take(10).map(|w| vec![Value::Int(top_v), Value::Int(w)]).collect()
            }
            _ => Vec::new(),
        }
    }

    /// Returns the result's digest (folded into the per-class running one).
    fn check(&mut self, stmt: &Stmt, outcome: &MsqlOutcome) -> Result<u64, String> {
        match stmt.class {
            Class::FactUpdate => {
                let MsqlOutcome::Update(report) = outcome else {
                    return Err(format!("expected an update report, got {outcome:?}"));
                };
                let want = (FACT_ROWS / GROUPS) as u64;
                if !report.success
                    || report.outcomes.len() != 1
                    || report.outcomes[0].status != TaskStatus::Committed
                    || report.outcomes[0].affected != want
                {
                    return Err(format!("fact_update should commit {want} rows: {report:?}"));
                }
                self.updates[stmt.arg as usize] += 1;
                return Ok(want);
            }
            Class::Analyze => {
                return match outcome {
                    MsqlOutcome::Admin(_) => Ok(0),
                    other => Err(format!("ANALYZE should be an admin outcome, got {other:?}")),
                };
            }
            _ => {}
        }
        let got: ResultSet = match outcome {
            MsqlOutcome::Multitable(mt) => single_table(mt, "db0")?,
            MsqlOutcome::Table(rs) => rs.clone(),
            other => return Err(format!("expected rows, got {other:?}")),
        };
        let got_digest = digest(&got.rows);
        let first = !self.seen.contains(&stmt.class);
        let changing = matches!(stmt.class, Class::PointLookup | Class::LocalAgg | Class::JoinShip);
        let want_digest = match self.fixed.get(&stmt.class) {
            Some(d) if !first => *d,
            _ => {
                let want = self.rows(stmt);
                if first {
                    self.seen.push(stmt.class);
                    if !same_rows(&got.rows, &want) {
                        return Err(format!(
                            "{}: first result differs from the reference ({} vs {} rows)",
                            stmt.class.name(),
                            got.rows.len(),
                            want.len()
                        ));
                    }
                }
                let d = digest(&want);
                if !changing {
                    self.fixed.insert(stmt.class, d);
                }
                d
            }
        };
        if got_digest != want_digest {
            return Err(format!(
                "{}: got {} rows digest {:016x}, reference {} rows digest {:016x}",
                stmt.class.name(),
                got_digest.0,
                got_digest.1,
                want_digest.0,
                want_digest.1
            ));
        }
        Ok(got_digest.1)
    }
}

/// `(day, rate, moved)`: `moved` marks a Houston → San Antonio flight, whose
/// fare the Q2 statements change.
type Flight = (&'static str, f64, bool);

/// The paper fixture's known answers. The only state is the net fare change
/// Q2 statements applied to the three Houston → San Antonio flights.
struct PaperModel {
    exact_rates: bool,
    delta: i64,
}

impl PaperModel {
    fn new(exact_rates: bool) -> PaperModel {
        PaperModel { exact_rates, delta: 0 }
    }

    /// Expected rows per database.
    fn flights(&self, class: Class) -> Vec<(&'static str, Vec<Flight>)> {
        if class == Class::Q1Flights {
            vec![
                ("continental", vec![("mon", 100.0, true), ("mon", 80.0, false)]),
                ("delta", vec![("tue", 95.0, true), ("tue", 120.0, false)]),
                ("united", vec![("wed", 110.0, true)]),
            ]
        } else {
            vec![
                ("continental", vec![("mon", 100.0, true), ("mon", 60.0, false)]),
                ("delta", vec![("tue", 95.0, true)]),
                ("united", vec![("wed", 110.0, true), ("wed", 70.0, false)]),
            ]
        }
    }

    fn check(&mut self, stmt: &Stmt, outcome: &MsqlOutcome) -> Result<u64, String> {
        match stmt.class {
            Class::Q1Flights | Class::Q1Dest => {
                let MsqlOutcome::Multitable(mt) = outcome else {
                    return Err(format!("expected a multitable, got {outcome:?}"));
                };
                let expected = self.flights(stmt.class);
                if mt.tables.len() != expected.len() {
                    return Err(format!("expected {} tables: {mt:?}", expected.len()));
                }
                let mut folded = 0u64;
                for (db, rows) in expected {
                    let got = mt.table(db).ok_or_else(|| format!("no table for `{db}`"))?;
                    let want: Vec<Row> = rows
                        .iter()
                        .map(|(day, rate, moved)| {
                            let rate = if *moved { rate + self.delta as f64 } else { *rate };
                            vec![Value::Str((*day).to_string()), Value::Float(rate)]
                        })
                        .collect();
                    let ok = if self.exact_rates {
                        same_rows(&got.rows, &want)
                    } else {
                        // Concurrent sessions move the fare: check the shape
                        // and every value a concurrent update cannot touch.
                        got.rows.len() == want.len()
                            && got.rows.iter().all(|r| {
                                r.len() == 2
                                    && r[0] == want[0][0]
                                    && matches!(r[1], Value::Float(_))
                            })
                    };
                    if !ok {
                        return Err(format!(
                            "{} at `{db}`: got {:?}, want {want:?}",
                            stmt.class.name(),
                            got.rows
                        ));
                    }
                    folded = folded.wrapping_add(digest(&want).1);
                }
                Ok(if self.exact_rates { folded } else { 0 })
            }
            Class::Q1Cars => {
                let MsqlOutcome::Multitable(mt) = outcome else {
                    return Err(format!("expected a multitable, got {outcome:?}"));
                };
                let avis: Vec<Row> = vec![
                    vec![Value::Int(1), Value::Str("sedan".into()), Value::Float(39.5)],
                    vec![Value::Int(3), Value::Str("compact".into()), Value::Float(25.0)],
                ];
                let national: Vec<Row> = vec![
                    vec![Value::Int(7), Value::Str("sedan".into())],
                    vec![Value::Int(8), Value::Str("van".into())],
                ];
                let ok = mt.tables.len() == 2
                    && mt.table("avis").is_some_and(|t| same_rows(&t.rows, &avis))
                    && mt.table("national").is_some_and(|t| same_rows(&t.rows, &national));
                if !ok {
                    return Err(format!("q1_cars: unexpected multitable {mt:?}"));
                }
                Ok(digest(&avis).1.wrapping_add(digest(&national).1))
            }
            Class::Q2Nonvital | Class::Q2Vital => {
                let MsqlOutcome::Update(report) = outcome else {
                    return Err(format!("expected an update report, got {outcome:?}"));
                };
                let committed = report
                    .outcomes
                    .iter()
                    .filter(|o| o.status == TaskStatus::Committed && o.affected == 1)
                    .count();
                // A partially applied update would desynchronise the model:
                // count what did commit before reporting the failure.
                if !report.success || committed != 3 {
                    return Err(format!("{}: not all committed: {report:?}", stmt.class.name()));
                }
                self.delta += stmt.arg;
                Ok(3)
            }
            Class::Q4Mtx => {
                let MsqlOutcome::Mtx(report) = outcome else {
                    return Err(format!("expected a multitransaction report, got {outcome:?}"));
                };
                let status =
                    |key: &str| report.outcomes.iter().find(|o| o.key == key).map(|o| o.status);
                let ok = report.achieved_state == Some(0)
                    && status("continental") == Some(TaskStatus::Committed)
                    && status("national") == Some(TaskStatus::Committed)
                    && status("delta") == Some(TaskStatus::Aborted)
                    && status("avis") == Some(TaskStatus::Aborted);
                if !ok {
                    return Err(format!("q4_mtx: preferred state not reached: {report:?}"));
                }
                Ok(0)
            }
            Class::Q4Reset => {
                let MsqlOutcome::Update(report) = outcome else {
                    return Err(format!("expected an update report, got {outcome:?}"));
                };
                let ok = report.success
                    && report.outcomes.len() == 1
                    && report.outcomes[0].status == TaskStatus::Committed
                    && report.outcomes[0].affected == 1;
                if !ok {
                    return Err(format!("q4_reset: should free exactly one row: {report:?}"));
                }
                Ok(1)
            }
            Class::XjoinSmall => {
                let MsqlOutcome::Table(rs) = outcome else {
                    return Err(format!("expected a table, got {outcome:?}"));
                };
                let want: Vec<Row> = vec![vec![Value::Int(2), Value::Int(2), Value::Float(80.0)]];
                if !same_rows(&rs.rows, &want) {
                    return Err(format!("xjoin_small: got {:?}, want {want:?}", rs.rows));
                }
                Ok(digest(&want).1)
            }
            other => Err(format!("class {} has no paper check", other.name())),
        }
    }
}
