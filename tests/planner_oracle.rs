//! Property test: **cost-based planning is an optimization, not a semantic**.
//!
//! For any data distribution, any mix of fresh / stale / absent statistics
//! and any predicate shape, the costed distributed plan (statistics-driven
//! reducer choice, per-edge semi-join decisions, global join reordering)
//! must return exactly the rows of the statistics-free heuristic plan: the
//! same scenario with every `ANALYZE` skipped.
//! Global FROM reordering may permute row order, so both sides are compared
//! as sorted multisets. Half the scenarios join a third site, so the costed
//! plan also chooses among coordinators and ships a key filter to a site
//! that is not one.

use ldbs::value::Value;
use mdbs::fixtures::paper_federation;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Scenario {
    /// Rows of `avis.t1 (k, a)`.
    t1: Vec<(i64, i64)>,
    /// Rows of `national.t2 (k, b)`.
    t2: Vec<(i64, i64)>,
    /// Rows of `continental.t3 (k, c)`, when the join spans three sites.
    t3: Option<Vec<(i64, i64)>>,
    /// Whether to ANALYZE t1 / t2 / t3 (absent stats fall back per table).
    analyze: [bool; 3],
    /// Rows inserted into t1 *after* ANALYZE, so its snapshot drifts
    /// (and, past the freshness slack, would be dropped as stale).
    post_dml: Vec<(i64, i64)>,
    /// Index into `PREDICATES`.
    pred: usize,
}

/// Residual predicates layered on the `t.k = u.k` equi-join edge.
const PREDICATES: [&str; 5] =
    ["", " AND t.a < 5", " AND u.b = 3", " AND (t.a < 3 OR u.b > 7)", " AND t.a <= u.b"];

fn scenario() -> impl Strategy<Value = Scenario> {
    let row = || (0i64..8, 0i64..10);
    (
        proptest::collection::vec(row(), 0..16),
        proptest::collection::vec(row(), 0..16),
        proptest::option::of(proptest::collection::vec(row(), 0..16)),
        proptest::array::uniform3(any::<bool>()),
        proptest::collection::vec(row(), 0..4),
        0usize..PREDICATES.len(),
    )
        .prop_map(|(t1, t2, t3, analyze, post_dml, pred)| Scenario {
            t1,
            t2,
            t3,
            analyze,
            post_dml,
            pred,
        })
}

/// Runs the scenario — without any `ANALYZE` unless `costed` — and returns
/// the result as a sorted multiset of rows.
fn run(s: &Scenario, costed: bool) -> Vec<Vec<Value>> {
    let analyze = s.analyze.map(|a| a && costed);
    let mut fed = paper_federation();
    fed.execute("USE avis national continental").unwrap();
    fed.execute("CREATE TABLE avis.t1 (k INT, a INT)").unwrap();
    fed.execute("CREATE TABLE national.t2 (k INT, b INT)").unwrap();
    fed.execute("CREATE TABLE continental.t3 (k INT, c INT)").unwrap();
    let insert = |fed: &mdbs::Federation, svc: &str, db: &str, t: &str, rows: &[(i64, i64)]| {
        let engine = fed.engine(svc).unwrap();
        let mut engine = engine.lock();
        for (k, v) in rows {
            engine.execute(db, &format!("INSERT INTO {t} VALUES ({k}, {v})")).unwrap();
        }
    };
    insert(&fed, "svc_avis", "avis", "t1", &s.t1);
    insert(&fed, "svc_national", "national", "t2", &s.t2);
    insert(&fed, "svc_continental", "continental", "t3", s.t3.as_deref().unwrap_or(&[]));
    if analyze[2] {
        fed.execute("ANALYZE continental.t3").unwrap();
    }
    if analyze[0] {
        fed.execute("ANALYZE avis.t1").unwrap();
    }
    if analyze[1] {
        fed.execute("ANALYZE national.t2").unwrap();
    }
    insert(&fed, "svc_avis", "avis", "t1", &s.post_dml);
    let (third, edge) = match s.t3 {
        Some(_) => (", continental.t3 w", " AND u.k = w.k"),
        None => ("", ""),
    };
    let rs = fed
        .execute(&format!(
            "SELECT t.k, t.a, u.b FROM avis.t1 t, national.t2 u{third} WHERE t.k = u.k{edge}{}",
            PREDICATES[s.pred]
        ))
        .unwrap()
        .into_table()
        .unwrap();
    let mut rows = rs.rows;
    rows.sort_by_key(|r| {
        r.iter()
            .map(|v| match v {
                Value::Int(i) => *i,
                other => panic!("unexpected value {other:?}"),
            })
            .collect::<Vec<i64>>()
    });
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn costed_and_heuristic_plans_return_identical_rows(s in scenario()) {
        let costed = run(&s, true);
        let heuristic = run(&s, false);
        prop_assert_eq!(
            costed,
            heuristic,
            "costed plan diverged from the reference plan (scenario {:?})",
            s
        );
    }
}
