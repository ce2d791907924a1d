//! SQL behaviour tests for the local engine: the semantics the MSQL layer
//! relies on, exercised through the public `Engine` API.

use ldbs::profile::DbmsProfile;
use ldbs::value::Value;
use ldbs::{DbError, Engine};

fn engine() -> Engine {
    let mut e = Engine::new("svc", DbmsProfile::oracle_like());
    e.create_database("db").unwrap();
    e.execute(
        "db",
        "CREATE TABLE emp (id INT NOT NULL, name CHAR(20), dept CHAR(10), salary FLOAT, hired DATE)",
    )
    .unwrap();
    for (id, name, dept, salary, hired) in [
        (1, "'ana'", "'eng'", "100.0", "'2020-01-01'"),
        (2, "'bo'", "'eng'", "120.0", "'2021-06-15'"),
        (3, "'cy'", "'ops'", "90.0", "NULL"),
        (4, "'dee'", "'ops'", "NULL", "'2019-03-30'"),
        (5, "NULL", "'hr'", "80.0", "'2022-11-02'"),
    ] {
        e.execute(
            "db",
            &format!("INSERT INTO emp VALUES ({id}, {name}, {dept}, {salary}, {hired})"),
        )
        .unwrap();
    }
    e
}

fn rows(e: &mut Engine, sql: &str) -> Vec<Vec<Value>> {
    e.execute("db", sql).unwrap().into_result_set().unwrap().rows
}

#[test]
fn where_null_comparisons_filter_out() {
    let mut e = engine();
    // salary = NULL is unknown → no rows, even for the NULL salary row.
    assert!(rows(&mut e, "SELECT id FROM emp WHERE salary = NULL").is_empty());
    assert_eq!(rows(&mut e, "SELECT id FROM emp WHERE salary IS NULL").len(), 1);
    assert_eq!(rows(&mut e, "SELECT id FROM emp WHERE salary IS NOT NULL").len(), 4);
}

#[test]
fn order_by_puts_nulls_first_and_respects_desc() {
    let mut e = engine();
    let got = rows(&mut e, "SELECT id FROM emp ORDER BY salary");
    assert_eq!(got[0][0], Value::Int(4)); // NULL salary first
    let got = rows(&mut e, "SELECT id FROM emp ORDER BY salary DESC");
    assert_eq!(got[0][0], Value::Int(2)); // highest salary first
    assert_eq!(got[4][0], Value::Int(4)); // NULL last under DESC
}

#[test]
fn multi_key_order_by() {
    let mut e = engine();
    let got = rows(&mut e, "SELECT dept, id FROM emp ORDER BY dept, id DESC");
    let flat: Vec<(String, i64)> = got
        .iter()
        .map(|r| match (&r[0], &r[1]) {
            (Value::Str(d), Value::Int(i)) => (d.clone(), *i),
            other => panic!("{other:?}"),
        })
        .collect();
    assert_eq!(
        flat,
        vec![
            ("eng".into(), 2),
            ("eng".into(), 1),
            ("hr".into(), 5),
            ("ops".into(), 4),
            ("ops".into(), 3),
        ]
    );
}

#[test]
fn group_by_multiple_keys_and_having() {
    let mut e = engine();
    e.execute("db", "INSERT INTO emp VALUES (6, 'eli', 'eng', 100.0, NULL)").unwrap();
    let got = rows(
        &mut e,
        "SELECT dept, salary, COUNT(*) AS n FROM emp
         GROUP BY dept, salary HAVING COUNT(*) > 1 ORDER BY dept",
    );
    // eng/100.0 appears twice.
    assert_eq!(got.len(), 1);
    assert_eq!(got[0][0], Value::Str("eng".into()));
    assert_eq!(got[0][2], Value::Int(2));
}

#[test]
fn aggregates_ignore_nulls() {
    let mut e = engine();
    let got = rows(
        &mut e,
        "SELECT COUNT(*), COUNT(salary), AVG(salary), MIN(salary), MAX(salary) FROM emp",
    );
    assert_eq!(got[0][0], Value::Int(5));
    assert_eq!(got[0][1], Value::Int(4)); // NULL salary not counted
    assert_eq!(got[0][2], Value::Float((100.0 + 120.0 + 90.0 + 80.0) / 4.0));
    assert_eq!(got[0][3], Value::Float(80.0));
    assert_eq!(got[0][4], Value::Float(120.0));
}

#[test]
fn distinct_on_multiple_columns() {
    let mut e = engine();
    e.execute("db", "INSERT INTO emp VALUES (7, 'fay', 'eng', 100.0, NULL)").unwrap();
    let all = rows(&mut e, "SELECT dept, salary FROM emp WHERE dept = 'eng'");
    assert_eq!(all.len(), 3);
    let distinct = rows(&mut e, "SELECT DISTINCT dept, salary FROM emp WHERE dept = 'eng'");
    assert_eq!(distinct.len(), 2); // (eng,100) deduped, (eng,120) kept
}

#[test]
fn in_between_like_combinations() {
    let mut e = engine();
    assert_eq!(rows(&mut e, "SELECT id FROM emp WHERE dept IN ('eng', 'hr') ORDER BY id").len(), 3);
    assert_eq!(
        rows(&mut e, "SELECT id FROM emp WHERE salary BETWEEN 85 AND 105 ORDER BY id").len(),
        2
    );
    assert_eq!(rows(&mut e, "SELECT id FROM emp WHERE name LIKE '%y'").len(), 1);
    assert_eq!(rows(&mut e, "SELECT id FROM emp WHERE name LIKE '_o'").len(), 1);
    // NOT LIKE over a NULL name is unknown → filtered out.
    assert_eq!(rows(&mut e, "SELECT id FROM emp WHERE name NOT LIKE 'q%'").len(), 4);
}

#[test]
fn correlated_exists_and_in() {
    let mut e = engine();
    e.execute("db", "CREATE TABLE bonus (emp_id INT, amount FLOAT)").unwrap();
    e.execute("db", "INSERT INTO bonus VALUES (1, 10.0)").unwrap();
    e.execute("db", "INSERT INTO bonus VALUES (3, 5.0)").unwrap();
    let got = rows(
        &mut e,
        "SELECT id FROM emp WHERE EXISTS (SELECT 1 FROM bonus WHERE bonus.emp_id = emp.id) ORDER BY id",
    );
    assert_eq!(
        got.iter().map(|r| r[0].clone()).collect::<Vec<_>>(),
        vec![Value::Int(1), Value::Int(3)]
    );
    let got =
        rows(&mut e, "SELECT id FROM emp WHERE id NOT IN (SELECT emp_id FROM bonus) ORDER BY id");
    assert_eq!(got.len(), 3);
}

#[test]
fn scalar_subquery_comparison_against_aggregate() {
    let mut e = engine();
    let got =
        rows(&mut e, "SELECT id FROM emp WHERE salary > (SELECT AVG(salary) FROM emp) ORDER BY id");
    // avg = 97.5; above: 100 (id 1) and 120 (id 2).
    assert_eq!(got.len(), 2);
}

#[test]
fn not_null_constraint_enforced_on_update_too() {
    let mut e = engine();
    let err = e.execute("db", "UPDATE emp SET id = NULL WHERE id = 1");
    assert!(matches!(err, Err(DbError::NullViolation(_))), "{err:?}");
    // And the statement had no partial effect.
    assert_eq!(rows(&mut e, "SELECT id FROM emp WHERE id = 1").len(), 1);
}

#[test]
fn insert_select_with_reordered_column_list() {
    let mut e = engine();
    e.execute("db", "CREATE TABLE names (label CHAR(20), key INT)").unwrap();
    e.execute("db", "INSERT INTO names (key, label) SELECT id, name FROM emp WHERE dept = 'eng'")
        .unwrap();
    let got = rows(&mut e, "SELECT label, key FROM names ORDER BY key");
    assert_eq!(got[0][0], Value::Str("ana".into()));
    assert_eq!(got[0][1], Value::Int(1));
}

#[test]
fn three_way_join() {
    let mut e = engine();
    e.execute("db", "CREATE TABLE dept (code CHAR(10), floor INT)").unwrap();
    e.execute("db", "INSERT INTO dept VALUES ('eng', 3)").unwrap();
    e.execute("db", "INSERT INTO dept VALUES ('ops', 1)").unwrap();
    e.execute("db", "CREATE TABLE bonus (emp_id INT, amount FLOAT)").unwrap();
    e.execute("db", "INSERT INTO bonus VALUES (1, 10.0)").unwrap();
    let got = rows(
        &mut e,
        "SELECT emp.name, dept.floor, bonus.amount
         FROM emp, dept, bonus
         WHERE emp.dept = dept.code AND emp.id = bonus.emp_id",
    );
    assert_eq!(got.len(), 1);
    assert_eq!(got[0][0], Value::Str("ana".into()));
    assert_eq!(got[0][1], Value::Int(3));
}

#[test]
fn arithmetic_in_projection_and_alias() {
    let mut e = engine();
    let rs = e
        .execute("db", "SELECT id, salary * 1.1 AS raised FROM emp WHERE id = 1")
        .unwrap()
        .into_result_set()
        .unwrap();
    assert_eq!(rs.columns[1].name, "raised");
    assert_eq!(rs.rows[0][1], Value::Float(110.00000000000001));
}

#[test]
fn delete_everything_then_aggregate() {
    let mut e = engine();
    e.execute("db", "DELETE FROM emp").unwrap();
    let got = rows(&mut e, "SELECT COUNT(*), MAX(salary) FROM emp");
    assert_eq!(got[0][0], Value::Int(0));
    assert_eq!(got[0][1], Value::Null);
}

#[test]
fn date_columns_store_and_compare_as_text() {
    let mut e = engine();
    let got = rows(&mut e, "SELECT id FROM emp WHERE hired > '2020-12-31' ORDER BY id");
    assert_eq!(got.len(), 2); // 2021-06-15 and 2022-11-02
}

#[test]
fn division_by_zero_yields_null_not_error() {
    let mut e = engine();
    let got = rows(&mut e, "SELECT salary / 0 FROM emp WHERE id = 1");
    assert_eq!(got[0][0], Value::Null);
}

#[test]
fn select_without_from() {
    let mut e = engine();
    let got = rows(&mut e, "SELECT 1 + 2 AS three");
    assert_eq!(got, vec![vec![Value::Int(3)]]);
}

#[test]
fn self_join_with_aliases() {
    let mut e = engine();
    // Pairs of eng employees with different ids.
    let got = rows(
        &mut e,
        "SELECT a.id, b.id FROM emp a, emp b
         WHERE a.dept = 'eng' AND b.dept = 'eng' AND a.id < b.id",
    );
    assert_eq!(got, vec![vec![Value::Int(1), Value::Int(2)]]);
}

#[test]
fn subquery_cache_keeps_correlated_subqueries_correct() {
    // Each row compares against a *correlated* subquery; the cache must not
    // leak one row's result into another's.
    let mut e = engine();
    let got = rows(
        &mut e,
        "SELECT id FROM emp e WHERE salary = (SELECT MAX(salary) FROM emp x WHERE x.dept = e.dept) ORDER BY id",
    );
    // Max per dept: eng→120 (id 2), ops→90 (id 3), hr→80 (id 5).
    assert_eq!(
        got.iter().map(|r| r[0].clone()).collect::<Vec<_>>(),
        vec![Value::Int(2), Value::Int(3), Value::Int(5)]
    );
}

#[test]
fn subquery_cache_consistent_for_uncorrelated() {
    // Uncorrelated: every row sees the same MIN; exactly the reservation
    // pattern of §3.4.
    let mut e = engine();
    let got = rows(&mut e, "SELECT id FROM emp WHERE salary = (SELECT MIN(salary) FROM emp)");
    assert_eq!(got, vec![vec![Value::Int(5)]]);
}

#[test]
fn update_with_uncorrelated_subquery_snapshot_semantics() {
    // The MIN is computed against the pre-statement state; the cache must
    // not observe rows mutated earlier in the same statement.
    let mut e = engine();
    e.execute("db", "UPDATE emp SET salary = 0 WHERE salary = (SELECT MIN(salary) FROM emp)")
        .unwrap();
    let got = rows(&mut e, "SELECT id FROM emp WHERE salary = 0");
    assert_eq!(got, vec![vec![Value::Int(5)]]);
}

/// Fastest of five runs, so a descheduled run does not count.
fn fastest(mut f: impl FnMut()) -> std::time::Duration {
    (0..5)
        .map(|_| {
            let start = std::time::Instant::now();
            f();
            start.elapsed()
        })
        .min()
        .unwrap()
}

#[test]
fn a_literal_in_list_is_probed_not_walked() {
    // A semi-join's key filter is `k IN (<the reducer's keys>)` over every
    // row of the other site: its cost must follow the rows, not rows × keys.
    let mut e = Engine::new("svc", DbmsProfile::oracle_like());
    e.create_database("db").unwrap();
    e.execute("db", "CREATE TABLE fact (k INT, v INT)").unwrap();
    for chunk in (0..20_000).collect::<Vec<i64>>().chunks(500) {
        let tuples: Vec<String> = chunk.iter().map(|i| format!("({}, {i})", i % 500)).collect();
        e.execute("db", &format!("INSERT INTO fact VALUES {}", tuples.join(", "))).unwrap();
    }
    // Twenty keys that match, then keys no row holds: the same 800 rows pass.
    let query = |keys: i64| {
        let list: Vec<String> =
            (0..keys).map(|i| (if i < 20 { i } else { 500 + i }).to_string()).collect();
        format!("SELECT v FROM fact WHERE k IN ({})", list.join(", "))
    };
    let (short, long) = (query(20), query(2_000));
    assert_eq!(rows(&mut e, &short), rows(&mut e, &long));
    assert_eq!(rows(&mut e, &short).len(), 800);
    let few = fastest(|| drop(rows(&mut e, &short)));
    let many = fastest(|| drop(rows(&mut e, &long)));
    assert!(
        many < 4 * few,
        "2 000 literals took {many:?}, 20 took {few:?}: the list is walked per row"
    );
}
