//! Property test: **aggregate/top-k pushdown is an optimization, not a
//! semantic**.
//!
//! For any data distribution — empty groups, all-NULL aggregated columns,
//! sites with zero rows, single-site degenerates — a query executed with
//! pushdown on must return exactly the answer of (a) the same query with
//! pushdown off (the classic ship-everything coordinator plan) and (b) a
//! plain-Rust reference evaluator written independently of both: the same
//! rows under the same column names and data types.
//!
//! Both plans emit groups in first-seen order — the classic plan over the
//! joined rows, the pushed plan's Q′ over the joined partials — so unordered
//! queries are compared as sorted multisets; ordered queries order by enough
//! columns to make the prefix unique per row value, so they compare as
//! sequences.
//!
//! Aggregated numbers are only integers (or NULL): partial SUMs merge by
//! scaled multiplication while the reference adds sequentially, and only
//! integer arithmetic makes those bit-identical.

mod common;

use common::{engine_counters, lam_bytes, table_rows, Tap};
use ldbs::profile::DbmsProfile;
use ldbs::value::Value;
use ldbs::Engine;
use mdbs::fixtures::paper_federation;
use mdbs::proto::Request;
use mdbs::{Federation, WireFormat};
use netsim::Network;
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
struct Scenario {
    /// Rows of `avis.t1 (k, g, v)` — join key, group key, aggregated value.
    t1: Vec<(i64, i64, Option<i64>)>,
    /// Rows of `national.t2 (k, h, w, c)` — join key, group key, aggregated
    /// value, and the index of the aggregated text `c<i>`.
    t2: Vec<(i64, i64, Option<i64>, Option<i64>)>,
    /// Index into the query shapes exercised by `run`/`reference`.
    query: usize,
}

const N_QUERIES: usize = 10;

fn scenario() -> impl Strategy<Value = Scenario> {
    let opt = || prop::option::of(0i64..7);
    (
        prop::collection::vec((0i64..5, 0i64..3, opt()), 0..12),
        prop::collection::vec((0i64..5, 0i64..3, opt(), prop::option::of(0i64..4)), 0..12),
        0usize..N_QUERIES,
    )
        .prop_map(|(t1, t2, query)| Scenario { t1, t2, query })
}

/// The query shapes: 0–2 are decomposable aggregates (plain, grand total,
/// ordered + limited), 3 is a pure-product top-k, 4 is a single-site
/// degenerate that never decomposes (pushdown must be a no-op), 5 is a
/// pure-product GROUP BY — no join key, so the site without group keys
/// answers with a single ungrouped state row even when its table is empty.
/// 6–9 are decomposable aggregates too: group keys from both sites, a group
/// key on the second site only, MIN / MAX over a CHAR column, and an ORDER
/// BY on an aggregate.
fn query_sql(q: usize) -> &'static str {
    match q {
        0 => {
            "SELECT t.g, COUNT(*), SUM(t.v), MIN(u.w), AVG(u.w) \
             FROM avis.t1 t, national.t2 u WHERE t.k = u.k GROUP BY t.g"
        }
        1 => {
            "SELECT COUNT(*), COUNT(u.w), SUM(t.v), MAX(u.w) \
             FROM avis.t1 t, national.t2 u WHERE t.k = u.k"
        }
        2 => {
            "SELECT t.g, COUNT(*), SUM(u.w) FROM avis.t1 t, national.t2 u \
             WHERE t.k = u.k GROUP BY t.g ORDER BY t.g DESC LIMIT 2"
        }
        3 => {
            "SELECT t.v, u.w FROM avis.t1 t, national.t2 u \
             ORDER BY t.v DESC, u.w LIMIT 4"
        }
        4 => "SELECT t.g, COUNT(*), SUM(t.v) FROM avis.t1 t GROUP BY t.g",
        5 => "SELECT t.g, COUNT(*), SUM(u.w) FROM avis.t1 t, national.t2 u GROUP BY t.g",
        6 => {
            "SELECT t.g, u.h, COUNT(*), SUM(t.v), MAX(u.w) \
             FROM avis.t1 t, national.t2 u WHERE t.k = u.k GROUP BY t.g, u.h"
        }
        7 => {
            "SELECT u.h, COUNT(*), AVG(t.v) FROM avis.t1 t, national.t2 u \
             WHERE t.k = u.k GROUP BY u.h"
        }
        8 => {
            "SELECT t.g, MIN(u.c), MAX(u.c) FROM avis.t1 t, national.t2 u \
             WHERE t.k = u.k GROUP BY t.g"
        }
        9 => {
            "SELECT t.g, COUNT(*) FROM avis.t1 t, national.t2 u \
             WHERE t.k = u.k GROUP BY t.g ORDER BY COUNT(*) DESC, t.g LIMIT 2"
        }
        _ => unreachable!(),
    }
}

/// The answer's columns, as `name:type`.
fn columns(q: usize) -> &'static str {
    match q {
        0 => "g:Int count:Int sum:Int min:Int avg:Float",
        1 => "count:Int count:Int sum:Int max:Int",
        2 | 5 => "g:Int count:Int sum:Int",
        3 => "v:Int w:Int",
        4 => "g:Int count:Int sum:Int",
        6 => "g:Int h:Int count:Int sum:Int max:Int",
        7 => "h:Int count:Int avg:Float",
        8 => "g:Int min:Char(4) max:Char(4)",
        9 => "g:Int count:Int",
        _ => unreachable!(),
    }
}

/// Whether the query's ORDER BY pins a total output order (compare as a
/// sequence); otherwise compare as a sorted multiset.
fn ordered(q: usize) -> bool {
    matches!(q, 2 | 3 | 9)
}

fn cmp_rows(a: &[Value], b: &[Value]) -> Ordering {
    for (x, y) in a.iter().zip(b) {
        match x.total_cmp(y) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    a.len().cmp(&b.len())
}

/// An answer as the oracle compares it: its columns as `name:type`, and its
/// rows, sorted unless the query orders them.
type Answer = (String, Vec<Vec<Value>>);

fn answer(rs: ldbs::ResultSet, q: usize) -> Answer {
    let columns: Vec<String> =
        rs.columns.iter().map(|c| format!("{}:{:?}", c.name, c.data_type)).collect();
    let mut rows = rs.rows;
    if !ordered(q) {
        rows.sort_by(|a, b| cmp_rows(a, b));
    }
    (columns.join(" "), rows)
}

fn text(c: &Option<i64>) -> Value {
    c.map_or(Value::Null, |c| Value::Str(format!("c{c}")))
}

/// Runs the scenario's query through a fresh federation and returns its
/// answer.
fn run(s: &Scenario, pushdown: bool) -> Answer {
    let mut fed = paper_federation();
    fed.agg_pushdown = pushdown;
    fed.execute("USE avis national").unwrap();
    fed.execute("CREATE TABLE avis.t1 (k INT, g INT, v INT)").unwrap();
    fed.execute("CREATE TABLE national.t2 (k INT, h INT, w INT, c CHAR(4))").unwrap();
    let lit = |v: &Option<i64>| v.map_or("NULL".to_string(), |x| x.to_string());
    {
        let engine = fed.engine("svc_avis").unwrap();
        let mut engine = engine.lock();
        for (k, g, v) in &s.t1 {
            engine
                .execute("avis", &format!("INSERT INTO t1 VALUES ({k}, {g}, {})", lit(v)))
                .unwrap();
        }
    }
    {
        let engine = fed.engine("svc_national").unwrap();
        let mut engine = engine.lock();
        for (k, h, w, c) in &s.t2 {
            let c = c.map_or("NULL".to_string(), |c| format!("'c{c}'"));
            engine
                .execute("national", &format!("INSERT INTO t2 VALUES ({k}, {h}, {}, {c})", lit(w)))
                .unwrap();
        }
    }
    let outcome = fed.execute(query_sql(s.query)).unwrap();
    let rs = match outcome {
        mdbs::MsqlOutcome::Table(rs) => rs,
        mdbs::MsqlOutcome::Multitable(mt) => {
            // The single-site degenerate returns a one-table multitable.
            assert_eq!(mt.tables.len(), 1, "degenerate query should touch one database");
            mt.tables.into_iter().next().unwrap().result
        }
        other => panic!("unexpected outcome {other:?}"),
    };
    answer(rs, s.query)
}

/// One row of `t1 ⋈ t2` (or `t1 × t2`) as the reference evaluator sees it.
struct Joined {
    g: i64,
    v: Option<i64>,
    h: i64,
    w: Option<i64>,
    c: Value,
}

/// Aggregate accumulator for the reference evaluator.
#[derive(Default, Clone)]
struct Acc {
    count: i64,
    sum_v: Option<i64>,
    cnt_v: i64,
    cnt_w: i64,
    sum_w: Option<i64>,
    min_w: Option<i64>,
    max_w: Option<i64>,
    min_c: Option<Value>,
    max_c: Option<Value>,
}

impl Acc {
    fn add(&mut self, j: &Joined) {
        self.count += 1;
        if let Some(v) = j.v {
            self.cnt_v += 1;
            self.sum_v = Some(self.sum_v.unwrap_or(0) + v);
        }
        if let Some(w) = j.w {
            self.cnt_w += 1;
            self.sum_w = Some(self.sum_w.unwrap_or(0) + w);
            self.min_w = Some(self.min_w.map_or(w, |m| m.min(w)));
            self.max_w = Some(self.max_w.map_or(w, |m| m.max(w)));
        }
        if !j.c.is_null() {
            let c = &j.c;
            if self.min_c.as_ref().is_none_or(|m| c.total_cmp(m) == Ordering::Less) {
                self.min_c = Some(c.clone());
            }
            if self.max_c.as_ref().is_none_or(|m| c.total_cmp(m) == Ordering::Greater) {
                self.max_c = Some(c.clone());
            }
        }
    }
}

fn avg(sum: Option<i64>, count: i64) -> Value {
    match sum {
        Some(s) if count > 0 => Value::Float(s as f64 / count as f64),
        _ => Value::Null,
    }
}

fn int_or_null(v: Option<i64>) -> Value {
    v.map_or(Value::Null, Value::Int)
}

/// Plain-Rust reference evaluation of the scenario's query.
fn reference(s: &Scenario) -> Answer {
    let q = s.query;
    // Query 4 reads t1 alone: one joined row per t1 row.
    let t2: Vec<_> = if q == 4 { vec![(0, 0, None, None)] } else { s.t2.clone() };
    let product = (3..=5).contains(&q);
    let mut joined = Vec::new();
    for (k1, g, v) in &s.t1 {
        for (k2, h, w, c) in &t2 {
            if product || k1 == k2 {
                joined.push(Joined { g: *g, v: *v, h: *h, w: *w, c: text(c) });
            }
        }
    }
    let group_by = |key: fn(&Joined) -> Vec<i64>| {
        let mut groups: BTreeMap<Vec<i64>, Acc> = BTreeMap::new();
        for j in &joined {
            groups.entry(key(j)).or_default().add(j);
        }
        groups.into_iter().map(|(key, a)| (key.into_iter().map(Value::Int), a))
    };
    let by_g = |j: &Joined| vec![j.g];
    let mut rows: Vec<Vec<Value>> = match q {
        0 => group_by(by_g)
            .map(|(g, a)| {
                let aggs = [Value::Int(a.count), int_or_null(a.sum_v), int_or_null(a.min_w)];
                g.chain(aggs).chain([avg(a.sum_w, a.cnt_w)]).collect()
            })
            .collect(),
        1 => {
            let mut total = Acc::default();
            joined.iter().for_each(|j| total.add(j));
            vec![vec![
                Value::Int(total.count),
                Value::Int(total.cnt_w),
                int_or_null(total.sum_v),
                int_or_null(total.max_w),
            ]]
        }
        2 | 5 => {
            let mut rows: Vec<Vec<Value>> = group_by(by_g)
                .map(|(g, a)| g.chain([Value::Int(a.count), int_or_null(a.sum_w)]).collect())
                .collect();
            if q == 2 {
                rows.reverse(); // ORDER BY t.g DESC
                rows.truncate(2);
            }
            rows
        }
        3 => {
            let mut rows: Vec<Vec<Value>> =
                joined.iter().map(|j| vec![int_or_null(j.v), int_or_null(j.w)]).collect();
            rows.sort_by(|a, b| b[0].total_cmp(&a[0]).then(a[1].total_cmp(&b[1])));
            rows.truncate(4);
            rows
        }
        4 => group_by(by_g)
            .map(|(g, a)| g.chain([Value::Int(a.count), int_or_null(a.sum_v)]).collect())
            .collect(),
        6 => group_by(|j| vec![j.g, j.h])
            .map(|(gh, a)| {
                let aggs = [Value::Int(a.count), int_or_null(a.sum_v), int_or_null(a.max_w)];
                gh.chain(aggs).collect()
            })
            .collect(),
        7 => group_by(|j| vec![j.h])
            .map(|(h, a)| h.chain([Value::Int(a.count), avg(a.sum_v, a.cnt_v)]).collect())
            .collect(),
        8 => group_by(by_g)
            .map(|(g, a)| {
                let or_null = |c: Option<Value>| c.unwrap_or(Value::Null);
                g.chain([or_null(a.min_c), or_null(a.max_c)]).collect()
            })
            .collect(),
        9 => {
            let mut rows: Vec<Vec<Value>> =
                group_by(by_g).map(|(g, a)| g.chain([Value::Int(a.count)]).collect()).collect();
            // ORDER BY COUNT(*) DESC, t.g
            rows.sort_by(|a, b| b[1].total_cmp(&a[1]).then(a[0].total_cmp(&b[0])));
            rows.truncate(2);
            rows
        }
        _ => unreachable!(),
    };
    if !ordered(q) {
        rows.sort_by(|a, b| cmp_rows(a, b));
    }
    (columns(q).to_string(), rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pushed_and_unpushed_plans_match_the_reference(s in scenario()) {
        let expected = reference(&s);
        let pushed = run(&s, true);
        let unpushed = run(&s, false);
        prop_assert_eq!(
            &pushed,
            &expected,
            "pushdown-on diverged from the reference (scenario {:?})",
            s
        );
        prop_assert_eq!(
            &unpushed,
            &expected,
            "pushdown-off diverged from the reference (scenario {:?})",
            s
        );
    }
}

/// The degenerate shapes the strategy may under-sample, pinned exactly once.
#[test]
fn empty_sites_and_all_null_columns_agree() {
    for query in 0..N_QUERIES {
        for (t1, t2) in [
            (vec![], vec![]), // both sites empty
            // all-NULL aggregates
            (vec![(1, 0, None), (1, 1, None)], vec![(1, 0, None, None)]),
            (vec![(1, 0, Some(3))], vec![]), // one empty site
            // Two groups × an empty site: under query 5 (pure product, GROUP
            // BY) the pushed plan once answered `[[0,0],[1,0]]` where the
            // classic plan answers no rows.
            (vec![(1, 0, Some(3)), (1, 1, Some(4))], vec![]),
            (vec![], vec![(1, 0, Some(2), Some(1))]),
        ] {
            let s = Scenario { t1, t2, query };
            let expected = reference(&s);
            assert_eq!(run(&s, true), expected, "pushdown-on, scenario {s:?}");
            assert_eq!(run(&s, false), expected, "pushdown-off, scenario {s:?}");
        }
    }
}

/// A pushed GROUP BY and a pushed top-k run one statement per site: the
/// rewritten site query. Only `EXPLAIN` asks the sites to evaluate the
/// unpushed subquery too (to report `full_rows` / `saved`); a plain statement
/// sends `PARTIALAGG` without a baseline and each site scans its table once —
/// under both wire formats.
#[test]
fn pushed_site_queries_run_once_outside_explain() {
    const PUSHED_GROUP_BY: &str = "SELECT f.source, COUNT(*), MIN(g.rate)
        FROM continental.flights f, delta.flight g
        WHERE f.source = g.source
        GROUP BY f.source";
    const PUSHED_TOPK: &str = "SELECT f.flnu, g.fnu FROM continental.flights f, delta.flight g
        ORDER BY f.flnu DESC, g.fnu LIMIT 2";
    for format in [WireFormat::Text, WireFormat::Binary] {
        for (query, strategy) in [(PUSHED_GROUP_BY, "agg-pushdown"), (PUSHED_TOPK, "topk-pushdown")]
        {
            let mut fed = paper_federation();
            fed.wire_format = format;
            let tap = Tap::install(&mut fed, "svc_delta", "site2");
            fed.execute("USE continental delta").unwrap();
            let sizes = [
                ("svc_continental", table_rows(&fed, "svc_continental", "continental", "flights")),
                ("svc_delta", table_rows(&fed, "svc_delta", "delta", "flight")),
            ];
            let counters = |fed: &mdbs::Federation| sizes.map(|(svc, _)| engine_counters(fed, svc));
            let what = format!("{format:?} {strategy}");
            tap.drain_partials();

            let before = counters(&fed);
            let plain = fed.execute(query).unwrap().into_table().unwrap();
            let after = counters(&fed);
            for (i, (svc, size)) in sizes.iter().enumerate() {
                assert_eq!(after[i].0 - before[i].0, 1, "{what}: {svc} ran one statement");
                assert_eq!(after[i].1 - before[i].1, *size, "{what}: {svc} scanned its table once");
            }
            let sent = tap.drain_partials();
            assert!(
                matches!(sent.as_slice(), [Request::PartialAgg { baseline: None, .. }]),
                "{what}: one PARTIALAGG without a baseline, saw {sent:?}"
            );

            let report = fed.execute(&format!("EXPLAIN {query}")).unwrap().into_explain().unwrap();
            let explained = counters(&fed);
            for (i, (svc, size)) in sizes.iter().enumerate() {
                assert_eq!(explained[i].0 - after[i].0, 2, "{what}: {svc} pushed query + baseline");
                assert_eq!(explained[i].1 - after[i].1, 2 * size, "{what}: {svc} scanned twice");
            }
            let sent = tap.drain_partials();
            assert!(
                matches!(sent.as_slice(), [Request::PartialAgg { baseline: Some(_), .. }]),
                "{what}: EXPLAIN sends the baseline, saw {sent:?}"
            );
            let join = report.tree.find("join").expect("a join span");
            assert_eq!(join.note("strategy"), Some(strategy));
            // Each site's partial is pushed and measured its unpushed baseline.
            let unpushed = ["continental", "delta"].map(|db| {
                let partial = report.tree.find(&format!("lam:partial:{db}")).expect("a partial");
                assert!(partial.note("pushed").is_some(), "{what}: {partial:?}");
                partial.note("full_rows").expect("a measured baseline").parse::<u64>().unwrap()
            });
            assert_eq!(unpushed, sizes.map(|(_, size)| size), "{what}: measured baselines");
            if (format, strategy) == (WireFormat::Text, "agg-pushdown") {
                // The text-wire numbers tests/golden/aggregate_pushdown.trace pins.
                let text = report.render();
                assert!(text.contains("bytes=68 full_rows=3 saved=0}"), "{text}");
                assert!(text.contains("bytes=73 full_rows=2 saved=6}"), "{text}");
                assert_eq!(join.note("bytes_saved"), Some("6"), "{text}");
            }
            // EXPLAIN executed the statement again; nothing about it differs.
            assert_eq!(fed.execute(query).unwrap().into_table().unwrap().rows, plain.rows);
        }
    }
}

/// Two sites: `db0.fact` with `fact_rows` rows over 50 join keys and 10
/// groups, `db1.dim` with the 50 dimension rows.
fn star_federation(fact_rows: usize) -> Federation {
    let mut fed = Federation::with_network(Network::new());
    let mut e0 = Engine::new("svc0", DbmsProfile::oracle_like());
    e0.create_database("db0").unwrap();
    e0.execute("db0", "CREATE TABLE fact (k INT, g INT, v INT)").unwrap();
    for r in 0..fact_rows {
        e0.execute("db0", &format!("INSERT INTO fact VALUES ({}, {}, {r})", r % 50, r % 10))
            .unwrap();
    }
    let mut e1 = Engine::new("svc1", DbmsProfile::oracle_like());
    e1.create_database("db1").unwrap();
    e1.execute("db1", "CREATE TABLE dim (code INT, w INT)").unwrap();
    for r in 0..50 {
        e1.execute("db1", &format!("INSERT INTO dim VALUES ({r}, {})", r * 3)).unwrap();
    }
    fed.add_service("svc0", "site0", e0).unwrap();
    fed.add_service("svc1", "site1", e1).unwrap();
    fed.execute("IMPORT DATABASE db0 FROM SERVICE svc0").unwrap();
    fed.execute("IMPORT DATABASE db1 FROM SERVICE svc1").unwrap();
    fed.execute("USE db0 db1").unwrap();
    fed
}

/// A GROUP BY over a star join collapses to 10 groups whatever the fact
/// cardinality, so the pushed plan ships per-group states instead of every
/// matching row; a pure-product top-k ships at most `LIMIT` rows per site
/// instead of both tables.
#[test]
fn pushed_plans_ship_at_most_half_the_unpushed_bytes() {
    const GROUP_BY: &str = "SELECT f.g, COUNT(*), SUM(f.v), MIN(d.w)
         FROM db0.fact f, db1.dim d WHERE f.k = d.code GROUP BY f.g";
    const TOPK: &str = "SELECT f.v, d.w FROM db0.fact f, db1.dim d ORDER BY f.v DESC, d.w LIMIT 10";
    for fact_rows in [1_000, 10_000] {
        let [pushed, unpushed] = [true, false].map(|pushdown| {
            let mut fed = star_federation(fact_rows);
            fed.agg_pushdown = pushdown;
            [GROUP_BY, TOPK].map(|query| {
                fed.execute(query).unwrap(); // warm connections
                let before = lam_bytes(&fed);
                let mut rows = fed.execute(query).unwrap().into_table().unwrap().rows;
                if query == GROUP_BY {
                    // Both plans emit groups first-seen, over different rows.
                    rows.sort_by(|a, b| cmp_rows(a, b));
                }
                (rows, lam_bytes(&fed) - before)
            })
        });
        for ((query, (rows, bytes)), (unpushed_rows, unpushed_bytes)) in
            ["GROUP BY", "top-k"].into_iter().zip(pushed).zip(unpushed)
        {
            let at = format!("{query} at {fact_rows} fact rows");
            assert_eq!(rows.len(), 10, "{at}");
            assert_eq!(rows, unpushed_rows, "pushed and unpushed plans must agree: {at}");
            assert!(bytes * 2 <= unpushed_bytes, "{at}: pushed {bytes}, unpushed {unpushed_bytes}");
        }
    }
}
