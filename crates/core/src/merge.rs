//! Coordinator-free merge of pushed-down partial results (DESIGN §3a.9).
//!
//! The site queries of a [`Pushdown`] pre-reduce their data — per-group
//! partial aggregate states, or per-site top-k prefixes — and the plan's
//! global query Q′ re-aggregates them into the exact answer: it joins the
//! partials, scales and sums their states and applies the user's GROUP BY,
//! ORDER BY and LIMIT. The merge stays at the MDBS layer, so no coordinator
//! round trip is paid, but it evaluates nothing itself: the partials are
//! moved into a scratch `ldbs` database as temporaries and the local engine's
//! own SELECT evaluator runs Q′ over them. A pushed plan and a classic one
//! thus share one join, one set of aggregates, one NULL rule and one sort.

use crate::error::MdbsError;
use crate::translate::Pushdown;
use ldbs::engine::{Database, ResultSet};
use ldbs::exec::select::execute_select;
use ldbs::table::Table;

/// Merges two sites' pre-aggregated partials, aligned with `plan.sites`,
/// into the global answer.
pub fn merge_aggregate(plan: &Pushdown, parts: &[ResultSet]) -> Result<ResultSet, MdbsError> {
    merge(plan, parts.to_vec())
}

/// Merges two sites' top-k prefixes, aligned with `plan.sites`, into the
/// global top k: the evaluation [`merge_aggregate`] does, under a name of
/// its own so that a caller can time the two kinds of merge apart.
pub fn merge_topk(plan: &Pushdown, parts: &[ResultSet]) -> Result<ResultSet, MdbsError> {
    merge(plan, parts.to_vec())
}

/// Runs `plan.global` over `parts`, aligned with `plan.sites`: each moves in
/// as the temporary its site's `part_table` names. What the sites shipped is
/// remote input, so a partial that does not fit Q′ is a wire error.
pub(crate) fn merge(plan: &Pushdown, parts: Vec<ResultSet>) -> Result<ResultSet, MdbsError> {
    if parts.len() != plan.sites.len() {
        return Err(MdbsError::Wire(format!(
            "pushdown merges {} sites' partials, {} arrived",
            plan.sites.len(),
            parts.len()
        )));
    }
    let wire = |e: ldbs::DbError| MdbsError::Wire(format!("pushed partials: {e}"));
    let mut scratch = Database::new("merge");
    for (site, rs) in plan.sites.iter().zip(parts) {
        scratch.insert_table(Table::temporary(&site.part_table, rs).map_err(wire)?);
    }
    execute_select(&scratch, &plan.global).map_err(wire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::SessionScope;
    use crate::translate::{decompose, PushdownPlan};
    use crate::wire::encode_result_set;
    use catalog::{GddColumn, GddTable, GlobalDataDictionary};
    use ldbs::engine::ColumnMeta;
    use ldbs::value::{DataType, Value};
    use msql_lang::{parse_statement, QueryBody, Statement, TypeName};

    /// The pushdown `decompose` plans for `sql` over `a.t (k, g, v)` and
    /// `b.u (k, w)`.
    fn plan(sql: &str) -> Pushdown {
        let mut gdd = GlobalDataDictionary::new();
        for (db, table, columns) in [("a", "t", &["k", "g", "v"][..]), ("b", "u", &["k", "w"])] {
            gdd.register_database(db, &format!("svc_{db}")).unwrap();
            let columns = columns.iter().map(|c| GddColumn::new(*c, TypeName::Int)).collect();
            gdd.put_table(db, GddTable::new(table, columns)).unwrap();
        }
        let mut scope = SessionScope::new();
        let Ok(Statement::Use(u)) = parse_statement("USE a b") else { panic!() };
        scope.apply_use(&u).unwrap();
        let Ok(Statement::Query(q)) = parse_statement(sql) else { panic!("{sql}") };
        let QueryBody::Select(sel) = q.body else { panic!("{sql}") };
        match decompose(&sel, &scope, &gdd).unwrap().pushdown {
            Some(PushdownPlan::Aggregate(p) | PushdownPlan::TopK(p)) => p,
            None => panic!("no pushdown for {sql}"),
        }
    }

    fn rs(cols: &[&str], rows: Vec<Vec<Value>>) -> ResultSet {
        let columns =
            cols.iter().map(|n| ColumnMeta { name: n.to_string(), data_type: DataType::Int });
        ResultSet { columns: columns.collect(), rows }
    }

    fn i(v: i64) -> Value {
        Value::Int(v)
    }

    const GROUPED: &str = "SELECT t.g, COUNT(*), SUM(u.w) FROM a.t t, b.u u \
                           WHERE t.k = u.k GROUP BY t.g";
    /// What `GROUPED`'s sites ship: (join key, group key, count) and (join
    /// key, count, partial sum).
    const GROUPED_A: [&str; 3] = ["b_t_k", "b_t_g", "agg_cnt"];
    const GROUPED_B: [&str; 3] = ["b_u_k", "agg_cnt", "agg1_s"];

    #[test]
    fn aggregate_merge_scales_counts_and_sums() {
        // Site a: key 1 → group 7 (2 rows), group 8 (1 row); key 2 → 7 (1).
        let a = rs(
            &GROUPED_A,
            vec![vec![i(1), i(7), i(2)], vec![i(1), i(8), i(1)], vec![i(2), i(7), i(1)]],
        );
        // Site b: key 1 → 3 rows summing 30; key 9 matches nothing.
        let b = rs(&GROUPED_B, vec![vec![i(1), i(3), i(30)], vec![i(9), i(5), i(100)]]);
        let mut out = merge_aggregate(&plan(GROUPED), &[a, b]).unwrap();
        // key 2 joins nothing; key 1 pairs both of site a's groups with the
        // one matching site-b group: COUNT(*) = cnt_a·cnt_b, SUM = s_b·cnt_a.
        out.rows.sort_by(|x, y| x[0].total_cmp(&y[0]));
        assert_eq!(out.rows, vec![vec![i(7), i(6), i(60)], vec![i(8), i(3), i(30)]]);
        let named: Vec<_> = out.columns.iter().map(|c| (c.name.as_str(), c.data_type)).collect();
        assert_eq!(named, [("g", DataType::Int), ("count", DataType::Int), ("sum", DataType::Int)]);
    }

    #[test]
    fn aggregate_merge_skips_null_join_keys_and_defaults_grand_total() {
        let plan = plan("SELECT COUNT(*), SUM(u.w) FROM a.t t, b.u u WHERE t.k = u.k");
        // NULL join keys never match anything, so the join is empty — but a
        // grand total still yields one row, with COUNT 0 and SUM NULL.
        let a = rs(&["b_t_k", "agg_cnt"], vec![vec![Value::Null, i(4)]]);
        let b = rs(&["b_u_k", "agg_cnt", "agg1_s"], vec![vec![Value::Null, i(2), i(10)]]);
        let out = merge_aggregate(&plan, &[a, b]).unwrap();
        assert_eq!(out.rows, vec![vec![i(0), Value::Null]]);
        // Nor does an empty group on a site without GROUP BY, which stands
        // for no rows.
        let plan = plan_product();
        let a = rs(&["b_t_g", "agg_cnt"], vec![vec![i(7), i(2)], vec![i(8), i(1)]]);
        let b = rs(&["agg_cnt", "agg1_s"], vec![vec![i(0), Value::Null]]);
        assert_eq!(merge_aggregate(&plan, &[a, b]).unwrap().rows, Vec::<Vec<Value>>::new());
    }

    /// A pure-product GROUP BY: site b has neither join nor group keys.
    fn plan_product() -> Pushdown {
        plan("SELECT t.g, COUNT(*), SUM(u.w) FROM a.t t, b.u u GROUP BY t.g")
    }

    #[test]
    fn aggregate_merge_ignores_null_partial_sums() {
        let plan = plan("SELECT SUM(u.w) FROM a.t t, b.u u WHERE t.k = u.k");
        let a = rs(&["b_t_k", "agg_cnt"], vec![vec![i(1), i(2)]]);
        // One matching group whose SUM partial is NULL (all-NULL column).
        let b = rs(&["b_u_k", "agg_cnt", "agg0_s"], vec![vec![i(1), i(3), Value::Null]]);
        let out = merge_aggregate(&plan, &[a, b]).unwrap();
        assert_eq!(out.rows, vec![vec![Value::Null]]);
    }

    /// What sites ship is remote input: a wrong part count, a missing
    /// partial-state column or a value of the wrong type is an error naming
    /// what is wrong, never a panic.
    #[test]
    fn malformed_parts_are_errors_not_panics() {
        let plan = plan(GROUPED);
        let a = rs(&GROUPED_A, vec![vec![i(1), i(7), i(2)]]);
        let b = rs(&GROUPED_B, vec![vec![i(1), i(3), i(30)]]);
        for parts in [vec![a.clone()], vec![a.clone(), b.clone(), b.clone()]] {
            let err = merge_aggregate(&plan, &parts).unwrap_err();
            assert!(matches!(&err, MdbsError::Wire(m) if m.contains("2 sites")), "{err}");
            let err = merge_topk(&topk_plan(3), &parts).unwrap_err();
            assert!(matches!(&err, MdbsError::Wire(m) if m.contains("2 sites")), "{err}");
        }
        // Site b did not ship the SUM state column Q′ reads.
        let short = rs(&GROUPED_B[..2], vec![vec![i(1), i(3)]]);
        let err = merge_aggregate(&plan, &[a.clone(), short]).unwrap_err();
        assert!(matches!(&err, MdbsError::Wire(m) if m.contains("agg1_s")), "{err}");
        // A count that is no number.
        let text = rs(&GROUPED_B, vec![vec![i(1), Value::Str("three".into()), i(30)]]);
        let err = merge_aggregate(&plan, &[a, text]).unwrap_err();
        assert!(matches!(&err, MdbsError::Wire(m) if m.contains("three")), "{err}");
    }

    fn topk_plan(limit: u64) -> Pushdown {
        plan(&format!("SELECT t.v, u.w FROM a.t t, b.u u ORDER BY t.v, u.w DESC LIMIT {limit}"))
    }

    fn topk_parts() -> [ResultSet; 2] {
        [
            rs(&["b_t_v"], vec![vec![i(1)], vec![i(1)], vec![i(2)]]),
            rs(&["b_u_w"], vec![vec![i(10)], vec![i(20)]]),
        ]
    }

    #[test]
    fn topk_merge_orders_ties_across_sites_deterministically() {
        // Two site-a rows tie on v=1; the secondary DESC key and the (i, j)
        // enumeration order pin one total order.
        let out = merge_topk(&topk_plan(4), &topk_parts()).unwrap();
        assert_eq!(
            out.rows,
            vec![vec![i(1), i(20)], vec![i(1), i(20)], vec![i(1), i(10)], vec![i(1), i(10)],]
        );
    }

    #[test]
    fn topk_merge_limit_zero_is_empty() {
        let out = merge_topk(&topk_plan(0), &topk_parts()).unwrap();
        assert!(out.rows.is_empty());
        let named: Vec<_> = out.columns.iter().map(|c| (c.name.as_str(), c.data_type)).collect();
        assert_eq!(named, [("v", DataType::Int), ("w", DataType::Int)], "meta survives");
    }

    #[test]
    fn topk_merge_limit_beyond_total_returns_everything() {
        let out = merge_topk(&topk_plan(100), &topk_parts()).unwrap();
        assert_eq!(out.rows.len(), 6);
    }

    #[test]
    fn topk_merge_sorts_nulls_first() {
        let a = rs(&["b_t_v"], vec![vec![i(5)], vec![Value::Null]]);
        let b = rs(&["b_u_w"], vec![vec![i(1)]]);
        let out = merge_topk(&topk_plan(10), &[a, b]).unwrap();
        // NULL sorts before every value under ASC, as the engine's ORDER BY
        // puts it.
        assert_eq!(out.rows, vec![vec![Value::Null, i(1)], vec![i(5), i(1)]]);
    }

    #[test]
    fn merges_are_byte_identical_across_runs() {
        let plan3 = topk_plan(3);
        let once = encode_result_set(&merge_topk(&plan3, &topk_parts()).unwrap());
        assert_eq!(once, encode_result_set(&merge_topk(&plan3, &topk_parts()).unwrap()));

        let plan = plan(GROUPED);
        let a = rs(&GROUPED_A, vec![vec![i(1), i(7), i(2)], vec![i(1), i(8), i(1)]]);
        let b = rs(&GROUPED_B, vec![vec![i(1), i(3), i(30)]]);
        let parts = [a, b];
        let once = encode_result_set(&merge_aggregate(&plan, &parts).unwrap());
        assert_eq!(once, encode_result_set(&merge_aggregate(&plan, &parts).unwrap()));
    }
}
