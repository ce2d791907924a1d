//! Coordinator-free merge of pushed-down partial results.
//!
//! The site queries of a [`PushdownPlan`] pre-reduce their data — per-group
//! partial aggregate states, or per-site top-k prefixes — and this module
//! reassembles the exact global answer at the MDBS layer, replacing the
//! classic collect-at-a-coordinator phase:
//!
//! * [`merge_aggregate`] hash-joins the sites' groups on their join-key
//!   values and combines decomposable states (Yan-Larson eager aggregation):
//!   counts and sums scale by the other side's group cardinality, min/max
//!   fold, and AVG stays an exact (sum, count) pair until the end.
//! * [`merge_topk`] forms the ≤ k×k candidate pairings of the sites' top-k
//!   prefixes, sorts them by the global ORDER BY and keeps the top k.
//!
//! Both merges are deterministic: groups emit in total-order sorted key
//! sequence and the top-k sort is stable over a deterministic enumeration,
//! so double runs are byte-identical.

use std::cmp::Ordering;
use std::collections::HashMap;

use crate::error::MdbsError;
use crate::translate::{AggKind, AggOutput, AggPushdown, AggState, TopKPushdown};
use ldbs::engine::{ColumnMeta, ResultSet};
use ldbs::value::{CanonicalKey, DataType, Value};
use msql_lang::SortOrder;

/// A group-key tuple ordered by [`Value::total_cmp`], so `BTreeMap` emission
/// is the deterministic NULLs-first total order ldbs sorting uses.
#[derive(Debug, Clone)]
struct KeyTuple(Vec<Value>);

impl PartialEq for KeyTuple {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for KeyTuple {}
impl PartialOrd for KeyTuple {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for KeyTuple {
    fn cmp(&self, other: &Self) -> Ordering {
        for (a, b) in self.0.iter().zip(&other.0) {
            match a.total_cmp(b) {
                Ordering::Equal => {}
                ord => return ord,
            }
        }
        self.0.len().cmp(&other.0.len())
    }
}

/// Running state of one merged group: one accumulator per plan aggregate.
struct GroupAcc {
    counts: Vec<i64>,
    sums: Vec<Value>,
    saw_sum: Vec<bool>,
    extremes: Vec<Option<Value>>,
}

impl GroupAcc {
    fn new(n: usize) -> GroupAcc {
        GroupAcc {
            counts: vec![0; n],
            sums: vec![Value::Int(0); n],
            saw_sum: vec![false; n],
            extremes: vec![None; n],
        }
    }
}

/// Index of a shipped column in `site`'s partial (`site` indexes the plan's
/// sites).
fn column_index(rs: &ResultSet, col: &str, what: &str, site: usize) -> Result<usize, MdbsError> {
    rs.column_index(col).ok_or_else(|| {
        MdbsError::Wire(format!("pushed {what} partial of site {site} lacks column `{col}`"))
    })
}

/// The partial-state column an aggregate of `a`'s kind reads; a plan that
/// did not ship one is broken.
fn state_col(col: Option<usize>, a: &AggState, what: &str) -> Result<usize, MdbsError> {
    col.ok_or_else(|| {
        MdbsError::Internal(format!(
            "aggregate pushdown plan ships no {what} column for {:?} at site {}",
            a.kind, a.site
        ))
    })
}

/// Both merges are planned for exactly two sites, and what the sites shipped
/// must line up with the plan.
fn two_sites(what: &str, planned: usize, shipped: usize) -> Result<(), MdbsError> {
    if planned != 2 {
        return Err(MdbsError::Internal(format!(
            "{what} pushdown merges two sites, the plan has {planned}"
        )));
    }
    if shipped != 2 {
        return Err(MdbsError::Wire(format!(
            "{what} pushdown merges two sites' partials, {shipped} arrived"
        )));
    }
    Ok(())
}

fn site_part(parts: &[ResultSet], site: usize) -> Result<&ResultSet, MdbsError> {
    parts
        .get(site)
        .ok_or_else(|| MdbsError::Internal(format!("pushdown plan names site {site}, two shipped")))
}

fn int_value(v: &Value, what: &str) -> Result<i64, MdbsError> {
    match v {
        Value::Int(n) => Ok(*n),
        other => {
            Err(MdbsError::Wire(format!("pushed partial {what} is not an integer: {other:?}")))
        }
    }
}

/// One site's partial, re-indexed for the merge: per-row join-key values and
/// the rows bucketed by their canonical join key. Rows whose join key has a
/// NULL (or NaN) component are dropped — SQL equality never matches them.
struct SiteIndex {
    join_idx: Vec<usize>,
    buckets: HashMap<Vec<CanonicalKey>, Vec<usize>>,
}

fn index_site(rs: &ResultSet, join_cols: &[String], site: usize) -> Result<SiteIndex, MdbsError> {
    let join_idx = join_cols
        .iter()
        .map(|c| column_index(rs, c, "aggregate", site))
        .collect::<Result<Vec<_>, _>>()?;
    let mut buckets: HashMap<Vec<CanonicalKey>, Vec<usize>> = HashMap::new();
    'rows: for (ri, row) in rs.rows.iter().enumerate() {
        let mut key = Vec::with_capacity(join_idx.len());
        for &ci in &join_idx {
            match row[ci].canonical_key() {
                Some(k) => key.push(k),
                None => continue 'rows,
            }
        }
        buckets.entry(key).or_default().push(ri);
    }
    Ok(SiteIndex { join_idx, buckets })
}

/// Merges two sites' pre-aggregated partials into the global result set.
/// `parts` is aligned with `plan.sites`.
pub fn merge_aggregate(plan: &AggPushdown, parts: &[ResultSet]) -> Result<ResultSet, MdbsError> {
    two_sites("aggregate", plan.sites.len(), parts.len())?;

    // Resolve every shipped column the merge reads.
    let cnt_idx: Vec<usize> = plan
        .sites
        .iter()
        .zip(parts)
        .enumerate()
        .map(|(si, (s, rs))| column_index(rs, &s.count_col, "aggregate", si))
        .collect::<Result<_, _>>()?;
    // slot → (site, column index) for the group keys.
    let mut slot_src: Vec<Option<(usize, usize)>> = vec![None; plan.slots];
    for (si, (site, rs)) in plan.sites.iter().zip(parts).enumerate() {
        for (slot, alias) in &site.key_cols {
            slot_src[*slot] = Some((si, column_index(rs, alias, "aggregate", si)?));
        }
    }
    let slot_src: Vec<(usize, usize)> = slot_src
        .into_iter()
        .collect::<Option<_>>()
        .ok_or_else(|| MdbsError::Wire("aggregate pushdown plan lost a group key".to_string()))?;
    // Per aggregate: indices of its partial-state columns at its owner site.
    let mut agg_cols: Vec<(Option<usize>, Option<usize>)> = Vec::with_capacity(plan.aggs.len());
    for a in &plan.aggs {
        let rs = site_part(parts, a.site)?;
        let index = |col: &Option<String>| {
            col.as_deref().map(|c| column_index(rs, c, "aggregate", a.site)).transpose()
        };
        agg_cols.push((index(&a.value_col)?, index(&a.count_col)?));
    }

    let left = index_site(&parts[0], &plan.sites[0].join_cols, 0)?;
    let right = index_site(&parts[1], &plan.sites[1].join_cols, 1)?;

    let mut groups: std::collections::BTreeMap<KeyTuple, GroupAcc> =
        std::collections::BTreeMap::new();
    for (key, lrows) in &left.buckets {
        let Some(rrows) = right.buckets.get(key) else { continue };
        for &li in lrows {
            let lrow = &parts[0].rows[li];
            for &rj in rrows {
                let rrow = &parts[1].rows[rj];
                // The canonical key already agrees with SQL equality; this
                // recheck guards the one place they could drift (distinct
                // huge integers folding to the same f64).
                let equal = left
                    .join_idx
                    .iter()
                    .zip(&right.join_idx)
                    .all(|(&lc, &rc)| lrow[lc].sql_cmp(&rrow[rc]) == Some(Ordering::Equal));
                if !equal {
                    continue;
                }
                let row_of = |site: usize| if site == 0 { lrow } else { rrow };
                let cnt = [
                    int_value(&lrow[cnt_idx[0]], "group count")?,
                    int_value(&rrow[cnt_idx[1]], "group count")?,
                ];
                // A site query with no GROUP BY of its own (no join keys, no
                // own group keys) answers an empty table with one all-default
                // state row, `COUNT(*) = 0`. That row stands for no rows, so
                // it joins with nothing — it must not create a group.
                if cnt[0] == 0 || cnt[1] == 0 {
                    continue;
                }
                let gkey =
                    KeyTuple(slot_src.iter().map(|&(si, ci)| row_of(si)[ci].clone()).collect());
                let acc = groups.entry(gkey).or_insert_with(|| GroupAcc::new(plan.aggs.len()));
                for (ai, (a, &(vi, qi))) in plan.aggs.iter().zip(&agg_cols).enumerate() {
                    let other = cnt[1 - a.site];
                    match a.kind {
                        AggKind::CountStar => acc.counts[ai] += cnt[0] * cnt[1],
                        AggKind::Count => {
                            let qi = state_col(qi, a, "count")?;
                            let c = int_value(&row_of(a.site)[qi], "partial count")?;
                            acc.counts[ai] += c * other;
                        }
                        AggKind::Sum | AggKind::Avg => {
                            let v = &row_of(a.site)[state_col(vi, a, "value")?];
                            if !v.is_null() {
                                // This group's rows appear `other` times in
                                // the join, so its partial sum scales.
                                acc.sums[ai] = v
                                    .mul(&Value::Int(other))
                                    .and_then(|scaled| acc.sums[ai].add(&scaled))
                                    .map_err(|e| {
                                        MdbsError::Wire(format!("pushed partial sum: {e}"))
                                    })?;
                                acc.saw_sum[ai] = true;
                            }
                            if a.kind == AggKind::Avg {
                                let qi = state_col(qi, a, "count")?;
                                let c = int_value(&row_of(a.site)[qi], "partial count")?;
                                acc.counts[ai] += c * other;
                            }
                        }
                        AggKind::Min => {
                            let v = &row_of(a.site)[state_col(vi, a, "value")?];
                            if !v.is_null() {
                                acc.extremes[ai] = Some(match acc.extremes[ai].take() {
                                    Some(cur) => {
                                        if v.total_cmp(&cur) == Ordering::Less {
                                            v.clone()
                                        } else {
                                            cur
                                        }
                                    }
                                    None => v.clone(),
                                });
                            }
                        }
                        AggKind::Max => {
                            let v = &row_of(a.site)[state_col(vi, a, "value")?];
                            if !v.is_null() {
                                acc.extremes[ai] = Some(match acc.extremes[ai].take() {
                                    Some(cur) => {
                                        if v.total_cmp(&cur) == Ordering::Greater {
                                            v.clone()
                                        } else {
                                            cur
                                        }
                                    }
                                    None => v.clone(),
                                });
                            }
                        }
                    }
                }
            }
        }
    }

    // Output column metadata mirrors what the unpushed global query yields.
    let mut columns = Vec::with_capacity(plan.output.len());
    for out in &plan.output {
        let (name, data_type) = match out {
            AggOutput::Key { slot, name } => {
                let (si, ci) = slot_src[*slot];
                (name.clone(), parts[si].columns[ci].data_type)
            }
            AggOutput::Agg { agg, name } => {
                let a = &plan.aggs[*agg];
                let dt = match a.kind {
                    AggKind::CountStar | AggKind::Count => DataType::Int,
                    AggKind::Avg => DataType::Float,
                    AggKind::Sum | AggKind::Min | AggKind::Max => {
                        let (vi, _) = agg_cols[*agg];
                        parts[a.site].columns[state_col(vi, a, "value")?].data_type
                    }
                };
                (name.clone(), dt)
            }
        };
        columns.push(ColumnMeta { name, data_type });
    }

    let emit = |key: &KeyTuple, acc: &GroupAcc| -> Vec<Value> {
        plan.output
            .iter()
            .map(|out| match out {
                AggOutput::Key { slot, .. } => key.0[*slot].clone(),
                AggOutput::Agg { agg, .. } => {
                    let a = &plan.aggs[*agg];
                    match a.kind {
                        AggKind::CountStar | AggKind::Count => Value::Int(acc.counts[*agg]),
                        AggKind::Sum => {
                            if acc.saw_sum[*agg] {
                                acc.sums[*agg].clone()
                            } else {
                                Value::Null
                            }
                        }
                        AggKind::Avg => {
                            if acc.saw_sum[*agg] && acc.counts[*agg] > 0 {
                                acc.sums[*agg]
                                    .div(&Value::Int(acc.counts[*agg]))
                                    .unwrap_or(Value::Null)
                            } else {
                                Value::Null
                            }
                        }
                        AggKind::Min | AggKind::Max => {
                            acc.extremes[*agg].clone().unwrap_or(Value::Null)
                        }
                    }
                }
            })
            .collect()
    };

    let mut rows: Vec<Vec<Value>> = groups.iter().map(|(k, acc)| emit(k, acc)).collect();
    // A grand total (no GROUP BY) over an empty join still yields one row,
    // exactly as the engine's aggregate path does.
    if rows.is_empty() && plan.slots == 0 {
        let empty = GroupAcc::new(plan.aggs.len());
        rows.push(emit(&KeyTuple(Vec::new()), &empty));
    }
    sort_output(&mut rows, &plan.order_by);
    if let Some(n) = plan.limit {
        rows.truncate(n as usize);
    }
    Ok(ResultSet { columns, rows })
}

/// Stable sort of merged output rows by `(output index, direction)` keys,
/// using the same NULLs-first total order the engine's ORDER BY uses.
fn sort_output(rows: &mut [Vec<Value>], order_by: &[(usize, SortOrder)]) {
    if order_by.is_empty() {
        return;
    }
    rows.sort_by(|a, b| {
        for (idx, order) in order_by {
            let ord = a[*idx].total_cmp(&b[*idx]);
            let ord = match order {
                SortOrder::Asc => ord,
                SortOrder::Desc => ord.reverse(),
            };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
}

/// Merges two sites' top-k prefixes into the global top k. `parts` is
/// aligned with `plan.sites`.
pub fn merge_topk(plan: &TopKPushdown, parts: &[ResultSet]) -> Result<ResultSet, MdbsError> {
    two_sites("top-k", plan.sites.len(), parts.len())?;
    let out_idx: Vec<(usize, usize)> = plan
        .output
        .iter()
        .map(|(si, col, _)| Ok((*si, column_index(site_part(parts, *si)?, col, "top-k", *si)?)))
        .collect::<Result<_, MdbsError>>()?;
    let ord_idx: Vec<(usize, usize, SortOrder)> = plan
        .order_by
        .iter()
        .map(|o| {
            Ok((o.site, column_index(site_part(parts, o.site)?, &o.col, "top-k", o.site)?, o.order))
        })
        .collect::<Result<_, MdbsError>>()?;

    // Candidate pairings in deterministic (i, j) enumeration order; the
    // stable sort then yields one total order for every run.
    let mut cand: Vec<(usize, usize)> = Vec::new();
    for i in 0..parts[0].rows.len() {
        for j in 0..parts[1].rows.len() {
            cand.push((i, j));
        }
    }
    let value_at = |(i, j): (usize, usize), si: usize, ci: usize| -> &Value {
        if si == 0 {
            &parts[0].rows[i][ci]
        } else {
            &parts[1].rows[j][ci]
        }
    };
    cand.sort_by(|&a, &b| {
        for &(si, ci, order) in &ord_idx {
            let ord = value_at(a, si, ci).total_cmp(value_at(b, si, ci));
            let ord = match order {
                SortOrder::Asc => ord,
                SortOrder::Desc => ord.reverse(),
            };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    cand.truncate(plan.limit as usize);

    let columns = plan
        .output
        .iter()
        .zip(&out_idx)
        .map(|((_, _, name), &(si, ci))| ColumnMeta {
            name: name.clone(),
            data_type: parts[si].columns[ci].data_type,
        })
        .collect();
    let rows = cand
        .into_iter()
        .map(|pair| out_idx.iter().map(|&(si, ci)| value_at(pair, si, ci).clone()).collect())
        .collect();
    Ok(ResultSet { columns, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::{AggSite, AggState, TopKOrder, TopKSite};
    use crate::wire::encode_result_set;
    use msql_lang::Select;

    fn rs(cols: &[(&str, DataType)], rows: Vec<Vec<Value>>) -> ResultSet {
        ResultSet {
            columns: cols
                .iter()
                .map(|(n, t)| ColumnMeta { name: n.to_string(), data_type: *t })
                .collect(),
            rows,
        }
    }

    fn i(v: i64) -> Value {
        Value::Int(v)
    }
    fn s(v: &str) -> Value {
        Value::Str(v.to_string())
    }

    /// `SELECT g, COUNT(*), SUM(y) … GROUP BY g` with a join key on each
    /// side: site 0 ships (k, g, cnt), site 1 ships (k, cnt, sum y).
    fn agg_plan() -> AggPushdown {
        let dummy = Select::new();
        AggPushdown {
            sites: vec![
                AggSite {
                    select: dummy.clone(),
                    join_cols: vec!["b_a_k".into()],
                    key_cols: vec![(0, "b_a_g".into())],
                    count_col: "agg_cnt".into(),
                },
                AggSite {
                    select: dummy,
                    join_cols: vec!["b_b_k".into()],
                    key_cols: vec![],
                    count_col: "agg_cnt".into(),
                },
            ],
            slots: 1,
            aggs: vec![
                AggState { kind: AggKind::CountStar, site: 0, value_col: None, count_col: None },
                AggState {
                    kind: AggKind::Sum,
                    site: 1,
                    value_col: Some("agg1_s".into()),
                    count_col: None,
                },
            ],
            output: vec![
                AggOutput::Key { slot: 0, name: "g".into() },
                AggOutput::Agg { agg: 0, name: "count".into() },
                AggOutput::Agg { agg: 1, name: "sum".into() },
            ],
            order_by: vec![],
            limit: None,
        }
    }

    fn agg_cols0() -> Vec<(&'static str, DataType)> {
        vec![("b_a_k", DataType::Int), ("b_a_g", DataType::Char(0)), ("agg_cnt", DataType::Int)]
    }
    fn agg_cols1() -> Vec<(&'static str, DataType)> {
        vec![("b_b_k", DataType::Int), ("agg_cnt", DataType::Int), ("agg1_s", DataType::Int)]
    }

    #[test]
    fn aggregate_merge_scales_counts_and_sums() {
        let plan = agg_plan();
        // Site 0: key 1 → group x (2 rows), group y (1 row); key 2 → x (1).
        let a = rs(
            &agg_cols0(),
            vec![vec![i(1), s("x"), i(2)], vec![i(1), s("y"), i(1)], vec![i(2), s("x"), i(1)]],
        );
        // Site 1: key 1 → 3 rows summing 30; key 9 matches nothing.
        let b = rs(&agg_cols1(), vec![vec![i(1), i(3), i(30)], vec![i(9), i(5), i(100)]]);
        let out = merge_aggregate(&plan, &[a, b]).unwrap();
        // key 2 joins nothing; key 1 pairs both of site 0's groups with the
        // one matching site-1 group: COUNT(*) = cnt_a·cnt_b, SUM = s_b·cnt_a.
        assert_eq!(
            out.rows,
            vec![vec![s("x"), i(6), i(60)], vec![s("y"), i(3), i(30)]],
            "groups emit in sorted key order"
        );
    }

    #[test]
    fn aggregate_merge_skips_null_join_keys_and_defaults_grand_total() {
        let mut plan = agg_plan();
        plan.sites[0].key_cols.clear();
        plan.slots = 0;
        plan.output = vec![
            AggOutput::Agg { agg: 0, name: "count".into() },
            AggOutput::Agg { agg: 1, name: "sum".into() },
        ];
        // NULL join keys never match anything, so the join is empty — but a
        // grand total still yields one row, with COUNT 0 and SUM NULL.
        let a = rs(&agg_cols0(), vec![vec![Value::Null, s("x"), i(4)]]);
        let b = rs(&agg_cols1(), vec![vec![Value::Null, i(2), i(10)]]);
        let out = merge_aggregate(&plan, &[a, b]).unwrap();
        assert_eq!(out.rows, vec![vec![i(0), Value::Null]]);
    }

    #[test]
    fn aggregate_merge_ignores_null_partial_sums() {
        let mut plan = agg_plan();
        plan.sites[0].key_cols.clear();
        plan.slots = 0;
        plan.output = vec![AggOutput::Agg { agg: 1, name: "sum".into() }];
        let a = rs(&agg_cols0(), vec![vec![i(1), s("x"), i(2)]]);
        // One matching group whose SUM partial is NULL (all-NULL column).
        let b = rs(&agg_cols1(), vec![vec![i(1), i(3), Value::Null]]);
        let out = merge_aggregate(&plan, &[a, b]).unwrap();
        assert_eq!(out.rows, vec![vec![Value::Null]]);
    }

    /// What sites ship is remote input: a wrong part count, a missing
    /// partial-state column or a plan that names no such column is an error
    /// naming the site and column, never a panic.
    #[test]
    fn malformed_parts_are_errors_not_panics() {
        let plan = agg_plan();
        let a = rs(&agg_cols0(), vec![vec![i(1), s("x"), i(2)]]);
        let b = rs(&agg_cols1(), vec![vec![i(1), i(3), i(30)]]);
        for parts in [vec![a.clone()], vec![a.clone(), b.clone(), b.clone()]] {
            let err = merge_aggregate(&plan, &parts).unwrap_err();
            assert!(matches!(&err, MdbsError::Wire(m) if m.contains("two sites")), "{err}");
        }
        let (x, y) = topk_parts();
        for parts in [vec![x.clone()], vec![x.clone(), y.clone(), y]] {
            let err = merge_topk(&topk_plan(3), &parts).unwrap_err();
            assert!(matches!(&err, MdbsError::Wire(m) if m.contains("two sites")), "{err}");
        }
        // Site 1 did not ship the SUM state column the plan reads.
        let short = rs(&agg_cols1()[..2], vec![vec![i(1), i(3)]]);
        let err = merge_aggregate(&plan, &[a.clone(), short]).unwrap_err();
        assert!(
            matches!(&err, MdbsError::Wire(m) if m.contains("site 1") && m.contains("`agg1_s`")),
            "{err}"
        );
        // A plan whose SUM names no value column is broken, not fatal.
        let mut broken = agg_plan();
        broken.aggs[1].value_col = None;
        let err = merge_aggregate(&broken, &[a, b]).unwrap_err();
        assert!(matches!(&err, MdbsError::Internal(m) if m.contains("site 1")), "{err}");
    }

    fn topk_plan(limit: u64) -> TopKPushdown {
        let dummy = Select::new();
        TopKPushdown {
            sites: vec![TopKSite { select: dummy.clone() }, TopKSite { select: dummy }],
            output: vec![(0, "b_a_x".into(), "x".into()), (1, "b_b_y".into(), "y".into())],
            order_by: vec![
                TopKOrder { site: 0, col: "b_a_x".into(), order: SortOrder::Asc },
                TopKOrder { site: 1, col: "b_b_y".into(), order: SortOrder::Desc },
            ],
            limit,
        }
    }

    fn topk_parts() -> (ResultSet, ResultSet) {
        (
            rs(&[("b_a_x", DataType::Int)], vec![vec![i(1)], vec![i(1)], vec![i(2)]]),
            rs(&[("b_b_y", DataType::Int)], vec![vec![i(10)], vec![i(20)]]),
        )
    }

    #[test]
    fn topk_merge_orders_ties_across_sites_deterministically() {
        // Two site-0 rows tie on x=1; the secondary DESC key and the stable
        // (i, j) enumeration pin one total order.
        let (a, b) = topk_parts();
        let out = merge_topk(&topk_plan(4), &[a, b]).unwrap();
        assert_eq!(
            out.rows,
            vec![vec![i(1), i(20)], vec![i(1), i(20)], vec![i(1), i(10)], vec![i(1), i(10)],]
        );
    }

    #[test]
    fn topk_merge_limit_zero_is_empty() {
        let (a, b) = topk_parts();
        let out = merge_topk(&topk_plan(0), &[a, b]).unwrap();
        assert!(out.rows.is_empty());
        assert_eq!(out.columns.len(), 2, "column meta survives an empty result");
    }

    #[test]
    fn topk_merge_limit_beyond_total_returns_everything() {
        let (a, b) = topk_parts();
        let out = merge_topk(&topk_plan(100), &[a, b]).unwrap();
        assert_eq!(out.rows.len(), 6);
    }

    #[test]
    fn topk_merge_sorts_nulls_first() {
        let a = rs(&[("b_a_x", DataType::Int)], vec![vec![i(5)], vec![Value::Null]]);
        let b = rs(&[("b_b_y", DataType::Int)], vec![vec![i(1)]]);
        let out = merge_topk(&topk_plan(10), &[a, b]).unwrap();
        // total_cmp puts NULL before every value under ASC, like the local
        // engine's ORDER BY.
        assert_eq!(out.rows, vec![vec![Value::Null, i(1)], vec![i(5), i(1)]]);
    }

    #[test]
    fn merges_are_byte_identical_across_runs() {
        let (a, b) = topk_parts();
        let once = encode_result_set(&merge_topk(&topk_plan(3), &[a.clone(), b.clone()]).unwrap());
        let twice = encode_result_set(&merge_topk(&topk_plan(3), &[a, b]).unwrap());
        assert_eq!(once, twice);

        let plan = agg_plan();
        let a = rs(&agg_cols0(), vec![vec![i(1), s("x"), i(2)], vec![i(1), s("y"), i(1)]]);
        let b = rs(&agg_cols1(), vec![vec![i(1), i(3), i(30)]]);
        let once = encode_result_set(&merge_aggregate(&plan, &[a.clone(), b.clone()]).unwrap());
        let twice = encode_result_set(&merge_aggregate(&plan, &[a, b]).unwrap());
        assert_eq!(once, twice);
    }
}
