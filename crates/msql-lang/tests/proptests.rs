//! Property tests for the MSQL language layer.
//!
//! * the iterative `%` wildcard matcher agrees with an exponential reference
//!   implementation;
//! * printing any generated expression/statement and reparsing the output
//!   yields an identical AST (print → parse roundtrip);
//! * every walk of the tree visits in printing order: the columns
//!   `walk_columns` hands out appear in `print` output in the same order, and
//!   `for_each_child_mut` hands out the children `for_each_child` does.

use msql_lang::ident::wild_match_reference;
use msql_lang::printer::{print, print_expr};
use msql_lang::*;
use proptest::prelude::*;

// ---------------------------------------------------------------- wildcards

fn pattern_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            3 => prop::sample::select(vec!["a", "b", "c", "d"]),
            1 => Just("%"),
        ],
        0..8,
    )
    .prop_map(|parts| parts.concat())
}

fn text_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(prop::sample::select(vec!["a", "b", "c", "d"]), 0..10)
        .prop_map(|parts| parts.concat())
}

proptest! {
    #[test]
    fn wildcard_matcher_agrees_with_reference(p in pattern_strategy(), t in text_strategy()) {
        let fast = WildName::new(p.clone()).matches(&t);
        let slow = wild_match_reference(&p, &t);
        prop_assert_eq!(fast, slow, "pattern={} text={}", p, t);
    }

    #[test]
    fn wildcard_always_matches_own_expansion(
        prefix in text_strategy(),
        middle in text_strategy(),
        suffix in text_strategy(),
    ) {
        // For pattern `prefix%suffix`, any `prefix ++ middle ++ suffix` matches.
        let pattern = format!("{prefix}%{suffix}");
        let text = format!("{prefix}{middle}{suffix}");
        prop_assert!(WildName::new(pattern).matches(&text));
    }
}

// ------------------------------------------------------------- AST roundtrip

fn ident_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,6}".prop_filter("avoid keywords", |s| {
        !matches!(
            s.as_str(),
            "select"
                | "from"
                | "where"
                | "group"
                | "having"
                | "order"
                | "and"
                | "or"
                | "not"
                | "in"
                | "between"
                | "like"
                | "is"
                | "null"
                | "true"
                | "false"
                | "exists"
                | "use"
                | "let"
                | "be"
                | "comp"
                | "begin"
                | "end"
                | "commit"
                | "rollback"
                | "create"
                | "drop"
                | "insert"
                | "update"
                | "delete"
                | "set"
                | "values"
                | "into"
                | "as"
                | "by"
                | "distinct"
                | "all"
                | "asc"
                | "desc"
                | "vital"
                | "min"
                | "max"
                | "sum"
                | "avg"
                | "count"
                | "import"
                | "database"
                | "table"
                | "union"
                | "current"
                | "service"
                | "site"
                | "view"
                | "column"
                | "on"
                | "limit"
        )
    })
}

fn wildident_strategy() -> impl Strategy<Value = String> {
    (ident_strategy(), prop::bool::ANY, prop::bool::ANY).prop_map(|(base, pre, post)| {
        let mut s = String::new();
        if pre {
            s.push('%');
        }
        s.push_str(&base);
        if post {
            s.push('%');
        }
        s
    })
}

fn literal_strategy() -> impl Strategy<Value = Literal> {
    prop_oneof![
        Just(Literal::Null),
        (0i64..10_000).prop_map(Literal::Int),
        (0u32..100_000).prop_map(|v| Literal::Float(v as f64 / 100.0)),
        "[a-zA-Z '0-9]{0,12}".prop_map(Literal::Str),
        prop::bool::ANY.prop_map(Literal::Bool),
    ]
}

fn column_strategy() -> impl Strategy<Value = ColumnRef> {
    (prop::option::of(ident_strategy()), prop::option::of(ident_strategy()), wildident_strategy())
        .prop_map(|(db, table, col)| match (db, table) {
            (Some(d), Some(t)) => ColumnRef::full(d, t, col),
            (_, Some(t)) => ColumnRef::with_table(t, col),
            _ => ColumnRef::bare(col),
        })
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        4 => literal_strategy().prop_map(Expr::Literal),
        4 => column_strategy().prop_map(Expr::Column),
        1 => Just(Expr::Aggregate { kind: AggregateKind::Count, arg: None, distinct: false }),
    ];
    leaf.prop_recursive(4, 48, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), any::<u8>()).prop_map(|(l, r, sel)| {
                let op = match sel % 13 {
                    0 => BinaryOp::Or,
                    1 => BinaryOp::And,
                    2 => BinaryOp::Eq,
                    3 => BinaryOp::NotEq,
                    4 => BinaryOp::Lt,
                    5 => BinaryOp::LtEq,
                    6 => BinaryOp::Gt,
                    7 => BinaryOp::GtEq,
                    8 => BinaryOp::Add,
                    9 => BinaryOp::Sub,
                    10 => BinaryOp::Mul,
                    11 => BinaryOp::Div,
                    _ => BinaryOp::Concat,
                };
                Expr::Binary { left: Box::new(l), op, right: Box::new(r) }
            }),
            inner.clone().prop_map(|e| Expr::Unary { op: UnaryOp::Not, expr: Box::new(e) }),
            inner.clone().prop_map(|e| Expr::Unary { op: UnaryOp::Neg, expr: Box::new(e) }),
            (inner.clone(), prop::bool::ANY)
                .prop_map(|(e, n)| Expr::IsNull { expr: Box::new(e), negated: n }),
            (inner.clone(), inner.clone(), inner.clone(), prop::bool::ANY).prop_map(
                |(e, lo, hi, n)| Expr::Between {
                    expr: Box::new(e),
                    low: Box::new(lo),
                    high: Box::new(hi),
                    negated: n,
                }
            ),
            (inner.clone(), inner.clone(), prop::bool::ANY).prop_map(|(e, p, n)| Expr::Like {
                expr: Box::new(e),
                pattern: Box::new(p),
                negated: n,
            }),
            (inner.clone(), proptest::collection::vec(inner.clone(), 1..3), prop::bool::ANY)
                .prop_map(|(e, list, n)| Expr::InList { expr: Box::new(e), list, negated: n }),
            (ident_strategy(), proptest::collection::vec(inner.clone(), 0..3))
                .prop_map(|(name, args)| Expr::Function { name, args }),
            (inner, any::<u8>(), prop::bool::ANY).prop_map(|(e, k, d)| {
                let kind = match k % 5 {
                    0 => AggregateKind::Count,
                    1 => AggregateKind::Sum,
                    2 => AggregateKind::Avg,
                    3 => AggregateKind::Min,
                    _ => AggregateKind::Max,
                };
                Expr::Aggregate { kind, arg: Some(Box::new(e)), distinct: d }
            }),
        ]
    })
}

/// Negative literals print as `-(n)` and reparse as unary negation; normalise
/// both sides so structural comparison is meaningful.
fn normalise(e: &Expr) -> Expr {
    let mut e = e.clone();
    normalise_in_place(&mut e);
    e
}

fn normalise_in_place(e: &mut Expr) {
    e.for_each_child_mut(normalise_in_place);
    if let Expr::Unary { op: UnaryOp::Neg, expr } = e {
        match **expr {
            Expr::Literal(Literal::Int(v)) => *e = Expr::Literal(Literal::Int(-v)),
            Expr::Literal(Literal::Float(v)) => *e = Expr::Literal(Literal::Float(-v)),
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn expr_print_parse_roundtrip(e in expr_strategy()) {
        let printed = print_expr(&e);
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("failed to reparse {printed:?}: {err}"));
        prop_assert_eq!(normalise(&e), normalise(&reparsed), "printed: {}", printed);
    }
}

fn select_strategy() -> impl Strategy<Value = Select> {
    (
        prop::bool::ANY,
        proptest::collection::vec(
            (expr_strategy(), prop::option::of(ident_strategy()), prop::bool::ANY)
                .prop_map(|(expr, alias, optional)| SelectItem::Expr { expr, alias, optional }),
            1..4,
        ),
        proptest::collection::vec(
            (
                prop::option::of(ident_strategy()),
                ident_strategy(),
                prop::option::of(ident_strategy()),
            )
                .prop_map(|(db, t, alias)| TableRef {
                    database: db.map(WildName::new),
                    table: WildName::new(t),
                    alias,
                }),
            1..3,
        ),
        prop::option::of(expr_strategy()),
        proptest::collection::vec(
            (expr_strategy(), prop::bool::ANY).prop_map(|(expr, desc)| OrderByItem {
                expr,
                order: if desc { SortOrder::Desc } else { SortOrder::Asc },
            }),
            0..3,
        ),
        prop::option::of(0u64..20),
    )
        .prop_map(|(distinct, items, from, where_clause, order_by, limit)| Select {
            distinct,
            items,
            from,
            where_clause,
            group_by: Vec::new(),
            having: None,
            order_by,
            limit,
        })
}

fn normalise_select(s: &Select) -> Select {
    Select {
        distinct: s.distinct,
        items: s
            .items
            .iter()
            .map(|i| match i {
                SelectItem::Expr { expr, alias, optional } => SelectItem::Expr {
                    expr: normalise(expr),
                    alias: alias.clone(),
                    optional: *optional,
                },
                other => other.clone(),
            })
            .collect(),
        from: s.from.clone(),
        where_clause: s.where_clause.as_ref().map(normalise),
        group_by: s.group_by.iter().map(normalise).collect(),
        having: s.having.as_ref().map(normalise),
        order_by: s
            .order_by
            .iter()
            .map(|o| OrderByItem { expr: normalise(&o.expr), order: o.order })
            .collect(),
        limit: s.limit,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn select_print_parse_roundtrip(s in select_strategy()) {
        let stmt = Statement::select(s.clone());
        let printed = print(&stmt);
        let reparsed = parse_statement(&printed)
            .unwrap_or_else(|err| panic!("failed to reparse {printed:?}: {err}"));
        let Statement::Query(q) = reparsed else { panic!("not a query: {printed}") };
        let QueryBody::Select(back) = q.body else { panic!("not a select: {printed}") };
        prop_assert_eq!(normalise_select(&s), normalise_select(&back), "printed: {}", printed);
    }
}

// -------------------------------------------------------------- visit order

/// Renames the column of every reference `walk_columns_mut` visits, in visit
/// order, to `#<n>#` — text no generated identifier or literal contains —
/// and returns how many it renamed.
fn number_columns<'a>(exprs: impl Iterator<Item = &'a mut Expr>) -> usize {
    let mut n = 0;
    for e in exprs {
        e.walk_columns_mut(&mut |c| {
            c.column = WildName::new(format!("#{n}#"));
            n += 1;
        });
    }
    n
}

/// The `#<n>#` markers of `printed`, in printed order.
fn markers(printed: &str) -> Vec<usize> {
    printed.split('#').skip(1).step_by(2).map(|m| m.parse().unwrap()).collect()
}

/// `walk_columns`' visit order as marker numbers.
fn walked<'a>(exprs: impl Iterator<Item = &'a Expr>) -> Vec<usize> {
    let mut out = Vec::new();
    for e in exprs {
        e.walk_columns(&mut |c| out.push(markers(c.column.as_str())[0]));
    }
    out
}

/// The pre-order node sequence `for_each_child` yields, each node printed.
fn preorder(e: &Expr, out: &mut Vec<String>) {
    out.push(print_expr(e));
    e.for_each_child(|child| preorder(child, out));
}

/// Moves every node out and back in through `for_each_child_mut`, recording
/// the same pre-order sequence as [`preorder`].
fn preorder_mut(e: &mut Expr, out: &mut Vec<String>) {
    out.push(print_expr(e));
    e.for_each_child_mut(|child| {
        let mut owned = std::mem::replace(child, Expr::Literal(Literal::Null));
        preorder_mut(&mut owned, out);
        *child = owned;
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn expr_columns_are_walked_in_printed_order(e in expr_strategy()) {
        let mut e = e;
        let n = number_columns(std::iter::once(&mut e));
        let order: Vec<usize> = (0..n).collect();
        prop_assert_eq!(walked(std::iter::once(&e)), order.clone());
        prop_assert_eq!(markers(&print_expr(&e)), order);
    }

    #[test]
    fn select_columns_are_walked_in_printed_order(s in select_strategy()) {
        let mut s = s;
        let n = number_columns(s.exprs_mut());
        let order: Vec<usize> = (0..n).collect();
        prop_assert_eq!(walked(s.exprs()), order.clone());
        prop_assert_eq!(markers(&print(&Statement::select(s))), order);
    }

    #[test]
    fn for_each_child_mut_hands_out_what_for_each_child_does(e in expr_strategy()) {
        let (mut seen, mut seen_mut) = (Vec::new(), Vec::new());
        preorder(&e, &mut seen);
        let mut rebuilt = e.clone();
        preorder_mut(&mut rebuilt, &mut seen_mut);
        prop_assert_eq!(&rebuilt, &e);
        prop_assert_eq!(seen, seen_mut);
    }
}
