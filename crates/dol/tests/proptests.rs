//! Property tests for DOL: print → parse roundtrip over generated programs,
//! and condition-evaluation laws.

use dol::engine::eval_cond;
use dol::*;
use proptest::prelude::*;
use std::collections::HashMap;

fn name_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,8}".prop_filter("keywords", |s| {
        !matches!(
            s.as_str(),
            "dolbegin"
                | "dolend"
                | "open"
                | "at"
                | "as"
                | "task"
                | "nocommit"
                | "for"
                | "comp"
                | "endtask"
                | "if"
                | "then"
                | "else"
                | "begin"
                | "end"
                | "commit"
                | "abort"
                | "compensate"
                | "dolstatus"
                | "close"
                | "and"
                | "or"
                | "not"
        )
    })
}

fn task_name_strategy() -> impl Strategy<Value = String> {
    "T[0-9]{1,3}".prop_map(|s| s)
}

fn status_strategy() -> impl Strategy<Value = TaskStatus> {
    prop_oneof![
        Just(TaskStatus::Prepared),
        Just(TaskStatus::Committed),
        Just(TaskStatus::Aborted),
        Just(TaskStatus::Error),
        Just(TaskStatus::Compensated),
    ]
}

fn cond_strategy() -> impl Strategy<Value = DolCond> {
    let leaf = (task_name_strategy(), status_strategy())
        .prop_map(|(task, status)| DolCond::StatusEq { task, status });
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| DolCond::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| DolCond::Or(Box::new(a), Box::new(b))),
            inner.prop_map(|a| DolCond::Not(Box::new(a))),
        ]
    })
}

/// SQL-ish command text that survives the `{ }` block capture (no braces,
/// no semicolons outside strings — splitting is covered by unit tests).
fn command_strategy() -> impl Strategy<Value = String> {
    "[A-Za-z0-9 =*.,<>']{1,40}".prop_map(|s| {
        let cleaned: String = s.chars().filter(|c| !matches!(c, '{' | '}' | ';')).collect();
        // Unbalanced quotes would glue statements together; keep it simple.
        let cleaned = cleaned.replace('\'', "");
        if cleaned.trim().is_empty() {
            "SELECT 1".to_string()
        } else {
            cleaned.trim().to_string()
        }
    })
}

/// Note values and rule-free strings: any printable text, quotes included.
fn notes_strategy() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec((name_strategy(), "[ -~]{0,12}"), 0..3)
}

fn partial_strategy() -> impl Strategy<Value = Partial> {
    (proptest::option::of(command_strategy()), notes_strategy())
        .prop_map(|(baseline, notes)| Partial { baseline, notes })
}

fn rule_strategy() -> impl Strategy<Value = EdgeRule> {
    prop_oneof![
        (0usize..10_000).prop_map(EdgeRule::Cap),
        (proptest::option::of(0u64..1000), 0u64..1 << 40, 1u64..1000).prop_map(
            |(ndv, whole, parts)| EdgeRule::Bytes { ndv, bytes: whole as f64 / parts as f64 }
        ),
    ]
}

/// Every verb a task can carry, a join's with its arguments.
fn verb_strategy() -> impl Strategy<Value = TaskVerb> {
    let edge =
        (name_strategy(), name_strategy(), name_strategy(), name_strategy(), rule_strategy())
            .prop_map(|(reducer, key_column, binding, column, rule)| HomeEdge {
                reducer,
                key_column,
                binding,
                column,
                rule,
            });
    let traveller =
        (name_strategy(), name_strategy(), command_strategy(), any::<bool>(), partial_strategy())
            .prop_map(|(site, database, sql, posted, partial)| Traveller {
                site,
                database,
                sql,
                posted,
                partial,
            });
    let combine = (
        any::<u64>(),
        any::<bool>(),
        notes_strategy(),
        command_strategy(),
        notes_strategy(),
        proptest::collection::vec(edge, 0..3),
        proptest::collection::vec(traveller, 0..3),
    )
        .prop_map(|(key, measure, notes, home, home_notes, edges, travellers)| {
            TaskVerb::Combine(Box::new(Combine {
                key,
                measure,
                notes,
                home,
                home_notes,
                edges,
                travellers,
            }))
        });
    prop_oneof![
        Just(TaskVerb::Run),
        Just(TaskVerb::Hold),
        Just(TaskVerb::Exec),
        Just(TaskVerb::Prepare),
        Just(TaskVerb::Abort),
        any::<bool>().prop_map(TaskVerb::Resolve),
        Just(TaskVerb::Compensate),
        status_strategy().prop_map(TaskVerb::Settled),
        partial_strategy().prop_map(TaskVerb::PartialAgg),
        (any::<u64>(), name_strategy(), partial_strategy())
            .prop_map(|(key, to, partial)| TaskVerb::Ship { key, to, partial }),
        combine,
    ]
}

fn stmt_strategy() -> impl Strategy<Value = DolStmt> {
    let open = (name_strategy(), name_strategy(), name_strategy())
        .prop_map(|(service, site, alias)| DolStmt::Open { service, site, alias });
    let task = (
        task_name_strategy(),
        name_strategy(),
        any::<bool>(),
        verb_strategy(),
        proptest::collection::vec(command_strategy(), 1..3),
        proptest::collection::vec(command_strategy(), 0..2),
    )
        .prop_map(|(name, service, nocommit, verb, commands, compensation)| {
            DolStmt::Task(TaskDef { name, service, nocommit, verb, commands, compensation })
        });
    let commit = proptest::collection::vec(task_name_strategy(), 1..3)
        .prop_map(|tasks| DolStmt::Commit { tasks });
    let abort = proptest::collection::vec(task_name_strategy(), 1..3)
        .prop_map(|tasks| DolStmt::Abort { tasks });
    let compensate = task_name_strategy().prop_map(|task| DolStmt::Compensate { task });
    let status = (0i32..100).prop_map(DolStmt::SetStatus);
    let close = proptest::collection::vec(name_strategy(), 1..3)
        .prop_map(|aliases| DolStmt::Close { aliases });
    let leaf = prop_oneof![open, task, commit, abort, compensate, status, close];
    (leaf, proptest::option::of(cond_strategy())).prop_map(|(stmt, cond)| match cond {
        None => stmt,
        Some(cond) => {
            DolStmt::If { cond, then_branch: vec![stmt], else_branch: vec![DolStmt::SetStatus(1)] }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn program_print_parse_roundtrip(stmts in proptest::collection::vec(stmt_strategy(), 0..8)) {
        let program = DolProgram { statements: stmts };
        let printed = print_program(&program);
        let reparsed = parse_program(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        prop_assert_eq!(program, reparsed, "printed:\n{}", printed);
    }

    #[test]
    fn cond_eval_respects_de_morgan(cond_a in cond_strategy(), cond_b in cond_strategy(),
                                    statuses in proptest::collection::hash_map(
                                        task_name_strategy(), status_strategy(), 0..12)) {
        let statuses: HashMap<String, TaskStatus> = statuses;
        let and = DolCond::And(Box::new(cond_a.clone()), Box::new(cond_b.clone()));
        let not_or = DolCond::Not(Box::new(DolCond::Or(
            Box::new(DolCond::Not(Box::new(cond_a))),
            Box::new(DolCond::Not(Box::new(cond_b))),
        )));
        // Both sides error on the same unknown tasks; compare only when both
        // evaluate.
        match (eval_cond(&and, &statuses), eval_cond(&not_or, &statuses)) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "divergent evaluability: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn double_negation(cond in cond_strategy(),
                       statuses in proptest::collection::hash_map(
                           task_name_strategy(), status_strategy(), 0..12)) {
        let statuses: HashMap<String, TaskStatus> = statuses;
        let double = DolCond::Not(Box::new(DolCond::Not(Box::new(cond.clone()))));
        match (eval_cond(&cond, &statuses), eval_cond(&double, &statuses)) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "divergent evaluability: {a:?} vs {b:?}"),
        }
    }
}
