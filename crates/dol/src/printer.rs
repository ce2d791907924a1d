//! Rendering DOL programs in the paper's concrete syntax.
//!
//! The output of [`print_program`] reparses to an identical AST and matches
//! the layout style of the listing in §4.3, which the golden-file experiment
//! D1 compares against.

use crate::ast::{DolCond, DolProgram, DolStmt, HomeEdge, Partial, TaskDef, TaskVerb, Traveller};
use std::fmt::Write as _;

/// Renders a program.
pub fn print_program(p: &DolProgram) -> String {
    let mut out = String::from("DOLBEGIN\n");
    for stmt in &p.statements {
        write_stmt(&mut out, stmt, 1);
    }
    out.push_str("DOLEND\n");
    out
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_stmt(out: &mut String, stmt: &DolStmt, level: usize) {
    match stmt {
        DolStmt::Open { service, site, alias } => {
            indent(out, level);
            let _ = writeln!(out, "OPEN {service} AT {site} AS {alias};");
        }
        DolStmt::Task(task) => write_task(out, task, level),
        DolStmt::If { cond, then_branch, else_branch } => {
            indent(out, level);
            let _ = writeln!(out, "IF {} THEN", print_cond(cond));
            indent(out, level);
            out.push_str("BEGIN\n");
            for s in then_branch {
                write_stmt(out, s, level + 1);
            }
            indent(out, level);
            out.push_str("END;\n");
            if !else_branch.is_empty() {
                indent(out, level);
                out.push_str("ELSE\n");
                indent(out, level);
                out.push_str("BEGIN\n");
                for s in else_branch {
                    write_stmt(out, s, level + 1);
                }
                indent(out, level);
                out.push_str("END;\n");
            }
        }
        DolStmt::Commit { tasks } => {
            indent(out, level);
            let _ = writeln!(out, "COMMIT {};", tasks.join(", "));
        }
        DolStmt::Abort { tasks } => {
            indent(out, level);
            let _ = writeln!(out, "ABORT {};", tasks.join(", "));
        }
        DolStmt::Compensate { task } => {
            indent(out, level);
            let _ = writeln!(out, "COMPENSATE {task};");
        }
        DolStmt::Decide(code) => {
            indent(out, level);
            let _ = writeln!(out, "DECIDE {code};");
        }
        DolStmt::SetStatus(code) => {
            indent(out, level);
            let _ = writeln!(out, "DOLSTATUS={code};");
        }
        DolStmt::Close { aliases } => {
            indent(out, level);
            let _ = writeln!(out, "CLOSE {};", aliases.join(" "));
        }
    }
}

fn write_task(out: &mut String, task: &TaskDef, level: usize) {
    let verb = match &task.verb {
        TaskVerb::Run => String::new(),
        TaskVerb::Hold => " HOLD".into(),
        TaskVerb::Exec => " EXEC".into(),
        TaskVerb::Prepare => " PREPARE".into(),
        TaskVerb::Abort => " ABORT".into(),
        TaskVerb::Resolve(true) => " RESOLVE COMMIT".into(),
        TaskVerb::Resolve(false) => " RESOLVE ABORT".into(),
        TaskVerb::Compensate => " COMPENSATE".into(),
        TaskVerb::Settled(status) => format!(" SETTLED {}", status.code()),
        TaskVerb::PartialAgg(_) => " PARTIALAGG".into(),
        TaskVerb::Ship { key, to, .. } => format!(" SHIP {key} TO {to} ECHO"),
        TaskVerb::Combine(c) => {
            format!(" COMBINE {}{}", c.key, if c.measure { " MEASURE" } else { "" })
        }
    };
    indent(out, level);
    let _ = writeln!(
        out,
        "TASK {}{}{} FOR {}",
        task.name,
        if task.nocommit { " NOCOMMIT" } else { "" },
        verb,
        task.service
    );
    indent(out, level);
    let _ = writeln!(out, "{{ {} }}", task.commands.join("; "));
    match &task.verb {
        TaskVerb::PartialAgg(partial) | TaskVerb::Ship { partial, .. } => {
            write_partial(out, partial, level);
        }
        TaskVerb::Combine(c) => {
            write_notes(out, &c.notes, level);
            indent(out, level);
            let _ = writeln!(out, "HOME {{ {} }}", c.home);
            write_notes(out, &c.home_notes, level);
            for HomeEdge { reducer, key_column, binding, column, rule } in &c.edges {
                indent(out, level);
                let rule = quote(&rule.to_string());
                let _ = writeln!(out, "EDGE {reducer} {key_column} {binding} {column} {rule}");
            }
            for Traveller { site, database, sql, posted, partial } in &c.travellers {
                indent(out, level);
                let echoed = if *posted { "" } else { " ECHOED" };
                let _ = writeln!(out, "PART {database} AT {site}{echoed} {{ {sql} }}");
                write_partial(out, partial, level);
            }
        }
        _ => {}
    }
    if !task.compensation.is_empty() {
        indent(out, level);
        out.push_str("COMP\n");
        indent(out, level);
        let _ = writeln!(out, "{{ {} }}", task.compensation.join("; "));
    }
    indent(out, level);
    out.push_str("ENDTASK;\n");
}

fn write_partial(out: &mut String, partial: &Partial, level: usize) {
    if let Some(baseline) = &partial.baseline {
        indent(out, level);
        let _ = writeln!(out, "BASELINE {{ {baseline} }}");
    }
    write_notes(out, &partial.notes, level);
}

fn write_notes(out: &mut String, notes: &[(String, String)], level: usize) {
    for (key, value) in notes {
        indent(out, level);
        let _ = writeln!(out, "NOTE {key} {}", quote(value));
    }
}

/// A quoted string, each `'` doubled.
fn quote(text: &str) -> String {
    format!("'{}'", text.replace('\'', "''"))
}

/// Renders a status condition. `AND` chains print left-associatively (the
/// parser's shape); a *right*-nested `AND` and any compound `NOT` operand
/// are parenthesised so the text reparses to the identical tree.
pub fn print_cond(c: &DolCond) -> String {
    match c {
        DolCond::StatusEq { task, status } => format!("({}={})", task, status.code()),
        DolCond::And(a, b) => {
            let right = match **b {
                DolCond::And(..) => format!("({})", print_cond(b)),
                _ => print_cond(b),
            };
            format!("{} AND {}", print_cond(a), right)
        }
        DolCond::Or(a, b) => format!("({} OR {})", print_cond(a), print_cond(b)),
        DolCond::Not(a) => match **a {
            DolCond::And(..) => format!("NOT ({})", print_cond(a)),
            _ => format!("NOT {}", print_cond(a)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn print_parse_roundtrip() {
        let src = "
            DOLBEGIN
            OPEN continental AT site1 AS cont;
            TASK T1 NOCOMMIT FOR cont
            { UPDATE flights SET rate = rate * 1.1 }
            COMP
            { UPDATE flights SET rate = rate / 1.1 }
            ENDTASK;
            IF (T1=P) AND NOT (T2=A) OR (T3=C) THEN
            BEGIN DECIDE 0; COMMIT T1; DOLSTATUS=0; END;
            ELSE
            BEGIN ABORT T1; COMPENSATE T1; DOLSTATUS=1; END;
            CLOSE cont;
            DOLEND";
        let ast = parse_program(src).unwrap();
        let printed = print_program(&ast);
        let reparsed =
            parse_program(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        assert_eq!(ast, reparsed, "printed:\n{printed}");
    }

    #[test]
    fn layout_matches_paper_style() {
        let ast = parse_program(
            "DOLBEGIN
             OPEN continental AT site1 AS cont;
             TASK T1 NOCOMMIT FOR cont { UPDATE f SET x = 1 } ENDTASK;
             IF (T1=P) THEN BEGIN COMMIT T1; DOLSTATUS=0; END;
             DOLEND",
        )
        .unwrap();
        let printed = print_program(&ast);
        assert!(printed.starts_with("DOLBEGIN\n"));
        assert!(printed.contains("OPEN continental AT site1 AS cont;"));
        assert!(printed.contains("TASK T1 NOCOMMIT FOR cont"));
        assert!(printed.contains("IF (T1=P) THEN"));
        assert!(printed.contains("DOLSTATUS=0;"));
        assert!(printed.trim_end().ends_with("DOLEND"));
    }

    #[test]
    fn cond_printer_parenthesises_or() {
        let c = DolCond::And(
            Box::new(DolCond::Or(
                Box::new(DolCond::StatusEq {
                    task: "T1".into(),
                    status: crate::ast::TaskStatus::Prepared,
                }),
                Box::new(DolCond::StatusEq {
                    task: "T2".into(),
                    status: crate::ast::TaskStatus::Committed,
                }),
            )),
            Box::new(DolCond::StatusEq {
                task: "T3".into(),
                status: crate::ast::TaskStatus::Aborted,
            }),
        );
        assert_eq!(print_cond(&c), "((T1=P) OR (T2=C)) AND (T3=A)");
    }
}
