//! Executing raw DOL programs against a live federation
//! (`Federation::execute_dol`) — DOL as the user-visible intermediate
//! language (paper §4.1: "DOL may serve as an intermediate language").

use ldbs::value::Value;
use mdbs::fixtures::paper_federation;

#[test]
fn hand_written_paper_program_runs() {
    let mut fed = paper_federation();
    // The §4.3 program, hand-written (with real SQL in the task bodies).
    let out = fed
        .execute_dol(
            "DOLBEGIN
             OPEN continental AT site1 AS cont;
             OPEN delta AT site2 AS delta;
             OPEN united AT site3 AS unit;
             TASK T1 NOCOMMIT FOR cont
             { UPDATE flights SET rate = rate * 1.1
               WHERE source = 'Houston' AND destination = 'San Antonio' }
             ENDTASK;
             TASK T2 FOR delta
             { UPDATE flight SET rate = rate * 1.1
               WHERE source = 'Houston' AND dest = 'San Antonio' }
             ENDTASK;
             TASK T3 NOCOMMIT FOR unit
             { UPDATE flight SET rates = rates * 1.1
               WHERE sour = 'Houston' AND dest = 'San Antonio' }
             ENDTASK;
             IF (T1=P) AND (T3=P) THEN
             BEGIN
               COMMIT T1, T3;
               DOLSTATUS=0;
             END;
             ELSE
             BEGIN
               ABORT T1, T3;
               DOLSTATUS=1;
             END;
             CLOSE cont delta unit;
             DOLEND",
        )
        .unwrap();
    assert_eq!(out.dolstatus, 0);
    assert_eq!(out.status("T1"), Some(dol::TaskStatus::Committed));
    assert_eq!(out.status("T2"), Some(dol::TaskStatus::Committed));
    assert_eq!(out.status("T3"), Some(dol::TaskStatus::Committed));

    let engine = fed.engine("svc_continental").unwrap();
    let mut engine = engine.lock();
    let rate = engine
        .execute("continental", "SELECT rate FROM flights WHERE flnu = 1")
        .unwrap()
        .into_result_set()
        .unwrap()
        .rows[0][0]
        .clone();
    assert_eq!(rate, Value::Float(100.0 * 1.1));
}

#[test]
fn dol_retrieval_returns_serialized_partials() {
    let mut fed = paper_federation();
    let out = fed
        .execute_dol(
            "DOLBEGIN
             OPEN avis AT site4 AS a;
             TASK Q1 FOR a { SELECT code, rate FROM cars WHERE carst = 'available' } ENDTASK;
             DOLSTATUS=0;
             CLOSE a;
             DOLEND",
        )
        .unwrap();
    let rs = out.task_results["Q1"].rows.as_ref().expect("partial result");
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.columns[0].name, "code");
}

#[test]
fn dol_program_with_failing_vital_takes_else_branch() {
    let mut fed = paper_federation();
    fed.engine("svc_united").unwrap().lock().failure_policy_mut().fail_writes_to("flight");
    let out = fed
        .execute_dol(
            "DOLBEGIN
             OPEN continental AT site1 AS cont;
             OPEN united AT site3 AS unit;
             TASK T1 NOCOMMIT FOR cont { UPDATE flights SET rate = 0 } ENDTASK;
             TASK T3 NOCOMMIT FOR unit { UPDATE flight SET rates = 0 } ENDTASK;
             IF (T1=P) AND (T3=P) THEN
             BEGIN COMMIT T1, T3; DOLSTATUS=0; END;
             ELSE
             BEGIN ABORT T1, T3; DOLSTATUS=1; END;
             CLOSE cont unit;
             DOLEND",
        )
        .unwrap();
    assert_eq!(out.dolstatus, 1);
    assert_eq!(out.status("T1"), Some(dol::TaskStatus::Aborted));
    assert_eq!(out.status("T3"), Some(dol::TaskStatus::Aborted));
}

#[test]
fn dol_compensation_statement_works_end_to_end() {
    let mut fed = paper_federation();
    let out = fed
        .execute_dol(
            "DOLBEGIN
             OPEN avis AT site4 AS a;
             TASK T1 FOR a
             { UPDATE cars SET rate = rate * 2 WHERE code = 1 }
             COMP
             { UPDATE cars SET rate = rate / 2 WHERE code = 1 }
             ENDTASK;
             IF (T1=C) THEN COMPENSATE T1;
             DOLSTATUS=0;
             CLOSE a;
             DOLEND",
        )
        .unwrap();
    assert_eq!(out.status("T1"), Some(dol::TaskStatus::Compensated));
    let engine = fed.engine("svc_avis").unwrap();
    let mut engine = engine.lock();
    let rate = engine
        .execute("avis", "SELECT rate FROM cars WHERE code = 1")
        .unwrap()
        .into_result_set()
        .unwrap()
        .rows[0][0]
        .clone();
    assert_eq!(rate, Value::Float(39.5));
}

#[test]
fn open_to_wrong_site_fails_cleanly() {
    let mut fed = paper_federation();
    fed.timeout = std::time::Duration::from_millis(200);
    let err = fed.execute_dol(
        "DOLBEGIN
         OPEN avis AT nonexistent_site AS a;
         DOLEND",
    );
    assert!(
        matches!(err, Err(mdbs::MdbsError::LamUnavailable { ref site }) if site == "nonexistent_site"),
        "{err:?}"
    );
}

#[test]
fn parse_error_is_reported_with_line() {
    let mut fed = paper_federation();
    let err = fed.execute_dol("DOLBEGIN\nOPEN oops\nDOLEND");
    let Err(mdbs::MdbsError::Dol(msg)) = err else { panic!("{err:?}") };
    assert!(msg.contains("line"), "{msg}");
}

/// The program the translator generates for the query `msql` in `fed`'s
/// catalog and directory: the plan the statement runs.
fn plan_of(fed: &mdbs::Federation, msql: &str) -> dol::DolProgram {
    use mdbs::translate::{self, DbRoute, Translated};
    let Ok(msql_lang::Statement::Query(q)) = msql_lang::parse_statement(msql) else { panic!() };
    let mut scope = mdbs::SessionScope::new();
    scope.apply_use(q.use_clause.as_ref().unwrap()).unwrap();
    q.lets.iter().for_each(|l| scope.apply_let(l).unwrap());
    let (gdd, ad) = (fed.gdd(), fed.ad());
    let routes = gdd
        .database_names()
        .into_iter()
        .map(|db| {
            let entry = ad.service(gdd.service_of(db).unwrap()).unwrap();
            let (site, supports_2pc) = (entry.site.clone(), entry.supports_2pc());
            (db.to_string(), DbRoute { database: db.to_string(), site, supports_2pc })
        })
        .collect();
    let Translated::PerDb(locals) = translate::translate_body(&q.body, &scope, &gdd).unwrap()
    else {
        panic!("{msql}: one subquery per database")
    };
    let plan = match &q.body {
        msql_lang::QueryBody::Select(_) => translate::retrieval_plan(&locals, &routes),
        _ => translate::update_plan(&locals, &Default::default(), &routes),
    };
    plan.unwrap().program
}

/// The program a statement runs is its whole plan: printed and handed to
/// `execute_dol` on a federation built the same way, it reaches the same
/// statuses, rows and return code with the same messages on the wire.
#[test]
fn a_printed_plan_runs_as_its_statement() {
    const Q1: &str = "USE avis national
        LET car.type.status BE cars.cartype.carst vehicle.vty.vstat
        SELECT %code, type, ~rate FROM car WHERE status = 'available'";
    const Q2: &str = "USE continental VITAL delta united VITAL
        UPDATE flight% SET rate% = rate% * 1.1
        WHERE sour% = 'Houston' AND dest% = 'San Antonio'";
    for msql in [Q1, Q2] {
        let mut fed = paper_federation();
        let program = plan_of(&fed, msql);
        let tasks: Vec<String> = program.tasks().iter().map(|t| t.name.clone()).collect();
        let sent = fed.network().stats().messages;
        let outcome = fed.execute(msql).unwrap();
        let messages = fed.network().stats().messages - sent;
        assert!(messages > 0);

        let mut again = paper_federation();
        let sent = again.network().stats().messages;
        let out = again.execute_dol(&dol::print_program(&program)).unwrap();
        assert_eq!(again.network().stats().messages - sent, messages, "{msql}");
        match outcome {
            mdbs::MsqlOutcome::Multitable(mt) => {
                assert_eq!(out.dolstatus, 0);
                assert_eq!(mt.tables.len(), tasks.len());
                for (table, task) in mt.tables.iter().zip(&tasks) {
                    let rows = out.task_results[task].rows.as_ref().unwrap();
                    assert_eq!(rows.rows, table.result.rows, "{task}");
                }
            }
            mdbs::MsqlOutcome::Update(report) => {
                assert_eq!(out.dolstatus, report.return_code);
                assert_eq!(report.outcomes.len(), tasks.len());
                for (o, task) in report.outcomes.iter().zip(&tasks) {
                    assert_eq!(out.status(task), Some(o.status), "{task}");
                }
            }
            other => panic!("{other:?}"),
        }
    }
}
