//! Interdatabase triggers (MSQL §2: "definition of interdatabase
//! triggers"): a committed modification in one database fires an MSQL
//! action that may touch other databases.

use ldbs::value::Value;
use mdbs::fixtures::paper_federation;
use mdbs::Federation;

fn count(fed: &Federation, service: &str, db: &str, sql: &str) -> i64 {
    let engine = fed.engine(service).unwrap();
    let mut engine = engine.lock();
    match engine.execute(db, sql).unwrap().into_result_set().unwrap().rows[0][0] {
        Value::Int(n) => n,
        ref other => panic!("{other:?}"),
    }
}

#[test]
fn update_trigger_replicates_into_another_database() {
    let mut fed = paper_federation();
    // An audit table at avis, fed by a trigger on continental's fares.
    fed.execute("USE avis").unwrap();
    fed.execute("CREATE TABLE avis.audit (note CHAR(40))").unwrap();
    fed.execute(
        "CREATE TRIGGER fare_watch ON continental.flights AFTER UPDATE EXECUTE
         USE avis
         INSERT INTO audit VALUES ('continental fares changed')",
    )
    .unwrap();

    fed.execute("USE continental").unwrap();
    fed.execute("UPDATE flights SET rate = rate * 1.1 WHERE source = 'Houston'").unwrap();
    assert_eq!(count(&fed, "svc_avis", "avis", "SELECT COUNT(*) FROM audit"), 1);

    // Fires once per qualifying statement.
    fed.execute("UPDATE flights SET rate = rate WHERE flnu = 1").unwrap();
    assert_eq!(count(&fed, "svc_avis", "avis", "SELECT COUNT(*) FROM audit"), 2);
}

#[test]
fn a_multitransactions_committed_members_fire_their_triggers() {
    let mut fed = paper_federation();
    fed.execute("USE avis").unwrap();
    fed.execute("CREATE TABLE avis.audit (note CHAR(40))").unwrap();
    fed.execute(
        "CREATE TRIGGER fare_watch ON continental.flights AFTER UPDATE EXECUTE
         USE avis
         INSERT INTO audit VALUES ('continental fares changed')",
    )
    .unwrap();

    // A multitransaction settles like a vital update, and its committed
    // writes fire the same triggers.
    let report = fed
        .execute(
            "BEGIN MULTITRANSACTION
               USE continental
               UPDATE continental.flights SET rate = rate * 1.1 WHERE source = 'Houston';
               COMMIT continental
             END MULTITRANSACTION",
        )
        .unwrap()
        .into_mtx()
        .unwrap();
    assert_eq!(report.achieved_state, Some(0), "{report:?}");
    assert_eq!(count(&fed, "svc_avis", "avis", "SELECT COUNT(*) FROM audit"), 1);
}

#[test]
fn trigger_does_not_fire_on_miss_or_other_events() {
    let mut fed = paper_federation();
    fed.execute("USE avis").unwrap();
    fed.execute("CREATE TABLE avis.audit (note CHAR(40))").unwrap();
    fed.execute(
        "CREATE TRIGGER fare_watch ON continental.flights AFTER UPDATE EXECUTE
         USE avis
         INSERT INTO audit VALUES ('x')",
    )
    .unwrap();
    fed.execute("USE continental").unwrap();
    // Zero rows affected → no fire.
    fed.execute("UPDATE flights SET rate = 1 WHERE source = 'Nowhere'").unwrap();
    assert_eq!(count(&fed, "svc_avis", "avis", "SELECT COUNT(*) FROM audit"), 0);
    // INSERT event ≠ UPDATE trigger.
    fed.execute("INSERT INTO flights VALUES (9, 'A', 'am', 'B', 'pm', 'mon', 1.0)").unwrap();
    assert_eq!(count(&fed, "svc_avis", "avis", "SELECT COUNT(*) FROM audit"), 0);
    // A different table.
    fed.execute("UPDATE f838 SET seatstatus = seatstatus").unwrap();
    assert_eq!(count(&fed, "svc_avis", "avis", "SELECT COUNT(*) FROM audit"), 0);
}

#[test]
fn wildcard_trigger_watches_many_tables() {
    let mut fed = paper_federation();
    fed.execute("USE avis").unwrap();
    fed.execute("CREATE TABLE avis.audit (note CHAR(40))").unwrap();
    fed.execute(
        "CREATE TRIGGER any_continental ON continental.f% AFTER UPDATE EXECUTE
         USE avis
         INSERT INTO audit VALUES ('something changed')",
    )
    .unwrap();
    fed.execute("USE continental").unwrap();
    fed.execute("UPDATE flights SET rate = rate WHERE flnu = 1").unwrap();
    fed.execute("UPDATE f838 SET seatstatus = seatstatus WHERE seatnu = 1").unwrap();
    assert_eq!(count(&fed, "svc_avis", "avis", "SELECT COUNT(*) FROM audit"), 2);
}

#[test]
fn cascading_triggers_are_depth_bounded() {
    let mut fed = paper_federation();
    fed.execute("USE avis").unwrap();
    fed.execute("CREATE TABLE avis.audit (note CHAR(40))").unwrap();
    // A self-feeding trigger: inserting into audit fires another insert.
    fed.execute(
        "CREATE TRIGGER feedback ON avis.audit AFTER INSERT EXECUTE
         USE avis
         INSERT INTO audit VALUES ('echo')",
    )
    .unwrap();
    fed.execute("INSERT INTO audit VALUES ('seed')").unwrap();
    // Depth bound (4) stops the cascade: seed + bounded echoes, not ∞.
    let n = count(&fed, "svc_avis", "avis", "SELECT COUNT(*) FROM audit");
    assert!((2..=5).contains(&n), "cascade depth out of bounds: {n}");
}

#[test]
fn duplicate_and_unknown_trigger_names_are_errors() {
    let mut fed = paper_federation();
    fed.execute(
        "CREATE TRIGGER t1 ON continental.flights AFTER UPDATE EXECUTE
         USE continental SELECT flnu FROM flights",
    )
    .unwrap();
    let err = fed.execute(
        "CREATE TRIGGER t1 ON delta.flight AFTER UPDATE EXECUTE
         USE delta SELECT fnu FROM flight",
    );
    assert!(matches!(err, Err(mdbs::MdbsError::Catalog(_))), "{err:?}");
    fed.execute("DROP TRIGGER t1").unwrap();
    let err = fed.execute("DROP TRIGGER t1");
    assert!(matches!(err, Err(mdbs::MdbsError::Catalog(_))), "{err:?}");
}

#[test]
fn trigger_statement_roundtrips_through_the_printer() {
    let sql = "CREATE TRIGGER fare_watch ON continental.flights AFTER UPDATE EXECUTE
               USE avis
               INSERT INTO audit VALUES ('x')";
    let ast = msql_lang::parse_statement(sql).unwrap();
    let printed = msql_lang::printer::print(&ast);
    let reparsed = msql_lang::parse_statement(&printed).unwrap();
    assert_eq!(ast, reparsed, "printed: {printed}");
}
