//! Inter-database data transfer — `INSERT INTO <db>.<table> SELECT ...`
//! over other databases, one of the MSQL capabilities §2 enumerates
//! ("data transfer between databases").

use ldbs::value::Value;
use mdbs::fixtures::paper_federation;

#[test]
fn transfer_single_source_database() {
    let mut fed = paper_federation();
    fed.execute("USE continental avis").unwrap();
    // Create a catalogue table at avis and fill it from continental.
    fed.execute("CREATE TABLE avis.fares (flnu INT, rate FLOAT)").unwrap();
    let report = fed
        .execute(
            "INSERT INTO avis.fares (flnu, rate)
             SELECT flnu, rate FROM continental.flights WHERE source = 'Houston'",
        )
        .unwrap()
        .into_update()
        .unwrap();
    assert!(report.success);
    assert_eq!(report.outcomes[0].affected, 2);

    // The rows are physically at avis now.
    let engine = fed.engine("svc_avis").unwrap();
    let mut engine = engine.lock();
    let rs = engine
        .execute("avis", "SELECT flnu, rate FROM fares ORDER BY flnu")
        .unwrap()
        .into_result_set()
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.rows[0], vec![Value::Int(1), Value::Float(100.0)]);
    assert_eq!(rs.rows[1], vec![Value::Int(2), Value::Float(80.0)]);
}

#[test]
fn transfer_from_cross_database_join() {
    let mut fed = paper_federation();
    fed.execute("USE continental delta national").unwrap();
    fed.execute("CREATE TABLE national.pairs (a INT, b INT)").unwrap();
    let report = fed
        .execute(
            "INSERT INTO national.pairs (a, b)
             SELECT f.flnu, g.fnu FROM continental.flights f, delta.flight g
             WHERE f.source = g.source",
        )
        .unwrap()
        .into_update()
        .unwrap();
    assert!(report.success);
    // continental Houston flights 1,2 × delta Houston flights 10,11 → 4 pairs.
    assert_eq!(report.outcomes[0].affected, 4);
}

#[test]
fn local_insert_select_still_uses_the_ordinary_path() {
    let mut fed = paper_federation();
    fed.execute("USE avis").unwrap();
    fed.execute("CREATE TABLE avis.archive (code INT, rate FLOAT)").unwrap();
    // Target and source are the same database: no transfer machinery.
    let report = fed
        .execute(
            "INSERT INTO avis.archive (code, rate)
             SELECT code, rate FROM cars WHERE carst = 'rented'",
        )
        .unwrap()
        .into_update()
        .unwrap();
    assert!(report.success);
    assert_eq!(report.outcomes[0].affected, 1);
}

#[test]
fn transfer_preserves_nulls_and_strings() {
    let mut fed = paper_federation();
    fed.execute("USE continental avis").unwrap();
    fed.execute("CREATE TABLE avis.seatcopy (seatnu INT, clientname CHAR(20))").unwrap();
    fed.execute(
        "INSERT INTO avis.seatcopy (seatnu, clientname)
         SELECT seatnu, clientname FROM continental.f838",
    )
    .unwrap();
    let engine = fed.engine("svc_avis").unwrap();
    let mut engine = engine.lock();
    let rs = engine
        .execute("avis", "SELECT seatnu, clientname FROM seatcopy ORDER BY seatnu")
        .unwrap()
        .into_result_set()
        .unwrap();
    assert_eq!(rs.rows.len(), 3);
    assert_eq!(rs.rows[0][1], Value::Str("kim".into()));
    assert_eq!(rs.rows[1][1], Value::Null);
}

#[test]
fn transfer_of_empty_result_is_a_successful_noop() {
    let mut fed = paper_federation();
    fed.execute("USE continental avis").unwrap();
    fed.execute("CREATE TABLE avis.fares (flnu INT, rate FLOAT)").unwrap();
    let report = fed
        .execute(
            "INSERT INTO avis.fares (flnu, rate)
             SELECT flnu, rate FROM continental.flights WHERE source = 'Nowhere'",
        )
        .unwrap()
        .into_update()
        .unwrap();
    assert!(report.success);
    assert_eq!(report.outcomes[0].affected, 0);
}

#[test]
fn unknown_target_database_is_rejected() {
    let mut fed = paper_federation();
    fed.execute("USE continental").unwrap();
    let err = fed.execute("INSERT INTO hertz.fares SELECT flnu, rate FROM continental.flights");
    assert!(matches!(err, Err(mdbs::MdbsError::NotInScope(_))), "{err:?}");
}

fn count(fed: &mdbs::Federation, service: &str, db: &str, sql: &str) -> i64 {
    let engine = fed.engine(service).unwrap();
    let mut engine = engine.lock();
    match engine.execute(db, sql).unwrap().into_result_set().unwrap().rows[0][0] {
        Value::Int(n) => n,
        ref other => panic!("{other:?}"),
    }
}

/// A transfer's committed INSERT is a write like any other: it fires the
/// `AFTER INSERT` triggers on its target, as a plain INSERT does.
#[test]
fn a_transfer_fires_the_insert_triggers_of_its_target() {
    let mut fed = paper_federation();
    fed.execute("USE continental avis").unwrap();
    fed.execute("CREATE TABLE avis.fares (flnu INT, rate FLOAT)").unwrap();
    fed.execute("CREATE TABLE avis.audit (note CHAR(40))").unwrap();
    fed.execute(
        "CREATE TRIGGER fare_feed ON avis.fares AFTER INSERT EXECUTE
         USE avis
         INSERT INTO audit VALUES ('fares loaded')",
    )
    .unwrap();
    fed.execute("USE continental avis INSERT INTO avis.fares VALUES (0, 1.0)").unwrap();
    assert_eq!(count(&fed, "svc_avis", "avis", "SELECT COUNT(*) FROM audit"), 1);

    fed.execute(
        "USE continental avis
         INSERT INTO avis.fares (flnu, rate)
         SELECT flnu, rate FROM continental.flights WHERE source = 'Houston'",
    )
    .unwrap();
    assert_eq!(count(&fed, "svc_avis", "avis", "SELECT COUNT(*) FROM audit"), 2);
}

/// A transfer is one local statement at its target, so one row the target
/// refuses applies none of them — however many rows travel.
#[test]
fn a_refused_transfer_applies_no_row() {
    let mut fed = paper_federation();
    fed.execute("USE continental avis").unwrap();
    fed.execute("CREATE TABLE continental.src (a INT)").unwrap();
    fed.execute("CREATE TABLE avis.dst (a INT NOT NULL)").unwrap();
    {
        let engine = fed.engine("svc_continental").unwrap();
        let mut engine = engine.lock();
        for i in 1..70 {
            engine.execute("continental", &format!("INSERT INTO src VALUES ({i})")).unwrap();
        }
        engine.execute("continental", "INSERT INTO src VALUES (NULL)").unwrap();
    }
    let err = fed
        .execute("USE continental avis INSERT INTO avis.dst (a) SELECT a FROM continental.src")
        .unwrap_err();
    assert!(
        matches!(err, mdbs::MdbsError::Local { ref service, .. } if service == "avis"),
        "{err:?}"
    );
    assert_eq!(count(&fed, "svc_avis", "avis", "SELECT COUNT(*) FROM dst"), 0);
}

/// A transfer reports what it sent, like every other modification.
#[test]
fn a_transfer_report_carries_its_accounting() {
    let mut fed = paper_federation();
    fed.execute("USE continental avis").unwrap();
    fed.execute("CREATE TABLE avis.fares (flnu INT, rate FLOAT)").unwrap();
    let report = fed
        .execute(
            "INSERT INTO avis.fares (flnu, rate)
             SELECT flnu, rate FROM continental.flights WHERE source = 'Houston'",
        )
        .unwrap()
        .into_update()
        .unwrap();
    assert!(report.success);
    assert!(report.stats.calls >= 1, "{:?}", report.stats);
    assert_eq!(report.outcomes[0].attempts, 1, "{report:?}");
}
