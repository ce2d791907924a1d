//! Experiment Q1 — the paper's §2 car-rental query.
//!
//! One compact MSQL multiple query resolves naming heterogeneity (explicit
//! `LET` variable, implicit `%code`) and schema heterogeneity (`~rate`)
//! across avis and national, producing a multitable of two tables.

use ldbs::value::Value;
use mdbs::fixtures::paper_federation;

#[test]
fn section2_query_produces_a_two_table_multitable() {
    let mut fed = paper_federation();
    let outcome = fed
        .execute(
            "USE avis national
             LET car.type.status BE cars.cartype.carst vehicle.vty.vstat
             SELECT %code, type, ~rate FROM car WHERE status = 'available'",
        )
        .unwrap();
    let mt = outcome.into_multitable().unwrap();
    assert_eq!(mt.tables.len(), 2, "a multitable is a SET of tables, one per database");

    // avis: code, cartype, rate — two available cars.
    let avis = mt.table("avis").unwrap();
    let names: Vec<&str> = avis.columns.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, vec!["code", "cartype", "rate"]);
    assert_eq!(avis.rows.len(), 2);
    assert!(avis.rows.iter().any(|r| r[0] == Value::Int(1)));
    assert!(avis.rows.iter().any(|r| r[0] == Value::Int(3)));

    // national: vcode, vty — the optional ~rate column is absent (schema
    // heterogeneity resolved by dropping it, §2).
    let national = mt.table("national").unwrap();
    let names: Vec<&str> = national.columns.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, vec!["vcode", "vty"]);
    assert_eq!(national.rows.len(), 2);
}

#[test]
fn scope_persists_across_statements() {
    let mut fed = paper_federation();
    fed.execute("USE avis national").unwrap();
    fed.execute("LET car.status BE cars.carst vehicle.vstat").unwrap();
    let mt = fed
        .execute("SELECT %code FROM car WHERE status = 'rented'")
        .unwrap()
        .into_multitable()
        .unwrap();
    assert_eq!(mt.tables.len(), 2);
    assert_eq!(mt.table("avis").unwrap().rows.len(), 1);
    assert_eq!(mt.table("national").unwrap().rows.len(), 1);
}

#[test]
fn non_pertinent_database_contributes_no_table() {
    let mut fed = paper_federation();
    // `cars` only exists in avis; national silently drops out.
    let mt =
        fed.execute("USE avis national SELECT code FROM cars").unwrap().into_multitable().unwrap();
    assert_eq!(mt.tables.len(), 1);
    assert_eq!(mt.tables[0].database, "avis");
}

#[test]
fn aggregates_run_locally_per_database() {
    let mut fed = paper_federation();
    let mt = fed
        .execute(
            "USE avis national
             LET car.status BE cars.carst vehicle.vstat
             SELECT COUNT(*) AS n FROM car WHERE status = 'available'",
        )
        .unwrap()
        .into_multitable()
        .unwrap();
    assert_eq!(mt.table("avis").unwrap().rows[0][0], Value::Int(2));
    assert_eq!(mt.table("national").unwrap().rows[0][0], Value::Int(2));
}

/// A retrieval that fails at every database fails with the first failed
/// database's own error, in plan order and in the site's words — not with a
/// summary that names where it failed and drops why.
#[test]
fn a_failed_retrieval_keeps_the_sites_words() {
    let mut fed = paper_federation();
    let site_error = |fed: &mut mdbs::Federation, msql: &str| match fed.execute(msql) {
        Err(mdbs::MdbsError::Local { service, message }) => (service, message),
        other => panic!("expected a local error, got {other:?}"),
    };
    let (database, message) = site_error(&mut fed, "USE avis SELECT code + 'x' FROM cars");
    assert_eq!(database, "avis");
    assert_eq!(message, "type error: cannot apply + to 1 and 'x'");

    // Both databases fail: the first in plan order (USE order) speaks.
    let both = "LET car.c BE vehicle.vcode cars.code SELECT c + 'x' FROM car";
    let (database, message) = site_error(&mut fed, &format!("USE national avis {both}"));
    assert_eq!(database, "national");
    assert_eq!(message, "type error: cannot apply + to 7 and 'x'");
}

/// A retrieval that fails at some databases and not others returns the
/// tables it got and says which databases are missing and why — in plan
/// order and in the site's words — instead of silently returning fewer
/// tables.
#[test]
fn a_partly_failed_retrieval_names_each_missing_database() {
    let mut fed = paper_federation();
    fed.tolerate_unreachable = true;
    fed.timeout = std::time::Duration::from_millis(300);
    // national's site (site5) vanishes.
    fed.network().deregister("site5");
    let mt = fed
        .execute(
            "USE avis national
             LET car.type.status BE cars.cartype.carst vehicle.vty.vstat
             SELECT %code, type, ~rate FROM car WHERE status = 'available'",
        )
        .unwrap()
        .into_multitable()
        .unwrap();
    assert_eq!(mt.tables.len(), 1);
    assert_eq!(mt.tables[0].database, "avis");
    assert_eq!(mt.failed.len(), 1, "{mt:?}");
    assert_eq!(mt.failed[0].database, "national");
    assert!(mt.failed[0].error.contains("site5"), "{:?}", mt.failed[0]);
    assert!(mt.to_string().contains("-- national failed: "), "{mt}");

    // A local error at one of the two is the site's own words.
    let mut fed = paper_federation();
    let mt = fed
        .execute("USE avis national LET car.c BE cars.code vehicle.vty SELECT c + 1 FROM car")
        .unwrap()
        .into_multitable()
        .unwrap();
    assert_eq!(mt.tables.iter().map(|t| t.database.as_str()).collect::<Vec<_>>(), vec!["avis"]);
    assert_eq!(mt.failed.len(), 1, "{mt:?}");
    assert_eq!(mt.failed[0].database, "national");
    assert!(mt.failed[0].error.contains("cannot apply +"), "{:?}", mt.failed[0]);
}
