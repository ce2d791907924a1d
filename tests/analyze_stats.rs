//! ANALYZE lifecycle at the federation level: statement routing, the GDD's
//! statistics cache (fetch / hit / invalidate), and the costed planner's
//! visibility in EXPLAIN.

use ldbs::profile::DbmsProfile;
use ldbs::Engine;
use mdbs::fixtures::paper_federation;
use mdbs::{Federation, MsqlOutcome};
use netsim::Network;

/// Reads one counter from the session metrics, defaulting to zero.
fn counter(fed: &mdbs::Federation, name: &str) -> u64 {
    fed.metrics().counters.iter().find(|(n, _)| n.as_str() == name).map(|(_, v)| *v).unwrap_or(0)
}

const EQUI_JOIN: &str = "SELECT f.flnu, g.fnu
     FROM continental.flights f, delta.flight g
     WHERE f.source = g.source AND f.destination = g.dest
     ORDER BY f.flnu, g.fnu";

#[test]
fn analyze_ships_to_the_owning_site() {
    let mut fed = paper_federation();
    let MsqlOutcome::Admin(msg) = fed.execute("ANALYZE avis.cars").unwrap() else {
        panic!("ANALYZE should yield an admin outcome");
    };
    assert!(msg.contains("analyzed 1 table(s) in `avis`"), "{msg}");
    // Bare ANALYZE walks every table of a single-database scope.
    fed.execute("USE avis").unwrap();
    let MsqlOutcome::Admin(msg) = fed.execute("ANALYZE").unwrap() else {
        panic!("bare ANALYZE should yield an admin outcome");
    };
    assert!(msg.contains("in `avis`"), "{msg}");
}

#[test]
fn bare_analyze_rejects_ambiguous_scope() {
    let mut fed = paper_federation();
    fed.execute("USE avis national").unwrap();
    let err = fed.execute("ANALYZE").unwrap_err();
    assert!(err.to_string().contains("ambiguous"), "{err}");
}

#[test]
fn stats_cache_fetches_once_then_hits() {
    let mut fed = paper_federation();
    fed.execute("ANALYZE continental.flights").unwrap();
    fed.execute("ANALYZE delta.flight").unwrap();
    fed.execute("USE continental delta").unwrap();

    fed.execute(EQUI_JOIN).unwrap();
    assert_eq!(counter(&fed, "planner.stats_fetches"), 2, "one STATS fetch per database");
    assert_eq!(
        counter(&fed, "planner.costed_joins"),
        1,
        "fresh stats put the join on the costed path"
    );

    fed.execute(EQUI_JOIN).unwrap();
    assert_eq!(counter(&fed, "planner.stats_fetches"), 2, "second join must reuse the cache");
    assert_eq!(counter(&fed, "planner.stats_cache_hits"), 2);
    assert_eq!(counter(&fed, "planner.costed_joins"), 2);
}

#[test]
fn ddl_and_analyze_invalidate_the_stats_cache() {
    let mut fed = paper_federation();
    fed.execute("ANALYZE continental.flights").unwrap();
    fed.execute("ANALYZE delta.flight").unwrap();
    fed.execute("USE continental delta").unwrap();
    fed.execute(EQUI_JOIN).unwrap();
    assert_eq!(counter(&fed, "planner.stats_fetches"), 2);

    // DDL against continental drops its cached statistics; the next costed
    // join must re-fetch that database (and only that one).
    fed.execute("CREATE TABLE continental.scratch (x INT)").unwrap();
    fed.execute(EQUI_JOIN).unwrap();
    assert_eq!(counter(&fed, "planner.stats_fetches"), 3, "DDL must invalidate one database");

    // Re-ANALYZE also invalidates, so fresh snapshots are picked up.
    fed.execute("ANALYZE delta.flight").unwrap();
    fed.execute(EQUI_JOIN).unwrap();
    assert_eq!(counter(&fed, "planner.stats_fetches"), 4, "ANALYZE must invalidate its database");
}

#[test]
fn a_refused_statement_is_the_sites_local_error_and_changes_nothing() {
    let mut fed = paper_federation();
    fed.execute("ANALYZE continental.flights").unwrap();
    fed.execute("ANALYZE delta.flight").unwrap();
    fed.execute("USE continental delta").unwrap();
    fed.execute(EQUI_JOIN).unwrap();
    assert_eq!(counter(&fed, "planner.stats_fetches"), 2);
    let tables = |fed: &mdbs::Federation| {
        let gdd = fed.gdd();
        gdd.tables("continental").unwrap().iter().map(|t| t.name.clone()).collect::<Vec<_>>()
    };
    let exported = tables(&fed);

    // Each statement reaches continental's LAM, whose engine refuses it.
    for (refused, site_says) in [
        ("CREATE TABLE continental.flights (x INT)", "flights"),
        ("DROP TABLE continental.nosuch", "nosuch"),
        ("CREATE INDEX ix ON continental.flights (nosuch)", "nosuch"),
        ("DROP INDEX nosuch ON continental.flights", "nosuch"),
        ("ANALYZE continental.nosuch", "nosuch"),
    ] {
        match fed.execute(refused).unwrap_err() {
            mdbs::MdbsError::Local { service, message } => {
                assert_eq!(service, "continental", "{refused}");
                assert!(message.contains(site_says), "{refused}: {message}");
            }
            other => panic!("{refused}: expected the site's local error, got {other:?}"),
        }
    }

    // Neither dictionary tier moved: same exported tables, and the next
    // costed join answers both databases from the statistics cache.
    assert_eq!(tables(&fed), exported);
    let hits = counter(&fed, "planner.stats_cache_hits");
    fed.execute(EQUI_JOIN).unwrap();
    assert_eq!(counter(&fed, "planner.stats_fetches"), 2, "a refusal invalidates nothing");
    assert_eq!(counter(&fed, "planner.stats_cache_hits"), hits + 2);
}

/// The `est_rows` and `rows` notes of the join's two partials, continental's
/// and delta's.
fn partial_rows(report: &obs::ExplainReport) -> [(Option<u64>, u64); 2] {
    ["continental", "delta"].map(|db| {
        let span = report.tree.find(&format!("lam:partial:{db}")).expect("a partial per database");
        let num = |key: &str| span.note(key).map(|v| v.parse::<u64>().unwrap());
        (num("est_rows"), num("rows").expect("a rows note"))
    })
}

#[test]
fn costed_explain_reports_estimated_vs_actual_rows() {
    let mut fed = paper_federation();
    fed.execute("ANALYZE continental.flights").unwrap();
    fed.execute("ANALYZE delta.flight").unwrap();
    fed.execute("USE continental delta").unwrap();
    let report = fed.execute(&format!("EXPLAIN {EQUI_JOIN}")).unwrap().into_explain().unwrap();
    for (est_rows, rows) in partial_rows(&report) {
        assert!(est_rows.is_some(), "a costed partial notes its estimate:\n{}", report.render());
        assert!(rows > 0, "paper fixture partials are non-empty:\n{}", report.render());
    }

    // Without statistics no partial carries an estimate: the heuristic path
    // renders as it did before the planner existed.
    let mut plain = paper_federation();
    plain.execute("USE continental delta").unwrap();
    let report = plain.execute(&format!("EXPLAIN {EQUI_JOIN}")).unwrap().into_explain().unwrap();
    assert!(partial_rows(&report).iter().all(|(est_rows, _)| est_rows.is_none()));
    assert!(!report.render().contains("est_rows="), "{}", report.render());
}

#[test]
fn analyze_survives_rollback_semantics() {
    // DML after ANALYZE drifts the staleness counter, but the snapshot is
    // still served until it crosses the freshness threshold; the costed and
    // heuristic paths agree throughout.
    let mut fed = paper_federation();
    fed.execute("ANALYZE continental.flights").unwrap();
    fed.execute("ANALYZE delta.flight").unwrap();
    fed.execute("USE continental delta").unwrap();
    let before = fed.execute(EQUI_JOIN).unwrap().into_table().unwrap();
    {
        let engine = fed.engine("svc_continental").unwrap();
        let mut engine = engine.lock();
        engine
            .execute(
                "continental",
                "INSERT INTO flights VALUES (9, 'Houston', 'am', 'San Antonio', 'pm', 'mon', 55.0)",
            )
            .unwrap();
    }
    // The cache still holds the pre-DML snapshot; re-ANALYZE refreshes it.
    fed.execute("ANALYZE continental.flights").unwrap();
    let after = fed.execute(EQUI_JOIN).unwrap().into_table().unwrap();
    assert!(after.rows.len() > before.rows.len(), "new Houston flight joins delta rows");
}

/// Two sites: `db0.big` with `big_rows` wide rows (unique join keys), and
/// `db1.small` with 10 rows whose keys hit only the first 10 of `big`.
fn skewed_federation(big_rows: usize) -> Federation {
    let mut fed = Federation::with_network(Network::new());
    let mut e0 = Engine::new("svc0", DbmsProfile::oracle_like());
    e0.create_database("db0").unwrap();
    e0.execute("db0", "CREATE TABLE big (flnu INT, payload CHAR(40), rate FLOAT)").unwrap();
    for r in 0..big_rows {
        e0.execute(
            "db0",
            &format!("INSERT INTO big VALUES ({r}, 'payload-{r:032}', {}.5)", r % 97),
        )
        .unwrap();
    }
    let mut e1 = Engine::new("svc1", DbmsProfile::oracle_like());
    e1.create_database("db1").unwrap();
    e1.execute("db1", "CREATE TABLE small (k INT, tag CHAR(8))").unwrap();
    for r in 0..10 {
        e1.execute("db1", &format!("INSERT INTO small VALUES ({r}, 'tag{r}')")).unwrap();
    }
    fed.add_service("svc0", "site0", e0).unwrap();
    fed.add_service("svc1", "site1", e1).unwrap();
    fed.execute("IMPORT DATABASE db0 FROM SERVICE svc0").unwrap();
    fed.execute("IMPORT DATABASE db1 FROM SERVICE svc1").unwrap();
    fed.execute("USE db0 db1").unwrap();
    fed
}

#[test]
fn the_costed_plan_ships_at_most_half_the_heuristic_bytes() {
    // Tiny `small` drives the join into wide `big`, whose two vacuous
    // conjuncts bait conjunct counting into reducing from `big` — and past the
    // key cap into not reducing at all. Statistics reduce from `small`.
    const SKEWED_JOIN: &str = "SELECT s.k, b.payload FROM db1.small s, db0.big b
         WHERE s.k = b.flnu AND b.rate >= 0 AND b.flnu >= 0 ORDER BY s.k";
    let shipped = |fed: &Federation| -> u64 {
        let counters = fed.metrics().counters;
        counters.iter().filter(|(name, _)| name.starts_with("lam.bytes{")).map(|(_, v)| *v).sum()
    };
    for big_rows in [100, 400, 800] {
        let [(costed, costed_bytes), (heuristic, heuristic_bytes)] = [true, false].map(|costed| {
            let mut fed = skewed_federation(big_rows);
            if costed {
                fed.execute("ANALYZE db0.big").unwrap();
                fed.execute("ANALYZE db1.small").unwrap();
            }
            fed.execute(SKEWED_JOIN).unwrap(); // warm connections and the stats cache
            let before = shipped(&fed);
            let rows = fed.execute(SKEWED_JOIN).unwrap().into_table().unwrap().rows;
            (rows, shipped(&fed) - before)
        });
        assert_eq!(costed.len(), 10, "{big_rows} big rows");
        assert_eq!(costed, heuristic, "costed and heuristic plans must agree at {big_rows} rows");
        assert!(
            costed_bytes * 2 <= heuristic_bytes,
            "at {big_rows} big rows the costed plan shipped {costed_bytes}, \
             the heuristic {heuristic_bytes}"
        );
    }
}
