//! Cross-database joins: decomposition into largest local subqueries, a
//! coordinator collecting partial results, and the modified global query Q'
//! (paper §4.3's decomposition phase + §4.1's "partial results are collected
//! in one database, acting as the coordinator").

mod common;

use common::{engine_counters, lam_bytes, table_rows, Tap};
use ldbs::profile::DbmsProfile;
use ldbs::value::Value;
use ldbs::Engine;
use mdbs::fixtures::paper_federation;
use mdbs::proto::Request;
use mdbs::{Federation, WireFormat};
use netsim::Network;

#[test]
fn join_flights_with_cars_across_databases() {
    let mut fed = paper_federation();
    fed.execute("USE continental avis").unwrap();
    // Which available cars are cheaper per day than each Houston→San Antonio
    // flight? (A nonsensical but join-shaped business question.)
    let rs = fed
        .execute(
            "SELECT f.flnu, c.code
             FROM continental.flights f, avis.cars c
             WHERE f.source = 'Houston' AND f.destination = 'San Antonio'
               AND c.carst = 'available' AND c.rate < f.rate
             ORDER BY f.flnu, c.code",
        )
        .unwrap()
        .into_table()
        .unwrap();
    // flight 1 (rate 100) vs available cars 1 (39.5) and 3 (25.0).
    assert_eq!(rs.columns.len(), 2);
    assert_eq!(rs.columns[0].name, "flnu");
    assert_eq!(rs.columns[1].name, "code");
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.rows[0], vec![Value::Int(1), Value::Int(1)]);
    assert_eq!(rs.rows[1], vec![Value::Int(1), Value::Int(3)]);
}

#[test]
fn local_predicates_are_pushed_down() {
    // Verify pushdown operationally: byte traffic with a selective local
    // predicate must be lower than without it, because the partial result
    // shipped to the coordinator is smaller.
    let mut fed = paper_federation();
    fed.execute("USE continental avis").unwrap();
    let net = fed.network().clone();

    net.reset_stats();
    fed.execute(
        "SELECT f.flnu, c.code FROM continental.flights f, avis.cars c
         WHERE c.rate < f.rate",
    )
    .unwrap();
    let unfiltered = net.stats().bytes;

    net.reset_stats();
    fed.execute(
        "SELECT f.flnu, c.code FROM continental.flights f, avis.cars c
         WHERE f.flnu = 1 AND c.code = 1 AND c.rate < f.rate",
    )
    .unwrap();
    let filtered = net.stats().bytes;

    assert!(
        filtered < unfiltered,
        "pushdown should shrink shipped partials: {filtered} >= {unfiltered}"
    );
}

#[test]
fn aggregates_evaluate_at_the_coordinator() {
    let mut fed = paper_federation();
    fed.execute("USE continental avis").unwrap();
    let rs = fed
        .execute(
            "SELECT COUNT(*) AS pairs FROM continental.flights f, avis.cars c
             WHERE c.rate < f.rate",
        )
        .unwrap()
        .into_table()
        .unwrap();
    // 3 flights × 3 cars, count pairs where car rate < flight rate:
    // rates: flights 100/80/60; cars 39.5/59/25.
    // All three cars are cheaper than every flight: 3 × 3 = 9.
    assert_eq!(rs.rows[0][0], Value::Int(9));
}

#[test]
fn temporaries_are_cleaned_up_at_the_coordinator() {
    let mut fed = paper_federation();
    fed.execute("USE continental avis").unwrap();
    fed.execute(
        "SELECT f.flnu, c.code FROM continental.flights f, avis.cars c WHERE c.rate < f.rate",
    )
    .unwrap();
    // No part_* table remains in either database.
    for (svc, db) in [("svc_continental", "continental"), ("svc_avis", "avis")] {
        let engine = fed.engine(svc).unwrap();
        let engine = engine.lock();
        let names = engine.database(db).unwrap().table_names();
        assert!(
            names.iter().all(|n| !n.starts_with("part_")),
            "leftover temporaries in {db}: {names:?}"
        );
    }
}

/// The `part_*` tables currently at any site of the paper federation.
fn leftover_temporaries(fed: &mdbs::Federation) -> Vec<String> {
    let mut leftovers = Vec::new();
    for db in ["continental", "delta", "united", "avis", "national"] {
        let engine = fed.engine(&format!("svc_{db}")).unwrap();
        let names = engine.lock().database(db).unwrap().table_names();
        leftovers.extend(names.into_iter().filter(|n| n.starts_with("part_")));
    }
    leftovers
}

#[test]
fn a_failed_join_leaves_no_temporaries_at_the_coordinator() {
    use ldbs::engine::{ColumnMeta, ResultSet};
    use mdbs::lamclient::LamClient;
    use mdbs::proto::RowsResponse;
    use mdbs::retry::RetryPolicy;
    use std::time::Duration;

    let mut fed = paper_federation();
    fed.timeout = Duration::from_millis(150);
    fed.execute("USE continental avis").unwrap();

    // Q' fails at the coordinator: dividing a string by a number is a type
    // error, and the operands live in different databases, so no site
    // subquery — only the modified global query — evaluates the division.
    let err = fed
        .execute(
            "SELECT f.flnu FROM continental.flights f, avis.cars c
             WHERE c.rate < f.rate AND f.source / c.rate > 0",
        )
        .unwrap_err();
    assert!(matches!(err, mdbs::MdbsError::Local { .. }), "{err:?}");
    assert_eq!(leftover_temporaries(&fed), Vec::<String>::new(), "after a failed Q'");

    // A COMBINE refused on its second part (a row wider than its columns: no
    // well-formed message; a string in an INT column: no loadable table),
    // and one whose home subquery fails: none installs anything.
    let client =
        LamClient::connect(fed.network(), "site1", "continental", Duration::from_secs(5)).unwrap();
    let part = |row: Vec<Value>| ResultSet {
        columns: vec![ColumnMeta { name: "k".into(), data_type: ldbs::value::DataType::Int }],
        rows: vec![row],
    };
    let combine = |home_sql: &str, second: Vec<Value>| Request::Combine {
        database: "continental".into(),
        home: Some(("part_home".to_string(), home_sql.to_string())),
        parts: vec![
            ("part_one".to_string(), part(vec![Value::Int(1)])),
            ("part_two".to_string(), part(second)),
        ],
        sql: "SELECT part_one.k FROM part_one, part_two, part_home".into(),
        baseline: None,
    };
    let wide = vec![Value::Int(1), Value::Int(2)];
    for (what, request, said) in [
        ("a malformed part", combine("SELECT flnu FROM flights", wide), "2 values for 1 columns"),
        (
            "a refused part",
            combine("SELECT flnu FROM flights", vec![Value::Str("x".into())]),
            "'x'",
        ),
        (
            "a failed home subquery",
            combine("SELECT nope FROM flights", vec![Value::Int(1)]),
            "nope",
        ),
    ] {
        let refused = client.call(request).unwrap();
        assert!(
            matches!(&refused, RowsResponse::Err { message } if message.contains(said)),
            "{what}: {refused:?}"
        );
        assert_eq!(leftover_temporaries(&fed), Vec::<String>::new(), "after {what}");
    }
    // The same request, well-formed, is served — and cleans up as well.
    let served = client.call(combine("SELECT flnu FROM flights", vec![Value::Int(1)])).unwrap();
    let RowsResponse::CombineDone { payload: Some(rows), home_rows: 3, .. } = served else {
        panic!("{served:?}")
    };
    assert_eq!(rows.rows.len(), 3);
    assert_eq!(leftover_temporaries(&fed), Vec::<String>::new(), "after a served COMBINE");

    // COMBINE served but its reply lost (one attempt, so the statement fails
    // on the timeout): the LAM had dropped the temporaries before it replied.
    let join = "SELECT f.flnu, c.code FROM continental.flights f, avis.cars c
                WHERE c.rate < f.rate";
    let explain = fed.execute(&format!("EXPLAIN {join}")).unwrap().into_explain().unwrap();
    assert!(explain.render().contains("coordinator=continental"), "{}", explain.render());
    let tap = Tap::install(&mut fed, "svc_continental", "site1");
    tap.lose_next_combine_reply();
    let err = fed.execute(join).unwrap_err();
    assert!(matches!(err, mdbs::MdbsError::Net(_)), "{err:?}");
    assert_eq!(leftover_temporaries(&fed), Vec::<String>::new(), "after a lost COMBINE reply");
    // With a retry the resent COMBINE is answered from the LAM's reply cache:
    // the statement succeeds and the coordinator ran nothing twice.
    fed.retry = RetryPolicy::retries(3);
    let replayed =
        |fed: &mdbs::Federation| fed.metrics().gauges["lam.replayed{service=svc_continental}"];
    let (before, statements) = (replayed(&fed), engine_counters(&fed, "svc_continental").0);
    tap.lose_next_combine_reply();
    assert_eq!(fed.execute(join).unwrap().into_table().unwrap().rows.len(), 9);
    assert_eq!(replayed(&fed) - before, 1, "the retry was a replay");
    assert_eq!(
        engine_counters(&fed, "svc_continental").0 - statements,
        2,
        "the home subquery and Q', once each"
    );
    assert_eq!(leftover_temporaries(&fed), Vec::<String>::new(), "after a replayed COMBINE");
}

#[test]
fn a_join_never_touches_a_local_table_it_did_not_create() {
    // The sites are autonomous: a DBA may well own a table called
    // `part_avis`. A join used to replace it with its temporary and then
    // drop it.
    let mut fed = paper_federation();
    fed.execute("USE avis UPDATE cars SET rate = 80 WHERE code = 2").unwrap();
    let join = "USE avis continental
                SELECT c.code, f.flnu, f.rate FROM avis.cars c, continental.flights f
                WHERE c.rate = f.rate";
    let expected = fed.execute(join).unwrap().into_table().unwrap();
    // avis reduces, so continental coordinates and would hold `part_avis`.
    let engine = fed.engine("svc_continental").unwrap();
    let local = |sql: &str| engine.lock().execute("continental", sql);
    local("CREATE TABLE part_avis (owner CHAR(8))").unwrap();
    local("INSERT INTO part_avis VALUES ('dba')").unwrap();
    let err = fed.execute(join).unwrap_err();
    assert!(
        matches!(&err, mdbs::MdbsError::Local { message, .. } if message.contains("`part_avis`")),
        "{err:?}"
    );
    let kept = local("SELECT owner FROM part_avis").unwrap().into_result_set().unwrap();
    assert_eq!(kept.rows, vec![vec![Value::Str("dba".into())]]);
    assert_eq!(leftover_temporaries(&fed), vec!["part_avis".to_string()], "and nothing else");
    // Out of the way again, the join runs as before.
    local("DROP TABLE part_avis").unwrap();
    assert_eq!(fed.execute(join).unwrap().into_table().unwrap(), expected);
}

#[test]
fn concurrent_sessions_do_not_share_coordinator_temporaries() {
    // Two sessions running the same join used to load and drop the same
    // `part_<db>` tables at the coordinator, one's DROPMANY removing what the
    // other had just loaded ("unknown table part_avis").
    let mut fed = paper_federation();
    fed.execute("USE avis UPDATE cars SET rate = 80 WHERE code = 2").unwrap();
    let join = "USE avis continental
                SELECT c.code, f.flnu, f.rate FROM avis.cars c, continental.flights f
                WHERE c.rate = f.rate";
    let expected = fed.execute(join).unwrap().into_table().unwrap();
    assert!(!expected.rows.is_empty());
    let failures: Vec<String> = std::thread::scope(|scope| {
        let runs: Vec<_> = (0..2)
            .map(|_| {
                let (mut session, expected) = (fed.session(), &expected);
                scope.spawn(move || {
                    (0..300)
                        .filter_map(|_| match session.execute(join).and_then(|o| o.into_table()) {
                            Ok(rs) if rs == *expected => None,
                            Ok(rs) => Some(format!("wrong rows: {rs:?}")),
                            Err(e) => Some(e.to_string()),
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        runs.into_iter().flat_map(|run| run.join().unwrap()).collect()
    });
    assert_eq!(failures, Vec::<String>::new());
    for (svc, db) in [("svc_continental", "continental"), ("svc_avis", "avis")] {
        let engine = fed.engine(svc).unwrap();
        let names = engine.lock().database(db).unwrap().table_names();
        assert!(names.iter().all(|n| !n.starts_with("part_")), "leftovers in {db}: {names:?}");
    }
}

#[test]
fn a_local_error_names_the_database_not_the_site() {
    // `c.code + 'x'` is avis' own conjunct, so avis' partial is refused —
    // in the site's words, named by the database as a retrieval's is, not by
    // the site its LAM listens at. So is an IMPORT the site refuses.
    let mut fed = paper_federation();
    let service = |fed: &mut Federation, msql: &str, says: &str| match fed.execute(msql) {
        Err(mdbs::MdbsError::Local { service, message }) => {
            assert!(message.contains(says), "{msql}: {message}");
            service
        }
        other => panic!("{msql}: expected the site's local error, got {other:?}"),
    };
    let retrieval = "USE avis SELECT code FROM cars WHERE code + 'x' = 1";
    let join = "USE avis continental
                SELECT c.code, f.flnu FROM avis.cars c, continental.flights f
                WHERE c.rate = f.rate AND c.code + 'x' = 1";
    assert_eq!(service(&mut fed, retrieval, "'x'"), "avis");
    assert_eq!(service(&mut fed, join, "'x'"), "avis");
    assert_eq!(
        service(&mut fed, "IMPORT DATABASE nosuch FROM SERVICE svc_avis", "nosuch"),
        "nosuch"
    );
}

#[test]
fn a_joins_column_names_do_not_depend_on_the_session() {
    // An unaliased expression is named as the user wrote it, whatever the
    // coordinator's temporaries are called in the session that ran it.
    let mut fed = paper_federation();
    fed.execute("USE avis UPDATE cars SET rate = 80 WHERE code = 2").unwrap();
    let join = "USE avis continental
                SELECT c.code + 1, f.flnu FROM avis.cars c, continental.flights f
                WHERE c.rate = f.rate";
    let primary = fed.execute(join).unwrap().into_table().unwrap();
    let spawned = fed.session().execute(join).unwrap().into_table().unwrap();
    assert_eq!(primary.rows, vec![vec![Value::Int(3), Value::Int(2)]]);
    assert_eq!(primary.columns[0].name, "c.code + 1");
    assert_eq!(primary.columns[1].name, "flnu");
    assert_eq!(primary, spawned);
}

#[test]
fn three_way_cross_database_join() {
    let mut fed = paper_federation();
    fed.execute("USE continental delta avis").unwrap();
    let rs = fed
        .execute(
            "SELECT a.flnu, b.fnu, c.code
             FROM continental.flights a, delta.flight b, avis.cars c
             WHERE a.source = b.source AND a.source = 'Houston' AND c.code = 1
             ORDER BY a.flnu, b.fnu",
        )
        .unwrap()
        .into_table()
        .unwrap();
    // continental Houston flights: 1, 2; delta Houston flights: 10, 11.
    assert_eq!(rs.rows.len(), 4);
}

/// A selective cross-db equi-join: only Houston flights share a source with
/// delta, so shipping continental's distinct join keys first lets delta
/// filter most of its rows before they cross the wire.
const EQUI_JOIN: &str = "SELECT f.flnu, g.fnu
     FROM continental.flights f, delta.flight g
     WHERE f.source = g.source AND f.destination = g.dest
     ORDER BY f.flnu, g.fnu";

/// Three sites on the same two join keys. One pricey continental flight
/// reduces; of delta and united one coordinates (its rows stay home either
/// way) and the other still ships a partial — reduced or not.
const THREE_SITE_JOIN: &str = "SELECT f.flnu, g.fnu, u.fn
     FROM continental.flights f, delta.flight g, united.flight u
     WHERE f.source = g.source AND f.destination = g.dest
       AND f.source = u.sour AND f.destination = u.dest AND f.rate > 90
     ORDER BY f.flnu, g.fnu, u.fn";

/// `sites` databases `db0`, `db1`, … each holding a `flights` table of `rows`
/// rows on its own service; a quarter of the flights leave Houston.
fn airline_federation(sites: usize, rows: usize) -> Federation {
    let mut fed = Federation::with_network(Network::new());
    let mut scope = String::from("USE");
    for i in 0..sites {
        let db = format!("db{i}");
        let mut engine = Engine::new(format!("svc{i}"), DbmsProfile::oracle_like());
        engine.create_database(&db).unwrap();
        engine
            .execute(&db, "CREATE TABLE flights (flnu INT, source CHAR(20), rate FLOAT)")
            .unwrap();
        let cities = ["Houston", "Dallas", "Austin", "El Paso"];
        for r in 0..rows {
            let (source, rate) = (cities[r % cities.len()], 50 + r % 100);
            engine
                .execute(&db, &format!("INSERT INTO flights VALUES ({r}, '{source}', {rate})"))
                .unwrap();
        }
        fed.add_service(&format!("svc{i}"), &format!("site{i}"), engine).unwrap();
        fed.execute(&format!("IMPORT DATABASE {db} FROM SERVICE svc{i}")).unwrap();
        scope += &format!(" {db}");
    }
    fed.execute(&scope).unwrap();
    fed
}

/// Runs `query` once with the reduction on or off: its rows, the partial
/// bytes the sites shipped back (Σ `lam.bytes{db=}`) and everything the
/// network carried for the statement (`net.bytes`).
fn shipped(mut fed: Federation, semijoin: bool, query: &str) -> (Vec<Vec<Value>>, u64, u64) {
    fed.semijoin = semijoin;
    let before = fed.metrics_registry().counter("net.bytes");
    let rows = fed.execute(query).unwrap().into_table().unwrap().rows;
    (rows, lam_bytes(&fed), fed.metrics_registry().counter("net.bytes") - before)
}

#[test]
fn semijoin_reduces_shipped_bytes() {
    // `lam.bytes` counts the partial-result payloads shipped back from the
    // sites — the volume the semi-join reduction attacks. The coordinator's
    // own partial never ships, so it takes a third site to see it.
    let three_sites = |semijoin: bool| {
        let mut fed = paper_federation();
        fed.execute("USE continental delta united").unwrap();
        shipped(fed, semijoin, THREE_SITE_JOIN)
    };
    let (with, bytes_with, _) = three_sites(true);
    let (without, bytes_without, _) = three_sites(false);
    assert_eq!(with, vec![vec![Value::Int(1), Value::Int(10), Value::Int(20)]]);
    assert_eq!(with, without, "reduction must not change the result");
    assert!(
        bytes_with < bytes_without,
        "semijoin should ship fewer partial bytes: {bytes_with} >= {bytes_without}"
    );

    // A selective star join: `db0` reduces and travels, `db1` coordinates and
    // `db2` ships everything or only what matches `db0`'s keys — fewer partial
    // bytes, and fewer network bytes once the key list is paid for. With two
    // sites the one reduced partial is the coordinator's, which stays home:
    // the filter saves no wire bytes by itself. What it still decides is who
    // travels — the selective reducer, not whichever site the FROM list names
    // second.
    for rows in [20, 80, 320] {
        for sites in [2, 3] {
            let at = format!("{sites} sites, {rows} rows/site");
            let (from, edge) = match sites {
                2 => ("", ""),
                _ => (", db2.flights c", " AND a.flnu = c.flnu"),
            };
            let query = format!(
                "SELECT a.flnu, b.rate FROM db0.flights a, db1.flights b{from}
                 WHERE a.flnu = b.flnu{edge} AND a.source = 'Houston' ORDER BY a.flnu"
            );
            let run = |semijoin: bool| shipped(airline_federation(sites, rows), semijoin, &query);
            let (with, bytes_with, wire_with) = run(true);
            let (without, bytes_without, wire_without) = run(false);
            assert_eq!(with.len(), rows / 4, "{at}");
            assert_eq!(with, without, "reduction must not change the result: {at}");
            let reduced = match sites {
                2 => bytes_with <= bytes_without,
                _ => bytes_with < bytes_without && wire_with < wire_without,
            };
            assert!(
                reduced,
                "{at}: partials {bytes_with} vs {bytes_without}, network {wire_with} vs {wire_without}"
            );
        }
    }
}

#[test]
fn semijoin_on_and_off_agree_across_queries() {
    for query in [
        EQUI_JOIN,
        // Residual non-equi predicate on top of the equi key.
        "SELECT f.flnu, c.code FROM continental.flights f, avis.cars c
         WHERE f.flnu = c.code AND c.rate < f.rate ORDER BY f.flnu",
        // No equi keys at all: semijoin has nothing to do.
        "SELECT f.flnu, c.code FROM continental.flights f, avis.cars c
         WHERE c.rate < f.rate ORDER BY f.flnu, c.code",
        // Three sites, one equi edge.
        "SELECT a.flnu, b.fnu, c.code
         FROM continental.flights a, delta.flight b, avis.cars c
         WHERE a.source = b.source AND c.code = 1 ORDER BY a.flnu, b.fnu",
        // Three sites, edges from the reducer to both others: one of them is
        // the coordinator, the other receives its keys over the network.
        THREE_SITE_JOIN,
    ] {
        let run = |semijoin: bool| {
            let mut fed = paper_federation();
            fed.semijoin = semijoin;
            fed.execute("USE continental delta united avis").unwrap();
            fed.execute(query).unwrap().into_table().unwrap()
        };
        let on = run(true);
        let off = run(false);
        assert_eq!(on.rows, off.rows, "semijoin changed the result of {query}");
    }
}

#[test]
fn tiny_key_cap_falls_back_to_full_shipping() {
    let mut fed = paper_federation();
    fed.semijoin_cap = 0; // every key set exceeds the cap
    fed.execute("USE continental delta").unwrap();
    let reduced = {
        let mut f2 = paper_federation();
        f2.execute("USE continental delta").unwrap();
        f2.execute(EQUI_JOIN).unwrap().into_table().unwrap()
    };
    let rs = fed.execute(EQUI_JOIN).unwrap().into_table().unwrap();
    assert_eq!(rs.rows, reduced.rows, "capped fallback must match the reduced result");
}

#[test]
fn explain_reports_join_strategy_and_bytes_saved() {
    let mut fed = paper_federation();
    fed.execute("USE continental delta").unwrap();
    let report = fed.execute(&format!("EXPLAIN {EQUI_JOIN}")).unwrap().into_explain().unwrap();
    let join = report.tree.find("join").expect("cross-db EXPLAIN has a join span");
    let num = |key: &str| join.note(key).and_then(|v| v.parse::<u64>().ok());
    assert_eq!(join.note("strategy"), Some("semijoin+hash"));
    assert!(num("keys_shipped").is_some_and(|n| n > 0), "{join:?}");
    assert!(num("bytes_saved").is_some_and(|n| n > 0), "{join:?}");
    let text = report.render();
    assert!(text.contains("{strategy=semijoin+hash keys_shipped="), "{text}");
    assert!(text.contains(" bytes_saved="), "{text}");
}

#[test]
fn join_with_empty_partial_result() {
    let mut fed = paper_federation();
    fed.execute("USE continental avis").unwrap();
    let rs = fed
        .execute(
            "SELECT f.flnu, c.code FROM continental.flights f, avis.cars c
             WHERE f.source = 'Nowhere' AND c.rate < f.rate",
        )
        .unwrap()
        .into_table()
        .unwrap();
    assert!(rs.rows.is_empty());
}

#[test]
fn coordinator_requests_are_metered_like_every_other_request() {
    // Every logical LAM request is encoded once and its reply decoded once
    // against the federation's registry — the coordinator's COMBINE included
    // (its predecessors used to land in a private registry and vanish).
    for format in [mdbs::WireFormat::Text, mdbs::WireFormat::Binary] {
        let mut fed = paper_federation();
        fed.wire_format = format;
        fed.execute("USE continental avis").unwrap();
        let join = "SELECT f.flnu, c.code FROM continental.flights f, avis.cars c
                    WHERE c.rate < f.rate";
        // Warm-up: connections pooled, the statistics cache answered.
        fed.execute(join).unwrap();
        let series = |name: &str| obs::labeled(name, "format", format.label());
        let before = fed.metrics();
        fed.execute(join).unwrap();
        let after = fed.metrics();
        let grew = |name: &str| {
            let count = |m: &obs::MetricsSnapshot| m.histograms.get(name).map_or(0, |h| h.count);
            count(&after) - count(&before)
        };
        let messages = after.counters["net.messages"] - before.counters["net.messages"];
        // One partial travels, then the COMBINE at the coordinator.
        assert_eq!(grew(&series("wire.encode_us")), 2, "{format:?}");
        assert_eq!(grew(&series("wire.decode_us")), 2, "{format:?}");
        assert_eq!(messages, 4, "{format:?}: one request and one reply each");
    }
}

/// A site runs each subquery once. Only `EXPLAIN` asks the reduced site to
/// evaluate the unreduced subquery as well, to report what the semi-join
/// saved; a plain statement sends no baseline and scans no row for one —
/// pinned on the wire (what `COMBINE` carried for the reduced home subquery)
/// and in the engines' own counters, under both wire formats.
#[test]
fn a_reduced_join_runs_each_subquery_once_outside_explain() {
    for format in [WireFormat::Text, WireFormat::Binary] {
        let mut fed = paper_federation();
        fed.wire_format = format;
        let tap = Tap::install(&mut fed, "svc_delta", "site2");
        fed.execute("USE continental delta").unwrap();
        let flights = table_rows(&fed, "svc_continental", "continental", "flights");
        let flight = table_rows(&fed, "svc_delta", "delta", "flight");
        tap.drain_partials();

        // Plain execute: continental (the reducer) and delta (the
        // coordinator, in place) scan their table once each; delta then scans
        // the two temp tables.
        let cont0 = engine_counters(&fed, "svc_continental");
        let delta0 = engine_counters(&fed, "svc_delta");
        let rs = fed.execute(EQUI_JOIN).unwrap().into_table().unwrap();
        let cont1 = engine_counters(&fed, "svc_continental");
        let delta1 = engine_counters(&fed, "svc_delta");
        // `lam.rows` counts the rows of the shipped partial; one delta flight
        // survives the key filter and is materialised at home.
        let shipped = fed.metrics_registry().counter("lam.rows{db=continental}");
        assert_eq!(fed.metrics_registry().counter("lam.rows{db=delta}"), 0, "nothing left delta");
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(cont1.0 - cont0.0, 1, "{format:?}: continental ran one statement");
        assert_eq!(cont1.1 - cont0.1, flights, "{format:?}: continental scanned its table once");
        assert_eq!(delta1.0 - delta0.0, 2, "{format:?}: the home subquery and Q'");
        assert_eq!(
            delta1.1 - delta0.1,
            flight + shipped + 1,
            "{format:?}: one scan plus Q' over the partials"
        );
        let sent = tap.drain_partials();
        let [Request::Combine { home: Some((_, sql)), baseline: None, parts, .. }] =
            sent.as_slice()
        else {
            panic!("{format:?}: delta should see one COMBINE without a baseline, saw {sent:?}");
        };
        assert_eq!(parts.len(), 1, "only continental's partial travelled");
        assert!(sql.contains(" IN ("), "the subquery was semi-join reduced: {sql}");
        assert_eq!(fed.metrics_registry().counter("lam.bytes_saved{db=delta}"), 0);

        // EXPLAIN of the same statement: delta also runs the unreduced
        // subquery, and the report shows what the reduction saved.
        let report = fed.execute(&format!("EXPLAIN {EQUI_JOIN}")).unwrap().into_explain().unwrap();
        let delta2 = engine_counters(&fed, "svc_delta");
        assert_eq!(delta2.0 - delta1.0, 3, "{format:?}: reduced subquery + baseline + Q'");
        assert_eq!(
            delta2.1 - delta1.1,
            2 * flight + shipped + 1,
            "{format:?}: the baseline scans the table again"
        );
        let sent = tap.drain_partials();
        let [Request::Combine { baseline: Some(unreduced), .. }] = sent.as_slice() else {
            panic!("{format:?}: EXPLAIN sends the baseline, saw {sent:?}");
        };
        assert!(!unreduced.contains(" IN ("), "{unreduced}");
        let text = report.render();
        let join = report.tree.find("join").expect("a join span");
        let bytes_saved: u64 =
            join.note("bytes_saved").expect("a bytes_saved note").parse().unwrap();
        assert!(bytes_saved > 0 && text.contains(&format!("saved={bytes_saved}}}")), "{text}");
        assert_eq!(
            fed.metrics_registry().counter("lam.bytes_saved{db=delta}"),
            bytes_saved,
            "{format:?}"
        );
        if format == WireFormat::Text {
            // The text-wire numbers are the ones the goldens always showed.
            assert!(text.contains("access=scan saved=31}"), "{text}");
            assert_eq!(bytes_saved, 31, "{text}");
        }
    }
}
