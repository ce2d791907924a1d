//! Property test for the semi-join reduction: over random two- and three-table
//! data and random cross-database equi-join predicates, a federation with the
//! reduction enabled returns exactly the rows of one with it disabled —
//! including under key-set caps that force the full-shipping fallback and
//! NULL join keys that can never match. With two sites the reduced site is
//! the coordinator (its filter rides inside `COMBINE`); the third site is
//! there so a filter also travels to a site whose partial then ships.

use mdbs::fixtures::paper_federation_with;
use mdbs::Federation;
use netsim::Network;
use proptest::prelude::*;

const CITIES: [&str; 3] = ["Houston", "Dallas", "Austin"];

#[derive(Debug, Clone, Copy)]
struct FlightRow {
    num: i64,
    source: Option<usize>, // index into CITIES, None = NULL
    dest: Option<usize>,
    rate: i64, // whole-dollar rates so equi matches actually occur
}

fn city_sql(idx: Option<usize>) -> String {
    match idx {
        Some(i) => format!("'{}'", CITIES[i]),
        None => "NULL".to_string(),
    }
}

fn flight_row() -> impl Strategy<Value = FlightRow> {
    let city = prop_oneof![4 => (0usize..CITIES.len()).prop_map(Some), 1 => Just(None)];
    (0i64..1000, city.clone(), city, 5i64..9).prop_map(|(num, source, dest, rate)| FlightRow {
        num,
        source,
        dest,
        rate: rate * 10,
    })
}

/// A fresh federation whose continental.flights / delta.flight /
/// united.flight tables hold exactly the given random rows.
fn federation_with_rows(
    left: &[FlightRow],
    right: &[FlightRow],
    third: &[FlightRow],
) -> Federation {
    let fed = paper_federation_with(Network::new(), Default::default());
    for (svc, db, table, numcol, destcol, rows) in [
        ("svc_continental", "continental", "flights", "flnu", "destination", left),
        ("svc_delta", "delta", "flight", "fnu", "dest", right),
        ("svc_united", "united", "flight", "fn", "dest", third),
    ] {
        let engine = fed.engine(svc).unwrap();
        let mut engine = engine.lock();
        engine.execute(db, &format!("DELETE FROM {table}")).unwrap();
        for r in rows {
            let (src, dst) = (city_sql(r.source), city_sql(r.dest));
            let sql = if numcol == "flnu" {
                format!(
                    "INSERT INTO {table} VALUES ({}, {src}, 'am', {dst}, 'pm', 'mon', {})",
                    r.num, r.rate
                )
            } else {
                // delta and united: source, dest, then the times.
                format!(
                    "INSERT INTO {table} VALUES ({}, {src}, {dst}, 'am', 'pm', 'tue', {})",
                    r.num, r.rate
                )
            };
            engine.execute(db, &sql).unwrap();
        }
        let _ = (destcol, numcol);
    }
    fed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn semijoin_on_equals_semijoin_off(
        left in proptest::collection::vec(flight_row(), 0..10),
        right in proptest::collection::vec(flight_row(), 0..10),
        on_source in proptest::bool::ANY,
        on_dest in proptest::bool::ANY,
        on_rate in proptest::bool::ANY,
        residual in proptest::bool::ANY,
        cap in prop::sample::select(vec![0usize, 1, 3, 256]),
    ) {
        let mut conjuncts = Vec::new();
        if on_source {
            conjuncts.push("f.source = g.source");
        }
        if on_dest {
            conjuncts.push("f.destination = g.dest");
        }
        if on_rate {
            conjuncts.push("f.rate = g.rate");
        }
        if conjuncts.is_empty() {
            conjuncts.push("f.source = g.source"); // always at least one equi edge
        }
        if residual {
            conjuncts.push("f.flnu < g.fnu");
        }
        let sql = format!(
            "SELECT f.flnu, g.fnu FROM continental.flights f, delta.flight g
             WHERE {} ORDER BY f.flnu, g.fnu",
            conjuncts.join(" AND ")
        );

        let run = |semijoin: bool| {
            let mut fed = federation_with_rows(&left, &right, &[]);
            fed.semijoin = semijoin;
            fed.semijoin_cap = cap;
            fed.execute("USE continental delta").unwrap();
            fed.execute(&sql).unwrap().into_table().unwrap()
        };
        let on = run(true);
        let off = run(false);
        prop_assert_eq!(&on.columns.len(), &off.columns.len());
        prop_assert_eq!(&on.rows, &off.rows, "semijoin changed the result of `{}`", sql);
    }

    #[test]
    fn three_site_semijoin_on_off_and_costed_agree(
        left in proptest::collection::vec(flight_row(), 0..8),
        right in proptest::collection::vec(flight_row(), 0..8),
        third in proptest::collection::vec(flight_row(), 0..8),
        star in proptest::bool::ANY,
        selective in proptest::bool::ANY,
        cap in prop::sample::select(vec![0usize, 2, 256]),
    ) {
        // A star around continental (it has an edge to both others) or a
        // chain continental – delta – united; `selective` makes continental
        // the heuristic reducer by giving it the only local conjunct.
        let second = if star { "f.destination = u.dest" } else { "g.dest = u.dest" };
        let local = if selective { " AND f.rate > 60" } else { "" };
        let sql = format!(
            "SELECT f.flnu, g.fnu, u.fn
             FROM continental.flights f, delta.flight g, united.flight u
             WHERE f.source = g.source AND {second}{local} ORDER BY f.flnu, g.fnu, u.fn"
        );
        // (semijoin, ANALYZE every table first so the costed planner decides)
        let run = |semijoin: bool, costed: bool| {
            let mut fed = federation_with_rows(&left, &right, &third);
            fed.semijoin = semijoin;
            fed.semijoin_cap = cap;
            fed.execute("USE continental delta united").unwrap();
            if costed {
                for table in ["continental.flights", "delta.flight", "united.flight"] {
                    fed.execute(&format!("ANALYZE {table}")).unwrap();
                }
            }
            fed.execute(&sql).unwrap().into_table().unwrap()
        };
        let off = run(false, false);
        prop_assert_eq!(&run(true, false).rows, &off.rows, "semijoin changed `{}`", sql);
        prop_assert_eq!(&run(true, true).rows, &off.rows, "costed semijoin changed `{}`", sql);
    }
}
