//! Experiment Q4 — the §3.4 travel-agent multitransaction.
//!
//! Two multiple queries (flight reservation on continental+delta, car
//! reservation on avis+national, both exploiting function replication) and
//! two acceptable termination states in preference order:
//! `continental AND national` then `delta AND avis`.

use ldbs::failure::FailurePolicy;
use ldbs::profile::DbmsProfile;
use ldbs::value::Value;
use ldbs::Engine;
use mdbs::fixtures::paper_federation;
use mdbs::Federation;
use netsim::Network;

const TRAVEL_AGENT: &str = "BEGIN MULTITRANSACTION
    USE continental delta
    LET fltab.snu.sstat.clname BE
        f838.seatnu.seatstatus.clientname
        f747.snu.sstat.passname
    UPDATE fltab
    SET sstat = 'TAKEN', clname = 'wenders'
    WHERE snu = ( SELECT MIN(snu) FROM fltab WHERE sstat = 'FREE');
    USE avis national
    LET cartab.ccode.cstat BE cars.code.carst vehicle.vcode.vstat
    UPDATE cartab
    SET cstat = 'TAKEN', client = 'wenders'
    WHERE ccode = ( SELECT MIN(ccode) FROM cartab WHERE cstat = 'available');
    COMMIT
      continental AND national
      delta AND avis
    END MULTITRANSACTION";

fn seat_status(fed: &Federation, service: &str, db: &str, sql: &str) -> Vec<Vec<Value>> {
    let engine = fed.engine(service).unwrap();
    let mut engine = engine.lock();
    engine.execute(db, sql).unwrap().into_result_set().unwrap().rows
}

#[test]
fn preferred_state_continental_and_national() {
    let mut fed = paper_federation();
    let report = fed.execute(TRAVEL_AGENT).unwrap().into_mtx().unwrap();
    assert_eq!(report.achieved_state, Some(0), "{report:?}");
    assert_eq!(report.return_code, 0);

    let by_key = |k: &str| report.outcomes.iter().find(|o| o.key == k).unwrap();
    assert_eq!(by_key("continental").status, dol::TaskStatus::Committed);
    assert_eq!(by_key("national").status, dol::TaskStatus::Committed);
    // The exclusion constraint: delta and avis are rolled back.
    assert_eq!(by_key("delta").status, dol::TaskStatus::Aborted);
    assert_eq!(by_key("avis").status, dol::TaskStatus::Aborted);

    // continental seat 2 (lowest FREE) is taken by wenders.
    let rows = seat_status(
        &fed,
        "svc_continental",
        "continental",
        "SELECT seatstatus, clientname FROM f838 WHERE seatnu = 2",
    );
    assert_eq!(rows[0][0], Value::Str("TAKEN".into()));
    assert_eq!(rows[0][1], Value::Str("wenders".into()));
    // delta seat 1 stays FREE (its reservation was rolled back).
    let rows = seat_status(&fed, "svc_delta", "delta", "SELECT sstat FROM f747 WHERE snu = 1");
    assert_eq!(rows[0][0], Value::Str("FREE".into()));
    // national vehicle 7 taken, avis car 1 still available.
    let rows = seat_status(
        &fed,
        "svc_national",
        "national",
        "SELECT vstat, client FROM vehicle WHERE vcode = 7",
    );
    assert_eq!(rows[0][0], Value::Str("TAKEN".into()));
    let rows = seat_status(&fed, "svc_avis", "avis", "SELECT carst FROM cars WHERE code = 1");
    assert_eq!(rows[0][0], Value::Str("available".into()));
}

#[test]
fn falls_back_to_delta_and_avis() {
    let mut fed = paper_federation();
    // continental's seat table refuses writes → the preferred state is
    // unreachable.
    fed.engine("svc_continental").unwrap().lock().failure_policy_mut().fail_writes_to("f838");

    let report = fed.execute(TRAVEL_AGENT).unwrap().into_mtx().unwrap();
    assert_eq!(report.achieved_state, Some(1), "{report:?}");
    assert_eq!(report.return_code, 1);
    let by_key = |k: &str| report.outcomes.iter().find(|o| o.key == k).unwrap();
    assert_eq!(by_key("delta").status, dol::TaskStatus::Committed);
    assert_eq!(by_key("avis").status, dol::TaskStatus::Committed);
    assert_eq!(by_key("continental").status, dol::TaskStatus::Aborted);
    assert_eq!(by_key("national").status, dol::TaskStatus::Aborted);

    // The undesirable cross combinations never commit.
    let rows =
        seat_status(&fed, "svc_delta", "delta", "SELECT sstat, passname FROM f747 WHERE snu = 1");
    assert_eq!(rows[0][0], Value::Str("TAKEN".into()));
    assert_eq!(rows[0][1], Value::Str("wenders".into()));
    let rows =
        seat_status(&fed, "svc_avis", "avis", "SELECT carst, client FROM cars WHERE code = 1");
    assert_eq!(rows[0][0], Value::Str("TAKEN".into()));
}

#[test]
fn no_acceptable_state_fails_and_undoes_everything() {
    let mut fed = paper_federation();
    // Kill one member of each acceptable state.
    fed.engine("svc_continental").unwrap().lock().failure_policy_mut().fail_writes_to("f838");
    fed.engine("svc_avis").unwrap().lock().failure_policy_mut().fail_writes_to("cars");

    let report = fed.execute(TRAVEL_AGENT).unwrap().into_mtx().unwrap();
    assert_eq!(report.achieved_state, None, "{report:?}");
    // Everything is rolled back — no partial trip plan survives.
    for o in &report.outcomes {
        assert_ne!(o.status, dol::TaskStatus::Committed, "{o:?}");
    }
    let rows = seat_status(&fed, "svc_delta", "delta", "SELECT sstat FROM f747 WHERE snu = 1");
    assert_eq!(rows[0][0], Value::Str("FREE".into()));
    let rows =
        seat_status(&fed, "svc_national", "national", "SELECT vstat FROM vehicle WHERE vcode = 7");
    assert_eq!(rows[0][0], Value::Str("available".into()));
}

#[test]
fn outcome_is_consistent_with_the_mtx_oracle() {
    // Cross-check the DOL execution against the direct §3.4 rule.
    let mut fed = paper_federation();
    fed.engine("svc_continental").unwrap().lock().failure_policy_mut().fail_writes_to("f838");
    let report = fed.execute(TRAVEL_AGENT).unwrap().into_mtx().unwrap();
    let statuses: std::collections::HashMap<String, dol::TaskStatus> =
        report.outcomes.iter().map(|o| (o.key.clone(), o.status)).collect();
    let states = vec![
        vec!["continental".to_string(), "national".to_string()],
        vec!["delta".to_string(), "avis".to_string()],
    ];
    assert!(mdbs::mtx::is_consistent_outcome(&states, &statuses));
    assert_eq!(mdbs::mtx::realised_state(&states, &statuses), report.achieved_state);
}

#[test]
fn acceptable_state_with_unknown_database_is_rejected() {
    let mut fed = paper_federation();
    let err = fed.execute(
        "BEGIN MULTITRANSACTION
           USE continental delta
           UPDATE f% SET sstat = 'TAKEN' WHERE snu = 1;
           COMMIT hertz
         END MULTITRANSACTION",
    );
    assert!(matches!(err, Err(mdbs::MdbsError::Mtx(_))), "{err:?}");
}

/// A reservation multitransaction over `2·a` replicated databases: a seat on
/// each even one ("flights") and on each odd one ("cars"); acceptable state
/// `i` pairs flight `i` with car `i`.
fn replicated_reservation(a: usize) -> String {
    let update = "UPDATE seats SET sstat = 'TAKEN', client = 'wenders'
         WHERE snu = (SELECT MIN(snu) FROM seats WHERE sstat = 'FREE');";
    let scope = |parity: usize| {
        (0..a).map(|i| format!("db{}", 2 * i + parity)).collect::<Vec<_>>().join(" ")
    };
    let states: Vec<String> = (0..a).map(|i| format!("db{} AND db{}", 2 * i, 2 * i + 1)).collect();
    format!(
        "BEGIN MULTITRANSACTION\nUSE {}\n{update}\nUSE {}\n{update}\nCOMMIT\n{}\nEND MULTITRANSACTION",
        scope(0),
        scope(1),
        states.join(",\n")
    )
}

/// Of 24 seeded trials, how many reach an acceptable state when each of the
/// `2·a` databases fails a statement with probability `p`.
fn successes(a: usize, p: f64) -> usize {
    (0..24)
        .filter(|trial| {
            let mut fed = Federation::with_network(Network::new());
            for i in 0..2 * a {
                let db = format!("db{i}");
                let mut engine = Engine::new(format!("svc{i}"), DbmsProfile::oracle_like());
                engine.create_database(&db).unwrap();
                engine
                    .execute(&db, "CREATE TABLE seats (snu INT, sstat CHAR(8), client CHAR(20))")
                    .unwrap();
                for s in 0..8 {
                    engine
                        .execute(&db, &format!("INSERT INTO seats VALUES ({s}, 'FREE', NULL)"))
                        .unwrap();
                }
                let seed = (trial * 31 + i) as u64;
                engine.set_failure_policy(FailurePolicy::with_probabilities(seed, p, 0.0));
                fed.add_service(&format!("svc{i}"), &format!("site{i}"), engine).unwrap();
                fed.execute(&format!("IMPORT DATABASE {db} FROM SERVICE svc{i}")).unwrap();
            }
            let report = fed.execute(&replicated_reservation(a)).unwrap().into_mtx().unwrap();
            report.achieved_state.is_some()
        })
        .count()
}

#[test]
fn more_replicated_alternatives_reach_an_acceptable_state_more_often() {
    // §3.4's flexible-transaction argument: function replication turns a
    // member's failure into another acceptable state. Seeded, so the counts
    // are exact; the shape is the claim.
    for (p, pinned) in [(0.2, [15, 21, 23]), (0.4, [11, 16, 19])] {
        let counts = [1, 2, 4].map(|a| successes(a, p));
        assert_eq!(counts, pinned, "successes of 24 for 1/2/4 alternatives at p = {p}");
        assert!(counts.windows(2).all(|w| w[0] <= w[1]) && counts[0] < counts[2], "{counts:?}");
    }
}
