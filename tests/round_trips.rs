//! The round-trip budget, gated exactly.
//!
//! On a wide-area fabric a statement's latency is its *sequential round
//! trips* times the link latency, so the messages a statement may send are
//! part of its contract. This suite pins `net.messages` per statement class
//! of the paper workload, on both wire formats:
//!
//! * **cold** — the first statement of a fresh [`mdbs::Session`] pays one
//!   `PING` handshake (2 messages) per database it opens — for a join, only
//!   its coordinator's: a travelling partial's LAM is sent its `SHIP` and
//!   nothing else;
//! * **warm** — every later statement reuses the session's pooled
//!   connections and sends only messages that carry work: one request and
//!   one reply per task and per settle acknowledgement; a join sends a SHIP
//!   and a PART per travelling partial, and one exchange (COMBINE) at its
//!   coordinator.
//!
//! What a statement returns never depends on which of the two it was. The
//! warm run repeats the cold run's text, so it runs the plan the session
//! cached (DESIGN §3a.18); it sends what a freshly translated text sends.
//!
//! Messages bound a statement's round trips from above; the suite also pins
//! how many of them are *sequential*, by the clock, in half round trips: on
//! a fabric where every message takes 25 ms a warm statement waits 25 ms per
//! sequential one-way hop, whatever it overlaps.

use mdbs::fixtures::paper_federation;
use mdbs::{MsqlOutcome, Session, WireFormat};
use netsim::LatencyModel;
use std::time::{Duration, Instant};

/// `(class, MSQL, cold messages, warm messages)`. The statements are the
/// `paper_wan` / `paper_local` classes of the end-to-end benchmark.
const CLASSES: &[(&str, &str, u64, u64)] = &[
    (
        "q1_flights",
        "USE continental delta united
         SELECT day, ~rate% FROM flight% WHERE sour% = 'Houston'",
        12,
        6,
    ),
    (
        "q1_cars",
        "USE avis national
         LET car.type.status BE cars.cartype.carst vehicle.vty.vstat
         SELECT %code, type, ~rate FROM car WHERE status = 'available'",
        8,
        4,
    ),
    (
        "q2_nonvital",
        "USE continental delta united
         UPDATE flight% SET rate% = rate% + 1
         WHERE sour% = 'Houston' AND dest% = 'San Antonio'",
        12,
        6,
    ),
    (
        // Three tasks, then one COMMIT list naming the two vital members.
        "q2_vital",
        "USE continental VITAL delta united VITAL
         UPDATE flight% SET rate% = rate% - 1
         WHERE sour% = 'Houston' AND dest% = 'San Antonio'",
        16,
        10,
    ),
    (
        // Four tasks, one COMMIT list (2 members), one ABORT list (2 others).
        "q4_mtx",
        "BEGIN MULTITRANSACTION
         USE continental delta
         LET fltab.snu.sstat.clname BE
             f838.seatnu.seatstatus.clientname
             f747.snu.sstat.passname
         UPDATE fltab
         SET sstat = 'TAKEN', clname = 'gate'
         WHERE snu = ( SELECT MIN(snu) FROM fltab WHERE sstat = 'FREE');
         USE avis national
         LET cartab.ccode.cstat BE cars.code.carst vehicle.vcode.vstat
         UPDATE cartab
         SET cstat = 'TAKEN', client = 'gate'
         WHERE ccode = ( SELECT MIN(ccode) FROM cartab WHERE cstat = 'available');
         COMMIT
           continental AND national
           delta AND avis
         END MULTITRANSACTION",
        24,
        16,
    ),
    (
        "q4_reset",
        "USE continental
         UPDATE f838 SET seatstatus = 'FREE', clientname = NULL WHERE clientname = 'gate'",
        4,
        2,
    ),
    (
        // One autocommit task at the analyzed table's database.
        "analyze",
        "ANALYZE delta.flight",
        4,
        2,
    ),
    (
        // The source's task, then the target's one INSERT.
        "transfer",
        "USE continental avis
         INSERT INTO avis.fares (flnu, rate)
         SELECT flnu, rate FROM continental.flights WHERE source = 'Houston'",
        8,
        4,
    ),
    (
        // A SHIP to the reducer and the COMBINE at the other site, whose own
        // subquery rides inside it and is reduced there; the reducer's PART
        // goes straight to the coordinator's LAM, and only the COMBINE is
        // answered. Cold, one handshake: the coordinator's. The reducer's
        // LAM is sent only its SHIP, and no connection is opened to it.
        "xjoin_small",
        "USE avis continental
         SELECT c.code, f.flnu, f.rate FROM avis.cars c, continental.flights f
         WHERE c.rate = f.rate",
        6,
        4,
    ),
];

/// `(class, sequential half round trips warm)` — one-way hops, by the clock:
/// two per task batch or settle wave, three for a join.
const SEQUENTIAL: &[(&str, u32)] = &[
    ("q1_flights", 2),
    ("q1_cars", 2),
    ("q2_nonvital", 2),
    // The three tasks, then the COMMIT list.
    ("q2_vital", 4),
    // The four tasks, then the COMMIT and ABORT lists as one wave.
    ("q4_mtx", 4),
    ("q4_reset", 2),
    // The SHIP and the COMBINE out together, the PART from LAM to LAM, the
    // COMBINE's reply back: one and a half round trips.
    ("xjoin_small", 3),
];

/// What the user sees of an outcome, minus communication accounting (a cold
/// run's `attempts` include its handshakes).
fn visible(outcome: &MsqlOutcome) -> String {
    match outcome {
        MsqlOutcome::Update(r) => format!(
            "update success={} rc={} {:?}",
            r.success,
            r.return_code,
            r.outcomes.iter().map(|o| (&o.key, o.status, o.affected)).collect::<Vec<_>>()
        ),
        MsqlOutcome::Mtx(r) => format!(
            "mtx state={:?} rc={} {:?}",
            r.achieved_state,
            r.return_code,
            r.outcomes.iter().map(|o| (&o.key, o.status, o.affected)).collect::<Vec<_>>()
        ),
        other => format!("{other:?}"),
    }
}

/// Executes `msql`, returning the messages it put on the fabric and what it
/// answered.
fn measure(session: &mut Session, msql: &str) -> (u64, String) {
    let before = session.metrics_registry().counter("net.messages");
    let outcome = session.execute(msql).expect("gated statements execute");
    (session.metrics_registry().counter("net.messages") - before, visible(&outcome))
}

fn gate(format: WireFormat) {
    let mut fed = paper_federation();
    fed.wire_format = format;
    // As in the benchmark: give the rented avis car the fare of a
    // continental flight, so the join returns a row.
    fed.execute("USE avis UPDATE cars SET rate = 80 WHERE code = 2").unwrap();
    fed.execute("CREATE TABLE avis.fares (flnu INT, rate FLOAT)").unwrap();
    // The planner's statistics cache is per federation, not per session:
    // fill it here so neither measured run of the join pays the STATS fetch.
    fed.execute(CLASSES.last().unwrap().1).unwrap();

    let hits = |session: &Session| session.metrics_registry().counter("plan_cache.hits");
    for &(class, msql, cold, warm) in CLASSES {
        // ANALYZE and a transfer are never prepared, so never cached.
        let cached = u64::from(!matches!(class, "analyze" | "transfer"));
        // IMPORT warmed the primary session's pool; a new session is cold.
        let mut session = fed.session();
        let (cold_msgs, cold_answer) = measure(&mut session, msql);
        let before = hits(&session);
        let (warm_msgs, warm_answer) = measure(&mut session, msql);
        assert_eq!(hits(&session), before + cached, "{class}: the second run is a plan-cache hit");
        assert_eq!(cold_msgs, cold, "{class} cold, {format:?}");
        assert_eq!(warm_msgs, warm, "{class} warm, {format:?}");
        // (The reset's second run finds nothing left to free.)
        if class != "q4_reset" {
            assert_eq!(cold_answer, warm_answer, "{class}, {format:?}");
        }
        // Every connection the session opened is back in its pool, and a
        // third run costs what the second did.
        assert_eq!(measure(&mut session, msql).0, warm, "{class} steady state, {format:?}");
        // A hit sends exactly what translating afresh sends: the same text
        // made new by a trailing space is prepared again, on the same warm
        // connections.
        let before = hits(&session);
        let (miss_msgs, _) = measure(&mut session, &format!("{msql} "));
        assert_eq!(hits(&session), before, "{class}: a new text is a miss");
        assert_eq!(miss_msgs, warm, "{class} warm miss, {format:?}");
    }
}

#[test]
fn text_wire_round_trips_are_pinned() {
    gate(WireFormat::Text);
}

#[test]
fn binary_wire_round_trips_are_pinned() {
    gate(WireFormat::Binary);
}

#[test]
fn sequential_round_trips_are_pinned_by_the_clock() {
    const ONE_WAY: Duration = Duration::from_millis(25);
    let mut fed = paper_federation();
    fed.execute("USE avis UPDATE cars SET rate = 80 WHERE code = 2").unwrap();
    fed.execute(CLASSES.last().unwrap().1).unwrap();
    fed.network().set_latency(LatencyModel::uniform(ONE_WAY));
    let round_trip = (2 * ONE_WAY).as_secs_f64();
    for &(class, halves) in SEQUENTIAL {
        let msql = CLASSES.iter().find(|c| c.0 == class).unwrap().1;
        let mut session = fed.session();
        // Warm up the connections, then take the best of three warm runs: a
        // busy host can only add time, never take a round trip away.
        session.execute(msql).unwrap();
        let best = (0..3)
            .map(|_| {
                let start = Instant::now();
                session.execute(msql).unwrap();
                start.elapsed().as_secs_f64() / round_trip
            })
            .fold(f64::INFINITY, f64::min);
        let k = f64::from(halves) / 2.0;
        assert!(k <= best && best < k + 0.6, "{class}: {best:.2} round trips, expected {k}");
    }
    fed.network().set_latency(LatencyModel::instant());
}

/// Client endpoints currently registered on the federation's network.
fn client_endpoints(session: &Session) -> usize {
    session.network().site_names().iter().filter(|n| n.starts_with("__cli_")).count()
}

#[test]
fn a_session_holds_its_connections_instead_of_churning_endpoints() {
    let fed = paper_federation();
    let before = client_endpoints(&fed);
    let mut session = fed.session();
    let mix: Vec<&str> = ["q1_flights", "q1_cars", "q2_nonvital", "q2_vital", "xjoin_small"]
        .iter()
        .map(|class| CLASSES.iter().find(|c| c.0 == *class).unwrap().1)
        .collect();
    for msql in &mix {
        session.execute(msql).unwrap(); // warm-up: one connection per database
    }
    let links = fed.network().stats().per_link.len();
    let endpoints = client_endpoints(&fed);
    assert_eq!(endpoints, before + 5, "one pooled connection per database");
    for i in 0..500 {
        session.execute(mix[i % mix.len()]).unwrap();
    }
    assert_eq!(fed.network().stats().per_link.len(), links, "no new link per statement");
    assert_eq!(client_endpoints(&fed), endpoints, "no new endpoint per statement");

    // The pool dies with its session: every endpoint it held is deregistered.
    drop(session);
    assert_eq!(client_endpoints(&fed), before);
}
