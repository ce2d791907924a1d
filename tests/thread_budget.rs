//! The thread budget, gated exactly.
//!
//! A LAM is one long-lived server thread until two sessions contend for a
//! lock there; a session has no threads at all — a fan-out posts every
//! request before it reads a reply, on the statement's own thread. So once
//! the paper mix has run twice, running it again — 500 statements, text or
//! binary wire — starts no thread anywhere: the only
//! thread gauges are the LAMs' `lam.server_threads{service=}` (threads a LAM
//! ever started), and they read what they read after warm-up. Contention is
//! the one thing that grows a LAM, and only the LAM it is at.

use mdbs::fixtures::paper_federation;
use mdbs::{Session, WireFormat};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The `paper_local` statement mix of the end-to-end benchmark: Q1 twice,
/// Q2 non-vital and vital, the Q4 multitransaction and its reset, a
/// cross-database join.
const MIX: &[&str] = &[
    "USE continental delta united
     SELECT day, ~rate% FROM flight% WHERE sour% = 'Houston'",
    "USE avis national
     LET car.type.status BE cars.cartype.carst vehicle.vty.vstat
     SELECT %code, type, ~rate FROM car WHERE status = 'available'",
    "USE continental delta united
     UPDATE flight% SET rate% = rate% + 1
     WHERE sour% = 'Houston' AND dest% = 'San Antonio'",
    "USE continental VITAL delta united VITAL
     UPDATE flight% SET rate% = rate% - 1
     WHERE sour% = 'Houston' AND dest% = 'San Antonio'",
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
    "USE continental
     UPDATE f838 SET seatstatus = 'FREE', clientname = NULL WHERE clientname = 'gate'",
    "USE avis continental
     SELECT c.code, f.flnu, f.rate FROM avis.cars c, continental.flights f
     WHERE c.rate = f.rate",
];

/// Every thread gauge `session` can see.
fn thread_gauges(session: &Session) -> BTreeMap<String, i64> {
    let mut gauges = session.metrics().gauges;
    gauges.retain(|name, _| name.contains("thread"));
    gauges
}

#[test]
fn a_warm_session_starts_no_thread() {
    for format in [WireFormat::Text, WireFormat::Binary] {
        let mut fed = paper_federation();
        fed.wire_format = format;
        for _ in 0..2 {
            for msql in MIX {
                fed.execute(msql).unwrap();
            }
        }
        let warm = thread_gauges(&fed);
        for i in 0..500 {
            fed.execute(MIX[i % MIX.len()]).unwrap();
        }
        assert_eq!(thread_gauges(&fed), warm, "{format:?}");

        // Only LAMs have threads, and an uncontended LAM is one thread.
        assert!(warm.keys().all(|name| name.starts_with("lam.server_threads")), "{warm:?}");
        let lams: Vec<i64> = warm.values().copied().collect();
        assert_eq!(lams, vec![1; 5], "{format:?}: {warm:?}");
    }
}

#[test]
fn contention_grows_exactly_the_contended_lam() {
    let fed = paper_federation();
    let update = "USE continental VITAL UPDATE flights SET rate = rate + 1 WHERE flnu = 1";
    let continental = "lam.server_threads{service=svc_continental}";
    // The holder keeps its vital update prepared — and the table locked —
    // until its COMMIT.
    let mut holder = fed.session();
    holder.set_deferred_commit(true);
    holder.execute(update).unwrap();
    let before = thread_gauges(&fed);
    assert_eq!(before[continental], 1);

    let mut waiter = fed.session();
    let waiting = std::thread::spawn(move || waiter.execute(update).map(|_| ()));
    // The waiter's task parks at continental's LAM, which starts its second
    // thread first; that thread is the one that serves the COMMIT below.
    let deadline = Instant::now() + Duration::from_secs(10);
    while thread_gauges(&fed)[continental] == 1 {
        assert!(Instant::now() < deadline, "the contended LAM never grew");
        std::thread::sleep(Duration::from_millis(1));
    }
    holder.execute("COMMIT").unwrap();
    waiting.join().unwrap().unwrap();

    let mut expected = before;
    expected.insert(continental.to_string(), 2);
    assert_eq!(thread_gauges(&fed), expected, "only the contended LAM grew, and by one");
}
