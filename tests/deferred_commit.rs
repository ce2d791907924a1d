//! §3.2.2 synchronization points: global transactions spanning several MSQL
//! statements in deferred-commit mode.
//!
//! "The evaluation plan will contain synchronization points whenever
//! explicit commit or rollback operations are issued, the current query
//! scope is changed, or the last MSQL statement is terminated."

use ldbs::value::Value;
use mdbs::fixtures::paper_federation;
use mdbs::{Federation, MsqlOutcome};

fn rate(fed: &Federation, service: &str, db: &str, sql: &str) -> Value {
    let engine = fed.engine(service).unwrap();
    let mut engine = engine.lock();
    engine.execute(db, sql).unwrap().into_result_set().unwrap().rows[0][0].clone()
}

#[test]
fn two_statements_commit_together_at_commit() {
    let mut fed = paper_federation();
    fed.set_deferred_commit(true);
    fed.execute("USE continental VITAL").unwrap();
    let interim = fed
        .execute("UPDATE flights SET rate = rate * 2 WHERE flnu = 1")
        .unwrap()
        .into_update()
        .unwrap();
    assert!(interim.success);
    assert_eq!(interim.outcomes[0].status, dol::TaskStatus::Prepared);
    assert_eq!(fed.pending_vital_subqueries(), 1);

    fed.execute("UPDATE flights SET rate = rate + 1 WHERE flnu = 2").unwrap();
    // Still one member: both statements joined continental's open local
    // transaction.
    assert_eq!(fed.pending_vital_subqueries(), 1);

    // Nothing visible through an independent reader yet? Our engines allow
    // dirty reads (the paper relaxes isolation), but durably the changes are
    // only decided at the sync point.
    let report = fed.execute("COMMIT").unwrap().into_update().unwrap();
    assert!(report.success);
    assert_eq!(report.outcomes.len(), 1);
    assert_eq!(report.outcomes[0].status, dol::TaskStatus::Committed);
    assert_eq!(report.outcomes[0].affected, 2);
    assert_eq!(
        rate(&fed, "svc_continental", "continental", "SELECT rate FROM flights WHERE flnu = 1"),
        Value::Float(200.0)
    );
    assert_eq!(
        rate(&fed, "svc_continental", "continental", "SELECT rate FROM flights WHERE flnu = 2"),
        Value::Float(81.0)
    );
}

#[test]
fn rollback_undoes_all_statements_since_the_last_sync_point() {
    let mut fed = paper_federation();
    fed.set_deferred_commit(true);
    fed.execute("USE continental VITAL united VITAL").unwrap();
    fed.execute("UPDATE flight% SET rate% = 0 WHERE sour% = 'Houston'").unwrap();
    fed.execute("UPDATE f838 SET seatstatus = 'GONE'").unwrap();
    assert_eq!(fed.pending_vital_subqueries(), 2); // one member per database

    let report = fed.execute("ROLLBACK").unwrap().into_update().unwrap();
    assert!(!report.success);
    assert_eq!(
        rate(&fed, "svc_continental", "continental", "SELECT rate FROM flights WHERE flnu = 1"),
        Value::Float(100.0)
    );
    assert_eq!(
        rate(&fed, "svc_united", "united", "SELECT rates FROM flight WHERE fn = 20"),
        Value::Float(110.0)
    );
    assert_eq!(
        rate(
            &fed,
            "svc_continental",
            "continental",
            "SELECT seatstatus FROM f838 WHERE seatnu = 1"
        ),
        Value::Str("TAKEN".into())
    );
}

#[test]
fn failed_statement_poisons_the_global_transaction() {
    let mut fed = paper_federation();
    fed.set_deferred_commit(true);
    fed.execute("USE continental VITAL").unwrap();
    fed.execute("UPDATE flights SET rate = rate * 2 WHERE flnu = 1").unwrap();

    // Arm a failure; the next vital statement aborts locally.
    fed.engine("svc_continental").unwrap().lock().failure_policy_mut().fail_writes_to("f838");
    let interim = fed.execute("UPDATE f838 SET seatstatus = 'X'").unwrap().into_update().unwrap();
    assert!(!interim.success);

    // COMMIT now must roll everything back (§3.2.2: otherwise-branch).
    let report = fed.execute("COMMIT").unwrap().into_update().unwrap();
    assert!(!report.success);
    assert_eq!(
        rate(&fed, "svc_continental", "continental", "SELECT rate FROM flights WHERE flnu = 1"),
        Value::Float(100.0)
    );
}

#[test]
fn scope_change_is_a_synchronization_point() {
    let mut fed = paper_federation();
    fed.set_deferred_commit(true);
    fed.execute("USE continental VITAL").unwrap();
    fed.execute("UPDATE flights SET rate = rate * 2 WHERE flnu = 1").unwrap();
    assert_eq!(fed.pending_vital_subqueries(), 1);

    // Changing the scope resolves the pending work (commit, all prepared).
    let out = fed.execute("USE avis").unwrap();
    let MsqlOutcome::Update(report) = out else { panic!("{out:?}") };
    assert!(report.success);
    assert_eq!(fed.pending_vital_subqueries(), 0);
    assert_eq!(
        rate(&fed, "svc_continental", "continental", "SELECT rate FROM flights WHERE flnu = 1"),
        Value::Float(200.0)
    );
}

#[test]
fn disabling_deferred_mode_is_a_synchronization_point() {
    let mut fed = paper_federation();
    fed.set_deferred_commit(true);
    fed.execute("USE continental VITAL").unwrap();
    fed.execute("UPDATE flights SET rate = rate * 2 WHERE flnu = 1").unwrap();
    let report = fed.set_deferred_commit(false).unwrap();
    assert!(report.success);
    assert_eq!(
        rate(&fed, "svc_continental", "continental", "SELECT rate FROM flights WHERE flnu = 1"),
        Value::Float(200.0)
    );
}

#[test]
fn session_end_rolls_back_pending_work() {
    // Dropping a federation with held vital work must not hang or panic;
    // the rollback-on-drop state restoration itself is unit-tested in
    // mdbs::gtxn (the LAM threads die with the federation, so it cannot be
    // re-read from here).
    let mut fed = paper_federation();
    fed.set_deferred_commit(true);
    fed.execute("USE continental VITAL").unwrap();
    fed.execute("UPDATE flights SET rate = 1 WHERE flnu = 1").unwrap();
    assert_eq!(fed.pending_vital_subqueries(), 1);
    drop(fed);
}

#[test]
fn non_vital_statements_autocommit_even_in_deferred_mode() {
    let mut fed = paper_federation();
    fed.set_deferred_commit(true);
    fed.execute("USE continental delta").unwrap(); // both NON VITAL
    let report = fed
        .execute("UPDATE flight% SET rate% = rate% + 1 WHERE sour% = 'Houston'")
        .unwrap()
        .into_update()
        .unwrap();
    assert!(report.success);
    assert_eq!(fed.pending_vital_subqueries(), 0);
    for o in &report.outcomes {
        assert_eq!(o.status, dol::TaskStatus::Committed);
    }
    assert_eq!(
        rate(&fed, "svc_delta", "delta", "SELECT rate FROM flight WHERE fnu = 10"),
        Value::Float(96.0)
    );
}

#[test]
fn a_spawned_session_that_ends_rolls_its_pending_work_back() {
    // The federation (and so the LAMs) outlives the session: what its end
    // restored, and released, can be read back.
    let fed = paper_federation();
    let mut session = fed.session();
    session.set_deferred_commit(true);
    session.execute("USE continental VITAL").unwrap();
    session.execute("UPDATE flights SET rate = 1 WHERE flnu = 1").unwrap();
    assert_eq!(session.pending_vital_subqueries(), 1);
    drop(session);
    assert_eq!(
        rate(&fed, "svc_continental", "continental", "SELECT rate FROM flights WHERE flnu = 1"),
        Value::Float(100.0)
    );
    assert_eq!(fed.engine("svc_continental").unwrap().lock().held_locks(), 0);
}

/// Two sessions each hold a transaction open on `continental` — on different
/// tables, so neither waits for the other — and both commit. Every session
/// numbers its members from `G1`, and the LAM keys open tasks by name alone:
/// the second `BEGIN G1_continental` used to be refused as `already open`.
#[test]
fn two_deferred_sessions_on_one_database_both_commit() {
    let fed = paper_federation();
    let (mut a, mut b) = (fed.session(), fed.session());
    for (session, update) in [
        (&mut a, "UPDATE flights SET rate = rate + 1 WHERE flnu = 1"),
        (&mut b, "UPDATE f838 SET seatstatus = 'HELD' WHERE seatnu = 2"),
    ] {
        session.set_deferred_commit(true);
        session.execute("USE continental VITAL").unwrap();
        let interim = session.execute(update).unwrap().into_update().unwrap();
        assert!(interim.success, "{interim:?}");
    }
    for session in [&mut b, &mut a] {
        let report = session.execute("COMMIT").unwrap().into_update().unwrap();
        assert!(report.success, "{report:?}");
        assert_eq!(report.outcomes[0].status, dol::TaskStatus::Committed);
    }
    let read = |sql| rate(&fed, "svc_continental", "continental", sql);
    assert_eq!(read("SELECT rate FROM flights WHERE flnu = 1"), Value::Float(101.0));
    assert_eq!(read("SELECT seatstatus FROM f838 WHERE seatnu = 2"), Value::Str("HELD".into()));
    let engine = fed.engine("svc_continental").unwrap();
    assert!(engine.lock().prepared_txns().is_empty());
    assert_eq!(engine.lock().held_locks(), 0);
}

/// A synchronization point is two exchanges, whatever the number of members:
/// the votes go out together, then the commits. One after the other they
/// were six on three members.
#[test]
fn a_three_member_commit_takes_two_round_trips() {
    use std::time::{Duration, Instant};
    let one_way = Duration::from_millis(10);
    let mut fed = paper_federation();
    fed.set_deferred_commit(true);
    fed.execute("USE continental VITAL delta VITAL united VITAL").unwrap();
    fed.execute("UPDATE flight% SET rate% = rate% + 1 WHERE sour% = 'Houston'").unwrap();
    assert_eq!(fed.pending_vital_subqueries(), 3);

    fed.network().set_latency(netsim::LatencyModel::uniform(one_way));
    let started = Instant::now();
    let report = fed.execute("COMMIT").unwrap().into_update().unwrap();
    let took = started.elapsed();
    fed.network().set_latency(netsim::LatencyModel::instant());
    assert!(report.success, "{report:?}");
    assert!(took >= 4 * one_way, "votes, then commits: {took:?}");
    assert!(took < 8 * one_way, "a 3-member COMMIT took {took:?}: ≥ 4 round trips of 20 ms");
}

/// A synchronization point is logged like every other vital set, so a
/// coordinator that dies inside it is finished by `recover()`: here between
/// the commit decision and the first `COMMIT` message.
#[test]
fn a_synchronization_point_is_logged_and_recovered() {
    use mdbs::{CrashPlan, CrashWhen};
    let kinds = |wal: &mdbs::Wal| -> Vec<&'static str> {
        wal.records().unwrap().iter().map(|r| r.kind()).collect()
    };
    let mut fed = paper_federation();
    let wal = fed.enable_wal();
    fed.set_deferred_commit(true);
    fed.execute("USE continental VITAL united VITAL").unwrap();
    fed.execute("UPDATE flight% SET rate% = rate% * 2 WHERE sour% = 'Houston'").unwrap();
    assert!(kinds(&wal).is_empty(), "statements before the synchronization point log nothing");
    assert!(fed.execute("COMMIT").unwrap().into_update().unwrap().success);
    assert_eq!(
        kinds(&wal),
        ["begin", "prepared", "prepared", "decision", "resolved", "resolved", "end"]
    );

    // Again, dying right after the decision is on the log.
    fed.execute("UPDATE flight% SET rate% = rate% + 5 WHERE sour% = 'Houston'").unwrap();
    wal.arm_crash(CrashPlan { at: 7 + 3, when: CrashWhen::After });
    assert!(fed.execute("COMMIT").is_err(), "the coordinator died");
    assert!(wal.crashed());
    let prepared = |fed: &Federation, service| fed.engine(service).unwrap().lock().prepared_txns();
    assert_eq!(prepared(&fed, "svc_continental").len(), 1, "in doubt");
    assert_eq!(prepared(&fed, "svc_united").len(), 1, "in doubt");

    let recovery = fed.recover().unwrap();
    assert_eq!(recovery.recovered.len(), 1);
    assert_eq!(recovery.recovered[0].achieved_state, Some(0), "the logged decision stands");
    assert!(recovery.recovered[0].is_consistent());
    for service in ["svc_continental", "svc_united"] {
        assert!(prepared(&fed, service).is_empty());
        assert_eq!(fed.engine(service).unwrap().lock().held_locks(), 0);
    }
    assert_eq!(
        rate(&fed, "svc_continental", "continental", "SELECT rate FROM flights WHERE flnu = 1"),
        Value::Float(205.0)
    );
    assert_eq!(
        rate(&fed, "svc_united", "united", "SELECT rates FROM flight WHERE fn = 20"),
        Value::Float(225.0)
    );
}

#[test]
fn leaving_deferred_mode_with_nothing_pending_leaves_it() {
    let mut fed = paper_federation();
    fed.set_deferred_commit(true);
    assert!(fed.set_deferred_commit(false).is_none());
    // Immediate mode again: a vital update settles as it terminates.
    fed.execute("USE continental VITAL").unwrap();
    let report = fed
        .execute("UPDATE flights SET rate = rate * 2 WHERE flnu = 1")
        .unwrap()
        .into_update()
        .unwrap();
    assert_eq!(report.outcomes[0].status, dol::TaskStatus::Committed);
    assert_eq!(fed.pending_vital_subqueries(), 0);
}

/// A deferred statement is one `TASK` batch, like the first phase of any
/// update plan: every member's request goes out before any reply is read, so
/// one round trip and two messages per member — `TASK … HOLD` the first
/// time, `EXEC` after. One member after another, over a connection each,
/// they were six round trips and twelve messages on three members.
#[test]
fn a_deferred_statement_takes_one_round_trip() {
    use std::time::{Duration, Instant};
    let one_way = Duration::from_millis(10);
    let mut fed = paper_federation();
    fed.execute("USE continental VITAL delta VITAL united VITAL").unwrap();
    // Pooled connections: a warm link sends no PING.
    fed.execute("SELECT sour% FROM flight%").unwrap();
    fed.set_deferred_commit(true);

    fed.network().set_latency(netsim::LatencyModel::uniform(one_way));
    let mut runs = Vec::new();
    for _ in 0..2 {
        let before = fed.metrics_registry().counter("net.messages");
        let started = Instant::now();
        let interim = fed.execute("UPDATE flight% SET rate% = rate% + 1 WHERE sour% = 'Houston'");
        let took = started.elapsed();
        let messages = fed.metrics_registry().counter("net.messages") - before;
        runs.push((interim.unwrap().into_update().unwrap(), took, messages));
    }
    fed.network().set_latency(netsim::LatencyModel::instant());
    for (interim, took, messages) in runs {
        assert!(interim.success, "{interim:?}");
        assert!(interim.outcomes.iter().all(|o| o.status == dol::TaskStatus::Prepared));
        assert!(took >= 2 * one_way, "a round trip: {took:?}");
        assert!(took < 4 * one_way, "a 3-member statement took {took:?}: ≥ 2 round trips");
        assert_eq!(messages, 6, "one request and one reply per member");
    }
    assert_eq!(fed.pending_vital_subqueries(), 3);
    assert!(fed.execute("COMMIT").unwrap().into_update().unwrap().success);
    assert_eq!(
        rate(&fed, "svc_continental", "continental", "SELECT rate FROM flights WHERE flnu = 1"),
        Value::Float(102.0)
    );
}

/// A database that cannot be opened fails the statement before any task is
/// sent: its partner's subquery does not run, so the next `COMMIT` has
/// nothing of it to commit.
#[test]
fn a_statement_that_fails_at_open_applies_nothing() {
    let mut fed = paper_federation();
    fed.set_deferred_commit(true);
    fed.execute("USE continental VITAL united VITAL").unwrap();
    fed.network().deregister("site3");
    let update = "UPDATE flight% SET rate% = rate% + 7 WHERE sour% = 'Houston'";
    assert!(fed.execute(update).is_err(), "united is unreachable");
    assert_eq!(fed.pending_vital_subqueries(), 0);
    fed.execute("COMMIT").unwrap();
    assert_eq!(
        rate(&fed, "svc_continental", "continental", "SELECT rate FROM flights WHERE flnu = 1"),
        Value::Float(100.0)
    );
}

/// Deferred mode degrades like immediate mode: with `tolerate_unreachable`
/// an unreachable non-vital database fails its own subquery, not the
/// statement, and the vital member commits at the synchronization point.
#[test]
fn deferred_mode_tolerates_an_unreachable_non_vital_database() {
    let mut fed = paper_federation();
    fed.tolerate_unreachable = true;
    fed.set_deferred_commit(true);
    fed.execute("USE continental VITAL united").unwrap();
    fed.network().deregister("site3");
    let interim = fed
        .execute("UPDATE flight% SET rate% = rate% + 7 WHERE sour% = 'Houston'")
        .unwrap()
        .into_update()
        .unwrap();
    assert!(interim.success, "{interim:?}");
    let status = |key: &str| interim.outcomes.iter().find(|o| o.key == key).unwrap().status;
    assert_eq!(status("united"), dol::TaskStatus::Error);
    assert_eq!(status("continental"), dol::TaskStatus::Prepared);
    assert_eq!(interim.stats.degraded, 1, "the lost non-vital subquery is accounted");

    let report = fed.execute("COMMIT").unwrap().into_update().unwrap();
    assert!(report.success, "{report:?}");
    assert_eq!(report.outcomes[0].status, dol::TaskStatus::Committed);
    assert_eq!(
        rate(&fed, "svc_continental", "continental", "SELECT rate FROM flights WHERE flnu = 1"),
        Value::Float(107.0)
    );
}

/// A `TASK … HOLD` whose reply is lost may have opened its transaction: the
/// member is kept, the set is doomed, and the `ROLLBACK` aborts it — no
/// lock and no prepared transaction is left behind.
#[test]
fn a_lost_hold_reply_is_rolled_back_at_the_synchronization_point() {
    let mut fed = paper_federation();
    fed.timeout = std::time::Duration::from_millis(100);
    fed.execute("USE continental VITAL").unwrap();
    fed.execute("SELECT rate FROM flights").unwrap();
    fed.set_deferred_commit(true);
    fed.network().drop_next("site1", "*", 1);
    let interim =
        fed.execute("UPDATE flights SET rate = 1 WHERE flnu = 1").unwrap().into_update().unwrap();
    assert!(!interim.success, "{interim:?}");
    assert_eq!(interim.outcomes[0].status, dol::TaskStatus::Error);
    assert_eq!(fed.pending_vital_subqueries(), 1);

    let report = fed.execute("ROLLBACK").unwrap().into_update().unwrap();
    assert!(!report.success);
    assert_eq!(
        rate(&fed, "svc_continental", "continental", "SELECT rate FROM flights WHERE flnu = 1"),
        Value::Float(100.0)
    );
    let engine = fed.engine("svc_continental").unwrap();
    assert_eq!(engine.lock().held_locks(), 0);
    assert!(engine.lock().prepared_txns().is_empty());
}

/// A member whose site is gone by the synchronization point fails its vote;
/// it does not fail the settle program, so the members that can be reached
/// are rolled back — by `COMMIT`'s failed vote as by `ROLLBACK` — and hold
/// no lock and no prepared transaction afterwards.
#[test]
fn an_unreachable_member_does_not_leave_the_others_open() {
    for sync in ["COMMIT", "ROLLBACK"] {
        let mut fed = paper_federation();
        fed.set_deferred_commit(true);
        fed.execute("USE continental VITAL united VITAL").unwrap();
        let interim = fed
            .execute("UPDATE flight% SET rate% = rate% + 7 WHERE sour% = 'Houston'")
            .unwrap()
            .into_update()
            .unwrap();
        assert!(interim.success, "{interim:?}");
        assert_eq!(fed.pending_vital_subqueries(), 2);
        fed.network().deregister("site3");

        let report = fed.execute(sync).unwrap().into_update().unwrap();
        assert!(!report.success, "{sync}: {report:?}");
        let status = |key: &str| report.outcomes.iter().find(|o| o.key == key).unwrap().status;
        assert_eq!(status("continental"), dol::TaskStatus::Aborted, "{sync}");
        assert_eq!(status("united"), dol::TaskStatus::Error, "{sync}");
        assert_eq!(fed.pending_vital_subqueries(), 0);
        assert_eq!(
            rate(&fed, "svc_continental", "continental", "SELECT rate FROM flights WHERE flnu = 1"),
            Value::Float(100.0),
            "{sync}"
        );
        let engine = fed.engine("svc_continental").unwrap();
        assert_eq!(engine.lock().held_locks(), 0, "{sync}");
        assert!(engine.lock().prepared_txns().is_empty(), "{sync}");
    }
}

/// A member that autocommitted sends nothing at the synchronization point, so
/// its site being gone by then does not fail its vote: the commit goes ahead.
#[test]
fn an_unreachable_autocommitted_member_still_commits() {
    use mdbs::fixtures::{paper_federation_with, FederationProfiles};
    let profiles = FederationProfiles {
        continental: ldbs::profile::DbmsProfile::autocommit_only(),
        ..FederationProfiles::default()
    };
    let mut fed = paper_federation_with(netsim::Network::new(), profiles);
    fed.set_deferred_commit(true);
    fed.execute("USE continental VITAL united VITAL").unwrap();
    fed.execute(
        "UPDATE flight% SET rate% = rate% + 7 WHERE sour% = 'Houston'
         COMP continental UPDATE flights SET rate = rate - 7 WHERE source = 'Houston'",
    )
    .unwrap();
    fed.network().deregister("site1");

    let report = fed.execute("COMMIT").unwrap().into_update().unwrap();
    assert!(report.success, "{report:?}");
    assert!(report.outcomes.iter().all(|o| o.status == dol::TaskStatus::Committed));
    assert_eq!(
        rate(&fed, "svc_continental", "continental", "SELECT rate FROM flights WHERE flnu = 1"),
        Value::Float(107.0)
    );
    assert_eq!(
        rate(&fed, "svc_united", "united", "SELECT rates FROM flight WHERE fn = 20"),
        Value::Float(117.0)
    );
}
