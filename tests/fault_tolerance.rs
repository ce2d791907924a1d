//! Fault-tolerant LAM communication, end to end.
//!
//! The paper's prototype ran over an unreliable campus network (§4.1); these
//! scenarios re-run the Q1/Q2 experiments with per-link message loss
//! injected into the simulated fabric and assert the retry layer's
//! guarantees:
//!
//! * with a retry policy, lossy links are survived deterministically (each
//!   link draws its losses from its own seeded stream, so the drop pattern
//!   reproduces however a fan-out's replies interleave);
//! * without retries, the same lossy links sink the statement;
//! * an unreachable NON VITAL site degrades the statement instead of
//!   failing it when the federation opts in (§3.2);
//! * a lost commit acknowledgement is re-asked and answered from the LAM's
//!   reply cache — reported as committed, executed exactly once;
//! * a session's pooled connections change none of this: a LAM that died,
//!   came back or was cut off between two statements is found out at OPEN,
//!   exactly as a first connection would find it, and a connection that saw
//!   a fault is closed, never reused;
//! * a join opens no connection to a travelling partial's LAM: one that is
//!   gone fails the join before anything is sent, naming its site.

use dol::{DolError, TaskDef, TaskStatus};
use ldbs::profile::DbmsProfile;
use ldbs::value::Value;
use mdbs::fixtures::{avis_engine, paper_federation_with, FederationProfiles};
use mdbs::lam::spawn_lam;
use mdbs::lamclient::{LamClient, LamFactory};
use mdbs::proto::{Request, Response, TaskMode};
use mdbs::retry::shared_stats;
use mdbs::{CrashPlan, CrashWhen, Federation, MdbsError, RetryPolicy, Wal};
use netsim::{FaultKind, LatencyModel, Network};
use std::time::{Duration, Instant};

const Q1: &str = "USE avis national
    LET car.type.status BE cars.cartype.carst vehicle.vty.vstat
    SELECT %code, type, ~rate FROM car WHERE status = 'available'";

const Q2: &str = "USE continental VITAL delta united VITAL
    UPDATE flight%
    SET rate% = rate% * 1.1
    WHERE sour% = 'Houston' AND dest% = 'San Antonio'";

/// Drop probability the acceptance scenarios run at.
const DROP_P: f64 = 0.3;

/// Builds the paper federation on a seeded network, then degrades every
/// link touching `sites` (both directions) with probability `p`. The seed
/// fixes each link's drop sequence; the short timeout keeps lost messages
/// cheap.
fn lossy_federation(seed: u64, sites: &[&str], p: f64) -> Federation {
    let mut fed = paper_federation_with(Network::with_seed(seed), FederationProfiles::default());
    fed.timeout = Duration::from_millis(150);
    for site in sites {
        fed.network().set_link_drop_probability("*", site, p);
        fed.network().set_link_drop_probability(site, "*", p);
    }
    fed
}

/// Restores lossless links so LAM shutdown at drop time is not slowed by
/// lost control messages.
fn heal(fed: &Federation, sites: &[&str]) {
    for site in sites {
        fed.network().clear_link_drop_probability("*", site);
        fed.network().clear_link_drop_probability(site, "*");
    }
}

fn rate(fed: &Federation, service: &str, db: &str, sql: &str) -> Value {
    let engine = fed.engine(service).unwrap();
    let mut engine = engine.lock();
    engine.execute(db, sql).unwrap().into_result_set().unwrap().rows[0][0].clone()
}

#[test]
fn q1_succeeds_deterministically_on_lossy_links_with_retries() {
    let sites = ["site4", "site5"];
    let mut fed = lossy_federation(0xA1, &sites, DROP_P);
    fed.retry = RetryPolicy { max_attempts: 5, ..RetryPolicy::retries(5) };

    let mt = fed.execute(Q1).unwrap().into_multitable().unwrap();
    assert_eq!(mt.tables.len(), 2, "both databases answered despite the lossy links");
    assert_eq!(mt.table("avis").unwrap().rows.len(), 2);
    assert_eq!(mt.table("national").unwrap().rows.len(), 2);

    let stats = fed.exec_stats();
    let dropped = fed.network().stats().dropped;
    assert!(dropped > 0, "the drop injection actually fired (dropped = {dropped})");
    assert!(stats.retries > 0, "lost messages were resent: {stats:?}");
    assert!(stats.transient_faults > 0, "drops were classified transient: {stats:?}");
    assert!(stats.recovered > 0, "at least one call recovered via retry: {stats:?}");
    assert_eq!(stats.terminal_faults, 0, "nothing terminal on a merely lossy network");
    heal(&fed, &sites);
}

#[test]
fn q1_fails_on_the_same_lossy_links_without_retries() {
    let sites = ["site4", "site5"];
    let mut fed = lossy_federation(0xA1, &sites, DROP_P);
    // Default policy: single attempt, faults surface immediately.
    assert!(!fed.retry.enabled());

    let complete = match fed.execute(Q1) {
        Ok(out) => out.into_multitable().unwrap().tables.len() == 2,
        Err(_) => false,
    };
    assert!(!complete, "without retries the lossy links must sink the retrieval");
    let stats = fed.exec_stats();
    assert_eq!(stats.retries, 0, "no resends under the single-attempt policy");
    assert!(stats.transient_faults > 0, "the losses were observed: {stats:?}");
    assert!(fed.network().stats().dropped > 0);
    heal(&fed, &sites);
}

#[test]
fn q2_commits_deterministically_on_lossy_links_with_retries() {
    let sites = ["site1", "site2", "site3"];
    let mut fed = lossy_federation(0xB2, &sites, DROP_P);
    fed.retry = RetryPolicy { max_attempts: 5, ..RetryPolicy::retries(5) };

    let report = fed.execute(Q2).unwrap().into_update().unwrap();
    assert!(report.success, "{report:?}");
    assert_eq!(report.return_code, 0);
    for o in &report.outcomes {
        assert_eq!(o.status, TaskStatus::Committed, "{o:?}");
        assert!(o.attempts >= 1, "telemetry shows the LAM was reached: {o:?}");
    }
    // The statement-level report carries this run's accounting.
    assert!(report.stats.attempts >= 3, "{:?}", report.stats);
    let dropped = fed.network().stats().dropped;
    assert!(dropped > 0, "the drop injection actually fired (dropped = {dropped})");
    assert!(report.stats.retries > 0, "{:?}", report.stats);

    heal(&fed, &sites);
    // All three heterogeneous schemas were updated exactly once.
    assert_eq!(
        rate(&fed, "svc_continental", "continental", "SELECT rate FROM flights WHERE flnu = 1"),
        Value::Float(100.0 * 1.1)
    );
    assert_eq!(
        rate(&fed, "svc_delta", "delta", "SELECT rate FROM flight WHERE fnu = 10"),
        Value::Float(95.0 * 1.1)
    );
    assert_eq!(
        rate(&fed, "svc_united", "united", "SELECT rates FROM flight WHERE fn = 20"),
        Value::Float(110.0 * 1.1)
    );
}

#[test]
fn q2_fails_on_the_same_lossy_links_without_retries() {
    let sites = ["site1", "site2", "site3"];
    let mut fed = lossy_federation(0xB2, &sites, DROP_P);

    let succeeded = match fed.execute(Q2) {
        Ok(out) => out.into_update().unwrap().success,
        Err(_) => false,
    };
    assert!(!succeeded, "without retries the lossy links must sink the vital update");
    heal(&fed, &sites);
}

#[test]
fn unreachable_nonvital_site_degrades_the_statement_when_tolerated() {
    let mut fed = paper_federation_with(Network::new(), FederationProfiles::default());
    fed.timeout = Duration::from_millis(300);
    fed.tolerate_unreachable = true;
    // delta's site vanishes (site2). Its subquery in Q2 is NON VITAL.
    fed.network().deregister("site2");

    let report = fed.execute(Q2).unwrap().into_update().unwrap();
    assert!(report.success, "§3.2: the multiquery succeeds without its NON VITAL member");
    let by_key = |k: &str| report.outcomes.iter().find(|o| o.key == k).unwrap();
    assert_eq!(by_key("continental").status, TaskStatus::Committed);
    assert_eq!(by_key("united").status, TaskStatus::Committed);
    let delta = by_key("delta");
    assert_ne!(delta.status, TaskStatus::Committed, "{delta:?}");
    assert_eq!(delta.attempts, 0, "delta's LAM was never reached");
    assert_eq!(delta.fault, Some(FaultKind::Terminal), "{delta:?}");
    assert!(report.stats.degraded >= 1, "{:?}", report.stats);
    assert!(report.stats.terminal_faults >= 1, "{:?}", report.stats);
    assert!(fed.exec_stats().degraded >= 1, "session stats aggregate the degradation");

    // The vital members really committed; delta kept its old fare.
    assert_eq!(
        rate(&fed, "svc_continental", "continental", "SELECT rate FROM flights WHERE flnu = 1"),
        Value::Float(100.0 * 1.1)
    );
    assert_eq!(
        rate(&fed, "svc_delta", "delta", "SELECT rate FROM flight WHERE fnu = 10"),
        Value::Float(95.0)
    );
}

#[test]
fn unreachable_vital_site_still_fails_even_when_tolerated() {
    let mut fed = paper_federation_with(Network::new(), FederationProfiles::default());
    fed.timeout = Duration::from_millis(300);
    fed.tolerate_unreachable = true;
    // united's site vanishes (site3). Its subquery in Q2 is VITAL.
    fed.network().deregister("site3");

    let report = fed.execute(Q2).unwrap().into_update().unwrap();
    assert!(!report.success, "a lost VITAL member can never be degraded away (§3.2)");
    // The surviving vital member must not have committed either.
    let continental = report.outcomes.iter().find(|o| o.key == "continental").unwrap();
    assert_ne!(continental.status, TaskStatus::Committed, "{continental:?}");
    assert_eq!(
        rate(&fed, "svc_continental", "continental", "SELECT rate FROM flights WHERE flnu = 1"),
        Value::Float(100.0),
        "continental rolled back with its vital partner lost"
    );
}

#[test]
fn lost_commit_ack_is_reasked_and_reports_committed() {
    let net = Network::new();
    let mut engine = ldbs::Engine::new("svc", DbmsProfile::oracle_like());
    engine.create_database("avis").unwrap();
    engine.execute("avis", "CREATE TABLE cars (code INT, rate FLOAT)").unwrap();
    engine.execute("avis", "INSERT INTO cars VALUES (1, 40.0)").unwrap();
    let lam = spawn_lam(&net, "svc", "site1", engine).unwrap();

    let client = LamClient::connect_with(
        &net,
        "site1",
        "avis",
        Duration::from_millis(100),
        RetryPolicy::retries(4),
        shared_stats(),
    )
    .unwrap();
    // 2PC round: execute-and-prepare, then commit.
    let resp = client
        .call(Request::Task {
            name: "T1".into(),
            mode: TaskMode::NoCommit,
            database: "avis".into(),
            commands: vec!["UPDATE cars SET rate = 50 WHERE code = 1".into()],
        })
        .unwrap();
    assert!(matches!(resp, Response::TaskDone { status: 'P', .. }), "{resp:?}");

    // The LAM's next outgoing message — the commit acknowledgement — is
    // lost. The client re-asks under the same correlation id; the LAM
    // replays the cached Ok instead of re-running the commit (which would
    // report `unknown prepared task`).
    net.drop_next("site1", "*", 1);
    let resp = client.call(Request::Commit { task: "T1".into() }).unwrap();
    assert_eq!(resp, Response::Ok, "the re-ask reports the commit");
    let s = client.stats();
    let s = s.lock();
    assert_eq!(s.retries, 1, "exactly one resend: {s:?}");
    assert_eq!(s.recovered, 1, "{s:?}");
    drop(s);

    let committed = {
        let mut e = lam.engine.lock();
        e.execute("avis", "SELECT rate FROM cars WHERE code = 1")
            .unwrap()
            .into_result_set()
            .unwrap()
            .rows[0][0]
            .clone()
    };
    assert_eq!(committed, Value::Float(50.0), "committed exactly once");
}

#[test]
fn injected_drops_are_annotated_on_the_surviving_spans() {
    let sites = ["site4", "site5"];
    let mut fed = lossy_federation(0xA1, &sites, DROP_P);
    fed.retry = RetryPolicy { max_attempts: 5, ..RetryPolicy::retries(5) };

    fed.execute(Q1).unwrap();
    heal(&fed, &sites);

    let note = |n: &obs::SpanNode, key: &str| {
        n.notes.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    };

    // Every retry layer fault inside a traced call shows up as a `fault`
    // annotation on an `rpc` span; the owning task span's `faults`/`attempts`
    // notes agree with its rpc children exactly.
    let trace = fed.last_trace().expect("the statement left a trace");
    let mut rpc_faults = 0u64;
    let mut annotated_tasks = 0u64;
    trace.visit(&mut |n| {
        if n.name == "rpc" && note(n, "fault").is_some() {
            assert_eq!(note(n, "fault").as_deref(), Some("transient"), "{n:?}");
            rpc_faults += 1;
        }
        if n.name.starts_with("task:") {
            let rpcs = n.children.iter().filter(|c| c.name == "rpc").count() as u64;
            let failed =
                n.children.iter().filter(|c| c.name == "rpc" && note(c, "fault").is_some()).count()
                    as u64;
            let attempts: u64 = note(n, "attempts").unwrap().parse().unwrap();
            assert_eq!(attempts, rpcs, "one rpc child per attempt: {n:?}");
            let faults: u64 = note(n, "faults").map_or(0, |v| v.parse().unwrap());
            assert_eq!(faults, failed, "the faults note counts the failed attempts: {n:?}");
            if faults > 0 {
                annotated_tasks += 1;
            }
        }
    });
    assert!(rpc_faults > 0, "the loss injection left visible fault annotations");
    assert!(annotated_tasks > 0, "at least one task span carries a fault summary");

    // The retry layer saw at least the traced faults (connection pings are
    // retried too, but outside any task span), and nothing terminal.
    let stats = fed.exec_stats();
    assert!(rpc_faults <= stats.transient_faults, "{rpc_faults} traced vs {stats:?}");
    assert_eq!(stats.terminal_faults, 0, "{stats:?}");

    // Observability and the network fabric agree on what was dropped: the
    // probe-fed `net.dropped` counter matches netsim's own accounting.
    let metrics = fed.metrics();
    let dropped = fed.network().stats().dropped;
    assert!(dropped > 0, "the drop injection actually fired");
    assert_eq!(metrics.counters.get("net.dropped").copied().unwrap_or(0), dropped);
}

const Q3_UPDATE_WITH_COMP: &str = "USE continental VITAL delta united VITAL
    UPDATE flight%
    SET rate% = rate% * 1.1
    WHERE sour% = 'Houston' AND dest% = 'San Antonio'
    COMP continental
    UPDATE flights
    SET rate = rate / 1.1
    WHERE source = 'Houston' AND destination = 'San Antonio'";

/// The Q3 setup whose continental member autocommits (no 2PC): its subquery
/// is settled at the LAM the moment it executes, so a coordinator crash
/// before the decision forces recovery down the §3.3 compensation path.
fn autocommit_continental_federation() -> Federation {
    paper_federation_with(
        Network::with_seed(0xC3),
        FederationProfiles {
            continental: DbmsProfile::autocommit_only(),
            ..FederationProfiles::default()
        },
    )
}

/// Runs `msql` on a federation `build` makes, with a log, and crashes the
/// coordinator immediately before it logs the decision a crash-free run of
/// the same scenario logs. The LAMs, being autonomous sites, survive.
fn crash_before_decision(build: fn() -> Federation, msql: &str) -> (Federation, Wal) {
    let decide_at = {
        let mut fed = build();
        let wal = fed.enable_wal();
        fed.execute(msql).unwrap();
        wal.records()
            .unwrap()
            .iter()
            .position(|r| r.kind().starts_with("decision"))
            .expect("a settle-bearing statement logs a decision")
    };
    let mut fed = build();
    let wal = fed.enable_wal();
    wal.arm_crash(CrashPlan { at: decide_at, when: CrashWhen::Before });
    fed.execute(msql).unwrap_err();
    assert!(wal.crashed(), "the armed crash point fired");
    (fed, wal)
}

/// Crashes the Q3 coordinator immediately before it logs its decision,
/// recovers on a successor federation sharing the same log, and renders the
/// recovery trace: presumed abort, united rolled back via RESOLVE,
/// autocommitted continental compensated.
fn recovery_trace() -> String {
    let (mut fed, _wal) =
        crash_before_decision(autocommit_continental_federation, Q3_UPDATE_WITH_COMP);

    // The restarted coordinator replays the log against the LAMs, which —
    // being autonomous sites — survived the coordinator's crash.
    let report = fed.recover().unwrap();
    assert_eq!(report.recovered.len(), 1);
    let mtx = &report.recovered[0];
    assert!(mtx.presumed_abort, "no decision record survived the crash");
    assert_eq!(mtx.achieved_state, None);
    // T1 = continental (VITAL, autocommitted → compensated), T2 = delta
    // (NON VITAL, § 3.2: outside the oracle, stays committed), T3 = united
    // (VITAL, prepared → rolled back by RESOLVE).
    assert_eq!(mtx.statuses.get("T1"), Some(&TaskStatus::Compensated), "{mtx:?}");
    assert_eq!(mtx.statuses.get("T2"), Some(&TaskStatus::Committed), "{mtx:?}");
    assert_eq!(mtx.statuses.get("T3"), Some(&TaskStatus::Aborted), "{mtx:?}");
    assert!(mtx.is_consistent());

    // The compensation really undid continental's autocommitted fare bump.
    assert_eq!(
        rate(&fed, "svc_continental", "continental", "SELECT rate FROM flights WHERE flnu = 1"),
        Value::Float(100.0 * 1.1 / 1.1)
    );

    fed.last_trace().expect("recovery leaves a trace").render()
}

/// Pins the recovery span tree against `tests/golden/recovery.trace`. Two
/// fresh runs must render byte-identically (logical clock, and each wave's
/// replies are read in task order); regenerate after an intentional change with
/// `UPDATE_GOLDEN=1 cargo test --test fault_tolerance`.
#[test]
fn recovery_trace_is_golden() {
    let first = recovery_trace();
    let second = recovery_trace();
    assert_eq!(first, second, "recovery trace differs between two identical runs");

    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/recovery.trace");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &first).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("missing golden file {path:?} — generate it with UPDATE_GOLDEN=1")
    });
    assert_eq!(
        first, want,
        "golden recovery trace drift — if the change is intended, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test fault_tolerance"
    );
}

/// A recovery pass that dies after its first wave has logged what it
/// settled — but not continental, whose compensation is the second wave's —
/// so the next pass still compensates it.
#[test]
fn a_recovery_crash_between_the_waves_still_compensates() {
    let (mut fed, wal) =
        crash_before_decision(autocommit_continental_federation, Q3_UPDATE_WITH_COMP);
    // Two resolutions come first: delta's logged commit and united's
    // rollback; continental's compensation is the last one.
    let first_wave_done = wal.record_count() + 1;
    wal.arm_crash(CrashPlan { at: first_wave_done, when: CrashWhen::After });
    fed.recover().unwrap_err();
    assert!(wal.crashed(), "the recovery pass died");

    let report = fed.recover().unwrap();
    assert_eq!(report.recovered.len(), 1);
    let mtx = &report.recovered[0];
    assert_eq!(mtx.statuses.get("T1"), Some(&TaskStatus::Compensated), "{mtx:?}");
    assert!(mtx.is_consistent(), "{mtx:?}");
    assert_eq!(
        rate(&fed, "svc_continental", "continental", "SELECT rate FROM flights WHERE flnu = 1"),
        Value::Float(100.0 * 1.1 / 1.1)
    );
    assert!(fed.recover().unwrap().recovered.is_empty(), "the image ended");
}

/// The vital update over three 2PC databases, crashed before its decision
/// on warm connections: recovery rolls the three prepared tasks back with
/// one `RESOLVE` each, all in flight at once — one round trip, not three.
#[test]
fn recovery_resolves_an_image_in_one_round_trip() {
    fn federation() -> Federation {
        paper_federation_with(Network::new(), FederationProfiles::default())
    }
    const ALL_VITAL: &str = "USE continental VITAL delta VITAL united VITAL
        UPDATE flight%
        SET rate% = rate% * 1.1
        WHERE sour% = 'Houston' AND dest% = 'San Antonio'";
    let (mut fed, _wal) = crash_before_decision(federation, ALL_VITAL);
    const ONE_WAY: Duration = Duration::from_millis(10);
    fed.network().set_latency(LatencyModel::uniform(ONE_WAY));
    let sent = fed.network().stats().messages;
    let start = Instant::now();
    let report = fed.recover().unwrap();
    let took = start.elapsed();
    fed.network().set_latency(LatencyModel::instant());
    let mtx = &report.recovered[0];
    for task in ["T1", "T2", "T3"] {
        assert_eq!(mtx.statuses.get(task), Some(&TaskStatus::Aborted), "{mtx:?}");
    }
    assert_eq!(fed.network().stats().messages - sent, 6, "one RESOLVE and its reply per task");
    assert!(took < Duration::from_millis(40), "{took:?}: more than one round trip");
}

/// A task whose `RESOLVE` gets no answer logs nothing: the pass settles the
/// others, leaves the image open and fails; the next pass finishes it.
#[test]
fn a_recovery_that_cannot_reach_a_site_leaves_its_task_to_the_next_pass() {
    fn federation() -> Federation {
        let mut fed = paper_federation_with(Network::new(), FederationProfiles::default());
        fed.timeout = Duration::from_millis(100);
        fed
    }
    let (mut fed, wal) = crash_before_decision(federation, Q2);
    let logged = wal.record_count();
    fed.network().set_link_drop_probability("*", "site3", 1.0);
    fed.recover().unwrap_err();
    let kinds: Vec<_> = wal.records().unwrap()[logged..].iter().map(|r| r.kind()).collect();
    assert_eq!(kinds, ["resolved", "resolved"], "continental and delta, not united");

    fed.network().clear_link_drop_probability("*", "site3");
    let report = fed.recover().unwrap();
    let mtx = &report.recovered[0];
    assert_eq!(mtx.statuses.get("T3"), Some(&TaskStatus::Aborted), "{mtx:?}");
    assert!(mtx.is_consistent(), "{mtx:?}");
    assert!(fed.recover().unwrap().recovered.is_empty(), "the image ended");
}

/// A task's attempts and last fault come back with what it produced: one
/// lost reply, retried, is two attempts and a transient fault.
#[test]
fn a_task_retried_after_one_lost_reply_reports_two_attempts_and_the_fault() {
    let mut fed = paper_federation_with(Network::new(), FederationProfiles::default());
    fed.timeout = Duration::from_millis(150);
    fed.retry = RetryPolicy::retries(3);
    let bump = "USE continental UPDATE flights SET rate = rate + 1 WHERE flnu = 1";
    let warm = fed.execute(bump).unwrap().into_update().unwrap();
    assert_eq!((warm.outcomes[0].attempts, warm.outcomes[0].fault), (1, None), "{warm:?}");

    // continental's reply to the task is lost once; the resend is answered
    // from its LAM's reply cache.
    fed.network().drop_next("site1", "*", 1);
    let report = fed.execute(bump).unwrap().into_update().unwrap();
    let outcome = &report.outcomes[0];
    assert_eq!(outcome.status, TaskStatus::Committed, "{outcome:?}");
    assert_eq!((outcome.affected, outcome.attempts), (1, 2), "{outcome:?}");
    assert_eq!(outcome.fault, Some(FaultKind::Transient), "{outcome:?}");
    assert_eq!(
        rate(&fed, "svc_continental", "continental", "SELECT rate FROM flights WHERE flnu = 1"),
        Value::Float(102.0),
        "the resent task ran once"
    );
}

/// The END rule: a logged statement ends only once every subtransaction's
/// fate is known. A vital task whose request went out and whose reply was
/// lost (no retries) is `E` to the plan, yet its LAM holds it prepared: the
/// image stays open, and recovery's `RESOLVE` rolls it back.
#[test]
fn a_task_whose_reply_was_lost_holds_the_end_record_back_for_recovery() {
    let mut fed = paper_federation_with(Network::new(), FederationProfiles::default());
    fed.timeout = Duration::from_millis(150);
    let wal = fed.enable_wal();
    let bump = "USE continental VITAL UPDATE flights SET rate = 1 WHERE flnu = 1";
    fed.execute("USE continental SELECT rate FROM flights WHERE flnu = 1").unwrap();

    fed.network().drop_next("site1", "*", 1);
    let report = fed.execute(bump).unwrap().into_update().unwrap();
    assert!(!report.success, "{report:?}");
    let outcome = &report.outcomes[0];
    assert_eq!((outcome.status, outcome.attempts), (TaskStatus::Error, 1), "{outcome:?}");
    let kinds: Vec<_> = wal.records().unwrap().iter().map(|r| r.kind()).collect();
    assert!(!kinds.contains(&"end"), "{kinds:?}");
    let continental = fed.engine("svc_continental").unwrap();
    assert_eq!(continental.lock().prepared_txns().len(), 1, "the lost reply's task is prepared");

    let recovery = fed.recover().unwrap();
    assert_eq!(recovery.recovered.len(), 1, "{recovery:?}");
    assert!(continental.lock().prepared_txns().is_empty(), "recovery rolled it back");
    assert_eq!(
        rate(&fed, "svc_continental", "continental", "SELECT rate FROM flights WHERE flnu = 1"),
        Value::Float(100.0)
    );
}

/// The other side of the END rule: a task whose LAM was unreachable at OPEN
/// sent nothing (0 attempts), so its `E` is certain and the statement ends.
#[test]
fn a_task_unreachable_at_open_does_not_hold_the_end_record_back() {
    let mut fed = paper_federation_with(Network::new(), FederationProfiles::default());
    fed.timeout = Duration::from_millis(150);
    fed.tolerate_unreachable = true;
    let wal = fed.enable_wal();
    fed.network().deregister("site2"); // NON VITAL delta's LAM

    let report = fed.execute(Q2).unwrap().into_update().unwrap();
    assert!(report.success, "{report:?}");
    let delta = report.outcomes.iter().find(|o| o.key == "delta").unwrap();
    assert_eq!((delta.status, delta.attempts), (TaskStatus::Error, 0), "{delta:?}");
    let kinds: Vec<_> = wal.records().unwrap().iter().map(|r| r.kind()).collect();
    assert_eq!(kinds.last(), Some(&"end"), "{kinds:?}");
    assert!(fed.recover().unwrap().recovered.is_empty(), "nothing left to recover");
}

#[test]
fn dead_lam_fails_fast_even_with_retries_enabled() {
    let net = Network::new();
    let mut engine = ldbs::Engine::new("svc", DbmsProfile::oracle_like());
    engine.create_database("avis").unwrap();
    let lam = spawn_lam(&net, "svc", "site1", engine).unwrap();
    let client = LamClient::connect_with(
        &net,
        "site1",
        "avis",
        Duration::from_secs(5),
        RetryPolicy::retries(5),
        shared_stats(),
    )
    .unwrap();
    lam.shutdown(); // deregisters the site

    let start = Instant::now();
    let err = client.call(Request::Ping).unwrap_err();
    assert!(
        matches!(err, MdbsError::LamUnavailable { ref site } if site == "site1"),
        "terminal faults are not retried: {err:?}"
    );
    assert!(start.elapsed() < Duration::from_secs(1), "no timeout, no backoff loop");
}

/// A loss-free paper federation whose primary session has run Q1 and Q2
/// once: every database the scenarios below touch has a pooled connection.
fn warm_federation() -> Federation {
    let mut fed = paper_federation_with(Network::new(), FederationProfiles::default());
    fed.timeout = Duration::from_millis(200);
    fed.execute(Q1).unwrap();
    assert!(fed.execute(Q2).unwrap().into_update().unwrap().success);
    fed
}

/// The client endpoints currently registered towards `site`.
fn client_endpoints(fed: &Federation, site: &str) -> Vec<String> {
    let prefix = format!("__cli_{site}_");
    let mut names: Vec<String> =
        fed.network().site_names().into_iter().filter(|n| n.starts_with(&prefix)).collect();
    names.sort();
    names
}

#[test]
fn a_lam_that_died_between_statements_fails_at_open_like_a_cold_connection() {
    let mut fed = warm_federation();
    let sent = fed.network().stats().messages;
    fed.network().deregister("site5"); // national's LAM vanishes

    let warm = fed.execute(Q1).unwrap_err().to_string();
    assert_eq!(fed.network().stats().messages, sent, "found out locally: no message was sent");
    let cold = fed.session().execute(Q1).unwrap_err().to_string();
    assert_eq!(warm, cold, "a pooled connection fails exactly as a first one does");
    assert!(warm.contains("`site5`") && warm.contains("unavailable"), "{warm}");
    assert!(client_endpoints(&fed, "site5").is_empty(), "the dead link was closed, not pooled");
}

#[test]
fn a_dead_lam_behind_a_pooled_connection_degrades_or_fails_by_vitality() {
    // NON VITAL delta (site2) vanishes after the warm-up: tolerated.
    let mut fed = warm_federation();
    fed.tolerate_unreachable = true;
    fed.network().deregister("site2");
    let report = fed.execute(Q2).unwrap().into_update().unwrap();
    assert!(report.success, "{report:?}");
    let delta = report.outcomes.iter().find(|o| o.key == "delta").unwrap();
    assert_ne!(delta.status, TaskStatus::Committed, "{delta:?}");
    assert_eq!(delta.attempts, 0, "delta's LAM was never reached");
    assert_eq!(delta.fault, Some(FaultKind::Terminal), "{delta:?}");
    assert!(report.stats.degraded >= 1, "{:?}", report.stats);
    assert_eq!(
        rate(&fed, "svc_continental", "continental", "SELECT rate FROM flights WHERE flnu = 1"),
        Value::Float(100.0 * 1.1 * 1.1),
        "the vital members committed both times"
    );

    // VITAL united (site3) vanishes after the warm-up: never degraded away.
    let mut fed = warm_federation();
    fed.tolerate_unreachable = true;
    fed.network().deregister("site3");
    let report = fed.execute(Q2).unwrap().into_update().unwrap();
    assert!(!report.success, "{report:?}");
    assert_eq!(
        rate(&fed, "svc_continental", "continental", "SELECT rate FROM flights WHERE flnu = 1"),
        Value::Float(100.0 * 1.1),
        "continental rolled back with its vital partner lost"
    );
}

#[test]
fn a_join_whose_coordinator_is_lost_fails_fast_or_retries_like_any_other_exchange() {
    // avis reduces and travels; continental (site1) coordinates: its whole
    // share of the join is the one COMBINE exchange.
    let join = "USE avis continental
                SELECT c.code, f.flnu, f.rate FROM avis.cars c, continental.flights f
                WHERE c.rate = f.rate";
    let mut fed = paper_federation_with(Network::new(), FederationProfiles::default());
    fed.timeout = Duration::from_millis(200);
    fed.retry = RetryPolicy::retries(4);
    fed.execute("USE avis UPDATE cars SET rate = 80 WHERE code = 2").unwrap();
    let expected = fed.execute(join).unwrap().into_table().unwrap();
    assert_eq!(expected.rows.len(), 1);

    // The COMBINE's reply is lost once: a transient fault, retried under the
    // same correlation id and answered — the join is none the wiser.
    fed.network().drop_next("site1", "*", 1);
    let retries = fed.exec_stats().retries;
    assert_eq!(fed.execute(join).unwrap().into_table().unwrap(), expected);
    assert_eq!(fed.exec_stats().retries - retries, 1, "exactly one resend");

    // The coordinator's LAM vanishes after avis has shipped its partial: a
    // terminal fault, surfaced at once — no retry loop, no timeout, no hang.
    fed.network().deregister("site1");
    let start = Instant::now();
    let err = fed.execute(join).unwrap_err();
    assert!(
        matches!(err, MdbsError::LamUnavailable { ref site } if site == "site1"),
        "expected LamUnavailable, got {err:?}"
    );
    assert!(start.elapsed() < Duration::from_secs(1), "{:?}", start.elapsed());
    let avis = fed.engine("svc_avis").unwrap();
    let names = avis.lock().database("avis").unwrap().table_names();
    assert!(names.iter().all(|n| !n.starts_with("part_")), "{names:?}");
}

/// The paper join: avis reduces, and its partial travels straight from its
/// LAM (site4) to continental's (site1), which coordinates.
const XJOIN: &str = "USE avis continental
                     SELECT c.code, f.flnu, f.rate FROM avis.cars c, continental.flights f
                     WHERE c.rate = f.rate";

fn xjoin_federation() -> (Federation, ldbs::engine::ResultSet) {
    let mut fed = paper_federation_with(Network::new(), FederationProfiles::default());
    fed.timeout = Duration::from_millis(150);
    fed.retry = RetryPolicy::retries(3);
    fed.execute("USE avis UPDATE cars SET rate = 80 WHERE code = 2").unwrap();
    let expected = fed.execute(XJOIN).unwrap().into_table().unwrap();
    assert_eq!(expected.rows.len(), 1);
    (fed, expected)
}

#[test]
fn a_lost_lam_to_lam_part_is_resent_and_the_join_answers() {
    let (mut fed, expected) = xjoin_federation();
    // avis' PART to continental is lost once: the COMBINE waits for it in
    // continental's stash, times out at the client, and the retry resends
    // the SHIP with the COMBINE; the second PART completes the join.
    fed.network().drop_next("site4", "site1", 1);
    let retries = fed.exec_stats().retries;
    assert_eq!(fed.execute(XJOIN).unwrap().into_table().unwrap(), expected);
    assert_eq!(fed.exec_stats().retries - retries, 1, "exactly one resend");
    assert_eq!(fed.network().stats().dropped, 1);
    // Nothing was left behind at the coordinator, and the next join is clean.
    let continental = fed.engine("svc_continental").unwrap();
    let names = continental.lock().database("continental").unwrap().table_names();
    assert!(names.iter().all(|n| !n.starts_with("part_")), "{names:?}");
    let retries = fed.exec_stats().retries;
    assert_eq!(fed.execute(XJOIN).unwrap().into_table().unwrap(), expected);
    assert_eq!(fed.exec_stats().retries, retries);
}

#[test]
fn a_join_whose_travelling_lam_is_gone_fails_fast_naming_its_site() {
    // The session is warm: its pooled connection to continental, the
    // coordinator, is reused, and the join sends nothing to avis but a SHIP.
    let (mut fed, expected) = xjoin_federation();
    let pooled = client_endpoints(&fed, "site1");
    assert_eq!(pooled.len(), 1, "one pooled connection, the coordinator's: {pooled:?}");
    let sent = fed.network().stats().messages;

    // The connection that would send avis' SHIP is cut off from avis' site:
    // refused at once, naming it, and nothing sent.
    fed.network().partition(&pooled[0], "site4");
    let err = fed.execute(XJOIN).unwrap_err().to_string();
    assert!(err.contains("`site4`") && err.contains("partition"), "{err}");
    assert_eq!(fed.network().stats().messages, sent, "nothing got through");
    fed.network().heal(&pooled[0], "site4");

    fed.network().deregister("site4"); // avis' LAM vanishes

    let start = Instant::now();
    let err = fed.execute(XJOIN).unwrap_err();
    let elapsed = start.elapsed();
    assert!(
        matches!(err, MdbsError::LamUnavailable { ref site } if site == "site4"),
        "expected LamUnavailable naming the traveller's site, got {err:?}"
    );
    assert!(elapsed < fed.timeout / 2, "found out locally, not by a timeout: {elapsed:?}");
    assert_eq!(
        fed.network().stats().messages,
        sent,
        "no COMBINE was sent, so nothing is left waiting at the coordinator's LAM"
    );

    // avis is back, on the same site, with the same data: the next join answers.
    let mut avis = avis_engine(FederationProfiles::default().avis);
    avis.execute("avis", "UPDATE cars SET rate = 80 WHERE code = 2").unwrap();
    let _lam = spawn_lam(fed.network(), "svc_avis", "site4", avis).unwrap();
    assert_eq!(fed.execute(XJOIN).unwrap().into_table().unwrap(), expected);
}

#[test]
fn a_traveller_gone_before_a_resend_fails_the_join_naming_its_site() {
    let (mut fed, _) = xjoin_federation();
    // avis' first PART is lost, so the COMBINE's first attempt times out; its
    // LAM vanishes while the client waits, and the resend's SHIP finds no one
    // there. The join fails at once, naming avis' site — the coordinator's
    // LAM is fine.
    let (net, retries) = (fed.network().clone(), fed.exec_stats().retries);
    let dropped = net.stats().dropped;
    net.drop_next("site4", "site1", 1);
    let watcher = std::thread::spawn(move || {
        let start = Instant::now();
        while net.stats().dropped == dropped && start.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        net.deregister("site4");
    });
    let err = fed.execute(XJOIN).unwrap_err();
    watcher.join().unwrap();
    assert!(
        matches!(err, MdbsError::LamUnavailable { ref site } if site == "site4"),
        "expected LamUnavailable naming the traveller's site, got {err:?}"
    );
    assert_eq!(fed.exec_stats().retries - retries, 1, "failed on the resend, without another");
}

#[test]
fn a_ship_refused_on_a_resend_is_retried_once_the_partition_heals() {
    let mut fed = paper_federation_with(Network::new(), FederationProfiles::default());
    fed.timeout = Duration::from_millis(150);
    // Pauses long enough between attempts for the cut below to heal in one.
    fed.retry = RetryPolicy { base_backoff: Duration::from_millis(100), ..RetryPolicy::retries(4) };
    fed.execute("USE avis UPDATE cars SET rate = 80 WHERE code = 2").unwrap();
    let expected = fed.execute(XJOIN).unwrap().into_table().unwrap();
    let pooled = client_endpoints(&fed, "site1");
    assert_eq!(pooled.len(), 1, "one pooled connection, the coordinator's: {pooled:?}");

    // avis' first PART is lost, so the COMBINE's first attempt times out.
    // The connection is then cut off from avis' site: the resend's SHIP is
    // refused, a transient fault like a partition of the COMBINE's own link,
    // so the call backs off and tries again. The cut heals during the pause,
    // and the third attempt's SHIP brings the PART that completes the join.
    let net = fed.network().clone();
    let before = net.stats();
    net.drop_next("site4", "site1", 1);
    let conn = pooled[0].clone();
    let watcher = std::thread::spawn(move || {
        let wait_for = |seen: &dyn Fn(&netsim::NetStats) -> bool| {
            let start = Instant::now();
            while !seen(&net.stats()) && start.elapsed() < Duration::from_secs(5) {
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        wait_for(&|s| s.dropped > before.dropped);
        net.partition(&conn, "site4");
        wait_for(&|s| s.refused > before.refused);
        net.heal(&conn, "site4");
    });
    let retries = fed.exec_stats().retries;
    let answer = fed.execute(XJOIN);
    watcher.join().unwrap();
    assert_eq!(answer.unwrap().into_table().unwrap(), expected);
    assert_eq!(fed.exec_stats().retries - retries, 2, "the timed-out attempt and the refused one");
    assert_eq!(fed.network().stats().refused - before.refused, 1, "one SHIP refused");
}

#[test]
fn a_partitioned_reducer_and_coordinator_fail_the_join_within_the_retry_budget() {
    let (mut fed, expected) = xjoin_federation();
    // Both LAMs are up and reachable from the MDBS layer, but not from each
    // other: every PART is lost. The COMBINE's client times out on each of
    // its attempts and gives up, naming the coordinator's site — no hang.
    fed.network().partition("site4", "site1");
    let start = Instant::now();
    let err = fed.execute(XJOIN).unwrap_err();
    let elapsed = start.elapsed();
    assert!(
        matches!(&err, MdbsError::Net(message) if message.contains("site `site1`")),
        "expected a timeout naming the coordinator's site, got {err:?}"
    );
    // Every attempt waited its 150 ms, and that was all: well under two
    // seconds, backoff included.
    let budget = fed.timeout * fed.retry.max_attempts;
    assert!(elapsed >= budget, "every attempt waited: {elapsed:?} < {budget:?}");
    assert!(elapsed < Duration::from_secs(2), "{elapsed:?}");
    // Healed, the same join answers again.
    fed.network().heal("site4", "site1");
    assert_eq!(fed.execute(XJOIN).unwrap().into_table().unwrap(), expected);
}

#[test]
fn a_respawned_lam_is_reconnected_transparently() {
    let net = Network::new();
    let engine = || {
        let mut engine = ldbs::Engine::new("svc", DbmsProfile::oracle_like());
        engine.create_database("avis").unwrap();
        engine.execute("avis", "CREATE TABLE cars (code INT)").unwrap();
        engine
    };
    let select = |factory: &LamFactory| {
        factory.checkout("site1", "avis")?.call(Request::Task {
            name: "Q".into(),
            mode: TaskMode::Auto,
            database: "avis".into(),
            commands: vec!["SELECT code FROM cars".into()],
        })
    };
    let factory = LamFactory::new(net.clone(), Duration::from_millis(200));
    let lam = spawn_lam(&net, "svc", "site1", engine()).unwrap();
    assert!(matches!(select(&factory), Ok(Response::TaskDone { status: 'C', .. })));
    assert_eq!(factory.pool.idle_connections(), 1);

    lam.shutdown();
    let err = select(&factory).unwrap_err();
    assert!(matches!(err, MdbsError::LamUnavailable { ref site } if site == "site1"), "{err:?}");
    assert_eq!(factory.pool.idle_connections(), 0, "the dead link was evicted");

    let _lam = spawn_lam(&net, "svc", "site1", engine()).unwrap();
    assert!(matches!(select(&factory), Ok(Response::TaskDone { status: 'C', .. })));
    assert_eq!(factory.pool.idle_connections(), 1);
}

#[test]
fn a_partition_installed_between_statements_is_refused_at_open() {
    let mut fed = warm_federation();
    let pooled = client_endpoints(&fed, "site4");
    assert_eq!(pooled.len(), 1, "one pooled connection to avis: {pooled:?}");
    fed.network().partition(&pooled[0], "site4");

    let sent = fed.network().stats().messages;
    let err = fed.execute(Q1).unwrap_err().to_string();
    assert!(err.contains("`site4`") && err.contains("partition"), "{err}");
    let stats = fed.network().stats();
    assert_eq!(stats.messages, sent, "nothing got through");
    assert_eq!(stats.refused, 1, "the handshake was refused; no task was ever sent");

    // The refused link was closed; the session opens a new one and goes on.
    fed.network().heal(&pooled[0], "site4");
    assert_eq!(fed.execute(Q1).unwrap().into_multitable().unwrap().tables.len(), 2);
    assert!(!client_endpoints(&fed, "site4").contains(&pooled[0]));
}

#[test]
fn a_request_that_timed_out_evicts_its_connection() {
    let mut fed = warm_federation();
    fed.timeout = Duration::from_millis(100);
    let pooled = client_endpoints(&fed, "site4");
    assert_eq!(pooled.len(), 1, "{pooled:?}");

    // avis' next reply is lost: its subquery times out, national answers.
    fed.network().drop_next("site4", "*", 1);
    let mt = fed.execute(Q1).unwrap().into_multitable().unwrap();
    assert_eq!(mt.tables.len(), 1, "avis timed out");
    // Whatever may still arrive for the abandoned request has no mailbox to
    // arrive in: the endpoint is gone, the next statement gets a new one.
    assert!(client_endpoints(&fed, "site4").is_empty(), "the suspect link was closed");
    let mt = fed.execute(Q1).unwrap().into_multitable().unwrap();
    assert_eq!(mt.table("avis").unwrap().rows.len(), 2);
    let fresh = client_endpoints(&fed, "site4");
    assert_eq!(fresh.len(), 1);
    assert_ne!(fresh, pooled);
}

/// Arms the loss of continental's next outgoing message at the moment the
/// engine reaches `DECIDE` — after both votes arrived, before any COMMIT.
struct DropAckAtDecision(Network);

impl dol::TaskObserver for DropAckAtDecision {
    fn task_executed(&self, _task: &TaskDef, _status: TaskStatus) -> Result<(), DolError> {
        Ok(())
    }

    fn decision(&self, _code: i32) -> Result<(), DolError> {
        self.0.drop_next("site1", "*", 1);
        Ok(())
    }

    fn task_resolved(&self, _task: &str, _status: TaskStatus) -> Result<(), DolError> {
        Ok(())
    }
}

#[test]
fn one_lost_ack_among_parallel_commits_is_in_doubt_while_the_other_commits() {
    let fed = paper_federation_with(Network::new(), FederationProfiles::default());
    let factory = LamFactory::new(fed.network().clone(), Duration::from_millis(150));
    let program = dol::parse_program(
        "DOLBEGIN
         OPEN continental AT site1 AS c;
         OPEN united AT site3 AS u;
         TASK T1 NOCOMMIT FOR c { UPDATE flights SET rate = 1 WHERE flnu = 1 } ENDTASK;
         TASK T2 NOCOMMIT FOR u { UPDATE flight SET rates = 2 WHERE fn = 20 } ENDTASK;
         DECIDE 0;
         COMMIT T1, T2;
         CLOSE c u;
         DOLEND",
    )
    .unwrap();
    let mut engine = dol::DolEngine::new(&factory);
    engine.observer = Some(std::sync::Arc::new(DropAckAtDecision(fed.network().clone())));
    let err = engine.execute(&program).unwrap_err();
    assert!(
        matches!(err, DolError::InDoubt { ref service, ref task } if service == "site1" && task == "T1"),
        "the lost ack is in doubt, never a presumed abort: {err:?}"
    );
    // Both sites committed — T1's acknowledgement was all that got lost —
    // and T2's round trip did not wait for T1's timeout to be attempted.
    for service in ["svc_continental", "svc_united"] {
        assert!(fed.engine(service).unwrap().lock().prepared_txns().is_empty(), "{service}");
    }
    assert_eq!(
        rate(&fed, "svc_continental", "continental", "SELECT rate FROM flights WHERE flnu = 1"),
        Value::Float(1.0)
    );
    assert_eq!(
        rate(&fed, "svc_united", "united", "SELECT rates FROM flight WHERE fn = 20"),
        Value::Float(2.0)
    );
    // The connection that lost the ack is not reused; the healthy one is.
    assert_eq!(factory.pool.idle_connections(), 1);
}

#[test]
fn a_lost_commit_ack_does_not_strand_the_abort_list() {
    // A §3.4 termination state: COMMIT one pair, ABORT the other. The lost
    // ack makes the COMMIT list fail in doubt; the ABORT list is still sent,
    // so no non-member is left prepared holding its locks until recovery.
    let fed = paper_federation_with(Network::new(), FederationProfiles::default());
    let factory = LamFactory::new(fed.network().clone(), Duration::from_millis(150));
    let program = dol::parse_program(
        "DOLBEGIN
         OPEN continental AT site1 AS c;
         OPEN delta AT site2 AS d;
         OPEN national AT site5 AS n;
         OPEN avis AT site4 AS a;
         TASK T1 NOCOMMIT FOR c { UPDATE flights SET rate = 1 WHERE flnu = 1 } ENDTASK;
         TASK T2 NOCOMMIT FOR d { UPDATE flight SET rate = 2 WHERE fnu = 10 } ENDTASK;
         TASK T3 NOCOMMIT FOR n { UPDATE vehicle SET vstat = 'TAKEN' WHERE vcode = 7 } ENDTASK;
         TASK T4 NOCOMMIT FOR a { UPDATE cars SET rate = 4 WHERE code = 1 } ENDTASK;
         DECIDE 0;
         COMMIT T1, T3;
         ABORT T2, T4;
         CLOSE c d n a;
         DOLEND",
    )
    .unwrap();
    let mut engine = dol::DolEngine::new(&factory);
    engine.observer = Some(std::sync::Arc::new(DropAckAtDecision(fed.network().clone())));
    let err = engine.execute(&program).unwrap_err();
    assert!(
        matches!(err, DolError::InDoubt { ref service, ref task } if service == "site1" && task == "T1"),
        "{err:?}"
    );
    // T3 committed beside the lost ack …
    assert_eq!(
        rate(&fed, "svc_national", "national", "SELECT vstat FROM vehicle WHERE vcode = 7"),
        Value::Str("TAKEN".into())
    );
    // … and T2 and T4 were rolled back, not left prepared.
    for service in ["svc_delta", "svc_avis", "svc_national"] {
        let engine = fed.engine(service).unwrap();
        assert!(engine.lock().prepared_txns().is_empty(), "{service}");
    }
    assert_eq!(
        rate(&fed, "svc_delta", "delta", "SELECT rate FROM flight WHERE fnu = 10"),
        Value::Float(95.0)
    );
    assert_eq!(
        rate(&fed, "svc_avis", "avis", "SELECT rate FROM cars WHERE code = 1"),
        Value::Float(39.5)
    );
}
