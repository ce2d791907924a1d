//! The per-session plan cache (DESIGN §3a.18), checked differentially.
//!
//! A session keeps what it prepared for a statement text — the scope the
//! statement leaves behind and its plan — and a later statement of the same
//! text runs that plan without parsing or translating again, while the
//! catalog epoch and (unless the text opens with a scope-replacing `USE`)
//! the scope are those it was prepared in.
//!
//! The oracle runs one statement sequence twice on fresh paper federations:
//! once verbatim, so repeated texts hit, and once with every occurrence made
//! unique by trailing whitespace, so every statement is translated afresh.
//! Whitespace changes nothing else: outcomes, the engines' final contents and
//! the traffic on the fabric must be identical.

use ldbs::value::Value;
use mdbs::federation::PLAN_CACHE_CAPACITY;
use mdbs::fixtures::paper_federation;
use mdbs::{Federation, MdbsError, MsqlOutcome};
use std::process::Command;

const SERVICES: [&str; 5] =
    ["svc_continental", "svc_delta", "svc_united", "svc_avis", "svc_national"];

const Q1_FLIGHTS: &str = "USE continental delta united
    SELECT day, ~rate% FROM flight% WHERE sour% = 'Houston'";
const Q1_CARS: &str = "USE avis national
    LET car.type.status BE cars.cartype.carst vehicle.vty.vstat
    SELECT %code, type, ~rate FROM car WHERE status = 'available'";
const Q2_NONVITAL: &str = "USE continental delta united
    UPDATE flight% SET rate% = rate% + 1 WHERE sour% = 'Houston' AND dest% = 'San Antonio'";
const Q2_VITAL: &str = "USE continental VITAL delta united VITAL
    UPDATE flight% SET rate% = rate% - 1 WHERE sour% = 'Houston' AND dest% = 'San Antonio'";
const Q4_MTX: &str = "BEGIN MULTITRANSACTION
    USE continental delta
    LET fltab.snu.sstat.clname BE f838.seatnu.seatstatus.clientname f747.snu.sstat.passname
    UPDATE fltab SET sstat = 'TAKEN', clname = 'oracle'
    WHERE snu = ( SELECT MIN(snu) FROM fltab WHERE sstat = 'FREE');
    USE avis national
    LET cartab.ccode.cstat BE cars.code.carst vehicle.vcode.vstat
    UPDATE cartab SET cstat = 'TAKEN', client = 'oracle'
    WHERE ccode = ( SELECT MIN(ccode) FROM cartab WHERE cstat = 'available');
    COMMIT continental AND national delta AND avis
    END MULTITRANSACTION";
const Q4_RESET_SEAT: &str = "USE continental
    UPDATE f838 SET seatstatus = 'FREE', clientname = NULL WHERE clientname = 'oracle'";
const Q4_RESET_CAR: &str = "USE national
    UPDATE vehicle SET vstat = 'available', client = NULL WHERE client = 'oracle'";
const XJOIN: &str = "USE avis continental
    SELECT c.code, f.flnu, f.rate FROM avis.cars c, continental.flights f WHERE c.rate = f.rate";

/// Statements without a `USE`: what they mean is the scope they find.
const SCOPED_SELECT: &str = "SELECT day, ~rate% FROM flight% WHERE sour% = 'Houston'";
const SCOPED_UPDATE: &str =
    "UPDATE flight% SET rate% = rate% + 1 WHERE sour% = 'Houston' AND dest% = 'San Antonio'";
const SCOPED_CARS: &str = "SELECT %code, type, ~rate FROM car WHERE status = 'available'";

fn contents(fed: &Federation) -> String {
    let mut out = String::new();
    for service in SERVICES {
        let engine = fed.engine(service).expect("paper service");
        let engine = engine.lock();
        for db in engine.database_names() {
            let database = engine.database(&db).expect("listed database");
            let mut tables = database.table_names();
            tables.sort();
            for name in tables {
                let table = database.table(&name).expect("listed table");
                let rows: Vec<_> = table.iter().map(|(_, row)| row).collect();
                out.push_str(&format!("{db}.{name}: {rows:?}\n"));
            }
        }
    }
    out
}

/// The environment a child run reads its script (statements separated by
/// `SEPARATOR`) and its mode from.
const SCRIPT_VAR: &str = "PLAN_CACHE_SCRIPT";
const UNIQUE_VAR: &str = "PLAN_CACHE_UNIQUE";
const SEPARATOR: char = '\u{1e}';
/// Marks what a child run reports, amid the test harness's own output.
const MARK: &str = "plan_cache| ";

/// One run of a script in this process, as lines to compare: each
/// statement's outcome or error, every row of every table at the end, the
/// fabric's messages and bytes, and the cache's hits (last).
fn run_here(script: &[&str], unique: bool) -> Vec<String> {
    let mut fed = paper_federation();
    let counter = |fed: &Federation, name: &str| fed.metrics_registry().counter(name);
    let (messages, bytes) = (counter(&fed, "net.messages"), counter(&fed, "net.bytes"));
    let mut lines: Vec<String> = script
        .iter()
        .enumerate()
        .map(|(i, sql)| {
            let text = if unique { format!("{sql}{}", " ".repeat(i + 1)) } else { sql.to_string() };
            format!("{:?}", fed.execute(&text))
        })
        .collect();
    lines.push(format!("contents {:?}", contents(&fed)));
    lines.push(format!("messages {}", counter(&fed, "net.messages") - messages));
    lines.push(format!("bytes {}", counter(&fed, "net.bytes") - bytes));
    lines.push(format!("hits {}", counter(&fed, "plan_cache.hits")));
    lines
}

/// A child run's entry point: does nothing unless a parent set the script.
#[test]
fn child_run() {
    let Ok(script) = std::env::var(SCRIPT_VAR) else { return };
    let script: Vec<&str> = script.split(SEPARATOR).collect();
    for line in run_here(&script, std::env::var_os(UNIQUE_VAR).is_some()) {
        println!("{MARK}{line}");
    }
}

/// Runs `script` on a fresh paper federation in a process of its own; with
/// `unique`, statement `i` gets `i + 1` trailing spaces, so no text repeats.
///
/// Its own process, because every request carries a correlation id from a
/// process-wide sequence and `net.bytes` counts its digits: two runs in one
/// process would differ by those alone.
fn run(script: &[&str], unique: bool) -> Vec<String> {
    let mut child = Command::new(std::env::current_exe().expect("the test binary"));
    child.args(["child_run", "--exact", "--nocapture", "--test-threads=1"]);
    child.env(SCRIPT_VAR, script.join(&SEPARATOR.to_string()));
    if unique {
        child.env(UNIQUE_VAR, "1");
    }
    let output = child.output().expect("the child run starts");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(output.status.success(), "child run failed:\n{stdout}");
    // (The harness may print the test's name on the line the first report
    // starts.)
    stdout.lines().filter_map(|l| l.split_once(MARK)).map(|(_, line)| line.to_string()).collect()
}

/// Runs `script` cached and fresh, asserts the two runs agree, and returns
/// how many statements the cached run took from the cache.
fn differential(script: &[&str]) -> u64 {
    let (mut cached, mut fresh) = (run(script, false), run(script, true));
    assert_eq!(fresh.pop().as_deref(), Some("hits 0"), "unique texts never hit");
    let hits = cached.pop().expect("a hits line");
    assert_eq!(cached.len(), script.len() + 3, "{cached:?}");
    for (i, (c, f)) in cached.iter().zip(&fresh).enumerate() {
        assert_eq!(c, f, "{}", script.get(i).unwrap_or(&"after the script"));
    }
    hits.strip_prefix("hits ").and_then(|n| n.parse().ok()).expect("a hit count")
}

#[test]
fn statements_without_a_use_follow_the_scope_they_find() {
    let hits = differential(&[
        "USE continental delta united",
        SCOPED_SELECT,
        SCOPED_UPDATE,
        "USE continental",
        SCOPED_SELECT, // another scope: prepared again
        SCOPED_UPDATE,
        "USE continental delta united",
        SCOPED_SELECT, // one entry per text: it was replaced, not added to
        SCOPED_UPDATE,
        "USE CURRENT avis",
        SCOPED_SELECT, // an extended scope is another scope
        "USE continental VITAL delta united VITAL",
        SCOPED_UPDATE, // same databases, other vital set
        SCOPED_UPDATE, // a hit
        "USE avis national",
        "LET car.type.status BE cars.cartype.carst vehicle.vty.vstat",
        SCOPED_CARS,
        SCOPED_CARS, // a hit
        "USE avis national",
        SCOPED_CARS, // the variables are gone with the USE: an error, as fresh
        "USE CURRENT national SELECT vcode, vstat FROM vehicle", // duplicate name
        "USE avis",
        "USE CURRENT national SELECT vcode, vstat FROM vehicle",
        "USE avis",
        "USE CURRENT national SELECT vcode, vstat FROM vehicle", // a hit
    ]);
    assert_eq!(hits, 3);
}

#[test]
fn a_scope_replacing_use_does_not_key_on_the_scope_it_replaces() {
    let hits = differential(&[
        Q1_FLIGHTS,
        "USE avis",
        Q1_FLIGHTS,
        "USE continental VITAL",
        Q1_FLIGHTS,
        SCOPED_SELECT, // runs in the scope Q1_FLIGHTS left behind
        Q4_MTX,
        "USE national",
        Q4_MTX,
        SCOPED_CARS, // a multitransaction leaves the scope alone: an error
        Q4_RESET_SEAT,
        Q4_RESET_CAR,
    ]);
    assert_eq!(hits, 3);
}

#[test]
fn ddl_and_import_between_repeats_retranslate() {
    let select = "USE avis SELECT note FROM audit";
    let script = [
        "CREATE TABLE avis.audit (note CHAR(40))",
        "USE avis INSERT INTO audit VALUES ('one')",
        select,
        select,
        "DROP TABLE avis.audit",
        select, // the table is gone: the error a fresh translation gives
        select,
        "CREATE TABLE avis.audit (memo CHAR(40))",
        select, // back, without the column
        "USE avis SELECT memo FROM audit",
        "IMPORT DATABASE avis FROM SERVICE svc_avis",
        "USE avis SELECT memo FROM audit",
        "USE avis INSERT INTO audit VALUES ('two')",
        "USE avis SELECT memo FROM audit",
    ];
    assert_eq!(differential(&script), 2);
    let mut fed = paper_federation();
    for sql in &script[..5] {
        fed.execute(sql).unwrap();
    }
    let err = fed.execute(select).expect_err("the dropped table is unknown");
    let fresh = fed.execute(&format!("{select} ")).expect_err("a fresh translation fails too");
    assert_eq!(err.to_string(), fresh.to_string());
}

#[test]
fn incorporate_between_repeats_retranslates() {
    let script = [
        Q2_VITAL,
        Q2_VITAL,
        // continental stops offering a prepared state: its vital subquery
        // now needs a COMP clause (§3.3).
        "INCORPORATE SERVICE svc_continental SITE site1 CONNECTMODE CONNECT COMMITMODE COMMIT",
        Q2_VITAL,
        Q2_NONVITAL,
        Q2_NONVITAL,
    ];
    assert_eq!(differential(&script), 2);
    let mut fed = paper_federation();
    for sql in &script[..3] {
        fed.execute(sql).unwrap();
    }
    let err = fed.execute(Q2_VITAL).expect_err("no 2PC, no COMP");
    assert!(matches!(err, MdbsError::VitalWithoutCompensation { .. }), "{err:?}");
}

#[test]
fn seeded_sequences_agree_with_fresh_translation() {
    const POOL: &[&str] = &[
        Q1_FLIGHTS,
        Q1_CARS,
        Q2_NONVITAL,
        Q2_VITAL,
        Q4_MTX,
        Q4_RESET_SEAT,
        Q4_RESET_CAR,
        XJOIN,
        SCOPED_SELECT,
        SCOPED_UPDATE,
        SCOPED_CARS,
        "USE continental delta united",
        "USE avis national",
        "USE CURRENT avis",
        "LET car.type.status BE cars.cartype.carst vehicle.vty.vstat",
        "USE CURRENT national SELECT vcode, vstat FROM vehicle",
        "SELECT code, rate FROM cars",
    ];
    let mut total_hits = 0;
    for seed in 1..=6u64 {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let script: Vec<&str> = (0..40)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                POOL[(state % POOL.len() as u64) as usize]
            })
            .collect();
        total_hits += differential(&script);
    }
    assert!(total_hits > 0, "the sequences repeat texts");
}

fn audit_rows(fed: &Federation) -> usize {
    let engine = fed.engine("svc_avis").unwrap();
    let engine = engine.lock();
    engine.database("avis").unwrap().table("audit").unwrap().len()
}

#[test]
fn a_trigger_created_after_a_cached_update_fires() {
    let update = "USE continental UPDATE flights SET rate = rate WHERE flnu = 1";
    let script = [
        "CREATE TABLE avis.audit (note CHAR(40))",
        update,
        update,
        "CREATE TRIGGER fare_watch ON continental.flights AFTER UPDATE EXECUTE
         USE avis INSERT INTO audit VALUES ('fired')",
        update,
        update,
    ];
    assert_eq!(differential(&script), 3);
    let mut fed = paper_federation();
    for sql in script {
        fed.execute(sql).unwrap();
    }
    assert_eq!(audit_rows(&fed), 2, "both updates after CREATE TRIGGER fired it");
}

#[test]
fn deferred_mode_neither_reads_nor_fills_the_cache() {
    let mut fed = paper_federation();
    let hits = |fed: &Federation| fed.metrics_registry().counter("plan_cache.hits");
    let vital = "USE continental VITAL UPDATE flights SET rate = rate + 1 WHERE flnu = 1";
    fed.execute(vital).unwrap();
    fed.execute(vital).unwrap();
    assert_eq!(hits(&fed), 1);

    fed.set_deferred_commit(true);
    let interim = fed.execute(vital).unwrap().into_update().unwrap();
    assert_eq!(interim.outcomes[0].status, dol::TaskStatus::Prepared);
    assert_eq!(fed.pending_vital_subqueries(), 1, "held open, not run from the cache");
    let other = "USE continental VITAL UPDATE flights SET rate = rate + 1 WHERE flnu = 2";
    fed.execute(other).unwrap();
    assert_eq!(hits(&fed), 1);
    assert!(fed.execute("COMMIT").unwrap().into_update().unwrap().success);
    fed.set_deferred_commit(false);

    fed.execute(vital).unwrap();
    assert_eq!(hits(&fed), 2, "the entry made before deferred mode is still good");
    fed.execute(other).unwrap();
    assert_eq!(hits(&fed), 2, "deferred mode filled nothing");
    let engine = fed.engine("svc_continental").unwrap();
    let rate = engine
        .lock()
        .execute("continental", "SELECT rate FROM flights WHERE flnu = 1")
        .unwrap()
        .into_result_set()
        .unwrap()
        .rows[0][0]
        .clone();
    assert_eq!(rate, Value::Float(104.0), "four increments, each applied once");
}

#[test]
fn two_sessions_running_the_same_text_keep_their_own_task_names() {
    let fed = paper_federation();
    let mut a = fed.session();
    let mut b = fed.session();
    for _ in 0..2 {
        for session in [&mut a, &mut b] {
            let report = session.execute(Q2_VITAL).unwrap().into_update().unwrap();
            assert!(report.success);
        }
    }
    for (session, other) in [(&a, &b), (&b, &a)] {
        let trace = session.last_trace().unwrap().render();
        assert!(trace.contains("plan=cached"), "{trace}");
        assert!(trace.contains(&format!("T1_s{}", session.id())), "{trace}");
        assert!(!trace.contains(&format!("_s{}", other.id())), "{trace}");
    }
}

#[test]
fn a_hit_skips_translation_and_says_so() {
    let mut fed = paper_federation();
    fed.execute(Q1_CARS).unwrap();
    let miss = fed.last_trace().unwrap().render();
    fed.execute(Q1_CARS).unwrap();
    let hit = fed.last_trace().unwrap().render();
    for phase in ["parse", "expand", "disambiguate", "plangen"] {
        assert!(miss.contains(&format!("─ {phase} [")), "{miss}");
        assert!(!hit.contains(&format!("─ {phase} [")), "{hit}");
    }
    let root = hit.lines().next().unwrap();
    assert!(root.starts_with("statement") && root.ends_with("plan=cached}"), "{root}");
    assert!(!miss.contains("plan="), "{miss}");
    let (misses, hits) = ("plan_cache.misses", "plan_cache.hits");
    assert_eq!(fed.metrics_registry().counter(misses), 1);
    assert_eq!(fed.metrics_registry().counter(hits), 1);
}

#[test]
fn explain_is_never_cached() {
    let explain = |fed: &mut Federation| match fed.execute(&format!("EXPLAIN {Q1_CARS}")) {
        Ok(MsqlOutcome::Explain(report)) => report.render(),
        other => panic!("EXPLAIN returned {other:?}"),
    };
    let mut fresh = paper_federation();
    let want = explain(&mut fresh);

    let mut fed = paper_federation();
    assert_eq!(explain(&mut fed), want);
    assert_eq!(explain(&mut fed), want, "a second EXPLAIN is an EXPLAIN");
    fed.execute(Q1_CARS).unwrap();
    fed.execute(Q1_CARS).unwrap();
    assert_eq!(explain(&mut fed), want, "the cached bare query is not its EXPLAIN");
    assert_eq!(fed.metrics_registry().counter("plan_cache.hits"), 1);
}

#[test]
fn the_cache_keeps_at_most_its_capacity_and_evicts_the_oldest() {
    let mut fed = paper_federation();
    let hits = |fed: &Federation| fed.metrics_registry().counter("plan_cache.hits");
    let text = |i: usize| format!("USE avis SELECT code FROM cars WHERE code = {i}");
    let n = 10_000;
    for i in 0..n {
        fed.execute(&text(i)).unwrap();
    }
    assert_eq!(hits(&fed), 0);
    // The newest `PLAN_CACHE_CAPACITY` texts are all held ...
    for i in n - PLAN_CACHE_CAPACITY..n {
        fed.execute(&text(i)).unwrap();
    }
    assert_eq!(hits(&fed), PLAN_CACHE_CAPACITY as u64);
    // ... and nothing older: the one before them was evicted, and taking it
    // back evicts the oldest of them.
    fed.execute(&text(n - PLAN_CACHE_CAPACITY - 1)).unwrap();
    fed.execute(&text(n - PLAN_CACHE_CAPACITY)).unwrap();
    assert_eq!(hits(&fed), PLAN_CACHE_CAPACITY as u64);
    fed.execute(&text(n - 1)).unwrap();
    assert_eq!(hits(&fed), PLAN_CACHE_CAPACITY as u64 + 1);
}
