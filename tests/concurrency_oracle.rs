//! Linearizability-style oracle over concurrent federation sessions.
//!
//! Two sessions race three non-commutative single-statement updates each
//! against one shared database. Whatever interleaving the scheduler picks,
//! statement-level locking must make the run equivalent to *some* serial
//! order of the six statements: the concurrent final table state has to
//! match at least one of the C(6,3) = 20 order-preserving interleavings
//! replayed serially on a fresh engine. Runs over 120 seeded schedules.

use ldbs::profile::DbmsProfile;
use ldbs::value::Value;
use ldbs::Engine;
use mdbs::Federation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ROWS: [(i64, i64); 3] = [(1, 100), (2, 200), (3, 300)];
const STMTS_PER_SESSION: usize = 3;
const SEEDS: u64 = 120;

/// The fixture engine: one database, one account table.
fn bank_engine() -> Engine {
    let mut e = Engine::new("svc_bank", DbmsProfile::oracle_like());
    e.create_database("bank").unwrap();
    e.execute("bank", "CREATE TABLE acct (id INT, bal INT)").unwrap();
    for (id, bal) in ROWS {
        e.execute("bank", &format!("INSERT INTO acct VALUES ({id}, {bal})")).unwrap();
    }
    e
}

fn bank_federation() -> Federation {
    let mut fed = Federation::new();
    fed.add_service("svc_bank", "site1", bank_engine()).unwrap();
    fed.execute("IMPORT DATABASE bank FROM SERVICE svc_bank").unwrap();
    fed
}

/// One seeded non-commutative update. Additions, doublings and overwrites
/// on overlapping rows do not commute, so distinct serial orders produce
/// distinct final states — the oracle check is not vacuous.
fn gen_stmt(rng: &mut StdRng) -> String {
    let id = rng.gen_range(1..4);
    match rng.gen_range(0..3) {
        0 => format!("UPDATE acct SET bal = bal + {} WHERE id = {id}", rng.gen_range(1..10)),
        1 => format!("UPDATE acct SET bal = bal * 2 WHERE id = {id}"),
        _ => format!("UPDATE acct SET bal = {} WHERE id = {id}", rng.gen_range(10..100)),
    }
}

fn read_table(e: &mut Engine) -> Vec<Vec<Value>> {
    e.execute("bank", "SELECT id, bal FROM acct ORDER BY id")
        .unwrap()
        .into_result_set()
        .unwrap()
        .rows
}

/// Replays one serial order of the six statements on a fresh engine.
fn serial_replay(order: &[&str]) -> Vec<Vec<Value>> {
    let mut e = bank_engine();
    for stmt in order {
        e.execute("bank", stmt).unwrap();
    }
    read_table(&mut e)
}

/// All order-preserving interleavings of two 3-statement sequences: a 6-bit
/// mask with 3 bits set says which slots session A's statements occupy.
fn interleavings<'a>(a: &'a [String], b: &'a [String]) -> Vec<Vec<&'a str>> {
    let n = a.len() + b.len();
    let mut out = Vec::new();
    for mask in 0u32..(1 << n) {
        if mask.count_ones() as usize != a.len() {
            continue;
        }
        let (mut ai, mut bi) = (0, 0);
        let mut order = Vec::with_capacity(n);
        for slot in 0..n {
            if mask & (1 << slot) != 0 {
                order.push(a[ai].as_str());
                ai += 1;
            } else {
                order.push(b[bi].as_str());
                bi += 1;
            }
        }
        out.push(order);
    }
    out
}

/// Runs one seeded schedule and checks it against the serial oracle.
fn check_seed(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a: Vec<String> = (0..STMTS_PER_SESSION).map(|_| gen_stmt(&mut rng)).collect();
    let b: Vec<String> = (0..STMTS_PER_SESSION).map(|_| gen_stmt(&mut rng)).collect();

    let fed = bank_federation();
    std::thread::scope(|s| {
        for stmts in [&a, &b] {
            let mut session = fed.session();
            s.spawn(move || {
                session.execute("USE bank").unwrap();
                for stmt in stmts {
                    let report = session.execute(stmt).unwrap().into_update().unwrap();
                    assert!(report.success, "seed {seed}: update failed: {report:?}");
                }
            });
        }
    });

    let engine = fed.engine("svc_bank").unwrap();
    let observed = read_table(&mut engine.lock());

    let matched = interleavings(&a, &b).iter().any(|order| serial_replay(order) == observed);
    assert!(
        matched,
        "seed {seed}: final state {observed:?} matches no serial order of\n  A = {a:?}\n  B = {b:?}"
    );
}

#[test]
fn every_concurrent_schedule_is_equivalent_to_a_serial_order() {
    for seed in 0..SEEDS {
        check_seed(seed);
    }
}

/// Two sessions run vital updates against *different* tables of one database:
/// nothing either does can conflict with the other. Both plans used to name
/// their prepared task `T1`, and the LAM keys open tasks by name alone, so one
/// session's `COMMIT T1` committed the other's transaction and its own stayed
/// prepared, lock and all, until the 2 s lock-wait backstop failed whoever
/// came next — 38 of 40 statements, 384 s. A spawned session's tasks carry
/// its id, and the LAM refuses an open name instead of replacing it.
#[test]
fn concurrent_vital_updates_on_different_tables_never_collide() {
    const STATEMENTS: usize = 40;
    let fed = mdbs::fixtures::paper_federation();
    let started = std::time::Instant::now();
    std::thread::scope(|s| {
        for update in [
            "USE continental VITAL UPDATE flights SET rate = rate + 1 WHERE flnu = 1",
            "USE continental VITAL UPDATE f838 SET seatstatus = 'HELD' WHERE seatnu = 2",
        ] {
            let mut session = fed.session();
            s.spawn(move || {
                for i in 0..STATEMENTS {
                    let report = session.execute(update).unwrap().into_update().unwrap();
                    assert!(report.success, "statement {i} of `{update}`: {report:?}");
                }
            });
        }
    });
    let took = started.elapsed();
    assert!(took < std::time::Duration::from_secs(2), "no statement may wait out a lock: {took:?}");

    let engine = fed.engine("svc_continental").unwrap();
    let mut engine = engine.lock();
    assert!(engine.prepared_txns().is_empty(), "{:?}", engine.prepared_txns());
    assert_eq!(engine.held_locks(), 0);
    let rate = engine.execute("continental", "SELECT rate FROM flights WHERE flnu = 1").unwrap();
    assert_eq!(
        rate.into_result_set().unwrap().rows[0][0],
        Value::Float(100.0 + STATEMENTS as f64),
        "every update committed exactly once"
    );
}
