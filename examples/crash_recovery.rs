//! Coordinator crash and recovery (DESIGN.md §3a.4): the §3.3 compensation
//! scenario is killed immediately before its decision is logged, the log is
//! dumped, and a restarted coordinator replays it — presuming abort, rolling
//! back the prepared members and compensating the autocommitted one.
//!
//! ```sh
//! cargo run --example crash_recovery
//! ```
//!
//! Deterministic: a seeded network and a logical clock; two runs print the
//! same transcript.

use ldbs::profile::DbmsProfile;
use mdbs::fixtures::{paper_federation_with, FederationProfiles};
use mdbs::{CrashPlan, CrashWhen, Federation};
use netsim::Network;

const Q3_UPDATE_WITH_COMP: &str = "USE continental VITAL delta united VITAL
UPDATE flight%
SET rate% = rate% * 1.1
WHERE sour% = 'Houston' AND dest% = 'San Antonio'
COMP continental
UPDATE flights
SET rate = rate / 1.1
WHERE source = 'Houston' AND destination = 'San Antonio'";

/// Continental autocommits (no 2PC): its subquery settles at the LAM the
/// moment it runs, so a crash before the decision forces compensation.
fn federation() -> Federation {
    paper_federation_with(
        Network::with_seed(0xC3),
        FederationProfiles {
            continental: DbmsProfile::autocommit_only(),
            ..FederationProfiles::default()
        },
    )
}

fn continental_fare(fed: &Federation) -> String {
    let engine = fed.engine("svc_continental").unwrap();
    let mut engine = engine.lock();
    engine
        .execute("continental", "SELECT rate FROM flights WHERE flnu = 1")
        .unwrap()
        .into_result_set()
        .unwrap()
        .rows[0][0]
        .display_raw()
}

fn main() {
    // Find where the decision record lands in a crash-free run.
    let decide_at = {
        let mut fed = federation();
        let wal = fed.enable_wal();
        fed.execute(Q3_UPDATE_WITH_COMP).unwrap();
        wal.records()
            .unwrap()
            .iter()
            .position(|r| r.kind().starts_with("decision"))
            .expect("a settle-bearing statement logs a decision")
    };
    println!("crash-free run logs its decision as record #{decide_at}\n");

    // Run again, killing the coordinator just before that record is written
    // (the PREPAREs happened at the sites; the decision never made the log).
    let mut fed = federation();
    let wal = fed.enable_wal();
    println!("fare before the update:   {}", continental_fare(&fed));
    wal.arm_crash(CrashPlan { at: decide_at, when: CrashWhen::Before });
    let err = fed.execute(Q3_UPDATE_WITH_COMP).unwrap_err();
    println!("coordinator crashed:      {err}");
    println!(
        "fare at the crash:        {} (continental had autocommitted)\n",
        continental_fare(&fed)
    );

    println!("the log the crash left behind:");
    for record in wal.records().unwrap() {
        println!("  {}", record.encode());
    }

    // The restarted coordinator replays the log against the LAMs, which —
    // being autonomous sites — survived the crash.
    let report = fed.recover().unwrap();
    println!("\nrecovery:");
    for mtx in &report.recovered {
        println!(
            "  mtx {}: presumed_abort={} consistent={}",
            mtx.mtx_id,
            mtx.presumed_abort,
            mtx.is_consistent()
        );
        let mut tasks: Vec<_> = mtx.statuses.iter().collect();
        tasks.sort_by(|a, b| a.0.cmp(b.0));
        for (task, status) in tasks {
            println!("    {task}: {status:?}");
        }
    }
    println!("fare after recovery:      {} (compensated back)", continental_fare(&fed));
}
