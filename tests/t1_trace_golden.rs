//! T1 — golden span trees for the paper's experiments.
//!
//! Every statement executed by a [`mdbs::Federation`] leaves a hierarchical
//! span tree behind (parse → expand/disambiguate/decompose → plangen → one
//! span per DOL task with its LAM round trips). The trees are stamped by a
//! deterministic logical clock and normalized (children sorted, ticks
//! densely renumbered), so two runs of the same scenario render
//! byte-identical text — which this suite pins against committed golden
//! files.
//!
//! Regenerate after an intentional change with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test t1_trace_golden
//! ```

use ldbs::profile::DbmsProfile;
use mdbs::fixtures::{paper_federation, paper_federation_with, FederationProfiles};
use mdbs::Federation;
use netsim::Network;
use std::fs;
use std::path::PathBuf;

const Q1_CAR_QUERY: &str = "USE avis national
    LET car.type.status BE cars.cartype.carst vehicle.vty.vstat
    SELECT %code, type, ~rate FROM car WHERE status = 'available'";

const Q2_VITAL_UPDATE: &str = "USE continental VITAL delta united VITAL
    UPDATE flight%
    SET rate% = rate% * 1.1
    WHERE sour% = 'Houston' AND dest% = 'San Antonio'";

const Q3_UPDATE_WITH_COMP: &str = "USE continental VITAL delta united VITAL
    UPDATE flight%
    SET rate% = rate% * 1.1
    WHERE sour% = 'Houston' AND dest% = 'San Antonio'
    COMP continental
    UPDATE flights
    SET rate = rate / 1.1
    WHERE source = 'Houston' AND destination = 'San Antonio'";

const Q4_TRAVEL_AGENT: &str = "BEGIN MULTITRANSACTION
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

const CROSS_DB_JOIN: &str = "USE continental delta
    SELECT f.flnu, g.fnu
    FROM continental.flights f, delta.flight g
    WHERE f.source = g.source AND f.destination = g.dest";

const AGGREGATE_PUSHDOWN: &str = "USE continental delta
    SELECT f.source, COUNT(*), MIN(g.rate)
    FROM continental.flights f, delta.flight g
    WHERE f.source = g.source
    GROUP BY f.source";

/// Executes `msql` on a freshly set-up federation and renders the normalized
/// trace.
fn run_trace(setup: &dyn Fn() -> Federation, msql: &str) -> String {
    let mut fed = setup();
    fed.execute(msql).expect("golden scenarios execute without a federation-level error");
    fed.last_trace().expect("every statement leaves a trace").render()
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.trace"))
}

/// Runs the scenario twice from scratch, asserts the two renders are
/// byte-identical, and compares against the committed golden file (or
/// rewrites it under `UPDATE_GOLDEN=1`).
fn check(name: &str, setup: impl Fn() -> Federation, msql: &str) {
    let first = run_trace(&setup, msql);
    let second = run_trace(&setup, msql);
    assert_eq!(first, second, "trace for `{name}` differs between two identical runs");

    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &first).unwrap();
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("missing golden file {path:?} — generate it with UPDATE_GOLDEN=1")
    });
    assert_eq!(
        first, want,
        "golden trace drift for `{name}` — if the change is intended, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test t1_trace_golden"
    );
}

fn without_2pc_continental() -> Federation {
    paper_federation_with(
        Network::new(),
        FederationProfiles {
            continental: DbmsProfile::autocommit_only(),
            ..FederationProfiles::default()
        },
    )
}

#[test]
fn q1_retrieval_trace_is_golden() {
    check("q1_retrieval", paper_federation, Q1_CAR_QUERY);
}

#[test]
fn q2_vital_update_trace_is_golden() {
    check("q2_vital_update", paper_federation, Q2_VITAL_UPDATE);
}

#[test]
fn q3_compensation_trace_is_golden() {
    // §3.3 path 2: united aborts, continental (no 2PC) already committed →
    // its COMP statement runs; the trace shows the compensate span.
    check(
        "q3_compensation",
        || {
            let fed = without_2pc_continental();
            fed.engine("svc_united").unwrap().lock().failure_policy_mut().fail_writes_to("flight");
            fed
        },
        Q3_UPDATE_WITH_COMP,
    );
}

#[test]
fn q4_multitransaction_trace_is_golden() {
    check("q4_multitransaction", paper_federation, Q4_TRAVEL_AGENT);
}

#[test]
fn q4_fallback_state_trace_is_golden() {
    // The preferred state is unreachable → the trace shows the fallback
    // round committing {delta, avis} and aborting the preferred pair.
    check(
        "q4_fallback_state",
        || {
            let fed = paper_federation();
            fed.engine("svc_continental")
                .unwrap()
                .lock()
                .failure_policy_mut()
                .fail_writes_to("f838");
            fed
        },
        Q4_TRAVEL_AGENT,
    );
}

#[test]
fn cross_db_join_trace_is_golden() {
    check("cross_db_join", paper_federation, CROSS_DB_JOIN);
}

#[test]
fn aggregate_pushdown_explain_is_golden() {
    // A decomposable 2-site GROUP BY runs as an aggregate pushdown: each
    // site ships per-group partial states instead of its full partial, and
    // EXPLAIN pins the `pushed=agg` span notes, the `agg-pushdown` join
    // strategy and each site's shipped `rows` next to its unpushed `full_rows`.
    let render = |_: ()| {
        let mut fed = paper_federation();
        fed.execute(&format!("EXPLAIN {AGGREGATE_PUSHDOWN}"))
            .expect("EXPLAIN pushed GROUP BY")
            .into_explain()
            .expect("an explain report")
            .render()
    };
    let first = render(());
    let second = render(());
    assert_eq!(first, second, "EXPLAIN output differs between two identical runs");
    assert!(first.contains("pushed=agg"), "partial spans should carry the pushed note:\n{first}");
    assert!(
        first.contains("strategy=agg-pushdown"),
        "the join span should name the pushdown strategy:\n{first}"
    );
    assert!(
        first.contains("pushed=agg db=continental attempts=1 rows=2 bytes=68 full_rows=3"),
        "the partial spans should carry shipped and unpushed rows:\n{first}"
    );

    let path = golden_path("aggregate_pushdown");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &first).unwrap();
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("missing golden file {path:?} — generate it with UPDATE_GOLDEN=1")
    });
    assert_eq!(first, want, "EXPLAIN golden drift — regenerate with UPDATE_GOLDEN=1 if intended");
}

#[test]
fn explain_q1_report_is_golden() {
    // The EXPLAIN surface itself is part of the contract: span tree plus
    // the per-LAM cost table, rendered.
    let render = |_: ()| {
        let mut fed = paper_federation();
        fed.execute(&format!("EXPLAIN {Q1_CAR_QUERY}"))
            .expect("EXPLAIN Q1")
            .into_explain()
            .expect("an explain report")
            .render()
    };
    let first = render(());
    let second = render(());
    assert_eq!(first, second, "EXPLAIN output differs between two identical runs");

    let path = golden_path("explain_q1");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &first).unwrap();
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("missing golden file {path:?} — generate it with UPDATE_GOLDEN=1")
    });
    assert_eq!(first, want, "EXPLAIN golden drift — regenerate with UPDATE_GOLDEN=1 if intended");
}

#[test]
fn explain_indexed_join_report_is_golden() {
    // With a hash index on the reduced side's join column, the shipped
    // semi-join IN filter turns into an index probe; EXPLAIN pins both the
    // `access=probe` span note and the cost table's access column.
    let render = |_: ()| {
        let mut fed = paper_federation();
        fed.execute("CREATE INDEX flight_source ON delta.flight (source) USING HASH")
            .expect("CREATE INDEX on delta.flight");
        fed.execute(&format!("EXPLAIN {CROSS_DB_JOIN}"))
            .expect("EXPLAIN cross-db join")
            .into_explain()
            .expect("an explain report")
            .render()
    };
    let first = render(());
    let second = render(());
    assert_eq!(first, second, "EXPLAIN output differs between two identical runs");
    assert!(
        first.contains("access=probe"),
        "the semi-join-reduced subquery should probe the index:\n{first}"
    );
    assert!(
        first.lines().any(|l| l.starts_with("delta ") && l.ends_with("  probe")),
        "the cost table should carry delta's access path:\n{first}"
    );

    let path = golden_path("explain_indexed_join");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &first).unwrap();
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("missing golden file {path:?} — generate it with UPDATE_GOLDEN=1")
    });
    assert_eq!(first, want, "EXPLAIN golden drift — regenerate with UPDATE_GOLDEN=1 if intended");
}
