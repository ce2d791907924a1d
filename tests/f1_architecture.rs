//! Experiment F1 — Figure 1, the system components.
//!
//! Translator → DOL engine → LAMs → heterogeneous local DBMSs, all talking
//! over the (simulated) network. This test drives one query through every
//! component and checks each box in the figure did its job: the translator
//! produced DOL, the engine coordinated the LAMs over real network messages,
//! the LAMs executed local SQL on engines with *different* capability
//! profiles, and partial results flowed back.

use mdbs::fixtures::paper_federation;

#[test]
fn one_query_exercises_every_component_of_figure_1() {
    let mut fed = paper_federation();
    let net = fed.network().clone();
    net.reset_stats();

    let mt = fed
        .execute(
            "USE continental delta united
             SELECT day, ~rate% FROM flight% WHERE sour% = 'Houston'",
        )
        .unwrap()
        .into_multitable()
        .unwrap();

    // Three heterogeneous databases produced partial results.
    assert_eq!(mt.tables.len(), 3);
    assert!(mt.table("continental").is_some());
    assert!(mt.table("delta").is_some());
    assert!(mt.table("united").is_some());

    // The components really communicated over the network: each LAM saw at
    // least one request and sent one reply.
    let stats = net.stats();
    for site in ["site1", "site2", "site3"] {
        let to_lam: u64 =
            stats.per_link.iter().filter(|((_, to), _)| to == site).map(|(_, n)| *n).sum();
        let from_lam: u64 =
            stats.per_link.iter().filter(|((from, _), _)| from == site).map(|(_, n)| *n).sum();
        assert!(to_lam >= 1, "no request reached {site}");
        assert!(from_lam >= 1, "no reply left {site}");
    }
}

#[test]
fn services_with_different_profiles_coexist_in_one_query() {
    // continental = oracle-like, delta = ingres-like: both 2PC but with
    // different DDL semantics; the AD records the difference and the same
    // multiple query spans both.
    let fed = paper_federation();
    let ad = fed.ad();
    let cont = ad.service("svc_continental").unwrap();
    let delta = ad.service("svc_delta").unwrap();
    assert_ne!(cont.create_capability(), delta.create_capability());
    assert!(cont.supports_2pc() && delta.supports_2pc());
}

#[test]
fn return_codes_flow_back_to_the_translator() {
    // "The translator receives back DOL return codes ... used as MSQL
    // return codes."
    let mut fed = paper_federation();
    let ok = fed
        .execute(
            "USE continental VITAL
             UPDATE flights SET rate = rate WHERE flnu = 1",
        )
        .unwrap()
        .into_update()
        .unwrap();
    assert_eq!(ok.return_code, mdbs::retcode::SUCCESS);

    fed.engine("svc_continental").unwrap().lock().failure_policy_mut().fail_writes_to("flights");
    let bad = fed
        .execute(
            "USE continental VITAL
             UPDATE flights SET rate = rate WHERE flnu = 1",
        )
        .unwrap()
        .into_update()
        .unwrap();
    assert_eq!(bad.return_code, mdbs::retcode::ABORTED);
    assert!(mdbs::retcode::describe(bad.return_code, false).contains("aborted"));
}

#[test]
fn unreachable_service_fails_the_plan_at_open() {
    // The DOL plan begins with OPEN statements; a service whose site is gone
    // fails the connection and the plan aborts before any task runs — no
    // partial multidatabase state is created.
    let mut fed = paper_federation();
    fed.timeout = std::time::Duration::from_millis(300);
    fed.network().deregister("site3"); // united disappears

    let err = fed.execute(
        "USE continental VITAL delta united VITAL
         UPDATE flight% SET rate% = rate% * 2 WHERE sour% = 'Houston'",
    );
    assert!(
        matches!(err, Err(mdbs::MdbsError::LamUnavailable { ref site }) if site == "site3"),
        "{err:?}"
    );

    // continental was never touched.
    let engine = fed.engine("svc_continental").unwrap();
    let mut engine = engine.lock();
    let rate = engine
        .execute("continental", "SELECT rate FROM flights WHERE flnu = 1")
        .unwrap()
        .into_result_set()
        .unwrap()
        .rows[0][0]
        .clone();
    assert_eq!(rate, ldbs::value::Value::Float(100.0));
}
