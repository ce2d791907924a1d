//! Property tests for the observability layer.
//!
//! Under arbitrary (seeded) network loss and retry budgets:
//!
//! * the communication accounting keeps its defining invariant
//!   `retries == attempts - calls`;
//! * every span tree is well-nested (children strictly inside their
//!   parents, siblings ordered by start tick);
//! * the per-LAM `rows`/`bytes` counters and span annotations agree with
//!   the multitable the statement actually returned.

use mdbs::fixtures::paper_federation_with;
use mdbs::{Federation, RetryPolicy};
use netsim::Network;
use obs::SpanNode;
use proptest::prelude::*;
use std::time::Duration;

const Q1: &str = "USE avis national
    LET car.type.status BE cars.cartype.carst vehicle.vty.vstat
    SELECT %code, type, ~rate FROM car WHERE status = 'available'";

/// The paper federation on a seeded lossy network (short timeouts, a bounded
/// retry budget).
fn lossy_federation(seed: u64, drop_pct: u8, max_attempts: u32) -> Federation {
    let mut fed = paper_federation_with(Network::with_seed(seed), Default::default());
    fed.timeout = Duration::from_millis(120);
    if max_attempts > 1 {
        fed.retry = RetryPolicy { max_attempts, ..RetryPolicy::retries(max_attempts) };
    }
    for site in ["site4", "site5"] {
        fed.network().set_link_drop_probability("*", site, f64::from(drop_pct) / 100.0);
        fed.network().set_link_drop_probability(site, "*", f64::from(drop_pct) / 100.0);
    }
    fed
}

fn heal(fed: &Federation) {
    for site in ["site4", "site5"] {
        fed.network().clear_link_drop_probability("*", site);
        fed.network().clear_link_drop_probability(site, "*");
    }
}

/// Asserts the forest under `nodes` is well-nested: each node closes after
/// it opens, children live strictly inside their parent, and siblings are
/// ordered by start tick.
fn assert_well_nested(nodes: &[SpanNode], parent: Option<(u64, u64)>) {
    let mut prev_start = None;
    for n in nodes {
        assert!(n.start < n.end, "span `{}` closes before it opens: {n:?}", n.name);
        if let Some((ps, pe)) = parent {
            assert!(
                ps < n.start && n.end < pe,
                "span `{}` [{}, {}] leaks out of its parent [{ps}, {pe}]",
                n.name,
                n.start,
                n.end
            );
        }
        if let Some(prev) = prev_start {
            assert!(prev <= n.start, "siblings out of order at `{}`", n.name);
        }
        prev_start = Some(n.start);
        assert_well_nested(&n.children, Some((n.start, n.end)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `retries == attempts - calls` no matter how many resends the loss
    /// pattern forces, and regardless of whether the statement survives.
    #[test]
    fn retries_are_attempts_minus_calls(
        seed in any::<u64>(),
        drop_pct in 0u8..=30,
        max_attempts in 1u32..=5,
    ) {
        let mut fed = lossy_federation(seed, drop_pct, max_attempts);
        let _ = fed.execute(Q1); // both outcomes are fine; the accounting must hold either way
        heal(&fed);
        let stats = fed.exec_stats();
        prop_assert!(stats.calls > 0, "the statement issued at least one LAM call");
        prop_assert_eq!(
            stats.retries,
            stats.attempts - stats.calls,
            "accounting invariant violated: {:?}",
            stats
        );
    }

    /// The span tree of any traced statement is well-nested.
    #[test]
    fn span_trees_are_well_nested(
        seed in any::<u64>(),
        drop_pct in 0u8..=30,
        max_attempts in 1u32..=5,
    ) {
        let mut fed = lossy_federation(seed, drop_pct, max_attempts);
        let _ = fed.execute(Q1);
        heal(&fed);
        let trace = fed.last_trace().expect("the statement left a trace");
        assert_well_nested(&trace.roots, None);
    }

    /// On a healthy network the `lam.rows`/`lam.bytes` counters and the
    /// task-span annotations agree exactly with the returned multitable.
    #[test]
    fn row_and_byte_counters_match_the_multitable(status in prop::sample::select(
        vec!["available", "rented", "nosuch"],
    )) {
        let mut fed = paper_federation_with(Network::new(), Default::default());
        let msql = format!(
            "USE avis national
             LET car.type.status BE cars.cartype.carst vehicle.vty.vstat
             SELECT %code, type, ~rate FROM car WHERE status = '{status}'"
        );
        let mt = fed.execute(&msql).unwrap().into_multitable().unwrap();
        let metrics = fed.metrics();
        let counter = |name: &str, db: &str| {
            metrics.counters.get(&obs::labeled(name, "db", db)).copied().unwrap_or(0)
        };
        let mut span_rows = std::collections::HashMap::new();
        fed.last_trace().unwrap().visit(&mut |n| {
            if n.name.starts_with("task:") {
                let db = n.notes.iter().find(|(k, _)| k == "db").map(|(_, v)| v.clone());
                let rows = n
                    .notes
                    .iter()
                    .find(|(k, _)| k == "rows")
                    .and_then(|(_, v)| v.parse::<u64>().ok())
                    .unwrap_or(0);
                if let Some(db) = db {
                    *span_rows.entry(db).or_insert(0u64) += rows;
                }
            }
        });
        for table in &mt.tables {
            let rows = table.result.rows.len() as u64;
            prop_assert_eq!(
                counter("lam.rows", &table.database),
                rows,
                "lam.rows counter for `{}`",
                &table.database
            );
            prop_assert!(
                counter("lam.bytes", &table.database) > 0,
                "some payload bytes were shipped from `{}`",
                &table.database
            );
            prop_assert_eq!(
                span_rows.get(&table.database).copied().unwrap_or(0),
                rows,
                "task-span rows annotation for `{}`",
                &table.database
            );
        }
    }
}
