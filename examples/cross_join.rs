//! The cross-database join fast path, end to end.
//!
//! A selective equi-join between continental and delta is decomposed into
//! two local subqueries; the executor picks continental as the semi-join
//! *reducer*, ships its distinct join-key values to delta as an injected
//! `IN (…)` filter (so only matching rows cross the wire), collects both
//! partials at the coordinator in one batched round trip, and hash-joins
//! the two-table Q' there. EXPLAIN names the strategy and the measured
//! bytes the reduction saved; turning `Federation::semijoin` off shows the
//! same rows shipping the full partials instead. Creating a secondary index
//! on the reduced side's join column then flips its partial from a full
//! scan to an index probe (`access=probe`), with identical rows. Finally,
//! ANALYZE on both sites switches the join to the cost-based planner: the
//! reducer is chosen by estimated partial size and EXPLAIN reports the
//! estimates next to the actual row counts.
//!
//! ```sh
//! cargo run --example cross_join
//! ```

use mdbs::fixtures::paper_federation;

const QUERY: &str = "SELECT f.flnu, g.fnu
    FROM continental.flights f, delta.flight g
    WHERE f.source = g.source AND f.destination = g.dest
    ORDER BY f.flnu, g.fnu";

/// Sums the `lam.bytes{db=…}` counters: partial/global payload bytes the
/// sites shipped back.
fn shipped_bytes(fed: &mdbs::Federation) -> u64 {
    fed.metrics()
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("lam.bytes{"))
        .map(|(_, v)| *v)
        .sum()
}

fn main() {
    let mut fed = paper_federation();
    fed.execute("USE continental delta").expect("scope");

    println!("-- EXPLAIN, semi-join reduction on (the default) --");
    let report = fed
        .execute(&format!("EXPLAIN {QUERY}"))
        .expect("EXPLAIN cross-db join")
        .into_explain()
        .expect("an explain report");
    println!("{}", report.render());

    // Byte comparison on fresh federations (metrics are cumulative, and the
    // EXPLAIN above already executed the statement once).
    let run = |semijoin: bool| {
        let mut fed = paper_federation();
        fed.semijoin = semijoin;
        fed.execute("USE continental delta").expect("scope");
        let rows = fed.execute(QUERY).expect("join").into_table().expect("a table");
        (rows, shipped_bytes(&fed))
    };
    let (rows, reduced_bytes) = run(true);
    let (unreduced, full_bytes) = run(false);
    assert_eq!(rows.rows, unreduced.rows, "the reduction must not change the result");

    println!("-- result ({} row(s)) --", rows.rows.len());
    for row in &rows.rows {
        println!("{row:?}");
    }

    println!();
    println!("-- shipped payload bytes (Σ lam.bytes{{db=…}}) --");
    println!("semijoin on:  {reduced_bytes}");
    println!("semijoin off: {full_bytes}");

    // Index the column delta receives the shipped IN (…) filter on: the
    // reduced partial's access path flips from scan to probe.
    println!();
    println!("-- EXPLAIN again, after CREATE INDEX on the shipped join column --");
    let mut indexed = paper_federation();
    indexed.execute("USE continental delta").expect("scope");
    indexed
        .execute("CREATE INDEX flight_source ON delta.flight (source) USING HASH")
        .expect("CREATE INDEX");
    let report = indexed
        .execute(&format!("EXPLAIN {QUERY}"))
        .expect("EXPLAIN indexed join")
        .into_explain()
        .expect("an explain report");
    println!("{}", report.render());
    let probed = indexed.execute(QUERY).expect("join").into_table().expect("a table");
    assert_eq!(rows.rows, probed.rows, "the index probe must not change the result");
    println!("indexed probe returned the same {} row(s)", probed.rows.len());

    // ANALYZE both sites and the same join plans by estimated shipped bytes
    // instead of conjunct counting: the smallest estimated partial reduces
    // (planner=costed on the join span), each partial carries its est_rows,
    // and EXPLAIN closes with estimates next to the actual row counts.
    println!();
    println!("-- EXPLAIN again, costed: after ANALYZE on both sites --");
    let mut costed = paper_federation();
    costed.execute("USE continental delta").expect("scope");
    costed.execute("ANALYZE continental.flights").expect("ANALYZE continental");
    costed.execute("ANALYZE delta.flight").expect("ANALYZE delta");
    let report = costed
        .execute(&format!("EXPLAIN {QUERY}"))
        .expect("EXPLAIN costed join")
        .into_explain()
        .expect("an explain report");
    println!("{}", report.render());
    let planned = costed.execute(QUERY).expect("join").into_table().expect("a table");
    assert_eq!(rows.rows, planned.rows, "the costed plan must not change the result");
    println!("costed plan returned the same {} row(s)", planned.rows.len());
}
