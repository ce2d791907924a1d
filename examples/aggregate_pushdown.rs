//! Distributed aggregation & top-k pushdown, end to end.
//!
//! A decomposable cross-database GROUP BY is rewritten so each site
//! pre-aggregates its own rows (grouped by join keys ∪ its group keys,
//! shipping counts/sums/extrema state columns) and the MDBS layer merges
//! the partial states — no full partials ever reach the coordinator.
//! EXPLAIN names the strategy (`strategy=agg-pushdown`) on the join span and
//! notes on each site's partial span the rows it shipped (`rows=`) next to the
//! rows the unpushed subquery returns (`full_rows=`). A pure-product ORDER BY … LIMIT k instead ships each site's local
//! top-k (`strategy=topk-pushdown`). Turning `Federation::agg_pushdown`
//! off takes the classic ship-everything coordinator path; both paths must
//! return identical rows, which this example asserts while printing the
//! payload bytes each path shipped.
//!
//! ```sh
//! cargo run --example aggregate_pushdown
//! ```

use mdbs::fixtures::paper_federation;

const GROUP_QUERY: &str = "SELECT f.source, COUNT(*), MIN(g.rate), AVG(g.rate)
    FROM continental.flights f, delta.flight g
    WHERE f.source = g.source GROUP BY f.source";

const TOPK_QUERY: &str = "SELECT f.flnu, g.fnu
    FROM continental.flights f, delta.flight g
    ORDER BY f.flnu DESC, g.fnu LIMIT 3";

/// Sums the `lam.bytes{db=…}` counters: payload bytes the sites shipped.
fn shipped_bytes(fed: &mdbs::Federation) -> u64 {
    fed.metrics()
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("lam.bytes{"))
        .map(|(_, v)| *v)
        .sum()
}

/// Runs `query` on a fresh federation and returns (rows, shipped bytes).
fn run(query: &str, pushdown: bool) -> (Vec<Vec<ldbs::value::Value>>, u64) {
    let mut fed = paper_federation();
    fed.agg_pushdown = pushdown;
    fed.execute("USE continental delta").expect("scope");
    let rows = fed.execute(query).expect("query").into_table().expect("a table").rows;
    let bytes = shipped_bytes(&fed);
    (rows, bytes)
}

fn main() {
    let mut fed = paper_federation();
    fed.execute("USE continental delta").expect("scope");

    println!("-- EXPLAIN, aggregate pushdown on (the default) --");
    let report = fed
        .execute(&format!("EXPLAIN {GROUP_QUERY}"))
        .expect("EXPLAIN pushed GROUP BY")
        .into_explain()
        .expect("an explain report");
    let render = report.render();
    assert!(render.contains("strategy=agg-pushdown"), "join span must name the strategy");
    for db in ["continental", "delta"] {
        let partial = report.tree.find(&format!("lam:partial:{db}")).expect("a partial per site");
        assert_eq!(partial.note("pushed"), Some("agg"), "{db} must pre-aggregate");
        assert!(partial.note("full_rows").is_some(), "{db} must measure its unpushed rows");
    }
    println!("{render}");

    // Same rows with pushdown off, on fresh federations so the cumulative
    // byte counters compare one execution against one execution.
    let (pushed, pushed_bytes) = run(GROUP_QUERY, true);
    let (classic, classic_bytes) = run(GROUP_QUERY, false);
    let mut classic_sorted = classic;
    classic_sorted.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| !o.is_eq())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    assert_eq!(pushed, classic_sorted, "pushdown must not change the aggregate result");

    println!("-- GROUP BY result ({} row(s)) --", pushed.len());
    for row in &pushed {
        println!("{row:?}");
    }
    println!();
    println!("-- shipped payload bytes (Σ lam.bytes{{db=…}}) --");
    println!("pushdown on:  {pushed_bytes}");
    println!("pushdown off: {classic_bytes}");
    println!("(at this toy fixture scale the per-group state columns dominate;");
    println!(" bench B14 measures the reductions at 1k–10k rows per site)");

    // Pure-product top-k: each site ships only its own LIMIT-3 prefix and
    // the MDBS layer merges the ≤ 3×3 candidates. Its ORDER BY pins a total
    // output order, so the two paths agree as sequences.
    let (topk, topk_bytes) = run(TOPK_QUERY, true);
    let (classic_topk, classic_topk_bytes) = run(TOPK_QUERY, false);
    assert_eq!(topk, classic_topk, "top-k pushdown must not change the result");

    println!();
    println!("-- top-k result ({} row(s)) --", topk.len());
    for row in &topk {
        println!("{row:?}");
    }
    println!();
    println!("-- shipped payload bytes (Σ lam.bytes{{db=…}}) --");
    println!("pushdown on:  {topk_bytes}");
    println!("pushdown off: {classic_topk_bytes}");
}
