//! Experiment B14 — distributed aggregation and top-k pushdown.
//!
//! A 2-site star join: `db0.fact` holds `fact_rows` rows (join key spread
//! over 50 dimension codes, group key `g = i % 10`), `db1.dim` holds the 50
//! dimension rows. A GROUP BY over the join collapses to at most 10 output
//! groups, so shipping per-group partial states instead of full partials
//! cuts the wire volume roughly by the fact cardinality over the group
//! count. The pure-product top-k ships at most `LIMIT` rows per site
//! instead of both full tables.
//!
//! `write_summary` records the sweep to `BENCH_aggregate.json` and asserts
//! the headline claim: the pushed plans ship at most half the bytes of the
//! ship-everything plans at every size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ldbs::profile::DbmsProfile;
use ldbs::Engine;
use mdbs::Federation;
use netsim::Network;
use std::hint::black_box;
use std::time::Instant;

/// Decomposable GROUP BY over the equi-join: 10 output groups whatever the
/// fact cardinality.
const GROUP_QUERY: &str = "SELECT f.g, COUNT(*), SUM(f.v), MIN(d.w)
     FROM db0.fact f, db1.dim d WHERE f.k = d.code GROUP BY f.g";

/// Pure-product top-k: no cross-database predicate, so each site ships at
/// most 10 rows instead of its whole table.
const TOPK_QUERY: &str = "SELECT f.v, d.w FROM db0.fact f, db1.dim d
     ORDER BY f.v DESC, d.w LIMIT 10";

/// Two sites: `db0.fact` with `fact_rows` rows over 50 join keys and 10
/// groups, `db1.dim` with the 50 dimension rows.
fn star_federation(fact_rows: usize) -> Federation {
    let mut fed = Federation::with_network(Network::new());
    let mut e0 = Engine::new("svc0", DbmsProfile::oracle_like());
    e0.create_database("db0").unwrap();
    e0.execute("db0", "CREATE TABLE fact (k INT, g INT, v INT)").unwrap();
    for r in 0..fact_rows {
        e0.execute("db0", &format!("INSERT INTO fact VALUES ({}, {}, {r})", r % 50, r % 10))
            .unwrap();
    }
    let mut e1 = Engine::new("svc1", DbmsProfile::oracle_like());
    e1.create_database("db1").unwrap();
    e1.execute("db1", "CREATE TABLE dim (code INT, w INT)").unwrap();
    for r in 0..50 {
        e1.execute("db1", &format!("INSERT INTO dim VALUES ({r}, {})", r * 3)).unwrap();
    }
    fed.add_service("svc0", "site0", e0).unwrap();
    fed.add_service("svc1", "site1", e1).unwrap();
    fed.execute("IMPORT DATABASE db0 FROM SERVICE svc0").unwrap();
    fed.execute("IMPORT DATABASE db1 FROM SERVICE svc1").unwrap();
    fed.execute("USE db0 db1").unwrap();
    fed
}

fn pushdown_federation(fact_rows: usize, pushed: bool) -> Federation {
    let mut fed = star_federation(fact_rows);
    fed.agg_pushdown = pushed;
    fed
}

/// Sums every `lam.bytes{db=…}` counter: partial/global payload bytes
/// shipped back from the sites.
fn shipped_bytes(fed: &Federation) -> u64 {
    fed.metrics()
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("lam.bytes{"))
        .map(|(_, v)| *v)
        .sum()
}

fn bench_aggregate(c: &mut Criterion) {
    let mut group = c.benchmark_group("b14_aggregate");
    group.sample_size(10);
    for fact_rows in [1000usize, 10000] {
        for pushed in [true, false] {
            let mut fed = pushdown_federation(fact_rows, pushed);
            let label = if pushed { "pushed" } else { "unpushed" };
            group.bench_with_input(
                BenchmarkId::new(format!("group_by/{label}"), fact_rows),
                &fact_rows,
                |b, _| b.iter(|| black_box(fed.execute(GROUP_QUERY).unwrap())),
            );
        }
    }
    group.finish();
}

/// One full sweep over both query shapes, recorded as JSON; asserts the ≥2×
/// byte reduction that motivates the pushdown.
fn write_summary(_c: &mut Criterion) {
    let mut sections = Vec::new();
    for (name, query) in [("group_by", GROUP_QUERY), ("topk", TOPK_QUERY)] {
        let mut sweep = Vec::new();
        for fact_rows in [1000usize, 10000] {
            let mut bytes = [0u64; 2];
            let mut ms = [0f64; 2];
            let mut rows = [0usize; 2];
            for (slot, pushed) in [(0, true), (1, false)] {
                let mut fed = pushdown_federation(fact_rows, pushed);
                fed.execute(query).unwrap(); // warm connections
                let baseline = shipped_bytes(&fed);
                let t = Instant::now();
                let out = fed.execute(query).unwrap().into_table().unwrap();
                ms[slot] = t.elapsed().as_secs_f64() * 1000.0;
                bytes[slot] = shipped_bytes(&fed) - baseline;
                rows[slot] = out.rows.len();
            }
            assert_eq!(rows[0], rows[1], "pushed and unpushed plans must agree ({name})");
            assert!(
                bytes[0] * 2 <= bytes[1],
                "{name}: pushed plan should ship at most half the bytes: {} vs {} at \
                 {fact_rows} rows",
                bytes[0],
                bytes[1]
            );
            sweep.push(format!(
                "      {{\"fact_rows\": {fact_rows}, \"pushed_bytes\": {}, \
                 \"unpushed_bytes\": {}, \"pushed_ms\": {:.2}, \"unpushed_ms\": {:.2}}}",
                bytes[0], bytes[1], ms[0], ms[1]
            ));
        }
        sections.push(format!("    \"{name}\": [\n{}\n    ]", sweep.join(",\n")));
    }
    let json = format!(
        "{{\n  \"bench\": \"b14_aggregate\",\n  \"pushdown\": {{\n{}\n  }}\n}}\n",
        sections.join(",\n")
    );
    // A `--test` smoke pass proves the sweep above (and what it asserts) still
    // runs; only a real run rewrites the tracked summary.
    if std::env::args().any(|arg| arg == "--test") {
        return;
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_aggregate.json");
    std::fs::write(path, &json).unwrap();
    println!("b14_aggregate: summary written to {path}");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_aggregate, write_summary
}
criterion_main!(benches);
