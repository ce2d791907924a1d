//! Experiment B13 — the cost-based distributed planner.
//!
//! A deliberately skewed 2-site equi-join: `db0.big` is large and wide but
//! its local predicates are vacuous (`rate >= 0 AND flnu >= 0`), while
//! `db1.small` is tiny and carries no local predicate at all. The
//! conjunct-counting heuristic therefore picks the *large* side as the
//! semi-join reducer — exactly backwards — and past the fixed key cap gives
//! up on reduction altogether. The costed planner, fed by ANALYZE
//! statistics, reduces from the small side and ships an order of magnitude
//! fewer partial bytes.
//!
//! `write_summary` records the sweep to `BENCH_planner.json` and asserts the
//! headline claim: the costed plan ships at most half the bytes of the
//! heuristic plan on every skew level.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ldbs::profile::DbmsProfile;
use ldbs::Engine;
use mdbs::Federation;
use netsim::Network;
use std::hint::black_box;
use std::time::Instant;

/// The skewed query: tiny `small` drives the join into wide `big`, whose
/// two vacuous conjuncts bait the heuristic into reducing from `big`.
const QUERY: &str = "SELECT s.k, b.payload FROM db1.small s, db0.big b
     WHERE s.k = b.flnu AND b.rate >= 0 AND b.flnu >= 0 ORDER BY s.k";

/// Two sites: `db0.big` with `big_rows` wide rows (unique join keys), and
/// `db1.small` with 10 rows whose keys hit only the first 10 of `big`.
fn skewed_federation(big_rows: usize) -> Federation {
    let mut fed = Federation::with_network(Network::new());
    let mut e0 = Engine::new("svc0", DbmsProfile::oracle_like());
    e0.create_database("db0").unwrap();
    e0.execute("db0", "CREATE TABLE big (flnu INT, payload CHAR(40), rate FLOAT)").unwrap();
    for r in 0..big_rows {
        e0.execute(
            "db0",
            &format!("INSERT INTO big VALUES ({r}, 'payload-{r:032}', {}.5)", r % 97),
        )
        .unwrap();
    }
    let mut e1 = Engine::new("svc1", DbmsProfile::oracle_like());
    e1.create_database("db1").unwrap();
    e1.execute("db1", "CREATE TABLE small (k INT, tag CHAR(8))").unwrap();
    for r in 0..10 {
        e1.execute("db1", &format!("INSERT INTO small VALUES ({r}, 'tag{r}')")).unwrap();
    }
    fed.add_service("svc0", "site0", e0).unwrap();
    fed.add_service("svc1", "site1", e1).unwrap();
    fed.execute("IMPORT DATABASE db0 FROM SERVICE svc0").unwrap();
    fed.execute("IMPORT DATABASE db1 FROM SERVICE svc1").unwrap();
    fed.execute("USE db0 db1").unwrap();
    fed
}

/// Builds the federation on one of the two planning paths. The costed path
/// ANALYZEs both sites so the coordinator holds fresh statistics.
fn planner_federation(big_rows: usize, costed: bool) -> Federation {
    let mut fed = skewed_federation(big_rows);
    fed.cost_planner = costed;
    if costed {
        fed.execute("ANALYZE db0.big").unwrap();
        fed.execute("ANALYZE db1.small").unwrap();
    }
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

fn bench_planner(c: &mut Criterion) {
    let mut group = c.benchmark_group("b13_planner");
    group.sample_size(10);
    for big_rows in [100usize, 400] {
        for costed in [true, false] {
            let mut fed = planner_federation(big_rows, costed);
            let label = if costed { "costed" } else { "heuristic" };
            group.bench_with_input(BenchmarkId::new(label, big_rows), &big_rows, |b, _| {
                b.iter(|| black_box(fed.execute(QUERY).unwrap()))
            });
        }
    }
    group.finish();
}

/// One full sweep, recorded as JSON; asserts the ≥2× byte reduction that
/// motivates the planner.
fn write_summary(_c: &mut Criterion) {
    let mut sweep = Vec::new();
    for big_rows in [100usize, 400, 800] {
        let mut bytes = [0u64; 2];
        let mut ms = [0f64; 2];
        let mut rows = [0usize; 2];
        for (slot, costed) in [(0, true), (1, false)] {
            let mut fed = planner_federation(big_rows, costed);
            fed.execute(QUERY).unwrap(); // warm connections and the stats cache
            let baseline = shipped_bytes(&fed);
            let t = Instant::now();
            let out = fed.execute(QUERY).unwrap().into_table().unwrap();
            ms[slot] = t.elapsed().as_secs_f64() * 1000.0;
            bytes[slot] = shipped_bytes(&fed) - baseline;
            rows[slot] = out.rows.len();
        }
        assert_eq!(rows[0], rows[1], "costed and heuristic plans must agree");
        assert!(
            bytes[0] * 2 <= bytes[1],
            "costed plan should ship at most half the bytes: {} vs {} at {big_rows} rows",
            bytes[0],
            bytes[1]
        );
        sweep.push(format!(
            "    {{\"big_rows\": {big_rows}, \"costed_bytes\": {}, \"heuristic_bytes\": {}, \
             \"costed_ms\": {:.2}, \"heuristic_ms\": {:.2}}}",
            bytes[0], bytes[1], ms[0], ms[1]
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"b13_planner\",\n  \"skewed_semijoin\": [\n{}\n  ]\n}}\n",
        sweep.join(",\n")
    );
    // A `--test` smoke pass proves the sweep above (and what it asserts) still
    // runs; only a real run rewrites the tracked summary.
    if std::env::args().any(|arg| arg == "--test") {
        return;
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_planner.json");
    std::fs::write(path, &json).unwrap();
    println!("b13_planner: summary written to {path}");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_planner, write_summary
}
criterion_main!(benches);
