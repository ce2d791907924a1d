//! Experiment B9 — the cross-database join fast path.
//!
//! Three questions, matching the three layers of the join optimisation:
//!
//! * does parallel partial dispatch keep the wall clock at ≈1 link latency
//!   regardless of the number of sites (vs. ≈N·L serial)?
//! * does the semi-join reduction ship measurably fewer partial-result bytes
//!   as the per-site row count grows? (Three sites: the coordinator's own
//!   partial never ships, reduced or not, so with two the filter only
//!   decides who travels — the sweep asserts both.)
//! * what does the equi-join cost end to end as rows scale?
//!
//! Besides the criterion groups, `write_summary` records one machine-readable
//! sweep to `BENCH_cross_join.json` at the repo root so the perf trajectory
//! accumulates across runs.

use bench::workloads::{scaled_federation_on, scaled_use, uniform_latency};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ldbs::profile::DbmsProfile;
use mdbs::Federation;
use netsim::Network;
use std::hint::black_box;
use std::time::Instant;

/// Equi join over `sites` (2 or 3) databases: `db0` keeps a selective local
/// predicate so it becomes the semi-join reducer and travels; `db1`
/// coordinates, its rows staying home either way; `db2` ships either
/// everything (off) or only the rows matching `db0`'s keys (on).
fn star_query(sites: usize) -> String {
    let (from, edge) = match sites {
        2 => ("", ""),
        _ => (", db2.flights c", " AND a.flnu = c.flnu"),
    };
    format!(
        "SELECT a.flnu, b.rate FROM db0.flights a, db1.flights b{from}
         WHERE a.flnu = b.flnu{edge} AND a.source = 'Houston' ORDER BY a.flnu"
    )
}

/// N-site chain join with a per-site selective predicate, so partials and
/// the coordinator product stay tiny and the sweep measures dispatch
/// latency, not local join work.
fn chain_query(n: usize) -> String {
    let mut from = Vec::with_capacity(n);
    let mut wher = Vec::new();
    for i in 0..n {
        from.push(format!("db{i}.flights t{i}"));
        wher.push(format!("t{i}.flnu < 3"));
        if i > 0 {
            wher.push(format!("t{}.flnu = t{i}.flnu", i - 1));
        }
    }
    format!(
        "SELECT t0.flnu, t0.rate FROM {} WHERE {} ORDER BY t0.flnu",
        from.join(", "),
        wher.join(" AND ")
    )
}

fn federation(n: usize, rows: usize, latency_ms: u64) -> Federation {
    let net = Network::new();
    if latency_ms > 0 {
        uniform_latency(&net, latency_ms);
    }
    let mut fed = scaled_federation_on(net, n, rows, DbmsProfile::oracle_like());
    fed.execute(&scaled_use(n, 0)).unwrap();
    fed
}

/// Sums every `lam.bytes{db=…}` counter: the partial/global payload bytes
/// shipped back from the sites.
fn shipped_bytes(fed: &Federation) -> u64 {
    fed.metrics()
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("lam.bytes{"))
        .map(|(_, v)| *v)
        .sum()
}

fn bench_rows_sweep(c: &mut Criterion) {
    // 3 sites, equi-join at the coordinator, semijoin on vs. off.
    let mut group = c.benchmark_group("b9_cross_join_rows");
    group.sample_size(10);
    for rows in [20usize, 80, 320] {
        for semijoin in [true, false] {
            let mut fed = federation(3, rows, 0);
            fed.semijoin = semijoin;
            let query = star_query(3);
            let label = if semijoin { "semijoin" } else { "full" };
            group.bench_with_input(BenchmarkId::new(label, rows), &rows, |b, _| {
                b.iter(|| black_box(fed.execute(&query).unwrap()))
            });
        }
    }
    group.finish();
}

fn bench_site_sweep(c: &mut Criterion) {
    // Growing fan-out under a uniform per-link latency: parallel dispatch
    // should stay ≈1 link latency while serial grows ≈N·L.
    let mut group = c.benchmark_group("b9_cross_join_sites");
    group.sample_size(10);
    for n in [2usize, 4, 8] {
        for parallel in [true, false] {
            let mut fed = federation(n, 20, 3);
            fed.parallel = parallel;
            let query = chain_query(n);
            let label = if parallel { "parallel" } else { "serial" };
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| black_box(fed.execute(&query).unwrap()))
            });
        }
    }
    group.finish();
}

/// One full sweep, recorded as JSON so successive runs can be compared.
fn write_summary(_c: &mut Criterion) {
    let mut dispatch = Vec::new();
    for n in [2usize, 4, 8] {
        let mut elapsed = [0f64; 2];
        for (slot, parallel) in [(0, true), (1, false)] {
            let mut fed = federation(n, 20, 3);
            fed.parallel = parallel;
            let query = chain_query(n);
            fed.execute(&query).unwrap(); // warm connections
            let t = Instant::now();
            let out = fed.execute(&query).unwrap();
            elapsed[slot] = t.elapsed().as_secs_f64() * 1000.0;
            black_box(out);
        }
        dispatch.push(format!(
            "    {{\"sites\": {n}, \"parallel_ms\": {:.2}, \"serial_ms\": {:.2}}}",
            elapsed[0], elapsed[1]
        ));
    }

    // Savings are what the network carried with the reduction off minus on
    // (`net.bytes` around the statement: requests, key lists and partials
    // alike). The sites' own `lam.bytes_saved` baseline measurement is fed
    // only under EXPLAIN, which a benchmark of plain statements never runs.
    let measure = |sites: usize, rows: usize, semijoin: bool| {
        let mut fed = federation(sites, rows, 0);
        fed.semijoin = semijoin;
        let before = fed.metrics_registry().counter("net.bytes");
        fed.execute(&star_query(sites)).unwrap();
        (shipped_bytes(&fed), fed.metrics_registry().counter("net.bytes") - before)
    };
    let mut reduction = Vec::new();
    for rows in [20usize, 80, 320] {
        let mut bytes = [0u64; 2];
        let mut wire = [0u64; 2];
        for (slot, semijoin) in [(0, true), (1, false)] {
            (bytes[slot], wire[slot]) = measure(3, rows, semijoin);
        }
        assert!(
            bytes[0] < bytes[1] && wire[0] < wire[1],
            "the reduction should shrink what db2 ships at {rows} rows/site: partials {} vs {}, \
             network {} vs {}",
            bytes[0],
            bytes[1],
            wire[0],
            wire[1]
        );
        // With two sites the one reduced partial is the coordinator's, which
        // stays home: the filter itself saves no wire bytes. What it still
        // decides is who travels — the selective reducer, not whichever site
        // the FROM list names second.
        assert!(measure(2, rows, true).0 <= measure(2, rows, false).0, "{rows} rows/site");
        let saved = wire[1].saturating_sub(wire[0]);
        reduction.push(format!(
            "    {{\"rows_per_site\": {rows}, \"semijoin_bytes\": {}, \"full_bytes\": {}, \"bytes_saved\": {saved}}}",
            bytes[0], bytes[1]
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"b9_cross_join\",\n  \"dispatch\": [\n{}\n  ],\n  \"semijoin\": [\n{}\n  ]\n}}\n",
        dispatch.join(",\n"),
        reduction.join(",\n")
    );
    // A `--test` smoke pass proves the sweep above (and what it asserts) still
    // runs; only a real run rewrites the tracked summary.
    if std::env::args().any(|arg| arg == "--test") {
        return;
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cross_join.json");
    std::fs::write(path, &json).unwrap();
    println!("b9_cross_join: summary written to {path}");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_rows_sweep, bench_site_sweep, write_summary
}
criterion_main!(benches);
