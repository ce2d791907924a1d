//! Experiment B6 — local engine microbenchmarks.
//!
//! The substrate's raw costs: scans, filtered scans, joins, aggregates (few
//! groups and a thousand), top-k, an IN-list filter, point updates and the
//! full 2PC cycle, over table sizes 1k–100k rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ldbs::profile::DbmsProfile;
use ldbs::Engine;
use std::hint::black_box;

fn engine_with_rows(rows: usize) -> Engine {
    let mut e = Engine::new("bench", DbmsProfile::oracle_like());
    e.create_database("db").unwrap();
    e.execute(
        "db",
        "CREATE TABLE flights \
         (flnu INT, source CHAR(20), destination CHAR(20), rate FLOAT, grp INT)",
    )
    .unwrap();
    let cities = ["Houston", "Dallas", "Austin", "El Paso"];
    for r in 0..rows {
        e.execute(
            "db",
            &format!(
                "INSERT INTO flights VALUES ({r}, '{}', '{}', {}, {})",
                cities[r % 4],
                cities[(r + 1) % 4],
                50.0 + (r % 100) as f64,
                (r * 7) % 1000
            ),
        )
        .unwrap();
    }
    e
}

fn bench_scans(c: &mut Criterion) {
    let mut group = c.benchmark_group("b6_scan");
    let in_25 = format!(
        "SELECT flnu FROM flights WHERE grp IN ({})",
        (0..25).map(|i| (i * 37).to_string()).collect::<Vec<_>>().join(", ")
    );
    for rows in [1_000usize, 10_000, 100_000] {
        let mut e = engine_with_rows(rows);
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_with_input(BenchmarkId::new("full_scan", rows), &rows, |b, _| {
            b.iter(|| black_box(e.execute("db", "SELECT flnu FROM flights").unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("filtered_scan", rows), &rows, |b, _| {
            b.iter(|| {
                black_box(
                    e.execute(
                        "db",
                        "SELECT flnu FROM flights WHERE source = 'Houston' AND rate > 75",
                    )
                    .unwrap(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("aggregate", rows), &rows, |b, _| {
            b.iter(|| {
                black_box(
                    e.execute(
                        "db",
                        "SELECT source, COUNT(*), AVG(rate) FROM flights GROUP BY source",
                    )
                    .unwrap(),
                )
            })
        });
        for (name, sql) in [
            ("aggregate_1000_groups", "SELECT grp, COUNT(*), SUM(rate) FROM flights GROUP BY grp"),
            ("top_10", "SELECT flnu, rate FROM flights ORDER BY rate DESC, flnu LIMIT 10"),
            ("in_25_filter", in_25.as_str()),
        ] {
            group.bench_with_input(BenchmarkId::new(name, rows), &rows, |b, _| {
                b.iter(|| black_box(e.execute("db", sql).unwrap()))
            });
        }
    }
    group.finish();
}

fn bench_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("b6_join");
    group.sample_size(10);
    for rows in [100usize, 300] {
        let mut e = engine_with_rows(rows);
        group.bench_with_input(BenchmarkId::new("self_join_filtered", rows), &rows, |b, _| {
            b.iter(|| {
                black_box(
                    e.execute(
                        "db",
                        "SELECT a.flnu, b.flnu FROM flights a, flights b
                             WHERE a.destination = b.source AND a.flnu < 10",
                    )
                    .unwrap(),
                )
            })
        });
    }
    group.finish();
}

fn bench_dml_and_txn(c: &mut Criterion) {
    let mut group = c.benchmark_group("b6_dml");
    let mut e = engine_with_rows(10_000);
    group.bench_function("point_update", |b| {
        b.iter(|| {
            black_box(e.execute("db", "UPDATE flights SET rate = rate WHERE flnu = 5000").unwrap())
        })
    });
    group.bench_function("range_update", |b| {
        b.iter(|| {
            black_box(
                e.execute("db", "UPDATE flights SET rate = rate WHERE source = 'Houston'").unwrap(),
            )
        })
    });
    group.bench_function("insert_delete", |b| {
        b.iter(|| {
            e.execute("db", "INSERT INTO flights VALUES (999999, 'X', 'Y', 1.0, 0)").unwrap();
            e.execute("db", "DELETE FROM flights WHERE flnu = 999999").unwrap();
        })
    });
    group.bench_function("two_phase_commit_cycle", |b| {
        b.iter(|| {
            let txn = e.begin();
            e.execute_in(txn, "db", "UPDATE flights SET rate = rate WHERE flnu = 1").unwrap();
            e.prepare(txn).unwrap();
            e.commit(txn).unwrap();
        })
    });
    group.bench_function("rollback_cycle", |b| {
        b.iter(|| {
            let txn = e.begin();
            e.execute_in(txn, "db", "UPDATE flights SET rate = 0 WHERE flnu < 100").unwrap();
            e.rollback(txn).unwrap();
        })
    });
    group.finish();
}

fn bench_subquery(c: &mut Criterion) {
    let mut group = c.benchmark_group("b6_subquery");
    group.sample_size(20);
    let mut e = engine_with_rows(1_000);
    group.bench_function("scalar_min_reservation", |b| {
        b.iter(|| {
            black_box(
                e.execute(
                    "db",
                    "SELECT flnu FROM flights
                     WHERE rate = (SELECT MIN(rate) FROM flights WHERE source = 'Houston')",
                )
                .unwrap(),
            )
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_scans, bench_join, bench_dml_and_txn, bench_subquery
}
criterion_main!(benches);
