//! Experiment B10 — local access paths (LDBS secondary indexes).
//!
//! Two questions, matching the two sides of the index trade-off:
//!
//! * how much faster are point / IN / narrow-range lookups through a
//!   secondary index than the reference full scan, as the table grows?
//! * what does incremental index maintenance cost DML, measured as an
//!   insert+delete round trip with and without indexes present?
//!
//! Besides the criterion groups, `write_summary` records one
//! machine-readable sweep to `BENCH_local_index.json` at the repo root; the
//! acceptance bar is a ≥10x indexed point/IN speedup at 10k rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ldbs::exec::select::execute_select_with;
use ldbs::profile::DbmsProfile;
use ldbs::Engine;
use msql_lang::{parse_statement, QueryBody, Select, Statement};
use std::hint::black_box;
use std::time::Instant;

/// An engine holding `items (k INT, c CHAR(8), v FLOAT)` with `rows` rows,
/// k distinct 0..rows, c cycling through ten categories. With `indexed`, a
/// BTree index on `k` (point + range) and a hash index on `c`.
fn engine(rows: usize, indexed: bool) -> Engine {
    let mut e = Engine::new("svc", DbmsProfile::oracle_like());
    e.create_database("db").unwrap();
    e.execute("db", "CREATE TABLE items (k INT, c CHAR(8), v FLOAT)").unwrap();
    if indexed {
        e.execute("db", "CREATE INDEX items_k ON items (k) USING BTREE").unwrap();
        e.execute("db", "CREATE INDEX items_c ON items (c) USING HASH").unwrap();
    }
    for i in 0..rows {
        e.execute("db", &format!("INSERT INTO items VALUES ({i}, 'c{}', {}.5)", i % 10, i % 97))
            .unwrap();
    }
    e
}

fn parse_select(sql: &str) -> Select {
    let Statement::Query(q) = parse_statement(sql).unwrap() else { panic!("not a query") };
    let QueryBody::Select(sel) = q.body else { panic!("not a select") };
    sel
}

/// The three lookup shapes of the sweep, sized relative to the table.
fn lookup_queries(rows: usize) -> [(&'static str, String); 3] {
    let mid = rows / 2;
    let ins: Vec<String> = (0..8).map(|i| (i * rows / 8 + 3).to_string()).collect();
    [
        ("point", format!("SELECT k, v FROM items WHERE k = {mid}")),
        ("in", format!("SELECT k, v FROM items WHERE k IN ({})", ins.join(", "))),
        ("range", format!("SELECT k, v FROM items WHERE k BETWEEN {mid} AND {}", mid + 20)),
    ]
}

fn bench_lookup_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("b10_local_index_lookup");
    group.sample_size(10);
    for rows in [1_000usize, 10_000] {
        let e = engine(rows, true);
        let db = e.database("db").unwrap();
        for (kind, sql) in lookup_queries(rows) {
            let sel = parse_select(&sql);
            for (mode, fast) in [("probe", true), ("scan", false)] {
                group.bench_with_input(
                    BenchmarkId::new(format!("{kind}_{mode}"), rows),
                    &rows,
                    |b, _| b.iter(|| black_box(execute_select_with(db, &sel, &[], fast).unwrap())),
                );
            }
        }
    }
    group.finish();
}

fn bench_dml_maintenance(c: &mut Criterion) {
    // Insert+delete round trip: the delete keeps the table (and timing)
    // stable across iterations while both statements maintain the indexes.
    let mut group = c.benchmark_group("b10_local_index_dml");
    group.sample_size(10);
    for rows in [1_000usize, 10_000] {
        for (label, indexed) in [("indexed", true), ("bare", false)] {
            let mut e = engine(rows, indexed);
            let key = rows + 7;
            group.bench_with_input(BenchmarkId::new(label, rows), &rows, |b, _| {
                b.iter(|| {
                    e.execute("db", &format!("INSERT INTO items VALUES ({key}, 'cx', 0.5)"))
                        .unwrap();
                    e.execute("db", &format!("DELETE FROM items WHERE k = {key}")).unwrap();
                })
            });
        }
    }
    group.finish();
}

/// Mean microseconds per execution over `iters` runs (after one warm-up).
fn time_select(e: &Engine, sel: &Select, fast: bool, iters: u32) -> f64 {
    let db = e.database("db").unwrap();
    black_box(execute_select_with(db, sel, &[], fast).unwrap());
    let t = Instant::now();
    for _ in 0..iters {
        black_box(execute_select_with(db, sel, &[], fast).unwrap());
    }
    t.elapsed().as_secs_f64() * 1e6 / f64::from(iters)
}

/// One full sweep, recorded as JSON so successive runs can be compared.
fn write_summary(_c: &mut Criterion) {
    let mut lookup = Vec::new();
    for rows in [1_000usize, 10_000] {
        let e = engine(rows, true);
        for (kind, sql) in lookup_queries(rows) {
            let sel = parse_select(&sql);
            let probe = time_select(&e, &sel, true, 200);
            let scan = time_select(&e, &sel, false, 40);
            lookup.push(format!(
                "    {{\"rows\": {rows}, \"kind\": \"{kind}\", \"probe_us\": {probe:.2}, \
                 \"scan_us\": {scan:.2}, \"speedup\": {:.1}}}",
                scan / probe
            ));
        }
    }

    let mut dml = Vec::new();
    for rows in [1_000usize, 10_000] {
        let mut us = [0f64; 2];
        for (slot, indexed) in [(0, true), (1, false)] {
            let mut e = engine(rows, indexed);
            let key = rows + 7;
            let iters = 200u32;
            let t = Instant::now();
            for _ in 0..iters {
                e.execute("db", &format!("INSERT INTO items VALUES ({key}, 'cx', 0.5)")).unwrap();
                e.execute("db", &format!("DELETE FROM items WHERE k = {key}")).unwrap();
            }
            us[slot] = t.elapsed().as_secs_f64() * 1e6 / f64::from(iters);
        }
        dml.push(format!(
            "    {{\"rows\": {rows}, \"indexed_us\": {:.2}, \"bare_us\": {:.2}, \
             \"overhead\": {:.2}}}",
            us[0],
            us[1],
            us[0] / us[1]
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"b10_local_index\",\n  \"lookup\": [\n{}\n  ],\n  \"dml\": [\n{}\n  ]\n}}\n",
        lookup.join(",\n"),
        dml.join(",\n")
    );
    // A `--test` smoke pass proves the sweep above (and what it asserts) still
    // runs; only a real run rewrites the tracked summary.
    if std::env::args().any(|arg| arg == "--test") {
        return;
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_local_index.json");
    std::fs::write(path, &json).unwrap();
    println!("b10_local_index: summary written to {path}");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_lookup_sweep, bench_dml_maintenance, write_summary
}
criterion_main!(benches);
