//! Experiment B12 — the binary columnar wire codec vs. the text proto.
//!
//! Three granularities:
//!
//! * payload level: a partial-result `ResultSet` serialized by the line
//!   codec (`wire::encode_result_set`) vs. the columnar layout
//!   (`codec::columnar`) — where dictionary encoding, varint ints and NULL
//!   bitmaps earn their keep;
//! * frame level: the same rows shipped as a complete correlated
//!   `Response::PartialDone`, text framing vs. binary framing — the bytes a
//!   LAM actually puts on the simulated wire;
//! * LAM level: one `LamClient::run_partial` against a spawned LAM on a
//!   0-latency network, from the call to rows usable at the coordinator —
//!   local execution, one encode, the hop, one decode. This is the number a
//!   statement pays; the two above are its parts.
//!
//! `write_summary` records bytes and encode/decode wall time at 1k and 10k
//! rows, and the LAM-level round trip at 1k and 20k rows, to
//! `BENCH_wire_codec.json` and asserts the headline claim: binary ships ≥2x
//! fewer payload bytes than text at 10k-row partials.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ldbs::engine::{ColumnMeta, ResultSet};
use ldbs::profile::DbmsProfile;
use ldbs::value::{DataType, Value};
use ldbs::Engine;
use mdbs::codec::{self, columnar, WireFormat};
use mdbs::lam::{spawn_lam, LamHandle};
use mdbs::lamclient::LamClient;
use mdbs::proto::RowsResponse;
use mdbs::wire;
use netsim::{BufferPool, Network};
use obs::Span;
use std::hint::black_box;
use std::time::{Duration, Instant};

const STATUSES: [&str; 3] = ["available", "rented", "maintenance"];
const CITIES: [&str; 5] = ["Houston", "San Antonio", "Dallas", "Austin", "El Paso"];

/// A partial-result shape a site would ship for a cross-database join:
/// sequential keys, a float rate with some NULLs, and two low-cardinality
/// string columns where the dictionary encoding bites.
fn partial_rows(rows: usize) -> ResultSet {
    let columns = vec![
        ColumnMeta { name: "fnu".into(), data_type: DataType::Int },
        ColumnMeta { name: "rate".into(), data_type: DataType::Float },
        ColumnMeta { name: "status".into(), data_type: DataType::Char(12) },
        ColumnMeta { name: "source".into(), data_type: DataType::Char(16) },
    ];
    let rows = (0..rows)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                if i % 7 == 0 { Value::Null } else { Value::Float(40.0 + (i % 13) as f64) },
                Value::Str(STATUSES[i % STATUSES.len()].to_string()),
                Value::Str(CITIES[i % CITIES.len()].to_string()),
            ]
        })
        .collect();
    ResultSet { columns, rows }
}

fn bench_payload(c: &mut Criterion) {
    let mut group = c.benchmark_group("b12_wire_codec_payload");
    group.sample_size(10);
    for rows in [1_000usize, 10_000] {
        let rs = partial_rows(rows);
        let text = wire::encode_result_set(&rs);
        let binary = columnar::encode_result_set(&rs);
        group.bench_with_input(BenchmarkId::new("encode_text", rows), &rows, |b, _| {
            b.iter(|| black_box(wire::encode_result_set(&rs)))
        });
        group.bench_with_input(BenchmarkId::new("encode_binary", rows), &rows, |b, _| {
            b.iter(|| black_box(columnar::encode_result_set(&rs)))
        });
        group.bench_with_input(BenchmarkId::new("decode_text", rows), &rows, |b, _| {
            b.iter(|| black_box(wire::decode_result_set(&text).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("decode_binary", rows), &rows, |b, _| {
            b.iter(|| black_box(columnar::decode_result_set(&binary).unwrap()))
        });
    }
    group.finish();
}

/// Framing cost of a reply holding rows: each codec serialises the result
/// set once into the frame and parses it once back out.
fn bench_frame(c: &mut Criterion) {
    let mut group = c.benchmark_group("b12_wire_codec_frame");
    group.sample_size(10);
    let pool = BufferPool::default();
    for rows in [1_000usize, 10_000] {
        let resp = partial_response(rows);
        let text = mdbs::proto::encode_with_correlation(7, &resp.encode());
        let binary = codec::encode_response(&pool, Some(7), &resp).into_vec();
        group.bench_with_input(BenchmarkId::new("encode_text", rows), &rows, |b, _| {
            b.iter(|| black_box(mdbs::proto::encode_with_correlation(7, &resp.encode())))
        });
        group.bench_with_input(BenchmarkId::new("encode_binary", rows), &rows, |b, _| {
            b.iter(|| black_box(codec::encode_response(&pool, Some(7), &resp)))
        });
        group.bench_with_input(BenchmarkId::new("decode_text", rows), &rows, |b, _| {
            b.iter(|| {
                let (_, body) = mdbs::proto::split_correlation(&text);
                black_box(RowsResponse::decode_as(body).unwrap())
            })
        });
        group.bench_with_input(BenchmarkId::new("decode_binary", rows), &rows, |b, _| {
            b.iter(|| black_box(codec::decode_response_as::<ResultSet>(&binary).unwrap()))
        });
    }
    group.finish();
}

/// The frame a LAM sends back for a `rows`-row partial.
fn partial_response(rows: usize) -> RowsResponse {
    RowsResponse::PartialDone {
        payload: Some(partial_rows(rows)),
        error: None,
        full_rows: rows as u64,
        full_bytes: 0,
        access: Some("scan".into()),
    }
}

/// A LAM serving `partial_rows(rows)` as table `t`, and a client connected
/// to it in `format`, on a 0-latency network.
fn lam_with_rows(rows: usize, format: WireFormat) -> (LamHandle, LamClient) {
    let mut engine = Engine::new("svc", DbmsProfile::oracle_like());
    engine.create_database("db").unwrap();
    engine
        .execute("db", "CREATE TABLE t (fnu INT, rate FLOAT, status CHAR(12), source CHAR(16))")
        .unwrap();
    let table = engine.database_mut("db").unwrap().table_mut("t").unwrap();
    for row in partial_rows(rows).rows {
        table.insert(row).unwrap();
    }
    let net = Network::new();
    let lam = spawn_lam(&net, "svc", "site", engine).unwrap();
    let mut client = LamClient::connect(&net, "site", "db", Duration::from_secs(30)).unwrap();
    client.set_wire_format(format);
    (lam, client)
}

/// `LamClient` call → `ResultSet`: what the coordinator waits for one
/// partial.
fn lam_to_rows(client: &LamClient) -> ResultSet {
    client
        .run_partial("SELECT fnu, rate, status, source FROM t", None, false, &Span::disabled())
        .unwrap()
        .rows
}

fn bench_lam_to_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("b12_wire_codec_lam_to_rows");
    group.sample_size(10);
    for rows in [1_000usize, 20_000] {
        for format in [WireFormat::Text, WireFormat::Binary] {
            let (_lam, client) = lam_with_rows(rows, format);
            assert_eq!(lam_to_rows(&client).rows.len(), rows);
            group.bench_with_input(BenchmarkId::new(format.label(), rows), &rows, |b, _| {
                b.iter(|| black_box(lam_to_rows(&client)))
            });
        }
    }
    group.finish();
}

/// Wall time for `iters` runs of `f`, in milliseconds.
fn timed<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    t.elapsed().as_secs_f64() * 1000.0 / iters as f64
}

/// One machine-readable sweep: bytes and per-op encode/decode time for both
/// formats, payload- and frame-level, recorded to `BENCH_wire_codec.json`.
fn write_summary(_c: &mut Criterion) {
    let pool = BufferPool::default();
    let mut entries = Vec::new();
    for rows in [1_000usize, 10_000] {
        let rs = partial_rows(rows);
        let iters = if rows >= 10_000 { 20 } else { 100 };

        let text_payload = wire::encode_result_set(&rs);
        let binary_payload = columnar::encode_result_set(&rs);
        let enc_text = timed(iters, || wire::encode_result_set(&rs));
        let enc_bin = timed(iters, || columnar::encode_result_set(&rs));
        let dec_text = timed(iters, || wire::decode_result_set(&text_payload).unwrap());
        let dec_bin = timed(iters, || columnar::decode_result_set(&binary_payload).unwrap());

        let resp = partial_response(rows);
        let text_frame = mdbs::proto::encode_with_correlation(7, &resp.encode());
        let binary_frame = codec::encode_response(&pool, Some(7), &resp).into_vec();

        // The headline acceptance claim: ≥2x fewer bytes on the wire.
        assert!(
            text_payload.len() >= 2 * binary_payload.len(),
            "payload at {rows} rows: text {} vs binary {}",
            text_payload.len(),
            binary_payload.len()
        );
        assert!(
            text_frame.len() >= 2 * binary_frame.len(),
            "frame at {rows} rows: text {} vs binary {}",
            text_frame.len(),
            binary_frame.len()
        );

        entries.push(format!(
            "    {{\"rows\": {rows}, \
             \"payload_bytes_text\": {}, \"payload_bytes_binary\": {}, \
             \"frame_bytes_text\": {}, \"frame_bytes_binary\": {}, \
             \"encode_ms_text\": {enc_text:.3}, \"encode_ms_binary\": {enc_bin:.3}, \
             \"decode_ms_text\": {dec_text:.3}, \"decode_ms_binary\": {dec_bin:.3}}}",
            text_payload.len(),
            binary_payload.len(),
            text_frame.len(),
            binary_frame.len(),
        ));
    }
    let mut lam = Vec::new();
    for rows in [1_000usize, 20_000] {
        let iters = if rows >= 20_000 { 10 } else { 100 };
        let ms = [WireFormat::Text, WireFormat::Binary].map(|format| {
            let (_lam, client) = lam_with_rows(rows, format);
            lam_to_rows(&client); // warm the connection and the buffer pool
            timed(iters, || lam_to_rows(&client))
        });
        lam.push(format!(
            "    {{\"rows\": {rows}, \"text_ms\": {:.3}, \"binary_ms\": {:.3}}}",
            ms[0], ms[1]
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"b12_wire_codec\",\n  \"sweep\": [\n{}\n  ],\n  \"lam_to_rows\": [\n{}\n  ]\n}}\n",
        entries.join(",\n"),
        lam.join(",\n")
    );
    // A `--test` smoke pass proves the sweep above (and what it asserts) still
    // runs; only a real run rewrites the tracked summary.
    if std::env::args().any(|arg| arg == "--test") {
        return;
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wire_codec.json");
    std::fs::write(path, &json).unwrap();
    println!("b12_wire_codec: summary written to {path}");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_payload, bench_frame, bench_lam_to_rows, write_summary
}
criterion_main!(benches);
