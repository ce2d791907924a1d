//! Property tests for the wire formats and the LAM protocol: every encoder
//! must roundtrip through its decoder for arbitrary content (including
//! pipes, newlines, backslashes and non-ASCII text).

use catalog::{GddColumn, GddTable};
use ldbs::engine::{ColumnMeta, ResultSet};
use ldbs::value::{DataType, Value};
use mdbs::codec::{self, columnar};
use mdbs::proto::{self, Request, Response, RowsResponse, TaskMode};
use mdbs::wire;
use msql_lang::TypeName;
use proptest::prelude::*;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only: NaN breaks equality, infinity never occurs in
        // engine output (division by zero yields NULL).
        any::<f64>().prop_filter("finite", |f| f.is_finite()).prop_map(Value::Float),
        ".*".prop_map(Value::Str),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn type_strategy() -> impl Strategy<Value = DataType> {
    prop_oneof![
        Just(DataType::Int),
        Just(DataType::Float),
        (0u32..1000).prop_map(DataType::Char),
        Just(DataType::Bool),
        Just(DataType::Date),
    ]
}

fn ident_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,12}".prop_map(|s| s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn value_roundtrip(v in value_strategy()) {
        let enc = wire::encode_value(&v);
        prop_assert_eq!(wire::decode_value(&enc).unwrap(), v);
    }

    #[test]
    fn result_set_roundtrip(
        names in proptest::collection::vec(ident_strategy(), 1..5),
        types in proptest::collection::vec(type_strategy(), 1..5),
        nrows in 0usize..8,
        values in proptest::collection::vec(value_strategy(), 0..40),
    ) {
        let ncols = names.len().min(types.len());
        let columns: Vec<ColumnMeta> = names
            .iter()
            .take(ncols)
            .zip(types.iter().take(ncols))
            .map(|(n, t)| ColumnMeta { name: n.clone(), data_type: *t })
            .collect();
        let mut rows = Vec::new();
        let mut vi = 0;
        for _ in 0..nrows {
            let mut row = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                row.push(values.get(vi).cloned().unwrap_or(Value::Null));
                vi += 1;
            }
            rows.push(row);
        }
        let rs = ResultSet { columns, rows };
        let enc = wire::encode_result_set(&rs);
        prop_assert_eq!(wire::decode_result_set(&enc).unwrap(), rs);
    }

    #[test]
    fn schema_roundtrip(
        tables in proptest::collection::vec(
            (ident_strategy(), proptest::collection::vec(ident_strategy(), 1..5), any::<bool>()),
            0..5,
        )
    ) {
        let schema: Vec<GddTable> = tables
            .into_iter()
            .map(|(name, cols, is_view)| {
                let mut seen = Vec::new();
                let columns = cols
                    .into_iter()
                    .filter(|c| {
                        if seen.contains(c) {
                            false
                        } else {
                            seen.push(c.clone());
                            true
                        }
                    })
                    .map(|c| GddColumn::new(c, TypeName::Char(0)))
                    .collect();
                let mut t = GddTable::new(name, columns);
                t.is_view = is_view;
                t
            })
            .collect();
        let enc = wire::encode_schema(&schema);
        prop_assert_eq!(wire::decode_schema(&enc).unwrap(), schema);
    }

    #[test]
    fn request_roundtrip(
        name in ident_strategy(),
        db in ident_strategy(),
        nocommit in any::<bool>(),
        commands in proptest::collection::vec(".{1,60}", 0..4),
    ) {
        // Commands may contain anything; blank-only commands are dropped by
        // the line codec, so filter them like the translator would.
        let commands: Vec<String> = commands
            .into_iter()
            .filter(|c: &String| !c.trim().is_empty() && !c.contains('\r'))
            .collect();
        let req = Request::Task {
            name: name.clone(),
            mode: if nocommit { TaskMode::NoCommit } else { TaskMode::Auto },
            database: db,
            commands,
        };
        let enc = req.encode();
        prop_assert_eq!(Request::decode(&enc).unwrap(), req);
    }

    #[test]
    fn response_roundtrip(
        status in prop::sample::select(vec!['P', 'C', 'A', 'E']),
        affected in any::<u64>(),
        error in proptest::option::of("[^\\r]{1,40}"),
    ) {
        let resp = Response::TaskDone { status, affected, payload: None, error };
        let enc = resp.encode();
        prop_assert_eq!(Response::decode(&enc).unwrap(), resp);
    }
}

#[test]
fn a_result_set_decodes_in_under_three_encodes() {
    // Every partial, COMBINE part and reply is decoded once per crossing: a
    // decoder that builds two strings per field costs four to five encodes.
    let mut state = 0x2545_F491u64;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let rows: Vec<Vec<Value>> = (0..20_000)
        .map(|i| {
            let s: String = (0..16).map(|_| (b'a' + (next() % 26) as u8) as char).collect();
            vec![Value::Int(i % 500), Value::Int(i % 10), Value::Int(next() as i64), Value::Str(s)]
        })
        .collect();
    let columns = [("k", DataType::Int), ("g", DataType::Int), ("v", DataType::Int)]
        .into_iter()
        .chain([("s", DataType::Char(16))])
        .map(|(name, data_type)| ColumnMeta { name: name.into(), data_type })
        .collect();
    let rs = ResultSet { columns, rows };
    let text = wire::encode_result_set(&rs);
    assert_eq!(wire::decode_result_set(&text).unwrap(), rs);
    // Fastest of five, so a descheduled run does not count.
    let fastest = |f: &dyn Fn()| {
        (0..5)
            .map(|_| {
                let start = std::time::Instant::now();
                f();
                start.elapsed()
            })
            .min()
            .unwrap()
    };
    let encode = fastest(&|| drop(wire::encode_result_set(&rs)));
    let decode = fastest(&|| drop(wire::decode_result_set(&text)));
    assert!(decode < 3 * encode, "decoding took {decode:?}, encoding {encode:?}");
}

/// A partial a site would ship for a cross-database join: sequential keys, a
/// float rate with some NULLs, and two low-cardinality strings where the
/// dictionary encoding bites.
fn partial_rows(rows: usize) -> ResultSet {
    const STATUSES: [&str; 3] = ["available", "rented", "maintenance"];
    const CITIES: [&str; 5] = ["Houston", "San Antonio", "Dallas", "Austin", "El Paso"];
    let columns = [
        ("fnu", DataType::Int),
        ("rate", DataType::Float),
        ("status", DataType::Char(12)),
        ("source", DataType::Char(16)),
    ]
    .into_iter()
    .map(|(name, data_type)| ColumnMeta { name: name.into(), data_type })
    .collect();
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

#[test]
fn the_binary_wire_ships_at_most_half_the_text_bytes() {
    // Payload: the line codec against the columnar layout. Frame: the same
    // rows as a complete correlated PARTIALDONE, the bytes a LAM puts on the
    // wire in either format.
    for rows in [1_000, 10_000] {
        let rs = partial_rows(rows);
        let text = wire::encode_result_set(&rs).len();
        let binary = columnar::encode_result_set(&rs).len();
        assert!(text >= 2 * binary, "payload at {rows} rows: text {text} vs binary {binary}");

        let resp = RowsResponse::PartialDone {
            payload: Some(rs),
            error: None,
            full_rows: rows as u64,
            full_bytes: 0,
            access: Some("scan".into()),
        };
        let text = proto::encode_with_correlation(7, &resp.encode()).len();
        let binary = codec::response_bytes(Some(7), &resp).len();
        assert!(text >= 2 * binary, "frame at {rows} rows: text {text} vs binary {binary}");
    }
}
