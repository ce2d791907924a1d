//! Property tests for the binary wire codec — and the text-proto roundtrip
//! cases the original suite was missing.
//!
//! Every `Request`/`Response` variant and random `Value`s (NULLs,
//! negative/extreme ints, floats, strings containing `|`, `\n`, `\\`,
//! unicode) must satisfy `decode(encode(x)) == x` under *both* formats: the
//! line-oriented text proto and the length-prefixed binary frames.

use ldbs::engine::{ColumnMeta, ResultSet};
use ldbs::value::{DataType, Value};
use mdbs::codec::{
    columnar, decode_request, decode_request_as, decode_request_sized, decode_response,
    decode_response_as, request_bytes, response_bytes, WireFormat,
};
use mdbs::planner::EdgeRule;
use mdbs::proto::{CombineReport, HomeEdge, PartDone, Request, Response, TaskMode};
use mdbs::wire;
use proptest::prelude::*;

/// Strings the *text* proto can carry in escaped positions (commands, SQL,
/// error messages): anything non-blank. The escaper handles `|`, `\n`, `\r`
/// and `\\`; blank-only commands are dropped by the line codec.
fn nasty_string() -> impl Strategy<Value = String> {
    prop_oneof![
        ".{1,40}",
        // Force the troublemakers in: pipes, newlines, backslashes, unicode.
        Just("a|b\\p|c".to_string()),
        Just("line1\nline2\r\n\\n not a newline".to_string()),
        Just("trailing backslash \\".to_string()),
        Just("überflüssig — ユニコード 🚗".to_string()),
        Just("|\n\\|\n|".to_string()),
    ]
    .prop_filter("non-blank, no bare CR lines", |s| {
        !s.trim().is_empty() && s.lines().all(|l| !l.trim().is_empty())
    })
}

/// Single-token identifiers (task names, databases, tables) — the text
/// header lines split on whitespace.
fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,12}".prop_map(|s| s)
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        Just(Value::Int(i64::MIN)),
        Just(Value::Int(i64::MAX)),
        any::<f64>().prop_filter("finite", |f| f.is_finite()).prop_map(Value::Float),
        Just(Value::Float(-0.0)),
        nasty_string().prop_map(Value::Str),
        Just(Value::Str(String::new())),
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

/// A random result set — what a LAM's engine hands its codec.
fn result_set_strategy() -> impl Strategy<Value = ResultSet> {
    (
        proptest::collection::vec((ident(), type_strategy()), 1..4),
        proptest::collection::vec(value_strategy(), 0..24),
    )
        .prop_map(|(cols, values)| {
            let ncols = cols.len();
            let columns: Vec<ColumnMeta> =
                cols.into_iter().map(|(name, data_type)| ColumnMeta { name, data_type }).collect();
            let rows: Vec<Vec<Value>> =
                values.chunks_exact(ncols).map(|chunk| chunk.to_vec()).collect();
            ResultSet { columns, rows }
        })
}

/// A random result set, serialized canonically — what the payload fields of
/// the `String`-payload messages carry.
fn payload_strategy() -> impl Strategy<Value = String> {
    result_set_strategy().prop_map(|rs| wire::encode_result_set(&rs))
}

fn commands_strategy() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(nasty_string(), 0..4)
}

/// Every request variant, constrained only as the *text* format demands, so
/// one generated value exercises both codecs.
fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        (ident(), commands_strategy())
            .prop_map(|(task, commands)| Request::Exec { task, commands }),
        ident().prop_map(|task| Request::Prepare { task }),
        (ident(), 0..3u8, ident(), commands_strategy()).prop_map(
            |(name, mode, database, commands)| Request::Task {
                name,
                mode: [TaskMode::NoCommit, TaskMode::Auto, TaskMode::Hold][usize::from(mode)],
                database,
                commands,
            }
        ),
        ident().prop_map(|task| Request::Commit { task }),
        ident().prop_map(|task| Request::Abort { task }),
        (ident(), any::<bool>()).prop_map(|(task, commit)| Request::Resolve { task, commit }),
        (ident(), ident(), commands_strategy()).prop_map(|(task, database, commands)| {
            Request::Compensate { task, database, commands }
        }),
        (ident(), nasty_string(), proptest::option::of(nasty_string()))
            .prop_map(|(database, sql, baseline)| Request::Partial { database, sql, baseline }),
        (ident(), nasty_string(), proptest::option::of(nasty_string()))
            .prop_map(|(database, sql, baseline)| Request::PartialAgg { database, sql, baseline }),
        ident().prop_map(|database| Request::Schema { database }),
        (ident(), proptest::collection::vec((ident(), payload_strategy()), 0..3))
            .prop_map(|(database, parts)| Request::LoadMany { database, parts }),
        (ident(), proptest::collection::vec(ident(), 0..4))
            .prop_map(|(database, tables)| Request::DropMany { database, tables }),
        (
            ident(),
            proptest::option::of(nasty_string()),
            proptest::collection::vec(ident(), 0..3),
            proptest::collection::vec(edge_strategy(), 0..3),
            nasty_string(),
            any::<bool>(),
        )
            .prop_map(|(database, home, parts, edges, sql, measure)| Request::Combine {
                database,
                home,
                parts,
                edges,
                sql,
                measure,
            }),
        (
            any::<u64>(),
            ident(),
            ident(),
            nasty_string(),
            proptest::option::of(nasty_string()),
            any::<bool>(),
        )
            .prop_map(|(key, to, database, sql, baseline, echo)| Request::Ship {
                key,
                to,
                database,
                sql,
                baseline,
                echo,
            }),
        (
            any::<u64>(),
            ident(),
            proptest::option::of(payload_strategy()),
            proptest::option::of(prop::sample::select(vec!["probe", "scan"])),
            proptest::option::of(nasty_string()),
            any::<u64>(),
        )
            .prop_map(|(key, database, payload, access, error, full_bytes)| {
                // The text format cannot distinguish Some("") from None.
                let payload = payload.filter(|p| !p.is_empty());
                let access = access.map(str::to_string);
                Request::Part { key, database, payload, access, error, full_bytes }
            }),
        Just(Request::Ping),
        Just(Request::Shutdown),
    ]
}

/// A reduction edge into a coordinator's home subquery: identifiers and
/// either rule, a finite byte estimate included.
fn edge_strategy() -> impl Strategy<Value = HomeEdge> {
    let rule = prop_oneof![
        (0..100_000usize).prop_map(EdgeRule::Cap),
        (proptest::option::of(any::<u64>()), any::<f64>().prop_filter("finite", |f| f.is_finite()))
            .prop_map(|(ndv, bytes)| EdgeRule::Bytes { ndv, bytes }),
    ];
    (ident(), ident(), ident(), ident(), rule).prop_map(
        |(reducer, key_column, binding, column, rule)| HomeEdge {
            reducer,
            key_column,
            binding,
            column,
            rule,
        },
    )
}

/// What a coordinator reports on one part that travelled to it.
fn part_done_strategy() -> impl Strategy<Value = PartDone> {
    (
        any::<u64>(),
        any::<u64>(),
        proptest::option::of(prop::sample::select(vec!["probe", "scan"])),
        proptest::option::of(nasty_string()),
        any::<u64>(),
    )
        .prop_map(|(rows, bytes, access, error, saved)| PartDone {
            rows,
            bytes,
            access: access.map(str::to_string),
            error,
            saved,
        })
}

fn response_strategy() -> impl Strategy<Value = Response> {
    prop_oneof![
        (
            prop::sample::select(vec!['P', 'C', 'A', 'E', 'K']),
            any::<u64>(),
            proptest::option::of(payload_strategy()),
            proptest::option::of(nasty_string()),
        )
            .prop_map(|(status, affected, payload, error)| {
                // The text format cannot distinguish Some("") from None.
                let payload = payload.filter(|p| !p.is_empty());
                Response::TaskDone { status, affected, payload, error }
            }),
        (
            proptest::option::of(payload_strategy()),
            proptest::option::of(nasty_string()),
            any::<u64>(),
            any::<u64>(),
            proptest::option::of(prop::sample::select(vec!["probe", "scan"])),
        )
            .prop_map(|(payload, error, full_rows, full_bytes, access)| {
                let payload = payload.filter(|p| !p.is_empty());
                Response::PartialDone {
                    payload,
                    error,
                    full_rows,
                    full_bytes,
                    access: access.map(str::to_string),
                }
            }),
        (
            proptest::option::of(payload_strategy()),
            proptest::option::of(nasty_string()),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        )
            .prop_map(|(payload, error, groups, full_rows, full_bytes)| {
                let payload = payload.filter(|p| !p.is_empty());
                Response::PartialAggDone { payload, error, groups, full_rows, full_bytes }
            }),
        (
            proptest::option::of(payload_strategy()),
            any::<u64>(),
            proptest::option::of(prop::sample::select(vec!["probe", "scan"])),
            any::<u64>(),
            // A key count is below 2^63: the binary frame packs its flag
            // beside it.
            proptest::collection::vec((0..u64::MAX >> 1, any::<bool>()), 0..3),
            proptest::collection::vec(part_done_strategy(), 0..3),
        )
            .prop_map(|(payload, home_rows, access, saved, edges, parts)| {
                let payload = payload.filter(|p| !p.is_empty());
                let access = access.map(str::to_string);
                let report = Box::new(CombineReport { edges, parts });
                Response::CombineDone { payload, home_rows, access, saved, report }
            }),
        Just(Response::Ok),
        payload_strategy().prop_map(|payload| Response::OkPayload { payload }),
        nasty_string().prop_map(|message| Response::Err { message }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Text roundtrip for *every* request variant — the original suite only
    /// covered `Task`.
    #[test]
    fn text_request_roundtrip(req in request_strategy()) {
        let enc = req.encode();
        prop_assert_eq!(Request::decode(&enc).unwrap(), req);
    }

    /// Text roundtrip for every response variant, payloads included — the
    /// original suite only covered payload-free `TaskDone`.
    #[test]
    fn text_response_roundtrip(resp in response_strategy()) {
        let enc = resp.encode();
        prop_assert_eq!(Response::decode(&enc).unwrap(), resp);
    }

    /// Binary frame roundtrip for every request variant, with and without a
    /// correlation id.
    #[test]
    fn binary_request_roundtrip(req in request_strategy(), corr in proptest::option::of(any::<u64>())) {
        let frame = request_bytes(corr, &req);
        let (got_corr, got) = decode_request(&frame).unwrap();
        prop_assert_eq!(got_corr, corr);
        prop_assert_eq!(got, req);
    }

    /// Binary frame roundtrip for every response variant.
    #[test]
    fn binary_response_roundtrip(resp in response_strategy(), corr in proptest::option::of(any::<u64>())) {
        let frame = response_bytes(corr, &resp);
        let (got_corr, got) = decode_response(&frame).unwrap();
        prop_assert_eq!(got_corr, corr);
        prop_assert_eq!(got, resp);
    }

    /// The columnar layout roundtrips any result set the engine can produce.
    #[test]
    fn columnar_result_set_roundtrip(
        cols in proptest::collection::vec((ident(), type_strategy()), 1..5),
        values in proptest::collection::vec(value_strategy(), 0..40),
    ) {
        let ncols = cols.len();
        let columns: Vec<ColumnMeta> =
            cols.into_iter().map(|(name, data_type)| ColumnMeta { name, data_type }).collect();
        let rows: Vec<Vec<Value>> =
            values.chunks_exact(ncols).map(|chunk| chunk.to_vec()).collect();
        let rs = ResultSet { columns, rows };
        let enc = columnar::encode_result_set(&rs);
        prop_assert_eq!(columnar::decode_result_set(&enc).unwrap(), rs);
    }

    /// The two payload encodings agree: a canonical text payload shipped
    /// through a binary frame comes back byte-identical, even when the
    /// columnar transcoder kicked in.
    #[test]
    fn binary_frames_preserve_payload_bytes(payload in payload_strategy()) {
        let resp: Response = Response::OkPayload { payload: payload.clone() };
        let frame = response_bytes(None, &resp);
        let (_, got) = decode_response(&frame).unwrap();
        prop_assert_eq!(got, Response::OkPayload { payload });
    }

    /// Non-canonical payload strings (arbitrary text a buggy peer might
    /// stuff into a payload field) still roundtrip — the encoder falls back
    /// to the verbatim block rather than misdecoding.
    #[test]
    fn binary_frames_preserve_arbitrary_payloads(payload in ".{0,120}") {
        let parts = vec![("t".to_string(), payload)];
        let req = Request::LoadMany { database: "db".into(), parts };
        let frame = request_bytes(Some(7), &req);
        let (corr, got) = decode_request(&frame).unwrap();
        prop_assert_eq!(corr, Some(7));
        prop_assert_eq!(got, req);
    }

    /// Messages holding rows and messages holding the rows' canonical text
    /// are the same bytes on the wire, in both formats — the `String` shim
    /// and the typed path cannot drift apart.
    #[test]
    fn typed_and_text_payload_encoders_agree(
        rs in result_set_strategy(),
        corr in proptest::option::of(any::<u64>()),
    ) {
        let text = wire::encode_result_set(&rs);
        let typed_resp =
            Response::TaskDone { status: 'C', affected: 1, payload: Some(rs.clone()), error: None };
        let text_resp =
            Response::TaskDone { status: 'C', affected: 1, payload: Some(text.clone()), error: None };
        prop_assert_eq!(typed_resp.encode(), text_resp.encode());
        prop_assert_eq!(
            &*response_bytes(corr, &typed_resp),
            &*response_bytes(corr, &text_resp)
        );
        let typed_req = Request::LoadMany {
            database: "db".into(),
            parts: vec![("p1".to_string(), rs.clone()), ("p2".to_string(), rs.clone())],
        };
        let text_req = Request::LoadMany {
            database: "db".into(),
            parts: vec![("p1".to_string(), text.clone()), ("p2".to_string(), text.clone())],
        };
        prop_assert_eq!(typed_req.encode(), text_req.encode());
        prop_assert_eq!(
            &*request_bytes(corr, &typed_req),
            &*request_bytes(corr, &text_req)
        );
        fn part<P>(payload: P) -> Request<P> {
            Request::Part {
                key: 7,
                database: "db".into(),
                payload: Some(payload),
                access: Some("scan".to_string()),
                error: None,
                full_bytes: 0,
            }
        }
        let (typed_req, text_req) = (part(rs.clone()), part(text));
        prop_assert_eq!(typed_req.encode(), text_req.encode());
        prop_assert_eq!(
            &*request_bytes(None, &typed_req),
            &*request_bytes(None, &text_req)
        );
    }

    /// Typed decode ∘ typed encode is the identity in both formats, and the
    /// decoder reports the size of the block that carried the rows — the
    /// number `bytes=` notes and `lam.bytes` count.
    #[test]
    fn typed_roundtrip_is_identity(
        rs in result_set_strategy(),
        corr in proptest::option::of(any::<u64>()),
    ) {
        let resp = Response::PartialDone {
            payload: Some(rs.clone()),
            error: None,
            full_rows: 7,
            full_bytes: 9,
            access: Some("scan".to_string()),
        };
        let (got, size) = Response::<ResultSet>::decode_as(&resp.encode()).unwrap();
        prop_assert_eq!(&got, &resp);
        prop_assert_eq!(size, WireFormat::Text.payload_len(&rs));
        let frame = response_bytes(corr, &resp);
        let (got_corr, got, size) = decode_response_as::<ResultSet>(&frame).unwrap();
        prop_assert_eq!(got_corr, corr);
        prop_assert_eq!(&got, &resp);
        prop_assert_eq!(size, WireFormat::Binary.payload_len(&rs));

        // A part, like a reply, reports the size of the block that carried
        // its rows: the `bytes=` of the partial that travelled LAM to LAM.
        let req = Request::Part {
            key: 7,
            database: "db".into(),
            payload: Some(rs.clone()),
            access: None,
            error: None,
            full_bytes: 0,
        };
        let (got, size) = Request::<ResultSet>::decode_sized(&req.encode()).unwrap();
        prop_assert_eq!(&got, &req);
        prop_assert_eq!(size, WireFormat::Text.payload_len(&rs));
        let frame = request_bytes(corr, &req);
        let (got_corr, got, size) = decode_request_sized::<ResultSet>(&frame).unwrap();
        prop_assert_eq!((got_corr, &got), (corr, &req));
        prop_assert_eq!(size, WireFormat::Binary.payload_len(&rs));
        prop_assert_eq!(decode_request_as::<ResultSet>(&frame).unwrap(), (corr, req));
        let req = Request::LoadMany { database: "db".into(), parts: vec![("p".to_string(), rs)] };
        prop_assert_eq!(&Request::<ResultSet>::decode_as(&req.encode()).unwrap(), &req);
        let frame = request_bytes(corr, &req);
        prop_assert_eq!(decode_request_as::<ResultSet>(&frame).unwrap(), (corr, req));
    }
}
