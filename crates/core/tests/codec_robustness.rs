//! Adversarial decoder tests: a binary frame decoder fed hostile bytes must
//! return `MdbsError::Wire` — it must never panic and never silently
//! misdecode. Covers truncation at every prefix, corrupt tag bytes, overlong
//! varints, and a seeded bit-flip mutation sweep over a corpus of real
//! frames.

use ldbs::engine::ResultSet;
use mdbs::codec::varint::{write_str, write_u64};
use mdbs::codec::{
    decode_request, decode_request_as, decode_response, decode_response_as, request_bytes,
    response_bytes,
};
use mdbs::planner::EdgeRule;
use mdbs::proto::{CombineReport, HomeEdge, PartDone, Request, Response, TaskMode};
use mdbs::MdbsError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One frame per request variant, payload-bearing ones included.
fn request_corpus() -> Vec<Vec<u8>> {
    let payload =
        "COLS code:int|rate:float|st:char(10)\nR I:1|F:40.0|S:available\nR I:2|N|S:rented\n";
    let reqs = vec![
        Request::Task {
            name: "g1".into(),
            mode: TaskMode::Hold,
            database: "avis".into(),
            commands: vec!["UPDATE cars SET rate = 2".into()],
        },
        Request::Exec { task: "g1".into(), commands: vec!["UPDATE cars SET rate = 1".into()] },
        Request::Prepare { task: "g1".into() },
        Request::Task {
            name: "t1".into(),
            mode: TaskMode::NoCommit,
            database: "avis".into(),
            commands: vec!["SELECT code FROM cars".into(), "odd | text \\ here".into()],
        },
        Request::Commit { task: "t1".into() },
        Request::Abort { task: "t1".into() },
        Request::Resolve { task: "t1".into(), commit: true },
        Request::Compensate {
            task: "t1".into(),
            database: "avis".into(),
            commands: vec!["UPDATE cars SET rate = rate / 2".into()],
        },
        Request::Partial {
            database: "avis".into(),
            sql: "SELECT code FROM cars".into(),
            baseline: Some("SELECT code FROM cars WHERE rate > 0".into()),
        },
        Request::PartialAgg {
            database: "avis".into(),
            sql: "SELECT cartype, COUNT(*) AS agg_cnt FROM cars GROUP BY cartype".into(),
            baseline: Some("SELECT cartype FROM cars".into()),
        },
        Request::Schema { database: "avis".into() },
        Request::LoadMany {
            database: "avis".into(),
            parts: vec![("p1".into(), payload.to_string()), ("p2".into(), "COLS \n".to_string())],
        },
        Request::DropMany { database: "avis".into(), tables: vec!["p1".into(), "p2".into()] },
        Request::Combine {
            database: "avis".into(),
            home: Some("SELECT c.code AS b_c_code FROM cars c".into()),
            parts: vec!["national".into(), "hertz".into()],
            edges: vec![
                HomeEdge {
                    reducer: "national".into(),
                    key_column: "b_v_vcode".into(),
                    binding: "c".into(),
                    column: "code".into(),
                    rule: EdgeRule::Cap(100),
                },
                HomeEdge {
                    reducer: "national".into(),
                    key_column: "b_v_rate".into(),
                    binding: "c".into(),
                    column: "rate".into(),
                    rule: EdgeRule::Bytes { ndv: Some(7), bytes: 340.5 },
                },
            ],
            sql: "SELECT * FROM part_avis, part_national, part_hertz".into(),
            measure: true,
        },
        Request::Ship {
            key: 41,
            to: "site2".into(),
            database: "avis".into(),
            sql: "SELECT code FROM cars".into(),
            baseline: Some("SELECT code FROM cars WHERE rate > 0".into()),
            echo: true,
        },
        Request::Part {
            key: 41,
            database: "avis".into(),
            payload: Some(payload.to_string()),
            access: Some("scan".into()),
            error: None,
            full_bytes: 340,
        },
        Request::Part {
            key: 42,
            database: "avis".into(),
            payload: None,
            access: None,
            error: Some("unknown column | nope".into()),
            full_bytes: 0,
        },
        Request::Ping,
        Request::Shutdown,
    ];
    reqs.iter()
        .enumerate()
        .map(|(i, r)| request_bytes((i % 2 == 0).then_some(i as u64 * 977), r))
        .collect()
}

/// One frame per response variant.
fn response_corpus() -> Vec<Vec<u8>> {
    let payload = "COLS code:int\nR I:1\nR I:2\nR N\n";
    let resps: [Response; 9] = [
        Response::Ok,
        Response::OkPayload { payload: payload.into() },
        Response::Err { message: "lock conflict | details\nline2".into() },
        Response::TaskDone { status: 'C', affected: 3, payload: Some(payload.into()), error: None },
        Response::TaskDone {
            status: 'A',
            affected: 0,
            payload: None,
            error: Some("simulated deadlock".into()),
        },
        Response::PartialDone {
            payload: Some(payload.into()),
            error: None,
            full_rows: 12,
            full_bytes: 340,
            access: Some("probe".into()),
        },
        Response::PartialAggDone {
            payload: Some("COLS b_c_cartype:char(16)|agg_cnt:int\nR S:bus|I:3\n".into()),
            error: None,
            groups: 1,
            full_rows: 12,
            full_bytes: 340,
        },
        Response::CombineDone {
            payload: Some(payload.into()),
            home_rows: 3,
            access: Some("scan".into()),
            saved: 340,
            report: Box::new(CombineReport {
                edges: vec![(4, true), (0, false)],
                parts: vec![PartDone {
                    rows: 3,
                    bytes: 72,
                    access: Some("probe".into()),
                    error: None,
                    saved: 9,
                }],
            }),
        },
        Response::CombineDone {
            payload: None,
            home_rows: 0,
            access: None,
            saved: 0,
            report: Box::new(CombineReport {
                edges: Vec::new(),
                parts: vec![PartDone {
                    error: Some("type error | x".into()),
                    ..PartDone::default()
                }],
            }),
        },
    ];
    resps
        .iter()
        .enumerate()
        .map(|(i, r)| response_bytes((i % 2 == 1).then_some(i as u64), r))
        .collect()
}

fn assert_wire_err<T: std::fmt::Debug>(result: Result<T, MdbsError>, context: &str) {
    match result {
        Err(MdbsError::Wire(_)) => {}
        other => panic!("{context}: expected MdbsError::Wire, got {other:?}"),
    }
}

#[test]
fn every_truncation_of_every_request_frame_is_rejected() {
    for frame in request_corpus() {
        for cut in 0..frame.len() {
            let context = format!("request frame truncated to {cut}/{} bytes", frame.len());
            assert_wire_err(decode_request(&frame[..cut]), &context);
            assert_wire_err(decode_request_as::<ResultSet>(&frame[..cut]), &context);
        }
    }
}

#[test]
fn every_truncation_of_every_response_frame_is_rejected() {
    for frame in response_corpus() {
        for cut in 0..frame.len() {
            let context = format!("response frame truncated to {cut}/{} bytes", frame.len());
            assert_wire_err(decode_response(&frame[..cut]), &context);
            assert_wire_err(decode_response_as::<ResultSet>(&frame[..cut]), &context);
        }
    }
}

#[test]
fn corrupt_tag_bytes_are_rejected() {
    let frame = request_bytes(Some(5), &Request::<String>::Ping);
    // The tag is the byte after magic/version/flags/varint-corr; locate it
    // by re-encoding without correlation (tag is then the last byte).
    let tagless = request_bytes(None, &Request::<String>::Ping);
    let tag_at = tagless.len() - 1;
    for bad in [0u8, 0x11, 0x40, 0x7f, 0x80, 0x86, 0xff] {
        let mut corrupt = tagless.clone();
        corrupt[tag_at] = bad;
        assert_wire_err(decode_request(&corrupt), &format!("request tag {bad:#04x}"));
    }
    // A response tag in a request frame (and vice versa) is also corrupt.
    let resp_frame = response_bytes(None, &Response::<String>::Ok);
    assert_wire_err(decode_request(&resp_frame), "response tag fed to request decoder");
    assert_wire_err(decode_response(&tagless), "request tag fed to response decoder");
    // Sanity: the untouched frames decode.
    decode_request(&frame).unwrap();
}

#[test]
fn overlong_and_oversized_varints_are_rejected() {
    let good = request_bytes(Some(1), &Request::<String>::Ping);
    // Frame layout: magic, version, flags(=1), varint corr(=1 byte), tag.
    // Replace the 1-byte correlation varint with pathological encodings.
    let (head, tail) = (&good[..3], &good[4..]);
    // Overlong: 0x81 0x00 still means 1, but wastes a byte — rejected.
    let mut overlong = head.to_vec();
    overlong.extend_from_slice(&[0x81, 0x00]);
    overlong.extend_from_slice(tail);
    assert_wire_err(decode_request(&overlong), "overlong varint");
    // Too many continuation bytes for a u64.
    let mut huge = head.to_vec();
    huge.extend_from_slice(&[0xff; 10]);
    huge.push(0x01);
    huge.extend_from_slice(tail);
    assert_wire_err(decode_request(&huge), "11-byte varint");
    // Final byte overflows bit 63.
    let mut overflow = head.to_vec();
    overflow.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02]);
    overflow.extend_from_slice(tail);
    assert_wire_err(decode_request(&overflow), "u64 overflow varint");
}

#[test]
fn trailing_garbage_is_rejected() {
    for extra in [&[0u8][..], &[0u8, 1, 2, 3][..]] {
        let mut frame = request_bytes(Some(9), &Request::<String>::Ping);
        frame.extend_from_slice(extra);
        assert_wire_err(decode_request(&frame), "trailing bytes after a complete frame");
    }
}

/// Seeded mutation sweep: flip bits all over real frames. Every mutant must
/// either be rejected with `MdbsError::Wire` or decode to a value whose
/// canonical re-encoding decodes back to the same value — corruption is
/// *detected* or *harmlessly absorbed*, never a panic and never an unstable
/// decode.
#[test]
fn seeded_bit_flip_sweep_never_panics_or_destabilizes() {
    let mut rng = StdRng::seed_from_u64(0xB1_C0DEC);
    let mut rejected = 0u32;
    let mut absorbed = 0u32;
    for frame in request_corpus() {
        for _ in 0..200 {
            let mut mutant = frame.clone();
            let flips = rng.gen_range(1usize..4);
            for _ in 0..flips {
                let byte = rng.gen_range(0usize..mutant.len());
                let bit = rng.gen_range(0u32..8);
                mutant[byte] ^= 1 << bit;
            }
            typed_request_decode_is_stable(&mutant);
            match decode_request(&mutant) {
                Err(MdbsError::Wire(_)) => rejected += 1,
                Err(other) => panic!("non-wire error from a corrupt frame: {other:?}"),
                Ok((corr, req)) => {
                    // A flip inside a string/int field can yield a different
                    // but well-formed frame; its decode must be stable.
                    absorbed += 1;
                    let re = request_bytes(corr, &req);
                    let (corr2, req2) = decode_request(&re).expect("re-encode of decoded mutant");
                    assert_eq!(corr2, corr);
                    assert_eq!(req2, req);
                }
            }
        }
    }
    for frame in response_corpus() {
        for _ in 0..200 {
            let mut mutant = frame.clone();
            let byte = rng.gen_range(0usize..mutant.len());
            let bit = rng.gen_range(0u32..8);
            mutant[byte] ^= 1 << bit;
            typed_response_decode_is_stable(&mutant);
            match decode_response(&mutant) {
                Err(MdbsError::Wire(_)) => rejected += 1,
                Err(other) => panic!("non-wire error from a corrupt frame: {other:?}"),
                Ok((corr, resp)) => {
                    absorbed += 1;
                    let re = response_bytes(corr, &resp);
                    let (corr2, resp2) = decode_response(&re).expect("re-encode of decoded mutant");
                    assert_eq!(corr2, corr);
                    assert_eq!(resp2, resp);
                }
            }
        }
    }
    // The sweep must actually exercise the rejection paths (and a strict
    // format rejects the overwhelming majority of random corruption).
    assert!(rejected > absorbed, "rejected={rejected} absorbed={absorbed}");
    assert!(rejected + absorbed == 19 * 200 + 9 * 200);
}

/// The typed decoders under the same mutants: rejected with
/// `MdbsError::Wire`, or decoded to rows whose re-encoding decodes back to
/// the same rows.
fn typed_request_decode_is_stable(mutant: &[u8]) {
    match decode_request_as::<ResultSet>(mutant) {
        Err(MdbsError::Wire(_)) => {}
        Err(other) => panic!("non-wire error from a corrupt frame: {other:?}"),
        Ok((corr, req)) => {
            let re = request_bytes(corr, &req);
            let again = decode_request_as::<ResultSet>(&re).expect("re-encode of decoded mutant");
            assert_eq!(again, (corr, req));
        }
    }
}

fn typed_response_decode_is_stable(mutant: &[u8]) {
    match decode_response_as::<ResultSet>(mutant) {
        Err(MdbsError::Wire(_)) => {}
        Err(other) => panic!("non-wire error from a corrupt frame: {other:?}"),
        Ok((corr, resp, _)) => {
            let re = response_bytes(corr, &resp);
            let (corr2, resp2, _) =
                decode_response_as::<ResultSet>(&re).expect("re-encode of decoded mutant");
            assert_eq!((corr2, resp2), (corr, resp));
        }
    }
}

/// The frame tags of the retired `LOAD` / `DROPTEMP` requests stay reserved:
/// a peer still sending them gets a wire error from both decoders.
#[test]
fn retired_request_tags_are_rejected() {
    let ping = request_bytes(None, &Request::<String>::Ping);
    for tag in [0x0Bu8, 0x0C] {
        let mut frame = ping.clone();
        *frame.last_mut().unwrap() = tag;
        write_str(&mut frame, "avis");
        write_str(&mut frame, "part_t");
        let err = decode_request(&frame).unwrap_err().to_string();
        assert!(err.contains("retired request tag"), "{err}");
        for cut in ping.len()..=frame.len() {
            assert_wire_err(decode_request(&frame[..cut]), &format!("retired tag {tag:#04x}"));
            assert_wire_err(
                decode_request_as::<ResultSet>(&frame[..cut]),
                &format!("retired tag {tag:#04x}"),
            );
        }
    }
}

/// A forged row count must be refused before anything is allocated for it:
/// a tiny frame claiming 2^62 rows is an error, not an out-of-memory abort.
#[test]
fn forged_row_count_is_rejected_without_allocating() {
    let mut frame = vec![0xB1, 0x01, 0x00, 0x81];
    write_u64(&mut frame, u64::from(u32::from('C'))); // status
    write_u64(&mut frame, 0); // affected
    frame.push(0); // no error
    frame.push(1); // payload present
    frame.push(1); // columnar block
    write_u64(&mut frame, 1); // one column
    write_str(&mut frame, "a");
    frame.push(0); // int
    write_u64(&mut frame, 1 << 62); // rows
    assert_wire_err(decode_response(&frame), "forged row count, text payload");
    assert_wire_err(decode_response_as::<ResultSet>(&frame), "forged row count, typed payload");
    // The same with a forged column count.
    let at = frame.len() - 13;
    assert_eq!(frame[at], 1, "column count byte");
    let mut wide = frame[..at].to_vec();
    write_u64(&mut wide, 1 << 40);
    assert_wire_err(decode_response_as::<ResultSet>(&wide), "forged column count");
}

/// The text decoders share the no-panic guarantee: any char-boundary
/// truncation of a valid encoding is an error or a benign reinterpretation,
/// never a panic.
#[test]
fn text_truncations_never_panic() {
    let bodies = [
        Request::<String>::Task {
            name: "t1".into(),
            mode: TaskMode::Auto,
            database: "avis".into(),
            commands: vec!["SELECT 'ünïcode | pipe' FROM cars".into()],
        }
        .encode(),
        Response::<String>::TaskDone {
            status: 'C',
            affected: 2,
            payload: Some("COLS code:int\nR I:1\n".into()),
            error: Some("partial ünïcode failure".into()),
        }
        .encode(),
    ];
    for body in &bodies {
        for cut in 0..=body.len() {
            if !body.is_char_boundary(cut) {
                continue;
            }
            let _ = Request::decode(&body[..cut]);
            let _ = Response::decode(&body[..cut]);
            let _ = Request::<ResultSet>::decode_as(&body[..cut]);
            let _ = Response::<ResultSet>::decode_as(&body[..cut]);
        }
    }
}
