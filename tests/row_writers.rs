//! Differential test: the rows a LAM writes straight from its engine are the
//! bytes the codecs write for the same rows collected into a result set.
//!
//! A LAM runs each SELECT into its reply format's row writer, so no result
//! set stands between the engine and the wire (DESIGN §3a.11). Here seeded
//! tables — NULLs everywhere, an all-NULL column, strings that need escaping
//! — and seeded statements of every shape the evaluator distinguishes
//! (WHERE, expressions, ORDER BY, DISTINCT, LIMIT with and without ORDER BY,
//! GROUP BY, two-table joins, subqueries, empty results, columns whose type
//! only a value decides, mixed columns) go to a LAM as `TASK`, `PARTIALAGG`
//! with an `EXPLAIN` baseline, `SHIP … ECHO` and `COMBINE`, in both wire
//! formats, and every reply frame (and the `PART` a `SHIP` sends on) must
//! equal, byte for byte, the frame encoded from `Engine::execute`'s result
//! set on an identical engine. A `PARTIALAGG`'s and a `SHIP`'s baseline
//! volume (`full_rows`, `full_bytes`) is compared in those frames too, and
//! with it what `EXPLAIN` reports as saved (the baseline's bytes less the
//! payload's). The statements run a second time while another transaction
//! holds a write lock on the table with changes of its own, so every read
//! takes the engine's snapshot-overlay path.

use ldbs::engine::ResultSet;
use ldbs::profile::DbmsProfile;
use ldbs::value::Value;
use ldbs::Engine;
use mdbs::codec;
use mdbs::lam::spawn_lam;
use mdbs::proto::{CombineReport, Request, Response, TaskMode};
use mdbs::WireFormat;
use netsim::{Body, Endpoint, Network};

type RowsRequest = Request<ResultSet>;
type RowsResponse = Response<ResultSet>;

/// SplitMix64: the same tables and statements on every host.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn small(&mut self) -> i64 {
        self.below(20) as i64 - 5
    }

    /// `literal`, or `NULL` one time in five.
    fn or_null(&mut self, literal: String) -> String {
        if self.below(5) == 0 {
            "NULL".into()
        } else {
            literal
        }
    }
}

/// Strings a text payload must escape, and some it need not.
const STRINGS: [&str; 9] =
    ["plain", "", "a|b", "back\\slash", "new\nline", "cr\rhere", "héllo", "|\\|", "rented"];

/// Two tables, `t` (with an all-NULL column `z`) and `u`, from `seed`.
fn engine(seed: u64) -> Engine {
    let mut rng = Rng(seed);
    let mut e = Engine::new("svc", DbmsProfile::oracle_like());
    e.create_database("d").unwrap();
    e.execute("d", "CREATE TABLE t (a INT, b INT, s CHAR(16), f FLOAT, z INT)").unwrap();
    e.execute("d", "CREATE TABLE u (a INT, name CHAR(8))").unwrap();
    if seed.is_multiple_of(2) {
        e.execute("d", "CREATE INDEX ta ON t (a)").unwrap();
    }
    for _ in 0..rng.below(50) {
        let a = rng.small().to_string();
        let a = rng.or_null(a);
        let b = rng.below(4).to_string();
        let b = rng.or_null(b);
        let s = STRINGS[rng.below(STRINGS.len() as u64) as usize].replace('\'', "''");
        let s = rng.or_null(format!("'{s}'"));
        let f = format!("{}.25", rng.small());
        let f = rng.or_null(f);
        e.execute("d", &format!("INSERT INTO t VALUES ({a}, {b}, {s}, {f}, NULL)")).unwrap();
    }
    for i in 0..rng.below(12) {
        let name = STRINGS[rng.below(STRINGS.len() as u64) as usize];
        let a = rng.small().to_string();
        let a = rng.or_null(a);
        e.execute("d", &format!("INSERT INTO u VALUES ({a}, '{name}{i}')")).unwrap();
    }
    e
}

/// One statement of each shape, with seeded constants.
fn statements(rng: &mut Rng) -> Vec<String> {
    let (c, k) = (rng.small(), rng.below(6));
    vec![
        format!("SELECT a, b, s, f, z FROM t WHERE a < {c}"),
        "SELECT * FROM t".into(),
        format!(
            "SELECT a + b AS total, f * 2, s, a > b AS gt FROM t WHERE b = {}",
            c.rem_euclid(4)
        ),
        "SELECT s, a FROM t ORDER BY a DESC, s".into(),
        "SELECT DISTINCT b, s FROM t".into(),
        format!("SELECT DISTINCT b FROM t ORDER BY b LIMIT {k}"),
        format!("SELECT a, s FROM t LIMIT {k}"),
        format!("SELECT a, s FROM t ORDER BY s DESC LIMIT {k}"),
        "SELECT b, COUNT(*), SUM(a), MIN(s), MAX(f), AVG(a) FROM t GROUP BY b".into(),
        format!("SELECT b, COUNT(a) FROM t GROUP BY b HAVING COUNT(*) > {k} ORDER BY b DESC"),
        "SELECT t.a, u.name, t.s FROM t, u WHERE t.a = u.a".into(),
        format!("SELECT t.s, u.name FROM t, u WHERE t.b = u.a AND t.a > {c} ORDER BY u.name"),
        "SELECT * FROM t, u WHERE t.a = u.a AND t.b IN (1, 2)".into(),
        "SELECT a, s FROM t WHERE a > 1000".into(),
        "SELECT COUNT(*), MAX(s) FROM t WHERE a > 1000".into(),
        "SELECT NULL AS n, z, a + NULL AS an FROM t".into(),
        "SELECT COALESCE(s, b) AS mixed, COALESCE(NULL, a) AS late FROM t".into(),
        "SELECT s FROM t WHERE s LIKE '%|%' OR s IS NULL".into(),
        "SELECT name, (SELECT MAX(a) FROM t) AS top FROM u".into(),
        "SELECT a, f FROM t WHERE a IN (SELECT a FROM u)".into(),
    ]
}

/// A client speaking one wire format to the LAM at `site1`.
struct Peer {
    endpoint: Endpoint,
    format: WireFormat,
    next_id: u64,
}

impl Peer {
    /// The frame `req` travels as under correlation id `id`, if any.
    fn request_frame(&self, id: Option<u64>, req: &Request<ResultSet>) -> Body {
        codec::frame_request(self.format, id, req)
    }

    /// The frame `resp` travels as under correlation id `id`.
    fn response_frame(&self, id: u64, resp: &RowsResponse) -> Body {
        codec::frame_response(self.format, Some(id), resp)
    }

    /// Sends `req` and asserts that the reply is `want`'s frame.
    fn expect(&mut self, req: &RowsRequest, want: &RowsResponse, what: &str) {
        self.next_id += 1;
        let id = self.next_id;
        self.endpoint.send("site1", self.request_frame(Some(id), req)).unwrap();
        let got = self.endpoint.recv().unwrap().body;
        assert_eq!(got, self.response_frame(id, want), "{:?} reply to {what}", self.format);
    }
}

/// What the LAM's reply to a one-statement `TASK … AUTO` must be.
fn task_reply(result: &Result<ResultSet, String>) -> RowsResponse {
    match result {
        Ok(rs) => {
            Response::TaskDone { status: 'C', affected: 0, payload: Some(rs.clone()), error: None }
        }
        Err(e) => {
            Response::TaskDone { status: 'A', affected: 0, payload: None, error: Some(e.clone()) }
        }
    }
}

fn select(e: &mut Engine, sql: &str) -> Result<ResultSet, String> {
    e.execute("d", sql).and_then(|out| out.into_result_set()).map_err(|e| e.to_string())
}

/// Runs every statement through the LAM in `peer`'s format, as each request
/// that carries rows, against the reference engine.
fn check(peer: &mut Peer, part_sink: &Endpoint, reference: &mut Engine, sqls: &[String]) {
    let format = peer.format;
    for (i, sql) in sqls.iter().enumerate() {
        let result = select(reference, sql);
        let access = reference.last_access().map(str::to_string);
        let name = format!("T{}", peer.next_id);
        let task = Request::Task {
            name,
            mode: TaskMode::Auto,
            database: "d".into(),
            commands: vec![sql.clone()],
        };
        peer.expect(&task, &task_reply(&result), sql);

        // EXPLAIN's baseline: another statement, measured in the reply's
        // format and never shipped.
        let baseline = &sqls[(i + 1) % sqls.len()];
        let (full_rows, full_bytes) = match select(reference, baseline) {
            Ok(rs) => (rs.rows.len() as u64, format.payload_len(&rs) as u64),
            Err(_) => (0, 0),
        };
        let agg = Request::PartialAgg {
            database: "d".into(),
            sql: sql.clone(),
            baseline: Some(baseline.clone()),
        };
        let want = match &result {
            Ok(rs) => Response::PartialAggDone {
                groups: rs.rows.len() as u64,
                payload: Some(rs.clone()),
                error: None,
                full_rows,
                full_bytes,
            },
            Err(e) => Response::PartialAggDone {
                payload: None,
                error: Some(e.clone()),
                groups: 0,
                full_rows: 0,
                full_bytes: 0,
            },
        };
        peer.expect(&agg, &want, sql);
        if let Ok(rs) = &result {
            // The saving EXPLAIN reports is the baseline's bytes less these.
            let saved = full_bytes.saturating_sub(format.payload_len(rs) as u64);
            assert!(full_bytes == 0 || saved <= full_bytes, "{sql}: saved {saved}");
        }

        // A SHIP that echoes its rows, and the PART it sends on.
        let key = 1000 + peer.next_id;
        let ship = Request::Ship {
            key,
            to: part_sink.name().to_string(),
            database: "d".into(),
            sql: sql.clone(),
            baseline: Some(baseline.clone()),
            echo: true,
        };
        let (payload, access, error) = match &result {
            Ok(rs) => (Some(rs.clone()), access, None),
            Err(e) => (None, None, Some(e.clone())),
        };
        let (full_rows, full_bytes) =
            if error.is_some() { (0, 0) } else { (full_rows, full_bytes) };
        let echoed = Response::PartialDone {
            payload: payload.clone(),
            error: error.clone(),
            full_rows,
            full_bytes,
            access: access.clone(),
        };
        peer.expect(&ship, &echoed, sql);
        let part = Request::Part { key, database: "d".into(), payload, access, error, full_bytes };
        let got = part_sink.recv().unwrap().body;
        assert_eq!(got, peer.request_frame(None, &part), "{format:?} PART of {sql}");

        // A COMBINE with nothing to gather answers Q′ at once.
        let combine = Request::Combine {
            database: "d".into(),
            home: None,
            parts: Vec::new(),
            edges: Vec::new(),
            sql: sql.clone(),
            measure: false,
        };
        let want = match &result {
            Ok(rs) => Response::CombineDone {
                payload: Some(rs.clone()),
                home_rows: 0,
                access: None,
                saved: 0,
                report: Box::new(CombineReport::default()),
            },
            Err(e) => Response::Err { message: e.clone() },
        };
        peer.expect(&combine, &want, sql);
    }
}

#[test]
fn a_lams_rows_are_the_bytes_of_the_result_set_in_both_formats() {
    for seed in 0..6 {
        let mut reference = engine(seed);
        let sqls = statements(&mut Rng(seed ^ 0x5EED));
        let net = Network::new();
        let lam = spawn_lam(&net, "svc", "site1", engine(seed)).unwrap();
        let part_sink = net.register("site9").unwrap();
        for format in [WireFormat::Text, WireFormat::Binary] {
            let endpoint = net.register(&format!("client_{}", format.label())).unwrap();
            let mut peer = Peer { endpoint, format, next_id: 0 };
            check(&mut peer, &part_sink, &mut reference, &sqls);

            // A writer holds `t`'s lock with changes of its own: every read
            // reconstructs the snapshot it may see, and sees what it saw.
            let name = format!("W_{}", format.label());
            let writer = Request::Task {
                name: name.clone(),
                mode: TaskMode::Hold,
                database: "d".into(),
                commands: vec![
                    "UPDATE t SET s = 'changed|x', a = a + 100 WHERE b IS NOT NULL".into()
                ],
            };
            let affected = select(&mut reference, "SELECT COUNT(*) FROM t WHERE b IS NOT NULL")
                .map(|rs| match rs.rows[0][0] {
                    Value::Int(n) => n as u64,
                    ref other => panic!("COUNT(*) = {other:?}"),
                })
                .unwrap();
            let held = Response::TaskDone { status: 'E', affected, payload: None, error: None };
            peer.expect(&writer, &held, "the writer's UPDATE");
            check(&mut peer, &part_sink, &mut reference, &sqls);
            peer.expect(&Request::Abort { task: name }, &Response::Ok, "the writer's ABORT");
        }
        lam.shutdown();
    }
}
