//! Differential equivalence harness: the binary columnar wire codec must be
//! observably identical to the text proto everywhere above the transport.
//!
//! The same suite — Q1–Q4, the cross-database join suite, and a seeded
//! fault-injection schedule — runs once under `WireFormat::Text` and once
//! under `WireFormat::Binary`; results, `ExecStats`, the metric registry and
//! EXPLAIN's span tree and cost table must match exactly, modulo the
//! byte-volume counters, span notes and cost column (`net.bytes*`,
//! `lam.bytes*`, `bytes=`, `saved=`, `bytes_saved=`, `bytes`: each is the size
//! of what crossed the wire, so the formats honestly differ) and the
//! wall-clock `wire.*` latency histograms. Golden traces stay pinned to
//! the text default and are exercised unchanged by
//! `t1_trace_golden`/`d1_dol_golden`, so the text-wire values cannot move.
//!
//! A second suite ships large and awkward result sets — thousands of rows,
//! NULLs, signed zeros, empty strings, separators and escapes inside strings
//! — through a retrieval, a semi-join-reduced join whose partial is forwarded
//! to the coordinator and a pushed aggregate, and checks both formats against
//! a plain-Rust evaluation of the generated data.

use ldbs::profile::DbmsProfile;
use ldbs::value::Value;
use ldbs::Engine;
use mdbs::fixtures::{paper_federation_with, FederationProfiles};
use mdbs::{ExecStats, Federation, RetryPolicy, WireFormat};
use netsim::Network;
use obs::LamCost;
use std::collections::BTreeMap;
use std::time::Duration;

const Q1: &str = "USE avis national
    LET car.type.status BE cars.cartype.carst vehicle.vty.vstat
    SELECT %code, type, ~rate FROM car WHERE status = 'available'";

const Q2: &str = "USE continental VITAL delta united VITAL
    UPDATE flight%
    SET rate% = rate% * 1.1
    WHERE sour% = 'Houston' AND dest% = 'San Antonio'";

const Q3: &str = "USE continental VITAL delta united VITAL
    UPDATE flight%
    SET rate% = rate% * 1.1
    WHERE sour% = 'Houston' AND dest% = 'San Antonio'
    COMP continental
    UPDATE flights
    SET rate = rate / 1.1
    WHERE source = 'Houston' AND destination = 'San Antonio'";

const Q4: &str = "BEGIN MULTITRANSACTION
    USE continental delta
    LET fltab.snu.sstat.clname BE
        f838.seatnu.seatstatus.clientname
        f747.snu.sstat.passname
    UPDATE fltab
    SET sstat = 'TAKEN', clname = 'wenders'
    WHERE snu = ( SELECT MIN(snu) FROM fltab WHERE sstat = 'FREE');
    USE avis national
    LET cartab.ccode.cstat BE cars.code.carst vehicle.vcode.vstat
    UPDATE cartab
    SET cstat = 'TAKEN', client = 'wenders'
    WHERE ccode = ( SELECT MIN(ccode) FROM cartab WHERE cstat = 'available');
    COMMIT
      continental AND national
      delta AND avis
    END MULTITRANSACTION";

const JOINS: &[&str] = &[
    "SELECT f.flnu, g.fnu
     FROM continental.flights f, delta.flight g
     WHERE f.source = g.source AND f.destination = g.dest ORDER BY f.flnu, g.fnu",
    "SELECT f.flnu, c.code FROM continental.flights f, avis.cars c
     WHERE f.flnu = c.code AND c.rate < f.rate ORDER BY f.flnu",
    "SELECT a.flnu, b.fnu, c.code
     FROM continental.flights a, delta.flight b, avis.cars c
     WHERE a.source = b.source AND c.code = 1 ORDER BY a.flnu, b.fnu",
    // Keys shipped both to the coordinator (inside its COMBINE) and to a site
    // whose reduced partial travels.
    "SELECT f.flnu, g.fnu, u.fn
     FROM continental.flights f, delta.flight g, united.flight u
     WHERE f.source = g.source AND f.destination = g.dest
       AND f.source = u.sour AND f.destination = u.dest ORDER BY f.flnu, g.fnu, u.fn",
];

/// Everything one suite run observes above the transport. Two runs that
/// differ only in wire format must produce equal `Observed` values.
#[derive(Debug, PartialEq)]
struct Observed {
    q1: String,
    q2: String,
    q3: String,
    q4: String,
    joins: Vec<String>,
    explain_tree: String,
    explain_costs: Vec<LamCost>,
    stats: ExecStats,
    metrics: Vec<String>,
}

/// Metric lines that legitimately differ between formats: the byte-volume
/// counters and the wall-clock serialize/deserialize histograms.
fn format_invariant(line: &str) -> bool {
    !(line.contains("net.bytes") || line.contains("lam.bytes") || line.contains(" wire."))
}

/// Blanks the values of the byte-volume span notes (`bytes=`, `saved=`,
/// `bytes_saved=`); everything else in a rendered trace is format-invariant.
fn mask_byte_volumes(tree: &str) -> String {
    let mut out = String::with_capacity(tree.len());
    let mut rest = tree;
    while let Some(at) =
        ["bytes=", "saved="].iter().filter_map(|k| rest.find(k).map(|i| i + k.len())).min()
    {
        out.push_str(&rest[..at]);
        out.push('#');
        rest = rest[at..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

fn fresh_federation(format: WireFormat) -> Federation {
    let mut fed = paper_federation_with(Network::with_seed(0x51), FederationProfiles::default());
    fed.wire_format = format;
    fed
}

fn run_suite(format: WireFormat) -> Observed {
    let mut fed = fresh_federation(format);
    let q1 = format!("{:?}", fed.execute(Q1).unwrap().into_multitable().unwrap());
    let q2 = format!("{:?}", fed.execute(Q2).unwrap().into_update().unwrap());
    let q3 = format!("{:?}", fed.execute(Q3).unwrap().into_update().unwrap());
    let q4 = format!("{:?}", fed.execute(Q4).unwrap().into_mtx().unwrap());
    fed.execute("USE continental delta united avis").unwrap();
    let joins = JOINS
        .iter()
        .map(|q| format!("{:?}", fed.execute(q).unwrap().into_table().unwrap()))
        .collect();
    let explain = fed.execute(&format!("EXPLAIN {}", JOINS[0])).unwrap().into_explain().unwrap();
    // Payload bytes are in the session's own format; every other column of
    // the cost table is format-invariant.
    assert!(explain.costs.iter().all(|c| c.bytes > 0), "{:?}", explain.costs);
    let explain_costs = explain.costs.iter().map(|c| LamCost { bytes: 0, ..c.clone() }).collect();
    let stats = fed.exec_stats();
    let metrics = fed
        .metrics()
        .render()
        .lines()
        .filter(|l| format_invariant(l))
        .map(str::to_string)
        .collect();
    let explain_tree = mask_byte_volumes(&explain.tree.render());
    assert!(
        explain_tree.contains("bytes=# ") && explain_tree.contains("saved=#}"),
        "{explain_tree}"
    );
    // The join went through one COMBINE whose home partial shipped nothing.
    assert!(
        explain_tree.contains("lam:combine:delta") && explain_tree.contains("route=home"),
        "{explain_tree}"
    );
    Observed { q1, q2, q3, q4, joins, explain_tree, explain_costs, stats, metrics }
}

#[test]
fn suite_is_identical_under_text_and_binary() {
    let text = run_suite(WireFormat::Text);
    let binary = run_suite(WireFormat::Binary);
    assert_eq!(text.q1, binary.q1);
    assert_eq!(text.q2, binary.q2);
    assert_eq!(text.q3, binary.q3);
    assert_eq!(text.q4, binary.q4);
    assert_eq!(text.joins, binary.joins);
    assert_eq!(text.explain_tree, binary.explain_tree, "normalized traces diverged");
    assert_eq!(text.explain_costs, binary.explain_costs, "cost tables diverged beyond bytes");
    assert_eq!(text.stats, binary.stats);
    for (t, b) in text.metrics.iter().zip(binary.metrics.iter()) {
        assert_eq!(t, b, "format-invariant metric diverged");
    }
    assert_eq!(text.metrics.len(), binary.metrics.len());
}

#[test]
fn binary_ships_fewer_bytes_for_the_same_suite() {
    let totals: Vec<u64> = [WireFormat::Text, WireFormat::Binary]
        .iter()
        .map(|&format| {
            let mut fed = fresh_federation(format);
            fed.execute(Q1).unwrap();
            fed.execute("USE continental delta united avis").unwrap();
            for q in JOINS {
                fed.execute(q).unwrap();
            }
            let m = fed.metrics_registry();
            match format {
                WireFormat::Text => assert_eq!(m.counter("net.bytes_binary"), 0),
                WireFormat::Binary => {
                    assert!(m.counter("net.bytes_binary") > 0);
                    // Only the bootstrap PINGs travel as text.
                    assert!(m.counter("net.bytes_text") < m.counter("net.bytes_binary"));
                }
            }
            m.counter("net.bytes")
        })
        .collect();
    assert!(
        totals[1] < totals[0],
        "binary shipped {} bytes, text shipped {}",
        totals[1],
        totals[0]
    );
}

/// The seeded fault-injection schedule: every link touching site4/site5
/// drops 30% of messages. Each link draws its losses from a stream of its
/// own, seeded from the network seed and the link's endpoint names, so the
/// same drop schedule hits both formats however the fan-out's replies
/// interleave, and retries must converge to the same result with the same
/// fault accounting.
#[test]
fn seeded_fault_schedule_is_identical_under_both_formats() {
    let sites = ["site4", "site5"];
    let mut observed = Vec::new();
    for format in [WireFormat::Text, WireFormat::Binary] {
        let mut fed =
            paper_federation_with(Network::with_seed(0xA1), FederationProfiles::default());
        fed.timeout = Duration::from_millis(150);
        fed.wire_format = format;
        fed.retry = RetryPolicy::retries(5);
        for site in &sites {
            fed.network().set_link_drop_probability("*", site, 0.3);
            fed.network().set_link_drop_probability(site, "*", 0.3);
        }
        let mt = fed.execute(Q1).unwrap().into_multitable().unwrap();
        let dropped = fed.network().stats().dropped;
        assert!(dropped > 0, "the drop injection actually fired ({format:?})");
        observed.push((format!("{mt:?}"), fed.exec_stats(), dropped));
        for site in &sites {
            fed.network().clear_link_drop_probability("*", site);
            fed.network().clear_link_drop_probability(site, "*");
        }
    }
    let (text_mt, text_stats, text_dropped) = &observed[0];
    let (bin_mt, bin_stats, bin_dropped) = &observed[1];
    assert_eq!(text_mt, bin_mt, "fault-injected results diverged");
    assert_eq!(text_stats, bin_stats, "fault accounting diverged");
    assert_eq!(text_dropped, bin_dropped, "drop schedules diverged");
}

/// A mixed-format federation: two sessions with different wire formats
/// coexist on one core because each LAM mirrors the format a request
/// arrived in.
#[test]
fn mixed_format_sessions_coexist() {
    let mut fed = fresh_federation(WireFormat::Binary);
    let mut text_session = fed.session();
    text_session.wire_format = WireFormat::Text;
    let via_binary = format!("{:?}", fed.execute(Q1).unwrap().into_multitable().unwrap());
    text_session.execute("USE avis national").unwrap();
    text_session.execute("LET car.type.status BE cars.cartype.carst vehicle.vty.vstat").unwrap();
    let via_text = format!(
        "{:?}",
        text_session
            .execute("SELECT %code, type, ~rate FROM car WHERE status = 'available'")
            .unwrap()
            .into_multitable()
            .unwrap()
    );
    assert_eq!(via_binary, via_text);
    let m = fed.metrics_registry();
    assert!(m.counter("net.bytes_binary") > 0, "primary session shipped binary");
    assert!(m.counter("net.bytes_text") > 0, "spawned session shipped text");
}

// ------------------------------------------------ typed payload equivalence

const FACT_ROWS: i64 = 6000;
const DIM_ROWS: i64 = 40;
const GROUPS: i64 = 7;

/// Strings that stress both codecs: separators, escapes, empties, non-ASCII.
const NASTY: &[&str] = &[
    "",
    "plain",
    "a|b",
    "line1\nline2",
    "back\\slash\\p",
    "|\n\\|",
    "ünïcode ユニコード",
    "R I:1|N",
];

/// `fact(k, g, v, s)`: `k` joins `dim.code`; `v` is a multiple of 0.25 (so
/// sums are exact whatever the order), NULL every 11th row, `-0.0` and `0.0`
/// included; `s` cycles through [`NASTY`] with NULLs.
fn fact_row(i: i64) -> Vec<Value> {
    let v = match i % 11 {
        0 => Value::Null,
        1 => Value::Float(-0.0),
        2 => Value::Float(0.0),
        r => Value::Float((r - 6) as f64 * 0.25),
    };
    let s = match i % 9 {
        8 => Value::Null,
        r => Value::Str(NASTY[r as usize].to_string()),
    };
    vec![Value::Int(i % 100), Value::Int(i % GROUPS), v, s]
}

/// `dim(code, w, label)`: codes 0..40 (so 60% of fact rows join nothing).
fn dim_row(code: i64) -> Vec<Value> {
    let w = if code % 13 == 0 { Value::Null } else { Value::Float(code as f64 * -0.5) };
    vec![Value::Int(code), w, Value::Str(format!("d|{code}\n"))]
}

fn star_federation(format: WireFormat) -> Federation {
    let mut e0 = Engine::new("svc0", DbmsProfile::oracle_like());
    e0.create_database("db0").unwrap();
    e0.execute("db0", "CREATE TABLE fact (k INT, g INT, v FLOAT, s CHAR(40))").unwrap();
    let fact = e0.database_mut("db0").unwrap().table_mut("fact").unwrap();
    for i in 0..FACT_ROWS {
        fact.insert(fact_row(i)).unwrap();
    }
    let mut e1 = Engine::new("svc1", DbmsProfile::oracle_like());
    e1.create_database("db1").unwrap();
    e1.execute("db1", "CREATE TABLE dim (code INT, w FLOAT, label CHAR(40))").unwrap();
    let dim = e1.database_mut("db1").unwrap().table_mut("dim").unwrap();
    for code in 0..DIM_ROWS {
        dim.insert(dim_row(code)).unwrap();
    }
    let mut fed = Federation::with_network(Network::with_seed(0x7E));
    fed.wire_format = format;
    fed.add_service("svc0", "site0", e0).unwrap();
    fed.add_service("svc1", "site1", e1).unwrap();
    fed.execute("IMPORT DATABASE db0 FROM SERVICE svc0").unwrap();
    fed.execute("IMPORT DATABASE db1 FROM SERVICE svc1").unwrap();
    fed.execute("USE db0 db1").unwrap();
    fed
}

/// Rows in a canonical order and a bit-exact rendering (`-0.0` and `0.0`
/// compare equal as `Value`s; the wire must not confuse them).
fn canonical(mut rows: Vec<Vec<Value>>) -> Vec<String> {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(a.len().cmp(&b.len()))
    });
    rows.iter()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    Value::Float(f) => format!("F{:016x}", f.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

#[test]
fn large_and_awkward_result_sets_survive_both_formats() {
    let fact: Vec<Vec<Value>> = (0..FACT_ROWS).map(fact_row).collect();
    let dim: Vec<Vec<Value>> = (0..DIM_ROWS).map(dim_row).collect();

    // The reference answers, straight from the generated data.
    let want_scan = canonical(fact.clone());
    let mut want_join = Vec::new();
    let mut groups: BTreeMap<i64, (i64, Option<f64>, Option<f64>)> = BTreeMap::new();
    for f in &fact {
        for d in dim.iter().filter(|d| d[0] == f[0]) {
            if matches!(&d[1], Value::Float(w) if *w < -10.0) {
                want_join.push(vec![f[0].clone(), f[2].clone(), f[3].clone(), d[2].clone()]);
            }
            let Value::Int(g) = f[1] else { unreachable!() };
            let acc = groups.entry(g).or_insert((0, None, None));
            acc.0 += 1;
            if let Value::Float(v) = f[2] {
                acc.1 = Some(acc.1.unwrap_or(0.0) + v);
            }
            if let Value::Float(w) = d[1] {
                acc.2 = Some(acc.2.map_or(w, |m: f64| m.min(w)));
            }
        }
    }
    let want_join = canonical(want_join);
    assert!(want_join.len() > 500, "the reduced join still ships a real partial");
    let opt = |f: Option<f64>| f.map_or(Value::Null, Value::Float);
    let want_agg = canonical(
        groups
            .iter()
            .map(|(g, (n, sum, min))| vec![Value::Int(*g), Value::Int(*n), opt(*sum), opt(*min)])
            .collect(),
    );

    for format in [WireFormat::Text, WireFormat::Binary] {
        let mut fed = star_federation(format);
        let scan =
            fed.execute("SELECT k, g, v, s FROM db0.fact").unwrap().into_multitable().unwrap();
        assert_eq!(scan.tables.len(), 1);
        assert_eq!(
            canonical(scan.tables[0].result.rows.clone()),
            want_scan,
            "{format:?} retrieval"
        );

        let before = fed.metrics_registry().counter("join.keys_shipped");
        let join = fed
            .execute(
                "SELECT f.k, f.v, f.s, d.label FROM db0.fact f, db1.dim d
                 WHERE f.k = d.code AND d.w < -10.0",
            )
            .unwrap()
            .into_table()
            .unwrap();
        assert!(
            fed.metrics_registry().counter("join.keys_shipped") > before,
            "{format:?}: the fact partial was semi-join reduced before it was forwarded"
        );
        assert_eq!(canonical(join.rows), want_join, "{format:?} reduced join");

        let pushed = fed.metrics_registry().counter("agg.pushdown");
        let agg = fed
            .execute(
                "SELECT f.g, COUNT(*), SUM(f.v), MIN(d.w) FROM db0.fact f, db1.dim d
                 WHERE f.k = d.code GROUP BY f.g",
            )
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(fed.metrics_registry().counter("agg.pushdown"), pushed + 1, "{format:?}");
        assert_eq!(canonical(agg.rows), want_agg, "{format:?} pushed aggregate");
    }
}
