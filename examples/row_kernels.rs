//! Nanoseconds per row: the per-row kernels a star statement spends its time
//! in, timed one by one through public APIs (DESIGN §3a.17, EXPERIMENTS B6 /
//! B12).
//!
//! Builds a star-shaped 20 000 × 5 `fact` table on one engine and prints,
//! as medians of 30 runs: the engine's scan, the text and columnar codecs in
//! both directions (ns per value), GROUP BY on one integer key and an
//! ungrouped `COUNT(*)` (ns per row), a literal `IN` list of 20 and of 2 000
//! keys (the probe must not grow with the list), `ORDER BY … LIMIT 10`, and
//! a LAM's reply payload of the scan in each format both ways: collected
//! into a result set and encoded, and written straight from the engine.
//! Every timed path is checked against another one: a decode returns what
//! was encoded, the aggregates, the `IN` filter and the top ten equal what
//! plain Rust computes from the scanned rows, and the two reply paths write
//! the same bytes.
//!
//! ```sh
//! cargo run --release --example row_kernels
//! ```

use ldbs::engine::{Engine, ExecOutcome, ResultSet};
use ldbs::profile::DbmsProfile;
use ldbs::value::Value;
use mdbs::codec::columnar;
use mdbs::proto::Encoded;
use mdbs::{wire, WireFormat};
use std::hint::black_box;
use std::time::Instant;

const ROWS: usize = 20_000;
const CODES: usize = 500;
const GROUPS: usize = 10;
const RUNS: usize = 30;

/// SplitMix64, so the table is the same on every host.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Median wall time of `RUNS` calls, in nanoseconds, and the last result.
fn median_ns<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut last = f();
    let mut times: Vec<u128> = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            last = black_box(f());
            start.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    (times[RUNS / 2] as f64, last)
}

fn report(kernel: &str, ns: f64, per: &str, units: usize) {
    println!("{kernel:<34} {:>9.3} ms {:>8.1} ns/{per}", ns / 1e6, ns / units as f64);
}

fn int(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        other => panic!("expected an integer, got {other}"),
    }
}

fn main() {
    let mut engine = Engine::new("svc0", DbmsProfile::oracle_like());
    engine.create_database("db0").expect("database");
    engine
        .execute("db0", "CREATE TABLE fact (k INT, g INT, v INT, u INT, s CHAR(16))")
        .expect("table");
    let mut rng = Rng(7);
    let mut v: Vec<usize> = (0..ROWS).collect();
    for i in (1..ROWS).rev() {
        v.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    let tuples: Vec<String> = (0..ROWS)
        .map(|i| {
            let s: String = (0..16).map(|_| (b'a' + (rng.next() % 26) as u8) as char).collect();
            format!("({}, {}, {}, 0, '{s}')", i % CODES, i % GROUPS, v[i])
        })
        .collect();
    for chunk in tuples.chunks(200) {
        engine
            .execute("db0", &format!("INSERT INTO fact VALUES {}", chunk.join(", ")))
            .expect("rows");
    }
    let mut select = |sql: &str| -> ResultSet {
        engine.execute("db0", sql).expect("select").into_result_set().expect("rows")
    };
    println!("{ROWS} rows x 5 columns, medians of {RUNS} runs");

    let (ns, scan) = median_ns(|| select("SELECT k, g, v, s FROM fact"));
    assert_eq!(scan.rows.len(), ROWS);
    report("engine scan (k, g, v, s)", ns, "row", ROWS);
    let values = ROWS * scan.columns.len();

    let (ns, text) = median_ns(|| wire::encode_result_set(&scan));
    report("text encode", ns, "value", values);
    let (ns, decoded) = median_ns(|| wire::decode_result_set(&text).expect("text decodes"));
    assert_eq!(decoded, scan, "the text decoder returns what was encoded");
    report("K1 text decode", ns, "value", values);

    let (ns, block) = median_ns(|| columnar::encode_result_set(&scan));
    report("K2 columnar write", ns, "value", values);
    let (ns, decoded) = median_ns(|| columnar::decode_result_set(&block).expect("block decodes"));
    assert_eq!(decoded, scan, "the columnar reader returns what was written");
    report("K2 columnar read", ns, "value", values);
    println!("    text {} bytes, columnar {} bytes", text.len(), block.len());

    let (ns, groups) =
        median_ns(|| select("SELECT g, COUNT(*), SUM(v), SUM(u) FROM fact GROUP BY g"));
    assert_eq!(groups.rows.len(), GROUPS);
    for row in &groups.rows {
        let members = scan.rows.iter().filter(|r| r[1] == row[0]);
        let (count, sum) = members.fold((0, 0), |(n, sum), r| (n + 1, sum + int(&r[2])));
        assert_eq!((int(&row[1]), int(&row[2]), int(&row[3])), (count, sum, 0), "group {}", row[0]);
    }
    report("K3 GROUP BY g, 3 aggregates", ns, "row", ROWS);
    let (ns, count) = median_ns(|| select("SELECT COUNT(*) FROM fact"));
    assert_eq!(count.rows, vec![vec![Value::Int(ROWS as i64)]]);
    report("K3 COUNT(*), no key", ns, "row", ROWS);

    let mut per_list = Vec::new();
    for keys in [20usize, 2_000] {
        // Codes first, then keys no row holds: the filter keeps 20 codes' rows
        // whatever the length of the list.
        let list: Vec<String> =
            (0..keys).map(|i| (if i < 20 { i } else { CODES + i }).to_string()).collect();
        let sql = format!("SELECT v FROM fact WHERE k IN ({})", list.join(", "));
        let (ns, kept) = median_ns(|| select(&sql));
        let expected: Vec<&Value> =
            scan.rows.iter().filter(|r| int(&r[0]) < 20).map(|r| &r[2]).collect();
        assert_eq!(kept.rows.iter().map(|r| &r[0]).collect::<Vec<_>>(), expected);
        report(&format!("K4 k IN ({keys} literals)"), ns, "row", ROWS);
        per_list.push(ns);
    }
    println!("    2 000 keys / 20 keys: {:.2} x", per_list[1] / per_list[0]);

    let (ns, top) = median_ns(|| select("SELECT v, s FROM fact ORDER BY v DESC LIMIT 10"));
    let mut by_v: Vec<&Vec<Value>> = scan.rows.iter().collect();
    by_v.sort_by_key(|r| -int(&r[2]));
    let expected: Vec<Vec<Value>> =
        by_v[..10].iter().map(|r| vec![r[2].clone(), r[3].clone()]).collect();
    assert_eq!(top.rows, expected, "the top ten are the ten largest v");
    report("K5 ORDER BY v DESC LIMIT 10", ns, "row", ROWS);
    let (ns, all) = median_ns(|| select("SELECT v, s FROM fact ORDER BY v DESC"));
    assert_eq!(all.rows[..10], top.rows[..]);
    report("   the same without the LIMIT", ns, "row", ROWS);

    // A LAM's reply payload, both ways: the scan collected into a result set
    // and encoded, then dropped (how a reply was built), and the rows
    // written straight from the engine by the format's row writer (how it
    // is built). The two must be the same bytes.
    let scan_sql = "SELECT k, g, v, s FROM fact";
    for format in [WireFormat::Text, WireFormat::Binary] {
        let (ns, collected) = median_ns(|| {
            let rs = engine.execute("db0", scan_sql).expect("select").into_result_set();
            let rs = rs.expect("rows");
            match format {
                WireFormat::Text => Encoded::Text(wire::encode_result_set(&rs)),
                WireFormat::Binary => Encoded::Columnar(columnar::encode_result_set(&rs)),
            }
        });
        report(&format!("{} reply: execute + encode", format.label()), ns, "row", ROWS);
        let (ns, written) =
            median_ns(|| match engine.execute_with("db0", scan_sql, format.row_writer()) {
                Ok(ExecOutcome::Rows(rows)) => rows.into_payload(),
                other => panic!("the scan wrote no rows: {}", other.is_ok()),
            });
        assert_eq!(written, collected, "{} rows written from the engine", format.label());
        report(&format!("{} reply: rows written", format.label()), ns, "row", ROWS);
    }
}
