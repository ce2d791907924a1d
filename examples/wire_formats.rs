//! Wire formats: run the same cross-database join under the text proto and
//! the binary columnar codec, and show they agree on everything except the
//! bytes they put on the wire.
//!
//! ```sh
//! cargo run --example wire_formats
//! ```

use mdbs::fixtures::{paper_federation_with, FederationProfiles};
use mdbs::{Federation, WireFormat};
use netsim::Network;

const QUERY: &str = "SELECT f.flnu, g.fnu
    FROM continental.flights f, delta.flight g
    WHERE f.source = g.source AND f.destination = g.dest
    ORDER BY f.flnu, g.fnu";

fn federation(format: WireFormat) -> Federation {
    // Same seed ⇒ both runs see the identical per-link schedule.
    let mut fed = paper_federation_with(Network::with_seed(7), FederationProfiles::default());
    fed.wire_format = format;
    fed
}

fn main() {
    let mut rendered = Vec::new();
    for format in [WireFormat::Text, WireFormat::Binary] {
        let mut fed = federation(format);
        fed.execute("USE continental delta").unwrap();
        let table = fed.execute(QUERY).unwrap().into_table().unwrap();
        let m = fed.metrics_registry();
        println!("-- {} --", format.label());
        println!("rows: {}", table.rows.len());
        println!("bytes on the wire:  total {}", m.counter("net.bytes"));
        println!("  as text frames:   {}", m.counter("net.bytes_text"));
        println!("  as binary frames: {}", m.counter("net.bytes_binary"));

        // EXPLAIN re-runs the join; its cost table's `bytes` column is the
        // payload each site shipped, in this session's format.
        let explain = fed.execute(&format!("EXPLAIN {QUERY}")).unwrap().into_explain().unwrap();
        for c in &explain.costs {
            println!("EXPLAIN payload bytes [{}]: {}", c.database, c.bytes);
        }
        println!();
        rendered.push(format!("{table:?}"));
    }
    assert_eq!(rendered[0], rendered[1], "formats must agree on results");
    println!("text and binary runs returned identical tables ✓");
}
