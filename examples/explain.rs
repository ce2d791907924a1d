//! EXPLAIN: the measured profile of an MSQL statement.
//!
//! `EXPLAIN <statement>` executes the target with tracing enabled and
//! returns the full query lifecycle — parse, expansion, disambiguation,
//! plan generation, one span per DOL task with its LAM round trips — plus a
//! per-LDBS cost table (rows, payload bytes, attempts, logical latency).
//!
//! Latencies are logical-clock ticks, not wall time: the clock advances
//! only on observable events (a span opens or closes, a message crosses the
//! simulated network), so the same statement profiles identically on every
//! run.
//!
//! ```sh
//! cargo run --example explain
//! ```

use mdbs::fixtures::paper_federation;

fn main() {
    let mut fed = paper_federation();

    // The paper's §2 car-rental query (experiment Q1).
    let report = fed
        .execute(
            "EXPLAIN
             USE avis national
             LET car.type.status BE cars.cartype.carst vehicle.vty.vstat
             SELECT %code, type, ~rate FROM car WHERE status = 'available'",
        )
        .expect("EXPLAIN Q1")
        .into_explain()
        .expect("an explain report");
    println!("{}", report.render());

    // The session-wide metrics the statement left behind.
    println!("-- session metrics --");
    print!("{}", fed.metrics().render());
}
