//! Reproductions of the two concurrency defects found while building the
//! benchmark. Both statement classes are kept *out* of `sessions_rw` because
//! of them; these commands show why.

use crate::stats::{median, quantile};
use mdbs::fixtures::paper_federation;
use std::time::Instant;

/// `fedbench --repro <name>`.
pub fn run(name: &str) -> Result<(), String> {
    let (statement, rounds) = match name {
        // Two sessions running the same cross-database join collide on the
        // coordinator's `part_<db>` temp tables: one session's DROPMANY
        // removes the partial the other just loaded.
        "xjoin_collision" => (
            "USE avis continental
             SELECT c.code, f.flnu FROM avis.cars c, continental.flights f
             WHERE c.rate < f.rate",
            500,
        ),
        // Two concurrent vital updates of the same tables prepare at the
        // sites in opposite orders; only `lock_wait_timeout` breaks the
        // hold-and-wait, so a statement stalls for seconds.
        "vital_stall" => (
            "USE continental VITAL delta united VITAL
             UPDATE flight% SET rate% = rate% + 1
             WHERE sour% = 'Houston' AND dest% = 'San Antonio'",
            300,
        ),
        other => return Err(format!("unknown repro `{other}` (xjoin_collision, vital_stall)")),
    };
    let fed = paper_federation();
    let results: Vec<(Vec<f64>, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let mut session = fed.session();
                scope.spawn(move || {
                    let mut micros = Vec::with_capacity(rounds);
                    let mut errors = Vec::new();
                    for _ in 0..rounds {
                        let t = Instant::now();
                        let outcome = session.execute(statement);
                        micros.push(t.elapsed().as_secs_f64() * 1e6);
                        match outcome {
                            Ok(mdbs::MsqlOutcome::Update(r)) if !r.success => {
                                errors.push(format!("update not applied: rc {}", r.return_code))
                            }
                            Ok(_) => {}
                            Err(e) => errors.push(e.to_string()),
                        }
                    }
                    (micros, errors)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a repro thread panicked")).collect()
    });
    let micros: Vec<f64> = results.iter().flat_map(|(m, _)| m.iter().copied()).collect();
    let errors: Vec<&String> = results.iter().flat_map(|(_, e)| e.iter()).collect();
    println!(
        "{name}: 2 sessions x {rounds} statements: {} failed; latency p50 {:.0} us, p99 {:.0} us, \
         max {:.0} us",
        errors.len(),
        median(&micros),
        quantile(&micros, 0.99),
        quantile(&micros, 1.0)
    );
    if let Some(first) = errors.first() {
        println!("first failure: {first}");
    }
    Ok(())
}
